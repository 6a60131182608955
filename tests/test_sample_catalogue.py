"""The almost reports read one sample catalogue per algebra.

``almost.standard_modules`` builds the named sample modules of an algebra
once, caches them on it, and memoises dim Hom between any two of them.
``serre_adjoint_report`` reads its Hom dimensions from that memo and takes M
itself for M/Ma and ann_M(a) when M.a = 0; ``almost_quotient`` reads the
same samples.  Both must give the reports of ``oracles.serre_adjoint_report_fresh``
and ``oracles.almost_quotient_fresh``, the uncached paths they replaced, on
the UT2 fixtures, the algebra-families members at the workload's sizes and
algebras in a sheared basis: for the ideals 0, rad(R), R and ReR for every
vertex idempotent, and one non-idempotent ideal, which takes the witness
path.  Racing threads on a fresh algebra keep one catalogue, and corner's
almost tasks make a bounded number of ``hom_dim`` calls.
"""

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from build_examples import upper_triangular_2
from oracles import almost_quotient_fresh, serre_adjoint_report_fresh
from test_structure_checks import dense_algebras

import kbproj.almost
from kbproj.algebra import radical
from kbproj.almost import (
    AlmostCase,
    AlmostError,
    almost_quotient,
    serre_adjoint_report,
    standard_modules,
)
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.runner import run_tasks

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
LABELS = (("corner", "split")
          + tuple(f"{f}{n}" for f, n in workloads.family_members())
          + ("corner'", "UT3'", "Alin4'"))


def algebras(label):
    fx = FixtureFile({"format_version": 1, "field": "QQ", "algebras": dense_algebras(label)})
    return list(fx.algebras.values())


def cases(A):
    """The cases of 0, rad(R), R and ReR for each vertex idempotent, and, when
    the radical is not zero, the non-idempotent ideal generated by its first
    basis row."""
    rad = radical(A)
    out = {"0": AlmostCase(A, generators=[]), "rad": AlmostCase(A, generators=rad.space.rows),
           "R": AlmostCase(A, generators=[A.unit])}
    for k, nm in enumerate(A.idempotent_names):
        out[f"R{nm}R"] = AlmostCase(A, A.idempotent_vec(k))
    if rad.dim:
        out["arrow"] = AlmostCase(A, generators=[rad.space.rows[0]])
    return out


def quotient_of(A, e):
    """The quotient report of the case of ReR, built with the corner it reads."""
    return almost_quotient(AlmostCase(A, e, include=["quotient"]))


def outcome(report, *args):
    try:
        return report(*args)
    except AlmostError as exc:
        return ("AlmostError", str(exc))


@pytest.mark.parametrize("label", LABELS)
def test_reports_match_the_uncached_oracles(label):
    for A in algebras(label):
        built = cases(A)
        if built["rad"].ideal.dim:
            assert not built["arrow"].ideal.is_idempotent(), A.name
        corners = [A.idempotent_vec(k) for k in range(A.n_idempotents())] + [A.unit]
        # the first round fills the memo, the second reads it
        for _ in range(2):
            for name, case in built.items():
                assert serre_adjoint_report(case) == serre_adjoint_report_fresh(A, case.ideal), \
                    (A.name, name)
            for e in corners:
                assert outcome(quotient_of, A, e) == outcome(almost_quotient_fresh, A, e), \
                    (A.name, e)


def test_the_witness_path_is_taken():
    A = upper_triangular_2()
    rep = serre_adjoint_report(cases(A)["arrow"])
    assert not rep.idempotent and rep.verdict == "refuted" and rep.witness.exhibits_failure


def test_racing_threads_keep_one_catalogue():
    A = upper_triangular_2()
    # building a case reads no sample, so the threads race on the first catalogue
    case = AlmostCase(A, A.idempotent_vec(0))
    unit = AlmostCase(A, A.unit, include=["quotient"])
    assert "samples" not in A._built
    start = threading.Barrier(8)

    def run(_):
        start.wait()
        return standard_modules(A), serre_adjoint_report(case), almost_quotient(unit)

    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(run, range(8)))
    assert all(cat is standard_modules(A) for cat, _, _ in got)
    assert all(rep == serre_adjoint_report_fresh(A, case.ideal) for _, rep, _ in got)
    assert all(quo == almost_quotient_fresh(A, A.unit) for _, _, quo in got)


def test_corner_almost_tasks_count_their_hom_dims(monkeypatch):
    # the four almost tasks share UT2: its catalogue is built and its memo
    # filled once, so a repeat run computes only the Hom dims of the modules
    # M/Ma and ann_M(a) that are not M itself (240 calls per run uncached)
    fx = load_fixture(os.path.join(FIXDIR, "corner.json"))
    tasks = [t for t in fx.tasks if t["command"] == "almost-report"]
    assert len(tasks) == 4
    original, calls = kbproj.almost.hom_dim, []

    def counted(M, N):
        calls.append((M, N))
        return original(M, N)

    monkeypatch.setattr(kbproj.almost, "hom_dim", counted)
    run_tasks(fx, tasks, workers=1)
    assert len(calls) <= 64
    calls.clear()
    run_tasks(fx, tasks, workers=1)
    assert len(calls) <= 28
