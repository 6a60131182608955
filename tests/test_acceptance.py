"""The ten acceptance checks, one per test, zero tolerance.

Each test prints a single pass line on success; a failure shows up as the
usual pytest failure line for that criterion.  Fixture-file tasks run once
per module through the normal runner, and every task's wall time must stay
under ten seconds.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from build_examples import corner_map, dual_numbers, ground_field, split_map
import kbproj
from kbproj.algebra import (
    Bimodule,
    RingMap,
    induction_bimodule,
    module_along_map,
    module_tensor,
)
from kbproj.almost import (
    AlmostCase,
    almost_derived_ideal,
    contraction_defects,
    perturb_homotopy,
)
from kbproj.fixture import load_fixture
from kbproj.homcat import (
    AlgMat,
    HomSpace,
    chain_map,
    cone,
    direct_sum,
    is_homotopy_equivalence,
    recognize_triangle,
    rotate_triangle,
    single_summand_complex,
    verify_triangle_certificate,
    zero_map,
)
from kbproj.ideals import annihilator_ideal, factor_through_ideal
from kbproj.lifting import MapLiftProblem, SearchBudget, lift_chain_map, verify_map_lift
from kbproj.linalg import QQ
from kbproj.runner import run_tasks
from kbproj.derived import tor_with_bimodule
from oracles import bar_tor_dims, coequalizer_dim, dense_structure

from test_cli import CORNER, KOSZUL, SPLIT

TIME_LIMIT = 10.0


def _run_all(path):
    fx = load_fixture(path)
    reports = {}
    for rep in run_tasks(fx):
        assert rep.elapsed < TIME_LIMIT, \
            f"task {rep.task} took {rep.elapsed:.1f}s"
        reports[rep.task] = rep
    return fx, reports


@pytest.fixture(scope="module")
def corner():
    return _run_all(CORNER)


@pytest.fixture(scope="module")
def split():
    return _run_all(SPLIT)


@pytest.fixture(scope="module")
def koszul():
    return _run_all(KOSZUL)


def _bar_dims(g, i_max):
    R, S = g.source, g.target
    structure = dense_structure(R)

    def plain(M):
        return [[M.entry(i, j) for j in range(M.ncols)]
                for i in range(M.nrows)]

    m_action = [plain(S.right_regular(g.images[r])) for r in range(R.dim)]
    n_left = [plain(S.left_regular(g.images[r])) for r in range(R.dim)]
    return bar_tor_dims(structure, list(R.unit), S.dim, m_action,
                        S.dim, n_left, i_max)


def _passed(n, msg):
    print(f"ACCEPTANCE {n:02d}: PASS — {msg}")


def test_01_corner_map_certified(corner):
    _, reports = corner
    rep = reports["hepi-corner"]
    assert rep.verdict == "certified"
    ev = rep.evidence
    assert ev["tensor_square_dim"] == 1
    assert ev["target_dim"] == 1
    assert ev["multiplication_is_iso"]
    assert ev["tor_dims"] == [1, 0, 0, 0, 0]
    assert ev["resolution_complete"]
    # independent oracle: normalized bar complex over the source algebra
    assert _bar_dims(corner_map(), 4) == [1, 0, 0, 0, 0]
    _passed(1, "corner quotient map certified, tensor square dim 1, "
               "vanishing higher Tor, bar oracle agrees")


def test_02_split_map_refuted(split):
    _, reports = split
    rep = reports["hepi-split"]
    assert rep.verdict == "refuted"
    assert rep.evidence["tensor_square_dim"] == 4
    assert rep.evidence["target_dim"] == 3
    # independent oracle: exhaustive coequalizer relation span
    f = split_map()
    M = module_along_map(f)
    ut2 = f.target
    left = [ut2.left_regular(f.images[i]) for i in range(f.source.dim)]
    right = [ut2.right_regular(ut2.basis_vec(j)) for j in range(ut2.dim)]
    bim = Bimodule(f.source, ut2, ut2.dim, left, right)

    def rows(m):
        return [[m.entry(i, j) for j in range(m.ncols)]
                for i in range(m.nrows)]

    got = coequalizer_dim(3, 3, 2, [rows(a) for a in M.action],
                          [rows(a) for a in bim.left_action])
    assert got == 4
    _passed(2, "diagonal inclusion refuted: tensor square dim 4 vs 3, "
               "coequalizer oracle agrees")


def test_03_annihilator_without_kernel_on_window(split):
    fx, reports = split
    S = fx.lookup("subcategories", "S")
    assert len(S.names()) == 15  # three complexes, shifts -2..2
    # the connecting class is killed by the functor
    F = fx.functors["F"]
    ann = annihilator_ideal(F, S)
    assert ann.contains_map("S1r", "P2s[1]", fx.maps["gamma_0"])
    # but no window object is killed
    tel = reports["telescope-f"]
    assert tel.evidence["kernel_objects"] == []
    assert tel.evidence["factor_ideal_pair_dims"] == {}
    assert tel.verdict == "inconsistent"
    # the ideal it generates squares to zero without being zero
    ideal = reports["ideal-gamma"]
    assert ideal.verdict == "inconsistent"
    assert ideal.evidence["idempotent"] is False
    assert ideal.evidence["pair_dims"] != {}
    assert ideal.evidence["square_pair_dims"] == {}
    _passed(3, "nonzero annihilator with empty kernel on the 15-object "
               "window; generated ideal squares to zero; telescope "
               "comparison inconsistent")


def test_04_corner_annihilator_factors_through_kernel(corner):
    fx, reports = corner
    tel = reports["telescope-g"]
    assert tel.verdict == "consistent"
    assert tel.evidence["mismatched_pairs"] == []
    assert sorted(tel.evidence["kernel_objects"]) == sorted(
        ["P2s[-2]", "P2s[-1]", "P2s", "P2s[1]", "P2s[2]"])
    assert tel.evidence["annihilator_idempotent"] is True
    # exact equality of the two ideals at the library level
    S = fx.lookup("subcategories", "S")
    ann = annihilator_ideal(fx.functors["G"], S)
    fac = factor_through_ideal(S, tel.evidence["kernel_objects"])
    assert ann == fac
    # dual route: the closure of the five shifted identity classes
    chk = reports["ideal-ann-g"]
    assert chk.verdict == "consistent"
    assert chk.evidence["idempotent"] is True
    assert chk.evidence["pair_dims"] == tel.evidence["annihilator_pair_dims"]
    _passed(4, "corner annihilator equals the ideal factoring through "
               "killed projectives and is idempotent on the window")


def test_05_lift_certificates_sound(corner, split):
    fx, reports = corner
    sfx, sreports = split
    # every randomized lift across the corner functor is found and
    # re-verifies by direct arithmetic
    G = fx.functors["G"]
    P1s, P2s, S1r = (fx.complexes[n] for n in ("P1s", "P2s", "S1r"))
    rng = random.Random(41)
    pool = [P1s, P2s, S1r, P1s.shift(1), S1r.shift(-1),
            direct_sum(P1s, S1r)]
    rounds = verified = 0
    for _ in range(48):
        X, Y = rng.choice(pool), rng.choice(pool)
        GX, GY = G.apply_complex(X), G.apply_complex(Y)
        H = HomSpace(GX, GY)
        if H.dim == 0:
            continue
        alpha = zero_map(GX, GY, 0)
        for b in H.basis():
            alpha = alpha + b.scale(QQ.from_int(rng.randint(-2, 2)))
        problem = MapLiftProblem(G, X, Y, alpha, generators=[P2s])
        rep = lift_chain_map(problem, budget=SearchBudget(max_depth=3))
        assert rep.verdict == "found"
        ok, reason = verify_map_lift(problem, rep.certificate)
        assert ok, reason
        rounds += 1
        verified += 1
    assert rounds >= 10 and verified == rounds
    # complexes of length up to three rebuild across both functors
    for task in ("rebuild-kstalk", "rebuild-kcone", "rebuild-k3"):
        assert reports[task].verdict == "found"
        assert reports[task].evidence["reverified"] is True
    for task in ("rebuild-q1", "rebuild-fs1r"):
        assert sreports[task].verdict == "found"
        assert sreports[task].evidence["reverified"] is True
    # the up-to-homotopy section of the restricted resolution never lifts
    sig = sreports["lift-sigma"]
    assert sig.verdict == "not_found"
    assert sig.evidence["max_depth"] == 4
    _passed(5, f"{verified}/{rounds} randomized lift certificates "
               "re-verified; all short rebuilds found; obstruction map "
               "not found through depth 4")


def test_06_triangle_recognizer(corner):
    fx, reports = corner
    # canonical cone triangles and their rotations over randomized maps
    P1s, P2s, S1r = (fx.complexes[n] for n in ("P1s", "P2s", "S1r"))
    rng = random.Random(13)
    sources = [P1s, P2s, S1r, P2s.shift(1), P1s.shift(-1),
               direct_sum(P1s, P2s), direct_sum(S1r, P2s)]
    targets = [S1r, P1s, P2s, S1r.shift(1), direct_sum(S1r, P2s),
               direct_sum(P1s, P1s)]
    accepted = 0
    for X in sources:
        for Y in targets:
            H = HomSpace(X, Y)
            if H.dim == 0:
                continue
            for _ in range(3):
                coords = [QQ.from_int(rng.randint(-3, 3))
                          for _ in range(H.dim)]
                phi = H.L0.unpack(
                    [sum((c * r[t] for c, r in zip(coords, H.reps)),
                         QQ.zero) for t in range(H.L0.dim)])
                if not phi.is_chain_map():
                    continue
                C, incl, proj = cone(phi)
                v = recognize_triangle(phi, incl, proj)
                assert v.verdict == "exact"
                assert verify_triangle_certificate(phi, incl, proj, v)
                a2, b2, c2 = rotate_triangle(phi, incl, proj)
                v2 = recognize_triangle(a2, b2, c2)
                assert v2.verdict == "exact"
                assert verify_triangle_certificate(a2, b2, c2, v2)
                accepted += 2
    assert accepted >= 50
    # the corrupted connecting map is rejected
    assert reports["triangle-corrupt"].verdict == "not_exact"
    # fixture verdicts carry certificates that already re-verified
    for task in ("triangle-canonical", "triangle-rotated"):
        assert reports[task].verdict == "exact"
        assert reports[task].evidence["reverified"] is True
        assert "certificate" in reports[task].evidence
    _passed(6, f"{accepted} randomized cone triangles and rotations "
               "accepted with re-verified certificates; corrupted "
               "connecting map rejected")


def test_07_almost_module_suite(corner):
    fx, reports = corner
    # the only non-idempotent fixture ideal produces the extension witness
    rad = reports["almost-rad"]
    assert rad.verdict == "refuted"
    w = rad.evidence["serre"]["witness"]
    assert w["exhibits_failure"] is True
    assert (w["extension_dim"], w["sub_dim"], w["quotient_dim"]) == (3, 1, 2)
    assert w["sub_killed"] and w["quotient_killed"]
    assert not w["extension_killed"]
    # every idempotent fixture ideal certifies the adjunction identities
    for task in ("almost-corner", "almost-full", "almost-zero"):
        assert reports[task].evidence["serre"]["verdict"] == "certified"
    # corner case: multiplication cone collapses onto the small projective
    A = fx.algebras["UT2"]
    e11 = A.basis_vec(0)
    rep = almost_derived_ideal(AlmostCase(
        A, e11, include=["derived"], subcat=fx.lookup("subcategories", "S"),
        a_witness=[(0, e11)], square_witnesses={0: [(0, e11)]}))
    assert rep.verdict == "certified"
    assert rep.cone.summands == {-1: (0,), 0: (0, 1)}
    eps = chain_map(rep.cone, single_summand_complex(A, 1, 0),
                    {0: AlgMat(A, (1,), (0, 1),
                               [[A.zero_vec(), A.basis_vec(2)]])})
    ok, _ = is_homotopy_equivalence(eps)
    assert ok
    assert rep.idempotent_on_window
    derived = reports["almost-corner"].evidence["derived"]
    assert derived["idempotent_on_window"] is True
    assert derived["cone_summands"] == {"-1": [0], "0": [0, 1]}
    _passed(7, "Serre failure witness for the radical ideal; adjunction "
               "identities certified for idempotent ideals; corner "
               "multiplication cone is the small projective and its "
               "ideal is idempotent on the window")


def test_08_contraction_certificate_and_mutations(koszul):
    fx, reports = koszul
    assert reports["koszul-contracts"].verdict == "certified"
    cfx = fx.lookup("contractions", "koszul-x-inverted")
    assert contraction_defects(cfx) == {}
    ring = cfx.ring
    mutations = 0
    for degree, m in sorted(cfx.homotopy.items()):
        for r in range(m.nrows):
            for c in range(m.ncols):
                for delta in (None, ring.monomial((2, 1))):
                    assert contraction_defects(
                        perturb_homotopy(cfx, degree, r, c, delta))
                    mutations += 1
    assert mutations == 8  # four entries, two deltas each
    _passed(8, "stored contracting homotopy accepted; all 8 single-entry "
               "perturbations rejected")


def test_09_tor_oracle_equivalence():
    D = dual_numbers()
    k = ground_field()
    maps = [corner_map(), split_map(),
            RingMap(D, k, [["1"], ["0"]], name="collapse")]
    for g in maps:
        M = module_along_map(g)
        B = induction_bimodule(g)
        rep = tor_with_bimodule(M, B, 4)
        mine = [rep.dims.get(i, 0) for i in range(5)]
        assert mine == _bar_dims(g, 4), g.name
        assert rep.dims[0] == module_tensor(M, B).module.dim
    _passed(9, "minimal-resolution Tor equals bar-resolution Tor through "
               "degree 4 on all fixture ring maps")


def test_10_reports_are_byte_deterministic():
    # The child must import the same kbproj as this process, installed or
    # only on PYTHONPATH; nothing else of the parent's environment is passed.
    package_root = os.path.dirname(os.path.dirname(kbproj.__file__))
    outputs = {}
    for path in (CORNER, SPLIT, KOSZUL):
        runs = []
        for env_workers in ("1", "4", "1"):
            r = subprocess.run(
                [sys.executable, "-m", "kbproj.cli", "run",
                 "--fixture", path],
                capture_output=True, text=True,
                env={"KBPROJ_WORKERS": env_workers,
                     "PATH": "/usr/bin:/bin:/usr/local/bin",
                     "PYTHONHASHSEED": "random",
                     "PYTHONPATH": package_root},
                cwd=None)
            assert r.returncode == 0, r.stderr
            runs.append(r.stdout)
        assert runs[0] == runs[1] == runs[2]
        body = json.loads(runs[0])
        assert all("elapsed" not in rep for rep in body["reports"])
        outputs[path] = runs[0]
    assert len(outputs) == 3
    _passed(10, "JSON reports byte-identical across repeated runs and "
                "worker counts for all three fixture files")
