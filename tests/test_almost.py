"""Idempotent-ideal quotient reports and contraction certificates."""

import json
import re

import pytest

import kbproj.almost
from build_examples import split_map, upper_triangular_2, ut2_complexes
from kbproj.algebra import ideal_generated_by_idempotent, radical
from kbproj.almost import (
    AlmostCase,
    AlmostError,
    ContractionFixture,
    almost_derived_ideal,
    almost_quotient,
    contraction_defects,
    in_perp,
    perturb_homotopy,
    serre_adjoint_report,
    standard_modules,
)
from kbproj.cli import main
from kbproj.fixture import load_fixture
from kbproj.functors import FiniteSubcat, FunctorError, restriction_functor
from kbproj.homcat import AlgMat, chain_map, is_contractible, is_homotopy_equivalence, single_summand_complex
from kbproj.ideals import factor_through_ideal
from kbproj.linalg import GF, LinalgError, Mat
from test_cli import KOSZUL


@pytest.fixture(scope="module")
def A():
    return upper_triangular_2()


@pytest.fixture(scope="module")
def window(A):
    data = ut2_complexes(A)
    P1s, P2s, S1r = data["P1s"], data["P2s"], data["S1r"]
    objs = {
        "P1s": P1s, "P2s": P2s, "S1r": S1r,
        "P1s[1]": P1s.shift(1), "P2s[1]": P2s.shift(1), "S1r[1]": S1r.shift(1),
    }
    shifts = {"P1s": "P1s[1]", "P2s": "P2s[1]", "S1r": "S1r[1]"}
    return data, FiniteSubcat(objs, shifts)


def _e(A, name):
    return A.basis_vec(A.basis_names.index(name))


def _koszul():
    """The two-variable Koszul complex with x inverted, as the fixture stores it."""
    return load_fixture(KOSZUL).lookup("contractions", "koszul-x-inverted")


# -- samples --------------------------------------------------------------------


def test_standard_modules_dims(A):
    mods = standard_modules(A)
    dims = {nm: M.dim for nm, M in mods.items()}
    assert dims == {"R": 3, "0": 0, "P(e11)": 2, "P(e22)": 1,
                    "S(e11)": 1, "S(e22)": 1}


def test_standard_modules_without_a_radical_omit_the_simples():
    # UT2 over GF(3): the trace form needs p > dim = 3, so radical raises AlgebraError
    mods = standard_modules(upper_triangular_2(GF(3)))
    assert sorted(mods) == ["0", "P(e11)", "P(e22)", "R"]


def test_standard_modules_propagate_an_internal_radical_error(monkeypatch):
    # a fresh algebra: the module-scoped one may already hold its catalogue
    B = upper_triangular_2()

    def broken(alg):
        raise LinalgError("internal error: nonzero solve residual")

    with monkeypatch.context() as m:
        m.setattr(kbproj.almost, "radical", broken)
        with pytest.raises(LinalgError, match="nonzero solve residual"):
            standard_modules(B)
    # nothing was cached: the next call builds the whole catalogue
    assert sorted(standard_modules(B)) == ["0", "P(e11)", "P(e22)", "R", "S(e11)", "S(e22)"]


def test_perp_membership(A):
    a = ideal_generated_by_idempotent(A, _e(A, "e11"))
    mods = standard_modules(A)
    killed = {nm for nm, M in mods.items() if in_perp(M, a)}
    assert killed == {"0", "P(e22)", "S(e22)"}


# -- Serre adjunction report ----------------------------------------------------


def test_serre_report_idempotent_corner_ideal(A):
    rep = serre_adjoint_report(AlmostCase(A, _e(A, "e11")))
    assert rep.idempotent and rep.verdict == "certified"
    assert rep.witness is None
    assert rep.checks and all(c.ok for c in rep.checks)
    by_pair = {(c.module, c.perp_module): c for c in rep.checks}
    c = by_pair[("R", "P(e22)")]
    assert c.coreflection_dims == (1, 1)
    assert c.reflection_dims == (2, 2)
    c = by_pair[("P(e11)", "P(e22)")]
    assert c.coreflection_dims == (0, 0)
    assert c.reflection_dims == (1, 1)


def test_serre_report_full_and_zero_ideal(A):
    rep = serre_adjoint_report(AlmostCase(A, generators=[A.unit]))
    assert rep.idempotent and rep.verdict == "certified"
    rep = serre_adjoint_report(AlmostCase(A, generators=[]))
    assert rep.idempotent and rep.verdict == "certified"


def test_serre_report_radical_refuted(A):
    rep = serre_adjoint_report(AlmostCase(A, generators=radical(A).space.rows))
    assert not rep.idempotent and rep.verdict == "refuted"
    w = rep.witness
    assert (w.extension_dim, w.sub_dim, w.quotient_dim) == (3, 1, 2)
    assert w.sub_killed and w.quotient_killed and not w.extension_killed
    assert w.exhibits_failure


# -- corner quotient -------------------------------------------------------------


def test_almost_quotient_corner(A):
    rep = almost_quotient(AlmostCase(A, _e(A, "e11"), include=["quotient"]))
    assert rep.corner.dim == 1
    assert rep.verdict == "certified"
    assert rep.module_dims == {"R": 1, "0": 0, "P(e11)": 1, "P(e22)": 0,
                               "S(e11)": 1, "S(e22)": 0}
    assert all(c.ok for c in rep.exactness)


def test_almost_quotient_unit(A):
    rep = almost_quotient(AlmostCase(A, A.unit, include=["quotient"]))
    assert rep.corner.dim == A.dim
    assert rep.module_dims == {"R": 3, "0": 0, "P(e11)": 2, "P(e22)": 1,
                               "S(e11)": 1, "S(e22)": 1}
    assert rep.verdict == "certified"


def test_almost_quotient_rejects_non_idempotent(A):
    with pytest.raises(AlmostError, match="not idempotent"):
        AlmostCase(A, _e(A, "e12"), include=["quotient"])


# -- derived ideal of the corner ideal -------------------------------------------


def test_derived_ideal_corner(A, window):
    data, S = window
    e11 = _e(A, "e11")
    rep = almost_derived_ideal(AlmostCase(A, e11, include=["derived"], subcat=S,
                                          a_witness=[(0, e11)], square_witnesses={0: [(0, e11)]}))
    assert rep.verdict == "certified"
    assert rep.tensor_square_dim == 2
    assert rep.projective_right
    C = rep.cone
    assert C.summands == {-1: (0,), 0: (0, 1)}
    e22 = _e(A, "e22")
    z = A.zero_vec()
    eps = chain_map(C, single_summand_complex(A, 1, 0),
                    {0: AlgMat(A, (1,), (0, 1), [[z, e22]])})
    ok, _ = is_homotopy_equivalence(eps)
    assert ok  # the cone collapses onto the small projective

    assert rep.ideal.dims() == {
        ("P1s", "P1s"): 1, ("P2s", "P1s"): 1, ("P1s", "S1r"): 1,
        ("P1s[1]", "P1s[1]"): 1, ("P2s[1]", "P1s[1]"): 1,
        ("P1s[1]", "S1r[1]"): 1,
    }
    assert rep.idempotent_on_window
    assert rep.ideal == factor_through_ideal(S, ["P1s", "P1s[1]"])


def test_derived_ideal_full(A, window):
    _, S = window
    e11, e22 = _e(A, "e11"), _e(A, "e22")
    rep = almost_derived_ideal(AlmostCase(
        A, generators=[A.unit], include=["derived"], subcat=S,
        a_witness=[(0, e11), (1, e22)], square_witnesses={0: [(0, e11)], 1: [(1, e22)]}))
    ok, _ = is_contractible(rep.cone)
    assert ok
    assert rep.tensor_square_dim == 3
    for (an, bn), d in rep.ideal.dims().items():
        assert d == S.hom(an, bn).dim
    assert rep.idempotent_on_window


def test_derived_ideal_zero(A, window):
    _, S = window
    rep = almost_derived_ideal(AlmostCase(A, generators=[], include=["derived"], subcat=S,
                                          a_witness=[], square_witnesses={}))
    assert rep.cone.summands == {0: (0, 1)}
    assert rep.ideal.component("P1s", "S1r").dim == 1
    for a, b in (("P1s", "P1s"), ("P2s", "P1s"), ("S1r", "S1r"),
                 ("P2s", "P2s"), ("S1r", "P2s[1]")):
        assert rep.ideal.component(a, b).dim == 0
    assert not rep.idempotent_on_window


def test_derived_ideal_requires_witness(A, window):
    # the derived part's witnesses and idempotence are checked when the case is built
    _, S = window
    e11 = _e(A, "e11")
    with pytest.raises(AlmostError, match="witness absent"):
        AlmostCase(A, e11, include=["derived"], subcat=S)
    with pytest.raises(AlmostError, match="not supported"):
        AlmostCase(A, e11, include=["derived"], subcat=S, a_witness=[(1, e11)],
                   square_witnesses={})
    with pytest.raises(AlmostError, match="must be idempotent"):
        AlmostCase(A, generators=radical(A).space.rows, include=["derived"], subcat=S)


@pytest.mark.parametrize("j", [2, -1, 0.5, "0", True])
def test_derived_witness_index_must_name_an_idempotent(A, window, j):
    # a bare index once read e_j by tuple indexing: -1 and True named another idempotent
    _, S = window
    e11 = _e(A, "e11")
    with pytest.raises(AlmostError, match=f"ideal: witness index {j!r} is not an idempotent "
                                          f"index of UT2"):
        AlmostCase(A, e11, include=["derived"], subcat=S, a_witness=[(j, e11)],
                   square_witnesses={0: [(0, e11)]})
    with pytest.raises(AlmostError, match=f"ideal corner 0: witness index {j!r}"):
        AlmostCase(A, e11, include=["derived"], subcat=S, a_witness=[(0, e11)],
                   square_witnesses={0: [(j, e11)]})
    # nor may it key a square witness list: the fixture loader refuses such a key too
    with pytest.raises(AlmostError, match=re.escape(
            f"square_witnesses key {j!r} is not an index of a_witness's 1 pairs")):
        AlmostCase(A, e11, include=["derived"], subcat=S, a_witness=[(0, e11)],
                   square_witnesses={0: [(0, e11)], j: [(0, e11)]})


# six faults of a witness list, each as pairs of (idempotent, UT2 basis name
# or element) for the corner e11.UT2 of the restriction along k x k -> UT2,
# and for the ideal a = UT2.e11.UT2 and its corner e11.a; with the message
# that names it
WITNESS_FAULTS = [
    ("bad-index", [(5, "e11"), (1, "e12")], [(5, "e11")],
     "witness index 5 is not an idempotent index of {alg}"),
    ("outside-the-module", [(0, "e11"), (1, "e22")], [(1, "e22")],
     "witness element lies outside the module"),
    ("not-supported", [(0, "e11"), (0, "e12")], [(1, "e11")],
     "witness element not supported at idempotent {j}"),
    ("too-few-pairs", [(0, "e11")], [],
     "witness map is not a bijection onto the module (rows {rows}, module dim 2)"),
    ("dependent-pairs", [(0, "e11"), (0, "e11")], [(1, "e12"), (1, "e12")],
     "witness map is not a bijection onto the module (rows 2, module dim 2)"),
    ("short-element", [(0, (1, 0)), (1, "e12")], [(0, (1, 0))],
     "witness element has 2 coordinates, not 3"),
]


def _element(A, x):
    return x if isinstance(x, tuple) else _e(A, x)


@pytest.mark.parametrize("entry", ["functor", "a_witness", "square_witnesses"])
@pytest.mark.parametrize("functor_pairs,almost_pairs,want", [f[1:] for f in WITNESS_FAULTS],
                         ids=[f[0] for f in WITNESS_FAULTS])
def test_each_witness_entry_point_refuses_each_fault(A, window, entry, functor_pairs,
                                                     almost_pairs, want):
    # the three entry points share algebra.check_witness and raise their own errors
    _, S = window
    e11, e22 = _e(A, "e11"), _e(A, "e22")
    if entry == "functor":
        pairs = [(j, _element(A, x)) for j, x in functor_pairs]
        with pytest.raises(FunctorError, match=re.escape(
                "res(split): " + want.format(alg="kxk", j=0, rows=1))):
            restriction_functor(split_map(A), {0: pairs, 1: [(1, e22)]})
        return
    pairs = [(j, _element(A, x)) for j, x in almost_pairs]
    if entry == "a_witness":
        what, witnesses = "ideal", {"a_witness": pairs, "square_witnesses": {0: [(0, e11)]}}
    else:
        what = "ideal corner 0"
        witnesses = {"a_witness": [(0, e11)], "square_witnesses": {0: pairs}}
    with pytest.raises(AlmostError, match=re.escape(
            f"{what}: " + want.format(alg="UT2", j=1, rows=0))):
        AlmostCase(A, e11, include=["derived"], subcat=S, **witnesses)


def test_a_report_on_a_part_the_case_does_not_include_is_refused(A, window):
    _, S = window
    case = AlmostCase(A, _e(A, "e11"), subcat=S)
    assert case.include == ["serre"] and case.functor is None and case.mult_columns is None
    with pytest.raises(AlmostError, match="does not include the quotient part"):
        almost_quotient(case)
    with pytest.raises(AlmostError, match="does not include the derived part"):
        almost_derived_ideal(case)


# -- contraction certificates -----------------------------------------------------


def test_koszul_contraction_accepts():
    assert contraction_defects(_koszul()) == {}


def test_empty_fixture_accepts():
    ring = _koszul().ring
    fx = ContractionFixture(ring, {}, {}, {}, name="empty")
    assert contraction_defects(fx) == {}


def test_koszul_rejects_every_single_entry_perturbation():
    fx = _koszul()
    ring = fx.ring
    deltas = [None, ring.monomial((2, 1))]
    tried = 0
    for n, m in fx.homotopy.items():
        for r in range(m.nrows):
            for c in range(m.ncols):
                for d in deltas:
                    bad = perturb_homotopy(fx, n, r, c, delta=d)
                    assert contraction_defects(bad), (n, r, c)
                    tried += 1
    assert tried == 8


def test_zeroed_homotopy_defects_localized():
    fx = _koszul()
    ring = fx.ring
    h = dict(fx.homotopy)
    h[0] = Mat.zeros(ring, 1, 2)
    bad = ContractionFixture(ring, fx.dims, fx.diff, h, name="h0-zero")
    defects = contraction_defects(bad)
    assert set(defects) == {0, -1}
    assert -2 not in defects  # the surviving identity still holds there


def test_a_declared_dimension_builds_nothing_of_its_size(capsys, tmp_path, monkeypatch):
    # a degree of dimension 10^9 with no stored matrix: h.d + d.h is zero
    # there, not the identity, and deciding so builds no identity matrix
    identity = Mat.identity.__func__

    def small_identity(cls, ring, n):
        assert n <= 10_000, f"an identity of size {n} was built"
        return identity(cls, ring, n)

    monkeypatch.setattr(Mat, "identity", classmethod(small_identity))
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({
        "format_version": 1, "field": "QQ", "algebras": {},
        "contractions": {"huge": {"dims": {"0": 10**9}}},
        "tasks": [{"id": "huge", "command": "verify-contraction", "name": "huge"}]}))
    assert main(["run", "--fixture", str(p)]) == 0
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    assert rep["verdict"] == "refuted"
    assert rep["evidence"]["defect_degrees"] == [0]


def test_fixture_rejects_non_square_zero():
    ring = _koszul().ring
    x = ring.monomial((1, 0))
    y = ring.monomial((0, 1))
    with pytest.raises(AlmostError, match="square"):
        ContractionFixture(ring, {-2: 1, -1: 2, 0: 1},
                           {-2: Mat.from_rows(ring, [[x, y]], 2),
                            -1: Mat.from_rows(ring, [[y], [x]], 1)},
                           {})


def test_fixture_rejects_bad_shapes():
    ring = _koszul().ring
    with pytest.raises(AlmostError, match="shape"):
        ContractionFixture(ring, {0: 2}, {}, {0: Mat.zeros(ring, 1, 1)})
