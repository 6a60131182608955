"""Ideal calculus on the standard window of complexes over UT2."""

import os

import pytest

from build_examples import corner_map, split_map, ut2_complexes
from kbproj import ideals, runner
from kbproj.fixture import load_fixture
from kbproj.functors import FiniteSubcat, induction_functor, restriction_functor
from kbproj.homcat import identity_map, rotate_triangle
from kbproj.ideals import (
    ExactIdealReport,
    HomIdeal,
    IdealError,
    TrianglePresentation,
    annihilator_ideal,
    compose_coords,
    exact_ideal_report,
    factor_through_ideal,
    ideal_closure,
    ideal_product,
    is_idempotent_ideal,
    principal_ideal,
    saturation_report,
    shift_stability_report,
    telescope_report,
    zero_ideal,
)
from kbproj.linalg import QQ, Subspace


@pytest.fixture(scope="module")
def ctx():
    data = ut2_complexes()
    A = data["alg"]
    e11, e12, e22 = A.basis_vec(0), A.basis_vec(1), A.basis_vec(2)
    F = restriction_functor(split_map(A), {0: [(0, e11), (1, e12)], 1: [(1, e22)]})
    G = induction_functor(corner_map(A), {0: [(0, (1,))], 1: []})
    objs = {
        "P1s": data["P1s"], "P2s": data["P2s"], "S1r": data["S1r"],
        "P1s[1]": data["P1s"].shift(1), "P2s[1]": data["P2s"].shift(1),
        "S1r[1]": data["S1r"].shift(1),
    }
    sub = FiniteSubcat(objs, shifts={"P1s": "P1s[1]", "P2s": "P2s[1]",
                                     "S1r": "S1r[1]"})
    a1, b1, g1 = rotate_triangle(data["iota"], data["beta"], data["gamma"])
    a2, b2, g2 = rotate_triangle(a1, b1, g1)
    tris = [
        TrianglePresentation(("P2s", "P1s", "S1r"),
                             data["iota"], data["beta"], data["gamma"]),
        TrianglePresentation(("P1s", "S1r", "P2s[1]"), a1, b1, g1),
        TrianglePresentation(("S1r", "P2s[1]", "P1s[1]"), a2, b2, g2),
    ]
    data.update({"F": F, "G": G, "sub": sub, "tris": tris})
    return data


# -- two routes to the same ideal ---------------------------------------------


def test_restriction_annihilator_is_principal_on_connecting_class(ctx):
    # route one: kernel of the induced map on classes; route two: closure
    ann = annihilator_ideal(ctx["F"], ctx["sub"])
    gen = principal_ideal(ctx["sub"], "S1r", "P2s[1]", ctx["gamma"])
    assert ann == gen
    assert ann.dims() == {("S1r", "P2s[1]"): 1}


def test_connecting_class_ideal_square_vanishes(ctx):
    J = principal_ideal(ctx["sub"], "S1r", "P2s[1]", ctx["gamma"])
    assert sum(J.dims().values()) == 1
    assert not ideal_product(J, J).components
    assert not is_idempotent_ideal(J)


def test_restriction_telescope_report_inconsistent(ctx):
    rep = telescope_report(ctx["F"], ctx["sub"])
    assert rep.kernel_names == []
    assert not rep.factor_ideal.components
    assert not rep.consistent
    assert rep.mismatches == [("S1r", "P2s[1]")]


def test_corner_telescope_report_consistent(ctx):
    rep = telescope_report(ctx["G"], ctx["sub"])
    assert rep.kernel_names == ["P2s", "P2s[1]"]
    assert rep.consistent and rep.mismatches == []
    assert rep.annihilator == factor_through_ideal(ctx["sub"], ["P2s", "P2s[1]"])


def test_corner_annihilator_frozen_dims_and_idempotent(ctx):
    ann = annihilator_ideal(ctx["G"], ctx["sub"])
    assert ann.dims() == {
        ("P2s", "P2s"): 1,
        ("P2s", "P1s"): 1,
        ("P2s[1]", "P2s[1]"): 1,
        ("P2s[1]", "P1s[1]"): 1,
        ("S1r", "P2s[1]"): 1,
    }
    assert is_idempotent_ideal(ann)


# -- stability ----------------------------------------------------------------


def test_shift_stability_corner(ctx):
    ann = annihilator_ideal(ctx["G"], ctx["sub"])
    ok, checked = shift_stability_report(ann)
    assert ok
    assert ("P2s", "P1s") in checked and ("P2s", "P2s") in checked
    assert len(checked) == 9


def test_shift_stability_skips_undeclared_pairs(ctx):
    J = principal_ideal(ctx["sub"], "S1r", "P2s[1]", ctx["gamma"])
    ok, checked = shift_stability_report(J)
    assert ok
    assert ("S1r", "P2s[1]") not in checked


# -- saturation ---------------------------------------------------------------


def test_corner_annihilator_saturated(ctx):
    ann = annihilator_ideal(ctx["G"], ctx["sub"])
    ok, checks = saturation_report(ann, ctx["tris"])
    assert ok
    assert any(c.applicable for c in checks)
    assert all(c.holds for c in checks)


def test_restriction_annihilator_saturated(ctx):
    ann = annihilator_ideal(ctx["F"], ctx["sub"])
    ok, checks = saturation_report(ann, ctx["tris"])
    assert ok
    applicable = [c for c in checks if c.applicable]
    assert applicable and all(c.triangle == ("P1s", "S1r", "P2s[1]") for c in applicable)


def test_two_leg_ideal_fails_saturation(ctx):
    sub = ctx["sub"]
    seeds = {
        ("P1s", "S1r"): [sub.hom("P1s", "S1r").class_coords(ctx["beta"])],
        ("S1r", "P2s[1]"): [sub.hom("S1r", "P2s[1]").class_coords(ctx["gamma"])],
    }
    J = ideal_closure(sub, seeds)
    assert J.dims() == {("P1s", "S1r"): 1, ("S1r", "P2s[1]"): 1}
    ok, checks = saturation_report(J, [ctx["tris"][1]])
    assert not ok
    bad = [c for c in checks if not c.holds]
    assert bad and bad[0].target == "S1r"
    assert not is_idempotent_ideal(J)


def test_saturation_rejects_unverified_triangle(ctx):
    # a presentation recognizes its triangle when it is built, so saturation
    # never sees one that is not exact
    with pytest.raises(IdealError, match="failed verification"):
        TrianglePresentation(("P2s", "P1s", "S1r"), ctx["iota"], ctx["beta"],
                             ctx["gamma"].scale(QQ.from_int(2)))


def test_saturation_rejects_mismatched_names(ctx):
    ann = annihilator_ideal(ctx["G"], ctx["sub"])
    fake = TrianglePresentation(("P1s", "P2s", "S1r"), ctx["iota"], ctx["beta"],
                                ctx["gamma"])
    with pytest.raises(IdealError, match="does not match"):
        saturation_report(ann, [fake])


# -- combined report ----------------------------------------------------------


def test_exact_ideal_report_corner(ctx):
    ann = annihilator_ideal(ctx["G"], ctx["sub"])
    rep = exact_ideal_report(ann, ctx["tris"])
    assert isinstance(rep, ExactIdealReport)
    assert rep.idempotent and rep.shift_stable and rep.saturated is True


def test_exact_ideal_report_connecting_class(ctx):
    J = principal_ideal(ctx["sub"], "S1r", "P2s[1]", ctx["gamma"])
    rep = exact_ideal_report(J, ctx["tris"])
    assert rep.saturated is True
    assert not rep.idempotent


def test_exact_ideal_report_without_triangles(ctx):
    J = zero_ideal(ctx["sub"])
    rep = exact_ideal_report(J)
    assert rep.idempotent and rep.shift_stable
    assert rep.saturated is None


def test_exact_ideal_report_carries_the_square(ctx):
    for I in (annihilator_ideal(ctx["G"], ctx["sub"]),
              principal_ideal(ctx["sub"], "S1r", "P2s[1]", ctx["gamma"])):
        rep = exact_ideal_report(I)
        assert rep.square == ideal_product(I, I)
        assert rep.idempotent == (rep.square == I)


@pytest.mark.parametrize("fixture, task_id", [("corner", "ideal-ann-g"),
                                              ("split", "ideal-gamma")])
def test_check_ideal_task_squares_its_ideal_once(fixture, task_id, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", f"{fixture}.json")
    fx = load_fixture(path)
    task = next(t for t in fx.tasks if t["id"] == task_id)
    calls = []

    def counted(I, J):
        calls.append((I, J))
        return product(I, J)

    product = ideals.ideal_product
    monkeypatch.setattr(ideals, "ideal_product", counted)
    # and wherever the runner may have imported it by name
    monkeypatch.setattr(runner, "ideal_product", counted, raising=False)
    report = runner.run_task(fx, task)
    assert len(calls) == 1
    assert {"square_pair_dims", "idempotent"} <= set(report.evidence)


# -- structural checks --------------------------------------------------------


def test_non_ideal_components_rejected(ctx):
    sub = ctx["sub"]
    comps = {("P1s", "P1s"): Subspace.full(QQ, sub.hom("P1s", "P1s").dim)}
    with pytest.raises(IdealError, match="not closed"):
        HomIdeal(sub, comps)


def test_identity_closure_equals_factor_through(ctx):
    sub = ctx["sub"]
    coords = sub.hom("P1s", "P1s").class_coords(identity_map(ctx["P1s"]))
    grown = ideal_closure(sub, {("P1s", "P1s"): [coords]})
    assert grown == factor_through_ideal(sub, ["P1s"])
    assert grown.dims()[("P2s", "P1s")] == 1


def test_compose_coords_bilinearity(ctx):
    sub = ctx["sub"]
    idc = sub.hom("P1s", "P1s").class_coords(identity_map(ctx["P1s"]))
    bc = sub.hom("P1s", "S1r").class_coords(ctx["beta"])
    two, three = QQ.from_int(2), QQ.from_int(3)
    out = compose_coords(sub, "P1s", "P1s", "S1r",
                         [QQ.mul(two, idc[0])], [QQ.mul(three, bc[0])])
    assert out == [QQ.mul(QQ.from_int(6), QQ.mul(idc[0], bc[0]))]


def test_factor_through_unknown_object_rejected(ctx):
    with pytest.raises(IdealError, match="unknown object"):
        factor_through_ideal(ctx["sub"], ["nope"])
