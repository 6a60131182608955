"""Map and complex lifting across bimodule functors."""

import dataclasses
import os
import random

import pytest

from build_examples import corner_map, split_map, ut2_complexes
from oracles import (
    lift_node_by_blocks,
    route_trusted_algmats_through_validation,
    stalk_layer_inverse_by_solving,
)
from kbproj import lifting
from kbproj.fixture import load_fixture
from kbproj.functors import induction_functor, restriction_functor
from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomSpace,
    ProjComplex,
    chain_map,
    cone,
    direct_sum,
    single_summand_complex,
    zero_complex,
    zero_map,
)
from kbproj.lifting import (
    ComplexLiftProblem,
    ComplexLiftReport,
    LiftError,
    MapLiftProblem,
    SearchBudget,
    StalkLift,
    lift_chain_map,
    lift_complex,
    verify_complex_lift,
    verify_map_lift,
)
from kbproj.linalg import QQ
from kbproj.serialize import complex_lift_cert_to_json

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def lifting_context():
    """The UT2 complexes, the functors F (restriction along split, to k x k)
    and G (induction along corner, to k), and a stalk table for each."""
    data = ut2_complexes()
    A = data["alg"]
    e11, e12, e22 = A.basis_vec(0), A.basis_vec(1), A.basis_vec(2)
    F = restriction_functor(split_map(A), {0: [(0, e11), (1, e12)], 1: [(1, e22)]})
    G = induction_functor(corner_map(A), {0: [(0, (1,))], 1: []})
    k, kk = G.target_alg, F.target_alg

    kstalk = single_summand_complex(k, 0, 0, name="k")
    GP1 = G.apply_complex(data["P1s"])
    eG = chain_map(GP1, kstalk, {0: AlgMat(k, (0,), (0,), [[(QQ.one,)]])})
    g_table = {0: StalkLift(data["P1s"], eG)}

    Q1 = single_summand_complex(kk, 0, 0, name="Q1")
    Q2 = single_summand_complex(kk, 1, 0, name="Q2")
    u1, u2 = kk.basis_vec(0), kk.basis_vec(1)
    FS1 = F.apply_complex(data["S1r"])
    qF = chain_map(FS1, Q1, {0: AlgMat(kk, (0,), (0, 1), [[u1, kk.zero_vec()]])})
    FP2 = F.apply_complex(data["P2s"])
    idQ2 = chain_map(FP2, Q2, {0: AlgMat(kk, (1,), (1,), [[u2]])})
    f_table = {0: StalkLift(data["S1r"], qF), 1: StalkLift(data["P2s"], idQ2)}

    data.update({"F": F, "G": G, "k": k, "kk": kk, "kstalk": kstalk,
                 "g_table": g_table, "f_table": f_table, "u1": u1, "u2": u2})
    return data


@pytest.fixture(scope="module")
def ctx():
    return lifting_context()


# -- map lifting --------------------------------------------------------------


def test_depth_zero_lift(ctx):
    G = ctx["G"]
    X, Y = ctx["P1s"], ctx["S1r"]
    alpha = G.apply_map(ctx["beta"])
    alpha = GradedMap(G.apply_complex(X), G.apply_complex(Y), 0, alpha.components)
    problem = MapLiftProblem(G, X, Y, alpha)
    rep = lift_chain_map(problem)
    assert rep.verdict == "found"
    assert rep.certificate.depth == 0 and rep.certificate.path == ()
    ok, reason = verify_map_lift(problem, rep.certificate)
    assert ok, reason


def test_zero_map_lifts_trivially(ctx):
    G = ctx["G"]
    X, Y = ctx["S1r"], ctx["P1s"]
    alpha = zero_map(G.apply_complex(X), G.apply_complex(Y), 0)
    rep = lift_chain_map(MapLiftProblem(G, X, Y, alpha))
    assert rep.verdict == "found" and rep.certificate.depth == 0


def test_corner_lift_at_depth_one(ctx):
    # the identity between the images has no genuine preimage, but a single
    # cone over the killed projective produces one
    G = ctx["G"]
    X, Y = ctx["S1r"], ctx["P1s"]
    GX, GY = G.apply_complex(X), G.apply_complex(Y)
    alpha = chain_map(GX, GY, {0: AlgMat(ctx["k"], (0,), (0,), [[(QQ.one,)]])})

    bare = lift_chain_map(MapLiftProblem(G, X, Y, alpha))
    assert bare.verdict == "not_found" and bare.candidates_tried == 1

    problem = MapLiftProblem(G, X, Y, alpha, generators=[ctx["P2s"]])
    rep = lift_chain_map(problem)
    assert rep.verdict == "found"
    assert rep.certificate.depth == 1
    assert rep.certificate.path == ((0, 1, 0),)
    assert rep.candidates_tried == 2
    ok, reason = verify_map_lift(problem, rep.certificate)
    assert ok, reason


def test_section_of_image_does_not_lift(ctx):
    # the simple's resolution splits off the image of the big projective,
    # but the splitting admits no preimage at any search depth
    F, kk = ctx["F"], ctx["kk"]
    X, Y = ctx["S1r"], ctx["P1s"]
    FX, FY = F.apply_complex(X), F.apply_complex(Y)
    z = kk.zero_vec()
    sigma = chain_map(FX, FY, {0: AlgMat(kk, (0, 1), (0, 1),
                                         [[ctx["u1"], z], [z, z]])})
    Fbeta = F.apply_map(ctx["beta"])
    Fbeta = GradedMap(FY, FX, 0, Fbeta.components)
    H = HomSpace(FX, FX)
    from kbproj.homcat import identity_map

    ok, _ = H.is_nullhomotopic(Fbeta.compose(sigma) - identity_map(FX))
    assert ok  # sigma really is a section up to homotopy

    rep = lift_chain_map(MapLiftProblem(F, X, Y, sigma, generators=()),
                         budget=SearchBudget(max_depth=4))
    assert rep.verdict == "not_found"
    assert rep.candidates_tried == 1  # nothing to cone off, search is exhausted


def test_unkilled_generator_rejected(ctx):
    F = ctx["F"]
    X, Y = ctx["S1r"], ctx["P1s"]
    alpha = zero_map(F.apply_complex(X), F.apply_complex(Y), 0)
    with pytest.raises(LiftError, match="not killed"):
        MapLiftProblem(F, X, Y, alpha, generators=[ctx["P2s"]])


def test_budget_exhaustion(ctx):
    G = ctx["G"]
    X, Y = ctx["S1r"], ctx["P1s"]
    alpha = chain_map(G.apply_complex(X), G.apply_complex(Y),
                      {0: AlgMat(ctx["k"], (0,), (0,), [[(QQ.one,)]])})
    rep = lift_chain_map(MapLiftProblem(G, X, Y, alpha, generators=[ctx["P2s"]]),
                         budget=SearchBudget(max_depth=0))
    assert rep.verdict == "not_found" and rep.depth_reached == 0


def _random_corner_problems(ctx):
    """Seeded map-lift problems across the corner functor, each with a nonzero Hom."""
    G = ctx["G"]
    rng = random.Random(41)
    pool = [ctx["P1s"], ctx["P2s"], ctx["S1r"], ctx["P1s"].shift(1),
            ctx["S1r"].shift(-1), direct_sum(ctx["P1s"], ctx["S1r"])]
    for _ in range(48):
        X, Y = rng.choice(pool), rng.choice(pool)
        GX, GY = G.apply_complex(X), G.apply_complex(Y)
        H = HomSpace(GX, GY)
        if H.dim == 0:
            continue
        alpha = zero_map(GX, GY, 0)
        for b in H.basis():
            alpha = alpha + b.scale(QQ.from_int(rng.randint(-2, 2)))
        yield MapLiftProblem(G, X, Y, alpha, generators=[ctx["P2s"]])


def test_randomized_corner_lifts_all_verify(ctx):
    rounds = 0
    for problem in _random_corner_problems(ctx):
        rep = lift_chain_map(problem, budget=SearchBudget(max_depth=3))
        assert rep.verdict == "found"
        ok, reason = verify_map_lift(problem, rep.certificate)
        assert ok, reason
        rounds += 1
    assert rounds >= 10


def test_lift_nodes_match_the_block_oracle(ctx, monkeypatch):
    # at every node the search visits, on the fixtures' lift problems and the
    # randomized corner problems, the shared (map, homotopy) solver gives the
    # (lifted, homotopy) of the block layout it replaced, or None like it
    solve, outcomes = lifting.solve_up_to_homotopy, []

    def compared(F):
        def both(Xc, Y, terms):
            got = solve(Xc, Y, terms)
            [(_, b)] = terms
            want = lift_node_by_blocks(F, Xc, Y, b)
            assert got == (None if want is None else (want[0], [want[1]]))
            outcomes.append(got is not None)
            return got
        return both

    runs = [(problem, lift_chain_map, SearchBudget(max_depth=3))
            for problem in _random_corner_problems(ctx)]
    for name in ("corner", "split"):
        fx = load_fixture(os.path.join(FIXTURES, f"{name}.json"))
        runs += [(problem, lift_chain_map, budget) for problem, budget in fx.lifts.values()]
        runs += [(problem, lift_complex, budget)
                 for problem, budget in fx.complex_lifts.values()]
    for problem, search, budget in runs:
        monkeypatch.setattr(lifting, "solve_up_to_homotopy", compared(problem.functor))
        search(problem, budget)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 5


def test_verify_rejects_tampered_certificates(ctx):
    G = ctx["G"]
    X, Y = ctx["P1s"], ctx["S1r"]
    alpha = G.apply_map(ctx["beta"])
    alpha = GradedMap(G.apply_complex(X), G.apply_complex(Y), 0, alpha.components)
    problem = MapLiftProblem(G, X, Y, alpha)
    rep = lift_chain_map(problem)
    cert = rep.certificate
    bad1 = dataclasses.replace(cert, lifted=cert.lifted.scale(QQ.from_int(2)))
    ok, reason = verify_map_lift(problem, bad1)
    assert not ok and "defect" in reason
    bad2 = dataclasses.replace(cert)
    bad2.replacement_contraction = cert.replacement_contraction.scale(QQ.from_int(2))
    ok, reason = verify_map_lift(problem, bad2)
    assert not ok and "contraction" in reason


def test_image_of_cone_is_cone_of_image(ctx):
    F = ctx["F"]
    C, _, _ = cone(ctx["iota"])
    FC = F.apply_complex(C)
    CF, _, _ = cone(F.apply_map(ctx["iota"]))
    assert FC.summands == CF.summands
    assert all(FC.diff_at(n) == CF.diff_at(n) for n in FC.degrees())


# -- complex lifting ----------------------------------------------------------


def _kcomplex(k, dims_and_diffs):
    summands, diffs = dims_and_diffs
    return ProjComplex(k, summands, diffs, name="target")


def test_lift_zero_and_single_stalk(ctx):
    G = ctx["G"]
    rep = lift_complex(ComplexLiftProblem(G, zero_complex(ctx["k"]), ctx["g_table"]))
    assert rep.verdict == "found" and rep.certificate.lift.is_zero()

    problem = ComplexLiftProblem(G, single_summand_complex(ctx["k"], 0, 2), ctx["g_table"])
    rep = lift_complex(problem)
    assert rep.verdict == "found"
    assert rep.certificate.lift.summands == {2: (0,)}
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_two_term_contractible_target(ctx):
    k, G = ctx["k"], ctx["G"]
    one = (QQ.one,)
    Y = ProjComplex(k, {-1: (0,), 0: (0,)},
                    {-1: AlgMat(k, (0,), (0,), [[one]])}, name="unit-cone")
    problem = ComplexLiftProblem(G, Y, ctx["g_table"], generators=[ctx["P2s"]])
    rep = lift_complex(problem)
    assert rep.verdict == "found"
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_two_term_split_target(ctx):
    k, G = ctx["k"], ctx["G"]
    Y = ProjComplex(k, {-1: (0,), 0: (0,)}, {}, name="split")
    problem = ComplexLiftProblem(G, Y, ctx["g_table"], generators=[ctx["P2s"]])
    rep = lift_complex(problem)
    assert rep.verdict == "found"
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_three_term_target(ctx):
    k, G = ctx["k"], ctx["G"]
    one = (QQ.one,)
    Y = ProjComplex(k, {-2: (0,), -1: (0,), 0: (0,)},
                    {-2: AlgMat(k, (0,), (0,), [[one]])}, name="three")
    problem = ComplexLiftProblem(G, Y, ctx["g_table"], generators=[ctx["P2s"]])
    rep = lift_complex(problem, budget=SearchBudget(max_depth=3))
    assert rep.verdict == "found"
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_restriction_simple_stalk(ctx):
    F, kk = ctx["F"], ctx["kk"]
    Q1 = single_summand_complex(kk, 0, 0, name="Q1")
    problem = ComplexLiftProblem(F, Q1, ctx["f_table"])
    rep = lift_complex(problem)
    assert rep.verdict == "found"
    assert rep.certificate.lift.summands == ctx["S1r"].summands
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_restriction_two_term(ctx):
    F, kk = ctx["F"], ctx["kk"]
    z = kk.zero_vec()
    Y = ProjComplex(kk, {-1: (1,), 0: (0, 1)},
                    {-1: AlgMat(kk, (0, 1), (1,), [[z], [ctx["u2"]]])},
                    name="imageish")
    problem = ComplexLiftProblem(F, Y, ctx["f_table"])
    rep = lift_complex(problem)
    assert rep.verdict == "found"
    ok, reason = verify_complex_lift(problem, rep.certificate)
    assert ok, reason


def test_lift_missing_stalk_reports_not_found(ctx):
    G = ctx["G"]
    rep = lift_complex(ComplexLiftProblem(G, ctx["kstalk"], {}))
    assert rep.verdict == "not_found"
    assert "no stalk lift" in rep.reason


def test_bad_stalk_table_rejected(ctx):
    G = ctx["G"]
    # an equivalence target that is not the stalk
    wrong = StalkLift(ctx["P1s"],
                      chain_map(G.apply_complex(ctx["P1s"]),
                                single_summand_complex(ctx["k"], 0, 1),
                                {}))
    with pytest.raises(LiftError, match="not the stalk"):
        ComplexLiftProblem(G, ctx["kstalk"], {0: wrong})


def test_lift_block_sums_pass_the_corner_check(ctx, monkeypatch):
    # the block-diagonal sums and the comparison map of a complex lift are
    # built without the corner check; rebuild them with it
    F, G, k, kk = ctx["F"], ctx["G"], ctx["k"], ctx["kk"]
    one = (QQ.one,)
    two_term = ProjComplex(kk, {-1: (1,), 0: (0, 1)},
                           {-1: AlgMat(kk, (0, 1), (1,), [[kk.zero_vec()], [ctx["u2"]]])},
                           name="imageish")
    three = ProjComplex(k, {-2: (0,), -1: (0,), 0: (0,)},
                        {-2: AlgMat(k, (0,), (0,), [[one]])}, name="three")

    def cases():
        # the stalk inverses are built with the problem, so build it under the check too
        return [(ComplexLiftProblem(F, two_term, ctx["f_table"]), SearchBudget()),
                (ComplexLiftProblem(G, three, ctx["g_table"], generators=[ctx["P2s"]]),
                 SearchBudget(max_depth=3))]

    fast = [lift_complex(problem, budget) for problem, budget in cases()]
    callers = route_trusted_algmats_through_validation(monkeypatch)
    for (problem, budget), rep in zip(cases(), fast):
        checked = lift_complex(problem, budget)
        assert checked.verdict == rep.verdict == "found"
        assert complex_lift_cert_to_json(checked.certificate) == \
            complex_lift_cert_to_json(rep.certificate)
        ok, reason = verify_complex_lift(problem, checked.certificate)
        assert ok, reason
    assert {"_sum_map", "lift_complex", "homotopy_inverse_from_contraction"} <= callers


def test_stalk_layer_inverses_match_the_solved_oracle(ctx, monkeypatch):
    # a stalk layer's inverse is the block sum of the stalk inverses the checked
    # problem keeps; on every layer the fixtures' and these tests' complex lifts
    # build, it is the inverse that contracting cone(e) gives
    k, kk, G, F = ctx["k"], ctx["kk"], ctx["G"], ctx["F"]
    one = (QQ.one,)
    g_targets = [
        zero_complex(k),
        single_summand_complex(k, 0, 2),
        ProjComplex(k, {-1: (0,), 0: (0,)}, {-1: AlgMat(k, (0,), (0,), [[one]])}),
        ProjComplex(k, {-1: (0,), 0: (0,)}, {}),
        ProjComplex(k, {-2: (0,), -1: (0,), 0: (0,)}, {-2: AlgMat(k, (0,), (0,), [[one]])}),
    ]
    f_targets = [
        single_summand_complex(kk, 0, 0),
        ProjComplex(kk, {-1: (1,), 0: (0, 1)},
                    {-1: AlgMat(kk, (0, 1), (1,), [[kk.zero_vec()], [ctx["u2"]]])}),
    ]
    runs = [(ComplexLiftProblem(G, Y, ctx["g_table"], generators=[ctx["P2s"]]), SearchBudget())
            for Y in g_targets]
    runs += [(ComplexLiftProblem(F, Y, ctx["f_table"]), SearchBudget()) for Y in f_targets]
    for name in ("corner", "split"):
        runs += load_fixture(os.path.join(FIXTURES, f"{name}.json")).complex_lifts.values()
    build, layers = lifting._lift_stalk_layer, []

    def recorded(problem, h):
        layers.append(build(problem, h))
        return layers[-1]

    monkeypatch.setattr(lifting, "_lift_stalk_layer", recorded)
    for problem, budget in runs:
        assert lift_complex(problem, budget).verdict == "found"
    for _, e, inv in layers:
        assert inv == stalk_layer_inverse_by_solving(e)
    # some layer sums two stalks
    assert len(layers) == 20 and any(len(e.target.summands_at(n)) > 1
                                     for _, e, _ in layers for n in e.target.degrees())
