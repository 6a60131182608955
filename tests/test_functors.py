"""Bimodule functors: witness validation, transport, kernels, class maps."""

import random

import pytest

from build_examples import (
    corner_map,
    ground_field,
    product_of_two_fields,
    split_map,
    ut2_complexes,
)
from oracles import functor_class_matrix
from kbproj.algebra import module_tensor, projective_module
from kbproj.functors import (
    BimoduleFunctor,
    FiniteSubcat,
    FunctorError,
    induction_functor,
    kernel_objects,
    restriction_functor,
)
from kbproj.homcat import (
    AlgMat,
    chain_map,
    identity_map,
    is_contractible,
    is_homotopy_equivalence,
    single_summand_complex,
)
from kbproj.linalg import QQ, left_kernel


@pytest.fixture(scope="module")
def ctx():
    data = ut2_complexes()
    A = data["alg"]
    f = split_map(A)           # k x k -> UT2, u1 -> e11, u2 -> e22
    g = corner_map(A)          # UT2 -> k, e11 -> 1
    kk = f.source
    k = g.target
    e11, e12, e22 = A.basis_vec(0), A.basis_vec(1), A.basis_vec(2)
    # restriction along f: UT2-complexes become (k x k)-complexes
    F = restriction_functor(f, {0: [(0, e11), (1, e12)], 1: [(1, e22)]})
    # induction along g: UT2-complexes become k-complexes, e22 dies
    G = induction_functor(g, {0: [(0, (1,))], 1: []})
    data.update({"f": f, "g": g, "kk": kk, "k": k, "F": F, "G": G,
                 "e11": e11, "e12": e12, "e22": e22})
    return data


# -- witness validation ------------------------------------------------------


def test_witness_missing_idempotent_rejected(ctx):
    f = ctx["f"]
    with pytest.raises(FunctorError, match="no witness list"):
        restriction_functor(f, {0: [(0, ctx["e11"]), (1, ctx["e12"])]})


def test_witness_wrong_right_support_rejected(ctx):
    f = ctx["f"]
    with pytest.raises(FunctorError,
                       match=r"res\(split\): witness element not supported at idempotent 0"):
        restriction_functor(f, {0: [(0, ctx["e11"]), (0, ctx["e12"])],
                                1: [(1, ctx["e22"])]})


def test_witness_not_left_fixed_rejected(ctx):
    f = ctx["f"]
    with pytest.raises(FunctorError,
                       match=r"res\(split\): witness element lies outside the module"):
        restriction_functor(f, {0: [(0, ctx["e11"]), (1, ctx["e12"])],
                                1: [(1, ctx["e12"])]})


def test_witness_not_bijective_rejected(ctx):
    f = ctx["f"]
    with pytest.raises(FunctorError, match="not a bijection"):
        restriction_functor(f, {0: [(0, ctx["e11"])], 1: [(1, ctx["e22"])]})


# -- transport of matrices and complexes -------------------------------------


def test_identity_matrix_transports_to_identity(ctx):
    A, F = ctx["alg"], ctx["F"]
    m = AlgMat.identity(A, (0, 1, 1))
    out = F.apply_algmat(m)
    assert out == AlgMat.identity(F.target_alg, (0, 1, 1, 1))


def test_transport_is_multiplicative(ctx):
    A, F, G = ctx["alg"], ctx["F"], ctx["G"]
    rng = random.Random(23)
    idems = (0, 1)
    for _ in range(12):
        ti = tuple(rng.choice(idems) for _ in range(rng.randint(1, 2)))
        mi = tuple(rng.choice(idems) for _ in range(rng.randint(1, 2)))
        si = tuple(rng.choice(idems) for _ in range(rng.randint(1, 2)))

        def rand_mat(tgt, src):
            ents = []
            for i in tgt:
                row = []
                for j in src:
                    sp = A.corner_space(i, j)
                    v = A.zero_vec()
                    for b in sp.rows:
                        v = A.add_vec(v, A.scale_vec(QQ.from_int(rng.randint(-2, 2)), b))
                    row.append(v)
                ents.append(row)
            return AlgMat(A, tgt, src, ents)

        m1 = rand_mat(ti, mi)
        m2 = rand_mat(mi, si)
        for fun in (F, G):
            assert fun.apply_algmat(m1 @ m2) == fun.apply_algmat(m1) @ fun.apply_algmat(m2)


def test_restriction_preserves_dimensions(ctx):
    F = ctx["F"]
    for X in (ctx["P1s"], ctx["P2s"], ctx["S1r"]):
        FX = F.apply_complex(X)
        for n in X.degrees():
            assert (sum(FX.alg.right_ideal_space(i).dim for i in FX.summands_at(n))
                    == sum(X.alg.right_ideal_space(i).dim for i in X.summands_at(n)))


def test_induction_dims_match_tensor_oracle(ctx):
    # second route: degreewise coequalizer tensor with the bimodule
    A, G = ctx["alg"], ctx["G"]
    for X in (ctx["P1s"], ctx["P2s"], ctx["S1r"]):
        GX = G.apply_complex(X)
        for n in X.degrees():
            P = projective_module(A, X.summands_at(n))
            t = module_tensor(P, G.bimodule)
            assert (sum(GX.alg.right_ideal_space(i).dim for i in GX.summands_at(n))
                    == t.module.dim)


def test_restriction_image_of_resolution(ctx):
    F, kk = ctx["F"], ctx["kk"]
    u2 = kk.basis_vec(1)
    FX = F.apply_complex(ctx["S1r"])
    assert FX.summands == {-1: (1,), 0: (0, 1)}
    d = FX.diff_at(-1)
    # the (0, 0) entry is zero, so it is not stored
    assert dict(d.nonzero_entries()) == {(1, 0): u2}


def test_restriction_image_equivalent_to_simple_stalk(ctx):
    F, kk = ctx["F"], ctx["kk"]
    u1 = kk.basis_vec(0)
    FX = F.apply_complex(ctx["S1r"])
    Q1 = single_summand_complex(kk, 0, 0, name="Q1")
    q = chain_map(FX, Q1, {0: AlgMat(kk, (0,), (0, 1), [[u1, kk.zero_vec()]])})
    ok, _ = is_homotopy_equivalence(q)
    assert ok


def test_functor_preserves_chain_maps_and_composition(ctx):
    F = ctx["F"]
    beta, iota = ctx["beta"], ctx["iota"]
    comp = beta.compose(iota)
    Fb, Fi = F.apply_map(beta), F.apply_map(iota)
    Fcomp = F.apply_map(comp)
    assert Fb.is_chain_map() and Fi.is_chain_map()
    assert Fb.compose(Fi) == Fcomp
    Fid = F.apply_map(identity_map(ctx["P1s"]))
    assert Fid == identity_map(F.apply_complex(ctx["P1s"]))


def test_connecting_map_dies_under_restriction(ctx):
    F = ctx["F"]
    gamma = ctx["gamma"]
    Fg = F.apply_map(gamma)
    assert not Fg.is_zero()
    from kbproj.homcat import HomSpace

    H = HomSpace(Fg.source, Fg.target)
    ok, h = H.is_nullhomotopic(Fg)
    assert ok
    assert h.delta() == Fg


def test_corner_functor_kills_second_projective(ctx):
    G = ctx["G"]
    GP2 = G.apply_complex(ctx["P2s"])
    assert GP2.is_zero()
    GS1 = G.apply_complex(ctx["S1r"])
    assert GS1.summands == {0: (0,)}
    ok, _ = is_contractible(GS1)
    assert not ok
    Gi = G.apply_map(ctx["iota"])
    assert Gi.is_zero()


# -- subcategory cache, kernels, annihilators --------------------------------


@pytest.fixture(scope="module")
def subcat(ctx):
    objs = {
        "P1s": ctx["P1s"], "P2s": ctx["P2s"], "S1r": ctx["S1r"],
        "P1s[1]": ctx["P1s"].shift(1), "P2s[1]": ctx["P2s"].shift(1),
        "S1r[1]": ctx["S1r"].shift(1),
    }
    shifts = {"P1s": "P1s[1]", "P2s": "P2s[1]", "S1r": "S1r[1]"}
    return FiniteSubcat(objs, shifts=shifts)


def test_subcat_rejects_false_shift_pairing(ctx):
    with pytest.raises(FunctorError, match="not literally the translation"):
        FiniteSubcat({"P1s": ctx["P1s"], "P2s": ctx["P2s"]},
                     shifts={"P1s": "P2s"})


def test_subcat_compares_algebras_by_equality(ctx):
    # an equal copy of the algebra is the same algebra; a different one is not
    copy = ut2_complexes()
    assert copy["alg"] is not ctx["P1s"].alg
    mixed = FiniteSubcat({"P1s": ctx["P1s"], "P2s": copy["P2s"]})
    assert mixed.hom("P2s", "P1s").dim == 1
    with pytest.raises(FunctorError, match="different algebras"):
        FiniteSubcat({"P1s": ctx["P1s"], "k": single_summand_complex(ground_field(), 0)})


def test_subcat_hom_cache_and_dims(subcat):
    assert subcat.hom("P1s", "S1r") is subcat.hom("P1s", "S1r")
    assert subcat.hom("P1s", "S1r").dim == 1
    assert subcat.hom("P2s", "S1r").dim == 0
    assert subcat.hom("S1r", "P2s[1]").dim == 1


def test_subcat_composition_tensor(subcat, ctx):
    T = subcat.composition_tensor("P1s", "P1s", "S1r")
    H = subcat.hom("P1s", "S1r")
    assert T == [[H.class_coords(ctx["beta"])]]
    # exactness of the triangle shows up as vanishing compositions
    T2 = subcat.composition_tensor("P2s", "P1s", "S1r")
    assert all(all(c == QQ.zero for c in vec) for row in T2 for vec in row)


def test_subcat_shift_matrix_is_identity_here(subcat):
    M = subcat.shift_matrix("P2s", "P1s")
    assert M.nrows == 1 and M.ncols == 1
    assert M.entry(0, 0) == QQ.one


def test_kernel_objects(ctx, subcat):
    assert kernel_objects(ctx["F"], subcat) == []
    assert kernel_objects(ctx["G"], subcat) == ["P2s", "P2s[1]"]


def test_annihilator_classes_restriction(ctx, subcat):
    F = ctx["F"]
    # the connecting class dies, nothing else in sight does
    H = subcat.hom("S1r", "P2s[1]")
    FX = F.apply_complex(subcat.objects["S1r"])
    FY = F.apply_complex(subcat.objects["P2s[1]"])
    from kbproj.homcat import HomSpace

    FH = HomSpace(FX, FY)
    ann = left_kernel(functor_class_matrix(F, H, FH, FX, FY))
    assert ann.dim == 1

    H2 = subcat.hom("P2s", "P1s")
    FX2 = F.apply_complex(subcat.objects["P2s"])
    FY2 = F.apply_complex(subcat.objects["P1s"])
    FH2 = HomSpace(FX2, FY2)
    assert left_kernel(functor_class_matrix(F, H2, FH2, FX2, FY2)).dim == 0
    M = functor_class_matrix(F, H2, FH2, FX2, FY2)
    assert M.nrows == 1 and not M.is_zero()


def test_annihilator_classes_corner(ctx, subcat):
    G = ctx["G"]
    from kbproj.homcat import HomSpace

    H = subcat.hom("P2s", "P1s")
    GX = G.apply_complex(subcat.objects["P2s"])
    GY = G.apply_complex(subcat.objects["P1s"])
    GH = HomSpace(GX, GY)
    assert GH.dim == 0
    assert left_kernel(functor_class_matrix(G, H, GH, GX, GY)).dim == 1


def test_functors_between_declared_algebras(ctx):
    F, G = ctx["F"], ctx["G"]
    assert F.source_alg is ctx["alg"] and F.target_alg is ctx["kk"]
    assert G.source_alg is ctx["alg"] and G.target_alg is ctx["k"]
    assert ctx["kk"] == product_of_two_fields()
    assert ctx["k"] == ground_field()


def test_witness_key_outside_the_idempotents_rejected(ctx):
    with pytest.raises(FunctorError, match=r"witness key 7 is not an index 0\.\.1"):
        induction_functor(ctx["g"], {0: [(0, (1,))], 1: [], 7: [(0, (1,))]})


@pytest.mark.parametrize("j", [0.5, "0", True, 1])
def test_witness_index_that_is_not_a_target_idempotent_rejected(ctx, j):
    # a bare int(j) read 0.5, "0" and True as an index; 1 is past k's one idempotent
    with pytest.raises(FunctorError, match=f"ind\\(corner\\): witness index {j!r} is not an "
                                           f"idempotent index of k"):
        induction_functor(ctx["g"], {0: [(j, (1,))], 1: []})


def test_annihilator_builds_each_functor_matrix_once(ctx, subcat, monkeypatch):
    import kbproj.functors as functors
    from kbproj.ideals import annihilator_ideal

    G = induction_functor(ctx["g"], {0: [(0, (1,))], 1: []})
    built = []
    real = functors.functor_matrix
    monkeypatch.setattr(functors, "functor_matrix",
                        lambda F, li, lo: built.append(1) or real(F, li, lo))
    first = annihilator_ideal(G, subcat)
    count = len(built)
    assert count == sum(1 for a in subcat.names() for b in subcat.names()
                        if subcat.hom(a, b).dim)
    assert annihilator_ideal(G, subcat) == first
    assert len(built) == count


# -- what transport still checks ----------------------------------------------


@pytest.mark.parametrize("what", ["algmat", "complex", "map"])
def test_transport_refuses_input_over_another_algebra(ctx, what):
    # G starts at UT2; a complex over k once went through, its idempotent read
    # as UT2's e11, and a map over k ended in a bare LinalgError
    G, k = ctx["G"], ctx["k"]
    X = single_summand_complex(k, 0)
    apply, x = {"algmat": (G.apply_algmat, AlgMat.identity(k, (0,))),
                "complex": (G.apply_complex, X),
                "map": (G.apply_map, identity_map(X))}[what]
    with pytest.raises(FunctorError,
                       match=r"^ind\(corner\) starts at UT2, the input lives over k$"):
        apply(x)


@pytest.mark.parametrize("end", ["source", "target"])
def test_apply_map_refuses_a_given_end_without_the_image_summands(ctx, end):
    # F(P2) has one summand and F(P1) two, so F(P2) cannot stand for F(P1);
    # the image's summand check is a FunctorError, not the map constructor's
    F, P1s, P2s = ctx["F"], ctx["P1s"], ctx["P2s"]
    FP1, FP2 = F.apply_complex(P1s), F.apply_complex(P2s)
    ends = {"source": (FP2, FP1), "target": (FP1, FP2)}[end]
    with pytest.raises(FunctorError, match=r"the given image of P1 does not have "
                                           r"the image's summands"):
        F.apply_map(identity_map(P1s), *ends)
    # nor may a given end live over the source algebra
    with pytest.raises(FunctorError, match="the given image of P1"):
        F.apply_map(identity_map(P1s), P1s, FP1)
    assert F.apply_map(identity_map(P1s), FP1, FP1) == identity_map(FP1)
