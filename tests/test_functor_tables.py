"""Tabulated functor application and batched class coordinates against the
slow paths they replace.

``BimoduleFunctor.apply_algmat`` and ``functors.functor_matrix`` read the
functor's per-corner image tables; ``oracles.py`` keeps the per-entry
witness solve and the probing loop through unit vectors.  ``HomSpace.class_matrix``
solves a whole batch of maps at once; the oracle solves one map at a time.
Both sides must agree exactly on every functor of the fixtures, over the
subcategory objects and their degree -1, 0 and 1 layouts.
"""

import os
import random
import sys
import threading

import pytest

from oracles import (
    apply_algmat_by_solving,
    class_coords_by_solving,
    probed_functor_matrix,
)

from kbproj.fixture import load_fixture
from kbproj.functors import BimoduleFunctor, FunctorError, functor_matrix
from kbproj.homcat import AlgMat, HomcatError, HomSpace, MapLayout, direct_sum
from kbproj.linalg import Mat

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = ("corner", "split", "koszul")


def _functor_cases():
    """(fixture, functor name, subcat name) for every functor of the fixtures
    and every subcategory over its source algebra."""
    cases = []
    for fname in FIXTURES:
        fx = load_fixture(os.path.join(FIXDIR, f"{fname}.json"))
        for gname, F in sorted(fx.functors.items()):
            for sname, sub in sorted(fx.subcategories.items()):
                if sub.alg == F.source_alg:
                    cases.append((fname, gname, sname))
    return cases


CASES = _functor_cases()


def test_every_fixture_functor_is_covered():
    assert {(f, g) for f, g, _ in CASES} == {("corner", "G"), ("split", "F")}


def _case(fname, gname, sname):
    fx = load_fixture(os.path.join(FIXDIR, f"{fname}.json"))
    return fx.functors[gname], fx.subcategories[sname]


def _layouts(F, sub):
    """Each (source layout, image layout) over pairs of the unshifted and
    once-shifted subcategory objects, at degrees -1, 0 and 1."""
    objs = [X for name, X in sub.objects.items() if "[" not in name or name.endswith("[1]")]
    images = {id(X): F.apply_complex(X) for X in objs}
    for X in objs:
        for Y in objs:
            for s in (-1, 0, 1):
                yield MapLayout(X, Y, s), MapLayout(images[id(X)], images[id(Y)], s)


@pytest.mark.parametrize("fname,gname,sname", CASES)
def test_functor_matrix_matches_the_probing_loop(fname, gname, sname):
    F, sub = _case(fname, gname, sname)
    seen = 0
    for L, FL in _layouts(F, sub):
        assert functor_matrix(F, L, FL) == probed_functor_matrix(F, L, FL)
        seen += L.dim > 0 and FL.dim > 0
    assert seen > 0


@pytest.mark.parametrize("fname,gname,sname", CASES)
def test_apply_algmat_matches_the_per_entry_solve(fname, gname, sname):
    F, sub = _case(fname, gname, sname)
    rng = random.Random(5)
    ring = F.source_alg.ring
    mats = [d for X in sub.objects.values() for d in X.diff.values()]
    for L, _ in _layouts(F, sub):
        for _ in range(2):
            g = L.unpack([ring.from_int(rng.randint(-3, 3)) for _ in range(L.dim)])
            mats.extend(g.components.values())
    assert mats
    for m in mats:
        assert F.apply_algmat(m) == apply_algmat_by_solving(F, m)


def test_functor_matrix_rejects_layouts_that_are_not_images():
    F, sub = _case("split", "F", "S")
    X, Y = sub.objects["P1s"], sub.objects["S1r"]
    FX, FY = F.apply_complex(X), F.apply_complex(Y)
    L = MapLayout(X, Y, 0)
    for bad in (MapLayout(FY, FX, 0), MapLayout(FX, FY, 1), MapLayout(FX, FX, 0), L):
        with pytest.raises(FunctorError, match="not the image"):
            functor_matrix(F, L, bad)


def _hom_spaces(F, sub):
    """Hom spaces between subcategory objects, between their images, and
    from the sum of the unshifted objects to itself and to its shift."""
    names = sub.names()
    images = {n: F.apply_complex(sub.objects[n]) for n in names}
    for a in names:
        for b in names:
            yield sub.hom(a, b)
            yield HomSpace(images[a], images[b])
    Z = sub.objects["P1s"]
    for name in ("P2s", "S1r"):
        Z = direct_sum(Z, sub.objects[name])
    for W in (Z, Z.shift(1)):
        yield HomSpace(Z, W)
        yield HomSpace(F.apply_complex(Z), F.apply_complex(W))


def _chain_maps(H, rng):
    """The class basis, random combinations of it plus boundaries, and zero."""
    ring = H.ring
    vecs = [list(r) for r in H.reps]
    for _ in range(2):
        v = [ring.zero] * H.L0.dim
        for r in list(H.reps) + list(H.boundaries.rows):
            c = ring.from_int(rng.randint(-2, 2))
            v = [ring.add(x, ring.mul(c, y)) for x, y in zip(v, r)]
        vecs.append(v)
    vecs.append([ring.zero] * H.L0.dim)
    return [H.L0.unpack(v) for v in vecs]


@pytest.mark.parametrize("fname,gname,sname", CASES)
def test_class_matrix_matches_one_solve_per_map(fname, gname, sname):
    F, sub = _case(fname, gname, sname)
    rng = random.Random(11)
    dims = set()
    for H in _hom_spaces(F, sub):
        maps = _chain_maps(H, rng)
        K = H.class_matrix(maps)
        assert (K.nrows, K.ncols) == (len(maps), H.dim)
        assert K.rows() == [class_coords_by_solving(H, f) for f in maps]
        assert [H.class_coords(f) for f in maps] == K.rows()
        dims.add(H.dim)
    assert 0 in dims and max(dims) > 1, dims


def test_class_matrix_rejects_a_batch_with_one_map_that_is_not_a_chain_map():
    _, sub = _case("corner", "G", "S")
    H = sub.hom("S1r", "P1s")
    t = next(t for t in range(H.L0.dim) if any(H.D0.row(t)))
    unit = [H.ring.zero] * H.L0.dim
    unit[t] = H.ring.one
    bad = H.L0.unpack(unit)
    with pytest.raises(HomcatError, match="not a chain map"):
        class_coords_by_solving(H, bad)
    with pytest.raises(HomcatError, match="not a chain map"):
        H.class_matrix(H.basis() + [bad] + H.basis())
    assert H.class_matrix([]).nrows == 0


def test_threads_racing_on_a_fresh_functor_get_identical_images():
    loaded, sub = _case("split", "F", "S")
    F = BimoduleFunctor(loaded.bimodule, loaded.witnesses, loaded.name)
    assert not F._tables
    X = sub.objects["S1r[1]"]
    m = next(iter(X.diff.values()))
    want = apply_algmat_by_solving(F, m)
    results = [None] * 8
    barrier = threading.Barrier(8, timeout=30)

    def work(i):
        barrier.wait()
        results[i] = (F.apply_algmat(m), F.apply_complex(X))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(r is not None for r in results)
    assert all(img == want for img, _ in results)
    assert all(FX == results[0][1] for _, FX in results)


def test_witness_span_is_checked_when_a_table_is_built():
    loaded, _ = _case("split", "F", "S")
    F = BimoduleFunctor(loaded.bimodule, loaded.witnesses, loaded.name)
    W = F._wmat[0]
    F._wmat[0] = Mat.zeros(W.ring, W.nrows, W.ncols)  # a span that holds no image
    e = F.source_alg.idempotent_vec(0)
    ident = AlgMat(F.source_alg, (0,), (0,), [[e]])
    with pytest.raises(FunctorError, match="image escaped the witness span"):
        F.corner_table(0, 0)
    with pytest.raises(FunctorError, match="image escaped the witness span"):
        F.apply_algmat(ident)
    F._wmat[0] = W
    assert F.apply_algmat(ident) == apply_algmat_by_solving(F, ident)
