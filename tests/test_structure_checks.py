"""Axiom checks on structure constants against the basis-product oracles, the
sparse product table against the dense one, and the projective-module and
radical caches on an algebra.

``AlgebraPresentation``, ``FdModule``, ``Bimodule`` and ``RingMap`` read the
product b_i b_j from the algebra's sparse table of nonzero coordinates, and
the associativity check skips the triples where b_i b_j = 0 = b_j b_l.  Each
object below is built unvalidated with one structure constant, action entry
or image coordinate perturbed; its own ``_validate`` and the matching oracle
of ``oracles.py``, which multiplies basis vectors, must name the same first
failure with the same message, or both find none.  The algebras are those of
the three fixtures and small members of the generated families of
``bench/families.py``, with UT5, where most triples are skipped, and two
rewritten in a sheared basis, where most products have several terms.
"""

import functools
import importlib.util
import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from build_examples import sheared
from oracles import (
    basis_product_associativity,
    basis_product_bimodule_check,
    basis_product_module_check,
    basis_product_ring_map_check,
    dense_structure,
    is_nilpotent,
    is_two_sided,
    structure_mult,
)

from kbproj.algebra import (
    AlgebraError,
    AlgebraPresentation,
    Bimodule,
    FdModule,
    RingMap,
    induction_bimodule,
    module_along_map,
    projective_module,
    radical,
    regular_bimodule,
    regular_module,
)
from kbproj.derived import proj_resolution
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.linalg import GF, QQ, Mat
from kbproj.reports import emit_json
from kbproj.runner import run_tasks

HERE = os.path.dirname(__file__)
FIXDIR = os.path.join(HERE, "..", "fixtures")
FIXTURES = ("corner", "split", "koszul")
FAMILIES = (("UT", 3), ("Alin", 4), ("Acyc", 3), ("kx", 3))
# 980 of UT5's 3375 basis triples have a nonzero side; the rest are skipped
SPARSE = (("UT", 5),)
SHEARED = ("corner'", "Alin4'")
MAX_DEGREE = 6


def _load_families():
    # the generator is plain Python with no kbproj import; load it by path
    spec = importlib.util.spec_from_file_location(
        "families", os.path.join(HERE, "..", "bench", "families.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families = _load_families()


def family_data(fam, n, seed=1):
    return families.family_fixture(fam, n, MAX_DEGREE, seed)


def dense_algebras(label):
    """The algebra entries, dense JSON tables and all, of a fixture or of one
    family member like UT8, in the sheared basis when the label ends in '."""
    if label.endswith("'"):
        return {f"{name}'": sheared(a) for name, a in dense_algebras(label[:-1]).items()}
    if label in FIXTURES + ("two_cycle",):
        with open(os.path.join(FIXDIR, f"{label}.json")) as fh:
            return json.load(fh)["algebras"]
    fam = label.rstrip("0123456789")
    return {label: families.build_algebra(fam, int(label[len(fam):])).to_json()}


@functools.lru_cache(maxsize=None)
def source(label):
    """A loaded fixture by label: a fixture name, a family member like UT3, or
    either with a trailing ' for its algebras alone in the sheared basis."""
    if label in FIXTURES:
        return load_fixture(os.path.join(FIXDIR, f"{label}.json"))
    if label.endswith("'"):
        return FixtureFile({"format_version": 1, "field": "QQ", "algebras": dense_algebras(label)})
    fam, n = next((f, n) for f, n in FAMILIES + SPARSE if f"{f}{n}" == label)
    return FixtureFile(family_data(fam, n))


LABELS = FIXTURES + tuple(f"{f}{n}" for f, n in FAMILIES + SPARSE) + SHEARED
ALGEBRAS = [(label, name) for label in LABELS for name in source(label).algebras]
RING_MAPS = [(label, name) for label in LABELS for name in source(label).ring_maps]


def unvalidated(monkeypatch, cls, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(cls, "_validate", lambda self: None)
        return cls(*args, **kwargs)


def failure(obj):
    """The message of ``obj._validate()``, or None when it passes."""
    try:
        obj._validate()
    except AlgebraError as exc:
        return str(exc)
    return None


def perturbed(ring, mat, rng):
    """``mat`` with one seeded entry increased by one."""
    i, j = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    items = {(a, b): v for a, b, v in mat.items()}
    items[(i, j)] = ring.add(mat.entry(i, j), ring.one)
    return Mat.from_entries(ring, mat.nrows, mat.ncols, items)


def perturbed_action(ring, action, rng):
    action = list(action)
    t = rng.randrange(len(action))
    action[t] = perturbed(ring, action[t], rng)
    return action


def sample_modules(alg):
    yield regular_module(alg)
    for i in range(alg.n_idempotents()):
        yield projective_module(alg, [i])
    yield projective_module(alg, list(range(alg.n_idempotents())))


# -- unperturbed objects pass both checks --------------------------------------


@pytest.mark.parametrize("label,name", ALGEBRAS)
def test_valid_objects_pass_both_checks(label, name):
    alg = source(label).algebras[name]
    assert basis_product_associativity(alg) is None
    assert failure(alg) is None
    for M in sample_modules(alg):
        assert basis_product_module_check(M) is None
    assert basis_product_bimodule_check(regular_bimodule(alg)) is None


# -- one perturbed structure constant --------------------------------------------


@pytest.mark.parametrize("label,name", ALGEBRAS)
def test_perturbed_structure_constant_fails_at_the_same_triple(monkeypatch, label, name):
    alg = source(label).algebras[name]
    ring, dim = alg.ring, alg.dim
    rng = random.Random(f"{label}/{name}")
    cells = [(i, j, m) for i in range(dim) for j in range(dim) for m in range(dim)]
    seen = 0
    for i, j, m in rng.sample(cells, min(len(cells), 15)):
        structure = dense_structure(alg)
        structure[i][j][m] = ring.add(structure[i][j][m], ring.one)
        bad = unvalidated(monkeypatch, AlgebraPresentation, ring, alg.basis_names, structure,
                          alg.unit, alg.idempotents, name=f"{name}'")
        old, new = basis_product_associativity(bad), failure(bad)
        if old is None:
            assert new is None or "associativity" not in new
        else:
            assert new == old
            seen += 1
    # b b = c b spans an associative algebra for every c, so dim 1 cannot fail here
    assert seen or dim == 1, "no perturbation broke associativity"


def test_perturbed_structure_constant_names_a_known_triple():
    # UT2 with e11 e11 = 2 e11: (e11 e11) e11 = 4 e11 but e11 (e11 e11) = 4 e11,
    # while (e11 e11) e12 = 2 e12 and e11 (e11 e12) = e12
    alg = source("corner").algebras["UT2"]
    structure = dense_structure(alg)
    structure[0][0][0] = 2
    with pytest.raises(AlgebraError) as exc:
        AlgebraPresentation(alg.ring, alg.basis_names, structure, alg.unit, alg.idempotents,
                            name="UT2'")
    assert str(exc.value) == "UT2': associativity fails at basis triple (e11,e11,e12)"


# -- the sparse table against the dense one ---------------------------------------


def build(ring, name, a):
    return AlgebraPresentation(ring, a["basis"], a["structure"], a["unit"], a["idempotents"],
                               idempotent_names=a.get("idempotent_names"), name=name)


def random_vector(ring, dim, rng):
    """A seeded vector with about half its coordinates zero."""
    return tuple(ring.parse(f"{rng.randint(-4, 4)}/{rng.choice((1, 2, 3))}")
                 if rng.random() < 0.5 else ring.zero for _ in range(dim))


# members up to the sizes of the ROADMAP's size ladder: UT8 (dim 36), Alin24 (dim 47)
@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("label", FIXTURES + ("UT3", "UT8", "Alin4", "Alin24", "Acyc6", "kx3")
                         + ("corner'", "UT5'", "Acyc3'", "kx3'"))
def test_sparse_mult_matches_the_dense_table(ring, label):
    p = getattr(ring, "p", None)
    rng = random.Random(f"{label}/{ring}")
    for name, a in dense_algebras(label).items():
        alg = build(ring, name, a)
        table = [[[ring.parse(c) for c in cell] for cell in row] for row in a["structure"]]
        for _ in range(12):
            x, y = random_vector(ring, alg.dim, rng), random_vector(ring, alg.dim, rng)
            assert list(alg.mult(x, y)) == structure_mult(table, x, y, p)
        for t in range(alg.dim):
            b = alg.basis_vec(t)
            assert list(alg.mult(b, y)) == structure_mult(table, b, y, p)


def test_zero_written_either_way_gives_one_algebra(monkeypatch):
    a = dense_algebras("corner")["UT2"]
    alg = build(QQ, "UT2", a)
    zeros = [[["0/1" if c == "0" else c for c in cell] for cell in row] for row in a["structure"]]
    same = build(QQ, "UT2", dict(a, structure=zeros))
    assert same == alg and hash(same) == hash(alg)
    rng = random.Random("UT2/eq")
    for _ in range(6):
        i, j, m = (rng.randrange(alg.dim) for _ in range(3))
        bumped = [[list(cell) for cell in row] for row in zeros]
        bumped[i][j][m] = QQ.add(QQ.parse(bumped[i][j][m]), QQ.one)
        bad = unvalidated(monkeypatch, AlgebraPresentation, QQ, a["basis"], bumped, a["unit"],
                          a["idempotents"], name="UT2")
        assert bad != alg and alg != bad


# -- one perturbed action entry or image coordinate --------------------------------


@pytest.mark.parametrize("label,name", ALGEBRAS)
def test_perturbed_module_action_fails_at_the_same_pair(monkeypatch, label, name):
    alg = source(label).algebras[name]
    rng = random.Random(f"{label}/{name}/module")
    messages = []
    for M in sample_modules(alg):
        for _ in range(6):
            action = perturbed_action(alg.ring, M.action, rng)
            bad = unvalidated(monkeypatch, FdModule, alg, M.dim, action, name=M.name)
            old = basis_product_module_check(bad)
            assert failure(bad) == old
            messages.append(old)
    assert any(messages), "no perturbation broke a module axiom"


@pytest.mark.parametrize("label,name", ALGEBRAS)
def test_perturbed_bimodule_action_fails_at_the_same_pair(monkeypatch, label, name):
    alg = source(label).algebras[name]
    B = regular_bimodule(alg)
    rng = random.Random(f"{label}/{name}/bimodule")
    messages = []
    for side in ("left", "right") * 5:
        left, right = B.left_action, B.right_action
        if side == "left":
            left = perturbed_action(alg.ring, left, rng)
        else:
            right = perturbed_action(alg.ring, right, rng)
        bad = unvalidated(monkeypatch, Bimodule, alg, alg, B.dim, left, right, name=B.name)
        old = basis_product_bimodule_check(bad)
        assert failure(bad) == old
        messages.append(old)
    assert any(messages), "no perturbation broke a bimodule axiom"


@pytest.mark.parametrize("label,name", RING_MAPS)
def test_perturbed_ring_map_fails_at_the_same_pair(monkeypatch, label, name):
    f = source(label).ring_maps[name]
    ring = f.target.ring
    rng = random.Random(f"{label}/{name}/ring-map")
    messages = []
    for _ in range(10):
        images = [list(im) for im in f.images]
        i, m = rng.randrange(len(images)), rng.randrange(f.target.dim)
        images[i][m] = ring.add(images[i][m], ring.one)
        bad = unvalidated(monkeypatch, RingMap, f.source, f.target, images, name=f.name)
        old = basis_product_ring_map_check(bad)
        assert failure(bad) == old
        messages.append(old)
    B = induction_bimodule(f)
    assert basis_product_bimodule_check(B) is None
    assert basis_product_module_check(module_along_map(f)) is None
    assert any(messages), "no perturbation broke a ring-map axiom"


def test_ring_map_image_of_wrong_length_rejected():
    f = source("corner").ring_maps["corner"]
    images = [list(im) + [0] for im in f.images]
    with pytest.raises(AlgebraError, match="corner: image vector has wrong length"):
        RingMap(f.source, f.target, images, name="corner")


# -- caches on the algebra --------------------------------------------------------


def test_projective_module_and_radical_are_cached():
    A = load_fixture(os.path.join(FIXDIR, "corner.json")).algebras["UT2"]
    P = projective_module(A, [0, 1])
    assert projective_module(A, (0, 1)) is P
    assert projective_module(A, [1, 0]) is not P
    assert projective_module(A, [0]) is projective_module(A, [0])
    assert radical(A) is radical(A)


# the fixtures with algebras, the workload's family members, UT8, Alin24 and kx16
RADICAL_LABELS = (("corner", "split", "two_cycle", "UT3", "UT5", "UT8", "Alin4", "Alin8", "Alin24",
                   "Acyc3", "Acyc6", "kx2", "kx3", "kx16") + SHEARED)


@pytest.mark.parametrize("label", RADICAL_LABELS)
def test_radical_passes_the_checks_it_is_trusted_without(label):
    # radical takes the trace-form kernel as a nilpotent two-sided ideal by
    # theorem; the closure and nilpotency re-checks it dropped must still hold
    algebras = FixtureFile({"format_version": 1, "field": "QQ",
                            "algebras": dense_algebras(label)}).algebras
    for alg in algebras.values():
        rad = radical(alg)
        assert is_two_sided(alg, rad.space) and is_nilpotent(rad)
        # every algebra here is basic: k at each vertex modulo the radical
        assert rad.dim == alg.dim - alg.n_idempotents()


def test_concurrent_first_calls_get_one_object_per_key():
    # run_tasks shares a loaded algebra between worker threads; two threads
    # may both build a module, but every caller must get the one stored
    alg = next(iter(FixtureFile(family_data("UT", 4)).algebras.values()))
    keys = [(0,), (1,), (0, 1), (3, 2, 1, 0), (2, 2)] * 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            modules = [pool.submit(projective_module, alg, k) for k in keys]
            radicals = [pool.submit(radical, alg) for _ in range(12)]
            modules = [f.result(timeout=60) for f in modules]
            radicals = [f.result(timeout=60) for f in radicals]
    finally:
        sys.setswitchinterval(interval)
    for k, M in zip(keys, modules):
        assert M is projective_module(alg, k)
    assert all(r is radical(alg) for r in radicals)


@pytest.mark.parametrize("fam,n", FAMILIES + (("UT", 5), ("Acyc", 6)))
def test_resolution_over_a_warm_cache_matches_a_fresh_one(fam, n):
    warm = FixtureFile(family_data(fam, n))
    run_tasks(warm, workers=1)
    R = next(iter(warm.algebras.values()))
    assert len(R._built) > 1, "the task run left the projective cache cold"
    fresh = FixtureFile(family_data(fam, n))
    a = proj_resolution(module_along_map(warm.ring_maps["corner"]), MAX_DEGREE + 1)
    b = proj_resolution(module_along_map(fresh.ring_maps["corner"]), MAX_DEGREE + 1)
    assert a.summands == b.summands
    assert a.maps == b.maps
    assert a.aug == b.aug
    assert a.complete == b.complete


@pytest.mark.parametrize("fam,n", FAMILIES)
def test_two_workers_give_the_report_bytes_of_one(fam, n):
    one = emit_json(run_tasks(FixtureFile(family_data(fam, n)), workers=1))
    shared = FixtureFile(family_data(fam, n))
    cold = emit_json(run_tasks(shared, workers=2))
    warm = emit_json(run_tasks(shared, workers=2))
    assert one == cold == warm
