"""Resolution differentials read off the cover's generators, and basis
elements acting by their stored matrices, against the paths they replaced.

``Resolution.differential_entries`` writes entry (t, c) of d_i as generator
c's block in summand t.  ``oracles.linear_to_algmat`` recovers the same
matrix from the linear map alone: it applies the map to each idempotent
generator, multiplies by the idempotent again, builds through the checking
``AlgMat(...)`` and asserts the round trip.  The two must agree on every
resolution of the fixtures' ring maps, of the algebra-families members with
UT12 and kx16, and of two ring maps over a prime field larger than dim R;
a complete resolution must still pass the checking ``ProjComplex(...)`` as
a complex.

``FdModule.action_of``, ``Bimodule.left_of`` and ``Bimodule.right_of``
return a basis element's stored matrix; it must equal ``Mat.lincomb``'s on
every fixture algebra over QQ and GF(5), and other elements still sum.
"""

import glob
import json
import os

import pytest

from oracles import linear_to_algmat
from test_tor_blocks import MAX_DEGREE, corner_of, families, workloads

from kbproj.algebra import module_along_map, regular_bimodule, regular_module
from kbproj.derived import proj_resolution
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.homcat import AlgMat
from kbproj.linalg import Mat

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = sorted(glob.glob(os.path.join(FIXDIR, "*.json")))
MEMBERS = workloads.family_members() + [("UT", 12), ("kx", 16)]


def _with_field(data, p):
    data = dict(data, field={"p": p})
    return FixtureFile(data)


def _fixture_maps():
    return [pytest.param(g, id=f"{os.path.basename(path)[:-5]}:{key}")
            for path in FIXTURES for key, g in load_fixture(path).ring_maps.items()]


def _prime_field_maps():
    with open(os.path.join(FIXDIR, "corner.json")) as fh:
        corner = _with_field(json.load(fh), 5).ring_maps["corner"]
    ut3 = _with_field(families.family_fixture("UT", 3, MAX_DEGREE, seed=1), 7)
    return [pytest.param(corner, id="corner-GF5"),
            pytest.param(ut3.ring_maps["corner"], id="UT3-GF7")]


def _check_resolution(g):
    res = proj_resolution(module_along_map(g), MAX_DEGREE + 1)
    alg = res.algebra
    for i in range(1, res.length() + 1):
        want = linear_to_algmat(alg, res.summands[i - 1], res.summands[i], res.maps[i - 1])
        got = res.differential_entries(i)
        assert got == dict(want.nonzero_entries())
        assert AlgMat(alg, res.summands[i - 1], res.summands[i], got) == want
    if res.complete:
        X = res.as_complex()
        assert [X.summands_at(-i) for i in range(res.length() + 1)] \
            == [tuple(s) for s in res.summands]
    return res


@pytest.mark.parametrize("g", _fixture_maps())
def test_fixture_differentials_match_the_linear_round_trip(g):
    _check_resolution(g)


@pytest.mark.parametrize("fam,n", MEMBERS, ids=[f"{f}{n}" for f, n in MEMBERS])
def test_family_differentials_match_the_linear_round_trip(fam, n):
    _check_resolution(corner_of(fam, n))


@pytest.mark.parametrize("g", _prime_field_maps())
def test_prime_field_differentials_match_the_linear_round_trip(g):
    assert g.source.ring.p > g.source.dim
    assert _check_resolution(g).length() >= 1


def _fixture_algebras(p):
    for path in FIXTURES:
        with open(path) as fh:
            data = json.load(fh)
        fx = FixtureFile(data) if p is None else _with_field(data, p)
        yield from fx.algebras.values()


@pytest.mark.parametrize("p", [None, 5], ids=["QQ", "GF5"])
def test_a_basis_element_acts_by_its_stored_matrix(p):
    for alg in _fixture_algebras(p):
        ring, n = alg.ring, alg.dim
        M, B = regular_module(alg), regular_bimodule(alg)
        for act, stored in ((M.action_of, M.action), (B.left_of, B.left_action),
                            (B.right_of, B.right_action)):
            for i in range(n):
                got = act(alg.basis_vec(i))
                assert got is stored[i]
                assert got == Mat.lincomb(ring, n, n, [(ring.one, stored[i])])
            # a scaled basis element and a sum of two still go through the sum
            two = ring.add(ring.one, ring.one)
            scaled = alg.scale_vec(two, alg.basis_vec(0))
            assert act(scaled) == Mat.lincomb(ring, n, n, [(two, stored[0])])
            both = alg.add_vec(alg.basis_vec(0), alg.basis_vec(n - 1))
            assert act(both) == Mat.lincomb(ring, n, n, [(ring.one, stored[0]),
                                                         (ring.one, stored[n - 1])])
