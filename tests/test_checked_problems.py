"""Lift problems and ideal triangles are checked once, when they are built.

``MapLiftProblem`` and ``ComplexLiftProblem`` check their problem in the
constructor, and ``TrianglePresentation`` recognizes its triangle there; the
fixture builds all three at load.  The solvers take them as checked: no
solver calls a check, only ``lifting`` builds a problem through the
unchecked ``_checked``, and a warm task makes no check at all, while
``lift_complex`` still reaches the public ``lift_chain_map``.  The complex
problem keeps each stalk's homotopy inverse from its check, so a complex lift
contracts no stalk layer's cone, and a map-lift certificate builds its
replacement's contraction on first read, so a complex lift, which never reads
it, contracts only its own certificate's cone.
"""

import ast
import os
import sys

import pytest

from build_examples import corner_map, ut2_complexes
from kbproj import lifting, runner
from kbproj.fixture import load_fixture
from kbproj.functors import BimoduleFunctor, induction_functor
from kbproj.homcat import cone, is_contractible, zero_map
from kbproj.lifting import ComplexLiftProblem, LiftError, MapLiftProblem
from kbproj.serialize import map_components_to_json

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kbproj")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
CORNER = os.path.join(FIXTURES, "corner.json")

# the problem checks, which run in the constructors only
CHECKS = ("recognize_triangle", "_check_generators", "_check_stalk_table")
SOLVERS = (("ideals.py", "saturation_report"), ("lifting.py", "lift_chain_map"),
           ("lifting.py", "lift_complex"))


def _parse(module):
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read(), filename=module)


def _called(node):
    """Names of the functions and methods called inside ``node``."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("module,function", SOLVERS, ids=[f for _, f in SOLVERS])
def test_solvers_call_no_problem_check(module, function):
    fn = next(n for n in _parse(module).body
              if isinstance(n, ast.FunctionDef) and n.name == function)
    assert not _called(fn) & set(CHECKS), sorted(_called(fn) & set(CHECKS))


@pytest.mark.parametrize("module", MODULES)
def test_only_lift_rec_builds_an_unchecked_problem(module):
    # an attaching map is a chain map between images by construction, and the
    # complex problem has checked the generators; every other problem is checked.
    # The name, from the recursion this loop replaced, keeps the test ids stable.
    tree = _parse(module)
    allowed = set()
    if module == "lifting.py":
        loop = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef) and n.name == "lift_complex")
        allowed = {id(n) for n in ast.walk(loop) if isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Attribute) and n.func.attr == "_checked"}
        assert allowed, "lift_complex no longer builds its problems through _checked"
    uses = [f"{module}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "_checked"
            and id(n) not in allowed]
    assert not uses, "_checked called outside lift_complex: " + ", ".join(uses)


def test_only_the_stalk_table_check_inverts_a_stalk():
    # a stalk's homotopy inverse comes from the contraction that proves it an
    # equivalence, at load; a complex lift sums the kept inverses
    callers = {fn.name for fn in ast.walk(_parse("lifting.py"))
               if isinstance(fn, ast.FunctionDef)
               and "homotopy_inverse_from_contraction" in _called(fn)}
    assert callers == {"_check_stalk_table"}


def _count(monkeypatch, calls, module, name):
    """Wrap ``name`` in every loaded kbproj module that binds the function
    ``module.name``, counting its calls."""
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("kbproj") and m is not None]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapped)


def test_a_warm_corner_pass_checks_nothing(monkeypatch):
    fx = load_fixture(CORNER)
    tasks = {t["id"]: t for t in fx.tasks}
    runner.run_tasks(fx, workers=1)        # warm: every stored Hom space is built
    calls = {}
    for name in CHECKS:
        _count(monkeypatch, calls, sys.modules["kbproj.homcat"] if name == "recognize_triangle"
               else lifting, name)
    _count(monkeypatch, calls, lifting, "lift_chain_map")
    assert runner.run_task(fx, tasks["ideal-ann-g"]).evidence["saturated"] is True
    assert calls == {}
    assert runner.run_task(fx, tasks["rebuild-k3"]).verdict == "found"
    # each attaching map is lifted through the public search, and nothing is
    # checked again
    assert set(calls) == {"lift_chain_map"} and calls["lift_chain_map"] > 0


def test_a_warm_complex_lift_solves_nothing_for_its_stalk_layers(monkeypatch):
    # each stalk layer's inverse is a block sum of the checked problem's stalk
    # inverses: no cone of a stalk layer is contracted, and the one equivalence
    # a lift decides is its certificate's
    problems = [posed for name in ("corner", "split")
                for posed in load_fixture(os.path.join(FIXTURES, f"{name}.json"))
                .complex_lifts.values()]
    assert len(problems) == 5
    for problem, budget in problems:
        lifting.lift_complex(problem, budget)          # warm
    calls = {}
    for name in ("is_homotopy_equivalence", "homotopy_inverse_from_contraction"):
        _count(monkeypatch, calls, sys.modules["kbproj.homcat"], name)
    for problem, budget in problems:
        calls.clear()
        assert lifting.lift_complex(problem, budget).verdict == "found"
        assert calls == {"is_homotopy_equivalence": 1}


# warm calls of (is_contractible, apply_complex, apply_map) per fixture complex
# lift; when the search still contracted every replacement's cone and
# lift_complex applied F to X' and pi again, the three lifts that attach a
# degree made (2, 2, 3), (3, 4, 6) and (2, 3, 3)
_LIFT_CALLS = {"rebuild-kstalk": (1, 0, 0), "rebuild-kcone": (1, 1, 2),
               "rebuild-k3": (1, 2, 4), "rebuild-Q1": (1, 0, 0), "rebuild-FS1r": (1, 2, 2)}


def test_a_warm_complex_lift_contracts_only_its_certificates_cone(monkeypatch):
    # a complex lift reads only the lift, the replacement and pi of each
    # attaching map's certificate, and reuses the search's F(X') and F(pi)
    problems = {name: posed for fixture in ("corner", "split")
                for name, posed in load_fixture(os.path.join(FIXTURES, f"{fixture}.json"))
                .complex_lifts.items()}
    assert set(problems) == set(_LIFT_CALLS)
    for problem, budget in problems.values():
        lifting.lift_complex(problem, budget)          # warm
    calls = {}
    _count(monkeypatch, calls, sys.modules["kbproj.homcat"], "is_contractible")
    for name in ("apply_complex", "apply_map"):
        method = getattr(BimoduleFunctor, name)
        monkeypatch.setattr(BimoduleFunctor, name, lambda *a, _n=name, _m=method, **k:
                            calls.__setitem__(_n, calls.get(_n, 0) + 1) or _m(*a, **k))
    for name, (problem, budget) in problems.items():
        calls.clear()
        rep = lifting.lift_complex(problem, budget)
        assert rep.verdict == "found"
        assert tuple(calls.get(n, 0) for n in ("is_contractible", "apply_complex",
                                                "apply_map")) == _LIFT_CALLS[name], name


def test_a_lift_map_task_still_carries_the_replacement_contraction():
    # built on first read, when the certificate is encoded; the report's bytes
    # are pinned by test_scalar_rings against bench/expected.json (split's
    # lift-map task finds no lift)
    fx = load_fixture(CORNER)
    [task] = [t for t in fx.tasks if t["command"] == "lift-map"]
    payload = runner.run_task(fx, task).evidence["certificate"]["payload"]
    problem, budget = fx.lookup("lifts", task["name"], "test")
    cert = lifting.lift_chain_map(problem, budget).certificate
    F = problem.functor
    Fpi = F.apply_map(cert.to_source, F.apply_complex(cert.replacement), problem.map.source)
    ok, contraction = is_contractible(cone(Fpi)[0])
    assert ok and payload["replacement_contraction"] == map_components_to_json(contraction)


def test_the_replacement_contraction_keeps_its_internal_check(monkeypatch):
    # the search builds no contraction; reading one still refuses a replacement
    # whose image's cone does not contract
    problem, budget = load_fixture(CORNER).lifts["corner-id"]
    cert = lifting.lift_chain_map(problem, budget).certificate
    assert "replacement_contraction" not in vars(cert)
    monkeypatch.setattr(lifting, "is_contractible", lambda C: (False, None))
    with pytest.raises(LiftError, match="internal error: replacement not invertible"):
        cert.replacement_contraction


@pytest.fixture(scope="module")
def corner():
    data = ut2_complexes()
    G = induction_functor(corner_map(data["alg"]), {0: [(0, (1,))], 1: []})
    return dict(data, G=G)


def test_map_problem_refuses_a_map_between_other_images(corner):
    # G kills P2, so G(P2s) is zero and G(P1s) is not
    G, P1s, P2s = corner["G"], corner["P1s"], corner["P2s"]
    alpha = zero_map(G.apply_complex(P1s), G.apply_complex(P1s), 0)
    with pytest.raises(LiftError, match="does not connect the functor images"):
        MapLiftProblem(G, P2s, P1s, alpha)


def test_map_problem_refuses_endpoints_over_another_algebra(corner):
    G, P1s = corner["G"], corner["P1s"]
    FP1 = G.apply_complex(P1s)
    with pytest.raises(LiftError, match="endpoints live over the wrong algebra"):
        MapLiftProblem(G, FP1, FP1, zero_map(FP1, FP1, 0))


def test_complex_problem_refuses_a_target_over_the_source_algebra(corner):
    with pytest.raises(LiftError, match="target complex lives over the wrong algebra"):
        ComplexLiftProblem(corner["G"], corner["P1s"], {})
