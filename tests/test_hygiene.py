"""Source hygiene: no module of the package imports a name it never uses,
only ``homcat`` builds summand matrices without the corner check, only
``linalg`` knows that a non-integral rational is a ``Fraction``, no
module multiplies two basis vectors to read a structure constant, no
loop asks for class coordinates one map at a time, graded-map
arithmetic builds no zero blocks to multiply, and ``GradedMap.is_chain_map``
is the only chain-map test."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kbproj")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _parse(module):
    with open(os.path.join(SRC, module)) as fh:
        return ast.parse(fh.read(), filename=module)


def _imported_names(tree):
    """Map each name bound by an import to its line (``__future__`` excluded)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name read in the module, including those inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                sub = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(sub) if isinstance(m, ast.Name)}
    return used


def test_every_module_is_scanned():
    assert "linalg.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = _parse(module)
    used = _used_names(tree)
    unused = [f"{module}:{line}: {name}"
              for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
              if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "homcat.py"])
def test_only_homcat_builds_trusted_summand_matrices(module):
    # elsewhere, block matrices are assembled with AlgMat.block and AlgMat.sub
    uses = [f"{module}:{n.lineno}" for n in ast.walk(_parse(module))
            if isinstance(n, ast.Attribute) and n.attr == "_trusted"]
    assert not uses, "AlgMat._trusted used outside homcat: " + ", ".join(uses)


def _is_fraction(node):
    return ((isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
            or (isinstance(node, ast.alias) and node.name == "Fraction"))


def _mentions_fraction(node):
    return any(map(_is_fraction, ast.walk(node)))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "linalg.py"])
def test_only_linalg_references_fraction(module):
    # elsewhere a QQ scalar is whatever the ring returns: int or Fraction
    uses = [f"{module}:{n.lineno}" for n in ast.walk(_parse(module)) if _is_fraction(n)]
    assert not uses, "Fraction referenced outside linalg: " + ", ".join(uses)


def _fraction_type_tests(tree):
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "isinstance" and len(n.args) == 2
            and _mentions_fraction(n.args[1])]


def test_only_rationals_parse_tests_for_fraction():
    # an integral rational is an int, so the fast path needs no type test;
    # parse is where outside input is normalized into that form
    tree = _parse("linalg.py")
    rationals = next(n for n in tree.body
                     if isinstance(n, ast.ClassDef) and n.name == "Rationals")
    parse = next(n for n in rationals.body
                 if isinstance(n, ast.FunctionDef) and n.name == "parse")
    allowed = set(map(id, _fraction_type_tests(parse)))
    assert allowed, "Rationals.parse no longer normalizes Fraction input"
    stray = [f"linalg.py:{n.lineno}" for n in _fraction_type_tests(tree) if id(n) not in allowed]
    assert not stray, "isinstance(..., Fraction) outside Rationals.parse: " + ", ".join(stray)


def _is_basis_vec_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "basis_vec")


@pytest.mark.parametrize("module", MODULES)
def test_no_products_of_basis_vectors(module):
    # b_i b_j is the row structure[i][j] of the algebra: read it, do not multiply
    lines = sorted(n.lineno for n in ast.walk(_parse(module))
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "mult" and len(n.args) == 2
                   and all(map(_is_basis_vec_call, n.args)))
    uses = [f"{module}:{line}" for line in lines]
    assert not uses, "mult of two basis vectors: " + ", ".join(uses)


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _calls_in_loops(tree, attr):
    """Lines of calls to ``.attr(...)`` lexically inside a loop or comprehension."""
    found = set()
    for loop in ast.walk(tree):
        if isinstance(loop, _LOOPS):
            found |= {n.lineno for n in ast.walk(loop)
                      if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and n.func.attr == attr}
    return sorted(found)


# saturation_report converts one map per triangle, each in the Hom space of
# that triangle's own objects: there is no batch of one space to solve at once
_ONE_MAP_PER_SPACE = {("ideals.py", "saturation_report")}


@pytest.mark.parametrize("module", MODULES)
def test_no_class_coords_per_map_in_a_loop(module):
    # maps of one Hom space go through HomSpace.class_matrix: one solve per batch
    tree = _parse(module)
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and (module, fn.name) in _ONE_MAP_PER_SPACE:
            allowed |= set(range(fn.lineno, fn.end_lineno + 1))
    uses = [f"{module}:{line}" for line in _calls_in_loops(tree, "class_coords")
            if line not in allowed]
    assert not uses, "class_coords called in a loop: " + ", ".join(uses)


_SKIPS_ABSENT_BLOCKS = {"GradedMap": ("delta", "compose", "__add__", "__sub__", "__eq__"),
                        "ProjComplex": ("_validate",), "MapLayout": ("pack",)}
_ZERO_BLOCK_BUILDERS = {"component", "diff_at", "zeros"}


@pytest.mark.parametrize("cls, method", [(c, m) for c, ms in _SKIPS_ABSENT_BLOCKS.items()
                                         for m in ms])
def test_graded_arithmetic_builds_no_zero_blocks(cls, method):
    # an absent component or differential is a zero block: skip its product
    # (components.get, diff.get) instead of materializing it
    tree = _parse("homcat.py")
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    fn = next(n for n in body.body if isinstance(n, ast.FunctionDef) and n.name == method)
    uses = [f"homcat.py:{n.lineno}: {n.func.attr}" for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in _ZERO_BLOCK_BUILDERS]
    assert not uses, f"{cls}.{method} builds zero blocks: " + ", ".join(uses)


def _delta_is_zero_calls(tree):
    """Calls of the form ``<expr>.delta().is_zero()``."""
    return [n for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "is_zero" and isinstance(n.func.value, ast.Call)
            and isinstance(n.func.value.func, ast.Attribute)
            and n.func.value.func.attr == "delta"]


@pytest.mark.parametrize("module", MODULES)
def test_only_is_chain_map_tests_for_a_chain_map(module):
    # a map is a chain map when GradedMap.is_chain_map says so, and nowhere else
    tree = _parse(module)
    allowed = set()
    if module == "homcat.py":
        graded = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GradedMap")
        test = next(n for n in graded.body
                    if isinstance(n, ast.FunctionDef) and n.name == "is_chain_map")
        allowed = set(map(id, _delta_is_zero_calls(test)))
        assert allowed, "GradedMap.is_chain_map no longer tests delta(f) = 0"
    uses = [f"{module}:{n.lineno}" for n in _delta_is_zero_calls(tree) if id(n) not in allowed]
    assert not uses, ".delta().is_zero() outside GradedMap.is_chain_map: " + ", ".join(uses)
