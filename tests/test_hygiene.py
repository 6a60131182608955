"""Source hygiene: no module of the package imports a name it never uses,
only ``homcat`` builds summand matrices without the corner check, only the
eight constructors that derive a module from a checked one skip its axiom
checks, only the four constructors of an ideal that is closed by
construction skip the closure check, and only the two probes that kill
composites reach ``kernel_ideal``, ``almost`` builds no Hom space of its
own, only ``linalg`` knows that a non-integral rational is a
``Fraction``, no module multiplies two basis vectors to read a structure
constant, no loop asks for class coordinates one map at a time, graded-map
arithmetic builds no zero blocks to multiply, ``GradedMap.is_chain_map``
is the only chain-map test, ``ProjComplex.__eq__`` is the only
complex-equality rule, no solve is asked for a kernel: ``solve`` and
``solve_left`` get no ``Mat.zeros`` right-hand side and return no tuple to
unpack, so kernels come only from ``left_kernel``, ``runner`` names the
certificate codecs and verifiers only inside its ``_CERTS`` table, and
there are no dead helpers: every function, method and class of the
package is referenced, as a name or an attribute outside its own
definition, somewhere in the package or in ``bench/``.  Dunder methods are exempt, and so are the few
public helpers in ``_KEPT``, each with the reason it stays."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "kbproj")
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
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


# the constructors whose result is a module because what it is derived from
# is checked: an invariant subspace of a checked module, multiplication in a
# checked algebra along a checked ring map, or relations a checked bimodule's
# right action keeps
_INHERITS_ITS_CHECK = {"submodule", "quotient_module", "regular_module", "module_along_map",
                       "induction_bimodule", "restriction_bimodule", "regular_bimodule",
                       "module_tensor"}


def _inherited_calls(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "_inherited"]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_derived_constructors_skip_module_axioms(module):
    # every other module or bimodule is built by FdModule(...) or Bimodule(...),
    # which check the unit, multiplicativity and commutation
    tree = _parse(module)
    allowed, seen = set(), set()
    if module == "algebra.py":
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in _INHERITS_ITS_CHECK:
                calls = _inherited_calls(fn)
                allowed |= set(map(id, calls))
                seen |= {fn.name} if calls else set()
        assert seen == _INHERITS_ITS_CHECK, \
            "no longer built by _inherited: " + ", ".join(sorted(_INHERITS_ITS_CHECK - seen))
    uses = [f"{module}:{n.lineno}" for n in _inherited_calls(tree) if id(n) not in allowed]
    assert not uses, "_inherited called outside the derived constructors: " + ", ".join(uses)


# the constructors whose result is an ideal by construction (see HomIdeal):
# the closure loop ends on a pass that is the closure check, a product composes
# elements of two ideals, factoring composites stay composites, and a kernel
# is taken of a probe that kills every composite with a killed class
_CLOSED_BY_CONSTRUCTION = {"ideal_closure", "ideal_product", "factor_through_ideal",
                           "kernel_ideal"}
# the callers of kernel_ideal, each with a probe that kills composites: a
# functor, and the composites with every map into the shifts of a cone
_PROBES_KILL_COMPOSITES = {("ideals.py", "annihilator_ideal"),
                           ("almost.py", "almost_derived_ideal")}


def _calls_named(tree, name):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _mentions(n.func, name)]


def _calls_only_in(module, name, functions):
    """Lines of calls to ``name`` in ``module`` outside the top-level functions
    ``functions``, and the set of those functions that make one."""
    tree = _parse(module)
    allowed, seen = set(), set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in functions:
            calls = _calls_named(fn, name)
            allowed |= set(map(id, calls))
            seen |= {fn.name} if calls else set()
    stray = [f"{module}:{n.lineno}" for n in _calls_named(tree, name) if id(n) not in allowed]
    return stray, seen


@pytest.mark.parametrize("module", MODULES)
def test_only_the_closed_constructors_skip_the_closure_check(module):
    # every other ideal is built by HomIdeal(...), which checks closure
    names = _CLOSED_BY_CONSTRUCTION if module == "ideals.py" else set()
    stray, seen = _calls_only_in(module, "_constructed", names)
    assert seen == names, "no longer built by _constructed: " + ", ".join(sorted(names - seen))
    assert not stray, "_constructed called outside the closed constructors: " + ", ".join(stray)


@pytest.mark.parametrize("module", MODULES)
def test_only_probes_that_kill_composites_reach_kernel_ideal(module):
    names = {fn for m, fn in _PROBES_KILL_COMPOSITES if m == module}
    stray, seen = _calls_only_in(module, "kernel_ideal", names)
    assert seen == names, "no longer calls kernel_ideal: " + ", ".join(sorted(names - seen))
    assert not stray, "kernel_ideal called by another function: " + ", ".join(stray)


def test_almost_builds_no_hom_space_of_its_own():
    # its Hom spaces come from a FiniteSubcat: the window and its cone window
    tree = _parse("almost.py")
    uses = [f"almost.py:{n.lineno}" for n in ast.walk(tree) if _mentions(n, "HomSpace")]
    assert not uses, "HomSpace named in almost.py: " + ", ".join(uses)
    derived = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "almost_derived_ideal")
    assert _calls_named(derived, "extended"), "the cone window is no longer a FiniteSubcat"


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
                        "ProjComplex": ("_validate", "__eq__"), "MapLayout": ("pack",)}
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


def _summand_comparisons(tree):
    """Comparisons with a ``.summands`` attribute on two of their sides."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Compare)
            and sum(isinstance(x, ast.Attribute) and x.attr == "summands"
                    for x in [n.left, *n.comparators]) >= 2]


def _mentions(node, name):
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name))


@pytest.mark.parametrize("module", MODULES)
def test_only_projcomplex_eq_compares_complexes(module):
    # two complexes are equal when ProjComplex.__eq__ says so: summands and
    # differentials together, never the summands alone
    tree = _parse(module)
    allowed = set()
    if module == "homcat.py":
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ProjComplex")
        eq = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__eq__")
        allowed = set(map(id, _summand_comparisons(eq)))
        assert allowed, "ProjComplex.__eq__ no longer compares summands"
    uses = [f"{module}:{n.lineno}: same_complex" for n in ast.walk(tree)
            if _mentions(n, "same_complex")]
    uses += [f"{module}:{n.lineno}: .summands compared" for n in _summand_comparisons(tree)
             if id(n) not in allowed]
    assert not uses, "complexes compared outside ProjComplex.__eq__: " + ", ".join(uses)


_SOLVERS = {"solve", "solve_left"}


def _is_solver_call(node):
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id in _SOLVERS)
        or (isinstance(node.func, ast.Attribute) and node.func.attr in _SOLVERS))


def _is_mat_zeros(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zeros" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "Mat")


@pytest.mark.parametrize("module", MODULES)
def test_kernels_come_only_from_left_kernel(module):
    # a solver returns one solution: a homogeneous system is a left_kernel call
    tree = _parse(module)
    uses = [f"{module}:{n.lineno}: Mat.zeros right-hand side" for n in ast.walk(tree)
            if _is_solver_call(n) and any(map(_is_mat_zeros, n.args))]
    uses += [f"{module}:{n.lineno}: solver result unpacked" for n in ast.walk(tree)
             if isinstance(n, ast.Assign) and _is_solver_call(n.value)
             and any(isinstance(t, ast.Tuple) for t in n.targets)]
    assert not uses, "kernel asked of a solver: " + ", ".join(uses)


# the certificate codecs and verifiers, which runner reaches only through _CERTS
_CERT_VERIFIERS = {"verify_triangle_certificate", "verify_map_lift", "verify_complex_lift"}


def _is_cert_routine(name):
    return name.endswith(("_cert_to_json", "_cert_from_json")) or name in _CERT_VERIFIERS


def test_runner_reaches_certificate_routines_only_through_its_table():
    tree = _parse("runner.py")
    table = next(n for n in tree.body if isinstance(n, ast.AnnAssign)
                 and _mentions(n.target, "_CERTS"))
    inside = set(map(id, ast.walk(table)))
    refs = [(n, n.id if isinstance(n, ast.Name) else n.attr) for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]
    refs = [(n, name) for n, name in refs if _is_cert_routine(name)]
    stray = [f"runner.py:{n.lineno}: {name}" for n, name in refs if id(n) not in inside]
    assert not stray, "certificate routine named outside _CERTS: " + ", ".join(stray)
    named = {name for _, name in refs}
    assert len(named) == 9 and _CERT_VERIFIERS <= named, sorted(named)


# Public helpers that no code path in the package or bench/ calls, kept for a reason
_KEPT = {
    "derived.Resolution.as_complex":
        "the resolution as a complex of projectives: the payload of the planned "
        "check-hepi certificate (ROADMAP item 1)",
    "algebra.quotient_algebra":
        "R -> R/ReR for the planned stratifying-ideal property test (ROADMAP item 5)",
    "algebra.regular_bimodule":
        "R as an (R, R)-bimodule, the identity functor's bimodule and the "
        "structure-check tests' reference case",
    "almost.perturb_homotopy":
        "builds the single-entry mutants behind the README's homotopy-perturbation "
        "rejections (acceptance test 8)",
    "linalg.LaurentRing.monomial":
        "the constructor of a Laurent monomial for library users, who cannot "
        "reach the fixture's JSON parse",
    "ideals.principal_ideal":
        "the ideal generated by one map, the library form of a check-ideal "
        "generator list",
    "ideals.zero_ideal":
        "the zero ideal of a window, the unit of ideal sums for library users",
}


def _definitions(tree, module):
    """(qualified name, node) for every function, method and class, nested ones too."""
    stack = [(module[:-3], tree)]
    while stack:
        prefix, parent = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}.{node.name}"
                yield qual, node
                stack.append((qual, node))
            else:
                stack.append((prefix, node))


def _references():
    """Map each name read as a Name or Attribute in src/kbproj or bench/ to its
    (path, line) sites."""
    paths = [os.path.join(SRC, m) for m in MODULES]
    for root, _, files in os.walk(BENCH):
        paths += [os.path.join(root, f) for f in sorted(files) if f.endswith(".py")]
    out = {}
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                out.setdefault(name, []).append((os.path.realpath(path), n.lineno))
    return out


def _unreferenced():
    refs = _references()
    out = {}
    for module in MODULES:
        path = os.path.realpath(os.path.join(SRC, module))
        for qual, node in _definitions(_parse(module), module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, line) for p, line in refs.get(name, ())
                       if not (p == path and node.lineno <= line <= node.end_lineno)]
            if not outside:
                out[qual] = f"{module}:{node.lineno}"
    return out


def test_no_dead_helpers():
    # a definition nothing references is deleted, or kept in _KEPT with a reason
    dead = _unreferenced()
    unkept = [f"{where}: {qual}" for qual, where in sorted(dead.items()) if qual not in _KEPT]
    assert not unkept, "defined but never referenced: " + ", ".join(unkept)


def test_kept_helpers_are_still_unreferenced():
    # an entry whose name gained a caller, or whose definition is gone, leaves _KEPT
    stale = sorted(set(_KEPT) - set(_unreferenced()))
    assert not stale, "no longer needs a _KEPT entry: " + ", ".join(stale)
    assert all(reason.strip() for reason in _KEPT.values())
