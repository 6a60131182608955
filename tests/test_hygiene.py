"""Source hygiene: no module of the package imports a name it never uses or
imports ``threading`` or ``concurrent``, only ``homcat`` builds summand
matrices without the corner check or reads their stored entries (elsewhere,
in tests and ``bench/`` too, they are read through
``AlgMat.nonzero_entries``), the public checking constructors (``AlgMat``,
``ProjComplex``, ``GradedMap``, ``FdModule`` and ``Bimodule``) are called in
the package only from the boundary sites of ``_BOUNDARY_SITES``, each with
its reason, only ``linalg`` calls the ``Subspace``
constructor or reads its sparse basis, only the ten
constructors that derive a module from a checked one skip its axiom checks,
only the four constructors of an ideal that is closed by construction skip
the closure check, and of an algebra's two-sided ideals only ``radical``'s
trace-form kernel does, ``tor_with_bimodule`` and the ``derived`` helpers it
reaches build no coequalizer (and ``tensor_functor_map`` stays deleted),
``linalg._reduce`` is the one elimination loop (``solve``,
``rank`` and ``left_kernel`` reach it without dense rows, and every
``Subspace`` span through ``from_spanning`` or ``span_with``), and only the two
probes that kill composites reach
``kernel_ideal``, ``annihilator_ideal`` builds no image as a graded map (it
calls neither ``apply_map`` nor ``class_matrix``), ``almost`` builds no Hom
space of its own, its three reports derive nothing their ``AlmostCase`` fixes
(ideal, idempotence, corner algebra, witnesses: only building the case does,
and a repeat of corner's almost tasks builds no algebra),
``Subspace.restrict`` and ``Subspace.project`` give every action induced on
a sub or quotient space in ``algebra`` and ``almost`` (``_invariant_coords``
stays deleted) and ``proj_resolution`` builds no syzygy as a ``submodule``,
``algebra.check_witness`` is the one projectivity-witness check (called only
by functor witness validation and ``AlmostCase``) and
``algebra.presentation_matrix`` the one presentation map (called only by that
check and ``derived.projective_cover``), only ``linalg`` knows that a
non-integral rational is a ``Fraction``, no module multiplies two basis vectors to read a structure
constant, only ``algebra`` reads an algebra's sparse product table and no
file reads a ``.structure`` attribute, no loop asks for class coordinates one map at a time, graded-map
arithmetic builds no zero blocks to multiply, ``GradedMap.is_chain_map`` is
the only chain-map test, ``ProjComplex.__eq__`` is the only complex-equality
rule, no solve is asked for a kernel: ``solve`` and ``solve_left`` get no
``Mat.zeros`` right-hand side and return no tuple to unpack, so kernels come
only from ``left_kernel``, ``homcat.solve_up_to_homotopy`` is the one place a
(map, homotopy) system is assembled: only ``homcat`` calls ``delta_matrix``,
and ``lifting`` imports nothing from ``linalg``, ``runner`` names the
certificate codecs and verifiers only inside its ``_CERTS`` table, and there
are no dead helpers: every function, method and class of the package is
referenced, as a name or an attribute outside its own definition, somewhere
in the package or in ``bench/``. Dunder methods are exempt, and so are the few public helpers in
``_KEPT``, each with the reason it stays. A reference names no class, so the
method names two classes share are recorded in ``_SHARED_METHOD_NAMES`` once
each namesake has been checked for a caller."""

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


def _trees_outside(module):
    """(file name, tree) for the package modules other than ``module``, the
    tests and ``bench/``."""
    files = [os.path.join(SRC, m) for m in MODULES if m != module]
    for d in (os.path.dirname(__file__), BENCH):
        files += [os.path.join(d, f) for f in sorted(os.listdir(d)) if f.endswith(".py")]
    for path in files:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read(), filename=path)


def test_only_homcat_reads_summand_matrix_storage():
    # other code reads a summand matrix through AlgMat.nonzero_entries(), and
    # none reads the dense grid it replaced (entries)
    uses = [f"{name}:{n.lineno}" for name, tree in _trees_outside("homcat.py")
            for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in ("_nz", "entries")]
    assert not uses, "AlgMat storage read outside homcat: " + ", ".join(uses)


def test_only_linalg_reads_subspace_storage():
    # other code builds a subspace with from_spanning, span_with, zero, full or
    # left_kernel and reads it through rows, pivots and the methods
    uses = [f"{name}:{n.lineno}" for name, tree in _trees_outside("linalg.py") for n in ast.walk(tree)
            if (isinstance(n, ast.Attribute) and n.attr == "_basis")
            or (isinstance(n, ast.Call) and _mentions(n.func, "Subspace"))]
    assert not uses, "Subspace storage or constructor used outside linalg: " + ", ".join(uses)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "homcat.py"])
def test_only_homcat_builds_trusted_summand_matrices(module):
    # elsewhere, block matrices are assembled with AlgMat.block and AlgMat.sub
    uses = [f"{module}:{n.lineno}" for n in ast.walk(_parse(module))
            if isinstance(n, ast.Attribute) and n.attr == "_trusted"]
    assert not uses, "AlgMat._trusted used outside homcat: " + ", ".join(uses)


# the constructors whose result is a module because what it is derived from
# is checked: an invariant subspace of a checked module, multiplication in a
# checked algebra (on its right ideals e_i R or along a checked ring map),
# relations a checked bimodule's right action keeps, or the corner Me of a
# checked module (m·e·b = m·(eb) for b in eRe)
_INHERITS_ITS_CHECK = {
    f"algebra.{fn}" for fn in ("submodule", "quotient_module", "regular_module",
                               "projective_module", "module_along_map", "induction_bimodule",
                               "restriction_bimodule", "regular_bimodule", "module_tensor")
} | {"almost.CornerFunctor.apply"}


def _inherited_calls(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "_inherited"]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_derived_constructors_skip_module_axioms(module):
    # every other module or bimodule is built by FdModule(...) or Bimodule(...),
    # which check the unit, multiplicativity and commutation
    tree = _parse(module)
    names = {q for q in _INHERITS_ITS_CHECK if q.startswith(module[:-3] + ".")}
    allowed, seen = set(), set()
    for qual, fn in _definitions(tree, module):
        if qual in names:
            calls = _inherited_calls(fn)
            allowed |= set(map(id, calls))
            seen |= {qual} if calls else set()
    assert seen == names, "no longer built by _inherited: " + ", ".join(sorted(names - seen))
    uses = [f"{module}:{n.lineno}" for n in _inherited_calls(tree) if id(n) not in allowed]
    assert not uses, "_inherited called outside the derived constructors: " + ", ".join(uses)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_threads(module):
    # tasks run in the calling thread: each is a small computation in Python,
    # which a thread pool cannot overlap under the interpreter lock
    names = []
    for n in ast.walk(_parse(module)):
        if isinstance(n, ast.Import):
            names += [(n.lineno, a.name) for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module:
            names.append((n.lineno, n.module))
    uses = [f"{module}:{line}: {name}" for line, name in names
            if name.split(".")[0] in ("concurrent", "threading")]
    assert not uses, "thread machinery imported: " + ", ".join(uses)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_radical_skips_the_ideal_closure_check(module):
    # a trace-form kernel is a two-sided ideal by theorem (see radical); every
    # other TwoSidedIdeal is built by TwoSidedIdeal(...), which checks closure
    names = {"radical"} if module == "algebra.py" else set()
    stray, seen = _calls_only_in(module, "_proved", names)
    assert seen == names, "radical no longer builds through _proved"
    assert not stray, "_proved called outside radical: " + ", ".join(stray)


# the constructors whose result is an ideal by construction (see HomIdeal):
# the closure worklist composes every class it adds with every basis class on
# either side, a product composes elements of two ideals, factoring composites
# stay composites, and a kernel is taken of a probe that kills every composite
# with a killed class
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


def test_the_annihilator_builds_no_graded_map():
    # its probe reads F(f) as rows of one product with functor_matrix (stored
    # per pair by window_matrix), in degree-0 coordinates: no image is built
    # as a GradedMap and no class matrix is solved for
    tree = _parse("ideals.py")
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "annihilator_ideal")
    assert _calls_named(fn, "window_matrix"), "the annihilator no longer uses window_matrix"
    functor = next(n for n in _parse("functors.py").body
                   if isinstance(n, ast.ClassDef) and n.name == "BimoduleFunctor")
    stored = next(n for n in functor.body
                  if isinstance(n, ast.FunctionDef) and n.name == "window_matrix")
    assert _calls_named(stored, "functor_matrix"), "window_matrix no longer uses functor_matrix"
    uses = [f"ideals.py:{n.lineno}: {name}" for name in ("apply_map", "class_matrix")
            for n in _calls_named(fn, name)]
    assert not uses, "annihilator_ideal builds images as maps: " + ", ".join(uses)


def test_almost_builds_no_hom_space_of_its_own():
    # its Hom spaces come from a FiniteSubcat: the window and its cone window
    tree = _parse("almost.py")
    uses = [f"almost.py:{n.lineno}" for n in ast.walk(tree) if _mentions(n, "HomSpace")]
    assert not uses, "HomSpace named in almost.py: " + ", ".join(uses)
    derived = next(n for n in tree.body
                   if isinstance(n, ast.FunctionDef) and n.name == "almost_derived_ideal")
    assert _calls_named(derived, "extended"), "the cone window is no longer a FiniteSubcat"


# what an almost case fixes, derived once by AlmostCase and the corner_functor it calls
_CASE_DERIVATIONS = ("AlgebraPresentation", "ideal_generated_by_idempotent",
                     "ideal_from_spanning", "is_idempotent", "check_witness", "corner_functor")


def test_almost_reports_derive_nothing_their_case_fixes():
    tree = _parse("almost.py")
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for report in ("serre_adjoint_report", "almost_quotient", "almost_derived_ideal"):
        uses = [f"almost.py:{n.lineno}: {name}" for name in _CASE_DERIVATIONS
                for n in _calls_named(top[report], name)]
        assert not uses, f"{report} re-derives its case: " + ", ".join(uses)
    building = {id(n) for fn in ("AlmostCase", "corner_functor") for n in ast.walk(top[fn])}
    for name in _CASE_DERIVATIONS:
        calls = _calls_named(tree, name)
        assert calls, f"{name} is no longer called in almost.py"
        stray = [f"almost.py:{n.lineno}" for n in calls if id(n) not in building]
        assert not stray, f"{name} called outside AlmostCase construction: " + ", ".join(stray)


def test_corner_almost_tasks_build_no_algebra(monkeypatch):
    # the corner algebra is built with the case at load; a task builds none,
    # the first run or a repeat
    from kbproj.algebra import AlgebraPresentation
    from kbproj.fixture import load_fixture
    from kbproj.runner import run_tasks

    fx = load_fixture(os.path.join(SRC, "..", "..", "fixtures", "corner.json"))
    tasks = [t for t in fx.tasks if t["command"] == "almost-report"]
    assert len(tasks) == 4
    built, init = [], AlgebraPresentation.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraPresentation, "__init__", counted)
    for _ in range(2):
        run_tasks(fx, tasks, workers=1)
        assert built == []


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
    # b_i b_j is a cell of the algebra's sparse product table, which only
    # algebra.py reads; a product of two basis vectors is a lookup done the
    # long way, so no module asks mult for one
    lines = sorted(n.lineno for n in ast.walk(_parse(module))
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "mult" and len(n.args) == 2
                   and all(map(_is_basis_vec_call, n.args)))
    uses = [f"{module}:{line}" for line in lines]
    assert not uses, "mult of two basis vectors: " + ", ".join(uses)


def _python_files():
    """Every module of the package, of tests/ and of bench/, as (label, path)."""
    tests = os.path.dirname(os.path.abspath(__file__))
    out = [(m, os.path.join(SRC, m)) for m in MODULES]
    for root in (tests, BENCH):
        for where, _, files in os.walk(root):
            out += [(os.path.relpath(os.path.join(where, f), os.path.dirname(root)),
                     os.path.join(where, f)) for f in sorted(files) if f.endswith(".py")]
    return out


def test_only_algebra_reads_the_product_table():
    # the layout of AlgebraPresentation.products is algebra.py's alone, and the
    # dense structure cube it replaced is read nowhere
    uses = []
    for label, path in _python_files():
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        uses += [f"{label}:{n.lineno}: .{n.attr}" for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and (n.attr == "structure" or (
                     n.attr == "products" and path != os.path.join(SRC, "algebra.py")))]
    assert not uses, "product table read outside algebra.py: " + ", ".join(uses)


def _imports_from(tree, module):
    """Lines of the imports in ``tree`` that name package module ``module``."""
    return [n.lineno for n in ast.walk(tree)
            if (isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[-1] == module)
            or (isinstance(n, ast.Import)
                and any(a.name.split(".")[-1] == module for a in n.names))]


@pytest.mark.parametrize("module", MODULES)
def test_only_homcat_poses_homotopy_systems(module):
    # a (map, homotopy) system is posed and solved by homcat.solve_up_to_homotopy:
    # no other module builds a delta operator, and lifting, whose search nodes
    # it solves, imports no linear algebra
    tree = _parse(module)
    uses = [] if module == "homcat.py" else [
        f"{module}:{n.lineno}" for n in _calls_named(tree, "delta_matrix")]
    if module == "lifting.py":
        uses += [f"lifting.py:{line}: import from linalg" for line in _imports_from(tree, "linalg")]
        assert _calls_named(tree, "solve_up_to_homotopy"), "lifting no longer uses the routine"
    assert not uses, "homotopy system assembled outside homcat: " + ", ".join(uses)


# the one projectivity-witness check and the presentation map it tests, each
# with the functions that may call it
_WITNESS_CALLERS = {
    "check_witness": {"functors.BimoduleFunctor._validate_witness", "almost.AlmostCase.__init__"},
    "presentation_matrix": {"algebra.check_witness", "derived.projective_cover"},
}


@pytest.mark.parametrize("module", MODULES)
def test_only_the_witness_entry_points_present_projectives(module):
    # a functor's corners, an almost ideal and its corners are checked by
    # algebra.check_witness, and a map (+) e_j R -> V is built by
    # algebra.presentation_matrix alone: no module keeps a copy of either
    tree = _parse(module)
    for name, callers in _WITNESS_CALLERS.items():
        names = {q for q in callers if q.startswith(module[:-3] + ".")}
        allowed, seen = set(), set()
        for qual, fn in _definitions(tree, module):
            if qual in names:
                calls = _calls_named(fn, name)
                allowed |= set(map(id, calls))
                seen |= {qual} if calls else set()
        assert seen == names, f"no longer calls {name}: " + ", ".join(sorted(names - seen))
        stray = [f"{module}:{n.lineno}" for n in _calls_named(tree, name) if id(n) not in allowed]
        assert not stray, f"{name} called outside its entry points: " + ", ".join(stray)
    # nor a rank test of its own, as the witness checks there once did
    if module in ("functors.py", "almost.py"):
        assert "rank" not in _imported_names(tree), f"{module} imports linalg.rank"


# the public checking constructors may be called inside the package only from
# these functions, each a boundary for the reason given; everything else is
# built through a trusted path (``_trusted``, ``_inherited``, ``AlgMat.block``,
# ``homcat.functor_image``), whose inputs have passed these checks
_CHECKING_CONSTRUCTORS = ("AlgMat", "ProjComplex", "GradedMap", "FdModule", "Bimodule")
_BOUNDARY_SITES = {
    "serialize.algmat_entries_from_json":
        "fixture and certificate decoding: entries from outside the engine",
    "serialize.complex_from_json":
        "fixture and certificate decoding: summands and differentials from outside",
    "serialize.map_from_json":
        "fixture and certificate decoding: components from outside",
    "homcat.single_summand_complex":
        "a stalk at a caller's summand index, for fixture stalk tables, lifting's "
        "stalk check and library users",
    "homcat.zero_complex":
        "the zero complex of a caller's algebra, with nothing else to check",
    "homcat.chain_map":
        "the checked chain map of a caller's components: library users, almost's "
        "multiplication map, and lifting's attaching and comparison maps, whose "
        "chain test guards each square of a complex lift",
    "homcat.zero_map":
        "the zero map between a caller's complexes, checking only that they share "
        "an algebra; a Hom space returns it as the homotopy of a zero map",
    "almost.SampleModules.__init__":
        "the zero module of a sample set, once per algebra: dimension 0 leaves no "
        "product to check",
    "almost.almost_derived_ideal":
        "the multiplication map's two stalks and its matrix, once per derived "
        "report, from the case's witness columns; no trusted path reaches almost",
    "derived.Resolution.differential_algmat":
        "read only by as_complex, a library output (ROADMAP item 1) on no task's path",
    "derived.Resolution.as_complex":
        "the resolution as a complex, a library output (ROADMAP item 1) on no "
        "task's path",
    "lifting._sum_map":
        "a block sum whose ends, a fresh F(X (+) X_i) and a direct sum, are built "
        "apart from its blocks: the summand check is the one tie between them",
}


def _checking_constructions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and (
        (isinstance(n.func, ast.Name) and n.func.id in _CHECKING_CONSTRUCTORS)
        or (isinstance(n.func, ast.Attribute) and n.func.attr in _CHECKING_CONSTRUCTORS))]


@pytest.mark.parametrize("module", MODULES)
def test_checking_constructors_run_only_at_the_boundary(module):
    # a functor's images, derived complexes and maps, and derived modules skip
    # the checks their inputs passed; a new checking construction is either
    # routed through a trusted path or listed here with its reason
    tree = _parse(module)
    names = {q for q in _BOUNDARY_SITES if q.startswith(module[:-3] + ".")}
    allowed, seen = set(), set()
    for qual, fn in _definitions(tree, module):
        if qual in names:
            calls = _checking_constructions(fn)
            allowed |= set(map(id, calls))
            seen |= {qual} if calls else set()
    assert seen == names, "no longer a boundary site: " + ", ".join(sorted(names - seen))
    stray = [f"{module}:{n.lineno}" for n in _checking_constructions(tree) if id(n) not in allowed]
    assert not stray, "checking constructor called off the boundary: " + ", ".join(stray)
    assert all(reason.strip() for reason in _BOUNDARY_SITES.values())


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


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _divides_in_a_loop(fn):
    """Whether ``fn`` calls a ring's ``inv`` or ``div`` inside a loop: scaling
    pivot after pivot, which is what an elimination does."""
    return any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
               and c.func.attr in ("inv", "div")
               for loop in ast.walk(fn) if isinstance(loop, _LOOPS) for c in ast.walk(loop))


def test_reduce_is_the_one_elimination_loop():
    # every solve, kernel, rank, row echelon form and span eliminates through
    # linalg._reduce; solve, rank and left_kernel read the matrix's entry dict,
    # not dense rows; solve_left calls solve by its module name, which the
    # bench tracer wraps
    loops = sorted(qual for module in MODULES for qual, node in _definitions(_parse(module), module)
                   if isinstance(node, ast.FunctionDef) and _divides_in_a_loop(node))
    assert loops == ["linalg._reduce"], f"elimination loops: {loops}"
    fns = {n.name: n for n in _parse("linalg.py").body if isinstance(n, ast.FunctionDef)}
    for name in ("rref_rows", "rank", "solve", "left_kernel"):
        assert _calls_named(fns[name], "_reduce"), f"{name} no longer calls _reduce"
    for name in ("from_spanning", "span_with"):
        reached = {fn.name for fn in _reached_from("linalg.py", name)}
        assert "_reduce" in reached, f"Subspace.{name} no longer reaches _reduce"
    dense = [f"{name}:{n.lineno}" for name in ("solve", "rank", "left_kernel")
             for n in _calls_named(fns[name], "rows") + _calls_named(fns[name], "rref_rows")]
    assert not dense, "dense rows read by: " + ", ".join(dense)
    assert any(isinstance(c.func, ast.Name) for c in _calls_named(fns["solve_left"], "solve"))


# what a coequalizer presentation of a tensor product is made of
_COEQUALIZER_NAMES = ("module_tensor", "TensorResult", "quotient_coords", "completion")


def _reached_from(module, root):
    """The functions and methods of ``module`` that ``root`` calls, directly or
    through one another, matched by name; ``root`` is one of them."""
    defs = {}
    for _, node in _definitions(_parse(module), module):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += [callee for fn in defs[name] for c in ast.walk(fn) if isinstance(c, ast.Call)
                     for callee in [getattr(c.func, "id", getattr(c.func, "attr", None))]
                     if callee in defs]
    return [fn for name in sorted(seen) for fn in defs[name]]


# the constructors that take an action induced on a sub or quotient space
_INDUCE = {"algebra.py": ("algebra.submodule", "algebra.quotient_module", "algebra.module_tensor"),
           "almost.py": ("almost.CornerFunctor.apply",)}


def test_induced_actions_come_from_restrict_or_project():
    # Subspace.restrict and Subspace.project are the one home of the action
    # induced on an invariant subspace or on the quotient by one, and a
    # resolution covers each syzygy inside the last P_i, building no submodule
    for module, quals in _INDUCE.items():
        defs = dict(_definitions(_parse(module), module))
        bare = [q for q in quals if not any(_mentions(n, name) for n in ast.walk(defs[q])
                                            for name in ("restrict", "project"))]
        assert not bare, "action induced without restrict or project: " + ", ".join(bare)
    defined = [qual for module in MODULES for qual, _ in _definitions(_parse(module), module)
               if qual.endswith("._invariant_coords")]
    assert not defined, "_invariant_coords is back: " + ", ".join(defined)
    reached = _reached_from("derived.py", "proj_resolution")
    named = [f"derived.py:{n.lineno} ({fn.name})" for fn in reached for n in ast.walk(fn)
             if _mentions(n, "submodule")]
    assert not named, "the resolution builds syzygy modules: " + ", ".join(named)


def test_tor_tensors_projectives_as_blocks_without_a_coequalizer():
    # P (x)_R B is the sum of the blocks e_j B for P = sum of e_j R, so
    # neither Tor nor a helper it reaches in derived builds a coequalizer;
    # the multiplication map's S (x)_R S is the one check-hepi builds
    reached = _reached_from("derived.py", "tor_with_bimodule")
    named = [f"derived.py:{n.lineno} ({fn.name} names {name})" for fn in reached
             for n in ast.walk(fn) for name in _COEQUALIZER_NAMES if _mentions(n, name)]
    assert not named, "Tor reaches a coequalizer: " + ", ".join(named)
    assert {"proj_resolution", "_tensored_differential"} <= {fn.name for fn in reached}
    defined = [qual for module in MODULES for qual, _ in _definitions(_parse(module), module)
               if qual.endswith(".tensor_functor_map")]
    assert not defined, "tensor_functor_map is back: " + ", ".join(defined)


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
    "almost.CornerFunctor.apply":
        "the corner functor M -> Me on modules, for library users; almost_quotient "
        "reads only dim Me, from image_space",
    "functors.BimoduleFunctor.apply_algmat":
        "F on one summand matrix, for library users; the transport tests check "
        "that it is multiplicative, and the bench tracer spans it by name",
    "homcat.GradedMap.scale":
        "the scalar action on maps of the linear homotopy category; tests build "
        "scaled legs and mutated certificates with it",
}

# Method names that two or more classes define.  The dead-helper test counts
# a call of any of them as a reference to every namesake, so each namesake
# here has been checked for a caller of its own: GradedMap.scale had none and
# is kept above, Mat.scale and HomIdeal.is_zero had none and are gone; the
# property Subspace.rows and the method Mat.rows() each have their own.
_SHARED_METHOD_NAMES = {
    "_check_shapes", "_inherited", "_validate", "add", "apply", "diff_at", "dim", "div",
    "fmt", "from_int", "identity", "inv", "is_zero", "mul", "neg", "parse", "rows", "scale",
    "shift", "sub", "_trusted", "zeros",
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


def _method_owners():
    """Map each non-dunder method name to the qualified names of its classes."""
    out = {}
    for module in MODULES:
        for qual, node in _definitions(_parse(module), module):
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                        out.setdefault(fn.name, []).append(qual)
    return out


def test_kept_helpers_are_still_unreferenced():
    # an entry whose name gained a caller, or whose definition is gone, leaves
    # _KEPT; a method whose name another class shares is referenced by its
    # namesakes' calls, so it stays while its class still defines it
    owners = _method_owners()
    shared = {f"{cls}.{name}" for name, classes in owners.items() if len(classes) > 1
              for cls in classes}
    stale = sorted(set(_KEPT) - set(_unreferenced()) - shared)
    assert not stale, "no longer needs a _KEPT entry: " + ", ".join(stale)
    assert all(reason.strip() for reason in _KEPT.values())


def test_shared_method_names_are_recorded():
    # a new shared name can hide a dead namesake: check each one for a caller
    # of its own before recording the name
    shared = {name for name, classes in _method_owners().items() if len(classes) > 1}
    assert shared == _SHARED_METHOD_NAMES, (
        f"newly shared: {sorted(shared - _SHARED_METHOD_NAMES)}, "
        f"no longer shared: {sorted(_SHARED_METHOD_NAMES - shared)}")
