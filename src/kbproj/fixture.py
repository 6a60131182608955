"""Fixture files: hand-written JSON describing algebras, complexes, and tasks.

A fixture file is one JSON object with named sections.  Loading resolves
every cross-reference and re-validates every invariant through the normal
constructors (structure constants, chain conditions, functor witnesses),
so a malformed file fails at load time with the offending name in the
error.  ``FixtureFile`` then hands fully built objects to the task runner.

Shifted complexes are referenced as ``name[k]``; subcategory sections list
base objects with a shift range and materialize the shifted copies under
those bracketed names.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraPresentation, RingMap
from .almost import AlmostCase, ContractionFixture
from .functors import BimoduleFunctor, FiniteSubcat, induction_functor, restriction_functor
from .homcat import GradedMap, ProjComplex, single_summand_complex
from .ideals import TrianglePresentation
from .lifting import ComplexLiftProblem, MapLiftProblem, SearchBudget, StalkLift
from .linalg import GF, LaurentRing, QQ
from .serialize import (
    SerializeError,
    complex_from_json,
    int_key,
    map_from_json,
    mat_from_json,
    vec_from_json,
)


class FixtureError(ValueError):
    pass


_SHIFT_RE = re.compile(r"^(.*)\[(-?\d+)\]$")
FORMAT_VERSION = 1
# far above any use (fixtures 4): every shift of a window is one more object
# and one more row of Hom spaces, so an uncapped shift range can hang a load
WINDOW_CAP = 64
# the largest prime field: GF(p) checks p by trial division up to sqrt(p),
# about 46,000 steps here, where an unbounded p can hang the load
FIELD_P_MAX = 2**31 - 1

# what one entry of each built section is called in messages
_KIND = {"algebras": "algebra", "ring_maps": "ring map", "functors": "functor",
         "complexes": "complex", "maps": "map", "subcategories": "subcategory",
         "triangles": "triangle", "ideals": "ideal", "lifts": "lift",
         "complex_lifts": "complex lift", "contractions": "contraction",
         "almost_cases": "almost case"}
# a section's JSON key is its attribute name, except for almost_cases
_TOP_KEYS = ({"format_version", "field", "tasks", "almost"}
             | set(_KIND) - {"almost_cases"})


class FixtureFile:
    """A parsed and fully validated fixture."""

    def __init__(self, data: Dict, path: str = "<memory>"):
        if not isinstance(data, dict):
            raise FixtureError("fixture root must be a JSON object")
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise FixtureError(f"unsupported format_version {version!r}")
        unknown = sorted(set(data) - _TOP_KEYS)
        if unknown:
            raise FixtureError(f"unknown top-level key {unknown[0]!r}")
        self.path = path
        self.ring = self._parse_field(data.get("field", "QQ"))
        self.algebras: Dict[str, AlgebraPresentation] = {}
        self.ring_maps: Dict[str, RingMap] = {}
        self.functors: Dict[str, BimoduleFunctor] = {}
        self.complexes: Dict[str, ProjComplex] = {}
        self.maps: Dict[str, GradedMap] = {}
        self.subcategories: Dict[str, FiniteSubcat] = {}
        self.triangles: Dict[str, Dict] = {}
        self.ideals: Dict[str, Dict] = {}
        self.lifts: Dict[str, Tuple[MapLiftProblem, SearchBudget]] = {}
        self.complex_lifts: Dict[str, Tuple[ComplexLiftProblem, SearchBudget]] = {}
        self.contractions: Dict[str, ContractionFixture] = {}
        self.almost_cases: Dict[str, AlmostCase] = {}
        self.tasks: List[Dict] = []
        self._build(data)

    # -- construction ---------------------------------------------------

    @staticmethod
    def _parse_field(spec):
        if spec == "QQ":
            return QQ
        if isinstance(spec, dict) and set(spec) == {"p"}:
            try:
                return GF(checked_int(spec["p"], "p", 2, FIELD_P_MAX))
            except ValueError as exc:     # checked_int's, or GF's LinalgError
                raise FixtureError(f"unknown field spec {spec!r}: {exc}") from exc
        raise FixtureError(f'unknown field spec {spec!r}: must be "QQ" or {{"p": <prime>}}')

    def _build(self, data):
        # every entry is built inside one try, so a malformed one exits as a
        # FixtureError naming its section and entry, never as a traceback
        for attr, build in (("algebras", self._build_algebra),
                            ("ring_maps", self._build_ring_map),
                            ("functors", self._build_functor),
                            ("complexes", self._build_complex),
                            ("maps", self._build_map),
                            ("subcategories", self._build_subcat),
                            ("triangles", self._build_triangle),
                            ("ideals", self._build_ideal),
                            ("lifts", self._build_lift),
                            ("complex_lifts", self._build_complex_lift),
                            ("contractions", self._build_contraction),
                            ("almost_cases", self._build_almost)):
            key = "almost" if attr == "almost_cases" else attr
            table, what = getattr(self, attr), _KIND[attr]
            for name, entry in _section(data, key).items():
                if not isinstance(entry, dict):
                    raise FixtureError(f"{what} {name}: entry must be an object")
                try:
                    table[name] = build(name, entry)
                except FixtureError:
                    raise
                except KeyError as exc:
                    raise FixtureError(f"{what} {name}: missing field {exc}") from exc
                except Exception as exc:
                    raise FixtureError(f"{what} {name}: {exc}") from exc
        tasks = data.get("tasks", [])
        if not isinstance(tasks, list):
            raise FixtureError("tasks must be a list")
        seen = set()
        for t in tasks:
            if not (isinstance(t, dict) and isinstance(t.get("id"), str)
                    and isinstance(t.get("command"), str)):
                raise FixtureError(f"task entries need a string id and command: {t!r}")
            if t["id"] in seen:
                raise FixtureError(f"duplicate task id {t['id']!r}")
            seen.add(t["id"])
            self.tasks.append(dict(t))

    def _build_algebra(self, name, a) -> AlgebraPresentation:
        return AlgebraPresentation(self.ring, a["basis"], a["structure"], a["unit"],
                                   a["idempotents"],
                                   idempotent_names=a.get("idempotent_names"), name=name)

    def _build_ring_map(self, name, m) -> RingMap:
        src = self.lookup("algebras", m.get("source"), f"ring map {name}")
        tgt = self.lookup("algebras", m.get("target"), f"ring map {name}")
        return RingMap(src, tgt, m["images"], name=name)

    def _build_functor(self, name, f) -> BimoduleFunctor:
        kind = f.get("kind")
        rm = self.lookup("ring_maps", f.get("ring_map"), f"functor {name}")
        # witnesses are keyed by source and name target idempotents of F: R -> S, A -> C
        src, tgt = (rm.target, rm.source) if kind == "restriction" else (rm.source, rm.target)
        witnesses = {_index_key(k, "witness", src.n_idempotents()):
                     self._pairs(lst, "witness", tgt.n_idempotents(), rm.target.dim)
                     for k, lst in _typed(f, "witnesses", dict).items()}
        if kind == "induction":
            return induction_functor(rm, witnesses)
        if kind == "restriction":
            return restriction_functor(rm, witnesses)
        raise FixtureError(f"functor {name}: kind must be induction or "
                           f"restriction, got {kind!r}")

    def _build_complex(self, name, c) -> ProjComplex:
        alg = self.lookup("algebras", c.get("algebra"), f"complex {name}")
        return complex_from_json(alg, c, name=name)

    def _build_map(self, name, m) -> GradedMap:
        src = self.complex(m.get("source"), f"map {name}")
        tgt = self.complex(m.get("target"), f"map {name}")
        degree = checked_int(m.get("degree", 0), "degree", -WINDOW_CAP, WINDOW_CAP)
        f = map_from_json(src, tgt, degree, _typed(m, "components", dict), name=name)
        if m.get("chain", True) and degree == 0 and not f.is_chain_map():
            raise FixtureError(f"map {name}: does not commute with the differentials")
        return f

    def _build_subcat(self, name, s) -> FiniteSubcat:
        base = _typed(s, "objects", list)
        bounds = s.get("shift_range", [0, 0])
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ValueError("'shift_range' must be a list of two integers")
        lo, hi = (checked_int(n, "shift_range", -WINDOW_CAP, WINDOW_CAP) for n in bounds)
        if lo > hi:
            raise FixtureError(f"subcategory {name}: empty shift range")
        objs = {}
        shifts = {}
        for b in base:
            X = self.complex(b, f"subcategory {name}")
            for n in range(lo, hi + 1):
                objs[_shift_name(b, n)] = X.shift(n) if n else X
                if n > lo:
                    shifts[_shift_name(b, n - 1)] = _shift_name(b, n)
        return FiniteSubcat(objs, shifts)

    def _build_triangle(self, name, t) -> Dict:
        objects = t.get("objects")
        if objects is not None and not (isinstance(objects, list) and len(objects) == 3
                                        and all(isinstance(o, str) for o in objects)):
            raise FixtureError(f"triangle {name}: objects must be a list of three names")
        alpha, beta, gamma = (self.lookup("maps", t.get(k), f"triangle {name}")
                              for k in ("alpha", "beta", "gamma"))
        # legs compose under the one complex-equality rule (ProjComplex.__eq__),
        # so recognition and certificate replay only see X -> Y -> Z -> X[1]
        if (beta.source != alpha.target or gamma.source != beta.target
                or gamma.target != alpha.source.shift(1)):
            raise FixtureError(f"triangle {name}: legs do not compose as "
                               f"X -> Y -> Z -> X[1]")
        return {"alpha": alpha, "beta": beta, "gamma": gamma, "objects": objects}

    def _build_ideal(self, name, i) -> Dict:
        subcat = self.lookup("subcategories", i.get("subcat"), f"ideal {name}")
        gens: Dict[Tuple[str, str], List[GradedMap]] = {}
        for g in _typed(i, "generators", list):
            f = self.lookup("maps", g, f"ideal {name}")
            if not f.is_chain_map():  # a class of Hom(X, Y) is a degree-0 chain map
                raise FixtureError(f"ideal {name}: generator {g} is not a degree-0 chain map")
            pair = tuple(_locate(subcat, X, f"generator {g}") for X in (f.source, f.target))
            gens.setdefault(pair, []).append(f)
        tris = []
        for tn in _typed(i, "triangles", list):
            tri = self.lookup("triangles", tn, f"ideal {name}")
            legs = (tri["alpha"].source, tri["alpha"].target, tri["beta"].target)
            objs = tri["objects"] or [_locate(subcat, X, f"triangle {tn}") for X in legs]
            for nm, X in zip(objs, legs):
                if nm not in subcat.objects:
                    raise ValueError(f"triangle {tn}: object {nm!r} is not in the "
                                     f"subcategory window")
                if subcat.objects[nm] != X:
                    raise ValueError(f"triangle {tn}: window object {nm!r} is not the "
                                     f"triangle's object")
            tris.append(TrianglePresentation(tuple(objs), tri["alpha"], tri["beta"], tri["gamma"]))
        return {"subcat": subcat, "subcat_name": i.get("subcat"), "generators": gens,
                "triangles": tris}

    def _build_lift(self, name, l) -> Tuple[MapLiftProblem, SearchBudget]:
        F = self.lookup("functors", l.get("functor"), f"lift {name}")
        X = self.complex(l.get("source"), f"lift {name}")
        Y = self.complex(l.get("target"), f"lift {name}")
        FX, FY = F.apply_complex(X), F.apply_complex(Y)
        alpha = map_from_json(FX, FY, 0, _typed(l, "map", dict), name=f"{name}.map")
        gens = [self.complex(g, f"lift {name}") for g in _typed(l, "generators", list)]
        return MapLiftProblem(F, X, Y, alpha, gens), _budget(l)

    def _build_complex_lift(self, name, l) -> Tuple[ComplexLiftProblem, SearchBudget]:
        F = self.lookup("functors", l.get("functor"), f"complex lift {name}")
        Y = self.complex(l.get("target"), f"complex lift {name}")
        stalks = {}
        table = _typed(l, "stalks", dict)
        for k in table:
            j = _index_key(k, "stalk", F.target_alg.n_idempotents())
            entry = _typed(table, k, dict, f"stalk {k!r}")
            src = self.complex(entry.get("source"), f"complex lift {name}")
            stalk = single_summand_complex(F.target_alg, j, 0)
            eq = map_from_json(F.apply_complex(src), stalk, 0, _typed(entry, "equivalence", dict),
                               name=f"{name}.stalk{j}")
            stalks[j] = StalkLift(src, eq)
        gens = [self.complex(g, f"complex lift {name}")
                for g in _typed(l, "generators", list)]
        return ComplexLiftProblem(F, Y, stalks, gens), _budget(l)

    def _build_contraction(self, name, c) -> ContractionFixture:
        vars_ = c.get("vars")
        ring = LaurentRing(vars_) if vars_ else self.ring
        dims = {int_key(k, "'dims' degree"): checked_int(v, "dims", 0)
                for k, v in _typed(c, "dims", dict).items()}

        def load(table, kind, shape):
            out = {}
            for k, m in table.items():
                n = int_key(k, f"{kind} degree")
                nr, nc = shape(n)
                try:
                    out[n] = mat_from_json(ring, m, nr, nc)
                except SerializeError as exc:
                    raise FixtureError(f"contraction {name} {kind} at {n}: "
                                       f"{exc}") from exc
            return out

        diff = load(_typed(c, "diff", dict), "differential",
                    lambda n: (dims.get(n, 0), dims.get(n + 1, 0)))
        hom = load(_typed(c, "homotopy", dict), "homotopy",
                   lambda n: (dims.get(n, 0), dims.get(n - 1, 0)))
        return ContractionFixture(ring, dims, diff, hom, name=name)

    def _build_almost(self, name, a) -> AlmostCase:
        alg = self.lookup("algebras", a.get("algebra"), f"almost case {name}")

        def witness(lst, what):
            return self._pairs(lst, what, alg.n_idempotents(), alg.dim)

        e = gens = subcat = None
        if "idempotent" in a:
            e = vec_from_json(self.ring, a["idempotent"], alg.dim)
        elif a.get("generators") is not None:
            gens = [vec_from_json(self.ring, g, alg.dim) for g in _typed(a, "generators", list)]
        if a.get("subcat"):
            subcat = self.lookup("subcategories", a["subcat"], f"almost case {name}")
        # square witnesses are keyed by the pairs of the a_witness, so they are
        # read with it; the derived part refuses a case that has none
        aw = sw = None
        if a.get("a_witness") is not None:
            aw = witness(a["a_witness"], "a_witness")
            sw = {_index_key(k, "square_witnesses", len(aw)): witness(lst, "square_witnesses")
                  for k, lst in _typed(a, "square_witnesses", dict).items()}
        return AlmostCase(alg, e, gens, a.get("include", ["serre"]), subcat, a.get("subcat"),
                          a_witness=aw, square_witnesses=sw)

    def _pairs(self, lst, what: str, n_idems: int, dim: int) -> List[Tuple[int, Tuple]]:
        """The witness list ``what``: [idempotent index, element] pairs, parsed."""
        if not (isinstance(lst, list)
                and all(isinstance(item, list) and len(item) == 2 for item in lst)):
            raise ValueError(f"{what} entries are [idempotent, element] pairs")
        return [(checked_int(j, "idempotent", 0, n_idems - 1), vec_from_json(self.ring, v, dim))
                for j, v in lst]

    # -- accessors --------------------------------------------------------

    def lookup(self, section: str, name, what: str = "task"):
        """The entry ``name`` of a built section, given by its attribute name.

        The one lookup behind every name reference in the fixture and its
        tasks: a name that is not a string, or names no entry, raises
        ``FixtureError``.
        """
        table = getattr(self, section)
        if not isinstance(name, str) or name not in table:
            raise FixtureError(f"{what}: unknown {_KIND[section]} {name!r}")
        return table[name]

    def complex(self, name, what="task") -> ProjComplex:
        m = isinstance(name, str) and name not in self.complexes and _SHIFT_RE.match(name)
        if m and m.group(1) in self.complexes:
            return self.complexes[m.group(1)].shift(int(m.group(2)))
        return self.lookup("complexes", name, what)


def _shift_name(base: str, n: int) -> str:
    return base if n == 0 else f"{base}[{n}]"


def _locate(subcat: FiniteSubcat, X: ProjComplex, what: str) -> str:
    for name in subcat.names():
        if subcat.objects[name] == X:
            return name
    raise ValueError(f"{what}: object is not in the subcategory window")


def _typed(entry: Dict, key: str, kind: type, what: Optional[str] = None):
    """``entry[key]`` if it is a JSON object (``kind`` dict) or list, an empty
    one when it is absent or null, else a ``ValueError`` naming the field."""
    value = entry.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        kind_name = "an object" if kind is dict else "a list"
        raise ValueError(f"{what or repr(key)} must be {kind_name}")
    return value


def _index_key(key: str, what: str, count: int) -> int:
    """The index in 0..count-1 that a JSON key names under ``int_key``'s rule."""
    n = int_key(key, f"{what} key")
    if n not in range(count):
        raise ValueError(f"{what} key {key!r} must be an index from 0 to {count - 1}")
    return n


def checked_int(value, key: str, minimum: int, maximum: Optional[int] = None) -> int:
    """``value`` if it is an integer (not a bool) in [minimum, maximum], else a
    ``ValueError`` naming ``key``: the one rule for fixture and task integers."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{key!r} must be an integer at least {minimum}, "
                         f"got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{key!r} must be at most {maximum}, got {value!r}")
    return value


def _budget(entry) -> SearchBudget:
    b = SearchBudget()
    return SearchBudget(
        max_depth=checked_int(entry.get("depth", b.max_depth), "depth", 0),
        max_candidates=checked_int(entry.get("max_candidates", b.max_candidates),
                                   "max_candidates", 0))


def _section(data, key) -> Dict:
    sec = data.get(key, {})
    if not isinstance(sec, dict):
        raise FixtureError(f"section {key} must be an object")
    return sec


def load_fixture(path: str) -> FixtureFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: line {exc.lineno} column {exc.colno}: "
                           f"{exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise FixtureError(f"{path}: JSON nested too deeply to read") from exc
    return FixtureFile(data, path=path)
