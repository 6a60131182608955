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
from typing import Dict, List, Optional

from .algebra import (
    AlgebraPresentation,
    RingMap,
    ideal_from_spanning,
    ideal_generated_by_idempotent,
)
from .almost import ContractionFixture, ProjectivityWitness
from .functors import BimoduleFunctor, FiniteSubcat, induction_functor, restriction_functor
from .homcat import GradedMap, ProjComplex, single_summand_complex
from .lifting import SearchBudget, StalkLift
from .linalg import GF, LaurentRing, QQ
from .serialize import (
    SerializeError,
    complex_from_json,
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
        self.lifts: Dict[str, Dict] = {}
        self.complex_lifts: Dict[str, Dict] = {}
        self.contractions: Dict[str, ContractionFixture] = {}
        self.almost_cases: Dict[str, Dict] = {}
        self.tasks: List[Dict] = []
        self._build(data)

    # -- construction ---------------------------------------------------

    @staticmethod
    def _parse_field(spec):
        if spec == "QQ":
            return QQ
        try:
            return GF(int(spec["p"]))
        except Exception as exc:
            raise FixtureError(f"unknown field spec {spec!r}: {exc}") from exc

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
        witnesses = {}
        bim_dim = rm.target.dim
        for k, lst in f.get("witnesses", {}).items():
            pairs = []
            for item in lst:
                if not (isinstance(item, list) and len(item) == 2):
                    raise FixtureError(f"functor {name}: witness entries are "
                                       f"[idempotent, element] pairs")
                j, vec = item
                pairs.append((int(j), vec_from_json(self.ring, vec, bim_dim)))
            witnesses[int(k)] = pairs
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
        degree = int(m.get("degree", 0))
        f = map_from_json(src, tgt, degree, m.get("components", {}), name=name)
        if m.get("chain", True) and degree == 0 and not f.is_chain_map():
            raise FixtureError(f"map {name}: does not commute with the differentials")
        return f

    def _build_subcat(self, name, s) -> FiniteSubcat:
        base = s.get("objects", [])
        lo, hi = (checked_int(n, "shift_range", -WINDOW_CAP, WINDOW_CAP)
                  for n in s.get("shift_range", [0, 0]))
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
        gens = [(g, self.lookup("maps", g, f"ideal {name}"))
                for g in i.get("generators", [])]
        return {"subcat": subcat, "subcat_name": i.get("subcat"), "generators": gens,
                "triangles": list(i.get("triangles", []))}

    def _build_lift(self, name, l) -> Dict:
        F = self.lookup("functors", l.get("functor"), f"lift {name}")
        X = self.complex(l.get("source"), f"lift {name}")
        Y = self.complex(l.get("target"), f"lift {name}")
        FX, FY = F.apply_complex(X), F.apply_complex(Y)
        alpha = map_from_json(FX, FY, 0, l.get("map", {}), name=f"{name}.map")
        gens = [self.complex(g, f"lift {name}") for g in l.get("generators", [])]
        return {"functor": F, "source": X, "target": Y, "map": alpha,
                "generators": gens, "budget": _budget(l)}

    def _build_complex_lift(self, name, l) -> Dict:
        F = self.lookup("functors", l.get("functor"), f"complex lift {name}")
        Y = self.complex(l.get("target"), f"complex lift {name}")
        stalks = {}
        for k, entry in l.get("stalks", {}).items():
            j = int(k)
            src = self.complex(entry.get("source"), f"complex lift {name}")
            Fsrc = F.apply_complex(src)
            stalk = single_summand_complex(F.target_alg, j, 0)
            eq = map_from_json(Fsrc, stalk, 0, entry.get("equivalence", {}),
                               name=f"{name}.stalk{j}")
            stalks[j] = StalkLift(src, eq)
        gens = [self.complex(g, f"complex lift {name}")
                for g in l.get("generators", [])]
        return {"functor": F, "target": Y, "stalks": stalks,
                "generators": gens, "budget": _budget(l)}

    def _build_contraction(self, name, c) -> ContractionFixture:
        vars_ = c.get("vars")
        ring = LaurentRing(vars_) if vars_ else self.ring
        dims = {int(k): int(v) for k, v in c.get("dims", {}).items()}

        def load(table, kind, shape):
            out = {}
            for k, m in table.items():
                n = int(k)
                nr, nc = shape(n)
                try:
                    out[n] = mat_from_json(ring, m, nr, nc)
                except SerializeError as exc:
                    raise FixtureError(f"contraction {name} {kind} at {n}: "
                                       f"{exc}") from exc
            return out

        diff = load(c.get("diff", {}), "differential",
                    lambda n: (dims.get(n, 0), dims.get(n + 1, 0)))
        hom = load(c.get("homotopy", {}), "homotopy",
                   lambda n: (dims.get(n, 0), dims.get(n - 1, 0)))
        return ContractionFixture(ring, dims, diff, hom, name=name)

    def _build_almost(self, name, a) -> Dict:
        alg = self.lookup("algebras", a.get("algebra"), f"almost case {name}")
        if "idempotent" in a:
            e = vec_from_json(self.ring, a["idempotent"], alg.dim)
            ideal = ideal_generated_by_idempotent(alg, e)
        elif "generators" in a:
            e = None
            gens = [vec_from_json(self.ring, g, alg.dim) for g in a["generators"]]
            ideal = ideal_from_spanning(alg, gens)
        else:
            raise FixtureError(f"almost case {name}: needs idempotent or generators")
        subcat = None
        if a.get("subcat"):
            subcat = self.lookup("subcategories", a["subcat"], f"almost case {name}")
            if subcat.alg != alg:
                raise FixtureError(f"almost case {name}: subcategory {a['subcat']} lives "
                                   f"over {subcat.alg.name}, not {alg.name}")
        aw = None
        if a.get("a_witness") is not None:
            aw = ProjectivityWitness(
                [(int(j), vec_from_json(self.ring, v, alg.dim))
                 for j, v in a["a_witness"]])
        sw = None
        if a.get("square_witnesses") is not None:
            sw = {}
            for k, lst in a["square_witnesses"].items():
                sw[int(k)] = ProjectivityWitness(
                    [(int(j), vec_from_json(self.ring, v, alg.dim))
                     for j, v in lst])
        include = a.get("include", ["serre"])
        return {"algebra": alg, "ideal": ideal, "idempotent": e,
                "subcat": subcat, "subcat_name": a.get("subcat"),
                "a_witness": aw, "square_witnesses": sw, "include": include}

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
    return FixtureFile(data, path=path)
