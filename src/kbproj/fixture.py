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
from typing import Dict, List

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


class FixtureFile:
    """A parsed and fully validated fixture."""

    def __init__(self, data: Dict, path: str = "<memory>"):
        if not isinstance(data, dict):
            raise FixtureError("fixture root must be a JSON object")
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise FixtureError(f"unsupported format_version {version!r}")
        self.path = path
        self.raw = data
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
        if isinstance(spec, dict) and "p" in spec:
            return GF(int(spec["p"]))
        raise FixtureError(f"unknown field spec {spec!r}")

    def _build(self, data):
        for name, a in _section(data, "algebras").items():
            try:
                self.algebras[name] = AlgebraPresentation(
                    self.ring, a["basis"], a["structure"], a["unit"],
                    a["idempotents"],
                    idempotent_names=a.get("idempotent_names"),
                    primitive=a.get("primitive", True), name=name)
            except KeyError as exc:
                raise FixtureError(f"algebra {name}: missing field {exc}") from exc
            except Exception as exc:
                raise FixtureError(f"algebra {name}: {exc}") from exc
        for name, m in _section(data, "ring_maps").items():
            src = self._algebra(m.get("source"), f"ring map {name}")
            tgt = self._algebra(m.get("target"), f"ring map {name}")
            try:
                self.ring_maps[name] = RingMap(src, tgt, m["images"], name=name)
            except Exception as exc:
                raise FixtureError(f"ring map {name}: {exc}") from exc
        for name, f in _section(data, "functors").items():
            self.functors[name] = self._build_functor(name, f)
        for name, c in _section(data, "complexes").items():
            alg = self._algebra(c.get("algebra"), f"complex {name}")
            try:
                self.complexes[name] = complex_from_json(alg, c, name=name)
            except Exception as exc:
                raise FixtureError(f"complex {name}: {exc}") from exc
        for name, m in _section(data, "maps").items():
            self.maps[name] = self._build_map(name, m)
        for name, s in _section(data, "subcategories").items():
            self.subcategories[name] = self._build_subcat(name, s)
        for name, t in _section(data, "triangles").items():
            self.triangles[name] = {
                "alpha": self.map(t.get("alpha"), f"triangle {name}"),
                "beta": self.map(t.get("beta"), f"triangle {name}"),
                "gamma": self.map(t.get("gamma"), f"triangle {name}"),
                "objects": t.get("objects"),
            }
        for name, i in _section(data, "ideals").items():
            subcat = self.subcat(i.get("subcat"), f"ideal {name}")
            gens = [(g, self.map(g, f"ideal {name}")) for g in i.get("generators", [])]
            self.ideals[name] = {"subcat": subcat, "subcat_name": i.get("subcat"),
                                 "generators": gens,
                                 "triangles": list(i.get("triangles", []))}
        for name, l in _section(data, "lifts").items():
            self.lifts[name] = self._build_lift(name, l)
        for name, l in _section(data, "complex_lifts").items():
            self.complex_lifts[name] = self._build_complex_lift(name, l)
        for name, c in _section(data, "contractions").items():
            self.contractions[name] = self._build_contraction(name, c)
        for name, a in _section(data, "almost").items():
            self.almost_cases[name] = self._build_almost(name, a)
        tasks = data.get("tasks", [])
        if not isinstance(tasks, list):
            raise FixtureError("tasks must be a list")
        seen = set()
        for t in tasks:
            if not isinstance(t, dict) or "id" not in t or "command" not in t:
                raise FixtureError(f"task entries need id and command: {t!r}")
            if t["id"] in seen:
                raise FixtureError(f"duplicate task id {t['id']!r}")
            seen.add(t["id"])
            self.tasks.append(dict(t))

    def _build_functor(self, name, f) -> BimoduleFunctor:
        kind = f.get("kind")
        rm = self.ring_map(f.get("ring_map"), f"functor {name}")
        witnesses = {}
        bim_dim = rm.target.dim
        for k, lst in f.get("witnesses", {}).items():
            try:
                idx = int(k)
            except ValueError:
                raise FixtureError(f"functor {name}: witness key {k!r}") from None
            pairs = []
            for item in lst:
                if not (isinstance(item, list) and len(item) == 2):
                    raise FixtureError(f"functor {name}: witness entries are "
                                       f"[idempotent, element] pairs")
                j, vec = item
                pairs.append((int(j), vec_from_json(self.ring, vec, bim_dim)))
            witnesses[idx] = pairs
        try:
            if kind == "induction":
                return induction_functor(rm, witnesses)
            if kind == "restriction":
                return restriction_functor(rm, witnesses)
        except Exception as exc:
            raise FixtureError(f"functor {name}: {exc}") from exc
        raise FixtureError(f"functor {name}: kind must be induction or "
                           f"restriction, got {kind!r}")

    def _build_map(self, name, m) -> GradedMap:
        src = self.complex(m.get("source"), f"map {name}")
        tgt = self.complex(m.get("target"), f"map {name}")
        degree = int(m.get("degree", 0))
        try:
            f = map_from_json(src, tgt, degree, m.get("components", {}), name=name)
        except Exception as exc:
            raise FixtureError(f"map {name}: {exc}") from exc
        if m.get("chain", True) and degree == 0:
            if not f.delta().is_zero():
                raise FixtureError(f"map {name}: does not commute with the "
                                   f"differentials")
        return f

    def _build_subcat(self, name, s) -> FiniteSubcat:
        base = s.get("objects", [])
        lo, hi = s.get("shift_range", [0, 0])
        lo, hi = int(lo), int(hi)
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
        try:
            return FiniteSubcat(objs, shifts)
        except Exception as exc:
            raise FixtureError(f"subcategory {name}: {exc}") from exc

    def _build_lift(self, name, l) -> Dict:
        F = self.functor(l.get("functor"), f"lift {name}")
        X = self.complex(l.get("source"), f"lift {name}")
        Y = self.complex(l.get("target"), f"lift {name}")
        FX, FY = F.apply_complex(X), F.apply_complex(Y)
        try:
            alpha = map_from_json(FX, FY, 0, l.get("map", {}), name=f"{name}.map")
        except Exception as exc:
            raise FixtureError(f"lift {name}: {exc}") from exc
        gens = [self.complex(g, f"lift {name}") for g in l.get("generators", [])]
        return {"functor": F, "source": X, "target": Y, "map": alpha,
                "generators": gens, "budget": _budget(l)}

    def _build_complex_lift(self, name, l) -> Dict:
        F = self.functor(l.get("functor"), f"complex lift {name}")
        Y = self.complex(l.get("target"), f"complex lift {name}")
        stalks = {}
        for k, entry in l.get("stalks", {}).items():
            j = int(k)
            src = self.complex(entry.get("source"), f"complex lift {name}")
            Fsrc = F.apply_complex(src)
            stalk = single_summand_complex(F.target_alg, j, 0)
            try:
                eq = map_from_json(Fsrc, stalk, 0, entry.get("equivalence", {}),
                                   name=f"{name}.stalk{j}")
            except Exception as exc:
                raise FixtureError(f"complex lift {name}: {exc}") from exc
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
        try:
            return ContractionFixture(ring, dims, diff, hom, name=name)
        except Exception as exc:
            raise FixtureError(f"contraction {name}: {exc}") from exc

    def _build_almost(self, name, a) -> Dict:
        alg = self._algebra(a.get("algebra"), f"almost {name}")
        if "idempotent" in a:
            e = vec_from_json(self.ring, a["idempotent"], alg.dim)
            ideal = ideal_generated_by_idempotent(alg, e)
        elif "generators" in a:
            e = None
            gens = [vec_from_json(self.ring, g, alg.dim) for g in a["generators"]]
            ideal = ideal_from_spanning(alg, gens)
        else:
            raise FixtureError(f"almost {name}: needs idempotent or generators")
        subcat = None
        if a.get("subcat"):
            subcat = self.subcat(a["subcat"], f"almost {name}")
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

    def _algebra(self, name, what) -> AlgebraPresentation:
        if name not in self.algebras:
            raise FixtureError(f"{what}: unknown algebra {name!r}")
        return self.algebras[name]

    def ring_map(self, name, what="task") -> RingMap:
        if name not in self.ring_maps:
            raise FixtureError(f"{what}: unknown ring map {name!r}")
        return self.ring_maps[name]

    def functor(self, name, what="task") -> BimoduleFunctor:
        if name not in self.functors:
            raise FixtureError(f"{what}: unknown functor {name!r}")
        return self.functors[name]

    def complex(self, name, what="task") -> ProjComplex:
        if not isinstance(name, str):
            raise FixtureError(f"{what}: complex reference must be a name")
        if name in self.complexes:
            return self.complexes[name]
        m = _SHIFT_RE.match(name)
        if m and m.group(1) in self.complexes:
            return self.complexes[m.group(1)].shift(int(m.group(2)))
        raise FixtureError(f"{what}: unknown complex {name!r}")

    def map(self, name, what="task") -> GradedMap:
        if name not in self.maps:
            raise FixtureError(f"{what}: unknown map {name!r}")
        return self.maps[name]

    def subcat(self, name, what="task") -> FiniteSubcat:
        if name not in self.subcategories:
            raise FixtureError(f"{what}: unknown subcategory {name!r}")
        return self.subcategories[name]

    def contraction(self, name, what="task") -> ContractionFixture:
        if name not in self.contractions:
            raise FixtureError(f"{what}: unknown contraction {name!r}")
        return self.contractions[name]


def _shift_name(base: str, n: int) -> str:
    return base if n == 0 else f"{base}[{n}]"


def _budget(entry) -> SearchBudget:
    b = SearchBudget()
    if "depth" in entry:
        b = SearchBudget(max_depth=int(entry["depth"]),
                         max_candidates=b.max_candidates)
    if "max_candidates" in entry:
        b = SearchBudget(max_depth=b.max_depth,
                         max_candidates=int(entry["max_candidates"]))
    return b


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
