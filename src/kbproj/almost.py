"""Quotients of module categories by idempotent ideals, with certificates.

An idempotent two-sided ideal of a finite-dimensional algebra cuts the
module category into the modules it kills and a quotient category.  This
module makes the pieces auditable:

* ``AlmostCase`` is one almost case, checked in full when it is built; the
  three reports below take one and redo only per-sample and window work.
* ``standard_modules`` is the algebra's sample catalogue: its named fixture
  modules, built once and cached on the algebra, with a memo of dim Hom
  between any two of them.
* ``serre_adjoint_report`` checks the adjunction dimension identities that
  characterise the killed modules as a Serre subcategory when the ideal is
  idempotent, and produces an explicit two-step extension witnessing the
  failure of closure when it is not.  It reads dim Hom(M, N) and
  dim Hom(N, M) from the memo; when M.a = 0, M/Ma and ann_M(a) are M
  itself, so no module is built for them and their dims are memoised too.
* ``almost_quotient`` realises the quotient category as modules over the
  case's corner algebra and verifies the corner functor is exact on the
  same samples.
* ``almost_derived_ideal`` builds the mapping cone of the multiplication
  map (ideal tensor ideal -> algebra) as a complex of projectives and
  computes the maps a finite subcategory cannot see through its shifts.
* ``ContractionFixture`` / ``contraction_defects`` re-check explicit
  null-homotopy certificates for matrix complexes over exact rings,
  including Laurent-polynomial rings where no solver is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraError,
    AlgebraPresentation,
    FdModule,
    TwoSidedIdeal,
    hom_dim,
    ideal_from_spanning,
    ideal_generated_by_idempotent,
    projective_module,
    quotient_module,
    radical,
    regular_module,
    submodule,
)
from .functors import FiniteSubcat
from .homcat import AlgMat, ProjComplex, chain_map, cone
from .ideals import HomIdeal, is_idempotent_ideal, kernel_ideal
from .linalg import Mat, Subspace


class AlmostError(ValueError):
    pass


# -- sample modules ------------------------------------------------------------


class SampleModules(dict):
    """Named fixture modules of one algebra: regular, projectives, simple
    quotients (when the radical is defined), zero; and a memo of
    dim Hom(M, N) between any two of them, filled as reports ask."""

    def __init__(self, alg: AlgebraPresentation):
        super().__init__(R=regular_module(alg))
        self["0"] = FdModule(alg, 0, [Mat.zeros(alg.ring, 0, 0)] * alg.dim, name="0")
        projs = [(i, projective_module(alg, [i])) for i in range(alg.n_idempotents())]
        self.update((f"P({alg.idempotent_names[i]})", P) for i, P in projs)
        self._homs: Dict[Tuple[str, str], int] = {}
        try:
            rad = radical(alg)
        except AlgebraError:
            return
        for i, P in projs:
            S, _ = quotient_module(P, P.times_ideal(rad.space))
            S.name = f"S({alg.idempotent_names[i]})"
            self[S.name] = S

    def hom_dim(self, m: str, n: str) -> int:
        """dim Hom(M, N) for the samples named m and n, computed once."""
        if (m, n) not in self._homs:
            self._homs.setdefault((m, n), hom_dim(self[m], self[n]))
        return self._homs[(m, n)]


def standard_modules(alg: AlgebraPresentation) -> SampleModules:
    """The algebra's sample catalogue, built on the first call and then
    cached on the algebra like ``radical``: an error while building it
    propagates and caches nothing, and the catalogue and its modules are
    never changed, so every report on the algebra shares its memo."""
    if "samples" not in alg._built:
        alg._built.setdefault("samples", SampleModules(alg))
    return alg._built["samples"]


def in_perp(M: FdModule, ideal: TwoSidedIdeal) -> bool:
    """True when the ideal annihilates the module."""
    return M.times_ideal(ideal.space).dim == 0


# -- the almost case -------------------------------------------------------------

_PARTS = ("serre", "quotient", "derived")


class AlmostCase:
    """The ideal ReR of an idempotent ``e``, or the closure of ``generators``
    (parsed vectors), and the ``include``d parts to report on, checked here.
    The derived part needs a window ``subcat`` and witnesses: pairs (i, g)
    with g.e_i = g whose maps (r_u) -> sum g_u r_u are bijections onto the
    ideal (``a_witness``) and onto e_j.a for its u-th pair (j, g) (key u of
    ``square_witnesses``).  A case that cannot run raises ``AlmostError``."""

    def __init__(self, alg: AlgebraPresentation, e=None, generators=None, include=("serre",),
                 subcat: Optional[FiniteSubcat] = None, subcat_name=None, a_witness=None,
                 square_witnesses=None):
        if e is None and generators is None:
            raise AlmostError("needs idempotent or generators")
        try:
            self.ideal = (ideal_generated_by_idempotent(alg, e) if e is not None
                          else ideal_from_spanning(alg, generators))
        except AlgebraError as exc:   # an e that is not idempotent
            raise AlmostError(str(exc)) from exc
        if subcat is not None and subcat.alg != alg:
            raise AlmostError(f"subcategory {subcat_name} lives over {subcat.alg.name}, "
                              f"not {alg.name}")
        if not (isinstance(include, (list, tuple)) and all(p in _PARTS for p in include)):
            raise AlmostError(f"include must list parts among {', '.join(_PARTS)}, "
                              f"got {include!r}")
        if "quotient" in include and e is None:
            raise AlmostError("corner presentation needs an idempotent element")
        if "derived" in include and subcat is None:
            raise AlmostError("derived part needs a subcategory window")
        self.algebra, self.include = alg, list(include)
        self.subcat, self.subcat_name = subcat, subcat_name
        self.idempotent_ideal = self.ideal.is_idempotent()
        self.functor = corner_functor(alg, e) if "quotient" in include else None
        # the derived part's columns (i_v, g_u . h_v) of a (x) a -> R, one per
        # summand e_i R of the witnessed tensor square, and that square's dim
        self.mult_columns = self.tensor_square_dim = None
        if "derived" not in include:
            return
        if not self.idempotent_ideal:
            raise AlmostError("the ideal must be idempotent")
        space, columns, tensor_dim = self.ideal.space, [], 0
        for u, (j, g) in enumerate(_validate_projectivity(alg, space, a_witness, "ideal")):
            corner = Subspace.from_spanning(
                alg.ring, alg.dim, [alg.mult(alg.idempotent_vec(j), r) for r in space.rows])
            tensor_dim += corner.dim
            for i, h in _validate_projectivity(alg, corner, (square_witnesses or {}).get(u),
                                               f"ideal corner {u}"):
                columns.append((i, alg.mult(g, h)))
        _check_tensor_dim(alg, self.ideal, tensor_dim)
        self.mult_columns, self.tensor_square_dim = columns, tensor_dim

    def require(self, part: str) -> None:
        if part not in self.include:
            raise AlmostError(f"the case does not include the {part} part")


# -- Serre-subcategory adjunction report ----------------------------------------


@dataclass
class AdjunctionCheck:
    module: str
    perp_module: str
    coreflection_dims: Tuple[int, int]   # dim Hom(M/Ma, N) vs dim Hom(M, N)
    reflection_dims: Tuple[int, int]     # dim Hom(N, ann_M(a)) vs dim Hom(N, M)
    ok: bool


@dataclass
class SerreFailureWitness:
    """A module outside the killed class built from two modules inside it."""

    extension_dim: int
    sub_dim: int
    quotient_dim: int
    sub_killed: bool
    quotient_killed: bool
    extension_killed: bool

    @property
    def exhibits_failure(self) -> bool:
        return (self.sub_killed and self.quotient_killed
                and not self.extension_killed)


@dataclass
class SerreAdjointReport:
    idempotent: bool
    verdict: str                          # certified | refuted | inconclusive
    checks: List[AdjunctionCheck] = field(default_factory=list)
    witness: Optional[SerreFailureWitness] = None


def serre_adjoint_report(case: AlmostCase) -> SerreAdjointReport:
    """Certify the killed-module class is a Serre subcategory, or refute it.

    For an idempotent ideal the modules it kills form a Serre subcategory
    whose inclusion has both adjoints; the report verifies the resulting
    dimension identities on fixture modules.  For a non-idempotent ideal
    the quotient of the algebra by the squared ideal is an extension of
    two killed modules that is not itself killed, refuting closure.
    """
    alg, ideal = case.algebra, case.ideal
    if not case.idempotent_ideal:
        W, proj = quotient_module(regular_module(alg), ideal.square().space)
        imgs = [proj.row_apply(list(r)) for r in ideal.space.rows]
        sub_space = Subspace.from_spanning(alg.ring, W.dim, imgs)
        Sub, _ = submodule(W, sub_space)
        Quo, _ = quotient_module(W, sub_space)
        witness = SerreFailureWitness(
            extension_dim=W.dim, sub_dim=Sub.dim, quotient_dim=Quo.dim,
            sub_killed=in_perp(Sub, ideal), quotient_killed=in_perp(Quo, ideal),
            extension_killed=in_perp(W, ideal))
        verdict = "refuted" if witness.exhibits_failure else "inconclusive"
        return SerreAdjointReport(False, verdict, [], witness)

    samples = standard_modules(alg)
    images = {nm: M.times_ideal(ideal.space) for nm, M in samples.items()}
    perp = [nm for nm, Ma in images.items() if Ma.dim == 0]
    checks: List[AdjunctionCheck] = []
    for mname, M in samples.items():
        # M.a = 0 exactly when ann_M(a) = M: then M/Ma and ann_M(a) are M
        # itself, with M's action matrices, and their dims are memoised
        Mco = Mre = None
        if images[mname].dim:
            Mco, _ = quotient_module(M, images[mname])
            Mre, _ = submodule(M, M.annihilated_by(ideal.space))
        for nname in perp:
            N = samples[nname]
            to_n, from_n = samples.hom_dim(mname, nname), samples.hom_dim(nname, mname)
            co = (to_n if Mco is None else hom_dim(Mco, N), to_n)
            re = (from_n if Mre is None else hom_dim(N, Mre), from_n)
            checks.append(AdjunctionCheck(mname, nname, co, re,
                                          co[0] == co[1] and re[0] == re[1]))
    verdict = "certified" if all(c.ok for c in checks) else "inconclusive"
    return SerreAdjointReport(True, verdict, checks, None)


# -- corner quotient ------------------------------------------------------------


@dataclass
class CornerFunctor:
    """The functor M -> Me onto modules over the corner algebra eRe."""

    algebra: AlgebraPresentation
    e: Tuple
    corner: AlgebraPresentation
    corner_basis: Tuple[Tuple, ...]      # corner basis as elements of R

    def image_space(self, M: FdModule) -> Subspace:
        return Subspace.from_spanning(M.algebra.ring, M.dim, M.action_of(self.e).rows())

    def apply(self, M: FdModule) -> FdModule:
        sp = self.image_space(M)
        ring = M.algebra.ring
        action = []
        for b in self.corner_basis:
            A = M.action_of(b)
            rows = [sp.coords_of(A.row_apply(list(r))) for r in sp.rows]
            action.append(Mat.from_rows(ring, rows, sp.dim))
        # Me is an eRe-module by construction: m·e·b = m·(eb) for b in eRe
        return FdModule._inherited(self.corner, sp.dim, action, name=f"{M.name}e")


@dataclass
class ExactnessCheck:
    sequence: str
    sub_matches_kernel: bool
    dims_additive: bool

    @property
    def ok(self) -> bool:
        return self.sub_matches_kernel and self.dims_additive


@dataclass
class AlmostQuotientReport:
    corner: AlgebraPresentation
    functor: CornerFunctor
    module_dims: Dict[str, int]
    exactness: List[ExactnessCheck]
    verdict: str


def corner_functor(alg: AlgebraPresentation, e: Tuple) -> CornerFunctor:
    """M -> Me onto modules over eRe, for an idempotent e of ``alg``: each
    nonzero e.e_k.e joins the corner's idempotent system, so must be one."""
    ring = alg.ring
    vecs = [alg.mult(alg.mult(e, alg.basis_vec(i)), e) for i in range(alg.dim)]
    sp = Subspace.from_spanning(ring, alg.dim, vecs)
    basis = tuple(tuple(r) for r in sp.rows)
    names = [f"c{u}" for u in range(len(basis))]
    structure = [[list(sp.coords_of(alg.mult(x, y))) for y in basis] for x in basis]
    idems = []
    idem_names = []
    for k in range(alg.n_idempotents()):
        c = alg.mult(alg.mult(e, alg.idempotent_vec(k)), e)
        if not any(c):
            continue
        if alg.mult(c, c) != c:
            raise AlmostError("corner does not inherit the idempotent system; "
                              "supply a presentation")
        idems.append(list(sp.coords_of(c)))
        idem_names.append(alg.idempotent_names[k])
    corner = AlgebraPresentation(ring, names, structure, list(sp.coords_of(e)),
                                 idems, idempotent_names=idem_names,
                                 name=f"corner({alg.name})")
    return CornerFunctor(alg, e, corner, basis)


def almost_quotient(case: AlmostCase) -> AlmostQuotientReport:
    """Present the quotient by the killed modules of ReR as corner modules."""
    case.require("quotient")
    alg, ideal, functor = case.algebra, case.ideal, case.functor
    samples = standard_modules(alg)
    dims = {nm: functor.apply(M).dim for nm, M in samples.items()}
    checks: List[ExactnessCheck] = []
    for nm, M in samples.items():
        rho = M.action_of(functor.e)
        me = functor.image_space(M)
        for tag, space in (("ideal-image", M.times_ideal(ideal.space)),
                           ("ideal-kernel", M.annihilated_by(ideal.space))):
            Quo, _ = quotient_module(M, space)
            sub_e = Subspace.from_spanning(
                alg.ring, M.dim, [rho.row_apply(list(r)) for r in space.rows])
            inter = me.intersect(space)
            quo_e_dim = functor.apply(Quo).dim
            checks.append(ExactnessCheck(
                f"{nm}/{tag}",
                sub_matches_kernel=(sub_e == inter),
                dims_additive=(me.dim - inter.dim == quo_e_dim)))
    verdict = "certified" if all(c.ok for c in checks) else "inconclusive"
    return AlmostQuotientReport(functor.corner, functor, dims, checks, verdict)


# -- the derived ideal of a projective idempotent ideal --------------------------


@dataclass
class AlmostDerivedReport:
    cone: ProjComplex
    ideal: HomIdeal
    idempotent_on_window: bool
    window: Tuple[int, int]
    tensor_square_dim: int
    projective_right: bool
    flatness_note: str
    verdict: str


def _validate_projectivity(alg: AlgebraPresentation, space: Subspace,
                           witness: Optional[Sequence[Tuple[int, Tuple]]],
                           what: str) -> Sequence[Tuple[int, Tuple]]:
    if witness is None:
        raise AlmostError(f"projectivity witness absent for {what}")
    rows = []
    total = 0
    for j, g in witness:
        if type(j) is not int or j not in range(alg.n_idempotents()):
            raise AlmostError(f"{what}: witness index {j!r} is not an idempotent "
                              f"index of {alg.name}")
        if not space.contains(g):
            raise AlmostError(f"{what}: witness element lies outside the module")
        if alg.mult(g, alg.idempotent_vec(j)) != g:
            raise AlmostError(f"{what}: witness element not supported at "
                              f"idempotent {j}")
        sp = alg.right_ideal_space(j)
        for r in sp.rows:
            rows.append(list(alg.mult(g, tuple(r))))
        total += sp.dim
    if total != space.dim:
        raise AlmostError(f"{what}: witness ranks {total} do not match "
                          f"module dimension {space.dim}")
    if Subspace.from_spanning(alg.ring, alg.dim, rows).dim != space.dim:
        raise AlmostError(f"{what}: witness map is not bijective")
    return witness


def almost_derived_ideal(case: AlmostCase, window: Optional[Tuple[int, int]] = None
                         ) -> AlmostDerivedReport:
    """Cone of the multiplication map of an idempotent projective ideal,
    plus the ideal of window maps invisible to all shifts of that cone.

    The shifts C[n], under the keys n, extend the window to one whose
    composition tensors give every xi . f; the window stores the extension.
    """
    case.require("derived")
    alg, subcat, columns = case.algebra, case.subcat, case.mult_columns
    tgt_idems = tuple(range(alg.n_idempotents()))
    src_idems = tuple(i for i, _ in columns)
    # a complex drops an empty degree, so the zero ideal gives the zero complex
    src = ProjComplex(alg, {0: src_idems}, {}, name="sq")
    tgt = ProjComplex(alg, {0: tgt_idems}, {}, name="ring")
    entries = [[alg.mult(alg.idempotent_vec(i), m) for _, m in columns] for i in tgt_idems]
    comp = {0: AlgMat(alg, tgt_idems, src_idems, entries)} if src_idems else {}
    C, _, _ = cone(chain_map(src, tgt, comp, name="mult"))

    shifts = {}
    for bn, Y in subcat.objects.items():
        # the n with Hom(Y, C[n]) possibly nonzero, or the task's window
        lo, hi = (0, -1) if C.is_zero() or Y.is_zero() else window or (C.lo - Y.hi, C.hi - Y.lo)
        shifts[bn] = range(lo, hi + 1)
    used = sorted({n for r in shifts.values() for n in r})
    W = subcat.extended({n: C.shift(n) for n in used})

    def probe(an: str, bn: str) -> Mat:
        # row i gets the classes of xi . f_i for each xi: bn -> C[n] in turn
        rows = [[] for _ in range(subcat.hom(an, bn).dim)]
        for n in shifts[bn]:
            if W.hom(bn, n).dim and W.hom(an, n).dim:
                for row, T in zip(rows, W.composition_tensor(an, bn, n)):
                    row.extend(c for coords in T for c in coords)
        return Mat.from_rows(alg.ring, rows, len(rows[0]))

    # xi . (h . f) = (xi . h) . f, and xi . h: Y -> C[n] is zero or a probe of f
    I = kernel_ideal(subcat, probe)
    note = ("right projectivity of the ideal and its tensor square is "
            "witness-certified; flatness of the square as a left module "
            "is recorded on that basis (left action by algebra elements, "
            "right structure projective)")
    return AlmostDerivedReport(
        cone=C, ideal=I, idempotent_on_window=is_idempotent_ideal(I),
        window=(min([0] + used), max([0] + used)), tensor_square_dim=case.tensor_square_dim,
        projective_right=True, flatness_note=note, verdict="certified")


def _check_tensor_dim(alg: AlgebraPresentation, ideal: TwoSidedIdeal,
                      claimed: int) -> None:
    """Cross-check the witnessed tensor-square dimension by coequalizer."""
    from .algebra import Bimodule, module_tensor

    ring = alg.ring
    rows = ideal.space.rows
    d = ideal.dim
    left, right = [], []
    for t in range(alg.dim):
        b = alg.basis_vec(t)
        lrows = [ideal.space.coords_of(alg.mult(b, r)) for r in rows]
        rrows = [ideal.space.coords_of(alg.mult(r, b)) for r in rows]
        left.append(Mat.from_rows(ring, lrows, d))
        right.append(Mat.from_rows(ring, rrows, d))
    # a two-sided ideal of a checked algebra, acted on by its multiplication
    B = Bimodule._inherited(alg, alg, d, left, right, name="a")
    M = FdModule._inherited(alg, d, right, name="a")
    got = module_tensor(M, B).module.dim
    if got != claimed:
        raise AlmostError(f"tensor square dimension mismatch: witnesses give "
                          f"{claimed}, coequalizer gives {got}")


# -- matrix contraction certificates ---------------------------------------------


class ContractionFixture:
    """A bounded matrix complex over an exact ring with a claimed contraction.

    Maps act on row vectors: a map V -> W is a (dim V x dim W) matrix and
    composition reads left to right.  ``diff[n]`` maps degree n to n+1 and
    ``homotopy[n]`` maps degree n to n-1.  Squaring to zero is checked at
    construction; the contraction identity is checked by
    ``contraction_defects`` only.
    """

    def __init__(self, ring, dims: Dict[int, int], diff: Dict[int, Mat],
                 homotopy: Dict[int, Mat], name: str = "fixture"):
        self.ring = ring
        self.dims = {int(n): int(d) for n, d in dims.items() if d}
        self.diff = dict(diff)
        self.homotopy = dict(homotopy)
        self.name = name
        self._validate()

    def dim_at(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff_at(self, n: int) -> Mat:
        got = self.diff.get(n)
        if got is None:
            return Mat.zeros(self.ring, self.dim_at(n), self.dim_at(n + 1))
        return got

    def homotopy_at(self, n: int) -> Mat:
        got = self.homotopy.get(n)
        if got is None:
            return Mat.zeros(self.ring, self.dim_at(n), self.dim_at(n - 1))
        return got

    def _validate(self):
        for n, m in self.diff.items():
            if m.ring != self.ring:
                raise AlmostError(f"{self.name}: differential at {n} over the "
                                  "wrong ring")
            if m.nrows != self.dim_at(n) or m.ncols != self.dim_at(n + 1):
                raise AlmostError(f"{self.name}: differential at {n} has shape "
                                  f"{m.nrows}x{m.ncols}, expected "
                                  f"{self.dim_at(n)}x{self.dim_at(n + 1)}")
        for n, m in self.homotopy.items():
            if m.ring != self.ring:
                raise AlmostError(f"{self.name}: homotopy at {n} over the "
                                  "wrong ring")
            if m.nrows != self.dim_at(n) or m.ncols != self.dim_at(n - 1):
                raise AlmostError(f"{self.name}: homotopy at {n} has shape "
                                  f"{m.nrows}x{m.ncols}, expected "
                                  f"{self.dim_at(n)}x{self.dim_at(n - 1)}")
        for n in self.dims:
            prod = self.diff_at(n) @ self.diff_at(n + 1)
            if not prod.is_zero():
                raise AlmostError(f"{self.name}: differential does not square "
                                  f"to zero at degree {n}")

    def __repr__(self):
        degs = sorted(self.dims)
        return f"ContractionFixture({self.name}, degrees {degs})"


def contraction_defects(fx: ContractionFixture) -> Dict[int, Mat]:
    """Per-degree difference between h-then-d plus d-then-h and the identity."""
    out = {}
    for n in sorted(fx.dims):
        d = fx.dim_at(n)
        got = (fx.homotopy_at(n) @ fx.diff_at(n - 1)
               + fx.diff_at(n) @ fx.homotopy_at(n + 1))
        defect = got - Mat.identity(fx.ring, d)
        if not defect.is_zero():
            out[n] = defect
    return out


def perturb_homotopy(fx: ContractionFixture, degree: int, row: int, col: int,
                     delta=None) -> ContractionFixture:
    """Copy the fixture with one homotopy entry shifted (default by one)."""
    ring = fx.ring
    delta = ring.one if delta is None else ring.parse(delta)
    h = {n: m for n, m in fx.homotopy.items()}
    base = fx.homotopy_at(degree)
    rows = base.rows()
    rows[row][col] = ring.add(rows[row][col], delta)
    h[degree] = Mat.from_rows(ring, rows, base.ncols)
    return ContractionFixture(ring, fx.dims, fx.diff, h,
                              name=f"{fx.name}~({degree},{row},{col})")
