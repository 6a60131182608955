"""Minimal projective resolutions, Tor, and ring-map epimorphism certificates.

A ring map R -> S is certified here when the multiplication map
S (x)_R S -> S is bijective and Tor_i^R(S, S) vanishes for every i >= 1.
Vanishing for all i is established exactly when the minimal resolution
terminates; otherwise the verdict is only conclusive up to the degree that
was actually checked, and says so.

Every term of a resolution is a sum of right ideals e_j R, and
e_j R (x)_R B = e_j B, so Tor is the homology of blocks e_j B under B's left
action, with no coequalizer.  The entries of each differential, the algebra
elements that act between those blocks, are read off the generators its
minimal cover picked, with no matrix of algebra elements built.  Tor_0 is
the cokernel of the first map, and is compared with the one coequalizer
built, the S (x)_R S of the multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from .algebra import (
    AlgebraError,
    Bimodule,
    FdModule,
    RingMap,
    TensorResult,
    induction_bimodule,
    module_along_map,
    module_tensor,
    presentation_matrix,
    projective_module,
    projective_radical,
    radical,
)
from .homcat import AlgMat, ProjComplex
from .linalg import Mat, Subspace, left_kernel, rank


class DerivedError(ValueError):
    """Resolution or Tor computation failed an exactness self-check."""


def minimal_generators(M: FdModule, space: Subspace, radsp: Subspace) -> List[Tuple[int, List]]:
    """Idempotent-weighted generators of the submodule ``space`` of M lifting
    a basis of space / space.rad, which is spanned by the rows of ``space``
    times those of ``radsp``.

    Returns pairs (idempotent index, element of M); the elements project to
    a basis of the top and each is a row of ``space`` times e_j.
    """
    alg, rows = M.algebra, space.rows
    mrad = Subspace.from_spanning(alg.ring, M.dim, [A.row_apply(r) for A in
                                                    map(M.action_of, radsp.rows) for r in rows])
    chosen: List[Tuple[int, List]] = []
    spanned = mrad
    for j in range(alg.n_idempotents()):
        E = M.action_of(alg.idempotent_vec(j))
        for v in map(E.row_apply, rows):
            if spanned.contains(v):
                continue
            chosen.append((j, v))
            spanned = spanned.span_with([v])
    if len(chosen) != space.dim - mrad.dim:
        raise DerivedError("generator count does not match the top dimension")
    return chosen


def projective_cover(M: FdModule, space: Subspace, radsp: Subspace):
    """Minimal cover P -> space of the submodule ``space`` of M.  Returns
    (generators, P module, cover Mat, kernel of the cover as a subspace of P).

    The generators are the pairs (j, g) of ``minimal_generators``; P is the
    sum of the e_j R.  The cover matrix is in row convention (P.dim x M.dim),
    in M's own coordinates.  Surjectivity onto ``space`` (the rank, read off
    the one kernel) and minimality (kernel inside P.rad, cached with P) are
    verified, not assumed.
    """
    alg = M.algebra
    gens = minimal_generators(M, space, radsp)
    idxs = [j for j, _ in gens]
    cover = presentation_matrix(alg, gens, M.act, M.dim)
    ker = left_kernel(cover)
    if cover.nrows - ker.dim != space.dim:
        raise DerivedError("cover is not surjective")
    if not ker.is_subspace_of(projective_radical(alg, idxs)):
        raise DerivedError("cover is not minimal: kernel escapes the radical")
    return gens, projective_module(alg, idxs), cover, ker


@dataclass
class Resolution:
    """Minimal projective resolution data, exact by construction and re-checked.

    ``generators[i - 1]`` holds the pairs (j, g) that cover P_i: g lies in
    P_{i-1} with g = g.e_j, and d_i sends the generator e_j of its summand
    e_j R to g, so d_i is read off them (``differential_entries``).
    """

    module: FdModule
    summands: List[List[int]] = field(default_factory=list)   # summands[i] for P_i
    maps: List[Mat] = field(default_factory=list)             # maps[i-1]: P_i -> P_{i-1}
    generators: List[List[Tuple[int, List]]] = field(default_factory=list)  # cover maps[i-1]
    aug: Optional[Mat] = None                                 # P_0 -> M
    complete: bool = False

    @property
    def algebra(self):
        return self.module.algebra

    def length(self) -> int:
        return len(self.summands) - 1

    def differential_entries(self, i: int) -> Dict[Tuple[int, int], Tuple]:
        """The nonzero entries {(t, c): a} of P_i -> P_{i-1} as left
        multiplications: a is the block of generator c in summand t of P_{i-1},
        written in R, and lies in e_{s_t} R e_{j_c} because g_c = g_c.e_{j_c}."""
        if not (1 <= i <= self.length()):
            raise DerivedError("no differential at that index")
        alg = self.algebra
        spaces = [alg.right_ideal_space(s) for s in self.summands[i - 1]]
        offs = [0, *accumulate(sp.dim for sp in spaces)]
        ents = {}
        for c, (_, g) in enumerate(self.generators[i - 1]):
            for t, sp in enumerate(spaces):
                block = g[offs[t]:offs[t + 1]]
                if any(block):
                    ents[(t, c)] = alg.combine((cf, b) for cf, b in zip(block, sp.rows) if cf)
        return ents

    def differential_algmat(self, i: int) -> AlgMat:
        """The map P_i -> P_{i-1} as a matrix of algebra elements, built from
        ``differential_entries`` through the checking constructor."""
        return AlgMat(self.algebra, self.summands[i - 1], self.summands[i],
                      self.differential_entries(i))

    def as_complex(self, name: str = "res") -> ProjComplex:
        """P_i placed in degree -i; only sensible when the resolution is complete."""
        summands = {-i: tuple(s) for i, s in enumerate(self.summands) if s}
        diff = {}
        for i in range(1, len(self.summands)):
            if self.summands[i] and self.summands[i - 1]:
                diff[-i] = self.differential_algmat(i)
        return ProjComplex(self.algebra, summands, diff, name=name)


def proj_resolution(M: FdModule, max_len: int) -> Resolution:
    """Minimal resolution of length at most max_len (stops early at kernel zero).
    Each syzygy is covered where it lies, as a subspace of the last P_i, so
    the cover is the differential and no syzygy is built as a module."""
    radsp = radical(M.algebra).space
    res = Resolution(module=M)
    gens, P, res.aug, ker = projective_cover(M, Subspace.full(M.algebra.ring, M.dim), radsp)
    res.summands.append([j for j, _ in gens])
    for _ in range(max_len):
        if ker.dim == 0:
            break
        gens, P, cover, ker = projective_cover(P, ker, radsp)
        res.summands.append([j for j, _ in gens])
        res.generators.append(gens)
        res.maps.append(cover)
    res.complete = ker.dim == 0
    _verify_resolution(res)
    return res


def _verify_resolution(res: Resolution):
    mats = [res.aug, *res.maps]
    for i in range(1, len(mats)):
        if not (mats[i] @ mats[i - 1]).is_zero():
            raise DerivedError("resolution fails d . aug = 0" if i == 1 else
                               "resolution fails d . d = 0")
    # exactness: rank d_{i+1} equals nullity of d_i (and of aug at the end)
    ranks = [rank(m) for m in mats]
    for i in range(1, len(mats)):
        if ranks[i] != mats[i - 1].nrows - ranks[i - 1]:
            raise DerivedError("resolution is not exact")
    if res.complete and ranks[-1] != mats[-1].nrows:
        raise DerivedError("last differential of a complete resolution must be injective"
                           if res.maps else
                           "length-zero complete resolution must be an isomorphism onto")


def _tensored_differential(res: Resolution, B: Bimodule, i: int) -> Mat:
    """d_i (x) B, with one block B per summand: an entry a in e_t R e_s, read
    off the cover's generators by ``Resolution.differential_entries``,
    becomes B's left action b -> a.b, from the block of its column summand
    to that of its row.  Since a.b = a.(e_s b), a block's image is that of
    e_s B, inside e_t B, so the ranks are those of the tensored complex."""
    n = B.dim
    items = {}
    for (r, c), a in res.differential_entries(i).items():
        for u, v, x in B.left_of(a).items():
            items[(c * n + u, r * n + v)] = x
    return Mat.from_entries(B.left_alg.ring, len(res.summands[i]) * n,
                            len(res.summands[i - 1]) * n, items)


@dataclass
class TorReport:
    """Tor dimensions of (M, B) against a minimal resolution of M."""

    dims: Dict[int, int]
    complete: bool
    checked_up_to: int


def tor_with_bimodule(M: FdModule, B: Bimodule, i_max: int) -> TorReport:
    """Tor_i(M, B) for i <= i_max, from a resolution of length at most i_max + 1.

    Tor_i is the homology of the resolution tensored with B: the blocks e_j B,
    one per summand e_j R, and the differentials of ``_tensored_differential``.
    Tor_0 is the cokernel of the first map; ``check_homological_epi`` checks
    it against the coequalizer of S (x)_R S.  A complete resolution of length
    L has Tor zero above L, so every degree up to L is computed; a nonzero
    degree above ``i_max`` is listed too, and ``checked_up_to`` reaches it.
    """
    if M.algebra != B.left_alg:
        raise AlgebraError("module/bimodule sides do not match for tensor")
    res = proj_resolution(M, i_max + 1)
    L = res.length()
    # dim (P_i (x)_R B) = sum of dim e_j B over the summands e_j R of P_i
    edims = {j: B.left_space_of_idempotent(j).dim for j in set().union(*res.summands)}
    tdims = [sum(edims[j] for j in s) for s in res.summands]
    tmaps = [_tensored_differential(res, B, i) for i in range(1, L + 1)]
    for i in range(1, len(tmaps)):
        if not (tmaps[i] @ tmaps[i - 1]).is_zero():
            raise DerivedError("tensored resolution lost d . d = 0")
    ranks = [rank(t) for t in tmaps]      # ranks[i]: degree i + 1 -> degree i
    # degree zero is the cokernel of the first map, at any length reached
    dims: Dict[int, int] = {0: tdims[0] - ranks[0] if L else tdims[0]}
    # an incomplete resolution has length i_max + 1, whose top degree lacks
    # its incoming map
    for i in range(1, i_max + 2 if res.complete else i_max + 1):
        ker = tdims[i] - ranks[i - 1] if i <= L else 0
        dims[i] = ker - (ranks[i] if i < L else 0)
        if dims[i] < 0:
            raise DerivedError("negative homology dimension: tensored complex inconsistent")
    if dims.get(i_max + 1) == 0:
        del dims[i_max + 1]
    return TorReport(dims=dims, complete=res.complete, checked_up_to=max(dims))


@dataclass
class HepiVerdict:
    """Outcome of the epimorphism certificate for a ring map R -> S."""

    verdict: str                    # "certified" | "refuted" | "inconclusive"
    reason: str
    tensor_square_dim: int
    target_dim: int
    mu_is_iso: bool
    tor: Dict[int, int]
    checked_up_to: int
    resolution_complete: bool


def multiplication_matrix(g: RingMap, T: TensorResult) -> Mat:
    """S (x)_R S -> S on coequalizer coordinates, via the product of S."""
    S = g.target
    d = S.dim
    # a representative is sum_i b_i (x) y_i, y_i its i-th block of d coordinates
    rows = [reduce(S.add_vec, (S.mult(S.basis_vec(i), rep[i * d:(i + 1) * d]) for i in range(d)))
            for rep in T.reps]
    return Mat.from_rows(S.ring, rows, d)


def check_homological_epi(g: RingMap, i_max: int = 20) -> HepiVerdict:
    """Certify, refute, or give up (with the bound reached) on R -> S."""
    S = g.target
    M = module_along_map(g)
    B = induction_bimodule(g)
    T = module_tensor(M, B)
    mu = multiplication_matrix(g, T)
    mu_rank = rank(mu)
    mu_is_iso = T.module.dim == S.dim == mu_rank
    if not mu_is_iso:
        tor = TorReport(dims={}, complete=False, checked_up_to=-1)     # not computed
        verdict = "refuted"
        reason = (f"multiplication S(x)S -> S is not bijective: "
                  f"dim {T.module.dim} vs {S.dim}, rank {mu_rank}")
    else:
        tor = tor_with_bimodule(M, B, i_max)
        if tor.dims.get(0) != S.dim:
            raise DerivedError("degree-zero homology disagrees with the tensor square")
        bad = next((i for i in sorted(tor.dims) if i >= 1 and tor.dims[i] != 0), None)
        if bad is not None:
            verdict, reason = "refuted", f"Tor_{bad}(S, S) has dimension {tor.dims[bad]}"
        elif tor.complete:
            verdict = "certified"
            reason = "multiplication is bijective and all Tor groups vanish (finite resolution)"
        else:
            verdict = "inconclusive"
            reason = (f"Tor vanishes up to degree {tor.checked_up_to} but the "
                      f"resolution did not terminate")
    return HepiVerdict(verdict, reason, tensor_square_dim=T.module.dim, target_dim=S.dim,
                       mu_is_iso=mu_is_iso, tor=tor.dims, checked_up_to=tor.checked_up_to,
                       resolution_complete=tor.complete)
