"""Minimal projective resolutions, Tor, and ring-map epimorphism certificates.

A ring map R -> S is certified here when the multiplication map
S (x)_R S -> S is bijective and Tor_i^R(S, S) vanishes for every i >= 1.
Vanishing for all i is established exactly when the minimal resolution
terminates; otherwise the verdict is only conclusive up to the degree that
was actually checked, and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .algebra import (
    Bimodule,
    FdModule,
    RingMap,
    TensorResult,
    induction_bimodule,
    module_along_map,
    module_tensor,
    projective_module,
    radical,
    submodule,
)
from .homcat import AlgMat, ProjComplex
from .linalg import Mat, Subspace, rank, solve_left


class DerivedError(ValueError):
    """Resolution or Tor computation failed an exactness self-check."""


def minimal_generators(M: FdModule, radsp: Subspace) -> List[Tuple[int, List]]:
    """Idempotent-weighted generators lifting a basis of M / M.rad.

    Returns pairs (idempotent index, element of M); the elements project to
    a basis of the top and each lies in the corresponding weight space.
    """
    alg = M.algebra
    ring = alg.ring
    mrad = M.times_ideal(radsp)
    chosen: List[Tuple[int, List]] = []
    spanned = mrad
    for j in range(alg.n_idempotents()):
        for v in M.action_of(alg.idempotent_vec(j)).rows():
            if spanned.contains(v):
                continue
            chosen.append((j, v))
            spanned = spanned.sum_with(Subspace.from_spanning(ring, M.dim, [v]))
    top_dim = M.dim - mrad.dim
    if len(chosen) != top_dim:
        raise DerivedError("generator count does not match the top dimension")
    return chosen


def projective_cover(M: FdModule, radsp: Subspace):
    """Minimal cover P -> M.  Returns (summand indices, P module, cover Mat).

    The cover matrix is in row convention (P.dim x M.dim).  Surjectivity and
    minimality (kernel inside P.rad) are verified, not assumed.
    """
    alg = M.algebra
    gens = minimal_generators(M, radsp)
    idxs = [j for j, _ in gens]
    P = projective_module(alg, idxs)
    rows = []
    for j, g in gens:
        for x in alg.right_ideal_space(j).rows:
            rows.append(M.act(g, list(x)))
    cover = Mat.from_rows(alg.ring, rows, M.dim)
    if rank(cover) != M.dim:
        raise DerivedError("cover is not surjective")
    _, ker = solve_left(cover, Mat.zeros(alg.ring, 1, M.dim)) if P.dim else (None, Subspace.zero(alg.ring, 0))
    if not ker.is_subspace_of(P.times_ideal(radsp)):
        raise DerivedError("cover is not minimal: kernel escapes the radical")
    return idxs, P, cover, ker


@dataclass
class Resolution:
    """Minimal projective resolution data, exact by construction and re-checked."""

    module: FdModule
    summands: List[List[int]] = field(default_factory=list)   # summands[i] for P_i
    maps: List[Mat] = field(default_factory=list)             # maps[i-1]: P_i -> P_{i-1}
    aug: Optional[Mat] = None                                 # P_0 -> M
    complete: bool = False

    @property
    def algebra(self):
        return self.module.algebra

    def length(self) -> int:
        return len(self.summands) - 1

    def proj(self, i: int) -> FdModule:
        return projective_module(self.algebra, self.summands[i])

    def differential_algmat(self, i: int) -> AlgMat:
        """The map P_i -> P_{i-1} as a matrix of algebra elements."""
        if not (1 <= i <= self.length()):
            raise DerivedError("no differential at that index")
        return linear_to_algmat(self.algebra, self.summands[i - 1], self.summands[i],
                                self.maps[i - 1])

    def as_complex(self, name: str = "res") -> ProjComplex:
        """P_i placed in degree -i; only sensible when the resolution is complete."""
        summands = {-i: tuple(s) for i, s in enumerate(self.summands) if s}
        diff = {}
        for i in range(1, len(self.summands)):
            if self.summands[i] and self.summands[i - 1]:
                diff[-i] = self.differential_algmat(i)
        return ProjComplex(self.algebra, summands, diff, name=name)


def linear_to_algmat(alg, target_idems, source_idems, linmap: Mat) -> AlgMat:
    """Rewrite a linear map of projective sums as left multiplications.

    Determined by the images of the idempotent generators; round-trip
    equality with the input is re-checked.
    """
    ring = alg.ring
    tgt_spaces = [alg.right_ideal_space(i) for i in target_idems]
    src_spaces = [alg.right_ideal_space(j) for j in source_idems]
    ents = []
    offs_t = []
    off = 0
    for sp in tgt_spaces:
        offs_t.append(off)
        off += sp.dim
    rows_by_src = []
    off = 0
    for j, sp in zip(source_idems, src_spaces):
        gen_coords = sp.coords_of(alg.idempotent_vec(j))
        full = [ring.zero] * linmap.nrows
        for t, c in enumerate(gen_coords):
            full[off + t] = c
        rows_by_src.append(linmap.row_apply(full))
        off += sp.dim
    for r, (i, tsp) in enumerate(zip(target_idems, tgt_spaces)):
        row = []
        for c, j in enumerate(source_idems):
            img = rows_by_src[c][offs_t[r]:offs_t[r] + tsp.dim]
            vec = [ring.zero] * alg.dim
            for t, cf in enumerate(img):
                if cf:
                    for u, b in enumerate(tsp.rows[t]):
                        vec[u] = ring.add(vec[u], ring.mul(cf, b))
            row.append(alg.mult(tuple(vec), alg.idempotent_vec(j)))
        ents.append(row)
    out = AlgMat(alg, tuple(target_idems), tuple(source_idems), ents)
    if out.linearize() != linmap:
        raise DerivedError("left-multiplication form does not reproduce the map")
    return out


def proj_resolution(M: FdModule, max_len: int) -> Resolution:
    """Minimal resolution of length at most max_len (stops early at kernel zero)."""
    alg = M.algebra
    radsp = radical(alg).space
    res = Resolution(module=M)
    idxs, P, cover, ker = projective_cover(M, radsp)
    res.summands.append(list(idxs))
    res.aug = cover
    cur_P, cur_ker = P, ker
    for _ in range(max_len):
        if cur_ker.dim == 0:
            res.complete = True
            break
        K, incl = submodule(cur_P, cur_ker)
        idxs, P_next, cover_next, ker_next = projective_cover(K, radsp)
        res.summands.append(list(idxs))
        res.maps.append(cover_next @ incl)
        cur_P, cur_ker = P_next, ker_next
    else:
        res.complete = cur_ker.dim == 0
    _verify_resolution(res)
    return res


def _verify_resolution(res: Resolution):
    if res.maps:
        if not (res.maps[0] @ res.aug).is_zero():
            raise DerivedError("resolution fails d . aug = 0")
    for i in range(1, len(res.maps)):
        if not (res.maps[i] @ res.maps[i - 1]).is_zero():
            raise DerivedError("resolution fails d . d = 0")
    # exactness: rank d_{i+1} equals nullity of d_i (and of aug at the end)
    prev = res.aug
    for i, m in enumerate(res.maps):
        nullity = prev.nrows - rank(prev)
        if rank(m) != nullity:
            raise DerivedError("resolution is not exact")
        prev = m
    if res.complete and res.maps:
        if rank(res.maps[-1]) != res.maps[-1].nrows:
            raise DerivedError("last differential of a complete resolution must be injective")
    if res.complete and not res.maps:
        if rank(res.aug) != res.aug.nrows:
            raise DerivedError("length-zero complete resolution must be an isomorphism onto")


def tensor_functor_map(phi: Mat, src: TensorResult, tgt: TensorResult, B: Bimodule) -> Mat:
    """Map induced on coequalizers by a module map phi (tensor identity on B)."""
    ring = B.left_alg.ring
    bdim = B.dim
    rows = []
    for rep in src.reps:
        out = [ring.zero] * (phi.ncols * bdim)
        for pos, c in enumerate(rep):
            if not c:
                continue
            u, j = divmod(pos, bdim)
            for v in range(phi.ncols):
                w = phi.entry(u, v)
                if w:
                    out[v * bdim + j] = ring.add(out[v * bdim + j], ring.mul(c, w))
        rows.append(tgt.relations.quotient_coords(out))
    return Mat.from_rows(ring, rows, tgt.module.dim)


@dataclass
class TorReport:
    """Tor dimensions of (M, B) against a minimal resolution of M."""

    dims: Dict[int, int]
    complete: bool
    checked_up_to: int
    tensor_dims: List[int]


def tor_with_bimodule(M: FdModule, B: Bimodule, i_max: int,
                      max_len: Optional[int] = None) -> TorReport:
    res = proj_resolution(M, max_len if max_len is not None else i_max + 1)
    tens = [module_tensor(res.proj(i), B) for i in range(len(res.summands))]
    tmaps = [tensor_functor_map(res.maps[i], tens[i + 1], tens[i], B)
             for i in range(len(res.maps))]
    for i in range(1, len(tmaps)):
        if not (tmaps[i] @ tmaps[i - 1]).is_zero():
            raise DerivedError("tensored resolution lost d . d = 0")
    dims: Dict[int, int] = {}
    L = len(res.summands) - 1
    if res.complete:
        top = i_max
    else:
        top = min(i_max, L - 1) if L >= 1 else 0
    # degree zero never depends on how far the resolution got
    t0_direct = module_tensor(M, B).module.dim
    if L >= 1:
        if tens[0].module.dim - rank(tmaps[0]) != t0_direct:
            raise DerivedError("tensoring broke right exactness")
    dims[0] = t0_direct
    for i in range(1, top + 1):
        qi = tens[i].module.dim if i <= L else 0
        rank_in = rank(tmaps[i]) if i + 1 <= L else 0
        if i <= L:
            ker = qi - rank(tmaps[i - 1])
        else:
            ker = 0
        dims[i] = ker - rank_in
        if dims[i] < 0:
            raise DerivedError("negative homology dimension: tensored complex inconsistent")
    return TorReport(dims=dims, complete=res.complete, checked_up_to=top,
                     tensor_dims=[t.module.dim for t in tens])


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
    ring = S.ring
    rows = []
    for rep in T.reps:
        rows.append(S.combine((c, S.structure[pos // S.dim][pos % S.dim])
                              for pos, c in enumerate(rep) if c))
    return Mat.from_rows(ring, rows, S.dim)


def check_homological_epi(g: RingMap, i_max: int = 20,
                          max_len: Optional[int] = None) -> HepiVerdict:
    """Certify, refute, or give up (with the bound reached) on R -> S."""
    S = g.target
    M = module_along_map(g)
    B = induction_bimodule(g)
    T = module_tensor(M, B)
    mu = multiplication_matrix(g, T)
    mu_iso = (T.module.dim == S.dim) and rank(mu) == S.dim
    if not mu_iso:
        return HepiVerdict(
            verdict="refuted",
            reason=(f"multiplication S(x)S -> S is not bijective: "
                    f"dim {T.module.dim} vs {S.dim}, rank {rank(mu)}"),
            tensor_square_dim=T.module.dim, target_dim=S.dim, mu_is_iso=False,
            tor={}, checked_up_to=-1, resolution_complete=False,
        )
    tor = tor_with_bimodule(M, B, i_max, max_len=max_len)
    if tor.dims.get(0) != S.dim:
        raise DerivedError("degree-zero homology disagrees with the tensor square")
    for i in sorted(tor.dims):
        if i >= 1 and tor.dims[i] != 0:
            return HepiVerdict(
                verdict="refuted",
                reason=f"Tor_{i}(S, S) has dimension {tor.dims[i]}",
                tensor_square_dim=T.module.dim, target_dim=S.dim, mu_is_iso=True,
                tor=tor.dims, checked_up_to=tor.checked_up_to,
                resolution_complete=tor.complete,
            )
    if tor.complete:
        return HepiVerdict(
            verdict="certified",
            reason="multiplication is bijective and all Tor groups vanish "
                   "(finite resolution)",
            tensor_square_dim=T.module.dim, target_dim=S.dim, mu_is_iso=True,
            tor=tor.dims, checked_up_to=tor.checked_up_to, resolution_complete=True,
        )
    return HepiVerdict(
        verdict="inconclusive",
        reason=f"Tor vanishes up to degree {tor.checked_up_to} but the "
               f"resolution did not terminate",
        tensor_square_dim=T.module.dim, target_dim=S.dim, mu_is_iso=True,
        tor=tor.dims, checked_up_to=tor.checked_up_to, resolution_complete=False,
    )
