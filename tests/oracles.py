"""Independent test oracles.

Everything here deliberately avoids the production code paths it is used to
check: plain-list row reduction, exhaustive small-field enumeration, the
normalized bar complex for Tor.  Oracles are slow and simple on purpose.
"""

from fractions import Fraction
from itertools import product


def plain_rank(rows, p=None):
    """Rank by forward elimination on plain lists.  p=None means rationals."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            val = rows[i][c] % p if p is not None else rows[i][c]
            if val != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            if p is None:
                if rows[rk][c] == 0:
                    continue
                f = Fraction(rows[i][c], 1) / Fraction(rows[rk][c], 1)
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
            else:
                f = (rows[i][c] * pow(rows[rk][c], p - 2, p)) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk


def span_members(p, vectors, ambient):
    """All members of the GF(p)-span of the given vectors, as a set of tuples."""
    vecs = [tuple(v) for v in vectors]
    out = {tuple([0] * ambient)}
    for coeffs in product(range(p), repeat=len(vecs)):
        w = [0] * ambient
        for c, v in zip(coeffs, vecs):
            for i in range(ambient):
                w[i] = (w[i] + c * v[i]) % p
        out.add(tuple(w))
    return out


def dim_from_count(p, count):
    d = 0
    n = 1
    while n < count:
        n *= p
        d += 1
    assert n == count, "member count is not a power of p"
    return d


def all_subspaces_gf(p, ambient):
    """Every subspace of GF(p)^ambient, as a list of RREF row tuples.

    Enumerates reduced echelon forms directly: pick pivot columns, then fill
    the free entries (right of each pivot, off the pivot columns) in all ways.
    """
    from itertools import combinations

    out = [tuple()]
    for k in range(1, ambient + 1):
        for pivots in combinations(range(ambient), k):
            free = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, ambient)
                if j not in pivots
            ]
            for filling in product(range(p), repeat=len(free)):
                rows = [[0] * ambient for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free, filling):
                    rows[i][j] = v
                out.append(tuple(tuple(r) for r in rows))
    return out


def gf_set_closure(p, vectors, ambient):
    """Closure of a set of GF(p) vectors under addition and scaling, as a set.

    Feasible only when the spanned subspace is small; used on ambients where
    the whole space has at most a few hundred points.
    """
    cur = {tuple([0] * ambient)}
    cur.update(tuple(c % p for c in v) for v in vectors)
    while True:
        new = set(cur)
        for a in cur:
            for b in cur:
                new.add(tuple((x + y) % p for x, y in zip(a, b)))
        for a in cur:
            for s in range(2, p):
                new.add(tuple((s * x) % p for x in a))
        if new == cur:
            return cur
        cur = new


def structure_mult(structure, x, y, p=None):
    """Multiply coefficient vectors with a structure-constant table.

    p=None works over the rationals; otherwise everything is reduced mod p.
    """
    dim = len(structure)
    out = [0 if p is not None else Fraction(0)] * dim
    for i in range(dim):
        if x[i] == 0:
            continue
        for j in range(dim):
            if y[j] == 0:
                continue
            coeff = x[i] * y[j]
            for l in range(dim):
                out[l] += coeff * structure[i][j][l]
    if p is not None:
        out = [c % p for c in out]
    return out


def coequalizer_dim(m_dim, b_dim, r_dim, m_action, left_action):
    """dim(M tensor_R B) by brute-force relation span over QQ.

    m_action[r]: m_dim x m_dim rational matrix (row convention, m.b_r = m @ A).
    left_action[r]: b_dim x b_dim rational matrix (b_r . v = v @ L).
    """
    amb = m_dim * b_dim
    rels = []
    for i in range(m_dim):
        for r in range(r_dim):
            for j in range(b_dim):
                vec = [Fraction(0)] * amb
                # (m_i . b_r) tensor B_j
                for u in range(m_dim):
                    vec[u * b_dim + j] += m_action[r][i][u]
                # minus m_i tensor (b_r . B_j)
                for v in range(b_dim):
                    vec[i * b_dim + v] -= left_action[r][j][v]
                rels.append(vec)
    return amb - plain_rank(rels)


def bar_tor_dims(structure, unit, m_dim, m_action, n_dim, n_left_action, i_max):
    """Tor_i dimensions via the normalized bar complex M (x) Rbar^i (x) N over QQ.

    structure: rational structure constants c[i][j] = coeff list.
    unit: coefficient vector of 1 in R.
    m_action[r]: right action matrices on M (row convention).
    n_left_action[r]: matrices with (b_r . n) = n @ L_r (row convention).

    Rbar is realized as a complement of span{unit}: products are computed in R
    and then projected along the unit coordinate.
    """
    dim = len(structure)

    # choose complement of span{unit}: unit has some nonzero coord u0
    u0 = next(i for i, c in enumerate(unit) if c != 0)
    comp_idx = [i for i in range(dim) if i != u0]
    cdim = len(comp_idx)

    def project(vec):
        """Split vec = t*unit + c with c supported off u0; return (t, c-coords)."""
        t = Fraction(vec[u0]) / Fraction(unit[u0])
        resid = [vec[i] - t * unit[i] for i in range(dim)]
        assert resid[u0] == 0
        return t, [resid[i] for i in comp_idx]

    def embed(ccoords):
        vec = [Fraction(0)] * dim
        for pos, i in enumerate(comp_idx):
            vec[i] = ccoords[pos]
        return vec

    def chain_dim(n):
        return m_dim * (cdim ** n) * n_dim

    def idx(n, mi, es, nj):
        v = mi
        for e in es:
            v = v * cdim + e
        return v * n_dim + nj

    def boundary(n):
        """Matrix of d_n: C_n -> C_{n-1}, rows = images of basis (row conv)."""
        rows = []
        for mi in range(m_dim):
            for es in product(range(cdim), repeat=n):
                for nj in range(n_dim):
                    out = [Fraction(0)] * chain_dim(n - 1)
                    # face 0: (m . r1) (x) r2 ... (x) nj
                    r1 = embed([Fraction(1) if k == es[0] else Fraction(0) for k in range(cdim)])
                    for r in range(dim):
                        if r1[r] == 0:
                            continue
                        for u in range(m_dim):
                            c = r1[r] * m_action[r][mi][u]
                            if c:
                                out[idx(n - 1, u, es[1:], nj)] += c
                    # middle faces: multiply adjacent bars, project off unit
                    sign = -1
                    for t in range(n - 1):
                        a = embed([Fraction(1) if k == es[t] else Fraction(0) for k in range(cdim)])
                        b = embed([Fraction(1) if k == es[t + 1] else Fraction(0) for k in range(cdim)])
                        prod = structure_mult(structure, a, b)
                        _, cc = project(prod)
                        for pos, c in enumerate(cc):
                            if c:
                                new_es = es[:t] + (pos,) + es[t + 2:]
                                out[idx(n - 1, mi, new_es, nj)] += sign * c
                        sign = -sign
                    # last face: rn acts on N from the left
                    rn = embed([Fraction(1) if k == es[-1] else Fraction(0) for k in range(cdim)])
                    for r in range(dim):
                        if rn[r] == 0:
                            continue
                        for v in range(n_dim):
                            c = rn[r] * n_left_action[r][nj][v]
                            if c:
                                out[idx(n - 1, mi, es[:-1], v)] += sign * c
                    rows.append(out)
        return rows

    # d_n for n = 1..i_max+1; Tor_i = dim ker d_i - rank d_{i+1}
    ds = {n: boundary(n) for n in range(1, i_max + 2)}
    ranks = {n: plain_rank(ds[n]) for n in ds}
    # sanity: d_{n-1} d_n = 0 checked by composing via matrix product for small n
    dims = []
    for i in range(i_max + 1):
        if i == 0:
            dims.append(chain_dim(0) - ranks[1])
        else:
            ker = chain_dim(i) - ranks[i]
            dims.append(ker - ranks[i + 1])
    return dims


def plain_nullspace(rows, ncols, p=None):
    """Basis of {u : row . u = 0 for every row}, u a column of length ncols."""
    work = [list(r) for r in rows]
    pivots = []
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(work)):
            val = work[i][c] % p if p is not None else work[i][c]
            if val != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        if p is None:
            inv = Fraction(1) / Fraction(work[rk][c])
            work[rk] = [inv * x for x in work[rk]]
        else:
            inv = pow(work[rk][c], p - 2, p)
            work[rk] = [(inv * x) % p for x in work[rk]]
        for i in range(len(work)):
            if i == rk:
                continue
            f = work[i][c] % p if p is not None else work[i][c]
            if f != 0:
                if p is None:
                    work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
                else:
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rk])]
        pivots.append(c)
        rk += 1
    basis = []
    pivset = set(pivots)
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0) if p is None else 0] * ncols
        v[free] = Fraction(1) if p is None else 1
        for t, c in enumerate(pivots):
            val = -work[t][free]
            v[c] = val % p if p is not None else val
        basis.append(v)
    return basis


def plain_homotopy_hom_dim(x_dims, x_diffs, x_actions, y_dims, y_diffs, y_actions):
    """dim of chain maps modulo homotopy between complexes of modules, over QQ.

    Degrees are list positions (both complexes aligned to the same window).
    x_diffs[i]: x_dims[i] x x_dims[i+1] matrix of the degree-raising map in
    row convention, or [] when either side is zero.  x_actions[i][r]: square
    action matrix of the r-th algebra basis element on the degree-i module.
    Chain maps are module maps F^i with D_X^i F^{i+1} = F^i D_Y^i; homotopies
    are module maps H^i into degree i-1 with delta(H)^i = D_X^i H^{i+1}
    + H^i D_Y^{i-1}.
    """
    L = len(x_dims)
    nalg = len(x_actions[0]) if x_dims and x_actions else len(y_actions[0])

    f_off = []
    total_f = 0
    for i in range(L):
        f_off.append(total_f)
        total_f += x_dims[i] * y_dims[i]

    def f_idx(i, a, b):
        return f_off[i] + a * y_dims[i] + b

    rows = []
    for i in range(L):
        if x_dims[i] == 0 or y_dims[i] == 0:
            continue
        for r in range(nalg):
            A = x_actions[i][r]
            B = y_actions[i][r]
            for a in range(x_dims[i]):
                for b in range(y_dims[i]):
                    row = [Fraction(0)] * total_f
                    for k in range(x_dims[i]):
                        row[f_idx(i, k, b)] += A[a][k]
                    for l in range(y_dims[i]):
                        row[f_idx(i, a, l)] -= B[l][b]
                    rows.append(row)
    for i in range(L - 1):
        DX = x_diffs[i]
        DY = y_diffs[i]
        for a in range(x_dims[i]):
            for b in range(y_dims[i + 1]):
                row = [Fraction(0)] * total_f
                if DX and y_dims[i + 1]:
                    for k in range(x_dims[i + 1]):
                        row[f_idx(i + 1, k, b)] += DX[a][k]
                if DY and y_dims[i]:
                    for l in range(y_dims[i]):
                        row[f_idx(i, a, l)] -= DY[l][b]
                if any(row):
                    rows.append(row)
    z_basis = plain_nullspace(rows, total_f)

    h_off = []
    total_h = 0
    for i in range(L):
        h_off.append(total_h)
        prev = y_dims[i - 1] if i >= 1 else 0
        total_h += x_dims[i] * prev

    def h_idx(i, a, b):
        return h_off[i] + a * y_dims[i - 1] + b

    hrows = []
    for i in range(1, L):
        if x_dims[i] == 0 or y_dims[i - 1] == 0:
            continue
        for r in range(nalg):
            A = x_actions[i][r]
            B = y_actions[i - 1][r]
            for a in range(x_dims[i]):
                for b in range(y_dims[i - 1]):
                    row = [Fraction(0)] * total_h
                    for k in range(x_dims[i]):
                        row[h_idx(i, k, b)] += A[a][k]
                    for l in range(y_dims[i - 1]):
                        row[h_idx(i, a, l)] -= B[l][b]
                    hrows.append(row)
    h_basis = plain_nullspace(hrows, total_h) if total_h else []

    images = []
    for hvec in h_basis:
        img = [Fraction(0)] * total_f
        for i in range(L):
            if x_dims[i] == 0 or y_dims[i] == 0:
                continue
            # D_X^i H^{i+1}
            if i + 1 < L and x_diffs[i] and x_dims[i + 1] and y_dims[i]:
                for a in range(x_dims[i]):
                    for b in range(y_dims[i]):
                        acc = Fraction(0)
                        for k in range(x_dims[i + 1]):
                            acc += x_diffs[i][a][k] * hvec[h_idx(i + 1, k, b)]
                        img[f_idx(i, a, b)] += acc
            # H^i D_Y^{i-1}
            if i >= 1 and y_diffs[i - 1] and y_dims[i - 1]:
                for a in range(x_dims[i]):
                    for b in range(y_dims[i]):
                        acc = Fraction(0)
                        for l in range(y_dims[i - 1]):
                            acc += hvec[h_idx(i, a, l)] * y_diffs[i - 1][l][b]
                        img[f_idx(i, a, b)] += acc
        images.append(img)
    b_dim = plain_rank(images) if images else 0
    return len(z_basis) - b_dim


def probed_operator_matrix(layout_in, layout_out, fn):
    """Matrix (row convention) of a linear operator on map layouts, by probing.

    Row t is the image under fn of the t-th unit vector of layout_in,
    unpacked to a graded map and packed again in layout_out: the slow path
    that block assembly from corner multiplication tables replaces.
    """
    from kbproj.linalg import Mat

    ring = layout_in.alg.ring
    rows = []
    for t in range(layout_in.dim):
        unit = [ring.zero] * layout_in.dim
        unit[t] = ring.one
        rows.append(layout_out.pack(fn(layout_in.unpack(unit))))
    return Mat.from_rows(ring, rows, layout_out.dim)


def route_trusted_algmats_through_validation(monkeypatch):
    """Make ``AlgMat._trusted`` build through the validating ``AlgMat(...)``.

    Every summand matrix the engine builds internally then has its shape and
    corner support checked, as before trusted construction existed.  Returns
    the set of names of the functions that asked for one; a matrix built by
    ``AlgMat.block`` or ``AlgMat.sub``, or in a comprehension, counts for the
    function that called them.
    """
    import sys

    from kbproj.homcat import AlgMat

    assemblers = {AlgMat.block.__func__.__code__, AlgMat.sub.__code__}
    callers = set()

    def checked(cls, alg, target_idems, source_idems, entries):
        frame = sys._getframe(1)
        while frame.f_code in assemblers or frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return AlgMat(alg, target_idems, source_idems, entries)

    monkeypatch.setattr(AlgMat, "_trusted", classmethod(checked))
    return callers


class FractionRationals:
    """The rationals with every element a ``Fraction``, integral or not.

    This is the field ``linalg.QQ`` was before integral elements became
    plain ``int``: the reference its fast path is compared against, value by
    value and, when a fixture is loaded over it, byte by byte.
    """

    kind = "rational"
    is_field = True

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return a / b

    def inv(self, a):
        return self.div(self.one, a)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        from kbproj.linalg import LinalgError

        if isinstance(s, bool):
            raise LinalgError("boolean is not a rational scalar")
        if isinstance(s, int):
            return Fraction(s)
        if isinstance(s, Fraction):
            return s
        if isinstance(s, str):
            try:
                return Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise LinalgError(f"cannot parse rational scalar {s!r}") from exc
        raise LinalgError(f"cannot parse rational scalar {s!r}")

    def fmt(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, FractionRationals)

    def __hash__(self):
        return hash("QQ")


# -- axiom checks by products of basis vectors ----------------------------------
#
# The checks of ``kbproj.algebra`` as they were before they read the structure
# constants: every product b_i b_j is ``mult`` of two basis vectors, and a
# combination of action matrices is a chain of ``+`` and ``scale``.  Each
# returns the message the check raises at its first failure, or None.


def basis_product_associativity(alg):
    """First basis triple with (b_i b_j) b_l != b_i (b_j b_l), as a message."""
    for i in range(alg.dim):
        for j in range(alg.dim):
            for l in range(alg.dim):
                lhs = alg.mult(alg.mult(alg.basis_vec(i), alg.basis_vec(j)), alg.basis_vec(l))
                rhs = alg.mult(alg.basis_vec(i), alg.mult(alg.basis_vec(j), alg.basis_vec(l)))
                if lhs != rhs:
                    return (f"{alg.name}: associativity fails at basis triple "
                            f"({alg.basis_names[i]},{alg.basis_names[j]},{alg.basis_names[l]})")
    return None


def _scaled_sum(ring, n, mats, x):
    from kbproj.linalg import Mat

    out = Mat.zeros(ring, n, n)
    for i, c in enumerate(x):
        if c:
            out = out + mats[i].scale(c)
    return out


def basis_product_module_check(M):
    """``FdModule`` validation: shapes, unit, then multiplicativity per pair."""
    from kbproj.linalg import Mat

    alg = M.algebra
    ring = alg.ring
    if len(M.action) != alg.dim:
        return f"{M.name}: need one action matrix per algebra basis element"
    for a in M.action:
        if a.nrows != M.dim or a.ncols != M.dim or a.ring != ring:
            return f"{M.name}: action matrix shape mismatch"
    if _scaled_sum(ring, M.dim, M.action, alg.unit) != Mat.identity(ring, M.dim):
        return f"{M.name}: unit does not act as identity"
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = M.action[i] @ M.action[j]
            rhs = _scaled_sum(ring, M.dim, M.action, alg.mult(alg.basis_vec(i), alg.basis_vec(j)))
            if lhs != rhs:
                return (f"{M.name}: action not multiplicative at "
                        f"({alg.basis_names[i]},{alg.basis_names[j]})")
    return None


def basis_product_bimodule_check(B):
    """``Bimodule`` validation: both units, both sides per pair, commutation."""
    from kbproj.linalg import Mat

    ring = B.left_alg.ring
    L, R = B.left_alg, B.right_alg
    if B.right_alg.ring != ring:
        return f"{B.name}: bimodule sides over different fields"
    if len(B.left_action) != L.dim or len(B.right_action) != R.dim:
        return f"{B.name}: wrong number of action matrices"
    for m in B.left_action + B.right_action:
        if m.nrows != B.dim or m.ncols != B.dim:
            return f"{B.name}: action matrix shape mismatch"
    if _scaled_sum(ring, B.dim, B.left_action, L.unit) != Mat.identity(ring, B.dim):
        return f"{B.name}: left unit fails"
    if _scaled_sum(ring, B.dim, B.right_action, R.unit) != Mat.identity(ring, B.dim):
        return f"{B.name}: right unit fails"
    for i in range(L.dim):
        for j in range(L.dim):
            lhs = B.left_action[j] @ B.left_action[i]
            rhs = _scaled_sum(ring, B.dim, B.left_action, L.mult(L.basis_vec(i), L.basis_vec(j)))
            if lhs != rhs:
                return f"{B.name}: left action not anti-multiplicative"
    for i in range(R.dim):
        for j in range(R.dim):
            lhs = B.right_action[i] @ B.right_action[j]
            rhs = _scaled_sum(ring, B.dim, B.right_action, R.mult(R.basis_vec(i), R.basis_vec(j)))
            if lhs != rhs:
                return f"{B.name}: right action not multiplicative"
    for a in B.left_action:
        for b in B.right_action:
            if a @ b != b @ a:
                return f"{B.name}: actions do not commute"
    return None


def basis_product_ring_map_check(f):
    """``RingMap`` validation: unit, then multiplicativity per pair."""
    src, tgt = f.source, f.target

    def apply(x):
        out = tgt.zero_vec()
        for i, c in enumerate(x):
            if c:
                out = tgt.add_vec(out, tgt.scale_vec(c, f.images[i]))
        return out

    if src.ring != tgt.ring:
        return f"{f.name}: source/target fields differ"
    if len(f.images) != src.dim:
        return f"{f.name}: need one image per source basis element"
    if apply(src.unit) != tgt.unit:
        return f"{f.name}: unit is not preserved"
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = tgt.mult(f.images[i], f.images[j])
            rhs = apply(src.mult(src.basis_vec(i), src.basis_vec(j)))
            if lhs != rhs:
                return (f"{f.name}: multiplicativity fails at "
                        f"({src.basis_names[i]},{src.basis_names[j]})")
    return None


def entry_block_by_solving(F, a, tgt_i, src_i):
    """Image of one left-multiplication entry under a bimodule functor, as a
    grid of target elements (rows: target witnesses, columns: source ones).

    One witness-span solve per source witness, for this entry alone: the slow
    path that the functor's per-corner image tables replace.
    """
    from kbproj.functors import FunctorError
    from kbproj.linalg import Mat, solve_left

    B, ring, S = F.bimodule, F.source_alg.ring, F.target_alg
    La = B.left_of(a)
    cols = []
    for _, wv in F.witnesses[src_i]:
        img = La.row_apply(list(wv))
        x, _ = solve_left(F._wmat[tgt_i], Mat.from_rows(ring, [img], B.dim))
        if x is None:
            raise FunctorError(f"{F.name}: image escaped the witness span")
        coords = x.row(0)
        col = []
        for ju, offu, dimu in F._wblocks[tgt_i]:
            vec = [ring.zero] * S.dim
            for t in range(dimu):
                cf = coords[offu + t]
                if cf:
                    for p, b in enumerate(S.right_ideal_space(ju).rows[t]):
                        vec[p] = ring.add(vec[p], ring.mul(cf, b))
            col.append(tuple(vec))
        cols.append(col)
    return [[cols[c][r] for c in range(len(cols))] for r in range(len(F._wblocks[tgt_i]))]


def apply_algmat_by_solving(F, m):
    """F(m) with one ``entry_block_by_solving`` per entry of m."""
    from kbproj.homcat import AlgMat

    tgt, src = F.image_summands(m.target_idems), F.image_summands(m.source_idems)
    grid = [[None] * len(src) for _ in tgt]
    roff = 0
    for r, ti in enumerate(m.target_idems):
        coff = 0
        for c, si in enumerate(m.source_idems):
            block = entry_block_by_solving(F, m.entries[r][c], ti, si)
            for u, brow in enumerate(block):
                for v, x in enumerate(brow):
                    grid[roff + u][coff + v] = x
            coff += len(F.witnesses[si])
        roff += len(F.witnesses[ti])
    return AlgMat(F.target_alg, tgt, src, grid)


def probed_functor_matrix(F, layout_in, layout_out):
    """Matrix (row convention) of g -> F(g) by probing: each unit vector of
    layout_in is unpacked, sent through ``apply_algmat_by_solving`` component
    by component and packed in layout_out."""
    from kbproj.homcat import GradedMap

    def image(g):
        comps = {n: apply_algmat_by_solving(F, m) for n, m in g.components.items()}
        return GradedMap(layout_out.X, layout_out.Y, g.degree, comps)

    return probed_operator_matrix(layout_in, layout_out, image)


def class_coords_by_solving(H, f):
    """Class coordinates of one chain map in a ``HomSpace``, with a solve of
    its own against [representatives; boundaries]."""
    from kbproj.homcat import HomcatError
    from kbproj.linalg import Mat, solve_left

    v = H.L0.pack(f)
    if any(H.D0.row_apply(v)):
        raise HomcatError("not a chain map")
    if not H.reps:
        return []
    M = Mat.from_rows(H.ring, H.reps + list(H.boundaries.rows), H.L0.dim)
    x, _ = solve_left(M, Mat.from_rows(H.ring, [v], H.L0.dim))
    if x is None:
        raise HomcatError("internal error: cycle escaped its own span")
    return [x.entry(0, t) for t in range(len(H.reps))]


# -- dense graded-map arithmetic ------------------------------------------------
#
# ``GradedMap.delta``, ``GradedMap.compose``, sums, differences, equality,
# ``MapLayout.pack`` and the d^2 check of ``ProjComplex`` as they were before
# they skipped absent blocks: a missing component or differential is a zero
# summand matrix, and every product, sum and read is formed.


def _block(f, n):
    """Component n of the graded map f, a zero summand matrix when absent."""
    from kbproj.homcat import AlgMat

    m = f.components.get(n)
    if m is not None:
        return m
    return AlgMat.zeros(f.source.alg, f.target.summands_at(n + f.degree),
                        f.source.summands_at(n))


def dense_delta(f):
    """d_target . f - (-1)^deg f . d_source, with every block present."""
    from kbproj.homcat import GradedMap

    even = f.degree % 2 == 0
    comps = {}
    for n in f.source.degrees():
        a = f.target.diff_at(n + f.degree) @ _block(f, n)
        b = _block(f, n + 1) @ f.source.diff_at(n)
        m = a - b if even else a + b
        if not m.is_zero():
            comps[n] = m
    return GradedMap(f.source, f.target, f.degree + 1, comps, name=f"delta({f.name})")


def dense_compose(g, f):
    """g . f (f first), with every block present."""
    from kbproj.homcat import GradedMap, HomcatError

    if f.target is not g.source and f.target.summands != g.source.summands:
        raise HomcatError("composition endpoint mismatch")
    comps = {}
    for n in f.source.degrees():
        a = _block(g, n + f.degree) @ _block(f, n)
        if not a.is_zero():
            comps[n] = a
    return GradedMap(f.source, g.target, g.degree + f.degree, comps,
                     name=f"{g.name}.{f.name}")


def dense_sum(f, g, subtract=False):
    """f + g (f - g when ``subtract``) over every degree either stores."""
    from kbproj.homcat import GradedMap

    comps = {}
    for n in sorted(set(f.components) | set(g.components)):
        m = _block(f, n) - _block(g, n) if subtract else _block(f, n) + _block(g, n)
        if not m.is_zero():
            comps[n] = m
    return GradedMap(f.source, f.target, f.degree, comps)


def dense_equal(f, g):
    """f == g, comparing a zero block for every degree that either stores."""
    return f.degree == g.degree and all(
        _block(f, n) == _block(g, n) for n in set(f.components) | set(g.components))


def dense_pack(layout, g):
    """``MapLayout.pack``, reading every slot of g through a zero block when absent."""
    out = [layout.alg.ring.zero] * layout.dim
    for n, r, c, corner, off in layout.slots:
        for t, v in enumerate(corner.coords_of(_block(g, n).entries[r][c])):
            out[off + t] = v
    return out


def dense_d_squared_defect(alg, summands, diff):
    """The first degree n, in the order of ``summands``, with d^(n+1) d^n != 0.

    ``summands`` and ``diff`` are what ``ProjComplex`` is given, filtered as
    it filters them (empty summands and differentials without both ends
    dropped); a missing differential is a zero matrix.  None when d^2 = 0.
    """
    from kbproj.homcat import AlgMat

    summands = {n: tuple(s) for n, s in summands.items() if len(s) > 0}
    diff = {n: d for n, d in diff.items()
            if d is not None and n in summands and n + 1 in summands}

    def d_at(n):
        if n in diff:
            return diff[n]
        return AlgMat.zeros(alg, summands.get(n + 1, ()), summands.get(n, ()))

    for n in summands:
        if n + 2 in summands and n + 1 in summands:
            if not (d_at(n + 1) @ d_at(n)).is_zero():
                return n
    return None


# -- quotient coordinates --------------------------------------------------------


def quotient_matrix(ring, S):
    """Row-convention matrix of V -> V/S in the basis ``S.completion()``.

    Row i is the reduced unit vector e_i at S's non-pivot coordinates, so
    ``quotient_matrix(ring, S).row_apply(v)`` is v's quotient coordinates.
    """
    from kbproj.linalg import Mat

    free = [j for j in range(S.ambient) if j not in set(S.pivots)]
    rows = []
    for i in range(S.ambient):
        unit = [ring.zero] * S.ambient
        unit[i] = ring.one
        red = S.reduce(unit)
        rows.append([red[j] for j in free])
    return Mat.from_rows(ring, rows, len(free))
