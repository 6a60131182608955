"""Independent test oracles.

Everything here deliberately avoids the production code paths it is used to
check: plain-list row reduction, exhaustive small-field enumeration, the
normalized bar complex for Tor.  Oracles are slow and simple on purpose.
"""

from fractions import Fraction
from itertools import accumulate, product


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


def dense_rref_rows(ring, rows):
    """Gauss-Jordan elimination on dense rows, column by column: the
    reference for ``linalg.rref_rows``.  Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ring.inv(work[r][c])
        work[r] = [ring.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


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


def dense_structure(alg):
    """The dense table of ``alg``'s structure constants, as nested lists:
    entry [i][j][m] is the coefficient of b_m in b_i b_j, read by ``mult``."""
    return [[list(alg.mult(alg.basis_vec(i), alg.basis_vec(j))) for j in range(alg.dim)]
            for i in range(alg.dim)]


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
    corner support checked, as before trusted construction existed, and must
    store no zero entry.  Returns
    the set of names of the functions that asked for one; a matrix built by
    ``AlgMat.block`` or ``AlgMat.sub``, or in a comprehension, counts for the
    function that called them.
    """
    import sys

    from kbproj.homcat import AlgMat

    assemblers = {AlgMat.block.__func__.__code__, AlgMat.sub.__code__}
    callers = set()

    def checked(cls, alg, target_idems, source_idems, entries):
        if not all(map(any, entries.values())):
            raise AssertionError("a zero entry is stored")
        frame = sys._getframe(1)
        while frame.f_code in assemblers or frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return AlgMat(alg, target_idems, source_idems, entries)

    monkeypatch.setattr(AlgMat, "_trusted", classmethod(checked))
    return callers


def route_inherited_modules_through_validation(monkeypatch):
    """Make ``FdModule._inherited`` and ``Bimodule._inherited`` build through
    the validating ``FdModule(...)`` and ``Bimodule(...)``.

    Every module and bimodule the engine derives from a checked one then has
    its unit, multiplicativity and commutation checked as well as its shapes,
    as before inherited construction existed.  Returns the set of names of
    the functions that asked for one.
    """
    import sys

    from kbproj.algebra import Bimodule, FdModule

    callers = set()

    def module(cls, algebra, dim, action, name):
        callers.add(sys._getframe(1).f_code.co_name)
        return FdModule(algebra, dim, action, name=name)

    def bimodule(cls, left_alg, right_alg, dim, left_action, right_action, name):
        callers.add(sys._getframe(1).f_code.co_name)
        return Bimodule(left_alg, right_alg, dim, left_action, right_action, name=name)

    monkeypatch.setattr(FdModule, "_inherited", classmethod(module))
    monkeypatch.setattr(Bimodule, "_inherited", classmethod(bimodule))
    return callers


def route_trusted_complexes_through_validation(monkeypatch):
    """Make ``ProjComplex._trusted`` and ``GradedMap._trusted`` build through
    the validating ``ProjComplex(...)`` and ``GradedMap(...)``.

    Every complex the engine derives from checked ones then has its summand
    indices, differential shapes and d^2 = 0 checked, as before trusted
    construction existed, and must keep every summand and differential it
    is given; every graded map has its component summands checked.  Returns
    the set of names of the functions that asked for one; one built in a
    comprehension counts for the function around it.
    """
    import sys

    from kbproj.homcat import GradedMap, ProjComplex

    callers = set()

    def note_caller():
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers.add(frame.f_code.co_name)

    def complex_(cls, alg, summands, diff, name):
        note_caller()
        X = ProjComplex(alg, summands, diff, name=name)
        if X.summands != summands or X.diff != diff:
            raise AssertionError(f"{name}: the checked constructor dropped a summand "
                                 "or a differential")
        return X

    def graded_map(cls, source, target, degree, components, name="f"):
        note_caller()
        return GradedMap(source, target, degree, components, name=name)

    monkeypatch.setattr(ProjComplex, "_trusted", classmethod(complex_))
    monkeypatch.setattr(GradedMap, "_trusted", classmethod(graded_map))
    return callers


def checked_functor_image(F, x, FX=None, FY=None):
    """F's image of a summand matrix, complex or map, as ``BimoduleFunctor``
    built it before ``homcat.functor_image``: each image entry combined from
    ``F.corner_table`` by its corner coordinates, and every matrix, complex
    and map built through the checking ``AlgMat(...)``, ``ProjComplex(...)``
    and ``GradedMap(...)``, which check each entry's corner, d^2 = 0 and each
    component's summands."""
    from kbproj.homcat import AlgMat, GradedMap, ProjComplex

    R, S = F.source_alg, F.target_alg

    def algmat(m):
        roff = [0, *accumulate(len(F.witnesses[t]) for t in m.target_idems)]
        coff = [0, *accumulate(len(F.witnesses[s]) for s in m.source_idems)]
        ents = {}
        for (r, c), a in m.nonzero_entries():
            t, s = m.target_idems[r], m.source_idems[c]
            coords = R.corner_space(t, s).coords_of(a)
            for u, v, elems, _ in F.corner_table(t, s):
                ents[(roff[r] + u, coff[c] + v)] = S.combine(
                    (cf, e) for cf, e in zip(coords, elems) if cf)
        return AlgMat(S, F.image_summands(m.target_idems),
                      F.image_summands(m.source_idems), ents)

    def complex_(X):
        summands = {n: F.image_summands(X.summands_at(n)) for n in X.degrees()}
        diff = {n: algmat(d) for n, d in X.diff.items()}
        return ProjComplex(S, summands, diff, name=f"{F.name}({X.name})")

    if isinstance(x, AlgMat):
        return algmat(x)
    if isinstance(x, ProjComplex):
        return complex_(x)
    comps = {n: algmat(m) for n, m in x.components.items()}
    return GradedMap(FX or complex_(x.source), FY or complex_(x.target), x.degree,
                     comps, name=f"{F.name}({x.name})")


def route_functor_images_through_validation(monkeypatch):
    """Make ``BimoduleFunctor``'s images come from ``checked_functor_image``.

    Every image the engine takes of a summand matrix, complex or map is then
    built as before ``homcat.functor_image`` existed, through the checking
    constructors.  Returns a dict counting the images by kind ("algmat",
    "complex", "map").
    """
    from kbproj import functors
    from kbproj.homcat import AlgMat, ProjComplex

    kinds = {}

    def checked(F, x, FX=None, FY=None):
        kind = ("algmat" if isinstance(x, AlgMat) else
                "complex" if isinstance(x, ProjComplex) else "map")
        kinds[kind] = kinds.get(kind, 0) + 1
        return checked_functor_image(F, x, FX, FY)

    monkeypatch.setattr(functors, "functor_image", checked)
    return kinds


def hom_modules(M, N):
    """Basis of right-module homomorphisms M -> N (matrices in row convention).

    The kernel of the constraint matrix whose rank ``algebra.hom_dim``
    takes: each basis vector unpacked to a matrix, so its length is the
    dimension and each member can be checked to be a module map.
    """
    from kbproj.linalg import Mat, left_kernel

    ring = M.algebra.ring
    nm, nn = M.dim, N.dim
    # unknown F (nm x nn), constraints rhoM(b) F = F rhoN(b): row k*nn + j is
    # the unknown F[k][j], column (b*nm + i)*nn + j the constraint's entry (i, j)
    items = {}
    for b in range(M.algebra.dim):
        off = b * nm * nn
        for i, k, a in M.action[b].items():
            for j in range(nn):
                key = (k * nn + j, off + i * nn + j)
                items[key] = ring.add(items[key], a) if key in items else a
        for l, j, c in N.action[b].items():
            for i in range(nm):
                key = (i * nn + l, off + i * nn + j)
                items[key] = ring.sub(items[key], c) if key in items else ring.neg(c)
    ker = left_kernel(Mat.from_entries(ring, nm * nn, M.algebra.dim * nm * nn, items))
    return [Mat.from_rows(ring, [kv[i * nn:(i + 1) * nn] for i in range(nm)], nn)
            for kv in ker.rows]


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
            out = out + Mat.from_entries(ring, n, n, {(r, k): ring.mul(v, c)
                                                      for r, k, v in mats[i].items()})
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
    from kbproj.linalg import Mat

    B, ring, S = F.bimodule, F.source_alg.ring, F.target_alg
    La = B.left_of(a)
    cols = []
    for _, wv in F.witnesses[src_i]:
        img = La.row_apply(list(wv))
        x, _ = solve_left_and_kernel(F._wmat[tgt_i], Mat.from_rows(ring, [img], B.dim))
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
            block = entry_block_by_solving(F, dense_grid(m)[r][c], ti, si)
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
    from kbproj.linalg import Mat

    v = H.L0.pack(f)
    if any(H.D0.row_apply(v)):
        raise HomcatError("not a chain map")
    if not H.reps:
        return []
    M = Mat.from_rows(H.ring, H.reps + list(H.boundaries.rows), H.L0.dim)
    x, _ = solve_left_and_kernel(M, Mat.from_rows(H.ring, [v], H.L0.dim))
    if x is None:
        raise HomcatError("internal error: cycle escaped its own span")
    return [x.entry(0, t) for t in range(len(H.reps))]


# -- dense graded-map arithmetic ------------------------------------------------
#
# ``GradedMap.delta``, ``GradedMap.compose``, sums, differences, equality,
# ``MapLayout.pack`` and the d^2 check of ``ProjComplex`` as they were before
# they skipped absent blocks and zero entries: a summand matrix is a full grid
# of algebra vectors, a missing component or differential is a grid of zero
# vectors, and every entry product, sum and read is formed.  None of this uses
# ``AlgMat`` arithmetic; results become ``AlgMat``s through the validating
# constructor.


def dense_grid(m):
    """The full grid of rows of a summand matrix, zero vectors included."""
    grid = [[m.alg.zero_vec()] * len(m.source_idems) for _ in m.target_idems]
    for (r, c), a in m.nonzero_entries():
        grid[r][c] = a
    return grid


def _grid_product(alg, A, B, ncols):
    """A . B on grids: every entry pair multiplied, every product added."""
    out = []
    for left in A:
        row = []
        for c in range(ncols):
            acc = alg.zero_vec()
            for a, right in zip(left, B):
                acc = alg.add_vec(acc, alg.mult(a, right[c]))
            row.append(acc)
        out.append(row)
    return out


def _grid_sum(alg, A, B, sign):
    return [[alg.add_vec(a, alg.scale_vec(sign, b)) for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def _grid_is_zero(G):
    return not any(any(a) for row in G for a in row)


def _block(f, n):
    """Component n of the graded map f as a dense grid, zero when absent."""
    m = f.components.get(n)
    if m is not None:
        return dense_grid(m)
    z = f.source.alg.zero_vec()
    return [[z] * len(f.source.summands_at(n)) for _ in f.target.summands_at(n + f.degree)]


def _diff_grid(X, n):
    """The differential X^n -> X^(n+1) as a dense grid, zero when absent."""
    d = X.diff.get(n)
    if d is not None:
        return dense_grid(d)
    z = X.alg.zero_vec()
    return [[z] * len(X.summands_at(n)) for _ in X.summands_at(n + 1)]


def _algmat(alg, target, source, grid):
    from kbproj.homcat import AlgMat

    return AlgMat(alg, target, source, grid)


def dense_delta(f):
    """d_target . f - (-1)^deg f . d_source, with every block present."""
    from kbproj.homcat import GradedMap

    alg = f.source.alg
    sign = alg.ring.neg(alg.ring.one) if f.degree % 2 == 0 else alg.ring.one
    comps = {}
    for n in f.source.degrees():
        tgt, src = f.target.summands_at(n + f.degree + 1), f.source.summands_at(n)
        a = _grid_product(alg, _diff_grid(f.target, n + f.degree), _block(f, n), len(src))
        b = _grid_product(alg, _block(f, n + 1), _diff_grid(f.source, n), len(src))
        m = _grid_sum(alg, a, b, sign)
        if not _grid_is_zero(m):
            comps[n] = _algmat(alg, tgt, src, m)
    return GradedMap(f.source, f.target, f.degree + 1, comps, name=f"delta({f.name})")


def dense_compose(g, f):
    """g . f (f first), with every block present."""
    from kbproj.homcat import GradedMap, HomcatError

    if f.target is not g.source and f.target.summands != g.source.summands:
        raise HomcatError("composition endpoint mismatch")
    alg = f.source.alg
    comps = {}
    for n in f.source.degrees():
        src = f.source.summands_at(n)
        a = _grid_product(alg, _block(g, n + f.degree), _block(f, n), len(src))
        if not _grid_is_zero(a):
            comps[n] = _algmat(alg, g.target.summands_at(n + f.degree + g.degree), src, a)
    return GradedMap(f.source, g.target, g.degree + f.degree, comps,
                     name=f"{g.name}.{f.name}")


def dense_sum(f, g, subtract=False):
    """f + g (f - g when ``subtract``) over every degree either stores."""
    from kbproj.homcat import GradedMap

    alg = f.source.alg
    sign = alg.ring.neg(alg.ring.one) if subtract else alg.ring.one
    comps = {}
    for n in sorted(set(f.components) | set(g.components)):
        m = _grid_sum(alg, _block(f, n), _block(g, n), sign)
        if not _grid_is_zero(m):
            comps[n] = _algmat(alg, f.target.summands_at(n + f.degree),
                               f.source.summands_at(n), m)
    return GradedMap(f.source, f.target, f.degree, comps)


def dense_equal(f, g):
    """f == g, comparing a zero grid for every degree that either stores."""
    return f.degree == g.degree and all(
        _block(f, n) == _block(g, n) for n in set(f.components) | set(g.components))


def dense_pack(layout, g):
    """``MapLayout.pack``, reading every slot of g through a zero grid when absent."""
    out = [layout.alg.ring.zero] * layout.dim
    for n, r, c, corner, off in layout.slots:
        for t, v in enumerate(corner.coords_of(_block(g, n)[r][c])):
            out[off + t] = v
    return out


def dense_d_squared_defect(alg, summands, diff):
    """The first degree n, in the order of ``summands``, with d^(n+1) d^n != 0.

    ``summands`` and ``diff`` are what ``ProjComplex`` is given, filtered as
    it filters them (empty summands and differentials without both ends
    dropped); a missing differential is a zero grid.  None when d^2 = 0.
    """
    summands = {n: tuple(s) for n, s in summands.items() if len(s) > 0}
    diff = {n: d for n, d in diff.items()
            if d is not None and n in summands and n + 1 in summands}

    def d_at(n):
        if n in diff:
            return dense_grid(diff[n])
        z = alg.zero_vec()
        return [[z] * len(summands.get(n, ())) for _ in summands.get(n + 1, ())]

    for n in summands:
        if n + 2 in summands and n + 1 in summands:
            if not _grid_is_zero(_grid_product(alg, d_at(n + 1), d_at(n), len(summands[n]))):
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


# -- the solver that returned both answers -----------------------------------------


def _dense_kernel(ring, red, pivots, n):
    """{v in ring^n : the reduced system (red, pivots) kills v}, the span of
    one kernel vector per free column."""
    from kbproj.linalg import Subspace

    pivset = set(pivots)
    vecs = []
    for f in range(n):
        if f not in pivset:
            v = [ring.zero] * n
            v[f] = ring.one
            for row, p in zip(red, pivots):
                v[p] = ring.neg(row[f])
            vecs.append(v)
    return Subspace.from_spanning(ring, n, vecs)


def solve_and_kernel(A, b):
    """Solve A @ x = b exactly, as ``linalg.solve`` did before it returned
    one answer: (x, kernel), x None when inconsistent, kernel the subspace
    {v : A @ v = 0} of ring^ncols, both read off one dense row reduction of
    [A | b] (``dense_rref_rows``: no code shared with ``linalg._reduce``).
    """
    from kbproj.linalg import LinalgError, Mat

    ring = A.ring
    if b.nrows != A.nrows or b.ring != ring:
        raise LinalgError("solve: right-hand side shape mismatch")
    n = A.ncols
    aug = [ra + rb for ra, rb in zip(A.rows(), b.rows())]
    red, pivots = dense_rref_rows(ring, aug)
    pivots_in_A = [p for p in pivots if p < n]
    kernel = _dense_kernel(ring, red, pivots_in_A, n)
    if len(pivots_in_A) < len(pivots):
        return None, kernel
    x_rows = [[ring.zero] * b.ncols for _ in range(n)]
    for row, p in zip(red, pivots_in_A):
        x_rows[p] = row[n:]
    return Mat.from_rows(ring, x_rows, b.ncols), kernel


def solve_left_and_kernel(A, b):
    """x @ A = b by ``solve_and_kernel`` on the transposes; the kernel is the
    left null space {v : v @ A = 0}."""
    xt, ker = solve_and_kernel(A.transpose(), b.transpose())
    return (None if xt is None else xt.transpose()), ker


def dense_left_kernel(A):
    """{v : v @ A = 0} from a dense reduction of A's columns: the reference
    for ``linalg.left_kernel``."""
    red, pivots = dense_rref_rows(A.ring, A.transpose().rows())
    return _dense_kernel(A.ring, red, pivots, A.nrows)


# -- stalk-layer inverses by solving ----------------------------------------------


def stalk_layer_inverse_by_solving(e):
    """A homotopy inverse of a complex lift's stalk-layer comparison map e, as
    ``lifting.lift_complex`` found it before the checked problem kept each
    stalk's inverse: contract cone(e), then read the inverse off the
    contraction."""
    from kbproj.homcat import homotopy_inverse_from_contraction, is_homotopy_equivalence

    ok, contraction = is_homotopy_equivalence(e)
    assert ok, "a stalk layer is not an equivalence"
    return homotopy_inverse_from_contraction(e, contraction)[0]


# -- triangle recognition that tests the composites first --------------------------


def _vstack(mats):
    """Stack matrices of one width, top to bottom: the row-block assembly of
    the (map, homotopy) systems below."""
    from kbproj.linalg import Mat

    items, off = {}, 0
    for m in mats:
        assert m.ncols == mats[0].ncols and m.ring == mats[0].ring
        items.update(((i + off, j), v) for i, j, v in m.items())
        off += m.nrows
    return Mat.from_entries(mats[0].ring, off, mats[0].ncols, items)


def lift_node_by_blocks(F, Xc, Y, b):
    """One node of ``lifting.lift_chain_map`` as it was solved before
    ``homcat.solve_up_to_homotopy``: the system F(lifted) - b = delta(h), with
    b = alpha . F(pi), laid out as [[T, D], [-D_h, 0]] with its equations in
    the order (functor image, chain condition).  Returns (lifted, h) or None."""
    from kbproj.functors import functor_matrix
    from kbproj.homcat import MapLayout, delta_matrix
    from kbproj.linalg import Mat, hstack, solve_left

    ring = F.source_alg.ring
    la0, la1 = MapLayout(Xc, Y, 0), MapLayout(Xc, Y, 1)
    lf0, lfm = MapLayout(b.source, b.target, 0), MapLayout(b.source, b.target, -1)
    M = _vstack([
        hstack([functor_matrix(F, la0, lf0), delta_matrix(la0, la1)]),
        hstack([delta_matrix(lfm, lf0).neg(), Mat.zeros(ring, lfm.dim, la1.dim)]),
    ])
    rhs = Mat.from_rows(ring, [lf0.pack(b) + [ring.zero] * la1.dim], M.ncols)
    x = solve_left(M, rhs)
    if x is None:
        return None
    coords = x.row(0)
    return la0.unpack(coords[:la0.dim]), lfm.unpack(coords[la0.dim:])


def recognize_triangle_composites_first(alpha, beta, gamma):
    """``homcat.recognize_triangle`` as it was before it skipped the composite
    tests: beta.alpha ~ 0 and gamma.beta ~ 0 are decided first, each with a
    ``HomSpace`` of its own, and only then is the comparison system solved."""
    from kbproj.homcat import (HomcatError, HomSpace, MapLayout, TriangleVerdict, cone,
                               delta_matrix, is_homotopy_equivalence, operator_matrix)
    from kbproj.linalg import Mat, hstack, solve_left

    X, Y = alpha.source, alpha.target
    Z = beta.target
    if beta.source != Y:
        raise HomcatError("triangle legs do not compose: target of first != source of second")
    if gamma.source != Z:
        raise HomcatError("triangle legs do not compose: target of second != source of third")
    SX = X.shift(1)
    if gamma.target != SX:
        raise HomcatError("third leg must land in the shifted first object")
    for leg, nm in ((alpha, "first"), (beta, "second"), (gamma, "third")):
        if not leg.is_chain_map():
            return TriangleVerdict("not_exact", f"{nm} leg is not a chain map")

    ok, _ = HomSpace(X, Z).is_nullhomotopic(beta.compose(alpha))
    if not ok:
        return TriangleVerdict("not_exact", "composite of the first two legs is not nullhomotopic")
    ok, _ = HomSpace(Y, SX).is_nullhomotopic(gamma.compose(beta))
    if not ok:
        return TriangleVerdict("not_exact", "composite of the last two legs is not nullhomotopic")

    C, incl, proj = cone(alpha)
    ring = X.alg.ring
    L_cz0, L_cz1 = MapLayout(C, Z, 0), MapLayout(C, Z, 1)
    L_yzm1, L_yz0 = MapLayout(Y, Z, -1), MapLayout(Y, Z, 0)
    L_csxm1, L_csx0 = MapLayout(C, SX, -1), MapLayout(C, SX, 0)
    D_chain = delta_matrix(L_cz0, L_cz1)
    C_incl = operator_matrix(L_cz0, L_yz0, pre=incl)
    C_gamma = operator_matrix(L_cz0, L_csx0, post=gamma)
    D_yz = delta_matrix(L_yzm1, L_yz0)
    D_csx = delta_matrix(L_csxm1, L_csx0)
    n0, n1, n2 = L_cz0.dim, L_yzm1.dim, L_csxm1.dim
    m0, m1, m2 = L_cz1.dim, L_yz0.dim, L_csx0.dim

    rhs = [ring.zero] * m0 + L_yz0.pack(beta) + L_csx0.pack(proj)
    if n0 + n1 + n2 == 0:
        if any(rhs):
            return TriangleVerdict("not_exact", "no comparison map from the cone exists")
        sol = []
    else:
        zero = Mat.zeros
        top = hstack([D_chain, C_incl, C_gamma])
        mid = hstack([zero(ring, n1, m0), D_yz.neg(), zero(ring, n1, m2)])
        bot = hstack([zero(ring, n2, m0), zero(ring, n2, m1), D_csx.neg()])
        x = solve_left(_vstack([top, mid, bot]), Mat.from_rows(ring, [rhs], m0 + m1 + m2))
        if x is None:
            return TriangleVerdict("not_exact", "no comparison map from the cone exists")
        sol = x.row(0)
    rho = L_cz0.unpack(sol[:n0])
    h_incl = L_yzm1.unpack(sol[n0:n0 + n1])
    h_proj = L_csxm1.unpack(sol[n0 + n1:])
    ok, contraction = is_homotopy_equivalence(rho)
    if not ok:
        return TriangleVerdict(
            "not_exact", "a comparison map from the cone exists but is not an equivalence",
            rho=rho, h_incl=h_incl, h_proj=h_proj)
    return TriangleVerdict("exact", "cone comparison map is an equivalence",
                           rho=rho, h_incl=h_incl, h_proj=h_proj,
                           cone_contraction=contraction)


# -- window ideal calculus without stored images ----------------------------------


def annihilator_ideal_fresh(F, subcat):
    """The annihilator of F on a window as ``ideals.annihilator_ideal`` built it
    before image windows were stored: every call applies F to each object
    again and builds a fresh ``HomSpace`` between the images of every pair,
    zero source Hom spaces included."""
    from kbproj.homcat import HomSpace
    from kbproj.ideals import HomIdeal
    from kbproj.linalg import Subspace, left_kernel

    images = {name: F.apply_complex(X) for name, X in subcat.objects.items()}
    comps = {}
    for a in subcat.names():
        for b in subcat.names():
            H = subcat.hom(a, b)
            FH = HomSpace(images[a], images[b])
            if H.dim == 0:
                comps[(a, b)] = Subspace.zero(F.source_alg.ring, 0)
            else:
                comps[(a, b)] = left_kernel(functor_class_matrix(F, H, FH, images[a], images[b]))
    return HomIdeal(subcat, comps)


def functor_class_matrix(F, H, FH, FX, FY):
    """Matrix (row convention) of the map F induces from the classes of H to
    those of FH, as ``functors.functor_class_matrix`` built it before the
    annihilator read its images as one matrix product: F applied to each basis
    map as a ``GradedMap``, then one ``class_matrix`` solve with its chain-map
    check."""
    return FH.class_matrix([F.apply_map(f, FX, FY) for f in H.basis()])


def annihilator_ideal_by_class_matrix(F, subcat):
    """The annihilator as ``ideals.annihilator_ideal`` built it from the stored
    image window before its probe became "F(f) is a boundary": the left kernel
    of ``functor_class_matrix`` at every pair with a nonzero Hom space.
    Returned through the checking ``HomIdeal(...)``."""
    from kbproj.ideals import HomIdeal
    from kbproj.linalg import left_kernel

    W = F.image_window(subcat)
    names = subcat.names()
    return HomIdeal(subcat, {(a, b): left_kernel(functor_class_matrix(
        F, subcat.hom(a, b), W.hom(a, b), W.objects[a], W.objects[b]))
        for a in names for b in names if subcat.hom(a, b).dim})


def factor_through_ideal_all_pairs(subcat, through):
    """The classes factoring through the named objects, as
    ``ideals.factor_through_ideal`` built them before it skipped zero Hom
    spaces: a spanned subspace at every pair of the window.  Returned through
    the checking ``HomIdeal(...)``."""
    from kbproj.ideals import HomIdeal
    from kbproj.linalg import Subspace

    names = subcat.names()
    return HomIdeal(subcat, {(a, c): Subspace.from_spanning(
        subcat.alg.ring, subcat.hom(a, c).dim,
        [t for b in through for row in subcat.composition_tensor(a, b, c) for t in row])
        for a in names for c in names})


def shift_stability_all_pairs(I):
    """(all matched, checked pairs) as ``ideals.shift_stability_report`` found
    them before it skipped zero components: at every pair with a declared
    translation on both sides, the image of the component under the shift
    matrix against the component at the translated pair."""
    from kbproj.linalg import Subspace

    subcat = I.subcat
    checked, ok = [], True
    for a, b in product(subcat.names(), repeat=2):
        sa, sb = subcat.shifts.get(a), subcat.shifts.get(b)
        if sa is None or sb is None:
            continue
        checked.append((a, b))
        M = subcat.shift_matrix(a, b)
        image = Subspace.from_spanning(subcat.alg.ring, M.ncols,
                                       [M.row_apply(r) for r in I.component(a, b).rows])
        ok = ok and image == I.component(sa, sb)
    return ok, checked


def dense_ideal_product(I, J):
    """I . J visiting every triple (a, b, c) of window objects, zero
    components included, as ``ideals.ideal_product`` did before it looped
    over the nonzero components of I alone."""
    from kbproj.ideals import HomIdeal, compose_coords
    from kbproj.linalg import Subspace

    subcat = I.subcat
    names = subcat.names()
    comps = {}
    for a in names:
        for c in names:
            vecs = [compose_coords(subcat, a, b, c, v, w)
                    for b in names for v in I.component(a, b).rows
                    for w in J.component(b, c).rows]
            comps[(a, c)] = Subspace.from_spanning(subcat.alg.ring, subcat.hom(a, c).dim, vecs)
    return HomIdeal(subcat, comps)


def fixpoint_ideal_closure(subcat, seeds):
    """The smallest ideal containing the seed classes, as ``ideals.ideal_closure``
    built it before its worklist: a subspace at every pair of the window, zero
    ones included, grown by full passes over all pairs until a pass adds no
    composite.  Returned through the checking ``HomIdeal(...)``."""
    from kbproj.ideals import HomIdeal, _composites
    from kbproj.linalg import Subspace

    ring = subcat.alg.ring
    names = subcat.names()
    spans = {(a, b): Subspace.from_spanning(ring, subcat.hom(a, b).dim,
                                            list(seeds.get((a, b), ())))
             for a in names for b in names}
    changed = True
    while changed:
        changed = False
        for a, b in spans:
            if spans[(a, b)].dim:
                for key, new in _composites(subcat, a, b, spans[(a, b)].rows):
                    old = spans[key]
                    spans[key] = Subspace.from_spanning(ring, old.ambient, list(old.rows) + new)
                    changed = changed or spans[key].dim > old.dim
    return HomIdeal(subcat, spans)


# -- constructed ideals and the derived almost ideal -----------------------------


def route_constructed_ideals_through_closure_check(monkeypatch):
    """Make ``HomIdeal._constructed`` build through the public ``HomIdeal(...)``.

    Every ideal the engine builds then has its closure under composition
    checked as well as its shapes, as before constructed ideals skipped that
    check, and must store no zero component.  Returns the set of names of the
    functions that asked for one.
    """
    import sys

    from kbproj.ideals import HomIdeal

    callers = set()

    def checked(cls, subcat, components):
        callers.add(sys._getframe(1).f_code.co_name)
        I = HomIdeal(subcat, components)
        assert all(S.dim for S in I.components.values()), "a zero component is stored"
        return I

    monkeypatch.setattr(HomIdeal, "_constructed", classmethod(checked))
    return callers


def derived_ideal_fresh(C, subcat, window=None):
    """The ideal of window maps f: X -> Y with xi . f nullhomotopic for every
    xi: Y -> C[n], as ``almost.almost_derived_ideal`` built it before its cone
    window was stored: fresh ``HomSpace(Y, C[n])`` and ``HomSpace(X, C[n])``
    on every call, kept in a local dict, and a kernel loop of its own.
    Returns the ideal, through the checking constructor, and the hull of the
    shifts used (which always contains 0)."""
    from kbproj.homcat import HomSpace
    from kbproj.ideals import HomIdeal
    from kbproj.linalg import Mat, left_kernel

    ring = subcat.alg.ring
    comps = {}
    hom_into = {}
    hull_lo, hull_hi = 0, 0
    for bn in subcat.names():
        Y = subcat.objects[bn]
        tests = []
        if not C.is_zero() and not Y.is_zero():
            lo, hi = window if window is not None else (C.lo - Y.hi, C.hi - Y.lo)
            hull_lo, hull_hi = min(hull_lo, lo), max(hull_hi, hi)
            for n in range(lo, hi + 1):
                Cn = C.shift(n)
                HY = HomSpace(Y, Cn)
                if HY.dim:
                    tests.append((n, Cn, HY.basis()))
        for an in subcat.names():
            H = subcat.hom(an, bn)
            if H.dim == 0:
                continue
            X = subcat.objects[an]
            fs = H.basis()
            rows = [[] for _ in fs]
            for n, Cn, xis in tests:
                key = (an, n)
                if key not in hom_into:
                    hom_into[key] = HomSpace(X, Cn)
                HX = hom_into[key]
                if HX.dim == 0:
                    continue
                K = HX.class_matrix([xi.compose(f) for f in fs for xi in xis])
                for p, coords in enumerate(K.rows()):
                    rows[p // len(xis)].extend(coords)
            comps[(an, bn)] = left_kernel(Mat.from_rows(ring, rows, len(rows[0])))
    return HomIdeal(subcat, comps), (hull_lo, hull_hi)


# -- the radical's re-checks ----------------------------------------------------


def is_two_sided(alg, space):
    """Whether ``space`` is closed under multiplication by every basis element
    on either side: the check ``TwoSidedIdeal(...)`` makes, and that
    ``radical`` made of its trace-form kernel before it trusted the theorem."""
    for row in space.rows:
        for t in range(alg.dim):
            b = alg.basis_vec(t)
            if not (space.contains(alg.mult(b, row)) and space.contains(alg.mult(row, b))):
                return False
    return True


def is_nilpotent(ideal, cap=64):
    """Whether some power of the ideal is zero, by squaring its span until it
    stops shrinking: ``TwoSidedIdeal.is_nilpotent`` as ``radical`` called it."""
    from kbproj.linalg import Subspace

    alg = ideal.algebra
    cur = ideal.space
    for _ in range(cap):
        if cur.dim == 0:
            return True
        nxt = Subspace.from_spanning(alg.ring, alg.dim,
                                     [alg.mult(u, v) for u in cur.rows for v in cur.rows])
        if nxt == cur:
            return False
        cur = nxt
    return cur.dim == 0


# -- Tor through a coequalizer per term -------------------------------------------


def coequalizer_relations(M, B):
    """The relations m.r (x) b - m (x) r.b of M (x)_R B, for the basis of M,
    of R and of B, as a subspace of M (x)_k B (coordinate i*dimB + j for
    m_i (x) b_j): the relation span of ``algebra.module_tensor``."""
    from kbproj.linalg import Subspace

    R, ring, n = M.algebra, M.algebra.ring, B.dim
    left_rows = [B.left_action[r].rows() for r in range(R.dim)]
    rels = []
    for i in range(M.dim):
        for r in range(R.dim):
            mi_r = M.action[r].row(i)
            for j in range(n):
                vec = [ring.zero] * (M.dim * n)
                for u, c in enumerate(mi_r):
                    vec[u * n + j] = ring.add(vec[u * n + j], c)
                for v, c in enumerate(left_rows[r][j]):
                    vec[i * n + v] = ring.sub(vec[i * n + v], c)
                rels.append(vec)
    return Subspace.from_spanning(ring, M.dim * n, rels)


def tor_by_coequalizers(M, B, i_max):
    """``derived.tor_with_bimodule`` as it was before it read P (x)_R B as
    blocks e_j B: every term of the resolution is tensored as the quotient of
    P (x)_k B by its relations, each differential is induced on quotient
    coordinates through coset representatives, and Tor_0 is the coequalizer
    of M itself, checked against the cokernel of the first map."""
    from kbproj.algebra import projective_module
    from kbproj.derived import DerivedError, TorReport, proj_resolution
    from kbproj.linalg import Mat, rank

    ring, n = M.algebra.ring, B.dim
    res = proj_resolution(M, i_max + 1)
    rels = [coequalizer_relations(projective_module(M.algebra, s), B) for s in res.summands]
    tdims = [rel.ambient - rel.dim for rel in rels]
    tmaps = []
    for i, phi in enumerate(res.maps):        # phi: P_{i+1} -> P_i
        rows = []
        for rep in rels[i + 1].completion():
            out = [ring.zero] * (phi.ncols * n)
            for pos, c in enumerate(rep):
                if c:
                    u, j = divmod(pos, n)
                    for v in range(phi.ncols):
                        out[v * n + j] = ring.add(out[v * n + j], ring.mul(c, phi.entry(u, v)))
            rows.append(rels[i].quotient_coords(out))
        tmaps.append(Mat.from_rows(ring, rows, tdims[i]))
    for i in range(1, len(tmaps)):
        if not (tmaps[i] @ tmaps[i - 1]).is_zero():
            raise DerivedError("tensored resolution lost d . d = 0")
    ranks = [rank(t) for t in tmaps]
    L = len(res.summands) - 1
    top = coequalizer_relations(M, B)
    dims = {0: top.ambient - top.dim}
    if L >= 1 and tdims[0] - ranks[0] != dims[0]:
        raise DerivedError("tensoring broke right exactness")
    for i in range(1, i_max + 2 if res.complete else i_max + 1):
        ker = tdims[i] - ranks[i - 1] if i <= L else 0
        dims[i] = ker - (ranks[i] if i < L else 0)
        if dims[i] < 0:
            raise DerivedError("negative homology dimension: tensored complex inconsistent")
    if dims.get(i_max + 1) == 0:
        del dims[i_max + 1]
    return TorReport(dims=dims, complete=res.complete, checked_up_to=max(dims))


def proj_resolution_by_submodules(M, max_len):
    """``derived.proj_resolution`` as it was before it covered each syzygy
    where it lies: every syzygy is built as a ``submodule`` of the last P_i,
    with ``R.dim`` action matrices of its own, covered in its own coordinates
    by generators picked from the rows of its idempotent actions, and the
    differential is that cover times the inclusion.  Not re-verified."""
    from kbproj.algebra import (presentation_matrix, projective_module, projective_radical,
                                radical, submodule)
    from kbproj.derived import Resolution
    from kbproj.linalg import Mat, left_kernel

    alg = M.algebra
    radsp = radical(alg).space

    def cover(N):
        spanned, gens = N.times_ideal(radsp), []
        for j in range(alg.n_idempotents()):
            for v in N.action_of(alg.idempotent_vec(j)).rows():
                if not spanned.contains(v):
                    gens.append((j, v))
                    spanned = spanned.span_with([v])
        idxs = [j for j, _ in gens]
        d = presentation_matrix(alg, gens, N.act, N.dim)
        ker = left_kernel(d)
        assert d.nrows - ker.dim == N.dim and ker.is_subspace_of(projective_radical(alg, idxs))
        return idxs, projective_module(alg, idxs), d, ker

    res = Resolution(module=M)
    idxs, P, res.aug, ker = cover(M)
    res.summands.append(idxs)
    while ker.dim and len(res.maps) < max_len:
        incl = Mat.from_rows(alg.ring, ker.rows, P.dim)
        idxs, P, d, ker = cover(submodule(P, ker))
        res.summands.append(idxs)
        res.maps.append(d @ incl)
    res.complete = ker.dim == 0
    return res


# -- almost reports without the sample catalogue ----------------------------------


def standard_modules_fresh(alg):
    """The named sample modules as ``almost.standard_modules`` built them before
    the catalogue: a new dict of new modules on every call, with no memo."""
    from kbproj.algebra import (AlgebraError, FdModule, projective_module,
                                quotient_module, radical, regular_module)
    from kbproj.linalg import Mat

    out = {"R": regular_module(alg)}
    out["0"] = FdModule(alg, 0, [Mat.zeros(alg.ring, 0, 0)] * alg.dim, name="0")
    projs = []
    for i in range(alg.n_idempotents()):
        P = projective_module(alg, [i])
        out[f"P({alg.idempotent_names[i]})"] = P
        projs.append((i, P))
    try:
        rad = radical(alg)
    except AlgebraError:
        return out
    for i, P in projs:
        S = quotient_module(P, P.times_ideal(rad.space))
        nm = f"S({alg.idempotent_names[i]})"
        S.name = nm
        out[nm] = S
    return out


def serre_adjoint_report_fresh(alg, ideal):
    """``almost.serre_adjoint_report`` before the catalogue: every sample is
    built again, M/Ma and ann_M(a) are built for every M, even where they are
    M itself, and each of the four Hom dimensions per pair is computed."""
    from kbproj.algebra import hom_dim, quotient_module, regular_module, submodule
    from kbproj.almost import (AdjunctionCheck, SerreAdjointReport,
                               SerreFailureWitness, in_perp)
    from kbproj.linalg import Subspace

    if not ideal.is_idempotent():
        square = ideal.square()
        W = quotient_module(regular_module(alg), square.space)
        imgs = [square.space.quotient_coords(r) for r in ideal.space.rows]
        sub_space = Subspace.from_spanning(alg.ring, W.dim, imgs)
        Sub = submodule(W, sub_space)
        Quo = quotient_module(W, sub_space)
        witness = SerreFailureWitness(
            extension_dim=W.dim, sub_dim=Sub.dim, quotient_dim=Quo.dim,
            sub_killed=in_perp(Sub, ideal), quotient_killed=in_perp(Quo, ideal),
            extension_killed=in_perp(W, ideal))
        verdict = "refuted" if witness.exhibits_failure else "inconclusive"
        return SerreAdjointReport(False, verdict, [], witness)

    samples = standard_modules_fresh(alg)
    perp = {nm: N for nm, N in samples.items() if in_perp(N, ideal)}
    checks = []
    for mname, M in samples.items():
        Mco = quotient_module(M, M.times_ideal(ideal.space))
        Mre = submodule(M, M.annihilated_by(ideal.space))
        for nname, N in perp.items():
            co = (hom_dim(Mco, N), hom_dim(M, N))
            re = (hom_dim(N, Mre), hom_dim(N, M))
            checks.append(AdjunctionCheck(mname, nname, co, re,
                                          co[0] == co[1] and re[0] == re[1]))
    verdict = "certified" if all(c.ok for c in checks) else "inconclusive"
    return SerreAdjointReport(True, verdict, checks, None)


def almost_quotient_fresh(alg, e):
    """``almost.almost_quotient`` before the catalogue: new samples on every
    call, and M's corner image space computed again for each of its two tags."""
    from kbproj.algebra import (AlgebraPresentation, ideal_generated_by_idempotent,
                                quotient_module)
    from kbproj.almost import (AlmostError, AlmostQuotientReport, CornerFunctor,
                               ExactnessCheck)
    from kbproj.linalg import Subspace

    ring = alg.ring
    e = tuple(ring.parse(c) for c in e)
    if alg.mult(e, e) != e:
        raise AlmostError("corner element is not idempotent")
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
    functor = CornerFunctor(alg, e, corner, basis)

    samples = standard_modules_fresh(alg)
    dims = {nm: functor.apply(M).dim for nm, M in samples.items()}

    ideal = ideal_generated_by_idempotent(alg, e)
    checks = []
    for nm, M in samples.items():
        rho = M.action_of(e)
        for tag, space in (("ideal-image", M.times_ideal(ideal.space)),
                           ("ideal-kernel", M.annihilated_by(ideal.space))):
            Quo = quotient_module(M, space)
            me = functor.image_space(M)
            sub_e = Subspace.from_spanning(
                ring, M.dim, [rho.row_apply(list(r)) for r in space.rows])
            inter = me.intersect(space)
            quo_e_dim = functor.apply(Quo).dim
            checks.append(ExactnessCheck(
                f"{nm}/{tag}",
                sub_matches_kernel=(sub_e == inter),
                dims_additive=(me.dim - inter.dim == quo_e_dim)))
    verdict = "certified" if all(c.ok for c in checks) else "inconclusive"
    return AlmostQuotientReport(corner, functor, dims, checks, verdict)


def tensor_square_dim_by_coequalizer(alg, ideal):
    """dim a (x)_R a for a two-sided ideal a, as the coequalizer
    ``module_tensor`` builds: the cross-check ``AlmostCase`` once ran on its
    witnessed sum of corner dimensions.  The ideal is built as a bimodule and
    a right module through the validating constructors."""
    from kbproj.algebra import Bimodule, FdModule, module_tensor
    from kbproj.linalg import Mat

    ring, rows, d = alg.ring, ideal.space.rows, ideal.dim
    left, right = [], []
    for t in range(alg.dim):
        b = alg.basis_vec(t)
        left.append(Mat.from_rows(ring, [ideal.space.coords_of(alg.mult(b, r)) for r in rows], d))
        right.append(Mat.from_rows(ring, [ideal.space.coords_of(alg.mult(r, b)) for r in rows], d))
    B = Bimodule(alg, alg, d, left, right, name="a")
    M = FdModule(alg, d, right, name="a")
    return module_tensor(M, B).module.dim


def linearize(m):
    """The field-linear map of the summand matrix ``m`` on row vectors,
    source dim x target dim: each basis row v of a source summand goes to
    a.v, for each entry a of its column, in the basis of the row's summand."""
    from kbproj.linalg import Mat

    alg = m.alg
    src = [alg.right_ideal_space(j) for j in m.source_idems]
    tgt = [alg.right_ideal_space(i) for i in m.target_idems]
    row_off = [0, *accumulate(s.dim for s in src)]
    col_off = [0, *accumulate(s.dim for s in tgt)]
    items = {}
    for (r, c), a in m.nonzero_entries():
        for t, v in enumerate(src[c].rows):
            for w, x in enumerate(tgt[r].coords_of(alg.mult(a, v))):
                items[(row_off[c] + t, col_off[r] + w)] = x
    return Mat.from_entries(alg.ring, row_off[-1], col_off[-1], items)


def linear_to_algmat(alg, target_idems, source_idems, linmap):
    """Rewrite a linear map of projective sums as left multiplications, the
    way the resolution once read its differentials: from the images of the
    idempotent generators, each multiplied by its idempotent again, through
    the checking ``AlgMat(...)``, with the round trip through ``linearize``
    asserted."""
    from kbproj.homcat import AlgMat

    tgt_spaces = [alg.right_ideal_space(i) for i in target_idems]
    src_spaces = [alg.right_ideal_space(j) for j in source_idems]
    offs_t = [0, *accumulate(sp.dim for sp in tgt_spaces)]
    offs_s = [0, *accumulate(sp.dim for sp in src_spaces)]
    ents = {}
    for c, (j, sp) in enumerate(zip(source_idems, src_spaces)):
        gen = [alg.ring.zero] * linmap.nrows
        gen[offs_s[c]:offs_s[c + 1]] = sp.coords_of(alg.idempotent_vec(j))
        img = linmap.row_apply(gen)
        for r, tsp in enumerate(tgt_spaces):
            vec = alg.combine((cf, b) for cf, b in zip(img[offs_t[r]:offs_t[r + 1]], tsp.rows)
                              if cf)
            ents[(r, c)] = alg.mult(vec, alg.idempotent_vec(j))
    out = AlgMat(alg, tuple(target_idems), tuple(source_idems), ents)
    assert linearize(out) == linmap, "left-multiplication form does not reproduce the map"
    return out
