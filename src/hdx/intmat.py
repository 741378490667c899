"""Exact integer and modular linear algebra on sparse integer matrices.

Matrices are lists of lists of Python ints or their sparse {column: value}
rows, so everything is arbitrary precision. Every reader but `rank_int`, which
takes a dense matrix, takes M as `rows_of` does: a dense matrix, converted
once, or, with its width, the rows a caller built from its own index (as
`cochains.delta_rows` builds delta), copied without explicit zeros, so a
caller's rows are never reduced in place. The Smith normal form is the
classical elimination run on sparse rows: each operation touches only nonzero
entries, and the transforms it returns are its own sparse ones, equal entry
for entry to those of the dense algorithm. It returns (U, d, V): U as
{column: value} rows, V as {row: value} columns, and the nonzero invariant
factors d, whose length is the rank.

Integer solves and ranks first try `_unit_reduce`, a unit-pivot elimination on
sparse rows that builds no U and no V and carries right-hand sides through its
row operations; only a matrix with a column of non-unit candidate pivots pays
for a Smith form. `unit_echelon` records the multipliers of those row
operations instead, (I + L) @ H = P @ M with I + L unit lower-triangular, and
`lattice.smith_profile` certifies that record. Integer kernels and image bases
read V. Over F_p, `rref_mod_p` and `kernel_mod_p` eliminate on the sparse rows
and return sparse rows. The one product is `combine`, a sum of sparse vectors
that reads only nonzeros.
"""

from __future__ import annotations


def _add_to(dst, src, c):
    """dst += c * src on {index: value} dicts, c nonzero; cancelled entries
    leave dst, so every stored value is nonzero."""
    get = dst.get
    for k, v in src.items():
        x = get(k, 0) + c * v
        if x:
            dst[k] = x
        else:
            del dst[k]


def combine(coeffs, vecs):
    """The sum of c * vecs[k] over the {k: c} items of coeffs, vecs being
    {index: value} dicts, as the dict of its nonzero entries."""
    out = {}
    get = out.get
    for k, c in coeffs.items():
        for j, v in vecs[k].items():
            out[j] = get(j, 0) + c * v
    return {j: v for j, v in out.items() if v}


def columns_of(rows, n):
    """The n {row: value} columns of the sparse rows of a matrix of width n."""
    cols = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def smith_normal_form(M, width=None, *, inverse=False):
    """Return (U, d, V): U @ M @ V is zero but for its diagonal, which
    starts with the invariant factors d = [d_1, ..., d_r], d_1 | d_2 | ...

    M is read as by `rows_of`. U and V are unimodular, every d_i is positive
    and r = len(d) is the rank of M. With inverse=True, also return U^-1,
    taken from the same row operations.

    The elimination runs on sparse rows, and an operation touches only the
    nonzeros it reads. The transforms are returned as it builds them: U a
    list of {column: value} rows, V and U^-1 lists of {row: value} columns.
    """
    A, n = rows_of(M, width)
    m = len(A)
    U = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]
    Uinv = [{i: 1} for i in range(m)] if inverse else None

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        if inverse:
            Uinv[i], Uinv[j] = Uinv[j], Uinv[i]

    def add_row(src, dst, c):
        # row dst += c * row src; on U^-1, column src -= c * column dst
        _add_to(A[dst], A[src], c)
        _add_to(U[dst], U[src], c)
        if inverse:
            _add_to(Uinv[src], Uinv[dst], -c)

    def swap_cols(t, j):
        # rows above t are zero in both columns; returns the rows that are
        # nonzero in the new column t
        V[t], V[j] = V[j], V[t]
        rows = []
        for r in range(t, m):
            row = A[r]
            x = row.pop(t, 0)
            y = row.pop(j, 0)
            if y:
                row[t] = y
                rows.append(r)
            if x:
                row[j] = x
        return rows

    t = 0
    while t < min(m, n):
        # move the smallest nonzero entry of the trailing block to (t, t); the
        # first entry of absolute value 1 is that row-major-first minimum.
        # Rows from t on are zero left of column t.
        pivot = None
        best = 0
        for i in range(t, m):
            row = A[i]
            if row:
                a = min(map(abs, row.values()))
                if pivot is None or a < best:
                    pivot = (i, min(j for j, v in row.items() if abs(v) == a))
                    best = a
                    if a == 1:
                        break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            dirty = False
            # an operation on row i leaves the rows below it alone
            for i in [i for i in range(t + 1, m) if t in A[i]]:
                q = A[i][t] // A[t][t]
                if q:
                    add_row(t, i, -q)
                if t in A[i]:
                    swap_rows(t, i)
                    dirty = True
            # an operation on column j leaves the columns right of it alone;
            # only the rows nonzero in column t take part in column t's
            # operations, and a swap changes which rows those are
            cols = sorted(j for j in A[t] if j > t)
            rows = [r for r in range(t, m) if t in A[r]] if cols else []
            for j in cols:
                a = A[t].get(j)
                if not a:
                    continue
                q = a // A[t][t]
                if q:
                    for r in rows:
                        row = A[r]
                        x = row.get(j, 0) - q * row[t]
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    _add_to(V[j], V[t], -q)
                if j in A[t]:
                    rows = swap_cols(t, j)
                    dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything. Rows below t are zero up to column t.
        p = A[t][t]
        fixed = True
        if abs(p) != 1:
            for i in range(t + 1, m):
                if any(v % p for v in A[i].values()):
                    add_row(i, t, 1)
                    fixed = False
                    break
        if fixed:
            t += 1

    # A is diagonal now, its nonzero entries first
    d = []
    for i in range(t):
        a = A[i][i]
        if a < 0:
            V[i] = {r: -v for r, v in V[i].items()}
        d.append(abs(a))
    if inverse:
        return U, d, V, Uinv
    return U, d, V


def rows_of(M, width=None):
    """(rows, n): fresh {column: value} rows of M's nonzeros and its width n; M is
    a dense matrix, or, with its width given, such rows, copied without any
    explicit zeros they hold."""
    if width is not None:
        return [dict(row) if all(row.values()) else {j: v for j, v in row.items() if v}
                for row in M], width
    return [{j: v for j, v in enumerate(row) if v} for row in M], len(M[0]) if M else 0


def dense_rows(rows, n):
    """The dense matrix of n columns whose rows are the sparse rows."""
    out = []
    for row in rows:
        dense = [0] * n
        for j, v in row.items():
            dense[j] = v
        out.append(dense)
    return out


def _unit_reduce(rows, n, mults=None):
    """Row echelon form by unit-pivot row operations, or None.

    The one kernel: rows are {column: value} dicts of nonzeros, reduced in place,
    keys below the width n the matrix and keys from n on carried entries that
    every row operation applies to. Column by column, the pivot is the first
    entry of absolute value 1 at or below the current row; a column with no
    entry there is free, and one whose entries there are all non-units ends the
    attempt with None. Returns (rows, order, pivots): the reduced rows, order[i]
    the input row that ended at position i, and the pivot columns. Given mults,
    one {position: multiplier} dict per row, each operation row_i -= f * row_t
    is recorded as mults[i][t] = f, and mults is swapped along with the rows.
    """
    m = len(rows)
    order = list(range(m))
    pivots = []
    t = 0
    for c in range(n):
        if t == m:
            break
        hits = [i for i in range(t, m) if c in rows[i]]
        if not hits:
            continue
        p = next((i for i in hits if rows[i][c] in (1, -1)), None)
        if p is None:
            return None
        rows[t], rows[p] = rows[p], rows[t]
        order[t], order[p] = order[p], order[t]
        if mults is not None:
            mults[t], mults[p] = mults[p], mults[t]
        pivot = rows[t]
        s = pivot[c]
        for i in hits:
            if i != p:
                # the row that was at t now sits at p
                i = p if i == t else i
                f = rows[i][c] * s
                _add_to(rows[i], pivot, -f)
                if mults is not None:
                    mults[i][t] = f
        pivots.append(c)
        t += 1
    return rows, order, pivots


def unit_echelon(M, width=None):
    """(order, H, L) with (I + L) @ H = P @ M, from the unit-pivot elimination of
    M, or None when M needs a Smith form. M is read as by `rows_of` and not
    changed; row i of P @ M is row order[i] of M.

    H is sparse rows in row echelon form with pivots of absolute value 1. L is
    the record of the row operations, L[i] = {t: f} for row_i -= f * row_t with
    t < i, so I + L is unit lower-triangular: row order[i] of M is H[i] plus
    f * H[t] over the items of L[i]. Nothing is checked here:
    `lattice.smith_profile` certifies the triple.
    """
    rows, n = rows_of(M, width)
    L = [{} for _ in rows]
    reduced = _unit_reduce(rows, n, L)
    if reduced is None:
        return None
    return reduced[1], rows, L


def rank_int(M):
    reduced = _unit_reduce(*rows_of(M))
    return len(smith_normal_form(M)[1] if reduced is None else reduced[2])


def solve_int(M, b, width=None):
    """One integer solution x of M x = b, M read as by `rows_of`, or None if unsolvable."""
    return solve_int_columns(M, [b], width)[0]


def solve_int_columns(M, bs, width=None):
    """solve_int(M, b) for every dense b in bs, from one reduction of M, unchanged.

    The unit-pivot elimination carries the bs through its row operations: b is
    unsolvable exactly when its carried entries below the rank are not all
    zero, and otherwise back-substitution with the free variables at 0 is
    integral, the pivots being units. M that needs a Smith form is solved
    through one: c = U b must vanish below the rank and be divisible by d
    above it, and x = V (c / d).
    """
    rows, n = rows_of(M, width)
    for s, b in enumerate(bs):
        for i, v in enumerate(b):
            if v:
                rows[i][n + s] = v
    reduced = _unit_reduce(rows, n)
    if reduced is None:
        U, d, V = smith_normal_form(M, width)
        out = []
        for b in bs:
            c = [sum(u * b[i] for i, u in row.items()) for row in U]
            solvable = not any(c[len(d):]) and not any(ci % di for ci, di in zip(c, d))
            x = combine({j: ci // di for j, (ci, di) in enumerate(zip(c, d))}, V)
            out.append(dense_rows([x], n)[0] if solvable else None)
        return out
    rows, _, pivots = reduced
    r = len(pivots)
    below = set().union(*rows[r:])
    # row i: its pivot, the entries right of it, and its carried entries
    steps = [(c, rows[i][c], [(j, a) for j, a in rows[i].items() if c < j < n], rows[i])
             for i, c in reversed(list(enumerate(pivots)))]
    out = []
    for s in range(len(bs)):
        if n + s in below:
            out.append(None)
            continue
        x = [0] * n
        for c, p, right, row in steps:
            # p is +-1, its own inverse
            x[c] = p * (row.get(n + s, 0) - sum(a * x[j] for j, a in right))
        out.append(x)
    return out


def kernel_int(M, width=None):
    """Basis (list of columns) of the integer kernel of M, read as by `rows_of`:
    the columns of V past the rank."""
    _, d, V = smith_normal_form(M, width)
    return dense_rows(V[len(d):], len(V))


def _add_mod(dst, src, c, p):
    """dst += c * src mod p on {index: value} dicts, c a unit mod the prime p."""
    for k, v in src.items():
        x = (dst.get(k, 0) + c * v) % p
        if x:
            dst[k] = x
        else:
            del dst[k]


def rref_mod_p(M, p, width=None):
    """Reduced row echelon form mod p of M, read as by `rows_of`: (basis, pivots),
    the nonzero rows as {column: value} rows in pivot order and their pivot columns.

    Rows enter one at a time: cleared at the pivots found so far, a nonzero row
    is scaled to 1 at its first column, which is then cleared from the earlier
    pivot rows. The reduced form of a row space is unique, so this is the one
    the dense Gauss-Jordan elimination gives.
    """
    basis = {}
    for row in rows_of(M, width)[0]:
        r = {j: x for j, v in row.items() if (x := v % p)}
        for c in [c for c in r if c in basis]:
            _add_mod(r, basis[c], -r[c], p)
        if r:
            c = min(r)
            inv = pow(r[c], -1, p)
            r = {j: v * inv % p for j, v in r.items()}
            for b in basis.values():
                if c in b:
                    _add_mod(b, r, -b[c], p)
            basis[c] = r
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def kernel_mod_p(M, p, width=None):
    """Basis of the kernel of M mod p, read as by `rows_of`, as {column: value}
    rows: per free column j of the echelon form, 1 at j and minus column j of
    the echelon rows at their pivots."""
    rows, n = rows_of(M, width)
    basis, pivots = rref_mod_p(rows, p, n)
    out = {j: {j: 1} for j in range(n)}
    for b, c in zip(basis, pivots):
        for j, v in b.items():
            out[j][c] = -v % p
        del out[c]
    return list(out.values())


def image_basis_int(M, width=None):
    """Integer lattice basis of the column space of M, read as by `rows_of`
    (list of columns)."""
    rows, n = rows_of(M, width)
    _, d, V = smith_normal_form(rows, n)
    # M V = U^-1 diag(d), so its first r columns are those of U^-1 times d_j
    cols = columns_of(rows, n)
    return dense_rows([combine(V[j], cols) for j in range(len(d))], len(rows))
