"""Exact integer and modular linear algebra on small dense matrices.

Matrices are lists of lists of Python ints, so everything is arbitrary
precision. Provides Smith normal form with unimodular transforms, integer
and mod-n linear solves, integer kernel bases, and reduced row echelon form
over a prime field. Sizes here are tiny (at most a few hundred rows), so the
classical algorithms are the right tool.
"""

from __future__ import annotations

from math import gcd

from .errors import PropertyViolation


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_mul(A, B):
    m, n = len(A), len(B[0])
    inner = len(B)
    out = zeros(m, n)
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(n):
                    Oi[j] += a * Bk[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def smith_normal_form(M):
    """Return (U, S, V) with U @ M @ V == S diagonal, d_1 | d_2 | ...

    U and V are unimodular; diagonal entries are nonnegative.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        # move the smallest nonzero entry of the trailing block to (t, t); the
        # first entry of absolute value 1 is that row-major-first minimum
        pivot = None
        best = 0
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = abs(Ai[j])
                if a and (pivot is None or a < best):
                    pivot, best = (i, j), a
                    if a == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything
        p = A[t][t]
        fixed = True
        if abs(p) != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % p:
                        add_row(i, t, 1)
                        fixed = False
                        break
                if not fixed:
                    break
        if fixed:
            t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            for row in A:
                row[i] = -row[i]
            for row in V:
                row[i] = -row[i]
    return U, A, V


def snf_diagonal(S):
    out = []
    for i in range(min(len(S), len(S[0]) if S else 0)):
        if S[i][i]:
            out.append(S[i][i])
    return out


def rank_int(M):
    if not M or not M[0]:
        return 0
    _, S, _ = smith_normal_form(M)
    return len(snf_diagonal(S))


def solve_int(M, b):
    """One integer solution x of M x = b, or None when unsolvable."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0:
        return [0] * n
    U, S, V = smith_normal_form(M)
    c = mat_vec(U, b)
    y = [0] * n
    r = len(snf_diagonal(S))
    for i in range(m):
        si = S[i][i] if i < min(m, n) else 0
        if i < r:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return mat_vec(V, y)


def kernel_int(M):
    """Basis (list of columns) of the integer kernel of M."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [col for col in identity(n)]
    _, S, V = smith_normal_form(M)
    r = len(snf_diagonal(S))
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def solve_mod(M, b, n_mod):
    """One solution x of M x = b (mod n_mod), or None when unsolvable."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0:
        return [0] * n
    U, S, V = smith_normal_form(M)
    c = [v % n_mod for v in mat_vec(U, b)]
    y = [0] * n
    for i in range(m):
        si = S[i][i] if i < min(m, n) else 0
        ci = c[i]
        if si == 0:
            if ci % n_mod:
                return None
            continue
        g = gcd(si, n_mod)
        if ci % g:
            return None
        ni = n_mod // g
        inv = pow((si // g) % ni, -1, ni) if ni > 1 else 0
        y[i] = ((ci // g) * inv) % n_mod if ni > 1 else 0
    return [v % n_mod for v in mat_vec(V, y)]


def rref_mod_p(rows, p):
    """Reduced row echelon form mod p. Returns (basis_rows, pivot_columns)."""
    R = [[v % p for v in row] for row in rows]
    n = len(R[0]) if R else 0
    pivots = []
    col = 0
    rix = 0
    while rix < len(R) and col < n:
        piv = None
        for i in range(rix, len(R)):
            if R[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        R[rix], R[piv] = R[piv], R[rix]
        inv = pow(R[rix][col], -1, p)
        R[rix] = [(v * inv) % p for v in R[rix]]
        for i in range(len(R)):
            if i != rix and R[i][col]:
                c = R[i][col]
                R[i] = [(a - c * b) % p for a, b in zip(R[i], R[rix])]
        pivots.append(col)
        rix += 1
        col += 1
    return R[: len(pivots)], pivots


def kernel_mod_p(M, p):
    """Basis of the kernel of M mod p (list of vectors)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [row[:] for row in identity(n)]
    basis, pivots = rref_mod_p(M, p)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for bi, pc in zip(basis, pivots):
            v[pc] = (-bi[j]) % p
        out.append(v)
    return out


def solve_mod_p(M, b, p):
    """One solution of M x = b (mod p) over the prime field, or None."""
    m = len(M)
    n = len(M[0]) if m else 0
    aug = [[M[i][j] % p for j in range(n)] + [b[i] % p] for i in range(m)]
    basis, pivots = rref_mod_p(aug, p)
    x = [0] * n
    for row, pc in zip(basis, pivots):
        if pc == n:
            return None
        x[pc] = row[n]
    return x


def image_basis_int(M):
    """Integer lattice basis of the column space of M (list of columns)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0 or n == 0:
        return []
    _, S, V = smith_normal_form(M)
    # M V = U^-1 S, so its first r columns are the columns of U^-1 times d_j
    MV = mat_mul(M, V)
    return [[MV[i][j] for i in range(m)] for j in range(len(snf_diagonal(S)))]


def invert_unimodular(U):
    """Exact inverse of a unimodular integer matrix."""
    from fractions import Fraction

    n = len(U)
    A = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(U)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if A[i][col])
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for i in range(n):
            if i != col and A[i][col]:
                c = A[i][col]
                A[i] = [a - c * b for a, b in zip(A[i], A[col])]
    out = [[v for v in row[n:]] for row in A]
    if any(v.denominator != 1 for row in out for v in row):
        raise PropertyViolation("inverse of a unimodular matrix is not integral")
    return [[int(v) for v in row] for row in out]
