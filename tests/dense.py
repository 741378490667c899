"""Dense integer matrices for the tests: the helpers the library's sparse layer
replaced, kept as oracles, and the sparse Smith transforms read densely."""

from hdx import intmat


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    M = zeros(n, n)
    for i in range(n):
        M[i][i] = 1
    return M


def mat_mul(A, B):
    """A @ B, summing over the nonzeros of both factors."""
    n = len(B[0])
    B_nz = [[(j, b) for j, b in enumerate(row) if b] for row in B]
    out = []
    for Ai in A:
        Oi = [0] * n
        for k, a in enumerate(Ai):
            if a:
                for j, b in B_nz[k]:
                    Oi[j] += a * b
        out.append(Oi)
    return out


def mat_vec(A, v):
    """A @ v, reading only the nonzeros of v."""
    v_nz = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in v_nz) for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def diagonal(d, m, n):
    """The m x n matrix whose diagonal starts with d and is zero elsewhere."""
    S = zeros(m, n)
    for i, v in enumerate(d):
        S[i][i] = v
    return S


def dense_smith(M, inverse=False):
    """`intmat.smith_normal_form` of the dense matrix M with its transforms
    dense: (U, d, V), and U^-1 after them with inverse=True. U comes as
    {column: value} rows, V and U^-1 as {row: value} columns."""
    m = len(M)
    n = len(M[0]) if m else 0
    U, d, V, *Uinv = intmat.smith_normal_form(M, inverse=inverse)
    out = (intmat.dense_rows(U, m), d, transpose(intmat.dense_rows(V, n)))
    return out + tuple(transpose(intmat.dense_rows(C, m)) for C in Uinv)


def dense_unit_echelon(M):
    """`intmat.unit_echelon` of the dense matrix M read densely: (P, I + L, H),
    P the permutation matrix taking M's rows to H's order, or None."""
    m, n = len(M), len(M[0])
    echelon = intmat.unit_echelon(M)
    if echelon is None:
        return None
    order, H, L = echelon
    P = [[int(j == order[i]) for j in range(m)] for i in range(m)]
    IL = [[L[i].get(t, int(t == i)) for t in range(m)] for i in range(m)]
    return P, IL, intmat.dense_rows(H, n)
