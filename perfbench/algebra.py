"""Small exact helpers the benchmark uses to make inputs and to check answers.

They read only a complex's faces and weights, and recompute everything else
themselves, so an answer check does not rest on the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod

from hdx.complexes import build_complex


def relabel(X, rng):
    """X with its vertex tokens renamed by a random permutation."""
    verts = list(X.vertices())
    names = [f"v{i:02d}" for i in range(len(verts))]
    rng.shuffle(names)
    rename = dict(zip(verts, names))
    return build_complex([[rename[v] for v in top] for top in X.top_faces])


def norm_num(X, k, vec):
    """Numerator of the norm of a k-cochain vector (denominator: weight_denominator)."""
    return sum(X.deg_top(f) for f, v in zip(X.faces(k), vec) if v)


def delta(X, k):
    """Coboundary matrix C^k -> C^{k+1}: rows (k+1)-faces, columns k-faces."""
    col = {f: j for j, f in enumerate(X.faces(k))}
    rows = []
    for tau in X.faces(k + 1):
        row = [0] * len(col)
        for i in range(len(tau)):
            row[col[tau[:i] + tau[i + 1:]]] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def diagonal(M):
    """Nonzero diagonal entries of an integer diagonal form of M (U M V, U, V unimodular)."""
    A = [list(r) for r in M]
    out = []
    while A and A[0]:
        nz = [(abs(x), i, j) for i, r in enumerate(A) for j, x in enumerate(r) if x]
        if not nz:
            break
        _, i, j = min(nz)
        A[0], A[i] = A[i], A[0]
        for r in A:
            r[0], r[j] = r[j], r[0]
        p = A[0][0]
        clean = True
        for r in A[1:]:
            q = r[0] // p
            if q:
                for c in range(len(r)):
                    r[c] -= q * A[0][c]
            clean &= r[0] == 0
        for c in range(1, len(A[0])):
            q = A[0][c] // p
            if q:
                for r in A:
                    r[c] -= q * r[0]
            clean &= A[0][c] == 0
        if clean:
            out.append(abs(p))
            A = [r[1:] for r in A[1:]]
    return out


def image_order(M, n):
    """Number of elements of the column span of M over Z/n."""
    return prod(n // gcd(d, n) for d in diagonal(M))


def subgroup_order(X, n, k, target):
    """|B^k| or |Z^k| of X over Z/n (n prime: over F_n)."""
    nk = len(X.faces(k))
    if target == "coboundaries":
        return n if k == 0 else image_order(delta(X, k - 1), n)
    if k == X.dim:
        return n ** nk
    return n ** nk // image_order(delta(X, k), n)


def _span_mod(gens, p, width):
    vecs = set()
    for coeffs in product(range(p), repeat=len(gens)):
        vecs.add(tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % p for i in range(width)))
    return vecs


def _independent(cols, p):
    """A maximal subset of cols independent mod p (so their span is enumerable)."""
    basis, rows = [], []
    for col in cols:
        v = [x % p for x in col]
        for piv, r in rows:
            if v[piv]:
                f = v[piv] * pow(r[piv], -1, p)
                v = [(a - f * b) % p for a, b in zip(v, r)]
        if any(v):
            rows.append((next(i for i, x in enumerate(v) if x), v))
            basis.append(col)
    return basis


def coset_floor(X, k, vec):
    """max over p in (2, 3) of the F_p distance of vec from B^k: a floor for the Z one."""
    D = delta(X, k - 1)
    cols = [tuple(r[j] for r in D) for j in range(len(D[0]))]
    best = Fraction(0)
    for p in (2, 3):
        group = _span_mod(_independent(cols, p), p, len(vec))
        num = min(
            sum(X.deg_top(f) for f, a, b in zip(X.faces(k), vec, g) if (a - b) % p)
            for g in group
        )
        best = max(best, Fraction(num, X.weight_denominator(k)))
    return best


def lattice_floor(X, k, gens):
    """max over p in (2, 3) of the least mod-p norm of a nonzero combination of gens."""
    best = None
    for p in (2, 3):
        low = min(
            norm_num(X, k, [sum(c * g[i] for c, g in zip(coeffs, gens)) % p
                            for i in range(len(gens[0]))])
            for coeffs in product(range(p), repeat=len(gens))
            if any(coeffs)
        )
        low = Fraction(low, X.weight_denominator(k))
        best = low if best is None or low > best else best
    return best


def disjoint_supports(gens):
    supports = [{i for i, v in enumerate(g) if v} for g in gens]
    return all(not (a & b) for i, a in enumerate(supports) for b in supports[i + 1:])
