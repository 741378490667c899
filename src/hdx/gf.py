"""Arithmetic in GF(q) for prime powers q, plus the subspaces of GF(q)^n.

Elements are ints in [0, q); for q = p^m with m > 1 the int encodes the
coefficient vector of a polynomial over F_p (base-p digits, low degree
first), reduced modulo the lexicographically first monic irreducible
polynomial of degree m. Multiplication tables are precomputed, so q is
expected to stay small (q <= 16 in practice).
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations, product
from math import prod

import numpy as np

from .errors import NotPrimePower


def factor_prime_power(q: int):
    """(p, m) with q = p^m, or raise NotPrimePower."""
    p = next((p for p in range(2, q + 1) if q % p == 0), 0)  # the least divisor > 1 is prime
    n, m = q, 0
    while p and n % p == 0:
        n, m = n // p, m + 1
    if n != 1 or not m:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, m


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_mod(a, mod, p):
    a = list(a)
    while len(a) >= len(mod):
        c, shift = a[-1] * pow(mod[-1], -1, p) % p, len(a) - len(mod)
        for i, x in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _find_irreducible(p, m):
    """Lexicographically first monic irreducible polynomial of degree m: the
    first that no monic polynomial of degree 1..m/2 divides."""
    for tail in product(range(p), repeat=m):
        poly = [*tail, 1]
        if all(_poly_mod(poly, [*g, 1], p) != [0]
               for deg in range(1, m // 2 + 1) for g in product(range(p), repeat=deg)):
            return poly
    raise NotPrimePower(f"no irreducible polynomial of degree {m} over F_{p}")


class GF:
    """The field with q elements; elements are ints below q."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.m = factor_prime_power(q)
        # for m = 1 the polynomials are constants and the modulus is x
        irr = _find_irreducible(self.p, self.m)
        polys = [self._decode(a) for a in range(q)]
        self._add = [
            [self._encode([(x + y) % self.p for x, y in zip(pa, pb)]) for pb in polys]
            for pa in polys
        ]
        self._neg = [self._encode([(-x) % self.p for x in pa]) for pa in polys]
        self._mul = [
            [self._encode(_poly_mod(_poly_mul(pa, pb, self.p), irr, self.p)) for pb in polys]
            for pa in polys
        ]
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

    def _decode(self, a):
        return [a // self.p ** i % self.p for i in range(self.m)]

    def _encode(self, digits):
        return sum(d % self.p * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self._inv[a]

    def elements(self):
        return range(self.q)


# -- echelon forms and subspaces over GF(q) ---------------------------------------


def rref(gf: GF, rows):
    """Reduced row echelon form; returns the tuple of nonzero rows."""
    R, rix = [list(r) for r in rows], 0
    for col in range(len(R[0]) if R else 0):
        piv = next((i for i in range(rix, len(R)) if R[i][col]), None)
        if piv is None:
            continue
        R[rix], R[piv] = R[piv], R[rix]
        inv = gf.inv(R[rix][col])
        R[rix] = [gf.mul(inv, x) for x in R[rix]]
        for i, row in enumerate(R):
            if i != rix and row[col]:
                R[i] = [gf.sub(x, gf.mul(row[col], y)) for x, y in zip(row, R[rix])]
        rix += 1
    return tuple(tuple(r) for r in R[:rix])


def all_subspaces(gf: GF, n: int, r: int):
    """Every r-dimensional subspace of GF(q)^n as a canonical RREF tuple.

    Enumerates echelon patterns directly: choose pivot columns, then fill
    the free positions (right of the pivot, outside pivot columns) with
    arbitrary field elements. Each subspace shows up exactly once.
    """
    out = []
    for pivots in combinations(range(n), r):
        free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, n) if j not in pivots]
        for fill in product(range(gf.q), repeat=len(free)):
            M = [[int(j == p) for j in range(n)] for p in pivots]
            for (i, j), val in zip(free, fill):
                M[i][j] = val
            out.append(tuple(map(tuple, M)))
    return out


def subset_chains(n: int) -> list:
    """Nonempty chains of proper nonempty subsets of range(n), strictly increasing.

    These are the faces of the model apartment of a building on GF(q)^n: a
    frame of n lines maps each subset to the span of its lines, so the list
    is built once per n.
    """
    subsets = [s for r in range(1, n) for s in combinations(range(n), r)]
    out = []

    def extend(c):
        out.append(c)
        for s in subsets:
            if set(c[-1]) < set(s):
                extend(c + (s,))

    for s in subsets:
        extend((s,))
    return out


def subspace_token(basis) -> str:
    """Serialize an RREF basis as S[row;row;...] with hex digits per entry."""
    return "S[" + ";".join("".join(format(x, "x") for x in row) for row in basis) + "]"



def line_images(gf: GF, n: int, mats) -> np.ndarray:
    """(S, L) int64: for each of the S n x n matrices M over GF(q) and each of
    the L lines of GF(q)^n, with echelon row v, the line of v M; L where v M
    is zero. Lines are numbered in `all_subspaces(gf, n, 1)` order, and a
    vector's line is looked up by the base-q key of any nonzero multiple."""
    q, add, mul = gf.q, np.array(gf._add), np.array(gf._mul)
    rows, M = np.array(all_subspaces(gf, n, 1))[:, 0], np.array(mats)
    radix = q ** np.arange(n)[::-1]
    line_at = np.full(q ** n, len(rows))
    for c in range(1, q):
        line_at[mul[c, rows] @ radix] = range(len(rows))
    img = 0
    for i in range(n):  # img[s, l] = rows[l] M_s
        img = add[img, mul[rows[None, :, i, None], M[:, None, i, :]]]
    return line_at[img @ radix]


def subspace_tables(gf: GF, n: int):
    """(bases, lines, up, join) over the proper nonzero subspaces of GF(q)^n,
    numbered by rank and in `all_subspaces` order within a rank, lines first:

    - bases[U] is U's RREF basis;
    - lines[U, l] says whether line l lies in U;
    - up[U] lists the subspaces of rank r + 1 containing U, ascending;
    - join[U, l] is the span of U and line l: U when l lies in U, the one W
      of up[U] holding l otherwise, and len(bases) when that span is GF(q)^n.

    No echelon form is taken. The lines of U are the `line_images` under U's
    basis padded with zero rows to n x n: v M runs over U's vectors as v runs
    over the lines.
    """
    bases = [s for r in range(1, n) for s in all_subspaces(gf, n, r)]
    padded = np.zeros((len(bases), n, n), dtype=np.int64)
    for U, b in enumerate(bases):
        padded[U, :len(b)] = b
    images = line_images(gf, n, padded)
    lines = (images[..., None] == np.arange(images.shape[1])).any(axis=1)
    size = lines.sum(axis=1)  # (q^r - 1) / (q - 1) lines in rank r
    cover = (lines[:, None] <= lines).all(axis=2) & (gf.q * size[:, None] + 1 == size)
    join = np.where(lines, np.arange(len(bases))[:, None], len(bases))
    u, w = cover.nonzero()
    e, line = (lines[w] > lines[u]).nonzero()
    join[u[e], line] = w[e]
    return bases, lines, [np.flatnonzero(row).tolist() for row in cover], join


def frame_spans(join, n: int):
    """(frames, span) over the numbering of `subspace_tables`, join being its join
    table: frames is the (F, n) array of the ascending n-sets of lines that span
    GF(q)^n, in lexicographic order, and span[s] the (F,) subspace numbers of the
    spans of lines s of each frame, s over the proper nonempty subsets of range(n).

    Each span is one gather over every n-set of lines at once:
    span(S) = join[span(S minus its last line), that line].
    """
    lines = np.array(list(combinations(range(join.shape[1]), n)))
    span = {}
    for s in (s for r in range(1, n + 1) for s in combinations(range(n), r)):
        span[s] = join[span[s[:-1]], lines[:, s[-1]]] if s[1:] else lines[:, s[0]]
    frame = span.pop(tuple(range(n))) == len(join)
    return lines[frame], {s: at[frame] for s, at in span.items()}


# -- the group PGL(n, q) -----------------------------------------------------------


def transvections(n: int, scalars) -> list:
    """The elementary matrices E_ij(a) = I + a e_ij for i != j, a in scalars."""
    out = []
    for i, j in permutations(range(n), 2):
        for a in scalars:
            out.append(np.eye(n, dtype=np.int64))
            out[-1][i, j] = a
    return out


def primitive_element(gf: GF) -> int:
    """The least generator of the multiplicative group GF(q)^x, for q > 2:
    the least a whose powers a, ..., a^(q-1) are distinct."""
    return next(a for a in range(2, gf.q)
                if len(set(accumulate([a] * (gf.q - 1), gf.mul))) == gf.q - 1)


def pgl_order(n: int, q: int) -> int:
    """|PGL(n, q)| = prod_{i<n} (q^n - q^i) / (q - 1)."""
    return prod(q ** n - q ** i for i in range(n)) // (q - 1)
