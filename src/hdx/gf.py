"""Arithmetic in GF(q) for prime powers q, plus echelon forms over it.

Elements are ints in [0, q); for q = p^m with m > 1 the int encodes the
coefficient vector of a polynomial over F_p (base-p digits, low degree
first), reduced modulo the lexicographically first monic irreducible
polynomial of degree m. Multiplication tables are precomputed, so q is
expected to stay small (q <= 16 in practice).
"""

from __future__ import annotations

from itertools import product

from .errors import NotPrimePower
from .rings import is_prime


def factor_prime_power(q: int):
    """(p, m) with q = p^m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if is_prime(p) and q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, m
    raise NotPrimePower(f"{q} is not a prime power")


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            inv = pow(mod[-1], -1, p)
            c = (lead * inv) % p
            for i, x in enumerate(mod):
                a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _find_irreducible(p, m):
    """Lexicographically first monic irreducible polynomial of degree m."""
    for tail in product(range(p), repeat=m):
        poly = list(tail) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise NotPrimePower(f"no irreducible polynomial of degree {m} over F_{p}")


def _is_irreducible(poly, p):
    m = len(poly) - 1
    for deg in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=deg):
            g = list(tail) + [1]
            if len(_poly_mod(poly, g, p)) == 1 and _poly_mod(poly, g, p)[0] == 0:
                return False
    return True


class GF:
    """The field with q elements; elements are ints below q."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.m = factor_prime_power(q)
        if self.m == 1:
            self._mul = [[(a * b) % q for b in range(q)] for a in range(q)]
            self._add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self._neg = [(-a) % q for a in range(q)]
        else:
            irr = _find_irreducible(self.p, self.m)
            polys = [self._decode(a) for a in range(q)]
            self._add = [
                [self._encode([(x + y) % self.p for x, y in zip(pa, pb)]) for pb in polys]
                for pa in polys
            ]
            self._neg = [self._encode([(-x) % self.p for x in pa]) for pa in polys]
            self._mul = [
                [
                    self._encode(_poly_mod(_poly_mul(pa, pb, self.p), irr, self.p))
                    for pb in polys
                ]
                for pa in polys
            ]
        self._inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def _decode(self, a):
        digits = []
        for _ in range(self.m):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + (d % self.p)
        return a

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
    R = [list(r) for r in rows]
    n = len(R[0]) if R else 0
    rix = 0
    for col in range(n):
        piv = None
        for i in range(rix, len(R)):
            if R[i][col]:
                piv = i
                break
        if piv is None:
            continue
        R[rix], R[piv] = R[piv], R[rix]
        inv = gf.inv(R[rix][col])
        R[rix] = [gf.mul(inv, x) for x in R[rix]]
        for i in range(len(R)):
            if i != rix and R[i][col]:
                c = R[i][col]
                R[i] = [gf.sub(x, gf.mul(c, y)) for x, y in zip(R[i], R[rix])]
        rix += 1
        if rix == len(R):
            break
    return tuple(tuple(r) for r in R[:rix] if any(r))


def row_space_contains(gf: GF, basis, vec) -> bool:
    """Whether vec reduces to zero against an RREF basis."""
    v = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [gf.sub(x, gf.mul(c, y)) for x, y in zip(v, row)]
    return not any(v)


def subspace_le(gf: GF, U, W) -> bool:
    """Whether the subspace with RREF basis U sits inside the one of W."""
    return all(row_space_contains(gf, W, u) for u in U)


def all_subspaces(gf: GF, n: int, r: int):
    """Every r-dimensional subspace of GF(q)^n as a canonical RREF tuple.

    Enumerates echelon patterns directly: choose pivot columns, then fill
    the free positions (right of the pivot, outside pivot columns) with
    arbitrary field elements. Each subspace shows up exactly once.
    """
    from itertools import combinations

    out = []
    for pivots in combinations(range(n), r):
        free = []
        for i in range(r):
            for j in range(pivots[i] + 1, n):
                if j not in pivots:
                    free.append((i, j))
        for fill in product(range(gf.q), repeat=len(free)):
            M = [[0] * n for _ in range(r)]
            for i in range(r):
                M[i][pivots[i]] = 1
            for (i, j), val in zip(free, fill):
                M[i][j] = val
            out.append(tuple(tuple(row) for row in M))
    return out


def subspace_token(basis) -> str:
    """Serialize an RREF basis as S[row;row;...] with hex digits per entry."""
    return "S[" + ";".join("".join(format(x, "x") for x in row) for row in basis) + "]"

