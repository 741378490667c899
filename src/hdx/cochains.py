"""Cochains and chains over a ring, with the operators that relate them.

A k-cochain stores values only on canonically ordered (sorted) faces; the
value at any other ordering is the canonical value times the sign of the
sorting permutation, so antisymmetry is structural. A k-chain is a finitely
supported ring-linear combination of faces. `Cochain(...)` checks every face,
dimension and value it is given; the producers that read their faces off the
complex (coboundary, localize, vector_cochain, random_cochain) build through
`Cochain.trusted`, which checks nothing.

Conventions fixed here and used everywhere else:

  * the coboundary of f at a sorted (k+1)-face is the alternating sum of
    f over its codimension-1 subfaces (dropping a vertex from a sorted
    tuple keeps it sorted, so no extra signs show up);
  * the boundary is augmented: the boundary of a vertex is the empty face
    with coefficient 1, which makes 0-coboundaries exactly the constants;
  * localization to the link of s reads f at s followed by the link face.

Distances to the coboundaries B^k and cocycles Z^k, and the repair steps of
the locally-minimal procedure, are coset minima: finite rings scan the whole
subgroup, cached on the complex as an int64 array, and the integers scan a
bounded box of lattice combinations, both through the kernel in `cosets`.
Every generating set of B^k or Z^k, over every ring, comes from
`subgroup_generators`, which reduces the sparse rows of delta, never a dense
matrix: only the generators it returns are dense.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from . import cosets, intmat
from .complexes import SimplicialComplex
from .errors import (
    DimensionMismatch,
    DimensionOutOfRange,
    FaceNotInComplex,
    FaceTooLarge,
    InputFormatError,
    IntegerRingRequiresBound,
    NegativeDimension,
    NonTerminatingSearch,
    RingMismatch,
    TopDimension,
    Uncertified,
)
from .rings import Ring, prime_field

COBOUNDARIES = "coboundaries"
COCYCLES = "cocycles"
MINIMALITY_COEFF_BOUND = 2  # bounded search of is_minimal over the integers
REPAIR_STEPS = 100000  # repair steps make_locally_minimal takes before giving up
RANDOM_INT_RANGE = (-9, 9)  # inclusive range of random_cochain's integer values


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq (distinct comparable items)."""
    inv = 0
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


class Cochain:
    """Antisymmetric ring-valued function on the k-faces of a complex."""

    __slots__ = ("complex", "ring", "dim", "values")

    def __init__(self, complex: SimplicialComplex, ring: Ring, dim: int, values=None):
        self.complex = complex
        self.ring = ring
        self.dim = dim
        vals = {}
        for face, v in (values or {}).items():
            rv = ring.reduce(v)
            if rv:
                if not complex.has_face(face):
                    raise FaceNotInComplex(f"{face} is not a face")
                if len(face) - 1 != dim:
                    raise DimensionMismatch(f"{face} is not {dim}-dimensional")
                vals[face] = rv
        self.values = vals

    @classmethod
    def trusted(cls, complex: SimplicialComplex, ring: Ring, dim: int, values: dict):
        """A cochain on values as given, for producers that read their faces
        off the complex: every value nonzero and reduced in the ring, every
        key a dim-face of the complex. Nothing is checked; a caller holding
        values from outside builds through Cochain(...) instead."""
        f = cls.__new__(cls)
        f.complex, f.ring, f.dim, f.values = complex, ring, dim, values
        return f

    @classmethod
    def zero(cls, complex, ring, dim):
        return cls(complex, ring, dim, {})

    @property
    def support(self) -> frozenset:
        return frozenset(self.values)

    def is_zero(self) -> bool:
        return not self.values

    def norm(self) -> Fraction:
        """Total weight of the support: one deg_top sum over one denominator."""
        if not self.values:
            return Fraction(0)
        deg = self.complex.top_degrees
        return Fraction(sum(deg[face] for face in self.values),
                        self.complex.weight_denominator(self.dim))

    def __call__(self, oriented) -> int:
        """Value at an arbitrary ordering of a face."""
        face = tuple(sorted(oriented))
        v = self.values.get(face, 0)
        if not v:
            return 0
        return self.ring.reduce(perm_sign(tuple(oriented)) * v)

    def _binop(self, other, sign):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        vals = dict(self.values)
        for f, v in other.values.items():
            vals[f] = vals.get(f, 0) + sign * v
        return Cochain(self.complex, self.ring, self.dim, vals)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return Cochain(self.complex, self.ring, self.dim,
                       {f: -v for f, v in self.values.items()})

    def scaled(self, a: int):
        return Cochain(self.complex, self.ring, self.dim,
                       {f: a * v for f, v in self.values.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.ring == other.ring
            and self.dim == other.dim
            and self.values == other.values
            and self.complex == other.complex
        )

    def __repr__(self):
        return f"Cochain(dim={self.dim}, ring={self.ring}, supp={len(self.values)})"

    def to_lines(self) -> str:
        """Text form: 'v1 v2 ... : value' per support face, canonical order."""
        return "\n".join(
            f"{' '.join(face)} : {self.values[face]}".strip()
            for face in sorted(self.values)
        )


def cochain_from_lines(X, ring, dim, text) -> Cochain:
    vals = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputFormatError(f"bad cochain line {raw!r}")
        left, right = line.rsplit(":", 1)
        face = tuple(sorted(left.split()))
        try:
            v = int(right.strip())
        except ValueError:
            raise InputFormatError(f"bad cochain value in {raw!r}") from None
        vals[face] = vals.get(face, 0) + v
    return Cochain(X, ring, dim, vals)


class Chain:
    """Finitely supported ring-linear combination of faces of one dimension."""

    __slots__ = ("ring", "dim", "coeffs")

    def __init__(self, ring: Ring, dim: int, coeffs=None):
        self.ring = ring
        self.dim = dim
        self.coeffs = {}
        for face, a in (coeffs or {}).items():
            ra = ring.reduce(a)
            if ra:
                if len(face) - 1 != dim:
                    raise DimensionMismatch(f"{face} is not {dim}-dimensional")
                self.coeffs[face] = ra

    @classmethod
    def trusted(cls, ring: Ring, dim: int, coeffs: dict):
        """A chain on coeffs as given: nonzero, reduced, dim-dimensional faces."""
        chain = cls.__new__(cls)
        chain.ring, chain.dim, chain.coeffs = ring, dim, coeffs
        return chain

    @property
    def support(self) -> frozenset:
        return frozenset(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _binop(self, other, sign):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        coeffs = dict(self.coeffs)
        for f, a in other.coeffs.items():
            coeffs[f] = coeffs.get(f, 0) + sign * a
        return Chain(self.ring, self.dim, coeffs)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def scaled(self, a: int):
        return Chain(self.ring, self.dim, {f: a * v for f, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.ring == other.ring
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Chain(dim={self.dim}, ring={self.ring}, supp={len(self.coeffs)})"


# -- operators -------------------------------------------------------------------


def coboundary(f: Cochain) -> Cochain:
    """Alternating-sum extension of f one dimension up.

    Works over the support: each value is added, with its sign, into the
    cofaces of its face read off `X.coface_table(k)`; the sums are reduced
    in the ring, zeros dropped, and the values kept in X.faces(k + 1) order.
    """
    X = f.complex
    k = f.dim
    if k >= X.dim:
        raise TopDimension(f"no coboundary above dimension {X.dim}")
    table = X.coface_table(k)
    acc = {}
    for face, v in f.values.items():
        _, cols, signs = table[face]
        for j, s in zip(cols, signs):
            acc[j] = acc.get(j, 0) + s * v
    up, reduce = X.faces(k + 1), f.ring.reduce
    vals = {up[j]: r for j in sorted(acc) if (r := reduce(acc[j]))}
    return Cochain.trusted(X, f.ring, k + 1, vals)


def boundary(c: Chain) -> Chain:
    """Augmented boundary; the boundary of a vertex is the empty face."""
    if c.dim < 0:
        raise NegativeDimension("no boundary below dimension 0")
    coeffs = {}
    for face, a in c.coeffs.items():
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            coeffs[sub] = coeffs.get(sub, 0) + (-a if i % 2 else a)
    return Chain(c.ring, c.dim - 1, coeffs)


def evaluate(f: Cochain, c: Chain) -> int:
    """Pairing <f, c> = sum of coefficients times values."""
    if f.ring != c.ring:
        raise RingMismatch(f"{f.ring} vs {c.ring}")
    if f.dim != c.dim:
        raise DimensionMismatch(f"cochain dim {f.dim} vs chain dim {c.dim}")
    s = 0
    for face, a in c.coeffs.items():
        v = f.values.get(face, 0)
        if v:
            s += a * v
    return f.ring.reduce(s)


def localize(f: Cochain, sigma) -> Cochain:
    """Restriction of f to the link of sigma: f_sigma(t) = f(sigma then t)."""
    X = f.complex
    if len(sigma) > f.dim + 1:
        raise FaceTooLarge(f"{sigma} has more than {f.dim + 1} vertices")
    L = X.link(sigma)
    if sigma == ():
        return Cochain.trusted(L, f.ring, f.dim, dict(f.values))
    # sigma is a (sorted) face, so perm_sign(sigma + tau) flips once per pair
    # of a vertex of tau sorting before one of sigma: the sum of sigma's
    # positions in the face, less 0 + 1 + ... + (|sigma| - 1)
    ss, m = set(sigma), len(sigma)
    odd = m * (m - 1) // 2
    vals, reduce = {}, f.ring.reduce
    for face, v in f.values.items():
        if ss.issubset(face):
            tau = tuple(x for x in face if x not in ss)
            vals[tau] = reduce(-v if (sum(map(face.index, sigma)) - odd) % 2 else v)
    return Cochain.trusted(L, f.ring, f.dim - m, vals)


def lift_from_link(h: Cochain, sigma, X) -> Cochain:
    """The cochain on X supported over sigma whose localization at sigma is h."""
    vals = {}
    for tau, v in h.values.items():
        face = tuple(sorted(sigma + tau))
        sign = perm_sign(sigma + tau)
        vals[face] = sign * v
    return Cochain(X, h.ring, h.dim + len(sigma), vals)


# -- matrices and vector views ---------------------------------------------------


def delta_rows(X, k):
    """The k-coboundary map in the canonical face bases as sparse rows: a
    {column: +-1} row per (k+1)-face, a column per k-face; k = -1 yields the
    augmentation column of ones.
    """
    if not -1 <= k <= X.dim - 1:
        raise DimensionOutOfRange(f"coboundary dimension {k} not in -1..{X.dim - 1}")
    cols = {f: j for j, f in enumerate(X.faces(k))}
    return [{cols[tau[:i] + tau[i + 1:]]: -1 if i % 2 else 1 for i in range(len(tau))}
            for tau in X.faces(k + 1)]


def delta_matrix(X, k):
    """Integer matrix of the k-coboundary map: the dense form of `delta_rows`,
    rows the (k+1)-faces, columns the k-faces."""
    return intmat.dense_rows(delta_rows(X, k), len(X.faces(k)))


def coface_array(X, k):
    """delta_k^T as an int64 array, read off `X.coface_table(k)`: row i is the
    coboundary of the i-th k-face, for the readers that multiply blocks of
    cochains by it."""
    D = np.zeros((len(X.faces(k)), len(X.faces(k + 1))), dtype=np.int64)
    for i, (_, cols, signs) in enumerate(X.coface_table(k).values()):
        D[i, list(cols)] = signs
    return D


def cochain_vector(f: Cochain):
    faces = f.complex.faces(f.dim)
    return tuple(f.values.get(face, 0) for face in faces)


def vector_cochain(X, ring, k, vec) -> Cochain:
    faces, reduce = X.faces(k), ring.reduce
    return Cochain.trusted(X, ring, k, {f: r for f, v in zip(faces, vec) if (r := reduce(v))})


def norm_of_vector(X, k, vec) -> Fraction:
    faces = X.faces(k)
    num = sum(X.deg_top(face) for face, v in zip(faces, vec) if v)
    return Fraction(num, X.weight_denominator(k)) if num else Fraction(0)


# -- subgroup generating sets and enumeration -------------------------------------


def subgroup_generators(X, ring: Ring, k: int, target: str):
    """Generating set of B^k or Z^k over the ring, as a cached list of vectors.

    The only place a coboundary matrix becomes a generating set, read as the
    sparse rows of delta_k (`delta_rows`) or delta_{k-1}^T (`X.coface_table`):
      * Z: a lattice basis, the image of delta_{k-1} or the kernel of delta_k
        (every vector at the top dimension), from Smith normal form;
      * F_p: the reduced echelon basis of the rows of delta_{k-1}^T, or the
        kernel basis of delta_k, eliminated on the sparse rows;
      * Z/n, coboundaries: the integer image basis reduced mod n (the image
        mod n is the reduction of the image over Z), zero rows dropped;
      * Z/n, cocycles: column j of the sparse Smith transform V of delta_k's
        rows scaled by n / gcd(s_j, n), which generates the kernel mod n.
    B^{-1} = {0} has no generators and Z^d = C^d.
    """
    if target not in (COBOUNDARIES, COCYCLES):
        raise InputFormatError(f"unknown distance target {target!r}")
    key = ("gens", target, ring, k)
    gens = X.cache.get(key)
    if gens is not None:
        return gens
    nk = len(X.faces(k))
    if target == COBOUNDARIES:
        if k <= -1:
            gens = []
        elif ring.is_field:
            rows = [dict(zip(cols, signs)) for _, cols, signs in X.coface_table(k - 1).values()]
            gens = intmat.dense_rows(intmat.rref_mod_p(rows, ring.size, nk)[0], nk)
        else:
            gens = intmat.image_basis_int(delta_rows(X, k - 1), len(X.faces(k - 1)))
    elif k == X.dim:
        gens = [[int(i == j) for j in range(nk)] for i in range(nk)]
    elif ring.is_field:
        gens = intmat.dense_rows(intmat.kernel_mod_p(delta_rows(X, k), ring.size, nk), nk)
    elif not ring.is_finite:
        gens = intmat.kernel_int(delta_rows(X, k), nk)
    else:
        n = ring.size
        _, d, V = intmat.smith_normal_form(delta_rows(X, k), nk)
        scale = [n // gcd(s, n) for s in d] + [1] * (nk - len(d))
        gens = [[c * v for v in col] for c, col in zip(scale, intmat.dense_rows(V, nk))]
    if ring.is_finite and not ring.is_field:
        gens = [g for g in ([v % ring.size for v in g] for g in gens) if any(g)]
    X.cache[key] = gens
    return gens


def subgroup_array(X, ring: Ring, k: int, target: str):
    """B^k or Z^k of a finite ring as a cached int64 array, one row per element.

    Rows are the distinct combinations of the generators, in order of first
    appearance; the array is the one stored copy of the subgroup. Over F_p the
    generators are linearly independent, so their p^r combinations are already
    distinct and the span is taken as it is; over Z/n repeats are dropped.
    """
    key = ("array", target, ring, k)
    G = X.cache.get(key)
    if G is None:
        gens = subgroup_generators(X, ring, k, target)
        G = cosets.span(gens, ring.size, len(X.faces(k)))
        if not ring.is_field:
            _, first = np.unique(G, axis=0, return_index=True)
            G = G[np.sort(first)]
        X.cache[key] = G
    return G


def coboundary_group(X, ring: Ring, k: int):
    """All vectors of B^k(X; R) for a finite ring R (B^{-1} = {0}), as tuples."""
    return list(map(tuple, subgroup_array(X, ring, k, COBOUNDARIES).tolist()))


def cocycle_group(X, ring: Ring, k: int):
    """All vectors of Z^k(X; R) for a finite ring R (Z^d = C^d), as tuples."""
    return list(map(tuple, subgroup_array(X, ring, k, COCYCLES).tolist()))


def distance(f: Cochain, target: str = COBOUNDARIES, coeff_bound=None):
    """Distance of f from the coboundaries or the cocycles.

    Finite rings scan the whole subgroup with the coset kernel, so the value
    is exact and certified. Over the integers an exact membership test
    handles distance zero; otherwise a bounded-coefficient search over a
    lattice basis of the subgroup yields an upper bound flagged as
    uncertified.
    """
    X, k, ring = f.complex, f.dim, f.ring
    fvec = cochain_vector(f)
    w, den = cosets.face_weights(X, k)

    if ring.is_finite:
        G = subgroup_array(X, ring, k, target)
        v = np.array(fvec, dtype=np.int64)
        return Fraction(cosets.min_distance(cosets.chunks(G), v, w), den), True

    # integers: exact membership, then bounded search
    if target == COBOUNDARIES:
        if k <= -1:
            member = not any(fvec)
        else:
            member = intmat.solve_int(delta_rows(X, k - 1), fvec, len(X.faces(k - 1))) is not None
    elif k == X.dim:
        member = True
    else:
        member = coboundary(f).is_zero()
    if member:
        return Fraction(0), True
    if coeff_bound is None:
        raise IntegerRingRequiresBound(
            "distance over Z needs coeff_bound for the bounded search"
        )
    # the coefficient box is symmetric, so f + c.gens and f - c.gens agree
    b = int(coeff_bound)
    gens = subgroup_generators(X, ring, k, target)
    rows = cosets.combinations(fvec, gens, range(-b, b + 1))
    zero = np.zeros(len(fvec), dtype=np.int64)
    return Fraction(cosets.min_distance(rows, zero, w), den), False


def mod_p_distance_floor(f: Cochain, target: str) -> Fraction:
    """Largest distance of a reduction of f mod p; a lower bound for the Z distance."""
    return cosets.mod_p_floor(
        lambda p: distance(
            Cochain(f.complex, prime_field(p), f.dim, dict(f.values)), target
        )[0]
    )


def is_minimal(f: Cochain) -> bool:
    """Whether the norm of f equals its distance from the coboundaries."""
    if f.ring.is_finite:
        d, _ = distance(f, COBOUNDARIES)
        return d == f.norm()
    upper, certified = distance(f, COBOUNDARIES, coeff_bound=MINIMALITY_COEFF_BOUND)
    if certified or upper < f.norm():
        return upper == f.norm()
    if mod_p_distance_floor(f, COBOUNDARIES) == f.norm():
        return True
    raise Uncertified("bounded integer search could not certify minimality")


def is_locally_minimal(f: Cochain) -> bool:
    """Whether every localization of f to a link is minimal there.

    Finite rings take the one-row case of `locally_minimal_rows`; over the
    integers each nonzero localization at a face of 1..k vertices goes
    through `is_minimal`, in `_link_maps` order, and may raise Uncertified.
    """
    vec = cochain_vector(f)
    if f.ring.is_finite:
        return bool(locally_minimal_rows(f.complex, f.ring, f.dim, [vec])[0])
    locals_ = (vector_cochain(L, f.ring, j, [s * vec[c] for c, s in zip(cols, signs.tolist())])
               for _, L, j, cols, signs in _link_maps(f.complex, f.dim))
    return all(is_minimal(h) for h in locals_ if not h.is_zero())


def _link_maps(X, k):
    """(sigma, L, j, cols, signs) per face sigma of 1..k vertices, by size then
    lexicographically, cached per (X, k): f localizes to L = X.link(sigma) at
    j = k - |sigma| as f[cols] * signs."""
    key = ("link maps", k)
    if key not in X.cache:
        pos = {face: c for c, face in enumerate(X.faces(k))}
        maps = []
        for sigma in (s for i in range(k) for s in X.faces(i)):
            L, j = X.link(sigma), k - len(sigma)
            pairs = [(pos[tuple(sorted(sigma + t))], perm_sign(sigma + t)) for t in L.faces(j)]
            maps.append((sigma, L, j, *np.array(pairs, dtype=np.intp).T))
        X.cache[key] = maps
    return X.cache[key]


def locally_minimal_rows(X, ring: Ring, k: int, F):
    """Whether each row of F (possibly none), a k-cochain over X.faces(k) read
    mod n, is locally minimal. Each face of `_link_maps` localizes every row
    by one signed column gather; a nonzero localization is minimal when its
    weighted norm equals its `cosets.min_distances` distance to the link's
    coboundaries. Faces no row touches are skipped; a row leaves at its first
    failure. ((-1)-cochains, the localizations at k+1 vertices, are minimal.)
    """
    if not ring.is_finite:
        raise IntegerRingRequiresBound("local minimality of rows needs a finite ring")
    if not len(F):
        return np.ones(0, dtype=bool)
    n, width = ring.size, len(X.faces(k))
    F = np.asarray(F, dtype=np.int64) % n
    if F.ndim != 2 or F.shape[1] != width:
        raise DimensionMismatch(f"rows of shape {F.shape} are not {k}-cochains on {width} faces")
    ok = np.ones(len(F), dtype=bool)
    touched = F.any(axis=0)
    for _, L, j, cols, signs in _link_maps(X, k):
        if not touched[cols].any():
            continue
        rows = np.flatnonzero(ok & F[:, cols].any(axis=1))
        H = F[np.ix_(rows, cols)] * signs % n
        w, _ = cosets.face_weights(L, j)
        G = subgroup_array(L, ring, j, COBOUNDARIES)
        ok[rows[cosets.min_distances(cosets.chunks(G), H, w) != (H != 0) @ w]] = False
    return ok


def make_locally_minimal(f: Cochain):
    """Repair f to a locally minimal cochain by subtracting a coboundary.

    Returns (g, f2) with f2 = f - coboundary(g), f2 locally minimal and
    norm(f2) <= norm(f). Scans faces by dimension then lexicographically;
    each repair step replaces the localization at the first offending face
    by its closest link coboundary (ties broken by the lexicographically
    least link vector, then the least link preimage).
    """
    if not f.ring.is_finite:
        raise Uncertified("local minimality repair needs a finite ring")
    X, ring, k = f.complex, f.ring, f.dim
    g_acc = Cochain.zero(X, ring, k - 1)
    cur = f
    for _ in range(REPAIR_STEPS):
        step = _first_repair_step(cur)
        if step is None:
            return g_acc, cur
        g_acc = g_acc + step
        cur = cur - coboundary(step)
    raise NonTerminatingSearch("local minimality repair did not converge")


def _first_repair_step(f: Cochain):
    """The lift of the best improving link coboundary at the first bad face."""
    ring, vec = f.ring, np.array(cochain_vector(f), dtype=np.int64)
    for sigma, L, j, cols, signs in _link_maps(f.complex, f.dim):
        hvec = vec[cols] * signs % ring.size
        if not hvec.any():
            continue
        w, _ = cosets.face_weights(L, j)
        group = subgroup_array(L, ring, j, COBOUNDARIES)
        d, b = cosets.least_row(cosets.chunks(group), hvec, w)
        if d >= int(w[hvec != 0].sum()):
            continue
        target = tuple(ring.reduce(v if len(sigma) % 2 == 0 else -v) for v in b)
        h_pre = _lex_least_preimage(L, ring, j - 1, target)
        return lift_from_link(h_pre, sigma, f.complex)
    return None


def _lex_least_preimage(L, ring, j, target_vec):
    """Lexicographically least h in C^j(L) with delta(h) equal to the target."""
    n, nj = ring.size, len(L.faces(j))
    D = coface_array(L, j)
    # the combinations of the unit vectors, in product order, are C^j in lex order
    for H in cosets.combinations([0] * nj, np.eye(nj, dtype=np.int64), range(n)):
        hit = np.flatnonzero(((H @ D) % n == np.array(target_vec)).all(axis=1))
        if hit.size:
            return vector_cochain(L, ring, j, H[hit[0]].tolist())
    raise NonTerminatingSearch(
        f"no preimage for a link coboundary over {ring} at dimension {j} "
        f"({nj} faces, {len(L.faces(j + 1))} above)"
    )


def random_cochain(X, ring, k, rng) -> Cochain:
    """Seeded random k-cochain; integer values are uniform on a small range."""
    if ring.is_finite:
        draws = [rng.randrange(ring.size) for _ in X.faces(k)]
    else:
        draws = [rng.randint(*RANDOM_INT_RANGE) for _ in X.faces(k)]
    return Cochain.trusted(X, ring, k, {f: v for f, v in zip(X.faces(k), draws) if v})
