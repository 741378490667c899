"""Integer cohomology via Smith normal form, and lattices from cocycles.

The coboundary matrices have entries in {-1, 0, +1}; Smith normal form over
the integers yields the free rank and the torsion of each cohomology group,
the universal-coefficient consistency check ties the mod-2 dimensions to
them, and bounded coset searches produce minimal cocycle representatives
whose integer span is the lattice. The bounded searches and the mod-p floors
that certify them run through the coset kernel in `cosets`. Norms are the
probability norm of the ambient complex; reports carry the raw support
counts alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cosets, intmat
from .cochains import (
    COBOUNDARIES,
    COCYCLES,
    Cochain,
    cochain_vector,
    coboundary,
    delta_rows,
    mod_p_distance_floor,
    subgroup_generators,
    vector_cochain,
)
from .complexes import SimplicialComplex, frac_json
from .errors import (
    DependentGenerators,
    DimensionOutOfRange,
    NoFreePart,
    NotAGraph,
    ParameterOutOfRange,
    PropertyViolation,
)
from .rings import INTEGERS


def smith_profile(M, width=None) -> tuple:
    """The invariant factors of M, read as by `intmat.rows_of`, with the reduction
    that gives them checked. M that reduces with unit pivots has d = (1,) * r,
    certified by `_unit_echelon_rank` against M's sparse rows. Any other M
    takes a Smith form on the same rows, and its sparse U @ M @ V is checked
    against d.
    """
    rows, n = intmat.rows_of(M, width)
    echelon = intmat.unit_echelon(rows, n)
    if echelon is not None:
        return (1,) * _unit_echelon_rank(rows, *echelon)
    U, d, V = intmat.smith_normal_form(rows, n)
    if not smith_form_holds(rows, U, d, V, n):
        raise PropertyViolation("smith transform verification failed")
    return tuple(d)


def smith_form_holds(M, U, d, V, width=None) -> bool:
    """Whether U @ M @ V is zero but for its diagonal, which starts with d: M
    read as by `intmat.rows_of`, the transforms sparse, as
    `intmat.smith_normal_form` returns them, and every entry of the product
    checked."""
    rows, n = intmat.rows_of(M, width)
    if len(U) != len(rows) or len(V) != n:
        return False
    UM = intmat.columns_of([intmat.combine(u, rows) for u in U], n)
    S = [{j: x} for j, x in enumerate(d)] + [{}] * (n - len(d))
    return [intmat.combine(v, UM) for v in V] == S


def _unit_echelon_rank(rows, order, H, U):
    """The rank r of M, given as sparse rows, from an `intmat.unit_echelon` triple checked.

    U is unit lower-triangular with its columns read in `order`, so it is
    unimodular; U @ M equals H, by a sparse product; and H is in row echelon
    form with r pivots of absolute value 1 and zero rows below them. The
    pivot minor is then +-1, so every invariant factor of M is 1.
    """
    m = len(rows)
    if sorted(order) != list(range(m)) or len(H) != m or len(U) != m:
        raise PropertyViolation("unit echelon: rows do not match the matrix")
    at = {row: i for i, row in enumerate(order)}
    for i, u in enumerate(U):
        if u.get(order[i]) != 1 or any(at.get(k, m) > i for k in u):
            raise PropertyViolation("unit echelon: U is not unit lower-triangular")
    for u, h in zip(U, H):
        if intmat.combine(u, rows) != h:
            raise PropertyViolation("unit echelon: U @ M differs from H")
    r, lead = 0, -1
    for h in H:
        if not h:
            break
        c = min(h)
        if c <= lead or h[c] not in (1, -1):
            raise PropertyViolation("unit echelon: H has a non-unit or misplaced pivot")
        r, lead = r + 1, c
    if any(H[r:]):
        raise PropertyViolation("unit echelon: a nonzero row below the pivots")
    return r


@dataclass
class CohomologyProfile:
    k: int
    free_rank: int
    torsion: tuple  # invariant factors above 1


def _delta_profile(X, k) -> tuple:
    """smith_profile of delta_k's sparse rows (`delta_rows`), kept in X.cache: one
    reduction per k."""
    if ("delta_profile", k) not in X.cache:
        X.cache["delta_profile", k] = smith_profile(delta_rows(X, k), len(X.faces(k)))
    return X.cache["delta_profile", k]


def _cohomology(X, k):
    """H^k(X; Z) and the invariant factors of delta_k, from the profiles of
    delta_{k-1} and delta_k (the zero map at the top dimension)."""
    if not 0 <= k <= X.dim:
        raise DimensionOutOfRange(f"dimension {k} not in 0..{X.dim}")
    above = () if k == X.dim else _delta_profile(X, k)
    below = _delta_profile(X, k - 1)
    free_rank = len(X.faces(k)) - len(above) - len(below)
    torsion = tuple(v for v in below if v > 1)
    return CohomologyProfile(k, free_rank, torsion), above


def integer_cohomology(X, k) -> CohomologyProfile:
    """H^k(X; Z) with the augmented convention (reduced cohomology at k = 0)."""
    return _cohomology(X, k)[0]


def fp_cohomology_dimension(X, k, p) -> int:
    """dim over F_p of H^k(X; F_p), same augmented convention."""
    if not 0 <= k <= X.dim:
        raise DimensionOutOfRange(f"dimension {k} not in 0..{X.dim}")
    # the ranks of delta_{k-1} and delta_k, the zero map at the top dimension
    ranks = (len(intmat.rref_mod_p(delta_rows(X, j), p, len(X.faces(j)))[1])
             for j in (k - 1, k) if j < X.dim)
    return len(X.faces(k)) - sum(ranks)


@dataclass
class UctReport:
    k: int
    fp_dimension: int
    free_rank: int
    torsion: tuple  # of H^k
    even_torsion_above: int

    @property
    def even_torsion_here(self) -> int:
        return sum(1 for t in self.torsion if t % 2 == 0)

    @property
    def ok(self) -> bool:
        return (
            self.fp_dimension
            == self.free_rank + self.even_torsion_here + self.even_torsion_above
        )


def uct_check(X, k) -> UctReport:
    """dim_F2 H^k = free rank + 2-torsion of H^k + 2-torsion of H^{k+1}.

    The torsion of H^{k+1} is read off the invariant factors of delta_k that
    H^k already took, so delta_{k+1} is never reduced.
    """
    here, above = _cohomology(X, k)
    return UctReport(
        k,
        fp_cohomology_dimension(X, k, 2),
        here.free_rank,
        here.torsion,
        sum(1 for t in above if t % 2 == 0),
    )


# -- minimal representatives and lattices ------------------------------------------


@dataclass
class LatticeGenerator:
    cochain: Cochain
    certified: bool


def free_cocycle_generators(X, k):
    """Integer cocycle vectors projecting to a basis of the free part of H^k."""
    kernel = subgroup_generators(X, INTEGERS, k, COCYCLES)
    if not kernel:
        return []
    r = len(kernel)
    vecs, nk = intmat.rows_of(kernel)
    # write the image inside kernel coordinates: K @ Y = image columns, the
    # columns of K the kernel vectors
    image = subgroup_generators(X, INTEGERS, k, COBOUNDARIES)
    Y = intmat.solve_int_columns(intmat.columns_of(vecs, nk), image, r)
    if None in Y:
        raise PropertyViolation("coboundary outside the cocycle lattice")
    # the columns of U^-1 past the rank of the matrix with columns Y, applied
    # to the kernel vectors
    Ycols = intmat.columns_of(intmat.rows_of(Y)[0], r)
    _, d, _, Uinv = intmat.smith_normal_form(Ycols, len(Y), inverse=True)
    return intmat.dense_rows([intmat.combine(y, vecs) for y in Uinv[len(d):]], nk)


def _bounded_coset_minimum(X, k, base_vec, gens, coeff_bound):
    """Min norm over base + integer combinations of gens with small coefficients.

    Ties resolve to the lexicographically least signed vector.
    """
    b = int(coeff_bound)
    w, den = cosets.face_weights(X, k)
    rows = cosets.combinations(base_vec, gens, range(-b, b + 1))
    num, vec = cosets.least_row(rows, np.zeros(len(base_vec), dtype=np.int64), w)
    return Fraction(num, den), list(vec)


def minimal_representatives(X, k, coeff_bound=3):
    """A minimal-norm integer representative per free generator of H^k.

    The coset search is bounded, so each representative carries a
    certification flag; it is certified when the bounded minimum meets an
    exhaustive mod-p lower bound for the coset (reduction mod p only shrinks
    supports, so the mod-p distance is a true floor for the integer one).
    """
    gens = free_cocycle_generators(X, k)
    if not gens:
        raise NoFreePart(f"H^{k} has no free part")
    bgens = subgroup_generators(X, INTEGERS, k, COBOUNDARIES)
    out = []
    for vec in gens:
        val, best_vec = _bounded_coset_minimum(X, k, vec, bgens, coeff_bound)
        best = vector_cochain(X, INTEGERS, k, best_vec)
        out.append(LatticeGenerator(best, val == mod_p_distance_floor(best, COBOUNDARIES)))
    return out


@dataclass
class CohomologyLattice:
    complex: SimplicialComplex
    k: int
    generators: tuple  # Cochain over Z
    certified: tuple   # per-generator certification flags

    @property
    def dimension(self) -> int:
        return len(self.generators)


def build_lattice(reps) -> CohomologyLattice:
    """Z-span of cocycle representatives; rejects dependent generators.

    Independence is modulo the coboundaries: the basis of B^k is independent,
    so the generators stacked on it must leave the stack of full rank.
    """
    reps = list(reps)
    gens = [r.cochain if isinstance(r, LatticeGenerator) else r for r in reps]
    flags = tuple(
        r.certified if isinstance(r, LatticeGenerator) else False for r in reps
    )
    if not gens:
        raise DependentGenerators("a lattice needs at least one generator")
    X = gens[0].complex
    k = gens[0].dim
    for g in gens:
        if k < X.dim and not coboundary(g).is_zero():
            raise DependentGenerators(f"generator {g} is not a cocycle")
    stack = subgroup_generators(X, INTEGERS, k, COBOUNDARIES) + [cochain_vector(g) for g in gens]
    if intmat.rank_int(stack) != len(stack):
        raise DependentGenerators("generators are dependent modulo the coboundaries")
    return CohomologyLattice(X, k, tuple(gens), flags)


def _lattice_minimum(L: CohomologyLattice, coeff_bound):
    """(distance, certified, witness) over bounded nonzero combinations.

    Certification routes: pairwise disjoint supports make the minimum a
    single generator (any combination's support contains a whole generator
    support); otherwise an exhaustive mod-p scan over primitive coefficient
    vectors provides a floor that a matching bounded minimum certifies.
    A coeff_bound below 1 leaves no nonzero combination and is refused.
    """
    b = int(coeff_bound)
    if b < 1:
        raise ParameterOutOfRange(
            f"coeff_bound {b} leaves no nonzero combination; the distance needs 1 or more"
        )
    X, k = L.complex, L.k
    gens = [list(cochain_vector(g)) for g in L.generators]
    w, den = cosets.face_weights(X, k)
    zero = np.zeros(len(gens[0]), dtype=np.int64)

    supports = [frozenset(i for i, v in enumerate(g) if v) for g in gens]
    disjoint = all(
        not (supports[i] & supports[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    if disjoint:
        num, vec = cosets.least_row([np.array(gens, dtype=np.int64)], zero, w)
        return Fraction(num, den), True, vec

    rows = cosets.combinations(zero, gens, range(-b, b + 1), skip_zero=True)
    num, vec = cosets.least_row(rows, zero, w)
    best = Fraction(num, den)
    # mod-p floor over primitive coefficient vectors: any nonzero integer
    # combination divided by its content has the same support and a nonzero
    # reduction mod p, so the mod-p minimum bounds the true distance below
    def minimum_mod(p):
        rows = cosets.combinations(zero, gens, range(p), skip_zero=True)
        return Fraction(cosets.min_distance((R % p for R in rows), zero, w), den)

    floor = cosets.mod_p_floor(minimum_mod)
    return best, best == floor, vec


def lattice_distance(L: CohomologyLattice, coeff_bound=3):
    """Least norm of a nonzero bounded integer combination of the generators."""
    dist, certified, _ = _lattice_minimum(L, coeff_bound)
    return dist, certified


def component_lattice(X) -> CohomologyLattice:
    """The connected-component lattice of a graph complex.

    Generators are the indicator cochains of the components; this follows
    the introductory construction, so there is no quotient by the constants
    (a connected graph still yields dimension 1).
    """
    if X.dim > 1:
        raise NotAGraph(f"dimension {X.dim} complex is not a graph")
    parent = {v: v for v in X.vertices()}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (u, w) in X.faces(1):
        parent[find(u)] = find(w)
    comps = {}
    for v in X.vertices():
        comps.setdefault(find(v), []).append(v)
    gens = tuple(
        Cochain(X, INTEGERS, 0, {(v,): 1 for v in comp})
        for _, comp in sorted(comps.items())
    )
    return CohomologyLattice(X, 0, gens, tuple(True for _ in gens))


def lattice_report(X, k, coeff_bound=3) -> dict:
    """JSON document for a lattice built from minimal representatives."""
    reps = minimal_representatives(X, k, coeff_bound)
    L = build_lattice(reps)
    dist, certified, witness = _lattice_minimum(L, coeff_bound)
    profile = integer_cohomology(X, k)
    return {
        "k": k,
        "dimension": L.dimension,
        "torsion": list(profile.torsion),
        "generators": [g.to_lines() for g in L.generators],
        "generators_certified": list(L.certified),
        "distance": frac_json(dist),
        "distance_support_count": sum(1 for v in witness if v),
        "certified": certified,
    }
