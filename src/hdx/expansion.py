"""Exact measurement of coboundary, cosystolic, skeleton and small-set expansion.

All four notions are measured by exhaustive enumeration with exact rational
arithmetic. Coset scans over finite rings run through one vectorized engine
(numpy, integer weights) but report exact Fractions; every reported minimum
carries a witness that reproduces the ratio, and ties resolve to the
lexicographically least witness vector so reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from . import cosets, intmat
from .cochains import (
    COBOUNDARIES,
    COCYCLES,
    Cochain,
    coboundary,
    coboundary_group,
    coface_array,
    delta_rows,
    distance,
    locally_minimal_rows,
    subgroup_array,
    subgroup_generators,
    vector_cochain,
)
from .complexes import SimplicialComplex, frac_json
from .config import DEFAULT_SKELETON_VERTEX_CAP, candidate_cap
from .errors import (
    ConstantExceedsOne,
    DimensionOutOfRange,
    IntegerRingRequiresBound,
    ParameterOutOfRange,
    SearchSpaceTooLarge,
    TooManyVertices,
)
from .rings import Ring

INFINITY = "infinity"  # sentinel for an empty minimum (H^k = 0 and friends)


@dataclass
class ExpansionReport:
    """Outcome of one expansion measurement; minima carry witnesses."""

    kind: str
    k: int
    ring: Ring | None
    epsilon: Fraction | str
    mu: Fraction | str | None = None
    witness: object = None  # Cochain or vertex tuple
    mu_witness: object = None
    certified: bool = True
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def frac(x):
            return x if x is None or x == INFINITY else frac_json(x)

        def wit(w):
            if w is None:
                return None
            if isinstance(w, Cochain):
                return w.to_lines()
            return list(w)

        doc = {
            "kind": self.kind,
            "k": self.k,
            "ring": str(self.ring) if self.ring is not None else None,
            "epsilon": frac(self.epsilon),
            "certified": self.certified,
            "witness": wit(self.witness),
        }
        if self.mu is not None:
            doc["mu"] = frac(self.mu)
            doc["mu_witness"] = wit(self.mu_witness)
        if self.extra:
            doc["extra"] = {
                key: (frac(v) if isinstance(v, Fraction) else v)
                for key, v in self.extra.items()
            }
        return doc


# -- skeleton expansion ------------------------------------------------------------


def skeleton_alpha(X: SimplicialComplex):
    """Least alpha with ||E(S)|| <= ||S||^2 + alpha * ||S|| for all nonempty S.

    Exhausts every vertex subset; the returned witness attains the maximum of
    (||E(S)|| - ||S||^2) / ||S|| (alpha clamps that maximum at zero).
    """
    verts = [f[0] for f in X.faces(0)]
    n = len(verts)
    if n > DEFAULT_SKELETON_VERTEX_CAP:
        raise TooManyVertices(
            f"{n} vertices exceed the exhaustive cap {DEFAULT_SKELETON_VERTEX_CAP}"
        )
    if n == 0:
        return Fraction(0), ()
    wv = [X.deg_top((v,)) for v in verts]
    den_v = X.weight_denominator(0)
    index = {v: i for i, v in enumerate(verts)}
    edges_at = [[] for _ in range(n)]  # for vertex i: (j, weight) with j < i
    den_e = X.weight_denominator(1) if X.dim >= 1 else 1
    if X.dim >= 1:
        for (u, w) in X.faces(1):
            i, j = index[u], index[w]
            hi, lo = max(i, j), min(i, j)
            edges_at[hi].append((lo, X.deg_top(tuple(sorted((u, w))))))
    size = 1 << n
    # int64 arrays keep the table compact near the 22-vertex cap
    from array import array

    e_num = array("q", [0]) * size  # total edge weight inside the subset
    s_num = array("q", [0]) * size  # total vertex weight of the subset
    for mask in range(1, size):
        hi = mask.bit_length() - 1
        prev = mask & ~(1 << hi)
        add = 0
        for lo, we in edges_at[hi]:
            if prev >> lo & 1:
                add += we
        e_num[mask] = e_num[prev] + add
        s_num[mask] = s_num[prev] + wv[hi]
    best = None
    best_num = best_den = None
    for mask in range(1, size):
        # value = (E/den_e - (S/den_v)^2) / (S/den_v), compared exactly
        e, s = e_num[mask], s_num[mask]
        num = e * den_v * den_v - s * s * den_e
        den = s * den_v * den_e
        if best is None or num * best_den > best_num * den:
            best = mask
            best_num, best_den = num, den
    alpha = Fraction(best_num, best_den)
    witness = tuple(verts[i] for i in range(n) if best >> i & 1)
    if alpha < 0:
        alpha = Fraction(0)
    return alpha, witness


# -- coset scan engine ------------------------------------------------------------------


def _subgroup_scan(X, ring, k, target):
    """(ratio, witness vector, cosets scanned) of the scan against B^k or Z^k.

    Over a field the candidates pin the pivot coordinates of the subgroup's
    echelon form to zero, one canonical representative per coset; over Z/n
    there are no pivots and every cochain is a candidate. The subgroup rows
    stream as the combinations of its generators: the distance table's
    minimum ignores their order and repeats, so nothing is stored.
    """
    n = ring.size
    nk = len(X.faces(k))
    gens = subgroup_generators(X, ring, k, target)
    pivots = intmat.rref_mod_p(gens, n)[1] if ring.is_field else []
    free_cols = [j for j in range(nk) if j not in pivots]
    n_reps, n_sub = n ** len(free_cols), n ** len(gens)
    cap = candidate_cap()
    if n_reps > cap or n_sub > cap:
        raise SearchSpaceTooLarge(
            f"{n_reps} representatives / {n_sub} generator combinations exceed cap {cap}"
        )
    rows = cosets.combinations([0] * nk, gens, range(n))
    return _coset_scan(X, ring, k, free_cols, (R % n for R in rows))


def _coset_scan(X, ring, k, free_cols, sub_blocks):
    """Min of ||delta f|| / dist(f, sub) over f supported on free_cols, outside sub.

    sub_blocks holds the subgroup's rows, reduced mod n. Both ||delta f|| and
    dist(f, sub) come from one table each over all candidates, in
    lexicographic order, and `_least_ratio` picks the witness.
    """
    n = ring.size
    nk = len(X.faces(k))
    wk, den_k = cosets.face_weights(X, k)
    wk1, den_k1 = cosets.face_weights(X, k + 1)
    cosets.require_int64(int(wk.sum()) * int(wk1.sum()), "ratio cross products")
    n_reps = n ** len(free_cols)
    dist = cosets.distance_table(sub_blocks, n, free_cols, wk)
    norm = cosets.coboundary_norm_table(delta_rows(X, k), n, free_cols, wk1)
    best = _least_ratio(norm, dist)
    if best is None:
        return INFINITY, None, n_reps
    best_e, best_s, best_index = best
    witness = cosets.lex_digits(best_index, 1, n, free_cols, nk)[0].tolist()
    return Fraction(best_e * den_k, best_s * den_k1), tuple(witness), n_reps


def _least_ratio(norm, dist):
    """(e, s, i) at the first index i of least ratio e / s = norm[i] / dist[i]
    over dist[i] > 0, or None when every dist is 0.

    The tables run CHUNK entries at a time. One pass marks a block's
    candidates strictly below the running best, which starts at 1 / 0 so
    that every dist > 0 is below it, and the best is refined over their
    indices alone: the first index of the least ratio wins. Ratios are
    compared by int64 cross-multiplication, which the caller bounds.
    """
    best_e, best_s, best = 1, 0, None

    def below(e, s):
        return np.multiply(e, best_s, dtype=np.int64) < np.multiply(s, best_e, dtype=np.int64)

    for start in range(0, len(norm), cosets.CHUNK):
        e = norm[start:start + cosets.CHUNK]
        s = dist[start:start + cosets.CHUNK]
        idx = np.flatnonzero(below(e, s))
        while idx.size:
            i = int(idx[0])
            best_e, best_s = int(e[i]), int(s[i])
            best = (best_e, best_s, start + i)
            idx = idx[1:]
            idx = idx[below(e[idx], s[idx])]
    return best


def coboundary_epsilon(X, ring: Ring, k: int, coeff_bound=None) -> ExpansionReport:
    """Least ||delta f|| / dist(f, B^k) over the k-cochains outside B^k.

    Finite rings are exhaustive and certified. Over the integers only a
    bounded-coefficient scan is offered (pass coeff_bound), flagged as
    uncertified. k = -1 uses the convention B^{-1} = {0}: any nonzero
    (-1)-cochain has norm 1 and its coboundary covers every vertex, so the
    ratio is exactly 1.
    """
    if not -1 <= k <= X.dim - 1:
        raise DimensionOutOfRange(f"dimension {k} not in -1..{X.dim - 1}")
    if k == -1:
        witness = None
        if ring.is_finite:
            witness = Cochain(X, ring, -1, {(): 1})
        return ExpansionReport("coboundary", k, ring, Fraction(1), witness=witness)
    if not ring.is_finite:
        if coeff_bound is None:
            raise IntegerRingRequiresBound(
                "coboundary expansion over Z needs coeff_bound"
            )
        return _integer_coboundary_scan(X, ring, k, coeff_bound)
    eps, vec, n_reps = _subgroup_scan(X, ring, k, COBOUNDARIES)
    witness = vector_cochain(X, ring, k, vec) if vec is not None else None
    return ExpansionReport(
        "coboundary", k, ring, eps, witness=witness,
        extra={"cosets_scanned": n_reps},
    )


def _integer_coboundary_scan(X, ring, k, coeff_bound):
    b = int(coeff_bound)
    nk = len(X.faces(k))
    total = (2 * b + 1) ** nk
    cap = candidate_cap()
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} integer cochains exceed cap {cap}")
    best = None
    witness = None
    for vec in product(range(-b, b + 1), repeat=nk):
        f = vector_cochain(X, ring, k, vec)
        if f.is_zero():
            continue
        d, _ = distance(f, COBOUNDARIES, coeff_bound=b)
        if d == 0:
            continue
        ratio = coboundary(f).norm() / d
        if best is None or ratio < best:
            best, witness = ratio, f
    if best is None:
        return ExpansionReport("coboundary", k, ring, INFINITY, certified=False)
    return ExpansionReport("coboundary", k, ring, best, witness=witness, certified=False)


def cosystolic_pair(X, ring: Ring, k: int) -> ExpansionReport:
    """(epsilon, mu): cocycle-relative expansion and least nontrivial cocycle norm."""
    if not 0 <= k <= X.dim - 1:
        raise DimensionOutOfRange(f"dimension {k} not in 0..{X.dim - 1}")
    if not ring.is_finite:
        raise IntegerRingRequiresBound("cosystolic measurement needs a finite ring")
    eps, vec, n_reps = _subgroup_scan(X, ring, k, COCYCLES)
    witness = vector_cochain(X, ring, k, vec) if vec is not None else None

    cocycles = subgroup_array(X, ring, k, COCYCLES)
    bset = set(coboundary_group(X, ring, k))
    outside = cocycles[np.array([z not in bset for z in map(tuple, cocycles.tolist())])]
    w, den = cosets.face_weights(X, k)
    least = cosets.least_row(cosets.chunks(outside), np.zeros(len(w), dtype=np.int64), w)
    mu = INFINITY if least is None else Fraction(least[0], den)
    mu_witness = None if least is None else vector_cochain(X, ring, k, least[1])
    return ExpansionReport(
        "cosystolic", k, ring, eps, mu=mu, witness=witness, mu_witness=mu_witness,
        extra={"cosets_scanned": n_reps},
    )


# -- small-set expansion ---------------------------------------------------------------


def _supports_up_to_norm(X, k, mu):
    """All face subsets of X(k) with norm at most mu, by pruned DFS (lex order).

    A subset's weight numerator is an integer, so it is compared with
    floor(mu * den) in ints, never with the Fraction.
    """
    cap = candidate_cap()
    faces = X.faces(k)
    wnum = [X.deg_top(f) for f in faces]
    den = X.weight_denominator(k)
    limit = math.floor(mu * den)
    out = []
    n = len(faces)

    def rec(i, acc, chosen):
        if len(out) > cap:
            raise SearchSpaceTooLarge(f"more than {cap} supports below norm {mu}")
        if i == n:
            if chosen:
                out.append(tuple(chosen))
            return
        rec(i + 1, acc, chosen)
        if acc + wnum[i] <= limit:
            chosen.append(i)
            rec(i + 1, acc + wnum[i], chosen)
            chosen.pop()

    rec(0, 0, [])
    return [tuple(faces[i] for i in idx) for idx in sorted(out)]


def small_set_check(X, ring: Ring, epsilon: Fraction, mu: Fraction):
    """Verify that every locally minimal f with ||f|| <= mu expands by epsilon.

    Scans all dimensions 0..d-1; returns (True, None) or the first
    counterexample in scan order (a locally minimal cochain with
    ||delta f|| < epsilon * ||f||). Per support, every nonzero value
    assignment is screened at once against the expansion bound; the failures
    of each CHUNK block go to one `locally_minimal_rows` call, in product order.
    """
    cap = candidate_cap()
    if not ring.is_finite:
        raise IntegerRingRequiresBound("small-set check needs a finite ring")
    n = ring.size
    eps = Fraction(epsilon)
    for k in range(0, X.dim):
        faces = X.faces(k)
        col = {f: j for j, f in enumerate(faces)}
        wk, den_k = cosets.face_weights(X, k)
        wk1, den_k1 = cosets.face_weights(X, k + 1)
        D = coface_array(X, k)
        for support in _supports_up_to_norm(X, k, mu):
            m = len(support)
            count = (n - 1) ** m
            if count > cap:
                raise SearchSpaceTooLarge(f"{count} value assignments exceed cap {cap}")
            cols = [col[f] for f in support]
            # ||delta f|| < eps ||f|| <=> e * den_k * eps.den < eps.num * wt(f) * den_k1,
            # i.e. e < bound for the integer numerator e of ||delta f||
            scale = den_k * eps.denominator
            bound = -(-eps.numerator * int(wk[cols].sum()) * den_k1 // scale)
            bound = min(max(bound, 0), int(wk1.sum()) + 1)
            M = D[cols]
            for start in range(0, count, cosets.CHUNK):
                V = cosets.lex_digits(start, min(cosets.CHUNK, count - start), n - 1,
                                      range(m), m).astype(np.int64) + 1
                e = ((V @ M) % n != 0) @ wk1
                screened = V[e < bound]
                C = np.zeros((len(screened), len(faces)), dtype=np.int64)
                C[:, cols] = screened
                hits = np.flatnonzero(locally_minimal_rows(X, ring, k, C))
                if hits.size:
                    return False, vector_cochain(X, ring, k, C[hits[0]].tolist())
    return True, None


# -- link profiles and the good-links constants ---------------------------------------


def link_beta(X, ring: Ring, k: int, i: int):
    """beta_i = min over the i-faces of the link coboundary expansion at k-i-1.

    At i = k the link cochains sit in dimension -1 where the ratio is 1 by
    the B^{-1} = {0} convention. Links whose cochains are all coboundaries
    impose no constraint and are skipped; an unconstrained level reports
    the INFINITY sentinel.
    """
    faces = X.faces(i)
    if i == k:
        return Fraction(1) if faces else INFINITY
    best = INFINITY
    for sigma in faces:
        eps = coboundary_epsilon(X.link(sigma), ring, k - i - 1).epsilon
        if eps != INFINITY and (best == INFINITY or eps < best):
            best = eps
    return best


def link_profile(X, ring: Ring, k: int) -> dict:
    """Level i -> link_beta(X, ring, k, i), for 0 <= i <= k."""
    return {i: link_beta(X, ring, k, i) for i in range(0, k + 1)}


@dataclass
class GoodLinksConstants:
    epsilon: Fraction
    alpha: Fraction
    c: dict  # index i in -1..k


def good_links_constants(d: int, k: int, beta: Fraction, rho: Fraction) -> GoodLinksConstants:
    """The explicit constants that turn link expansion into small-set expansion.

    epsilon = (1-rho) / (1 + d (d-1)^{2(d-1)} / (beta^{d-1} (1-beta)));
    alpha   = (rho/(1-rho) * epsilon / (d (d+1) 2^{d+1}))^{2^d};
    c_{-1} = 0, c_0 = epsilon/((1-rho) beta), c_i = c_0 + (k^2/beta) c_{i-1}
    for 0 < i < k, and c_k = beta c_0 + (k+1) c_{k-1} for k >= 1.

    The chain of c's must stay monotone and end at most 1; parameters outside
    that regime raise ConstantExceedsOne.
    """
    beta, rho = Fraction(beta), Fraction(rho)
    if not (0 < beta < 1) or not (0 < rho < 1):
        raise ParameterOutOfRange("need 0 < beta < 1 and 0 < rho < 1")
    if d < 1 or k < 0 or k > d - 1:
        raise ParameterOutOfRange(f"need d >= 1 and 0 <= k <= d-1, got d={d} k={k}")
    eps = (1 - rho) / (
        1 + Fraction(d * (d - 1) ** (2 * (d - 1))) / (beta ** (d - 1) * (1 - beta))
    )
    alpha = (rho / (1 - rho) * eps / (d * (d + 1) * 2 ** (d + 1))) ** (2 ** d)
    c = {-1: Fraction(0), 0: eps / ((1 - rho) * beta)}
    for i in range(1, k):
        c[i] = c[0] + Fraction(k * k, 1) / beta * c[i - 1]
    if k >= 1:
        c[k] = beta * c[0] + (k + 1) * c[k - 1]
    for i in range(0, k + 1):
        if c[i] < c[i - 1]:
            raise ConstantExceedsOne(f"constants not monotone at i={i}")
    if c[k] > 1:
        raise ConstantExceedsOne(f"c_{k} = {c[k]} exceeds 1")
    return GoodLinksConstants(eps, alpha, c)
