"""Fat faces, ladders, bad faces, and the good-dimension decomposition.

Given a support A of k-faces and a fatness constant eta, the level sets are
defined top-down: A_k = A, and an i-face is fat when the conditional chance
that the random chain sits in A_{i+1} one step above it clears the threshold
eta^(2^(k-i-1)). All conditional probabilities come from the closed-form face
weights, never from sampling, because the thresholds are sharp inequalities.
A weight is deg_top over a per-dimension denominator, so each threshold is
compared exactly as an integer cross-product of deg_top numerators, and a
level probability is one deg_top sum over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt

from .cochains import (
    Cochain,
    coboundary,
    cochain_vector,
    is_locally_minimal,
    localize,
    locally_minimal_rows,
)
from .complexes import SimplicialComplex, frac_json
from .errors import (
    BadEta,
    EmptyFatLevel,
    FaceNotInComplex,
    ParameterOutOfRange,
    PreconditionViolated,
    PropertyViolation,
)
from .expansion import INFINITY, link_beta, skeleton_alpha


@dataclass
class FatFamily:
    """Level sets A_i of fat i-faces for -1 <= i <= k, with A_k the support."""

    complex: SimplicialComplex
    k: int
    eta: Fraction
    levels: dict  # i -> frozenset of faces

    def __post_init__(self):
        self._down = None

    def down_maps(self):
        """For every face s, the set of support faces with a fat ladder to s.

        A ladder from t in A down to an i-face s is a containment chain
        t > t_{k-1} > ... > t_{i+1} > s through the fat levels. Computed by
        one dynamic-programming sweep per dimension; the map at level i is
        defined for every i-face but only routes through fat intermediates.
        """
        if self._down is not None:
            return self._down
        X, k = self.complex, self.k
        down = {k: {}}
        for sigma in X.faces(k):
            down[k][sigma] = frozenset([sigma]) if sigma in self.levels[k] else frozenset()
        for i in range(k - 1, -2, -1):
            level_up = self.levels[i + 1]
            cur = {}
            for sigma in X.faces(i):
                acc = set()
                for tau in X.cofaces(sigma):
                    if tau in level_up:
                        acc |= down[i + 1][tau]
                cur[sigma] = frozenset(acc)
            down[i] = cur
        self._down = down
        return down

    def level_probability(self, i) -> Fraction:
        """Pr[r_k lands in A restricted below r_i and r_i is fat], exact."""
        X, k = self.complex, self.k
        if i < -1 or i > k:
            raise ParameterOutOfRange(f"level {i} not in -1..{k}")
        down, deg = self.down_maps()[i], X.top_degrees
        num = sum(deg[tau] for sigma in self.levels[i] for tau in down[sigma])
        return Fraction(num, X.weight_denominator(k) * comb(k + 1, i + 1))

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "eta": frac_json(self.eta),
            "levels": [
                [list(face) for face in sorted(self.levels[i])]
                for i in range(-1, self.k + 1)
            ],
        }


def fat_family(X, A, eta, k=None) -> FatFamily:
    """Level sets of fat faces under the conditional-probability threshold.

    With eta = p/q and e = 2^(k-i-1), the conditional chance at an i-face s
    is sum deg_top(t) den_i / ((i+2) deg_top(s) den_{i+1}) over the faces t
    of A_{i+1} above s, so s is fat exactly when
    sum deg_top(t) den_i q^e >= (i+2) deg_top(s) den_{i+1} p^e.
    The sums are gathered from A_{i+1} down, so only faces under it are read.
    """
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise BadEta(f"eta must lie strictly between 0 and 1, got {eta}")
    A = frozenset(A)
    if k is None:
        if not A:
            raise ParameterOutOfRange("empty support needs an explicit dimension k")
        dims = {len(f) - 1 for f in A}
        if len(dims) != 1:
            raise ParameterOutOfRange(f"support mixes dimensions {sorted(dims)}")
        k = dims.pop()
    for f in A:
        if not X.has_face(f) or len(f) - 1 != k:
            raise FaceNotInComplex(f"{f} is not a {k}-face")
    deg = X.top_degrees
    levels = {k: A}
    for i in range(k - 1, -2, -1):
        e = 2 ** (k - i - 1)
        up_scale = X.weight_denominator(i) * eta.denominator ** e
        face_scale = (i + 2) * X.weight_denominator(i + 1) * eta.numerator ** e
        up = {}
        for tau in levels[i + 1]:
            for j in range(i + 2):
                sigma = tau[:j] + tau[j + 1:]
                up[sigma] = up.get(sigma, 0) + deg[tau]
        levels[i] = frozenset(s for s, num in up.items() if num * up_scale >= deg[s] * face_scale)
    return FatFamily(X, k, eta, levels)


def ladder_restrict(X, fam: FatFamily, sigma) -> frozenset:
    """Support faces reachable from sigma through a ladder of fat faces."""
    if not X.has_face(sigma):
        raise FaceNotInComplex(f"{sigma} is not a face")
    i = len(sigma) - 1
    if i > fam.k:
        raise ParameterOutOfRange(f"{sigma} sits above dimension {fam.k}")
    return fam.down_maps()[i][sigma]


def fat_bound_failure(X, fam: FatFamily):
    """The first level -1 <= i <= k with ||A_i|| > eta^(1 - 2^(k-i)) ||A||, else None."""
    nA = X.norm(fam.levels[fam.k])
    for i in range(-1, fam.k + 1):
        if X.norm(fam.levels[i]) > fam.eta ** (1 - 2 ** (fam.k - i)) * nA:
            return i
    return None


def max_link_alpha(X) -> Fraction:
    """The largest skeleton alpha over X and the links of its nonempty faces."""
    alpha = skeleton_alpha(X)[0]
    for k in range(0, X.dim + 1):
        for s in X.faces(k):
            alpha = max(alpha, skeleton_alpha(X.link(s))[0])
    return alpha


def bad_face_hypothesis(X, alpha: Fraction, eta: Fraction) -> bool:
    """The bad-face bound's premise alpha <= eta^(2^(d-1)), alpha from max_link_alpha."""
    return alpha <= eta ** (2 ** (X.dim - 1))


def bad_face_factor(k: int, eta: Fraction) -> Fraction:
    """eta (k+1)(k+2) 2^(k+2): the bad faces' norm over the support's, at most."""
    return eta * (k + 1) * (k + 2) * 2 ** (k + 2)


def bad_bound_holds(X, fam: FatFamily) -> bool:
    """||bad faces|| <= bad_face_factor(k, eta) ||A||, proved under bad_face_hypothesis."""
    bound = bad_face_factor(fam.k, fam.eta) * X.norm(fam.levels[fam.k])
    return X.norm(bad_faces(X, fam)) <= bound


def bad_faces(X, fam: FatFamily) -> frozenset:
    """(k+1)-faces holding two fat i-faces whose intersection is not fat.

    Two such i-faces meet in an (i-1)-face and span an (i+1)-face, so the fat
    i-faces are grouped by their non-fat faces one dimension down; every
    pair of a group spans a bad (i+1)-face when that is a face of X, and the
    bad (k+1)-faces are the faces above one, reached coface by coface.
    """
    k, out = fam.k, set()
    for i in range(0, k + 1):
        below, groups = fam.levels[i - 1], {}
        for s in fam.levels[i]:
            for j in range(i + 1):
                rho = s[:j] + s[j + 1:]
                if rho not in below:
                    groups.setdefault(rho, []).append(s)
        spans = set()
        for group in groups.values():
            for s1, s2 in combinations(group, 2):
                union = tuple(sorted(set(s1 + s2)))
                if X.has_face(union):
                    spans.add(union)
        for _ in range(i + 1, k + 1):
            spans = {t for u in spans for t in X.cofaces(u)}
        out |= spans
    return frozenset(out)


@dataclass
class LinksInequalityResult:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    min_ratio: Fraction
    prob_i: Fraction
    prob_below: Fraction
    bad_norm: Fraction
    sharper_rhs: Fraction
    sharper_holds: bool


def links_inequality_check(X, ring, f: Cochain, fam: FatFamily, i: int) -> LinksInequalityResult:
    """Evaluate both sides of the link-decomposition lower bound, exactly.

    lhs = ||delta f||; rhs = (min over fat i-faces s of the link expansion
    ratio of the ladder restriction) * Pr[level i] minus the overcount term
    (k+1-i)(i+1) * Pr[level i-1] minus the bad-face norm. The sharper fields
    report the same bound with the overcount constant replaced by 1.
    """
    k = f.dim
    if f.complex != X or f.ring != ring:
        raise PreconditionViolated(f"f must be a cochain on X over {ring}")
    if fam.k != k or fam.levels[k] != f.support:
        raise PreconditionViolated("family levels must start at the support of f")
    if not 0 <= i <= k:
        raise ParameterOutOfRange(f"i = {i} not in 0..{k}")
    if not fam.levels[i]:
        raise EmptyFatLevel(f"no fat faces at level {i}")
    down = fam.down_maps()
    min_ratio = None
    for sigma in sorted(fam.levels[i]):
        restricted = Cochain.trusted(
            X, ring, k, {t: v for t, v in f.values.items() if t in down[i][sigma]}
        )
        loc = localize(restricted, sigma)
        if loc.is_zero():
            continue
        ratio = coboundary(loc).norm() / loc.norm()
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
    if min_ratio is None:
        min_ratio = Fraction(0)
    prob_i = fam.level_probability(i)
    prob_below = fam.level_probability(i - 1)
    bad = X.norm(bad_faces(X, fam))
    term1 = min_ratio * prob_i
    rhs = term1 - (k + 1 - i) * (i + 1) * prob_below - bad
    sharper = term1 - prob_below - bad
    lhs = coboundary(f).norm()
    return LinksInequalityResult(
        lhs, rhs, lhs >= rhs, min_ratio, prob_i, prob_below, bad,
        sharper, lhs >= sharper,
    )


def _exact_root(x: Fraction, d: int):
    """The 2^d-th root of x >= 0 when exact, else None: d exact square roots."""
    for _ in range(d):
        a, b = isqrt(x.numerator), isqrt(x.denominator)
        if a * a != x.numerator or b * b != x.denominator:
            return None
        x = Fraction(a, b)
    return x


def good_dimension_witness(X, ring, f: Cochain, c: dict, alpha: Fraction):
    """Select the decomposition dimension and certify its expansion bound.

    Follows the selection rule of the decomposition argument: take i = 0 when
    every level probability clears c_i * ||f||, otherwise i = j+1 for the
    largest failing level j. Asserts ||delta f|| >= (beta_i c_i -
    (k+1-i)(i+1) c_{i-1} - eta (k+1)(k+2) 2^{k+2}) ||f|| with
    eta = alpha^(2^-d), and returns (i, bound). The one-cochain case of
    `good_dimension_witnesses`.
    """
    return good_dimension_witnesses(X, ring, [f], c, alpha)[0]


def good_dimension_witnesses(X, ring, fs, c: dict, alpha: Fraction):
    """`good_dimension_witness` of each cochain of fs, as a list of (i, bound).

    Local minimality is screened once: one `locally_minimal_rows` call per
    (complex, ring, dimension) over the finite-ring cochains that reach that
    precondition (integer ones take `is_locally_minimal`). Each cochain is then
    checked in order, so a batch raises what a per-cochain loop raises first.
    """
    alpha = Fraction(alpha)
    fs = list(fs)
    early = [None if f.is_zero() else _precondition_failure(f, c, alpha) for f in fs]
    groups = {}
    for t, f in enumerate(fs):
        if early[t] is None and f.ring.is_finite and not f.is_zero():
            groups.setdefault((id(f.complex), f.ring, f.dim), []).append(t)
    minimal = {}
    for ts in groups.values():
        g = fs[ts[0]]
        rows = [cochain_vector(fs[t]) for t in ts]
        minimal.update(zip(ts, locally_minimal_rows(g.complex, g.ring, g.dim, rows).tolist()))
    eta = _exact_root(alpha, X.dim)
    out = []
    for t, f in enumerate(fs):
        if f.is_zero():
            out.append((0, Fraction(0)))
            continue
        if early[t] is not None:
            raise PreconditionViolated(early[t])
        if not (minimal[t] if f.ring.is_finite else is_locally_minimal(f)):
            raise PreconditionViolated("f is not locally minimal")
        if eta is None:
            raise ParameterOutOfRange(
                f"alpha = {alpha} has no exact 2^{X.dim}-th root; pass an exact power"
            )
        out.append(_certified_dimension(X, ring, f, c, eta))
    return out


def _precondition_failure(f: Cochain, c: dict, alpha: Fraction):
    """Why the nonzero f fails the constants or norm precondition, or None."""
    k = f.dim
    for i in range(0, k + 1):
        lo = c.get(i - 1, None)
        hi = c.get(i, None)
        if lo is None or hi is None or lo > hi:
            return "constants must be monotone over -1..k"
    if c[-1] != 0 or c[k] > 1:
        return "constants must start at 0 and end at most 1"
    if f.norm() > alpha:
        return f"||f|| = {f.norm()} exceeds alpha = {alpha}"
    return None


def _certified_dimension(X, ring, f: Cochain, c: dict, eta: Fraction):
    """(i, bound) for a cochain that meets every precondition."""
    k = f.dim
    fam = fat_family(X, f.support, eta)
    if fam.levels[-1]:
        raise PropertyViolation("the empty face came out fat although ||f|| <= alpha")
    norm = f.norm()
    probs = {i: fam.level_probability(i) for i in range(-1, k + 1)}
    if probs[k] != norm:
        raise PropertyViolation("top level probability must equal ||f||")
    failing = [j for j in range(0, k) if probs[j] < c[j] * norm]
    i = (max(failing) + 1) if failing else 0

    beta_i = link_beta(X, ring, k, i)
    if beta_i == INFINITY:
        raise PropertyViolation(f"every link at level {i} is unconstrained; no finite beta")
    bound = (
        beta_i * c[i]
        - (k + 1 - i) * (i + 1) * c[i - 1]
        - bad_face_factor(k, eta)
    ) * norm
    if coboundary(f).norm() < bound:
        raise PropertyViolation(
            f"expansion bound failed at dimension {i}: "
            f"{coboundary(f).norm()} < {bound}"
        )
    return i, bound
