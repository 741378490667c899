"""Exact coset minima: the one numpy kernel behind every finite or bounded search.

Each exhaustive minimum in hdx is the least weighted Hamming distance from a
vector v to the rows of an enumerated set: ((R != v) @ w) over int64 arrays,
with w the face-weight numerators of one dimension, taken at most CHUNK rows
at a time. Callers divide by the common weight denominator only at the end.
Witness ties go to the lexicographically least row. Rows come from a stored
array (a subgroup cached on the complex) or from `combinations`; values that
could leave int64 are refused with SearchSpaceTooLarge before any arithmetic.
Expansion scans, which need the distance of every coset representative, take
it from one table per scan (`distance_table`, with `coboundary_norm_table`
for the numerators), so their cost is representatives x faces, not
representatives x subgroup x faces.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .config import candidate_cap
from .errors import ParameterOutOfRange, SearchSpaceTooLarge

CHUNK = 1 << 12
INT64_MAX = int(np.iinfo(np.int64).max)
MOD_P_PRIMES = (2, 3)


def require_int64(bound: int, what: str) -> None:
    """Refuse a computation whose values can reach beyond int64."""
    if bound > INT64_MAX:
        raise SearchSpaceTooLarge(
            f"{what} can reach {bound}, beyond the int64 range of the coset kernel"
        )


def face_weights(X, k):
    """int64 weight numerators of the k-faces and their common denominator (cached)."""
    key = ("weights", k)
    hit = X.cache.get(key)
    if hit is None:
        nums = [X.deg_top(f) for f in X.faces(k)]
        require_int64(sum(nums), "weight sums")
        hit = (np.array(nums, dtype=np.int64), X.weight_denominator(k))
        X.cache[key] = hit
    return hit


def lex_digits(start, count, base, cols, width):
    """Rows start .. start+count-1 of the lexicographic enumeration of base^len(cols).

    Digit j of a row sits in column cols[j]; the other columns are zero.
    """
    idx = np.arange(start, start + count, dtype=np.int64)
    F = np.zeros((count, width), dtype=np.min_scalar_type(base - 1))
    nd = len(cols)
    for j, col in enumerate(cols):
        F[:, col] = (idx // base ** (nd - 1 - j)) % base
    return F


def chunks(G):
    """A stored array as consecutive blocks of at most CHUNK rows."""
    return (G[i:i + CHUNK] for i in range(0, len(G), CHUNK))


def combinations(base, gens, coeffs, skip_zero=False):
    """Blocks of the rows base + c @ gens for c in coeffs^len(gens), product order.

    coeffs is a range such as range(-b, b + 1), refused when empty (b < 0);
    skip_zero leaves out c = 0. Raises SearchSpaceTooLarge when there are
    more than `candidate_cap()` combinations or when an entry could overflow
    int64.
    """
    m, n, width = len(gens), len(coeffs), len(base)
    if not n:
        raise ParameterOutOfRange(f"empty coefficient range {coeffs}")
    total = n ** m
    cap = candidate_cap()
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} combinations exceed cap {cap}")
    cmax = max(abs(coeffs[0]), abs(coeffs[-1]))
    require_int64(
        max((abs(int(base[i])) + cmax * sum(abs(int(g[i])) for g in gens)
             for i in range(width)), default=0),
        "combination entries",
    )
    G = np.array(gens, dtype=np.int64).reshape(m, width)
    b0 = np.array(base, dtype=np.int64)
    for start in range(0, total, CHUNK):
        C = lex_digits(start, min(CHUNK, total - start), n, range(m), m)
        C = C.astype(np.int64) + coeffs[0]
        if skip_zero:
            C = C[C.any(axis=1)]
        R = C @ G
        R += b0
        yield R


def span(basis, n, width):
    """Every combination c @ basis mod n, c in range(n)^len(basis), product order."""
    return np.concatenate(list(combinations([0] * width, basis, range(n)))) % n


def min_distances(blocks, V, w):
    """Least w-weighted Hamming distance from each row of V to a row of the
    blocks, as an int64 array. A block meets V CHUNK // len(block) rows at a
    time (at least one), so no temporary passes CHUNK x width entries."""
    best = np.full(len(V), INT64_MAX, dtype=np.int64)
    for R in blocks:
        step = max(1, CHUNK // max(len(R), 1))
        for i in range(0, len(V), step):
            d = best[i:i + step]
            np.minimum(d, ((R != V[i:i + step, None]) @ w).min(axis=1, initial=INT64_MAX), out=d)
    return best


def min_distance(blocks, v, w):
    """min_distances for the one row v."""
    return int(min_distances(blocks, np.asarray(v)[None], w)[0])


def least_row(blocks, v, w):
    """(distance, row) minimising the distance from v, ties to the lex-least row."""
    best = None
    for R in blocks:
        if not len(R):
            continue
        d = (R != v) @ w
        m = int(d.min())
        if best is not None and m > best[0]:
            continue
        tied = R[d == m]
        for col in range(tied.shape[1]):
            if len(tied) == 1:
                break
            tied = tied[tied[:, col] == tied[:, col].min()]
        cand = (m, tuple(int(x) for x in tied[0]))
        if best is None or cand < best:
            best = cand
    return best


def table_dtype(bound: int) -> np.dtype:
    """Smallest unsigned dtype that holds every value up to bound."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound <= int(np.iinfo(dt).max):
            return np.dtype(dt)
    raise SearchSpaceTooLarge(f"table values can reach {bound}, beyond uint64")


def distance_table(blocks, n, free_cols, w):
    """Least w-weighted Hamming distance from each f to a row of the blocks.

    The f range over the vectors mod n that are zero off free_cols, in
    lex_digits order (the C-order index of shape (n,) * len(free_cols)). The
    rows (entries reduced mod n, at least one) are scattered to their free
    digits at the cost of their weight off free_cols; then one pass per free
    axis lets each f take the best entry along that axis at the cost w[col].
    Weight is a sum over coordinates and changing a coordinate costs w[col]
    whatever the new value, so the passes leave D[f] = min_b wt(f - b).
    """
    total = int(w.sum())
    dt = table_dtype(2 * total + 1)  # sentinel total + 1, plus one weight
    m = len(free_cols)
    D = np.full(n ** m, total + 1, dtype=dt)
    fixed = np.ones(len(w), dtype=bool)
    cols = np.asarray(free_cols, dtype=np.intp)
    fixed[cols] = False
    place = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for R in blocks:
        cost = (R[:, fixed] != 0) @ w[fixed]
        np.minimum.at(D, R[:, cols] @ place, cost.astype(dt))
    wd = w.astype(dt)
    for a, col in enumerate(free_cols):
        # axis a as the middle axis of a 3-d view; slice minima beat a reduce
        V = D.reshape(n ** a, n, n ** (m - 1 - a))
        step = V[:, 0].copy()
        for x in range(1, n):
            np.minimum(step, V[:, x], out=step)
        step += wd[col]
        np.minimum(V, step[:, None, :], out=V)
    return D


def coboundary_norm_table(M, n, free_cols, w):
    """Weighted count of the rows t of M with (M f)_t != 0 mod n, for each f.

    The f are those of distance_table. Row t is a linear form on at most a
    few free axes; its indicator, times w[t], is tabulated on those axes and
    added by broadcasting.
    """
    m = len(free_cols)
    E = np.zeros((n,) * m, dtype=table_dtype(int(w.sum())))
    digits = np.arange(n, dtype=np.int64)
    cols = np.asarray(free_cols, dtype=np.intp)
    for t, row in enumerate(np.asarray(M, dtype=np.int64)[:, cols] % n):
        axes = np.flatnonzero(row)
        if not len(axes):
            continue
        form = sum(int(c) * g for c, g in zip(row[axes], np.ix_(*[digits] * len(axes))))
        shape = [1] * m
        for a in axes:
            shape[a] = n
        E += ((form % n != 0) * w[t]).astype(E.dtype).reshape(shape)
    return E.reshape(-1)


def mod_p_floor(minimum_mod) -> Fraction:
    """Largest minimum_mod(p) over the small primes whose scan fits the cap.

    Reduction mod p only shrinks supports, so each mod-p minimum is a floor
    for the matching integer minimum; primes whose exhaustive scan raises
    SearchSpaceTooLarge are skipped, and with none left the floor is 0.
    """
    best = Fraction(0)
    for p in MOD_P_PRIMES:
        try:
            best = max(best, minimum_mod(p))
        except SearchSpaceTooLarge:
            continue
    return best
