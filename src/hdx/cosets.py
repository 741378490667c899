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

Both tables have n^m entries for m free axes, and a numpy call pays a fixed
cost for every inner loop it runs. So both grow one axis at a time, the new
axis leading, by calls whose inner loop is a whole block of trailing axes;
a broadcast over a table whose last axis is one digit would run n^(m-1)
inner loops of n entries. The distance table picks its route by the
subgroup's size (see there): per-row outer sums when it streams at most m
rows, a scatter and per-axis passes beyond.

The same int64 arrays carry `unit_solve_stack`, which solves a stack of small
integer systems by `intmat._unit_reduce`'s pivot rule all at once: sparse,
arbitrary-precision elimination stays in `intmat`, stacked int64 elimination
lives here, and a system it cannot finish goes to `intmat.solve_int`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import isqrt
from operator import mul

import numpy as np

from . import intmat
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


def outer_sum(out, costs, base):
    """out[f] = base + sum_a costs[a][f_a] over the C-order index f of
    (n,) * len(costs), grown in out's head one axis at a time with the new
    axis leading: block x of a stage is the stage before (block 0) plus
    costs[a][x], blocks 1..n-1 first and block 0 in place."""
    out[0] = base
    size = 1
    for c in reversed(costs):
        for x in range(1, len(c)):
            np.add(out[:size], c[x], out=out[x * size:(x + 1) * size])
        out[:size] += c[0]
        size *= len(c)
    return out


def distance_table(blocks, n, free_cols, w):
    """Least w-weighted Hamming distance from each f to a row of the blocks.

    The f range over the vectors mod n that are zero off free_cols, in
    lex_digits order (the C-order index of shape (n,) * len(free_cols)). The
    rows have entries reduced mod n, and there is at least one. Weight is a
    sum over coordinates, and changing a coordinate costs w[col] whatever
    the new value, so D[f] = min_b (weight of b off free_cols + sum over the
    free axes a of w[col_a] [f_a != b_a]). The route depends on the number
    of rows the blocks stream against m = len(free_cols):

    - at most m rows: each row's table is an `outer_sum` of its per-axis
      costs. The first is built in D itself. Each later one is built over
      axes 1..m-1 only, in one temporary of n^(m-1) entries, and folded
      into D through the n slices D.reshape(n, -1)[x] of axis 0: first the
      row's own digit, then, with the axis cost added in place, the others;
    - more rows: the rows are scattered to their free digits at their cost
      off free_cols, and one pass per free axis lets each f take the best
      entry along that axis at the cost w[col].

    A scatter pass over an axis near the end runs inner loops of a few
    entries, so the passes cost many sweeps of D whatever the row count,
    while the outer sums cost about one sweep per row: up to m rows the
    outer sums are cheaper, beyond they are not.
    """
    total = int(w.sum())
    dt = table_dtype(2 * total + 1)  # sentinel total + 1, plus one weight
    m = len(free_cols)
    fixed = np.ones(len(w), dtype=bool)
    cols = np.asarray(free_cols, dtype=np.intp)
    fixed[cols] = False
    wd = w.astype(dt)
    D = np.full(n ** m, total + 1, dtype=dt)
    blocks = iter(blocks)
    head, count = [], 0
    for R in blocks:
        head.append(R)
        count += len(R)
        if count > m:
            break
    if 0 < count <= m:
        R = np.concatenate(head)
        # cost[r, a, x]: the cost of digit x on free axis a against row r
        cost = np.empty((count, m, n), dtype=dt)
        cost[:] = wd[cols][:, None]
        cost[np.arange(count)[:, None], np.arange(m), R[:, cols]] = 0
        base = (R[:, fixed] != 0) @ w[fixed]
        outer_sum(D, cost[0], base[0])
        Dn, T = D.reshape(n, -1), np.empty(n ** (m - 1), dtype=dt)
        for c, b, f0 in zip(cost[1:], base[1:], R[1:, cols[0]]):
            outer_sum(T, c[1:], b)
            np.minimum(Dn[f0], T, out=Dn[f0])
            T += wd[cols[0]]
            for x in range(n):
                if x != f0:
                    np.minimum(Dn[x], T, out=Dn[x])
        return D
    place = n ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for R in chain(head, blocks):
        np.minimum.at(D, R[:, cols] @ place, ((R[:, fixed] != 0) @ w[fixed]).astype(dt))
    for a, col in enumerate(free_cols):
        # axis a as the middle axis of a 3-d view; slice minima beat a reduce
        V = D.reshape(n ** a, n, n ** (m - 1 - a))
        step = V[:, 0].copy()
        for x in range(1, n):
            np.minimum(step, V[:, x], out=step)
        step += wd[col]
        np.minimum(V, step[:, None, :], out=V)
    return D


def coboundary_norm_table(rows, n, free_cols, w):
    """Weighted count of the rows t with (row_t . f) != 0 mod n, for each f.

    rows are sparse {column: value} rows (`cochains.delta_rows`) and the f
    are those of distance_table. The table is C - Z, with C the weight of
    the rows that read a free axis and Z[f] the weight of those whose form
    vanishes at f. It grows one axis at a time in the head of the returned
    array, the new axis leading (a = m-1 .. 0), as in `outer_sum`: a stage
    over axes a..m-1 is n copies of the stage before, and each row is
    charged at the stage of its least free axis, by subtracting its weight
    on the slabs where its digits make the form vanish. Every copy and slab
    runs along the trailing axes, and nothing else is allocated.
    """
    m = len(free_cols)
    axis = {col: a for a, col in enumerate(free_cols)}
    at = [[] for _ in range(m)]  # (form, weight) of each row, by its least free axis
    live = 0
    for t, row in enumerate(rows):
        form = sorted((axis[c], v % n) for c, v in row.items() if c in axis and v % n)
        if form:
            at[form[0][0]].append((form, int(w[t])))
            live += int(w[t])
    zeros = {}  # coefficients -> the digit tuples where their form vanishes
    E = np.empty(n ** m, dtype=table_dtype(int(w.sum())))
    E[0] = live
    size = 1
    for a in range(m - 1, -1, -1):
        E[size:n * size].reshape(n - 1, size)[:] = E[:size]
        size *= n
        V = E[:size].reshape((n,) * (m - a))
        for form, wt in at[a]:
            axes, coeffs = zip(*form)
            if coeffs not in zeros:
                zeros[coeffs] = [d for d in product(range(n), repeat=len(coeffs))
                                 if sum(map(mul, coeffs, d)) % n == 0]
            for digits in zeros[coeffs]:
                slab = [slice(None)] * (m - a)
                for b, d in zip(axes, digits):
                    slab[b - a] = d
                V[tuple(slab)] -= wt
    return E


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


def unit_solve_stack(A):
    """(X, solved) for the integer systems A[s, :, :n] x = A[s, :, n] of an
    (S, m, n + 1) int64 stack: X[s] is the x that `intmat.solve_int` gives
    where solved[s], and solved[s] is False, with X[s] zero, where it gives None.

    Every system follows `intmat._unit_reduce`'s rule at once: column by
    column, the pivot is the first row at or below the system's current row
    whose entry is +-1; it is swapped up, the column is cleared below it only,
    and a column with no nonzero there is free. Then a nonzero right-hand
    side below the rank leaves no solution, and back-substitution sets the
    free variables to 0. Zero rows and columns that pad a system change
    nothing. Entries, factors and x are held to isqrt(INT64_MAX // (n + 2)),
    so no sum of the n elimination steps or of the back-substitution leaves
    int64; a system past that bound, or with a column of non-unit
    candidates, is solved by `intmat.solve_int` instead.
    """
    S, m, width = A.shape
    n, bound = width - 1, isqrt(INT64_MAX // (width + 1))
    out = np.zeros((S, m + 1, width), dtype=np.int64)  # row m stays zero
    out[:, :m] = A
    hard = np.abs(out).max(axis=(1, 2)) > bound
    out[hard] = 0
    rows, at, t = np.arange(m + 1), np.arange(S), np.zeros(S, dtype=np.int64)
    for c in range(n):
        # the candidates at or below each system's current row t
        below = np.abs(out[:, :, c]) * (rows >= t[:, None])
        unit = below == 1
        go = unit.any(axis=1)
        lost = below.max(axis=1) > np.where(go, bound, 0)
        p = np.where(go, unit.argmax(axis=1), t)
        piv = out[at, p]
        out[at, p] = out[at, t]
        out[at, t] = piv
        lost |= go & (np.abs(piv).max(axis=1) > bound)
        if lost.any():
            hard |= lost
            out[lost], go[lost] = 0, False
        s, i = np.nonzero(out[:, :, c] * ((rows > t[:, None]) & go[:, None]))
        out[s, i, c:] -= (out[s, i, c] * piv[s, c])[:, None] * piv[s, c:]
        t += go
    # row i < t holds its pivot, a +-1, first; column n takes the rows past t
    pivot = np.where(rows[:m] < t[:, None], (out[:, :m] != 0).argmax(axis=2), n)
    X = np.zeros((S, width), dtype=np.int64)
    for i in range(int(t.max(initial=0)) - 1, -1, -1):
        c, row = pivot[:, i], out[:, i]
        x = row[at, c] * (c < n) * (row[:, n] - (row[:, :n] * X[:, :n]).sum(axis=1))
        X[at, c] = x
        if np.abs(x).max() > bound:
            hard |= np.abs(x) > bound
            X[hard] = 0
    solved = ~((rows >= t[:, None]) & (out[:, :, n] != 0)).any(axis=1)
    X[~solved] = 0
    for s in np.flatnonzero(hard).tolist():
        x = intmat.solve_int(A[s, :, :n].tolist(), A[s, :, n].tolist())
        solved[s] = x is not None
        X[s] = 0
        if x is not None:
            require_int64(max(map(abs, x), default=0), "unit solve entries")
            X[s, :n] = x
    return X[:, :n], solved
