"""The coset kernel against brute-force oracles on random relabelled complexes.

Each oracle is the plain-Python scan the kernel replaced: it enumerates the
subgroup straight from the definition (every coboundary, or every cochain
with zero coboundary), compares Fractions, and breaks ties on Python tuples.
"""

import os
import random
from fractions import Fraction
from itertools import combinations, product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hdx import building, cosets, expansion, intmat
from hdx.catalog import named_complex, names
from hdx.cochains import (
    COBOUNDARIES,
    COCYCLES,
    Cochain,
    _first_repair_step,
    coboundary,
    coboundary_group,
    cochain_vector,
    cocycle_group,
    delta_matrix,
    delta_rows,
    distance,
    lift_from_link,
    localize,
    locally_minimal_rows,
    subgroup_array,
    subgroup_generators,
    vector_cochain,
)
from hdx.complexes import build_complex
from hdx.config import candidate_cap
from hdx.errors import DimensionMismatch, IntegerRingRequiresBound, SearchSpaceTooLarge
from hdx.expansion import (
    INFINITY,
    _supports_up_to_norm,
    coboundary_epsilon,
    cosystolic_pair,
    small_set_check,
)
from hdx.lattice import _bounded_coset_minimum
from hdx.rings import INTEGERS, modular_ring, prime_field
from test_cochains import oracle_is_locally_minimal, random_relabelled_complex
from dense import identity, transpose

RINGS = [prime_field(2), prime_field(3), modular_ring(4), modular_ring(6)]
FIELDS = [prime_field(2), prime_field(3), prime_field(5)]
MODULAR = [modular_ring(4), modular_ring(6)]
BUDGET = 1500  # largest brute-force enumeration one example may need
SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def complexes(draw):
    """A pure complex on at most 7 vertices whose labels are a random permutation."""
    n = draw(st.integers(3, 7))
    d = draw(st.integers(1, 2))
    tops = draw(st.lists(st.sampled_from(list(combinations(range(n), d + 1))),
                         min_size=1, max_size=5, unique=True))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    return build_complex([[labels[i] for i in t] for t in tops])


def brute_group(X, ring, k, target):
    """B^k as all coboundaries, or Z^k as all cochains with zero coboundary."""
    if target == COBOUNDARIES:
        faces = X.faces(k - 1)
        assume(ring.size ** len(faces) <= BUDGET)
        return {
            cochain_vector(coboundary(vector_cochain(X, ring, k - 1, g)))
            for g in product(range(ring.size), repeat=len(faces))
        }
    assume(ring.size ** len(X.faces(k)) <= BUDGET)
    out = set()
    for z in product(range(ring.size), repeat=len(X.faces(k))):
        if k == X.dim or coboundary(vector_cochain(X, ring, k, z)).is_zero():
            out.add(z)
    return out


def delta_column_span(X, ring, k):
    """B^k = im delta_{k-1}, as the span of every column of delta_{k-1}."""
    nk = len(X.faces(k))
    cols = transpose(delta_matrix(X, k - 1))
    assume(ring.size ** len(cols) <= BUDGET)
    return {
        tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % ring.size
              for i in range(nk))
        for coeffs in product(range(ring.size), repeat=len(cols))
    }


@SETTINGS
@given(complexes(), st.sampled_from(RINGS), st.data())
def test_finite_subgroups_match_their_definitions(X, ring, data):
    """B^k is the span of all delta columns, Z^k the brute-force kernel."""
    k = data.draw(st.integers(0, X.dim))
    for target in (COBOUNDARIES, COCYCLES):
        for g in subgroup_generators(X, ring, k, target):
            assert any(g) and all(0 <= v < ring.size for v in g)
    bgroup, zgroup = coboundary_group(X, ring, k), cocycle_group(X, ring, k)
    assert len(set(bgroup)) == len(bgroup) and len(set(zgroup)) == len(zgroup)
    assert set(bgroup) == delta_column_span(X, ring, k)
    assert set(zgroup) == brute_group(X, ring, k, COCYCLES)


def dedup_subgroup_array(X, ring, k, target):
    """The subgroup as the distinct rows of the generators' span, in order of
    first appearance, found by a dedup sort."""
    R = cosets.span(subgroup_generators(X, ring, k, target), ring.size, len(X.faces(k)))
    _, first = np.unique(R, axis=0, return_index=True)
    return R[np.sort(first)]


def subgroup_cases(rings, budget=1 << 14):
    """(X, ring, k, target) over the catalog, B(3,2) and seeded random
    complexes, every k and both targets, with at most `budget` combinations."""
    rng = random.Random(35)
    complexes_ = [named_complex(name) for name in names()]
    complexes_ += [building.build_building(3, 2).complex]
    complexes_ += [random_relabelled_complex(rng) for _ in range(25)]
    for X in complexes_:
        for ring in rings:
            for k in range(X.dim + 1):
                for target in (COBOUNDARIES, COCYCLES):
                    if ring.size ** len(subgroup_generators(X, ring, k, target)) <= budget:
                        yield X, ring, k, target


def test_field_subgroups_enumerate_the_span_without_a_dedup_sort(monkeypatch):
    """Over F_p the generators are independent: the p^r span rows are distinct
    and byte-identical to the dedup route, and no sort runs to find that."""
    cases = list(subgroup_cases(FIELDS))
    wants = [dedup_subgroup_array(*case) for case in cases]

    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique during a field enumeration")

    monkeypatch.setattr(np, "unique", no_sort)
    seen = set()
    for (X, ring, k, target), want in zip(cases, wants):
        G = subgroup_array(X, ring, k, target)
        assert G.dtype == want.dtype and G.tobytes() == want.tobytes(), (X, ring, k, target)
        assert len({row.tobytes() for row in G}) == len(G)
        seen.add((ring.size, target))
    assert seen == {(p, t) for p in (2, 3, 5) for t in (COBOUNDARIES, COCYCLES)}


@pytest.mark.parametrize("n, combos, rows", [(4, 4096, 2048), (6, 46656, 15552)])
def test_modular_subgroups_still_drop_repeated_combinations(n, combos, rows):
    X, ring = named_complex("rp2"), modular_ring(n)
    gens = subgroup_generators(X, ring, 1, COCYCLES)
    assert n ** len(gens) == combos
    G = subgroup_array(X, ring, 1, COCYCLES)
    assert len(G) == rows == len({row.tobytes() for row in G})
    assert G.tobytes() == dedup_subgroup_array(X, ring, 1, COCYCLES).tobytes()
    for case in subgroup_cases(MODULAR):
        assert subgroup_array(*case).tobytes() == dedup_subgroup_array(*case).tobytes()


@SETTINGS
@given(complexes(), st.data())
def test_integer_generators_are_the_smith_bases(X, data):
    """Over Z the bounded searches depend on exactly these lattice bases."""
    k = data.draw(st.integers(-1, X.dim))
    image = [] if k == -1 else intmat.image_basis_int(delta_matrix(X, k - 1))
    if k == X.dim:
        kernel = identity(len(X.faces(k)))
    else:
        kernel = intmat.kernel_int(delta_matrix(X, k))
    assert subgroup_generators(X, INTEGERS, k, COBOUNDARIES) == image
    assert subgroup_generators(X, INTEGERS, k, COCYCLES) == kernel


def brute_distance(X, k, vec, group):
    wnum = [X.deg_top(f) for f in X.faces(k)]
    den = X.weight_denominator(k)
    return min(Fraction(sum(w for w, a, b in zip(wnum, vec, g) if a != b), den)
               for g in group)


@SETTINGS
@given(complexes(), st.sampled_from(RINGS), st.data())
def test_distance_matches_brute_force(X, ring, data):
    k = data.draw(st.integers(0, X.dim))
    target = data.draw(st.sampled_from([COBOUNDARIES, COCYCLES]))
    group = brute_group(X, ring, k, target)
    nk = len(X.faces(k))
    vec = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=nk, max_size=nk))
    f = vector_cochain(X, ring, k, vec)
    d, certified = distance(f, target)
    assert certified
    assert d == brute_distance(X, k, tuple(vec), group)


def repair_oracle(f):
    """The first repair step by the definition, with a brute-force link subgroup."""
    X, ring = f.complex, f.ring
    candidates = {sub for face in f.support for c in range(1, f.dim + 1)
                  for sub in combinations(face, c)}
    for sigma in sorted(candidates, key=lambda s: (len(s), s)):
        h = localize(f, sigma)
        if h.is_zero():
            continue
        L = h.complex
        hvec = cochain_vector(h)
        hnorm = h.norm()
        best = None
        for b in sorted(brute_group(L, ring, h.dim, COBOUNDARIES)):
            d = brute_distance(L, h.dim, hvec, [b])
            if d < hnorm and (best is None or d < best[0]):
                best = (d, b)
        if best is None:
            continue
        target = tuple(ring.reduce(v if len(sigma) % 2 == 0 else -v) for v in best[1])
        for pre in product(range(ring.size), repeat=len(L.faces(h.dim - 1))):
            g = vector_cochain(L, ring, h.dim - 1, pre)
            if cochain_vector(coboundary(g)) == target:
                return lift_from_link(g, sigma, X)
    return None


@SETTINGS
@given(complexes(), st.sampled_from(RINGS), st.data())
def test_first_repair_step_matches_brute_force(X, ring, data):
    k = data.draw(st.integers(1, X.dim))
    nk = len(X.faces(k))
    vec = data.draw(st.lists(st.integers(0, ring.size - 1), min_size=nk, max_size=nk))
    f = vector_cochain(X, ring, k, vec)
    assert _first_repair_step(f) == repair_oracle(f)


def scan_oracle(X, ring, k, group):
    """Least ||delta f|| / dist(f, group), first strict improvement in lex order."""
    best = witness = None
    for vec in product(range(ring.size), repeat=len(X.faces(k))):
        s = brute_distance(X, k, vec, group)
        if s == 0:
            continue
        ratio = coboundary(vector_cochain(X, ring, k, vec)).norm() / s
        if best is None or ratio < best:
            best, witness = ratio, vec
    return best, witness


@SETTINGS
@given(complexes(), st.sampled_from(MODULAR), st.data())
def test_generic_coset_scan_matches_brute_force(X, ring, data):
    """Over Z/n every cochain is a candidate, in product order."""
    k = data.draw(st.integers(0, X.dim - 1))
    nk = len(X.faces(k))
    assume(ring.size ** nk <= 256)
    for scan, target in [(coboundary_epsilon, COBOUNDARIES), (cosystolic_pair, COCYCLES)]:
        want_ratio, want_witness = scan_oracle(X, ring, k, brute_group(X, ring, k, target))
        rep = scan(X, ring, k)
        assert rep.certified
        assert rep.extra["cosets_scanned"] == ring.size ** nk
        if want_ratio is None:
            assert (rep.epsilon, rep.witness) == (INFINITY, None)
        else:
            assert rep.epsilon == want_ratio
            assert cochain_vector(rep.witness) == want_witness


@pytest.mark.parametrize("ring", [prime_field(3), modular_ring(6)], ids=str)
def test_coboundary_scan_stores_no_subgroup(ring):
    # the scan streams the generators' combinations; only distances and the
    # cosystolic mu read the stored subgroup array
    X = build_complex(["a b c", "a c d"])
    for k in range(X.dim):
        coboundary_epsilon(X, ring, k)
        assert ("array", COBOUNDARIES, ring, k) not in X.cache


@SETTINGS
@given(complexes(), st.data())
def test_bounded_coset_minimum_matches_brute_force(X, data):
    k = data.draw(st.integers(0, X.dim))
    nk = len(X.faces(k))
    ints = st.integers(-2, 2)
    base = data.draw(st.lists(ints, min_size=nk, max_size=nk))
    gens = data.draw(st.lists(st.lists(ints, min_size=nk, max_size=nk), max_size=3))
    b = data.draw(st.integers(0, 2))
    wnum = [X.deg_top(f) for f in X.faces(k)]
    den = X.weight_denominator(k)
    best = None
    for coeffs in product(range(-b, b + 1), repeat=len(gens)):
        vec = tuple(x + sum(c * g[i] for c, g in zip(coeffs, gens))
                    for i, x in enumerate(base))
        key = (Fraction(sum(w for w, v in zip(wnum, vec) if v), den), vec)
        if best is None or key < best:
            best = key
    val, vec = _bounded_coset_minimum(X, k, base, gens, b)
    assert (val, tuple(vec)) == best


def test_kernel_refuses_int64_overflow():
    X = build_complex(["a b", "b c"])
    big = 1 << 62
    with pytest.raises(SearchSpaceTooLarge):
        _bounded_coset_minimum(X, 0, [big, 0, 0], [[big, big, 0]], 1)
    with pytest.raises(SearchSpaceTooLarge):
        cosets.require_int64(cosets.INT64_MAX + 1, "test values")


def pivot_columns(group):
    """Columns where the projection of the group onto the prefix grows: the RREF pivots."""
    return [j for j in range(len(next(iter(group))))
            if len({g[:j + 1] for g in group}) > len({g[:j] for g in group})]


@SETTINGS
@given(complexes(), st.sampled_from(FIELDS), st.data())
def test_field_scans_match_brute_force(X, ring, data):
    """Ratio and lex-least witness among the representatives zero on the pivots."""
    k = data.draw(st.integers(0, X.dim - 1))
    nk = len(X.faces(k))
    assume(ring.size ** nk <= 729)
    cases = [(coboundary_epsilon, COBOUNDARIES), (cosystolic_pair, COCYCLES)]
    for scan, target in cases:
        group = brute_group(X, ring, k, target)
        pivots = pivot_columns(group)
        best = witness = None
        for vec in product(range(ring.size), repeat=nk):
            if any(vec[j] for j in pivots):
                continue
            s = brute_distance(X, k, vec, group)
            if s == 0:
                continue
            ratio = coboundary(vector_cochain(X, ring, k, vec)).norm() / s
            if best is None or ratio < best:
                best, witness = ratio, vec
        rep = scan(X, ring, k)
        assert rep.certified
        assert rep.extra["cosets_scanned"] == ring.size ** (nk - len(pivots))
        if best is None:
            assert (rep.epsilon, rep.witness) == (INFINITY, None)
        else:
            assert rep.epsilon == best
            assert cochain_vector(rep.witness) == witness
    # rep is now the cosystolic report: its mu is the least norm of Z^k outside B^k
    cocycles, bounds = brute_group(X, ring, k, COCYCLES), brute_group(X, ring, k, COBOUNDARIES)
    mu = min(((brute_distance(X, k, z, [(0,) * nk]), z) for z in cocycles - bounds),
             default=None)
    if mu is None:
        assert (rep.mu, rep.mu_witness) == (INFINITY, None)
    else:
        assert (rep.mu, cochain_vector(rep.mu_witness)) == mu


def test_distance_table_dtype_guard():
    assert cosets.table_dtype(255) == np.uint8
    assert cosets.table_dtype(256) == np.uint16
    assert cosets.table_dtype((1 << 64) - 1) == np.uint64
    with pytest.raises(SearchSpaceTooLarge):
        cosets.table_dtype(1 << 64)
    # distances up to 300 need uint16: a uint8 table would wrap them
    w = np.array([200, 100], dtype=np.int64)
    table = cosets.distance_table([np.zeros((1, 2), dtype=np.int64)], 2, [0, 1], w)
    assert table.dtype == np.uint16
    assert table.tolist() == [0, 100, 200, 300]
    norms = cosets.coboundary_norm_table([{0: 1, 1: 1}, {1: 1}], 2, [0, 1],
                                         np.array([200, 100], dtype=np.int64))
    assert norms.dtype == np.uint16
    assert norms.tolist() == [0, 300, 200, 100]


def small_set_oracle(X, ring, epsilon, mu, cap):
    """The per-cochain loop: every nonzero assignment per support, in product
    order, each tested by the per-face local-minimality oracle."""
    nonzero = [v for v in ring.elements() if v]
    for k in range(0, X.dim):
        for support in _supports_up_to_norm(X, k, mu):
            if len(nonzero) ** len(support) > cap:
                raise SearchSpaceTooLarge(
                    f"{len(nonzero) ** len(support)} value assignments exceed cap {cap}"
                )
            for values in product(nonzero, repeat=len(support)):
                f = Cochain(X, ring, k, dict(zip(support, values)))
                if coboundary(f).norm() >= epsilon * f.norm():
                    continue
                if oracle_is_locally_minimal(f):
                    return False, f
    return True, None


def outcome(check, *args):
    try:
        return check(*args)
    except SearchSpaceTooLarge as exc:
        return "raised", str(exc)


@SETTINGS
@given(complexes(), st.sampled_from([prime_field(2), prime_field(3), modular_ring(4)]),
       st.fractions(0, 3, max_denominator=4),
       st.fractions(Fraction(1, 6), 1, max_denominator=6),
       st.sampled_from([2, 3, 4, 8, 9, 27, 1 << 12]))
def test_small_set_check_matches_per_cochain_loop(X, ring, epsilon, mu, cap):
    """Same verdict, same first counterexample, and the cap raises at the same support."""
    with patch.dict(os.environ, {"HDX_CAP": str(cap)}):
        assert (outcome(small_set_check, X, ring, epsilon, mu)
                == outcome(small_set_oracle, X, ring, epsilon, mu, cap))


@SETTINGS
@given(complexes(), st.sampled_from([prime_field(2), prime_field(3), modular_ring(4)]),
       st.data())
def test_distance_table_with_every_column_free_matches_min_distance(X, ring, data):
    """With no fixed column the table holds the distance of every cochain mod n."""
    k = data.draw(st.integers(0, X.dim))
    n, m = ring.size, len(X.faces(k))
    assume(n ** m <= BUDGET)
    w, _ = cosets.face_weights(X, k)
    G = subgroup_array(X, ring, k, COBOUNDARIES)
    table = cosets.distance_table(cosets.chunks(G), n, range(m), w)
    rows = cosets.lex_digits(0, n ** m, n, range(m), m)
    assert table.tolist() == [cosets.min_distance(cosets.chunks(G), v, w) for v in rows]


@SETTINGS
@given(complexes(), st.sampled_from(RINGS), st.data())
def test_locally_minimal_rows_match_the_per_face_oracle(X, ring, data):
    """Every k, one batch: random rows with entries outside [0, n), the zero
    row and repeated rows, each against the per-face route."""
    n = ring.size
    for k in range(-1, X.dim + 1):
        nk = len(X.faces(k))
        row = st.lists(st.integers(-n, 2 * n), min_size=nk, max_size=nk)
        rows = data.draw(st.lists(row, min_size=1, max_size=5))
        rows = rows + [[0] * nk] + rows[:2]
        want = [oracle_is_locally_minimal(vector_cochain(X, ring, k, r)) for r in rows]
        assert locally_minimal_rows(X, ring, k, rows).tolist() == want


def test_locally_minimal_rows_refusals():
    X = build_complex(["a b c", "a c d"])
    with pytest.raises(IntegerRingRequiresBound):
        locally_minimal_rows(X, INTEGERS, 1, [[1] * 5])
    for bad in ([[1] * 4], [[1] * 6], [1] * 5, [[[1] * 5]]):
        with pytest.raises(DimensionMismatch):
            locally_minimal_rows(X, prime_field(3), 1, bad)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_locally_minimal_rows_on_the_octahedron(ring):
    """Sparse rows on mixed-sign links: vertex 3's link is 1 2 5 6, so the
    localization at 3 reads f(1 3) and f(2 3) with the sign -1."""
    X = build_complex(["1 2 3", "1 2 4", "1 5 3", "1 5 4", "6 2 3", "6 2 4", "6 5 3", "6 5 4"])
    rng = random.Random(ring.size)
    for k in (1, 2):
        nk = len(X.faces(k))
        rows = []
        for _ in range(150):
            row = [0] * nk
            for j in rng.sample(range(nk), rng.randint(1, 4)):
                row[j] = rng.randrange(1, ring.size)
            rows.append(row)
        want = [oracle_is_locally_minimal(vector_cochain(X, ring, k, r)) for r in rows]
        assert len(set(want)) == 2
        assert locally_minimal_rows(X, ring, k, rows).tolist() == want


# -- the coset scan's tables and ratio pass against the forms they replaced ------


def oracle_distance_table(blocks, n, free_cols, w):
    """The scatter and per-axis passes for every subgroup size."""
    total = int(w.sum())
    dt = cosets.table_dtype(2 * total + 1)
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
        V = D.reshape(n ** a, n, n ** (m - 1 - a))
        step = V[:, 0].copy()
        for x in range(1, n):
            np.minimum(step, V[:, x], out=step)
        step += wd[col]
        np.minimum(V, step[:, None, :], out=V)
    return D


def oracle_norm_table(M, n, free_cols, w):
    """Each row's indicator on its free axes, broadcast over the dense table."""
    m = len(free_cols)
    E = np.zeros((n,) * m, dtype=cosets.table_dtype(int(w.sum())))
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


def ratio_oracle(norm, dist):
    """(e, s, i) at the first strict improvement of e / s over dist > 0, in Fractions."""
    best = None
    for i, (e, s) in enumerate(zip(norm.tolist(), dist.tolist())):
        if s and (best is None or Fraction(e, s) < Fraction(best[0], best[1])):
            best = (e, s, i)
    return best


def split_blocks(rows, cuts):
    """rows as consecutive blocks cut at the sorted positions cuts (empty ones too)."""
    edges = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    return [rows[a:b] for a, b in zip(edges, edges[1:])]


TABLE_RINGS = [prime_field(2), prime_field(3), prime_field(5), modular_ring(4), modular_ring(6)]
TABLE_BUDGET = 4096  # largest table one example may build


@SETTINGS
@given(complexes(), st.sampled_from(TABLE_RINGS), st.data())
def test_tables_match_the_parent_oracles(X, ring, data):
    """Values and dtype on random free columns, both routes of the distance
    table (rows up to m and beyond), rows split into random blocks."""
    n = ring.size
    k = data.draw(st.integers(0, X.dim - 1))
    nk = len(X.faces(k))
    free_cols = sorted(data.draw(st.sets(st.integers(0, nk - 1), max_size=nk)))
    m = len(free_cols)
    assume(n ** m <= TABLE_BUDGET)
    wk, _ = cosets.face_weights(X, k)
    wk1, _ = cosets.face_weights(X, k + 1)
    count = data.draw(st.sampled_from([1, max(m, 1), m + 1, m + 5]))
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=nk, max_size=nk),
                                       min_size=count, max_size=count)), dtype=np.int64)
    cuts = data.draw(st.lists(st.integers(0, count), max_size=3))
    want = oracle_distance_table(split_blocks(rows, cuts), n, free_cols, wk)
    got = cosets.distance_table(iter(split_blocks(rows, cuts)), n, free_cols, wk)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    want = oracle_norm_table(delta_matrix(X, k), n, free_cols, wk1)
    got = cosets.coboundary_norm_table(delta_rows(X, k), n, free_cols, wk1)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@pytest.mark.parametrize("ring", [prime_field(3), modular_ring(4)], ids=str)
def test_distance_table_routes_meet_at_the_rule(monkeypatch, ring):
    """Rows = m takes the outer sums, m + 1 the scatter; m = 0, a lone zero
    row and no rows at all agree with the oracle too."""
    built = []
    outer_sum = cosets.outer_sum
    monkeypatch.setattr(cosets, "outer_sum", lambda *a: built.append(1) or outer_sum(*a))
    n = ring.size
    X = named_complex("octahedron")
    w, _ = cosets.face_weights(X, 1)
    rng = random.Random(n)
    for free_cols in ([], [4], [0, 3, 7], [1, 2, 5, 6, 9]):
        m = len(free_cols)
        for count in {0, 1, m, m + 1}:
            rows = np.array([[rng.randrange(n) for _ in range(len(w))] for _ in range(count)],
                            dtype=np.int64).reshape(count, len(w))
            for R in ([rows], [rows[:1], rows[1:]], [np.zeros((1, len(w)), dtype=np.int64)]):
                want = oracle_distance_table(R, n, free_cols, w)
                built.clear()
                got = cosets.distance_table(R, n, free_cols, w)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
                assert bool(built) == (0 < sum(map(len, R)) <= m)


def test_norm_table_reads_only_nonzero_digits_mod_n():
    # entries that vanish mod n read no axis; a row with no free axis adds nothing
    w = np.array([3, 5, 7], dtype=np.int64)
    rows = [{0: 4, 1: 1}, {1: 2, 2: -2}, {0: 1}]
    M = intmat.dense_rows(rows, 3)
    for free_cols in ([], [1], [1, 2], [0, 1, 2]):
        want = oracle_norm_table(M, 4, free_cols, w)
        got = cosets.coboundary_norm_table(rows, 4, free_cols, w)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def scan_over_oracle_tables(X, ring, k, free_cols, rows):
    n = ring.size
    wk, den_k = cosets.face_weights(X, k)
    wk1, den_k1 = cosets.face_weights(X, k + 1)
    dist = oracle_distance_table([rows], n, free_cols, wk)
    norm = oracle_norm_table(delta_matrix(X, k), n, free_cols, wk1)
    best = ratio_oracle(norm, dist)
    if best is None:
        return INFINITY, None, n ** len(free_cols)
    e, s, i = best
    witness = cosets.lex_digits(i, 1, n, free_cols, len(wk))[0].tolist()
    return Fraction(e * den_k, s * den_k1), tuple(witness), n ** len(free_cols)


@SETTINGS
@given(complexes(), st.sampled_from(TABLE_RINGS), st.data())
def test_coset_scan_matches_a_scan_over_the_oracle_tables(X, ring, data):
    n = ring.size
    k = data.draw(st.integers(0, X.dim - 1))
    nk = len(X.faces(k))
    target = data.draw(st.sampled_from([COBOUNDARIES, COCYCLES]))
    gens = subgroup_generators(X, ring, k, target)
    assume(n ** len(gens) <= BUDGET)
    rows = np.concatenate(list(cosets.combinations([0] * nk, gens, range(n)))) % n
    free_cols = sorted(data.draw(st.sets(st.integers(0, nk - 1), max_size=nk)))
    assume(n ** len(free_cols) <= TABLE_BUDGET)
    got = expansion._coset_scan(X, ring, k, free_cols, cosets.chunks(rows))
    assert got == scan_over_oracle_tables(X, ring, k, free_cols, rows)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 14])
def test_least_ratio_ties_zeros_and_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(cosets, "CHUNK", block)
    u8 = np.uint8
    cases = [
        ([3, 2, 4, 2, 1, 2], [3, 2, 4, 2, 1, 2]),  # every ratio 1: the first live index
        ([5, 1, 2, 3, 0, 0], [0, 3, 6, 9, 4, 2]),  # 1/3 tied three times, then ratio 0
        ([9, 9, 9, 9, 9], [0, 0, 0, 0, 0]),  # every distance 0: no minimum
        ([0, 4, 3, 6, 2, 1, 2], [0, 0, 4, 8, 3, 1, 3]),  # 2/3 after 3/4, 6/8 and 1/1
        ([7] * 9 + [1], [0] * 8 + [9, 2]),  # the only live entries after several blocks
    ]
    rng = random.Random(block)
    for _ in range(30):
        size = rng.randrange(1, 40)
        cases.append(([rng.randrange(4) for _ in range(size)], [rng.randrange(4) for _ in range(size)]))
    for e, s in cases:
        norm, dist = np.array(e, dtype=u8), np.array(s, dtype=u8)
        assert expansion._least_ratio(norm, dist) == ratio_oracle(norm, dist)


def fraction_supports(X, k, mu):
    """The pruned DFS with the Fraction limit mu * den, compared against ints."""
    cap = candidate_cap()
    faces = X.faces(k)
    wnum = [X.deg_top(f) for f in faces]
    limit = mu * X.weight_denominator(k)
    out = []

    def rec(i, acc, chosen):
        if len(out) > cap:
            raise SearchSpaceTooLarge(f"more than {cap} supports below norm {mu}")
        if i == len(faces):
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


@pytest.mark.parametrize("name", ["octahedron", "rp2", "hollow_triangle"])
def test_integer_supports_match_the_fraction_dfs(name):
    X = named_complex(name)
    for k in range(X.dim + 1):
        den = X.weight_denominator(k)
        norms = sorted({Fraction(X.deg_top(f), den) for f in X.faces(k)})
        # a mu at a support's norm, between norms, with a denominator prime to
        # den, negative, zero and past every face
        mus = {norms[0], norms[-1], 2 * norms[0], Fraction(1, 2), Fraction(2, 7),
               Fraction(1, 2 * den + 1), Fraction(-1, 3), Fraction(0), Fraction(3, 2)}
        for mu in sorted(mus):
            assert _supports_up_to_norm(X, k, mu) == fraction_supports(X, k, mu), (k, mu)


# -- the stacked unit-pivot solve against intmat.solve_int ------------------------


def _system(rng, kind):
    """(rows, b) of one small integer system of the given kind."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    if kind == "boundary":  # columns of +-1 with two or three nonzeros, as in a chain complex
        rows = [[0] * n for _ in range(m)]
        for j in range(n):
            for i in rng.sample(range(m), min(m, rng.randint(2, 3))):
                rows[i][j] = rng.choice((1, -1))
    elif kind == "non-unit":  # every nonzero even
        rows = [[rng.choice((0, 2, -2, 4)) for _ in range(n)] for _ in range(m)]
        rows[0][0] = 2
    elif kind == "big":  # a unit diagonal beside entries past the bound
        m = n = rng.randint(2, 5)
        rows = [[int(i == j) if i >= j else rng.choice((0, 2 ** 40, -(2 ** 33)))
                 for j in range(n)] for i in range(m)]
        rows[0][n - 1] = 2 ** 40
    else:  # "small" or "unsolvable"
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    x = [rng.randint(-2, 2) for _ in range(n)]
    b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    if kind == "unsolvable":  # a unit pivot per column, one row repeated with another value
        rows = [[int(i == j) for j in range(n)] for i in range(n + 1)]
        rows[n][0] = 1
        b = x + [x[0] + 1]
    elif kind == "small" and rng.random() < 0.3:
        b[rng.randrange(len(b))] += 1
    return rows, b


def _stacked(systems):
    """The (S, m, n + 1) int64 stack of the systems, zero-padded to the largest."""
    m = max(len(rows) for rows, _ in systems)
    n = max(len(rows[0]) for rows, _ in systems)
    A = np.zeros((len(systems), m, n + 1), dtype=np.int64)
    for s, (rows, b) in enumerate(systems):
        A[s, :len(rows), :len(rows[0])] = rows
        A[s, :len(b), n] = b
    return A


KINDS = ("boundary", "small", "non-unit", "unsolvable", "big")


@pytest.mark.parametrize("seed", range(6))
def test_unit_solve_stack_matches_solve_int(seed, monkeypatch):
    # each system of a seeded random stack gets what intmat.solve_int gives it
    # on its own rows, and only a system with no unit pivot or an entry past
    # the int64 bound is handed to solve_int
    rng = random.Random(seed)
    systems = [_system(rng, KINDS[i % len(KINDS)]) for i in range(40)]
    A = _stacked(systems)
    n = A.shape[2] - 1
    bound = cosets.isqrt(cosets.INT64_MAX // (n + 2))
    handed, solve = [], intmat.solve_int

    def counting(M, b, width=None):
        handed.append((M, b))
        return solve(M, b, width)

    monkeypatch.setattr(intmat, "solve_int", counting)
    X, solved = cosets.unit_solve_stack(A)
    monkeypatch.undo()
    assert X.shape == (len(systems), n) and X.dtype == np.int64
    routes, hard_count = {kind: set() for kind in KINDS}, 0  # (handed, solvable) per kind
    for s, (rows, b) in enumerate(systems):
        want = intmat.solve_int(rows, b)
        got = X[s, :len(rows[0])].tolist() if solved[s] else None
        assert got == want, (s, rows, b)
        assert not X[s, len(rows[0]):].any() and (solved[s] or not X[s].any())
        hard = intmat.unit_echelon(rows) is None or max(abs(v) for row in rows for v in row) > bound
        assert ((A[s, :, :n].tolist(), A[s, :, n].tolist()) in handed) == hard
        routes[KINDS[s % len(KINDS)]].add((hard, want is not None))
        hard_count += hard
    assert len(handed) == hard_count
    # with no unit pivot or past the bound solve_int solves; an unsolvable
    # right-hand side with unit pivots is found in int64
    assert {hard for hard, _ in routes["non-unit"] | routes["big"]} == {True}
    assert routes["unsolvable"] == {(False, False)}
    assert (False, True) in routes["boundary"] and (False, True) in routes["small"]


def test_unit_solve_stack_hands_over_entries_past_the_bound(monkeypatch):
    # B = the bound for three columns: an entry past it anywhere, a factor
    # that grows past it beside a unit pivot, a pivot row that grows past it
    # and an x past it all send their system to solve_int, which gives the answer
    B = cosets.isqrt(cosets.INT64_MAX // 5)
    systems = [
        ([[1, 0, 0], [0, 0, 0]], [0, 2 ** 62]),  # past the bound below the rank only
        ([[1, B, 0], [-B, 0, 0], [0, 1, 0]], [1, -B, 0]),  # a factor B^2 beside a unit
        ([[1, 0, B], [-B, 1, 0], [0, 0, 1]], [0, 1, 0]),  # a pivot row holding B^2
        ([[1, B, 0], [0, 1, B], [0, 0, 1]], [0, 0, 1]),  # back-substitution reaching B^2
        ([[1, B, 0], [0, 1, 0], [0, 0, 1]], [B, 1, 0]),  # all within the bound
    ]
    handed, solve = [], intmat.solve_int

    def counting(M, b, width=None):
        handed.append(M)
        return solve(M, b, width)

    monkeypatch.setattr(intmat, "solve_int", counting)
    X, solved = cosets.unit_solve_stack(_stacked(systems))
    monkeypatch.undo()
    assert [x.tolist() if ok else None for x, ok in zip(X, solved)] == [
        intmat.solve_int(rows, b) for rows, b in systems
    ]
    assert handed == [_stacked(systems)[s, :, :3].tolist() for s in range(4)]


def test_unit_solve_stack_edge_shapes():
    # no systems, no columns, and no rows beside a system that fills them
    X, solved = cosets.unit_solve_stack(np.zeros((0, 3, 4), dtype=np.int64))
    assert X.shape == (0, 3) and solved.shape == (0,)
    X, solved = cosets.unit_solve_stack(np.array([[[0], [2]], [[0], [0]]], dtype=np.int64))
    assert X.shape == (2, 0) and solved.tolist() == [False, True]
    A = np.array([[[1, -1, 3], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]], dtype=np.int64)
    X, solved = cosets.unit_solve_stack(A)
    assert X.tolist() == [[3, 0], [0, 0]] and solved.tolist() == [True, True]
    # a solution past int64 is refused, as every int64 kernel here refuses
    huge = np.array([[[1, 2 ** 62, 0], [0, 1, 4]]], dtype=np.int64)
    with pytest.raises(SearchSpaceTooLarge, match="unit solve entries"):
        cosets.unit_solve_stack(huge)

