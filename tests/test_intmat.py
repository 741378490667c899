import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from dense import dense_smith, dense_unit_echelon, diagonal, identity, mat_mul, mat_vec, transpose
from hdx import building, catalog, intmat
from hdx.cochains import COBOUNDARIES, COCYCLES, delta_matrix, subgroup_generators
from hdx.complexes import build_complex
from hdx.lattice import free_cocycle_generators, smith_form_holds, smith_profile
from hdx.rings import INTEGERS, modular_ring, prime_field


def smith_as_dense(M):
    """`intmat.smith_normal_form`'s (U, d, V) as the dense (U, S, V) of the
    dense oracles below, S the diagonal matrix of d."""
    U, d, V = dense_smith(M)
    return U, diagonal(d, len(M), len(M[0]) if M else 0), V


def test_snf_identity():
    U, d, V = intmat.smith_normal_form(identity(3))
    assert d == [1, 1, 1]


def test_snf_simple_diagonal():
    M = [[2, 0], [0, 0]]
    U, d, V = intmat.smith_normal_form(M)
    assert d == [2]


def test_snf_random_transform_verification():
    rng = random.Random(0)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        U, d, V = dense_smith(M)
        # off-diagonal entries vanish and the diagonal starts with d
        assert mat_mul(mat_mul(U, M), V) == diagonal(d, m, n)
        assert all(a > 0 for a in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0
        # unimodularity
        Ui = invert_unimodular(U)
        assert mat_mul(U, Ui) == identity(m)


def smith_solve_columns(M, bs):
    """One integer solution of M x = b per b in bs, or None, from one Smith
    form of M: c = U b must vanish below the rank and be divisible by d above
    it, and x = V (c / d). The oracle for `intmat.solve_int_columns`, whose
    unit-pivot route builds no U and no V."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0:
        return [[0] * n for _ in bs]
    U, d, V = dense_smith(M)
    out = []
    for b in bs:
        c = mat_vec(U, b)
        solvable = not any(c[len(d):]) and not any(ci % di for ci, di in zip(c, d))
        y = [ci // di for ci, di in zip(c, d)] + [0] * (n - len(d))
        out.append(mat_vec(V, y) if solvable else None)
    return out


def record_reductions(monkeypatch):
    """Record (route, M) per reduction of a matrix M over both routes: "unit"
    for a unit-pivot elimination that finished, "smith" for a Smith form. A
    unit-pivot elimination stopped by a non-unit column is recorded as
    "refused"; it is no reduction, and the Smith form that follows reduces M."""
    seen = []
    unit, smith = intmat._unit_reduce, intmat.smith_normal_form

    def unit_counted(rows, n, mults=None):
        # the matrix part of the rows, read before they are reduced in place
        M = [[row.get(j, 0) for j in range(n)] for row in rows]
        reduced = unit(rows, n, mults)
        seen.append(("refused" if reduced is None else "unit", M))
        return reduced

    def smith_counted(M, width=None, **kwargs):
        # the dense matrix, whether M comes dense or as sparse rows
        seen.append(("smith", intmat.dense_rows(*intmat.rows_of(M, width))))
        return smith(M, width, **kwargs)

    monkeypatch.setattr(intmat, "_unit_reduce", unit_counted)
    monkeypatch.setattr(intmat, "smith_normal_form", smith_counted)
    return seen


def reductions(seen):
    """The matrices reduced, in order, from a `record_reductions` record; each
    refused matrix must be among them, reduced by a Smith form."""
    smith = [M for route, M in seen if route == "smith"]
    assert all(M in smith for route, M in seen if route == "refused")
    return [M for route, M in seen if route != "refused"]


def test_solve_int():
    M = [[2, 0], [0, 3]]
    assert intmat.solve_int(M, [4, 9]) == [2, 3]
    assert intmat.solve_int(M, [1, 0]) is None
    rng = random.Random(1)
    for _ in range(20):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = mat_vec(M, x)
        y = intmat.solve_int(M, b)
        assert y is not None
        assert mat_vec(M, y) == b


def test_kernel_int():
    M = [[1, 1, 0], [0, 0, 0]]
    K = intmat.kernel_int(M)
    assert len(K) == 2
    for v in K:
        assert mat_vec(M, v) == [0, 0]


def test_rref_and_kernel_mod_p():
    M = [[1, 2, 0], [2, 4, 1]]
    basis, pivots = intmat.rref_mod_p(M, 5)
    assert pivots == [0, 2]
    K = intmat.kernel_mod_p(M, 5)
    assert len(K) == 1
    for v in intmat.dense_rows(K, 3):
        assert all(x % 5 == 0 for x in mat_vec(M, v))


def test_image_basis_int():
    M = [[2, 4], [0, 0], [1, 2]]
    basis = intmat.image_basis_int(M)
    assert len(basis) == 1
    # the image is generated by (2, 0, 1) up to sign
    g = basis[0]
    assert g in ([2, 0, 1], [-2, 0, -1])


# -- oracles: the dense Smith elimination and a Fraction inverse ---------------------


def smith_normal_form_dense(M):
    """The Smith elimination on dense rows: every operation updates whole rows
    and columns. `intmat.smith_normal_form` runs the same operations on sparse
    rows and must return the same U and V, and S the diagonal matrix of its
    invariant factors."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        best = 0
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                a = abs(Ai[j])
                if a and (pivot is None or a < best):
                    pivot, best = (i, j), a
                    if a == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        p = A[t][t]
        fixed = True
        if abs(p) != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % p:
                        add_row(i, t, 1)
                        fixed = False
                        break
                if not fixed:
                    break
        if fixed:
            t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            for row in A:
                row[i] = -row[i]
            for row in V:
                row[i] = -row[i]
    return U, A, V


def invert_unimodular(U):
    """Exact inverse of a unimodular integer matrix by Gauss-Jordan in Fractions."""
    n = len(U)
    A = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(U)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if A[i][col])
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for i in range(n):
            if i != col and A[i][col]:
                c = A[i][col]
                A[i] = [a - c * b for a, b in zip(A[i], A[col])]
    out = [row[n:] for row in A]
    assert all(v.denominator == 1 for row in out for v in row)
    return [[int(v) for v in row] for row in out]


# -- the Smith fast path against the full-scan algorithm ------------------------------


def smith_normal_form_full_scan(M):
    """Smith normal form with the full pivot scan and the divisibility sweep
    after every pivot, as before the unit-pivot shortcuts; the reference for
    `intmat.smith_normal_form`, which must return the same U and V, and S the
    diagonal matrix of its invariant factors."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        p = A[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    for i in range(min(m, n)):
        if A[i][i] < 0:
            for row in A:
                row[i] = -row[i]
            for row in V:
                row[i] = -row[i]
    return U, A, V


def matrices(entries, max_side):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return shapes.flatmap(lambda mn: st.lists(
        st.lists(st.sampled_from(entries), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0],
    ))


# larger sides or entries can send the elimination into runaway entry growth
SNF_MATRICES = matrices((-1, 0, 1), 8) | matrices(tuple(range(-2, 4)), 5)


def assert_matches_dense(M):
    U, S, V = smith_as_dense(M)
    assert (U, S, V) == smith_normal_form_dense(M)
    if M and M[0]:
        assert mat_mul(mat_mul(U, M), V) == S
    U2, d2, V2, Uinv = dense_smith(M, inverse=True)
    assert (U2, d2, V2) == dense_smith(M)
    if M:
        assert mat_mul(U, Uinv) == identity(len(M))
    else:
        assert Uinv == []


@settings(max_examples=300, deadline=None)
@given(SNF_MATRICES)
def test_smith_fast_path_matches_full_scan(M):
    assert smith_as_dense(M) == smith_normal_form_full_scan(M)
    assert_matches_dense(M)
    _, d, _ = intmat.smith_normal_form(M)
    for a, b in zip(d, d[1:]):
        assert b % a == 0


# -- image bases against the route through the inverse of U ---------------------------


def image_basis_via_inverse(M):
    """Columns of U^-1 scaled by the Smith diagonal, U inverted in Fractions."""
    U, d, _ = dense_smith(M)
    Uinv = invert_unimodular(U)
    return [[Uinv[i][j] * d[j] for i in range(len(M))] for j in range(len(d))]


def test_image_basis_matches_inverse_route():
    rng = random.Random(2)
    matrices = []
    for _ in range(150):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        matrices.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
    for name in catalog.names():
        X = catalog.named_complex(name)
        matrices.extend(delta_matrix(X, k) for k in range(-1, X.dim))
    for M in matrices:
        assert intmat.image_basis_int(M) == image_basis_via_inverse(M)


# -- the sparse elimination against the dense one -------------------------------------


# mostly zeros up to 12x12: short sparse rows, and 2s that leave non-unit pivots
MOSTLY_ZERO = matrices((0,) * 8 + (-1, 1, 2), 12)


@settings(max_examples=200, deadline=None)
@given(MOSTLY_ZERO)
def test_sparse_smith_matches_dense_on_mostly_zero_matrices(M):
    assert_matches_dense(M)


def test_sparse_smith_edge_shapes():
    for M in ([], [[]], [[], []], [[0]], [[0, 0, 0]], [[0], [0]],
              [[0, 0], [0, 0]], [[0, 2], [0, 0], [0, 4]], [[0, 0, 0], [3, 0, 6]]):
        assert_matches_dense(M)
    # an empty matrix keeps its row count in U
    assert intmat.smith_normal_form([[], []]) == ([{0: 1}, {1: 1}], [], [])
    assert dense_smith([[], []]) == ([[1, 0], [0, 1]], [], [])


def test_sparse_smith_matches_dense_on_coboundaries():
    complexes = [catalog.named_complex(name) for name in catalog.names()]
    complexes += [building.build_building(n, q).complex for n, q in ((3, 2), (3, 3), (4, 2))]
    for X in complexes:
        for k in range(-1, X.dim):
            M = delta_matrix(X, k)
            U, S, V = smith_as_dense(M)
            assert (U, S, V) == smith_normal_form_dense(M)
            assert mat_mul(mat_mul(U, M), V) == S


def test_smith_inverse_is_the_inverse_of_u():
    rng = random.Random(4)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        M = [[rng.choice((0, 0, -1, 1, 2)) for _ in range(n)] for _ in range(m)]
        U, _, _, Uinv = dense_smith(M, inverse=True)
        assert Uinv == invert_unimodular(U)


def shaped(m, n, entries):
    return st.lists(st.lists(st.sampled_from(entries), min_size=n, max_size=n),
                    min_size=m, max_size=m)


SIDES = st.integers(1, 6)
FACTORS = st.tuples(SIDES, SIDES, SIDES).flatmap(lambda mkn: st.tuples(
    shaped(mkn[0], mkn[1], (0, 0, -2, 1, 3)), shaped(mkn[1], mkn[2], (0, 0, -1, 2, 5))))


@settings(max_examples=200, deadline=None)
@given(FACTORS)
def test_mat_mul_matches_naive_loops(AB):
    A, B = AB
    assert mat_mul(A, B) == [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@settings(max_examples=200, deadline=None)
@given(FACTORS)
def test_mat_vec_matches_naive_loops(AB):
    A, B = AB
    v = [row[0] for row in B]
    assert mat_vec(A, v) == [
        sum(A[i][k] * v[k] for k in range(len(v))) for i in range(len(A))
    ]


# -- the unit-pivot route against the Smith oracle ------------------------------------


def assert_unit_route_matches_smith(M, bs):
    """Solvability, rank and invariant factors as from one Smith form of M,
    and every solution returned solves its system."""
    for b, x, y in zip(bs, intmat.solve_int_columns(M, bs), smith_solve_columns(M, bs)):
        assert (x is None) == (y is None)
        if x is not None:
            assert mat_vec(M, x) == b
    _, d, _ = intmat.smith_normal_form(M)
    assert intmat.rank_int(M) == len(d)
    assert smith_profile(M) == tuple(d)


def right_hand_sides(M, draw):
    """One solvable right-hand side, M x, and one drawn at random."""
    n = len(M[0])
    x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(-3, 3), min_size=len(M), max_size=len(M)))
    return [mat_vec(M, x), b]


# the Smith oracle meets runaway entry growth on some 7 x 7 and 8 x 7 matrices
# with entries in [-3, 3], so those stop at side 6
@settings(max_examples=300, deadline=None)
@given(matrices((-1, 0, 1), 8) | matrices(tuple(range(-3, 4)), 6), st.data())
def test_unit_route_matches_smith_on_small_matrices(M, data):
    assert_unit_route_matches_smith(M, right_hand_sides(M, data.draw))


@st.composite
def relabelled_complexes(draw):
    """A pure complex of dimension 1 to 3 on at most 7 vertices whose labels
    are a random permutation."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 2, 7))
    tops = draw(st.lists(st.sampled_from(list(combinations(range(n), d + 1))),
                         min_size=1, max_size=6, unique=True))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    return build_complex([[labels[i] for i in t] for t in tops])


@settings(max_examples=60, deadline=None)
@given(relabelled_complexes(), st.data())
def test_unit_route_matches_smith_on_coboundaries(X, data):
    for k in range(-1, X.dim):
        M = delta_matrix(X, k)
        assert_unit_route_matches_smith(M, right_hand_sides(M, data.draw))


def test_rp2_torsion_takes_the_smith_route(monkeypatch):
    M = delta_matrix(catalog.named_complex("rp2"), 1)
    seen = record_reductions(monkeypatch)
    assert smith_profile(M)[-1] == 2
    assert [route for route, _ in seen] == ["refused", "smith"]
    rng = random.Random(7)
    bs = [[rng.randint(-2, 2) for _ in M] for _ in range(20)]
    bs.append(mat_vec(M, [rng.randint(-2, 2) for _ in M[0]]))
    assert_unit_route_matches_smith(M, bs)


def test_a_column_of_non_units_takes_the_smith_route(monkeypatch):
    # column 0 holds 2 and 4 only, though the rows would reduce from column 1
    M = [[2, 1], [4, 3]]
    seen = record_reductions(monkeypatch)
    assert intmat.solve_int(M, [1, 1]) == [1, -1]
    assert intmat.rank_int(M) == 2
    assert smith_profile(M) == (1, 2)
    assert [route for route, _ in seen] == ["refused", "smith"] * 3
    assert intmat.unit_echelon(M) is None


def test_unit_route_edge_shapes():
    assert intmat.solve_int_columns([[], []], [[0, 0], [0, 1]]) == [[], None]
    assert intmat.solve_int_columns([[0, 0]], [[0], [3]]) == [[0, 0], None]
    assert intmat.solve_int([[1], [1], [-1]], [2, 2, -2]) == [2]
    assert intmat.solve_int([[1], [1], [-1]], [2, 2, 2]) is None
    assert intmat.rank_int([[0, 0], [0, 0]]) == 0
    order, H, L = intmat.unit_echelon([[0, 1], [1, 1], [1, 0]])
    assert order == [1, 0, 2] and H == [{0: 1, 1: 1}, {1: 1}, {}]
    # row 2 of M: [1, 0] = H[2] + 1 * H[0] - 1 * H[1]
    assert L == [{}, {}, {0: 1, 1: -1}]


def assert_unit_echelon_replays(M):
    """Where M reduces with unit pivots, its (I + L) @ H is P @ M, densely, with I + L
    unit lower-triangular and H an echelon form with pivots of absolute value 1."""
    dense = dense_unit_echelon(M)
    if dense is None:
        return False
    P, IL, H = dense
    assert mat_mul(IL, H) == mat_mul(P, M)
    assert all(IL[i][i] == 1 and not any(IL[i][i + 1:]) for i in range(len(M)))
    leads = [next(j for j, v in enumerate(h) if v) for h in H if any(h)]
    assert leads == sorted(set(leads)) and not any(map(any, H[len(leads):]))
    assert all(abs(H[i][j]) == 1 for i, j in enumerate(leads))
    return True


def test_unit_echelon_replays_densely_on_random_matrices():
    rng = random.Random(41)
    unit = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        unit += assert_unit_echelon_replays(M)
    assert 50 < unit < 250  # both routes


def test_unit_echelon_replays_densely_on_coboundaries():
    complexes = [catalog.named_complex(name) for name in catalog.names()]
    complexes += [building.build_building(n, q).complex for n, q in [(3, 2), (3, 3), (4, 2)]]
    unit = [assert_unit_echelon_replays(delta_matrix(X, k))
            for X in complexes for k in range(-1, X.dim)]
    assert sum(unit) > len(unit) // 2


# -- sparse input: the same kernel from rows built by the caller -----------------------


def sparse_form(M):
    """M's nonzeros as {column: value} rows, with keys in descending order: a
    caller's rows need not list their columns in order."""
    return [{j: row[j] for j in reversed(range(len(row))) if row[j]} for row in M]


def assert_sparse_matches_dense(M, bs):
    rows, n = sparse_form(M), len(M[0])
    before = [dict(row) for row in rows]
    assert intmat.solve_int_columns(rows, bs, n) == intmat.solve_int_columns(M, bs)
    assert intmat.unit_echelon(rows, n) == intmat.unit_echelon(M)
    assert smith_profile(rows, n) == smith_profile(M)
    assert rows == before  # read, never reduced in place


def test_sparse_rows_give_the_dense_results_on_random_matrices():
    # sides up to 6, below the Smith oracle's runaway entry growth
    rng = random.Random(29)
    smith = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.choice((-3, -2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        assert_sparse_matches_dense(M, [mat_vec(M, x), [rng.randint(-3, 3) for _ in M]])
        smith += intmat.unit_echelon(M) is None
    assert 50 < smith < 250  # both routes, from both forms


def test_sparse_rows_with_a_non_unit_column_take_the_smith_route(monkeypatch):
    # column 0 holds 2 and 4 only: each sparse entry gives up on it and is
    # solved through a Smith form of the densified rows
    M = [[2, 1, 0], [4, 3, 0], [0, 1, 1]]
    seen = record_reductions(monkeypatch)
    rows = sparse_form(M)
    b = mat_vec(M, [1, -2, 3])
    assert intmat.solve_int_columns(rows, [b, [1, 0, 0]], 3) == [[1, -2, 3], None]
    assert intmat.unit_echelon(rows, 3) is None
    assert smith_profile(rows, 3) == (1, 1, 2)
    assert [route for route, _ in seen] == ["refused", "smith", "refused", "refused", "smith"]
    assert all(A == M for _, A in seen)
    assert_sparse_matches_dense(M, [b])


def test_sparse_rows_of_no_columns_or_no_rows():
    assert intmat.solve_int_columns([{}, {}], [[0, 0], [0, 1]], 0) == [[], None]
    assert intmat.solve_int_columns([], [[]], 3) == [[0, 0, 0]]
    assert smith_profile([], 3) == smith_profile([{}], 0) == ()
    # the kernel of no rows is everything, their image nothing
    assert intmat.kernel_int([], 3) == identity(3)
    assert intmat.kernel_int([{}, {}], 0) == intmat.image_basis_int([], 3) == []


def with_explicit_zeros(M, rng):
    """M as {column: value} rows holding its nonzeros and, at about half of its
    zero entries, an explicit zero."""
    return [{j: v for j, v in enumerate(row) if v or rng.random() < 0.5} for row in M]


def assert_explicit_zeros_read_as_dense(M, rows):
    n = len(M[0])
    before = [dict(row) for row in rows]
    b = mat_vec(M, [1] * n)
    assert intmat.unit_echelon(rows, n) == intmat.unit_echelon(M)
    assert smith_profile(rows, n) == smith_profile(M)
    assert intmat.solve_int(rows, b, n) == intmat.solve_int(M, b)
    assert intmat.solve_int_columns(rows, [b, [1] * len(M)], n) == \
        intmat.solve_int_columns(M, [b, [1] * len(M)])
    snf = intmat.smith_normal_form(M, inverse=True)
    assert intmat.smith_normal_form(rows, n, inverse=True) == snf
    assert smith_form_holds(rows, *snf[:3], n)
    assert intmat.kernel_int(rows, n) == intmat.kernel_int(M)
    assert intmat.image_basis_int(rows, n) == intmat.image_basis_int(M)
    for p in (2, 3):
        assert intmat.rref_mod_p(rows, p, n) == intmat.rref_mod_p(M, p)
        assert intmat.kernel_mod_p(rows, p, n) == intmat.kernel_mod_p(M, p)
    assert rows == before


def test_sparse_readers_drop_explicit_zeros():
    # a stored 0 is no entry: no pivot, no Smith minimum, no key to look up
    assert_explicit_zeros_read_as_dense([[0, 0], [1, 1]], [{0: 0}, {0: 1, 1: 1}])
    assert intmat.rows_of([{0: 0, 1: 2}, {}], 2) == ([{1: 2}, {}], 2)
    rng = random.Random(43)
    for _ in range(100):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        assert_explicit_zeros_read_as_dense(M, with_explicit_zeros(M, rng))


# -- echelon forms mod p and generating sets against the dense oracles -----------------


def rref_mod_p_dense(rows, p):
    """Reduced row echelon form mod p by Gauss-Jordan elimination on dense rows,
    (basis_rows, pivot_columns). The oracle for the sparse `intmat.rref_mod_p`:
    a reduced echelon form of a row space is unique."""
    R = [[v % p for v in row] for row in rows]
    n = len(R[0]) if R else 0
    pivots = []
    col = 0
    rix = 0
    while rix < len(R) and col < n:
        piv = None
        for i in range(rix, len(R)):
            if R[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        R[rix], R[piv] = R[piv], R[rix]
        inv = pow(R[rix][col], -1, p)
        R[rix] = [(v * inv) % p for v in R[rix]]
        for i in range(len(R)):
            if i != rix and R[i][col]:
                c = R[i][col]
                R[i] = [(a - c * b) % p for a, b in zip(R[i], R[rix])]
        pivots.append(col)
        rix += 1
        col += 1
    return R[: len(pivots)], pivots


def kernel_mod_p_dense(M, p):
    """Kernel basis of M mod p from `rref_mod_p_dense`, one vector per free
    column with a 1 there. The oracle for the sparse `intmat.kernel_mod_p`."""
    n = len(M[0]) if M else 0
    if n == 0:
        return []
    basis, pivots = rref_mod_p_dense(M, p)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for bi, pc in zip(basis, pivots):
            v[pc] = (-bi[j]) % p
        out.append(v)
    return out


@st.composite
def matrices_mod_p(draw):
    """(M, p) for p in 2, 3, 5, 7: up to 10 x 8, entries often 0 or a multiple
    of p, with empty shapes, zero rows and repeated rows."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 8))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, 3, -4, 5, 6, 7, 14))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n) | st.just([0] * n),
                         max_size=7))
    if rows:
        rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    return draw(st.permutations(rows)), p


def assert_mod_p_matches_dense(M, p):
    n = len(M[0]) if M else 0
    basis, pivots = rref_mod_p_dense(M, p)
    kernel = kernel_mod_p_dense(M, p)
    rows = sparse_form(M)
    before = [dict(row) for row in rows]
    for args in ((M, p), (rows, p, n)):
        got, got_pivots = intmat.rref_mod_p(*args)
        assert got_pivots == pivots and intmat.dense_rows(got, n) == basis
        got_kernel = intmat.kernel_mod_p(*args)
        assert intmat.dense_rows(got_kernel, n) == kernel
        # sparse rows store only entries reduced into 1..p-1
        assert all(0 < v < p for row in got + got_kernel for v in row.values())
    assert rows == before  # read, never reduced in place


@settings(max_examples=400, deadline=None)
@given(matrices_mod_p())
def test_sparse_mod_p_routines_match_the_dense_oracles(Mp):
    assert_mod_p_matches_dense(*Mp)


def test_sparse_mod_p_edge_shapes():
    for M in ([], [[]], [[], []], [[0]], [[0, 0, 0]], [[0], [0]], [[2, 4], [1, 2]],
              [[1, 1, 0], [1, 1, 0], [0, 0, 0]], [[0, 0, 0], [3, 0, 6]]):
        for p in (2, 3, 5, 7):
            assert_mod_p_matches_dense(M, p)
    # with a width, rows need not exist: no echelon rows, every unit vector in the kernel
    assert intmat.rref_mod_p([], 3, 2) == ([], [])
    assert intmat.kernel_mod_p([], 3, 2) == [{0: 1}, {1: 1}]


def dense_generators(X, ring, k, target):
    """`subgroup_generators` as built from dense coboundary matrices: the F_p
    sets by the dense oracles above on delta_{k-1}^T and delta_k, the Z and Z/n
    sets from the image and columns of V of one dense Smith form of delta."""
    nk = len(X.faces(k))
    if target == COBOUNDARIES:
        if k <= -1:
            gens = []
        elif ring.is_field:
            gens = rref_mod_p_dense(transpose(delta_matrix(X, k - 1)), ring.size)[0]
        else:
            M = delta_matrix(X, k - 1)
            _, d, V = dense_smith(M)
            gens = transpose(mat_mul(M, V))[: len(d)]
    elif k == X.dim:
        gens = identity(nk)
    elif ring.is_field:
        gens = kernel_mod_p_dense(delta_matrix(X, k), ring.size)
    else:
        _, d, V = dense_smith(delta_matrix(X, k))
        columns = transpose(V)
        if not ring.is_finite:
            gens = columns[len(d):]
        else:
            n = ring.size
            scale = [n // gcd(s, n) for s in d] + [1] * (nk - len(d))
            gens = [[c * v for v in col] for c, col in zip(scale, columns)]
    if ring.is_finite and not ring.is_field:
        gens = [g for g in ([v % ring.size for v in g] for g in gens) if any(g)]
    return gens


def dense_free_cocycle_generators(X, k):
    """`lattice.free_cocycle_generators` on dense matrices: the kernel vectors
    as the columns of K, the coboundaries solved in them, and the columns of
    U^-1 past the rank of the solutions' matrix applied to K."""
    kernel = dense_generators(X, INTEGERS, k, COCYCLES)
    if not kernel:
        return []
    K = transpose(kernel)
    Y = intmat.solve_int_columns(K, dense_generators(X, INTEGERS, k, COBOUNDARIES))
    assert None not in Y
    if not Y:
        return [mat_vec(K, y) for y in identity(len(kernel))]
    _, d, _, Uinv = dense_smith(transpose(Y), inverse=True)
    return [mat_vec(K, y) for y in transpose(Uinv)[len(d):]]


def random_2_complexes(count=30, n=7):
    """Seeded pure 2-complexes on the vertices v0..v{n-1}, 4 to 14 triangles each."""
    rng = random.Random(33)
    triangles = list(combinations(range(n), 3))
    return [build_complex([[f"v{i}" for i in t] for t in rng.sample(triangles, rng.randint(4, 14))])
            for _ in range(count)]


def test_generating_sets_match_the_dense_route():
    rings = [prime_field(2), prime_field(3), INTEGERS, modular_ring(4), modular_ring(6),
             modular_ring(8), modular_ring(9)]
    complexes = [catalog.named_complex(name) for name in catalog.names()]
    complexes.append(building.build_building(3, 2).complex)
    complexes += random_2_complexes()
    for X in complexes:
        for k in range(-1, X.dim + 1):
            for ring in rings:
                for target in (COBOUNDARIES, COCYCLES):
                    assert subgroup_generators(X, ring, k, target) == \
                        dense_generators(X, ring, k, target), (X, ring, k, target)
            assert free_cocycle_generators(X, k) == dense_free_cocycle_generators(X, k), (X, k)


# -- caller rows: the Smith form and the rank read them without reducing them ---------


@st.composite
def sparse_matrices(draw):
    """(rows, n, M): 1 to 6 rows and up to 6 columns, mostly zero with entries
    up to 3 in absolute value, as the caller's {column: value} rows in a drawn
    key order and as the dense M, which has rows to carry its width. Larger
    sides or entries can send the elimination into runaway entry growth."""
    n = draw(st.integers(0, 6))
    entries = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3))
    M = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=6))
    rows = []
    for row in M:
        keys = draw(st.permutations([j for j in range(n) if row[j]]))
        rows.append({j: row[j] for j in keys})
    return rows, n, M


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_smith_form_of_caller_rows_leaves_them_and_matches_the_dense_route(rowsM):
    rows, n, M = rowsM
    before = [dict(row) for row in rows]
    U, d, V, Uinv = intmat.smith_normal_form(rows, n, inverse=True)
    assert rows == before  # read, never reduced in place
    assert intmat.rank_int(M) == len(d)
    # the sparse transforms are those of the dense route, entry for entry
    m = len(M)
    dense = (intmat.dense_rows(U, m), d, transpose(intmat.dense_rows(V, n)),
             transpose(intmat.dense_rows(Uinv, m)))
    assert dense == dense_smith(M, inverse=True)
    Ud, S, Vd = smith_as_dense(M)
    assert (Ud, S, Vd) == smith_normal_form_dense(M)
    if n:
        assert mat_mul(mat_mul(Ud, M), Vd) == diagonal(d, m, n)
    assert all(a > 0 for a in d) and all(b % a == 0 for a, b in zip(d, d[1:]))
