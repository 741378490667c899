import random
from fractions import Fraction

import pytest

from hdx import errors, intmat
from hdx.building import build_building
from hdx.catalog import named_complex
from hdx.cli import main
from hdx.cochains import (
    COBOUNDARIES,
    COCYCLES,
    Cochain,
    coboundary,
    delta_matrix,
    distance,
    subgroup_generators,
)
from hdx.complexes import build_complex
from hdx.lattice import (
    build_lattice,
    component_lattice,
    fp_cohomology_dimension,
    free_cocycle_generators,
    integer_cohomology,
    lattice_distance,
    lattice_report,
    minimal_representatives,
    smith_form_holds,
    smith_profile,
    uct_check,
)
from hdx.rings import INTEGERS, prime_field
from dense import dense_smith, diagonal, identity, mat_mul, mat_vec, transpose
from test_intmat import record_reductions, reductions

F2 = prime_field(2)


def test_coboundary_matrix_hollow_triangle():
    X = named_complex("hollow_triangle")
    M = delta_matrix(X, 0)
    assert len(M) == len(X.faces(1)) == 3 and len(M[0]) == len(X.faces(0)) == 3
    for row in M:
        assert sorted(row) == [-1, 0, 1]
    aug = delta_matrix(X, -1)
    assert len(aug[0]) == len(X.faces(-1))
    assert aug == [[1], [1], [1]]


def test_matrix_composition_zero():
    for name in ["full_triangle", "tetrahedron", "octahedron", "rp2"]:
        X = named_complex(name)
        for k in range(-1, X.dim - 1):
            D0 = delta_matrix(X, k)
            D1 = delta_matrix(X, k + 1)
            prod = mat_mul(D1, D0)
            assert all(all(v == 0 for v in row) for row in prod)


def test_transpose_duality_with_boundary():
    # the transpose of delta_k is the boundary matrix one level up: row tau of
    # delta_k is the boundary of tau in the k-faces of X
    from hdx.cochains import Chain, boundary

    X = named_complex("tetrahedron")
    for k in range(-1, X.dim):
        D = delta_matrix(X, k)
        assert len(D) == len(X.faces(k + 1))
        for tau, row in zip(X.faces(k + 1), D):
            bd = boundary(Chain(INTEGERS, k + 1, {tau: 1}))
            assert row == [bd.coeffs.get(f, 0) for f in X.faces(k)]


def test_smith_profile_examples():
    assert smith_profile([[1, 0], [0, 1]]) == (1, 1)
    assert smith_profile([[2, 0], [0, 0]]) == (2,)
    rng = random.Random(3)
    for _ in range(15):
        M = [[rng.randint(-6, 6) for _ in range(6)] for _ in range(6)]
        d = smith_profile(M)
        U, d2, V = dense_smith(M)
        assert d == tuple(d2)
        assert mat_mul(mat_mul(U, M), V) == diagonal(d, 6, 6)


# corruptions of the sparse transforms: U as {column: value} rows, V as
# {row: value} columns


def _one_entry_of_u(U, d, V):
    U = [dict(u) for u in U]
    U[1][0] = U[1].get(0, 0) + 1
    return U, d, V


def _one_entry_of_v(U, d, V):
    V = [dict(v) for v in V]
    V[2][1] = V[2].get(1, 0) - 1
    return U, d, V


def _one_off_diagonal(U, d, V):
    # column 1 += column 0 on V puts d_1 at (0, 1) of U M V
    return U, d, V[:1] + [intmat.combine({0: 1, 1: 1}, V)] + V[2:]


def _wrong_factor(U, d, V):
    return U, d[:-1] + [2 * d[-1]], V


@pytest.mark.parametrize("tamper", [_one_entry_of_u, _one_entry_of_v, _one_off_diagonal,
                                    _wrong_factor])
def test_smith_profile_rejects_a_wrong_smith_form(monkeypatch, tamper):
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert smith_profile(M) == (2, 6, 12)
    assert smith_form_holds(M, *intmat.smith_normal_form(M))
    assert not smith_form_holds(M, *tamper(*intmat.smith_normal_form(M)))
    snf = intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda *a, **kw: tamper(*snf(*a, **kw)))
    with pytest.raises(errors.PropertyViolation):
        smith_profile(M)


def _last_pivot_zeroed(order, H, U):
    # U @ M == H still, and H is an echelon form one rank short; U is singular
    r = sum(1 for h in H if h) - 1
    return order, H[:r] + [{}] + H[r + 1:], U[:r] + [{}] + U[r + 1:]


def _one_entry_off(order, H, U):
    H = [dict(h) for h in H]
    H[0][2] = H[0].get(2, 0) + 1
    return order, H, U


UNIT_MATRIX = [[1, 1, 0], [0, 1, 1], [1, 0, 0]]


@pytest.mark.parametrize("tamper,message", [
    (_last_pivot_zeroed, "not unit lower-triangular"), (_one_entry_off, "differs from H"),
])
def test_smith_profile_rejects_a_wrong_unit_echelon(monkeypatch, capsys, tamper, message):
    assert smith_profile(UNIT_MATRIX) == (1, 1, 1)
    echelon = intmat.unit_echelon
    monkeypatch.setattr(intmat, "unit_echelon", lambda *args: tamper(*echelon(*args)))
    with pytest.raises(errors.PropertyViolation, match=message):
        smith_profile(UNIT_MATRIX)
    # delta_0 of the hollow triangle reduces with unit pivots too
    assert main(["report", "cohomology", "--k", "1", "hollow_triangle"]) == 2
    assert message in capsys.readouterr().err


def test_cohomology_reduces_each_coboundary_once_per_complex(monkeypatch):
    # H^0 and H^1 of B(4,2) both need delta_0 (315 x 65): it is reduced once,
    # and uct_check and a repeated call reduce nothing more
    X = build_building(4, 2).complex
    seen = record_reductions(monkeypatch)
    assert (integer_cohomology(X, 0).free_rank, integer_cohomology(X, 1).free_rank) == (0, 0)
    assert reductions(seen) == [delta_matrix(X, 0), delta_matrix(X, -1), delta_matrix(X, 1)]
    seen.clear()
    assert uct_check(X, 1).ok
    assert integer_cohomology(X, 0).torsion == ()
    assert reductions(seen) == []


@pytest.mark.parametrize(
    "name,k,rank,torsion",
    [
        ("hollow_triangle", 1, 1, ()),
        ("hollow_triangle", 0, 0, ()),
        ("full_triangle", 1, 0, ()),
        ("tetrahedron", 2, 1, ()),
        ("octahedron", 2, 1, ()),
        ("rp2", 1, 0, ()),
        ("rp2", 2, 0, (2,)),
        ("two_triangles", 0, 1, ()),
        ("three_squares", 0, 2, ()),
    ],
)
def test_integer_cohomology_catalog(name, k, rank, torsion):
    prof = integer_cohomology(named_complex(name), k)
    assert (prof.free_rank, prof.torsion) == (rank, torsion)


def test_rp2_f2_dimension():
    X = named_complex("rp2")
    assert fp_cohomology_dimension(X, 1, 2) == 1
    assert fp_cohomology_dimension(X, 1, 3) == 0


def test_uct_examples():
    rp2 = named_complex("rp2")
    rep = uct_check(rp2, 1)
    assert (rep.fp_dimension, rep.free_rank, rep.even_torsion_here, rep.even_torsion_above) == (1, 0, 0, 1)
    assert rep.ok
    hollow = named_complex("hollow_triangle")
    rep = uct_check(hollow, 1)
    assert (rep.fp_dimension, rep.free_rank) == (1, 1)
    assert rep.ok
    full = named_complex("full_triangle")
    for k in [0, 1, 2]:
        rep = uct_check(full, k)
        assert rep.fp_dimension == 0 and rep.ok


def test_uct_all_catalog_and_building():
    targets = [named_complex(n) for n in
               ["hollow_triangle", "full_triangle", "tetrahedron", "octahedron",
                "rp2", "two_triangles", "three_squares"]]
    targets.append(build_building(3, 2).complex)
    targets.append(build_complex(
        ["a b c", "a b d", "a c d", "b c d", "p q r", "p q s", "p r s", "q r s"]
    ))
    for X in targets:
        for k in range(0, X.dim + 1):
            assert uct_check(X, k).ok


def test_free_generators_are_cocycles_independent():
    X = named_complex("octahedron")
    gens = free_cocycle_generators(X, 2)
    assert len(gens) == 1
    X2 = named_complex("three_squares")
    gens = free_cocycle_generators(X2, 0)
    assert len(gens) == 2


def per_column_free_generators(X, k):
    """free_cocycle_generators with one integer solve, so one reduction of
    the kernel matrix K, per coboundary column."""
    kernel = subgroup_generators(X, INTEGERS, k, COCYCLES)
    K = transpose(kernel)
    Y = [intmat.solve_int(K, col) for col in subgroup_generators(X, INTEGERS, k, COBOUNDARIES)]
    if not Y:
        return [mat_vec(K, y) for y in identity(len(kernel))]
    _, d, _, Uinv = dense_smith(transpose(Y), inverse=True)
    return [mat_vec(K, y) for y in transpose(Uinv)[len(d):]]


@pytest.mark.parametrize("name,k,columns", [
    ("rp2", 1, 5), ("octahedron", 2, 7), ("hollow_triangle", 1, 2), ("three_squares", 0, 1),
])
def test_free_generators_take_one_smith_form_of_the_kernel(monkeypatch, name, k, columns):
    # one reduction of K, counted over the unit-pivot and the Smith route
    X = build_complex(named_complex(name).top_faces)
    K = transpose(subgroup_generators(X, INTEGERS, k, COCYCLES))
    assert len(subgroup_generators(X, INTEGERS, k, COBOUNDARIES)) == columns
    seen = record_reductions(monkeypatch)
    want = per_column_free_generators(X, k)
    assert sum(M == K for M in reductions(seen)) == columns
    seen.clear()
    assert free_cocycle_generators(X, k) == want
    assert sum(M == K for M in reductions(seen)) == 1


def test_minimal_representatives_hollow_triangle():
    X = named_complex("hollow_triangle")
    reps = minimal_representatives(X, 1, coeff_bound=2)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.cochain.norm() == Fraction(1, 3)
    assert rep.certified
    assert len(rep.cochain.support) == 1
    # the representative is a cocycle in the class of a free generator
    d, certified = distance(rep.cochain, COBOUNDARIES, coeff_bound=2)
    assert d > 0  # not a coboundary


def test_minimal_representatives_no_free_part():
    X = named_complex("full_triangle")
    with pytest.raises(errors.NoFreePart):
        minimal_representatives(X, 1)


def test_build_lattice_rejects_dependent():
    X = named_complex("hollow_triangle")
    reps = minimal_representatives(X, 1, coeff_bound=2)
    g = reps[0].cochain
    with pytest.raises(errors.DependentGenerators):
        build_lattice([g, g])
    with pytest.raises(errors.DependentGenerators):
        build_lattice([g, g.scaled(2)])
    # g + delta h is g modulo the coboundaries, alone a generator of its own
    h = Cochain(X, INTEGERS, 0, {("a",): 1, ("c",): -2})
    assert build_lattice([g + coboundary(h)]).dimension == 1
    with pytest.raises(errors.DependentGenerators, match="dependent modulo"):
        build_lattice([g, g + coboundary(h)])
    # below the top dimension a generator must be a cocycle
    T = named_complex("two_triangles")
    t = minimal_representatives(T, 0, coeff_bound=2)[0].cochain
    shifted = t + coboundary(Cochain(T, INTEGERS, -1, {(): 3}))
    assert build_lattice([shifted]).dimension == 1
    with pytest.raises(errors.DependentGenerators, match="dependent modulo"):
        build_lattice([t, shifted])
    vertex = Cochain(T, INTEGERS, 0, {T.faces(0)[0]: 1})
    with pytest.raises(errors.DependentGenerators, match="not a cocycle"):
        build_lattice([t, vertex])


def test_lattice_single_generator_distance():
    X = named_complex("hollow_triangle")
    L = build_lattice(minimal_representatives(X, 1, coeff_bound=2))
    d, certified = lattice_distance(L, 2)
    assert d <= L.generators[0].norm()
    assert d == Fraction(1, 3) and certified


def test_lattice_distance_refuses_coeff_bound_below_one():
    # overlapping generators: the bounded scan, not the disjoint-support route
    X = build_complex(["a b", "b c", "a c", "a d", "d c"])
    ab = Cochain(X, INTEGERS, 1, {("a", "b"): 1})
    ad = Cochain(X, INTEGERS, 1, {("a", "d"): 1})
    L = build_lattice([ab, ab + ad])
    assert lattice_distance(L, 1) == (Fraction(1, 5), True)
    for bound in (0, -1):
        with pytest.raises(errors.ParameterOutOfRange):
            lattice_distance(L, coeff_bound=bound)


def test_component_lattice_examples():
    two = component_lattice(named_complex("two_triangles"))
    assert two.dimension == 2
    assert [g.norm() for g in two.generators] == [Fraction(1, 2), Fraction(1, 2)]
    d, certified = lattice_distance(two)
    assert d == Fraction(1, 2) and certified
    k4 = component_lattice(named_complex("k4"))
    assert k4.dimension == 1
    assert k4.generators[0].norm() == 1
    with pytest.raises(errors.NotAGraph):
        component_lattice(named_complex("tetrahedron"))


def test_component_lattice_three_squares():
    L = component_lattice(named_complex("three_squares"))
    assert L.dimension == 3
    d, certified = lattice_distance(L)
    assert d == Fraction(4, 12) == Fraction(1, 3)
    assert certified


def test_disjoint_union_distance_is_minimum():
    # distance of the sum lattice of two disjoint pieces = min of the two
    X = named_complex("two_triangles")
    L = component_lattice(X)
    d, _ = lattice_distance(L)
    assert d == min(g.norm() for g in L.generators)


def test_lattice_report_schema():
    doc = lattice_report(named_complex("hollow_triangle"), 1, coeff_bound=2)
    assert set(doc) == {
        "k", "dimension", "torsion", "generators", "generators_certified",
        "distance", "distance_support_count", "certified",
    }
    assert doc["distance"] == {"num": 1, "den": 3}
    assert doc["distance_support_count"] == 1
    assert doc["certified"] is True


def test_relabeling_invariance():
    X = named_complex("rp2")
    relabeled = build_complex(
        [" ".join(f"node{v}" for v in face) for face in X.top_faces]
    )
    for k in range(0, 3):
        a, b = integer_cohomology(X, k), integer_cohomology(relabeled, k)
        assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)
