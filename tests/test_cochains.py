import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from hdx import errors
from hdx.catalog import named_complex
from hdx.cochains import (
    RANDOM_INT_RANGE,
    COBOUNDARIES,
    COCYCLES,
    Chain,
    Cochain,
    boundary,
    coboundary,
    cochain_from_lines,
    coboundary_group,
    cochain_vector,
    delta_matrix,
    delta_rows,
    distance,
    evaluate,
    is_locally_minimal,
    is_minimal,
    lift_from_link,
    localize,
    make_locally_minimal,
    perm_sign,
    random_cochain,
    vector_cochain,
)
from hdx.complexes import build_complex
from hdx.rings import INTEGERS, modular_ring, prime_field
from dense import dense_smith, mat_vec

F2 = prime_field(2)
F3 = prime_field(3)
Z6 = modular_ring(6)


def all_cochains(X, ring, k):
    faces = X.faces(k)
    for vec in product(range(ring.size), repeat=len(faces)):
        yield vector_cochain(X, ring, k, vec)


# -- antisymmetry -------------------------------------------------------------


def parity_oracle(perm):
    # count transpositions by explicit decomposition
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def test_antisymmetric_reads_all_orderings():
    X = named_complex("tetrahedron")
    f = Cochain(X, INTEGERS, 2, {("a", "b", "c"): 5, ("a", "b", "d"): -2})
    for face in X.faces(2):
        base = f(face)
        order = sorted(face)
        for perm in permutations(range(3)):
            reordered = tuple(order[i] for i in perm)
            assert f(reordered) == parity_oracle(perm) * base


def test_antisymmetry_in_finite_ring():
    X = named_complex("hollow_triangle")
    f = Cochain(X, F3, 1, {("a", "b"): 1})
    assert f(("b", "a")) == 2  # -1 mod 3


# -- coboundary ---------------------------------------------------------------


def test_coboundary_vertex_indicator():
    X = named_complex("hollow_triangle")
    f = Cochain(X, INTEGERS, 0, {("a",): 1})
    df = coboundary(f)
    # canonical edge (u, v) carries f(v) - f(u)
    assert df.values == {("a", "b"): -1, ("a", "c"): -1}
    assert df(("b", "c")) == 0


def test_coboundary_constant_vanishes_on_connected_graph():
    X = named_complex("k4")
    f = Cochain(X, INTEGERS, 0, {(v,): 7 for v in "abcd"})
    assert coboundary(f).is_zero()


@pytest.mark.parametrize("ring", [INTEGERS, F2, F3, Z6])
def test_delta_delta_zero(ring):
    rng = random.Random(3)
    for name in ["tetrahedron", "octahedron", "rp2"]:
        X = named_complex(name)
        for k in range(-1, X.dim - 1):
            f = random_cochain(X, ring, k, rng)
            assert coboundary(coboundary(f)).is_zero()


def test_delta_delta_zero_exhaustive_small():
    X = named_complex("full_triangle")
    for f in all_cochains(X, F2, 0):
        assert coboundary(coboundary(f)).is_zero()


def test_coboundary_top_dimension_raises():
    X = named_complex("hollow_triangle")
    f = Cochain(X, F2, 1, {("a", "b"): 1})
    with pytest.raises(errors.TopDimension):
        coboundary(f)


def test_delta_of_empty_face_cochain_is_constant():
    X = named_complex("hollow_triangle")
    g = Cochain(X, INTEGERS, -1, {(): 4})
    dg = coboundary(g)
    assert all(dg((v,)) == 4 for v in "abc")


# -- coboundary over the support against the dense loop --------------------------

ORACLE_RINGS = [F2, F3, modular_ring(4), Z6, INTEGERS]


def oracle_coboundary(f):
    """The dense loop coboundary replaced: every (k+1)-face of X sums f over
    its codimension-1 faces with alternating signs, validated on the way."""
    X, k = f.complex, f.dim
    if k >= X.dim:
        raise errors.TopDimension(f"no coboundary above dimension {X.dim}")
    vals = {}
    get = f.values.get
    for tau in X.faces(k + 1):
        s = 0
        for i in range(len(tau)):
            v = get(tau[:i] + tau[i + 1:], 0)
            if v:
                s += -v if i % 2 else v
        if s:
            vals[tau] = s
    return Cochain(X, f.ring, k + 1, vals)


def oracle_cofaces(X, sigma):
    """The coface lists as the complex built them before it kept signs."""
    k = len(sigma) - 1
    table = {f: [] for f in X.faces(k)}
    for tau in X.faces(k + 1):
        for i in range(len(tau)):
            table[tau[:i] + tau[i + 1:]].append(tau)
    return tuple(table[sigma])


def random_relabelled_complex(rng):
    """A pure complex of dimension 1..3 on at most 7 vertices, its labels a
    random permutation (so face order is not the order of the draw)."""
    n = rng.randint(4, 7)
    d = rng.randint(1, 3)
    pool = list(combinations(range(n), d + 1))
    tops = rng.sample(pool, rng.randint(1, min(6, len(pool))))
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    return build_complex([[labels[i] for i in t] for t in tops])


def assert_same_cochain(got, want):
    assert (got.complex, got.ring, got.dim) == (want.complex, want.ring, want.dim)
    assert list(got.values.items()) == list(want.values.items())


def test_coboundary_matches_the_dense_oracle_on_relabelled_complexes():
    rng = random.Random(31)
    for _ in range(60):
        X = random_relabelled_complex(rng)
        for ring in ORACLE_RINGS:
            for k in range(-1, X.dim):
                faces = X.faces(k)
                full = random_cochain(X, ring, k, rng)
                sparse = Cochain(X, ring, k, {f: full.values.get(f, 1)
                                              for f in rng.sample(faces, min(2, len(faces)))})
                for f in (full, sparse, Cochain.zero(X, ring, k)):
                    assert_same_cochain(coboundary(f), oracle_coboundary(f))
            top = random_cochain(X, ring, X.dim, rng)
            with pytest.raises(errors.TopDimension):
                coboundary(top)
            with pytest.raises(errors.TopDimension):
                oracle_coboundary(top)


def test_coboundary_drops_sums_that_cancel_mod_n():
    # f(bc) - f(ac) + f(ab) at abc: 2 + 2 = 4 vanishes in Z/4 and not in Z/6
    X = named_complex("full_triangle")
    for ring, zero in [(modular_ring(4), True), (Z6, False), (INTEGERS, False)]:
        f = Cochain(X, ring, 1, {("a", "b"): 2, ("b", "c"): 2})
        df = coboundary(f)
        assert df.is_zero() == zero
        assert_same_cochain(df, oracle_coboundary(f))
    # a sum of -1 is stored reduced
    f = Cochain(X, F3, 1, {("a", "c"): 1})
    assert coboundary(f).values == {("a", "b", "c"): 2}


def test_coboundary_of_localizations_matches_the_oracle():
    rng = random.Random(37)
    for name in ["octahedron", "rp2", "tetrahedron", "cone_two_triangles"]:
        X = named_complex(name)
        for ring in ORACLE_RINGS:
            f = random_cochain(X, ring, 1, rng)
            for sigma in X.faces(0):
                h = localize(f, sigma)
                assert_same_cochain(h, Cochain(h.complex, ring, h.dim, h.values))
                if h.dim < h.complex.dim:
                    assert_same_cochain(coboundary(h), oracle_coboundary(h))


def test_cofaces_keep_their_tuples():
    rng = random.Random(41)
    complexes = [named_complex(name) for name in ["octahedron", "rp2", "cone_two_triangles"]]
    complexes += [random_relabelled_complex(rng) for _ in range(20)]
    for X in complexes:
        for k in range(-1, X.dim + 1):
            for sigma in X.faces(k):
                assert X.cofaces(sigma) == oracle_cofaces(X, sigma)
                up, cols, signs = X.coface_table(k)[sigma]
                assert up == tuple(X.faces(k + 1)[j] for j in cols)
                # the sign is (-1)^i for the position i of the vertex tau adds
                assert list(signs) == [(-1) ** next(i for i, v in enumerate(tau) if v not in sigma)
                                       for tau in up]
        with pytest.raises(errors.FaceNotInComplex):
            X.cofaces(("nowhere",))


def test_trusted_producers_hold_reduced_nonzero_values_on_their_faces():
    rng = random.Random(43)
    X = named_complex("octahedron")
    for ring in ORACLE_RINGS:
        for k in range(0, X.dim + 1):
            f = random_cochain(X, ring, k, rng)
            vec = [rng.randint(-7, 7) for _ in X.faces(k)]
            for g in (f, vector_cochain(X, ring, k, vec), coboundary(f) if k < X.dim else f):
                assert_same_cochain(g, Cochain(g.complex, ring, g.dim, g.values))
                assert all(v and v == ring.reduce(v) for v in g.values.values())


def test_random_cochain_draws_as_before():
    # one draw per face in face order, zeros dropped
    for ring in ORACLE_RINGS:
        X = named_complex("rp2")
        rng, twin = random.Random(47), random.Random(47)
        for k in range(0, 3):
            f = random_cochain(X, ring, k, rng)
            draws = [twin.randrange(ring.size) if ring.is_finite else twin.randint(*RANDOM_INT_RANGE)
                     for _ in X.faces(k)]
            assert_same_cochain(f, Cochain(X, ring, k, dict(zip(X.faces(k), draws))))


def test_norm_is_the_total_weight_of_the_support():
    rng = random.Random(53)
    for X in [named_complex("octahedron"), named_complex("three_squares")]:
        for k in range(-1, X.dim + 1):
            f = random_cochain(X, Z6, k, rng)
            assert f.norm() == (X.norm(f.values) if f.values else 0)
            assert type(f.norm()) is Fraction


# -- boundary -----------------------------------------------------------------


def test_boundary_edge():
    c = Chain(INTEGERS, 1, {("a", "b"): 1})
    assert boundary(c).coeffs == {("b",): 1, ("a",): -1}


def test_boundary_of_vertex_is_empty_face():
    c = Chain(INTEGERS, 0, {("a",): 1})
    assert boundary(c).coeffs == {(): 1}


def test_boundary_triangle():
    c = Chain(INTEGERS, 2, {("a", "b", "c"): 1})
    assert boundary(c).coeffs == {("b", "c"): 1, ("a", "c"): -1, ("a", "b"): 1}


def test_boundary_boundary_zero():
    rng = random.Random(5)
    X = named_complex("octahedron")
    for _ in range(50):
        coeffs = {f: rng.randint(-4, 4) for f in X.faces(2)}
        c = Chain(INTEGERS, 2, coeffs)
        assert boundary(boundary(c)).is_zero()
    with pytest.raises(errors.NegativeDimension):
        boundary(Chain(INTEGERS, -1, {(): 1}))


# -- evaluate -----------------------------------------------------------------


def test_evaluate_single_face_and_zero():
    X = named_complex("hollow_triangle")
    f = Cochain(X, INTEGERS, 1, {("a", "b"): 3, ("b", "c"): -1})
    assert evaluate(f, Chain(INTEGERS, 1, {("a", "b"): 1})) == 3
    assert evaluate(f, Chain(INTEGERS, 1, {})) == 0
    with pytest.raises(errors.DimensionMismatch):
        evaluate(f, Chain(INTEGERS, 0, {("a",): 1}))
    with pytest.raises(errors.RingMismatch):
        evaluate(f, Chain(F2, 1, {("a", "b"): 1}))


def test_stokes_identity_random():
    # evaluate(delta f, c) == evaluate(f, boundary c), both sides via their
    # own definitions
    X = named_complex("tetrahedron")
    rng = random.Random(7)
    for _ in range(200):
        k = rng.choice([0, 1])
        f = random_cochain(X, F3, k, rng)
        coeffs = {face: rng.randrange(3) for face in X.faces(k + 1)}
        c = Chain(F3, k + 1, coeffs)
        assert evaluate(coboundary(f), c) == evaluate(f, boundary(c))


def test_stokes_identity_augmented_level():
    X = named_complex("hollow_triangle")
    rng = random.Random(11)
    for _ in range(20):
        f = random_cochain(X, INTEGERS, -1, rng)
        c = Chain(INTEGERS, 0, {face: rng.randint(-3, 3) for face in X.faces(0)})
        assert evaluate(coboundary(f), c) == evaluate(f, boundary(c))


# -- localization --------------------------------------------------------------


def test_localize_empty_face_identity():
    X = named_complex("tetrahedron")
    f = Cochain(X, F3, 1, {("a", "b"): 1, ("c", "d"): 2})
    g = localize(f, ())
    assert g.values == f.values


def test_localize_definition_on_full_triangle():
    X = named_complex("full_triangle")
    f = Cochain(X, INTEGERS, 1, {("a", "b"): 4, ("a", "c"): -1, ("b", "c"): 2})
    fa = localize(f, ("a",))
    assert fa.values == {("b",): 4, ("c",): -1}
    # sign shows up when the localized face sorts before sigma
    fc = localize(f, ("c",))
    # f_c(a) = f((c, a)) = -f((a, c))
    assert fc(("a",)) == 1
    assert fc(("b",)) == -2


def test_localize_support_relation():
    X = named_complex("octahedron")
    rng = random.Random(13)
    f = random_cochain(X, F2, 1, rng)
    for sigma in X.faces(0):
        g = localize(f, sigma)
        expected = {
            tuple(x for x in face if x != sigma[0])
            for face in f.support
            if sigma[0] in face
        }
        assert g.support == expected


def test_localize_matches_the_definition_at_faces_of_every_size():
    # f_sigma(tau) = f(sigma then tau), read through perm_sign, over rings
    # where the sign shows and where it vanishes
    rng = random.Random(67)
    X = build_complex(["a b c d", "a b c e", "a b d e", "a c d e", "b c d e"])
    for ring in ORACLE_RINGS:
        f = random_cochain(X, ring, 2, rng)
        for sigma in (s for size in (1, 2, 3) for s in X.faces(size - 1)):
            want = {}
            for tau in X.link(sigma).faces(2 - len(sigma)):
                v = f.values.get(tuple(sorted(sigma + tau)), 0)
                if ring.reduce(v):
                    want[tau] = ring.reduce(perm_sign(sigma + tau) * v)
            h = localize(f, sigma)
            assert h.dim == 2 - len(sigma) and list(h.values.items()) == list(want.items())


def test_localize_too_large():
    X = named_complex("hollow_triangle")
    f = Cochain(X, F2, 0, {("a",): 1})
    with pytest.raises(errors.FaceTooLarge):
        localize(f, ("a", "b"))


def test_lift_inverts_localize():
    X = named_complex("octahedron")
    rng = random.Random(17)
    for sigma in [("1",), ("1", "2")]:
        L = X.link(sigma)
        h = random_cochain(L, F3, 2 - len(sigma), rng)
        g = lift_from_link(h, sigma, X)
        assert localize(g, sigma).values == h.values
        assert all(set(sigma) <= set(face) for face in g.support)


def test_local_to_global_coboundary_compatibility():
    # when no support face meets sigma union tau below sigma, the global
    # coboundary at sigma+tau is the link coboundary up to (-1)^{|sigma|}
    rng = random.Random(19)
    X = named_complex("octahedron")
    k = 1
    for _ in range(200):
        f = random_cochain(X, F3, k, rng)
        for i in [0]:
            for sigma in X.faces(i):
                fs = localize(f, sigma)
                dfs = coboundary(fs)
                for tau in dfs.support:
                    union = tuple(sorted(sigma + tau))
                    ok = all(
                        tuple(sorted(set(union) - {v})) not in f.support
                        for v in sigma
                    )
                    if ok:
                        lhs = coboundary(f)(sigma + tau)
                        sign = (-1) ** len(sigma)
                        assert lhs == F3.reduce(sign * dfs(tau))


# -- distance and minimality -----------------------------------------------------


def test_distance_enumeration_oracle_hollow_triangle():
    # all four F2 coboundaries of the hollow triangle, by hand
    X = named_complex("hollow_triangle")
    e = lambda *fs: frozenset(fs)
    cuts = [
        e(),
        e(("a", "b"), ("a", "c")),
        e(("a", "b"), ("b", "c")),
        e(("a", "c"), ("b", "c")),
    ]
    f = Cochain(X, F2, 1, {("a", "b"): 1})
    oracle = min(X.norm(f.support ^ cut) if f.support ^ cut else Fraction(0) for cut in cuts)
    assert oracle == Fraction(1, 3)
    d, certified = distance(f, COBOUNDARIES)
    assert (d, certified) == (Fraction(1, 3), True)


def test_distance_zero_for_members():
    X = named_complex("full_triangle")
    g = Cochain(X, F3, 0, {("a",): 1, ("b",): 2})
    b = coboundary(g)
    assert distance(b, COBOUNDARIES) == (Fraction(0), True)
    # over the integers membership is decided exactly
    gz = Cochain(X, INTEGERS, 0, {("a",): 3})
    bz = coboundary(gz)
    assert distance(bz, COBOUNDARIES) == (Fraction(0), True)
    assert distance(bz, COCYCLES) == (Fraction(0), True)


def test_distance_cocycles_of_cocycle_is_zero():
    X = named_complex("two_triangles")
    z = Cochain(X, F2, 0, {(v,): 1 for v in "abc"})
    assert coboundary(z).is_zero()
    assert distance(z, COCYCLES) == (Fraction(0), True)


def test_distance_integer_bounded_search():
    X = named_complex("hollow_triangle")
    f = Cochain(X, INTEGERS, 1, {("a", "b"): 1})
    with pytest.raises(errors.IntegerRingRequiresBound):
        distance(f, COBOUNDARIES)
    d, certified = distance(f, COBOUNDARIES, coeff_bound=2)
    assert d == Fraction(1, 3)
    assert certified is False


def test_is_minimal_examples():
    X = named_complex("hollow_triangle")
    zero = Cochain.zero(X, F2, 1)
    assert is_minimal(zero)
    assert is_locally_minimal(zero)
    two_edges = Cochain(X, F2, 1, {("a", "b"): 1, ("a", "c"): 1})
    assert two_edges.norm() == Fraction(2, 3)
    assert not is_minimal(two_edges)


def oracle_is_locally_minimal(f):
    """The per-face route: every nonzero localization of f under its support,
    faces by size then lexicographically, is minimal in its link."""
    faces = {sub for face in f.support for c in range(1, f.dim + 1)
             for sub in combinations(face, c)}
    for sigma in sorted(faces, key=lambda s: (len(s), s)):
        h = localize(f, sigma)
        if not h.is_zero() and not is_minimal(h):
            return False
    return True


def test_minimal_implies_locally_minimal_exhaustive_tetrahedron():
    X = named_complex("tetrahedron")
    for k in [0, 1]:
        for f in all_cochains(X, F2, k):
            if is_minimal(f):
                assert oracle_is_locally_minimal(f)


def test_integer_local_minimality_keeps_the_per_face_route():
    # over Z each localization is certified by is_minimal's bounded search
    # and mod-p floor, so the answer and any Uncertified match the oracle
    X = named_complex("octahedron")
    rng = random.Random(37)
    seen = set()
    for _ in range(40):
        k = rng.choice([1, 2])
        f = Cochain(X, INTEGERS, k, {face: rng.choice([-1, 1, 2]) for face in
                                     rng.sample(X.faces(k), rng.randint(1, 3))})
        try:
            want = oracle_is_locally_minimal(f)
        except errors.Uncertified:
            with pytest.raises(errors.Uncertified):
                is_locally_minimal(f)
            continue
        assert is_locally_minimal(f) == want
        seen.add(want)
    assert seen == {True, False}


def test_make_locally_minimal_fixed_point():
    X = named_complex("octahedron")
    f = Cochain(X, F2, 1, {("1", "2"): 1})
    assert is_locally_minimal(f)
    g, f2 = make_locally_minimal(f)
    assert g.is_zero()
    assert f2 == f


def test_make_locally_minimal_contract():
    X = named_complex("octahedron")
    rng = random.Random(23)
    Q = X.degree_bound()
    for _ in range(30):
        k = rng.choice([0, 1])
        f = random_cochain(X, F2, k, rng)
        g, f2 = make_locally_minimal(f)
        assert f2 == f - coboundary(g)
        assert is_locally_minimal(f2)
        assert f2.norm() <= f.norm()
        assert g.norm() <= Q * Q * f.norm()


def test_make_locally_minimal_rejects_integers():
    X = named_complex("octahedron")
    f = Cochain(X, INTEGERS, 1, {("1", "2"): 1})
    with pytest.raises(errors.Uncertified):
        make_locally_minimal(f)


# -- text format ------------------------------------------------------------------


def test_cochain_lines_roundtrip():
    X = named_complex("octahedron")
    f = Cochain(X, Z6, 1, {("1", "2"): 5, ("3", "6"): 2})
    text = f.to_lines()
    g = cochain_from_lines(X, Z6, 1, text)
    assert g == f


def test_cochain_lines_reduce_on_load():
    X = named_complex("hollow_triangle")
    g = cochain_from_lines(X, F2, 1, "a b : 3\nb c : 4\n")
    assert g.values == {("a", "b"): 1}


def test_delta_matrix_shapes_and_signs():
    X = named_complex("hollow_triangle")
    D0 = delta_matrix(X, 0)
    assert len(D0) == 3 and len(D0[0]) == 3
    for row in D0:
        assert sorted(row) == [-1, 0, 1]
    Dm1 = delta_matrix(X, -1)
    assert Dm1 == [[1], [1], [1]]
    # the sparse rows it is the dense form of: edge (a, b) is b - a
    assert delta_rows(X, 0) == [{1: 1, 0: -1}, {2: 1, 0: -1}, {2: 1, 1: -1}]
    assert delta_rows(X, -1) == [{0: 1}] * 3
    for k in (-2, 1):
        with pytest.raises(errors.DimensionOutOfRange):
            delta_rows(X, k)


def test_vector_views_roundtrip():
    X = named_complex("octahedron")
    rng = random.Random(29)
    f = random_cochain(X, F3, 1, rng)
    vec = cochain_vector(f)
    assert vector_cochain(X, F3, 1, vec) == f


# -- three-dimensional complexes ---------------------------------------------------


def test_three_dimensional_complex_support():
    from itertools import permutations

    from hdx.complexes import build_complex

    # boundary of the 4-simplex: a pure 3-dimensional complex
    sphere3 = build_complex(
        ["a b c d", "a b c e", "a b d e", "a c d e", "b c d e"]
    )
    assert sphere3.dim == 3
    for k in range(-1, 4):
        assert sphere3.norm(sphere3.faces(k)) == 1
    rng = random.Random(31)
    f = random_cochain(sphere3, INTEGERS, 3, rng)
    # antisymmetric reads across all 24 orderings of a 3-face
    for face in sphere3.faces(3):
        order = sorted(face)
        base = f(face)
        for perm in permutations(range(4)):
            reordered = tuple(order[i] for i in perm)
            sign = 1
            p = list(perm)
            for i in range(4):
                while p[i] != i:
                    j = p[i]
                    p[i], p[j] = p[j], p[i]
                    sign = -sign
            assert f(reordered) == sign * base
    for k in range(-1, 2):
        g = random_cochain(sphere3, Z6, k, rng)
        assert coboundary(coboundary(g)).is_zero()
    # H^3 of the 3-sphere boundary complex is free of rank one
    from hdx.lattice import integer_cohomology

    prof = integer_cohomology(sphere3, 3)
    assert (prof.free_rank, prof.torsion) == (1, ())
    for k in [0, 1, 2]:
        prof = integer_cohomology(sphere3, k)
        assert (prof.free_rank, prof.torsion) == (0, ())


# -- non-field finite rings -----------------------------------------------------------


def test_subgroups_over_z6_match_brute_force():
    from hdx.cochains import coboundary_group, cocycle_group, delta_matrix

    X = named_complex("hollow_triangle")
    for k in [0, 1]:
        faces = X.faces(k)
        # brute-force coboundaries: images of every (k-1)-cochain
        if k == 0:
            brute_b = {tuple((a % 6,) * 3) for a in range(6)}
        else:
            brute_b = set()
            for vec in product(range(6), repeat=len(X.faces(0))):
                g = vector_cochain(X, Z6, 0, vec)
                brute_b.add(cochain_vector(coboundary(g)))
        assert set(coboundary_group(X, Z6, k)) == brute_b
        # brute-force cocycles: kernel of the next matrix
        if k < X.dim:
            D = delta_matrix(X, k)
            brute_z = {
                vec
                for vec in product(range(6), repeat=len(faces))
                if all(v % 6 == 0 for v in mat_vec(D, list(vec)))
            }
        else:
            brute_z = set(product(range(6), repeat=len(faces)))
        assert set(cocycle_group(X, Z6, k)) == brute_z


def test_distance_over_z6_matches_brute_force():
    X = named_complex("hollow_triangle")
    rng = random.Random(41)
    from hdx.cochains import coboundary_group

    group = coboundary_group(X, Z6, 1)
    for _ in range(10):
        f = random_cochain(X, Z6, 1, rng)
        brute = min(
            X.norm([fc for fc, a, b in zip(X.faces(1), cochain_vector(f), g) if (a - b) % 6])
            if any((a - b) % 6 for a, b in zip(cochain_vector(f), g))
            else Fraction(0)
            for g in group
        )
        assert distance(f, COBOUNDARIES) == (brute, True)


def test_make_locally_minimal_over_z6():
    X = named_complex("octahedron")
    rng = random.Random(43)
    for _ in range(5):
        f = random_cochain(X, Z6, 1, rng)
        g, f2 = make_locally_minimal(f)
        assert f2 == f - coboundary(g)
        assert is_locally_minimal(f2)
        assert f2.norm() <= f.norm()


def test_is_minimal_over_integers_certificates():
    X = named_complex("hollow_triangle")
    e = ("a", "b")
    # certified True: the mod-2 floor meets the norm
    one = Cochain(X, INTEGERS, 1, {e: 1})
    assert is_minimal(one)
    # certified False: a bounded search already beats the norm
    two = Cochain(X, INTEGERS, 1, {e: 1, ("a", "c"): 1})
    assert not is_minimal(two)
    # both mod-p floors collapse (values divisible by 6): genuinely uncertified
    six = Cochain(X, INTEGERS, 1, {e: 6})
    with pytest.raises(errors.Uncertified):
        is_minimal(six)


def test_cochain_rejects_wrong_dimension_values():
    X = named_complex("hollow_triangle")
    with pytest.raises(errors.DimensionMismatch):
        Cochain(X, F2, 1, {("a",): 1})
    with pytest.raises(errors.FaceNotInComplex):
        Cochain(X, F2, 1, {("a", "z"): 1})


def solve_mod(M, b, n_mod):
    """One solution x of M x = b (mod n_mod), or None when unsolvable, through
    the integer Smith form; the oracle for membership in B^k over Z/n."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0:
        return [0] * n
    U, d, V = dense_smith(M)
    c = [v % n_mod for v in mat_vec(U, b)]
    if any(c[len(d):]):
        return None
    y = [0] * n
    for i, di in enumerate(d):
        g = gcd(di, n_mod)
        if c[i] % g:
            return None
        ni = n_mod // g
        y[i] = (c[i] // g) * pow(di // g % ni, -1, ni) % n_mod if ni > 1 else 0
    return [v % n_mod for v in mat_vec(V, y)]


def test_solve_mod():
    M = [[2, 0], [0, 2]]
    x = solve_mod(M, [2, 0], 4)
    assert x is not None
    assert [v % 4 for v in mat_vec(M, x)] == [2, 0]
    assert solve_mod(M, [1, 0], 4) is None


def test_octahedron_z6_coboundaries_fit_the_default_cap(monkeypatch):
    # B^2 has 6^7 elements, though delta_1 has 12 columns: a generating set
    # with one generator per column would need 6^12 combinations
    monkeypatch.delenv("HDX_CAP", raising=False)
    X = named_complex("octahedron")
    group = coboundary_group(X, Z6, 2)
    assert len(group) == len(set(group)) == 6 ** 7
    rng = random.Random(71)
    D = delta_matrix(X, 1)
    for row in rng.sample(group, 200):
        assert solve_mod(D, list(row), 6) is not None
    f = random_cochain(X, Z6, 2, rng)
    d, certified = distance(f, COBOUNDARIES)
    assert certified and 0 < d <= f.norm()
