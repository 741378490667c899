import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from hdx import errors
from hdx.catalog import named_complex
from hdx.cochains import (
    COBOUNDARIES,
    COCYCLES,
    coboundary,
    coboundary_group,
    distance,
    is_locally_minimal,
    subgroup_array,
    subgroup_generators,
    vector_cochain,
)
from hdx.complexes import build_complex
from hdx.expansion import (
    INFINITY,
    coboundary_epsilon,
    cosystolic_pair,
    good_links_constants,
    link_profile,
    skeleton_alpha,
    small_set_check,
)
from hdx.lattice import fp_cohomology_dimension
from hdx.rings import INTEGERS, modular_ring, prime_field

F2 = prime_field(2)
F3 = prime_field(3)


def skeleton_alpha_oracle(X):
    """Direct-definition recomputation over all vertex subsets, Fractions only."""
    verts = X.vertices()
    best = None
    for r in range(1, len(verts) + 1):
        for S in combinations(verts, r):
            sset = set(S)
            inside = [e for e in X.faces(1) if set(e) <= sset] if X.dim >= 1 else []
            e_norm = X.norm(inside) if inside else Fraction(0)
            s_norm = X.norm([(v,) for v in S])
            val = (e_norm - s_norm * s_norm) / s_norm
            if best is None or val > best:
                best = val
    return max(best, Fraction(0))


def epsilon_oracle(X, ring, k):
    """Exhaustive direct-definition minimum over every non-coboundary cochain."""
    group = coboundary_group(X, ring, k)
    faces = X.faces(k)
    best = None
    for vec in product(range(ring.size), repeat=len(faces)):
        f = vector_cochain(X, ring, k, vec)
        d = min(
            X.norm([fc for fc, a, b in zip(faces, vec, g) if ring.reduce(a - b)])
            if any(ring.reduce(a - b) for a, b in zip(vec, g))
            else Fraction(0)
            for g in group
        )
        if d == 0:
            continue
        ratio = coboundary(f).norm() / d
        if best is None or ratio < best:
            best = ratio
    return best


# -- skeleton ---------------------------------------------------------------------


def test_skeleton_two_disjoint_edges():
    X = named_complex("two_edges")
    alpha, witness = skeleton_alpha(X)
    assert alpha == skeleton_alpha_oracle(X) == Fraction(1, 2)
    assert set(witness) in ({"a", "b"}, {"c", "d"})


def test_skeleton_k4_and_octahedron():
    K4 = named_complex("k4")
    alpha, _ = skeleton_alpha(K4)
    assert alpha == skeleton_alpha_oracle(K4)
    # single vertices contribute negatively: ||E|| = 0 < ||S||^2 + a||S||
    O = named_complex("octahedron")
    alpha_o, _ = skeleton_alpha(O)
    assert alpha_o == skeleton_alpha_oracle(O) == Fraction(0)


def test_skeleton_deterministic():
    X = named_complex("octahedron")
    assert skeleton_alpha(X) == skeleton_alpha(X)


def test_skeleton_vertex_cap():
    # a path of 22 edges has 23 vertices, one over the cap of 22
    X = build_complex([f"v{i} v{i + 1}" for i in range(22)])
    with pytest.raises(errors.TooManyVertices, match="23 vertices exceed .* cap 22"):
        skeleton_alpha(X)


def test_skeleton_zero_dimensional():
    X = named_complex("tetrahedron").skeleton(0)
    alpha, _ = skeleton_alpha(X)
    assert alpha == Fraction(0)


# -- coboundary expansion ------------------------------------------------------------


def test_coboundary_epsilon_hollow_triangle_exhaustive():
    X = named_complex("hollow_triangle")
    rep = coboundary_epsilon(X, F2, 0)
    assert rep.epsilon == epsilon_oracle(X, F2, 0) == Fraction(2)
    assert rep.certified
    # witness reproduces the ratio
    w = rep.witness
    d, _ = distance(w, COBOUNDARIES)
    assert coboundary(w).norm() / d == rep.epsilon


def test_coboundary_epsilon_full_triangle_k1():
    X = named_complex("full_triangle")
    rep = coboundary_epsilon(X, F2, 1)
    assert fp_cohomology_dimension(X, 1, 2) == 0
    assert rep.epsilon == epsilon_oracle(X, F2, 1) == Fraction(3)


def test_coboundary_epsilon_zero_iff_cohomology():
    X = named_complex("two_triangles")
    rep = coboundary_epsilon(X, F2, 0)
    assert rep.epsilon == 0
    assert coboundary(rep.witness).is_zero()
    d, _ = distance(rep.witness, COBOUNDARIES)
    assert d > 0


@pytest.mark.parametrize("ring", [F2, F3, modular_ring(4)])
def test_coboundary_epsilon_matches_oracle(ring):
    for name in ["hollow_triangle", "full_triangle", "k4"]:
        X = named_complex(name)
        for k in range(0, X.dim):
            rep = coboundary_epsilon(X, ring, k)
            assert rep.epsilon == epsilon_oracle(X, ring, k)


def test_coboundary_epsilon_dim_convention():
    X = named_complex("hollow_triangle")
    assert coboundary_epsilon(X, F2, -1).epsilon == 1
    # a 0-dimensional link still has vertices for the coboundary to land on
    assert coboundary_epsilon(X.link(("a",)), F3, -1).epsilon == 1
    with pytest.raises(errors.DimensionOutOfRange):
        coboundary_epsilon(X.link(("a", "b")), F3, -1)


def test_coboundary_epsilon_integer_requires_bound():
    X = named_complex("hollow_triangle")
    with pytest.raises(errors.IntegerRingRequiresBound):
        coboundary_epsilon(X, INTEGERS, 0)
    rep = coboundary_epsilon(X, INTEGERS, 0, coeff_bound=1)
    assert not rep.certified


def test_search_cap_respected(monkeypatch):
    monkeypatch.setenv("HDX_CAP", "100")
    X = named_complex("octahedron")
    with pytest.raises(errors.SearchSpaceTooLarge):
        coboundary_epsilon(X, F3, 1)


def test_cap_refusal_counts_generator_combinations(monkeypatch):
    # over Z/4 the cocycle generators of rp2 include vectors of additive order
    # 2, so the scan's n^len(gens) rows outnumber the subgroup's elements
    X = named_complex("rp2")
    Z4 = modular_ring(4)
    with monkeypatch.context() as m, pytest.raises(errors.SearchSpaceTooLarge) as info:
        m.setenv("HDX_CAP", "10")
        cosystolic_pair(X, Z4, 1)
    combos = 4 ** len(subgroup_generators(X, Z4, 1, COCYCLES))
    found = re.search(r"(\d+) generator combinations exceed cap 10", str(info.value))
    assert found and int(found.group(1)) == combos == 4096
    assert len(subgroup_array(X, Z4, 1, COCYCLES)) == 2048


# -- cosystolic ----------------------------------------------------------------------


def test_cosystolic_full_triangle():
    X = named_complex("full_triangle")
    rep = cosystolic_pair(X, F2, 0)
    assert rep.mu == INFINITY
    assert rep.epsilon == coboundary_epsilon(X, F2, 0).epsilon


def test_cosystolic_two_triangles():
    X = named_complex("two_triangles")
    rep = cosystolic_pair(X, F2, 0)
    assert rep.mu == Fraction(1, 2)
    assert rep.mu_witness.norm() == Fraction(1, 2)
    assert coboundary(rep.mu_witness).is_zero()
    # witness contract for the epsilon part
    from hdx.cochains import COCYCLES

    d, _ = distance(rep.witness, COCYCLES)
    assert coboundary(rep.witness).norm() / d == rep.epsilon


def test_cosystolic_epsilon_oracle():
    X = named_complex("octahedron")
    rep = cosystolic_pair(X, F2, 0)
    # direct oracle over all 64 cochains
    from hdx.cochains import COCYCLES

    best = None
    for vec in product(range(2), repeat=6):
        f = vector_cochain(X, F2, 0, vec)
        d, _ = distance(f, COCYCLES)
        if d == 0:
            continue
        r = coboundary(f).norm() / d
        best = r if best is None else min(best, r)
    assert rep.epsilon == best


# -- small-set -------------------------------------------------------------------------


def test_small_set_vacuous_epsilon_zero():
    X = named_complex("two_triangles")
    ok, ce = small_set_check(X, F2, Fraction(0), Fraction(1, 2))
    assert ok and ce is None


def test_small_set_octahedron_frozen():
    # frozen from the exhaustive scan over locally minimal supports of norm
    # <= 1/4: the worst ratio is exactly 1
    X = named_complex("octahedron")
    ok, ce = small_set_check(X, F2, Fraction(1), Fraction(1, 4))
    assert ok and ce is None
    ok, ce = small_set_check(X, F2, Fraction(101, 100), Fraction(1, 4))
    assert not ok
    # counterexample contract
    assert is_locally_minimal(ce)
    assert ce.norm() <= Fraction(1, 4)
    assert coboundary(ce).norm() < Fraction(101, 100) * ce.norm()


# -- link profiles ------------------------------------------------------------------------


def test_link_profile_tetrahedron():
    X = named_complex("tetrahedron")
    prof = link_profile(X, F2, 1)
    # vertex links are hollow triangles whose k=0 expansion is 2
    assert prof[0] == coboundary_epsilon(X.link(("a",)), F2, 0).epsilon == Fraction(2)
    assert prof[1] == 1


def test_link_profile_detects_link_cohomology():
    X = named_complex("cone_two_triangles")
    prof = link_profile(X, F2, 1)
    assert prof[0] == 0


def test_link_profile_relabel_invariance():
    X = named_complex("tetrahedron")
    Y = build_complex([" ".join(f"v{v}" for v in face) for face in X.top_faces])
    assert link_profile(X, F2, 1) == link_profile(Y, F2, 1)


# -- constants ------------------------------------------------------------------------------


def test_good_links_constants_frozen():
    # hand derivation for d=2, k=1, beta=1/24, rho=1/2:
    # eps = (1/2) / (1 + 2/((1/24)(23/24))) = (1/2) * 23/1175 = 23/2350
    # c_0 = eps * 48 = 552/1175, c_1 = c_0 * (1/24 + 2) = 1127/1175
    # alpha = (eps/48)^16^... = (23/112800)^4
    g = good_links_constants(2, 1, Fraction(1, 24), Fraction(1, 2))
    assert g.epsilon == Fraction(23, 2350)
    assert g.c == {-1: 0, 0: Fraction(552, 1175), 1: Fraction(1127, 1175)}
    assert g.alpha == Fraction(279841, 161896104345600000000)


def test_good_links_constants_bounds():
    g = good_links_constants(2, 1, Fraction(1, 24), Fraction(1, 2))
    assert g.c[-1] == 0 <= g.c[0]
    assert g.epsilon <= 1 - Fraction(1, 2)
    with pytest.raises(errors.ParameterOutOfRange):
        good_links_constants(2, 1, Fraction(1), Fraction(1, 2))
    with pytest.raises(errors.ParameterOutOfRange):
        good_links_constants(2, 1, Fraction(1, 2), Fraction(0))


def test_good_links_constants_chain_stays_admissible():
    # the derivation promises monotone constants ending at most 1 for every
    # admissible (beta, rho); sweep a grid and check it never degenerates
    for d in [2, 3, 4]:
        for k in range(0, d):
            for beta in [Fraction(1, 24), Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)]:
                for rho in [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]:
                    g = good_links_constants(d, k, beta, rho)
                    assert g.c[k] <= 1
                    for i in range(0, k + 1):
                        assert g.c[i - 1] <= g.c[i]
                    assert 0 < g.alpha < 1


def test_coset_invariance_exhaustive():
    X = named_complex("full_triangle")
    for k in [0, 1]:
        group = coboundary_group(X, F2, k)
        for vec in product(range(2), repeat=len(X.faces(k))):
            f = vector_cochain(X, F2, k, vec)
            n0 = coboundary(f).norm() if k < X.dim else None
            d0, _ = distance(f, COBOUNDARIES)
            for b in group:
                g = f + vector_cochain(X, F2, k, b)
                if k < X.dim:
                    assert coboundary(g).norm() == n0
                assert distance(g, COBOUNDARIES)[0] == d0


def test_witness_is_lex_least_pinned_representative():
    # oracle: recompute all pinned representatives attaining the minimum and
    # confirm the reported witness is the lexicographically least of them
    X = named_complex("hollow_triangle")
    rep = coboundary_epsilon(X, F3, 0)
    group = coboundary_group(X, F3, 0)
    basis_pivot = 0  # B^0 = constants, pinned representatives have f[0] = 0
    attaining = []
    for vec in product(range(3), repeat=3):
        if vec[basis_pivot] != 0:
            continue
        f = vector_cochain(X, F3, 0, vec)
        d, _ = distance(f, COBOUNDARIES)
        if d == 0:
            continue
        if coboundary(f).norm() / d == rep.epsilon:
            attaining.append(vec)
    assert attaining
    from hdx.cochains import cochain_vector

    assert cochain_vector(rep.witness) == min(attaining)


def test_small_set_value_cap(monkeypatch):
    monkeypatch.setenv("HDX_CAP", "2")
    X = named_complex("octahedron")
    with pytest.raises(errors.SearchSpaceTooLarge):
        small_set_check(X, F3, Fraction(1), Fraction(1, 4))


def test_skeleton_alpha_fano_building_frozen():
    # hand check: the hexagon S (6 vertices of one apartment) has
    # ||E(S)|| = 6/21 = 2/7 and ||S|| = 6/14 = 3/7, so its defect is
    # (2/7 - 9/49) / (3/7) = 5/21, and the exhaustive scan confirms the
    # hexagon is the worst subset
    from hdx.building import build_building

    X = build_building(3, 2).complex
    alpha, witness = skeleton_alpha(X)
    assert alpha == Fraction(5, 21)
    assert len(witness) == 6


def test_skeleton_alpha_three_squares_frozen():
    # one full square: ||E|| = 1/3, ||S|| = 1/3, defect (1/3 - 1/9)/(1/3) = 2/3
    X = named_complex("three_squares")
    alpha, witness = skeleton_alpha(X)
    assert alpha == Fraction(2, 3)
    assert len(witness) == 4
