"""Acceptance suite: twelve exact criteria, one test and one printed line each.

Every tolerance here is exact rational equality or an exact rational
inequality; nothing is approximate. Shared heavy objects (the (3,2)
building, its chain families, the coset scans) live in session fixtures.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from hdx.building import (
    build_building,
    chain_family,
    contraction,
    symmetry_checks,
)
from hdx.catalog import named_complex
from hdx.cochains import (
    COCYCLES,
    Chain,
    Cochain,
    boundary,
    coboundary,
    coboundary_group,
    cocycle_group,
    distance,
    is_locally_minimal,
    make_locally_minimal,
    norm_of_vector,
    random_cochain,
    vector_cochain,
)
from hdx.expansion import (
    coboundary_epsilon,
    good_links_constants,
    link_profile,
    skeleton_alpha,
    small_set_check,
    _supports_up_to_norm,
)
from hdx.fatfaces import bad_faces, fat_family, good_dimension_witness
from hdx.lattice import (
    component_lattice,
    fp_cohomology_dimension,
    integer_cohomology,
    lattice_distance,
    uct_check,
)
from hdx.rings import INTEGERS, prime_field

F2 = prime_field(2)
F3 = prime_field(3)
RINGS = [INTEGERS, F2, F3]


def report(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


@pytest.fixture(scope="session")
def fano():
    return build_building(3, 2)


@pytest.fixture(scope="session")
def fano_families(fano):
    return {str(r): chain_family(fano, r) for r in RINGS}


def test_acceptance_01_homotopy_identity(fano, fano_families):
    # delta(iota_sigma f) + iota_sigma(delta f) = f for every maximal sigma,
    # 200 seeded cochains per ring, at every dimension the contraction
    # homotopy covers (0 <= k <= d-1; on this d=1 building that is k=0).
    # k=1 equals the top dimension, where the identity provably cannot hold:
    # it would force B^1 = C^1 while H^1 is free of rank 8.
    X = fano.complex
    assert integer_cohomology(X, 1).free_rank == 8
    start = time.time()
    checks = 0
    for ring in RINGS:
        fam = fano_families[str(ring)]
        rng = random.Random(20_000 + ring.size if ring.is_finite else 1)
        for k in range(0, X.dim):
            for _ in range(200):
                f = random_cochain(X, ring, k, rng)
                for sigma in X.top_faces:
                    lhs = coboundary(contraction(fam, sigma, f))
                    lhs = lhs + contraction(fam, sigma, coboundary(f))
                    assert lhs == f
                    checks += 1
    elapsed = time.time() - start
    report(
        1,
        checks == 3 * 200 * 21 and elapsed < 60,
        f"homotopy identity, {checks} exact checks in {elapsed:.1f}s (< 60s)",
    )


def test_acceptance_02_building_expansion(fano):
    theta = fano.theta
    bound_theorem = Fraction(1, 2 * theta)   # (2^d theta)^{-1}, d = 1
    bound_proof = Fraction(1, theta)         # (theta * C(2,2))^{-1}
    values = {}
    for ring in [F2, F3]:
        rep = coboundary_epsilon(fano.complex, ring, 0)
        values[str(ring)] = rep.epsilon
        assert rep.certified
        assert rep.epsilon >= bound_theorem
        assert rep.epsilon >= bound_proof
    report(
        2,
        True,
        f"building epsilon {values} >= 1/24 and >= 1/12, exact",
    )


def test_acceptance_03_chain_family_identity(fano, fano_families):
    fam = fano_families["Z"]
    X = fano.complex
    count = 0
    for sigma in X.top_faces:
        for k in range(-1, X.dim):
            for tau in X.faces(k):
                got = boundary(fam[(sigma, tau)])
                want = Chain(INTEGERS, k, {tau: (-1) ** (k + 1)}) if tau else Chain(
                    INTEGERS, -1, {(): 1}
                )
                for i in range(len(tau)):
                    want = want + fam[(sigma, tau[:i] + tau[i + 1:])].scaled((-1) ** i)
                assert got == want
                count += 1
    report(3, count == 21 * 15, f"chain-family boundary identity on {count} pairs over Z")


ETAS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]


def _octahedron_supports():
    X = named_complex("octahedron")
    for k in [0, 1]:
        faces = X.faces(k)
        for size in range(1, 7):
            if size > len(faces):
                break
            for supp in combinations(faces, size):
                yield X, k, frozenset(supp)


def test_acceptance_04_fat_face_bound():
    X = named_complex("octahedron")
    families = 0
    for X, k, A in _octahedron_supports():
        for eta in ETAS:
            fam = fat_family(X, A, eta, k=k)
            nA = X.norm(A)
            for i in range(-1, k + 1):
                lvl = fam.levels[i]
                nAi = X.norm(lvl) if lvl else Fraction(0)
                assert nAi <= eta ** (1 - 2 ** (k - i)) * nA
            families += 1
    report(4, families == (63 + 2509) * 3, f"fat-face bound on {families} families, exact")


def test_acceptance_05_bad_face_bound():
    X = named_complex("octahedron")
    alpha_max = skeleton_alpha(X)[0]
    for k in range(0, X.dim + 1):
        for s in X.faces(k):
            alpha_max = max(alpha_max, skeleton_alpha(X.link(s))[0])
    applicable = 0
    for X, k, A in _octahedron_supports():
        for eta in ETAS:
            if alpha_max > eta ** (2 ** (X.dim - 1)):
                continue
            fam = fat_family(X, A, eta, k=k)
            ups = bad_faces(X, fam)
            lhs = X.norm(ups) if ups else Fraction(0)
            assert lhs <= eta * (k + 1) * (k + 2) * 2 ** (k + 2) * X.norm(A)
            applicable += 1
    report(
        5,
        applicable == (63 + 2509) * 3,
        f"bad-face bound on {applicable} families (every link alpha = {alpha_max})",
    )


def _small_instances():
    for name in [
        "hollow_triangle", "full_triangle", "two_triangles", "two_edges", "k4",
        "tetrahedron", "octahedron", "rp2", "three_squares",
    ]:
        X = named_complex(name)
        for k in range(0, X.dim + 1):
            if len(X.faces(k)) <= 12:
                yield name, X, k


def test_acceptance_06_minimality_lemmas():
    checked_cochains = 0
    for name, X, k in _small_instances():
        faces = X.faces(k)
        wnum = [X.deg_top(f) for f in faces]
        group = coboundary_group(X, F2, k)
        minimal = {}
        for vec in product(range(2), repeat=len(faces)):
            norm_num = sum(w for w, v in zip(wnum, vec) if v)
            dist_num = min(
                sum(w for w, a, b in zip(wnum, vec, g) if (a - b) % 2)
                for g in group
            )
            minimal[vec] = dist_num == norm_num
            checked_cochains += 1
        for vec, is_min in minimal.items():
            if not is_min:
                continue
            f = vector_cochain(X, F2, k, vec)
            assert is_locally_minimal(f), (name, k, vec)
            support_idx = [i for i, v in enumerate(vec) if v]
            for r in range(len(support_idx) + 1):
                for sub in combinations(support_idx, r):
                    gvec = tuple(1 if i in sub else 0 for i in range(len(faces)))
                    assert minimal[gvec], (name, k, vec, sub)
    report(
        6,
        checked_cochains > 10000,
        f"minimality lemmas, exhaustive over {checked_cochains} F2 cochains",
    )


def test_acceptance_07_repair_procedure():
    X = named_complex("octahedron")
    Q = X.degree_bound()
    rng = random.Random(7_000)
    for _ in range(100):
        k = rng.choice([0, 1])
        f = random_cochain(X, F2, k, rng)
        g, f2 = make_locally_minimal(f)
        assert f2 == f - coboundary(g)
        assert is_locally_minimal(f2)
        assert f2.norm() <= f.norm()
        assert g.norm() <= Q * Q * f.norm()
    report(7, True, f"repair procedure on 100 seeded cochains, Q = {Q}")


def test_acceptance_08_cosystolic_implications():
    mu = Fraction(1, 4)
    tested = []
    for name, X, _ in {(n, X, 0) for n, X, k in _small_instances()}:
        if name in tested:
            continue
        tested.append(name)
        # the best epsilon the small-set family supports, or None when the
        # family contains a nonexpanding member (check cannot pass there)
        best = None
        degenerate = False
        for k in range(0, X.dim):
            for support in _supports_up_to_norm(X, k, mu):
                f = Cochain(X, F2, k, {s: 1 for s in support})
                if not is_locally_minimal(f):
                    continue
                ratio = coboundary(f).norm() / f.norm()
                if ratio == 0:
                    degenerate = True
                best = ratio if best is None else min(best, ratio)
        if degenerate or (best is not None and best == 0):
            continue
        eps = best if best is not None else Fraction(1)
        ok, ce = small_set_check(X, F2, eps, mu)
        assert ok, (name, eps)
        Q = X.degree_bound()
        bound = min(mu, Fraction(1, Q * Q))
        for k in range(0, X.dim):
            bset = set(coboundary_group(X, F2, k))
            for z in cocycle_group(X, F2, k):
                if z not in bset:
                    assert norm_of_vector(X, k, z) >= mu, (name, k, z)
        for k in range(0, X.dim - 1):
            for vec in product(range(2), repeat=len(X.faces(k))):
                f = vector_cochain(X, F2, k, vec)
                d, _ = distance(f, COCYCLES)
                if d == 0:
                    continue
                assert coboundary(f).norm() / d >= bound, (name, k, vec)
    report(8, len(tested) >= 8, f"cosystolic implications on {sorted(tested)}")


def test_acceptance_09_good_dimension_theorem():
    X = named_complex("octahedron")
    nonzero_checked = 0
    for k in [0, 1]:
        beta = min(link_profile(X, F2, k).values())
        if beta >= 1:
            beta = Fraction(1, 2)  # the calculator needs beta < 1
        g = good_links_constants(X.dim, k, beta, Fraction(1, 2))
        # theorem-regime alpha (tiny: only the zero cochain qualifies) plus a
        # larger admissible alpha = (2/3)^4, valid because every octahedron
        # link is an alpha-skeleton expander for every alpha >= 0
        for alpha in [g.alpha, Fraction(16, 81)]:
            for size in range(0, 5):
                for supp in combinations(X.faces(k), size):
                    f = Cochain(X, F2, k, {s: 1 for s in supp})
                    if f.norm() > alpha or not is_locally_minimal(f):
                        continue
                    i, bound = good_dimension_witness(X, F2, f, g.c, alpha)
                    assert coboundary(f).norm() >= bound
                    if supp:
                        nonzero_checked += 1
    report(
        9,
        nonzero_checked >= 50,
        f"good-dimension bound certified, {nonzero_checked} nonzero cochains",
    )


def test_acceptance_10_integer_cohomology_and_uct(fano):
    hollow = named_complex("hollow_triangle")
    tetra = named_complex("tetrahedron")
    rp2 = named_complex("rp2")
    assert integer_cohomology(hollow, 1).free_rank == 1
    assert integer_cohomology(hollow, 1).torsion == ()
    assert integer_cohomology(tetra, 2).free_rank == 1
    assert integer_cohomology(rp2, 1).free_rank == 0
    assert integer_cohomology(rp2, 1).torsion == ()
    assert integer_cohomology(rp2, 2).torsion == (2,)
    assert integer_cohomology(rp2, 2).free_rank == 0
    assert fp_cohomology_dimension(rp2, 1, 2) == 1
    for k in range(0, fano.complex.dim):
        prof = integer_cohomology(fano.complex, k)
        assert prof.free_rank == 0 and prof.torsion == ()
    for X in [hollow, tetra, rp2, fano.complex]:
        for k in range(0, X.dim + 1):
            assert uct_check(X, k).ok
    report(10, True, "integer cohomology profiles and UCT, exact")


def test_acceptance_11_symmetry_suite(fano):
    rep = symmetry_checks(fano)
    ok = (
        rep.group_order == 168
        and rep.stabilizer_bound_ok
        and rep.summed_bound_ok
        and rep.transitive_on_top
    )
    report(
        11,
        ok,
        f"|G| = {rep.group_order}, stabilizer and summed bounds exact for every "
        f"face and k (orbits {rep.orbit_counts})",
    )


def test_acceptance_12_intro_lattice():
    X = named_complex("three_squares")
    L = component_lattice(X)
    d, certified = lattice_distance(L)
    ok = L.dimension == 3 and d == Fraction(1, 3) and certified
    report(12, ok, f"three disjoint 4-cycles: dimension {L.dimension}, distance {d}")
