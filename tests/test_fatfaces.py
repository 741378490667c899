import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from hdx import errors, fatfaces, verify
from hdx.catalog import named_complex, names
from hdx.cochains import Cochain, coboundary, is_locally_minimal
from hdx.expansion import good_links_constants, link_profile, skeleton_alpha
from hdx.fatfaces import (
    FatFamily,
    _exact_root,
    bad_bound_holds,
    bad_face_factor,
    bad_face_hypothesis,
    bad_faces,
    fat_bound_failure,
    fat_family,
    good_dimension_witness,
    good_dimension_witnesses,
    ladder_restrict,
    links_inequality_check,
    max_link_alpha,
)
from hdx.rings import prime_field

F2 = prime_field(2)
ETAS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]


def conditional_oracle(X, sigma, level_up):
    """Pr[r_{i+1} in level_up | r_i = sigma] from joint weights directly."""
    i = len(sigma) - 1
    up = [t for t in X.cofaces(sigma) if t in level_up]
    joint = sum(X.weight(t) / (i + 2) for t in up)
    return joint / X.weight(sigma)


def test_full_support_gives_full_levels():
    X = named_complex("octahedron")
    for k in [0, 1]:
        fam = fat_family(X, frozenset(X.faces(k)), Fraction(1, 2))
        for i in range(-1, k + 1):
            assert fam.levels[i] == frozenset(X.faces(i))


def test_empty_support_gives_empty_levels():
    X = named_complex("octahedron")
    fam = fat_family(X, frozenset(), Fraction(1, 2), k=1)
    for i in range(-1, 2):
        assert not fam.levels[i]


def test_bad_eta_rejected():
    X = named_complex("octahedron")
    for eta in [Fraction(0), Fraction(1), Fraction(3, 2)]:
        with pytest.raises(errors.BadEta):
            fat_family(X, frozenset(X.faces(1)), eta)


def test_levels_match_threshold_oracle():
    X = named_complex("octahedron")
    rng = random.Random(1)
    for _ in range(40):
        k = rng.choice([0, 1])
        A = frozenset(f for f in X.faces(k) if rng.random() < 0.4)
        eta = rng.choice(ETAS)
        fam = fat_family(X, A, eta, k=k)
        for i in range(k - 1, -2, -1):
            threshold = eta ** (2 ** (k - i - 1))
            for sigma in X.faces(i):
                cond = conditional_oracle(X, sigma, fam.levels[i + 1])
                assert (sigma in fam.levels[i]) == (cond >= threshold)


def oracle_fat_levels(X, A, eta, k):
    """The Fraction loop fat_family replaced, and how many of its threshold
    comparisons were exact ties."""
    levels, ties = {k: frozenset(A)}, 0
    for i in range(k - 1, -2, -1):
        threshold = eta ** (2 ** (k - i - 1))
        fat = set()
        for sigma in X.faces(i):
            up = [t for t in X.cofaces(sigma) if t in levels[i + 1]]
            if not up:
                continue
            cond = sum(X.weight(t) for t in up) / ((i + 2) * X.weight(sigma))
            ties += cond == threshold
            if cond >= threshold:
                fat.add(sigma)
        levels[i] = frozenset(fat)
    return levels, ties


def oracle_level_probability(fam, i):
    """The Fraction sum level_probability replaced."""
    X, c = fam.complex, comb(fam.k + 1, i + 1)
    down = fam.down_maps()
    total = Fraction(0)
    for sigma in fam.levels[i]:
        for tau in down[i][sigma]:
            total += X.weight(tau) / c
    return total


def test_fat_family_and_level_probability_match_the_fraction_oracles():
    rng = random.Random(59)
    ties = 0
    for name in names():
        X = named_complex(name)
        for k in range(0, X.dim + 1):
            faces = X.faces(k)
            supports = [frozenset(faces), frozenset(faces[:1])]
            supports += [frozenset(f for f in faces if rng.random() < 0.4) for _ in range(8)]
            for A in supports:
                for eta in ETAS + [Fraction(2, 3)]:
                    fam = fat_family(X, A, eta, k=k)
                    levels, t = oracle_fat_levels(X, A, eta, k)
                    ties += t
                    assert fam.levels == levels
                    assert fam.to_json() == FatFamily(X, k, eta, levels).to_json()
                    for i in range(-1, k + 1):
                        assert fam.level_probability(i) == oracle_level_probability(fam, i)
    # exact ties decide fatness, so >= and > give different families here
    assert ties > 100


def test_fat_face_upper_bound_exhaustive_small_supports():
    # || A_i || <= eta^(1 - 2^(k-i)) || A || over all supports of size <= 4
    X = named_complex("octahedron")
    for k in [0, 1]:
        faces = X.faces(k)
        for eta in ETAS:
            for size in range(1, 5):
                for supp in combinations(faces, size):
                    A = frozenset(supp)
                    fam = fat_family(X, A, eta)
                    nA = X.norm(A)
                    for i in range(-1, k + 1):
                        lvl = fam.levels[i]
                        nAi = X.norm(lvl) if lvl else Fraction(0)
                        assert nAi <= eta ** (1 - 2 ** (k - i)) * nA


def test_ladder_at_top_level():
    X = named_complex("octahedron")
    e = X.faces(1)[0]
    fam = fat_family(X, frozenset([e]), Fraction(1, 5))
    assert ladder_restrict(X, fam, e) == frozenset([e])
    other = X.faces(1)[1]
    assert ladder_restrict(X, fam, other) == frozenset()


def test_ladder_with_full_levels():
    X = named_complex("octahedron")
    A = frozenset(X.faces(1))
    fam = fat_family(X, A, Fraction(1, 2))
    for sigma in X.faces(0):
        expected = frozenset(t for t in A if set(sigma) <= set(t))
        assert ladder_restrict(X, fam, sigma) == expected


def test_ladder_subset_of_support_and_monotone():
    X = named_complex("octahedron")
    rng = random.Random(5)
    for _ in range(30):
        A = frozenset(f for f in X.faces(1) if rng.random() < 0.4)
        if not A:
            continue
        fam = fat_family(X, A, Fraction(1, 3))
        grown = dict(fam.levels)
        grown[0] = frozenset(X.faces(0))
        fam2 = FatFamily(X, fam.k, fam.eta, grown)
        for sigma in X.faces(0) + ((),):
            down = ladder_restrict(X, fam, sigma)
            assert down <= A
            assert down <= ladder_restrict(X, fam2, sigma)


def test_bad_faces_empty_when_levels_full():
    X = named_complex("octahedron")
    fam = fat_family(X, frozenset(X.faces(1)), Fraction(1, 2))
    assert bad_faces(X, fam) == frozenset()


def test_bad_faces_relabel_invariant():
    X = named_complex("octahedron")
    from hdx.complexes import build_complex

    mapping = {v: f"x{v}" for v in X.vertices()}
    Y = build_complex([" ".join(mapping[v] for v in f) for f in X.top_faces])
    A = frozenset(list(X.faces(1))[:4])
    famX = fat_family(X, A, Fraction(1, 3))
    famY = fat_family(
        Y, frozenset(tuple(sorted(mapping[v] for v in f)) for f in A), Fraction(1, 3)
    )
    mapped = frozenset(
        tuple(sorted(mapping[v] for v in f)) for f in bad_faces(X, famX)
    )
    assert mapped == bad_faces(Y, famY)


def oracle_is_bad(tau, fam):
    """The per-face scan bad_faces replaced: two fat i-faces inside tau that
    meet in a non-fat (i-1)-face, read off the (i+2)-subsets of tau."""
    for i in range(0, fam.k + 1):
        level, below = fam.levels[i], fam.levels[i - 1]
        for union in combinations(tau, i + 2):
            for x, y in combinations(range(i + 2), 2):
                s1 = union[:x] + union[x + 1:]
                s2 = union[:y] + union[y + 1:]
                if s1 in level and s2 in level:
                    inter = tuple(v for idx, v in enumerate(union) if idx not in (x, y))
                    if inter not in below:
                        return True
    return False


def test_bad_faces_match_the_per_face_scan():
    # fat families of drawn supports, and families whose levels are drawn
    # at random, which hold many more bad faces
    rng = random.Random(61)
    hits = 0
    for name in names():
        X = named_complex(name)
        for k in range(0, X.dim + 1):
            for _ in range(12):
                A = frozenset(f for f in X.faces(k) if rng.random() < 0.4)
                drawn = {i: frozenset(f for f in X.faces(i) if rng.random() < 0.5)
                         for i in range(-1, k + 1)}
                for fam in (fat_family(X, A, rng.choice(ETAS), k=k), FatFamily(X, k, ETAS[0], drawn)):
                    bad = bad_faces(X, fam)
                    assert bad == frozenset(t for t in X.faces(k + 1) if oracle_is_bad(t, fam))
                    hits += len(bad)
    assert hits > 100


def test_bad_face_bound_under_link_hypothesis():
    X = named_complex("octahedron")
    alpha_max = skeleton_alpha(X)[0]
    for k in range(0, X.dim + 1):
        for s in X.faces(k):
            alpha_max = max(alpha_max, skeleton_alpha(X.link(s))[0])
    assert alpha_max == 0  # every octahedron link meets the hypothesis
    rng = random.Random(7)
    for _ in range(120):
        k = rng.choice([0, 1])
        eta = rng.choice(ETAS)
        A = frozenset(f for f in X.faces(k) if rng.random() < 0.35)
        if not A:
            continue
        fam = fat_family(X, A, eta, k=k)
        ups = bad_faces(X, fam)
        lhs = X.norm(ups) if ups else Fraction(0)
        assert lhs <= eta * (k + 1) * (k + 2) * 2 ** (k + 2) * X.norm(A)


def test_links_inequality_zero_cochain():
    X = named_complex("octahedron")
    f = Cochain.zero(X, F2, 1)
    fam = fat_family(X, f.support, Fraction(1, 2), k=1)
    with pytest.raises(errors.EmptyFatLevel):
        links_inequality_check(X, F2, f, fam, 0)


def test_links_inequality_exhaustive_small():
    X = named_complex("octahedron")
    for k in [0, 1]:
        for size in [1, 2, 3]:
            for supp in combinations(X.faces(k), size):
                f = Cochain(X, F2, k, {s: 1 for s in supp})
                fam = fat_family(X, f.support, Fraction(1, 2))
                for i in range(0, k + 1):
                    try:
                        res = links_inequality_check(X, F2, f, fam, i)
                    except errors.EmptyFatLevel:
                        continue
                    assert res.holds
                    # deterministic recomputation
                    again = links_inequality_check(X, F2, f, fam, i)
                    assert (res.lhs, res.rhs) == (again.lhs, again.rhs)


def test_links_inequality_requires_matching_family():
    X = named_complex("octahedron")
    f = Cochain(X, F2, 1, {X.faces(1)[0]: 1})
    fam = fat_family(X, frozenset(X.faces(1)[:3]), Fraction(1, 2))
    with pytest.raises(errors.PreconditionViolated):
        links_inequality_check(X, F2, f, fam, 0)


def test_links_inequality_restricts_f_on_its_own_complex_and_ring():
    # the ladder restriction reuses f's values, so f must live on X over ring
    X = named_complex("octahedron")
    f = Cochain(X, F2, 1, {X.faces(1)[0]: 1, X.faces(1)[1]: 1})
    fam = fat_family(X, f.support, Fraction(1, 2))
    assert links_inequality_check(X, F2, f, fam, 0).holds
    for other_X, ring in [(named_complex("rp2"), F2), (X, prime_field(3))]:
        with pytest.raises(errors.PreconditionViolated):
            links_inequality_check(other_X, ring, f, fam, 0)


def test_good_dimension_zero_cochain():
    X = named_complex("octahedron")
    f = Cochain.zero(X, F2, 1)
    i, bound = good_dimension_witness(X, F2, f, {-1: Fraction(0), 0: Fraction(1, 10), 1: Fraction(1, 5)}, Fraction(16, 81))
    assert (i, bound) == (0, 0)


def test_good_dimension_requires_exact_root():
    X = named_complex("octahedron")
    f = Cochain(X, F2, 1, {X.faces(1)[0]: 1})
    cons = {-1: Fraction(0), 0: Fraction(1, 10), 1: Fraction(1, 5)}
    with pytest.raises(errors.ParameterOutOfRange):
        good_dimension_witness(X, F2, f, cons, Fraction(1, 7))


def test_good_dimension_preconditions():
    X = named_complex("octahedron")
    e = X.faces(1)
    cons = {-1: Fraction(0), 0: Fraction(1, 10), 1: Fraction(1, 5)}
    f = Cochain(X, F2, 1, {e[0]: 1})
    with pytest.raises(errors.PreconditionViolated):
        good_dimension_witness(X, F2, f, cons, f.norm() / 2)  # norm too large
    bad_cons = {-1: Fraction(0), 0: Fraction(1, 5), 1: Fraction(1, 10)}
    with pytest.raises(errors.PreconditionViolated):
        good_dimension_witness(X, F2, f, bad_cons, Fraction(16, 81))
    # a non-locally-minimal cochain: three edges at one vertex beats its star
    g = Cochain(X, F2, 1, {("1", "2"): 1, ("1", "3"): 1, ("1", "4"): 1, ("1", "5"): 1})
    assert not is_locally_minimal(g)
    with pytest.raises(errors.PreconditionViolated):
        good_dimension_witness(X, F2, g, cons, Fraction(16, 81))


def test_good_dimension_exhaustive_with_theorem_constants():
    # constants from the closed-form calculator, with beta from the measured
    # link profile (clamped below 1 so the formulas stay finite)
    X = named_complex("octahedron")
    alpha_big = Fraction(16, 81)  # eta = 2/3, exact fourth root
    for k in [0, 1]:
        prof = link_profile(X, F2, k)
        beta = min(prof.values())
        if beta >= 1:
            beta = Fraction(1, 2)
        g = good_links_constants(X.dim, k, beta, Fraction(1, 2))
        for size in range(1, 5):
            for supp in combinations(X.faces(k), size):
                f = Cochain(X, F2, k, {s: 1 for s in supp})
                if not is_locally_minimal(f):
                    continue
                # theorem-regime alpha is tiny, so only the zero cochain
                # qualifies there; rerun with a larger admissible alpha since
                # every octahedron link is a 0-skeleton expander
                if f.norm() <= g.alpha:
                    good_dimension_witness(X, F2, f, g.c, g.alpha)
                if f.norm() <= alpha_big:
                    i, bound = good_dimension_witness(X, F2, f, g.c, alpha_big)
                    assert coboundary(f).norm() >= bound


ALPHA = Fraction(81, 256)  # eta = 3/4, exact fourth root on the octahedron
CONS = {-1: Fraction(0), 0: Fraction(1, 100), 1: Fraction(1, 50)}


def octahedron_cochains(ring, k, sizes=range(0, 4)):
    X = named_complex("octahedron")
    return X, [Cochain(X, ring, k, {s: 1 for s in supp})
               for size in sizes for supp in combinations(X.faces(k), size)]


def first_failure(X, ring, fs, cons, alpha):
    """What a per-cochain loop of good_dimension_witness raises first, as (type, message)."""
    for f in fs:
        try:
            good_dimension_witness(X, ring, f, cons, alpha)
        except errors.HdxError as e:
            return type(e), str(e)
    return None


@pytest.mark.parametrize("ring", [F2, prime_field(3)], ids=str)
def test_good_dimension_witnesses_match_per_cochain_calls(ring):
    for k in [0, 1]:
        X, fs = octahedron_cochains(ring, k)
        fs = [f for f in fs if f.norm() <= ALPHA and is_locally_minimal(f)]
        assert len(fs) > 5 and fs[0].is_zero()
        assert (good_dimension_witnesses(X, ring, fs, CONS, ALPHA)
                == [good_dimension_witness(X, ring, f, CONS, ALPHA) for f in fs])
    assert good_dimension_witnesses(X, ring, [], CONS, ALPHA) == []


def test_a_batch_raises_what_the_per_cochain_loop_raises_first():
    X, fs = octahedron_cochains(F2, 1)
    good = [f for f in fs if f.norm() <= ALPHA and is_locally_minimal(f)][:20]
    e = X.faces(1)
    # three of the four edges at one vertex: at that vertex the fourth edge alone
    # is a cheaper localization in the same coset
    not_minimal = Cochain(X, F2, 1, {e[0]: 1, e[1]: 1, e[2]: 1})
    too_heavy = Cochain(X, F2, 1, {s: 1 for s in e[:6]})
    assert not is_locally_minimal(not_minimal) and not_minimal.norm() <= ALPHA
    assert too_heavy.norm() > ALPHA
    for bad in ([not_minimal, too_heavy], [too_heavy, not_minimal]):
        batch = good[:7] + [bad[0]] + good[7:] + [bad[1]]
        want = first_failure(X, F2, batch, CONS, ALPHA)
        assert want is not None and want == first_failure(X, F2, bad[:1], CONS, ALPHA)
        with pytest.raises(want[0]) as got:
            good_dimension_witnesses(X, F2, batch, CONS, ALPHA)
        assert str(got.value) == want[1]


def test_a_batch_screens_local_minimality_in_one_call(monkeypatch):
    calls = []

    def counted(X, ring, k, F):
        calls.append(len(F))
        return screen(X, ring, k, F)

    screen = fatfaces.locally_minimal_rows
    monkeypatch.setattr(fatfaces, "locally_minimal_rows", counted)
    for k in [0, 1]:
        X, fs = octahedron_cochains(F2, k)
        fs = [f for f in fs if f.norm() <= ALPHA and is_locally_minimal(f)]
        calls.clear()
        good_dimension_witnesses(X, F2, fs, CONS, ALPHA)
        assert calls == [len(fs) - 1]  # every cochain but the zero one
    # verify's check hands each k's locally minimal cochains over as one batch
    calls.clear()
    assert verify.check_good_dimension_witness(0) == (True, "")
    assert calls == [6, 78]


# -- the bound predicates, each against a restatement from the definitions ---------------


def weight_sum(X, faces):
    return sum((X.weight(f) for f in faces), Fraction(0))


def restated_fat_failure(X, fam):
    """The first level whose weight sum exceeds eta^(1 - 2^(k-i)) times the support's."""
    top = weight_sum(X, fam.levels[fam.k])
    for i in range(-1, fam.k + 1):
        if weight_sum(X, fam.levels[i]) > fam.eta ** (1 - 2 ** (fam.k - i)) * top:
            return i
    return None


def restated_bad_bound(X, fam):
    """(k+1)-faces holding two fat i-faces that share i vertices outside level i-1,
    weighed against eta (k+1)(k+2) 2^(k+2) times the support."""
    k, eta = fam.k, fam.eta
    bad = set()
    for tau in X.faces(k + 1):
        for i in range(0, k + 1):
            fat = [s for s in combinations(tau, i + 1) if s in fam.levels[i]]
            for s1, s2 in combinations(fat, 2):
                meet = tuple(sorted(set(s1) & set(s2)))
                if len(meet) == i and meet not in fam.levels[i - 1]:
                    bad.add(tau)
    return weight_sum(X, bad) <= eta * (k + 1) * (k + 2) * 2 ** (k + 2) * weight_sum(X, fam.levels[k])


def drawn_families(X, seed, draws):
    rng = random.Random(seed)
    for _ in range(draws):
        k = rng.choice(range(0, X.dim))
        A = frozenset(f for f in X.faces(k) if rng.random() < 0.35)
        if A:
            yield fat_family(X, A, rng.choice(ETAS), k=k)


@pytest.mark.parametrize("name", ["octahedron", "rp2"])
def test_fat_bound_failure_matches_restatement(name):
    X = named_complex(name)
    for fam in drawn_families(X, 5, 40):
        assert fat_bound_failure(X, fam) is None
        assert restated_fat_failure(X, fam) is None


@pytest.mark.parametrize("level", [-1, 0])
def test_fat_bound_failure_names_an_inflated_level(level):
    # one edge of the octahedron has no fat vertex and no fat empty face at
    # eta = 1/2; filling one level past its bound must be reported at that level
    X = named_complex("octahedron")
    fam = fat_family(X, frozenset(X.faces(1)[:1]), Fraction(1, 2))
    assert fam.levels[0] == fam.levels[-1] == frozenset()
    inflated = FatFamily(X, 1, fam.eta, {**fam.levels, level: frozenset(X.faces(level))})
    assert restated_fat_failure(X, inflated) == level
    assert fat_bound_failure(X, inflated) == level


@pytest.mark.parametrize("name", ["octahedron", "rp2"])
def test_bad_bound_holds_matches_restatement(name):
    X = named_complex(name)
    alpha = max_link_alpha(X)
    for fam in drawn_families(X, 7, 40):
        assert bad_bound_holds(X, fam) == restated_bad_bound(X, fam)
        if bad_face_hypothesis(X, alpha, fam.eta):
            assert bad_bound_holds(X, fam)


def test_bad_bound_fails_when_bad_faces_exceed_the_factor():
    # every vertex fat and the empty face not: every edge is bad, norm 1,
    # against the factor 8 eta = 4/5 times the support's norm 1
    X = named_complex("octahedron")
    eta = Fraction(1, 10)
    fam = FatFamily(X, 0, eta, {0: frozenset(X.faces(0)), -1: frozenset()})
    assert bad_faces(X, fam) == frozenset(X.faces(1))
    assert bad_face_factor(0, eta) == Fraction(4, 5)
    assert restated_bad_bound(X, fam) is False
    assert bad_bound_holds(X, fam) is False


def test_max_link_alpha_and_the_bad_face_hypothesis():
    rp2 = named_complex("rp2")
    alphas = [skeleton_alpha(rp2)[0]] + [
        skeleton_alpha(rp2.link(s))[0] for k in range(0, 3) for s in rp2.faces(k)
    ]
    assert max_link_alpha(rp2) == max(alphas) == Fraction(1, 10)
    assert max_link_alpha(named_complex("octahedron")) == 0
    # alpha <= eta^(2^(d-1)) = eta^2 on a 2-complex
    assert bad_face_hypothesis(rp2, Fraction(1, 10), Fraction(1, 3))
    assert not bad_face_hypothesis(rp2, Fraction(1, 10), Fraction(1, 5))
    assert bad_face_hypothesis(rp2, Fraction(1, 9), Fraction(1, 3))


def test_exact_root_takes_d_square_roots():
    for d, root in [(0, Fraction(7, 3)), (1, Fraction(2, 3)), (2, Fraction(2, 3)), (3, Fraction(5, 2))]:
        assert _exact_root(root ** (2 ** d), d) == root
    assert _exact_root(Fraction(1, 7), 2) is None
    assert _exact_root(Fraction(4, 9), 2) is None  # a square, not a fourth power
    assert _exact_root(Fraction(0), 2) == 0
