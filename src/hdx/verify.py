"""The bundled property suite behind `hdx verify`.

Each check replays one documented invariant over the built-in example
complexes: exhaustively where the space is small, with seeded draws where it
is not. Checks call through the module objects rather than imported names,
so a deliberately broken operator (mutation testing) is caught. A bound
the library states is read from the predicate of the module that owns it.

The two minimality lemmas (minimal implies locally minimal, and minimality
is closed under restriction) read which cochains are minimal off one
distance table per (complex, ring, k), `_minimal_table`. Each table is
cross-checked against `cochains.is_minimal` on a seeded sample of SAMPLE
rows, half marked minimal and half not, so a broken `is_minimal` or a
broken table still fails the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress, product
from math import comb

from . import building as building_mod
from . import cochains as cochains_mod
from . import cosets
from . import expansion as expansion_mod
from . import fatfaces as fatfaces_mod
from . import intmat
from . import lattice as lattice_mod
from .catalog import named_complex, names
from .cochains import COBOUNDARIES, COCYCLES, Chain, Cochain
from .complexes import build_complex
from .errors import EmptyFatLevel
from .rings import INTEGERS, modular_ring, prime_field

F2 = prime_field(2)
F3 = prime_field(3)
Z6 = modular_ring(6)

SMALL = ["hollow_triangle", "full_triangle", "two_triangles", "two_edges", "k4"]
MEDIUM = SMALL + ["tetrahedron", "octahedron", "rp2", "three_squares"]
SAMPLE = 8  # rows per minimality table cross-checked against cochains.is_minimal


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _all_cochains(X, ring, k):
    faces = X.faces(k)
    for vec in product(range(ring.size), repeat=len(faces)):
        yield cochains_mod.vector_cochain(X, ring, k, vec)


# -- individual checks ------------------------------------------------------------


def check_weights_total_one(seed):
    for name in names():
        X = named_complex(name)
        for k in range(-1, X.dim + 1):
            if X.norm(X.faces(k)) != 1:
                return False, f"{name} dim {k}"
    return True, ""


def check_weight_chain_identity(seed):
    for name in MEDIUM:
        X = named_complex(name)
        for k in range(-1, X.dim):
            for sigma in X.faces(k):
                total = sum(X.weight(t) for t in X.cofaces(sigma))
                if X.weight(sigma) != total / (k + 2):
                    return False, f"{name} {sigma}"
    return True, ""


def check_link_conditional_law(seed):
    for name in ["tetrahedron", "octahedron", "rp2"]:
        X = named_complex(name)
        for sigma in X.faces(0) + X.faces(1):
            L = X.link(sigma)
            i = len(sigma) - 1
            for k in range(0, L.dim + 1):
                for tau in L.faces(k):
                    union = tuple(sorted(sigma + tau))
                    kk = len(union) - 1
                    joint = X.weight(union) / comb(kk + 1, i + 1)
                    if L.weight(tau) != joint / X.weight(sigma):
                        return False, f"{name} {sigma} {tau}"
    return True, ""


def check_delta_delta_zero(seed):
    for f in _all_cochains(named_complex("full_triangle"), F2, 0):
        if not cochains_mod.coboundary(cochains_mod.coboundary(f)).is_zero():
            return False, f"exhaustive F2 {f.values}"
    rng = random.Random(seed)
    for name in ["octahedron", "rp2"]:
        X = named_complex(name)
        for ring in [INTEGERS, F3, Z6]:
            for k in range(-1, X.dim - 1):
                for _ in range(10):
                    f = cochains_mod.random_cochain(X, ring, k, rng)
                    if not cochains_mod.coboundary(cochains_mod.coboundary(f)).is_zero():
                        return False, f"{name} {ring} k={k}"
    return True, ""


def check_stokes_identity(seed):
    rng = random.Random(seed)
    X = named_complex("tetrahedron")
    for ring in [INTEGERS, F3, Z6]:
        for _ in range(60):
            k = rng.choice([-1, 0, 1])
            f = cochains_mod.random_cochain(X, ring, k, rng)
            coeffs = {
                face: (rng.randrange(ring.size) if ring.is_finite else rng.randint(-4, 4))
                for face in X.faces(k + 1)
            }
            c = Chain(ring, k + 1, coeffs)
            lhs = cochains_mod.evaluate(cochains_mod.coboundary(f), c)
            rhs = cochains_mod.evaluate(f, cochains_mod.boundary(c))
            if lhs != rhs:
                return False, f"{ring} k={k}"
    return True, ""


def check_antisymmetry(seed):
    from itertools import permutations

    X = named_complex("octahedron")
    rng = random.Random(seed)
    f = cochains_mod.random_cochain(X, INTEGERS, 2, rng)
    for face in X.faces(2):
        order = sorted(face)
        for perm in permutations(range(3)):
            reordered = tuple(order[i] for i in perm)
            sign = cochains_mod.perm_sign(reordered)
            if f(reordered) != sign * f(face):
                return False, f"{face} {perm}"
    return True, ""


def _minimal_table(X, ring, k):
    """Every k-cochain mod n as a row, in lex_digits order, and which are minimal.

    A row is minimal when its norm (F != 0) @ w equals its distance to B^k,
    and one distance_table with every column free holds that distance for
    all n^m rows at once, in place of one subgroup scan per cochain.
    """
    n, m = ring.size, len(X.faces(k))
    w, _ = cosets.face_weights(X, k)
    G = cochains_mod.subgroup_array(X, ring, k, COBOUNDARIES)
    D = cosets.distance_table(cosets.chunks(G), n, range(m), w)
    F = cosets.lex_digits(0, n ** m, n, range(m), m)
    return F, D == (F != 0) @ w


def _table_agrees(X, ring, k, F, mask, rng):
    """Whether cochains.is_minimal agrees with the mask on a seeded sample of rows.

    The sample takes up to SAMPLE // 2 rows the mask marks minimal and as many
    it marks not minimal, so an operator that gives one answer for every
    cochain, or a table that does, disagrees on some instance.
    """
    for rows in (mask.nonzero()[0], (~mask).nonzero()[0]):
        for i in rng.sample(range(len(rows)), min(SAMPLE // 2, len(rows))):
            f = cochains_mod.vector_cochain(X, ring, k, F[rows[i]].tolist())
            if cochains_mod.is_minimal(f) != bool(mask[rows[i]]):
                return False
    return True


def _local_minimality_instances():
    for name in MEDIUM:
        X = named_complex(name)
        for k in range(0, X.dim + 1):
            if len(X.faces(k)) <= 12:
                yield name, X, F2, k


def _inclusion_instances():
    for name in SMALL + ["tetrahedron"]:
        X = named_complex(name)
        for ring in [F2, F3]:
            for k in range(0, X.dim + 1):
                if len(X.faces(k)) <= 6:
                    yield name, X, ring, k


def check_minimal_implies_locally_minimal(seed):
    """Every minimal F2 cochain is locally minimal (at most 12 faces, exhaustive).

    The minimal rows come from _minimal_table, cross-checked on a seeded
    sample against cochains.is_minimal; one locally_minimal_rows call tests them.
    """
    rng = random.Random(seed)
    for name, X, ring, k in _local_minimality_instances():
        F, mask = _minimal_table(X, ring, k)
        if not _table_agrees(X, ring, k, F, mask, rng):
            return False, f"{name} k={k} table disagrees with is_minimal"
        ok = cochains_mod.locally_minimal_rows(X, ring, k, F[mask])
        if not ok.all():
            f = cochains_mod.vector_cochain(X, ring, k, F[mask][ok.argmin()].tolist())
            return False, f"{name} k={k} {sorted(f.support)}"
    return True, ""


def _closed_under_zeroing(F, mask, n):
    """Whether every row the mask marks keeps its mark with any one face zeroed.

    F holds the lex_digits rows of all n^m vectors. By induction on the
    support this holds exactly when every restriction of a marked row is
    marked. One vectorised pass per face: zeroing digit j of row i lands on
    row i - F[i, j] * n^(m-1-j), computed in the index dtype because F's
    digits are as narrow as n allows.
    """
    m = F.shape[1]
    marked = mask.nonzero()[0]
    for j in range(m):
        rows = marked[F[marked, j] != 0]
        if not mask[rows - F[rows, j].astype(rows.dtype) * n ** (m - 1 - j)].all():
            return False
    return True


def check_minimal_closed_under_inclusion(seed):
    """Every restriction of a minimal F2 or F3 cochain is minimal (at most 6 faces).

    Read off _minimal_table, cross-checked on a seeded sample against
    cochains.is_minimal, by _closed_under_zeroing.
    """
    rng = random.Random(seed)
    for name, X, ring, k in _inclusion_instances():
        F, mask = _minimal_table(X, ring, k)
        if not _table_agrees(X, ring, k, F, mask, rng):
            return False, f"{name} {ring} k={k} table disagrees with is_minimal"
        if not _closed_under_zeroing(F, mask, ring.size):
            return False, f"{name} {ring} k={k}"
    return True, ""


def check_local_to_global_coboundaries(seed):
    rng = random.Random(seed)
    X = named_complex("octahedron")
    hits = 0
    for _ in range(150):
        f = cochains_mod.random_cochain(X, F3, 1, rng)
        df = cochains_mod.coboundary(f)
        for sigma in X.faces(0):
            fs = cochains_mod.localize(f, sigma)
            dfs = cochains_mod.coboundary(fs)
            for tau in dfs.support:
                union = tuple(sorted(sigma + tau))
                if all(
                    tuple(sorted(set(union) - {v})) not in f.support for v in sigma
                ):
                    hits += 1
                    lhs = df(sigma + tau)
                    if lhs != F3.reduce((-1) ** len(sigma) * dfs(tau)):
                        return False, f"{sigma} {tau}"
    return hits > 0, f"{hits} applicable instances"


def check_repair_procedure(seed):
    rng = random.Random(seed)
    X = named_complex("octahedron")
    Q = X.degree_bound()
    fs = [cochains_mod.random_cochain(X, F2, rng.choice([0, 1]), rng) for _ in range(25)]
    runs = [(f, *cochains_mod.make_locally_minimal(f)) for f in fs]
    minimal = {k: iter(cochains_mod.locally_minimal_rows(X, F2, k, [  # read in run order
        cochains_mod.cochain_vector(f2) for f, _, f2 in runs if f.dim == k])) for k in (0, 1)}
    for f, g, f2 in runs:
        if f2 != f - cochains_mod.coboundary(g):
            return False, "decomposition"
        if not next(minimal[f.dim]):
            return False, "not locally minimal"
        if f2.norm() > f.norm() or g.norm() > Q * Q * f.norm():
            return False, "norm bounds"
    return True, ""


def check_coset_invariance(seed):
    for name in ["hollow_triangle", "full_triangle"]:
        X = named_complex(name)
        for k in range(0, X.dim):
            group = cochains_mod.coboundary_group(X, F2, k)
            for f in _all_cochains(X, F2, k):
                d0, _ = cochains_mod.distance(f, COBOUNDARIES)
                n0 = cochains_mod.coboundary(f).norm()
                for b in group:
                    g = f + cochains_mod.vector_cochain(X, F2, k, b)
                    if cochains_mod.coboundary(g).norm() != n0:
                        return False, f"{name} k={k} coboundary norm"
                    if cochains_mod.distance(g, COBOUNDARIES)[0] != d0:
                        return False, f"{name} k={k} distance"
    return True, ""


def check_epsilon_zero_iff_cohomology(seed):
    for name in SMALL:
        X = named_complex(name)
        for ring in [F2, F3]:
            for k in range(0, X.dim):
                rep = expansion_mod.coboundary_epsilon(X, ring, k)
                dim = lattice_mod.fp_cohomology_dimension(X, k, ring.size)
                if (rep.epsilon == 0) != (dim > 0):
                    return False, f"{name} {ring} k={k}"
    return True, ""


def check_small_set_implications(seed):
    # wherever the small-set check passes, nontrivial cocycles are large and
    # low dimensions expand toward the cocycles
    mu = Fraction(1, 4)
    for name in ["octahedron", "tetrahedron"]:
        X = named_complex(name)
        eps, holds, bound = _corollary_hypothesis(X, mu)
        if not eps:
            continue
        if not holds:
            return False, f"{name} fails at its own epsilon"
        for k in range(0, X.dim):
            B = set(cochains_mod.coboundary_group(X, F2, k))
            for z in cochains_mod.cocycle_group(X, F2, k):
                if z not in B and cochains_mod.norm_of_vector(X, k, z) < mu:
                    return False, f"{name} small cocycle at k={k}"
        for k in range(0, X.dim - 1):
            for f in _all_cochains(X, F2, k):
                d, _ = cochains_mod.distance(f, COCYCLES)
                if d == 0:
                    continue
                if cochains_mod.coboundary(f).norm() / d < bound:
                    return False, f"{name} cocycle expansion at k={k}"
    return True, ""


def _corollary_hypothesis(X, mu):
    """(eps, holds, bound) for the corollary's small-set premise on X over F2.

    eps is the least expansion ratio of a locally minimal F2 cochain of norm
    at most mu (falsy when none is positive), holds whether small_set_check
    passes at (eps, mu), and bound = min(mu, Q^-2) is the promised expansion.
    Both corollary checks read it, so it is kept in X.cache per (X, mu).
    """
    key = ("corollary hypothesis", mu)
    if key in X.cache:
        return X.cache[key]
    eps = None
    for k in range(0, X.dim):
        fs = [Cochain(X, F2, k, {s: 1 for s in support})
              for support in expansion_mod._supports_up_to_norm(X, k, mu)]
        rows = [cochains_mod.cochain_vector(f) for f in fs]
        for f, lm in zip(fs, cochains_mod.locally_minimal_rows(X, F2, k, rows)):
            if lm:
                ratio = cochains_mod.coboundary(f).norm() / f.norm()
                eps = ratio if eps is None else min(eps, ratio)
    holds = bool(eps) and expansion_mod.small_set_check(X, F2, eps, mu)[0]
    Q = X.degree_bound()
    X.cache[key] = eps, holds, min(mu, Fraction(1, Q * Q)) if eps else None
    return X.cache[key]


def check_corollary_chain(seed):
    # where the small-set check passes with (eps, mu), the measured
    # cosystolic pair of the (d-1)-skeleton clears (min(mu, Q^-2), mu)
    mu = Fraction(1, 4)
    for name in ["octahedron", "tetrahedron"]:
        X = named_complex(name)
        eps, holds, bound = _corollary_hypothesis(X, mu)
        if not eps:
            continue
        if not holds:
            return False, f"{name} fails its own epsilon"
        Y = X.skeleton(X.dim - 1)
        for k in range(0, Y.dim):
            rep = expansion_mod.cosystolic_pair(Y, F2, k)
            if rep.epsilon != expansion_mod.INFINITY and rep.epsilon < bound:
                return False, f"{name} skeleton epsilon {rep.epsilon}"
            if rep.mu != expansion_mod.INFINITY and rep.mu < mu:
                return False, f"{name} skeleton mu {rep.mu}"
    return True, ""


def check_skeleton_alpha(seed):
    a, w = expansion_mod.skeleton_alpha(named_complex("two_edges"))
    if a != Fraction(1, 2):
        return False, f"two_edges alpha {a}"
    b1 = expansion_mod.skeleton_alpha(named_complex("octahedron"))
    b2 = expansion_mod.skeleton_alpha(named_complex("octahedron"))
    if b1 != b2:
        return False, "nondeterministic"
    return True, ""


def check_good_links_constants(seed):
    g = expansion_mod.good_links_constants(2, 1, Fraction(1, 24), Fraction(1, 2))
    if g.epsilon != Fraction(23, 2350):
        return False, f"epsilon {g.epsilon}"
    if g.alpha != Fraction(23, 112800) ** 4:
        return False, "alpha"
    if g.c[1] != Fraction(1127, 1175) or g.c[0] != Fraction(552, 1175):
        return False, "c chain"
    return True, ""


def check_fat_face_bound(seed):
    rng = random.Random(seed)
    X = named_complex("octahedron")
    for _ in range(120):
        k = rng.choice([0, 1])
        faces = X.faces(k)
        A = frozenset(f for f in faces if rng.random() < 0.35)
        if not A:
            continue
        eta = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        fam = fatfaces_mod.fat_family(X, A, eta)
        i = fatfaces_mod.fat_bound_failure(X, fam)
        if i is not None:
            return False, f"k={k} i={i} eta={eta}"
    return True, ""


def check_ladder_monotonicity(seed):
    X = named_complex("octahedron")
    A = frozenset(list(X.faces(1))[:3])
    eta = Fraction(1, 3)
    fam = fatfaces_mod.fat_family(X, A, eta)
    # enlarging a middle level can only enlarge every ladder restriction
    bigger = dict(fam.levels)
    bigger[0] = frozenset(X.faces(0))
    fam2 = fatfaces_mod.FatFamily(X, fam.k, eta, bigger)
    for sigma in X.faces(0) + ((),):
        a = fatfaces_mod.ladder_restrict(X, fam, sigma)
        b = fatfaces_mod.ladder_restrict(X, fam2, sigma)
        if not a <= b:
            return False, f"{sigma}"
    return True, ""


def check_bad_face_bound(seed):
    X = named_complex("octahedron")
    amax = fatfaces_mod.max_link_alpha(X)
    rng = random.Random(seed)
    for _ in range(150):
        k = rng.choice([0, 1])
        eta = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        if not fatfaces_mod.bad_face_hypothesis(X, amax, eta):
            continue
        A = frozenset(f for f in X.faces(k) if rng.random() < 0.3)
        if not A:
            continue
        fam = fatfaces_mod.fat_family(X, A, eta, k=k)
        if not fatfaces_mod.bad_bound_holds(X, fam):
            return False, f"k={k} eta={eta}"
    return True, ""


def check_links_inequality(seed):
    X = named_complex("octahedron")
    for k in [0, 1]:
        for supp in combinations(X.faces(k), 2):
            f = Cochain(X, F2, k, {s: 1 for s in supp})
            fam = fatfaces_mod.fat_family(X, f.support, Fraction(1, 2))
            for i in range(0, k + 1):
                try:
                    res = fatfaces_mod.links_inequality_check(X, F2, f, fam, i)
                except EmptyFatLevel:
                    continue
                if not res.holds:
                    return False, f"k={k} i={i} {supp}"
    return True, ""


def check_good_dimension_witness(seed):
    X = named_complex("octahedron")
    alpha = Fraction(16, 81)
    for k in [0, 1]:
        cons = {-1: Fraction(0), 0: Fraction(1, 100)}
        if k == 1:
            cons[1] = Fraction(1, 50)
        fs = [f for sz in range(1, 4) for supp in combinations(X.faces(k), sz)
              if (f := Cochain(X, F2, k, {s: 1 for s in supp})).norm() <= alpha]
        rows = [cochains_mod.cochain_vector(f) for f in fs]
        lm = cochains_mod.locally_minimal_rows(X, F2, k, rows)
        fatfaces_mod.good_dimension_witnesses(X, F2, compress(fs, lm), cons, alpha)
    return True, ""


_BUILDING = {}


def _building32():
    if "b" not in _BUILDING:
        _BUILDING["b"] = building_mod.build_building(3, 2)
    return _BUILDING["b"]


def check_building_axioms(seed):
    return building_mod.verify_building_axioms(_building32()), ""


def check_chain_family_identity(seed):
    B = _building32()
    for ring in [INTEGERS, F2, F3]:
        building_mod.chain_family(B, ring)  # raises on a broken identity
    return True, ""


def check_homotopy_identity(seed):
    B = _building32()
    X = B.complex
    rng = random.Random(seed)
    for ring in [INTEGERS, F2, F3]:
        fam = building_mod.chain_family(B, ring)
        for _ in range(8):
            f = cochains_mod.random_cochain(X, ring, 0, rng)
            sigma = building_mod.homotopy_failure(fam, f)
            if sigma is not None:
                return False, f"{ring} {sigma}"
    return True, ""


def check_contraction_distance_bound(seed):
    B = _building32()
    X = B.complex
    rng = random.Random(seed)
    fam = building_mod.chain_family(B, F2)
    for _ in range(10):
        f = cochains_mod.random_cochain(X, F2, 0, rng)
        d, _ = cochains_mod.distance(f, COBOUNDARIES)
        lhs, rhs = building_mod.cone_norms(fam, f)
        for sigma, g, bound in zip(fam.tops, lhs.tolist(), rhs.tolist()):
            if not d * X.weight_denominator(0) <= g <= bound:
                return False, f"{sigma}"
    return True, ""


def check_symmetry_bounds(seed):
    rep = building_mod.symmetry_checks(_building32(), seed=seed)
    return rep.group_order == 168 and rep.ok, f"orbits {rep.orbit_counts}"


def check_building_epsilon(seed):
    B = _building32()
    rep = expansion_mod.coboundary_epsilon(B.complex, F2, 0)
    beta, sharper = building_mod.beta_constants(B)
    if rep.epsilon < beta or rep.epsilon < sharper[0]:
        return False, f"epsilon {rep.epsilon}"
    return True, f"epsilon {rep.epsilon}"


def check_building_cohomology(seed):
    X = _building32().complex
    p = lattice_mod.integer_cohomology(X, 0)
    return (p.free_rank == 0 and not p.torsion), ""


def check_matrix_complex_identity(seed):
    for name in MEDIUM:
        X = named_complex(name)
        for k in range(-1, X.dim - 1):
            Dk = intmat.rows_of(cochains_mod.delta_matrix(X, k))[0]
            Dk1 = intmat.rows_of(cochains_mod.delta_matrix(X, k + 1))[0]
            if any(intmat.combine(row, Dk) for row in Dk1):
                return False, f"{name} k={k}"
    return True, ""


def check_snf_transforms(seed):
    # the Smith routine itself, whichever route smith_profile takes for M
    rng = random.Random(seed)
    for _ in range(15):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        U, d, V = intmat.smith_normal_form(M)
        if not lattice_mod.smith_form_holds(M, U, d, V):
            return False, "transform"
        for a, b in zip(d, d[1:]):
            if b % a:
                return False, "divisibility"
        if lattice_mod.smith_profile(M) != tuple(d):
            return False, "profile"
    return True, ""


def check_uct_all_bundled(seed):
    targets = [named_complex(n) for n in MEDIUM] + [_building32().complex]
    two = build_complex(
        ["a b c", "a b d", "a c d", "b c d", "p q r", "p q s", "p r s", "q r s"]
    )
    targets.append(two)
    for X in targets:
        for k in range(0, X.dim + 1):
            if not lattice_mod.uct_check(X, k).ok:
                return False, f"k={k}"
    return True, ""


def check_relabel_invariance(seed):
    X = named_complex("rp2")
    mapping = {v: f"w{ord(v)}" for v in X.vertices()}
    Y = build_complex(
        [" ".join(mapping[v] for v in f) for f in X.top_faces]
    )
    for k in range(0, X.dim + 1):
        a = lattice_mod.integer_cohomology(X, k)
        b = lattice_mod.integer_cohomology(Y, k)
        if (a.free_rank, a.torsion) != (b.free_rank, b.torsion):
            return False, f"k={k}"
    rep_a = expansion_mod.link_profile(X, F2, 1)
    rep_b = expansion_mod.link_profile(Y, F2, 1)
    return rep_a == rep_b, ""


def check_minimal_representatives(seed):
    X = named_complex("hollow_triangle")
    reps = lattice_mod.minimal_representatives(X, 1, coeff_bound=2)
    if len(reps) != 1 or reps[0].cochain.norm() != Fraction(1, 3):
        return False, "hollow triangle"
    if not reps[0].certified:
        return False, "uncertified"
    L = lattice_mod.build_lattice(reps)
    d, cert = lattice_mod.lattice_distance(L, 2)
    return (d == Fraction(1, 3) and cert), ""


def check_component_lattice(seed):
    S = named_complex("three_squares")
    L = lattice_mod.component_lattice(S)
    d, cert = lattice_mod.lattice_distance(L)
    if L.dimension != 3 or d != Fraction(1, 3) or not cert:
        return False, f"dim {L.dimension} dist {d}"
    # consistency with the reduced-cohomology representatives at k = 0:
    # component indicators span the reps modulo the constants
    T = named_complex("two_triangles")
    reps = lattice_mod.minimal_representatives(T, 0, coeff_bound=2)
    CL = lattice_mod.component_lattice(T)
    span = [cochains_mod.cochain_vector(g) for g in CL.generators] + [[1] * len(T.faces(0))]
    base = intmat.rank_int(span)
    for rep in reps:
        if intmat.rank_int(span + [cochains_mod.cochain_vector(rep.cochain)]) != base:
            return False, "rep outside component span"
    return True, ""


def check_cosystole_vs_lattice(seed):
    # measured mu at k=0 floors the certified generator norms instance-wise
    for name in ["two_triangles", "three_squares"]:
        X = named_complex(name)
        rep = expansion_mod.cosystolic_pair(X, F2, 0)
        if rep.mu == expansion_mod.INFINITY:
            continue
        gens = lattice_mod.minimal_representatives(X, 0, coeff_bound=2)
        for g in gens:
            if g.certified and g.cochain.norm() < rep.mu:
                return False, f"{name}"
    return True, ""


CHECKS = [
    ("weights-total-one", check_weights_total_one),
    ("weight-chain-identity", check_weight_chain_identity),
    ("link-conditional-law", check_link_conditional_law),
    ("delta-delta-zero", check_delta_delta_zero),
    ("stokes-identity", check_stokes_identity),
    ("antisymmetry-reads", check_antisymmetry),
    ("minimal-implies-locally-minimal", check_minimal_implies_locally_minimal),
    ("minimal-closed-under-inclusion", check_minimal_closed_under_inclusion),
    ("local-to-global-coboundaries", check_local_to_global_coboundaries),
    ("repair-procedure", check_repair_procedure),
    ("coset-invariance", check_coset_invariance),
    ("epsilon-zero-iff-cohomology", check_epsilon_zero_iff_cohomology),
    ("small-set-implications", check_small_set_implications),
    ("corollary-chain", check_corollary_chain),
    ("skeleton-alpha", check_skeleton_alpha),
    ("good-links-constants", check_good_links_constants),
    ("fat-face-bound", check_fat_face_bound),
    ("ladder-monotonicity", check_ladder_monotonicity),
    ("bad-face-bound", check_bad_face_bound),
    ("links-inequality", check_links_inequality),
    ("good-dimension-witness", check_good_dimension_witness),
    ("building-axioms", check_building_axioms),
    ("chain-family-identity", check_chain_family_identity),
    ("homotopy-identity", check_homotopy_identity),
    ("contraction-distance-bound", check_contraction_distance_bound),
    ("symmetry-bounds", check_symmetry_bounds),
    ("building-epsilon", check_building_epsilon),
    ("building-cohomology", check_building_cohomology),
    ("matrix-complex-identity", check_matrix_complex_identity),
    ("snf-transforms", check_snf_transforms),
    ("uct-all-bundled", check_uct_all_bundled),
    ("relabel-invariance", check_relabel_invariance),
    ("minimal-representatives", check_minimal_representatives),
    ("component-lattice", check_component_lattice),
    ("cosystole-vs-lattice", check_cosystole_vs_lattice),
]


def run_verify(seed=0, names_filter=None):
    results = []
    for name, fn in CHECKS:
        if names_filter and name not in names_filter:
            continue
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash counts as a failure, with context
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(ok), detail))
    return results
