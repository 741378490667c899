import dataclasses
import random
import re
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from hdx import building, cosets, errors, intmat
from hdx import gf as gf_module
from hdx.building import (
    ChainFamily,
    _face_orbits,
    _in_intersections,
    _integer_family_at,
    _summed_totals,
    beta_constants,
    build_building,
    building_expansion_audit,
    chain_family,
    chamber_transport,
    cone_norms,
    contraction,
    generator_actions,
    homotopy_failure,
    intersection_complex,
    solve_boundary,
    symmetry_checks,
    verify_building_axioms,
)
from hdx.cochains import (
    COBOUNDARIES,
    Chain,
    Cochain,
    boundary,
    coboundary,
    delta_matrix,
    distance,
    evaluate,
    perm_sign,
    random_cochain,
)
from hdx.gf import GF, all_subspaces, rref, subspace_tables, subspace_token
from hdx.rings import INTEGERS, prime_field
from test_intmat import smith_solve_columns
from dense import transpose

F2 = prime_field(2)
F3 = prime_field(3)


@pytest.fixture(scope="module")
def fano():
    return build_building(3, 2)


# -- finite fields -----------------------------------------------------------------


def test_gf_prime_and_prime_power():
    g4 = GF(4)
    # multiplicative group has order 3: every nonzero cube is 1
    for a in range(1, 4):
        assert g4.mul(a, g4.mul(a, a)) == 1
        assert g4.mul(a, g4.inv(a)) == 1
    g9 = GF(9)
    for a in range(1, 9):
        assert g9.mul(a, g9.inv(a)) == 1
    with pytest.raises(errors.NotPrimePower):
        GF(6)
    with pytest.raises(errors.NotPrimePower):
        GF(12)


def test_subspace_counts_by_direct_enumeration():
    # oracle: distinct row spaces of all nonzero vectors of F_2^3
    g = GF(2)
    spans = {rref(g, [list(v)]) for v in product(range(2), repeat=3) if any(v)}
    assert len(spans) == 7
    assert len(all_subspaces(g, 3, 1)) == 7
    assert len(all_subspaces(g, 3, 2)) == 7
    g3 = GF(3)
    assert len(all_subspaces(g3, 3, 1)) == 13
    assert len(all_subspaces(g3, 3, 2)) == 13
    g2 = GF(2)
    assert len(all_subspaces(g2, 4, 2)) == 35


def row_space_contains(gf, basis, vec) -> bool:
    """Whether vec reduces to zero against an RREF basis."""
    v = list(vec)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            c = v[lead]
            v = [gf.sub(x, gf.mul(c, y)) for x, y in zip(v, row)]
    return not any(v)


def subspace_le(gf, U, W) -> bool:
    """Whether the subspace with RREF basis U sits inside the one of W: the
    reference for the covering relation of `subspace_tables`."""
    return all(row_space_contains(gf, W, u) for u in U)


def span_of_union(gf, bases):
    """Canonical RREF basis of the span of several subspace bases; the
    reference for build_building's memoised joins."""
    return rref(gf, [row for b in bases for row in b])


def token_subspace(token):
    """The RREF basis serialized by subspace_token."""
    assert token.startswith("S[") and token.endswith("]")
    return tuple(tuple(int(c, 16) for c in row) for row in token[2:-1].split(";"))


def test_subspace_token_roundtrip():
    g = GF(3)
    for s in all_subspaces(g, 3, 2)[:5]:
        assert token_subspace(subspace_token(s)) == s


# -- construction --------------------------------------------------------------------


def test_fano_building_counts(fano):
    X = fano.complex
    assert X.dim == 1
    assert len(X.faces(0)) == 14
    assert len(X.faces(1)) == 21
    assert len(fano.frames) == 28
    assert fano.theta == 12


def test_3_3_building_counts():
    B = build_building(3, 3)
    assert len(B.complex.faces(0)) == 26
    assert len(B.complex.faces(1)) == 52
    assert B.theta == 12


def test_maximal_flag_length(fano):
    for f in fano.complex.top_faces:
        assert len(f) == 2  # flags in F_q^3 hold one line and one plane


def test_too_large_building_rejected():
    with pytest.raises(errors.TooLarge):
        build_building(4, 3)


@pytest.mark.parametrize("n,q,message", [
    (5, 2, "building (5,2) has 372 vertices and 9765 maximal flags, over the cap 400"),
    (4, 3, "building (4,3) has 210 vertices and 2080 maximal flags, over the cap 400"),
    (6, 2, "building (6,2) has 2823 vertices and 615195 maximal flags, over the cap 400"),
    (4, 5, "building (4,5) has 1118 vertices and 29016 maximal flags, over the cap 400"),
])
def test_building_cap_refuses_before_enumerating(n, q, message):
    # the counts are Gaussian binomials and the q-factorial, taken before any
    # subspace or flag is listed, so a refusal costs a few integer products
    start = time.perf_counter()
    with pytest.raises(errors.TooLarge) as refused:
        build_building(n, q)
    assert time.perf_counter() - start < 0.1
    assert str(refused.value) == message


def test_building_cap_comes_after_the_field():
    with pytest.raises(errors.NotPrimePower):
        build_building(3, 6)


@pytest.mark.parametrize("q", [1, 0, -3])
def test_building_refuses_a_field_size_below_two(q):
    # q - 1 divides the counts, so q < 2 is refused before them
    with pytest.raises(errors.NotPrimePower, match=f"{q} is not a prime power"):
        build_building(3, q)


def test_building_cap_refuses_a_large_prime_before_building_its_field():
    # GF(1000003) would take a factorisation and 10^12 table entries
    start = time.perf_counter()
    with pytest.raises(errors.TooLarge):
        build_building(3, 1000003)
    assert time.perf_counter() - start < 0.1


def test_apartments_are_hexagons(fano):
    for apt in fano.apartments:
        assert sum(1 for f in apt if len(f) == 1) == 6
        assert sum(1 for f in apt if len(f) == 2) == 6
        assert len(apt) == 12


def test_apartments_are_tuples_of_theta_distinct_faces(fano, b42):
    for B in (fano, build_building(3, 3), b42):
        faces = {f for k in range(0, B.complex.dim + 1) for f in B.complex.faces(k)}
        for apt in B.apartments:
            assert type(apt) is tuple
            assert len(apt) == len(set(apt)) == B.theta
            assert set(apt) <= faces


def test_build_refuses_an_apartment_with_a_repeated_face(monkeypatch):
    # a model list naming one chain twice gives each apartment theta entries
    # but one face fewer
    chains = building.subset_chains
    monkeypatch.setattr(building, "subset_chains", lambda n: chains(n) + chains(n)[:1])
    with pytest.raises(errors.PropertyViolation):
        build_building(3, 2)


def test_axioms_fail_on_an_apartment_with_a_repeated_face(fano):
    # same length as every other apartment, one face fewer
    apt, *rest = fano.apartments
    B = dataclasses.replace(fano, apartments=[apt[:-1] + apt[:1], *rest], cache={})
    with pytest.raises(errors.PropertyViolation):
        verify_building_axioms(B)


def test_axioms_fail_on_an_apartment_that_is_not_its_chambers_closure(fano):
    # swap one vertex of apartment 0 for a vertex outside it: theta distinct
    # faces still, and every pair of faces still shares an apartment
    apt, *rest = fano.apartments
    i = next(i for i, f in enumerate(apt) if len(f) == 1)
    outside = next(v for v in fano.complex.faces(0) if v not in apt)
    B = dataclasses.replace(
        fano, apartments=[apt[:i] + (outside,) + apt[i + 1:], *rest], cache={}
    )
    with pytest.raises(errors.PropertyViolation, match="closure of its chambers"):
        verify_building_axioms(B)


def test_building_axioms(fano):
    assert verify_building_axioms(fano)


def test_axioms_read_the_apartment_words_of_the_buildings_own_apartments(fano):
    # genuine apartments only, so sizes and closures hold: leaving out every
    # apartment through the vertex v leaves v in none, and leaving out every
    # apartment through two lines leaves them sharing none
    X = fano.complex
    v = X.faces(0)[0]
    without_v = [apt for apt in fano.apartments if v not in apt]
    with pytest.raises(errors.PropertyViolation, match=re.escape(f"face {v} lies in no apartment")):
        verify_building_axioms(dataclasses.replace(fano, apartments=without_v, cache={}))
    u, w = ("S[010]",), ("S[011]",)  # two lines, next to each other in face order
    assert X.faces(0).index(w) == X.faces(0).index(u) + 1
    apart = [apt for apt in fano.apartments if not (u in apt and w in apt)]
    message = re.escape(f"faces {u} and {w} share no apartment")
    with pytest.raises(errors.PropertyViolation, match=message):
        verify_building_axioms(dataclasses.replace(fano, apartments=apart, cache={}))


def model_apartment_size(n):
    """Nonempty chains of proper nonempty subsets of an n-set, counted by recursion."""
    subsets = [s for r in range(1, n) for s in combinations(range(n), r)]
    count = 0

    def extend(last_idx):
        nonlocal count
        for j in range(len(subsets)):
            if set(subsets[last_idx]) < set(subsets[j]):
                count += 1
                extend(j)

    for i in range(len(subsets)):
        count += 1
        extend(i)
    return count


def recursive_apartments(B):
    """Each frame's apartment, as the set of its faces, rebuilt by recursing over
    chains of its span tokens; the reference for build_building's one shared
    list of index-subset chains."""
    n, gf = B.n, B.gf
    out = []
    for frame in B.frames:
        combo = [B.subspace_of[t] for t in frame]
        span_token = {}
        for r in range(1, n):
            for subset in combinations(range(n), r):
                basis = span_of_union(gf, [combo[i] for i in subset])
                span_token[subset] = subspace_token(basis)
        faces = set()

        def chains(prefix, last):
            faces.add(tuple(sorted(span_token[s] for s in prefix)))
            for nxt in span_token:
                if len(nxt) > len(last) and set(last) < set(nxt):
                    chains(prefix + [nxt], nxt)

        for s in span_token:
            chains([s], s)
        out.append(faces)
    return out


def test_apartments_match_per_frame_recursion(fano, b42):
    for B in (fano, build_building(3, 3), b42):
        assert B.theta == model_apartment_size(B.n)
        assert [set(apt) for apt in B.apartments] == recursive_apartments(B)


def per_subset_building(n, q):
    """(frames, apartments, subspace_of, top_faces) by the direct construction:
    one echelon form per n-set of lines for the frame test and one span_of_union
    per index subset per frame; the reference for build_building's memoised
    joins, order included."""
    gf = GF(q)
    by_rank = {r: all_subspaces(gf, n, r) for r in range(1, n)}
    tokens = {s: subspace_token(s) for subs in by_rank.values() for s in subs}
    flags = []

    def extend(chain, r):
        if r == n:
            flags.append(tuple(tokens[s] for s in chain))
            return
        for s in by_rank[r]:
            if subspace_le(gf, chain[-1], s):
                extend(chain + [s], r + 1)

    for s in by_rank[1]:
        extend([s], 2)
    top_faces = tuple(sorted(tuple(sorted(f)) for f in flags))
    frames, apartments = [], []
    model_chains = building.subset_chains(n)
    for combo in combinations(by_rank[1], n):
        if len(rref(gf, [row for basis in combo for row in basis])) != n:
            continue
        frames.append(tuple(sorted(tokens[s] for s in combo)))
        span_token = {}
        for r in range(1, n):
            for subset in combinations(range(n), r):
                span_token[subset] = tokens[span_of_union(gf, [combo[i] for i in subset])]
        apartments.append(tuple(
            tuple(sorted(span_token[s] for s in chain)) for chain in model_chains
        ))
    subspace_of = {t: s for s, t in tokens.items()}
    return frames, apartments, subspace_of, top_faces


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_build_matches_per_subset_spans_in_order(n, q):
    B = build_building(n, q)
    frames, apartments, subspace_of, top_faces = per_subset_building(n, q)
    assert B.frames == frames
    assert B.apartments == apartments
    assert B.subspace_of == subspace_of
    assert B.complex.top_faces == top_faces


def test_build_takes_no_echelon_form_and_shares_faces(monkeypatch):
    calls = []
    monkeypatch.setattr(gf_module, "rref", lambda *args: calls.append(args))
    B = build_building(4, 2)
    assert calls == [] and not hasattr(building, "rref")
    X = B.complex
    # every apartment holds X's own face objects, one per face
    faces = [f for k in range(0, X.dim + 1) for f in X.faces(k)]
    assert len({id(f) for apt in B.apartments for f in apt}) == len(faces) == 695
    assert {id(f) for apt in B.apartments for f in apt} == {id(f) for f in faces}


@pytest.mark.parametrize("n,q", [(3, 2), (3, 4), (4, 2)])
def test_subspace_tables_match_echelon_forms(n, q):
    gf = GF(q)
    bases, lines, up, join = subspace_tables(gf, n)
    assert bases == [s for r in range(1, n) for s in all_subspaces(gf, n, r)]
    number = {s: i for i, s in enumerate(bases)}
    n_lines = (q ** n - 1) // (q - 1)
    assert lines.shape == join.shape == (len(bases), n_lines)
    for U, basis in enumerate(bases):
        assert lines[U].tolist() == [subspace_le(gf, bases[line], basis) for line in range(n_lines)]
        assert up[U] == [W for W, other in enumerate(bases)
                         if len(other) == len(basis) + 1 and subspace_le(gf, basis, other)]
        for line in range(n_lines):
            span = span_of_union(gf, [basis, bases[line]])
            assert join[U, line] == number.get(span, len(bases))
            assert len(span) < n or join[U, line] == len(bases)


# -- intersections and filling ----------------------------------------------------------


class Subcomplex:
    """A downward-closed family of faces of an ambient complex: the sorted
    face tuple per dimension and face membership, which is what
    `delta_matrix` and `subcomplex_solve` read. Apartment intersections need
    not be pure, so they are no SimplicialComplex."""

    def __init__(self, faces):
        by_dim = {-1: {()}}
        for f in faces:
            by_dim.setdefault(len(f) - 1, set()).add(f)
        self._faces = {k: tuple(sorted(v)) for k, v in by_dim.items()}
        self.dim = max(self._faces)

    def faces(self, k):
        return self._faces.get(k, ())

    def has_face(self, f):
        return f in self._faces.get(len(f) - 1, ())

    def __eq__(self, other):
        return isinstance(other, Subcomplex) and self._faces == other._faces

    def __repr__(self):
        counts = ", ".join(f"{k}:{len(v)}" for k, v in sorted(self._faces.items()))
        return f"Subcomplex({{{counts}}})"


_SCANNED = [None, None]  # the apartment list scanned last, and its apartments as sets


def scanned_intersection(B, sigma, tau):
    """A_{sigma,tau}, the intersection of every apartment containing sigma and
    tau, as a Subcomplex of faces, found by asking every apartment's tuple of
    faces: the reference for building._in_intersections and its packed words."""
    if _SCANNED[0] is not B.apartments:
        _SCANNED[:] = B.apartments, [set(a) for a in B.apartments]
    hits = [a for a in _SCANNED[1] if sigma in a and (tau == () or tau in a)]
    return Subcomplex(set.intersection(*hits))


def subcomplex_solve(K, c, solve=smith_solve_columns):
    """An integer chain one dimension up whose boundary is c, inside K, from
    one Smith form of K's transposed coboundary, or from another solve of the
    dense system: the reference for the face index and sparse unit-pivot
    route of building.solve_boundary."""
    i = c.dim
    if i >= 0 and not boundary(c).is_zero():
        raise errors.PropertyViolation("target chain has nonzero boundary")
    for f in c.support:
        if not K.has_face(f):
            raise errors.PropertyViolation(f"{f} is outside the subcomplex")
    rows, cols = K.faces(i), K.faces(i + 1)
    b = [c.coeffs.get(f, 0) for f in rows]
    if not cols:
        if any(b):
            raise errors.PropertyViolation("no faces one dimension up")
        return Chain(INTEGERS, i + 1, {})
    x = solve(transpose(delta_matrix(K, i)), [b])[0]
    if x is None:
        raise errors.PropertyViolation(f"boundary equation unsolvable at dimension {i}")
    return Chain(INTEGERS, i + 1, dict(zip(cols, x)))


def family_identity_target(entries, ring, sigma, tau):
    """(-1)^{k+1} tau + sum_i (-1)^i c_{sigma,tau_i}; the empty face when tau = ()."""
    coeffs = {tau: (-1) ** len(tau)}
    for i in range(len(tau)):
        for f, v in entries[(sigma, tau[:i] + tau[i + 1:])].coeffs.items():
            coeffs[f] = coeffs.get(f, 0) + (-v if i % 2 else v)
    return Chain(ring, len(tau) - 1, coeffs)


def oracle_family_at(B, sigma, solve=smith_solve_columns):
    """sigma's integer family as Chains, one Subcomplex and one subcomplex_solve
    per tau, based at the least vertex of A_{sigma,()}."""
    X = B.complex
    base = scanned_intersection(B, sigma, ()).faces(0)[0]
    entries = {(sigma, ()): Chain(INTEGERS, 0, {base: 1})}
    for k in range(0, X.dim):
        for tau in X.faces(k):
            target = family_identity_target(entries, INTEGERS, sigma, tau)
            K = scanned_intersection(B, sigma, tau)
            entries[(sigma, tau)] = subcomplex_solve(K, target, solve)
    return entries


def as_triplets(B, entries, sigma):
    """k -> int64 (tau, face, coeff) arrays of sigma's entries, tau over
    X.faces(k), tau and face as positions at levels k and k+1."""
    index = building._face_index(B)
    out = {}
    for k in range(-1, B.dim):
        rows = [(t, index[k + 1].pos[f], v) for t, tau in enumerate(index[k].faces)
                for f, v in entries[(sigma, tau)].coeffs.items()]
        out[k] = np.array(rows, dtype=np.int64).reshape(len(rows), 3).T
    return out


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_sigma0_family_matches_the_subcomplex_filling(n, q):
    # the same entries, faces and coefficient order as the object route
    B = build_building(n, q)
    sigma0 = B.complex.top_faces[0]
    got = _integer_family_at(B, sigma0)
    want = as_triplets(B, oracle_family_at(B, sigma0), sigma0)
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k])


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_sigma0_family_matches_the_per_pair_dense_solve(n, q):
    # the blocks of tables and the stacked int64 solve give the triplets of
    # one Subcomplex and one dense intmat.solve_int per (sigma_0, tau) pair
    B = build_building(n, q)
    sigma0 = B.complex.top_faces[0]

    def dense_solve(M, bs):
        return [intmat.solve_int(M, b) for b in bs]

    got = _integer_family_at(B, sigma0)
    want = as_triplets(B, oracle_family_at(B, sigma0, dense_solve), sigma0)
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == np.int64 and np.array_equal(got[k], want[k])


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_cold_family_reads_one_intersection_table_per_level(n, q, monkeypatch):
    # sigma_0's solve asks about the empty face, then about each level 0..d-1
    # in consecutive blocks of building._TAUS faces: one read per block, none
    # per tau; transport and a warm family read none
    B = build_building(n, q)
    X = B.complex
    calls = []

    def counted(B, sigma, taus, level=None):
        calls.append((sigma, tuple(taus), level))
        return _in_intersections(B, sigma, taus, level)

    monkeypatch.setattr(building, "_in_intersections", counted)
    chain_family(B, INTEGERS, tops=X.top_faces[:16])
    block = building._TAUS
    assert calls == [(X.top_faces[0], faces[lo:lo + block], None)
                     for faces in [((),)] + [X.faces(k) for k in range(X.dim)]
                     for lo in range(0, len(faces), block)]
    assert len(calls) == 1 + sum(-(-len(X.faces(k)) // block) for k in range(X.dim))
    assert len(calls) < len(X.faces(0)) + 1
    calls.clear()
    chain_family(B, F2)
    chain_family(B, INTEGERS, tops=X.top_faces[-3:])
    assert calls == []


# sha256 prefixes of every entry of chain_family, read as (key, coefficient
# items) in iteration order, from the per-pair solve this tree replaced
FAMILY_DIGESTS = {
    (3, 2): ["dba408d4dba4730a", "5d6f4071a9143360", "fb0fc2168aa419ac", "cf9b42e31cf635e0",
             "c556ed68c6050e2b"],
    (3, 3): ["548f562fa09495f6", "9d4e5b5ee559d27a", "fdbfa35be19bf65f", "19fd6f08c650ae78",
             "c97841e652f706ff"],
    (3, 4): ["8086969c5cd44fad", "2bf74498ad7ba7c1", "b4d929e54fee680f", "8f5f9cab783c7ed7",
             "78236c2bf0b38a9c"],
    (4, 2): ["b60d0cf6aab54851", "a991da78f73ffe6a", "1197d4c2782a2986", "f5b0433422e4ad17",
             "9237b3dca421a7af"],
}


@pytest.mark.parametrize("n,q", sorted(FAMILY_DIGESTS))
def test_chain_family_hashes_as_before(n, q):
    # every chamber but on B(4,2), where 16 sampled ones, over Z, F2, F3, Z/4 and Z/6
    import hashlib

    from hdx.rings import parse_ring

    B = build_building(n, q)
    tops = random.Random(41).sample(B.complex.top_faces, 16) if (n, q) == (4, 2) else None
    got = []
    for ringname in ["Z", "F2", "F3", "Z/4", "Z/6"]:
        fam = chain_family(B, parse_ring(ringname), tops=tops)
        items = repr([(key, list(fam[key].coeffs.items())) for key in fam]).encode()
        got.append(hashlib.sha256(items).hexdigest()[:16])
    assert got == FAMILY_DIGESTS[n, q]


def test_face_index_solve_matches_the_subcomplex_solve(fano, b42):
    # random boundaries refilled in A_{sigma,tau} for a block of taus at once:
    # the stacked face index route gives each tau the filling of the Subcomplex
    # route with one dense intmat.solve_int, in ascending face order

    def dense_solve(M, bs):
        return [intmat.solve_int(M, b) for b in bs]

    rng = random.Random(53)
    for B in (fano, b42):
        X, index = B.complex, building._face_index(B)
        for _ in range(6):
            sigma, k = rng.choice(X.top_faces), rng.randrange(X.dim)
            taus = [rng.choice(X.faces(rng.randrange(-1, X.dim))) for _ in range(rng.randint(1, 5))]
            table = intersection_complex(B, sigma, taus)
            target = np.zeros((len(taus), len(index[k].faces)), dtype=np.int64)
            cycles = []
            for t, tau in enumerate(taus):
                up = {index[k + 1].faces[p]: rng.randint(-3, 3)
                      for p in np.flatnonzero(table[k + 1][t])}
                cycles.append(boundary(Chain(INTEGERS, k + 1, up)))
                for f, v in cycles[-1].coeffs.items():
                    target[t, index[k].pos[f]] = v
            (tau_at, face, coeff), solved = solve_boundary(B, table, k, target)
            assert solved.tolist() == [True] * len(taus)
            assert tau_at.tolist() == sorted(tau_at.tolist())
            for t, (tau, cycle) in enumerate(zip(taus, cycles)):
                got = face[tau_at == t].tolist()
                assert got == sorted(got)
                filled = Chain(INTEGERS, k + 1, {index[k + 1].faces[p]: int(v)
                                                 for p, v in zip(got, coeff[tau_at == t])})
                assert boundary(filled) == cycle
                want = subcomplex_solve(scanned_intersection(B, sigma, tau), cycle, dense_solve)
                assert filled == want


def test_solve_boundary_reports_unsolvable_targets(fano):
    # a lone vertex is no boundary: its tau is unsolved, the others are filled
    X, index = fano.complex, building._face_index(fano)
    sigma = X.top_faces[0]
    taus = [(), sigma[:1], sigma]
    table = intersection_complex(fano, sigma, taus)
    target = np.zeros((3, len(index[0].faces)), dtype=np.int64)
    target[1, index[0].pos[sigma[:1]]] = 1
    edge = Chain(INTEGERS, 1, {sigma: 1})
    for f, v in boundary(edge).coeffs.items():
        target[2, index[0].pos[f]] = v
    (tau_at, face, coeff), solved = solve_boundary(fano, table, 0, target)
    assert solved.tolist() == [True, False, True]
    assert tau_at.tolist() == [2] and face.tolist() == [index[1].pos[sigma]]
    assert coeff.tolist() == [1]


@pytest.mark.parametrize("tamper,message", [
    ("skew", "is not a cycle"), ("refuse", "has no filling"),
])
def test_sigma0_solve_failures_are_property_violations(b42, monkeypatch, tamper, message):
    # the first vertex's filling one face off makes the targets of its edges
    # no cycles, the least edge through it first; an unsolvable system is a
    # construction bug as well, reported at the least tau, the first vertex
    solve, calls = cosets.unit_solve_stack, []

    def tampered(A):
        calls.append(A.shape)
        X, solved = solve(A)
        if tamper == "skew" and len(calls) == 1:
            X[0, 0] += 1
        return X, solved & (tamper != "refuse")

    monkeypatch.setattr(cosets, "unit_solve_stack", tampered)
    X = b42.complex
    vertex = X.faces(0)[0]
    tau = vertex if tamper == "refuse" else next(e for e in X.faces(1) if vertex[0] in e)
    with pytest.raises(errors.PropertyViolation, match=message) as got:
        chain_family(dataclasses.replace(b42, cache={}), INTEGERS)
    assert str(got.value) == f"family target for {(X.top_faces[0], tau)} {message}"


def dropping_least_vertex(B, sigma, taus, level=None):
    """_in_intersections with sigma_0's least vertex dropped from sigma_0's
    every-face rows at each tau other than () and that vertex; patched over
    building._in_intersections, it reads the import of this module."""
    inside = _in_intersections(B, sigma, taus, level)
    if sigma == B.complex.top_faces[0] and level is None:
        at = building._apartment_words(B)[1][sigma[:1]]
        inside[[tau not in ((), sigma[:1]) for tau in taus], at] = False
    return inside


def test_sigma0_target_outside_its_domain_is_a_property_violation(fano, monkeypatch):
    # sigma_0's least vertex dropped from its domains at the other vertices
    monkeypatch.setattr(building, "_in_intersections", dropping_least_vertex)
    with pytest.raises(errors.PropertyViolation, match="family target .* leaves its domain"):
        chain_family(dataclasses.replace(fano, cache={}), INTEGERS)


def test_intersection_contains_sigma_and_monotone(fano):
    X = fano.complex
    for sigma in X.top_faces:
        A0 = scanned_intersection(fano, sigma, ())
        assert A0.has_face(sigma)
        for tau in X.faces(0):
            A1 = scanned_intersection(fano, sigma, tau)
            assert all(A1.has_face(f) for k in range(0, X.dim + 1) for f in A0.faces(k))
            assert A1.has_face(tau)


def assert_same_intersections(B, sigma, taus):
    # each row of the level-wide table against the apartment scan of its pair
    index = building._face_index(B)
    table = intersection_complex(B, sigma, taus)
    assert sorted(table) == list(range(-1, B.complex.dim + 1))
    for t, tau in enumerate(taus):
        want = scanned_intersection(B, sigma, tau)
        assert table[-1][t].tolist() == [True]
        for k in range(0, B.complex.dim + 1):
            assert table[k].shape == (len(taus), len(index[k].faces))
            assert [index[k].faces[p] for p in np.flatnonzero(table[k][t])] == list(want.faces(k))


def test_intersection_matches_apartment_scan_everywhere(fano):
    X = fano.complex
    for sigma in X.top_faces:
        for k in range(-1, X.dim + 1):
            assert_same_intersections(fano, sigma, X.faces(k))


def test_intersection_matches_apartment_scan_sampled(b42):
    rng = random.Random(31)
    for B, pairs in ((build_building(3, 3), 200), (b42, 100)):
        X = B.complex
        faces = [()] + [f for k in range(0, X.dim + 1) for f in X.faces(k)]
        for _ in range(pairs):
            assert_same_intersections(B, rng.choice(X.top_faces), [rng.choice(faces)])
        # one table over faces of mixed levels
        assert_same_intersections(B, rng.choice(X.top_faces), rng.sample(faces, 40))


def test_axioms_fail_with_too_few_apartments(fano):
    B = dataclasses.replace(fano, apartments=fano.apartments[:1], cache={})
    with pytest.raises(errors.PropertyViolation):
        verify_building_axioms(B)


def test_solve_boundary_zero_and_single_face(fano):
    X = fano.complex
    sigma = X.top_faces[0]
    K = scanned_intersection(fano, sigma, sigma[:1])
    z = Chain(INTEGERS, 0, {})
    assert subcomplex_solve(K, z).is_zero()
    face = K.faces(1)[0]
    c = boundary(Chain(INTEGERS, 1, {face: 1}))
    c2 = subcomplex_solve(K, c)
    assert boundary(c2) == c


def test_solve_boundary_random_cycles(fano):
    X = fano.complex
    rng = random.Random(11)
    for _ in range(20):
        sigma = rng.choice(X.top_faces)
        tau = rng.choice(X.faces(0) + ((),))
        K = scanned_intersection(fano, sigma, tau)
        edges = K.faces(1)
        if not edges:
            continue
        coeffs = {e: rng.randint(-3, 3) for e in edges}
        cycle = boundary(Chain(INTEGERS, 1, coeffs))
        # boundary of a chain is a cycle; refill it inside K
        filled = subcomplex_solve(K, cycle)
        assert boundary(filled) == cycle


def test_solve_boundary_rejects_non_cycle(fano):
    X = fano.complex
    sigma = X.top_faces[0]
    K = scanned_intersection(fano, sigma, ())
    v = K.faces(0)[0]
    # a single vertex has augmentation 1, so it is not a cycle
    with pytest.raises(errors.PropertyViolation, match="nonzero boundary"):
        subcomplex_solve(K, Chain(INTEGERS, 0, {v: 1}))
    # the difference of two vertices is a cycle and fills inside K
    if len(K.faces(0)) >= 2:
        u, w = K.faces(0)[0], K.faces(0)[1]
        c = Chain(INTEGERS, 0, {u: 1, w: -1})
        filled = subcomplex_solve(K, c)
        assert boundary(filled) == c


def test_no_solution_without_higher_faces():
    K = Subcomplex([("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")])
    cycle = Chain(INTEGERS, 1, {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): -1})
    assert boundary(cycle).is_zero()
    with pytest.raises(errors.PropertyViolation, match="no faces one dimension up"):
        subcomplex_solve(K, cycle)


# -- chain family and contraction ----------------------------------------------------------


def test_chain_family_base_case(fano):
    fam = chain_family(fano, INTEGERS)
    X = fano.complex
    transport = dict(zip(X.top_faces, token_actions(fano, chamber_transport(fano))))
    sigma0 = X.top_faces[0]
    # sigma_0's base point is the least vertex of its intersection, sigma_0 itself
    v0 = sigma0[0]
    assert scanned_intersection(fano, sigma0, ()).faces(0)[0] == (v0,)
    for sigma in X.top_faces:
        c = fam[(sigma, ())]
        assert boundary(c).coeffs == {(): 1}
        assert len(c.coeffs) == 1
        # every other base point is v0 moved along the Schreier tree
        base = transport[sigma][v0]
        assert base in sigma
        assert list(c.coeffs) == [(base,)]


@pytest.mark.parametrize("ringname", ["Z", "F2", "F3", "Z/6"])
def test_chain_family_identity_every_entry(fano, ringname):
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    fam = chain_family(fano, ring)  # construction re-verifies the identity
    X = fano.complex
    # spot-check the identity shape explicitly at k = 0
    sigma = X.top_faces[0]
    for tau in X.faces(0)[:4]:
        got = boundary(fam[(sigma, tau)])
        want = Chain(ring, 0, {tau: (-1) ** 1}) + fam[(sigma, ())]
        assert got == want


def test_chain_family_supports_in_intersections(fano):
    fam = chain_family(fano, INTEGERS)
    X = fano.complex
    for sigma in X.top_faces[:5]:
        for tau in X.faces(0):
            K = scanned_intersection(fano, sigma, tau)
            for face in fam[(sigma, tau)].support:
                assert K.has_face(face)


def test_chain_family_rejects_non_chambers(fano):
    with pytest.raises(errors.FaceNotInComplex):
        chain_family(dataclasses.replace(fano, cache={}), INTEGERS, tops=[("x", "y")])


def test_contraction_needs_entries_at_sigma(fano):
    X = fano.complex
    fam = chain_family(fano, F2, tops=[X.top_faces[0]])
    f = random_cochain(X, F2, 1, random.Random(5))
    with pytest.raises(errors.FaceNotInComplex, match=re.escape(str(X.top_faces[1]))):
        contraction(fam, X.top_faces[1], f)


def test_contraction_zero(fano):
    X = fano.complex
    fam = chain_family(fano, F3)
    f = Cochain.zero(X, F3, 1)
    assert contraction(fam, X.top_faces[0], f).is_zero()


@pytest.mark.parametrize("ringname", ["Z", "F2", "F3"])
def test_homotopy_identity(fano, ringname):
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    X = fano.complex
    fam = chain_family(fano, ring)
    rng = random.Random(13)
    for _ in range(15):
        f = random_cochain(X, ring, 0, rng)
        for sigma in X.top_faces:
            lhs = coboundary(contraction(fam, sigma, f)) + contraction(fam, sigma, coboundary(f))
            assert lhs == f


def restated_homotopy_failure(B, fam, f):
    ring = f.ring
    for sigma in B.complex.top_faces:
        down = contraction(fam, sigma, f)
        up = contraction(fam, sigma, coboundary(f))
        faces = B.complex.faces(f.dim)
        if any(ring.reduce(coboundary(down)(t) + up(t) - f(t)) for t in faces):
            return sigma
    return None


@pytest.mark.parametrize("ringname", ["Z", "F2", "F3"])
def test_homotopy_failure_matches_restatement(fano, ringname):
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    fam = chain_family(fano, ring)
    rng = random.Random(17)
    for _ in range(6):
        f = random_cochain(fano.complex, ring, 0, rng)
        assert homotopy_failure(fam, f) is None
        assert restated_homotopy_failure(fano, fam, f) is None


@pytest.mark.parametrize("ringname", ["Z", "F3"])
def test_homotopy_failure_names_the_chamber_of_a_tampered_coefficient(fano, ringname):
    # one more edge e in c_{sigma, tau} for a vertex tau moves
    # (iota_sigma delta f)(tau) by delta f(e) = 1 when f is the indicator of e's
    # last vertex; every other chamber keeps its identity
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    X = fano.complex
    fam = chain_family(fano, ring)
    sigma, tau, e = X.top_faces[5], X.faces(0)[3], X.faces(1)[0]
    tampered = tampered_entry(fam, sigma, tau, e)
    f = Cochain(X, ring, 0, {(e[1],): 1})
    assert restated_homotopy_failure(fano, tampered, f) == sigma
    assert homotopy_failure(tampered, f) == sigma
    assert homotopy_failure(fam, f) is None


def tampered_entry(fam, sigma, tau, e):
    """fam with one more edge e in c_{sigma,tau}: one more triplet, with
    coefficient 1 in sigma's row and 0 in every other row."""
    index, rows = building._face_index(fam.building), len(fam.tops)
    taus, t, face, coeff = fam.moved[0]
    mark = np.zeros((rows, 1), dtype=np.int64)
    mark[fam.tops.index(sigma)] = 1
    moved = {**fam.moved, 0: (taus, np.hstack([t, np.full((rows, 1), index[0].pos[tau])]),
                              np.hstack([face, np.full((rows, 1), index[1].pos[e])]),
                              np.hstack([coeff, mark]))}
    return ChainFamily(fam.building, fam.ring, fam.tops, moved, fam.norm + 1)


@pytest.mark.parametrize("ringname", ["Z", "Z/4"])
def test_homotopy_failure_matches_restatement_on_3_3(b33, ringname):
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    X = b33.complex
    fam = chain_family(b33, ring)
    rng = random.Random(47)
    cochains = [random_cochain(X, ring, 0, rng) for _ in range(4)]
    for f in cochains:
        assert homotopy_failure(fam, f) is None
        assert restated_homotopy_failure(b33, fam, f) is None
    e = X.faces(1)[2]
    cochains.append(Cochain(X, ring, 0, {(e[1],): 1}))
    for picks in ([30], [7, 30], [51, 9]):
        tampered = fam
        for i in picks:
            tampered = tampered_entry(tampered, X.top_faces[i], X.faces(0)[5], e)
        got = [homotopy_failure(tampered, f) for f in cochains]
        assert got == [restated_homotopy_failure(b33, tampered, f) for f in cochains]
        assert got[-1] == X.top_faces[min(picks)]


def test_homotopy_failure_reads_the_chambers_in_complex_order(b33):
    # a family over the chambers in reverse order: the first failing chamber
    # is still the first in X.top_faces order, as the restatement finds it
    X = b33.complex
    fam = chain_family(b33, INTEGERS, tops=X.top_faces[::-1])
    e = X.faces(1)[2]
    f = Cochain(X, INTEGERS, 0, {(e[1],): 1})
    assert homotopy_failure(fam, f) is None
    tampered = fam
    for i in (51, 9):
        tampered = tampered_entry(tampered, X.top_faces[i], X.faces(0)[5], e)
    assert homotopy_failure(tampered, f) == X.top_faces[9]
    assert restated_homotopy_failure(b33, tampered, f) == X.top_faces[9]


def test_homotopy_failure_refuses_sums_beyond_int64(fano):
    fam = chain_family(fano, INTEGERS)
    X = fano.complex
    f = Cochain(X, INTEGERS, 0, {X.faces(0)[0]: 2 ** 62})
    with pytest.raises(errors.SearchSpaceTooLarge, match="homotopy sums"):
        homotopy_failure(fam, f)
    assert homotopy_failure(fam, Cochain(X, INTEGERS, 0, {X.faces(0)[0]: 2 ** 40})) is None


def test_homotopy_failure_refuses_a_family_of_another_ring(fano):
    fam = chain_family(fano, F3)
    with pytest.raises(errors.RingMismatch):
        homotopy_failure(fam, Cochain.zero(fano.complex, F2, 0))


def test_beta_constants(fano, b42):
    # 1 / (2^d theta) and 1 / (theta C(d+1, k+2)): theta is 12 on (3,2), 74 on (4,2)
    assert beta_constants(fano) == (Fraction(1, 24), {0: Fraction(1, 12)})
    assert beta_constants(b42) == (
        Fraction(1, 296), {0: Fraction(1, 222), 1: Fraction(1, 74)}
    )


def test_contraction_defined_at_top_dimension(fano):
    # iota exists on C^d (it uses the chains at dimension d-1), even though
    # the homotopy identity only covers dimensions below the top
    X = fano.complex
    fam = chain_family(fano, F2)
    rng = random.Random(17)
    f = random_cochain(X, F2, 1, rng)
    g = contraction(fam, X.top_faces[0], f)
    assert g.dim == 0


def test_contraction_bounds_distance(fano):
    X = fano.complex
    fam = chain_family(fano, F2)
    rng = random.Random(19)
    for _ in range(15):
        f = random_cochain(X, F2, 0, rng)
        d, _ = distance(f, COBOUNDARIES)
        for sigma in X.top_faces:
            assert contraction(fam, sigma, coboundary(f)).norm() >= d


def oracle_contraction(fam, sigma, f):
    """iota_sigma f one face at a time: (-1)^k evaluate(f, c_{sigma,tau}) per
    (k-1)-face tau, each entry read from the family as a Chain."""
    X, k = fam.building.complex, f.dim
    return Cochain(X, f.ring, k - 1, {
        tau: (-1) ** k * evaluate(f, fam[(sigma, tau)]) for tau in X.faces(k - 1)
    })


@pytest.mark.parametrize("ringname", ["Z", "F2", "F3", "Z/4"])
@pytest.mark.parametrize("which", ["fano", "b42"])
def test_contraction_kernel_matches_the_evaluate_oracle(request, which, ringname):
    # every chamber of B(3,2), 16 sampled chambers of B(4,2), every k from 0
    # to d: one row through contraction, and every row at once, in reverse
    from hdx.rings import parse_ring

    B = request.getfixturevalue(which)
    ring, X = parse_ring(ringname), B.complex
    tops = random.Random(59).sample(X.top_faces, 16) if which == "b42" else None
    fam = chain_family(B, ring, tops=tops)
    rng = random.Random(61)
    for k in range(0, X.dim + 1):
        for _ in range(2):
            f = random_cochain(X, ring, k, rng)
            want = [oracle_contraction(fam, sigma, f) for sigma in fam.tops]
            assert [contraction(fam, sigma, f) for sigma in fam.tops] == want
            rows = list(range(len(fam.tops)))[::-1]
            fv = np.array([f.values.get(t, 0) for t in X.faces(k)], dtype=np.int64)
            got = building._iota(fam, rows, k, fv)
            faces = X.faces(k - 1)
            for c, values in zip(rows, got.tolist()):
                assert Cochain(X, ring, k - 1, dict(zip(faces, values))) == want[c]


def test_contraction_refuses_sums_beyond_int64(fano):
    fam = chain_family(fano, INTEGERS)
    X = fano.complex
    sigma = X.top_faces[4]
    f = Cochain(X, INTEGERS, 0, {X.faces(0)[0]: 2 ** 62})
    with pytest.raises(errors.SearchSpaceTooLarge, match="contraction sums"):
        contraction(fam, sigma, f)
    f = Cochain(X, INTEGERS, 1, {e: 2 ** 40 * (i - 10) for i, e in enumerate(X.faces(1))})
    assert contraction(fam, sigma, f) == oracle_contraction(fam, sigma, f)
    assert not contraction(fam, sigma, f).is_zero()


def test_contraction_reads_the_ring_of_its_family(fano):
    # an F2 cochain against an F3 family is refused, and the result is over
    # the family's ring
    X = fano.complex
    sigma = X.top_faces[0]
    f = random_cochain(X, F2, 1, random.Random(67))
    with pytest.raises(errors.RingMismatch):
        contraction(chain_family(fano, F3), sigma, f)
    g = contraction(chain_family(fano, F2), sigma, f)
    assert g.ring == F2 and g == oracle_contraction(chain_family(fano, F2), sigma, f)


def oracle_cone(fam, f):
    """(lhs, rhs) of the cone inequality one chamber at a time, as numerators
    over X.weight_denominator(k): ||iota_sigma(delta f)|| through the evaluate
    oracle, and sum_tau deg_top(tau) |supp(delta f) & A_{sigma,tau}| over the
    apartment scans of `scanned_intersection`."""
    B, X, k = fam.building, fam.building.complex, f.dim
    df, den = coboundary(f), X.weight_denominator(k)
    lhs = [oracle_contraction(fam, sigma, df).norm() * den for sigma in fam.tops]
    rhs = [sum(X.deg_top(tau) * sum(map(scanned_intersection(B, sigma, tau).has_face, df.support))
               for tau in X.faces(k)) for sigma in fam.tops]
    return lhs, rhs


@pytest.mark.parametrize("which,ringname", [
    ("fano", "Z"), ("fano", "F2"), ("fano", "F3"), ("fano", "Z/4"), ("b33", "F2"), ("b42", "Z"),
])
def test_cone_norms_match_the_per_chamber_oracle(request, which, ringname):
    # every chamber of B(3,2) and B(3,3); 16 chambers of B(4,2), in reverse
    # complex order, so each row of the weight table is read at its chamber
    from hdx.rings import parse_ring

    B = request.getfixturevalue(which)
    ring, X = parse_ring(ringname), B.complex
    tops = None
    if which == "b42":
        pos = {sigma: i for i, sigma in enumerate(X.top_faces)}
        tops = sorted(random.Random(71).sample(X.top_faces, 16), key=pos.get, reverse=True)
    fam = chain_family(B, ring, tops=tops)
    rng = random.Random(73)
    for k in range(0, X.dim):
        for _ in range(2):
            f = random_cochain(X, ring, k, rng)
            lhs, rhs = cone_norms(fam, f)
            assert lhs.dtype == rhs.dtype == np.int64
            assert (lhs.tolist(), rhs.tolist()) == oracle_cone(fam, f)
            assert (lhs <= rhs).all()
    assert ("cone_weights", X.dim - 1) in B.cache


@pytest.mark.parametrize("ringname", ["F2", "F3"])
@pytest.mark.parametrize("which", ["fano", "b33"])
def test_cone_witness_bounds_the_exact_distance(request, which, ringname):
    # g = iota_sigma(delta f) replays f - g == delta(iota_sigma f), so the
    # exact distance is at most ||g||, the cone inequality's left side
    B = request.getfixturevalue(which)
    ring, X = prime_field(int(ringname[1:])), B.complex
    fam = chain_family(B, ring)
    den = X.weight_denominator(0)
    rng = random.Random(79)
    for _ in range(3):
        f = random_cochain(X, ring, 0, rng)
        d, _ = distance(f, COBOUNDARIES)
        lhs, rhs = cone_norms(fam, f)
        for sigma, g_norm, bound in zip(fam.tops, lhs.tolist(), rhs.tolist()):
            g = contraction(fam, sigma, coboundary(f))
            assert f - g == coboundary(contraction(fam, sigma, f))
            assert d * den <= g.norm() * den == g_norm <= bound


def test_cone_norms_refuse_what_homotopy_failure_refuses(fano):
    X = fano.complex
    fam = chain_family(fano, INTEGERS)
    f = Cochain(X, INTEGERS, 0, {X.faces(0)[0]: 2 ** 62})
    with pytest.raises(errors.SearchSpaceTooLarge, match="cone sums"):
        cone_norms(fam, f)
    f = Cochain(X, INTEGERS, 0, {v: 2 ** 40 * (i - 7) for i, v in enumerate(X.faces(0))})
    lhs, rhs = cone_norms(fam, f)
    assert (lhs.tolist(), rhs.tolist()) == oracle_cone(fam, f) and lhs.any()
    with pytest.raises(errors.RingMismatch):
        cone_norms(chain_family(fano, F2), f)
    for k in (-1, 1):
        with pytest.raises(errors.DimensionOutOfRange):
            cone_norms(fam, Cochain.zero(X, INTEGERS, k))


def test_cone_norms_refuse_a_chamber_and_face_in_no_common_apartment():
    # apartments cut to one after the family is built: the words are packed
    # again from that one apartment, which misses most (sigma, tau) pairs
    B = build_building(3, 2)
    fam = chain_family(B, INTEGERS)
    B.apartments = B.apartments[:1]
    del B.cache["apartment_words"]
    f = random_cochain(B.complex, INTEGERS, 0, random.Random(83))
    with pytest.raises(errors.PropertyViolation, match="no apartment contains both"):
        cone_norms(fam, f)
    assert not B.cache[("cone_weights", 0)]


def test_cone_norms_build_one_weight_row_per_chamber_of_the_family(b42):
    # the rows are kept per (k, chamber): a 16-chamber family builds 16 per k,
    # each equal to the summed bound's T_0 expression at its chamber
    B = dataclasses.replace(b42, cache={})
    X = B.complex
    tops = random.Random(89).sample(X.top_faces, 16)
    fam = chain_family(B, INTEGERS, tops=tops)
    rng = random.Random(97)
    for k in range(0, X.dim):
        cone_norms(fam, random_cochain(X, INTEGERS, k, rng))
        rows = B.cache[("cone_weights", k)]
        assert list(rows) == tops
        sigma = tops[0]
        want = [sum(X.deg_top(tau) for tau in X.faces(k)
                    if scanned_intersection(B, sigma, tau).has_face(r)) for r in X.faces(k + 1)]
        assert rows[sigma].tolist() == want
    assert len(B.cache[("cone_weights", 0)]) == len(B.cache[("cone_weights", 1)]) == 16


def test_chain_family_of_no_chambers_and_of_repeated_chambers(fano):
    X = fano.complex
    empty = chain_family(fano, F2, tops=[])
    assert len(empty) == 0 and not empty.entries and list(empty) == []
    with pytest.raises(errors.FaceNotInComplex, match=re.escape(str(X.top_faces[0]))):
        homotopy_failure(empty, Cochain.zero(X, F2, 0))
    t = X.top_faces[3]
    twice = chain_family(fano, F2, tops=[t, t])
    assert len(twice) == len(twice.entries) == 15
    assert_same_entries(twice, chain_family(fano, F2, tops=[t]))
    assert twice.tops == (t,)


def test_chain_family_is_a_read_only_mapping(fano):
    X = fano.complex
    t, other = X.top_faces[2], X.top_faces[5]
    fam = chain_family(fano, F3, tops=[t])
    for key in [(other, ()), (t, t), (t, ("x",)), (t,), "nonsense"]:
        assert key not in fam
        with pytest.raises(KeyError):
            fam[key]
    assert (t, ()) in fam and (t, X.faces(0)[7]) in fam
    assert fam[(t, ())] is not fam[(t, ())]  # built on each read, never kept
    assert fam[(t, ())] == fam[(t, ())]


# -- symmetry and audit ------------------------------------------------------------------


def dot(gf, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = gf.add(acc, gf.mul(a, b))
    return acc


def vertex_action(B, M):
    """Permutation of vertex tokens induced by the matrix M, one echelon form
    per subspace: the oracle for `generator_actions`."""
    gf = B.gf
    out = {}
    for token, basis in B.subspace_of.items():
        rows = [
            tuple(dot(gf, row, [M[i][j] for i in range(B.n)]) for j in range(B.n))
            for row in basis
        ]
        out[token] = subspace_token(rref(gf, rows))
    return out


def face_image(act, face):
    return tuple(sorted(act[v] for v in face))


def oracle_generator_actions(B):
    """The generators of `generator_actions`, in its order, as token dicts."""
    mats = gf_module.transvections(B.n, range(1, B.q))
    if B.q > 2:
        mats.append(np.eye(B.n, dtype=np.int64))
        mats[-1][0, 0] = gf_module.primitive_element(B.gf)
    return [vertex_action(B, M) for M in mats]


def dict_chamber_transport(B, gens):
    """Chamber -> token dict g with g(sigma_0) = chamber: the breadth-first
    Schreier tree over token dicts, the oracle for `chamber_transport`."""
    X = B.complex
    sigma0 = X.top_faces[0]
    tree = {sigma0: {v: v for v in B.subspace_of}}
    queue = [sigma0]
    for sigma in queue:
        g = tree[sigma]
        for s in gens:
            image = face_image(s, sigma)
            if image not in tree:
                tree[image] = {v: s[w] for v, w in g.items()}
                queue.append(image)
    assert set(tree) == set(X.top_faces)
    return tree


def oracle_face_orbits(X, gens):
    """`_face_orbits` over token dicts: each orbit closed breadth-first under
    the generators' face images, images off the complex not followed."""
    out = {}
    for k in range(0, X.dim + 1):
        unseen = set(X.faces(k))
        out[k] = []
        for f in X.faces(k):
            if f in unseen:
                unseen.discard(f)
                orbit = [f]
                for g in orbit:
                    for image in sorted({face_image(s, g) for s in gens} & unseen):
                        unseen.discard(image)
                        orbit.append(image)
                out[k].append(orbit)
    return out


def token_actions(B, G):
    """The rows of an (m, V) array of vertex-position permutations as token dicts."""
    vertices = B.complex.vertices()
    return [{v: vertices[i] for v, i in zip(vertices, row)} for row in G.tolist()]


def as_array(B, acts):
    """Token dicts as an (m, V) int64 array over vertex positions."""
    vertices = B.complex.vertices()
    at = {v: i for i, v in enumerate(vertices)}
    return np.array([[at[act[v]] for v in vertices] for act in acts],
                    dtype=np.int64).reshape(len(acts), len(vertices))


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_array_actions_match_the_dict_oracles(n, q):
    B = build_building(n, q)
    X = B.complex
    oracle = oracle_generator_actions(B)
    gens = generator_actions(B)
    assert gens.dtype == np.int64
    assert np.array_equal(gens, as_array(B, oracle))
    tree = dict_chamber_transport(B, oracle)
    assert token_actions(B, chamber_transport(B)) == [tree[sigma] for sigma in X.top_faces]
    assert _face_orbits(B, gens) == oracle_face_orbits(X, oracle)
    # one generator at a time: every generator's images are followed
    for s in range(len(oracle)):
        assert _face_orbits(B, gens[s:s + 1]) == oracle_face_orbits(X, oracle[s:s + 1])


def permutation_closure(B, gens):
    """Every product of the generating vertex permutations, as value tuples."""
    order = sorted(B.subspace_of)
    index = {v: i for i, v in enumerate(order)}
    steps = [tuple(index[g[v]] for v in order) for g in gens]
    start = tuple(range(len(order)))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for s in steps:
                image = tuple(s[i] for i in p)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return {tuple(order[i] for i in p) for p in seen}


def pgl_elements(B):
    """Every invertible n x n matrix over GF(q), one per scalar class, listed by
    a depth-first search over rows outside the span of the rows so far; the
    enumeration oracle for the generators."""
    gf, n = B.gf, B.n
    vectors = [list(v) for v in product(range(gf.q), repeat=n) if any(v)]
    seen = set()

    def canonical(rows):
        lead = next(x for row in rows for x in row if x)
        inv = gf.inv(lead)
        return tuple(tuple(gf.mul(inv, y) for y in row) for row in rows)

    def extend(rows):
        if len(rows) == n:
            seen.add(canonical(rows))
            return
        basis = rref(gf, rows)
        for v in vectors:
            if not row_space_contains(gf, basis, v):
                extend(rows + [v])

    extend([])
    return sorted(seen)


def fano_group(fano):
    order = sorted(fano.subspace_of)
    return {
        tuple(act[v] for v in order)
        for act in (vertex_action(fano, M) for M in pgl_elements(fano))
    }


def test_generator_closure_is_the_group_on_fano(fano):
    pgl = fano_group(fano)
    assert len(pgl) == 168
    assert permutation_closure(fano, token_actions(fano, generator_actions(fano))) == pgl


def test_generator_closure_order_3_3():
    # |PGL(3,3)| = (3^3-1)(3^3-3)(3^3-9)/(3-1); gcd(3, 3-1) = 1, so the
    # transvections' SL(3,3) maps onto all of it
    B = build_building(3, 3)
    q, n = 3, 3
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    assert order // (q - 1) == 5616
    assert len(permutation_closure(B, token_actions(B, generator_actions(B)))) == 5616


def test_schreier_tree_covers_every_chamber(fano, b42):
    for B in (fano, build_building(3, 3), b42):
        X = B.complex
        assert len(chamber_transport(B)) == len(X.top_faces)
        tree = dict(zip(X.top_faces, token_actions(B, chamber_transport(B))))
        assert set(tree) == set(X.top_faces)
        for sigma, g in tree.items():
            assert tuple(sorted(g[v] for v in X.top_faces[0])) == sigma
            assert sorted(g.values()) == sorted(B.subspace_of)


def test_schreier_tree_needs_every_scalar(monkeypatch):
    # over GF(4) the E_ij(1) generate only SL(3,2), which misses chambers
    B = build_building(3, 4)
    assert len(chamber_transport(B)) == len(B.complex.top_faces)
    ones = as_array(B, [vertex_action(B, M) for M in gf_module.transvections(B.n, [1])])
    monkeypatch.setattr(building, "generator_actions", lambda B: ones)
    with pytest.raises(errors.PropertyViolation):
        chamber_transport(dataclasses.replace(B, cache={}))


def assert_filling_family(B, fam, sigma):
    """The boundary identity and the domain A_{sigma,tau} of every entry at sigma."""
    X = B.complex
    for k in range(-1, X.dim):
        for tau in X.faces(k):
            c = fam[(sigma, tau)]
            want = Chain(INTEGERS, k, {tau: (-1) ** (k + 1)})
            for i in range(len(tau)):
                want = want + fam[(sigma, tau[:i] + tau[i + 1:])].scaled((-1) ** i)
            assert boundary(c) == (Chain(INTEGERS, -1, {(): 1}) if tau == () else want)
            K = scanned_intersection(B, sigma, tau)
            assert all(K.has_face(f) for f in c.support)


def assert_same_entries(got, want):
    """Equal entries, in the same key order and coefficient order."""
    assert got == want
    assert list(got) == list(want)
    assert all(list(got[key].coeffs) == list(c.coeffs) for key, c in want.items())


def test_transported_family_every_3_3_top():
    B = build_building(3, 3)
    fam = chain_family(B, INTEGERS)
    for sigma in B.complex.top_faces:
        assert_filling_family(B, fam, sigma)
    sigma0 = B.complex.top_faces[0]
    at_sigma0 = {key: c for key, c in fam.entries.items() if key[0] == sigma0}
    assert_same_entries(at_sigma0, oracle_family_at(B, sigma0))


def test_transported_family_sampled_4_2_tops(b42):
    B = dataclasses.replace(b42, cache={})
    X = B.complex
    tops = random.Random(41).sample(X.top_faces, 16)
    fam = chain_family(B, INTEGERS, tops=tops)
    for sigma in tops:
        assert_filling_family(B, fam, sigma)
    sigma0 = X.top_faces[0]
    fam0 = chain_family(B, INTEGERS, tops=[sigma0])
    assert_same_entries(fam0.entries, oracle_family_at(B, sigma0))


def test_family_solves_only_at_one_chamber(b42, monkeypatch):
    # sigma_0's systems go to solve_boundary a block of taus at a time: one
    # call per block of each level, whatever the requested chambers
    B = dataclasses.replace(b42, cache={})
    X = B.complex
    calls = []
    solve = building.solve_boundary

    def counting(B, table, k, target):
        calls.append((k, len(target)))
        return solve(B, table, k, target)

    monkeypatch.setattr(building, "solve_boundary", counting)
    tops = [X.top_faces[i] for i in sorted(random.Random(43).sample(range(315), 16))]
    chain_family(B, INTEGERS, tops=tops)
    assert calls == [(0, 64), (0, 1)] + [(1, 64)] * 4 + [(1, 59)]
    assert sum(n for _, n in calls) == len(X.faces(0)) + len(X.faces(1)) == 380
    chain_family(B, INTEGERS, tops=X.top_faces[:5])
    assert len(calls) == 7


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2)])
def test_cold_family_makes_no_smith_or_sparse_solve(n, q, monkeypatch):
    # every sigma_0 system of an admitted building has unit pivots and small
    # entries, so the stacked int64 solve finishes all of them
    calls = []
    solve = intmat.solve_int

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(intmat, "solve_int", counting)
    fam = chain_family(build_building(n, q), INTEGERS)
    assert len(fam) and calls == []


def test_repeated_family_calls_agree_on_shared_tops(fano):
    B = dataclasses.replace(fano, cache={})
    tops = B.complex.top_faces
    first = chain_family(B, INTEGERS, tops=tops[:12])
    second = chain_family(B, INTEGERS, tops=tops[6:])
    shared = first.entries.keys() & second.entries.keys()
    assert {sigma for sigma, _ in shared} == set(tops[6:12])
    assert all(first[key] == second[key] for key in shared)
    # only sigma_0's solved family is kept, as (tau, face, coeff) triplets at
    # one chamber; other chambers are moved per call
    assert all(a.shape[0] == 3 for a in B.cache["family0"].values())


def apartment_bits(B):
    """Face -> int bitset of the apartments containing it (bit i: B.apartments[i]),
    the empty face in every apartment: the per-apartment reference for the
    packed apartment words of the library."""
    bits = {(): (1 << len(B.apartments)) - 1}
    for i, apt in enumerate(B.apartments):
        for f in apt:
            bits[f] = bits.get(f, 0) | 1 << i
    return bits


def moved_family(B, family0, sigma, g):
    """The integer family at sigma_0 moved by the vertex permutation g to sigma,
    one face at a time: g[f] = perm_sign(g f) [sort(g f)], each moved support
    face checked against the apartment bitsets of sigma and the moved tau."""
    bits = apartment_bits(B)
    moved = {}

    def move(face):
        hit = moved.get(face)
        if hit is None:
            image = tuple(g[v] for v in face)
            hit = moved[face] = (tuple(sorted(image)), perm_sign(image))
        return hit

    out = {}
    for (_, tau), ch in family0.items():
        gtau, sign = move(tau)
        hits = bits.get(sigma, 0) & bits.get(gtau, 0)
        if not hits:
            raise errors.PropertyViolation(f"no apartment contains both {sigma} and {gtau}")
        coeffs = {}
        for f, v in ch.coeffs.items():
            gface, s = move(f)
            if bits.get(gface, 0) & hits != hits:
                raise errors.PropertyViolation(
                    f"transported chain for {(sigma, gtau)} leaves its domain"
                )
            coeffs[gface] = sign * s * v
        out[(sigma, gtau)] = Chain(INTEGERS, ch.dim, coeffs)
    return out


def oracle_chain_family(B, ring, tops=None):
    """chain_family one chamber and one entry at a time: each chamber's family
    moved by `moved_family`, then the identity's residual per (sigma, tau),
    summed over Z from the ring's entries, must reduce to zero."""
    X = B.complex
    tops = tuple(tops) if tops is not None else X.top_faces
    transport = dict_chamber_transport(B, oracle_generator_actions(B))
    family0 = oracle_family_at(B, X.top_faces[0])
    entries = {}
    for sigma in tops:
        for key, ch in moved_family(B, family0, sigma, transport[sigma]).items():
            entries[key] = Chain(ring, ch.dim, ch.coeffs)
    for sigma in tops:
        for k in range(-1, X.dim):
            for tau in X.faces(k):
                residual = dict(family_identity_target(entries, INTEGERS, sigma, tau).coeffs)
                for face, a in entries[(sigma, tau)].coeffs.items():
                    for i in range(len(face)):
                        sub = face[:i] + face[i + 1:]
                        residual[sub] = residual.get(sub, 0) - (-a if i % 2 else a)
                if any(ring.reduce(v) for v in residual.values()):
                    raise errors.PropertyViolation(
                        f"chain family identity failed at {(sigma, tau)} over {ring}"
                    )
    return entries


@pytest.fixture(scope="module")
def b33():
    return build_building(3, 3)


@pytest.mark.parametrize("ringname", ["Z", "F2", "F3", "Z/4", "Z/6"])
@pytest.mark.parametrize("which", ["fano", "b33", "b42"])
def test_chain_family_matches_the_per_entry_oracle(request, which, ringname):
    # every chamber of B(3,2) and B(3,3), 16 sampled chambers of B(4,2)
    from hdx.rings import parse_ring

    B = request.getfixturevalue(which)
    ring = parse_ring(ringname)
    X = B.complex
    tops = (random.Random(41).sample(X.top_faces, 16) if which == "b42" else None)
    fam = chain_family(B, ring, tops=tops)
    assert_same_entries(fam.entries, oracle_chain_family(B, ring, tops=tops))


@pytest.mark.parametrize("ringname", ["Z", "F3"])
def test_every_entry_of_the_full_3_3_family_reads_as_the_oracle(b33, ringname):
    # keys read in a shuffled order: each read finds its chamber's row and its
    # triplet columns through lookups built once per family and dimension
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    fam = chain_family(b33, ring)
    want = oracle_chain_family(b33, ring)
    keys = list(want)
    random.Random(7).shuffle(keys)
    for key in keys:
        assert list(fam[key].coeffs.items()) == list(want[key].coeffs.items())
    assert len(fam) == len(want) == len(keys)
    assert sorted(fam.columns) == list(range(-1, b33.dim))
    assert fam.row_of == {sigma: c for c, sigma in enumerate(b33.complex.top_faces)}


def test_missing_transported_entry_is_a_property_violation(fano, monkeypatch):
    # one vertex entry of the first chamber moved onto the key of another
    B = dataclasses.replace(fano, cache={})
    move = building._transport

    def lossy(*args):
        out = move(*args)
        taus = out[0][0]
        taus[0, 0] = taus[0, 1]
        return out

    monkeypatch.setattr(building, "_transport", lossy)
    with pytest.raises(errors.PropertyViolation, match="no entry"):
        chain_family(B, INTEGERS)


@pytest.mark.parametrize("ringname,delta,raises", [
    ("Z", 1, True), ("F3", 3, False), ("F3", 1, True), ("Z/6", 6, False),
])
def test_tampered_family_coefficient(fano, monkeypatch, ringname, delta, raises):
    # one coefficient of one entry at a vertex tau, at the first chamber moved
    from hdx.rings import parse_ring

    B = dataclasses.replace(fano, cache={})
    move = building._transport
    tampered = []

    def tamper(*args):
        out = move(*args)
        out[0][3][0, 0] += delta
        tampered.append(out[0][1][0, 0])
        return out

    monkeypatch.setattr(building, "_transport", tamper)
    if raises:
        with pytest.raises(errors.PropertyViolation, match="identity failed"):
            chain_family(B, parse_ring(ringname))
    else:
        chain_family(B, parse_ring(ringname))
    assert tampered


def test_identity_failure_names_the_tampered_chamber(fano, monkeypatch):
    # a coefficient moved to the last chamber fails there and nowhere else
    B = dataclasses.replace(fano, cache={})
    move = building._transport

    def tamper(*args):
        out = move(*args)
        out[0][3][-1, -1] += 1  # the last vertex entry's last coefficient, last chamber
        return out

    monkeypatch.setattr(building, "_transport", tamper)
    with pytest.raises(errors.PropertyViolation, match="identity failed") as got:
        chain_family(B, INTEGERS)
    sigma = B.complex.top_faces[-1]
    assert str(sigma) in str(got.value)


def test_identity_failure_names_the_least_tampered_chamber_across_blocks(b42, monkeypatch):
    # a 16-chamber B(4,2) family is checked 6 chambers at a time: edge entries
    # tampered at chambers 8 and 14 fail at 8, the least, in the second block
    B = dataclasses.replace(b42, cache={})
    move = building._transport

    def tamper(*args):
        out = move(*args)
        out[1][3][[8, 14], -1] += 1  # the last edge entry's last coefficient
        return out

    monkeypatch.setattr(building, "_transport", tamper)
    tops = B.complex.top_faces[:16]
    with pytest.raises(errors.PropertyViolation, match="identity failed") as got:
        chain_family(B, INTEGERS, tops=tops)
    assert str(tops[8]) in str(got.value) and str(tops[14]) not in str(got.value)


def test_chain_family_refuses_residuals_beyond_int64(fano, monkeypatch):
    B = dataclasses.replace(fano, cache={})
    solve = building._integer_family_at

    def huge(B, sigma):
        family0 = solve(B, sigma)
        family0[0][2, 0] = 2 ** 62  # one coefficient of a vertex entry's chain
        return family0

    monkeypatch.setattr(building, "_integer_family_at", huge)
    with pytest.raises(errors.SearchSpaceTooLarge, match="chain family residuals"):
        chain_family(B, INTEGERS)


def test_chain_family_entries_hold_nonzero_ring_coefficients(fano, monkeypatch):
    # an extra vertex of sigma_0 with coefficient 2 in c_{sigma_0,()} keeps
    # the identity over F2 (2 is 0 there), and must not reach the entries
    B = dataclasses.replace(fano, cache={})
    solve = building._integer_family_at

    def padded(B, sigma):
        family0 = solve(B, sigma)
        pos = building._face_index(B)[0].pos
        other = next(pos[(v,)] for v in sigma if pos[(v,)] != family0[-1][1, 0])
        family0[-1] = np.concatenate([family0[-1], [[0], [other], [2]]], axis=1)
        return family0

    monkeypatch.setattr(building, "_integer_family_at", padded)
    fam = chain_family(B, F2)
    assert fam.entries
    for ch in fam.entries.values():
        assert ch.coeffs == Chain(F2, ch.dim, ch.coeffs).coeffs


def test_face_index_levels(fano, b42):
    # the packed apartment words equal the per-apartment bitsets, face by face
    for B in (fano, b42):
        X = B.complex
        index, (*_, words) = building._face_index(B), building._apartment_words(B)
        bits = apartment_bits(B)
        for k in range(-1, X.dim + 1):
            level = index[k]
            assert words[k].dtype == np.uint64
            assert words[k].shape == (len(level.faces), -(-len(B.apartments) // 64))
            assert level.faces == X.faces(k)
            assert list(level.keys) == sorted(level.keys)
            assert len(set(level.keys.tolist())) == len(level.faces)
            for i, face in enumerate(level.faces):
                subfaces = [index[k - 1].faces[j] for j in level.sub[i]] if k >= 0 else []
                assert subfaces == [face[:m] + face[m + 1:] for m in range(len(face))]
                packed = int.from_bytes(words[k][i].tobytes(), "little")
                assert packed == bits.get(face, 0)


def test_symmetry_checks(fano):
    rep = symmetry_checks(fano)
    assert rep.group_order == 168
    # the projective linear group cannot swap lines with planes, so the
    # vertices split into two orbits of 7; the 21 edges form one orbit
    assert rep.orbit_counts == {0: 2, 1: 1}
    assert rep.transitive_on_top
    assert rep.stabilizer_bound_ok
    assert rep.summed_bound_ok
    assert rep.apartment_equivariance_ok


def test_symmetry_checks_3_3_at_default_settings():
    B = build_building(3, 3)
    rep = symmetry_checks(B)
    assert rep.group_order == 5616
    assert rep.orbit_counts == {0: 2, 1: 1}
    assert rep.transitive_on_top
    assert rep.stabilizer_bound_ok
    assert rep.summed_bound_ok
    assert rep.apartment_equivariance_ok
    # intersections are read off the bitsets, never cached per (sigma, tau)
    assert len(B.cache) <= 2
    assert not any(isinstance(key, tuple) for key in B.cache)


def test_symmetry_checks_4_2_at_default_settings(b42):
    rep = symmetry_checks(b42)
    assert rep.group_order == 20160
    assert rep.orbit_counts == {0: 3, 1: 3, 2: 1}
    assert rep.transitive_on_top
    assert rep.stabilizer_bound_ok
    assert rep.summed_bound_ok
    assert rep.apartment_equivariance_ok


SYMMETRY_FLAGS = [
    "transitive_on_top", "stabilizer_bound_ok", "summed_bound_ok", "apartment_equivariance_ok",
]
AUDIT_FLAGS = [
    "epsilon_ok", "homotopy_ok", "chain_family_ok", "homological_ok",
    "cohomology_trivial_below_top",
]


def test_symmetry_report_ok_and_json(fano):
    rep = symmetry_checks(fano)
    assert rep.ok is all(getattr(rep, flag) for flag in SYMMETRY_FLAGS) is True
    for flag in SYMMETRY_FLAGS:
        assert dataclasses.replace(rep, **{flag: False}).ok is False
    assert rep.to_json() == {
        "group_order": 168,
        "orbit_counts": {"0": 2, "1": 1},
        **{flag: True for flag in SYMMETRY_FLAGS},
    }


def test_audit_report_ok(fano):
    audit = building_expansion_audit(fano, F3, samples=2)
    assert audit.ok is all(getattr(audit, flag) for flag in AUDIT_FLAGS) is True
    for flag in AUDIT_FLAGS:
        assert dataclasses.replace(audit, **{flag: False}).ok is False


def pair_loop_totals(B, k):
    """Per face r, the integer numerator over weight_denominator(k) of the sum
    of ||tau|| over every pair (sigma, tau), tau a k-face, with r in
    A_{sigma,tau}; the brute-force reference for the orbit average."""
    X = B.complex
    acc = {rho: 0 for j in range(-1, X.dim + 1) for rho in X.faces(j)}
    for sigma in X.top_faces:
        for tau in X.faces(k):
            A = scanned_intersection(B, sigma, tau)
            for rho in (rho for j in range(-1, X.dim + 1) for rho in A.faces(j)):
                acc[rho] += X.deg_top(tau)
    return acc


def fraction_totals(B, k):
    """Per face r, sum of ||tau|| over the pairs (sigma, tau), tau a k-face, with
    r in A_{sigma,tau}, added in Fractions over built intersections; the
    reference for the integer numerators of _summed_totals."""
    X = B.complex
    acc = {rho: Fraction(0) for j in range(-1, X.dim + 1) for rho in X.faces(j)}
    for sigma in X.top_faces:
        for tau in X.faces(k):
            A = scanned_intersection(B, sigma, tau)
            wt = X.weight(tau)
            for j in range(0, X.dim + 1):
                for rho in A.faces(j):
                    acc[rho] += wt
            acc[()] += wt
    return acc


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4)])
def test_summed_totals_match_the_fraction_loop(n, q):
    B = build_building(n, q)
    X = B.complex
    orbits = _face_orbits(B, generator_actions(B))
    for k in range(-1, X.dim):
        den = X.weight_denominator(k)
        got = _summed_totals(B, k, orbits)
        assert got == pair_loop_totals(B, k)
        want = fraction_totals(B, k)
        assert got.keys() == want.keys()
        assert all(Fraction(got[rho], den) == want[rho] for rho in want)


def test_summed_bound_is_sharp_on_fano(fano):
    X = fano.complex
    worst = max(
        total / X.deg_top(rho)
        for k in range(-1, X.dim)
        for rho, total in fraction_totals(fano, k).items()
    )
    assert worst == Fraction(17, 7)
    assert symmetry_checks(dataclasses.replace(fano, theta=3, cache={})).summed_bound_ok
    rep = symmetry_checks(dataclasses.replace(fano, theta=2, cache={}))
    assert not rep.summed_bound_ok
    assert rep.transitive_on_top
    assert rep.stabilizer_bound_ok
    assert rep.apartment_equivariance_ok


def test_intersection_questions_refuse_pairs_outside_every_apartment(fano):
    # with one apartment left some pairs share none; the lowest set bit of an
    # empty hit set would index the last apartment, so each route must refuse
    B = dataclasses.replace(fano, apartments=fano.apartments[:1], cache={})
    with pytest.raises(errors.PropertyViolation):
        symmetry_checks(B)
    with pytest.raises(errors.PropertyViolation):
        symmetry_checks(dataclasses.replace(fano, apartments=[], cache={}))
    with pytest.raises(errors.PropertyViolation):
        building_expansion_audit(dataclasses.replace(B, cache={}), INTEGERS, samples=1)


def counted_symmetry(B, perms):
    """Orbit counts and stabilizer orders counted over every listed group element."""
    X = B.complex

    def image(p, f):
        return tuple(sorted(p[v] for v in f))

    counts, stabs = {}, {(): len(perms)}
    for k in range(0, X.dim + 1):
        pool = set(X.faces(k))
        counts[k] = 0
        while pool:
            pool -= {image(p, min(pool)) for p in perms}
            counts[k] += 1
        for f in X.faces(k):
            stabs[f] = sum(1 for p in perms if image(p, f) == f)
    return counts, stabs


def test_orbit_stabilizer_matches_enumeration(fano):
    B33 = build_building(3, 3)
    for B, group in (
        (fano, fano_group(fano)),
        (B33, permutation_closure(B33, token_actions(B33, generator_actions(B33)))),
    ):
        keys = sorted(B.subspace_of)
        perms = [dict(zip(keys, p)) for p in group]
        counts, stabs = counted_symmetry(B, perms)
        rep = symmetry_checks(B)
        assert rep.group_order == len(perms)
        assert rep.orbit_counts == counts
        assert rep.details["stabilizers"] == stabs


def frame_orbit(B, gens):
    """Orbit of the ordered projective frame (e_1, ..., e_n, e_1 + ... + e_n)."""
    n = B.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)] + [[1] * n]
    start = tuple(subspace_token(rref(B.gf, [r])) for r in rows)
    seen = {start}
    frontier = [start]
    for frame in frontier:
        for s in gens:
            image = tuple(s[v] for v in frame)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def test_generators_are_simply_transitive_on_frames_3_4():
    # PGL(n, q) acts simply transitively on ordered projective frames, so the
    # frame orbit under the generators has |G| elements; the transvections
    # alone reach only PSL(3, 4), of index gcd(3, 4 - 1) = 3
    B = build_building(3, 4)
    rep = symmetry_checks(B)
    assert rep.group_order == 60480
    assert len(frame_orbit(B, token_actions(B, generator_actions(B)))) == 60480
    transvections = [vertex_action(B, M) for M in gf_module.transvections(3, range(1, 4))]
    assert len(frame_orbit(B, transvections)) == 20160


def test_orbits_of_4_2(b42):
    orbits = _face_orbits(b42, generator_actions(b42))
    assert {k: len(v) for k, v in orbits.items()} == {0: 3, 1: 3, 2: 1}
    assert all(20160 % len(o) == 0 for per_dim in orbits.values() for o in per_dim)


def test_orbit_size_must_divide_the_group_order(fano, monkeypatch):
    monkeypatch.setattr(building, "pgl_order", lambda n, q: 167)
    with pytest.raises(errors.PropertyViolation):
        symmetry_checks(fano)


def test_equivariance_sample_catches_a_non_automorphism(fano, monkeypatch):
    # swapping two lines and fixing everything else moves flags off the complex
    gens = generator_actions(fano)
    lines = sorted(t for t, basis in fano.subspace_of.items() if len(basis) == 1)
    swap = {v: v for v in fano.subspace_of}
    swap[lines[0]], swap[lines[1]] = lines[1], lines[0]
    assert {face_image(swap, c) for c in fano.complex.top_faces} != set(
        fano.complex.top_faces
    )
    swap_row = as_array(fano, [swap])
    monkeypatch.setattr(building, "generator_actions",
                        lambda B: np.concatenate([gens, swap_row]))
    rep = symmetry_checks(dataclasses.replace(fano, cache={}))
    assert rep.transitive_on_top
    assert rep.stabilizer_bound_ok
    # check (a) fails, so the orbit average's premise fails with it
    assert not rep.apartment_equivariance_ok
    assert not rep.summed_bound_ok
    # with the swap acting alone on the apartments it fixes, check (b) holds
    # and check (a) alone reports it
    fixed = [a for a in fano.apartments if all(face_image(swap, f) == f for f in a)]
    monkeypatch.setattr(building, "generator_actions", lambda B: swap_row)
    rep = symmetry_checks(dataclasses.replace(fano, apartments=fixed, cache={}))
    assert len(fixed) == 8
    assert not rep.apartment_equivariance_ok


def test_equivariance_check_catches_a_chamber_map_that_is_not_onto(fano, monkeypatch):
    # a retraction of the Fano building onto the apartment of the standard
    # frame: it fixes that apartment and maps every chamber onto one of its
    # six, so no image leaves the complex and, on that apartment alone, check
    # (b) holds; only the bijectivity in check (a) can report it
    X = fano.complex
    fold = {v: v for v in fano.subspace_of}
    fold.update({
        "S[110]": "S[100]", "S[101]": "S[100]", "S[111]": "S[100]", "S[011]": "S[010]",
        "S[110;001]": "S[100;001]", "S[101;010]": "S[100;010]",
        "S[100;011]": "S[100;010]", "S[101;011]": "S[100;010]",
    })
    assert set(fold) == set(fano.subspace_of)
    (apt,) = [a for f, a in zip(fano.frames, fano.apartments)
              if f == ("S[001]", "S[010]", "S[100]")]
    assert all(face_image(fold, f) == f for f in apt)
    chambers = {f for f in apt if len(f) == 2}
    assert {face_image(fold, c) for c in X.top_faces} == chambers
    monkeypatch.setattr(building, "generator_actions", lambda B: as_array(fano, [fold]))
    rep = symmetry_checks(dataclasses.replace(fano, apartments=[apt], cache={}))
    assert not rep.apartment_equivariance_ok
    assert not rep.summed_bound_ok


@pytest.mark.parametrize("seed", range(5))
def test_equivariance_check_catches_a_missing_apartment(fano, seed):
    # every generator is still an automorphism, so only check (b) can fail:
    # some generator maps an apartment onto the one that was dropped
    B = dataclasses.replace(fano, apartments=fano.apartments[:-1], cache={})
    rep = symmetry_checks(B, seed=seed)
    assert rep.transitive_on_top
    assert not rep.apartment_equivariance_ok
    assert not rep.summed_bound_ok


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_symmetry_checks_intersect_at_one_chamber_only(n, q, monkeypatch):
    B = build_building(n, q)
    X = B.complex
    calls = []

    def counted(B, sigma, taus, level=None):
        calls.append((sigma, taus))
        return _in_intersections(B, sigma, taus, level)

    monkeypatch.setattr(building, "_in_intersections", counted)
    rep = symmetry_checks(B)
    assert rep.summed_bound_ok and rep.apartment_equivariance_ok
    # only sigma_0 is asked about, and about each (sigma_0, tau) pair at most once
    assert {sigma for sigma, _ in calls} == {X.top_faces[0]}
    pairs = [tau for _, taus in calls for tau in taus]
    assert 0 < len(pairs) == len(set(pairs)) <= sum(len(X.faces(k)) for k in range(-1, X.dim))


def test_building_audit(fano):
    audit = building_expansion_audit(fano, INTEGERS, samples=5)
    assert audit.theta == 12
    assert audit.beta_theorem == Fraction(1, 24)
    assert audit.beta_proof == {0: Fraction(1, 12)}
    assert audit.epsilon[("F2", 0)] >= Fraction(1, 12)
    assert audit.epsilon_ok
    assert audit.homotopy_ok
    assert audit.chain_family_ok
    assert audit.homological_ok
    assert audit.cohomology_trivial_below_top


def test_building_audit_runs_the_axioms_first(fano):
    # one vertex of apartment 0 swapped for a vertex outside it
    apt, *rest = fano.apartments
    i = next(i for i, f in enumerate(apt) if len(f) == 1)
    outside = next(v for v in fano.complex.faces(0) if v not in apt)
    B = dataclasses.replace(
        fano, apartments=[apt[:i] + (outside,) + apt[i + 1:], *rest], cache={}
    )
    with pytest.raises(errors.PropertyViolation, match="closure of its chambers"):
        building_expansion_audit(B, INTEGERS, samples=1)


def test_audit_intersects_each_pair_once(fano, monkeypatch):
    # sigma_0's solve reads one table per level, the empty face and then
    # every vertex; the homological check asks about every vertex once per
    # chamber, on the first of its 50 draws, and reads the kept weight rows
    # after that
    B = dataclasses.replace(fano, cache={})
    X = B.complex
    calls = []

    def counted(B, sigma, taus, level=None):
        calls.append((sigma, tuple(taus), level))
        return _in_intersections(B, sigma, taus, level)

    monkeypatch.setattr(building, "_in_intersections", counted)
    audit = building_expansion_audit(B, INTEGERS, seed=3)
    assert audit.ok
    sigma0 = X.top_faces[0]
    assert calls[:2] == [(sigma0, ((),), None), (sigma0, X.faces(0), None)]
    assert calls[2:] == [(sigma, X.faces(0), 1) for sigma in X.top_faces]
    assert len(calls) == len(set(calls)) == 2 + len(X.top_faces) == 23


def test_audit_takes_one_cone_term_per_drawn_cochain(fano, monkeypatch):
    # homotopy_failure and cone_norms ask about the same draws: iota(delta f)
    # is computed once per drawn cochain
    calls = []
    terms = building._cone_terms

    def counted(fam, k, fv):
        calls.append(k)
        return terms(fam, k, fv)

    monkeypatch.setattr(building, "_cone_terms", counted)
    B = dataclasses.replace(fano, cache={})
    audit = building_expansion_audit(B, INTEGERS, seed=3, samples=7)
    assert audit.ok
    assert calls == [0] * 7


def test_cone_terms_are_reused_only_while_the_values_stay(fano, monkeypatch):
    X = fano.complex
    fam = chain_family(fano, INTEGERS)
    f = random_cochain(X, INTEGERS, 0, random.Random(5))
    calls = []
    terms = building._cone_terms

    def counted(*args):
        calls.append(args)
        return terms(*args)

    monkeypatch.setattr(building, "_cone_terms", counted)
    assert homotopy_failure(fam, f) is None
    assert [a.tolist() for a in cone_norms(fam, f)] == list(oracle_cone(fam, f))
    assert len(calls) == 1
    face = X.faces(0)[3]
    f.values[face] = f.values.get(face, 0) + 5  # changed in place: new terms
    assert [a.tolist() for a in cone_norms(fam, f)] == list(oracle_cone(fam, f))
    assert homotopy_failure(fam, f) is None
    assert len(calls) == 2


@pytest.mark.parametrize("ring", [INTEGERS, F2])
def test_audit_searches_no_distance(fano, monkeypatch, ring):
    from hdx import cochains, cosets

    def refused(*args, **kwargs):
        raise AssertionError("the audit searched a distance")

    monkeypatch.setattr(cochains, "distance", refused)
    monkeypatch.setattr(cosets, "min_distances", refused)
    audit = building_expansion_audit(dataclasses.replace(fano, cache={}), ring, eps_rings=())
    assert audit.ok and audit.homological_ok


def test_audit_of_4_2_over_z_without_epsilon_scans(b42):
    audit = building_expansion_audit(b42, INTEGERS, eps_rings=())
    assert audit.ok and audit.homological_ok and audit.epsilon == {}


def test_building_audit_over_f2(fano):
    audit = building_expansion_audit(fano, F2, seed=3, samples=4)
    assert audit.epsilon == {("F2", 0): audit.epsilon[("F2", 0)]}
    assert audit.epsilon[("F2", 0)] >= Fraction(1, 12)
    assert all(getattr(audit, flag) for flag in AUDIT_FLAGS)
    assert audit.ok


def test_homological_bound_explicitly(fano):
    # dist(f, B^k) <= sum over tau of ||tau|| * |supp(delta f) inside A_{s,tau}|
    X = fano.complex
    rng = random.Random(23)
    for _ in range(10):
        f = random_cochain(X, F2, 0, rng)
        d, _ = distance(f, COBOUNDARIES)
        df_supp = coboundary(f).support
        for sigma in X.top_faces[:4]:
            bound = Fraction(0)
            for tau in X.faces(0):
                A = scanned_intersection(fano, sigma, tau)
                bound += X.weight(tau) * sum(1 for r in df_supp if A.has_face(r))
            assert d <= bound


# -- a two-dimensional building: both induction levels live ------------------------------


@pytest.fixture(scope="module")
def b42():
    return build_building(4, 2)


def test_42_building_counts(b42):
    X = b42.complex
    assert X.dim == 2
    assert len(X.faces(0)) == 65   # 15 lines + 35 planes + 15 hyperplanes
    assert len(X.faces(1)) == 315
    assert len(X.faces(2)) == 315  # 15 * 7 * 3 maximal flags
    assert len(b42.frames) == 840  # 15*14*12*8 / 4!
    assert b42.theta == 74


def test_42_sampled_axioms(b42):
    X = b42.complex
    rng = random.Random(29)
    faces = [f for k in range(0, 3) for f in X.faces(k)]
    for _ in range(200):
        f, g = rng.choice(faces), rng.choice(faces)
        assert any(f in a and g in a for a in b42.apartments)


@pytest.mark.parametrize("ringname", ["Z", "F3", "Z/6"])
def test_42_homotopy_identity_both_levels(b42, ringname):
    from hdx.rings import parse_ring

    ring = parse_ring(ringname)
    X = b42.complex
    sigma = X.top_faces[0]
    fam = chain_family(b42, ring, tops=[sigma])
    rng = random.Random(31)
    for k in [0, 1]:
        for _ in range(5):
            f = random_cochain(X, ring, k, rng)
            lhs = coboundary(contraction(fam, sigma, f)) + contraction(fam, sigma, coboundary(f))
            assert lhs == f


def test_42_homological_bound_at_k0(b42):
    # at k = 0 the coboundaries are the two constants, so the exact distance
    # stays computable at this size (k = 1 correctly refuses: B^1 has 2^64
    # elements, over any reasonable cap)
    X = b42.complex
    sigma = X.top_faces[0]
    rng = random.Random(37)
    for _ in range(3):
        f = random_cochain(X, F2, 0, rng)
        d, _ = distance(f, COBOUNDARIES)
        df_supp = coboundary(f).support
        bound = Fraction(0)
        for tau in X.faces(0):
            A = scanned_intersection(b42, sigma, tau)
            bound += X.weight(tau) * sum(1 for r in df_supp if A.has_face(r))
        assert d <= bound
    with pytest.raises(errors.SearchSpaceTooLarge):
        distance(random_cochain(X, F2, 1, rng), COBOUNDARIES)


def test_filling_property_whole_cycle_space(fano, b42):
    # the filling property promises every cycle bounds inside an apartment
    # intersection; by linearity it is enough to fill a kernel basis of the
    # boundary matrix at each level
    from hdx import intmat
    from hdx.cochains import delta_matrix

    def fill_all_cycles(B, K):
        for i in range(0, K.dim):
            rows = K.faces(i)
            if not K.faces(i + 1):
                continue
            # cycles at level i = integer kernel of the boundary matrix
            # leaving level i (augmented at i = 0)
            boundary_matrix = transpose(delta_matrix(K, i - 1))
            for vec in intmat.kernel_int(boundary_matrix):
                cycle = Chain(INTEGERS, i, {f: v for f, v in zip(rows, vec) if v})
                if cycle.is_zero():
                    continue
                filled = subcomplex_solve(K, cycle)
                assert boundary(filled) == cycle

    X = fano.complex
    rng = random.Random(47)
    for _ in range(8):
        sigma = rng.choice(X.top_faces)
        tau = rng.choice(X.faces(0) + ((),))
        fill_all_cycles(fano, scanned_intersection(fano, sigma, tau))
    Y = b42.complex
    sigma = Y.top_faces[0]
    for tau in [(), Y.faces(0)[0], Y.faces(1)[0]]:
        fill_all_cycles(b42, scanned_intersection(b42, sigma, tau))


def test_seed_keyword_call_forms_keep_every_flag_true(fano):
    # the benchmark's building workload passes seed= to both calls
    sym = symmetry_checks(fano, seed=3)
    assert (sym.transitive_on_top and sym.stabilizer_bound_ok and sym.summed_bound_ok
            and sym.apartment_equivariance_ok)
    audit = building_expansion_audit(fano, INTEGERS, seed=3)
    assert (audit.epsilon_ok and audit.homotopy_ok and audit.chain_family_ok
            and audit.homological_ok and audit.cohomology_trivial_below_top)
