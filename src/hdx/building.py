"""Type-A spherical buildings over GF(q): flags, apartments, contraction.

The building on GF(q)^n has the proper nonzero subspaces as vertices and the
flags (chains under inclusion) as faces; its dimension is n-2. Apartments
come from frames, the unordered n-sets of lines spanning the space in direct
sum; the apartment of a frame consists of the flags among the spans of the
proper nonempty subsets of the frame. Intersections of apartments admit
boundary filling, which yields the chain family and the contraction operator
tying the coboundary to the distance from coboundaries.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import comb, prod
from typing import NamedTuple

import numpy as np

from . import cosets
from .cochains import Chain, Cochain, cochain_vector, random_cochain, vector_cochain
from .complexes import SimplicialComplex, frac_json
from .config import DEFAULT_BUILDING_FACE_CAP
from .errors import (
    DimensionOutOfRange,
    FaceNotInComplex,
    NotPrimePower,
    ParameterOutOfRange,
    PropertyViolation,
    RingMismatch,
    TooLarge,
)
from .gf import (
    GF, line_images, pgl_order, primitive_element, subset_chains, subspace_tables, subspace_token,
    transvections,
)
from .rings import Ring, prime_field


@dataclass
class SphericalBuilding:
    n: int
    q: int
    gf: GF
    complex: SimplicialComplex
    subspace_of: dict          # vertex token -> RREF basis tuple
    frames: list               # each an n-tuple of line tokens
    apartments: list           # per frame, same order: tuple of its nonempty faces
    theta: int                 # nonempty faces of one apartment
    cache: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.n - 2


def build_building(n: int, q: int) -> SphericalBuilding:
    """The flag complex of the proper nonzero subspaces of GF(q)^n.

    Built on the numbered subspaces of `subspace_tables`, with no echelon
    form: the maximal flags follow the covering relation, and for every n-set
    of lines at once the span of each subset S is one gather through the join
    table, span(S) = join[span(S minus its last line), that line]. The frames
    are the n-sets spanning GF(q)^n; each chain of `subset_chains` picks one
    face per frame, looked up by `_moved` from its spans' vertex indices, so
    every apartment holds X's own face tuples.
    """
    if n < 3:
        raise DimensionOutOfRange("need n >= 3 for a building of dimension >= 1")
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    # [n, r]_q subspaces of rank r, and [n]_q! = prod (q^i - 1) / (q - 1) maximal flags
    n_vertices = sum(
        prod(q ** (n - i) - 1 for i in range(r)) // prod(q ** (i + 1) - 1 for i in range(r))
        for r in range(1, n)
    )
    n_flags = prod(q ** i - 1 for i in range(1, n + 1)) // (q - 1) ** n
    if n_vertices + n_flags > DEFAULT_BUILDING_FACE_CAP:
        raise TooLarge(
            f"building ({n},{q}) has {n_vertices} vertices and {n_flags} "
            f"maximal flags, over the cap {DEFAULT_BUILDING_FACE_CAP}"
        )
    gf = GF(q)
    bases, _, up, join = subspace_tables(gf, n)
    tokens = list(map(subspace_token, bases))
    flags = [(line,) for line in range(join.shape[1])]
    for _ in range(n - 2):
        flags = [f + (w,) for f in flags for w in up[f[-1]]]
    X = SimplicialComplex.from_top_faces([[tokens[v] for v in f] for f in flags])
    model = subset_chains(n)
    B = SphericalBuilding(n, q, gf, X, dict(zip(tokens, bases)), [], [], len(model))
    index = _face_index(B)
    lines = np.array(list(combinations(range(join.shape[1]), n)))
    span = {}
    for s in (s for r in range(1, n + 1) for s in combinations(range(n), r)):
        span[s] = join[span[s[:-1]], lines[:, s[-1]]] if s[1:] else lines[:, s[0]]
    frame = span.pop(tuple(range(n))) == len(bases)
    vertex = np.array([index[0].pos[t,] for t in tokens])
    faces = []  # per model chain, its face in each frame's apartment
    for c in model:
        level = index[len(c) - 1]
        at, on_X = _moved(level, vertex[np.array([span[s][frame] for s in c]).T])
        if not on_X.all():
            raise PropertyViolation("the spans of a frame's chain are no flag")
        faces.append(list(map(level.faces.__getitem__, at.tolist())))
    for apt in zip(*faces):
        if len(set(apt)) != len(model):
            raise PropertyViolation(
                f"apartment has {len(set(apt))} distinct faces, expected {len(model)}"
            )
        B.apartments.append(apt)
    B.frames = [tuple(sorted(tokens[v] for v in row)) for row in lines[frame].tolist()]
    return B


def _apartment_words(B: SphericalBuilding):
    """(faces, row, packed, level), apartment membership in its one form, uint64 words.

    faces lists every face of X, levels -1..d in order, and row inverts it.
    Row i of packed holds the words of faces[i]: bit a % 64 of word a // 64
    says that it lies in B.apartments[a], and the empty face lies in every
    apartment; one last row of zeros takes the tuples of an apartment that are
    no faces of X. level[k] views the rows of the k-faces. Packed in numpy
    from the apartments' tuples, 64 apartments at a time, on first use, and
    kept in B.cache, so a building whose apartments are replaced before that
    is judged by its own tuples.
    """
    words = B.cache.get("apartment_words")
    if words is None:
        index = _face_index(B)
        faces = [f for level in index.values() for f in level.faces]
        row = {f: i for i, f in enumerate(faces)}
        packed = np.zeros((len(faces) + 1, -(-len(B.apartments) // 64)), dtype=np.uint64)
        for w in range(packed.shape[1]):
            apts = B.apartments[64 * w:64 * w + 64]
            at = np.fromiter(map(row.get, chain.from_iterable(apts), repeat(-1)), dtype=np.int64)
            bit = np.repeat(np.arange(len(apts), dtype=np.uint64), list(map(len, apts)))
            np.bitwise_or.at(packed[:, w], at, np.uint64(1) << bit)
            packed[0, w] = (1 << len(apts)) - 1
        level = {k: packed[row[lv.faces[0]]:][:len(lv.faces)] for k, lv in index.items()}
        words = B.cache["apartment_words"] = faces, row, packed, level
    return words


def _in_intersections(B: SphericalBuilding, sigma, taus, level=None):
    """[r in A_{sigma,tau}], a row per tau in taus by a column per r in X.faces(level), or in
    `_apartment_words` order when level is None. The a apartments of sigma are first packed
    into ceil(a / 64) words per face, by shifts and masks of the `_apartment_words`, so a read
    is one pass over them (one word on B(4,2)): r's words hold tau's. Raises PropertyViolation
    when sigma and some tau share no apartment."""
    faces, row, packed, _ = _apartment_words(B)
    place = np.arange(64, dtype=np.uint64)  # uint64 shifts and masks, as the packing uses
    a = np.flatnonzero(packed[row[sigma], :, None] >> place & 1)
    bit = packed.T[a // 64] >> place[a % 64, None] & 1  # a row per apartment of sigma
    own = np.bitwise_or.reduceat(bit << place[np.arange(len(a)) % 64, None], range(0, len(a), 64)).T
    lv = faces if level is None else B.complex.faces(level)
    rs, hits = own[row[lv[0]]:][:len(lv)], own[[row[tau] for tau in taus], None]
    if not (meets := hits.any(axis=2)).all():
        raise PropertyViolation(f"no apartment contains both {sigma} and {taus[meets.argmin()]}")
    return (rs & hits == hits).all(axis=2)


def _weights(B: SphericalBuilding, sigma, k: int, level=None):
    """W_sigma(r) = sum_tau deg_top(tau) [r in A_{sigma,tau}], tau over X.faces(k) and r as in
    `_in_intersections`: the LMM16 counting quantity as int64 numerators over
    X.weight_denominator(k), read by the summed bound at sigma_0 and by `cone_norms`."""
    X = B.complex
    return cosets.face_weights(X, k)[0] @ _in_intersections(B, sigma, X.faces(k), level)


class _Level(NamedTuple):
    """The k-faces of a building over vertex indices; see `_face_index`."""

    faces: tuple            # X.faces(k)
    pos: dict               # face -> its index in faces
    rows: np.ndarray        # (n, k+1) increasing vertex indices per face
    radix: np.ndarray       # (k+1,) place values of the mixed-radix keys
    keys: np.ndarray        # (n,) sorted keys of the rows
    sub: np.ndarray         # (n, k+1) index at level k-1 of the face minus vertex i


def _face_index(B: SphericalBuilding) -> dict:
    """k -> _Level of the k-faces for k = -1..d, built once and kept in B.cache.

    Vertices are numbered in X.vertices() order, so every face is an
    increasing row of vertex indices and the rows' mixed-radix keys sort as
    X.faces(k): np.searchsorted finds a face from its vertices.
    """
    index = B.cache.get("face_index")
    if index is None:
        X = B.complex
        pos = {v: i for i, v in enumerate(X.vertices())}
        cosets.require_int64(len(pos) ** (X.dim + 1), "face keys")
        index = {}
        for k in range(-1, X.dim + 1):
            faces = X.faces(k)
            rows = np.array([[pos[v] for v in f] for f in faces], dtype=np.int64)
            rows = rows.reshape(len(faces), k + 1)
            radix = len(pos) ** np.arange(k, -1, -1, dtype=np.int64)
            sub = np.array([
                np.searchsorted(index[k - 1].keys, np.delete(rows, i, axis=1) @ radix[1:])
                for i in range(k + 1)
            ], dtype=np.int64).reshape(k + 1, len(faces)).T
            index[k] = _Level(faces, {f: i for i, f in enumerate(faces)}, rows, radix,
                              rows @ radix, sub)
        B.cache["face_index"] = index
    return index


def _moved(level: _Level, rows):
    """(positions, on_X) for rows, (..., k+1) int64 vertex indices in any order,
    such as G[:, level.rows], the level's faces moved by each vertex permutation
    g of G: positions indexes the sorted row in the level where on_X holds, and
    means nothing where the row is no face of X."""
    keys = np.sort(rows, axis=-1) @ level.radix
    at = np.minimum(np.searchsorted(level.keys, keys), len(level.keys) - 1)
    return at, level.keys[at] == keys


def verify_building_axioms(B: SphericalBuilding):
    """Every pair of faces shares an apartment; each apartment has theta
    distinct faces and is the closure of its chambers."""
    X = B.complex
    top = X.dim + 1
    for apt in B.apartments:
        own = set(apt)
        if len(own) != B.theta:
            raise PropertyViolation("apartment sizes differ")
        closure = {
            f for c in apt if len(c) == top
            for r in range(1, top + 1) for f in combinations(c, r)
        }
        if closure != own:
            raise PropertyViolation("apartment is not the closure of its chambers")
    faces, _, packed, _ = _apartment_words(B)
    faces, words = faces[1:], packed[1:-1]  # the nonempty faces
    if not (own := words.any(axis=1)).all():
        raise PropertyViolation(f"face {faces[own.argmin()]} lies in no apartment")
    for i, f in enumerate(faces):
        shared = (words[i + 1:] & words[i]).any(axis=1)
        if not shared.all():
            g = faces[i + 1 + shared.argmin()]
            raise PropertyViolation(f"faces {f} and {g} share no apartment")
    return True


def intersection_complex(B: SphericalBuilding, sigma, taus) -> dict:
    """A_{sigma,tau} for every tau in taus, from one `_in_intersections` read: k -> the
    bool table [r in A_{sigma,tau}], a row per tau by a column per r in X.faces(k)."""
    row, inside = _apartment_words(B)[1], _in_intersections(B, sigma, taus)
    return {k: inside[:, row[lv.faces[0]]:][:, :len(lv.faces)] for k, lv in _face_index(B).items()}


def solve_boundary(B: SphericalBuilding, table: dict, k: int, target):
    """Integer (k+1)-chains inside A_{sigma,tau} whose boundaries are the k-chains target,
    for a block of taus at once, as ((tau, face, coeff) triplets, solved).

    table is the block's `intersection_complex` table and target a (taus, X.faces(k)) int64
    array of chains inside it. tau's system is A_{sigma,tau}'s transposed coboundary: a row
    per k-face and a column per (k+1)-face, both ascending, with (-1)^i where a column's
    subface i is the row, zero-padded to the block's largest; `cosets.unit_solve_stack`
    solves the whole stack. The triplets hold each filling's nonzero coefficients, tau
    (its row in the block) and then face ascending, and solved[tau] says whether target[tau]
    has a filling. The family over any other ring is the reduction of the integer family,
    so no other ring is ever solved in.
    """
    (t, r), (s, f) = np.nonzero(table[k]), np.nonzero(table[k + 1])
    pos = np.cumsum(table[k], axis=1) - 1  # a k-face's row in its tau's system
    j = np.arange(s.size) - np.searchsorted(s, s)  # a (k+1)-face's column
    A = np.zeros((len(target), pos.max() + 1, j.max(initial=-1) + 2), dtype=np.int64)
    A[t, pos[t, r], -1] = target[t, r]
    for i, r in enumerate(_face_index(B)[k + 1].sub[f].T):
        A[s, pos[s, r], j] = 1 - i % 2 * 2
    X, solved = cosets.unit_solve_stack(A)
    t, c = np.nonzero(X)
    return np.array([t, f[np.searchsorted(s, t) + c], X[t, c]]), solved


@dataclass(eq=False)
class ChainFamily(Mapping):
    """c_{sigma,tau} per chamber sigma of `tops` and face tau, with the boundary identity.

    Each entry satisfies, exactly and per ring,
        boundary(c_{sigma,tau}) = (-1)^{k+1} tau + sum_i (-1)^i c_{sigma,tau_i}.

    It is the arrays `chain_family` checked: moved[k] = (taus, tau, face, coeff)
    for k = -1..d-1, a row per chamber of `tops` (see `_transport`), reduced in
    the ring; `norm` is the largest coefficient sum of an entry. Read as a
    mapping (sigma, tau) -> Chain, each Chain is built on read, never kept.
    """

    building: SphericalBuilding
    ring: Ring
    tops: tuple
    moved: dict
    norm: int

    @property
    def entries(self):
        """The family itself, read as the mapping (sigma, tau) -> Chain."""
        return self

    def __post_init__(self):
        self.row_of = {sigma: c for c, sigma in enumerate(self.tops)}
        self.columns = {}  # k -> the entry lookup of `__getitem__`, built on first read
        self.last = (None,)  # the terms of `_checked_terms`

    def __len__(self):
        return sum(taus.size for taus, *_ in self.moved.values())

    def __iter__(self):
        index = _face_index(self.building)
        for c, sigma in enumerate(self.tops):
            for k, (taus, *_) in self.moved.items():
                yield from ((sigma, index[k].faces[t]) for t in taus[c].tolist())

    def __getitem__(self, key):
        index = _face_index(self.building)
        try:
            sigma, tau = key
            k = len(tau) - 1
            c, p, (taus, t, face, coeff) = self.row_of[sigma], index[k].pos[tau], self.moved[k]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if k not in self.columns:
            # each row's taus back to sigma_0's tau indices, and the triplet
            # columns of each, the same in every row: sigma_0's tau of column j is t0[j]
            inverse = np.argsort(taus, axis=1)
            t0 = inverse[0, t[0]]
            self.columns[k] = inverse, [np.flatnonzero(t0 == j) for j in range(taus.shape[1])]
        inverse, columns = self.columns[k]
        at = columns[inverse[c, p]]
        pairs = zip(face[c, at].tolist(), coeff[c, at].tolist())
        return Chain.trusted(self.ring, k + 1, {index[k + 1].faces[f]: v for f, v in pairs if v})


def chain_family(B: SphericalBuilding, ring: Ring, tops=None) -> ChainFamily:
    """The inductive family of filling chains, in the requested ring.

    Solved once, transported: the integer family is solved at the chamber
    sigma_0 = X.top_faces[0] (base point: the least vertex of A_{sigma_0,()})
    and moved to every other chamber sigma = g(sigma_0), g being sigma's row
    of the Schreier tree `chamber_transport`, as

        c_{sigma, sort(g tau)} = sign(g tau) * g c_{sigma_0, tau}.

    The move and its checks run on int64 arrays over the face index, for all
    requested chambers at once: the requested rows of the tree are the vertex
    permutations G, and `_transport` permutes sigma_0's (tau, face,
    coeff) triplets by each chamber's signed face permutation and checks
    every moved support against its apartment intersection; then every
    entry must be present, and the identity's residual, summed over Z per
    (sigma, tau) by `_identity_failure` for a block of chambers at a time,
    must reduce to zero in the ring.
    Only sigma_0's triplets, solved by `_integer_family_at`, are kept in
    B.cache. `tops` picks the chambers, each once (default: all of them).
    """
    X = B.complex
    tops = tuple(dict.fromkeys(tops)) if tops is not None else X.top_faces
    index = _face_index(B)
    for sigma in tops:
        if sigma not in index[X.dim].pos:
            raise FaceNotInComplex(f"{sigma} is not a top face")
    G = chamber_transport(B)[[index[X.dim].pos[sigma] for sigma in tops]]
    family0 = B.cache.get("family0")
    if family0 is None:
        family0 = B.cache["family0"] = _integer_family_at(B, X.top_faces[0])
    # a residual value sums tau, k + 1 subface entries and at most `most` boundary terms
    big = max(max(-int(v.min()), int(v.max())) for *_, v in family0.values())
    most = max(int(np.bincount(t).max()) for t, *_ in family0.values())
    cosets.require_int64(big * (X.dim + 1 + most), "chain family residuals")
    moved = _transport(B, family0, G)
    for k, (taus, *_) in moved.items():
        gap = np.sort(taus, axis=1) != np.arange(len(index[k].faces))  # first gap: least missing
        if gap.any():
            c, t = np.argwhere(gap)[0]
            raise PropertyViolation(f"chain family has no entry at {(tops[c], index[k].faces[t])}")
    # about 2 CHUNKs of triplets per check, so its sort keys and their copies stay small
    step = max(1, 2 * cosets.CHUNK // max(t.shape[1] for _, t, *_ in moved.values()))
    failures = [(bad[0], k, bad[1]) for k in moved for lo in range(0, len(tops), step)
                if (bad := _identity_failure(index, moved, k, ring, slice(lo, lo + step)))]
    if failures:
        c, k, t = min(failures)
        raise PropertyViolation(
            f"chain family identity failed at {(tops[c], index[k].faces[t])} over {ring}"
        )
    norm = 0
    for k, (taus, tau, face, coeff) in moved.items():
        moved[k] = (taus, tau, face, coeff := _reduced(ring, coeff))
        sums = np.zeros(taus.shape, dtype=object)  # exact at any modulus
        np.add.at(sums, (np.arange(len(taus))[:, None], tau), np.abs(coeff))
        norm = max(norm, int(sums.max(initial=0)))
    return ChainFamily(B, ring, tops, moved, norm)


def _transport(B: SphericalBuilding, family0: dict, G) -> dict:
    """sigma_0's integer (tau, face, coeff) triplets moved by each vertex permutation g in G.

    k -> (taus, tau, face, coeff), one row per g: taus[c, t] indexes
    sort(g_c tau_t) in X.faces(k), and the triplets (tau, face, coeff) carry
    g's image of each support face f of c_{sigma_0,tau} with coefficient
    perm_sign(g tau) perm_sign(g f) v, the sign being the parity of the
    inversions of g's vertex indices, in sigma_0's triplet order. A
    moved face that is not a face raises PropertyViolation, and so does one
    outside an apartment containing sigma = g sigma_0 and g tau: its packed
    apartment words must contain hits(sigma, g tau), word by word.
    """
    X = B.complex
    index, (*_, bits) = _face_index(B), _apartment_words(B)
    moved = {}
    for k in range(-1, X.dim + 1):
        img = G[:, index[k].rows]
        at, on_X = _moved(index[k], img)
        if not on_X.all():
            raise PropertyViolation(f"a chamber's vertex permutation moves a {k}-face off X")
        odd = np.triu(img[..., :, None] > img[..., None, :], 1).sum(axis=(2, 3))
        moved[k] = (at, 1 - 2 * (odd % 2))
    chambers = moved[X.dim][0][:, 0]
    words = bits[X.dim][chambers]
    out = {}
    for k, (t, f, v) in family0.items():
        (taus, tsign), (faces, fsign) = moved[k], moved[k + 1]
        tau, face, coeff = taus[:, t], faces[:, f], tsign[:, t] * fsign[:, f] * v
        meets = np.zeros(taus.shape, dtype=bool)
        inside = np.ones(tau.shape, dtype=bool)
        for w in range(words.shape[1]):
            hits = words[:, w, None] & bits[k][taus, w]
            meets |= hits != 0
            inside &= bits[k + 1][face, w] & hits[:, t] == hits[:, t]
        if not meets.all():
            c, j = np.argwhere(~meets)[0]
            raise PropertyViolation(f"no apartment contains both "
                                    f"{X.top_faces[chambers[c]]} and {index[k].faces[taus[c, j]]}")
        if not inside.all():
            c, j = np.argwhere(~inside)[0]
            key = (X.top_faces[chambers[c]], index[k].faces[tau[c, j]])
            raise PropertyViolation(f"transported chain for {key} leaves its domain")
        out[k] = (taus, tau, face, coeff)
    return out


def _identity_failure(index: dict, moved: dict, k: int, ring: Ring, rows: slice):
    """(chamber, tau) of the least entry at dimension k, chamber among rows, whose residual

        (-1)^{k+1} tau + sum_i (-1)^i c_{sigma,tau_i} - boundary(c_{sigma,tau})

    is nonzero in the ring, else None. The residual's terms are keyed by
    (chamber, tau, face) and summed by sort and np.add.reduceat.
    """
    taus, tau, face, coeff = (a[rows] for a in moved[k])
    chamber, n = np.arange(len(moved[k][0]))[rows, None], taus.shape[1]
    terms = [(chamber, taus, taus, np.full(taus.shape, (-1) ** (k + 1)))]
    terms += [(chamber, tau, index[k + 1].sub[face, i], -(-1) ** i * coeff) for i in range(k + 2)]
    if k >= 0:
        # c_{sigma,rho} enters at each coface tau of rho = tau minus vertex i
        _, rho, face, coeff = (a[rows] for a in moved[k - 1])
        order = np.argsort(index[k].sub, axis=None, kind="stable")
        start = np.searchsorted(index[k].sub.ravel()[order], np.arange(len(index[k - 1].faces) + 1))
        count = (start[1:] - start[:-1])[rho].ravel()
        rep = np.repeat(np.arange(rho.size), count)
        at = order[start[rho.ravel()[rep]] + np.arange(rep.size)
                   - np.repeat(np.cumsum(count) - count, count)]
        terms.append((rows.start + rep // rho.shape[1], at // (k + 1), face.ravel()[rep],
                      coeff.ravel()[rep] * (1 - 2 * (at % (k + 1)))))
    key = np.concatenate([((c * n + t) * n + f).ravel() for c, t, f, _ in terms])
    val = np.concatenate([v.ravel() for *_, v in terms])
    del terms  # before the sort makes its copies
    order = np.argsort(key, kind="stable")  # merges the runs the parts come in
    key, val = key[order], val[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
    bad = starts[_reduced(ring, np.add.reduceat(val, starts)) != 0]
    return divmod(int(key[bad[0]]) // n, n) if bad.size else None


def _reduced(ring: Ring, values):
    """int64 values reduced in the ring (as an object array past int64)."""
    if ring.is_finite:
        return (values.astype(object) if ring.modulus > cosets.INT64_MAX else values) % ring.modulus
    return values


_TAUS = 64  # the taus of one intersection read and one solve_boundary call


def _integer_family_at(B: SphericalBuilding, sigma) -> dict:
    """sigma's integer family, k -> int64 (tau, face, coeff) triplet arrays
    over the face index: per tau, c_{sigma,tau}'s nonzero faces, ascending.

    c_{sigma,()} is the least vertex of A_{sigma,()}. Then level by level, _TAUS faces tau
    at a time, from one `intersection_complex` table per block: each target (-1)^{k+1} tau +
    sum_i (-1)^i c_{sigma,tau_i} is one int64 row over X.faces(k), the level below's chains
    laid out as a dense table and gathered through the subface table; as array operations
    over the block, its support must lie in A_{sigma,tau} and its boundary must vanish
    (augmented at k = 0), and `solve_boundary` fills the whole block. The least tau whose
    target leaves its domain, is not a cycle or has no filling, checked in that order,
    raises PropertyViolation.
    """
    index = _face_index(B)
    family = {-1: np.array([[0], [intersection_complex(B, sigma, [()])[0].argmax()], [1]])}
    for k in range(B.dim):
        below = np.zeros((len(index[k - 1].faces), len(index[k].faces)), dtype=np.int64)
        below[tuple(family[k - 1][:2])], blocks = family[k - 1][2], []  # c_{sigma,rho} by rows
        signs = np.resize([1, -1], k + 1)
        for lo in range(0, len(index[k].faces), _TAUS):
            taus, sub = index[k].faces[lo:lo + _TAUS], index[k].sub[lo:lo + _TAUS]
            table, target = intersection_complex(B, sigma, taus), signs @ below[sub]
            target[range(len(taus)), range(lo, lo + len(taus))] += (-1) ** (k + 1)
            r, g = np.nonzero(target)
            rim = np.zeros((len(taus), len(index[k - 1].faces)), dtype=np.int64)
            np.add.at(rim, (r[:, None], index[k].sub[g]), target[r, g, None] * signs)
            found, solved = solve_boundary(B, table, k, target)
            bad = np.array([((target != 0) & ~table[k]).any(axis=1), rim.any(axis=1), ~solved])
            if bad.any():
                c = bad.any(axis=0).argmax()
                why = ("leaves its domain", "is not a cycle", "has no filling")[bad[:, c].argmax()]
                raise PropertyViolation(f"family target for {(sigma, taus[c])} {why}")
            blocks.append(found + [[lo], [0], [0]])
        family[k] = np.concatenate(blocks, axis=1)
    return family


def _iota(fam: ChainFamily, rows, k: int, fv):
    """(iota_sigma f)(rho) = (-1)^k <f, c_{sigma,rho}>, rho over X.faces(k-1), for the
    k-cochain f with int64 values fv over X.faces(k): one row per chamber of fam at
    `rows`, a slice or a list of row positions. Callers bound the sums first."""
    cosets.require_int64(fam.norm, "chain family coefficients")
    tau, face, coeff = (a[rows] for a in fam.moved[k - 1][1:])
    n = len(_face_index(fam.building)[k - 1].faces)
    out = np.zeros(len(tau) * n, dtype=np.int64)
    np.add.at(out, (np.arange(len(tau))[:, None] * n + tau).ravel(), (coeff * fv[face]).ravel())
    return (-1) ** k * out.reshape(len(tau), n)


def _checked_vector(fam, f, name, top, reach):
    """f as an int64 vector over X.faces(k), once f is over fam's ring, 0 <= k <= top,
    and reach * max|f| fits in int64 ("`name` sums"): the checks every iota reads."""
    if f.ring != fam.ring:
        raise RingMismatch(f"{f.ring} vs {fam.ring}")
    if not 0 <= f.dim <= top:
        raise DimensionOutOfRange(f"the {name} check needs 0 <= k <= {top}")
    cosets.require_int64(max(map(abs, f.values.values()), default=0) * reach, f"{name} sums")
    return np.array(cochain_vector(f), dtype=np.int64)


def contraction(fam: ChainFamily, sigma, f: Cochain) -> Cochain:
    """(iota_sigma f)(tau) = (-1)^k <f, c_{sigma,tau}> one dimension down:
    sigma's row of the `_iota` kernel."""
    X, k = fam.building.complex, f.dim
    fv = _checked_vector(fam, f, "contraction", X.dim, fam.norm)
    if sigma not in fam.row_of:
        raise FaceNotInComplex(f"the chain family has no entries at {sigma}")
    row = _iota(fam, [fam.row_of[sigma]], k, fv)[0]
    return vector_cochain(X, fam.ring, k - 1, row.tolist())


def _checked_terms(fam, f, name):
    """`_cone_terms` of f once f is checked, k < d: |f| <= big bounds delta f by
    (k+2) big, iota f by norm big, the identity by (1+(2k+3)norm) big. The terms
    of the last f are kept on fam and reused while f's values stay the same,
    since the audit asks both `homotopy_failure` and `cone_norms` about each f."""
    k = f.dim
    fv = _checked_vector(fam, f, name, fam.building.dim - 1, 1 + (2 * k + 3) * fam.norm)
    key = k, fv.tobytes()
    if fam.last[0] != key:
        fam.last = key, _cone_terms(fam, k, fv)
    return fam.last[1]


def _cone_terms(fam, k, fv):
    """(face index, f, delta f, iota(delta f) at every row of fam) as int64 arrays
    for the homotopy identity and the cone inequality, f a k-cochain with values fv."""
    index = _face_index(fam.building)
    df = fv[index[k + 1].sub] @ np.resize([1, -1], k + 2)
    return index, fv, df, _iota(fam, slice(None), k + 1, df)


def homotopy_failure(fam: ChainFamily, f: Cochain):
    """The first chamber sigma with delta iota_sigma f + iota_sigma delta f != f, else None.

    Every chamber at once: the `_iota` kernel on every row of fam, for f and
    for delta f; the first failing chamber is the first in X.top_faces order.
    """
    X, k = fam.building.complex, f.dim
    index, fv, _, up = _checked_terms(fam, f, "homotopy")
    if len(fam.tops) < len(X.top_faces):
        missing = next(sigma for sigma in X.top_faces if sigma not in fam.tops)
        raise FaceNotInComplex(f"the chain family has no entries at {missing}")
    lhs = _iota(fam, slice(None), k, fv)[:, index[k].sub] @ np.resize([1, -1], k + 1) + up - fv
    bad = (_reduced(fam.ring, lhs) != 0).any(axis=1).tolist()
    return min(compress(fam.tops, bad), key=index[X.dim].pos.get, default=None)


def cone_norms(fam: ChainFamily, f: Cochain):
    """The LMM16 cone inequality at each chamber sigma of fam.tops, in order:

        ||iota_sigma(delta f)|| <= sum_tau w(tau) |supp(delta f) & A_{sigma,tau}|,

    tau over X.faces(k), as int64 arrays (lhs, rhs) of numerators over
    X.weight_denominator(k), supports in the ring. Where the homotopy identity
    holds, g = iota_sigma(delta f) = f - delta(iota_sigma f), so lhs = ||g||
    bounds dist(f, B^k). rhs reads sigma's row of `_weights` over the (k+1)-faces,
    built on first use and kept in B.cache per (k, chamber).
    """
    B, k = fam.building, f.dim
    *_, df, up = _checked_terms(fam, f, "cone")
    rows = B.cache.setdefault(("cone_weights", k), {})
    rows.update({sigma: _weights(B, sigma, k, k + 1) for sigma in fam.tops if sigma not in rows})
    table = np.array([rows[sigma] for sigma in fam.tops], dtype=np.int64).reshape(-1, df.size)
    return ((_reduced(fam.ring, up) != 0) @ cosets.face_weights(B.complex, k)[0],
            table @ (_reduced(fam.ring, df) != 0))


# -- symmetry ------------------------------------------------------------------------


def generator_actions(B: SphericalBuilding) -> np.ndarray:
    """Vertex permutations generating G = PGL(n, q), in a fixed order, as an
    (S, V) int64 array over the vertex positions of `_face_index`.

    First the transvections E_ij(a), a over every nonzero element of GF(q):
    they generate SL(n, q), which is transitive on chambers (E_ij(1) alone
    generates only SL(n, p) when q = p^m with m > 1). Then, when q > 2,
    diag(w, 1, ..., 1) with w a generator of GF(q)^x, which supplies every
    determinant, so the list generates GL(n, q) and hence PGL(n, q).

    M acts through the lines: `gf.line_images` sends the line of v to the line
    of v M, and a subspace goes to the span of the images of its lines, folded
    through the join table of `subspace_tables`.
    """
    n, q = B.n, B.q
    mats = transvections(n, range(1, q))
    if q > 2:
        mats.append(np.eye(n, dtype=np.int64))
        mats[-1][0, 0] = primitive_element(B.gf)
    image = line_images(B.gf, n, mats)
    bases, lines, _, join = subspace_tables(B.gf, n)
    pos = _face_index(B)[0].pos
    vertex = np.array([pos[subspace_token(b),] for b in bases])
    out = np.empty((len(mats), len(bases)), dtype=np.int64)  # vertex covers every column
    for U, on in enumerate(lines):
        span = image[:, on.argmax()]
        for line in np.flatnonzero(on):
            span = join[span, image[:, line]]
        out[:, vertex[U]] = vertex[span]
    return out


def chamber_transport(B: SphericalBuilding) -> np.ndarray:
    """The Schreier tree of the chambers: a (C, V) int64 array whose row c is
    a vertex permutation g_c with g_c(sigma_0) = X.top_faces[c].

    Breadth-first from sigma_0 = X.top_faces[0] over the table of chamber
    images under the `generator_actions`, chambers in queue order and
    generators in their order; a chamber first reached from its parent by
    generator s gets g_child = s g_parent, so g_c is the product of the
    generators along the tree path. Kept in B.cache. Raises
    PropertyViolation when a generator moves a chamber off X or the
    generators miss a chamber.
    """
    tree = B.cache.get("schreier")
    if tree is not None:
        return tree
    gens = generator_actions(B)
    top = _face_index(B)[B.dim]
    images, on_X = _moved(top, gens[:, top.rows])
    if not on_X.all():
        raise PropertyViolation("a generator moves a chamber off the complex")
    tree = np.full((images.shape[1], gens.shape[1]), -1, dtype=np.int64)  # -1: not reached
    tree[0] = np.arange(gens.shape[1])
    queue = [0]
    for parent in queue:
        for s, child in enumerate(images[:, parent].tolist()):
            if tree[child, 0] < 0:
                tree[child] = gens[s][tree[parent]]
                queue.append(child)
    if len(queue) != len(tree):
        raise PropertyViolation(f"the generators reach {len(queue)} of {len(tree)} chambers")
    B.cache["schreier"] = tree
    return tree


@dataclass
class SymmetryReport:
    group_order: int
    orbit_counts: dict          # dimension -> number of orbits
    transitive_on_top: bool
    stabilizer_bound_ok: bool
    summed_bound_ok: bool
    apartment_equivariance_ok: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.transitive_on_top and self.stabilizer_bound_ok
                and self.summed_bound_ok and self.apartment_equivariance_ok)

    def to_json(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}
        return {**out, "orbit_counts": {str(k): v for k, v in self.orbit_counts.items()}}


def _face_orbits(B: SphericalBuilding, gens) -> dict:
    """Dimension -> the orbits of its faces under the group the gens generate.

    Each orbit is closed breadth-first over face positions, through the
    `_moved` table of each face's images under the generators: faces x
    generators work, never |G|. Images off the complex are not followed; a
    permutation making them is no automorphism, which check (a) of
    `symmetry_checks` reports.
    """
    index = _face_index(B)
    out = {}
    for k in range(0, B.dim + 1):
        at, on_X = _moved(index[k], gens[:, index[k].rows])
        images = np.where(on_X, at, -1).T.tolist()
        seen = [False] * len(images)
        out[k] = []
        for f in range(len(images)):
            if not seen[f]:
                seen[f] = True
                orbit = [f]
                for g in orbit:
                    for image in sorted(set(images[g])):
                        if image >= 0 and not seen[image]:
                            seen[image] = True
                            orbit.append(image)
                out[k].append([index[k].faces[i] for i in orbit])
    return out


def _summed_totals(B: SphericalBuilding, k: int, orbits: dict) -> dict:
    """Face r -> sum of ||tau|| over the pairs (sigma, tau) with r in A_{sigma,tau}.

    sigma runs over the chambers and tau over the k-faces; each sum is kept
    as its numerator over weight_denominator(k), averaged over `_face_orbits`
    from the sums T_0 = `_weights` at sigma_0 = X.top_faces[0] (see `symmetry_checks`).
    An orbit whose division is not exact raises PropertyViolation.
    """
    X = B.complex
    t0 = dict(zip(_apartment_words(B)[0], _weights(B, X.top_faces[0], k).tolist()))
    totals = {}
    for orbit in [o for per_dim in orbits.values() for o in per_dim] + [[()]]:
        total, rem = divmod(len(X.top_faces) * sum(t0[rho] for rho in orbit), len(orbit))
        if rem:
            raise PropertyViolation(f"the totals over the orbit of {orbit[0]} do not divide")
        totals.update(dict.fromkeys(orbit, total))
    return totals


def symmetry_checks(B: SphericalBuilding, seed=0) -> SymmetryReport:
    """Orbits, the stabilizer bound, and the apartment-counting bound.

    G = PGL(n, q) acts on subspaces through `generator_actions`. Orbits come
    from closing each face under the generators, |G| from the closed formula
    prod (q^n - q^i) / (q - 1), and stabilizer orders by orbit-stabilizer,
    |G_r| = |G| / |orbit(r)|; an orbit size that does not divide |G| raises
    PropertyViolation. Reports the orbit count per dimension (duality is not
    included, so vertex types are separate orbits), requires transitivity on
    the top faces, and checks for every face r and every -1 <= k <= d-1:

        deg_top(r) * |orbit(r)| >= |X(d)|         (stabilizer bound)
        sum over pairs with r in A_{sigma,tau} of ||tau|| <= theta * deg_top(r)

    the first being |G| deg_top(r) >= |X(d)| |G_r|. Each generator s is proved
    to (a) map X(d) onto X(d), so s is an automorphism and deg_top and the
    weights are s-invariant, and (b) map each apartment's chambers onto some
    apartment's chambers, so s permutes the apartments (each the closure of
    its chambers) and g A_{sigma,tau} = A_{g sigma, g tau} for g in G. Both
    read the `_moved` table of chamber images: (a) holds when each row is a
    permutation of the chamber positions with no image off X, (b) when each
    apartment's sorted chamber positions, moved, are some apartment's. Double
    counting over the orbit O of r, by transitivity on chambers, then gives
    |O| total(r) = |X(d)| sum_{r' in O} T_0(r'); else the summed bound is false.
    Nothing is sampled: seed is accepted and unused, because the CLI and the
    perfbench workloads pass it.
    """
    X = B.complex
    gens = generator_actions(B)
    order = pgl_order(B.n, B.q)
    orbits = _face_orbits(B, gens)
    orbit_counts = {k: len(v) for k, v in orbits.items()}
    transitive_top = orbit_counts[X.dim] == 1

    orbit_size = {f: len(o) for per_dim in orbits.values() for o in per_dim for f in o}
    orbit_size[()] = 1
    stab_ok = True
    stab_detail = {}
    for rho, size in orbit_size.items():
        if order % size:
            raise PropertyViolation(
                f"the orbit of {rho} has {size} faces, which does not divide |G| = {order}"
            )
        stab_detail[rho] = order // size
        if X.deg_top(rho) * size < len(X.top_faces):
            stab_ok = False

    top = _face_index(B)[X.dim]
    images, on_X = _moved(top, gens[:, top.rows])
    words = _apartment_words(B)[3][X.dim]  # each apartment's chamber positions, below
    known = {tuple(np.flatnonzero(words[:, i // 64] >> i % 64 & 1))
             for i in range(len(B.apartments))}
    equiv_ok = bool(
        on_X.all() and (np.sort(images, axis=1) == np.arange(len(top.faces))).all()  # (a)
        and all(tuple(A) in known  # (b)
                for per in np.sort(images[:, sorted(known)], axis=-1).tolist() for A in per)
    )

    summed_ok = transitive_top and equiv_ok
    if transitive_top:
        for k in range(-1, X.dim):
            for rho, total in _summed_totals(B, k, orbits).items():
                if total > B.theta * X.deg_top(rho) * X.weight_denominator(k):
                    summed_ok = False
    return SymmetryReport(
        order, orbit_counts, transitive_top, stab_ok, summed_ok, equiv_ok,
        details={"stabilizers": stab_detail},
    )


# -- the expansion audit -----------------------------------------------------------------


@dataclass
class BuildingAuditReport:
    n: int
    q: int
    theta: int
    beta_theorem: Fraction
    beta_proof: dict                 # k -> sharper per-dimension constant
    epsilon: dict                    # (ring string, k) -> Fraction
    epsilon_ok: bool
    homotopy_ok: bool
    chain_family_ok: bool
    homological_ok: bool
    cohomology_trivial_below_top: bool

    @property
    def ok(self) -> bool:
        return (self.epsilon_ok and self.homotopy_ok and self.chain_family_ok
                and self.homological_ok and self.cohomology_trivial_below_top)

    def to_json(self):
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "beta_theorem": frac_json(self.beta_theorem),
            "beta_proof": {str(k): frac_json(v) for k, v in self.beta_proof.items()},
            "epsilon": {f"{ring}:k={k}": frac_json(v) for (ring, k), v in self.epsilon.items()},
        }


def beta_constants(B: SphericalBuilding):
    """The theorem's 1/(2^d theta) and the proof's {k: 1/(theta C(d+1, k+2))}, k < d."""
    d = B.dim
    return Fraction(1, 2 ** d * B.theta), {
        k: Fraction(1, B.theta * comb(d + 1, k + 2)) for k in range(0, d)
    }


def building_expansion_audit(
    B: SphericalBuilding,
    ring: Ring,
    seed=0,
    samples=50,
    eps_rings=None,
) -> BuildingAuditReport:
    """Measure coboundary expansion and verify the structural identities.

    epsilon is measured exhaustively per dimension over the finite rings in
    eps_rings (default F2; coset scans over Z are impossible). The homotopy
    identity, the chain-family identity and the homological distance bound
    run over the requested ring, which may be Z; the distance bound is the
    `cone_norms` inequality at every chamber, on the homotopy check's draws.
    The building axioms are verified first, so an apartment that is not the
    closure of its chambers raises PropertyViolation before anything is
    measured.
    """
    from .expansion import coboundary_epsilon
    from .lattice import integer_cohomology

    if samples < 1:
        raise ParameterOutOfRange(f"need samples >= 1 cochains per dimension, got {samples}")
    verify_building_axioms(B)
    X = B.complex
    d = X.dim
    rng = random.Random(seed)
    if eps_rings is None:
        eps_rings = (prime_field(2),)
    beta_theorem, beta_proof = beta_constants(B)
    eps = {(str(r), k): coboundary_epsilon(X, r, k).epsilon for r in eps_rings for k in range(0, d)}
    eps_ok = all(e >= max(beta_theorem, beta_proof[k]) for (_, k), e in eps.items())

    fam = chain_family(B, ring)  # verifies its identity on construction
    homotopy_ok = homological_ok = True
    for f in [random_cochain(X, ring, k, rng) for k in range(0, d) for _ in range(samples)]:
        homotopy_ok &= homotopy_failure(fam, f) is None
        homological_ok &= bool(np.less_equal(*cone_norms(fam, f)).all())

    cohom_ok = all(
        H.free_rank == 0 and not H.torsion
        for H in (integer_cohomology(X, k) for k in range(0, d))
    )
    return BuildingAuditReport(
        B.n, B.q, B.theta, beta_theorem, beta_proof, eps, eps_ok,
        homotopy_ok, True, homological_ok, cohom_ok,
    )
