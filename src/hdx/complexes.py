"""Pure simplicial complexes with the top-down random-face measure.

A face is a sorted tuple of string vertex tokens; the empty face () sits at
dimension -1 and is stored explicitly. A complex is built once from its top
faces and is immutable afterwards, so every query is pure and instances can
be shared freely between threads.

The weight of a k-face is the probability of seeing it at step k of the
random chain that draws a top face uniformly and deletes one uniformly random
vertex at a time:

    weight(s) = deg_top(s) / (|X(d)| * C(d+1, k+1)),

where deg_top(s) counts the top faces containing s. All weights are exact
`fractions.Fraction` values; there is no floating point anywhere in the core.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import (
    DimensionOutOfRange,
    DuplicateVertexInFace,
    EmptyInput,
    FaceNotInComplex,
    ImpureComplex,
    InputFormatError,
    MixedDimensions,
)

Face = tuple  # sorted tuple of vertex tokens


def make_face(tokens) -> Face:
    """Validate tokens and return the canonical (sorted) face."""
    toks = tuple(tokens)
    for t in toks:
        if not isinstance(t, str) or not t or any(c.isspace() for c in t):
            raise InputFormatError(f"bad vertex token {t!r}")
    if len(set(toks)) != len(toks):
        raise DuplicateVertexInFace(f"repeated vertex in face {toks}")
    return tuple(sorted(toks))


class SimplicialComplex:
    """Immutable pure d-dimensional complex with exact face weights."""

    __slots__ = (
        "_faces", "_face_sets", "dim", "_deg_top", "_den", "_links",
        "_cofaces", "cache",
    )

    def __init__(self, faces_by_dim):
        # internal constructor: faces_by_dim must already be downward closed
        self._faces = {k: tuple(sorted(fs)) for k, fs in faces_by_dim.items()}
        self._face_sets = {k: frozenset(fs) for k, fs in self._faces.items()}
        self.dim = max(self._faces)
        d = self.dim
        top = self._faces[d]
        deg = {}
        for tau in top:
            for c in range(len(tau) + 1):
                for sub in combinations(tau, c):
                    deg[sub] = deg.get(sub, 0) + 1
        self._deg_top = deg
        self._den = {k: len(top) * comb(d + 1, k + 1) for k in self._faces}
        self._links = {}
        self._cofaces = {}
        self.cache = {}  # cross-module memo (subgroup enumerations etc.)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_top_faces(cls, top_faces) -> "SimplicialComplex":
        """Downward closure of the given faces; rejects impure results."""
        tops = [tuple(sorted(f)) for f in top_faces]
        if not tops:
            raise EmptyInput("no top faces given")
        faces_by_dim = {}
        for f in tops:
            for c in range(len(f) + 1):
                for sub in combinations(f, c):
                    faces_by_dim.setdefault(len(sub) - 1, set()).add(sub)
        d = max(faces_by_dim)
        pure = set()
        for f in faces_by_dim[d]:
            for c in range(len(f) + 1):
                for sub in combinations(f, c):
                    pure.add(sub)
        for k, fs in faces_by_dim.items():
            stray = fs - pure
            if stray:
                bad = min(stray)
                raise ImpureComplex(
                    f"face {bad} of dimension {len(bad) - 1} lies in no "
                    f"{d}-dimensional face"
                )
        return cls(faces_by_dim)

    # -- queries ----------------------------------------------------------

    def faces(self, k) -> tuple:
        """Sorted tuple of the k-faces (empty tuple when out of range)."""
        return self._faces.get(k, ())

    def has_face(self, sigma) -> bool:
        return sigma in self._face_sets.get(len(sigma) - 1, frozenset())

    @property
    def top_faces(self) -> tuple:
        return self._faces[self.dim]

    def vertices(self) -> tuple:
        return tuple(f[0] for f in self.faces(0))

    def deg_top(self, sigma) -> int:
        """Number of top faces containing sigma."""
        if not self.has_face(sigma):
            raise FaceNotInComplex(f"{sigma} is not a face")
        return self._deg_top[sigma]

    def weight(self, sigma) -> Fraction:
        """Probability that the random face chain passes through sigma."""
        if not self.has_face(sigma):
            raise FaceNotInComplex(f"{sigma} is not a face")
        k = len(sigma) - 1
        return Fraction(self._deg_top[sigma], self._den[k])

    def weight_denominator(self, k) -> int:
        """Common denominator |X(d)| * C(d+1, k+1) of the k-face weights."""
        if k not in self._faces:
            raise DimensionOutOfRange(f"no faces of dimension {k}")
        return self._den[k]

    def norm(self, faces) -> Fraction:
        """Total weight of a set of faces of one common dimension."""
        faces = list(faces)
        if not faces:
            return Fraction(0)
        dims = {len(f) - 1 for f in faces}
        if len(dims) != 1:
            raise MixedDimensions(f"mixed face dimensions {sorted(dims)}")
        k = dims.pop()
        num = 0
        seen = set()
        for f in faces:
            if f in seen:
                continue
            seen.add(f)
            if not self.has_face(f):
                raise FaceNotInComplex(f"{f} is not a face")
            num += self._deg_top[f]
        return Fraction(num, self._den[k])

    def cofaces(self, sigma) -> tuple:
        """Faces one dimension above sigma that contain it."""
        if not self.has_face(sigma):
            raise FaceNotInComplex(f"{sigma} is not a face")
        return self.coface_table(len(sigma) - 1)[sigma][0]

    def coface_table(self, k) -> dict:
        """The column view of the k-coboundary, built once per k: each k-face
        maps to (cofaces, columns, signs), the (k+1)-faces containing it in
        order, their positions in faces(k+1), and the sign (-1)^i of the
        position i at which each coface drops a vertex to give the k-face."""
        if k not in self._cofaces:
            table = {f: ([], [], []) for f in self._faces.get(k, ())}
            for j, tau in enumerate(self._faces.get(k + 1, ())):
                for i in range(len(tau)):
                    up, cols, signs = table[tau[:i] + tau[i + 1:]]
                    up.append(tau)
                    cols.append(j)
                    signs.append(-1 if i % 2 else 1)
            self._cofaces[k] = {f: tuple(map(tuple, v)) for f, v in table.items()}
        return self._cofaces[k]

    @property
    def top_degrees(self) -> dict:
        """deg_top of every face, the empty face included, read without checks."""
        return self._deg_top

    def link(self, sigma) -> "SimplicialComplex":
        """The complex {tau \\ sigma : sigma subset tau}; link of () is X itself."""
        if sigma == ():
            return self
        if not self.has_face(sigma):
            raise FaceNotInComplex(f"{sigma} is not a face")
        if sigma not in self._links:
            ss = set(sigma)
            tops = [
                tuple(v for v in tau if v not in ss)
                for tau in self.top_faces
                if ss.issubset(tau)
            ]
            faces_by_dim = {}
            for f in tops:
                for c in range(len(f) + 1):
                    for sub in combinations(f, c):
                        faces_by_dim.setdefault(len(sub) - 1, set()).add(sub)
            self._links[sigma] = SimplicialComplex(faces_by_dim)
        return self._links[sigma]

    def skeleton(self, k) -> "SimplicialComplex":
        """Subcomplex of the faces of dimension at most k."""
        if not 0 <= k <= self.dim:
            raise DimensionOutOfRange(f"skeleton dimension {k} not in 0..{self.dim}")
        if k == self.dim:
            return self
        return SimplicialComplex({j: fs for j, fs in self._faces.items() if j <= k})

    def degree_bound(self) -> int:
        """Max over vertices of the number of nonempty faces of their link."""
        best = 0
        for v in self.faces(0):
            count = sum(
                1
                for k in range(1, self.dim + 1)
                for tau in self._faces.get(k, ())
                if v[0] in tau
            )
            best = max(best, count)
        return best

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._faces == other._faces

    def __hash__(self):
        return hash(tuple(sorted((k, v) for k, v in self._faces.items())))

    def __repr__(self):
        counts = ", ".join(f"{k}:{len(v)}" for k, v in sorted(self._faces.items()))
        return f"SimplicialComplex(dim={self.dim}, faces={{{counts}}})"


# -- module-level operation surface ---------------------------------------------


def build_complex(top_faces) -> SimplicialComplex:
    """Downward closure of the given vertex-token sequences.

    Rejects empty input, repeated vertices inside a face, and impure closures
    (a face contained in no top-dimensional face).
    """
    seqs = list(top_faces)
    if not seqs:
        raise EmptyInput("no faces given")
    faces = []
    for seq in seqs:
        toks = seq.split() if isinstance(seq, str) else list(seq)
        if not toks:
            raise EmptyInput("empty face in input")
        faces.append(make_face(toks))
    return SimplicialComplex.from_top_faces(faces)


def face_weight(X, sigma) -> Fraction:
    return X.weight(sigma)


def set_norm(X, faces) -> Fraction:
    return X.norm(faces)


def frac_json(x: Fraction) -> dict:
    """A rational as the JSON object {num, den}, in lowest terms."""
    return {"num": x.numerator, "den": x.denominator}


def link(X, sigma) -> SimplicialComplex:
    return X.link(sigma)


def skeleton(X, k) -> SimplicialComplex:
    return X.skeleton(k)


def degree_bound(X) -> int:
    return X.degree_bound()


# -- text format ---------------------------------------------------------------


def parse_complex_text(text) -> SimplicialComplex:
    """One top face per line as whitespace-separated tokens; '#' comments."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise EmptyInput("complex text contains no faces")
    return build_complex(lines)


def complex_to_text(X) -> str:
    """Canonical serialization: top faces sorted lexicographically."""
    return "\n".join(" ".join(f) for f in X.top_faces) + "\n"


def load_complex(path) -> SimplicialComplex:
    """The complex in the UTF-8 text file at path; a decode error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise
    return parse_complex_text(text)
