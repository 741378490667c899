"""The four benchmark workloads: seeded inputs, timed operations, answer checks.

A workload is a `Workload(setup, ops)` pair. `setup(seed)` makes the inputs
(untimed, but counted in set-up time); `ops(inputs)` returns the operations in
the order they run, each an `Op` whose `call(state)` is timed and whose
`check(state, result)` runs afterwards, outside the timed region, and returns
`(answers, failures)`: the number of answers it checked and a list of
descriptions of the wrong ones. Operations share a `state` dict, so a later
operation can use an earlier one's result (a building, say).

The seed picks vertex relabellings, sampled top faces and random complexes;
the operation mix and the input sizes never depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

import numpy as np

import hdx.building as building
import hdx.cli as cli
import hdx.cochains as cochains
import hdx.expansion as expansion
import hdx.lattice as lattice
from hdx.catalog import named_complex
from hdx.complexes import build_complex
from hdx.rings import INTEGERS, modular_ring, prime_field

from algebra import coset_floor, disjoint_supports, lattice_floor, norm_num, relabel

HERE = os.path.dirname(os.path.abspath(__file__))
F2, F3, F5 = prime_field(2), prime_field(3), prime_field(5)


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable


@dataclass
class Workload:
    setup: Callable
    ops: Callable


def _no_check(state, result):
    return 1, []


# -- verify ------------------------------------------------------------------


def _verify_setup(seed):
    with open(os.path.join(HERE, "golden", "8.out"), encoding="utf-8") as fh:
        golden = fh.read()  # the README oracle's `hdx verify --seed 0` transcript
    return {"seed": seed, "golden": golden}


def _verify_ops(inp):
    """`hdx verify --seed <seed>` through the CLI entry point, stdout captured.

    The check names, their PASS status and the summary line must match the
    seed-0 golden (details such as instance counts depend on the seed); the
    byte-for-byte `verify --seed 0` comparison is the README oracle's.
    """
    seed = inp["seed"]

    def call(st):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--seed", str(seed)])
        return code, out.getvalue()

    def check(state, result):
        code, text = result
        want, got = inp["golden"].splitlines(), text.splitlines()
        bad = [line for line in got[:-1] if not line.startswith("PASS")]
        if code != 0:
            bad.append(f"exit code {code}")
        if [line.split()[:2] for line in got[:-1]] != [line.split()[:2] for line in want[:-1]]:
            bad.append("the checks run differ from the golden's")
        if got[-1:] != [want[-1].replace("(seed 0)", f"(seed {seed})")]:
            bad.append(f"summary line {got[-1:]}")
        return len(want) - 1, bad

    return [Op("hdx verify", call, check)]


# -- coset-scan ----------------------------------------------------------------

# (complex, ring, k); each gets coboundary_epsilon and cosystolic_pair
SCAN_CASES = [
    ("building:n=3,q=2", "F3", 0),
    ("rp2", "F3", 1),
    ("octahedron", "F5", 1),
    ("octahedron", "Z/6", 0),
    ("rp2", "Z/4", 0),
]
RINGS = {"F3": F3, "F5": F5, "Z/6": modular_ring(6), "Z/4": modular_ring(4)}


def _expected_scans():
    with open(os.path.join(HERE, "expected_scans.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _base_complex(name):
    if name.startswith("building:"):
        return building.build_building(3, 2).complex
    return named_complex(name)


def _coset_setup(seed):
    rng = random.Random(seed)
    bases = {name: _base_complex(name) for name, _, _ in SCAN_CASES}
    return {
        "complexes": {name: relabel(X, rng) for name, X in bases.items()},
        "expected": _expected_scans(),
    }


def _witness_ratio(w, target):
    return cochains.coboundary(w).norm() / cochains.distance(w, target)[0]


def _scan_check(key, kind, inp):
    def check(state, rep):
        want = inp["expected"][key]
        bad = []
        if not rep.certified:
            bad.append(f"{key} {kind} uncertified")
        want_eps = want["epsilon" if kind == "coboundary" else "cosystolic_epsilon"]
        if str(rep.epsilon) != want_eps:
            bad.append(f"{key} {kind} epsilon {rep.epsilon} != {want_eps}")
        target = cochains.COBOUNDARIES if kind == "coboundary" else cochains.COCYCLES
        if rep.witness is not None and _witness_ratio(rep.witness, target) != rep.epsilon:
            bad.append(f"{key} {kind} witness does not reproduce epsilon")
        if kind == "cosystolic":
            if str(rep.mu) != want["mu"]:
                bad.append(f"{key} mu {rep.mu} != {want['mu']}")
            w = rep.mu_witness
            if w is not None and (
                w.norm() != rep.mu
                or not cochains.coboundary(w).is_zero()
                or cochains.distance(w, cochains.COBOUNDARIES)[0] == 0
            ):
                bad.append(f"{key} mu witness is not a nontrivial cocycle of norm mu")
        return (2 if kind == "cosystolic" else 1), bad

    return check


def _coset_ops(inp):
    ops = []
    for name, ring_name, k in SCAN_CASES:
        X, ring, key = inp["complexes"][name], RINGS[ring_name], f"{name}|{ring_name}|{k}"
        ops.append(Op(
            f"coboundary_epsilon {key}",
            lambda st, X=X, ring=ring, k=k: expansion.coboundary_epsilon(X, ring, k),
            _scan_check(key, "coboundary", inp),
        ))
        ops.append(Op(
            f"cosystolic_pair {key}",
            lambda st, X=X, ring=ring, k=k: expansion.cosystolic_pair(X, ring, k),
            _scan_check(key, "cosystolic", inp),
        ))

    def small_set_check(state, result):
        ok, f = result
        want = inp["expected"]["small_set octahedron|F3|1|1/2"]
        bad = []
        if ok != want["ok"]:
            bad.append(f"small_set_check returned {ok}, expected {want['ok']}")
        if f is not None and not (
            cochains.coboundary(f).norm() < f.norm() and cochains.is_locally_minimal(f)
        ):
            bad.append("small_set_check counterexample is not a counterexample")
        return 1, bad

    X = inp["complexes"]["octahedron"]
    ops.append(Op(
        "small_set_check octahedron|F3|1|1/2",
        lambda st: expansion.small_set_check(X, F3, Fraction(1), Fraction(1, 2)),
        small_set_check,
    ))
    return ops


# -- building ----------------------------------------------------------------


def _building_setup(seed):
    rng = random.Random(seed)
    return {
        "seed": seed,
        "top_picks": sorted(rng.sample(range(315), 16)),  # B(4,2) has 315 chambers
    }


def _flags_true(obj, names):
    return [f"{n} is false" for n in names if not getattr(obj, n)]


def _building_ops(inp):
    def build(n, q, key):
        def call(st):
            st[key] = building.build_building(n, q)
            return st[key]
        return call

    def family(key, ring, tops=None):
        def call(st):
            B = st[key]
            picks = None if tops is None else [B.complex.top_faces[i] for i in tops]
            return building.chain_family(B, ring, tops=picks)
        return call

    def family_check(state, fam):
        return 1, ([] if fam.entries else ["chain family is empty"])

    def audit_check(state, rep):
        return 1, _flags_true(rep, [
            "epsilon_ok", "homotopy_ok", "chain_family_ok", "homological_ok",
            "cohomology_trivial_below_top",
        ])

    def symmetry_check(state, rep):
        return 1, _flags_true(rep, [
            "transitive_on_top", "stabilizer_bound_ok", "summed_bound_ok",
            "apartment_equivariance_ok",
        ])

    def acyclic_check(state, prof):
        return 1, ([] if prof.free_rank == 0 and not prof.torsion
                   else [f"H^{prof.k} of B(4,2) is not zero: {prof}"])

    def axioms_check(state, ok):
        return 1, ([] if ok is True else ["building axioms failed"])

    seed = inp["seed"]
    return [
        Op("build_building(4,2)", build(4, 2, "B42"), _no_check),
        Op("chain_family(B42, Z, 16 tops)", family("B42", INTEGERS, inp["top_picks"]),
           family_check),
        Op("build_building(3,3)", build(3, 3, "B33"), _no_check),
        Op("verify_building_axioms(B33)",
           lambda st: building.verify_building_axioms(st["B33"]), axioms_check),
        Op("chain_family(B33, Z)", family("B33", INTEGERS), family_check),
        Op("chain_family(B33, F3)", family("B33", F3), family_check),
        Op("build_building(3,2)", build(3, 2, "B32"), _no_check),
        Op("building_expansion_audit(B32, Z)",
           lambda st: building.building_expansion_audit(st["B32"], INTEGERS, seed=seed),
           audit_check),
        Op("symmetry_checks(B32)",
           lambda st: building.symmetry_checks(st["B32"], seed=seed), symmetry_check),
        Op("integer_cohomology(B42, 0)",
           lambda st: lattice.integer_cohomology(st["B42"].complex, 0), acyclic_check),
        Op("integer_cohomology(B42, 1)",
           lambda st: lattice.integer_cohomology(st["B42"].complex, 1), acyclic_check),
    ]


# -- lattice -----------------------------------------------------------------

N_VERTICES = 7
GRAPH_EDGES = (10, 10, 11, 11)  # connected, so H^1 has rank edges - 6
COMPLEXES = 4                   # 2-complexes with 8 triangles, 16 edges, H^1 of rank 2
LATTICE_BOUND = 2


def _rank(M):
    return int(np.linalg.matrix_rank(np.array(M, dtype=float))) if M and M[0] else 0


def _shape(tops):
    """(edges, rank of H^1 over Q, 1-skeleton connected) of the closure of tops."""
    verts = sorted({v for t in tops for v in t})
    edges = sorted({e for t in tops for e in combinations(t, 2)})
    tris = sorted(t for t in tops if len(t) == 3)
    d0 = [[(1 if v == e[1] else -1 if v == e[0] else 0) for v in verts] for e in edges]
    d1 = [[(1 if e in (t[1:], t[:2]) else -1 if e == (t[0], t[2]) else 0) for e in edges]
          for t in tris]
    r0 = _rank(d0)
    return len(edges), len(edges) - r0 - _rank(d1), r0 == len(verts) - 1


def _random_complex(rng, size, dim, edges, betti1):
    """A connected pure complex on all N_VERTICES vertices with the given shape.

    Fixing the edge count and the rank of H^1 fixes the size of every search
    lattice_report makes, so the seed changes the input but not the work.
    """
    verts = [f"x{i}" for i in range(N_VERTICES)]
    pool = list(combinations(verts, dim + 1))
    while True:
        tops = rng.sample(pool, size)
        if len({v for t in tops for v in t}) == N_VERTICES and _shape(tops) == (
            edges, betti1, True
        ):
            return build_complex([" ".join(t) for t in tops])


def _lattice_setup(seed):
    rng = random.Random(seed)
    inputs = [(f"graph E={e}", _random_complex(rng, e, 1, e, e - N_VERTICES + 1))
              for e in GRAPH_EDGES]
    inputs += [("2-complex T=8", _random_complex(rng, 8, 2, 16, 2)) for _ in range(COMPLEXES)]
    return {"complexes": inputs}


def _report_check(X):
    def check(state, doc):
        """Recompute the distance and both certification routes independently."""
        bad = []
        gens = [_parse_lines(X, g) for g in doc["generators"]]
        for g, flag in zip(gens, doc["generators_certified"]):
            if flag != (Fraction(norm_num(X, 1, g), X.weight_denominator(1))
                        == coset_floor(X, 1, g)):
                bad.append("generator certification flag disagrees with its mod-p floor")
        best = None
        for coeffs in product(range(-LATTICE_BOUND, LATTICE_BOUND + 1), repeat=len(gens)):
            if any(coeffs):
                vec = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                            for i in range(len(gens[0])))
                key = (norm_num(X, 1, vec), vec)
                best = key if best is None or key < best else best
        dist = Fraction(doc["distance"]["num"], doc["distance"]["den"])
        if Fraction(best[0], X.weight_denominator(1)) != dist:
            bad.append(f"distance {dist} is not the least bounded combination norm")
        if sum(1 for v in best[1] if v) != doc["distance_support_count"]:
            bad.append("distance_support_count disagrees with the witness")
        # two certification routes: disjoint supports, or a matching mod-p floor
        routes = disjoint_supports(gens) or dist == lattice_floor(X, 1, gens)
        if doc["certified"] != routes:
            bad.append("distance certification flag disagrees with its routes")
        return 1 + len(gens), bad

    return check


def _parse_lines(X, text):
    vals = {}
    for line in text.splitlines():
        face, v = line.rsplit(":", 1)
        vals[tuple(sorted(face.split()))] = int(v)
    return tuple(vals.get(f, 0) for f in X.faces(1))


def _uct_check(state, reports):
    return len(reports), [f"UCT fails at k={r.k}" for r in reports if not r.ok]


def _lattice_ops(inp):
    ops = []
    for label, X in inp["complexes"]:
        ops.append(Op(
            f"lattice_report({label}, 1)",
            lambda st, X=X: lattice.lattice_report(X, 1, coeff_bound=LATTICE_BOUND),
            _report_check(X),
        ))
        ops.append(Op(
            f"uct_check({label})",
            lambda st, X=X: [lattice.uct_check(X, k) for k in range(X.dim + 1)],
            _uct_check,
        ))
    return ops


WORKLOADS = {
    "verify": Workload(_verify_setup, _verify_ops),
    "coset-scan": Workload(_coset_setup, _coset_ops),
    "building": Workload(_building_setup, _building_ops),
    "lattice": Workload(_lattice_setup, _lattice_ops),
}
