"""Command-line entry point: `hdx report <what> ...` and `hdx verify`.

Reports are JSON documents with rationals as {num, den} in lowest terms and
never floats; re-running a command with the same configuration and seed
produces byte-identical output. Exit codes: 0 success, 1 usage or input
error, 2 when an assertion-style property fails (the counterexample is
embedded in the report).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import building as building_mod
from . import expansion as expansion_mod
from . import fatfaces as fatfaces_mod
from . import lattice as lattice_mod
from .catalog import named_complex, names
from .complexes import frac_json, load_complex
from .errors import HdxError, ParameterOutOfRange, PropertyViolation, UsageError
from .rings import parse_ring

PROPERTY_FAILURE = 2


def parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            a, b = text.split("/", 1)
            return Fraction(int(a), int(b))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational {text!r}; use forms like 2 or 1/3") from None


def _items(text: str, flag: str) -> list:
    """The comma-separated items of an argument; an empty one is a usage error."""
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise UsageError(f"{flag} has an empty item in {text!r}")
    return parts


def resolve_complex(source: str):
    """Named example, `building:n=<n>,q=<q>`, or a complex file path."""
    if source.startswith("building:"):
        params = {}
        for part in source[len("building:"):].split(","):
            if "=" not in part:
                raise UsageError(f"bad building spec {source!r}")
            key, val = part.split("=", 1)
            params[key.strip()] = val.strip()
        if set(params) != {"n", "q"}:
            raise UsageError(f"building spec needs exactly n and q, got {source!r}")
        try:
            n, q = int(params["n"]), int(params["q"])
        except ValueError:
            raise UsageError(f"building spec needs integer n and q, got {source!r}") from None
        return building_mod.build_building(n, q).complex
    try:
        return named_complex(source)
    except KeyError:
        pass
    return load_complex(source)


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- report subcommands ---------------------------------------------------------


def report_expansion(args) -> int:
    X = resolve_complex(args.complex)
    if args.kind == "skeleton":
        alpha, witness = expansion_mod.skeleton_alpha(X)
        doc = {
            "kind": "skeleton",
            "ring": None,
            "epsilon": frac_json(alpha),
            "witness": list(witness),
            "certified": True,
        }
        _emit(doc, args)
        return 0
    ring = parse_ring(args.ring)
    if args.kind == "coboundary":
        rep = expansion_mod.coboundary_epsilon(X, ring, args.k)
        _emit(rep.to_json(), args)
        return 0
    if args.kind == "cosystolic":
        rep = expansion_mod.cosystolic_pair(X, ring, args.k)
        _emit(rep.to_json(), args)
        return 0
    # small-set
    if args.epsilon is None or args.mu is None:
        raise UsageError("small-set check needs --epsilon and --mu")
    eps = parse_fraction(args.epsilon)
    mu = parse_fraction(args.mu)
    holds, counterexample = expansion_mod.small_set_check(X, ring, eps, mu)
    doc = {
        "kind": "small-set",
        "ring": str(ring),
        "epsilon": frac_json(eps),
        "mu": frac_json(mu),
        "holds": holds,
        "counterexample": counterexample.to_lines() if counterexample else None,
    }
    _emit(doc, args)
    return 0 if holds else PROPERTY_FAILURE


def report_cohomology(args) -> int:
    X = resolve_complex(args.complex)
    uct = lattice_mod.uct_check(X, args.k)
    doc = {
        "k": args.k,
        "free_rank": uct.free_rank,
        "torsion": list(uct.torsion),
        "f2_dimension": uct.fp_dimension,
        "f3_dimension": lattice_mod.fp_cohomology_dimension(X, args.k, 3),
        "uct": {
            "free_rank": uct.free_rank,
            "even_torsion_here": uct.even_torsion_here,
            "even_torsion_above": uct.even_torsion_above,
            "ok": uct.ok,
        },
    }
    _emit(doc, args)
    return 0 if uct.ok else PROPERTY_FAILURE


def report_fatfaces(args) -> int:
    X = resolve_complex(args.complex)
    eta = parse_fraction(args.eta)
    if args.support is not None:
        support = frozenset(
            tuple(sorted(part.split())) for part in _items(args.support, "--support")
        )
        fams = [fatfaces_mod.fat_family(X, support, eta, k=args.k)]
    elif args.draws < 1:
        raise ParameterOutOfRange(f"need --draws >= 1 without --support, got {args.draws}")
    else:
        rng = random.Random(args.seed)
        fams = []
        faces = X.faces(args.k)
        for _ in range(args.draws):
            A = frozenset(f for f in faces if rng.random() < 0.35)
            if A:
                fams.append(fatfaces_mod.fat_family(X, A, eta, k=args.k))
        if not fams:
            raise ParameterOutOfRange(
                f"all {args.draws} draws of {args.k}-faces came out empty; no family to audit"
            )
    alpha_max = fatfaces_mod.max_link_alpha(X)
    hypothesis = fatfaces_mod.bad_face_hypothesis(X, alpha_max, eta)
    fat_ok = all(fatfaces_mod.fat_bound_failure(X, fam) is None for fam in fams)
    bad_ok = all(fatfaces_mod.bad_bound_holds(X, fam) for fam in fams) if hypothesis else None
    doc = {
        "k": args.k,
        "eta": frac_json(eta),
        "families_audited": len(fams),
        "max_link_skeleton_alpha": frac_json(alpha_max),
        "bad_face_hypothesis": hypothesis,
        "fat_bound_ok": fat_ok,
        "bad_bound_ok": bad_ok,
        "family": fams[0].to_json() if args.support is not None else None,
    }
    _emit(doc, args)
    return 0 if fat_ok and bad_ok is not False else PROPERTY_FAILURE


def report_building_audit(args) -> int:
    ring = parse_ring(args.ring)
    B = building_mod.build_building(args.n, args.q)
    eps_rings = None
    if args.eps_rings is not None:
        eps_rings = [parse_ring(r) for r in _items(args.eps_rings, "--eps-rings")]
    audit = building_mod.building_expansion_audit(
        B, ring, seed=args.seed, samples=args.samples, eps_rings=eps_rings
    )
    sym = building_mod.symmetry_checks(B, seed=args.seed)
    _emit({**audit.to_json(), "symmetry": sym.to_json()}, args)
    return 0 if audit.ok and sym.ok else PROPERTY_FAILURE


def report_lattice(args) -> int:
    X = resolve_complex(args.complex)
    doc = lattice_mod.lattice_report(X, args.k, coeff_bound=args.coeff_bound)
    _emit(doc, args)
    return 0


def cmd_report(args) -> int:
    handlers = {
        "expansion": report_expansion,
        "cohomology": report_cohomology,
        "fatfaces": report_fatfaces,
        "building-audit": report_building_audit,
        "lattice": report_lattice,
    }
    return handlers[args.what](args)


def cmd_verify(args) -> int:
    from .verify import run_verify

    results = run_verify(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status}  {r.name.ljust(width)}"
        if r.detail:
            line += f"  {r.detail}"
        print(line)
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed (seed {args.seed})")
    return 0 if failures == 0 else PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hdx",
        description=(
            "Exact cochain calculus and expansion measurement on small "
            "simplicial complexes. Complexes come from a named example "
            f"({', '.join(names())}), a building:n=<n>,q=<q> spec, or a "
            "text file of top faces."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="compute one report as JSON")
    repsub = rep.add_subparsers(dest="what", required=True)

    pe = repsub.add_parser("expansion", help="one of the four expansion notions")
    pe.add_argument("--kind", required=True,
                    choices=["coboundary", "cosystolic", "skeleton", "small-set"])
    pe.add_argument("--ring", default="F2", help="Z, F<p> or Z/<n>")
    pe.add_argument("--k", type=int, default=0)
    pe.add_argument("--epsilon", help="rational, for --kind small-set")
    pe.add_argument("--mu", help="rational, for --kind small-set")
    pe.add_argument("--output")
    pe.add_argument("complex")

    pc = repsub.add_parser("cohomology", help="integer and mod-p cohomology plus UCT")
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--output")
    pc.add_argument("complex")

    pf = repsub.add_parser("fatfaces", help="fat-face family and bounds audit")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--eta", required=True, help="rational in (0,1)")
    pf.add_argument("--support", help="comma-separated faces, tokens space-separated")
    pf.add_argument("--draws", type=int, default=25)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--output")
    pf.add_argument("complex")

    pb = repsub.add_parser("building-audit", help="full building verification suite")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--q", type=int, required=True)
    pb.add_argument("--ring", default="Z")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--samples", type=int, default=50)
    pb.add_argument("--eps-rings", dest="eps_rings",
                    help="comma-separated rings for the coset scans (default F2)")
    pb.add_argument("--output")

    pl = repsub.add_parser("lattice", help="cohomology lattice with distance")
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--coeff-bound", dest="coeff_bound", type=int, default=3)
    pl.add_argument("--output")
    pl.add_argument("complex")

    pv = sub.add_parser("verify", help="run the bundled property suite")
    pv.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_report(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a path that is no readable text
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except PropertyViolation as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return PROPERTY_FAILURE
    except HdxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
