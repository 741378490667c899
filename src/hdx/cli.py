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
from .complexes import load_complex
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


def frac_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


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
    profile = lattice_mod.integer_cohomology(X, args.k)
    uct = lattice_mod.uct_check(X, args.k)
    doc = {
        "k": args.k,
        "free_rank": profile.free_rank,
        "torsion": list(profile.torsion),
        "f2_dimension": lattice_mod.fp_cohomology_dimension(X, args.k, 2),
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
    if args.support:
        support = frozenset(
            tuple(sorted(part.split())) for part in args.support.split(",")
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
    alpha_max = expansion_mod.skeleton_alpha(X)[0]
    for kk in range(0, X.dim + 1):
        for s in X.faces(kk):
            alpha_max = max(alpha_max, expansion_mod.skeleton_alpha(X.link(s))[0])
    hypothesis = alpha_max <= eta ** (2 ** (X.dim - 1))
    fat_ok = True
    bad_ok = True
    for fam in fams:
        nA = X.norm(fam.levels[fam.k])
        for i in range(-1, fam.k + 1):
            lvl = fam.levels[i]
            nAi = X.norm(lvl) if lvl else Fraction(0)
            if nAi > eta ** (1 - 2 ** (fam.k - i)) * nA:
                fat_ok = False
        ups = fatfaces_mod.bad_faces(X, fam)
        bad_norm = X.norm(ups) if ups else Fraction(0)
        if hypothesis and bad_norm > eta * (fam.k + 1) * (fam.k + 2) * 2 ** (fam.k + 2) * nA:
            bad_ok = False
    doc = {
        "k": args.k,
        "eta": frac_json(eta),
        "families_audited": len(fams),
        "max_link_skeleton_alpha": frac_json(alpha_max),
        "bad_face_hypothesis": hypothesis,
        "fat_bound_ok": fat_ok,
        "bad_bound_ok": bad_ok if hypothesis else None,
        "family": fams[0].to_json() if args.support and fams else None,
    }
    _emit(doc, args)
    return 0 if fat_ok and (bad_ok or not hypothesis) else PROPERTY_FAILURE


def report_building_audit(args) -> int:
    ring = parse_ring(args.ring)
    B = building_mod.build_building(args.n, args.q)
    eps_rings = [parse_ring(r) for r in args.eps_rings.split(",")] if args.eps_rings else None
    audit = building_mod.building_expansion_audit(
        B, ring, seed=args.seed, samples=args.samples, eps_rings=eps_rings
    )
    sym = building_mod.symmetry_checks(B, seed=args.seed)
    doc = audit.to_json()
    doc["symmetry"] = {
        "group_order": sym.group_order,
        "orbit_counts": {str(k): v for k, v in sym.orbit_counts.items()},
        "transitive_on_top": sym.transitive_on_top,
        "stabilizer_bound_ok": sym.stabilizer_bound_ok,
        "summed_bound_ok": sym.summed_bound_ok,
        "apartment_equivariance_ok": sym.apartment_equivariance_ok,
    }
    _emit(doc, args)
    ok = (
        audit.epsilon_ok
        and audit.homotopy_ok
        and audit.chain_family_ok
        and audit.homological_ok
        and audit.cohomology_trivial_below_top
        and sym.transitive_on_top
        and sym.stabilizer_bound_ok
        and sym.summed_bound_ok
        and sym.apartment_equivariance_ok
    )
    return 0 if ok else PROPERTY_FAILURE


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
    except FileNotFoundError as exc:
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
