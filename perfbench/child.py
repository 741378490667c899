"""One fresh-interpreter run of one workload; `run.py` starts it, one at a time.

    python3 perfbench/child.py --workload W --seed S --spawned T --mode M [--spans PATH]

`--spawned` is the parent's `time.monotonic()` just before it started this
process, so set-up time covers the interpreter's own start. Modes:

- `setup`: make the inputs, report the set-up time and exit;
- `run`: also run the timed operations, with only the certification tally
  installed, then check every answer;
- `trace`: the same under the full outside-in tracer, reporting per-layer
  metrics and writing the spans to `--spans`.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import defaultdict
from statistics import mean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import hdx  # noqa: E402

if os.path.dirname(os.path.abspath(hdx.__file__)) != os.path.join(ROOT, "src", "hdx"):
    sys.exit(f"hdx was imported from {hdx.__file__}, not from this checkout's src/")

import hdx.verify  # noqa: E402

from algebra import subgroup_order  # noqa: E402
from hostspeed import HostSpeed, timed_burst  # noqa: E402
from tracer import MINIMA_FUNCS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_BURSTS = 20


def run_ops(ops, probe):
    """Run each op, timed, leaving out the probe's samples; return (seconds, results)."""
    state, results, times = {}, [], []
    for op in ops:
        p0 = probe.spent
        t0 = time.perf_counter()
        try:
            results.append((op.call(state), None))
        except Exception as exc:  # a raising op is a failed op, not a crash
            results.append((None, f"{type(exc).__name__}: {exc}"))
        times.append(time.perf_counter() - t0 - (probe.spent - p0))
    return times, results


def check_answers(ops, results):
    """(answers checked, answers wrong, descriptions of what was wrong)."""
    attempted, failed, messages = 0, 0, []
    state = {}
    for op, (result, err) in zip(ops, results):
        if err is not None:
            n, bad = 1, [f"raised {err}"]
        else:
            try:
                n, bad = op.check(state, result)
            except Exception as exc:  # a check that cannot run fails the op
                n, bad = 1, [f"check raised {type(exc).__name__}: {exc}"]
        attempted += n
        failed += min(len(bad), n)
        messages += [f"{op.label}: {b}" for b in bad]
    return attempted, failed, messages


def layer_metrics(tr):
    """Per-layer metrics from a traced run (every name, zero when unused)."""
    fns = tr.by_name()
    out = defaultdict(float)
    for name, (calls, self_s, busy_s) in fns.items():
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += calls
        out[f"{layer}.self_s"] += self_s
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.busy_s"] = busy_s
    sub = [fns.get(n, (0, 0, 0)) for n in ("cochains.coboundary_group", "cochains.cocycle_group")]
    out["cochains.subgroup.calls"] = sum(c for c, _, _ in sub)
    out["complexes.link.calls"] = fns.get("complexes.SimplicialComplex.link", (0, 0, 0))[0]
    for key, val in tr.counters.items():
        out[key] = val
    for kind in ("field", "generic"):
        scans = [s for s in tr.scans if s[0] == kind]
        pairs = sum(cosets * subgroup_order(X, n, k, target)
                    for _, X, n, k, target, cosets, _ in scans)
        busy = sum(s[6] for s in scans)
        out[f"expansion.{kind}.calls"] = len(scans)
        out[f"expansion.{kind}.busy_s"] = busy
        out[f"expansion.{kind}.cosets"] = sum(s[5] for s in scans)
        out[f"expansion.{kind}.pairs"] = pairs
        out[f"expansion.{kind}.pairs_per_s"] = pairs / busy if busy else 0.0
    lat = [c for layer, c in tr.minima if layer == "lattice"]
    out["lattice.minima"] = len(lat)
    out["lattice.certified"] = sum(lat)
    for name, fn in hdx.verify.CHECKS:
        out[f"verify.check.{name}.busy_s"] = fns.get(f"verify.{fn.__name__}", (0, 0, 0))[2]
    return dict(out)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.monotonic() - args.spawned
    setup_burst_s = mean(timed_burst() for _ in range(SETUP_BURSTS))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_burst_s": setup_burst_s}))
        return 0

    probe = HostSpeed()
    tracer = Tracer(select=None if args.mode == "trace" else MINIMA_FUNCS, probe=probe)
    tracer.install()
    ops = wl.ops(inputs)
    try:
        with probe:
            times, results = run_ops(ops, probe)
    finally:
        tracer.uninstall()
    attempted, failed, failures = check_answers(ops, results)
    certified = [c for _, c in tracer.minima]
    doc = {
        "setup_s": setup_s,
        "setup_burst_s": setup_burst_s,
        "wall_s": sum(times),
        "burst_s": mean(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "minima": len(certified),
        "certified": sum(certified),
    }
    if args.mode == "trace":
        doc["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.save_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
