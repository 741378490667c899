"""hdx benchmark driver: one seeded run of one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): verify, coset-scan,
building, lattice. Each is a closed loop with one client: operations run in
sequence and each pass runs in a fresh interpreter (`child.py`), one child
at a time, because hdx memoises subgroups and apartment intersections on
complex objects and named complexes for the life of a process. Children
start with HDX_CAP removed, PYTHONPATH set to this checkout's `src/` only,
and OMP/OPENBLAS/MKL threads set to 1.

A run with `--trace 0` first starts a few set-up-only children, then passes
until the next one would end after `--seconds`, at least one, and prints
the end-to-end metrics. Both times are in reference seconds: as measured,
scaled by the host-speed probe of `hostspeed.py` to a host where its
calibration burst takes REFERENCE_BURST_S, because this shared host's speed
drifts by half again within minutes.

- setup_s: interpreter start until the seeded inputs are ready (import hdx
  with numpy, plus input generation), just before the first timed hdx call;
  median over every child of the run;
- wall_s: the timed hdx calls of one pass, summed; median over passes;
- peak_rss_mb: a pass's `ru_maxrss`, median over passes;
- certified_frac: minima returned with `certified: true` / minima returned
  (expansion reports, lattice generators, lattice distances).

A run with `--trace 1` makes one untraced pass and two traced ones and
prints the per-layer metrics (medians of the two traced passes). The exact
work counters must agree between the two traced passes, or the run is not
correct. Spans go to `perfbench/out/`.

Every run also checks every answer outside the timed region and runs the
README oracle's report commands (`oracle.py`); a traced `verify` run adds the
byte-for-byte `hdx verify --seed 0` comparison. `attempted` counts the
answers checked, `failed` the ones that raised or were wrong. The last line
of standard output is the JSON result. A run that cannot measure (no
`src/hdx` here, a child that crashes or overruns) prints no result and exits
non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

from hostspeed import REFERENCE_BURST_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
RUN_BUDGET_S = 170  # every child must end within this many seconds of the start

# work counters that must repeat exactly between two traced passes of a seed
EXACT = (
    "cochains.distance.calls",
    "cochains.subgroup.elems",
    "expansion.field.cosets",
    "expansion.field.pairs",
    "expansion.generic.cosets",
    "expansion.generic.pairs",
    "building.intersection_complex.misses",
    "building.chain_family.entries",
    "intmat.smith_normal_form.calls",
    "intmat.smith_normal_form.entries",
)


class BenchError(Exception):
    """The run could not measure; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.pop("HDX_CAP", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(script, args, deadline):
    """Run one child to completion and return its last stdout line as JSON."""
    spawned = time.monotonic()
    if script == "child.py":
        args = [*args, "--spawned", repr(spawned)]
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=child_env(),
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{script} {' '.join(args)} overran the run budget") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} {' '.join(args)} failed:\n{err.strip()[-2000:]}")
    return json.loads(lines[-1])


def reference_s(seconds, burst_s):
    """Seconds scaled to a host where one calibration burst takes REFERENCE_BURST_S."""
    return seconds * REFERENCE_BURST_S / burst_s


def load_metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def select(specs, values):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def measure(args):
    end_to_end, per_layer = load_metric_specs()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    # set-up time is an end-to-end metric only, so traced runs skip the probes
    probes = [spawn("child.py", [*base, "--mode", "setup"], deadline)
              for _ in range(0 if args.trace else SETUP_PROBES)]

    passes, traced = [], []
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        passes.append(spawn("child.py", [*base, "--mode", "run"], deadline))
        for i in range(2):
            spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}-{i}.npz")
            traced.append(spawn("child.py", [*base, "--mode", "trace", "--spans", spans],
                                deadline))
    else:
        while True:
            t0 = time.monotonic()
            passes.append(spawn("child.py", [*base, "--mode", "run"], deadline))
            if time.monotonic() + (time.monotonic() - t0) > start + args.seconds:
                break
    with_verify = ["--with-verify"] if args.trace and args.workload == "verify" else []
    oracle = spawn("oracle.py", with_verify, deadline)

    children = passes + traced
    failures = [f for c in children for f in c["failures"]] + oracle["failures"]
    attempted = sum(c["attempted"] for c in children) + oracle["attempted"]
    failed = sum(c["failed"] for c in children) + len(oracle["failures"])
    minima = sum(c["minima"] for c in children)
    certified = sum(c["certified"] for c in children)
    values = {
        "setup_s": median(reference_s(c["setup_s"], c["setup_burst_s"])
                          for c in probes + children),
        "wall_s": median(reference_s(c["wall_s"], c["burst_s"]) for c in passes),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in passes),
        "certified_frac": certified / minima if minima else 1.0,
        "uncertified_frac": 1 - certified / minima if minima else 0.0,
        "failed_frac": failed / attempted,
    }
    if args.trace:
        layers = [t["layers"] for t in traced]
        for name in EXACT:
            if layers[0][name] != layers[1][name]:
                failures.append(f"exact counter {name} differs between traced passes: "
                                f"{layers[0][name]} vs {layers[1][name]}")
        values.update({name: median(layer[name] for layer in layers) for name in layers[0]})
        values["trace.overhead_frac"] = median(
            reference_s(t["wall_s"], t["burst_s"]) for t in traced
        ) / reference_s(passes[0]["wall_s"], passes[0]["burst_s"]) - 1
        metrics = select(per_layer, values)
    else:
        metrics = select(end_to_end, values)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} untraced pass(es), "
          f"wall as measured {median(c['wall_s'] for c in passes):.3f} s, "
          f"calibration burst {median(c['burst_s'] for c in passes) * 1e3:.3f} ms "
          f"(reference {REFERENCE_BURST_S * 1e3:.3f} ms)", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify", "coset-scan", "building", "lattice"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hdx", "__init__.py")):
        print(f"no hdx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
