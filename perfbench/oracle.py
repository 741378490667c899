"""README oracle: the README's commands, byte for byte against stored goldens.

Runs the eight `hdx report ...` commands of README.md in-process through
`hdx.cli.main`, untimed, and compares each one's standard output and exit
code with `golden/<n>.out` and `golden/<n>.code`. The ninth README command,
`hdx verify --seed 0`, is the `verify` workload's own timed operation, which
checks its transcript against `golden/8.out`; `--with-verify` runs it here too.

    python3 perfbench/oracle.py [--with-verify]  # check; last line is JSON
    python3 perfbench/oracle.py --capture        # rewrite all nine goldens

Capture only at a commit whose output is trusted: the goldens are the
reference that later changes must reproduce exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = [
    "report expansion --kind coboundary --ring F2 --k 0 hollow_triangle",
    "report expansion --kind cosystolic --ring F2 --k 0 two_triangles",
    "report expansion --kind skeleton octahedron",
    "report expansion --kind small-set --ring F2 --epsilon 1 --mu 1/4 octahedron",
    "report cohomology --k 2 rp2",
    'report fatfaces --k 1 --eta 1/2 --support "1 2,1 3" octahedron',
    "report building-audit --n 3 --q 2 --ring Z",
    "report lattice --k 1 hollow_triangle",
    "verify --seed 0",  # golden/8: checked by the verify workload
]


def run_command(command):
    from hdx.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(command))
    return out.getvalue(), code


def main(argv):
    import hdx

    if os.path.dirname(os.path.abspath(hdx.__file__)) != os.path.join(ROOT, "src", "hdx"):
        sys.exit(f"hdx was imported from {hdx.__file__}, not from this checkout's src/")
    capture = "--capture" in argv
    commands = COMMANDS if capture or "--with-verify" in argv else COMMANDS[:-1]
    failures = []
    for i, command in enumerate(commands):
        out, code = run_command(command)
        base = os.path.join(GOLDEN, f"{i}")
        if capture:
            os.makedirs(GOLDEN, exist_ok=True)
            with open(base + ".out", "w", encoding="utf-8") as fh:
                fh.write(out)
            with open(base + ".code", "w", encoding="utf-8") as fh:
                fh.write(f"{code}\n")
            continue
        with open(base + ".out", encoding="utf-8") as fh:
            want_out = fh.read()
        with open(base + ".code", encoding="utf-8") as fh:
            want_code = int(fh.read())
        if out != want_out:
            failures.append(f"hdx {command}: stdout differs from golden/{i}.out")
        if code != want_code:
            failures.append(f"hdx {command}: exit code {code}, golden {want_code}")
    print(json.dumps({"attempted": len(commands), "failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
