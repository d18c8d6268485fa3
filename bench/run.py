"""Benchmark of the lsa package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout: it imports the package from ``src/``
and needs nothing else.  One invocation measures one workload
(``workloads.py``) on inputs made from ``--seed``, for ``--seconds``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the details: inputs, outputs, environment and every sample.
``--workload all`` runs each workload untraced and traced, each in its own
process, and prints every metric by name.  Scratch files live in
``.bench_work/`` of the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ENTRY = Path(__file__).resolve()
ROOT = ENTRY.parents[1]
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload's name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--make-checkpoint", metavar="DIR", type=Path,
        help="train the forward-only workload's checkpoint from the inputs in DIR and exit",
    )
    return p.parse_args(argv)


def run_all(args, workloads) -> int:
    """Run every workload untraced and traced, each in its own process,
    and print every metric by name with its unit."""
    ok = True
    for name in workloads:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(ENTRY), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name} trace={trace}: exited with {done.returncode}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lsa" / "__init__.py").is_file():
        print(f"bench: no lsa package under {SRC}", file=sys.stderr)
        return 2
    # OpenBLAS starts one thread per CPU by default, and its idle threads
    # spin: on two CPUs, two threads keep both busy and run no faster than
    # one, so a run would measure the other CPU's load too.  Set before
    # numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.make_checkpoint is not None:
        measure.make_checkpoint(w, args.seed, args.make_checkpoint)
        return 0
    return measure.measure(w, args.seed, args.seconds, bool(args.trace), ROOT, ENTRY)


if __name__ == "__main__":
    sys.exit(main())
