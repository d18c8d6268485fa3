"""A/B benchmark of the working tree against a git revision.

    python tests/ab_parent.py REV --workload W [--pairs N] [--seconds S] [--seed K]
                              [--trace T] [--record]

Run it from anywhere inside the checkout.  REV is extracted with ``git
archive`` into a temporary directory, as ``compare_parent.py`` does.  Each
of the N pairs runs ``bench/run.py --workload W --seed K --seconds S
--trace 0`` once on each side, REV and the working tree, each run in its
own process; REV runs first in the even pairs and second in the odd ones.
Then, for every end-to-end metric that ``BENCHMARK.json`` declares, it
prints both sides' median and quartiles, the change of the median in %,
and the pairs in which the working tree did better (a tie counts for
neither side).  Two verdicts follow on each metric: whether a gain may be
claimed (the working tree won at least 9 pairs in 10, and its median is
better than REV's by more than REV's interquartile range), and whether
the change stays within the metric's ``bound`` (the working tree's median
worse than REV's by no more than that fraction of it).

With ``--trace T``, T pairs of ``--trace 1`` runs follow, in the same
alternating order, and it prints each side's median of every per-layer
metric that ``BENCHMARK.json`` declares, with the change in %: the
per-layer side of a claim.  The exit code is 1 if a run was not
``correct``, else 0, whatever the numbers say.

With ``--record``, and only if every run was correct, it appends a record
of the summary to ``BENCH_<W>.json`` at the root of the checkout: both
sides' quartiles, the per-layer medians if there were traced runs, REV's
commit, the protocol, the CPUs this process may use, the numpy version
and the working tree's ``source_sha256`` (from the benchmark's details
line).  The file holds a JSON list, oldest first.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare_parent import ROOT, child_env, extract

SIDES = ("rev", "tree")
CLAIM_WINS = (9, 10)  # a claimed gain wins at least 9 pairs in 10
SIGN = {"higher": 1, "lower": -1}  # of a gain, by the metric's ``better``


def bench_result(root: Path, workload: str, seed: int, seconds: float,
                 trace: int = 0) -> dict | None:
    """The result line of one benchmark run of the checkout at ``root``,
    traced or not, with the ``environment`` of its details line added, or
    None if it printed neither."""
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=600 + 4 * seconds)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-1]) | {"environment": json.loads(lines[-2])["environment"]}


def paired_runs(roots: dict, args, pairs: int, trace: int):
    """For each of ``pairs`` pairs of benchmark runs of both sides, REV
    first in the even pairs and second in the odd ones: the side that ran
    first, and {side: result}, or None if a run was not correct."""
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        results = {side: bench_result(roots[side], args.workload, args.seed, args.seconds, trace)
                   for side in order}
        ok = all(r is not None and r["correct"] for r in results.values())
        yield order[0], results if ok else None


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summarize(rev: list[float], tree: list[float], better: str) -> dict:
    """Both sides' quartiles of one metric over paired runs, the change of
    the median in % of REV's, and the pairs the working tree won: those in
    which its value is higher (``better`` "higher") or lower ("lower")."""
    if len(rev) != len(tree) or not rev:
        raise ValueError("the two sides need the same number of runs, at least one")
    sign = SIGN[better]
    rev_q, tree_q = quartiles(rev), quartiles(tree)
    return {
        "rev": rev_q,
        "tree": tree_q,
        "change_pct": 100 * (tree_q["median"] / rev_q["median"] - 1),
        "wins": sum(sign * (b - a) > 0 for a, b in zip(rev, tree)),
        "pairs": len(rev),
    }


def layer_medians(rev: list[dict], tree: list[dict], names) -> dict:
    """name -> both sides' median of each metric in ``names`` over the
    traced runs ``rev`` and ``tree`` (dicts of metric values), and the
    change of the median in % of REV's (None if REV's is 0)."""
    if not rev or not tree:
        raise ValueError("each side needs at least one traced run")
    medians = {}
    for name in names:
        a, b = (float(np.median([r[name] for r in runs])) for runs in (rev, tree))
        medians[name] = {"rev": a, "tree": b, "change_pct": 100 * (b / a - 1) if a else None}
    return medians


def claim_holds(s: dict, better: str) -> bool:
    """Whether the summary ``s`` shows a gain: the working tree won at least
    ``CLAIM_WINS`` of the pairs, and its median is better than REV's by more
    than REV's interquartile range."""
    sign = SIGN[better]
    gap = sign * (s["tree"]["median"] - s["rev"]["median"])
    won, of = CLAIM_WINS
    return s["wins"] * of >= won * s["pairs"] and gap > s["rev"]["q3"] - s["rev"]["q1"]


def within_bound(s: dict, better: str, bound: float) -> bool:
    """Whether the working tree's median in ``s`` is worse than REV's by no
    more than ``bound``, a fraction of REV's median."""
    sign = SIGN[better]
    return sign * s["change_pct"] >= -100 * bound


def summary_line(name: str, unit: str, s: dict) -> str:
    def side(q):
        return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"

    return (f"{name:17} {unit:5} REV {side(s['rev'])}  working tree {side(s['tree'])}  "
            f"{s['change_pct']:+.1f}%  won {s['wins']}/{s['pairs']}  "
            f"{'claim holds' if s['claim'] else 'no claim'}, "
            f"{'within' if s['within_bound'] else 'BEYOND'} bound {100 * s['bound']:g}%")


def layer_line(name: str, unit: str, m: dict) -> str:
    change = "" if m["change_pct"] is None else f"  {m['change_pct']:+.1f}%"
    return f"{name:42} {unit:10} REV {m['rev']:.6g}  working tree {m['tree']:.6g}{change}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--trace", type=int, default=0, metavar="T",
                   help="pairs of traced runs for the per-layer medians")
    p.add_argument("--record", action="store_true",
                   help="append the summary to BENCH_<workload>.json")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    if args.trace < 0:
        p.error("--trace must not be negative")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    layers = {metric["name"]: metric for metric in benchmark["per_layer"]}
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{args.rev}^{{commit}}"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()

    runs = {side: [] for side in SIDES}
    traced = {side: [] for side in SIDES}
    correct, source = True, None
    with tempfile.TemporaryDirectory(prefix="ab_parent-") as tmp:
        roots = {"rev": Path(tmp) / "rev", "tree": ROOT}
        extract(commit, roots["rev"])
        for pair, (first, results) in enumerate(paired_runs(roots, args, args.pairs, 0)):
            correct = correct and results is not None
            note = "a run was not correct, left out"
            if results is not None:
                source = results["tree"]["environment"]["source_sha256"]
                for side, r in results.items():
                    runs[side].append({m: v["value"] for m, v in r["metrics"].items()})
                last = {side: runs[side][-1] for side in SIDES}
                note = "REV/working tree " + ", ".join(
                    f"{name} {last['rev'][name]:.4g}/{last['tree'][name]:.4g}"
                    for name in declared)
            print(f"pair {pair + 1}/{args.pairs}, {first} first: {note}", flush=True)
        for pair, (first, results) in enumerate(paired_runs(roots, args, args.trace, 1)):
            correct = correct and results is not None
            note = ""
            if results is not None:
                for side, r in results.items():
                    traced[side].append({m: v["value"] for m, v in r["metrics"].items()})
            else:
                note = ": a run was not correct, left out"
            print(f"traced pair {pair + 1}/{args.trace}, {first} first{note}", flush=True)

    summaries = {}
    if runs["rev"]:
        for name, metric in declared.items():
            s = summarize([r[name] for r in runs["rev"]], [r[name] for r in runs["tree"]],
                          metric["better"])
            s.update(claim=claim_holds(s, metric["better"]), bound=metric["bound"],
                     within_bound=within_bound(s, metric["better"], metric["bound"]))
            summaries[name] = s
            print(summary_line(name, metric["unit"], summaries[name]))
    medians = {}
    if traced["rev"]:
        medians = layer_medians(traced["rev"], traced["tree"], layers)
        print(f"per-layer medians of {len(traced['rev'])} traced runs per side:")
        for name, m in medians.items():
            print(layer_line(name, layers[name]["unit"], m))
    if args.record and correct:
        record = {
            "rev": commit,
            "tree_source_sha256": source,
            "protocol": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                         "trace": 0, "traced_pairs": args.trace,
                         "order": "alternating, REV first in the first pair"},
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "metrics": summaries,
        }
        if medians:
            record["per_layer_medians"] = medians
        path = ROOT / f"BENCH_{args.workload}.json"
        records = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(records + [record], indent=1) + "\n")
        print(f"appended to {path.name}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
