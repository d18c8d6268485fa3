"""One benchmark run: a workload's inputs, its timed and checked calls into
``lsa``, and the metrics and details printed at the end.

A run repeats its calls until ``--seconds`` have passed.  Every call's
output is checked; a call that raises or fails a check counts as failed.
Untraced runs give the end-to-end metrics.

The repeated calls of a run do identical work, so their spread is the
machine's.  On a shared 2-core x86_64 machine, load from outside slows
one CPU or both by up to 2x, in spells of seconds to minutes, so that the
median of whole calls spreads by 16-30% between runs, while the fastest of
the 5 ms pieces of a 5-second window on a CPU outside such a spell stays
within a few percent.  So the cycles of a run take turns on each CPU the
process may use, and each timed call is cut into laps of a few to a
hundred milliseconds, at every return of ``Model.forward_example``,
``Tape.backward``, ``AdamW.step`` and the ``evaluate`` that ``train()``
calls.  Evaluation is timed as ``evaluate()`` calls on chunks of
``EVAL_CHUNK`` examples, so that its laps stay short also where examples
are forwarded together, and loading as its three calls.  Lap ``i`` does
the same work in every repeat (``train()`` is deterministic, and the
garbage collector starts each call from the same state), so a metric's
time is the sum over laps of each lap's fastest repeat.  A run that finds
no CPU outside a slow spell still reads slow.  The details line keeps
every call's wall time and their medians.

Traced runs alternate untraced and traced passes and give the per-layer
metrics of the traced ones (see ``spans.py``), averaged per pass; a pass
is one train() call in the training workloads and one load plus
evaluate() in the forward-only one.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from lsa import autodiff, checkpoint, corpus, distance, optim, training, window
from spans import Tracer
from workloads import CHECKPOINT_EPOCHS, Workload, input_properties, write_inputs

MIN_REPEATS = 3  # timed calls per run, whatever --seconds allows
EVAL_CHUNK = 16  # examples per timed evaluate() call; one training batch
SETUP_CALLS_PER_CYCLE = 5  # train(epochs=0) calls beside each train() call
EVAL_CALLS_PER_CYCLE = 2  # evaluate() passes beside each train() call
UNATTRIBUTED_LIMIT_PCT = 5.0  # most of the timed call that may lie outside layer spans

END_TO_END_UNITS = {
    "pairs_per_s": "1/s",
    "eval_pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span, statistic); statistic is a SpanStats field, or None
# for the metrics computed in ``per_layer_metrics``.
LAYER_METRICS = {
    "autodiff.backward.self_ms": ("ms", "autodiff.backward", "self_s"),
    "autodiff.tape_nodes_per_pair": ("nodes/pair", None, None),
    "autodiff.tape_release.self_ms": ("ms", "autodiff.tape_release", "self_s"),
    "encoder.encode.self_ms": ("ms", "encoder.encode", "self_s"),
    "encoder.self_attention_block.self_ms": ("ms", "encoder.self_attention_block", "self_s"),
    "encoder.self_attention_block.calls": ("count", "encoder.self_attention_block", "calls"),
    "encoder.self_attention_block.tape_nodes": ("count", "encoder.self_attention_block", "tape_nodes"),
    "window.forward_example.self_ms": ("ms", "window.forward_example", "self_s"),
    "window.global_context.self_ms": ("ms", "window.global_context", "self_s"),
    "window.head_sa.self_ms": ("ms", "window.head_sa", "self_s"),
    "window.head_sa.calls_per_pair": ("calls/pair", None, None),
    "window.head_sa.tape_nodes": ("count", "window.head_sa", "tape_nodes"),
    "window.aspect_feature_local.self_ms": ("ms", "window.aspect_feature_local", "self_s"),
    "window.build_window.self_ms": ("ms", "window.build_window", "self_s"),
    "window.apply_dwa.self_ms": ("ms", "window.apply_dwa", "self_s"),
    "window.project_window.self_ms": ("ms", "window.project_window", "self_s"),
    "window.classify.self_ms": ("ms", "window.classify", "self_s"),
    "window.pairs_forwarded": ("count", None, None),
    "window.syntax_fallbacks": ("count", None, None),
    "distance.syntactic_distance.self_ms": ("ms", "distance.syntactic_distance", "self_s"),
    "distance.syntactic_distance.calls": ("count", "distance.syntactic_distance", "calls"),
    "distance.align_tokens_to_words.self_ms": ("ms", "distance.align_tokens_to_words", "self_s"),
    "distance.load_parses.self_ms": ("ms", "distance.load_parses", "self_s"),
    "optim.step.self_ms": ("ms", "optim.step", "self_s"),
    "optim.zero_grad.self_ms": ("ms", "optim.zero_grad", "self_s"),
    "training.total_loss.self_ms": ("ms", "training.total_loss", "self_s"),
    "training.evaluate.self_ms": ("ms", "training.evaluate", "self_s"),
    "training.other_ms": ("ms", "training.train", "self_s"),
    "corpus.load_dataset.self_ms": ("ms", "corpus.load_dataset", "self_s"),
    "checkpoint.load_checkpoint.self_ms": ("ms", "checkpoint.load_checkpoint", "self_s"),
    "trace.unattributed_pct": ("%", None, None),
    "trace.overhead_pct": ("%", None, None),
}


class Ledger:
    """Counts the program calls a run makes and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args):
        """(result, wall seconds) of one call; (None, wall) if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"{fn.__name__} raised")
            return None, perf_counter() - start
        return result, perf_counter() - start

    def check(self, problems: list[str]) -> None:
        """Fail the call just made if any check on its output failed."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"bench: check failed: {p}", file=sys.stderr)


def metric_summary(m) -> dict | None:
    if m is None:
        return None
    return {"accuracy": m.accuracy, "macro_f1": m.macro_f1, "n_examples": m.n_examples}


def train_problems(result, epochs, valid_pairs, first) -> list[str]:
    """Output checks of one train() call; ``first`` is the run's first result."""
    if result is None:
        return []
    losses = result.epoch_losses
    problems = []
    if len(losses) != epochs or not all(map(math.isfinite, losses)):
        problems.append(f"epoch_losses {losses} are not {epochs} finite values")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses}")
    final = result.final_metrics
    if final is None or final.n_examples != valid_pairs:
        problems.append(f"validation covered {metric_summary(final)}, not {valid_pairs} pairs")
    if first is not None and (
        losses != first.epoch_losses
        or metric_summary(final) != metric_summary(first.final_metrics)
    ):
        problems.append("repeated train() differs from the first")
    return problems


def eval_problems(metrics, pairs, first) -> list[str]:
    if metrics is None:
        return []
    problems = []
    if metrics.n_examples != pairs:
        problems.append(f"evaluate() covered {metrics.n_examples} of {pairs} pairs")
    if first is not None and metric_summary(metrics) != metric_summary(first):
        problems.append("repeated evaluate() differs from the first")
    return problems


def model_properties(model) -> dict:
    return {
        "vocab_size": len(model.vocab),
        "parameters": sum(t.values.size for t in model.named_parameters().values()),
    }


def train_config(w: Workload, seed: int, workdir: Path, epochs: int):
    return training.TrainConfig(
        variant=w.variant,
        epochs=epochs,
        seed=seed,
        train_path=str(workdir / "train.json"),
        valid_path=str(workdir / "valid.json"),
        parse_path=str(workdir / "parses.conllu") if w.parsed else None,
    )


@contextmanager
def lap_marks(marks: list[float]):
    """Append the time to ``marks`` at every return of ``forward_example``,
    ``Tape.backward``, ``AdamW.step`` and the ``evaluate`` that ``train()``
    resolves, within the block."""
    sites = [
        (window.Model, "forward_example"),
        (autodiff.Tape, "backward"),
        (optim.AdamW, "step"),
        (training, "evaluate"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in sites]

    def lap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(perf_counter())

        return wrapper

    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, lap(fn))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def fastest_laps(calls: list[list[float]]) -> float:
    """The sum over laps of each lap's fastest time among the calls."""
    return sum(map(min, zip(*calls)))


class Run:
    """One invocation: a workload, its inputs on disk, and its samples."""

    def __init__(self, w: Workload, seed: int, workdir: Path, trace: bool):
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.ledger = Ledger()
        self.data = write_inputs(w, seed, workdir)
        self.pairs = {s: d.aspect_count() for s, d in self.data.items()}
        self.inputs = {s: input_properties(d) for s, d in self.data.items()}
        self.config = train_config(w, seed, workdir, w.epochs)
        # The lap times of every timed call, by what the call times.
        self.laps: dict[str, list[list[float]]] = {"setup": [], "train": [], "eval": []}
        self.outputs: dict = {}
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cycles = 0

    def next_cpu(self) -> None:
        """Move this process to the next of the CPUs it may run on, so
        that the cycles of a run take turns on each of them."""
        os.sched_setaffinity(0, {self.cpus[self.cycles % len(self.cpus)]})
        self.cycles += 1

    def traced(self, on: bool):
        """The tracer's span wrappers for a traced pass, else nothing."""
        return self.tracer.installed() if on else nullcontext()

    def add_laps(self, name: str, laps: list[float]) -> None:
        """Keep a timed call's laps; a call whose laps do not line up with
        the first call's fails."""
        calls = self.laps[name]
        if calls and len(laps) != len(calls[0]):
            self.ledger.check([f"a {name} call took {len(laps)} laps, the first {len(calls[0])}"])
            return
        calls.append(laps)

    def lapped_call(self, trace, fn, *args):
        """One call through the ledger: (its result, its lap times); a traced
        call is one lap."""
        marks: list[float] = []
        with nullcontext() if trace else lap_marks(marks):
            start = perf_counter()
            result, _ = self.ledger.call(fn, *args)
            end = perf_counter()
        points = [start, *marks, end]
        return result, [b - a for a, b in zip(points, points[1:])]

    def timed_eval(self, model, test, trees, first, trace=False):
        """Checked evaluate() calls on each chunk of ``EVAL_CHUNK`` examples
        of ``test``: (their metrics, or None if one raised; their laps)."""
        results, laps = [], []
        for i in range(0, len(test.examples), EVAL_CHUNK):
            chunk = corpus.Dataset(test.examples[i:i + EVAL_CHUNK])
            metrics, chunk_laps = self.lapped_call(trace, training.evaluate, model, chunk, trees)
            if metrics is None:
                return None, laps
            self.ledger.check(eval_problems(
                metrics, chunk.aspect_count(), first[len(results)] if first else None
            ))
            results.append(metrics)
            laps.extend(chunk_laps)
        self.outputs["test"] = {
            "accuracy": sum(m.accuracy * m.n_examples for m in results)
            / sum(m.n_examples for m in results),
            "n_examples": sum(m.n_examples for m in results),
        }
        return results, laps

    # -- training workloads -----------------------------------------------

    def train_once(self, first, trace=False):
        """One checked train() call and a checkpoint round trip of its model:
        (result, lap times of train(), reloaded model)."""
        with self.traced(trace):
            gc.collect()
            result, laps = self.lapped_call(trace, training.train, self.config)
        self.ledger.check(train_problems(result, self.w.epochs, self.pairs["valid"], first))
        model = self.round_trip(result.model) if result is not None else None
        return result, laps, model

    def round_trip(self, model):
        """Save and reload the trained model; the parameters must match."""
        path = self.workdir / "model.ckpt"
        checkpoint.save_checkpoint(model, path)
        loaded, _ = self.ledger.call(checkpoint.load_checkpoint, path)
        if loaded is None:
            return None
        before, after = model.named_parameters(), loaded.named_parameters()
        same = list(before) == list(after) and all(
            np.array_equal(before[k].values, after[k].values) for k in before
        )
        self.ledger.check([] if same else ["checkpoint round trip changed parameters"])
        self.outputs.update(model_properties(loaded))
        return loaded

    def run_train(self, deadline):
        """Cycles of set-up, train() and evaluate() calls until the deadline,
        so that every metric samples the whole run."""
        setup = replace(self.config, epochs=0)
        first = first_eval = None
        while perf_counter() < deadline or len(self.laps["train"]) < MIN_REPEATS:
            self.next_cpu()
            for _ in range(SETUP_CALLS_PER_CYCLE):
                gc.collect()
                result, wall = self.ledger.call(training.train, setup)
                if result is None:
                    return
                self.add_laps("setup", [wall])
            result, laps, model = self.train_once(first)
            if model is None:
                return
            self.add_laps("train", laps)
            first = first or result
            self.outputs.update(
                epoch_losses=first.epoch_losses, valid=metric_summary(first.final_metrics)
            )
            for _ in range(EVAL_CALLS_PER_CYCLE):
                gc.collect()
                chunks, laps = self.timed_eval(model, self.data["test"], None, first_eval)
                if chunks is None:
                    return
                self.add_laps("eval", laps)
                first_eval = first_eval or chunks

    def trace_train(self, deadline):
        """Alternate untraced and traced train() calls until the deadline."""
        first = None
        while perf_counter() < deadline or not self.traced_walls:
            self.next_cpu()
            for trace in (False, True):
                result, laps, _ = self.train_once(first, trace)
                if result is None:
                    return
                (self.traced_walls if trace else self.untraced_walls).append(sum(laps))
                first = first or result
                self.outputs.update(
                    epoch_losses=first.epoch_losses,
                    valid=metric_summary(first.final_metrics),
                )

    # -- the forward-only workload ----------------------------------------

    def make_checkpoint(self, entry: Path):
        """Train the checkpoint in a child process, so that this process's
        peak RSS is that of loading and evaluating alone."""
        cmd = [
            sys.executable, str(entry),
            "--workload", self.w.name, "--seed", str(self.seed),
            "--make-checkpoint", str(self.workdir),
        ]
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"checkpoint training exited with {done.returncode}")

    def cold_eval(self, first, trace=False):
        """load_checkpoint + load_dataset + load_parses, then evaluate() on
        chunks: (chunk metrics, load walls, evaluate() laps), or None."""
        with self.traced(trace):
            gc.collect()
            model, t_model = self.ledger.call(
                checkpoint.load_checkpoint, self.workdir / "model.ckpt"
            )
            test, t_test = self.ledger.call(corpus.load_dataset, self.workdir / "test.json")
            trees, t_trees = self.ledger.call(
                distance.load_parses, self.workdir / "parses.conllu"
            )
            if model is None or test is None or trees is None:
                return None
            chunks, laps = self.timed_eval(model, test, trees, first, trace)
        if model.syntax_fallbacks:
            self.ledger.check(
                [f"{model.syntax_fallbacks} syntax fallbacks: lsa_s ran as lsa_t"]
            )
        if chunks is None:
            return None
        self.outputs.update(model_properties(model), syntax_fallbacks=model.syntax_fallbacks)
        return chunks, [t_model, t_test, t_trees], laps

    def run_eval(self, deadline):
        first = None
        while perf_counter() < deadline or len(self.laps["eval"]) < MIN_REPEATS:
            self.next_cpu()
            got = self.cold_eval(first)
            if got is None:
                return
            chunks, load, laps = got
            self.add_laps("setup", load)
            self.add_laps("eval", laps)
            first = first or chunks

    def trace_eval(self, deadline):
        first = None
        while perf_counter() < deadline or not self.traced_walls:
            self.next_cpu()
            for trace in (False, True):
                got = self.cold_eval(first, trace)
                if got is None:
                    return
                chunks, load, laps = got
                (self.traced_walls if trace else self.untraced_walls).append(
                    sum(load) + sum(laps)
                )
                first = first or chunks


# ---------------------------------------------------------------------------
# Metrics


def end_to_end_metrics(run: Run) -> dict:
    timed = ("setup", "train", "eval") if run.w.trains else ("setup", "eval")
    if not all(run.laps[name] for name in timed):
        return {}
    t = {name: fastest_laps(run.laps[name]) for name in timed}
    test_pairs = run.pairs["test"]
    values = {
        "pairs_per_s": run.w.epochs * run.pairs["train"] / t["train"]
        if run.w.trains
        else test_pairs / (t["setup"] + t["eval"]),
        "eval_pairs_per_s": test_pairs / t["eval"],
        "setup_s": t["setup"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics averaged over the traced passes, and the problems
    the trace's own checks found."""
    tracer, passes = run.tracer, len(run.traced_walls)
    if not passes or not run.untraced_walls:
        return {}, ["no traced pass completed"]
    values = {}
    for name, (unit, span, stat) in LAYER_METRICS.items():
        if span is not None:
            raw = getattr(tracer.stats[span], stat)
            values[name] = (raw * 1000 if stat == "self_s" else raw) / passes
    values["window.head_sa.calls_per_pair"] = tracer.stats["window.head_sa"].calls / max(
        1, tracer.pairs_forwarded
    )
    values["window.pairs_forwarded"] = tracer.pairs_forwarded / passes
    trained = passes * run.w.epochs * run.pairs["train"]
    values["autodiff.tape_nodes_per_pair"] = tracer.tape_nodes / trained if trained else 0.0
    values["window.syntax_fallbacks"] = run.outputs.get("syntax_fallbacks", 0)

    # Every traced second belongs to exactly one span's self time.
    problems = []
    root_wall = sum(r.wall_s for r in tracer.roots)
    self_sum = sum(s.self_s for s in tracer.stats.values())
    if abs(self_sum - root_wall) > 1e-6 * max(1.0, root_wall):
        problems.append(f"span self times sum to {self_sum:.6f}s, not {root_wall:.6f}s")

    # The share of the timed call that no layer span covers.
    timed = "training.train" if run.w.trains else "training.evaluate"
    tops = [r for r in tracer.roots if r.name == timed]
    unattributed = 100 * sum(r.self_s for r in tops) / sum(r.wall_s for r in tops)
    values["trace.unattributed_pct"] = unattributed
    if unattributed > UNATTRIBUTED_LIMIT_PCT:
        problems.append(
            f"{unattributed:.1f}% of {timed} lies outside layer spans "
            f"(limit {UNATTRIBUTED_LIMIT_PCT}%)"
        )
    # Each traced pass follows an untraced one on the same CPU.
    values["trace.overhead_pct"] = 100 * (
        statistics.median(t / u for t, u in zip(run.traced_walls, run.untraced_walls)) - 1
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _, _) in LAYER_METRICS.items()
    }, problems


# ---------------------------------------------------------------------------
# Environment


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((src / "lsa").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry points


def make_checkpoint(w: Workload, seed: int, workdir: Path) -> None:
    """Train the forward-only workload's checkpoint from its inputs."""
    config = train_config(w, seed, workdir, CHECKPOINT_EPOCHS)
    checkpoint.save_checkpoint(training.train(config).model, workdir / "model.ckpt")


def measure(w: Workload, seed: int, seconds: float, trace: bool, root: Path, entry: Path) -> int:
    """Run one workload and print its details and result; the exit code."""
    start = perf_counter()
    work_root = root / ".bench_work"
    workdir = work_root / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(w, seed, workdir, trace)
        if not w.trains:
            run.make_checkpoint(entry)
        deadline = perf_counter() + seconds
        if trace:
            (run.trace_train if w.trains else run.trace_eval)(deadline)
            metrics, problems = per_layer_metrics(run)
            run.ledger.check(problems)
        else:
            (run.run_train if w.trains else run.run_eval)(deadline)
            metrics = end_to_end_metrics(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    missing = sorted(set(LAYER_METRICS if trace else END_TO_END_UNITS) - set(metrics))
    if missing:
        print(f"bench: nothing measured for {missing}", file=sys.stderr)
        return 1
    ledger = run.ledger
    call_walls = {name: [sum(laps) for laps in calls] for name, calls in run.laps.items() if calls}
    detail = {
        "workload": w.name,
        "why": w.why,
        "idle": w.idle,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "inputs": run.inputs,
        "outputs": run.outputs,
        "call_walls_s": call_walls,
        "median_call_walls_s": {name: statistics.median(xs) for name, xs in call_walls.items()},
        "fastest_laps_s": {
            name: fastest_laps(calls) for name, calls in run.laps.items() if calls
        },
        "untraced_walls_s": run.untraced_walls,
        "traced_walls_s": run.traced_walls,
        "problems": ledger.problems,
        "run_wall_s": perf_counter() - start,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0
