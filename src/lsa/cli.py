"""Command-line surface: dataset analysis, synthetic generation, training,
evaluation, sweeps, trajectory export, and replay.

``COMMANDS`` is the one table of the commands that write a run manifest,
and of the files each writes.  From it the parser is built, ``main``
builds the args dict from the flags, and ``run_command`` reads that dict,
or one from a manifest, checks that those files can be written, and runs
the command.
``DESCRIPTION`` is what ``lsa --help`` tells a user: the exit codes and
where the files go.  Stdout stays human-readable; machine-readable
artifacts go to files.  ``lsa eval`` forwards its dataset once and writes
the metrics of all pairs and of each slice in ``training.SLICES`` that
has pairs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    DataError,
    SynthSpec,
    cluster_histogram,
    dataset_to_json,
    field_value,
    generate_synthetic_corpus,
    load_dataset,
    read_text,
)
from .distance import load_parses
from .encoder import ConfigError
from .runio import (OutputError, build_manifest, check_writable, load_manifest,
                    verify_manifest_hashes, write_csv, write_file, write_manifest)
from .training import SLICES, NumericError, TrainConfig, evaluate_slices, train


DESCRIPTION = """\
Aspect sentiment classification by local sentiment aggregation.  Each
command but export-trajectory writes its files and a manifest.json, which
replay re-runs, under --out: by default a directory per command (such as
train/ or eval/) in $LSA_OUTPUT_ROOT, else in the working directory.
eval's eval.csv holds a row for all pairs, then one for each slice that
has pairs, from one pass over the dataset.

exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _out_dir(args, default_name: str) -> Path:
    """The output directory, made if missing; a usage error if it cannot be."""
    out = Path(args.out or Path(os.environ.get("LSA_OUTPUT_ROOT", ".")) / default_name)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make the output directory {out}: {e.strerror or e}")
    return out


def _command_args(args) -> dict:
    """The args dict the manifest of ``args.command`` records.  Its config
    is the config file's values, overridden by any explicitly passed flags."""
    params = COMMANDS[args.command].args
    values = {a.name: getattr(args, a.name) for a in params}
    if CONFIG in params:
        path = values[CONFIG.name]
        config = asdict(TrainConfig.from_file(path) if path else TrainConfig())
        given = {k: v for k, v in vars(args).items() if k in config}
        values[CONFIG.name] = asdict(TrainConfig.from_dict({**config, **given}))
    return values[CONFIG.name] if params == (CONFIG,) else values


def _config_inputs(config: TrainConfig) -> list:
    return [config.train_path, config.valid_path, config.test_path, config.parse_path]


MAX_GRID_POINTS = 1001  # each point of a --grid is a full training


def _parse_grid(spec: str) -> list[Decimal]:
    """The points start, start + step, ... up to stop, as exact decimals of
    the spec's text: the point 0.3 is 0.3, and 1 - 0.7 is 0.3."""
    try:
        start, stop, step = (Decimal(p) for p in spec.split(":"))
    except (ValueError, InvalidOperation):
        raise ConfigError(f"grid must be start:stop:step, got {spec!r}")
    if not all(p.is_finite() for p in (start, stop, step)):
        raise ConfigError(f"grid must have finite start, stop and step, got {spec!r}")
    if step <= 0 or stop < start:
        raise ConfigError("grid must have positive step and stop >= start")
    try:
        count = int((stop - start) // step) + 1
    except InvalidOperation:  # the quotient has more digits than a decimal holds
        count = MAX_GRID_POINTS + 1
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid must have at most {MAX_GRID_POINTS} points, got {spec!r}")
    return [start + i * step for i in range(count)]


def _parse_seeds(spec: str) -> list[int]:
    try:
        return [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated integers, got {spec!r}")


# ---------------------------------------------------------------------------
# Commands: (args dict, output directory) -> the files the command read


def run_analyze_clusters(args: dict, out_dir: Path) -> list:
    dataset = load_dataset(args["dataset"], args["format"])
    hist = cluster_histogram(dataset)
    print(f"{args['dataset']}: {len(dataset.examples)} examples, "
          f"{dataset.aspect_count()} aspects")
    for label, n in hist.items():
        print(f"  cluster size {label:>2}: {n} aspects")
    print(f"  total: {sum(hist.values())}")
    csv_path = out_dir / "clusters.csv"
    write_csv(csv_path, ["size", "count"], hist.items())
    print(f"wrote {csv_path}")
    return [args["dataset"]]


def run_synth(args: dict, out_dir: Path) -> list:
    TrainConfig(seed=args["seed"])  # a seed out of a config's domain is a usage error
    spec = SynthSpec.from_file(args["spec"])
    paths = {split: out_dir / f"{split}.json" for split in sorted(spec.splits)}
    check_writable(paths.values())
    datasets = generate_synthetic_corpus(spec, args["seed"])
    for split, dataset in sorted(datasets.items()):
        path = paths[split]
        write_file(path, dataset_to_json(dataset))
        print(f"wrote {path} ({len(dataset.examples)} examples, "
              f"{dataset.aspect_count()} aspects)")
    return [args["spec"]]


def run_train(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args)
    result = train(config)
    write_csv(out_dir / "metrics.csv", ["epoch", "split", "acc", "macro_f1"], result.metrics_rows)
    write_csv(out_dir / "eta_trajectory.csv", ["step", "eta_l", "eta_r"], result.trajectory)
    save_checkpoint(result.model, out_dir / "checkpoint.bin")
    print(f"trained {config.variant} for {config.epochs} epochs "
          f"(best epoch {result.best_epoch})")
    if result.final_metrics:
        m = result.final_metrics
        print(f"final: acc {m.accuracy:.4f}, macro-F1 {m.macro_f1:.4f} "
              f"({m.n_examples} pairs)")
    print(f"artifacts in {out_dir}")
    return _config_inputs(config)


def run_eval(args: dict, out_dir: Path) -> list:
    model = load_checkpoint(args["checkpoint"])
    dataset = load_dataset(args["dataset"], args["format"])
    trees = load_parses(args["parses"]) if args["parses"] else None
    rows = evaluate_slices(model, dataset, trees, path=args["dataset"])
    for label, m in rows.items():
        print(f"{args['dataset']} [{label}]: acc {m.accuracy:.4f}, "
              f"macro-F1 {m.macro_f1:.4f} over {m.n_examples} pairs")
        if label == "all":  # a slice gets one line
            for pol, cs in zip(("positive", "negative", "neutral"), m.per_class):
                print(f"  {pol:>8}: precision {cs.precision:.4f}, recall {cs.recall:.4f}, "
                      f"F1 {cs.f1:.4f}")
    write_csv(out_dir / "eval.csv", ["slice", "acc", "macro_f1", "n"],
              [(label, m.accuracy, m.macro_f1, m.n_examples) for label, m in rows.items()])
    return [args["checkpoint"], args["dataset"], args["parses"]]


def run_sweep_eta(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args["config"])
    grid = _parse_grid(args["grid"])
    if config.epochs < 1:
        raise ConfigError("eta sweep needs at least one epoch")
    if config.k == 0:
        raise ConfigError("sweep-eta needs k >= 1: at k = 0 there is no side weight to sweep")
    runs = [replace(config, no_dwa=True, frozen_eta=(float(eta_l), float(1 - eta_l)))
            for eta_l in grid]  # a decimal point gives an exact 1 - eta_l
    rows = []
    for run in runs:
        result = train(run)
        m = result.final_metrics
        # the side weights as the trained window reads them: a side with no slot reads 1
        rows.append((*result.model.eta_values(), m.accuracy, m.macro_f1))
    write_csv(out_dir / "sweep_eta.csv", ["eta_l", "eta_r", "acc", "macro_f1"], rows)
    for eta_l, eta_r, acc, f1 in rows:
        print(f"eta_l {eta_l:.2f} eta_r {eta_r:.2f}: acc {acc:.4f}, macro-F1 {f1:.4f}")
    return _config_inputs(config)


def run_sweep_seeds(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args["config"])
    seeds = _parse_seeds(args["seeds"])
    if len(seeds) < 2:
        raise ConfigError("seed sweep needs at least two seeds")
    if config.epochs < 1:
        raise ConfigError("seed sweep needs at least one epoch")
    runs = [replace(config, seed=seed) for seed in seeds]
    rows = []
    for run in runs:
        m = train(run).final_metrics
        rows.append((str(run.seed), m.accuracy, m.macro_f1))
    scores = np.array([row[1:] for row in rows])  # (seeds, [acc, macro_f1])
    median = np.median(scores, axis=0).tolist()
    iqr = (np.percentile(scores, 75, axis=0) - np.percentile(scores, 25, axis=0)).tolist()
    write_csv(out_dir / "sweep_seeds.csv", ["seed", "acc", "macro_f1"],
              [*rows, ("median", *median), ("iqr", *iqr)])
    print(f"median acc {median[0]:.4f} (IQR {iqr[0]:.4f}), "
          f"median macro-F1 {median[1]:.4f} (IQR {iqr[1]:.4f})")
    return _config_inputs(config)


class Arg:
    """An argument of a command: its flag as ``add_argument`` takes it
    ("name" is positional, "--name" an option; "name" is its key in the
    args dict), its value's ``corpus.field_value`` kind, and ``add_argument``'s
    other keywords.  CONFIG is ``--config`` plus a flag per TrainConfig
    field; its value is the config's dict, and train's whole args dict."""

    def __init__(self, flag: str, kind: str, **options):
        self.flag, self.kind, self.options = flag, kind, options
        self.name = flag.lstrip("-")


class Command(NamedTuple):
    run: Callable[[dict, Path], list]
    out: str  # the default output directory under the output root
    help: str
    args: tuple[Arg, ...]  # in flag order
    writes: tuple[str, ...]  # the files it writes in the output directory, but the manifest


CONFIG = Arg("--config", "config")
FORMAT = Arg("--format", "str | None", choices=["absa-json", "semeval-xml"])
COMMANDS = {
    "analyze-clusters": Command(run_analyze_clusters, "clusters", "sentiment cluster histogram",
                                (Arg("dataset", "str"), FORMAT), ("clusters.csv",)),
    "synth": Command(run_synth, "synth", "generate a synthetic corpus", (
        Arg("--spec", "str", required=True),
        Arg("--seed", "int", type=int, required=True)), ()),  # the spec's splits: see run_synth
    "train": Command(run_train, "train", "train a model", (CONFIG,),
                     ("metrics.csv", "eta_trajectory.csv", "checkpoint.bin")),
    "sweep-eta": Command(run_sweep_eta, "sweep-eta", "train once per static eta_l = 1 - eta_r",
                         (CONFIG, Arg("--grid", "str", default="0:1:0.1")), ("sweep_eta.csv",)),
    "sweep-seeds": Command(run_sweep_seeds, "sweep-seeds", "train once per seed",
                           (CONFIG, Arg("--seeds", "str", default="0,1,2,3,4")),
                           ("sweep_seeds.csv",)),
    "eval": Command(run_eval, "eval", "evaluate a checkpoint on all pairs and on each slice "
                    f"({', '.join(SLICES)}) that has pairs, into eval.csv", (
        Arg("--checkpoint", "str", required=True),
        Arg("--dataset", "str", required=True),
        FORMAT,
        Arg("--parses", "str | None")), ("eval.csv",)),
}


def read_args(name: str, args: dict) -> dict:
    """The values of a command's args, each read as its kind in
    ``COMMANDS``.  A missing or unknown arg, or a value of the wrong type,
    is a ConfigError."""
    params = COMMANDS[name].args
    if params == (CONFIG,):  # a config's fields, read by TrainConfig.from_dict
        return args
    names = [a.name for a in params]
    if set(args) != set(names):
        raise ConfigError(f"{name} args must be {sorted(names)}, got {sorted(args)}")
    values = {}
    for a in params:
        raw = args[a.name]
        try:
            if a is CONFIG and not isinstance(raw, dict):
                raise ValueError(f"expected an object, got {raw!r}")
            values[a.name] = raw if a is CONFIG else field_value(a.kind, raw)
        except ValueError as e:
            raise ConfigError(f"bad value for {a.name}: {e}")
    return values


def run_command(name: str, args: dict, out_dir: Path) -> None:
    """Run a command on the values of ``args`` and write its manifest,
    which records ``args`` as given, next to its artifacts.  Before the
    command reads an input, the files it writes are checked: one that
    cannot be written is an OutputError."""
    command = COMMANDS[name]
    values = read_args(name, args)
    check_writable(out_dir / file for file in (*command.writes, "manifest.json"))
    inputs = command.run(values, out_dir)
    write_manifest(build_manifest(name, args, inputs), out_dir)


def run_export_trajectory(run_dir, out_file) -> None:
    src = Path(run_dir) / "eta_trajectory.csv"
    text = read_text(src)
    header = text.partition("\n")[0]
    if header != "step,eta_l,eta_r":
        raise DataError(f"{src}: unexpected trajectory header {header!r}")
    write_file(out_file, text)
    print(f"exported {src} -> {out_file}")


def run_replay(manifest_path, out_dir: Path) -> None:
    manifest = load_manifest(manifest_path)
    if manifest["command"] not in COMMANDS:
        raise DataError(f"{manifest_path}: manifest command {manifest['command']!r} "
                        "cannot be replayed")
    verify_manifest_hashes(manifest)
    print(f"replaying {manifest['command']} from {manifest_path}")
    try:
        run_command(manifest["command"], manifest["args"], out_dir)
    except OutputError:  # --out is at fault
        raise
    except ConfigError as e:  # every other value came from the manifest
        raise DataError(f"{manifest_path}: {e}")


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsa", description=DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for a in command.args:
            p.add_argument(a.flag, **a.options)
            # a field flag that is not given leaves no attribute, so the
            # config file's value stands
            for f in fields(TrainConfig) if a is CONFIG else ():
                flag = "--" + f.name.replace("_", "-")
                if f.type == "bool":
                    p.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
                else:
                    metavar = "L,R" if f.name == "frozen_eta" else None
                    p.add_argument(flag, default=argparse.SUPPRESS, metavar=metavar)
        p.add_argument("--out", default=None)

    p = sub.add_parser("export-trajectory", help="copy a run's eta_trajectory.csv to --out")
    p.add_argument("--run", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "export-trajectory":
            run_export_trajectory(args.run, args.out)
        elif args.command == "replay":
            run_replay(args.manifest, _out_dir(args, "replay"))
        else:
            run_command(
                args.command, _command_args(args), _out_dir(args, COMMANDS[args.command].out)
            )
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
