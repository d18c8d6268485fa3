"""Command-line surface: dataset analysis, synthetic generation, training,
evaluation, sweeps, trajectory export, and replay.

Each command in ``COMMANDS`` takes the args dict its run manifest records,
writes its artifacts under an output directory and returns the files it
read.  ``main`` builds that dict from the flags, ``replay`` reads it back
from a manifest, and ``run_command`` writes the manifest for both.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Stdout stays human-readable; machine-readable artifacts go to files under
--out (default: $LSA_OUTPUT_ROOT, falling back to the working directory).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (
    DataError,
    SynthSpec,
    cluster_histogram,
    dataset_to_json,
    generate_synthetic_corpus,
    load_dataset,
)
from .distance import load_parses
from .encoder import ConfigError
from .runio import build_manifest, load_manifest, verify_manifest_hashes, write_csv, write_manifest
from .training import (
    NumericError,
    TrainConfig,
    evaluate,
    field_parser,
    seed_sweep,
    static_eta_sweep,
    train,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _output_root() -> Path:
    return Path(os.environ.get("LSA_OUTPUT_ROOT", "."))


def _out_dir(args, default_name: str) -> Path:
    out = Path(args.out) if args.out else _output_root() / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_config_flags(parser) -> None:
    """One flag per TrainConfig field; a flag that is not given leaves no
    attribute, so the config file's value stands."""
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
        else:
            metavar = "L,R" if f.name == "frozen_eta" else None
            parser.add_argument(
                flag, type=field_parser(f), default=argparse.SUPPRESS, metavar=metavar
            )


def _config_from_args(args) -> TrainConfig:
    """Config file values, overridden by any explicitly passed flags."""
    config = TrainConfig.from_file(args.config) if args.config else TrainConfig()
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if hasattr(args, f.name)}
    return replace(config, **given)


def _command_args(args) -> dict:
    """The args dict the manifest of ``args.command`` records."""
    if args.command in ("train", "sweep-eta", "sweep-seeds"):
        config = asdict(_config_from_args(args))
        if args.command == "train":
            return config
        key = "grid" if args.command == "sweep-eta" else "seeds"
        return {"config": config, key: getattr(args, key)}
    return {k: v for k, v in vars(args).items() if k not in ("command", "out")}


def _config_inputs(config: TrainConfig) -> list:
    return [config.train_path, config.valid_path, config.test_path, config.parse_path]


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise UsageError(f"grid must be start:stop:step, got {spec!r}")
    if step <= 0 or stop < start:
        raise UsageError("grid must have positive step and stop >= start")
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)]


def _parse_seeds(spec: str) -> list[int]:
    try:
        return [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise UsageError(f"seeds must be comma-separated integers, got {spec!r}")


# ---------------------------------------------------------------------------
# Commands: (args dict, output directory) -> the files the command read


def run_analyze_clusters(args: dict, out_dir: Path) -> list:
    dataset = load_dataset(args["dataset"], args["format"])
    hist = cluster_histogram(dataset)
    print(f"{args['dataset']}: {len(dataset.examples)} examples, "
          f"{dataset.aspect_count()} aspects")
    for label, n in hist.labelled():
        print(f"  cluster size {label:>2}: {n} aspects")
    print(f"  total: {hist.total}")
    csv_path = out_dir / "clusters.csv"
    csv_path.write_text(hist.as_csv(), encoding="utf-8")
    print(f"wrote {csv_path}")
    return [args["dataset"]]


def run_synth(args: dict, out_dir: Path) -> list:
    spec = SynthSpec.from_file(args["spec"])
    datasets = generate_synthetic_corpus(spec, args["seed"])
    for split, dataset in sorted(datasets.items()):
        path = out_dir / f"{split}.json"
        path.write_text(dataset_to_json(dataset), encoding="utf-8")
        print(f"wrote {path} ({len(dataset.examples)} examples, "
              f"{dataset.aspect_count()} aspects)")
    return [args["spec"]]


def run_train(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args)
    result = train(config)
    write_csv(
        out_dir / "metrics.csv",
        ["epoch", "split", "acc", "macro_f1"],
        result.metrics_rows,
    )
    write_csv(
        out_dir / "eta_trajectory.csv",
        ["step", "eta_l", "eta_r"],
        result.trajectory,
    )
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
    metrics = evaluate(model, dataset, trees, args["slice"])
    label = args["slice"] or "all"
    print(f"{args['dataset']} [{label}]: acc {metrics.accuracy:.4f}, "
          f"macro-F1 {metrics.macro_f1:.4f} over {metrics.n_examples} pairs")
    for pol, cs in zip(("positive", "negative", "neutral"), metrics.per_class):
        print(f"  {pol:>8}: precision {cs.precision:.4f}, recall {cs.recall:.4f}, "
              f"F1 {cs.f1:.4f}")
    write_csv(
        out_dir / "eval.csv",
        ["slice", "acc", "macro_f1", "n"],
        [(label, metrics.accuracy, metrics.macro_f1, metrics.n_examples)],
    )
    return [args["checkpoint"], args["dataset"], args["parses"]]


def run_sweep_eta(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args["config"])
    rows = static_eta_sweep(config, _parse_grid(args["grid"]))
    write_csv(
        out_dir / "sweep_eta.csv",
        ["eta_l", "eta_r", "acc", "macro_f1"],
        rows,
    )
    for eta_l, eta_r, acc, f1 in rows:
        print(f"eta_l {eta_l:.2f} eta_r {eta_r:.2f}: acc {acc:.4f}, macro-F1 {f1:.4f}")
    return _config_inputs(config)


def run_sweep_seeds(args: dict, out_dir: Path) -> list:
    config = TrainConfig.from_dict(args["config"])
    summary = seed_sweep(config, _parse_seeds(args["seeds"]))
    rows = [(str(s), acc, f1) for s, acc, f1 in summary.rows]
    rows.append(("median", summary.median_acc, summary.median_f1))
    rows.append(("iqr", summary.iqr_acc, summary.iqr_f1))
    write_csv(out_dir / "sweep_seeds.csv", ["seed", "acc", "macro_f1"], rows)
    print(f"median acc {summary.median_acc:.4f} (IQR {summary.iqr_acc:.4f}), "
          f"median macro-F1 {summary.median_f1:.4f} (IQR {summary.iqr_f1:.4f})")
    return _config_inputs(config)


# name -> (command, default output directory under the output root)
COMMANDS = {
    "analyze-clusters": (run_analyze_clusters, "clusters"),
    "synth": (run_synth, "synth"),
    "train": (run_train, "train"),
    "eval": (run_eval, "eval"),
    "sweep-eta": (run_sweep_eta, "sweep-eta"),
    "sweep-seeds": (run_sweep_seeds, "sweep-seeds"),
}


def run_command(name: str, args: dict, out_dir: Path) -> None:
    """Run a command and write its manifest next to its artifacts."""
    if name not in COMMANDS:
        raise DataError(f"manifest command {name!r} cannot be replayed")
    inputs = COMMANDS[name][0](args, out_dir)
    write_manifest(build_manifest(name, args, inputs), out_dir)


def run_export_trajectory(run_dir, out_file) -> None:
    src = Path(run_dir) / "eta_trajectory.csv"
    if not src.exists():
        raise DataError(f"no eta_trajectory.csv under {run_dir}")
    header = src.read_text(encoding="utf-8").splitlines()[0]
    if header != "step,eta_l,eta_r":
        raise DataError(f"{src}: unexpected trajectory header {header!r}")
    shutil.copyfile(src, out_file)
    print(f"exported {src} -> {out_file}")


def run_replay(manifest_path, out_dir: Path) -> None:
    manifest = load_manifest(manifest_path)
    verify_manifest_hashes(manifest)
    print(f"replaying {manifest['command']} from {manifest_path}")
    run_command(manifest["command"], manifest["args"], out_dir)


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="lsa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-clusters", help="sentiment cluster histogram")
    p.add_argument("dataset")
    p.add_argument("--format", choices=["absa-json", "semeval-xml"], default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    for name in ("train", "sweep-eta", "sweep-seeds"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        _add_config_flags(p)
        if name == "sweep-eta":
            p.add_argument("--grid", default="0:1:0.1")
        if name == "sweep-seeds":
            p.add_argument("--seeds", default="0,1,2,3,4")

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["absa-json", "semeval-xml"], default=None)
    p.add_argument("--slice", default=None,
                   help="implicit | explicit | mono | cluster1..cluster4 | cluster5+")
    p.add_argument("--parses", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export-trajectory")
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
                args.command, _command_args(args), _out_dir(args, COMMANDS[args.command][1])
            )
    except (UsageError, ConfigError) as e:
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
