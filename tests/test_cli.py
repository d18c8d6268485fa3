"""Command surface: artifacts, exit codes, determinism, replay."""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from lsa.cli import COMMANDS, main
from lsa.corpus import SynthSpec, load_dataset
from lsa.runio import config_hash
from lsa.training import SLICES, TrainConfig
from lsa.window import Model

from util import FIXTURES, OUT_OF_DOMAIN, with_edited_vocabulary, write_synth_corpus


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clicorpus")
    _, datasets, paths = write_synth_corpus(tmp, train=40, test=16)
    return paths


def train_args(paths, out, extra=()):
    return [
        "train",
        "--train-path", paths["train"],
        "--test-path", paths["test"],
        "--epochs", "1",
        "--seed", "3",
        "--d-model", "16",
        "--layers", "1",
        "--heads", "1",
        "--ffn-mult", "2",
        "--batch", "8",
        "--out", out,
        *extra,
    ]


# ---------------------------------------------------------------------------
# analyze-clusters


def test_analyze_clusters_matches_fixture_csv(tmp_path, capsys):
    out = tmp_path / "clusters"
    assert run(["analyze-clusters", FIXTURES / "mini.json", "--out", out]) == 0
    got = (out / "clusters.csv").read_bytes()
    expected = (FIXTURES / "expected_clusters.csv").read_bytes()
    assert got == expected
    assert (out / "manifest.json").exists()
    assert "cluster size" in capsys.readouterr().out


def test_analyze_clusters_empty_dataset(tmp_path):
    ds = tmp_path / "empty.json"
    ds.write_text('{"version":1,"examples":[]}')
    out = tmp_path / "out"
    assert run(["analyze-clusters", ds, "--out", out]) == 0
    body = (out / "clusters.csv").read_text()
    assert body == "size,count\n1,0\n2,0\n3,0\n4,0\n5+,0\n"


def test_missing_dataset_is_data_error(tmp_path):
    assert run(["analyze-clusters", tmp_path / "nope.json", "--out", tmp_path]) == 2


def test_unknown_flag_is_usage_error(tmp_path):
    assert run(["analyze-clusters", "--bogus"]) == 1


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 1


# what each manifest-writing command says when run with no argument but --out
MISSING_REQUIRED = {
    "analyze-clusters": "the following arguments are required: dataset",
    "synth": "the following arguments are required: --spec, --seed",
    "train": "train_path is required",
    "sweep-eta": "train_path is required",
    "sweep-seeds": "train_path is required",
    "eval": "the following arguments are required: --checkpoint, --dataset",
}


@pytest.mark.parametrize("command", COMMANDS)
def test_missing_required_argument_is_usage_error(command, tmp_path, capsys):
    """argparse names the missing flags in the order they were declared,
    so the command table keeps the flag order."""
    assert run([command, "--out", tmp_path]) == 1
    assert capsys.readouterr().err == f"usage error: {MISSING_REQUIRED[command]}\n"


# ---------------------------------------------------------------------------
# synth


def synth_spec_file(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(
        "vocab_size=10\nrho=1.0\nimplicit_fraction=0.3\n"
        "aspects=2:0.9,3:0.1\ntrain=20\ntest=8\n"
    )
    return spec


def test_synth_deterministic_and_seed_sensitive(tmp_path):
    spec = synth_spec_file(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["synth", "--spec", spec, "--seed", "5", "--out", a]) == 0
    assert run(["synth", "--spec", spec, "--seed", "5", "--out", b]) == 0
    assert run(["synth", "--spec", spec, "--seed", "6", "--out", c]) == 0
    assert (a / "train.json").read_bytes() == (b / "train.json").read_bytes()
    assert (a / "train.json").read_bytes() != (c / "train.json").read_bytes()


@pytest.mark.parametrize("aspects", ["2:nan", "2:inf,3:1"], ids=["nan", "inf"])
def test_synth_non_finite_weight_is_data_error(aspects, tmp_path, capsys):
    """Such a weight once ended in numpy's "Probabilities contain NaN"
    ValueError traceback (exit 1)."""
    spec = tmp_path / "spec.txt"
    spec.write_text(f"train=5\naspects={aspects}\n")
    assert run(["synth", "--spec", spec, "--seed", "1", "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == (f"data error: {spec}: bad value for aspects: "
                                       f"expected a finite number, got '{aspects[2:5]}'\n")


def test_synth_rho_one_coherence(tmp_path):
    from lsa.corpus import load_dataset

    spec = synth_spec_file(tmp_path)
    out = tmp_path / "synth"
    assert run(["synth", "--spec", spec, "--seed", "1", "--out", out]) == 0
    ds = load_dataset(out / "train.json")
    for ex in ds.examples:
        assert len({a.polarity for a in ex.aspects}) <= 1


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_artifacts_and_is_deterministic(corpus, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(train_args(corpus, out1)) == 0
    assert run(train_args(corpus, out2)) == 0
    for name in ("metrics.csv", "eta_trajectory.csv", "checkpoint.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header, first, *_ = (out1 / "eta_trajectory.csv").read_text().splitlines()
    assert header == "step,eta_l,eta_r"
    assert first == "0,1.0,1.0"
    assert (out1 / "metrics.csv").read_text().splitlines()[0] == (
        "epoch,split,acc,macro_f1"
    )


def test_train_flag_routing_no_dwa(corpus, tmp_path):
    out = tmp_path / "nodwa"
    assert run(train_args(corpus, out, extra=["--no-dwa"])) == 0
    rows = (out / "eta_trajectory.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[1:] == ["1.0", "1.0"] for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["no_dwa"] is True


def test_backbone_k0_trains_evaluates_and_replays(corpus, tmp_path):
    """k = 0 is the backbone: one slot and no side weight to learn."""
    out = tmp_path / "k0"
    assert run(train_args(corpus, out, extra=["--k", "0"])) == 0
    rows = (out / "eta_trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) > 1 and all(r.split(",")[1:] == ["1.0", "1.0"] for r in rows)
    assert run(["eval", "--checkpoint", out / "checkpoint.bin", "--dataset", corpus["test"],
                "--out", tmp_path / "eval"]) == 0
    replayed = tmp_path / "replayed"
    assert run(["replay", out / "manifest.json", "--out", replayed]) == 0
    for name in ("metrics.csv", "eta_trajectory.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() == (replayed / name).read_bytes()


@pytest.mark.parametrize("flag, unused", [("--la-only", 2), ("--ra-only", 1)])
def test_one_sided_window_trains_and_leaves_the_other_eta_at_one(flag, unused, corpus, tmp_path):
    out = tmp_path / "onesided"
    assert run(train_args(corpus, out, extra=[flag])) == 0
    rows = [r.split(",") for r in (out / "eta_trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) > 1
    assert all(r[unused] == "1.0" for r in rows)
    assert rows[-1][3 - unused] != "1.0"


def test_eval_command_and_slices(corpus, train_run, tmp_path, capsys):
    """One ``lsa eval`` writes the "all" row, then a row for each slice
    that has pairs, in ``SLICES`` order; stdout gives "all" per class and
    each slice in one line."""
    out = tmp_path / "eval"
    assert run(["eval", "--checkpoint", train_run / "checkpoint.bin", "--dataset", corpus["test"],
                "--out", out]) == 0
    rows = [line.split(",") for line in (out / "eval.csv").read_text().splitlines()]
    assert rows[0] == ["slice", "acc", "macro_f1", "n"]
    labels = [row[0] for row in rows[1:]]
    assert labels[0] == "all" and "implicit" in labels and "mono" not in labels
    assert labels[1:] == [name for name in SLICES if name in labels]
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if not line.startswith("  ")] == [
        f"{corpus['test']} [{label}]: acc {float(acc):.4f}, macro-F1 {float(f1):.4f} over {n} pairs"
        for label, acc, f1, n in rows[1:]]
    assert len(printed) == len(labels) + 3  # "all" adds a line per class


def test_eval_forwards_each_pair_once(corpus, train_run, tmp_path, monkeypatch):
    """Every slice row comes from one forward of the split: each example's
    inputs are built once and forwarded once."""
    prepared, forwarded = [], []
    forward_example, logits = Model.forward_example, Model.logits

    def counting_forward_example(self, example, trees=None):
        prepared.append(id(example))
        return forward_example(self, example, trees)

    def counting_logits(self, inputs):
        forwarded.extend(id(x) for x in inputs)
        return logits(self, inputs)

    monkeypatch.setattr(Model, "forward_example", counting_forward_example)
    monkeypatch.setattr(Model, "logits", counting_logits)
    assert run(["eval", "--checkpoint", train_run / "checkpoint.bin", "--dataset", corpus["test"],
                "--out", tmp_path / "eval"]) == 0
    rows = (tmp_path / "eval" / "eval.csv").read_text().splitlines()
    assert len(rows) > 3  # all and at least two slices
    test_set = load_dataset(corpus["test"])
    examples = sum(1 for ex in test_set.examples if ex.aspects)
    assert len(prepared) == len(set(prepared)) == examples
    assert len(forwarded) == len(set(forwarded)) == examples


NON_FINITE = {"alpha-nan": "--alpha", "eta-lr-nan": "--eta-lr", "encoder-lr-inf": "--encoder-lr",
              "lambda-reg-nan": "--lambda-reg"}


@pytest.mark.parametrize(
    "case",
    ["frozen-eta-one-value", "config-int", "seeds", "slice", "config-bool", "backbone-only",
     "k0-one-sided", "k0-no-dwa", "k0-eta-sweep", "ffn-mult-0", "ffn-mult-negative",
     "epochs-negative", *NON_FINITE, "frozen-eta-nan"],
)
def test_bad_values_are_usage_errors(case, corpus, tmp_path, capsys):
    """``--backbone-only`` is gone (k = 0 is the backbone); at k = 0 a
    one-sided window or no DWA would be a second spelling of it, and an
    eta sweep would have no side weight to sweep.  ``--slice`` is
    gone: ``lsa eval`` writes every slice.  ``--ffn-mult 0`` once ended in
    a ZeroDivisionError and ``-1`` in numpy's ValueError (exit 1 with a
    traceback), and a nan or infinite rate trained to a numeric failure
    (exit 3)."""
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    message = "usage error"
    if case == "frozen-eta-one-value":
        argv = train_args(corpus, out, extra=["--no-dwa", "--frozen-eta", "0.5"])
    elif case == "backbone-only":
        argv = train_args(corpus, out, extra=["--backbone-only"])
    elif case == "k0-one-sided":
        argv = train_args(corpus, out, extra=["--k", "0", "--la-only"])
    elif case == "k0-no-dwa":
        argv = train_args(corpus, out, extra=["--k", "0", "--no-dwa"])
    elif case == "k0-eta-sweep":
        argv = sweep_args("sweep-eta", corpus, out, ["--k", "0", "--grid", "0:1:0.5"])
        message = "usage error: sweep-eta needs k >= 1: at k = 0 there is no side weight to sweep"
    elif case == "config-int":
        cfg.write_text(f"train_path={corpus['train']}\nepochs=abc\n")
        argv = ["train", "--config", cfg, "--out", out]
    elif case == "seeds":
        argv = sweep_args("sweep-seeds", corpus, out, ["--seeds", "1,x"])
    elif case == "slice":
        argv = ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin",
                "--dataset", FIXTURES / "mini.json", "--slice", "implicit", "--out", out]
        message = "usage error: unrecognized arguments: --slice implicit"
    elif case.startswith("ffn-mult"):
        argv = train_args(corpus, out, extra=["--ffn-mult", "0" if case == "ffn-mult-0" else "-1"])
        message = "usage error: ffn_mult must be positive"
    elif case == "epochs-negative":
        argv = train_args(corpus, out, extra=["--epochs", "-1"])
        message = "usage error: epochs must be non-negative"
    elif case in NON_FINITE:
        value = case.rpartition("-")[2]
        argv = train_args(corpus, out, extra=[NON_FINITE[case], value])
        message = (f"usage error: bad value for {NON_FINITE[case][2:].replace('-', '_')}: "
                   f"expected a finite number, got '{value}'")
    elif case == "frozen-eta-nan":
        argv = train_args(corpus, out, extra=["--no-dwa", "--frozen-eta", "0.5,nan"])
        message = "usage error: bad value for frozen_eta: expected a finite number, got 'nan'"
    else:
        cfg.write_text(f"train_path={corpus['train']}\nno_dwa=ture\n")
        argv = ["train", "--config", cfg, "--out", out]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(message)


def test_help_is_for_users(capsys):
    """``lsa --help`` tells the commands, the exit codes and where the
    files go, in plain text: no reStructuredText markup."""
    with pytest.raises(SystemExit) as done:
        run(["--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out
    assert "``" not in text
    for part in (*COMMANDS, "export-trajectory", "replay", "--out", "$LSA_OUTPUT_ROOT",
                 "0 success, 1 usage error, 2 data error, 3 numeric failure"):
        assert part in text, part


FILE_ARGS = ["config", "spec", "manifest", "checkpoint", "parses", "parse-path",
             "dataset.json", "dataset.xml", "trajectory"]


@pytest.mark.parametrize(
    "case, directory",
    [(case, directory) for directory in (False, True) for case in FILE_ARGS],
    ids=[case + ("-directory" if directory else "")
         for directory in (False, True) for case in FILE_ARGS],
)
def test_missing_file_is_data_error(case, directory, corpus, tmp_path, capsys):
    """A file argument that names nothing, or a directory, is a data error."""
    name = "eta_trajectory.csv" if case == "trajectory" else f"nope{Path(case).suffix}"
    missing = tmp_path / name
    if directory:
        missing.mkdir()
    out = tmp_path / "out"
    argv = {
        "config": ["train", "--config", missing, "--out", out],
        "spec": ["synth", "--spec", missing, "--seed", "1", "--out", out],
        "manifest": ["replay", missing, "--out", out],
        "checkpoint": ["eval", "--checkpoint", missing, "--dataset", corpus["test"]],
        "parses": ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin",
                   "--dataset", FIXTURES / "mini.json", "--parses", missing, "--out", out],
        "parse-path": train_args(corpus, out, extra=["--parse-path", missing]),
        "dataset.json": ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin",
                         "--dataset", missing],
        "dataset.xml": ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin",
                        "--dataset", missing],
        "trajectory": ["export-trajectory", "--run", tmp_path, "--out", out],
    }[case]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("data error")


def write_examples(path, aspects):
    """A dataset of one two-token example per entry of ``aspects``."""
    examples = [{"text": "a b", "tokens": ["a", "b"], "aspects": a} for a in aspects]
    path.write_text(json.dumps({"version": 1, "examples": examples}))
    return path


ASPECT = {"span": [0, 1], "term": ["a"], "polarity": "positive", "implicit": False}


@pytest.mark.parametrize("train, test, split", [
    ([[]] * 5, None, "train"),  # no example has an aspect
    ([[ASPECT]], None, "train"),  # the holdout takes the only one that has
    ([[ASPECT]] * 5, [[]], "test"),
], ids=["none", "holdout_takes_all", "test_split"])
def test_split_without_pairs_is_data_error(train, test, split, tmp_path, capsys):
    argv = ["train", "--train-path", write_examples(tmp_path / "train.json", train),
            "--epochs", "1", "--out", tmp_path / "out"]
    if test is not None:
        argv += ["--test-path", write_examples(tmp_path / "test.json", test)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"data error: the {split} split has no (example, aspect) pair\n"


def test_eval_without_pairs_names_what_is_missing(tmp_path, capsys):
    data = write_examples(tmp_path / "one.json", [[]])
    argv = ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin", "--dataset", data,
            "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "data error: the dataset has no (example, aspect) pair\n"


def test_eval_refuses_a_sent_id_comment_without_a_value(tmp_path, capsys):
    """Such a comment once ended ``lsa eval`` in an IndexError traceback."""
    parses = tmp_path / "p.conllu"
    lines = (FIXTURES / "mini.conllu").read_text().splitlines()
    line = lines.index("# sent_id = s3")
    lines[line] = "# sent_id"
    parses.write_text("\n".join(lines) + "\n")
    argv = ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin",
            "--dataset", FIXTURES / "mini.json", "--parses", parses, "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: {parses}:{line + 1}: sent_id comment without '='\n")


@pytest.mark.parametrize("field", [
    {"implicit": "false"}, {"parse_ref": ["x"]}, {"span": [False, True]},
], ids=["implicit_string", "parse_ref_list", "span_bools"])
def test_field_of_the_wrong_type_is_data_error(field, tmp_path, capsys):
    """Before they were checked, "false" loaded as an implicit aspect,
    a list as parse_ref ended an lsa_s train with a TypeError (exit 1),
    and a span of booleans trained as the span [0, 1)."""
    example = {"text": "a b", "tokens": ["a", "b"], "aspects": [dict(ASPECT)]}
    if "parse_ref" in field:
        example.update(field)
    else:
        example["aspects"][0].update(field)
    data = tmp_path / "train.json"
    data.write_text(json.dumps({"version": 1, "examples": [example] * 5}))
    argv = ["train", "--train-path", data, "--variant", "lsa_s",
            "--parse-path", FIXTURES / "mini.conllu", "--epochs", "1", "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"data error: {data}: examples[0]")


def test_eval_bad_checkpoint_is_data_error(corpus, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"junk")
    assert run(["eval", "--checkpoint", bad, "--dataset", corpus["test"]]) == 2


@pytest.mark.parametrize("entry, message", [
    (",", "vocabulary token 5 repeats token 4: ','"),
    (7, "vocabulary token 5 is not a string: 7"),
], ids=["repeated", "number"])
def test_a_checkpoint_vocabulary_with_a_bad_token_is_data_error(entry, message, tmp_path, capsys):
    """``mini_checkpoint.bin`` with its vocabulary entry 5 ("the") set to a
    copy of entry 4 (",") or to a number.  The copy once loaded with ","
    reading row 5 and "the" unknown."""
    path = tmp_path / "edited.bin"
    blob = (FIXTURES / "mini_checkpoint.bin").read_bytes()
    path.write_bytes(with_edited_vocabulary(blob, lambda vocab: vocab.__setitem__(5, entry)))
    argv = ["eval", "--checkpoint", path, "--dataset", FIXTURES / "mini.json",
            "--out", tmp_path / "out"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: malformed checkpoint manifest: ConfigError(")
    assert message in err


# ---------------------------------------------------------------------------
# sweeps


def sweep_args(command, paths, out, extra):
    return [
        command,
        "--train-path", paths["train"],
        "--test-path", paths["test"],
        "--epochs", "1", "--seed", "0",
        "--d-model", "16", "--layers", "1", "--heads", "1", "--ffn-mult", "2",
        "--out", out,
        *extra,
    ]



def test_sweep_eta_grid_rows(corpus, tmp_path):
    out = tmp_path / "sweep"
    assert run(sweep_args("sweep-eta", corpus, out, ["--grid", "0:1:0.5"])) == 0
    rows = (out / "sweep_eta.csv").read_text().splitlines()
    assert rows[0] == "eta_l,eta_r,acc,macro_f1"
    assert [line.split(",")[:2] for line in rows[1:]] == [
        ["0.0", "1.0"], ["0.5", "0.5"], ["1.0", "0.0"]]


@pytest.mark.parametrize("spec, count", [
    ("0:1:0.1", 11), ("0:0.3:0.1", 4), ("0:1:0.5", 3), ("0:1:0.35", 3), ("0:1:0.15", 7)])
def test_sweep_eta_grid_stops_at_its_stop(spec, count):
    """A grid holds every point from start to stop and none past it:
    0:1:0.35 once swept eta_l = 1.05.  Each point eta_l and its 1 - eta_l
    are the floats of their decimals, as ``lsa sweep-eta`` trains them:
    0:1:0.1 once swept eta_l 0.30000000000000004 and eta_r
    0.3999999999999999."""
    from lsa.cli import _parse_grid

    start, stop, step = map(float, spec.split(":"))
    grid = _parse_grid(spec)
    eta_l = [float(point) for point in grid]
    assert len(grid) == count
    assert eta_l[0] == start and max(eta_l) <= stop < eta_l[-1] + step
    points = [round(start + i * step, 10) for i in range(count)]
    assert eta_l == points
    assert [float(1 - point) for point in grid] == [round(1 - p, 10) for p in points]


def test_sweep_eta_point_equals_a_train_with_frozen_side_weights(corpus, tmp_path):
    sweep, direct = tmp_path / "sweep", tmp_path / "train"
    assert run(sweep_args("sweep-eta", corpus, sweep, ["--grid", "0:1:0.5"])) == 0
    rows = [line.split(",") for line in (sweep / "sweep_eta.csv").read_text().splitlines()[1:]]
    assert len(rows) == 3
    for eta_l, eta_r, _, _ in rows:
        assert float(eta_r) == pytest.approx(1.0 - float(eta_l))
    assert run(sweep_args("train", corpus, direct, ["--no-dwa", "--frozen-eta", "0.5,0.5"])) == 0
    metrics = (direct / "metrics.csv").read_text().splitlines()
    test_row = next(line.split(",") for line in metrics if line.split(",")[1] == "test")
    assert rows[1][2:] == test_row[2:]


def test_sweep_eta_rows_read_the_weights_the_window_uses(corpus, tmp_path):
    """A row holds the side weights as the trained model reads them: under
    --la-only no slot reads eta_r, which is 1, not 1 - eta_l.  A grid
    point trains and writes 1 - eta_l exactly."""
    for extra, eta in [(["--la-only"], ["0.7", "1.0"]), ([], ["0.7", "0.3"])]:
        out = tmp_path / "_".join(["sweep", *extra])
        assert run(sweep_args("sweep-eta", corpus, out, ["--grid", "0.7:0.7:1", *extra])) == 0
        (row,) = (out / "sweep_eta.csv").read_text().splitlines()[1:]
        assert row.split(",")[:2] == eta


def test_sweep_seeds_of_a_repeated_seed(corpus, tmp_path):
    """A repeated seed repeats its metrics, and equal seeds have IQR 0."""
    def rows(seeds):
        out = tmp_path / seeds
        assert run(sweep_args("sweep-seeds", corpus, out, ["--seeds", seeds])) == 0
        return [line.split(",") for line in (out / "sweep_seeds.csv").read_text().splitlines()]

    repeated = rows("0,1,0")
    assert len(repeated) == 6  # the header, 3 seeds, median and iqr
    assert repeated[1][1:] == repeated[3][1:]
    assert rows("0,0")[-1] == ["iqr", "0.0", "0.0"]


def test_sweep_seeds_rows_and_summary(corpus, tmp_path):
    out = tmp_path / "seeds"
    assert run(sweep_args("sweep-seeds", corpus, out, ["--seeds", "0,1,2"])) == 0
    rows = (out / "sweep_seeds.csv").read_text().splitlines()
    assert rows[0] == "seed,acc,macro_f1"
    assert len(rows) == 6  # 3 seeds + median + iqr
    assert rows[4].startswith("median,")
    assert rows[5].startswith("iqr,")


# ---------------------------------------------------------------------------
# export-trajectory and replay


def test_export_trajectory(corpus, tmp_path):
    run_dir = tmp_path / "run"
    assert run(train_args(corpus, run_dir)) == 0
    out_file = tmp_path / "traj.csv"
    assert run(["export-trajectory", "--run", run_dir, "--out", out_file]) == 0
    assert out_file.read_bytes() == (run_dir / "eta_trajectory.csv").read_bytes()


@pytest.mark.parametrize("where", ["file", "under_a_file"])
@pytest.mark.parametrize("command", [*COMMANDS, "replay"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(command, where, tmp_path, capsys):
    """--out naming a file, or a path below one, ends every command that
    writes a directory before it reads its inputs: a usage error that
    names the path and the reason."""
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" if where == "file" else tmp_path / "file" / "out"
    missing = tmp_path / "missing"  # never read
    argv = {"analyze-clusters": [missing], "synth": ["--spec", missing, "--seed", "1"],
            "eval": ["--checkpoint", missing, "--dataset", missing],
            "replay": [missing]}.get(command, ["--train-path", missing])
    assert run([command, *argv, "--out", out]) == 1
    reason = "File exists" if where == "file" else "Not a directory"
    assert capsys.readouterr().err == (
        f"usage error: cannot make the output directory {out}: {reason}\n")
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("where, reason", [("directory", "Is a directory"),
                                           ("missing/traj.csv", "No such file or directory")])
def test_export_trajectory_to_an_unwritable_out_is_a_usage_error(where, reason, corpus, tmp_path,
                                                                 capsys):
    run_dir = tmp_path / "run"
    assert run(train_args(corpus, run_dir)) == 0
    (tmp_path / "directory").mkdir()
    capsys.readouterr()
    assert run(["export-trajectory", "--run", run_dir, "--out", tmp_path / where]) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {tmp_path / where}: {reason}\n"


@pytest.mark.parametrize("command, artifact", [("analyze-clusters", "clusters.csv"),
                                               ("train", "checkpoint.bin"),
                                               ("analyze-clusters", "manifest.json")])
def test_a_directory_at_an_artifact_path_is_a_usage_error(command, artifact, corpus, tmp_path,
                                                          capsys):
    """A directory where a command writes an artifact under --out ends the
    run as a usage error that names the path, as an --out that cannot be
    made does, and not in an ``IsADirectoryError`` traceback.  Under replay
    it is the same usage error, not a fault of the manifest."""
    argv, _ = replay_case(command, corpus, tmp_path)  # writes to tmp_path/orig
    blocked = tmp_path / "orig" / artifact
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {blocked}: Is a directory\n"
    blocked.rmdir()
    assert run(argv) == 0
    blocked = tmp_path / "replayed" / artifact
    blocked.mkdir(parents=True)
    capsys.readouterr()
    assert run(["replay", tmp_path / "orig" / "manifest.json", "--out", tmp_path / "replayed"]) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {blocked}: Is a directory\n"


def replay_case(command, paths, tmp_path):
    """The argv of one run of ``command`` into tmp_path/orig, and the
    artifacts that run writes there."""
    out = tmp_path / "orig"
    if command == "analyze-clusters":
        return ["analyze-clusters", paths["train"], "--out", out], ["clusters.csv"]
    if command == "synth":
        spec = synth_spec_file(tmp_path)
        argv = ["synth", "--spec", spec, "--seed", "5", "--out", out]
        return argv, ["train.json", "test.json"]
    if command == "train":
        return train_args(paths, out), ["metrics.csv", "eta_trajectory.csv", "checkpoint.bin"]
    if command == "eval":
        assert run(train_args(paths, tmp_path / "run")) == 0
        argv = [
            "eval",
            "--checkpoint", tmp_path / "run" / "checkpoint.bin",
            "--dataset", paths["test"],
            "--out", out,
        ]
        return argv, ["eval.csv"]
    if command == "sweep-eta":
        return sweep_args(command, paths, out, ["--grid", "0:1:0.5"]), ["sweep_eta.csv"]
    if command == "sweep-seeds":
        return sweep_args(command, paths, out, ["--seeds", "0,1"]), ["sweep_seeds.csv"]
    raise AssertionError(command)


@pytest.mark.parametrize("command", COMMANDS)
def test_replay_reproduces_outputs_byte_identical(command, corpus, tmp_path):
    argv, outputs = replay_case(command, corpus, tmp_path)
    original = tmp_path / "orig"
    assert run(argv) == 0
    replayed = tmp_path / "replayed"
    assert run(["replay", original / "manifest.json", "--out", replayed]) == 0
    for name in outputs:
        assert (original / name).read_bytes() == (replayed / name).read_bytes()
    first, second = (json.loads((d / "manifest.json").read_text()) for d in (original, replayed))
    assert second["command"] == first["command"] == command
    assert second["args"] == first["args"]
    assert second["dataset_hashes"] == first["dataset_hashes"]


def test_replay_detects_changed_dataset(corpus, tmp_path):
    original = tmp_path / "orig"
    spec = synth_spec_file(tmp_path)
    assert run(["synth", "--spec", spec, "--seed", "5", "--out", original]) == 0
    spec.write_text(spec.read_text() + "# changed\n")
    assert run(["replay", original / "manifest.json", "--out", tmp_path / "r"]) == 2


def test_replay_detects_changed_checkpoint(tmp_path):
    checkpoint = tmp_path / "model.bin"
    checkpoint.write_bytes((FIXTURES / "mini_checkpoint.bin").read_bytes())
    original = tmp_path / "orig"
    argv = [
        "eval",
        "--checkpoint", checkpoint,
        "--dataset", FIXTURES / "mini.json",
        "--parses", FIXTURES / "mini.conllu",
        "--out", original,
    ]
    assert run(argv) == 0
    hashed = json.loads((original / "manifest.json").read_text())["dataset_hashes"]
    read = [checkpoint, FIXTURES / "mini.json", FIXTURES / "mini.conllu"]
    assert set(hashed) == {str(p) for p in read}
    checkpoint.write_bytes(checkpoint.read_bytes()[:-8] + bytes(8))
    assert run(["replay", original / "manifest.json", "--out", tmp_path / "r"]) == 2


@pytest.mark.parametrize(
    "command, extra",
    [("sweep-eta", ["--grid", "0:1:1"]), ("sweep-seeds", ["--seeds", "0,1"])],
)
def test_sweep_manifest_hashes_parse_file(command, extra, corpus, tmp_path):
    out = tmp_path / "out"
    parses = FIXTURES / "mini.conllu"
    assert run(sweep_args(command, corpus, out, ["--parse-path", parses, *extra])) == 0
    hashed = json.loads((out / "manifest.json").read_text())["dataset_hashes"]
    assert set(hashed) == {corpus["train"], corpus["test"], str(parses)}


@pytest.mark.parametrize("manifest, message", [
    ("command args dataset_hashes", "manifest must be a JSON object"),
    ({"command": "train", "args": {}, "dataset_hashes": ["x"]},
     "manifest 'dataset_hashes' must be an object"),
    ({"command": ["train"], "args": {}, "dataset_hashes": {}}, "manifest 'command' must be a string"),
    ({"command": "train", "args": [], "dataset_hashes": {}}, "manifest 'args' must be an object"),
    ({"command": "train", "args": {}, "dataset_hashes": {"a.json": 3}},
     "manifest 'dataset_hashes' must map paths to hash strings"),
    ({"command": "train", "args": {}, "dataset_hashes": {}},
     "manifest 'config_hash' is missing or does not match its args"),
], ids=["string", "hashes_list", "command_list", "args_list", "hash_number", "no_config_hash"])
def test_malformed_manifest_is_data_error(manifest, message, tmp_path, capsys):
    """A string of the key names once passed the key checks, which then
    matched substrings, and ended in a TypeError; a list of hashes ended
    in an AttributeError (both exit 1)."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run(["replay", path, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


@pytest.fixture(scope="module")
def train_run(corpus, tmp_path_factory):
    """The directory of one ``lsa train`` run."""
    out = tmp_path_factory.mktemp("trainrun")
    assert run(train_args(corpus, out)) == 0
    return out


def edited_manifest(run_dir, path, args, drop=(), rehash=True):
    """A copy, at ``path``, of the manifest of ``run_dir`` with ``args``
    set in its args and the keys ``drop`` removed from them, and (if
    ``rehash``) the ``config_hash`` of the edited args."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["args"].update(args)
    for key in drop:
        del manifest["args"][key]
    if rehash:
        manifest["config_hash"] = config_hash(manifest["args"])
    path.write_text(json.dumps(manifest))
    return path


def test_replay_checks_the_config_hash(train_run, tmp_path, capsys):
    """A manifest whose args were edited after the run once replayed
    silently as a different run: ``"no_dwa": "false"`` with the old hash
    ran as the no-DWA ablation."""
    path = edited_manifest(train_run, tmp_path / "manifest.json", {"no_dwa": "false"},
                           rehash=False)
    assert run(["replay", path, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: manifest 'config_hash' is missing or does not match its args\n")


@pytest.fixture(scope="module")
def other_runs(corpus, tmp_path_factory):
    """The run directories of one ``lsa synth``, ``lsa eval`` and ``lsa
    sweep-eta`` run."""
    tmp = tmp_path_factory.mktemp("otherruns")
    spec = synth_spec_file(tmp)
    assert run(["synth", "--spec", spec, "--seed", "5", "--out", tmp / "synth"]) == 0
    assert run(train_args(corpus, tmp / "train")) == 0
    assert run(["eval", "--checkpoint", tmp / "train" / "checkpoint.bin",
                "--dataset", corpus["test"], "--out", tmp / "eval"]) == 0
    assert run(sweep_args("sweep-eta", corpus, tmp / "sweep-eta", ["--grid", "0:1:1"])) == 0
    return tmp


def test_replay_reads_a_text_seed(other_runs, tmp_path):
    """``"seed": "5"`` is the text form of 5; such a string once ended in a
    TypeError."""
    manifest = edited_manifest(other_runs / "synth", tmp_path / "manifest.json", {"seed": "5"})
    assert run(["replay", manifest, "--out", tmp_path / "r"]) == 0
    for name in ("train.json", "test.json"):
        assert (tmp_path / "r" / name).read_bytes() == (other_runs / "synth" / name).read_bytes()


@pytest.mark.parametrize("run_name, args, drop, message", [
    ("synth", {"seed": 1.5}, (), "bad value for seed: expected int, got 1.5"),
    ("synth", {"seed": "x"}, (), "bad value for seed: invalid literal for int() with base 10: 'x'"),
    ("sweep-eta", {}, ("config",), "sweep-eta args must be ['config', 'grid'], got ['grid']"),
    ("sweep-eta", {"config": [1]}, (), "bad value for config: expected an object, got [1]"),
    ("eval", {"slice": None}, (),
     "eval args must be ['checkpoint', 'dataset', 'format', 'parses'], "
     "got ['checkpoint', 'dataset', 'format', 'parses', 'slice']"),
    ("eval", {"width": 3}, (),
     "eval args must be ['checkpoint', 'dataset', 'format', 'parses'], "
     "got ['checkpoint', 'dataset', 'format', 'parses', 'width']"),
], ids=["seed_float", "seed_text", "sweep_no_config", "sweep_config_list", "eval_with_slice",
        "eval_unknown"])
def test_replayed_args_of_the_wrong_kind_are_data_errors(run_name, args, drop, message,
                                                         other_runs, tmp_path, capsys):
    """A sweep-eta manifest without ``config`` once ended in a KeyError
    (exit 1).  An eval manifest written while ``lsa eval`` took
    ``--slice`` holds a ``slice``; its eval.csv had one row, so it cannot
    be replayed."""
    manifest = edited_manifest(other_runs / run_name, tmp_path / "manifest.json", args, drop)
    assert run(["replay", manifest, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err == f"data error: {manifest}: {message}\n"


@pytest.mark.parametrize("args", [{"no_dwa": "false"}, {"epochs": "1"}, {"backbone_only": False}],
                         ids=["no_dwa_text", "epochs_text", "legacy_backbone_only"])
def test_replay_reads_a_string_as_the_fields_text(args, train_run, tmp_path):
    """A string value means what its text says: "false" once replayed as
    the no-DWA ablation and "1" ended in a TypeError.  A manifest written
    before k = 0 replaced ``backbone_only`` holds ``"backbone_only": false``."""
    manifest = edited_manifest(train_run, tmp_path / "manifest.json", args)
    out = tmp_path / "replayed"
    assert run(["replay", manifest, "--out", out]) == 0
    for name in ("metrics.csv", "eta_trajectory.csv", "checkpoint.bin"):
        assert (out / name).read_bytes() == (train_run / name).read_bytes()


@pytest.mark.parametrize("args, message", [
    ({"k": True}, "bad value for k: expected int, got True"),
    ({"d_model": 16.0}, "bad value for d_model: expected int, got 16.0"),
    ({"no_dwa": True, "frozen_eta": [0.3]}, "frozen_eta takes two values, eta_l,eta_r"),
    ({"backbone_only": True}, "backbone_only is gone: the backbone is k = 0"),
    ({"k": 0, "no_dwa": True}, "no_dwa needs k >= 1"),
    ({"ffn_mult": 0}, "ffn_mult must be positive"),
    ({"eta_lr": "nan"}, "bad value for eta_lr: expected a finite number, got 'nan'"),
    ({"lambda_eta": float("inf")}, "bad value for lambda_eta: expected a finite number, got inf"),
    ({"epochs": -1}, "epochs must be non-negative"),
], ids=["k_bool", "d_model_float", "frozen_eta_one_value", "backbone_only", "k0_no_dwa",
        "ffn_mult_zero", "eta_lr_nan_text", "lambda_eta_inf", "epochs_negative"])
def test_replayed_config_that_is_not_valid_is_data_error(args, message, train_run, tmp_path,
                                                         capsys):
    """Every value comes from the manifest, so it is the manifest's fault.
    ``true`` once ran as k = 1, 16.0 ended in a TypeError and one frozen
    value was a usage error (exit 1)."""
    manifest = edited_manifest(train_run, tmp_path / "manifest.json", args)
    assert run(["replay", manifest, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err == f"data error: {manifest}: {message}\n"


def test_manifest_is_hash_stable(corpus, tmp_path):
    from lsa.runio import canonical_json, load_manifest

    out = tmp_path / "run"
    assert run(train_args(corpus, out)) == 0
    raw = (out / "manifest.json").read_text()
    manifest = load_manifest(out / "manifest.json")
    assert canonical_json(manifest) + "\n" == raw


# ---------------------------------------------------------------------------
# where a context-limit fault is, and artifacts checked before any input


def write_long_examples(path, lengths, spans):
    """A dataset of one example of ``lengths[i]`` tokens per entry, with one
    aspect at span ``spans[i]``."""
    examples = []
    for n, (start, end) in zip(lengths, spans):
        tokens = [f"t{i}" for i in range(n)]
        aspect = {"span": [start, end], "term": tokens[start:end], "polarity": "positive",
                  "implicit": False}
        examples.append({"text": " ".join(tokens), "tokens": tokens, "aspects": [aspect]})
    path.write_text(json.dumps({"version": 1, "examples": examples}))
    return path


def test_eval_names_an_aspect_past_the_context_limit(tmp_path, capsys):
    """``mini_checkpoint.bin`` keeps 31 context tokens; the fault once read
    ``aspect extends past the 31-token context limit in 't0 t1 ...'``."""
    data = write_long_examples(tmp_path / "long.json", [4, 40], [(1, 2), (35, 36)])
    argv = ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin", "--dataset", data,
            "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (f"data error: {data}: examples[1]: aspect [35, 36) "
                                       "extends past the 31-token context limit\n")


def test_an_aspect_too_long_for_its_spc_input_is_a_data_error(tmp_path, capsys):
    """Under lsa_p at max_len 9 an aspect of 7 tokens is inside the
    8-token context, but [CLS] context [SEP] aspect [SEP] has no room for
    it.  That once exited 1, as a usage error."""
    data = write_long_examples(tmp_path / "spc.json", [3, 9], [(1, 2), (1, 8)])
    argv = ["train", "--train-path", data, "--valid-path", data, "--variant", "lsa_p",
            "--max-len", "9", "--epochs", "1", "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: {data}: examples[1]: aspect of 7 tokens cannot fit max length 9\n")


def declared_writes(command, spec):
    """The files a run of ``command`` writes beside its manifest: those
    ``COMMANDS`` declares, and for synth one per split of ``spec``."""
    if command == "synth":
        return [f"{split}.json" for split in SynthSpec.from_file(spec).splits]
    return list(COMMANDS[command].writes)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_declares_the_files_it_writes(command, corpus, tmp_path):
    argv, artifacts = replay_case(command, corpus, tmp_path)
    assert run(argv) == 0
    written = sorted(p.name for p in (tmp_path / "orig").iterdir())
    expected = declared_writes(command, synth_spec_file(tmp_path))
    assert written == sorted([*expected, "manifest.json"])
    assert sorted(artifacts) == sorted(expected)


@pytest.mark.parametrize("command, artifact", [
    *((command, artifact) for command, c in COMMANDS.items() for artifact in c.writes),
    ("synth", "train.json"), ("synth", "test.json"),
    *((command, "manifest.json") for command in COMMANDS),
])
def test_a_directory_at_a_declared_artifact_is_refused_before_any_input(command, artifact,
                                                                         tmp_path, capsys):
    """A directory where a command would write ends it as a usage error
    before it reads an input (the inputs here do not exist, and a read
    would be a data error) and before it writes anything; synth reads
    its spec first, to know its splits."""
    out = tmp_path / "out"
    blocked = out / artifact
    blocked.mkdir(parents=True)
    missing = tmp_path / "missing"
    argv = {"analyze-clusters": [missing], "synth": ["--spec", synth_spec_file(tmp_path),
                                                     "--seed", "1"],
            "eval": ["--checkpoint", missing, "--dataset", missing]
            }.get(command, ["--train-path", missing])
    assert run([command, *argv, "--out", out]) == 1
    assert capsys.readouterr().err == f"usage error: cannot write {blocked}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == [artifact]


def test_a_non_finite_loss_exits_3(tmp_path):
    """An encoder rate of 1e100 overflows the attention scores at step 2.
    The run has a process of its own: numpy's overflow warnings come
    before the failure, and in this process warnings are errors."""
    argv = [sys.executable, "-m", "lsa.cli", "train", "--train-path", FIXTURES / "mini.json",
            "--encoder-lr", "1e100", "--d-model", "8", "--layers", "1", "--heads", "2",
            "--epochs", "3", "--out", tmp_path / "out"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([str(a) for a in argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr.splitlines()[-1] == "numeric failure: non-finite loss at step 2"


@pytest.mark.parametrize("command, extra, message", [
    ("train", ["--batch", "0"], "batch must be positive"),
    ("train", ["--encoder-lr", "0"], "encoder_lr must be positive"),
    ("train", ["--eta-lr", "-0.5"], "eta_lr must be positive"),
    ("train", ["--holdout-fraction", "0"], "holdout_fraction must be in (0, 1)"),
    ("train", ["--holdout-fraction", "1"], "holdout_fraction must be in (0, 1)"),
    ("train", ["--alpha", "-1"], "alpha must be non-negative"),
    ("sweep-eta", ["--epochs", "0"], "eta sweep needs at least one epoch"),
    ("sweep-seeds", ["--epochs", "0"], "seed sweep needs at least one epoch"),
    ("sweep-eta", ["--grid", "0:1"], "grid must be start:stop:step, got '0:1'"),
    ("sweep-eta", ["--grid", "a:b:c"], "grid must be start:stop:step, got 'a:b:c'"),
    ("sweep-eta", ["--grid", "0:1:0"], "grid must have positive step and stop >= start"),
    ("sweep-eta", ["--grid", "0:1:-0.5"], "grid must have positive step and stop >= start"),
    ("sweep-eta", ["--grid", "0:1:nan"],
     "grid must have finite start, stop and step, got '0:1:nan'"),
    ("sweep-eta", ["--grid", "0:inf:0.1"],
     "grid must have finite start, stop and step, got '0:inf:0.1'"),
    ("sweep-eta", ["--grid", "0:1e30:1e-30"],
     "grid must have at most 1001 points, got '0:1e30:1e-30'"),
    ("sweep-eta", ["--grid", "0:1e9:1e-9"], "grid must have at most 1001 points, got '0:1e9:1e-9'"),
    ("sweep-eta", ["--k", "0"],
     "sweep-eta needs k >= 1: at k = 0 there is no side weight to sweep"),
    ("sweep-seeds", ["--seeds", "0"], "seed sweep needs at least two seeds"),
    ("sweep-seeds", ["--seeds", "0,-1"], "seed must be non-negative"),
], ids=["batch", "encoder_lr", "eta_lr", "holdout_0", "holdout_1", "alpha", "eta_sweep_epochs",
        "seed_sweep_epochs", "grid_two_parts", "grid_not_numbers", "grid_step_0",
        "grid_step_negative", "grid_step_nan", "grid_stop_inf", "grid_uncountable",
        "grid_too_many", "eta_sweep_k0", "seed_sweep_one_seed", "seed_sweep_negative_seed"])
def test_a_refused_value_is_a_usage_error_before_any_input(command, extra, message, tmp_path,
                                                           capsys):
    """The train path does not exist: a read would be a data error.  A sweep
    builds the config of each of its runs before the first; ``--seeds 0,-1``
    once trained seed 0 and then ended in numpy's ValueError traceback."""
    argv = [command, "--train-path", tmp_path / "missing", *extra, "--out", tmp_path / "out"]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


CONFIG_DOMAINS = [(f.name, f.metadata["domain"]) for f in fields(TrainConfig)
                  if "domain" in f.metadata]


@pytest.mark.parametrize("name, domain", CONFIG_DOMAINS, ids=[n for n, _ in CONFIG_DOMAINS])
def test_a_config_value_out_of_its_domain_is_refused_before_any_input(name, domain, tmp_path,
                                                                      capsys):
    """The train path does not exist: a read would be a data error.  The
    value is refused as the config is built, so not even ``--out`` is
    made.  ``--seed -1`` once read the datasets before it failed."""
    out = tmp_path / "out"
    argv = ["train", "--train-path", tmp_path / "missing",
            "--" + name.replace("_", "-"), OUT_OF_DOMAIN[domain], "--out", out]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"usage error: {name} must be {domain}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, domain", CONFIG_DOMAINS, ids=[n for n, _ in CONFIG_DOMAINS])
def test_a_manifest_config_value_out_of_its_domain_is_a_data_error(name, domain, train_run,
                                                                   tmp_path, capsys):
    """A seed of -1 once trained until numpy's ValueError traceback."""
    manifest = edited_manifest(train_run, tmp_path / "manifest.json",
                               {name: OUT_OF_DOMAIN[domain]})
    assert run(["replay", manifest, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err == f"data error: {manifest}: {name} must be {domain}\n"


def test_synth_refuses_a_negative_seed_before_it_reads_its_spec(tmp_path, capsys):
    """The spec does not exist: a read would be a data error.  A seed of -1
    once read the spec and then ended in numpy's ValueError traceback."""
    argv = ["synth", "--spec", tmp_path / "missing.spec", "--seed", "-1", "--out", tmp_path / "out"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "usage error: seed must be non-negative\n"


def test_export_trajectory_refuses_a_csv_with_another_header(tmp_path, capsys):
    (tmp_path / "eta_trajectory.csv").write_text("step,eta\n0,1.0\n")
    assert run(["export-trajectory", "--run", tmp_path, "--out", tmp_path / "copy.csv"]) == 2
    assert capsys.readouterr().err == (f"data error: {tmp_path / 'eta_trajectory.csv'}: "
                                       "unexpected trajectory header 'step,eta'\n")
    assert not (tmp_path / "copy.csv").exists()


@pytest.mark.parametrize("text, message", [
    ('{"command": "train",', "{path}: invalid manifest JSON: Expecting property name enclosed "
                             "in double quotes"),
    (json.dumps({"args": {}, "dataset_hashes": {}}), "{path}: manifest missing 'command'"),
    (json.dumps({"command": "train", "dataset_hashes": {}}), "{path}: manifest missing 'args'"),
    (json.dumps({"command": "frobnicate", "args": {}, "dataset_hashes": {},
                 "config_hash": config_hash({})}),
     "{path}: manifest command 'frobnicate' cannot be replayed"),
], ids=["invalid_json", "no_command", "no_args", "unknown_command"])
def test_replay_refuses_a_manifest_it_cannot_run(text, message, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert run(["replay", path, "--out", tmp_path / "r"]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {message.format(path=path)}")


def test_an_artifact_without_write_permission_is_refused(tmp_path, capsys, monkeypatch):
    """What ``os.access`` denies is refused as ``write_file`` would refuse
    it; the tests may run as a user that every permission lets write."""
    monkeypatch.setattr("lsa.runio.os.access", lambda path, mode: False)
    out = tmp_path / "out"
    assert run(["analyze-clusters", tmp_path / "missing", "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"usage error: cannot write {out / 'clusters.csv'}: Permission denied\n")
