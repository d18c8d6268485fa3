"""Command surface: artifacts, exit codes, determinism, replay."""

import json
from pathlib import Path

import pytest

from lsa.cli import main

from util import FIXTURES, write_synth_corpus


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


@pytest.mark.parametrize("flag, unused", [("--la-only", 2), ("--ra-only", 1)])
def test_one_sided_window_trains_and_leaves_the_other_eta_at_one(flag, unused, corpus, tmp_path):
    out = tmp_path / "onesided"
    assert run(train_args(corpus, out, extra=[flag])) == 0
    rows = [r.split(",") for r in (out / "eta_trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) > 1
    assert all(r[unused] == "1.0" for r in rows)
    assert rows[-1][3 - unused] != "1.0"


def test_eval_command_and_slices(corpus, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run(train_args(corpus, run_dir)) == 0
    out = tmp_path / "eval"
    assert run([
        "eval",
        "--checkpoint", run_dir / "checkpoint.bin",
        "--dataset", corpus["test"],
        "--slice", "implicit",
        "--out", out,
    ]) == 0
    printed = capsys.readouterr().out
    assert "implicit" in printed
    body = (out / "eval.csv").read_text().splitlines()
    assert body[0] == "slice,acc,macro_f1,n"
    assert body[1].startswith("implicit,")


@pytest.mark.parametrize(
    "case",
    ["frozen-eta-one-value", "config-int", "seeds", "slice", "config-bool"],
)
def test_bad_values_are_usage_errors(case, corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    if case == "frozen-eta-one-value":
        argv = train_args(corpus, out, extra=["--no-dwa", "--frozen-eta", "0.5"])
    elif case == "config-int":
        cfg.write_text(f"train_path={corpus['train']}\nepochs=abc\n")
        argv = ["train", "--config", cfg, "--out", out]
    elif case == "seeds":
        argv = sweep_args("sweep-seeds", corpus, out, ["--seeds", "1,x"])
    elif case == "slice":
        argv = [
            "eval",
            "--checkpoint", FIXTURES / "mini_checkpoint.bin",
            "--dataset", FIXTURES / "mini.json",
            "--slice", "clusterx",
            "--out", out,
        ]
    else:
        cfg.write_text(f"train_path={corpus['train']}\nno_dwa=ture\n")
        argv = ["train", "--config", cfg, "--out", out]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("usage error")


@pytest.mark.parametrize("case", ["config", "spec", "manifest", "checkpoint"])
def test_missing_file_is_data_error(case, corpus, tmp_path, capsys):
    missing = tmp_path / "nope"
    out = tmp_path / "out"
    argv = {
        "config": ["train", "--config", missing, "--out", out],
        "spec": ["synth", "--spec", missing, "--seed", "1", "--out", out],
        "manifest": ["replay", missing, "--out", out],
        "checkpoint": ["eval", "--checkpoint", missing, "--dataset", corpus["test"]],
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


@pytest.mark.parametrize("slice_, message", [
    (None, "the dataset has no (example, aspect) pair"),
    ("implicit", "slice 'implicit' selects no pairs"),
], ids=["no_slice", "slice"])
def test_eval_without_pairs_names_what_is_missing(slice_, message, tmp_path, capsys):
    """The slice is named only when one was asked for."""
    data = write_examples(tmp_path / "one.json", [[]] if slice_ is None else [[ASPECT]])
    argv = ["eval", "--checkpoint", FIXTURES / "mini_checkpoint.bin", "--dataset", data,
            "--out", tmp_path / "out"]
    assert run(argv + (["--slice", slice_] if slice_ else [])) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_eval_bad_checkpoint_is_data_error(corpus, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"junk")
    assert run(["eval", "--checkpoint", bad, "--dataset", corpus["test"]]) == 2


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
    assert len(rows) == 4  # header + {0, 0.5, 1}
    for line in rows[1:]:
        eta_l, eta_r = (float(x) for x in line.split(",")[:2])
        assert eta_r == pytest.approx(1.0 - eta_l)


def test_sweep_eta_eleven_point_grid_parses():
    from lsa.cli import _parse_grid

    assert len(_parse_grid("0:1:0.1")) == 11


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
            "--slice", "implicit",
            "--out", out,
        ]
        return argv, ["eval.csv"]
    if command == "sweep-eta":
        return sweep_args(command, paths, out, ["--grid", "0:1:0.5"]), ["sweep_eta.csv"]
    if command == "sweep-seeds":
        return sweep_args(command, paths, out, ["--seeds", "0,1"]), ["sweep_seeds.csv"]
    raise AssertionError(command)


@pytest.mark.parametrize(
    "command",
    ["analyze-clusters", "synth", "train", "eval", "sweep-eta", "sweep-seeds"],
)
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


def test_manifest_is_hash_stable(corpus, tmp_path):
    from lsa.runio import canonical_json, load_manifest

    out = tmp_path / "run"
    assert run(train_args(corpus, out)) == 0
    raw = (out / "manifest.json").read_text()
    manifest = load_manifest(out / "manifest.json")
    assert canonical_json(manifest) + "\n" == raw
