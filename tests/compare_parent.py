"""Check that the working tree computes exactly what a git revision does.

    python tests/compare_parent.py REV [--seeds 1,2,3,4,5]

Run it from anywhere inside the checkout.  REV (a commit, a branch, HEAD)
is extracted with ``git archive`` into a temporary directory.  For each
side, REV and the working tree, one child process computes every array
of the ``oracle.py`` cases, forwarded 1, 3 and all examples at a time,
from that side's ``src`` and ``tests/oracle.py``; the arrays are compared
with ``np.array_equal``.  Then each side's ``bench/run.py --workload W
--seed S --seconds 1 --trace 0`` runs for every workload that
``BENCHMARK.json`` declares and every seed, and the ``outputs`` objects
of its details line are compared.  Last, one child process per side runs
the CLI on the same inputs, written once by the working tree's
``bench/workloads.py``: ``lsa train`` and then ``lsa eval --parses`` for
every variant, k = 0 (the backbone) with no ablation flag, and k = 1 and 2
with no ablation flag or each one, and with ``--la-only`` and frozen side
weights; ``lsa train --variant lsa_p --max-len 41`` and its ``lsa eval``,
whose SPC inputs cut the context of 12 of the train split's pairs (3
examples) and of 101 of the test split's (26 examples), where every
other ``lsa_p`` run cuts none; ``lsa train --config`` on a config
file; ``lsa synth`` on a spec that sets every key; ``lsa sweep-eta`` and
``lsa sweep-seeds``; ``lsa analyze-clusters`` on the ``mini.json`` and
``mini_semeval.xml`` fixtures; ``lsa eval`` on a corpus that has a pair in
every slice and once with ``--format absa-json``; ``lsa train`` with a
test split; then ``lsa replay`` of every manifest those runs wrote; then
``lsa sweep-eta`` on a grid whose step does not divide its span and on
the default grid 0:1:0.1; then
``lsa eval`` of the ``lsa_s`` model on parses that lack some test
sentences and hold one whose forms do not align, so that parsed examples
and examples that fall back to token distance share a forward (its
standard error keeps the fallback warnings, which every other run
silences); then ``lsa eval`` on each malformed input that the loaders
must refuse (parses with a cycle, two roots, a head out of range, a
``# sent_id`` comment without ``=``, an ID cell ``+2`` or a ``# sent_id``
comment after a sentence's first word; a test split with an aspect fault,
or with an aspect past the model's context; a truncated checkpoint; a
checkpoint whose vocabulary repeats a token); ``lsa analyze-clusters``
with ``--out`` naming a file and with a directory where it writes
``clusters.csv``; ``lsa train`` with a directory where it writes
``checkpoint.bin``, with a test split that holds an aspect past the
context, and ``--variant lsa_p --max-len 9`` on a split with a 7-token
term, which no SPC input of that length can hold; ``lsa synth`` on a
spec with ``rho=1.5``; ``lsa replay`` of a manifest whose command is
``frobnicate``; ``lsa sweep-eta --grid 0:1e30:1e-30``, whose point count
has more digits than a decimal holds; last, ``lsa export-trajectory``,
``lsa --help`` and ``lsa eval --help``, and each argv of
``usage_errors``, which argparse or a config check must refuse.
The exit code, the standard output and the standard
error (the temporary directory's path replaced by a placeholder), the
names of the files each run leaves in its directory and the bytes of its
artifacts are compared.

Every difference is printed, and the exit code is 1 if there is one, else
0.  Three kinds are printed apart and not counted: the oracle cases that
only one side has; the CLI runs whose ``lsa train`` REV rejects as a
usage error (exit 1) while the working tree runs it (a config value new
in the working tree), with the eval and replay runs that follow from it;
and the differences of the runs in ``DECLARED``, those that the change
under test means to alter, measured against its parent.  A declared run
that shows no difference is counted: a declaration holds for one change,
and one left in place would hide a later regression of its run.
The CLI runs and their inputs live in the temporary directory; no child
writes byte code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BATCHES = (1, 3, None)  # examples per forward; None: all at once
BENCH_SECONDS = 1
CLI_INPUTS = ("eval_lsa_s_parsed", 1)  # the workload and the seed that write them
CLI_TRAIN = ["--d-model", "16", "--layers", "1", "--heads", "2", "--epochs", "2", "--seed", "3"]
ONE_SIDED_FROZEN = ["--la-only", "--no-dwa", "--frozen-eta", "0.3,0.7"]
# (k, ablation flags) of the train runs of each variant
CLI_WINDOWS = [("0", [])] + [
    (k, flags) for k in ("1", "2") for flags in (
        [], ["--no-dwa"], ["--la-only"], ["--ra-only"], ["--no-dwa", "--frozen-eta", "0.3,0.7"],
        ONE_SIDED_FROZEN)
]
SPC_CUT = ["--variant", "lsa_p", "--max-len", "41"]  # cuts the SPC context of some examples
SPC_TERM_CUT = ["--variant", "lsa_p", "--max-len", "9"]  # leaves no room for a 7-token term
# the malformed inputs of the refusal runs: a fault in one sentence's heads,
# ID cells or sent_id comments, or in the first aspect of one test example
PARSE_FAULTS = ("cyclic", "two_roots", "head_out_of_range", "sent_id_without_value",
                "plus_id", "sent_id_inside")
ASPECT_FAULTS = {
    "missing_term": lambda a: a.pop("term"),
    "span_not_integer": lambda a: a.update(span=[a["span"][0], a["span"][1] + 0.5]),
    "unknown_polarity": lambda a: a.update(polarity="mixed"),
    "implicit_not_bool": lambda a: a.update(implicit="true"),
}
FAULTY = 4  # the index of the sentence and of the example that hold the fault
OCCUPIED = "occupied"  # the --out, beside the inputs, that holds a directory clusters.csv


def window_run(variant: str, k: str, flags: list) -> str:
    """The name of the train run of ``variant`` at window size ``k`` with ``flags``."""
    return "_".join([variant, "k" + k, *(f.strip("-") for f in flags)])


# the runs whose exit code, output or artifacts differ from a REV without
# this change, and what such a REV does
DECLARED = {
    "refuse/grid_uncountable": "ends in a decimal.InvalidOperation traceback (exit 1)",
    "usage/sweep_eta_k0": "prints usage error: frozen_eta requires no_dwa and k >= 1",
}
# the runs that find a directory at one of their artifacts in their --out
BLOCKED = {"refuse/checkpoint_is_a_directory": "checkpoint.bin"}
PAST_CONTEXT = 80  # the filler tokens added to the past-context example, past max_len
UNPARSED = (1, 2, 9)  # the test sentences that the mixed parses lack
UNALIGNED = 6  # the test sentence whose first form the mixed parses change
MIXED_RUN = "lsa_s_k1/eval_mixed_parses"  # the one CLI run whose warnings are kept
TRAIN_ARTIFACTS = ("metrics.csv", "eta_trajectory.csv", "checkpoint.bin")
RUN_STREAMS = ("stdout.txt", "stderr.txt")  # what cli_runs writes in each run's directory
# the config file and the synth spec, beside the inputs; {inputs} is their directory
CLI_CONFIG = """variant=lsa_s
no_dwa=yes
frozen_eta=0.25,0.75
valid_path=
train_path={inputs}/train.json
parse_path={inputs}/parses.conllu
d_model=16
layers=1
heads=2
epochs=2
seed=3
"""
# a test split with a pair in every slice of training.SLICES
SLICES_SPEC = """vocab_size=12
rho=0.6
implicit_fraction=0.05
aspects=1:0.2,2:0.3,4:0.2,6:0.3
test=60
"""
EXPORTED = "eta_trajectory.csv"  # the file that the export-trajectory run writes
CLI_SPEC = """vocab_size=12
rho=0.8
implicit_fraction=0.2
aspects=1:0.2,2:0.5,3:0.3
train=30
valid=10
test=10
"""


def child_env() -> dict:
    """The environment of a child process: no PYTHONPATH that could import
    the other side's package, one BLAS thread, as in the benchmark, and
    no ``__pycache__`` written beside the sources."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def extract(rev: str, dest: Path) -> None:
    """Write the files of git revision ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def oracle_arrays(root: Path, out: Path) -> None:
    """Write every oracle array of the checkout at ``root`` to ``out``
    (.npz), keyed case/batch/name.  Runs in a child process."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    from oracle import CASES, compute

    logging.disable(logging.WARNING)  # the fixture's lsa_s fallbacks, once per case

    arrays = {}
    for case, overrides in CASES.items():
        for batch in BATCHES:
            prefix = f"{case}/{batch or 'all'}"
            probs, grads = compute(overrides, batch)
            arrays[f"{prefix}/probs"] = probs
            arrays.update({f"{prefix}/grad/{name}": g for name, g in grads.items()})
    np.savez(out, **arrays)


def side_oracle(root: Path, out: Path) -> dict[str, np.ndarray]:
    subprocess.run(
        [sys.executable, __file__, "--oracle-arrays", str(root), str(out)],
        check=True, env=child_env(), timeout=600,
    )
    with np.load(out) as data:
        return dict(data)


def bench_outputs(root: Path, workload: str, seed: int):
    """The ``outputs`` object of one untraced benchmark run of the
    checkout at ``root``, or the reason there is none."""
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCH_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return f"bench/run.py exited with {done.returncode}"
    return json.loads(lines[-2])["outputs"]


def write_cli_inputs(out: Path) -> None:
    """Write the inputs of every CLI run to ``out`` with the working
    tree's ``bench/workloads.py``.  Runs in a child process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]
    from lsa.corpus import SynthSpec, generate_synthetic_corpus, save_dataset
    from workloads import WORKLOADS, write_inputs

    name, seed = CLI_INPUTS
    write_inputs(WORKLOADS[name], seed, out)
    (out / "train.cfg").write_text(CLI_CONFIG.format(inputs=out))
    (out / "synth.spec").write_text(CLI_SPEC)
    (out / "slices.spec").write_text(SLICES_SPEC)
    spec = SynthSpec.from_file(out / "slices.spec")
    save_dataset(generate_synthetic_corpus(spec, seed)["test"], out / "slices.json")
    for fixture in ("mini.json", "mini_semeval.xml"):
        shutil.copyfile(ROOT / "tests" / "fixtures" / fixture, out / fixture)
    write_malformed_inputs(out)
    write_mixed_parses(out)


def write_mixed_parses(out: Path) -> None:
    """Beside the inputs, ``mixed.conllu``: the parses without test
    sentences ``UNPARSED`` and with an ``x`` added to the first form of
    test sentence ``UNALIGNED``, so that its tokens do not align."""
    sentences = (out / "parses.conllu").read_text().split("\n\n")
    mixed = []
    for sentence in sentences:
        lines = sentence.splitlines()
        sent_id = next((line.split("=", 1)[1].strip() for line in lines
                        if line.startswith("# sent_id")), None)
        if sent_id in {f"test-{i}" for i in UNPARSED}:
            continue
        if sent_id == f"test-{UNALIGNED}":
            first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            cols = lines[first].split("\t")
            cols[1] += "x"
            lines[first] = "\t".join(cols)
        mixed.append("\n".join(lines))
    (out / "mixed.conllu").write_text("\n\n".join(mixed))


def write_malformed_inputs(out: Path) -> None:
    """Beside the inputs, the malformed files of the refusal runs: for each
    of ``PARSE_FAULTS`` the parses with sentence ``FAULTY`` broken, for
    each of ``ASPECT_FAULTS`` the test split with example ``FAULTY``'s
    first aspect broken, the test split with ``PAST_CONTEXT`` tokens and an
    aspect on the last added to example ``FAULTY``, ``mini_checkpoint.bin``
    cut 8 bytes short and with its vocabulary entry 5 set to entry 4, and
    the directory ``OCCUPIED/clusters.csv``, a synth spec with rho 1.5, a
    manifest of the command ``frobnicate`` and ``spc_term.json``, a split
    whose second example holds a 7-token term."""
    from lsa.runio import build_manifest
    from util import with_edited_vocabulary

    sentences = (out / "parses.conllu").read_text().split("\n\n")
    lines = sentences[FAULTY].splitlines()
    for fault in PARSE_FAULTS:
        comments = [line for line in lines if line.startswith("#")]
        words = [line.split("\t") for line in lines if not line.startswith("#")]
        inside = []  # the comments after the first word
        if fault == "cyclic":
            words[0][6], words[1][6] = "2", "1"
        elif fault == "two_roots":
            next(cols for cols in words if cols[6] != "0")[6] = "0"
        elif fault == "head_out_of_range":
            words[0][6] = str(len(words) + 1)
        elif fault == "plus_id":
            words[1][0] = "+2"
        elif fault == "sent_id_inside":
            inside = ["# sent_id = renamed"]
        else:
            comments = ["# sent_id" if c.startswith("# sent_id") else c for c in comments]
        rows = ["\t".join(cols) for cols in words]
        sentence = "\n".join(comments + rows[:1] + inside + rows[1:])
        text = "\n\n".join(sentences[:FAULTY] + [sentence] + sentences[FAULTY + 1:])
        (out / f"{fault}.conllu").write_text(text)
    for fault, edit in ASPECT_FAULTS.items():
        data = json.loads((out / "test.json").read_text())
        edit(data["examples"][FAULTY]["aspects"][0])
        (out / f"{fault}.json").write_text(json.dumps(data))
    data = json.loads((out / "test.json").read_text())
    example = data["examples"][FAULTY]
    example["tokens"] += ["w0"] * PAST_CONTEXT
    example["text"] += " w0" * PAST_CONTEXT
    end = len(example["tokens"])
    example["aspects"].append({"span": [end - 1, end], "term": ["w0"], "polarity": "positive",
                               "implicit": False})
    (out / "past_context.json").write_text(json.dumps(data))
    blob = (ROOT / "tests" / "fixtures" / "mini_checkpoint.bin").read_bytes()
    (out / "truncated.bin").write_bytes(blob[:-8])
    repeated = with_edited_vocabulary(blob, lambda vocab: vocab.__setitem__(5, vocab[4]))
    (out / "repeated_token.bin").write_bytes(repeated)
    (out / OCCUPIED / "clusters.csv").mkdir(parents=True)
    (out / "bad_rho.spec").write_text("rho=1.5\n")
    long_term = [{"text": " ".join(tokens), "tokens": tokens, "aspects": [
        {"span": span, "term": tokens[span[0]:span[1]], "polarity": "positive"}]}
        for tokens, span in ((["w0", "w1"], [0, 1]), ([f"w{i}" for i in range(8)], [1, 8]))]
    (out / "spc_term.json").write_text(json.dumps({"version": 1, "examples": long_term}))
    (out / "frobnicate.json").write_text(json.dumps(build_manifest("frobnicate", {}, [])))


def cli_cases(inputs: Path, out: Path) -> list:
    """(name, argv, artifacts) of every CLI run, in the order they run.
    Each writes its artifacts under ``out/<name>``; the replay of the
    manifest of run ``name`` is run ``replay/<name>``."""
    parses = inputs / "parses.conllu"
    data = ["--train-path", inputs / "train.json", "--valid-path", inputs / "valid.json",
            "--parse-path", parses, *CLI_TRAIN]
    cases = []
    for variant in ("lsa_t", "lsa_s", "lsa_p"):
        for k, flags in CLI_WINDOWS:
            name = window_run(variant, k, flags)
            train = ["train", *data, "--variant", variant, "--k", k, *flags]
            evaluate = ["eval", "--checkpoint", out / name / "checkpoint.bin",
                        "--dataset", inputs / "test.json", "--parses", parses]
            cases += [(name, train, TRAIN_ARTIFACTS), (f"{name}/eval", evaluate, ("eval.csv",))]
    cases += [
        ("lsa_p_spc_cut", ["train", *data, *SPC_CUT], TRAIN_ARTIFACTS),
        ("lsa_p_spc_cut/eval", ["eval", "--checkpoint", out / "lsa_p_spc_cut" / "checkpoint.bin",
                                "--dataset", inputs / "test.json"], ("eval.csv",)),
        ("config_file", ["train", "--config", inputs / "train.cfg"], TRAIN_ARTIFACTS),
        ("synth", ["synth", "--spec", inputs / "synth.spec", "--seed", "4"],
         ("train.json", "valid.json", "test.json")),
        ("sweep_eta", ["sweep-eta", *data, "--grid", "0:1:0.5"], ("sweep_eta.csv",)),
        ("sweep_seeds", ["sweep-seeds", *data, "--seeds", "1,2"], ("sweep_seeds.csv",)),
        ("clusters_json", ["analyze-clusters", inputs / "mini.json"], ("clusters.csv",)),
        ("clusters_xml", ["analyze-clusters", inputs / "mini_semeval.xml",
                          "--format", "semeval-xml"], ("clusters.csv",)),
    ]
    plain = out / "lsa_t_k1"  # a model that reads no parses
    plain_eval = ["eval", "--checkpoint", plain / "checkpoint.bin"]
    cases.append(("eval_slices", [*plain_eval, "--dataset", inputs / "slices.json"],
                  ("eval.csv",)))
    cases.append(("eval_format", [*plain_eval, "--dataset", inputs / "test.json",
                                  "--format", "absa-json"], ("eval.csv",)))
    cases.append(("train_test_split", ["train", *data, "--test-path", inputs / "test.json"],
                  TRAIN_ARTIFACTS))
    cases += [(f"replay/{name}", ["replay", out / name / "manifest.json"], artifacts)
              for name, _, artifacts in cases]
    cases.append(("sweep_eta_uneven_grid", ["sweep-eta", *data, "--grid", "0:1:0.35"],
                  ("sweep_eta.csv",)))
    cases.append(("sweep_eta_default_grid", ["sweep-eta", *data, "--grid", "0:1:0.1"],
                  ("sweep_eta.csv",)))
    trained = out / "lsa_s_k1" / "checkpoint.bin"
    cases.append((MIXED_RUN, ["eval", "--checkpoint", trained, "--dataset", inputs / "test.json",
                              "--parses", inputs / "mixed.conllu"], ("eval.csv",)))
    refused = {fault: (trained, "test.json", f"{fault}.conllu") for fault in PARSE_FAULTS}
    refused.update({fault: (trained, f"{fault}.json", "parses.conllu") for fault in ASPECT_FAULTS})
    refused["past_context"] = (trained, "past_context.json", "parses.conllu")
    refused["truncated_checkpoint"] = (inputs / "truncated.bin", "test.json", "parses.conllu")
    # mini.json: the test split's sentences are longer than the fixture model's context
    refused["repeated_vocab_token"] = (inputs / "repeated_token.bin", "mini.json", "parses.conllu")
    cases += [(f"refuse/{fault}", ["eval", "--checkpoint", checkpoint,
                                   "--dataset", inputs / dataset, "--parses", inputs / parses], ())
              for fault, (checkpoint, dataset, parses) in refused.items()]
    cases.append(("refuse/out_is_a_file", ["analyze-clusters", inputs / "mini.json",
                                            "--out", inputs / "mini.json"], ()))
    cases.append(("refuse/artifact_is_a_directory", ["analyze-clusters", inputs / "mini.json",
                                                      "--out", inputs / OCCUPIED], ()))
    cases.append(("refuse/checkpoint_is_a_directory", ["train", *data], ()))
    cases.append(("refuse/test_split_past_context",
                  ["train", *data, "--test-path", inputs / "past_context.json"], ()))
    cases.append(("refuse/synth_bad_rho",
                  ["synth", "--spec", inputs / "bad_rho.spec", "--seed", "4"], ()))
    cases.append(("refuse/replay_unknown_command", ["replay", inputs / "frobnicate.json"], ()))
    cases.append(("refuse/grid_uncountable", ["sweep-eta", *data, "--grid", "0:1e30:1e-30"], ()))
    spc_term = inputs / "spc_term.json"
    cases.append(("refuse/spc_term_too_long", ["train", "--train-path", spc_term, "--valid-path",
                                               spc_term, *CLI_TRAIN, *SPC_TERM_CUT], ()))
    cases.append(("export_trajectory", ["export-trajectory", "--run", plain], (EXPORTED,)))
    cases += [("help", ["--help"], ()), ("help/eval", ["eval", "--help"], ())]
    cases += [(f"usage/{name}", argv, ()) for name, argv in usage_errors(inputs, data).items()]
    def out_flag(name, argv):
        if "--out" in argv:
            return []
        return ["--out", out / name / EXPORTED if argv[0] == "export-trajectory" else out / name]

    return [(name, [*argv, *out_flag(name, argv)], artifacts) for name, argv, artifacts in cases]


def usage_errors(inputs: Path, data: list) -> dict:
    """name -> the argv of each usage-error run: a flag, a flag's value or a
    config value that is refused, or a required argument left out."""
    checkpoint = ["--checkpoint", inputs / "nothing.bin"]  # never read
    test = ["--dataset", inputs / "test.json"]
    return {
        "unknown_command": ["frobnicate"],
        "unknown_flag": ["analyze-clusters", inputs / "mini.json", "--bogus"],
        "no_dataset": ["analyze-clusters"],
        "no_checkpoint": ["eval", *test],
        "no_flags": ["eval"],
        "bad_format": ["eval", *checkpoint, *test, "--format", "csv"],
        "eval_slice": ["eval", *checkpoint, *test, "--slice", "implicit"],
        "no_spec": ["synth", "--seed", "1"],
        "seed_not_int": ["synth", "--spec", inputs / "synth.spec", "--seed", "x"],
        "ambiguous_flag": ["train", *data, "--e", "1"],
        "epochs_not_int": ["train", *data, "--epochs", "abc"],
        "no_train_path": ["train", "--epochs", "1"],
        "grid_backwards": ["sweep-eta", *data, "--grid", "1:0:1"],
        "sweep_eta_k0": ["sweep-eta", *data, "--k", "0"],
        "seeds_not_int": ["sweep-seeds", *data, "--seeds", "1,x"],
        "no_run": ["export-trajectory"],
        "no_manifest": ["replay"],
    }


def cli_runs(root: Path, inputs: Path, out: Path) -> None:
    """Every CLI run with the package of the checkout at ``root``: its
    standard output and error into ``out/<name>/stdout.txt`` and
    ``stderr.txt``, with ``out`` and the temporary directory that holds it
    and ``inputs`` written as ``<out>`` and ``<tmp>``, and every exit code
    into ``out/exits.json``.  A run that exits (``--help``) gives its exit
    status; one that raises past ``main`` gives 1, and the type and text of
    the exception as its standard error, as the ``lsa`` script would end
    in that traceback.  Runs in a child process."""
    sys.path[:0] = [str(root / "src")]
    from lsa.cli import main

    exits = {}
    for name, argv, _ in cli_cases(inputs, out):
        logging.disable(logging.NOTSET if name == MIXED_RUN else logging.WARNING)
        (out / name).mkdir(parents=True, exist_ok=True)  # export-trajectory writes a file there
        if name in BLOCKED:
            (out / name / BLOCKED[name]).mkdir()
        streams = {"stdout.txt": io.StringIO(), "stderr.txt": io.StringIO()}
        with contextlib.redirect_stdout(streams["stdout.txt"]), \
                contextlib.redirect_stderr(streams["stderr.txt"]):
            try:
                exits[name] = main([str(a) for a in argv])
            except SystemExit as e:
                exits[name] = e.code
            except Exception as e:
                print(f"{type(e).__name__}: {e}", file=sys.stderr)
                exits[name] = 1
        for stream, buffer in streams.items():
            text = buffer.getvalue().replace(str(out), "<out>")
            (out / name / stream).write_text(text.replace(str(inputs.parent), "<tmp>"))
    (out / "exits.json").write_text(json.dumps(exits))


def side_cli(root: Path, inputs: Path, out: Path) -> None:
    subprocess.run(
        [sys.executable, __file__, "--cli-runs", str(root), str(inputs), str(out)],
        check=True, env=child_env(), timeout=1800,
    )


def base_run(name: str) -> str:
    """The train (or other) run that CLI run ``name`` follows from."""
    return name.removeprefix("replay/").removesuffix("/eval")


def compare_cli(inputs: Path, parent: Path,
                tree: Path) -> tuple[list[str], list[str], list[str]]:
    """The differences between the CLI runs written under ``parent`` and
    those under ``tree``: exit codes, standard output and error, the names
    of the files each run leaves in its directory, and the bytes of each
    artifact.  The first list holds those of the runs both
    sides can make, but the ``DECLARED`` ones; the second names the runs
    that follow from a run REV rejects as a usage error and the working
    tree makes; the third holds the differences of the ``DECLARED`` runs."""
    exits = [json.loads((side / "exits.json").read_text()) for side in (parent, tree)]
    new = {name for name in exits[0] if (exits[0][name], exits[1][name]) == (1, 0)}
    diffs = defaultdict(list)
    for name in exits[0]:
        if exits[0][name] != exits[1][name]:
            diffs[name].append(
                f"CLI {name} exit code: REV {exits[0][name]}, working tree {exits[1][name]}")
    for name, _, artifacts in cli_cases(inputs, parent):
        for stream in ("stdout", "stderr"):
            text = [(side / name / f"{stream}.txt").read_text() for side in (parent, tree)]
            if text[0] != text[1]:
                diffs[name].append(
                    f"CLI {name} {stream}: REV {text[0]!r}, working tree {text[1]!r}")
        files = [sorted(f.name for f in (side / name).iterdir()
                        if f.is_file() and f.name not in RUN_STREAMS) for side in (parent, tree)]
        if files[0] != files[1]:
            diffs[name].append(f"CLI {name} files: REV {files[0]}, working tree {files[1]}")
        for artifact in artifacts:
            a, b = parent / name / artifact, tree / name / artifact
            if not (a.is_file() and b.is_file()):
                diffs[name].append(f"CLI {name} {artifact}: written by REV {a.is_file()}, "
                                   f"by the working tree {b.is_file()}")
                continue
            if a.read_bytes() != b.read_bytes():
                diffs[name].append(f"CLI {name} {artifact}: the bytes differ")
    found = [line for name, lines in diffs.items()
             if base_run(name) not in new and name not in DECLARED for line in lines]
    found += [f"CLI {name}: declared, but REV does the same"
              for name in DECLARED if name not in diffs]
    declared = [line for name in DECLARED for line in diffs.get(name, [])]
    return found, sorted(name for name in diffs if base_run(name) in new), declared


def oracle_case(key: str) -> str:
    return key.partition("/")[0]


def compare_oracle(parent: dict, tree: dict) -> list[str]:
    diffs = [f"oracle {k}: only in REV" for k in sorted(set(parent) - set(tree))]
    diffs += [f"oracle {k}: only in the working tree" for k in sorted(set(tree) - set(parent))]
    for key in sorted(set(parent) & set(tree)):
        a, b = parent[key], tree[key]
        if a.shape != b.shape:
            diffs.append(f"oracle {key}: shape {a.shape} != {b.shape}")
        elif not np.array_equal(a, b):
            diffs.append(f"oracle {key}: max |diff| {np.max(np.abs(a - b)):.3g}")
    return diffs


def compare_outputs(where: str, parent, tree) -> list[str]:
    if not isinstance(parent, dict) or not isinstance(tree, dict):
        return [] if parent == tree else [f"{where}: REV {parent!r}, working tree {tree!r}"]
    return [
        f"{where}.{key}: REV {parent.get(key)!r}, working tree {tree.get(key)!r}"
        for key in sorted(set(parent) | set(tree))
        if parent.get(key) != tree.get(key)
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", nargs="?")
    p.add_argument("--seeds", default="1,2,3,4,5", help="benchmark seeds, comma-separated")
    p.add_argument("--oracle-arrays", nargs=2, type=Path, metavar=("ROOT", "OUT"),
                   help=argparse.SUPPRESS)
    p.add_argument("--cli-inputs", type=Path, metavar="OUT", help=argparse.SUPPRESS)
    p.add_argument("--cli-runs", nargs=3, type=Path, metavar=("ROOT", "INPUTS", "OUT"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.oracle_arrays:
        oracle_arrays(*args.oracle_arrays)
        return 0
    if args.cli_inputs:
        write_cli_inputs(args.cli_inputs)
        return 0
    if args.cli_runs:
        cli_runs(*args.cli_runs)
        return 0
    if args.rev is None:
        p.error("REV is required")
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    with tempfile.TemporaryDirectory(prefix="compare_parent-") as tmp:
        tmp = Path(tmp)
        parent_root = tmp / "rev"
        extract(args.rev, parent_root)

        parent = side_oracle(parent_root, tmp / "rev.npz")
        tree = side_oracle(ROOT, tmp / "tree.npz")
        shared = {oracle_case(k) for k in parent} & {oracle_case(k) for k in tree}
        for side, arrays in (("REV", parent), ("the working tree", tree)):
            only = sorted({oracle_case(k) for k in arrays} - shared)
            if only:
                print(f"expected: oracle cases only {side} has: {', '.join(only)}", flush=True)
        parent, tree = ({k: v for k, v in arrays.items() if oracle_case(k) in shared}
                        for arrays in (parent, tree))
        diffs = compare_oracle(parent, tree)
        print(f"{len(parent)} oracle arrays of the cases both sides have: "
              f"{len(diffs)} differences", flush=True)
        for workload in workloads:
            for seed in seeds:
                rev, here = (bench_outputs(root, workload, seed) for root in (parent_root, ROOT))
                found = compare_outputs(f"{workload} seed {seed} outputs", rev, here)
                print(f"{workload} seed {seed}: {len(found)} differences", flush=True)
                diffs += found

        inputs = tmp / "cli-inputs"
        inputs.mkdir()
        subprocess.run([sys.executable, __file__, "--cli-inputs", str(inputs)],
                       check=True, env=child_env(), timeout=600)
        side_cli(parent_root, inputs, tmp / "cli-rev")
        side_cli(ROOT, inputs, tmp / "cli-tree")
        found, new, declared = compare_cli(inputs, tmp / "cli-rev", tmp / "cli-tree")
        print(f"{len(cli_cases(inputs, tmp)) - len(new) - len(DECLARED)} CLI runs both sides "
              f"can make, declared refusals aside: {len(found)} differences", flush=True)
        for name, before in DECLARED.items():
            print(f"declared: {name}; a REV without this change {before}", flush=True)
        for line in declared:
            print(f"declared: {line}", flush=True)
        rev, here = (json.loads((tmp / side / "exits.json").read_text())
                     for side in ("cli-rev", "cli-tree"))
        refused = [f"{name.removeprefix('refuse/')} {rev[name]}/{here[name]}"
                   for name in here if name.startswith("refuse/")]
        print(f"refusal runs, exit code REV/working tree: {', '.join(refused)}", flush=True)
        if new:
            print(f"expected: {len(new)} CLI runs follow from a run that REV rejects as a "
                  f"usage error and the working tree makes: {', '.join(new)}", flush=True)
        diffs += found
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences between {args.rev} and the working tree")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
