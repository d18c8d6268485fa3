"""The benchmark's workloads and the inputs each one is built from.

Every input is a synthetic corpus from ``generate_synthetic_corpus``, made
from the seed given on the command line; nothing is downloaded.  All
workloads use the default model (d=64, 2 layers, 4 heads, ffn x4,
batch 16).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lsa.corpus import Dataset, SynthSpec, generate_synthetic_corpus, save_dataset


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    aspects: tuple[tuple[int, float], ...]  # aspects per example: weight
    filler_vocab: int
    implicit_fraction: float
    splits: tuple[tuple[str, int], ...]  # split name: examples
    epochs: int  # 0: forward-only workload on a loaded checkpoint
    parsed: bool  # a CoNLL-U parse for every example
    why: str  # why the workload exists
    idle: str  # the layers it leaves idle

    @property
    def trains(self) -> bool:
        return self.epochs > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_lsa_t_dense",
            variant="lsa_t",
            aspects=((3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0)),
            filler_vocab=20,
            implicit_fraction=0.0,
            splits=(("train", 50), ("valid", 6), ("test", 100)),
            epochs=2,
            parsed=False,
            why="lsa_t on 3-6 aspects per example: head.sa runs A+1 times per "
            "example but the encoder once, so the window path and backward "
            "carry the work",
            idle="distance (no parses) and checkpoint loading beyond one "
            "round trip",
        ),
        Workload(
            name="train_lsa_p_sparse",
            variant="lsa_p",
            aspects=((1, 2.0), (2, 1.0)),
            filler_vocab=2000,
            implicit_fraction=0.2,
            splits=(("train", 80), ("valid", 8), ("test", 250)),
            epochs=2,
            parsed=False,
            why="lsa_p on 1-2 aspects with a 2000-word filler vocab: SPC input "
            "re-runs the encoder per aspect, and the large embedding shows in "
            "gather_rows backward and AdamW.step",
            idle="distance, and aspect batching (almost nothing to batch)",
        ),
        Workload(
            name="eval_lsa_s_parsed",
            variant="lsa_s",
            aspects=((2, 1.0), (3, 1.0), (4, 1.0)),
            filler_vocab=20,
            implicit_fraction=0.0,
            splits=(("train", 40), ("valid", 10), ("test", 200)),
            epochs=0,
            parsed=True,
            why="load_checkpoint plus evaluate() of lsa_s with a parse per "
            "example: the forward-only read path, and the only workload that "
            "runs syntactic_distance",
            idle="autodiff backward and the optimizer (no tape, no step)",
        ),
    )
}

# Epochs of the training that makes the forward-only workload's checkpoint.
CHECKPOINT_EPOCHS = 1


def synth_spec(w: Workload) -> SynthSpec:
    return SynthSpec(
        vocab_size=w.filler_vocab,
        splits=dict(w.splits),
        implicit_fraction=w.implicit_fraction,
        aspects_dist=dict(w.aspects),
    )


def random_tree_heads(rng: np.random.Generator, n: int) -> list[int]:
    """CoNLL-U heads (0 = root, else 1-based) of a uniform random tree:
    words join in a random order, each under a word that joined earlier."""
    order = rng.permutation(n)
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = int(order[int(rng.integers(0, k))]) + 1
    return heads


def conllu(sentences) -> str:
    """CoNLL-U text for (sent_id, forms, heads) triples."""
    lines = []
    for sent_id, forms, heads in sentences:
        lines.append(f"# sent_id = {sent_id}")
        for i, (form, head) in enumerate(zip(forms, heads), 1):
            lines.append(f"{i}\t{form}\t_\t_\t_\t_\t{head}\t_\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_inputs(w: Workload, seed: int, workdir: Path) -> dict[str, Dataset]:
    """Write every split as absa-json (and, for a parsed workload, one
    CoNLL-U file covering all of them) under ``workdir``."""
    data = generate_synthetic_corpus(synth_spec(w), seed)
    if w.parsed:
        rng = np.random.Generator(np.random.PCG64([seed, 1]))
        sentences = []
        for split, dataset in sorted(data.items()):
            for i, ex in enumerate(dataset.examples):
                ex.parse_ref = f"{split}-{i}"
                sentences.append(
                    (ex.parse_ref, ex.tokens, random_tree_heads(rng, len(ex.tokens)))
                )
        (workdir / "parses.conllu").write_text(conllu(sentences), encoding="utf-8")
    for split, dataset in data.items():
        save_dataset(dataset, workdir / f"{split}.json")
    return data


def input_properties(dataset: Dataset) -> dict:
    """The properties of a split that an optimisation's gain depends on."""
    lengths = [len(ex.tokens) for ex in dataset.examples]
    aspects = [len(ex.aspects) for ex in dataset.examples]
    return {
        "examples": len(dataset.examples),
        "pairs": sum(aspects),
        "median_tokens": statistics.median(lengths),
        "max_tokens": max(lengths),
        "mean_aspects": sum(aspects) / len(aspects),
        "share_multi_aspect": sum(a >= 2 for a in aspects) / len(aspects),
    }
