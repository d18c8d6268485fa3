"""Per-pair probabilities and parameter gradients of fixed small models on
``fixtures/mini.json``: the reference a rewrite of the compute path must
reproduce.

``python tests/oracle.py`` writes ``fixtures/oracle.npz`` from the code on
``PYTHONPATH``; ``test_oracle.py`` compares the current code against it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import lsa.autodiff as ad
from lsa.corpus import load_dataset
from lsa.distance import load_parses
from lsa.encoder import Vocabulary
from lsa.window import Model, ModelConfig

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE = FIXTURES / "oracle.npz"

# case name: ModelConfig overrides on top of d=16, 1 layer, 2 heads.
CASES = {
    "lsa_t": {},
    "lsa_s": {"variant": "lsa_s"},
    "lsa_p": {"variant": "lsa_p"},
    "no_dwa": {"no_dwa": True},
    "backbone_only": {"backbone_only": True},
    "la_only": {"la_only": True},
    "ra_only": {"ra_only": True},
    "frozen_eta": {"no_dwa": True, "frozen_eta": (0.3, 0.7)},
}


def oracle_model(overrides: dict) -> Model:
    config = ModelConfig(
        d_model=16, layers=1, heads=2, ffn_mult=2, max_len=32, **overrides
    )
    dataset = load_dataset(FIXTURES / "mini.json")
    vocab = Vocabulary.build(ex.tokens for ex in dataset.examples)
    model = Model(config, vocab, np.random.Generator(np.random.PCG64(11)))
    # side weights away from 1, so a swapped or dropped side shows
    model.dwa.eta_l.values[0] = 0.8
    model.dwa.eta_r.values[0] = 1.3
    return model


def compute(overrides: dict, batch: int | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Probability rows of every (example, aspect) pair of mini.json, and
    the gradient of their summed cross-entropy for every parameter that
    receives one.  The examples are forwarded ``batch`` at a time, all at
    once when None."""
    model = oracle_model(overrides)
    examples = [ex for ex in load_dataset(FIXTURES / "mini.json").examples if ex.aspects]
    trees = load_parses(FIXTURES / "mini.conllu")
    size = batch or len(examples)
    rows = []
    for i in range(0, len(examples), size):
        group = examples[i:i + size]
        tape = ad.Tape()
        with tape:
            probs = model.forward(group, trees)
            golds = [a.polarity.index for ex in group for a in ex.aspects]
            total = ad.cross_entropy(probs, golds)
        tape.backward(total)  # gradients add up over the groups
        rows.append(probs.values)
    grads = {
        name: t.grad.copy()
        for name, t in model.named_parameters().items()
        if t.grad is not None
    }
    return np.concatenate(rows), grads


def main() -> int:
    arrays = {}
    for case, overrides in CASES.items():
        probs, grads = compute(overrides)
        arrays[f"{case}/probs"] = probs
        for name, g in grads.items():
            arrays[f"{case}/grad/{name}"] = g
    np.savez_compressed(ORACLE, **arrays)
    print(f"wrote {len(arrays)} arrays to {ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
