"""Per-pair probabilities and parameter gradients of fixed small models on
``fixtures/mini.json``: the reference a rewrite of the compute path must
reproduce.

``python tests/oracle.py`` writes ``fixtures/oracle.npz`` from the code on
``PYTHONPATH``; ``test_oracle.py`` compares the current code against it.
The arrays of a case no longer in ``CASES`` are carried over unchanged:
``backbone_only`` (every slot the target, with the 3-slot projection and
the side weights) is gone from the code, and ``test_oracle.py`` reproduces
it with k = 0.
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

from util import softmax

FIXTURES = Path(__file__).parent / "fixtures"
ORACLE = FIXTURES / "oracle.npz"

# case name: ModelConfig overrides on top of d=16, 1 layer, 2 heads.
CASES = {
    "lsa_t": {},
    "lsa_s": {"variant": "lsa_s"},
    "lsa_p": {"variant": "lsa_p"},
    "no_dwa": {"no_dwa": True},
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
    # the side weights it learns away from 1, so a swapped or dropped side shows
    for name, eta in (("dwa.eta_l", 0.8), ("dwa.eta_r", 1.3)):
        if name in model.eta:
            model.eta[name].values[0] = eta
    return model


def compute(overrides: dict, batch: int | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The probabilities and gradients (``model_arrays``) of the oracle
    model with ``overrides``."""
    return model_arrays(oracle_model(overrides), batch)


def model_arrays(model: Model, batch: int | None = None) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Probability rows of every (example, aspect) pair of mini.json (the
    softmax of ``model``'s logits), and the gradient of their summed
    cross-entropy for every parameter that receives one.  The examples
    are forwarded ``batch`` at a time, all at once when None."""
    examples = [ex for ex in load_dataset(FIXTURES / "mini.json").examples if ex.aspects]
    trees = load_parses(FIXTURES / "mini.conllu")
    size = batch or len(examples)
    rows = []
    for i in range(0, len(examples), size):
        group = examples[i:i + size]
        tape = ad.Tape()
        with tape:
            logits = model.forward(group, trees)
            golds = [a.polarity.index for ex in group for a in ex.aspects]
            total = ad.cross_entropy(logits, golds)
        tape.backward(total)  # gradients add up over the groups
        rows.append(softmax(logits.values))
    grads = {
        name: t.grad.copy()
        for name, t in model.named_parameters().items()
        if t.grad is not None
    }
    return np.concatenate(rows), grads


def main() -> int:
    arrays = {}
    if ORACLE.exists():
        with np.load(ORACLE) as old:
            arrays = {key: old[key] for key in old.files if key.partition("/")[0] not in CASES}
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
