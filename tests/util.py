"""Shared helpers for the test suite: the gradient oracle and a scalar
sum to drive it, tiny model/corpus builders."""

from __future__ import annotations

from pathlib import Path

import numpy as np

import lsa.autodiff as ad
from lsa.corpus import SynthSpec, generate_synthetic_corpus, save_dataset
from lsa.encoder import Vocabulary
from lsa.window import Model, ModelConfig

FIXTURES = Path(__file__).parent / "fixtures"


def sum_all(t: ad.Tensor) -> ad.Tensor:
    """The sum of every entry of ``t``, shape [1], recorded on the tape."""
    shape = t.shape

    def backward(g):
        return (np.full(shape, g[0]),)

    return ad._record(ad.Tensor(np.array([t.values.sum()])), (t,), backward)


def finite_difference_gradient(f, param: ad.Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of ``f`` w.r.t. every coordinate
    of ``param``.  ``f`` must be deterministic and must read ``param.values``.
    """
    flat = param.values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        f_plus = f()
        flat[i] = saved - eps
        f_minus = f()
        flat[i] = saved
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(param.values.shape)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max coordinate-wise relative error with a unit floor."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(build, params, eps=1e-6):
    """Backward grads of ``build()`` (a fresh scalar forward) against
    central finite differences for every coordinate of every param."""
    tape = ad.Tape()
    with tape:
        loss = build()
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        fd = finite_difference_gradient(lambda: build().item(), p, eps)
        worst = max(worst, rel_err(analytic[name], fd))
    return worst


def tiny_model(seed=0, variant="lsa_t", vocab_tokens=None, **overrides) -> Model:
    config = ModelConfig(
        variant=variant, d_model=16, layers=1, heads=2, ffn_mult=2, max_len=32,
        **overrides,
    )
    tokens = vocab_tokens or [f"w{i}" for i in range(12)]
    vocab = Vocabulary.build([tokens])
    return Model(config, vocab, np.random.Generator(np.random.PCG64(seed)))


def write_synth_corpus(tmpdir, *, seed=7, train=60, test=30, rho=1.0,
                       implicit=0.4, aspects=None, vocab_size=12):
    spec = SynthSpec(
        vocab_size=vocab_size,
        splits={"train": train, "test": test},
        rho=rho,
        implicit_fraction=implicit,
        aspects_dist=aspects or {2: 0.95, 3: 0.05},
    )
    datasets = generate_synthetic_corpus(spec, seed)
    paths = {}
    for split, ds in datasets.items():
        path = Path(tmpdir) / f"{split}.json"
        save_dataset(ds, path)
        paths[split] = str(path)
    return spec, datasets, paths
