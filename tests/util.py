"""Shared helpers for the test suite: the gradient oracle and a scalar
sum to drive it, attention's weights and a numpy reference for it, tiny
model/corpus builders."""

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


def mixing_weights(x, wq, bq, wk, heads, valid=None, source=None, scale=None) -> np.ndarray:
    """The weights (queries, heads, L) with which ``ad.attention`` mixes
    the value rows of ``x`` (that is, times ``scale`` under ``source``),
    read from its output.

    The input is widened: head h's block of columns holds the dh columns
    of ``x`` that head h projects, then L readout columns, then L more,
    which in block 0 hold a one-hot of each row's position.  Queries and
    keys see only the columns of ``x``, the queries scaled so that the
    wider heads keep the scores' 1/√dh.  The values copy the one-hot into
    each head's readout columns, where the input, and so the residual, is
    zero, and the output projection is the identity."""
    valid = np.ones((1, len(x.values)), dtype=bool) if valid is None else valid
    (n, d), width = x.shape, valid.shape[1]
    dh = d // heads
    wide = dh + 2 * width
    blocks = np.arange(heads)[:, None] * wide
    cols = (blocks + np.arange(dh)).ravel()  # the widened columns of x
    readout = blocks + dh + np.arange(width)  # (heads, L)
    onehot = dh + width + np.arange(width)
    xw = np.zeros((n, heads * wide))
    xw[:, cols] = x.values
    xw[np.arange(n), onehot[np.nonzero(valid)[1]]] = 1.0
    wqw, wkw, wvw = np.zeros((3, heads * wide, heads * wide))
    wqw[np.ix_(cols, cols)] = (wide / dh) ** 0.5 * wq.values
    wkw[np.ix_(cols, cols)] = wk.values
    wvw[onehot[:, None], readout.T] = 1.0
    bqw, zero = np.zeros(heads * wide), ad.tensor(np.zeros(heads * wide))
    bqw[cols] = (wide / dh) ** 0.5 * bq.values
    out = ad.attention(ad.tensor(xw), ad.tensor(wqw), ad.tensor(bqw), ad.tensor(wkw), zero,
                       ad.tensor(wvw), zero, ad.tensor(np.eye(heads * wide)), zero,
                       heads, valid, source, scale)
    return out.values[:, readout]


def reference_attention(x, params, heads, first_only=False):
    """Multi-head attention without its residual, one head at a time, on
    the (n, d) rows of a single sequence: every row as a query, or the
    first only.  ``params`` maps wq, bq, ... bo to tensors."""
    v = {name: t.values for name, t in params.items()}
    dh = x.shape[1] // heads
    q = x[:1 if first_only else len(x)] @ v["wq"] + v["bq"]
    k = x @ v["wk"] + v["bk"]
    val = x @ v["wv"] + v["bv"]
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ val[:, cols])
    return np.concatenate(outs, axis=1) @ v["wo"] + v["bo"]


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
