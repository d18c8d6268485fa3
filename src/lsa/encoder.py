"""Tokenizer, vocabulary, and a small trainable self-attention encoder.

The encoder is deliberately tiny: token + learned positional embeddings
through a stack of post-norm attention blocks.  It stands in for a large
pretrained model so that end-to-end gradient checks stay exhaustive.

A batch of sequences of different lengths is encoded in one call: the ids
are padded to the longest sequence, and a per-row key mask keeps each
row's attention on its own real positions.  A row's real hidden states are
then those it gets when encoded alone, and as long as no caller reads the
padded positions, no gradient reaches them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
RESERVED = (PAD, UNK, CLS, SEP)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class ConfigError(Exception):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_with_offsets(text: str):
    """Tokens plus their [start, end) character offsets in the original text."""
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text.lower()):
        tokens.append(m.group())
        offsets.append((m.start(), m.end()))
    return tokens, offsets


@dataclass
class Vocabulary:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if list(self.id_to_token[:4]) != list(RESERVED):
            raise ConfigError("vocabulary must start with the reserved markers")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self):
        return len(self.id_to_token)

    @classmethod
    def build(cls, token_lists) -> "Vocabulary":
        counts: dict[str, int] = {}
        for tokens in token_lists:
            for t in tokens:
                counts[t] = counts.get(t, 0) + 1
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(list(RESERVED) + ordered)

    def encode(self, tokens) -> np.ndarray:
        unk = self.token_to_id[UNK]
        return np.array([self.token_to_id.get(t, unk) for t in tokens], dtype=np.int64)

    @property
    def pad_id(self):
        return self.token_to_id[PAD]

    @property
    def cls_id(self):
        return self.token_to_id[CLS]

    @property
    def sep_id(self):
        return self.token_to_id[SEP]


@dataclass
class BlockParams:
    """One attention block: QKV/output projections, feed-forward, layer norms."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor

    @classmethod
    def init(cls, d: int, ffn: int, rng: np.random.Generator) -> "BlockParams":
        def proj(n_in, n_out):
            return ad.parameter(rng.normal(0.0, n_in**-0.5, size=(n_in, n_out)))

        def zeros(n):
            return ad.parameter(np.zeros(n))

        return cls(
            wq=proj(d, d), bq=zeros(d),
            wk=proj(d, d), bk=zeros(d),
            wv=proj(d, d), bv=zeros(d),
            wo=proj(d, d), bo=zeros(d),
            w1=proj(d, ffn), b1=zeros(ffn),
            w2=proj(ffn, d), b2=zeros(d),
            ln1_g=ad.parameter(np.ones(d)), ln1_b=zeros(d),
            ln2_g=ad.parameter(np.ones(d)), ln2_b=zeros(d),
        )

    def named(self, prefix: str):
        for name in (
            "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
            "w1", "b1", "w2", "b2", "ln1_g", "ln1_b", "ln2_g", "ln2_b",
        ):
            yield f"{prefix}.{name}", getattr(self, name)


@dataclass
class EncoderParams:
    embedding: Tensor  # (V, d)
    positional: Tensor  # (L_max, d)
    blocks: list[BlockParams]
    heads: int

    @classmethod
    def init(
        cls,
        vocab_size: int,
        d: int,
        layers: int,
        heads: int,
        max_len: int,
        ffn: int,
        rng: np.random.Generator,
    ) -> "EncoderParams":
        if d % heads != 0:
            raise ConfigError(f"model width {d} not divisible by {heads} heads")
        return cls(
            embedding=ad.parameter(rng.uniform(-0.1, 0.1, size=(vocab_size, d))),
            positional=ad.parameter(rng.uniform(-0.1, 0.1, size=(max_len, d))),
            blocks=[BlockParams.init(d, ffn, rng) for _ in range(layers)],
            heads=heads,
        )

    @property
    def d_model(self) -> int:
        return self.embedding.shape[1]

    @property
    def max_len(self) -> int:
        return self.positional.shape[0]

    def named(self):
        yield "encoder.embedding", self.embedding
        yield "encoder.positional", self.positional
        for i, blk in enumerate(self.blocks):
            yield from blk.named(f"encoder.block{i}")


def self_attention_block(
    x: Tensor,
    p: BlockParams,
    heads: int,
    valid: np.ndarray | None = None,
    return_attention: bool = False,
    query_rows: int | None = None,
    source: np.ndarray | None = None,
    scale: np.ndarray | None = None,
):
    """Multi-head attention + residual + feed-forward, post-norm, over
    (..., n, d).  ``valid`` is a (..., n) boolean key mask: a row attends
    only to the positions it marks True, so padding neither changes the
    other rows nor receives a gradient through attention.  With
    ``query_rows`` only the first that many rows are computed (every row
    still serves as a key and a value), so the output is (..., query_rows, d).

    With a sorted ``source`` (rows,) and a ``scale`` (rows, n), ``x`` is
    (S, n, d) and the block runs on the input whose entry r is
    ``scale[r, :, None] * x[source[r]]``, giving (rows, query_rows, d).
    That input is never formed: attention projects keys and values once per
    sequence (``ad.attention``), and the residual gathers only the query
    rows.  ``valid`` still masks the S sequences."""
    mask = None
    if valid is not None and not valid.all():
        mask = np.where(valid, 0.0, -1e30)[..., None, None, :]
    qkv = (x, p.wq, p.bq, p.wk)
    attn = ad.attention(*qkv, p.bk, p.wv, p.bv, p.wo, p.bo, heads, mask, query_rows,
                        source, scale)
    xq = x if query_rows is None else ad.slice_rows(x, 0, query_rows)
    if source is not None:
        xq = ad.mul(ad.gather_rows(xq, source), Tensor(scale[:, :xq.shape[-2], None]))
    h = ad.layer_norm(ad.add(xq, attn), p.ln1_g, p.ln1_b)
    f = ad.matmul(ad.tanh(ad.matmul(h, p.w1, p.b1)), p.w2, p.b2)
    out = ad.layer_norm(ad.add(h, f), p.ln2_g, p.ln2_b)
    if return_attention:
        weights = ad.attention_weights(*qkv, heads, mask, query_rows, source, scale)
        return out, [Tensor(weights[..., i, :, :]) for i in range(heads)]
    return out


def encode(ids, params: EncoderParams, valid: np.ndarray | None = None) -> Tensor:
    """Hidden states (..., n, d) of token id sequences (..., n).  In a
    padded batch, ``valid`` (..., n) marks each row's real positions; the
    hidden states at padded positions are meaningless."""
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.shape[-1] if ids.ndim else 0
    if n == 0:
        raise ConfigError("cannot encode an empty sequence")
    if n > params.max_len:
        raise ConfigError(f"sequence length {n} exceeds maximum {params.max_len}")
    x = ad.add(
        ad.gather_rows(params.embedding, ids),
        ad.slice_rows(params.positional, 0, n),
    )
    for blk in params.blocks:
        x = self_attention_block(x, blk, params.heads, valid=valid)
    return x


def build_spc_input(context_tokens, aspect_tokens, vocab: Vocabulary, max_len: int):
    """[CLS] context [SEP] aspect [SEP] ids; context truncated from the
    right if needed, the aspect never."""
    if len(aspect_tokens) == 0:
        raise ConfigError("SPC input needs a non-empty aspect")
    budget = max_len - 3 - len(aspect_tokens)
    if budget < 0:
        raise ConfigError(
            f"aspect of {len(aspect_tokens)} tokens cannot fit max length {max_len}"
        )
    ctx = list(context_tokens)[:budget]
    ids = np.concatenate(
        [
            [vocab.cls_id],
            vocab.encode(ctx),
            [vocab.sep_id],
            vocab.encode(aspect_tokens),
            [vocab.sep_id],
        ]
    ).astype(np.int64)
    return ids
