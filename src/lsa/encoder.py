"""Tokenizer, vocabulary, and a small trainable self-attention encoder.

The encoder is deliberately tiny: token + learned positional embeddings
through a stack of post-norm attention blocks.  It stands in for a large
pretrained model so that end-to-end gradient checks stay exhaustive.

A batch of sequences of different lengths is encoded in one call, and no
work is done on padding.  The hidden states of the batch are packed: one
(N, d) row per real token, sequence after sequence.  A block is two tape
nodes on those N rows: ``ad.attention``, which gives the residual stream
``x + MHA(x)``, and ``ad.residual_ffn`` for the layer norm, feed-forward,
residual and layer norm after it.
Only attention's scores, softmax and mixing of values set the rows of
each sequence side by side in an (S, heads, L, ·) layout, with padded
keys masked.  So each sequence's hidden states are those it gets when
encoded alone.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import chain

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
        tokens = self.id_to_token
        if list(tokens[:4]) != list(RESERVED):
            raise ConfigError("vocabulary must start with the reserved markers")
        if not all(map(str.__instancecheck__, tokens)):
            i = next(i for i, t in enumerate(tokens) if not isinstance(t, str))
            raise ConfigError(f"vocabulary token {i} is not a string: {tokens[i]!r}")
        self.token_to_id = dict(zip(tokens, range(len(tokens))))
        if len(self.token_to_id) != len(tokens):
            i = next(i for i, t in enumerate(tokens) if tokens.index(t) != i)
            raise ConfigError(f"vocabulary token {i} repeats token {tokens.index(tokens[i])}: "
                              f"{tokens[i]!r}")

    def __len__(self):
        return len(self.id_to_token)

    @classmethod
    def build(cls, token_lists) -> "Vocabulary":
        """The reserved markers, then every other token of ``token_lists``
        by falling count, ties in token order: a sort by token, then a
        stable sort by count.  A token that is a reserved marker gets the
        marker's id."""
        counts = Counter(chain.from_iterable(token_lists))
        for marker in RESERVED:
            counts.pop(marker, None)
        ordered = sorted(counts)
        ordered.sort(key=counts.__getitem__, reverse=True)
        return cls([*RESERVED, *ordered])

    def encode(self, tokens) -> np.ndarray:
        unk = self.token_to_id[UNK]
        return np.array([self.token_to_id.get(t, unk) for t in tokens], dtype=np.int64)

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
    wk: Tensor  # no key bias: see ad.attention
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
            wk=proj(d, d),
            wv=proj(d, d), bv=zeros(d),
            wo=proj(d, d), bo=zeros(d),
            w1=proj(d, ffn), b1=zeros(ffn),
            w2=proj(ffn, d), b2=zeros(d),
            ln1_g=ad.parameter(np.ones(d)), ln1_b=zeros(d),
            ln2_g=ad.parameter(np.ones(d)), ln2_b=zeros(d),
        )

    def named(self, prefix: str):
        for f in fields(self):
            yield f"{prefix}.{f.name}", getattr(self, f.name)


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
        return cls(
            embedding=ad.parameter(rng.uniform(-0.1, 0.1, size=(vocab_size, d))),
            positional=ad.parameter(rng.uniform(-0.1, 0.1, size=(max_len, d))),
            blocks=[BlockParams.init(d, ffn, rng) for _ in range(layers)],
            heads=heads,
        )

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
    valid: np.ndarray,
    source: np.ndarray | None = None,
    scale: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention + residual + feed-forward, post-norm.  ``x``
    (N, d) packs the real rows of the sequences whose positions ``valid``
    (S, L) marks, and each row attends only to the rows of its own
    sequence.  Every op but the attention scores runs on the N rows; the
    output is (N, d).

    With a sorted ``source`` (rows,) and a ``scale`` (rows, L), row r of
    the output (rows, d) is the first row of the block's output on
    sequence ``source[r]`` with its rows scaled by ``scale[r]``.  That
    input is never formed: ``ad.attention`` projects keys and values once
    per sequence and adds the scaled first rows as the residual."""
    h = ad.attention(x, p.wq, p.bq, p.wk, p.wv, p.bv, p.wo, p.bo, heads, valid, source, scale)
    return ad.residual_ffn(h, p.ln1_g, p.ln1_b, p.w1, p.b1, p.w2, p.b2, p.ln2_g, p.ln2_b)


def encode(ids, params: EncoderParams, valid: np.ndarray) -> Tensor:
    """Hidden states (N, d) of the N token ids ``ids``, which pack
    sequences one after another.  ``valid`` (S, L) marks each sequence's
    positions, which must include its first; nothing is computed for the
    others."""
    if valid.ndim != 2 or valid.shape[1] == 0:
        raise ConfigError(f"cannot encode a layout of shape {valid.shape}; need (S, L > 0)")
    if valid.shape[1] > params.max_len:
        raise ConfigError(f"sequence length {valid.shape[1]} exceeds maximum {params.max_len}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != (valid.sum(),):
        raise ConfigError(f"token ids of shape {ids.shape} for {valid.sum()} valid positions")
    x = ad.add(
        ad.gather_rows(params.embedding, ids),
        ad.gather_rows(params.positional, np.nonzero(valid)[1]),
    )
    for blk in params.blocks:
        x = self_attention_block(x, blk, params.heads, valid)
    return x

