"""Aspect features, the sentiment aggregation window, and the output head.

An aspect's feature is a d-vector summary of its local sentiment: the
first row of a shared pre-head attention block (``head.sa``) run on the
hidden states scaled by position weights derived from token-aspect
distances.  Only that row is computed; the other rows serve as keys and
values.  The scaled hidden states are never formed: keys and values are
linear in them, so ``head.sa`` projects each sequence once and scales the
projected keys and values by each aspect's weights.  The residual row is
the sequence's first hidden row times its weight, which ``ad.attention``
adds itself, so a ``head.sa`` call records two tape nodes, as an encoder
block does.

The window sets the k nearest left features, the target feature and the
k nearest right ones side by side; missing neighbors are padded with
copies of the target feature, never zeros.  Two learnable scalars
re-weight the side slots and are optimized by gradient descent from an
initial value of 1.

``Model.forward`` runs a whole batch as one tensor forward.  The host work
of each example (token ids, SPC inputs, position weights, parse alignment)
is done once per example by ``Model.forward_example``.  Then one encoder
call covers every sequence of the batch, on its real tokens only: the
hidden states are packed, one row per token, and ``valid`` records where
each sequence's tokens sit.  One ``head.sa`` call on those packed rows
gives every feature row: in ``lsa_t``/``lsa_s`` one row per aspect plus
one pooled row per example, in ``lsa_p`` one per SPC input.
``build_window`` turns the rows into a (pairs, slots) index array that
never leaves an example, and the DWA scaling, the projection, the
classifier and the loss each run once over all pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import NUM_CLASSES, DataError, Example
from .distance import (
    align_tokens_to_words,
    relative_token_distance,
    syntactic_distance,
)
from .encoder import (
    BlockParams,
    ConfigError,
    EncoderParams,
    Vocabulary,
    build_spc_input,
    encode,
    self_attention_block,
)

logger = logging.getLogger(__name__)

VARIANTS = ("lsa_p", "lsa_t", "lsa_s")
FIXED_ALPHA = 3.0


def position_weight(d_i, alpha: float, n: int) -> np.ndarray:
    """Weight in [0, 1], elementwise over an array of distances: 1 inside
    the distance threshold, then a linear decay with slope 1/n, floored at 0."""
    d_i = np.asarray(d_i, dtype=np.float64)
    return np.where(d_i <= alpha, 1.0, np.maximum(0.0, 1.0 - (d_i - alpha) / n))


@dataclass
class ExampleInputs:
    """The host-side inputs of one example's forward."""

    aspects: int
    sequences: list[np.ndarray]  # token ids: the context, or one SPC input per aspect (lsa_p)
    weights: np.ndarray | None  # (aspects + 1, n + 1) position weights; None for lsa_p


@dataclass
class DwaParams:
    eta_l: Tensor = field(default_factory=lambda: ad.parameter(np.array([1.0])))
    eta_r: Tensor = field(default_factory=lambda: ad.parameter(np.array([1.0])))

    def named(self):
        yield "dwa.eta_l", self.eta_l
        yield "dwa.eta_r", self.eta_r


@dataclass
class OutputHead:
    sa: BlockParams  # shared pre-head attention block
    w_out: Tensor  # (slots*d, d)
    b_out: Tensor  # (d,)
    w_dec: Tensor  # (d or 2d, C)
    b_dec: Tensor  # (C,)

    @classmethod
    def init(cls, d, ffn, slots, dec_in, rng) -> "OutputHead":
        return cls(
            sa=BlockParams.init(d, ffn, rng),
            w_out=ad.parameter(rng.normal(0.0, (slots * d) ** -0.5, size=(slots * d, d))),
            b_out=ad.parameter(np.zeros(d)),
            w_dec=ad.parameter(rng.normal(0.0, dec_in**-0.5, size=(dec_in, NUM_CLASSES))),
            b_dec=ad.parameter(np.zeros(NUM_CLASSES)),
        )

    def named(self):
        yield from self.sa.named("head.sa")
        yield "head.w_out", self.w_out
        yield "head.b_out", self.b_out
        yield "head.w_dec", self.w_dec
        yield "head.b_dec", self.b_dec


def aspect_feature_local(
    hidden: Tensor, valid: np.ndarray, weights: list[np.ndarray] | None,
    sa: BlockParams, heads: int,
) -> Tensor:
    """The first row of ``head.sa`` for every feature row of a batch: (rows, d).

    ``hidden`` (N, d) packs the batch's encoded sequences and ``valid``
    (S, L) marks their real positions.  With ``weights`` None each sequence
    gives one row.  Otherwise ``weights[s]`` (rows_s, n_s) gives sequence
    ``s`` rows_s rows, each the feature of the sequence under one row of
    position weights: ``head.sa`` sees the hidden states scaled by those
    weights.  The scaled copies are never formed; ``head.sa`` projects each
    sequence's keys and values once and scales them per row.  The weights
    are functions of integer positions only and carry no gradient.
    """
    if weights is None:
        return self_attention_block(hidden, sa, heads, valid, np.arange(len(valid)),
                                    valid.astype(np.float64))
    lengths = valid.sum(axis=1)
    if len(weights) != len(lengths) or any(
        w.ndim != 2 or w.shape[1] != n for w, n in zip(weights, lengths)
    ):
        raise ConfigError(
            f"position weights of shapes {[w.shape for w in weights]} for "
            f"sequences of lengths {lengths.tolist()}"
        )
    source = np.repeat(np.arange(len(weights)), [len(w) for w in weights])
    scale = np.zeros((len(source), valid.shape[1]))
    scale[valid[source]] = np.concatenate([w.ravel() for w in weights])
    return self_attention_block(hidden, sa, heads, valid, source, scale)


def build_window(
    starts, counts, k: int, sides: str = "both", backbone_only: bool = False
) -> np.ndarray:
    """The feature rows of every (example, aspect) pair's window, as a
    (pairs, slots) index array, pairs in order.

    Example ``e`` owns the ``counts[e]`` rows from ``starts[e]``, one per
    aspect.  A window holds the k left neighbours (farthest first), the
    target and the k right neighbours (nearest first); ``sides`` "left" or
    "right" keeps only that side and the target.  A neighbour missing in
    the example is padded with the target's own row, so no index leaves
    its example.  With ``backbone_only`` every slot holds the target.
    """
    counts = np.asarray(counts, dtype=np.int64)
    first = np.repeat(np.asarray(starts, dtype=np.int64), counts)
    last = first + np.repeat(counts, counts) - 1
    target = first + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    left = 0 if sides == "right" else k
    right = 0 if sides == "left" else k
    index = target[:, None] + np.arange(-left, right + 1)
    missing = (index < first[:, None]) | (index > last[:, None]) | backbone_only
    return np.where(missing, target[:, None], index)


def apply_dwa(
    features: Tensor,
    window: np.ndarray,
    dwa: DwaParams | None,
    frozen_eta: tuple[float, float] | None = None,
    sides: str = "both",
) -> Tensor:
    """The window's feature rows side by side, (pairs, slots * d): the rows
    of ``features`` (R, d) that ``window`` (pairs, slots) indexes, the side
    slots scaled by the aggregation weights.  ``dwa=None`` means the
    weights are the constant 1 with no gradient.  ``sides`` names the
    window's side slots, as in ``build_window``."""
    h = ad.gather_rows(features, window)
    slots = window.shape[1]
    n_left = {"both": (slots - 1) // 2, "left": slots - 1, "right": 0}[sides]
    n_right = slots - 1 - n_left
    if frozen_eta is not None:
        side = [frozen_eta[0]] * n_left + [1.0] + [frozen_eta[1]] * n_right
        h = ad.mul(h, Tensor(np.array(side)[:, None]))
    elif dwa is not None:
        parts = [dwa.eta_l] * n_left + [Tensor(np.ones(1))] + [dwa.eta_r] * n_right
        h = ad.mul(h, ad.reshape(ad.concat(parts), (slots, 1)))
    return ad.reshape(h, (h.shape[0], slots * h.shape[-1]))


def project_window(h_window: Tensor, head: OutputHead) -> Tensor:
    """Affine map of the concatenated windows (pairs, slots * d) down to d."""
    if h_window.shape[1] != head.w_out.shape[0]:
        raise ConfigError(
            f"window width {h_window.shape[1]} does not match projection "
            f"{head.w_out.shape}"
        )
    return ad.matmul(h_window, head.w_out, head.b_out)


def classify(h_o: Tensor, pooled_global: Tensor | None, head: OutputHead) -> Tensor:
    """Probability rows (pairs, C).  The pair-encoded variant drops the
    global feature and classifies from the window projection alone."""
    z = h_o if pooled_global is None else ad.concat([h_o, pooled_global], axis=1)
    return ad.softmax(ad.matmul(z, head.w_dec, head.b_dec))


@dataclass
class ModelConfig:
    variant: str = "lsa_t"
    k: int = 1
    alpha: float = FIXED_ALPHA
    max_len: int = 80
    d_model: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    no_dwa: bool = False
    la_only: bool = False
    ra_only: bool = False
    backbone_only: bool = False
    frozen_eta: tuple[float, float] | None = None

    def __post_init__(self):
        if self.frozen_eta is not None:
            self.frozen_eta = tuple(float(x) for x in self.frozen_eta)

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if min(self.k, self.max_len, self.d_model, self.layers, self.heads) < 1:
            raise ConfigError("k, max_len, d_model, layers, heads must be positive")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by {self.heads} heads"
            )
        exclusive = [self.la_only, self.ra_only, self.backbone_only]
        if sum(exclusive) > 1:
            raise ConfigError("la_only, ra_only, backbone_only are mutually exclusive")
        if self.frozen_eta is not None:
            if not self.no_dwa:
                raise ConfigError("frozen_eta requires no_dwa")
            if len(self.frozen_eta) != 2:
                raise ConfigError("frozen_eta takes two values, eta_l,eta_r")

    @property
    def window_slots(self) -> int:
        if self.la_only or self.ra_only:
            return self.k + 1
        return 2 * self.k + 1

    @property
    def sides(self) -> str:
        if self.la_only:
            return "left"
        if self.ra_only:
            return "right"
        return "both"


class Model:
    """Encoder + aggregation window + output head for one variant."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, rng: np.random.Generator):
        config.validate()
        self.config = config
        self.vocab = vocab
        d, ffn = config.d_model, config.d_model * config.ffn_mult
        self.encoder = EncoderParams.init(
            len(vocab), d, config.layers, config.heads, config.max_len, ffn, rng
        )
        dec_in = d if config.variant == "lsa_p" else 2 * d
        self.head = OutputHead.init(d, ffn, config.window_slots, dec_in, rng)
        self.dwa = DwaParams()
        self.syntax_fallbacks = 0
        self._warned: set[str] = set()  # the fallback reasons already logged

    # -- parameters -------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params = dict(self.encoder.named())
        params.update(self.head.named())
        params.update(self.dwa.named())
        return params

    def main_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_parameters().items() if not k.startswith("dwa.")}

    def eta_parameters(self) -> dict[str, Tensor]:
        """The side weights the window uses (one in a one-sided window)."""
        if self.config.no_dwa:
            return {}
        unused = {"left": "dwa.eta_r", "right": "dwa.eta_l"}.get(self.config.sides)
        return {name: t for name, t in self.dwa.named() if name != unused}

    def eta_values(self) -> tuple[float, float]:
        if self.config.frozen_eta is not None:
            return self.config.frozen_eta
        return float(self.dwa.eta_l.values[0]), float(self.dwa.eta_r.values[0])

    # -- per-example forward ----------------------------------------------

    def _context_tokens(self, example: Example) -> list[str]:
        limit = self.config.max_len - 1  # room for the leading marker
        tokens = example.tokens[:limit]
        if example.aspects and example.aspects[-1].end > len(tokens):
            raise DataError(
                f"aspect extends past the {limit}-token context limit in "
                f"{example.text[:40]!r}"
            )
        return tokens

    def _position_weights(self, example: Example, tokens, trees) -> np.ndarray:
        """(A + 1, n + 1): a row of position weights per aspect, from the
        variant's token-aspect distances, then an all-ones row for the
        pooled global feature.  The leading marker receives the maximal
        distance n.  ``lsa_s`` aligns all of the example's tokens, also those
        past the context, to the parse's forms.  It falls back to positional
        distance, and counts it in ``syntax_fallbacks``, when the example has
        no parse or its tokens do not align."""
        n = len(tokens)
        distance = partial(relative_token_distance, np.arange(n))
        if self.config.variant == "lsa_s":
            tree = (trees or {}).get(example.parse_ref)
            reason, detail = "no parse", ""
            if tree is not None:
                try:
                    alignment = align_tokens_to_words(example.tokens, tree.forms)
                except DataError as err:
                    reason, detail = "tokens that do not align with the parse", f" ({err})"
                else:
                    distance = partial(syntactic_distance, tree, alignment, np.arange(n))
                    reason = None
            if reason is not None:
                self.syntax_fallbacks += 1
                if reason not in self._warned:
                    self._warned.add(reason)
                    logger.warning(
                        "%s for example %r%s; falling back to positional distance",
                        reason, example.text[:40], detail,
                    )
        rows = [
            position_weight(
                np.concatenate([[float(n)], distance(range(a.start, a.end))]),
                self.config.alpha, n,
            )
            for a in example.aspects
        ]
        return np.stack(rows + [np.ones(n + 1)])

    def forward_example(self, example: Example, trees=None) -> ExampleInputs:
        """The host-side inputs of one example's forward: token ids, and
        position weights (``lsa_t``/``lsa_s``) or one SPC input per aspect
        (``lsa_p``)."""
        tokens = self._context_tokens(example)
        aspects = len(example.aspects)
        if self.config.variant == "lsa_p":
            spc = [build_spc_input(tokens, list(a.term), self.vocab, self.config.max_len)
                   for a in example.aspects]
            return ExampleInputs(aspects, spc, None)
        ids = np.concatenate([[self.vocab.cls_id], self.vocab.encode(tokens)])
        weights = self._position_weights(example, tokens, trees)
        return ExampleInputs(aspects, [ids.astype(np.int64)], weights)

    def global_context(self, inputs: list[ExampleInputs]) -> tuple[Tensor, np.ndarray]:
        """One encoder call over every sequence of a batch: the hidden
        states (N, d) of their N real tokens, packed in order, and the
        (S, L) mask of those tokens, L the longest sequence."""
        sequences = [ids for x in inputs for ids in x.sequences]
        lengths = np.array([len(ids) for ids in sequences])
        valid = np.arange(lengths.max()) < lengths[:, None]
        ids = np.full(valid.shape, self.vocab.pad_id, dtype=np.int64)
        ids[valid] = np.concatenate(sequences)
        return encode(ids, self.encoder, valid), valid

    def forward(self, examples: list[Example], trees=None) -> Tensor:
        """Probability rows (pairs, C) of every (example, aspect) pair of
        ``examples``, in order, from one tensor forward over the batch."""
        cfg = self.config
        inputs = [self.forward_example(ex, trees) for ex in examples if ex.aspects]
        if not inputs:
            raise ValueError("no (example, aspect) pair to forward")
        hidden, valid = self.global_context(inputs)
        counts = np.array([x.aspects for x in inputs])
        if cfg.variant == "lsa_p":
            features = aspect_feature_local(hidden, valid, None, self.head.sa, cfg.heads)
            starts, pooled = np.cumsum(counts) - counts, None
        else:
            weights = [x.weights for x in inputs]
            features = aspect_feature_local(hidden, valid, weights, self.head.sa, cfg.heads)
            starts = np.cumsum(counts + 1) - counts - 1  # each example's pooled row follows its aspects
            pooled = ad.gather_rows(features, np.repeat(starts + counts, counts))
        window = build_window(starts, counts, cfg.k, cfg.sides, cfg.backbone_only)
        h_aw = apply_dwa(features, window, None if cfg.no_dwa else self.dwa, cfg.frozen_eta,
                         cfg.sides)
        return classify(project_window(h_aw, self.head), pooled, self.head)
