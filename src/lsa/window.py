"""Aspect features, the sentiment aggregation window, and the output head.

An aspect's feature is a d-vector summary of its local sentiment: hidden
states are scaled by position weights derived from token-aspect distances,
passed through a shared pre-head attention block (``head.sa``), and
head-pooled to row 0.  Only row 0 is computed; the other rows serve as keys
and values.  In ``lsa_t``/``lsa_s`` one batched ``head.sa`` call gives the
features of all of an example's aspects and its pooled global feature.  The
window concatenates the k nearest left features, the target feature, and
the k nearest right ones; missing neighbors are padded with copies of the
target feature, never zeros.  Two learnable scalars re-weight the side
slots and are optimized by gradient descent from an initial value of 1.
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


def position_weight(d_i: float, alpha: float, n: int) -> float:
    """Weight in (0, 1]: 1 inside the distance threshold, then a linear
    decay with slope 1/n, floored at 0."""
    if d_i <= alpha:
        return 1.0
    return max(0.0, 1.0 - (d_i - alpha) / n)


def position_weights(distances, alpha: float, n: int) -> np.ndarray:
    return np.array([[position_weight(d, alpha, n)] for d in distances])


@dataclass
class AggregationWindow:
    """Aspect features, each a (1, d) row: the k left neighbours (farthest
    first), the target, and the k right neighbours (nearest first)."""

    left: list[Tensor]
    target: Tensor
    right: list[Tensor]


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


def aspect_feature_local(hc: Tensor, weights: np.ndarray, sa: BlockParams, heads: int) -> Tensor:
    """Row 0 of ``head.sa`` over the hidden states ``hc`` (n, d) scaled by
    each column of position weights ``weights`` (A, n, 1): (A, 1, d).

    The weights are functions of integer positions only and carry no
    gradient.
    """
    if weights.ndim != 3 or weights.shape[1:] != (hc.shape[0], 1):
        raise ConfigError(
            f"position weights of shape {weights.shape} for {hc.shape[0]} hidden rows"
        )
    return self_attention_block(ad.mul(hc, Tensor(weights)), sa, heads, query_rows=1)


def build_window(features: list[Tensor], target_index: int, k: int) -> AggregationWindow:
    """Fill left/right slots from adjacent aspects, padding missing
    neighbors with the target's own feature."""
    if not (0 <= target_index < len(features)):
        raise IndexError(f"target {target_index} out of range")
    target = features[target_index]

    def at(i: int) -> Tensor:
        return features[i] if 0 <= i < len(features) else target

    return AggregationWindow(
        [at(target_index - j) for j in range(k, 0, -1)],
        target,
        [at(target_index + j) for j in range(1, k + 1)],
    )


def apply_dwa(
    window: AggregationWindow,
    dwa: DwaParams | None,
    frozen_eta: tuple[float, float] | None = None,
    sides: str = "both",
) -> Tensor:
    """Concatenate the window row-wise, scaling side slots by the
    aggregation weights.  ``dwa=None`` means the weights are the constant 1
    with no gradient.  ``sides`` restricts to a simplified window
    ("left"/"right" keep only that neighbor slot plus the target)."""

    def scaled(feature: Tensor, which: str) -> Tensor:
        if frozen_eta is not None:
            return ad.smul(feature, frozen_eta[0 if which == "l" else 1])
        if dwa is None:
            return feature
        eta = dwa.eta_l if which == "l" else dwa.eta_r
        return ad.scale(feature, eta)

    parts: list[Tensor] = []
    if sides in ("both", "left"):
        parts.extend(scaled(f, "l") for f in window.left)
    parts.append(window.target)
    if sides in ("both", "right"):
        parts.extend(scaled(f, "r") for f in window.right)
    return ad.concat(parts, axis=1)


def project_window(h_window: Tensor, head: OutputHead) -> Tensor:
    """Affine map of the concatenated window down to d."""
    if h_window.shape[1] != head.w_out.shape[0]:
        raise ConfigError(
            f"window width {h_window.shape[1]} does not match projection "
            f"{head.w_out.shape}"
        )
    return ad.add(ad.matmul(h_window, head.w_out), head.b_out)


def classify(h_o: Tensor, pooled_global: Tensor | None, head: OutputHead) -> Tensor:
    """Probability row (1, C).  The pair-encoded variant drops the global
    feature and classifies from the window projection alone."""
    z = h_o if pooled_global is None else ad.concat([h_o, pooled_global], axis=1)
    logits = ad.add(ad.matmul(z, head.w_dec), head.b_dec)
    return ad.softmax(logits)


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
        """(A + 1, n + 1, 1): a column of position weights per aspect, from
        the variant's token-aspect distances, then an all-ones column for
        the pooled global feature.  The leading marker receives the maximal
        distance n."""
        n = len(tokens)
        distance = relative_token_distance
        if self.config.variant == "lsa_s":
            tree = (trees or {}).get(example.parse_ref)
            if tree is None:
                self.syntax_fallbacks += 1
                if self.syntax_fallbacks == 1:
                    logger.warning(
                        "no parse for example %r; falling back to positional distance",
                        example.text[:40],
                    )
            else:
                distance = partial(
                    syntactic_distance, tree, align_tokens_to_words(tokens, tree.forms)
                )
        columns = [
            position_weights([float(n)] + [distance(i, range(a.start, a.end)) for i in range(n)],
                             self.config.alpha, n)
            for a in example.aspects
        ]
        return np.stack(columns + [np.ones((n + 1, 1))])

    def global_context(self, example: Example) -> Tensor:
        tokens = self._context_tokens(example)
        ids = np.concatenate([[self.vocab.cls_id], self.vocab.encode(tokens)])
        return encode(ids.astype(np.int64), self.encoder)

    def forward_example(self, example: Example, trees=None) -> list[Tensor]:
        """Probability rows, one per aspect of the example."""
        cfg = self.config
        if not example.aspects:
            return []
        tokens = self._context_tokens(example)
        if cfg.variant == "lsa_p":
            pooled = None
            spc = [build_spc_input(tokens, list(a.term), self.vocab, cfg.max_len)
                   for a in example.aspects]
            features = [
                self_attention_block(encode(ids, self.encoder), self.head.sa, cfg.heads,
                                     query_rows=1)
                for ids in spc
            ]
        else:
            hc = self.global_context(example)
            weights = self._position_weights(example, tokens, trees)
            stacked = aspect_feature_local(hc, weights, self.head.sa, cfg.heads)
            features = [ad.gather_rows(stacked, i) for i in range(len(example.aspects) + 1)]
            pooled = features.pop()
        dwa = None if cfg.no_dwa else self.dwa
        probs = []
        for t in range(len(example.aspects)):
            if cfg.backbone_only:  # each target sees only its own feature
                window = build_window([features[t]], 0, cfg.k)
            else:
                window = build_window(features, t, cfg.k)
            h_aw = apply_dwa(window, dwa, cfg.frozen_eta, sides=cfg.sides)
            h_o = project_window(h_aw, self.head)
            probs.append(classify(h_o, pooled, self.head))
        return probs
