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
copies of the target feature, never zeros.  ``ModelConfig.slot_offsets``
describes it as one array of slot offsets from the target, -k..k, or one
side of it under ``la_only``/``ra_only``; k = 0 is the plain backbone, one
slot and no side weight.  Two scalars re-weight the side slots, the left
ones at negative offsets and the right ones at positive offsets: learned
from 1, frozen constants, or the constant 1 (``Model.side_weights``).  A
model holds a learned or frozen side weight only for a side that has a slot.

``Model.forward`` runs a whole batch as one tensor forward.  The host
work of each example is done once, by ``Model.forward_example`` through
``Model.host_inputs``: the token ids of its context, encoded once, and
the parse and its alignment (``lsa_s``), or under ``lsa_p`` one SPC
input per aspect built from those ids, ``[CLS] context [SEP] term
[SEP]``.  ``Model.logits`` runs the tensor forward over those inputs.
One encoder call covers every sequence of the batch, on its real tokens
only: the hidden states are packed, one row per token, and ``valid``
records where each sequence's tokens sit.  The position weights of the
whole batch come from one vectorized pass (``position_weights``) over
the rows of the aspect tokens only: token distances |i - j|, or tree
distances from one climb of the forest of the batch's parses, summed per
aspect and divided once.  One ``head.sa`` call on the packed rows gives
every feature row, one per row of position weights: in
``lsa_t``/``lsa_s`` one row per aspect plus one pooled row per example,
in ``lsa_p`` one unit row per SPC input.  ``build_window`` turns the
rows into a (pairs, slots) index array that never leaves an example, and
the DWA scaling, the projection, the classifier and the loss each run
once over all pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import NUM_CLASSES, DataError, Example, check_domains, field_value, in_domain
from .distance import DependencyTree, align_tokens_to_words, syntactic_distance
from .encoder import (
    BlockParams,
    ConfigError,
    EncoderParams,
    Vocabulary,
    encode,
    self_attention_block,
)

logger = logging.getLogger(__name__)

VARIANTS = ("lsa_p", "lsa_t", "lsa_s")
FIXED_ALPHA = 3.0


def position_weight(d_i, alpha: float, n) -> np.ndarray:
    """Weight in [0, 1], elementwise over an array of distances: 1 inside
    the distance threshold, then a linear decay with slope 1/n, floored at 0.
    ``n`` may be an array that broadcasts against the distances."""
    d_i = np.asarray(d_i, dtype=np.float64)
    return np.where(d_i <= alpha, 1.0, np.maximum(0.0, 1.0 - (d_i - alpha) / n))


@dataclass
class ExampleInputs:
    """The host-side inputs of one example's forward."""

    aspects: int
    sequences: list[np.ndarray]  # token ids: the context, or one SPC input per aspect (lsa_p)
    # the aspects' token spans [start, end) in the context; None under lsa_p
    spans: list[tuple[int, int]] | None = None
    # lsa_s: the parse and the word of each context token; None for token distance
    parse: tuple[DependencyTree, np.ndarray] | None = None


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


def position_weights(
    inputs: list[ExampleInputs], valid: np.ndarray, alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(source, scale): the sequence and the (rows, L) position weights of
    every feature row of a batch, zero past the sequence's real positions.

    ``valid`` (S, L) marks the real positions of the inputs' sequences.  A
    context of n tokens gives one row per aspect, then an all-ones row for
    the pooled global feature; an SPC input gives one all-ones row.  An
    aspect's row is ``position_weight`` of the leading marker's distance n
    and of each token's mean distance to the aspect's tokens: the tree
    distance between their words under the example's parse, else the token
    distance |i - j|.  Only the aspect tokens' rows are computed, as exact
    integers, and each aspect's sum is divided once.
    """
    lengths = valid.sum(axis=1)
    if [len(ids) for x in inputs for ids in x.sequences] != lengths.tolist():
        raise ConfigError(
            f"inputs of sequence lengths {[[len(ids) for ids in x.sequences] for x in inputs]} "
            f"for valid positions of lengths {lengths.tolist()}"
        )
    if inputs[0].spans is None:  # lsa_p: one unit row per SPC input
        source = np.arange(len(valid))
        return source, valid[source]
    counts = np.array([len(x.spans) for x in inputs])
    source = np.repeat(np.arange(len(inputs)), counts + 1)
    example = np.repeat(np.arange(len(inputs)), counts)  # the example of each aspect
    starts, ends = np.array([span for x in inputs for span in x.spans]).T
    sizes = ends - starts
    first = np.cumsum(sizes) - sizes  # each aspect's first row of aspect tokens
    token = np.arange(sizes.sum()) + np.repeat(starts - first, sizes)
    width = valid.shape[1] - 1
    # each aspect token's row of distances to the context's tokens
    table = np.abs(token[:, None] - np.arange(width))
    parses = [x.parse for x in inputs if x.parse is not None]
    if parses:
        parsed = np.array([x.parse is not None for x in inputs])
        on_tree = np.repeat(parsed[example], sizes)  # the aspect tokens of parsed examples
        sentence = np.repeat((np.cumsum(parsed) - 1)[example], sizes)[on_tree]
        trees, words = zip(*parses)
        tree = syntactic_distance(trees, words, sentence, token[on_tree])
        table[on_tree, :tree.shape[1]] = tree
    n = lengths[example] - 1
    distances = np.empty((len(example), width + 1))
    distances[:, 0] = n  # the leading marker
    distances[:, 1:] = np.add.reduceat(table, first, axis=0) / sizes[:, None]
    weights = np.ones((len(source), width + 1))
    weights[np.arange(len(example)) + example] = position_weight(distances, alpha, n[:, None])
    return source, np.where(valid[source], weights, 0.0)


def aspect_feature_local(
    hidden: Tensor, valid: np.ndarray, inputs: list[ExampleInputs], alpha: float,
    sa: BlockParams, heads: int,
) -> Tensor:
    """The first row of ``head.sa`` for every feature row of a batch: (rows, d).

    ``hidden`` (N, d) packs the batch's encoded sequences and ``valid``
    (S, L) marks their real positions.  Each feature row is the feature of
    one sequence under one row of ``position_weights``: ``head.sa`` sees
    the hidden states scaled by those weights.  The scaled copies are never
    formed; ``head.sa`` projects each sequence's keys and values once and
    scales them per row.  The weights are functions of integer positions
    only and carry no gradient.
    """
    source, scale = position_weights(inputs, valid, alpha)
    return self_attention_block(hidden, sa, heads, valid, source, scale)


def build_window(starts, counts, offsets: np.ndarray) -> np.ndarray:
    """The feature rows of every (example, aspect) pair's window, as a
    (pairs, slots) index array, pairs in order.

    Example ``e`` owns the ``counts[e]`` rows from ``starts[e]``, one per
    aspect.  Slot ``j`` of a window holds the row ``offsets[j]`` aspects
    from the target (``ModelConfig.slot_offsets``).  A neighbour missing in
    the example is padded with the target's own row, so no index leaves it.
    """
    counts = np.asarray(counts, dtype=np.int64)
    first = np.repeat(np.asarray(starts, dtype=np.int64), counts)
    last = first + np.repeat(counts, counts) - 1
    target = first + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    index = target[:, None] + offsets
    missing = (index < first[:, None]) | (index > last[:, None])
    return np.where(missing, target[:, None], index)


def apply_dwa(
    features: Tensor, window: np.ndarray, offsets: np.ndarray, eta: tuple[Tensor, Tensor] | None,
) -> Tensor:
    """The window's feature rows side by side, (pairs, slots * d): the rows
    of ``features`` (R, d) that ``window`` (pairs, slots) indexes, a slot at
    a negative offset scaled by ``eta[0]`` and one at a positive offset by
    ``eta[1]``.  ``eta=None`` means the constant 1."""
    h = ad.gather_rows(features, window)
    slots = len(offsets)
    if eta is not None:
        one = Tensor(np.ones(1))
        parts = [eta[0] if o < 0 else eta[1] if o > 0 else one for o in offsets]
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
    """Logit rows (pairs, C); ``ad.cross_entropy`` applies the softmax.
    The pair-encoded variant drops the global feature and classifies from
    the window projection alone."""
    z = h_o if pooled_global is None else ad.concat([h_o, pooled_global], axis=1)
    return ad.matmul(z, head.w_dec, head.b_dec)


@dataclass(frozen=True)
class ModelConfig:
    """The model's settings, checked when built: a value outside its field's
    domain, or a combination no model can take, is a ConfigError."""

    variant: str = "lsa_t"
    k: int = in_domain("non-negative", 1)
    alpha: float = in_domain("non-negative", FIXED_ALPHA)
    max_len: int = in_domain("positive", 80)
    d_model: int = in_domain("positive", 64)
    layers: int = in_domain("positive", 2)
    heads: int = in_domain("positive", 4)
    ffn_mult: int = in_domain("positive", 4)
    no_dwa: bool = False
    la_only: bool = False
    ra_only: bool = False
    frozen_eta: tuple[float, float] | None = None

    @classmethod
    def from_dict(cls, d: dict):
        """The config with the fields that ``d`` sets and the defaults of
        the others.  Every value is read by ``corpus.field_value``: a string
        is the field's text form, and any other value must have the field's
        JSON type.  An unknown key or a bad value is a ``ConfigError`` that
        names it.  A legacy ``backbone_only`` key is dropped if it is false."""
        kinds = {f.name: f.type for f in fields(cls)} | {"backbone_only": "bool"}
        unknown = set(d) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for key, raw in d.items():
            try:
                values[key] = field_value(kinds[key], raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {key}: {e}")
        if values.pop("backbone_only", False):
            raise ConfigError("backbone_only is gone: the backbone is k = 0")
        return cls(**values)

    def __post_init__(self) -> None:
        check_domains(self, ConfigError)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        if self.la_only + self.ra_only > min(self.k, 1):  # at k = 0 each is the backbone
            raise ConfigError("la_only and ra_only are mutually exclusive and need k >= 1")
        if self.frozen_eta is not None:
            if not self.no_dwa or self.k == 0:  # at k = 0 there is no side slot to weight
                raise ConfigError("frozen_eta requires no_dwa and k >= 1")
            if len(self.frozen_eta) != 2:
                raise ConfigError("frozen_eta takes two values, eta_l,eta_r")
        if self.no_dwa and self.k == 0:  # at k = 0 it is the backbone again
            raise ConfigError("no_dwa needs k >= 1")

    @property
    def slot_offsets(self) -> np.ndarray:
        """Each window slot's offset from the target aspect, left to right."""
        return np.arange(-(0 if self.ra_only else self.k), (0 if self.la_only else self.k) + 1)


class Model:
    """Encoder + aggregation window + output head for one variant."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary, rng: np.random.Generator):
        self.config = config
        self.vocab = vocab
        d, ffn = config.d_model, config.d_model * config.ffn_mult
        self.encoder = EncoderParams.init(
            len(vocab), d, config.layers, config.heads, config.max_len, ffn, rng
        )
        dec_in = d if config.variant == "lsa_p" else 2 * d
        offsets = config.slot_offsets
        self.head = OutputHead.init(d, ffn, len(offsets), dec_in, rng)
        # a side weight for each side that has a slot: learned from 1, or a frozen constant
        sides = {"dwa.eta_l": offsets.min() < 0, "dwa.eta_r": offsets.max() > 0}
        self.eta = {} if config.no_dwa else {n: ad.parameter(np.ones(1)) for n in sides if sides[n]}
        self.frozen_eta = {n: eta for n, eta in zip(sides, config.frozen_eta or ()) if sides[n]}
        self.syntax_fallbacks = 0
        self._warned: set[str] = set()  # the fallback reasons already logged

    # -- parameters -------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        return self.main_parameters() | self.eta

    def main_parameters(self) -> dict[str, Tensor]:
        return dict(self.encoder.named()) | dict(self.head.named())

    def eta_parameters(self) -> dict[str, Tensor]:
        """The learned side weights some window slot uses."""
        return dict(self.eta)

    def side_weights(self) -> tuple[Tensor, Tensor] | None:
        """The (left, right) side weights: learned, the frozen constants,
        or None for the constant 1 or a window with no side slot (k = 0).
        A side with no slot reads as the constant 1."""
        # a config has frozen weights only under no_dwa, so at most one dict is not empty
        weights = self.eta | {n: Tensor(np.array([eta])) for n, eta in self.frozen_eta.items()}
        if not weights:
            return None
        one = Tensor(np.ones(1))
        return weights.get("dwa.eta_l", one), weights.get("dwa.eta_r", one)

    def eta_values(self) -> tuple[float, float]:
        eta = self.side_weights()
        return (1.0, 1.0) if eta is None else (float(eta[0].values[0]), float(eta[1].values[0]))

    # -- per-example forward ----------------------------------------------

    def _context_tokens(self, example: Example) -> list[str]:
        """The example's first ``max_len - 1`` tokens, room for the leading
        marker; a DataError names the first aspect that extends past them."""
        limit = self.config.max_len - 1
        tokens = example.tokens[:limit]
        if example.aspects and example.aspects[-1].end > len(tokens):  # sorted by span
            a = next(a for a in example.aspects if a.end > len(tokens))
            raise DataError(f"aspect [{a.start}, {a.end}) extends past the {limit}-token "
                            "context limit")
        return tokens

    def _parse(self, example: Example, n: int, trees) -> tuple[DependencyTree, np.ndarray] | None:
        """``lsa_s``: the example's parse and the word of each of its first n
        tokens.  All of the example's tokens, also those past the context,
        are aligned to the parse's forms.  None, counted in
        ``syntax_fallbacks``, when the example has no parse or its tokens do
        not align: its weights then come from token distance."""
        tree = (trees or {}).get(example.parse_ref)
        reason, detail = "no parse", ""
        if tree is not None:
            try:
                return tree, align_tokens_to_words(example.tokens, tree.forms)[:n]
            except DataError as err:
                reason, detail = "tokens that do not align with the parse", f" ({err})"
        self.syntax_fallbacks += 1
        if reason not in self._warned:
            self._warned.add(reason)
            logger.warning(
                "%s for example %r%s; falling back to positional distance",
                reason, example.text[:40], detail,
            )
        return None

    def forward_example(self, example: Example, trees=None) -> ExampleInputs:
        """The host-side inputs of one example's forward: token ids of the
        context (``lsa_t``/``lsa_s``) with its aspect spans and parse, or of
        one SPC input per aspect (``lsa_p``), ``[CLS] context [SEP] term
        [SEP]`` with the context cut from the right, the term never.  The
        context is encoded once.  An aspect that does not fit the context or
        its SPC input is a DataError."""
        tokens = self._context_tokens(example)
        ids = self.vocab.encode(tokens)
        cls, sep = [self.vocab.cls_id], [self.vocab.sep_id]
        aspects = len(example.aspects)
        if self.config.variant == "lsa_p":
            spc = []
            for a in example.aspects:  # a's term is ids[a.start:a.end], as it fits the context
                budget = self.config.max_len - 3 - len(a.term)
                if budget < 0:
                    raise DataError(f"aspect of {len(a.term)} tokens cannot fit max length "
                                    f"{self.config.max_len}")
                spc.append(np.concatenate([cls, ids[:budget], sep, ids[a.start:a.end], sep]))
            return ExampleInputs(aspects, spc)
        spans = [(a.start, a.end) for a in example.aspects]
        parse = self._parse(example, len(tokens), trees) if self.config.variant == "lsa_s" else None
        return ExampleInputs(aspects, [np.concatenate([cls, ids])], spans, parse)

    def global_context(self, inputs: list[ExampleInputs]) -> tuple[Tensor, np.ndarray]:
        """One encoder call over every sequence of a batch: the hidden
        states (N, d) of their N real tokens, packed in order, and the
        (S, L) mask of those tokens, L the longest sequence."""
        sequences = [ids for x in inputs for ids in x.sequences]
        lengths = np.array([len(ids) for ids in sequences])
        valid = np.arange(lengths.max()) < lengths[:, None]
        return encode(np.concatenate(sequences), self.encoder, valid), valid

    def host_inputs(self, examples, trees=None, path="dataset", index=None) -> list[ExampleInputs]:
        """``forward_example`` of each of ``examples`` that has a pair, in
        order.  ``examples[i]`` is example ``index[i]`` (by default i) of the
        file at ``path``, and a DataError of its inputs names both."""
        inputs = []
        for i, ex in enumerate(examples):
            if ex.aspects:
                try:
                    inputs.append(self.forward_example(ex, trees))
                except DataError as e:
                    raise DataError(f"{path}: examples[{i if index is None else index[i]}]: {e}")
        return inputs

    def forward(self, examples: list[Example], trees=None) -> Tensor:
        """Logit rows (pairs, C) of every (example, aspect) pair of
        ``examples``, in order: ``logits`` of their ``host_inputs``.  A
        pair's prediction is the argmax of its row."""
        inputs = self.host_inputs(examples, trees)
        if not inputs:
            raise ValueError("no (example, aspect) pair to forward")
        return self.logits(inputs)

    def logits(self, inputs: list[ExampleInputs]) -> Tensor:
        """Logit rows (pairs, C) of every pair of the examples whose host
        inputs are ``inputs``, in order, from one tensor forward over them."""
        cfg = self.config
        hidden, valid = self.global_context(inputs)
        features = aspect_feature_local(hidden, valid, inputs, cfg.alpha, self.head.sa, cfg.heads)
        counts = np.array([x.aspects for x in inputs])
        rows = counts if cfg.variant == "lsa_p" else counts + 1  # + the pooled row
        starts = np.cumsum(rows) - rows
        pooled = None
        if cfg.variant != "lsa_p":
            # each example's pooled row follows its aspects; gathered before
            # apply_dwa's rows, as features' gradient sums in tape order
            pooled = ad.gather_rows(features, np.repeat(starts + counts, counts))
        offsets = cfg.slot_offsets
        window = build_window(starts, counts, offsets)
        h_aw = apply_dwa(features, window, offsets, self.side_weights())
        return classify(project_window(h_aw, self.head), pooled, self.head)
