"""Training config, loss, the training loop with a two-group optimizer,
and metrics.  Training builds each train, valid and test example's host
inputs and the pair table (``corpus.pair_table``) of each split once per
run, then forwards whole examples in batches of about
``TrainConfig.batch`` pairs, in a seeded order, against the golds of the
table.  Evaluation predicts each (example, aspect) pair once, forward
only, in groups of examples of similar length (``eval_groups``); a slice
of ``SLICES`` is a predicate over the columns of the pair table, and
selects its pairs' predictions."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (CLUSTER_LABELS, NUM_CLASSES, DataError, Dataset, in_domain, load_dataset,
                     pair_table, read_key_values)
from .distance import load_parses
from .encoder import ConfigError, Vocabulary
from .optim import AdamW, ParamGroup
from .window import ExampleInputs, Model, ModelConfig

logger = logging.getLogger(__name__)


class NumericError(Exception):
    """Non-finite loss or other numeric failure during training."""


BATCH_PAIRS = 16  # the default training batch
# the most padded tokens (sequences times the longest) of one of predict()'s
# forwards, unless a single example has more
EVAL_TOKENS = 512


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """The model's settings (inherited from ``ModelConfig``) plus those of
    the optimizer, the schedule and the data, all checked when built."""

    batch: int = in_domain("positive", BATCH_PAIRS)
    encoder_lr: float = in_domain("positive", 1e-3)
    eta_lr: float = in_domain("positive", 0.01)
    lambda_reg: float = in_domain("non-negative", 1e-5)
    lambda_eta: float = in_domain("non-negative", 1e-5)
    epochs: int = in_domain("non-negative", 20)
    seed: int = in_domain("non-negative", 0)
    train_path: str = ""
    valid_path: str | None = None
    test_path: str | None = None
    parse_path: str | None = None
    holdout_fraction: float = in_domain("in (0, 1)", 0.1)

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """The config of a file of ``key=value`` lines, read as text by
        ``from_dict``; a ConfigError names the file."""
        values = read_key_values(path, ConfigError)
        try:
            return cls.from_dict(values)
        except ConfigError as e:
            raise ConfigError(f"{path}: {e}")


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class ClassScores:
    precision: float
    recall: float
    f1: float


@dataclass
class Metrics:
    accuracy: float
    macro_f1: float
    per_class: list[ClassScores]
    n_examples: int


def compute_metrics(golds, preds) -> Metrics:
    """Accuracy and macro-F1 over class indices in [0, 3); absent classes score 0."""
    golds, preds = np.asarray(golds), np.asarray(preds)
    if not golds.size or golds.ndim != 1 or golds.shape != preds.shape:
        raise ValueError("golds and preds must be equal-length and non-empty")
    if not all(x.dtype.kind in "iu" and x.min() >= 0 and x.max() < NUM_CLASSES
               for x in (golds, preds)):
        raise ValueError(f"classes must be integers in [0, {NUM_CLASSES})")
    confusion = np.bincount(golds * NUM_CLASSES + preds, minlength=NUM_CLASSES**2)
    confusion = confusion.reshape(NUM_CLASSES, NUM_CLASSES)  # int64 counts
    predicted, actual = confusion.sum(axis=0), confusion.sum(axis=1)
    per_class = []
    for c in range(NUM_CLASSES):
        tp = confusion[c, c]
        precision = tp / predicted[c] if predicted[c] else 0.0
        recall = tp / actual[c] if actual[c] else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassScores(float(precision), float(recall), float(f1)))
    accuracy = float(np.trace(confusion) / len(golds))
    macro_f1 = float(sum(cs.f1 for cs in per_class) / NUM_CLASSES)
    return Metrics(accuracy, macro_f1, per_class, len(golds))


# ---------------------------------------------------------------------------
# Loss


def total_loss(
    logits: Tensor,
    golds,
    main_params: dict[str, Tensor],
    eta_params: dict[str, Tensor],
    lambda_reg: float,
    lambda_eta: float,
) -> tuple[Tensor, float]:
    """The cross-entropy summed over the batch's logit rows (pairs, C) and
    gold classes (pairs,), as a tensor, and both L2 terms, as a float: of
    the main parameters and of the learned side weights (none under
    ``no_dwa``; one for a one-sided window).

    The regularizers are reported only (recomputed from current parameter
    values every step); their gradient path is the optimizer's decoupled
    weight decay, so only the cross-entropy backpropagates.
    """
    if not len(golds):
        raise ValueError("empty batch")
    reg = lambda_reg * sum(
        float(np.vdot(t.values, t.values)) for t in main_params.values()
    )
    reg += lambda_eta * sum(float(t.values[0]) ** 2 for t in eta_params.values())
    return ad.cross_entropy(logits, golds), reg


def pair_batches(counts, pairs: int):
    """Consecutive groups of the indices of ``counts``, the (example,
    aspect) pairs of each example, each group closed as soon as it holds
    at least ``pairs`` pairs."""
    group, n_pairs = [], 0
    for i, count in enumerate(counts):
        group.append(i)
        n_pairs += count
        if n_pairs >= pairs:
            yield group
            group, n_pairs = [], 0
    if group:
        yield group


# ---------------------------------------------------------------------------
# Evaluation


# name -> which pairs of a ``corpus.Pairs`` table are in the slice, as a bool
# column; in eval.csv's order
SLICES = {
    "implicit": lambda pairs: pairs.implicit,
    "explicit": lambda pairs: ~pairs.implicit,
    "mono": lambda pairs: pairs.aspects == 1,
    **{f"cluster{label}": lambda pairs, bucket=bucket: pairs.cluster == bucket
       for bucket, label in enumerate(CLUSTER_LABELS)},
}


def eval_groups(inputs: list[ExampleInputs]) -> list[list[int]]:
    """The indices of ``inputs`` in the groups that ``predict`` forwards:
    sorted by their longest sequence (a stable sort) and cut into groups of
    at most ``EVAL_TOKENS`` padded tokens, a group's sequence count times
    its longest sequence.  An example with more makes a group alone."""
    longest = [max(len(ids) for ids in x.sequences) for x in inputs]
    groups, sequences = [], 0
    for i in sorted(range(len(inputs)), key=longest.__getitem__):
        sequences += len(inputs[i].sequences)
        if groups and sequences * longest[i] <= EVAL_TOKENS:
            groups[-1].append(i)
        else:
            groups.append([i])
            sequences = len(inputs[i].sequences)
    return groups


def predict(model: Model, inputs: list[ExampleInputs]) -> np.ndarray:
    """The predicted class of every pair of the examples whose host inputs
    are ``inputs``, in order.  ``Model.logits`` forwards them in the
    length-sorted groups of ``eval_groups``; a group's width changes a logit
    only in its last bits (the softmax's row sums run over it)."""
    counts = np.array([x.aspects for x in inputs])
    starts = np.cumsum(counts) - counts
    preds = np.empty(counts.sum(), dtype=np.intp)
    for group in eval_groups(inputs):
        pairs = np.concatenate([np.arange(starts[i], starts[i] + counts[i]) for i in group])
        preds[pairs] = np.argmax(model.logits([inputs[i] for i in group]).values, axis=1)
    return preds


def evaluate(model: Model, dataset: Dataset, trees=None) -> Metrics:
    """Metrics over every (example, aspect) pair."""
    return evaluate_slices(model, dataset, trees, slices={})["all"]


def evaluate_slices(model: Model, dataset: Dataset, trees=None, slices=SLICES,
                    path="dataset") -> dict[str, Metrics]:
    """Metrics over every pair ("all"), then over each of ``slices`` that
    selects a pair, in table order, from one prediction per pair: the host
    inputs of each example with a pair are built once
    (``Model.host_inputs``; ``path`` names the dataset), in dataset order,
    then ``predict`` forwards them."""
    pairs = pair_table(dataset.examples)
    if not len(pairs.gold):
        raise DataError("the dataset has no (example, aspect) pair")
    preds = predict(model, model.host_inputs(dataset.examples, trees, path))
    selected = {"all": np.ones(len(preds), dtype=bool)} | {
        name: in_slice(pairs) for name, in_slice in slices.items()}
    return {name: compute_metrics(pairs.gold[keep], preds[keep])
            for name, keep in selected.items() if keep.any()}


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    model: Model
    trajectory: list[tuple[int, float, float]]
    metrics_rows: list[tuple[int, str, float, float]]  # epoch, split, acc, macro_f1
    epoch_losses: list[float]
    best_epoch: int
    final_metrics: Metrics | None


def train(config: TrainConfig) -> TrainResult:
    """Deterministic training under (config, seed); the best checkpoint by
    validation accuracy is retained (ties resolved to the lower epoch).
    The final metrics are those of the test split under it, else the best
    epoch's validation metrics.  The host inputs of every split are built
    once, before the first step (none for no epoch), so an input fault in
    any split fails the run before it trains, and each example without a
    usable parse is counted once."""
    if not config.train_path:
        raise ConfigError("train_path is required")
    train_set = load_dataset(config.train_path)
    valid_set = load_dataset(config.valid_path) if config.valid_path else None
    test_set = load_dataset(config.test_path) if config.test_path else None
    trees = load_parses(config.parse_path) if config.parse_path else None
    rng = np.random.Generator(np.random.PCG64(config.seed))

    # the index in its file of each train and valid example; None: its own
    train_index = valid_index = None
    if valid_set is None:
        order = rng.permutation(len(train_set.examples))
        n_hold = max(1, int(round(config.holdout_fraction * len(order))))
        hold = set(order[:n_hold].tolist())
        valid_index = sorted(hold)
        train_index = [i for i in range(len(train_set.examples)) if i not in hold]
        valid_set = Dataset([train_set.examples[i] for i in valid_index])
        train_set = Dataset([train_set.examples[i] for i in train_index])
    for split, data in (("train", train_set), ("valid", valid_set), ("test", test_set)):
        if data is not None and not any(ex.aspects for ex in data.examples):
            raise DataError(f"the {split} split has no (example, aspect) pair")

    vocab = Vocabulary.build(ex.tokens for ex in train_set.examples)
    model = Model(config.model_config(), vocab, rng)

    trajectory = [(0, *model.eta_values())]
    metrics_rows: list[tuple[int, str, float, float]] = []
    epoch_losses: list[float] = []
    best = None  # (valid metrics, epoch, snapshot)
    step = 0

    # the optimizer, each example's host inputs and each split's golds,
    # built once per run, in dataset order
    if config.epochs:
        main_params, eta_params = model.main_parameters(), model.eta_parameters()
        optimizer = AdamW([  # the eta group is empty when no side weight is learned
            ParamGroup(main_params, config.encoder_lr, config.lambda_reg),
            ParamGroup(eta_params, config.eta_lr, config.lambda_eta),
        ])
        train_inputs = model.host_inputs(train_set.examples, trees, config.train_path,
                                         train_index)
        valid_inputs = model.host_inputs(valid_set.examples, trees,
                                         config.valid_path or config.train_path, valid_index)
        if test_set is not None:
            test_inputs = model.host_inputs(test_set.examples, trees, config.test_path)
        counts = np.array([x.aspects for x in train_inputs])
        example_golds = np.split(pair_table(train_set.examples).gold, np.cumsum(counts)[:-1])
        valid_golds = pair_table(valid_set.examples).gold
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_inputs))
        epoch_golds = np.concatenate([example_golds[i] for i in perm])  # in step order
        epoch_preds = np.empty_like(epoch_golds)
        loss_sum, pair_count = 0.0, 0
        for batch in pair_batches(counts[perm], config.batch):
            group = perm[batch]
            golds = epoch_golds[pair_count:pair_count + counts[group].sum()]
            optimizer.zero_grad()
            tape = ad.Tape()
            with tape:
                logits = model.logits([train_inputs[i] for i in group])
                ce, reg = total_loss(logits, golds, main_params, eta_params,
                                     config.lambda_reg, config.lambda_eta)
            loss = float(ce.values[0]) + reg
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step + 1}")
            tape.backward(ce)
            optimizer.step()
            step += 1
            trajectory.append((step, *model.eta_values()))
            loss_sum += loss
            epoch_preds[pair_count:pair_count + len(golds)] = np.argmax(logits.values, axis=1)
            pair_count += len(golds)

        epoch_losses.append(loss_sum / max(1, pair_count))
        train_metrics = compute_metrics(epoch_golds, epoch_preds)
        valid_metrics = compute_metrics(valid_golds, predict(model, valid_inputs))
        for split, m in (("train", train_metrics), ("valid", valid_metrics)):
            metrics_rows.append((epoch, split, m.accuracy, m.macro_f1))
        logger.info(
            "epoch %d: loss %.4f, valid acc %.4f", epoch, epoch_losses[-1],
            valid_metrics.accuracy,
        )
        if best is None or valid_metrics.accuracy > best[0].accuracy:
            snapshot = {name: t.values.copy() for name, t in model.named_parameters().items()}
            best = (valid_metrics, epoch, snapshot)

    best_epoch, final = 0, None
    if best is not None:
        final, best_epoch, snapshot = best
        for name, t in model.named_parameters().items():
            t.values[...] = snapshot[name]
        if test_set is not None:
            final = compute_metrics(pair_table(test_set.examples).gold, predict(model, test_inputs))
            metrics_rows.append((best_epoch, "test", final.accuracy, final.macro_f1))

    return TrainResult(model, trajectory, metrics_rows, epoch_losses, best_epoch, final)
