"""Training config, loss, the training loop with a two-group optimizer,
metrics, and the two sweeps (static side-weight grid, multi-seed).
Evaluation predicts each (example, aspect) pair once; a slice of ``SLICES``
is a filter over those predictions, by the attributes of each pair."""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import (CLUSTER_LABELS, NUM_CLASSES, DataError, Dataset, cluster_label,
                     cluster_sizes, load_dataset, read_key_values)
from .distance import load_parses
from .encoder import ConfigError, Vocabulary
from .optim import AdamW, ParamGroup
from .window import Model, ModelConfig

logger = logging.getLogger(__name__)


class NumericError(Exception):
    """Non-finite loss or other numeric failure during training."""


BATCH_PAIRS = 16  # the default training batch, and evaluate()'s forward group


@dataclass
class TrainConfig(ModelConfig):
    """The model's settings (inherited from ``ModelConfig``) plus those of
    the optimizer, the schedule and the data."""

    batch: int = BATCH_PAIRS
    encoder_lr: float = 1e-3
    eta_lr: float = 0.01
    lambda_reg: float = 1e-5
    lambda_eta: float = 1e-5
    epochs: int = 20
    seed: int = 0
    train_path: str = ""
    valid_path: str | None = None
    test_path: str | None = None
    parse_path: str | None = None
    holdout_fraction: float = 0.1

    def validate(self) -> None:
        if not self.train_path:
            raise ConfigError("train_path is required")
        for name in ("batch", "encoder_lr", "eta_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("epochs", "lambda_reg", "lambda_eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ConfigError("holdout_fraction must be in (0, 1)")
        super().validate()

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
    """Accuracy and macro-F1 over class indices; absent classes score 0."""
    golds, preds = list(golds), list(preds)
    if not golds or len(golds) != len(preds):
        raise ValueError("golds and preds must be equal-length and non-empty")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for g, p in zip(golds, preds):
        confusion[g][p] += 1
    per_class = []
    for c in range(NUM_CLASSES):
        tp = confusion[c][c]
        precision = tp / confusion[:, c].sum() if confusion[:, c].sum() else 0.0
        recall = tp / confusion[c].sum() if confusion[c].sum() else 0.0
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
    eta_values: tuple[float, float],
    lambda_reg: float,
    lambda_eta: float,
) -> tuple[Tensor, float]:
    """The cross-entropy summed over the batch's logit rows (pairs, C) and
    gold classes (pairs,), as a tensor, and both L2 terms, as a float.

    The regularizers are reported only (recomputed from current parameter
    values every step); their gradient path is the optimizer's decoupled
    weight decay, so only the cross-entropy backpropagates.
    """
    if not len(golds):
        raise ValueError("empty batch")
    reg = lambda_reg * sum(
        float(np.vdot(t.values, t.values)) for t in main_params.values()
    )
    reg += lambda_eta * (eta_values[0] ** 2 + eta_values[1] ** 2)
    return ad.cross_entropy(logits, golds), reg


def pair_batches(examples, pairs: int):
    """Consecutive groups of whole examples, each closed as soon as it
    holds at least ``pairs`` (example, aspect) pairs."""
    group, n_pairs = [], 0
    for example in examples:
        group.append(example)
        n_pairs += len(example.aspects)
        if n_pairs >= pairs:
            yield group
            group, n_pairs = [], 0
    if group:
        yield group


# ---------------------------------------------------------------------------
# Evaluation


class PairAttributes(NamedTuple):
    """What the slices read of an (example, aspect) pair."""
    implicit: bool
    aspects: int  # in its example
    cluster: str  # the ``cluster_label`` of its same-polarity run


# name -> whether a pair, by its attributes, is in the slice; in eval.csv's order
SLICES = {
    "implicit": lambda pair: pair.implicit,
    "explicit": lambda pair: not pair.implicit,
    "mono": lambda pair: pair.aspects == 1,
    **{f"cluster{label}": lambda pair, label=label: pair.cluster == label
       for label in CLUSTER_LABELS},
}


def predict(model: Model, dataset: Dataset, trees=None) -> tuple[np.ndarray, np.ndarray]:
    """The gold and the predicted class of every (example, aspect) pair, in
    dataset order.  The examples with a pair are forwarded in groups of
    ``BATCH_PAIRS`` pairs."""
    examples = [ex for ex in dataset.examples if ex.aspects]
    if not examples:
        raise DataError("the dataset has no (example, aspect) pair")
    preds = [np.argmax(model.forward(group, trees).values, axis=1)
             for group in pair_batches(examples, BATCH_PAIRS)]
    golds = np.array([a.polarity.index for ex in examples for a in ex.aspects])
    return golds, np.concatenate(preds)


def evaluate(model: Model, dataset: Dataset, trees=None) -> Metrics:
    """Metrics over every (example, aspect) pair."""
    golds, preds = predict(model, dataset, trees)
    return compute_metrics(golds.tolist(), preds.tolist())


def evaluate_slices(model: Model, dataset: Dataset, trees=None) -> dict[str, Metrics]:
    """Metrics over every pair ("all"), then over each of ``SLICES`` that
    selects a pair, in table order, from one prediction per pair."""
    golds, preds = predict(model, dataset, trees)
    pairs = [PairAttributes(a.implicit, len(ex.aspects), cluster_label(size))
             for ex in dataset.examples for a, size in zip(ex.aspects, cluster_sizes(ex))]
    selected = {"all": np.ones(len(golds), dtype=bool)} | {
        name: np.array([in_slice(pair) for pair in pairs], dtype=bool)
        for name, in_slice in SLICES.items()}
    return {name: compute_metrics(golds[keep].tolist(), preds[keep].tolist())
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


def _load_splits(config: TrainConfig):
    train = load_dataset(config.train_path)
    valid = load_dataset(config.valid_path) if config.valid_path else None
    test = load_dataset(config.test_path) if config.test_path else None
    trees = load_parses(config.parse_path) if config.parse_path else None
    return train, valid, test, trees


def train(config: TrainConfig) -> TrainResult:
    """Deterministic training under (config, seed); the best checkpoint by
    validation accuracy is retained (ties resolved to the lower epoch)."""
    config.validate()
    train_set, valid_set, test_set, trees = _load_splits(config)
    rng = np.random.Generator(np.random.PCG64(config.seed))

    if valid_set is None:
        order = rng.permutation(len(train_set.examples))
        n_hold = max(1, int(round(config.holdout_fraction * len(order))))
        hold = set(order[:n_hold].tolist())
        valid_set = Dataset([train_set.examples[i] for i in sorted(hold)])
        train_set = Dataset(
            [ex for i, ex in enumerate(train_set.examples) if i not in hold]
        )
    for split, data in (("train", train_set), ("valid", valid_set), ("test", test_set)):
        if data is not None and not any(ex.aspects for ex in data.examples):
            raise DataError(f"the {split} split has no (example, aspect) pair")

    vocab = Vocabulary.build(ex.tokens for ex in train_set.examples)
    model = Model(config.model_config(), vocab, rng)

    optimizer = AdamW([  # the eta group is empty when no side weight is learned
        ParamGroup(model.main_parameters(), config.encoder_lr, config.lambda_reg),
        ParamGroup(model.eta_parameters(), config.eta_lr, config.lambda_eta),
    ])

    trajectory = [(0, *model.eta_values())]
    metrics_rows: list[tuple[int, str, float, float]] = []
    epoch_losses: list[float] = []
    best = None  # (acc, epoch, snapshot)
    step = 0

    train_examples = [ex for ex in train_set.examples if ex.aspects]
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(train_examples))
        epoch_golds, epoch_preds = [], []
        loss_sum, pair_count = 0.0, 0
        for group in pair_batches([train_examples[i] for i in perm], config.batch):
            golds = np.array([a.polarity.index for ex in group for a in ex.aspects])
            tape = ad.Tape()
            with tape:
                logits = model.forward(group, trees)
                ce, reg = total_loss(
                    logits,
                    golds,
                    model.main_parameters(),
                    model.eta_values(),
                    config.lambda_reg,
                    config.lambda_eta,
                )
            loss = float(ce.values[0]) + reg
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step + 1}")
            optimizer.zero_grad()
            tape.backward(ce)
            optimizer.step()
            step += 1
            trajectory.append((step, *model.eta_values()))
            loss_sum += loss
            pair_count += len(golds)
            epoch_golds.extend(golds.tolist())
            epoch_preds.extend(np.argmax(logits.values, axis=1).tolist())

        epoch_losses.append(loss_sum / max(1, pair_count))
        train_metrics = compute_metrics(epoch_golds, epoch_preds)
        valid_metrics = evaluate(model, valid_set, trees)
        for split, m in (("train", train_metrics), ("valid", valid_metrics)):
            metrics_rows.append((epoch, split, m.accuracy, m.macro_f1))
        logger.info(
            "epoch %d: loss %.4f, valid acc %.4f", epoch, epoch_losses[-1],
            valid_metrics.accuracy,
        )
        if best is None or valid_metrics.accuracy > best[0]:
            snapshot = {name: t.values.copy() for name, t in model.named_parameters().items()}
            best = (valid_metrics.accuracy, epoch, snapshot)

    best_epoch = 0
    if best is not None:
        best_epoch = best[1]
        for name, t in model.named_parameters().items():
            t.values[...] = best[2][name]

    final = None
    if config.epochs > 0:
        if test_set is not None:
            final = evaluate(model, test_set, trees)
            metrics_rows.append((best_epoch, "test", final.accuracy, final.macro_f1))
        else:
            final = evaluate(model, valid_set, trees)

    return TrainResult(
        model=model,
        trajectory=trajectory,
        metrics_rows=metrics_rows,
        epoch_losses=epoch_losses,
        best_epoch=best_epoch,
        final_metrics=final,
    )


# ---------------------------------------------------------------------------
# Sweeps


def static_eta_sweep(config: TrainConfig, grid) -> list[tuple[float, float, float, float]]:
    """Train once per static (eta_l, 1 - eta_l) grid point with the
    learnable weighting disabled; rows are (eta_l, eta_r, acc, macro_f1)."""
    grid = list(grid)
    if not grid:
        raise ConfigError("empty eta grid")
    if config.epochs < 1:
        raise ConfigError("eta sweep needs at least one epoch")
    rows = []
    for eta_l in grid:
        eta_l = float(eta_l)
        m = train(replace(config, no_dwa=True, frozen_eta=(eta_l, 1.0 - eta_l))).final_metrics
        rows.append((eta_l, 1.0 - eta_l, m.accuracy, m.macro_f1))
    return rows


@dataclass
class SweepSummary:
    rows: list[tuple[int, float, float]]  # seed, acc, macro_f1
    median_acc: float
    iqr_acc: float
    median_f1: float
    iqr_f1: float


def seed_sweep(config: TrainConfig, seeds) -> SweepSummary:
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ConfigError("seed sweep needs at least two seeds")
    if config.epochs < 1:
        raise ConfigError("seed sweep needs at least one epoch")
    rows = []
    for seed in seeds:
        m = train(replace(config, seed=int(seed))).final_metrics
        rows.append((int(seed), m.accuracy, m.macro_f1))
    accs = np.array([r[1] for r in rows])
    f1s = np.array([r[2] for r in rows])

    def iqr(x):
        return float(np.percentile(x, 75) - np.percentile(x, 25))

    return SweepSummary(
        rows=rows,
        median_acc=float(np.median(accs)),
        iqr_acc=iqr(accs),
        median_f1=float(np.median(f1s)),
        iqr_f1=iqr(f1s),
    )
