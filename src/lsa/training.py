"""Training config, loss, the training loop with a two-group optimizer,
metrics, and the two sweeps (static side-weight grid, multi-seed)."""

from __future__ import annotations

import logging
from dataclasses import Field, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import NUM_CLASSES, DataError, Dataset, cluster_sizes, load_dataset, read_key_values
from .distance import load_parses
from .encoder import ConfigError, Vocabulary
from .optim import AdamW, ParamGroup
from .window import Model, ModelConfig

logger = logging.getLogger(__name__)


class NumericError(Exception):
    """Non-finite loss or other numeric failure during training."""


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def field_parser(f: Field):
    """The function that reads a value of config field ``f`` from its text
    in a config file or on the command line; it raises ValueError on a
    malformed value."""
    kind = f.type  # a string: annotations are postponed

    def parse(text: str):
        if text == "" and kind.endswith("| None"):
            return None
        if kind.startswith("tuple"):
            return tuple(float(x) for x in text.split(","))
        if kind == "bool":
            if text.lower() not in _BOOLS:
                raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {text!r}")
            return _BOOLS[text.lower()]
        return {"int": int, "float": float}.get(kind.split(" ")[0], str)(text)

    parse.__name__ = f.name  # argparse names it in "invalid <name> value"
    return parse


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
        for name in ("batch", "epochs"):
            if getattr(self, name) < 0 or (name == "batch" and self.batch < 1):
                raise ConfigError(f"{name} must be positive")
        for name in ("encoder_lr", "eta_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lambda_reg", "lambda_eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ConfigError("holdout_fraction must be in (0, 1)")
        super().validate()

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        known = {f.name: f for f in fields(cls)}
        typed = {}
        for key, value in read_key_values(path, ConfigError).items():
            try:
                typed[key] = field_parser(known[key])(value) if key in known else value
            except ValueError as e:
                raise ConfigError(f"{path}: bad value for {key}: {e}")
        return cls.from_dict(typed)


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
    golds = list(golds)
    preds = list(preds)
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
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class.append(ClassScores(float(precision), float(recall), float(f1)))
    accuracy = float(np.trace(confusion) / len(golds))
    macro_f1 = float(sum(cs.f1 for cs in per_class) / NUM_CLASSES)
    return Metrics(accuracy, macro_f1, per_class, len(golds))


# ---------------------------------------------------------------------------
# Loss


def total_loss(
    probs: Tensor,
    golds,
    main_params: dict[str, Tensor],
    eta_values: tuple[float, float],
    lambda_reg: float,
    lambda_eta: float,
) -> Tensor:
    """Cross-entropy summed over the batch's probability rows (pairs, C)
    and gold classes (pairs,), plus both L2 terms.

    The regularizers enter the reported value (recomputed from current
    parameter values every step); their gradient path is the optimizer's
    decoupled weight decay, so only the cross-entropy part backpropagates.
    """
    if not len(golds):
        raise ValueError("empty batch")
    total = ad.cross_entropy(probs, golds)
    reg = lambda_reg * sum(
        float(np.vdot(t.values, t.values)) for t in main_params.values()
    )
    reg += lambda_eta * (eta_values[0] ** 2 + eta_values[1] ** 2)
    return ad.add(total, Tensor(np.array([reg])))


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
# Evaluation slices


def _pair_in_slice(example, aspect_idx, slice_: str | None) -> bool:
    if slice_ is None:
        return True
    if slice_ == "implicit":
        return example.aspects[aspect_idx].implicit
    if slice_ == "explicit":
        return not example.aspects[aspect_idx].implicit
    if slice_ == "mono":
        return len(example.aspects) == 1
    if slice_.startswith("cluster"):
        label = slice_[len("cluster") :]
        if label == "5+":
            return cluster_sizes(example)[aspect_idx] >= 5
        if label.isdecimal():
            return cluster_sizes(example)[aspect_idx] == int(label)
    raise ConfigError(f"unknown slice {slice_!r}")


def evaluate(
    model: Model, dataset: Dataset, trees=None, slice_: str | None = None
) -> Metrics:
    """Metrics over (example, aspect) pairs, optionally filtered to a slice.
    The examples with a pair in the slice are forwarded in groups of
    ``BATCH_PAIRS`` pairs."""
    wanted = [
        [_pair_in_slice(example, j, slice_) for j in range(len(example.aspects))]
        for example in dataset.examples
    ]
    examples = [ex for ex, keep in zip(dataset.examples, wanted) if any(keep)]
    keep = np.array([k for mask in wanted if any(mask) for k in mask], dtype=bool)
    if not keep.any():
        if slice_ is None:
            raise DataError("the dataset has no (example, aspect) pair")
        raise DataError(f"slice {slice_!r} selects no pairs")
    preds = np.concatenate([
        np.argmax(model.forward(group, trees).values, axis=1)
        for group in pair_batches(examples, BATCH_PAIRS)
    ])
    golds = [a.polarity.index for ex in examples for a in ex.aspects]
    return compute_metrics(np.array(golds)[keep].tolist(), preds[keep].tolist())


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainResult:
    model: Model
    vocab: Vocabulary
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


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {name: t.values.copy() for name, t in model.named_parameters().items()}


def _restore(model: Model, snapshot: dict[str, np.ndarray]) -> None:
    for name, t in model.named_parameters().items():
        t.values[...] = snapshot[name]


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

    groups = [ParamGroup(model.main_parameters(), config.encoder_lr, config.lambda_reg)]
    eta_params = model.eta_parameters()
    if eta_params:
        groups.append(ParamGroup(eta_params, config.eta_lr, config.lambda_eta))
    optimizer = AdamW(groups)

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
                probs = model.forward(group, trees)
                loss = total_loss(
                    probs,
                    golds,
                    model.main_parameters(),
                    model.eta_values(),
                    config.lambda_reg,
                    config.lambda_eta,
                )
            if not np.isfinite(loss.values[0]):
                raise NumericError(f"non-finite loss at step {step + 1}")
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            step += 1
            trajectory.append((step, *model.eta_values()))
            loss_sum += float(loss.values[0])
            pair_count += len(golds)
            epoch_golds.extend(golds.tolist())
            epoch_preds.extend(np.argmax(probs.values, axis=1).tolist())

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
            best = (valid_metrics.accuracy, epoch, _snapshot(model))

    best_epoch = 0
    if best is not None:
        best_epoch = best[1]
        _restore(model, best[2])

    final = None
    if config.epochs > 0:
        if test_set is not None:
            final = evaluate(model, test_set, trees)
            metrics_rows.append((best_epoch, "test", final.accuracy, final.macro_f1))
        else:
            final = evaluate(model, valid_set, trees)

    return TrainResult(
        model=model,
        vocab=vocab,
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
