"""Loss value, metrics, the training loop contracts, sweeps, checkpoints."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import lsa.autodiff as ad
from lsa.checkpoint import HEADER, MAGIC, checkpoint_bytes, load_checkpoint, save_checkpoint
from lsa.corpus import DataError, cluster_histogram, load_dataset
from lsa.encoder import ConfigError
from lsa.training import (
    TrainConfig,
    compute_metrics,
    evaluate,
    seed_sweep,
    static_eta_sweep,
    total_loss,
    train,
)

from util import FIXTURES, tiny_model, write_synth_corpus


def small_config(paths, **overrides):
    base = dict(
        variant="lsa_t",
        d_model=16,
        layers=1,
        heads=1,
        ffn_mult=2,
        epochs=1,
        seed=0,
        batch=8,
        train_path=paths["train"],
        test_path=paths.get("test"),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    spec, datasets, paths = write_synth_corpus(tmp, train=40, test=16)
    return spec, datasets, paths


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_zero_for_perfect_prediction():
    probs = ad.tensor(np.array([[1.0, 0.0, 0.0]]))
    loss = total_loss(probs, [0], {}, (1.0, 1.0), 0.0, 0.0)
    assert loss.item() == 0.0


def test_total_loss_eta_regularizer_value():
    probs = ad.tensor(np.array([[1.0, 0.0, 0.0]]))
    loss = total_loss(probs, [0], {}, (1.0, 1.0), 0.0, 1e-5)
    assert loss.item() == pytest.approx(2e-5, rel=1e-12)


def test_total_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(0)
    model = tiny_model()
    params = model.main_parameters()
    lam, lam_eta = 1e-4, 1e-5
    for _ in range(10):
        raw = rng.random((3, 3)) + 1e-3
        probs_np = raw / raw.sum(axis=1, keepdims=True)
        golds = [int(g) for g in rng.integers(0, 3, size=3)]
        loss = total_loss(ad.tensor(probs_np), golds, params, (0.9, 1.1), lam, lam_eta)
        expected = sum(-math.log(probs_np[i][golds[i]]) for i in range(3))
        expected += lam * sum(float((t.values ** 2).sum()) for t in params.values())
        expected += lam_eta * (0.9**2 + 1.1**2)
        assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_total_loss_backward_excludes_regularizer():
    """The reg terms are value-only; their gradient path is optimizer decay."""
    model = tiny_model()
    w = model.head.w_dec
    probs_np = np.array([[0.2, 0.3, 0.5]])
    tape = ad.Tape()
    with tape:
        loss = total_loss(
            ad.tensor(probs_np), [1], model.main_parameters(), (1.0, 1.0), 1.0, 1.0
        )
    tape.backward(loss)
    assert w.grad is None  # w never entered the traced computation


# ---------------------------------------------------------------------------
# metrics


def test_metrics_all_correct():
    m = compute_metrics([0, 1, 2], [0, 1, 2])
    assert m.accuracy == 1.0 and m.macro_f1 == 1.0


def test_metrics_hand_computed_case():
    # golds P,N,U; predictions all P
    m = compute_metrics([0, 1, 2], [0, 0, 0])
    assert m.accuracy == pytest.approx(1 / 3)
    assert m.macro_f1 == pytest.approx(0.5 / 3)
    assert m.per_class[0].precision == pytest.approx(1 / 3)
    assert m.per_class[1].f1 == 0.0


def test_metrics_against_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        golds = rng.integers(0, 3, size=n).tolist()
        preds = rng.integers(0, 3, size=n).tolist()
        m = compute_metrics(golds, preds)
        f1s = []
        for c in range(3):
            tp = sum(1 for g, p in zip(golds, preds) if g == c and p == c)
            fp = sum(1 for g, p in zip(golds, preds) if g != c and p == c)
            fn = sum(1 for g, p in zip(golds, preds) if g == c and p != c)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert m.macro_f1 == pytest.approx(sum(f1s) / 3)
        assert m.accuracy == pytest.approx(
            sum(g == p for g, p in zip(golds, preds)) / n
        )


def test_metrics_rejects_empty():
    with pytest.raises(ValueError):
        compute_metrics([], [])


# ---------------------------------------------------------------------------
# evaluate slices


def test_evaluate_implicit_slice_and_empty_error(corpus):
    _, datasets, paths = corpus
    cfg = small_config(paths)
    result = train(cfg)
    test_set = datasets["test"]
    full = evaluate(result.model, test_set)
    implicit = evaluate(result.model, test_set, slice_="implicit")
    assert implicit.n_examples < full.n_examples
    with pytest.raises(DataError, match="mono"):
        evaluate(result.model, test_set, slice_="mono")  # no mono examples here


def test_evaluate_unknown_slice(corpus):
    _, datasets, paths = corpus
    result = train(small_config(paths))
    with pytest.raises(ConfigError):
        evaluate(result.model, datasets["test"], slice_="bogus")


def test_evaluate_cluster_slices_match_histogram():
    model = load_checkpoint(FIXTURES / "mini_checkpoint.bin")
    dataset = load_dataset(FIXTURES / "mini.json")
    for label, count in cluster_histogram(dataset).labelled():
        if count:
            assert evaluate(model, dataset, slice_=f"cluster{label}").n_examples == count
        else:
            with pytest.raises(DataError):
                evaluate(model, dataset, slice_=f"cluster{label}")


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_returns_initialized_model(corpus):
    _, _, paths = corpus
    result = train(small_config(paths, epochs=0))
    assert result.trajectory == [(0, 1.0, 1.0)]
    assert result.metrics_rows == []
    assert result.best_epoch == 0


def test_training_deterministic_bitwise(corpus):
    _, _, paths = corpus
    cfg = small_config(paths, epochs=2)
    a = train(cfg)
    b = train(cfg)
    assert a.trajectory == b.trajectory
    assert a.metrics_rows == b.metrics_rows
    pa = {k: v.values for k, v in a.model.named_parameters().items()}
    pb = {k: v.values for k, v in b.model.named_parameters().items()}
    for k in pa:
        assert np.array_equal(pa[k], pb[k]), k


def test_trajectory_starts_at_exactly_one_one(corpus):
    _, _, paths = corpus
    result = train(small_config(paths, epochs=1))
    step0 = result.trajectory[0]
    assert step0 == (0, 1.0, 1.0)
    assert len(result.trajectory) >= 2  # recorded every step


def test_training_loss_decreases_on_coherency_corpus(tmp_path):
    _, _, paths = write_synth_corpus(tmp_path, train=120, test=20, seed=3)
    first, third = [], []
    for seed in range(5):
        cfg = small_config(paths, epochs=3, seed=seed, d_model=16)
        result = train(cfg)
        first.append(result.epoch_losses[0])
        third.append(result.epoch_losses[2])
    assert np.median(third) < np.median(first)


def test_eta_moves_during_dwa_training(corpus):
    _, _, paths = corpus
    result = train(small_config(paths, epochs=1))
    final = result.trajectory[-1]
    assert final[1] != 1.0 or final[2] != 1.0


def test_no_dwa_keeps_eta_constant(corpus):
    _, _, paths = corpus
    result = train(small_config(paths, epochs=1, no_dwa=True))
    assert {(l, r) for _, l, r in result.trajectory} == {(1.0, 1.0)}


def test_validation_holdout_when_no_valid_path(corpus):
    _, _, paths = corpus
    cfg = small_config(paths, epochs=1)
    result = train(cfg)
    splits = {row[1] for row in result.metrics_rows}
    assert splits == {"train", "valid", "test"}


# ---------------------------------------------------------------------------
# sweeps


def test_static_eta_sweep_rows_and_cross_path_equality(corpus):
    _, _, paths = corpus
    cfg = small_config(paths, epochs=1)
    rows = static_eta_sweep(cfg, [0.0, 0.5, 1.0])
    assert len(rows) == 3
    for eta_l, eta_r, _, _ in rows:
        assert eta_r == pytest.approx(1.0 - eta_l)
    direct = train(replace(cfg, no_dwa=True, frozen_eta=(0.5, 0.5)))
    assert rows[1][2] == direct.final_metrics.accuracy
    assert rows[1][3] == direct.final_metrics.macro_f1


def test_seed_sweep_rows_and_summary(corpus):
    _, _, paths = corpus
    cfg = small_config(paths, epochs=1)
    summary = seed_sweep(cfg, [0, 1, 0])  # duplicate seed -> duplicate metrics
    assert len(summary.rows) == 3
    assert summary.rows[0][1:] == summary.rows[2][1:]
    only = seed_sweep(cfg, [0, 0])
    assert only.iqr_acc == 0.0 and only.iqr_f1 == 0.0


def test_seed_sweep_needs_two_seeds(corpus):
    _, _, paths = corpus
    with pytest.raises(ConfigError):
        seed_sweep(small_config(paths), [0])


def test_iqr_definition_matches_percentiles():
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert float(np.median(vals)) == 3.0
    assert float(np.percentile(vals, 75) - np.percentile(vals, 25)) == 2.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_byte_exact(corpus, tmp_path):
    _, datasets, paths = corpus
    result = train(small_config(paths, epochs=1))
    path = tmp_path / "model.bin"
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path)
    assert checkpoint_bytes(loaded) == path.read_bytes()
    for (n1, p1), (n2, p2) in zip(
        result.model.named_parameters().items(), loaded.named_parameters().items()
    ):
        assert n1 == n2
        assert np.array_equal(p1.values, p2.values)


def test_checkpoint_predictions_survive_roundtrip(corpus, tmp_path):
    _, datasets, paths = corpus
    result = train(small_config(paths, epochs=1))
    path = tmp_path / "model.bin"
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path)
    before = evaluate(result.model, datasets["test"])
    after = evaluate(loaded, datasets["test"])
    assert before.accuracy == after.accuracy
    assert before.macro_f1 == after.macro_f1


def test_checkpoint_rejects_corrupt_file(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_committed_checkpoint_still_loads():
    """mini_checkpoint.bin was written by format version 1 (lsa_t, d=16,
    one layer, vocab of mini.json, frozen_eta (0.3, 0.7)); the CSV holds
    the probabilities it gave on mini.json when it was written."""
    path = FIXTURES / "mini_checkpoint.bin"
    model = load_checkpoint(path)
    assert checkpoint_bytes(model) == path.read_bytes()
    assert model.config.frozen_eta == (0.3, 0.7)
    dataset = load_dataset(FIXTURES / "mini.json")
    rows = (FIXTURES / "mini_checkpoint_probs.csv").read_text().splitlines()[1:]
    assert len(rows) == dataset.aspect_count()
    probs = model.forward(dataset.examples).values
    pairs = [(i, j) for i, ex in enumerate(dataset.examples) for j in range(len(ex.aspects))]
    for row in rows:
        i, j, *expected = row.split(",")
        got = probs[pairs.index((int(i), int(j)))]
        np.testing.assert_allclose(got, [float(x) for x in expected], rtol=0, atol=1e-12)


def rewrite_manifest(blob: bytes, edit) -> bytes:
    """A checkpoint whose JSON manifest is passed through ``edit``."""
    _, version, length = HEADER.unpack_from(blob)
    manifest = json.loads(blob[HEADER.size:HEADER.size + length])
    edit(manifest)
    body = json.dumps(manifest).encode()
    return HEADER.pack(MAGIC, version, len(body)) + body + blob[HEADER.size + length:]


@pytest.mark.parametrize(
    "case",
    ["short-header", "no-config", "no-vocab", "no-params", "unknown-config-key"],
)
def test_malformed_checkpoint_is_data_error(case, tmp_path):
    blob = (FIXTURES / "mini_checkpoint.bin").read_bytes()
    if case == "short-header":
        blob = blob[:10]
    elif case == "unknown-config-key":
        blob = rewrite_manifest(blob, lambda m: m["config"].update(width=3))
    else:
        blob = rewrite_manifest(blob, lambda m: m.pop(case.removeprefix("no-")))
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# config plumbing


def test_config_file_round_trip(tmp_path, corpus):
    _, _, paths = corpus
    path = tmp_path / "run.cfg"
    path.write_text(
        f"variant=lsa_t\nepochs=2\nseed=5\nd_model=16\nlayers=1\nheads=1\n"
        f"train_path={paths['train']}\nfrozen_eta=0.5,0.5\nno_dwa=true\n"
    )
    cfg = TrainConfig.from_file(path)
    assert cfg.epochs == 2 and cfg.seed == 5
    assert cfg.frozen_eta == (0.5, 0.5)
    assert cfg.no_dwa is True


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nonsense=1\n")
    with pytest.raises(ConfigError):
        TrainConfig.from_file(path)


def test_config_rejects_contradictory_ablations(corpus):
    _, _, paths = corpus
    with pytest.raises(ConfigError):
        small_config(paths, la_only=True, ra_only=True).validate()
