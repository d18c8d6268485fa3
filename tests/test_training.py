"""Loss value, metrics, the training loop contracts, checkpoints."""

import json
import math
import random
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.checkpoint import HEADER, MAGIC, checkpoint_bytes, load_checkpoint, save_checkpoint
import lsa.training as training
from lsa.corpus import (
    DOMAINS,
    DataError,
    Dataset,
    SynthSpec,
    cluster_histogram,
    generate_synthetic_corpus,
    load_dataset,
    pair_table,
    save_dataset,
)
from lsa.distance import DependencyTree, load_parses
from lsa.encoder import ConfigError, Vocabulary
from lsa.optim import AdamW
from lsa.runio import canonical_json
from lsa.window import VARIANTS, ExampleInputs, Model, ModelConfig
from lsa.training import (
    EVAL_TOKENS,
    SLICES,
    TrainConfig,
    compute_metrics,
    eval_groups,
    evaluate,
    evaluate_slices,
    predict,
    total_loss,
    train,
)

from util import (FIXTURES, OUT_OF_DOMAIN, REFERENCE_SLICES, aspect_runs, cluster_sizes,
                  make_example, random_tree, reference_compute_metrics, reference_cross_entropy,
                  reference_pairs, softmax, tiny_model, write_synth_corpus)


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


def side_weights(*values):
    """Learned side weights of these values, left first."""
    return {name: ad.parameter(np.array([v]))
            for name, v in zip(("dwa.eta_l", "dwa.eta_r"), values)}


def test_total_loss_zero_for_perfect_prediction():
    logits = ad.tensor(np.array([[1e3, 0.0, 0.0]]))  # the softmax is [1, 0, 0]
    ce, reg = total_loss(logits, [0], {}, side_weights(1.0, 1.0), 0.0, 0.0)
    assert ce.item() == 0.0 and reg == 0.0


def test_total_loss_eta_regularizer_value():
    """Only the learned side weights are regularized (both, one of a
    one-sided window, none): a side that no weight scales adds nothing."""
    logits = ad.tensor(np.array([[1e3, 0.0, 0.0]]))
    for values, expected in [((1.0, 1.0), 2e-5), ((1.0,), 1e-5), ((), 0.0)]:
        ce, reg = total_loss(logits, [0], {}, side_weights(*values), 0.0, 1e-5)
        assert ce.item() == 0.0
        assert reg == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_total_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(0)
    model = tiny_model()
    params = model.main_parameters()
    lam, lam_eta = 1e-4, 1e-5
    expected_reg = lam * sum(float((t.values ** 2).sum()) for t in params.values())
    expected_reg += lam_eta * (0.9**2 + 1.1**2)
    for _ in range(10):
        logits = rng.normal(size=(3, 3)) * 3
        golds = [int(g) for g in rng.integers(0, 3, size=3)]
        ce, reg = total_loss(ad.tensor(logits), golds, params, side_weights(0.9, 1.1), lam,
                             lam_eta)
        expected = sum(math.log(sum(math.exp(x) for x in row)) - row[g]
                       for row, g in zip(logits, golds))
        assert ce.item() == pytest.approx(expected, rel=1e-12)
        assert reg == pytest.approx(expected_reg, rel=1e-12)


def test_total_loss_backward_excludes_regularizer():
    """The reg terms are value-only: a float, recorded on no tape; their
    gradient path is optimizer decay."""
    model = tiny_model()
    w = model.head.w_dec
    logits = ad.tensor(np.log([[0.2, 0.3, 0.5]]))
    tape = ad.Tape()
    with tape:
        ce, reg = total_loss(logits, [1], model.main_parameters(), model.eta_parameters(), 1.0,
                             1.0)
    assert isinstance(reg, float) and len(tape) == 1
    tape.backward(ce)
    assert w.grad is None  # w never entered the traced computation
    assert np.array_equal(logits.grad, reference_cross_entropy(logits.values, [1])[1])


@pytest.mark.parametrize("flags", [{}, {"frozen_eta": (0.3, 0.7)}], ids=["no_dwa", "frozen_eta"])
def test_lambda_eta_adds_no_loss_when_no_side_weight_is_learned(flags, corpus):
    """Under no_dwa no side weight is learned, so lambda_eta moves no loss:
    the constant 1s, or the frozen values, were once regularized as if
    they were weights."""
    _, _, paths = corpus
    losses = [train(small_config(paths, no_dwa=True, lambda_eta=lam, **flags)).epoch_losses
              for lam in (1e-5, 0.0)]
    assert losses[0] == losses[1]


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


@pytest.mark.parametrize("golds, preds", [
    ([0, 1], [0]), ([0], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [3, 1]), ([2], [-1]),
    ([0.0], [0]), ([True], [0]), ([[0, 1]], [[0, 1]])])
def test_metrics_refuse_classes_out_of_range_and_unequal_lengths(golds, preds):
    """A class outside [0, 3) (gold -1 once counted as class 2) and lists of
    unequal length are ValueErrors."""
    with pytest.raises(ValueError):
        compute_metrics(golds, preds)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_metrics_equal_the_loop_version_to_the_bit(data):
    """The same floats as the confusion matrix counted pair by pair, on
    random golds and preds drawn from a subset of the classes (so some
    classes are absent), as lists or as numpy arrays."""
    classes = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    n = data.draw(st.integers(1, 60))
    golds, preds = (data.draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
                    for _ in range(2))
    want = reference_compute_metrics(golds, preds)
    assert compute_metrics(golds, preds) == want
    assert compute_metrics(np.array(golds), np.array(preds)) == want


# ---------------------------------------------------------------------------
# evaluation: one pass, slices as filters


@pytest.fixture(scope="module")
def sliced():
    """An untrained model and a test split that has a pair in every slice."""
    spec = SynthSpec(splits={"test": 60}, rho=0.6, implicit_fraction=0.05,
                     aspects_dist={1: 0.2, 2: 0.3, 4: 0.2, 6: 0.3})
    dataset = generate_synthetic_corpus(spec, 2)["test"]
    vocab = Vocabulary.build(ex.tokens for ex in dataset.examples)
    config = ModelConfig(d_model=16, layers=1, heads=2, ffn_mult=2, max_len=96)
    return Model(config, vocab, np.random.Generator(np.random.PCG64(0))), dataset


@settings(max_examples=200, deadline=None)
@given(st.lists(aspect_runs(), max_size=8))
def test_every_slice_selects_the_pairs_of_its_reference_predicate(runs):
    """Each of ``SLICES`` over the pair table selects the pairs that its
    predicate over one pair's attributes selects, in the same order."""
    examples = [make_example(pols, implicit=flags) for pols, flags in runs]
    pairs, reference = pair_table(examples), reference_pairs(examples)
    assert list(SLICES) == list(REFERENCE_SLICES)
    for name, in_slice in SLICES.items():
        selected = in_slice(pairs)
        assert selected.dtype == bool and selected.shape == pairs.gold.shape
        assert selected.tolist() == [REFERENCE_SLICES[name](pair) for _, pair in reference], name


def reference_slices(example, j) -> set[str]:
    """The slices that aspect ``j`` of ``example`` is in, by their definitions."""
    aspect, size = example.aspects[j], cluster_sizes(example)[j]
    return {"implicit" if aspect.implicit else "explicit",
            *(["mono"] if len(example.aspects) == 1 else []),
            f"cluster{size}" if size < 5 else "cluster5+"}


def test_every_slice_row_is_the_metrics_of_its_pairs(sliced):
    """Each row is ``compute_metrics`` over the pairs its slice selects,
    with each example forwarded on its own; "all" and ``evaluate`` are the
    metrics of every pair."""
    model, dataset = sliced
    pairs = [(ex, j, int(np.argmax(model.forward([ex]).values[j])))
             for ex in dataset.examples for j in range(len(ex.aspects))]
    rows = evaluate_slices(model, dataset)
    assert list(rows) == ["all", *SLICES]
    for name, metrics in rows.items():
        chosen = [(ex.aspects[j].polarity.index, pred) for ex, j, pred in pairs
                  if name == "all" or name in reference_slices(ex, j)]
        assert metrics == compute_metrics(*zip(*chosen)), name
    assert evaluate(model, dataset) == rows["all"]


def test_a_slice_without_pairs_has_no_row(sliced):
    model, dataset = sliced
    explicit_pairs = Dataset([ex for ex in dataset.examples
                              if not any(a.implicit for a in ex.aspects)])
    rows = evaluate_slices(model, explicit_pairs)
    assert "implicit" not in rows and rows["explicit"] == rows["all"]
    with pytest.raises(DataError, match="the dataset has no"):
        evaluate_slices(model, Dataset([ex for ex in dataset.examples[:3] if not ex.aspects]))


def test_evaluate_cluster_slices_match_histogram(sliced):
    """The cluster rows count the pairs of ``cluster_histogram``'s buckets,
    and a bucket without pairs (mini.json has none of 4 or 5+) has no row."""
    mini = load_checkpoint(FIXTURES / "mini_checkpoint.bin"), load_dataset(FIXTURES / "mini.json")
    for model, dataset in (sliced, mini):
        rows = evaluate_slices(model, dataset)
        for label, count in cluster_histogram(dataset).items():
            if count:
                assert rows[f"cluster{label}"].n_examples == count
            else:
                assert f"cluster{label}" not in rows


# ---------------------------------------------------------------------------
# evaluation: length-sorted forward groups


@pytest.fixture(scope="module")
def ragged():
    """A split whose example lengths come in no order, with a parse for
    every example but each fifth, whose ``lsa_s`` weights fall back to
    token distance."""
    spec = SynthSpec(splits={"test": 60}, rho=0.6, implicit_fraction=0.05,
                     aspects_dist={1: 0.3, 2: 0.3, 4: 0.2, 6: 0.2})
    dataset = generate_synthetic_corpus(spec, 3)["test"]
    rnd, trees = random.Random(0), {}
    for i, ex in enumerate(dataset.examples):
        if i % 5:
            ex.parse_ref = f"s{i}"
            trees[ex.parse_ref] = DependencyTree(tuple(ex.tokens),
                                                 random_tree(rnd, len(ex.tokens)).heads)
    return dataset, trees


def longest(inputs: ExampleInputs) -> int:
    return max(len(ids) for ids in inputs.sequences)


@pytest.mark.parametrize("budget", [EVAL_TOKENS, 48])
@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_forwards_length_sorted_groups_under_the_token_budget(
        variant, budget, ragged, monkeypatch):
    """``predict`` forwards every example once, in groups sorted by length
    that hold at most ``EVAL_TOKENS`` padded tokens unless they hold one
    example; its predictions are those of each example forwarded alone, in
    dataset order.  ``evaluate`` builds each example's inputs once, in
    dataset order, counts the syntax fallbacks that they count, and scores
    those predictions."""
    dataset, trees = ragged
    examples = [ex for ex in dataset.examples if ex.aspects]
    vocab = Vocabulary.build(ex.tokens for ex in examples)
    config = ModelConfig(variant=variant, d_model=16, layers=1, heads=2, ffn_mult=2, max_len=96)
    model = Model(config, vocab, np.random.Generator(np.random.PCG64(0)))
    alone = np.concatenate([np.argmax(model.forward([ex], trees).values, axis=1)
                            for ex in examples])
    fallbacks = model.syntax_fallbacks
    assert fallbacks == (len(examples) - len(trees) if variant == "lsa_s" else 0)

    prepared, groups = [], []
    forward_example, logits = Model.forward_example, Model.logits

    def recording_forward_example(self, example, trees=None):
        prepared.append(id(example))
        return forward_example(self, example, trees)

    def recording_logits(self, inputs):
        groups.append(inputs)
        return logits(self, inputs)

    monkeypatch.setattr(Model, "forward_example", recording_forward_example)
    monkeypatch.setattr(Model, "logits", recording_logits)
    monkeypatch.setattr(training, "EVAL_TOKENS", budget)
    metrics = evaluate(model, dataset, trees)

    golds = [a.polarity.index for ex in examples for a in ex.aspects]
    assert metrics == compute_metrics(golds, alone)
    assert prepared == [id(ex) for ex in examples]
    assert model.syntax_fallbacks == 2 * fallbacks
    inputs = [forward_example(model, ex, trees) for ex in examples]
    groups.clear()
    assert predict(model, inputs).tolist() == alone.tolist()
    forwarded = [x for group in groups for x in group]
    assert len(forwarded) == len({id(x) for x in forwarded}) == len(examples)
    lengths = [longest(x) for x in forwarded]
    assert lengths == sorted(lengths) != [longest(model.forward_example(ex, trees))
                                          for ex in examples]
    assert len(groups) > 1 and max(map(len, groups)) > 1
    for group in groups:
        padded = sum(len(x.sequences) for x in group) * max(map(longest, group))
        assert len(group) == 1 or padded <= budget
    assert (budget == 48) == any(len(group) == 1 and len(group[0].sequences) * longest(group[0])
                                 > budget for group in groups)


def test_eval_groups_cut_the_stable_length_order_greedily(monkeypatch):
    """Sorted by length, ties in input order, then each example joins the
    open group if the group's padded tokens stay within the budget."""
    def inputs(*lengths):
        return ExampleInputs(len(lengths), [np.zeros(n, dtype=np.int64) for n in lengths])

    monkeypatch.setattr(training, "EVAL_TOKENS", 60)
    assert eval_groups([inputs(30), inputs(10), inputs(20), inputs(10)]) == [[1, 3, 2], [0]]
    assert eval_groups([inputs(61), inputs(5, 5)]) == [[1], [0]]
    assert eval_groups([inputs(20, 10), inputs(20), inputs(9)]) == [[2, 0], [1]]


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


def test_final_metrics_without_a_test_split_are_the_best_epochs(corpus, monkeypatch):
    """With no test split, ``train`` evaluates the validation split once
    per epoch and no more: the final metrics are the best epoch's, which
    are those of the restored model."""
    _, _, paths = corpus
    calls = []
    predict = training.predict

    def counting_predict(*args):
        calls.append(1)
        return predict(*args)

    monkeypatch.setattr(training, "predict", counting_predict)
    result = train(small_config(paths, epochs=3, valid_path=paths["test"], test_path=None))
    assert len(calls) == 3
    monkeypatch.undo()
    valid = [row for row in result.metrics_rows if row[1] == "valid"]
    final = result.final_metrics
    assert valid[result.best_epoch - 1] == (result.best_epoch, "valid", final.accuracy,
                                            final.macro_f1)
    assert final == evaluate(result.model, load_dataset(paths["test"]))


def mini_config(**overrides) -> TrainConfig:
    """``lsa_s`` on ``mini.json`` as both train and valid split, with the
    parses of ``mini.conllu``, which lack some of its examples."""
    return TrainConfig(**{
        "variant": "lsa_s", "d_model": 16, "layers": 1, "heads": 2, "ffn_mult": 2,
        "max_len": 32, "batch": 8, "seed": 1, "epochs": 1,
        "train_path": str(FIXTURES / "mini.json"), "valid_path": str(FIXTURES / "mini.json"),
        "parse_path": str(FIXTURES / "mini.conllu"), **overrides})


def test_train_builds_each_example_once_per_run(monkeypatch, caplog, tmp_path):
    """``train`` builds the host inputs of each train, valid and test example
    once per run, in dataset order, before its first step, and none without
    an epoch; so it counts each example without a usable parse once,
    whatever the epochs, and the first fallback warning names the first of
    them."""
    examples = [ex for ex in load_dataset(FIXTURES / "mini.json").examples if ex.aspects]
    built, steps = [], []  # the text of each example built; the examples built at each step
    forward_example, step = Model.forward_example, AdamW.step

    def recording_forward_example(self, example, trees=None):
        built.append(example.text)
        return forward_example(self, example, trees)

    def recording_step(self):
        steps.append(len(built))
        step(self)

    monkeypatch.setattr(Model, "forward_example", recording_forward_example)
    monkeypatch.setattr(AdamW, "step", recording_step)
    test = examples[:3]
    save_dataset(Dataset(test), tmp_path / "test.json")
    train(mini_config(test_path=str(tmp_path / "test.json")))
    assert built == 2 * [ex.text for ex in examples] + [ex.text for ex in test]
    assert steps and set(steps) == {len(built)}  # all built before the first step
    built.clear()
    assert train(mini_config(epochs=0)).model.syntax_fallbacks == 0 and built == []
    fallbacks = []
    for epochs in (1, 3):
        caplog.clear()
        with caplog.at_level("WARNING", logger="lsa.window"):
            fallbacks.append(train(mini_config(epochs=epochs)).model.syntax_fallbacks)
        assert built == 2 * [ex.text for ex in examples]  # train, then valid
        built.clear()
    model = tiny_model(variant="lsa_s")
    parses = load_parses(FIXTURES / "mini.conllu")
    unparsed = [ex for ex in examples if model.forward_example(ex, parses).parse is None]
    assert 0 < len(unparsed) < len(examples)
    assert fallbacks == [2 * len(unparsed)] * 2
    assert repr(unparsed[0].text[:40]) in caplog.records[0].getMessage()


def fits_mini(tmp_path):
    """``mini.json`` without example 8, the one with an aspect past 8 tokens."""
    examples = load_dataset(FIXTURES / "mini.json").examples
    save_dataset(Dataset(examples[:8] + examples[9:]), tmp_path / "fits.json")
    return str(tmp_path / "fits.json")


def test_an_aspect_past_max_len_fails_before_the_first_step(monkeypatch, tmp_path):
    """Every example's inputs are built before step 1, so an aspect past the
    context limit, in either split, fails before any backward.  The fault
    names the file, the example's index in it and the aspect's span; a
    held-out example is named in the train file."""
    backwards = []
    monkeypatch.setattr(ad.Tape, "backward", lambda tape, root: backwards.append(root))
    mini = re.escape(str(FIXTURES / "mini.json"))
    with pytest.raises(DataError, match=mini + r": examples\[0\]: aspect \[6, 7\) extends "
                                        r"past the 5-token context limit$"):
        train(mini_config(max_len=6))
    past = mini + r": examples\[8\]: aspect \[10, 11\) extends past the 8-token context limit$"
    for split, config in {
        "train": mini_config(max_len=9),
        "valid": mini_config(max_len=9, train_path=fits_mini(tmp_path)),
        "held out": mini_config(max_len=9, valid_path=None, seed=1),
        "left in train": mini_config(max_len=9, valid_path=None, seed=2),
    }.items():
        with pytest.raises(DataError, match=past):
            train(config)
    held = [np.random.Generator(np.random.PCG64(seed)).permutation(12)[0] for seed in (1, 2)]
    assert held[0] == 8 != held[1]  # the one example that seed 1 holds out, and seed 2 does not
    assert backwards == []


def test_an_aspect_past_max_len_in_the_test_split_is_named(monkeypatch, tmp_path):
    """The test split is built with the train and valid splits, before the
    first step, and its fault names it."""
    steps = []
    monkeypatch.setattr(AdamW, "step", lambda optimizer: steps.append(optimizer))
    fits = fits_mini(tmp_path)
    config = mini_config(max_len=9, train_path=fits, valid_path=fits,
                         test_path=str(FIXTURES / "mini.json"))
    with pytest.raises(DataError, match=re.escape(f"{FIXTURES / 'mini.json'}: examples[8]: "
                                                  "aspect [10, 11) extends past")):
        train(config)
    assert steps == []


def test_validation_holdout_when_no_valid_path(corpus):
    _, _, paths = corpus
    cfg = small_config(paths, epochs=1)
    result = train(cfg)
    splits = {row[1] for row in result.metrics_rows}
    assert splits == {"train", "valid", "test"}


# ---------------------------------------------------------------------------
# seed sweep summary


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


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("variant", ["lsa_t", "lsa_s", "lsa_p"])
def test_load_checkpoint_draws_nothing(variant, k, tmp_path, monkeypatch):
    """A load builds the model without a random init: with NumPy's
    generators made to raise, every parameter, each set to random values
    before saving, loads to the saved model's bits."""
    model = tiny_model(variant=variant, k=k)
    rng = np.random.default_rng(k)
    for t in model.named_parameters().values():
        t.values[...] = rng.normal(size=t.shape)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew from a NumPy generator")

    for name in ("PCG64", "Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, refuse)
    loaded = load_checkpoint(path).named_parameters()
    saved = model.named_parameters()
    assert list(loaded) == list(saved)
    for name, t in saved.items():
        assert loaded[name].values.tobytes() == t.values.tobytes(), name


def checkpoint_parts(blob: bytes) -> tuple[int, dict, dict[str, bytes]]:
    """A checkpoint's version, its manifest and the payload bytes of each
    parameter it lists."""
    _, version, length = HEADER.unpack_from(blob)
    manifest = json.loads(blob[HEADER.size:HEADER.size + length])
    offset, payloads = HEADER.size + length, {}
    for entry in manifest["params"]:
        end = offset + 8 * math.prod(entry["shape"])
        payloads[entry["name"]] = blob[offset:end]
        offset = end
    assert offset == len(blob)
    return version, manifest, payloads


def checkpoint_of(version: int, manifest: dict, payloads: dict[str, bytes]) -> bytes:
    """The checkpoint of ``checkpoint_parts``' three parts."""
    body = canonical_json(manifest).encode()
    return (HEADER.pack(MAGIC, version, len(body)) + body
            + b"".join(payloads[entry["name"]] for entry in manifest["params"]))


def with_manifest_bytes(blob: bytes, body: bytes) -> bytes:
    """The checkpoint ``blob`` with ``body`` in place of its manifest."""
    magic, version, length = HEADER.unpack_from(blob)
    return HEADER.pack(magic, version, len(body)) + body + blob[HEADER.size + length:]


def with_manifest(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with ``edit`` applied to its manifest."""
    version, manifest, payloads = checkpoint_parts(blob)
    edit(manifest)
    return checkpoint_of(version, manifest, payloads)


def reshaped_first_entry(manifest):
    manifest["params"][0]["shape"] = [3, 16]


def swapped_markers(manifest):
    manifest["vocab"][:2] = manifest["vocab"][1::-1]


@pytest.mark.parametrize("edit, message", [
    (lambda blob: HEADER.pack(MAGIC, 7, HEADER.unpack_from(blob)[2]) + blob[HEADER.size:],
     "unsupported checkpoint version 7"),
    (lambda blob: with_manifest_bytes(blob, b'{"version": 1,'),
     "corrupt checkpoint manifest: Expecting property name enclosed in double quotes"),
    (lambda blob: with_manifest_bytes(blob, b'{"vocab": "\xff"}'),
     "corrupt checkpoint manifest: 'utf-8' codec can't decode byte 0xff in position 11"),
    (lambda blob: with_manifest(blob, reshaped_first_entry),
     "shape (3, 16) for encoder.embedding does not match (51, 16)"),
    (lambda blob: blob[:-8], "truncated checkpoint payload"),
    (lambda blob: blob + bytes(8), "trailing bytes after checkpoint payload"),
    (lambda blob: with_manifest(blob, swapped_markers),
     "malformed checkpoint manifest: ConfigError('vocabulary must start with the reserved "
     "markers')"),
], ids=["version", "manifest_not_json", "manifest_not_utf8", "shape", "truncated_payload",
        "trailing_bytes", "markers_not_first"])
def test_load_checkpoint_refuses_a_malformed_file(edit, message, tmp_path):
    """Each fault of ``mini_checkpoint.bin`` edited in one place is a
    DataError that names the file."""
    path = tmp_path / "edited.bin"
    path.write_bytes(edit((FIXTURES / "mini_checkpoint.bin").read_bytes()))
    with pytest.raises(DataError) as raised:
        load_checkpoint(path)
    assert str(raised.value).startswith(f"{path}: {message}")


# the entries of mini_checkpoint.bin that its model lacks: the key biases,
# and the side weights that frozen_eta leaves unused
MINI_LEGACY = ["encoder.block0.bk", "head.sa.bk", "dwa.eta_l", "dwa.eta_r"]


def test_committed_checkpoint_still_loads():
    """mini_checkpoint.bin was written by format version 1 (lsa_t, d=16,
    one layer, vocab of mini.json, frozen_eta (0.3, 0.7)); the CSV holds
    the probabilities it gave on mini.json when it was written.  Written
    back, it is version 2: the same manifest and payload without the
    entries ``MINI_LEGACY`` and the config's ``backbone_only`` key, which
    k = 0 replaced."""
    path = FIXTURES / "mini_checkpoint.bin"
    model = load_checkpoint(path)
    old = path.read_bytes()
    version, manifest, payloads = checkpoint_parts(old)
    assert version == 1 and checkpoint_of(version, manifest, payloads) == old
    assert [n for n in payloads if n.endswith(".bk") or n.startswith("dwa.")] == MINI_LEGACY
    manifest["version"] = 2
    manifest["params"] = [e for e in manifest["params"] if e["name"] not in MINI_LEGACY]
    assert manifest["config"].pop("backbone_only") is False
    assert checkpoint_bytes(model) == checkpoint_of(2, manifest, payloads)
    assert model.config.frozen_eta == (0.3, 0.7)
    dataset = load_dataset(FIXTURES / "mini.json")
    rows = (FIXTURES / "mini_checkpoint_probs.csv").read_text().splitlines()[1:]
    assert len(rows) == dataset.aspect_count()
    probs = softmax(model.forward(dataset.examples).values)
    pairs = [(i, j) for i, ex in enumerate(dataset.examples) for j in range(len(ex.aspects))]
    for row in rows:
        i, j, *expected = row.split(",")
        got = probs[pairs.index((int(i), int(j)))]
        np.testing.assert_allclose(got, [float(x) for x in expected], rtol=0, atol=1e-12)


def test_v1_entries_the_model_lacks_are_not_read(tmp_path):
    """mini_checkpoint.bin with random values in its ``MINI_LEGACY``
    entries gives bitwise the same logits."""
    version, manifest, payloads = checkpoint_parts((FIXTURES / "mini_checkpoint.bin").read_bytes())
    rng = np.random.default_rng(4)
    for name in MINI_LEGACY:
        payloads[name] = rng.normal(size=len(payloads[name]) // 8).astype("<f8").tobytes()
    path = tmp_path / "random_legacy.bin"
    path.write_bytes(checkpoint_of(version, manifest, payloads))
    examples = load_dataset(FIXTURES / "mini.json").examples
    logits = load_checkpoint(FIXTURES / "mini_checkpoint.bin").forward(examples).values
    assert load_checkpoint(path).forward(examples).values.tobytes() == logits.tobytes()


@pytest.mark.parametrize("flags", [{}, {"la_only": True}, {"ra_only": True}, {"no_dwa": True},
                                   {"k": 0}], ids=["dwa", "la_only", "ra_only", "no_dwa", "k0"])
def test_v1_file_loads_to_the_model_it_held(flags, tmp_path):
    """A version 1 file lists a key bias after each ``*.wk`` and both side
    weights last; it loads to the model's bits, whatever the values of the
    entries the model lacks."""
    model = tiny_model(**flags)
    rng = np.random.default_rng(6)
    for t in model.named_parameters().values():
        t.values[...] = rng.normal(size=t.shape)
    _, manifest, payloads = checkpoint_parts(checkpoint_bytes(model))
    entries = []
    for entry in manifest["params"]:
        entries.append(entry)
        if entry["name"].endswith(".wk"):
            entries.append({"name": entry["name"][:-2] + "bk", "shape": entry["shape"][1:]})
    entries = [e for e in entries if not e["name"].startswith("dwa.")]
    entries += [{"name": "dwa.eta_l", "shape": [1]}, {"name": "dwa.eta_r", "shape": [1]}]
    for entry in entries:
        if entry["name"] not in payloads:
            payloads[entry["name"]] = rng.normal(size=entry["shape"]).astype("<f8").tobytes()
    path = tmp_path / "v1.bin"
    path.write_bytes(checkpoint_of(1, {**manifest, "version": 1, "params": entries}, payloads))
    loaded = load_checkpoint(path).named_parameters()
    assert list(loaded) == list(model.named_parameters())
    for name, t in model.named_parameters().items():
        assert loaded[name].values.tobytes() == t.values.tobytes(), name


def test_v2_file_with_a_key_bias_is_data_error(tmp_path):
    version, manifest, payloads = checkpoint_parts(
        checkpoint_bytes(load_checkpoint(FIXTURES / "mini_checkpoint.bin")))
    wk = next(i for i, e in enumerate(manifest["params"]) if e["name"] == "encoder.block0.wk")
    manifest["params"].insert(wk + 1, {"name": "encoder.block0.bk", "shape": [16]})
    payloads["encoder.block0.bk"] = bytes(8 * 16)
    path = tmp_path / "bk.bin"
    path.write_bytes(checkpoint_of(version, manifest, payloads))
    with pytest.raises(DataError, match="parameters do not match the model"):
        load_checkpoint(path)


def rewrite_manifest(blob: bytes, edit) -> bytes:
    """A checkpoint whose JSON manifest is passed through ``edit``."""
    _, version, length = HEADER.unpack_from(blob)
    manifest = json.loads(blob[HEADER.size:HEADER.size + length])
    edit(manifest)
    body = json.dumps(manifest).encode()
    return HEADER.pack(MAGIC, version, len(body)) + body + blob[HEADER.size + length:]


@pytest.mark.parametrize(
    "case",
    ["short-header", "no-config", "no-vocab", "no-params", "unknown-config-key", "k-bool",
     "backbone-only"],
)
def test_malformed_checkpoint_is_data_error(case, tmp_path):
    """``"k": true`` once loaded as a model with k = 1.  A true
    ``backbone_only`` names an ablation that k = 0 replaced."""
    blob = (FIXTURES / "mini_checkpoint.bin").read_bytes()
    if case == "short-header":
        blob = blob[:10]
    elif case == "unknown-config-key":
        blob = rewrite_manifest(blob, lambda m: m["config"].update(width=3))
    elif case == "k-bool":
        blob = rewrite_manifest(blob, lambda m: m["config"].update(k=True))
    elif case == "backbone-only":
        blob = rewrite_manifest(blob, lambda m: m["config"].update(backbone_only=True))
    else:
        blob = rewrite_manifest(blob, lambda m: m.pop(case.removeprefix("no-")))
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(DataError):
        load_checkpoint(path)


@pytest.mark.parametrize("config, message", [
    ({"ffn_mult": 0}, "ffn_mult must be positive"),
    ({"ffn_mult": -1}, "ffn_mult must be positive"),
    ({"alpha": float("nan")}, "bad value for alpha: expected a finite number, got nan"),
    ({"alpha": "inf"}, "bad value for alpha: expected a finite number, got 'inf'"),
], ids=["ffn_mult_zero", "ffn_mult_negative", "alpha_nan", "alpha_inf_text"])
def test_checkpoint_config_out_of_range_is_data_error(config, message, tmp_path):
    """A checkpoint's config is checked as a flag's value is."""
    blob = (FIXTURES / "mini_checkpoint.bin").read_bytes()
    path = tmp_path / "bad.bin"
    path.write_bytes(rewrite_manifest(blob, lambda m: m["config"].update(config)))
    with pytest.raises(DataError, match=re.escape(message)):
        load_checkpoint(path)


def test_checkpoint_config_string_reads_as_text(tmp_path):
    """``"no_dwa": "false"`` once loaded as the no-DWA model."""
    blob = (FIXTURES / "mini_checkpoint.bin").read_bytes()
    path = tmp_path / "model.bin"
    path.write_bytes(rewrite_manifest(blob, lambda m: m["config"].update(no_dwa="false",
                                                                         frozen_eta=None)))
    assert load_checkpoint(path).config.no_dwa is False


# ---------------------------------------------------------------------------
# config plumbing


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, SynthSpec])
def test_each_numeric_field_declares_its_domain_and_the_config_is_frozen(cls):
    assert cls.__dataclass_params__.frozen
    for f in fields(cls):
        domain = f.metadata.get("domain")
        assert (domain in DOMAINS) if f.type in ("int", "float") else domain is None, f.name


def test_each_domain_has_a_value_outside_it():
    assert set(OUT_OF_DOMAIN) == set(DOMAINS)
    for text, value in OUT_OF_DOMAIN.items():
        assert not DOMAINS[text](float(value)), text


def test_a_config_is_checked_when_built():
    """``replace`` builds a config too, so a sweep's run cannot skip the
    check; of several bad values the first field is named."""
    with pytest.raises(ConfigError, match=r"^seed must be non-negative$"):
        replace(TrainConfig(), seed=-1)
    with pytest.raises(ConfigError, match=r"^k must be non-negative$"):
        TrainConfig(seed=-1, k=-1)
    with pytest.raises(ConfigError, match=r"^heads must be positive$"):  # before d_model % heads
        ModelConfig(heads=0)
    with pytest.raises(DataError, match=r"^synth spec: rho must be in \[0, 1\]$"):
        replace(SynthSpec(), rho=2.0)


@pytest.mark.parametrize("key, text, json_value, value, bad", [
    ("epochs", "2", 2, 2, True),
    ("d_model", "32", 32, 32, 16.0),
    ("alpha", "4", 4, 4.0, True),
    ("no_dwa", "false", False, False, "maybe"),
    ("variant", "lsa_s", "lsa_s", "lsa_s", 5),
    ("valid_path", "", None, None, 5),
    ("frozen_eta", "0.25,0.75", [0.25, 0.75], (0.25, 0.75), [True, 1]),
], ids=["int", "int_float", "float", "bool", "str", "optional_str", "optional_tuple"])
def test_from_dict_reads_every_field_kind(key, text, json_value, value, bad):
    """A string is the field's text form, any other value must have the
    field's JSON type, and the text form and the ``asdict`` JSON form give
    equal configs.  A string once reached the config unread ("false" was
    true), and a bool or a float became an int field.  A frozen side
    weight needs ``no_dwa``."""
    others = {"no_dwa": True} if key == "frozen_eta" else {}
    for raw in (text, json_value):
        got = getattr(TrainConfig.from_dict({**others, key: raw}), key)
        assert got == value and type(got) is type(value)
    by_text = TrainConfig.from_dict({**others, key: text})
    assert TrainConfig.from_dict(json.loads(json.dumps(asdict(by_text)))) == by_text
    with pytest.raises(ConfigError, match=f"^bad value for {key}: "):
        TrainConfig.from_dict({**others, key: bad})


@pytest.mark.parametrize("raw", [False, "false", "no", "0"])
def test_from_dict_drops_a_false_legacy_backbone_only(raw):
    assert TrainConfig.from_dict({"backbone_only": raw, "k": 2}) == TrainConfig(k=2)
    assert "backbone_only" not in asdict(TrainConfig())


@pytest.mark.parametrize("raw, message", [
    (True, "backbone_only is gone: the backbone is k = 0"),
    ("yes", "backbone_only is gone: the backbone is k = 0"),
    ("maybe", "bad value for backbone_only: "),
])
def test_from_dict_rejects_a_true_legacy_backbone_only(raw, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        ModelConfig.from_dict({"backbone_only": raw})


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
        small_config(paths, la_only=True, ra_only=True)
