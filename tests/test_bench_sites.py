"""Every function the benchmark wraps by name must stay defined where the
benchmark looks for it, and a traced run must keep working: a rename, an
inlining or a signature change fails here rather than in the benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import lsa.autodiff  # noqa: E402
import lsa.encoder  # noqa: E402
import lsa.training as training  # noqa: E402
import lsa.window  # noqa: E402
from lsa.corpus import load_dataset  # noqa: E402
from lsa.distance import load_parses  # noqa: E402
from lsa.window import VARIANTS  # noqa: E402

from util import FIXTURES  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr, span",
    spans.SPAN_SITES,
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in spans.SPAN_SITES],
)
def test_span_site_is_defined_on_its_owner(owner, attr, span):
    assert attr in owner.__dict__, f"{span}: {owner.__name__} has no {attr!r}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_traced_train_and_evaluate_keep_the_trace_invariants(variant):
    """A tiny train() plus evaluate() under the benchmark's span wrappers:
    every pair forwarded is counted once, the span self times add up to
    the wall time of the calls made with no span open, and each encoder
    block runs inside its own span, so its time is not booked on
    ``encoder.encode``.  Each block call under a tape, in the encoder or
    as ``head.sa``, records two nodes.  ``window.classify`` records only
    the classifier's matmul (after a concat of the global feature): the
    softmax is part of the loss node."""
    config = training.TrainConfig(
        variant=variant, d_model=16, layers=2, heads=2, ffn_mult=2, max_len=32,
        epochs=1, batch=8, seed=1,
        train_path=str(FIXTURES / "mini.json"),
        valid_path=str(FIXTURES / "mini.json"),
        parse_path=str(FIXTURES / "mini.conllu"),
    )
    dataset = load_dataset(FIXTURES / "mini.json")
    trees = load_parses(FIXTURES / "mini.conllu")
    tracer = spans.Tracer()
    taped = {lsa.encoder: 0, lsa.window: 0}  # block calls made under a tape, by caller
    classify_ops = set()  # the ops of the nodes classify records
    parsed = []  # per forward, the examples read with their parse
    with tracer.installed():
        originals = {owner: owner.self_attention_block for owner in taped}
        classify = lsa.window.classify
        feature_local = lsa.window.aspect_feature_local

        def traced_feature_local(hidden, valid, inputs, *args):
            parsed.append(sum(x.parse is not None for x in inputs))
            return feature_local(hidden, valid, inputs, *args)

        def traced_classify(*args):
            tape = lsa.autodiff._ACTIVE_TAPE
            before = len(tape) if tape is not None else 0
            out = classify(*args)
            if tape is not None:
                classify_ops.update(node.backward_fn.__qualname__.split(".")[0]
                                    for node in tape._nodes[before:])
            return out

        def counted(owner):
            def call(*args, **kwargs):
                taped[owner] += lsa.autodiff._ACTIVE_TAPE is not None
                return originals[owner](*args, **kwargs)

            return call

        try:
            for owner in taped:
                owner.self_attention_block = counted(owner)
            lsa.window.classify = traced_classify
            lsa.window.aspect_feature_local = traced_feature_local
            result = training.train(config)
            metrics = training.evaluate(result.model, dataset, trees)
        finally:
            for owner, block in originals.items():
                owner.self_attention_block = block
            lsa.window.classify = classify
            lsa.window.aspect_feature_local = feature_local
    pairs = dataset.aspect_count()
    # one epoch of training, validation after it (the final metrics are
    # that epoch's), then evaluate()
    assert tracer.pairs_forwarded == pairs + pairs + metrics.n_examples
    assert metrics.n_examples == pairs
    root_wall = sum(r.wall_s for r in tracer.roots)
    self_sum = sum(s.self_s for s in tracer.stats.values())
    assert abs(self_sum - root_wall) <= 1e-6 * max(1.0, root_wall)
    assert tracer.stats["window.head_sa"].calls > 0
    encodes = tracer.stats["encoder.encode"].calls
    assert encodes > 0
    blocks = tracer.stats["encoder.self_attention_block"]
    assert blocks.calls == config.layers * encodes
    # attention and the residual feed-forward: one tape node each
    assert taped[lsa.encoder] > 0 and blocks.tape_nodes == 2 * taped[lsa.encoder]
    head_sa = tracer.stats["window.head_sa"]
    assert taped[lsa.window] > 0 and head_sa.tape_nodes == 2 * taped[lsa.window]
    assert classify_ops == ({"matmul"} if variant == "lsa_p" else {"concat", "matmul"})
    # lsa_s reads the tree distances of a forward in one call, if one of
    # its examples has a parse; every other example falls back
    syntactic = tracer.stats["distance.syntactic_distance"].calls
    assert len(parsed) == tracer.stats["window.aspect_feature_local"].calls
    if variant == "lsa_s":
        examples = tracer.stats["window.forward_example"].calls
        assert 0 < syntactic == sum(p > 0 for p in parsed) < len(parsed)
        assert sum(parsed) + result.model.syntax_fallbacks == examples
    else:
        assert syntactic == 0


@pytest.mark.parametrize("name, epoch_losses, valid, test", [
    ("train_lsa_t_dense", [1.3648569732430482, 0.6415491466785899],
     {"accuracy": 1.0, "macro_f1": 1.0, "n_examples": 27}, None),
    ("train_lsa_p_sparse", [1.6078010189780598, 1.1936820151112666],
     {"accuracy": 0.4, "macro_f1": 0.1904761904761905, "n_examples": 10}, None),
    ("eval_lsa_s_parsed", [1.6374096495081878],
     {"accuracy": 0.28125, "macro_f1": 0.14634146341463414, "n_examples": 32},
     {"accuracy": 0.37478991596638656, "macro_f1": 0.1817440912795436, "n_examples": 595}),
], ids=["train_lsa_t_dense", "train_lsa_p_sparse", "eval_lsa_s_parsed"])
def test_benchmark_training_outputs_are_pinned(name, epoch_losses, valid, test, tmp_path):
    """The benchmark's training outputs at seed 1, to the last bit: a change
    that moves the arithmetic of the default path fails here.  The
    forward-only workload trains its checkpoint for ``CHECKPOINT_EPOCHS``
    and evaluates it on the test split with the parses.  The values are
    bound to the numpy and BLAS build that recorded them (numpy 2.4 with
    OpenBLAS, the same at 1 and 2 threads); another build may round
    differently."""
    w = workloads.WORKLOADS[name]
    workloads.write_inputs(w, 1, tmp_path)
    epochs = w.epochs if w.trains else workloads.CHECKPOINT_EPOCHS
    result = training.train(measure.train_config(w, 1, tmp_path, epochs))
    assert result.epoch_losses == epoch_losses
    assert measure.metric_summary(result.final_metrics) == valid
    if not w.trains:
        metrics = training.evaluate(result.model, load_dataset(tmp_path / "test.json"),
                                    load_parses(tmp_path / "parses.conllu"))
        assert measure.metric_summary(metrics) == test
    assert result.model.syntax_fallbacks == 0
