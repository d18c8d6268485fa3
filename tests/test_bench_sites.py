"""Every function the benchmark wraps by name must stay defined where the
benchmark looks for it, and a traced run must keep working: a rename, an
inlining or a signature change fails here rather than in the benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

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
    as ``head.sa``, records two nodes."""
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
    with tracer.installed():
        originals = {owner: owner.self_attention_block for owner in taped}

        def counted(owner):
            def call(*args, **kwargs):
                taped[owner] += lsa.autodiff._ACTIVE_TAPE is not None
                return originals[owner](*args, **kwargs)

            return call

        try:
            for owner in taped:
                owner.self_attention_block = counted(owner)
            result = training.train(config)
            metrics = training.evaluate(result.model, dataset, trees)
        finally:
            for owner, block in originals.items():
                owner.self_attention_block = block
    pairs = dataset.aspect_count()
    # one epoch of training, validation after it and at the end, then evaluate()
    assert tracer.pairs_forwarded == pairs + 2 * pairs + metrics.n_examples
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
