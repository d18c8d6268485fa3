"""Position weighting, window construction/padding, differential weighting,
projection, classification, and the assembled model paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import AspectAnnotation, DataError, Example, Polarity, load_dataset
from lsa.distance import DependencyTree, load_parses
from lsa.encoder import PAD, ConfigError
from lsa.window import (
    VARIANTS,
    ExampleInputs,
    ModelConfig,
    apply_dwa,
    aspect_feature_local,
    build_window,
    classify,
    position_weight,
    position_weights,
    project_window,
)

from util import (
    FIXTURES,
    make_example,
    outcome,
    reference_position_weights,
    reference_spc_input,
    softmax,
    sum_all,
    tiny_model,
    valid_of,
)

ad.set_debug_checks(True)


def features(*rows):
    """A (rows, d) feature tensor, one row per argument."""
    return ad.tensor(np.array(rows, dtype=float))


OFFSETS = ModelConfig(k=1).slot_offsets  # -1, 0, 1
MIDDLE_OF_THREE = build_window([0], [3], OFFSETS)[1:2]  # the window of aspect 1 of 3


def side_weights(eta_l=1.0, eta_r=1.0):
    """Learnable (left, right) side weights at the given values."""
    return ad.parameter(np.array([eta_l])), ad.parameter(np.array([eta_r]))


def coherent_example(n_aspects, polarity="positive", implicit=None):
    tokens, aspects = [], []
    for i in range(n_aspects):
        tokens.extend([f"w{i}", f"w{i + 1}"])
        start = len(tokens)
        tokens.append("screen")
        aspects.append(
            AspectAnnotation(
                start, start + 1, ("screen",), Polarity(polarity),
                implicit=bool(implicit and i in implicit),
            )
        )
    tokens.append("w0")
    return Example(" ".join(tokens), tokens, aspects)


# ---------------------------------------------------------------------------
# position weights


def test_position_weight_inside_threshold():
    assert position_weight(2.0, 3.0, 10) == 1.0


def test_position_weight_decay():
    assert position_weight(5.0, 3.0, 10) == pytest.approx(0.8)


def test_position_weight_boundary_inclusive():
    assert position_weight(3.0, 3.0, 10) == 1.0


def test_position_weight_floors_at_zero():
    assert position_weight(100.0, 3.0, 10) == 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(0, 200), st.integers(1, 100))
def test_position_weight_bounded(d, n):
    w = position_weight(d, 3.0, n)
    assert 0.0 <= w <= 1.0


@st.composite
def context_examples(draw, index):
    """An example of 1-40 tokens whose 1-4 aspects lie in the first 31
    (the context of ``tiny_model``), its tree, the word of each token, and
    what the model is given: the tree, no tree, or a tree whose forms do not
    align.  Words are runs of tokens (subword tokens), some in upper case;
    the tree hangs each word below one that joined earlier."""
    n = draw(st.integers(1, 40))
    tokens = [f"t{i}" for i in range(n)]
    points = sorted(draw(st.sets(st.integers(0, min(n, 31)), min_size=2, max_size=8)))
    spans = list(zip(points[0::2], points[1::2]))
    aspects = [AspectAnnotation(a, b, tuple(tokens[a:b]), Polarity.POSITIVE) for a, b in spans]
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n - 1)))) - {n})
    bounds = [0, *cuts, n]
    forms = ["".join(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
    forms = [f.upper() if draw(st.booleans()) else f for f in forms]
    order = draw(st.permutations(range(len(forms))))
    heads = [0] * len(forms)
    for rank, word in enumerate(order[1:], 1):
        heads[word] = order[draw(st.integers(0, rank - 1))] + 1
    token_word = [w for w, (a, b) in enumerate(zip(bounds, bounds[1:])) for _ in range(a, b)]
    kind = draw(st.sampled_from(["parsed", "no parse", "not aligned"]))
    if kind == "not aligned":
        forms[draw(st.integers(0, len(forms) - 1))] += "x"
    tree = DependencyTree(tuple(forms), tuple(heads))
    example = Example(" ".join(tokens), tokens, aspects, parse_ref=f"p{index}")
    return example, tree, token_word, kind


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_position_weights_equal_the_scalar_reference(data):
    """A batch of 1-6 examples that mixes parsed examples, examples with
    no parse, examples whose tokens do not align, subword tokens and
    sentences longer than the context: every row of the batch pass equals
    the per-token scalar formula on the positional or the breadth-first
    tree distance, bitwise, and is zero past its sequence.  Under lsa_p
    each SPC input gets one unit row, and an aspect too long for the SPC
    input is refused."""
    batch = [data.draw(context_examples(i)) for i in range(data.draw(st.integers(1, 6)))]
    examples = [example for example, *_ in batch]
    trees = {ex.parse_ref: tree for ex, tree, _, kind in batch if kind != "no parse"}
    alpha = data.draw(st.sampled_from([0.0, 1.0, 3.0, 4.5]))
    for variant in ("lsa_t", "lsa_s"):
        model = tiny_model(variant=variant, alpha=alpha)
        inputs = [model.forward_example(ex, trees) for ex in examples]
        valid = valid_of(inputs)
        source, scale = position_weights(inputs, valid, alpha)
        expected = []
        for e, (example, tree, token_word, kind) in enumerate(batch):
            n = min(len(example.tokens), model.config.max_len - 1)
            parse = (tree, token_word) if variant == "lsa_s" and kind == "parsed" else None
            rows = np.zeros((len(example.aspects) + 1, valid.shape[1]))
            rows[:, :n + 1] = reference_position_weights(example, n, alpha, parse)
            expected.append(rows)
            assert (inputs[e].parse is not None) == (parse is not None)
        expected = np.concatenate(expected)
        np.testing.assert_array_equal(scale, expected)
        assert scale.tobytes() == expected.tobytes()
        assert source.tolist() == [e for e, ex in enumerate(examples) for _ in range(len(ex.aspects) + 1)]
        unparsed = sum(kind != "parsed" for *_, kind in batch)
        assert model.syntax_fallbacks == (unparsed if variant == "lsa_s" else 0)
    model = tiny_model(variant="lsa_p", alpha=alpha)  # one unit row per SPC input
    longest = model.config.max_len - 3  # [CLS] context [SEP] aspect [SEP]; the aspect is never cut
    fits = [ex for ex in examples if all(a.end - a.start <= longest for a in ex.aspects)]
    for ex in examples:
        if ex not in fits:
            with pytest.raises(DataError, match="cannot fit"):
                model.forward_example(ex, trees)
    if not fits:
        return
    inputs = [model.forward_example(ex, trees) for ex in fits]
    valid = valid_of(inputs)
    source, scale = position_weights(inputs, valid, alpha)
    assert source.tolist() == list(range(len(valid)))
    assert np.array_equal(scale, valid)


# ---------------------------------------------------------------------------
# aspect features


def test_identity_weights_preserve_rows():
    h = ad.tensor(np.random.default_rng(0).normal(size=(4, 6)))
    w = ad.tensor(np.ones((4, 1)))
    assert np.array_equal(ad.mul(h, w).values, h.values)


def test_far_row_scaled_others_unchanged():
    model = tiny_model()
    hc = ad.tensor(np.ones((4, 16)))
    # distances: rows 0-2 local, row 3 at weight 0.8
    feat_input = ad.mul(
        hc, ad.tensor(np.array([[1.0], [1.0], [1.0], [0.8]]))
    )
    assert np.allclose(feat_input.values[3], 0.8)
    assert np.allclose(feat_input.values[:3], 1.0)


def test_aspect_feature_length_mismatch():
    model = tiny_model()
    hc = ad.tensor(np.zeros((4, 16)))
    valid = np.ones((1, 4), dtype=bool)
    short = ExampleInputs(2, [np.zeros(3, dtype=np.int64)], [(0, 1), (1, 2)])
    with pytest.raises(ConfigError, match="sequence lengths"):
        aspect_feature_local(hc, valid, [short], 3.0, model.head.sa, 2)


def test_position_weights_carry_no_gradient():
    """Weights are functions of integer positions: constants w.r.t. params."""
    model = tiny_model()
    ex = coherent_example(2)
    tape = ad.Tape()
    with tape:
        logits = model.forward([ex])
        loss = ad.cross_entropy(logits, [0, 0])
    tape.backward(loss)
    # perturbing any parameter leaves distances/weights untouched; verified
    # by the full-path finite-difference agreement in the acceptance suite.
    assert model.encoder.embedding.grad is not None


# ---------------------------------------------------------------------------
# window construction and padding


def test_single_aspect_window_triples_target():
    assert build_window([0], [1], OFFSETS).tolist() == [[0, 0, 0]]


def test_leftmost_of_two_pads_left_slot():
    window = build_window([0], [2], OFFSETS)
    assert window[0].tolist() == [0, 0, 1]


def test_middle_of_three_no_padding():
    assert MIDDLE_OF_THREE.tolist() == [[0, 1, 2]]


def test_window_consumes_neighbors_once_no_symmetrization():
    feats = features([1.0], [2.0], [3.0])
    h = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, None)
    assert h.values.tolist() == [[1.0, 2.0, 3.0]]
    swapped = features([3.0], [2.0], [1.0])
    h2 = apply_dwa(swapped, MIDDLE_OF_THREE, OFFSETS, None)
    assert h2.values.tolist() == [[3.0, 2.0, 1.0]]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=1, max_size=5),
    st.integers(0, 3),
    st.sampled_from([{}, {"la_only": True}, {"ra_only": True}]),
)
def test_window_index_properties(examples, k, ablation):
    """``examples`` holds each example's aspect count and the rows between
    it and the next example (the pooled row of lsa_t is one such row).
    The window comes from the config's slot offsets; k = 0 (the backbone)
    has no one-sided form."""
    counts = [c for c, _ in examples]
    starts = np.cumsum([0] + [c + gap for c, gap in examples])[:-1]
    config = ModelConfig(k=k, **(ablation if k else {}))
    window = build_window(starts, counts, config.slot_offsets)
    left = 0 if config.ra_only else k
    right = 0 if config.la_only else k
    assert window.shape == (sum(counts), left + 1 + right)
    pair = 0
    for start, count in zip(starts, counts):
        for j in range(count):
            target = start + j
            row = window[pair].tolist()
            pair += 1
            assert row[left] == target
            # the k nearest on each side, farthest left first, nearest right first
            want_left = [target - d if j - d >= 0 else target for d in range(left, 0, -1)]
            want_right = [target + d if j + d < count else target for d in range(1, right + 1)]
            assert row[:left] == want_left
            assert row[left + 1:] == want_right
            assert all(start <= i < start + count for i in row)


# ---------------------------------------------------------------------------
# differential weighted aggregation


def test_dwa_at_one_equals_plain_concat_bitwise():
    feats = features([1.3, -2.0], [0.5, 4.0], [9.0, 1.0])
    plain = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, None)
    dwa = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, side_weights())
    assert np.array_equal(plain.values, dwa.values)


def test_dwa_zero_left_gives_zero_third():
    feats = features([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
    out = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, side_weights(eta_l=0.0))
    assert out.values[0, :2].tolist() == [0.0, 0.0]
    assert out.values[0, 2:].tolist() == [3.0, 4.0, 5.0, 6.0]


def test_dwa_gradient_scales_linearly_in_eta():
    """With a zero left feature the downstream state is identical at any
    eta_l, so the gradient w.r.t. the left feature is exactly linear."""
    rng = np.random.default_rng(1)
    d = 4
    w_out = ad.tensor(rng.normal(size=(3 * d, 3)))
    target = features(*rng.normal(size=(1, d)))
    right = features(*rng.normal(size=(1, d)))

    def grad_at(eta_value):
        left = ad.parameter(np.zeros((1, d)))
        tape = ad.Tape()
        with tape:
            feats = ad.concat([left, target, right], axis=0)
            h = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, side_weights(eta_l=eta_value))
            loss = ad.cross_entropy(ad.matmul(h, w_out), 0)
        tape.backward(loss)
        return left.grad.copy()

    g_half = grad_at(0.5)
    g_one = grad_at(1.0)
    assert np.max(np.abs(g_half - 0.5 * g_one)) <= 1e-8


def test_frozen_eta_uses_constants():
    model = tiny_model(no_dwa=True, frozen_eta=(0.5, 0.25))
    feats = features([2.0], [3.0], [4.0])
    out = apply_dwa(feats, MIDDLE_OF_THREE, OFFSETS, model.side_weights())
    assert out.values.tolist() == [[1.0, 3.0, 1.0]]
    assert model.eta_values() == (0.5, 0.25)


def test_simplified_windows_keep_one_side():
    feats = features([1.0], [2.0], [3.0])
    for flag, expected in (("la_only", [[1.0, 2.0]]), ("ra_only", [[2.0, 3.0]])):
        offsets = ModelConfig(**{flag: True}).slot_offsets
        window = build_window([0], [3], offsets)[1:2]
        assert apply_dwa(feats, window, offsets, None).values.tolist() == expected


def test_k0_is_one_slot_without_side_weight():
    """k = 0 is the backbone: every window is the target alone, the
    projection is (d, d), and ``apply_dwa`` records only its gather and
    its reshape."""
    model = tiny_model(k=0)
    d = model.config.d_model
    assert model.config.slot_offsets.tolist() == [0]
    assert model.head.w_out.shape == (d, d)
    assert model.side_weights() is None and model.eta_parameters() == {}
    assert model.eta_values() == (1.0, 1.0)
    feats = features([1.0], [2.0], [3.0])
    tape = ad.Tape()
    with tape:
        out = apply_dwa(feats, build_window([0], [3], [0]), [0], model.side_weights())
    assert out.values.tolist() == [[1.0], [2.0], [3.0]]
    assert len(tape._nodes) == 2


def test_side_weight_and_its_projection_block_are_one_gauge():
    """Scaling eta_l by c and the projection's left block by 1/c gives the
    same function: eta alone does not measure how much a side matters."""
    model = tiny_model(k=1)
    model.eta["dwa.eta_l"].values[0] = 0.8
    examples = [coherent_example(3), coherent_example(2, "negative"), coherent_example(1)]
    before = softmax(model.forward(examples).values)
    c, d = 3.7, model.config.d_model
    model.eta["dwa.eta_l"].values[0] *= c
    model.head.w_out.values[:d] /= c
    np.testing.assert_allclose(softmax(model.forward(examples).values), before, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# projection and classification


def test_project_window_zero_input_gives_bias():
    model = tiny_model()
    d = model.config.d_model
    zero = ad.tensor(np.zeros((1, 3 * d)))
    out = project_window(zero, model.head)
    assert np.array_equal(out.values[0], model.head.b_out.values)


def test_project_window_affine_property():
    model = tiny_model()
    d = model.config.d_model
    x = ad.tensor(np.random.default_rng(2).normal(size=(1, 3 * d)))
    f = lambda t: project_window(t, model.head).values
    lhs = f(ad.mul(x, ad.tensor(2.0))) - f(x)
    rhs = f(x) - f(ad.mul(x, ad.tensor(0.0)))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_project_window_gradients():
    from util import grad_check

    model = tiny_model()
    d = model.config.d_model
    x = ad.tensor(np.random.default_rng(3).normal(size=(1, 3 * d)))
    build = lambda: sum_all(project_window(x, model.head))
    worst = grad_check(build, {"w": model.head.w_out, "b": model.head.b_out})
    assert worst <= 1e-6


def test_project_window_shape_error():
    model = tiny_model()
    with pytest.raises(ConfigError):
        project_window(ad.tensor(np.zeros((1, 7))), model.head)


def test_classify_output_on_simplex():
    """The logit rows of a forward give probability rows on the simplex."""
    model = tiny_model()
    ex = coherent_example(2)
    logits = model.forward([ex])
    assert logits.shape == (2, 3)
    for p in softmax(logits.values):
        assert abs(p.sum() - 1.0) <= 1e-12


def test_argmax_invariant_under_logit_shift():
    """A prediction, the argmax of a logit row, is that of its
    probabilities, also after a shift of the logits."""
    model = tiny_model()
    logits = model.forward([coherent_example(3), coherent_example(2)]).values
    preds = np.argmax(logits, axis=1)
    assert np.array_equal(preds, np.argmax(softmax(logits), axis=1))
    assert np.array_equal(preds, np.argmax(softmax(logits + 7.5), axis=1))


# ---------------------------------------------------------------------------
# model paths


def test_mono_aspect_output_equals_reference_path():
    from lsa.encoder import self_attention_block

    model = tiny_model()
    ex = coherent_example(1)
    logits = model.forward([ex])

    # reference path: one unbatched head.sa call for the aspect feature and
    # one for the pooled feature, then the tripled window built directly.
    # head.sa's matmuls then have other shapes than in the batched call,
    # so the comparison allows rounding.
    sa, heads = model.head.sa, model.config.heads
    hidden, valid = model.global_context([model.forward_example(ex)])
    n = len(ex.tokens)
    dists = [float(n)] + [float(abs(i - ex.aspects[0].start)) for i in range(n)]

    def feature(weights):
        return self_attention_block(hidden, sa, heads, valid, source=[0], scale=weights[None])

    feat = feature(position_weight(np.array(dists), model.config.alpha, n))
    eta_l, eta_r = model.eta["dwa.eta_l"], model.eta["dwa.eta_r"]
    h_aw = ad.concat([ad.mul(feat, eta_l), feat, ad.mul(feat, eta_r)], axis=1)
    h_o = project_window(h_aw, model.head)
    pooled = feature(np.ones(n + 1))
    ref = classify(h_o, pooled, model.head)
    np.testing.assert_allclose(logits.values, ref.values, rtol=0, atol=1e-12)


def test_stacked_features_equal_one_head_sa_call_per_column():
    from lsa.encoder import self_attention_block

    model = tiny_model()
    ex = coherent_example(3)
    inputs = [model.forward_example(ex)]
    hidden, valid = model.global_context(inputs)
    alpha = model.config.alpha
    _, weights = position_weights(inputs, valid, alpha)
    assert weights.shape == (4, len(ex.tokens) + 1)
    assert np.array_equal(weights[-1], np.ones(len(ex.tokens) + 1))
    stacked = aspect_feature_local(hidden, valid, inputs, alpha, model.head.sa, model.config.heads)
    assert stacked.shape == (4, model.config.d_model)
    for a in range(4):
        single = self_attention_block(
            hidden, model.head.sa, model.config.heads, valid, source=[0], scale=weights[a:a + 1],
        )
        np.testing.assert_allclose(stacked.values[a], single.values[0], rtol=0, atol=1e-12)


def test_one_head_sa_call_per_batch(monkeypatch):
    import lsa.window

    calls = []
    original = lsa.window.self_attention_block

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(lsa.window, "self_attention_block", counted)
    model = tiny_model()
    logits = model.forward([coherent_example(3), coherent_example(2)])
    assert logits.shape == (5, 3)
    assert len(calls) == 1 and calls[0][0] == 7  # 3 + 2 aspects, one pooled row each


def test_backbone_only_is_mono_aspect_path_for_every_example():
    """The backbone (k = 0) sees each aspect alone."""
    model = tiny_model(k=0)
    ex = coherent_example(3)
    logits = model.forward([ex])

    # one batch of three mono-aspect examples: the window, projection and
    # classifier see three pairs as above, but head.sa sees 6 rows of 3
    # sequences instead of 4 rows of one, so the comparison allows rounding
    monos = [Example(ex.text, ex.tokens, [ex.aspects[j]]) for j in range(3)]
    ref = model.forward(monos)
    np.testing.assert_allclose(logits.values, ref.values, rtol=0, atol=1e-12)


def test_variant_lsa_p_drops_global_feature():
    model = tiny_model(variant="lsa_p")
    assert model.head.w_dec.shape[0] == model.config.d_model
    ex = coherent_example(2)
    probs = softmax(model.forward([ex]).values)
    assert all(abs(p.sum() - 1.0) <= 1e-12 for p in probs)


def test_lsa_p_feature_differs_when_aspect_differs():
    # k = 0: each aspect's window holds only its own feature
    model = tiny_model(
        variant="lsa_p", k=0,
        vocab_tokens=["w0", "w1", "screen", "battery"],
    )
    tokens = ["w0", "screen", "w1", "battery"]
    ex = Example(
        " ".join(tokens),
        tokens,
        [
            AspectAnnotation(1, 2, ("screen",), Polarity.POSITIVE),
            AspectAnnotation(3, 4, ("battery",), Polarity.POSITIVE),
        ],
    )
    logits = model.forward([ex])
    assert not np.allclose(logits.values[0], logits.values[1])


def spc_model(max_len):
    model = tiny_model(variant="lsa_p", vocab_tokens=["a", "b", "c", "d"], max_len=max_len)
    return model, model.vocab.token_to_id, model.vocab.cls_id, model.vocab.sep_id


def spc_example(tokens, *spans):
    return Example(" ".join(tokens), tokens, [
        AspectAnnotation(a, b, tuple(tokens[a:b]), Polarity.POSITIVE) for a, b in spans])


def test_spc_layout():
    """lsa_p's input of an aspect is [CLS] context [SEP] term [SEP]."""
    model, ids, cls, sep = spc_model(16)
    inputs = model.forward_example(spc_example(["a", "b"], (1, 2)))
    assert [x.tolist() for x in inputs.sequences] == [[cls, ids["a"], ids["b"], sep, ids["b"], sep]]
    assert inputs.sequences[0].dtype == np.int64 and inputs.spans is None


def test_spc_truncates_context_never_aspect():
    """The context is cut from the right to max_len - 3 - |term| tokens."""
    model, ids, cls, sep = spc_model(10)
    (spc,) = model.forward_example(spc_example(["b", "c"] + ["a"] * 48, (0, 2))).sequences
    b, c, a = ids["b"], ids["c"], ids["a"]
    assert spc.tolist() == [cls, b, c, a, a, a, sep, b, c, sep]


def test_spc_rejects_oversized_aspect():
    """A term that leaves the context less than no room is a DataError
    located at its example."""
    model, *_ = spc_model(10)
    with pytest.raises(DataError, match=r"^dataset: examples\[1\]: aspect of 8 tokens cannot fit "
                                        r"max length 10$"):
        model.forward([spc_example(["a", "b"], (0, 1)), spc_example(["a"] * 8, (0, 8))])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spc_inputs_equal_the_reference(data):
    """An lsa_p example of 1 to 2 x max_len tokens with 1-3 aspects of 1
    to max_len tokens, max_len 4-32: ``forward_example`` gives the
    reference's SPC input of each aspect on the context, the first
    max_len - 1 tokens, id for id and as int64; or it refuses the example
    as a DataError, with the text of the reference's refusal or of an
    aspect past the context."""
    max_len = data.draw(st.integers(4, 32))
    model = tiny_model(variant="lsa_p", max_len=max_len)
    n = data.draw(st.integers(1, 2 * max_len))
    tokens = data.draw(st.lists(st.sampled_from(["w0", "w1", "w11", "unseen", "[SEP]"]),
                                min_size=n, max_size=n))
    spans, end = [], 0
    for _ in range(data.draw(st.integers(1, 3))):
        if end < n:
            start = data.draw(st.integers(end, n - 1))
            end = start + data.draw(st.integers(1, min(max_len, n - start)))
            spans.append((start, end))
    example = spc_example(tokens, *spans)
    context = tokens[:max_len - 1]
    expected = [outcome(reference_spc_input, context, list(a.term), model.vocab, max_len)
                for a in example.aspects]
    got = outcome(model.forward_example, example)
    past = [a for a in example.aspects if a.end > len(context)]
    refused = [text for kind, text in expected if kind != "ok"]
    if past:
        a = past[0]
        assert got == ("DataError", f"aspect [{a.start}, {a.end}) extends past the "
                                    f"{max_len - 1}-token context limit")
    elif refused:
        assert got == ("DataError", refused[0])
    else:
        assert got[0] == "ok" and got[1].aspects == len(expected)
        for ids, (_, reference) in zip(got[1].sequences, expected, strict=True):
            assert ids.dtype == reference.dtype == np.int64
            assert ids.tolist() == reference.tolist()


def test_lsa_s_uses_tree_and_falls_back_without_parse():
    from lsa.distance import DependencyTree

    model = tiny_model(variant="lsa_s")
    tokens = ["w0", "screen", "w1", "battery"]
    ex = Example(
        " ".join(tokens),
        tokens,
        [AspectAnnotation(1, 2, ("screen",), Polarity.POSITIVE)],
        parse_ref="p1",
    )
    tree = DependencyTree(tuple(tokens), (2, 0, 2, 3))
    with_tree = model.forward([ex], {"p1": tree})
    assert model.syntax_fallbacks == 0
    without = model.forward([ex], None)
    assert model.syntax_fallbacks == 1
    assert with_tree.shape == without.shape


def test_lsa_s_aligns_once_per_example(monkeypatch):
    import lsa.window
    from lsa.distance import DependencyTree

    calls = []
    original = lsa.window.align_tokens_to_words

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lsa.window, "align_tokens_to_words", counted)
    model = tiny_model(variant="lsa_s")
    ex = coherent_example(3)
    tree = DependencyTree(tuple(ex.tokens), (0,) + (1,) * (len(ex.tokens) - 1))
    ex.parse_ref = "p1"
    assert model.forward([ex], {"p1": tree}).shape[0] == 3
    assert len(calls) == 1
    assert model.syntax_fallbacks == 0


def test_lsa_s_fallback_warning_names_the_example(caplog):
    model = tiny_model(variant="lsa_s")
    ex = coherent_example(2)
    with caplog.at_level("WARNING", logger="lsa.window"):
        model.forward_example(ex, None)
    assert model.syntax_fallbacks == 1
    assert "None" not in caplog.text
    assert repr(ex.text[:40]) in caplog.text


def test_lsa_s_falls_back_when_the_parse_does_not_align(caplog):
    from lsa.distance import DependencyTree
    from lsa.encoder import tokenize

    text = "the food don't taste good"
    tokens = tokenize(text)  # the food don ' t taste good
    model = tiny_model(variant="lsa_s", vocab_tokens=tokens)
    ex = Example(text, tokens, [AspectAnnotation(1, 2, ("food",), Polarity.POSITIVE)],
                 parse_ref="p1")
    tree = DependencyTree(("the", "food", "do", "n't", "taste", "good"), (2, 5, 5, 5, 0, 5))
    with caplog.at_level("WARNING", logger="lsa.window"):
        logits = model.forward([ex], {"p1": tree})
    assert model.syntax_fallbacks == 1
    assert repr(text[:40]) in caplog.text
    assert np.array_equal(logits.values, model.forward([ex], None).values)  # positional


def test_lsa_s_keeps_syntax_past_the_context_limit():
    """A sentence longer than the context keeps its tree distances: its
    full token list is aligned to the parse, and the distances of the
    tokens the context keeps are read."""
    tokens = [f"w{i % 12}" for i in range(40)]
    model = tiny_model(variant="lsa_s")  # max_len 32: the context keeps 31 tokens
    ex = Example(" ".join(tokens), tokens,
                 [AspectAnnotation(2, 3, ("w2",), Polarity.POSITIVE)], parse_ref="p1")
    tree = DependencyTree(tuple(tokens), (0,) + (1,) * 39)  # every word under the first
    inputs = [model.forward_example(ex, {"p1": tree})]
    _, weights = position_weights(inputs, valid_of(inputs), model.config.alpha)
    assert model.syntax_fallbacks == 0
    n = model.config.max_len - 1
    distances = [n, 1, 2, 0] + [2] * (n - 3)  # word 2 hangs from word 0, as all others do
    expected = np.stack([position_weight(distances, model.config.alpha, n), np.ones(n + 1)])
    np.testing.assert_array_equal(weights, expected)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_names_the_example_with_an_aspect_past_the_context(variant):
    """``Model.forward`` builds its inputs with ``Model.host_inputs``, so a
    fault names the example's index, in a dataset of no file."""
    model = tiny_model(variant=variant)  # max_len 32: the context keeps 31 tokens
    tokens = [f"w{i % 12}" for i in range(40)]
    past = Example(" ".join(tokens), tokens,
                   [AspectAnnotation(35, 36, ("w11",), Polarity.POSITIVE)])
    with pytest.raises(DataError, match=r"^dataset: examples\[2\]: aspect \[35, 36\) extends "
                                        r"past the 31-token context limit$"):
        model.forward([make_example(["positive"]), make_example([]), past])


@pytest.mark.parametrize(
    "flags, expected",
    [
        ({}, (["dwa.eta_l", "dwa.eta_r"], (0.5, 0.5))),
        ({"la_only": True}, (["dwa.eta_l"], (0.5, 1.0))),
        ({"ra_only": True}, (["dwa.eta_r"], (1.0, 0.5))),
        ({"no_dwa": True}, ([], (1.0, 1.0))),
        ({"k": 0}, ([], (1.0, 1.0))),
        ({"no_dwa": True, "frozen_eta": (0.3, 0.7)}, ([], (0.3, 0.7))),
        ({"la_only": True, "no_dwa": True, "frozen_eta": (0.3, 0.7)}, ([], (0.3, 1.0))),
        ({"ra_only": True, "no_dwa": True, "frozen_eta": (0.3, 0.7)}, ([], (1.0, 0.7))),
    ],
)
def test_eta_parameters_are_the_sides_the_window_uses(flags, expected):
    """The model holds exactly the side weights it learns, each set to 0.5
    here, and a side with no slot reads as 1, also when it is frozen."""
    names, values = expected
    model = tiny_model(**flags)
    assert sorted(model.eta_parameters()) == names
    assert sorted(n for n in model.named_parameters() if n.startswith("dwa.")) == names
    assert not set(model.main_parameters()) & set(names)
    for t in model.eta.values():
        t.values[0] = 0.5
    assert model.eta_values() == values


def test_model_config_rejects_contradictory_ablations():
    with pytest.raises(ConfigError):
        ModelConfig(la_only=True, ra_only=True)
    for side in ("la_only", "ra_only"):  # at k = 0 a second spelling of the backbone
        with pytest.raises(ConfigError, match="need k >= 1"):
            ModelConfig(k=0, **{side: True})
    with pytest.raises(ConfigError, match="no_dwa needs k >= 1"):  # so is no_dwa
        ModelConfig(k=0, no_dwa=True)
    with pytest.raises(ConfigError, match="requires no_dwa and k >= 1"):  # no side to weight
        ModelConfig(k=0, no_dwa=True, frozen_eta=(0.3, 0.7))
    with pytest.raises(ConfigError):
        ModelConfig(k=-1)
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(variant="nope")


def test_position_weight_never_increases_row_norm():
    model = tiny_model()
    ex = coherent_example(2)
    inputs = [model.forward_example(ex)]
    hc, valid = model.global_context(inputs)
    _, w = position_weights(inputs, valid, model.config.alpha)
    weighted = hc.values * w[..., None]
    norms_before = np.linalg.norm(hc.values, axis=-1)
    norms_after = np.linalg.norm(weighted, axis=-1)
    assert np.all(norms_after <= norms_before + 1e-15)


# ---------------------------------------------------------------------------
# batched forward


def mini_model(variant):
    dataset = load_dataset(FIXTURES / "mini.json")
    tokens = sorted({t for ex in dataset.examples for t in ex.tokens})
    model = tiny_model(seed=5, variant=variant, vocab_tokens=tokens)
    model.eta["dwa.eta_l"].values[0] = 0.8  # side weights away from 1
    model.eta["dwa.eta_r"].values[0] = 1.3
    return model, [ex for ex in dataset.examples if ex.aspects]


def forward_in_groups(variant, groups):
    """Each pair's logits, in example order, and the gradient of the
    summed cross-entropy, forwarding the examples of each group together."""
    model, examples = mini_model(variant)
    trees = load_parses(FIXTURES / "mini.conllu")
    rows = {}
    for group in groups:
        batch = [examples[i] for i in group]
        tape = ad.Tape()
        with tape:
            logits = model.forward(batch, trees)
            golds = [a.polarity.index for ex in batch for a in ex.aspects]
            loss = ad.cross_entropy(logits, golds)
        tape.backward(loss)
        ends = np.cumsum([len(ex.aspects) for ex in batch])
        for i, part in zip(group, np.split(logits.values, ends[:-1])):
            rows[i] = part
    grads = {name: t.grad for name, t in model.named_parameters().items()}
    return np.concatenate([rows[i] for i in sorted(rows)]), grads


@pytest.mark.parametrize("variant", VARIANTS)
def test_batching_changes_no_probability_and_no_gradient(variant):
    _, examples = mini_model(variant)
    n = len(examples)
    order = np.random.default_rng(3).permutation(n).tolist()
    groupings = {
        "one per batch": [[i] for i in range(n)],
        "one batch": [list(range(n))],
        "shuffled groups": [order[0:1], order[1:4], order[4:6], order[6:]],
    }
    reference, ref_grads = forward_in_groups(variant, groupings.pop("one per batch"))
    for name, groups in groupings.items():
        logits, grads = forward_in_groups(variant, groups)
        np.testing.assert_allclose(logits, reference, rtol=0, atol=1e-12, err_msg=name)
        for param, g in grads.items():
            if ref_grads[param] is None:
                assert g is None, (name, param)
            else:
                np.testing.assert_allclose(
                    g, ref_grads[param], rtol=0, atol=1e-12, err_msg=f"{name}: {param}"
                )


@pytest.mark.parametrize("variant", ["lsa_t", "lsa_s"])
def test_head_sa_forms_no_scaled_copy_of_the_batch(variant):
    """head.sa reads the packed (N, d) hidden states and scales keys and
    values per feature row: no tape node holds a (feature rows, L, ·) array,
    nor a padded (S, L, ·) one."""
    model, examples = mini_model(variant)
    trees = load_parses(FIXTURES / "mini.conllu")
    _, valid = model.global_context([model.forward_example(ex, trees) for ex in examples])
    rows = sum(len(ex.aspects) + 1 for ex in examples)
    tape = ad.Tape()
    with tape:
        model.forward(examples, trees)
    leading = [node.output.shape[:2] for node in tape._nodes]
    assert (valid.sum(), model.config.d_model) in leading  # the encoder's packed rows
    assert valid.shape not in leading
    assert (rows, valid.shape[1]) not in leading


@pytest.mark.parametrize("variant", VARIANTS)
def test_padding_gets_no_gradient_and_changes_nothing(variant):
    model = tiny_model(variant=variant, vocab_tokens=["w0", "w1", "w2", "w3", "screen"])
    batch = [coherent_example(1), coherent_example(4), coherent_example(2)]
    pad = model.vocab.token_to_id[PAD]
    inputs = [model.forward_example(ex) for ex in batch]
    longest = max(len(ids) for x in inputs for ids in x.sequences)
    assert min(len(ids) for x in inputs for ids in x.sequences) < longest
    golds = [a.polarity.index for ex in batch for a in ex.aspects]
    tape = ad.Tape()
    with tape:
        logits = model.forward(batch)
        loss = ad.cross_entropy(logits, golds)
    tape.backward(loss)
    assert np.array_equal(model.encoder.embedding.grad[pad], np.zeros(model.config.d_model))
    assert np.array_equal(model.encoder.positional.grad[longest:], np.zeros_like(
        model.encoder.positional.values[longest:]))
    # the padding's embedding never reaches an output
    model.encoder.embedding.values[pad] += 100.0
    assert np.array_equal(model.forward(batch).values, logits.values)
