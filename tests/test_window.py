"""Position weighting, window construction/padding, differential weighting,
projection, classification, and the assembled model paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import AspectAnnotation, Example, Polarity
from lsa.encoder import ConfigError
from lsa.window import (
    DwaParams,
    ModelConfig,
    apply_dwa,
    aspect_feature_local,
    build_window,
    classify,
    position_weight,
    project_window,
)

from util import tiny_model

ad.set_debug_checks(True)


def feature(values):
    return ad.tensor(np.atleast_2d(values))


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
    with pytest.raises(ConfigError):
        aspect_feature_local(hc, np.ones((2, 3, 1)), model.head.sa, 2)


def test_position_weights_carry_no_gradient():
    """Weights are functions of integer positions: constants w.r.t. params."""
    model = tiny_model()
    ex = coherent_example(2)
    tape = ad.Tape()
    with tape:
        probs = model.forward_example(ex)
        loss = ad.cross_entropy(probs[0], 0)
    tape.backward(loss)
    # perturbing any parameter leaves distances/weights untouched; verified
    # by the full-path finite-difference agreement in the acceptance suite.
    assert model.encoder.embedding.grad is not None


# ---------------------------------------------------------------------------
# window construction and padding


def test_single_aspect_window_triples_target():
    target = feature([1.0, 2.0])
    window = build_window([target], 0, k=1)
    assert window.left == [target] and window.right == [target]


def test_leftmost_of_two_pads_left_slot():
    a, b = feature([1.0]), feature([2.0])
    window = build_window([a, b], 0, k=1)
    assert window.left == [a]
    assert window.right == [b]


def test_middle_of_three_no_padding():
    feats = [feature([float(i)]) for i in range(3)]
    window = build_window(feats, 1, k=1)
    assert window.left == [feats[0]]
    assert window.right == [feats[2]]


def test_window_consumes_neighbors_once_no_symmetrization():
    feats = [feature([1.0]), feature([2.0]), feature([3.0])]
    window = build_window(feats, 1, k=1)
    h = apply_dwa(window, None)
    assert h.values.tolist() == [[1.0, 2.0, 3.0]]
    swapped = [feats[2], feats[1], feats[0]]
    h2 = apply_dwa(build_window(swapped, 1, k=1), None)
    assert h2.values.tolist() == [[3.0, 2.0, 1.0]]


# ---------------------------------------------------------------------------
# differential weighted aggregation


def test_dwa_at_one_equals_plain_concat_bitwise():
    feats = [feature([1.3, -2.0]), feature([0.5, 4.0]), feature([9.0, 1.0])]
    window = build_window(feats, 1, k=1)
    plain = apply_dwa(window, None)
    dwa = apply_dwa(window, DwaParams())
    assert np.array_equal(plain.values, dwa.values)


def test_dwa_zero_left_gives_zero_third():
    feats = [feature([1.0, 2.0]), feature([3.0, 4.0]), feature([5.0, 6.0])]
    window = build_window(feats, 1, k=1)
    dwa = DwaParams()
    dwa.eta_l.values[0] = 0.0
    out = apply_dwa(window, dwa)
    assert out.values[0, :2].tolist() == [0.0, 0.0]
    assert out.values[0, 2:].tolist() == [3.0, 4.0, 5.0, 6.0]


def test_dwa_gradient_scales_linearly_in_eta():
    """With a zero left feature the downstream state is identical at any
    eta_l, so the gradient w.r.t. the left feature is exactly linear."""
    rng = np.random.default_rng(1)
    d = 4
    w_out = ad.tensor(rng.normal(size=(3 * d, 3)))
    target = feature(rng.normal(size=(1, d)))
    right = feature(rng.normal(size=(1, d)))

    def grad_at(eta_value):
        left = ad.parameter(np.zeros((1, d)))
        dwa = DwaParams()
        dwa.eta_l.values[0] = eta_value
        window = build_window([left, target, right], 1, k=1)
        tape = ad.Tape()
        with tape:
            h = apply_dwa(window, dwa)
            probs = ad.softmax(ad.matmul(h, w_out))
            loss = ad.cross_entropy(probs, 0)
        tape.backward(loss)
        return left.grad.copy()

    g_half = grad_at(0.5)
    g_one = grad_at(1.0)
    assert np.max(np.abs(g_half - 0.5 * g_one)) <= 1e-8


def test_frozen_eta_uses_constants():
    feats = [feature([2.0]), feature([3.0]), feature([4.0])]
    window = build_window(feats, 1, k=1)
    out = apply_dwa(window, None, frozen_eta=(0.5, 0.25))
    assert out.values.tolist() == [[1.0, 3.0, 1.0]]


def test_simplified_windows_keep_one_side():
    feats = [feature([1.0]), feature([2.0]), feature([3.0])]
    window = build_window(feats, 1, k=1)
    assert apply_dwa(window, None, sides="left").values.tolist() == [[1.0, 2.0]]
    assert apply_dwa(window, None, sides="right").values.tolist() == [[2.0, 3.0]]


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
    lhs = f(ad.smul(x, 2.0)) - f(x)
    rhs = f(x) - f(ad.smul(x, 0.0))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_project_window_gradients():
    from util import grad_check

    model = tiny_model()
    d = model.config.d_model
    x = ad.tensor(np.random.default_rng(3).normal(size=(1, 3 * d)))
    build = lambda: ad.sum_all(project_window(x, model.head))
    worst = grad_check(build, {"w": model.head.w_out, "b": model.head.b_out})
    assert worst <= 1e-6


def test_project_window_shape_error():
    model = tiny_model()
    with pytest.raises(ConfigError):
        project_window(ad.tensor(np.zeros((1, 7))), model.head)


def test_classify_output_on_simplex():
    model = tiny_model()
    ex = coherent_example(2)
    probs = model.forward_example(ex)
    assert len(probs) == 2
    for p in probs:
        assert p.shape == (1, 3)
        assert abs(p.values.sum() - 1.0) <= 1e-12


def test_argmax_invariant_under_logit_shift():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(1, 3))
    a = ad.softmax(ad.tensor(logits))
    b = ad.softmax(ad.tensor(logits + 7.5))
    assert np.argmax(a.values) == np.argmax(b.values)


# ---------------------------------------------------------------------------
# model paths


def test_mono_aspect_output_equals_reference_path_bitwise():
    from lsa.encoder import self_attention_block
    from lsa.window import position_weights

    model = tiny_model()
    ex = coherent_example(1)
    probs = model.forward_example(ex)[0]

    # reference path: one unbatched head.sa call for the aspect feature and
    # one for the pooled feature, then the tripled window built directly
    sa, heads = model.head.sa, model.config.heads
    hc = model.global_context(ex)
    n = len(ex.tokens)
    dists = [float(n)] + [float(abs(i - ex.aspects[0].start)) for i in range(n)]
    weighted = ad.mul(hc, ad.tensor(position_weights(dists, model.config.alpha, n)))
    feat = self_attention_block(weighted, sa, heads, query_rows=1)
    window = build_window([feat], 0, k=1)
    h_aw = apply_dwa(window, model.dwa)
    h_o = project_window(h_aw, model.head)
    pooled = self_attention_block(hc, sa, heads, query_rows=1)
    ref = classify(h_o, pooled, model.head)
    assert np.array_equal(probs.values, ref.values)


def test_stacked_features_equal_one_head_sa_call_per_column():
    from lsa.encoder import self_attention_block

    model = tiny_model()
    ex = coherent_example(3)
    hc = model.global_context(ex)
    weights = model._position_weights(ex, ex.tokens, None)
    assert weights.shape == (4, len(ex.tokens) + 1, 1)
    assert np.array_equal(weights[-1], np.ones((len(ex.tokens) + 1, 1)))
    stacked = aspect_feature_local(hc, weights, model.head.sa, model.config.heads)
    assert stacked.shape == (4, 1, model.config.d_model)
    for a in range(4):
        single = self_attention_block(
            ad.mul(hc, ad.tensor(weights[a])), model.head.sa, model.config.heads,
            query_rows=1,
        )
        assert np.array_equal(stacked.values[a], single.values)


def test_one_head_sa_call_per_example(monkeypatch):
    import lsa.window

    calls = []
    original = lsa.window.self_attention_block

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(lsa.window, "self_attention_block", counted)
    model = tiny_model()
    probs = model.forward_example(coherent_example(3))
    assert len(probs) == 3
    assert len(calls) == 1 and calls[0][0] == 4  # three aspects + pooled


def test_backbone_only_is_mono_aspect_path_for_every_example():
    model = tiny_model(backbone_only=True)
    ex = coherent_example(3)
    probs = model.forward_example(ex)

    for j in range(3):
        mono = Example(ex.text, ex.tokens, [ex.aspects[j]])
        ref = model.forward_example(mono)[0]
        assert np.array_equal(probs[j].values, ref.values)


def test_variant_lsa_p_drops_global_feature():
    model = tiny_model(variant="lsa_p")
    assert model.head.w_dec.shape[0] == model.config.d_model
    ex = coherent_example(2)
    probs = model.forward_example(ex)
    assert all(abs(p.values.sum() - 1.0) <= 1e-12 for p in probs)


def test_lsa_p_feature_differs_when_aspect_differs():
    # backbone_only: each aspect's window holds only its own feature
    model = tiny_model(
        variant="lsa_p", backbone_only=True,
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
    probs = model.forward_example(ex)
    assert not np.allclose(probs[0].values, probs[1].values)


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
    with_tree = model.forward_example(ex, {"p1": tree})
    assert model.syntax_fallbacks == 0
    without = model.forward_example(ex, None)
    assert model.syntax_fallbacks == 1
    assert with_tree[0].shape == without[0].shape


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
    assert len(model.forward_example(ex, {"p1": tree})) == 3
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


@pytest.mark.parametrize(
    "flags, expected",
    [
        ({}, ["dwa.eta_l", "dwa.eta_r"]),
        ({"la_only": True}, ["dwa.eta_l"]),
        ({"ra_only": True}, ["dwa.eta_r"]),
        ({"no_dwa": True}, []),
    ],
)
def test_eta_parameters_are_the_sides_the_window_uses(flags, expected):
    assert sorted(tiny_model(**flags).eta_parameters()) == expected


def test_model_config_rejects_contradictory_ablations():
    with pytest.raises(ConfigError):
        ModelConfig(la_only=True, ra_only=True).validate()
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, heads=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(variant="nope").validate()


def test_position_weight_never_increases_row_norm():
    model = tiny_model()
    ex = coherent_example(2)
    hc = model.global_context(ex)
    w = model._position_weights(ex, ex.tokens, None)
    weighted = hc.values * w
    norms_before = np.linalg.norm(hc.values, axis=-1)
    norms_after = np.linalg.norm(weighted, axis=-1)
    assert np.all(norms_after <= norms_before + 1e-15)
