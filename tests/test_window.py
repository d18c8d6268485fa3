"""Position weighting, window construction/padding, differential weighting,
projection, classification, and the assembled model paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import AspectAnnotation, Example, Polarity, load_dataset
from lsa.distance import DependencyTree, load_parses, tree_shortest_distance
from lsa.encoder import ConfigError
from lsa.window import (
    VARIANTS,
    DwaParams,
    ModelConfig,
    apply_dwa,
    aspect_feature_local,
    build_window,
    classify,
    position_weight,
    project_window,
)

from util import FIXTURES, sum_all, tiny_model

ad.set_debug_checks(True)


def features(*rows):
    """A (rows, d) feature tensor, one row per argument."""
    return ad.tensor(np.array(rows, dtype=float))


MIDDLE_OF_THREE = build_window([0], [3], k=1)[1:2]  # the window of aspect 1 of 3


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


def reference_weight(d, alpha, n):
    return 1.0 if d <= alpha else max(0.0, 1.0 - (d - alpha) / n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_position_weights_equal_the_scalar_reference(data):
    """Each column equals the per-token scalar formula on the positional
    or the tree distance, bitwise."""
    n = data.draw(st.integers(1, 16))
    tokens = [f"t{i}" for i in range(n)]
    points = sorted(data.draw(st.sets(st.integers(0, n), min_size=2, max_size=8)))
    spans = list(zip(points[0::2], points[1::2]))
    aspects = [AspectAnnotation(a, b, tuple(tokens[a:b]), Polarity.POSITIVE) for a, b in spans]
    # words are runs of tokens; the tree hangs each word below an earlier one
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)))) - {n})
    bounds = [0, *cuts, n]
    words = ["".join(tokens[a:b]) for a, b in zip(bounds, bounds[1:])]
    order = data.draw(st.permutations(range(len(words))))
    heads = [0] * len(words)
    for rank, word in enumerate(order[1:], 1):
        heads[word] = order[data.draw(st.integers(0, rank - 1))] + 1
    tree = DependencyTree(tuple(words), tuple(heads))
    token_word = [w for w, (a, b) in enumerate(zip(bounds, bounds[1:])) for _ in range(a, b)]
    alpha = data.draw(st.sampled_from([0.0, 1.0, 3.0, 4.5]))

    example = Example(" ".join(tokens), tokens, aspects, parse_ref="p")
    for variant in ("lsa_t", "lsa_s"):
        model = tiny_model(variant=variant, alpha=alpha)
        got = model._position_weights(example, tokens, {"p": tree})
        assert model.syntax_fallbacks == 0
        for row, (a, b) in zip(got, spans):
            if variant == "lsa_s":
                dist = [
                    sum(tree_shortest_distance(tree, token_word[i], token_word[t])
                        for t in range(a, b)) / (b - a)
                    for i in range(n)
                ]
            else:
                dist = [sum(abs(i - t) for t in range(a, b)) / (b - a) for i in range(n)]
            expected = [reference_weight(d, alpha, n) for d in [float(n)] + dist]
            assert np.array_equal(row, expected)
        assert np.array_equal(got[-1], np.ones(n + 1))


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
    with pytest.raises(ConfigError):
        aspect_feature_local(hc, valid, [np.ones((2, 3, 1))], model.head.sa, 2)


def test_position_weights_carry_no_gradient():
    """Weights are functions of integer positions: constants w.r.t. params."""
    model = tiny_model()
    ex = coherent_example(2)
    tape = ad.Tape()
    with tape:
        probs = model.forward([ex])
        loss = ad.cross_entropy(probs, [0, 0])
    tape.backward(loss)
    # perturbing any parameter leaves distances/weights untouched; verified
    # by the full-path finite-difference agreement in the acceptance suite.
    assert model.encoder.embedding.grad is not None


# ---------------------------------------------------------------------------
# window construction and padding


def test_single_aspect_window_triples_target():
    assert build_window([0], [1], k=1).tolist() == [[0, 0, 0]]


def test_leftmost_of_two_pads_left_slot():
    window = build_window([0], [2], k=1)
    assert window[0].tolist() == [0, 0, 1]


def test_middle_of_three_no_padding():
    assert MIDDLE_OF_THREE.tolist() == [[0, 1, 2]]


def test_window_consumes_neighbors_once_no_symmetrization():
    feats = features([1.0], [2.0], [3.0])
    h = apply_dwa(feats, MIDDLE_OF_THREE, None)
    assert h.values.tolist() == [[1.0, 2.0, 3.0]]
    swapped = features([3.0], [2.0], [1.0])
    h2 = apply_dwa(swapped, MIDDLE_OF_THREE, None)
    assert h2.values.tolist() == [[3.0, 2.0, 1.0]]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=1, max_size=5),
    st.integers(1, 3),
    st.sampled_from(["both", "left", "right"]),
    st.booleans(),
)
def test_window_index_properties(examples, k, sides, backbone_only):
    """``examples`` holds each example's aspect count and the rows between
    it and the next example (the pooled row of lsa_t is one such row)."""
    counts = [c for c, _ in examples]
    starts = np.cumsum([0] + [c + gap for c, gap in examples])[:-1]
    window = build_window(starts, counts, k, sides, backbone_only)
    left = 0 if sides == "right" else k
    right = 0 if sides == "left" else k
    assert window.shape == (sum(counts), left + 1 + right)
    pair = 0
    for start, count in zip(starts, counts):
        for j in range(count):
            target = start + j
            row = window[pair].tolist()
            pair += 1
            assert row[left] == target
            if backbone_only:
                assert row == [target] * len(row)
                continue
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
    plain = apply_dwa(feats, MIDDLE_OF_THREE, None)
    dwa = apply_dwa(feats, MIDDLE_OF_THREE, DwaParams())
    assert np.array_equal(plain.values, dwa.values)


def test_dwa_zero_left_gives_zero_third():
    feats = features([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
    dwa = DwaParams()
    dwa.eta_l.values[0] = 0.0
    out = apply_dwa(feats, MIDDLE_OF_THREE, dwa)
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
        dwa = DwaParams()
        dwa.eta_l.values[0] = eta_value
        tape = ad.Tape()
        with tape:
            feats = ad.concat([left, target, right], axis=0)
            h = apply_dwa(feats, MIDDLE_OF_THREE, dwa)
            probs = ad.softmax(ad.matmul(h, w_out))
            loss = ad.cross_entropy(probs, 0)
        tape.backward(loss)
        return left.grad.copy()

    g_half = grad_at(0.5)
    g_one = grad_at(1.0)
    assert np.max(np.abs(g_half - 0.5 * g_one)) <= 1e-8


def test_frozen_eta_uses_constants():
    feats = features([2.0], [3.0], [4.0])
    out = apply_dwa(feats, MIDDLE_OF_THREE, None, frozen_eta=(0.5, 0.25))
    assert out.values.tolist() == [[1.0, 3.0, 1.0]]


def test_simplified_windows_keep_one_side():
    feats = features([1.0], [2.0], [3.0])
    left = build_window([0], [3], k=1, sides="left")[1:2]
    right = build_window([0], [3], k=1, sides="right")[1:2]
    assert apply_dwa(feats, left, None, sides="left").values.tolist() == [[1.0, 2.0]]
    assert apply_dwa(feats, right, None, sides="right").values.tolist() == [[2.0, 3.0]]


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
    model = tiny_model()
    ex = coherent_example(2)
    probs = model.forward([ex])
    assert probs.shape == (2, 3)
    for p in probs.values:
        assert abs(p.sum() - 1.0) <= 1e-12


def test_argmax_invariant_under_logit_shift():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(1, 3))
    a = ad.softmax(ad.tensor(logits))
    b = ad.softmax(ad.tensor(logits + 7.5))
    assert np.argmax(a.values) == np.argmax(b.values)


# ---------------------------------------------------------------------------
# model paths


def test_mono_aspect_output_equals_reference_path():
    from lsa.encoder import self_attention_block

    model = tiny_model()
    ex = coherent_example(1)
    probs = model.forward([ex])

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
    eta_l, eta_r = model.dwa.eta_l, model.dwa.eta_r
    h_aw = ad.concat([ad.mul(feat, eta_l), feat, ad.mul(feat, eta_r)], axis=1)
    h_o = project_window(h_aw, model.head)
    pooled = feature(np.ones(n + 1))
    ref = classify(h_o, pooled, model.head)
    np.testing.assert_allclose(probs.values, ref.values, rtol=0, atol=1e-12)


def test_stacked_features_equal_one_head_sa_call_per_column():
    from lsa.encoder import self_attention_block

    model = tiny_model()
    ex = coherent_example(3)
    hidden, valid = model.global_context([model.forward_example(ex)])
    weights = model._position_weights(ex, ex.tokens, None)
    assert weights.shape == (4, len(ex.tokens) + 1)
    assert np.array_equal(weights[-1], np.ones(len(ex.tokens) + 1))
    stacked = aspect_feature_local(hidden, valid, [weights], model.head.sa, model.config.heads)
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
    probs = model.forward([coherent_example(3), coherent_example(2)])
    assert probs.shape == (5, 3)
    assert len(calls) == 1 and calls[0][0] == 7  # 3 + 2 aspects, one pooled row each


def test_backbone_only_is_mono_aspect_path_for_every_example():
    model = tiny_model(backbone_only=True)
    ex = coherent_example(3)
    probs = model.forward([ex])

    # one batch of three mono-aspect examples: the window, projection and
    # classifier see three pairs as above, but head.sa sees 6 rows of 3
    # sequences instead of 4 rows of one, so the comparison allows rounding
    monos = [Example(ex.text, ex.tokens, [ex.aspects[j]]) for j in range(3)]
    ref = model.forward(monos)
    np.testing.assert_allclose(probs.values, ref.values, rtol=0, atol=1e-12)


def test_variant_lsa_p_drops_global_feature():
    model = tiny_model(variant="lsa_p")
    assert model.head.w_dec.shape[0] == model.config.d_model
    ex = coherent_example(2)
    probs = model.forward([ex])
    assert all(abs(p.sum() - 1.0) <= 1e-12 for p in probs.values)


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
    probs = model.forward([ex])
    assert not np.allclose(probs.values[0], probs.values[1])


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
        probs = model.forward([ex], {"p1": tree})
    assert model.syntax_fallbacks == 1
    assert repr(text[:40]) in caplog.text
    assert np.array_equal(probs.values, model.forward([ex], None).values)  # positional


def test_lsa_s_keeps_syntax_past_the_context_limit():
    """A sentence longer than the context keeps its tree distances: its
    full token list is aligned to the parse, and the distances of the
    tokens the context keeps are read."""
    tokens = [f"w{i % 12}" for i in range(40)]
    model = tiny_model(variant="lsa_s")  # max_len 32: the context keeps 31 tokens
    ex = Example(" ".join(tokens), tokens,
                 [AspectAnnotation(2, 3, ("w2",), Polarity.POSITIVE)], parse_ref="p1")
    tree = DependencyTree(tuple(tokens), (0,) + (1,) * 39)  # every word under the first
    weights = model.forward_example(ex, {"p1": tree}).weights
    assert model.syntax_fallbacks == 0
    n = model.config.max_len - 1
    distances = np.concatenate([[n], tree.distances[:n, 2]])
    expected = np.stack([position_weight(distances, model.config.alpha, n), np.ones(n + 1)])
    np.testing.assert_array_equal(weights, expected)


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
    hc, _ = model.global_context([model.forward_example(ex)])
    w = model._position_weights(ex, ex.tokens, None)
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
    model.dwa.eta_l.values[0] = 0.8  # side weights away from 1
    model.dwa.eta_r.values[0] = 1.3
    return model, [ex for ex in dataset.examples if ex.aspects]


def forward_in_groups(variant, groups):
    """Each pair's probabilities, in example order, and the gradient of the
    summed cross-entropy, forwarding the examples of each group together."""
    model, examples = mini_model(variant)
    trees = load_parses(FIXTURES / "mini.conllu")
    rows = {}
    for group in groups:
        batch = [examples[i] for i in group]
        tape = ad.Tape()
        with tape:
            probs = model.forward(batch, trees)
            golds = [a.polarity.index for ex in batch for a in ex.aspects]
            loss = ad.cross_entropy(probs, golds)
        tape.backward(loss)
        ends = np.cumsum([len(ex.aspects) for ex in batch])
        for i, part in zip(group, np.split(probs.values, ends[:-1])):
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
        probs, grads = forward_in_groups(variant, groups)
        np.testing.assert_allclose(probs, reference, rtol=0, atol=1e-12, err_msg=name)
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
    pad = model.vocab.pad_id
    inputs = [model.forward_example(ex) for ex in batch]
    longest = max(len(ids) for x in inputs for ids in x.sequences)
    assert min(len(ids) for x in inputs for ids in x.sequences) < longest
    golds = [a.polarity.index for ex in batch for a in ex.aspects]
    tape = ad.Tape()
    with tape:
        probs = model.forward(batch)
        loss = ad.cross_entropy(probs, golds)
    tape.backward(loss)
    assert np.array_equal(model.encoder.embedding.grad[pad], np.zeros(model.config.d_model))
    assert np.array_equal(model.encoder.positional.grad[longest:], np.zeros_like(
        model.encoder.positional.values[longest:]))
    # the padding's embedding never reaches an output
    model.encoder.embedding.values[pad] += 100.0
    assert np.array_equal(model.forward(batch).values, probs.values)
