"""Contracts and gradient checks for every tensor operation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.autodiff import ShapeError, TapeError, Tensor

from util import grad_check, rel_err

ad.set_debug_checks(True)


def randn(rng, *shape):
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = ad.tensor(np.eye(2))
    m = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(eye, m).values, m.values)


def test_matmul_hand_case():
    a = ad.tensor([[1.0, 0.0]])
    b = ad.tensor([[0.0], [5.0]])
    assert ad.matmul(a, b).values.tolist() == [[0.0]]


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    a = ad.parameter(randn(rng, 4, 3))
    b = ad.parameter(randn(rng, 3, 2))
    worst = grad_check(lambda: ad.sum_all(ad.matmul(a, b)), {"a": a, "b": b})
    assert worst <= 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# concat


def test_concat_1d():
    out = ad.concat([ad.tensor([1.0]), ad.tensor([2.0])], axis=0)
    assert out.values.tolist() == [1.0, 2.0]


def test_concat_three_vectors_gives_triple_width():
    d = 5
    parts = [ad.tensor(np.full((1, d), float(i))) for i in range(3)]
    out = ad.concat(parts, axis=1)
    assert out.shape == (1, 3 * d)


def test_concat_backward_routes_ones_to_each_part():
    parts = [ad.parameter([1.0, 2.0]), ad.parameter([3.0])]
    tape = ad.Tape()
    with tape:
        out = ad.sum_all(ad.concat(parts, axis=0))
    tape.backward(out)
    assert parts[0].grad.tolist() == [1.0, 1.0]
    assert parts[1].grad.tolist() == [1.0]


def test_concat_errors():
    with pytest.raises(ShapeError):
        ad.concat([], axis=0)
    with pytest.raises(ShapeError):
        ad.concat([ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros((2, 3)))], axis=1)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    out = ad.softmax(ad.tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.values, [1 / 3] * 3, atol=1e-15)


def test_softmax_stabilized_no_overflow():
    out = ad.softmax(ad.tensor([1e9, 0.0, 0.0]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0] == pytest.approx(1.0)


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    v = ad.parameter(randn(rng, 5))
    eps = 1e-6
    for i in range(5):
        v.grad = None
        tape = ad.Tape()
        with tape:
            out = ad.softmax(v)
            picked = ad.sum_all(ad.mul(out, ad.tensor(np.eye(5)[i])))
        tape.backward(picked)
        analytic = v.grad.copy()

        def f():
            shifted = v.values - v.values.max()
            e = np.exp(shifted)
            return float((e / e.sum())[i])

        fd = ad.finite_difference_gradient(f, v, eps)
        assert rel_err(analytic, fd) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-30, 30))
def test_softmax_sums_to_one_and_shift_invariant(vals, shift):
    a = ad.softmax(ad.tensor(vals))
    assert abs(a.values.sum() - 1.0) <= 1e-12
    b = ad.softmax(ad.tensor(np.array(vals) + shift))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_perfect_prediction():
    assert ad.cross_entropy(ad.tensor([1.0, 0.0, 0.0]), 0).item() == 0.0


def test_cross_entropy_uniform():
    out = ad.cross_entropy(ad.tensor([1 / 3, 1 / 3, 1 / 3]), 2)
    assert out.item() == pytest.approx(math.log(3.0), rel=1e-12)


def test_cross_entropy_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.random(4) + 1e-3
        probs = v / v.sum()
        gold = int(rng.integers(0, 4))
        out = ad.cross_entropy(ad.tensor(probs), gold)
        assert out.item() == pytest.approx(-math.log(probs[gold]), rel=1e-12)


def test_cross_entropy_clamps_at_zero_probability():
    out = ad.cross_entropy(ad.tensor([0.0, 1.0]), 0)
    assert out.item() == pytest.approx(-math.log(1e-12))


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(ShapeError):
        ad.cross_entropy(ad.tensor([0.5, 0.5]), 2)
    with pytest.raises(ShapeError):
        ad.cross_entropy(ad.tensor(np.full((2, 2), 0.5)), [0])


def test_cross_entropy_over_gold_array_gradients():
    rng = np.random.default_rng(22)
    raw = rng.random((4, 3)) + 0.1
    probs = ad.parameter(raw / raw.sum(axis=1, keepdims=True))
    gold = np.array([0, 2, 1, 2])
    out = ad.cross_entropy(probs, gold)
    assert out.shape == (1,)
    expected = -sum(math.log(probs.values[i, g]) for i, g in enumerate(gold))
    assert out.item() == pytest.approx(expected, rel=1e-12)
    assert grad_check(lambda: ad.cross_entropy(probs, gold), {"probs": probs}) <= 1e-6


def test_cross_entropy_clamped_row_passes_no_gradient():
    live = ad.parameter(np.array([[0.2, 0.5, 0.3]]))
    clamped = ad.parameter(np.array([[0.0, 0.6, 0.4]]))

    def build():
        return ad.cross_entropy(ad.concat([live, clamped], axis=0), [1, 0])

    assert build().item() == pytest.approx(-math.log(0.5) - math.log(ad.LOG_CLAMP))
    assert grad_check(build, {"live": live}) <= 1e-6
    # steps that stay under the clamp: the clamped row is constant
    assert grad_check(build, {"clamped": clamped}, eps=1e-14) == 0.0
    assert np.array_equal(clamped.grad, np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# backward / tape semantics


def test_backward_identity_leaf():
    x = ad.parameter([3.0])
    tape = ad.Tape()
    with tape:
        y = x
    tape.backward(y)
    assert x.grad.tolist() == [1.0]


def test_backward_accumulates_across_uses():
    x = ad.parameter([3.0])
    tape = ad.Tape()
    with tape:
        y = ad.add(x, x)
    tape.backward(y)
    assert x.grad.tolist() == [2.0]


def test_backward_rejects_non_scalar_root():
    x = ad.parameter([1.0, 2.0])
    tape = ad.Tape()
    with tape:
        y = ad.add(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)


def test_backward_rejects_consumed_tape():
    x = ad.parameter([1.0])
    tape = ad.Tape()
    with tape:
        y = ad.add(x, x)
    tape.backward(y)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_backward_order_independence():
    rng = np.random.default_rng(4)
    x = ad.parameter(randn(rng, 3))
    y = ad.parameter(randn(rng, 3))

    def forward():
        a = ad.mul(x, x)
        b = ad.mul(y, y)
        c = ad.add(a, b)
        return ad.sum_all(c)

    tape = ad.Tape()
    with tape:
        loss = forward()
    tape.backward(loss)
    gx = x.grad.copy()
    x.grad = y.grad = None

    tape2 = ad.Tape()
    with tape2:
        loss2 = forward()
    # a and b are independent: swapping them is still topological
    tape2.backward(loss2, order=[1, 0, 2, 3])
    assert np.max(np.abs(x.grad - gx)) <= 1e-10

    tape3 = ad.Tape()
    with tape3:
        loss3 = forward()
    with pytest.raises(TapeError):
        tape3.backward(loss3, order=[3, 2, 1, 0])


def test_backward_full_affine_chain_matches_fd():
    rng = np.random.default_rng(5)
    w = ad.parameter(randn(rng, 4, 3))
    b = ad.parameter(randn(rng, 3))
    x = ad.tensor(randn(rng, 2, 4))

    def build():
        return ad.sum_all(ad.tanh(ad.add(ad.matmul(x, w), b)))

    assert grad_check(build, {"w": w, "b": b}) <= 1e-6


# ---------------------------------------------------------------------------
# remaining primitives: add, mul, smul, transpose, slices, gather,
# tanh, layer_norm, sum_all


def test_add_broadcasts_bias_row():
    m = ad.tensor(np.ones((2, 3)))
    b = ad.parameter(np.array([1.0, 2.0, 3.0]))
    out = ad.add(m, b)
    assert out.values.tolist() == [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]]
    tape = ad.Tape()
    with tape:
        loss = ad.sum_all(ad.add(m, b))
    tape.backward(loss)
    assert b.grad.tolist() == [2.0, 2.0, 2.0]


def test_add_shape_error():
    with pytest.raises(ShapeError):
        ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 5))))


def test_mul_broadcast_gradients():
    rng = np.random.default_rng(6)
    h = ad.parameter(randn(rng, 4, 3))
    w = ad.parameter(randn(rng, 4, 1))
    assert grad_check(lambda: ad.sum_all(ad.mul(h, w)), {"h": h, "w": w}) <= 1e-6


def test_smul_gradients():
    rng = np.random.default_rng(7)
    x = ad.parameter(randn(rng, 3, 2))
    build = lambda: ad.sum_all(ad.mul(x, ad.smul(x, 2.5)))
    assert grad_check(build, {"x": x}) <= 1e-6


def test_slice_rows_routes_gradients():
    rng = np.random.default_rng(8)
    x = ad.parameter(randn(rng, 4, 4))
    tape = ad.Tape()
    with tape:
        loss = ad.sum_all(ad.slice_rows(x, 1, 3))
    tape.backward(loss)
    expected = np.zeros((4, 4))
    expected[1:3] = 1.0
    assert np.array_equal(x.grad, expected)

    with pytest.raises(ShapeError):
        ad.slice_rows(x, 3, 99)


def test_slice_rows_slices_the_second_to_last_axis():
    x = ad.parameter(np.arange(24.0).reshape(2, 3, 4))
    tape = ad.Tape()
    with tape:
        out = ad.slice_rows(x, 0, 1)
        loss = ad.sum_all(out)
    tape.backward(loss)
    assert np.array_equal(out.values, x.values[:, :1, :])
    expected = np.zeros((2, 3, 4))
    expected[:, 0, :] = 1.0
    assert np.array_equal(x.grad, expected)
    with pytest.raises(ShapeError):
        ad.slice_rows(x, 0, 4)


def test_gather_rows_accumulates_duplicate_indices():
    table = ad.parameter(np.arange(6.0).reshape(3, 2))
    tape = ad.Tape()
    with tape:
        loss = ad.sum_all(ad.gather_rows(table, [0, 0, 2]))
    tape.backward(loss)
    assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ShapeError):
        ad.gather_rows(table, [5])


def test_gather_rows_integer_takes_one_entry_of_a_stack():
    stack = ad.parameter(np.arange(12.0).reshape(3, 1, 4))
    tape = ad.Tape()
    with tape:
        out = ad.gather_rows(stack, 1)
        loss = ad.sum_all(out)
    tape.backward(loss)
    assert out.shape == (1, 4)
    assert np.array_equal(out.values, stack.values[1])
    expected = np.zeros((3, 1, 4))
    expected[1] = 1.0
    assert np.array_equal(stack.grad, expected)


def test_gather_rows_two_dimensional_index_gradients():
    rng = np.random.default_rng(21)
    table = ad.parameter(randn(rng, 5, 3))
    index = np.array([[0, 2, 2], [4, 1, 0]])
    out = ad.gather_rows(table, index)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out.values, table.values[index])
    readout = ad.tensor(randn(rng, 2, 3, 3))
    build = lambda: ad.sum_all(ad.mul(ad.gather_rows(table, index), readout))
    assert grad_check(build, {"table": table}) <= 1e-6


def test_reshape_values_and_gradients():
    rng = np.random.default_rng(23)
    x = ad.parameter(randn(rng, 2, 3, 4))
    assert np.array_equal(ad.reshape(x, (2, 12)).values, x.values.reshape(2, 12))
    readout = ad.tensor(randn(rng, 6, 4))
    build = lambda: ad.sum_all(ad.mul(ad.reshape(x, (6, 4)), readout))
    assert grad_check(build, {"x": x}) <= 1e-6
    with pytest.raises(ShapeError):
        ad.reshape(x, (5, 5))


def test_tanh_gradient():
    rng = np.random.default_rng(9)
    x = ad.parameter(randn(rng, 3, 3))
    assert grad_check(lambda: ad.sum_all(ad.tanh(x)), {"x": x}) <= 1e-6


def test_layer_norm_gradients_match_fd():
    rng = np.random.default_rng(10)
    x = ad.parameter(randn(rng, 3, 6))
    g = ad.parameter(np.ones(6) + 0.1 * randn(rng, 6))
    b = ad.parameter(0.1 * randn(rng, 6))
    build = lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), x))
    assert grad_check(build, {"x": x, "g": g, "b": b}) <= 1e-5


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(11)
    x = ad.tensor(randn(rng, 4, 8) * 3 + 2)
    out = ad.layer_norm(x, ad.tensor(np.ones(8)), ad.tensor(np.zeros(8)))
    assert np.allclose(out.values.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.values.var(axis=1), 1.0, atol=1e-4)


def test_sum_all_gradient_is_ones():
    x = ad.parameter(np.zeros((2, 2)))
    tape = ad.Tape()
    with tape:
        loss = ad.sum_all(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# leading batch axes


def test_matmul_leading_axis_gradients():
    rng = np.random.default_rng(12)
    a = ad.parameter(randn(rng, 2, 3, 4))
    b = ad.parameter(randn(rng, 4, 2))
    r = ad.tensor(randn(rng, 2, 3, 2))
    build = lambda: ad.sum_all(ad.mul(ad.matmul(a, b), r))
    assert grad_check(build, {"a": a, "b": b}) <= 1e-6


def test_matmul_bias_gradients_and_values():
    rng = np.random.default_rng(24)
    a = ad.parameter(randn(rng, 2, 3, 4))
    b = ad.parameter(randn(rng, 4, 2))
    bias = ad.parameter(randn(rng, 2))
    out = ad.matmul(a, b, bias)
    assert np.array_equal(out.values, ad.add(ad.matmul(a, b), bias).values)
    r = ad.tensor(randn(rng, 2, 3, 2))
    build = lambda: ad.sum_all(ad.mul(ad.matmul(a, b, bias), r))
    assert grad_check(build, {"a": a, "b": b, "bias": bias}) <= 1e-6
    with pytest.raises(ShapeError):
        ad.matmul(a, b, ad.tensor(np.zeros(3)))


def test_matmul_leading_axis_equals_per_slice():
    rng = np.random.default_rng(13)
    a = ad.tensor(randn(rng, 3, 2, 4))
    b = ad.tensor(randn(rng, 4, 5))
    out = ad.matmul(a, b)
    for i in range(3):
        assert np.array_equal(out.values[i], ad.matmul(ad.tensor(a.values[i]), b).values)
    with pytest.raises(ShapeError):
        ad.matmul(b, a)


def test_layer_norm_leading_axis_gradients():
    rng = np.random.default_rng(14)
    x = ad.parameter(randn(rng, 2, 3, 5))
    g = ad.parameter(np.ones(5) + 0.1 * randn(rng, 5))
    b = ad.parameter(0.1 * randn(rng, 5))
    build = lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), x))
    assert grad_check(build, {"x": x, "g": g, "b": b}) <= 1e-5


def test_slice_rows_leading_axis_gradients():
    rng = np.random.default_rng(15)
    x = ad.parameter(randn(rng, 2, 4, 3))
    r = ad.tensor(randn(rng, 2, 2, 3))
    build = lambda: ad.sum_all(ad.mul(ad.slice_rows(x, 1, 3), r))
    assert grad_check(build, {"x": x}) <= 1e-6


# ---------------------------------------------------------------------------
# attention


ATTENTION_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


def attention_params(rng, d):
    return {
        name: ad.parameter(randn(rng, d, d) if name[0] == "w" else 0.3 * randn(rng, d))
        for name in ATTENTION_PARAMS
    }


def reference_attention(x, params, heads, mask=None, query_rows=None):
    """One head at a time, on a single (n, d) input."""
    v = {name: t.values for name, t in params.items()}
    n, d = x.shape
    dh = d // heads
    rows = n if query_rows is None else query_rows
    q = x[:rows] @ v["wq"] + v["bq"]
    k = x @ v["wk"] + v["bk"]
    val = x @ v["wv"] + v["bv"]
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ val[:, cols])
    return np.concatenate(outs, axis=1) @ v["wo"] + v["bo"]


def padding_mask(spec):
    """The additive key mask of ``n_valid`` real positions: (n,) for an
    int, (*leading, n) for one count per leading index; None without one."""
    if "n_valid" not in spec:
        return None
    n_valid = np.asarray(spec["n_valid"])[..., None]
    return np.where(np.arange(spec["shape"][-2]) < n_valid, 0.0, -1e30)


def op_mask(mask):
    """A padding mask broadcast against the (..., heads, query_rows, n) scores."""
    return None if mask is None else mask[..., None, None, :]


ATTENTION_CASES = {
    "full_rows": dict(shape=(4, 8), heads=2),
    "query_rows_1": dict(shape=(4, 8), heads=2, query_rows=1),
    "n_valid_mask": dict(shape=(5, 8), heads=2, n_valid=3),
    "per_row_key_mask": dict(shape=(3, 5, 8), heads=2, n_valid=[5, 3, 1]),
    "per_row_key_mask_query_rows_1": dict(shape=(3, 5, 8), heads=2, n_valid=[2, 5, 1], query_rows=1),
    "leading_axis": dict(shape=(3, 4, 8), heads=2, query_rows=1),
    "heads_1": dict(shape=(4, 8), heads=1),
    "heads_4": dict(shape=(2, 4, 8), heads=4),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_gradients_match_fd(case):
    spec = ATTENTION_CASES[case]
    rng = np.random.default_rng(16)
    x = ad.parameter(randn(rng, *spec["shape"]))
    params = attention_params(rng, spec["shape"][-1])
    mask = op_mask(padding_mask(spec))
    query_rows = spec.get("query_rows")
    rows = spec["shape"][-2] if query_rows is None else query_rows
    readout = ad.tensor(randn(rng, *spec["shape"][:-2], rows, spec["shape"][-1]))

    def build():
        out = ad.attention(
            x, *params.values(), spec["heads"], mask=mask, query_rows=query_rows
        )
        return ad.sum_all(ad.mul(out, readout))

    assert grad_check(build, {"x": x, **params}) <= 1e-6


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_matches_per_head_reference(case):
    spec = ATTENTION_CASES[case]
    rng = np.random.default_rng(17)
    x = randn(rng, *spec["shape"])
    params = attention_params(rng, spec["shape"][-1])
    mask = padding_mask(spec)
    query_rows = spec.get("query_rows")
    out = ad.attention(
        ad.tensor(x), *params.values(), spec["heads"], mask=op_mask(mask), query_rows=query_rows
    ).values
    for index in np.ndindex(*spec["shape"][:-2]):
        row_mask = None if mask is None else mask[index]
        expected = reference_attention(x[index], params, spec["heads"], row_mask, query_rows)
        assert np.max(np.abs(out[index] - expected)) <= 1e-12


def test_attention_query_rows_are_rows_of_the_full_output():
    rng = np.random.default_rng(18)
    x = ad.tensor(randn(rng, 5, 8))
    params = attention_params(rng, 8).values()
    full = ad.attention(x, *params, 2)
    first = ad.attention(x, *params, 2, query_rows=2)
    assert first.shape == (2, 8)
    assert np.max(np.abs(first.values - full.values[:2])) <= 1e-12


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(19)
    x = ad.tensor(randn(rng, 3, 5, 8))
    params = attention_params(rng, 8).values()
    tape = ad.Tape()
    with tape:
        ad.attention(x, *params, 4)
    assert len(tape) == 1


def test_attention_shape_errors():
    rng = np.random.default_rng(20)
    params = attention_params(rng, 8).values()
    with pytest.raises(ShapeError):
        ad.attention(ad.tensor(randn(rng, 4, 8)), *params, 3)
    with pytest.raises(ShapeError):
        ad.attention(ad.tensor(randn(rng, 4, 8)), *params, 2, query_rows=5)


# Rows read from a source sequence and scaled per position: row r is the
# input scale[r, :, None] * x[source[r]], never formed by the op.

SOURCE_CASES = {
    "unequal_rows": dict(shape=(3, 5, 8), heads=2, rows=[1, 3, 2]),
    "sequence_without_rows": dict(shape=(3, 4, 8), heads=2, rows=[2, 0, 1]),
    "key_mask": dict(shape=(3, 5, 8), heads=2, rows=[2, 1, 2], n_valid=[5, 3, 1]),
    "zero_scales": dict(shape=(2, 5, 8), heads=2, rows=[2, 2], zeros=True),
    "pooled_row": dict(shape=(2, 4, 8), heads=2, rows=[2, 1], pooled=True),
    "heads_1": dict(shape=(2, 4, 8), heads=1, rows=[2, 3]),
    "heads_4": dict(shape=(2, 4, 8), heads=4, rows=[3, 1], n_valid=[2, 4]),
    "query_rows_2": dict(shape=(2, 4, 8), heads=2, rows=[1, 2], query_rows=2),
}


def source_inputs(spec, rng):
    """The source index and per-row scale of a ``SOURCE_CASES`` entry."""
    source = np.repeat(np.arange(spec["shape"][0]), spec["rows"])
    scale = rng.uniform(0.0, 1.0, size=(len(source), spec["shape"][1]))
    if spec.get("zeros"):
        scale[rng.random(scale.shape) < 0.4] = 0.0
    if spec.get("pooled"):
        scale[-1] = 1.0
    return source, scale


@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_attention_source_gradients_match_fd(case):
    spec = SOURCE_CASES[case]
    rng = np.random.default_rng(21)
    x = ad.parameter(randn(rng, *spec["shape"]))
    params = attention_params(rng, spec["shape"][-1])
    source, scale = source_inputs(spec, rng)
    mask = op_mask(padding_mask(spec))
    query_rows = spec.get("query_rows", 1)
    readout = ad.tensor(randn(rng, len(source), query_rows, spec["shape"][-1]))

    def build():
        out = ad.attention(x, *params.values(), spec["heads"], mask=mask,
                           query_rows=query_rows, source=source, scale=scale)
        return ad.sum_all(ad.mul(out, readout))

    assert grad_check(build, {"x": x, **params}) <= 1e-6


@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_attention_source_equals_the_scaled_copies(case):
    spec = SOURCE_CASES[case]
    rng = np.random.default_rng(22)
    x = randn(rng, *spec["shape"])
    params = attention_params(rng, spec["shape"][-1])
    source, scale = source_inputs(spec, rng)
    mask = padding_mask(spec)
    query_rows = spec.get("query_rows", 1)
    out = ad.attention(ad.tensor(x), *params.values(), spec["heads"], mask=op_mask(mask),
                       query_rows=query_rows, source=source, scale=scale)
    copies = ad.attention(
        ad.tensor(scale[:, :, None] * x[source]), *params.values(), spec["heads"],
        mask=None if mask is None else op_mask(mask[source]), query_rows=query_rows,
    )
    assert out.shape == (len(source), query_rows, spec["shape"][-1])
    assert np.max(np.abs(out.values - copies.values)) <= 1e-12
    qk = [params[name] for name in ("wq", "bq", "wk")]
    weights = ad.attention_weights(ad.tensor(x), *qk, spec["heads"], op_mask(mask), query_rows,
                                   source, scale)
    copy_weights = ad.attention_weights(
        ad.tensor(scale[:, :, None] * x[source]), *qk, spec["heads"],
        None if mask is None else op_mask(mask[source]), query_rows,
    )
    assert np.max(np.abs(weights - copy_weights)) <= 1e-12


def test_attention_source_errors():
    rng = np.random.default_rng(23)
    params = attention_params(rng, 8).values()
    x = ad.tensor(randn(rng, 2, 4, 8))
    for source, scale in [
        ([1, 0], np.ones((2, 4))),  # not sorted
        ([0, 2], np.ones((2, 4))),  # out of range
        ([0, 1], np.ones((2, 3))),  # scale rows of the wrong length
        ([0, 1], None),
    ]:
        with pytest.raises(ShapeError):
            ad.attention(x, *params, 2, query_rows=1, source=source, scale=scale)


# ---------------------------------------------------------------------------
# finite differences oracle


def test_fd_square_function():
    x = ad.parameter([3.0])
    fd = ad.finite_difference_gradient(lambda: float(x.values[0] ** 2), x)
    assert abs(fd[0] - 6.0) <= 1e-6


def test_fd_constant_function():
    x = ad.parameter([3.0, -1.0])
    fd = ad.finite_difference_gradient(lambda: 42.0, x)
    assert np.array_equal(fd, np.zeros(2))


# ---------------------------------------------------------------------------
# cross-cutting invariants


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_operations_do_not_mutate_inputs(seed):
    rng = np.random.default_rng(seed)
    a = ad.tensor(randn(rng, 3, 3))
    b = ad.tensor(randn(rng, 3, 3))
    snap_a, snap_b = a.values.copy(), b.values.copy()
    ad.add(a, b)
    ad.mul(a, b)
    ad.matmul(a, b)
    ad.softmax(a)
    ad.tanh(a)
    ad.concat([a, b], axis=0)
    ad.slice_rows(a, 0, 2)
    bias = ad.tensor(randn(rng, 3))
    snap_bias = bias.values.copy()
    tape = ad.Tape()
    with tape:  # the backward pass must not write into its inputs either
        loss = ad.sum_all(ad.attention(a, b, bias, b, bias, b, bias, b, bias, 3, query_rows=2))
    tape.backward(loss)
    assert np.array_equal(a.values, snap_a)
    assert np.array_equal(b.values, snap_b)
    assert np.array_equal(bias.values, snap_bias)


def test_debug_checks_catch_nonfinite_output():
    ad.set_debug_checks(True)
    big = ad.tensor(np.array([1e308]))
    with pytest.raises(ad.AutodiffError):
        ad.mul(big, big)


def test_nested_tapes_rejected():
    with ad.Tape():
        with pytest.raises(TapeError):
            with ad.Tape():
                pass
