"""Contracts and gradient checks for every tensor operation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.autodiff import ShapeError, TapeError, Tensor

from util import (
    finite_difference_gradient,
    grad_check,
    mixing_weights,
    reference_attention,
    reference_cross_entropy,
    rel_err,
    sum_all,
)

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
    worst = grad_check(lambda: sum_all(ad.matmul(a, b)), {"a": a, "b": b})
    assert worst <= 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(4, 2\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3, 4))), ad.tensor(np.zeros((4, 2))))


def test_matmul_bias_gradients_and_values():
    rng = np.random.default_rng(24)
    a = ad.parameter(randn(rng, 3, 4))
    b = ad.parameter(randn(rng, 4, 2))
    bias = ad.parameter(randn(rng, 2))
    out = ad.matmul(a, b, bias)
    assert np.array_equal(out.values, ad.add(ad.matmul(a, b), bias).values)
    r = ad.tensor(randn(rng, 3, 2))
    build = lambda: sum_all(ad.mul(ad.matmul(a, b, bias), r))
    assert grad_check(build, {"a": a, "b": b, "bias": bias}) <= 1e-6
    with pytest.raises(ShapeError):
        ad.matmul(a, b, ad.tensor(np.zeros(3)))


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
        out = sum_all(ad.concat(parts, axis=0))
    tape.backward(out)
    assert parts[0].grad.tolist() == [1.0, 1.0]
    assert parts[1].grad.tolist() == [1.0]


def test_concat_errors():
    with pytest.raises(ShapeError):
        ad.concat([], axis=0)
    with pytest.raises(ShapeError):
        ad.concat([ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros((2, 3)))], axis=1)


# ---------------------------------------------------------------------------
# the softmax inside cross_entropy


def loss_and_gradient(logits, gold):
    """``ad.cross_entropy``'s value and its gradient w.r.t. ``logits``."""
    x = ad.parameter(logits)
    tape = ad.Tape()
    with tape:
        loss = ad.cross_entropy(x, gold)
    tape.backward(loss)
    return loss.item(), x.grad


def test_softmax_uniform():
    # the gradient of one row is its probabilities minus the one-hot gold
    _, grad = loss_and_gradient(np.zeros((1, 3)), 2)
    assert np.allclose(grad, [[1 / 3, 1 / 3, -2 / 3]], atol=1e-15)


def test_softmax_stabilized_no_overflow():
    loss, grad = loss_and_gradient(np.array([[1e9, 0.0, 0.0]]), 0)
    assert loss == 0.0
    assert np.all(np.isfinite(grad))
    assert grad[0].tolist() == [0.0, 0.0, 0.0]


def test_softmax_jacobian_matches_finite_differences():
    """Row i of the Jacobian of -log softmax(v), as the gradient for gold
    class i, against central differences of the same function."""
    rng = np.random.default_rng(2)
    v = ad.parameter(randn(rng, 1, 5))
    eps = 1e-6
    for i in range(5):
        v.grad = None
        tape = ad.Tape()
        with tape:
            loss = ad.cross_entropy(v, i)
        tape.backward(loss)
        analytic = v.grad.copy()

        def f():
            shifted = v.values[0] - v.values[0].max()
            e = np.exp(shifted)
            return float(-np.log((e / e.sum())[i]))

        fd = finite_difference_gradient(f, v, eps)
        assert rel_err(analytic, fd) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-30, 30))
def test_softmax_sums_to_one_and_shift_invariant(vals, shift):
    """For the most likely gold class the gradient is p minus the one-hot
    gold, which sums to 0 as p sums to 1; a shift of every logit moves
    neither the loss nor p."""
    logits = np.array([vals])
    gold = int(np.argmax(logits))
    loss_a, a = loss_and_gradient(logits, gold)
    assert abs(a.sum()) <= 1e-12
    loss_b, b = loss_and_gradient(logits + shift, gold)
    assert abs(loss_a - loss_b) <= 1e-12
    assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# cross entropy


def log_softmax_at(v, gold) -> float:
    """log softmax(v)[gold], from the definition."""
    return v[gold] - math.log(sum(math.exp(x) for x in v))


def test_cross_entropy_perfect_prediction():
    assert ad.cross_entropy(ad.tensor([[1e3, 0.0, 0.0]]), 0).item() == 0.0


def test_cross_entropy_uniform():
    out = ad.cross_entropy(ad.tensor([[5.0, 5.0, 5.0]]), 2)
    assert out.item() == pytest.approx(math.log(3.0), rel=1e-12)


def test_cross_entropy_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) * 3
        gold = int(rng.integers(0, 4))
        out = ad.cross_entropy(ad.tensor(v[None]), gold)
        assert out.item() == pytest.approx(-log_softmax_at(v, gold), rel=1e-12)


def test_cross_entropy_clamps_at_zero_probability():
    out = ad.cross_entropy(ad.tensor([[0.0, 50.0]]), 0)  # p = e^-50 < 1e-12
    assert out.item() == pytest.approx(-math.log(1e-12))


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(ShapeError):
        ad.cross_entropy(ad.tensor([[0.5, 0.5]]), 2)
    with pytest.raises(ShapeError):
        ad.cross_entropy(ad.tensor(np.full((2, 2), 0.5)), [0])
    with pytest.raises(ShapeError):
        ad.cross_entropy(ad.tensor([0.5, 0.5]), 0)  # logits are rows


def test_cross_entropy_over_gold_array_gradients():
    rng = np.random.default_rng(22)
    logits = ad.parameter(randn(rng, 4, 3))
    gold = np.array([0, 2, 1, 2])
    out = ad.cross_entropy(logits, gold)
    assert out.shape == (1,)
    expected = -sum(log_softmax_at(logits.values[i], g) for i, g in enumerate(gold))
    assert out.item() == pytest.approx(expected, rel=1e-12)
    assert grad_check(lambda: ad.cross_entropy(logits, gold), {"logits": logits}) <= 1e-6


def test_cross_entropy_clamped_row_passes_no_gradient():
    live = ad.parameter(np.array([[0.2, 1.1, 0.5]]))
    clamped = ad.parameter(np.array([[0.0, 60.0, 0.0]]))  # p = e^-60 for class 0

    def build():
        return ad.cross_entropy(ad.concat([live, clamped], axis=0), [1, 0])

    expected = -log_softmax_at(live.values[0], 1) - math.log(ad.LOG_CLAMP)
    assert build().item() == pytest.approx(expected)
    assert grad_check(build, {"live": live}) <= 1e-6
    # steps that stay under the clamp: the clamped row is constant
    assert grad_check(build, {"clamped": clamped}, eps=1e-14) == 0.0
    assert np.array_equal(clamped.grad, np.zeros((1, 3)))


def test_cross_entropy_is_the_softmax_and_loss_written_out():
    """One node gives, bit for bit, the loss and the logit gradient of
    softmax, clamp and -log with their two backwards in numpy, on rows
    that include a clamped one; on the other rows the gradient matches
    finite differences."""
    rng = np.random.default_rng(28)
    values = randn(rng, 6, 3) * 4
    values[3] = [0.0, 70.0, -5.0]  # gold class 0 gets e^-70: clamped
    gold = np.array([0, 2, 1, 0, 1, 2])
    logits = ad.parameter(values)
    tape = ad.Tape()
    with tape:
        loss = ad.cross_entropy(logits, gold)
    assert len(tape) == 1
    tape.backward(loss)
    expected_loss, expected_grad = reference_cross_entropy(values, gold)
    assert np.array_equal(loss.values, [expected_loss])
    assert np.array_equal(logits.grad, expected_grad)
    assert np.array_equal(logits.grad[3], np.zeros(3))
    live = np.delete(np.arange(6), 3)
    fd = finite_difference_gradient(lambda: ad.cross_entropy(logits, gold).item(), logits)
    assert rel_err(logits.grad[live], fd[live]) <= 1e-6


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


def test_backward_full_affine_chain_matches_fd():
    rng = np.random.default_rng(5)
    w = ad.parameter(randn(rng, 4, 3))
    b = ad.parameter(randn(rng, 3))
    x = ad.tensor(randn(rng, 2, 4))

    def build():
        y = ad.add(ad.matmul(x, w), b)
        return sum_all(ad.mul(y, y))

    assert grad_check(build, {"w": w, "b": b}) <= 1e-6


# ---------------------------------------------------------------------------
# remaining primitives: add, mul, gather, reshape, sum_all


def test_add_broadcasts_bias_row():
    m = ad.tensor(np.ones((2, 3)))
    b = ad.parameter(np.array([1.0, 2.0, 3.0]))
    out = ad.add(m, b)
    assert out.values.tolist() == [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]]
    tape = ad.Tape()
    with tape:
        loss = sum_all(ad.add(m, b))
    tape.backward(loss)
    assert b.grad.tolist() == [2.0, 2.0, 2.0]


def test_add_shape_error():
    with pytest.raises(ShapeError):
        ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 5))))


def test_mul_broadcast_gradients():
    rng = np.random.default_rng(6)
    h = ad.parameter(randn(rng, 4, 3))
    w = ad.parameter(randn(rng, 4, 1))
    assert grad_check(lambda: sum_all(ad.mul(h, w)), {"h": h, "w": w}) <= 1e-6


def test_gather_rows_accumulates_duplicate_indices():
    table = ad.parameter(np.arange(6.0).reshape(3, 2))
    tape = ad.Tape()
    with tape:
        loss = sum_all(ad.gather_rows(table, [0, 0, 2]))
    tape.backward(loss)
    assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ShapeError):
        ad.gather_rows(table, [5])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_add_rows_is_add_at_bit_for_bit(data):
    """For an index array of any shape into a few rows, so with heavy
    repetition, the bits of ``np.add.at`` into zeros, signed zeros and
    summands of very different size included."""
    rows = data.draw(st.integers(1, 6))
    index_shape = tuple(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    trailing = data.draw(st.sampled_from([(1,), (3,), (2, 3)]))
    idx = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=math.prod(index_shape),
                                      max_size=math.prod(index_shape))), dtype=np.int64)
    idx = idx.reshape(index_shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=index_shape + trailing) * 10.0 ** rng.integers(-8, 9, index_shape + trailing)
    g[rng.random(g.shape) < 0.1] = -0.0
    expected = np.zeros((rows, *trailing))
    np.add.at(expected, idx, g)
    assert ad._add_rows(np.zeros((rows, *trailing)), idx, g).tobytes() == expected.tobytes()


def test_backward_grads_share_no_memory():
    """A first gradient is kept without a copy only when nothing else may
    hold it: after a backward through ``add(x, x)``, a bias ``add``,
    ``concat``, ``reshape``, two ``gather_rows`` of one table and a node
    whose backward returns one fresh array for both its inputs, no two
    tensors' grads share memory."""
    rng = np.random.default_rng(3)
    x, a, b = (ad.parameter(randn(rng, 2, 3)) for _ in range(3))
    bias, table = ad.parameter(randn(rng, 3)), ad.parameter(randn(rng, 4, 3))

    def twice(p, q):  # p + q
        return ad._record(Tensor(p.values + q.values), (p, q), lambda g: (g.copy(),) * 2)

    tape = ad.Tape()
    with tape:
        doubled = ad.add(x, x)
        shifted = ad.add(doubled, bias)  # its backward returns its own out_grad for doubled
        gathered = ad.gather_rows(table, [0, 1, 1])
        summed = twice(a, b)
        rows = ad.concat([shifted, gathered, summed])
        flat = ad.reshape(rows, (3, 7))
        picked = ad.gather_rows(table, [[3, 0]])
        wide = ad.concat([flat, ad.reshape(picked, (3, 2))], axis=1)
        loss = sum_all(wide)
    tape.backward(loss)
    tensors = [x, a, b, bias, table, doubled, shifted, gathered, summed, rows, flat, picked, wide,
               loss]
    grads = [t.grad for t in tensors]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:]), tensors[i]
    assert np.array_equal(x.grad, np.full((2, 3), 2.0)) and np.array_equal(bias.grad, [2.0] * 3)
    assert np.array_equal(a.grad, np.ones((2, 3))) and np.array_equal(b.grad, np.ones((2, 3)))
    assert np.array_equal(table.grad, np.repeat([[2.0], [2.0], [0.0], [1.0]], 3, axis=1))


def test_gather_rows_integer_takes_one_entry_of_a_stack():
    stack = ad.parameter(np.arange(12.0).reshape(3, 1, 4))
    tape = ad.Tape()
    with tape:
        out = ad.gather_rows(stack, 1)
        loss = sum_all(out)
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
    build = lambda: sum_all(ad.mul(ad.gather_rows(table, index), readout))
    assert grad_check(build, {"table": table}) <= 1e-6


def test_reshape_values_and_gradients():
    rng = np.random.default_rng(23)
    x = ad.parameter(randn(rng, 2, 3, 4))
    assert np.array_equal(ad.reshape(x, (2, 12)).values, x.values.reshape(2, 12))
    readout = ad.tensor(randn(rng, 6, 4))
    build = lambda: sum_all(ad.mul(ad.reshape(x, (6, 4)), readout))
    assert grad_check(build, {"x": x}) <= 1e-6
    with pytest.raises(ShapeError):
        ad.reshape(x, (5, 5))


def test_sum_all_gradient_is_ones():
    x = ad.parameter(np.zeros((2, 2)))
    tape = ad.Tape()
    with tape:
        loss = sum_all(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 2)))


# ---------------------------------------------------------------------------
# attention


ATTENTION_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")


def attention_params(rng, d):
    return {
        name: ad.parameter(randn(rng, d, d) if name[0] == "w" else 0.3 * randn(rng, d))
        for name in ATTENTION_PARAMS
    }


def layout(spec):
    """The (S, L) ``valid`` layout of a case: ``n_valid`` real positions
    per sequence (all of them without it) in a (S, L, d) ``shape``."""
    s, width, _ = spec["shape"]
    n_valid = np.broadcast_to(spec.get("n_valid", width), (s,))
    return np.arange(width) < n_valid[:, None]


def first_rows(spec):
    """``source``/``scale`` keyword arguments for the first row of each
    sequence, unscaled, when the case asks for them."""
    if not spec.get("first"):
        return {}
    s, width, _ = spec["shape"]
    return dict(source=np.arange(s), scale=np.ones((s, width)))


# Packed rows: x (N, d) holds the real rows of the sequences of ``layout``.
ATTENTION_CASES = {
    "full_rows": dict(shape=(1, 4, 8), heads=2),
    "query_rows_1": dict(shape=(1, 4, 8), heads=2, first=True),
    "n_valid_mask": dict(shape=(1, 5, 8), heads=2, n_valid=3),
    "per_row_key_mask": dict(shape=(3, 5, 8), heads=2, n_valid=[5, 3, 1]),
    "per_row_key_mask_query_rows_1": dict(shape=(3, 5, 8), heads=2, n_valid=[2, 5, 1], first=True),
    "leading_axis": dict(shape=(3, 4, 8), heads=2, first=True),
    "heads_1": dict(shape=(1, 4, 8), heads=1),
    "heads_4": dict(shape=(2, 4, 8), heads=4, n_valid=[1, 4]),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_gradients_match_fd(case):
    """Every parameter and the packed input, over ragged sequences (some of
    one row), all rows or the first row of each as queries."""
    spec = ATTENTION_CASES[case]
    rng = np.random.default_rng(16)
    valid = layout(spec)
    x = ad.parameter(randn(rng, valid.sum(), spec["shape"][-1]))
    params = attention_params(rng, spec["shape"][-1])
    queries = len(valid) if spec.get("first") else valid.sum()
    readout = ad.tensor(randn(rng, queries, spec["shape"][-1]))

    def build():
        out = ad.attention(x, *params.values(), spec["heads"], valid, **first_rows(spec))
        return sum_all(ad.mul(out, readout))

    assert grad_check(build, {"x": x, **params}) <= 1e-6


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_matches_per_head_reference(case):
    spec = ATTENTION_CASES[case]
    rng = np.random.default_rng(17)
    valid = layout(spec)
    x = randn(rng, valid.sum(), spec["shape"][-1])
    params = attention_params(rng, spec["shape"][-1])
    out = ad.attention(ad.tensor(x), *params.values(), spec["heads"], valid,
                       **first_rows(spec)).values
    ends = np.cumsum(valid.sum(axis=1))
    rows = np.split(out, np.arange(1, len(valid))) if spec.get("first") else np.split(out, ends[:-1])
    for seq, got in zip(np.split(x, ends[:-1]), rows):
        first = spec.get("first", False)
        residual = seq[:1] if first else seq
        expected = reference_attention(seq, params, spec["heads"], first) + residual
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_attention_first_rows_are_rows_of_the_full_output():
    rng = np.random.default_rng(18)
    valid = np.arange(5) < np.array([[5], [1], [3]])
    x = ad.tensor(randn(rng, valid.sum(), 8))
    params = attention_params(rng, 8).values()
    full = ad.attention(x, *params, 2, valid)
    first = ad.attention(x, *params, 2, valid, source=[0, 1, 2], scale=np.ones((3, 5)))
    assert first.shape == (3, 8)
    assert np.max(np.abs(first.values - full.values[[0, 5, 6]])) <= 1e-12


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(19)
    x = ad.tensor(randn(rng, 15, 8))
    params = attention_params(rng, 8).values()
    tape = ad.Tape()
    with tape:
        ad.attention(x, *params, 4, np.ones((3, 5), dtype=bool))
    assert len(tape) == 1


def test_attention_shape_errors():
    rng = np.random.default_rng(20)
    params = attention_params(rng, 8).values()
    x = ad.tensor(randn(rng, 4, 8))
    with pytest.raises(ShapeError):
        ad.attention(x, *params, 3, np.ones((1, 4), dtype=bool))
    with pytest.raises(ShapeError):
        ad.attention(x, *params, 2, np.ones((1, 5), dtype=bool))  # 5 positions, 4 rows
    with pytest.raises(ShapeError):
        ad.attention(x, *params, 2, np.array([[True, True], [False, True], [True, False]]))


# Rows read from a source sequence and scaled per position: query r is the
# first row of the input scale[r, :, None] * x[source[r]], never formed by
# the op.

SOURCE_CASES = {
    "unequal_rows": dict(shape=(3, 5, 8), heads=2, rows=[1, 3, 2]),
    "sequence_without_rows": dict(shape=(3, 4, 8), heads=2, rows=[2, 0, 1]),
    "key_mask": dict(shape=(3, 5, 8), heads=2, rows=[2, 1, 2], n_valid=[5, 3, 1]),
    "zero_scales": dict(shape=(2, 5, 8), heads=2, rows=[2, 2], zeros=True),
    "pooled_row": dict(shape=(2, 4, 8), heads=2, rows=[2, 1], pooled=True),
    "heads_1": dict(shape=(2, 4, 8), heads=1, rows=[2, 3]),
    "heads_4": dict(shape=(2, 4, 8), heads=4, rows=[3, 1], n_valid=[2, 4]),
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
    valid = layout(spec)
    x = ad.parameter(randn(rng, valid.sum(), spec["shape"][-1]))
    params = attention_params(rng, spec["shape"][-1])
    source, scale = source_inputs(spec, rng)
    readout = ad.tensor(randn(rng, len(source), spec["shape"][-1]))

    def build():
        out = ad.attention(x, *params.values(), spec["heads"], valid, source, scale)
        return sum_all(ad.mul(out, readout))

    assert grad_check(build, {"x": x, **params}) <= 1e-6


@pytest.mark.parametrize("case", list(SOURCE_CASES))
def test_attention_source_equals_the_scaled_copies(case):
    spec = SOURCE_CASES[case]
    rng = np.random.default_rng(22)
    valid = layout(spec)
    padded = randn(rng, *spec["shape"])
    x = ad.tensor(padded[valid])
    params = attention_params(rng, spec["shape"][-1])
    source, scale = source_inputs(spec, rng)
    copies = ad.tensor((scale[:, :, None] * padded[source])[valid[source]])
    lengths = valid[source].sum(axis=1)
    firsts = np.cumsum(lengths) - lengths  # the first packed row of each copy
    out = ad.attention(x, *params.values(), spec["heads"], valid, source, scale)
    whole = ad.attention(copies, *params.values(), spec["heads"], valid[source])
    assert out.shape == (len(source), spec["shape"][-1])
    assert np.max(np.abs(out.values - whole.values[firsts])) <= 1e-12
    # x's values are mixed with the copies' weights times the scales
    qk = [params[name] for name in ("wq", "bq", "wk")]
    weights = mixing_weights(x, *qk, spec["heads"], valid, source, scale)
    copy_weights = mixing_weights(copies, *qk, spec["heads"], valid[source])
    assert np.max(np.abs(weights - copy_weights[firsts] * scale[:, None])) <= 1e-12


def test_attention_source_errors():
    rng = np.random.default_rng(23)
    params = attention_params(rng, 8).values()
    x = ad.tensor(randn(rng, 8, 8))
    valid = np.ones((2, 4), dtype=bool)
    for source, scale in [
        ([1, 0], np.ones((2, 4))),  # not sorted
        ([0, 2], np.ones((2, 4))),  # out of range
        ([0, 1], np.ones((2, 3))),  # scale rows of the wrong length
        ([0, 1], None),
    ]:
        with pytest.raises(ShapeError):
            ad.attention(x, *params, 2, valid, source, scale)


# ---------------------------------------------------------------------------
# residual feed-forward: LN2(h + FFN(h)) with h = LN1(x)


FFN_PARAMS = ("ln1_g", "ln1_b", "w1", "b1", "w2", "b2", "ln2_g", "ln2_b")


def ffn_params(rng, d, ffn):
    shapes = {"w1": (d, ffn), "b1": (ffn,), "w2": (ffn, d)}
    params = {}
    for name in FFN_PARAMS:
        values = randn(rng, *shapes.get(name, (d,)))
        if name.startswith("w"):
            values *= values.shape[0] ** -0.5
        elif name.endswith("_g"):
            values = 1.0 + 0.3 * values
        params[name] = ad.parameter(values)
    return params


@pytest.mark.parametrize("case", ["leaves", "after_attention"])
def test_residual_ffn_gradients_match_fd(case):
    """Every input, on the packed rows of sequences of lengths 3, 1 and 4:
    a leaf, or attention's residual stream, whose backward adds the
    gradient of its output to that of ``x``."""
    rng = np.random.default_rng(25)
    valid = np.arange(4) < np.array([[3], [1], [4]])
    x = ad.parameter(randn(rng, valid.sum(), 8))
    attn = attention_params(rng, 8)
    params = ffn_params(rng, 8, 12)
    readout = ad.tensor(randn(rng, valid.sum(), 8))

    def build():
        h = x if case == "leaves" else ad.attention(x, *attn.values(), 2, valid)
        return sum_all(ad.mul(ad.residual_ffn(h, *params.values()), readout))

    assert grad_check(build, {"x": x, **params}) <= 1e-6


def test_layer_norm_normalizes_rows():
    """With unit gains and zero biases, every row ``residual_ffn`` gives
    has mean 0 and variance 1."""
    rng = np.random.default_rng(11)
    params = ffn_params(rng, 8, 16)
    for name in FFN_PARAMS:
        if name.startswith("ln"):
            params[name] = ad.tensor(np.ones(8) if name.endswith("_g") else np.zeros(8))
    out = ad.residual_ffn(ad.tensor(randn(rng, 5, 8) * 3 + 2), *params.values())
    assert np.allclose(out.values.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.values.var(axis=1), 1.0, atol=1e-4)


def test_residual_ffn_is_one_tape_node_and_checks_shapes():
    rng = np.random.default_rng(26)
    params = list(ffn_params(rng, 8, 16).values())
    x = ad.tensor(randn(rng, 5, 8))
    tape = ad.Tape()
    with tape:
        ad.residual_ffn(x, *params)
    assert len(tape) == 1
    with pytest.raises(ShapeError):
        ad.residual_ffn(ad.tensor(randn(rng, 5, 6)), *params)
    with pytest.raises(ShapeError):
        w1_w2_swapped = params[:2] + params[4:5] + params[3:4] + params[2:3] + params[5:]
        ad.residual_ffn(x, *w1_w2_swapped)


# ---------------------------------------------------------------------------
# finite differences oracle


def test_fd_square_function():
    x = ad.parameter([3.0])
    fd = finite_difference_gradient(lambda: float(x.values[0] ** 2), x)
    assert abs(fd[0] - 6.0) <= 1e-6


def test_fd_constant_function():
    x = ad.parameter([3.0, -1.0])
    fd = finite_difference_gradient(lambda: 42.0, x)
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
    ad.concat([a, b], axis=0)
    bias = ad.tensor(randn(rng, 3))
    snap_bias = bias.values.copy()
    tape = ad.Tape()
    with tape:  # the backward pass must not write into its inputs either
        params = (b, bias, b, b, bias, b, bias)
        one = np.ones((1, 3), dtype=bool)
        loss = ad.add(sum_all(ad.attention(a, *params, 3, one)), sum_all(
            ad.attention(a, *params, 3, one, [0, 0], randn(rng, 2, 3))))
        loss = ad.add(loss, sum_all(ad.residual_ffn(a, bias, bias, b, bias, b, bias, bias, bias)))
        loss = ad.add(loss, ad.cross_entropy(a, [0, 2, 1]))
    tape.backward(loss)
    assert np.array_equal(a.values, snap_a)
    assert np.array_equal(b.values, snap_b)
    assert np.array_equal(bias.values, snap_bias)


def test_debug_checks_catch_nonfinite_output():
    ad.set_debug_checks(True)
    big = ad.tensor(np.array([1e308]))
    with pytest.raises(ad.AutodiffError, match="mul"), np.errstate(over="ignore"):
        ad.mul(big, big)


def test_nested_tapes_rejected():
    with ad.Tape():
        with pytest.raises(TapeError):
            with ad.Tape():
                pass
