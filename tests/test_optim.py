"""AdamW update rules, parameter groups, decoupled decay."""

import numpy as np
import pytest

import lsa.autodiff as ad
from lsa.optim import AdamW, MissingGradError, ParamGroup


def make_param(value):
    p = ad.parameter(np.array(value, dtype=float))
    return p


def test_zero_grad_zero_decay_leaves_parameters_unchanged():
    p = make_param([1.5, -2.0])
    p.grad = np.zeros(2)
    opt = AdamW([ParamGroup({"p": p}, lr=0.1, weight_decay=0.0)])
    for _ in range(5):
        p.grad = np.zeros(2)
        opt.step()
    assert p.values.tolist() == [1.5, -2.0]


def test_single_scalar_step_matches_hand_computation():
    p = make_param([1.0])
    p.grad = np.array([0.5])
    opt = AdamW([ParamGroup({"p": p}, lr=0.1, weight_decay=0.0)])
    opt.step()
    # hand Adam: m=0.05, v=2.5e-5? no: (1-0.999)*0.25 = 2.5e-4
    m_hat = (0.1 * 0.5) / (1 - 0.9)
    v_hat = (0.001 * 0.25) / (1 - 0.999)
    expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.values[0] == pytest.approx(expected, rel=1e-12)


def test_groups_step_with_their_own_learning_rates():
    encoder = make_param([1.0])
    eta = make_param([1.0])
    opt = AdamW(
        [
            ParamGroup({"w": encoder}, lr=1e-3, weight_decay=0.0),
            ParamGroup({"eta": eta}, lr=0.01, weight_decay=0.0),
        ]
    )
    encoder.grad = np.array([1.0])
    eta.grad = np.array([1.0])
    opt.step()
    # with a fresh optimizer, the first normalized Adam step is ~lr
    assert (1.0 - encoder.values[0]) == pytest.approx(1e-3, rel=1e-6)
    assert (1.0 - eta.values[0]) == pytest.approx(0.01, rel=1e-6)


def test_decoupled_decay_analytic_rate_with_zero_gradient():
    lr, decay = 0.01, 0.1
    p = make_param([1.0])
    opt = AdamW([ParamGroup({"eta": p}, lr=lr, weight_decay=decay)])
    for t in range(1, 50):
        p.grad = np.zeros(1)
        opt.step()
        assert abs(p.values[0] - (1 - lr * decay) ** t) <= 1e-10
    assert 0 < p.values[0] < 1.0  # monotone decay toward zero


def test_missing_gradient_raises():
    p = make_param([1.0])
    opt = AdamW([ParamGroup({"p": p}, lr=0.1)])
    with pytest.raises(MissingGradError, match="p"):
        opt.step()


def test_step_counter_increases():
    p = make_param([1.0])
    opt = AdamW([ParamGroup({"p": p}, lr=0.1)])
    for expected in (1, 2, 3):
        p.grad = np.ones(1)
        opt.step()
        assert opt.step_count == expected


def test_zero_grad_clears_all_groups():
    a, b = make_param([1.0]), make_param([2.0])
    a.grad = np.ones(1)
    b.grad = np.ones(1)
    opt = AdamW([ParamGroup({"a": a}, lr=0.1), ParamGroup({"b": b}, lr=0.2)])
    opt.zero_grad()
    assert a.grad is None and b.grad is None


def test_step_matches_the_adamw_formula_over_many_steps():
    """30 steps of two groups with weight decay against the update written
    out: p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + decay * p)."""
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (3,), "eta": (1,)}
    params = {name: make_param(rng.normal(size=shape)) for name, shape in shapes.items()}
    opt = AdamW([
        ParamGroup({"w": params["w"], "b": params["b"]}, lr=1e-2, weight_decay=0.05),
        ParamGroup({"eta": params["eta"]}, lr=0.1, weight_decay=0.3),
    ])
    hyper = {"w": (1e-2, 0.05), "b": (1e-2, 0.05), "eta": (0.1, 0.3)}
    ref = {name: p.values.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 31):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        for name, p in params.items():
            g = grads[name]
            p.grad = g.copy()
            lr, decay = hyper[name]
            m[name] = 0.9 * m[name] + 0.1 * g
            v[name] = 0.999 * v[name] + 0.001 * g * g
            update = (m[name] / (1 - 0.9**t)) / (np.sqrt(v[name] / (1 - 0.999**t)) + 1e-8)
            ref[name] = ref[name] - lr * (update + decay * ref[name])
        opt.step()
        for name, p in params.items():
            np.testing.assert_allclose(p.values, ref[name], rtol=1e-12, atol=0, err_msg=name)
            assert np.array_equal(p.grad, grads[name])  # the step leaves the gradient as it was
