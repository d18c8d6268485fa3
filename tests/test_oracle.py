"""The compute path against ``fixtures/oracle.npz``: per-pair probabilities
and summed cross-entropy gradients written by the per-head, per-aspect,
per-example path this code replaced (lsa_t, lsa_s, lsa_p and the
ablations; d=16, one layer, two heads).  Each case is forwarded both one
example per batch and as one padded batch of every example."""

from dataclasses import replace

import numpy as np
import pytest

import lsa.autodiff as ad
from lsa.window import Model

from oracle import CASES, ORACLE, compute, model_arrays, oracle_model

TOL = 1e-10


@pytest.fixture(scope="module")
def oracle():
    with np.load(ORACLE) as data:
        return dict(data)


def expected_grads(oracle, case):
    """The oracle's gradients of ``case`` but those of the key biases
    ``*.bk``, which the model no longer has."""
    prefix = f"{case}/grad/"
    return {k[len(prefix):]: v for k, v in oracle.items()
            if k.startswith(prefix) and not k.endswith(".bk")}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_oracle(case, oracle):
    """The oracle's key bias gradients are 0, as softmax ignores the shift
    q·bk, up to the rounding of the per-head path that wrote them (at most
    2.5e-16); the model has no key bias."""
    key_biases = [k for k in oracle if k.startswith(f"{case}/grad/") and k.endswith(".bk")]
    assert len(key_biases) == 2  # encoder.block0 and head.sa
    for key in key_biases:
        assert np.max(np.abs(oracle[key])) <= 1e-15, key
    assert not [name for name in oracle_model(CASES[case]).named_parameters()
                if name.endswith(".bk")]
    expected = expected_grads(oracle, case)
    for batch in (1, None):
        probs, grads = compute(CASES[case], batch)
        np.testing.assert_allclose(probs, oracle[f"{case}/probs"], rtol=0, atol=TOL)
        assert sorted(grads) == sorted(expected)
        for name, g in grads.items():
            np.testing.assert_allclose(
                g, expected[name], rtol=TOL, atol=TOL, err_msg=f"{name}, batch {batch}"
            )


def folded_k0_model() -> Model:
    """The k = 0 model with the k = 1 oracle model's parameters, its
    projection's three blocks folded into 0.8 W_L + W_M + 1.3 W_R."""
    wide = oracle_model({})
    model = Model(replace(wide.config, k=0), wide.vocab, np.random.Generator(np.random.PCG64(0)))
    w_l, w_m, w_r = np.split(wide.head.w_out.values, 3)
    wide.head.w_out = ad.tensor(0.8 * w_l + w_m + 1.3 * w_r)
    for name, t in model.named_parameters().items():
        t.values[...] = wide.named_parameters()[name].values
    return model


def test_k0_reproduces_backbone_only(oracle):
    """The deleted ``backbone_only`` ablation set the target in all three
    slots of the k = 1 oracle model, scaled by eta_l = 0.8, 1 and eta_r =
    1.3: the same function as the folded k = 0 model.  The middle block's
    gradient is the k = 0 projection's, and the k = 0 model has no side
    weight, so no eta gradient."""
    expected = expected_grads(oracle, "backbone_only")
    for batch in (1, None):
        model = folded_k0_model()
        d = model.config.d_model
        probs, grads = model_arrays(model, batch)
        np.testing.assert_allclose(probs, oracle["backbone_only/probs"], rtol=0, atol=TOL)
        assert sorted(grads) == sorted(set(expected) - {"dwa.eta_l", "dwa.eta_r"})
        assert grads["head.w_out"].shape == (d, d)
        for name, g in grads.items():
            want = expected[name][d:2 * d] if name == "head.w_out" else expected[name]
            np.testing.assert_allclose(g, want, rtol=TOL, atol=TOL,
                                       err_msg=f"{name}, batch {batch}")
