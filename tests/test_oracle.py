"""The compute path against ``fixtures/oracle.npz``: per-pair probabilities
and summed cross-entropy gradients written by the per-head, per-aspect,
per-example path this code replaced (lsa_t, lsa_s, lsa_p and the
ablations; d=16, one layer, two heads).  Each case is forwarded both one
example per batch and as one padded batch of every example."""

import numpy as np
import pytest

from oracle import CASES, ORACLE, compute

TOL = 1e-10


@pytest.fixture(scope="module")
def oracle():
    with np.load(ORACLE) as data:
        return dict(data)


@pytest.mark.parametrize("case", list(CASES))
def test_matches_oracle(case, oracle):
    prefix = f"{case}/grad/"
    expected = {k[len(prefix):]: v for k, v in oracle.items() if k.startswith(prefix)}
    for batch in (1, None):
        probs, grads = compute(CASES[case], batch)
        np.testing.assert_allclose(probs, oracle[f"{case}/probs"], rtol=0, atol=TOL)
        assert sorted(grads) == sorted(expected)
        for name, g in grads.items():
            np.testing.assert_allclose(
                g, expected[name], rtol=TOL, atol=TOL, err_msg=f"{name}, batch {batch}"
            )
