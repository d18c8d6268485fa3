"""AdamW with decoupled weight decay and per-group learning rates.

The aggregation weights (eta) live in their own group with their own
learning rate and decay coefficient, separate from the encoder/head group.
With a zero gradient the Adam term vanishes and only the decoupled decay
acts, so a parameter decays geometrically as (1 - lr * decay)^t.  The
moment decays and epsilon are the fixed ``BETA1``, ``BETA2`` and ``EPS``.
The two moments of each parameter are made with the optimizer, in group
order, and so is one scratch buffer, sized for its largest parameter, in
which every parameter's update is formed in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import AutodiffError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class MissingGradError(AutodiffError):
    pass


@dataclass
class ParamGroup:
    params: dict[str, Tensor]
    lr: float
    weight_decay: float = 0.0


class AdamW:
    def __init__(self, groups: list[ParamGroup]):
        self.groups = groups
        self.step_count = 0
        # each group's (m, v) per parameter, in its order
        self._moments = [[(np.zeros_like(p.values), np.zeros_like(p.values))
                          for p in group.params.values()] for group in groups]
        self._scratch = np.empty(max((m.size for ms in self._moments for m, _ in ms), default=0))

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group.params.values():
                p.grad = None

    def step(self) -> None:
        """Update every parameter in place, through the one scratch buffer:
        no step allocates."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        root_bc2 = np.sqrt(1.0 - BETA2**t)
        for group, moments in zip(self.groups, self._moments):
            decay = 1.0 - group.lr * group.weight_decay
            step_size = group.lr / bc1
            for (name, p), (m, v) in zip(group.params.items(), moments):
                if p.grad is None:
                    raise MissingGradError(f"parameter {name!r} has no gradient")
                g = p.grad
                buf = self._scratch[:p.values.size].reshape(p.values.shape)
                m *= BETA1
                m += np.multiply(g, 1.0 - BETA1, out=buf)
                v *= BETA2
                np.multiply(g, 1.0 - BETA2, out=buf)
                v += np.multiply(buf, g, out=buf)
                # (lr / bc1) m / (sqrt(v / bc2) + eps)
                np.sqrt(v, out=buf)
                buf /= root_bc2
                buf += EPS
                np.divide(m, buf, out=buf)
                buf *= step_size
                if group.weight_decay:
                    p.values *= decay
                p.values -= buf
