"""AdamW with decoupled weight decay and per-group learning rates.

The aggregation weights (eta) live in their own group with their own
learning rate and decay coefficient, separate from the encoder/head group.
With a zero gradient the Adam term vanishes and only the decoupled decay
acts, so a parameter decays geometrically as (1 - lr * decay)^t.  Besides
the two moments of each parameter, the optimizer holds one scratch buffer,
sized for its largest parameter, in which every parameter's update is
formed in turn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import AutodiffError, Tensor


class MissingGradError(AutodiffError):
    pass


@dataclass
class ParamGroup:
    params: dict[str, Tensor]
    lr: float
    weight_decay: float = 0.0


@dataclass
class AdamW:
    groups: list[ParamGroup]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    _m: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _v: dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    _scratch: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group.params.values():
                p.grad = None

    def step(self) -> None:
        """Update every parameter in place, through the one scratch buffer:
        no step but the first allocates."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        root_bc2 = np.sqrt(1.0 - self.beta2**t)
        largest = max((p.values.size for group in self.groups for p in group.params.values()),
                      default=0)
        if self._scratch.size < largest:
            self._scratch = np.empty(largest)
        for group in self.groups:
            decay = 1.0 - group.lr * group.weight_decay
            step_size = group.lr / bc1
            for name, p in group.params.items():
                if p.grad is None:
                    raise MissingGradError(f"parameter {name!r} has no gradient")
                g = p.grad
                key = id(p)
                m = self._m.get(key)
                if m is None:
                    m = self._m[key] = np.zeros_like(p.values)
                    self._v[key] = np.zeros_like(p.values)
                v = self._v[key]
                buf = self._scratch[:p.values.size].reshape(p.values.shape)
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=buf)
                v *= self.beta2
                np.multiply(g, 1.0 - self.beta2, out=buf)
                v += np.multiply(buf, g, out=buf)
                # (lr / bc1) m / (sqrt(v / bc2) + eps)
                np.sqrt(v, out=buf)
                buf /= root_bc2
                buf += self.eps
                np.divide(m, buf, out=buf)
                buf *= step_size
                if group.weight_decay:
                    p.values *= decay
                p.values -= buf
