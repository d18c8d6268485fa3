"""Dense float64 tensors with tape-based reverse-mode differentiation.

One tape is recorded per training step and consumed by a single backward
pass.  Operations never mutate their inputs; gradients accumulate
additively when a tensor is used more than once.  A central
finite-difference estimator is included as the gradient oracle.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "AutodiffError",
    "ShapeError",
    "TapeError",
    "set_debug_checks",
    "tensor",
    "parameter",
    "add",
    "mul",
    "smul",
    "matmul",
    "concat",
    "slice_rows",
    "gather_rows",
    "scale",
    "tanh",
    "softmax",
    "layer_norm",
    "attention_weights",
    "attention",
    "sum_all",
    "cross_entropy",
    "finite_difference_gradient",
]

LOG_CLAMP = 1e-12


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class TapeError(AutodiffError):
    pass


_DEBUG_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle per-operation NaN/Inf output checks (off by default for speed)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    """A dense float64 array plus gradient buffer."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(values, requires_grad=requires_grad)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Ordered record of operations for one forward pass.

    Usage::

        tape = Tape()
        with tape:
            loss = ...  # ops executed here are recorded
        tape.backward(loss)
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)

    def backward(self, root: Tensor, order: Optional[Sequence[int]] = None) -> None:
        """Populate grads of everything reachable from the scalar ``root``.

        ``order`` optionally gives an alternative topological order of the
        recorded nodes (used to check order-independence of accumulation);
        it must list every node index exactly once and respect dependencies.
        """
        if self._consumed:
            raise TapeError("tape already consumed by a backward pass; re-record first")
        if root.values.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        self._consumed = True

        nodes = self._nodes
        if order is not None:
            if sorted(order) != list(range(len(nodes))):
                raise TapeError("order must be a permutation of node indices")
            produced = {}
            for rank, idx in enumerate(order):
                produced[id(nodes[idx].output)] = rank
            for rank, idx in enumerate(order):
                for inp in nodes[idx].inputs:
                    pos = produced.get(id(inp))
                    if pos is not None and pos >= rank:
                        raise TapeError("order is not topological")
            nodes = [self._nodes[i] for i in order]

        root.grad = np.ones_like(root.values)
        for node in reversed(nodes):
            out_grad = node.output.grad
            if out_grad is None:
                continue
            grads = node.backward_fn(out_grad)
            for t, g in zip(node.inputs, grads):
                if g is None:
                    continue
                if t.grad is None:
                    t.grad = np.array(g, dtype=np.float64)
                else:
                    t.grad += g


def _record(output: Tensor, inputs, backward_fn) -> Tensor:
    if _DEBUG_CHECKS and not np.all(np.isfinite(output.values)):
        raise AutodiffError("non-finite values produced by a forward operation")
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._nodes.append(_Node(output, inputs, backward_fn))
    return output


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _flat(a: np.ndarray) -> np.ndarray:
    """Merge every axis but the last: (..., k) -> (N, k)."""
    return a.reshape(-1, a.shape[-1])


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may broadcast against ``a`` (bias rows)."""
    try:
        out_values = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_values)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    try:
        out_values = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    out = Tensor(out_values)
    av, bv = a.values, b.values

    def backward(g):
        return _unbroadcast(g * bv, a.shape), _unbroadcast(g * av, b.shape)

    return _record(out, (a, b), backward)


def smul(t: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant (no gradient for the constant)."""
    c = float(c)
    out = Tensor(t.values * c)

    def backward(g):
        return (g * c,)

    return _record(out, (t,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, m): leading axes of ``a`` are a batch."""
    if a.values.ndim < 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs (..., n, k) and (k, m), got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Tensor(a.values @ b.values)
    av, bv = a.values, b.values

    def backward(g):
        return g @ bv.T, _flat(av).T @ _flat(g)

    return _record(out, (a, b), backward)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if len(parts) == 0:
        raise ShapeError("concat of an empty list")
    try:
        out_values = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(
            "concat: incompatible shapes " + str([p.shape for p in parts])
        )
    out = Tensor(out_values)
    extents = [p.shape[axis] for p in parts]

    def backward(g):
        grads = []
        offset = 0
        for n in extents:
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + n)
            grads.append(g[tuple(index)])
            offset += n
        return tuple(grads)

    return _record(out, tuple(parts), backward)


def slice_rows(t: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of the last two axes: (..., n, d) -> (..., stop - start, d)."""
    if t.values.ndim < 2:
        raise ShapeError(f"slice_rows needs a tensor of 2 or more axes, got {t.shape}")
    if not (0 <= start < stop <= t.shape[-2]):
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {t.shape}")
    out = Tensor(t.values[..., start:stop, :].copy())
    shape = t.shape

    def backward(g):
        full = np.zeros(shape)
        full[..., start:stop, :] = g
        return (full,)

    return _record(out, (t,), backward)


def gather_rows(t: Tensor, indices) -> Tensor:
    """Lookup along axis 0: embedding rows for an index array, one entry
    of a stack for an integer.  Backward scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.int64)
    if t.values.ndim < 2:
        raise ShapeError(f"gather_rows needs a table of 2 or more axes, got {t.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= t.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for table {t.shape}")
    out = Tensor(np.take(t.values, idx, axis=0))
    shape = t.shape

    def backward(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return _record(out, (t,), backward)


def scale(t: Tensor, s: Tensor) -> Tensor:
    """Scale every element of ``t`` by the scalar tensor ``s`` (shape [1])."""
    if s.values.shape != (1,):
        raise ShapeError(f"scale expects a [1]-shaped scalar, got {s.shape}")
    sv = s.values[0]
    out = Tensor(t.values * sv)
    tv = t.values

    def backward(g):
        return g * sv, np.array([float(np.sum(g * tv))])

    return _record(out, (t, s), backward)


def tanh(t: Tensor) -> Tensor:
    out_values = np.tanh(t.values)
    out = Tensor(out_values)

    def backward(g):
        return (g * (1.0 - out_values * out_values),)

    return _record(out, (t,), backward)


def softmax(t: Tensor) -> Tensor:
    """Max-stabilized softmax along the last axis."""
    v = t.values
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_values = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(out_values)

    def backward(g):
        dot = np.sum(g * out_values, axis=-1, keepdims=True)
        return ((g - dot) * out_values,)

    return _record(out, (t,), backward)


def layer_norm(t: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis, then gain/bias."""
    if t.values.ndim < 2:
        raise ShapeError(f"layer_norm needs a tensor of 2 or more axes, got {t.shape}")
    d = t.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must have shape (d,)")
    v = t.values
    mean = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (v - mean) * inv
    out = Tensor(xhat * gain.values + bias.values)
    gv = gain.values

    def backward(g):
        g_bias = _flat(g).sum(axis=0)
        g_gain = _flat(g * xhat).sum(axis=0)
        g_xhat = g * gv
        # d/dx of (x - mean) * inv, with mean and var both functions of x
        g_x = inv * (
            g_xhat
            - g_xhat.mean(axis=-1, keepdims=True)
            - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)
        )
        return g_x, g_gain, g_bias

    return _record(out, (t, gain, bias), backward)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d / heads)."""
    *lead, n, d = a.shape
    return a.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, n, dh) -> (..., n, heads * dh)."""
    *lead, heads, n, dh = a.shape
    return a.swapaxes(-2, -3).reshape(*lead, n, heads * dh)


def _attention_probs(x: Tensor, wq, bq, wk, bk, heads, mask, query_rows):
    """The query rows of ``x``, queries and keys split by head, and the
    softmax attention weights (..., heads, query_rows, n)."""
    if x.values.ndim < 2 or x.shape[-1] % heads != 0:
        raise ShapeError(f"attention: {heads} heads do not split a tensor of shape {x.shape}")
    if query_rows is not None and not (1 <= query_rows <= x.shape[-2]):
        raise ShapeError(f"attention: {query_rows} query rows for {x.shape}")
    xv = x.values
    xq = xv if query_rows is None else xv[..., :query_rows, :]
    q = _split_heads(xq @ wq.values + bq.values, heads)
    k = _split_heads(xv @ wk.values + bk.values, heads)
    scores = (q @ k.swapaxes(-1, -2)) * q.shape[-1] ** -0.5
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return xq, q, k, e / e.sum(axis=-1, keepdims=True)


def attention_weights(x, wq, bq, wk, bk, heads, mask=None, query_rows=None) -> np.ndarray:
    """The weights ``attention`` mixes values with, (..., heads,
    query_rows, n).  They are not recorded on the tape."""
    return _attention_probs(x, wq, bq, wk, bk, heads, mask, query_rows)[3]


def attention(
    x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    heads: int, mask=None, query_rows: int | None = None,
) -> Tensor:
    """Multi-head scaled dot-product self-attention with its input and
    output projections, as one node with a hand-written backward.

    ``x`` is (..., n, d); leading axes are a batch.  Every row is a key and
    a value; the first ``query_rows`` rows (all when None) are queries, so
    the output is (..., query_rows, d).  ``mask`` is a constant added to the
    scores and broadcast against (..., heads, query_rows, n).
    """
    xq, q, k, p = _attention_probs(x, wq, bq, wk, bk, heads, mask, query_rows)
    xv = x.values
    v = _split_heads(xv @ wv.values + bv.values, heads)
    merged = _merge_heads(p @ v)
    out = Tensor(merged @ wo.values + bo.values)
    score_scale = q.shape[-1] ** -0.5

    def backward(g):
        g_o = _split_heads(g @ wo.values.T, heads)
        g_p = g_o @ v.swapaxes(-1, -2)
        g_s = (g_p - np.sum(g_p * p, axis=-1, keepdims=True)) * p * score_scale
        g_q = _merge_heads(g_s @ k)
        g_k = _merge_heads(g_s.swapaxes(-1, -2) @ q)
        g_v = _merge_heads(p.swapaxes(-1, -2) @ g_o)
        g_x = g_k @ wk.values.T + g_v @ wv.values.T
        g_x[..., : xq.shape[-2], :] += g_q @ wq.values.T
        return (
            g_x,
            _flat(xq).T @ _flat(g_q), _flat(g_q).sum(axis=0),
            _flat(xv).T @ _flat(g_k), _flat(g_k).sum(axis=0),
            _flat(xv).T @ _flat(g_v), _flat(g_v).sum(axis=0),
            _flat(merged).T @ _flat(g), _flat(g).sum(axis=0),
        )

    return _record(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def sum_all(t: Tensor) -> Tensor:
    out = Tensor(np.array([t.values.sum()]))
    shape = t.shape

    def backward(g):
        return (np.full(shape, g[0]),)

    return _record(out, (t,), backward)


def cross_entropy(probs: Tensor, gold: int) -> Tensor:
    """Negative log-likelihood of class ``gold``; probabilities clamped at 1e-12."""
    p = probs.values.reshape(-1)
    if not (0 <= gold < p.size):
        raise ShapeError(f"gold class {gold} out of range [0, {p.size})")
    clamped = max(p[gold], LOG_CLAMP)
    out = Tensor(np.array([-math.log(clamped)]))
    shape = probs.shape

    def backward(g):
        full = np.zeros(p.size)
        if p[gold] >= LOG_CLAMP:
            full[gold] = -g[0] / clamped
        return (full.reshape(shape),)

    return _record(out, (probs,), backward)


def finite_difference_gradient(
    f: Callable[[], float], param: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient estimate of ``f`` w.r.t. every coordinate
    of ``param``.  ``f`` must be deterministic and must read ``param.values``.
    """
    flat = param.values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        f_plus = f()
        flat[i] = saved - eps
        f_minus = f()
        flat[i] = saved
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(param.values.shape)
