"""Dense float64 tensors with tape-based reverse-mode differentiation.

One tape is recorded per training step and consumed by a single backward
pass.  Operations never mutate their inputs; gradients accumulate
additively when a tensor is used more than once.  A central
finite-difference estimator is included as the gradient oracle.
"""

from __future__ import annotations

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
    "reshape",
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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """(..., n, k) @ (k, m), plus a (m,) ``bias`` row if given: leading
    axes of ``a`` are a batch.  The bias is part of the one node, so an
    affine map stores one output array, not two."""
    if a.values.ndim < 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs (..., n, k) and (k, m), got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (b.shape[1],):
        raise ShapeError(f"matmul: bias {bias.shape} for output width {b.shape[1]}")
    out_values = a.values @ b.values
    if bias is not None:
        out_values += bias.values
    out = Tensor(out_values)
    av, bv = a.values, b.values

    def backward(g):
        grads = (g @ bv.T, _flat(av).T @ _flat(g))
        return grads if bias is None else (*grads, _flat(g).sum(axis=0))

    return _record(out, (a, b) if bias is None else (a, b, bias), backward)


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
    """Lookup along axis 0: (*indices.shape, *t.shape[1:]) for an index
    array of any shape, one entry of a stack for an integer.  Backward
    scatter-adds into the table."""
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


def reshape(t: Tensor, shape) -> Tensor:
    """The same values in another shape (numpy ``reshape`` rules)."""
    try:
        out = Tensor(t.values.reshape(shape))
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {t.shape} to {shape}")
    in_shape = t.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _record(out, (t,), backward)


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


class _QueryRows:
    """Where the query rows of ``attention`` come from, and how they sit
    beside the keys.

    Without ``source``, each (n, d) entry of ``x`` gives its first ``count``
    rows, and ``group``/``ungroup`` are the identity.  With it, ``x`` is
    (S, L, d) and row block r is ``scale[r, :, None] * x[source[r]]``, of
    which the first ``count`` rows are queries.  The blocks of one sequence
    are contiguous; ``group`` sets their query rows side by side per
    sequence, (S, slots * count, ·), zero-padded to the most blocks of a
    sequence, so that one batched matmul per sequence and head meets them
    all with that sequence's keys.
    """

    def __init__(self, xv: np.ndarray, heads: int, query_rows, source, scale):
        if xv.ndim < 2 or xv.shape[-1] % heads != 0:
            raise ShapeError(f"attention: {heads} heads do not split a tensor of shape {xv.shape}")
        if query_rows is not None and not (1 <= query_rows <= xv.shape[-2]):
            raise ShapeError(f"attention: {query_rows} query rows for {xv.shape}")
        self.count = xv.shape[-2] if query_rows is None else query_rows
        self.source = source
        self.key_scale = None  # (S, 1, slots * count, L), or None for all ones
        if source is None:
            self.xq = xv[..., :self.count, :]
            return
        source = self.source = np.asarray(source, dtype=np.int64)
        scale = np.asarray(scale, dtype=np.float64)
        if (xv.ndim != 3 or source.ndim != 1 or source.size == 0
                or scale.shape != (source.size, xv.shape[1])
                or source[0] < 0 or source[-1] >= len(xv) or np.any(np.diff(source) < 0)):
            raise ShapeError(
                f"attention: source {source.shape} must hold sorted indices of the "
                f"sequences of {xv.shape}, with one scale row each, got {scale.shape}"
            )
        self.sequences = len(xv)
        counts = np.bincount(source, minlength=len(xv))
        starts = np.cumsum(counts) - counts
        self.slot = np.arange(source.size) - starts[source]
        self.slots = int(counts.max())
        self.present, self.starts = counts > 0, starts[counts > 0]
        self.query_scale = scale[:, :self.count, None]
        self.xq = self.query_scale * xv[source, :self.count]
        rows = np.broadcast_to(scale[:, None], (source.size, self.count, scale.shape[1]))
        self.key_scale = self.group(rows)[:, None]

    def group(self, a: np.ndarray) -> np.ndarray:
        """(rows, count, ·) -> (S, slots * count, ·)."""
        if self.source is None:
            return a
        out = np.zeros((self.sequences, self.slots) + a.shape[1:])
        out[self.source, self.slot] = a
        return out.reshape(self.sequences, -1, *a.shape[2:])

    def ungroup(self, a: np.ndarray) -> np.ndarray:
        """(S, slots * count, ·) -> (rows, count, ·)."""
        if self.source is None:
            return a
        blocks = a.reshape(self.sequences, self.slots, self.count, *a.shape[2:])
        return blocks[self.source, self.slot]

    def add_query_grad(self, g_x: np.ndarray, g_xq: np.ndarray) -> None:
        """Add the gradient of the query rows into that of ``x``: with a
        ``source``, each sequence gets the sum over its contiguous blocks."""
        if self.source is None:
            g_x[..., :self.count, :] += g_xq
        else:
            g_x[self.present, :self.count] += np.add.reduceat(
                self.query_scale * g_xq, self.starts, axis=0
            )


def _attention_probs(xv: np.ndarray, rows: _QueryRows, wq, bq, wk, heads, mask):
    """Queries and keys split by head, and the softmax attention weights
    (S or ..., heads, queries, n), queries in ``rows.group`` layout.

    The key bias adds q·bk to every score of a query, a shift that softmax
    ignores, so it is left out."""
    q = _split_heads(rows.group(rows.xq @ wq.values + bq.values), heads)
    k = _split_heads(xv @ wk.values, heads)
    scores = (q @ k.swapaxes(-1, -2)) * q.shape[-1] ** -0.5
    if rows.key_scale is not None:
        scores *= rows.key_scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return q, k, e / e.sum(axis=-1, keepdims=True)


def attention_weights(
    x, wq, bq, wk, heads, mask=None, query_rows=None, source=None, scale=None
) -> np.ndarray:
    """The weights ``attention`` mixes values with, (rows or ..., heads,
    query_rows, n).  They are not recorded on the tape."""
    rows = _QueryRows(x.values, heads, query_rows, source, scale)
    p = _attention_probs(x.values, rows, wq, bq, wk, heads, mask)[2]
    return rows.ungroup(p.swapaxes(-2, -3)).swapaxes(-2, -3)


def attention(
    x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
    wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    heads: int, mask=None, query_rows: int | None = None, source=None, scale=None,
) -> Tensor:
    """Multi-head scaled dot-product self-attention with its input and
    output projections, as one node with a hand-written backward.

    ``x`` is (..., n, d); leading axes are a batch.  Every row is a key and
    a value; the first ``query_rows`` rows (all when None) are queries, so
    the output is (..., query_rows, d).  ``mask`` is a constant added to the
    scores and broadcast against (..., heads, query_rows, n).

    With a ``source`` (rows,) and a ``scale`` (rows, n), ``x`` is (S, n, d)
    and the output (rows, query_rows, d) is that of the input whose entry r
    is ``scale[r, :, None] * x[source[r]]``, without forming it.  Keys and
    values are linear in the input, so they are projected once per
    sequence and scaled per row; the value bias passes through the
    weights, which sum to 1.  ``source`` must be sorted.  ``mask`` masks
    the keys of each sequence: it broadcasts against (S, heads, 1, n).
    """
    xv = x.values
    rows = _QueryRows(xv, heads, query_rows, source, scale)
    q, k, p = _attention_probs(xv, rows, wq, bq, wk, heads, mask)
    s = rows.key_scale
    w = p if s is None else p * s
    v = _split_heads(xv @ wv.values, heads)
    merged = rows.ungroup(_merge_heads(w @ v)) + bv.values
    out = Tensor(merged @ wo.values + bo.values)
    score_scale = q.shape[-1] ** -0.5

    def backward(g):
        g_merged = g @ wo.values.T
        g_o = _split_heads(rows.group(g_merged), heads)
        g_p = g_o @ v.swapaxes(-1, -2)
        if s is not None:
            g_p *= s
        g_s = (g_p - np.sum(g_p * p, axis=-1, keepdims=True)) * p * score_scale
        if s is not None:
            g_s *= s
        g_q = rows.ungroup(_merge_heads(g_s @ k))
        g_k = _merge_heads(g_s.swapaxes(-1, -2) @ q)
        g_v = _merge_heads(w.swapaxes(-1, -2) @ g_o)
        g_x = g_k @ wk.values.T + g_v @ wv.values.T
        rows.add_query_grad(g_x, g_q @ wq.values.T)
        return (
            g_x,
            _flat(rows.xq).T @ _flat(g_q), _flat(g_q).sum(axis=0),
            _flat(xv).T @ _flat(g_k), np.zeros_like(bk.values),
            _flat(xv).T @ _flat(g_v), _flat(g_merged).sum(axis=0),
            _flat(merged).T @ _flat(g), _flat(g).sum(axis=0),
        )

    return _record(out, (x, wq, bq, wk, bk, wv, bv, wo, bo), backward)


def sum_all(t: Tensor) -> Tensor:
    out = Tensor(np.array([t.values.sum()]))
    shape = t.shape

    def backward(g):
        return (np.full(shape, g[0]),)

    return _record(out, (t,), backward)


def cross_entropy(probs: Tensor, gold) -> Tensor:
    """Summed negative log-likelihood of the gold classes, shape [1].

    ``probs`` is (..., C); ``gold`` holds one class index per row of it (an
    int for a single row).  Probabilities are clamped at 1e-12, and a row
    whose gold probability is clamped passes no gradient.
    """
    c = probs.shape[-1]
    p = probs.values.reshape(-1, c)
    gold = np.asarray(gold, dtype=np.int64).reshape(-1)
    if gold.size != p.shape[0]:
        raise ShapeError(f"{gold.size} gold classes for {p.shape[0]} probability rows")
    bad = (gold < 0) | (gold >= c)
    if bad.any():
        raise ShapeError(f"gold class {gold[bad][0]} out of range [0, {c})")
    rows = np.arange(gold.size)
    picked = p[rows, gold]
    clamped = np.maximum(picked, LOG_CLAMP)
    out = Tensor(np.array([-np.log(clamped).sum()]))
    shape = probs.shape

    def backward(g):
        full = np.zeros_like(p)
        full[rows, gold] = np.where(picked >= LOG_CLAMP, -g[0] / clamped, 0.0)
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
