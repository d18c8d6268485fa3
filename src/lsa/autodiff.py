"""Dense float64 tensors with tape-based reverse-mode differentiation.

One tape is recorded per training step and consumed by a single backward
pass, which releases each node, with the arrays it saved, as soon as its
backward has run: a consumed tape is empty.  Operations never mutate their
inputs; gradients accumulate additively when a tensor is used more than
once.  A post-norm transformer block, ``LN(x + Sublayer(x))`` twice, is
two nodes with hand-written backwards: ``attention`` gives the residual
stream ``x + MHA(x)``, and ``residual_ffn`` the layer norm, feed-forward
sublayer, residual and layer norm after it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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
    "matmul",
    "concat",
    "gather_rows",
    "reshape",
    "attention",
    "residual_ffn",
    "cross_entropy",
]

LOG_CLAMP = 1e-12
LN_EPS = 1e-5  # added to each row's variance in a layer norm


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

    __slots__ = ("values", "grad")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def tensor(values) -> Tensor:
    return Tensor(values)


parameter = tensor  # what is trained is up to the optimizer's groups


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

    def backward(self, root: Tensor) -> None:
        """Populate grads of everything reachable from the scalar ``root``.

        Each node is popped off the tape once its backward has run, so its
        saved arrays, and the output tensor with its gradient unless the
        caller holds it, are freed during the pass, not when the tape is;
        the consumed tape is empty.  Leaves (parameters) and the tensors the
        caller holds keep their gradients."""
        if self._consumed:
            raise TapeError("tape already consumed by a backward pass; re-record first")
        if root.values.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
        self._consumed = True
        root.grad = np.ones_like(root.values)
        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            if node.output.grad is not None:
                _backward_node(node)


def _backward_node(node: _Node) -> None:
    """Add the gradients of one node's inputs, from that of its output.  A
    function of its own, so that nothing of the node outlives the call."""
    out_grad = node.output.grad
    grads = node.backward_fn(out_grad)
    for t, g in zip(node.inputs, grads):
        if g is None:
            continue
        if t.grad is not None:
            t.grad += g
        elif _unshared(g, out_grad, grads):
            t.grad = g
        else:
            t.grad = np.array(g, dtype=np.float64)


def _unshared(g, out_grad, grads) -> bool:
    """Whether ``g``, which a node's backward returned, may become a
    tensor's ``grad`` as it is, to be added into in place: a float64 array
    that owns its memory, neither the node's own ``out_grad`` nor
    returned twice by it."""
    return (
        type(g) is np.ndarray and g.dtype == np.float64 and g.base is None
        and g is not out_grad and sum(x is g for x in grads) == 1
    )


def _record(output: Tensor, inputs, backward_fn) -> Tensor:
    if _DEBUG_CHECKS and not np.all(np.isfinite(output.values)):
        op = backward_fn.__qualname__.split(".")[0]
        raise AutodiffError(f"non-finite values produced by {op}")
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


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """(n, k) @ (k, m), plus a (m,) ``bias`` row if given.  The bias is
    part of the one node, so an affine map stores one output array, not
    two."""
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul needs (n, k) and (k, m), got {a.shape} and {b.shape}")
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
        grads = (g @ bv.T, av.T @ g)
        return grads if bias is None else (*grads, g.sum(axis=0))

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
        return (_add_rows(shape, idx, g),)

    return _record(out, (t,), backward)


def _add_rows(shape, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.add.at(np.zeros(shape), idx, g)``, to the same bits: the rows of
    ``g`` summed into the rows of a zero table that ``idx`` (any shape)
    names.  One ``np.bincount`` over the flat cells adds each weight in
    index order from 0.0, as ``np.add.at`` does."""
    cells = math.prod(shape[1:])
    flat = idx.reshape(-1, 1) * cells + np.arange(cells)
    return np.bincount(flat.reshape(-1), weights=g.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


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


def _heads(a: np.ndarray, index, shape, heads: int) -> np.ndarray:
    """Rows (m, d) set at ``index`` of a zero (*shape, d) array, split by
    head: (S, heads, n, d / heads)."""
    out = np.zeros(shape + a.shape[1:])
    out[index] = a
    return out.reshape(*shape, heads, -1).swapaxes(1, 2)


def _rows(a: np.ndarray, index) -> np.ndarray:
    """The inverse of ``_heads``: (S, heads, n, dh) -> (m, heads * dh)."""
    picked = a.swapaxes(1, 2)[index]
    return picked.reshape(len(picked), -1)


class _Layout:
    """Where the packed rows of ``attention`` and its queries sit in the
    (S, heads, ·, ·) arrays of the scores.

    ``x`` (N, d) holds the real rows of S sequences in order, and ``valid``
    (S, L) marks their positions: keys and values are set there, zero at
    the padding.  Without ``source`` every row is a query, laid out the
    same way.  With it, query r is ``scale[r, 0]`` times the first row of
    sequence ``source[r]``.  ``xq`` holds the query rows, which are also
    the residual rows of the output.  The queries of one sequence are
    contiguous; they are set side by side, (S, slots), zero-padded to the
    most queries of a sequence, so that one batched matmul per sequence
    and head meets them all with that sequence's keys.
    """

    def __init__(self, xv: np.ndarray, heads: int, valid, source, scale):
        if xv.ndim != 2 or xv.shape[1] % heads != 0:
            raise ShapeError(f"attention: {heads} heads do not split packed rows {xv.shape}")
        valid = np.asarray(valid, dtype=bool)
        if valid.ndim != 2 or valid.sum() != len(xv) or not valid[:, 0].all():
            raise ShapeError(
                f"attention: {len(xv)} packed rows for a layout {valid.shape} of "
                f"{valid.sum()} real positions, each sequence starting with one"
            )
        self.heads, self.valid = heads, valid
        self.index, self.shape = valid, valid.shape  # of the queries
        self.mask = None if valid.all() else np.where(valid, 0.0, -1e30)[:, None, None, :]
        self.xq, self.key_scale = xv, None  # key_scale (S, 1, slots, L), or None for all ones
        if source is None:
            return
        source = np.asarray(source, dtype=np.int64)
        scale = np.asarray(scale, dtype=np.float64)
        if (source.ndim != 1 or source.size == 0 or scale.shape != (source.size, valid.shape[1])
                or source[0] < 0 or source[-1] >= len(valid) or np.any(np.diff(source) < 0)):
            raise ShapeError(
                f"attention: source {source.shape} must hold sorted indices of the "
                f"sequences of {valid.shape}, with one scale row each, got {scale.shape}"
            )
        lengths, counts = valid.sum(axis=1), np.bincount(source, minlength=len(valid))
        starts, first = np.cumsum(counts) - counts, np.cumsum(lengths) - lengths
        self.index = (source, np.arange(source.size) - starts[source])
        self.shape = (len(valid), int(counts.max()))
        self.first, self.starts = first[counts > 0], starts[counts > 0]
        self.group = (np.cumsum(counts > 0) - 1)[source]  # each query's index in ``first``
        self.query_scale = scale[:, :1]
        self.xq = self.query_scale * xv[first[source]]
        keys = np.zeros(self.shape + scale.shape[1:])
        keys[self.index] = scale
        self.key_scale = keys[:, None]

    def keys(self, a: np.ndarray) -> np.ndarray:
        """Packed rows (N, d) -> (S, heads, L, dh)."""
        return _heads(a, self.valid, self.valid.shape, self.heads)

    def queries(self, a: np.ndarray) -> np.ndarray:
        """Query rows (queries, d) -> (S, heads, L or slots, dh)."""
        return _heads(a, self.index, self.shape, self.heads)

    def add_row_grads(self, g_x: np.ndarray, g_xq: np.ndarray, g: np.ndarray) -> None:
        """Add the gradients of the query rows, ``g_xq``, then of the residual
        rows, ``g``, into that of ``x``; another order changes the last bits.
        With a ``source``, each sequence's first row gets each one's sum over
        its queries, the residual's summed row by row from zero (``_add_rows``)."""
        if self.key_scale is None:
            g_x += g_xq
            g_x += g
        else:
            g_x[self.first] += np.add.reduceat(self.query_scale * g_xq, self.starts, axis=0)
            shape = (len(self.first), g.shape[1])
            g_x[self.first] += _add_rows(shape, self.group, self.query_scale * g)


def attention(
    x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor,
    wv: Tensor, bv: Tensor, wo: Tensor, bo: Tensor,
    heads: int, valid, source=None, scale=None,
) -> Tensor:
    """The residual stream ``x + MHA(x)`` of multi-head scaled dot-product
    self-attention with its input and output projections, as one node
    with a hand-written backward.

    ``x`` (N, d) packs the real rows of S sequences, in order, and
    ``valid`` (S, L) marks their positions, the first of each sequence
    real; a single sequence is S = 1.  Each row attends to the rows of its
    own sequence.  The projections run on the packed rows; only the
    scores, the softmax and the mixing of values see the (S, heads, L, ·)
    layout, zero at the padding.  Every row is a query: the output is (N, d).

    With a sorted ``source`` (queries,) and a ``scale`` (queries, L), the
    output (queries, d) holds in row r the first row of the output for
    sequence ``source[r]`` with its rows scaled by ``scale[r]``, without
    forming that input; its residual row is that first row, scaled.  Keys
    and values are linear in the input, so they are projected once per
    sequence and scaled per query; the value bias passes through the
    weights, which sum to 1.  There is no key bias: a key bias bk adds
    q·bk to every score of a query, a shift that softmax ignores.
    """
    xv = x.values
    at = _Layout(xv, heads, valid, source, scale)
    q = at.queries(at.xq @ wq.values + bq.values)
    k = at.keys(xv @ wk.values)
    score_scale = q.shape[-1] ** -0.5
    p = q @ k.swapaxes(-1, -2)  # the scores, then in place the softmax weights
    p *= score_scale
    s = at.key_scale
    if s is not None:
        p *= s
    if at.mask is not None:
        p += at.mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= (p @ np.ones(p.shape[-1]))[..., None]
    w = p if s is None else p * s
    v = at.keys(xv @ wv.values)
    merged = _rows(w @ v, at.index) + bv.values
    out_values = merged @ wo.values
    out_values += bo.values
    out_values += at.xq  # the residual, added last
    out = Tensor(out_values)

    def backward(g):
        g_merged = g @ wo.values.T
        g_o = at.queries(g_merged)
        g_s = g_o @ v.swapaxes(-1, -2)  # that of w, turned in place into that of the scores
        if s is not None:
            g_s *= s
        g_s -= np.einsum("...i,...i->...", g_s, p)[..., None]
        g_s *= p
        g_s *= score_scale if s is None else score_scale * s
        g_q = _rows(g_s @ k, at.index)
        g_k = _rows(g_s.swapaxes(-1, -2) @ q, at.valid)
        g_v = _rows(w.swapaxes(-1, -2) @ g_o, at.valid)
        g_x = g_k @ wk.values.T + g_v @ wv.values.T
        at.add_row_grads(g_x, g_q @ wq.values.T, g)
        return (
            g_x,
            at.xq.T @ g_q, g_q.sum(axis=0),
            xv.T @ g_k,
            xv.T @ g_v, g_merged.sum(axis=0),
            merged.T @ g, g.sum(axis=0),
        )

    return _record(out, (x, wq, bq, wk, wv, bv, wo, bo), backward)


def _normalize(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Centre and scale each row of ``z`` (N, d) to mean 0 and variance 1
    into ``out``, which may be ``z``; return the (N, 1) column of 1/σ."""
    d = z.shape[1]
    np.subtract(z, (z @ np.full(d, 1.0 / d))[:, None], out=out)
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", out, out) / d + LN_EPS)[:, None]
    out *= inv
    return inv


def _normalize_backward(g: np.ndarray, zhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient of ``_normalize``'s input from that of its output
    ``zhat``, in place in ``g``.  ``zhat`` is overwritten."""
    d = g.shape[1]
    dot = np.einsum("ij,ij->i", g, zhat)[:, None] / d
    g -= (g @ np.full(d, 1.0 / d))[:, None]
    zhat *= dot
    g -= zhat
    g *= inv
    return g


def residual_ffn(
    x: Tensor, ln1_g: Tensor, ln1_b: Tensor,
    w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
    ln2_g: Tensor, ln2_b: Tensor,
) -> Tensor:
    """``LN2(h + tanh(h W1 + b1) W2 + b2)`` with ``h = LN1(x)``: the layer
    norm, feed-forward, residual add and layer norm that follow attention
    in a post-norm block (``x`` is ``attention``'s residual stream), as
    one node with a hand-written backward.

    ``x`` is (N, d) rows, each layer norm has a gain and a bias (d,), and
    the feed-forward maps d -> ffn -> d.  The node keeps only what its
    backward reads: both normalized inputs, their 1/σ, ``h`` and the tanh
    output."""
    inputs = (x, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b)
    d = x.shape[1] if x.values.ndim == 2 else -1
    ffn = w1.shape[-1]
    if (w1.shape != (d, ffn) or b1.shape != (ffn,) or w2.shape != (ffn, d)
            or any(t.shape != (d,) for t in (ln1_g, ln1_b, b2, ln2_g, ln2_b))):
        raise ShapeError(f"residual_ffn: shapes {[t.shape for t in inputs]} do not fit")
    g1, g2, w1v, w2v = ln1_g.values, ln2_g.values, w1.values, w2.values
    xhat = np.empty_like(x.values)
    inv1 = _normalize(x.values, xhat)
    h = xhat * g1
    h += ln1_b.values
    u = h @ w1v
    u += b1.values
    np.tanh(u, out=u)
    zhat = u @ w2v
    zhat += b2.values
    zhat += h
    inv2 = _normalize(zhat, zhat)
    out = Tensor(zhat * g2 + ln2_b.values)

    def backward(g):
        g_ln2_g, g_ln2_b = np.einsum("ij,ij->j", g, zhat), g.sum(axis=0)
        g_z = _normalize_backward(g * g2, zhat, inv2)
        g_w2 = u.T @ g_z
        g_u = g_z @ w2v.T
        # tanh' = 1 - u², formed in u (not read again) to allocate no (N, ffn) array
        np.multiply(u, u, out=u)
        np.subtract(1.0, u, out=u)
        g_u *= u
        g_h = g_u @ w1v.T
        g_h += g_z
        g_ln1_g, g_ln1_b = np.einsum("ij,ij->j", g_h, xhat), g_h.sum(axis=0)
        g_h *= g1
        g_s = _normalize_backward(g_h, xhat, inv1)
        return (g_s, g_ln1_g, g_ln1_b, h.T @ g_u, g_u.sum(axis=0), g_w2, g_z.sum(axis=0),
                g_ln2_g, g_ln2_b)

    return _record(out, inputs, backward)


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """Summed negative log-likelihood of the gold classes under the
    max-stabilized softmax of each row of ``logits`` (rows, C), shape [1],
    as one node.  ``gold`` holds one class index per row.  Probabilities
    are clamped at 1e-12, and a row whose gold probability is clamped
    passes no gradient.  The backward is that of the loss on the
    probabilities, then that of the softmax."""
    v = logits.values
    gold = np.asarray(gold, dtype=np.int64).reshape(-1)
    if v.ndim != 2 or gold.size != v.shape[0]:
        raise ShapeError(f"{gold.size} gold classes for logits {logits.shape}, not one per row")
    bad = (gold < 0) | (gold >= v.shape[1])
    if bad.any():
        raise ShapeError(f"gold class {gold[bad][0]} out of range [0, {v.shape[1]})")
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    rows = np.arange(gold.size)
    picked = p[rows, gold]
    clamped = np.maximum(picked, LOG_CLAMP)
    out = Tensor(np.array([-np.log(clamped).sum()]))

    def backward(g):
        g_p = np.zeros_like(p)
        g_p[rows, gold] = np.where(picked >= LOG_CLAMP, -g[0] / clamped, 0.0)
        dot = np.sum(g_p * p, axis=-1, keepdims=True)
        return ((g_p - dot) * p,)

    return _record(out, (logits,), backward)
