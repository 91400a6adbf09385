"""Reverse-mode automatic differentiation on numpy arrays.

Define-by-run: every operation on tensors that require gradients records
its inputs and a backward closure on the output tensor, so the computation
graph is rebuilt on each forward pass and lives in the tensors' parent
links. ``backward(root)`` walks that graph once, in reverse topological
order. All arithmetic is float64.

Two fused ops carry the model: ``linear(x, w, b)`` is ``x @ w + b`` as one
node, for every projection, and ``attention(q, k, v, n_heads, mask)`` is a
whole multi-head scaled dot-product attention between the projections as
one node, which keeps only its attention weights for backward. Gradients
are owned: the first array a backward closure hands to a tensor becomes
that tensor's ``grad`` (later ones are added in place), so a closure passes
only arrays that nothing else holds, and copies where it would otherwise
pass a view of its incoming gradient. Note that ``training.Adam`` re-homes
its parameters' ``data`` as views into one flat buffer.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Backward was asked to do something the current graph cannot support."""


class EmptyLossError(ValueError):
    """Every target position was ignored; the loss average is undefined."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """N-dimensional float64 array, optionally tracked by the autodiff graph.

    ``data`` is the value (row-major numpy array), ``grad`` is filled in by
    ``backward`` and accumulates across backward calls on *different* graphs
    until ``zero_grad`` is called.
    """

    __slots__ = ("data", "grad", "requires_grad", "_children", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._children = ()
        self._backward_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def values(self):
        """Flat row-major view of the data."""
        return self.data.ravel()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and arrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)

    def relu(self):
        return relu(self)

    def item(self):
        return float(self.data)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, children, backward_fn):
    """Build an op output, recording the graph only when it is needed."""
    out = Tensor(data)
    if _grad_enabled and any(c.requires_grad for c in children):
        out.requires_grad = True
        out._children = tuple(children)
        out._backward_fn = backward_fn
    return out


def _accumulate(tensor, grad):
    """Add ``grad`` into ``tensor.grad``; the first one is stored as is, so
    callers hand over arrays that nothing else holds."""
    if tensor.grad is None:
        tensor.grad = grad
    else:
        tensor.grad += grad


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward_fn(g):
        # an operand of the output's shape would get a view of g: copy it
        for t in (a, b):
            if t.requires_grad:
                shape = t.data.shape
                _accumulate(t, g.copy() if shape == g.shape else _unbroadcast(g, shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            if a.data.ndim > 2 and b.data.ndim == 2:
                # fold the batch into rows instead of summing a batched product
                k, n = b.data.shape
                _accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight and a 1-D bias, as one graph node."""
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear needs a 2-D weight and a matching 1-D bias, "
                         f"got shapes {w.data.shape} and {b.data.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    out_data = x.data @ w.data
    out_data += b.data
    k, n = w.data.shape

    def backward_fn(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        g2 = g.reshape(-1, n)
        if w.requires_grad:
            _accumulate(w, x.data.reshape(-1, k).T @ g2)
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    return _make(out_data, (x, w, b), backward_fn)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward_fn(g):
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0))

    return _make(out_data, (x,), backward_fn)


def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if not x.requires_grad:
            return
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.data.shape).copy())
            return
        if not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            axes = tuple(ax % x.data.ndim for ax in axes)
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _make(out_data, (x,), backward_fn)


def tensor_mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = x.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([x.data.shape[ax] for ax in axes]))
    return tensor_sum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    old_shape = x.data.shape
    out_data = x.data.reshape(shape)

    def backward_fn(g):
        if x.requires_grad:
            _accumulate(x, g.reshape(old_shape).copy())

    return _make(out_data, (x,), backward_fn)


def transpose(x: Tensor, axes=None) -> Tensor:
    out_data = x.data.transpose(axes)

    def backward_fn(g):
        if x.requires_grad:
            inv = None if axes is None else tuple(np.argsort(axes))
            _accumulate(x, g.transpose(inv).copy())

    return _make(out_data, (x,), backward_fn)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward_fn(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                _accumulate(t, g[tuple(index)].copy())
            offset += size

    return _make(out_data, tuple(tensors), backward_fn)


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Max-shifted softmax; outputs are positive and sum to 1 along ``axis``."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(x, out_data * (g - dot))

    return _make(out_data, (x,), backward_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None) -> Tensor:
    """Multi-head ``softmax(q kᵀ / √d_head + mask) v`` as one graph node.

    ``q`` is (B, S, d); ``k`` and ``v`` are (B, T, d). Each is split into
    ``n_heads`` heads of width ``d_head = d / n_heads`` as views. ``mask`` is
    an additive array that broadcasts to the (B, heads, S, T) scores. Returns
    the heads' contexts merged back to (B, S, d). The scores are scaled,
    masked and normalized in place, so the attention weights are the only
    (B, heads, S, T) array the node keeps for backward.
    """
    d = q.data.shape[-1]
    if q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape != v.data.shape \
            or k.data.shape[0] != q.data.shape[0] or k.data.shape[2] != d or d % n_heads:
        raise ShapeError(f"attention needs (B, S, d) queries and matching (B, T, d) keys "
                         f"and values with d divisible by {n_heads} heads, got shapes "
                         f"{q.data.shape}, {k.data.shape} and {v.data.shape}")
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def heads(x):  # (B, T, d) -> (B, heads, T, d_head)
        return x.reshape(x.shape[0], x.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)

    # C-contiguous: handed a strided view, the projections' backward products
    # take another BLAS path and round differently
    def merge(x):  # (B, heads, T, d_head) -> (B, T, d)
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(x.shape[0], x.shape[2], d)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    w = qh @ kh.swapaxes(-1, -2)
    w *= scale
    if mask is not None:
        w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out_data = merge(w @ vh)

    def backward_fn(g):
        gh = heads(g)
        if v.requires_grad:
            _accumulate(v, merge(w.swapaxes(-1, -2) @ gh))
        dw = gh @ vh.swapaxes(-1, -2)  # the weights' gradient, turned in place into the scores'
        dot = (dw * w).sum(axis=-1, keepdims=True)
        dw -= dot
        dw *= w
        dw *= scale
        if q.requires_grad:
            _accumulate(q, merge(dw @ kh))
        if k.requires_grad:
            dkt = qh.swapaxes(-1, -2) @ dw  # (B, heads, d_head, T), as kᵀ's gradient
            _accumulate(k, merge(dkt.swapaxes(-1, -2)))

    return _make(out_data, (q, k, v), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be > 0, got {eps}")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}"
        )
    # means as sum then /= d: what ndarray.mean computes, without its Python-level wrapper
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= d
    xhat = x.data - mu
    var = np.multiply(xhat, xhat).sum(axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward_fn(g):
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dx = g * gain.data  # the gradient of xhat, turned in place into x's
            m1 = dx.sum(axis=-1, keepdims=True)
            m1 /= d
            t = dx * xhat
            m2 = t.sum(axis=-1, keepdims=True)
            m2 /= d
            np.multiply(xhat, m2, out=t)
            dx -= m1
            dx -= t
            dx *= inv
            _accumulate(x, dx)

    return _make(out_data, (x, gain, bias), backward_fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup into ``table``; backward scatter-adds into the table gradient."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding ids must be integers, got dtype {ids.dtype}")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"embedding id out of range [0, {vocab}): min={ids.min()}, max={ids.max()}")
    out_data = table.data[ids]

    def backward_fn(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make(out_data, (table,), backward_fn)


def cross_entropy(logits: Tensor, targets, ignore_id: int) -> Tensor:
    """Mean of -log softmax(logits)[target] over positions whose target != ignore_id.

    Uses a fused log-sum-exp; the full softmax is only materialized in backward.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits batch shape {logits.data.shape[:-1]}"
        )
    vocab = logits.data.shape[-1]
    mask = targets != ignore_id
    bad = mask & ((targets < 0) | (targets >= vocab))
    if bad.any():
        raise IndexError(f"target id out of range [0, {vocab}) at positions {np.argwhere(bad)[:4].tolist()}")
    n_valid = int(mask.sum())
    if n_valid == 0:
        raise EmptyLossError("all target positions carry the ignore id; loss is undefined")

    safe_targets = np.where(mask, targets, 0)
    m = logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits.data - m).sum(axis=-1, keepdims=True)) + m
    picked = np.take_along_axis(logits.data, safe_targets[..., None], axis=-1)[..., 0]
    per_pos = (lse[..., 0] - picked) * mask
    out_data = per_pos.sum() / n_valid

    def backward_fn(g):
        if not logits.requires_grad:
            return
        p = np.exp(logits.data - lse)
        d = p * (mask[..., None] / n_valid)
        idx = safe_targets[..., None]
        np.put_along_axis(d, idx, np.take_along_axis(d, idx, axis=-1) - mask[..., None] / n_valid, axis=-1)
        _accumulate(logits, g * d)

    return _make(out_data, (logits,), backward_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. rate == 0 is an exact no-op and consumes no randomness."""
    if rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# backward


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``root``.

    The root must be a scalar attached to a graph. Running backward a second
    time through any part of an already-consumed graph raises GraphError;
    rebuild the forward pass instead.
    """
    if root.data.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root._children:
        raise GraphError("backward root is detached: no computation graph was recorded")

    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for child in node._children:
            if child._children or child.requires_grad:
                stack.append((child, False))

    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward_fn is None:
            continue
        if node._backward_done:
            raise GraphError("backward already ran through this graph; rebuild the forward pass")
        node._backward_done = True
        node._backward_fn(node.grad)
        if node is not root:
            node.grad = None  # free intermediate grads; leaves keep theirs


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class InputCheck:
    """Worst finite-difference disagreement for one checked input tensor."""

    index: int
    max_rel_error: float
    worst_coord: tuple
    autodiff_value: float
    numeric_value: float


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    inputs: list = field(default_factory=list)

    def __str__(self):
        lines = [f"grad check: max rel error {self.max_rel_error:.3e} (tolerance {self.tolerance:.1e}) "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for c in self.inputs:
            lines.append(
                f"  input[{c.index}] worst at {c.worst_coord}: autodiff {c.autodiff_value:.6e} "
                f"vs central diff {c.numeric_value:.6e} (rel {c.max_rel_error:.3e})"
            )
        return "\n".join(lines)


def grad_check(f, inputs, h: float = 1e-5, tolerance: float = 1e-6) -> GradCheckReport:
    """Compare autodiff gradients of scalar-valued ``f(*inputs)`` to central differences.

    The relative error denominator is max(1, |autodiff|, |numeric|) so
    near-zero gradients are compared absolutely, which keeps the check
    meaningful below the finite-difference noise floor.
    """
    if h <= 0:
        raise ValueError(f"grad_check step h must be > 0, got {h}")
    inputs = list(inputs)

    with no_grad():
        y1 = f(*inputs).data.copy()
        y2 = f(*inputs).data.copy()
    if not np.array_equal(y1, y2):
        raise GraphError("grad_check requires a deterministic function; two forward passes disagree")

    zero_grads(inputs)
    out = f(*inputs)
    backward(out)
    analytic = [None if not t.requires_grad else
                (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for t in inputs]
    zero_grads(inputs)

    checks = []
    overall = 0.0
    with no_grad():
        for idx, t in enumerate(inputs):
            if not t.requires_grad:
                continue
            numeric = np.zeros(t.data.size)
            for k in range(t.data.size):
                orig = t.data.flat[k]
                t.data.flat[k] = orig + h
                f_plus = float(f(*inputs).data)
                t.data.flat[k] = orig - h
                f_minus = float(f(*inputs).data)
                t.data.flat[k] = orig
                numeric[k] = (f_plus - f_minus) / (2.0 * h)
            a = analytic[idx].ravel()
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
            rel = np.abs(a - numeric) / denom
            worst = int(rel.argmax()) if rel.size else 0
            max_err = float(rel[worst]) if rel.size else 0.0
            checks.append(InputCheck(
                index=idx,
                max_rel_error=max_err,
                worst_coord=tuple(np.unravel_index(worst, t.data.shape)) if t.data.size else (),
                autodiff_value=float(a[worst]) if rel.size else 0.0,
                numeric_value=float(numeric[worst]) if rel.size else 0.0,
            ))
            overall = max(overall, max_err)

    return GradCheckReport(max_rel_error=overall, tolerance=tolerance,
                           passed=overall < tolerance, inputs=checks)
