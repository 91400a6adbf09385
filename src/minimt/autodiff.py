"""Reverse-mode automatic differentiation on numpy arrays.

Define-by-run: an operation on tensors that require gradients gives its
output tensor a graph node, so the computation graph is rebuilt on each
forward pass. A node is kept apart from the tensor it belongs to and holds
only what ``backward`` needs: the output's gradient accumulator, one grad
sink per input (the input's node, the input itself when it is a leaf that
needs a gradient, or None), a backward closure and a done flag. The
closure holds only the arrays its backward reads, never an input tensor,
so an intermediate array that no backward reads (a residual sum, a
pre-ReLU projection) is freed as soon as the model code drops its tensor.
``backward(root)`` walks the nodes once, in reverse topological order, and
drops each closure, with the arrays it kept, once it has run. All
arithmetic is float64.

When nothing records (under ``no_grad``, or when no input needs a
gradient), an op computes its output as it does when it records and returns
it at once, as a bare tensor: it makes no backward closure, node, recipe or
reader, and keeps no array for a backward. So an inference forward pays for
its arithmetic and one small wrapper per op, and reads the same bits as a
recording forward.

A node may also hold a recipe: a function that rebuilds its output bit for
bit, with the forward's own ufuncs and products, from arrays that a node or
the model keeps anyway. ``layer_norm`` rebuilds ``xhat * gain + bias`` from
the ``xhat`` its backward reads, ``attention`` its merged contexts from its
weights and values, ``linear`` ``x @ w + b`` when ``x`` has a recipe, and
``relu`` ``max(x, 0)`` from ``x``'s recipe when ``x`` has one; ``relu``
itself keeps only a boolean mask of where its output is positive.
``attention`` rebuilds its weights too, from its inputs and the scores' row
maxima and sums, once per backward: its output's recipe and its own
backward share them. ``linear`` and ``matmul`` read an input for a weight
gradient, and ``attention`` reads its three inputs; where an input has a
recipe they keep its node's ``output`` instead of the array. The first
backward that calls it rebuilds the array, and the node keeps it until its
own backward, which runs after every reader's, so the readers share one
rebuild. So a layer norm's output, the q, k and v projections over it, an
attention's output and a ReLU's live only while the model code holds them,
and again briefly during backward. A recipe reads its arrays when it runs,
so the parameters must not be written between a forward and its backward.

Two fused ops carry the model: ``linear(x, w, b)`` is ``x @ w + b`` as one
node, for every projection, and ``attention(q, k, v, n_heads, mask)`` is a
whole multi-head scaled dot-product attention between the projections as
one node, which keeps for backward only each score row's maximum and sum
and a reader for each projection, which holds the array only where the
projection has no recipe. Gradients are owned: the first array a
backward closure hands to a sink becomes that sink's ``grad`` (later ones
are added in place), so a closure passes only arrays that nothing else
holds, and copies where it would otherwise pass a view of its incoming
gradient. Note that ``training.Adam`` re-homes its parameters' ``data`` as
views into one flat buffer.
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


class Node:
    """The graph record of one op output: what ``backward`` needs of it.

    ``grad`` accumulates the output's gradient. ``sinks`` has one entry per
    op input: its node, the input itself if it is a leaf that needs a
    gradient, or None. ``fn(g, *sinks)`` hands each sink that is not None
    its share of ``g``. ``recipe``, when not None, rebuilds the output's
    data, which ``output()`` keeps from its first call on. ``backward``
    drops them all once ``fn`` has run. Nodes and
    tensors share one read-only view of the graph, ``_children`` and
    ``_backward_fn``, which the node count in ``perfbench/tracing.py`` walks.
    """

    __slots__ = ("grad", "sinks", "fn", "done", "recipe", "rebuilt")

    def __init__(self, fn, sinks, recipe=None):
        self.grad = None
        self.sinks = sinks
        self.fn = fn
        self.done = False
        self.recipe = recipe
        self.rebuilt = None

    def output(self):
        """The output's data, rebuilt on the first call. Every reader runs its
        backward before this node's, which drops the array, so the readers
        of one output share one rebuild."""
        if self.rebuilt is None:
            if self.done:  # a reader from a second graph: the recipe is gone
                raise GraphError("backward already ran through this graph; rebuild the forward pass")
            self.rebuilt = self.recipe()
        return self.rebuilt

    @property
    def _children(self):
        """The sinks that are not None."""
        return tuple(s for s in self.sinks if s is not None)

    @property
    def _backward_fn(self):
        """``fn`` with the sinks bound, or None once backward has run it."""
        if self.fn is None:
            return None
        return lambda g: self.fn(g, *self.sinks)


class Tensor:
    """N-dimensional float64 array, optionally tracked by the autodiff graph.

    ``data`` is the value (row-major numpy array), ``grad`` is filled in by
    ``backward`` and accumulates across backward calls on *different* graphs
    until ``zero_grad`` is called. An op output that records the graph has
    a ``Node``; the node does not refer back to the tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None

    @property
    def _children(self):
        return () if self._node is None else self._node._children

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

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


_new = object.__new__


def constant(data) -> Tensor:
    """A Tensor over ``data``, a float64 ndarray, taken as it is: no
    conversion, no gradient, no node. It is what an op returns when it
    records nothing, so its array must not be a numpy scalar."""
    out = _new(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._node = None
    return out


def _records(inputs) -> bool:
    """Whether an op over ``inputs`` gives its output a node."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _make(data, inputs, backward_fn, recipe=None):
    """A recorded op output: one with a node, for an op over ``inputs`` that
    ``_records``. ``backward_fn(g, *sinks)`` takes their sinks in order;
    ``recipe``, if given, rebuilds ``data`` bit for bit (see ``Node.output``)."""
    out = Tensor(data, requires_grad=True)
    out._node = Node(backward_fn, tuple([(t._node or t) if t.requires_grad else None
                                         for t in inputs]), recipe)
    return out


def _rebuilder(t):
    """``t``'s node's ``output`` if its data can be rebuilt, else None."""
    node = t._node
    return None if node is None or node.recipe is None else node.output


def _reader(t):
    """A function that a backward calls for ``t.data``: one that rebuilds it
    when it can, so the array can die with ``t``, else one that returns the
    array itself."""
    rebuild = _rebuilder(t)
    if rebuild is not None:
        return rebuild
    data = t.data
    return lambda: data


def _accumulate(sink, grad):
    """Add ``grad`` into ``sink.grad``; the first one is stored as is, so
    callers hand over arrays that nothing else holds."""
    if sink.grad is None:
        sink.grad = grad
    else:
        sink.grad += grad


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
#
# A closure's sinks line up with the op's inputs. An op with one input has a
# node only if that input needs a gradient, so its sink is never None.
#
# Each op computes its output first. When it records nothing, it returns the
# output there, before it makes a closure, a recipe or a node. An output of
# ``constant`` must be an ndarray; ``add``, ``mul``, ``relu``, ``tensor_sum``
# and ``cross_entropy`` can give a numpy scalar (from 0-d operands, or a sum
# over every axis), so they return it through the checked constructor.


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    if not _records((a, b)):
        return Tensor(out_data)
    shapes = (a.data.shape, b.data.shape)

    def backward_fn(g, *sinks):
        # an operand of the output's shape would get a view of g: copy it
        for s, shape in zip(sinks, shapes):
            if s is not None:
                _accumulate(s, g.copy() if shape == g.shape else _unbroadcast(g, shape))

    return _make(out_data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    if not _records((a, b)):
        return Tensor(out_data)
    a_shape, b_shape = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand: keep only those read
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward_fn(g, sa, sb):
        if sa is not None:
            _accumulate(sa, _unbroadcast(g * b_data, a_shape))
        if sb is not None:
            _accumulate(sb, _unbroadcast(g * a_data, b_shape))

    return _make(out_data, (a, b), backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data
    if not _records((a, b)):
        return constant(out_data)
    a_shape, b_shape = a.data.shape, b.data.shape
    read_a = _reader(a) if b.requires_grad else None
    read_b = _reader(b) if a.requires_grad else None

    def backward_fn(g, sa, sb):
        if sa is not None:
            _accumulate(sa, _unbroadcast(g @ read_b().swapaxes(-1, -2), a_shape))
        if sb is not None:
            if len(a_shape) > 2 and len(b_shape) == 2:
                # fold the batch into rows instead of summing a batched product
                k, n = b_shape
                _accumulate(sb, read_a().reshape(-1, k).T @ g.reshape(-1, n))
            else:
                _accumulate(sb, _unbroadcast(read_a().swapaxes(-1, -2) @ g, b_shape))

    return _make(out_data, (a, b), backward_fn)


def _affine(x_data, w_data, b_data):
    """``x @ w + b``: ``linear``'s output, in its forward and its recipe."""
    out = x_data @ w_data
    out += b_data
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a 2-D weight and a 1-D bias, as one graph node; it
    can be rebuilt when ``x`` can."""
    if w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear needs a 2-D weight and a matching 1-D bias, "
                         f"got shapes {w.data.shape} and {b.data.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    w_data, b_data = w.data, b.data
    out_data = _affine(x.data, w_data, b_data)
    if not _records((x, w, b)):
        return constant(out_data)
    k, n = w_data.shape
    read_x = _reader(x) if w.requires_grad else None
    rebuild_x = _rebuilder(x)

    def backward_fn(g, sx, sw, sb):
        if sx is not None:
            _accumulate(sx, g @ w_data.T)
        g2 = g.reshape(-1, n)
        if sw is not None:
            _accumulate(sw, read_x().reshape(-1, k).T @ g2)
        if sb is not None:
            _accumulate(sb, g2.sum(axis=0))

    return _make(out_data, (x, w, b), backward_fn,
                 None if rebuild_x is None else lambda: _affine(rebuild_x(), w_data, b_data))


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``; its node keeps only where the output is > 0, and it can
    be rebuilt when ``x`` can."""
    out_data = np.maximum(x.data, 0.0)
    if not _records((x,)):
        return Tensor(out_data)
    positive = out_data > 0.0  # exactly where x > 0
    # x's recipe, not its node's output: no backward reads x, so no node keeps it
    recipe_x = None if x._node is None else x._node.recipe

    def backward_fn(g, sx):
        _accumulate(sx, g * positive)

    return _make(out_data, (x,), backward_fn,
                 None if recipe_x is None else lambda: np.maximum(recipe_x(), 0.0))


def tensor_sum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)
    if not _records((x,)):
        return Tensor(out_data)
    shape = x.data.shape

    def backward_fn(g, sx):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % len(shape) for ax in axes):
                g = np.expand_dims(g, ax)
        _accumulate(sx, np.broadcast_to(g, shape).copy())

    return _make(out_data, (x,), backward_fn)


def tensor_mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = x.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([x.data.shape[ax] for ax in axes]))
    return tensor_sum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)
    if not _records((x,)):
        return constant(out_data)
    old_shape = x.data.shape

    def backward_fn(g, sx):
        _accumulate(sx, g.reshape(old_shape).copy())

    return _make(out_data, (x,), backward_fn)


def transpose(x: Tensor, axes=None) -> Tensor:
    out_data = x.data.transpose(axes)
    if not _records((x,)):
        return constant(out_data)

    def backward_fn(g, sx):
        inv = None if axes is None else tuple(np.argsort(axes))
        _accumulate(sx, g.transpose(inv).copy())

    return _make(out_data, (x,), backward_fn)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _records(tensors):
        return constant(out_data)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward_fn(g, *sinks):
        offset = 0
        for s, size in zip(sinks, sizes):
            if s is not None:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                _accumulate(s, g[tuple(index)].copy())
            offset += size

    return _make(out_data, tensors, backward_fn)


def softmax(x: Tensor, axis=-1) -> Tensor:
    """Max-shifted softmax; outputs are positive and sum to 1 along ``axis``."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    if not _records((x,)):
        return constant(out_data)

    def backward_fn(g, sx):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(sx, out_data * (g - dot))

    return _make(out_data, (x,), backward_fn)


def _heads(x, n_heads):
    """(B, T, d) -> (B, heads, T, d_head), as a view."""
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge(x):
    """(B, heads, T, d_head) -> (B, T, d), C-contiguous: handed a strided view,
    the projections' backward products take another BLAS path and round
    differently."""
    b, n_heads, t, d_head = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, t, n_heads * d_head)


def _attention_scores(qh, kh, scale, mask):
    """``qh khᵀ · scale + mask``: the (B, heads, S, T) scores in one new array,
    which the caller normalizes in place into the attention weights."""
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    return scores


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None) -> Tensor:
    """Multi-head ``softmax(q kᵀ / √d_head + mask) v`` as one graph node.

    ``q`` is (B, S, d); ``k`` and ``v`` are (B, T, d). Each is split into
    ``n_heads`` heads of width ``d_head = d / n_heads`` as views. ``mask`` is
    an additive array that broadcasts to the (B, heads, S, T) scores, or
    None. Returns the heads' contexts merged back to (B, S, d). The scores are scaled,
    masked and normalized in place, and the node keeps no (B, heads, S, T)
    array: only each score row's maximum and sum of exponentials, from which
    a backward rebuilds the weights, once, for the output's recipe and the
    node's own backward to share. It reads ``q``, ``k`` and ``v`` through
    ``_reader``, so a projection with a recipe is rebuilt, not kept.
    """
    d = q.data.shape[-1]
    if q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape != v.data.shape \
            or k.data.shape[0] != q.data.shape[0] or k.data.shape[2] != d or d % n_heads:
        raise ShapeError(f"attention needs (B, S, d) queries and matching (B, T, d) keys "
                         f"and values with d divisible by {n_heads} heads, got shapes "
                         f"{q.data.shape}, {k.data.shape} and {v.data.shape}")
    scale = 1.0 / math.sqrt(d // n_heads)
    qh, kh, vh = _heads(q.data, n_heads), _heads(k.data, n_heads), _heads(v.data, n_heads)
    w = _attention_scores(qh, kh, scale, mask)
    row_max = w.max(axis=-1, keepdims=True)
    w -= row_max
    np.exp(w, out=w)
    row_sum = w.sum(axis=-1, keepdims=True)
    w /= row_sum
    out_data = _merge(w @ vh)
    if not _records((q, k, v)):
        return constant(out_data)
    # q, k and v are read through their nodes' recipes where they have one,
    # so the projections die with their tensors and come back in backward
    read_q, read_k, read_v = _reader(q), _reader(k), _reader(v)
    rebuilt = []  # the weights, once a backward has rebuilt them

    def heads(read):
        return _heads(read(), n_heads)

    def weights():
        """The forward's weights, bit for bit: its ufuncs over its scores, with
        the row maxima and sums it found instead of both reductions."""
        if not rebuilt:
            w = _attention_scores(heads(read_q), heads(read_k), scale, mask)
            w -= row_max
            np.exp(w, out=w)
            w /= row_sum
            rebuilt.append(w)
        return rebuilt[0]

    def contexts():
        return _merge(weights() @ heads(read_v))

    def backward_fn(g, sq, sk, sv):
        w = weights()
        gh = _heads(g, n_heads)
        if sv is not None:
            _accumulate(sv, _merge(w.swapaxes(-1, -2) @ gh))
        # the weights' gradient, turned in place into the scores'
        dw = gh @ heads(read_v).swapaxes(-1, -2)
        dot = (dw * w).sum(axis=-1, keepdims=True)
        dw -= dot
        dw *= w
        dw *= scale
        if sq is not None:
            _accumulate(sq, _merge(dw @ heads(read_k)))
        if sk is not None:
            dkt = heads(read_q).swapaxes(-1, -2) @ dw  # (B, heads, d_head, T), as kᵀ's gradient
            _accumulate(sk, _merge(dkt.swapaxes(-1, -2)))

    return _make(out_data, (q, k, v), backward_fn, contexts)


def _scaled(xhat, gain_data, bias_data, out=None):
    """``xhat * gain + bias``, into ``out`` if given: ``layer_norm``'s output,
    in its forward and its recipe."""
    out = np.multiply(xhat, gain_data, out=out)
    out += bias_data
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and
    shift; the node keeps the normalized ``xhat`` and rebuilds the output
    from it."""
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
    gain_data, bias_data = gain.data, bias.data
    if not _records((x, gain, bias)):  # no backward reads xhat: scale it in place
        return constant(_scaled(xhat, gain_data, bias_data, out=xhat))

    def backward_fn(g, sx, sgain, sbias):
        if sbias is not None:
            _accumulate(sbias, g.reshape(-1, d).sum(axis=0))
        if sgain is not None:
            _accumulate(sgain, (g * xhat).reshape(-1, d).sum(axis=0))
        if sx is not None:
            dx = g * gain_data  # the gradient of xhat, turned in place into x's
            m1 = dx.sum(axis=-1, keepdims=True)
            m1 /= d
            t = dx * xhat
            m2 = t.sum(axis=-1, keepdims=True)
            m2 /= d
            np.multiply(xhat, m2, out=t)
            dx -= m1
            dx -= t
            dx *= inv
            _accumulate(sx, dx)

    return _make(_scaled(xhat, gain_data, bias_data), (x, gain, bias), backward_fn,
                 lambda: _scaled(xhat, gain_data, bias_data))


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup into ``table``; backward scatter-adds into the table gradient."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"embedding ids must be integers, got dtype {ids.dtype}")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"embedding id out of range [0, {vocab}): min={ids.min()}, max={ids.max()}")
    out_data = table.data[ids]
    if not _records((table,)):
        return constant(out_data)
    shape = table.data.shape

    def backward_fn(g, st):
        if st.grad is None:
            st.grad = np.zeros(shape)
        np.add.at(st.grad, ids, g)

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
    if not _records((logits,)):
        return Tensor(out_data)
    logits_data = logits.data

    def backward_fn(g, sl):
        p = np.exp(logits_data - lse)
        d = p * (mask[..., None] / n_valid)
        idx = safe_targets[..., None]
        np.put_along_axis(d, idx, np.take_along_axis(d, idx, axis=-1) - mask[..., None] / n_valid, axis=-1)
        _accumulate(sl, g * d)

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
    rebuild the forward pass instead. The root keeps its ``grad``; every
    node it reaches gives up its gradient and its closure once it has run.
    """
    if root.data.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.data.shape}")
    if root._node is None:
        raise GraphError("backward root is detached: no computation graph was recorded")

    topo = []
    visited = set()
    stack = [(root._node, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for sink in node.sinks:
            if type(sink) is Node:  # leaf sinks only receive gradients
                stack.append((sink, False))

    root.grad = np.ones_like(root.data)
    root._node.grad = root.grad
    for node in reversed(topo):
        if node.done:
            raise GraphError("backward already ran through this graph; rebuild the forward pass")
        node.done = True
        node.fn(node.grad, *node.sinks)
        node.fn = node.grad = node.recipe = node.rebuilt = None  # frees the arrays they kept


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
