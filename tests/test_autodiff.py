import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from minimt import autodiff as ad
from minimt.autodiff import (
    EmptyLossError,
    GraphError,
    ShapeError,
    Tensor,
    backward,
    concat,
    cross_entropy,
    embedding,
    grad_check,
    layer_norm,
    matmul,
    softmax,
)


def rand(shape, seed, scale=1.0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(0, scale, shape), requires_grad=requires_grad)


def scalarize(op):
    """Turn an op into a scalar function via a fixed random linear functional,
    so the finite-difference oracle sees a non-degenerate gradient."""
    def wrap(*inputs):
        out = op(*inputs)
        w = Tensor(np.random.default_rng(12345).normal(size=out.data.shape))
        return (out * w).sum()
    return wrap


# --- matmul -----------------------------------------------------------------

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(rand((2, 3), 0), rand((2, 2), 1))


def test_matmul_gradient():
    a, b = rand((3, 4), 1), rand((4, 2), 2)
    report = grad_check(lambda x, y: matmul(x, y).sum(), [a, b], h=1e-5, tolerance=1e-6)
    assert report.passed, str(report)


def test_matmul_batched_gradient():
    a, b = rand((2, 3, 5, 4), 3, 0.5), rand((2, 3, 4, 6), 4, 0.5)
    report = grad_check(scalarize(matmul), [a, b], tolerance=1e-6)
    assert report.passed, str(report)


def test_matmul_broadcast_weight_gradient():
    x, w = rand((2, 5, 4), 5), rand((4, 3), 6)
    report = grad_check(scalarize(matmul), [x, w], tolerance=1e-6)
    assert report.passed, str(report)


# --- softmax ----------------------------------------------------------------

def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]), axis=-1)
    assert np.allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_stable_under_large_inputs():
    out = softmax(Tensor([1000.0, 0.0]), axis=-1)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 1 - 1e-12 and out.data[1] < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_softmax_sums_to_one(seed):
    x = rand((3, 7), seed, scale=20.0, requires_grad=False)
    out = softmax(x, axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(out.data > 0)


def test_softmax_gradient():
    x = rand((5,), 7)
    report = grad_check(scalarize(lambda t: softmax(t, axis=-1)), [x], tolerance=1e-6)
    assert report.passed, str(report)


def test_softmax_bad_axis():
    with pytest.raises(ShapeError):
        softmax(rand((3,), 0), axis=2)


# --- layer_norm ---------------------------------------------------------------

def test_layer_norm_constant_vector_is_zero():
    x = Tensor([4.2, 4.2, 4.2])
    out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_normalizes():
    x = Tensor([1.0, 2.0, 3.0])
    out = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-12)
    # hand arithmetic: mu=2, sigma^2=2/3, (x - 2) / sqrt(2/3)
    expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / math.sqrt(2.0 / 3.0 + 1e-12)
    assert np.allclose(out.data, expected, atol=1e-9)
    assert abs(out.data.mean()) < 1e-10
    assert abs((out.data ** 2).mean() - 1.0) < 1e-6


def test_layer_norm_gradient():
    x = rand((2, 4), 8)
    gain = rand((4,), 9, 0.5)
    bias = rand((4,), 10, 0.5)
    report = grad_check(scalarize(lambda a, g, b: layer_norm(a, g, b)), [x, gain, bias], tolerance=1e-6)
    assert report.passed, str(report)


def textbook_layer_norm(x, gain, bias, g, eps=1e-5):
    """Output and (x, gain, bias) gradients by the mean-based formula."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain * xhat + bias
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return out, [dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]


@pytest.mark.parametrize("shape", [(16, 9, 64), (4, 1, 64)])
def test_layer_norm_is_bit_identical_to_textbook_formula(shape):
    x, gain, bias = rand(shape, 11, 3.0), rand(shape[-1:], 12), rand(shape[-1:], 13)
    g = np.random.default_rng(14).normal(size=shape)
    g_before = g.copy()
    out = layer_norm(x, gain, bias)
    out._backward_fn(g)
    expected_out, expected_grads = textbook_layer_norm(x.data, gain.data, bias.data, g)
    assert np.array_equal(out.data, expected_out)
    for t, expected in zip((x, gain, bias), expected_grads):
        assert np.array_equal(t.grad, expected)
    assert np.array_equal(g, g_before)


def test_layer_norm_dim_mismatch():
    with pytest.raises(ShapeError):
        layer_norm(rand((2, 4), 0), rand((3,), 1), rand((4,), 2))


# --- cross_entropy ------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 3, 8)))
    targets = np.arange(6).reshape(2, 3) % 8
    loss = cross_entropy(logits, targets, ignore_id=-1)
    assert abs(loss.item() - math.log(8)) < 1e-12


def test_cross_entropy_saturated_correct():
    targets = np.array([[1, 2]])
    logits = np.zeros((1, 2, 5))
    logits[0, 0, 1] = 30.0
    logits[0, 1, 2] = 30.0
    loss = cross_entropy(Tensor(logits), targets, ignore_id=-1)
    assert loss.item() < 1e-9


def test_cross_entropy_ignores_positions():
    logits = rand((2, 3, 5), 11, requires_grad=False)
    targets = np.array([[1, 4, 0], [0, 0, 0]])
    full = cross_entropy(logits, targets, ignore_id=-1).item()
    targets_ign = np.array([[1, 4, -1], [-1, -1, -1]])
    part = cross_entropy(logits, targets_ign, ignore_id=-1).item()
    assert part != pytest.approx(full)
    # mean over exactly the two remaining positions
    a = cross_entropy(logits, np.array([[1, -1, -1], [-1, -1, -1]]), ignore_id=-1).item()
    b = cross_entropy(logits, np.array([[-1, 4, -1], [-1, -1, -1]]), ignore_id=-1).item()
    assert part == pytest.approx((a + b) / 2, rel=1e-12)


def test_cross_entropy_gradient():
    logits = rand((2, 3, 5), 12)
    targets = np.random.default_rng(13).integers(0, 5, (2, 3))
    targets[0, 1] = -1
    report = grad_check(lambda l: cross_entropy(l, targets, ignore_id=-1), [logits], tolerance=1e-6)
    assert report.passed, str(report)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(rand((1, 2, 4), 0), np.array([[1, 7]]), ignore_id=-1)


def test_cross_entropy_all_ignored():
    with pytest.raises(EmptyLossError):
        cross_entropy(rand((1, 2, 4), 0), np.array([[-1, -1]]), ignore_id=-1)


# --- backward ----------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = rand((3, 4), 14)
    backward(x.sum())
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    backward(x * x)
    assert x.grad == pytest.approx(6.0)


def test_backward_fanout_accumulates():
    x = Tensor(5.0, requires_grad=True)
    backward(x + x)
    assert x.grad == pytest.approx(2.0)


def test_backward_nonscalar_root():
    x = rand((3,), 15)
    with pytest.raises(GraphError):
        backward(x + x)


def test_backward_detached_root():
    with pytest.raises(GraphError):
        backward(Tensor(1.0, requires_grad=True))


def test_backward_twice_errors():
    x = rand((3,), 16)
    y = (x * x).sum()
    backward(y)
    with pytest.raises(GraphError):
        backward(y)


def test_backward_reusing_consumed_subgraph_errors():
    x = rand((3,), 17)
    y = (x * x).sum()
    backward(y)
    with pytest.raises(GraphError):
        backward(y + Tensor(0.0))


def test_backward_through_a_second_reader_of_a_rebuilt_output_errors():
    h = layer_norm(rand((2, 3), 18), rand((3,), 19), rand((3,), 20))
    w, c = rand((3, 2), 21), rand((2,), 22)
    first, second = ad.linear(h, w, c).sum(), ad.linear(h, w, c).sum()
    backward(first)
    with pytest.raises(GraphError, match="already ran"):
        backward(second)


def test_grads_accumulate_across_fresh_graphs():
    x = Tensor(2.0, requires_grad=True)
    backward(x * x)
    backward(x * x)
    assert x.grad == pytest.approx(8.0)
    x.zero_grad()
    backward(x * x)
    assert x.grad == pytest.approx(4.0)


# --- grad_check harness --------------------------------------------------------

def test_grad_check_sum_of_squares():
    x = rand((4, 3), 18)
    report = grad_check(lambda t: (t * t).sum(), [x], tolerance=1e-9)
    assert report.passed, str(report)
    assert report.max_rel_error < 1e-9


def test_grad_check_cross_entropy_softmax_chain():
    x = rand((2, 6), 19)
    targets = np.array([2, 5])

    def chain(t):
        probs = softmax(t, axis=-1)
        return cross_entropy(probs * 3.0, targets, ignore_id=-1)

    report = grad_check(chain, [x], tolerance=1e-6)
    assert report.passed, str(report)


def test_grad_check_flags_wrong_backward():
    # negative control: an op whose backward is off by a factor of two
    def bad_square(t):
        data = t.data

        def backward_fn(g, sink):
            ad._accumulate(sink, g * data)  # should be 2 * data

        return ad._make(data * data, (t,), backward_fn).sum()

    x = rand((3,), 20)
    report = grad_check(bad_square, [x], tolerance=1e-6)
    assert not report.passed
    assert report.max_rel_error > 1e-2


def test_grad_check_rejects_nondeterministic_f():
    state = {"n": 0}

    def noisy(t):
        state["n"] += 1
        return (t * float(state["n"])).sum()

    with pytest.raises(GraphError, match="deterministic"):
        grad_check(noisy, [rand((2,), 21)])


# --- remaining ops all pass the finite-difference oracle ------------------------

def relu_off_kink(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    x = np.where(np.abs(x) < 0.1, x + 0.2 * np.sign(x) + 0.2 * (x == 0), x)
    return Tensor(x, requires_grad=True)


@pytest.mark.parametrize("name,fn,inputs", [
    ("add", lambda a, b: a + b, [rand((3, 4), 30), rand((3, 4), 31)]),
    ("add_broadcast", lambda a, b: a + b, [rand((3, 4), 32), rand((4,), 33)]),
    ("mul", lambda a, b: a * b, [rand((3, 4), 34), rand((3, 4), 35)]),
    ("mul_broadcast", lambda a, b: a * b, [rand((2, 1, 4), 36), rand((3, 4), 37)]),
    ("scale", lambda a: a * 2.5, [rand((3, 4), 38)]),
    ("relu", lambda a: a.relu(), [relu_off_kink(39)]),
    ("concat", lambda a, b: concat([a, b], axis=1), [rand((2, 3), 40), rand((2, 2), 41)]),
    ("reshape", lambda a: a.reshape(6, 2), [rand((3, 4), 42)]),
    ("transpose", lambda a: a.transpose(1, 0, 2), [rand((2, 3, 4), 43)]),
    ("sum_axis", lambda a: a.sum(axis=1), [rand((3, 4), 44)]),
    ("mean", lambda a: a.mean(axis=0, keepdims=True), [rand((3, 4), 45)]),
])
def test_op_gradients(name, fn, inputs):
    report = grad_check(scalarize(fn), inputs, tolerance=1e-6)
    assert report.passed, f"{name}: {report}"


def test_embedding_gradient_scatter_add():
    table = rand((6, 4), 46)
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    report = grad_check(scalarize(lambda t: embedding(t, ids)), [table], tolerance=1e-6)
    assert report.passed, str(report)
    # repeated ids must accumulate
    table.zero_grad()
    backward(embedding(table, np.array([1, 1, 1])).sum())
    assert np.allclose(table.grad[1], 3.0)


def test_embedding_id_out_of_range():
    with pytest.raises(IndexError):
        embedding(rand((4, 2), 0), np.array([0, 4]))


def test_forward_determinism():
    a, b = rand((8, 8), 47, requires_grad=False), rand((8, 8), 48, requires_grad=False)
    r1 = matmul(a, b).data
    r2 = matmul(a, b).data
    assert np.array_equal(r1, r2)
    s1 = softmax(a, axis=-1).data
    s2 = softmax(a, axis=-1).data
    assert np.array_equal(s1, s2)


def test_values_and_grad_are_finite_after_masked_softmax():
    # masking policy: additive -1e9, never -inf, so backward stays NaN-free
    scores = rand((2, 4, 4), 49)
    mask = np.zeros((2, 1, 4))
    mask[:, :, 2:] = -1e9
    out = softmax(scores + Tensor(mask), axis=-1)
    backward((out * rand((2, 4, 4), 50, requires_grad=False)).sum())
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(scores.grad))
    assert np.all(out.data[:, :, 2:] < 1e-12)


# --- fast paths against the slow paths they replace -------------------------------

def _assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def _grads_of(fn, inputs, weights):
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    backward((out * weights).sum())
    return out.data.copy(), [t.grad.copy() for t in inputs]


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4), (2, 3, 5, 4)])
def test_linear_matches_matmul_plus_bias(x_shape):
    x, w, b = rand(x_shape, 60), rand((4, 6), 61), rand((6,), 62)
    weights = rand(x_shape[:-1] + (6,), 63, requires_grad=False)
    fast, fast_grads = _grads_of(ad.linear, [x, w, b], weights)
    slow, slow_grads = _grads_of(lambda x, w, b: matmul(x, w) + b, [x, w, b], weights)
    assert np.array_equal(fast, slow)
    for fast_grad, slow_grad in zip(fast_grads, slow_grads):
        _assert_close(fast_grad, slow_grad)


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
def test_linear_gradient(x_shape):
    x, w, b = rand(x_shape, 64), rand((4, 3), 65), rand((3,), 66)
    report = grad_check(scalarize(ad.linear), [x, w, b], tolerance=1e-6)
    assert report.passed, str(report)


def test_linear_shape_errors():
    with pytest.raises(ShapeError, match="inner"):
        ad.linear(rand((2, 3), 0), rand((4, 2), 1), rand((2,), 2))
    with pytest.raises(ShapeError, match="bias"):
        ad.linear(rand((2, 4), 0), rand((4, 2), 1), rand((3,), 2))


def test_folded_weight_gradient_matches_batched_sum():
    a, w = rand((3, 5, 4), 67), rand((4, 6), 68)
    g = np.random.default_rng(69).normal(size=(3, 5, 6))
    backward((matmul(a, w) * Tensor(g)).sum())
    batched_then_summed = (a.data.swapaxes(-1, -2) @ g).sum(axis=0)
    _assert_close(w.grad, batched_then_summed)
    _assert_close(a.grad, g @ w.data.T)


def test_self_add_doubles_without_touching_the_root():
    x = rand((3, 4), 70)
    backward((x + x).sum())
    assert np.array_equal(x.grad, np.full((3, 4), 2.0))
    x = rand((1,), 70)
    root = x + x
    backward(root)
    assert np.array_equal(x.grad, [2.0])
    assert np.array_equal(root.grad, [1.0])


@pytest.mark.parametrize("name,fn", [
    ("add", lambda a, b: a + b),
    ("reshape", lambda a, b: a.reshape(1, 1).reshape(1)),
    ("transpose", lambda a, b: a.transpose(0)),
    ("concat", lambda a, b: concat([concat([a], axis=0)], axis=0)),
    ("chain", lambda a, b: concat([a.reshape(1, 1).transpose(1, 0), b.reshape(1, 1)], axis=1).sum()),
])
def test_gradients_own_their_memory(name, fn):
    # each op here would otherwise hand a view of the root's gradient to a leaf
    a, b = rand((1,), 71), rand((1,), 72)
    root = fn(a, b)
    backward(root)
    grads = [g for g in (a.grad, b.grad) if g is not None] + [root.grad]
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h), name
    a.grad += 1.0
    assert np.all(root.grad == 1.0), name
    assert b.grad is None or np.all(b.grad == 1.0), name


def _step(rows=16, tokens=(3, 8), multitask=True, **model_kw):
    """A model (the default shape, unless ``model_kw`` says otherwise) and one
    step's (parallel, source mono, target mono) batches of ``rows`` sentences
    of ``tokens`` tokens; a baseline step has only the parallel batch."""
    from minimt.data import ParallelExample, build_vocab, encode, make_batches
    from minimt.model import ModelConfig, init_params

    rng = np.random.default_rng(73)
    words = [f"w{i}" for i in range(30)]
    lo, hi = tokens
    lines = [" ".join(rng.choice(words, size=rng.integers(lo, hi + 1))) for _ in range(3 * rows)]
    vocab = build_vocab(lines, languages=["xx", "yy"])
    pairs = [ParallelExample(encode(l, vocab, "xx"), encode(l, vocab, "yy"))
             for l in lines[:rows]]
    src = [encode(l, vocab, "xx") for l in lines[rows:2 * rows]]
    tgt = [encode(l, vocab, "yy") for l in lines[2 * rows:]]
    config = ModelConfig(vocab_size=len(vocab), **model_kw)
    batches = [make_batches(split, rows, vocab, config.max_len, seed=0)[0]
               for split in (pairs, src, tgt)]
    if not multitask:
        batches[1:] = [None, None]
    return init_params(config, multitask=multitask), batches


def _desk_step():
    """A multitask model of the default shape and one step's (parallel,
    source mono, target mono) batches of 16 sentences of 3-8 tokens."""
    return _step()


def _desk_step_root(model, batches):
    from minimt.training import compute_losses

    return compute_losses(model, *batches).loss


def test_desk_step_gradients_share_no_memory():
    model, batches = _desk_step()
    root = _desk_step_root(model, batches)
    backward(root)
    grads = [p.grad for p in model.parameters()]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert not np.shares_memory(g, root.grad)
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)


# --- the memory contract: a node keeps only what its backward reads ---------------

def _graph(root):
    """Every object reachable from ``root`` through ``_children``, root first."""
    seen, order, stack = set(), [], [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            order.append(t)
            stack.extend(t._children)
    return order


def test_arrays_no_backward_reads_die_with_their_tensors(monkeypatch):
    # the residual sums and the pre-ReLU projections are dropped by the model
    # code during the forward pass; no node may keep them for backward. The
    # layer-norm, attention and ReLU outputs are read by the projections
    # after them, which rebuild them from what other nodes keep instead, and
    # each attention's weights are rebuilt from its score rows' maxima and sums.
    model, batches = _desk_step()
    add, relu, layer_norm, attention = ad.add, ad.relu, ad.layer_norm, ad.attention
    scores = ad._attention_scores
    sums, pre_relu, weights = [], [], []
    rebuilt = {"relu": [], "layer_norm": [], "attention": []}

    def recording_scores(*args):
        out = scores(*args)  # normalized in place into the attention weights
        weights.append(weakref.ref(out))
        return out

    def recording_add(a, b):
        out = add(a, b)
        assert out.data.base is None  # an owned array, not a view that dies alone
        sums.append(weakref.ref(out.data))
        return out

    def recording(name, op):
        def record(*args):
            out = op(*args)
            owner = out.data if out.data.base is None else out.data.base  # attention's is a view
            assert owner.base is None
            rebuilt[name].append(weakref.ref(owner))
            return out
        return record

    def recording_relu(x):
        assert x.data.base is None
        pre_relu.append(weakref.ref(x.data))
        return recording("relu", relu)(x)

    monkeypatch.setattr(ad, "add", recording_add)
    monkeypatch.setattr(ad, "relu", recording_relu)
    monkeypatch.setattr(ad, "layer_norm", recording("layer_norm", layer_norm))
    monkeypatch.setattr(ad, "attention", recording("attention", attention))
    monkeypatch.setattr(ad, "_attention_scores", recording_scores)
    root = _desk_step_root(model, batches)
    monkeypatch.undo()
    gc.collect()
    assert all(t._backward_fn is not None for t in _graph(root) if isinstance(t, ad.Node))
    assert len(sums) > 20 and len(pre_relu) > 5
    assert [r() for r in sums if r() is not None] == [root.data]  # the root is a sum of losses
    assert all(r() is None for r in pre_relu)
    assert len(weights) == 8 + 2 * 8 and all(r() is None for r in weights)
    # 4 encoder layers over the translation batch and the CLM stubs, 4 layers in each decoder
    assert {name: len(refs) for name, refs in rebuilt.items()} == {
        "relu": 16, "layer_norm": 2 * (2 * 4 + 1) + 2 * (3 * 4 + 1), "attention": 8 + 2 * 8}
    assert {name: sum(r() is not None for r in refs) for name, refs in rebuilt.items()} == \
        dict.fromkeys(rebuilt, 0)
    backward(root)
    assert all(p.grad is not None for p in model.parameters())


def test_backward_releases_what_nodes_kept(monkeypatch):
    # a backward rebuilds each attention's weights once, for the output
    # projection's weight gradient and the node's own backward, and drops them
    model, batches = _desk_step()
    attention = ad.attention
    rebuilds = []  # per attention node, what each call of its rebuild returned

    def recording_attention(*args):
        out = attention(*args)
        fn = out._node.fn
        cell = dict(zip(fn.__code__.co_freevars, fn.__closure__))["weights"]
        rebuild, returned, shape = cell.cell_contents, [], (out.shape[1], args[1].shape[1])

        def recording_rebuild():
            w = rebuild()
            assert w.shape[-2:] == shape  # the attention weights
            assert not returned or returned[0]() is w  # one rebuild for both readers
            returned.append(weakref.ref(w))
            return w

        cell.cell_contents = recording_rebuild  # the output's recipe reads the same cell
        rebuilds.append(returned)
        return out

    monkeypatch.setattr(ad, "attention", recording_attention)
    root = _desk_step_root(model, batches)
    monkeypatch.undo()
    assert len(rebuilds) == 8 + 2 * 8 and not any(rebuilds)  # the forward rebuilds nothing
    backward(root)
    gc.collect()
    assert [len(returned) for returned in rebuilds] == [2] * len(rebuilds)
    assert all(r() is None for returned in rebuilds for r in returned)
    nodes = [t for t in _graph(root) if isinstance(t, ad.Node)]
    assert nodes and all(n.fn is None and n.grad is None for n in nodes)
    assert all(n.recipe is None and n.rebuilt is None for n in nodes)  # nor what rebuilt arrays
    assert root.grad == 1.0


def test_relu_rebuild_leaves_its_input_unkept():
    # the second projection's weight gradient rebuilds the ReLU output from
    # the first projection's recipe; no node keeps the pre-ReLU array for it
    x, g, b, w1, b1, w2, b2 = [rand((2, 3, 4), 117), rand((4,), 118), rand((4,), 119),
                               rand((4, 6), 120), rand((6,), 121), rand((6, 3), 122),
                               rand((3,), 123)]
    out = ad.linear(ad.linear(layer_norm(x, g, b), w1, b1).relu(), w2, b2)
    relu_node = out._node.sinks[0]
    first = relu_node.sinks[0]
    relu_backward, held = relu_node.fn, []

    def spy(grad, *sinks):
        held.append(first.rebuilt)
        relu_backward(grad, *sinks)

    relu_node.fn = spy
    backward(out.sum())
    assert len(held) == 1 and held[0] is None
    assert all(t.grad is not None for t in (x, g, b, w1, b1, w2, b2))


# tracemalloc's traced bytes at the first backward of an 8-row baseline step
# of 40-60 tokens, at the default shape and run whole: 40.7 MiB when the
# projections kept the layer-norm, attention and ReLU outputs they read,
# 25.7-26.1 MiB when they rebuilt them but each attention kept its weights,
# 15.4-15.8 MiB now that it keeps only its score rows' maxima and sums
LONG_STEP_GRAPH_BUDGET = 20 * 2**20


def test_a_long_steps_graph_stays_within_its_memory_budget():
    model, batches = _step(8, (40, 60), multitask=False)
    assert batches[0].src.shape[1] > 40
    tracemalloc.start()
    try:
        root = _desk_step_root(model, batches)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    backward(root)
    assert live < LONG_STEP_GRAPH_BUDGET, f"{live / 2**20:.1f} MiB live at backward"


def test_second_backward_through_a_consumed_step_raises():
    model, batches = _desk_step()
    root = _desk_step_root(model, batches)
    backward(root)
    with pytest.raises(GraphError, match="already ran"):
        backward(root)
    with pytest.raises(GraphError, match="already ran"):
        backward(root * 2.0)


def test_step_graph_walks_to_nodes_and_trainable_leaves():
    # the walk perfbench/tracing.py makes to count graph nodes
    model, batches = _desk_step()
    root = _desk_step_root(model, batches)
    reached = _graph(root)
    assert all(None not in t._children for t in reached)
    assert all(hasattr(t, "_backward_fn") for t in reached)
    leaves = [t for t in reached if t._backward_fn is None]
    assert {id(t) for t in leaves} == {id(p) for p in model.parameters()}
    nodes = [t for t in reached[1:] if t._backward_fn is not None]
    assert all(isinstance(t, ad.Node) for t in nodes)
    assert root._node not in nodes  # the root's node is reached through the root


# --- attention: one node against the composition of generic ops it replaces -------

def composed_attention(q, k, v, n_heads, mask=None):
    """The slow path: heads split and merged by reshape and transpose nodes,
    and the scores scaled, masked and normalized by separate nodes."""
    b, s, d = q.shape
    d_head = d // n_heads

    def heads(x):
        return x.reshape(x.shape[0], x.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)

    scores = matmul(heads(q), heads(k).transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(d_head))
    if mask is not None:
        scores = scores + Tensor(mask)
    ctx = matmul(softmax(scores, axis=-1), heads(v))
    return ctx.transpose(0, 2, 1, 3).reshape(b, s, d)


def _padding_mask(keep):
    """(B, T) 1/0 rows -> (B, 1, 1, T) additive mask, as the model builds it."""
    return ((1.0 - np.asarray(keep, dtype=np.float64)) * -1e9)[:, None, None, :]


def _causal_mask(s, t):
    """``s`` new positions after ``t - s`` earlier ones, as the model builds it."""
    return (np.triu(np.ones((s, t)), k=t - s + 1) * -1e9)[None, None]


# (batch, S, T, d_model, heads, mask); the causal case has T == d_head, so a
# key gradient left in kᵀ's layout would still have the right shape
ATTENTION_CASES = {
    "causal": (2, 4, 4, 8, 2, _causal_mask(4, 4)),
    "causal_after_cache": (2, 2, 5, 8, 2, _causal_mask(2, 5)),
    "padding": (3, 5, 5, 6, 3, _padding_mask([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0],
                                               [1, 1, 0, 0, 0]])),
    "no_mask": (2, 3, 3, 8, 2, None),
    "cross_s_ne_t": (2, 3, 5, 8, 4, _padding_mask([[1, 1, 1, 1, 0], [1, 1, 1, 1, 1]])),
}


def _attention_inputs(case, seed):
    b, s, t, d, _, _ = ATTENTION_CASES[case]
    return [rand((b, s, d), seed), rand((b, t, d), seed + 1), rand((b, t, d), seed + 2)]


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_matches_composed_ops(case):
    *_, n_heads, mask = ATTENTION_CASES[case]
    inputs = _attention_inputs(case, 80)
    weights = rand(inputs[0].shape, 83, requires_grad=False)
    fast, fast_grads = _grads_of(lambda q, k, v: ad.attention(q, k, v, n_heads, mask),
                                 inputs, weights)
    slow, slow_grads = _grads_of(lambda q, k, v: composed_attention(q, k, v, n_heads, mask),
                                 inputs, weights)
    assert np.array_equal(fast, slow)
    for fast_grad, slow_grad in zip(fast_grads, slow_grads):
        _assert_close(fast_grad, slow_grad)


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_gradient(case):
    *_, n_heads, mask = ATTENTION_CASES[case]
    report = grad_check(scalarize(lambda q, k, v: ad.attention(q, k, v, n_heads, mask)),
                        _attention_inputs(case, 84), tolerance=1e-6)
    assert report.passed, f"{case}: {report}"


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_leaves_inputs_and_incoming_gradient_alone(case):
    *_, n_heads, mask = ATTENTION_CASES[case]
    inputs = _attention_inputs(case, 87)
    before = [t.data.copy() for t in inputs]
    out = ad.attention(*inputs, n_heads, mask)
    assert out._children == tuple(inputs)  # one node over the three projections
    g = np.random.default_rng(90).normal(size=out.shape)
    g_before = g.copy()
    out._backward_fn(g)
    assert np.array_equal(g, g_before)
    for t, data in zip(inputs, before):
        assert np.array_equal(t.data, data)
        assert t.grad.shape == t.data.shape and t.grad.flags.c_contiguous


def _one_unmasked_key_inputs():
    """Queries and keys, 2 heads and a mask under which one row of the first
    sentence has one unmasked key, with scores far beyond what exp can take
    unshifted."""
    return ([rand((2, 3, 4), 91, scale=30.0), rand((2, 5, 4), 92, scale=30.0),
             rand((2, 5, 4), 93)], 2, _padding_mask([[0, 0, 1, 0, 0], [1, 1, 1, 1, 1]]))


def test_attention_row_with_one_unmasked_key_stays_finite():
    (q, k, v), n_heads, mask = _one_unmasked_key_inputs()
    out = ad.attention(q, k, v, n_heads, mask)
    backward((out * rand(out.shape, 94, requires_grad=False)).sum())
    assert np.array_equal(out.data[0], np.broadcast_to(v.data[0, 2], (3, 4)))
    for t in (out, q, k, v):
        assert np.all(np.isfinite(t.data if t is out else t.grad))


def test_attention_shape_errors():
    with pytest.raises(ShapeError, match="heads"):
        ad.attention(rand((2, 3, 6), 0), rand((2, 4, 6), 1), rand((2, 4, 6), 2), 4)
    with pytest.raises(ShapeError):
        ad.attention(rand((2, 3, 4), 0), rand((3, 4, 4), 1), rand((3, 4, 4), 2), 2)
    with pytest.raises(ShapeError):  # keys and values are per query row, never shared
        ad.attention(rand((2, 3, 4), 0), rand((1, 4, 4), 1), rand((1, 4, 4), 2), 2)
    with pytest.raises(ShapeError):
        ad.attention(rand((2, 3, 4), 0), rand((2, 4, 4), 1), rand((2, 5, 4), 2), 2)


# --- rebuilt arrays: backward reads a recipe's array, bit for bit the kept one ------

def kept_linear(x, w, b):
    """The reference ``linear``: it keeps its input for the weight gradient."""
    out_data = x.data @ w.data
    out_data += b.data
    k, n = w.data.shape
    x_data = x.data if w.requires_grad else None
    w_data = w.data if x.requires_grad else None

    def backward_fn(g, sx, sw, sb):
        if sx is not None:
            ad._accumulate(sx, g @ w_data.T)
        g2 = g.reshape(-1, n)
        if sw is not None:
            ad._accumulate(sw, x_data.reshape(-1, k).T @ g2)
        if sb is not None:
            ad._accumulate(sb, g2.sum(axis=0))

    return ad._make(out_data, (x, w, b), backward_fn)


def kept_relu(x):
    """The reference ``relu``: it keeps its output, whose sign its backward reads."""
    out_data = np.maximum(x.data, 0.0)

    def backward_fn(g, sx):
        ad._accumulate(sx, g * (out_data > 0.0))

    return ad._make(out_data, (x,), backward_fn)


def kept_attention(q, k, v, n_heads, mask=None):
    """The reference ``attention``: no recipe, so the projection after it
    keeps its output."""
    d = q.data.shape[-1]
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)

    def heads(x):
        return x.reshape(x.shape[0], x.shape[1], n_heads, d_head).transpose(0, 2, 1, 3)

    def merge(x):
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

    def backward_fn(g, sq, sk, sv):
        gh = heads(g)
        if sv is not None:
            ad._accumulate(sv, merge(w.swapaxes(-1, -2) @ gh))
        dw = gh @ vh.swapaxes(-1, -2)
        dot = (dw * w).sum(axis=-1, keepdims=True)
        dw -= dot
        dw *= w
        dw *= scale
        if sq is not None:
            ad._accumulate(sq, merge(dw @ kh))
        if sk is not None:
            dkt = qh.swapaxes(-1, -2) @ dw
            ad._accumulate(sk, merge(dkt.swapaxes(-1, -2)))

    return ad._make(out_data, (q, k, v), backward_fn)


def kept_layer_norm(x, gain, bias, eps=1e-5):
    """The reference ``layer_norm``: it keeps ``xhat``, and the projection
    after it keeps its output."""
    d = x.data.shape[-1]
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
    gain_data = gain.data

    def backward_fn(g, sx, sgain, sbias):
        if sbias is not None:
            ad._accumulate(sbias, g.reshape(-1, d).sum(axis=0))
        if sgain is not None:
            ad._accumulate(sgain, (g * xhat).reshape(-1, d).sum(axis=0))
        if sx is not None:
            dx = g * gain_data
            m1 = dx.sum(axis=-1, keepdims=True)
            m1 /= d
            t = dx * xhat
            m2 = t.sum(axis=-1, keepdims=True)
            m2 /= d
            np.multiply(xhat, m2, out=t)
            dx -= m1
            dx -= t
            dx *= inv
            ad._accumulate(sx, dx)

    return ad._make(out_data, (x, gain, bias), backward_fn)


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES) + ["one_unmasked_key"])
def test_attention_equals_kept_attention(case):
    # the weights a backward rebuilds from the score rows' maxima and sums
    # are the forward's bit for bit, so nothing differs from kept weights
    if case == "one_unmasked_key":
        inputs, n_heads, mask = _one_unmasked_key_inputs()
    else:
        *_, n_heads, mask = ATTENTION_CASES[case]
        inputs = _attention_inputs(case, 124)
    weights = rand(inputs[0].shape, 127, requires_grad=False)
    out, grads = _grads_of(lambda q, k, v: ad.attention(q, k, v, n_heads, mask),
                           inputs, weights)
    kept, kept_grads = _grads_of(lambda q, k, v: kept_attention(q, k, v, n_heads, mask),
                                 inputs, weights)
    assert np.array_equal(out, kept)
    for grad, kept_grad in zip(grads, kept_grads):
        assert np.array_equal(grad, kept_grad)


KEPT_OPS = {"linear": kept_linear, "relu": kept_relu, "attention": kept_attention,
            "layer_norm": kept_layer_norm}

SMOKE_SHAPE = dict(d_model=32, n_heads=2, n_enc_layers=2, n_dec_layers=2, d_ff=64, max_len=24)

# case: how the step runs, on how many usable cores, and its rows, tokens,
# regime and model shape. The smoke model has its first encoder layer frozen,
# as the smoke preset does. The whole steps come first: they start no worker
# pool, so in a process of their own their products run on threaded BLAS.
REBUILD_STEPS = {
    "smoke-whole": ("whole", 2, 8, (3, 6), True, SMOKE_SHAPE),
    "baseline-40-60-tokens-whole": ("whole", 1, 16, (40, 60), False, {}),
    "desk-tasks": ("tasks", 2, 16, (3, 8), True, {}),
    "baseline-40-60-tokens-rows": ("rows", 2, 16, (40, 60), False, {}),
}


def _trained_step(case, ops):
    """One ``train_step`` of the case, from perturbed initial parameters, with
    ``ops`` patched over autodiff's: its split, loss, parameter gradients and
    updated parameters."""
    from minimt import training
    from minimt.model import FreezeSpec, apply_freeze

    with pytest.MonkeyPatch.context() as mp:
        for name, op in ops.items():
            mp.setattr(ad, name, op)
        _, cores, rows, tokens, multitask, shape = REBUILD_STEPS[case]
        mp.setattr(training, "_usable_cores", lambda: cores)
        model, batches = _step(rows, tokens, multitask, **shape)
        rng = np.random.default_rng(74)
        for p in model.parameters():  # gains and biases away from 1 and 0, as in training
            p.data += rng.normal(0.0, 0.1, p.shape)
        if case.startswith("smoke"):
            apply_freeze(model, FreezeSpec.first_half_encoder(model))
        trainable = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
        bd = training.train_step(model, *batches, training.Adam(trainable,
                                                                training.OptimizerConfig()))
    return (bd.split, bd.loss.item(), {n: p.grad for n, p in trainable},
            {n: p.data for n, p in trainable})


@pytest.mark.parametrize("case", list(REBUILD_STEPS))
def test_rebuilt_arrays_equal_kept_ones(case):
    # every array a backward rebuilds must be the forward's bit for bit, so
    # a step with recipes computes exactly what one that keeps the arrays does
    split, loss, grads, params = _trained_step(case, {})
    kept_split, kept_loss, kept_grads, kept_params = _trained_step(case, KEPT_OPS)
    assert split == kept_split == REBUILD_STEPS[case][0]
    assert loss == kept_loss
    assert grads.keys() == kept_grads.keys() and len(grads) > 20
    for n, g in grads.items():
        assert np.array_equal(g, kept_grads[n]), n
        assert np.array_equal(params[n], kept_params[n]), n


@pytest.mark.parametrize("name,fn,inputs", [
    ("layer_norm_linear", lambda x, g, b, w, c: ad.linear(layer_norm(x, g, b), w, c),
     [rand((2, 3, 5), 100), rand((5,), 101), rand((5,), 102), rand((5, 4), 103),
      rand((4,), 104)]),
    ("attention_linear", lambda q, k, v, w, c: ad.linear(
        ad.attention(q, k, v, 2, _causal_mask(3, 4)), w, c),
     [rand((2, 3, 4), 105), rand((2, 4, 4), 106), rand((2, 4, 4), 107), rand((4, 3), 108),
      rand((3,), 109)]),
    # linear -> relu -> linear after a layer norm, as in the model, so that
    # the first linear's output and the ReLU's can be rebuilt
    ("layer_norm_linear_relu_linear", lambda x, g, b, w1, b1, w2, b2: ad.linear(
        ad.linear(layer_norm(x, g, b), w1, b1).relu(), w2, b2),
     [rand((2, 3, 4), 110), rand((4,), 111), rand((4,), 112), rand((4, 6), 113),
      rand((6,), 114), rand((6, 3), 115), rand((3,), 116)]),
])
def test_ops_that_read_a_rebuilt_input_pass_grad_check(name, fn, inputs):
    out = fn(*inputs)
    assert out._node.sinks[0].recipe is not None  # the outer linear's input can be rebuilt
    if name.endswith("relu_linear"):  # the hidden units are off ReLU's kink
        x, g, b, w1, b1 = inputs[:5]
        assert np.abs(layer_norm(x, g, b).data @ w1.data + b1.data).min() > 1e-3
    report = grad_check(scalarize(fn), inputs, tolerance=1e-6)
    assert report.passed, f"{name}: {report}"
