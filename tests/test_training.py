import copy
import dataclasses
import logging
import math
import re
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minimt.autodiff import EmptyLossError, Tensor, backward, cross_entropy, zero_grads
from minimt.data import (
    MonoBatch,
    MonolingualCorpus,
    ParallelBatch,
    ParallelCorpus,
    ParallelExample,
    build_vocab,
    encode,
    make_batches,
)
from minimt import synthetic, training
from minimt.model import (
    Encoder,
    FreezeSpec,
    ModelConfig,
    Transformer,
    apply_freeze,
    init_params,
    padding_attention_mask,
)
from minimt.training import (
    Adam,
    LossBreakdown,
    OptimizerConfig,
    TrainConfig,
    TrainData,
    TrainingError,
    compute_losses,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
    token_accuracy,
    train_loop,
    train_step,
    validation_loss,
)

WORDS = [f"w{i}" for i in range(8)]


def toy_data(n_pairs=12, n_mono=10, seed=0, with_mono=True):
    rng = np.random.default_rng(seed)
    lines = [" ".join(rng.choice(WORDS, size=rng.integers(2, 5))) for _ in range(n_pairs + 2 * n_mono)]
    vocab = build_vocab(lines, languages=["xx", "yy"])
    pairs = [ParallelExample(encode(lines[i], vocab, "xx"), encode(lines[i], vocab, "yy"))
             for i in range(n_pairs)]
    parallel = ParallelCorpus("xx", "yy", {"train": pairs[:-2], "validation": pairs[-2:], "test": []})
    mono = {}
    if with_mono:
        mono["xx"] = MonolingualCorpus("xx", {"train": [encode(l, vocab, "xx")
                                                        for l in lines[n_pairs:n_pairs + n_mono]]})
        mono["yy"] = MonolingualCorpus("yy", {"train": [encode(l, vocab, "yy")
                                                        for l in lines[n_pairs + n_mono:]]})
    return vocab, TrainData(vocab, parallel, mono)


def tiny_model(vocab, multitask=True, seed=0, **kw):
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=2,
                         n_dec_layers=1, d_ff=12, max_len=16, seed=seed, **kw)
    return init_params(config, multitask=multitask)


def first_batches(data, config):
    vocab = data.vocabulary
    pb = make_batches(data.parallel.split("train"), config.batch_size, vocab,
                      config.max_len, seed=[config.seed, 0, 0])[0]
    sb = make_batches(data.monolingual["xx"].split("train"), config.effective_clm_batch_size,
                      vocab, config.max_len, seed=[config.seed, 1, 0])[0]
    tb = make_batches(data.monolingual["yy"].split("train"), config.effective_clm_batch_size,
                      vocab, config.max_len, seed=[config.seed, 2, 0])[0]
    return pb, sb, tb


# --- loss algebra ----------------------------------------------------------------

def test_loss_breakdown_is_a_sum():
    bd = LossBreakdown(l_t=2.0, l_clm_src=1.0, l_clm_tgt=2.0)
    assert bd.l_clm == 3.0
    assert bd.l_mtl == 5.0


def test_uniform_model_losses_equal_log_v():
    vocab, data = toy_data()
    config = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, d_ff=12, max_len=16)
    model = init_params(config, multitask=True)
    for _, p in model.named_parameters():
        p.data[...] = 0.0
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    bd = compute_losses(model, pb, sb, tb)
    for component in (bd.l_t, bd.l_clm_src, bd.l_clm_tgt):
        assert component == pytest.approx(math.log(32), rel=1e-9)


def test_additivity_of_graph_root():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    bd = compute_losses(model, *first_batches(data, tc))
    assert bd.loss.item() == pytest.approx(bd.l_mtl, rel=1e-12)
    assert bd.l_mtl == pytest.approx(bd.l_t + bd.l_clm, rel=1e-15)


def test_baseline_mode_breakdown():
    vocab, data = toy_data()
    model = tiny_model(vocab, multitask=False)
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    bd = compute_losses(model, pb)
    assert bd.l_clm == 0.0
    assert bd.l_mtl == bd.l_t
    with pytest.raises(TrainingError, match="monolingual"):
        compute_losses(model, pb, sb, tb)


# --- Adam -------------------------------------------------------------------------

def test_adam_first_step_magnitude_is_lr():
    for g0 in (0.37, -4.0, 1e3):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([g0])
        opt = Adam([("p", p)], OptimizerConfig(lr=1e-3))
        opt.step()
        assert abs(abs(float(p.data[0]) - 1.0) - 1e-3) < 1e-9
        assert np.sign(1.0 - p.data[0]) == np.sign(g0)


def test_adam_zero_gradient_leaves_params():
    p = Tensor(np.ones(4), requires_grad=True)
    opt = Adam([("p", p)], OptimizerConfig())
    for _ in range(5):
        p.grad = np.zeros(4)
        opt.step()
    assert np.array_equal(p.data, np.ones(4))


def test_adam_matches_hand_recurrence_on_quadratic():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([("x", x)], OptimizerConfig(lr=lr, beta1=b1, beta2=b2, eps=eps))

    # independent oracle: the published recurrence, hand-rolled on f(x) = x^2
    xs = 3.0
    m = v = 0.0
    expected = []
    for t in range(1, 4):
        g = 2.0 * xs
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        xs = xs - lr * m_hat / (math.sqrt(v_hat) + eps)
        expected.append(xs)

    for t in range(3):
        zero_grads([x])
        backward(x * x)
        opt.step()
        assert float(x.data[0]) == pytest.approx(expected[t], abs=1e-12)


def test_adam_aborts_on_nan_gradient():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.array([1.0, np.nan])
    opt = Adam([("layers.3.w", p)], OptimizerConfig())
    with pytest.raises(TrainingError, match="layers.3.w"):
        opt.step()


def _reference_adam_step(params, m, v, t, c, clip_norm=None):
    """The per-tensor textbook update at step count ``t`` that the flat Adam
    replaces, after scaling every gradient to a global L2 norm of at most
    ``clip_norm`` when given. Returns that norm."""
    norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for _, p in params))
    scale = clip_norm / norm if clip_norm is not None and norm > clip_norm else None
    for name, p in params:
        g = p.grad if scale is None else p.grad * scale
        m[name] = c.beta1 * m[name] + (1 - c.beta1) * g
        v[name] = c.beta2 * v[name] + (1 - c.beta2) * g * g
        m_hat = m[name] / (1 - c.beta1 ** t)
        v_hat = v[name] / (1 - c.beta2 ** t)
        p.data -= c.lr * m_hat / (np.sqrt(v_hat) + c.eps)
    return norm


def _check_adam_against_reference(steps=24, clip_norm=None):
    """Joint steps of a model with a frozen layer against the reference fed
    the same gradients: parameters, ``m`` and ``v`` bit-identical, or, when
    clipping, within 1e-12 of each tensor's largest entry (the two sum the
    squares for the global norm in different orders, and a moment that
    cancels to near zero keeps the absolute, not the relative, error).
    Returns the reference's gradient norms."""
    vocab, data = toy_data()
    model, reference = tiny_model(vocab), tiny_model(vocab)
    spec = FreezeSpec.first_half_encoder(model)
    oc = OptimizerConfig(lr=3e-3)
    opt = Adam(apply_freeze(model, spec), oc)
    ref_params = apply_freeze(reference, spec)
    m = {n: np.zeros_like(p.data) for n, p in ref_params}
    v = {n: np.zeros_like(p.data) for n, p in ref_params}
    tc = TrainConfig(steps=steps, batch_size=4, clip_norm=clip_norm)
    batches = first_batches(data, tc)
    if clip_norm is None:
        same = np.array_equal
    else:
        def same(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    norms = []
    for t in range(1, steps + 1):
        train_step(model, *batches, opt, tc)
        for (name, p), (_, q) in zip(model.named_parameters(), reference.named_parameters()):
            assert (p.grad is None) == (name in spec.frozen), name
            q.grad = None if p.grad is None else p.grad.copy()
        norms.append(_reference_adam_step(ref_params, m, v, t, oc, clip_norm))
        for (name, p), (_, q) in zip(model.named_parameters(), reference.named_parameters()):
            assert same(p.data, q.data), (t, name)
        for name, _ in ref_params:
            assert same(opt.m[name], m[name]), (t, name)
            assert same(opt.v[name], v[name]), (t, name)
        assert opt.t == t
    return norms


def test_flat_adam_is_bit_identical_to_per_tensor_adam():
    _check_adam_against_reference()


@pytest.mark.parametrize("threaded", [False, True])
def test_blocked_adam_is_bit_identical_to_per_tensor_adam(monkeypatch, threaded):
    # 37-element blocks cut through parameters; on two cores, a second
    # block's worth of elements already hands half of the blocks to the worker
    monkeypatch.setattr(training, "ADAM_BLOCK", 37)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2 if threaded else 1)
    monkeypatch.setattr(training, "ADAM_SPLIT_BLOCKS", 2)
    threads, real_update = set(), Adam._update

    def spy(self, *args):
        threads.add(threading.current_thread().name)
        return real_update(self, *args)

    monkeypatch.setattr(Adam, "_update", spy)
    _check_adam_against_reference(steps=8)
    workers = {name for name in threads if name.startswith("minimt-shard")}
    assert bool(workers) == threaded, threads


def test_a_non_finite_gradient_in_adams_worker_half_aborts_before_any_update(monkeypatch):
    monkeypatch.setattr(training, "ADAM_BLOCK", 37)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    vocab, data = toy_data()
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    pb, sb, tb = first_batches(data, TrainConfig(steps=1, batch_size=4))
    train_step(model, pb, sb, tb, opt)  # moments and step count away from zero
    zero_grads(model.parameters())
    backward(compute_losses(model, pb, sb, tb).loss)
    name, p = list(model.named_parameters())[-1]  # in the last block: the worker's half
    p.grad[...] = np.inf
    assert len(opt._parts) == 2 and opt._parts[1][-1][1] == opt._data.size
    state = [a.copy() for a in (opt._m, opt._v, opt._data)], opt.t
    updates = []
    real_update = Adam._update

    def spy(self, *args):
        updates.append(threading.current_thread().name)
        return real_update(self, *args)

    monkeypatch.setattr(Adam, "_update", spy)
    with pytest.raises(TrainingError, match=re.escape(repr(name))):
        opt.step()
    assert updates == []  # neither half's update started
    assert all(np.array_equal(a, b) for a, b in zip(state[0], (opt._m, opt._v, opt._data)))
    assert opt.t == state[1] == 1


def test_adam_state_survives_checkpoint_and_continues_bit_identically(tmp_path):
    vocab, data = toy_data()
    oc = OptimizerConfig(lr=1e-3)

    def config(steps):
        return TrainConfig(steps=steps, batch_size=4, log_interval=100, seed=5)

    for steps, name, resume_from in ((9, "full", None), (4, "mid", None),
                                     (9, "resumed", tmp_path / "mid.npz")):
        train_loop(tiny_model(vocab, seed=2), data, config(steps), oc,
                   checkpoint_path=tmp_path / f"{name}.npz", resume_from=resume_from)
    full, resumed = (load_checkpoint(tmp_path / f"{name}.npz") for name in ("full", "resumed"))
    assert full.step == resumed.step == 9
    assert full.adam_t == resumed.adam_t and set(full.adam_t.values()) == {9}
    for field_name in ("params", "adam_m", "adam_v"):
        a, b = getattr(full, field_name), getattr(resumed, field_name)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), (field_name, name)


def test_a_baseline_resumes_under_another_multitask_setting(tmp_path):
    vocab, data = toy_data()
    oc = OptimizerConfig(lr=1e-3)

    def config(steps, **multitask_only):
        return TrainConfig(steps=steps, batch_size=4, log_interval=100, seed=5, **multitask_only)

    for steps, name, resume_from, weight in ((4, "full", None, 1.0), (2, "mid", None, 1.0),
                                             (4, "resumed", tmp_path / "mid.npz", 0.3)):
        train_loop(tiny_model(vocab, multitask=False, seed=2), data,
                   config(steps, clm_loss_weight=weight), oc,
                   checkpoint_path=tmp_path / f"{name}.npz", resume_from=resume_from)
    full, resumed = (load_checkpoint(tmp_path / f"{name}.npz") for name in ("full", "resumed"))
    assert full.fingerprint == resumed.fingerprint
    for field_name in ("params", "adam_m", "adam_v"):
        a, b = getattr(full, field_name), getattr(resumed, field_name)
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), (field_name, name)

    # a multitask model reads the weight, so its checkpoint still refuses a change
    train_loop(tiny_model(vocab, seed=2), data, config(2), oc, checkpoint_path=tmp_path / "mtl.npz")
    with pytest.raises(TrainingError, match="fingerprint mismatch"):
        train_loop(tiny_model(vocab, seed=2), data, config(4, clm_loss_weight=0.3), oc,
                   resume_from=tmp_path / "mtl.npz")


def test_an_absent_grad_updates_as_a_zero_gradient():
    def run(missing):
        """Three steps in which "b" has a gradient in the first step only and
        "c" never has one; ``missing(size)`` stands in for their gradient."""
        params = [(n, Tensor(np.array(x), requires_grad=True))
                  for n, x in (("a", [1.0, -2.0]), ("b", [0.5, 3.0]), ("c", [4.0]))]
        opt = Adam(params, OptimizerConfig(lr=0.1))
        a, b, c = (p for _, p in params)
        b_trail = []
        for step in range(3):
            a.grad = np.array([0.3, -0.2])
            b.grad = np.array([1.0, 2.0]) if step == 0 else missing(2)
            c.grad = missing(1)
            opt.step()
            b_trail.append(b.data.copy())
        return opt, b_trail

    absent, b_trail = run(lambda size: None)
    zero, _ = run(np.zeros)
    assert absent.t == zero.t == 3
    for (name, p), (_, q) in zip(absent.params, zero.params):
        assert np.array_equal(p.data, q.data), name
        assert np.array_equal(absent.m[name], zero.m[name]), name
        assert np.array_equal(absent.v[name], zero.v[name]), name
    # its moments carry "b" on after its gradient is gone; "c" never moves
    assert not np.array_equal(b_trail[1], b_trail[2])
    assert absent.params[2][1].data.tolist() == [4.0]
    assert absent.m["c"].tolist() == absent.v["c"].tolist() == [0.0]


def test_restoring_unequal_step_counts_raises(tmp_path):
    vocab, data = toy_data()
    path = tmp_path / "ckpt.npz"
    train_loop(tiny_model(vocab), data, TrainConfig(steps=2, batch_size=4, log_interval=100),
               OptimizerConfig(), checkpoint_path=path)
    ckpt = load_checkpoint(path)
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    training.restore_checkpoint(model, opt, ckpt)
    assert opt.t == 2
    ckpt.adam_t[next(iter(ckpt.adam_t))] = 3
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    with pytest.raises(TrainingError, match="unequal Adam step counts"):
        training.restore_checkpoint(model, opt, ckpt)


# --- gradient clipping -------------------------------------------------------------

def test_a_clipped_step_matches_the_per_tensor_reference():
    norms = _check_adam_against_reference(steps=6, clip_norm=0.05)
    assert min(norms) > 0.05  # every step was clipped


def test_a_clip_norm_above_the_norm_leaves_the_step_unchanged():
    vocab, data = toy_data()
    batches = first_batches(data, TrainConfig(steps=1, batch_size=4))

    def run(clip_norm):
        model = tiny_model(vocab)
        opt = Adam(list(model.named_parameters()), OptimizerConfig())
        norms = []
        for _ in range(3):
            train_step(model, *batches, opt, TrainConfig(steps=1, clip_norm=clip_norm))
            norms.append(math.sqrt(sum(float((p.grad * p.grad).sum())
                                       for p in model.parameters())))
        return model, opt, norms

    a, opt_a, norms = run(None)
    b, opt_b, _ = run(max(norms) * (1 + 1e-9))  # just above every step's norm
    for (name, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    assert np.array_equal(opt_a._m, opt_b._m) and np.array_equal(opt_a._v, opt_b._v)


def test_a_non_finite_gradient_with_clipping_on_raises_and_changes_nothing():
    params = [(n, Tensor(np.ones(3), requires_grad=True)) for n in ("a", "b")]
    opt = Adam(params, OptimizerConfig())
    for _, p in params:
        p.grad = np.full(3, 10.0)
    opt.step(clip_norm=1.0)
    params[1][1].grad = np.array([1.0, np.inf, 0.0])
    state = [a.copy() for a in (opt._m, opt._v, opt._data)]
    with pytest.raises(TrainingError, match="'b'"):
        opt.step(clip_norm=1.0)
    assert all(np.array_equal(a, b) for a, b in zip(state, (opt._m, opt._v, opt._data)))
    assert opt.t == 1


@pytest.mark.parametrize("max_len", [2, 1])
def test_train_config_rejects_max_len_without_room_for_a_token(max_len):
    with pytest.raises(ValueError, match="max_len must be >= 3"):
        TrainConfig(steps=1, max_len=max_len)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(lr=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(beta2=1.0)


# --- train_step --------------------------------------------------------------------

def test_train_step_respects_freeze():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    spec = FreezeSpec.first_half_encoder(model)
    opt = Adam(apply_freeze(model, spec), OptimizerConfig(lr=1e-3))
    frozen_before = {n: model.param_dict()[n].data.copy() for n in spec.frozen}
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    for _ in range(3):
        train_step(model, pb, sb, tb, opt)
    for n, before in frozen_before.items():
        assert np.array_equal(model.param_dict()[n].data, before), n
    assert not np.array_equal(model.param_dict()["encoder.layers.1.attn.wq"].data,
                              frozen_before.get("encoder.layers.1.attn.wq",
                                                model.param_dict()["encoder.layers.1.attn.wq"].data + 1))


def test_frozen_parameters_get_no_gradient():
    vocab, data = toy_data()
    batches = first_batches(data, TrainConfig(steps=1, batch_size=4))
    grads = {}
    for frozen in (True, False):
        model = tiny_model(vocab)
        spec = FreezeSpec.first_half_encoder(model) if frozen else FreezeSpec.none()
        train_step(model, *batches, Adam(apply_freeze(model, spec), OptimizerConfig(lr=1e-3)))
        grads[frozen] = {n: p.grad for n, p in model.named_parameters()}
    frozen_names = FreezeSpec.first_half_encoder(tiny_model(vocab)).frozen
    assert frozen_names
    for name, grad in grads[True].items():
        if name in frozen_names:
            assert grad is None, name
        else:
            assert np.array_equal(grad, grads[False][name]), name


def test_apply_freeze_with_a_smaller_spec_unfreezes():
    vocab, _ = toy_data()
    model = tiny_model(vocab)
    apply_freeze(model, FreezeSpec.first_half_encoder(model))
    assert apply_freeze(model, FreezeSpec.none()) == list(model.named_parameters())
    assert all(p.requires_grad for p in model.parameters())


def test_fixed_batch_loss_decreases():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig(lr=3e-3))
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    first = train_step(model, pb, sb, tb, opt).l_mtl
    last = None
    for _ in range(19):
        last = train_step(model, pb, sb, tb, opt).l_mtl
    assert last < first


def test_joint_gradient_is_sum_of_task_gradients():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    enc_names = [n for n, _ in model.named_parameters()
                 if n.startswith("encoder") or n == "embedding"]
    params = model.param_dict()

    def grads_for(**kw):
        zero_grads(model.parameters())
        bd = compute_losses(model, kw.get("pb"), kw.get("sb"), kw.get("tb"))
        backward(bd.loss)
        return {n: (np.zeros_like(params[n].data) if params[n].grad is None
                    else params[n].grad.copy()) for n in enc_names}

    g_t = grads_for(pb=pb)
    g_clm = grads_for(sb=sb, tb=tb)
    g_joint = grads_for(pb=pb, sb=sb, tb=tb)
    for n in enc_names:
        expect = g_t[n] + g_clm[n]
        err = np.linalg.norm(g_joint[n] - expect) / max(np.linalg.norm(expect), 1e-300)
        assert err < 1e-10, (n, err)


# --- one CLM pass against the per-batch passes it replaces ---------------------------

def per_batch_clm_logits(model, batch):
    """The slow path: every row encodes its own [LANG] EOS stub, and the batch
    is decoded in its own pass."""
    stub = np.stack([batch.dec_in[:, 0], np.full(len(batch), batch.eos_id)], axis=1)
    enc_mask = np.ones((len(batch), 2))
    enc = model.encoder(model._embed(stub), padding_attention_mask(enc_mask), model._drop)
    return model._decode(model.decoder_clm, batch.dec_in, enc, enc_mask)


def uneven_mono_batches(data, narrow="src"):
    """A source-side batch of 4 rows and a target-side batch of 3 rows; the
    ``narrow`` side is truncated to two tokens, so the widths differ too."""
    vocab = data.vocabulary
    widths = {"src": 4, "tgt": 16} if narrow == "src" else {"src": 16, "tgt": 4}
    sb = make_batches(data.monolingual["xx"].split("train"), 4, vocab, widths["src"], seed=0,
                      log_truncation=False)[0]
    tb = make_batches(data.monolingual["yy"].split("train"), 3, vocab, widths["tgt"], seed=0,
                      log_truncation=False)[0]
    narrow_width, wide_width = ((sb, tb) if narrow == "src" else (tb, sb))
    assert narrow_width.dec_in.shape[1] == 3 < wide_width.dec_in.shape[1]
    return sb, tb


@pytest.mark.parametrize("sides, narrow", [("both", "src"), ("both", "tgt"),
                                           ("src_only", "src"), ("tgt_only", "src")])
def test_one_clm_pass_matches_per_batch_passes(sides, narrow):
    vocab, data = toy_data(n_mono=12, seed=4)
    model = tiny_model(vocab, seed=3)
    sb, tb = uneven_mono_batches(data, narrow)
    sb, tb = {"both": (sb, tb), "src_only": (sb, None), "tgt_only": (None, tb)}[sides]
    monos = [m for m in (sb, tb) if m is not None]
    params = model.param_dict()
    names = [n for n in params if n == "embedding" or n.startswith(("encoder", "decoder_clm"))]

    def grads(root):
        zero_grads(model.parameters())
        backward(root)
        return {n: (np.zeros_like(params[n].data) if params[n].grad is None
                    else params[n].grad.copy()) for n in names}

    bd = compute_losses(model, None, sb, tb)
    fast = grads(bd.loss)
    slow_losses = [cross_entropy(per_batch_clm_logits(model, m), m.labels, ignore_id=m.pad_id)
                   for m in monos]
    root = slow_losses[0] if len(slow_losses) == 1 else slow_losses[0] + slow_losses[1]
    slow = grads(root)

    slow_values = iter(loss.item() for loss in slow_losses)
    for mono, fast_value in ((sb, bd.l_clm_src), (tb, bd.l_clm_tgt)):
        if mono is None:
            assert fast_value == 0.0
        else:
            assert fast_value == pytest.approx(next(slow_values), rel=1e-12, abs=0)
    largest = max(np.abs(g).max() for g in slow.values())
    for n in names:
        if n.endswith(".bk"):
            # a key bias shifts every score of a query alike: its gradient is
            # zero up to rounding on both paths
            assert np.abs(fast[n]).max() <= 1e-12 * largest, n
            continue
        err = np.linalg.norm(fast[n] - slow[n]) / np.linalg.norm(slow[n])
        assert err < 1e-10, (n, err)

    # the stacked logits are each batch's own, PAD-padded to the widest
    stacked = model.clm_logits(monos).data
    start = 0
    for m in monos:
        own = per_batch_clm_logits(model, m).data
        got = stacked[start:start + len(m), :own.shape[1]]
        assert np.abs(got - own).max() <= 1e-12 * np.abs(own).max()
        start += len(m)
    assert stacked.shape[:2] == (start, max(m.dec_in.shape[1] for m in monos))


@pytest.mark.parametrize("narrow", ["src", "tgt"])
def test_clm_sides_are_scored_on_their_own_rows(monkeypatch, narrow):
    vocab, data = toy_data(n_mono=12, seed=4)
    model = tiny_model(vocab, seed=3)
    sb, tb = uneven_mono_batches(data, narrow)
    leaf = Tensor(model.clm_logits([sb, tb]).data, requires_grad=True)
    monkeypatch.setattr(model, "clm_logits", lambda batches: leaf)
    bd = compute_losses(model, None, sb, tb, clm_weight=0.5)
    backward(bd.loss)
    own_rows = leaf.grad

    # the reference: each side's cross entropy over all stacked rows, with
    # the other side's labels set to PAD
    leaf.grad = None
    width = leaf.data.shape[1]
    pad = np.full((len(sb) + len(tb), width), sb.pad_id)
    refs = []
    for lo, m in ((0, sb), (len(sb), tb)):
        labels = pad.copy()
        labels[lo:lo + len(m), :m.labels.shape[1]] = m.labels
        refs.append(cross_entropy(leaf, labels, ignore_id=m.pad_id))
    backward(refs[0] * 0.5 + refs[1] * 0.5)
    assert np.array_equal(own_rows, leaf.grad)
    # the means sum the same terms in another order
    assert bd.l_clm_src == pytest.approx(refs[0].item(), rel=1e-15, abs=0)
    assert bd.l_clm_tgt == pytest.approx(refs[1].item(), rel=1e-15, abs=0)


def test_mtl_step_runs_the_encoder_twice(monkeypatch):
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    optimizer = Adam(model.named_parameters(), OptimizerConfig())
    calls = []
    original = Encoder.__call__

    def spy(self, *args, **kwargs):
        calls.append(args[0].shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Encoder, "__call__", spy)
    train_step(model, pb, sb, tb, optimizer)
    # the translation batch, then one [LANG] EOS stub row per monolingual batch
    assert calls == [(len(pb), pb.src.shape[1], model.config.d_model),
                     (2, 2, model.config.d_model)]


def test_clm_pass_rejects_a_batch_that_mixes_language_tags():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    sb, tb = uneven_mono_batches(data)
    dec_in = sb.dec_in.copy()
    dec_in[1, 0] = vocab.lang_id("yy")
    mixed = MonoBatch(dec_in, sb.labels, sb.mask, sb.language, sb.pad_id, sb.eos_id)
    with pytest.raises(ValueError, match="mixes language tags"):
        compute_losses(model, None, mixed, tb)


def test_decoder_gradient_isolation():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    params = model.param_dict()

    zero_grads(model.parameters())
    backward(compute_losses(model, pb).loss)
    for n, p in params.items():
        if n.startswith("decoder_clm"):
            assert p.grad is None or not p.grad.any(), n

    zero_grads(model.parameters())
    backward(compute_losses(model, None, sb, tb).loss)
    for n, p in params.items():
        if n.startswith("decoder_t"):
            assert p.grad is None or not p.grad.any(), n


# --- train_loop ---------------------------------------------------------------------

def test_train_loop_deterministic_logs():
    vocab, data = toy_data()
    tc = TrainConfig(steps=8, batch_size=4, log_interval=2, seed=5)
    oc = OptimizerConfig(lr=1e-3)
    r1 = train_loop(tiny_model(vocab, seed=2), data, tc, oc)
    r2 = train_loop(tiny_model(vocab, seed=2), data, tc, oc)
    assert r1.log_lines == r2.log_lines
    assert len(r1.log_lines) == 4


def test_train_loop_epochs_mode():
    vocab, data = toy_data()
    tc = TrainConfig(steps=None, epochs=2, batch_size=4, log_interval=100)
    result = train_loop(tiny_model(vocab), data, tc, OptimizerConfig())
    batches_per_epoch = math.ceil(len(data.parallel.split("train")) / 4)
    assert result.steps_run == 2 * batches_per_epoch


@pytest.mark.parametrize("steps, interval, saved", [
    (4, 2, [2, 4]),  # the last step is an interval step and is written once
    (5, 2, [2, 4, 5]),
    (3, None, [3]),
])
def test_each_checkpointed_step_is_written_once(tmp_path, monkeypatch, steps, interval, saved):
    vocab, data = toy_data()
    written = []

    def spy(path, model, optimizer, fingerprint, step, *args):
        written.append(step)
        return save_checkpoint(path, model, optimizer, fingerprint, step, *args)

    monkeypatch.setattr(training, "save_checkpoint", spy)
    tc = TrainConfig(steps=steps, batch_size=4, checkpoint_interval=interval)
    train_loop(tiny_model(vocab), data, tc, OptimizerConfig(),
               checkpoint_path=tmp_path / "checkpoint.npz")
    assert written == saved


def test_train_loop_requires_mono_for_mtl():
    vocab, data = toy_data(with_mono=False)
    with pytest.raises(TrainingError, match="monolingual"):
        train_loop(tiny_model(vocab), data, TrainConfig(steps=1), OptimizerConfig())


def test_mono_iterator_cycles_with_reshuffle():
    vocab, data = toy_data(n_mono=3)
    tc = TrainConfig(steps=12, batch_size=4, clm_batch_size=2, log_interval=100)
    result = train_loop(tiny_model(vocab), data, tc, OptimizerConfig())
    assert result.steps_run == 12  # 3-example mono split cycled 4+ times without error


def test_validation_loss_logged():
    vocab, data = toy_data()
    tc = TrainConfig(steps=2, batch_size=4, log_interval=2)
    result = train_loop(tiny_model(vocab), data, tc, OptimizerConfig())
    val_field = result.log_lines[-1].split("\t")[5]
    assert val_field != ""
    assert float(val_field) > 0


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("was_training", [True, False])
def test_evaluation_helpers_restore_model_mode(monkeypatch, was_training, raises):
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    batches = [first_batches(data, tc)[0]]
    modes = []

    def spy(original):
        def wrapped(model, *args, **kwargs):
            modes.append(model.training)
            if raises:
                raise RuntimeError("forward failed")
            return original(model, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(training, "compute_losses", spy(training.compute_losses))
    monkeypatch.setattr(type(model), "translation_logits", spy(type(model).translation_logits))
    for evaluate in (lambda: validation_loss(model, data, tc),
                     lambda: token_accuracy(model, batches)):
        model.training = was_training
        modes.clear()
        if raises:
            with pytest.raises(RuntimeError, match="forward failed"):
                evaluate()
        else:
            evaluate()
        assert modes and not any(modes)
        assert model.training is was_training


# --- checkpointing -------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path):
    vocab, data = toy_data()
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    tc = TrainConfig(steps=3, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    for _ in range(3):
        train_step(model, pb, sb, tb, opt)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, opt, "fp", 3, {"translation": {"cycle": 0, "pos": 3}})
    ckpt = load_checkpoint(path)
    assert ckpt.step == 3
    for name, p in model.named_parameters():
        assert np.array_equal(ckpt.params[name], p.data)
    for name, _ in opt.params:
        assert np.array_equal(ckpt.adam_m[name], opt.m[name])


def test_failed_checkpoint_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    vocab, data = toy_data()
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    tc = TrainConfig(steps=3, batch_size=4)
    pb, sb, tb = first_batches(data, tc)
    train_step(model, pb, sb, tb, opt)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, opt, "fp", 1, {})
    saved = {name: p.data.copy() for name, p in model.named_parameters()}
    train_step(model, pb, sb, tb, opt)

    def savez_then_crash(f, **arrays):
        f.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_crash)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, opt, "fp", 2, {})
    ckpt = load_checkpoint(path)
    assert ckpt.step == 1
    for name, data_before in saved.items():
        assert np.array_equal(ckpt.params[name], data_before)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]


def test_checkpoint_fingerprint_mismatch(tmp_path):
    vocab, data = toy_data()
    model = tiny_model(vocab)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, model, opt, "fingerprint-a", 0, {})
    with pytest.raises(TrainingError, match="fingerprint"):
        load_checkpoint(path, expected_fingerprint="fingerprint-b")


def test_resume_equals_uninterrupted(tmp_path):
    vocab, data = toy_data()
    oc = OptimizerConfig(lr=1e-3)

    straight = tiny_model(vocab, seed=3)
    tc_full = TrainConfig(steps=10, batch_size=4, log_interval=1, seed=7)
    r_full = train_loop(straight, data, tc_full, oc)

    resumed = tiny_model(vocab, seed=3)
    ckpt_path = tmp_path / "mid.npz"
    train_loop(resumed, data, TrainConfig(steps=5, batch_size=4, log_interval=1, seed=7),
               oc, checkpoint_path=ckpt_path)
    # configs must match the full run's for the fingerprint to agree
    fresh = tiny_model(vocab, seed=3)
    r_resumed = train_loop(fresh, data, tc_full, oc, resume_from=ckpt_path)

    for (n1, p1), (n2, p2) in zip(straight.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(p1.data, p2.data), n1
    assert r_full.log_lines[5:] == r_resumed.log_lines


def test_resume_batches_each_stream_once(tmp_path, monkeypatch):
    vocab, data = toy_data()
    oc = OptimizerConfig(lr=1e-3)
    tc = TrainConfig(steps=5, batch_size=4, log_interval=1, seed=7)
    ckpt_path = tmp_path / "mid.npz"
    train_loop(tiny_model(vocab), data, tc, oc, checkpoint_path=ckpt_path)
    assert load_checkpoint(ckpt_path).cursors["translation"]["cycle"] == 1
    calls = []

    def counting_make_batches(*args, **kwargs):
        calls.append(kwargs["seed"])
        return make_batches(*args, **kwargs)

    monkeypatch.setattr(training, "make_batches", counting_make_batches)
    # resumed at the checkpoint's own step, so no step runs
    result = train_loop(tiny_model(vocab), data, tc, oc, resume_from=ckpt_path)
    assert result.steps_run == 5 and result.log_lines == []
    # two monolingual streams, the translation stream and the validation split
    assert len(calls) == 4


def test_resume_rejects_different_model_config(tmp_path):
    vocab, data = toy_data()
    oc = OptimizerConfig()
    tc = TrainConfig(steps=2, batch_size=4, seed=1)
    ckpt_path = tmp_path / "c.npz"
    train_loop(tiny_model(vocab), data, tc, oc, checkpoint_path=ckpt_path)
    other = tiny_model(vocab)
    other.config.d_model = 999  # poison the fingerprint
    with pytest.raises(TrainingError, match="fingerprint"):
        train_loop(other, data, tc, oc, resume_from=ckpt_path)


def test_truncation_is_logged_once_per_corpus(caplog):
    vocab, _ = toy_data()
    long_lines = [encode(" ".join(WORDS * 3), vocab, "xx") for _ in range(2)]
    with caplog.at_level("WARNING"):
        batches = training._CyclingBatches(long_lines, 1, vocab, 8, seed=0, role=1)
        for _ in range(6):  # two batches a cycle: cycles 0, 1 and 2
            batches.next()
    assert batches.cycle == 2
    assert sum("truncated" in r.getMessage() for r in caplog.records) == 1


def test_validation_split_is_batched_once_per_train_loop(caplog):
    vocab, data = toy_data(with_mono=False)
    long_line = " ".join(WORDS * 3)
    data.parallel.splits["validation"].append(
        ParallelExample(encode(long_line, vocab, "xx"), encode(long_line, vocab, "yy")))
    tc = TrainConfig(steps=5, batch_size=4, log_interval=1, max_len=8)
    model = tiny_model(vocab, multitask=False)
    with caplog.at_level("WARNING"):
        result = train_loop(model, data, tc, OptimizerConfig())
    assert len(result.log_lines) == 5
    assert sum("truncated" in r.getMessage() for r in caplog.records) == 1
    # the split batched once gives the loss that batching it afresh gives
    assert result.log_lines[-1].split("\t")[5] == repr(validation_loss(model, data, tc))


@pytest.mark.parametrize("where", ["train", "validation", "mono"])
def test_a_batch_wider_than_the_model_fails_before_step_1(tmp_path, monkeypatch, where):
    vocab, data = toy_data()
    long_line = " ".join(WORDS * 3)  # 24 tokens: 26 positions framed as a source
    if where == "mono":
        data.monolingual["yy"].splits["train"].append(encode(long_line, vocab, "yy"))
    else:
        data.parallel.splits[where].append(
            ParallelExample(encode(long_line, vocab, "xx"), encode(long_line, vocab, "yy")))
    monkeypatch.setattr(training, "train_step", lambda *args: pytest.fail("a step ran"))
    tc = TrainConfig(steps=5, batch_size=4, max_len=64)
    wide = 25 if where == "mono" else 26
    with pytest.raises(TrainingError, match=rf"up to {wide} positions wide .* max_len 16"):
        train_loop(tiny_model(vocab), data, tc, OptimizerConfig(),
                   checkpoint_path=tmp_path / "c.npz")
    assert not (tmp_path / "c.npz").exists()


def test_metric_lines_are_on_disk_before_a_crash(tmp_path, monkeypatch):
    vocab, data = toy_data(with_mono=False)
    tc = TrainConfig(steps=6, batch_size=4, log_interval=1)
    full = train_loop(tiny_model(vocab, multitask=False), data, tc, OptimizerConfig())
    real_step, calls = training.train_step, []

    def crash_at_step_4(*args):
        calls.append(None)
        if len(calls) == 4:
            assert (tmp_path / "metrics.tsv").read_text().splitlines() == full.log_lines[:3]
            raise RuntimeError("killed")
        return real_step(*args)

    monkeypatch.setattr(training, "train_step", crash_at_step_4)
    with pytest.raises(RuntimeError, match="killed"):
        train_loop(tiny_model(vocab, multitask=False), data, tc, OptimizerConfig(),
                   log_path=tmp_path / "metrics.tsv")
    assert (tmp_path / "metrics.tsv").read_text().splitlines() == full.log_lines[:3]


def test_train_step_keeps_the_loss_value_but_not_the_graph():
    vocab, data = toy_data()
    model = tiny_model(vocab)
    tc = TrainConfig(steps=1, batch_size=4)
    bd = train_step(model, *first_batches(data, tc),
                    Adam(list(model.named_parameters()), OptimizerConfig()))
    assert bd.loss._children == ()
    assert bd.loss.item() == pytest.approx(bd.l_mtl, rel=1e-12)


def test_fingerprint_is_stable():
    a = config_fingerprint({"x": 1}, OptimizerConfig())
    b = config_fingerprint({"x": 1}, OptimizerConfig())
    c = config_fingerprint({"x": 2}, OptimizerConfig())
    assert a == b != c


# --- data-parallel steps -------------------------------------------------------------

# Sharding only reorders float64 sums (per-row terms of the weight gradients,
# per-position terms of the loss means), so a sharded step matches the whole
# one to a few ulps: losses relative to themselves, gradients relative to
# the largest gradient entry. A key bias's gradient is zero up to rounding,
# so it is compared to that global scale, not to its own.
SHARD_LOSS_TOLERANCE = 1e-15
SHARD_GRAD_TOLERANCE = 1e-14


@pytest.fixture
def shards(monkeypatch):
    """``shards(k)`` makes every step of at least ``k`` rows run in ``k``
    row shards, whatever the machine's cores and the step's size."""
    def force(k):
        monkeypatch.setattr(training, "SHARD_MIN_POSITIONS", 1)
        monkeypatch.setattr(training, "_usable_cores", lambda: k)
    return force


class SerialPool:
    """Runs each submitted shard at once, in the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as e:
            future.set_exception(e)
        return future


STEP_MODES = {  # model kind, and which of (parallel, src mono, tgt mono) the step gets
    "baseline": (False, (True, False, False)),
    "joint": (True, (True, True, True)),
    "clm_only": (True, (False, True, True)),  # as in acceptance gate c8
}


def shard_step(mode, **model_kw):
    """A fresh model, its optimizer and one step's batches of 6 rows each."""
    multitask, present = STEP_MODES[mode]
    vocab, data = toy_data(n_pairs=14, n_mono=12, with_mono=multitask)
    model = tiny_model(vocab, multitask=multitask, seed=7, **model_kw)
    tc = TrainConfig(steps=1, batch_size=6)
    pb = make_batches(data.parallel.split("train"), 6, vocab, 16, seed=[3, 0])[0]
    sb = tb = None
    if multitask:
        sb, tb = first_batches(data, tc)[1:]
    batches = [b if keep else None for b, keep in zip((pb, sb, tb), present)]
    return model, Adam(list(model.named_parameters()), OptimizerConfig()), batches


def step_grads(model):
    return {n: p.grad.copy() for n, p in model.named_parameters() if p.grad is not None}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mode", sorted(STEP_MODES))
def test_sharded_step_matches_the_whole_step(shards, mode, k):
    model, opt, batches = shard_step(mode)
    whole = train_step(model, *batches, opt)
    whole_grads = step_grads(model)
    shards(k)
    model, opt, batches = shard_step(mode)
    sharded = train_step(model, *batches, opt)
    sharded_grads = step_grads(model)

    kind, parts = training.step_parts(model, batches)
    assert (whole.split, sharded.split, kind, len(parts)) == ("whole", "rows", "rows", k)
    for field in ("l_t", "l_clm_src", "l_clm_tgt"):
        a, b = getattr(whole, field), getattr(sharded, field)
        assert type(b) is float
        assert abs(a - b) <= SHARD_LOSS_TOLERANCE * abs(a), field
    assert sharded.loss.item() == pytest.approx(sharded.l_mtl, rel=1e-15)
    assert sharded.loss._children == ()
    assert whole_grads.keys() == sharded_grads.keys()
    largest = max(np.abs(g).max() for g in whole_grads.values())
    for n, g in whole_grads.items():
        assert np.abs(sharded_grads[n] - g).max() <= SHARD_GRAD_TOLERANCE * largest, n


def test_sharded_steps_are_bit_identical_threaded_or_serial(shards, monkeypatch):
    shards(4)  # more shards than this machine may have cores
    threads = set()
    real_compute = training.compute_losses

    def spy(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return real_compute(*args, **kwargs)

    monkeypatch.setattr(training, "compute_losses", spy)
    runs = []
    for pool in (None, SerialPool()):
        if pool is not None:
            monkeypatch.setattr(training, "_worker_pool", lambda: pool)
        model, opt, batches = shard_step("joint")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the shard threads as finely as possible
        try:
            bds = [train_step(model, *batches, opt) for _ in range(2)]
        finally:
            sys.setswitchinterval(interval)
        runs.append(([(bd.l_t, bd.l_clm_src, bd.l_clm_tgt, bd.loss.item()) for bd in bds],
                     step_grads(model), {n: p.data.copy() for n, p in model.named_parameters()}))
        if pool is None:
            assert any(name.startswith("minimt-shard") for name in threads), threads
    (losses_a, grads_a, params_a), (losses_b, grads_b, params_b) = runs
    assert losses_a == losses_b
    assert grads_a.keys() == grads_b.keys()
    assert all(np.array_equal(grads_a[n], grads_b[n]) for n in grads_a)
    assert all(np.array_equal(params_a[n], params_b[n]) for n in params_a)


def test_sharded_dropout_draws_from_generators_spawned_per_shard(shards):
    shards(3)
    runs = []
    for _ in range(2):
        model, opt, batches = shard_step("joint", dropout_rate=0.2)
        bds = [train_step(model, *batches, opt) for _ in range(2)]
        rngs = [model._dropout_rng] + [r._dropout_rng for r, _ in training._replicas[model]]
        states = [rng.bit_generator.state["state"]["state"] for rng in rngs]
        assert len(set(states)) == 3  # each shard has its own generator and stream
        runs.append(([(bd.l_t, bd.l_clm_src, bd.l_clm_tgt) for bd in bds],
                     {n: p.data.copy() for n, p in model.named_parameters()}))
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(runs[0][1][n], runs[1][1][n]) for n in runs[0][1])


def test_an_empty_loss_in_a_worker_shard_reaches_the_caller(shards):
    shards(2)
    model, opt, (pb, _, _) = shard_step("baseline")
    labels = pb.tgt_labels.copy()
    labels[3:] = pb.pad_id  # the second shard's rows carry no label at all
    pb = dataclasses.replace(pb, tgt_labels=labels)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    with pytest.raises(EmptyLossError):
        train_step(model, pb, None, None, opt)
    assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters())


def test_a_non_finite_gradient_in_a_worker_shard_aborts_the_step(shards, monkeypatch):
    shards(2)
    real_compute = training.compute_losses

    def poison_workers(*args, **kwargs):
        bd = real_compute(*args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            bd.loss = bd.loss * float("nan")
        return bd

    monkeypatch.setattr(training, "compute_losses", poison_workers)
    model, opt, batches = shard_step("joint")
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    with pytest.raises(TrainingError, match="non-finite gradient"):
        train_step(model, *batches, opt)
    assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters())


def test_an_error_in_shard_0_is_raised_after_the_workers_finish(shards, monkeypatch):
    shards(2)
    real_compute, finished = training.compute_losses, []

    def slow_workers(*args, **kwargs):
        bd = real_compute(*args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
            finished.append(True)
        return bd

    monkeypatch.setattr(training, "compute_losses", slow_workers)
    model, opt, (pb, _, _) = shard_step("baseline")
    labels = pb.tgt_labels.copy()
    labels[:3] = pb.pad_id  # shard 0's rows carry no label at all
    with pytest.raises(EmptyLossError):
        train_step(model, dataclasses.replace(pb, tgt_labels=labels), None, None, opt)
    assert finished == [True]  # no worker outlives the step that raised


def test_replicas_follow_the_arrays_of_a_new_optimizer(shards):
    shards(2)
    model, opt, batches = shard_step("joint")
    train_step(model, *batches, opt)
    opt = Adam(list(model.named_parameters()), OptimizerConfig())  # re-homes every p.data
    train_step(model, *batches, opt)  # moves the parameters in their new arrays
    before = copy.deepcopy(model)
    train_step(model, *batches, opt)
    zero_grads(before.parameters())
    backward(compute_losses(before, *batches).loss)
    whole = step_grads(before)
    largest = max(np.abs(g).max() for g in whole.values())
    for n, g in step_grads(model).items():
        assert np.abs(g - whole[n]).max() <= SHARD_GRAD_TOLERANCE * largest, n


def test_a_one_row_batch_never_shards(shards, monkeypatch):
    shards(2)

    def no_pool():
        raise AssertionError("a one-row step started the shard threads")

    monkeypatch.setattr(training, "_worker_pool", no_pool)
    model, opt, (pb, _, _) = shard_step("baseline")
    one_row = dataclasses.replace(pb, **{f: getattr(pb, f)[:1] for f in
                                         ("src", "src_mask", "tgt_in", "tgt_labels", "tgt_mask")})
    assert train_step(model, one_row, None, None, opt).split == "whole"


def _step_batch(rows, src, tgt):
    """A parallel batch whose id rows are distinct, so shards can be traced."""
    src_ids, tgt_ids = (np.arange(rows * w, dtype=np.int64).reshape(rows, w) for w in (src, tgt))
    return ParallelBatch(src_ids, np.ones((rows, src)), tgt_ids, tgt_ids, np.ones((rows, tgt)),
                         "xx", "yy", 0)


def _step_mono(rows, width):
    ids = np.arange(rows * width, dtype=np.int64).reshape(rows, width)
    return MonoBatch(ids, ids, np.ones((rows, width)), "xx", 0, 2)


# A step's shape: (rows, framed source width, framed target width) of its
# parallel batch, then (rows, framed width) of each monolingual batch; None
# for a batch the step lacks.
DESK_MTL = ((16, 10, 10), (16, 9), (16, 9))  # the widest desk step: 3-8 token sentences
NARROW_DESK_MTL = ((16, 7, 6), (16, 6), (16, 6))  # narrower than any desk step seen (406)
SMOKE_MTL = ((8, 8, 7), (8, 7), (8, 7))  # the widest smoke step: 3-6 token sentences, B=8
WIDE = ((16, 60, 60), (16, 60), (16, 60))

STEP_SHAPES = {  # case: d_model, shape, usable cores, row shards on, positions, kind, parts
    "desk-mtl": (64, DESK_MTL, 2, True, 608, "tasks", 2),
    "desk-mtl-64-cores": (64, DESK_MTL, 64, True, 608, "tasks", 2),
    "narrow-desk-mtl": (64, NARROW_DESK_MTL, 2, True, 400, "tasks", 2),
    "smoke-mtl": (32, SMOKE_MTL, 2, True, 232, "whole", 1),
    "smoke-model-narrow-desk-step": (32, NARROW_DESK_MTL, 2, True, 400, "whole", 1),
    "desk-mtl-one-core": (64, NARROW_DESK_MTL, 1, True, 400, "whole", 1),
    "baseline-40-60-tokens": (64, ((16, 42, 42), None, None), 2, True, 1344, "rows", 2),
    "three-rows-64-cores": (64, ((3, 600, 600), None, None), 64, True, 3600, "rows", 3),
    "clm-only-above-the-shard-threshold": (64, (None, *WIDE[1:]), 2, True, 1920, "rows", 2),
    "no-batches": (64, (None, None, None), 2, True, 0, "whole", 1),
    # a step kept out of row shards splits by task only when it carries both tasks
    "wide-translation-only-no-row-shards": (64, (WIDE[0], None, None), 2, False, 1920,
                                            "whole", 1),
    "wide-clm-only-no-row-shards": (64, (None, *WIDE[1:]), 2, False, 1920, "whole", 1),
    "wide-joint-one-clm-side-no-row-shards": (64, (*WIDE[:2], None), 2, False, 2880,
                                             "tasks", 2),
}


@pytest.mark.parametrize("case", list(STEP_SHAPES))
def test_step_parts_over_the_benchmarks_step_shapes(case, monkeypatch):
    d_model, shape, cores, row_shards, positions, kind, n_parts = STEP_SHAPES[case]
    monkeypatch.setattr(training, "_usable_cores", lambda: cores)
    if not row_shards:
        monkeypatch.setattr(training, "SHARD_MIN_POSITIONS", 10**9)
    batches = tuple(None if dims is None else make(*dims)
                    for make, dims in zip((_step_batch, _step_mono, _step_mono), shape))
    assert training._positions([b for b in batches if b is not None]) == positions
    model = SimpleNamespace(config=SimpleNamespace(d_model=d_model))
    got, parts = training.step_parts(model, batches)
    assert (got, len(parts)) == (kind, n_parts)
    pb, sb, tb = batches
    expected = {"whole": [(pb, sb, tb)], "tasks": [(pb, None, None), (None, sb, tb)]}.get(kind)
    if expected is not None:  # the step's own batches, not copies
        assert [[id(b) for b in part] for part in parts] == [[id(b) for b in part]
                                                             for part in expected]
        return
    for i, b in enumerate(batches):  # near-equal contiguous shards of every batch, in order
        shards = [part[i] for part in parts]
        if b is None:
            assert shards == [None] * n_parts
            continue
        ids = "src" if i == 0 else "dec_in"
        assert max(len(x) for x in shards) - min(len(x) for x in shards) <= 1
        assert np.array_equal(np.concatenate([getattr(x, ids) for x in shards]), getattr(b, ids))


def test_train_loop_counts_sharded_steps(shards):
    vocab, data = toy_data()
    tc = TrainConfig(steps=4, batch_size=4, log_interval=2, seed=5)
    whole = train_loop(tiny_model(vocab, seed=2), data, tc, OptimizerConfig(lr=1e-3))
    shards(2)
    sharded = train_loop(tiny_model(vocab, seed=2), data, tc, OptimizerConfig(lr=1e-3))
    assert (whole.split_steps, sharded.split_steps) == ({"whole": 4}, {"rows": 4})
    for a, b in zip(whole.log_lines, sharded.log_lines):
        values = [float(v) for v in b.split("\t")]  # plain floats, as a metrics.tsv line
        assert values == pytest.approx([float(v) for v in a.split("\t")], rel=1e-9)


# --- task-split steps ---------------------------------------------------------------

@pytest.fixture
def task_split(monkeypatch):
    """Makes every joint step run its translation and CLM halves on two
    threads, whatever its size; the toy steps stay below the row shards'."""
    monkeypatch.setattr(training, "TASK_SPLIT_MIN_ELEMENTS", 1)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)


def test_task_split_step_matches_the_whole_step(monkeypatch):
    model, opt, batches = shard_step("joint")
    whole = train_step(model, *batches, opt)
    whole_grads = step_grads(model)
    monkeypatch.setattr(training, "TASK_SPLIT_MIN_ELEMENTS", 1)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    model, opt, batches = shard_step("joint")
    split = train_step(model, *batches, opt)
    split_grads = step_grads(model)

    assert (whole.split, split.split) == ("whole", "tasks")
    for field in ("l_t", "l_clm_src", "l_clm_tgt"):
        a, b = getattr(whole, field), getattr(split, field)
        assert type(b) is float
        assert abs(a - b) <= SHARD_LOSS_TOLERANCE * abs(a), field
    assert split.loss.item() == pytest.approx(split.l_mtl, rel=1e-15)
    assert split.loss._children == ()
    assert whole_grads.keys() == split_grads.keys()
    largest = max(np.abs(g).max() for g in whole_grads.values())
    for n, g in whole_grads.items():
        assert np.abs(split_grads[n] - g).max() <= SHARD_GRAD_TOLERANCE * largest, n


def test_task_split_steps_are_bit_identical_threaded_or_serial(task_split, monkeypatch):
    threads = {}
    real_compute = training.compute_losses

    def spy(model, parallel_batch, *args, **kwargs):
        task = "t" if parallel_batch is not None else "clm"
        threads.setdefault(task, set()).add(threading.current_thread().name)
        return real_compute(model, parallel_batch, *args, **kwargs)

    monkeypatch.setattr(training, "compute_losses", spy)
    runs = []
    for pool in (None, SerialPool()):
        if pool is not None:
            monkeypatch.setattr(training, "_worker_pool", lambda: pool)
        model, opt, batches = shard_step("joint")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two halves as finely as possible
        try:
            bds = [train_step(model, *batches, opt) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(bd.split == "tasks" for bd in bds)
        runs.append(([(bd.l_t, bd.l_clm_src, bd.l_clm_tgt, bd.loss.item()) for bd in bds],
                     step_grads(model), {n: p.data.copy() for n, p in model.named_parameters()}))
        if pool is None:
            assert threads["t"] == {threading.main_thread().name}
            assert all(name.startswith("minimt-shard") for name in threads["clm"]), threads
    (losses_a, grads_a, params_a), (losses_b, grads_b, params_b) = runs
    assert losses_a == losses_b
    assert grads_a.keys() == grads_b.keys()
    assert all(np.array_equal(grads_a[n], grads_b[n]) for n in grads_a)
    assert all(np.array_equal(params_a[n], params_b[n]) for n in params_a)


def test_the_clm_half_draws_dropout_from_a_spawned_generator(task_split):
    runs = []
    for _ in range(2):
        model, opt, batches = shard_step("joint", dropout_rate=0.2)
        bds = [train_step(model, *batches, opt) for _ in range(2)]
        (replica, _), = training._replicas[model]
        states = [rng.bit_generator.state["state"]["state"]
                  for rng in (model._dropout_rng, replica._dropout_rng)]
        assert states[0] != states[1]  # each half has its own generator and stream
        assert replica._dropout_rng is not model._dropout_rng
        runs.append(([(bd.l_t, bd.l_clm_src, bd.l_clm_tgt) for bd in bds],
                     {n: p.data.copy() for n, p in model.named_parameters()}))
    assert runs[0][0] == runs[1][0]
    assert all(np.array_equal(runs[0][1][n], runs[1][1][n]) for n in runs[0][1])


def _slow_main_half(monkeypatch, finished):
    real_compute = training.compute_losses

    def slow_main(*args, **kwargs):
        bd = real_compute(*args, **kwargs)
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.2)
            finished.append(True)
        return bd

    monkeypatch.setattr(training, "compute_losses", slow_main)


def test_an_empty_loss_in_the_clm_half_reaches_the_caller(task_split, monkeypatch):
    finished = []
    _slow_main_half(monkeypatch, finished)
    model, opt, (pb, sb, tb) = shard_step("joint")
    sb = dataclasses.replace(sb, labels=np.full_like(sb.labels, sb.pad_id))
    tb = dataclasses.replace(tb, labels=np.full_like(tb.labels, tb.pad_id))
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    with pytest.raises(EmptyLossError):
        train_step(model, pb, sb, tb, opt)
    assert finished == [True]  # raised once the translation half had finished
    assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters())


def test_a_non_finite_gradient_in_the_clm_half_aborts_the_step(task_split, monkeypatch):
    real_compute = training.compute_losses

    def poison_worker(*args, **kwargs):
        bd = real_compute(*args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            bd.loss = bd.loss * float("nan")
        return bd

    monkeypatch.setattr(training, "compute_losses", poison_worker)
    model, opt, batches = shard_step("joint")
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    with pytest.raises(TrainingError, match="non-finite gradient in parameter 'embedding'"):
        train_step(model, *batches, opt)
    assert all(np.array_equal(p.data, before[n]) for n, p in model.named_parameters())
    assert opt.t == 0


def test_smoke_steps_never_start_a_thread(monkeypatch):
    def no_pool():
        raise AssertionError("a step started the worker threads")

    monkeypatch.setattr(training, "_worker_pool", no_pool)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    vocab, data = toy_data(n_pairs=40, n_mono=30)
    smoke_shape = dict(d_model=32, n_heads=2, n_enc_layers=2, n_dec_layers=2, d_ff=64)
    model = init_params(ModelConfig(vocab_size=len(vocab), max_len=24, **smoke_shape),
                        multitask=True)
    tc = TrainConfig(steps=4, batch_size=8, log_interval=4)
    result = train_loop(model, data, tc, OptimizerConfig())
    assert result.split_steps == {"whole": 4}


def test_the_worker_pool_caps_blas_at_one_thread(task_split):
    if training._blas_thread_api() is None:
        pytest.skip("no OpenBLAS thread control found in this numpy")
    model, opt, batches = shard_step("joint")
    assert train_step(model, *batches, opt).split == "tasks"
    assert training._blas_thread_api()[1]() == 1
    vocab, data = toy_data()
    result = train_loop(tiny_model(vocab), data, TrainConfig(steps=2, batch_size=4),
                        OptimizerConfig())
    assert (result.split_steps, result.blas_threads) == ({"tasks": 2}, 1)


def test_the_worker_pool_warns_once_when_it_cannot_cap_blas(monkeypatch, caplog):
    monkeypatch.setattr(training, "_blas_thread_api", lambda: None)
    monkeypatch.setattr(training, "_shard_pool", None)  # the real pool comes back afterwards
    with caplog.at_level(logging.WARNING, logger="minimt.training"):
        pool = training._worker_pool()
        try:
            assert training._worker_pool() is pool
        finally:
            pool.shutdown()
    assert ["OpenBLAS" in r.getMessage() for r in caplog.records] == [True]
    assert training.blas_threads() is None


# --- the control arm: MTL at clm_loss_weight 0 is the baseline -----------------------

def synthetic_data(tmp_path, n_parallel, n_mono, **kw):
    """An aa->bb fixture from ``synthetic.generate_pair``, held in memory; the
    last 10 pairs are the validation split."""
    paths = synthetic.generate_pair(tmp_path, n_parallel + 10, n_mono, **kw)
    lines = {role: Path(path).read_text(encoding="utf-8").splitlines()
             for role, path in paths.items()}
    vocab = build_vocab([l for ls in lines.values() for l in ls], languages=["aa", "bb"])
    pairs = [ParallelExample(encode(s, vocab, "aa"), encode(t, vocab, "bb"))
             for s, t in zip(lines["parallel_src"], lines["parallel_tgt"])]
    parallel = ParallelCorpus("aa", "bb", {"train": pairs[:-10], "validation": pairs[-10:],
                                           "test": []})
    mono = {lang: MonolingualCorpus(lang, {"train": [encode(l, vocab, lang)
                                                     for l in lines[f"mono_{lang}"]]})
            for lang in ("aa", "bb")}
    return TrainData(vocab, parallel, mono)


def assert_weight_zero_mtl_is_the_baseline(data, config, tc):
    runs = {}
    for multitask in (False, True):
        model = init_params(config, multitask=multitask)
        result = train_loop(model, data, tc, OptimizerConfig(lr=3e-3),
                            freeze_spec=FreezeSpec.first_half_encoder(model))
        runs[multitask] = model.param_dict(), result
    (base, base_result), (mtl, mtl_result) = runs[False], runs[True]
    translation_path = {n.replace("decoder_t.", "decoder.", 1): p for n, p in mtl.items()
                        if not n.startswith("decoder_clm.")}
    assert translation_path.keys() == base.keys()
    for name, p in base.items():
        assert np.array_equal(translation_path[name].data, p.data), name
    fresh = init_params(config).param_dict()
    assert any(not np.array_equal(p.data, fresh[n].data) for n, p in base.items())
    l_t = [[line.split("\t")[1] for line in r.log_lines] for r in (base_result, mtl_result)]
    assert len(l_t[0]) == tc.steps and l_t[0] == l_t[1]
    return mtl_result


def test_weight_zero_mtl_is_the_baseline_at_smoke_shape(tmp_path):
    data = synthetic_data(tmp_path, 40, 40, seed=0, vocab_size=20, min_len=3, max_len=6)
    config = ModelConfig(vocab_size=len(data.vocabulary), d_model=32, n_heads=2, n_enc_layers=2,
                         n_dec_layers=2, d_ff=64, max_len=24)
    tc = TrainConfig(steps=12, batch_size=8, log_interval=1, clm_loss_weight=0.0)
    result = assert_weight_zero_mtl_is_the_baseline(data, config, tc)
    assert result.split_steps == {"whole": 12}


def test_weight_zero_mtl_is_the_baseline_at_desk_shape(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    data = synthetic_data(tmp_path, 60, 60, seed=3, vocab_size=30, min_len=3, max_len=8)
    config = ModelConfig(vocab_size=len(data.vocabulary), seed=1)
    tc = TrainConfig(steps=4, batch_size=16, log_interval=1, clm_loss_weight=0.0)
    result = assert_weight_zero_mtl_is_the_baseline(data, config, tc)
    assert result.split_steps == {"tasks": 4}


@pytest.mark.parametrize("kind, multitask, lengths", [
    ("task split", True, (3, 8)),  # a desk multitask step
    ("row shards", False, (40, 60)),
    ("whole", False, (3, 8)),  # a desk baseline step
])
def test_a_step_never_walks_the_parameter_registry(tmp_path, monkeypatch, kind, multitask,
                                                   lengths):
    # the model lists its parameters once, when it is built, and a replica
    # inherits its own list from the deepcopy
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    data = synthetic_data(tmp_path, 32, 32, seed=3, vocab_size=30, min_len=lengths[0],
                          max_len=lengths[1])
    model = init_params(ModelConfig(vocab_size=len(data.vocabulary), seed=1), multitask=multitask)
    corpora = [data.parallel] + ([data.monolingual[l] for l in ("aa", "bb")] if multitask else [])
    batches = [make_batches(c.split("train"), 16, data.vocabulary, 64, seed=0)[0] for c in corpora]
    batches += [None] * (3 - len(batches))
    opt = Adam(list(model.named_parameters()), OptimizerConfig())
    walks, named_parameters = [], Transformer.named_parameters

    def counted(self):
        walks.append(self)
        return named_parameters(self)

    monkeypatch.setattr(Transformer, "named_parameters", counted)
    bd = train_step(model, *batches, opt)  # the first step of a split kind makes its replica
    assert (bd.split, len(training.step_parts(model, batches)[1])) == {
        "task split": ("tasks", 2), "row shards": ("rows", 2), "whole": ("whole", 1)}[kind]
    for _ in range(3):
        train_step(model, *batches, opt)
    assert walks == []
    assert (model in training._replicas) == (kind != "whole")


def test_a_replica_lists_and_zeroes_its_own_parameters(monkeypatch):
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    model = init_params(ModelConfig(vocab_size=12, d_model=8, n_heads=2, n_enc_layers=2,
                                    n_dec_layers=1, d_ff=16, max_len=10), multitask=True)
    (replica, pairs), = training._replicas_of(model, 1)
    for m in (model, copy.deepcopy(model)):
        params = m.parameters()
        assert [id(p) for p in params] == [id(t) for _, t in m.named_parameters()]
    assert [r for _, r in pairs] == replica.parameters()
    assert [p for p, _ in pairs] == model.parameters()
    assert not {id(p) for p in replica.parameters()} & {id(p) for p in model.parameters()}
    for p in model.parameters() + replica.parameters():
        p.grad = np.ones_like(p.data)
    zero_grads(replica.parameters())
    assert all(p.grad is None for p in replica.parameters())
    assert all(p.grad is not None for p in model.parameters())


# --- convergence smoke ------------------------------------------------------------

def test_copy_task_overfits_quickly():
    rng = np.random.default_rng(0)
    words = [f"t{i}" for i in range(20)]
    lines = [" ".join(rng.choice(words, size=rng.integers(2, 6))) for _ in range(24)]
    vocab = build_vocab(lines, languages=["xx", "yy"])
    pairs = [ParallelExample(encode(l, vocab, "xx"), encode(l, vocab, "yy")) for l in lines]
    data = TrainData(vocab, ParallelCorpus("xx", "yy", {"train": pairs, "validation": []}))
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=2,
                         n_dec_layers=2, d_ff=64, max_len=16, seed=1)
    model = init_params(config, multitask=False)
    tc = TrainConfig(steps=200, batch_size=8, log_interval=1000, seed=0)
    train_loop(model, data, tc, OptimizerConfig(lr=3e-3))
    batches = make_batches(pairs, 8, vocab, 16, seed=0)
    assert token_accuracy(model, batches) > 0.9
