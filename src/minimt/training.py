"""Training loop for both regimes: Adam with constant learning rate,
joint translation+CLM steps, checkpointing and machine-parseable metric
logging.

Every multitask step is joint: one parallel batch and one monolingual batch
per side, and its objective is the plain sum of the translation cross
entropy and the two causal-LM cross entropies (source- and target-side);
the baseline regime optimizes the translation term alone. All shuffling is
derived functionally from (seed, epoch/cycle) so a resumed run replays the
exact batch order of an uninterrupted one.

``TrainSection`` declares and checks the settings ``train_loop`` reads, as
a config's train section holds them; ``TrainConfig`` adds the ``max_len``
and ``seed`` that the runner derives. A run with ``checkpoint_interval``
writes a checkpoint every that many steps and one at its last step.

Every step runs as the list of parts that ``step_parts`` returns with the
step's split, one of three kinds: "rows" splits a long step's batches by
rows into shards, "tasks" a smaller joint multitask step into its
translation and CLM halves, and "whole" keeps any other step as one part.
Part 0 runs on the model in the calling thread and the others on replicas
in a pool of worker threads, and their gradients are summed into the
model's before the update; a "whole" step starts no thread and computes
exactly the whole step. Each step's ``LossBreakdown.split`` records its
kind, and ``TrainResult.split_steps`` counts a run's steps by kind.
``Adam`` gives half of a large update to the same pool. numpy's kernels and
BLAS release the interpreter lock, so the parts overlap on separate cores.
"""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import functools
import glob
import hashlib
import json
import logging
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from minimt.autodiff import (
    Tensor,
    _accumulate,
    backward,
    cross_entropy,
    embedding,
    no_grad,
    zero_grads,
)
from minimt.data import (
    ParallelBatch,
    ParallelCorpus,
    Vocabulary,
    make_batches,
    stack_padded,
    token_budget,
    write_atomically,
)
from minimt.model import FreezeSpec, apply_freeze

logger = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1
PAPER_LR = 1e-5  # full-scale finetuning preset; far too small from random init


class TrainingError(RuntimeError):
    pass


@dataclass
class OptimizerConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "eps"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")


@dataclass
class TrainSection:
    """The settings ``train_loop`` reads; ``TrainConfig`` adds the derived fields."""

    steps: int | None = 300
    epochs: int | None = None
    batch_size: int = 16
    clm_batch_size: int | None = None
    log_interval: int = 50
    checkpoint_interval: int | None = None
    clm_loss_weight: float = 1.0
    clip_norm: float | None = None

    def __post_init__(self):
        if (self.steps is None) == (self.epochs is None):
            raise ValueError("set exactly one of steps or epochs")
        for name in ("steps", "epochs", "batch_size", "clm_batch_size",
                     "log_interval", "checkpoint_interval"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        # 0 is allowed: it is the control arm, an MTL run that learns like the baseline
        if not (math.isfinite(self.clm_loss_weight) and self.clm_loss_weight >= 0):
            raise ValueError(f"clm_loss_weight must be finite and >= 0, got {self.clm_loss_weight}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be > 0 when set, got {self.clip_norm}")


@dataclass
class TrainConfig(TrainSection):
    _: KW_ONLY
    max_len: int = 64
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        token_budget(self.max_len)  # raises unless a framed sentence fits a token

    @property
    def effective_clm_batch_size(self):
        return self.clm_batch_size if self.clm_batch_size is not None else self.batch_size


@dataclass
class LossBreakdown:
    """Per-task loss components of one step. ``loss`` is the graph root that
    would be backpropagated; after ``train_step`` it holds only that root's
    value, so a kept breakdown does not keep the step's graph alive.
    Components are plain floats. ``split`` is the kind of split the step
    ran in: "rows", "tasks" or "whole" (see ``step_parts``)."""

    l_t: float
    l_clm_src: float = 0.0
    l_clm_tgt: float = 0.0
    loss: Tensor | None = field(default=None, repr=False, compare=False)
    split: str = field(default="whole", compare=False)

    @property
    def l_clm(self) -> float:
        return self.l_clm_src + self.l_clm_tgt

    @property
    def l_mtl(self) -> float:
        return self.l_t + self.l_clm


def _label_positions(batch) -> int:
    labels = batch.tgt_labels if isinstance(batch, ParallelBatch) else batch.labels
    return int(np.count_nonzero(labels != batch.pad_id))


def compute_losses(model, parallel_batch, src_mono_batch=None, tgt_mono_batch=None,
                   clm_weight: float = 1.0, label_totals: dict | None = None) -> LossBreakdown:
    """Forward all active tasks and sum their cross entropies.

    PAD label positions are excluded via the batch's pad id. The baseline
    model rejects monolingual batches outright. With ``clm_weight`` != 1 the
    graph root is the weighted sum but the reported components stay raw.

    ``label_totals`` is given when the batches are one part of a step: it
    maps each task ("t", "src", "tgt") to its label positions in the whole
    step. Each cross entropy, in the root and in the reported components, is
    then weighted by this part's share of those positions, so the parts'
    losses sum to the whole step's means. A part that holds all of a task's
    rows has a share of exactly 1.0, which leaves its term as it is.
    """
    if not model.multitask and (src_mono_batch is not None or tgt_mono_batch is not None):
        raise TrainingError("baseline model cannot consume monolingual batches")
    terms = []

    def score(task, logits, labels, pad_id, weight=1.0):
        loss = cross_entropy(logits, labels, ignore_id=pad_id)
        value = loss.item()
        if label_totals is not None:
            share = int(np.count_nonzero(labels != pad_id)) / label_totals[task]
            value *= share
            weight *= share
        terms.append(loss if weight == 1.0 else loss * weight)
        return value

    l_t = 0.0
    if parallel_batch is not None:
        l_t = score("t", model.translation_logits(parallel_batch), parallel_batch.tgt_labels,
                    parallel_batch.pad_id)
    elif not model.multitask:
        raise TrainingError("baseline model needs a parallel batch")

    sides = {side: m for side, m in (("src", src_mono_batch), ("tgt", tgt_mono_batch))
             if m is not None}
    l_clm = {}
    if sides:
        # one CLM pass over both sides' rows; each side is scored on its own
        # rows, gathered out of the stacked logits
        monos = list(sides.values())
        logits = model.clm_logits(monos)
        labels = stack_padded([m.labels for m in monos], monos[0].pad_id)
        bounds = np.cumsum([0] + [len(m) for m in monos])
        for (side, mono), lo, hi in zip(sides.items(), bounds[:-1], bounds[1:]):
            own = logits if len(monos) == 1 else embedding(logits, np.arange(lo, hi))
            l_clm[side] = score(side, own, labels[lo:hi], mono.pad_id, clm_weight)
    if not terms:
        raise TrainingError("no batches given; nothing to optimize")
    root = terms[0]
    for t in terms[1:]:
        root = root + t
    return LossBreakdown(l_t=l_t, l_clm_src=l_clm.get("src", 0.0),
                         l_clm_tgt=l_clm.get("tgt", 0.0), loss=root)


class Adam:
    """Bias-corrected Adam over named parameters, with one step count for
    all of them. Frozen parameters are simply not handed to the optimizer;
    a parameter whose grad is absent in a step updates as if its gradient
    were zero, so one that never had a gradient keeps zero moments and does
    not move.

    On construction the parameters' arrays move into one flat buffer: each
    ``p.data`` becomes a view into it, and ``m[name]`` and ``v[name]`` are
    views into flat moment buffers. A step gathers the gradients into a flat
    buffer, checks that they are finite, scales them to a global L2 norm of
    at most ``clip_norm`` when given, and updates the buffers with a few
    in-place ufuncs, in the same elementwise order as the textbook update.
    It checks and updates in blocks of ``ADAM_BLOCK`` elements: it checks
    them all in the calling thread, and on a machine with a second usable
    core gives the second half of the blocks' updates to a worker thread
    when there are at least ``ADAM_SPLIT_BLOCKS`` blocks' worth of elements.
    That layout is fixed on construction, and each of the one or two parts
    keeps one block-sized scratch row for the update's intermediates; once
    ``m`` and ``v`` have read a gradient block, the block holds the rest.
    Every element sees the same operations either way, so the update is
    bit-identical.
    """

    def __init__(self, named_params, config: OptimizerConfig):
        self.config = config
        self.params = list(named_params)
        bounds = np.cumsum([0] + [p.data.size for _, p in self.params]).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        n = bounds[-1]
        self._data, self._m, self._v = np.empty(n), np.zeros(n), np.zeros(n)
        self._grad = np.empty(n)
        blocks = [(lo, min(lo + ADAM_BLOCK, n)) for lo in range(0, n, ADAM_BLOCK)]
        if _usable_cores() > 1 and n >= ADAM_SPLIT_BLOCKS * ADAM_BLOCK:
            half = (len(blocks) + 1) // 2
            self._parts = [blocks[:half], blocks[half:]]
        else:
            self._parts = [blocks]
        self._scratch = [np.empty(min(ADAM_BLOCK, n)) for _ in self._parts]
        self.m, self.v, self._grad_views = {}, {}, []
        for (name, p), sl in zip(self.params, self._slices):
            shape = p.data.shape
            self._data[sl] = p.data.ravel()
            p.data = self._data[sl].reshape(shape)
            self.m[name] = self._m[sl].reshape(shape)
            self.v[name] = self._v[sl].reshape(shape)
            self._grad_views.append(self._grad[sl].reshape(shape))
        self.t = 0

    def step(self, clip_norm: float | None = None):
        for (_, p), view in zip(self.params, self._grad_views):
            view[...] = 0.0 if p.grad is None else p.grad
        # every block is checked before any is updated, so a failed step
        # leaves the moments, the parameters and the step count as they were
        if not all(np.isfinite(self._grad[lo:hi]).all() for part in self._parts
                   for lo, hi in part):
            name = next(name for (name, _), sl in zip(self.params, self._slices)
                        if not np.isfinite(self._grad[sl]).all())
            raise TrainingError(f"non-finite gradient in parameter {name!r}; aborting step")
        if clip_norm is not None:
            norm = float(np.dot(self._grad, self._grad)) ** 0.5
            if norm > clip_norm:
                self._grad *= clip_norm / norm
        self.t += 1
        _in_parallel([(self._update, part, scratch)
                      for part, scratch in zip(self._parts, self._scratch)])

    def _update(self, blocks, scratch):
        c, t = self.config, self.t
        for lo, hi in blocks:
            g, m, v = self._grad[lo:hi], self._m[lo:hi], self._v[lo:hi]
            s = scratch[:hi - lo]
            m *= c.beta1
            m += np.multiply(g, 1 - c.beta1, out=s)
            v *= c.beta2
            np.multiply(g, 1 - c.beta2, out=s)
            s *= g
            v += s
            # m and v have read g: the gradient block now holds m_hat
            np.divide(m, 1 - c.beta1 ** t, out=g)  # m_hat
            np.divide(v, 1 - c.beta2 ** t, out=s)  # v_hat
            np.sqrt(s, out=s)
            s += c.eps
            g *= c.lr
            g /= s
            self._data[lo:hi] -= g


# A row shard needs at least this many padded positions (the id matrices'
# sizes, summed over the step's batches) before its thread pays for itself.
# On a 2-core x86-64 machine, two threaded halves of a desk-shape step
# (B=16, median over 12 steps) ran at 0.83x the whole step's speed at up to
# 848 positions (multitask, 8-12 token sentences) and 0.90x at 688
# (baseline, 12-20), but 1.22x from 904 (multitask, 12-20) and 1.25x from
# 944 (baseline, 20-30). Desk steps (3-8 tokens, at most ~640 positions)
# never shard; 40-60 token steps (1,300-1,950) always do.
SHARD_MIN_POSITIONS = 450

# A joint multitask step that stays whole runs its translation and CLM
# halves on two threads from this many padded positions times d_model (the
# size of the step's embedded input). Threads pay only where numpy's
# kernels, which release the interpreter lock, outweigh the Python
# overhead of building and walking the graphs, which holds it; that
# overhead grows with the positions and the kernels with the width too, so
# neither the positions alone nor the model alone draws the line. On a
# 2-core x86-64 machine with BLAS on one thread, whole against split steps
# (forward and backward, 24 steps per row; split speed-up min/median/max):
#
#   model (d_model)  B   tokens  positions  x d_model  speed-up
#   smoke (32)       8   3-6     200-232    6.4-7.4k   0.41/0.56/1.07
#   smoke (32)       8   3-8     260-296    8.3-9.5k   0.50/0.58/0.99
#   smoke (32)       8   8-12    360-424    12-14k     0.49/0.72/0.88
#   smoke (32)       16  3-8     412-592    13-19k     0.59/0.78/1.06
#   smoke (32)       16  8-12    576-848    18-27k     0.36/0.91/1.52
#   smoke (32)       24  3-8     564-888    18-28k     0.60/0.97/1.16
#   desk (64)        4   3-8     116-148    7.4-9.5k   0.61/0.76/1.15
#   desk (64)        8   3-6     200-232    13-15k     0.65/0.90/1.16
#   desk (64)        8   3-8     260-296    17-19k     0.73/1.01/1.28
#   desk (64)        8   8-12    360-424    23-27k     0.90/1.25/1.56
#   desk (64)        12  3-8     336-444    22-28k     0.89/1.25/1.68
#   desk (64)        16  3-8     412-592    26-38k     0.96/1.33/1.65
#   desk (64)        16  8-12    576-848    37-54k     1.11/1.48/1.74
#
# So smoke steps (200-232 positions) never split, and desk steps (mostly
# 406-592; 296 of the 300 MTL steps of desk seed 0) do. Steps of 900
# positions or more run in row shards instead.
TASK_SPLIT_MIN_ELEMENTS = 24_576

# Adam updates its flat buffers in blocks of this many elements, so that
# the dozen passes over one block find it in the core's cache, and gives
# half of the blocks to a worker thread when the update covers at least
# ADAM_SPLIT_BLOCKS blocks' worth of elements. On a 2-core x86-64 machine
# (2 MiB of L2 per core), a 638,848-element update took 13.7 ms unblocked,
# 12.9 ms in 64k blocks and 7.1 ms in 64k blocks on two threads; 8k blocks
# on two threads took 16.6 ms. Two blocks already pay: 131,072 elements
# took 1.6 ms on one thread and 1.1 ms on two.
ADAM_BLOCK = 65536
ADAM_SPLIT_BLOCKS = 2

_shard_lock = threading.Lock()
_shard_pool = None
# model -> (replica, its (model param, replica param) pairs) for parts 1, 2, ...
_replicas = weakref.WeakKeyDictionary()
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _positions(batches) -> int:
    return sum(b.src.size + b.tgt_in.size if isinstance(b, ParallelBatch) else b.dec_in.size
               for b in batches)


def step_parts(model, batches) -> tuple[str, list]:
    """How a step of ``model`` over ``batches`` (parallel, src mono, tgt
    mono; None for one it lacks) splits: its kind and its parts, such
    triples in the order they run. "rows" is one row shard per usable core,
    capped by the rows of the smallest batch and by the padded positions
    over ``SHARD_MIN_POSITIONS``, when that allows two or more; else
    "tasks" is the translation and CLM halves of a joint multitask step
    whose padded positions times ``d_model`` reach
    ``TASK_SPLIT_MIN_ELEMENTS``, with a second usable core; else "whole"."""
    pb, sb, tb = batches
    present = [b for b in batches if b is not None]
    cores, positions = _usable_cores(), _positions(present)
    k = min(cores, min((len(b) for b in present), default=0), positions // SHARD_MIN_POSITIONS)
    if k > 1:
        return "rows", list(zip(*(_row_shards(b, k) for b in batches)))
    if (pb is not None and (sb is not None or tb is not None) and cores > 1
            and positions * model.config.d_model >= TASK_SPLIT_MIN_ELEMENTS):
        return "tasks", [(pb, None, None), (None, sb, tb)]
    return "whole", [(pb, sb, tb)]


def _width(batch) -> int:
    """The widest id row ``batch`` feeds the model: source or target."""
    if isinstance(batch, ParallelBatch):
        return max(batch.src.shape[1], batch.tgt_in.shape[1])
    return batch.dec_in.shape[1]


@functools.cache
def _blas_thread_api():
    """The (set, get) thread-count functions of numpy's OpenBLAS, looked up
    by the names its builds export, in numpy's bundled libraries and in the
    process's global namespace; None when none is found."""
    bundled = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in [*sorted(glob.glob(os.path.join(bundled, "*openblas*"))), None]:
        try:
            lib = ctypes.CDLL(path)
        except (OSError, TypeError):  # TypeError: no global namespace (Windows)
            continue
        for setter in _BLAS_THREAD_SETTERS:
            getter = setter.replace("_set_", "_get_")
            if hasattr(lib, setter) and hasattr(lib, getter):
                set_threads, get_threads = getattr(lib, setter), getattr(lib, getter)
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                get_threads.argtypes, get_threads.restype = (), ctypes.c_int
                return set_threads, get_threads
    return None


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs a call on, or None when
    it cannot be read."""
    api = _blas_thread_api()
    return None if api is None else api[1]()


def _worker_pool() -> ThreadPoolExecutor:
    """The process's worker threads, started on first use.

    Starting them caps glibc at one malloc arena: with an arena per thread,
    20 s of two-shard 40-60 token baseline steps peaked at 257 MiB RSS, with
    one at 201 MiB (whole steps: 198 MiB), at the same speed. It also caps
    numpy's OpenBLAS at one thread, whose own threads would otherwise
    compete with the pool's for the cores: on a 2-core x86-64 machine, two
    threaded shards of a 40-60 token baseline step took 259-273 ms with
    OpenBLAS's default thread count and 130-131 ms with one (whole steps:
    220-235 ms either way).
    """
    global _shard_pool
    with _shard_lock:
        if _shard_pool is None:
            try:
                mallopt = ctypes.CDLL(None).mallopt
            except (OSError, AttributeError, TypeError):  # not glibc
                pass
            else:
                mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
                mallopt(-8, 1)  # M_ARENA_MAX
            blas = _blas_thread_api()
            if blas is None:
                logger.warning("cannot find numpy's OpenBLAS thread control; set "
                               "OPENBLAS_NUM_THREADS=1 so that BLAS threads do not compete "
                               "with minimt's worker threads")
            else:
                blas[0](1)
            _shard_pool = ThreadPoolExecutor(max(1, _usable_cores() - 1),
                                             thread_name_prefix="minimt-shard")
        return _shard_pool


def _in_parallel(calls) -> list:
    """Run ``calls``, ``(fn, *args)`` tuples, side by side: the first in
    this thread, the others in the worker pool (not started for one call).
    Returns their results in order once every call has finished; the first
    error in that order is raised only then."""
    futures = [_worker_pool().submit(*call) for call in calls[1:]]
    try:
        first = calls[0][0](*calls[0][1:])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _replicas_of(model, n: int) -> list:
    """``n`` replicas of ``model`` for parts 1..n, each with its (model
    parameter, replica parameter) pairs, listed once when it is made. Their
    parameter tensors share ``model``'s arrays (re-bound on every call, since
    ``Adam`` re-homes them) and its frozen set and mode, but own their
    gradients, which start at None. The position table is shared too."""
    if n == 0:
        return []
    with _shard_lock:
        replicas = _replicas.setdefault(model, [])
        while len(replicas) < n:
            params = model.parameters()
            memo = {id(p.data): p.data for p in params}  # a fresh memo makes a fresh copy
            memo[id(model.positions)] = model.positions
            replica = copy.deepcopy(model, memo)
            replicas.append((replica, list(zip(params, replica.parameters()))))
        replicas = replicas[:n]
    for replica, pairs in replicas:
        replica.training = model.training
        for p, r in pairs:
            r.data, r.requires_grad, r.grad = p.data, p.requires_grad, None
    return replicas


def _row_shards(batch, k: int) -> list:
    """``batch`` split by rows into ``k`` contiguous shards of near-equal
    size, as views; ``k`` Nones for a missing batch."""
    if batch is None:
        return [None] * k
    arrays = {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)
              if isinstance(getattr(batch, f.name), np.ndarray)}
    n = len(batch)
    bounds = [i * n // k for i in range(k + 1)]
    return [dataclasses.replace(batch, **{name: a[lo:hi] for name, a in arrays.items()})
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _forward_backward(model, batches, clm_weight: float, label_totals=None) -> LossBreakdown:
    """``compute_losses`` and its backward; the breakdown keeps the root's
    value, not its graph."""
    bd = compute_losses(model, *batches, clm_weight, label_totals=label_totals)
    backward(bd.loss)
    bd.loss = Tensor(bd.loss.data)
    return bd


def train_step(model, parallel_batch, src_mono_batch, tgt_mono_batch,
               optimizer: Adam, train_config: TrainConfig | None = None) -> LossBreakdown:
    """One optimizer step: forward all active tasks, backward the summed
    loss, update every non-frozen parameter, its gradient clipped to
    ``train_config.clip_norm`` when that is set.

    The step runs as the parts ``step_parts`` gives it, and the breakdown's
    ``split`` records their kind. Part 0 runs on ``model`` in this thread,
    the others on replicas in the worker pool, each with its own dropout
    generator spawned from the model's. Every part weights its cross
    entropies by its share of the step's label positions (see
    ``compute_losses``), and the replicas' grads, added into the model's in
    part order, sum to the whole step's. So a split step matches the whole
    step up to rounding, and a "whole" step starts no thread and computes
    exactly the whole step. The first error in part order is raised once
    every part has finished.
    """
    zero_grads(model.parameters())
    clm_weight = train_config.clm_loss_weight if train_config else 1.0
    batches = (parallel_batch, src_mono_batch, tgt_mono_batch)
    split, parts = step_parts(model, batches)
    totals = {task: _label_positions(b) for task, b in zip(("t", "src", "tgt"), batches)
              if b is not None}
    replicas = _replicas_of(model, len(parts) - 1)
    if replicas:
        for (replica, _), rng in zip(replicas, model._dropout_rng.spawn(len(replicas))):
            replica._dropout_rng = rng
    bds = _in_parallel([(_forward_backward, m, part, clm_weight, totals)
                        for m, part in zip([model, *(r for r, _ in replicas)], parts)])
    for _, pairs in replicas:
        for p, r in pairs:
            if r.grad is not None:
                _accumulate(p, r.grad)
                r.grad = None
    optimizer.step(train_config.clip_norm if train_config else None)
    return LossBreakdown(l_t=sum(bd.l_t for bd in bds),
                         l_clm_src=sum(bd.l_clm_src for bd in bds),
                         l_clm_tgt=sum(bd.l_clm_tgt for bd in bds),
                         loss=Tensor(sum(bd.loss.item() for bd in bds)),
                         split=split)


# ---------------------------------------------------------------------------
# corpora plumbing for the loop


@dataclass
class TrainData:
    vocabulary: Vocabulary
    parallel: ParallelCorpus
    monolingual: dict = field(default_factory=dict)  # language -> MonolingualCorpus


class _CyclingBatches:
    """Reshuffling batch iterator; order is a pure function of
    (seed, role, cycle) so a cursor fully captures its state, and the
    iterator starts at ``cursor`` (by default the first batch of cycle 0).
    Truncation is logged once, when the iterator first batches its corpus."""

    def __init__(self, examples, batch_size, vocab, max_len, seed, role, cursor=None):
        self.examples = examples
        self.batch_size = batch_size
        self.vocab = vocab
        self.max_len = max_len
        self.seed = seed
        self.role = role
        cursor = cursor or {"cycle": 0, "pos": 0}
        self.cycle = int(cursor["cycle"])
        self.pos = int(cursor["pos"])
        self._batches = self._generate(log_truncation=True)

    def _generate(self, log_truncation=False):
        return make_batches(self.examples, self.batch_size, self.vocab, self.max_len,
                            seed=[self.seed, self.role, self.cycle],
                            log_truncation=log_truncation)

    def next(self):
        if self.pos >= len(self._batches):
            self.cycle += 1
            self.pos = 0
            self._batches = self._generate()
        batch = self._batches[self.pos]
        self.pos += 1
        return batch

    @property
    def cursor(self):
        return {"cycle": self.cycle, "pos": self.pos}


_ROLE_TRANSLATION, _ROLE_SRC_MONO, _ROLE_TGT_MONO, _ROLE_VALID = 0, 1, 2, 99


def validation_batches(data: TrainData, config: TrainConfig) -> list:
    """The validation split, batched; empty when the corpus has none."""
    split = data.parallel.splits.get("validation") or []
    if not split:
        return []
    return make_batches(split, config.batch_size, data.vocabulary, config.max_len,
                        seed=[config.seed, _ROLE_VALID])


def validation_loss(model, data: TrainData, config: TrainConfig, batches=None):
    """Teacher-forced translation loss over the validation split, eval mode.
    ``batches`` is that split from ``validation_batches``, batched here when
    not given. Returns None when the corpus has no validation examples."""
    if batches is None:
        batches = validation_batches(data, config)
    if not batches:
        return None
    with model.eval_mode(), no_grad():
        losses = [compute_losses(model, b).l_t for b in batches]
    return float(np.mean(losses))


def token_accuracy(model, batches) -> float:
    """Teacher-forced next-token accuracy over non-PAD label positions."""
    correct = total = 0
    with model.eval_mode(), no_grad():
        for b in batches:
            pred = model.translation_logits(b).data.argmax(axis=-1)
            mask = b.tgt_labels != b.pad_id
            correct += int((pred[mask] == b.tgt_labels[mask]).sum())
            total += int(mask.sum())
    return correct / max(total, 1)


# ---------------------------------------------------------------------------
# checkpoints


# runtime controls that a resumed run may legitimately change
_NON_IDENTITY_FIELDS = ("steps", "epochs", "log_interval", "checkpoint_interval")
# settings that only a multitask model reads
MULTITASK_ONLY_FIELDS = ("clm_loss_weight", "clm_batch_size")


def _train_identity(config: TrainConfig, multitask: bool) -> dict:
    """The fields of ``config`` that a checkpoint's fingerprint covers: all
    but the runtime controls, and for a baseline model all but the
    multitask-only settings too."""
    skip = _NON_IDENTITY_FIELDS + (() if multitask else MULTITASK_ONLY_FIELDS)
    return {k: v for k, v in dataclasses.asdict(config).items() if k not in skip}


def config_fingerprint(*configs) -> str:
    payload = [dataclasses.asdict(c) if dataclasses.is_dataclass(c) else c for c in configs]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Checkpoint:
    version: int
    fingerprint: str
    step: int
    params: dict
    adam_m: dict
    adam_v: dict
    adam_t: dict
    cursors: dict
    meta: dict = field(default_factory=dict)


def save_checkpoint(path, model, optimizer: Adam, fingerprint: str, step: int,
                    cursors: dict, meta: dict | None = None) -> None:
    arrays = {}
    for name, p in model.named_parameters():
        arrays[f"param:{name}"] = p.data
    for name, _ in optimizer.params:
        arrays[f"adam_m:{name}"] = optimizer.m[name]
        arrays[f"adam_v:{name}"] = optimizer.v[name]
    header = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "step": step,
        "cursors": cursors,
        "adam_t": {name: optimizer.t for name, _ in optimizer.params},
        "meta": meta or {},
    }
    arrays["__header__"] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    write_atomically(path, lambda f: np.savez(f, **arrays))


def load_checkpoint(path, expected_fingerprint: str | None = None,
                    params_only: bool = False) -> Checkpoint:
    """Read a checkpoint written by ``save_checkpoint``. With ``params_only``
    the Adam moments are left unread, and ``adam_m`` and ``adam_v`` are
    empty: translating needs the parameters alone."""
    try:
        archive = np.load(path, allow_pickle=False)
        header = json.loads(bytes(archive["__header__"]).decode())
    except Exception as e:
        raise TrainingError(f"corrupt or unreadable checkpoint {path}: {e}") from None
    with archive:
        if header.get("version") != CHECKPOINT_VERSION:
            raise TrainingError(f"checkpoint version {header.get('version')} unsupported")
        if expected_fingerprint is not None and header["fingerprint"] != expected_fingerprint:
            raise TrainingError("checkpoint fingerprint mismatch: the stored configuration "
                                "differs from the current one")
        members = {"param": {}} if params_only else {"param": {}, "adam_m": {}, "adam_v": {}}
        for key in archive.files:
            kind, _, name = key.partition(":")
            if kind in members:
                members[kind][name] = archive[key]
    return Checkpoint(version=header["version"], fingerprint=header["fingerprint"],
                      step=header["step"], params=members["param"],
                      adam_m=members.get("adam_m", {}), adam_v=members.get("adam_v", {}),
                      adam_t=header["adam_t"], cursors=header["cursors"], meta=header["meta"])


def restore_checkpoint(model, optimizer: Adam | None, ckpt: Checkpoint) -> None:
    """Load parameters (and, when an optimizer is given, its moments and
    step count) in place. The checkpoint stores a step count per parameter;
    they must all be equal."""
    model_params = model.param_dict()
    if set(model_params) != set(ckpt.params):
        raise TrainingError("checkpoint parameter names do not match the model")
    for name, arr in ckpt.params.items():
        if model_params[name].data.shape != arr.shape:
            raise TrainingError(f"checkpoint shape mismatch for {name}")
        model_params[name].data[...] = arr
    if optimizer is None:
        return
    counts = {int(ckpt.adam_t[name]) for name, _ in optimizer.params}
    if len(counts) > 1:
        raise TrainingError(f"checkpoint holds unequal Adam step counts {sorted(counts)}")
    for name, _ in optimizer.params:
        optimizer.m[name][...] = ckpt.adam_m[name]
        optimizer.v[name][...] = ckpt.adam_v[name]
    optimizer.t = max(counts, default=0)


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    model: object
    log_lines: list
    steps_run: int
    final_loss: LossBreakdown | None
    split_steps: dict = field(default_factory=dict)  # split kind -> steps that ran in it
    blas_threads: int | None = None  # numpy's OpenBLAS thread count at the end, if readable


def _format_log_line(step, bd: LossBreakdown, val) -> str:
    val_field = "" if val is None else repr(val)
    return "\t".join([str(step), repr(bd.l_t), repr(bd.l_clm_src), repr(bd.l_clm_tgt),
                      repr(bd.l_mtl), val_field])


def train_loop(model, data: TrainData, train_config: TrainConfig,
               optimizer_config: OptimizerConfig, freeze_spec: FreezeSpec | None = None,
               log_path=None, checkpoint_path=None, resume_from=None,
               meta: dict | None = None) -> TrainResult:
    """Run the configured number of steps (or epochs over the translation
    split). Every step consumes one parallel batch, plus one monolingual
    batch per side in the multitask regime; monolingual iterators cycle
    with a reshuffle when exhausted. Metric lines are
    step, l_t, l_clm_src, l_clm_tgt, l_mtl, validation-loss, tab separated.
    Each metric line is appended to ``log_path`` when it is logged. Every
    checkpoint written carries ``meta`` in its header. The result's
    ``split_steps`` counts the steps by the kind of split they ran in (see
    ``step_parts``), listing only kinds that ran.
    """
    freeze_spec = freeze_spec or FreezeSpec.none()
    trainable = apply_freeze(model, freeze_spec)
    optimizer = Adam(trainable, optimizer_config)
    # the frozen set shapes the optimizer state, so it is part of the identity
    fingerprint = config_fingerprint(model.config, _train_identity(train_config, model.multitask),
                                     optimizer_config, {"frozen": sorted(freeze_spec.frozen)})

    step, ckpt = 0, None
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from, expected_fingerprint=fingerprint)
        restore_checkpoint(model, optimizer, ckpt)
        step = ckpt.step

    def batch_stream(name, examples, batch_size, role):  # resumed at the checkpoint's cursor
        return _CyclingBatches(examples, batch_size, data.vocabulary, train_config.max_len,
                               train_config.seed, role, ckpt.cursors[name] if ckpt else None)

    langs = (data.parallel.source_language, data.parallel.target_language)
    streams = {}  # checkpoint cursor name -> batch stream
    if model.multitask:
        missing = [l for l in langs if l not in data.monolingual]
        if missing:
            raise TrainingError(f"multitask training needs monolingual corpora for {missing}")
        for name, lang, role in (("src_mono", langs[0], _ROLE_SRC_MONO),
                                 ("tgt_mono", langs[1], _ROLE_TGT_MONO)):
            streams[name] = batch_stream(name, data.monolingual[lang].split("train"),
                                         train_config.effective_clm_batch_size, role)
    streams["translation"] = batch_stream("translation", data.parallel.split("train"),
                                          train_config.batch_size, _ROLE_TRANSLATION)
    val_batches = validation_batches(data, train_config)  # batched (and warned about) once
    # every cycle of a stream holds all of its examples, so any cycle has the widest batch
    widest = max((_width(b) for batches in [val_batches, *(st._batches for st in streams.values())]
                  for b in batches), default=0)
    if widest > model.config.max_len:
        raise TrainingError(f"batches up to {widest} positions wide exceed the model's max_len "
                            f"{model.config.max_len}; set the training max_len to at most that")
    total_steps = (train_config.steps if train_config.steps is not None
                   else train_config.epochs * len(streams["translation"]._batches))

    def cursors():
        return {name: stream.cursor for name, stream in streams.items()}

    model.train()
    log_lines = []
    last_bd = None
    split_steps = {}
    while step < total_steps:
        drawn = {name: stream.next() for name, stream in streams.items()}
        last_bd = train_step(model, drawn["translation"], drawn.get("src_mono"),
                             drawn.get("tgt_mono"), optimizer, train_config)
        split_steps[last_bd.split] = split_steps.get(last_bd.split, 0) + 1
        step += 1
        if step % train_config.log_interval == 0 or step == total_steps:
            val = validation_loss(model, data, train_config, val_batches)
            line = _format_log_line(step, last_bd, val)
            log_lines.append(line)
            logger.info("step %d: %s", step, line)
            if log_path is not None:
                with open(log_path, "a", encoding="utf-8") as f:
                    f.write(line + "\n")
        # the last step's checkpoint is written once, after the loop
        if (checkpoint_path is not None and train_config.checkpoint_interval is not None
                and step % train_config.checkpoint_interval == 0 and step < total_steps):
            save_checkpoint(checkpoint_path, model, optimizer, fingerprint, step, cursors(), meta)

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, optimizer, fingerprint, step, cursors(), meta)
    return TrainResult(model=model, log_lines=log_lines, steps_run=step, final_loss=last_bd,
                       split_steps=split_steps, blas_threads=blas_threads())
