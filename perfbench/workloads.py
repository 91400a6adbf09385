"""The four benchmark workloads.

Each workload makes its inputs from the seed, hands them to minimt through
its public functions, runs whole rounds of the same operations while the
clock runs, and checks the outputs afterwards (see checks.py). An operation
is one ``train_step`` call (train-*), one decoded source line (decode-beam)
or one whole ``minimt experiment`` (experiment-smoke).
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from minimt import cli, decoding, training
from minimt.data import (
    MonolingualCorpus,
    ParallelCorpus,
    ParallelExample,
    build_vocab,
    encode,
    frame_source,
)
from minimt.experiment import make_preset
from minimt.model import FreezeSpec, ModelConfig, init_params
from minimt.training import OptimizerConfig, TrainConfig, TrainData, train_loop


class Ops:
    """Times every operation; marks it as an ``op`` span while tracing."""

    def __init__(self):
        self.tracer = None
        self.reset()

    def reset(self):
        self.untraced, self.traced = [], []
        self.attempted = self.failed = 0

    def run(self, fn, *args):
        tracer = self.tracer
        self.attempted += 1
        span = tracer.op_begin() if tracer is not None else None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            dt = perf_counter() - t0
            if span is not None:
                tracer.op_end(span)
        (self.untraced if tracer is None else self.traced).append(dt)
        return result


def _label_tokens(batches):
    n = 0
    for b in batches:
        if b is not None:
            labels = b.tgt_labels if hasattr(b, "tgt_labels") else b.labels
            n += int(np.count_nonzero(labels != b.pad_id))
    return n


def _hook_train_step(ops, timed, on_step):
    """Route train_loop's calls to train_step through ``on_step``; each call
    is an operation when ``timed``."""
    inner = training.train_step

    def train_step(model, pb, sb, tb, optimizer, train_config=None):
        args = (model, pb, sb, tb, optimizer, train_config)
        bd = ops.run(inner, *args) if timed else inner(*args)
        on_step(model, (pb, sb, tb), optimizer, bd)
        if ops.tracer is not None:
            ops.tracer.count_grads(model, optimizer)
        return bd

    training.train_step = train_step


# --- inputs -----------------------------------------------------------------


def _language_pair(rng, n_words):
    """Source words and a seeded bijection onto target words."""
    src = [f"ka{i}" for i in range(n_words)]
    return src, {w: f"zo{int(j)}" for w, j in zip(src, rng.permutation(n_words))}


def _sentences(rng, words, n, lo, hi):
    return [" ".join(rng.choice(words, size=int(rng.integers(lo, hi + 1)))) for _ in range(n)]


def _translate(line, mapping):
    """Word-by-word image with adjacent pairs swapped: a learnable toy pair."""
    out = [mapping[w] for w in line.split()]
    for i in range(0, len(out) - 1, 2):
        out[i], out[i + 1] = out[i + 1], out[i]
    return " ".join(out)


def desk_inputs(seed, lo, hi):
    """The desk preset's make-up: 30 word types per language, 200 training
    and 30 validation pairs, 150 monolingual lines per language, sentences of
    ``lo``..``hi`` tokens."""
    rng = np.random.default_rng([seed, 1])
    words, mapping = _language_pair(rng, 30)
    src = _sentences(rng, words, 230, lo, hi)
    tgt = [_translate(line, mapping) for line in src]
    mono_aa = _sentences(rng, words, 150, lo, hi)
    mono_bb = [_translate(line, mapping) for line in _sentences(rng, words, 150, lo, hi)]
    vocab = build_vocab(src + tgt + mono_aa + mono_bb, languages=["aa", "bb"])
    pairs = [ParallelExample(encode(s, vocab, "aa"), encode(t, vocab, "bb"))
             for s, t in zip(src, tgt)]
    parallel = ParallelCorpus("aa", "bb", {"train": pairs[:200], "validation": pairs[200:],
                                           "test": []})
    mono = {lang: MonolingualCorpus(lang, {"train": [encode(line, vocab, lang) for line in lines]})
            for lang, lines in (("aa", mono_aa), ("bb", mono_bb))}
    return TrainData(vocab, parallel, mono)


# --- workloads --------------------------------------------------------------


class TrainWorkload:
    """Rounds of ``train_loop`` on one desk-shape model (d_model 64, 4+4
    layers, batch 16, first half of the encoder frozen, Adam lr 3e-4)."""

    def __init__(self, seed, ops, workdir, multitask, lengths, round_steps):
        self.seed, self.ops = seed, ops
        self.multitask, self.lengths, self.round_steps = multitask, lengths, round_steps
        _hook_train_step(ops, timed=True, on_step=self._on_step)
        self.reset()

    def reset(self):
        self.tokens = self.rounds = 0
        self.steps, self.log_lines = [], []

    def _on_step(self, model, batches, optimizer, bd):
        self.tokens += _label_tokens(batches)
        self.steps.append((bd.l_t, bd.l_clm_src, bd.l_clm_tgt, float(bd.loss.data)))
        self.last_batches = batches

    def _config(self, steps):
        # each round shuffles the data afresh, so a run's steps sample many
        # batch compositions instead of repeating the same few
        return TrainConfig(steps=steps, batch_size=16, max_len=64,
                           seed=self.seed * 100_000 + self.rounds, log_interval=steps)

    def setup(self):
        self.data = desk_inputs(self.seed, *self.lengths)
        config = ModelConfig(vocab_size=len(self.data.vocabulary), seed=self.seed)
        self.model = init_params(config, multitask=self.multitask)
        self.freeze = FreezeSpec.first_half_encoder(self.model)
        self.initial = {n: t.data.copy() for n, t in self.model.named_parameters()}
        self.optimizer = OptimizerConfig(lr=3e-4)
        # warm-up: one step of the first round, so the warm-up step's batches
        # are the first timed step's
        train_loop(self.model, self.data, self._config(1), self.optimizer, self.freeze)

    def _gradient_failures(self, label):
        trainable = [n for n, _ in self.model.named_parameters() if n not in self.freeze.frozen]
        return checks.check_gradient(label, *checks.directional_derivative(
            self.model, self.last_batches, trainable, self.seed))

    def before_timing(self):
        self.failures = self._gradient_failures("first timed step")

    def round(self):
        result = train_loop(self.model, self.data, self._config(self.round_steps),
                            self.optimizer, self.freeze)
        self.rounds += 1
        self.log_lines += result.log_lines

    def check(self):
        failures = self.failures + self._gradient_failures("last timed step")
        after = {n: t.data for n, t in self.model.named_parameters()}
        failures += checks.check_parameters(self.initial, after, self.freeze.frozen)
        return failures + checks.check_losses(self.steps, self.log_lines)


class DecodeWorkload:
    """Beam 4 over about 2000 types, one source line per call as the translate
    stage does, with a seeded untrained desk-shape model."""

    N_WORDS = 1000        # per language; the vocabulary has 2 * N_WORDS + 6 types
    N_LINES = 64
    MAX_DECODE_LEN = 48

    def __init__(self, seed, ops, workdir):
        self.seed, self.ops = seed, ops
        self.reset()

    def reset(self):
        self.tokens = 0
        self.outputs = []

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        words, mapping = _language_pair(rng, self.N_WORDS)
        self.lines = _sentences(rng, words, self.N_LINES, 3, 8)
        vocab = build_vocab([" ".join(words), " ".join(mapping.values()), *self.lines],
                            languages=["aa", "bb"])
        self.vocab = vocab
        config = ModelConfig(vocab_size=len(vocab), seed=self.seed)
        self.model = init_params(config).eval()
        # EOS's tied embedding row at zero puts its logit at the median of the
        # others, so no hypothesis ends before the length cap and every
        # sentence does the same work
        self.model.embedding.data[vocab.eos_id] = 0.0
        self.decode = decoding.DecodeConfig(eos_id=vocab.eos_id, start_id=vocab.lang_id("bb"),
                                            beam_size=4, length_penalty=1.2,
                                            max_decode_len=self.MAX_DECODE_LEN)
        self._translate(self.lines[0])  # warm-up

    def _translate(self, line):
        vocab = self.vocab
        ids = encode(line, vocab, "aa").ids[: self.model.config.max_len - 2]
        source = frame_source(ids, vocab, "aa")
        return source, decoding.beam_search(self.model, source, self.decode)

    def before_timing(self):
        pass

    def round(self):
        source, hyps = self.ops.run(self._translate, self.lines[len(self.outputs) % self.N_LINES])
        self.outputs.append((source, hyps))
        self.tokens += len(hyps[0].tokens)

    def check(self):
        failures = []
        for source, hyps in self.outputs:
            failures += checks.check_hypotheses(self.model, source, hyps, self.decode,
                                                self.vocab.pad_id)
        return failures


class SmokeWorkload:
    """``minimt experiment --preset smoke`` through ``cli.main``, each in a
    fresh output directory so no stage is ever cached."""

    def __init__(self, seed, ops, workdir):
        self.seed, self.ops, self.workdir = seed, ops, Path(workdir)
        _hook_train_step(ops, timed=False, on_step=self._on_step)
        self.reset()

    def reset(self):
        self.tokens = 0
        self.outputs = []

    def _on_step(self, model, batches, optimizer, bd):
        self.tokens += _label_tokens(batches)

    def _fresh_dir(self):
        return Path(tempfile.mkdtemp(prefix="smoke-", dir=self.workdir))

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"minimt {' '.join(argv)} exited with {code}")

    def setup(self):
        # warm-up: the same experiment cut to two training steps per regime
        out = self._fresh_dir()
        payload = make_preset("smoke", out, seed=self.seed).to_dict()
        payload["train"].update(steps=2, log_interval=2)
        (out / "warmup.json").write_text(json.dumps(payload))
        self._main(["experiment", "--config", str(out / "warmup.json")])

    def before_timing(self):
        pass

    def round(self):
        out = self._fresh_dir()
        self.ops.run(self._main, ["experiment", "--preset", "smoke", "--out-dir", str(out),
                                  "--seed", str(self.seed)])
        self.outputs.append(out)

    def check(self):
        failures = []
        for out in self.outputs:
            failures += [f"{out.name}: {f}" for f in checks.check_experiment(out)]
        return failures


WORKLOADS = {
    "train-mtl": lambda seed, ops, workdir: TrainWorkload(
        seed, ops, workdir, multitask=True, lengths=(3, 8), round_steps=20),
    "train-long": lambda seed, ops, workdir: TrainWorkload(
        seed, ops, workdir, multitask=False, lengths=(40, 60), round_steps=8),
    "decode-beam": DecodeWorkload,
    "experiment-smoke": SmokeWorkload,
}
