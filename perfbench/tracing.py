"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of ``minimt`` from outside the
package, so nothing under ``src/minimt`` changes. Each wrapped call records
a span: its name, start, end and the span that was open when it began (the
span that caused it). Spans stay in memory and are written out by ``write``
when the run ends. A few high-frequency facts (``add`` calls, matmul flops,
graph nodes, gradient elements, decoder positions) are kept as counters at
the same boundaries instead of spans.

The benchmark marks each timed operation (a train step, a decoded sentence,
a whole experiment) with ``op_begin``/``op_end``. Every per-layer metric is a
total over the traced rounds divided by the number of traced operations, so
it does not depend on how many rounds fit into a run. Calls that a round
makes outside its operations (``train_loop``'s validation and batching) are
counted too, spread over the round's operations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_now = time.perf_counter

# context spans whose descendants are classified separately
_CONTEXTS = ("op", "decoding.beam_search")

PER_LAYER = [
    # name, unit, better
    ("autodiff.backward_ms", "ms", "lower"),
    ("autodiff.nodes", "count", "lower"),
    ("autodiff.matmul.calls", "count", "lower"),
    ("autodiff.matmul.fwd_ms", "ms", "lower"),
    ("autodiff.matmul.gflop", "GFLOP", "lower"),
    ("autodiff.softmax.fwd_ms", "ms", "lower"),
    ("autodiff.layer_norm.fwd_ms", "ms", "lower"),
    ("autodiff.cross_entropy.fwd_ms", "ms", "lower"),
    ("autodiff.embedding.fwd_ms", "ms", "lower"),
    ("autodiff.add.calls", "count", "lower"),
    ("autodiff.frozen_grad_elems", "count", "lower"),
    ("autodiff.useful_grad_ratio", "ratio", "higher"),
    ("model.encoder_ms", "ms", "lower"),
    ("model.encoder.calls", "count", "lower"),
    ("model.decoder_t_ms", "ms", "lower"),
    ("model.decoder_clm_ms", "ms", "lower"),
    ("training.forward_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.validation_ms", "ms", "lower"),
    ("data.make_batches_ms", "ms", "lower"),
    ("data.make_batches.calls", "count", "lower"),
    ("decoding.model_ms", "ms", "lower"),
    ("decoding.search_ms", "ms", "lower"),
    ("decoding.scorer.calls", "count", "lower"),
    ("decoding.positions_per_token", "count", "lower"),
    ("decoding.candidates_per_step", "count", "lower"),
    ("evaluation.bleu_ms", "ms", "lower"),
    ("experiment.prepare_s", "s", "lower"),
    ("experiment.train_baseline_s", "s", "lower"),
    ("experiment.train_mtl_s", "s", "lower"),
    ("experiment.translate_s", "s", "lower"),
    ("experiment.evaluate_s", "s", "lower"),
    ("experiment.checkpoint_ms", "ms", "lower"),
    ("experiment.checkpoint_loads", "count", "lower"),
    ("experiment.bytes_written", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _bytes_written():
    """Bytes this process has passed to write(2) so far (0 where unknown)."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self.n_ops = 0
        self._stack = []
        self._patches = []
        self._in_op = False
        self._clm_depth = 0
        self._op_bytes = 0

    # --- spans ------------------------------------------------------------------

    def begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_now())
        return i

    def end(self, i):
        self.ends[i] = _now()
        self._stack.pop()

    def op_begin(self):
        self.n_ops += 1
        self._in_op = True
        self._op_bytes = _bytes_written()
        return self.begin("op")

    def op_end(self, i):
        self.end(i)
        self._in_op = False
        self.counts["bytes_written"] += _bytes_written() - self._op_bytes

    def _spanned(self, name, fn):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)

        return wrapper

    # --- wrappers with counters -------------------------------------------------

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self._in_op:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _matmul(self, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def matmul(a, b):
            i = begin("autodiff.matmul")
            try:
                out = fn(a, b)
            finally:
                end(i)
            if self._in_op:
                # 2*m*k*n per product; backward adds one product per input
                # that receives a gradient
                flops = 2 * out.data.size * a.data.shape[-1]
                grads = out.requires_grad and (a.requires_grad + b.requires_grad)
                counts["matmul.flops"] += flops * (1 + grads)
            return out

        return matmul

    def _backward(self, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def backward(root):
            if self._in_op:
                counts["autodiff.nodes"] += _graph_nodes(root)
            i = begin("autodiff.backward")
            try:
                return fn(root)
            finally:
                end(i)

        return backward

    def _decoder(self, fn):
        begin, end = self.begin, self.end

        def decoder_call(decoder, *args, **kwargs):
            i = begin("model.decoder_clm" if self._clm_depth else "model.decoder_t")
            try:
                return fn(decoder, *args, **kwargs)
            finally:
                end(i)

        return decoder_call

    def _clm_logits(self, fn):
        def clm_logits(model, batch):
            self._clm_depth += 1
            try:
                return fn(model, batch)
            finally:
                self._clm_depth -= 1

        return clm_logits

    def _search(self, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def search(step_fn, config):
            def scorer(prefixes):
                i = begin("decoding.scorer")
                try:
                    logprobs = step_fn(prefixes)
                finally:
                    end(i)
                counts["decoding.positions"] += sum(len(p) + 1 for p in prefixes)
                counts["decoding.candidates"] += logprobs.size
                return logprobs

            i = begin("decoding.search")
            try:
                return fn(scorer, config)
            finally:
                end(i)

        return search

    def _beam_search(self, fn):
        begin, end, counts = self.begin, self.end, self.counts

        def beam_search(model, source, config):
            i = begin("decoding.beam_search")
            try:
                hyps = fn(model, source, config)
            finally:
                end(i)
            counts["decoding.tokens"] += len(hyps[0].tokens)
            return hyps

        return beam_search

    def _train_stage(self, fn):
        begin, end = self.begin, self.end

        def train(runner, direction, regime):
            i = begin(f"experiment.train_{regime}")
            try:
                return fn(runner, direction, regime)
            finally:
                end(i)

        return train

    def count_grads(self, model, optimizer):
        """Gradient elements computed in the last step: all parameters vs
        the ones the optimizer updates."""
        updated = {id(t) for _, t in optimizer.params}
        for _, p in model.named_parameters():
            if p.grad is not None:
                self.counts["grad_elems"] += p.grad.size
                if id(p) not in updated:
                    self.counts["frozen_grad_elems"] += p.grad.size

    # --- patching ---------------------------------------------------------------

    def _patch_function(self, module, name, wrap):
        """Replace ``module.name`` in every minimt module that bound it."""
        original = getattr(module, name)
        new = wrap(original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("minimt") and mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, new)

    def _patch_method(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def install(self):
        from minimt import autodiff, data, decoding, evaluation, experiment, model, training

        span = self._spanned
        for op in ("softmax", "layer_norm", "cross_entropy", "embedding"):
            self._patch_function(autodiff, op, lambda fn, op=op: span(f"autodiff.{op}", fn))
        self._patch_function(autodiff, "matmul", self._matmul)
        self._patch_function(autodiff, "add", lambda fn: self._counted("autodiff.add.calls", fn))
        self._patch_function(autodiff, "backward", self._backward)
        self._patch_method(model.Encoder, "__call__", lambda fn: span("model.encoder", fn))
        self._patch_method(model.Decoder, "__call__", self._decoder)
        self._patch_method(model.MtlModel, "clm_logits", self._clm_logits)
        self._patch_function(training, "compute_losses",
                             lambda fn: span("training.compute_losses", fn))
        self._patch_function(training, "validation_loss",
                             lambda fn: span("training.validation_loss", fn))
        self._patch_method(training.Adam, "step", lambda fn: span("training.adam_step", fn))
        self._patch_function(training, "save_checkpoint",
                             lambda fn: span("training.save_checkpoint", fn))
        self._patch_function(training, "load_checkpoint",
                             lambda fn: span("training.load_checkpoint", fn))
        self._patch_function(data, "make_batches", lambda fn: span("data.make_batches", fn))
        self._patch_function(decoding, "beam_search", self._beam_search)
        self._patch_function(decoding, "search", self._search)
        self._patch_function(evaluation, "corpus_bleu",
                             lambda fn: span("evaluation.corpus_bleu", fn))
        runner = experiment.ExperimentRunner
        for stage in ("prepare", "translate", "evaluate"):
            self._patch_method(runner, stage, lambda fn, s=stage: span(f"experiment.{s}", fn))
        self._patch_method(runner, "train", self._train_stage)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # --- results ----------------------------------------------------------------

    def _aggregate(self):
        """Per span name: inclusive and self seconds, split by whether the
        span ran inside an operation and inside a beam search."""
        names, parents = self.names, self.parents
        n = len(names)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * n
        context = [0] * n  # bit 0: inside an op, bit 1: inside a beam search
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += durations[i]
                context[i] = context[p]
                if names[p] in _CONTEXTS:
                    context[i] |= 1 << _CONTEXTS.index(names[p])
        total = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        for i in range(n):
            key = (names[i], context[i])
            total[key] += durations[i]
            calls[key] += 1
            self_time[names[i]] += durations[i] - child_time[i]
        return total, calls, self_time

    def per_layer(self, overhead_pct):
        total, calls, _ = self._aggregate()
        ops = max(self.n_ops, 1)
        counts = self.counts

        def in_op(name):
            return sum(v for (k, ctx), v in total.items() if k == name and ctx & 1)

        def anywhere(name):
            return sum(v for (k, _), v in total.items() if k == name)

        def n_in_op(name):
            return sum(v for (k, ctx), v in calls.items() if k == name and ctx & 1)

        model_in_beam = sum(v for (k, ctx), v in total.items()
                            if k in ("model.encoder", "model.decoder_t") and ctx & 2)
        scorer_calls = n_in_op("decoding.scorer")
        grad_elems = counts["grad_elems"]
        metrics = {
            "autodiff.backward_ms": 1e3 * in_op("autodiff.backward") / ops,
            "autodiff.nodes": counts["autodiff.nodes"] / ops,
            "autodiff.matmul.calls": n_in_op("autodiff.matmul") / ops,
            "autodiff.matmul.fwd_ms": 1e3 * in_op("autodiff.matmul") / ops,
            "autodiff.matmul.gflop": counts["matmul.flops"] / 1e9 / ops,
            "autodiff.softmax.fwd_ms": 1e3 * in_op("autodiff.softmax") / ops,
            "autodiff.layer_norm.fwd_ms": 1e3 * in_op("autodiff.layer_norm") / ops,
            "autodiff.cross_entropy.fwd_ms": 1e3 * in_op("autodiff.cross_entropy") / ops,
            "autodiff.embedding.fwd_ms": 1e3 * in_op("autodiff.embedding") / ops,
            "autodiff.add.calls": counts["autodiff.add.calls"] / ops,
            "autodiff.frozen_grad_elems": counts["frozen_grad_elems"] / ops,
            "autodiff.useful_grad_ratio":
                (grad_elems - counts["frozen_grad_elems"]) / grad_elems if grad_elems else 0.0,
            "model.encoder_ms": 1e3 * in_op("model.encoder") / ops,
            "model.encoder.calls": n_in_op("model.encoder") / ops,
            "model.decoder_t_ms": 1e3 * in_op("model.decoder_t") / ops,
            "model.decoder_clm_ms": 1e3 * in_op("model.decoder_clm") / ops,
            "training.forward_ms": 1e3 * in_op("training.compute_losses") / ops,
            "training.adam_ms": 1e3 * in_op("training.adam_step") / ops,
            "training.validation_ms": 1e3 * anywhere("training.validation_loss") / ops,
            "data.make_batches_ms": 1e3 * anywhere("data.make_batches") / ops,
            "data.make_batches.calls": sum(v for (k, _), v in calls.items()
                                           if k == "data.make_batches") / ops,
            "decoding.model_ms": 1e3 * model_in_beam / ops,
            "decoding.search_ms": 1e3 * (in_op("decoding.beam_search") - model_in_beam) / ops,
            "decoding.scorer.calls": scorer_calls / ops,
            "decoding.positions_per_token":
                counts["decoding.positions"] / counts["decoding.tokens"]
                if counts["decoding.tokens"] else 0.0,
            "decoding.candidates_per_step":
                counts["decoding.candidates"] / scorer_calls if scorer_calls else 0.0,
            "evaluation.bleu_ms": 1e3 * anywhere("evaluation.corpus_bleu") / ops,
            "experiment.prepare_s": in_op("experiment.prepare") / ops,
            "experiment.train_baseline_s": in_op("experiment.train_baseline") / ops,
            "experiment.train_mtl_s": in_op("experiment.train_mtl") / ops,
            "experiment.translate_s": in_op("experiment.translate") / ops,
            "experiment.evaluate_s": in_op("experiment.evaluate") / ops,
            "experiment.checkpoint_ms": 1e3 * (in_op("training.save_checkpoint")
                                               + in_op("training.load_checkpoint")) / ops,
            "experiment.checkpoint_loads": n_in_op("training.load_checkpoint") / ops,
            "experiment.bytes_written": counts["bytes_written"] / ops,
            "trace.overhead_pct": overhead_pct,
        }
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def write(self, path):
        """Write every span (TSV) and a per-name summary with self time (JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with open(path.with_suffix(".tsv"), "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, (name, s, e, p) in enumerate(zip(self.names, self.starts, self.ends,
                                                    self.parents)):
                f.write(f"{i}\t{p}\t{name}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")
        total, calls, self_time = self._aggregate()
        summary = defaultdict(lambda: {"calls": 0, "total_ms": 0.0})
        for (name, _), v in total.items():
            summary[name]["total_ms"] += 1e3 * v
        for (name, _), v in calls.items():
            summary[name]["calls"] += v
        for name, v in self_time.items():
            summary[name]["self_ms"] = 1e3 * v
        payload = {"ops": self.n_ops, "counters": dict(self.counts),
                   "spans": dict(sorted(summary.items(), key=lambda kv: -kv[1]["self_ms"]))}
        path.with_suffix(".json").write_text(json.dumps(payload, indent=1) + "\n")


def _graph_nodes(root):
    """Number of recorded op nodes reachable from ``root``."""
    seen = set()
    stack = [root]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward_fn is not None:
            nodes += 1
            stack.extend(t._children)
    return nodes
