"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a computation made apart
from the code path that produced it, or with a property of the method; none
compares with a stored copy of earlier output. Each returns a list of
failure messages, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from minimt.autodiff import backward, no_grad, zero_grads
from minimt.data import ParallelBatch
from minimt.training import compute_losses

# The central difference is exact to about 1e-11 on smooth stretches, but a
# ReLU whose input lies within h of zero bends the loss inside the stencil.
# That error shrinks with h and does not shrink with the derivative: on a
# direction nearly orthogonal to the gradient (derivative 5e-5 of the
# gradient's norm) it was 1.5e-3 of the derivative at h=1e-5 and 7e-6 at
# h=1e-6, where rounding is still below 1e-9 of the gradient's norm.
GRAD_STEP = 1e-6
# relative to the directional derivative, or to its root mean square over
# random unit directions, |grad| / sqrt(n), where that is larger
GRAD_TOLERANCE = 1e-3
LOGPROB_TOLERANCE = 1e-9   # absolute, on a hypothesis's summed log-probability
BLEU_TOLERANCE = 1e-9      # absolute, on a [0, 1] score


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- training ---------------------------------------------------------------


def directional_derivative(model, batches, names, seed, h=GRAD_STEP):
    """The loss's derivative along a unit-norm random direction over the
    parameters ``names``: (autodiff, central difference of the no-grad loss,
    the autodiff derivative's root mean square over all unit directions).

    ``batches`` are the (parallel, src mono, tgt mono) arguments of one
    training step. Parameters are restored bit for bit afterwards.
    """
    params = model.param_dict()
    rng = np.random.default_rng([seed, 0xD1])
    direction = {n: rng.standard_normal(params[n].data.shape) for n in names}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    for d in direction.values():
        d /= norm

    zero_grads(model.parameters())
    backward(compute_losses(model, *batches).loss)
    grads = [(params[n].grad, d) for n, d in direction.items() if params[n].grad is not None]
    analytic = math.fsum(float((g * d).sum()) for g, d in grads)
    size = sum(d.size for d in direction.values())
    typical = math.sqrt(math.fsum(float((g * g).sum()) for g, _ in grads) / size)
    zero_grads(model.parameters())

    saved = {n: params[n].data.copy() for n in direction}

    def loss_at(step):
        for n, d in direction.items():
            params[n].data[...] = saved[n] + step * d
        with no_grad():
            return float(compute_losses(model, *batches).loss.data)

    try:
        numeric = (loss_at(h) - loss_at(-h)) / (2 * h)
    finally:
        for n, arr in saved.items():
            params[n].data[...] = arr
    return analytic, numeric, typical


def check_gradient(label, analytic, numeric, typical):
    scale = max(abs(analytic), abs(numeric), typical)
    if abs(analytic - numeric) <= GRAD_TOLERANCE * scale + 1e-9:
        return []
    return [f"{label}: autodiff directional derivative {analytic!r} vs central difference "
            f"{numeric!r} (tolerance {GRAD_TOLERANCE:g} of {scale!r})"]


def check_parameters(before, after, frozen):
    """Frozen parameters are bit-identical; every other one moved."""
    failures = []
    for name, old in before.items():
        same = np.array_equal(old, after[name])
        if name in frozen and not same:
            failures.append(f"frozen parameter {name} changed")
        elif name not in frozen and same:
            failures.append(f"trainable parameter {name} did not move")
    return failures


def check_losses(steps, log_lines):
    """``steps`` holds (l_t, l_clm_src, l_clm_tgt, root) per timed step,
    where root is the value that was backpropagated; ``log_lines`` are the
    metric lines train_loop returned."""
    failures = []
    if not steps:
        return ["no training step was recorded"]
    for i, (l_t, l_src, l_tgt, root) in enumerate(steps):
        if not all(math.isfinite(v) for v in (l_t, l_src, l_tgt, root)):
            failures.append(f"step {i}: non-finite loss {(l_t, l_src, l_tgt, root)}")
        elif not _close(root, l_t + l_src + l_tgt, 1e-12):
            failures.append(f"step {i}: backpropagated loss {root!r} != l_t + l_clm_src + "
                            f"l_clm_tgt = {l_t + l_src + l_tgt!r}")
    for line in log_lines:
        _, l_t, l_src, l_tgt, l_mtl = (float(v) for v in line.split("\t")[:5])
        if not _close(l_mtl, l_t + l_src + l_tgt, 1e-12):
            failures.append(f"logged l_mtl {l_mtl!r} != l_t + l_clm_src + l_clm_tgt in {line!r}")
    if not steps[-1][0] < steps[0][0]:
        failures.append(f"final translation loss {steps[-1][0]!r} is not below the first "
                        f"{steps[0][0]!r}")
    return failures


# --- decoding ---------------------------------------------------------------


def _penalty(length, alpha, form):
    return ((5.0 + length) / 6.0) ** alpha if form == "gnmt" else float(length) ** alpha


def check_hypotheses(model, source, hyps, config, pad_id):
    """Rescore every hypothesis teacher-forced in one full forward pass and
    recompute its score; check how each ends and the ranking."""
    failures = []
    if not hyps:
        return ["beam search returned no hypothesis"]
    src = np.asarray([source], dtype=np.int64)
    for rank, h in enumerate(hyps):
        tokens = list(h.tokens)
        if not 1 <= len(tokens) <= config.max_decode_len:
            failures.append(f"hypothesis {rank}: length {len(tokens)} outside "
                            f"[1, {config.max_decode_len}]")
            continue
        if tokens[-1] != config.eos_id and len(tokens) != config.max_decode_len:
            failures.append(f"hypothesis {rank} ends in {tokens[-1]} before the length cap "
                            f"without EOS")
        tgt_in = np.asarray([[config.start_id] + tokens[:-1]], dtype=np.int64)
        labels = np.asarray([tokens], dtype=np.int64)
        batch = ParallelBatch(src, np.ones(src.shape), tgt_in, labels, np.ones(labels.shape),
                              "", "", pad_id)
        with no_grad():
            logits = model.translation_logits(batch).data[0]
        peak = logits.max(axis=-1, keepdims=True)
        logp = logits - (np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True)) + peak)
        rescored = math.fsum(logp[np.arange(len(tokens)), tokens])
        if not abs(rescored - h.logprob_sum) <= LOGPROB_TOLERANCE:
            failures.append(f"hypothesis {rank}: logprob_sum {h.logprob_sum!r} vs "
                            f"teacher-forced {rescored!r}")
        score = h.logprob_sum / _penalty(len(tokens), config.length_penalty, config.penalty_form)
        if not _close(score, h.score, 1e-12):
            failures.append(f"hypothesis {rank}: score {h.score!r} vs recomputed {score!r}")
    scores = [h.score for h in hyps]
    if any(a < b for a, b in zip(scores, scores[1:])):
        failures.append(f"hypotheses are not ranked by score: {scores}")
    return failures


# --- experiment -------------------------------------------------------------


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu_m4(pairs, max_n=4, k=5.0):
    """Corpus BLEU with smoothing method 4 (Chen and Cherry, 2014): clipped
    n-gram counts summed over the corpus; an order with no match gets
    1 / (2^c * k / ln(hyp_len)) in place of its numerator, c counting the
    zero orders from 1; geometric mean times the brevity penalty."""
    matches, totals = [0] * max_n, [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            matches[n - 1] += sum((_ngrams(hyp, n) & _ngrams(ref, n)).values())
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0:
        return 0.0
    precisions, c = [], 1
    for m, t in zip(matches, totals):
        if m == 0 and hyp_len > 1:
            precisions.append(1.0 / (2 ** c * k / math.log(hyp_len)) / max(1, t))
            c += 1
        else:
            precisions.append(m / max(1, t))
    if min(precisions) == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / max_n)


REGIMES = ("baseline", "mtl")
RUN_FILES = ("checkpoint.npz", "metrics.tsv", "hypotheses.txt", "references.txt", "bleu.json")


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def check_experiment(out):
    """Artifacts of one finished ``minimt experiment`` under ``out``."""
    out = Path(out)
    failures = []
    top = ["config.json", "manifest.json", "vocab.txt", "report.txt", "report.tsv",
           "manifests/parallel.json"]
    try:
        config = json.loads((out / "config.json").read_text())
    except (OSError, ValueError) as e:
        return [f"config.json unreadable: {e}"]
    data, ev = config["data"], config["evaluation"]
    top += [f"manifests/mono_{lang}.json" for lang in sorted(data["mono_files"])]
    run_dirs = {(d, r): out / d.replace("->", "-") / r
                for d in config["directions"] for r in REGIMES}
    expected = [out / f for f in top] + [p / f for p in run_dirs.values() for f in RUN_FILES]
    missing = [str(p.relative_to(out)) for p in expected if not p.is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    if ev["aggregate"] != "corpus":
        return [f"evaluation.aggregate {ev['aggregate']!r} is not checked"]

    test_idx = json.loads((out / "manifests/parallel.json").read_text())["indices"]["test"]
    corpora = {data["src_lang"]: _lines(data["parallel_src_file"]),
               data["tgt_lang"]: _lines(data["parallel_tgt_file"])}
    scores = {}
    for (direction, regime), run in run_dirs.items():
        tgt_lang = direction.partition("->")[2]
        refs = _lines(run / "references.txt")
        hyps = _lines(run / "hypotheses.txt")
        expected_refs = [" ".join(corpora[tgt_lang][i].split()) for i in test_idx]
        if refs != expected_refs:
            failures.append(f"{direction}/{regime}: references.txt differs from the test split "
                            f"named in manifests/parallel.json")
        if len(hyps) != len(refs):
            failures.append(f"{direction}/{regime}: {len(hyps)} hypotheses for {len(refs)} "
                            f"references")
            continue
        stored = json.loads((run / "bleu.json").read_text())["bleu"]
        recomputed = corpus_bleu_m4([(h.split(), r.split()) for h, r in zip(hyps, refs)],
                                    max_n=ev["max_n"], k=ev["smoothing_k"])
        if not abs(stored - recomputed) <= BLEU_TOLERANCE:
            failures.append(f"{direction}/{regime}: bleu.json {stored!r} vs recomputed "
                            f"{recomputed!r}")
        scores[direction, regime] = stored

    rows = [line.split("\t") for line in _lines(out / "report.tsv") if line]
    if [r[0] for r in rows] != config["directions"]:
        failures.append(f"report.tsv directions {[r[0] for r in rows]} != "
                        f"{config['directions']}")
    for direction, baseline, mtl, delta, _ in rows:
        baseline, mtl, delta = float(baseline), float(mtl), float(delta)
        for regime, value in (("baseline", baseline), ("mtl", mtl)):
            bleu = scores.get((direction, regime))
            if bleu is not None and not abs(value - 100 * bleu) <= 100 * BLEU_TOLERANCE:
                failures.append(f"report.tsv {direction} {regime} {value!r} != 100 x bleu.json "
                                f"{bleu!r}")
        if not abs(delta - (mtl - baseline)) <= 100 * BLEU_TOLERANCE:
            failures.append(f"report.tsv {direction}: delta {delta!r} != MTL - baseline "
                            f"{mtl - baseline!r}")
    return failures
