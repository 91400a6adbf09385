"""Autoregressive inference: greedy and beam-search decoding with
length-penalty normalization.

Candidates compete on raw summed log-probability during the search (the
penalty applies to the final ranking and the stopping bound); setting
``penalize_during_search`` moves the penalty into pruning as well. Ties
break toward the lower token id everywhere, so decoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from minimt.autodiff import Tensor, no_grad
from minimt.data import TokenSequence


@dataclass
class DecodeConfig:
    eos_id: int
    start_id: int
    beam_size: int = 2
    length_penalty: float = 1.2
    max_decode_len: int = 32
    penalty_form: str = "pow"  # "pow": len^alpha, "gnmt": ((5+len)/6)^alpha
    penalize_during_search: bool = False

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ValueError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if self.penalty_form not in ("pow", "gnmt"):
            raise ValueError(f"unknown penalty form {self.penalty_form!r}")


@dataclass
class Hypothesis:
    """Generated ids (start token excluded, EOS included when emitted),
    their summed log-probability, and the length-penalized score."""

    tokens: tuple
    logprob_sum: float
    score: float
    finished: bool


def _divisor(length: int, alpha: float, form: str) -> float:
    if form == "gnmt":
        return ((5.0 + length) / 6.0) ** alpha
    return float(length) ** alpha


def score_hypothesis(logprob_sum: float, length: int, alpha: float, form: str = "pow") -> float:
    """Length-penalized score: logprob_sum / length**alpha (or the GNMT form)."""
    if length < 1:
        raise ValueError(f"hypothesis length must be >= 1, got {length}")
    return logprob_sum / _divisor(length, alpha, form)


def _best_reachable(logprob_sum: float, cur_len: int, config: DecodeConfig) -> float:
    """Optimistic bound on the final score of a live hypothesis: future
    log-probabilities are <= 0, so the sum can only drop, and the divisor is
    monotone in length, so the extremes of the remaining lengths bound it."""
    ends = (cur_len + 1, config.max_decode_len)
    return max(score_hypothesis(logprob_sum, l, config.length_penalty, config.penalty_form)
               for l in ends)


def _finalize(tokens, logprob_sum, config) -> Hypothesis:
    return Hypothesis(
        tokens=tuple(tokens),
        logprob_sum=logprob_sum,
        score=score_hypothesis(logprob_sum, len(tokens), config.length_penalty, config.penalty_form),
        finished=True,
    )


def search(step_fn, config: DecodeConfig) -> list:
    """Beam search over a batched next-token scorer.

    ``step_fn`` maps a list of prefixes (tuples of generated ids, start
    token implied) to an array of next-token log-probabilities, one row per
    prefix. Returns every completed hypothesis, best penalized score first.
    """
    live = [((), 0.0)]  # (tokens, logprob_sum); all live entries share a length
    pool = []
    while live:
        logprobs = step_fn([tokens for tokens, _ in live])
        candidates = []
        for (tokens, total), row in zip(live, logprobs):
            for tok, lp in enumerate(row):
                candidates.append((tokens + (tok,), total + float(lp)))
        if config.penalize_during_search:
            def rank(c):
                return (-score_hypothesis(c[1], len(c[0]), config.length_penalty,
                                          config.penalty_form), c[0])
        else:
            def rank(c):
                return (-c[1], c[0])
        candidates.sort(key=rank)
        kept = candidates[: config.beam_size]

        live = []
        for tokens, total in kept:
            if tokens[-1] == config.eos_id or len(tokens) >= config.max_decode_len:
                pool.append(_finalize(tokens, total, config))
            else:
                live.append((tokens, total))

        if live and len(pool) >= config.beam_size:
            settled = sorted(pool, key=lambda h: (-h.score, h.tokens))[config.beam_size - 1]
            reachable = max(_best_reachable(total, len(tokens), config) for tokens, total in live)
            if settled.score > reachable:
                break

    return sorted(pool, key=lambda h: (-h.score, h.tokens))


def greedy_search(step_fn, config: DecodeConfig) -> Hypothesis:
    """Argmax token each step (ties to the lowest id); stops at EOS or
    max_decode_len."""
    tokens, total = (), 0.0
    while True:
        row = step_fn([tokens])[0]
        tok = int(np.argmax(row))
        tokens += (tok,)
        total += float(row[tok])
        if tok == config.eos_id or len(tokens) >= config.max_decode_len:
            return _finalize(tokens, total, config)


def _translation_stepper(model, source_ids, config: DecodeConfig):
    """Next-token log-probability function over the model's translation path.

    ``source_ids`` is the framed encoder row (language tag + tokens + EOS).
    The full target prefix is re-decoded each step; no state is cached
    beyond the encoder output.
    """
    src = np.asarray(source_ids, dtype=np.int64)[None, :]
    src_mask = np.ones(src.shape, dtype=np.float64)
    with no_grad():
        enc = model.encode_source(src, src_mask)
    decoder = model.translation_decoder

    def step(prefixes):
        b = len(prefixes)
        ids = np.array([(config.start_id,) + tuple(p) for p in prefixes], dtype=np.int64)
        enc_b = enc if b == 1 else Tensor(np.repeat(enc.data, b, axis=0))
        mask_b = np.repeat(src_mask, b, axis=0)
        with no_grad():
            logits = model._decode(decoder, ids, enc_b, mask_b).data[:, -1, :]
        m = logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m
        return logits - lse

    return step


def _source_ids(source):
    return source.ids if isinstance(source, TokenSequence) else list(source)


def greedy_decode(model, source, config: DecodeConfig) -> Hypothesis:
    with model.eval_mode():
        return greedy_search(_translation_stepper(model, _source_ids(source), config), config)


def beam_search(model, source, config: DecodeConfig) -> list:
    """Ranked completed hypotheses for one framed source row."""
    with model.eval_mode():
        return search(_translation_stepper(model, _source_ids(source), config), config)
