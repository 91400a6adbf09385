"""Autoregressive inference: beam search with length-penalty normalization
(greedy decoding is a beam of one).

``search`` runs over any batched next-token scorer. It ranks all
beam x vocabulary candidates of a step as one array: candidates compete on
raw summed log-probability (the penalty applies to the final ranking and
the stopping bound). Ties break toward the lexicographically smaller token
sequence, so toward the lower token id, and decoding is deterministic.

``beam_search`` scores with the model's translation decoder incrementally:
the source is encoded once, and each step decodes only the newest position
of every live prefix against cached keys and values, as in fairseq's
incremental decoding (Ott et al., 2019).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from minimt.autodiff import no_grad
from minimt.data import TokenSequence
from minimt.model import DecoderCache


@dataclass
class DecodeConfig:
    eos_id: int
    start_id: int
    beam_size: int = 2
    length_penalty: float = 1.2
    max_decode_len: int = 32
    penalty_form: str = "pow"  # "pow": len^alpha, "gnmt": ((5+len)/6)^alpha

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
    live, totals = [()], np.zeros(1)  # all live prefixes share a length
    pool = []
    while live:
        candidates = totals[:, None] + np.asarray(step_fn(live))
        kept = _top_candidates(candidates, live, config.beam_size)
        parents, toks = np.divmod(kept, candidates.shape[1])

        next_live, next_totals = [], []
        for parent, tok, total in zip(parents, toks.tolist(), candidates.ravel()[kept].tolist()):
            tokens = live[parent] + (tok,)
            if tok == config.eos_id or len(tokens) >= config.max_decode_len:
                pool.append(_finalize(tokens, total, config))
            else:
                next_live.append(tokens)
                next_totals.append(total)
        live, totals = next_live, np.array(next_totals)

        if live and len(pool) >= config.beam_size:
            settled = sorted(pool, key=lambda h: (-h.score, h.tokens))[config.beam_size - 1]
            reachable = max(_best_reachable(total, len(tokens), config)
                            for tokens, total in zip(live, next_totals))
            if settled.score > reachable:
                break

    return sorted(pool, key=lambda h: (-h.score, h.tokens))


def _top_candidates(key, live, k):
    """Flat indices (parent * V + token) into the (live, V) array ``key`` of
    its ``k`` best candidates, best first: highest key, ties to the
    lexicographically smaller token tuple, that is the smaller parent prefix
    and then the lower token id."""
    flat = key.ravel()
    k = min(k, flat.size)
    threshold = np.partition(flat, flat.size - k)[flat.size - k]
    tied_or_better = np.flatnonzero(flat >= threshold)  # keeps every tie at the cut
    parents, toks = np.divmod(tied_or_better, key.shape[1])
    parent_rank = np.empty(len(live), dtype=np.int64)
    parent_rank[sorted(range(len(live)), key=live.__getitem__)] = np.arange(len(live))
    order = np.lexsort((toks, parent_rank[parents], -flat[tied_or_better]))
    return tied_or_better[order[:k]]


def greedy_search(step_fn, config: DecodeConfig) -> Hypothesis:
    """Argmax token each step (ties to the lowest id): a beam of one."""
    return search(step_fn, replace(config, beam_size=1))[0]


def _translation_stepper(model, source_ids, config: DecodeConfig):
    """Next-token log-probability function over the model's translation path.

    ``source_ids`` is the framed encoder row (language tag + tokens + EOS).
    The source is encoded, and each decoder layer's cross-attention keys and
    values projected, once. Each call decodes only the newest position of
    every prefix (all prefixes of a call share a length) and projects only
    that position onto the vocabulary. The decoder's self-attention keys and
    values for the previous call's prefixes are kept: a prefix whose parent
    (itself minus its last token) was among them starts from its parent's
    rows, gathered with one index. Any other prefix is first rebuilt from
    the empty cache, one position at a time through the same code, so
    prefixes may come in any order.
    """
    src = np.asarray(source_ids, dtype=np.int64)[None, :]
    src_mask = np.ones(src.shape, dtype=np.float64)
    decoder = model.decoder
    with no_grad():
        empty = DecoderCache(decoder, model.encode_source(src, src_mask))
    kept_rows, kept = {}, empty  # the previous call's prefixes -> their rows in kept

    def step(prefixes):
        nonlocal kept_rows, kept
        prefixes = [tuple(p) for p in prefixes]
        n = len(prefixes[0])
        if any(len(p) != n for p in prefixes):
            raise ValueError("prefixes in one call must share a length")
        framed = np.array([(config.start_id,) + p for p in prefixes], dtype=np.int64)
        parents = [p[:-1] for p in prefixes]
        with no_grad():
            if n and all(q in kept_rows for q in parents):
                cache = kept.select(np.array([kept_rows[q] for q in parents]))
            else:  # replay from the empty cache
                cache = empty.select(None)
                for j in range(n):
                    model._decode(decoder, framed[:, j:j + 1], None, src_mask, cache=cache)
            logits = model._decode(decoder, framed[:, n:], None, src_mask, cache=cache).data
        logits = logits[:, -1, :]
        kept, kept_rows = cache, {p: i for i, p in enumerate(prefixes)}
        m = logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m
        return logits - lse

    return step


def _source_ids(source):
    return source.ids if isinstance(source, TokenSequence) else list(source)


def greedy_decode(model, source, config: DecodeConfig) -> Hypothesis:
    """``beam_search`` with a beam of one."""
    return beam_search(model, source, replace(config, beam_size=1))[0]


def beam_search(model, source, config: DecodeConfig) -> list:
    """Ranked completed hypotheses for one framed source row."""
    with model.eval_mode():
        return search(_translation_stepper(model, _source_ids(source), config), config)
