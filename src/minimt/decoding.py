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
incremental decoding (Ott et al., 2019). ``beam_search_batch`` runs the
same search over many sources at once (``search_batch``): their live
prefixes share each decoder step, and a source leaves the batch once it is
settled. ``search`` and ``beam_search`` are its one-source calls.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from minimt.autodiff import no_grad
from minimt.data import pad_rows
from minimt.model import DecoderCache


@dataclass
class DecodeSection:
    """A config's decode section; ``DecodeConfig`` adds the derived ids."""

    beam_size: int = 2
    length_penalty: float = 1.2
    max_decode_len: int = 32
    penalty_form: str = "pow"  # "pow": len^alpha, "gnmt": ((5+len)/6)^alpha

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ValueError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if not np.isfinite(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty}")
        if self.penalty_form not in ("pow", "gnmt"):
            raise ValueError(f"penalty_form must be 'pow' or 'gnmt', got {self.penalty_form!r}")


@dataclass
class DecodeConfig(DecodeSection):
    _: KW_ONLY
    eos_id: int
    start_id: int


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
    return search_batch(lambda sources, prefixes: step_fn(prefixes), 1, config)[0]


def search_batch(step_fn, n_sources: int, config: DecodeConfig) -> list:
    """Beam search for ``n_sources`` sources at once, each ranked and stopped
    as if it were searched alone.

    Each call ``step_fn(sources, prefixes)`` scores the live prefixes of
    every unsettled source together: ``sources`` is an int array giving the
    source of each prefix, and the rows are grouped by source in ascending
    order. A settled source's rows leave the calls. Returns, per source,
    every completed hypothesis, best penalized score first.
    """
    beams = {s: ([()], np.zeros(1)) for s in range(n_sources)}  # live prefixes and their totals
    pools = [[] for _ in range(n_sources)]
    while beams:
        sources = np.repeat(np.array(list(beams), dtype=np.int64),
                            [len(live) for live, _ in beams.values()])
        logprobs = np.asarray(step_fn(sources, [p for live, _ in beams.values() for p in live]))
        start = 0
        for s, (live, totals) in list(beams.items()):
            rows = logprobs[start:start + len(live)]
            start += len(live)
            live, totals = _advance(live, totals, rows, pools[s], config)
            if live:
                beams[s] = live, totals
            else:
                del beams[s]
    return [sorted(pool, key=lambda h: (-h.score, h.tokens)) for pool in pools]


def _advance(live, totals, logprobs, pool, config):
    """One step of one source's beam: keep the best ``beam_size`` extensions
    of the ``live`` prefixes (all of one length), move the finished ones to
    ``pool``, and return the others with their totals. None are returned
    once the pool's ``beam_size``-th best beats every live prefix's best
    reachable score."""
    candidates = totals[:, None] + logprobs
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

    if next_live and len(pool) >= config.beam_size:
        settled = sorted(pool, key=lambda h: (-h.score, h.tokens))[config.beam_size - 1]
        reachable = max(_best_reachable(total, len(tokens), config)
                        for tokens, total in zip(next_live, next_totals))
        if settled.score > reachable:
            return [], None
    return next_live, np.array(next_totals)


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
    """``_batch_stepper`` for the one framed source row ``source_ids``, as a
    function of the prefixes alone."""
    step = _batch_stepper(model, [list(source_ids)], config)
    return lambda prefixes: step(np.zeros(len(prefixes), dtype=np.int64), prefixes)


def _batch_stepper(model, sources, config: DecodeConfig):
    """Next-token log-probability function over the model's translation path
    for the framed encoder rows ``sources`` (language tag + tokens + EOS).

    The sources are encoded, and each decoder layer's cross-attention keys
    and values projected, once, as one PAD-masked batch. Each call
    ``step(row_sources, prefixes)`` decodes only the newest position of
    every prefix (all prefixes of a call share a length), each against the
    keys and values of its source ``row_sources[i]``, and projects only
    that position onto the vocabulary. The decoder's self-attention keys
    and values for the previous call's prefixes are kept: a prefix whose
    parent (itself minus its last token, of the same source) was among
    them starts from its parent's rows, gathered with one index. Any other
    prefix is first rebuilt from the empty cache, one position at a time
    through the same code, so prefixes may come in any order.
    """
    src, src_mask = pad_rows(sources, config.eos_id)  # PAD keys are masked: any id pads
    decoder = model.decoder
    with no_grad():
        empty = DecoderCache(decoder, model.encode_source(src, src_mask))
    kept_rows, kept = {}, empty  # the previous call's (source, prefix) -> their rows in kept

    def step(row_sources, prefixes):
        nonlocal kept_rows, kept
        cross_rows = np.asarray(row_sources)
        keys = list(zip(cross_rows.tolist(), (tuple(p) for p in prefixes)))
        n = len(keys[0][1])
        if any(len(p) != n for _, p in keys):
            raise ValueError("prefixes in one call must share a length")
        framed = np.array([(config.start_id,) + p for _, p in keys], dtype=np.int64)
        parents = [(s, p[:-1]) for s, p in keys]
        row_mask = src_mask[cross_rows]
        with no_grad():
            if n and all(q in kept_rows for q in parents):
                cache = kept.select(np.array([kept_rows[q] for q in parents]), cross_rows)
            else:  # replay from the empty cache
                cache = empty.select(None, cross_rows)
                for j in range(n):
                    model._decode(decoder, framed[:, j:j + 1], None, row_mask, cache=cache)
            logits = model._decode(decoder, framed[:, n:], None, row_mask, cache=cache).data
        logits = logits[:, -1, :]
        kept, kept_rows = cache, {k: i for i, k in enumerate(keys)}
        m = logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m
        return logits - lse

    return step


def greedy_decode(model, source, config: DecodeConfig) -> Hypothesis:
    """``beam_search`` with a beam of one."""
    return beam_search(model, source, replace(config, beam_size=1))[0]


def beam_search(model, source, config: DecodeConfig) -> list:
    """Ranked completed hypotheses for one framed source row."""
    with model.eval_mode():
        return search(_translation_stepper(model, source, config), config)


def beam_search_batch(model, sources, config: DecodeConfig) -> list:
    """Ranked completed hypotheses for each of the framed source rows
    ``sources``, from one beam search over all of them (``search_batch``)."""
    if not sources:
        return []
    with model.eval_mode():
        return search_batch(_batch_stepper(model, sources, config), len(sources), config)


# Bytes of decoder keys and values that one chunk of sources may hold. An
# untrained desk-shape model decoding beam 2 to a 24-token cap (2-core x86-64,
# OpenBLAS on one thread) took 35.0 ms a source one source at a time, 9.9 ms
# in chunks of 16 sources (11 MiB by this count), 8.7 ms in chunks of 32
# (22 MiB), 8.0 ms in 64 (44 MiB) and 7.4 ms in 256 (176 MiB): past about
# 32 MiB, memory buys little time.
KV_CACHE_BUDGET = 32 * 2**20


def sources_per_chunk(model_config, config: DecodeConfig) -> int:
    """How many sources ``beam_search_batch`` should take at once: the
    ``KV_CACHE_BUDGET`` over what the ``beam_size`` rows of a source hold
    at most. A row holds, per decoder layer, float64 keys and values of
    ``d_model`` for ``max_decode_len`` target positions and for the
    ``max_len`` source positions it cross-attends to. At least one."""
    row_bytes = (2 * 8 * model_config.n_dec_layers * model_config.d_model
                 * (config.max_decode_len + model_config.max_len))
    return max(1, KV_CACHE_BUDGET // max(1, row_bytes * config.beam_size))
