"""Smoothed BLEU (cumulative 4-gram, smoothing method 4) and the
baseline-vs-multitask comparison report.

Scores are kept in [0, 1]; the conventional x100 presentation happens only
at rendering. Single reference per hypothesis. Every score is ``_score`` of
the additive per-pair statistic from ``ngram_precisions``: one pair's, a
corpus's sum (smoothing fires once, on the totals) or, for macro, each's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


class EvaluationError(ValueError):
    pass


@dataclass
class NgramPrecisionSet:
    """The BLEU statistic of one (hypothesis, reference) pair, or the sum of
    several: clipped matched counts and hypothesis n-gram counts for
    n = 1..max_n, and the hypothesis and reference lengths."""

    numerators: list
    denominators: list
    hyp_len: int
    ref_len: int

    def __add__(self, other: NgramPrecisionSet) -> NgramPrecisionSet:
        return NgramPrecisionSet([a + b for a, b in zip(self.numerators, other.numerators)],
                                 [a + b for a, b in zip(self.denominators, other.denominators)],
                                 self.hyp_len + other.hyp_len, self.ref_len + other.ref_len)

    @property
    def empty_hypothesis(self) -> bool:
        return self.hyp_len == 0


@dataclass
class BleuReport:
    bleu: float
    raw_precisions: list        # (numerator, denominator) pairs
    smoothed_precisions: list   # floats after smoothing method 4
    brevity_penalty: float
    hyp_len: int
    ref_len: int
    note: str = ""

    def render(self) -> str:
        precisions = "/".join(f"{p * 100:.1f}" for p in self.smoothed_precisions)
        line = (f"BLEU = {self.bleu * 100:.2f}  precisions {precisions}  "
                f"BP = {self.brevity_penalty:.4f}  hyp_len = {self.hyp_len}  ref_len = {self.ref_len}")
        return line + (f"  ({self.note})" if self.note else "")


def check_bleu_settings(max_n, smoothing_k) -> None:
    """Reject a ``max_n`` below 1 or a ``smoothing_k`` of 0 (the scorer
    divides by both) and a negative ``smoothing_k`` (a negative precision)."""
    if not max_n >= 1:
        raise EvaluationError(f"max_n must be >= 1, got {max_n}")
    if not (math.isfinite(smoothing_k) and smoothing_k > 0):
        raise EvaluationError(f"smoothing_k must be finite and > 0, got {smoothing_k}")


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def ngram_precisions(hypothesis, reference, max_n: int = 4) -> NgramPrecisionSet:
    """One pair's statistic. Each hypothesis n-gram matches at most as many
    times as it occurs in the reference, which must be non-empty."""
    hypothesis, reference = list(hypothesis), list(reference)
    if not reference:
        raise EvaluationError("reference must be non-empty")
    numerators, denominators = [], []
    for n in range(1, max_n + 1):
        hyp_counts = _ngram_counts(hypothesis, n)
        ref_counts = _ngram_counts(reference, n)
        clipped = sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        numerators.append(clipped)
        denominators.append(max(0, len(hypothesis) - n + 1))
    return NgramPrecisionSet(numerators, denominators, len(hypothesis), len(reference))


def smooth_method4(stats: NgramPrecisionSet, k: float = 5) -> list:
    """Replace zero numerators with ln(hyp_len)/(2^c k) over the denominator,
    c counting up from 1 per zero order; nonzero orders pass through.

    A zero-denominator order (hypothesis shorter than n) uses denominator 1,
    matching the reference scorer's clamp. With hyp_len <= 1 zeros stay zero
    and the score is 0.
    """
    out = []
    c = 1
    for num, den in zip(stats.numerators, stats.denominators):
        effective_den = max(1, den)
        if num == 0 and stats.hyp_len > 1:
            out.append((math.log(stats.hyp_len) / (2 ** c * k)) / effective_den)
            c += 1
        else:
            out.append(num / effective_den)
    return out


def _brevity_penalty(hyp_len: int, ref_len: int) -> float:
    if hyp_len > ref_len:
        return 1.0
    if hyp_len == 0:
        return 0.0
    return math.exp(1.0 - ref_len / hyp_len)


def _score(stats: NgramPrecisionSet, k: float) -> BleuReport:
    """The geometric mean of the smoothed precisions times the brevity penalty."""
    smoothed = smooth_method4(stats, k)
    bp = _brevity_penalty(stats.hyp_len, stats.ref_len)
    bleu, note = 0.0, ""
    if stats.empty_hypothesis:
        note = "empty hypothesis"
    elif any(p == 0 for p in smoothed):
        note = "zero precision survived smoothing"
    else:
        bleu = bp * math.exp(math.fsum(math.log(p) for p in smoothed) / len(smoothed))
    return BleuReport(bleu, list(zip(stats.numerators, stats.denominators)), smoothed,
                      bp, stats.hyp_len, stats.ref_len, note=note)


def sentence_bleu(hypothesis, reference, max_n: int = 4, k: float = 5) -> BleuReport:
    """The score of one pair's statistic."""
    check_bleu_settings(max_n, k)
    return _score(ngram_precisions(hypothesis, reference, max_n), k)


def corpus_bleu(pairs, max_n: int = 4, k: float = 5, macro: bool = False) -> BleuReport:
    """Corpus score over (hypothesis, reference) pairs.

    Micro-averaged by default: the score of the sum of the pairs'
    statistics, so smoothing fires once on the totals. ``macro=True``
    instead averages the per-pair scores, as a diagnostic.
    """
    check_bleu_settings(max_n, k)
    stats = [ngram_precisions(h, r, max_n) for h, r in pairs]
    if not stats:
        raise EvaluationError("corpus_bleu needs at least one pair")
    total = sum(stats[1:], stats[0])
    if macro:
        mean = sum(_score(s, k).bleu for s in stats) / len(stats)
        return BleuReport(mean, [], [], 0.0, total.hyp_len, total.ref_len,
                          note="macro average of sentence scores")
    return _score(total, k)


@dataclass
class ComparisonRow:
    direction: str
    baseline: float
    mtl: float

    @property
    def delta(self) -> float:
        return self.mtl - self.baseline

    @property
    def relative(self) -> float:
        """Relative improvement (mtl - baseline) / baseline; inf-safe."""
        if self.baseline == 0:
            return math.inf if self.mtl > 0 else 0.0
        return (self.mtl - self.baseline) / self.baseline


@dataclass
class ComparisonReport:
    rows: list = field(default_factory=list)

    def render_table(self, scale: float = 1.0) -> str:
        """Aligned text table; pass scale=100 to present [0,1] scores the
        conventional way."""
        header = ("direction", "baseline", "MTL", "delta", "relative")
        body = [(r.direction, f"{r.baseline * scale:.2f}", f"{r.mtl * scale:.2f}",
                 f"{r.delta * scale:+.2f}", f"{r.relative * 100:+.2f}%") for r in self.rows]
        widths = [max(len(row[i]) for row in [header, *body]) for i in range(5)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def render_rows(self, scale: float = 1.0) -> str:
        """Machine-readable tab-separated rows."""
        return "\n".join(
            f"{r.direction}\t{r.baseline * scale!r}\t{r.mtl * scale!r}"
            f"\t{r.delta * scale!r}\t{r.relative!r}"
            for r in self.rows
        )


def compare_report(baseline_scores: dict, mtl_scores: dict, directions=None) -> ComparisonReport:
    """Pair up per-direction scores from the two regimes."""
    if directions is None:
        directions = list(baseline_scores)
    missing_b = [d for d in directions if d not in baseline_scores]
    missing_m = [d for d in directions if d not in mtl_scores]
    if missing_b or missing_m:
        raise EvaluationError(
            f"direction keys missing: baseline lacks {missing_b}, mtl lacks {missing_m}")
    return ComparisonReport([ComparisonRow(d, baseline_scores[d], mtl_scores[d])
                             for d in directions])
