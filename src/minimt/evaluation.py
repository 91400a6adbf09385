"""Smoothed BLEU (cumulative 4-gram, smoothing method 4) and the
baseline-vs-multitask comparison report.

Scores are kept in [0, 1]; the conventional x100 presentation happens only
at rendering. Single reference per hypothesis; corpus scores micro-average
the clipped counts before smoothing once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field


class EvaluationError(ValueError):
    pass


@dataclass
class NgramPrecisionSet:
    """Clipped matched counts and hypothesis counts for n = 1..max_n."""

    numerators: list
    denominators: list

    @property
    def empty_hypothesis(self) -> bool:
        return self.denominators[0] == 0


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
    """Clipped n-gram precision counts: each hypothesis n-gram matches at
    most as many times as it occurs in the reference."""
    hypothesis, reference = list(hypothesis), list(reference)
    numerators, denominators = [], []
    for n in range(1, max_n + 1):
        hyp_counts = _ngram_counts(hypothesis, n)
        ref_counts = _ngram_counts(reference, n)
        clipped = sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
        numerators.append(clipped)
        denominators.append(max(0, len(hypothesis) - n + 1))
    return NgramPrecisionSet(numerators, denominators)


def smooth_method4(precisions: NgramPrecisionSet, hyp_len: int, k: float = 5) -> list:
    """Replace zero numerators with ln(hyp_len)/(2^c k) over the denominator,
    c counting up from 1 per zero order; nonzero orders pass through.

    A zero-denominator order (hypothesis shorter than n) uses denominator 1,
    matching the reference scorer's clamp. With hyp_len <= 1 zeros stay zero
    and the caller reports bleu = 0.
    """
    if hyp_len < 0:
        raise EvaluationError(f"hyp_len must be >= 0, got {hyp_len}")
    out = []
    c = 1
    for num, den in zip(precisions.numerators, precisions.denominators):
        effective_den = max(1, den)
        if num == 0 and hyp_len > 1:
            out.append((math.log(hyp_len) / (2 ** c * k)) / effective_den)
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


def _assemble(counts: NgramPrecisionSet, hyp_len: int, ref_len: int, max_n: int, k: float,
              note: str = "") -> BleuReport:
    smoothed = smooth_method4(counts, hyp_len, k)
    bp = _brevity_penalty(hyp_len, ref_len)
    if hyp_len == 0:
        return BleuReport(0.0, list(zip(counts.numerators, counts.denominators)), smoothed,
                          bp, hyp_len, ref_len, note="empty hypothesis")
    if any(p == 0 for p in smoothed):
        bleu = 0.0
        note = note or "zero precision survived smoothing"
    else:
        bleu = bp * math.exp(math.fsum(math.log(p) for p in smoothed) / max_n)
    return BleuReport(bleu, list(zip(counts.numerators, counts.denominators)), smoothed,
                      bp, hyp_len, ref_len, note=note)


def sentence_bleu(hypothesis, reference, max_n: int = 4, k: float = 5) -> BleuReport:
    """Geometric mean of the smoothed precisions times the brevity penalty."""
    check_bleu_settings(max_n, k)
    if not list(reference):
        raise EvaluationError("reference must be non-empty")
    counts = ngram_precisions(hypothesis, reference, max_n)
    return _assemble(counts, len(list(hypothesis)), len(list(reference)), max_n, k)


def corpus_bleu(pairs, max_n: int = 4, k: float = 5, macro: bool = False) -> BleuReport:
    """Corpus score over (hypothesis, reference) pairs.

    Micro-averaged by default: counts and lengths are summed over the corpus
    and smoothing fires once on the totals. ``macro=True`` instead averages
    per-sentence scores, as a diagnostic.
    """
    check_bleu_settings(max_n, k)
    pairs = list(pairs)
    if not pairs:
        raise EvaluationError("corpus_bleu needs at least one pair")
    if macro:
        reports = [sentence_bleu(h, r, max_n, k) for h, r in pairs]
        mean = sum(r.bleu for r in reports) / len(reports)
        return BleuReport(mean, [], [], 0.0, sum(r.hyp_len for r in reports),
                          sum(r.ref_len for r in reports), note="macro average of sentence scores")
    totals = NgramPrecisionSet([0] * max_n, [0] * max_n)
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        if not list(ref):
            raise EvaluationError("reference must be non-empty")
        counts = ngram_precisions(hyp, ref, max_n)
        for i in range(max_n):
            totals.numerators[i] += counts.numerators[i]
            totals.denominators[i] += counts.denominators[i]
        hyp_len += len(list(hyp))
        ref_len += len(list(ref))
    return _assemble(totals, hyp_len, ref_len, max_n, k)


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
