import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.evaluation import (
    EvaluationError,
    NgramPrecisionSet,
    compare_report,
    corpus_bleu,
    ngram_precisions,
    sentence_bleu,
    smooth_method4,
)

# ---------------------------------------------------------------------------
# Independent oracle: a second implementation built on Fraction/Counter with
# the same published smoothing rule, used only to cross-check the package.


def _oracle_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _oracle_precision(hyp, ref, n):
    counts = _oracle_counts(hyp, n)
    refs = _oracle_counts(ref, n)
    clipped = sum(min(c, refs[g]) for g, c in counts.items())
    total = sum(counts.values())
    return clipped, total


def oracle_bleu(pairs, k=5):
    nums = [0] * 4
    dens = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in pairs:
        for n in range(1, 5):
            clipped, total = _oracle_precision(hyp, ref, n)
            nums[n - 1] += clipped
            dens[n - 1] += total
        hyp_len += len(hyp)
        ref_len += len(ref)
    smoothed = []
    invcnt = 1
    for num, den in zip(nums, dens):
        if num == 0 and hyp_len > 1:
            smoothed.append((1.0 / (2 ** invcnt * k / math.log(hyp_len))) / max(1, den))
            invcnt += 1
        else:
            smoothed.append(num / max(1, den))
    if hyp_len == 0 or any(p == 0 for p in smoothed):
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return bp * math.exp(math.fsum(math.log(p) for p in smoothed) / 4)


# --- ngram precisions --------------------------------------------------------

def test_identical_pair_all_precisions_full():
    toks = "the cat sat on the mat".split()
    p = ngram_precisions(toks, toks)
    assert p.numerators == p.denominators == [6, 5, 4, 3]


def test_hand_counted_precisions():
    p = ngram_precisions("a b x y".split(), "a b c d".split())
    assert list(zip(p.numerators, p.denominators)) == [(2, 4), (1, 3), (0, 2), (0, 1)]


def test_clipping():
    p = ngram_precisions("a a a a".split(), "a b".split())
    assert p.numerators[0] == 1
    assert p.denominators[0] == 4


def test_empty_hypothesis_flagged():
    p = ngram_precisions([], "a b".split())
    assert p.empty_hypothesis
    assert p.denominators == [0, 0, 0, 0]


def test_statistic_carries_both_lengths():
    p = ngram_precisions("a b x".split(), "a b c d e".split())
    assert (p.hyp_len, p.ref_len) == (3, 5)


def test_empty_reference_rejected_by_the_statistic():
    with pytest.raises(EvaluationError, match="reference"):
        ngram_precisions("a".split(), [])


PAIR_LISTS = st.lists(st.tuples(st.lists(st.integers(0, 5), max_size=8),
                                st.lists(st.integers(0, 5), min_size=1, max_size=8)),
                      min_size=1, max_size=8)


@settings(max_examples=60)
@given(PAIR_LISTS, st.data())
def test_statistics_of_a_partition_sum_to_the_whole(pairs, data):
    groups = data.draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    stats = [ngram_precisions(h, r) for h, r in pairs]
    whole = sum(stats[1:], stats[0])
    parts = [[s for s, g in zip(stats, groups) if g == i] for i in range(3)]
    part_sums = [sum(p[1:], p[0]) for p in parts if p]
    assert sum(part_sums[1:], part_sums[0]) == whole
    assert whole == NgramPrecisionSet(
        [sum(s.numerators[i] for s in stats) for i in range(4)],
        [sum(s.denominators[i] for s in stats) for i in range(4)],
        sum(len(h) for h, _ in pairs), sum(len(r) for _, r in pairs))


# --- smoothing method 4 --------------------------------------------------------

def test_smoothing_passthrough_when_no_zeros():
    p = ngram_precisions("a b c d e".split(), "a b c d e".split())
    smoothed = smooth_method4(p)
    assert smoothed == [1.0, 1.0, 1.0, 1.0]


def test_smoothing_fixture_values():
    p = ngram_precisions("a b x y".split(), "a b c d".split())
    smoothed = smooth_method4(p, k=5)
    assert smoothed[0] == pytest.approx(0.5)
    assert smoothed[1] == pytest.approx(1 / 3)
    # first zero order: (ln 4 / (2 * 5)) / 2; second: (ln 4 / (4 * 5)) / 1
    assert smoothed[2] == pytest.approx(math.log(4) / 10 / 2, abs=1e-12)
    assert smoothed[3] == pytest.approx(math.log(4) / 20 / 1, abs=1e-12)
    # the counter increments once per zero order, so both happen to coincide
    assert smoothed[2] == pytest.approx(smoothed[3], abs=1e-15)


def test_smoothing_counter_increments_per_zero_order():
    p = ngram_precisions("a b c".split(), "x y z".split())
    smoothed = smooth_method4(p, k=5)
    ln3 = math.log(3)
    assert smoothed[0] == pytest.approx(ln3 / (2 * 5) / 3)
    assert smoothed[1] == pytest.approx(ln3 / (4 * 5) / 2)
    assert smoothed[2] == pytest.approx(ln3 / (8 * 5) / 1)
    assert smoothed[3] == pytest.approx(ln3 / (16 * 5) / 1)  # denominator 0 clamps to 1


def test_smoothing_stays_zero_for_single_token_hypothesis():
    p = ngram_precisions(["q"], "a b".split())
    assert smooth_method4(p) == [0.0, 0.0, 0.0, 0.0]


# --- sentence_bleu --------------------------------------------------------------

def test_identical_sentence_is_one():
    toks = "w x y z q".split()
    report = sentence_bleu(toks, toks)
    assert report.bleu == 1.0
    assert report.brevity_penalty == 1.0


def test_brevity_penalty_fixture():
    report = sentence_bleu("a b c d".split(), "a b c d e".split())
    assert all(n == d for n, d in report.raw_precisions)
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 5 / 4), abs=1e-12)
    assert report.bleu == pytest.approx(0.7788007830714049, abs=1e-4)


def test_smoothed_sentence_fixture():
    report = sentence_bleu("a b x y".split(), "a b c d".split())
    assert report.brevity_penalty == 1.0
    assert report.bleu == pytest.approx(0.16821895003341453, abs=1e-4)
    assert report.bleu == pytest.approx(oracle_bleu([("a b x y".split(), "a b c d".split())]),
                                        abs=1e-12)


def test_empty_hypothesis_reports_zero():
    report = sentence_bleu([], "a b".split())
    assert report.bleu == 0.0
    assert report.note == "empty hypothesis"


def test_empty_reference_rejected():
    with pytest.raises(EvaluationError):
        sentence_bleu("a".split(), [])


@pytest.mark.parametrize("max_n, k, setting", [(0, 5, "max_n"), (4, 0, "smoothing_k"),
                                                 (4, -1, "smoothing_k")])
def test_bleu_rejects_settings_it_would_divide_by(max_n, k, setting):
    pair = ("a b x y".split(), "a b c d".split())
    with pytest.raises(EvaluationError, match=setting):
        sentence_bleu(*pair, max_n=max_n, k=k)
    for macro in (False, True):
        with pytest.raises(EvaluationError, match=setting):
            corpus_bleu([pair], max_n=max_n, k=k, macro=macro)


def test_iterator_inputs_score_as_lists():
    toks = "w x y z q".split()
    expected = sentence_bleu(toks, toks)
    assert expected.bleu == 1.0
    for hyp, ref in ((iter(toks), toks), (toks, iter(toks)), (iter(toks), iter(toks))):
        assert sentence_bleu(hyp, ref) == expected
    pairs = [(h.split(), r.split()) for h, r in FIXTURE_PAIRS]
    for macro in (False, True):
        assert corpus_bleu(((iter(h), iter(r)) for h, r in pairs), macro=macro) \
            == corpus_bleu(pairs, macro=macro)


def test_single_token_no_match_is_zero():
    report = sentence_bleu(["q"], ["a"])
    assert report.bleu == 0.0


def test_bleu_bounded():
    cases = [("a", "a"), ("a b", "b a"), ("q", "a b c"), ("a b c d e f", "a b"),
             ("x", "x y z w v u"), ("a a a a", "a b")]
    for h, r in cases:
        b = sentence_bleu(h.split(), r.split()).bleu
        assert 0.0 <= b <= 1.0, (h, r, b)


# --- corpus_bleu -----------------------------------------------------------------

FIXTURE_PAIRS = [
    ("the cat sat on the mat", "the cat sat on a mat"),
    ("a quick brown fox", "the quick brown fox jumps"),
    ("hello world", "hello there world"),
    ("the dog barks at night", "a dog barked all night"),
    ("one two three four five", "one two three four five"),
]


def test_corpus_matches_independent_oracle():
    pairs = [(h.split(), r.split()) for h, r in FIXTURE_PAIRS]
    report = corpus_bleu(pairs)
    assert report.bleu == pytest.approx(oracle_bleu(pairs), abs=1e-9)


def test_single_pair_corpus_equals_sentence_bleu_when_unsmoothed():
    hyp, ref = "a b c d".split(), "a b c d e".split()
    assert corpus_bleu([(hyp, ref)]).bleu == pytest.approx(sentence_bleu(hyp, ref).bleu, abs=1e-15)
    # raw precisions always agree even when smoothing would fire
    hyp2 = "a b x y".split()
    assert corpus_bleu([(hyp2, ref)]).raw_precisions == sentence_bleu(hyp2, ref).raw_precisions


@settings(max_examples=60)
@given(st.lists(st.integers(0, 5), max_size=8), st.lists(st.integers(0, 5), min_size=1, max_size=8),
       st.integers(1, 4), st.sampled_from([0.5, 5.0]))
def test_single_pair_corpus_is_sentence_bleu_bit_for_bit(hyp, ref, max_n, k):
    assert corpus_bleu([(hyp, ref)], max_n, k) == sentence_bleu(hyp, ref, max_n, k)


def test_two_perfect_pairs():
    toks = "p q r s".split()
    assert corpus_bleu([(toks, toks), (toks, toks)]).bleu == 1.0


def test_corpus_permutation_invariant():
    pairs = [(h.split(), r.split()) for h, r in FIXTURE_PAIRS]
    base = corpus_bleu(pairs).bleu
    rng = random.Random(3)
    for _ in range(5):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert corpus_bleu(shuffled).bleu == pytest.approx(base, abs=1e-15)


def test_corpus_macro_mode():
    pairs = [(h.split(), r.split()) for h, r in FIXTURE_PAIRS]
    macro = corpus_bleu(pairs, macro=True)
    expected = sum(sentence_bleu(h, r).bleu for h, r in pairs) / len(pairs)
    assert macro.bleu == pytest.approx(expected, abs=1e-15)
    assert "macro" in macro.note


def test_corpus_empty_list():
    with pytest.raises(EvaluationError):
        corpus_bleu([])


@settings(max_examples=60)
@given(st.lists(st.tuples(
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
    st.lists(st.integers(0, 6), min_size=1, max_size=8)), min_size=1, max_size=4))
def test_token_renaming_invariance(pairs):
    mapping = {i: f"tok{9 - i}" for i in range(7)}  # an arbitrary bijection
    renamed = [([mapping[t] for t in h], [mapping[t] for t in r]) for h, r in pairs]
    assert corpus_bleu(pairs).bleu == pytest.approx(corpus_bleu(renamed).bleu, abs=1e-12)
    h, r = pairs[0]
    assert sentence_bleu(h, r).bleu == pytest.approx(
        sentence_bleu([mapping[t] for t in h], [mapping[t] for t in r]).bleu, abs=1e-12)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10),
       st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_sentence_bleu_in_unit_interval(hyp, ref):
    assert 0.0 <= sentence_bleu(hyp, ref).bleu <= 1.0


# --- comparison report -------------------------------------------------------------

def test_compare_report_table3_arithmetic():
    report = compare_report({"mr->hi": 9.48, "hi->mr": 5.61},
                            {"mr->hi": 10.33, "hi->mr": 6.85})
    by_dir = {r.direction: r for r in report.rows}
    assert by_dir["mr->hi"].delta == pytest.approx(0.85, abs=1e-12)
    assert by_dir["mr->hi"].relative * 100 == pytest.approx(8.97, abs=5e-3)
    assert by_dir["hi->mr"].relative * 100 == pytest.approx(22.10, abs=5e-3)


def test_compare_report_equal_scores():
    report = compare_report({"a->b": 0.25}, {"a->b": 0.25})
    assert report.rows[0].delta == 0.0
    assert report.rows[0].relative == 0.0


def test_compare_report_key_mismatch():
    with pytest.raises(EvaluationError, match="missing"):
        compare_report({"a->b": 1.0}, {"b->a": 1.0})


def test_compare_report_rendering():
    report = compare_report({"mr->hi": 0.0948, "hi->mr": 0.0561},
                            {"mr->hi": 0.1033, "hi->mr": 0.0685})
    table = report.render_table(scale=100)
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["direction", "baseline", "MTL"]
    assert len(lines) == 2 + 2
    assert "9.48" in table and "10.33" in table and "+8.97%" in table
    rows = report.render_rows()
    assert len(rows.splitlines()) == 2
    assert rows.splitlines()[0].startswith("mr->hi\t")
