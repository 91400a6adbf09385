import numpy as np
import pytest

from minimt.autodiff import Tensor, no_grad
from minimt.decoding import (
    DecodeConfig,
    beam_search,
    greedy_decode,
    greedy_search,
    score_hypothesis,
    search,
    _finalize,
    _translation_stepper,
)
from minimt.model import ModelConfig, init_params


def log_softmax(x):
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=-1, keepdims=True)
    return x - (np.log(np.exp(x - m).sum(axis=-1, keepdims=True)) + m)


def tiny_model(seed, vocab=4):
    config = ModelConfig(vocab_size=vocab, d_model=4, n_heads=2, n_enc_layers=1,
                         n_dec_layers=1, d_ff=8, max_len=8, seed=seed)
    return init_params(config, multitask=False).eval()


def tiny_config(**kw):
    base = dict(eos_id=2, start_id=3, beam_size=2, length_penalty=1.2, max_decode_len=3)
    return DecodeConfig(**{**base, **kw})


def enumerate_complete(step_fn, config):
    """Independent oracle: walk every complete sequence (EOS-terminated or
    cut at max_decode_len) and score it with per-prefix forward passes."""
    results = []

    def expand(prefix, total):
        row = step_fn([prefix])[0]
        for tok in range(len(row)):
            seq = prefix + (tok,)
            t = total + float(row[tok])
            if tok == config.eos_id or len(seq) >= config.max_decode_len:
                score = score_hypothesis(t, len(seq), config.length_penalty, config.penalty_form)
                results.append((seq, t, score))
            else:
                expand(seq, t)

    expand((), 0.0)
    return results


def oracle_best(step_fn, config):
    complete = enumerate_complete(step_fn, config)
    return min(complete, key=lambda r: (-r[2], r[0]))


# --- score_hypothesis --------------------------------------------------------

def test_score_fixture():
    # hand arithmetic: -0.3 / 2^1.2, with 2^1.2 = e^(1.2 ln 2) = 2.2973967...
    assert score_hypothesis(-0.3, 2, 1.2) == pytest.approx(-0.13058258449441862, abs=1e-12)


def test_score_alpha_zero_disables_penalty():
    assert score_hypothesis(-1.7, 9, 0.0) == -1.7


def test_score_length_one_is_identity():
    for alpha in (0.0, 0.7, 1.2, 3.0):
        assert score_hypothesis(-0.42, 1, alpha) == -0.42


def test_score_length_zero_errors():
    with pytest.raises(ValueError):
        score_hypothesis(-1.0, 0, 1.2)


def test_gnmt_penalty_form():
    lp = score_hypothesis(-1.0, 7, 1.2, form="gnmt")
    assert lp == pytest.approx(-1.0 / ((12 / 6) ** 1.2))


# --- greedy -------------------------------------------------------------------

def test_greedy_follows_rigged_sequence():
    target = (1, 3, 2)  # ends in EOS

    def step(prefixes):
        logits = np.zeros((len(prefixes), 5))
        for i, p in enumerate(prefixes):
            logits[i, target[len(p)]] = 30.0
        return log_softmax(logits)

    hyp = greedy_search(step, tiny_config(max_decode_len=8))
    assert hyp.tokens == target
    assert hyp.finished


def test_greedy_single_token_at_max_len_one():
    def step(prefixes):
        return log_softmax(np.ones((len(prefixes), 4)))

    hyp = greedy_search(step, tiny_config(max_decode_len=1))
    assert len(hyp.tokens) == 1
    assert hyp.finished
    # uniform logits tie: lowest token id wins
    assert hyp.tokens == (0,)


@pytest.mark.parametrize("seed", range(10))
def test_greedy_equals_beam_one(seed):
    model = tiny_model(seed)
    source = [3, 1, 2]
    config = tiny_config(beam_size=1)
    g = greedy_decode(model, source, config)
    b = beam_search(model, source, config)
    assert b[0].tokens == g.tokens
    assert b[0].score == pytest.approx(g.score, abs=1e-12)


# --- beam vs exhaustive oracle ---------------------------------------------------

@pytest.mark.parametrize("seed", range(25))
def test_beam_exhaustive_matches_enumeration(seed):
    model = tiny_model(seed)
    config = tiny_config(beam_size=4 ** 3)  # >= V^max_len: nothing can be pruned
    step = _translation_stepper(model, [3, 1, 2], config)
    best_tokens, best_sum, best_score = oracle_best(step, config)
    hyps = search(step, config)
    assert hyps[0].tokens == best_tokens
    assert hyps[0].score == pytest.approx(best_score, abs=1e-12)
    assert hyps[0].logprob_sum == pytest.approx(best_sum, abs=1e-12)
    # with no pruning possible the pool is the full space of complete sequences
    assert len(hyps) == len(enumerate_complete(step, config))


@pytest.mark.parametrize("seed", range(25))
def test_top_score_monotone_in_beam_size(seed):
    model = tiny_model(seed)
    source = [3, 2]
    prev = -np.inf
    for beam in (1, 2, 3, 4, 8, 16, 64):
        top = beam_search(model, source, tiny_config(beam_size=beam))[0]
        assert top.score >= prev - 1e-12, f"beam {beam} regressed: {top.score} < {prev}"
        prev = top.score


@pytest.mark.parametrize("seed", range(100))
def test_beam_two_at_least_greedy(seed):
    model = tiny_model(seed)
    source = [3, 1]
    config = tiny_config(beam_size=2)
    g = greedy_decode(model, source, config)
    b = beam_search(model, source, config)
    assert b[0].score >= g.score - 1e-12


# --- invariants -----------------------------------------------------------------

def test_beam_deterministic():
    model = tiny_model(7)
    config = tiny_config(beam_size=3, max_decode_len=4)
    r1 = beam_search(model, [3, 1, 2], config)
    r2 = beam_search(model, [3, 1, 2], config)
    assert [(h.tokens, h.logprob_sum, h.score) for h in r1] == \
           [(h.tokens, h.logprob_sum, h.score) for h in r2]


def test_no_tokens_after_eos_and_scores_recompute():
    for seed in range(10):
        model = tiny_model(seed)
        config = tiny_config(beam_size=4, max_decode_len=4)
        for h in beam_search(model, [3, 2, 1], config):
            assert h.finished
            if config.eos_id in h.tokens:
                assert h.tokens.index(config.eos_id) == len(h.tokens) - 1
            assert h.score == score_hypothesis(h.logprob_sum, len(h.tokens),
                                               config.length_penalty, config.penalty_form)


def test_ranking_is_by_penalized_score():
    model = tiny_model(11)
    hyps = beam_search(model, [3, 1], tiny_config(beam_size=8, max_decode_len=4))
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("form", ["pow", "gnmt"])
def test_config_variants_still_match_oracle_exhaustively(form):
    model = tiny_model(13)
    config = tiny_config(beam_size=64, penalty_form=form)
    step = _translation_stepper(model, [3, 1], config)
    best_tokens, _, best_score = oracle_best(step, config)
    top = search(step, config)[0]
    assert top.tokens == best_tokens
    assert top.score == pytest.approx(best_score, abs=1e-12)


def test_decode_config_validation():
    with pytest.raises(ValueError):
        tiny_config(beam_size=0)
    with pytest.raises(ValueError):
        tiny_config(max_decode_len=0)
    with pytest.raises(ValueError):
        tiny_config(penalty_form="mystery")


def test_decoding_leaves_model_mode_alone():
    model = tiny_model(3).train()
    beam_search(model, [3, 1], tiny_config())
    assert model.training
    model.eval()
    greedy_decode(model, [3, 1], tiny_config())
    assert not model.training


# --- fast paths against the slow paths they replace ------------------------------

def full_decode_logprobs(model, source, config, prefixes):
    """Slow reference: every prefix decoded in full, teacher forced, with no
    cache; the log-probabilities at its last position, one row per prefix."""
    src = np.asarray([source], dtype=np.int64)
    mask = np.ones(src.shape)
    rows = []
    with model.eval_mode(), no_grad():
        enc = model.encode_source(src, mask)
        for p in prefixes:
            ids = np.asarray([(config.start_id,) + tuple(p)], dtype=np.int64)
            logits = model._decode(model.translation_decoder, ids, enc, mask).data[0, -1]
            rows.append(log_softmax(logits))
    return np.array(rows)


def small_model(seed, multitask=False, tie_projections=True):
    config = ModelConfig(vocab_size=9, d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=2,
                         d_ff=24, max_len=10, seed=seed, tie_projections=tie_projections)
    return init_params(config, multitask=multitask).eval()


MODEL_KINDS = {
    "baseline": dict(),
    "mtl": dict(multitask=True),
    "untied": dict(tie_projections=False),
}


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
@pytest.mark.parametrize("seed", range(3))
def test_cached_stepper_matches_full_decode_depth_first(kind, seed):
    model = small_model(seed, **MODEL_KINDS[kind])
    source = [4, 5, 6, 2]
    config = tiny_config(max_decode_len=6)
    step = _translation_stepper(model, source, config)
    rng = np.random.default_rng(seed)
    visited = []

    def walk(prefix):  # depth first over a random subtree: siblings miss the cache
        visited.append(prefix)
        got = step([prefix])
        want = full_decode_logprobs(model, source, config, [prefix])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if len(prefix) < 5:
            for tok in rng.choice(9, size=2, replace=False):
                walk(prefix + (int(tok),))

    walk(())
    assert len(visited) == 63


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_cached_stepper_matches_full_decode_through_beam_reorders(kind):
    model = small_model(5, **MODEL_KINDS[kind])
    source = [4, 7, 2]
    config = tiny_config(max_decode_len=6)
    step = _translation_stepper(model, source, config)
    calls = [
        [()],
        [(1,), (3,)],
        [(3, 0), (1, 2), (3, 4)],  # reordered; two children share the parent (3,)
        [(3, 4, 8), (3, 0, 1), (3, 4, 5)],  # (1, 2) drops out
        [(3, 0, 1, 1), (3, 4, 5, 6), (3, 0, 1, 7), (3, 4, 8, 0)],
    ]
    for prefixes in calls:
        got = step(prefixes)
        want = full_decode_logprobs(model, source, config, prefixes)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def tuple_sort_search(step_fn, config, penalized=False):
    """Reference beam search that ranks every candidate as a Python tuple:
    (-summed log-probability, tokens), or with ``penalized`` (-penalized
    score, tokens). The candidates of a step share a length, so dividing
    them all by its penalty cannot change which of them are kept."""
    live, pool = [((), 0.0)], []
    while live:
        logprobs = step_fn([tokens for tokens, _ in live])
        candidates = [(tokens + (tok,), total + float(lp))
                      for (tokens, total), row in zip(live, logprobs)
                      for tok, lp in enumerate(row)]
        if penalized:
            def rank(c):
                return (-score_hypothesis(c[1], len(c[0]), config.length_penalty,
                                          config.penalty_form), c[0])
        else:
            def rank(c):
                return (-c[1], c[0])
        candidates.sort(key=rank)
        live = []
        for tokens, total in candidates[: config.beam_size]:
            if tokens[-1] == config.eos_id or len(tokens) >= config.max_decode_len:
                pool.append(_finalize(tokens, total, config))
            else:
                live.append((tokens, total))
        if live and len(pool) >= config.beam_size:
            settled = sorted(pool, key=lambda h: (-h.score, h.tokens))[config.beam_size - 1]
            reachable = max(max(score_hypothesis(total, l, config.length_penalty,
                                                 config.penalty_form)
                                for l in (len(tokens) + 1, config.max_decode_len))
                            for tokens, total in live)
            if settled.score > reachable:
                break
    return sorted(pool, key=lambda h: (-h.score, h.tokens))


def rigged_step(seed, vocab, levels):
    """Log-probabilities that are multiples of 1/4 drawn from ``levels``
    values per prefix: sums stay exact, so candidates tie across parents and
    tokens."""
    def step(prefixes):
        rows = [np.random.default_rng([seed, *p]).integers(-levels + 1, 1, vocab) * 0.25
                for p in prefixes]
        return np.array(rows)
    return step


@pytest.mark.parametrize("form", ["pow", "gnmt"])
@pytest.mark.parametrize("penalized_reference", [False, True])
@pytest.mark.parametrize("levels", [1, 2, 4])
@pytest.mark.parametrize("beam", [1, 2, 3, 5, 8])
def test_vectorized_ranking_matches_tuple_sort(form, penalized_reference, levels, beam):
    config = DecodeConfig(eos_id=2, start_id=3, beam_size=beam, length_penalty=1.2,
                          max_decode_len=5, penalty_form=form)
    for seed in range(4):
        step = rigged_step(seed, 5, levels)
        got = [(h.tokens, h.logprob_sum, h.score) for h in search(step, config)]
        want = [(h.tokens, h.logprob_sum, h.score)
                for h in tuple_sort_search(step, config, penalized_reference)]
        assert got == want


def prefix_redecode_stepper(model, source_ids, config):
    """The stepper incremental decoding replaced: every prefix re-decoded in
    full at every step, the encoder output repeated per row."""
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
        return log_softmax(logits)

    return step


@pytest.mark.parametrize("multitask", [False, True])
def test_incremental_beam_search_matches_prefix_redecoding_at_desk_shape(multitask):
    model = init_params(ModelConfig(vocab_size=66, seed=4), multitask=multitask).eval()
    config = DecodeConfig(eos_id=2, start_id=3, beam_size=4, length_penalty=1.2,
                          max_decode_len=24)
    rng = np.random.default_rng(0)
    for n in (3, 9, 20):
        source = [4, *rng.integers(5, 66, n), 2]
        got = beam_search(model, source, config)
        with model.eval_mode():
            want = search(prefix_redecode_stepper(model, source, config), config)
        assert [h.tokens for h in got] == [h.tokens for h in want]
        for g, w in zip(got, want):
            assert abs(g.logprob_sum - w.logprob_sum) <= 1e-12
