"""Batched beam search and chunked translation against one-source decoding.

The batched path encodes its sources as one PAD-masked batch and steps all
their live prefixes together, so a logit may differ from the one-source
path's in its last bits (a product's rounding depends on how many rows it
has). These tests hold it to the same hypotheses and to summed
log-probabilities within 1e-12.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from minimt import decoding, experiment
from minimt.config import ConfigError, DecodeSection, decode_config
from minimt.data import build_vocab, decode, encode, frame_source, token_budget
from minimt.decoding import (
    DecodeConfig,
    _translation_stepper,
    beam_search_batch,
    search,
    search_batch,
    sources_per_chunk,
)
from minimt.model import ModelConfig, init_params
from minimt.training import Adam, OptimizerConfig, save_checkpoint

# smoke's and desk's model and decode shapes (see experiment.make_preset)
SHAPES = {
    "smoke": (dict(d_model=32, n_heads=2, n_enc_layers=2, n_dec_layers=2, d_ff=64, max_len=24),
              dict(beam_size=2, max_decode_len=12)),
    "desk": (dict(), dict(beam_size=2, max_decode_len=24)),
}


def one_source(model, source, config):
    with model.eval_mode():
        return search(_translation_stepper(model, source, config), config)


def assert_same_hypotheses(got, want):
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for g, w in zip(got, want):
        assert abs(g.logprob_sum - w.logprob_sum) <= 1e-12


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("multitask", [False, True])
def test_batch_equals_one_source_search_per_source(shape, multitask):
    model_kw, decode_kw = SHAPES[shape]
    model = init_params(ModelConfig(vocab_size=40, seed=3, **model_kw), multitask=multitask).eval()
    config = DecodeConfig(eos_id=2, start_id=3, **decode_kw)
    rng = np.random.default_rng(1)
    # mixed lengths, from a bare tag + EOS to the model's max_len
    lengths = [0, 1, 5, 2, model.config.max_len - 2, 9, 3]
    sources = [[4, *rng.integers(5, 40, n).tolist(), 2] for n in lengths]
    got = beam_search_batch(model, sources, config)
    assert len(got) == len(sources)
    for hyps, source in zip(got, sources):
        assert_same_hypotheses(hyps, one_source(model, source, config))


def test_search_batch_ranks_each_source_as_search_does():
    """A rigged scorer with exact ties: each source's ranking, ties and
    stopping point match a one-source search over the same scorer."""
    def rigged(source):
        def step(prefixes):
            return np.array([np.random.default_rng([source, *p]).integers(-3, 1, 5) * 0.25
                             for p in prefixes])
        return step

    for beam in (1, 2, 3, 5):
        config = DecodeConfig(eos_id=2, start_id=3, beam_size=beam, max_decode_len=5)
        calls = []

        def step(sources, prefixes):
            calls.append(sources.tolist())
            return np.concatenate([rigged(s)([p]) for s, p in zip(sources.tolist(), prefixes)])

        got = search_batch(step, 6, config)
        for s, hyps in enumerate(got):
            want = search(rigged(s), config)
            assert [(h.tokens, h.logprob_sum, h.score) for h in hyps] == \
                [(h.tokens, h.logprob_sum, h.score) for h in want]
        assert all(c == sorted(c) for c in calls)


def test_a_settled_source_leaves_the_batch():
    # no length penalty: a prefix's score can only fall, so source 0 settles
    # at its second step, when its two finished hypotheses beat its live one
    config = DecodeConfig(eos_id=2, start_id=3, beam_size=2, length_penalty=0.0,
                          max_decode_len=6)

    def step(sources, prefixes):
        rows = np.full((len(prefixes), 5), -5.0)
        rows[:, 1] = -0.1
        rows[np.asarray(sources) == 0, 2] = 0.0  # source 0 ends at once
        return rows

    calls = []
    search_batch(lambda s, p: calls.append(s.tolist()) or step(s, p), 2, config)
    assert calls[:2] == [[0, 1], [0, 1, 1]]
    assert calls[2:] == [[1, 1]] * (config.max_decode_len - 2)


def test_an_empty_batch_decodes_nothing():
    model = init_params(ModelConfig(vocab_size=9, d_model=8, n_heads=2, n_enc_layers=1,
                                    n_dec_layers=1, d_ff=8, max_len=8)).eval()
    assert beam_search_batch(model, [], DecodeConfig(eos_id=2, start_id=3)) == []
    assert search_batch(lambda sources, prefixes: None, 0, DecodeConfig(eos_id=2, start_id=3)) == []


def test_chunk_size_follows_the_model_and_the_budget(monkeypatch):
    smoke = ModelConfig(vocab_size=40, **SHAPES["smoke"][0])
    config = DecodeConfig(eos_id=2, start_id=3, **SHAPES["smoke"][1])
    # smoke's 10 test sentences fit in one chunk
    assert sources_per_chunk(smoke, config) >= 10
    row = 2 * 8 * smoke.n_dec_layers * smoke.d_model * (config.max_decode_len + smoke.max_len)
    monkeypatch.setattr(decoding, "KV_CACHE_BUDGET", 3 * config.beam_size * row + 1)
    assert sources_per_chunk(smoke, config) == 3
    monkeypatch.setattr(decoding, "KV_CACHE_BUDGET", 1)
    assert sources_per_chunk(smoke, config) == 1


# --- translate_file ----------------------------------------------------------------------

def write_checkpoint(tmp_path, shape, multitask, drop=()):
    """A checkpoint with the meta the translate stage writes, less the
    ``drop`` keys."""
    words = [f"ka{i}" for i in range(12)] + [f"zo{i}" for i in range(12)]
    vocab = build_vocab([" ".join(words)], languages=["aa", "bb"])
    vocab_path = tmp_path / "vocab.txt"
    vocab.save(vocab_path)
    model_cfg = ModelConfig(vocab_size=len(vocab), seed=7, **SHAPES[shape][0])
    model = init_params(model_cfg, multitask=multitask)
    meta = {"src_lang": "aa", "tgt_lang": "bb", "tokenize_mode": "word",
            "vocab_sha": hashlib.sha256(vocab_path.read_bytes()).hexdigest(),
            "model_config": dataclasses.asdict(model_cfg), "multitask": multitask}
    meta = {k: v for k, v in meta.items() if k not in drop}
    path = tmp_path / "checkpoint.npz"
    save_checkpoint(path, model, Adam(list(model.named_parameters()), OptimizerConfig()),
                    "fingerprint", 0, {}, meta)
    return path, vocab_path, vocab, model.eval()


def per_line(model, lines, vocab, settings):
    """What translating line by line gives: each line truncated to the token
    budget, framed and searched alone."""
    config = decode_config(settings, vocab, "bb", model.config.max_len)
    out = []
    for line in lines:
        ids = encode(line, vocab, "aa").ids[: token_budget(model.config.max_len)]
        best = one_source(model, frame_source(ids, vocab, "aa"), config)[0]
        out.append(decode([t for t in best.tokens if not vocab.is_special(t)], vocab))
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_translate_file_equals_per_line_decoding_across_chunks(tmp_path, monkeypatch, shape):
    ckpt, vocab_path, vocab, model = write_checkpoint(tmp_path, shape, multitask=shape == "desk")
    settings = DecodeSection(**SHAPES[shape][1])
    rng = np.random.default_rng(2)
    too_long = model.config.max_len + 4  # truncated to the token budget
    lines = [" ".join(f"ka{i}" for i in rng.integers(0, 12, n))
             for n in (3, 1, too_long, 7, 2, 5, 4)]
    config = decode_config(settings, vocab, "bb", model.config.max_len)
    row = (2 * 8 * model.config.n_dec_layers * model.config.d_model
           * (config.max_decode_len + model.config.max_len))
    monkeypatch.setattr(decoding, "KV_CACHE_BUDGET", 3 * config.beam_size * row)
    chunks = []
    real = experiment.beam_search_batch

    def recording(model, sources, config):
        chunks.append(len(sources))
        return real(model, sources, config)

    monkeypatch.setattr(experiment, "beam_search_batch", recording)
    out = tmp_path / "hyps.txt"
    experiment.translate_file(ckpt, vocab_path, lines, out, settings)
    assert chunks == [3, 3, 1]
    assert out.read_text(encoding="utf-8").splitlines() == per_line(model, lines, vocab, settings)


def test_translate_file_of_no_lines_writes_an_empty_file(tmp_path):
    ckpt, vocab_path, _, _ = write_checkpoint(tmp_path, "smoke", multitask=False)
    out = tmp_path / "hyps.txt"
    out.write_text("an earlier translation\n")
    experiment.translate_file(ckpt, vocab_path, [], out, DecodeSection())
    assert out.read_bytes() == b""


@pytest.mark.parametrize("key", ["vocab_sha", "tokenize_mode", "src_lang", "tgt_lang",
                                 "multitask"])
def test_translate_file_refuses_a_checkpoint_without_its_vocabulary_metadata(tmp_path, key):
    ckpt, vocab_path, _, _ = write_checkpoint(tmp_path, "smoke", multitask=False, drop=[key])
    out = tmp_path / "hyps.txt"
    with pytest.raises(ConfigError, match=rf"no translation metadata \['{key}'\]"):
        experiment.translate_file(ckpt, vocab_path, ["ka1 ka2"], out, DecodeSection())
    assert not out.exists()
