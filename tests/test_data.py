import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimt.data import (
    CorpusError,
    MonoBatch,
    SplitConfig,
    Vocabulary,
    VocabularyError,
    build_vocab,
    decode,
    encode,
    make_batches,
    read_corpus,
    read_lines,
    split_indices,
)


@pytest.fixture
def vocab():
    return build_vocab(["a b c", "a b", "a"], languages=["xx", "yy"])


def write(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return p


# --- vocabulary -----------------------------------------------------------

def test_build_vocab_frequency_then_lexicographic():
    v = build_vocab(["a b", "a"], languages=["xx", "yy"], min_count=1)
    assert v.token_id("a") < v.token_id("b")
    assert v.token_id("a") == v.reserved_size
    assert len(v) == v.reserved_size + 2


def test_build_vocab_min_count_drops_to_unk():
    v = build_vocab(["a b", "a"], languages=["xx"], min_count=2)
    assert len(v) == v.reserved_size + 1
    assert v.token_id("b") == v.unk_id


def test_build_vocab_deterministic():
    lines = ["c a b", "b a", "a c"]
    v1 = build_vocab(lines, languages=["yy", "xx"])
    v2 = build_vocab(lines, languages=["xx", "yy"])
    assert [v1.token(i) for i in range(len(v1))] == [v2.token(i) for i in range(len(v2))]


def test_build_vocab_empty_corpus():
    with pytest.raises(CorpusError):
        build_vocab([], languages=["xx"])


def test_reserved_block_order(vocab):
    assert [vocab.token(i) for i in range(vocab.reserved_size)] == [
        "<pad>", "<s>", "</s>", "<unk>", "<lang:xx>", "<lang:yy>"]


def test_vocab_save_load_roundtrip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert len(loaded) == len(vocab)
    assert loaded.languages == vocab.languages
    assert all(loaded.token(i) == vocab.token(i) for i in range(len(vocab)))


def test_char_mode_roundtrip_and_persistence(tmp_path):
    v = build_vocab(["ab ba", "ba"], languages=["xx", "yy"], mode="char")
    seq = encode("ab ba", v, "xx")
    assert decode(seq, v) == "ab ba"  # the space is itself a token
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocabulary.load(path, mode="char")
    assert decode(encode("ba ab", loaded, "yy"), loaded) == "ba ab"


# --- encode / decode --------------------------------------------------------

def test_encode_decode_roundtrip(vocab):
    seq = encode("a b", vocab, "xx")
    assert seq.ids == [vocab.token_id("a"), vocab.token_id("b")]
    assert decode(seq, vocab) == "a b"


def test_encode_oov_becomes_unk(vocab):
    seq = encode("a zzz", vocab, "xx")
    assert seq.ids[1] == vocab.unk_id
    assert decode(seq, vocab) == "a <unk>"


def test_encode_empty_string(vocab):
    assert encode("", vocab, "xx").ids == []


def test_encode_unknown_language(vocab):
    with pytest.raises(VocabularyError):
        encode("a", vocab, "zz")


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=12))
def test_roundtrip_property(tokens):
    v = build_vocab(["a b c"], languages=["xx", "yy"])
    line = " ".join(tokens)
    assert decode(encode(line, v, "xx"), v) == " ".join(line.split())


# --- corpus reading and splitting ---------------------------------------------

def test_split_indices_deterministic_and_disjoint():
    cfg = SplitConfig(10, 5, 5, seed=3)
    idx1 = split_indices(30, cfg)
    idx2 = split_indices(30, cfg)
    assert idx1 == idx2
    assert [len(idx1[s]) for s in ("train", "validation", "test")] == [10, 5, 5]
    hashes = [hashlib.sha256(str(sorted(v)).encode()).hexdigest() for v in idx1.values()]
    assert len(set(hashes)) == 3
    all_idx = sum((v for v in idx1.values()), [])
    assert len(all_idx) == len(set(all_idx))
    with pytest.raises(CorpusError, match="only 1 lines"):
        split_indices(1, SplitConfig(5, 0, 0))
    # the paper's parallel and monolingual splits, to the line
    big = split_indices(130_000, SplitConfig(100_000, 20_000, 5_000, seed=0))
    assert {k: len(v) for k, v in big.items()} == {"train": 100_000, "validation": 20_000,
                                                   "test": 5_000}
    assert len(set(sum(big.values(), []))) == 125_000
    assert len(split_indices(70_000, SplitConfig(70_000, 0, 0))["train"]) == 70_000


@pytest.mark.parametrize("content, problem", [
    (b"a b\n\nc\n", "2: blank line"),
    (b"a b\n \t\n", "2: blank line"),
    (b"a b\r\nc\r\n", "1: carriage return"),
    (b"a\nb\rc\n", "2: carriage return"),
    (b"a\n\xff\n", "not valid UTF-8"),
])
def test_read_corpus_rejects_what_later_stages_would_trip_on(tmp_path, content, problem):
    path = tmp_path / "c.xx"
    path.write_bytes(content)
    with pytest.raises(CorpusError, match=problem) as info:
        read_corpus(path)
    assert str(info.value).startswith(str(path))


def test_read_corpus_reads_what_read_lines_reads(tmp_path):
    path = tmp_path / "c.xx"
    path.write_bytes("a b\nc  d \né\n".encode("utf-8"))
    assert read_corpus(path) == read_lines(path) == ["a b", "c  d ", "é"]


@pytest.mark.parametrize("sizes", [(-5, 10, 10), (10, -1, 0), (1.5, 0, 0), (10, 0, 2.0)])
def test_split_sizes_must_be_non_negative_integers(sizes):
    with pytest.raises(ValueError, match="split sizes"):
        SplitConfig(*sizes)


def test_no_line_shared_between_splits(tmp_path, vocab):
    lines = [f"a b c {i}" for i in range(40)]
    src = write(tmp_path, "s.xx", lines)
    tgt = write(tmp_path, "t.yy", lines)
    idx = split_indices(40, SplitConfig(20, 10, 10, seed=1))
    seen = {}
    for name, ids in idx.items():
        for i in ids:
            h = hashlib.sha256(lines[i].encode()).hexdigest()
            assert h not in seen, f"line {i} in both {seen.get(h)} and {name}"
            seen[h] = name


# --- batching ---------------------------------------------------------------

@pytest.fixture
def parallel_split(vocab):
    def pair(s, t):
        from minimt.data import ParallelExample
        return ParallelExample(encode(s, vocab, "xx"), encode(t, vocab, "yy"))
    return [pair("a b", "b a"), pair("a", "c"), pair("b c a", "a"),
            pair("c", "a b c"), pair("a c", "b")]


def test_make_batches_sizes(vocab, parallel_split):
    batches = make_batches(parallel_split, 2, vocab, max_len=16, seed=0)
    assert [len(b) for b in batches] == [2, 2, 1]


def test_make_batches_seed_determinism(vocab, parallel_split):
    b1 = make_batches(parallel_split, 2, vocab, max_len=16, seed=9)
    b2 = make_batches(parallel_split, 2, vocab, max_len=16, seed=9)
    assert all(np.array_equal(x.src, y.src) and np.array_equal(x.tgt_in, y.tgt_in)
               for x, y in zip(b1, b2))
    b3 = make_batches(parallel_split, 2, vocab, max_len=16, seed=10)
    assert any(not np.array_equal(x.src, y.src) for x, y in zip(b1, b3))


def test_mask_matches_true_lengths(vocab, parallel_split):
    for batch in make_batches(parallel_split, 2, vocab, max_len=16, seed=0):
        # each source row is [LANG] + tokens + [EOS]
        lengths = batch.src_mask.sum(axis=1)
        for row, n in zip(batch.src, lengths):
            assert row[int(n) - 1] == vocab.eos_id
            assert np.all(row[int(n):] == vocab.pad_id)
            assert np.all(row[: int(n)] != vocab.pad_id)


def test_teacher_forcing_shift(vocab, parallel_split):
    for batch in make_batches(parallel_split, 2, vocab, max_len=16, seed=0):
        assert batch.tgt_in.shape == batch.tgt_labels.shape
        for i in range(len(batch)):
            n = int(batch.tgt_mask[i].sum())
            assert batch.tgt_in[i, 0] == vocab.lang_id("yy")
            # label row is the input row shifted left, closed by EOS
            assert np.array_equal(batch.tgt_labels[i, : n - 1], batch.tgt_in[i, 1:n])
            assert batch.tgt_labels[i, n - 1] == vocab.eos_id


def test_mono_batches(vocab):
    split = [encode(s, vocab, "xx") for s in ["a b c", "b", "c a"]]
    batches = make_batches(split, 2, vocab, max_len=16, seed=0)
    assert [len(b) for b in batches] == [2, 1]
    for b in batches:
        assert isinstance(b, MonoBatch)
        assert b.language == "xx"
        assert np.all(b.dec_in[:, 0] == vocab.lang_id("xx"))


def test_truncation_warns_and_respects_max_len(vocab, caplog):
    long = encode(" ".join(["a"] * 50), vocab, "xx")
    with caplog.at_level("WARNING"):
        batches = make_batches([long], 1, vocab, max_len=8, seed=0)
    assert "truncated" in caplog.text
    assert batches[0].dec_in.shape[1] <= 8


def test_empty_split_errors(vocab):
    with pytest.raises(CorpusError):
        make_batches([], 2, vocab, max_len=8, seed=0)
