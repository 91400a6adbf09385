"""Vocabulary, corpus reading/splitting and deterministic batching.

File conventions: plain text, one sentence per line, UTF-8; parallel files
aligned by line number. The vocabulary persists as one token per line with
the reserved block first (PAD, BOS, EOS, UNK, then language codes sorted).
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

PAD, BOS, EOS, UNK = "<pad>", "<s>", "</s>", "<unk>"
_LANG_FMT = "<lang:{}>"
TOKENIZE_MODES = ("word", "char")


class CorpusError(ValueError):
    pass


class VocabularyError(ValueError):
    pass


def tokenize(text: str, mode: str = "word") -> list[str]:
    if mode not in TOKENIZE_MODES:
        raise VocabularyError(f"unknown tokenization mode {mode!r}")
    return text.split() if mode == "word" else list(text)


class Vocabulary:
    """Token <-> id bijection with a fixed reserved block at the low ids."""

    def __init__(self, tokens: list[str], languages: list[str], mode: str = "word"):
        self._id_to_token = list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self._token_to_id) != len(tokens):
            raise VocabularyError("duplicate token in vocabulary")
        self.languages = list(languages)
        self.mode = mode
        self.pad_id = self._token_to_id[PAD]
        self.bos_id = self._token_to_id[BOS]
        self.eos_id = self._token_to_id[EOS]
        self.unk_id = self._token_to_id[UNK]

    def __len__(self):
        return len(self._id_to_token)

    @property
    def reserved_size(self):
        return 4 + len(self.languages)

    def lang_id(self, language: str) -> int:
        tok = _LANG_FMT.format(language)
        if tok not in self._token_to_id:
            raise VocabularyError(f"language {language!r} is not registered in the vocabulary")
        return self._token_to_id[tok]

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, self.unk_id)

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def is_special(self, token_id: int) -> bool:
        return token_id < self.reserved_size

    def save(self, path):
        write_text_atomically(path, "".join(tok + "\n" for tok in self._id_to_token))

    @classmethod
    def load(cls, path, mode: str = "word") -> "Vocabulary":
        with open(path, encoding="utf-8") as f:
            tokens = [line[:-1] if line.endswith("\n") else line for line in f]
        languages = []
        for tok in tokens[4:]:
            if tok.startswith("<lang:") and tok.endswith(">"):
                languages.append(tok[len("<lang:"):-1])
            else:
                break
        expected = [PAD, BOS, EOS, UNK] + [_LANG_FMT.format(l) for l in languages]
        if tokens[: len(expected)] != expected:
            raise VocabularyError(f"{path}: reserved block is malformed")
        return cls(tokens, languages, mode=mode)


def build_vocab(lines, languages, mode: str = "word", min_count: int = 1) -> Vocabulary:
    """Count tokens over ``lines`` and assign ids by (count desc, token asc).

    Reserved tokens take the lowest ids and are never produced by counting.
    Tokens below ``min_count`` are dropped and will encode to UNK.
    """
    counts = Counter()
    n_lines = 0
    for line in lines:
        n_lines += 1
        counts.update(tokenize(line, mode))
    if n_lines == 0:
        raise CorpusError("cannot build a vocabulary from empty corpora")
    reserved = [PAD, BOS, EOS, UNK] + [_LANG_FMT.format(l) for l in sorted(languages)]
    reserved_set = set(reserved)
    ordered = sorted(
        (tok for tok, c in counts.items() if c >= min_count and tok not in reserved_set),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(reserved + ordered, sorted(languages), mode=mode)


@dataclass
class TokenSequence:
    ids: list[int]
    language: str


@dataclass
class ParallelExample:
    source: TokenSequence
    target: TokenSequence

    def __post_init__(self):
        if self.source.language == self.target.language:
            raise CorpusError("parallel example must pair two different languages")


def encode(text: str, vocabulary: Vocabulary, language: str) -> TokenSequence:
    if language not in vocabulary.languages:
        raise VocabularyError(f"language {language!r} is not registered in the vocabulary")
    ids = [vocabulary.token_id(t) for t in tokenize(text, vocabulary.mode)]
    return TokenSequence(ids, language)


def decode(seq, vocabulary: Vocabulary) -> str:
    ids = seq.ids if isinstance(seq, TokenSequence) else seq
    sep = " " if vocabulary.mode == "word" else ""
    return sep.join(vocabulary.token(i) for i in ids)


@dataclass
class SplitConfig:
    train: int
    validation: int
    test: int
    seed: int = 0

    def __post_init__(self):
        sizes = list(self.sizes().values())
        if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in sizes):
            raise ValueError(f"split sizes must be integers >= 0, got {sizes}")

    def sizes(self):
        return {"train": self.train, "validation": self.validation, "test": self.test}


def split_indices(n_lines: int, config: SplitConfig) -> dict[str, list[int]]:
    """Sample disjoint, exactly-sized line-index splits; deterministic in the seed."""
    total = sum(config.sizes().values())
    if total > n_lines:
        raise CorpusError(
            f"requested splits of total size {total} but the corpus has only {n_lines} lines"
        )
    perm = np.random.default_rng(config.seed).permutation(n_lines)
    out, offset = {}, 0
    for name, size in config.sizes().items():
        out[name] = [int(i) for i in perm[offset:offset + size]]
        offset += size
    return out


@dataclass
class ParallelCorpus:
    source_language: str
    target_language: str
    splits: dict = field(default_factory=dict)  # name -> list[ParallelExample]

    def split(self, name):
        return self.splits[name]


@dataclass
class MonolingualCorpus:
    language: str
    splits: dict = field(default_factory=dict)  # name -> list[TokenSequence]

    def split(self, name):
        return self.splits[name]


def write_atomically(path, write) -> None:
    """Call ``write`` on a binary file beside ``path`` that then replaces it,
    so readers see either the old file or the new one, never a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomically(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through ``write_atomically``."""
    write_atomically(path, lambda f: f.write(text.encode("utf-8")))


def read_lines(path, newline=None) -> list[str]:
    """The lines of a UTF-8 text file; ``newline`` is ``open``'s (by default
    universal newlines)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError as e:
        raise CorpusError(f"{path}: not valid UTF-8 ({e})") from None


def read_corpus(path) -> list[str]:
    """The lines of a corpus file, checked for what would otherwise surface
    only stages later: a blank line, or a carriage return (which universal
    newlines would turn into a line break, shifting a parallel file out of
    alignment), raises a CorpusError naming file:line."""
    lines = read_lines(path, newline="\n")
    for number, line in enumerate(lines, 1):
        if "\r" in line:
            raise CorpusError(f"{path}:{number}: carriage return; corpora need LF line endings")
        if not line.strip():
            raise CorpusError(f"{path}:{number}: blank line")
    return lines


@dataclass
class ParallelBatch:
    """Padded id matrices for one teacher-forced translation batch.

    ``src`` rows are [LANG_SRC] tokens [EOS]; ``tgt_in`` rows are
    [LANG_TGT] tokens and ``tgt_labels`` rows are tokens [EOS], so
    labels[i][j] is the token the decoder must predict at position j.
    Masks are 1.0 exactly on non-PAD positions.
    """

    src: np.ndarray
    src_mask: np.ndarray
    tgt_in: np.ndarray
    tgt_labels: np.ndarray
    tgt_mask: np.ndarray
    source_language: str
    target_language: str
    pad_id: int

    def __len__(self):
        return self.src.shape[0]


@dataclass
class MonoBatch:
    """Padded decoder-side batch for causal language modeling on one language.

    The first column of ``dec_in`` is the language-code token; the CLM
    encoder input is rebuilt from it plus ``eos_id``.
    """

    dec_in: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    language: str
    pad_id: int
    eos_id: int

    def __len__(self):
        return self.dec_in.shape[0]


def token_budget(max_len: int) -> int:
    """How many of a sentence's tokens fit in ``max_len`` positions once
    framed: the language tag and EOS take the other two. A ``max_len``
    without room for one token is a ValueError."""
    if not max_len >= 3:
        raise ValueError(f"max_len must be >= 3 (a language tag, one token and EOS), got {max_len}")
    return max_len - 2


def _truncate(ids, max_len, counter):
    budget = token_budget(max_len)
    if len(ids) > budget:
        counter[0] += 1
        return ids[:budget]
    return ids


def pad_rows(rows, pad_id):
    """The id rows ``rows`` as one (len(rows), widest) array, PAD-padded on
    the right, and its 1/0 mask of real positions."""
    width = max(len(r) for r in rows)
    mat = np.full((len(rows), width), pad_id, dtype=np.int64)
    mask = np.zeros((len(rows), width))
    for i, r in enumerate(rows):
        mat[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return mat, mask


def stack_padded(arrays, pad_id) -> np.ndarray:
    """Stack 2-D id arrays row-wise in order, each PAD-padded on the right
    to the widest one."""
    return pad_rows([row for a in arrays for row in a], pad_id)[0]


def frame_source(ids, vocab, language):
    return [vocab.lang_id(language)] + ids + [vocab.eos_id]


def frame_target(ids, vocab, language):
    dec_in = [vocab.lang_id(language)] + ids
    labels = ids + [vocab.eos_id]
    return dec_in, labels


def make_batches(examples, batch_size: int, vocabulary: Vocabulary, max_len: int, seed,
                 log_truncation: bool = True) -> list:
    """Shuffle deterministically by seed, frame, truncate, pad and mask.

    Accepts a split of ParallelExample (returns ParallelBatch) or of
    TokenSequence (returns MonoBatch). The final partial batch is kept.
    ``log_truncation=False`` silences the warning about truncated sequences,
    for callers that batch the same split again.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not examples:
        raise CorpusError("cannot batch an empty split")
    order = np.random.default_rng(seed).permutation(len(examples))
    shuffled = [examples[i] for i in order]
    truncated = [0]
    batches = []
    for start in range(0, len(shuffled), batch_size):
        chunk = shuffled[start:start + batch_size]
        if isinstance(chunk[0], ParallelExample):
            src_rows = [frame_source(_truncate(ex.source.ids, max_len, truncated), vocabulary,
                                      ex.source.language) for ex in chunk]
            framed = [frame_target(_truncate(ex.target.ids, max_len, truncated), vocabulary,
                                    ex.target.language) for ex in chunk]
            src, src_mask = pad_rows(src_rows, vocabulary.pad_id)
            tgt_in, tgt_mask = pad_rows([f[0] for f in framed], vocabulary.pad_id)
            labels, _ = pad_rows([f[1] for f in framed], vocabulary.pad_id)
            batches.append(ParallelBatch(src, src_mask, tgt_in, labels, tgt_mask,
                                         chunk[0].source.language, chunk[0].target.language,
                                         vocabulary.pad_id))
        else:
            framed = [frame_target(_truncate(seq.ids, max_len, truncated), vocabulary, seq.language)
                      for seq in chunk]
            dec_in, mask = pad_rows([f[0] for f in framed], vocabulary.pad_id)
            labels, _ = pad_rows([f[1] for f in framed], vocabulary.pad_id)
            batches.append(MonoBatch(dec_in, labels, mask, chunk[0].language,
                                     vocabulary.pad_id, vocabulary.eos_id))
    if truncated[0] and log_truncation:
        logger.warning("truncated %d over-length sequences to max_len=%d", truncated[0], max_len)
    return batches
