"""Experiment configuration: a JSON file of sections mirrored by dataclasses.

The model, decode and train sections are ``model.ModelSection``,
``decoding.DecodeSection`` and ``training.TrainSection``, the bases of the
runtime configs; the train section here adds the runner's two per-regime
settings. The optimizer section is ``training.OptimizerConfig``; the rest
are declared here. Each section checks its own values in ``__post_init__``,
``ExperimentConfig`` the rules that span sections. Loading reads nesting
and field types from the annotations, so an unknown key or a wrong type (an
``int`` takes only a JSON integer) fails at load. A loaded config
round-trips through ``to_dict``/``save`` losslessly; ``runtime_config``
turns a section into the dataclass a module consumes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from minimt import training
from minimt.data import TOKENIZE_MODES, Vocabulary, write_text_atomically
from minimt.decoding import DecodeConfig, DecodeSection
from minimt.evaluation import check_bleu_settings
from minimt.model import ModelSection
from minimt.training import OptimizerConfig


class ConfigError(ValueError):
    pass


def _conforms(value, hint) -> bool:
    """Whether JSON ``value`` has type ``hint``; an int is no float or bool, a float any number."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_conforms(k, args[0]) and _conforms(v, args[1])
                                               for k, v in value.items())
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


_type_hints = functools.cache(typing.get_type_hints)  # evaluating the annotations is slow


def _from_dict(cls, payload, path):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object, got {type(payload).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    hints = _type_hints(cls)
    kwargs = {}
    for name in [n for n in fields if n in payload]:
        value, hint = payload[name], hints[name]
        if dataclasses.is_dataclass(hint):
            value = _from_dict(hint, value, f"{path}.{name}")
        elif not _conforms(value, hint):
            # a top-level field names itself, a section's field its section
            where = f"{path}.{name}:" if path == "config" else f"{path}: {name}"
            raise ConfigError(f"{where} must be of type {fields[name].type}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from None


def runtime_config(cls, settings, **derived):
    """Build ``cls`` from the fields it declares: ``derived`` values first,
    then same-named attributes of ``settings`` (a config section or parsed
    command-line arguments); fields found in neither keep their defaults."""
    kwargs = {f.name: getattr(settings, f.name) for f in dataclasses.fields(cls)
              if f.name not in derived and hasattr(settings, f.name)}
    return cls(**kwargs, **derived)


def decode_config(settings, vocabulary: Vocabulary, target_language: str,
                  max_len: int) -> DecodeConfig:
    """Decode settings for one target language; generation stops one short
    of the model's ``max_len`` so the start token still fits."""
    return runtime_config(DecodeConfig, settings, eos_id=vocabulary.eos_id,
                          start_id=vocabulary.lang_id(target_language),
                          max_decode_len=min(settings.max_decode_len, max_len - 1))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON, atomically."""
    write_text_atomically(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class DataSection:
    src_lang: str = "aa"
    tgt_lang: str = "bb"
    parallel_src_file: str = ""
    parallel_tgt_file: str = ""
    mono_files: dict[str, str] = field(default_factory=dict)  # language -> path
    parallel_split: list[int] = field(default_factory=lambda: [80, 10, 10])
    mono_split: list[int] = field(default_factory=lambda: [50, 0, 0])
    tokenize_mode: str = "word"
    min_count: int = 1

    def __post_init__(self):
        if self.tokenize_mode not in TOKENIZE_MODES:
            raise ValueError(f"tokenize_mode must be one of {list(TOKENIZE_MODES)}, "
                             f"got {self.tokenize_mode!r}")
        for name in ("parallel_split", "mono_split"):
            sizes = getattr(self, name)
            if len(sizes) != 3 or min(sizes) < 0:
                raise ValueError(f"{name} must be three integers >= 0 "
                                 f"(train, validation, test), got {sizes!r}")
        # training reads a train split and evaluation a test split; validation may stay empty
        if not (self.parallel_split[0] and self.parallel_split[2]):
            raise ValueError(f"parallel_split needs train and test sizes > 0, "
                             f"got {self.parallel_split!r}")
        if self.mono_files and not self.mono_split[0]:
            raise ValueError(f"mono_split needs a train size > 0 when mono_files "
                             f"names a corpus, got {self.mono_split!r}")


@dataclass
class TrainSection(training.TrainSection):
    """``training.TrainSection`` plus the two settings the runner resolves
    per regime: a multitask batch size and the freeze plan."""

    mtl_batch_size: int | None = None   # per-regime override (paper-faithful asymmetry)
    freeze: str = "first_half"  # or "none"

    def __post_init__(self):
        if self.freeze not in ("first_half", "none"):
            raise ValueError(f"freeze must be 'first_half' or 'none', got {self.freeze!r}")
        if self.mtl_batch_size is not None and self.mtl_batch_size < 1:
            raise ValueError(f"mtl_batch_size must be >= 1, got {self.mtl_batch_size}")
        super().__post_init__()


@dataclass
class EvaluationSection:
    max_n: int = 4
    smoothing_k: float = 5.0
    aggregate: str = "corpus"  # or "macro"

    def __post_init__(self):
        if self.aggregate not in ("corpus", "macro"):
            raise ValueError(f"aggregate must be 'corpus' or 'macro', got {self.aggregate!r}")
        check_bleu_settings(self.max_n, self.smoothing_k)


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/experiment"
    directions: list[str] = field(default_factory=list)  # e.g. ["aa->bb", "bb->aa"]
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    decode: DecodeSection = field(default_factory=DecodeSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"config.seed: must be an integer >= 0, got {self.seed!r}")
        if not self.directions:
            self.directions = [f"{self.data.src_lang}->{self.data.tgt_lang}"]
        langs = {self.data.src_lang, self.data.tgt_lang}
        for d in self.directions:
            a, sep, b = d.partition("->")
            if not sep or a not in langs or b not in langs or a == b:
                raise ConfigError(f"direction {d!r} must be '<src>-><tgt>' over languages {sorted(langs)}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    def corpus_files(self) -> list[str]:
        """The corpus paths the config names: the parallel source and target,
        then the monolingual files by language. An empty or missing path is
        a ConfigError."""
        data = self.data
        named = {"parallel_src_file": data.parallel_src_file,
                 "parallel_tgt_file": data.parallel_tgt_file,
                 **{f"mono_files.{lang}": data.mono_files[lang] for lang in sorted(data.mono_files)}}
        unset = [key for key, path in named.items() if not path]
        if unset:
            raise ConfigError(f"config.data: no corpus path given for {unset}")
        missing = [path for path in named.values() if not Path(path).exists()]
        if missing:
            raise ConfigError(f"referenced corpus files do not exist: {missing}")
        return list(named.values())

    @property
    def languages(self):
        return sorted({self.data.src_lang, self.data.tgt_lang})


def config_from_dict(payload: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, payload, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(payload)


