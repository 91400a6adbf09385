"""Experiment configuration: a flat JSON file mirrored by dataclasses.

Unknown keys are errors, so typos never silently fall back to defaults, and
out-of-range values are rejected when the file loads. A loaded config
round-trips through ``to_dict``/``save`` losslessly. ``runtime_config``
turns a section into the dataclass a module consumes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from minimt.data import TOKENIZE_MODES, SplitConfig, Vocabulary, write_text_atomically
from minimt.decoding import DecodeConfig
from minimt.evaluation import check_bleu_settings
from minimt.model import ModelConfig
from minimt.training import OptimizerConfig, TrainConfig


class ConfigError(ValueError):
    pass


def _from_dict(cls, payload, path):
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected an object, got {type(payload).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in payload:
            value = payload[f.name]
            nested = _SECTION_TYPES.get((cls, f.name))
            kwargs[f.name] = _from_dict(nested, value, f"{path}.{f.name}") if nested else value
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
    mono_files: dict = field(default_factory=dict)  # language -> path
    parallel_split: list = field(default_factory=lambda: [80, 10, 10])
    mono_split: list = field(default_factory=lambda: [50, 0, 0])
    tokenize_mode: str = "word"
    min_count: int = 1


@dataclass
class ModelSection:
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 4
    n_dec_layers: int = 4
    d_ff: int = 256
    max_len: int = 64
    dropout_rate: float = 0.0
    tie_projections: bool = True


@dataclass
class TrainSection:
    steps: int | None = 300
    epochs: int | None = None
    batch_size: int = 16
    mtl_batch_size: int | None = None   # per-regime override (paper-faithful asymmetry)
    clm_batch_size: int | None = None
    log_interval: int = 50
    checkpoint_interval: int | None = None
    clm_loss_weight: float = 1.0
    clip_norm: float | None = None
    freeze: str = "first_half"  # or "none"


@dataclass
class DecodeSection:
    beam_size: int = 2
    length_penalty: float = 1.2
    max_decode_len: int = 32
    penalty_form: str = "pow"


@dataclass
class EvaluationSection:
    max_n: int = 4
    smoothing_k: float = 5.0
    aggregate: str = "corpus"  # or "macro"


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/experiment"
    directions: list = field(default_factory=list)  # e.g. ["aa->bb", "bb->aa"]
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    decode: DecodeSection = field(default_factory=DecodeSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"config.seed: must be an integer >= 0, got {self.seed!r}")
        if not (isinstance(self.directions, list)
                and all(isinstance(d, str) for d in self.directions)):
            raise ConfigError(f"config.directions: must be a list of '<src>-><tgt>' strings, "
                              f"got {self.directions!r}")
        if not self.directions:
            self.directions = [f"{self.data.src_lang}->{self.data.tgt_lang}"]
        langs = {self.data.src_lang, self.data.tgt_lang}
        for d in self.directions:
            a, sep, b = d.partition("->")
            if not sep or a not in langs or b not in langs or a == b:
                raise ConfigError(f"direction {d!r} must be '<src>-><tgt>' over languages {sorted(langs)}")
        if self.train.freeze not in ("first_half", "none"):
            raise ConfigError(f"config.train: freeze must be 'first_half' or 'none', "
                              f"got {self.train.freeze!r}")
        if self.evaluation.aggregate not in ("corpus", "macro"):
            raise ConfigError(f"config.evaluation: aggregate must be 'corpus' or 'macro', "
                              f"got {self.evaluation.aggregate!r}")
        try:
            check_bleu_settings(self.evaluation.max_n, self.evaluation.smoothing_k)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"config.evaluation: {e}") from None
        data = self.data
        if data.tokenize_mode not in TOKENIZE_MODES:
            raise ConfigError(f"config.data: tokenize_mode must be one of {list(TOKENIZE_MODES)}, "
                              f"got {data.tokenize_mode!r}")
        for name in ("parallel_split", "mono_split"):
            sizes = getattr(data, name)
            try:
                SplitConfig(*sizes, seed=self.seed)  # as prepare builds it, so 4 sizes fail too
            except (TypeError, ValueError):
                raise ConfigError(f"config.data: {name} must be three integers >= 0 "
                                  f"(train, validation, test), got {sizes!r}") from None
        # training reads a train split and evaluation a test split; validation may stay empty
        if not (data.parallel_split[0] and data.parallel_split[2]):
            raise ConfigError(f"config.data: parallel_split needs train and test sizes > 0, "
                              f"got {data.parallel_split!r}")
        if data.mono_files and not data.mono_split[0]:
            raise ConfigError(f"config.data: mono_split needs a train size > 0 when mono_files "
                              f"names a corpus, got {data.mono_split!r}")
        # build each runtime config once, with placeholders for the values
        # the runner derives, so a bad value fails here and not mid-experiment
        checks = [("model", ModelConfig, {"vocab_size": 1}), ("train", TrainConfig, {}),
                  ("decode", DecodeConfig, {"eos_id": 0, "start_id": 0})]
        if self.train.mtl_batch_size is not None:
            checks.append(("train", TrainConfig, {"batch_size": self.train.mtl_batch_size}))
        for section, cls, placeholders in checks:
            try:
                runtime_config(cls, getattr(self, section), **placeholders)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"config.{section}: {e}") from None

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


_SECTION_TYPES = {
    (ExperimentConfig, "data"): DataSection,
    (ExperimentConfig, "model"): ModelSection,
    (ExperimentConfig, "train"): TrainSection,
    (ExperimentConfig, "optimizer"): OptimizerConfig,
    (ExperimentConfig, "decode"): DecodeSection,
    (ExperimentConfig, "evaluation"): EvaluationSection,
}


def config_from_dict(payload: dict) -> ExperimentConfig:
    return _from_dict(ExperimentConfig, payload, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return config_from_dict(payload)


