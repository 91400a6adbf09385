"""End-to-end experiment: for every configured direction, prepare shared
splits and vocabulary, train the baseline and multitask regimes, translate
the test split with both, score them, and assemble the comparison report.

Both regimes inside one experiment share splits, vocabulary, initialization
seed and decode settings; they differ only in the auxiliary objective (and,
if the paper-faithful batch asymmetry is configured, the batch size).
Completed stages are cached in the output directory's manifest, keyed by a
fingerprint of the configuration that feeds them and of the stage before
them; prepare's also covers the bytes of every corpus file, so a changed
corpus runs every stage again. ``prepare`` alone reads and checks the
corpora whole; later stages read the lines of its splits. The translate
and evaluate stages run ``translate_file`` and ``score_files``, the same
bodies as ``minimt translate`` and ``minimt evaluate``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import resource
import sys
import time
from pathlib import Path

from minimt import synthetic
from minimt.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    decode_config,
    runtime_config,
    write_json,
)
from minimt.data import (
    CorpusError,
    MonolingualCorpus,
    ParallelCorpus,
    ParallelExample,
    SplitConfig,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    frame_source,
    read_corpus,
    read_lines,
    split_indices,
    token_budget,
    tokenize,
    write_atomically,
    write_text_atomically,
)
from minimt.decoding import beam_search_batch, sources_per_chunk
from minimt.evaluation import BleuReport, ComparisonReport, compare_report, corpus_bleu
from minimt.model import FreezeSpec, ModelConfig, init_params
from minimt.training import (
    MULTITASK_ONLY_FIELDS,
    PAPER_LR,
    TrainConfig,
    TrainData,
    config_fingerprint,
    load_checkpoint,
    restore_checkpoint,
    train_loop,
)

logger = logging.getLogger(__name__)


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _warn_over_length(corpora, mode: str, max_len: int) -> None:
    """Count, in one warning that names the first of them, the lines of the
    (path, lines) ``corpora`` that batching will truncate: those longer than
    ``token_budget(max_len)``."""
    budget = token_budget(max_len)
    over = [(path, number) for path, lines in corpora
            for number, line in enumerate(lines, 1) if len(tokenize(line, mode)) > budget]
    if over:
        logger.warning("%d corpus lines have more than %d tokens and will be truncated to "
                       "model.max_len=%d; the first is %s:%d", len(over), budget, max_len, *over[0])


# the regimes under comparison, in the order a direction runs them and the
# report compares them: standard finetuning, then multitask finetuning
REGIMES = ("baseline", "mtl")

# train settings that the baseline regime never reads, so they stay out of its fingerprint
_MULTITASK_ONLY = (*MULTITASK_ONLY_FIELDS, "mtl_batch_size")


def _dir_name(direction: str) -> str:
    return direction.replace("->", "-")


class ExperimentRunner:
    def __init__(self, config: ExperimentConfig):
        # rebuilt, so a field set after the config was made is checked too
        self.config = config = config_from_dict(config.to_dict())
        self.out = Path(config.out_dir)
        self.vocab_path = self.out / "vocab.txt"
        self.manifest_path = self.out / "manifest.json"
        self.manifest = {}
        if self.manifest_path.exists():
            self.manifest = json.loads(self.manifest_path.read_text())

    # --- stage machinery -----------------------------------------------------

    def _save_manifest(self):
        write_json(self.manifest_path, self.manifest)

    def _stage(self, name: str, inputs: dict, outputs, build, after: str | None = None) -> bool:
        """Run ``build`` unless this stage already completed with the same
        fingerprint and its outputs still exist. Returns True when built.
        The fingerprint is that of ``inputs`` plus, when the stage runs
        ``after`` an upstream stage, that stage's fingerprint under its kind
        (the part of its name before the first ``:``); an upstream stage
        that has not run is a ConfigError. A stage about to rebuild drops
        its old entry first, so a build that fails partway leaves no
        "completed" entry beside the outputs it overwrote. A built stage's
        entry also records its wall-clock ``seconds``, the process's
        ``peak_rss_mb`` when it ended and any fields of the dict ``build``
        returns; none bears on whether the stage is cached."""
        stages = self.manifest.setdefault("stages", {})
        if after is not None:
            if after not in stages:
                raise ConfigError(f"stage {after!r} has not run; run it before {name!r}")
            inputs = {**inputs, after.partition(":")[0]: stages[after]["fingerprint"]}
        fingerprint = config_fingerprint(inputs)
        outs = [str(p) for p in outputs]
        entry = stages.get(name)
        if (entry and entry.get("fingerprint") == fingerprint
                and entry.get("outputs") == outs and all(Path(p).exists() for p in outs)):
            logger.info("[%s] cached", name)
            return False
        logger.info("[%s] running", name)
        if stages.pop(name, None) is not None:
            self._save_manifest()
        start = time.perf_counter()
        try:
            extra = build() or {}
        except StageFailure:
            raise
        except Exception as e:
            raise StageFailure(name, e) from e
        stages[name] = {
            "fingerprint": fingerprint, "outputs": outs,
            "seconds": round(time.perf_counter() - start, 3),
            "peak_rss_mb": round(_peak_rss_mb(), 1), **extra}
        self._save_manifest()
        return True

    # --- prepare ---------------------------------------------------------------

    def _manifest_file(self, corpus: str) -> Path:
        return self.out / "manifests" / f"{corpus}.json"

    def prepare(self) -> bool:
        """Validate the corpora, build the shared vocabulary and persist the
        split manifests. A blank line or a carriage return in a corpus fails
        here with its file:line (see ``data.read_corpus``); lines that
        batching will truncate are counted in one warning. The stage's
        fingerprint covers each corpus file's SHA-256, so a corpus edited in
        place runs this stage, and every stage after it, again."""
        self.out.mkdir(parents=True, exist_ok=True)
        paths = self.config.corpus_files()
        corpus_sha256 = {path: _sha256_file(path) for path in paths}
        data = self.config.data
        mono_langs = sorted(data.mono_files)
        outputs = [self.vocab_path, self._manifest_file("parallel"),
                   *(self._manifest_file(f"mono_{l}") for l in mono_langs)]

        def build():
            (self.out / "manifests").mkdir(parents=True, exist_ok=True)
            corpora = [(path, read_corpus(path)) for path in paths]
            (src, src_lines), (tgt, tgt_lines), *mono = corpora  # mono in mono_langs order
            if len(src_lines) != len(tgt_lines):
                raise CorpusError(f"line counts differ: {src} has {len(src_lines)}, "
                                  f"{tgt} has {len(tgt_lines)}")
            _warn_over_length(corpora, data.tokenize_mode, self.config.model.max_len)
            vocab = build_vocab((line for _, lines in corpora for line in lines),
                                languages=self.config.languages,
                                mode=data.tokenize_mode, min_count=data.min_count)
            vocab.save(self.vocab_path)

            def write_manifest(corpus, n_lines, split_cfg):
                try:
                    idx = split_indices(n_lines, split_cfg)
                except CorpusError as e:
                    raise CorpusError(f"corpus {corpus!r}: {e}") from None
                payload = {"corpus": corpus, "n_lines": n_lines, "seed": split_cfg.seed,
                           "sizes": split_cfg.sizes(), "indices": idx}
                write_json(self._manifest_file(corpus), payload)

            seed = self.config.seed
            write_manifest("parallel", len(src_lines), SplitConfig(*data.parallel_split, seed=seed))
            for lang, (_, lines) in zip(mono_langs, mono):
                write_manifest(f"mono_{lang}", len(lines), SplitConfig(*data.mono_split, seed=seed))

        return self._stage("prepare", {"seed": self.config.seed, "corpus_sha256": corpus_sha256,
                                       "data": self.config.to_dict()["data"]}, outputs, build)

    def _load_vocab(self) -> Vocabulary:
        return Vocabulary.load(self.vocab_path, mode=self.config.data.tokenize_mode)

    def _splits(self, corpus: str, path) -> dict:
        """``{split: lines}`` of the corpus file ``path``, as ``prepare`` drew
        them into ``manifests/<corpus>.json``."""
        indices = json.loads(self._manifest_file(corpus).read_text())["indices"]
        lines = read_lines(path)
        return {split: [lines[i] for i in idx] for split, idx in indices.items()}

    def _direction_files(self, direction: str):
        a, _, b = direction.partition("->")
        data = self.config.data
        if a == data.src_lang:
            return a, b, data.parallel_src_file, data.parallel_tgt_file
        return a, b, data.parallel_tgt_file, data.parallel_src_file

    def check_mono_files(self) -> None:
        """Raise a ConfigError unless data.mono_files names both languages' corpora."""
        missing = sorted(set(self.config.languages) - self.config.data.mono_files.keys())
        if missing:
            raise ConfigError(f"multitask training needs monolingual corpora for {missing}; "
                              "set data.mono_files")

    def _run_dir(self, direction: str, regime: str) -> Path:
        return self.out / _dir_name(direction) / regime

    # --- train -------------------------------------------------------------------

    def train(self, direction: str, regime: str) -> Path:
        if regime not in REGIMES:
            raise ConfigError(f"regime must be one of {list(REGIMES)}, got {regime!r}")
        multitask = regime == "mtl"
        config, seed = self.config, self.config.seed
        run_dir = self._run_dir(direction, regime)
        ckpt_path = run_dir / "checkpoint.npz"
        log_path = run_dir / "metrics.tsv"
        sections = config.to_dict()
        train = {k: v for k, v in sections["train"].items()
                 if multitask or k not in _MULTITASK_ONLY}
        inputs = {"direction": direction, "regime": regime, "model": sections["model"],
                  "train": train, "optimizer": sections["optimizer"], "seed": seed}

        def build():
            src_lang, tgt_lang, src_file, tgt_file = self._direction_files(direction)
            run_dir.mkdir(parents=True, exist_ok=True)
            vocab = self._load_vocab()
            src, tgt = self._splits("parallel", src_file), self._splits("parallel", tgt_file)
            parallel = ParallelCorpus(src_lang, tgt_lang, {
                split: [ParallelExample(encode(s, vocab, src_lang), encode(t, vocab, tgt_lang))
                        for s, t in zip(src[split], tgt[split])]
                for split in ("train", "validation")})
            mono = {}
            if multitask:
                self.check_mono_files()
                for lang in (src_lang, tgt_lang):
                    lines = self._splits(f"mono_{lang}", config.data.mono_files[lang])["train"]
                    mono[lang] = MonolingualCorpus(lang, {"train": [encode(line, vocab, lang)
                                                                    for line in lines]})
            model_cfg = runtime_config(ModelConfig, config.model, vocab_size=len(vocab), seed=seed)
            model = init_params(model_cfg, multitask=multitask)
            freeze = (FreezeSpec.first_half_encoder(model)
                      if config.train.freeze == "first_half" else FreezeSpec.none())
            t = config.train
            batch_size = (t.mtl_batch_size if multitask and t.mtl_batch_size is not None
                          else t.batch_size)
            train_cfg = runtime_config(TrainConfig, t, batch_size=batch_size,
                                       max_len=config.model.max_len, seed=seed)
            # what translate needs to stand alone
            meta = {"src_lang": src_lang, "tgt_lang": tgt_lang, "regime": regime,
                    "vocab_sha": _sha256_file(self.vocab_path),
                    "tokenize_mode": config.data.tokenize_mode,
                    "model_config": dataclasses.asdict(model_cfg),
                    "multitask": multitask}
            log_path.unlink(missing_ok=True)
            result = train_loop(model, TrainData(vocab, parallel, mono), train_cfg,
                                config.optimizer, freeze_spec=freeze, log_path=log_path,
                                checkpoint_path=ckpt_path, meta=meta)
            return {"split_steps": result.split_steps, "blas_threads": result.blas_threads}

        self._stage(f"train:{direction}:{regime}", inputs, [ckpt_path, log_path], build,
                    after="prepare")
        return ckpt_path

    # --- translate ------------------------------------------------------------------

    def translate(self, direction: str, regime: str) -> Path:
        run_dir = self._run_dir(direction, regime)
        hyp_path = run_dir / "hypotheses.txt"
        ref_path = run_dir / "references.txt"

        def build():
            _, _, src_file, tgt_file = self._direction_files(direction)
            sources = self._splits("parallel", src_file)["test"]
            references = self._splits("parallel", tgt_file)["test"]
            translate_file(run_dir / "checkpoint.npz", self.vocab_path, sources, hyp_path,
                           self.config.decode)
            write_text_atomically(ref_path, "".join(" ".join(r.split()) + "\n" for r in references))

        self._stage(f"translate:{direction}:{regime}", {"decode": self.config.to_dict()["decode"]},
                    [hyp_path, ref_path], build, after=f"train:{direction}:{regime}")
        return hyp_path

    # --- evaluate ------------------------------------------------------------------

    def evaluate(self, direction: str, regime: str) -> Path:
        run_dir = self._run_dir(direction, regime)
        bleu_path = run_dir / "bleu.json"

        def build():
            ev = self.config.evaluation
            report = score_files(run_dir / "hypotheses.txt", run_dir / "references.txt",
                                 ev.max_n, ev.smoothing_k, ev.aggregate == "macro")
            write_json(bleu_path, dataclasses.asdict(report))

        self._stage(f"evaluate:{direction}:{regime}",
                    {"evaluation": self.config.to_dict()["evaluation"]}, [bleu_path], build,
                    after=f"translate:{direction}:{regime}")
        return bleu_path

    # --- the whole protocol -----------------------------------------------------------

    def run(self) -> ComparisonReport:
        self.check_mono_files()
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest["config_fingerprint"] = config_fingerprint(self.config.to_dict())
        self.manifest["seed"] = self.config.seed
        self.config.save(self.out / "config.json")
        self.prepare()
        scores = {regime: {} for regime in REGIMES}  # regime -> direction -> BLEU
        for direction in self.config.directions:
            for regime in REGIMES:
                self.train(direction, regime)
                self.translate(direction, regime)
                bleu_path = self.evaluate(direction, regime)
                scores[regime][direction] = json.loads(bleu_path.read_text())["bleu"]
        report = compare_report(*scores.values(), self.config.directions)
        write_text_atomically(self.out / "report.txt", report.render_table(scale=100) + "\n")
        write_text_atomically(self.out / "report.tsv", report.render_rows(scale=100) + "\n")
        self._save_manifest()
        return report


def translate_file(checkpoint, vocab_path, lines, output, decode_settings) -> None:
    """Beam-decode the raw source ``lines`` with the model saved in
    ``checkpoint`` into ``output``, one hypothesis a line. The checkpoint's
    ``meta`` names the languages, the tokenize mode and the hash that
    ``vocab_path`` must match; ``decode_settings`` has a ``DecodeSection``'s
    fields. Only the checkpoint's parameters are read. The lines are
    decoded in chunks of ``sources_per_chunk`` and each chunk's hypotheses
    stream into a temporary file that replaces ``output`` when done."""
    ckpt = load_checkpoint(checkpoint, params_only=True)
    meta = ckpt.meta
    missing = [key for key in ("model_config", "vocab_sha", "tokenize_mode", "src_lang",
                               "tgt_lang", "multitask") if key not in meta]
    if missing:
        raise ConfigError(f"{checkpoint}: checkpoint carries no translation metadata {missing}")
    vocab = Vocabulary.load(vocab_path, mode=meta["tokenize_mode"])
    if _sha256_file(vocab_path) != meta["vocab_sha"]:
        raise ConfigError(f"{vocab_path}: vocabulary does not match the checkpoint fingerprint")
    model = init_params(ModelConfig(**meta["model_config"]), multitask=meta["multitask"])
    restore_checkpoint(model, None, ckpt)
    model.eval()
    decode_cfg = decode_config(decode_settings, vocab, meta["tgt_lang"], model.config.max_len)
    n = sources_per_chunk(model.config, decode_cfg)

    def write(f):
        for start in range(0, len(lines), n):
            for hyp in translate_lines(model, lines[start:start + n], vocab, meta["src_lang"],
                                       decode_cfg):
                f.write((hyp + "\n").encode("utf-8"))

    write_atomically(output, write)


def score_files(hypotheses, references, max_n: int, k: float, macro: bool) -> BleuReport:
    """``corpus_bleu`` of a hypothesis file against a reference file, line
    by line; files with different line counts are a ConfigError."""
    hyps, refs = read_lines(hypotheses), read_lines(references)
    if len(hyps) != len(refs):
        raise ConfigError(
            f"line counts differ: {hypotheses} has {len(hyps)}, {references} has {len(refs)}")
    return corpus_bleu([(h.split(), r.split()) for h, r in zip(hyps, refs)],
                       max_n=max_n, k=k, macro=macro)


def translate_lines(model, lines, vocab: Vocabulary, src_lang: str, decode_cfg) -> list:
    """Beam-decode raw source lines, as one batch, into target-language text;
    a line over the model's ``token_budget`` is truncated to it, as in
    batching."""
    budget = token_budget(model.config.max_len)
    sources = [frame_source(encode(line, vocab, src_lang).ids[:budget], vocab, src_lang)
               for line in lines]
    return [decode([t for t in hyps[0].tokens if not vocab.is_special(t)], vocab)
            for hyps in beam_search_batch(model, sources, decode_cfg)]


# --- presets --------------------------------------------------------------------------


def make_preset(name: str, out_dir, seed: int = 0) -> ExperimentConfig:
    """Build one of the shipped experiment presets. A preset states only the
    fields it sets apart from the config's defaults.

    smoke and desk generate their own synthetic bilingual fixture under
    <out_dir>/data and run both directions; desk keeps the default model,
    training and optimizer. paper-faithful mirrors the full-scale protocol
    (splits, batch asymmetry, constant 1e-5 learning rate, 12+12 layers,
    freeze the first half) and expects real corpus paths to be filled in.
    """
    config_from_dict({"seed": seed})  # checks the seed as a loaded config does, before any write
    out_dir = str(out_dir)
    if name == "paper-faithful":
        return config_from_dict({
            "seed": seed,
            "out_dir": out_dir,
            "data": {"src_lang": "mr", "tgt_lang": "hi", "parallel_split": [100_000, 20_000, 5_000],
                     "mono_split": [70_000, 0, 0]},
            "model": {"d_model": 1024, "n_heads": 16, "n_enc_layers": 12, "n_dec_layers": 12,
                      "d_ff": 4096, "max_len": 256},
            "train": {"steps": None, "epochs": 1, "mtl_batch_size": 2, "log_interval": 500},
            "optimizer": {"lr": PAPER_LR},
            "decode": {"max_decode_len": 128},
        })
    if name == "smoke":
        corpus = {"n_parallel": 140, "n_mono": 80, "vocab_size": 20, "max_len": 6}
        sections = {
            "data": {"parallel_split": [120, 10, 10], "mono_split": [80, 0, 0]},
            "model": {"d_model": 32, "n_heads": 2, "n_enc_layers": 2, "n_dec_layers": 2,
                      "d_ff": 64, "max_len": 24},
            "train": {"steps": 120, "batch_size": 8, "log_interval": 20},
            "optimizer": {"lr": 1e-3},
            "decode": {"max_decode_len": 12},
        }
    elif name == "desk":
        corpus = {"n_parallel": 260, "n_mono": 150, "vocab_size": 30, "max_len": 8}
        sections = {"data": {"parallel_split": [200, 30, 30], "mono_split": [150, 0, 0]},
                    "decode": {"max_decode_len": 24}}
    else:
        raise ConfigError(f"unknown preset {name!r}; choose smoke, desk or paper-faithful")
    files = synthetic.generate_pair(Path(out_dir) / "data", seed=seed, **corpus)
    sections["data"].update(parallel_src_file=files["parallel_src"],
                            parallel_tgt_file=files["parallel_tgt"],
                            mono_files={"aa": files["mono_aa"], "bb": files["mono_bb"]})
    return config_from_dict({"seed": seed, "out_dir": out_dir, "directions": ["aa->bb", "bb->aa"],
                             **sections})
