import dataclasses
import functools
import json
import logging
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from minimt import training
from minimt.cli import build_parser, main
from minimt.config import (
    ConfigError,
    DecodeSection,
    EvaluationSection,
    ExperimentConfig,
    config_from_dict,
    load_config,
    runtime_config,
)
from minimt.data import CorpusError, SplitConfig, build_vocab, encode, split_indices
from minimt.experiment import ExperimentRunner, StageFailure, make_preset


def fast_smoke(out_dir, seed=0, steps=6):
    config = make_preset("smoke", out_dir, seed=seed)
    config.train.steps = steps
    config.train.log_interval = 3
    return config


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One fast end-to-end experiment shared by the command tests."""
    out = tmp_path_factory.mktemp("smoke_run")
    config = fast_smoke(out)
    config_path = out / "exp.json"
    config.save(config_path)
    report = ExperimentRunner(config).run()
    return out, config_path, report


# --- config file ------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    config = fast_smoke(tmp_path / "run")
    path = tmp_path / "config.json"
    config.save(path)
    loaded = load_config(path)
    assert loaded.to_dict() == config.to_dict()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"seeed": 3})
    with pytest.raises(ConfigError, match="model.*unknown|unknown key"):
        config_from_dict({"model": {"d_modell": 8}})
    # a removed option is an unknown key like any other
    with pytest.raises(ConfigError, match=r"config\.decode: unknown key.*penalize_during_search"):
        config_from_dict({"decode": {"penalize_during_search": False}})
    with pytest.raises(ConfigError, match=r"config\.train: unknown key.*mixing"):
        config_from_dict({"train": {"mixing": "joint"}})


@pytest.mark.parametrize("payload, section", [
    ({"decode": {"penalty_form": "bogus"}}, "decode"),
    ({"train": {"clip_norm": -1.0}}, "train"),
    ({"train": {"mtl_batch_size": 0}}, "train"),
    ({"model": {"d_model": 30, "n_heads": 4}}, "model"),
    ({"optimizer": {"lr": 0}}, "optimizer"),
    ({"train": {"clip_norm": 0}}, "train"),
    ({"train": {"clm_loss_weight": -2}}, "train"),
    ({"train": {"clm_loss_weight": float("nan")}}, "train"),
    ({"evaluation": {"max_n": 0}}, "evaluation"),
    ({"evaluation": {"smoothing_k": 0}}, "evaluation"),
    ({"train": {"freeze": "all"}}, "train"),
    ({"evaluation": {"aggregate": "mean"}}, "evaluation"),
    ({"data": {"parallel_split": [-5, 10, 10]}}, "data"),
    ({"data": {"mono_split": [1.5, 0]}}, "data"),
    ({"data": {"parallel_split": [80, 10, 10, 3]}}, "data"),
    ({"model": {"max_len": 2}}, "model"),
    ({"model": {"max_len": 1}}, "model"),
    ({"data": {"parallel_split": [120, 10, 0]}}, "data"),
    ({"data": {"parallel_split": [0, 10, 10]}}, "data"),
    ({"data": {"mono_files": {"aa": "mono.aa"}, "mono_split": [0, 0, 0]}}, "data"),
    ({"data": {"tokenize_mode": "bogus"}}, "data"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"directions": "aa->bb"}, "directions"),
    ({"optimizer": {"lr": float("nan")}}, "optimizer"),
    ({"optimizer": {"lr": float("inf")}}, "optimizer"),
    ({"optimizer": {"eps": float("nan")}}, "optimizer"),
    ({"optimizer": {"eps": float("inf")}}, "optimizer"),
    ({"decode": {"length_penalty": float("nan")}}, "decode"),
    ({"decode": {"length_penalty": float("inf")}}, "decode"),
    ({"decode": {"length_penalty": float("-inf")}}, "decode"),
    ({"decode": {"beam_size": 2.5}}, "decode"),
    ({"train": {"batch_size": 2.5}}, "train"),
    ({"train": {"steps": True}}, "train"),
    ({"model": {"d_model": 32.0, "n_heads": 2}}, "model"),
    ({"decode": {"max_decode_len": 3.5}}, "decode"),
    ({"directions": ["aa->bb", 3]}, "directions"),
    ({"data": {"parallel_split": [80.0, 10, 10]}}, "data"),
    ({"train": {"log_interval": 0}}, "train"),
])
def test_config_rejects_bad_values(payload, section):
    with pytest.raises(ConfigError, match=rf"^config\.{section}: ") as err:
        config_from_dict(payload)
    bad = payload[section]
    assert any(str(v) in str(err.value)
               for v in (bad.values() if isinstance(bad, dict) else [bad]))  # echoed
    if isinstance(bad, dict):  # and a section's field named
        assert any(field in str(err.value) for field in bad)


@pytest.mark.parametrize("field, value", [
    ("clip_norm", 0),
    ("log_interval", 0),
    ("steps", None),
    ("clm_loss_weight", -2),
])
def test_a_bad_train_value_gets_one_message_from_the_loader_and_train_config(field, value):
    with pytest.raises(ValueError) as direct:
        training.TrainConfig(**{field: value})
    with pytest.raises(ConfigError) as loaded:
        config_from_dict({"train": {field: value}})
    assert str(loaded.value) == f"config.train: {direct.value}"


def test_the_train_sections_defaults_are_train_configs():
    """train_loop's settings and their defaults are declared once."""
    train = ExperimentConfig().train
    assert runtime_config(training.TrainConfig, train, max_len=64, seed=0) == training.TrainConfig()


def test_a_float_field_takes_an_integer_and_keeps_it():
    payload = {"train": {"clm_loss_weight": 0}, "optimizer": {"lr": 1}}
    config = config_from_dict(payload)
    assert (config.train.clm_loss_weight, config.optimizer.lr) == (0, 1)
    assert json.dumps(config.to_dict()["optimizer"]["lr"]) == "1"  # as config.json writes it


def test_each_sections_keys_and_defaults_are_pinned():
    """config.json and every stage fingerprint are JSON of these dicts, so a
    change to a section's keys or defaults shows up here."""
    assert config_from_dict({}).to_dict() == {
        "seed": 0, "out_dir": "runs/experiment", "directions": ["aa->bb"],
        "data": {"src_lang": "aa", "tgt_lang": "bb", "parallel_src_file": "",
                 "parallel_tgt_file": "", "mono_files": {}, "parallel_split": [80, 10, 10],
                 "mono_split": [50, 0, 0], "tokenize_mode": "word", "min_count": 1},
        "model": {"d_model": 64, "n_heads": 4, "n_enc_layers": 4, "n_dec_layers": 4,
                  "d_ff": 256, "max_len": 64, "dropout_rate": 0.0, "tie_projections": True},
        "train": {"steps": 300, "epochs": None, "batch_size": 16, "mtl_batch_size": None,
                  "clm_batch_size": None, "log_interval": 50, "checkpoint_interval": None,
                  "clm_loss_weight": 1.0, "clip_norm": None, "freeze": "first_half"},
        "optimizer": {"lr": 3e-4, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
        "decode": {"beam_size": 2, "length_penalty": 1.2, "max_decode_len": 32,
                   "penalty_form": "pow"},
        "evaluation": {"max_n": 4, "smoothing_k": 5.0, "aggregate": "corpus"},
    }


@pytest.mark.parametrize("section, field, literal", [
    ("optimizer", "lr", "NaN"),
    ("optimizer", "lr", "Infinity"),
    ("optimizer", "eps", "NaN"),
    ("decode", "length_penalty", "NaN"),
    ("decode", "length_penalty", "-Infinity"),
])
def test_a_non_finite_literal_in_a_config_file_fails_at_load(tmp_path, section, field, literal):
    path = tmp_path / "c.json"
    path.write_text(f'{{"{section}": {{"{field}": {literal}}}}}')  # json.load reads these
    with pytest.raises(ConfigError, match=rf"^config\.{section}: {field} must be finite"):
        load_config(path)


def test_command_line_overrides_are_checked_like_the_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    fast_smoke(tmp_path / "run").save(path)
    assert main(["prepare", "--config", str(path), "--seed", "-1"]) == 1
    assert "config.seed: must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifests").exists()


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "config.seed: must be an integer >= 0, got -1"),
    ("data.tokenize_mode", "bogus", "config.data: tokenize_mode must be one of"),
    ("train.clip_norm", 0, "config.train: clip_norm must be > 0 when set, got 0"),
])
def test_the_runner_checks_a_field_set_after_the_config_was_made(tmp_path, field, value,
                                                                 message):
    config = make_preset("smoke", tmp_path / "run")
    assert ExperimentRunner(config).config == config
    *parents, name = field.split(".")
    setattr(functools.reduce(getattr, parents, config), name, value)
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentRunner(config)
    assert not (tmp_path / "run" / "manifests").exists()


def test_config_rejects_bad_direction():
    with pytest.raises(ConfigError, match="direction"):
        config_from_dict({"directions": ["aa->zz"]})


def test_preset_paper_faithful_protocol():
    config = make_preset("paper-faithful", "/tmp/unused")
    assert config.data.parallel_split == [100_000, 20_000, 5_000]
    assert config.data.mono_split == [70_000, 0, 0]
    assert config.train.batch_size == 16
    assert config.train.mtl_batch_size == 2
    assert config.train.epochs == 1 and config.train.steps is None
    assert config.optimizer.lr == 1e-5
    assert config.model.n_enc_layers == config.model.n_dec_layers == 12
    assert config.train.freeze == "first_half"
    assert config.decode.beam_size == 2
    assert config.decode.length_penalty == 1.2
    # its corpus paths are left for the user to fill in, and prepare says so
    with pytest.raises(ConfigError, match=r"no corpus path given for \['parallel_src_file'"):
        config.corpus_files()


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        make_preset("warp-speed", "/tmp/x")


def test_experiment_preset_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["experiment", "--preset", "smoke", "--seed", "-1", "--out-dir", str(out)]) == 1
    assert "config.seed: must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_a_config_beside_a_preset(tmp_path, capsys):
    path = tmp_path / "c.json"
    fast_smoke(tmp_path / "from-config").save(path)
    out = tmp_path / "run"
    assert main(["experiment", "--preset", "smoke", "--config", str(path),
                 "--out-dir", str(out)]) == 1
    assert "--preset and --config exclude each other" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "from-config" / "manifests").exists()


# --- prepare -------------------------------------------------------------------------

def test_prepare_manifests_have_exact_sizes(trained_run):
    out, _, _ = trained_run
    manifest = json.loads((out / "manifests" / "parallel.json").read_text())
    assert {k: len(v) for k, v in manifest["indices"].items()} == {
        "train": 120, "validation": 10, "test": 10}
    assert (out / "vocab.txt").exists()


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    runner = ExperimentRunner(fast_smoke(tmp_path / "run"))
    runner.prepare()
    before = runner.manifest_path.read_text()
    runner.manifest["stages"]["extra"] = {}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        runner._save_manifest()
    monkeypatch.undo()
    assert runner.manifest_path.read_text() == before
    assert [p.name for p in runner.out.iterdir() if p.name.endswith(".tmp")] == []
    assert ExperimentRunner(runner.config).manifest == json.loads(before)


def test_prepare_rerun_is_identical(tmp_path, capsys):
    config = fast_smoke(tmp_path / "run", seed=3)
    path = tmp_path / "c.json"
    config.save(path)
    assert main(["prepare", "--config", str(path)]) == 0
    first = (tmp_path / "run" / "manifests" / "parallel.json").read_bytes()
    assert main(["prepare", "--config", str(path)]) == 0
    assert "cached" in capsys.readouterr().out
    assert (tmp_path / "run" / "manifests" / "parallel.json").read_bytes() == first


def test_prepare_oversize_split_names_corpus(tmp_path, capsys):
    config = fast_smoke(tmp_path / "run", seed=1)
    config.data.parallel_split = [10_000, 0, 10]
    path = tmp_path / "c.json"
    config.save(path)
    assert main(["prepare", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "parallel" in err and "prepare" in err and "only 140 lines" in err
    # an empty monolingual corpus cannot hold its train split either
    config = fast_smoke(tmp_path / "mono", seed=1)
    Path(config.data.mono_files["aa"]).write_bytes(b"")
    with pytest.raises(StageFailure, match="corpus 'mono_aa': .* only 0 lines"):
        ExperimentRunner(config).prepare()
    # nor can a parallel pair whose sides have different line counts
    config = fast_smoke(tmp_path / "pair", seed=1)
    tgt = Path(config.data.parallel_tgt_file)
    tgt.write_text("".join(tgt.read_text(encoding="utf-8").splitlines(True)[:-1]),
                   encoding="utf-8")
    with pytest.raises(StageFailure, match=rf"line counts differ: .* has 140, "
                                           rf"{re.escape(str(tgt))} has 139"):
        ExperimentRunner(config).prepare()


def rewrite_line(path, index, text):
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    lines[index] = text
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def test_blank_test_reference_fails_at_prepare_not_at_evaluate(tmp_path, capsys):
    config = fast_smoke(tmp_path / "run")
    tgt = config.data.parallel_tgt_file
    n_lines = len(Path(tgt).read_text(encoding="utf-8").splitlines())
    split = SplitConfig(*config.data.parallel_split, seed=config.seed)
    i = split_indices(n_lines, split)["test"][0]
    rewrite_line(tgt, i, "  ")
    path = tmp_path / "c.json"
    config.save(path)
    assert main(["experiment", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"stage 'prepare' failed: {tgt}:{i + 1}: blank line" in err
    assert not (tmp_path / "run" / "aa-bb").exists()  # no regime was trained


@pytest.mark.parametrize("corpus, ending", [("parallel_src_file", "\r\n"),
                                            ("mono_aa", "\r")])
def test_carriage_returns_fail_at_prepare_with_file_and_line(tmp_path, corpus, ending):
    config = fast_smoke(tmp_path / "run")
    path = (config.data.mono_files["aa"] if corpus == "mono_aa"
            else getattr(config.data, corpus))
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    # universal newlines would read a lone CR as a line break, adding a line
    Path(path).write_bytes("\n".join(lines[:2] + [lines[2] + ending + lines[3]] + lines[4:])
                          .encode("utf-8"))
    with pytest.raises(StageFailure, match=re.escape(f"{path}:3: carriage return")) as info:
        ExperimentRunner(config).prepare()
    assert isinstance(info.value.cause, CorpusError)


def test_over_length_lines_are_counted_in_one_warning_at_prepare(tmp_path, caplog):
    config = fast_smoke(tmp_path / "run")
    config.model.max_len = 6  # 4 tokens after the language tag and EOS
    files = [config.data.parallel_src_file, config.data.parallel_tgt_file,
             *(config.data.mono_files[l] for l in sorted(config.data.mono_files))]
    over = [(f, n) for f in files
            for n, line in enumerate(Path(f).read_text(encoding="utf-8").splitlines(), 1)
            if len(line.split()) > 4]
    assert over
    with caplog.at_level(logging.WARNING, logger="minimt.experiment"):
        ExperimentRunner(config).prepare()
    warnings = [r.getMessage() for r in caplog.records if r.name == "minimt.experiment"]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{len(over)} corpus lines have more than 4 tokens")
    assert warnings[0].endswith(f"the first is {over[0][0]}:{over[0][1]}")


# --- train ---------------------------------------------------------------------------

def test_train_baseline_warns_about_mono(tmp_path, caplog):
    config = fast_smoke(tmp_path / "run", steps=2)
    path = tmp_path / "c.json"
    config.save(path)
    with caplog.at_level("WARNING"):
        assert main(["train", "--config", str(path), "--mode", "baseline",
                     "--direction", "aa->bb"]) == 0
    assert "ignores" in caplog.text
    assert (tmp_path / "run" / "aa-bb" / "baseline" / "checkpoint.npz").exists()
    assert (tmp_path / "run" / "aa-bb" / "baseline" / "metrics.tsv").exists()


def test_train_mtl_requires_mono(tmp_path, capsys):
    config = fast_smoke(tmp_path / "run", steps=2)
    config.data.mono_files = {}
    path = tmp_path / "c.json"
    config.save(path)
    assert main(["train", "--config", str(path), "--mode", "mtl"]) == 1
    assert "monolingual" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifests").exists()  # checked before prepare


def test_an_experiment_without_mono_corpora_fails_before_any_stage(tmp_path):
    config = fast_smoke(tmp_path / "run", steps=2)
    config.data.mono_files = {}
    with pytest.raises(ConfigError, match=r"monolingual corpora for \['aa', 'bb'\]"):
        ExperimentRunner(config).run()
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_train_checks_the_direction_before_prepare(tmp_path, capsys):
    path = tmp_path / "c.json"
    fast_smoke(tmp_path / "run", steps=2).save(path)
    assert main(["train", "--config", str(path), "--mode", "baseline",
                 "--direction", "xx->yy"]) == 1
    assert "direction 'xx->yy' is not in the config's directions" in capsys.readouterr().err
    assert not (tmp_path / "run" / "manifests").exists()


# --- translate ------------------------------------------------------------------------

def test_translate_empty_input(trained_run, tmp_path):
    out, _, _ = trained_run
    src = tmp_path / "empty.txt"
    src.write_text("")
    dst = tmp_path / "out.txt"
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "baseline" / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"),
                 "--input", str(src), "--output", str(dst)]) == 0
    assert dst.read_text() == ""


def test_translate_rerun_byte_identical(trained_run, tmp_path):
    out, _, _ = trained_run
    src = tmp_path / "in.txt"
    src.write_text("ka1 ka2 ka3\nka4 ka0\n")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for dst in (a, b):
        assert main(["translate",
                     "--checkpoint", str(out / "aa-bb" / "mtl" / "checkpoint.npz"),
                     "--vocab", str(out / "vocab.txt"),
                     "--input", str(src), "--output", str(dst)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 2


def test_translate_truncates_a_line_over_the_token_budget(trained_run, tmp_path):
    out, config_path, _ = trained_run
    max_len = load_config(config_path).model.max_len
    words = [f"ka{i % 5}" for i in range(max_len + 5)]
    src = tmp_path / "in.txt"
    # the whole line, then the part of it that fits beside the language tag and EOS
    src.write_text(" ".join(words) + "\n" + " ".join(words[:max_len - 2]) + "\n")
    dst = tmp_path / "out.txt"
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "mtl" / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"),
                 "--input", str(src), "--output", str(dst)]) == 0
    whole, truncated = dst.read_text().splitlines()
    assert whole == truncated


@pytest.mark.parametrize("mode", ["word", "char"])
def test_translate_lines_joins_tokens_as_the_vocabulary_mode_does(monkeypatch, mode):
    from minimt import experiment
    target = "zo13 zo15"
    vocab = build_vocab([target, "ka1 ka2"], languages=["aa", "bb"], mode=mode)
    ids = encode(target, vocab, "bb").ids
    best = SimpleNamespace(tokens=[vocab.lang_id("bb"), *ids, vocab.eos_id])
    monkeypatch.setattr(experiment, "beam_search_batch",
                        lambda model, sources, cfg: [[best] for _ in sources])
    model = SimpleNamespace(config=SimpleNamespace(max_len=16))
    assert experiment.translate_lines(model, ["ka1 ka2", "ka2"], vocab, "aa", None) == \
        [target, target]


def test_translate_reads_the_checkpoint_once(trained_run, tmp_path, monkeypatch):
    from minimt import experiment, training
    loads = []

    def counting_load(*args, **kwargs):
        loads.append(args[0])
        return training.load_checkpoint(*args, **kwargs)

    monkeypatch.setattr(experiment, "load_checkpoint", counting_load)
    out, _, _ = trained_run
    src = tmp_path / "in.txt"
    src.write_text("ka1 ka2\n")
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "mtl" / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"),
                 "--input", str(src), "--output", str(tmp_path / "o.txt")]) == 0
    assert len(loads) == 1


def test_translate_reads_no_adam_moments(trained_run, tmp_path, monkeypatch):
    read = []
    real_getitem = np.lib.npyio.NpzFile.__getitem__

    def recording_getitem(archive, key):
        read.append(key)
        return real_getitem(archive, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
    out, _, _ = trained_run
    ckpt = out / "aa-bb" / "mtl" / "checkpoint.npz"
    src = tmp_path / "in.txt"
    src.write_text("ka1 ka2\n")
    assert main(["translate", "--checkpoint", str(ckpt), "--vocab", str(out / "vocab.txt"),
                 "--input", str(src), "--output", str(tmp_path / "o.txt")]) == 0
    with np.load(ckpt) as archive:
        members = archive.files
    assert any(m.startswith("adam_m:") for m in members)
    assert sorted(read) == sorted(m for m in members if not m.startswith(("adam_m:", "adam_v:")))


def test_translate_rejects_foreign_vocab(trained_run, tmp_path, capsys):
    out, _, _ = trained_run
    bad_vocab = tmp_path / "vocab.txt"
    bad_vocab.write_text((out / "vocab.txt").read_text() + "extra_token\n")
    src = tmp_path / "in.txt"
    src.write_text("ka1\n")
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "baseline" / "checkpoint.npz"),
                 "--vocab", str(bad_vocab),
                 "--input", str(src), "--output", str(tmp_path / "o.txt")]) == 1
    assert "vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_translate_rejects_a_non_finite_length_penalty(trained_run, tmp_path, capsys, value):
    out, _, _ = trained_run
    src = tmp_path / "in.txt"
    src.write_text("ka1\n")
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "baseline" / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"), "--input", str(src),
                 "--output", str(tmp_path / "o.txt"), "--length-penalty", value]) == 1
    err = capsys.readouterr().err
    assert f"error: translate: length_penalty must be finite, got {value}" in err
    assert not (tmp_path / "o.txt").exists()


def test_translate_failing_partway_keeps_the_previous_output(trained_run, tmp_path,
                                                             monkeypatch, capsys):
    from minimt import experiment
    out, _, _ = trained_run
    src = tmp_path / "in.txt"
    src.write_text("ka1 ka2\nka3\nka4\n")
    dst = tmp_path / "out.txt"
    dst.write_text("an earlier translation\n")
    decoded = []

    def crash_on_second_chunk(*args, **kwargs):
        decoded.append(args[1])
        if len(decoded) == 2:
            raise RuntimeError("decoder crashed")
        return translate_lines(*args, **kwargs)

    def two_per_chunk(model_config, config):
        return 2

    translate_lines = experiment.translate_lines
    monkeypatch.setattr(experiment, "translate_lines", crash_on_second_chunk)
    monkeypatch.setattr(experiment, "sources_per_chunk", two_per_chunk)
    assert main(["translate",
                 "--checkpoint", str(out / "aa-bb" / "mtl" / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"),
                 "--input", str(src), "--output", str(dst)]) == 1
    assert "decoder crashed" in capsys.readouterr().err
    assert decoded == [["ka1 ka2", "ka3"], ["ka4"]]
    assert dst.read_text() == "an earlier translation\n"
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


# --- evaluate -------------------------------------------------------------------------

def test_evaluate_identical_files_is_100(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    text = "the cat sat on the mat\nhello beautiful translated world\n"
    hyp.write_text(text)
    ref.write_text(text)
    assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(ref)]) == 0
    assert "BLEU = 100.00" in capsys.readouterr().out


def test_evaluate_matches_module_fixture(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a b x y\n")
    ref.write_text("a b c d\n")
    assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(ref)]) == 0
    assert "BLEU = 16.82" in capsys.readouterr().out


def test_evaluate_line_count_mismatch(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    ref = tmp_path / "r.txt"
    hyp.write_text("a\nb\n")
    ref.write_text("a\n")
    assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(ref)]) == 1
    assert "line counts differ" in capsys.readouterr().err


@pytest.mark.parametrize("flag, setting", [("--max-n", "max_n"), ("--k", "smoothing_k")])
def test_evaluate_rejects_a_zero_bleu_setting(tmp_path, capsys, flag, setting):
    hyp = tmp_path / "h.txt"
    hyp.write_text("a b x y\n")
    assert main(["evaluate", "--hypotheses", str(hyp), "--references", str(hyp),
                 flag, "0"]) == 1
    assert re.search(rf"^error: evaluate: {setting} must be .*, got 0", capsys.readouterr().err)


def test_translate_and_evaluate_commands_reproduce_the_stages(trained_run, tmp_path, capsys):
    out, config_path, _ = trained_run
    config = load_config(config_path)
    run = out / "aa-bb" / "mtl"
    test = json.loads((out / "manifests" / "parallel.json").read_text())["indices"]["test"]
    lines = Path(config.data.parallel_src_file).read_text().splitlines()
    src = tmp_path / "test.aa"
    src.write_text("".join(lines[i] + "\n" for i in test))
    decode = config.decode
    assert main(["translate", "--checkpoint", str(run / "checkpoint.npz"),
                 "--vocab", str(out / "vocab.txt"), "--input", str(src),
                 "--output", str(tmp_path / "hyp.txt"),
                 "--beam-size", str(decode.beam_size),
                 "--length-penalty", repr(decode.length_penalty),
                 "--max-decode-len", str(decode.max_decode_len),
                 "--penalty-form", decode.penalty_form]) == 0
    assert (tmp_path / "hyp.txt").read_bytes() == (run / "hypotheses.txt").read_bytes()

    capsys.readouterr()
    assert main(["evaluate", "--hypotheses", str(run / "hypotheses.txt"),
                 "--references", str(run / "references.txt")]) == 0
    bleu = json.loads((run / "bleu.json").read_text())["bleu"]
    assert f"BLEU = {bleu * 100:.2f} " in capsys.readouterr().out


def test_translate_and_evaluate_defaults_are_the_config_sections_defaults():
    defaults = {f.name: f.default for section in (DecodeSection, EvaluationSection)
                for f in dataclasses.fields(section)}
    translate = build_parser().parse_args(["translate", "--checkpoint", "c", "--vocab", "v",
                                           "--input", "i", "--output", "o"])
    names = ("beam_size", "length_penalty", "max_decode_len", "penalty_form")
    assert {n: getattr(translate, n) for n in names} == {n: defaults[n] for n in names}
    evaluate = build_parser().parse_args(["evaluate", "--hypotheses", "h", "--references", "r"])
    assert (evaluate.max_n, evaluate.k) == (defaults["max_n"], defaults["smoothing_k"])


# --- experiment -----------------------------------------------------------------------

def test_experiment_report_shape(trained_run):
    out, _, report = trained_run
    assert [r.direction for r in report.rows] == ["aa->bb", "bb->aa"]
    table = (out / "report.txt").read_text()
    assert "baseline" in table and "MTL" in table and "relative" in table
    tsv = (out / "report.tsv").read_text().strip().splitlines()
    assert len(tsv) == 2
    for row in report.rows:
        assert row.relative == pytest.approx((row.mtl - row.baseline) / row.baseline)
        assert row.delta == pytest.approx(row.mtl - row.baseline)


def test_experiment_rerun_hits_cache(trained_run, capsys):
    out, config_path, report = trained_run
    assert main(["-v", "experiment", "--config", str(config_path)]) == 0
    captured = capsys.readouterr()
    # every stage but the cheap report assembly is cached
    assert "running" not in captured.err + captured.out.replace("cached", "")
    again = (out / "report.txt").read_text()
    for row in report.rows:
        assert f"{row.baseline * 100:.2f}" in again


def test_experiment_outputs_laid_out_per_direction_and_regime(trained_run):
    out, _, _ = trained_run
    for d in ("aa-bb", "bb-aa"):
        for regime in ("baseline", "mtl"):
            base = out / d / regime
            for artifact in ("checkpoint.npz", "metrics.tsv", "hypotheses.txt",
                             "references.txt", "bleu.json"):
                assert (base / artifact).exists(), f"{d}/{regime}/{artifact}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config_fingerprint" in manifest
    assert len(manifest["stages"]) == 1 + 4 * 3  # prepare + 4 runs x (train, translate, evaluate)


def test_a_corpus_edited_in_place_runs_every_stage_again(tmp_path, caplog):
    config = fast_smoke(tmp_path / "run", steps=2)
    ExperimentRunner(config).run()
    stages = list(json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"])
    assert len(stages) == 13
    # the same line count, so the split manifests cannot tell the difference
    tgt = Path(config.data.parallel_tgt_file)
    lines = tgt.read_text(encoding="utf-8").splitlines()
    tgt.write_text("".join(" ".join(reversed(line.split())) + "\n" for line in lines),
                   encoding="utf-8")
    for state in ("running", "cached"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="minimt.experiment"):
            ExperimentRunner(config).run()
        assert sorted(m for m in caplog.messages if m.endswith(f"] {state}")) == [
            f"[{name}] {state}" for name in sorted(stages)]


def test_manifest_records_stage_time_and_memory(trained_run):
    from minimt.experiment import _peak_rss_mb
    out, config_path, _ = trained_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert len(stages) == 1 + 4 * 3
    for name, entry in stages.items():
        assert isinstance(entry["seconds"], float) and entry["seconds"] >= 0, name
        # the run happened in this process, whose peak can only have grown since
        assert 10 < entry["peak_rss_mb"] <= _peak_rss_mb() + 0.1, name
    assert all(stages[name]["seconds"] > 0 for name in stages if name.startswith("train:"))

    # the cache is keyed on fingerprint and outputs, not on what a run measured
    runner = ExperimentRunner(load_config(config_path))
    runner.manifest["stages"]["prepare"].update(seconds=-1.0, peak_rss_mb=-1.0)
    assert runner.prepare() is False
    assert runner.manifest["stages"]["prepare"]["seconds"] == -1.0


def test_manifest_records_split_steps(trained_run, tmp_path, monkeypatch):
    out, _, _ = trained_run
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    trains = [name for name in stages if name.startswith("train:")]
    assert len(trains) == 4
    # smoke steps are small: every one of the 6 runs whole
    assert all(stages[name]["split_steps"] == {"whole": 6} for name in trains)
    readable = training.blas_threads() is not None
    assert all((stages[name]["blas_threads"] >= 1) if readable else
               stages[name]["blas_threads"] is None for name in trains)
    assert all(key not in entry for name, entry in stages.items() if name not in trains
               for key in ("split_steps", "blas_threads"))
    assert all(key not in entry for entry in stages.values()
               for key in ("sharded_steps", "task_split_steps"))

    monkeypatch.setattr(training, "SHARD_MIN_POSITIONS", 1)
    monkeypatch.setattr(training, "_usable_cores", lambda: 2)
    runner = ExperimentRunner(fast_smoke(tmp_path / "run", steps=4))
    runner.prepare()
    runner.train("aa->bb", "mtl")
    entry = runner.manifest["stages"]["train:aa->bb:mtl"]
    assert entry["split_steps"] == {"rows": 4}

    monkeypatch.setattr(training, "SHARD_MIN_POSITIONS", 10**9)
    monkeypatch.setattr(training, "TASK_SPLIT_MIN_ELEMENTS", 1)
    runner = ExperimentRunner(fast_smoke(tmp_path / "split", steps=4))
    runner.prepare()
    runner.train("aa->bb", "mtl")
    entry = runner.manifest["stages"]["train:aa->bb:mtl"]
    assert entry["split_steps"] == {"tasks": 4}
    if training.blas_threads() is not None:
        assert entry["blas_threads"] == 1  # the worker pool caps BLAS at one thread


def test_failed_report_write_keeps_the_previous_report(trained_run, monkeypatch):
    out, config_path, _ = trained_run
    before = {name: (out / name).read_bytes() for name in ("report.txt", "report.tsv")}
    replace, refused = os.replace, []

    def fail_on_reports(src, dst):
        if os.path.basename(dst) in before:
            refused.append(os.path.basename(dst))
            raise OSError("disk full")
        replace(src, dst)

    runner = ExperimentRunner(load_config(config_path))
    monkeypatch.setattr(os, "replace", fail_on_reports)
    with pytest.raises(OSError, match="disk full"):
        runner.run()
    monkeypatch.undo()
    assert refused == ["report.txt"]
    assert {name: (out / name).read_bytes() for name in before} == before
    assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []


def test_a_failed_rebuild_leaves_no_completed_entry(tmp_path, monkeypatch, caplog):
    def train(config):
        runner = ExperimentRunner(config)
        runner.prepare()
        return runner.train("aa->bb", "baseline")

    config = fast_smoke(tmp_path / "run")
    ckpt = train(config)
    finished = ckpt.read_bytes()
    # the same run with snapshots every 2 steps, killed at step 5
    train_step, steps = training.train_step, []

    def killed_at_step_5(*args, **kwargs):
        steps.append(len(steps) + 1)
        if len(steps) == 5:
            raise RuntimeError("killed")
        return train_step(*args, **kwargs)

    monkeypatch.setattr(training, "train_step", killed_at_step_5)
    config.train.checkpoint_interval = 2
    with pytest.raises(StageFailure, match="killed"):
        train(config)
    monkeypatch.undo()
    assert ckpt.read_bytes() != finished  # overwritten by the step-4 snapshot
    stages = json.loads((tmp_path / "run" / "manifest.json").read_text())["stages"]
    assert "train:aa->bb:baseline" not in stages

    config.train.checkpoint_interval = None
    with caplog.at_level(logging.INFO, logger="minimt.experiment"):
        train(config)
    assert "[train:aa->bb:baseline] running" in caplog.text
    assert ckpt.read_bytes() == finished


@pytest.mark.parametrize("setting, value", [("clm_loss_weight", 0.3), ("clm_batch_size", 4),
                                            ("mtl_batch_size", 4)])
def test_a_multitask_setting_does_not_retrain_the_baseline(tmp_path, caplog, setting, value):
    config = fast_smoke(tmp_path / "run", steps=2)
    config.directions = ["aa->bb"]
    ExperimentRunner(config).run()
    setattr(config.train, setting, value)
    with caplog.at_level(logging.INFO, logger="minimt.experiment"):
        ExperimentRunner(config).run()
    for stage in ("train", "translate", "evaluate"):
        assert f"[{stage}:aa->bb:baseline] cached" in caplog.text
        assert f"[{stage}:aa->bb:mtl] running" in caplog.text


def test_a_stage_whose_upstream_has_not_run_names_it(tmp_path):
    runner = ExperimentRunner(fast_smoke(tmp_path / "run"))
    with pytest.raises(ConfigError, match="'prepare' has not run"):
        runner.train("aa->bb", "mtl")
    runner.prepare()
    with pytest.raises(ConfigError, match="'train:aa->bb:mtl' has not run"):
        runner.translate("aa->bb", "mtl")
    with pytest.raises(ConfigError, match="'translate:aa->bb:mtl' has not run"):
        runner.evaluate("aa->bb", "mtl")


def test_experiment_deterministic_across_directories(tmp_path):
    reports = []
    for sub in ("one", "two"):
        config = fast_smoke(tmp_path / sub, seed=11)
        ExperimentRunner(config).run()
        reports.append({
            "report": (tmp_path / sub / "report.tsv").read_text(),
            "metrics": (tmp_path / sub / "aa-bb" / "mtl" / "metrics.tsv").read_text(),
            "hyps": (tmp_path / sub / "aa-bb" / "mtl" / "hypotheses.txt").read_text(),
        })
    assert reports[0] == reports[1]
