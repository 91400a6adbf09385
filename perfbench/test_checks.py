"""The benchmark's correctness checks pass on real output and fail on
deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from minimt import autodiff  # noqa: E402
from minimt.cli import main  # noqa: E402
from minimt.data import build_vocab, encode, frame_source, make_batches  # noqa: E402
from minimt.decoding import DecodeConfig, beam_search  # noqa: E402
from minimt.evaluation import corpus_bleu  # noqa: E402
from minimt.experiment import make_preset  # noqa: E402
from minimt.model import FreezeSpec, ModelConfig, init_params  # noqa: E402

SMALL = dict(d_model=16, n_heads=2, n_enc_layers=2, n_dec_layers=1, d_ff=32, max_len=16)


# --- BLEU -------------------------------------------------------------------

BLEU_FIXTURES = [
    [("the cat sat on the mat", "the cat sat on a mat"),
     ("a quick brown fox", "the quick brown fox jumps")],
    [("one two three four five", "one two three four five")],
    [("x", "x y z")],                                   # hyp_len 1: zeros stay zero
    [("a b c", "a b c d e f g h")],                     # no 4-gram, brevity penalty
    [("p q r s t u", "p q"), ("", "q r")],              # longer than the reference, empty hyp
    [("zo1 zo2 zo3 zo1 zo2", "zo2 zo1 zo3 zo2 zo1")],   # clipped counts
]


@pytest.mark.parametrize("fixture", BLEU_FIXTURES)
def test_own_bleu_agrees_with_program(fixture):
    pairs = [(h.split(), r.split()) for h, r in fixture]
    assert checks.corpus_bleu_m4(pairs) == pytest.approx(corpus_bleu(pairs).bleu, abs=1e-12)


# --- training ---------------------------------------------------------------


def _mtl_step(seed=0):
    data = workloads.desk_inputs(seed, 3, 8)
    model = init_params(ModelConfig(vocab_size=len(data.vocabulary), seed=seed, **SMALL),
                        multitask=True)
    vocab = data.vocabulary
    batches = (make_batches(data.parallel.split("train"), 4, vocab, 16, seed=0)[0],
               make_batches(data.monolingual["aa"].split("train"), 4, vocab, 16, seed=1)[0],
               make_batches(data.monolingual["bb"].split("train"), 4, vocab, 16, seed=2)[0])
    trainable = [n for n, _ in model.named_parameters()
                 if n not in FreezeSpec.first_half_encoder(model).frozen]
    return model, batches, trainable


def test_gradient_check_passes_on_the_program():
    model, batches, trainable = _mtl_step()
    derivatives = checks.directional_derivative(model, batches, trainable, seed=0)
    assert checks.check_gradient("step", *derivatives) == []


@pytest.mark.parametrize("corrupt", ["all grads x 1.01", "one weight's grad x 2"])
def test_gradient_check_fails_on_a_perturbed_gradient(monkeypatch, corrupt):
    model, batches, trainable = _mtl_step()
    real_backward = autodiff.backward

    def perturbed_backward(root):
        real_backward(root)
        if corrupt == "all grads x 1.01":
            for p in model.parameters():
                if p.grad is not None:
                    p.grad *= 1.01
        else:
            model.param_dict()["decoder_t.layers.0.ff.w1"].grad *= 2.0

    monkeypatch.setattr(checks, "backward", perturbed_backward)
    # seed 2's direction is not nearly orthogonal to the gradient, so a 1%
    # error in every gradient is 1% of a derivative above its typical size
    analytic, numeric, typical = checks.directional_derivative(model, batches, trainable, seed=2)
    assert abs(numeric) > typical
    assert checks.check_gradient("step", analytic, numeric, typical)


def test_gradient_tolerance_follows_the_gradient_not_the_direction():
    # a direction nearly orthogonal to the gradient: the derivative is 0.03
    # of the typical one, and the stencil's error is far below the typical one
    assert checks.check_gradient("step", -1.95e-5, -1.96e-5, 6.1e-4) == []
    assert checks.check_gradient("step", -1.95e-5, -1.95e-5 - 1e-6, 6.1e-4)
    assert checks.check_gradient("step", 6.1e-4, 1.01 * 6.1e-4, 6.1e-4)


def test_parameter_check():
    before = {"frozen": np.zeros(3), "trainable": np.zeros(3)}
    assert checks.check_parameters(before, {"frozen": np.zeros(3), "trainable": np.ones(3)},
                                   {"frozen"}) == []
    moved = {"frozen": np.array([0.0, 0.0, 1e-300]), "trainable": np.ones(3)}
    assert checks.check_parameters(before, moved, {"frozen"})
    stuck = {"frozen": np.zeros(3), "trainable": np.zeros(3)}
    assert checks.check_parameters(before, stuck, {"frozen"})


def test_loss_check():
    good = [(2.0, 1.5, 1.25, 4.75), (1.0, 1.0, 1.0, 3.0)]
    line = "\t".join(["2", "1.0", "1.0", "1.0", "3.0", ""])
    assert checks.check_losses(good, [line]) == []
    assert checks.check_losses([(2.0, 1.5, 1.25, 4.75 + 1e-9), good[1]], [line])
    assert checks.check_losses(good, [line.replace("3.0", "3.000001")])
    assert checks.check_losses([good[1], good[0]], [line])          # loss went up
    assert checks.check_losses([good[0], (math.nan, 1.0, 1.0, math.nan)], [line])


# --- decoding ---------------------------------------------------------------


@pytest.fixture(scope="module")
def decoded():
    rng = np.random.default_rng(0)
    lines = [" ".join(f"w{i}" for i in rng.integers(0, 40, size=5)) for _ in range(4)]
    vocab = build_vocab(lines, languages=["aa", "bb"])
    model = init_params(ModelConfig(vocab_size=len(vocab), **SMALL)).eval()
    config = DecodeConfig(eos_id=vocab.eos_id, start_id=vocab.lang_id("bb"), beam_size=3,
                          max_decode_len=6)
    source = frame_source(encode(lines[0], vocab, "aa").ids, vocab, "aa")
    return model, source, beam_search(model, source, config), config, vocab.pad_id


def _replace(hyp, **changes):
    return type(hyp)(**{**hyp.__dict__, **changes})


def test_hypothesis_check_passes_on_the_program(decoded):
    model, source, hyps, config, pad = decoded
    assert checks.check_hypotheses(model, source, hyps, config, pad) == []


def test_hypothesis_check_fails_on_corrupted_output(decoded):
    model, source, hyps, config, pad = decoded
    h = hyps[0]
    wrong_logprob = _replace(h, logprob_sum=h.logprob_sum - 1e-6)
    assert checks.check_hypotheses(model, source, [wrong_logprob, *hyps[1:]], config, pad)
    wrong_score = _replace(h, score=h.score * (1 + 1e-9))
    assert checks.check_hypotheses(model, source, [wrong_score, *hyps[1:]], config, pad)
    assert checks.check_hypotheses(model, source, hyps[::-1], config, pad)
    cut = next(x for x in hyps if len(x.tokens) > 1)
    assert checks.check_hypotheses(model, source, [_replace(cut, tokens=cut.tokens[:-1])],
                                   config, pad)


# --- experiment -------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    payload = make_preset("smoke", out, seed=3).to_dict()
    payload["train"].update(steps=4, log_interval=2)
    (out / "config.json").write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(out / "config.json")]) == 0
    return out


def _corrupted(src, tmp_path, rel, edit):
    import shutil

    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    path = dst / rel
    path.write_text(edit(path.read_text()))
    return dst


def test_experiment_check_passes_on_the_program(experiment):
    assert checks.check_experiment(experiment) == []


def test_experiment_check_fails_on_a_bleu_off_by_1e_6(experiment, tmp_path):
    def bump(text):
        payload = json.loads(text)
        payload["bleu"] += 1e-6
        return json.dumps(payload)

    assert checks.check_experiment(_corrupted(experiment, tmp_path, "aa-bb/mtl/bleu.json", bump))


def test_experiment_check_fails_on_wrong_references(experiment, tmp_path):
    def swap(text):
        lines = text.splitlines()
        return "\n".join([lines[1], lines[0], *lines[2:]]) + "\n"

    assert checks.check_experiment(
        _corrupted(experiment, tmp_path, "bb-aa/baseline/references.txt", swap))


def test_experiment_check_fails_on_a_wrong_delta(experiment, tmp_path):
    def shift(text):
        rows = [line.split("\t") for line in text.splitlines()]
        rows[0][3] = repr(float(rows[0][3]) + 1e-4)
        return "\n".join("\t".join(r) for r in rows) + "\n"

    assert checks.check_experiment(_corrupted(experiment, tmp_path, "report.tsv", shift))


def test_experiment_check_fails_on_a_missing_artifact(experiment, tmp_path):
    dst = _corrupted(experiment, tmp_path, "report.txt", lambda t: t)
    (dst / "bb-aa" / "mtl" / "checkpoint.npz").unlink()
    assert checks.check_experiment(dst)
