import hashlib
import math

import numpy as np
import pytest

from minimt import autodiff as ad
from minimt.autodiff import Tensor, cross_entropy, grad_check
from minimt.data import MonoBatch, ParallelBatch
from minimt.model import (
    FreezeSpec,
    ModelConfig,
    apply_freeze,
    init_params,
    named_params,
    parameter_count,
    sinusoidal_positions,
)
from minimt.training import Adam, OptimizerConfig

TINY = dict(vocab_size=11, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
            d_ff=12, max_len=10)


def tiny_config(**kw):
    return ModelConfig(**{**TINY, **kw})


def parallel_batch(seed=0, b=2, s=4, t=5, vocab=11):
    rng = np.random.default_rng(seed)
    src = rng.integers(4, vocab, (b, s)).astype(np.int64)
    tgt_in = rng.integers(4, vocab, (b, t)).astype(np.int64)
    labels = rng.integers(4, vocab, (b, t)).astype(np.int64)
    src_mask = np.ones((b, s))
    src_mask[0, -1] = 0
    src[0, -1] = 0
    tgt_mask = np.ones((b, t))
    return ParallelBatch(src, src_mask, tgt_in, labels, tgt_mask, "xx", "yy", pad_id=0)


def mono_batch(seed=1, b=2, t=4, vocab=11):
    rng = np.random.default_rng(seed)
    dec_in = rng.integers(4, vocab, (b, t)).astype(np.int64)
    dec_in[:, 0] = dec_in[0, 0]  # one language tag per batch, as make_batches frames it
    labels = rng.integers(4, vocab, (b, t)).astype(np.int64)
    return MonoBatch(dec_in, labels, np.ones((b, t)), "xx", pad_id=0, eos_id=2)


# --- init ---------------------------------------------------------------------

def test_init_deterministic():
    m1 = init_params(tiny_config(seed=5), multitask=True)
    m2 = init_params(tiny_config(seed=5), multitask=True)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data)
    m3 = init_params(tiny_config(seed=6), multitask=True)
    assert not np.array_equal(m1.embedding.data, m3.embedding.data)


@pytest.mark.parametrize("multitask", [False, True])
@pytest.mark.parametrize("tie", [True, False])
def test_parameter_count_matches_enumeration(multitask, tie):
    config = ModelConfig(vocab_size=32, d_model=8, n_heads=2, n_enc_layers=2,
                         n_dec_layers=2, d_ff=16, max_len=12, tie_projections=tie)
    model = init_params(config, multitask=multitask)
    enumerated = sum(p.data.size for _, p in model.named_parameters())
    assert enumerated == parameter_count(config, multitask)


def test_registry_has_no_duplicates():
    model = init_params(tiny_config(), multitask=True)
    params = list(model.named_parameters())
    assert len({id(p) for _, p in params}) == len(params)
    assert len({n for n, _ in params}) == len(params)


def test_registry_names_are_the_checkpoint_contract():
    def top_level(model):
        return list(dict.fromkeys(n.split(".")[0] for n, _ in model.named_parameters()))

    baseline = init_params(tiny_config())
    assert not baseline.multitask and baseline.decoder_clm is None
    assert top_level(baseline) == ["embedding", "encoder", "decoder"]
    mtl = init_params(tiny_config(), multitask=True)
    assert mtl.multitask
    assert top_level(mtl) == ["embedding", "encoder", "decoder_t", "decoder_clm"]
    # decoder_t.* names the translation decoder, which is model.decoder in both
    params = mtl.param_dict()
    assert all(params[n] is p for n, p in named_params(mtl.decoder, "decoder_t"))


# sha256 of the full ordered name list, joined by newlines, at TINY; a rename
# anywhere in the tree, or a reordering, changes it (and every checkpoint)
REGISTRY_DIGESTS = {
    (False, True): (47, "101fd0d8a2aa8026c778bcbd0b03b1a3e24fc1774d2ffe92b173d1d2872daaaa"),
    (False, False): (48, "c20afd542c715bc561a26f7fc6f62bcabe1b401774533c4a7c7e7a3c6360d04f"),
    (True, True): (75, "39121e0d45a9b0443811f90a4e72f2f0ade991ef6e863a09b467eec5250b35fb"),
    (True, False): (77, "2e9e43d2147fe968dc23691c784831c9fee88bfc6dae4eae2a3a6d6f37348054"),
}


@pytest.mark.parametrize("multitask, tie", list(REGISTRY_DIGESTS))
def test_registry_pins_every_name_in_order(multitask, tie):
    model = init_params(tiny_config(tie_projections=tie), multitask=multitask)
    names = [n for n, _ in model.named_parameters()]
    decoder = "decoder_t" if multitask else "decoder"
    assert names[:3] == ["embedding", "encoder.layers.0.ln1.gain", "encoder.layers.0.ln1.bias"]
    assert "encoder.layers.0.attn.wq" in names
    assert f"{decoder}.layers.0.cross_attn.bo" in names
    assert (f"{decoder}.proj" in names) == (not tie)
    assert ("decoder_clm.proj" in names) == (multitask and not tie)
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert (len(names), digest) == REGISTRY_DIGESTS[multitask, tie]
    # Adam's flat buffer follows the registry: each p.data is the next slice of it
    opt = Adam(model.named_parameters(), OptimizerConfig())
    assert [n for n, _ in opt.params] == names
    sizes = [p.data.size for _, p in opt.params]
    offsets = [(p.data.ctypes.data - opt._data.ctypes.data) // opt._data.itemsize
               for _, p in opt.params]
    assert all(p.data.base is opt._data for _, p in opt.params)
    assert offsets == np.cumsum([0] + sizes)[:-1].tolist() and sum(sizes) == opt._data.size


def test_heads_must_divide_d_model():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(d_model=8, n_heads=3)


def test_invalid_dropout():
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0)


@pytest.mark.parametrize("max_len", [2, 1, 0])
def test_max_len_leaves_room_for_tag_token_and_eos(max_len):
    with pytest.raises(ValueError, match="max_len must be >= 3"):
        tiny_config(max_len=max_len)
    tiny_config(max_len=3)


# --- encoder ------------------------------------------------------------------

def test_encoder_output_shape():
    model = init_params(tiny_config())
    batch = parallel_batch()
    enc = model.encode_source(batch.src, batch.src_mask)
    assert enc.shape == (2, 4, 8)


def test_encoder_ignores_pad_content():
    model = init_params(tiny_config()).eval()
    batch = parallel_batch()
    enc1 = model.encode_source(batch.src, batch.src_mask).data
    fiddled = batch.src.copy()
    fiddled[0, -1] = 7  # PAD slot content change must not leak into real positions
    enc2 = model.encode_source(fiddled, batch.src_mask).data
    assert np.array_equal(enc1[0, :-1], enc2[0, :-1])
    assert np.array_equal(enc1[1], enc2[1])


def test_sequence_longer_than_max_len_rejected():
    model = init_params(tiny_config(max_len=4))
    ids = np.ones((1, 5), dtype=np.int64)
    with pytest.raises(ad.ShapeError, match="max_len"):
        model.encode_source(ids, np.ones((1, 5)))


def test_encoder_gradients_against_finite_differences():
    model = init_params(tiny_config(seed=3))
    batch = parallel_batch()
    params = model.parameters()

    def loss_fn(*_):
        enc = model.encode_source(batch.src, batch.src_mask)
        w = Tensor(np.random.default_rng(0).normal(size=enc.data.shape))
        return (enc * w).sum()

    enc_params = [t for n, t in model.named_parameters() if not n.startswith("decoder")]
    report = grad_check(loss_fn, enc_params, tolerance=1e-4)
    assert report.passed, str(report)


# --- decoder ------------------------------------------------------------------

def test_decoder_causality_by_perturbation():
    model = init_params(tiny_config(), multitask=False).eval()
    batch = parallel_batch()
    base = model.translation_logits(batch).data
    for j in range(1, batch.tgt_in.shape[1]):
        mutated = batch.tgt_in.copy()
        mutated[:, j] = (mutated[:, j] - 4 + 1) % 7 + 4  # cyclic shift, never identity
        out = model.translation_logits(ParallelBatch(
            batch.src, batch.src_mask, mutated, batch.tgt_labels, batch.tgt_mask,
            "xx", "yy", 0)).data
        assert np.array_equal(out[:, :j], base[:, :j]), f"position {j} leaked backwards"
        assert not np.array_equal(out[:, j:], base[:, j:])


def test_zero_layer_decoder_is_projected_embeddings():
    model = init_params(tiny_config(n_dec_layers=0)).eval()
    batch = parallel_batch()
    enc_rand = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8)))
    enc_zero = Tensor(np.zeros((2, 4, 8)))
    out1 = model._decode(model.decoder, batch.tgt_in, enc_rand, batch.src_mask).data
    out2 = model._decode(model.decoder, batch.tgt_in, enc_zero, batch.src_mask).data
    # no layers -> no cross attention: encoder states cannot matter
    assert np.array_equal(out1, out2)
    # and the logits are exactly the normalized embedded inputs times E^T
    x = model._embed(batch.tgt_in)
    manual = ad.matmul(model.decoder.ln_out(x), model.embedding.transpose(1, 0)).data
    assert np.allclose(out1, manual, atol=0, rtol=0)


def test_decoder_gradients_against_finite_differences():
    model = init_params(tiny_config(seed=4))
    batch = parallel_batch()

    def loss_fn(*_):
        logits = model.translation_logits(batch)
        return cross_entropy(logits, batch.tgt_labels, ignore_id=0)

    report = grad_check(loss_fn, model.parameters(), tolerance=1e-4)
    assert report.passed, str(report)


# --- the two assemblies ---------------------------------------------------------

def test_translation_logits_shape():
    model = init_params(tiny_config(), multitask=True)
    logits = model.translation_logits(parallel_batch())
    assert logits.shape == (2, 5, 11)


def test_baseline_and_mtl_translation_paths_agree():
    config = tiny_config(seed=8)
    baseline = init_params(config, multitask=False).eval()
    mtl = init_params(config, multitask=True).eval()
    # same seed => identical weights in corresponding slots
    base_params = dict(baseline.named_parameters())
    for name, p in mtl.named_parameters():
        twin = name.replace("decoder_t", "decoder")
        if name.startswith("decoder_clm"):
            continue
        assert np.array_equal(p.data, base_params[twin].data), name
    batch = parallel_batch()
    out_b = baseline.translation_logits(batch).data
    out_m = mtl.translation_logits(batch).data
    assert np.array_equal(out_b, out_m)


def test_clm_causality():
    model = init_params(tiny_config(), multitask=True).eval()
    batch = mono_batch()
    base = model.clm_logits([batch]).data
    for j in range(1, batch.dec_in.shape[1]):
        mutated = batch.dec_in.copy()
        mutated[:, j] = (mutated[:, j] - 4 + 1) % 7 + 4
        out = model.clm_logits([MonoBatch(mutated, batch.labels, batch.mask, "xx", 0, 2)]).data
        assert np.array_equal(out[:, :j], base[:, :j])
        assert not np.array_equal(out[:, j:], base[:, j:])


def test_clm_rejects_baseline_model():
    model = init_params(tiny_config(), multitask=False)
    with pytest.raises(ValueError, match="CLM"):
        model.clm_logits([mono_batch()])


def test_uniform_model_clm_loss_is_log_vocab():
    model = init_params(tiny_config(vocab_size=32), multitask=True)
    for _, p in model.named_parameters():
        p.data[...] = 0.0
    batch = mono_batch(vocab=32)
    loss = cross_entropy(model.clm_logits([batch]), batch.labels, ignore_id=0)
    assert loss.item() == pytest.approx(math.log(32), rel=1e-12)


def test_shared_encoder_isolated_decoders():
    model = init_params(tiny_config(), multitask=True).eval()
    pb, mb = parallel_batch(), mono_batch()
    t0 = model.translation_logits(pb).data.copy()
    c0 = model.clm_logits([mb]).data.copy()

    enc_param = model.param_dict()["encoder.layers.0.attn.wq"]
    enc_param.data[0, 0] += 0.5
    assert not np.array_equal(model.translation_logits(pb).data, t0)
    assert not np.array_equal(model.clm_logits([mb]).data, c0)
    enc_param.data[0, 0] -= 0.5

    dec_t_param = model.param_dict()["decoder_t.layers.0.ff.w1"]
    dec_t_param.data[0, 0] += 0.5
    assert np.array_equal(model.clm_logits([mb]).data, c0)
    assert not np.array_equal(model.translation_logits(pb).data, t0)
    dec_t_param.data[0, 0] -= 0.5

    dec_c_param = model.param_dict()["decoder_clm.layers.0.ff.w1"]
    dec_c_param.data[0, 0] += 0.5
    assert np.array_equal(model.translation_logits(pb).data, t0)
    assert not np.array_equal(model.clm_logits([mb]).data, c0)


def test_decoder_param_sets_disjoint():
    model = init_params(tiny_config(), multitask=True)
    t_ids = {id(p) for n, p in model.named_parameters() if n.startswith("decoder_t")}
    c_ids = {id(p) for n, p in model.named_parameters() if n.startswith("decoder_clm")}
    assert not t_ids & c_ids


def test_dropout_zero_forward_deterministic():
    model = init_params(tiny_config(dropout_rate=0.0), multitask=True)
    batch = parallel_batch()
    a = model.translation_logits(batch).data
    b = model.translation_logits(batch).data
    assert np.array_equal(a, b)


def test_dropout_active_in_training_mode_only():
    model = init_params(tiny_config(dropout_rate=0.5), multitask=False)
    batch = parallel_batch()
    a = model.translation_logits(batch).data
    b = model.translation_logits(batch).data
    assert not np.array_equal(a, b)
    model.eval()
    c = model.translation_logits(batch).data
    d = model.translation_logits(batch).data
    assert np.array_equal(c, d)


# --- freezing -------------------------------------------------------------------

def test_default_freeze_spec_covers_first_half():
    model = init_params(ModelConfig(vocab_size=11, d_model=8, n_heads=2,
                                    n_enc_layers=4, n_dec_layers=1, d_ff=12, max_len=10))
    spec = FreezeSpec.first_half_encoder(model)
    assert all(n.startswith(("encoder.layers.0.", "encoder.layers.1.")) for n in spec.frozen)
    trainable = {n for n, _ in apply_freeze(model, spec)}
    assert any(n.startswith("encoder.layers.2.") for n in trainable)
    assert any(n.startswith("encoder.layers.3.") for n in trainable)
    assert not any(n.startswith("encoder.layers.0.") for n in trainable)


def test_empty_freeze_spec_trains_everything():
    model = init_params(tiny_config())
    trainable = apply_freeze(model, FreezeSpec.none())
    assert len(trainable) == len(list(model.named_parameters()))


def test_freeze_unknown_name():
    model = init_params(tiny_config())
    with pytest.raises(ValueError, match="unknown"):
        apply_freeze(model, FreezeSpec({"encoder.layers.99.attn.wq"}))


def test_positions_table_shape_and_range():
    table = sinusoidal_positions(16, 8)
    assert table.shape == (16, 8)
    assert np.all(np.abs(table) <= 1.0)
    assert np.allclose(table[0, 0::2], 0.0)
    assert np.allclose(table[0, 1::2], 1.0)
