"""Configurable micro-transformer: encoder, decoders with cross-attention,
and ``Transformer``, the one model class for both regimes under comparison.

The baseline is the embedding, the encoder and one translation decoder; the
multitask model adds a separate causal-LM decoder that shares that encoder.
The CLM decoder cross-attends to the encoding of a two-token ``[LANG] EOS``
stub only; one CLM pass encodes one stub row per monolingual batch and
decodes all the batches' rows together, stacked and PAD-padded. Blocks are
pre-norm residual; positions are sinusoidal; the embedding table is shared
between input lookups and (by default) every output projection. A decoder
pass can also run incrementally, over the new positions only, against a
``DecoderCache`` of earlier keys and values.
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from minimt import autodiff as ad
from minimt.autodiff import ShapeError, Tensor
from minimt.data import ParallelBatch, stack_padded, token_budget


@dataclass
class ModelSection:
    """A config's model section; ``ModelConfig`` adds the derived fields."""

    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 4
    n_dec_layers: int = 4
    d_ff: int = 256
    max_len: int = 64
    dropout_rate: float = 0.0
    tie_projections: bool = True

    def __post_init__(self):
        if min(self.d_model, self.n_heads, self.d_ff) < 1:
            raise ValueError("d_model, n_heads and d_ff must all be >= 1")
        token_budget(self.max_len)  # raises unless a framed sentence fits a token
        if self.n_enc_layers < 0 or self.n_dec_layers < 0:
            raise ValueError("layer counts must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class ModelConfig(ModelSection):
    _: KW_ONLY
    vocab_size: int
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        super().__post_init__()


def parameter_count(config: ModelConfig, multitask: bool) -> int:
    """Closed-form size of the parameter registry.

    attention = 4 weight matrices + 4 biases, layer norm = gain + bias,
    feed-forward = two affine maps; an encoder layer holds one attention and
    2 norms, a decoder layer two attentions and 3 norms; each stack adds a
    final norm; untied decoders add a d_model x vocab projection each.
    """
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    attn = 4 * (d * d + d)
    ln = 2 * d
    ff = d * dff + dff + dff * d + d
    enc_layer = attn + 2 * ln + ff
    dec_layer = 2 * attn + 3 * ln + ff
    encoder = config.n_enc_layers * enc_layer + ln
    decoder = config.n_dec_layers * dec_layer + ln
    if not config.tie_projections:
        decoder += d * v
    n_decoders = 2 if multitask else 1
    return v * d + encoder + n_decoders * decoder


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / d_model)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


class _Init:
    """Deterministic Xavier-uniform initializer; all random draws flow
    through one generator so identical seeds give bit-identical models."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def matrix(self, fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(self.rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True)

    @staticmethod
    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    @staticmethod
    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)


NEG_MASK = -1e9  # additive attention mask; large finite value keeps backward NaN-free


def padding_attention_mask(mask: np.ndarray) -> np.ndarray:
    """(B, T) 1/0 mask -> (B, 1, 1, T) additive mask over attention keys."""
    return ((1.0 - mask) * NEG_MASK)[:, None, None, :]


def causal_attention_mask(t: int, offset: int = 0) -> np.ndarray:
    """Additive mask for ``t`` new positions that follow ``offset`` cached
    ones: position ``offset + i`` sees keys ``0 .. offset + i``."""
    return (np.triu(np.ones((t, offset + t)), k=offset + 1) * NEG_MASK)[None, None, :, :]


def named_params(module, prefix: str):
    """The (name, tensor) parameters of ``module``, named by attribute path
    under ``prefix``, in the order its constructor set the attributes: a
    ``Tensor`` attribute is a parameter, a list holds sub-modules numbered
    from 0, and any other object with attributes is a sub-module. Other
    values (``n_heads``, a tied decoder's ``proj`` of None) are skipped. Any
    array a module holds as a ``Tensor`` is thus a parameter."""
    for attr, value in vars(module).items():
        name = f"{prefix}.{attr}"
        if isinstance(value, Tensor):
            yield name, value
        elif isinstance(value, list):
            for i, sub in enumerate(value):
                yield from named_params(sub, f"{name}.{i}")
        elif hasattr(value, "__dict__"):
            yield from named_params(value, name)


class LayerNorm:
    def __init__(self, d):
        self.gain = _Init.ones(d)
        self.bias = _Init.zeros(d)

    def __call__(self, x):
        return ad.layer_norm(x, self.gain, self.bias)


class MultiHeadAttention:
    """Multi-head attention's four projections around ``autodiff.attention``,
    which splits the heads, scores, masks, normalizes and merges them as one
    graph node. Keys and values stay (B, T, d_model) projections, so the
    decoder can cache and extend them along the time axis."""

    def __init__(self, config, init):
        d = config.d_model
        self.n_heads = config.n_heads
        self.wq, self.wk, self.wv, self.wo = (init.matrix(d, d) for _ in range(4))
        self.bq, self.bk, self.bv, self.bo = (init.zeros(d) for _ in range(4))

    def __call__(self, queries, keys_values, additive_mask):
        return self.attend(queries, *self.keys_values(keys_values), additive_mask)

    def keys_values(self, x):
        """Projected keys and values of ``x``, each (B, T, d_model)."""
        return ad.linear(x, self.wk, self.bk), ad.linear(x, self.wv, self.bv)

    def attend(self, queries, k, v, additive_mask):
        """Attention of ``queries`` over projected keys and values, one row
        of ``k`` and ``v`` per query row."""
        ctx = ad.attention(ad.linear(queries, self.wq, self.bq), k, v, self.n_heads, additive_mask)
        return ad.linear(ctx, self.wo, self.bo)


class FeedForward:
    def __init__(self, config, init):
        self.w1 = init.matrix(config.d_model, config.d_ff)
        self.b1 = init.zeros(config.d_ff)
        self.w2 = init.matrix(config.d_ff, config.d_model)
        self.b2 = init.zeros(config.d_model)

    def __call__(self, x):
        return ad.linear(ad.linear(x, self.w1, self.b1).relu(), self.w2, self.b2)


class EncoderLayer:
    def __init__(self, config, init):
        self.ln1 = LayerNorm(config.d_model)
        self.attn = MultiHeadAttention(config, init)
        self.ln2 = LayerNorm(config.d_model)
        self.ff = FeedForward(config, init)

    def __call__(self, x, pad_mask, drop):
        h = self.ln1(x)
        x = x + drop(self.attn(h, h, pad_mask))
        x = x + drop(self.ff(self.ln2(x)))
        return x


class DecoderLayer:
    def __init__(self, config, init):
        self.ln1 = LayerNorm(config.d_model)
        self.self_attn = MultiHeadAttention(config, init)
        self.ln2 = LayerNorm(config.d_model)
        self.cross_attn = MultiHeadAttention(config, init)
        self.ln3 = LayerNorm(config.d_model)
        self.ff = FeedForward(config, init)

    def __call__(self, x, cross_kv, past_kv, causal_mask, enc_pad_mask, drop):
        """One block over the new positions ``x``. ``cross_kv`` are the
        cross-attention keys and values of the encoder output and ``past_kv``
        the self-attention ones of earlier positions (None if there are none).
        Returns the block's output and the self-attention keys and values of
        every position so far."""
        h = self.ln1(x)
        k, v = self.self_attn.keys_values(h)
        if past_kv is not None:
            k = ad.concat([past_kv[0], k], axis=1)
            v = ad.concat([past_kv[1], v], axis=1)
        x = x + drop(self.self_attn.attend(h, k, v, causal_mask))
        x = x + drop(self.cross_attn.attend(self.ln2(x), *cross_kv, enc_pad_mask))
        x = x + drop(self.ff(self.ln3(x)))
        return x, (k, v)


class Encoder:
    def __init__(self, config, init):
        self.layers = [EncoderLayer(config, init) for _ in range(config.n_enc_layers)]
        self.ln_out = LayerNorm(config.d_model)

    def __call__(self, x, pad_mask, drop):
        for layer in self.layers:
            x = layer(x, pad_mask, drop)
        return self.ln_out(x)


class DecoderCache:
    """What an incremental decoder pass reuses, per layer: the cross-attention
    keys and values of the encoder output, projected once per source, and
    the self-attention keys and values of the ``length`` positions decoded so
    far (None before the first). All are (B, T, d_model) tensors.

    ``sources`` holds the encoder row that each decoder row cross-attends
    to, and ``cross`` those rows' keys and values. While it is None, the
    decoder rows are the encoder rows themselves."""

    def __init__(self, decoder, enc_states):
        self.by_source = [layer.cross_attn.keys_values(enc_states) for layer in decoder.layers]
        self.cross, self.sources = self.by_source, None
        self.past = [None] * len(decoder.layers)
        self.length = 0

    def select(self, rows, sources):
        """A new cache whose self-attention rows are these rows of this one
        (an index array; rows may repeat) and whose row i cross-attends to
        encoder row ``sources[i]``."""
        out = copy.copy(self)
        out.past = [None if kv is None else tuple(Tensor(t.data[rows]) for t in kv)
                    for kv in self.past]
        if not np.array_equal(sources, self.sources):
            out.sources = sources
            out.cross = [tuple(Tensor(t.data[sources]) for t in kv) for kv in self.by_source]
        return out


class Decoder:
    def __init__(self, config, init):
        self.layers = [DecoderLayer(config, init) for _ in range(config.n_dec_layers)]
        self.ln_out = LayerNorm(config.d_model)
        self.proj = None if config.tie_projections else init.matrix(config.d_model, config.vocab_size)

    def __call__(self, x, enc_states, causal_mask, enc_pad_mask, embedding, drop, cache=None):
        """Logits for the positions in ``x``. Without ``cache`` they are a
        whole target row. With one, they follow ``cache.length`` decoded
        positions, ``enc_states`` is unused, and the cache is extended by them."""
        if cache is None:
            cache = DecoderCache(self, enc_states)
        for i, layer in enumerate(self.layers):
            x, cache.past[i] = layer(x, cache.cross[i], cache.past[i], causal_mask,
                                     enc_pad_mask, drop)
        cache.length += x.shape[1]
        x = self.ln_out(x)
        proj = self.proj if self.proj is not None else embedding.transpose(1, 0)
        return ad.matmul(x, proj)


class Transformer:
    """Embedding, a shared encoder and the translation decoder ``decoder``;
    with ``multitask`` also the CLM decoder ``decoder_clm`` (None otherwise).

    Registry names are the checkpoint contract: the translation decoder's
    parameters are ``decoder.*`` in the baseline and ``decoder_t.*`` in the
    multitask model, followed there by ``decoder_clm.*``; below those the
    names follow ``named_params``. Parameters are drawn in that order from
    one generator, so both regimes share the same embedding, encoder and
    translation decoder for the same seed.
    """

    def __init__(self, config: ModelConfig, multitask: bool = False):
        self.config = config
        init = _Init(config.seed)
        self.embedding = init.matrix(config.vocab_size, config.d_model)
        self.encoder = Encoder(config, init)
        self.decoder = Decoder(config, init)
        self.decoder_clm = Decoder(config, init) if multitask else None
        self.positions = sinusoidal_positions(config.max_len, config.d_model)
        self.training = True
        self._dropout_rng = np.random.default_rng([config.seed, 0xD0])

    @property
    def multitask(self) -> bool:
        return self.decoder_clm is not None

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    @contextmanager
    def eval_mode(self):
        """Eval mode inside the block; the previous mode comes back on exit,
        also when the block raises."""
        was_training = self.training
        self.eval()
        try:
            yield
        finally:
            self.training = was_training

    def _drop(self, x):
        if self.training and self.config.dropout_rate > 0.0:
            return ad.dropout(x, self.config.dropout_rate, self._dropout_rng)
        return x

    def _embed(self, ids: np.ndarray, offset: int = 0) -> Tensor:
        """Embedded ``ids`` at positions ``offset`` onwards."""
        b, s = ids.shape
        if offset + s > self.config.max_len:
            raise ShapeError(f"sequence length {offset + s} exceeds max_len {self.config.max_len}")
        x = ad.embedding(self.embedding, ids) * math.sqrt(self.config.d_model)
        return self._drop(x + Tensor(self.positions[offset:offset + s]))

    def encode_source(self, src_ids: np.ndarray, src_mask: np.ndarray) -> Tensor:
        """Run the encoder; PAD keys are masked out of every attention row."""
        return self.encoder(self._embed(src_ids), padding_attention_mask(src_mask), self._drop)

    def _decode(self, decoder, tgt_ids, enc_states, enc_mask, cache=None):
        """Logits for ``tgt_ids``; with a ``DecoderCache`` they are the
        positions after the cached ones (see ``Decoder.__call__``)."""
        offset = 0 if cache is None else cache.length
        x = self._embed(tgt_ids, offset)
        causal = causal_attention_mask(tgt_ids.shape[1], offset)
        return decoder(x, enc_states, causal, padding_attention_mask(enc_mask),
                       self.embedding, self._drop, cache=cache)

    def named_parameters(self):
        yield "embedding", self.embedding
        yield from named_params(self.encoder, "encoder")
        if self.decoder_clm is None:
            yield from named_params(self.decoder, "decoder")
        else:
            yield from named_params(self.decoder, "decoder_t")
            yield from named_params(self.decoder_clm, "decoder_clm")

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def param_dict(self):
        return dict(self.named_parameters())

    def translation_logits(self, batch: ParallelBatch) -> Tensor:
        enc = self.encode_source(batch.src, batch.src_mask)
        return self._decode(self.decoder, batch.tgt_in, enc, batch.src_mask)

    def clm_logits(self, batches) -> Tensor:
        """CLM logits of the monolingual ``batches`` (a sequence of
        ``MonoBatch``), stacked row-wise in the given order and PAD-padded to
        the widest batch.

        The encoder sees only a ``[LANG] EOS`` stub, so the decoder must model
        each sentence causally instead of copying it through cross-attention.
        Every row of a batch shares its language tag, so the encoder runs once
        over one stub row per batch; each decoder row gathers its batch's stub
        encoding, and ``decoder_clm`` runs once over all the batches' rows.
        """
        if self.decoder_clm is None:
            raise ValueError("CLM logits need a multitask model; the baseline has no CLM decoder")
        stubs = []
        for batch in batches:
            tags = batch.dec_in[:, 0]
            if (tags != tags[0]).any():
                raise ValueError(f"MonoBatch for {batch.language!r} mixes language tags "
                                 f"{np.unique(tags).tolist()} in column 0")
            stubs.append([tags[0], batch.eos_id])
        stubs = np.array(stubs)
        enc = self.encoder(self._embed(stubs), padding_attention_mask(np.ones(stubs.shape)),
                           self._drop)
        rows = np.repeat(np.arange(len(batches)), [len(b) for b in batches])
        dec_in = stack_padded([b.dec_in for b in batches], batches[0].pad_id)
        enc_mask = np.ones((len(rows), 2))
        return self._decode(self.decoder_clm, dec_in, ad.embedding(enc, rows), enc_mask)


# the benchmark's tracer patches ``MtlModel.clm_logits`` by this name
MtlModel = Transformer


def init_params(config: ModelConfig, multitask: bool = False) -> Transformer:
    """Build a freshly initialized model; deterministic in config.seed."""
    return Transformer(config, multitask)


@dataclass
class FreezeSpec:
    """Exact parameter names excluded from optimization."""

    frozen: set = field(default_factory=set)

    @classmethod
    def none(cls):
        return cls(set())

    @classmethod
    def first_half_encoder(cls, model) -> "FreezeSpec":
        """Freeze encoder layers 0 .. n/2-1 and their sublayers (the default
        protocol, scaled to the configured depth)."""
        n_frozen_layers = model.config.n_enc_layers // 2
        prefixes = tuple(f"encoder.layers.{i}." for i in range(n_frozen_layers))
        names = {name for name, _ in model.named_parameters() if name.startswith(prefixes)}
        return cls(names)


def apply_freeze(model, spec: FreezeSpec) -> list:
    """Stop gradients to the parameters ``spec`` names, re-enable them on all
    others, and return the (name, tensor) pairs that remain trainable."""
    params = model.param_dict()
    unknown = spec.frozen - params.keys()
    if unknown:
        raise ValueError(f"freeze spec names unknown parameters: {sorted(unknown)[:5]}")
    for n, t in params.items():
        t.requires_grad = n not in spec.frozen
    return [(n, t) for n, t in params.items() if n not in spec.frozen]
