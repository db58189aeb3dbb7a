"""DDM branch: patch embedding, channel aggregation, and the
spatial-channel attention encoder.

Every input may carry leading batch axes: (..., 4, 3, W, H) DDM stacks
give (..., M, 4) features, each sample computed exactly as alone.

Each of the four receiver channels supplies a stack of three DDM types.
Per channel (weights shared across channels) the three maps are patch
embedded, a learnable global token is prepended, and sinusoidal position
codes are added. All four channels go through the embedding in one call,
the channel axis as one more batch axis. The four flattened channel
sequences then become the columns of an M x 4 tensor whose feature axis
is the channel axis, and each channel becomes one attention head (d_k = 1).

Cross-channel information flow is localized in the head-mixing output
projection, the feedforward maps, and the normalization statistics:
  * CD strategy: dense output projection, dense feedforward, per-token
    normalization over the 4 channels.
  * CI strategy: diagonal output projection, per-channel block-diagonal
    feedforward, per-channel normalization over the M tokens. Channel j
    of the output then depends on channel j of the input only, exactly.

The patch embedding of all types and channels, and each layer's
attention, feedforward and norms, are each one fused autodiff op
(`autodiff.patch_embed`, `sca_attention`, `ffn`, `affine_norm`) that
serves both strategies; the strategy only selects weight shapes and the
norm axis.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamBag, Tensor
from .config import DDM_TYPES, ModelConfig
from .errors import ShapeError


def positional_encoding(seq_len: int, dim: int) -> np.ndarray:
    """Sinusoidal position codes: sin on even dims, cos on odd dims.

    pe[pos, 2d] = sin(pos / 10000^(2d/dim)), pe[pos, 2d+1] = cos(...).
    Deterministic and not learnable.
    """
    if dim < 1 or seq_len < 1:
        raise ShapeError("positional_encoding requires seq_len >= 1 and dim >= 1")
    pe = np.zeros((seq_len, dim))
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    even = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, even / dim)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    return pe


def _scaled(draw, scale: float, shift: float):
    """A `ParamBag.add` initializer: `draw(out=view)`, then `view * scale +
    shift` in place, the arithmetic and order of `Generator.uniform` (low +
    range * u) and `Generator.normal` (loc + scale * z), so each gives the
    bits those would return."""
    def fill(out: np.ndarray) -> None:
        draw(out=out)
        out *= scale
        out += shift
    return fill


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int):
    """Glorot-uniform: `rng.uniform(-limit, limit)` drawn into the parameter."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return _scaled(rng.random, limit - -limit, -limit)


def add_norm(
    residual: Tensor,
    features: Tensor,
    gamma: Tensor,
    beta: Tensor,
    strategy: str,
    dropout_p: float,
    train: bool,
    rng: np.random.Generator | None,
) -> Tensor:
    """Residual combiner: residual + Dropout(Norm(features)).

    Note the order: the *normalized* sublayer output passes through
    dropout and is added back to the raw tensor. For the attention block
    residual and features are the same tensor.

    Norm normalizes the (..., M, 4) tokens according to the channel
    strategy: CD normalizes each token over its 4 channel features; CI
    normalizes each channel column over its M tokens so no statistics are
    shared across channels. The affine parameters are per channel either
    way. One fused op (`autodiff.affine_norm`) serves both.
    """
    normed = ad.affine_norm(features, gamma, beta, over_tokens=strategy == "CI")
    return ad.add(residual, ad.dropout(normed, dropout_p, train, rng))


class DdmEncoder:
    """Patch embedding plus a stack of spatial-channel attention layers."""

    def __init__(self, cfg: ModelConfig, bag: ParamBag, rng: np.random.Generator):
        self.cfg = cfg
        p, de = cfg.patch_size, cfg.embed_dim
        self.kernels = []
        self.kernel_biases = []
        for name in DDM_TYPES:
            k = bag.add(f"encoder.embed.{name}.kernel", (de, 1, p, p), _xavier(rng, p * p, de))
            b = bag.add(f"encoder.embed.{name}.bias", (de,), 0.0)
            self.kernels.append(k)
            self.kernel_biases.append(b)
        self.global_token = bag.add("encoder.embed.global_token", (de,), _scaled(rng.standard_normal, 0.02, 0.0))
        self.pe = positional_encoding(cfg.seq_len, de)

        self.layers = []
        dff4 = cfg.d_ff // 4
        for i in range(cfg.n_layers):
            lp = f"encoder.layer{i}"
            layer = {
                "wq": bag.add(f"{lp}.attn.wq", (4,), _xavier(rng, 1, 1)),
                "wk": bag.add(f"{lp}.attn.wk", (4,), _xavier(rng, 1, 1)),
                "wv": bag.add(f"{lp}.attn.wv", (4,), _xavier(rng, 1, 1)),
            }
            if cfg.strategy == "CD":
                layer["wo"] = bag.add(f"{lp}.attn.wo", (4, 4), _xavier(rng, 4, 4))
            else:
                layer["wo"] = bag.add(f"{lp}.attn.wo", (4,), _xavier(rng, 1, 1))
            layer["norm1_gamma"] = bag.add(f"{lp}.norm1.gamma", (4,), 1.0)
            layer["norm1_beta"] = bag.add(f"{lp}.norm1.beta", (4,), 0.0)
            if cfg.strategy == "CD":
                layer["ffn_w1"] = bag.add(f"{lp}.ffn.w1", (4, cfg.d_ff), _xavier(rng, 4, cfg.d_ff))
                layer["ffn_b1"] = bag.add(f"{lp}.ffn.b1", (cfg.d_ff,), 0.0)
                layer["ffn_w2"] = bag.add(f"{lp}.ffn.w2", (cfg.d_ff, 4), _xavier(rng, cfg.d_ff, 4))
                layer["ffn_b2"] = bag.add(f"{lp}.ffn.b2", (4,), 0.0)
            else:
                # One independent 1 -> d_ff/4 -> 1 map per channel.
                layer["ffn_w1"] = bag.add(f"{lp}.ffn.w1", (4, dff4), _xavier(rng, 1, dff4))
                layer["ffn_b1"] = bag.add(f"{lp}.ffn.b1", (4, dff4), 0.0)
                layer["ffn_w2"] = bag.add(f"{lp}.ffn.w2", (4, dff4), _xavier(rng, dff4, 1))
                layer["ffn_b2"] = bag.add(f"{lp}.ffn.b2", (4,), 0.0)
            layer["norm2_gamma"] = bag.add(f"{lp}.norm2.gamma", (4,), 1.0)
            layer["norm2_beta"] = bag.add(f"{lp}.norm2.beta", (4,), 0.0)
            self.layers.append(layer)

    # -- embedding ------------------------------------------------------------

    def embed_channel(self, ddms: Tensor) -> Tensor:
        """Embed one channel's (..., 3, W, H) DDM stack into (..., 3N+1, embed_dim) tokens.

        Each DDM type gets its own patch kernel; the learnable global
        token occupies position 0 and position codes cover the full
        sequence including it. One fused op (`autodiff.patch_embed`).
        """
        return ad.patch_embed(ddms, self.kernels, self.kernel_biases, self.global_token, self.pe,
                              self.cfg.patch_size)

    def aggregate_channels(self, per_channel: list[Tensor]) -> Tensor:
        """Flatten four (..., 3N+1, embed_dim) sequences and stack them as columns.

        The flatten order is row-major over (token, embed_dim) with the
        token axis enumerating (global, ddm_type, patch); the result is
        (..., M, 4) with channel c in feature column c.

        `forward` builds the same tensor with one reshape and transpose and
        does not call this; the benchmark's composed forward
        (perfbench/composed.py) still embeds channel by channel through it.
        """
        if len(per_channel) != 4:
            raise ShapeError(f"expected 4 channel sequences, got {len(per_channel)}")
        shapes = {t.shape for t in per_channel}
        if len(shapes) != 1:
            raise ShapeError(f"ragged channel sequences: {sorted(shapes)}")
        lead = per_channel[0].shape[:-2]
        return ad.stack([ad.reshape(t, lead + (-1,)) for t in per_channel], axis=-1)

    # -- encoder layers ---------------------------------------------------------

    def sca_attention(self, tokens: Tensor, layer: dict) -> Tensor:
        """Per-channel spatial attention with cross-channel output mixing.

        Query/key/value projections are diagonal (one scalar per
        channel) so head i sees channel i only; the output projection is
        dense in CD mode and diagonal in CI mode. One fused op
        (`autodiff.sca_attention`) computes all four heads and recomputes
        their M x M probabilities in backward instead of keeping them.
        """
        return ad.sca_attention(tokens, layer["wq"], layer["wk"], layer["wv"], layer["wo"])

    def ffn(self, x: Tensor, layer: dict, train: bool, rng: np.random.Generator | None) -> Tensor:
        """Token-wise feedforward; dense in CD, per-channel blocks in CI.

        One fused op (`autodiff.ffn`) for both: the CI weights are (4, d_ff/4)
        blocks, one 1 -> d_ff/4 -> 1 map per channel.
        """
        return ad.ffn(x, layer["ffn_w1"], layer["ffn_b1"], layer["ffn_w2"], layer["ffn_b2"],
                      self.cfg.dropout_p, train, rng)

    def layer_forward(self, tokens: Tensor, layer: dict, train: bool, rng: np.random.Generator | None) -> Tensor:
        cfg = self.cfg
        p = cfg.dropout_p
        o = self.sca_attention(tokens, layer)
        d = add_norm(o, o, layer["norm1_gamma"], layer["norm1_beta"], cfg.strategy, p, train, rng)
        f = self.ffn(d, layer, train, rng)
        return add_norm(d, f, layer["norm2_gamma"], layer["norm2_beta"], cfg.strategy, p, train, rng)

    def dropout_draws(self) -> int:
        """Uniforms one training forward of one sample draws for dropout in
        `layer_forward`: per layer two (M, 4) residual masks and one
        (M, d_ff) feedforward mask."""
        cfg = self.cfg
        if cfg.dropout_p == 0.0:
            return 0
        return cfg.n_layers * cfg.flat_len * (cfg.d_ff + 8)

    def forward(self, stack: Tensor, train: bool = False, rng=None) -> Tensor:
        """Encode a (..., 4, 3, W, H) stack into (..., M, 4) channel features.

        One `embed_channel` call embeds all four channels; the result is
        bit for bit that of embedding each channel alone and stacking the
        four with `aggregate_channels`. `rng` is a Generator or a list of
        them, one per sample of the leading axis (see `autodiff.dropout`).
        """
        # (..., 4, 3N+1, embed_dim) flattens to (..., 4, M) and turns channel-last.
        embedded = self.embed_channel(stack)
        tokens = ad.transpose(ad.reshape(embedded, stack.shape[:-3] + (-1,)))
        for layer in self.layers:
            tokens = self.layer_forward(tokens, layer, train, rng)
        return tokens
