"""Auxiliary-parameter branch: lightweight spatial and channel gating.

The standardized 4 x K_ap parameter matrix is embedded position-wise to
eight channels, split into two 4 x K_ap maps, and each map drives a
sigmoid gate: one projected along the spatial (parameter) axis, one along
the channel axis. Both gates multiply the raw standardized input
elementwise, so the branch output is a per-entry contraction of its input.

Under the CI strategy every channel-mixing map here (the embedding and
the channel-gate projections) is constrained block-diagonal per channel,
mirroring the encoder's CI constraints; otherwise gate values computed
for channel i would leak information from channel j.

Inputs may carry leading batch axes: (..., 4, K_ap) in, (..., 4, K_ap) out.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamBag, Tensor
from .config import ModelConfig
from .encoder import _xavier
from .errors import ShapeError

SPATIAL_UP_FACTOR = 4   # K_ap -> 4*K_ap up-projection
CHANNEL_HIDDEN = 16     # 4 -> 16 -> 4 channel projection (4 -> 4 per channel in CI)


class ApGateBranch:
    def __init__(self, cfg: ModelConfig, bag: ParamBag, rng: np.random.Generator):
        self.cfg = cfg
        k = cfg.k_ap
        up = SPATIAL_UP_FACTOR * k
        if cfg.strategy == "CD":
            self.embed_kernel = bag.add("ap.embed.kernel", _xavier(rng, (8, 4), 4, 8))
        else:
            self.embed_kernel = bag.add("ap.embed.kernel", _xavier(rng, (8,), 1, 1))
        self.embed_bias = bag.add("ap.embed.bias", np.zeros(8))
        self.p1 = bag.add("ap.spatial.p1", _xavier(rng, (k, up), k, up))
        self.b1 = bag.add("ap.spatial.b1", np.zeros(up))
        self.p2 = bag.add("ap.spatial.p2", _xavier(rng, (up, k), up, k))
        self.b2 = bag.add("ap.spatial.b2", np.zeros(k))
        if cfg.strategy == "CD":
            self.p3 = bag.add("ap.channel.p3", _xavier(rng, (4, CHANNEL_HIDDEN), 4, CHANNEL_HIDDEN))
            self.b3 = bag.add("ap.channel.b3", np.zeros(CHANNEL_HIDDEN))
            self.p4 = bag.add("ap.channel.p4", _xavier(rng, (CHANNEL_HIDDEN, 4), CHANNEL_HIDDEN, 4))
            self.b4 = bag.add("ap.channel.b4", np.zeros(4))
        else:
            # Per-channel 1 -> 4 -> 1 blocks, one row per channel.
            self.p3 = bag.add("ap.channel.p3", _xavier(rng, (4, 4), 1, 4))
            self.b3 = bag.add("ap.channel.b3", np.zeros((4, 4)))
            self.p4 = bag.add("ap.channel.p4", _xavier(rng, (4, 4), 4, 1))
            self.b4 = bag.add("ap.channel.b4", np.zeros(4))

    def ap_embed(self, a: Tensor) -> tuple[Tensor, Tensor]:
        """Position-wise embedding to 8 channels, split into two 4 x K_ap maps."""
        if a.shape[-2:] != (4, self.cfg.k_ap):
            raise ShapeError(f"AP matrix must be (..., 4, {self.cfg.k_ap}), got {a.shape}")
        if self.cfg.strategy == "CD":
            embedded = ad.conv1d_embed(a, self.embed_kernel, self.embed_bias)
            a1, a2 = ad.split(embedded, 2, axis=-2)
            return a1, a2
        w1, w2 = ad.split(self.embed_kernel, 2, axis=0)
        b1, b2 = ad.split(self.embed_bias, 2, axis=0)
        a1 = ad.add(ad.mul(a, ad.reshape(w1, (4, 1))), ad.reshape(b1, (4, 1)))
        a2 = ad.add(ad.mul(a, ad.reshape(w2, (4, 1))), ad.reshape(b2, (4, 1)))
        return a1, a2

    def spatial_gate(self, a1: Tensor) -> Tensor:
        """Row-wise up/down projection along the parameter axis, then sigmoid."""
        return ad.sigmoid(ad.linear(ad.linear(a1, self.p1, self.b1), self.p2, self.b2))

    def channel_gate(self, a2: Tensor) -> Tensor:
        """Transpose, project the channel vector at each position, transpose back."""
        t = ad.transpose(a2)  # (..., K_ap, 4)
        if self.cfg.strategy == "CD":
            z = ad.linear(ad.linear(t, self.p3, self.b3), self.p4, self.b4)
        else:
            # Channel c's value at each position through its own 1 -> 4 -> 1
            # map: row c of p3, b3 and p4.
            col = ad.reshape(t, t.shape + (1,))  # (..., K_ap, 4, 1)
            hidden = ad.add(ad.mul(col, self.p3), self.b3)  # (..., K_ap, 4, 4)
            z = ad.add(ad.tsum(ad.mul(hidden, self.p4), axis=-1), self.b4)
        return ad.transpose(ad.sigmoid(z))

    @staticmethod
    def apply_gates(a: Tensor, w_spatial: Tensor, w_channel: Tensor) -> Tensor:
        """Elementwise triple product A' = A * W_spatial * W_channel."""
        if a.shape != w_spatial.shape or a.shape != w_channel.shape:
            raise ShapeError(f"gate shapes {w_spatial.shape}/{w_channel.shape} do not match input {a.shape}")
        return ad.mul(ad.mul(a, w_spatial), w_channel)

    def forward(self, a: Tensor) -> Tensor:
        a1, a2 = self.ap_embed(a)
        return self.apply_gates(a, self.spatial_gate(a1), self.channel_gate(a2))
