"""Auxiliary-parameter branch: lightweight spatial and channel gating.

The standardized (..., 4, K_ap) parameter matrix is embedded position-wise
to eight channels, split into two 4 x K_ap maps, and each drives a sigmoid
gate, one projected along the parameter axis, one along the channel axis.
Both multiply the input elementwise, so the output is a per-entry
contraction of it. Under CI the embedding and channel projections are
block-diagonal per channel, as in the encoder, so no gate of channel i
reads channel j. The whole branch is one `autodiff.ap_gate` node.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamBag, Tensor
from .config import ModelConfig
from .encoder import _xavier

SPATIAL_UP_FACTOR = 4   # K_ap -> 4*K_ap up-projection
CHANNEL_HIDDEN = 16     # 4 -> 16 -> 4 channel projection (4 -> 4 per channel in CI)


class ApGateBranch:
    def __init__(self, cfg: ModelConfig, bag: ParamBag, rng: np.random.Generator):
        self.cfg = cfg
        k, up, dense = cfg.k_ap, SPATIAL_UP_FACTOR * cfg.k_ap, cfg.strategy == "CD"
        # (8,) under CI: per channel
        self.embed_kernel = bag.add("ap.embed.kernel", (8, 4) if dense else (8,),
                                    _xavier(rng, 4, 8) if dense else _xavier(rng, 1, 1))
        self.embed_bias = bag.add("ap.embed.bias", (8,), 0.0)
        self.p1 = bag.add("ap.spatial.p1", (k, up), _xavier(rng, k, up))
        self.b1 = bag.add("ap.spatial.b1", (up,), 0.0)
        self.p2 = bag.add("ap.spatial.p2", (up, k), _xavier(rng, up, k))
        self.b2 = bag.add("ap.spatial.b2", (k,), 0.0)
        if dense:
            self.p3 = bag.add("ap.channel.p3", (4, CHANNEL_HIDDEN), _xavier(rng, 4, CHANNEL_HIDDEN))
            self.b3 = bag.add("ap.channel.b3", (CHANNEL_HIDDEN,), 0.0)
            self.p4 = bag.add("ap.channel.p4", (CHANNEL_HIDDEN, 4), _xavier(rng, CHANNEL_HIDDEN, 4))
        else:
            # Per-channel 1 -> 4 -> 1 blocks, one row per channel.
            self.p3 = bag.add("ap.channel.p3", (4, 4), _xavier(rng, 1, 4))
            self.b3 = bag.add("ap.channel.b3", (4, 4), 0.0)
            self.p4 = bag.add("ap.channel.p4", (4, 4), _xavier(rng, 4, 1))
        self.b4 = bag.add("ap.channel.b4", (4,), 0.0)

    def forward(self, a: Tensor) -> Tensor:
        return ad.ap_gate(a, self.embed_kernel, self.embed_bias, self.p1, self.b1, self.p2, self.b2,
                          self.p3, self.b3, self.p4, self.b4)
