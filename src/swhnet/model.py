"""Feature fusion, the regression head, the Huber objective, and the
assembled four-channel wave height model.

Encoder features (M x 4) and gated auxiliary features (4 x K_ap) are
concatenated per channel. Under CI one shared-weight head maps each
channel's vector to its own prediction; under CD a single joint head maps
the concatenation of all four vectors to four outputs. Training minimizes
the mean Huber penalty over every (sample, channel) pair.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamBag, Tensor
from .apbranch import ApGateBranch
from .config import ModelConfig
from .encoder import DdmEncoder, _xavier
from .errors import ContractError, ShapeError

HEAD_N_HIDDEN = 9
HEAD_MIN_WIDTH = 32


def fuse(d_prime: Tensor, a_prime: Tensor, strategy: str) -> Tensor:
    """Concatenate encoder and auxiliary features along the feature axis.

    d_prime is (..., M, 4) and a_prime (..., 4, K_ap). CI returns the
    (..., 4, M+K_ap) per-channel rows; CD returns the (..., 1, 4*(M+K_ap))
    row of the channel blocks in order.
    """
    per_channel = ad.concat([ad.transpose(d_prime), a_prime], axis=-1)
    if strategy == "CI":
        return per_channel
    return ad.reshape(per_channel, per_channel.shape[:-2] + (1, -1))


def head_widths(input_dim: int, explicit: list[int] | None) -> list[int]:
    """Hidden widths of the 9-layer head: geometric taper down to 32."""
    if explicit is not None:
        return list(explicit)
    taper = np.geomspace(max(input_dim, HEAD_MIN_WIDTH), HEAD_MIN_WIDTH, num=HEAD_N_HIDDEN + 1)[1:]
    return [max(HEAD_MIN_WIDTH, int(round(w))) for w in taper]


class FusionHead:
    """MLP with 9 ReLU hidden layers; shared per channel (CI) or joint (CD)."""

    def __init__(self, cfg: ModelConfig, bag: ParamBag, rng: np.random.Generator):
        self.cfg = cfg
        per_channel = cfg.flat_len + cfg.k_ap
        self.input_dim = per_channel if cfg.strategy == "CI" else 4 * per_channel
        out_dim = 1 if cfg.strategy == "CI" else 4
        widths = head_widths(self.input_dim, cfg.head_hidden)
        self.weights = []
        prev = self.input_dim
        for i, w in enumerate(widths):
            self.weights.append((
                bag.add(f"head.layer{i}.w", (prev, w), _xavier(rng, prev, w)),
                bag.add(f"head.layer{i}.b", (w,), 0.0),
            ))
            prev = w
        self.out_w = bag.add("head.out.w", (prev, out_dim), _xavier(rng, prev, out_dim))
        self.out_b = bag.add("head.out.b", (out_dim,), 0.0)

    def _mlp(self, x: Tensor) -> Tensor:
        for w, b in self.weights:
            x = ad.linear(x, w, b, relu=True)
        return ad.linear(x, self.out_w, self.out_b)

    def forward(self, fused: Tensor) -> Tensor:
        """Map fused features (see `fuse`) to the (..., 4) per-channel predictions.

        The rows of every sample and, under CI, every channel go through
        each layer as one matrix product.
        """
        return ad.reshape(self._mlp(fused), fused.shape[:-2] + (4,))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def batch_loss(preds: Tensor | list[Tensor], refs: np.ndarray, delta: float) -> Tensor:
    """Mean Huber penalty over all (sample, channel) pairs of a batch.

    `preds` is the (B, 4) output of `forward_batch` or a list of B (4,)
    single-sample outputs.
    """
    if len(preds) == 0:
        raise ContractError("batch_loss over an empty batch")
    refs = np.asarray(refs, dtype=np.float64)
    if refs.shape != (len(preds), 4):
        raise ShapeError(f"reference block must be ({len(preds)}, 4), got {refs.shape}")
    stacked = preds if isinstance(preds, Tensor) else ad.stack(preds, axis=0)
    if stacked.shape != refs.shape:
        raise ShapeError(f"predictions {stacked.shape} do not match references {refs.shape}")
    return ad.huber(ad.add(stacked, -refs), delta)


# ---------------------------------------------------------------------------
# assembled model
# ---------------------------------------------------------------------------


class WaveHeightModel:
    """Four-channel DDM + auxiliary-parameter network producing four SWH values.

    Inputs are numpy arrays: a batch of (4, 3, W, H) DDM stacks and of
    (4, K_ap) standardized auxiliary matrices, one graph for the batch.
    Training mode threads an explicit rng into the dropout sites, each
    sample drawing its masks in turn as if run alone; evaluation mode is
    deterministic.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.bag = ParamBag()
        rng = np.random.default_rng([cfg.seed, 0])
        self.encoder = DdmEncoder(cfg, self.bag, rng)
        self.ap_branch = ApGateBranch(cfg, self.bag, rng)
        self.head = FusionHead(cfg, self.bag, rng)
        self.bag.seal()  # the initializers draw from rng here, in the order added

    def forward_batch(self, ddms: np.ndarray, aps: np.ndarray,
                      train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """(B, 4, 3, W, H) DDM stacks and (B, 4, K_ap) APs to (B, 4) predictions.

        Sample b's outputs, and in train mode its dropout masks, are those
        of the b-th of B consecutive single-sample forwards; `rng` is left
        where those would leave it. Weight gradients sum over the batch.
        """
        cfg = self.cfg
        ddms = np.asarray(ddms, dtype=np.float64)
        aps = np.asarray(aps, dtype=np.float64)
        n = ddms.shape[0] if ddms.ndim else 0
        if n < 1 or ddms.shape != (n, 4, 3, cfg.width, cfg.height):
            raise ShapeError(f"DDM batch must be (B >= 1, 4, 3, {cfg.width}, {cfg.height}), got {ddms.shape}")
        if aps.shape != (n, 4, cfg.k_ap):
            raise ShapeError(f"AP batch must be ({n}, 4, {cfg.k_ap}), got {aps.shape}")
        with ad.per_sample_streams(rng, n, self.encoder.dropout_draws() if train else 0) as streams:
            d_prime = self.encoder.forward(Tensor(ddms), train, streams)
        a_prime = self.ap_branch.forward(Tensor(aps))
        return self.head.forward(fuse(d_prime, a_prime, cfg.strategy))

    def forward(self, ddm_stack: np.ndarray, ap: np.ndarray,
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        """One (4, 3, W, H) stack and (4, K_ap) AP matrix: `forward_batch`
        with B = 1, returning (4,)."""
        out = self.forward_batch(np.asarray(ddm_stack)[None], np.asarray(ap)[None], train, rng)
        return ad.reshape(out, (4,))

    def predict_sample(self, ddm_stack: np.ndarray, ap: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode prediction for one sample."""
        with ad.no_grad():
            return self.forward(ddm_stack, ap, train=False).data.copy()
