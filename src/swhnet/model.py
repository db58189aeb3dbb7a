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
from .errors import ConfigError, ContractError, ShapeError

HEAD_N_HIDDEN = 9
HEAD_MIN_WIDTH = 32


def fuse(d_prime: Tensor, a_prime: Tensor, strategy: str):
    """Concatenate encoder and auxiliary features along the feature axis.

    CI returns four (1, M+K_ap) row vectors, one per channel; CD returns
    a single (1, 4*(M+K_ap)) row vector of the channel blocks in order.
    """
    if d_prime.ndim != 2 or d_prime.shape[1] != 4 or a_prime.ndim != 2 or a_prime.shape[0] != 4:
        raise ShapeError(f"fuse expects (M, 4) and (4, K), got {d_prime.shape} and {a_prime.shape}")
    d_cols = ad.split(d_prime, 4, axis=1)
    a_rows = ad.split(a_prime, 4, axis=0)
    per_channel = [
        ad.concat([ad.transpose(d_cols[c]), a_rows[c]], axis=1)
        for c in range(4)
    ]
    if strategy == "CI":
        return per_channel
    if strategy == "CD":
        return ad.concat(per_channel, axis=1)
    raise ConfigError(f"unknown strategy {strategy!r}")


def head_widths(input_dim: int, explicit: list[int] | None) -> list[int]:
    """Hidden widths of the 9-layer head: geometric taper down to 32."""
    if explicit is not None:
        return list(explicit)
    taper = np.geomspace(max(input_dim, HEAD_MIN_WIDTH), HEAD_MIN_WIDTH, num=HEAD_N_HIDDEN + 1)[1:]
    return [max(HEAD_MIN_WIDTH, int(round(w))) for w in taper]


class FusionHead:
    """MLP with 9 ReLU hidden layers; shared per channel (CI) or joint (CD)."""

    def __init__(self, cfg: ModelConfig, bag: ParamBag, rng: np.random.Generator, prefix: str = "head"):
        self.cfg = cfg
        m_eff = cfg.flat_len if cfg.head_input == "full" else cfg.embed_dim
        per_channel = m_eff + cfg.k_ap
        self.input_dim = per_channel if cfg.strategy == "CI" else 4 * per_channel
        out_dim = 1 if cfg.strategy == "CI" else 4
        widths = head_widths(self.input_dim, cfg.head_hidden)
        self.weights = []
        prev = self.input_dim
        for i, w in enumerate(widths):
            self.weights.append((
                bag.add(f"{prefix}.layer{i}.w", _xavier(rng, (prev, w), prev, w)),
                bag.add(f"{prefix}.layer{i}.b", np.zeros(w)),
            ))
            prev = w
        self.out_w = bag.add(f"{prefix}.out.w", _xavier(rng, (prev, out_dim), prev, out_dim))
        self.out_b = bag.add(f"{prefix}.out.b", np.zeros(out_dim))

    def _mlp(self, x: Tensor) -> Tensor:
        for w, b in self.weights:
            x = ad.relu(ad.add(ad.matmul(x, w), b))
        return ad.add(ad.matmul(x, self.out_w), self.out_b)

    def forward(self, fused) -> Tensor:
        """Map fused features to the four per-channel predictions."""
        if self.cfg.strategy == "CI":
            outs = [self._mlp(vec) for vec in fused]
            return ad.reshape(ad.concat(outs, axis=1), (4,))
        return ad.reshape(self._mlp(fused), (4,))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def batch_loss(preds: list[Tensor], refs: np.ndarray, delta: float) -> Tensor:
    """Mean Huber penalty over all (sample, channel) pairs of a batch."""
    if len(preds) == 0:
        raise ContractError("batch_loss over an empty batch")
    refs = np.asarray(refs, dtype=np.float64)
    if refs.shape != (len(preds), 4):
        raise ShapeError(f"reference block must be ({len(preds)}, 4), got {refs.shape}")
    stacked = ad.stack(preds, axis=0)
    return ad.tmean(ad.huber(ad.add(stacked, -refs), delta))


# ---------------------------------------------------------------------------
# assembled model
# ---------------------------------------------------------------------------


class WaveHeightModel:
    """Four-channel DDM + auxiliary-parameter network producing four SWH values.

    Inputs are numpy arrays: a (4, 3, W, H) DDM stack and a (4, K_ap)
    standardized auxiliary matrix. Training mode threads an explicit rng
    into the dropout sites; evaluation mode is deterministic.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.bag = ParamBag()
        rng = np.random.default_rng([cfg.seed, 0])
        self.encoder = DdmEncoder(cfg, self.bag, rng)
        self.ap_branch = ApGateBranch(cfg, self.bag, rng)
        self.head = FusionHead(cfg, self.bag, rng)

    def forward(self, ddm_stack: np.ndarray, ap: np.ndarray,
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
        cfg = self.cfg
        ddm_stack = np.asarray(ddm_stack, dtype=np.float64)
        ap = np.asarray(ap, dtype=np.float64)
        if ddm_stack.shape != (4, 3, cfg.width, cfg.height):
            raise ShapeError(f"DDM stack must be (4, 3, {cfg.width}, {cfg.height}), got {ddm_stack.shape}")
        if ap.shape != (4, cfg.k_ap):
            raise ShapeError(f"AP matrix must be (4, {cfg.k_ap}), got {ap.shape}")
        d_prime = self.encoder.forward(Tensor(ddm_stack), train, rng)
        if cfg.head_input == "global_only":
            d_prime = ad.split(d_prime, cfg.seq_len, axis=0)[0]
        a_prime = self.ap_branch.forward(Tensor(ap))
        fused = fuse(d_prime, a_prime, cfg.strategy)
        return self.head.forward(fused)

    def predict_sample(self, ddm_stack: np.ndarray, ap: np.ndarray) -> np.ndarray:
        """Deterministic eval-mode prediction for one sample."""
        with ad.no_grad():
            return self.forward(ddm_stack, ap, train=False).data.copy()
