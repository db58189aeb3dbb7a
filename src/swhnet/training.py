"""Optimization loop: decoupled-weight-decay Adam, epoch-level validation,
early stopping on the average per-channel validation RMSE, and eval-mode
prediction.

The best checkpoint (lowest average validation RMSE across the four
channels) is returned, not the last; training is reproducible given the
seed since batch shuffling and dropout consume one explicit generator.

Each optimizer step builds one autodiff graph for its whole mini-batch
(`WaveHeightModel.forward_batch`); validation and prediction run no-grad
batches of at most `eval_batch_size(cfg)` samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamBag
from .config import ModelConfig, TrainConfig
from .container import write_csv
from .errors import ConfigError, ContractError
from .model import WaveHeightModel, batch_loss
from .pipeline import ap_matrix, per_channel, standardize_ap

# Sizes a no-grad evaluation batch as if each sample held its float (M, d_ff)
# feedforward hidden array. No forward keeps one: `ffn` runs in tiles of
# autodiff.TILE_BYTES, a training forward keeps only its one-byte dropout
# mask, and a paper-default evaluation batch of 3 peaks near 1.2 MB above its
# inputs. So this is a size rule, not a memory bound, kept because
# evaluation bits depend on batch composition: small models fit a whole
# split in one batch, where batching pays, and the paper default (9.6 MB a
# sample) takes 3 samples a batch, where evaluation speed and peak RSS
# measured the same with 1, 3 or 4.
EVAL_BATCH_BYTES = 32 << 20

# Elements per slice of the parameter buffer that AdamW.step updates at a
# time. Its two slice-sized scratch buffers stay in cache whatever the
# model's size; whole-buffer temporaries would cost peak memory and
# measured slower end to end.
ADAMW_SLICE = 1 << 16

HISTORY_FIELDS = ("epoch", "train_loss", "val_rmse_ch1", "val_rmse_ch2",
                  "val_rmse_ch3", "val_rmse_ch4", "val_rmse_avg")


@dataclass
class ModelDataset:
    """Model-ready arrays: DDM stacks, standardized APs, reference SWH."""

    ddms: np.ndarray        # (n, 4, 3, W, H)
    aps: np.ndarray         # (n, 4, K_ap), standardized
    refs: np.ndarray        # (n, 4)
    timestamps: np.ndarray  # (n,)
    lats: np.ndarray        # (n, 4) raw specular latitudes
    lons: np.ndarray        # (n, 4)

    def __len__(self) -> int:
        return self.refs.shape[0]


def to_model_dataset(samples, stats: dict, use_wind: bool) -> ModelDataset:
    """Convert canonical samples into standardized model-ready arrays.

    With use_wind the wind column is appended before standardization;
    samples lacking wind speed then raise a config error.
    """
    aps = ap_matrix(samples, use_wind)
    n = len(samples)
    if n == 0:
        return ModelDataset(ddms=np.zeros((0, 4, 3, 1, 1)), aps=aps, refs=np.zeros((0, 4)),
                            timestamps=np.zeros(0), lats=np.zeros((0, 4)), lons=np.zeros((0, 4)))
    a = per_channel([ch for s in samples for ch in s.channels], n, "ddms", "swh_ref", "sp_lat", "sp_lon")
    return ModelDataset(ddms=a["ddms"], aps=standardize_ap(aps, stats), refs=a["swh_ref"],
                        timestamps=np.array([s.timestamp for s in samples], dtype=np.float64),
                        lats=a["sp_lat"], lons=a["sp_lon"])


@dataclass
class CheckpointMeta:
    epoch: int
    val_rmse: list[float]
    val_rmse_avg: float
    config_hash: str = ""

    def __post_init__(self):
        expected = float(np.mean(self.val_rmse))
        if abs(self.val_rmse_avg - expected) > 1e-12:
            raise ContractError("val_rmse_avg must equal the mean of the channel RMSEs")


@dataclass
class TrainResult:
    """The epoch history and the best epoch's parameters. `best_state` maps
    each parameter name to its view of one flat copy of the parameter
    buffer (`ParamBag.state_arrays`)."""
    history: list[dict]
    best_state: dict[str, np.ndarray]
    best_meta: CheckpointMeta


class AdamW:
    """Adam with decoupled weight decay.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)

    The moments are two flat arrays laid out as the bag's parameter buffer
    (see `ParamBag.seal`, which this seals if the bag is not yet).
    """

    def __init__(self, bag: ParamBag, lr: float, weight_decay: float = 0.0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        bag.seal()
        self.bag = bag
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = np.zeros(bag.data.size)
        self._v = np.zeros(bag.data.size)
        n = min(bag.data.size, ADAMW_SLICE)
        self._scratch = (np.empty(n), np.empty(n))

    def step(self) -> None:
        """One update of every parameter, in place: the textbook expression's
        operations in its order, slice by slice of the parameter buffer,
        written into two scratch buffers."""
        data, grad = self.bag.flat_buffers()
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, wd, eps = self.beta1, self.beta2, self.lr, self.weight_decay, self.eps
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for lo in range(0, data.size, ADAMW_SLICE):
            sl = slice(lo, lo + ADAMW_SLICE)
            g, m, v, w = grad[sl], self._m[sl], self._v[sl], data[sl]
            s1, s2 = (buf[:len(g)] for buf in self._scratch)
            m *= b1
            np.multiply(1.0 - b1, g, out=s1)
            m += s1
            v *= b2
            np.multiply(1.0 - b2, g, out=s1)
            s1 *= g
            v += s1
            np.divide(m, bc1, out=s1)            # m_hat
            np.divide(v, bc2, out=s2)            # v_hat
            np.sqrt(s2, out=s2)
            s2 += eps
            np.divide(s1, s2, out=s1)            # m_hat / (sqrt(v_hat) + eps)
            np.multiply(wd, w, out=s2)
            s1 += s2
            np.multiply(lr, s1, out=s1)
            w -= s1


def eval_batch_size(cfg: ModelConfig) -> int:
    """Samples per no-grad evaluation batch: as many as would fit the batch's
    float feedforward hidden arrays in EVAL_BATCH_BYTES, at least one."""
    return max(1, EVAL_BATCH_BYTES // (8 * cfg.flat_len * cfg.d_ff))


def predict(model: WaveHeightModel, dataset: ModelDataset) -> np.ndarray:
    """Deterministic eval-mode predictions, shape (n, 4)."""
    if dataset.aps.shape[0] and dataset.aps.shape[2] != model.cfg.k_ap:
        raise ConfigError(
            f"dataset has {dataset.aps.shape[2]} AP columns but the model expects "
            f"{model.cfg.k_ap} (use_wind={model.cfg.use_wind})"
        )
    out = np.zeros((len(dataset), 4))
    step = eval_batch_size(model.cfg)
    with ad.no_grad():
        for lo in range(0, len(dataset), step):
            out[lo:lo + step] = model.forward_batch(dataset.ddms[lo:lo + step], dataset.aps[lo:lo + step]).data
    return out


def validation_rmse(model: WaveHeightModel, dataset: ModelDataset) -> np.ndarray:
    preds = predict(model, dataset)
    return np.sqrt(np.mean((preds - dataset.refs) ** 2, axis=0))


def _train_step(model: WaveHeightModel, opt: AdamW, data: ModelDataset, idx: np.ndarray,
                rng: np.random.Generator, delta: float) -> float:
    """One optimizer step on the samples `idx`; returns the batch loss.

    The step's graph is freed when this returns, not held while the next
    step builds its own.
    """
    model.bag.zero_grad()
    preds = model.forward_batch(data.ddms[idx], data.aps[idx], train=True, rng=rng)
    loss = batch_loss(preds, data.refs[idx], delta)
    loss.backward()
    opt.step()
    return loss.item()


def train(model: WaveHeightModel, train_set: ModelDataset, val_set: ModelDataset,
          tcfg: TrainConfig, config_hash: str = "", log=None) -> TrainResult:
    """Run the optimization loop and return history plus the best checkpoint.

    An epoch is the best so far when its average validation RMSE is strictly
    below every earlier epoch's; training stops once `patience` epochs have
    run since the best (or since the start, while none is best).
    The model ends holding the best epoch's parameters. They are copied
    only when needed: before the next epoch's first step changes them, or,
    if the last epoch run is the best, once the optimizer is released.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ContractError("train() requires non-empty train and validation sets")
    opt = AdamW(model.bag, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    rng = np.random.default_rng([tcfg.seed, 1])
    history: list[dict] = []
    best_state = best_meta = None

    for epoch in range(1, tcfg.max_epochs + 1):
        if best_meta is not None and best_meta.epoch == epoch - 1:  # before a step changes it
            best_state = model.bag.state_arrays()
        order = rng.permutation(len(train_set))
        epoch_loss = 0.0
        t0 = time.perf_counter()
        for start in range(0, len(order), tcfg.batch_size):
            chunk = order[start:start + tcfg.batch_size]
            epoch_loss += _train_step(model, opt, train_set, chunk, rng, tcfg.delta) * len(chunk)
        train_s = time.perf_counter() - t0
        train_loss = epoch_loss / len(order)
        rmse = validation_rmse(model, val_set)
        avg = float(rmse.mean())
        history.append(dict(zip(HISTORY_FIELDS, (epoch, train_loss, *rmse.tolist(), avg))))
        if log is not None:
            log(f"epoch {epoch}: train_loss={train_loss:.6f} val_rmse_avg={avg:.6f} "
                f"train_s={train_s:.3f} train_samples_per_s={len(order) / train_s:.1f}")
        if avg < (np.inf if best_meta is None else best_meta.val_rmse_avg):
            best_meta = CheckpointMeta(epoch=epoch, val_rmse=rmse.tolist(), val_rmse_avg=avg,
                                       config_hash=config_hash)
        elif epoch - (0 if best_meta is None else best_meta.epoch) >= tcfg.patience:
            break

    if best_meta is None:  # no validation average was below +inf, e.g. all NaN
        raise ContractError("training produced no validation measurements")
    del opt  # with its two moment buffers, before the model's state is copied
    if best_meta.epoch == history[-1]["epoch"]:
        best_state = model.bag.state_arrays()
    else:
        model.bag.load_state_arrays(best_state)
    return TrainResult(history=history, best_state=best_state, best_meta=best_meta)


def write_history(path: str, history: list[dict]) -> None:
    write_csv(path, HISTORY_FIELDS, ([row[k] for k in HISTORY_FIELDS] for row in history))
