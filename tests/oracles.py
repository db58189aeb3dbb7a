"""Straight-line numpy oracles used by the unit and acceptance tests.

Everything here is written with explicit loops and no reuse of package
internals, so the network implementation is checked against genuinely
independent arithmetic. The exceptions are `softmax_rows`, an autodiff
node of its own, `encoder_forward_per_channel`, which keeps the
channel-by-channel embedding as the reference for the batched one,
`match_buoy_record_oracle`, the brute-force buoy scan that the indexed
matcher must reproduce exactly, so it shares the scalar `haversine_km`,
`PerParameterAdamW`, the optimizer as it ran before the parameters
shared one buffer, which the one-pass `AdamW` must reproduce bit for bit,
`kept_hidden_ffn`, the fused feedforward as it ran when it kept the
float hidden array for backward, which `autodiff.ffn`'s recompute from a
one-byte mask must reproduce bit for bit, and the node chains that
`autodiff.patch_embed`, `autodiff.linear`, `autodiff.affine_norm`,
`autodiff.ap_gate` and `autodiff.huber` replaced, as they ran before
(`patch_embed_chain`, `linear_chain`, `affine_norm_chain`,
`ap_gate_chain`, `huber_mean_chain`, built on `matmul_node` and the
deleted nodes `relu_node`, `normalize_node`, `pad_end_node`,
`conv_patchify_chain`, `mul_node`, `sigmoid_node`, `tsum_node`,
`tmean_chain`, `huber_node` and `conv1d_embed_chain`), which each fused
op must reproduce bit for bit. `probe_sum` is the scalar test loss
sum(x * probe) as one node. `parse_l1_record` and `_qc_violation` are
the L1 parse and screen as they ran before `pipeline.screen_l1_record`
merged them, on the full parsed record (`ParsedL1Record`), which the
one-pass screen must agree with rule for rule and bit for bit.
`generate`, with `_draw_swh` and `_ddm_maps`, is the synthetic generator
as it ran before `synth.generate` drew its stream in bulk, one channel
at a time, which the bulk generator must reproduce bit for bit.
`interpolate_swh`, with `_bracket` and `_InterpError`, and
`match_era5_groups`, with `match_era5` and `_record_to_obs`, are the ERA5
matcher as it ran one record at a time, which the array matcher in
`pipeline` must reproduce bit for bit, values and reasons.
`split_dataset` is the temporal split as it ran with one comparison chain
per sample, which the `searchsorted` split must reproduce sample for
sample, subsample draws and tally included.
`MetricsReportWriters` holds `metrics.MetricsReport`'s writers as they
ran before one row writer served both metrics CSVs and `to_json` folded
into `write_json`, which the report's writers must reproduce byte for
byte. `write_predictions`, `write_history`, `export_scatter` and
`export_bias_grid` are the other report writers as they ran before every
one wrote through `container.write_csv` and `container.write_json`,
which the writers that replaced them must reproduce byte for byte (the
scatter at widths that divide its range, where its bin count is
unchanged, and with a null line for constant references, where it
raised after writing two files). `swh_from_nbrcs`, the exact inverse of
synth's planted map, and `channel_sd_percentile`, the spread of a
sample's four references, are helpers that only tests use.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from swhnet import autodiff as ad
from swhnet.autodiff import Tensor, _as_tensor, _check_dropout, _rows, _tiles, _unbroadcast
from swhnet.autodiff import linear as _linear
from swhnet.cli import PREDICTION_FIELDS
from swhnet.config import AP_COLUMNS, DDM_TYPES, SplitSpec, SynthSpec, parse_time
from swhnet.container import atomic_open_text
from swhnet.errors import ConfigError, ContractError, FormatError, ShapeError
from swhnet.metrics import METRIC_NAMES, _pair, least_squares_fit
from swhnet.pipeline import (BASE_AP_FIELDS, BUOY_MAX_KM, BUOY_MAX_S, FILL_VALUE_THRESHOLD,
                             LAND_DISTANCE_MIN_KM, PITCH_MAX_DEG, QUALITY_FLAG_MASK, RCG_MIN,
                             ROLL_MAX_DEG, TRACKER_STATUS_OK, YAW_MAX_DEG, ChannelObs, Era5Grid,
                             FourChannelSample, L1Record, compute_rcg, haversine_km, normalize_lon)
from swhnet.synth import (LES_DECAY, LES_SCALE, LOGNORMAL_MEDIAN, LOGNORMAL_SIGMA, NBRCS_DECAY,
                          NBRCS_SCALE, SNR_BASE, SNR_SCALE, nbrcs_from_swh)
from swhnet.training import HISTORY_FIELDS


def norm_oracle(x, gamma, beta, strategy, eps=1e-5):
    """Population-statistics normalization, per token (CD) or per channel (CI)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    m = x.shape[0]
    if strategy == "CD":
        for t in range(m):
            row = x[t]
            mu = row.mean()
            var = ((row - mu) ** 2).mean()
            out[t] = gamma * (row - mu) / math.sqrt(var + eps) + beta
    else:
        for c in range(4):
            col = x[:, c]
            mu = col.mean()
            var = ((col - mu) ** 2).mean()
            out[:, c] = gamma[c] * (col - mu) / math.sqrt(var + eps) + beta[c]
    return out


def attention_oracle(tokens, w, strategy):
    """Per-channel spatial attention plus output projection, explicit loops."""
    tokens = np.asarray(tokens, dtype=np.float64)
    m = tokens.shape[0]
    heads = np.zeros((m, 4))
    for i in range(4):
        q = w["wq"][i] * tokens[:, i]
        k = w["wk"][i] * tokens[:, i]
        v = w["wv"][i] * tokens[:, i]
        for t in range(m):
            scores = np.array([q[t] * k[n] / math.sqrt(1.0) for n in range(m)])
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            heads[t, i] = sum(a[n] * v[n] for n in range(m))
    out = np.zeros((m, 4))
    if strategy == "CD":
        for t in range(m):
            for j in range(4):
                out[t, j] = sum(heads[t, i] * w["wo"][i, j] for i in range(4))
    else:
        for t in range(m):
            for j in range(4):
                out[t, j] = heads[t, j] * w["wo"][j]
    return out


def ffn_oracle(x, w, strategy, p=0.0, rng=None):
    """Two-layer token-wise feedforward with ReLU, explicit loops.

    With p > 0 the hidden units pass through inverted dropout, the keep
    masks drawn from rng in the documented order: one (M, d_ff) draw for
    CD, one (M, d_ff/4) draw per channel, channel by channel, for CI.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.shape[0]
    out = np.zeros((m, 4))
    scale = 1.0 / (1.0 - p)
    if strategy == "CD":
        d_ff = w["ffn_w1"].shape[1]
        keep = rng.random((m, d_ff)) >= p if p > 0 else np.ones((m, d_ff), dtype=bool)
        for t in range(m):
            hidden = np.zeros(d_ff)
            for h in range(d_ff):
                pre = sum(x[t, i] * w["ffn_w1"][i, h] for i in range(4)) + w["ffn_b1"][h]
                hidden[h] = max(0.0, pre) * scale if keep[t, h] else 0.0
            for j in range(4):
                out[t, j] = sum(hidden[h] * w["ffn_w2"][h, j] for h in range(d_ff)) + w["ffn_b2"][j]
    else:
        dff4 = w["ffn_w1"].shape[1]
        for c in range(4):
            keep = rng.random((m, dff4)) >= p if p > 0 else np.ones((m, dff4), dtype=bool)
            for t in range(m):
                hidden = np.array([max(0.0, x[t, c] * w["ffn_w1"][c, h] + w["ffn_b1"][c, h]) * scale
                                   if keep[t, h] else 0.0 for h in range(dff4)])
                out[t, c] = sum(hidden[h] * w["ffn_w2"][c, h] for h in range(dff4)) + w["ffn_b2"][c]
    return out


def encoder_layer_oracle(tokens, w, strategy, eps=1e-5):
    """One full encoder layer in eval mode: attention, residual combiners, FFN."""
    o = attention_oracle(tokens, w, strategy)
    d = o + norm_oracle(o, w["norm1_gamma"], w["norm1_beta"], strategy, eps)
    f = ffn_oracle(d, w, strategy)
    return d + norm_oracle(f, w["norm2_gamma"], w["norm2_beta"], strategy, eps)


def layer_weight_arrays(encoder, index):
    """Extract one encoder layer's weights as plain numpy arrays."""
    return {k: t.data.copy() for k, t in encoder.layers[index].items()}


def encoder_forward_per_channel(encoder, stack, train=False, rng=None):
    """`DdmEncoder.forward` with the channels embedded one at a time: split ->
    embed_channel x 4 -> aggregate_channels, then the same layers.

    Built from the encoder's own pieces, so it checks only that embedding
    all four channels in one call changes nothing.
    """
    stack = _as_tensor(stack)
    per_channel = [encoder.embed_channel(ad.reshape(ch, stack.shape[:-4] + stack.shape[-3:]))
                   for ch in ad.split(stack, 4, axis=-4)]
    tokens = encoder.aggregate_channels(per_channel)
    for layer in encoder.layers:
        tokens = encoder.layer_forward(tokens, layer, train, rng)
    return tokens


def spatial_gate_oracle(a1, p1, b1, p2, b2):
    """Row-wise up/down projection followed by sigmoid, explicit loops."""
    a1 = np.asarray(a1, dtype=np.float64)
    rows, k = a1.shape
    out = np.zeros_like(a1)
    for r in range(rows):
        hidden = np.array([sum(a1[r, i] * p1[i, h] for i in range(k)) + b1[h] for h in range(p1.shape[1])])
        for j in range(k):
            z = sum(hidden[h] * p2[h, j] for h in range(p1.shape[1])) + b2[j]
            out[r, j] = 1.0 / (1.0 + math.exp(-z))
    return out


def channel_gate_oracle_cd(a2, p3, b3, p4, b4):
    """Transposed per-position channel projection, dense (CD) variant."""
    a2 = np.asarray(a2, dtype=np.float64)
    k = a2.shape[1]
    out = np.zeros_like(a2)
    for pos in range(k):
        vec = a2[:, pos]
        hidden = np.array([sum(vec[i] * p3[i, h] for i in range(4)) + b3[h] for h in range(p3.shape[1])])
        for j in range(4):
            z = sum(hidden[h] * p4[h, j] for h in range(p3.shape[1])) + b4[j]
            out[j, pos] = 1.0 / (1.0 + math.exp(-z))
    return out


def softmax_rows(x):
    """Row-wise softmax of a 2-D tensor, computed with max subtraction.

    An autodiff node of its own, so tests can check softmax behaviour and
    gradients apart from the fused attention op.
    """
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows requires a 2-D tensor, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    return Tensor._from_op(s, (x,), _bw, "softmax_rows")


def huber_value(y_hat, y, delta):
    """Scalar Huber penalty: quadratic inside |e| <= delta, linear outside."""
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    e = y - y_hat
    if abs(e) <= delta:
        return 0.5 * e * e
    return delta * abs(e) - 0.5 * delta * delta


def finite_difference_grad(f, arrays, step=1e-5):
    """Central finite-difference gradient of scalar f w.r.t. each array in-place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric, floor=1e-4):
    """Worst-case elementwise relative error with a scale floor for tiny entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def match_buoy_record_oracle(rec, buoys):
    """Closest buoy within 25 km and 30 min; ties break to the nearest in
    time, then to the first in list order. Scans every buoy."""
    best = None
    for buoy in buoys:
        dt = abs(buoy.timestamp - rec.timestamp)
        if dt > BUOY_MAX_S:
            continue
        dist = haversine_km(rec.sp_lat, rec.sp_lon, buoy.lat, buoy.lon)
        if dist > BUOY_MAX_KM:
            continue
        key = (dist, dt)
        if best is None or key < best[0]:
            best = (key, buoy)
    return None if best is None else best[1]


@dataclass
class ParsedL1Record:
    timestamp: float
    channel: int
    sp_lat: float
    sp_lon: float
    ddms: np.ndarray               # (3, W, H) ordered brcs, eff_scatter, power_analog
    aps: dict[str, float]          # the six base auxiliary parameters
    range_tx_sp_m: float
    range_sp_rx_m: float
    quality_flags: int
    tracker_attitude_status: int
    roll_deg: float
    yaw_deg: float
    pitch_deg: float
    distance_to_land_km: float
    solar_contamination: bool
    rcg: float | None = None       # attached by quality control


def parse_l1_record(doc: dict) -> ParsedL1Record:
    """Build a ParsedL1Record from one interchange-format JSON object."""
    try:
        ddms = np.array([doc["ddms"][name] for name in DDM_TYPES], dtype=np.float64)
        if ddms.ndim != 3:
            raise FormatError(f"ddms must be three 2-D maps, got shape {ddms.shape}")
        aps = {k: float(doc["aps"][k]) for k in BASE_AP_FIELDS}
        flags = doc["flags"]
        channel = int(doc["channel"])
        lat = float(doc["sp_lat"])
        if channel not in (1, 2, 3, 4):
            raise FormatError(f"channel must be 1..4, got {channel}")
        if math.isfinite(lat) and not -90.0 <= lat <= 90.0:  # non-finite is QC's nan_inf
            raise FormatError(f"sp_lat out of range: {lat}")
        return ParsedL1Record(
            timestamp=float(doc["timestamp"]),
            channel=channel,
            sp_lat=lat,
            sp_lon=normalize_lon(float(doc["sp_lon"])),
            ddms=ddms,
            aps=aps,
            range_tx_sp_m=float(doc["geometry"]["range_tx_sp_m"]),
            range_sp_rx_m=float(doc["geometry"]["range_sp_rx_m"]),
            quality_flags=int(flags["quality_flags"]),
            tracker_attitude_status=int(flags["tracker_attitude_status"]),
            roll_deg=float(flags["roll_deg"]),
            yaw_deg=float(flags["yaw_deg"]),
            pitch_deg=float(flags["pitch_deg"]),
            distance_to_land_km=float(flags["distance_to_land_km"]),
            solar_contamination=bool(flags["solar_contamination"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed L1 record: {exc}") from exc


def _qc_violation(rec: ParsedL1Record) -> str | None:
    """First violated rule name, or None if the record passes. Attaches rcg."""
    numeric = np.concatenate([
        rec.ddms.reshape(-1),
        np.array([rec.aps[k] for k in BASE_AP_FIELDS]),
        np.array([rec.sp_lat, rec.sp_lon, rec.range_tx_sp_m, rec.range_sp_rx_m,
                  rec.roll_deg, rec.yaw_deg, rec.pitch_deg, rec.distance_to_land_km]),
    ])
    if not (np.all(np.isfinite(numeric)) and math.isfinite(rec.timestamp)):
        return "nan_inf"
    if np.any(numeric <= FILL_VALUE_THRESHOLD):
        return "fill_value"
    if any(rec.aps[k] < 0.0 for k in ("ddm_nbrcs", "ddm_les", "ddm_snr", "sp_rx_gain")):
        return "negative_ap"
    rec.rcg = compute_rcg(rec.aps["sp_rx_gain"], rec.range_tx_sp_m, rec.range_sp_rx_m)
    if rec.rcg < RCG_MIN:
        return "low_rcg"
    if rec.solar_contamination:
        return "solar_contamination"
    if rec.tracker_attitude_status != TRACKER_STATUS_OK:
        return "tracker_attitude"
    if abs(rec.roll_deg) > ROLL_MAX_DEG or abs(rec.yaw_deg) > YAW_MAX_DEG or abs(rec.pitch_deg) > PITCH_MAX_DEG:
        return "attitude_limits"
    if rec.distance_to_land_km < LAND_DISTANCE_MIN_KM:
        return "near_land"
    if rec.quality_flags & QUALITY_FLAG_MASK:
        return "quality_flags"
    return None


class PerParameterAdamW:
    """`training.AdamW` one parameter at a time: per-name moments, and each
    parameter's textbook update in slices of `slice_len` elements, written
    into two scratch buffers."""

    def __init__(self, bag, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8,
                 slice_len=1 << 16):
        self.bag = bag
        self.lr, self.weight_decay, self.beta1, self.beta2, self.eps = lr, weight_decay, beta1, beta2, eps
        self.slice_len = slice_len
        self.step_count = 0
        self._m = {name: np.zeros(p.data.size) for name, p in bag.items()}
        self._v = {name: np.zeros(p.data.size) for name, p in bag.items()}
        largest = max((p.data.size for p in bag.values()), default=0)
        self._scratch = (np.empty(min(largest, slice_len)), np.empty(min(largest, slice_len)))

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2, lr, wd, eps = self.beta1, self.beta2, self.lr, self.weight_decay, self.eps
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, p in self.bag.items():
            if p.grad is None:
                raise ContractError(f"adamw step with missing gradient for {name}")
            if not p.data.flags.c_contiguous:  # else reshape(-1) copies and the update is lost
                raise ContractError(f"adamw step needs a contiguous array for {name}")
            data, grad = p.data.reshape(-1), p.grad.reshape(-1)
            for lo in range(0, data.size, self.slice_len):
                sl = slice(lo, lo + self.slice_len)
                g, m, v, w = grad[sl], self._m[name][sl], self._v[name][sl], data[sl]
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


def kept_hidden_ffn(x, w1, b1, w2, b2, p, train, rng=None):
    """`autodiff.ffn` as it ran when it kept each group's float (rows, d_ff)
    post-dropout hidden array for backward instead of a one-byte mask: the
    same tiles, draws and products, with backward reading the kept array."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    drop = _check_dropout(p, train, rng)
    scale = 1.0 / (1.0 - p) if drop else 1.0
    m, d = x.shape[-2:]
    blocks = b1.ndim == 2
    n, m = (x.shape[0], math.prod(x.shape[1:-1])) if x.ndim > 2 else (1, m)
    xr = _rows(x.data)
    if blocks:
        xa = np.ones((d, n * m, 2))
        xa[:, :, 0] = xr.T
        groups = [(slice(c, c + 1), np.stack([w1.data[c], b1.data[c]]), w2.data[c][:, None]) for c in range(d)]
    else:
        xa = np.ones((1, n * m, d + 1))
        xa[0, :, :d] = xr
        groups = [(slice(None), np.vstack([w1.data, b1.data]), w2.data)]
    width = b1.shape[-1]
    shape, tiles = _tiles(n, m, 8 * width)
    spans = [(u0 * m + r0, (u1 - 1) * m + r1) for u0, u1, r0, r1 in tiles]
    tile_rows = shape[0] * shape[1]
    keep = ad._grad_enabled and any(t.requires_grad for t in (x, w1, b1, w2, b2))
    hidden = np.empty((len(groups), n * m, width)) if keep else None
    buf = None if keep else np.empty((tile_rows, width))
    mask = np.empty((tile_rows, width)) if drop else None
    out = np.empty((n * m, d))
    for gi, (cols, w1b, w2g) in enumerate(groups):
        for lo, hi in spans:
            h = hidden[gi, lo:hi] if keep else buf[:hi - lo]
            np.matmul(xa[gi, lo:hi], w1b, out=h)
            np.maximum(h, 0.0, out=h)
            if drop:
                kept = mask[:hi - lo]
                if isinstance(rng, np.random.Generator):
                    rng.random(out=kept)
                else:
                    for s in range(lo // m, (hi - 1) // m + 1):
                        a, b = max(lo, s * m), min(hi, (s + 1) * m)
                        rng[s].random(out=kept[a - lo:b - lo])
                np.greater_equal(kept, p, out=kept)
                h *= kept
            np.matmul(h, w2g, out=out[lo:hi, cols])
    if drop:
        out *= scale
    out += b2.data

    def _bw(g):
        gr = _rows(g)
        if b2.requires_grad:
            b2._accumulate(gr.sum(axis=0))
        inner = x.requires_grad or w1.requires_grad or b1.requires_grad
        if not (inner or w2.requires_grad):
            return
        gx = np.empty((n * m, d))
        gw1b = np.zeros((len(groups),) + groups[0][1].shape)
        gw2 = np.zeros((len(groups),) + groups[0][2].shape)
        pre = np.empty((tile_rows, width))
        for gi, (cols, w1b, w2g) in enumerate(groups):
            w2t = w2g.T * scale
            for lo, hi in spans:
                h, gt = hidden[gi, lo:hi], gr[lo:hi, cols]
                if w2.requires_grad:
                    gw2[gi] += h.T @ gt
                if not inner:
                    continue
                pt = np.matmul(gt, w2t, out=pre[:hi - lo])
                pt *= h > 0.0
                gw1b[gi] += xa[gi, lo:hi].T @ pt
                if x.requires_grad:
                    np.matmul(pt, w1b[:-1].T, out=gx[lo:hi, cols])
        gw2 *= scale
        for t, grad in ((x, gx), (w1, gw1b[:, :-1]), (b1, gw1b[:, -1]), (w2, gw2)):
            if t.requires_grad:
                t._accumulate(grad.reshape(t.shape))

    return Tensor._from_op(out.reshape(x.shape), (x, w1, b1, w2, b2), _bw, "ffn")


# ---------------------------------------------------------------------------
# node chains as they ran before the fused embedding, linear and norm ops
# ---------------------------------------------------------------------------


def matmul_node(a, b):
    """a @ b as one node: `autodiff.linear` without a bias, bound when this
    module loads, so the chains below stay chains when a test swaps them in
    for `ad.linear`."""
    return _linear(a, b)


def relu_node(x):
    """max(0, x) as an autodiff node of its own (the deleted `autodiff.relu`)."""
    x = _as_tensor(x)
    mask = x.data > 0.0

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), _bw, "relu")


def normalize_node(x, eps=1e-5):
    """Zero-mean unit-variance along the last axis, population statistics
    (the deleted `autodiff.normalize`)."""
    x = _as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    y = (x.data - mu) / sigma

    def _bw(g):
        if x.requires_grad:
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * y).mean(axis=-1, keepdims=True)
            x._accumulate((g - gm - y * gym) / sigma)

    return Tensor._from_op(y, (x,), _bw, "normalize")


def pad_end_node(x, pads):
    """Zero-pad `pads[i]` at the end of axis i (the deleted `autodiff.pad_end`)."""
    x = _as_tensor(x)
    data = np.pad(x.data, [(0, int(p)) for p in pads])
    idx = tuple(slice(0, s) for s in x.shape)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g[idx])

    return Tensor._from_op(data, (x,), _bw, "pad_end")


def conv_patchify_chain(x, kernel, bias, patch):
    """Patch embedding of a (..., T, W, H) map with a (d, T, P, P) kernel into
    (..., d, N), as nodes (the deleted `autodiff.conv_patchify`)."""
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    lead, (t, w, h) = x.shape[:-3], x.shape[-3:]
    d_out, nw, nh, nl = kernel.shape[0], -(-w // patch), -(-h // patch), len(lead)
    padded = pad_end_node(x, (0,) * (nl + 1) + (nw * patch - w, nh * patch - h))
    blocks = ad.reshape(padded, lead + (t, nw, patch, nh, patch))
    blocks = ad.transpose(blocks, tuple(range(nl)) + tuple(nl + a for a in (1, 3, 0, 2, 4)))
    patches = ad.reshape(blocks, lead + (nw * nh, t * patch * patch))
    weights = ad.reshape(kernel, (d_out, t * patch * patch))
    return ad.transpose(ad.add(matmul_node(patches, ad.transpose(weights)), bias))


def patch_embed_chain(x, kernels, biases, global_token, pe, patch):
    """`autodiff.patch_embed` as `DdmEncoder.embed_channel` ran it before:
    split the types, patch embed each, prepend the global token, add `pe`."""
    x = _as_tensor(x)
    lead = x.shape[:-3]
    per_type = ad.split(x, len(kernels), axis=-3)
    seqs = [ad.transpose(conv_patchify_chain(per_type[t], k, b, patch))
            for t, (k, b) in enumerate(zip(kernels, biases))]
    glb = ad.add(global_token, np.zeros(lead + (1, _as_tensor(global_token).shape[0])))
    return ad.add(ad.concat([glb] + seqs, axis=-2), Tensor(pe))


def linear_chain(x, w, b, relu=False):
    """`autodiff.linear` as matmul -> add [-> ReLU] nodes."""
    out = ad.add(matmul_node(x, w), b)
    return relu_node(out) if relu else out


def affine_norm_chain(x, gamma, beta, over_tokens=False, eps=1e-5):
    """`autodiff.affine_norm` as nodes: per token, normalize -> mul -> add;
    over the tokens, transpose -> normalize -> transpose -> mul -> add."""
    if over_tokens:
        normed = ad.transpose(normalize_node(ad.transpose(x), eps))
    else:
        normed = normalize_node(x, eps)
    return ad.add(mul_node(normed, gamma), beta)


# ---------------------------------------------------------------------------
# node chains as they ran before the fused AP branch and loss
# ---------------------------------------------------------------------------


def mul_node(a, b):
    """a * b with broadcasting as a node of its own (the deleted `autodiff.mul`)."""
    a, b = _as_tensor(a), _as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(a.data * b.data, (a, b), _bw, "mul")


def sigmoid_node(x):
    """The logistic function as a node of its own (the deleted `autodiff.sigmoid`)."""
    x = _as_tensor(x)
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return Tensor._from_op(s, (x,), _bw, "sigmoid")


def tsum_node(x, axis=None):
    """Sum over one axis or all of them (the deleted `autodiff.tsum`)."""
    x = _as_tensor(x)
    data = x.data.sum(axis=axis)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g.reshape(()) if axis is None else np.expand_dims(g, axis),
                                          x.shape).copy())

    return Tensor._from_op(np.asarray(data, dtype=np.float64), (x,), _bw, "sum")


def tmean_chain(x):
    """Mean of every entry as sum -> scale nodes (the deleted `autodiff.tmean`)."""
    x = _as_tensor(x)
    return mul_node(tsum_node(x), 1.0 / x.size)


def probe_sum(x, probe):
    """sum(x * probe) for a constant `probe`, as one scalar node: the test
    loss whose gradient with respect to x is `probe`."""
    x, probe = _as_tensor(x), np.asarray(probe, dtype=np.float64)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * np.broadcast_to(probe, x.shape))

    return Tensor._from_op(np.asarray((x.data * probe).sum()), (x,), _bw, "probe_sum")


def huber_node(residual, delta):
    """The elementwise Huber penalty as a node (`autodiff.huber` before it
    took the mean)."""
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    residual = _as_tensor(residual)
    e = residual.data
    inside = np.abs(e) <= delta
    data = np.where(inside, 0.5 * e * e, delta * np.abs(e) - 0.5 * delta * delta)
    deriv = np.where(inside, e, delta * np.sign(e))

    def _bw(g):
        if residual.requires_grad:
            residual._accumulate(g * deriv)

    return Tensor._from_op(data, (residual,), _bw, "huber")


def huber_mean_chain(residual, delta):
    """`autodiff.huber` as the loss ran it before: huber -> sum -> scale nodes."""
    return tmean_chain(huber_node(residual, delta))


def conv1d_embed_chain(a, kernel, bias):
    """Pointwise embedding (..., C_in, L) -> (..., C_out, L) by a (C_out, C_in)
    kernel, as transpose -> linear -> transpose (the deleted `autodiff.conv1d_embed`)."""
    return ad.transpose(ad.linear(ad.transpose(a), ad.transpose(kernel), bias))


def ap_gate_chain(a, kernel, bias, p1, b1, p2, b2, p3, b3, p4, b4):
    """`autodiff.ap_gate` as `ApGateBranch` ran it before, node by node:
    embedding, split, spatial gate, channel gate, triple product."""
    a = _as_tensor(a)
    if _as_tensor(kernel).shape == (8, 4):
        a1, a2 = ad.split(conv1d_embed_chain(a, kernel, bias), 2, axis=-2)
    else:
        w1, w2 = ad.split(kernel, 2, axis=0)
        e1, e2 = ad.split(bias, 2, axis=0)
        a1 = ad.add(mul_node(a, ad.reshape(w1, (4, 1))), ad.reshape(e1, (4, 1)))
        a2 = ad.add(mul_node(a, ad.reshape(w2, (4, 1))), ad.reshape(e2, (4, 1)))
    w_spatial = sigmoid_node(ad.linear(ad.linear(a1, p1, b1), p2, b2))
    t = ad.transpose(a2)
    if _as_tensor(b3).ndim == 1:
        z = ad.linear(ad.linear(t, p3, b3), p4, b4)
    else:
        col = ad.reshape(t, t.shape + (1,))
        hidden = ad.add(mul_node(col, p3), b3)
        z = ad.add(tsum_node(mul_node(hidden, p4), axis=-1), b4)
    w_channel = ad.transpose(sigmoid_node(z))
    return mul_node(mul_node(a, w_spatial), w_channel)


# ---------------------------------------------------------------------------
# the synthetic generator as it ran before the bulk draws
# ---------------------------------------------------------------------------


def _draw_swh(rng: np.random.Generator) -> float:
    return float(np.exp(rng.normal(np.log(LOGNORMAL_MEDIAN), LOGNORMAL_SIGMA)))


def _ddm_maps(rng, swh, w, h, noise_sd):
    """Three peaked maps whose amplitude and width track SWH."""
    peak = 1.0 + 5.0 / (0.6 + swh)
    sigma = 0.8 + 0.3 * swh
    ci, cj = (w - 1) / 2.0, (h - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    blob = np.exp(-((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * sigma ** 2))
    scales = (1.0, 0.8, 1.2)
    maps = np.stack([peak * s * blob for s in scales])
    maps += noise_sd * 0.05 * rng.normal(size=maps.shape)
    return maps


def generate(spec: SynthSpec) -> list[FourChannelSample]:
    rng = np.random.default_rng(spec.seed)
    t0, t1 = parse_time(spec.time_start), parse_time(spec.time_end)
    timestamps = np.sort(rng.uniform(t0, t1, size=spec.n_samples))
    samples = []
    for ts in timestamps:
        base = _draw_swh(rng)
        channels = []
        for chn in range(1, 5):
            indep = _draw_swh(rng)
            swh = spec.channel_corr * base + (1.0 - spec.channel_corr) * indep
            swh += spec.noise_sd * rng.normal()
            swh = float(np.clip(swh, spec.swh_lo, spec.swh_hi))
            lat = rng.uniform(-38.0, 38.0)
            lon = rng.uniform(-180.0, 180.0)
            gain = rng.uniform(6.0, 14.0)
            r_tx = 2.2e7 * (1.0 + 0.05 * rng.uniform(-1, 1))
            r_rx = 6.5e5 * (1.0 + 0.10 * rng.uniform(-1, 1))
            if spec.planted_signal:
                ddms = _ddm_maps(rng, swh, spec.width, spec.height, spec.noise_sd)
                nbrcs = float(nbrcs_from_swh(swh) + spec.noise_sd * 2.0 * rng.normal())
                les = float(LES_SCALE * np.exp(-swh / LES_DECAY) + spec.noise_sd * 0.5 * rng.normal())
                snr = float(SNR_BASE + SNR_SCALE / (1.0 + swh) + spec.noise_sd * rng.normal())
            else:
                ddms = rng.uniform(0.0, 1.0, size=(3, spec.width, spec.height))
                nbrcs = rng.uniform(2.0, 20.0)
                les = rng.uniform(0.5, 4.0)
                snr = rng.uniform(1.0, 12.0)
            aps = np.array([
                nbrcs, les, snr,
                26.0 + 1.5 * rng.normal(),     # gps_eirp
                gain,                          # sp_rx_gain
                rng.uniform(5.0, 60.0),        # sp_inc_angle
                lat, lon,
                compute_rcg(gain, r_tx, r_rx),
            ])
            wind = None
            if spec.include_wind:
                wind = float(1.5 + 2.2 * swh + spec.noise_sd * 2.0 * rng.normal())
            channels.append(ChannelObs(channel=chn, sp_lat=lat, sp_lon=lon,
                                       ddms=ddms, aps=aps, swh_ref=swh, wind_speed=wind))
        samples.append(FourChannelSample(timestamp=float(ts), source="synth", channels=channels))
    return samples


# ---------------------------------------------------------------------------
# ERA5 matching as it ran one record at a time
# ---------------------------------------------------------------------------


class _InterpError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _bracket(axis: np.ndarray, value: float, longitude: bool = False) -> tuple[int, int, float]:
    """Indices (i, j) of the axis points around value and its fractional
    offset from axis[i] towards axis[j]. A longitude axis that closes the
    circle wraps value into [axis[0], axis[0] + 360) and brackets a value
    past its last point with its first."""
    if value < axis[0] or value > axis[-1]:
        if not (longitude and abs(axis[-1] - axis[0] + 0.5 - 360.0) < 1e-6):
            raise _InterpError("outside_grid")
        value = axis[0] + (value - axis[0]) % 360.0
        if value > axis[-1]:
            return axis.size - 1, 0, (value - axis[-1]) / (axis[0] + 360.0 - axis[-1])
    idx = int(np.searchsorted(axis, value, side="right") - 1)
    idx = min(idx, axis.size - 2)
    return idx, idx + 1, (value - axis[idx]) / (axis[idx + 1] - axis[idx])


def interpolate_swh(grid: Era5Grid, lat: float, lon: float, t: float) -> float:
    """Bilinear interpolation in space at the two bracketing hours, then
    linear interpolation in time. On a grid that is global in longitude
    the last longitude column neighbours the first.

    Raises _InterpError("outside_grid") beyond the axes and
    _InterpError("masked_node") if any of the four surrounding cells is
    land-masked.
    """
    t0, t1, tf = _bracket(grid.times, t)
    y0, y1, yf = _bracket(grid.lats, lat)
    x0, x1, xf = _bracket(grid.lons, lon, longitude=True)
    mask = grid.mask
    if mask[y0, x0] or mask[y0, x1] or mask[y1, x0] or mask[y1, x1]:
        raise _InterpError("masked_node")
    v0, v1 = (p[y0, x0] * (1 - yf) * (1 - xf) + p[y0, x1] * (1 - yf) * xf
              + p[y1, x0] * yf * (1 - xf) + p[y1, x1] * yf * xf for p in (grid.swh[t0], grid.swh[t1]))
    return v0 * (1 - tf) + v1 * tf


def _record_to_obs(rec: L1Record, swh_ref: float) -> ChannelObs:
    ap_vec = np.array([rec.aps[k] for k in BASE_AP_FIELDS] + [rec.sp_lat, rec.sp_lon, rec.rcg])
    assert ap_vec.size == len(AP_COLUMNS)
    return ChannelObs(channel=rec.channel, sp_lat=rec.sp_lat, sp_lon=rec.sp_lon,
                      ddms=rec.ddms, aps=ap_vec, swh_ref=swh_ref)


def match_era5(group: list[L1Record], grid: Era5Grid) -> tuple[FourChannelSample | None, str | None]:
    """Attach interpolated reference SWH to each channel of one group."""
    obs = []
    for rec in group:
        try:
            swh = interpolate_swh(grid, rec.sp_lat, rec.sp_lon, rec.timestamp)
        except _InterpError as exc:
            return None, exc.reason
        obs.append(_record_to_obs(rec, swh))
    return FourChannelSample(timestamp=group[0].timestamp, source="era5", channels=obs), None


def match_era5_groups(groups, grid: Era5Grid) -> tuple[list[FourChannelSample], dict[str, int]]:
    tally = {"outside_grid": 0, "masked_node": 0, "matched": 0}
    samples = []
    for group in groups:
        sample, reason = match_era5(group, grid)
        if sample is None:
            tally[reason] += 1
        else:
            samples.append(sample)
    tally["matched"] = len(samples)
    return samples, tally


def split_dataset(samples: list[FourChannelSample], spec: SplitSpec
                  ) -> tuple[dict[str, list[FourChannelSample]], dict[str, int]]:
    """Assign samples to half-open [start, next_start) ranges by timestamp,
    then optionally subsample each split with a seeded uniform draw."""
    bounds = [parse_time(spec.train_start), parse_time(spec.val_start),
              parse_time(spec.test_start), parse_time(spec.test_end)]
    splits: dict[str, list[FourChannelSample]] = {"train": [], "val": [], "test": []}
    outside = 0
    for s in samples:
        if bounds[0] <= s.timestamp < bounds[1]:
            splits["train"].append(s)
        elif bounds[1] <= s.timestamp < bounds[2]:
            splits["val"].append(s)
        elif bounds[2] <= s.timestamp < bounds[3]:
            splits["test"].append(s)
        else:
            outside += 1
    rng = np.random.default_rng(spec.seed)
    for name, count in (("train", spec.train_subsample), ("val", spec.val_subsample),
                        ("test", spec.test_subsample)):
        pool = splits[name]
        if count is not None and count < len(pool):
            idx = np.sort(rng.choice(len(pool), size=count, replace=False))
            splits[name] = [pool[i] for i in idx]
    tally = {"outside_split": outside}
    tally.update({name: len(rows) for name, rows in splits.items()})
    return splits, tally


# ---------------------------------------------------------------------------
# helpers that only tests use
# ---------------------------------------------------------------------------


def swh_from_nbrcs(nbrcs):
    """Exact inverse of synth's planted map (the oracle regressor)."""
    return -NBRCS_DECAY * np.log(np.asarray(nbrcs) / NBRCS_SCALE)


def channel_sd_percentile(refs: np.ndarray, q: float) -> float:
    """q-quantile of the per-sample population SD of the four references.

    The SD uses the n=4 divisor; the quantile interpolates linearly
    between order statistics.
    """
    if not 0.0 < q <= 1.0:
        raise ContractError(f"quantile must lie in (0, 1], got {q}")
    refs = np.asarray(refs, dtype=np.float64)
    if refs.ndim != 2 or refs.shape[1] != 4 or refs.shape[0] == 0:
        raise ContractError(f"need an (n, 4) reference block, got {refs.shape}")
    sds = refs.std(axis=1)  # population SD (ddof=0)
    return float(np.quantile(sds, q, method="linear"))


class MetricsReportWriters:
    """The writers of a `metrics.MetricsReport` `rep`, verbatim as they ran
    with one formatting loop in each CSV writer and a separate `to_json`."""

    def __init__(self, rep):
        self.config_hash, self.n, self.per_channel, self.average, self.bins = (
            rep.config_hash, rep.n, rep.per_channel, rep.average, rep.bins)

    def to_json(self) -> str:
        doc = {
            "config_hash": self.config_hash,
            "n": self.n,
            "per_channel": {str(ch): cell for ch, cell in self.per_channel.items()},
            "average": self.average,
            "bins": self.bins,
        }
        return json.dumps(doc, indent=1) + "\n"

    def write_json(self, path: str) -> None:
        with atomic_open_text(path) as fh:
            fh.write(self.to_json())

    def write_csv(self, path: str) -> None:
        fields = ["scope", "channel", "bin_lo", "bin_hi", "n",
                  "rmse", "mae", "bias", "mape_percent", "cc", "mape_excluded"]
        with atomic_open_text(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(fields + ["config_hash"])
            def fmt(cell, scope, channel="", lo="", hi=""):
                row = [scope, channel, lo, hi, cell["n"]]
                for name in METRIC_NAMES:
                    v = cell[name]
                    row.append("undefined" if v is None else repr(v))
                row.append(cell["mape_excluded"])
                row.append(self.config_hash)
                writer.writerow(row)
            for chn in sorted(self.per_channel):
                fmt(self.per_channel[chn], "channel", chn)
            fmt(self.average, "average")
            for b in self.bins:
                for chn in sorted(int(k) for k in b["per_channel"]):
                    fmt(b["per_channel"][chn], "bin_channel", chn, b["lo"], b["hi"])
                fmt(b["average"], "bin_average", "", b["lo"], b["hi"])

    def write_binned_csv(self, path: str) -> None:
        """One bin-averaged row per bin (the data behind range histograms)."""
        with atomic_open_text(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "n", "rmse", "mae", "bias",
                             "mape_percent", "cc", "config_hash"])
            for b in self.bins:
                cell = b["average"]
                row = [b["lo"], b["hi"], cell["n"]]
                for name in METRIC_NAMES:
                    v = cell[name]
                    row.append("undefined" if v is None else repr(v))
                row.append(self.config_hash)
                writer.writerow(row)


def write_predictions(path: str, dataset, preds: np.ndarray, h: str) -> None:
    with atomic_open_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_FIELDS)
        for i in range(len(dataset)):
            for c in range(4):
                writer.writerow([i, repr(float(dataset.timestamps[i])), c + 1,
                                 repr(float(dataset.lats[i, c])), repr(float(dataset.lons[i, c])),
                                 repr(float(dataset.refs[i, c])), repr(float(preds[i, c])), h])


def write_history(path: str, history: list[dict]) -> None:
    with atomic_open_text(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=HISTORY_FIELDS)
        writer.writeheader()
        for row in history:
            writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k]
                             for k in HISTORY_FIELDS})


def export_scatter(pred, ref, path_prefix: str, bin_width: float = 0.1,
                   lo: float = 0.0, hi: float = 8.0, config_hash: str = "") -> dict:
    """Emit the data behind a density scatter plot (no rendering).

    Writes {prefix}_pairs.csv, {prefix}_hist.csv (2-D counts over
    [lo, hi]^2), and {prefix}_fit.json with the regression line.
    """
    pred, ref = _pair(pred, ref)
    if bin_width <= 0:
        raise ConfigError("bin width must be positive")
    with atomic_open_text(f"{path_prefix}_pairs.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ref", "pred", "config_hash"])
        for r, p in zip(ref, pred):
            writer.writerow([repr(float(r)), repr(float(p)), config_hash])
    nbins = int(round((hi - lo) / bin_width))
    edges = lo + bin_width * np.arange(nbins + 1)
    hist, _, _ = np.histogram2d(ref, pred, bins=[edges, edges])
    with atomic_open_text(f"{path_prefix}_hist.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ref_bin_lo", "pred_bin_lo", "count", "config_hash"])
        for i in range(nbins):
            for j in range(nbins):
                if hist[i, j] > 0:
                    writer.writerow([repr(float(edges[i])), repr(float(edges[j])),
                                     int(hist[i, j]), config_hash])
    try:
        slope, intercept = least_squares_fit(pred, ref)
    except ContractError:  # constant references give a null line
        slope = intercept = None
    fit = {"slope": slope, "intercept": intercept, "n": int(pred.size),
           "hist_total": int(hist.sum()), "config_hash": config_hash}
    with atomic_open_text(f"{path_prefix}_fit.json") as fh:
        json.dump(fit, fh, indent=1)
        fh.write("\n")
    return fit


def export_bias_grid(lats, lons, pred, ref, path: str, cell_deg: float = 1.0,
                     config_hash: str = "") -> list[tuple]:
    """Mean signed error and count per lat/lon cell, one CSV row per
    populated cell, ordered by (lat, lon)."""
    if cell_deg <= 0:
        raise ConfigError("cell size must be positive")
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    pred, ref = _pair(pred, ref)
    if lats.shape != pred.shape or lons.shape != pred.shape:
        raise ContractError("lat/lon vectors must match the pair vectors")
    cells: dict[tuple[int, int], list[float]] = {}
    for la, lo_, p, r in zip(lats, lons, pred, ref):
        key = (int(np.floor(la / cell_deg)), int(np.floor(lo_ / cell_deg)))
        cells.setdefault(key, []).append(p - r)
    rows = []
    for (iy, ix) in sorted(cells):
        errors = cells[(iy, ix)]
        rows.append(((iy + 0.5) * cell_deg, (ix + 0.5) * cell_deg,
                     float(np.mean(errors)), len(errors)))
    with atomic_open_text(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["lat_center", "lon_center", "bias", "n", "config_hash"])
        for lat_c, lon_c, b, n in rows:
            writer.writerow([repr(lat_c), repr(lon_c), repr(b), n, config_hash])
    return rows
