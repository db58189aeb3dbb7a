"""Synthetic four-channel sample generation for desk-scale verification.

Reference SWH values follow a long-tailed log-normal shaped to put most
mass between 1 and 3 m. The four channel references mix a shared base
value with per-channel draws according to `channel_corr`. With
`planted_signal` the DDM peak and the DDM-derived scalar observables are
smooth monotone functions of each channel's SWH (exactly invertible at
noise_sd = 0), so a competent regressor can fit the data; without it the
observables carry no SWH information.

The draw order is a stream contract: a seed gives the same samples, bit
for bit, whatever the implementation. The generator first draws the
n_samples timestamps (uniform, then sorted). Then each sample draws one
standard normal (N), its base SWH, and each of its channels 1..4 draws,
in this order:

- N x 2: its own SWH, its SWH noise;
- U x 5 (U: uniform on [0, 1)): lat, lon, sp_rx_gain, the two ranges;
- planted: N x (3WH + 4): the three maps' noise, nbrcs, les, snr, eirp;
- unplanted: U x (3WH + 3): the three maps, nbrcs, les, snr; then N x 1:
  eirp;
- U x 1: the incidence angle; then, with `include_wind`, N x 1: wind.

`generate` makes these draws first, into a few preallocated arrays, and
then computes each column over all channels at once.
"""

from __future__ import annotations

import numpy as np

from .config import SynthSpec, parse_time
from .pipeline import ChannelObs, FourChannelSample, compute_rcg

LOGNORMAL_MEDIAN = 1.8
LOGNORMAL_SIGMA = 0.35

NBRCS_SCALE, NBRCS_DECAY = 20.0, 2.5
LES_SCALE, LES_DECAY = 4.0, 3.0
SNR_BASE, SNR_SCALE = 1.0, 12.0
MAP_CHUNK = 1 << 13    # floats per temporary when building the maps, to keep them small


def nbrcs_from_swh(swh):
    """Planted monotone map from SWH to the normalized cross section."""
    return NBRCS_SCALE * np.exp(-np.asarray(swh) / NBRCS_DECAY)


def _uniform(u, lo, hi):
    """`Generator.uniform(lo, hi)` from its [0, 1) draw u."""
    return lo + (hi - lo) * u


def _swh(z):
    """The log-normal SWH from its standard normal draw z."""
    return np.exp(np.log(LOGNORMAL_MEDIAN) + LOGNORMAL_SIGMA * z)


def generate(spec: SynthSpec) -> list[FourChannelSample]:
    rng = np.random.default_rng(spec.seed)
    t0, t1 = parse_time(spec.time_start), parse_time(spec.time_end)
    timestamps = np.sort(rng.uniform(t0, t1, size=spec.n_samples))
    n, w, h = spec.n_samples, spec.width, spec.height
    m = 3 * w * h
    planted = spec.planted_signal
    # Draw, in the stream order above: each run of draws of one kind goes
    # into one row of an array.
    base, inc, wind = np.empty(n), np.empty((n, 4)), np.empty((n, 4))
    pair = np.empty((n, 4, 2))
    uni = np.empty((n, 4, 5 if planted else 5 + m + 3))
    nrm = np.empty((n, 4, m + 4 if planted else 1))
    for i in range(n):
        base[i] = rng.standard_normal()
        for c in range(4):
            rng.standard_normal(out=pair[i, c])
            rng.random(out=uni[i, c])
            rng.standard_normal(out=nrm[i, c])
            inc[i, c] = rng.random()
            if spec.include_wind:
                wind[i, c] = rng.standard_normal()
    # Transform: each column at once, with the per-channel operation order.
    swh = spec.channel_corr * _swh(base)[:, None] + (1.0 - spec.channel_corr) * _swh(pair[..., 0])
    swh += spec.noise_sd * pair[..., 1]
    swh = np.clip(swh, spec.swh_lo, spec.swh_hi)
    lat, lon = _uniform(uni[..., 0], -38.0, 38.0), _uniform(uni[..., 1], -180.0, 180.0)
    gain = _uniform(uni[..., 2], 6.0, 14.0)
    r_tx = 2.2e7 * (1.0 + 0.05 * _uniform(uni[..., 3], -1.0, 1.0))
    r_rx = 6.5e5 * (1.0 + 0.10 * _uniform(uni[..., 4], -1.0, 1.0))
    if planted:
        # The maps as (n, 4, 3WH): numpy updates this view in place, where it
        # would copy an (n, 4, 3, W, H) view of it to do so.
        maps, wh = nrm[..., :m], w * h
        maps *= spec.noise_sd * 0.05
        ii, jj = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
        dist2 = ((ii - (w - 1) / 2.0) ** 2 + (jj - (h - 1) / 2.0) ** 2).ravel()
        # float_power calls C pow, as Python's scalar `sigma ** 2` did.
        width2 = 2.0 * np.float_power(0.8 + 0.3 * swh, 2)
        peak = 1.0 + 5.0 / (0.6 + swh)
        rows = max(1, MAP_CHUNK // (4 * wh))
        for lo in range(0, n, rows):
            at = slice(lo, lo + rows)
            blob = np.exp(-dist2 / width2[at, :, None])
            for k, s in enumerate((1.0, 0.8, 1.2)):
                maps[at, :, k * wh:(k + 1) * wh] += (peak[at] * s)[..., None] * blob
        ddms = maps.reshape(n, 4, 3, w, h)
        nbrcs = nbrcs_from_swh(swh) + spec.noise_sd * 2.0 * nrm[..., m]
        les = LES_SCALE * np.exp(-swh / LES_DECAY) + spec.noise_sd * 0.5 * nrm[..., m + 1]
        snr = SNR_BASE + SNR_SCALE / (1.0 + swh) + spec.noise_sd * nrm[..., m + 2]
    else:
        ddms = uni[..., 5:5 + m].reshape(n, 4, 3, w, h)  # uniform(0, 1) is its draw
        nbrcs, les, snr = (_uniform(uni[..., 5 + m], 2.0, 20.0), _uniform(uni[..., 6 + m], 0.5, 4.0),
                           _uniform(uni[..., 7 + m], 1.0, 12.0))
    rcg = np.array([compute_rcg(*g) for g in zip(gain.ravel().tolist(), r_tx.ravel().tolist(),
                                                 r_rx.ravel().tolist())]).reshape(n, 4)
    eirp = 26.0 + 1.5 * nrm[..., -1]
    aps = np.stack([nbrcs, les, snr, eirp, gain, _uniform(inc, 5.0, 60.0), lat, lon, rcg], axis=-1)
    lat, lon, refs = lat.tolist(), lon.tolist(), swh.tolist()
    winds = (1.5 + 2.2 * swh + spec.noise_sd * 2.0 * wind).tolist() if spec.include_wind else [[None] * 4] * n
    return [FourChannelSample(timestamp=ts, source="synth", channels=[
        ChannelObs(channel=c + 1, sp_lat=lat[i][c], sp_lon=lon[i][c], ddms=ddms[i, c], aps=aps[i, c],
                   swh_ref=refs[i][c], wind_speed=winds[i][c]) for c in range(4)])
        for i, ts in enumerate(timestamps.tolist())]
