"""Synthetic four-channel sample generation for desk-scale verification.

Reference SWH values follow a long-tailed log-normal shaped to put most
mass between 1 and 3 m. The four channel references mix a shared base
value with per-channel draws according to `channel_corr`. With
`planted_signal` the DDM peak and the DDM-derived scalar observables are
smooth monotone functions of each channel's SWH (exactly invertible at
noise_sd = 0), so a competent regressor can fit the data; without it the
observables carry no SWH information.
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


def nbrcs_from_swh(swh):
    """Planted monotone map from SWH to the normalized cross section."""
    return NBRCS_SCALE * np.exp(-np.asarray(swh) / NBRCS_DECAY)


def swh_from_nbrcs(nbrcs):
    """Exact inverse of the planted map (the oracle regressor)."""
    return -NBRCS_DECAY * np.log(np.asarray(nbrcs) / NBRCS_SCALE)


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
