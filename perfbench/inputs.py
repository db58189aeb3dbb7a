"""Seeded inputs for the benchmark workloads.

Equal seeds give byte-identical files. The generators write the external
interchange formats directly (L1 JSONL, reanalysis grid JSON, buoy CSV)
and do not call the program, so the program only ever sees finished
inputs. The model workloads take their samples from the program's own
synthetic generator; for them this module only fixes the config.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

# README quick-start config with the channel-independent strategy.
# Fixed split sizes keep the work per pass equal across seeds.
QUICK_CI = {
    "width": 6, "height": 6, "patch_size": 3, "embed_dim": 2,
    "n_layers": 1, "d_ff": 16, "dropout_p": 0.0,
    "head_hidden": [16] * 9,
    "strategy": "CI", "lr": 0.003, "batch_size": 16,
    "max_epochs": 1, "patience": 1, "synth_n_samples": 400,
    "train_subsample": 96, "val_subsample": 64, "test_subsample": 64,
}

# Paper-default ModelConfig (11x17 DDMs, 6 layers, d_ff 2048, dropout
# 0.1, CD). Batch 2 keeps two ~0.43 GB tape graphs alive at once, which
# fits the 7 GB machine with room to spare; batch 4 does not.
PAPER_CD = {
    "strategy": "CD", "batch_size": 2, "max_epochs": 1, "patience": 1,
    "synth_n_samples": 60,
    "train_subsample": 8, "val_subsample": 4, "test_subsample": 4,
}

MODEL_WORKLOADS = {"quick_ci": QUICK_CI, "paper_cd": PAPER_CD}

# The reference check trains and predicts once more at a fixed seed and
# compares val_rmse_avg and the test predictions with reference.json.
# paper_cd's reference trains one batch to stay short.
REFERENCE_SEED = 1000
REFERENCE_SIZES = {
    "quick_ci": {},
    "paper_cd": {"synth_n_samples": 20, "train_subsample": 2, "val_subsample": 2, "test_subsample": 2},
}

# -- ingest inputs ------------------------------------------------------------

INGEST_TIMESTAMPS = 2000
INGEST_SHARDS = 16         # L1 files; one pass ingests one
INGEST_WIDTH, INGEST_HEIGHT = 11, 17
INGEST_START = "2020-01-15T00:00:00+00:00"
INGEST_SPAN_S = 6 * 3600
INCOMPLETE_SHARE = 0.08     # timestamps missing one channel
DUPLICATE_SHARE = 0.01      # timestamps with one channel recorded twice
QC_REJECT_SHARE = 0.12      # records planted with exactly one QC violation
BUOY_GROUP_SHARE = 0.15     # timestamps with a buoy near every channel
BUOY_DISTRACTORS = 200
LAT_RANGE = (-38.0, 38.0)
GRID_LAT_RANGE = (-40.0, 40.0)

# Rule names as the program's quality control tallies them, each with the
# field (as a key path into an L1 document) and value that break exactly
# that rule on an otherwise clean record.
QC_PLANTS = (
    ("nan_inf", ("ddms", "brcs", 0, 0), float("nan")),
    ("fill_value", ("aps", "gps_eirp"), -9999.0),
    ("negative_ap", ("aps", "ddm_snr"), -1.0),
    ("low_rcg", ("aps", "sp_rx_gain"), 0.2),
    ("solar_contamination", ("flags", "solar_contamination"), True),
    ("tracker_attitude", ("flags", "tracker_attitude_status"), 0),
    ("attitude_limits", ("flags", "roll_deg"), 45.0),
    ("near_land", ("flags", "distance_to_land_km"), 10.0),
    ("quality_flags", ("flags", "quality_flags"), 1 << 3),
)

KM_PER_DEG = math.pi * 6371.0 / 180.0


def _ddm_maps(rng, w, h):
    ii, jj = np.meshgrid(np.arange(w), np.arange(h), indexing="ij")
    sigma = rng.uniform(1.0, 3.0)
    peak = rng.uniform(1.0, 6.0)
    blob = np.exp(-((ii - (w - 1) / 2) ** 2 + (jj - (h - 1) / 2) ** 2) / (2 * sigma ** 2))
    maps = np.stack([peak * s * blob for s in (1.0, 0.8, 1.2)])
    return maps + 0.01 * rng.random(maps.shape)


def _l1_doc(rng, ts: float, channel: int, w: int, h: int) -> dict:
    ddms = _ddm_maps(rng, w, h)
    return {
        "timestamp": ts, "channel": channel,
        "sp_lat": float(rng.uniform(*LAT_RANGE)), "sp_lon": float(rng.uniform(-180.0, 180.0)),
        "ddms": {"brcs": ddms[0].tolist(), "eff_scatter": ddms[1].tolist(),
                 "power_analog": ddms[2].tolist()},
        "aps": {"ddm_nbrcs": float(rng.uniform(2.0, 20.0)), "ddm_les": float(rng.uniform(0.5, 4.0)),
                "ddm_snr": float(rng.uniform(1.0, 12.0)), "gps_eirp": float(rng.normal(26.0, 1.5)),
                "sp_rx_gain": float(rng.uniform(6.0, 14.0)), "sp_inc_angle": float(rng.uniform(5.0, 60.0))},
        "geometry": {"range_tx_sp_m": float(2.2e7 * rng.uniform(0.95, 1.05)),
                     "range_sp_rx_m": float(6.5e5 * rng.uniform(0.9, 1.1))},
        "flags": {"quality_flags": 0, "tracker_attitude_status": 1,
                  "roll_deg": float(rng.uniform(-5, 5)), "yaw_deg": float(rng.uniform(-2, 2)),
                  "pitch_deg": float(rng.uniform(-5, 5)),
                  "distance_to_land_km": float(rng.uniform(100.0, 3000.0)),
                  "solar_contamination": False},
    }


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def l1_path(work: str, shard: int) -> str:
    return os.path.join(work, f"l1-{shard}.jsonl")


def grid_path(work: str) -> str:
    return os.path.join(work, "era5.json")


def buoy_path(work: str) -> str:
    return os.path.join(work, "buoys.csv")


def write_ingest_inputs(seed: int, work: str, n_timestamps: int = INGEST_TIMESTAMPS,
                        n_shards: int = INGEST_SHARDS) -> dict:
    """Write the L1 JSONL files, grid JSON and buoy CSV into `work`;
    return what was planted.

    The timestamps are split, in time order, over `n_shards` L1 files of
    equal timestamp counts. The records hold every QC rule's violation,
    planted one per record in fixed numbers, plus incomplete and
    duplicated timestamps. The grid is global in longitude (-180 .. 179.5
    in 0.5 degree steps), as reanalysis grids are. Buoys sit within 20 km
    and 25 minutes of every channel of a fixed share of timestamps, plus
    random distractors; one buoy file serves every L1 file.
    """
    rng = np.random.default_rng([seed, 7001])
    w, h = INGEST_WIDTH, INGEST_HEIGHT
    t0 = datetime.fromisoformat(INGEST_START).timestamp()
    offsets = np.sort(rng.choice(INGEST_SPAN_S, size=n_timestamps, replace=False))
    stamps = [t0 + float(o) for o in offsets]
    shard_of = [k * n_shards // n_timestamps for k in range(n_timestamps)]

    order = rng.permutation(n_timestamps)
    n_incomplete = round(INCOMPLETE_SHARE * n_timestamps)
    n_duplicate = round(DUPLICATE_SHARE * n_timestamps)
    incomplete = set(order[:n_incomplete].tolist())
    duplicate = set(order[n_incomplete:n_incomplete + n_duplicate].tolist())
    buoy_groups = set(order[n_incomplete + n_duplicate:][: round(BUOY_GROUP_SHARE * n_timestamps)].tolist())

    docs = []
    for k, ts in enumerate(stamps):
        channels = [1, 2, 3, 4]
        if k in incomplete:
            channels.remove(int(rng.integers(1, 5)))
        if k in duplicate:
            channels.append(int(rng.integers(1, 5)))
        for c in channels:
            docs.append((k, _l1_doc(rng, ts, c, w, h)))

    n_bad = round(QC_REJECT_SHARE * len(docs))
    shards = [{"records": 0, "qc_planted": {name: 0 for name, _, _ in QC_PLANTS}} for _ in range(n_shards)]
    for j, idx in enumerate(rng.permutation(len(docs))[:n_bad]):
        name, path, value = QC_PLANTS[j % len(QC_PLANTS)]
        k, field = docs[idx]
        for key in path[:-1]:
            field = field[key]
        field[path[-1]] = value
        shards[shard_of[k]]["qc_planted"][name] += 1

    handles = [open(l1_path(work, i), "w", encoding="utf-8") for i in range(n_shards)]
    try:
        for k, doc in docs:
            handles[shard_of[k]].write(json.dumps(doc))
            handles[shard_of[k]].write("\n")
            shards[shard_of[k]]["records"] += 1
    finally:
        for fh in handles:
            fh.close()

    buoys = []
    for k, doc in docs:
        if k in buoy_groups:
            dist = rng.uniform(0.0, 20.0)
            bearing = rng.uniform(0.0, 2 * math.pi)
            lat = doc["sp_lat"] + dist * math.cos(bearing) / KM_PER_DEG
            lon = doc["sp_lon"] + dist * math.sin(bearing) / (KM_PER_DEG * math.cos(math.radians(lat)))
            ts = doc["timestamp"] + round(rng.uniform(-25 * 60, 25 * 60))
            buoys.append((lat, (lon + 180.0) % 360.0 - 180.0, ts))
    for _ in range(BUOY_DISTRACTORS):
        buoys.append((rng.uniform(*LAT_RANGE), rng.uniform(-180.0, 180.0),
                      t0 + round(rng.uniform(0, INGEST_SPAN_S))))
    with open(buoy_path(work), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "lat", "lon", "iso_time", "swh_m"])
        for i, (lat, lon, ts) in enumerate(buoys):
            writer.writerow([f"B{i:05d}", repr(round(lat, 5)), repr(round(lon, 5)), _iso(ts),
                             repr(round(float(rng.uniform(0.3, 6.0)), 2))])

    _write_grid(rng, grid_path(work), t0)
    return {"records": len(docs), "timestamps": n_timestamps, "shards": shards,
            "incomplete": n_incomplete, "duplicate": n_duplicate, "buoys": len(buoys)}


def _write_grid(rng, path: str, t0: float) -> None:
    """Hourly SWH over the record window, global in longitude.

    A smooth swell field plus a storm box above the 8 m cap (exercising
    the cap filter) and rectangular land masks (exercising masked_node).
    """
    times = t0 + 3600.0 * np.arange(INGEST_SPAN_S // 3600 + 2)
    lats = np.arange(GRID_LAT_RANGE[0], GRID_LAT_RANGE[1] + 0.25, 0.5)
    lons = np.arange(-180.0, 180.0, 0.5)
    la, lo = np.meshgrid(np.radians(lats), np.radians(lons), indexing="ij")
    base = 2.5 + 1.2 * np.sin(2 * la) * np.cos(lo) + 0.6 * np.cos(3 * lo)
    swh = np.stack([base + 0.05 * k + 0.1 * rng.random(base.shape) for k in range(times.size)])
    storm_lat = rng.integers(0, lats.size - 20)
    storm_lon = rng.integers(0, lons.size - 40)
    swh[:, storm_lat:storm_lat + 20, storm_lon:storm_lon + 40] += 6.0
    mask = np.zeros((lats.size, lons.size), dtype=int)
    for _ in range(4):
        y = rng.integers(0, lats.size - 30)
        x = rng.integers(0, lons.size - 60)
        mask[y:y + 30, x:x + 60] = 1
    doc = {"schema_version": 1, "times": times.tolist(), "lats": lats.tolist(), "lons": lons.tolist(),
           "swh": np.round(swh, 4).tolist(), "mask": mask.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps takes the C encoder; json.dump would stream through
        # the pure-Python one, eight times slower. The bytes are the same.
        fh.write(json.dumps(doc))
        fh.write("\n")


if __name__ == "__main__":
    # python3 inputs.py SEED DIR: write the ingest inputs into DIR and print
    # what was planted as JSON. The benchmark runs this in a child process
    # so that generating the inputs does not count in its own peak memory.
    json.dump(write_ingest_inputs(int(sys.argv[1]), sys.argv[2]), sys.stdout)
