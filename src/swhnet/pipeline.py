"""Level-1 ingestion, quality control, four-channel alignment, reference
collocation (reanalysis grid and buoys), SWH capping, temporal splitting,
and the canonical sample file format.

Every stage is a pure function that reports a rejection tally, so kept +
rejected always reconciles with the input count. Quality control parses
and screens each L1 interchange record in one pass (`screen_l1_record`);
a kept `L1Record` carries only the fields that alignment, matching and
the group file use. Each reference matcher looks up the records of all
its groups at once, in arrays (`interpolate_swh`, `_match_buoys`), and
one builder makes each kept group's sample. The sample and group
files swhnet writes are `container` files that carry their manifest in
the header, and their writers refuse and their readers reject a float
array holding NaN or inf; the inputs (L1 records, the reanalysis grid,
buoys) are JSON and CSV. Identical inputs and seeds reproduce
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import container
from .config import AP_COLUMNS, DDM_TYPES, SWH_CAP_M, WIND_COLUMN, SplitSpec, parse_time
from .errors import ConfigError, ContractError, FormatError

EARTH_RADIUS_KM = 6371.0
RCG_SCALE = 1e27
RCG_MIN = 3.0
FILL_VALUE_THRESHOLD = -9000.0     # the -9999 fill family
TRACKER_STATUS_OK = 1
ROLL_MAX_DEG = 30.0
YAW_MAX_DEG = 5.0
PITCH_MAX_DEG = 10.0
LAND_DISTANCE_MIN_KM = 25.0
QUALITY_FLAG_MASK = (1 << 28) - 1  # bits 1..28
BUOY_MAX_KM = 25.0
BUOY_MAX_S = 30.0 * 60.0

SCHEMA_VERSION = 3

QC_RULES = (
    "nan_inf",
    "fill_value",
    "negative_ap",
    "low_rcg",
    "solar_contamination",
    "tracker_attitude",
    "attitude_limits",
    "near_land",
    "quality_flags",
)

BASE_AP_FIELDS = ("ddm_nbrcs", "ddm_les", "ddm_snr", "gps_eirp", "sp_rx_gain", "sp_inc_angle")


def normalize_lon(lon: float) -> float:
    """Map a longitude into [-180, 180)."""
    return (lon + 180.0) % 360.0 - 180.0


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------


@dataclass
class L1Record:
    """A record that passed quality control, with the fields alignment,
    matching and the group file use."""

    timestamp: float
    channel: int
    sp_lat: float
    sp_lon: float
    ddms: np.ndarray               # (3, W, H) ordered brcs, eff_scatter, power_analog
    aps: dict[str, float]          # the six base auxiliary parameters
    rcg: float                     # range-corrected gain


@dataclass
class Era5Grid:
    """Hourly reanalysis SWH on a regular half-degree grid.

    `mask` is a static land mask: True marks an invalid (land) cell.
    """

    times: np.ndarray   # (nt,) epoch seconds, hourly
    lats: np.ndarray    # (nlat,)
    lons: np.ndarray    # (nlon,)
    swh: np.ndarray     # (nt, nlat, nlon)
    mask: np.ndarray    # (nlat, nlon) bool, True = invalid

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.lats = np.asarray(self.lats, dtype=np.float64)
        self.lons = np.asarray(self.lons, dtype=np.float64)
        self.swh = np.asarray(self.swh, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        for axis, name, spacing in ((self.times, "times", 3600.0), (self.lats, "lats", 0.5), (self.lons, "lons", 0.5)):
            if axis.size < 2:
                raise ConfigError(f"grid {name} axis needs at least two points")
            steps = np.diff(axis)
            if not np.all(steps > 0):
                raise ConfigError(f"grid {name} axis must be strictly increasing")
            if not np.allclose(steps, spacing, atol=1e-6):
                raise ConfigError(f"grid {name} axis spacing must be exactly {spacing}")
        if self.swh.shape != (self.times.size, self.lats.size, self.lons.size):
            raise ConfigError(f"grid swh shape {self.swh.shape} does not match axes")
        if self.mask.shape != (self.lats.size, self.lons.size):
            raise ConfigError(f"grid mask shape {self.mask.shape} does not match axes")
        for t, layer in enumerate(self.swh):  # one hour at a time keeps the temporaries small
            bad = np.argwhere(~(np.isfinite(layer) | self.mask))
            if bad.size:
                raise FormatError(f"grid swh is not finite at the unmasked node with (time, lat, lon) "
                                  f"index {(t, *bad[0].tolist())}")


@dataclass
class BuoyRecord:
    station_id: str
    lat: float
    lon: float
    timestamp: float
    swh: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lat, self.lon, self.timestamp, self.swh)):
            raise FormatError(f"buoy {self.station_id} has a non-finite lat, lon, time or SWH: "
                              f"{self.lat}, {self.lon}, {self.timestamp}, {self.swh}")
        if not -90.0 <= self.lat <= 90.0:
            raise FormatError(f"buoy {self.station_id} has lat {self.lat} outside [-90, 90]")
        if self.swh < 0:
            raise FormatError(f"buoy {self.station_id} has negative SWH {self.swh}")


@dataclass
class ChannelObs:
    channel: int
    sp_lat: float
    sp_lon: float
    ddms: np.ndarray            # (3, W, H)
    aps: np.ndarray             # (9,) in AP_COLUMNS order (rcg appended)
    swh_ref: float
    wind_speed: float | None = None


@dataclass
class FourChannelSample:
    timestamp: float
    source: str                 # "era5" | "buoy" | "synth"
    channels: list[ChannelObs]  # exactly 4, ordered by channel

    def __post_init__(self):
        if len(self.channels) != 4 or [c.channel for c in self.channels] != [1, 2, 3, 4]:
            raise ContractError("FourChannelSample requires channels 1..4 in order")

    def refs(self) -> np.ndarray:
        return np.array([c.swh_ref for c in self.channels])


# ---------------------------------------------------------------------------
# scalar physics helpers
# ---------------------------------------------------------------------------


def compute_rcg(sp_rx_gain: float, range_tx_sp_m: float, range_sp_rx_m: float) -> float:
    """Range-corrected gain: gain * 1e27 / (R_tx_sp^2 * R_sp_rx^2), ranges in
    meters. Raises ContractError unless the ranges are positive and the gain
    comes out finite."""
    if range_tx_sp_m <= 0 or range_sp_rx_m <= 0:
        raise ContractError(f"ranges must be positive, got {range_tx_sp_m}, {range_sp_rx_m}")
    try:
        rcg = sp_rx_gain * RCG_SCALE / (range_tx_sp_m ** 2 * range_sp_rx_m ** 2)
    except (OverflowError, ZeroDivisionError):  # a square out of float range
        rcg = math.inf
    if not math.isfinite(rcg):
        raise ContractError(f"gain {sp_rx_gain} at ranges {range_tx_sp_m}, {range_sp_rx_m} has no finite rcg")
    return rcg


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a 6371.0 km sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


# ---------------------------------------------------------------------------
# L1 parsing and quality control
# ---------------------------------------------------------------------------


def _number(mapping: dict, key: str) -> float:
    """mapping[key], which must be a JSON number (an int or a float, never a
    bool), as a float."""
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def screen_l1_record(doc: dict) -> L1Record | str:
    """Parse one interchange-format JSON object and apply the nine QC_RULES
    in order: the kept record, or the name of the first rule it violates.
    The rules read sp_lon as recorded; a kept record has it wrapped into
    [-180, 180).

    Raises FormatError for a record that does not parse (a missing key, a
    scalar that is not a JSON number, a flag of the wrong JSON type, a
    channel outside 1..4, a finite sp_lat outside [-90, 90]) and
    ContractError from compute_rcg, for a record that reaches it with no
    finite gain.
    """
    try:
        ddms = np.array([doc["ddms"][name] for name in DDM_TYPES], dtype=np.float64)
        if ddms.ndim != 3:
            raise FormatError(f"ddms must be three 2-D maps, got shape {ddms.shape}")
        aps = {k: _number(doc["aps"], k) for k in BASE_AP_FIELDS}
        flags, geometry = doc["flags"], doc["geometry"]
        timestamp, lat, lon = (_number(doc, k) for k in ("timestamp", "sp_lat", "sp_lon"))
        ranges = (_number(geometry, "range_tx_sp_m"), _number(geometry, "range_sp_rx_m"))
        roll, yaw, pitch, land_km = (_number(flags, k) for k in (
            "roll_deg", "yaw_deg", "pitch_deg", "distance_to_land_km"))
        channel, solar = doc["channel"], flags["solar_contamination"]
        quality_flags, tracker_status = flags["quality_flags"], flags["tracker_attitude_status"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed L1 record: {exc}") from exc
    # JSON integers and booleans parse to exactly int and bool (a bool is no int here).
    if type(solar) is not bool or not all(type(v) is int for v in (channel, quality_flags, tracker_status)):
        raise FormatError("channel, quality_flags and tracker_attitude_status must be JSON integers "
                          f"and solar_contamination a JSON bool, got {channel!r}, {quality_flags!r}, "
                          f"{tracker_status!r}, {solar!r}")
    if channel not in (1, 2, 3, 4):
        raise FormatError(f"channel must be 1..4, got {channel}")
    if math.isfinite(lat) and not -90.0 <= lat <= 90.0:  # non-finite is the nan_inf rule's
        raise FormatError(f"sp_lat out of range: {lat}")

    numeric = np.concatenate([ddms.reshape(-1), np.array(
        [*aps.values(), lat, lon, *ranges, roll, yaw, pitch, land_km])])
    if not (np.all(np.isfinite(numeric)) and math.isfinite(timestamp)):
        return "nan_inf"
    if np.any(numeric <= FILL_VALUE_THRESHOLD):
        return "fill_value"
    if any(aps[k] < 0.0 for k in ("ddm_nbrcs", "ddm_les", "ddm_snr", "sp_rx_gain")):
        return "negative_ap"
    rcg = compute_rcg(aps["sp_rx_gain"], *ranges)
    if rcg < RCG_MIN:
        return "low_rcg"
    if solar:
        return "solar_contamination"
    if tracker_status != TRACKER_STATUS_OK:
        return "tracker_attitude"
    if abs(roll) > ROLL_MAX_DEG or abs(yaw) > YAW_MAX_DEG or abs(pitch) > PITCH_MAX_DEG:
        return "attitude_limits"
    if land_km < LAND_DISTANCE_MIN_KM:
        return "near_land"
    if quality_flags & QUALITY_FLAG_MASK:
        return "quality_flags"
    return L1Record(timestamp, channel, lat, normalize_lon(lon), ddms, aps, rcg)


def quality_control(docs) -> tuple[list[L1Record], dict[str, int]]:
    """Screen interchange dicts with screen_l1_record and tally the
    rejections per rule; records that cannot be parsed are tallied under
    "malformed" rather than raising."""
    tally = {rule: 0 for rule in QC_RULES}
    tally["malformed"] = 0
    kept: list[L1Record] = []
    n_input = 0
    for doc in docs:
        n_input += 1
        try:
            screened = screen_l1_record(doc)
        except (FormatError, ContractError):
            tally["malformed"] += 1
            continue
        if isinstance(screened, str):
            tally[screened] += 1
        else:
            kept.append(screened)
    tally["input"] = n_input
    tally["kept"] = len(kept)
    return kept, tally


# ---------------------------------------------------------------------------
# channel alignment
# ---------------------------------------------------------------------------


def align_channels(records: list[L1Record]) -> tuple[list[list[L1Record]], dict[str, int]]:
    """Group records by exact timestamp; keep only complete 4-channel groups.

    Duplicate (timestamp, channel) pairs invalidate the whole timestamp.
    Groups are returned ordered by timestamp with channels ascending.
    """
    by_time: dict[float, list[L1Record]] = {}
    for rec in records:
        by_time.setdefault(rec.timestamp, []).append(rec)
    groups: list[list[L1Record]] = []
    tally = {"incomplete_channels": 0, "duplicate_channel": 0, "groups": 0}
    for ts in sorted(by_time):
        recs = by_time[ts]
        channels = [r.channel for r in recs]
        if len(set(channels)) != len(channels):
            tally["duplicate_channel"] += 1
            continue
        if sorted(channels) != [1, 2, 3, 4]:
            tally["incomplete_channels"] += 1
            continue
        groups.append(sorted(recs, key=lambda r: r.channel))
    tally["groups"] = len(groups)
    return groups, tally


# ---------------------------------------------------------------------------
# reference matching
# ---------------------------------------------------------------------------


def _bracket(axis: np.ndarray, values, longitude: bool = False):
    """For each value: the indices (i, j) of the axis points around it, its
    fractional offset from axis[i] towards axis[j], and whether it lies
    beyond the axis. A longitude axis that closes the circle wraps a value
    beyond it into [axis[0], axis[0] + 360) and brackets a value past its
    last point with its first, so no longitude lies beyond it."""
    values = np.asarray(values, dtype=np.float64)
    outside = (values < axis[0]) | (values > axis[-1])
    if longitude and abs(axis[-1] - axis[0] + 0.5 - 360.0) < 1e-6:
        values = np.where(outside, axis[0] + (values - axis[0]) % 360.0, values)
        outside = np.zeros_like(outside)
    idx = np.clip(np.searchsorted(axis, values, side="right") - 1, 0, axis.size - 2)
    past = values > axis[-1]   # a wrapped longitude between the last point and the first
    return (np.where(past, axis.size - 1, idx), np.where(past, 0, idx + 1),
            np.where(past, (values - axis[-1]) / (axis[0] + 360.0 - axis[-1]),
                     (values - axis[idx]) / (axis[idx + 1] - axis[idx])), outside)


def interpolate_swh(grid: Era5Grid, lat, lon, t) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation in space at the two bracketing hours, then
    linear interpolation in time, at each of the broadcast points (lat,
    lon, t); scalars give 0-d arrays. On a grid that is global in
    longitude the last longitude column neighbours the first.

    Returns (swh, reason). reason is "" where swh holds a value, else
    "outside_grid" for a point beyond any axis or "masked_node" for one
    with a land-masked cell among its four neighbours; outside_grid takes
    precedence. swh is NaN where reason is not "".
    """
    t0, t1, tf, out_t = _bracket(grid.times, t)
    y0, y1, yf, out_y = _bracket(grid.lats, lat)
    x0, x1, xf, out_x = _bracket(grid.lons, lon, longitude=True)
    mask, p = grid.mask, grid.swh
    masked = mask[y0, x0] | mask[y0, x1] | mask[y1, x0] | mask[y1, x1]
    reason = np.where(out_t | out_y | out_x, "outside_grid", np.where(masked, "masked_node", ""))
    # Three index arrays gather each point's nodes, not whole hours. A point
    # without a value may gather a masked node, which may hold inf.
    with np.errstate(invalid="ignore", over="ignore"):
        v0, v1 = (p[h, y0, x0] * (1 - yf) * (1 - xf) + p[h, y0, x1] * (1 - yf) * xf
                  + p[h, y1, x0] * yf * (1 - xf) + p[h, y1, x1] * yf * xf for h in (t0, t1))
        swh = v0 * (1 - tf) + v1 * tf
    return np.where(reason == "", swh, np.nan), reason


def _sample(group: list[L1Record], refs, source: str) -> FourChannelSample:
    """The sample of a group of four records with reference SWH refs, one per
    record; each AP vector holds its record's values in AP_COLUMNS order."""
    return FourChannelSample(timestamp=group[0].timestamp, source=source, channels=[
        ChannelObs(channel=rec.channel, sp_lat=rec.sp_lat, sp_lon=rec.sp_lon, ddms=rec.ddms,
                   aps=np.array([rec.aps[k] if k in rec.aps else getattr(rec, k) for k in AP_COLUMNS]),
                   swh_ref=ref)
        for rec, ref in zip(group, refs)])


def match_era5_groups(groups, grid: Era5Grid) -> tuple[list[FourChannelSample], dict[str, int]]:
    """Attach interpolated reference SWH to each channel of each group, in
    one interpolate_swh call over all their records. A group with a channel
    that has no value is dropped, tallied under the reason of its first
    such channel."""
    groups = list(groups)
    recs = [rec for group in groups for rec in group]
    swh, reason = interpolate_swh(grid, *(np.array([getattr(r, f) for r in recs], dtype=np.float64)
                                          for f in ("sp_lat", "sp_lon", "timestamp")))
    matched = iter(zip(list(swh), reason.tolist()))
    tally = {"outside_grid": 0, "masked_node": 0, "matched": 0}
    samples = []
    for group in groups:
        found = [next(matched) for _ in group]
        why = next((r for _, r in found if r), "")
        if why:
            tally[why] += 1
        else:
            samples.append(_sample(group, [ref for ref, _ in found], "era5"))
    tally["matched"] = len(samples)
    return samples, tally


def _haversine_km_np(lat1, lon1, lat2, lon2) -> np.ndarray:
    """haversine_km over arrays, with numpy's trigonometry."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))


# _match_buoys' window and prefilter only narrow the candidates; the exact
# scalar tests decide. The time window is widened past BUOY_MAX_S by more
# than any rounding of `t +- BUOY_MAX_S`. numpy's vectorized trigonometry
# (arcsin in particular) can differ from the `math` functions that
# haversine_km calls by a few ulps, about 1e-14 km at 25 km, so the
# prefilter keeps rows up to a metre beyond BUOY_MAX_KM: no row the exact
# test accepts is ever dropped. Its first cut is a latitude band, as a
# great-circle distance is at least EARTH_RADIUS_KM times the latitude
# difference in radians.
_WINDOW_SLACK_S = 1.0
_PREFILTER_SLACK_KM = 1e-3
_PREFILTER_MAX_DLAT = math.degrees((BUOY_MAX_KM + _PREFILTER_SLACK_KM) / EARTH_RADIUS_KM)
_PREFILTER_MAX_PAIRS = 1 << 18   # (record, row) pairs per prefilter chunk, 2 MB per array


def _match_buoys(recs: list[L1Record], buoys: list[BuoyRecord]) -> list[BuoyRecord | None]:
    """Each record's buoy: the minimum of (distance, time difference, CSV
    row) over the rows within BUOY_MAX_KM and BUOY_MAX_S, both inclusive,
    which is the first-wins minimum of (distance, time difference) in CSV
    order. The rows are sorted by time once; each record's time window is
    found by binary search, its (record, row) pairs are prefiltered in
    arrays, and the exact scalar tests decide on the few that survive.
    Buoy rows are finite (BuoyRecord checks them)."""
    ts = np.array([b.timestamp for b in buoys], dtype=np.float64)
    order = np.argsort(ts, kind="stable")   # rows of equal time keep CSV order
    ts = ts[order]
    blat = np.array([b.lat for b in buoys], dtype=np.float64)[order]
    blon = np.array([b.lon for b in buoys], dtype=np.float64)[order]
    t = np.array([r.timestamp for r in recs], dtype=np.float64)
    lat = np.array([r.sp_lat for r in recs], dtype=np.float64)
    lon = np.array([r.sp_lon for r in recs], dtype=np.float64)
    lo = np.searchsorted(ts, t - (BUOY_MAX_S + _WINDOW_SLACK_S), side="left")
    hi = np.searchsorted(ts, t + (BUOY_MAX_S + _WINDOW_SLACK_S), side="right")
    best: list[tuple | None] = [None] * len(recs)
    # Chunks of records whose (record, row) pairs number at most
    # _PREFILTER_MAX_PAIRS, or one record with a larger window.
    step = max(1, _PREFILTER_MAX_PAIRS // max(1, int(np.max(hi - lo, initial=0))))
    for start in range(0, len(recs), step):
        n = hi[start:start + step] - lo[start:start + step]
        rec = np.repeat(np.arange(start, start + n.size), n)
        # Sorted positions lo[j], lo[j] + 1, ..., hi[j] - 1 of each record j.
        pos = np.arange(n.sum()) + np.repeat(lo[start:start + step] - np.cumsum(n) + n, n)
        band = np.abs(blat[pos] - lat[rec]) <= _PREFILTER_MAX_DLAT
        rec, pos = rec[band], pos[band]
        near = _haversine_km_np(lat[rec], lon[rec], blat[pos], blon[pos]) <= BUOY_MAX_KM + _PREFILTER_SLACK_KM
        for i, row in zip(rec[near].tolist(), order[pos[near]].tolist()):
            r, buoy = recs[i], buoys[row]
            dt = abs(buoy.timestamp - r.timestamp)
            if dt > BUOY_MAX_S:
                continue
            dist = haversine_km(r.sp_lat, r.sp_lon, buoy.lat, buoy.lon)
            if dist > BUOY_MAX_KM:
                continue
            key = (dist, dt, row)
            if best[i] is None or key < best[i]:
                best[i] = key
    return [None if key is None else buoys[key[2]] for key in best]


def match_buoy_groups(groups, buoys: list[BuoyRecord]) -> tuple[list[FourChannelSample], dict[str, int]]:
    """Match each channel independently, then keep groups with all four matched."""
    groups = list(groups)
    matched = iter(_match_buoys([rec for group in groups for rec in group], buoys))
    tally = {"unmatched_channel": 0, "matched": 0}
    samples = []
    for group in groups:
        found = [next(matched) for _ in group]
        if any(m is None for m in found):
            tally["unmatched_channel"] += 1
            continue
        samples.append(_sample(group, [buoy.swh for buoy in found], "buoy"))
    tally["matched"] = len(samples)
    return samples, tally


# ---------------------------------------------------------------------------
# capping and splitting
# ---------------------------------------------------------------------------


def cap_and_filter(samples: list[FourChannelSample]) -> tuple[list[FourChannelSample], dict[str, int]]:
    """Drop any sample where some channel's reference exceeds the 8 m cap."""
    kept = [s for s in samples if not np.any(s.refs() > SWH_CAP_M)]
    return kept, {"swh_above_cap": len(samples) - len(kept), "kept": len(kept)}


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
# standardization statistics
# ---------------------------------------------------------------------------


def ap_matrix(samples: list[FourChannelSample], include_wind: bool) -> np.ndarray:
    """The raw (n, 4, K_ap) AP values of `samples`: each channel's AP_COLUMNS,
    then its wind speed when `include_wind`."""
    n = len(samples)
    if n == 0:
        return np.zeros((0, 4, len(AP_COLUMNS) + int(include_wind)))
    chans = [ch for s in samples for ch in s.channels]
    aps = per_channel(chans, n, "aps")["aps"]
    if not include_wind:
        return aps
    if any(ch.wind_speed is None for ch in chans):
        raise ConfigError("use_wind is set but a sample has no wind_speed")
    return np.concatenate([aps, per_channel(chans, n, "wind_speed")["wind_speed"][..., None]], axis=-1)


def compute_ap_stats(samples: list[FourChannelSample], include_wind: bool) -> dict:
    """Per-column mean/std over all channels of the given (training) samples."""
    if not samples:
        raise ContractError("cannot compute standardization statistics from zero samples")
    columns = list(AP_COLUMNS) + ([WIND_COLUMN] if include_wind else [])
    arr = ap_matrix(samples, include_wind).reshape(-1, len(columns))
    mean = arr.mean(axis=0)
    std = np.maximum(arr.std(axis=0), 1e-12)
    return {"columns": columns, "mean": mean.tolist(), "std": std.tolist()}


def standardize_ap(ap: np.ndarray, stats: dict) -> np.ndarray:
    mean = np.asarray(stats["mean"])
    std = np.asarray(stats["std"])
    if ap.shape[-1] != mean.size:
        raise ConfigError(f"AP vector has {ap.shape[-1]} columns, statistics cover {mean.size}")
    return (ap - mean) / std


# ---------------------------------------------------------------------------
# canonical sample file
# ---------------------------------------------------------------------------


def per_channel(items: list, n: int, *fields: str) -> dict[str, np.ndarray]:
    """{field: (n, 4, ...) float64 array of item.field} over the
    channel-ordered items of n samples or groups."""
    arrays = {}
    for f in fields:
        try:
            flat = np.array([getattr(x, f) for x in items], dtype=np.float64)
        except ValueError as exc:
            raise ContractError(f"{f} values do not stack into one array (mixed DDM shapes?): {exc}") from exc
        arrays[f] = flat.reshape((n, 4) + flat.shape[1:])
    return arrays


def _read_container(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """`container.read` of a sample or group file at SCHEMA_VERSION whose
    header holds a manifest and whose float arrays hold only finite values."""
    header, arrays = container.read(path, kind, SCHEMA_VERSION)
    if not isinstance(header.get("manifest"), dict):
        raise FormatError(f"{path}: {kind} header has no manifest")
    for name, arr in arrays.items():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise FormatError(f"{path}: {kind} array {name!r} holds a non-finite value")
    return header, arrays


def _write_container(path: str, kind: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """`container.write` of a sample or group file at SCHEMA_VERSION. Raises
    ContractError, and writes nothing, if a float array holds NaN or inf:
    _read_container would reject the file."""
    for name, arr in arrays.items():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ContractError(f"{path}: {kind} array {name!r} holds a non-finite value; not written")
    container.write(path, kind, SCHEMA_VERSION, header, arrays)


def write_samples(path: str, samples: list[FourChannelSample], manifest: dict) -> None:
    """A `container` file with one (n_samples, 4, ...) array per channel
    field and `manifest` in its header. A channel without wind speed has
    has_wind False and wind_speed 0."""
    chans = [ch for s in samples for ch in s.channels]
    n = len(samples)
    sources = sorted({s.source for s in samples})
    _write_container(path, "samples", {"sources": sources, "manifest": manifest}, {
        "timestamp": np.array([s.timestamp for s in samples], dtype=np.float64),
        "source": np.array([sources.index(s.source) for s in samples], dtype=np.int64),
        **per_channel(chans, n, "sp_lat", "sp_lon", "ddms", "aps", "swh_ref"),
        "has_wind": np.array([c.wind_speed is not None for c in chans], dtype=bool).reshape(n, 4),
        "wind_speed": np.array([c.wind_speed if c.wind_speed is not None else 0.0 for c in chans],
                               dtype=np.float64).reshape(n, 4),
    })


def read_samples(path: str) -> tuple[list[FourChannelSample], dict]:
    """The samples of a file written by write_samples and its manifest,
    with n_samples counted from the arrays."""
    header, a = _read_container(path, "samples")
    try:
        ts, src, lat, lon, ref, has, wind = (a[k].tolist() for k in (
            "timestamp", "source", "sp_lat", "sp_lon", "swh_ref", "has_wind", "wind_speed"))
        sources = header["sources"]
        bad = [code for code in src if not 0 <= code < len(sources)]
        if bad:
            raise FormatError(f"{path}: source code {bad[0]} is outside [0, {len(sources)})")
        samples = [FourChannelSample(timestamp=ts[i], source=sources[src[i]], channels=[
            ChannelObs(channel=c + 1, sp_lat=lat[i][c], sp_lon=lon[i][c], ddms=a["ddms"][i, c],
                       aps=a["aps"][i, c], swh_ref=ref[i][c], wind_speed=wind[i][c] if has[i][c] else None)
            for c in range(4)]) for i in range(len(ts))]
    except (KeyError, IndexError, TypeError) as exc:
        raise FormatError(f"{path}: malformed sample arrays: {exc}") from exc
    return samples, {**header["manifest"], "n_samples": len(samples)}


def read_l1_records(path: str) -> list[dict]:
    """Raw interchange dicts; quality_control parses and screens them."""
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    return docs


def read_era5_grid(path: str) -> Era5Grid:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        arrays = {k: np.asarray(doc[k], dtype=bool if k == "mask" else np.float64)
                  for k in ("times", "lats", "lons", "swh", "mask")}
    except json.JSONDecodeError as exc:
        raise FormatError(f"grid file {path} is not valid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise FormatError(f"grid file {path} is missing fields: {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"grid file {path} holds a non-numeric or ragged array: {exc}") from exc
    return Era5Grid(**arrays)


def read_buoys(path: str) -> list[BuoyRecord]:
    """CSV with header station_id, lat, lon, iso_time, swh_m."""
    import csv

    buoys = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"station_id", "lat", "lon", "iso_time", "swh_m"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise FormatError(f"buoy CSV must have columns {sorted(expected)}, got {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            try:
                buoys.append(BuoyRecord(
                    station_id=row["station_id"], lat=float(row["lat"]),
                    lon=normalize_lon(float(row["lon"])),
                    timestamp=parse_time(row["iso_time"]), swh=float(row["swh_m"])))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: malformed buoy row: {exc}") from exc
    return buoys


# ---------------------------------------------------------------------------
# aligned-group interchange (between `preprocess` and the match commands)
# ---------------------------------------------------------------------------


def write_groups(path: str, groups: list[list[L1Record]], tally: dict) -> None:
    """A `container` file with one (n_groups, 4, ...) array per persisted
    record field and the QC and alignment `tally` in its header's manifest."""
    recs = [r for group in groups for r in group]
    n = len(groups)
    _write_container(path, "groups", {"manifest": {"tally": tally}}, {
        **per_channel(recs, n, "timestamp", "sp_lat", "sp_lon", "ddms", "rcg"),
        "channel": np.array([r.channel for r in recs], dtype=np.int64).reshape(n, 4),
        "aps": np.array([[r.aps[k] for k in BASE_AP_FIELDS] for r in recs],
                        dtype=np.float64).reshape(n, 4, len(BASE_AP_FIELDS)),
    })


def read_groups(path: str) -> list[list[L1Record]]:
    """The groups of a file written by write_groups. Their records passed
    quality control, so the file holds only the fields a kept L1Record has.
    Each row must hold channels 1..4 in order at one timestamp, as
    align_channels makes them."""
    _, a = _read_container(path, "groups")
    try:
        ts, ch, lat, lon, aps, rcg = (a[k].tolist() for k in (
            "timestamp", "channel", "sp_lat", "sp_lon", "aps", "rcg"))
        groups = [[L1Record(ts[i][c], ch[i][c], lat[i][c], lon[i][c], a["ddms"][i, c],
                            dict(zip(BASE_AP_FIELDS, aps[i][c])), rcg[i][c]) for c in range(4)]
                  for i in range(len(ts))]
    except (KeyError, IndexError, TypeError) as exc:
        raise FormatError(f"{path}: malformed group arrays: {exc}") from exc
    for i, (times, channels) in enumerate(zip(ts, ch)):
        if channels != [1, 2, 3, 4] or len(set(times)) != 1:
            raise FormatError(f"{path}: group row {i} must hold channels [1, 2, 3, 4] at one timestamp, "
                              f"got channels {channels} at {times}")
    return groups
