"""Tests for quality control, channel alignment, collocation, capping,
splitting, and the canonical file formats."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damage import record_shape, set_last_value
import oracles
from oracles import match_buoy_record_oracle
from swhnet import cli, container, pipeline
from swhnet.config import SplitSpec
from swhnet.errors import ConfigError, ContractError, FormatError
from swhnet.pipeline import (BUOY_MAX_S, BuoyRecord, ChannelObs, Era5Grid, FourChannelSample,
                             align_channels, cap_and_filter,
                             compute_ap_stats, compute_rcg, haversine_km,
                             interpolate_swh, match_buoy_groups, match_era5_groups,
                             normalize_lon, parse_time,
                             quality_control, read_buoys, read_groups,
                             read_samples, screen_l1_record, split_dataset, standardize_ap,
                             write_groups, write_samples)

W, H = 3, 4


def match_buoy_record(rec, buoys):
    """The buoy the matcher picks for the one record `rec`, or None."""
    return pipeline._match_buoys([rec], buoys)[0]


def record_doc(**over):
    """A clean synthetic L1 interchange record that passes every QC rule."""
    doc = {
        "timestamp": parse_time("2019-09-01T00:00:00"),
        "channel": 1,
        "sp_lat": 10.0,
        "sp_lon": 40.0,
        "ddms": {
            "brcs": np.full((W, H), 1.0).tolist(),
            "eff_scatter": np.full((W, H), 2.0).tolist(),
            "power_analog": np.full((W, H), 3.0).tolist(),
        },
        "aps": {"ddm_nbrcs": 12.0, "ddm_les": 0.8, "ddm_snr": 4.0,
                "gps_eirp": 26.0, "sp_rx_gain": 10.0, "sp_inc_angle": 30.0},
        "geometry": {"range_tx_sp_m": 2.2e7, "range_sp_rx_m": 6.5e5},
        "flags": {"quality_flags": 0, "tracker_attitude_status": 1,
                  "roll_deg": 1.0, "yaw_deg": 0.5, "pitch_deg": -0.5,
                  "distance_to_land_km": 900.0, "solar_contamination": False},
    }
    for key, value in over.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


# ---------------------------------------------------------------------------
# rcg / haversine
# ---------------------------------------------------------------------------


def test_rcg_constructed_identity():
    # denominator = (1e7)^2 * (10^6.5)^2 = 1e14 * 1e13 = 1e27
    assert compute_rcg(1.0, 1e7, 10 ** 6.5) == pytest.approx(1.0, rel=1e-12)


def test_rcg_inverse_square_scaling():
    base = compute_rcg(5.0, 2e7, 7e5)
    assert compute_rcg(5.0, 4e7, 7e5) == pytest.approx(base / 4)
    assert compute_rcg(5.0, 2e7, 1.4e6) == pytest.approx(base / 4)


def test_rcg_matches_formula_on_random_inputs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.uniform(0.1, 20)
        r1 = rng.uniform(1e6, 5e7)
        r2 = rng.uniform(1e5, 5e6)
        assert compute_rcg(g, r1, r2) == pytest.approx(g * 1e27 / (r1 * r1 * r2 * r2), rel=1e-14)


def test_rcg_nonpositive_range():
    with pytest.raises(ContractError):
        compute_rcg(1.0, 0.0, 1e5)


@pytest.mark.parametrize("gain, r_tx, r_rx", [(10.0, 1e-200, 6.5e5), (10.0, 1e200, 6.5e5),
                                             (10.0, 1e-75, 1e-75), (1e300, 2.2e7, 6.5e5)])
def test_rcg_without_a_finite_value_is_malformed(gain, r_tx, r_rx):
    # A square that underflows to zero or overflows, or a quotient that
    # overflows, has no finite gain: the record is malformed, neither a
    # traceback nor an infinite rcg in the group file.
    with pytest.raises(ContractError, match="no finite rcg"):
        compute_rcg(gain, r_tx, r_rx)
    doc = record_doc(aps={"sp_rx_gain": gain}, geometry={"range_tx_sp_m": r_tx, "range_sp_rx_m": r_rx})
    kept, tally = quality_control([doc])
    assert not kept and tally["malformed"] == 1


def test_haversine_zero_and_antipodal():
    assert haversine_km(12.0, 34.0, 12.0, 34.0) == 0.0
    assert haversine_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(math.pi * 6371.0, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(-90, 90), st.floats(-180, 180), st.floats(-90, 90), st.floats(-180, 180))
def test_haversine_symmetric(lat1, lon1, lat2, lon2):
    assert haversine_km(lat1, lon1, lat2, lon2) == pytest.approx(
        haversine_km(lat2, lon2, lat1, lon1), abs=1e-9)


# ---------------------------------------------------------------------------
# quality control
# ---------------------------------------------------------------------------


VIOLATIONS = {
    "nan_inf": {"aps": {"ddm_snr": float("nan")}},
    "fill_value": {"aps": {"gps_eirp": -9999.0}},
    "negative_ap": {"aps": {"ddm_les": -0.1}},
    "low_rcg": {"geometry": {"range_tx_sp_m": 9e7, "range_sp_rx_m": 9e6}},
    "solar_contamination": {"flags": {"solar_contamination": True}},
    "tracker_attitude": {"flags": {"tracker_attitude_status": 0}},
    "attitude_limits": {"flags": {"roll_deg": 30.5}},
    "near_land": {"flags": {"distance_to_land_km": 24.9}},
    "quality_flags": {"flags": {"quality_flags": 1 << 5}},
}


def test_qc_one_rejection_per_rule():
    records = [record_doc()] + [record_doc(**over) for over in VIOLATIONS.values()]
    kept, tally = quality_control(records)
    assert len(kept) == 1
    for rule in VIOLATIONS:
        assert tally[rule] == 1, rule
    assert tally["malformed"] == 0
    assert tally["input"] == len(records)


def test_qc_sum_invariant():
    records = [record_doc()] * 3 + [record_doc(**over) for over in VIOLATIONS.values()]
    records.append({"not": "a record"})
    kept, tally = quality_control(records)
    rejected = sum(tally[r] for r in list(VIOLATIONS) + ["malformed"])
    assert tally["kept"] + rejected == tally["input"] == len(records)
    assert tally["malformed"] == 1


def test_qc_rcg_threshold_and_attachment():
    low = record_doc(geometry={"range_tx_sp_m": 9e7, "range_sp_rx_m": 9e6})
    kept, tally = quality_control([low])
    assert tally["low_rcg"] == 1 and not kept
    kept, _ = quality_control([record_doc()])
    rec = kept[0]
    assert rec.rcg == pytest.approx(compute_rcg(10.0, 2.2e7, 6.5e5))
    assert rec.rcg > 3.0


def test_qc_boundary_attitudes_kept():
    # "exceeds" is read strictly: boundary values stay
    doc = record_doc(flags={"roll_deg": 30.0, "yaw_deg": 5.0, "pitch_deg": 10.0})
    kept, tally = quality_control([doc])
    assert len(kept) == 1 and tally["attitude_limits"] == 0


def test_qc_land_boundary_kept():
    kept, tally = quality_control([record_doc(flags={"distance_to_land_km": 25.0})])
    assert len(kept) == 1 and tally["near_land"] == 0


def test_qc_flag_bits_above_28_ignored():
    kept, _ = quality_control([record_doc(flags={"quality_flags": 1 << 28})])
    assert len(kept) == 1
    kept, tally = quality_control([record_doc(flags={"quality_flags": 1 << 27})])
    assert not kept and tally["quality_flags"] == 1


def record_fields(rec):
    """The fields of a kept record, the floats as their bytes."""
    floats = [rec.timestamp, rec.sp_lat, rec.sp_lon, *rec.aps.values(), rec.rcg]
    return rec.channel, list(rec.aps), np.array(floats).tobytes(), rec.ddms.tobytes()


def test_qc_idempotent():
    # Screening reads its dicts and builds new records: screening the same
    # dicts again gives the same records and tallies.
    records = [record_doc(channel=c) for c in (1, 2, 3)] + [record_doc(**VIOLATIONS["negative_ap"])]
    before = copy.deepcopy(records)
    kept1, tally1 = quality_control(records)
    kept2, tally2 = quality_control(records)
    assert records == before
    assert tally1 == tally2 and tally1["kept"] == 3 and tally1["negative_ap"] == 1
    assert [record_fields(r) for r in kept1] == [record_fields(r) for r in kept2]


SPECIAL = (math.nan, math.inf, -math.inf, -9999.0, -9000.0, -8999.999, 0.0, -0.0)


def floats_near(lo, hi, *edges):
    """A float in [lo, hi]; an edge of a rule, its negation or the float
    either side of it; or a NaN, inf, fill, zero or negative zero."""
    around = [x for e in edges for x in (e, -e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf))]
    return st.one_of(st.sampled_from(around), st.sampled_from(SPECIAL), st.floats(lo, hi))


# (key path, values) for every field of an L1 record; the ranges stay far
# from the float overflow and underflow of the gain computation.
# RCG_EDGE_GAIN is the gain whose rcg is RCG_MIN at record_doc's ranges.
RCG_EDGE_GAIN = pipeline.RCG_MIN * (2.2e7 * 6.5e5) ** 2 / pipeline.RCG_SCALE
L1_FIELDS = (
    [(("timestamp",), floats_near(-1e10, 1e10, 0.0)),
     (("sp_lat",), floats_near(-100.0, 100.0, 90.0)),
     (("sp_lon",), floats_near(-400.0, 400.0, 180.0)),
     (("channel",), st.integers(0, 5)),
     (("geometry", "range_tx_sp_m"), floats_near(1e3, 1e9, 2.2e7)),
     (("geometry", "range_sp_rx_m"), floats_near(1e3, 1e8, 6.5e5)),
     (("flags", "quality_flags"), st.sampled_from([0, 1, -1, 1 << 27, 1 << 28, (1 << 28) - 1, 1 << 60])),
     (("flags", "tracker_attitude_status"), st.integers(-1, 2)),
     (("flags", "solar_contamination"), st.booleans()),
     (("flags", "roll_deg"), floats_near(-90.0, 90.0, 30.0)),
     (("flags", "yaw_deg"), floats_near(-90.0, 90.0, 5.0)),
     (("flags", "pitch_deg"), floats_near(-90.0, 90.0, 10.0)),
     (("flags", "distance_to_land_km"), floats_near(-100.0, 1e4, 25.0))]
    + [(("aps", k), floats_near(-50.0, 50.0, 0.0, RCG_EDGE_GAIN)) for k in pipeline.BASE_AP_FIELDS]
    + [(("ddms", name, i, j), floats_near(-1e4, 1e4, 9000.0))
       for name in ("brcs", "eff_scatter", "power_analog") for i, j in ((0, 0), (W - 1, H - 1))]
)


def _holder(doc, path):
    """The dict or list in `doc` that holds the last key of `path`."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def l1_docs(draw):
    """A well-typed L1 record with a few fields moved, perhaps one key missing."""
    doc = record_doc()
    for path, values in draw(st.lists(st.sampled_from(L1_FIELDS), max_size=3)):
        _holder(doc, path)[path[-1]] = draw(values)
    if draw(st.integers(0, 7)) == 0:
        path = draw(st.sampled_from([p[:2] for p, _ in L1_FIELDS]))
        del _holder(doc, path)[path[-1]]
    return doc


def screened_or_malformed(screen, doc):
    try:
        return screen(doc)
    except (FormatError, ContractError):
        return "malformed"


def screen_oracle(doc):
    rec = oracles.parse_l1_record(doc)
    return oracles._qc_violation(rec) or rec


def assert_screens_agree(doc):
    want = screened_or_malformed(screen_oracle, doc)
    got = screened_or_malformed(screen_l1_record, doc)
    if (want != "nan_inf" and screened_or_malformed(oracles.parse_l1_record, doc) != "malformed"
            and doc["sp_lon"] <= pipeline.FILL_VALUE_THRESHOLD):
        # The two-pass screen wraps sp_lon into [-180, 180) before its fill
        # rule, so it keeps a -9999 fill; the one-pass screen applies the
        # rule to sp_lon as recorded.
        want = "fill_value"
    if isinstance(want, str):
        assert got == want
    else:
        assert record_fields(got) == record_fields(want)


@settings(max_examples=1000, deadline=None)
@given(l1_docs())
def test_screen_agrees_with_the_two_pass_parse_and_screen(doc):
    assert_screens_agree(doc)


def _at_edge(key, value):
    section = next((k for k in ("aps", "geometry", "flags") if key in record_doc()[k]), None)
    return record_doc(**{section: {key: value}}) if section else record_doc(**{key: value})


@pytest.mark.parametrize("key, value", [
    (key, v) for key, edge, outward in [
        ("sp_lat", 90.0, math.inf), ("sp_lat", -90.0, -math.inf), ("sp_rx_gain", RCG_EDGE_GAIN, 0.0),
        ("roll_deg", 30.0, math.inf), ("yaw_deg", -5.0, -math.inf), ("pitch_deg", 10.0, math.inf),
        ("distance_to_land_km", 25.0, 0.0), ("gps_eirp", -9000.0, -math.inf), ("timestamp", -9000.0, -math.inf),
        ("range_sp_rx_m", 0.0, -math.inf)]
    for v in (edge, np.nextafter(edge, outward))] + [
    ("quality_flags", 1 << 27), ("quality_flags", 1 << 28), ("tracker_attitude_status", 2), ("channel", 5)])
def test_screen_agrees_with_the_two_pass_parse_and_screen_at_each_rule_edge(key, value):
    assert_screens_agree(_at_edge(key, value))


@pytest.mark.parametrize("ts", [math.inf, -math.inf, math.nan])
def test_qc_rejects_a_non_finite_timestamp(ts):
    docs = [record_doc(timestamp=ts, channel=c) for c in (1, 2, 3, 4)]
    kept, tally = quality_control(docs)
    assert not kept and tally["nan_inf"] == 4
    groups, align = align_channels(kept)
    assert not groups and align == {"incomplete_channels": 0, "duplicate_channel": 0, "groups": 0}


@pytest.mark.parametrize("lat", [math.nan, math.inf, -math.inf])
def test_qc_tallies_a_non_finite_latitude_as_nan_inf(lat):
    kept, tally = quality_control([record_doc(sp_lat=lat)])
    assert not kept and tally["nan_inf"] == 1 and tally["malformed"] == 0


def test_qc_tallies_an_out_of_range_latitude_as_malformed():
    kept, tally = quality_control([record_doc(sp_lat=95.0)])
    assert not kept and tally["malformed"] == 1 and tally["nan_inf"] == 0


def test_qc_keeps_a_pre_1970_timestamp():
    # Only the finite check covers the timestamp: an epoch below the -9000
    # fill threshold is a date before 1970, not a fill value.
    ts = parse_time("1969-12-31T21:00:00")
    assert ts < -9000
    kept, tally = quality_control([record_doc(timestamp=ts, channel=c) for c in (1, 2, 3, 4)])
    assert tally["kept"] == 4 and tally["fill_value"] == 0
    groups, align = align_channels(kept)
    assert align["groups"] == 1 and groups[0][0].timestamp == ts


def test_parse_normalizes_longitude():
    rec = screen_l1_record(record_doc(sp_lon=250.0))
    assert rec.sp_lon == pytest.approx(-110.0)


@pytest.mark.parametrize("key, value", [("channel", 1.5), ("channel", 1.0), ("channel", "1"), ("channel", True),
                                        ("quality_flags", 2.5), ("quality_flags", "0"), ("quality_flags", True),
                                        ("quality_flags", 0.0), ("tracker_attitude_status", 1.9),
                                        ("tracker_attitude_status", 1.0), ("tracker_attitude_status", True),
                                        ("tracker_attitude_status", None), ("solar_contamination", "false"),
                                        ("solar_contamination", 0), ("solar_contamination", 1),
                                        ("solar_contamination", None)])
def test_qc_tallies_a_flag_of_the_wrong_json_type_as_malformed(key, value):
    doc = record_doc(**{key: value}) if key == "channel" else record_doc(flags={key: value})
    kept, tally = quality_control([json.loads(json.dumps(doc))])
    assert not kept and tally["malformed"] == 1 and tally["kept"] == 0
    assert sum(tally[rule] for rule in pipeline.QC_RULES) == 0
    with pytest.raises(FormatError, match="JSON"):
        screen_l1_record(doc)


@pytest.mark.parametrize("lon, kept_at", [(-9999.0, None), (-9000.0, None), (-1e300, None),
                                         (np.nextafter(-9000.0, 0.0), 0.0), (-8820.0, -180.0)])
def test_qc_applies_the_fill_rule_to_the_recorded_longitude(lon, kept_at):
    # Wrapped first, -9999 would be kept at longitude 81.
    kept, tally = quality_control([record_doc(sp_lon=lon)])
    if kept_at is None:
        assert not kept and tally["fill_value"] == 1
    else:
        assert tally["kept"] == 1 and kept[0].sp_lon == pytest.approx(kept_at, abs=1e-9)


NUMBER_FIELDS = ([("timestamp",), ("sp_lat",), ("sp_lon",)]
                 + [("aps", k) for k in pipeline.BASE_AP_FIELDS]
                 + [("geometry", k) for k in ("range_tx_sp_m", "range_sp_rx_m")]
                 + [("flags", k) for k in ("roll_deg", "yaw_deg", "pitch_deg", "distance_to_land_km")])


@pytest.mark.parametrize("value", ["10", True, False, None, [1.0], 10 ** 400],
                         ids=["string", "true", "false", "null", "list", "huge_int"])
@pytest.mark.parametrize("path", NUMBER_FIELDS)
def test_qc_tallies_a_number_of_the_wrong_json_type_as_malformed(path, value):
    # 10 ** 400 is a JSON integer with no float value.
    doc = json.loads(json.dumps(record_doc()))
    _holder(doc, path)[path[-1]] = value
    kept, tally = quality_control([doc])
    assert not kept and tally["malformed"] == 1 and tally["kept"] == 0
    assert sum(tally[rule] for rule in pipeline.QC_RULES) == 0


@pytest.mark.parametrize("path", NUMBER_FIELDS)
def test_qc_reads_a_json_integer_as_a_number(path):
    as_int, as_float = json.loads(json.dumps(record_doc())), record_doc()
    value = int(_holder(as_float, path)[path[-1]])
    _holder(as_int, path)[path[-1]], _holder(as_float, path)[path[-1]] = value, float(value)
    kept, tally = quality_control([as_int])
    assert tally["kept"] == 1
    assert record_fields(kept[0]) == record_fields(screen_l1_record(as_float))


# ---------------------------------------------------------------------------
# channel alignment
# ---------------------------------------------------------------------------


def make_records(ts, channels):
    docs = [record_doc(timestamp=ts, channel=c) for c in channels]
    kept, _ = quality_control(docs)
    return kept


def test_align_complete_group():
    groups, tally = align_channels(make_records(100.0, [4, 2, 1, 3]))
    assert tally["groups"] == 1
    assert [r.channel for r in groups[0]] == [1, 2, 3, 4]


def test_align_incomplete_discarded():
    groups, tally = align_channels(make_records(100.0, [1, 2, 4]))
    assert not groups and tally["incomplete_channels"] == 1


def test_align_duplicate_discarded():
    groups, tally = align_channels(make_records(100.0, [1, 2, 3, 3, 4]))
    assert not groups and tally["duplicate_channel"] == 1


def test_align_orders_by_timestamp():
    recs = make_records(200.0, [1, 2, 3, 4]) + make_records(100.0, [1, 2, 3, 4])
    groups, _ = align_channels(recs)
    assert [g[0].timestamp for g in groups] == [100.0, 200.0]


# ---------------------------------------------------------------------------
# ERA5 matching
# ---------------------------------------------------------------------------


def affine_grid(a=0.0, b=0.0, c=0.0, const=2.0, t0=None, masked=()):
    t0 = parse_time("2019-09-01") if t0 is None else t0
    times = t0 + 3600.0 * np.arange(6)
    lats = np.arange(5.0, 15.5, 0.5)
    lons = np.arange(35.0, 45.5, 0.5)
    swh = np.zeros((times.size, lats.size, lons.size))
    for k, t in enumerate(times):
        swh[k] = const + a * lats[:, None] + b * lons[None, :] + c * t
    mask = np.zeros((lats.size, lons.size), dtype=bool)
    for i, j in masked:
        mask[i, j] = True
    return Era5Grid(times=times, lats=lats, lons=lons, swh=swh, mask=mask)


def test_interp_constant_grid():
    grid = affine_grid(const=2.5)
    t = grid.times[0] + 1800.0
    assert interpolate_swh(grid, 10.21, 40.37, t)[0] == pytest.approx(2.5, abs=1e-12)


def test_interp_exact_on_affine_fields():
    grid = affine_grid(a=0.02, b=0.01, c=1e-9, const=0.5)
    rng = np.random.default_rng(1)
    for _ in range(200):
        lat = rng.uniform(5.0, 15.0)
        lon = rng.uniform(35.0, 45.0)
        t = rng.uniform(grid.times[0], grid.times[-1])
        expected = 0.5 + 0.02 * lat + 0.01 * lon + 1e-9 * t
        assert abs(interpolate_swh(grid, lat, lon, t)[0] - expected) < 1e-10


def test_interp_node_collapse():
    grid = affine_grid(a=0.1, b=0.05, const=1.0)
    v, _ = interpolate_swh(grid, 7.5, 38.0, grid.times[2])
    assert v == pytest.approx(1.0 + 0.1 * 7.5 + 0.05 * 38.0, abs=1e-12)


def test_interp_within_hull_of_nodes():
    rng = np.random.default_rng(2)
    grid = affine_grid(const=0.0)
    grid.swh[:] = rng.uniform(0.5, 4.0, size=grid.swh.shape)
    for _ in range(100):
        lat = rng.uniform(5.0, 15.0)
        lon = rng.uniform(35.0, 45.0)
        t = rng.uniform(grid.times[0], grid.times[-1])
        ti = int(np.searchsorted(grid.times, t, side="right") - 1)
        ti = min(ti, grid.times.size - 2)
        yi = min(int((lat - grid.lats[0]) / 0.5), grid.lats.size - 2)
        xi = min(int((lon - grid.lons[0]) / 0.5), grid.lons.size - 2)
        nodes = grid.swh[ti:ti + 2, yi:yi + 2, xi:xi + 2]
        v, _ = interpolate_swh(grid, lat, lon, t)
        assert nodes.min() - 1e-12 <= v <= nodes.max() + 1e-12


def test_interp_outside_and_masked():
    grid = affine_grid(masked=[(10, 10)])
    assert interpolate_swh(grid, 80.0, 40.0, grid.times[0])[1] == "outside_grid"
    assert interpolate_swh(grid, grid.lats[10] + 0.2, grid.lons[10] + 0.2, grid.times[0])[1] == "masked_node"


def test_interp_wraps_antimeridian_on_global_grid():
    t0 = parse_time("2019-09-01")
    lats = np.arange(-2.0, 2.5, 0.5)
    lons = np.arange(-180.0, 180.0, 0.5)
    east = np.where(lons < 0.0, lons + 360.0, lons)  # 0 .. 359.5 going east from lon 0
    swh = np.broadcast_to(2.0 + 0.01 * east, (2, lats.size, lons.size)).copy()
    grid = Era5Grid(times=[t0, t0 + 3600.0], lats=lats, lons=lons, swh=swh,
                    mask=np.zeros((lats.size, lons.size), dtype=bool))
    # between the nodes 179.5 (2 + 1.795) and -180 = 180 (2 + 1.800)
    assert interpolate_swh(grid, 0.3, 179.75, t0)[0] == pytest.approx(3.7975, abs=1e-12)
    assert interpolate_swh(grid, 0.3, 179.9, t0)[0] == pytest.approx(3.799, abs=1e-12)
    assert interpolate_swh(grid, 0.3, -179.75, t0)[0] == pytest.approx(3.8025, abs=1e-12)
    # a grid running 0 .. 359.5 takes a [-180, 180) longitude
    shifted = Era5Grid(times=grid.times, lats=lats, lons=lons + 180.0, swh=swh, mask=grid.mask)
    assert interpolate_swh(shifted, 0.3, -0.25, t0)[0] == pytest.approx(3.7975, abs=1e-12)
    # the wrapped cell honours the mask of the first column
    grid.mask[4, 0] = True
    assert interpolate_swh(grid, 0.3, 179.75, t0)[1] == "masked_node"
    # a regional grid does not wrap
    regional = affine_grid()
    assert interpolate_swh(regional, 10.0, 45.25, regional.times[0])[1] == "outside_grid"


def test_match_era5_groups_tally():
    grid = affine_grid(const=2.0, masked=[(2, 2)])
    t = float(grid.times[1])
    good = make_records(t, [1, 2, 3, 4])
    outside = [screen_l1_record(record_doc(timestamp=t, channel=c, sp_lat=-70.0)) for c in (1, 2, 3, 4)]
    masked = [screen_l1_record(record_doc(timestamp=t, channel=c,
                                          sp_lat=grid.lats[2] + 0.1, sp_lon=grid.lons[2] + 0.1))
              for c in (1, 2, 3, 4)]
    samples, tally = match_era5_groups([good, outside, masked], grid)
    assert tally == {"outside_grid": 1, "masked_node": 1, "matched": 1}
    assert samples[0].source == "era5"
    assert samples[0].refs() == pytest.approx(np.full(4, 2.0))
    assert samples[0].channels[0].aps[-1] == pytest.approx(good[0].rcg)


def test_match_era5_groups_tallies_a_group_under_its_first_channel_without_a_value():
    grid = affine_grid(masked=[(2, 2)])
    group = make_records(float(grid.times[1]), [1, 2, 3, 4])
    for masked, outside, want in ((0, 1, "masked_node"), (1, 0, "outside_grid")):
        group[masked].sp_lat, group[masked].sp_lon = grid.lats[2] + 0.1, grid.lons[2] + 0.1
        group[outside].sp_lat, group[outside].sp_lon = -70.0, 40.0
        tally = {"outside_grid": 0, "masked_node": 0, "matched": 0} | {want: 1}
        assert match_era5_groups([group], grid) == ([], tally)


def _random_grid(kind):
    """A grid with random SWH whose eastern half has about one land cell in
    four, and whose land nodes hold NaN, inf or a number: "global" runs
    -180 .. 179.5, "shifted" 0 .. 359.5 and "regional" 35 .. 45."""
    rng = np.random.default_rng({"global": 11, "shifted": 12, "regional": 13}[kind])
    t0 = parse_time("2019-09-01")
    lats = np.arange(-3.0, 3.5, 0.5) if kind != "regional" else np.arange(5.0, 15.5, 0.5)
    lons = {"global": np.arange(-180.0, 180.0, 0.5), "shifted": np.arange(0.0, 360.0, 0.5),
            "regional": np.arange(35.0, 45.5, 0.5)}[kind]
    times = t0 + 3600.0 * np.arange(3)
    mask = np.zeros((lats.size, lons.size), dtype=bool)
    mask[:, lons.size // 2:] = rng.uniform(size=(lats.size, lons.size - lons.size // 2)) < 1 / 4
    swh = rng.uniform(0.2, 6.0, size=(times.size, lats.size, lons.size))
    swh[:, mask] = rng.choice([np.nan, np.inf, -np.inf, 3.0], size=(times.size, int(mask.sum())))
    return Era5Grid(times=times, lats=lats, lons=lons, swh=swh, mask=mask)


INTERP_GRIDS = {kind: _random_grid(kind) for kind in ("global", "shifted", "regional")}


def clear_points(grid):
    """Points inside the grid's western half, which has no land cell."""
    return st.tuples(st.floats(grid.lats[0], grid.lats[-1]),
                     st.floats(grid.lons[0], grid.lons[grid.lons.size // 2 - 1]),
                     st.floats(grid.times[0], grid.times[-1]))


def grid_points(grid):
    """Points anywhere near or beyond the grid, on its nodes, in the gap past
    its last longitude, wrapped by a whole turn or more, and at or just past
    its first and last hours."""
    lats, lons, times = grid.lats, grid.lons, grid.times
    node_lon = st.sampled_from(lons.tolist())
    return st.tuples(
        st.one_of(st.floats(lats[0] - 2.0, lats[-1] + 2.0), st.sampled_from(lats.tolist()),
                  st.sampled_from([np.nextafter(lats[0], -np.inf), np.nextafter(lats[-1], np.inf)])),
        st.one_of(st.floats(-540.0, 540.0), st.floats(lons[0] - 2.0, lons[-1] + 2.0), node_lon,
                  st.floats(lons[-1], lons[-1] + 0.5, exclude_max=True),
                  st.builds(lambda v, turns: v + 360.0 * turns, node_lon, st.sampled_from([-1, 1])),
                  st.sampled_from([-540.0, 540.0, -180.0, 180.0, 179.5, np.nextafter(180.0, 0.0)])),
        st.one_of(st.floats(times[0] - 3600.0, times[-1] + 3600.0), st.sampled_from(times.tolist()),
                  st.sampled_from([np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf)])))


# Each grid's points in its land-free half and anywhere, built once.
GRID_POINTS = {kind: (clear_points(grid), grid_points(grid)) for kind, grid in INTERP_GRIDS.items()}


def interp_oracle(grid, lat, lon, t):
    """The one-record interpolation as (swh, reason), NaN without a value."""
    try:
        return oracles.interpolate_swh(grid, lat, lon, t), ""
    except oracles._InterpError as exc:
        return math.nan, exc.reason


@st.composite
def grid_and_points(draw):
    kind = draw(st.sampled_from(sorted(INTERP_GRIDS)))
    return kind, draw(st.lists(st.one_of(*GRID_POINTS[kind]), min_size=1, max_size=30))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(grid_and_points())
def test_interpolation_over_arrays_equals_the_one_record_oracle_bit_for_bit(case):
    kind, points = case
    grid = INTERP_GRIDS[kind]
    lat, lon, t = (np.array(column) for column in zip(*points))
    swh, reason = interpolate_swh(grid, lat, lon, t)
    want = [interp_oracle(grid, *point) for point in points]
    assert swh.dtype == np.float64 and swh.shape == reason.shape == lat.shape
    assert reason.tolist() == [r for _, r in want]
    assert swh.tobytes() == np.array([v for v, _ in want], dtype=np.float64).tobytes()
    one, why = interpolate_swh(grid, *points[0])
    assert one.shape == why.shape == () and (one.tobytes(), str(why)) == (swh[0].tobytes(), reason[0])


def _sample_bits(sample):
    """Every field of a sample as (Python type, dtype, bytes)."""
    def bits(v):
        return type(v), getattr(v, "dtype", None), np.asarray(v).tobytes()
    return [bits(sample.timestamp), sample.source] + [
        [bits(getattr(ch, f)) for f in ("channel", "sp_lat", "sp_lon", "ddms", "aps", "swh_ref", "wind_speed")]
        for ch in sample.channels]


@st.composite
def era5_groups(draw):
    """Groups of four records at one time each, on one of the grids. In
    about half the groups every channel lies in the grid's land-free half;
    in the others each channel may have a value or lack one for either
    reason."""
    kind = draw(st.sampled_from(sorted(INTERP_GRIDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = []
    for i in range(draw(st.integers(0, 6))):
        points = GRID_POINTS[kind][draw(st.integers(0, 1))]
        t = draw(points)[2]
        group = []
        for channel in (1, 2, 3, 4):
            lat, lon, _ = draw(points)
            aps = dict(zip(pipeline.BASE_AP_FIELDS, rng.normal(size=6).tolist()))
            group.append(pipeline.L1Record(t, channel, lat, normalize_lon(lon), rng.normal(size=(3, W, H)),
                                           aps, float(rng.uniform(3.0, 40.0))))
        groups.append(group)
    return kind, groups


@settings(max_examples=150, deadline=None)
@given(era5_groups())
def test_match_era5_groups_equals_the_one_record_oracle(case):
    kind, groups = case
    grid = INTERP_GRIDS[kind]
    samples, tally = match_era5_groups(iter(groups), grid)
    want_samples, want_tally = oracles.match_era5_groups(groups, grid)
    assert tally == want_tally
    assert [_sample_bits(s) for s in samples] == [_sample_bits(s) for s in want_samples]


# ---------------------------------------------------------------------------
# buoy matching
# ---------------------------------------------------------------------------


def test_buoy_thresholds():
    rec = quality_control([record_doc()])[0][0]
    t = rec.timestamp
    at_point = BuoyRecord("b1", rec.sp_lat, rec.sp_lon, t, 1.5)
    assert match_buoy_record(rec, [at_point]) is at_point
    far = BuoyRecord("b2", rec.sp_lat + 26.0 / 111.19, rec.sp_lon, t, 1.5)
    assert match_buoy_record(rec, [far]) is None
    late = BuoyRecord("b3", rec.sp_lat, rec.sp_lon, t + 31 * 60.0, 1.5)
    assert match_buoy_record(rec, [late]) is None
    edge_time = BuoyRecord("b4", rec.sp_lat, rec.sp_lon, t + 30 * 60.0, 1.5)
    assert match_buoy_record(rec, [edge_time]) is edge_time


def test_buoy_nearest_space_then_time():
    rec = quality_control([record_doc()])[0][0]
    t = rec.timestamp
    near = BuoyRecord("near", rec.sp_lat + 0.01, rec.sp_lon, t + 20 * 60.0, 1.0)
    farther = BuoyRecord("farther", rec.sp_lat + 0.05, rec.sp_lon, t, 2.0)
    assert match_buoy_record(rec, [farther, near]).station_id == "near"
    # equal distance, earlier in time wins
    tie_a = BuoyRecord("tie_a", rec.sp_lat + 0.02, rec.sp_lon, t + 10 * 60.0, 1.0)
    tie_b = BuoyRecord("tie_b", rec.sp_lat + 0.02, rec.sp_lon, t + 5 * 60.0, 2.0)
    assert match_buoy_record(rec, [tie_a, tie_b]).station_id == "tie_b"


def test_match_buoy_groups_requires_all_channels():
    group = make_records(parse_time("2019-09-01T06:00:00"), [1, 2, 3, 4])
    t = group[0].timestamp
    buoys = [BuoyRecord("b", group[0].sp_lat, group[0].sp_lon, t, 1.7)]
    samples, tally = match_buoy_groups([group], buoys)
    assert tally["matched"] == 1
    assert samples[0].source == "buoy"
    assert samples[0].refs() == pytest.approx(np.full(4, 1.7))
    # push one channel out of range -> group dropped
    group[2].sp_lat += 5.0
    samples, tally = match_buoy_groups([group], buoys)
    assert not samples and tally["unmatched_channel"] == 1


def buoy_near(rec, name, dlat=0.0, dt=0.0):
    return BuoyRecord(name, rec.sp_lat + dlat, rec.sp_lon, rec.timestamp + dt, 1.0)


@st.composite
def records_and_buoys(draw):
    """A few records around one point and buoys drawn from a small pool of
    positions and whole-minute times, so that equal distances, equal time
    differences and equal timestamps are common."""
    lat0 = draw(st.floats(-89.5, 89.5))
    lon0 = draw(st.one_of(st.sampled_from([179.99, -179.99, 0.0]), st.floats(-180.0, 180.0)))
    offsets = st.floats(-0.4, 0.4)
    t0 = parse_time("2019-09-01")
    recs = [make_records(t0 + 60.0 * draw(st.integers(-5, 5)), [1])[0]
            for _ in range(draw(st.integers(1, 4)))]
    for rec in recs:
        rec.sp_lat = lat0 + draw(st.floats(-0.1, 0.1))
        rec.sp_lon = normalize_lon(lon0 + draw(st.floats(-0.1, 0.1)))
    places = draw(st.lists(st.tuples(offsets, offsets), min_size=1, max_size=5))
    minutes = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.sampled_from(places), st.sampled_from(minutes)), max_size=30))
    buoys = [BuoyRecord(f"b{i}", min(90.0, max(-90.0, lat0 + dlat)), normalize_lon(lon0 + dlon),
                        t0 + 60.0 * m, 1.0) for i, ((dlat, dlon), m) in enumerate(picks)]
    return recs, buoys


@settings(max_examples=300, deadline=None)
@given(records_and_buoys())
def test_buoy_matcher_returns_the_brute_force_match(case):
    recs, buoys = case
    expected = [match_buoy_record_oracle(rec, buoys) for rec in recs]
    assert all(match_buoy_record(rec, buoys) is e for rec, e in zip(recs, expected))
    assert all(got is e for got, e in zip(pipeline._match_buoys(recs, buoys), expected))


def test_buoy_matcher_in_small_chunks_returns_the_brute_force_match(monkeypatch):
    # Many records over a day of buoys, matched a few (record, row) pairs
    # per prefilter chunk.
    rng = np.random.default_rng(5)
    t0 = parse_time("2019-09-01")
    recs = []
    for _ in range(60):
        rec = make_records(t0 + float(rng.integers(0, 86400)), [1])[0]
        rec.sp_lat, rec.sp_lon = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        recs.append(rec)
    buoys = [BuoyRecord(f"b{i}", float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                        t0 + 60.0 * float(rng.integers(0, 1440)), 1.0) for i in range(3000)]
    expected = [match_buoy_record_oracle(rec, buoys) for rec in recs]
    assert sum(e is not None for e in expected) > 10
    for cap in (1, 7, 1000):
        monkeypatch.setattr(pipeline, "_PREFILTER_MAX_PAIRS", cap)
        assert all(got is e for got, e in zip(pipeline._match_buoys(recs, buoys), expected))


def test_buoy_tie_on_distance_and_time_goes_to_the_earlier_csv_row():
    rec = quality_control([record_doc()])[0][0]
    after = buoy_near(rec, "after", dlat=0.1, dt=600.0)
    before = buoy_near(rec, "before", dlat=0.1, dt=-600.0)
    assert match_buoy_record(rec, [after, before]) is after
    assert match_buoy_record(rec, [before, after]) is before
    twin_a, twin_b = buoy_near(rec, "a", dlat=0.1), buoy_near(rec, "b", dlat=0.1)
    assert match_buoy_record(rec, [twin_a, twin_b]) is twin_a
    assert match_buoy_record(rec, [twin_b, twin_a]) is twin_b


def test_buoy_rows_at_equal_times_go_to_the_nearest_then_the_earlier_row():
    rec = quality_control([record_doc()])[0][0]
    rows = [buoy_near(rec, "far", dlat=0.15, dt=60.0), buoy_near(rec, "near", dlat=0.05, dt=60.0),
            buoy_near(rec, "near_too", dlat=0.05, dt=60.0), buoy_near(rec, "nearest_late", dlat=0.02, dt=1200.0)]
    assert match_buoy_record(rec, rows) is rows[3]
    assert match_buoy_record(rec, rows[:3]) is rows[1]


def _edge_buoys(rec, n):
    """Buoys in n directions at the last float step inside 25 km of rec,
    found by bisection on the scalar haversine_km, each with its first
    step outside."""
    pairs = []
    for theta in np.linspace(0.0, 2 * math.pi, n, endpoint=False):
        def place(s):
            return rec.sp_lat + s * math.cos(theta), rec.sp_lon + s * math.sin(theta)
        inside, outside = 0.0, 0.5
        while True:
            mid = (inside + outside) / 2
            if mid in (inside, outside):
                break
            if haversine_km(rec.sp_lat, rec.sp_lon, *place(mid)) <= 25.0:
                inside = mid
            else:
                outside = mid
        pairs.append(tuple(BuoyRecord(f"{name}{theta:.3f}", *place(s), rec.timestamp, 1.0)
                           for name, s in (("in", inside), ("out", outside))))
    return pairs


def test_buoy_edges_are_inclusive():
    rec = quality_control([record_doc()])[0][0]
    for inside, outside in _edge_buoys(rec, 400):
        assert match_buoy_record(rec, [inside]) is inside
        assert match_buoy_record(rec, [outside]) is None
    for dt in (-BUOY_MAX_S, BUOY_MAX_S):
        on_edge = buoy_near(rec, "t", dt=dt)
        assert match_buoy_record(rec, [on_edge]) is on_edge
        assert match_buoy_record(rec, [buoy_near(rec, "t", dt=math.copysign(BUOY_MAX_S + 1e-3, dt))]) is None


def test_buoy_prefilter_allows_for_trigonometry_a_few_ulps_high(monkeypatch):
    # numpy's vectorized trigonometry is not libm's: on some platforms its
    # arcsin rounds up where math.asin rounds down. The prefilter must still
    # keep every buoy the exact scalar test accepts.
    exact = pipeline._haversine_km_np
    monkeypatch.setattr(pipeline, "_haversine_km_np", lambda *a: exact(*a) * (1 + 8 * np.finfo(float).eps))
    rec = quality_control([record_doc()])[0][0]
    edges = _edge_buoys(rec, 400)
    assert any(haversine_km(rec.sp_lat, rec.sp_lon, inside.lat, inside.lon) == 25.0 for inside, _ in edges)
    for inside, outside in edges:
        assert match_buoy_record(rec, [inside]) is inside
        assert match_buoy_record(rec, [outside]) is None


def test_buoy_matches_across_the_antimeridian():
    rec = quality_control([record_doc(sp_lon=179.99)])[0][0]
    across = BuoyRecord("across", rec.sp_lat, -179.99, rec.timestamp, 1.0)
    assert haversine_km(rec.sp_lat, rec.sp_lon, across.lat, across.lon) < 3.0
    assert match_buoy_record(rec, [across]) is across
    back = quality_control([record_doc(sp_lon=-179.99)])[0][0]
    assert match_buoy_record(back, [BuoyRecord("x", back.sp_lat, 179.99, back.timestamp, 1.0)]) is not None


def test_buoy_match_without_candidates():
    rec = quality_control([record_doc()])[0][0]
    assert match_buoy_record(rec, []) is None
    assert match_buoy_groups([], []) == ([], {"unmatched_channel": 0, "matched": 0})
    outside_window = [buoy_near(rec, "early", dt=-BUOY_MAX_S - 60.0), buoy_near(rec, "late", dt=2 * 3600.0)]
    assert match_buoy_record(rec, outside_window) is None
    group = make_records(rec.timestamp, [1, 2, 3, 4])
    assert match_buoy_groups([group], outside_window)[1] == {"unmatched_channel": 1, "matched": 0}


@pytest.mark.parametrize("field, value", [("lat", math.nan), ("lat", 95.0), ("lat", -90.5),
                                          ("lon", math.inf), ("timestamp", math.nan),
                                          ("swh", math.nan), ("swh", -0.1)])
def test_buoy_record_rejects_non_finite_and_out_of_range_values(field, value):
    fields = {"station_id": "b", "lat": 10.0, "lon": 40.0, "timestamp": 0.0, "swh": 1.0, field: value}
    with pytest.raises(FormatError, match="buoy b"):
        BuoyRecord(**fields)
    BuoyRecord(**{**fields, field: 0.0})


@pytest.mark.parametrize("row", ["B1,nan,40.0,2019-09-01T00:00:00Z,1.2",
                                 "B1,95,40.0,2019-09-01T00:00:00Z,1.2",
                                 "B1,10.0,inf,2019-09-01T00:00:00Z,1.2",
                                 "B1,10.0,40.0,2019-09-01T00:00:00Z,nan"])
def test_read_buoys_names_the_line_of_a_bad_row(tmp_path, row):
    path = tmp_path / "buoys.csv"
    path.write_text("station_id,lat,lon,iso_time,swh_m\nB0,10.0,40.0,2019-09-01T00:00:00Z,1.0\n" + row + "\n")
    with pytest.raises(FormatError, match=r"buoys\.csv:3: "):
        read_buoys(str(path))


# ---------------------------------------------------------------------------
# capping and splitting
# ---------------------------------------------------------------------------


def sample_with_refs(refs, ts=0.0):
    channels = [ChannelObs(channel=c + 1, sp_lat=0.0, sp_lon=0.0,
                           ddms=np.zeros((3, W, H)), aps=np.zeros(9),
                           swh_ref=float(refs[c])) for c in range(4)]
    return FourChannelSample(timestamp=ts, source="synth", channels=channels)


def test_cap_any_channel_rule():
    over = sample_with_refs([7.9, 7.9, 7.9, 8.1])
    boundary = sample_with_refs([8.0, 8.0, 8.0, 8.0])
    low = sample_with_refs([2.0, 2.0, 2.0, 2.0])
    kept, tally = cap_and_filter([over, boundary, low])
    assert kept == [boundary, low]
    assert tally["swh_above_cap"] == 1


def test_split_half_open_boundaries():
    spec = SplitSpec()
    last_train = sample_with_refs([1] * 4, ts=parse_time("2020-07-31T23:59:59"))
    first_val = sample_with_refs([1] * 4, ts=parse_time("2020-08-01T00:00:00"))
    outside = sample_with_refs([1] * 4, ts=parse_time("2025-01-01"))
    splits, tally = split_dataset([last_train, first_val, outside], spec)
    assert splits["train"] == [last_train]
    assert splits["val"] == [first_val]
    assert tally["outside_split"] == 1


def test_split_subsample_and_overlap():
    spec = SplitSpec(train_subsample=5, seed=7)
    ts0 = parse_time("2019-09-01")
    samples = [sample_with_refs([1] * 4, ts=ts0 + i * 3600.0) for i in range(20)]
    splits, _ = split_dataset(samples, spec)
    assert len(splits["train"]) == 5
    again, _ = split_dataset(samples, spec)
    assert [s.timestamp for s in splits["train"]] == [s.timestamp for s in again["train"]]
    big = SplitSpec(train_subsample=100)
    splits, _ = split_dataset(samples, big)
    assert len(splits["train"]) == 20  # subsample >= population keeps everything
    with pytest.raises(ConfigError):
        split_dataset(samples, SplitSpec(val_start="2019-01-01"))



@pytest.mark.parametrize("key", ["train_subsample", "val_subsample", "test_subsample"])
@pytest.mark.parametrize("bad", [-1, 2.5, True, "3"])
def test_split_subsample_must_be_none_or_non_negative_int(key, bad):
    with pytest.raises(ConfigError, match=key):
        SplitSpec(**{key: bad})
    assert getattr(SplitSpec(**{key: 0}), key) == 0


# ---------------------------------------------------------------------------
# standardization and serialization
# ---------------------------------------------------------------------------


def test_standardization_stats_roundtrip():
    rng = np.random.default_rng(3)
    samples = []
    for i in range(10):
        s = sample_with_refs(rng.uniform(1, 3, size=4), ts=float(i))
        for ch in s.channels:
            ch.aps = rng.normal(size=9) * 5 + 2
        samples.append(s)
    stats = compute_ap_stats(samples, include_wind=False)
    all_aps = np.array([ch.aps for s in samples for ch in s.channels])
    assert stats["mean"] == pytest.approx(all_aps.mean(axis=0).tolist())
    standardized = standardize_ap(all_aps, stats)
    assert standardized.mean(axis=0) == pytest.approx(np.zeros(9), abs=1e-12)
    assert standardized.std(axis=0) == pytest.approx(np.ones(9), rel=1e-9)


def test_sample_file_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(4)
    samples = []
    for i in range(5):
        s = sample_with_refs(rng.uniform(1, 3, size=4), ts=1000.0 + i)
        for ch in s.channels:
            ch.ddms = rng.normal(size=(3, W, H))
            ch.aps = rng.normal(size=9)
        samples.append(s)
    path = tmp_path / "samples.jsonl"
    manifest = {"config_hash": "abc", "width": W, "height": H}
    write_samples(str(path), samples, manifest)
    loaded, mf = read_samples(str(path))
    assert mf["config_hash"] == "abc"
    path2 = tmp_path / "again.jsonl"
    write_samples(str(path2), loaded, manifest)
    assert path.read_bytes() == path2.read_bytes()
    for a, b in zip(samples, loaded):
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca.ddms, cb.ddms)
            assert np.array_equal(ca.aps, cb.aps)


def test_sample_file_wind_none_and_mixed_sources_roundtrip(tmp_path):
    samples = [sample_with_refs([1, 2, 3, 4], ts=float(i)) for i in range(3)]
    for s, source in zip(samples, ("era5", "buoy", "synth")):
        s.source = source
    winds = [None, 0.0, -0.0, 7.25]
    for ch, wind in zip(samples[1].channels, winds):
        ch.wind_speed = wind
    path = tmp_path / "samples.jsonl"
    write_samples(str(path), samples, {})
    loaded, _ = read_samples(str(path))
    assert [s.source for s in loaded] == ["era5", "buoy", "synth"]
    assert all(ch.wind_speed is None for ch in loaded[0].channels + loaded[2].channels)
    got = [ch.wind_speed for ch in loaded[1].channels]
    assert got[0] is None
    assert [math.copysign(1.0, w) for w in got[1:3]] == [1.0, -1.0]
    assert got[1:] == winds[1:]


def test_sample_file_rejects_mixed_ddm_shapes(tmp_path):
    samples = [sample_with_refs([1, 1, 1, 1], ts=1.0), sample_with_refs([2, 2, 2, 2], ts=2.0)]
    samples[1].channels[2].ddms = np.zeros((3, W + 1, H))
    with pytest.raises(ContractError, match="ddms"):
        write_samples(str(tmp_path / "samples.jsonl"), samples, {})
    assert not list(tmp_path.iterdir())


def test_sample_file_truncation_and_version(tmp_path):
    samples = [sample_with_refs([1, 1, 1, 1], ts=1.0), sample_with_refs([2, 2, 2, 2], ts=2.0)]
    path = tmp_path / "samples.jsonl"
    write_samples(str(path), samples, {})
    raw = path.read_bytes()
    # cut the payload short -> the last array record is incomplete
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        read_samples(str(path))
    # another format version in the data file's header
    version = f'"format_version": {pipeline.SCHEMA_VERSION}'.encode()
    path.write_bytes(raw.replace(version, b'"format_version": 99', 1))
    with pytest.raises(FormatError, match="version 99"):
        read_samples(str(path))


def test_sample_file_with_a_huge_record_shape_rejected_before_allocating(tmp_path):
    # np.load would try to allocate 2.91 TiB for this record before any check.
    samples = [sample_with_refs([k] * 4, ts=float(k)) for k in range(4)]
    path = tmp_path / "samples.jsonl"
    write_samples(str(path), samples, {})
    raw = path.read_bytes()
    path.write_bytes(record_shape(raw, (4,), (400000000000,)))
    with pytest.raises(FormatError, match=r"'timestamp' has shape \[400000000000\], header says \[4\]"):
        read_samples(str(path))
    path.write_bytes(record_shape(raw, (4,), (400000000000,)).replace(
        b'"timestamp": [4]', b'"timestamp": [400000000000]', 1))
    with pytest.raises(FormatError, match="'timestamp' is truncated: 3200000000000 bytes declared"):
        read_samples(str(path))


def _sample_fields(samples):
    return [(s.timestamp, s.source, [(ch.swh_ref, ch.aps.tolist(), ch.ddms.tobytes()) for ch in s.channels])
            for s in samples]


def test_interrupted_sample_write_keeps_previous_file(tmp_path, monkeypatch):
    """A write_samples that fails at any of its renames leaves the previous
    file's samples together with the previous file's manifest."""
    path = str(tmp_path / "samples.jsonl")
    old = [sample_with_refs([1, 1, 1, 1], ts=1.0), sample_with_refs([1, 2, 1, 2], ts=2.0)]
    new = [sample_with_refs([3, 3, 3, 3], ts=5.0), sample_with_refs([4, 4, 4, 4], ts=6.0)]
    write_samples(path, old, {"config_hash": "run-A", "standardization": {"mean": [0.0], "std": [1.0]}})
    want_samples, want_manifest = read_samples(path)
    real_replace = container.os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError(f"interrupted at rename {fail_at}")
        real_replace(src, dst)

    monkeypatch.setattr(container.os, "replace", replace)
    fail_at = 0
    write_samples(str(tmp_path / "count.jsonl"), new, {})
    n_renames = len(calls)
    assert n_renames
    for fail_at in range(1, n_renames + 1):
        calls.clear()
        with pytest.raises(OSError, match="interrupted"):
            write_samples(path, new, {"config_hash": "run-B", "standardization": {"mean": [5.0], "std": [2.0]}})
        got_samples, got_manifest = read_samples(path)
        assert got_manifest == want_manifest
        assert _sample_fields(got_samples) == _sample_fields(want_samples)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["count.jsonl", "samples.jsonl"]


def test_group_file_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    groups = [make_records(100.0 + i, [1, 2, 3, 4]) for i in range(3)]
    for group in groups:
        for r in group:
            r.ddms = rng.normal(size=(3, W, H))
            r.sp_lon = float(rng.uniform(-180.0, 180.0))
            r.rcg = float(rng.uniform(3.0, 30.0))
    path = tmp_path / "groups.jsonl"
    write_groups(str(path), groups, {"qc": {}})
    loaded = read_groups(str(path))
    assert len(loaded) == len(groups)
    for ga, gb in zip(groups, loaded):
        for ra, rb in zip(ga, gb):
            assert (ra.timestamp, ra.channel, ra.sp_lat, ra.sp_lon, ra.aps, ra.rcg) == \
                (rb.timestamp, rb.channel, rb.sp_lat, rb.sp_lon, rb.aps, rb.rcg)
            assert ra.ddms.tobytes() == rb.ddms.tobytes()
    path2 = tmp_path / "again.jsonl"
    write_groups(str(path2), loaded, {"qc": {}})
    assert path.read_bytes() == path2.read_bytes()
    header, _ = container.read(str(path), "groups", pipeline.SCHEMA_VERSION)
    assert header["manifest"] == {"tally": {"qc": {}}}
    assert not list(tmp_path.glob("*.manifest.json"))


def _rewrite_header(path, edit):
    """Rewrite the JSON header line of a container file through `edit`."""
    header, rest = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    edit(doc)
    path.write_bytes(json.dumps(doc).encode() + b"\n" + rest)


def _sample_and_group_files(tmp_path):
    samples, groups = tmp_path / "samples.jsonl", tmp_path / "groups.jsonl"
    write_samples(str(samples), [sample_with_refs([1, 1, 1, 1], ts=1.0)], {"config_hash": "h"})
    write_groups(str(groups), [make_records(100.0 + i, [1, 2, 3, 4]) for i in range(2)], {"qc": {}})
    return (samples, read_samples), (groups, read_groups)


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("kind, name", [("samples", n) for n in ("timestamp", "sp_lat", "sp_lon", "ddms", "aps",
                                                                 "swh_ref", "wind_speed")]
                         + [("groups", n) for n in ("timestamp", "sp_lat", "sp_lon", "ddms", "rcg", "aps")])
def test_sample_and_group_files_with_a_non_finite_value_rejected(tmp_path, kind, name, value):
    files = dict(zip(("samples", "groups"), _sample_and_group_files(tmp_path)))
    path, read = files[kind]
    set_last_value(path, kind, pipeline.SCHEMA_VERSION, name, value)
    with pytest.raises(FormatError, match=rf"{kind}\.jsonl: {kind} array '{name}' holds a non-finite value"):
        read(str(path))


@pytest.mark.parametrize("value", [math.nan, -math.inf])
@pytest.mark.parametrize("kind, name", [("samples", n) for n in ("timestamp", "sp_lat", "sp_lon", "ddms", "aps",
                                                                 "swh_ref", "wind_speed")]
                         + [("groups", n) for n in ("timestamp", "sp_lat", "sp_lon", "ddms", "rcg", "aps")])
def test_sample_and_group_writers_refuse_a_non_finite_value(tmp_path, kind, name, value):
    samples, groups = [sample_with_refs([1, 1, 1, 1], ts=1.0)], [make_records(100.0, [1, 2, 3, 4])]
    if kind == "samples":
        item, write, items = (samples[0] if name == "timestamp" else samples[0].channels[-1]), write_samples, samples
    else:
        item, write, items = groups[0][-1], write_groups, groups
    field = getattr(item, name)
    if isinstance(field, np.ndarray):
        field.flat[-1] = value
    elif isinstance(field, dict):
        field[list(field)[-1]] = value
    else:
        setattr(item, name, value)
    with pytest.raises(ContractError, match=f"{kind} array '{name}' holds a non-finite value; not written"):
        write(str(tmp_path / "out.jsonl"), items, {})
    assert not list(tmp_path.iterdir())


def test_version_2_sample_and_group_files_rejected(tmp_path):
    for path, read in _sample_and_group_files(tmp_path):
        _rewrite_header(path, lambda doc: doc.update(format_version=2))
        with pytest.raises(FormatError, match="version 2 unsupported"):
            read(str(path))


def test_header_without_manifest_rejected(tmp_path):
    for path, read in _sample_and_group_files(tmp_path):
        _rewrite_header(path, lambda doc: doc.pop("manifest"))
        with pytest.raises(FormatError, match="no manifest"):
            read(str(path))
    config = tmp_path / "config.json"
    config.write_text("{}")
    assert cli.main(["train", "--config", str(config), "--data", str(tmp_path / "samples.jsonl"),
                     "--out-dir", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()
