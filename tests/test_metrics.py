"""Tests for the evaluation metrics, reporting, and plot-data exports."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import channel_sd_percentile
from swhnet.errors import ConfigError, ContractError
from swhnet.metrics import (bias, cc, export_bias_grid, export_scatter,
                            least_squares_fit, mae, mape, report, rmse)


def naive_metrics(pred, ref):
    """Loop re-implementations of the five formulas."""
    n = len(pred)
    sq = sum((pred[i] - ref[i]) ** 2 for i in range(n))
    ab = sum(abs(pred[i] - ref[i]) for i in range(n))
    bi = sum(pred[i] - ref[i] for i in range(n))
    mp = 100.0 / n * sum(abs((pred[i] - ref[i]) / ref[i]) for i in range(n))
    pm = sum(pred) / n
    rm = sum(ref) / n
    num = sum((pred[i] - pm) * (ref[i] - rm) for i in range(n))
    den = (sum((pred[i] - pm) ** 2 for i in range(n)) * sum((ref[i] - rm) ** 2 for i in range(n))) ** 0.5
    return (sq / n) ** 0.5, ab / n, bi / n, mp, (num / den if den else None)


# ---------------------------------------------------------------------------
# scalar metrics
# ---------------------------------------------------------------------------


def test_perfect_predictions():
    ref = np.array([1.0, 2.0, 3.0])
    assert rmse(ref, ref) == 0.0
    assert mae(ref, ref) == 0.0
    assert bias(ref, ref) == 0.0
    assert mape(ref, ref) == 0.0
    assert cc(ref, ref) == pytest.approx(1.0)
    const = np.full(3, 2.0)
    assert cc(const, const) is None  # undefined, not NaN


def test_hand_evaluated_two_point_case():
    pred = np.array([2.0, 2.0])
    ref = np.array([1.0, 3.0])
    assert rmse(pred, ref) == pytest.approx(1.0)
    assert mae(pred, ref) == pytest.approx(1.0)
    assert bias(pred, ref) == pytest.approx(0.0)
    assert mape(pred, ref) == pytest.approx((100.0 + 100.0 / 3) / 2)


def test_cc_affine_invariance():
    rng = np.random.default_rng(0)
    pred = rng.normal(size=50)
    ref = rng.normal(size=50)
    base = cc(pred, ref)
    assert cc(3.0 * pred + 5.0, ref) == pytest.approx(base, abs=1e-12)


def test_mape_zero_reference_rejected():
    with pytest.raises(ContractError):
        mape(np.array([1.0]), np.array([0.0]))


def test_metrics_match_naive_loops():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        pred = rng.uniform(0.1, 8.0, size=n)
        ref = rng.uniform(0.1, 8.0, size=n)
        exp = naive_metrics(pred.tolist(), ref.tolist())
        got = (rmse(pred, ref), mae(pred, ref), bias(pred, ref), mape(pred, ref), cc(pred, ref))
        for g, e in zip(got, exp):
            assert g == pytest.approx(e, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1, 8.0), st.floats(0.1, 8.0)), min_size=2, max_size=40))
def test_error_chain_rmse_mae_bias(pairs):
    pred = np.array([p for p, _ in pairs])
    ref = np.array([r for _, r in pairs])
    r, m, b = rmse(pred, ref), mae(pred, ref), bias(pred, ref)
    assert r >= m - 1e-12
    assert m >= abs(b) - 1e-12
    c = cc(pred, ref)
    if c is not None:
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def four_channel_pairs(seed=0, n=200):
    rng = np.random.default_rng(seed)
    pairs = {}
    for chn in (1, 2, 3, 4):
        ref = rng.uniform(0.05, 8.0, size=n)
        pred = ref + rng.normal(0, 0.3, size=n)
        pairs[chn] = (pred, ref)
    return pairs


def test_report_single_channel_composition():
    pairs = four_channel_pairs()
    rep = report(pairs)
    for chn in (1, 2, 3, 4):
        pred, ref = pairs[chn]
        assert rep.per_channel[chn]["rmse"] == pytest.approx(rmse(pred, ref))
        assert rep.per_channel[chn]["cc"] == pytest.approx(cc(pred, ref))


def test_report_average_is_channel_mean():
    pairs = four_channel_pairs(seed=2)
    rep = report(pairs)
    for name in ("rmse", "mae", "bias", "cc"):
        expected = np.mean([rep.per_channel[c][name] for c in (1, 2, 3, 4)])
        assert rep.average[name] == pytest.approx(expected)


def test_report_identical_channels_average_equals_channel():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.5, 7.5, size=100)
    pred = ref + rng.normal(0, 0.2, size=100)
    rep = report({c: (pred, ref) for c in (1, 2, 3, 4)})
    assert rep.average["rmse"] == pytest.approx(rep.per_channel[1]["rmse"])


def test_report_binning_left_closed():
    ref = np.array([1.0, 1.5, 2.0])
    pred = ref.copy()
    rep = report({c: (pred, ref) for c in (1, 2, 3, 4)}, bin_edges=[0, 1, 2, 3])
    lows = [(b["lo"], b["hi"], b["average"]["n"]) for b in rep.bins]
    # 1.0 falls in [1,2), 2.0 in [2,3)
    assert lows == [(1, 2, 8), (2, 3, 4)]


def test_report_final_bin_closed_at_cap():
    ref = np.array([8.0])
    rep = report({c: (ref, ref) for c in (1, 2, 3, 4)}, bin_edges=[7.0, 8.0])
    assert rep.bins[0]["average"]["n"] == 4


@pytest.mark.parametrize("edges", [[0, 1, 1], [0, 2, 1], [1]])
def test_report_rejects_edges_not_strictly_increasing(edges):
    # With a repeated edge at 1, both bins ending there would be closed and
    # count every reference equal to 1 twice.
    ref = np.array([0.5, 1.0, 1.0, 1.5])
    with pytest.raises(ConfigError, match="strictly increasing"):
        report({c: (ref, ref) for c in (1, 2, 3, 4)}, bin_edges=edges)


def test_report_bins_recombine_pooled_sq_error():
    pairs = four_channel_pairs(seed=4, n=500)
    edges = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    rep = report(pairs, bin_edges=edges)
    for chn in (1, 2, 3, 4):
        pooled = 0.0
        n_pooled = 0
        for b in rep.bins:
            cell = b["per_channel"].get(chn)
            if cell is not None:
                pooled += cell["n"] * cell["rmse"] ** 2
                n_pooled += cell["n"]
        pred, ref = pairs[chn]
        inside = (ref >= 0) & (ref <= 8)
        total = np.sum((pred[inside] - ref[inside]) ** 2)
        assert n_pooled == int(inside.sum())
        assert pooled == pytest.approx(total, rel=1e-9)


def test_report_mape_exclusions_counted_and_zero_on_clean_data():
    pairs = four_channel_pairs(seed=5)
    rep = report(pairs)
    assert rep.average["mape_excluded"] == 0
    ref = np.array([0.005, 1.0, 2.0])
    pred = np.array([0.01, 1.0, 2.0])
    rep = report({c: (pred, ref) for c in (1, 2, 3, 4)})
    assert rep.per_channel[1]["mape_excluded"] == 1
    assert rep.per_channel[1]["mape_percent"] == pytest.approx(0.0)


def test_report_csv_and_json_round(tmp_path):
    rep = report(four_channel_pairs(seed=6), bin_edges=[0, 2, 4, 6, 8], config_hash="deadbeef")
    jpath = tmp_path / "report.json"
    rep.write_json(str(jpath))
    doc = json.loads(jpath.read_text())
    assert doc["config_hash"] == "deadbeef"
    assert set(doc["per_channel"]) == {"1", "2", "3", "4"}
    cpath = tmp_path / "report.csv"
    rep.write_csv(str(cpath))
    rows = list(csv.DictReader(cpath.read_text().splitlines()))
    assert any(r["scope"] == "average" for r in rows)
    bpath = tmp_path / "bins.csv"
    rep.write_binned_csv(str(bpath))
    assert len(bpath.read_text().splitlines()) == 1 + len(rep.bins)


# ---------------------------------------------------------------------------
# channel SD percentile
# ---------------------------------------------------------------------------


def test_channel_sd_equal_refs_zero():
    refs = np.tile(np.array([[2.0, 2.0, 2.0, 2.0]]), (10, 1))
    assert channel_sd_percentile(refs, 0.95) == 0.0


def test_channel_sd_known_case():
    # refs (1,1,1,3): mean 1.5, population variance (3*0.25 + 2.25)/4 = 0.75
    refs = np.array([[1.0, 1.0, 1.0, 3.0]])
    assert channel_sd_percentile(refs, 0.95) == pytest.approx(np.sqrt(0.75))


def test_channel_sd_q1_is_max():
    rng = np.random.default_rng(7)
    refs = rng.uniform(0, 8, size=(50, 4))
    sds = refs.std(axis=1)
    assert channel_sd_percentile(refs, 1.0) == pytest.approx(sds.max())


def test_channel_sd_linear_interpolation():
    refs = np.array([[0, 0, 0, 0], [1, 1, 3, 3]], dtype=float)
    sds = refs.std(axis=1)  # [0, 1]
    assert channel_sd_percentile(refs, 0.5) == pytest.approx(0.5 * (sds[0] + sds[1]))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_scatter_perfect_fit(tmp_path):
    ref = np.linspace(0.5, 7.5, 40)
    fit = export_scatter(ref, ref, str(tmp_path / "sc"))
    assert fit["slope"] == pytest.approx(1.0)
    assert fit["intercept"] == pytest.approx(0.0, abs=1e-12)
    assert fit["hist_total"] == 40


def test_fit_matches_normal_equations_three_points():
    ref = np.array([1.0, 2.0, 4.0])
    pred = np.array([1.5, 2.0, 4.5])
    slope, intercept = least_squares_fit(pred, ref)
    # closed form on the 3-point set
    n, sx, sy = 3, ref.sum(), pred.sum()
    sxx, sxy = (ref ** 2).sum(), (ref * pred).sum()
    exp_slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    exp_int = (sy - exp_slope * sx) / n
    assert slope == pytest.approx(exp_slope, abs=1e-14)
    assert intercept == pytest.approx(exp_int, abs=1e-14)


def test_scatter_histogram_counts_sum(tmp_path):
    rng = np.random.default_rng(8)
    ref = rng.uniform(0.1, 7.9, size=300)
    pred = np.clip(ref + rng.normal(0, 0.3, size=300), 0.01, 7.99)
    fit = export_scatter(pred, ref, str(tmp_path / "sc"))
    assert fit["hist_total"] == 300
    rows = list(csv.DictReader((tmp_path / "sc_hist.csv").read_text().splitlines()))
    assert sum(int(r["count"]) for r in rows) == 300


def test_bias_grid_single_point(tmp_path):
    rows = export_bias_grid([10.2], [20.7], [2.5], [2.0], str(tmp_path / "grid.csv"))
    assert rows == [(10.5, 20.5, pytest.approx(0.5), 1)]


def test_bias_grid_means_match_naive(tmp_path):
    rng = np.random.default_rng(9)
    n = 200
    lats = rng.uniform(-5, 5, size=n)
    lons = rng.uniform(-5, 5, size=n)
    pred = rng.uniform(0, 8, size=n)
    ref = rng.uniform(0, 8, size=n)
    rows = export_bias_grid(lats, lons, pred, ref, str(tmp_path / "grid.csv"), cell_deg=2.0)
    naive = {}
    for la, lo, p, r in zip(lats, lons, pred, ref):
        key = (np.floor(la / 2.0), np.floor(lo / 2.0))
        naive.setdefault(key, []).append(p - r)
    assert len(rows) == len(naive)
    for lat_c, lon_c, b, count in rows:
        key = (np.floor(lat_c / 2.0), np.floor(lon_c / 2.0))
        assert count == len(naive[key])
        assert b == pytest.approx(np.mean(naive[key]))
    assert sum(r[3] for r in rows) == n  # empty cells absent, populated ones cover all


def test_export_rejects_bad_config(tmp_path):
    with pytest.raises(ConfigError):
        export_scatter([1.0, 2.0], [1.0, 2.0], str(tmp_path / "x"), bin_width=0.0)
    with pytest.raises(ConfigError):
        export_bias_grid([0.0], [0.0], [1.0], [1.0], str(tmp_path / "y.csv"), cell_deg=-1.0)
