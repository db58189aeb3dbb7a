"""End-to-end CLI tests on synthetic data: every command path, config
validation, and the documented exit codes."""

import csv
import json

import numpy as np
import pytest

from damage import record_shape, set_header_field, set_last_value
from swhnet import container
from swhnet.checkpoint import FORMAT_VERSION, save_checkpoint
from swhnet.cli import main
from swhnet.config import load_config, model_config
from swhnet.model import WaveHeightModel
from swhnet.pipeline import SCHEMA_VERSION, parse_time, read_samples, Era5Grid

TOY = {
    "width": 4,
    "height": 4,
    "patch_size": 2,
    "embed_dim": 2,
    "n_layers": 1,
    "d_ff": 8,
    "dropout_p": 0.0,
    "head_hidden": [8, 8, 8, 8, 8, 8, 8, 8, 8],
    "batch_size": 16,
    "max_epochs": 2,
    "patience": 2,
    "lr": 0.003,
    "synth_n_samples": 40,
    "synth_noise_sd": 0.05,
    "synth_channel_corr": 0.9,
}


@pytest.fixture()
def toy_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TOY))
    return str(path)


def l1_doc(ts, channel, lat, lon):
    return {
        "timestamp": ts, "channel": channel, "sp_lat": lat, "sp_lon": lon,
        "ddms": {name: np.full((4, 4), v).tolist()
                 for name, v in (("brcs", 1.0), ("eff_scatter", 2.0), ("power_analog", 3.0))},
        "aps": {"ddm_nbrcs": 12.0, "ddm_les": 0.8, "ddm_snr": 4.0,
                "gps_eirp": 26.0, "sp_rx_gain": 10.0, "sp_inc_angle": 30.0},
        "geometry": {"range_tx_sp_m": 2.2e7, "range_sp_rx_m": 6.5e5},
        "flags": {"quality_flags": 0, "tracker_attitude_status": 1, "roll_deg": 1.0,
                  "yaw_deg": 0.0, "pitch_deg": 0.0, "distance_to_land_km": 500.0,
                  "solar_contamination": False},
    }


@pytest.fixture()
def l1_file(tmp_path):
    rng = np.random.default_rng(0)
    t0 = parse_time("2019-09-01")
    docs = []
    for i in range(12):
        ts = t0 + i * 7200.0
        for c in (1, 2, 3, 4):
            docs.append(l1_doc(ts, c, 10.0 + rng.uniform(-0.1, 0.1), 40.0 + rng.uniform(-0.1, 0.1)))
    # one QC reject and one incomplete timestamp
    bad = l1_doc(t0 + 999
                 , 1, 10.0, 40.0)
    bad["flags"]["solar_contamination"] = True
    docs.append(bad)
    docs.append(l1_doc(t0 + 777, 2, 10.0, 40.0))
    path = tmp_path / "l1.jsonl"
    with open(path, "w") as fh:
        for d in docs:
            fh.write(json.dumps(d) + "\n")
    return str(path)


def write_era5_grid(path, grid):
    """The ERA5 grid interchange JSON that `swhnet match-era5 --grid` reads."""
    doc = {"schema_version": 1, "times": grid.times.tolist(), "lats": grid.lats.tolist(),
           "lons": grid.lons.tolist(), "swh": grid.swh.tolist(), "mask": grid.mask.astype(int).tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


@pytest.fixture()
def grid_file(tmp_path):
    t0 = parse_time("2019-09-01")
    times = t0 + 3600.0 * np.arange(30)
    lats = np.arange(5.0, 15.5, 0.5)
    lons = np.arange(35.0, 45.5, 0.5)
    swh = np.full((times.size, lats.size, lons.size), 2.0)
    swh += 0.05 * lats[None, :, None]
    grid = Era5Grid(times=times, lats=lats, lons=lons, swh=swh,
                    mask=np.zeros((lats.size, lons.size), dtype=bool))
    path = tmp_path / "grid.json"
    write_era5_grid(str(path), grid)
    return str(path)


def test_synth_train_evaluate_report_roundtrip(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    samples, manifest = read_samples(str(data))
    assert len(samples) == 40
    assert manifest["config_hash"]

    run_dir = tmp_path / "run"
    assert main(["train", "--config", toy_config, "--data", str(data),
                 "--out-dir", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.json").exists()
    history = (run_dir / "history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,train_loss,val_rmse_ch1")
    assert len(history) >= 2

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", toy_config, "--data", str(data),
                 "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--out-dir", str(eval_dir)]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert set(metrics["per_channel"]) == {"1", "2", "3", "4"}

    preds = tmp_path / "preds.csv"
    assert main(["predict", "--config", toy_config, "--data", str(data),
                 "--checkpoint", str(run_dir / "checkpoint.json"), "--out", str(preds)]) == 0
    rows = list(csv.DictReader(preds.read_text().splitlines()))
    assert len(rows) == 40 * 4  # four predictions per sample

    rep_dir = tmp_path / "rep"
    assert main(["report", "--config", toy_config, "--predictions", str(preds),
                 "--out-dir", str(rep_dir), "--bins", "--scatter", "--bias-grid"]) == 0
    assert (rep_dir / "metrics_binned.csv").exists()
    assert (rep_dir / "scatter_fit.json").exists()
    assert (rep_dir / "bias_grid.csv").exists()


def test_binned_report_has_eight_rows_on_full_range(tmp_path, toy_config):
    # synthetic predictions spanning all eight default bins
    preds = tmp_path / "preds.csv"
    rng = np.random.default_rng(1)
    with open(preds, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "timestamp", "channel", "sp_lat", "sp_lon",
                         "y_ref", "y_hat", "config_hash"])
        i = 0
        for lo in range(8):
            for _ in range(5):
                for c in (1, 2, 3, 4):
                    ref = lo + rng.uniform(0.05, 0.95)
                    writer.writerow([i, 0.0, c, 10.0, 40.0, ref, ref + rng.normal(0, 0.2), "h"])
                i += 1
    out = tmp_path / "rep"
    assert main(["report", "--config", toy_config, "--predictions", str(preds),
                 "--out-dir", str(out), "--bins"]) == 0
    rows = (out / "metrics_binned.csv").read_text().splitlines()
    assert len(rows) == 1 + 8


def test_pipeline_commands_era5_and_buoy(tmp_path, toy_config, l1_file, grid_file):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file,
                 "--out", str(groups)]) == 0
    header, arrays = container.read(str(groups), "groups", SCHEMA_VERSION)
    assert header["manifest"]["tally"]["qc"]["solar_contamination"] == 1
    assert header["manifest"]["tally"]["align"]["incomplete_channels"] == 1
    assert arrays["timestamp"].shape[0] == 12

    samples = tmp_path / "era5_samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(samples)]) == 0
    loaded, manifest = read_samples(str(samples))
    assert len(loaded) == 12
    assert manifest["standardization"] is not None
    assert manifest["qc_tally"]["match"]["matched"] == 12

    # buoy path: one buoy near the records' box
    buoys = tmp_path / "buoys.csv"
    t0 = parse_time("2019-09-01")
    with open(buoys, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station_id", "lat", "lon", "iso_time", "swh_m"])
        for i in range(24):
            writer.writerow(["41001", 10.0, 40.0, f"2019-09-01T{i:02d}:00:00", 1.5])
    buoy_samples = tmp_path / "buoy_samples.jsonl"
    assert main(["match-buoy", "--config", toy_config, "--input", str(groups),
                 "--buoys", str(buoys), "--out", str(buoy_samples)]) == 0
    loaded, manifest = read_samples(str(buoy_samples))
    assert manifest["source"] == "buoy"
    assert all(s.source == "buoy" for s in loaded)
    assert len(loaded) > 0


def write_predictions(path, n=200, seed=1):
    """A predictions CSV of n samples, references and predictions inside 0-8 m."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "timestamp", "channel", "sp_lat", "sp_lon",
                         "y_ref", "y_hat", "config_hash"])
        for i in range(n):
            for c in (1, 2, 3, 4):
                ref = rng.uniform(0.5, 7.5)
                writer.writerow([i, 0.0, c, 10.0, 40.0, ref, ref + rng.uniform(-0.4, 0.4), "h"])


def test_evaluate_with_bin_edges_out_of_order_writes_nothing(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    assert main(["train", "--config", toy_config, "--data", str(data),
                 "--out-dir", str(tmp_path / "run")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TOY, "report_bin_edges": [3.0, 1.0]}))
    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--config", str(bad), "--data", str(data),
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.json"), "--out-dir", str(eval_dir)]) == 1
    assert not eval_dir.exists()


@pytest.mark.parametrize("key, value", [("scatter_bin_width", -1.0), ("scatter_bin_width", 20.0),
                                        ("bias_cell_deg", 0.0), ("report_bin_edges", [1.0])])
def test_report_with_a_reporting_key_out_of_range_writes_nothing(tmp_path, key, value, caplog):
    preds = tmp_path / "preds.csv"
    write_predictions(preds)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TOY, key: value}))
    out = tmp_path / "rep"
    assert main(["report", "--config", str(bad), "--predictions", str(preds),
                 "--out-dir", str(out), "--bins", "--scatter", "--bias-grid"]) == 1
    assert repr(key) in caplog.text
    assert not out.exists()


def test_report_at_the_widest_scatter_bin_fills_its_histogram(tmp_path):
    preds = tmp_path / "preds.csv"
    write_predictions(preds)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TOY, "scatter_bin_width": 8.0}))
    out = tmp_path / "rep"
    assert main(["report", "--config", str(config), "--predictions", str(preds),
                 "--out-dir", str(out), "--scatter"]) == 0
    assert json.loads((out / "scatter_fit.json").read_text())["hist_total"] == 800


def damage_prediction(path, line, column, value):
    """Set `column` of the row on (1-based) `line` of a predictions CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("column, value", [("channel", "5"), ("channel", "0"), ("channel", "one"),
                                           ("y_hat", "abc"), ("y_hat", "nan"), ("y_ref", ""), ("y_ref", "inf"),
                                           ("sp_lat", "north"), ("sp_lon", "1,5")])
def test_report_on_a_malformed_prediction_row_exits_two(tmp_path, toy_config, caplog, column, value):
    preds = tmp_path / "preds.csv"
    write_predictions(preds, n=3)
    damage_prediction(preds, 7, column, value)
    out = tmp_path / "rep"
    assert main(["report", "--config", toy_config, "--predictions", str(preds),
                 "--out-dir", str(out), "--bins", "--scatter", "--bias-grid"]) == 2
    assert f"{preds} line 7" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("channel", [1, 3])
def test_report_on_predictions_without_a_channel_exits_two(tmp_path, toy_config, caplog, channel):
    preds = tmp_path / "preds.csv"
    write_predictions(preds, n=3)
    with open(preds, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row[2] != str(channel)]
    with open(preds, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "rep"
    assert main(["report", "--config", toy_config, "--predictions", str(preds),
                 "--out-dir", str(out), "--bins", "--scatter", "--bias-grid"]) == 2
    assert f"{preds} has no prediction rows for channel {channel}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("extra", [{}, {"synth_include_wind": True, "use_wind": True}])
def test_evaluate_writes_the_metrics_that_report_writes_from_its_predictions(tmp_path, extra):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TOY, **extra}))
    data, run, ev, rep = (tmp_path / name for name in ("samples.jsonl", "run", "eval", "rep"))
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train", "--config", str(config), "--data", str(data), "--out-dir", str(run)]) == 0
    assert main(["evaluate", "--config", str(config), "--data", str(data),
                 "--checkpoint", str(run / "checkpoint.json"), "--out-dir", str(ev)]) == 0
    assert main(["report", "--config", str(config), "--predictions", str(ev / "predictions.csv"),
                 "--out-dir", str(rep)]) == 0
    for name in ("metrics.json", "metrics.csv"):
        assert (ev / name).read_bytes() == (rep / name).read_bytes(), name


def damage_grid(doc, field, kind):
    """Make one entry of a grid document's `field` a word or, for a ragged
    array, a list of the wrong length."""
    if field == "swh":
        doc["swh"][0][1] = "x" if kind == "non-numeric" else doc["swh"][0][1][:-1]
    else:
        doc[field][1] = "x" if kind == "non-numeric" else [doc[field][1], doc[field][1]]


@pytest.mark.parametrize("field, kind", [("swh", "non-numeric"), ("swh", "ragged"),
                                         ("lats", "non-numeric"), ("lons", "ragged")])
def test_match_era5_on_a_non_numeric_or_ragged_grid_exits_two(tmp_path, toy_config, l1_file, grid_file,
                                                              caplog, field, kind):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    with open(grid_file) as fh:
        doc = json.load(fh)
    damage_grid(doc, field, kind)
    with open(grid_file, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(out)]) == 2
    assert f"grid file {grid_file} holds a non-numeric or ragged array" in caplog.text
    assert not out.exists()


def test_match_era5_on_a_grid_with_uneven_spacing_exits_one(tmp_path, toy_config, l1_file, grid_file, caplog):
    """A numeric grid whose axis breaks the grid's contract is a config
    error (exit 1), not a format error."""
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    with open(grid_file) as fh:
        doc = json.load(fh)
    doc["lats"][-1] += 0.25
    with open(grid_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(tmp_path / "samples.jsonl")]) == 1
    assert "grid lats axis spacing must be exactly 0.5" in caplog.text


def test_match_era5_on_a_grid_that_is_not_json_names_the_json_error(tmp_path, toy_config, l1_file, grid_file,
                                                                    caplog):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    with open(grid_file, "r+") as fh:
        text = fh.read()
        fh.seek(0)
        fh.write(text[:len(text) // 2])
        fh.truncate()
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(tmp_path / "samples.jsonl")]) == 2
    assert f"grid file {grid_file} is not valid JSON" in caplog.text


def grid_with_swh(grid_file, value, masked):
    """Rewrite the grid file with `value` at SWH node (3, 4, 5), and that
    node's cell land-masked if `masked`."""
    with open(grid_file) as fh:
        doc = json.load(fh)
    doc["swh"][3][4][5] = value
    doc["mask"][4][5] = int(masked)
    with open(grid_file, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_match_era5_on_a_grid_with_a_non_finite_swh_at_a_sea_node_exits_two(tmp_path, toy_config, l1_file,
                                                                            grid_file, caplog, value):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    grid_with_swh(grid_file, value, masked=False)
    out = tmp_path / "samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(out)]) == 2
    assert "grid swh is not finite at the unmasked node with (time, lat, lon) index (3, 4, 5)" in caplog.text
    assert not out.exists()


def test_match_era5_on_a_grid_with_a_nan_swh_on_land_matches(tmp_path, toy_config, l1_file, grid_file):
    # A land-masked node is never interpolated, so its value may be anything.
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    grid_with_swh(grid_file, float("nan"), masked=True)
    out = tmp_path / "samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(out)]) == 0
    assert read_samples(str(out))[1]["qc_tally"]["match"]["matched"] == 12


def trained_on_a_sample_file_with_a_nan(tmp_path, toy_config):
    """A checkpoint trained on synthetic samples, and those samples' file
    with its last `swh_ref` then set to NaN."""
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(tmp_path / "run")]) == 0
    set_last_value(data, "samples", SCHEMA_VERSION, "swh_ref", np.nan)
    return data, tmp_path / "run" / "checkpoint.json"


def test_evaluate_on_a_sample_file_with_a_nan_exits_two(tmp_path, toy_config, caplog):
    data, ckpt = trained_on_a_sample_file_with_a_nan(tmp_path, toy_config)
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", toy_config, "--data", str(data), "--checkpoint", str(ckpt),
                 "--out-dir", str(out)]) == 2
    assert f"{data}: samples array 'swh_ref' holds a non-finite value" in caplog.text
    assert not out.exists()


def test_train_on_a_sample_file_with_a_nan_exits_two(tmp_path, toy_config, caplog):
    data, _ = trained_on_a_sample_file_with_a_nan(tmp_path, toy_config)
    out = tmp_path / "run2"
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(out)]) == 2
    assert f"{data}: samples array 'swh_ref' holds a non-finite value" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["match-era5", "match-buoy"])
def test_match_on_a_group_file_with_a_non_finite_position_exits_two(tmp_path, toy_config, l1_file, grid_file,
                                                                    caplog, command):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    set_last_value(groups, "groups", SCHEMA_VERSION, "sp_lat", np.nan)
    set_last_value(groups, "groups", SCHEMA_VERSION, "sp_lon", np.inf)
    buoys = tmp_path / "buoys.csv"
    buoys.write_text("station_id,lat,lon,iso_time,swh_m\n41001,10.0,40.0,2019-09-01T00:00:00,1.5\n")
    reference = ["--grid", grid_file] if command == "match-era5" else ["--buoys", str(buoys)]
    out = tmp_path / "samples.jsonl"
    assert main([command, "--config", toy_config, "--input", str(groups), *reference, "--out", str(out)]) == 2
    assert f"{groups}: groups array 'sp_lat' holds a non-finite value" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("name, value, got", [("channel", 1, "channels [1, 2, 3, 1]"),
                                               ("timestamp", 0.0, "channels [1, 2, 3, 4] at [")],
                         ids=["channel", "timestamp"])
@pytest.mark.parametrize("command", ["match-era5", "match-buoy"])
def test_match_on_a_group_row_that_preprocess_never_writes_exits_two(tmp_path, toy_config, l1_file, grid_file,
                                                                      caplog, command, name, value, got):
    # A row must hold channels 1..4 in order at one timestamp.
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    set_last_value(groups, "groups", SCHEMA_VERSION, name, value)
    buoys = tmp_path / "buoys.csv"
    buoys.write_text("station_id,lat,lon,iso_time,swh_m\n41001,10.0,40.0,2019-09-01T00:00:00,1.5\n")
    reference = ["--grid", grid_file] if command == "match-era5" else ["--buoys", str(buoys)]
    out = tmp_path / "samples.jsonl"
    assert main([command, "--config", toy_config, "--input", str(groups), *reference, "--out", str(out)]) == 2
    assert f"{groups}: group row 11 must hold channels [1, 2, 3, 4] at one timestamp, got {got}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("code", [-1, 1])
def test_train_on_a_sample_file_with_a_source_code_out_of_range_exits_two(tmp_path, toy_config, caplog, code):
    # A synth file lists one source, so code -1 must not read as its last.
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    set_last_value(data, "samples", SCHEMA_VERSION, "source", code)
    out = tmp_path / "run"
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(out)]) == 2
    assert f"{data}: source code {code} is outside [0, 1)" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("sources", ["xyz", [7], ["synth", "synth"]])
def test_train_on_a_sample_file_whose_sources_are_not_distinct_strings_exits_two(tmp_path, toy_config, caplog,
                                                                                  sources):
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    set_header_field(data, "samples", SCHEMA_VERSION, "sources", sources)
    out = tmp_path / "run"
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(out)]) == 2
    assert f"{data}: header 'sources' must be a list of distinct strings, got {sources!r}" in caplog.text
    assert not out.exists()


def test_unknown_config_key_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate_typo": 1.0}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")]) == 1


def test_strategy_mismatch_on_checkpoint_exits_one(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    run_dir = tmp_path / "run"
    assert main(["train", "--config", toy_config, "--strategy", "CD", "--data", str(data),
                 "--out-dir", str(run_dir)]) == 0
    code = main(["evaluate", "--config", toy_config, "--strategy", "CI",
                 "--data", str(data), "--checkpoint", str(run_dir / "checkpoint.json"),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 1


@pytest.mark.parametrize("changes, flags, key", [({"strategy": "CI"}, [], "strategy"),
                                                  ({}, ["--use-wind"], "use_wind")])
@pytest.mark.parametrize("command, out", [("evaluate", "--out-dir"), ("predict", "--out")])
def test_config_that_disagrees_with_the_checkpoint_exits_one(tmp_path, toy_config, caplog, changes, flags,
                                                             key, command, out):
    """The resolved config, file and flags, must name the checkpoint's
    strategy and wind input; the CD checkpoint here reads no wind."""
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(tmp_path / "run")]) == 0
    config = tmp_path / "other.json"
    config.write_text(json.dumps({**TOY, **changes}))
    target = tmp_path / "out"
    assert main([command, "--config", str(config), *flags, "--data", str(data),
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.json"), out, str(target)]) == 1
    assert f"checkpoint was trained with {key}" in caplog.text
    assert not target.exists()


def test_checkpoint_config_of_the_wrong_kind_exits_two(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    model = WaveHeightModel(model_config(load_config(toy_config)))
    config = {**vars(model.cfg), "n_layers": 1.0}
    ckpt = tmp_path / "checkpoint.json"
    container.write(str(ckpt), "checkpoint", FORMAT_VERSION,
                    {"config": config, "standardization": None, "meta": None},
                    model.bag.state_arrays())
    assert main(["predict", "--config", toy_config, "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "preds.csv")]) == 2


def test_checkpoint_with_a_non_finite_parameter_exits_two(tmp_path, toy_config, caplog):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    model = WaveHeightModel(model_config(load_config(toy_config)))
    state = model.bag.state_arrays()
    state["head.out.b"][0] = np.nan
    ckpt = tmp_path / "checkpoint.json"
    container.write(str(ckpt), "checkpoint", FORMAT_VERSION,
                    {"config": vars(model.cfg), "standardization": None, "meta": None}, state)
    assert main(["predict", "--config", toy_config, "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "preds.csv")]) == 2
    assert "head.out.b" in caplog.text
    assert not (tmp_path / "preds.csv").exists()


def test_checkpoint_with_a_huge_record_shape_exits_two(tmp_path, toy_config, caplog):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(str(ckpt), WaveHeightModel(model_config(load_config(toy_config))))
    ckpt.write_bytes(record_shape(ckpt.read_bytes(), (8,), (400000000000,)))
    assert main(["predict", "--config", toy_config, "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "preds.csv")]) == 2
    assert "400000000000" in caplog.text
    assert not (tmp_path / "preds.csv").exists()


def test_missing_input_exits_two(tmp_path, toy_config):
    assert main(["preprocess", "--config", toy_config, "--input", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "g.jsonl")]) == 2


def test_wind_flag_without_wind_column_exits_one(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    code = main(["train", "--config", toy_config, "--use-wind", "--data", str(data),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1


def test_negative_subsample_exits_one(tmp_path, toy_config):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TOY, "train_subsample": -1}))
    assert main(["train", "--config", str(bad), "--data", str(data),
                 "--out-dir", str(tmp_path / "run")]) == 1


@pytest.mark.parametrize("key, value", [("synth_n_samples", "5"), ("n_layers", True),
                                        ("report_bin_edges", 5), ("adam_beta1", 1.0),
                                        ("adam_beta2", 1.5), ("adam_eps", 0.0),
                                        ("synth_time_start", "2023-01-01"),
                                        ("split_val_start", "soon")])
def test_value_of_the_wrong_kind_exits_one(tmp_path, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TOY, key: value}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")]) == 1
    assert not (tmp_path / "x.jsonl").exists()
