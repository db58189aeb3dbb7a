"""End-to-end CLI tests on synthetic data: every command path, config
validation, and the documented exit codes."""

import csv
import json

import numpy as np
import pytest

from damage import record_shape, set_header_field, set_last_value
from swhnet import container
from swhnet.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from swhnet.cli import build_parser, main
from swhnet.config import config_hash, load_config, model_config, split_spec, synth_spec
from swhnet.model import WaveHeightModel
from swhnet.pipeline import (SCHEMA_VERSION, compute_ap_stats, parse_time, read_samples,
                             split_dataset, write_samples, Era5Grid)
from swhnet.synth import generate

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
                 "--out-dir", str(rep_dir)]) == 0
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
                 "--out-dir", str(out)]) == 0
    rows = (out / "metrics_binned.csv").read_text().splitlines()
    assert len(rows) == 1 + 8


def test_pipeline_commands_era5_and_buoy(tmp_path, toy_config, l1_file, grid_file):
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file,
                 "--out", str(groups)]) == 0
    header, arrays = container.read(str(groups), "groups", SCHEMA_VERSION)
    assert header["manifest"]["config_hash"] == config_hash(load_config(toy_config))
    assert header["manifest"]["qc_tally"]["qc"]["solar_contamination"] == 1
    assert header["manifest"]["qc_tally"]["align"]["incomplete_channels"] == 1
    assert arrays["timestamp"].shape[0] == 12

    samples = tmp_path / "era5_samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(samples)]) == 0
    loaded, manifest = read_samples(str(samples))
    assert len(loaded) == 12
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
    assert all(s.source == "buoy" for s in loaded)
    assert len(loaded) > 0


def matched_sample_files(tmp_path, config, l1_file, grid_file):
    """preprocess, match-era5 and match-buoy under `config`; the ERA5 and
    buoy sample files. The buoy sits in the records' box and reports
    hourly, so all 12 groups match it."""
    groups, era5, buoy = (tmp_path / name for name in ("groups.jsonl", "era5.jsonl", "buoy.jsonl"))
    buoys = tmp_path / "buoys.csv"
    buoys.write_text("station_id,lat,lon,iso_time,swh_m\n"
                     + "".join(f"41001,10.0,40.0,2019-09-01T{i:02d}:00:00,1.5\n" for i in range(24)))
    assert main(["preprocess", "--config", config, "--input", l1_file, "--out", str(groups)]) == 0
    assert main(["match-era5", "--config", config, "--input", str(groups), "--grid", grid_file,
                 "--out", str(era5)]) == 0
    assert main(["match-buoy", "--config", config, "--input", str(groups), "--buoys", str(buoys),
                 "--out", str(buoy)]) == 0
    return era5, buoy


def test_sample_manifests_hold_only_provenance(tmp_path, toy_config, l1_file, grid_file):
    """synth records the config hash; the matchers add their match and cap
    tallies. Geometry, sources and AP columns are in the arrays and header."""
    h = config_hash(load_config(toy_config))
    synth = tmp_path / "synth.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(synth)]) == 0
    era5, buoy = matched_sample_files(tmp_path, toy_config, l1_file, grid_file)
    cap = {"swh_above_cap": 0, "kept": 12}

    def manifest(path):
        return container.read(str(path), "samples", SCHEMA_VERSION)[0]["manifest"]

    assert manifest(synth) == {"config_hash": h}
    assert manifest(era5) == {"config_hash": h, "qc_tally": {
        "match": {"outside_grid": 0, "masked_node": 0, "matched": 12}, "cap": cap}}
    assert manifest(buoy) == {"config_hash": h, "qc_tally": {
        "match": {"unmatched_channel": 0, "matched": 12}, "cap": cap}}


def test_train_standardizes_with_its_own_training_split(tmp_path, toy_config, l1_file, grid_file):
    """match-era5 ran under the default split, which holds all 12 samples in
    training. train under a split that trains on the first 6 standardizes
    the AP inputs with those 6 alone, not with the validation samples."""
    era5, _ = matched_sample_files(tmp_path, toy_config, l1_file, grid_file)
    config = tmp_path / "split.json"
    config.write_text(json.dumps({**TOY, "split_val_start": "2019-09-01T12:00:00"}))
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(era5), "--out-dir", str(run_dir)]) == 0
    splits, tally = split_dataset(read_samples(str(era5))[0], split_spec(load_config(str(config))))
    assert (tally["train"], tally["val"]) == (6, 6)
    _, stats, _ = load_checkpoint(str(run_dir / "checkpoint.json"))
    assert stats == compute_ap_stats(splits["train"], include_wind=False)


@pytest.mark.parametrize("changes, message", [
    ({}, "empty validation split [2020-08-01, 2021-08-01)"),
    ({"split_train_start": "2019-09-02"}, "empty training split [2019-09-02, 2020-08-01)")],
    ids=["validation", "training"])
def test_train_on_an_empty_split_exits_one_naming_its_dates(tmp_path, toy_config, l1_file, grid_file,
                                                            caplog, changes, message):
    """The 12 matched samples lie on 2019-09-01, inside the default training
    split. train refuses an empty split before it builds the model."""
    era5, _ = matched_sample_files(tmp_path, toy_config, l1_file, grid_file)
    config = tmp_path / "split.json"
    config.write_text(json.dumps({**TOY, **changes}))
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(era5), "--out-dir", str(run_dir)]) == 1
    assert message in caplog.text
    assert "model parameters" not in caplog.text
    assert not run_dir.exists()


def not_utf8(path):
    """Put one 0xff byte, which no UTF-8 text holds, after the file's first byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:1] + b"\xff" + raw[1:])


@pytest.mark.parametrize("command, flag, code", [
    ("preprocess", "--input", 2), ("match-era5", "--grid", 2), ("match-buoy", "--buoys", 2),
    ("report", "--predictions", 2),
    *((command, "--config", 1) for command in ("synth", "preprocess", "match-era5", "match-buoy",
                                                "train", "predict", "evaluate", "report"))])
def test_an_input_that_is_not_utf8_exits_naming_it(tmp_path, toy_config, l1_file, grid_file, caplog,
                                                   command, flag, code):
    """One 0xff byte in a text input: in an L1 file, grid, buoy CSV or
    predictions CSV it is a format error (exit 2), in a config file a config
    error (exit 1). Each names the file, and nothing is written."""
    groups, buoys, preds = (str(tmp_path / name) for name in ("groups.jsonl", "buoys.csv", "preds.csv"))
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", groups]) == 0
    with open(buoys, "w") as fh:
        fh.write("station_id,lat,lon,iso_time,swh_m\n41001,10.0,40.0,2019-09-01T00:00:00,1.5\n")
    write_predictions(preds, n=10)
    out, missing = str(tmp_path / "out"), str(tmp_path / "missing")
    args = {"synth": ["--out", out],
            "preprocess": ["--input", l1_file, "--out", out],
            "match-era5": ["--input", groups, "--grid", grid_file, "--out", out],
            "match-buoy": ["--input", groups, "--buoys", buoys, "--out", out],
            "train": ["--data", missing, "--out-dir", out],
            "predict": ["--data", missing, "--checkpoint", missing, "--out", out],
            "evaluate": ["--data", missing, "--checkpoint", missing, "--out-dir", out],
            "report": ["--predictions", preds, "--out-dir", out]}[command]
    argv = ["--config", toy_config, *args]
    damaged = argv[argv.index(flag) + 1]
    not_utf8(damaged)
    assert main([command, *argv]) == code
    assert f"{damaged} is not UTF-8 text" in caplog.text
    assert not (tmp_path / "out").exists()


def test_train_reads_nothing_from_the_manifest(tmp_path, toy_config):
    data = tmp_path / "bare.jsonl"
    write_samples(str(data), generate(synth_spec(load_config(toy_config))), {})
    run_dir = tmp_path / "run"
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(run_dir)]) == 0
    assert (run_dir / "checkpoint.json").exists()


def test_train_on_ddms_of_another_size_exits_one(tmp_path, caplog):
    """4x6 DDMs under a 6x4 config: the message gives width then height of each."""
    synth_config, train_config = tmp_path / "synth.json", tmp_path / "train.json"
    synth_config.write_text(json.dumps({**TOY, "width": 4, "height": 6}))
    train_config.write_text(json.dumps({**TOY, "width": 6, "height": 4}))
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", str(synth_config), "--out", str(data)]) == 0
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--data", str(data), "--out-dir", str(run_dir)]) == 1
    assert "data file has 4x6 DDMs but the config expects 6x4" in caplog.text
    assert not run_dir.exists()


@pytest.mark.parametrize("command, out_flag", [("evaluate", "--out-dir"), ("predict", "--out")])
def test_evaluate_on_an_empty_sample_file_exits_one_and_writes_nothing(tmp_path, toy_config, caplog,
                                                                      command, out_flag):
    """A matcher writes a file without samples when nothing matches; predict
    refuses it too, rather than write a predictions CSV that report refuses."""
    data = tmp_path / "samples.jsonl"
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(tmp_path / "run")]) == 0
    empty = tmp_path / "empty.jsonl"
    write_samples(str(empty), [], {"config_hash": "h"})
    out = tmp_path / "eval"
    assert main([command, "--config", toy_config, "--data", str(empty),
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.json"), out_flag, str(out)]) == 1
    assert f"no samples in {empty}" in caplog.text
    assert not out.exists()


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
                 "--out-dir", str(out)]) == 1
    assert repr(key) in caplog.text
    assert not out.exists()


def test_report_at_the_widest_scatter_bin_fills_its_histogram(tmp_path):
    preds = tmp_path / "preds.csv"
    write_predictions(preds)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TOY, "scatter_bin_width": 8.0}))
    out = tmp_path / "rep"
    assert main(["report", "--config", str(config), "--predictions", str(preds),
                 "--out-dir", str(out)]) == 0
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
                 "--out-dir", str(out)]) == 2
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
                 "--out-dir", str(out)]) == 2
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


REPORT_FILES = {"metrics.json", "metrics.csv", "metrics_binned.csv", "scatter_pairs.csv",
                "scatter_hist.csv", "scatter_fit.json", "bias_grid.csv"}


@pytest.mark.parametrize("flag", ["--bins", "--scatter", "--bias-grid"])
def test_report_takes_no_output_switch(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["report", *REQUIRED_ARGS["report"], flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_evaluate_writes_its_predictions_and_the_report_of_them(tmp_path, toy_config):
    """evaluate is predict into predictions.csv, then report on that file."""
    data, run, ev, rep = (tmp_path / name for name in ("samples.jsonl", "run", "eval", "rep"))
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(run)]) == 0
    assert main(["evaluate", "--config", toy_config, "--data", str(data),
                 "--checkpoint", str(run / "checkpoint.json"), "--out-dir", str(ev)]) == 0
    assert main(["report", "--config", toy_config, "--predictions", str(ev / "predictions.csv"),
                 "--out-dir", str(rep)]) == 0
    assert {f.name for f in rep.iterdir()} == REPORT_FILES
    assert {f.name for f in ev.iterdir()} == REPORT_FILES | {"predictions.csv"}
    for name in REPORT_FILES:
        assert (ev / name).read_bytes() == (rep / name).read_bytes(), name


def test_evaluate_and_report_on_four_equal_references_write_a_null_fit(tmp_path, toy_config):
    """One sample whose four channels share a reference, as when all four
    match one buoy row: the scatter's regression line is undefined, so it
    is null, and every report file is written."""
    data, one, run, ev, rep = (tmp_path / name for name in ("samples.jsonl", "one.jsonl", "run", "eval", "rep"))
    assert main(["synth", "--config", toy_config, "--out", str(data)]) == 0
    assert main(["train", "--config", toy_config, "--data", str(data), "--out-dir", str(run)]) == 0
    sample = read_samples(str(data))[0][0]
    for ch in sample.channels:
        ch.swh_ref = 2.0
    write_samples(str(one), [sample], {})
    assert main(["evaluate", "--config", toy_config, "--data", str(one),
                 "--checkpoint", str(run / "checkpoint.json"), "--out-dir", str(ev)]) == 0
    assert main(["report", "--config", toy_config, "--predictions", str(ev / "predictions.csv"),
                 "--out-dir", str(rep)]) == 0
    for out in (ev, rep):
        assert {f.name for f in out.iterdir()} - {"predictions.csv"} == REPORT_FILES
        fit = json.loads((out / "scatter_fit.json").read_text())
        assert (fit["slope"], fit["intercept"], fit["n"]) == (None, None, 4)


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


# A grid fault that its arrays' types do not show, and the message it gives.
GRID_FAULTS = {"one time point": "grid times axis needs at least two points",
               "lats spacing 0.7": "grid lats axis spacing must be exactly 0.5",
               "swh shape": "grid swh shape (30, 21, 20) does not match axes",
               "nan swh": "grid swh is not finite at the unmasked node"}


def break_grid(doc, fault):
    if fault == "one time point":
        doc["times"], doc["swh"] = doc["times"][:1], doc["swh"][:1]
    elif fault == "lats spacing 0.7":
        doc["lats"] = [doc["lats"][0] + 0.7 * i for i in range(len(doc["lats"]))]
    elif fault == "swh shape":
        doc["swh"] = [[row[:-1] for row in layer] for layer in doc["swh"]]
    else:
        doc["swh"][3][4][5] = float("nan")


@pytest.mark.parametrize("fault", list(GRID_FAULTS))
def test_match_era5_on_a_faulty_grid_exits_two_naming_the_file(tmp_path, toy_config, l1_file, grid_file,
                                                                caplog, fault):
    """A grid file whose axes, shapes or values break the grid's contract is
    a file-format error (exit 2) naming the file, and nothing is written."""
    groups = tmp_path / "groups.jsonl"
    assert main(["preprocess", "--config", toy_config, "--input", l1_file, "--out", str(groups)]) == 0
    with open(grid_file) as fh:
        doc = json.load(fh)
    break_grid(doc, fault)
    with open(grid_file, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "samples.jsonl"
    assert main(["match-era5", "--config", toy_config, "--input", str(groups),
                 "--grid", grid_file, "--out", str(out)]) == 2
    assert f"grid file {grid_file}: {GRID_FAULTS[fault]}" in caplog.text
    assert not out.exists()


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


@pytest.mark.parametrize("key, value", [("standard_residual", False), ("head_input", "full"),
                                        ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_eps", 1e-8)])
def test_a_removed_key_is_unknown(tmp_path, caplog, key, value):
    """The two ablation wirings and the three Adam constants left the schema,
    so a config that sets one, even to its old default, exits 1."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TOY, key: value}))
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")]) == 1
    assert f"unknown config key {key!r}" in caplog.text
    assert not (tmp_path / "x.jsonl").exists()


# Each command's required arguments, and the override flags it takes: those
# of the config keys it reads.
REQUIRED_ARGS = {"synth": ["--out", "o"], "preprocess": ["--input", "i", "--out", "o"],
                 "match-era5": ["--input", "i", "--grid", "g", "--out", "o"],
                 "match-buoy": ["--input", "i", "--buoys", "b", "--out", "o"],
                 "train": ["--data", "d", "--out-dir", "o"],
                 "predict": ["--data", "d", "--checkpoint", "c", "--out", "o"],
                 "evaluate": ["--data", "d", "--checkpoint", "c", "--out-dir", "o"],
                 "report": ["--predictions", "p", "--out-dir", "o"]}
OVERRIDE_FLAGS = {"--seed": ("seed", ["1"]), "--strategy": ("strategy", ["CI"]), "--use-wind": ("use_wind", [])}
TAKES = {"synth": {"--seed"}, "train": {"--seed", "--strategy", "--use-wind"},
         "predict": {"--strategy", "--use-wind"}, "evaluate": {"--strategy", "--use-wind"}}


@pytest.mark.parametrize("flag", sorted(OVERRIDE_FLAGS))
@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
def test_a_command_takes_only_the_override_flags_it_reads(capsys, command, flag):
    dest, value = OVERRIDE_FLAGS[flag]
    argv = [command, "--config", "c.json", *REQUIRED_ARGS[command], flag, *value]
    if flag in TAKES.get(command, ()):
        assert getattr(build_parser().parse_args(argv), dest) is not None
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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


@pytest.mark.parametrize("key, value", [("standard_residual", False), ("head_input", "full")])
def test_checkpoint_config_with_a_removed_wiring_key_exits_two(tmp_path, toy_config, caplog, key, value):
    data = tmp_path / "samples.jsonl"
    main(["synth", "--config", toy_config, "--out", str(data)])
    model = WaveHeightModel(model_config(load_config(toy_config)))
    ckpt = tmp_path / "checkpoint.json"
    container.write(str(ckpt), "checkpoint", FORMAT_VERSION,
                    {"config": {**vars(model.cfg), key: value}, "standardization": None, "meta": None},
                    model.bag.state_arrays())
    assert main(["predict", "--config", toy_config, "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "preds.csv")]) == 2
    assert "does not fit ModelConfig" in caplog.text and key in caplog.text


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


# The adam_* rows name keys that are no longer in the schema: each is unknown.
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
