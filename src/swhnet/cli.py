"""Command-line surface: synth | preprocess | match-era5 | match-buoy |
train | evaluate | predict | report.

Every command resolves defaults <- config file <- flags, logs the config
hash, and embeds that hash in each artifact it writes. Exit codes:
0 success, 1 contract/config error, 2 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from . import config as cfgmod
from .autodiff import count_params
from .checkpoint import load_checkpoint, save_checkpoint
from .config import STRATEGIES, config_hash, load_config
from .container import write_csv
from .errors import ConfigError, ContractError, FormatError, NonFiniteError, ShapeError
from .metrics import export_bias_grid, export_scatter, report
from .model import WaveHeightModel
from .pipeline import (align_channels, cap_and_filter, compute_ap_stats,
                       match_buoy_groups, match_era5_groups, quality_control,
                       read_buoys, read_era5_grid, read_groups, read_l1_records,
                       read_samples, split_dataset, write_groups, write_samples)
from .synth import generate
from .training import predict, to_model_dataset, train, write_history

log = logging.getLogger("swhnet")

PREDICTION_FIELDS = ("sample_index", "timestamp", "channel", "sp_lat", "sp_lon",
                     "y_ref", "y_hat", "config_hash")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flat key/value schema)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--strategy", choices=STRATEGIES, help="channel strategy override")
    p.add_argument("--use-wind", dest="use_wind", action="store_true", default=None,
                   help="enable the wind-speed input column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swhnet",
                                     description="Four-channel SWH retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic canonical sample file")
    _add_common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("preprocess", help="quality control + channel alignment of L1 records")
    _add_common(p)
    p.add_argument("--input", required=True, help="L1 interchange JSONL")
    p.add_argument("--out", required=True, help="aligned-group file")

    p = sub.add_parser("match-era5", help="collocate aligned groups with a reanalysis grid")
    _add_common(p)
    p.add_argument("--input", required=True, help="aligned-group file")
    p.add_argument("--grid", required=True, help="reanalysis grid JSON")
    p.add_argument("--out", required=True, help="canonical sample file")

    p = sub.add_parser("match-buoy", help="collocate aligned groups with buoy measurements")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--buoys", required=True, help="CSV: station_id, lat, lon, iso_time, swh_m")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on a canonical sample file")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("predict", help="run a checkpoint over a sample file")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="predictions CSV")

    p = sub.add_parser("evaluate", help="predict and emit a metrics report")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("report", help="metrics and plot data from a predictions CSV")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bins", action="store_true", help="also write the binned CSV")
    p.add_argument("--scatter", action="store_true", help="also write density-scatter data")
    p.add_argument("--bias-grid", action="store_true", help="also write the gridded bias map")
    return parser


def _resolve_config(args) -> tuple[dict, str]:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    if getattr(args, "use_wind", None) is not None:
        overrides["use_wind"] = args.use_wind
    cfg = load_config(args.config, overrides)
    h = config_hash(cfg)
    log.info("config hash %s", h)
    return cfg, h


# -- command bodies -----------------------------------------------------------


def cmd_synth(args) -> int:
    cfg, h = _resolve_config(args)
    spec = cfgmod.synth_spec(cfg)
    samples = generate(spec)
    manifest = {
        "config_hash": h,
        "source": "synth",
        "width": spec.width,
        "height": spec.height,
        "ap_columns": list(cfgmod.AP_COLUMNS) + ([cfgmod.WIND_COLUMN] if spec.include_wind else []),
        "k_ap": len(cfgmod.AP_COLUMNS) + int(spec.include_wind),
        "include_wind": spec.include_wind,
        "seed": spec.seed,
        "standardization": None,
        "qc_tally": None,
        "split_spec": asdict(cfgmod.split_spec(cfg)),
    }
    write_samples(args.out, samples, manifest)
    log.info("wrote %d synthetic samples to %s", len(samples), args.out)
    return 0


def cmd_preprocess(args) -> int:
    cfg, h = _resolve_config(args)
    docs = read_l1_records(args.input)
    kept, qc_tally = quality_control(docs)
    groups, align_tally = align_channels(kept)
    log.info("quality control: %s", qc_tally)
    log.info("alignment: %s", align_tally)
    write_groups(args.out, groups, {"config_hash": h, "qc": qc_tally, "align": align_tally})
    log.info("wrote %d aligned groups to %s", len(groups), args.out)
    return 0


def _finish_samples(args, cfg: dict, h: str, samples, tallies: dict, source: str,
                    with_stats: bool) -> int:
    samples, cap_tally = cap_and_filter(samples)
    tallies["cap"] = cap_tally
    log.info("cap filter: %s", cap_tally)
    stats = None
    spec = cfgmod.split_spec(cfg)
    if with_stats and samples:
        splits, split_tally = split_dataset(samples, spec)
        tallies["split"] = split_tally
        log.info("split: %s", split_tally)
        if splits["train"]:
            stats = compute_ap_stats(splits["train"], include_wind=False)
    manifest = {
        "config_hash": h,
        "source": source,
        "width": int(samples[0].channels[0].ddms.shape[1]) if samples else cfg["width"],
        "height": int(samples[0].channels[0].ddms.shape[2]) if samples else cfg["height"],
        "ap_columns": list(cfgmod.AP_COLUMNS),
        "k_ap": len(cfgmod.AP_COLUMNS),
        "include_wind": False,
        "seed": cfg["seed"],
        "standardization": stats,
        "qc_tally": tallies,
        "split_spec": asdict(spec),
    }
    write_samples(args.out, samples, manifest)
    log.info("wrote %d samples to %s", len(samples), args.out)
    return 0


def cmd_match_era5(args) -> int:
    cfg, h = _resolve_config(args)
    groups = read_groups(args.input)
    grid = read_era5_grid(args.grid)
    samples, tally = match_era5_groups(groups, grid)
    log.info("era5 matching: %s", tally)
    return _finish_samples(args, cfg, h, samples, {"match": tally}, "era5", with_stats=True)


def cmd_match_buoy(args) -> int:
    cfg, h = _resolve_config(args)
    groups = read_groups(args.input)
    buoys = read_buoys(args.buoys)
    samples, tally = match_buoy_groups(groups, buoys)
    log.info("buoy matching: %s", tally)
    return _finish_samples(args, cfg, h, samples, {"match": tally}, "buoy", with_stats=False)


def cmd_train(args) -> int:
    cfg, h = _resolve_config(args)
    samples, manifest = read_samples(args.data)
    mcfg = cfgmod.model_config(cfg)
    tcfg = cfgmod.train_config(cfg)
    if manifest.get("width") != mcfg.width or manifest.get("height") != mcfg.height:
        raise ConfigError(
            f"data file has {manifest.get('width')}x{manifest.get('height')} DDMs but the "
            f"config expects {mcfg.width}x{mcfg.height}"
        )
    splits, split_tally = split_dataset(samples, cfgmod.split_spec(cfg))
    log.info("split: %s", split_tally)
    stats = manifest.get("standardization")
    if stats is None or mcfg.use_wind:
        if not splits["train"]:
            raise ContractError("empty training split")
        stats = compute_ap_stats(splits["train"], include_wind=mcfg.use_wind)
    model = WaveHeightModel(mcfg)
    log.info("model parameters (%s): %d", mcfg.strategy, count_params(model.bag))
    train_ds = to_model_dataset(splits["train"], stats, mcfg.use_wind)
    val_ds = to_model_dataset(splits["val"], stats, mcfg.use_wind)
    result = train(model, train_ds, val_ds, tcfg, config_hash=h, log=log.info)
    os.makedirs(args.out_dir, exist_ok=True)
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    save_checkpoint(ckpt_path, model, state=result.best_state,
                    standardization=stats, meta=asdict(result.best_meta))
    write_history(os.path.join(args.out_dir, "history.csv"), result.history)
    log.info("best epoch %d with average validation RMSE %.4f",
             result.best_meta.epoch, result.best_meta.val_rmse_avg)
    return 0


def _load_for_inference(args):
    cfg, h = _resolve_config(args)
    model, stats, meta = load_checkpoint(args.checkpoint)
    mcfg = cfgmod.model_config(cfg)
    for key in ("strategy", "use_wind"):
        if getattr(mcfg, key) != getattr(model.cfg, key):
            raise ConfigError(f"checkpoint was trained with {key} {getattr(model.cfg, key)!r}; "
                              f"the config asks for {getattr(mcfg, key)!r}")
    if stats is None:
        raise ConfigError("checkpoint carries no standardization statistics")
    samples, _ = read_samples(args.data)
    dataset = to_model_dataset(samples, stats, model.cfg.use_wind)
    return cfg, h, model, dataset


def _write_predictions(path: str, dataset, preds: np.ndarray, h: str) -> None:
    write_csv(path, PREDICTION_FIELDS,
              ([i, dataset.timestamps[i], c + 1, dataset.lats[i, c], dataset.lons[i, c],
                dataset.refs[i, c], preds[i, c], h] for i in range(len(dataset)) for c in range(4)))


def cmd_predict(args) -> int:
    _, h, model, dataset = _load_for_inference(args)
    preds = predict(model, dataset)
    _write_predictions(args.out, dataset, preds, h)
    log.info("wrote %d predictions to %s", preds.size, args.out)
    return 0


def cmd_evaluate(args) -> int:
    cfg, h, model, dataset = _load_for_inference(args)
    preds = predict(model, dataset)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "predictions.csv")
    _write_predictions(path, dataset, preds, h)
    rep = _report_predictions(path, args.out_dir, cfg, h)[0]
    log.info("average RMSE %.4f over %d predictions", rep.average["rmse"], rep.n)
    return 0


def _report_predictions(path: str, out_dir: str, cfg: dict, h: str) -> tuple:
    """Write metrics.json and metrics.csv into out_dir from the predictions CSV at
    `path`, for both `evaluate` and `report`; return the report and the file's pred,
    ref, lat and lon columns. A channel outside 1-4 or a value not a finite number at
    a line, or a channel without rows, is a FormatError, raised before any write."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(PREDICTION_FIELDS) <= set(reader.fieldnames):
            raise FormatError(f"predictions CSV must have columns {PREDICTION_FIELDS}")
        for row in reader:
            try:
                channel = int(row["channel"])
                values = tuple(float(row[k]) for k in ("y_hat", "y_ref", "sp_lat", "sp_lon"))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path} line {reader.line_num}: {exc}") from exc
            if channel not in (1, 2, 3, 4):
                raise FormatError(f"{path} line {reader.line_num}: channel {channel} is not 1-4")
            if not np.isfinite(values).all():
                raise FormatError(f"{path} line {reader.line_num}: non-finite value in {values}")
            rows.append((channel,) + values)
    if not rows:
        raise ContractError(f"no prediction rows in {path}")
    channels, preds, refs, lats, lons = (np.array(col) for col in zip(*rows))
    missing = sorted({1, 2, 3, 4} - set(channels.tolist()))
    if missing:
        raise FormatError(f"{path} has no prediction rows for channel {missing[0]}")
    os.makedirs(out_dir, exist_ok=True)
    pairs = {c: (preds[channels == c], refs[channels == c]) for c in (1, 2, 3, 4)}
    rep = report(pairs, bin_edges=cfg["report_bin_edges"], config_hash=h)
    rep.write_json(os.path.join(out_dir, "metrics.json"))
    rep.write_csv(os.path.join(out_dir, "metrics.csv"))
    return rep, preds, refs, lats, lons


def cmd_report(args) -> int:
    cfg, h = _resolve_config(args)
    rep, preds, refs, lats, lons = _report_predictions(args.predictions, args.out_dir, cfg, h)
    if args.bins:
        rep.write_binned_csv(os.path.join(args.out_dir, "metrics_binned.csv"))
    if args.scatter:
        export_scatter(preds, refs, os.path.join(args.out_dir, "scatter"),
                       bin_width=cfg["scatter_bin_width"], config_hash=h)
    if args.bias_grid:
        export_bias_grid(lats, lons, preds, refs, os.path.join(args.out_dir, "bias_grid.csv"),
                         cell_deg=cfg["bias_cell_deg"], config_hash=h)
    log.info("report written to %s", args.out_dir)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "match-era5": cmd_match_era5,
    "match-buoy": cmd_match_buoy,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, ContractError, ShapeError, NonFiniteError) as exc:
        log.error("%s", exc)
        return 1
    except (FormatError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
