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
from .container import open_text, write_csv
from .errors import ConfigError, ContractError, FormatError, NonFiniteError, ShapeError
from .metrics import MetricsReport, export_bias_grid, export_scatter, report
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


def _add_common(p: argparse.ArgumentParser, seed: bool = False, model: bool = False) -> None:
    """`--config`, and the override flags of the config keys the command reads."""
    p.add_argument("--config", help="JSON config file (flat key/value schema)")
    if seed:
        p.add_argument("--seed", type=int, help="override the config seed")
    if model:
        p.add_argument("--strategy", choices=STRATEGIES, help="channel strategy override")
        p.add_argument("--use-wind", dest="use_wind", action="store_true", default=None,
                       help="enable the wind-speed input column")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swhnet",
                                     description="Four-channel SWH retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic canonical sample file")
    _add_common(p, seed=True)
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
    _add_common(p, seed=True, model=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("predict", help="run a checkpoint over a sample file")
    _add_common(p, model=True)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="predictions CSV")

    p = sub.add_parser("evaluate", help="predict and emit a metrics report")
    _add_common(p, model=True)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("report", help="metrics and plot data from a predictions CSV")
    _add_common(p)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out-dir", required=True)
    return parser


def _resolve_config(args) -> tuple[dict, str]:
    overrides = {key: value for key in ("seed", "strategy", "use_wind")
                 if (value := getattr(args, key, None)) is not None}
    cfg = load_config(args.config, overrides)
    h = config_hash(cfg)
    log.info("config hash %s", h)
    return cfg, h


# -- command bodies -----------------------------------------------------------


def cmd_synth(args) -> int:
    cfg, h = _resolve_config(args)
    samples = generate(cfgmod.synth_spec(cfg))
    write_samples(args.out, samples, {"config_hash": h})
    log.info("wrote %d synthetic samples to %s", len(samples), args.out)
    return 0


def cmd_preprocess(args) -> int:
    cfg, h = _resolve_config(args)
    docs = read_l1_records(args.input)
    kept, qc_tally = quality_control(docs)
    groups, align_tally = align_channels(kept)
    log.info("quality control: %s", qc_tally)
    log.info("alignment: %s", align_tally)
    write_groups(args.out, groups, {"config_hash": h, "qc_tally": {"qc": qc_tally, "align": align_tally}})
    log.info("wrote %d aligned groups to %s", len(groups), args.out)
    return 0


def cmd_match(args) -> int:
    """match-era5 or match-buoy: collocate with the reference, then cap."""
    _, h = _resolve_config(args)
    groups = read_groups(args.input)
    if args.command == "match-era5":
        samples, tally = match_era5_groups(groups, read_era5_grid(args.grid))
    else:
        samples, tally = match_buoy_groups(groups, read_buoys(args.buoys))
    log.info("%s matching: %s", args.command.removeprefix("match-"), tally)
    samples, cap_tally = cap_and_filter(samples)
    log.info("cap filter: %s", cap_tally)
    write_samples(args.out, samples, {"config_hash": h, "qc_tally": {"match": tally, "cap": cap_tally}})
    log.info("wrote %d samples to %s", len(samples), args.out)
    return 0


def cmd_train(args) -> int:
    cfg, h = _resolve_config(args)
    samples, _ = read_samples(args.data)
    mcfg = cfgmod.model_config(cfg)
    tcfg = cfgmod.train_config(cfg)
    spec = cfgmod.split_spec(cfg)
    splits, split_tally = split_dataset(samples, spec)
    log.info("split: %s", split_tally)
    for key, name, start, end in (("train", "training", spec.train_start, spec.val_start),
                                  ("val", "validation", spec.val_start, spec.test_start)):
        if not splits[key]:
            raise ContractError(f"empty {name} split [{start}, {end})")
    stats = compute_ap_stats(splits["train"], include_wind=mcfg.use_wind)
    train_ds = to_model_dataset(splits["train"], stats, mcfg.use_wind)
    width, height = train_ds.ddms.shape[-2:]
    if (width, height) != (mcfg.width, mcfg.height):
        raise ConfigError(f"data file has {width}x{height} DDMs but the "
                          f"config expects {mcfg.width}x{mcfg.height}")
    model = WaveHeightModel(mcfg)
    log.info("model parameters (%s): %d", mcfg.strategy, count_params(model.bag))
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
    if not samples:
        raise ContractError(f"no samples in {args.data}")
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
    rep = _report_predictions(path, args.out_dir, cfg, h)
    log.info("average RMSE %.4f over %d predictions", rep.average["rmse"], rep.n)
    return 0


def _report_predictions(path: str, out_dir: str, cfg: dict, h: str) -> MetricsReport:
    """Write the report of the predictions CSV at `path` into out_dir, for both
    `evaluate` and `report`: metrics.json, metrics.csv, metrics_binned.csv, the
    three scatter_* files and bias_grid.csv. A channel outside 1-4 or a value not a
    finite number at a line, or a channel without rows, is a FormatError, raised
    before any write."""
    rows = []
    with open_text(path, newline="") as fh:
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
    rep.write_binned_csv(os.path.join(out_dir, "metrics_binned.csv"))
    export_scatter(preds, refs, os.path.join(out_dir, "scatter"),
                   bin_width=cfg["scatter_bin_width"], config_hash=h)
    export_bias_grid(lats, lons, preds, refs, os.path.join(out_dir, "bias_grid.csv"),
                     cell_deg=cfg["bias_cell_deg"], config_hash=h)
    return rep


def cmd_report(args) -> int:
    cfg, h = _resolve_config(args)
    _report_predictions(args.predictions, args.out_dir, cfg, h)
    log.info("report written to %s", args.out_dir)
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "match-era5": cmd_match,
    "match-buoy": cmd_match,
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
