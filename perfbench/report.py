"""End-to-end and per-layer metrics, derived from the recorded spans.

The metric names and units here are the ones BENCHMARK.json lists;
run.py checks that the two agree before it prints a result.
"""

from __future__ import annotations

import spans as sp

# -- end to end (untraced runs) ---------------------------------------------------


def end_to_end(spans, throughput_span: str, peak_rss_mb: float) -> dict:
    passes = [s for s in spans if s.name == "pass"]
    work = [s for s in spans if s.name == throughput_span]
    return {
        "setup_s": (sp.median(s.duration / 1e9 for s in spans if s.name == "setup"), "s"),
        "run_s": (sp.median(s.duration / 1e9 for s in passes), "s"),
        "items_per_s": (sp.median(s.items * 1e9 / s.duration for s in work), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def predict_samples_per_s(spans) -> float:
    """Samples per second of training.predict, from its median call; 0 if never called."""
    per_sample = sp.per_item(spans, "training.predict", scale=1e-9)
    return 1.0 / sp.median(per_sample) if per_sample else 0.0


def workload_figures(spans, facts: dict) -> dict:
    """Figures only the model workloads have, for the human-readable report."""
    if "val_rmse_avg" not in facts:
        return {}
    return {"predict_samples_per_s": (predict_samples_per_s(spans), "1/s"),
            "val_rmse_avg": (facts["val_rmse_avg"], "m")}


# -- per layer (traced runs) --------------------------------------------------------

FORWARD = "model.forward"

# metric -> (unit, span name, ancestor). With an ancestor the samples are
# the summed durations under each ancestor span (one per sample forward);
# without, each span's duration over its item count.
TIMINGS = {
    "autodiff.backward_ms_per_sample": ("ms", "autodiff.backward", None),
    "encoder.embed_ms_per_sample": ("ms", "encoder.embed", FORWARD),
    "encoder.attention_ms_per_sample": ("ms", "encoder.attention", FORWARD),
    "encoder.norm_ms_per_sample": ("ms", "encoder.norm", FORWARD),
    "encoder.ffn_ms_per_sample": ("ms", "encoder.ffn", FORWARD),
    "apbranch.forward_ms_per_sample": ("ms", "apbranch.forward", FORWARD),
    "model.head_ms_per_sample": ("ms", "model.head", FORWARD),
    "model.forward_ms_per_sample": ("ms", FORWARD, None),
    "model.loss_ms_per_batch": ("ms", "model.loss", None),
    "model.predict_ms_per_sample": ("ms", "model.predict", None),
    "training.adamw_step_ms": ("ms", "training.adamw_step", None),
    "training.to_model_dataset_ms_per_sample": ("ms", "training.to_model_dataset", None),
    "synth.generate_ms_per_sample": ("ms", "synth.generate", None),
    "checkpoint.save_s": ("s", "checkpoint.save", None),
    "checkpoint.load_s": ("s", "checkpoint.load", None),
    "pipeline.read_l1_ms_per_record": ("ms", "pipeline.read_l1", None),
    "pipeline.qc_ms_per_record": ("ms", "pipeline.qc", None),
    "pipeline.align_ms_per_record": ("ms", "pipeline.align", None),
    "pipeline.write_groups_ms_per_group": ("ms", "pipeline.write_groups", None),
    "pipeline.read_groups_ms_per_group": ("ms", "pipeline.read_groups", None),
    "pipeline.match_era5_ms_per_group": ("ms", "pipeline.match_era5", None),
    "pipeline.match_buoy_ms_per_group": ("ms", "pipeline.match_buoy", None),
    "pipeline.write_samples_ms_per_sample": ("ms", "pipeline.write_samples", None),
    "pipeline.read_samples_ms_per_sample": ("ms", "pipeline.read_samples", None),
    "metrics.report_ms": ("ms", "metrics.report", None),
    "metrics.exports_ms": ("ms", "metrics.exports", None),
}

RATIOS = ("pipeline.qc_kept_ratio", "pipeline.align_group_ratio",
          "pipeline.era5_matched_ratio", "pipeline.buoy_matched_ratio")


def ratio_counts(tallies: dict) -> dict[str, tuple[int, int]]:
    """(useful outcomes, attempts) for each ratio, from the tallies summed
    over every L1 file the run ingested."""
    if not tallies:
        return dict.fromkeys(RATIOS, (0, 0))
    groups = tallies["align"]["groups"]
    return {
        "pipeline.qc_kept_ratio": (tallies["qc"]["kept"], tallies["qc"]["input"]),
        "pipeline.align_group_ratio": (groups, tallies["timestamps_kept"]),
        "pipeline.era5_matched_ratio": (tallies["era5"]["matched"], groups),
        "pipeline.buoy_matched_ratio": (tallies["buoy"]["matched"], groups),
    }


def per_layer(spans, facts: dict, overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics as {name: (value, unit)} plus the full timing summaries."""
    metrics: dict[str, tuple[float, str]] = {}
    summaries = {}
    for name, (unit, span, ancestor) in TIMINGS.items():
        scale = 1e-9 if unit == "s" else 1e-6
        if ancestor:
            summ = sp.summarize(sp.per_ancestor(spans, span, ancestor, scale))
        else:
            summ = sp.summarize(sp.per_item(spans, span, scale))
        summaries[name] = summ
        metrics[f"{name}.p50"] = (summ["p50"], unit)
        metrics[f"{name}.p90"] = (summ["p90"], unit)
        metrics[f"{name}.n"] = (summ["n"], "count")

    graphs = facts.get("graphs", [])
    if graphs:
        batch, nodes, nbytes = graphs[0]
        metrics["autodiff.nodes_per_sample"] = (nodes / batch, "count")
        metrics["autodiff.graph_mb_per_sample"] = (nbytes / batch / 1e6, "MB")
    else:
        metrics["autodiff.nodes_per_sample"] = (0, "count")
        metrics["autodiff.graph_mb_per_sample"] = (0.0, "MB")
    metrics["checkpoint.mb"] = (facts.get("checkpoint_bytes", 0) / 1e6, "MB")
    n_samples = facts.get("sample_count", 0)
    metrics["pipeline.sample_kb"] = (facts["sample_bytes"] / n_samples / 1e3 if n_samples else 0.0, "KB")
    tallies = facts.get("tallies")
    if tallies:
        metrics["pipeline.era5_outside_grid"] = (tallies["era5"]["outside_grid"], "count")
    else:
        metrics["pipeline.era5_outside_grid"] = (0, "count")
    for name, (num, base) in ratio_counts(tallies).items():
        metrics[name] = (num / base if base else 0.0, "ratio")
        metrics[f"{name}.num"] = (num, "count")
        metrics[f"{name}.base"] = (base, "count")
    metrics["training.predict_samples_per_s"] = (predict_samples_per_s(spans), "1/s")
    metrics["training.val_rmse_avg"] = (facts.get("val_rmse_avg", 0.0), "m")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trace.uncovered_pct"] = (100.0 * sp.uncovered_share(spans, "pass"), "%")
    return metrics, summaries


def absent_layers(summaries: dict) -> list[str]:
    return [name for name, summ in summaries.items() if summ["n"] == 0]
