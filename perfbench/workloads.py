"""The benchmark workloads: set-up, one timed pass, and the output checks.

Each workload is a closed loop with one caller in one process: the next
pass starts when the previous one has returned. A pass is the user flow
the workload stands for, called through the program's public functions.
Every call into the program sits inside a span named after the layer it
enters; in a traced pass span wrappers installed around the layer calls
inside training and prediction (see composed.py) reach the layers below.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import traceback

import numpy as np

from swhnet import checkpoint, metrics, pipeline, synth, training
from swhnet import config as cfgmod
from swhnet.model import WaveHeightModel, batch_loss

import composed
import inputs
from spans import SpanRecorder

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Relative and absolute tolerance of the reference check. A change of
# summation order moves the figures by ~1e-12; a change of arithmetic
# moves them by far more than 1e-6.
REFERENCE_RTOL, REFERENCE_ATOL = 1e-6, 1e-9


class Checks:
    """Output checks of one operation (a set-up or a pass)."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def samples_equal(a, b) -> bool:
    """Two sample lists hold the same values, bit for bit."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.timestamp, x.source) != (y.timestamp, y.source):
            return False
        for cx, cy in zip(x.channels, y.channels):
            if (cx.channel, cx.sp_lat, cx.sp_lon, cx.swh_ref, cx.wind_speed) != \
                    (cy.channel, cy.sp_lat, cy.sp_lon, cy.swh_ref, cy.wind_speed):
                return False
            if cx.ddms.tobytes() != cy.ddms.tobytes() or cx.aps.tobytes() != cy.aps.tobytes():
                return False
    return True


def groups_equal(a, b) -> bool:
    """Aligned groups agree on every field the group file persists."""
    if len(a) != len(b):
        return False
    for ga, gb in zip(a, b):
        if len(ga) != len(gb):
            return False
        for ra, rb in zip(ga, gb):
            if (ra.timestamp, ra.channel, ra.sp_lat, ra.sp_lon, ra.aps, ra.rcg) != \
                    (rb.timestamp, rb.channel, rb.sp_lat, rb.sp_lon, rb.aps, rb.rcg):
                return False
            if ra.ddms.tobytes() != rb.ddms.tobytes():
                return False
    return True


class Workload:
    """Shared operation bookkeeping; subclasses define setup() and one_pass()."""

    throughput_span = "pass"  # items_per_s is this span's items per second

    def __init__(self, seed: int, work: str, rec):
        self.seed = seed
        self.work = work
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.facts: dict = {}

    def _operation(self, root: str, body, items: int = 1) -> None:
        """Run `body` in a span, then the checks it returns.

        Each operation writes its files under a fresh directory, removed
        once its checks are done, as a user's run writes new files.
        Rewriting the same paths would make the file system flush the
        replaced files on close (ext4 does), which is not the program's
        cost and made the timings noisier.
        """
        self.attempted += 1
        self.op_dir = os.path.join(self.work, f"op{self.attempted}")
        checks = Checks()
        try:
            os.makedirs(self.op_dir)
            with self.rec.span(root, items):
                after = body(checks)
            if after is not None:
                after(checks)
        except Exception:  # a pass that raises counts as failed; keep measuring
            checks.failures.append(traceback.format_exc(limit=4))
        finally:
            shutil.rmtree(self.op_dir, ignore_errors=True)
        if checks.failures:
            self.failed += 1
            self.failures.extend(f"{root} {self.attempted}: {f}" for f in checks.failures)

    def run_setup(self) -> None:
        self._operation("setup", self.setup)

    def pass_items(self) -> int:
        """The work items the next pass handles."""
        return 1

    def run_pass(self, traced: bool) -> None:
        self._operation("pass", lambda checks: self.one_pass(checks, traced), self.pass_items())


# -- model workloads -------------------------------------------------------------


class ModelWorkload(Workload):
    """quick_ci / paper_cd: synth set-up, then train, checkpoint, predict, report."""

    throughput_span = "training.train"

    def __init__(self, name: str, seed: int, work: str, rec, sizes: dict | None = None):
        super().__init__(seed, work, rec)
        self.name = name
        self.sizes = sizes or {}
        self.cfg = cfgmod.load_config(None, dict(inputs.MODEL_WORKLOADS[name], seed=seed, **self.sizes))
        self.hash = cfgmod.config_hash(self.cfg)
        self.mcfg = cfgmod.model_config(self.cfg)
        self.tcfg = cfgmod.train_config(self.cfg)

    def setup(self, checks: Checks):
        """What `swhnet synth` and `swhnet train` do before the first step,
        plus one forward/backward warm-up step on a fresh model."""
        rec, cfg = self.rec, self.cfg
        spec = cfgmod.synth_spec(cfg)
        with rec.span("synth.generate", spec.n_samples):
            samples = synth.generate(spec)
        path = os.path.join(self.op_dir, "samples.jsonl")
        manifest = {"config_hash": self.hash, "source": "synth", "width": spec.width,
                    "height": spec.height, "ap_columns": list(cfgmod.AP_COLUMNS),
                    "k_ap": len(cfgmod.AP_COLUMNS), "include_wind": False, "seed": spec.seed,
                    "standardization": None, "qc_tally": None, "split_spec": None}
        with rec.span("pipeline.write_samples", len(samples)):
            pipeline.write_samples(path, samples, manifest)
        self.facts["sample_bytes"] = os.path.getsize(path)
        self.facts["sample_count"] = len(samples)
        with rec.span("pipeline.read_samples", len(samples)):
            back, _ = pipeline.read_samples(path)
        checks.expect(samples_equal(samples, back), "samples read back differ from samples written")

        splits, tally = pipeline.split_dataset(back, cfgmod.split_spec(cfg))
        for name in ("train", "val", "test"):
            checks.expect(tally[name] == cfg[f"{name}_subsample"] == len(splits[name]),
                          f"{name} split holds {tally[name]} samples, not {cfg[f'{name}_subsample']}")
        self.stats = pipeline.compute_ap_stats(splits["train"], include_wind=False)
        self.data = {}
        for name in ("train", "val", "test"):
            with rec.span("training.to_model_dataset", len(splits[name])):
                self.data[name] = training.to_model_dataset(splits[name], self.stats, False)

        with rec.span("model.build"):
            self.model = WaveHeightModel(self.mcfg)
        batch = self.data["train"]
        b = min(self.tcfg.batch_size, len(batch))
        with rec.span("training.warmup_step", b):
            rng = np.random.default_rng([self.seed, 2])
            preds = [self.model.forward(batch.ddms[i], batch.aps[i], train=True, rng=rng) for i in range(b)]
            batch_loss(preds, batch.refs[:b], self.tcfg.delta).backward()
            self.model.bag.zero_grad()
        self.init_state = self.model.bag.state_arrays()

    def one_pass(self, checks: Checks, traced: bool):
        rec, cfg, model = self.rec, self.cfg, self.model
        train_ds, val_ds, test_ds = self.data["train"], self.data["val"], self.data["test"]
        model.bag.load_state_arrays(self.init_state)
        tracer = composed.Tracer(rec, self.facts.setdefault("graphs", [])) if traced else None
        with tracer or contextlib.nullcontext():
            if tracer:
                tracer.watch(model)
            with rec.span("training.train", self.tcfg.max_epochs * len(train_ds)):
                result = training.train(model, train_ds, val_ds, self.tcfg, config_hash=self.hash)
        ckpt = os.path.join(self.op_dir, "checkpoint.json")
        meta = {"epoch": result.best_meta.epoch, "val_rmse": result.best_meta.val_rmse,
                "val_rmse_avg": result.best_meta.val_rmse_avg, "config_hash": self.hash}
        with rec.span("checkpoint.save"):
            checkpoint.save_checkpoint(ckpt, model, state=result.best_state,
                                       standardization=self.stats, meta=meta)
        with rec.span("checkpoint.load"):
            loaded, stats, _ = checkpoint.load_checkpoint(ckpt)
        with tracer or contextlib.nullcontext():
            if tracer:
                tracer.watch(loaded)
            with rec.span("training.predict", len(test_ds)):
                preds = training.predict(loaded, test_ds)
        out = os.path.join(self.op_dir, "report")
        os.makedirs(out)
        with rec.span("metrics.report"):
            pairs = {c + 1: (preds[:, c], test_ds.refs[:, c]) for c in range(4)}
            rep = metrics.report(pairs, bin_edges=cfg["report_bin_edges"], config_hash=self.hash)
            rep.write_json(os.path.join(out, "metrics.json"))
            rep.write_csv(os.path.join(out, "metrics.csv"))
        with rec.span("metrics.exports"):
            rep.write_binned_csv(os.path.join(out, "metrics_binned.csv"))
            metrics.export_scatter(preds.ravel(), test_ds.refs.ravel(), os.path.join(out, "scatter"),
                                   bin_width=cfg["scatter_bin_width"], config_hash=self.hash)
            metrics.export_bias_grid(test_ds.lats.ravel(), test_ds.lons.ravel(), preds.ravel(),
                                     test_ds.refs.ravel(), os.path.join(out, "bias_grid.csv"),
                                     cell_deg=cfg["bias_cell_deg"], config_hash=self.hash)

        def after(checks: Checks):
            outcome = (result.history, result.best_meta,
                       {k: v.tobytes() for k, v in result.best_state.items()}, preds.tobytes())
            if traced:
                checks.expect(composed.forward_matches(model, train_ds.ddms[0], train_ds.aps[0],
                                                       np.random.default_rng([self.seed, 3])),
                              "composed forward differs from WaveHeightModel.forward")
                checks.expect(outcome == self.untraced_outcome,
                              "traced pass differs from the untraced pass (history, best state or predictions)")
            else:
                self.untraced_outcome = outcome
            self.facts["checkpoint_bytes"] = os.path.getsize(ckpt)
            self.facts["val_rmse_avg"] = result.best_meta.val_rmse_avg
            in_memory = training.predict(model, test_ds)
            checks.expect(preds.tobytes() == in_memory.tobytes(),
                          "predictions from the reloaded checkpoint differ from the in-memory model's")
            checks.expect(stats == self.stats, "standardization statistics changed in the checkpoint")
            checks.expect(bool(np.all(np.isfinite(preds))), "non-finite predictions")
            checks.expect(all(math.isfinite(v) for row in result.history for k, v in row.items() if k != "epoch"),
                          "non-finite training history")
            checks.expect(len(result.history) == self.tcfg.max_epochs, "training stopped early")
            checks.expect(rep.n == 4 * len(test_ds), "metrics report counts the wrong number of pairs")
        return after

    def train_and_predict(self) -> tuple[float, np.ndarray]:
        """val_rmse_avg and test predictions of a training run from the initial state."""
        self.model.bag.load_state_arrays(self.init_state)
        result = training.train(self.model, self.data["train"], self.data["val"], self.tcfg,
                                config_hash=self.hash)
        return result.best_meta.val_rmse_avg, training.predict(self.model, self.data["test"])

    def run_reference(self) -> None:
        """Train and predict at the reference seed and sizes, and compare
        val_rmse_avg and the test predictions with reference.json."""
        def body(checks: Checks):
            figures, failures = reference_figures(self.name, os.path.join(self.op_dir, "reference"))
            checks.failures.extend(failures)
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                expected = json.load(fh)[self.name]
            for key, got in figures.items():
                checks.expect(np.allclose(got, expected[key], rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL),
                              f"{key} at the reference seed is {got}, not {expected[key]} (reference.json)")
        self._operation("reference", body)


def reference_figures(name: str, work: str) -> tuple[dict, list[str]]:
    """The figures reference.json holds for `name`, and the set-up's failures."""
    os.makedirs(work)
    ref = ModelWorkload(name, inputs.REFERENCE_SEED, work, SpanRecorder("reference"),
                        inputs.REFERENCE_SIZES[name])
    ref.run_setup()
    rmse, preds = ref.train_and_predict()
    return {"val_rmse_avg": rmse, "test_predictions": preds.tolist()}, ref.failures


# -- ingest ----------------------------------------------------------------------


def add_tallies(first: dict, *rest: dict) -> dict:
    """Sum stage tallies (nested dicts of counts) key by key."""
    total = first
    for other in rest:
        total = {k: add_tallies(v, other[k]) if isinstance(v, dict) else v + other[k]
                 for k, v in total.items()}
    return total


class IngestWorkload(Workload):
    """preprocess -> match-era5 -> match-buoy over seeded L1 JSONL; no model.

    A pass ingests one of the L1 files; passes take the files in turn.
    """

    def __init__(self, seed: int, work: str, rec):
        super().__init__(seed, work, rec)
        self.cfg = cfgmod.load_config(None, {"seed": seed})
        self.grid_path = inputs.grid_path(work)
        self.buoy_path = inputs.buoy_path(work)
        # A child process writes the inputs, so that their generation does
        # not count in this process's peak memory.
        out = subprocess.run([sys.executable, inputs.__file__, str(seed), work],
                             capture_output=True, text=True, check=True)
        self.planted = json.loads(out.stdout)
        self.passes = 0
        self.shard_tallies: dict[int, dict] = {}

    def pass_items(self) -> int:
        return self.planted["shards"][self.passes % len(self.planted["shards"])]["records"]

    def setup(self, checks: Checks):
        """Load the reference data the matchers need."""
        with self.rec.span("pipeline.read_era5_grid"):
            self.grid = pipeline.read_era5_grid(self.grid_path)
        with self.rec.span("pipeline.read_buoys"):
            self.buoys = pipeline.read_buoys(self.buoy_path)
        checks.expect(len(self.buoys) == self.planted["buoys"], "buoy rows lost on reading")
        checks.expect(self.grid.lons[0] == -180.0 and self.grid.lons[-1] == 179.5,
                      "grid does not span all longitudes")

    def _manifest(self, source: str, stats, tallies) -> dict:
        return {"config_hash": "", "source": source, "width": inputs.INGEST_WIDTH,
                "height": inputs.INGEST_HEIGHT, "ap_columns": list(cfgmod.AP_COLUMNS),
                "k_ap": len(cfgmod.AP_COLUMNS), "include_wind": False, "seed": self.seed,
                "standardization": stats, "qc_tally": tallies, "split_spec": None}

    def one_pass(self, checks: Checks, traced: bool):
        shard = self.passes % len(self.planted["shards"])
        self.passes += 1
        rec, planted = self.rec, self.planted["shards"][shard]
        groups_path = os.path.join(self.op_dir, "groups.jsonl")
        era5_path = os.path.join(self.op_dir, "samples.jsonl")
        buoy_path = os.path.join(self.op_dir, "buoy_samples.jsonl")

        with rec.span("pipeline.read_l1", planted["records"]):
            docs = pipeline.read_l1_records(inputs.l1_path(self.work, shard))
        with rec.span("pipeline.qc", len(docs)):
            kept, qc = pipeline.quality_control(docs)
        with rec.span("pipeline.align", len(kept)):
            groups, align = pipeline.align_channels(kept)
        with rec.span("pipeline.write_groups", len(groups)):
            pipeline.write_groups(groups_path, groups, {"qc": qc, "align": align})
        with rec.span("pipeline.read_groups", len(groups)):
            back_groups = pipeline.read_groups(groups_path)
        with rec.span("pipeline.match_era5", len(back_groups)):
            era5, era5_tally = pipeline.match_era5_groups(back_groups, self.grid)
        with rec.span("pipeline.finish_samples"):
            capped, cap = pipeline.cap_and_filter(era5)
            splits, split_tally = pipeline.split_dataset(capped, cfgmod.split_spec(self.cfg))
            stats = pipeline.compute_ap_stats(splits["train"], include_wind=False) if splits["train"] else None
        with rec.span("pipeline.write_samples", len(capped)):
            pipeline.write_samples(era5_path, capped, self._manifest(
                "era5", stats, {"match": era5_tally, "cap": cap, "split": split_tally}))
        with rec.span("pipeline.match_buoy", len(back_groups)):
            buoy, buoy_tally = pipeline.match_buoy_groups(back_groups, self.buoys)
        with rec.span("pipeline.finish_samples"):
            buoy_capped, buoy_cap = pipeline.cap_and_filter(buoy)
        with rec.span("pipeline.write_samples", len(buoy_capped)):
            pipeline.write_samples(buoy_path, buoy_capped, self._manifest(
                "buoy", None, {"match": buoy_tally, "cap": buoy_cap}))
        with rec.span("pipeline.read_samples", len(capped)):
            back, _ = pipeline.read_samples(era5_path)

        def after(checks: Checks):
            self.facts["sample_bytes"] = os.path.getsize(era5_path)
            self.facts["sample_count"] = len(capped)
            tallies = {"qc": qc, "align": align, "era5": era5_tally, "cap": cap,
                       "buoy": buoy_tally, "timestamps_kept": len({r.timestamp for r in kept})}
            self.shard_tallies[shard] = tallies
            self.facts["tallies"] = add_tallies(*self.shard_tallies.values())
            rejected = sum(qc[r] for r in pipeline.QC_RULES) + qc["malformed"]
            checks.expect(qc["input"] == len(docs) == planted["records"], "QC input count is not the record count")
            checks.expect(qc["kept"] + rejected == qc["input"], "QC kept plus rejected differs from input")
            checks.expect(all(qc[r] == n for r, n in planted["qc_planted"].items()) and qc["malformed"] == 0,
                          f"QC tallies {qc} differ from the planted violations {planted['qc_planted']}")
            checks.expect(align["groups"] + align["incomplete_channels"] + align["duplicate_channel"]
                          == tallies["timestamps_kept"],
                          "aligned plus rejected groups differ from the kept timestamps")
            checks.expect(groups_equal(groups, back_groups), "groups read back differ from groups written")
            checks.expect(era5_tally["matched"] + era5_tally["outside_grid"] + era5_tally["masked_node"]
                          == len(back_groups), "era5 matched plus rejected differs from the group count")
            checks.expect(cap["kept"] + cap["swh_above_cap"] == len(era5), "cap kept plus dropped differs")
            checks.expect(buoy_cap["kept"] + buoy_cap["swh_above_cap"] == len(buoy), "buoy cap differs")
            checks.expect(buoy_tally["matched"] + buoy_tally["unmatched_channel"] == len(back_groups),
                          "buoy matched plus unmatched differs from the group count")
            checks.expect(buoy_tally["matched"] > 0, "no group matched a buoy")
            checks.expect(samples_equal(capped, back), "samples read back differ from samples written")
        return after
