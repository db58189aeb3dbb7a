"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The training-based criteria use desk-scale learning rates; the
architecture, objective, and data knobs are the documented defaults.
"""

import json
import time

import numpy as np

from swhnet import autodiff as ad
from swhnet.autodiff import Tensor, count_params
from swhnet.cli import main as cli_main
from swhnet.config import ModelConfig, SplitSpec, SynthSpec, TrainConfig
from swhnet.encoder import DdmEncoder, positional_encoding
from swhnet.metrics import METRIC_NAMES, report
from swhnet.model import WaveHeightModel, batch_loss
from swhnet.pipeline import (BuoyRecord, Era5Grid, cap_and_filter,
                             compute_ap_stats, interpolate_swh,
                             parse_time, quality_control, split_dataset)
from swhnet.synth import generate
from swhnet.training import AdamW, to_model_dataset, train

from oracles import encoder_layer_oracle, finite_difference_grad, huber_value, layer_weight_arrays, max_rel_error
from test_metrics import naive_metrics
from test_pipeline import VIOLATIONS, make_records, match_buoy_record, record_doc, sample_with_refs


def gate(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def toy_model_config(strategy, seed=0, dropout=0.0, head_width=16):
    # head_width 8 keeps the finite-difference sweep inside its runtime
    # budget; 16 keeps the deep ReLU head from severing under random draws
    return ModelConfig(width=6, height=6, patch_size=3, embed_dim=2, n_layers=1,
                       d_ff=16, dropout_p=dropout, strategy=strategy,
                       head_hidden=[head_width] * 9, seed=seed)


def toy_inputs(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 3, cfg.width, cfg.height)), rng.normal(size=(4, cfg.k_ap))


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    t0 = time.time()
    cfg = toy_model_config("CD", head_width=8)
    model = WaveHeightModel(cfg)
    # evaluate away from ReLU kinks: a finite-difference step crossing a
    # kink measures the subgradient gap, not a gradient error
    for name, p in model.bag.items():
        if name.startswith("head.") and name.endswith(".b"):
            p.data[...] += 0.1
    inputs = [toy_inputs(cfg, seed=10 + i) for i in range(2)]
    refs = np.random.default_rng(9).uniform(1.0, 3.0, size=(2, 4))

    def loss_tensor():
        preds = [model.forward(d, a, train=False) for d, a in inputs]
        return batch_loss(preds, refs, 2.0)

    loss = loss_tensor()
    loss.backward()
    params = list(model.bag.values())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def f():
        with ad.no_grad():
            return loss_tensor().item()

    numeric = finite_difference_grad(f, [p.data for p in params], step=1e-4)
    worst = max(max_rel_error(a, n) for a, n in zip(analytic, numeric))
    elapsed = time.time() - t0
    gate(1, "gradient correctness", worst < 1e-4 and elapsed < 60.0,
         f"{count_params(model.bag)} parameters, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ci_isolation():
    cfg = toy_model_config("CI", seed=3)
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(2)
    ddm, ap = toy_inputs(cfg, seed=4)
    base = model.predict_sample(ddm, ap)
    violations = 0
    for _ in range(100):
        j = int(rng.integers(0, 4))
        ddm2, ap2 = ddm.copy(), ap.copy()
        ddm2[j] += rng.normal(size=(3, cfg.width, cfg.height))
        ap2[j] += rng.normal(size=cfg.k_ap)
        out = model.predict_sample(ddm2, ap2)
        if out[j] == base[j]:
            violations += 1
        for i in range(4):
            if i != j and out[i] != base[i]:
                violations += 1
    gate(2, "CI isolation", violations == 0,
         f"100 trials, {violations} cross-channel changes (bit-level comparison)")


def test_criterion_03_cd_coupling():
    rng = np.random.default_rng(5)
    h = 1e-5
    failures = 0
    for trial in range(20):
        cfg = toy_model_config("CD", seed=trial)
        model = WaveHeightModel(cfg)
        # keep the deep ReLU head alive: an all-dead random draw has zero
        # Jacobian for every channel and says nothing about coupling
        for name, p in model.bag.items():
            if name.startswith("head.") and name.endswith(".b"):
                p.data[...] += 0.1
        ddm, ap = toy_inputs(cfg, seed=100 + trial)
        j = int(rng.integers(0, 4))
        d_dir = rng.normal(size=(3, cfg.width, cfg.height))
        a_dir = rng.normal(size=cfg.k_ap)
        up_d, dn_d = ddm.copy(), ddm.copy()
        up_a, dn_a = ap.copy(), ap.copy()
        up_d[j] += h * d_dir
        dn_d[j] -= h * d_dir
        up_a[j] += h * a_dir
        dn_a[j] -= h * a_dir
        diff = (model.predict_sample(up_d, up_a) - model.predict_sample(dn_d, dn_a)) / (2 * h)
        cross = [abs(diff[i]) for i in range(4) if i != j]
        if max(cross) <= 1e-9:
            failures += 1
    gate(3, "CD coupling", failures == 0,
         f"20 trials with random weights, {failures} without cross-channel sensitivity")


def test_criterion_04_encoder_oracle_equivalence():
    worst = 0.0
    for strategy in ("CI", "CD"):
        cfg = ModelConfig(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                          d_ff=8, dropout_p=0.0, strategy=strategy, seed=11)
        bag = ad.ParamBag()
        enc = DdmEncoder(cfg, bag, np.random.default_rng(11))
        bag.seal()
        rng = np.random.default_rng(6)
        for m in (1, 2, 3, 4):
            tokens = rng.normal(size=(m, 4))
            ours = enc.layer_forward(Tensor(tokens), enc.layers[0], False, None).data
            oracle = encoder_layer_oracle(tokens, layer_weight_arrays(enc, 0), strategy)
            worst = max(worst, float(np.max(np.abs(ours - oracle))))
    gate(4, "encoder oracle equivalence", worst < 1e-10,
         f"straight-line loop oracle, M in 1..4, both strategies, worst |diff| {worst:.2e}")


def test_criterion_05_huber_exactness():
    expected = {0.0: 0.0, 1.0: 0.5, -1.0: 0.5, 2.0: 2.0, -2.0: 2.0, 3.0: 4.0, -3.0: 4.0}
    value_ok = all(huber_value(0.0, e, 2.0) == v for e, v in expected.items())
    # derivative continuity at the branch joint via reverse-mode gradients
    gaps = []
    for e in (2.0, -2.0):
        grads = []
        for offset in (-1e-12, 1e-12):
            t = Tensor([e + offset], requires_grad=True)
            ad.huber(t, 2.0).backward()
            grads.append(t.grad[0])
        gaps.append(abs(grads[0] - grads[1]))
    deriv_ok = max(gaps) < 1e-9
    gate(5, "huber exactness", value_ok and deriv_ok,
         f"closed-form values at e in 0,±1,±2,±3; derivative gap {max(gaps):.2e} at |e|=delta")


def test_criterion_06_positional_encoding():
    import mpmath
    mpmath.mp.dps = 30
    pe = positional_encoding(300, 10)
    exact_zero = np.array_equal(pe[0, 0::2], np.zeros(5))
    exact_one = np.array_equal(pe[0, 1::2], np.ones(5))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        pos = int(rng.integers(0, 300))
        d = int(rng.integers(0, 5))
        angle = mpmath.mpf(pos) / mpmath.power(10000, mpmath.mpf(2 * d) / 10)
        worst = max(worst,
                    abs(pe[pos, 2 * d] - float(mpmath.sin(angle))),
                    abs(pe[pos, 2 * d + 1] - float(mpmath.cos(angle))))
    gate(6, "positional encoding", exact_zero and exact_one and worst < 1e-12,
         f"position 0 exact, 100 random (pos, d) pairs worst err {worst:.2e}")


def test_criterion_07_pipeline_conformance():
    problems = []
    records = [record_doc()] + [record_doc(**over) for over in VIOLATIONS.values()]
    kept, tally = quality_control(records)
    if len(kept) != 1:
        problems.append(f"kept {len(kept)} of the QC suite")
    for rule in VIOLATIONS:
        if tally[rule] != 1:
            problems.append(f"tally[{rule}] = {tally[rule]}")
    # boundary: roll exactly 30 degrees stays
    kept, _ = quality_control([record_doc(flags={"roll_deg": 30.0})])
    if len(kept) != 1:
        problems.append("roll=30.0 rejected")
    # channel alignment drops incomplete timestamps
    from swhnet.pipeline import align_channels
    groups, atally = align_channels(make_records(1.0, [1, 2, 3, 4]) + make_records(2.0, [1, 2, 4]))
    if len(groups) != 1 or atally["incomplete_channels"] != 1:
        problems.append("alignment mishandled incomplete timestamp")
    # SWH cap boundary: exactly 8.0 kept
    kept_s, ctally = cap_and_filter([sample_with_refs([8.0] * 4), sample_with_refs([7.0, 7.0, 7.0, 8.1])])
    if len(kept_s) != 1 or ctally["swh_above_cap"] != 1:
        problems.append("cap boundary mishandled")
    # buoy thresholds: 25 km and 30 min inclusive
    rec = quality_control([record_doc()])[0][0]
    t = rec.timestamp
    edge_km = BuoyRecord("d", rec.sp_lat + 24.99 / 111.195, rec.sp_lon, t, 1.0)
    edge_t = BuoyRecord("t", rec.sp_lat, rec.sp_lon, t + 30 * 60.0, 1.0)
    beyond_km = BuoyRecord("D", rec.sp_lat + 25.5 / 111.195, rec.sp_lon, t, 1.0)
    beyond_t = BuoyRecord("T", rec.sp_lat, rec.sp_lon, t + 31 * 60.0, 1.0)
    if match_buoy_record(rec, [edge_km]) is not edge_km or match_buoy_record(rec, [edge_t]) is not edge_t:
        problems.append("boundary buoy candidates not matched")
    if match_buoy_record(rec, [beyond_km]) is not None or match_buoy_record(rec, [beyond_t]) is not None:
        problems.append("out-of-threshold buoy candidates matched")
    gate(7, "pipeline conformance", not problems, "; ".join(problems) or
         "per-rule tallies, alignment, and boundary cases as documented")


def test_criterion_08_interpolation_oracle():
    t0 = parse_time("2019-09-01")
    times = t0 + 3600.0 * np.arange(8)
    lats = np.arange(-10.0, 10.5, 0.5)
    lons = np.arange(100.0, 120.5, 0.5)
    a, b, c, const = 0.03, 0.015, 1e-9, 0.7
    swh = np.zeros((times.size, lats.size, lons.size))
    for k, t in enumerate(times):
        swh[k] = const + a * lats[:, None] + b * lons[None, :] + c * t
    grid = Era5Grid(times=times, lats=lats, lons=lons, swh=swh,
                    mask=np.zeros((lats.size, lons.size), dtype=bool))
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        lat = rng.uniform(-10.0, 10.0)
        lon = rng.uniform(100.0, 120.0)
        t = rng.uniform(times[0], times[-1])
        expected = const + a * lat + b * lon + c * t
        worst = max(worst, abs(interpolate_swh(grid, lat, lon, t)[0] - expected))
    gate(8, "interpolation oracle", worst < 1e-10,
         f"affine field, 1000 random query points, worst err {worst:.2e}")


def test_criterion_09_metrics_oracle():
    # The per-channel cells of `report`, which every command writes, four
    # pairs to a report.
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(100):
        n = int(rng.integers(2, 200))
        pairs.append((rng.uniform(0.05, 8.0, size=n), rng.uniform(0.05, 8.0, size=n)))
    worst = 0.0
    chain_ok = True
    for k in range(0, len(pairs), 4):
        rep = report({chn: pairs[k + chn - 1] for chn in (1, 2, 3, 4)})
        for chn in (1, 2, 3, 4):
            pred, ref = pairs[k + chn - 1]
            cell = rep.per_channel[chn]
            exp = naive_metrics(pred.tolist(), ref.tolist())
            got = tuple(cell[m] for m in METRIC_NAMES)
            worst = max(worst, max(abs(g - e) for g, e in zip(got, exp)))
            if not (got[0] >= got[1] - 1e-12 and got[1] >= abs(got[2]) - 1e-12):
                chain_ok = False
    gate(9, "metrics oracle", worst < 1e-12 and chain_ok,
         f"100 random pairs, worst |diff| {worst:.2e}, rmse>=mae>=|bias| {'held' if chain_ok else 'violated'}")


def test_criterion_10_overfit_capability():
    t0 = time.time()
    spec = SynthSpec(n_samples=64, width=6, height=6, seed=42, noise_sd=0.05,
                     channel_corr=0.9, planted_signal=True)
    samples = generate(spec)
    stats = compute_ap_stats(samples, include_wind=False)
    ds = to_model_dataset(samples, stats, False)
    model = WaveHeightModel(toy_model_config("CD", seed=0))
    opt = AdamW(model.bag, lr=3e-3, weight_decay=1e-5)
    rng = np.random.default_rng(1)
    n = len(ds)
    reached = None
    step_losses = []
    for step in range(1, 2001):
        idx = rng.choice(n, size=16, replace=False)
        model.bag.zero_grad()
        preds = [model.forward(ds.ddms[i], ds.aps[i], train=True, rng=rng) for i in idx]
        loss = batch_loss(preds, ds.refs[idx], 2.0)
        loss.backward()
        opt.step()
        step_losses.append(loss.item())
        if step % 50 == 0:
            with ad.no_grad():
                full = batch_loss([model.forward(ds.ddms[i], ds.aps[i]) for i in range(n)],
                                  ds.refs, 2.0).item()
            if full < 0.01:
                reached = (step, full)
                break
    # sanity: the 10-step-smoothed loss curve is non-increasing up to small
    # wobble at the convergence floor (not strict monotonicity)
    windows = [float(np.mean(step_losses[k:k + 10])) for k in range(0, len(step_losses) - 9, 10)]
    smooth_ok = all(b <= a * 1.25 + 1e-4 for a, b in zip(windows, windows[1:]))
    elapsed = time.time() - t0
    gate(10, "overfit capability", reached is not None and smooth_ok and elapsed < 600.0,
         f"training loss {reached[1]:.4f} < 0.01 at step {reached[0]}, smoothed curve "
         f"non-increasing, {elapsed:.0f}s"
         if reached else f"loss never fell below 0.01 within 2000 steps ({elapsed:.0f}s)")


def test_criterion_11_strategy_ordering(tmp_path):
    t0 = time.time()
    spec = SynthSpec(n_samples=240, width=6, height=6, seed=100, noise_sd=0.15,
                     channel_corr=0.9, planted_signal=True)
    samples = generate(spec)
    splits, _ = split_dataset(samples, SplitSpec())
    stats = compute_ap_stats(splits["train"], include_wind=False)
    tr = to_model_dataset(splits["train"], stats, False)
    va = to_model_dataset(splits["val"], stats, False)
    results = {}
    for strategy in ("CD", "CI"):
        per_seed = []
        for seed in (0, 1, 2):
            model = WaveHeightModel(toy_model_config(strategy, seed=seed))
            tcfg = TrainConfig(batch_size=16, max_epochs=8, patience=8, lr=3e-3,
                               weight_decay=1e-5, delta=2.0, seed=seed)
            res = train(model, tr, va, tcfg)
            per_seed.append(res.best_meta.val_rmse_avg)
        results[strategy] = per_seed
    cd_mean = float(np.mean(results["CD"]))
    ci_mean = float(np.mean(results["CI"]))
    ordering_holds = cd_mean <= ci_mean
    doc = {
        "channel_corr": spec.channel_corr,
        "seeds": [0, 1, 2],
        "cd_val_rmse": results["CD"],
        "ci_val_rmse": results["CI"],
        "cd_mean": cd_mean,
        "ci_mean": ci_mean,
        "ordering_holds": ordering_holds,
        "flag": None if ordering_holds else "ORDERING FAILED: CD did not outperform CI",
    }
    report_path = tmp_path / "strategy_ordering.json"
    report_path.write_text(json.dumps(doc, indent=1))
    print(f"      strategy ordering report: {report_path}")
    gate(11, "strategy ordering", ordering_holds,
         f"CD mean {cd_mean:.4f} vs CI mean {ci_mean:.4f} over 3 seeds "
         f"({time.time() - t0:.0f}s); report written")


REPRO_CONFIG = {
    "width": 4, "height": 4, "patch_size": 2, "embed_dim": 2, "n_layers": 1,
    "d_ff": 8, "dropout_p": 0.1, "head_hidden": [8] * 9, "batch_size": 16,
    "max_epochs": 2, "patience": 2, "lr": 0.003, "synth_n_samples": 30,
}


def test_criterion_12_reproducibility(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(REPRO_CONFIG))
    artifacts = {}
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        data = root / "samples.jsonl"
        assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data", str(data),
                         "--out-dir", str(root / "run")]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path), "--data", str(data),
                         "--checkpoint", str(root / "run" / "checkpoint.json"),
                         "--out-dir", str(root / "eval")]) == 0
        artifacts[run] = {
            "samples": data.read_bytes(),  # its header holds the manifest
            "checkpoint": (root / "run" / "checkpoint.json").read_bytes(),
            "history": (root / "run" / "history.csv").read_bytes(),
            "metrics": (root / "eval" / "metrics.json").read_bytes(),
            "predictions": (root / "eval" / "predictions.csv").read_bytes(),
        }
    mismatched = [k for k in artifacts["one"] if artifacts["one"][k] != artifacts["two"][k]]
    gate(12, "reproducibility", not mismatched,
         "byte-identical artifacts across two full runs" if not mismatched
         else f"differing artifacts: {mismatched}")


def test_criterion_13_parameter_count_report():
    counts = {}
    for strategy in ("CI", "CD"):
        model = WaveHeightModel(ModelConfig(strategy=strategy))
        counts[strategy] = count_params(model.bag)
    reference = {"CI": 0.915e6, "CD": 1.966e6}
    print("      parameter counts at the default full-scale configuration (informational):")
    for strategy in ("CI", "CD"):
        print(f"      {strategy}: {counts[strategy]:,} parameters "
              f"(~{counts[strategy] / 1e6:.3f}M; published reference scale "
              f"{reference[strategy] / 1e6:.3f}M)")
    gate(13, "parameter count report", counts["CD"] > counts["CI"] > 0,
         f"CI {counts['CI'] / 1e6:.3f}M, CD {counts['CD'] / 1e6:.3f}M reported for comparison")
