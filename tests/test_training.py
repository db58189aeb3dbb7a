"""Tests for the optimizer, early stopping, the training loop, prediction,
and checkpoint round trips."""

import json
import re
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from swhnet import autodiff as ad
from swhnet.autodiff import ParamBag, count_params
from swhnet import checkpoint, container
from swhnet.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from swhnet.config import ModelConfig, TrainConfig
from swhnet.errors import ConfigError, ContractError, FormatError, NonFiniteError
from swhnet.model import WaveHeightModel
from swhnet import training
from swhnet.training import (ADAMW_SLICE, AdamW, ModelDataset, eval_batch_size, predict, train,
                             validation_rmse)

from damage import as_version_3, record_shape, set_last_value
from oracles import PerParameterAdamW, tsum_node


def toy_model(strategy="CD", seed=0, use_wind=False):
    cfg = ModelConfig(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                      d_ff=8, dropout_p=0.05, strategy=strategy,
                      head_hidden=[8] * 9, seed=seed, use_wind=use_wind)
    return WaveHeightModel(cfg)


def toy_dataset(cfg, n, seed=0, signal=True):
    rng = np.random.default_rng(seed)
    refs = rng.uniform(1.0, 3.0, size=(n, 4))
    ddms = rng.normal(size=(n, 4, 3, cfg.width, cfg.height)) * 0.1
    aps = rng.normal(size=(n, 4, cfg.k_ap)) * 0.1
    if signal:
        # plant the target into the first AP column so the task is learnable
        aps[:, :, 0] = refs
        ddms[:, :, 0, 0, 0] = refs
    return ModelDataset(ddms=ddms, aps=aps, refs=refs,
                        timestamps=np.arange(n, dtype=np.float64),
                        lats=np.zeros((n, 4)), lons=np.zeros((n, 4)))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def scalar_bag(value=1.0):
    bag = ParamBag()
    t = bag.add("p", (1,), value)
    return bag, t


def set_grad(p, g):
    """Give the sealed parameter `p` the gradient `g`, written into its view
    of the bag's gradient buffer as a backward writes it."""
    np.copyto(p._new_grad(), g)


def test_adamw_zero_grad_no_decay_keeps_param():
    bag, t = scalar_bag(1.5)
    opt = AdamW(bag, lr=0.1, weight_decay=0.0)
    set_grad(t, np.zeros(1))
    opt.step()
    assert t.data[0] == 1.5


def test_adamw_single_step_hand_computed():
    # p=1, g=1, lr=0.1, wd=0: m_hat = v_hat = 1 -> p' = 1 - 0.1/(1 + 1e-8)
    bag, t = scalar_bag(1.0)
    opt = AdamW(bag, lr=0.1, weight_decay=0.0)
    set_grad(t, np.ones(1))
    opt.step()
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert t.data[0] == pytest.approx(expected, abs=1e-15)
    assert abs(t.data[0] - 0.9) < 1e-8


def test_adamw_decay_only_shrinks():
    bag, t = scalar_bag(2.0)
    opt = AdamW(bag, lr=0.1, weight_decay=0.5)
    set_grad(t, np.zeros(1))
    opt.step()
    assert t.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_adamw_lr_zero_bit_identical():
    model = toy_model()
    before = model.bag.state_arrays()
    opt = AdamW(model.bag, lr=0.0, weight_decay=0.1)
    for p in model.bag.values():
        set_grad(p, np.ones_like(p.data))
    opt.step()
    for name, arr in model.bag.state_arrays().items():
        assert np.array_equal(arr, before[name])


def test_adamw_missing_grad_rejected():
    bag, t = scalar_bag()
    opt = AdamW(bag, lr=0.1)
    with pytest.raises(ContractError):
        opt.step()


def test_adamw_five_steps_bit_identical_to_textbook_expression():
    # "big" spans two of the slices the in-place step works through.
    shapes = {"big": (3, ADAMW_SLICE // 2 + 7), "mat": (5, 4), "vec": (6,)}
    rng = np.random.default_rng(41)
    bag = ParamBag()
    for name, shape in shapes.items():
        bag.add(name, shape, lambda out: rng.standard_normal(out=out))
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.98, 1e-8
    opt = AdamW(bag, lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
    ref = {name: p.data.copy() for name, p in bag.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 6):
        for name, p in bag.items():
            g = rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-3, 3)
            set_grad(p, g)
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v[name] / (1.0 - b2 ** t)
            ref[name] = ref[name] - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref[name])
        opt.step()
    for name, p in bag.items():
        assert p.data.tobytes() == ref[name].tobytes(), name


def quick_start_model(strategy):
    """The README quick-start model."""
    return WaveHeightModel(ModelConfig(width=6, height=6, patch_size=3, embed_dim=2, n_layers=1,
                                       d_ff=16, dropout_p=0.0, head_hidden=[16] * 9,
                                       strategy=strategy))


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_adamw_five_training_steps_byte_equal_to_per_parameter_oracle(strategy):
    models = [quick_start_model(strategy) for _ in range(2)]
    opts = [AdamW(models[0].bag, lr=0.003, weight_decay=1e-5),
            PerParameterAdamW(models[1].bag, lr=0.003, weight_decay=1e-5, slice_len=ADAMW_SLICE)]
    data = toy_dataset(models[0].cfg, 48, seed=6)
    for model, opt in zip(models, opts):
        rng = np.random.default_rng(7)
        for _ in range(5):
            training._train_step(model, opt, data, rng.choice(len(data), 16, replace=False), rng, 2.0)
    assert models[0].bag.data.tobytes() == models[1].bag.data.tobytes()
    for (name, a), b in zip(models[0].bag.items(), models[1].bag.values()):
        assert a.data.tobytes() == b.data.tobytes(), name


# ---------------------------------------------------------------------------
# the flat parameter and gradient buffers
# ---------------------------------------------------------------------------


def test_parameters_and_their_gradients_view_the_bag_buffers():
    # A built model has no gradient buffer until one is asked for, as an
    # optimizer does, and then always the same one.
    model = toy_model()
    bag = model.bag
    assert bag.grad is None
    assert bag.grad_buffer() is bag.grad_buffer() is bag.grad
    assert bag.data.size == bag.grad.size == count_params(bag)
    assert bag.data.tobytes() == b"".join(arr.tobytes() for arr in bag.state_arrays().values())
    data = toy_dataset(model.cfg, 3)
    preds = model.forward_batch(data.ddms, data.aps, train=True, rng=np.random.default_rng(0))
    training.batch_loss(preds, data.refs, 2.0).backward()
    for name, p in bag.items():
        assert np.shares_memory(p.data, bag.data), name
        assert np.shares_memory(p.grad, bag.grad), name


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_a_backward_after_zero_grad_repeats_the_gradients(strategy):
    # Each first gradient overwrites its stale buffer entries, those that
    # `split` sums into (the CI AP embedding's kernel and bias) included.
    model = toy_model(strategy)
    model.bag.grad_buffer()
    data = toy_dataset(model.cfg, 3)
    grads = []
    for _ in range(2):
        model.bag.zero_grad()
        training.batch_loss(model.forward_batch(data.ddms, data.aps), data.refs, 2.0).backward()
        grads.append(model.bag.grad.copy())
    assert grads[0].tobytes() == grads[1].tobytes()


def test_state_arrays_are_copies():
    bag = toy_model().bag
    before = bag.data.tobytes()
    for arr in bag.state_arrays().values():
        arr += 1.0
    assert bag.data.tobytes() == before


def test_state_arrays_are_views_of_one_flat_copy():
    bag = toy_model().bag
    state = bag.state_arrays()
    params = dict(bag.items())
    base = state[next(iter(params))].base
    assert all(arr.base is base for arr in state.values())
    assert base is not bag.data and base.nbytes == bag.data.nbytes
    assert base.tobytes() == bag.data.tobytes()
    assert list(state) == list(params) and all(state[k].shape == params[k].data.shape for k in state)


def test_load_state_arrays_keeps_the_views_and_checks_every_array_first():
    bag = toy_model(seed=1).bag
    views = {name: p.data for name, p in bag.items()}
    other = toy_model(seed=2).bag.state_arrays()
    bag.load_state_arrays(other)
    for name, p in bag.items():
        assert p.data is views[name]
        assert p.data.tobytes() == other[name].tobytes()
    loaded = bag.data.tobytes()
    first, *_, last = dict(bag.items())
    bad_sets = [({k: v for k, v in other.items() if k != last}, ConfigError, "missing"),
                ({**other, "extra": np.zeros(1)}, ConfigError, "unexpected"),
                ({**other, last: np.zeros(other[last].size + 1)}, ConfigError, f"shape mismatch for {last}"),
                ({**other, last: np.full(other[last].shape, np.inf)}, NonFiniteError, last)]
    for state, error, match in bad_sets:
        state = {**state, first: other[first] + 1.0}  # loaded only if every array is good
        with pytest.raises(error, match=match):
            bag.load_state_arrays(state)
        assert bag.data.tobytes() == loaded


def test_add_to_a_sealed_bag_rejected():
    bag, _ = scalar_bag()
    AdamW(bag, lr=0.1)  # seals a bare bag
    with pytest.raises(ContractError, match="sealed"):
        bag.add("q", (2,), 0.0)
    with pytest.raises(ContractError, match="sealed"):
        toy_model().bag.add("q", (2,), 0.0)


def test_adamw_rejects_a_parameter_the_backward_never_reached():
    # The first step writes both gradients into the buffer; after zero_grad
    # the second backward reaches only "a", and b's stale buffer entries
    # must not stand in for its gradient.
    bag = ParamBag()
    a = bag.add("a", (3,), 1.0)
    b = bag.add("b", (2,), 1.0)
    opt = AdamW(bag, lr=0.1)
    tsum_node(ad.add(tsum_node(a), tsum_node(b))).backward()
    opt.step()
    bag.zero_grad()
    tsum_node(a).backward()
    with pytest.raises(ContractError, match="missing gradient for b"):
        opt.step()


def test_adamw_rejects_a_gradient_that_is_not_the_buffer_view():
    # A step updates the gradient buffer only: a gradient array of its own
    # would be skipped, so it is refused by name.
    bag, t = scalar_bag()
    opt = AdamW(bag, lr=0.1)
    t.grad = np.ones(1)
    with pytest.raises(ContractError, match="gradient of p is not its view"):
        opt.step()
    assert t.data[0] == 1.0


def test_adamw_rejects_a_parameter_rebound_away_from_the_buffer():
    bag, t = scalar_bag()
    opt = AdamW(bag, lr=0.1)
    t.data = np.ones(1)
    t.grad = np.ones(1)
    with pytest.raises(ContractError, match="no longer views"):
        opt.step()


# ---------------------------------------------------------------------------
# train loop and early stopping
# ---------------------------------------------------------------------------


def small_tcfg(**kw):
    base = dict(batch_size=8, max_epochs=4, patience=4, lr=3e-3,
                weight_decay=1e-5, delta=2.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def train_on_scripted_averages(monkeypatch, avgs, **tcfg):
    """`train` on a toy model whose epochs validate, in turn, at the
    average RMSEs `avgs` (equal on every channel)."""
    scripted = iter(avgs)
    monkeypatch.setattr(training, "validation_rmse", lambda model, val: np.full(4, next(scripted)))
    model = toy_model()
    ds = toy_dataset(model.cfg, 8, seed=1)
    return train(model, ds, ds, small_tcfg(**tcfg))


def test_train_stops_after_patience_epochs_without_improvement(monkeypatch):
    result = train_on_scripted_averages(monkeypatch, [0.5, 0.4] + [0.41] * 20, max_epochs=75, patience=15)
    assert result.history[-1]["epoch"] == 17  # improvement at epoch 2 + 15 stale epochs
    assert result.best_meta.epoch == 2
    assert result.best_meta.val_rmse_avg == 0.4


def test_train_on_a_monotone_run_runs_out_its_epochs(monkeypatch):
    # A patience of 1 stops at the first epoch that does not improve.
    result = train_on_scripted_averages(monkeypatch, [1.0 / epoch for epoch in range(1, 76)],
                                        max_epochs=75, patience=1)
    assert [row["epoch"] for row in result.history] == list(range(1, 76))
    assert result.best_meta.epoch == 75
    assert result.best_meta.val_rmse_avg == 1.0 / 75


def test_train_returns_best_not_last():
    model = toy_model()
    ds = toy_dataset(model.cfg, 16, seed=1)
    val = toy_dataset(model.cfg, 8, seed=2)
    result = train(model, ds, val, small_tcfg())
    avgs = [row["val_rmse_avg"] for row in result.history]
    assert result.best_meta.val_rmse_avg == pytest.approx(min(avgs))
    # model holds the best state afterwards
    assert validation_rmse(model, val).mean() == pytest.approx(result.best_meta.val_rmse_avg)


@pytest.mark.parametrize("avgs, improving", [([3.0, 2.0, 2.5, 1.0, 1.5], 3), ([float("nan")] * 3, 0),
                                             ([3.0, 2.0, 1.0], 3)])
def test_train_copies_the_state_once_per_improving_epoch(monkeypatch, avgs, improving):
    """Each improving epoch's parameters are copied once, as they were when
    the epoch was validated, and at no other time: before the next epoch's
    first step, or, when the last epoch run is the best, after the loop with
    no AdamW (and its moments) alive; the model then already holds them, so
    nothing is loaded. Otherwise the model ends by loading the last copy.
    With no improving epoch, training fails before copying or loading."""
    model = toy_model()
    ds = toy_dataset(model.cfg, 8, seed=1)
    scripted = iter(avgs)
    validated = []

    def scripted_rmse(model, val):
        validated.append(model.bag.data.copy())
        return np.full(4, next(scripted))

    monkeypatch.setattr(training, "validation_rmse", scripted_rmse)
    optimizers = []
    adamw_init = AdamW.__init__

    def tracked_init(opt, *args, **kwargs):
        adamw_init(opt, *args, **kwargs)
        optimizers.append(weakref.ref(opt))

    monkeypatch.setattr(AdamW, "__init__", tracked_init)
    copies, alive, loads = [], [], []
    state_arrays, load_state_arrays = ParamBag.state_arrays, ParamBag.load_state_arrays

    def counting(bag):
        copies.append(state_arrays(bag))
        alive.append(sum(ref() is not None for ref in optimizers))
        return copies[-1]

    def loading(bag, state):
        loads.append(state)
        load_state_arrays(bag, state)

    monkeypatch.setattr(ParamBag, "state_arrays", counting)
    monkeypatch.setattr(ParamBag, "load_state_arrays", loading)
    tcfg = small_tcfg(max_epochs=len(avgs), patience=len(avgs))
    if not improving:
        with pytest.raises(ContractError):
            train(model, ds, ds, tcfg)
        assert copies == [] and loads == []
        return
    result = train(model, ds, ds, tcfg)
    best = [e for e, a in enumerate(avgs, start=1) if a < min(avgs[:e - 1], default=np.inf)]
    assert len(copies) == len(best) == improving
    assert [b"".join(c[name].tobytes() for name in dict(model.bag.items())) for c in copies] == \
        [validated[e - 1].tobytes() for e in best]
    assert result.best_meta.epoch == best[-1] and result.best_state is copies[-1]
    last_is_best = best[-1] == len(avgs)
    assert alive == [1] * (len(best) - 1) + [0 if last_is_best else 1]
    assert [id(state) for state in loads] == ([] if last_is_best else [id(copies[-1])])
    assert model.bag.data.tobytes() == validated[best[-1] - 1].tobytes()


def test_epoch_log_reports_training_time_and_throughput():
    model = toy_model()
    ds = toy_dataset(model.cfg, 12, seed=1)
    val = toy_dataset(model.cfg, 8, seed=2)
    lines = []
    train(model, ds, val, small_tcfg(max_epochs=2, patience=2), log=lines.append)
    assert len(lines) == 2
    for epoch, line in enumerate(lines, start=1):
        m = re.fullmatch(rf"epoch {epoch}: train_loss=\S+ val_rmse_avg=\S+ "
                         r"train_s=(\d+\.\d{3}) train_samples_per_s=(\d+\.\d)", line)
        assert m, line
        assert float(m.group(2)) > 0.0


def test_failed_report_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "history.csv"
    row = {"epoch": 1, "train_loss": 0.5, "val_rmse_ch1": 1.0, "val_rmse_ch2": 1.0,
           "val_rmse_ch3": 1.0, "val_rmse_ch4": 1.0, "val_rmse_avg": 1.0}
    training.write_history(str(path), [row])
    before = path.read_bytes()
    with pytest.raises(KeyError):
        training.write_history(str(path), [row] * 2000 + [{"epoch": 2}])
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_train_empty_dataset_rejected():
    model = toy_model()
    ds = toy_dataset(model.cfg, 4)
    empty = ModelDataset(ddms=np.zeros((0, 4, 3, 2, 2)), aps=np.zeros((0, 4, 9)),
                         refs=np.zeros((0, 4)), timestamps=np.zeros(0),
                         lats=np.zeros((0, 4)), lons=np.zeros((0, 4)))
    with pytest.raises(ContractError):
        train(model, empty, ds, small_tcfg())


def test_train_reproducible_loss_curves():
    results = []
    for _ in range(2):
        model = toy_model(seed=3)
        ds = toy_dataset(model.cfg, 12, seed=4)
        val = toy_dataset(model.cfg, 6, seed=5)
        results.append(train(model, ds, val, small_tcfg(max_epochs=3, patience=3)))
    a, b = results
    assert a.history == b.history
    for name in a.best_state:
        assert np.array_equal(a.best_state[name], b.best_state[name])


def test_train_loss_decreases_on_plantable_task():
    model = toy_model(seed=7)
    ds = toy_dataset(model.cfg, 24, seed=8)
    result = train(model, ds, ds, small_tcfg(max_epochs=12, patience=12, lr=5e-3))
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_deterministic_and_counts():
    model = toy_model()
    ds = toy_dataset(model.cfg, 5)
    a = predict(model, ds)
    b = predict(model, ds)
    assert a.shape == (5, 4)  # four predictions per sample
    assert np.array_equal(a, b)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_predict_batches_agree_with_predict_sample(strategy, monkeypatch):
    model = toy_model(strategy=strategy)
    ds = toy_dataset(model.cfg, 7, seed=3)
    singles = np.array([model.predict_sample(ds.ddms[i], ds.aps[i]) for i in range(len(ds))])
    assert eval_batch_size(model.cfg) >= len(ds)
    batched = predict(model, ds)
    assert np.max(np.abs(batched - singles) / np.abs(singles)) < 1e-12
    # Batches of one are the single-sample forward itself.
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 1)
    assert eval_batch_size(model.cfg) == 1
    assert predict(model, ds).tobytes() == singles.tobytes()


def test_eval_batch_size_bounds_hidden_memory():
    cfg = ModelConfig()  # paper default: M = 584, d_ff = 2048
    size = eval_batch_size(cfg)
    assert size >= 1
    assert size * 8 * cfg.flat_len * cfg.d_ff <= training.EVAL_BATCH_BYTES


def test_predict_empty_ok():
    model = toy_model()
    empty = ModelDataset(ddms=np.zeros((0, 4, 3, 2, 2)), aps=np.zeros((0, 4, 9)),
                         refs=np.zeros((0, 4)), timestamps=np.zeros(0),
                         lats=np.zeros((0, 4)), lons=np.zeros((0, 4)))
    assert predict(model, empty).shape == (0, 4)


def test_predict_schema_mismatch():
    model = toy_model(use_wind=True)
    ds = toy_dataset(ModelConfig(width=2, height=2, patch_size=2, embed_dim=2,
                                 n_layers=1, d_ff=8, strategy="CD"), 3)
    with pytest.raises(ConfigError):
        predict(model, ds)


# ---------------------------------------------------------------------------
# parameter counting and checkpoints
# ---------------------------------------------------------------------------


def test_count_params_single_dense_layer():
    bag = ParamBag()
    bag.add("w", (4, 4), 0.0)
    bag.add("b", (4,), 0.0)
    assert count_params(bag) == 20


def test_count_params_cd_exceeds_ci_at_default_scale():
    ci = WaveHeightModel(ModelConfig(strategy="CI"))
    cd = WaveHeightModel(ModelConfig(strategy="CD"))
    assert count_params(cd.bag) > count_params(ci.bag)


def test_checkpoint_roundtrip(tmp_path):
    model = toy_model(seed=11)
    path = tmp_path / "ckpt.json"
    meta = {"epoch": 3, "val_rmse": [0.4, 0.4, 0.4, 0.4], "val_rmse_avg": 0.4}
    save_checkpoint(str(path), model, standardization={"mean": [0.0], "std": [1.0]}, meta=meta)
    loaded, stats, meta2 = load_checkpoint(str(path))
    assert meta2["epoch"] == 3
    assert stats["std"] == [1.0]
    for name, arr in model.bag.state_arrays().items():
        assert np.array_equal(arr, loaded.bag.state_arrays()[name])
    # byte-identical re-save
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(str(path2), loaded, standardization={"mean": [0.0], "std": [1.0]}, meta=meta)
    assert path.read_bytes() == path2.read_bytes()


def test_save_checkpoint_writes_the_parameters_without_copying_them(tmp_path, monkeypatch):
    model = toy_model(seed=11)
    save_checkpoint(str(tmp_path / "copy.ckpt"), model, state=model.bag.state_arrays())
    monkeypatch.setattr(ParamBag, "state_arrays", lambda bag: pytest.fail("the parameters were copied"))
    save_checkpoint(str(tmp_path / "views.ckpt"), model)
    assert (tmp_path / "views.ckpt").read_bytes() == (tmp_path / "copy.ckpt").read_bytes()


def test_paper_default_load_reads_into_the_model_buffer(tmp_path):
    # Building the model takes the value buffer alone: the parameter bytes
    # once. Reading the arrays into arrays of their own, to copy them in
    # after, or a finiteness mask over the buffer, would add to that.
    model = WaveHeightModel(ModelConfig(strategy="CD"))
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    tracemalloc.start()
    try:
        loaded, _, _ = load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.bag.data.tobytes() == model.bag.data.tobytes()
    assert peak < 1.05 * model.bag.data.nbytes


def test_checkpoint_version_and_truncation(tmp_path):
    model = toy_model()
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    raw = path.read_bytes()
    current = f'"format_version": {FORMAT_VERSION}'.encode()
    path.write_bytes(raw.replace(current, b'"format_version": 99', 1))
    with pytest.raises(FormatError, match="version 99"):
        load_checkpoint(str(path))
    trunc = tmp_path / "broken.json"
    trunc.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(str(trunc))
    trunc.write_bytes(raw[:-1])
    with pytest.raises(FormatError):
        load_checkpoint(str(trunc))


def test_checkpoint_with_a_huge_record_shape_rejected_before_allocating(tmp_path, monkeypatch):
    # The header is checked against the file length before the model is built.
    model = toy_model()
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model)
    path.write_bytes(record_shape(path.read_bytes(), "encoder.layer0.ffn.b1", [400000000000]))
    monkeypatch.setattr(checkpoint, "WaveHeightModel", lambda cfg: pytest.fail("the model was built"))
    with pytest.raises(FormatError, match="'encoder.layer0.ffn.b1' is truncated: 3200000000000 bytes declared"):
        load_checkpoint(str(path))


def test_checkpoint_v1_json_rejected(tmp_path):
    model = toy_model()
    doc = {"format_version": 1, "config": asdict(model.cfg), "standardization": None, "meta": None,
           "params": {name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
                      for name, arr in model.bag.state_arrays().items()}}
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(FormatError, match="version 1 unsupported"):
        load_checkpoint(str(path))


def test_checkpoint_v2_rejected(tmp_path):
    # Version 2 headers carried the fixed d_model/n_heads fields.
    model = toy_model()
    header = {"config": {**asdict(model.cfg), "d_model": 4, "n_heads": 4},
              "standardization": None, "meta": None}
    path = tmp_path / "ckpt.json"
    container.write(str(path), "checkpoint", 2, header, model.bag.state_arrays())
    with pytest.raises(FormatError, match="version 2 unsupported"):
        load_checkpoint(str(path))


def test_checkpoint_v3_rejected(tmp_path):
    # Version 3 held each parameter as an `.npy` record.
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), toy_model())
    as_version_3(path)
    with pytest.raises(FormatError, match="checkpoint format version 3 unsupported"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key, value", [("n_layers", 1.0), ("patch_size", 2.0),
                                        ("head_hidden", [8.0] * 9)])
def test_checkpoint_config_is_checked_like_a_config_file(tmp_path, key, value):
    model = toy_model()
    header = {"config": {**asdict(model.cfg), key: value}, "standardization": None, "meta": None}
    path = tmp_path / "ckpt.json"
    container.write(str(path), "checkpoint", FORMAT_VERSION, header, model.bag.state_arrays())
    with pytest.raises(FormatError, match=repr(key)):
        load_checkpoint(str(path))


def test_checkpoint_array_shape_must_match_config(tmp_path):
    model = toy_model()
    state = model.bag.state_arrays()
    name = next(iter(state))
    state[name] = np.zeros(state[name].size + 1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), model, state=state)
    with pytest.raises(FormatError, match=f"shape mismatch for {name}"):
        load_checkpoint(str(path))


def test_checkpoint_with_a_non_finite_array_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), toy_model())
    set_last_value(path, "checkpoint", FORMAT_VERSION, "head.out.b", np.nan)
    with pytest.raises(FormatError, match=rf"{re.escape(str(path))}.*head\.out\.b"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("given_state", [False, True], ids=["model", "state"])
def test_save_checkpoint_refuses_a_non_finite_parameter(tmp_path, given_state):
    model = toy_model()
    state = model.bag.state_arrays() if given_state else None
    (state or dict(model.bag.items()))["head.out.b"].data[-1] = np.inf
    with pytest.raises(ContractError, match="checkpoint array 'head.out.b' holds a non-finite value; not written"):
        save_checkpoint(str(tmp_path / "ckpt.json"), model, state=state)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("header", [{}, {"config": None}, {"config": [1, 2]}],
                         ids=["missing", "null", "list"])
def test_checkpoint_without_a_config_object_rejected_before_building(tmp_path, monkeypatch, header):
    path = tmp_path / "ckpt.json"
    container.write(str(path), "checkpoint", FORMAT_VERSION, {**header, "standardization": None, "meta": None},
                    toy_model().bag.state_arrays())
    monkeypatch.setattr(checkpoint, "WaveHeightModel", lambda cfg: pytest.fail("the model was built"))
    with pytest.raises(FormatError, match=f"checkpoint {re.escape(str(path))} header has no config object"):
        load_checkpoint(str(path))
