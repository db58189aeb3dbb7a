"""The traced run measures the same program: traced passes agree bit for bit."""

import numpy as np
import pytest

import composed
import spans as sp
from swhnet import config as cfgmod, pipeline, synth, training
from swhnet.autodiff import Tensor
from swhnet.model import WaveHeightModel, batch_loss


def setup(**overrides):
    base = {"width": 5, "height": 4, "patch_size": 2, "embed_dim": 2, "n_layers": 2, "d_ff": 8,
            "dropout_p": 0.2, "head_hidden": [6] * 9, "batch_size": 5, "max_epochs": 3,
            "patience": 3, "synth_n_samples": 60, "lr": 0.01}
    cfg = cfgmod.load_config(None, dict(base, **overrides))
    samples = synth.generate(cfgmod.synth_spec(cfg))
    splits, _ = pipeline.split_dataset(samples, cfgmod.split_spec(cfg))
    stats = pipeline.compute_ap_stats(splits["train"], include_wind=False)
    data = {k: training.to_model_dataset(v, stats, False) for k, v in splits.items()}
    return cfg, data


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_traced_train_and_predict_equal_untraced(strategy):
    cfg, data = setup(strategy=strategy)
    tcfg = cfgmod.train_config(cfg)
    plain_model = WaveHeightModel(cfgmod.model_config(cfg))
    plain = training.train(plain_model, data["train"], data["val"], tcfg, config_hash="h")
    rec = sp.SpanRecorder("t")
    graphs = []
    model = WaveHeightModel(cfgmod.model_config(cfg))
    with composed.Tracer(rec, graphs) as tracer:
        tracer.watch(model)
        traced = training.train(model, data["train"], data["val"], tcfg, config_hash="h")
        preds = training.predict(model, data["test"])
    assert traced.history == plain.history
    assert traced.best_meta == plain.best_meta
    assert all(traced.best_state[k].tobytes() == plain.best_state[k].tobytes() for k in plain.best_state)
    assert preds.tobytes() == training.predict(plain_model, data["test"]).tobytes()
    names = {s.name for s in rec.spans}
    assert {"model.forward", "model.forward_eval", "encoder.embed", "encoder.attention", "encoder.norm",
            "encoder.ffn", "apbranch.forward", "model.head", "model.loss", "autodiff.backward",
            "training.adamw_step", "training.validate", "model.predict", "trace.graph_walk"} <= names
    assert len(graphs) == 1 and graphs[0][0] == tcfg.batch_size
    backward = [s for s in rec.spans if s.name == "autodiff.backward"]
    assert sum(s.items for s in backward) == tcfg.max_epochs * len(data["train"])


def test_tracer_restores_the_program_on_exit():
    cfg, _ = setup(strategy="CD")
    model = WaveHeightModel(cfgmod.model_config(cfg))
    before = (training.batch_loss, training.validation_rmse, training.AdamW.step, Tensor.backward)
    with composed.Tracer(sp.SpanRecorder("t")) as tracer:
        tracer.watch(model)
        assert "forward" in vars(model)
        assert training.batch_loss is not before[0]
    assert (training.batch_loss, training.validation_rmse, training.AdamW.step, Tensor.backward) == before
    assert training.batch_loss is batch_loss
    assert "forward" not in vars(model) and "predict_sample" not in vars(model)


def test_forward_matches_in_train_and_eval_mode():
    cfg, data = setup(strategy="CD")
    model = WaveHeightModel(cfgmod.model_config(cfg))
    ds = data["train"]
    assert composed.forward_matches(model, ds.ddms[0], ds.aps[0], np.random.default_rng(1))


def reference_graph(loss):
    nodes = {}

    def visit(t):
        if id(t) in nodes:
            return
        nodes[id(t)] = t
        for p in t._parents:
            visit(p)

    visit(loss)
    ops = [t for t in nodes.values() if t._backward is not None]
    return len(ops), sum(t.data.nbytes for t in ops)


def test_graph_size_counts_each_op_node_once():
    cfg, data = setup(strategy="CI", dropout_p=0.0)
    model = WaveHeightModel(cfgmod.model_config(cfg))
    ds = data["train"]
    one = batch_loss([model.forward(ds.ddms[0], ds.aps[0])], ds.refs[:1], 2.0)
    two = batch_loss([model.forward(ds.ddms[i], ds.aps[i]) for i in range(2)], ds.refs[:2], 2.0)
    assert composed.graph_size(one) == reference_graph(one)
    assert composed.graph_size(two) == reference_graph(two)
    assert composed.graph_size(two)[0] > composed.graph_size(one)[0]
