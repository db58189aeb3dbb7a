"""Tests for feature fusion, the regression head, the Huber objective,
and end-to-end behaviour of the assembled model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhnet import autodiff as ad
from swhnet.autodiff import Tensor, count_params
from swhnet.config import ModelConfig
from swhnet.errors import ConfigError, ContractError, ShapeError
from swhnet.model import WaveHeightModel, batch_loss, fuse, head_widths

from oracles import (affine_norm_chain, ap_gate_chain, finite_difference_grad, huber_mean_chain, huber_value,
                     linear_chain, max_rel_error, patch_embed_chain)


def toy_config(**kw):
    base = dict(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                d_ff=8, dropout_p=0.0, strategy="CD", head_hidden=[8] * 9, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def toy_inputs(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 3, cfg.width, cfg.height)), rng.normal(size=(4, cfg.k_ap))


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def test_fuse_lengths():
    d = Tensor(np.zeros((2, 4)))
    a = Tensor(np.zeros((4, 9)))
    ci = fuse(d, a, "CI")
    assert len(ci) == 4 and ci.shape == (4, 11)
    cd = fuse(d, a, "CD")
    assert cd.shape == (1, 44)


def test_fuse_zero_inputs():
    out = fuse(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 9))), "CD")
    assert np.array_equal(out.data, np.zeros((1, 48)))


def test_fuse_channel_permutation():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(3, 4))
    a = rng.normal(size=(4, 9))
    base = fuse(Tensor(d), Tensor(a), "CI")
    perm = [3, 1, 0, 2]
    permuted = fuse(Tensor(d[:, perm]), Tensor(a[perm]), "CI")
    for c in range(4):
        assert np.array_equal(permuted.data[c], base.data[perm[c]])


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------


def test_head_widths_taper():
    widths = head_widths(2372, None)
    assert len(widths) == 9
    assert widths[-1] == 32
    assert all(a >= b for a, b in zip(widths, widths[1:]))
    assert head_widths(100, [16] * 9) == [16] * 9


def test_head_zero_weights_bias_output():
    cfg = toy_config()
    model = WaveHeightModel(cfg)
    for name, p in model.bag.items():
        if name.startswith("head."):
            p.data[...] = 0.0
    dict(model.bag.items())["head.out.b"].data[...] = [1.0, 2.0, 3.0, 4.0]
    ddm, ap = toy_inputs(cfg)
    pred = model.predict_sample(ddm, ap)
    assert np.array_equal(pred, [1.0, 2.0, 3.0, 4.0])


def test_head_ci_channel_locality():
    cfg = toy_config(strategy="CI")
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(4, model.head.input_dim))
    base = model.head.forward(Tensor(vecs)).data
    vecs2 = vecs.copy()
    vecs2[2] = rng.normal(size=model.head.input_dim)
    out = model.head.forward(Tensor(vecs2)).data
    assert not np.array_equal(out[2:3], base[2:3])
    for c in (0, 1, 3):
        assert out[c] == base[c]


# ---------------------------------------------------------------------------
# huber
# ---------------------------------------------------------------------------


def test_huber_closed_form_values():
    assert huber_value(0.0, 0.0, 2.0) == 0.0
    assert huber_value(0.0, 1.0, 2.0) == 0.5
    assert huber_value(1.0, 4.0, 2.0) == 2.0 * 3 - 0.5 * 4  # linear branch: 4
    assert huber_value(0.0, 2.0, 2.0) == 2.0  # boundary, quadratic branch
    assert huber_value(0.0, -2.0, 2.0) == 2.0


def test_huber_branch_continuity():
    delta = 2.0
    for eps in (1e-9, 1e-12):
        inside = huber_value(0.0, delta - eps, delta)
        outside = huber_value(0.0, delta + eps, delta)
        assert abs(inside - outside) < 1e-8
    # derivative continuity at the joint
    d_in = (huber_value(0.0, delta, delta) - huber_value(0.0, delta - 1e-7, delta)) / 1e-7
    d_out = (huber_value(0.0, delta + 1e-7, delta) - huber_value(0.0, delta, delta)) / 1e-7
    assert abs(d_in - d_out) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-40, max_value=40))
def test_huber_below_half_square(e):
    val = huber_value(0.0, e, 2.0)
    assert val <= 0.5 * e * e + 1e-12
    if abs(e) <= 2.0:
        assert val == pytest.approx(0.5 * e * e, abs=1e-12)


def test_huber_rejects_bad_delta():
    with pytest.raises(ConfigError):
        huber_value(0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# batch loss
# ---------------------------------------------------------------------------


def test_batch_loss_perfect_zero():
    preds = [Tensor(np.array([1.0, 2.0, 3.0, 4.0]))]
    refs = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert batch_loss(preds, refs, 2.0).item() == 0.0


def test_batch_loss_unit_errors():
    preds = [Tensor(np.zeros(4))]
    refs = np.ones((1, 4))
    assert batch_loss(preds, refs, 2.0).item() == pytest.approx(0.5)


def test_batch_loss_matches_double_loop():
    rng = np.random.default_rng(3)
    preds_np = rng.normal(size=(5, 4)) * 3
    refs = rng.normal(size=(5, 4)) * 3
    preds = [Tensor(row) for row in preds_np]
    loss = batch_loss(preds, refs, 2.0).item()
    acc = [huber_value(preds_np[i, c], refs[i, c], 2.0) for i in range(5) for c in range(4)]
    assert loss == pytest.approx(np.mean(acc), abs=1e-12)


def test_batch_loss_permutation_invariant():
    rng = np.random.default_rng(4)
    preds_np = rng.normal(size=(6, 4))
    refs = rng.normal(size=(6, 4))
    loss = batch_loss([Tensor(r) for r in preds_np], refs, 2.0).item()
    perm = rng.permutation(6)
    loss_p = batch_loss([Tensor(r) for r in preds_np[perm]], refs[perm], 2.0).item()
    assert loss == pytest.approx(loss_p, abs=1e-12)
    cperm = rng.permutation(4)
    loss_c = batch_loss([Tensor(r[cperm]) for r in preds_np], refs[:, cperm], 2.0).item()
    assert loss == pytest.approx(loss_c, abs=1e-12)


def test_batch_loss_empty_rejected():
    with pytest.raises(ContractError):
        batch_loss([], np.zeros((0, 4)), 2.0)


# ---------------------------------------------------------------------------
# assembled model
# ---------------------------------------------------------------------------


def test_model_forward_shape_and_determinism():
    cfg = toy_config()
    model = WaveHeightModel(cfg)
    ddm, ap = toy_inputs(cfg)
    a = model.predict_sample(ddm, ap)
    b = model.predict_sample(ddm.copy(), ap.copy())
    assert a.shape == (4,)
    assert np.array_equal(a, b)


def test_model_ci_isolation_end_to_end():
    cfg = toy_config(strategy="CI")
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(5)
    ddm, ap = toy_inputs(cfg, seed=6)
    base = model.predict_sample(ddm, ap)
    for j in range(4):
        ddm2, ap2 = ddm.copy(), ap.copy()
        ddm2[j] += rng.normal(size=(3, cfg.width, cfg.height))
        ap2[j] += rng.normal(size=cfg.k_ap)
        out = model.predict_sample(ddm2, ap2)
        assert out[j] != base[j]
        for c in range(4):
            if c != j:
                assert out[c] == base[c]


def test_model_cd_cross_sensitivity():
    cfg = toy_config(strategy="CD")
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(7)
    ddm, ap = toy_inputs(cfg, seed=8)
    h = 1e-5
    direction_ddm = rng.normal(size=(3, cfg.width, cfg.height))
    direction_ap = rng.normal(size=cfg.k_ap)
    up_ddm, dn_ddm = ddm.copy(), ddm.copy()
    up_ap, dn_ap = ap.copy(), ap.copy()
    up_ddm[0] += h * direction_ddm
    dn_ddm[0] -= h * direction_ddm
    up_ap[0] += h * direction_ap
    dn_ap[0] -= h * direction_ap
    diff = (model.predict_sample(up_ddm, up_ap) - model.predict_sample(dn_ddm, dn_ap)) / (2 * h)
    assert np.max(np.abs(diff[1:])) > 1e-8


def test_model_full_gradcheck_small():
    cfg = toy_config(strategy="CI", head_hidden=[4] * 9)
    model = WaveHeightModel(cfg)
    # Check at a point away from ReLU kinks: a finite-difference step that
    # crosses a kink measures the subgradient gap, not a gradient error.
    for name, p in model.bag.items():
        if name.startswith("head.") and name.endswith(".b"):
            p.data[...] += 0.1
    rng = np.random.default_rng(9)
    ddms = [toy_inputs(cfg, seed=10 + i) for i in range(2)]
    refs = rng.normal(size=(2, 4)) + 2.0

    def loss_tensor():
        preds = [model.forward(d, a, train=False) for d, a in ddms]
        return batch_loss(preds, refs, 2.0)

    loss = loss_tensor()
    loss.backward()
    params = list(model.bag.values())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def f():
        with ad.no_grad():
            return loss_tensor().item()

    numeric = finite_difference_grad(f, [p.data for p in params], step=1e-4)
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) < 1e-4


def test_cd_has_more_params_than_ci():
    ci = WaveHeightModel(toy_config(strategy="CI"))
    cd = WaveHeightModel(toy_config(strategy="CD"))
    assert count_params(cd.bag) > count_params(ci.bag)


def test_paper_default_train_forward_holds_two_bytes_per_hidden_unit():
    """Memory still held after one paper-default training forward, before
    backward: the fused attention keeps O(M) arrays per layer, not the M x M
    probabilities, and the feedforward a one-byte keep mask per hidden unit,
    not the float hidden array. The bound, two bytes per hidden unit of all
    layers (14.4 MB), leaves room for the mask, the attention's arrays and
    the embedding, AP branch and head, and fails if any layer kept its
    float hidden array (4.8 MB more each)."""
    cfg = ModelConfig()
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(0)
    ddm = rng.normal(size=(4, 3, cfg.width, cfg.height))
    ap = rng.normal(size=(4, cfg.k_ap))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = model.forward(ddm, ap, train=True, rng=np.random.default_rng(1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    bound = 2 * cfg.n_layers * cfg.flat_len * cfg.d_ff
    assert held < bound, f"{held / 1e6:.1f} MB held after one training forward (bound {bound / 1e6:.1f} MB)"


def traced_paper_default_backward(strategy):
    """A paper-default model and one B = 1 training loss; returns the model
    and the bytes held after, and the peak during, `loss.backward()`. The
    bag's gradient buffer was allocated with the model, before tracing."""
    cfg = ModelConfig(strategy=strategy)
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(0)
    preds = model.forward_batch(rng.normal(size=(1, 4, 3, cfg.width, cfg.height)),
                                rng.normal(size=(1, 4, cfg.k_ap)), train=True, rng=np.random.default_rng(1))
    loss = batch_loss(preds, rng.uniform(1.0, 3.0, size=(1, 4)), 2.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return model, held, peak


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_paper_default_backward_writes_weight_gradients_into_the_buffer(strategy):
    """Every weight gradient lands in the bag's gradient buffer, so the
    backward leaves less held than the parameters' size, which fresh
    gradient arrays alone would take."""
    model, held, _ = traced_paper_default_backward(strategy)
    for name, p in model.bag.items():
        assert np.shares_memory(p.grad, model.bag.grad), name
    assert held < model.bag.grad.nbytes, f"{held / 1e6:.1f} MB held after a B = 1 backward"


def test_paper_default_cd_backward_builds_no_weight_gradient_temporary():
    """matmul's backward writes each head weight gradient straight into the
    buffer: the peak during a B = 1 backward rises by less than the largest
    parameter (head.layer0.w, 27.9 MB), which one product temporary would
    take. Under CI the largest parameter (2.0 MB) is below the attention
    backward's own (M, M) probability block, so the check is CD's."""
    model, _, peak = traced_paper_default_backward("CD")
    largest = max(p.data.nbytes for p in model.bag.values())
    assert largest == dict(model.bag.items())["head.layer0.w"].data.nbytes
    assert peak < largest, f"{peak / 1e6:.1f} MB peak in a B = 1 backward"


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_paper_default_eval_batch_peaks_below_one_hidden_array(strategy):
    """A no-grad paper-default batch of 3 samples keeps no (M, d_ff)
    feedforward hidden array, only tiles: its peak above the inputs stays
    below one such array (9.6 MB)."""
    cfg = ModelConfig(strategy=strategy)
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(0)
    ddms = rng.normal(size=(3, 4, 3, cfg.width, cfg.height))
    aps = rng.normal(size=(3, 4, cfg.k_ap))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with ad.no_grad():
            out = model.forward_batch(ddms, aps)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == (3, 4)
    assert peak < 8 * cfg.flat_len * cfg.d_ff, f"{peak / 1e6:.1f} MB peak in a no-grad batch of 3"


# ---------------------------------------------------------------------------
# batched forward
# ---------------------------------------------------------------------------


def batch_case(strategy, n=3, seed=20, **kw):
    """A small dropout config (3 x 2 maps padded to 4 x 2, two layers) and n samples."""
    cfg = toy_config(strategy=strategy, width=3, height=2, n_layers=2, d_ff=4, dropout_p=0.3, **kw)
    rng = np.random.default_rng(seed)
    return cfg, rng.normal(size=(n, 4, 3, 3, 2)), rng.normal(size=(n, 4, cfg.k_ap))


def used_generator(seed):
    """A generator holding a buffered 32-bit half, which bit_generator.advance clears."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_forward_batch_matches_single_forwards(strategy, train):
    cfg, ddms, aps = batch_case(strategy)
    model = WaveHeightModel(cfg)
    rng_b, rng_s = (used_generator(21) if train else None for _ in range(2))
    batched = model.forward_batch(ddms, aps, train=train, rng=rng_b).data
    singles = np.array([model.forward(d, a, train=train, rng=rng_s).data for d, a in zip(ddms, aps)])
    assert batched.shape == (3, 4)
    assert np.max(np.abs(batched - singles) / np.abs(singles)) < 1e-12
    if train:
        # Dropout masks differ between samples, so a mix-up of streams shows.
        evals = np.array([model.predict_sample(d, a) for d, a in zip(ddms, aps)])
        assert np.all(np.abs(singles - evals) > 1e-6)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_forward_batch_leaves_generator_where_single_forwards_do(strategy):
    cfg, ddms, aps = batch_case(strategy)
    model = WaveHeightModel(cfg)
    rng_b, rng_s = used_generator(22), used_generator(22)
    model.forward_batch(ddms, aps, train=True, rng=rng_b)
    for d, a in zip(ddms, aps):
        model.forward(d, a, train=True, rng=rng_s)
    assert rng_b.bit_generator.state == rng_s.bit_generator.state
    assert rng_b.random() == rng_s.random()


def test_forward_batch_dropout_needs_an_advanceable_generator():
    cfg, ddms, aps = batch_case("CD")
    model = WaveHeightModel(cfg)
    with pytest.raises(ContractError, match="PCG64"):
        model.forward_batch(ddms, aps, train=True, rng=np.random.Generator(np.random.MT19937(0)))


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_forward_batch_samples_are_independent(strategy, train):
    cfg, ddms, aps = batch_case(strategy)
    model = WaveHeightModel(cfg)
    base = model.forward_batch(ddms, aps, train=train, rng=np.random.default_rng(23)).data
    ddms2, aps2 = ddms.copy(), aps.copy()
    ddms2[1] += 0.5
    aps2[1] -= 0.5
    out = model.forward_batch(ddms2, aps2, train=train, rng=np.random.default_rng(23)).data
    assert np.all(out[1] != base[1])
    assert out[[0, 2]].tobytes() == base[[0, 2]].tobytes()


def test_forward_batch_ci_channel_isolation_is_exact():
    cfg, ddms, aps = batch_case("CI")
    model = WaveHeightModel(cfg)
    base = model.forward_batch(ddms, aps).data
    rng = np.random.default_rng(24)
    for j in range(4):
        ddms2, aps2 = ddms.copy(), aps.copy()
        ddms2[1, j] += rng.normal(size=(3, cfg.width, cfg.height))
        aps2[1, j] += rng.normal(size=cfg.k_ap)
        out = model.forward_batch(ddms2, aps2).data
        assert out[1, j] != base[1, j]
        changed = np.ones((3, 4), dtype=bool)
        changed[1, j] = False
        assert out[changed].tobytes() == base[changed].tobytes()


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_forward_batch_gradcheck(strategy):
    """Central differences through the batched training forward, with the
    tolerances of test_autodiff.check_grads (step 1e-5, tol 1e-5, floor 1e-4)."""
    cfg, ddms, aps = batch_case(strategy, head_hidden=[4] * 9)
    model = WaveHeightModel(cfg)
    # Check at a point away from ReLU kinks, as in the single-sample check:
    # raised head biases, and inputs (batch_case's seed) at which no step
    # crosses a feedforward kink. A step that does misses by up to 1e-2.
    for name, p in model.bag.items():
        if name.startswith("head.") and name.endswith(".b"):
            p.data[...] += 0.1
    refs = np.random.default_rng(25).normal(size=(3, 4)) + 2.0

    def loss_tensor():
        # A fresh generator per evaluation keeps the dropout masks fixed.
        preds = model.forward_batch(ddms, aps, train=True, rng=np.random.default_rng(26))
        return batch_loss(preds, refs, 2.0)

    loss_tensor().backward()
    params = list(model.bag.values())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def f():
        with ad.no_grad():
            return loss_tensor().item()

    numeric = finite_difference_grad(f, [p.data for p in params], step=1e-5)
    for p, a, n in zip(params, analytic, numeric):
        assert max_rel_error(a, n, floor=1e-4) < 1e-5, p.name


def test_forward_batch_rejects_bad_shapes():
    cfg, ddms, aps = batch_case("CD")
    model = WaveHeightModel(cfg)
    with pytest.raises(ShapeError):
        model.forward_batch(ddms[0], aps[0])
    with pytest.raises(ShapeError):
        model.forward_batch(ddms[:0], aps[:0])
    with pytest.raises(ShapeError):
        model.forward_batch(ddms, aps[:2])


def test_batch_loss_takes_the_batched_tensor():
    rng = np.random.default_rng(27)
    preds = rng.normal(size=(3, 4))
    refs = rng.normal(size=(3, 4))
    as_list = batch_loss([Tensor(r) for r in preds], refs, 2.0).item()
    assert batch_loss(Tensor(preds), refs, 2.0).item() == as_list
    assert len(Tensor(preds)) == 3
    with pytest.raises(ShapeError):
        batch_loss(Tensor(preds[:, :3]), refs[:, :3], 2.0)


def op_nodes(loss):
    """Op nodes (tensors with a backward) reachable from `loss`."""
    seen, todo, count = set(), [loss], 0
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            todo.extend(node._parents)
    return count


def training_graph_op_nodes(cfg):
    """Op nodes of one B = 2 training graph of a model built from `cfg`."""
    model = WaveHeightModel(cfg)
    rng = np.random.default_rng(0)
    preds = model.forward_batch(rng.normal(size=(2, 4, 3, cfg.width, cfg.height)),
                                rng.normal(size=(2, 4, cfg.k_ap)), train=True, rng=rng)
    return op_nodes(batch_loss(preds, np.ones((2, 4)), 2.0))


def test_quick_start_training_graph_op_nodes():
    """The README quick-start model under CI, one B = 2 training graph: one
    node each for the patch embedding, every head layer, every channel
    norm, the AP branch and the loss keep it at 25 op nodes (101 with their
    node chains, 167 with one embedding call per channel as well)."""
    cfg = ModelConfig(width=6, height=6, patch_size=3, embed_dim=2, n_layers=1, d_ff=16,
                      dropout_p=0.0, head_hidden=[16] * 9, strategy="CI")
    assert training_graph_op_nodes(cfg) <= 25


def test_paper_default_training_graph_op_nodes():
    """The paper-default CD model, one B = 2 training graph: 68 op nodes
    (152 with the embedding, linear, norm, AP branch and loss node chains)."""
    assert training_graph_op_nodes(ModelConfig()) <= 68


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("width, height, patch, embed_dim", [(6, 6, 3, 2), (7, 5, 3, 3), (3, 5, 4, 3)],
                         ids=["divides", "odd-dim-pads", "patch-over-W"])
def test_fused_ops_reproduce_their_node_chains(monkeypatch, strategy, batch, width, height, patch, embed_dim):
    """A training step and an eval forward of the whole model with the fused
    embedding, linear, norm, AP branch and loss ops equal, bit for bit in
    the loss, the predictions and every parameter gradient, those with the
    node chains they replaced."""
    cfg = ModelConfig(width=width, height=height, patch_size=patch, embed_dim=embed_dim, n_layers=2, d_ff=16,
                      dropout_p=0.2, head_hidden=[8] * 9, strategy=strategy)
    rng = np.random.default_rng(71)
    ddms, aps = rng.normal(size=(batch, 4, 3, width, height)), rng.normal(size=(batch, 4, cfg.k_ap))
    refs = rng.normal(size=(batch, 4)) + 2.0

    def run():
        model = WaveHeightModel(cfg)
        preds = model.forward_batch(ddms, aps, train=True, rng=np.random.default_rng(72))
        loss = batch_loss(preds, refs, 2.0)
        loss.backward()
        with ad.no_grad():
            evals = model.forward_batch(ddms, aps).data
        return [np.asarray(loss.data).tobytes(), preds.data.tobytes(), evals.tobytes()] \
            + [p.grad.tobytes() for p in model.bag.values()]

    fused = run()
    monkeypatch.setattr(ad, "patch_embed", patch_embed_chain)
    monkeypatch.setattr(ad, "linear", linear_chain)
    monkeypatch.setattr(ad, "affine_norm", affine_norm_chain)
    monkeypatch.setattr(ad, "ap_gate", ap_gate_chain)
    monkeypatch.setattr(ad, "huber", huber_mean_chain)
    assert fused == run()
