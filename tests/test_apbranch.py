"""Tests for the auxiliary-parameter gating branch.

The branch is one `autodiff.ap_gate` node; each gate is read off its
output by zeroing the other gate's weights (see `gate`).
"""

import numpy as np
import pytest

from swhnet import autodiff as ad
from swhnet.autodiff import ParamBag, Tensor
from swhnet.apbranch import ApGateBranch
from swhnet.config import ModelConfig
from swhnet.errors import ShapeError

from oracles import (channel_gate_oracle_cd, finite_difference_grad, max_rel_error, probe_sum,
                     spatial_gate_oracle)


def build_branch(strategy="CD", seed=0, use_wind=False):
    cfg = ModelConfig(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                      d_ff=8, dropout_p=0.0, strategy=strategy, use_wind=use_wind)
    bag = ParamBag()
    branch = ApGateBranch(cfg, bag, np.random.default_rng(seed))
    bag.seal()
    return branch, bag, cfg


SPATIAL = ("p1", "b1", "p2", "b2")
CHANNEL = ("p3", "b3", "p4", "b4")


def gate(branch, a, which):
    """The spatial or the channel gate on input `a`, read off `forward` with
    the other gate's weights zeroed: that gate is then sigmoid(0) = 0.5
    everywhere, so forward(a) = 0.5 * a * gate."""
    other = [getattr(branch, name) for name in (CHANNEL if which == "spatial" else SPATIAL)]
    saved = [t.data.copy() for t in other]
    for t in other:
        t.data[...] = 0.0
    try:
        return branch.forward(Tensor(a)).data / (0.5 * a)
    finally:
        for t, v in zip(other, saved):
            t.data[...] = v


def identity_embedding(branch):
    """A CD embedding that passes the input unchanged to both gates."""
    branch.embed_kernel.data[...] = np.vstack([np.eye(4), np.eye(4)])
    branch.embed_bias.data[...] = 0.0


def selector_gates(branch):
    """Gate weights under which each gate is the sigmoid of its embedded map."""
    k = branch.cfg.k_ap
    for name in SPATIAL + CHANNEL:
        getattr(branch, name).data[...] = 0.0
    branch.p1.data[...] = np.eye(k, 4 * k)
    branch.p2.data[...] = np.eye(4 * k, k)
    branch.p3.data[:, :4] = np.eye(4)
    branch.p4.data[:4] = np.eye(4)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_embed_identity_like_kernel():
    branch, _, cfg = build_branch()
    identity_embedding(branch)
    selector_gates(branch)
    a = np.random.default_rng(1).normal(size=(4, cfg.k_ap))
    assert np.allclose(branch.forward(Tensor(a)).data, a * sigmoid(a) * sigmoid(a), rtol=0.0, atol=1e-15)


def test_embed_zero_kernel_zero_bias():
    branch, _, cfg = build_branch()
    branch.embed_kernel.data[...] = 0.0
    branch.embed_bias.data[...] = 0.0
    selector_gates(branch)
    a = np.random.default_rng(3).normal(size=(4, cfg.k_ap))
    assert np.array_equal(branch.forward(Tensor(a)).data, 0.25 * a)


def test_embed_matches_pointwise_loop():
    branch, _, cfg = build_branch(seed=3)
    selector_gates(branch)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, cfg.k_ap))
    kernel, bias = branch.embed_kernel.data, branch.embed_bias.data
    oracle = np.zeros((8, cfg.k_ap))
    for pos in range(cfg.k_ap):
        for co in range(8):
            oracle[co, pos] = sum(kernel[co, ci] * a[ci, pos] for ci in range(4)) + bias[co]
    out = branch.forward(Tensor(a)).data
    assert np.allclose(out, a * sigmoid(oracle[:4]) * sigmoid(oracle[4:]), rtol=0.0, atol=1e-14)


def test_spatial_gate_zero_weights_half():
    branch, _, cfg = build_branch()
    for name in SPATIAL:
        getattr(branch, name).data[...] = 0.0
    gates = gate(branch, np.random.default_rng(0).normal(size=(4, cfg.k_ap)), "spatial")
    assert np.allclose(gates, 0.5, atol=1e-15)


def test_spatial_gate_large_bias_saturates():
    branch, _, cfg = build_branch()
    branch.embed_kernel.data[...] = 0.0  # the spatial gate then sees A1 = 0
    branch.embed_bias.data[...] = 0.0
    a = np.random.default_rng(4).normal(size=(4, cfg.k_ap))
    lows = []
    for bias in (0.0, 2.0, 8.0, 30.0):
        branch.b2.data[...] = bias
        lows.append(gate(branch, a, "spatial").min())
    assert all(b > a for a, b in zip(lows, lows[1:]))  # monotone toward 1
    assert lows[-1] > 1.0 - 1e-12


def test_spatial_gate_matches_oracle():
    branch, _, cfg = build_branch(seed=5)
    identity_embedding(branch)
    a1 = np.random.default_rng(4).normal(size=(4, cfg.k_ap))
    oracle = spatial_gate_oracle(a1, branch.p1.data, branch.b1.data, branch.p2.data, branch.b2.data)
    assert np.max(np.abs(gate(branch, a1, "spatial") - oracle)) < 1e-12


def test_channel_gate_zero_weights_half():
    branch, _, cfg = build_branch()
    for name in CHANNEL:
        getattr(branch, name).data[...] = 0.0
    gates = gate(branch, np.random.default_rng(0).normal(size=(4, cfg.k_ap)), "channel")
    assert np.allclose(gates, 0.5, atol=1e-15)


def test_channel_gate_matches_oracle():
    branch, _, cfg = build_branch(seed=7)
    identity_embedding(branch)
    a2 = np.random.default_rng(6).normal(size=(4, cfg.k_ap))
    oracle = channel_gate_oracle_cd(a2, branch.p3.data, branch.b3.data, branch.p4.data, branch.b4.data)
    assert np.max(np.abs(gate(branch, a2, "channel") - oracle)) < 1e-12


def test_channel_gate_is_transposed_spatial_structure():
    # Applying the channel projections row-wise to the transposed input
    # reproduces the transposed channel gate: the two blocks are mirror images.
    branch, _, cfg = build_branch(seed=9)
    identity_embedding(branch)
    a2 = np.random.default_rng(8).normal(size=(4, cfg.k_ap))
    t = a2.T  # (K_ap, 4)
    rowwise = sigmoid((t @ branch.p3.data + branch.b3.data) @ branch.p4.data + branch.b4.data)
    assert np.allclose(gate(branch, a2, "channel"), rowwise.T, atol=1e-14)


def test_apply_gates_half_half_quarters():
    branch, _, cfg = build_branch()
    for name in SPATIAL + CHANNEL:
        getattr(branch, name).data[...] = 0.0
    a = np.random.default_rng(10).normal(size=(4, cfg.k_ap))
    assert np.allclose(branch.forward(Tensor(a)).data, 0.25 * a, atol=1e-15)


def test_apply_gates_shape_mismatch():
    branch, _, _ = build_branch()
    with pytest.raises(ShapeError):
        branch.forward(Tensor(np.ones((4, 8))))
    weights = [branch.embed_kernel, branch.embed_bias, branch.p1, branch.b1, branch.p2, branch.b2,
               branch.p3, branch.b3, branch.p4, branch.b4]
    with pytest.raises(ShapeError):
        ad.ap_gate(Tensor(np.ones((4, 8))), *weights)


def test_gates_strictly_inside_unit_interval():
    branch, _, cfg = build_branch(seed=11)
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(4, cfg.k_ap)) * 3
        for which in ("spatial", "channel"):
            g = gate(branch, a, which)
            assert g.min() > 0.0 and g.max() < 1.0


def test_branch_output_entrywise_contraction():
    branch, _, cfg = build_branch(seed=13)
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, cfg.k_ap))
    out = branch.forward(Tensor(a)).data
    assert np.all(np.abs(out) <= np.abs(a))


def test_zero_projections_cold_start_quarter():
    branch, _, cfg = build_branch(seed=15)
    for t in (branch.p1, branch.b1, branch.p2, branch.b2, branch.p3, branch.b3, branch.p4, branch.b4):
        t.data[...] = 0.0
    rng = np.random.default_rng(16)
    a = rng.normal(size=(4, cfg.k_ap))
    out = branch.forward(Tensor(a)).data
    assert np.allclose(out, 0.25 * a, atol=1e-15)


def test_wind_variant_widens_k_ap():
    branch, _, cfg = build_branch(use_wind=True)
    assert cfg.k_ap == 10
    a = np.zeros((4, 10))
    out = branch.forward(Tensor(a))
    assert out.shape == (4, 10)


def test_ci_branch_isolates_channels():
    branch, _, cfg = build_branch(strategy="CI", seed=17)
    rng = np.random.default_rng(18)
    a = rng.normal(size=(4, cfg.k_ap))
    base = branch.forward(Tensor(a)).data
    bumped_in = a.copy()
    bumped_in[1] += rng.normal(size=cfg.k_ap)
    bumped = branch.forward(Tensor(bumped_in)).data
    for c in range(4):
        if c == 1:
            assert not np.array_equal(base[c], bumped[c])
        else:
            assert np.array_equal(base[c], bumped[c])


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_branch_gradcheck(strategy):
    branch, bag, cfg = build_branch(strategy=strategy, seed=19)
    rng = np.random.default_rng(20)
    a = rng.normal(size=(4, cfg.k_ap))
    probe = rng.normal(size=(4, cfg.k_ap))

    def loss_tensor(inp):
        return probe_sum(branch.forward(inp), probe)

    inp = Tensor(a, requires_grad=True)
    loss = loss_tensor(inp)
    loss.backward()
    params = [inp] + list(bag.values())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    def f():
        with ad.no_grad():
            return loss_tensor(Tensor(a)).item()

    numeric = finite_difference_grad(f, [p.data for p in params], step=1e-5)
    for an, nu in zip(analytic, numeric):
        assert max_rel_error(an, nu, floor=1e-3) < 1e-5
