"""Tests for the auxiliary-parameter gating branch."""

import numpy as np
import pytest

from swhnet import autodiff as ad
from swhnet.autodiff import ParamBag, Tensor
from swhnet.apbranch import ApGateBranch
from swhnet.config import ModelConfig
from swhnet.errors import ShapeError

from oracles import (channel_gate_oracle_cd, finite_difference_grad, max_rel_error,
                     spatial_gate_oracle)


def build_branch(strategy="CD", seed=0, use_wind=False):
    cfg = ModelConfig(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                      d_ff=8, dropout_p=0.0, strategy=strategy, use_wind=use_wind)
    bag = ParamBag()
    return ApGateBranch(cfg, bag, np.random.default_rng(seed)), bag, cfg


def test_embed_identity_like_kernel():
    branch, _, cfg = build_branch()
    kernel = np.vstack([np.eye(4), np.eye(4)])
    branch.embed_kernel.data[...] = kernel
    branch.embed_bias.data[...] = 0.0
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, cfg.k_ap))
    a1, a2 = branch.ap_embed(Tensor(a))
    assert np.array_equal(a1.data, a) and np.array_equal(a2.data, a)


def test_embed_zero_kernel_zero_bias():
    branch, _, cfg = build_branch()
    branch.embed_kernel.data[...] = 0.0
    branch.embed_bias.data[...] = 0.0
    a1, a2 = branch.ap_embed(Tensor(np.ones((4, cfg.k_ap))))
    assert np.array_equal(a1.data, np.zeros((4, cfg.k_ap)))
    assert np.array_equal(a2.data, np.zeros((4, cfg.k_ap)))


def test_embed_matches_pointwise_loop():
    branch, _, cfg = build_branch(seed=3)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, cfg.k_ap))
    a1, a2 = branch.ap_embed(Tensor(a))
    kernel, bias = branch.embed_kernel.data, branch.embed_bias.data
    oracle = np.zeros((8, cfg.k_ap))
    for pos in range(cfg.k_ap):
        for co in range(8):
            oracle[co, pos] = sum(kernel[co, ci] * a[ci, pos] for ci in range(4)) + bias[co]
    assert np.allclose(a1.data, oracle[:4], atol=1e-14)
    assert np.allclose(a2.data, oracle[4:], atol=1e-14)


def test_spatial_gate_zero_weights_half():
    branch, _, cfg = build_branch()
    for t in (branch.p1, branch.b1, branch.p2, branch.b2):
        t.data[...] = 0.0
    gates = branch.spatial_gate(Tensor(np.random.default_rng(0).normal(size=(4, cfg.k_ap))))
    assert np.allclose(gates.data, 0.5, atol=1e-15)


def test_spatial_gate_large_bias_saturates():
    branch, _, cfg = build_branch()
    a1 = Tensor(np.zeros((4, cfg.k_ap)))
    lows = []
    for bias in (0.0, 2.0, 8.0, 30.0):
        branch.b2.data[...] = bias
        lows.append(branch.spatial_gate(a1).data.min())
    assert all(b > a for a, b in zip(lows, lows[1:]))  # monotone toward 1
    assert lows[-1] > 1.0 - 1e-12


def test_spatial_gate_matches_oracle():
    branch, _, cfg = build_branch(seed=5)
    rng = np.random.default_rng(4)
    a1 = rng.normal(size=(4, cfg.k_ap))
    out = branch.spatial_gate(Tensor(a1))
    oracle = spatial_gate_oracle(a1, branch.p1.data, branch.b1.data, branch.p2.data, branch.b2.data)
    assert np.max(np.abs(out.data - oracle)) < 1e-12


def test_channel_gate_zero_weights_half():
    branch, _, cfg = build_branch()
    for t in (branch.p3, branch.b3, branch.p4, branch.b4):
        t.data[...] = 0.0
    gates = branch.channel_gate(Tensor(np.random.default_rng(0).normal(size=(4, cfg.k_ap))))
    assert np.allclose(gates.data, 0.5, atol=1e-15)


def test_channel_gate_matches_oracle():
    branch, _, cfg = build_branch(seed=7)
    rng = np.random.default_rng(6)
    a2 = rng.normal(size=(4, cfg.k_ap))
    out = branch.channel_gate(Tensor(a2))
    oracle = channel_gate_oracle_cd(a2, branch.p3.data, branch.b3.data, branch.p4.data, branch.b4.data)
    assert np.max(np.abs(out.data - oracle)) < 1e-12


def test_channel_gate_is_transposed_spatial_structure():
    # Applying the channel projections row-wise to the transposed input
    # reproduces the transposed channel gate: the two blocks are mirror images.
    branch, _, cfg = build_branch(seed=9)
    rng = np.random.default_rng(8)
    a2 = rng.normal(size=(4, cfg.k_ap))
    gate = branch.channel_gate(Tensor(a2)).data
    t = a2.T  # (K_ap, 4)
    rowwise = 1.0 / (1.0 + np.exp(-((t @ branch.p3.data + branch.b3.data) @ branch.p4.data + branch.b4.data)))
    assert np.allclose(gate, rowwise.T, atol=1e-14)


def test_apply_gates_half_half_quarters():
    branch, _, cfg = build_branch()
    rng = np.random.default_rng(10)
    a = rng.normal(size=(4, cfg.k_ap))
    half = Tensor(np.full((4, cfg.k_ap), 0.5))
    out = ApGateBranch.apply_gates(Tensor(a), half, half)
    assert np.allclose(out.data, 0.25 * a, atol=1e-15)


def test_apply_gates_shape_mismatch():
    with pytest.raises(ShapeError):
        ApGateBranch.apply_gates(Tensor(np.ones((4, 9))), Tensor(np.ones((4, 8))), Tensor(np.ones((4, 9))))


def test_gates_strictly_inside_unit_interval():
    branch, _, cfg = build_branch(seed=11)
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(size=(4, cfg.k_ap)) * 3
        a1, a2 = branch.ap_embed(Tensor(a))
        g1 = branch.spatial_gate(a1).data
        g2 = branch.channel_gate(a2).data
        for g in (g1, g2):
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
        return ad.tsum(ad.mul(branch.forward(inp), probe))

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
