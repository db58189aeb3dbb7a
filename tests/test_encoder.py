"""Tests for the DDM branch: embedding, aggregation, attention encoder."""

import numpy as np
import pytest

from swhnet import autodiff as ad
from swhnet.autodiff import ParamBag, Tensor
from swhnet.config import ModelConfig
from swhnet.encoder import DdmEncoder, add_norm, positional_encoding
from swhnet.errors import ConfigError, ShapeError

from oracles import (encoder_forward_per_channel, encoder_layer_oracle, finite_difference_grad,
                     layer_weight_arrays, max_rel_error, norm_oracle, probe_sum, softmax_rows)


def tiny_config(**kw):
    base = dict(width=2, height=2, patch_size=2, embed_dim=2, n_layers=1,
                d_ff=8, dropout_p=0.0, strategy="CD", seed=0)
    base.update(kw)
    return ModelConfig(**base)


def build_encoder(cfg, seed=0):
    bag = ParamBag()
    enc = DdmEncoder(cfg, bag, np.random.default_rng(seed))
    bag.seal()
    return enc, bag


# ---------------------------------------------------------------------------
# positional encoding
# ---------------------------------------------------------------------------


def test_pe_position_zero():
    pe = positional_encoding(5, 6)
    assert np.array_equal(pe[0, 0::2], np.zeros(3))
    assert np.array_equal(pe[0, 1::2], np.ones(3))


def test_pe_first_position_value():
    pe = positional_encoding(2, 4)
    assert abs(pe[1, 0] - np.sin(1.0)) < 1e-15  # sin(1) ~ 0.841471


def test_pe_range():
    pe = positional_encoding(50, 9)
    assert pe.min() >= -1.0 and pe.max() <= 1.0


def test_pe_matches_closed_form():
    import mpmath
    mpmath.mp.dps = 30
    rng = np.random.default_rng(0)
    pe = positional_encoding(200, 12)
    for _ in range(100):
        pos = int(rng.integers(0, 200))
        d = int(rng.integers(0, 6))
        angle = mpmath.mpf(pos) / mpmath.power(10000, mpmath.mpf(2 * d) / 12)
        assert abs(pe[pos, 2 * d] - float(mpmath.sin(angle))) < 1e-12
        assert abs(pe[pos, 2 * d + 1] - float(mpmath.cos(angle))) < 1e-12


# ---------------------------------------------------------------------------
# embedding and aggregation
# ---------------------------------------------------------------------------


def test_embed_channel_sequence_length():
    cfg = tiny_config(embed_dim=1)
    enc, _ = build_encoder(cfg)
    out = enc.embed_channel(Tensor(np.zeros((3, 2, 2))))
    assert out.shape == (4, 1)  # 3 types x 1 patch + global token


def test_embed_zero_weights_gives_pure_pe():
    cfg = tiny_config()
    enc, bag = build_encoder(cfg)
    for name, p in bag.items():
        if name.startswith("encoder.embed"):
            p.data[...] = 0.0
    out = enc.embed_channel(Tensor(np.zeros((3, 2, 2))))
    assert np.array_equal(out.data, positional_encoding(cfg.seq_len, cfg.embed_dim))


def test_identical_ddms_identical_embeddings():
    cfg = tiny_config(width=4, height=4, patch_size=2)
    enc, _ = build_encoder(cfg)
    rng = np.random.default_rng(3)
    ddms = rng.normal(size=(3, 4, 4))
    a = enc.embed_channel(Tensor(ddms))
    b = enc.embed_channel(Tensor(ddms.copy()))
    assert np.array_equal(a.data, b.data)


def test_aggregate_stacking_semantics():
    cfg = tiny_config()
    enc, _ = build_encoder(cfg)
    seqs = [Tensor(np.full((4, 2), float(c))) for c in range(4)]
    out = enc.aggregate_channels(seqs)
    assert out.shape == (8, 4)
    for c in range(4):
        assert np.all(out.data[:, c] == float(c))


def test_aggregate_flat_length_arithmetic():
    cfg = ModelConfig(width=11, height=17, patch_size=3, embed_dim=8)
    assert cfg.n_patches == 24
    assert cfg.flat_len == (3 * 24 + 1) * 8  # 584


def test_aggregate_flatten_order_row_major():
    cfg = tiny_config()
    enc, _ = build_encoder(cfg)
    seq = np.arange(8.0).reshape(4, 2)  # token-major (token, embed_dim)
    out = enc.aggregate_channels([Tensor(seq)] * 4)
    assert np.array_equal(out.data[:, 0], seq.reshape(-1))


def test_aggregate_ragged_rejected():
    cfg = tiny_config()
    enc, _ = build_encoder(cfg)
    seqs = [Tensor(np.zeros((4, 2)))] * 3 + [Tensor(np.zeros((5, 2)))]
    with pytest.raises(ShapeError):
        enc.aggregate_channels(seqs)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_forward_matches_per_channel_embedding(strategy):
    """Train and eval outputs equal the per-channel oracle bit for bit. Only
    the shared embedding weights' gradients may differ, by summation order."""
    cfg = tiny_config(width=5, height=4, patch_size=2, embed_dim=3, n_layers=2, d_ff=8,
                      dropout_p=0.2, strategy=strategy)
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(3, 4, 3, 5, 4))
    probe = rng.normal(size=(3, cfg.flat_len, 4))

    def run(forward):
        enc, bag = build_encoder(cfg)
        out = forward(enc, Tensor(stack), True, np.random.default_rng(9))
        probe_sum(out, probe).backward()
        with ad.no_grad():
            eval_out = forward(enc, Tensor(stack), False, None)
        return out.data, eval_out.data, {name: p.grad for name, p in bag.items()}

    train_a, eval_a, grads_a = run(DdmEncoder.forward)
    train_b, eval_b, grads_b = run(encoder_forward_per_channel)
    assert train_a.tobytes() == train_b.tobytes()
    assert eval_a.tobytes() == eval_b.tobytes()
    for name, g in grads_b.items():
        if name.startswith("encoder.embed."):
            assert np.max(np.abs(grads_a[name] - g)) <= 1e-12 * np.max(np.abs(g))
        else:
            assert grads_a[name].tobytes() == g.tobytes()


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_token_identity():
    cfg = tiny_config()
    enc, _ = build_encoder(cfg)
    layer = enc.layers[0]
    layer["wq"].data[...] = 1.0
    layer["wk"].data[...] = 1.0
    layer["wv"].data[...] = 1.0
    layer["wo"].data[...] = np.eye(4)
    tokens = Tensor(np.array([[0.3, -1.2, 2.0, 0.7]]))
    out = enc.sca_attention(tokens, layer)
    assert np.allclose(out.data, tokens.data, atol=1e-15)


def test_attention_uniform_when_keys_constant():
    cfg = tiny_config()
    enc, _ = build_encoder(cfg)
    layer = enc.layers[0]
    layer["wq"].data[...] = 1.0
    layer["wk"].data[...] = 0.0  # zero keys -> all scores equal -> uniform weights
    layer["wv"].data[...] = 1.0
    layer["wo"].data[...] = np.eye(4)
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(6, 4))
    out = enc.sca_attention(Tensor(tokens), layer)
    expected = np.broadcast_to(tokens.mean(axis=0), (6, 4))
    assert np.allclose(out.data, expected, atol=1e-14)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_attention_matches_triple_loop_oracle(strategy):
    cfg = tiny_config(strategy=strategy)
    enc, _ = build_encoder(cfg, seed=11)
    layer = enc.layers[0]
    rng = np.random.default_rng(7)
    tokens = rng.normal(size=(3, 4))
    out = enc.sca_attention(Tensor(tokens), layer)
    from oracles import attention_oracle
    oracle = attention_oracle(tokens, layer_weight_arrays(enc, 0), strategy)
    assert np.max(np.abs(out.data - oracle)) < 1e-10


def test_attention_rows_sum_to_one():
    # softmax_rows keeps rows summing to one over the score range attention sees
    rng = np.random.default_rng(9)
    scores = rng.uniform(-50, 50, size=(12, 12))
    attn = softmax_rows(Tensor(scores))
    assert np.max(np.abs(attn.data.sum(axis=1) - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# add & norm and FFN
# ---------------------------------------------------------------------------


def test_add_norm_zero_gamma_returns_input():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 4)))
    out = add_norm(x, x, Tensor(np.zeros(4)), Tensor(np.zeros(4)), "CD", 0.0, False, None)
    assert np.array_equal(out.data, x.data)


def test_add_norm_constant_rows_returns_input():
    x = Tensor(np.tile(np.array([[2.0, 2.0, 2.0, 2.0]]), (3, 1)))
    out = add_norm(x, x, Tensor(np.ones(4)), Tensor(np.zeros(4)), "CD", 0.0, False, None)
    assert np.allclose(out.data, x.data, atol=1e-12)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_add_norm_matches_formula_oracle(strategy):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 4))
    gamma = rng.normal(size=4)
    beta = rng.normal(size=4)
    out = add_norm(Tensor(x), Tensor(x), Tensor(gamma), Tensor(beta), strategy, 0.0, False, None)
    oracle = x + norm_oracle(x, gamma, beta, strategy)
    assert np.max(np.abs(out.data - oracle)) < 1e-12


def test_ffn_zero_weights_then_add_norm_identity():
    cfg = tiny_config()
    enc, bag = build_encoder(cfg)
    layer = enc.layers[0]
    for key in ("ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
        layer[key].data[...] = 0.0
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(5, 4)))
    f = enc.ffn(x, layer, train=False, rng=None)
    assert np.array_equal(f.data, np.zeros((5, 4)))
    out = add_norm(x, f, Tensor(np.ones(4)), Tensor(np.zeros(4)), "CD", 0.0, False, None)
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_ffn_ci_blocks_isolate_channels():
    cfg = tiny_config(strategy="CI")
    enc, _ = build_encoder(cfg, seed=13)
    layer = enc.layers[0]
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 4))
    base = enc.ffn(Tensor(x), layer, False, None).data
    x2 = x.copy()
    x2[:, 2] += 1.0
    bumped = enc.ffn(Tensor(x2), layer, False, None).data
    for c in range(4):
        if c == 2:
            assert not np.array_equal(base[:, c], bumped[:, c])
        else:
            assert np.array_equal(base[:, c], bumped[:, c])


def test_ci_requires_dff_multiple_of_four():
    with pytest.raises(ConfigError):
        tiny_config(strategy="CI", d_ff=6)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ffn_matches_oracle(strategy):
    from oracles import ffn_oracle
    cfg = tiny_config(strategy=strategy)
    enc, _ = build_encoder(cfg, seed=17)
    layer = enc.layers[0]
    rng = np.random.default_rng(10)
    x = rng.normal(size=(4, 4))
    out = enc.ffn(Tensor(x), layer, False, None)
    oracle = ffn_oracle(x, layer_weight_arrays(enc, 0), strategy)
    assert np.max(np.abs(out.data - oracle)) < 1e-12


# ---------------------------------------------------------------------------
# full encoder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_encoder_layer_matches_straight_line_oracle(strategy):
    cfg = tiny_config(strategy=strategy)
    enc, _ = build_encoder(cfg, seed=21)
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 4):
        tokens = rng.normal(size=(m, 4))
        out = enc.layer_forward(Tensor(tokens), enc.layers[0], False, None)
        oracle = encoder_layer_oracle(tokens, layer_weight_arrays(enc, 0), strategy)
        assert np.max(np.abs(out.data - oracle)) < 1e-10


def test_encoder_forward_deterministic():
    cfg = tiny_config(n_layers=2)
    enc, _ = build_encoder(cfg, seed=3)
    rng = np.random.default_rng(14)
    stack = rng.normal(size=(4, 3, 2, 2))
    a = enc.forward(Tensor(stack)).data
    b = enc.forward(Tensor(stack.copy())).data
    assert np.array_equal(a, b)


def test_encoder_ci_channel_isolation_bit_exact():
    cfg = tiny_config(strategy="CI", n_layers=2, width=4, height=4, patch_size=2)
    enc, _ = build_encoder(cfg, seed=5)
    rng = np.random.default_rng(16)
    stack = rng.normal(size=(4, 3, 4, 4))
    base = enc.forward(Tensor(stack)).data
    for j in range(4):
        bumped = stack.copy()
        bumped[j] += rng.normal(size=(3, 4, 4))
        out = enc.forward(Tensor(bumped)).data
        for c in range(4):
            if c == j:
                assert not np.array_equal(out[:, c], base[:, c])
            else:
                assert np.array_equal(out[:, c], base[:, c])


def test_encoder_cd_cross_channel_jacobian_nonzero():
    cfg = tiny_config(strategy="CD")
    enc, _ = build_encoder(cfg, seed=7)
    rng = np.random.default_rng(18)
    stack = rng.normal(size=(4, 3, 2, 2))
    h = 1e-5
    found = False
    direction = rng.normal(size=(3, 2, 2))
    up, dn = stack.copy(), stack.copy()
    up[1] += h * direction
    dn[1] -= h * direction
    diff = (enc.forward(Tensor(up)).data - enc.forward(Tensor(dn)).data) / (2 * h)
    for c in range(4):
        if c != 1 and np.max(np.abs(diff[:, c])) > 1e-8:
            found = True
    assert found


def test_encoder_channel_permutation_equivariance_ci():
    cfg = tiny_config(strategy="CI", n_layers=2)
    enc, bag = build_encoder(cfg, seed=9)
    rng = np.random.default_rng(20)
    stack = rng.normal(size=(4, 3, 2, 2))
    base = enc.forward(Tensor(stack)).data
    perm = np.array([2, 0, 3, 1])
    # permute per-channel weights to follow the input permutation
    for name, p in bag.items():
        if any(tag in name for tag in (".attn.w", ".norm", ".ffn.")):
            p.data = p.data[perm].copy()
    out = enc.forward(Tensor(stack[perm])).data
    assert np.array_equal(out, base[:, perm])


def test_encoder_gradcheck_one_layer():
    cfg = tiny_config(strategy="CD")
    enc, bag = build_encoder(cfg, seed=23)
    rng = np.random.default_rng(22)
    stack = rng.normal(size=(4, 3, 2, 2))
    probe = rng.normal(size=(cfg.flat_len, 4))

    def loss_tensor():
        out = enc.forward(Tensor(stack), train=False)
        return probe_sum(out, probe)

    loss = loss_tensor()
    loss.backward()
    params = list(bag.values())
    analytic = [p.grad.copy() for p in params]

    def f():
        with ad.no_grad():
            return loss_tensor().item()

    numeric = finite_difference_grad(f, [p.data for p in params], step=1e-4)
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n) < 1e-4
