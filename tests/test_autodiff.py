"""Tests for the tensor/autodiff engine.

Gradients are validated against central finite differences; forward
semantics against direct formula evaluation or brute-force loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swhnet import autodiff as ad
from swhnet.errors import ConfigError, ContractError, NonFiniteError, ShapeError

from oracles import (affine_norm_chain, ap_gate_chain, finite_difference_grad, linear_chain, max_rel_error,
                     mul_node, patch_embed_chain, probe_sum, softmax_rows, tmean_chain, tsum_node)


def check_grads(build, arrays, step=1e-5, tol=1e-5, floor=1e-4):
    """Compare analytic gradients of build(arrays) against finite differences.

    `build` maps a list of Tensors to a scalar Tensor; `arrays` are the
    numpy inputs, perturbed in place for the FD oracle.
    """
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]

    def f():
        with ad.no_grad():
            ts = [ad.Tensor(a) for a in arrays]
            return build(ts).item()

    numeric = finite_difference_grad(f, arrays, step=step)
    for a, n in zip(analytic, numeric):
        assert max_rel_error(a, n, floor=floor) < tol


# ---------------------------------------------------------------------------
# linear: matmul, with an optional bias and ReLU
# ---------------------------------------------------------------------------


def test_matmul_identity():
    eye = ad.Tensor(np.eye(2))
    m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.linear(eye, m).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_zero_annihilates():
    z = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.arange(15.0).reshape(3, 5))
    out = ad.linear(z, b)
    assert out.shape == (2, 5)
    assert np.array_equal(out.data, np.zeros((2, 5)))


def test_matmul_gradcheck():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_grads(lambda ts: tsum_node(mul_node(ad.linear(ts[0], ts[1]), ad.linear(ts[0], ts[1]))), [a, b], tol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_linear_gradcheck():
    rng = np.random.default_rng(14)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5) + 0.3
    probe = rng.normal(size=(2, 3, 5))
    for relu in (False, True):
        check_grads(lambda ts: probe_sum(ad.linear(ts[0], ts[1], ts[2], relu), probe), [x, w, b])


def test_linear_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.ones((2, 3))), np.ones((4, 5)), np.zeros(5))
    with pytest.raises(ShapeError):
        ad.linear(ad.Tensor(np.ones((2, 3))), np.ones((3, 5)), np.zeros(4))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetry_and_shift():
    out = softmax_rows(ad.Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)
    big = softmax_rows(ad.Tensor([[1000.0, 1000.0]]))
    assert np.allclose(big.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_direct_formula():
    # Frozen from exp(k)/sum(exp(k)) evaluated with mpmath at 50 digits.
    expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
    out = softmax_rows(ad.Tensor([[1.0, 2.0, 3.0]]))
    assert np.allclose(out.data[0], expected, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
def test_softmax_rows_sum_to_one(row):
    out = softmax_rows(ad.Tensor([row]))
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert (out.data >= 0).all()


def test_softmax_gradcheck():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    check_grads(lambda ts: probe_sum(softmax_rows(ts[0]), w), [x])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_zeros():
    """Per token (`affine_norm`'s layer norm), a constant row maps to beta."""
    x = ad.Tensor(np.full((2, 5), 3.25))
    out = ad.affine_norm(x, np.ones(5), np.zeros(5))
    assert np.allclose(out.data, 0.0, atol=1e-12)
    over_tokens = ad.affine_norm(ad.Tensor(np.full((5, 2), 3.25)), np.ones(2), np.zeros(2), over_tokens=True)
    assert np.allclose(over_tokens.data, 0.0, atol=1e-12)


def test_layer_norm_two_point_row():
    # (x - mean)/std of [1, -1] is [1, -1] as eps -> 0.
    out = ad.affine_norm(ad.Tensor([[1.0, -1.0]]), np.ones(2), np.zeros(2), eps=1e-15)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-7)
    column = ad.affine_norm(ad.Tensor([[1.0], [-1.0]]), np.ones(1), np.zeros(1), over_tokens=True, eps=1e-15)
    assert np.allclose(column.data, [[1.0], [-1.0]], atol=1e-7)


def test_layer_norm_zero_gamma_broadcasts_beta():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    beta = np.array([1.0, 2.0, 3.0])
    for over_tokens in (False, True):
        out = ad.affine_norm(ad.Tensor(x), np.zeros(3), beta, over_tokens=over_tokens)
        assert np.allclose(out.data, np.broadcast_to(beta, (4, 3)))


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    w = rng.normal(size=(2, 3, 5))
    for over_tokens in (False, True):
        check_grads(lambda ts: probe_sum(ad.affine_norm(ts[0], ts[1], ts[2], over_tokens), w),
                    [x, gamma, beta])


def test_affine_norm_rejects_mismatched_affine_shapes():
    with pytest.raises(ShapeError):
        ad.affine_norm(ad.Tensor(np.ones((3, 4))), np.ones(3), np.zeros(4))
    with pytest.raises(ShapeError):
        ad.affine_norm(ad.Tensor(np.ones(4)), np.ones(4), np.zeros(4))


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------


def test_sigmoid_at_zero():
    """Zero weights make both of ap_gate's gates sigmoid(0) = 0.5 exactly."""
    a = np.random.default_rng(24).normal(size=(4, 9))
    for strategy in ("CI", "CD"):
        weights = [np.zeros_like(w) for w in ap_gate_case(strategy)]
        assert np.array_equal(ad.ap_gate(a, *weights).data, a * 0.25)


def test_sigmoid_extreme_values_finite():
    """Spatial gate biases of -1000 and 1000 saturate the gate at 0 and 1."""
    a = np.random.default_rng(25).normal(size=(4, 9)) + 3.0
    for strategy in ("CI", "CD"):
        weights = [np.zeros_like(w) for w in ap_gate_case(strategy)]
        weights[5][:] = [-1000.0, 1000.0] * 4 + [1000.0]  # b2, one per position
        out = ad.ap_gate(a, *weights).data
        assert np.all(np.isfinite(out))
        assert np.abs(out[:, 0]).max() < 1e-300
        assert np.array_equal(out[:, 1], a[:, 1] * 0.5)


def test_dropout_p_zero_is_identity():
    x = ad.Tensor(np.arange(6.0).reshape(2, 3))
    out = ad.dropout(x, 0.0, train=True, rng=np.random.default_rng(0))
    assert out is x


def test_dropout_eval_is_identity_for_any_p():
    x = ad.Tensor(np.ones((3, 3)))
    for p in (0.0, 0.3, 0.9):
        assert ad.dropout(x, p, train=False) is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(42)
    p = 0.3
    n = 100_000
    x = ad.Tensor(np.ones(n))
    out = ad.dropout(x, p, train=True, rng=rng)
    assert abs(out.data.mean() - 1.0) < 0.01


def test_dropout_invalid_p():
    with pytest.raises(ContractError):
        ad.dropout(ad.Tensor([1.0]), 1.0, train=True, rng=np.random.default_rng(0))


def test_dropout_gradcheck_fixed_mask():
    # With a frozen mask (same seed each eval) dropout is a linear map.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))

    def build(ts):
        return tsum_node(ad.dropout(ts[0], 0.5, train=True, rng=np.random.default_rng(99)))

    check_grads(build, [x])


def test_reshape_flatten_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4, 5))
    t = ad.Tensor(x)
    back = ad.reshape(ad.reshape(t, (-1,)), (3, 4, 5))
    assert np.array_equal(back.data, x)


@pytest.mark.parametrize("a_last", [False, True])
def test_gradients_of_a_shared_add_do_not_alias(a_last):
    # add passes the same upstream array to both operands; a later gradient
    # into `a` must not reach `b` through it.
    a = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    b = ad.Tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True)
    c, d = np.array([0.5, -1.0, 2.0]), np.array([3.0, 0.25, -0.5])
    via_sum = probe_sum(ad.add(a, b), c)
    direct = probe_sum(a, d)
    ad.add(direct, via_sum).backward() if a_last else ad.add(via_sum, direct).backward()
    assert np.array_equal(a.grad, c + d)
    assert np.array_equal(b.grad, c)
    assert not np.shares_memory(a.grad, b.grad)


def test_concat_split_stack_roundtrip():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    cat = ad.concat([ad.Tensor(a), ad.Tensor(b)], axis=1)
    pa, pb = ad.split(cat, 2, axis=1)
    assert np.array_equal(pa.data, a) and np.array_equal(pb.data, b)
    st_ = ad.stack([ad.Tensor(a), ad.Tensor(b)], axis=0)
    assert st_.shape == (2, 2, 3)
    assert np.array_equal(st_.data[1], b)


def test_axis_out_of_range():
    with pytest.raises(ShapeError):
        ad.split(ad.Tensor(np.ones((2, 2))), 2, axis=5)
    with pytest.raises(ShapeError):
        ad.concat([ad.Tensor(np.ones((2, 2)))], axis=3)


def test_shape_ops_gradcheck():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 4))
    b = rng.normal(size=(2, 4))

    def build(ts):
        cat = ad.concat([ts[0], ts[1]], axis=0)
        parts = ad.split(cat, 2, axis=1)
        stk = ad.stack(parts, axis=0)
        return tsum_node(mul_node(stk, stk))

    check_grads(build, [a, b])


def test_relu_sigmoid_gradcheck():
    """ReLU through `linear(..., relu=True)`, the only ReLU left."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 3)) + 0.2  # keep away from relu kink
    eye, zero = np.eye(3), np.zeros(3)
    assert np.array_equal(ad.linear(ad.Tensor(x), eye, zero, relu=True).data, np.maximum(x, 0.0))
    check_grads(lambda ts: tsum_node(ad.linear(ts[0], eye, zero, relu=True)), [x])
    # The sigmoid through ap_gate: selector weights make its spatial gate
    # sigmoid(x), its channel gate sigmoid(x) too.
    a = np.resize(x, (4, 9))
    weights = ap_gate_selectors("CD", 9)
    assert np.allclose(ad.ap_gate(a, *weights).data, a * sigmoid_np(a) ** 2, rtol=0.0, atol=1e-15)
    check_grads(lambda ts: tsum_node(ad.ap_gate(ts[0], *weights)), [a])


def test_broadcast_add_mul_grads():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 3))
    bias = rng.normal(size=(3,))
    scale = rng.normal(size=(3,))
    check_grads(lambda ts: tsum_node(mul_node(ad.add(ts[0], ts[1]), ts[2])), [x, bias, scale])


# ---------------------------------------------------------------------------
# patch / pointwise convolutions
# ---------------------------------------------------------------------------


def embed(x, kernels, biases, global_token=None, pe=None, patch=2):
    """`ad.patch_embed` with a zero global token and zero codes by default."""
    kernels = [ad.Tensor(k) for k in kernels]
    d = kernels[0].shape[0]
    t, w, h = np.shape(x)[-3:]
    n = -(-w // patch) * -(-h // patch)
    gt = ad.Tensor(np.zeros(d) if global_token is None else global_token)
    pe = np.zeros((t * n + 1, d)) if pe is None else pe
    return ad.patch_embed(ad.Tensor(x), kernels, [ad.Tensor(b) for b in biases], gt, pe, patch)


def test_conv_patchify_summing_kernel():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, 2, 2)
    out = embed(x, [np.ones((1, 1, 2, 2))], [np.zeros(1)])
    assert out.shape == (2, 1)  # the global token, then one patch
    assert out.data[0, 0] == 0.0 and out.data[1, 0] == 10.0


def test_conv_patchify_auto_pad_n():
    x = np.arange(18.0).reshape(2, 3, 3)
    out = embed(x, [np.ones((2, 1, 2, 2))] * 2, [np.zeros(2)] * 2)
    # 3x3 padded to 4x4 -> ceil(3/2)^2 = 4 patches per map
    assert out.shape == (9, 2)


def test_conv_patchify_zero_input_zero_bias():
    rng = np.random.default_rng(0)
    kernels = [rng.normal(size=(5, 1, 2, 2)) for _ in range(3)]
    gt, pe = rng.normal(size=5), rng.normal(size=(13, 5))
    out = embed(np.zeros((3, 4, 4)), kernels, [np.zeros(5)] * 3, gt, pe)
    assert np.array_equal(out.data, np.vstack([gt, np.zeros((12, 5))]) + pe)


def _unfold_linear_oracle(x, kernel, bias, patch):
    """Explicit-loop patch embedding used as the independent oracle."""
    t, w, h = x.shape
    nw = -(-w // patch)
    nh = -(-h // patch)
    padded = np.zeros((t, nw * patch, nh * patch))
    padded[:, :w, :h] = x
    d_out = kernel.shape[0]
    out = np.zeros((d_out, nw * nh))
    n = 0
    for i in range(nw):
        for j in range(nh):
            block = padded[:, i * patch:(i + 1) * patch, j * patch:(j + 1) * patch]
            for d in range(d_out):
                out[d, n] = np.sum(block * kernel[d]) + bias[d]
            n += 1
    return out


def patch_embed_oracle(x, kernels, biases, global_token, pe, patch):
    """The global token, then each map's unfold-loop tokens, plus `pe`."""
    seqs = [_unfold_linear_oracle(x[t:t + 1], k, b, patch).T for t, (k, b) in enumerate(zip(kernels, biases))]
    return np.vstack([global_token[None]] + seqs) + pe


def patch_embed_case(rng, types, w, h, d, patch):
    n = -(-w // patch) * -(-h // patch)
    return ([rng.normal(size=(d, 1, patch, patch)) for _ in range(types)], [rng.normal(size=d) for _ in range(types)],
            rng.normal(size=d), rng.normal(size=(types * n + 1, d)))


def test_conv_patchify_matches_unfold_oracle():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 6, 4))
    kernels, biases, gt, pe = patch_embed_case(rng, 3, 6, 4, 5, 2)
    out = embed(x, kernels, biases, gt, pe)
    assert out.shape == (19, 5)  # 3 maps x (6/2)*(4/2) patches + the global token
    assert np.allclose(out.data, patch_embed_oracle(x, kernels, biases, gt, pe, 2), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(types=st.integers(1, 3), w=st.integers(1, 7), h=st.integers(1, 7), d=st.integers(1, 5),
       patch=st.integers(1, 5), batch=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_patch_embed_matches_unfold_oracle(types, w, h, d, patch, batch, seed):
    """Any map count, size, width and patch, including a patch that does not
    divide W or H or exceeds them, and with or without a batch axis."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, types, w, h) if batch else (types, w, h))
    kernels, biases, gt, pe = patch_embed_case(rng, types, w, h, d, patch)
    out = embed(x, kernels, biases, gt, pe, patch).data
    for b, xb in enumerate(x if batch else [x]):
        want = patch_embed_oracle(xb, kernels, biases, gt, pe, patch)
        assert np.allclose(out[b] if batch else out, want, rtol=1e-12, atol=1e-12)


def test_conv_patchify_gradcheck():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 2, 3, 3))
    kernels, biases, gt, pe = patch_embed_case(rng, 2, 3, 3, 2, 2)

    def build(ts):
        out = ad.patch_embed(x, ts[0:2], ts[2:4], ts[4], pe, 2)
        return tsum_node(mul_node(out, out))

    check_grads(build, kernels + biases + [gt])


def test_patch_embed_rejects_bad_inputs():
    rng = np.random.default_rng(20)
    kernels, biases, gt, pe = patch_embed_case(rng, 3, 4, 4, 2, 2)
    with pytest.raises(ContractError):
        ad.patch_embed(ad.Tensor(np.ones((3, 4, 4)), requires_grad=True), kernels, biases, gt, pe, 2)
    with pytest.raises(ShapeError):
        ad.patch_embed(np.ones((2, 4, 4)), kernels, biases, gt, pe, 2)
    with pytest.raises(ShapeError):
        ad.patch_embed(np.ones((3, 4, 4)), kernels, biases, gt, pe[1:], 2)
    with pytest.raises(ShapeError):
        ad.patch_embed(np.ones((3, 4, 4)), kernels, biases, gt, pe, 3)


def fused_and_chain(fused, chain, inputs, probe_seed):
    """Output and every input's gradient, as bytes, of `fused` and of
    `chain` on the same inputs, each a tensor that requires grad."""
    def run(op):
        ts = [ad.Tensor(a, requires_grad=True) for a in inputs]
        out = op(*ts)
        probe = np.random.default_rng(probe_seed).normal(size=out.shape)
        probe_sum(out, probe).backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in ts]
    return run(fused), run(chain)


@pytest.mark.parametrize("lead", [(), (1, 4), (3, 4)], ids=["one-map", "B1", "B3"])
@pytest.mark.parametrize("w, h, d, patch", [(6, 6, 2, 3), (5, 4, 3, 2), (3, 5, 3, 4)],
                         ids=["divides", "odd-d-pads", "patch-over-W"])
def test_patch_embed_equals_its_chain_bit_for_bit(lead, w, h, d, patch):
    rng = np.random.default_rng(61)
    x = rng.normal(size=lead + (3, w, h))
    kernels, biases, gt, pe = patch_embed_case(rng, 3, w, h, d, patch)

    def as_op(embed_op):
        return lambda *ts: embed_op(ad.Tensor(x), ts[0:3], ts[3:6], ts[6], pe, patch)

    fused, chain = fused_and_chain(as_op(ad.patch_embed), as_op(patch_embed_chain),
                                   kernels + biases + [gt], 62)
    assert fused == chain


@pytest.mark.parametrize("lead", [(), (1,), (3, 4)], ids=["2-D", "B1", "B3"])
@pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
def test_linear_equals_matmul_add_relu_bit_for_bit(lead, relu):
    rng = np.random.default_rng(63)
    x, w, b = rng.normal(size=lead + (5, 7)), rng.normal(size=(7, 3)), rng.normal(size=3)
    fused, chain = fused_and_chain(lambda *ts: ad.linear(*ts, relu), lambda *ts: linear_chain(*ts, relu),
                                   [x, w, b], 64)
    assert fused == chain


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["one", "B1", "B3"])
@pytest.mark.parametrize("over_tokens", [False, True], ids=["CD", "CI"])
@pytest.mark.parametrize("d", [4, 3])
def test_affine_norm_equals_its_chain_bit_for_bit(lead, over_tokens, d):
    rng = np.random.default_rng(65)
    x, gamma, beta = rng.normal(size=lead + (7, d)), rng.normal(size=d), rng.normal(size=d)
    fused, chain = fused_and_chain(lambda *ts: ad.affine_norm(*ts, over_tokens),
                                   lambda *ts: affine_norm_chain(*ts, over_tokens), [x, gamma, beta], 66)
    assert fused == chain


# ---------------------------------------------------------------------------
# ap_gate: the auxiliary-parameter branch
# ---------------------------------------------------------------------------


def ap_gate_case(strategy, k=9, seed=0):
    """Random ap_gate weights (kernel, bias, p1, b1, p2, b2, p3, b3, p4, b4)."""
    rng = np.random.default_rng(seed)
    if strategy == "CD":
        shapes = [(8, 4), (8,), (k, 4 * k), (4 * k,), (4 * k, k), (k,), (4, 16), (16,), (16, 4), (4,)]
    else:
        shapes = [(8,), (8,), (k, 4 * k), (4 * k,), (4 * k, k), (k,), (4, 4), (4, 4), (4, 4), (4,)]
    return [rng.normal(scale=0.5, size=s) for s in shapes]


def ap_gate_selectors(strategy, k, kernel=None, bias=None):
    """ap_gate weights under which the spatial gate is sigmoid(A1) and the
    channel gate sigmoid(A2), A1 and A2 the embedding's halves: identity
    projections and zero biases. The embedding defaults to A1 = A2 = A."""
    up = 4 * k
    p1, p2 = np.eye(k, up), np.eye(up, k)
    if strategy == "CD":
        kernel = np.vstack([np.eye(4), np.eye(4)]) if kernel is None else kernel
        p3, b3, p4 = np.eye(4), np.zeros(4), np.eye(4)
    else:
        kernel = np.ones(8) if kernel is None else kernel
        p3, b3, p4 = np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4))
        p3[:, 0] = p4[:, 0] = 1.0  # each channel's 1 -> 4 -> 1 map through its first unit
    bias = np.zeros(8) if bias is None else bias
    return [kernel, bias, p1, np.zeros(up), p2, np.zeros(k), p3, b3, p4, np.zeros(4)]


def sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_conv1d_identity_kernel():
    """An identity-like embedding passes A itself to both gates."""
    a = np.random.default_rng(26).normal(size=(4, 9))
    for strategy in ("CI", "CD"):
        out = ad.ap_gate(a, *ap_gate_selectors(strategy, 9)).data
        assert np.allclose(out, a * sigmoid_np(a) ** 2, rtol=0.0, atol=1e-15)


def test_conv1d_zero_kernel_constant_bias():
    """A zero embedding kernel leaves each channel's gates at sigmoid of its biases."""
    a = np.random.default_rng(27).normal(size=(4, 9))
    bias = np.arange(8.0) / 4.0 - 1.0
    for strategy, kernel in (("CI", np.zeros(8)), ("CD", np.zeros((8, 4)))):
        out = ad.ap_gate(a, *ap_gate_selectors(strategy, 9, kernel, bias)).data
        want = a * (sigmoid_np(bias[:4]) * sigmoid_np(bias[4:]))[:, None]
        assert np.allclose(out, want, rtol=0.0, atol=1e-15)


def test_conv1d_matches_pointwise_loop():
    """The embedding against a per-position loop: dense over the channel
    vector (CD), one scale per channel (CI)."""
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 9))
    bias = rng.normal(size=8)
    for strategy, kernel in (("CI", rng.normal(size=8)), ("CD", rng.normal(size=(8, 4)))):
        emb = np.zeros((8, 9))
        for pos in range(9):
            for co in range(8):
                if strategy == "CD":
                    emb[co, pos] = sum(kernel[co, ci] * a[ci, pos] for ci in range(4)) + bias[co]
                else:
                    emb[co, pos] = kernel[co] * a[co % 4, pos] + bias[co]
        out = ad.ap_gate(a, *ap_gate_selectors(strategy, 9, kernel, bias)).data
        assert np.allclose(out, a * sigmoid_np(emb[:4]) * sigmoid_np(emb[4:]), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "B2"])
@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ap_gate_gradcheck(strategy, lead):
    rng = np.random.default_rng(28)
    a = rng.normal(size=lead + (4, 9))
    probe = rng.normal(size=lead + (4, 9))
    check_grads(lambda ts: probe_sum(ad.ap_gate(*ts), probe), [a] + ap_gate_case(strategy, seed=29))


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["one", "B1", "B3"])
@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ap_gate_equals_its_chain_bit_for_bit(lead, strategy):
    rng = np.random.default_rng(67)
    a = rng.normal(size=lead + (4, 10)) * 2.0
    fused, chain = fused_and_chain(ad.ap_gate, ap_gate_chain, [a] + ap_gate_case(strategy, k=10, seed=68), 69)
    assert fused == chain


def test_ap_gate_rejects_bad_shapes():
    weights = ap_gate_case("CD")
    with pytest.raises(ShapeError):
        ad.ap_gate(np.ones((3, 9)), *weights)
    with pytest.raises(ShapeError):
        ad.ap_gate(np.ones((4, 8)), *weights)
    with pytest.raises(ShapeError):
        ad.ap_gate(np.ones((4, 9)), np.ones((8, 3)), *weights[1:])
    ci = ap_gate_case("CI")
    with pytest.raises(ShapeError):
        ad.ap_gate(np.ones((4, 9)), *ci[:6], *weights[6:])


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    w = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
    tsum_node(w).backward()
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_square_analytic():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    tsum_node(mul_node(w, w)).backward()
    assert np.allclose(w.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ad.add(w, w).backward()


def test_backward_accumulates_without_zeroing():
    w = ad.Tensor([1.0, 2.0], requires_grad=True)
    tsum_node(w).backward()
    tsum_node(w).backward()
    assert np.allclose(w.grad, [2.0, 2.0])


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.add(ad.Tensor([1e308]), ad.Tensor([1e308]))
    with pytest.raises(NonFiniteError):
        ad.Tensor([float("nan")])


def ap_gate_overflow(where):
    """ap_gate inputs whose embedding, spatial pre-sigmoid product or CI
    channel product overflows; the gated output itself cannot."""
    if where == "embedding":
        return [np.full((4, 9), 1e308)] + ap_gate_selectors("CD", 9, kernel=np.ones((8, 4)))
    if where == "spatial":
        weights = ap_gate_selectors("CD", 9)
        weights[2] = np.full((9, 36), 1e308)
        return [np.ones((4, 9))] + weights
    weights = ap_gate_selectors("CI", 9)
    weights[6] = np.full((4, 4), 1e308)
    return [np.full((4, 9), 2.0)] + weights


OVERFLOWS = {
    "add": lambda: ad.add(ad.Tensor([1e308]), ad.Tensor([1e308])),
    "dropout": lambda: ad.dropout(ad.Tensor(np.full(64, 1e308)), 0.5, True, np.random.default_rng(0)),
    "linear": lambda: ad.linear(ad.Tensor([[1e308, 1e308]]), np.ones((2, 1))),
    "affine_norm": lambda: ad.affine_norm(ad.Tensor([[0.0, 1.0]]), np.full(2, 1e308), np.full(2, 1e308)),
    "sca_attention": lambda: ad.sca_attention(ad.Tensor(np.full((2, 4), 10.0)), np.full(4, 0.1), np.full(4, 0.1),
                                              np.ones(4), np.full(4, 1e308)),
    "ffn": lambda: ad.ffn(ad.Tensor(np.ones((2, 4))), np.ones((4, 3)), np.zeros(3), np.full((3, 4), 1e308),
                          np.zeros(4), 0.0, False),
    "huber": lambda: ad.huber(ad.Tensor([1e200, 1e200]), 1e300),
    "patch_embed": lambda: ad.patch_embed(np.ones((1, 2, 2)), [np.full((1, 1, 2, 2), 1e308)], [np.zeros(1)],
                                          np.zeros(1), np.zeros((2, 1)), 2),
    "ap_gate-embedding": lambda: ad.ap_gate(*ap_gate_overflow("embedding")),
    "ap_gate-spatial": lambda: ad.ap_gate(*ap_gate_overflow("spatial")),
    "ap_gate-channel": lambda: ad.ap_gate(*ap_gate_overflow("channel")),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_every_computing_op_raises_when_its_output_overflows(case):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=case.split("-")[0]):
            OVERFLOWS[case]()


def test_shape_ops_skip_the_finite_check(monkeypatch):
    """reshape, transpose, split, concat and stack only move finite values,
    so they do not check them; an op that computes does."""
    checked = []

    def guard(data, op):
        checked.append(op)
        return data

    x = ad.Tensor(np.ones((2, 4)), requires_grad=True)
    monkeypatch.setattr(ad, "_guard_finite", guard)
    parts = ad.split(ad.transpose(ad.reshape(x, (4, 2))), 2, axis=0)
    ad.stack([ad.concat(parts, axis=1)] * 2)
    assert checked == []
    ad.add(x, x)
    assert checked == ["add"]


def test_huber_values_and_gradcheck():
    values = [0.0, 1.0, -1.0, 3.0, -3.0, 2.0]
    for e, want in zip(values, [0.0, 0.5, 0.5, 4.0, 4.0, 2.0]):
        assert ad.huber(ad.Tensor([e]), delta=2.0).item() == want
    out = ad.huber(ad.Tensor(values), delta=2.0)
    assert out.shape == () and out.item() == pytest.approx(11.0 / 6.0, abs=1e-15)
    with pytest.raises(ConfigError):
        ad.huber(ad.Tensor([1.0]), delta=0.0)
    rng = np.random.default_rng(29)
    e = rng.normal(size=(2, 7)) * 3.0
    check_grads(lambda ts: ad.huber(ts[0], 2.0), [e])


# ---------------------------------------------------------------------------
# fused encoder ops
# ---------------------------------------------------------------------------


def attention_case(m, wo_shape, seed):
    """Tokens in [-1, 1] and projections with |q k| up to ~500, q of both signs."""
    rng = np.random.default_rng(seed)
    tokens = rng.uniform(-1.0, 1.0, size=(m, 4))
    wq = np.array([25.0, -20.0, 0.5, 22.0])
    wk = np.array([20.0, 24.0, -1.5, -21.0])
    wv = rng.normal(size=4)
    wo = rng.normal(size=wo_shape)
    return [tokens, wq, wk, wv, wo]


@pytest.mark.parametrize("wo_shape", [(4, 4), (4,)], ids=["CD", "CI"])
@pytest.mark.parametrize("m", [1, 3, 40])
def test_sca_attention_matches_oracle_and_gradcheck(m, wo_shape):
    from oracles import attention_oracle
    arrays = attention_case(m, wo_shape, seed=m)
    tokens, wq, wk, wv, wo = arrays
    q, k = tokens * wq, tokens * wk
    if m > 1:
        assert (q < 0).any() and (q > 0).any()
        assert np.abs(q[:, 0, None] * k[None, :, 0]).max() > 300.0
    strategy = "CD" if wo.ndim == 2 else "CI"
    out = ad.sca_attention(*[ad.Tensor(a) for a in arrays])
    oracle = attention_oracle(tokens, {"wq": wq, "wk": wk, "wv": wv, "wo": wo}, strategy)
    assert np.max(np.abs(out.data - oracle)) < 1e-10
    probe = np.random.default_rng(100 + m).normal(size=(m, 4))
    check_grads(lambda ts: probe_sum(ad.sca_attention(*ts), probe), arrays)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("wo_shape", [(4, 4), (4,)], ids=["CD", "CI"])
@pytest.mark.parametrize("m", [1, 3, 40])
def test_sca_attention_block_size_changes_no_bit(monkeypatch, m, wo_shape, batch):
    """Tiles of one probability row, of two rows (a partial last tile when M
    is odd), of one head, and all heads in one tile give the same values and
    the same five gradients, bit for bit."""
    _, wq, wk, wv, wo = attention_case(m, wo_shape, seed=m)
    rng = np.random.default_rng(70 + m)
    tokens = rng.uniform(-1.0, 1.0, size=(batch, m, 4))
    probe = rng.normal(size=(batch, m, 4))

    def run(tile_bytes):
        monkeypatch.setattr(ad, "TILE_BYTES", tile_bytes)
        ts = [ad.Tensor(a, requires_grad=True) for a in (tokens, wq, wk, wv, wo)]
        out = ad.sca_attention(*ts)
        probe_sum(out, probe).backward()
        return [out.data] + [t.grad for t in ts]

    all_rows = run(8 * m * m * 4 * batch)
    for tile_bytes in (1, 16 * m, 8 * m * m):
        for a, b in zip(run(tile_bytes), all_rows):
            assert a.tobytes() == b.tobytes()


def test_sca_attention_score_overflow_names_op():
    tokens = ad.Tensor(np.array([[1e160, 1.0, 1.0, 1.0], [-1e160, 2.0, 2.0, 2.0]]))
    ones = ad.Tensor(np.ones(4))
    with pytest.raises(NonFiniteError, match="sca_attention"):
        ad.sca_attention(tokens, ones, ones, ones, ad.Tensor(np.eye(4)))


def ffn_case(strategy, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 4))
    if strategy == "CD":
        shapes = [(4, 12), (12,), (12, 4), (4,)]
    else:
        shapes = [(4, 3), (4, 3), (4, 3), (4,)]
    return [x] + [rng.normal(size=s) for s in shapes]


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_ffn_gradcheck(strategy, train):
    arrays = ffn_case(strategy, 5, seed=31)
    probe = np.random.default_rng(32).normal(size=(5, 4))
    # A fresh generator per evaluation keeps the dropout masks fixed.
    check_grads(lambda ts: probe_sum(ad.ffn(*ts, 0.3, train, np.random.default_rng(33)), probe), arrays)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ffn_train_mode_matches_ordered_mask_oracle(strategy):
    from oracles import ffn_oracle
    x, w1, b1, w2, b2 = ffn_case(strategy, 6, seed=34)
    weights = {"ffn_w1": w1, "ffn_b1": b1, "ffn_w2": w2, "ffn_b2": b2}
    out = ad.ffn(ad.Tensor(x), w1, b1, w2, b2, 0.4, True, np.random.default_rng(35))
    oracle = ffn_oracle(x, weights, strategy, p=0.4, rng=np.random.default_rng(35))
    assert np.max(np.abs(out.data - oracle)) < 1e-12
    assert np.abs(out.data - ffn_oracle(x, weights, strategy)).max() > 1e-3  # masks did drop units


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
def test_ffn_tile_size_keeps_values_gradients_and_masks(monkeypatch, strategy, train):
    """Tiles of one row, of two rows (a partial last tile of M = 5 rows) and
    the whole batch agree in values and all five gradients to 1e-12
    relative, and every sample equals the ordered-mask oracle. BLAS may
    round a product's last bits differently for another row count, so bits
    are compared only where a tile is smaller than a sample: tiles never
    span two samples, so each sample then equals itself run alone."""
    from oracles import ffn_oracle
    _, w1, b1, w2, b2 = ffn_case(strategy, 5, seed=37)
    weights = {"ffn_w1": w1, "ffn_b1": b1, "ffn_w2": w2, "ffn_b2": b2}
    rng = np.random.default_rng(38)
    x = rng.normal(size=(3, 5, 4))
    probe = rng.normal(size=(3, 5, 4))
    row_bytes = 8 * w1.shape[1]

    def gens():
        return [np.random.default_rng(40 + b) for b in range(3)] if train else None

    def run(tile_bytes):
        monkeypatch.setattr(ad, "TILE_BYTES", tile_bytes)
        ts = [ad.Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
        out = ad.ffn(*ts, 0.4, train, gens())
        probe_sum(out, probe).backward()
        return [out.data] + [t.grad for t in ts]

    whole = run(row_bytes * 5 * 3)
    for tile_bytes in (1, 2 * row_bytes, row_bytes * 5 * 3):
        got = run(tile_bytes)
        for a, b in zip(got, whole):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        for s, g in enumerate(gens() or [None] * 3):
            oracle = ffn_oracle(x[s], weights, strategy, p=0.4 if train else 0.0, rng=g)
            assert np.max(np.abs(got[0][s] - oracle)) < 1e-12
        if tile_bytes < row_bytes * 5:
            for s, g in enumerate(gens() or [None] * 3):
                alone = ad.ffn(ad.Tensor(x[s]), w1, b1, w2, b2, 0.4, train, g).data
                assert alone.tobytes() == got[0][s].tobytes()


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ffn_gradcheck_one_row_tiles(monkeypatch, strategy):
    monkeypatch.setattr(ad, "TILE_BYTES", 1)
    _, *weights = ffn_case(strategy, 3, seed=41)
    batch = np.random.default_rng(42).normal(size=(2, 3, 4))
    probe = np.random.default_rng(43).normal(size=(2, 3, 4))
    check_grads(lambda ts: probe_sum(ad.ffn(*ts, 0.3, True, [np.random.default_rng(44 + b) for b in range(2)]),
                                     probe), [batch] + weights)


@pytest.mark.parametrize("strategy", ["CI", "CD"])
@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("one_row_tiles", [True, False], ids=["one_row_tiles", "default_tiles"])
def test_ffn_recompute_matches_kept_hidden_bit_for_bit(monkeypatch, strategy, p, batch, one_row_tiles):
    """Rebuilding the hidden tiles in backward from the one-byte keep mask
    gives the output and all five gradients byte for byte as keeping the
    float hidden array did. Paper widths over M = 40 rows: default CD tiles
    are blocks of 32 rows of one sample, default CI tiles whole batches."""
    from oracles import kept_hidden_ffn
    if one_row_tiles:
        monkeypatch.setattr(ad, "TILE_BYTES", 1)
    rng = np.random.default_rng(90)
    m = 40
    shapes = [(4, 2048), (2048,), (2048, 4), (4,)] if strategy == "CD" else [(4, 512), (4, 512), (4, 512), (4,)]
    weights = [rng.normal(scale=0.5, size=s) for s in shapes]
    x = rng.normal(size=(batch, m, 4))
    probe = rng.normal(size=(batch, m, 4))

    def run(op):
        if p == 0.0:
            gens = None
        elif batch == 1:
            gens = np.random.default_rng(91)
        else:
            gens = [np.random.default_rng(91 + b) for b in range(batch)]
        ts = [ad.Tensor(a, requires_grad=True) for a in [x] + weights]
        out = op(*ts, p, True, gens)
        probe_sum(out, probe).backward()
        return [out.data] + [t.grad for t in ts]

    for got, want in zip(run(ad.ffn), run(kept_hidden_ffn)):
        assert got.tobytes() == want.tobytes()


def test_ffn_rejects_mismatched_weights():
    x, w1, b1, w2, b2 = ffn_case("CD", 3, seed=36)
    with pytest.raises(ShapeError):
        ad.ffn(ad.Tensor(x), w1, b1, w2.T, b2, 0.0, False)
    with pytest.raises(ContractError):
        ad.ffn(ad.Tensor(x), w1, b1, w2, b2, 0.5, True, None)


# ---------------------------------------------------------------------------
# generic small-shape gradient property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_random_composite_gradcheck(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 3))
    g = rng.normal(size=4)
    bt = rng.normal(size=4)

    def build(ts):
        h = ad.linear(ts[0], ts[1])            # (3, 3)
        h = softmax_rows(h)
        h = ad.linear(h, ad.transpose(ts[1]))  # (3, 4)
        h = ad.affine_norm(h, ts[2], ts[3])
        return tmean_chain(mul_node(h, h))

    check_grads(build, [a, b, g, bt])


# ---------------------------------------------------------------------------
# leading batch axes
# ---------------------------------------------------------------------------


def per_sample_agrees(op, batch, *rest):
    """op over a (B, ...) batch equals op on each sample alone, to 1e-12 relative."""
    out = op(ad.Tensor(batch), *rest).data
    for b in range(len(batch)):
        alone = op(ad.Tensor(batch[b]), *rest).data
        assert np.max(np.abs(out[b] - alone)) <= 1e-12 * np.max(np.abs(alone))


def test_batched_ops_match_per_sample():
    rng = np.random.default_rng(51)
    w = rng.normal(size=(5, 3))
    per_sample_agrees(ad.linear, rng.normal(size=(3, 4, 5)), w)
    kernels, biases, gt, pe = patch_embed_case(rng, 2, 3, 5, 2, 2)
    per_sample_agrees(lambda x: ad.patch_embed(x, kernels, biases, gt, pe, 2), rng.normal(size=(3, 2, 3, 5)))
    lw, lb = rng.normal(size=(5, 2)), rng.normal(size=2)
    per_sample_agrees(lambda x: ad.linear(x, lw, lb, relu=True), rng.normal(size=(3, 4, 5)))
    for over_tokens in (False, True):
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        per_sample_agrees(lambda x: ad.affine_norm(x, gamma, beta, over_tokens), rng.normal(size=(3, 6, 4)))
    for strategy in ("CI", "CD"):
        weights = ap_gate_case(strategy, k=7, seed=52)
        per_sample_agrees(lambda a: ad.ap_gate(a, *weights), rng.normal(size=(3, 4, 7)))
    for wo_shape in ((4, 4), (4,)):
        _, wq, wk, wv, wo = attention_case(6, wo_shape, seed=52)
        per_sample_agrees(lambda t: ad.sca_attention(t, wq, wk, wv, wo), rng.uniform(-1, 1, size=(3, 6, 4)))
    for strategy in ("CI", "CD"):
        _, *weights = ffn_case(strategy, 5, seed=53)
        per_sample_agrees(lambda x: ad.ffn(x, *weights, 0.0, False), rng.normal(size=(3, 5, 4)))


@pytest.mark.parametrize("strategy", ["CI", "CD"])
def test_ffn_per_sample_generators_draw_each_sample_alone(strategy):
    _, *weights = ffn_case(strategy, 5, seed=54)
    x = np.random.default_rng(55).normal(size=(3, 5, 4))
    out = ad.ffn(ad.Tensor(x), *weights, 0.4, True, [np.random.default_rng(60 + b) for b in range(3)]).data
    for b in range(3):
        alone = ad.ffn(ad.Tensor(x[b]), *weights, 0.4, True, np.random.default_rng(60 + b)).data
        assert out[b].tobytes() == alone.tobytes()
    with pytest.raises(ShapeError):
        ad.ffn(ad.Tensor(x), *weights, 0.4, True, [np.random.default_rng(0)] * 2)


def test_batched_fused_ops_gradcheck():
    rng = np.random.default_rng(56)
    tokens, wq, wk, wv, wo = attention_case(4, (4, 4), seed=57)
    batch = rng.uniform(-1, 1, size=(2, 4, 4))
    probe = rng.normal(size=(2, 4, 4))
    check_grads(lambda ts: probe_sum(ad.sca_attention(*ts), probe), [batch, wq, wk, wv, wo])
    x, *weights = ffn_case("CI", 4, seed=58)
    check_grads(lambda ts: probe_sum(ad.ffn(*ts, 0.3, True, [np.random.default_rng(59 + b) for b in range(2)]),
                                     probe), [rng.normal(size=(2, 4, 4))] + weights)


def test_transpose_default_swaps_last_two_axes_and_len():
    x = np.arange(24.0).reshape(2, 3, 4)
    t = ad.Tensor(x)
    assert np.array_equal(ad.transpose(t).data, np.swapaxes(x, -1, -2))
    assert np.array_equal(ad.transpose(t, (-1, 0, 1)).data, np.transpose(x, (2, 0, 1)))
    with pytest.raises(ShapeError):
        ad.transpose(t, (0, 0, 1))
    assert len(t) == 2
    with pytest.raises(TypeError):
        len(ad.Tensor(1.0))
