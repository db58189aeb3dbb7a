"""Dense float64 tensors with reverse-mode automatic differentiation.

Small tape-based autodiff engine providing exactly the operations the
network needs: matrix products, row softmax, last-axis normalization,
patch/pointwise convolutions, and an elementwise suite (add, mul, relu,
sigmoid, dropout, transpose, reshape, concat, split, stack).

Design notes:
  * Everything is float64; gradients are checked against central finite
    differences at tight tolerances in the test suite.
  * Any forward op that produces NaN/Inf from finite inputs raises
    NonFiniteError immediately instead of propagating.
  * backward() accumulates: a second call without zeroing adds gradients.
  * Dropout takes an explicit numpy Generator so runs are reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (used for evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _guard_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced non-finite values")
    return data


class Tensor:
    """A dense array node in the computation graph.

    `data` is always a float64 ndarray. `grad` is materialized lazily
    during backward() and has the same shape as `data`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _guard_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward, op: str) -> "Tensor":
        _guard_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        backward(self)

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class Parameter:
    """A named trainable tensor; names are unique within a model."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, data):
        self.name = name
        self.tensor = Tensor(data, requires_grad=True)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class ParamBag:
    """Ordered registry of Parameters with unique names."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        p = Parameter(name, data)
        self._params[name] = p
        return p.tensor

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter arrays, keyed by name."""
        return {k: p.data.copy() for k, p in self._params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ConfigError(
                f"parameter set mismatch (missing={sorted(missing)}, unexpected={sorted(extra)})"
            )
        for k, p in self._params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ConfigError(f"shape mismatch for {k}: {arr.shape} vs {p.data.shape}")
            p.tensor.data = arr.copy()


def count_params(bag: ParamBag) -> int:
    """Total number of scalar parameters in the bag."""
    return sum(p.data.size for p in bag.values())


# -- backward driver ----------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into .grad of every reachable node.

    `loss` must be a scalar (size-1) tensor. Gradients accumulate across
    calls; callers zero parameters between optimizer steps.
    """
    if loss.size != 1:
        raise ContractError(f"backward() requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # Iterative topological order (graphs can be deep for long MLP chains).
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# -- elementwise / broadcasting ----------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._from_op(data, (a, b), _bw, "add")


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def _bw(g):
        if a.requires_grad:
            a._accumulate(-g)

    return Tensor._from_op(-a.data, (a,), _bw, "neg")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(data, (a, b), _bw, "mul")


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0.0

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), _bw, "relu")


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    # Stable two-branch evaluation avoids overflow for large |x|.
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return Tensor._from_op(s, (x,), _bw, "sigmoid")


def dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity in eval mode (train=False) for any p.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in train mode requires an explicit rng")
    keep = rng.random(x.shape) >= p
    scale = 1.0 / (1.0 - p)
    factor = keep * scale

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * factor)

    return Tensor._from_op(x.data * factor, (x,), _bw, "dropout")


# -- shape manipulation ---------------------------------------------------------


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    x = _as_tensor(x)
    if axes is not None and sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: invalid axes {axes} for ndim {x.ndim}")
    data = np.transpose(x.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(np.transpose(g, inv))

    return Tensor._from_op(np.ascontiguousarray(data), (x,), _bw, "transpose")


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return Tensor._from_op(np.ascontiguousarray(data), (x,), _bw, "reshape")


def flatten(x: Tensor) -> Tensor:
    """Row-major flatten to a 1-D tensor."""
    return reshape(x, (-1,))


def concat(tensors, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ContractError("concat of zero tensors")
    if not -parts[0].ndim <= axis < parts[0].ndim:
        raise ShapeError(f"concat: axis {axis} out of range")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: ragged shapes") from exc
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(int(lo), int(hi))
                p._accumulate(g[tuple(idx)])

    return Tensor._from_op(data, tuple(parts), _bw, "concat")


def split(x: Tensor, parts: int, axis: int = 0) -> list[Tensor]:
    """Split into `parts` equal slices along `axis`."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"split: axis {axis} out of range for ndim {x.ndim}")
    axis = axis % x.ndim
    n = x.shape[axis]
    if parts < 1 or n % parts != 0:
        raise ShapeError(f"split: cannot divide axis of size {n} into {parts} parts")
    step = n // parts
    out = []
    for k in range(parts):
        idx = [slice(None)] * x.ndim
        idx[axis] = slice(k * step, (k + 1) * step)
        idx = tuple(idx)

        def _bw(g, idx=idx):
            if x.requires_grad:
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                x.grad[idx] += g

        out.append(Tensor._from_op(np.ascontiguousarray(x.data[idx]), (x,), _bw, "split"))
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ContractError("stack of zero tensors")
    try:
        data = np.stack([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError("stack: ragged shapes") from exc

    def _bw(g):
        for k, p in enumerate(parts):
            if p.requires_grad:
                p._accumulate(np.take(g, k, axis=axis))

    return Tensor._from_op(data, tuple(parts), _bw, "stack")


def pad_end(x: Tensor, pads: tuple[int, ...]) -> Tensor:
    """Zero-pad at the end of each axis; `pads[i]` trailing zeros on axis i."""
    x = _as_tensor(x)
    if len(pads) != x.ndim:
        raise ShapeError(f"pad_end: {len(pads)} pad widths for ndim {x.ndim}")
    widths = [(0, int(p)) for p in pads]
    data = np.pad(x.data, widths)
    idx = tuple(slice(0, s) for s in x.shape)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g[idx])

    return Tensor._from_op(data, (x,), _bw, "pad_end")


# -- reductions -----------------------------------------------------------------


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def _bw(g):
        if not x.requires_grad:
            return
        if axis is None:
            x._accumulate(np.broadcast_to(g.reshape(() if not keepdims else g.shape), x.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(gg, x.shape).copy())

    return Tensor._from_op(np.asarray(data, dtype=np.float64), (x,), _bw, "sum")


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


# -- linear algebra ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree ({a.shape} x {b.shape})")
    data = a.data @ b.data

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor._from_op(data, (a, b), _bw, "matmul")


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor, computed with max subtraction."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows requires a 2-D tensor, got {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(s * (g - (g * s).sum(axis=1, keepdims=True)))

    return Tensor._from_op(s, (x,), _bw, "softmax_rows")


def normalize(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance along the last axis (population statistics).

    eps guards the zero-variance case: a constant slice maps to zeros.
    """
    x = _as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("normalize: empty last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    y = (x.data - mu) / sigma

    def _bw(g):
        if x.requires_grad:
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * y).mean(axis=-1, keepdims=True)
            x._accumulate((g - gm - y * gym) / sigma)

    return Tensor._from_op(y, (x,), _bw, "normalize")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Last-axis layer normalization with affine parameters of shape (d,)."""
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    x = _as_tensor(x)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    return add(mul(normalize(x, eps), gamma), beta)


def huber(residual: Tensor, delta: float) -> Tensor:
    """Elementwise Huber penalty of a residual tensor.

    0.5 e^2 inside |e| <= delta, linear delta*|e| - 0.5 delta^2 outside.
    """
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    residual = _as_tensor(residual)
    e = residual.data
    inside = np.abs(e) <= delta
    data = np.where(inside, 0.5 * e * e, delta * np.abs(e) - 0.5 * delta * delta)
    deriv = np.where(inside, e, delta * np.sign(e))

    def _bw(g):
        if residual.requires_grad:
            residual._accumulate(g * deriv)

    return Tensor._from_op(data, (residual,), _bw, "huber")


# -- convolution-style embeddings ----------------------------------------------


def conv_patchify(x: Tensor, kernel: Tensor, bias: Tensor, patch: int) -> Tensor:
    """Non-overlapping patch embedding of a (T, W, H) map.

    Pads W and H up to the next multiple of `patch` with zeros, extracts
    patch x patch blocks (row-major over the padded grid), and projects
    each block to the kernel's output dimension. Kernel has shape
    (d_out, T, patch, patch); the result is (d_out, N) with
    N = ceil(W/patch) * ceil(H/patch).
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if patch < 1:
        raise ShapeError(f"patch size must be >= 1, got {patch}")
    if x.ndim != 3:
        raise ShapeError(f"conv_patchify input must be (T, W, H), got {x.shape}")
    t, w, h = x.shape
    if kernel.ndim != 4 or kernel.shape[1:] != (t, patch, patch):
        raise ShapeError(f"conv_patchify kernel {kernel.shape} does not match input {x.shape}, patch {patch}")
    d_out = kernel.shape[0]
    if bias.shape != (d_out,):
        raise ShapeError(f"conv_patchify bias shape {bias.shape} != ({d_out},)")
    nw = -(-w // patch)
    nh = -(-h // patch)
    padded = pad_end(x, (0, nw * patch - w, nh * patch - h))
    blocks = reshape(padded, (t, nw, patch, nh, patch))
    # (nw, nh, T, P, P) -> rows enumerate patches row-major over the grid
    blocks = transpose(blocks, (1, 3, 0, 2, 4))
    patches = reshape(blocks, (nw * nh, t * patch * patch))
    weights = reshape(kernel, (d_out, t * patch * patch))
    out = add(matmul(patches, transpose(weights)), bias)  # (N, d_out)
    return transpose(out)  # (d_out, N)


def conv1d_embed(a: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Pointwise 1-D convolution: per-position linear map of the channel vector.

    a is (C_in, L), kernel is (C_out, C_in), bias is (C_out,); returns (C_out, L).
    """
    a, kernel, bias = _as_tensor(a), _as_tensor(kernel), _as_tensor(bias)
    if a.ndim != 2 or kernel.ndim != 2:
        raise ShapeError(f"conv1d_embed requires 2-D input/kernel, got {a.shape}/{kernel.shape}")
    if kernel.shape[1] != a.shape[0]:
        raise ShapeError(f"conv1d_embed: kernel {kernel.shape} does not match input channels {a.shape[0]}")
    if bias.shape != (kernel.shape[0],):
        raise ShapeError(f"conv1d_embed bias shape {bias.shape} != ({kernel.shape[0]},)")
    return add(matmul(kernel, a), reshape(bias, (-1, 1)))
