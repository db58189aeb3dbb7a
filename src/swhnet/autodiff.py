"""Dense float64 tensors with reverse-mode automatic differentiation.

Small tape-based autodiff engine providing exactly the operations the
network needs: add, dropout, the shape ops (transpose, reshape, concat,
split, stack), and fused ops with hand-derived backward passes: `linear`
(a matrix product with an optional bias and ReLU), `affine_norm`
(per-token or per-channel normalization with its affine map),
`patch_embed` (every DDM type's patch embedding with the global token
and position codes), `sca_attention` (four d_k = 1 heads plus the output
projection), `ffn` (linear -> ReLU -> dropout -> linear, dense or
per-channel blocks), `ap_gate` (the auxiliary-parameter branch) and
`huber` (the mean Huber penalty, a scalar loss).

Design notes:
  * Everything is float64; gradients are checked against central finite
    differences at tight tolerances in the test suite.
  * Any forward op that produces NaN/Inf from finite inputs raises
    NonFiniteError immediately instead of propagating. A fused op checks
    where overflow can arise, not every intermediate; the shape ops,
    which only move finite values, do not check.
  * The fused ops keep only O(M) float arrays, and `ffn` a one-byte
    (M, d_ff) dropout mask, for backward and recompute the rest there,
    instead of a tape node per intermediate.
    They run over tiles of at most TILE_BYTES, sized to a core's L2
    cache, and make every elementwise pass over a tile while it is there.
  * backward() accumulates: a second call without zeroing adds gradients.
  * Dropout takes an explicit numpy Generator so runs are reproducible.
    A list of generators, one per index of the leading (batch) axis,
    draws each sample's masks from its own stream instead.
  * Ops accept leading batch axes; products with a 2-D weight fold them
    into the rows of one BLAS call, and weight gradients sum over them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, NonFiniteError, ShapeError

_grad_enabled = True

# Bytes of the largest scratch array a fused op works through at once: a
# tile of `ffn`'s (rows, d_ff) hidden array or of `sca_attention`'s (rows, M)
# probabilities (see `_tiles`). A tile stays in a core's 2 MB L2 cache, so
# each elementwise pass over it reads cache, not memory. Swept from 256 KB
# to 2 MB, paper-default training time was flat within its noise and the
# feedforward forward was fastest at 512 KB, where its two float tile-sized
# buffers (hidden rows and dropout draws) fill half of L2. Small models take
# a whole batch in one tile, where per-tile Python and numpy call overhead
# would dominate.
TILE_BYTES = 512 << 10


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
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return data


class Tensor:
    """A dense array node in the computation graph.

    `data` is always a float64 ndarray. `grad` is materialized lazily
    during backward() and has the same shape as `data`: for a parameter
    of a ParamBag with a gradient buffer, as its view of that buffer.
    """

    __slots__ = ("data", "requires_grad", "grad", "_grad_view", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _guard_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._grad_view = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward, op: str,
                 guard: bool = True) -> "Tensor":
        if guard:  # off for ops that only move finite values
            _guard_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._grad_view = None
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

    def __len__(self) -> int:
        """Size of the first axis, as for a numpy array (TypeError when 0-d)."""
        return len(self.data)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def _new_grad(self) -> np.ndarray:
        """Set and return the array that this node's first gradient of a
        backward is written into: its view of the bag's gradient buffer for
        a parameter of a bag that has one, else a fresh array. Its contents
        are stale."""
        self.grad = self._grad_view if self._grad_view is not None else np.empty_like(self.data)
        return self.grad

    def _accumulate(self, g: np.ndarray) -> None:
        """Add `g`, of this node's shape, into grad. The first gradient is
        copied: `g` may be a view of another node's gradient."""
        if self.grad is None:
            np.copyto(self._new_grad(), g)
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


class ParamBag:
    """Ordered registry of the trainable tensors, keyed by unique names.

    Each parameter is declared with its shape and initializer (`add`), then
    the bag is sealed once (`seal`): one float64 buffer `data` is allocated
    for every value, in the order added, each parameter's `data` becomes its
    view of it, and each initializer fills that view, in the same order. No
    initial value is held anywhere else, so a built model holds its
    parameter bytes once.

    A second buffer `grad` of the same layout, allocated by `grad_buffer`
    (an optimizer asks for it), holds the gradients: a parameter's first
    gradient of a backward is then written into its view there
    (`Tensor._new_grad`), so a backward allocates no weight gradient and an
    optimizer updates the whole bag in one pass over the two buffers. A
    model that only predicts has no gradient buffer.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._shapes: dict[str, tuple[int, ...]] = {}
        self._inits: list = []
        self.data: np.ndarray | None = None
        self.grad: np.ndarray | None = None

    def add(self, name: str, shape: tuple[int, ...], init) -> Tensor:
        """Declare the parameter `name` of `shape`, whose `data` exists once
        the bag is sealed. `init` is the value of every entry, or a function
        that fills its argument, the parameter's view, in place."""
        if self.data is not None:
            raise ContractError(f"cannot add {name}: the parameter bag is sealed")
        if name in self._params:
            raise ContractError(f"duplicate parameter name: {name}")
        p = Tensor.__new__(Tensor)  # a leaf whose data `seal` sets
        p.data, p.grad, p._grad_view, p._parents, p._backward = None, None, None, (), None
        p.requires_grad = True
        self._params[name] = p
        self._shapes[name] = tuple(shape)
        self._inits.append(init)
        return p

    def seal(self) -> None:
        """Allocate the value buffer and fill each parameter's view of it by
        its initializer, in the order added; a no-op once sealed."""
        if self.data is not None:
            return
        self.data = np.empty(sum(math.prod(shape) for shape in self._shapes.values()))
        for p, view, init in zip(self._params.values(), self._views(self.data), self._inits):
            p.data = view
            if callable(init):
                init(view)
            else:
                view.fill(init)
        self._inits = []

    def grad_buffer(self) -> np.ndarray:
        """The gradient buffer, allocated (after sealing the bag) by the
        first call, which makes it the target of every later first gradient.
        It is left unwritten, so its pages cost memory only once a backward
        reaches them."""
        self.seal()
        if self.grad is None:
            self.grad = np.empty(self.data.size)
            for p, view in zip(self._params.values(), self._views(self.grad)):
                p._grad_view = view
        return self.grad

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's view, in order, of `flat`, a buffer of the sealed layout."""
        views, lo = [], 0
        for shape in self._shapes.values():
            size = math.prod(shape)
            views.append(flat[lo:lo + size].reshape(shape))
            lo += size
        return views

    def items(self):
        return self._params.items()

    def values(self):
        return self._params.values()

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def flat_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The sealed (values, gradients) buffers, ready for an in-place
        update of every parameter at once.

        Raises ContractError for a parameter without a gradient, or one
        whose `data` or `grad` is not its view of the buffer, which an
        update of the buffers would miss.
        """
        if self.grad is None:
            raise ContractError("flat buffers of a parameter bag without a gradient buffer")
        for name, p in self._params.items():
            if p.grad is None:
                raise ContractError(f"missing gradient for {name}")
            if p.data.base is not self.data:
                raise ContractError(f"{name} no longer views the parameter buffer")
            if p.grad is not p._grad_view:
                raise ContractError(f"the gradient of {name} is not its view of the gradient buffer")
        return self.data, self.grad

    def state_arrays(self) -> dict[str, np.ndarray]:
        """A copy of all parameter arrays, keyed by name: views of one flat
        copy of the buffer (the bag is sealed first if it is not yet)."""
        self.seal()
        return dict(zip(self._params, self._views(self.data.copy())))

    def check_shapes(self, shapes: dict) -> None:
        """Raise ConfigError unless `shapes` gives every parameter, and
        nothing else, by name, with the parameter's shape."""
        missing = set(self._params) - set(shapes)
        extra = set(shapes) - set(self._params)
        if missing or extra:
            raise ConfigError(
                f"parameter set mismatch (missing={sorted(missing)}, unexpected={sorted(extra)})"
            )
        for k, shape in self._shapes.items():
            if tuple(shapes[k]) != shape:
                raise ConfigError(f"shape mismatch for {k}: {tuple(shapes[k])} vs {shape}")

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into the parameters, which keep their arrays (and so
        their views of a sealed bag's buffer). Every array is checked, for
        its name, shape and finite values, before any is copied."""
        self.check_shapes({k: np.shape(v) for k, v in state.items()})
        for k in self._params:
            if not np.isfinite(state[k]).all():
                raise NonFiniteError(f"parameter {k} holds non-finite values")
        for k, p in self._params.items():
            np.copyto(p.data, state[k])


def count_params(bag: ParamBag) -> int:
    """Total number of scalar parameters in the bag."""
    return sum(math.prod(shape) for shape in bag._shapes.values())


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


def _check_dropout(p: float, train: bool, rng) -> bool:
    """Validate dropout arguments; True when masks are to be drawn."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return False
    if rng is None:
        raise ContractError("dropout in train mode requires an explicit rng")
    return True


def _per_sample(arr: np.ndarray, rng):
    """(block, generator) pairs to draw masks into: the whole array for one
    Generator, or one leading-axis slice per generator of a per-sample list."""
    if isinstance(rng, np.random.Generator):
        return [(arr, rng)]
    if len(rng) != arr.shape[0]:
        raise ShapeError(f"{len(rng)} per-sample generators for a leading axis of {arr.shape[0]}")
    return zip(arr, rng)


@contextmanager
def per_sample_streams(rng: np.random.Generator | None, n: int, draws: int):
    """Per-sample generators for a batch of n samples that each draw `draws`
    uniforms: the b-th starts where `rng` stands after b samples, so the
    batch's masks equal those of n single-sample calls in order.

    Yields `rng` itself when n == 1 or nothing is drawn. Otherwise sample 0
    draws from `rng`, the others from copies advanced by b * draws
    (`bit_generator.advance`, so PCG64 only, the bit generator that
    `default_rng` gives); on exit `rng` is left where n single-sample calls
    would leave it. A sample that drew a different count raises
    ContractError.
    """
    if rng is None or n == 1 or draws == 0:
        yield rng
        return
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ContractError(f"batched dropout needs a PCG64 generator to advance, got {type(bits).__name__}")
    start = bits.state
    streams = [rng]
    for b in range(1, n):
        copy = type(bits)(0)
        copy.state = start
        copy.advance(b * draws)
        streams.append(np.random.Generator(copy))
    second = streams[1].bit_generator.state["state"]
    yield streams
    end = bits.state
    if end["state"] != second:
        raise ContractError(f"a sample drew other than the {draws} dropout uniforms its stream holds")
    # advance() clears the buffered 32-bit half that double draws leave
    # alone, so take only the PCG state from the last stream.
    end["state"] = streams[-1].bit_generator.state["state"]
    bits.state = end


def dropout(x: Tensor, p: float, train: bool, rng=None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p).

    Identity in eval mode (train=False) for any p. `rng` is a Generator or
    a list of them, one per index of the leading axis.
    """
    x = _as_tensor(x)
    if not _check_dropout(p, train, rng):
        return x
    factor = np.empty(x.shape)
    for block, g in _per_sample(factor, rng):
        g.random(out=block)
    np.greater_equal(factor, p, out=factor)
    factor *= 1.0 / (1.0 - p)

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g * factor)

    return Tensor._from_op(x.data * factor, (x,), _bw, "dropout")


# -- shape manipulation ---------------------------------------------------------


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes; the default swaps the last two (a batch of transposes)."""
    x = _as_tensor(x)
    order = tuple(range(x.ndim))
    given = axes
    axes = order[:-2] + order[:-3:-1] if axes is None else tuple(a + x.ndim if a < 0 else a for a in axes)
    if sorted(axes) != list(order):
        raise ShapeError(f"transpose: invalid axes {given} for ndim {x.ndim}")
    data = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def _bw(g):
        if x.requires_grad:
            x._accumulate(np.transpose(g, inv))

    return Tensor._from_op(np.ascontiguousarray(data), (x,), _bw, "transpose", guard=False)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc

    def _bw(g):
        if x.requires_grad:
            x._accumulate(g.reshape(x.shape))

    return Tensor._from_op(np.ascontiguousarray(data), (x,), _bw, "reshape", guard=False)


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

    return Tensor._from_op(data, tuple(parts), _bw, "concat", guard=False)


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
                    x._new_grad().fill(0.0)
                x.grad[idx] += g

        out.append(Tensor._from_op(np.ascontiguousarray(x.data[idx]), (x,), _bw, "split", guard=False))
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

    return Tensor._from_op(data, tuple(parts), _bw, "stack", guard=False)


# -- linear algebra ---------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """`a` with its leading axes folded into the rows: (..., n, k) -> (-1, k)."""
    return a.reshape(-1, a.shape[-1])


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., n, k) @ (k, m) as one 2-D product over the folded rows."""
    return (_rows(a) @ b).reshape(a.shape[:-1] + b.shape[1:])


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, relu: bool = False) -> Tensor:
    """x (..., n, k) @ w (k, m), plus b (m,) when given, then max(0, .) when
    `relu`; w's and b's gradients sum over x's leading axes.

    One node for the matmul -> add -> ReLU chain. It makes the chain's numpy
    calls in its order, so every bit is the chain's; the ReLU mask is read
    back from the output.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), None if b is None else _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear requires (..., n, k) x (k, m) operands, got {x.shape} x {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} != ({w.shape[1]},)")
    data = _mm(x.data, w.data)
    if b is not None:
        data += b.data
    if relu:
        data = np.where(data > 0.0, data, 0.0)

    def _bw(g):
        if relu:
            g = g * (data > 0.0)
        gx = _linear_bw(g, x.data, w, b, x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._from_op(data, (x, w) if b is None else (x, w, b), _bw, "linear")


def _linear_bw(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None, x_grad: bool = True):
    """Backward of x @ w.data (+ b.data) for an (..., n, k) array x: adds
    b's and w's gradients (w's first one written in place, no (k, m)
    temporary) and returns x's gradient, or None unless `x_grad`."""
    if b is not None and b.requires_grad:
        b._accumulate(_unbroadcast(g, b.shape))
    if w.requires_grad:
        at, gr = _rows(x).T, _rows(g)
        if w.grad is None:
            np.matmul(at, gr, out=w._new_grad())
        else:
            w.grad += at @ gr
    return _mm(g, w.data.T) if x_grad else None


def affine_norm(x: Tensor, gamma: Tensor, beta: Tensor, over_tokens: bool = False,
                eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance normalization of an (..., M, d) tensor
    (population statistics, eps guarding a constant slice), then y * gamma
    + beta with gamma and beta of shape (d,). Each token is normalized over
    its d features or, with `over_tokens`, each feature column over the M
    tokens, on a contiguous (..., d, M) copy. One node for the chain
    [transpose ->] normalize [-> transpose] -> mul -> add; it makes the
    chain's numpy calls in its order and layouts, so every bit is the chain's.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.ndim < 2 or x.shape[-2 if over_tokens else -1] < 1:
        raise ShapeError(f"affine_norm needs a non-empty (..., M, d) input, got {x.shape}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"affine_norm: affine shapes {gamma.shape}/{beta.shape} do not match last axis {d}")
    xs = np.ascontiguousarray(np.swapaxes(x.data, -1, -2)) if over_tokens else x.data
    mu = xs.mean(axis=-1, keepdims=True)
    var = ((xs - mu) ** 2).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + eps)
    ys = (xs - mu) / sigma
    y = np.ascontiguousarray(np.swapaxes(ys, -1, -2)) if over_tokens else ys
    data = y * gamma.data + beta.data

    def _bw(g):
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * y, gamma.shape))
        if x.requires_grad:
            gy = g * gamma.data
            gs = np.empty_like(ys)
            np.copyto(gs, np.swapaxes(gy, -1, -2) if over_tokens else gy)
            gm = gs.mean(axis=-1, keepdims=True)
            gym = (gs * ys).mean(axis=-1, keepdims=True)
            dx = (gs - gm - ys * gym) / sigma
            x._accumulate(np.swapaxes(dx, -1, -2) if over_tokens else dx)

    return Tensor._from_op(data, (x, gamma, beta), _bw, "affine_norm")


# -- fused encoder ops --------------------------------------------------------


def _tiles(units: int, rows: int, row_bytes: int):
    """Tiles of `units` stacked slabs of `rows` rows, row_bytes each, within
    TILE_BYTES where a row allows: as many whole slabs as fit, else blocks
    of rows of one slab. Returns the largest tile's (slabs, rows) and the
    (u0, u1, r0, r1) tiles in the slabs' memory order."""
    per = TILE_BYTES // row_bytes
    if per >= rows:
        k = max(1, per // max(rows, 1))
        return (min(k, units), rows), [(u, min(u + k, units), 0, rows) for u in range(0, units, k)]
    per = max(1, per)
    return (min(1, units), per), [(u, u + 1, r, min(r + per, rows)) for u in range(units) for r in range(0, rows, per)]


def sca_attention(tokens: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor) -> Tensor:
    """Four single-feature attention heads plus the head-mixing projection.

    tokens is (..., M, 4); leading axes are a batch. Head i of a sample
    reads column i only: q = tokens[:, i] * wq[i] (likewise k and v), scores
    S = q k^T (d_k = 1, so the 1/sqrt(d_k) scale is 1), and the head output
    is the row-wise softmax of S times v. The (M, 4) head outputs H are
    mixed by wo: H @ wo for a dense (4, 4) wo, H * wo for a diagonal (4,) wo.

    S is a rank-one outer product, so its row max is q_t * max(k) when
    q_t >= 0 and q_t * min(k) otherwise, exactly and in O(M). Forward takes
    the batch's (sample, head) probabilities in tiles of TILE_BYTES (see
    `_tiles`): whole heads where they fit, else blocks of rows of one head.
    Each row's normaliser and output are sums along that row alone, so the
    tile size changes no bit. Backward keeps only q, k, v, H and the per-row
    max and normaliser, and recomputes the probabilities in blocks of whole
    heads (one head when a head exceeds TILE_BYTES), since its key and value
    gradients sum over a head's rows. Each buffer is allocated once per
    call. Overflow is checked once, on the largest score magnitude
    max|q| * max|k|, and on the output.
    """
    tokens, wq, wk, wv, wo = (_as_tensor(t) for t in (tokens, wq, wk, wv, wo))
    if tokens.ndim < 2 or tokens.shape[-1] != 4:
        raise ShapeError(f"sca_attention tokens must be (..., M, 4), got {tokens.shape}")
    if any(w.shape != (4,) for w in (wq, wk, wv)):
        raise ShapeError(f"sca_attention wq/wk/wv must be (4,), got {wq.shape}/{wk.shape}/{wv.shape}")
    dense = wo.shape == (4, 4)
    if not dense and wo.shape != (4,):
        raise ShapeError(f"sca_attention wo must be (4, 4) or (4,), got {wo.shape}")
    m = tokens.shape[-2]
    x = np.ascontiguousarray(np.swapaxes(tokens.data, -1, -2))  # (..., 4, M): row i is head i
    q = x * wq.data[:, None]
    k = x * wk.data[:, None]
    v = x * wv.data[:, None]
    with np.errstate(over="ignore"):
        peak = np.abs(q).max(axis=-1) * np.abs(k).max(axis=-1)
    if not np.all(np.isfinite(peak)):
        raise NonFiniteError("sca_attention produced non-finite values (attention scores overflow)")
    row_max = np.where(q >= 0, q * k.max(axis=-1, keepdims=True), q * k.min(axis=-1, keepdims=True))
    # One row per (sample, head).
    qf, kf, vf, rf = (a.reshape(-1, m) for a in (q, k, v, row_max))
    n_rows = len(qf)

    def probs_unnormalised(u0: int, u1: int, r0: int, r1: int, buf: np.ndarray) -> np.ndarray:
        """exp(S - row max) of rows r0:r1 of heads u0:u1, written into `buf`."""
        out = buf[:u1 - u0, :r1 - r0]
        # einsum's outer product, the same single rounded products as
        # np.multiply's broadcast, takes half its time.
        np.einsum("hi,hj->hij", qf[u0:u1, r0:r1], kf[u0:u1], out=out)
        np.subtract(out, rf[u0:u1, r0:r1, None], out=out)
        return np.exp(out, out=out)

    h = np.empty(qf.shape)
    den = np.empty(qf.shape)
    shape, tiles = _tiles(n_rows, m, 8 * m)
    buf = np.empty(shape + (m,))
    for u0, u1, r0, r1 in tiles:
        p = probs_unnormalised(u0, u1, r0, r1, buf)
        np.einsum("hij->hi", p, out=den[u0:u1, r0:r1])
        np.einsum("hij,hj->hi", p, vf[u0:u1], out=h[u0:u1, r0:r1])
    h /= den
    heads = np.swapaxes(h.reshape(x.shape), -1, -2)  # (..., M, 4)
    data = _mm(heads, wo.data) if dense else heads * wo.data

    def _bw(g):
        if wo.requires_grad:
            wo._accumulate(_rows(heads).T @ _rows(g) if dense else _rows(heads * g).sum(axis=0))
        if not (tokens.requires_grad or wq.requires_grad or wk.requires_grad or wv.requires_grad):
            return
        gh = _mm(g, wo.data.T) if dense else g * wo.data
        gh = np.ascontiguousarray(np.swapaxes(gh, -1, -2)).reshape(-1, m)
        dq, dk, dv = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
        dqf, dkf, dvf = (a.reshape(-1, m) for a in (dq, dk, dv))
        block = max(1, min(n_rows, TILE_BYTES // (8 * m * m)))
        buf = np.empty((block, m, m))
        for lo in range(0, n_rows, block):
            hi = min(lo + block, n_rows)
            # With P the row-normalised probabilities and dS = P * g (v - h):
            # dq = g (P(v k) - h P k), dk = v P^T(g q) - P^T(g q h), dv = P^T g.
            p = probs_unnormalised(lo, hi, 0, m, buf)
            dn = den[lo:hi, :, None]
            rows = p @ np.stack([vf[lo:hi] * kf[lo:hi], kf[lo:hi]], axis=-1) / dn
            dqf[lo:hi] = gh[lo:hi] * (rows[..., 0] - h[lo:hi] * rows[..., 1])
            gq = gh[lo:hi] * qf[lo:hi]
            cols = (np.stack([gq, gq * h[lo:hi], gh[lo:hi]], axis=-2) / den[lo:hi, None, :]) @ p
            dkf[lo:hi] = vf[lo:hi] * cols[:, 0] - cols[:, 1]
            dvf[lo:hi] = cols[:, 2]
        if tokens.requires_grad:
            dx = dq * wq.data[:, None] + dk * wk.data[:, None] + dv * wv.data[:, None]
            tokens._accumulate(np.swapaxes(dx, -1, -2))
        for w, d in ((wq, dq), (wk, dk), (wv, dv)):
            if w.requires_grad:
                w._accumulate(_rows((d * x).sum(axis=-1)).sum(axis=0))

    return Tensor._from_op(data, (tokens, wq, wk, wv, wo), _bw, "sca_attention")


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
        p: float, train: bool, rng=None) -> Tensor:
    """Token-wise feedforward linear -> ReLU -> inverted dropout -> linear.

    Dense when b1 is 1-D: x (..., M, d), w1 (d, F), b1 (F,), w2 (F, d),
    b2 (d,). Per-channel blocks when b1 is 2-D: x (..., M, C), w1, b1 and
    w2 (C, F/C), b2 (C,); column c passes through its own 1 -> F/C -> 1 map
    and no other, so channels stay isolated exactly. Leading axes of x are
    a batch, folded into rows; a sample is one index of the first axis.

    One loop serves both layouts: group by group (the one dense map, or
    channel by channel), then tile by tile of TILE_BYTES of hidden rows
    (see `_tiles`: whole samples where they fit, else blocks of rows of one
    sample), each tile running the first product with its bias, ReLU,
    dropout and the second product while it is in cache. In train mode
    with p > 0 the keep masks are drawn in that order, group by group over
    the rows. `rng` is a Generator, drawing all of them from one stream
    (for one sample, the stream of C per-channel (M, F/C) draws in channel
    order), or a list of one per sample, from which each sample draws its
    own masks as if it ran alone. The tile size never changes a mask. The
    1/(1-p) scale is applied to the (rows, d) output and w2's gradient, not
    to the wider hidden array. Backward keeps no hidden array, only the
    keep masks as one byte a unit (nothing without dropout or under
    no_grad), and rebuilds each tile of the unscaled post-dropout hidden
    array with the forward's own calls, so bit for bit: d(pre) = d(hidden) *
    scale where hidden > 0, tile by tile, with weight and bias gradients
    summed over the tiles.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    drop = _check_dropout(p, train, rng)
    scale = 1.0 / (1.0 - p) if drop else 1.0
    if x.ndim < 2:
        raise ShapeError(f"ffn input must be (..., M, d), got {x.shape}")
    m, d = x.shape[-2:]
    blocks = b1.ndim == 2
    if blocks:
        ok = w1.shape == b1.shape == w2.shape and w1.shape[0] == d and b2.shape == (d,)
    else:
        ok = w1.ndim == 2 and w1.shape[0] == d and b1.shape == (w1.shape[1],) \
            and w2.shape == w1.shape[::-1] and b2.shape == (d,)
    if not ok:
        raise ShapeError(f"ffn: weights {w1.shape}/{b1.shape}/{w2.shape}/{b2.shape} do not fit input {x.shape}")
    n, m = (x.shape[0], math.prod(x.shape[1:-1])) if x.ndim > 2 else (1, m)  # samples, rows of each
    if drop and not isinstance(rng, np.random.Generator) and len(rng) != n:
        raise ShapeError(f"{len(rng)} per-sample generators for {n} samples")

    # Each group's inputs with a ones column, and its w1 with b1 as the last
    # row: one product gives x w1 + b1, and the transposed product gives
    # w1's and b1's gradients together. Groups are the dense map, or
    # channel c's block with its own column.
    xr = _rows(x.data)
    if blocks:
        xa = np.ones((d, n * m, 2))
        xa[:, :, 0] = xr.T
        groups = [(slice(c, c + 1), np.stack([w1.data[c], b1.data[c]]), w2.data[c][:, None]) for c in range(d)]
    else:
        xa = np.ones((1, n * m, d + 1))
        xa[0, :, :d] = xr
        groups = [(slice(None), np.vstack([w1.data, b1.data]), w2.data)]
    width = b1.shape[-1]
    shape, tiles = _tiles(n, m, 8 * width)
    spans = [(u0 * m + r0, (u1 - 1) * m + r1) for u0, u1, r0, r1 in tiles]  # in folded rows
    tile_rows = shape[0] * shape[1]
    keep = _grad_enabled and any(t.requires_grad for t in (x, w1, b1, w2, b2))
    draw = mask = None
    if drop:  # keep masks, one byte a unit: all of them when a backward follows, else one tile's
        draw = np.empty((tile_rows, width))
        mask = np.empty((len(groups), n * m, width) if keep else (1, tile_rows, width), dtype=bool)

    def hidden(gi: int, lo: int, hi: int, kept: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """Rows lo:hi of group gi's hidden array, ReLU'd and, with a keep
        mask, dropped but unscaled, written into `out`."""
        h = np.matmul(xa[gi, lo:hi], groups[gi][1], out=out[:hi - lo])
        np.maximum(h, 0.0, out=h)
        if kept is not None:
            h *= kept
        return h

    buf = np.empty((tile_rows, width))
    out = np.empty((n * m, d))
    for gi, (cols, w1b, w2g) in enumerate(groups):
        for lo, hi in spans:
            kept = None
            if drop:
                u = draw[:hi - lo]
                if isinstance(rng, np.random.Generator):
                    rng.random(out=u)
                else:
                    for s in range(lo // m, (hi - 1) // m + 1):
                        a, b = max(lo, s * m), min(hi, (s + 1) * m)
                        rng[s].random(out=u[a - lo:b - lo])
                kept = np.greater_equal(u, p, out=mask[gi, lo:hi] if keep else mask[0, :hi - lo])
            np.matmul(hidden(gi, lo, hi, kept, buf), w2g, out=out[lo:hi, cols])
    if drop:
        out *= scale
    out += b2.data

    def _bw(g):
        gr = _rows(g)
        if b2.requires_grad:
            b2._accumulate(gr.sum(axis=0))
        inner = x.requires_grad or w1.requires_grad or b1.requires_grad
        if not (inner or w2.requires_grad):
            return
        gx = np.empty((n * m, d))
        gw1b = np.zeros((len(groups),) + groups[0][1].shape)
        gw2 = np.zeros((len(groups),) + groups[0][2].shape)
        buf, pre = np.empty((tile_rows, width)), np.empty((tile_rows, width))
        for gi, (cols, w1b, w2g) in enumerate(groups):
            w2t = w2g.T * scale
            for lo, hi in spans:
                h = hidden(gi, lo, hi, mask[gi, lo:hi] if drop else None, buf)
                gt = gr[lo:hi, cols]
                if w2.requires_grad:
                    gw2[gi] += h.T @ gt
                if not inner:
                    continue
                pt = np.matmul(gt, w2t, out=pre[:hi - lo])
                pt *= h > 0.0
                gw1b[gi] += xa[gi, lo:hi].T @ pt
                if x.requires_grad:
                    np.matmul(pt, w1b[:-1].T, out=gx[lo:hi, cols])
        gw2 *= scale
        for t, grad in ((x, gx), (w1, gw1b[:, :-1]), (b1, gw1b[:, -1]), (w2, gw2)):
            if t.requires_grad:
                t._accumulate(grad.reshape(t.shape))

    return Tensor._from_op(out.reshape(x.shape), (x, w1, b1, w2, b2), _bw, "ffn")


def huber(residual: Tensor, delta: float) -> Tensor:
    """Mean Huber penalty of a residual tensor's n entries, a 0-d node: 0.5
    e^2 inside |e| <= delta, delta*|e| - 0.5 delta^2 outside, summed, then
    scaled by 1/n."""
    if delta <= 0:
        raise ConfigError(f"huber delta must be positive, got {delta}")
    residual = _as_tensor(residual)
    e = residual.data
    inv_n = 1.0 / e.size
    inside = np.abs(e) <= delta
    penalty = np.where(inside, 0.5 * e * e, delta * np.abs(e) - 0.5 * delta * delta)
    deriv = np.where(inside, e, delta * np.sign(e))

    def _bw(g):
        if residual.requires_grad:
            residual._accumulate(g * inv_n * deriv)

    return Tensor._from_op(np.asarray(penalty.sum() * inv_n), (residual,), _bw, "huber")


# -- convolution-style embeddings ----------------------------------------------


def patch_embed(x, kernels, biases, global_token: Tensor, pe: np.ndarray, patch: int) -> Tensor:
    """Patch embedding of a constant (..., T, W, H) stack of T maps into
    (..., T*N+1, d) tokens; leading axes are a batch.

    Map t is zero-padded at the end of W and H to multiples of `patch` and
    cut into N patch x patch blocks, row-major over the grid, each projected
    by kernels[t] (d, 1, patch, patch) plus biases[t] (d,). The global token
    (d,) comes first, then each map's N tokens; the (T*N+1, d) codes `pe`
    are added. One node, with one product per map over every sample's rows.
    It makes the numpy calls of the chain it replaces (split, then per map
    pad, unfold, matmul, add and transposes, then concat and add), so every
    bit is the chain's.
    """
    x, global_token = _as_tensor(x), _as_tensor(global_token)
    kernels, biases = [_as_tensor(k) for k in kernels], [_as_tensor(b) for b in biases]
    if x.requires_grad:
        raise ContractError("patch_embed takes a constant input")
    if patch < 1:
        raise ShapeError(f"patch size must be >= 1, got {patch}")
    if x.ndim < 3 or x.shape[-3] != len(kernels) or len(biases) != len(kernels):
        raise ShapeError(f"patch_embed input must be (..., {len(kernels)}, W, H), got {x.shape}")
    d = global_token.shape[-1]
    if any(k.shape != (d, 1, patch, patch) for k in kernels) or any(b.shape != (d,) for b in biases + [global_token]):
        raise ShapeError(f"patch_embed weights do not fit patch {patch} and width {d}")
    lead, types, (w, h) = x.shape[:-3], x.shape[-3], x.shape[-2:]
    nw, nh = -(-w // patch), -(-h // patch)
    n, nl = nw * nh, len(lead)
    if pe.shape != (types * n + 1, d):
        raise ShapeError(f"patch_embed position codes {pe.shape} != {(types * n + 1, d)}")
    padded = np.pad(x.data, [(0, 0)] * (nl + 1) + [(0, nw * patch - w), (0, nh * patch - h)])
    # (types, ..., nw, nh, P, P): each map's patches as rows, sample by sample.
    blocks = padded.reshape(lead + (types, nw, patch, nh, patch))
    order = (nl,) + tuple(range(nl)) + tuple(nl + a for a in (1, 3, 2, 4))
    patches = np.ascontiguousarray(blocks.transpose(order)).reshape(types, -1, patch * patch)
    segs = [(..., slice(1 + t * n, 1 + (t + 1) * n), slice(None)) for t in range(types)]
    data = np.empty(lead + (types * n + 1, d))
    data[..., 0, :] = global_token.data
    for t, (kernel, bias) in enumerate(zip(kernels, biases)):
        wt = np.ascontiguousarray(kernel.data.reshape(d, -1).T)
        np.add((patches[t] @ wt).reshape(lead + (n, d)), bias.data, out=data[segs[t]])
    data += pe

    def _bw(g):
        if global_token.requires_grad:
            global_token._accumulate(_unbroadcast(np.ascontiguousarray(g[..., :1, :]), global_token.shape))
        for t, (kernel, bias) in enumerate(zip(kernels, biases)):
            gt = np.ascontiguousarray(g[segs[t]])
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(gt, bias.shape))
            if kernel.requires_grad:
                gw = np.matmul(patches[t].T, _rows(gt), out=np.empty((patch * patch, d)))
                kernel._accumulate(gw.T.reshape(kernel.shape))

    return Tensor._from_op(data, tuple(kernels) + tuple(biases) + (global_token,), _bw, "patch_embed")


# -- auxiliary-parameter branch -------------------------------------------------


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; the two-branch form cannot overflow."""
    return np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (..., n, k) @ w (k, m) + b (m,), checked for overflow as `ap_gate`."""
    out = _mm(x, w)
    out += b
    return _guard_finite(out, "ap_gate")


def ap_gate(a: Tensor, kernel: Tensor, bias: Tensor, p1: Tensor, b1: Tensor, p2: Tensor, b2: Tensor,
            p3: Tensor, b3: Tensor, p4: Tensor, b4: Tensor) -> Tensor:
    """The auxiliary-parameter branch A * W_s * W_c of an (..., 4, K) input
    A as one node; leading axes are a batch.

    Each position's channel vector is embedded to eight values, split into
    maps A1 and A2. W_s = sigmoid((A1 p1 + b1) p2 + b2) row by row; W_c is
    the sigmoid of A2's columns projected by p3, b3, p4, b4. An (8, 4)
    kernel means CD: a dense embedding and (4, H), (H, 4) projections. An
    (8,) kernel means CI: channel c is embedded by kernel[c], kernel[4 + c]
    and their biases, and its values pass through their own 1 -> H -> 1 map,
    rows c of p3, b3, p4 (4, H) and b4[c]: channels stay isolated exactly.
    It makes the numpy calls of the node chain it replaced in their order
    and layouts, so every bit is the chain's, with `linear`'s backward for
    the products. The embedding and each pre-sigmoid product are checked.
    """
    ts = tuple(_as_tensor(t) for t in (a, kernel, bias, p1, b1, p2, b2, p3, b3, p4, b4))
    a, kernel, bias, p1, b1, p2, b2, p3, b3, p4, b4 = ts
    dense, k, up, hid = kernel.shape == (8, 4), a.shape[-1], p1.shape[-1], p3.shape[-1]
    want = [(8, 4) if dense else (8,), (8,), (k, up), (up,), (up, k), (k,),
            (4, hid), (hid,) if dense else (4, hid), (hid, 4) if dense else (4, hid), (4,)]
    if a.ndim < 2 or a.shape[-2] != 4 or [t.shape for t in ts[1:]] != want:
        raise ShapeError(f"ap_gate: weights {[t.shape for t in ts[1:]]} do not fit input {a.shape}")
    x = a.data
    if dense:
        # The chain's transposed kernel (4, 8), a leaf so `_linear_bw` can take it.
        kt = Tensor(np.ascontiguousarray(kernel.data.T), kernel.requires_grad)
        xt = np.ascontiguousarray(np.swapaxes(x, -1, -2))  # (..., K, 4)
        emb = _affine(xt, kt.data, bias.data)  # (..., K, 8)
        a1 = np.ascontiguousarray(np.swapaxes(emb[..., :4], -1, -2))
        t = np.ascontiguousarray(emb[..., 4:])  # A2 transposed: (..., K, 4)
    else:
        a1 = _guard_finite(x * kernel.data[:4, None] + bias.data[:4, None], "ap_gate")
        a2 = _guard_finite(x * kernel.data[4:, None] + bias.data[4:, None], "ap_gate")
        t = np.ascontiguousarray(np.swapaxes(a2, -1, -2))
    h1 = _affine(a1, p1.data, b1.data)
    s1 = _sigmoid(_affine(h1, p2.data, b2.data))
    if dense:
        hc = _affine(t, p3.data, b3.data)
        s2 = _sigmoid(_affine(hc, p4.data, b4.data))
    else:
        hc = _guard_finite(t[..., None] * p3.data + b3.data, "ap_gate")  # (..., K, 4, H)
        s2 = _sigmoid(_guard_finite((hc * p4.data).sum(axis=-1) + b4.data, "ap_gate"))
    wc = np.ascontiguousarray(np.swapaxes(s2, -1, -2))
    m1 = x * s1

    def _bw(g):
        gm1 = g * wc
        ga1 = _linear_bw(_linear_bw(gm1 * x * s1 * (1.0 - s1), h1, p2, b2), a1, p1, b1)
        gz2 = np.ascontiguousarray(np.swapaxes(g * m1, -1, -2)) * s2 * (1.0 - s2)
        if dense:
            gt = _linear_bw(_linear_bw(gz2, hc, p4, b4), t, p3, b3)
        else:
            gsum = np.broadcast_to(gz2[..., None], hc.shape).copy()
            ghc = gsum * p4.data
            for w, gw in ((b4, gz2), (p4, gsum * hc), (b3, ghc), (p3, ghc * t[..., None])):
                if w.requires_grad:
                    w._accumulate(_unbroadcast(gw, w.shape))
            gt = _unbroadcast(ghc * p3.data, hc.shape[:-1] + (1,)).reshape(t.shape)
        gx = gm1 * s1
        if dense:
            gl = np.zeros(t.shape[:-1] + (8,))  # zeros, then add: keeps the split's signs of zero
            gl[..., :4] += np.swapaxes(ga1, -1, -2)
            gl[..., 4:] += gt
            gxt = _linear_bw(gl, xt, kt, bias, a.requires_grad)
            if kt.grad is not None:
                kernel._accumulate(kt.grad.T)
                kt.grad = None
            if gxt is not None:
                gx += np.swapaxes(gxt, -1, -2)
        else:
            ga2 = np.ascontiguousarray(np.swapaxes(gt, -1, -2))
            for w, g1, g2 in ((kernel, ga1 * x, ga2 * x), (bias, ga1, ga2)):
                if w.requires_grad:
                    if w.grad is None:  # zeros, then add: keeps the split's signs of zero
                        w._new_grad().fill(0.0)
                    w.grad[:4] += _unbroadcast(g1, (4, 1)).reshape(4)
                    w.grad[4:] += _unbroadcast(g2, (4, 1)).reshape(4)
            gx += ga1 * kernel.data[:4, None]
            gx += ga2 * kernel.data[4:, None]
        if a.requires_grad:
            a._accumulate(gx)

    return Tensor._from_op(m1 * wc, ts, _bw, "ap_gate")
