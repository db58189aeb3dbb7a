"""Span wrappers around the program's layer calls, installed from outside.

A traced pass calls `training.train` and `training.predict` as an
untraced pass does. `Tracer` swaps in, for the length of the pass,
wrappers that open a span and call the original: on each watched model
`forward` (composed from the encoder's public pieces, one span per layer
call) and `predict_sample`, and in the library `training.batch_loss`,
`training.validation_rmse`, `AdamW.step` and `Tensor.backward`. The
arithmetic, including the order dropout draws from the generator, is
unchanged: `forward_matches` checks the composed forward bit for bit, and
the benchmark compares every traced pass with the untraced pass before it.
"""

from __future__ import annotations

import numpy as np

from swhnet import autodiff as ad
from swhnet import training
from swhnet.autodiff import Tensor
from swhnet.encoder import add_norm
from swhnet.model import fuse

from spans import SpanRecorder


def forward(model, ddm_stack, ap, train: bool, rng, rec) -> Tensor:
    """WaveHeightModel.forward, one span per layer call.

    The root span is `model.forward` in training mode and
    `model.forward_eval` in evaluation mode, so per-sample layer figures
    come from training forwards only.
    """
    cfg, enc = model.cfg, model.encoder
    if cfg.standard_residual or cfg.head_input != "full":
        raise ValueError("the composed forward covers the default wiring "
                         "(standard_residual false, head_input full) only")
    p = cfg.dropout_p
    with rec.span("model.forward" if train else "model.forward_eval"):
        with rec.span("encoder.embed"):
            stack = Tensor(np.asarray(ddm_stack, dtype=np.float64))
            per_channel = [enc.embed_channel(ad.reshape(ch, stack.shape[1:]))
                           for ch in ad.split(stack, 4, axis=0)]
            tokens = enc.aggregate_channels(per_channel)
        for layer in enc.layers:
            with rec.span("encoder.attention"):
                o = enc.sca_attention(tokens, layer)
            with rec.span("encoder.norm"):
                d = add_norm(o, o, layer["norm1_gamma"], layer["norm1_beta"], cfg.strategy, p, train, rng)
            with rec.span("encoder.ffn"):
                f = enc.ffn(d, layer, train, rng)
            with rec.span("encoder.norm"):
                tokens = add_norm(d, f, layer["norm2_gamma"], layer["norm2_beta"], cfg.strategy, p, train, rng)
        with rec.span("apbranch.forward"):
            a_prime = model.ap_branch.forward(Tensor(np.asarray(ap, dtype=np.float64)))
        with rec.span("model.head"):
            return model.head.forward(fuse(tokens, a_prime, cfg.strategy))


def _clone(rng: np.random.Generator) -> np.random.Generator:
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def forward_matches(model, ddm_stack, ap, rng) -> bool:
    """Composed and library forward agree bit for bit, in train and eval mode."""
    rec = SpanRecorder("forward-check")
    train_a = forward(model, ddm_stack, ap, True, _clone(rng), rec).data
    train_b = model.forward(ddm_stack, ap, train=True, rng=_clone(rng)).data
    with ad.no_grad():
        eval_a = forward(model, ddm_stack, ap, False, None, rec).data
    eval_b = model.predict_sample(ddm_stack, ap)
    return train_a.tobytes() == train_b.tobytes() and eval_a.tobytes() == eval_b.tobytes()


def graph_size(loss: Tensor) -> tuple[int, int]:
    """(op nodes, bytes of their output arrays) reachable from `loss`.

    Reads the tape's parent links without changing them. Parameters and
    constant inputs are leaves, not op nodes, and are not counted.
    """
    seen: set[int] = set()
    todo = [loss]
    nodes = nbytes = 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes += 1
            nbytes += node.data.nbytes
        todo.extend(node._parents)
    return nodes, nbytes


def _spanned(rec: SpanRecorder, name: str, fn, items=None):
    """`fn` wrapped in a span; `items(args)` gives the span's item count."""
    def wrapper(*args, **kwargs):
        with rec.span(name, items(args) if items else 1):
            return fn(*args, **kwargs)
    return wrapper


class Tracer:
    """Installs the span wrappers on entry and removes them on exit.

    `graphs`, when given, receives (batch size, op nodes, bytes) for the
    first loss whose backward runs under the tracer; walking the graph is
    spanned separately so it does not count against any layer.
    """

    def __init__(self, rec: SpanRecorder, graphs: list | None = None):
        self.rec = rec
        self.graphs = graphs
        self.models: list = []
        self.saved: list[tuple[object, str, object]] = []
        self.batch = 1
        self.graphs_taken = False

    def watch(self, model) -> None:
        """Route `model`'s forward and predict_sample through spans."""
        rec = self.rec

        def traced_forward(ddm_stack, ap, train=False, rng=None):
            return forward(model, ddm_stack, ap, train, rng, rec)

        predict_sample = model.predict_sample
        model.forward = traced_forward
        model.predict_sample = _spanned(rec, "model.predict", predict_sample)
        self.models.append(model)

    def _patch(self, owner, name: str, replacement) -> None:
        self.saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Tracer":
        rec, orig_backward = self.rec, Tensor.backward
        loss_fn = _spanned(rec, "model.loss", training.batch_loss)

        def batch_loss(preds, refs, delta):
            self.batch = len(preds)
            return loss_fn(preds, refs, delta)

        def backward(loss):
            if self.graphs is not None and not self.graphs_taken:
                self.graphs_taken = True
                with rec.span("trace.graph_walk"):
                    self.graphs.append((self.batch,) + graph_size(loss))
            with rec.span("autodiff.backward", self.batch):
                orig_backward(loss)

        self._patch(training, "batch_loss", batch_loss)
        self._patch(training, "validation_rmse", _spanned(
            rec, "training.validate", training.validation_rmse, lambda a: len(a[1])))
        self._patch(training.AdamW, "step", _spanned(rec, "training.adamw_step", training.AdamW.step))
        self._patch(Tensor, "backward", backward)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self.saved):
            setattr(owner, name, original)
        self.saved.clear()
        for model in self.models:
            del model.forward, model.predict_sample
        self.models.clear()
        return False
