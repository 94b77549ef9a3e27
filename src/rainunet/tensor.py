"""Dense tensors with reverse-mode automatic differentiation.

The process's tape (:class:`Graph`) records every operation whose inputs
require gradients; :func:`backward` replays the tape in reverse. The tape is
consumed by a single backward call, so "backward twice without a new forward"
is an error instead of silent gradient accumulation. What an op records is
set out at :func:`_op`, what the tape holds at :class:`GraphNode`, and how
gradients are stored and handed on at :func:`backward`.

The tape holds what the backward reads and no more: each op's ``grad_fn``
keeps the arrays its gradient reads, never a tensor, and a map that can be
rebuilt from what the tape holds anyway is not held a second time (see
:func:`_op`). A recompute is a function of no argument that returns a new
array on every call and holds no array it built, so a rebuilt map lives
only as long as the backward that asked for it. Group norm's output is
rebuilt from its kept input; a relu of it keeps no output, and its mask and
each reader that would keep it (:func:`_saved`) read it rebuilt. A mean's
gradient is one frame repeated over the mean's axis, a read-only view: no
op writes into a gradient.

No broadcasting: ``mul`` takes two tensors of one shape. A 5-d value's
memory may be in the layout of rainunet.layers; the elementwise ops keep
its memory order.

The ops here are the generic ones the model is built from. An op with a
closed-form gradient of its own records itself through :func:`_op` where it
is defined: the conv, max pool and group norm in rainunet.layers, and the
dice loss, one op per batch, in rainunet.training.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import precision


class TensorError(ValueError):
    """Shape/value misuse of a tensor operation."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared in a published tensor value."""


class AutodiffError(RuntimeError):
    """Misuse of the gradient tape (non-scalar loss, detached loss, reuse)."""


# the tape ops record on: None until an op records, and again after its backward
_graph: Optional[Graph] = None
_grad_enabled = True


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording (pure inference forwards)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class GraphNode:
    """One recorded op: its inputs, a weak reference to its output tensor,
    that output's shape and dtype, the gradient gathered for it during
    :func:`backward` and, in ``apply`` and ``recompute``, the op's
    ``grad_fn`` and recompute (see :func:`_op`).

    An input is held as its producer's node when an op on the same graph
    made it, and as the tensor otherwise (a leaf, or the output of an op on
    a tape already consumed). The output is held only weakly: its gradient
    is gathered here and handed to it if the caller still holds it."""

    __slots__ = ("inputs", "out", "apply", "recompute", "graph", "shape", "dtype", "grad")
    requires_grad = True  # a recorded op's output always takes part

    def __init__(self, inputs, out, apply, recompute, graph):
        self.inputs = inputs
        self.out = weakref.ref(out)
        self.apply = apply
        self.recompute = recompute
        self.graph = graph
        self.shape, self.dtype = out.shape, out.dtype
        self.grad = None

    def release(self) -> None:
        """Drop what the node holds for a backward."""
        self.inputs = self.out = self.apply = self.recompute = self.grad = None


class Graph:
    """Recorded operations in creation order, which is topological by
    construction: an op can only consume tensors that already exist."""

    def __init__(self):
        self.nodes: list[GraphNode] = []
        self.consumed = False

    def record(self, inputs, out, apply, recompute) -> GraphNode:
        """Record ``out``'s op, its inputs made on this graph held as their nodes."""
        held = tuple(t if t.node is None or t.node.graph is not self else t.node for t in inputs)
        node = GraphNode(held, out, apply, recompute, self)
        self.nodes.append(node)
        return node


def active_graph() -> Optional[Graph]:
    return _graph


def discard_tape() -> None:
    """Drop the recording tape without a backward, as after a forward that
    failed part-way: its nodes release what they hold, the next op starts a
    new tape, and a backward from an output recorded on the old one is an
    AutodiffError."""
    global _graph
    graph, _graph = _graph, None
    if graph is not None:
        graph.consumed = True
        for node in graph.nodes:
            node.release()


def _recording_graph() -> Graph:
    global _graph
    if _graph is None or _graph.consumed:
        _graph = Graph()
    return _graph


class Tensor:
    """N-dimensional float array that can participate in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=precision.dtype())
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor holds NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[GraphNode] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None


def _op(data: np.ndarray, inputs: tuple[Tensor, ...], grad_fn, layer: str | None = None,
        recompute: Optional[Callable[[], np.ndarray]] = None) -> Tensor:
    """Create the output tensor of an op, recording it on the tape when any
    input takes part in differentiation.

    ``grad_fn(gy)`` maps the output's gradient to one gradient per input, in
    the order of ``inputs``, each with its input's shape and dtype, or
    ``None`` for an input that needs none. It may return a gradient for an
    input whose ``requires_grad`` is false, or one past the last input:
    :func:`backward` drops both. It stores nothing itself; :func:`backward`
    does. It should capture the arrays and flags it reads, not the tensors
    of ``inputs``, which the tape holds only as nodes (see
    :class:`GraphNode`). A non-finite output's NonFiniteError names the op
    (grad_fn's enclosing function), its shape and the ``layer`` the op ran,
    when the op names one.

    ``recompute()``, when given, is a recompute as the module docstring
    defines it, giving the values of ``data`` bit for bit, in its shape and
    memory order, by the forward's own operations on arrays that hold less
    than ``data``: those ``grad_fn`` keeps, rows no larger than a
    parameter's per-sample terms, or its inputs as :func:`_saved` gives
    them. A reader of the output keeps it instead of the output
    (:func:`_saved`). Like ``grad_fn`` it keeps its arrays in closure cells,
    not default arguments or containers.
    """
    track = is_grad_enabled() and any(t.requires_grad for t in inputs)
    try:
        out = Tensor(data, requires_grad=track)
    except NonFiniteError:
        op = grad_fn.__qualname__.split(".<locals>")[0]
        where = "" if layer is None else f" (layer {layer})"
        raise NonFiniteError(f"op {op}: output of shape {data.shape} holds NaN or Inf{where}") from None
    if track:
        out.node = _recording_graph().record(inputs, out, grad_fn, recompute)
    return out


def _saved(t: Tensor, data: np.ndarray) -> Callable[[], np.ndarray]:
    """What an op keeps of its input ``t`` to read in its backward: a
    function returning ``t``'s values, the recompute of ``t``'s op when its
    node has one, else ``data`` (``t.data``, or the op's copy of it in
    another memory order) as it is."""
    recompute = None if t.node is None else t.node.recompute
    return (lambda: data) if recompute is None else recompute


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(b, Tensor):
        raise TensorError(f"mul: expected a Tensor, got {type(b).__name__}")
    if a.shape != b.shape:
        raise TensorError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    x, y = a.data, b.data
    return _op(x * y, (a, b), lambda gy: (gy * y, gy * x))


def relu(a: Tensor) -> Tensor:
    """max(a, 0). The gradient masks with y > 0, which holds exactly where
    a > 0. The tape keeps y, unless ``a``'s op has a recompute: then the
    mask is ``rebuild() > 0`` and y is ``max(rebuild(), 0)``, each from a
    fresh rebuild of a."""
    y = np.maximum(a.data, 0)
    rebuild = None if a.node is None else a.node.recompute
    if rebuild is None:
        return _op(y, (a,), lambda gy: (gy * (y > 0),))

    def recompute():
        y = rebuild()
        return np.maximum(y, 0, out=y)
    return _op(y, (a,), lambda gy: (gy * (rebuild() > 0),), None, recompute)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, both from e^-|x|, which
    # cannot overflow
    ex = np.exp(-np.abs(x))
    d = 1.0 + ex
    s = 1.0 / d
    np.divide(ex, d, out=s, where=x < 0)
    return _op(s, (a,), lambda gy: (gy * s * (1.0 - s),))


def memory_order(a: np.ndarray) -> list[int]:
    """The axes of ``a`` by decreasing stride, as ``np.empty_like`` orders
    them: ``a.transpose(memory_order(a))`` is C-contiguous when ``a`` is
    dense with positive strides."""
    return sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))


def _filler(a: np.ndarray):
    """A function ``fill(v)`` giving a new array of ``a``'s shape, dtype and
    memory order set to ``v``; it keeps nothing of ``a`` alive."""
    shape, dtype = a.shape, a.dtype
    order = memory_order(a)

    def fill(v):
        g = np.empty([shape[i] for i in order], dtype).transpose(np.argsort(order))
        g[...] = v
        return g
    return fill


def tensor_sum(a: Tensor) -> Tensor:
    fill = _filler(a.data)
    return _op(np.sum(a.data), (a,), lambda gy: (fill(gy),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    """The mean over ``axis``, in C order; its gradient is one frame of
    ``gy / n`` in the memory order of ``a``, broadcast over ``axis``."""
    n, shape = a.shape[axis], a.shape
    fill = _filler(a.data[(slice(None),) * axis + (slice(0, 1),)])
    return _op(np.ascontiguousarray(np.mean(a.data, axis=axis)), (a,),
               lambda gy: (np.broadcast_to(fill(np.expand_dims(gy / n, axis)), shape),))


def _first_readers(graph: Graph) -> dict:
    """Each tensor the tape holds as a tensor (not as its producer's node)
    and that requires a gradient, listed under the first node recorded that
    reads it: the last node replayed to give it a gradient."""
    seen, firsts = set(), {}
    for node in graph.nodes:
        for t in node.inputs:
            if isinstance(t, Tensor) and t.requires_grad and id(t) not in seen:
                seen.add(id(t))
                firsts.setdefault(node, []).append(t)
    return firsts


def backward(loss: Tensor, on_grad: Optional[Callable[[Tensor], None]] = None) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on.

    Walks the recording tape once, in reverse creation order (a valid reverse
    topological order), and gives each node's ``grad_fn`` its output's
    gradient. Of the gradients it returns, ``None`` and those of inputs that
    do not require gradients are dropped. A gradient goes to what the node
    holds for the input (see :class:`GraphNode`): the producer's node, whose
    ``grad`` is complete before that node is replayed and is then set on its
    output tensor if the caller still holds it, or the tensor itself. Either
    way the first gradient is kept as returned, and each later one is added
    out of place, so an array that two tensors share is never changed
    through either. So gradients accumulate across fan-out within one
    backward, and on a leaf across backward calls until it is dropped
    (``Tensor.zero_grad``, or the AdamW step that consumes it). A gradient
    whose shape or dtype differs from its input's is an
    :class:`AutodiffError`.

    ``on_grad(t)``, when given, is called for each tensor the tape holds as
    a tensor whose ``grad`` is set, right after the first node recorded that
    reads it has been replayed: no node replayed later reads it, so its
    ``grad`` is complete. It is called once per such tensor, in replay
    order, and may consume the gradient (an optimizer updating the parameter
    and dropping its ``grad``), so that a backward need not hold every
    gradient at once.

    The tape is consumed: call forward again before the next backward. Each
    node drops its inputs, output, gradient and ``grad_fn`` once replayed, so
    the tape's arrays are freed by reference counting as it goes, not by a
    later cyclic collection.
    """
    global _graph
    if loss.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise AutodiffError("backward on a detached loss: no recorded operations")
    graph = loss.node.graph
    if graph.consumed:
        raise AutodiffError("backward already ran on this graph; run forward again")
    graph.consumed = True
    firsts = {} if on_grad is None else _first_readers(graph)
    loss.node.grad = np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        # a node whose output got no gradient is not on any path from the loss
        if node.grad is not None:
            out = node.out()
            if out is not None:
                out.grad = node.grad
            for t, g in zip(node.inputs, node.apply(node.grad)):
                if g is None or not t.requires_grad:
                    continue
                if g.shape != t.shape or g.dtype != t.dtype:
                    raise AutodiffError(f"gradient of shape {g.shape} and dtype {g.dtype} for a "
                                        f"tensor of shape {t.shape} and dtype {t.dtype}")
                if t.grad is None:
                    t.grad = g
                else:
                    # out of place: the first gradient may be shared (an op may
                    # give one gy to two inputs)
                    t.grad = t.grad + g
        node.release()
        for t in firsts.get(node, ()):
            if t.grad is not None:
                on_grad(t)
    if _graph is graph:
        _graph = None


@dataclass
class GradCheckReport:
    """Outcome of :func:`grad_check`.

    ``max_rel_error`` is the largest error over the probed coordinates,
    ``|a - n| / max(|a|, |n|, 1e-3 * ||g||_inf)`` with ``a`` the analytic and
    ``n`` the central-difference derivative, and ``||g||_inf`` taken over the
    whole analytic gradient (see :func:`grad_check`). It is 0 when every
    probed ``a`` and ``n`` are both 0. ``passed`` is
    ``max_rel_error <= tolerance``.
    """

    max_rel_error: float
    tolerance: float
    passed: bool
    coords_checked: int
    worst_index: Optional[tuple[int, ...]] = None


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients of the scalar function ``f`` against
    central differences at ``x``.

    ``f`` must be deterministic (verified by a double evaluation) and map a
    tensor to a scalar tensor. ``max_coords`` bounds the number of finite
    difference probes for large inputs; coordinates are drawn with a seeded
    PRNG so reports are reproducible.

    The error at a probed coordinate, with analytic derivative ``a`` and
    central difference ``n = (f(x + eps) - f(x - eps)) / (2 eps)``, is::

        |a - n| / max(|a|, |n|, 1e-3 * ||g||_inf)

    where ``||g||_inf`` is the largest absolute value of the full analytic
    gradient, not only of the sampled coordinates. The floor is there because
    ``n`` carries a roundoff of about ``eps_mach * |f| / eps`` whatever the
    coordinate: at a coordinate far below the gradient's scale that roundoff
    alone would exceed ``tol`` under a purely relative error, however correct
    ``a`` is. With the floor, an error in ``a`` larger than
    ``tol * 1e-3 * ||g||_inf`` still fails. If ``||g||_inf`` is 0 the error is
    0 where ``n`` is also 0, and 1 where ``n`` is not.
    """
    if eps <= 0:
        raise TensorError("eps must be positive")
    base = np.array(x.data, copy=True)

    with no_grad():
        y1 = f(Tensor(base.copy()))
        y2 = f(Tensor(base.copy()))
    if y1.size != 1:
        raise AutodiffError(f"grad_check target must be scalar, got {y1.shape}")
    if not np.array_equal(y1.data, y2.data):
        raise AutodiffError("grad_check: double evaluation mismatch, f is not deterministic")

    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(base)

    n = base.size
    if max_coords is not None and max_coords < n:
        rng = np.random.default_rng(seed)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = np.arange(n)

    worst, worst_index = 0.0, None
    flat_analytic = analytic.reshape(-1)
    floor = 1e-3 * float(np.max(np.abs(flat_analytic)))

    def f_at(i, delta):
        bumped = base.copy()
        bumped.reshape(-1)[i] += delta
        return f(Tensor(bumped)).item()

    with no_grad():
        for i in coords:
            numeric = (f_at(i, eps) - f_at(i, -eps)) / (2.0 * eps)
            a = float(flat_analytic[i])
            denom = max(abs(a), abs(numeric), floor)
            # denom is 0 only when a == numeric == 0
            rel = abs(a - numeric) / denom if denom > 0 else 0.0
            if rel > worst:
                worst = rel
                worst_index = tuple(map(int, np.unravel_index(int(i), base.shape)))
    return GradCheckReport(max_rel_error=worst, tolerance=tol, passed=worst <= tol,
                           coords_checked=len(coords), worst_index=worst_index)
