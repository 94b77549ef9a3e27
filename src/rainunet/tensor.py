"""Dense tensors with reverse-mode automatic differentiation.

A thread-local tape (:class:`Graph`) records every operation whose inputs
require gradients; :func:`backward` replays the tape in reverse. The tape is
consumed by a single backward call, so "backward twice without a new forward"
is an error instead of silent gradient accumulation. Gradients *do* accumulate
additively across fan-out within one backward, and across backward calls on
leaf tensors until the caller zeroes them (optimizer-style ``zero_grad``).

No broadcasting: binary operations require equal shapes, scalars are the only
exception. Layout convention for 5-d values is (N, C, T, H, W).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import precision


class TensorError(ValueError):
    """Shape/value misuse of a tensor operation."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared in a published tensor value."""


class AutodiffError(RuntimeError):
    """Misuse of the gradient tape (non-scalar loss, detached loss, reuse)."""


_local = threading.local()


def _state():
    if not hasattr(_local, "graph"):
        _local.graph = None
        _local.grad_enabled = True
    return _local


def is_grad_enabled() -> bool:
    return _state().grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording (pure inference forwards)."""
    st = _state()
    previous = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = previous


class GraphNode:
    __slots__ = ("inputs", "out", "apply", "graph")

    def __init__(self, inputs, out, apply, graph):
        self.inputs = inputs
        self.out = out
        self.apply = apply
        self.graph = graph


class Graph:
    """Recorded operations in creation order, which is topological by
    construction: an op can only consume tensors that already exist."""

    def __init__(self):
        self.nodes: list[GraphNode] = []
        self.consumed = False

    def record(self, inputs, out, apply) -> GraphNode:
        node = GraphNode(inputs, out, apply, self)
        self.nodes.append(node)
        return node


def active_graph() -> Optional[Graph]:
    return _state().graph


def _recording_graph() -> Graph:
    st = _state()
    if st.graph is None or st.graph.consumed:
        st.graph = Graph()
    return st.graph


class Tensor:
    """N-dimensional float array that can participate in the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

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
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # operator sugar; the real work happens in the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self):
        backward(self)


def tensor_new(shape: Sequence[int], fill) -> Tensor:
    """Fresh tensor from a scalar fill value or a flat row-major buffer."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise TensorError("shape must be non-empty")
    if any(s < 1 for s in shape):
        raise TensorError(f"extents must be >= 1, got {shape}")
    n = int(np.prod(shape))
    if np.isscalar(fill):
        data = np.full(shape, fill, dtype=precision.dtype())
    else:
        buf = np.asarray(fill, dtype=precision.dtype()).reshape(-1)
        if buf.size != n:
            raise TensorError(f"buffer length {buf.size} != product(shape) {n}")
        data = buf.reshape(shape).copy()
    return Tensor(data)


def _as_tensor_or_scalar(x):
    if isinstance(x, Tensor):
        return x, None
    if np.isscalar(x):
        return None, float(x)
    raise TensorError(f"expected Tensor or scalar, got {type(x).__name__}")


def _op(data: np.ndarray, inputs: tuple[Tensor, ...], make_apply) -> Tensor:
    """Create the output tensor of an op, recording it on the tape when any
    input takes part in differentiation."""
    track = is_grad_enabled() and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        out.node = _recording_graph().record(inputs, out, make_apply(out))
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise TensorError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b) -> Tensor:
    bt, scalar = _as_tensor_or_scalar(b)
    if bt is None:
        def make_apply(out):
            def apply():
                if a.requires_grad:
                    a.accumulate_grad(out.grad)
            return apply
        return _op(a.data + scalar, (a,), make_apply)
    _check_same_shape(a, bt, "add")

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad)
            if bt.requires_grad:
                bt.accumulate_grad(out.grad)
        return apply
    return _op(a.data + bt.data, (a, bt), make_apply)


def sub(a: Tensor, b) -> Tensor:
    bt, scalar = _as_tensor_or_scalar(b)
    if bt is None:
        def make_apply(out):
            def apply():
                if a.requires_grad:
                    a.accumulate_grad(out.grad)
            return apply
        return _op(a.data - scalar, (a,), make_apply)
    _check_same_shape(a, bt, "sub")

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad)
            if bt.requires_grad:
                bt.accumulate_grad(-out.grad)
        return apply
    return _op(a.data - bt.data, (a, bt), make_apply)


def mul(a: Tensor, b) -> Tensor:
    bt, scalar = _as_tensor_or_scalar(b)
    if bt is None:
        return scale(a, scalar)
    _check_same_shape(a, bt, "mul")

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad * bt.data)
            if bt.requires_grad:
                bt.accumulate_grad(out.grad * a.data)
        return apply
    return _op(a.data * bt.data, (a, bt), make_apply)


def div(a: Tensor, b) -> Tensor:
    bt, scalar = _as_tensor_or_scalar(b)
    if bt is None:
        return scale(a, 1.0 / scalar)
    _check_same_shape(a, bt, "div")

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad / bt.data)
            if bt.requires_grad:
                bt.accumulate_grad(-out.grad * a.data / (bt.data * bt.data))
        return apply
    return _op(a.data / bt.data, (a, bt), make_apply)


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad * k)
        return apply
    return _op(a.data * np.asarray(k, dtype=a.data.dtype), (a,), make_apply)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad * mask)
        return apply
    return _op(np.where(mask, a.data, 0), (a,), make_apply)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # piecewise form avoids exp overflow on large |x|
    pos = x >= 0
    s = np.empty_like(x)
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad * out.data * (1.0 - out.data))
        return apply
    return _op(s, (a,), make_apply)


def tensor_sum(a: Tensor) -> Tensor:
    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(np.full_like(a.data, out.grad))
        return apply
    return _op(np.sum(a.data), (a,), make_apply)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(np.full_like(a.data, out.grad / n))
        return apply
    # forward is literally sum/size so mean(x) == sum(x)/size holds exactly
    return _op(np.sum(a.data) / n, (a,), make_apply)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]

    def make_apply(out):
        def apply():
            if a.requires_grad:
                g = np.expand_dims(out.grad / n, axis)
                a.accumulate_grad(np.broadcast_to(g, a.shape).copy())
        return apply
    return _op(np.mean(a.data, axis=axis), (a,), make_apply)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise TensorError(f"reshape {a.shape} -> {shape}: size mismatch")

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad.reshape(a.shape))
        return apply
    return _op(a.data.reshape(shape), (a,), make_apply)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise TensorError("concat of no tensors")
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def make_apply(out):
        def apply():
            pieces = np.split(out.grad, splits, axis=axis)
            for t, g in zip(tensors, pieces):
                if t.requires_grad:
                    t.accumulate_grad(g)
        return apply
    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, make_apply)


def crop(a: Tensor, bounds: Sequence[tuple[int, int]]) -> Tensor:
    """Slice ``a`` to ``[lo, hi)`` per axis; the gradient zero-pads back."""
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    if len(bounds) != a.data.ndim:
        raise TensorError("crop: one (lo, hi) pair per axis required")
    for (lo, hi), extent in zip(bounds, a.shape):
        if not (0 <= lo < hi <= extent):
            raise TensorError(f"crop: bad bounds {bounds} for shape {a.shape}")
    sl = tuple(slice(lo, hi) for lo, hi in bounds)

    def make_apply(out):
        def apply():
            if a.requires_grad:
                g = np.zeros_like(a.data)
                g[sl] = out.grad
                a.accumulate_grad(g)
        return apply
    return _op(a.data[sl].copy(), (a,), make_apply)


def zero_pad(a: Tensor, widths: Sequence[tuple[int, int]]) -> Tensor:
    """Zero-pad per axis by (before, after); the gradient crops back."""
    widths = tuple((int(lo), int(hi)) for lo, hi in widths)
    if len(widths) != a.data.ndim:
        raise TensorError("zero_pad: one (before, after) pair per axis required")
    sl = tuple(slice(lo, lo + extent) for (lo, _), extent in zip(widths, a.shape))

    def make_apply(out):
        def apply():
            if a.requires_grad:
                a.accumulate_grad(out.grad[sl])
        return apply
    return _op(np.pad(a.data, widths), (a,), make_apply)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` for every tensor the scalar ``loss`` depends on.

    Walks the recording tape once, in reverse creation order (a valid reverse
    topological order). The tape is consumed: call forward again before the
    next backward. Each node drops its inputs, output and backward closure
    once replayed, so the tape's arrays are freed by reference counting as
    soon as the caller lets go of its tensors, not by a later cyclic
    collection.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise AutodiffError("backward on a detached loss: no recorded operations")
    graph = loss.node.graph
    if graph.consumed:
        raise AutodiffError("backward already ran on this graph; run forward again")
    graph.consumed = True
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(graph.nodes):
        if node.out.grad is not None:  # else not on any path from the loss
            node.apply()
        node.inputs = node.out = node.apply = None
    st = _state()
    if st.graph is graph:
        st.graph = None


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

    worst = 0.0
    worst_index = None
    flat_analytic = analytic.reshape(-1)
    floor = 1e-3 * float(np.max(np.abs(flat_analytic)))
    with no_grad():
        for i in coords:
            bumped = base.copy()
            bumped.reshape(-1)[i] += eps
            f_plus = f(Tensor(bumped)).item()
            bumped = base.copy()
            bumped.reshape(-1)[i] -= eps
            f_minus = f(Tensor(bumped)).item()
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(flat_analytic[i])
            denom = max(abs(a), abs(numeric), floor)
            # denom is 0 only when a == numeric == 0
            rel = abs(a - numeric) / denom if denom > 0 else 0.0
            if rel > worst:
                worst = rel
                worst_index = np.unravel_index(int(i), base.shape)
    return GradCheckReport(
        max_rel_error=worst,
        tolerance=tol,
        passed=worst <= tol,
        coords_checked=len(coords),
        worst_index=worst_index,
    )
