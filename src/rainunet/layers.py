"""Neural layers: 3D convolution (dilated / transposed), 3D max pooling and
group normalization, each a single tape node with an explicit backward rule.

Convolution uses cross-correlation semantics (no kernel flip) and zero
padding, which is never materialized: each kernel tap works on the box of
outputs whose reads fall inside the input. The transposed convolution is the
exact adjoint of the forward correlation, implemented with the same scatter
kernel that computes the input gradient of the forward pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import precision
from .tensor import Tensor, TensorError, _op

Triple = tuple[int, int, int]


def _triple(v) -> Triple:
    if np.isscalar(v):
        v = (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise TensorError(f"expected 3 extents, got {v!r}")
    return t


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 3D convolution along (t, h, w)."""

    kernel: Triple
    dilation: Triple = (1, 1, 1)
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)
    transposed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kernel", _triple(self.kernel))
        object.__setattr__(self, "dilation", _triple(self.dilation))
        object.__setattr__(self, "stride", _triple(self.stride))
        object.__setattr__(self, "padding", _triple(self.padding))
        if min(self.kernel) < 1 or min(self.dilation) < 1 or min(self.stride) < 1:
            raise TensorError(f"kernel/dilation/stride must be positive: {self}")
        if min(self.padding) < 0:
            raise TensorError(f"padding must be non-negative: {self}")

    def effective(self) -> Triple:
        """Kernel span per axis once dilation is applied."""
        return tuple(d * (k - 1) + 1 for k, d in zip(self.kernel, self.dilation))

    @staticmethod
    def same_size(kernel, dilation=(1, 1, 1)) -> "ConvSpec":
        """Stride-1 spec whose zero padding preserves (T, H, W)."""
        kernel = _triple(kernel)
        dilation = _triple(dilation)
        eff = tuple(d * (k - 1) + 1 for k, d in zip(kernel, dilation))
        if any(e % 2 == 0 for e in eff):
            raise TensorError(f"same-size spec needs odd effective extents, got {eff}")
        return ConvSpec(kernel, dilation, (1, 1, 1), tuple((e - 1) // 2 for e in eff))

    @staticmethod
    def upsample(axes_doubled: tuple[bool, bool, bool]) -> "ConvSpec":
        """Transposed spec that exactly doubles the selected axes
        (kernel 2, stride 2, no padding) and passes the rest through."""
        k = tuple(2 if d else 1 for d in axes_doubled)
        return ConvSpec(k, (1, 1, 1), k, (0, 0, 0), transposed=True)

    def out_extents(self, in_extents: Triple) -> Triple:
        outs = []
        for n, k, d, s, p in zip(in_extents, self.kernel, self.dilation, self.stride, self.padding):
            eff = d * (k - 1) + 1
            if self.transposed:
                o = (n - 1) * s - 2 * p + eff
            else:
                o = (n + 2 * p - eff) // s + 1
            outs.append(o)
        if min(outs) < 1:
            raise TensorError(
                f"non-positive output extent {tuple(outs)} for input {tuple(in_extents)} with {self}"
            )
        return tuple(outs)


# ---------------------------------------------------------------------------
# numpy cores: correlation forward, gradient w.r.t. weight, gradient w.r.t.
# input. The three are mutual adjoints; the transposed convolution reuses
# the input-gradient scatter as its forward pass.
#
# All three loop over the kernel taps that _tap_boxes yields. Per axis,
# output i reads input i*s + a*d - p for tap a; a tap's output box holds the
# outputs whose reads land inside the input, and its input box the strided
# values they read. Padding is never built: a tap that reads only padding
# is skipped, and one that reads some padding touches only in-bounds data.
#
# Each core copies x and gy to channels-last (N,T,H,W,C) once per call, as
# temporaries the tape never holds. A live tap is then one `@` between its
# box as a (rows, C) matrix, which copies contiguous channel runs, and a
# contiguous copy of its weight slice (matmul skips BLAS for a strided one).
# The whole weight is never copied: deep stages have few live taps. The inner
# dimension is C_in (forward), the box's N*T*H*W (dw) or C_out (dx).


def _tap_boxes(in_ext, out_ext, kshape, stride, dilation, padding):
    """Yield ``(tap, out_box, in_box)`` for every kernel tap that reads at
    least one input value; the boxes are (t, h, w) slice triples."""
    per_axis = []
    for n, o, k, s, d, p in zip(in_ext, out_ext, kshape, stride, dilation, padding):
        live = []
        for a in range(k):
            off = a * d - p
            lo = max(0, -(off // s))
            hi = min(o, (n - 1 - off) // s + 1)
            if lo < hi:
                live.append((a, slice(lo, hi), slice(lo * s + off, (hi - 1) * s + off + 1, s)))
        per_axis.append(live)
    for axes in itertools.product(*per_axis):
        tap, obox, ibox = zip(*axes)
        yield tap, obox, ibox


def _channels_last(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def _rows(a, box):
    """The (t, h, w) box of channels-last ``a`` as a (rows, C) matrix."""
    return a[(slice(None), *box)].reshape(-1, a.shape[-1])


def _corr3d(x, w, stride, dilation, padding, out_extents):
    """Cross-correlate x (N,Ci,T,H,W) with w (Co,Ci,kt,kh,kw)."""
    xl = _channels_last(x)
    acc = np.zeros((x.shape[0], *out_extents, w.shape[0]), dtype=x.dtype)
    for tap, obox, ibox in _tap_boxes(x.shape[2:], out_extents, w.shape[2:],
                                      stride, dilation, padding):
        dst = acc[(slice(None), *obox)]
        dst += (_rows(xl, ibox) @ np.ascontiguousarray(w[(..., *tap)].T)).reshape(dst.shape)
    return np.ascontiguousarray(np.moveaxis(acc, 4, 1))


def _corr3d_dw(x, gy, kshape, stride, dilation, padding):
    """Weight gradient of _corr3d: correlate each tap's input box with gy."""
    xl, gyl = _channels_last(x), _channels_last(gy)
    dw = np.zeros((gy.shape[1], x.shape[1], *kshape), dtype=gy.dtype)
    for tap, obox, ibox in _tap_boxes(x.shape[2:], gy.shape[2:], kshape,
                                      stride, dilation, padding):
        dw[(..., *tap)] = _rows(gyl, obox).T @ _rows(xl, ibox)
    return dw


def _corr3d_dx(gy, w, stride, dilation, padding, in_extents):
    """Input gradient of _corr3d: scatter gy back through w, tap by tap.

    w carries (C_gy, C_out, kt, kh, kw); gy channels contract with axis 0.
    For a fixed tap the strided input box holds no repeated element, so the
    in-place add is safe.
    """
    gyl = _channels_last(gy)
    acc = np.zeros((gy.shape[0], *in_extents, w.shape[1]), dtype=gy.dtype)
    for tap, obox, ibox in _tap_boxes(in_extents, gy.shape[2:], w.shape[2:],
                                      stride, dilation, padding):
        dst = acc[(slice(None), *ibox)]
        dst += (_rows(gyl, obox) @ np.ascontiguousarray(w[(..., *tap)])).reshape(dst.shape)
    return np.ascontiguousarray(np.moveaxis(acc, 4, 1))


# ---------------------------------------------------------------------------
# layers


class Conv3DLayer:
    """Weights (C_out, C_in, kt, kh, kw) plus per-output-channel bias.

    Weight init is uniform in +-sqrt(1/(C_in*kt*kh*kw)) from the given seeded
    generator; bias starts at zero.
    """

    def __init__(self, in_channels: int, out_channels: int, spec: ConvSpec,
                 rng: np.random.Generator | None = None, weight=None, bias=None):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.spec = spec
        wshape = (self.out_channels, self.in_channels, *spec.kernel)
        if weight is None:
            if rng is None:
                raise TensorError("Conv3DLayer needs either a generator or explicit weights")
            bound = np.sqrt(1.0 / (self.in_channels * int(np.prod(spec.kernel))))
            weight = rng.uniform(-bound, bound, size=wshape)
        weight = np.asarray(weight, dtype=precision.dtype())
        if weight.shape != wshape:
            raise TensorError(f"weight shape {weight.shape} != {wshape}")
        if bias is None:
            bias = np.zeros(self.out_channels)
        bias = np.asarray(bias, dtype=precision.dtype())
        if bias.shape != (self.out_channels,):
            raise TensorError(f"bias shape {bias.shape} != ({self.out_channels},)")
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def __call__(self, x: Tensor) -> Tensor:
        if self.spec.transposed:
            return conv3d_transposed(x, self)
        return conv3d(x, self)


def _check_conv_input(x: Tensor, layer: Conv3DLayer):
    if x.data.ndim != 5:
        raise TensorError(f"conv input must be 5-d (N,C,T,H,W), got {x.shape}")
    if x.shape[1] != layer.in_channels:
        raise TensorError(
            f"channel mismatch: input has {x.shape[1]}, layer expects {layer.in_channels}"
        )


def conv3d(x: Tensor, layer: Conv3DLayer) -> Tensor:
    spec = layer.spec
    if spec.transposed:
        raise TensorError("conv3d called with a transposed spec")
    _check_conv_input(x, layer)
    in_ext = x.shape[2:]
    out_ext = spec.out_extents(in_ext)
    w, b = layer.weight, layer.bias
    y = _corr3d(x.data, w.data, spec.stride, spec.dilation, spec.padding, out_ext)
    y += b.data.reshape(1, -1, 1, 1, 1)

    def make_apply(out):
        def apply():
            gy = out.grad
            if b.requires_grad:
                b.accumulate_grad(gy.sum(axis=(0, 2, 3, 4)))
            if w.requires_grad:
                w.accumulate_grad(
                    _corr3d_dw(x.data, gy, spec.kernel, spec.stride, spec.dilation, spec.padding)
                )
            if x.requires_grad:
                x.accumulate_grad(
                    _corr3d_dx(gy, w.data, spec.stride, spec.dilation, spec.padding, in_ext)
                )
        return apply
    return _op(y, (x, w, b), make_apply)


def conv3d_transposed(x: Tensor, layer: Conv3DLayer) -> Tensor:
    spec = layer.spec
    if not spec.transposed:
        raise TensorError("conv3d_transposed needs spec.transposed")
    _check_conv_input(x, layer)
    in_ext = x.shape[2:]
    out_ext = spec.out_extents(in_ext)
    w, b = layer.weight, layer.bias
    y = _corr3d_dx(x.data, w.data.swapaxes(0, 1), spec.stride, spec.dilation, spec.padding, out_ext)
    y += b.data.reshape(1, -1, 1, 1, 1)

    def make_apply(out):
        def apply():
            gy = out.grad
            if b.requires_grad:
                b.accumulate_grad(gy.sum(axis=(0, 2, 3, 4)))
            if w.requires_grad:
                dw = _corr3d_dw(gy, x.data, spec.kernel, spec.stride, spec.dilation, spec.padding)
                w.accumulate_grad(dw.swapaxes(0, 1))
            if x.requires_grad:
                x.accumulate_grad(
                    _corr3d(gy, layer.weight.data.swapaxes(0, 1), spec.stride, spec.dilation,
                            spec.padding, in_ext)
                )
        return apply
    return _op(y, (x, w, b), make_apply)


def maxpool3d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping max pooling (stride == kernel). Trailing elements that
    do not fill a window are dropped; the gradient goes to the first maximum
    in row-major scan order within each window."""
    kt, kh, kw = _triple(kernel)
    if x.data.ndim != 5:
        raise TensorError(f"maxpool input must be 5-d, got {x.shape}")
    n, c, t, h, w = x.shape
    if t < kt or h < kh or w < kw:
        raise TensorError(f"pool window ({kt},{kh},{kw}) exceeds input {(t, h, w)}")
    to, ho, wo = t // kt, h // kh, w // kw
    trimmed = x.data[:, :, : to * kt, : ho * kh, : wo * kw]
    grouped = trimmed.reshape(n, c, to, kt, ho, kh, wo, kw).transpose(0, 1, 2, 4, 6, 3, 5, 7)
    flat = np.ascontiguousarray(grouped).reshape(n, c, to, ho, wo, kt * kh * kw)
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def make_apply(out):
        def apply():
            if not x.requires_grad:
                return
            gflat = np.zeros_like(flat)
            np.put_along_axis(gflat, idx[..., None], out.grad[..., None], axis=-1)
            g = gflat.reshape(n, c, to, ho, wo, kt, kh, kw).transpose(0, 1, 2, 5, 3, 6, 4, 7)
            gx = np.zeros_like(x.data)
            gx[:, :, : to * kt, : ho * kh, : wo * kw] = g.reshape(n, c, to * kt, ho * kh, wo * kw)
            x.accumulate_grad(gx)
        return apply
    return _op(np.ascontiguousarray(y), (x,), make_apply)


class GroupNormLayer:
    """Per-sample normalization over channel groups with affine gamma/beta."""

    def __init__(self, channels: int, groups: int, eps: float = 1e-5):
        if channels % groups != 0:
            raise TensorError(f"channels {channels} not divisible by groups {groups}")
        if eps <= 0:
            raise TensorError("eps must be positive")
        self.channels = int(channels)
        self.groups = int(groups)
        self.eps = float(eps)
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def __call__(self, x: Tensor) -> Tensor:
        return group_norm(x, self)


def group_norm(x: Tensor, layer: GroupNormLayer) -> Tensor:
    if x.data.ndim != 5:
        raise TensorError(f"group_norm input must be 5-d, got {x.shape}")
    n, c, t, h, w = x.shape
    if c != layer.channels:
        raise TensorError(f"channel mismatch: input {c}, layer {layer.channels}")
    g = layer.groups
    m = (c // g) * t * h * w  # entries normalized together
    xg = x.data.reshape(n, g, m)
    mu = xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(xg.var(axis=2, keepdims=True) + layer.eps)
    xhat = ((xg - mu) * inv).reshape(n, c, t, h, w)
    gamma_col = layer.gamma.data.reshape(1, c, 1, 1, 1)
    y = xhat * gamma_col + layer.beta.data.reshape(1, c, 1, 1, 1)
    gamma, beta = layer.gamma, layer.beta

    def make_apply(out):
        def apply():
            gy = out.grad
            if gamma.requires_grad:
                gamma.accumulate_grad(np.sum(gy * xhat, axis=(0, 2, 3, 4)))
            if beta.requires_grad:
                beta.accumulate_grad(np.sum(gy, axis=(0, 2, 3, 4)))
            if x.requires_grad:
                dxhat = (gy * gamma_col).reshape(n, g, m)
                xh = xhat.reshape(n, g, m)
                mean_d = dxhat.mean(axis=2, keepdims=True)
                mean_dx = (dxhat * xh).mean(axis=2, keepdims=True)
                dx = (dxhat - mean_d - xh * mean_dx) * inv
                x.accumulate_grad(dx.reshape(n, c, t, h, w))
        return apply
    return _op(y, (x, gamma, beta), make_apply)
