"""Neural layers: 3D convolution (dilated / transposed), 3D max pooling and
group normalization, each a single tape node with an explicit backward rule.

Convolution uses cross-correlation semantics (no kernel flip) and zero
padding, which is never read: a kernel tap that reads only padding is
skipped, and a read that falls in the padding contributes a zero. The
transposed convolution is the same op with the two directions exchanged.
The kernels are set out where they are defined, at the numpy core.

The layout. Every op here works in (T, H, N, W, C) memory, where the batch
sits inside H, so a frame's H, N and W merge into one axis of rows and an H
range of a frame is one run of rows. An activation has the logical shape
(N, C, T, H, W) and is a view of that memory, as each op's output and input
gradient is. ``_to_layout`` gives an op its operand in the layout as a view
when the kernels can read it as it is: the channel stride is one element,
and each frame's rows have one stride, at least a row's width; the T stride
can be anything, 0 included. So mean_axis's gradient, one frame repeated
over T, is read in place. Any other operand is copied, once: a conv's
backward reuses its input's copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import precision
from .tensor import Tensor, TensorError, _op, _saved

Triple = tuple[int, int, int]


def _triple(v) -> Triple:
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
        for name in ("kernel", "dilation", "stride", "padding"):
            object.__setattr__(self, name, _triple(getattr(self, name)))
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
        eff = ConvSpec(kernel, dilation).effective()
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
        outs = tuple((n - 1) * s - 2 * p + eff if self.transposed else (n + 2 * p - eff) // s + 1
                     for n, eff, s, p in zip(in_extents, self.effective(), self.stride, self.padding))
        if min(outs) < 1:
            raise TensorError(f"non-positive output extent {outs} for input {tuple(in_extents)} "
                              f"with {self}")
        return outs


# ---------------------------------------------------------------------------
# numpy core: the correlation, run forward or as its adjoint (the gradient
# w.r.t. its input), and its weight gradient, all from one traversal,
# _tap_blocks, one frame at a time. Per axis, output i reads input
# i*s + a*d - p for tap a; _axis_taps keeps the taps that read some data,
# with the output range they write and the strided input range they read.
# A frame's block (_w_block) lays its live W taps side by side along the
# channel axis: column i holds in tap j's slot the input column output i
# reads through tap j, or zeros, so each live (t, h) tap is one matrix
# product with inner dimension live_w*C. The adjoint uses the mirror, a
# block of gy. In the backward, m.T @ x's rows is also the tap's weight
# gradient, so one block build serves both gradients. Each frame's block is
# released before the next is built, which bounds the stage-1 backward's
# peak. One geometry serves every stride, dilation and padding; there is no
# size rule and no second path.


def _axis_taps(n, o, k, s, d, p):
    """``(tap, out range, in range)`` along one axis for every tap that reads
    at least one of the ``n`` inputs; the ranges are slices of equal length."""
    taps = []
    for a in range(k):
        off = a * d - p
        lo = max(0, -(off // s))
        hi = min(o, (n - 1 - off) // s + 1)
        if lo < hi:
            taps.append((a, slice(lo, hi), slice(lo * s + off, (hi - 1) * s + off + 1, s)))
    return taps


def _frame_reads(t_taps, by_out):
    """The (tap index, out frame, in frame) reads of the T taps, grouped by
    the out frame (``by_out``) or by the in frame, as ``(frame, reads)``."""
    reads = [(j, o, i) for j, (_, ob, ib) in enumerate(t_taps)
             for o, i in zip(range(ob.start, ob.stop), range(ib.start, ib.stop, ib.step))]
    key = (lambda r: r[1]) if by_out else (lambda r: r[2])
    return itertools.groupby(sorted(reads, key=key), key)


def _to_layout(a):
    """(N, C, T, H, W) -> (T, H, N, W, C), a view or a copy (module docstring)."""
    v = a.transpose(2, 3, 0, 4, 1)
    _, _, n, w, c = v.shape
    _, sh, sn, sw, sc = v.strides
    rows = sc == v.itemsize and sw >= c * sc and sn == w * sw and sh == n * sn
    return v if rows else np.ascontiguousarray(v)


def _from_layout(a):
    """(T, H, N, W, C) -> (N, C, T, H, W), a view."""
    return a.transpose(2, 4, 0, 1, 3)


def stack_in_layout(arrays):
    """Stack (C, T, H, W) arrays, cast to the working precision, into a
    batch (N, C, T, H, W) in the layout, so the first conv copies nothing."""
    c, t, h, w = arrays[0].shape
    out = np.empty((t, h, len(arrays), w, c), precision.dtype())
    np.stack([a.transpose(1, 2, 3, 0) for a in arrays], axis=2, out=out)
    return _from_layout(out)


def _mat(a):
    """``a`` as a (rows, last axis) matrix."""
    return a.reshape(-1, a.shape[-1])


def _w_block(frame, w_taps, n_cols, mirror):
    """Lay the live W taps of ``frame`` (H, N, W, C) side by side: a block
    (H, N, n_cols, live_w*C) whose column i holds, in tap j's slot, the frame
    column that tap pairs with i, or zeros. Forward: output column i reads
    frame column i*s + a*d - p. Mirror (for gy): input column i*s + a*d - p
    receives gy column i. When the only live tap pairs every column with
    itself the block is the frame, uncopied."""
    w = frame.shape[2]
    index = np.full((n_cols, len(w_taps)), w, dtype=np.intp)  # w: the zero column
    for j, (_, ob, ib) in enumerate(w_taps):
        dst, src = (ib, ob) if mirror else (ob, ib)
        index[dst, j] = np.arange(w)[src]
    if np.array_equal(index, np.arange(w)[:, None]):
        return frame
    h, n, _, c = frame.shape
    padded = np.empty((h, n, w + 1, c), dtype=frame.dtype)
    padded[:, :, :w] = frame
    padded[:, :, w] = 0
    return np.take(padded, index, axis=2).reshape(h, n, n_cols, -1)


def _tap_index(taps):
    """The kernel taps of ``taps`` as an index of their axis: a slice when
    they are a contiguous range, as they are whenever the stride is 1."""
    a = [tap for tap, _, _ in taps]
    return slice(a[0], a[-1] + 1) if a == list(range(a[0], a[-1] + 1)) else a


def _stacked_weights(w, t_taps, h_taps, w_taps, contract):
    """The live taps of w (A, B, kt, kh, kw) as (live_t, live_h, live_w*C, C'):
    entry [j, k] is the matrix of the j-th live T and k-th live H tap, whose
    row i*C + c holds index c of axis ``contract`` (0 or 1) at the i-th live
    W tap. A reshape of w's live taps: a view of a tap-major w for contract 0,
    whose (A, B) slabs already lie stacked, and otherwise a copy of the live
    taps only (deep stages have few)."""
    taps = w.transpose(2, 3, 4, contract, 1 - contract)
    for axis, live in enumerate((t_taps, h_taps, w_taps)):
        taps = taps[(slice(None),) * axis + (_tap_index(live),)]
    return taps.reshape(*taps.shape[:2], -1, taps.shape[-1])


def _tap_blocks(src, taps, n_cols, adjoint):
    """The one traversal of a conv's products: for each live (t, h) tap and
    each frame it reads, ``(j, k, dst, rows)``, where j and k index the live
    T and H tap, ``rows`` are the block rows of src (T, H, N, W, C) the
    product reads and ``dst`` the (frame, H range) it writes. Forward, src is
    the correlation's input and dst indexes its output; adjoint, src is an
    output gradient, its blocks are mirrored, and dst indexes the input.
    A frame's block is released before the next is built; the consumer must
    drop its views of ``rows`` too, or two blocks are held at once."""
    t_taps, h_taps, w_taps = taps
    for f, reads in _frame_reads(t_taps, by_out=adjoint):
        block = _w_block(src[f], w_taps, n_cols, mirror=adjoint)
        for j, fo, fi in reads:
            for k, (_, ob, ib) in enumerate(h_taps):
                yield (j, k, (fi, ib), block[ob]) if adjoint else (j, k, (fo, ob), block[ib])
        del block


def _corr3d(src, w, taps, acc, adjoint, xl=None, dw=None):
    """Cross-correlate src (T,H,N,W,C) over the live taps, adding into acc
    (T', H', N, W', C'), or into nothing when acc is None. Forward, w
    carries (C', C, kt, kh, kw) and src is the input. Adjoint, the input
    gradient of the forward: w carries (C, C', kt, kh, kw) and src is an
    output gradient, scattered back through w; within one (t, h) tap the
    strided input rows hold no repeated element, so the in-place add is safe.
    Given xl (T', H', N, W', C''), each block's rows, transposed, times xl's
    at their dst add into the tap-major dw (kt, kh, kw, C, C'') the weight
    gradient: each (live_w*C, C'') product is its live W taps' slabs."""
    if not all(taps) or acc is None and dw is None:
        return
    t_taps, h_taps, w_taps = taps
    wst = None if acc is None else _stacked_weights(w, *taps, 0 if adjoint else 1)
    for j, k, dst, rows in _tap_blocks(src, taps, (xl if acc is None else acc).shape[3], adjoint):
        m = _mat(rows)
        if acc is not None:
            out = acc[dst]
            out += (m @ wst[j, k]).reshape(out.shape)
        if dw is not None:
            slabs = (t_taps[j][0], h_taps[k][0], _tap_index(w_taps))
            dw[slabs] += _gram(m, _mat(xl[dst])).reshape(-1, *dw.shape[3:])
        del rows, m


# Rows per block of a weight gradient's reduction (_gram). OpenBLAS sums a
# longer reduction in an order that depends on its thread count: with
# blocks of 512 rows the default model trained to other bytes at 2 threads
# than at 1.
_GRAM_ROWS = 256


def _gram(a, b):
    """a.T @ b, summed over blocks of _GRAM_ROWS rows in a fixed order, so
    its bytes do not depend on the BLAS thread count."""
    n = len(a) - len(a) % _GRAM_ROWS
    out = a[n:].T @ b[n:]
    if n:
        blocks = a[:n].reshape(-1, _GRAM_ROWS, a.shape[1]).transpose(0, 2, 1)
        out += np.matmul(blocks, b[:n].reshape(-1, _GRAM_ROWS, b.shape[1])).sum(axis=0)
    return out


# ---------------------------------------------------------------------------
# weight layout
#
# A conv weight is held tap-major: a (C_out, C_in, kt, kh, kw) array whose
# memory is (kt, kh, kw, C_out, C_in), so each kernel tap is one contiguous
# (C_out, C_in) slab, and the stacked W taps of a (t, h) tap are a reshape of
# it. The weight gradient is made in the same layout: only live slabs are
# written, and a dead slab stays zero (see training.AdamW). Checkpoints and the
# layer API keep (C_out, C_in, kt, kh, kw) in C order. Between the two
# orders a weight is its (C_out*C_in, taps) C-order matrix transposed, and
# it moves in pieces of about _PIECE elements (_row_pieces), so neither a
# drawn weight (_tap_major) nor a checkpoint (c_order_pieces) holds a second
# whole-layer copy.

# The memory axis order of a tap-major weight.
TAP_MAJOR = (2, 3, 4, 0, 1)
# Tile of a transposing copy: 16 elements across the weight matrix's short
# axis (a float32 cache line) by 4096 along its long one.
_TILE_SHORT, _TILE_LONG = 16, 4096
# Elements per piece of a weight moving between C order and tap-major.
_PIECE = 1 << 18


def is_tap_major(w) -> bool:
    """Whether ``w`` is a conv weight held tap-major."""
    return w.ndim == 5 and w.transpose(TAP_MAJOR).flags.c_contiguous


def _transpose_into(dst, src):
    """dst[...] = src.T for a 2-d src, tile by tile, each stretch of the long
    axis finished before the next: a whole-weight transposing copy, which
    strides through more than the cache holds, took 2x as long."""
    r, c = src.shape
    if r < c:
        return _transpose_into(dst.T, src.T)
    long, short = _TILE_LONG, _TILE_SHORT
    for i in range(0, r, long):
        for j in range(0, c, short):
            dst[j : j + short, i : i + long] = src[i : i + long, j : j + short].T


def _row_pieces(rows, taps):
    """``(lo, hi)`` ranges of the rows of a weight's (C_out*C_in, taps)
    C-order matrix, each of about _PIECE elements."""
    step = max(1, _PIECE // taps)
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _tap_major(shape, dtype, rows):
    """A tap-major weight of ``shape`` (C_out, C_in, kt, kh, kw) and
    ``dtype``, filled piece by piece: ``rows(lo, hi)`` gives rows lo:hi of
    its (C_out*C_in, taps) C-order matrix."""
    co, ci, *k = shape
    out = np.empty((*k, co, ci), dtype=dtype)
    held = out.reshape(-1, co * ci)
    for lo, hi in _row_pieces(co * ci, len(held)):
        _transpose_into(held[:, lo:hi], rows(lo, hi))
    return out.transpose(3, 4, 0, 1, 2)


def c_order_pieces(a):
    """The elements of ``a`` in C order, as 1-d pieces of about _PIECE
    elements: views of ``a`` in C order, and for a tap-major weight pieces of
    one reused buffer, each overwritten by the next."""
    if a.flags.c_contiguous or not is_tap_major(a):
        flat = np.ascontiguousarray(a).reshape(-1)
        for lo in range(0, flat.size, _PIECE):
            yield flat[lo : lo + _PIECE]
        return
    co, ci = a.shape[:2]
    held = a.transpose(TAP_MAJOR).reshape(-1, co * ci)
    pieces = _row_pieces(co * ci, len(held))
    buf = np.empty(pieces[0][1] * len(held), dtype=a.dtype)
    for lo, hi in pieces:
        piece = buf[: (hi - lo) * len(held)]
        _transpose_into(piece.reshape(hi - lo, -1), held[:, lo:hi])
        yield piece


# ---------------------------------------------------------------------------
# layers


class Conv3DLayer:
    """Weights (C_out, C_in, kt, kh, kw), held tap-major, plus per-output-channel
    bias.

    Weight init is uniform in +-sqrt(1/(C_in*kt*kh*kw)) from the given seeded
    generator; bias starts at zero. Explicit weights are copied. ``name``, the
    layer's scoped name in its model, is what a non-finite output reports.
    """

    def __init__(self, in_channels: int, out_channels: int, spec: ConvSpec,
                 rng: np.random.Generator | None = None, weight=None, bias=None,
                 name: str | None = None):
        self.name = name
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.spec = spec
        wshape = (self.out_channels, self.in_channels, *spec.kernel)
        taps = int(np.prod(spec.kernel))
        if weight is None:
            if rng is None:
                raise TensorError("Conv3DLayer needs either a generator or explicit weights")
            bound = np.sqrt(1.0 / (self.in_channels * taps))
            # the generator's draws in C order, one piece after another
            weight = _tap_major(wshape, precision.dtype(),
                                lambda lo, hi: rng.uniform(-bound, bound, size=(hi - lo, taps)))
        else:
            weight = np.asarray(weight)
            if weight.shape != wshape:
                raise TensorError(f"weight shape {weight.shape} != {wshape}")
            # its (C_out*C_in, taps) C-order matrix, a view of a C-order or tap-major weight
            matrix = (weight.transpose(TAP_MAJOR).reshape(taps, -1).T if is_tap_major(weight)
                      else weight.reshape(-1, taps))
            weight = _tap_major(wshape, precision.dtype(), lambda lo, hi: matrix[lo:hi])
        if bias is None:
            bias = np.zeros(self.out_channels)
        bias = np.array(bias, dtype=precision.dtype())
        if bias.shape != (self.out_channels,):
            raise TensorError(f"bias shape {bias.shape} != ({self.out_channels},)")
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


def _conv(x, layer: Conv3DLayer) -> Tensor:
    """The op of every conv layer, forward or transposed, on the sources of
    :func:`conv3d`. Each source reads its channel range of the weight through
    live taps found once from its own extents, which serve the forward and
    both gradients. A transposed spec runs the correlation reversed, from
    the op's output extents to its input's: its forward is the adjoint core
    and its backward the forward core, both on w with C_out and C_in
    swapped. The weight gradient reads each source as :func:`_saved` gives it."""
    sources = x if isinstance(x, tuple) else (x,)
    last = sources[-1]
    for s in sources:
        if s.data.ndim != 5:
            raise TensorError(f"conv input must be 5-d (N,C,T,H,W), got {s.shape}")
        if s.shape[0] != last.shape[0] or any(a > e for a, e in zip(s.shape[2:], last.shape[2:])):
            raise TensorError(f"join: {s.shape} does not fit beside {last.shape}")
    if (c := sum(s.shape[1] for s in sources)) != layer.in_channels:
        raise TensorError(f"channel mismatch: input has {c}, layer expects {layer.in_channels}")
    spec, w, b = layer.spec, layer.weight, layer.bias
    transposed = spec.transposed
    out_ext = spec.out_extents(last.shape[2:])
    y = np.zeros((*out_ext[:2], last.shape[0], out_ext[2], w.shape[0]), dtype=last.dtype)
    reads, lo = [], 0  # per source: what its backward reads
    for s in sources:
        cols = slice(lo, lo := lo + s.shape[1])
        corr = (out_ext, s.shape[2:]) if transposed else (s.shape[2:], out_ext)
        taps = [_axis_taps(*g) for g in zip(*corr, spec.kernel, spec.stride, spec.dilation,
                                            spec.padding)]
        corr_weight = w.data[:, cols].swapaxes(0, 1) if transposed else w.data[:, cols]
        xl = _to_layout(s.data)
        _corr3d(xl, corr_weight, taps, y, transposed)
        reads.append((cols, xl.shape if s.requires_grad else None, taps, corr_weight,
                      _saved(s, _from_layout(xl)) if w.requires_grad else None))
    y += b.data
    dw_shape = (*spec.kernel, *w.shape[:2]) if w.requires_grad else None

    def grad_fn(gy):
        gy = _to_layout(gy)
        dw = None if dw_shape is None else np.zeros(dw_shape, dtype=gy.dtype)
        dxs = []
        for cols, dx_shape, taps, corr_weight, x_again in reads:
            dx = None if dx_shape is None else np.zeros(dx_shape, dtype=gy.dtype)
            xl, dw_cols = (None, None) if dw is None else (_to_layout(x_again()), dw[..., cols])
            _corr3d(gy, corr_weight, taps, dx, not transposed, xl, dw_cols)
            dxs.append(None if dx is None else _from_layout(dx))
        if dw is not None:
            dw = dw.transpose(3, 4, 0, 1, 2)
        return *dxs, dw, gy.sum(axis=(0, 1, 2, 3))
    return _op(_from_layout(y), (*sources, w, b), grad_fn, layer.name)


def conv3d(x, layer: Conv3DLayer) -> Tensor:
    """The conv of ``layer`` on ``x``, a tensor, or a tuple of sources read
    as one input: the sources side by side along channels, each zero-extended
    at the high end of T, H and W to the last source's extents, as a U-Net
    decoder joins its upsampled map and its skip. A source that does not fit
    beside the last, on the batch or on an extent, is a TensorError."""
    if layer.spec.transposed:
        raise TensorError("conv3d called with a transposed spec")
    return _conv(x, layer)


def conv3d_transposed(x: Tensor, layer: Conv3DLayer) -> Tensor:
    if not layer.spec.transposed:
        raise TensorError("conv3d_transposed needs spec.transposed")
    return _conv(x, layer)


def maxpool3d(x: Tensor, kernel) -> Tensor:
    """Non-overlapping max pooling (stride == kernel). Trailing elements that
    do not fill a window are dropped; the gradient goes to the first maximum
    in row-major scan order within each window.

    The windows are kt*kh*kw strided views of the layout, and the output is
    a running maximum over them in scan order. The backward finds each
    window's first maximum again by walking the views in the same order, so
    the tape keeps no index, only the input as :func:`_saved` gives it."""
    kt, kh, kw = _triple(kernel)
    if x.data.ndim != 5:
        raise TensorError(f"maxpool input must be 5-d, got {x.shape}")
    n, c, t, h, w = x.shape
    if t < kt or h < kh or w < kw:
        raise TensorError(f"pool window ({kt},{kh},{kw}) exceeds input {(t, h, w)}")
    to, ho, wo = t // kt, h // kh, w // kw
    offsets = list(itertools.product(range(kt), range(kh), range(kw)))

    def windows(a):  # (T, H, N, W, C) -> its window views (to, ho, N, wo, C), in scan order
        a = a[: to * kt, : ho * kh, :, : wo * kw].reshape(to, kt, ho, kh, n, wo, kw, c)
        return [a[:, i, :, j, :, :, k] for i, j, k in offsets]

    xl = _to_layout(x.data)
    xw = windows(xl)
    y = xw[0].copy()
    for v in xw[1:]:
        np.maximum(y, v, out=y)  # on a tie y, the earlier value, is kept
    x_again = _saved(x, _from_layout(xl))

    def grad_fn(gy):
        gy = _to_layout(gy)
        gx = np.zeros((t, h, n, w, c), dtype=gy.dtype)
        free = np.ones(y.shape, dtype=bool)  # windows whose maximum is still to be found
        for v, g in zip(windows(_to_layout(x_again())), windows(gx)):
            first = v == y
            first &= free
            free ^= first
            np.multiply(gy, first, out=g)
        return (_from_layout(gx),)
    return _op(_from_layout(y), (x,), grad_fn)


# Added to each group's variance before its square root, so a constant
# group divides by sqrt(GROUP_NORM_EPS), not by 0.
GROUP_NORM_EPS = 1e-5


class GroupNormLayer:
    """Per-sample normalization over channel groups with affine gamma/beta,
    copied when given; ``name`` as for Conv3DLayer."""

    def __init__(self, channels: int, groups: int, gamma=None, beta=None,
                 name: str | None = None):
        self.name = name
        if channels % groups != 0:
            raise TensorError(f"channels {channels} not divisible by groups {groups}")
        self.channels = int(channels)
        self.groups = int(groups)
        self.gamma = Tensor(np.ones(channels) if gamma is None else np.array(gamma), requires_grad=True)
        self.beta = Tensor(np.zeros(channels) if beta is None else np.array(beta), requires_grad=True)
        for name, t in self.parameters():
            if t.shape != (self.channels,):
                raise TensorError(f"{name} shape {t.shape} != ({self.channels},)")

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


def group_norm(x: Tensor, layer: GroupNormLayer) -> Tensor:
    """Group norm on the layout as rows (T*H, N*W*C), so every pass is a long
    contiguous row against a row of per-(n, c) terms, and a sum over the rows
    then over W gives the per-(n, c) sums. The tape keeps the input, the mean row
    and the per-(n, c) inverse deviation, and the per-(n, c) scale and shift
    rows the forward made from gamma and beta; the backward recomputes the
    centred input x - mean from them, the forward's subtraction on the same
    arrays, instead of keeping a second map, and holds two maps beside its
    gy. The output is not kept: the op's recompute rebuilds it from the same
    rows, not from gamma and beta, which AdamW may update within the
    backward."""
    if x.data.ndim != 5:
        raise TensorError(f"group_norm input must be 5-d, got {x.shape}")
    n, c, t, h, w = x.shape
    if c != layer.channels:
        raise TensorError(f"channel mismatch: input {c}, layer {layer.channels}")
    g = layer.groups
    m = (c // g) * t * h * w  # entries normalized together

    def sums(a):  # (T*H, N*W*C) -> per-(n, c) sums (N, C)
        return a.sum(axis=0).reshape(n, w, c).sum(axis=1)

    def grouped(a):  # (N, C) -> per-(n, group) sums spread over each group's channels
        return np.repeat(a.reshape(n, g, -1).sum(axis=2), c // g, axis=1)

    def row(a):  # per-(n, c) terms (N, C), or per-c (C,), as a row of length N*W*C
        return np.broadcast_to(a.reshape(-1, 1, c), (n, w, c)).reshape(-1)

    xl = _to_layout(x.data).reshape(t * h, -1)
    mean = row(grouped(sums(xl)) / m)
    d = xl - mean  # x̂ = d * inv
    y = np.square(d)
    inv = 1.0 / np.sqrt(grouped(sums(y)) / m + GROUP_NORM_EPS)
    gamma = layer.gamma.data
    scale, shift = row(inv * gamma), row(layer.beta.data)  # copies, not views of gamma, beta
    np.multiply(d, scale, out=y)
    y += shift
    del d  # the backward recomputes it; free it before _op's finite check
    need_dx = x.requires_grad

    def recompute():  # the forward's y, by its operations on the same arrays
        y = xl - mean
        y *= scale
        y += shift
        return _from_layout(y.reshape(t, h, n, w, c))

    def grad_fn(gy):
        gy = _to_layout(gy).reshape(t * h, -1)
        d = xl - mean
        gyd = gy * d
        s_gy, s_gyx = sums(gy), sums(gyd) * inv  # per-(n, c) sums of gy and gy * x̂
        dx = None
        if need_dx:
            # dx = inv * (gy*gamma - mean(gy*gamma) - x̂ * mean(gy*gamma*x̂)),
            # the means over each (n, group); built in gyd's buffer, and the
            # x̂ term in d's, so two maps are held beside gy
            d *= row(-inv * inv * grouped(gamma * s_gyx) / m)
            dx = np.multiply(gy, scale, out=gyd)
            dx += d
            dx += row(-inv * grouped(gamma * s_gy) / m)
            dx = _from_layout(dx.reshape(t, h, n, w, c))
        return dx, s_gyx.sum(axis=0), s_gy.sum(axis=0)
    return _op(_from_layout(y.reshape(t, h, n, w, c)), (x, layer.gamma, layer.beta), grad_fn,
               layer.name, recompute)
