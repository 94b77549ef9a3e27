"""A float64 reference for ``layers.conv3d`` and ``layers.conv3d_transposed``,
written from the definition and sharing no code with ``src/``.

Along each axis, kernel tap ``a`` links the position ``i`` of the smaller
side to ``i*s + a*d - p`` on the larger side: the input of a convolution,
the output of a transposed one. Links that fall outside the larger side read
or write zero padding and are dropped. The links left are a run of
consecutive positions on the smaller side and a run with step ``s`` on the
larger side, so each is a slice, and for a fixed tap they are one to one.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def _links(n_small: int, n_big: int, a: int, s: int, d: int, p: int):
    """The slices of the smaller and the larger side linked by tap ``a``,
    or None when every link reads or writes padding."""
    small = np.arange(n_small)
    big = small * s + a * d - p
    small = small[(big >= 0) & (big < n_big)]
    if not len(small):
        return None
    lo, hi = small[0], small[-1] + 1
    return slice(lo, hi), slice(lo * s + a * d - p, (hi - 1) * s + a * d - p + 1, s)


def out_extents(in_extents, spec) -> tuple:
    out = []
    for n, k, d, s, p in zip(in_extents, spec.kernel, spec.dilation, spec.stride, spec.padding):
        span = d * (k - 1) + 1
        out.append((n - 1) * s - 2 * p + span if spec.transposed else (n + 2 * p - span) // s + 1)
    return tuple(out)


def conv(x, w, b, spec, gy):
    """Output, and the input, weight and bias gradients for the output
    gradient ``gy``, of the convolution ``spec`` describes (transposed when
    ``spec.transposed``). ``w`` is (C_out, C_in, kt, kh, kw) either way."""
    x, w, b, gy = (np.asarray(v, dtype=np.float64) for v in (x, w, b, gy))
    n = x.shape[0]
    ext_x = x.shape[2:]
    ext_y = out_extents(ext_x, spec)
    y = np.zeros((n, w.shape[0], *ext_y))
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for tap in product(*(range(k) for k in spec.kernel)):
        links = []
        for axis, a in enumerate(tap):
            n_small, n_big = (ext_x[axis], ext_y[axis]) if spec.transposed else (ext_y[axis], ext_x[axis])
            links.append(_links(n_small, n_big, a, spec.stride[axis], spec.dilation[axis], spec.padding[axis]))
        if None in links:
            continue
        small, big = zip(*links)
        at_x, at_y = (small, big) if spec.transposed else (big, small)
        ix = (slice(None), slice(None)) + at_x
        iy = (slice(None), slice(None)) + at_y
        xs, gs, wt = x[ix], gy[iy], w[(slice(None), slice(None)) + tap]
        y[iy] += np.einsum("ncthw,oc->nothw", xs, wt, optimize=True)
        dx[ix] += np.einsum("nothw,oc->ncthw", gs, wt, optimize=True)
        dw[(slice(None), slice(None)) + tap] += np.einsum("nothw,ncthw->oc", gs, xs, optimize=True)
    y += b.reshape(1, -1, 1, 1, 1)
    return y, dx, dw, gy.sum(axis=(0, 2, 3, 4))
