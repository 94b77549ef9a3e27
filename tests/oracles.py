"""Independent reference implementations used as test oracles. These stay
deliberately naive (nested loops, direct definitions) and share no code with
the library paths they check."""

import numpy as np


def naive_conv3d(x, w, b, stride, dilation, padding):
    """Direct cross-correlation with explicit loops."""
    n_batch, c_in, t, h, wd = x.shape
    c_out, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    dt, dh, dw = dilation
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    eff = (dt * (kt - 1) + 1, dh * (kh - 1) + 1, dw * (kw - 1) + 1)
    to = (t + 2 * pt - eff[0]) // st + 1
    ho = (h + 2 * ph - eff[1]) // sh + 1
    wo = (wd + 2 * pw - eff[2]) // sw + 1
    y = np.zeros((n_batch, c_out, to, ho, wo))
    for n in range(n_batch):
        for o in range(c_out):
            for tt in range(to):
                for hh in range(ho):
                    for ww in range(wo):
                        acc = 0.0
                        for i in range(c_in):
                            for a in range(kt):
                                for bb in range(kh):
                                    for c in range(kw):
                                        acc += (xp[n, i, tt * st + a * dt,
                                                   hh * sh + bb * dh,
                                                   ww * sw + c * dw]
                                                * w[o, i, a, bb, c])
                        y[n, o, tt, hh, ww] = acc + b[o]
    return y


def naive_conv3d_transposed(x, w, b, stride, dilation, padding):
    """Scatter-accumulate transposed convolution; w is (C_out, C_in, ...)
    with C_in matching x channels."""
    n_batch, c_in, t, h, wd = x.shape
    c_out, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    dt, dh, dw = dilation
    pt, ph, pw = padding
    to = (t - 1) * st - 2 * pt + dt * (kt - 1) + 1
    ho = (h - 1) * sh - 2 * ph + dh * (kh - 1) + 1
    wo = (wd - 1) * sw - 2 * pw + dw * (kw - 1) + 1
    full = np.zeros((n_batch, c_out, to + 2 * pt, ho + 2 * ph, wo + 2 * pw))
    for n in range(n_batch):
        for i in range(c_in):
            for tt in range(t):
                for hh in range(h):
                    for ww in range(wd):
                        v = x[n, i, tt, hh, ww]
                        for o in range(c_out):
                            for a in range(kt):
                                for bb in range(kh):
                                    for c in range(kw):
                                        full[n, o, tt * st + a * dt,
                                             hh * sh + bb * dh,
                                             ww * sw + c * dw] += v * w[o, i, a, bb, c]
    y = full[:, :, pt:pt + to, ph:ph + ho, pw:pw + wo]
    return y + b.reshape(1, -1, 1, 1, 1)


def naive_group_norm(x, gamma, beta, groups, eps, gy):
    """Group norm of x (N, C, T, H, W) and its gradients for the output
    gradient gy, in float64, one (sample, group) at a time:
    y = (x - mean) / sqrt(var + eps) * gamma + beta. The input gradient goes
    through the explicit Jacobian of the normalized values. Returns
    (y, dx, dgamma, dbeta)."""
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    n, c = x.shape[:2]
    size = c // groups
    y = np.zeros(x.shape)
    dx = np.zeros(x.shape)
    dgamma = np.zeros(c)
    dbeta = np.zeros(c)
    for i in range(n):
        for g in range(groups):
            ch = slice(g * size, (g + 1) * size)
            v = x[i, ch].reshape(-1)
            count = v.size
            mean = sum(v) / count
            var = sum((e - mean) ** 2 for e in v) / count
            std = np.sqrt(var + eps)
            xhat = (v - mean) / std
            # d xhat_j / d v_k = (delta_jk - 1/count - xhat_j xhat_k / count) / std
            jac = (np.eye(count) - 1.0 / count - np.outer(xhat, xhat) / count) / std
            scale = np.repeat(np.asarray(gamma, dtype=np.float64)[ch], count // size)
            shift = np.repeat(np.asarray(beta, dtype=np.float64)[ch], count // size)
            y[i, ch] = (xhat * scale + shift).reshape(x[i, ch].shape)
            g_out = gy[i, ch].reshape(-1)
            dx[i, ch] = (jac.T @ (g_out * scale)).reshape(x[i, ch].shape)
            for k in range(size):
                part = slice(k * (count // size), (k + 1) * (count // size))
                dgamma[g * size + k] += sum(g_out[part] * xhat[part])
                dbeta[g * size + k] += sum(g_out[part])
    return y, dx, dgamma, dbeta


def naive_bilinear_resize(frame, out_h, out_w):
    """Per-pixel bilinear resize of a single 2-d frame, align-corners-false."""
    in_h, in_w = frame.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * in_h / out_h - 0.5, 0), in_h - 1)
            sx = min(max((j + 0.5) * in_w / out_w - 0.5, 0), in_w - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, in_h - 1), min(x0 + 1, in_w - 1)
            fy, fx = sy - y0, sx - x0
            top = frame[y0, x0] * (1 - fx) + frame[y0, x1] * fx
            bot = frame[y1, x0] * (1 - fx) + frame[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def support_box(arr, tol=0.0):
    """Bounding box extents of |arr| > tol along the trailing three axes."""
    mask = np.abs(arr) > tol
    nz = np.nonzero(mask)
    spans = []
    for axis in range(arr.ndim - 3, arr.ndim):
        idx = nz[axis]
        spans.append(int(idx.max() - idx.min() + 1) if idx.size else 0)
    return tuple(spans)


def confusion_loop(pred, gt):
    """Per-pixel confusion counting with an explicit loop."""
    tp = fp = fn = tn = 0
    for p, g in zip(pred.reshape(-1), gt.reshape(-1)):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn
