import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_conv3d, naive_conv3d_transposed, naive_group_norm
from rainunet import layers, precision
from rainunet.layers import (GROUP_NORM_EPS, Conv3DLayer, ConvSpec, GroupNormLayer, _axis_taps,
                             _from_layout, _stacked_weights, _to_layout, c_order_pieces, conv3d,
                             conv3d_transposed, group_norm, is_tap_major, maxpool3d)
from rainunet.model import TSBlock
from rainunet.tensor import (Tensor, TensorError, backward, discard_tape, grad_check, mean_axis,
                             mul, relu, tensor_sum)


def quad(y):
    return tensor_sum(mul(y, y))


def run_conv(x, layer):
    """The op of ``layer``'s spec: conv3d, or conv3d_transposed."""
    return (conv3d_transposed if layer.spec.transposed else conv3d)(x, layer)


class TestConvSpec:
    def test_same_size_padding(self):
        spec = ConvSpec.same_size((1, 7, 7), (1, 3, 3))
        assert spec.effective() == (1, 19, 19)
        assert spec.padding == (0, 9, 9)
        assert spec.stride == (1, 1, 1)

    def test_same_size_needs_odd_effective(self):
        with pytest.raises(TensorError):
            ConvSpec.same_size((2, 3, 3))

    def test_out_extents_examples(self):
        spec = ConvSpec((1, 3, 3), padding=(0, 1, 1))
        assert spec.out_extents((4, 8, 8)) == (4, 8, 8)
        dil = ConvSpec((1, 7, 7), (1, 3, 3), padding=(0, 9, 9))
        assert dil.out_extents((4, 64, 64)) == (4, 64, 64)

    def test_non_positive_extent_rejected(self):
        with pytest.raises(TensorError):
            ConvSpec((3, 3, 3)).out_extents((2, 8, 8))

    def test_validation(self):
        with pytest.raises(TensorError):
            ConvSpec((0, 1, 1))
        with pytest.raises(TensorError):
            ConvSpec((1, 1, 1), padding=(-1, 0, 0))


class TestConv3D:
    def test_identity_kernel(self):
        layer = Conv3DLayer(1, 1, ConvSpec((1, 1, 1)), weight=np.ones((1, 1, 1, 1, 1)),
                            bias=np.zeros(1))
        x = np.random.default_rng(0).normal(size=(1, 1, 2, 3, 3)).astype(np.float32)
        out = conv3d(Tensor(x), layer)
        assert np.array_equal(out.data, x)

    @pytest.mark.parametrize("op", [conv3d, conv3d_transposed], ids=lambda op: op.__name__)
    @pytest.mark.parametrize("shape,message", [((1, 3, 1, 2, 2), "channel mismatch"),
                                               ((1, 2, 2, 2), "5-d"),
                                               (((1, 1, 1, 2, 2), (1, 2, 1, 2, 2)),
                                                "channel mismatch: input has 3")],
                             ids=["channels", "4d", "sources_channels"])
    def test_input_checks(self, op, shape, message):
        spec = ConvSpec((1, 1, 1), transposed=op is conv3d_transposed)
        layer = Conv3DLayer(2, 1, spec, np.random.default_rng(0))
        x = (tuple(Tensor(np.zeros(s)) for s in shape) if isinstance(shape[0], tuple)
             else Tensor(np.zeros(shape)))
        with pytest.raises(TensorError, match=message):
            op(x, layer)

    def test_matches_loop_oracle(self, wide):
        rng = np.random.default_rng(42)
        for _ in range(8):
            c_in, c_out = rng.integers(1, 4, size=2)
            kernel = tuple(rng.integers(1, 4, size=3))
            dilation = tuple(rng.integers(1, 3, size=3))
            stride = tuple(rng.integers(1, 3, size=3))
            padding = tuple(rng.integers(0, 3, size=3))
            spec = ConvSpec(kernel, dilation, stride, padding)
            eff = spec.effective()
            extents = tuple(int(e) + int(rng.integers(0, 3)) for e in
                            (max(1, eff[0] - 2 * padding[0]),
                             max(1, eff[1] - 2 * padding[1]),
                             max(1, eff[2] - 2 * padding[2])))
            layer = Conv3DLayer(int(c_in), int(c_out), spec, rng)
            x = rng.normal(size=(2, int(c_in), *extents))
            got = conv3d(Tensor(x), layer).data
            want = naive_conv3d(x, layer.weight.data, layer.bias.data,
                                spec.stride, spec.dilation, spec.padding)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-6

    def test_gradients(self, wide):
        rng = np.random.default_rng(3)
        spec = ConvSpec((2, 3, 3), (1, 2, 2), (1, 1, 1), (1, 2, 2))
        layer = Conv3DLayer(2, 3, spec, rng)
        x = Tensor(rng.normal(size=(1, 2, 3, 7, 7)))
        assert grad_check(lambda t: quad(conv3d(t, layer)), x).passed


# The model's dilated and temporal specs on maps smaller than their span, and
# strided padded specs: the geometries where a kernel tap reads only part of
# the input, or none of it.
SMALL_MAP_CASES = [
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (2, 2, 2)),
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (1, 4, 4)),
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (2, 8, 8)),
    (ConvSpec.same_size((3, 1, 1)), (1, 3, 3)),
]
STRIDED_CASES = [
    (ConvSpec((3, 3, 3), stride=(2, 2, 2), padding=(1, 1, 1)), (3, 5, 6)),
    (ConvSpec((2, 3, 3), (1, 2, 2), (2, 2, 2), (1, 2, 2)), (4, 4, 5)),
    (ConvSpec((1, 5, 5), stride=(1, 2, 2), padding=(0, 2, 1)), (2, 3, 7)),
    (ConvSpec((2, 3, 3), (1, 1, 2), (2, 2, 2), (1, 1, 2), transposed=True), (2, 3, 3)),
]
# The model's own stage geometries: the dilated 1x7x7 conv on the default
# model's stage-1 and stage-2 maps and on the deepest maps of the default and
# the wide benchmark models, the 1x3x3 conv on the deepest of them, and the
# temporal conv with four frames and with one.
MODEL_STAGE_CASES = [
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (4, 66, 66)),
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (2, 33, 33)),
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (1, 4, 4)),
    (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (1, 2, 2)),
    (ConvSpec.same_size((1, 3, 3)), (1, 2, 2)),
    (ConvSpec.same_size((3, 1, 1)), (4, 66, 66)),
    (ConvSpec.same_size((3, 1, 1)), (1, 4, 4)),
]
# The output exists but no W tap reads data, so it is the bias alone.
EMPTY_W_CASES = [
    (ConvSpec((1, 1, 2), (1, 1, 3), (1, 1, 1), (0, 0, 2)), (2, 3, 1)),
    (ConvSpec((1, 1, 2), (1, 1, 2), (1, 1, 1), (0, 0, 1), transposed=True), (2, 3, 1)),
]


class TestConvTapGeometry:
    @pytest.mark.parametrize("spec,extents", SMALL_MAP_CASES + MODEL_STAGE_CASES + EMPTY_W_CASES)
    def test_small_maps_match_loop_oracle(self, wide, spec, extents):
        rng = np.random.default_rng(19)
        layer = Conv3DLayer(2, 3, spec, rng, bias=rng.normal(size=3))
        x = rng.normal(size=(2, 2, *extents))
        got = run_conv(Tensor(x), layer).data
        oracle = naive_conv3d_transposed if spec.transposed else naive_conv3d
        want = oracle(x, layer.weight.data, layer.bias.data,
                      spec.stride, spec.dilation, spec.padding)
        assert got.shape == want.shape == (2, 3, *spec.out_extents(extents))
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("spec,extents",
                             SMALL_MAP_CASES + STRIDED_CASES + MODEL_STAGE_CASES + EMPTY_W_CASES)
    def test_adjoint_identities(self, wide, spec, extents):
        # with bias 0 the conv is linear in x and in w, so
        # <conv(x), gy> = <x, dx> = <w, dw> for the gradients of that product
        rng = np.random.default_rng(29)
        layer = Conv3DLayer(3, 2, spec, rng)
        x = Tensor(rng.normal(size=(2, 3, *extents)), requires_grad=True)
        y = run_conv(x, layer)
        gy = Tensor(rng.normal(size=y.shape))
        loss = tensor_sum(mul(y, gy))
        backward(loss)
        value = loss.item()
        for a, g in ((x.data, x.grad), (layer.weight.data, layer.weight.grad)):
            assert abs(np.sum(a * g) - value) <= 1e-12 * max(1.0, abs(value))

    def test_tap_reading_only_padding_has_zero_weight_gradient(self, wide):
        # on a 2x2 map the dilated 7x7 kernel reaches data with its centre
        # tap only; every other tap reads padding alone
        rng = np.random.default_rng(31)
        layer = Conv3DLayer(2, 2, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        x = Tensor(rng.normal(size=(1, 2, 1, 2, 2)))
        backward(quad(conv3d(x, layer)))
        dw = layer.weight.grad
        assert np.all(dw[:, :, 0, 0, 0] == 0.0)
        live = np.zeros(dw.shape, dtype=bool)
        live[:, :, 0, 3, 3] = True
        assert np.all(dw[~live] == 0.0)
        assert np.all(dw[live] != 0.0)

    def test_weight_gradient_is_tap_major_with_its_live_taps(self):
        # on a 5x5 map the taps 2-4 of each spatial axis reach data
        rng = np.random.default_rng(33)
        layer = Conv3DLayer(2, 3, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        backward(quad(conv3d(Tensor(rng.normal(size=(1, 2, 1, 5, 5))), layer)))
        w = layer.weight
        assert is_tap_major(w.grad)
        live = np.zeros(w.shape, dtype=bool)
        live[:, :, 0:1, 2:5, 2:5] = True
        assert np.all(w.grad[~live] == 0.0) and np.all(w.grad[live] != 0.0)

    def test_transposed_weight_gradient_has_its_live_taps(self):
        # a 1x1 input and a 1x1 output: only the centre H and W tap pairs them
        rng = np.random.default_rng(35)
        spec = ConvSpec((1, 3, 3), (1, 2, 2), padding=(0, 2, 2), transposed=True)
        layer = Conv3DLayer(2, 3, spec, rng)
        backward(quad(conv3d_transposed(Tensor(rng.normal(size=(1, 2, 1, 1, 1))), layer)))
        w = layer.weight
        live = np.zeros(w.shape, dtype=bool)
        live[:, :, 0:1, 1:2, 1:2] = True
        assert np.all(w.grad[~live] == 0.0) and np.all(w.grad[live] != 0.0)

    @pytest.mark.parametrize("spec,extents", [
        (ConvSpec.same_size((1, 7, 7), (1, 3, 3)), (3, 12, 12)),
        (ConvSpec.upsample((False, True, True)), (3, 4, 4)),
    ])
    def test_backward_builds_each_block_once(self, monkeypatch, spec, extents):
        # one walk over gy's blocks gives both gradients, so a backward builds
        # as many W-tap blocks as the forward; a separate weight-gradient
        # walk over x's blocks would double that
        calls = []
        build = layers._w_block
        monkeypatch.setattr(layers, "_w_block", lambda *a, **k: calls.append(a) or build(*a, **k))
        rng = np.random.default_rng(36)
        layer = Conv3DLayer(2, 3, spec, rng)
        x = Tensor(rng.normal(size=(2, 2, *extents)), requires_grad=True)
        y = run_conv(x, layer)
        forward = len(calls)
        backward(quad(y))
        assert forward == extents[0]
        assert len(calls) == 2 * forward
        assert x.grad is not None and layer.weight.grad is not None

    def test_stage1_dilated_conv_memory_peak(self, traced_peak):
        # the default model's stage-1 dilated conv at float32. The forward's
        # peak counts from before the call, output included; the backward's
        # counts above what is in use when backward starts. Per-frame blocks
        # measure about 5.5x for each; blocks of the whole input at once
        # measured 9x and more.
        rng = np.random.default_rng(37)
        layer = Conv3DLayer(16, 16, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        x = Tensor(rng.standard_normal((4, 16, 4, 66, 66), dtype=np.float32), requires_grad=True)
        gy = Tensor(rng.standard_normal(x.shape, dtype=np.float32))
        with traced_peak() as peak:
            y = conv3d(x, layer)
            forward_peak = peak()
            loss = tensor_sum(mul(y, gy))
            peak()  # the backward's span starts here
            backward(loss)
            backward_peak = peak()
        assert x.grad is not None and layer.weight.grad is not None
        assert forward_peak <= 7 * x.data.nbytes
        assert backward_peak <= 7 * x.data.nbytes


class TestConv3DTransposed:
    def test_doubling_extents(self):
        rng = np.random.default_rng(0)
        layer = Conv3DLayer(2, 1, ConvSpec.upsample((True, True, True)), rng)
        out = conv3d_transposed(Tensor(rng.normal(size=(1, 2, 4, 3, 5))), layer)
        assert out.shape == (1, 1, 8, 6, 10)

    def test_identity(self):
        layer = Conv3DLayer(1, 1, ConvSpec((1, 1, 1), transposed=True),
                            weight=np.ones((1, 1, 1, 1, 1)), bias=np.zeros(1))
        x = np.random.default_rng(1).normal(size=(1, 1, 1, 2, 2)).astype(np.float32)
        out = conv3d_transposed(Tensor(x), layer)
        assert np.array_equal(out.data, x)

    def test_requires_transposed_spec(self):
        rng = np.random.default_rng(0)
        layer = Conv3DLayer(1, 1, ConvSpec((1, 1, 1)), rng)
        with pytest.raises(TensorError):
            conv3d_transposed(Tensor(np.zeros((1, 1, 1, 1, 1))), layer)
        layer_t = Conv3DLayer(1, 1, ConvSpec((1, 1, 1), transposed=True), rng)
        with pytest.raises(TensorError):
            conv3d(Tensor(np.zeros((1, 1, 1, 1, 1))), layer_t)

    def test_matches_scatter_oracle(self, wide):
        rng = np.random.default_rng(7)
        for _ in range(8):
            c_in, c_out = rng.integers(1, 4, size=2)
            kernel = tuple(rng.integers(1, 4, size=3))
            dilation = tuple(rng.integers(1, 3, size=3))
            stride = tuple(rng.integers(1, 3, size=3))
            eff = tuple(d * (k - 1) + 1 for k, d in zip(kernel, dilation))
            padding = tuple(int(rng.integers(0, (e - 1) // 2 + 1)) for e in eff)
            spec = ConvSpec(kernel, dilation, stride, padding, transposed=True)
            extents = tuple(rng.integers(1, 5, size=3))
            layer = Conv3DLayer(int(c_in), int(c_out), spec, rng)
            x = rng.normal(size=(2, int(c_in), *extents))
            got = conv3d_transposed(Tensor(x), layer).data
            want = naive_conv3d_transposed(x, layer.weight.data, layer.bias.data,
                                           stride, dilation, padding)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-6

    def test_gradients(self, wide):
        rng = np.random.default_rng(5)
        spec = ConvSpec((2, 2, 2), stride=(2, 2, 2), transposed=True)
        layer = Conv3DLayer(3, 2, spec, rng)
        x = Tensor(rng.normal(size=(1, 3, 2, 3, 3)))
        assert grad_check(lambda t: quad(conv3d_transposed(t, layer)), x).passed


# The second source of the two-source conv tests, and the first's extents
# beside it: its own, or one short on each of T, H and W
SECOND = (2, 1, 2, 3, 4)
FIRST_EXTENTS = {"equal": (2, 3, 4), "smaller": (1, 2, 3)}


def _oracle_with_gradients(x, w, b, spec, gy):
    """naive_conv3d of x (N, C, T, H, W), and its gradients for the output
    gradient gy, from the oracle alone: bias aside, it is linear in x and in
    w, so dx and dw are sums over the oracle of each unit input and of each
    one-tap weight."""
    args = (spec.stride, spec.dilation, spec.padding)
    units = np.eye(x[0].size).reshape(-1, *x.shape[1:])
    dx = np.einsum("kotuv,notuv->nk", naive_conv3d(units, w, np.zeros(len(w)), *args), gy)
    taps = np.eye(w[0].size).reshape(-1, *w.shape[1:])
    dw = np.einsum("nktuv,notuv->ok", naive_conv3d(x, taps, np.zeros(len(taps)), *args), gy)
    return (naive_conv3d(x, w, b, *args), dx.reshape(x.shape), dw.reshape(w.shape),
            gy.sum(axis=(0, 2, 3, 4)))


class TestConvSources:
    """conv3d of a tuple of sources reads them as one input: side by side
    along channels, each zero-extended at the high end of T, H and W to the
    last source's extents."""

    @pytest.mark.parametrize("mode", [precision.STANDARD, precision.WIDE])
    @pytest.mark.parametrize("first", sorted(FIRST_EXTENTS))
    @pytest.mark.parametrize("spec", [ConvSpec.same_size((1, 1, 1)), ConvSpec.same_size((1, 3, 3))],
                             ids=["1x1x1", "1x3x3"])
    def test_two_sources_are_the_padded_concatenation(self, spec, first, mode):
        with precision.use_precision(mode):
            rng = np.random.default_rng(60)
            a = Tensor(rng.normal(size=(2, 2, *FIRST_EXTENTS[first])), requires_grad=True)
            b = Tensor(rng.normal(size=SECOND), requires_grad=True)
            layer = Conv3DLayer(3, 2, spec, rng, bias=rng.normal(size=2))
            y = conv3d((a, b), layer)
            gy = Tensor(rng.normal(size=y.shape))
            backward(tensor_sum(mul(y, gy)))
        pad = [(0, 0), (0, 0)] + [(0, e - s) for s, e in zip(a.shape[2:], SECOND[2:])]
        joined = np.concatenate([np.pad(a.data, pad), b.data], axis=1)
        want_y, dx, dw, db = _oracle_with_gradients(
            *(v.astype(np.float64) for v in (joined, layer.weight.data, layer.bias.data)), spec,
            gy.data.astype(np.float64))
        t, h, w = a.shape[2:]
        pairs = [(y.data, want_y), (a.grad, dx[:, :2, :t, :h, :w]), (b.grad, dx[:, 2:]),
                 (layer.weight.grad, dw), (layer.bias.grad, db)]
        tol = 1e-12 if mode == precision.WIDE else 1e-5
        for got, want in pairs:
            assert got.dtype == y.dtype and got.shape == want.shape
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("first", [(3, 2, 3, 5, 6), (3, 2, 2, 5, 7), (2, 2, 2, 5, 6)],
                             ids=["longer_t", "wider", "fewer_samples"])
    def test_a_source_that_does_not_fit_is_refused(self, first):
        last = (3, 4, 2, 5, 6)
        layer = Conv3DLayer(6, 2, ConvSpec((1, 1, 1)), np.random.default_rng(0))
        with pytest.raises(TensorError) as err:
            conv3d((Tensor(np.ones(first)), Tensor(np.ones(last))), layer)
        assert str(err.value) == f"join: {first} does not fit beside {last}"


class TestMaxPool:
    def test_spatial_window_max(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 1, 2, 2))
        out = maxpool3d(x, (1, 2, 2))
        assert out.data.reshape(-1).tolist() == [4.0]

    def test_unit_kernel_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 2, 3, 3)).astype(np.float32)
        out = maxpool3d(Tensor(x), (1, 1, 1))
        assert np.array_equal(out.data, x)

    def test_floor_drops_trailing(self):
        x = Tensor(np.zeros((1, 1, 1, 63, 4)))
        assert maxpool3d(x, (1, 2, 2)).shape == (1, 1, 1, 31, 2)

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(TensorError):
            maxpool3d(Tensor(np.zeros((1, 1, 1, 2, 2))), (2, 2, 2))

    def test_tie_routes_to_first_in_scan_order(self, wide):
        # both pixels of the window hold the max; the gradient must go to
        # the first one in row-major order
        x = Tensor(np.array([5.0, 5.0]).reshape(1, 1, 1, 1, 2), requires_grad=True)
        backward(tensor_sum(maxpool3d(x, (1, 1, 2))))
        assert x.grad.reshape(-1).tolist() == [1.0, 0.0]

    def test_gradients(self, wide):
        rng = np.random.default_rng(11)
        x = Tensor(rng.permutation(np.arange(96.0)).reshape(1, 2, 2, 4, 6) * 0.25)
        assert grad_check(lambda t: quad(maxpool3d(t, (2, 2, 3))), x).passed


def pool_loops(x, gy, kernel):
    """Max pool by loops over every window: the output, and the input
    gradient that routes gy to each window's first maximum in row-major scan
    order (t, then h, then w); trailing elements get none."""
    kt, kh, kw = kernel
    n, c, t, h, w = x.shape
    y = np.zeros((n, c, t // kt, h // kh, w // kw), dtype=x.dtype)
    gx = np.zeros_like(x)
    for b, ch, i, j, k in np.ndindex(*y.shape):
        best = None
        for a, e, f in np.ndindex(kt, kh, kw):
            at = (b, ch, i * kt + a, j * kh + e, k * kw + f)
            if best is None or x[at] > x[best]:
                best = at
        y[b, ch, i, j, k] = x[best]
        gx[best] = gy[b, ch, i, j, k]
    return y, gx


class TestMaxPoolLayout:
    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_layout_input_against_loops(self, mode):
        def in_layout(a):  # an (N, C, T, H, W) view of (T, H, N, W, C) memory
            return a.transpose(2, 3, 0, 4, 1).flags.c_contiguous

        rng = np.random.default_rng(21)
        # odd extents: T, H and W each leave a trailing slice outside the windows
        v = rng.integers(-4, 3, size=(2, 3, 5, 7, 5)).astype(float)
        v[0, 0, 0:2, 0:2, 0:2] = [[[9, 1], [2, 3]], [[9, 0], [1, 2]]]  # tie along t
        v[0, 1, 0:2, 0:2, 0:2] = [[[1, 2], [9, 0]], [[9, 3], [0, 9]]]  # ties along h, then t
        v[1, 0, 0:2, 2:4, 2:4] = [[[0, 9], [9, 9]], [[1, 2], [3, 9]]]  # ties along w, h, t
        v[1, 2, 2:4, 2:4, 0:2] = -1  # all zero after the relu
        v = np.maximum(v, 0)  # as after a relu: many all-zero windows
        with precision.use_precision(mode):
            x = Tensor(_from_layout(_to_layout(v)), requires_grad=True)
            gy = Tensor(rng.normal(size=(2, 3, 2, 3, 2)))
            y = maxpool3d(x, (2, 2, 2))
            backward(tensor_sum(mul(y, gy)))
        want_y, want_gx = pool_loops(x.data, gy.data, (2, 2, 2))
        windows = v[:, :, :4, :6, :4].reshape(2, 3, 2, 2, 3, 2, 2, 2)
        assert np.any(np.all(windows == 0, axis=(3, 5, 7)))
        assert in_layout(x.data) and in_layout(y.data) and in_layout(x.grad)
        assert np.array_equal(y.data, want_y)
        assert np.array_equal(x.grad, want_gx)
        assert not x.grad[:, :, 4:].any() and not x.grad[:, :, :, 6:].any()
        assert not x.grad[..., 4:].any()


class TestGroupNorm:
    def test_constant_input_gives_zero(self):
        layer = GroupNormLayer(4, 2)
        out = group_norm(Tensor(np.full((2, 4, 1, 3, 3), 7.0)), layer)
        assert np.allclose(out.data, 0.0)

    def test_affine_override(self):
        layer = GroupNormLayer(4, 2)
        layer.gamma = Tensor(np.zeros(4), requires_grad=True)
        layer.beta = Tensor(np.full(4, 7.0), requires_grad=True)
        out = group_norm(Tensor(np.random.default_rng(0).normal(size=(1, 4, 2, 2, 2))), layer)
        assert np.allclose(out.data, 7.0)

    def test_statistics_oracle(self, wide):
        rng = np.random.default_rng(9)
        layer = GroupNormLayer(6, 3)
        x = rng.normal(size=(2, 6, 2, 4, 4))
        out = group_norm(Tensor(x), layer).data
        grouped = out.reshape(2, 3, -1)
        assert np.abs(grouped.mean(axis=2)).max() < 1e-6
        # variance sits at 1 up to the eps guard
        assert np.abs(grouped.var(axis=2) - 1.0).max() < 2 * GROUP_NORM_EPS

    def test_divisibility_enforced(self):
        with pytest.raises(TensorError):
            GroupNormLayer(6, 4)

    def test_backward_holds_two_maps_beside_gy(self, traced_peak):
        # a stage-1 map of the default model at N=4: the backward builds the
        # x̂ term in the centred input's buffer and dx in gy * d's, so it
        # holds two maps beside gy, where a third buffer for dx made three
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((4, 16, 4, 66, 66), dtype=np.float32), requires_grad=True)
        y = group_norm(x, GroupNormLayer(16, 8))
        gy = _from_layout(rng.standard_normal((4, 66, 4, 66, 16), dtype=np.float32))
        with traced_peak() as peak:
            dx = y.node.apply(gy)[0]
            assert peak() <= 2 * x.data.nbytes + (1 << 16)
        assert dx.shape == x.shape

    @pytest.mark.parametrize("shape,groups", [
        ((2, 16, 2, 3, 5), 8),    # two channels per group, odd W
        ((4, 256, 1, 4, 4), 8),   # a single-frame deep stage
        ((3, 6, 3, 4, 7), 3),
    ])
    @pytest.mark.parametrize("memory", ["c_order", "layout"])
    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_matches_oracle(self, shape, groups, memory, mode):
        rng = np.random.default_rng(14)
        x = rng.normal(1.5, 2.0, size=shape)
        gy = rng.normal(size=shape)
        gamma, beta = rng.normal(size=shape[1]), rng.normal(size=shape[1])
        want = naive_group_norm(x, gamma, beta, groups, 1e-5, gy)
        if memory == "layout":  # the same values in the conv layout's memory
            x, gy = (_from_layout(np.ascontiguousarray(a.transpose(2, 3, 0, 4, 1))) for a in (x, gy))
        with precision.use_precision(mode):
            layer = GroupNormLayer(shape[1], groups, gamma=gamma, beta=beta)
            xt = Tensor(x, requires_grad=True)
            backward(tensor_sum(mul(group_norm(xt, layer), Tensor(gy))))
            got = (group_norm(Tensor(x), layer).data, xt.grad, layer.gamma.grad, layer.beta.grad)
        tol = 1e-11 if mode == "wide" else 2e-5
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= tol * np.abs(w).max()

    def test_gradients(self, wide):
        rng = np.random.default_rng(13)
        layer = GroupNormLayer(4, 2)
        layer.gamma = Tensor(rng.normal(size=4), requires_grad=True)
        layer.beta = Tensor(rng.normal(size=4), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4, 2, 3, 3)))
        assert grad_check(lambda t: quad(group_norm(t, layer)), x).passed


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(5, 9), st.integers(5, 9))
def test_same_size_specs_preserve_extents(c, t, h, w):
    rng = np.random.default_rng(17)
    for spec in (ConvSpec.same_size((1, 3, 3)),
                 ConvSpec.same_size((1, 7, 7), (1, 3, 3)),
                 ConvSpec.same_size((3, 1, 1))):
        layer = Conv3DLayer(c, c, spec, rng)
        out = conv3d(Tensor(rng.normal(size=(1, c, t, h, w)).astype(np.float32)), layer)
        assert out.shape == (1, c, t, h, w)


def test_weight_init_is_seeded_and_bounded():
    spec = ConvSpec((1, 3, 3))
    a = Conv3DLayer(4, 4, spec, np.random.default_rng(21))
    b = Conv3DLayer(4, 4, spec, np.random.default_rng(21))
    assert np.array_equal(a.weight.data, b.weight.data)
    bound = np.sqrt(1.0 / (4 * 9))
    assert np.abs(a.weight.data).max() <= bound
    assert np.array_equal(a.bias.data, np.zeros(4))


class TestWeightLayout:
    @pytest.mark.parametrize("given", ["c_order", "tap_major", "list"])
    def test_explicit_weight_is_held_tap_major(self, given):
        rng = np.random.default_rng(51)
        w = rng.normal(size=(3, 2, 1, 3, 3)).astype(np.float32)
        held = Conv3DLayer(2, 3, ConvSpec((1, 3, 3)), weight=w).weight.data
        arg = {"c_order": w, "tap_major": held, "list": w.tolist()}[given]
        layer = Conv3DLayer(2, 3, ConvSpec((1, 3, 3)), weight=arg)
        assert is_tap_major(layer.weight.data)
        if isinstance(arg, np.ndarray):
            assert not np.shares_memory(layer.weight.data, arg)
        assert np.array_equal(layer.weight.data, w)

    def test_c_order_round_trip(self):
        rng = np.random.default_rng(52)
        # a weight matrix taller and one wider than the copy tile
        for shape in ((300, 20, 1, 7, 7), (2, 3, 3, 1, 1), (1, 1, 1, 1, 1)):
            w = rng.normal(size=shape)
            held = Conv3DLayer(shape[1], shape[0], ConvSpec(shape[2:]), weight=w).weight.data
            back = np.concatenate([piece.copy() for piece in c_order_pieces(held)])
            assert back.dtype == np.float32
            assert np.array_equal(back, w.astype(np.float32).reshape(-1))

    def test_input_gradient_stacks_weight_taps_as_views(self):
        # the input gradient's stacked live W taps are a view of the
        # tap-major weight; the forward's are a copy of the same values
        rng = np.random.default_rng(53)
        spec = ConvSpec.same_size((1, 7, 7), (1, 3, 3))
        w = Conv3DLayer(3, 4, spec, rng).weight.data
        taps = [_axis_taps(n, n, k, 1, d, p) for n, k, d, p
                in zip((2, 5, 5), spec.kernel, spec.dilation, spec.padding)]
        for contract in (0, 1):
            stacked = _stacked_weights(w, *taps, contract)
            assert stacked.shape == (1, 3, 3 * w.shape[contract], w.shape[1 - contract])
            assert np.shares_memory(stacked, w) == (contract == 0)
            for k, h in enumerate(range(2, 5)):
                for i, e in enumerate(range(2, 5)):
                    tap = w[:, :, 0, h, e] if contract == 0 else w[:, :, 0, h, e].T
                    rows = slice(i * tap.shape[0], (i + 1) * tap.shape[0])
                    assert np.array_equal(stacked[0, k, rows], tap)


class TestLayoutResidency:
    """Activations stay in the (T, H, N, W, C) memory the conv cores write."""

    @staticmethod
    def is_layout(a):
        return a.transpose(2, 3, 0, 4, 1).flags.c_contiguous

    def test_ts_block_keeps_its_activations_in_the_layout(self, monkeypatch):
        # a stage-1-like TS block, forward and backward: every conv and group
        # norm output and input gradient is a layout view, and the only
        # layout copy made is of the block's input, in the forward (the proj
        # weight gradient reuses it), never of what an op of the block produced
        ops = []
        op = layers._op
        monkeypatch.setattr(layers, "_op", lambda data, inputs, *a, **k: ops.append(
            (inputs[0], op(data, inputs, *a, **k))) or ops[-1][1])
        copied = []

        def counting(a):
            out = _to_layout(a)
            if not np.shares_memory(out, a):
                copied.append(a)
            return out
        monkeypatch.setattr(layers, "_to_layout", counting)
        rng = np.random.default_rng(41)
        block = TSBlock(9, 16, rng)
        x = Tensor(rng.standard_normal((2, 9, 4, 22, 22), dtype=np.float32), requires_grad=True)
        y = block(x)
        assert len(ops) == 6 and len(copied) == 1
        conv_out = ops[0][1].data
        assert np.shares_memory(_to_layout(conv_out), conv_out)
        backward(quad(y))
        assert len(copied) == 1 and copied[0] is x.data
        for inp, out in ops:
            assert self.is_layout(out.data) and self.is_layout(inp.grad)


def _layout_input(rng, shape):
    """A (N, C, T, H, W) leaf whose memory is the layout."""
    return Tensor(_from_layout(np.ascontiguousarray(
        rng.standard_normal(shape).transpose(2, 3, 0, 4, 1))), requires_grad=True)


# Each op mean_axis may be given, as a function of a (2, 8, 4, 6, 6) input
_UNDER_MEAN = {
    "group_norm": lambda x, rng: group_norm(x, GroupNormLayer(8, 4)),
    "relu": lambda x, rng: relu(x),
    "maxpool3d": lambda x, rng: maxpool3d(x, (1, 2, 2)),
    "mul": lambda x, rng: mul(x, Tensor(rng.standard_normal(x.shape))),
}


class TestMeanGradient:
    """mean_axis's gradient is one frame repeated over the mean's axis, a
    read-only broadcast view: what reads it gets the bytes it would get
    from the same values filled into memory, and writes nothing into it."""

    @staticmethod
    def gradients(y, rng):
        """The gradient mean_axis hands ``y`` for a random gradient of its
        output, and the same values filled into ``y``'s memory order."""
        mean = mean_axis(y, 2)
        view = mean.node.apply(rng.standard_normal(mean.shape).astype(y.dtype))[0]
        filled = np.empty_like(y.data)
        filled[...] = view
        return view, filled

    @pytest.mark.parametrize("mode", [precision.STANDARD, precision.WIDE])
    def test_head_conv_reads_the_view_as_it_is(self, mode):
        # the head: a 1x1x1 conv from 16 to 32 channels under the mean over T.
        # Its frames are read in place, and dx, dw and the bias gradient
        # have the bytes the filled gradient gives
        with precision.use_precision(mode):
            rng = np.random.default_rng(50)
            conv = Conv3DLayer(16, 32, ConvSpec.same_size((1, 1, 1)), rng)
            y = conv3d(_layout_input(rng, (2, 16, 4, 10, 10)), conv)
            view, filled = self.gradients(y, rng)
            assert view.strides[2] == 0 and np.shares_memory(_to_layout(view), view)
            got, want = y.node.apply(view), y.node.apply(filled)
            discard_tape()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("op", sorted(_UNDER_MEAN))
    def test_ops_give_the_filled_gradients_bytes(self, op):
        rng = np.random.default_rng(51)
        y = _UNDER_MEAN[op](_layout_input(rng, (2, 8, 4, 6, 6)), rng)
        view, filled = self.gradients(y, rng)
        assert view.strides[2] == 0 and not view.flags.writeable
        got, want = y.node.apply(view)[0], y.node.apply(filled)[0]
        discard_tape()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _owner(a):
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


# For each op output that no backward reads: how the op makes it from a
# (2, 8, 2, 6, 6) input, and what consumes it in the model
_UNREAD = {
    "group_norm under relu": (lambda x, rng: group_norm(x, GroupNormLayer(8, 4)), relu),
    "conv under mean_axis": (
        lambda x, rng: conv3d(x, Conv3DLayer(8, 32, ConvSpec.same_size((1, 1, 1)), rng)),
        lambda y: mean_axis(y, 2)),
}


@pytest.mark.usefixtures("no_cyclic_gc")
class TestTapeRelease:
    """The tape keeps only what a backward reads: an activation that no
    gradient reads is freed as soon as the caller drops it, before backward,
    by reference counting alone."""

    @pytest.mark.parametrize("case", sorted(_UNREAD))
    def test_unread_output_freed_before_backward(self, case):
        make, consume = _UNREAD[case]
        rng = np.random.default_rng(43)
        x = Tensor(rng.standard_normal((2, 8, 2, 6, 6), dtype=np.float32), requires_grad=True)
        y = make(x, rng)
        freed = weakref.ref(_owner(y.data))
        z = consume(y)
        del y
        assert freed() is None
        backward(quad(z))
        assert x.grad is not None and z.grad is not None

    def test_held_activation_gets_the_gradient_a_leaf_gets(self):
        # the group norm output is dropped, the relu output held: it gets the
        # bytes that a leaf holding the same values gets from the same loss
        rng = np.random.default_rng(44)
        conv = Conv3DLayer(8, 8, ConvSpec.same_size((1, 3, 3)), rng)
        norm = GroupNormLayer(8, 4)
        x = Tensor(rng.standard_normal((2, 8, 2, 6, 6), dtype=np.float32), requires_grad=True)
        g = group_norm(x, norm)
        freed = weakref.ref(_owner(g.data))
        h = relu(g)
        del g
        loss = quad(conv3d(h, conv))
        assert freed() is None
        backward(loss)
        leaf = Tensor(h.data, requires_grad=True)
        backward(quad(conv3d(leaf, conv)))
        assert h.grad.dtype == leaf.grad.dtype and h.grad.tobytes() == leaf.grad.tobytes()

    @pytest.mark.parametrize("mode", [precision.STANDARD, precision.WIDE])
    @pytest.mark.parametrize("reader", ["conv", "maxpool", "second conv source"])
    def test_reader_of_a_relu_output_reads_its_rebuilt_map(self, mode, reader):
        # the relu output of a group norm is rebuilt in the backward from
        # what the norm keeps: with the forward's array zeroed, a conv's
        # weight and input gradients and a max pool's input gradient still
        # have the bytes a leaf holding the forward's values gets. As a
        # conv's second source it is a decoder stage's skip, read beside a
        # smaller upsampled map
        with precision.use_precision(mode):
            rng = np.random.default_rng(47)
            conv = Conv3DLayer(8, 8, ConvSpec.same_size((1, 3, 3)), rng)
            other = np.random.default_rng(48)
            proj = Conv3DLayer(12, 8, ConvSpec.same_size((1, 1, 1)), other)
            up = Tensor(other.standard_normal((2, 4, 1, 5, 5)), requires_grad=True)
            read, layer = {"conv": (lambda t: conv3d(t, conv), conv),
                           "maxpool": (lambda t: maxpool3d(t, (2, 2, 2)), None),
                           "second conv source": (lambda t: conv3d((up, t), proj), proj)}[reader]
            x = Tensor(rng.standard_normal((2, 8, 2, 6, 6)), requires_grad=True)
            h = relu(group_norm(x, GroupNormLayer(8, 4)))
            values = h.data.copy(order="K")
            loss = quad(read(h))
            h.data[...] = 0
            backward(loss)
            got = [h.grad] + ([] if layer is None else [layer.weight.grad])
            if layer is not None:
                layer.weight.zero_grad()
            leaf = Tensor(values, requires_grad=True)
            backward(quad(read(leaf)))
            want = [leaf.grad] + ([] if layer is None else [layer.weight.grad])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_discard_tape_frees_a_rebuilt_map_whose_relu_never_ran_backward(self, monkeypatch):
        # the conv's backward rebuilds the relu output; a backward stopped
        # right after it (an on_grad that raises) has freed that map already,
        # before the tape is dropped: no recompute keeps what it rebuilt
        rebuilt = []
        saved = layers._saved

        def tracked(t, data):
            read = saved(t, data)

            def again():
                a = read()
                rebuilt.append(weakref.ref(_owner(a)))
                return a
            return again
        monkeypatch.setattr(layers, "_saved", tracked)
        rng = np.random.default_rng(48)
        conv = Conv3DLayer(8, 8, ConvSpec.same_size((1, 3, 3)), rng)
        x = Tensor(rng.standard_normal((2, 8, 2, 6, 6), dtype=np.float32), requires_grad=True)
        h = relu(group_norm(x, GroupNormLayer(8, 4)))
        loss = quad(conv3d(h, conv))

        def stop(t):
            if t is conv.weight:
                raise RuntimeError("stopped")
        with pytest.raises(RuntimeError, match="stopped"):
            backward(loss, on_grad=stop)
        assert len(rebuilt) == 1 and rebuilt[0]() is None
        discard_tape()
        assert h.node is not None and h.node.recompute is None

    def test_ts_block_holding_its_output_keeps_six_maps(self, traced_peak):
        # the two relu outputs are not kept: the spatial conv keeps group
        # norm's recompute for the first, and the second is the output the
        # caller holds. The block leaves the layout copy of its input and
        # the four conv outputs, beside that output: 6 maps
        rng = np.random.default_rng(46)
        block = TSBlock(16, 16, rng)
        x = Tensor(rng.standard_normal((2, 16, 4, 22, 22), dtype=np.float32), requires_grad=True)
        with traced_peak():
            before = tracemalloc.get_traced_memory()[0]
            y = block(x)
            held = tracemalloc.get_traced_memory()[0] - before
        assert held <= 6 * x.data.nbytes + (1 << 16)
        backward(quad(y))
        assert x.grad is not None

    def test_ts_block_tape_holds_the_maps_its_backward_reads(self, traced_peak):
        # after the forward, the block holds what its backward reads: the
        # layout copy of its input and the four conv outputs, 5 maps, plus
        # per-(n, c) terms; the block's output, a relu output the tape does
        # not keep, is the 6th map, held here by y. Keeping the two relu
        # outputs on the tape made 7, and with the group norm outputs under
        # them and group norm's centred copies, 11.
        rng = np.random.default_rng(45)
        block = TSBlock(16, 16, rng)
        x = Tensor(rng.standard_normal((2, 16, 4, 22, 22), dtype=np.float32), requires_grad=True)
        with traced_peak():
            before = tracemalloc.get_traced_memory()[0]
            y = block(x)
            held = tracemalloc.get_traced_memory()[0] - before
        assert held <= 7 * x.data.nbytes + (1 << 16)
        backward(quad(y))
        assert x.grad is not None
