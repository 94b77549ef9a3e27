import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_conv3d, naive_conv3d_transposed
from rainunet.layers import (Conv3DLayer, ConvSpec, GroupNormLayer, conv3d,
                             conv3d_transposed, group_norm, maxpool3d)
from rainunet.tensor import Tensor, TensorError, backward, grad_check, tensor_sum


def quad(y):
    return tensor_sum(y * y)


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

    def test_channel_mismatch(self):
        layer = Conv3DLayer(2, 1, ConvSpec((1, 1, 1)), np.random.default_rng(0))
        with pytest.raises(TensorError):
            conv3d(Tensor(np.zeros((1, 3, 1, 2, 2))), layer)

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


class TestConvTapGeometry:
    @pytest.mark.parametrize("spec,extents", SMALL_MAP_CASES)
    def test_small_maps_match_loop_oracle(self, wide, spec, extents):
        rng = np.random.default_rng(19)
        layer = Conv3DLayer(2, 3, spec, rng, bias=rng.normal(size=3))
        x = rng.normal(size=(2, 2, *extents))
        got = conv3d(Tensor(x), layer).data
        want = naive_conv3d(x, layer.weight.data, layer.bias.data,
                            spec.stride, spec.dilation, spec.padding)
        assert got.shape == want.shape == (2, 3, *extents)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("spec,extents", SMALL_MAP_CASES + STRIDED_CASES)
    def test_adjoint_identities(self, wide, spec, extents):
        # with bias 0 the conv is linear in x and in w, so
        # <conv(x), gy> = <x, dx> = <w, dw> for the gradients of that product
        rng = np.random.default_rng(29)
        layer = Conv3DLayer(3, 2, spec, rng)
        x = Tensor(rng.normal(size=(2, 3, *extents)), requires_grad=True)
        y = layer(x)
        gy = Tensor(rng.normal(size=y.shape))
        loss = tensor_sum(y * gy)
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
        assert np.abs(grouped.var(axis=2) - 1.0).max() < 2 * layer.eps

    def test_divisibility_enforced(self):
        with pytest.raises(TensorError):
            GroupNormLayer(6, 4)

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
