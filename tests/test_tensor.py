import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainunet.tensor import (AutodiffError, NonFiniteError, Tensor,
                             TensorError, active_graph, add, backward, crop,
                             concat, grad_check, mean_axis, no_grad, relu,
                             reshape, scale, sigmoid, tensor_mean, tensor_new,
                             tensor_sum, zero_pad)


class TestTensorNew:
    def test_zero_fill(self):
        t = tensor_new([2, 3], 0.0)
        assert t.shape == (2, 3)
        assert not t.requires_grad and t.grad is None
        assert np.array_equal(t.data, np.zeros((2, 3)))

    def test_buffer_fill(self):
        t = tensor_new([1], [5.0])
        assert t.data.reshape(-1).tolist() == [5.0]

    def test_buffer_length_mismatch(self):
        with pytest.raises(TensorError):
            tensor_new([2, 2], [1.0, 2.0, 3.0])

    def test_bad_extents(self):
        with pytest.raises(TensorError):
            tensor_new([2, 0], 1.0)
        with pytest.raises(TensorError):
            tensor_new([], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NonFiniteError):
            tensor_new([2], [np.nan, 0.0])


class TestElementwise:
    def test_relu(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Tensor(np.array([0.0]))).data.tolist() == [0.5]

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.all(np.isfinite(out.data))

    def test_add(self):
        out = add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0])))
        assert out.data.tolist() == [4.0, 6.0]

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            Tensor(np.ones(3)) + Tensor(np.ones(4))

    def test_scalar_operand(self):
        assert (Tensor(np.array([1.0, 2.0])) * 2.0).data.tolist() == [2.0, 4.0]
        assert scale(Tensor(np.array([3.0])), -1.0).data.tolist() == [-3.0]


class TestReduce:
    def test_sum(self):
        assert tensor_sum(Tensor(np.array([1.0, 2.0, 3.0]))).item() == 6.0

    def test_mean(self):
        assert tensor_mean(Tensor(np.array([2.0, 4.0]))).item() == 3.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_mean_is_sum_over_size(self, values):
        # exact identity in wide precision: mean literally computes sum/size
        from rainunet import precision
        with precision.use_precision("wide"):
            t = Tensor(np.array(values))
            assert tensor_mean(t).item() == tensor_sum(t).item() / len(values)


class TestBackward:
    def test_sum_gives_ones(self, wide):
        x = Tensor(np.zeros(3), requires_grad=True)
        backward(tensor_sum(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_quadratic(self, wide):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(tensor_sum(x * x))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_fan_in_linearity(self, wide):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        backward(tensor_sum(a + b))
        assert a.grad.tolist() == b.grad.tolist() == [1.0, 1.0]

    def test_fan_out_accumulates(self, wide):
        x = Tensor(np.array([1.0]), requires_grad=True)
        backward(tensor_sum(x + x))
        assert x.grad.tolist() == [2.0]

    def test_leaf_grads_accumulate_until_zeroed(self, wide):
        x = Tensor(np.array([1.0]), requires_grad=True)
        backward(tensor_sum(x * x))
        backward(tensor_sum(x * x))
        assert x.grad.tolist() == [4.0]
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutodiffError):
            backward(x + x)

    def test_detached_loss_rejected(self):
        with pytest.raises(AutodiffError):
            backward(Tensor(np.array([1.0]), requires_grad=True))
        with no_grad():
            y = tensor_sum(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(AutodiffError):
            backward(y)

    def test_backward_twice_is_an_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = tensor_sum(x)
        backward(y)
        with pytest.raises(AutodiffError):
            backward(y)


class TestTapeRelease:
    def test_intermediate_arrays_freed_without_cyclic_gc(self, wide):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            x = Tensor(np.arange(4.0), requires_grad=True)
            h = relu(x * 2.0)
            freed = weakref.ref(h.data)
            loss = tensor_sum(h * h)
            backward(loss)
            with pytest.raises(AutodiffError):
                backward(loss)
            del h, loss
            assert freed() is None
            assert x.grad.tolist() == [0.0, 8.0, 16.0, 24.0]
        finally:
            if was_enabled:
                gc.enable()


class TestGraph:
    def test_creation_order_is_topological(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        z = y + x
        loss = tensor_sum(z)
        graph = active_graph()
        pos = {id(node.out): i for i, node in enumerate(graph.nodes)}
        for i, node in enumerate(graph.nodes):
            for inp in node.inputs:
                if id(inp) in pos:
                    assert pos[id(inp)] < i
        backward(loss)

    def test_backward_visits_each_node_once(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = (x * 2.0) + (x * 3.0)
        loss = tensor_sum(z * z)
        graph = active_graph()
        calls = {i: 0 for i in range(len(graph.nodes))}
        for i, node in enumerate(graph.nodes):
            node.apply = (lambda f, k: lambda: (calls.__setitem__(k, calls[k] + 1), f()))(node.apply, i)
        backward(loss)
        assert all(c == 1 for c in calls.values())


class TestShapeOps:
    def test_reshape_backward(self, wide):
        x = Tensor(np.arange(6.0), requires_grad=True)
        y = reshape(x, (2, 3))
        backward(tensor_sum(y * y))
        assert np.array_equal(x.grad, 2 * np.arange(6.0))

    def test_concat_and_crop_roundtrip(self, wide):
        a = Tensor(np.ones((1, 2, 2)), requires_grad=True)
        b = Tensor(np.full((1, 3, 2), 2.0), requires_grad=True)
        joined = concat([a, b], axis=1)
        assert joined.shape == (1, 5, 2)
        part = crop(joined, [(0, 1), (2, 5), (0, 2)])
        backward(tensor_sum(part))
        assert np.array_equal(a.grad, np.zeros((1, 2, 2)))
        assert np.array_equal(b.grad, np.ones((1, 3, 2)))

    def test_zero_pad_backward(self, wide):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = zero_pad(x, [(1, 0), (0, 3)])
        assert y.shape == (3, 5)
        backward(tensor_sum(y * y))
        assert np.array_equal(x.grad, 2 * np.ones((2, 2)))

    def test_mean_axis(self, wide):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
        y = mean_axis(x, 1)
        assert y.shape == (2, 2)
        assert np.allclose(y.data, x.data.mean(axis=1))
        backward(tensor_sum(y))
        assert np.allclose(x.grad, np.full((2, 3, 2), 1 / 3))

    def test_crop_bounds_checked(self):
        with pytest.raises(TensorError):
            crop(Tensor(np.ones((2, 2))), [(0, 3), (0, 2)])


class TestGradCheck:
    def test_linear_function_is_exact(self, wide):
        # integer coordinates and a power-of-two step keep every sum exact,
        # so the central difference reproduces the gradient bit for bit
        rep = grad_check(tensor_sum, Tensor(np.array([3.0, -2.0, 7.0, 0.0])), eps=0.5)
        assert rep.passed and rep.max_rel_error == 0.0

    def test_relu_away_from_kinks(self, wide):
        x = Tensor(np.array([0.5, -1.2, 3.0, -0.4]))
        rep = grad_check(lambda t: tensor_sum(relu(t)), x, tol=1e-4)
        assert rep.passed

    def test_relu_at_kink_fails(self, wide):
        # x = 0 sits on the non-differentiable point: central difference sees
        # slope 1/2 while the backward rule reports 0
        x = Tensor(np.array([0.0, 1.0]))
        rep = grad_check(lambda t: tensor_sum(relu(t)), x, tol=1e-4)
        assert not rep.passed

    def test_nondeterministic_f_detected(self, wide):
        state = {"calls": 0}

        def f(t):
            state["calls"] += 1
            return tensor_sum(t * float(state["calls"]))

        with pytest.raises(AutodiffError):
            grad_check(f, Tensor(np.ones(2)))

    def test_eps_must_be_positive(self, wide):
        with pytest.raises(TensorError):
            grad_check(tensor_sum, Tensor(np.ones(2)), eps=0.0)

    def test_coordinate_sampling(self, wide):
        x = Tensor(np.random.default_rng(1).normal(size=50))
        rep = grad_check(lambda t: tensor_sum(t * t), x, max_coords=10, seed=4)
        assert rep.passed and rep.coords_checked == 10

    def test_report_invariant(self, wide):
        x = Tensor(np.random.default_rng(2).normal(size=5))
        rep = grad_check(lambda t: tensor_sum(t * t), x, tol=1e-4)
        assert rep.passed == (rep.max_rel_error <= rep.tolerance)

    def test_near_zero_coordinate_beside_large_f_passes(self, wide):
        # f = 1e6, so the central difference at the second coordinate carries
        # ~1e-5 of roundoff against a true derivative of 2e-9; a purely
        # relative error would fail a correct gradient here
        x = Tensor(np.array([1e3, 1e-9]))
        rep = grad_check(lambda t: tensor_sum(t * t), x, tol=1e-4)
        assert rep.passed

    @pytest.mark.parametrize("k", [1e-2, 1e-5])
    def test_error_far_below_gradient_scale_still_fails(self, wide, k):
        # f = t0^2 + k relu(t1) at t = (1, 0): ||g||_inf = 2, and the kink at
        # t1 = 0 puts an error of k/2 on the second coordinate (backward
        # reports 0, the central difference k/2): 400x and 4e5x below ||g||_inf
        square_w = Tensor(np.array([1.0, 0.0]))
        relu_w = Tensor(np.array([0.0, k]))
        x = Tensor(np.array([1.0, 0.0]))
        rep = grad_check(lambda t: tensor_sum(t * t * square_w) + tensor_sum(relu(t) * relu_w),
                         x, tol=1e-4)
        assert not rep.passed and rep.worst_index == (1,)

    def test_constant_function_has_zero_error(self, wide):
        rep = grad_check(lambda t: tensor_sum(t * 0.0), Tensor(np.array([2.0, -3.0])))
        assert rep.passed and rep.max_rel_error == 0.0


class TestNoGrad:
    def test_no_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y.node is None and not y.requires_grad
