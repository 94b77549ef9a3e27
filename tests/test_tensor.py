import gc
import weakref

import numpy as np
import pytest

from rainunet import precision
from rainunet.layers import _from_layout, _to_layout
from rainunet.tensor import (AutodiffError, NonFiniteError, Tensor,
                             TensorError, _op, active_graph, backward,
                             grad_check, mean_axis, mul, no_grad, relu,
                             sigmoid, tensor_sum)


def plus(a, b):
    """``a + b`` as one node that hands the same gy array to both inputs."""
    return _op(a.data + b.data, (a, b), lambda gy: (gy, gy))


def times(a, k):
    """``a`` times the constant ``k``, through ``mul``."""
    return mul(a, Tensor(np.full(a.shape, k)))


class TestTensorNew:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))

    def test_non_finite_op_output_names_the_op_and_shape(self):
        # float32 3e38 * 10 overflows to Inf in mul's output
        x = Tensor(np.full((2, 3), 3e38), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
            times(x, 10.0)
        assert str(err.value) == "op mul: output of shape (2, 3) holds NaN or Inf"
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match=r"^op tensor_sum: .*\(\)"):
            tensor_sum(x)


class TestElementwise:
    def test_relu(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Tensor(np.array([0.0]))).data.tolist() == [0.5]

    def test_sigmoid_saturation_is_finite(self):
        out = sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_is_the_piecewise_formula_bitwise(self, dtype):
        from rainunet import precision

        def piecewise(x):
            s = np.empty_like(x)
            pos = x >= 0
            s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            s[~pos] = ex / (1.0 + ex)
            return s

        # exp(-|x|) leaves the normal range near 87.3 (float32) and 708.4
        # (float64), and reaches 0 near 103.97 and 745.13
        edges = np.array([87.3, 103.9, 104.0, 708.3, 708.4, 745.1, 745.2], dtype=dtype)
        edges = np.concatenate([edges, np.nextafter(edges, dtype(0)), np.nextafter(edges, dtype(np.inf))])
        grid = np.concatenate([np.linspace(-1e4, 1e4, 4001, dtype=dtype), edges, -edges,
                               np.geomspace(1e-8, 1e4, 301, dtype=dtype),
                               -np.geomspace(1e-8, 1e4, 301, dtype=dtype),
                               np.array([0.0, -0.0], dtype=dtype)])
        with precision.use_precision("standard" if dtype == np.float32 else "wide"), \
                np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(Tensor(grid)).data
            want = piecewise(grid)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_relu_keeps_a_layout_input_in_the_layout(self):
        from rainunet.layers import _from_layout

        def in_layout(a):  # an (N, C, T, H, W) view of (T, H, N, W, C) memory
            return a.transpose(2, 3, 0, 4, 1).flags.c_contiguous

        rng = np.random.default_rng(4)
        x = Tensor(_from_layout(rng.normal(size=(3, 5, 2, 4, 6))), requires_grad=True)
        gy = Tensor(_from_layout(rng.normal(size=(3, 5, 2, 4, 6))))
        y = relu(x)
        backward(tensor_sum(mul(y, gy)))
        assert in_layout(y.data) and in_layout(x.grad)
        assert np.array_equal(y.data, np.where(x.data > 0, x.data, 0))
        assert np.array_equal(x.grad, np.where(x.data > 0, gy.data, 0))

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            mul(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_scalar_operand(self):
        # mul takes two tensors: a scalar or an array is a TensorError
        for other in (2.0, np.float32(2.0), np.ones(2)):
            with pytest.raises(TensorError, match="mul: expected a Tensor"):
                mul(Tensor(np.array([1.0, 2.0])), other)


class TestReduce:
    def test_sum(self):
        assert tensor_sum(Tensor(np.array([1.0, 2.0, 3.0]))).item() == 6.0


class TestBackward:
    def test_sum_gives_ones(self, wide):
        x = Tensor(np.zeros(3), requires_grad=True)
        backward(tensor_sum(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_quadratic(self, wide):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_fan_in_linearity(self, wide):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        backward(tensor_sum(plus(a, b)))
        assert a.grad.tolist() == b.grad.tolist() == [1.0, 1.0]

    def test_fan_out_accumulates(self, wide):
        x = Tensor(np.array([1.0]), requires_grad=True)
        backward(tensor_sum(plus(x, x)))
        assert x.grad.tolist() == [2.0]

    def test_shared_gradient_is_not_changed_through_an_alias(self, wide):
        # plus hands one gy array to a and b; a's later gradient from p must
        # not be added into that array, or b's gradient changes with a's.
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        p = times(a, 3.0)
        y = plus(a, b)
        backward(plus(tensor_sum(y), tensor_sum(p)))
        assert a.grad.tolist() == [4.0, 4.0]
        assert b.grad.tolist() == [1.0, 1.0]

    def test_gradient_of_wrong_shape_or_dtype_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        for bad in (lambda gy: (np.ones(4, dtype=x.data.dtype),),
                    lambda gy: (np.ones(3, dtype=np.float16),)):
            y = _op(x.data * 2.0, (x,), bad)
            with pytest.raises(AutodiffError):
                backward(tensor_sum(y))

    def test_leaf_grads_accumulate_until_zeroed(self, wide):
        x = Tensor(np.array([1.0]), requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        backward(tensor_sum(mul(x, x)))
        assert x.grad.tolist() == [4.0]
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutodiffError):
            backward(mul(x, x))

    def test_detached_loss_rejected(self):
        with pytest.raises(AutodiffError):
            backward(Tensor(np.array([1.0]), requires_grad=True))
        with no_grad():
            y = tensor_sum(Tensor(np.ones(2), requires_grad=True))
        with pytest.raises(AutodiffError):
            backward(y)

    def test_output_of_a_consumed_tape_still_gets_its_gradient(self, wide):
        # h's own tape is gone when mul records h on a new one: h is held
        # there as the tensor and accumulates its gradient as a leaf does
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = relu(x)
        backward(tensor_sum(h))
        assert h.grad.tolist() == [1.0, 1.0, 1.0]
        backward(tensor_sum(mul(h, h)))
        assert h.grad.tolist() == [3.0, 1.0, 7.0]
        assert x.grad.tolist() == [1.0, 0.0, 1.0]

    def test_backward_twice_is_an_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = tensor_sum(x)
        backward(y)
        with pytest.raises(AutodiffError):
            backward(y)


class TestOnGrad:
    def test_runs_once_per_leaf_with_a_gradient_after_every_reader(self, wide):
        # a is read by two ops and sees their summed gradient; c is read
        # only off the loss's path and k needs no gradient: neither is handed
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        c = Tensor(np.array([5.0, 6.0]), requires_grad=True)
        k = Tensor(np.array([2.0, 2.0]))
        mul(c, c)
        loss = tensor_sum(plus(mul(a, b), mul(relu(a), k)))
        graph = active_graph()
        readers = {id(t): [n for n in graph.nodes if any(i is t for i in n.inputs)]
                   for t in (a, b)}
        seen = []

        def on_grad(t):
            assert all(n.apply is None for n in readers[id(t)])  # every reader replayed
            seen.append((t, t.grad.tolist()))

        backward(loss, on_grad=on_grad)
        assert [(t is a, g) for t, g in seen] == [(True, [5.0, 4.0]), (False, [1.0, -2.0])]
        assert c.grad is None


class TestTapeRelease:
    def test_intermediate_arrays_freed_without_cyclic_gc(self, wide):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            x = Tensor(np.arange(4.0), requires_grad=True)
            h = relu(times(x, 2.0))
            freed = weakref.ref(h.data)
            loss = tensor_sum(mul(h, h))
            backward(loss)
            with pytest.raises(AutodiffError):
                backward(loss)
            del h, loss
            assert freed() is None
            assert x.grad.tolist() == [0.0, 8.0, 16.0, 24.0]
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("consume", [relu, tensor_sum, lambda t: mean_axis(t, 1)],
                             ids=["relu", "tensor_sum", "mean_axis"])
    def test_input_no_gradient_reads_freed_before_backward(self, no_cyclic_gc, consume):
        x = Tensor(np.arange(6.0).reshape(2, 3) - 2.0, requires_grad=True)
        a = times(x, 2.0)
        freed = weakref.ref(a.data)
        loss = tensor_sum(consume(a))
        del a
        assert freed() is None
        backward(loss)
        assert x.grad is not None

    def test_held_intermediate_gets_the_gradient_a_leaf_gets(self, no_cyclic_gc):
        # a is dropped and freed, h is held: h's gradient has the bytes of a
        # leaf's that holds the same values and feeds the same loss
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 5), dtype=np.float32), requires_grad=True)
        a = times(x, 3.0)
        freed = weakref.ref(a.data)
        h = relu(a)
        del a
        loss = tensor_sum(mul(sigmoid(h), h))
        assert freed() is None
        backward(loss)
        leaf = Tensor(h.data, requires_grad=True)
        backward(tensor_sum(mul(sigmoid(leaf), leaf)))
        assert h.grad.dtype == leaf.grad.dtype and h.grad.tobytes() == leaf.grad.tobytes()


class TestGraph:
    def test_creation_order_is_topological(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = times(x, 2.0)
        z = plus(y, x)
        loss = tensor_sum(z)
        graph = active_graph()
        # an input made on this tape is held as its producer's node
        pos = {id(node): i for i, node in enumerate(graph.nodes)}
        links = 0
        for i, node in enumerate(graph.nodes):
            for inp in node.inputs:
                if id(inp) in pos:
                    assert pos[id(inp)] < i
                    links += 1
        assert links == 2  # y into z, z into the sum
        backward(loss)

    def test_backward_visits_each_node_once(self):
        x = Tensor(np.ones(2), requires_grad=True)
        z = plus(times(x, 2.0), times(x, 3.0))
        loss = tensor_sum(mul(z, z))
        graph = active_graph()
        calls = {i: 0 for i in range(len(graph.nodes))}
        for i, node in enumerate(graph.nodes):
            node.apply = (lambda f, k: lambda gy: (calls.__setitem__(k, calls[k] + 1), f(gy))[1])(
                node.apply, i)
        backward(loss)
        assert all(c == 1 for c in calls.values())


class TestShapeOps:
    def test_layout_reads_the_skips_gradient_in_place(self):
        # a C slice of a map in the layout, as the skip's channels of a
        # gradient over two sources would be, is read as a view
        gy = _from_layout(np.ones((2, 5, 3, 6, 6), np.float32))
        assert np.shares_memory(_to_layout(gy[:, 2:]), gy)

    def test_mean_axis(self, wide):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
        y = mean_axis(x, 1)
        assert y.shape == (2, 2)
        assert np.allclose(y.data, x.data.mean(axis=1))
        backward(tensor_sum(y))
        assert np.allclose(x.grad, np.full((2, 3, 2), 1 / 3))


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
            return tensor_sum(times(t, float(state["calls"])))

        with pytest.raises(AutodiffError):
            grad_check(f, Tensor(np.ones(2)))

    def test_eps_must_be_positive(self, wide):
        with pytest.raises(TensorError):
            grad_check(tensor_sum, Tensor(np.ones(2)), eps=0.0)

    def test_coordinate_sampling(self, wide):
        x = Tensor(np.random.default_rng(1).normal(size=50))
        rep = grad_check(lambda t: tensor_sum(mul(t, t)), x, max_coords=10, seed=4)
        assert rep.passed and rep.coords_checked == 10

    def test_report_invariant(self, wide):
        x = Tensor(np.random.default_rng(2).normal(size=5))
        rep = grad_check(lambda t: tensor_sum(mul(t, t)), x, tol=1e-4)
        assert rep.passed == (rep.max_rel_error <= rep.tolerance)

    def test_near_zero_coordinate_beside_large_f_passes(self, wide):
        # f = 1e6, so the central difference at the second coordinate carries
        # ~1e-5 of roundoff against a true derivative of 2e-9; a purely
        # relative error would fail a correct gradient here
        x = Tensor(np.array([1e3, 1e-9]))
        rep = grad_check(lambda t: tensor_sum(mul(t, t)), x, tol=1e-4)
        assert rep.passed

    @pytest.mark.parametrize("k", [1e-2, 1e-5])
    def test_error_far_below_gradient_scale_still_fails(self, wide, k):
        # f = t0^2 + k relu(t1) at t = (1, 0): ||g||_inf = 2, and the kink at
        # t1 = 0 puts an error of k/2 on the second coordinate (backward
        # reports 0, the central difference k/2): 400x and 4e5x below ||g||_inf
        square_w = Tensor(np.array([1.0, 0.0]))
        relu_w = Tensor(np.array([0.0, k]))
        x = Tensor(np.array([1.0, 0.0]))
        rep = grad_check(lambda t: plus(tensor_sum(mul(mul(t, t), square_w)),
                                        tensor_sum(mul(relu(t), relu_w))),
                         x, tol=1e-4)
        assert not rep.passed and rep.worst_index == (1,)

    def test_constant_function_has_zero_error(self, wide):
        rep = grad_check(lambda t: tensor_sum(times(t, 0.0)), Tensor(np.array([2.0, -3.0])))
        assert rep.passed and rep.max_rel_error == 0.0


class TestNoGrad:
    def test_no_recording(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            y = times(x, 2.0)
        assert y.node is None and not y.requires_grad
