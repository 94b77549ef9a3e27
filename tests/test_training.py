import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainunet import precision
from rainunet.data import SequenceRecord
from rainunet.layers import Conv3DLayer, ConvSpec, conv3d, is_tap_major
from rainunet.model import RainUNet, RainUNetConfig, save_checkpoint
from rainunet.tensor import (Tensor, TensorError, active_graph, backward, concat, grad_check,
                             mul, tensor_sum)
from rainunet.training import (ADAMW_BLOCK, AdamW, EpochLog, SWAAverager, TrainConfig,
                               TrainingAbort, batch_dice_loss, dice_loss, fit,
                               write_training_log_csv)


class TestDiceLoss:
    def test_perfect_match_is_zero(self):
        g = Tensor(np.array([1.0, 0.0, 1.0, 1.0]))
        assert dice_loss(g, g).item() == 0.0

    def test_zero_prediction_on_positives_is_one(self):
        p = Tensor(np.zeros(4))
        g = Tensor(np.array([0.0, 1.0, 0.0, 0.0]))
        assert dice_loss(p, g).item() == 1.0

    def test_hand_case_one_third(self, wide):
        p = Tensor(np.array([0.5, 0.5]))
        g = Tensor(np.array([1.0, 0.0]))
        assert abs(dice_loss(p, g).item() - 1.0 / 3.0) < 1e-12

    def test_empty_maps_convention(self):
        z = Tensor(np.zeros(5))
        assert dice_loss(z, z).item() == 0.0

    def test_empty_maps_still_on_tape(self, wide):
        p = Tensor(np.zeros(3), requires_grad=True)
        loss = dice_loss(p, Tensor(np.zeros(3)))
        backward(loss)
        assert np.array_equal(p.grad, np.zeros(3))

    def test_validation(self):
        with pytest.raises(TensorError):
            dice_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
        with pytest.raises(TensorError):
            dice_loss(Tensor(np.array([1.5])), Tensor(np.array([1.0])))
        with pytest.raises(TensorError):
            dice_loss(Tensor(np.array([0.5])), Tensor(np.array([0.7])))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bounded_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.random(12))
        g = Tensor((rng.random(12) < 0.5).astype(float))
        assert 0.0 <= dice_loss(p, g).item() <= 1.0

    def test_strictly_decreasing_in_true_positive_prob(self, wide):
        g = Tensor(np.array([1.0, 0.0, 1.0]))
        previous = None
        for v in np.linspace(0.05, 0.95, 7):
            p = Tensor(np.array([v, 0.2, 0.6]))
            loss = dice_loss(p, g).item()
            if previous is not None:
                assert loss < previous
            previous = loss

    def test_gradient_matches_finite_differences(self, wide):
        rng = np.random.default_rng(31)
        g = Tensor((rng.random(20) < 0.4).astype(float))
        p = Tensor(rng.uniform(0.05, 0.95, size=20))
        rep = grad_check(lambda t: dice_loss(t, g), p, tol=1e-4)
        assert rep.passed

    def test_batch_mean_of_per_sample_dice(self, wide):
        rng = np.random.default_rng(32)
        p = rng.uniform(0.1, 0.9, size=(3, 2, 4, 4))
        g = (rng.random((3, 2, 4, 4)) < 0.5).astype(float)
        got = batch_dice_loss(Tensor(p), Tensor(g)).item()
        want = np.mean([dice_loss(Tensor(p[i]), Tensor(g[i])).item() for i in range(3)])
        assert abs(got - want) < 1e-12


def formula_batch_dice(p, g):
    """The batch dice loss and its gradient, sample by sample in the order
    of the operations the loss is defined by: per sample a = 2*sum(p*g),
    den = sum(p*p) + sum(g*g), loss 1 - a/den (0 when den is 0), the losses
    added in sample order and times 1/n; the gradient of a unit loss."""
    n = p.shape[0]
    one = p.dtype.type
    total, grads = None, []
    for pi, gi in zip(p.reshape(n, -1), g.reshape(n, -1)):
        gq = one(1.0) * (1.0 / n)
        den = np.sum(pi * pi) + np.sum(gi * gi)
        if den == 0:
            loss, grad = one(0.0), np.full_like(pi, gq * 0.0)
        else:
            a = np.sum(pi * gi) * 2.0
            loss = -(a / den) + 1.0
            gd = gq * -1.0
            g_ov = gd / den * 2.0
            g_den = -gd * a / (den * den)
            grad = (g_den * pi + g_den * pi) + g_ov * gi
        total = loss if total is None else total + loss
        grads.append(grad)
    return np.asarray(total * one(1.0 / n)), np.stack(grads).reshape(p.shape)


class TestBatchDiceOp:
    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_bytes_equal_the_formula(self, mode):
        with precision.use_precision(mode):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                p = rng.random((4, 3, 9, 9)).astype(precision.dtype())
                g = (rng.random(p.shape) < 0.3).astype(precision.dtype())
                p[rng.random(p.shape) < 0.1] = 0.0
                p[2], g[2] = 0.0, 0.0  # an all-empty sample
                pred = Tensor(p, requires_grad=True)
                loss = batch_dice_loss(pred, Tensor(g))
                backward(loss)
                want_loss, want_grad = formula_batch_dice(p, g)
                assert loss.data.tobytes() == want_loss.tobytes()
                assert pred.grad.tobytes() == want_grad.tobytes()

    def test_gradient_with_an_empty_and_a_disjoint_sample(self, wide):
        rng = np.random.default_rng(33)
        p = rng.uniform(0.05, 0.95, size=(2, 2, 4, 4))
        g = np.zeros((3, 2, 4, 4))
        g[1] = rng.random((2, 4, 4)) < 0.4
        # sample 0 is empty in both maps; sample 2 predicts rain where none
        # fell, so its overlap is 0
        empty = Tensor(np.zeros((1, 2, 4, 4)))
        rep = grad_check(lambda t: batch_dice_loss(concat([empty, t], axis=0), Tensor(g)),
                         Tensor(p), tol=1e-4)
        assert rep.passed

    @pytest.mark.parametrize("loss_fn", [batch_dice_loss, dice_loss])
    def test_one_tape_node(self, loss_fn):
        rng = np.random.default_rng(34)
        pred = Tensor(rng.random((4, 2, 6, 6)), requires_grad=True)
        graph = active_graph()
        start = 0 if graph is None or graph.consumed else len(graph.nodes)
        loss = loss_fn(pred, Tensor((rng.random((4, 2, 6, 6)) < 0.5).astype(float)))
        assert loss.node.graph.nodes[start:] == [loss.node]
        backward(loss)

    def test_empty_batch_rejected(self):
        with pytest.raises(TensorError):
            batch_dice_loss(Tensor(np.zeros((0, 2, 4, 4))), Tensor(np.zeros((0, 2, 4, 4))))


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = Tensor(np.array([1.5, -2.5], dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        for _ in range(3):
            p.grad = np.zeros_like(p.data)
            opt.step()
        assert np.array_equal(p.data, before)

    def test_hand_case_first_step(self, wide):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0])
        opt.step()
        # mhat = vhat = 1 after bias correction, so p' = 1 - 0.1/(1 + 1e-8)
        assert abs(p.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-15

    def test_decay_is_decoupled_from_moments(self, wide):
        p = Tensor(np.array([2.0]), requires_grad=True)
        lr, wd = 0.05, 0.1
        opt = AdamW([("p", p)], lr=lr, weight_decay=wd)
        for k in range(1, 6):
            p.grad = np.zeros(1)
            opt.step()
            assert abs(p.data[0] - 2.0 * (1.0 - lr * wd) ** k) < 1e-14

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    def test_steps_equal_docstring_formula_bitwise(self, mode, wd):
        # Shapes: one block; several blocks of ADAMW_BLOCK elements with a
        # ragged last block (rows sized from the constant); one row larger
        # than a block; and a transposed (not C-contiguous) parameter.
        rows = ADAMW_BLOCK // 1000
        cases = [((3, 5), False), ((2 * rows + 3, 1000), False),
                 ((3, ADAMW_BLOCK + 7), False), ((2 * rows + 3, 1000), True)]
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(23)
        for shape, transposed in cases:
            with precision.use_precision(mode):
                init = rng.normal(size=shape[::-1]).T if transposed else rng.normal(size=shape)
                p = Tensor(init, requires_grad=True)
            assert p.shape == shape and p.data.flags.c_contiguous != transposed
            want = p.data.copy()
            m, v = np.zeros_like(want), np.zeros_like(want)
            opt = AdamW([("p", p)], lr=lr, weight_decay=wd)
            for k in range(1, 6):
                g = rng.normal(size=want.shape).astype(want.dtype)
                p.grad = g.copy()
                opt.step()
                m = m * b1 + (1.0 - b1) * g
                v = v * b2 + (1.0 - b2) * g * g
                mhat, vhat = m / (1.0 - b1**k), v / (1.0 - b2**k)
                update = mhat / (np.sqrt(vhat) + eps)
                if wd:
                    update = update + wd * want
                want = want - lr * update
                assert p.data.dtype == want.dtype
                assert np.array_equal(p.data, want), (shape, transposed, k)

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    @pytest.mark.parametrize("wd", [0.0, 0.05])
    @pytest.mark.parametrize("relaid", [None, "before", "after"])
    def test_dead_tap_slabs_equal_docstring_formula_bitwise(self, mode, wd, relaid):
        # The dilated 1x7x7 conv (dilation 3, padding 9) reaches data with
        # 5x5 taps on an 8x8 map, 3x3 on 5x5 and the centre one only on 2x2.
        # So taps live at step 1 are dead at step 2, some come back at step
        # 4, and the corner taps are never live: their slabs get only the
        # decay, which must keep the -0.0 weight put in one of them. With
        # ``relaid`` a test has replaced the weight's .data by a C-order
        # array before or after the optimizer was made.
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(29)
        with precision.use_precision(mode):
            layer = Conv3DLayer(3, 4, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
            w = layer.weight
            w.data[1, 2, 0, 0, 0] = -0.0
            if relaid == "before":
                w.data = np.ascontiguousarray(w.data)
            opt = AdamW([("w", w)], lr=lr, weight_decay=wd)
            if relaid == "after":
                w.data = np.ascontiguousarray(w.data)
            want = w.data.copy()
            m, v = np.zeros_like(want), np.zeros_like(want)
            for k, size in enumerate((8, 2, 2, 5, 2), start=1):
                x = Tensor(rng.normal(size=(2, 3, 1, size, size)))
                gy = Tensor(rng.normal(size=(2, 4, 1, size, size)))
                backward(tensor_sum(mul(conv3d(x, layer), gy)))
                g = np.array(w.grad)
                assert is_tap_major(w.grad) and w.grad_taps is not None
                opt.step()
                m = m * b1 + (1.0 - b1) * g
                v = v * b2 + (1.0 - b2) * g * g
                mhat, vhat = m / (1.0 - b1**k), v / (1.0 - b2**k)
                update = mhat / (np.sqrt(vhat) + eps)
                if wd:
                    update = update + wd * want
                want = want - lr * update
                assert np.array_equal(w.data, want), (k, size)
                assert np.array_equal(np.signbit(w.data), np.signbit(want)), (k, size)
        assert np.signbit(w.data[1, 2, 0, 0, 0])
        assert w.data[0, 0, 0, 0, 0] != 0.0

    def test_dead_tap_slabs_leave_moments_untouched(self):
        rng = np.random.default_rng(30)
        layer = Conv3DLayer(2, 2, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        opt = AdamW([("w", layer.weight)])
        backward(tensor_sum(conv3d(Tensor(rng.normal(size=(1, 2, 1, 2, 2))), layer)))
        opt.step()
        # m is flat in the weight's tap-major order: the centre tap is slab 24
        slabs = opt.m["w"].reshape(49, 4)
        assert np.all(slabs[24] != 0.0)
        assert np.all(np.delete(slabs, 24, axis=0) == 0.0)

    def test_moments_are_views_of_one_buffer_per_dtype(self):
        # one zeroed allocation holds every m and v of a dtype, so the
        # untouched slabs of dead taps cost no memory and the state is freed
        # at once
        params = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=3).named_parameters()
        opt = AdamW(params)
        moments = [*opt.m.values(), *opt.v.values()]
        base = moments[0].base
        assert base is not None and all(a.base is base for a in moments)
        assert sum(a.size for a in moments) == 2 * sum(t.size for _, t in params)
        assert all(a.flags.c_contiguous and not a.any() for a in moments)
        for i, a in enumerate(moments):
            assert not any(np.shares_memory(a, b) for b in moments[i + 1:])

    def test_gradient_set_by_hand_is_dense(self):
        # a gradient assigned directly carries no box of live taps, so every
        # slab gets the full update
        rng = np.random.default_rng(32)
        layer = Conv3DLayer(2, 2, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        w = layer.weight
        backward(tensor_sum(conv3d(Tensor(rng.normal(size=(1, 2, 1, 2, 2))), layer)))
        assert w.grad_taps is not None
        w.grad = np.ones(w.shape, dtype=w.data.dtype)
        assert w.grad_taps is None
        opt = AdamW([("w", w)], weight_decay=0.0)
        before = w.data.copy()
        opt.step()
        assert np.all(w.data < before)

    def test_transposed_conv_gradient_is_read_as_a_view(self):
        # a decoder's upsampling weight gets a tap-major gradient, which the
        # step reads in the weight's memory order without a copy
        model = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=3)
        rng = np.random.default_rng(39)
        x = Tensor(rng.normal(size=(1, 9, 4, 8, 8)))
        target = Tensor((rng.random((1, 32, 8, 8)) < 0.3).astype(float))
        backward(batch_dice_loss(model.forward(x), target))
        opt = AdamW(model.named_parameters())
        ups = [(n, t) for n, t in model.named_parameters() if n.endswith(".up.weight")]
        assert [n for n, _ in ups] == ["dec2.up.weight", "dec1.up.weight"]
        for name, t in ups:
            assert is_tap_major(t.grad), name
            assert np.shares_memory(t.grad.transpose(opt.axes[name]).reshape(-1), t.grad), name

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW([("p", p)])
        with pytest.raises(TensorError):
            opt.step()

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_per_parameter_updates_then_step_equal_step_bitwise(self, mode):
        # a conv weight whose live taps change from step to step, its bias
        # and a plain vector; each step updates a different subset early
        rng = np.random.default_rng(47)
        with precision.use_precision(mode):
            layers = [Conv3DLayer(3, 4, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
                      for _ in range(2)]
            layers[1].weight.data[...] = layers[0].weight.data
            layers[1].bias.data[...] = layers[0].bias.data
            vecs = [Tensor(np.arange(5.0) - 2.0, requires_grad=True) for _ in range(2)]
            opts = [AdamW([("w", lay.weight), ("b", lay.bias), ("v", vec)], weight_decay=0.05)
                    for lay, vec in zip(layers, vecs)]
            for k, size in enumerate((8, 2, 5)):
                x = rng.normal(size=(2, 3, 1, size, size))
                gy = rng.normal(size=(2, 4, 1, size, size))
                gv = rng.normal(size=5)
                for lay, vec in zip(layers, vecs):
                    backward(tensor_sum(mul(conv3d(Tensor(x), lay), Tensor(gy))))
                    vec.grad = gv.astype(vec.data.dtype)
                early = [[], [layers[1].weight], [layers[1].bias, vecs[1]]][k]
                for t in early:
                    opts[1].step_param(t)
                    assert t.grad is None
                for opt in opts:
                    opt.step()
        assert opts[0].step_count == opts[1].step_count == 3
        for (name, t), (_, u) in zip(opts[0].named_params, opts[1].named_params):
            assert np.array_equal(t.data, u.data), name
            assert np.array_equal(opts[0].m[name], opts[1].m[name]), name
            assert np.array_equal(opts[0].v[name], opts[1].v[name]), name
        assert np.array_equal(opts[0].started["w"], opts[1].started["w"])

    def test_missing_gradient_named_after_per_parameter_updates(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([("p", p), ("q", q)])
        p.grad = np.ones(2)
        opt.step_param(p)
        with pytest.raises(TensorError, match="missing gradient for q"):
            opt.step()
        assert np.array_equal(q.data, np.ones(3)) and opt.step_count == 0


class TestSWA:
    def test_single_snapshot_is_identity(self):
        p = Tensor(np.array([1.25, -0.5], dtype=np.float32), requires_grad=True)
        swa = SWAAverager()
        swa.accumulate([("p", p)])
        assert np.array_equal(swa.finalize()["p"], p.data)

    def test_two_scalars(self):
        swa = SWAAverager()
        swa.accumulate([("p", Tensor(np.array([2.0])))])
        swa.accumulate([("p", Tensor(np.array([4.0])))])
        assert swa.finalize()["p"].tolist() == [3.0]

    def test_running_equals_direct_mean(self):
        rng = np.random.default_rng(41)
        snaps = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(5)]
        swa = SWAAverager()
        for s in snaps:
            swa.accumulate([("w", Tensor(s))])
        direct = np.mean(np.stack(snaps), axis=0)
        assert np.allclose(swa.finalize()["w"], direct, rtol=1e-5, atol=1e-7)

    def test_permutation_invariant_up_to_rounding(self):
        rng = np.random.default_rng(42)
        snaps = [rng.normal(size=8).astype(np.float32) for _ in range(5)]
        def mean_of(order):
            swa = SWAAverager()
            for i in order:
                swa.accumulate([("w", Tensor(snaps[i]))])
            return swa.finalize()["w"]
        a = mean_of([0, 1, 2, 3, 4])
        b = mean_of([4, 2, 0, 3, 1])
        assert np.allclose(a, b, rtol=1e-5, atol=1e-7)

    def test_finalize_without_snapshots_rejected(self):
        with pytest.raises(TensorError):
            SWAAverager().finalize()

    def test_conv_weight_mean_keeps_tap_major_layout(self):
        # the running mean is held as the weight is, so accumulating is a
        # contiguous pass; its values are those of a C-order mean
        rng = np.random.default_rng(43)
        layer = Conv3DLayer(3, 4, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), rng)
        w = layer.weight
        swa = SWAAverager()
        want = None
        for count in range(1, 5):
            w.data[...] = rng.normal(size=w.shape)
            swa.accumulate([("w", w)])
            snap = np.ascontiguousarray(w.data)
            want = snap.copy() if want is None else want + (snap - want) / count
            assert is_tap_major(swa.mean["w"])
            assert np.array_equal(swa.mean["w"], want)
        assert np.array_equal(swa.finalize()["w"], want)


def tiny_records(n=4, size=12, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        records.append(SequenceRecord(
            input=rng.random((9, 4, size, size)).astype(np.float32),
            target=(rng.random((32, size, size)) < 0.4).astype(np.uint8),
            region="R0",
            start_time=900 * i,
        ))
    return records


class TestFit:
    def test_zero_lr_leaves_parameters_bitwise(self):
        records = tiny_records()
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0)
        before = {name: t.data.copy() for name, t in model.named_parameters()}
        fit(model, records, TrainConfig(epochs=2, batch_size=2, lr=0.0, weight_decay=0.0, seed=0))
        for name, t in model.named_parameters():
            assert np.array_equal(t.data, before[name]), name

    def test_same_seed_identical_logs(self):
        logs = []
        for _ in range(2):
            model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=1)
            res = fit(model, tiny_records(), TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=5))
            logs.append([(r.epoch, r.mean_loss, r.swa_active) for r in res.log])
        assert logs[0] == logs[1]

    def test_loss_decreases_on_tiny_problem(self):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=2)
        res = fit(model, tiny_records(), TrainConfig(epochs=8, batch_size=4, lr=1e-3,
                                                     weight_decay=0.0, seed=2))
        assert res.log[-1].mean_loss < res.log[0].mean_loss

    def test_swa_runs_from_start_epoch(self):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=3)
        res = fit(model, tiny_records(), TrainConfig(epochs=4, batch_size=4, lr=1e-3, seed=3,
                                                     swa=True, swa_start=3))
        assert [r.swa_active for r in res.log] == [False, False, True, True]
        assert res.swa.count == 2

    # the saturated head overflows float32 on purpose
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_aborts_with_diagnostic(self):
        records = tiny_records()
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=4)
        model.head.weight.data[:] = np.finfo(np.float32).max
        with pytest.raises(TrainingAbort, match="epoch 1"):
            fit(model, records, TrainConfig(epochs=1, batch_size=2, lr=1e-3, seed=0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_abort_drops_the_partial_tape(self):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=4)
        model.head.weight.data[:] = np.finfo(np.float32).max
        with pytest.raises(TrainingAbort):
            fit(model, tiny_records(), TrainConfig(epochs=1, batch_size=2, seed=0))
        graph = active_graph()
        assert graph is None or not graph.nodes

    def test_equals_a_loop_of_backward_then_step(self, tmp_path):
        # fit updates each parameter inside the backward; a plain backward,
        # then AdamW.step, which consumes every gradient, must give the same
        # bytes
        cfg = TrainConfig(epochs=3, batch_size=2, lr=1e-2, seed=6, swa=True, swa_start=2)
        records = tiny_records(n=5)
        fitted = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=8)
        res = fit(fitted, records, cfg)

        by_hand = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=8)
        params = by_hand.named_parameters()
        opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        swa = SWAAverager()
        x_all = np.stack([r.input for r in records])
        y_all = np.stack([r.target for r in records]).astype(np.float32)
        rng = np.random.default_rng(cfg.seed)
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(len(records))
            for start in range(0, len(records), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                backward(batch_dice_loss(by_hand.forward(Tensor(x_all[idx])), Tensor(y_all[idx])))
                opt.step()
                assert all(t.grad is None for _, t in params)
            if epoch >= cfg.swa_start:
                swa.accumulate(params)

        for (name, t), (_, u) in zip(fitted.named_parameters(), params):
            assert np.array_equal(t.data, u.data), name
            assert np.array_equal(res.swa.mean[name], swa.mean[name]), name
        for name, model in (("fit", fitted), ("hand", by_hand)):
            save_checkpoint(tmp_path / f"{name}.runc", model)
        assert (tmp_path / "fit.runc").read_bytes() == (tmp_path / "hand.runc").read_bytes()

    def test_step_never_holds_every_gradient(self, traced_peak):
        # deep stages hold most of the weights: the step's peak above the
        # model is AdamW's m and v (2P) plus less than half the gradient
        # bytes P, where a backward ending with every gradient held reaches 3P
        model = RainUNet(RainUNetConfig(stages=3, base_channels=32), seed=9)
        param_bytes = sum(t.data.nbytes for _, t in model.named_parameters())
        records = tiny_records(n=1, size=8)
        with traced_peak() as peak:
            fit(model, records, TrainConfig(epochs=1, batch_size=1, seed=0))
            assert peak() < 2.5 * param_bytes

    def test_empty_dataset_rejected(self):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0)
        with pytest.raises(TensorError):
            fit(model, [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(TensorError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(TensorError):
            TrainConfig(epochs=2, swa=True, swa_start=3).validate()

    def test_log_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        write_training_log_csv(path, [EpochLog(1, 0.5, False), EpochLog(2, 0.25, True)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,swa"
        assert lines[1] == "1,0.5,0" and lines[2] == "2,0.25,1"
