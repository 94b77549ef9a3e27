import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainunet import precision
from rainunet.data import SequenceRecord
from rainunet.model import RainUNet, RainUNetConfig
from rainunet.tensor import Tensor, TensorError, backward, grad_check
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


class TestAdamW:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = Tensor(np.array([1.5, -2.5], dtype=np.float32), requires_grad=True)
        before = p.data.copy()
        opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros_like(p.data)
        for _ in range(3):
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
            opt = AdamW([("p", p)], lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
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

    def test_missing_gradient_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW([("p", p)])
        with pytest.raises(TensorError):
            opt.step()

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW([("p", p)])
        p.grad = np.ones(2)
        opt.zero_grad()
        assert p.grad is None


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
        before = model.state()
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
                                                     swa_enabled=True, swa_start_epoch=3))
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

    def test_empty_dataset_rejected(self):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0)
        with pytest.raises(TensorError):
            fit(model, [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(TensorError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(TensorError):
            TrainConfig(epochs=2, swa_enabled=True, swa_start_epoch=3).validate()

    def test_log_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        write_training_log_csv(path, [EpochLog(1, 0.5, False), EpochLog(2, 0.25, True)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,swa"
        assert lines[1] == "1,0.5,0" and lines[2] == "2,0.25,1"
