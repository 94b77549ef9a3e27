import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import support_box
from rainunet.data import FormatError, runt_encode
from rainunet.layers import conv3d, group_norm
from rainunet.model import (RainUNet, RainUNetConfig, TSBlock, config_from_text,
                            config_to_text, encoder_receptive_field,
                            load_checkpoint, receptive_field, save_checkpoint,
                            save_checkpoint_params)
from rainunet.tensor import Tensor, TensorError, grad_check, no_grad, relu, tensor_sum


def micro_cfg(**kw):
    base = dict(stages=2, base_channels=4)
    base.update(kw)
    return RainUNetConfig(**base)


class TestConfig:
    def test_stage_widths_double(self):
        cfg = RainUNetConfig(base_channels=16)
        assert [cfg.stage_width(k) for k in range(1, 6)] == [16, 32, 64, 128, 256]

    def test_temporal_pool_schedule(self):
        assert RainUNetConfig(stages=5, in_frames=4).temporal_pool_kernels() == [2, 2, 1, 1, 1]
        assert RainUNetConfig(stages=2, in_frames=1).temporal_pool_kernels() == [1, 1]

    def test_group_divisibility_enforced(self):
        with pytest.raises(TensorError):
            RainUNetConfig(base_channels=12, groupnorm_groups=8).validate()

    def test_small_widths_degrade_to_one_group(self):
        RainUNetConfig(stages=1, base_channels=4, groupnorm_groups=8).validate()

    def test_text_round_trip(self):
        cfg = micro_cfg(base_channels=6, groupnorm_groups=2, out_frames=16)
        assert config_from_text(config_to_text(cfg)) == cfg


class TestTSBlock:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        block = TSBlock(9, 8, micro_cfg(), rng)
        out = block(Tensor(rng.normal(size=(1, 9, 2, 12, 12)).astype(np.float32)))
        assert out.shape == (1, 8, 2, 12, 12)

    def test_zero_network_outputs_zero(self):
        rng = np.random.default_rng(1)
        block = TSBlock(2, 4, micro_cfg(), rng)
        for _, p in block.parameters():
            p.data = np.zeros_like(p.data)
        out = block(Tensor(rng.normal(size=(1, 2, 2, 8, 8)).astype(np.float32)))
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_equals_manual_composition_bitwise(self):
        rng = np.random.default_rng(2)
        block = TSBlock(3, 8, micro_cfg(), rng)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 2, 10, 10)).astype(np.float32))
        with no_grad():
            direct = block(x)
            h = relu(group_norm(conv3d(x, block.proj), block.proj_norm))
            h = conv3d(h, block.spatial)
            h = conv3d(h, block.dilated)
            h = conv3d(h, block.temporal)
            manual = relu(group_norm(h, block.out_norm))
        assert np.array_equal(direct.data, manual.data)

    def test_impulse_support_matches_receptive_field(self):
        # positive weights keep the response solid inside the geometric box;
        # normalization is excluded because its statistics couple all voxels
        rng = np.random.default_rng(4)
        cfg = micro_cfg()
        block = TSBlock(1, 2, cfg, rng)
        for _, p in block.parameters():
            if p.data.ndim == 5:
                p.data = np.abs(p.data) + 0.01
        x = np.zeros((1, 1, 5, 25, 25), dtype=np.float32)
        x[0, 0, 2, 12, 12] = 1.0
        with no_grad():
            out = block.conv_path(Tensor(x))
        assert support_box(out.data) == receptive_field(cfg, 1) == (3, 21, 21)

    def test_gradients(self, wide):
        rng = np.random.default_rng(5)
        block = TSBlock(2, 4, micro_cfg(), rng)
        x = Tensor(rng.normal(size=(1, 2, 2, 8, 8)))
        rep = grad_check(lambda t: tensor_sum(block(t) * block(t)), x, max_coords=40)
        assert rep.passed


class TestReceptiveField:
    def test_single_block(self):
        assert receptive_field(RainUNetConfig()) == (3, 21, 21)

    def test_two_blocks(self):
        assert receptive_field(RainUNetConfig(), 2) == (5, 41, 41)

    def test_encoder_grows_with_pooling(self):
        cfg = RainUNetConfig(stages=2)
        # block (span 21) + pool 2 doubles the jump for the second block
        assert encoder_receptive_field(cfg)[1] == 1 + 20 + 1 + 2 * 20 + 2


class TestBuild:
    def test_same_seed_is_bitwise_identical(self):
        a = RainUNet(micro_cfg(), seed=9)
        b = RainUNet(micro_cfg(), seed=9)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = RainUNet(micro_cfg(), seed=9)
        b = RainUNet(micro_cfg(), seed=10)
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()))

    def test_parameter_count_matches_hand_enumeration(self):
        # stages=1, base 8, 9 input channels, 32 output frames
        model = RainUNet(RainUNetConfig(stages=1, base_channels=8), seed=0)

        def ts_params(c_in, c_out):
            proj = c_out * c_in + c_out
            norm = 2 * c_out
            spatial = c_out * c_out * 9 + c_out
            dilated = c_out * c_out * 49 + c_out
            temporal = c_out * c_out * 3 + c_out
            return proj + norm + spatial + dilated + temporal + norm

        enc = ts_params(9, 8)
        up = 4 * 8 * 8 + 4                 # transposed 8->4, kernel 2x2x2
        dec = up + ts_params(4 + 8, 8)
        head = 32 * 8 + 32
        assert model.num_parameters == enc + dec + head

    def test_parameter_names_are_stable(self):
        names = [n for n, _ in RainUNet(micro_cfg(), seed=0).named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "enc1.proj.weight"
        assert names[-1] == "head.bias"


class TestForward:
    def test_shape_and_range(self):
        model = RainUNet(micro_cfg(), seed=0)
        out = model.forward(Tensor(np.random.default_rng(0).normal(size=(2, 9, 4, 16, 16)).astype(np.float32)))
        assert out.shape == (2, 32, 16, 16)
        assert out.data.min() > 0.0 and out.data.max() < 1.0

    def test_zero_parameters_give_half(self):
        model = RainUNet(micro_cfg(), seed=0)
        for _, p in model.named_parameters():
            p.data = np.zeros_like(p.data)
        out = model.forward(Tensor(np.random.default_rng(1).normal(size=(1, 9, 4, 16, 16)).astype(np.float32)))
        assert np.all(out.data == 0.5)

    def test_batch_independence(self, wide):
        model = RainUNet(micro_cfg(), seed=2)
        x = np.random.default_rng(2).normal(size=(2, 9, 4, 16, 16))
        with no_grad():
            both = model.forward(Tensor(x)).data
            one = model.forward(Tensor(x[:1])).data
            two = model.forward(Tensor(x[1:])).data
        assert np.max(np.abs(both - np.concatenate([one, two]))) < 1e-6

    def test_odd_extents_reconcile(self):
        model = RainUNet(micro_cfg(), seed=3)
        out = model.forward(Tensor(np.random.default_rng(3).normal(size=(1, 9, 4, 15, 15)).astype(np.float32)))
        assert out.shape == (1, 32, 15, 15)

    def test_wrong_channels_rejected(self):
        model = RainUNet(micro_cfg(), seed=0)
        with pytest.raises(TensorError):
            model.forward(Tensor(np.zeros((1, 7, 4, 16, 16))))

    def test_too_small_spatial_rejected(self):
        model = RainUNet(RainUNetConfig(stages=5, base_channels=8), seed=0)
        with pytest.raises(TensorError):
            model.forward(Tensor(np.zeros((1, 9, 4, 8, 8))))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = RainUNet(micro_cfg(groupnorm_groups=2), seed=4)
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (na, ta), (nb, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = RainUNet(micro_cfg(), seed=4)
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        before = path.read_bytes()
        state = model.state()
        state["head.bias"] = np.full_like(state["head.bias"], np.nan)
        with pytest.raises(FormatError):
            save_checkpoint_params(path, model.config, state)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.runc"]

    def test_bytes_are_the_runt_layout(self, tmp_path):
        model = RainUNet(micro_cfg(), seed=4)
        cfg = config_to_text(model.config).encode("utf-8")
        odd = {"empty": np.zeros((0, 3), dtype=np.float32),
               "strided": np.arange(12.0).reshape(3, 4).T}
        for params in (model.state(), odd):
            path = tmp_path / "model.runc"
            save_checkpoint_params(path, model.config, params)
            want = b"RUNC" + struct.pack("<BI", 1, len(cfg)) + cfg + struct.pack("<I", len(params))
            for name, arr in params.items():
                blob = runt_encode(arr)
                want += struct.pack("<H", len(name)) + name.encode("utf-8")
                want += struct.pack("<I", len(blob)) + blob
            assert path.read_bytes() == want

    @pytest.mark.parametrize("keep", [0, 3, 6, 20, -1])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        raw = path.read_bytes()  # the head bias (float32) is the last blob
        path.write_bytes(raw[:-4] + np.array([np.nan], dtype=np.float32).tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(path)

    def test_parameters_not_fitting_config_rejected(self, tmp_path):
        model = RainUNet(micro_cfg(), seed=4)
        state = model.state()
        del state["head.bias"]
        path = tmp_path / "model.runc"
        save_checkpoint_params(path, model.config, state)
        with pytest.raises(FormatError, match="head.bias"):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_load_fuzz_gives_model_or_format_error(self, tmp_path, data):
        # One-stage width-2 model: no single-byte edit of its config text
        # describes a model larger than a few hundred MB.
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(stages=1, base_channels=2), seed=4))
        valid = path.read_bytes()
        pos = st.integers(0, len(valid) - 1)
        raw = data.draw(st.one_of(
            st.binary(max_size=64),
            pos.map(lambda n: valid[:n]),
            st.binary(min_size=1, max_size=8).map(lambda tail: valid + tail),
            st.tuples(pos, st.integers(0, 255)).map(
                lambda pb: valid[:pb[0]] + bytes([pb[1]]) + valid[pb[0] + 1:]),
        ))
        path.write_bytes(raw)
        try:
            model = load_checkpoint(path)
        except FormatError:
            return
        assert isinstance(model, RainUNet)

    def test_shape_mismatch_reports_both_shapes(self):
        model = RainUNet(micro_cfg(), seed=0)
        state = model.state()
        key = "head.weight"
        bad = {n: (v if n != key else np.zeros((1, 2, 1, 1, 1), dtype=v.dtype))
               for n, v in state.items()}
        with pytest.raises(TensorError) as err:
            model.load_state(bad)
        msg = str(err.value)
        assert "(1, 2, 1, 1, 1)" in msg and str(model.head.weight.shape) in msg

    def test_unknown_parameter_rejected(self):
        model = RainUNet(micro_cfg(), seed=0)
        state = model.state()
        state["extra.weight"] = np.zeros(1)
        with pytest.raises(TensorError):
            model.load_state(state)
