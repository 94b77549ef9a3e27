import os
import re
import struct
import weakref
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import support_box
from rainunet.data import (IN_FRAMES, OUT_FRAMES, FormatError, SequenceRecord, config_text,
                           parse_config, runt_chunks)
from rainunet import layers, model as model_module, precision
from rainunet.layers import conv3d, group_norm, is_tap_major, maxpool3d
from rainunet.model import (RainUNet, RainUNetConfig, TSBlock, _parse_checkpoint,
                            load_checkpoint, save_checkpoint, save_checkpoint_params)
from rainunet.tensor import (Tensor, TensorError, active_graph, backward, concat, grad_check, mul,
                             no_grad, relu, tensor_sum)
from rainunet.training import TrainConfig, fit, predict_probs


def edit_config_block(path, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in the config block of the checkpoint at ``path``."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 5)
    cfg = raw[9 : 9 + n].replace(old.encode("utf-8"), new.encode("utf-8"), 1)
    assert cfg != raw[9 : 9 + n]
    path.write_bytes(raw[:5] + struct.pack("<I", len(cfg)) + cfg + raw[9 + n :])


def params_of(model) -> dict:
    """A copy of each parameter of ``model`` under its name."""
    return {name: t.data.copy() for name, t in model.named_parameters()}


def micro_cfg(**kw):
    base = dict(stages=2, base_channels=4)
    base.update(kw)
    return RainUNetConfig(**base)


class TestConfig:
    def test_stage_widths_double(self):
        cfg = RainUNetConfig(base_channels=16)
        assert [cfg.stage_width(k) for k in range(1, 6)] == [16, 32, 64, 128, 256]

    def test_only_three_settings(self):
        # the frame counts are the records' constants, not settings
        names = [f.name for f in fields(RainUNetConfig)]
        assert names == ["stages", "base_channels", "in_channels"]
        assert (RainUNetConfig.in_frames, RainUNetConfig.out_frames) == (IN_FRAMES, OUT_FRAMES)

    def test_temporal_pool_schedule(self):
        assert RainUNetConfig(stages=5).temporal_pool_kernels() == [2, 2, 1, 1, 1]
        assert RainUNetConfig(stages=2).temporal_pool_kernels() == [2, 2]

    def test_group_divisibility_enforced(self):
        with pytest.raises(TensorError):
            RainUNetConfig(base_channels=12).validate()

    def test_small_widths_degrade_to_one_group(self):
        RainUNetConfig(stages=1, base_channels=4).validate()

    def test_text_round_trip(self):
        cfg = micro_cfg(base_channels=6, in_channels=5)
        values = parse_config(config_text(asdict(cfg)), get_type_hints(RainUNetConfig), "x")
        assert RainUNetConfig(**values) == cfg

    def test_default_text_is_pinned(self):
        # the checkpoint's config block: changing it changes every checkpoint's bytes
        assert config_text(RainUNetConfig().block()) == (
            "stages = 5\nbase_channels = 16\nin_channels = 9\nin_frames = 4\nout_frames = 32\n"
            "sconv_kernel = 1,3,3\ntsdconv_kernel = 1,7,7\ntsdconv_dilation = 1,3,3\n"
            "tconv_kernel = 3,1,1\ngroupnorm_groups = 8\nhead_mode = time-mean\n")


class TestTSBlock:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        block = TSBlock(9, 8, rng)
        out = block(Tensor(rng.normal(size=(1, 9, 2, 12, 12)).astype(np.float32)))
        assert out.shape == (1, 8, 2, 12, 12)

    def test_zero_network_outputs_zero(self):
        rng = np.random.default_rng(1)
        block = TSBlock(2, 4, rng)
        for layer in (block.proj, block.proj_norm, block.spatial, block.dilated, block.temporal,
                      block.out_norm):
            for _, p in layer.parameters():
                p.data = np.zeros_like(p.data)
        out = block(Tensor(rng.normal(size=(1, 2, 2, 8, 8)).astype(np.float32)))
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_equals_manual_composition_bitwise(self):
        rng = np.random.default_rng(2)
        block = TSBlock(3, 8, rng)
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
        # the impulse response of the blocks' four convs, with positive
        # weights, fills the geometric box: one block spans (3, 21, 21) and
        # two (5, 41, 41). Normalization is left out because its statistics
        # couple all voxels.
        rng = np.random.default_rng(4)
        blocks = [TSBlock(c, 2, rng) for c in (1, 2)]
        for block in blocks:
            for conv in (block.proj, block.spatial, block.dilated, block.temporal):
                conv.weight.data = np.abs(conv.weight.data) + 0.01

        def convs(block, h):
            for conv in (block.proj, block.spatial, block.dilated, block.temporal):
                h = conv3d(h, conv)
            return h

        x = np.zeros((1, 1, 7, 45, 45), dtype=np.float32)
        x[0, 0, 3, 22, 22] = 1.0
        with no_grad():
            one = convs(blocks[0], Tensor(x))
            two = convs(blocks[1], one)
        assert support_box(one.data) == (3, 21, 21)
        assert support_box(two.data) == (5, 41, 41)

        # through two encoder stages, each conv path then a 2x pool along H,
        # an output row is reached from an H span of 21 + 1 + 2*20 + 2 input
        # rows: sample i carries its impulse at row i
        h = 128
        x = np.zeros((h, 1, 1, h, 2), dtype=np.float32)
        x[np.arange(h), 0, 0, np.arange(h)] = 1.0
        out = Tensor(x)
        with no_grad():
            for block in blocks:
                out = maxpool3d(convs(block, out), (1, 2, 1))
        reached = np.flatnonzero(out.data[:, :, :, h // 8].any(axis=(1, 2, 3)))
        assert reached[-1] - reached[0] + 1 == 21 + 1 + 2 * 20 + 2

    def test_gradients(self, wide):
        rng = np.random.default_rng(5)
        block = TSBlock(2, 4, rng)
        x = Tensor(rng.normal(size=(1, 2, 2, 8, 8)))
        rep = grad_check(lambda t: tensor_sum(mul(block(t), block(t))), x, max_coords=40)
        assert rep.passed


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
        assert sum(t.size for _, t in model.named_parameters()) == enc + dec + head

    def test_parameter_names_are_stable(self):
        # the checkpoint keys: a change here breaks every stored checkpoint
        model = RainUNet(micro_cfg(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert names == '''
            enc1.proj.weight enc1.proj.bias enc1.proj_norm.gamma enc1.proj_norm.beta
            enc1.spatial.weight enc1.spatial.bias enc1.dilated.weight enc1.dilated.bias
            enc1.temporal.weight enc1.temporal.bias enc1.out_norm.gamma enc1.out_norm.beta
            enc2.proj.weight enc2.proj.bias enc2.proj_norm.gamma enc2.proj_norm.beta
            enc2.spatial.weight enc2.spatial.bias enc2.dilated.weight enc2.dilated.bias
            enc2.temporal.weight enc2.temporal.bias enc2.out_norm.gamma enc2.out_norm.beta
            dec2.up.weight dec2.up.bias dec2.block.proj.weight dec2.block.proj.bias
            dec2.block.proj_norm.gamma dec2.block.proj_norm.beta dec2.block.spatial.weight
            dec2.block.spatial.bias dec2.block.dilated.weight dec2.block.dilated.bias
            dec2.block.temporal.weight dec2.block.temporal.bias dec2.block.out_norm.gamma
            dec2.block.out_norm.beta dec1.up.weight dec1.up.bias dec1.block.proj.weight
            dec1.block.proj.bias dec1.block.proj_norm.gamma dec1.block.proj_norm.beta
            dec1.block.spatial.weight dec1.block.spatial.bias dec1.block.dilated.weight
            dec1.block.dilated.bias dec1.block.temporal.weight dec1.block.temporal.bias
            dec1.block.out_norm.gamma dec1.block.out_norm.beta head.weight head.bias
            '''.split()

    def test_parameter_keys_name_the_layers_that_run(self):
        # each key is <layer.name>.<param> of a layer in model.layers, and those
        # are the layers the forward reaches through the encoder, decoder and head
        # (also after load_state, which swaps in the layers of another build)
        loaded = RainUNet(micro_cfg(), seed=1)
        loaded.load_state(params_of(RainUNet(micro_cfg(), seed=0)))
        for model in (RainUNet(micro_cfg(), seed=0), loaded):
            used = [model.head]
            for block in model.encoder + [block for _, _, block in model.decoder]:
                used += [block.proj, block.proj_norm, block.spatial, block.dilated,
                         block.temporal, block.out_norm]
            used += [up for _, up, _ in model.decoder]
            assert sorted(map(id, model.layers)) == sorted(map(id, used))
            by_name = {layer.name: dict(layer.parameters()) for layer in model.layers}
            assert len(by_name) == len(model.layers)
            for key, t in model.named_parameters():
                layer_name, param = key.rsplit(".", 1)
                assert by_name[layer_name][param] is t


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
        # odd sides lose a row or column to each floor pooling, which the
        # decoder pads back; a decoder larger than its skip would need a
        # crop, and zero_pad refuses its negative width
        rng = np.random.default_rng(3)
        for stages, h, w in [(2, 15, 15), (2, 13, 17), (2, 17, 15), (3, 19, 21), (3, 23, 17)]:
            model = RainUNet(micro_cfg(stages=stages), seed=3)
            out = model.forward(Tensor(rng.normal(size=(1, 9, 4, h, w))))
            assert out.shape == (1, 32, h, w)

    @pytest.fixture
    def layout_copies(self, monkeypatch):
        """The shapes of the arrays that layers._to_layout copies."""
        copies = []
        to_layout = layers._to_layout

        def counted(a):
            out = to_layout(a)
            if not np.shares_memory(out, a):
                copies.append(a.shape)
            return out
        monkeypatch.setattr(layers, "_to_layout", counted)
        return copies

    def test_only_the_input_is_copied_into_the_layout(self, layout_copies):
        # every op between the input and the head hands on layout memory
        model = RainUNet(micro_cfg(stages=3), seed=4)
        # at 18x18 the stage-2 skip is 9x9, so the decoder's 8x8 is padded
        for side in (16, 18):
            layout_copies.clear()
            with no_grad():
                model.forward(Tensor(np.random.default_rng(4).normal(size=(2, 9, 4, side, side))))
            assert layout_copies == [(2, 9, 4, side, side)]

    def test_the_backward_reuses_the_inputs_layout_copy(self, layout_copies):
        # the first conv's weight gradient reads the copy its forward made
        model = RainUNet(micro_cfg(), seed=4)
        x = np.random.default_rng(4).normal(size=(2, 9, 4, 16, 16))
        backward(tensor_sum(model.forward(Tensor(x))))
        assert layout_copies.count(x.shape) == 1

    def test_batches_are_stacked_into_the_layout(self, layout_copies):
        # fit and predict_probs stack each batch straight into the layout,
        # so no conv copies it, and the C-sliced gradient concat hands each
        # decoder stage's upsampling conv is read as a view: neither a
        # training step nor a no-grad pass makes a copy
        rng = np.random.default_rng(8)
        records = [SequenceRecord(rng.random((9, 4, 16, 16), dtype=np.float32),
                                  (rng.random((OUT_FRAMES, 16, 16)) < 0.4).astype(np.uint8), "R0", 0)
                   for _ in range(2)]
        model = RainUNet(micro_cfg(), seed=8)
        fit(model, records, TrainConfig(epochs=1, batch_size=2))
        assert layout_copies == []
        layout_copies.clear()
        predict_probs(model, records)
        assert layout_copies == []

    @pytest.mark.usefixtures("no_cyclic_gc")
    def test_the_tape_keeps_no_relu_output(self, monkeypatch):
        # each relu output is rebuilt in the backward from its group norm's
        # kept input, so once a training forward has moved past it no
        # buffer of it is alive, while the tape still is
        outputs = []

        def recorded(a):
            out = relu(a)
            owner = out.data
            while owner.base is not None:
                owner = owner.base
            outputs.append(weakref.ref(owner))
            return out
        monkeypatch.setattr(model_module, "relu", recorded)
        model = RainUNet(micro_cfg(), seed=7)
        x = Tensor(np.random.default_rng(7).random((2, 9, 4, 16, 16), dtype=np.float32))
        loss = tensor_sum(model.forward(x))
        assert len(outputs) == 8 and active_graph().nodes
        assert [r() is None for r in outputs] == [True] * 8
        backward(loss)
        assert all(t.grad is not None for _, t in model.named_parameters())

    @pytest.mark.usefixtures("no_cyclic_gc")
    def test_the_tape_keeps_no_concatenation(self, monkeypatch):
        # each decoder stage's concatenation is rebuilt in its projection's
        # backward from the upsampled map and the skip's rebuild, so once a
        # training forward has moved past it no buffer of it is alive
        outputs = []

        def recorded(tensors, axis):
            out = concat(tensors, axis)
            owner = out.data
            while owner.base is not None:
                owner = owner.base
            outputs.append(weakref.ref(owner))
            return out
        monkeypatch.setattr(model_module, "concat", recorded)
        model = RainUNet(micro_cfg(stages=3), seed=7)
        x = Tensor(np.random.default_rng(7).random((2, 9, 4, 16, 16), dtype=np.float32))
        loss = tensor_sum(model.forward(x))
        assert len(outputs) == 3 and active_graph().nodes
        assert [r() is None for r in outputs] == [True] * 3
        backward(loss)
        assert all(t.grad is not None for _, t in model.named_parameters())

    # one (4, 16, 4, 66, 66) float32 map: stage 1 of the default model at N=4
    STAGE1 = 4 * 16 * 4 * 66 * 66 * 4

    @pytest.fixture(scope="class")
    def default_model(self):
        return RainUNet(RainUNetConfig(), seed=0)

    def test_no_grad_forward_peaks_at_a_few_stage1_maps(self, default_model, traced_peak):
        # each map is freed at its last reader: the peak is the decoder's
        # last dilated conv (its input, its output and the conv's own
        # buffers beside the projected map and the input), about 5 stage-1
        # maps
        x = Tensor(np.random.default_rng(5).random((4, 9, 4, 66, 66), dtype=np.float32))
        with no_grad(), traced_peak() as peak:
            default_model.forward(x)
            assert peak() < 5.5 * self.STAGE1

    def test_batch_passed_without_a_name_is_freed_after_stage_one(self, default_model,
                                                                  traced_peak):
        # predict_probs hands forward its batch without a name, and __call__
        # hands convolve its projected map so: forward drops the input after
        # stage 1, and convolve the projected map after the spatial conv
        rng = np.random.default_rng(6)
        records = [SequenceRecord(rng.random((9, 4, 66, 66), dtype=np.float32),
                                  np.zeros((OUT_FRAMES, 66, 66), np.uint8), "R0", 0)
                   for _ in range(4)]
        with traced_peak() as peak:
            out = predict_probs(default_model, records)
            held = peak() - out.nbytes
        assert held < 5.25 * self.STAGE1

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
        model = RainUNet(micro_cfg(in_channels=5), seed=4)
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        cfg_text, _ = _parse_checkpoint(memoryview(path.read_bytes()))
        assert cfg_text == config_text(model.config.block()).encode("utf-8")
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
        state = params_of(model)
        state["head.bias"] = np.full_like(state["head.bias"], np.nan)
        with pytest.raises(FormatError):
            save_checkpoint_params(path, model.config, state)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.runc"]

    def test_bytes_are_the_runt_layout(self, tmp_path):
        model = RainUNet(micro_cfg(), seed=4)
        cfg = config_text(model.config.block()).encode("utf-8")
        odd = {"empty": np.zeros((0, 3), dtype=np.float32),
               "strided": np.arange(12.0).reshape(3, 4).T}
        for params in (params_of(model), odd):
            path = tmp_path / "model.runc"
            save_checkpoint_params(path, model.config, params)
            want = b"RUNC" + struct.pack("<BI", 1, len(cfg)) + cfg + struct.pack("<I", len(params))
            for name, arr in params.items():
                blob = b"".join(runt_chunks(arr))
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

    @pytest.mark.parametrize("line", ["stages 2", "mystery = 1", "stages = two",
                                      "sconv_kernel = 1,x,3", "= 2", "in_frames = 4",
                                      "out_frames = 32"])
    def test_malformed_config_line_rejected(self, tmp_path, line):
        # a constant's name among the settings is an unknown key
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        edit_config_block(path, "base_channels = 4\n", f"base_channels = 4\n{line}\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))} config line 3: "):
            load_checkpoint(path)

    def test_setting_given_twice_rejected(self, tmp_path):
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        edit_config_block(path, "base_channels = 4\n", "base_channels = 4\nbase_channels = 8\n")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))} config line 3: "
                                              "base_channels given again, first on line 2$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, message", [
        ("groupnorm_groups = 8\n", "groupnorm_groups = 4\n", "not this program's architecture"),
        ("sconv_kernel = 1,3,3\n", "sconv_kernel = 1,5,5\n", "not this program's architecture"),
        ("head_mode = time-mean\n", "", "not this program's architecture"),
        ("stages = 2\n", "stages = 2\nin_frames = 4\n", "line 2: unknown config key 'in_frames'"),
    ], ids=["groups", "sconv_kernel", "no_head_mode", "in_frames_among_the_settings"])
    def test_checkpoint_of_another_architecture_rejected(self, tmp_path, old, new, message):
        # each edit once loaded, as a different model or the same one
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        edit_config_block(path, old, new)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))} config:? {message}"):
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
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: parameter head.bias: tensor holds non-finite values"

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_reserved_size_is_the_file_length(self, tmp_path, monkeypatch, mode):
        sizes, fallocate = [], os.posix_fallocate
        monkeypatch.setattr(os, "posix_fallocate",
                            lambda fd, offset, size: sizes.append(size) or fallocate(fd, offset, size))
        path = tmp_path / "model.runc"
        with precision.use_precision(mode):
            save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        assert sizes == [os.path.getsize(path)]

    def test_parameters_not_fitting_config_rejected(self, tmp_path):
        model = RainUNet(micro_cfg(), seed=4)
        state = params_of(model)
        del state["head.bias"]
        path = tmp_path / "model.runc"
        save_checkpoint_params(path, model.config, state)
        with pytest.raises(FormatError, match="head.bias"):
            load_checkpoint(path)

    def test_config_larger_than_parameters_rejected_before_building(self, tmp_path, traced_peak):
        # the config text of a one-stage width-2 checkpoint says nine stages:
        # a model of 44.6 M parameters, which must not be allocated to find
        # that the stored ones do not fit it
        model = RainUNet(micro_cfg(stages=1, base_channels=2), seed=4)
        path = tmp_path / "model.runc"
        save_checkpoint_params(path, replace(model.config, stages=9), params_of(model))
        with traced_peak() as peak:
            with pytest.raises(FormatError, match="enc2"):
                load_checkpoint(path)
            assert peak() < 10e6

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
        state = params_of(model)
        key = "head.weight"
        bad = {n: (v if n != key else np.zeros((1, 2, 1, 1, 1), dtype=v.dtype))
               for n, v in state.items()}
        with pytest.raises(TensorError) as err:
            model.load_state(bad)
        msg = str(err.value)
        assert "(1, 2, 1, 1, 1)" in msg and str(model.head.weight.shape) in msg

    def test_unknown_parameter_rejected(self):
        model = RainUNet(micro_cfg(), seed=0)
        state = params_of(model)
        state["extra.weight"] = np.zeros(1)
        with pytest.raises(TensorError):
            model.load_state(state)

    @pytest.mark.parametrize("fault", ["missing", "extra", "shape"])
    def test_failed_load_state_leaves_the_model_untouched(self, fault):
        model = RainUNet(micro_cfg(), seed=0)
        before = [(n, t, t.data.tobytes()) for n, t in model.named_parameters()]
        state = params_of(RainUNet(micro_cfg(), seed=1))
        if fault == "missing":
            del state["dec1.block.spatial.bias"]
        elif fault == "extra":
            state["extra.weight"] = np.zeros(1)
        else:
            state["enc2.out_norm.gamma"] = np.ones(3)
        kept = dict(state)
        with pytest.raises(TensorError):
            model.load_state(state)
        assert state.keys() == kept.keys()
        after = model.named_parameters()
        assert [n for n, _ in after] == [n for n, _, _ in before]
        for (_, t, raw), (_, t_after) in zip(before, after):
            assert t_after is t and t.data.tobytes() == raw


def assert_tap_major_equal(model, want):
    """Every conv weight of ``model`` held tap-major, every parameter equal
    to ``want[name]``."""
    params = model.named_parameters()
    assert [n for n, _ in params] == list(want)
    for name, t in params:
        assert np.array_equal(t.data, want[name]), name
        assert t.data.dtype == precision.dtype()
        if t.data.ndim == 5:
            assert is_tap_major(t.data), name


class TestWeightLayout:
    def test_new_model_holds_the_c_order_draw_tap_major(self):
        # the conv weights are drawn in C order, one after another from the
        # model seed's generator, as (C_out, C_in, kt, kh, kw)
        model = RainUNet(micro_cfg(), seed=9)
        rng = np.random.default_rng(9)
        want = {}
        for name, t in model.named_parameters():
            if name.endswith(".weight"):
                c_out, c_in, *k = t.shape
                bound = np.sqrt(1.0 / (c_in * int(np.prod(k))))
                want[name] = rng.uniform(-bound, bound, size=t.shape).astype(np.float32)
            else:
                want[name] = np.ones(t.shape) if name.endswith("gamma") else np.zeros(t.shape)
        assert_tap_major_equal(model, want)

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_loaded_models_hold_tap_major_weights(self, tmp_path, mode):
        model = RainUNet(micro_cfg(), seed=4)
        want = params_of(model)
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        with precision.use_precision(mode):
            assert_tap_major_equal(load_checkpoint(path), want)
        # built at the default precision, loaded at the current one
        other = RainUNet(micro_cfg(), seed=5)
        with precision.use_precision(mode):
            other.load_state(want)
            assert_tap_major_equal(other, want)
            assert not any(np.shares_memory(t.data, want[n]) for n, t in other.named_parameters())

    @pytest.mark.parametrize("mode", ["standard", "wide"])
    def test_loaded_parameters_are_writable_copies(self, tmp_path, monkeypatch, mode):
        # the parsed parameters are views into the file's buffer, each copied
        # once by the layer that takes it
        path = tmp_path / "model.runc"
        save_checkpoint(path, RainUNet(micro_cfg(), seed=4))
        buffers = []
        parse = model_module._parse_checkpoint
        monkeypatch.setattr(model_module, "_parse_checkpoint",
                            lambda raw: buffers.append(np.frombuffer(raw, np.uint8)) or parse(raw))
        with precision.use_precision(mode):
            loaded = load_checkpoint(path)
        _, views = parse(memoryview(path.read_bytes()))
        assert all(not v.flags.writeable for v in views.values())
        for _, t in loaded.named_parameters():
            assert t.data.flags.writeable and not np.shares_memory(t.data, buffers[0])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.runc", tmp_path / "b.runc"
        save_checkpoint(first, RainUNet(micro_cfg(), seed=6))
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_load_peak_is_one_model_plus_its_largest_parameter(self, tmp_path, traced_peak):
        # building from stored arrays copies each into its layer's tap-major
        # weight and drops the stored one, so the stored and the built model
        # are never both held whole. Beside the largest parameter's copy
        # there is the tensor's finiteness mask (1 byte per 4-byte element).
        model = RainUNet(RainUNetConfig(stages=3, base_channels=16), seed=4)
        sizes = [t.data.nbytes for _, t in model.named_parameters()]
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        with traced_peak() as peak:
            _, state = _parse_checkpoint(memoryview(raw))
            peak()  # counts from here
            loaded = RainUNet.from_state(model.config, state)
            load = peak()
        assert state == {}
        assert_tap_major_equal(loaded, params_of(model))
        assert load <= sum(sizes) + 1.25 * max(sizes) + 128 * 1024

    def test_build_peak_is_the_model_plus_one_piece(self, traced_peak):
        # each weight is drawn in float64 one piece at a time, straight into
        # its tap-major array; beside the parameters there is the tensor's
        # finiteness mask (1 byte per 4-byte element) and one piece's draw
        cfg = RainUNetConfig(stages=4, base_channels=16)
        with traced_peak() as peak:
            model = RainUNet(cfg, seed=4)
            build = peak()
        sizes = [t.data.nbytes for _, t in model.named_parameters()]
        assert max(sizes) // 4 > 2 * layers._PIECE  # the largest weight spans pieces
        assert build <= sum(sizes) + max(sizes) / 4 + layers._PIECE * 8 + 256 * 1024

    def test_save_peak_does_not_grow_with_the_model(self, tmp_path, traced_peak):
        # a tap-major weight goes out in C-order pieces from one buffer, each
        # checked (a mask of 1 byte per element) before it is written
        model = RainUNet(RainUNetConfig(stages=4, base_channels=16), seed=4)
        path = tmp_path / "model.runc"
        with traced_peak() as peak:
            save_checkpoint(path, model)
            save = peak()
        assert max(t.size for _, t in model.named_parameters()) > 2 * layers._PIECE
        assert save <= layers._PIECE * 5 + 256 * 1024
        assert_tap_major_equal(load_checkpoint(path), params_of(model))

    def test_non_finite_value_in_a_later_piece_keeps_the_last_checkpoint(self, tmp_path):
        # the writer has already written the weight's first pieces when it
        # finds the NaN in its last one
        model = RainUNet(RainUNetConfig(stages=4, base_channels=16), seed=4)
        path = tmp_path / "model.runc"
        save_checkpoint(path, model)
        before = path.read_bytes()
        params = {n: t.data for n, t in model.named_parameters()}
        name = max(params, key=lambda n: params[n].size)
        weight = params[name] = params[name].copy(order="K")
        assert is_tap_major(weight) and weight.size > 2 * layers._PIECE
        weight[-1, -1, -1, -1, -1] = np.nan
        with pytest.raises(FormatError, match="non-finite"):
            save_checkpoint_params(path, model.config, params)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.runc"]
