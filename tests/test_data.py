from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import naive_bilinear_resize
from rainunet import data
from rainunet.data import (CANONICAL_CHANNELS, CHANNEL_SETS, IR_CHANNELS, VIS_CHANNELS,
                           WV_CHANNELS, FormatError, SequenceRecord,
                           TOTAL_FRAMES, SynthConfig, _rain_field, bilinear_resize,
                           center_crop_resize, center_crop_window, cleansing_filter, load_dataset,
                           read_manifest, runt_chunks, runt_view,
                           save_dataset, select_modalities, synth_generate,
                           tensor_file_read, tensor_file_write, write_csv, write_file)


def runt_bytes(arr) -> bytes:
    """The RUNT file of ``arr`` as one bytes object."""
    return b"".join(runt_chunks(arr))


def _replace_byte(blob: bytes, pos: int, value: int) -> bytes:
    return blob[:pos] + bytes([value]) + blob[pos + 1:]


# magic(4) + version/dtype/ndim(3) + 2 extents(8) + 6 f32(24) = 39 bytes
_VALID_BLOB = runt_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))


class TestWriteFile:
    @pytest.mark.parametrize("before", [None, b"old"], ids=["absent", "present"])
    def test_failure_while_making_a_chunk_leaves_the_path(self, tmp_path, before):
        path = tmp_path / "f.bin"
        if before is not None:
            path.write_bytes(before)

        def chunks():
            yield b"new"
            raise FormatError("bad chunk")

        with pytest.raises(FormatError, match="bad chunk"):
            write_file(path, chunks())
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if before is None else ["f.bin"])
        assert before is None or path.read_bytes() == before

    @pytest.mark.parametrize("size", [1, 5, 4096], ids=["smaller", "exact", "larger"])
    def test_reserved_size_leaves_exactly_the_chunks(self, tmp_path, size):
        # a size past the chunks leaves no trailing zeros; one short of them
        # still writes them all
        path = tmp_path / "f.bin"
        write_file(path, [b"ab", b"cde"], size)
        assert path.read_bytes() == b"abcde"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]

    def test_csv_quoting_and_line_ends(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x,y"], [2.5, 'q"']])
        assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n2.5,"q"""\r\n'


class TestRuntFormat:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_round_trip_bitwise(self, dtype):
        rng = np.random.default_rng(0)
        if dtype == np.uint8:
            arr = rng.integers(0, 255, size=(3, 4, 5)).astype(dtype)
        else:
            arr = rng.normal(size=(3, 4, 5)).astype(dtype)
        back = runt_view(runt_bytes(arr))
        assert back.dtype == arr.dtype
        assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))

    def test_file_round_trip(self, tmp_path):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        path = tmp_path / "t.runt"
        tensor_file_write(arr, path)
        assert np.array_equal(tensor_file_read(path), arr)

    def test_header_arithmetic(self):
        # magic(4) + version(1) + dtype(1) + ndim(1) + 2 extents(8) + 6 f32(24)
        blob = runt_bytes(np.zeros((2, 3), dtype=np.float32))
        assert len(blob) == 4 + 1 + 1 + 1 + 2 * 4 + 6 * 4 == 39

    def test_bad_magic(self):
        blob = b"XXXX" + runt_bytes(np.zeros(2, dtype=np.float32))[4:]
        with pytest.raises(FormatError, match="magic"):
            runt_view(blob)

    def test_bad_version(self):
        blob = bytearray(runt_bytes(np.zeros(2, dtype=np.float32)))
        blob[4] = 9
        with pytest.raises(FormatError, match="version"):
            runt_view(bytes(blob))

    def test_truncated_payload(self):
        blob = runt_bytes(np.zeros(4, dtype=np.float32))
        with pytest.raises(FormatError):
            runt_view(blob[:-2])

    def test_unsupported_dtype(self):
        with pytest.raises(FormatError):
            runt_bytes(np.zeros(2, dtype=np.int32))

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            runt_bytes(np.array([np.nan], dtype=np.float32))

    @pytest.mark.parametrize("scalar", [np.float32(1.5), np.array(1.5, dtype=np.float64)])
    def test_zero_d_array_rejected(self, scalar):
        # stored as shape (1,) it would decode to another shape than it had
        with pytest.raises(FormatError, match="0-d"):
            runt_bytes(scalar)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_on_decode(self, dtype, bad):
        blob = runt_bytes(np.zeros(3, dtype=dtype))
        blob = blob[:-dtype().itemsize] + np.array([bad], dtype=dtype).tobytes()
        with pytest.raises(FormatError, match="non-finite"):
            runt_view(blob)

    def test_zero_dims_rejected_on_decode(self):
        with pytest.raises(FormatError):
            runt_view(b"RUNT\x01\x00\x00\x00\x00\x00\x00")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=48),
        st.binary(max_size=48).map(lambda rest: b"RUNT\x01" + rest),
        st.tuples(st.integers(0, 38), st.integers(0, 255)).map(
            lambda pb: _replace_byte(_VALID_BLOB, *pb)),
        st.lists(st.floats(width=32), min_size=6, max_size=6).map(
            lambda vals: _VALID_BLOB[:15] + np.array(vals, dtype="<f4").tobytes()),
        st.integers(0, 38).map(lambda n: _VALID_BLOB[:n]),
        st.binary(min_size=1, max_size=8).map(lambda tail: _VALID_BLOB + tail),
    ))
    def test_decode_fuzz_gives_array_or_format_error(self, blob):
        try:
            arr = runt_view(blob)
        except FormatError:
            return
        assert isinstance(arr, np.ndarray) and arr.ndim >= 1
        if arr.dtype.kind == "f":
            assert np.all(np.isfinite(arr))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1),
           st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_round_trip_property(self, seed, shape):
        arr = np.random.default_rng(seed).normal(size=shape).astype(np.float64)
        assert np.array_equal(runt_view(runt_bytes(arr)), arr)


class TestChannels:
    def test_catalogue(self):
        assert len(CANONICAL_CHANNELS) == 11
        assert (len(IR_CHANNELS), len(VIS_CHANNELS), len(WV_CHANNELS)) == (7, 2, 2)
        assert CHANNEL_SETS["ir+vis+wv"] == IR_CHANNELS + VIS_CHANNELS + WV_CHANNELS

    def test_default_set_is_nine(self):
        assert len(CHANNEL_SETS["ir+vis"]) == 9


def make_record(seed=0, size=12, channels=11, positives=None):
    rng = np.random.default_rng(seed)
    target = np.zeros((32, size, size), dtype=np.uint8)
    if positives:
        flat = target.reshape(-1)
        flat[rng.choice(flat.size, size=positives, replace=False)] = 1
    return SequenceRecord(
        input=rng.random((channels, 4, size, size)).astype(np.float32),
        target=target,
        region="R1",
        start_time=900,
    )


class TestSelectModalities:
    def test_default_nine_channels(self):
        rec = make_record()
        out = select_modalities(rec, CHANNEL_SETS["ir+vis"])
        assert out.shape == (9, 4, 12, 12)
        assert np.array_equal(out[:7], rec.input[:7])

    def test_full_set_is_identity(self):
        rec = make_record()
        out = select_modalities(rec, CHANNEL_SETS["ir+vis+wv"])
        assert np.array_equal(out, rec.input)

    def test_ir_only_in_canonical_order(self):
        rec = make_record()
        out = select_modalities(rec, CHANNEL_SETS["ir"])
        assert out.shape[0] == 7
        for i, name in enumerate(IR_CHANNELS):
            assert np.array_equal(out[i], rec.input[CANONICAL_CHANNELS.index(name)])

    def test_requires_canonical_stack(self):
        rec = make_record(channels=9)
        with pytest.raises(FormatError):
            select_modalities(rec, CHANNEL_SETS["ir"])


class TestCleansing:
    def test_boundary(self):
        below = make_record(seed=1, positives=99)
        at = make_record(seed=2, positives=100)
        kept, removed = cleansing_filter([below, at], threshold=100)
        assert kept == [at] and removed == 1

    def test_all_zero_removed(self):
        kept, removed = cleansing_filter([make_record(seed=3)], threshold=100)
        assert kept == [] and removed == 1

    def test_partition_and_order(self):
        records = [make_record(seed=i, positives=50 * i) for i in range(5)]
        kept, removed = cleansing_filter(records, threshold=100)
        assert len(kept) + removed == len(records)
        assert kept == [r for r in records if r.positive_count >= 100]


class TestCenterCrop:
    def test_window_at_paper_scale(self):
        assert center_crop_window(252, 3) == (63, 189)
        assert center_crop_window(252, 1) == (105, 147)
        assert center_crop_window(252, 6) == (0, 252)

    def test_factor_range(self):
        for bad in (0, 7):
            with pytest.raises(FormatError):
                center_crop_window(252, bad)

    def test_side_divisibility(self):
        with pytest.raises(FormatError):
            center_crop_window(64, 3)

    def test_factor_six_is_bitwise_identity(self):
        frames = np.random.default_rng(4).random((2, 4, 36, 36)).astype(np.float32)
        out = center_crop_resize(frames, 6)
        assert np.array_equal(out, frames)

    def test_crop_then_resize(self):
        frames = np.random.default_rng(5).random((1, 1, 36, 36)).astype(np.float32)
        out = center_crop_resize(frames, 3)
        assert out.shape == frames.shape
        assert center_crop_window(36, 3) == (9, 27)
        want = bilinear_resize(frames[..., 9:27, 9:27], 36, 36)
        assert np.array_equal(out, want)

    def test_bilinear_matches_pixel_oracle(self):
        rng = np.random.default_rng(6)
        frame = rng.random((7, 5))
        got = bilinear_resize(frame, 11, 9)
        want = naive_bilinear_resize(frame, 11, 9)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_upscale_from_target_region(self):
        frames = np.random.default_rng(7).random((1, 1, 12, 12)).astype(np.float32)
        out = center_crop_resize(frames, 1)  # central 2x2 window scaled up
        assert out.shape == (1, 1, 12, 12)


class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(sequences=3, size=24, seed=11)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.input, rb.input)
            assert np.array_equal(ra.target, rb.target)

    def test_record_contract(self):
        rec = synth_generate(SynthConfig(sequences=1, size=24, seed=1))[0]
        assert rec.input.shape == (11, 4, 24, 24)
        assert rec.target.shape == (32, 24, 24)
        assert rec.input.min() >= 0.0 and rec.input.max() <= 1.0
        assert set(np.unique(rec.target)) <= {0, 1}

    def test_zero_blobs_all_removed_by_cleansing(self, monkeypatch):
        # the blob count is a constant, read by synth_generate at each call
        monkeypatch.setattr(data, "BLOB_COUNT", (0, 0))
        records = synth_generate(SynthConfig(sequences=3, size=24, seed=2))
        assert all(r.positive_count == 0 for r in records)
        kept, removed = cleansing_filter(records, threshold=100)
        assert kept == [] and removed == 3

    def test_only_three_settings(self):
        # the generator's shape is a set of constants, not settings
        assert [f.name for f in fields(SynthConfig)] == ["sequences", "size", "seed"]

    def test_static_blob_gives_the_same_field_every_frame(self):
        blobs = [(10.0, 13.5, 0.0, 0.0, 5.0), (3.0, 20.0, 0.0, 0.0, 8.0)]
        first = _rain_field(24, blobs, 0)
        assert first.max() > 0.5
        for frame in range(1, TOTAL_FRAMES):
            assert np.array_equal(_rain_field(24, blobs, frame), first)

    @pytest.mark.parametrize("frame", [1, 7, TOTAL_FRAMES - 1])
    def test_moving_blob_is_the_first_field_moved(self, frame):
        # a blob at frame f is, bit for bit, the frame-0 blob moved by f * v
        blobs = [(10.0, 13.5, 0.75, -1.25, 4.0), (3.0, 20.0, -0.5, 0.3, 6.5)]
        moved = [(cy + vy * frame, cx + vx * frame, vy, vx, r) for cy, cx, vy, vx, r in blobs]
        field = _rain_field(24, blobs, frame)
        assert np.array_equal(field, _rain_field(24, moved, 0))
        assert not np.array_equal(field, _rain_field(24, blobs, 0))


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        records = synth_generate(SynthConfig(sequences=3, size=24, seed=5))
        manifest = save_dataset(records, tmp_path / "ds")
        loaded = load_dataset(manifest)
        assert len(loaded) == 3
        for a, b in zip(records, loaded):
            assert np.array_equal(a.input, b.input)
            assert np.array_equal(a.target, b.target)
            assert (a.region, a.start_time) == (b.region, b.start_time)

    def test_smaller_rewrite_removes_the_unlisted_records(self, tmp_path):
        # a rewrite with fewer records removes the extra record files and
        # touches no other file in the directory
        ds = tmp_path / "ds"
        save_dataset(synth_generate(SynthConfig(sequences=5, size=24, seed=5)), ds)
        others = {"notes.txt": b"kept", "seq00004_pred.runt": b"kept", "seq9_input.runt": b"kept"}
        for name, raw in others.items():
            (ds / name).write_bytes(raw)
        records = synth_generate(SynthConfig(sequences=2, size=24, seed=6))
        manifest = save_dataset(records, ds)
        records_on_disk = {"manifest.txt"} | {f"seq{i:05d}_{part}.runt" for i in range(2)
                                              for part in ("input", "target")}
        assert {p.name for p in ds.iterdir()} == records_on_disk | set(others)
        assert all((ds / name).read_bytes() == raw for name, raw in others.items())
        assert [r.start_time for r in load_dataset(manifest)] == [r.start_time for r in records]

    def test_manifest_positive_counts_verified(self, tmp_path):
        records = synth_generate(SynthConfig(sequences=1, size=24, seed=6))
        manifest = save_dataset(records, tmp_path / "ds")
        header, line = manifest.read_text().splitlines()
        key, count, region, start = line.split("\t")
        manifest.write_text(f"{header}\n{key}\t{int(count) + 1}\t{region}\t{start}\n")
        with pytest.raises(FormatError, match="positive count"):
            load_dataset(manifest)

    def test_record_that_is_not_one_names_the_manifest_and_key(self, tmp_path):
        manifest = save_dataset(synth_generate(SynthConfig(sequences=1, size=24, seed=6)),
                                tmp_path / "ds")
        tensor_file_write(np.zeros((2, 3), dtype=np.float32), tmp_path / "ds" / "seq00000_input.runt")
        with pytest.raises(FormatError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest} record seq00000: input must be (C,4,H,W), got (2, 3)"

    def test_manifest_header_checked(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("not-a-manifest\n")
        with pytest.raises(FormatError):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["", ".", "..", "../ds/seq00000", "sub/seq00000",
                                     "sub\\seq00000", "/abs/seq00000"])
    def test_manifest_key_must_name_a_file_in_its_directory(self, tmp_path, key):
        path = tmp_path / "manifest.txt"
        path.write_text(f"RUNM\tv1\nseq00000\t0\tR0\t0\n{key}\t0\tR0\t0\n")
        with pytest.raises(FormatError) as err:
            read_manifest(path)
        assert str(err.value) == (f"{path} line 3: key {key!r} must name a file in the "
                                  "manifest's directory")

    def test_manifest_key_given_twice_rejected(self, tmp_path):
        # else the record would load twice
        manifest = save_dataset(synth_generate(SynthConfig(sequences=2, size=24, seed=5)),
                                tmp_path / "ds")
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines[:2], lines[1], *lines[2:]]) + "\n")
        with pytest.raises(FormatError) as err:
            load_dataset(manifest)
        assert str(err.value) == f"{manifest} line 3: key 'seq00000' given again, first on line 2"

    def test_manifest_non_integer_count_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("RUNM\tv1\nseq00000\tmany\tR0\t0\n")
        with pytest.raises(FormatError, match="bad manifest line"):
            read_manifest(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda rest: b"RUNM\tv1\n" + rest),
        st.lists(st.lists(st.text("0123456789-+_ Rseq\u00e9x", max_size=6),
                          min_size=1, max_size=5).map("\t".join), max_size=4)
        .map(lambda lines: "\n".join(["RUNM\tv1", *lines]).encode("utf-8")),
    ))
    def test_manifest_fuzz_gives_entries_or_format_error(self, tmp_path, raw):
        path = tmp_path / "manifest.txt"
        path.write_bytes(raw)
        try:
            entries = read_manifest(path)
        except FormatError:
            return
        for e in entries:
            assert isinstance(e.positive_count, int) and isinstance(e.start_time, int)

    def test_record_validation(self):
        with pytest.raises(FormatError):
            SequenceRecord(np.zeros((9, 3, 8, 8), dtype=np.float32),
                           np.zeros((32, 8, 8), dtype=np.uint8), "R0", 0)
        with pytest.raises(FormatError):
            SequenceRecord(np.zeros((9, 4, 8, 8), dtype=np.float32),
                           np.full((32, 8, 8), 2, dtype=np.uint8), "R0", 0)
        with pytest.raises(FormatError):
            SequenceRecord(np.zeros((9, 4, 8, 8), dtype=np.float32),
                           np.zeros((32, 8, 8), dtype=np.uint8), "R0", 1000)
