"""Sequence records, the RUNT tensor file format, the ``key = value`` config
text, CSV tables, preprocessing stages (modality selection, cleansing,
center crop) and a synthetic rain-movie generator used for desk-scale
experiments: 1 to 4 Gaussian blobs a sequence, of radius 3 to 7 pixels,
drifting 0 to 1.5 pixels a frame, with rain where their field reaches 0.4;
only the sequence count, frame size and seed vary. Every file the package
writes goes to disk through :func:`write_file`.

A record pairs a 4-frame multi-channel satellite movie with a 32-frame
binary rain mask on a 15-minute grid. Records hold plain numpy arrays;
the autodiff Tensor type is reserved for differentiable compute.
scipy is imported only by ``synth_generate``, for its blur.
"""

from __future__ import annotations

import csv
import math
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Literal, get_args, get_origin

import numpy as np


class FormatError(ValueError):
    """Malformed RUNT file, manifest, config text, command line or checkpoint."""


def write_file(path, chunks, size=None) -> None:
    """Write the bytes-like ``chunks``, in order, to ``<path>.tmp``, then move
    it onto ``path``. Any exception, one raised while a chunk is made
    included, removes the temp file and leaves ``path`` as it was. So a
    process killed at any point leaves ``path`` whole: its previous file or
    its new one. Nothing is fsynced: the promise covers a killed process,
    not a power cut.

    A ``size`` reserves that many bytes for the temp file before the first
    chunk (``os.posix_fallocate``, where the platform has it). A file whose
    blocks are reserved has none left to allocate when it replaces another,
    so the move does not wait for ext4 to write it out first (its
    ``auto_da_alloc``). The file is cut to the bytes written, so a wrong
    ``size`` costs speed, never bytes; the kill promise is the same."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if size and hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            fh.writelines(chunks)
            fh.truncate()
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """The ``header`` row, then each of ``rows``, as a CSV table with csv's
    quoting and ``\\r\\n`` line ends."""
    # writerow returns what write returns: here, the row's line as bytes
    line = csv.writer(SimpleNamespace(write=str.encode)).writerow
    write_file(path, (line(row) for row in [header, *rows]))


# ---------------------------------------------------------------------------
# RUNT tensor files: magic, u8 version, u8 dtype code, u8 ndim,
# ndim little-endian u32 extents, then the row-major payload.

_MAGIC = b"RUNT"
_VERSION = 1
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_DTYPE_TO_CODE = {dtype: code for code, dtype in _CODE_TO_DTYPE.items()}


def runt_header(dtype, shape) -> bytes:
    """The RUNT header of an array of ``dtype`` and ``shape``, or FormatError
    when such an array cannot be stored."""
    if dtype not in _DTYPE_TO_CODE:
        raise FormatError(f"unsupported dtype {dtype}; use f32, f64 or u8")
    if len(shape) < 1:
        raise FormatError("0-d tensors cannot be stored")
    head = _MAGIC + bytes([_VERSION, _DTYPE_TO_CODE[dtype], len(shape)])
    return head + b"".join(struct.pack("<I", s) for s in shape)


def runt_payload(arr) -> np.ndarray:
    """``arr``, or a piece of a payload in C order, as the C-contiguous
    little-endian array whose buffer is written; FormatError if it holds a
    non-finite value."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise FormatError("refusing to store non-finite values")
    return arr.astype(arr.dtype.newbyteorder("<"), copy=False)


def runt_chunks(arr: np.ndarray) -> list:
    """The RUNT file of ``arr``: its header, then its payload array."""
    # the header is checked on the array as given: np.ascontiguousarray
    # would make a 0-d array 1-d
    return [runt_header(arr.dtype, arr.shape), runt_payload(arr)]


def runt_view(blob) -> np.ndarray:
    """The array of one whole RUNT blob (bytes or memoryview) as a read-only
    view into ``blob``, or FormatError when the blob is malformed, cut short,
    carries trailing bytes or holds a non-finite value."""
    if blob[:4] != _MAGIC:
        raise FormatError(f"bad magic {bytes(blob[:4])!r}")
    if len(blob) < 7:
        raise FormatError("truncated header")
    version, code, ndim = blob[4], blob[5], blob[6]
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown dtype code {code}")
    if ndim < 1:
        raise FormatError("0-d tensors cannot be stored")
    off = 7
    if len(blob) < off + 4 * ndim:
        raise FormatError("truncated shape header")
    shape = struct.unpack_from(f"<{ndim}I", blob, off)
    off += 4 * ndim
    dtype = _CODE_TO_DTYPE[code]
    expected = off + math.prod(shape) * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(f"payload length {len(blob)} != expected {expected}")
    arr = np.frombuffer(blob, dtype=dtype, offset=off).reshape(shape)
    if dtype.kind == "f" and not np.all(np.isfinite(arr)):
        raise FormatError("tensor holds non-finite values")
    return arr


def tensor_file_write(arr: np.ndarray, path) -> None:
    write_file(path, runt_chunks(arr))


def tensor_file_read(path) -> np.ndarray:
    """The array of the RUNT file at ``path``; FormatError naming the file
    when it is not one."""
    try:
        return runt_view(Path(path).read_bytes()).copy()
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# config text, as in --config files, a checkpoint's model config and a run's
# run.txt manifest: one ``key = value`` line per setting; a ``#`` at a line's
# start or after whitespace starts a comment

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_COMMENT = re.compile(r"(?<!\S)#")


def config_text(values: dict) -> str:
    """One ``key = value`` line per item of ``values``: a tuple as its ints
    joined by commas, any other value as ``str(v)``. A value that would not
    read back as written (a line break, a comment's ``#``, or whitespace at
    either end) raises FormatError naming its key."""
    lines = []
    for key, v in values.items():
        v = ",".join(str(int(x)) for x in v) if isinstance(v, tuple) else str(v)
        if "".join(v.splitlines()) != v or _COMMENT.search(v) or v != v.strip():
            raise FormatError(f"{key}: {v!r} cannot be written as config text: it holds a "
                              "line break, a '#' that starts a comment or end whitespace")
        lines.append(f"{key} = {v}\n")
    return "".join(lines)


def parse_value(typ, raw: str, key: str, where: str):
    """``raw`` as the setting ``key`` of type ``typ``: a bool from true/1/yes
    or false/0/no, a ``Literal`` from one of its choices, anything else as
    ``typ(raw)``. A value its type rejects raises FormatError naming
    ``where``."""
    if get_origin(typ) is Literal:
        if raw not in get_args(typ):
            raise FormatError(f"{where}: {key} must be one of {', '.join(get_args(typ))}, "
                              f"got {raw!r}")
        return raw
    try:
        if typ is bool:
            return _BOOLS[raw.lower()]
        return typ(raw)
    except (KeyError, ValueError):
        raise FormatError(f"{where}: bad {typ.__name__} for {key}: {raw!r}") from None


def parse_config(text: str, types: dict, source: str) -> dict:
    """The settings of ``text``'s lines, each parsed by :func:`parse_value`
    as the type ``types`` maps its key to. A line without ``=``, a key not
    in ``types``, a key given twice or a value its type rejects raises
    FormatError naming ``source`` and the line."""
    values, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        where = f"{source} line {lineno}"
        if not sep or not key:
            raise FormatError(f"{where}: expected 'key = value'")
        if key not in types:
            raise FormatError(f"{where}: unknown config key {key!r}")
        if key in seen:
            raise FormatError(f"{where}: {key} given again, first on line {seen[key]}")
        seen[key] = lineno
        values[key] = parse_value(types[key], raw, key, where)
    return values


# ---------------------------------------------------------------------------
# channels

IR_CHANNELS = ("IR_016", "IR_039", "IR_087", "IR_097", "IR_108", "IR_120", "IR_134")
VIS_CHANNELS = ("VIS_006", "VIS_008")
WV_CHANNELS = ("WV_062", "WV_073")
CANONICAL_CHANNELS = IR_CHANNELS + VIS_CHANNELS + WV_CHANNELS


# each choice of the ``channels`` setting: its channels, in canonical order
CHANNEL_SETS = {
    "ir": IR_CHANNELS,
    "ir+vis": IR_CHANNELS + VIS_CHANNELS,
    "ir+wv": IR_CHANNELS + WV_CHANNELS,
    "ir+vis+wv": CANONICAL_CHANNELS,
}
DEFAULT_CHANNEL_SET = CHANNEL_SETS["ir+vis"]


# ---------------------------------------------------------------------------
# records

IN_FRAMES = 4
OUT_FRAMES = 32


@dataclass
class SequenceRecord:
    input: np.ndarray   # (C, 4, H, W) float32, values in [0, 1]
    target: np.ndarray  # (32, H, W) uint8, binary rain mask
    region: str
    start_time: int     # seconds, multiple of 900 (15-minute grid)

    def __post_init__(self):
        if self.input.ndim != 4 or self.input.shape[1] != IN_FRAMES:
            raise FormatError(f"input must be (C,{IN_FRAMES},H,W), got {self.input.shape}")
        if self.target.ndim != 3 or self.target.shape[0] != OUT_FRAMES:
            raise FormatError(f"target must be ({OUT_FRAMES},H,W), got {self.target.shape}")
        if self.target.dtype != np.uint8 or self.target.max(initial=0) > 1:
            raise FormatError("target must be a binary uint8 mask")
        if self.start_time % 900 != 0:
            raise FormatError("start_time must sit on the 15-minute grid")

    @property
    def positive_count(self) -> int:
        return int(self.target.sum())


def select_modalities(rec: SequenceRecord, channels: tuple[str, ...],
                      name: str = "record") -> np.ndarray:
    """Extract the named canonical channels, in the given order. Only valid
    on records that still carry the full canonical channel stack; the
    FormatError of another calls the record ``name``."""
    if rec.input.shape[0] != len(CANONICAL_CHANNELS):
        raise FormatError(
            f"{name} has {rec.input.shape[0]} channels, expected the canonical "
            f"{len(CANONICAL_CHANNELS)} before modality selection"
        )
    return rec.input[[CANONICAL_CHANNELS.index(n) for n in channels]]  # an index list copies


def cleansing_filter(records, threshold: int):
    """Drop records whose 32-frame positive-pixel total is below the
    threshold (non-rainy sequences). Returns (kept, removed_count)."""
    kept = [r for r in records if r.positive_count >= threshold]
    return kept, len(records) - len(kept)


def center_crop_window(side: int, factor: int) -> tuple[int, int]:
    """Bounds [lo, hi) of the central crop window. The target region is a
    sixth of the frame per axis; the window is ``factor`` target regions wide."""
    if not 1 <= factor <= 6:
        raise FormatError(f"crop_factor must be in [1, 6], got {factor}")
    if side % 6 != 0:
        raise FormatError(f"frame side {side} not divisible by 6")
    window = (side // 6) * factor
    lo = (side - window) // 2
    return lo, lo + window


def bilinear_resize(frames: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the trailing two axes with bilinear interpolation, sampling
    source coordinates at (i + 0.5) * scale - 0.5, clamped to the frame."""

    def axis(n_in, n_out):
        src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0, n_in - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    r0, r1, rw = axis(frames.shape[-2], out_h)
    c0, c1, cw = axis(frames.shape[-1], out_w)
    rows = frames[..., r0, :] * (1.0 - rw)[:, None] + frames[..., r1, :] * rw[:, None]
    out = rows[..., c0] * (1.0 - cw) + rows[..., c1] * cw
    return out.astype(frames.dtype)


def center_crop_resize(frames: np.ndarray, factor: int) -> np.ndarray:
    """Crop the central window (``factor`` target-region widths) and resize
    back to the full frame. Factor 6 is the whole frame and a bitwise
    identity. Applies to input movies only; targets are already at target
    region scale."""
    side = frames.shape[-1]
    if frames.shape[-2] != side:
        raise FormatError(f"expected square frames, got {frames.shape[-2:]}")
    lo, hi = center_crop_window(side, factor)
    if factor == 6:
        return frames.copy()
    return bilinear_resize(frames[..., lo:hi, lo:hi], side, side)


# ---------------------------------------------------------------------------
# synthetic rain movies

TOTAL_FRAMES = IN_FRAMES + OUT_FRAMES

# per-channel rendering of the rain field into fake radiances:
# (gain, offset, blur sigma); IR channels mid blur, VIS sharp, WV heavy blur
_CHANNEL_RENDER = {
    "IR_016": (1.00, 0.05, 1.2), "IR_039": (0.90, 0.10, 1.4),
    "IR_087": (1.10, 0.00, 1.0), "IR_097": (0.80, 0.15, 1.6),
    "IR_108": (1.20, 0.05, 1.1), "IR_120": (0.95, 0.20, 1.3),
    "IR_134": (0.85, 0.10, 1.5),
    "VIS_006": (1.30, 0.00, 0.6), "VIS_008": (1.25, 0.05, 0.7),
    "WV_062": (0.70, 0.25, 2.4), "WV_073": (0.75, 0.20, 2.6),
}

# synth_generate's fixed shape: blobs a sequence (both ends included), drift
# speed (pixels a frame), radius (pixels) and the field's rain level
BLOB_COUNT = (1, 4)
SPEED = (0.0, 1.5)
RADIUS = (3.0, 7.0)
RAIN_THRESHOLD = 0.4


@dataclass
class SynthConfig:
    sequences: int = 16
    size: int = 66
    seed: int = 0

    def validate(self) -> None:
        for name, low in (("sequences", 1), ("size", 8), ("seed", 0)):
            if getattr(self, name) < low:
                raise FormatError(f"{name} must be >= {low}, got {getattr(self, name)}")


def _rain_field(size, blobs, frame):
    """Sum of advected Gaussian blobs at one time step."""
    field = np.zeros((size, size), dtype=np.float64)
    yy, xx = np.mgrid[0:size, 0:size]
    for cy, cx, vy, vx, radius in blobs:
        py = cy + vy * frame
        px = cx + vx * frame
        field += np.exp(-((yy - py) ** 2 + (xx - px) ** 2) / (2.0 * radius**2))
    return field


def synth_generate(cfg: SynthConfig) -> list[SequenceRecord]:
    """Deterministic per seed. Each sequence has 1 to 4 Gaussian rain blobs
    (BLOB_COUNT) of radius 3 to 7 pixels (RADIUS), each drifting a constant
    0 to 1.5 pixels a frame (SPEED) across all 36 frames: the first 4
    render the 11 satellite channels (per-channel gain/offset/blur of the
    rain field, normalized to [0,1]), the last 32 threshold the field at
    0.4 (RAIN_THRESHOLD) into the mask, so rain seen in the inputs continues
    along its track into the targets. The blur is scipy's
    ``gaussian_filter``, imported here alone."""
    # scipy.ndimage takes longer to import than numpy; no other command needs it
    from scipy.ndimage import gaussian_filter

    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    records = []
    for i in range(cfg.sequences):
        n_blobs = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
        blobs = []
        for _ in range(n_blobs):
            cy, cx = rng.uniform(0, cfg.size, size=2)
            speed = rng.uniform(*SPEED)
            angle = rng.uniform(0, 2 * np.pi)
            radius = rng.uniform(*RADIUS)
            blobs.append((cy, cx, speed * np.sin(angle), speed * np.cos(angle), radius))

        fields = [_rain_field(cfg.size, blobs, f) for f in range(TOTAL_FRAMES)]
        inputs = np.zeros((len(CANONICAL_CHANNELS), IN_FRAMES, cfg.size, cfg.size), dtype=np.float32)
        for c, name in enumerate(CANONICAL_CHANNELS):
            gain, offset, sigma = _CHANNEL_RENDER[name]
            raw = np.stack([gaussian_filter(fields[f], sigma) * gain + offset
                            for f in range(IN_FRAMES)])
            span = raw.max() - raw.min()
            inputs[c] = 0.0 if span == 0 else (raw - raw.min()) / span
        target = np.stack([fields[IN_FRAMES + f] >= RAIN_THRESHOLD
                           for f in range(OUT_FRAMES)]).astype(np.uint8)
        records.append(SequenceRecord(
            input=inputs,
            target=target,
            region=f"R{i % 3}",
            start_time=900 * 36 * i,
        ))
    return records


# ---------------------------------------------------------------------------
# dataset directories: one input/target RUNT pair per record plus a
# line-oriented manifest (version header, then tab-separated
# key / positive count / region / start time)

MANIFEST_NAME = "manifest.txt"
_MANIFEST_HEADER = "RUNM\tv1"


@dataclass(frozen=True)
class ManifestEntry:
    key: str
    positive_count: int
    region: str
    start_time: int


def save_dataset(records, out_dir) -> Path:
    """Write ``records`` and their manifest to ``out_dir``. The manifest
    there is removed first and written last, so a rewrite cut short leaves
    no manifest: the directory then fails to load, never loading a mix of
    old and new records. Then each record file the new manifest does not
    list (left by an earlier, larger dataset) is removed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / MANIFEST_NAME
    manifest.unlink(missing_ok=True)
    keys = [f"seq{i:05d}" for i in range(len(records))]
    lines = [_MANIFEST_HEADER]
    for key, rec in zip(keys, records):
        tensor_file_write(rec.input.astype(np.float32), out / f"{key}_input.runt")
        tensor_file_write(rec.target, out / f"{key}_target.runt")
        lines.append(f"{key}\t{rec.positive_count}\t{rec.region}\t{rec.start_time}")
    write_file(manifest, [("\n".join(lines) + "\n").encode("utf-8")])
    listed = {f"{key}_{part}.runt" for key in keys for part in ("input", "target")}
    for path in out.glob("seq*.runt"):
        if re.fullmatch(r"seq\d{5,}_(input|target)\.runt", path.name) and path.name not in listed:
            path.unlink()
    return manifest


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at ``path``, or FormatError naming it as
    ``what`` and ``path``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{what} {path} is not UTF-8 text: {err}") from None


def read_manifest(path) -> list[ManifestEntry]:
    """The entries of a manifest. A malformed line, a key that would not
    name a file in the manifest's directory (empty, ``.``, ``..`` or holding
    ``/`` or ``\\``) or a key given twice raises FormatError naming the
    manifest and the line."""
    lines = read_text(path, "manifest").splitlines()
    if not lines or lines[0] != _MANIFEST_HEADER:
        raise FormatError(f"bad manifest header in {path}")
    entries, seen = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            key, count, region, start = line.split("\t")
            entries.append(ManifestEntry(key, int(count), region, int(start)))
        except ValueError:
            raise FormatError(f"{path} line {lineno}: bad manifest line: {line!r}") from None
        if key in ("", ".", "..") or "/" in key or "\\" in key:
            raise FormatError(f"{path} line {lineno}: key {key!r} must name a file in the "
                              "manifest's directory")
        if key in seen:
            raise FormatError(f"{path} line {lineno}: key {key!r} given again, first on line "
                              f"{seen[key]}")
        seen[key] = lineno
    return entries


def load_dataset(manifest_path) -> list[SequenceRecord]:
    """The records a manifest lists; FormatError naming the manifest and the
    record's key for a record that is not one or does not match its line."""
    base = Path(manifest_path).parent
    records = []
    for e in read_manifest(manifest_path):
        arrays = [tensor_file_read(base / f"{e.key}_{part}.runt") for part in ("input", "target")]
        where = f"{manifest_path} record {e.key}"
        try:
            rec = SequenceRecord(*arrays, region=e.region, start_time=e.start_time)
        except FormatError as err:
            raise FormatError(f"{where}: {err}") from None
        if rec.positive_count != e.positive_count:
            raise FormatError(f"{where}: manifest positive count {e.positive_count} != "
                              f"recomputed {rec.positive_count}")
        records.append(rec)
    return records
