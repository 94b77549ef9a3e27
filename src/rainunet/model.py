"""The hierarchical U-shaped rain nowcasting network.

Encoder: ``stages`` repetitions of a temporal-wise separable block (TS block)
followed by 3D max pooling. Decoder: mirrored stages of transposed-conv
upsampling (halve channels, double the pooled axes), concatenation with the
matching encoder feature, and another TS block. A 1x1x1 head maps to one
output channel per lead time, averages over the residual temporal axis and
applies a sigmoid.

A TS block is a 1x1x1 projection (norm + relu) followed by factorized 3D
convolution: spatial 1x3x3, spatially dilated 1x7x7 (dilation 3), temporal
3x1x1, then norm + relu. The dilated middle stage is what buys the large
spatial receptive field (21 pixels per block) at stride 1.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import data as dataio
from .layers import Conv3DLayer, ConvSpec, GroupNormLayer, conv3d, conv3d_transposed, group_norm, maxpool3d
from .tensor import Tensor, TensorError, concat, crop, mean_axis, relu, sigmoid, zero_pad

Triple = tuple[int, int, int]


@dataclass
class RainUNetConfig:
    stages: int = 5
    base_channels: int = 16
    in_channels: int = 9
    in_frames: int = 4
    out_frames: int = 32
    sconv_kernel: Triple = (1, 3, 3)
    tsdconv_kernel: Triple = (1, 7, 7)
    tsdconv_dilation: Triple = (1, 3, 3)
    tconv_kernel: Triple = (3, 1, 1)
    groupnorm_groups: int = 8
    head_mode: str = "time-mean"

    def stage_width(self, k: int) -> int:
        """Channel width at stage k (1-based): base doubled per stage."""
        return self.base_channels * 2 ** (k - 1)

    def temporal_pool_kernels(self) -> list[int]:
        """Per-stage temporal pool kernel: 2 while frames remain, else 1,
        so 4 input frames survive a deep encoder (4 -> 2 -> 1 -> 1 ...)."""
        t = self.in_frames
        kernels = []
        for _ in range(self.stages):
            k = 2 if t >= 2 else 1
            kernels.append(k)
            t //= k
        return kernels

    def validate(self) -> None:
        if self.stages < 1:
            raise TensorError("stages must be >= 1")
        if min(self.base_channels, self.in_channels, self.in_frames, self.out_frames,
               self.groupnorm_groups) < 1:
            raise TensorError("channel/frame/group counts must be positive")
        if self.head_mode != "time-mean":
            raise TensorError(f"unknown head_mode {self.head_mode!r}")
        for k in range(1, self.stages + 1):
            _effective_groups(self.stage_width(k), self.groupnorm_groups)
        # same-size specs must exist for the three factorized convs
        ConvSpec.same_size(self.sconv_kernel)
        ConvSpec.same_size(self.tsdconv_kernel, self.tsdconv_dilation)
        ConvSpec.same_size(self.tconv_kernel)


def _effective_groups(channels: int, groups: int) -> int:
    if channels % groups == 0:
        return groups
    if channels < groups:
        return 1
    raise TensorError(f"width {channels} not divisible by {groups} normalization groups")


class TSBlock:
    """Temporal-wise separable block: projection then factorized 3D conv."""

    def __init__(self, in_channels: int, out_channels: int, cfg: RainUNetConfig,
                 rng: np.random.Generator):
        g = _effective_groups(out_channels, cfg.groupnorm_groups)
        self.proj = Conv3DLayer(in_channels, out_channels, ConvSpec.same_size((1, 1, 1)), rng)
        self.proj_norm = GroupNormLayer(out_channels, g)
        self.spatial = Conv3DLayer(out_channels, out_channels, ConvSpec.same_size(cfg.sconv_kernel), rng)
        self.dilated = Conv3DLayer(
            out_channels, out_channels, ConvSpec.same_size(cfg.tsdconv_kernel, cfg.tsdconv_dilation), rng
        )
        self.temporal = Conv3DLayer(out_channels, out_channels, ConvSpec.same_size(cfg.tconv_kernel), rng)
        self.out_norm = GroupNormLayer(out_channels, g)

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(group_norm(conv3d(x, self.proj), self.proj_norm))
        h = conv3d(conv3d(conv3d(h, self.spatial), self.dilated), self.temporal)
        return relu(group_norm(h, self.out_norm))

    def conv_path(self, x: Tensor) -> Tensor:
        """Convolutions only, no normalization or activation. Group norm
        couples every voxel of a group through its statistics, so this linear
        pathway is the one whose impulse response shows the geometric
        receptive field."""
        h = conv3d(x, self.proj)
        return conv3d(conv3d(conv3d(h, self.spatial), self.dilated), self.temporal)

    def parameters(self):
        out = []
        for name, mod in (("proj", self.proj), ("proj_norm", self.proj_norm),
                          ("spatial", self.spatial), ("dilated", self.dilated),
                          ("temporal", self.temporal), ("out_norm", self.out_norm)):
            out.extend((f"{name}.{p}", t) for p, t in mod.parameters())
        return out


class RainUNet:
    def __init__(self, cfg: RainUNetConfig, seed: int = 0):
        cfg.validate()
        self.config = cfg
        rng = np.random.default_rng(seed)
        t_kernels = cfg.temporal_pool_kernels()

        self.encoder: list[TSBlock] = []
        prev = cfg.in_channels
        for k in range(1, cfg.stages + 1):
            self.encoder.append(TSBlock(prev, cfg.stage_width(k), cfg, rng))
            prev = cfg.stage_width(k)

        # decoder runs from the deepest stage back to stage 1; each upsample
        # halves channels and doubles exactly the axes its stage pooled
        self.decoder: list[tuple[int, Conv3DLayer, TSBlock]] = []
        carry = cfg.stage_width(cfg.stages)
        for k in range(cfg.stages, 0, -1):
            up_spec = ConvSpec.upsample((t_kernels[k - 1] == 2, True, True))
            up = Conv3DLayer(carry, max(1, carry // 2), up_spec, rng)
            block = TSBlock(max(1, carry // 2) + cfg.stage_width(k), cfg.stage_width(k), cfg, rng)
            self.decoder.append((k, up, block))
            carry = cfg.stage_width(k)

        self.head = Conv3DLayer(cfg.stage_width(1), cfg.out_frames, ConvSpec.same_size((1, 1, 1)), rng)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Stable enumeration: encoder stages, decoder stages (deepest
        first, matching forward order), then the head."""
        out = []
        for i, block in enumerate(self.encoder, start=1):
            out.extend((f"enc{i}.{n}", t) for n, t in block.parameters())
        for k, up, block in self.decoder:
            out.extend((f"dec{k}.up.{n}", t) for n, t in up.parameters())
            out.extend((f"dec{k}.block.{n}", t) for n, t in block.parameters())
        out.extend((f"head.{n}", t) for n, t in self.head.parameters())
        return out

    @property
    def num_parameters(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        if set(state) != set(params):
            missing = sorted(set(params) - set(state))
            extra = sorted(set(state) - set(params))
            raise TensorError(f"parameter name mismatch: missing {missing}, unexpected {extra}")
        for name, arr in state.items():
            t = params[name]
            if tuple(arr.shape) != t.shape:
                raise TensorError(
                    f"shape mismatch for {name}: checkpoint {tuple(arr.shape)}, model {t.shape}"
                )
            t.data = np.asarray(arr, dtype=t.data.dtype).copy()

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.data.ndim != 5:
            raise TensorError(f"input must be (N,C,T,H,W), got {x.shape}")
        if x.shape[1] != cfg.in_channels or x.shape[2] != cfg.in_frames:
            raise TensorError(
                f"input (C,T)=({x.shape[1]},{x.shape[2]}) but model expects "
                f"({cfg.in_channels},{cfg.in_frames})"
            )
        t_kernels = cfg.temporal_pool_kernels()
        skips: list[Tensor] = []
        cur = x
        for k in range(1, cfg.stages + 1):
            cur = self.encoder[k - 1](cur)
            skips.append(cur)
            if cur.shape[3] < 2 or cur.shape[4] < 2:
                raise TensorError(
                    f"spatial extent {cur.shape[3:]} too small to pool at stage {k}; "
                    f"input needs H,W >= 2^{cfg.stages}"
                )
            cur = maxpool3d(cur, (t_kernels[k - 1], 2, 2))
        for k, up, block in self.decoder:
            cur = conv3d_transposed(cur, up)
            cur = _match_extents(cur, skips[k - 1].shape[2:])
            cur = concat([cur, skips[k - 1]], axis=1)
            cur = block(cur)
        logits = conv3d(cur, self.head)
        return sigmoid(mean_axis(logits, 2))

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _match_extents(t: Tensor, target: tuple[int, int, int]) -> Tensor:
    """Reconcile decoder extents with the stored skip extents. Floor pooling
    of an odd extent loses a slice that doubling cannot restore, so the
    decoder side is zero-padded (extra slice at the high index); a surplus is
    center-cropped the same way."""
    current = t.shape[2:]
    if current == tuple(target):
        return t
    crops = [(0, t.shape[0]), (0, t.shape[1])]
    pads = [(0, 0), (0, 0)]
    need_crop = need_pad = False
    for cur, tgt in zip(current, target):
        if cur > tgt:
            lo = (cur - tgt) // 2
            crops.append((lo, lo + tgt))
            pads.append((0, 0))
            need_crop = True
        elif cur < tgt:
            deficit = tgt - cur
            crops.append((0, cur))
            pads.append((deficit // 2, deficit - deficit // 2))
            need_pad = True
        else:
            crops.append((0, cur))
            pads.append((0, 0))
    if need_crop:
        t = crop(t, crops)
    if need_pad:
        t = zero_pad(t, pads)
    return t


# ---------------------------------------------------------------------------
# receptive field arithmetic


def _compose_spans(spans: list[tuple[Triple, Triple]]) -> Triple:
    """Receptive field of a chain of (effective kernel, stride) layers."""
    rf = [1, 1, 1]
    jump = [1, 1, 1]
    for eff, stride in spans:
        for i in range(3):
            rf[i] += (eff[i] - 1) * jump[i]
            jump[i] *= stride[i]
    return tuple(rf)


def _ts_block_spans(cfg: RainUNetConfig) -> list[tuple[Triple, Triple]]:
    one = (1, 1, 1)
    return [
        (ConvSpec.same_size((1, 1, 1)).effective(), one),
        (ConvSpec.same_size(cfg.sconv_kernel).effective(), one),
        (ConvSpec.same_size(cfg.tsdconv_kernel, cfg.tsdconv_dilation).effective(), one),
        (ConvSpec.same_size(cfg.tconv_kernel).effective(), one),
    ]


def receptive_field(cfg: RainUNetConfig, blocks: int = 1) -> Triple:
    """Analytic receptive field of ``blocks`` stacked TS blocks (no pooling)."""
    return _compose_spans(_ts_block_spans(cfg) * blocks)


def encoder_receptive_field(cfg: RainUNetConfig) -> Triple:
    """Analytic receptive field of the full encoder, pooling included."""
    spans: list[tuple[Triple, Triple]] = []
    for kt in cfg.temporal_pool_kernels():
        spans.extend(_ts_block_spans(cfg))
        pool = (kt, 2, 2)
        spans.append((pool, pool))
    return _compose_spans(spans)


# ---------------------------------------------------------------------------
# checkpoint file: magic, version, config text, then one tensor-format blob
# per parameter keyed by its enumeration name

_CKPT_MAGIC = b"RUNC"
_CKPT_VERSION = 1
_TUPLE_FIELDS = {"sconv_kernel", "tsdconv_kernel", "tsdconv_dilation", "tconv_kernel"}


def config_to_text(cfg: RainUNetConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in _TUPLE_FIELDS:
            v = ",".join(str(int(x)) for x in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> RainUNetConfig:
    known = {f.name: f for f in fields(RainUNetConfig)}
    kwargs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise TensorError(f"unknown config key {key!r} in checkpoint")
        if key in _TUPLE_FIELDS:
            kwargs[key] = tuple(int(x) for x in value.split(","))
        elif key == "head_mode":
            kwargs[key] = value
        else:
            kwargs[key] = int(value)
    return RainUNetConfig(**kwargs)


def save_checkpoint_params(path, cfg: RainUNetConfig, params: dict[str, np.ndarray]) -> None:
    """Write the checkpoint to ``<path>.tmp`` and move it onto ``path``, so a
    failure part-way (such as a parameter that cannot be encoded) leaves the
    previous checkpoint at ``path`` whole."""
    cfg_bytes = config_to_text(cfg).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(struct.pack("<B", _CKPT_VERSION))
            fh.write(struct.pack("<I", len(cfg_bytes)))
            fh.write(cfg_bytes)
            fh.write(struct.pack("<I", len(params)))
            for name, arr in params.items():
                # the array's own buffer is written: no bytes copy of it is made
                head, payload = dataio.runt_header(arr)
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<I", len(head) + payload.nbytes))
                fh.write(head)
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path, model: RainUNet) -> None:
    save_checkpoint_params(path, model.config, dict((n, t.data) for n, t in model.named_parameters()))


def _parse_checkpoint(raw: memoryview) -> tuple[bytes, dict[str, np.ndarray]]:
    """Split a checkpoint into config text and parameters; every read is bounds-checked."""
    off = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise dataio.FormatError(f"checkpoint truncated at byte {len(raw)} (needs {off + n})")
        off += n
        return raw[off - n : off]

    def unpack(fmt: str) -> int:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    if take(4) != _CKPT_MAGIC:
        raise dataio.FormatError(f"bad checkpoint magic {bytes(raw[:4])!r}")
    version = unpack("<B")
    if version != _CKPT_VERSION:
        raise dataio.FormatError(f"unsupported checkpoint version {version}")
    cfg_text = bytes(take(unpack("<I")))
    params: dict[str, np.ndarray] = {}
    for _ in range(unpack("<I")):
        name = str(take(unpack("<H")), "utf-8", "replace")  # a bad name fails load_state
        blob = take(unpack("<I"))
        if name in params:
            raise dataio.FormatError(f"parameter {name!r} stored twice")
        params[name] = dataio.runt_decode(blob)
    if off != len(raw):
        raise dataio.FormatError(f"{len(raw) - off} trailing bytes after the last parameter")
    return cfg_text, params


def load_checkpoint(path) -> RainUNet:
    """Read a checkpoint written by ``save_checkpoint``. A file that is cut
    short, carries trailing bytes, holds a non-finite value or whose
    parameters do not fit its config raises FormatError."""
    with open(path, "rb") as fh:
        cfg_text, params = _parse_checkpoint(memoryview(fh.read()))
    # the file's buffer is freed here, before the model is built, to lower the peak
    try:
        model = RainUNet(config_from_text(str(cfg_text, "utf-8")), seed=0)
        model.load_state(params)
    except (TensorError, ValueError) as err:
        raise dataio.FormatError(f"checkpoint does not describe a model: {err}") from None
    return model
