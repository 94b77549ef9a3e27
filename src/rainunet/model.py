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

The paper has one architecture, so the TS block's geometry (kernels and
dilation), the normalization group count and the frame counts (4 in, 32
out, as data.IN_FRAMES and OUT_FRAMES) are constants; a RainUNetConfig
holds only the stage count, the base width and the input channel count.
The checkpoint's config block keeps the constants as its fixed tail, under
the setting names they once had, so checkpoints from before and after they
became constants are byte-identical, and a checkpoint whose tail differs is
refused as another model.

On small maps the deep stages' large kernel is mostly inert: a tap whose
reads fall wholly in the padding never gets a gradient (at 36x36, stage 5's
dilated conv has one live tap of 49). Such a weight only decays under AdamW,
so a model evaluated on maps larger than it was trained on uses decayed
initial weights at those taps.
"""

from __future__ import annotations

import struct
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from . import data as dataio
from .layers import (Conv3DLayer, ConvSpec, GroupNormLayer, c_order_pieces, conv3d,
                     conv3d_transposed, group_norm, maxpool3d)
from .tensor import Tensor, TensorError, concat, mean_axis, relu, sigmoid, zero_pad

# The paper's one architecture: the TS block's factorized conv kernels, the
# dilation of its middle conv and the normalization group count.
SCONV_KERNEL = (1, 3, 3)
TSDCONV_KERNEL, TSDCONV_DILATION = (1, 7, 7), (1, 3, 3)
TCONV_KERNEL = (3, 1, 1)
GROUPNORM_GROUPS = 8

# The constants as the settings they once were, in the order the checkpoint's
# config block lists them after the RainUNetConfig fields
_FIXED = dict(in_frames=dataio.IN_FRAMES, out_frames=dataio.OUT_FRAMES, sconv_kernel=SCONV_KERNEL,
              tsdconv_kernel=TSDCONV_KERNEL, tsdconv_dilation=TSDCONV_DILATION,
              tconv_kernel=TCONV_KERNEL, groupnorm_groups=GROUPNORM_GROUPS, head_mode="time-mean")
_FIXED_TEXT = dataio.config_text(_FIXED)


@dataclass
class RainUNetConfig:
    stages: int = 5
    base_channels: int = 16
    in_channels: int = 9
    # constants, not fields: unannotated, so no config text can set them
    in_frames = dataio.IN_FRAMES
    out_frames = dataio.OUT_FRAMES

    def block(self) -> dict:
        """The config block of a checkpoint and of a run's run.txt: the
        fields, then the architecture's constants under their setting names."""
        return {**asdict(self), **_FIXED}

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

    def check_input(self, shape) -> None:
        """Raise TensorError, naming the setting, unless an input of ``shape``
        (N, C, T, H, W) fits: C is in_channels, T is in_frames, and H and W
        are at least 2^stages, so that every stage has a 2x2 window to pool."""
        if len(shape) != 5:
            raise TensorError(f"input must be (N,C,T,H,W), got {tuple(shape)}")
        _, c, t, h, w = shape
        if (c, t) != (self.in_channels, self.in_frames):
            raise TensorError(f"input (C,T)=({c},{t}) but in_channels, in_frames = "
                              f"{self.in_channels}, {self.in_frames}")
        if min(h, w) < 2**self.stages:
            raise TensorError(f"input H,W ({h}, {w}) too small for stages = {self.stages}: "
                              f"each must be >= 2^{self.stages}")

    def validate(self) -> None:
        for name in ("stages", "base_channels", "in_channels"):
            if getattr(self, name) < 1:
                raise TensorError(f"{name} must be >= 1, got {getattr(self, name)}")
        for k in range(1, self.stages + 1):
            width = self.stage_width(k)
            if width % _effective_groups(width):
                raise TensorError(f"base_channels must give stage widths divisible by "
                                  f"{GROUPNORM_GROUPS} normalization groups, got "
                                  f"{self.base_channels}: stage {k} is {width} wide")


def _effective_groups(channels: int) -> int:
    """The group count of a norm over ``channels``: GROUPNORM_GROUPS, or 1
    below that many channels. GroupNormLayer checks that it divides them."""
    return GROUPNORM_GROUPS if channels >= GROUPNORM_GROUPS else 1


class _Params:
    """The parameter source of a model being built: a new model's, drawing
    from ``rng``, or a loaded model's, taking the arrays of ``state``. Each
    layer gets its scoped name (``enc1.proj_norm``) and each of its
    parameters ``take(f"{name}.weight", shape)``. Every layer built is
    appended to ``layers``, which all scopes share."""

    def __init__(self, state: dict[str, np.ndarray] | None = None,
                 rng: np.random.Generator | None = None, prefix: str = "",
                 layers: list | None = None):
        self.state = state
        self.rng = rng
        self.prefix = prefix
        self.layers = [] if layers is None else layers

    def scope(self, prefix: str) -> "_Params":
        return _Params(self.state, self.rng, f"{self.prefix}{prefix}.", self.layers)

    def take(self, name: str, shape: tuple) -> np.ndarray | None:
        """None for a new model: each conv draws its weights from ``rng`` in
        construction order and each norm starts at the identity. For a loaded
        model, the array of ``state`` under ``name``, checked against the
        shape its layer needs before that layer is made (so a config
        describing a larger model fails before allocating it), and popped, so
        it leaves the dict once its layer holds a copy."""
        if self.state is None:
            return None
        if name not in self.state:
            raise TensorError(f"parameter {name} missing")
        if tuple(self.state[name].shape) != shape:
            raise TensorError(f"shape mismatch for {name}: checkpoint "
                              f"{tuple(self.state[name].shape)}, model {shape}")
        return self.state.pop(name)

    def conv(self, name, c_in, c_out, spec) -> Conv3DLayer:
        name = self.prefix + name
        layer = Conv3DLayer(c_in, c_out, spec, self.rng,
                            weight=self.take(f"{name}.weight", (c_out, c_in, *spec.kernel)),
                            bias=self.take(f"{name}.bias", (c_out,)), name=name)
        self.layers.append(layer)
        return layer

    def norm(self, name, channels, groups) -> GroupNormLayer:
        name = self.prefix + name
        layer = GroupNormLayer(channels, groups, gamma=self.take(f"{name}.gamma", (channels,)),
                               beta=self.take(f"{name}.beta", (channels,)), name=name)
        self.layers.append(layer)
        return layer


class TSBlock:
    """Temporal-wise separable block: projection then factorized 3D conv."""

    def __init__(self, in_channels: int, out_channels: int, rng):
        """``rng`` is the generator that draws the weights, or the parameter
        source of the model being built."""
        params = rng if isinstance(rng, _Params) else _Params(rng=rng)
        g = _effective_groups(out_channels)
        self.proj = params.conv("proj", in_channels, out_channels, ConvSpec.same_size((1, 1, 1)))
        self.proj_norm = params.norm("proj_norm", out_channels, g)
        self.spatial = params.conv("spatial", out_channels, out_channels,
                                   ConvSpec.same_size(SCONV_KERNEL))
        self.dilated = params.conv("dilated", out_channels, out_channels,
                                   ConvSpec.same_size(TSDCONV_KERNEL, TSDCONV_DILATION))
        self.temporal = params.conv("temporal", out_channels, out_channels,
                                    ConvSpec.same_size(TCONV_KERNEL))
        self.out_norm = params.norm("out_norm", out_channels, g)

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(group_norm(conv3d(x, self.proj), self.proj_norm))
        h = conv3d(conv3d(conv3d(h, self.spatial), self.dilated), self.temporal)
        return relu(group_norm(h, self.out_norm))


class RainUNet:
    def __init__(self, cfg: RainUNetConfig, seed: int = 0):
        self._build(cfg, _Params(rng=np.random.default_rng(seed)))

    @classmethod
    def from_state(cls, cfg: RainUNetConfig, state: dict[str, np.ndarray]) -> "RainUNet":
        """The model ``cfg`` describes, holding copies of the arrays of
        ``state`` (cast to the current precision) instead of drawn weights.
        Each array leaves ``state`` as it is copied. Raises TensorError when
        a name or a shape does not fit ``cfg``."""
        model = cls.__new__(cls)
        model._build(cfg, _Params(state))
        if state:
            raise TensorError(f"parameters not in the model: {sorted(state)}")
        return model

    def _build(self, cfg: RainUNetConfig, params: _Params) -> None:
        cfg.validate()
        self.config = cfg
        self.layers = params.layers  # every conv and norm, in construction order
        t_kernels = cfg.temporal_pool_kernels()

        self.encoder: list[TSBlock] = []
        prev = cfg.in_channels
        for k in range(1, cfg.stages + 1):
            self.encoder.append(TSBlock(prev, cfg.stage_width(k), params.scope(f"enc{k}")))
            prev = cfg.stage_width(k)

        # decoder runs from the deepest stage back to stage 1; each upsample
        # halves channels and doubles exactly the axes its stage pooled
        self.decoder: list[tuple[int, Conv3DLayer, TSBlock]] = []
        carry = cfg.stage_width(cfg.stages)
        for k in range(cfg.stages, 0, -1):
            up_spec = ConvSpec.upsample((t_kernels[k - 1] == 2, True, True))
            up = params.scope(f"dec{k}").conv("up", carry, max(1, carry // 2), up_spec)
            block = TSBlock(max(1, carry // 2) + cfg.stage_width(k), cfg.stage_width(k),
                            params.scope(f"dec{k}.block"))
            self.decoder.append((k, up, block))
            carry = cfg.stage_width(k)

        self.head = params.conv("head", cfg.stage_width(1), cfg.out_frames, ConvSpec.same_size((1, 1, 1)))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Stable enumeration in construction order: encoder stages, decoder
        stages (deepest first, matching forward order), then the head."""
        return [(f"{layer.name}.{n}", t) for layer in self.layers for n, t in layer.parameters()]

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace this model's layers by those :meth:`from_state` builds
        from ``state`` under its config, holding copies of its arrays cast
        to the current precision; ``state`` itself is left whole. Raises
        TensorError, leaving the model untouched, when a name or a shape
        does not fit."""
        built = self.from_state(self.config, dict(state))
        self.encoder, self.decoder, self.head = built.encoder, built.decoder, built.head
        self.layers = built.layers

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        cfg.check_input(x.shape)
        t_kernels = cfg.temporal_pool_kernels()
        skips: list[Tensor] = []
        cur = x
        for k in range(1, cfg.stages + 1):
            cur = self.encoder[k - 1](cur)
            skips.append(cur)
            cur = maxpool3d(cur, (t_kernels[k - 1], 2, 2))
        for k, up, block in self.decoder:
            cur = conv3d_transposed(cur, up)
            cur = _match_extents(cur, skips[k - 1].shape[2:])
            cur = concat([cur, skips[k - 1]], axis=1)
            cur = block(cur)
        logits = conv3d(cur, self.head)
        return sigmoid(mean_axis(logits, 2))


def _match_extents(t: Tensor, target: tuple[int, int, int]) -> Tensor:
    """Zero-pad the decoder side up to the stored skip extents, at the high
    index. It never needs a crop: floor pooling by k and doubling back give
    k * (n // k) <= n on every axis."""
    if t.shape[2:] == tuple(target):
        return t
    return zero_pad(t, [(0, 0), (0, 0)] + [(0, tgt - cur) for cur, tgt in zip(t.shape[2:], target)])


# ---------------------------------------------------------------------------
# checkpoint file: magic, version, config text (data.config_text of
# RainUNetConfig.block), then one tensor-format blob per parameter keyed by
# its enumeration name

_CKPT_MAGIC = b"RUNC"
_CKPT_VERSION = 1


def save_checkpoint_params(path, cfg: RainUNetConfig, params: dict[str, np.ndarray]) -> None:
    """Write the checkpoint through data.write_file, so a failure part-way
    (such as a parameter that cannot be encoded, found in the piece that
    holds it) leaves the previous checkpoint at ``path`` whole."""
    dataio.write_file(path, _checkpoint_chunks(cfg, params))


def _checkpoint_chunks(cfg: RainUNetConfig, params: dict[str, np.ndarray]):
    cfg_bytes = dataio.config_text(cfg.block()).encode("utf-8")
    yield _CKPT_MAGIC + struct.pack("<BI", _CKPT_VERSION, len(cfg_bytes)) + cfg_bytes
    yield struct.pack("<I", len(params))
    for name, arr in params.items():
        # the payload goes out in C-order pieces, views of the array or of
        # one piece buffer, each checked before it is written
        head = dataio.runt_header(arr.dtype, arr.shape)
        name_b = name.encode("utf-8")
        yield struct.pack("<H", len(name_b)) + name_b
        yield struct.pack("<I", len(head) + arr.nbytes) + head
        yield from map(dataio.runt_payload, c_order_pieces(arr))


def save_checkpoint(path, model: RainUNet) -> None:
    save_checkpoint_params(path, model.config, dict((n, t.data) for n, t in model.named_parameters()))


def _parse_checkpoint(raw: memoryview) -> tuple[bytes, dict[str, np.ndarray]]:
    """Split a checkpoint into config text and parameters, read-only views
    into ``raw``; every read is bounds-checked."""
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
        name = str(take(unpack("<H")), "utf-8", "replace")  # a bad name fails the build
        blob = take(unpack("<I"))
        if name in params:
            raise dataio.FormatError(f"parameter {name!r} stored twice")
        params[name] = dataio.runt_view(blob)
    if off != len(raw):
        raise dataio.FormatError(f"{len(raw) - off} trailing bytes after the last parameter")
    return cfg_text, params


def load_checkpoint(path) -> RainUNet:
    """Read a checkpoint written by ``save_checkpoint``. A file that is cut
    short, carries trailing bytes, holds a non-finite value or a malformed
    config line, whose config block does not end with the architecture's
    constants, or whose parameters do not fit its config raises FormatError
    naming the file."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    try:
        cfg_text, params = _parse_checkpoint(raw)
    except dataio.FormatError as err:
        raise dataio.FormatError(f"{path}: {err}") from None
    text = str(cfg_text, "utf-8", "replace")
    # the constants' text must start at a line start; any other tail is another model
    if not ("\n" + text).endswith("\n" + _FIXED_TEXT):
        raise dataio.FormatError(f"{path} config: not this program's architecture: the "
                                 "block must end with its fixed settings, in_frames to head_mode")
    cfg = RainUNetConfig(**dataio.parse_config(text[:-len(_FIXED_TEXT)],
                                               get_type_hints(RainUNetConfig), f"{path} config"))
    # the parameters are views into the file's buffer, so each is copied once,
    # by the layer that takes it; the buffer is freed when the last is taken
    try:
        return RainUNet.from_state(cfg, params)
    except (TensorError, ValueError) as err:
        raise dataio.FormatError(f"{path}: checkpoint does not describe a model: {err}") from None
