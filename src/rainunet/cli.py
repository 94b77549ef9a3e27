"""Command-line pipeline: synth, preprocess, train, evaluate, predict,
gradcheck.

Configuration resolves in three layers: built-in defaults, then a
line-oriented ``key = value`` config file (``#`` comments allowed, unknown
keys rejected), then command-line flags. Every command is reproducible:
identical resolved config and seed give identical artifact bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import data as dataio
from .data import (CHANNEL_SETS, MANIFEST_NAME, FormatError, SequenceRecord,
                   SynthConfig, center_crop_resize, cleansing_filter,
                   load_dataset, save_dataset, select_modalities, synth_generate)
from .layers import Conv3DLayer, ConvSpec, GroupNormLayer, conv3d, conv3d_transposed, group_norm, maxpool3d
from .model import (RainUNet, RainUNetConfig, TSBlock, load_checkpoint,
                    save_checkpoint, save_checkpoint_params)
from .tensor import (AutodiffError, GradCheckReport, Tensor, TensorError,
                     grad_check, tensor_sum)
from .training import (TrainConfig, TrainingAbort, dice_loss, fit,
                       predict_probs, write_training_log_csv)
from .precision import use_precision
from .metrics import binarize, evaluate_masks, lead_time_iou, write_lead_time_csv, write_metrics_csv


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "runs/out"
    data: str = ""
    checkpoint: str = ""
    precision: str = "standard"
    # synthesis
    sequences: int = 16
    size: int = 66
    blob_min: int = 1
    blob_max: int = 4
    velocity_min: float = 0.0
    velocity_max: float = 1.5
    radius_min: float = 3.0
    radius_max: float = 7.0
    rain_threshold: float = 0.4
    # preprocessing
    channels: str = "ir+vis"
    crop_factor: int = 3
    cleanse_threshold: int = 100
    # model
    stages: int = 5
    base_channels: int = 16
    out_frames: int = 32
    # training
    epochs: int = 20
    batch_size: int = 4
    lr: float = 1e-3
    weight_decay: float = 1e-2
    swa: bool = False
    swa_start: int = 10
    # evaluation
    threshold: float = 0.5


_FIELD_TYPES = get_type_hints(RunConfig)


def _coerce(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    if typ is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise FormatError(f"bad boolean for {key}: {raw!r}")
    return typ(raw)


def parse_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _FIELD_TYPES:
            raise FormatError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, value.strip())
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.command == "gradcheck":
        cfg = replace(cfg, precision="wide")
    if args.config:
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    return replace(cfg, **overrides)


# ---------------------------------------------------------------------------
# commands


def _synth_config(cfg: RunConfig) -> SynthConfig:
    return SynthConfig(
        sequences=cfg.sequences,
        size=cfg.size,
        blob_count=(cfg.blob_min, cfg.blob_max),
        velocity=(cfg.velocity_min, cfg.velocity_max),
        radius=(cfg.radius_min, cfg.radius_max),
        rain_threshold=cfg.rain_threshold,
        seed=cfg.seed,
    )


def cmd_synth(cfg: RunConfig) -> int:
    records = synth_generate(_synth_config(cfg))
    manifest = save_dataset(records, cfg.out)
    rainy = sum(1 for r in records if r.positive_count >= cfg.cleanse_threshold)
    print(f"wrote {len(records)} records to {manifest.parent}")
    if rainy == 0:
        print(f"warning: cleansing at threshold {cfg.cleanse_threshold} "
              "would remove 100% of these records", file=sys.stderr)
    return 0


def cmd_preprocess(cfg: RunConfig) -> int:
    if not cfg.data:
        raise FormatError("preprocess needs --data pointing at a dataset directory")
    records = load_dataset(Path(cfg.data) / MANIFEST_NAME)
    channels = CHANNEL_SETS[cfg.channels]
    selected = [
        SequenceRecord(select_modalities(r, channels), r.target, r.region, r.start_time)
        for r in records
    ]
    kept, removed = cleansing_filter(selected, cfg.cleanse_threshold)
    cropped = [
        SequenceRecord(center_crop_resize(r.input, cfg.crop_factor), r.target,
                       r.region, r.start_time)
        for r in kept
    ]
    save_dataset(cropped, cfg.out)
    frac = removed / len(records) if records else 0.0
    print(f"kept {len(kept)} of {len(records)} records "
          f"(removed {removed}, fraction {frac:.3f}) -> {cfg.out}")
    return 0


def _model_config(cfg: RunConfig, in_channels: int) -> RainUNetConfig:
    return RainUNetConfig(
        stages=cfg.stages,
        base_channels=cfg.base_channels,
        in_channels=in_channels,
        out_frames=cfg.out_frames,
    )


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.data:
        raise FormatError("train needs --data pointing at a preprocessed dataset")
    records = load_dataset(Path(cfg.data) / MANIFEST_NAME)
    if not records:
        raise FormatError("dataset is empty")
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    model = RainUNet(_model_config(cfg, records[0].input.shape[0]), seed=cfg.seed)
    train_cfg = TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        weight_decay=cfg.weight_decay, seed=cfg.seed,
        swa_enabled=cfg.swa, swa_start_epoch=cfg.swa_start,
    )
    ckpt = out / "model.runc"
    save_checkpoint(ckpt, model)  # epoch-0 state; overwritten as epochs complete

    def on_epoch_end(epoch, mdl, result):
        save_checkpoint(ckpt, mdl)
        write_training_log_csv(out / "training_log.csv", result.log)

    try:
        result = fit(model, records, train_cfg, on_epoch_end=on_epoch_end)
    except TrainingAbort as err:
        write_training_log_csv(out / "training_log.csv", err.log)
        print(f"aborted: {err} (last-good checkpoint kept at {ckpt})", file=sys.stderr)
        return 1
    write_training_log_csv(out / "training_log.csv", result.log)
    if result.log:
        print(f"trained {cfg.epochs} epochs, final mean loss {result.log[-1].mean_loss:.6f}")
    else:
        print("trained 0 epochs (checkpoint is the initialization)")
    if cfg.swa:
        save_checkpoint_params(out / "model_swa.runc", model.config, result.swa.finalize())
        print(f"SWA checkpoint: {out / 'model_swa.runc'}")
    print(f"checkpoint: {ckpt}")
    return 0


def _load_eval_inputs(cfg: RunConfig):
    if not cfg.checkpoint:
        raise FormatError("a --checkpoint path is required")
    if not cfg.data:
        raise FormatError("a --data dataset directory is required")
    model = load_checkpoint(cfg.checkpoint)
    records = load_dataset(Path(cfg.data) / MANIFEST_NAME)
    if not records:
        raise FormatError("dataset is empty")
    have = records[0].input.shape[0]
    want = model.config.in_channels
    if have != want:
        raise TensorError(
            f"dataset records carry {have} channels but the checkpoint model "
            f"expects {want}; shapes {records[0].input.shape} vs "
            f"(C={want}, T={model.config.in_frames}, H, W)"
        )
    return model, records


def cmd_evaluate(cfg: RunConfig) -> int:
    model, records = _load_eval_inputs(cfg)
    probs = predict_probs(model, records)
    preds = binarize(probs, cfg.threshold)
    gts = np.stack([r.target for r in records])
    report = evaluate_masks(preds, gts)
    curve = lead_time_iou(preds, gts)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "metrics.csv", report)
    write_lead_time_csv(out / "leadtime.csv", curve)
    for name in report.METRIC_NAMES:
        flag = " (degenerate)" if name in report.degenerate else ""
        print(f"{name}: {getattr(report, name):.4f}{flag}")
    print(f"wrote {out / 'metrics.csv'} and {out / 'leadtime.csv'}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model, records = _load_eval_inputs(cfg)
    probs = predict_probs(model, records)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = dataio.read_manifest(Path(cfg.data) / MANIFEST_NAME)
    for e, p in zip(entries, probs):
        dataio.tensor_file_write(p.astype(np.float32), out / f"{e.key}_pred.runt")
    print(f"wrote {len(records)} probability movies to {out}")
    return 0


# ---------------------------------------------------------------------------
# gradient checking battery


def _quadratic(y: Tensor) -> Tensor:
    return tensor_sum(y * y)


def param_probe(module, attr: str, forward):
    """Wrap ``forward`` so grad_check can treat a layer parameter as the
    variable: each call temporarily installs the probe tensor as the
    parameter, so the tape routes the gradient onto the probe."""

    def f(probe: Tensor) -> Tensor:
        saved = getattr(module, attr)
        setattr(module, attr, probe)
        try:
            return forward()
        finally:
            setattr(module, attr, saved)

    return f


def gradcheck_battery(seeds: int = 3, base_seed: int = 100) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference checks for every layer type, the dice loss, a TS
    block and a micro model. Must run in wide precision."""
    results = []
    for s in range(seeds):
        rng = np.random.default_rng(base_seed + s)

        conv = Conv3DLayer(2, 3, ConvSpec((1, 3, 3), (1, 2, 2), (1, 1, 1), (0, 2, 2)), rng)
        x = Tensor(rng.normal(size=(1, 2, 2, 6, 6)))
        results.append((f"conv3d/x[{s}]", grad_check(lambda t: _quadratic(conv3d(t, conv)), x)))
        results.append((f"conv3d/weight[{s}]", grad_check(
            param_probe(conv, "weight", lambda: _quadratic(conv3d(x, conv))),
            Tensor(conv.weight.data.copy()))))

        tconv = Conv3DLayer(3, 2, ConvSpec((2, 2, 2), (1, 1, 1), (2, 2, 2), (0, 0, 0), transposed=True), rng)
        xt = Tensor(rng.normal(size=(1, 3, 2, 3, 3)))
        results.append((f"conv3d_transposed/x[{s}]",
                        grad_check(lambda t: _quadratic(conv3d_transposed(t, tconv)), xt)))
        results.append((f"conv3d_transposed/weight[{s}]", grad_check(
            param_probe(tconv, "weight", lambda: _quadratic(conv3d_transposed(xt, tconv))),
            Tensor(tconv.weight.data.copy()))))

        xp = Tensor(rng.permutation(np.arange(1.0, 97.0)).reshape(1, 2, 2, 4, 6) * 0.1)
        results.append((f"maxpool3d/x[{s}]",
                        grad_check(lambda t: _quadratic(maxpool3d(t, (2, 2, 2))), xp)))

        gn = GroupNormLayer(4, 2)
        gn.gamma = Tensor(rng.normal(size=4), requires_grad=True)
        gn.beta = Tensor(rng.normal(size=4), requires_grad=True)
        xg = Tensor(rng.normal(size=(2, 4, 2, 3, 3)))
        results.append((f"group_norm/x[{s}]", grad_check(lambda t: _quadratic(group_norm(t, gn)), xg)))
        results.append((f"group_norm/gamma[{s}]", grad_check(
            param_probe(gn, "gamma", lambda: _quadratic(group_norm(xg, gn))),
            Tensor(gn.gamma.data.copy()))))

        g = Tensor((rng.random(24) < 0.4).astype(float))
        p = Tensor(rng.uniform(0.05, 0.95, size=24))
        results.append((f"dice_loss/p[{s}]", grad_check(lambda t: dice_loss(t, g), p)))

        block = TSBlock(2, 4, RainUNetConfig(stages=1, base_channels=4), rng)
        xb = Tensor(rng.normal(size=(1, 2, 2, 8, 8)))
        results.append((f"ts_block/x[{s}]", grad_check(lambda t: _quadratic(block(t)), xb, max_coords=48, seed=s)))

        micro = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=base_seed + s)
        xm = Tensor(rng.normal(size=(1, 9, 4, 16, 16)))
        target = Tensor((rng.random((1, 32, 16, 16)) < 0.3).astype(float))
        results.append((f"full_model/x[{s}]",
                        grad_check(lambda t: dice_loss(micro.forward(t), target), xm,
                                   tol=1e-3, max_coords=24, seed=s)))
    return results


def cmd_gradcheck(cfg: RunConfig) -> int:
    if cfg.precision != "wide":
        raise TensorError("gradcheck requires --precision wide")
    results = gradcheck_battery()
    failures = 0
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        if not report.passed:
            failures += 1
        print(f"{status} {name}: max_rel_error={report.max_rel_error:.3e} "
              f"tol={report.tolerance:.0e} coords={report.coords_checked}")
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing

_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory")
    common.add_argument("--data", help="input dataset directory")
    common.add_argument("--checkpoint", help="model checkpoint path")
    common.add_argument("--precision", choices=["standard", "wide"])
    common.add_argument("--crop-factor", dest="crop_factor", type=int)
    common.add_argument("--channels", choices=sorted(CHANNEL_SETS))
    common.add_argument("--threshold", type=float)
    common.add_argument("--swa", action="store_true", default=None)
    common.add_argument("--swa-start", dest="swa_start", type=int)
    common.add_argument("--sequences", type=int)
    common.add_argument("--size", type=int)
    common.add_argument("--blob-min", dest="blob_min", type=int)
    common.add_argument("--blob-max", dest="blob_max", type=int)
    common.add_argument("--velocity-min", dest="velocity_min", type=float)
    common.add_argument("--velocity-max", dest="velocity_max", type=float)
    common.add_argument("--radius-min", dest="radius_min", type=float)
    common.add_argument("--radius-max", dest="radius_max", type=float)
    common.add_argument("--rain-threshold", dest="rain_threshold", type=float)
    common.add_argument("--cleanse-threshold", dest="cleanse_threshold", type=int)
    common.add_argument("--stages", type=int)
    common.add_argument("--base-channels", dest="base_channels", type=int)
    common.add_argument("--out-frames", dest="out_frames", type=int)
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", dest="batch_size", type=int)
    common.add_argument("--lr", type=float)
    common.add_argument("--weight-decay", dest="weight_decay", type=float)

    parser = argparse.ArgumentParser(prog="rainunet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        with use_precision(cfg.precision):
            return _COMMANDS[args.command](cfg)
    except (TensorError, FormatError, AutodiffError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
