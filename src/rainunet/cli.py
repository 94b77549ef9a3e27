"""Command-line pipeline: synth, preprocess, train, evaluate, predict,
gradcheck.

A command accepts only the settings it reads (its ``--help`` lists them),
resolved in three layers: their defaults, then a ``key = value`` config
file (``#`` at a line's start or after whitespace starts a comment, other
keys are rejected), then flags, spelled out in full, each a value config
text can hold. Every command is reproducible: identical resolved config
and seed give identical artifact bytes, at any BLAS thread count.

Every file a command writes reaches disk whole, through data.write_file: a
command killed part-way leaves each of its files as it was before or as
the command finished it, and a dataset it was rewriting loads the old
records, loads the new ones, or fails to load.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
from dataclasses import asdict, fields, make_dataclass, replace
from pathlib import Path
from typing import Literal, get_args, get_type_hints

import numpy as np
import scipy

from . import __version__, data as dataio
from .data import (CHANNEL_SETS, MANIFEST_NAME, FormatError, SynthConfig, center_crop_resize,
                   center_crop_window, cleansing_filter, save_dataset, select_modalities,
                   synth_generate)
from .layers import Conv3DLayer, ConvSpec, GroupNormLayer, conv3d, conv3d_transposed, group_norm, maxpool3d
from .model import (RainUNet, RainUNetConfig, TSBlock, load_checkpoint, save_checkpoint,
                    save_checkpoint_params)
from .tensor import (AutodiffError, GradCheckReport, Tensor, TensorError, grad_check, mul,
                     tensor_sum)
from .training import (TrainConfig, TrainingAbort, batch_dice_loss, check_records,
                       check_same_size, fit, predict_probs, write_training_log_csv)
from .precision import use_precision
from .metrics import binarize, evaluate_masks, lead_time_iou, write_lead_time_csv, write_metrics_csv


def _settings(cls, names=None) -> list[tuple[str, type, object]]:
    """``(name, type, default)`` of the fields of the dataclass ``cls`` in
    ``names``, or of every field but ``seed``, in declaration order."""
    types = get_type_hints(cls)
    return [(f.name, types[f.name], f.default) for f in fields(cls)
            if (f.name in names if names else f.name != "seed")]


# Every setting of a run. The settings of synthesis, the model and training
# are the fields of the configs built from them (see _section), declared
# there; the rest, and the seed they share, are the CLI's own.
RunConfig = make_dataclass("RunConfig", [
    ("seed", int, 0),
    ("out", str, "runs/out"),
    ("data", str, ""),
    ("checkpoint", str, ""),
    ("precision", Literal["standard", "wide"], "standard"),
    *_settings(SynthConfig),
    # preprocessing
    ("channels", Literal[tuple(sorted(CHANNEL_SETS))], "ir+vis"),
    ("crop_factor", int, 3),
    ("cleanse_threshold", int, 100),
    *_settings(RainUNetConfig, ("stages", "base_channels")),
    *_settings(TrainConfig),
    # evaluation
    ("threshold", float, 0.5),
], namespace={"__module__": __name__})


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _types(command: str) -> dict[str, type]:
    """The type of each setting ``command`` reads, in RunConfig's order."""
    return {name: typ for name, typ in get_type_hints(RunConfig).items()
            if name in _COMMANDS[command][1]}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then the flags given, of the settings
    args.command reads, each parsed by data.parse_value; the rest default."""
    cfg, types = RunConfig(), _types(args.command)
    if args.config:
        cfg = replace(cfg, **dataio.parse_config(dataio.read_text(args.config, "config"),
                                                 types, args.config))
    flags = {}
    for name, typ in types.items():
        raw = getattr(args, name)
        if raw is not None:  # a bool flag given is True already
            flags[name] = raw if typ is bool else dataio.parse_value(typ, raw, name, _flag(name))
    dataio.config_text(flags)  # refuses a value run.txt could not give back
    return replace(cfg, **flags)


# ---------------------------------------------------------------------------
# commands


def _section(cfg: RunConfig, cls):
    """The ``cls`` (SynthConfig, TrainConfig) whose every field is the
    RunConfig field of the same name."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


def _sha256_of(path) -> str:
    """The sha256 of the file at ``path``, read in buffer-sized chunks, so
    that no second copy of a checkpoint is held beside its loaded model."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(io.DEFAULT_BUFFER_SIZE):
            digest.update(chunk)
    return digest.hexdigest()


def _out_dir(cfg: RunConfig, command: str, model: RainUNet | None = None) -> Path:
    """cfg.out, made if missing, holding the run's manifest ``run.txt``: the
    resolved settings ``command`` reads and the environment (versions, BLAS
    and its thread count, cores), as key = value lines. Given the
    ``model`` read from cfg.checkpoint, the checkpoint's sha256 and stored
    model config follow the settings. Like every artifact, run.txt is
    whole, old or new, after a kill (see the module docstring)."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    values = {k: v for k, v in asdict(cfg).items() if k in _COMMANDS[command][1]}
    if model is not None:
        values["checkpoint_sha256"] = _sha256_of(cfg.checkpoint)
        values.update(model.config.block())
    values.update(rainunet=__version__, numpy=np.__version__, scipy=scipy.__version__,
                  blas=f"{blas['name']} {blas['version']}",
                  OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
                  cpu_count=os.cpu_count())
    dataio.write_file(out / "run.txt", [dataio.config_text(values).encode("utf-8")])
    return out


def cmd_synth(cfg: RunConfig) -> int:
    records = synth_generate(_section(cfg, SynthConfig))
    manifest = save_dataset(records, cfg.out)
    rainy = sum(1 for r in records if r.positive_count >= cfg.cleanse_threshold)
    print(f"wrote {len(records)} records to {manifest.parent}")
    if rainy == 0:
        print(f"warning: cleansing at threshold {cfg.cleanse_threshold} "
              "would remove 100% of these records", file=sys.stderr)
    return 0


def _records(cfg: RunConfig) -> tuple[list, list[str], list[str]]:
    """The records of the dataset at cfg.data, their manifest keys and the
    name an error gives each, ``<manifest> record <key>`` as load_entries',
    all from one read of the manifest; FormatError without a dataset, or
    when it holds no record."""
    if not cfg.data:
        raise FormatError("a --data dataset directory is required")
    manifest = Path(cfg.data) / MANIFEST_NAME
    entries = dataio.read_manifest(manifest)
    records = dataio.load_entries(manifest, entries)
    if not records:
        raise FormatError("dataset is empty")
    keys = [e.key for e in entries]
    return records, keys, [f"{manifest} record {key}" for key in keys]


def cmd_preprocess(cfg: RunConfig) -> int:
    records, _, names = _records(cfg)
    # checked before cleansing, which may leave no record to crop
    for name, r in zip(names, records):
        if r.input.shape[-2] != r.input.shape[-1]:
            raise FormatError(f"{name}: expected square frames, got {r.input.shape[-2:]}")
        check_same_size(r, records[0], name)
        center_crop_window(r.input.shape[-1], cfg.crop_factor)
    channels = CHANNEL_SETS[cfg.channels]
    selected = [replace(r, input=select_modalities(r, channels, name))
                for name, r in zip(names, records)]
    kept, removed = cleansing_filter(selected, cfg.cleanse_threshold)
    cropped = [replace(r, input=center_crop_resize(r.input, cfg.crop_factor)) for r in kept]
    save_dataset(cropped, cfg.out)
    print(f"kept {len(kept)} of {len(records)} records "
          f"(removed {removed}, fraction {removed / len(records):.3f}) -> {cfg.out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    records, _, names = _records(cfg)
    train_cfg = _section(cfg, TrainConfig)
    # a rejected setting leaves nothing in cfg.out
    train_cfg.validate()
    model_cfg = RainUNetConfig(cfg.stages, cfg.base_channels, in_channels=records[0].input.shape[0])
    check_records(records, model_cfg, names)
    model = RainUNet(model_cfg, seed=cfg.seed)
    out = _out_dir(cfg, "train")
    ckpt = out / "model.runc"
    save_checkpoint(ckpt, model)  # epoch-0 state; overwritten as epochs complete
    # the log lists the epochs the checkpoint has seen; each save adds its row
    write_training_log_csv(out / "training_log.csv", [])

    def on_epoch_end(epoch, mdl, result):
        try:
            save_checkpoint(ckpt, mdl)
        except FormatError as err:  # a parameter that cannot be stored: it diverged
            raise TrainingAbort(f"epoch {epoch} not saved: {err}", result.log[:-1]) from None
        write_training_log_csv(out / "training_log.csv", result.log)

    try:
        result = fit(model, records, train_cfg, on_epoch_end=on_epoch_end)
    except TrainingAbort as err:
        print(f"error: {err} (last-good checkpoint kept at {ckpt})", file=sys.stderr)
        return 1
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
    """The checkpoint's model, and the dataset's records, checked to fit it,
    and their manifest keys; an error about a record names the checkpoint
    too."""
    if not cfg.checkpoint:
        raise FormatError("a --checkpoint path is required")
    records, keys, names = _records(cfg)
    model = load_checkpoint(cfg.checkpoint)
    try:
        check_records(records, model.config, names)
    except TensorError as err:
        raise TensorError(f"{err} (checkpoint {cfg.checkpoint})") from None
    return model, records, keys


def cmd_evaluate(cfg: RunConfig) -> int:
    binarize(np.zeros(0), cfg.threshold)  # a bad threshold fails before the model is read
    model, records, _ = _load_eval_inputs(cfg)
    probs = predict_probs(model, records)
    preds = binarize(probs, cfg.threshold)
    gts = np.stack([r.target for r in records])
    report = evaluate_masks(preds, gts)
    curve = lead_time_iou(preds, gts)
    out = _out_dir(cfg, "evaluate", model)
    write_metrics_csv(out / "metrics.csv", report)
    write_lead_time_csv(out / "leadtime.csv", curve)
    for name in report.METRIC_NAMES:
        flag = " (degenerate)" if name in report.degenerate else ""
        print(f"{name}: {getattr(report, name):.4f}{flag}")
    print(f"wrote {out / 'metrics.csv'} and {out / 'leadtime.csv'}")
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    model, records, keys = _load_eval_inputs(cfg)
    probs = predict_probs(model, records)
    out = _out_dir(cfg, "predict", model)
    for key, p in zip(keys, probs):
        dataio.tensor_file_write(p.astype(np.float32), out / f"{key}_pred.runt")
    print(f"wrote {len(records)} probability movies to {out}")
    return 0


# ---------------------------------------------------------------------------
# gradient checking battery


def _quadratic(y: Tensor) -> Tensor:
    return tensor_sum(mul(y, y))


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


@use_precision("wide")
def gradcheck_battery(seeds: int = 3, base_seed: int = 100) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference checks for every layer type, the dice loss, a TS
    block and a micro model, run in wide precision whatever the caller's."""
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

        g = Tensor((rng.random((1, 24)) < 0.4).astype(float))
        p = Tensor(rng.uniform(0.05, 0.95, size=(1, 24)))
        results.append((f"dice_loss/p[{s}]", grad_check(lambda t: batch_dice_loss(t, g), p)))

        block = TSBlock(2, 4, rng)
        xb = Tensor(rng.normal(size=(1, 2, 2, 8, 8)))
        results.append((f"ts_block/x[{s}]", grad_check(lambda t: _quadratic(block(t)), xb, max_coords=48, seed=s)))

        micro = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=base_seed + s)
        xm = Tensor(rng.normal(size=(1, 9, 4, 16, 16)))
        target = Tensor((rng.random((1, 32, 16, 16)) < 0.3).astype(float))
        results.append((f"full_model/x[{s}]",
                        grad_check(lambda t: batch_dice_loss(micro.forward(t), target), xm,
                                   tol=1e-3, max_coords=24, seed=s)))
    return results


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = gradcheck_battery()
    failures = sum(not report.passed for _, report in results)
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        worst = "" if report.passed else f" worst={report.worst_index}"
        print(f"{status} {name}: max_rel_error={report.max_rel_error:.3e} "
              f"tol={report.tolerance:.0e} coords={report.coords_checked}{worst}")
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing

# Each command: its function and the RunConfig settings it reads, the only
# ones it accepts and records.
_COMMANDS = {
    "synth": (cmd_synth, ("seed", "out", "sequences", "size", "cleanse_threshold")),
    "preprocess": (cmd_preprocess, ("data", "out", "channels", "crop_factor", "cleanse_threshold")),
    "train": (cmd_train, ("seed", "data", "out", "precision", "stages", "base_channels", "epochs",
                          "batch_size", "lr", "weight_decay", "swa", "swa_start")),
    "evaluate": (cmd_evaluate, ("data", "checkpoint", "out", "precision", "threshold")),
    "predict": (cmd_predict, ("data", "checkpoint", "out", "precision")),
    "gradcheck": (cmd_gradcheck, ()),
}


_HELP = {"out": "output directory", "data": "input dataset directory",
         "checkpoint": "model checkpoint path"}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error into main's one-line handler, instead of printing
    the usage block and exiting 2; subparsers are of the same class."""

    def error(self, message):
        raise FormatError(message)


def _parser() -> argparse.ArgumentParser:
    """Per command, ``--config`` and one flag per setting it reads, ``--``
    plus its name with ``-`` for ``_``, holding the string resolve_config
    parses; a flag left out parses to None, so the layers below it stand.
    No flag is taken abbreviated."""
    parser = _Parser(prog="rainunet", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        cmd_parser = sub.add_parser(command, allow_abbrev=False)
        cmd_parser.add_argument("--config", help="key = value config file")
        for name, typ in _types(command).items():
            if typ is bool:
                cmd_parser.add_argument(_flag(name), dest=name, action="store_true", default=None)
            else:
                allowed = get_args(typ)  # a Literal's choices
                cmd_parser.add_argument(_flag(name), dest=name, help=_HELP.get(name),
                                        metavar="{" + ",".join(allowed) + "}" if allowed else None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = resolve_config(args)
        # an overflow surfaces once, as the NonFiniteError of the op whose
        # output holds it, not as numpy warnings from every op before that
        with use_precision(cfg.precision), np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command][0](cfg)
    # TensorError and FormatError are ValueErrors, NonFiniteError an ArithmeticError
    except (ValueError, ArithmeticError, MemoryError, OSError, AutodiffError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
