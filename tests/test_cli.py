import csv
import errno
import hashlib
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import scipy

import rainunet
from rainunet import cli, layers, precision
from rainunet.cli import _COMMANDS, RunConfig, _parser, gradcheck_battery, main, resolve_config
from rainunet.data import (MANIFEST_NAME, FormatError, SynthConfig, config_text, load_dataset,
                           parse_config, save_dataset, synth_generate)
from rainunet.model import RainUNet, RainUNetConfig, load_checkpoint, save_checkpoint
from rainunet.tensor import Tensor, grad_check, mul, relu, tensor_sum
from rainunet.training import TrainConfig


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args):
    return main([str(a) for a in args])


def python(*args):
    """Run a fresh ``python`` that imports this checkout's rainunet."""
    src = str(Path(rainunet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env, timeout=300)


def reader(name):
    """The first command that reads the setting ``name``."""
    return next(command for command, (_, names) in _COMMANDS.items() if name in names)


# the values each choice setting takes, as its error lists them
CHOICES = {"channels": "ir, ir+vis, ir+vis+wv, ir+wv", "precision": "standard, wide"}

# every record of seed 5 has over 1,600 rain pixels, so `prepared` keeps all 6
SYNTH_ARGS = ["--sequences", 6, "--size", 36, "--seed", 5]


@pytest.fixture
def dataset(tmp_path):
    raw = tmp_path / "raw"
    assert run_cli("synth", "--out", raw, *SYNTH_ARGS) == 0
    return raw


@pytest.fixture
def prepared(tmp_path, dataset):
    prep = tmp_path / "prep"
    assert run_cli("preprocess", "--data", dataset, "--out", prep,
                   "--crop-factor", 3, "--cleanse-threshold", 50) == 0
    return prep


def parse_run_config(text):
    return parse_config(text, get_type_hints(RunConfig), "run.cfg")


class TestConfigFile:
    def test_parse_and_types(self):
        values = parse_run_config(
            "# experiment settings\n"
            "seed = 9\n"
            "lr = 0.01  # inline comment\n"
            "swa = true\n"
            "channels = ir\n"
        )
        assert values == {"seed": 9, "lr": 0.01, "swa": True, "channels": "ir"}

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="^run.cfg line 1: unknown config key 'mystery'$"):
            parse_run_config("mystery = 1\n")

    def test_bad_boolean_rejected(self):
        with pytest.raises(FormatError, match="^run.cfg line 1: bad bool for swa: 'maybe'$"):
            parse_run_config("swa = maybe\n")

    @pytest.mark.parametrize("line", ["seed 9", "= 9", "epochs = 2.5", "stages ="])
    def test_malformed_line_rejected(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\nseed = 9\n{line}\n")
        assert run_cli("train", "--config", config, "--out", tmp_path / "raw") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {config} line 3: "), err
        assert not (tmp_path / "raw").exists()

    @pytest.mark.parametrize("name", sorted(CHOICES))
    def test_value_outside_the_flag_choices_rejected(self, dataset, tmp_path, capsys, name):
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = bogus\n")
        capsys.readouterr()
        assert run_cli(reader(name), "--config", config, "--data", dataset,
                       "--out", tmp_path / "prep") == 1
        assert capsys.readouterr().err == \
            f"error: {config} line 1: {name} must be one of {CHOICES[name]}, got 'bogus'\n"
        assert not (tmp_path / "prep").exists()

    def test_setting_given_twice_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("sequences = 2\n# again\nsequences = 3\n")
        capsys.readouterr()
        assert run_cli("synth", "--config", config, "--out", tmp_path / "raw") == 1
        assert capsys.readouterr().err == \
            f"error: {config} line 3: sequences given again, first on line 1\n"
        assert not (tmp_path / "raw").exists()

    @pytest.mark.parametrize("value", ["runs/#1", "a#b#c", "x=#", "r#"])
    def test_hash_inside_a_value_round_trips(self, value):
        # a "#" starts a comment only at a line's start or after whitespace
        assert parse_run_config(config_text({"out": value})) == {"out": value}
        assert parse_run_config(f"out = {value}  # comment\n") == {"out": value}

    @pytest.mark.parametrize("value", ["runs #1", "#runs", "runs\n#1", "runs\r1", " runs",
                                       "runs\t"],
                             ids=["hash_after_space", "hash_first", "newline", "return",
                                  "leading_space", "trailing_tab"])
    def test_flag_value_config_text_cannot_hold_is_refused(self, tmp_path, capsys, monkeypatch,
                                                          value):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run_cli("synth", "--out", value, "--sequences", 1, "--size", 24) == 1
        assert capsys.readouterr().err == (
            f"error: out: {value!r} cannot be written as config text: it holds a line break, "
            "a '#' that starts a comment or end whitespace\n")
        assert not any(tmp_path.iterdir())

    def test_every_field_round_trips(self):
        types = get_type_hints(RunConfig)

        def changed(i, f):
            choices = get_args(types[f.name])
            if choices:  # a choice setting takes another choice
                return next(c for c in choices if c != f.default)
            if isinstance(f.default, bool):
                return True
            return f"x{i}" if isinstance(f.default, str) else f.default + 1 + i

        cfg = RunConfig(**{f.name: changed(i, f) for i, f in enumerate(fields(RunConfig))})
        assert all(getattr(cfg, f.name) != f.default for f in fields(RunConfig))
        text = config_text(asdict(cfg))
        assert text.count("\n") == len(fields(RunConfig))
        assert RunConfig(**parse_run_config(text)) == cfg

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_every_field_has_a_flag(self, field):
        flag = "--" + field.name.replace("_", "-")
        if isinstance(field.default, bool):
            value, argv = True, [flag]
        else:
            value = {"precision": "wide", "channels": "ir"}.get(
                field.name, field.default + type(field.default)(1))
            argv = [flag, str(value)]
        assert value != field.default
        cfg = resolve_config(_parser().parse_args([reader(field.name), *argv]))
        assert cfg == replace(RunConfig(), **{field.name: value})

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_lists_exactly_the_settings_read(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = {"--" + name.replace("_", "-") for name in _COMMANDS[command][1]}
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == \
            {"--help", "--config", *flags}

    def test_every_setting_is_read_by_a_command(self):
        read = [name for _, names in _COMMANDS.values() for name in names]
        assert set(read) == {f.name for f in fields(RunConfig)}
        assert len(read) == 31  # command-setting pairs

    @pytest.mark.parametrize("section", [SynthConfig, TrainConfig])
    def test_every_section_field_is_a_setting(self, section):
        # the CLI builds each section from the RunConfig fields of the same
        # names, so a direct caller gets the CLI's default for each of them,
        # and the command that builds it reads each of them
        settings = get_type_hints(RunConfig)
        command = {SynthConfig: "synth", TrainConfig: "train"}[section]
        for name, typ in get_type_hints(section).items():
            assert settings.get(name) == typ, name
            assert getattr(section(), name) == getattr(RunConfig(), name), name
            assert name in _COMMANDS[command][1], name

    def test_flags_override_file(self, dataset, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("crop_factor = 3\ncleanse_threshold = 0\n")
        out = tmp_path / "o"
        # bad crop factor comes from the flag, proving the flag wins
        code = run_cli("preprocess", "--config", cfg_file, "--data", dataset,
                       "--out", out, "--crop-factor", 0)
        assert code == 1
        assert capsys.readouterr().err == "error: crop_factor must be in [1, 6], got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_settings_the_command_does_not_read_are_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        foreign = [f for f in fields(RunConfig) if f.name not in _COMMANDS[command][1]]
        argv = [arg for f in foreign for arg in
                ["--" + f.name.replace("_", "-"), *([] if isinstance(f.default, bool) else [out])]]
        capsys.readouterr()
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == \
            f"error: unrecognized arguments: {' '.join(map(str, argv))}\n"
        config = tmp_path / "run.cfg"
        for f in foreign:
            config.write_text(f"{f.name} = 1\n")
            assert run_cli(command, "--config", config) == 1
            assert capsys.readouterr().err == \
                f"error: {config} line 1: unknown config key {f.name!r}\n"
        assert not out.exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", [name for name, typ in get_type_hints(RunConfig).items()
                                      if typ is float])
    def test_one_line_error_names_the_setting(self, request, tmp_path, capsys, name, value):
        command = reader(name)
        argv = [command, "--out", tmp_path / "out", "--" + name.replace("_", "-"), value,
                "--data", request.getfixturevalue("prepared")]
        if command == "train":
            argv += ["--stages", 1, "--base-channels", 4, "--epochs", 1]
        if command == "evaluate":
            ckpt = tmp_path / "model.runc"
            save_checkpoint(ckpt, RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0))
            argv += ["--checkpoint", ckpt]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert re.search(rf"\b{name}\b", lines[0]) and "Traceback" not in err, err

    def test_in_a_config_file(self, prepared, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("lr = nan\n")
        assert run_cli("train", "--config", config, "--data", prepared, "--out", tmp_path / "out",
                       "--stages", 1, "--base-channels", 4, "--epochs", 1) == 1
        assert capsys.readouterr().err == "error: lr must be finite, got nan\n"


class TestBadValues:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name,typ", [(name, typ) for name, typ in
                                          get_type_hints(RunConfig).items() if typ in (int, float)])
    def test_unparsable_value_names_the_flag_or_line(self, tmp_path, capsys, name, typ, source):
        flag = "--" + name.replace("_", "-")
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n{name} = bogus\n")
        argv = [flag, "bogus"] if source == "flag" else ["--config", config]
        where = flag if source == "flag" else f"{config} line 2"
        capsys.readouterr()
        assert run_cli(reader(name), "--out", tmp_path / "out", *argv) == 1
        assert capsys.readouterr().err == f"error: {where}: bad {typ.__name__} for {name}: 'bogus'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(CHOICES))
    def test_flag_outside_the_choices(self, tmp_path, capsys, name):
        # the line names the flag, as a config file's names its line (TestConfigFile)
        capsys.readouterr()
        assert run_cli(reader(name), "--out", tmp_path / "out", "--" + name, "bogus") == 1
        assert capsys.readouterr().err == \
            f"error: --{name}: {name} must be one of {CHOICES[name]}, got 'bogus'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["synth", "--sequences", 0], "sequences", "0"),
        (["synth", "--size", 7], "size", "7"),
        (["synth", "--seed", -1], "seed", "-1"),
        (["train", "--seed", -3], "seed", "-3"),
        (["train", "--base-channels", 0], "base_channels", "0"),
        (["train", "--base-channels", 12], "base_channels", "12"),
        (["preprocess", "--crop-factor", 9], "crop_factor", "9"),
    ], ids=["synth_sequences", "synth_size", "synth_seed", "train_seed", "train_base_channels",
            "train_base_channels_groups", "preprocess_crop_factor"])
    def test_out_of_range_value_names_its_key(self, request, tmp_path, capsys, argv, key, value):
        if argv[0] != "synth":
            data = request.getfixturevalue("prepared" if argv[0] == "train" else "dataset")
            argv = [*argv, "--data", data]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert re.search(rf"\b{key}\b.* got {value}\b", err[0]), err
        assert not out.exists()

    def test_bad_threshold_fails_before_the_checkpoint_is_read(self, dataset, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli("evaluate", "--data", dataset, "--checkpoint", tmp_path / "missing.runc",
                       "--threshold", 1.5, "--out", tmp_path / "ev") == 1
        assert capsys.readouterr().err == "error: threshold must be in (0, 1), got 1.5\n"
        assert not (tmp_path / "ev").exists()

    # The first allocation each makes is hundreds of terabytes or more, so
    # each fails at once.
    @pytest.mark.parametrize("argv", [
        ["synth", "--size", 100_000_000],
        ["train", "--stages", 1, "--base-channels", 10_000_000_000_000],
    ], ids=["synth_size", "train_base_channels"])
    def test_unallocatable_or_overflowing_run(self, request, tmp_path, capsys, argv):
        # the line names the shape numpy could not allocate
        if argv[0] == "train":
            argv = [*argv, "--data", request.getfixturevalue("prepared")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()


# the generator settings that are now constants of rainunet.data
DELETED_SYNTH_FLAGS = ["--blob-min", "--blob-max", "--velocity-min", "--velocity-max",
                       "--radius-min", "--radius-max", "--rain-threshold"]


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["synth", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["synth", "--seed"], "argument --seed: expected one argument"),
        (["synth", "--seq", "2", "--si", "8"], "unrecognized arguments: --seq 2 --si 8"),
        *[(["synth", flag, "4"], f"unrecognized arguments: {flag} 4")
          for flag in DELETED_SYNTH_FLAGS],
    ], ids=["no_command", "unknown_command", "unknown_flag", "no_flag_value", "abbreviated_flags",
            *(flag[2:] for flag in DELETED_SYNTH_FLAGS)])
    def test_usage_error_is_one_line(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out", str(tmp_path / "out")] if argv else []) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, \
            captured.err
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [flag[2:].replace("-", "_") for flag in DELETED_SYNTH_FLAGS])
    def test_deleted_setting_in_a_config_file(self, tmp_path, capsys, name):
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = 4\n")
        capsys.readouterr()
        assert run_cli("synth", "--config", config, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == \
            f"error: {config} line 1: unknown config key {name!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["synth", "--help"]], ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: rainunet")
        assert not any(flag in out for flag in DELETED_SYNTH_FLAGS), out


class TestSynth:
    def test_writes_records_and_manifest(self, dataset):
        manifest = dataset / MANIFEST_NAME
        assert manifest.exists()
        assert len(load_dataset(manifest)) == 6
        assert len(list(dataset.glob("*_input.runt"))) == 6

    def test_same_seed_same_checksum(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("synth", "--out", out, *SYNTH_ARGS) == 0
        assert sha(a / MANIFEST_NAME) == sha(b / MANIFEST_NAME)
        for fa in sorted(a.glob("*.runt")):
            assert sha(fa) == sha(b / fa.name)

    def test_warns_when_cleansing_would_remove_every_record(self, tmp_path, capsys):
        # one more than the pixels of a record's 32 target frames
        assert run_cli("synth", "--out", tmp_path / "z", "--sequences", 2, "--size", 24,
                       "--cleanse-threshold", 32 * 24 * 24 + 1) == 0
        assert "remove 100%" in capsys.readouterr().err

    def test_fresh_process_writes_the_in_process_bytes(self, tmp_path):
        # synth imports scipy.ndimage itself: the CLI's process has not loaded it
        code = ("import sys; from rainunet.cli import main; "
                "assert 'scipy.ndimage' not in sys.modules; sys.exit(main(sys.argv[1:]))")
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        proc = python("-c", code, "synth", "--out", fresh, *SYNTH_ARGS)
        assert proc.returncode == 0, proc.stderr
        save_dataset(synth_generate(SynthConfig(sequences=6, size=36, seed=5)), here)
        names = sorted(p.name for p in here.iterdir())
        assert sorted(p.name for p in fresh.iterdir()) == names
        assert [sha(fresh / n) for n in names] == [sha(here / n) for n in names]


class TestImports:
    def test_no_module_loads_scipy_ndimage(self):
        # scipy.ndimage costs more start-up than numpy; only synth's blur needs it
        proc = python("-c", "import sys, rainunet.cli, rainunet.training, rainunet.model, "
                      "rainunet.data; print(sorted(m for m in sys.modules "
                      "if m.startswith('scipy.ndimage')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestPreprocess:
    def test_pipeline_order_and_manifest(self, dataset, tmp_path, capsys):
        prep = tmp_path / "prep"
        assert run_cli("preprocess", "--data", dataset, "--out", prep,
                       "--channels", "ir+vis", "--crop-factor", 3,
                       "--cleanse-threshold", 50) == 0
        records = load_dataset(prep / MANIFEST_NAME)
        assert records and all(r.input.shape[0] == 9 for r in records)
        assert "removed" in capsys.readouterr().out

    def test_cleansing_threshold_applies(self, dataset, tmp_path):
        prep = tmp_path / "prep_strict"
        huge = 10**9
        assert run_cli("preprocess", "--data", dataset, "--out", prep,
                       "--cleanse-threshold", huge) == 0
        assert load_dataset(prep / MANIFEST_NAME) == []

    def test_non_crop_factor_keeps_bytes(self, dataset, tmp_path):
        prep = tmp_path / "prep6"
        assert run_cli("preprocess", "--data", dataset, "--out", prep,
                       "--channels", "ir+vis+wv", "--crop-factor", 6,
                       "--cleanse-threshold", 0) == 0
        for src in sorted(dataset.glob("*_input.runt")):
            assert sha(src) == sha(prep / src.name)

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_empty_dataset_rejected(self, tmp_path, capsys, command):
        save_dataset([], tmp_path / "empty")
        capsys.readouterr()
        assert run_cli(command, "--data", tmp_path / "empty", "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: dataset is empty\n"
        assert not (tmp_path / "out").exists()

    def test_bad_crop_factor_fails(self, dataset, tmp_path, capsys):
        assert run_cli("preprocess", "--data", dataset, "--out", tmp_path / "x",
                       "--crop-factor", 0) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("size, factor, message", [
        (24, 7, "crop_factor must be in [1, 6], got 7"),
        (26, 3, "frame side 26 not divisible by 6"),
    ], ids=["factor", "side"])
    def test_crop_checked_when_cleansing_removes_every_record(self, tmp_path, capsys,
                                                              size, factor, message):
        raw, prep = tmp_path / "raw", tmp_path / "prep"
        assert run_cli("synth", "--out", raw, "--sequences", 2, "--size", size) == 0
        capsys.readouterr()
        assert run_cli("preprocess", "--data", raw, "--out", prep, "--crop-factor", factor,
                       "--cleanse-threshold", 1_000_000) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not prep.exists()


class TestTrainEvaluatePredict:
    def test_end_to_end(self, prepared, tmp_path, capsys):
        run = tmp_path / "run"
        assert run_cli("train", "--data", prepared, "--out", run, "--stages", 1,
                       "--base-channels", 4, "--epochs", 2, "--batch-size", 2,
                       "--seed", 3) == 0
        assert (run / "model.runc").exists()
        log_lines = (run / "training_log.csv").read_text().strip().splitlines()
        assert log_lines[0] == "epoch,mean_loss,swa" and len(log_lines) == 3

        ev = tmp_path / "eval"
        assert run_cli("evaluate", "--data", prepared, "--checkpoint",
                       run / "model.runc", "--out", ev) == 0
        with open(ev / "leadtime.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lead_index", "lead_minutes", "iou"]
        curve = np.array([float(row[2]) for row in rows[1:]])
        assert curve.shape == (32,)
        assert np.all((curve >= 0) & (curve <= 1))
        metrics_lines = (ev / "metrics.csv").read_text().strip().splitlines()
        assert metrics_lines[0] == "metric,value,degenerate" and len(metrics_lines) == 6

        pred = tmp_path / "pred"
        assert run_cli("predict", "--data", prepared, "--checkpoint",
                       run / "model.runc", "--out", pred) == 0
        preds = sorted(pred.glob("*_pred.runt"))
        assert len(preds) == len(load_dataset(prepared / MANIFEST_NAME))

    @pytest.mark.parametrize("argv", [["--lr", "nan"], ["--swa", "--swa-start", 30, "--epochs", 2],
                                      ["--swa", "--swa-start", 1, "--epochs", 0], ["--stages", 6]],
                             ids=["lr_nan", "swa_start_past_epochs", "swa_without_epochs",
                                  "stages_too_deep_for_the_maps"])
    def test_rejected_setting_leaves_no_output(self, prepared, tmp_path, capsys, argv):
        # the maps are 36x36, too small to pool 6 times
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli("train", "--data", prepared, "--out", out, "--stages", 1,
                       "--base-channels", 4, *argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert argv[0].lstrip("-").replace("-", "_") in err[0], err  # names the setting
        assert not (out / "run.txt").exists() and not (out / "model.runc").exists()

    def test_full_disk_keeps_the_last_checkpoint(self, prepared, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        argv = ["train", "--data", prepared, "--out", run, "--stages", 1, "--base-channels", 4,
                "--epochs", 1]
        assert run_cli(*argv, "--seed", 1) == 0
        before = (run / "model.runc").read_bytes()

        def full(fd, offset, size):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full)
        capsys.readouterr()
        assert run_cli(*argv, "--seed", 2) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert (run / "model.runc").read_bytes() == before
        assert not (run / "model.runc.tmp").exists()

    @pytest.mark.parametrize("batch, message", [
        (4, "error: non-finite value at epoch 1, step 2: parameter enc1.proj.weight holds NaN or "
            "Inf after the update of epoch 1, step 1 (last-good checkpoint kept at {ckpt})"),
        (8, "error: epoch 1 not saved: {ckpt}: parameter enc1.proj.weight: refusing to store "
            "non-finite values (last-good checkpoint kept at {ckpt})"),
    ], ids=["step_after_the_divergence", "checkpoint_after_the_divergence"])
    def test_diverging_run_keeps_the_last_good_checkpoint(self, prepared, tmp_path, batch,
                                                          message):
        # lr and weight decay of 1e38 send every weight to Inf in step 1: with
        # batch 4 the 6 records' step 2 computes with them and the error names
        # the first weight and the update that wrote it, not the op that read
        # it; with batch 8 the epoch ends at step 1 and its checkpoint cannot
        # store them. The suite turns numpy's overflow warning into an error,
        # so the CLI runs in its own process.
        first, run = tmp_path / "first", tmp_path / "run"
        argv = ["--data", prepared, "--stages", 1, "--base-channels", 4, "--batch-size", batch]
        assert run_cli("train", "--out", first, *argv, "--epochs", 0) == 0
        proc = python("-m", "rainunet.cli", "train", "--out", run, *argv, "--epochs", 2,
                      "--lr", 1e38, "--weight-decay", 1e38)
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        ckpt = run / "model.runc"
        assert len(lines) == 1 and lines[0].startswith(message.format(ckpt=ckpt)), lines
        assert lines[0].endswith(f" (last-good checkpoint kept at {ckpt})"), lines
        assert ckpt.read_bytes() == (first / "model.runc").read_bytes()
        assert not (run / "model.runc.tmp").exists()
        # no epoch's checkpoint was written, so the log lists none
        assert (run / "training_log.csv").read_bytes() == b"epoch,mean_loss,swa\r\n"

    def test_checkpoint_is_hashed_without_a_second_copy(self, tmp_path, traced_peak):
        # run.txt's checkpoint_sha256 reads the file in chunks: the hash
        # holds a small buffer, not the checkpoint's bytes beside its model
        ckpt = tmp_path / "model.runc"
        save_checkpoint(ckpt, RainUNet(RainUNetConfig(stages=3, base_channels=16), seed=0))
        argv = ["evaluate", "--data", tmp_path, "--checkpoint", ckpt, "--out", tmp_path / "ev"]
        cfg = resolve_config(_parser().parse_args([str(a) for a in argv]))
        model = load_checkpoint(ckpt)
        with traced_peak() as peak:
            cli._out_dir(cfg, "evaluate", model)
            held = peak()
        assert held < ckpt.stat().st_size / 16
        entries = dict(line.split(" = ", 1)
                       for line in (tmp_path / "ev" / "run.txt").read_text().splitlines())
        assert entries["checkpoint_sha256"] == sha(ckpt)

    def test_run_manifest_records_config_and_environment(self, prepared, tmp_path):
        ckpt = tmp_path / "run" / "model.runc"
        argvs = [["train", "--data", prepared, "--out", tmp_path / "run", "--stages", 1,
                  "--base-channels", 4, "--epochs", 1, "--seed", 11, "--lr", 0.003],
                 ["evaluate", "--data", prepared, "--checkpoint", ckpt, "--out", tmp_path / "ev"],
                 ["predict", "--data", prepared, "--checkpoint", ckpt, "--out", tmp_path / "pr",
                  "--precision", "wide"]]
        for argv in argvs:
            argv = [str(a) for a in argv]
            assert main(argv) == 0
            resolved = resolve_config(_parser().parse_args(argv))
            lines = (Path(resolved.out) / "run.txt").read_text().splitlines()
            entries = dict(line.split(" = ", 1) for line in lines)
            assert len(entries) == len(lines)
            # the settings the command reads come first, in RunConfig's order
            command = argv[0]
            read = [f.name for f in fields(RunConfig) if f.name in _COMMANDS[command][1]]
            assert list(entries)[:len(read)] == read
            config = tmp_path / f"{command}.cfg"
            config.write_text("".join(f"{name} = {entries.pop(name)}\n" for name in read))
            if command != "train":
                # the checkpoint's hash and stored model config follow them
                assert entries.pop("checkpoint_sha256") == sha(ckpt)
                assert entries["stages"] == "1" and entries["base_channels"] == "4"
                block = load_checkpoint(ckpt).config.block()
                stored = "".join(f"{name} = {entries.pop(name)}\n" for name in block)
                assert stored == config_text(block)
            # the setting lines, given back as the command's --config, resolve the same
            args = _parser().parse_args([command, "--config", str(config)])
            assert resolve_config(args) == resolved
            blas = entries.pop("blas")
            assert blas.split()[0] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
            assert entries == {
                "rainunet": rainunet.__version__, "numpy": np.__version__,
                "scipy": scipy.__version__, "cpu_count": str(os.cpu_count()),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}

    def test_zero_epochs_checkpoint_is_initialization(self, prepared, tmp_path):
        run = tmp_path / "run0"
        assert run_cli("train", "--data", prepared, "--out", run, "--stages", 1,
                       "--base-channels", 4, "--epochs", 0, "--seed", 13) == 0
        loaded = load_checkpoint(run / "model.runc")
        fresh = RainUNet(loaded.config, seed=13)
        for (_, a), (_, b) in zip(loaded.named_parameters(), fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_swa_single_snapshot_equals_final(self, prepared, tmp_path):
        run = tmp_path / "run_swa"
        assert run_cli("train", "--data", prepared, "--out", run, "--stages", 1,
                       "--base-channels", 4, "--epochs", 2, "--batch-size", 2,
                       "--seed", 3, "--swa", "--swa-start", 2) == 0
        final = load_checkpoint(run / "model.runc")
        swa = load_checkpoint(run / "model_swa.runc")
        for (_, a), (_, b) in zip(final.named_parameters(), swa.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_same_config_and_seed_give_the_same_bytes(self, prepared, tmp_path):
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            assert run_cli("train", "--data", prepared, "--out", run, "--stages", 2,
                           "--base-channels", 4, "--epochs", 3, "--batch-size", 2,
                           "--seed", 7, "--swa", "--swa-start", 1) == 0
        for name in ("model.runc", "model_swa.runc", "training_log.csv"):
            assert sha(runs[0] / name) == sha(runs[1] / name), name

    def test_degenerate_predictor_metrics(self, prepared, tmp_path):
        # all parameters zero: every output is 0.5, thresholded to all-positive,
        # so recall is 1 and precision equals the positive prevalence
        records = load_dataset(prepared / MANIFEST_NAME)
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0)
        for _, p in model.named_parameters():
            p.data = np.zeros_like(p.data)
        ckpt = tmp_path / "zero.runc"
        save_checkpoint(ckpt, model)
        ev = tmp_path / "eval_zero"
        assert run_cli("evaluate", "--data", prepared, "--checkpoint", ckpt,
                       "--out", ev) == 0
        rows = {line.split(",")[0]: float(line.split(",")[1])
                for line in (ev / "metrics.csv").read_text().strip().splitlines()[1:]}
        total = sum(r.target.size for r in records)
        positives = sum(r.positive_count for r in records)
        assert rows["recall"] == 1.0
        assert rows["precision"] == pytest.approx(positives / total)

    def test_overflowing_forward_exits_with_an_error(self, prepared, tmp_path):
        # Finite weights whose forward overflows to Inf. The suite turns
        # numpy's overflow warning into an error, so the CLI runs in its own
        # process, as a user would run it.
        model = RainUNet(RainUNetConfig(stages=2, base_channels=4), seed=0)
        for name, p in model.named_parameters():
            if name.endswith(".weight"):
                p.data = p.data * np.float32(1e38)
        ckpt = tmp_path / "huge.runc"
        save_checkpoint(ckpt, model)
        for command in ("evaluate", "predict"):
            proc = python("-m", "rainunet.cli", command, "--data", prepared,
                          "--checkpoint", ckpt, "--out", tmp_path / command)
            assert proc.returncode == 1, proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
            assert "Traceback" not in proc.stderr
            # the line names the op whose output overflowed, and its shape
            op = re.match(r"error: op (\w+): output of shape \(\d+(, \d+)*\) holds", lines[0])
            assert op and callable(getattr(layers, op[1], None)), lines[0]
            # and the layer of the model that ran it
            layer = re.search(r"\(layer ([\w.]+)\)$", lines[0])
            assert layer and layer[1] in {n.rsplit(".", 1)[0] for n, _ in model.named_parameters()}, \
                lines[0]

    def test_channel_mismatch_reports_both(self, dataset, tmp_path, capsys):
        model = RainUNet(RainUNetConfig(stages=1, base_channels=4, in_channels=9), seed=0)
        ckpt = tmp_path / "nine.runc"
        save_checkpoint(ckpt, model)
        # raw dataset still has 11 channels
        assert run_cli("evaluate", "--data", dataset, "--checkpoint", ckpt,
                       "--out", tmp_path / "ev") == 1
        err = capsys.readouterr().err
        assert "11" in err and "9" in err

    @pytest.mark.parametrize("old, new", [("groupnorm_groups = 8\n", "groupnorm_groups = 4\n"),
                                          ("stages = 1\n", "stages = 1\nin_frames = 4\n")],
                             ids=["groups", "in_frames_among_the_settings"])
    def test_checkpoint_of_another_architecture(self, dataset, tmp_path, capsys, old, new):
        ckpt = tmp_path / "other.runc"
        save_checkpoint(ckpt, RainUNet(RainUNetConfig(stages=1, base_channels=4), seed=0))
        raw = ckpt.read_bytes()
        (n,) = struct.unpack_from("<I", raw, 5)
        cfg = raw[9 : 9 + n].replace(old.encode("utf-8"), new.encode("utf-8"))
        ckpt.write_bytes(raw[:5] + struct.pack("<I", len(cfg)) + cfg + raw[9 + n :])
        capsys.readouterr()
        assert run_cli("evaluate", "--data", dataset, "--checkpoint", ckpt,
                       "--out", tmp_path / "ev") == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(ckpt))} config[^\n]*\n", err), err
        assert not (tmp_path / "ev").exists()


class TestInputFiles:
    """A fault in an input file is one error line that names the file, or
    the record, before the command writes anything."""

    @pytest.fixture
    def checkpoint(self, tmp_path):
        # fits the raw `dataset`: 11 channels, maps of at least 2x2
        path = tmp_path / "m.runc"
        save_checkpoint(path, RainUNet(RainUNetConfig(stages=1, base_channels=4, in_channels=11)))
        return path

    def test_manifest_key_cannot_leave_its_directory(self, dataset, checkpoint, tmp_path, capsys):
        # the key leads back into the dataset, so its records load; predict
        # would write its output to <out>/../raw/seq00000_pred.runt
        manifest = dataset / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        lines[1] = "../raw/" + lines[1]
        manifest.write_text("\n".join(lines) + "\n")
        escaped = tmp_path / "trav" / "raw"
        escaped.mkdir(parents=True)
        capsys.readouterr()
        assert run_cli("predict", "--data", dataset, "--checkpoint", checkpoint,
                       "--out", tmp_path / "trav" / "out") == 1
        assert capsys.readouterr().err == (f"error: {manifest} line 2: key '../raw/seq00000' must "
                                           "name a file in the manifest's directory\n")
        assert list((tmp_path / "trav").iterdir()) == [escaped] and not any(escaped.iterdir())

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_mixed_frame_sizes_refused_before_anything_is_written(self, checkpoint, tmp_path,
                                                                   capsys, command):
        mixed = tmp_path / "mixed"
        save_dataset([*synth_generate(SynthConfig(1, 24, 0)), *synth_generate(SynthConfig(1, 30, 0))],
                     mixed)
        argv = (["--stages", 1, "--base-channels", 4, "--epochs", 1] if command == "train"
                else ["--checkpoint", checkpoint])
        capsys.readouterr()
        assert run_cli(command, "--data", mixed, "--out", tmp_path / "out", *argv) == 1
        named = "" if command == "train" else f" (checkpoint {checkpoint})"
        assert capsys.readouterr().err == (f"error: {mixed / MANIFEST_NAME} record seq00001: "
                                           "input (11, 4, 30, 30) differs from the first "
                                           "record's (11, 4, 24, 24): a dataset holds one "
                                           f"frame size{named}\n")
        assert not (tmp_path / "out").exists()

    def test_record_of_too_few_channels_named_by_preprocess(self, tmp_path, capsys):
        # a dataset already preprocessed holds 9 of the 11 canonical channels
        nine = tmp_path / "nine"
        save_dataset([replace(r, input=r.input[:9]) for r in synth_generate(SynthConfig(2, 24, 0))],
                     nine)
        capsys.readouterr()
        assert run_cli("preprocess", "--data", nine, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: {nine / MANIFEST_NAME} record seq00000 has 9 "
                                           "channels, expected the canonical 11 before modality "
                                           "selection\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_record_that_does_not_fit_names_the_checkpoint(self, dataset, tmp_path, capsys,
                                                           command):
        ckpt = tmp_path / "nine.runc"
        save_checkpoint(ckpt, RainUNet(RainUNetConfig(stages=1, base_channels=4, in_channels=9)))
        capsys.readouterr()
        assert run_cli(command, "--data", dataset, "--checkpoint", ckpt,
                       "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: {dataset / MANIFEST_NAME} record seq00000: "
                                           "input (C,T)=(11,4) but in_channels, in_frames = 9, 4 "
                                           f"(checkpoint {ckpt})\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, message", [
        ("seq00000_input.runt", lambda raw: raw[:-3], "payload length"),
        ("seq00000_input.runt", lambda raw: b"XXXX" + raw[4:], "bad magic b'XXXX'"),
        ("m.runc", lambda raw: b"seed" + raw[4:], "bad checkpoint magic b'seed'"),
        ("m.runc", lambda raw: raw[:12], "checkpoint truncated at byte 12 "),
        ("run.cfg", lambda raw: raw + b"\xff\n", "is not UTF-8 text"),
    ], ids=["record_cut_short", "record_bad_magic", "checkpoint_bad_magic",
            "checkpoint_cut_short", "config_not_utf8"])
    def test_error_about_a_file_names_it(self, dataset, checkpoint, tmp_path, capsys,
                                         name, edit, message):
        config = tmp_path / "run.cfg"
        config.write_text("threshold = 0.5\n")
        path = (dataset if name.endswith(".runt") else tmp_path) / name
        path.write_bytes(edit(path.read_bytes()))
        capsys.readouterr()
        assert run_cli("evaluate", "--data", dataset, "--checkpoint", checkpoint,
                       "--config", config, "--out", tmp_path / "ev") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert str(path) in err[0], err
        assert not (tmp_path / "ev").exists()


class TestGradcheckCommand:
    def test_battery_single_seed_passes(self):
        # the battery enters wide precision itself, and leaves the caller's
        assert precision.get_precision() == "standard"
        results = gradcheck_battery(seeds=1)
        assert results and all(rep.passed for _, rep in results)
        assert precision.get_precision() == "standard"

    def test_command_passes_all_default_seeds(self, capsys):
        assert run_cli("gradcheck") == 0
        assert "30/30 gradient checks passed" in capsys.readouterr().out

    def test_failed_check_names_its_worst_coordinate(self, monkeypatch, capsys):
        # at x = 0, relu's gradient is 0 and its central difference half the
        # slope, so the check of sum(relu(x) * w) fails where w is not 0
        w = np.zeros((2, 3))
        w[1, 2] = 1.0
        report = grad_check(lambda t: tensor_sum(mul(relu(t), Tensor(w))), Tensor(np.zeros((2, 3))))
        monkeypatch.setattr(cli, "gradcheck_battery", lambda: [("relu/x[0]", report)])
        assert run_cli("gradcheck") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL relu/x[0]: max_rel_error=") and lines[0].endswith(
            " coords=6 worst=(1, 2)"), lines
        assert lines[1] == "0/1 gradient checks passed"
