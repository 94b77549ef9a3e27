import csv
import hashlib
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
import scipy

import rainunet
from rainunet import layers, precision
from rainunet.cli import (_CHOICES, _TRAINING_FIELDS, RunConfig, _parser, gradcheck_battery, main,
                          resolve_config)
from rainunet.data import (MANIFEST_NAME, FormatError, SynthConfig, config_text, load_dataset,
                           parse_config, save_dataset, synth_generate)
from rainunet.model import RainUNet, RainUNetConfig, load_checkpoint, save_checkpoint
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


SYNTH_ARGS = ["--sequences", 6, "--size", 36, "--radius-min", 4, "--radius-max", 8,
              "--velocity-min", 0, "--velocity-max", 0.5, "--seed", 5]


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
    return parse_config(text, RunConfig, "run.cfg")


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
        assert run_cli("synth", "--config", config, "--out", tmp_path / "raw") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {config} line 3: "), err
        assert not (tmp_path / "raw").exists()

    @pytest.mark.parametrize("name", ["channels", "precision"])
    def test_value_outside_the_flag_choices_rejected(self, dataset, tmp_path, capsys, name):
        config = tmp_path / "run.cfg"
        config.write_text(f"{name} = bogus\n")
        capsys.readouterr()
        assert run_cli("preprocess", "--config", config, "--data", dataset,
                       "--out", tmp_path / "prep") == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {name} must be one of [^\n]*, got 'bogus'\n", err), err
        assert not (tmp_path / "prep").exists()

    def test_every_field_round_trips(self):
        cfg = RunConfig(**{f.name: True if isinstance(f.default, bool)
                           else f"x{i}" if isinstance(f.default, str) else f.default + 1 + i
                           for i, f in enumerate(fields(RunConfig))})
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
        cfg = resolve_config(_parser().parse_args(["train", *argv]))
        assert cfg == replace(RunConfig(), **{field.name: value})

    @pytest.mark.parametrize("section", [SynthConfig, TrainConfig])
    def test_every_section_field_is_a_setting(self, section):
        # the CLI builds each section from the RunConfig fields of the same
        # names, so a direct caller gets the CLI's default for each of them
        settings = get_type_hints(RunConfig)
        for name, typ in get_type_hints(section).items():
            assert settings.get(name) == typ, name
            assert getattr(section(), name) == getattr(RunConfig(), name), name

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 9\nepochs = 7\n")
        out = tmp_path / "o"
        # bad crop factor comes from the flag, proving the flag wins
        code = run_cli("preprocess", "--config", cfg_file, "--data", tmp_path,
                       "--out", out, "--crop-factor", 0)
        assert code == 1


# the command that reads each float setting of RunConfig
FLOAT_READERS = {"velocity_min": "synth", "velocity_max": "synth", "radius_min": "synth",
                 "radius_max": "synth", "rain_threshold": "synth", "lr": "train",
                 "weight_decay": "train", "threshold": "evaluate"}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", [name for name, typ in get_type_hints(RunConfig).items()
                                      if typ is float])
    def test_one_line_error_names_the_setting(self, request, tmp_path, capsys, name, value):
        command = FLOAT_READERS[name]
        argv = [command, "--out", tmp_path / "out", "--" + name.replace("_", "-"), value]
        if command == "synth":
            argv += ["--sequences", 2, "--size", 24]
        else:
            argv += ["--data", request.getfixturevalue("prepared")]
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
        assert run_cli("synth", "--out", tmp_path / "out", *argv) == 1
        assert capsys.readouterr().err == f"error: {where}: bad {typ.__name__} for {name}: 'bogus'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", sorted(_CHOICES))
    def test_flag_outside_the_choices(self, tmp_path, capsys, name):
        # a config file's value is checked by the same check (TestConfigFile)
        capsys.readouterr()
        assert run_cli("synth", "--out", tmp_path / "out", "--" + name, "bogus") == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {name} must be one of [^\n]*, got 'bogus'\n", err), err
        assert not (tmp_path / "out").exists()

    # The first allocation each makes is hundreds of terabytes or more, or
    # the square of 1e308, so each fails at once.
    @pytest.mark.parametrize("argv, setting", [
        (["synth", "--size", 100_000_000], None),
        (["synth", "--sequences", 1, "--size", 8, "--radius-min", 1e308, "--radius-max", 1e308],
         "radius_min"),
        (["synth", "--sequences", 1, "--size", 8, "--radius-min", 1, "--radius-max", 1e200],
         "radius_max"),
        (["synth", "--sequences", 1, "--size", 8, "--radius-min", 1e-200, "--radius-max", 1e-200],
         "radius_min"),
        (["train", "--stages", 1, "--base-channels", 10_000_000_000_000], None),
    ], ids=["synth_size", "synth_radius", "synth_radius_max", "synth_tiny_radius",
            "train_base_channels"])
    def test_unallocatable_or_overflowing_run(self, request, tmp_path, capsys, argv, setting):
        # an allocation failure names the shape numpy could not allocate; a
        # radius that 2 * radius**2 takes out of float range names its setting
        if argv[0] == "train":
            argv = [*argv, "--data", request.getfixturevalue("prepared")]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert setting is None or setting in err[0], err
        assert not out.exists()


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

    def test_zero_blobs_warns_about_cleansing(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "z", "--sequences", 2,
                       "--size", 24, "--blob-min", 0, "--blob-max", 0) == 0
        assert "remove 100%" in capsys.readouterr().err

    def test_fresh_process_writes_the_in_process_bytes(self, tmp_path):
        # synth imports scipy.ndimage itself: the CLI's process has not loaded it
        code = ("import sys; from rainunet.cli import main; "
                "assert 'scipy.ndimage' not in sys.modules; sys.exit(main(sys.argv[1:]))")
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        proc = python("-c", code, "synth", "--out", fresh, *SYNTH_ARGS)
        assert proc.returncode == 0, proc.stderr
        save_dataset(synth_generate(SynthConfig(sequences=6, size=36, velocity_min=0.0,
                                                velocity_max=0.5, radius_min=4.0,
                                                radius_max=8.0, seed=5)), here)
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
                                      ["--stages", 6]],
                             ids=["lr_nan", "swa_start_past_epochs", "stages_too_deep_for_the_maps"])
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
            kept = [f.name for f in fields(RunConfig)]
            if argv[0] != "train":
                # the checkpoint's hash and stored model config stand in for
                # the model and training fields these commands ignore
                kept = [name for name in kept if name not in _TRAINING_FIELDS]
                assert entries.pop("checkpoint_sha256") == sha(ckpt)
                assert entries["stages"] == "1" and entries["base_channels"] == "4"
                stored = "".join(f"{f.name} = {entries.pop(f.name)}\n"
                                 for f in fields(RainUNetConfig))
                assert RainUNetConfig(**parse_config(stored, RainUNetConfig, "run.txt")) == \
                    load_checkpoint(ckpt).config
            # the config lines read back as a config file give the resolved config
            config = "".join(f"{name} = {entries.pop(name)}\n" for name in kept)
            assert replace(RunConfig(), **parse_run_config(config)) == resolved
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


class TestGradcheckCommand:
    def test_requires_wide_precision(self, capsys):
        assert run_cli("gradcheck", "--precision", "standard") == 1
        assert "wide" in capsys.readouterr().err

    def test_battery_single_seed_passes(self):
        with precision.use_precision("wide"):
            results = gradcheck_battery(seeds=1)
        assert results and all(rep.passed for _, rep in results)

    def test_command_passes_all_default_seeds(self, capsys):
        assert run_cli("gradcheck", "--precision", "wide") == 0
        assert "30/30 gradient checks passed" in capsys.readouterr().out
