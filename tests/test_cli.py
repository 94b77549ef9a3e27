import hashlib
import os

import numpy as np
import pytest

from rainunet import precision
from rainunet.cli import RunConfig, gradcheck_battery, main, parse_config_file
from rainunet.data import MANIFEST_NAME, load_dataset
from rainunet.metrics import read_lead_time_csv
from rainunet.model import RainUNet, RainUNetConfig, load_checkpoint, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args):
    return main([str(a) for a in args])


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


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# experiment settings\n"
            "seed = 9\n"
            "lr = 0.01  # inline comment\n"
            "swa = true\n"
            "channels = ir\n"
        )
        values = parse_config_file(cfg_file)
        assert values == {"seed": 9, "lr": 0.01, "swa": True, "channels": "ir"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mystery = 1\n")
        with pytest.raises(Exception, match="unknown config key"):
            parse_config_file(cfg_file)

    def test_bad_boolean_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("swa = maybe\n")
        with pytest.raises(Exception, match="boolean"):
            parse_config_file(cfg_file)

    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 9\nepochs = 7\n")
        out = tmp_path / "o"
        # bad crop factor comes from the flag, proving the flag wins
        code = run_cli("preprocess", "--config", cfg_file, "--data", tmp_path,
                       "--out", out, "--crop-factor", 0)
        assert code == 1


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
        curve = read_lead_time_csv(ev / "leadtime.csv")
        assert curve.shape == (32,)
        assert np.all((curve >= 0) & (curve <= 1))
        metrics_lines = (ev / "metrics.csv").read_text().strip().splitlines()
        assert metrics_lines[0] == "metric,value,degenerate" and len(metrics_lines) == 6

        pred = tmp_path / "pred"
        assert run_cli("predict", "--data", prepared, "--checkpoint",
                       run / "model.runc", "--out", pred) == 0
        preds = sorted(pred.glob("*_pred.runt"))
        assert len(preds) == len(load_dataset(prepared / MANIFEST_NAME))

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
