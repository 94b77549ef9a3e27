"""Trained bytes do not depend on the BLAS thread count: a model's
parameters after training, and every artifact of ``rainunet train``, are
the same bytes at 1, 2 and 4 OpenBLAS threads. Each count runs in its own
process, with the setting in place before numpy loads."""

import os
import subprocess
import sys
from pathlib import Path

import rainunet
from rainunet.cli import main

# Trains a 2-stage, width-8 model on ir+vis records of 36x36, whose stage-1
# weight gradients reduce over more rows than one block of layers._gram,
# then runs `rainunet train` on the dataset at argv[1] into argv[2]; prints
# the sha256 of the parameters, then of each artifact but run.txt, whose
# environment lines record the thread count.
CHILD = """
import contextlib, hashlib, sys
from dataclasses import replace
from pathlib import Path
from rainunet.cli import main
from rainunet.data import CHANNEL_SETS, SynthConfig, select_modalities, synth_generate
from rainunet.model import RainUNet, RainUNetConfig
from rainunet.training import TrainConfig, fit

records = [replace(r, input=select_modalities(r, CHANNEL_SETS["ir+vis"]))
           for r in synth_generate(SynthConfig(4, 36, seed=7))]
model = RainUNet(RainUNetConfig(stages=2, base_channels=8, in_channels=len(records[0].input)), seed=7)
fit(model, records, TrainConfig(epochs=2, batch_size=4, seed=7))
digest = hashlib.sha256()
for name, t in model.named_parameters():
    digest.update(name.encode() + t.data.tobytes(order="A"))
print("parameters", digest.hexdigest())
out = Path(sys.argv[2])
args = ["--stages", "2", "--base-channels", "8", "--epochs", "2", "--batch-size", "4"]
with contextlib.redirect_stdout(sys.stderr):
    assert main(["train", "--data", sys.argv[1], "--out", str(out), *args]) == 0
for path in sorted(out.iterdir()):
    if path.name != "run.txt":
        print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def _digests(threads: int, data: Path, out: Path) -> tuple[str, list[str]]:
    """CHILD's output lines at ``threads`` BLAS threads: the parameters'
    digest, then the artifacts'."""
    src = str(Path(rainunet.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(data), str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[0], lines[1:]


def test_trained_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    raw, data = tmp_path / "raw", tmp_path / "data"
    assert main(["synth", "--out", str(raw), "--sequences", "4", "--size", "36", "--seed", "7"]) == 0
    assert main(["preprocess", "--data", str(raw), "--out", str(data), "--crop-factor", "6",
                 "--cleanse-threshold", "0"]) == 0
    runs = {n: _digests(n, data, tmp_path / f"train{n}") for n in (1, 2, 4)}
    parameters, artifacts = runs[1]
    assert parameters.startswith("parameters ")
    assert [a.split()[0] for a in artifacts] == ["model.runc", "training_log.csv"]
    assert runs[2] == runs[1] and runs[4] == runs[1]
