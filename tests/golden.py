"""Golden artifact bytes: the sha256 of every file a small CLI pipeline
writes, and of a model's parameters after two AdamW steps at each
precision, all under one BLAS thread.

    python tests/golden.py            print the digests as tests/golden.txt holds them
    python tests/golden.py --write    rewrite tests/golden.txt

The pipeline runs through cli.main: synth, preprocess, train with SWA,
evaluate on the SWA checkpoint, predict with the final one, and a one-epoch
train in wide precision. A run.txt is hashed by its setting lines, with the
temporary root written as ``<root>``; its environment lines are dropped,
since they describe the process, not the run. The file records the numpy,
scipy and BLAS the digests were made with, because trained bytes may change
with any of them. Regenerate it only in a change meant to alter bytes.
"""

import os

if __name__ == "__main__":
    # trained bytes depend on the BLAS thread count (see rainunet.cli), which
    # OpenBLAS reads when numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from rainunet import precision
from rainunet.cli import main
from rainunet.data import SynthConfig, synth_generate
from rainunet.model import RainUNet, RainUNetConfig
from rainunet.training import TrainConfig, fit

GOLDEN = Path(__file__).with_name("golden.txt")
# the run.txt keys that record the environment rather than the run's settings
ENVIRONMENT_KEYS = {"rainunet", "numpy", "scipy", "blas", "OPENBLAS_NUM_THREADS", "cpu_count"}


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _run(*args) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    if code != 0:
        raise SystemExit(f"rainunet {args[0]} exited {code}")


def pipeline_digests(root: Path) -> dict[str, str]:
    """The sha256 of each file the pipeline writes under ``root``, by its
    path relative to ``root``."""
    raw, prep, train = root / "raw", root / "prep", root / "train"
    _run("synth", "--out", raw, "--sequences", 3, "--size", 12)
    _run("preprocess", "--data", raw, "--out", prep, "--crop-factor", 3)
    _run("train", "--data", prep, "--out", train, "--stages", 2, "--base-channels", 8,
         "--epochs", 2, "--batch-size", 2, "--swa", "--swa-start", 1)
    _run("evaluate", "--data", prep, "--checkpoint", train / "model_swa.runc", "--out", root / "eval")
    _run("predict", "--data", prep, "--checkpoint", train / "model.runc", "--out", root / "predict")
    _run("train", "--data", prep, "--out", root / "wide", "--stages", 2, "--base-channels", 8,
         "--epochs", 1, "--batch-size", 2, "--precision", "wide")
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "run.txt":
            settings = [line for line in path.read_text("utf-8").splitlines()
                        if line.split(" = ")[0] not in ENVIRONMENT_KEYS]
            blob = "\n".join(settings).replace(str(root), "<root>").encode("utf-8")
        else:
            blob = path.read_bytes()
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(blob).hexdigest()
    return digests


def parameter_digest(mode: str) -> str:
    """The sha256 of a 3-stage, width-8 model's parameters after two AdamW
    steps on 18x18 records, whose 9x9 stage-2 skip makes the decoder pad."""
    records = synth_generate(SynthConfig(sequences=4, size=18, seed=3))
    with precision.use_precision(mode):
        model = RainUNet(RainUNetConfig(3, 8, in_channels=records[0].input.shape[0]), seed=3)
        fit(model, records, TrainConfig(epochs=1, batch_size=2, seed=3))
    digest = hashlib.sha256()
    for name, t in model.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(t.data).tobytes())
    return digest.hexdigest()


def golden_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
    for mode in (precision.STANDARD, precision.WIDE):
        digests[f"parameters/{mode}"] = parameter_digest(mode)
    lines = ["# sha256 of each artifact of tests/golden.py, made with:"]
    lines += [f"{key} = {value}" for key, value in environment().items()]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The (environment, digests) of golden text."""
    env, digests = {}, {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if " = " in line:
            key, value = line.split(" = ", 1)
            env[key] = value
        else:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return env, digests


if __name__ == "__main__":
    text = golden_text()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
