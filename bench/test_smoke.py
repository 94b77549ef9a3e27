"""Smoke test for the benchmark: every workload at a tiny size, with tracing
off and on. It checks that each run prints every metric BENCHMARK.json names,
with its unit, and that the output checks ran and passed. It sets no timing
bounds.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["checks"] and all(c["passed"] for c in record["checks"]), record["checks"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > len(record["checks"])


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_live_tap_fraction_matches_hand_counts():
    from rainunet.layers import Conv3DLayer, ConvSpec
    import tracing
    import workloads

    dilated = Conv3DLayer(1, 1, ConvSpec.same_size((1, 7, 7), (1, 3, 3)), weight=[[[[[0.0] * 7] * 7]]])
    for side, live in ((8, 25), (4, 9), (2, 1)):
        call = workloads.Call(1, "conv3d.dconv49", None, dilated, (1, 1, 1, side, side))
        assert tracing.live_tap_frac(call) == live / 49


@pytest.mark.parametrize("kernel,dilation,stride,padding,transposed", [
    ((1, 7, 7), (1, 3, 3), (1, 1, 1), (0, 9, 9), False),
    ((3, 1, 1), (1, 1, 1), (1, 1, 1), (1, 0, 0), False),
    ((2, 3, 2), (1, 2, 1), (2, 1, 2), (0, 1, 1), False),
    ((1, 2, 2), (1, 1, 1), (1, 2, 2), (0, 0, 0), True),
    ((2, 3, 3), (1, 2, 1), (2, 1, 2), (1, 1, 0), True),
])
def test_conv_reference_matches_naive_oracle(kernel, dilation, stride, padding, transposed):
    """The benchmark's conv reference against the loop oracles of the test
    suite; its gradients against the adjoint identities of a map linear in
    the input and in the weight."""
    import numpy as np
    import oracles
    import reference
    from rainunet.layers import ConvSpec

    spec = ConvSpec(kernel, dilation, stride, padding, transposed)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 3, 5, 6))
    w = rng.standard_normal((4, 3, *kernel))
    b = rng.standard_normal(4)
    naive = oracles.naive_conv3d_transposed if transposed else oracles.naive_conv3d
    want = naive(x, w, b, stride, dilation, padding)
    gy = rng.standard_normal(want.shape)
    y, dx, dw, db = reference.conv(x, w, b, spec, gy)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
    linear = np.vdot(gy, y - b.reshape(1, -1, 1, 1, 1))
    np.testing.assert_allclose([np.vdot(dx, x), np.vdot(dw, w)], [linear, linear], rtol=1e-10)
    np.testing.assert_allclose(db, gy.sum(axis=(0, 2, 3, 4)))
