"""The run's record: environment, sample counts, checks and metrics, printed
and written to ``.bench_out/``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np
import scipy

from rainunet import precision


def _blas_version():
    """The BLAS numpy was built against, as its build configuration names it."""
    try:
        build = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{build['name']} {build['version']}"
    except (AttributeError, KeyError):
        return None


def _commit(root: Path):
    """HEAD of the checkout, or None where it is not a git tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(root: Path) -> str:
    """Digest of the program's sources, which names the code measured even
    where the checkout is not a git tree."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "RAINUNET_THREADS": os.environ.get("RAINUNET_THREADS"),
        "precision": precision.get_precision(),
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": _source_sha256(root),
    }


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples
    beyond it (None when there are 10 samples or fewer), with the samples."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": min(values),
           "max": max(values), "values": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    top = int(100 * (n - 10) / n) if n > 10 else None
    if top:
        out[f"p{top}"] = float(np.percentile(values, top))
    out["highest_supported_percentile"] = top
    return out


def build_record(root: Path, args, wl, outcome) -> dict:
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": {"records": wl.records, "size": wl.size, "width": wl.width,
                   "stages": wl.stages, "batch": wl.batch},
        "environment": environment(root, args.seed),
        "samples": {k: summarize(v) for k, v in outcome.samples.items() if v},
        "checks": [vars(c) for c in outcome.checks],
        "detail": outcome.extra,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
        },
        "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                  for i, n, s, e, p in outcome.spans],
    }


def emit(out_dir: Path, record: dict) -> None:
    """Write the whole record, print it without spans, then print the result
    line last."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("spans", "result")}))
    print(json.dumps(record["result"]), flush=True)
