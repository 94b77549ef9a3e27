"""rainunet benchmark: one workload per process.

Run from the root of a checkout:

    python3 bench/run.py --workload train_default --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer breakdown. Both check the program's
outputs. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full record (environment, sample counts, checks), which is also written,
with the trace spans, to ``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.

The program is imported from ``src/`` of the same checkout; nothing is
installed. Without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

# The keys of workloads.WORKLOADS, listed here so that arguments are checked
# before numpy loads.
WORKLOAD_NAMES = ("train_default", "train_wide_small", "infer_default")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the measured part of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="2-stage, width-4, 12x12 model for the smoke test")
    p.add_argument("--setup-in", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _limit_threads() -> None:
    """One BLAS thread per available core and no rainunet worker pool. Must
    run before numpy is imported, because OpenBLAS reads it at load time."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = cores
    os.environ.pop("RAINUNET_THREADS", None)


def _setup_in_fresh_process(args, work: Path) -> float:
    """Seconds from the start of a new process of this script to the end of
    its set-up on the inputs in ``work``."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-in", str(work)] + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "rainunet" / "__init__.py").is_file():
        print(f"error: no rainunet sources under {src}", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(src))

    import report  # numpy, scipy and rainunet load here
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    if args.setup_in:
        ready = workloads.set_up(wl, args.seed, args.setup_in)
        print(json.dumps({"setup_s": import_s + ready.seconds}))
        return 0
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.make_inputs(wl, args.seed, work)
        if args.trace:
            outcome = tracing.traced(wl, args.seed, work, args.seconds)
        else:
            others = [_setup_in_fresh_process(args, work) for _ in range(workloads.SETUP_REPEATS - 1)]
            outcome = workloads.end_to_end(wl, args.seed, work, args.seconds, import_s, others)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.emit(out_dir, report.build_record(root, args, wl, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
