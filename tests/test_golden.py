"""Every artifact of a small CLI pipeline, a model's parameters after two
AdamW steps at each precision and ``rainunet gradcheck``'s output keep the
bytes recorded in tests/golden.txt (see tests/golden.py, which makes and
regenerates them)."""

import os
import subprocess
import sys
from pathlib import Path

import rainunet
from golden import GOLDEN, parse


def _environment(env: dict[str, str]) -> str:
    return ", ".join(f"{key} {value}" for key, value in env.items())


def test_artifacts_keep_the_golden_bytes():
    # one child process, so the one-thread BLAS setting of golden.py is in
    # place before numpy loads
    src = str(Path(rainunet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("golden.py"))],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    want_env, want = parse(GOLDEN.read_text("utf-8"))
    got_env, got = parse(proc.stdout)
    differ = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differ, (
        f"artifact bytes differ from {GOLDEN.name} for {', '.join(differ)}; the golden bytes "
        f"were made with {_environment(want_env)}, this run used {_environment(got_env)}")
