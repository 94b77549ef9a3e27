"""Every file the package writes reaches disk whole, through data.write_file:
a guard over the sources, and each command ended before each of its file
moves."""

import ast
import hashlib
import os
import shutil
import sys
from pathlib import Path

import pytest
import scipy.ndimage  # noqa: F401  (synth's lazy import, loaded once before the forks)

import rainunet
from rainunet.cli import main
from rainunet.data import MANIFEST_NAME, load_dataset

WRITER = "write_file"


def _write_call(call: ast.Call) -> str | None:
    """The name of the call if it writes or moves a file: ``open`` in a
    write mode (or a mode that is not a literal), ``write_text``,
    ``write_bytes``, ``os.replace`` or ``os.rename``; else None."""
    f = call.func
    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name in ("replace", "rename") and isinstance(f, ast.Attribute):
        return f"os.{name}" if isinstance(f.value, ast.Name) and f.value.id == "os" else None
    if name != "open":
        return None
    # open(path, mode) or path.open(mode)
    args = call.args[1:] if isinstance(f, ast.Name) else call.args
    mode = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else None)
    if mode is None:
        return None
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return "open" if not literal or set(mode.value) & set("wax+") else None


def _write_calls(source: str) -> list[tuple[str, str]]:
    """``(function, call)`` for each call of ``source`` that writes a file,
    named after the innermost function holding it (``<module>`` outside
    any)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (name := _write_call(child)):
                found.append((func, name))
            visit(child, func)

    visit(ast.parse(source), "<module>")
    return found


class TestOneWriter:
    def test_detector(self):
        source = """
def writes(p, mode):
    open(p, "w"); open(p, mode=mode); p.open("ab"); p.write_text("x"); p.write_bytes(b"")
    os.replace(p, p); os.rename(p, p)
def reads(p):
    open(p); open(p, "rb"); p.open(); p.read_text(); "a_b".replace("_", "-"); p.replace(p)
"""
        assert _write_calls(source) == [("writes", name) for name in
                                        ("open", "open", "open", "write_text", "write_bytes",
                                         "os.replace", "os.rename")]

    def test_only_the_writer_writes_files(self):
        # a new artifact must go through data.write_file, so that it too is
        # whole after a kill
        found = {(path.name, *call) for path in Path(rainunet.__file__).parent.glob("*.py")
                 for call in _write_calls(path.read_text(encoding="utf-8"))}
        assert found == {("data.py", WRITER, "open"), ("data.py", WRITER, "os.replace")}


# ---------------------------------------------------------------------------
# each command ended before each of its file moves

KILLED = 86  # the exit status of a child ended before a move


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _child(argv, log: Path, kill_at: int | None = None) -> int:
    """The exit status of ``main(argv)`` run in a forked child, whose
    os.replace appends the target and the sha256 of the file it moves to
    ``log``, and, given ``kill_at``, ends the child with os._exit just
    before its ``kill_at``-th move."""
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            sys.stdout = sys.stderr = open(os.devnull, "w")
            real_replace, moves = os.replace, 0

            def replace(src, dst):
                nonlocal moves
                moves += 1
                if moves == kill_at:
                    os._exit(KILLED)
                with open(log, "a") as fh:
                    fh.write(f"{Path(dst).name}\t{_digest(Path(src).read_bytes())}\n")
                real_replace(src, dst)

            os.replace = replace
            status = main([str(a) for a in argv])
        finally:
            os._exit(status)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _restore(out: Path, files: dict[str, bytes]) -> None:
    shutil.rmtree(out)
    out.mkdir()
    for name, blob in files.items():
        (out / name).write_bytes(blob)


def _dataset(out: Path, capsys):
    """The records of the dataset at ``out``, or None when it fails to load
    and ``rainunet preprocess`` reading it exits 1 with one ``error:``
    line."""
    try:
        return [(_digest(r.input.tobytes()), _digest(r.target.tobytes()), r.region, r.start_time)
                for r in load_dataset(out / MANIFEST_NAME)]
    except (OSError, ValueError):
        capsys.readouterr()
        assert main(["preprocess", "--data", str(out), "--out", str(out / "never")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return None


SYNTH = ["--sequences", 3, "--size", 12, "--cleanse-threshold", 0]
MODEL = ["--stages", 1, "--base-channels", 4]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("inputs")
    log = base / "moves.txt"
    steps = [["synth", *SYNTH, "--out", base / "raw"],
             ["preprocess", "--data", base / "raw", "--cleanse-threshold", 0, "--crop-factor", 2,
              "--out", base / "prep"]]
    steps += [["train", "--data", base / "prep", *MODEL, "--epochs", 1, "--seed", seed,
               "--out", base / f"train{seed}"] for seed in (0, 1)]
    for argv in steps:
        assert _child(argv, log) == 0
    return base


def _scenario(command: str, base: Path) -> tuple[list, list]:
    """The old run that fills --out and the new run killed over it: the new
    run at seed 0, the old at seed 1 or, for preprocess, whose output has no
    seed, at crop factor 3 against 2, which crops the inputs differently
    and leaves every target and so the manifest as it was."""
    if command == "synth":
        old = ["synth", *SYNTH, "--seed", 1]
        return old, old[:-1] + [0]
    if command == "preprocess":
        old = ["preprocess", "--data", base / "raw", "--cleanse-threshold", 0, "--crop-factor", 3]
        return old, old[:-1] + [2]
    if command == "train":
        old = ["train", "--data", base / "prep", *MODEL, "--epochs", 2, "--swa", "--swa-start", 1,
               "--seed", 1]
        return old, old[:-1] + [0]
    return [[command, "--data", base / "prep", "--checkpoint", base / f"train{seed}" / "model.runc",
             "--seed", seed] for seed in (1, 0)]


@pytest.mark.parametrize("command", ["synth", "preprocess", "train", "evaluate", "predict"])
def test_killed_command_leaves_each_artifact_whole(command, inputs, tmp_path, capsys):
    # After the command is ended before its Nth move, for every N it makes,
    # each file in --out is absent, the old run's, or one the new run moved
    # into place: its final file or, for train, the checkpoint and log of
    # an earlier epoch. Left-over .tmp files are allowed; nothing reads
    # them. A dataset loads old, loads new, or fails with one error line.
    old_argv, new_argv = _scenario(command, inputs)
    out, log = tmp_path / "out", tmp_path / "moves.txt"
    assert _child([*old_argv, "--out", out], tmp_path / "old_moves.txt") == 0
    old = _snapshot(out)
    old_records = _dataset(out, capsys) if command in ("synth", "preprocess") else None
    assert _child([*new_argv, "--out", out], log) == 0  # at the same path: run.txt holds it
    new = _snapshot(out)
    new_records = _dataset(out, capsys) if command in ("synth", "preprocess") else None
    assert new != old and (old_records is None or new_records != old_records)
    moves = [line.split("\t") for line in log.read_text().splitlines()] if log.exists() else []
    # each file the run changed reached disk by a move, so a kill precedes it
    assert {name for name in new if new[name] != old.get(name)} <= {name for name, _ in moves}
    whole: dict[str, set] = {}
    for name, digest in [*((n, _digest(b)) for n, b in old.items()), *moves]:
        whole.setdefault(name, set()).add(digest)
    for kill_at in range(1, len(moves) + 1):
        _restore(out, old)
        assert _child([*new_argv, "--out", out], tmp_path / "killed.txt", kill_at) == KILLED
        for name, blob in _snapshot(out).items():
            if not name.endswith(".tmp"):
                assert _digest(blob) in whole.get(name, ()), (kill_at, name)
        if old_records is not None:
            assert _dataset(out, capsys) in (None, old_records, new_records), kill_at
