"""The traced run: spans around the step's calls into the program, and the
per-layer breakdown.

Nothing inside ``src/`` is instrumented. Spans are recorded here, around
public calls (``model.forward``, ``training.batch_dice_loss``,
``tensor.backward``, ``AdamW.step``, ``model.save_checkpoint`` and the
metrics), kept in memory and written out with the run's record. Per-op
numbers come from calling ``layers.conv3d``, ``conv3d_transposed``,
``group_norm`` and ``maxpool3d`` on the exact shapes each stage of the
workload's model sees: the forward pass is timed directly, the backward pass
as ``tensor.backward`` of the sum of the output.
"""

from __future__ import annotations

import statistics
import time
from contextlib import ExitStack, contextmanager
from math import prod
from pathlib import Path

import numpy as np

from rainunet import layers, model, tensor, training

import workloads

STAGES = 5
FLOAT_BYTES = 4


def _catalogue() -> dict[str, str]:
    """Every per-layer metric and its unit. A metric a workload does not
    exercise (backward on inference, checkpoint loading on training) reads 0."""
    units = {}
    for k in range(1, STAGES + 1):
        for kind in workloads.CONV_KINDS:
            p = f"layers.conv3d.{kind}.s{k}"
            units.update({f"{p}.fwd_s": "s", f"{p}.bwd_s": "s",
                          f"{p}.gflop": "GFLOP", f"{p}.mb": "MB"})
        units[f"layers.conv3d.dconv49.s{k}.live_tap_frac"] = "frac"
        for op in ("conv3d_transposed", "group_norm", "maxpool3d"):
            units.update({f"layers.{op}.s{k}.fwd_s": "s", f"layers.{op}.s{k}.bwd_s": "s"})
    units.update({
        "model.forward_s": "s", "model.forward_nograd_s": "s",
        "tensor.backward_s": "s", "tensor.tape_nodes": "count", "tensor.tape_mb": "MB",
        "training.loss_s": "s", "training.adamw_step_s": "s",
        "model.save_checkpoint_s": "s", "model.load_checkpoint_s": "s",
        "data.load_dataset_s": "s", "metrics.evaluate_s": "s",
        "trace.overhead_frac": "frac", "trace.accounted_frac": "frac",
    })
    return units


PER_LAYER_UNITS = _catalogue()


class Spans:
    """Spans as rows of (id, name, start, end, parent id), in memory."""

    def __init__(self):
        self.rows: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.rows)
        self.rows.append([sid, name, time.perf_counter(), None,
                          self._open[-1] if self._open else None])
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            self.rows[sid][3] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.rows if n == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self, name: str) -> list[float]:
        """Duration minus the time the span's direct children cover."""
        child = {}
        for _, _, start, end, parent in self.rows:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return [end - start - child.get(sid, 0.0)
                for sid, n, start, end, _ in self.rows if n == name]


# ---------------------------------------------------------------------------
# per-op calls on the shapes of each stage


def conv_counts(call: workloads.Call) -> dict:
    """Computed, not measured: forward flops as the dense kernel does them,
    and bytes of input, weight, bias and output at float32."""
    layer = call.layer
    n, ci = call.shape[:2]
    out = layer.spec.out_extents(call.shape[2:])
    taps = prod(layer.spec.kernel)
    flop = 2 * n * layer.out_channels * ci * taps * prod(out)
    elems = (n * ci * prod(call.shape[2:]) + layer.out_channels * ci * taps
             + layer.out_channels + n * layer.out_channels * prod(out))
    return {"fwd_flop": flop, "bytes": elems * FLOAT_BYTES}


def live_tap_frac(call: workloads.Call) -> float:
    """Share of kernel taps that read at least one value that is not padding:
    a tap at offset a*d - p reads inside an extent n at stride 1 iff
    |a*d - p| < n."""
    spec = call.layer.spec
    live = 1
    for n, k, d, p in zip(call.shape[2:], spec.kernel, spec.dilation, spec.padding):
        live *= sum(abs(a * d - p) < n for a in range(k))
    return live / prod(spec.kernel)


def _time_call(call: workloads.Call, x: np.ndarray, grad: bool) -> tuple[float, float]:
    if not grad:
        xt = tensor.Tensor(x)
        with tensor.no_grad():
            t0 = time.perf_counter()
            call.fn(xt, call.layer)
            return time.perf_counter() - t0, 0.0
    xt = tensor.Tensor(x, requires_grad=call.needs_dx)
    t0 = time.perf_counter()
    y = call.fn(xt, call.layer)
    t1 = time.perf_counter()
    loss = tensor.tensor_sum(y)
    t2 = time.perf_counter()
    tensor.backward(loss)
    t3 = time.perf_counter()
    for t in call.params():
        t.zero_grad()
    return t1 - t0, t3 - t2


def time_layer_calls(calls: list[workloads.Call], grad: bool, seconds: float, seed: int):
    """Repeat the whole list of calls until ``seconds`` have passed (at least
    once); return the median (forward, backward) seconds of each call."""
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(c.shape, dtype=np.float32) for c in calls]
    times: list[list[tuple[float, float]]] = [[] for _ in calls]
    start = time.perf_counter()
    while not times[0] or time.perf_counter() - start < seconds:
        for call, x, out in zip(calls, inputs, times):
            out.append(_time_call(call, x, grad))
    medians = [(statistics.median(f for f, _ in ts), statistics.median(b for _, b in ts))
               for ts in times]
    return medians, len(times[0])


def layer_metrics(calls: list[workloads.Call], medians) -> dict[str, float]:
    values: dict[str, float] = {}

    def add(name, v):
        values[name] = values.get(name, 0.0) + v

    for call, (fwd, bwd) in zip(calls, medians):
        prefix = f"layers.{call.op}.s{call.stage}"
        add(f"{prefix}.fwd_s", fwd)
        add(f"{prefix}.bwd_s", bwd)
        if call.fn is layers.conv3d:
            counts = conv_counts(call)
            add(f"{prefix}.gflop", counts["fwd_flop"] / 1e9)
            add(f"{prefix}.mb", counts["bytes"] / 1e6)
        if call.op == "conv3d.dconv49":
            values[f"{prefix}.live_tap_frac"] = live_tap_frac(call)
    return values


# ---------------------------------------------------------------------------
# traced steps and batches


def _base(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _held_arrays(values, seen: set):
    """The arrays in ``values``: arrays, tensors' data, and what the cells of
    nested closures hold."""
    for v in values:
        if isinstance(v, tensor.Tensor):
            v = v.data
        if isinstance(v, np.ndarray):
            yield v
        elif callable(v) and getattr(v, "__closure__", None) and id(v) not in seen:
            seen.add(id(v))
            yield from _held_arrays([c.cell_contents for c in v.__closure__
                                     if c.cell_contents is not None], seen)


def tape_size(graph, params) -> tuple[int, float]:
    """Nodes on the tape, and MB of the arrays it keeps alive besides the
    parameters: each node's inputs and output and what its backward closure
    holds, counted once per underlying buffer."""
    if graph is None or graph.consumed:
        return 0, 0.0
    skip = {id(_base(t.data)) for t in params}
    held, seen = {}, set()
    for node in graph.nodes:
        for arr in _held_arrays([*node.inputs, node.out, node.apply], seen):
            base = _base(arr)
            if id(base) not in skip:
                held[id(base)] = base.nbytes
    return len(graph.nodes), sum(held.values()) / 1e6


@contextmanager
def instrumented(spans: Spans, net, tape: list):
    """Spans around the program's own calls while the block runs:
    ``model.forward``, ``training.batch_dice_loss``, ``tensor.backward`` and
    ``AdamW.step`` as ``training.fit`` makes them, ``training.predict_probs``,
    ``model.save_checkpoint`` and the evaluation metrics. The tape size is
    read after each loss, and after each no-grad forward, into ``tape[0]``."""
    params = [t for _, t in net.named_parameters()]

    def spanned(name, after=None):
        def wrap(fn):
            def call(*args, **kwargs):
                with spans.span(name):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after()
                return result
            return call
        return wrap

    def read_tape():
        with spans.span("trace.tape_size"):
            tape[0] = tape_size(tensor.active_graph(), params)

    def read_tape_nograd():
        if not tensor.is_grad_enabled():
            read_tape()

    with ExitStack() as stack:
        for owner, name, span_name, after in (
            (net, "forward", "model.forward", read_tape_nograd),
            (training, "batch_dice_loss", "training.batch_dice_loss", read_tape),
            (training, "backward", "tensor.backward", None),
            (training.AdamW, "step", "training.AdamW.step", None),
            (training, "predict_probs", "training.predict_probs", None),
            (model, "save_checkpoint", "model.save_checkpoint", None),
            (workloads, "evaluate", "metrics.evaluate", None),
        ):
            stack.enter_context(workloads.patched(owner, name, spanned(span_name, after)))
        yield


# The spans that make up a training step and an inference batch.
STEP_PARTS = {
    "train": ("model.forward", "training.batch_dice_loss", "tensor.backward", "training.AdamW.step"),
    "infer": ("model.forward",),
}


def traced(wl, seed: int, work: Path, seconds: float) -> "workloads.Outcome":
    """Per-layer metrics. A quarter of ``seconds`` runs the untraced loop,
    a quarter the same loop traced, and the rest times the layers per
    stage."""
    spans = Spans()
    ready = workloads.set_up(wl, seed, work)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values["data.load_dataset_s"] = ready.load_dataset_s
    values["model.load_checkpoint_s"] = ready.load_checkpoint_s
    train = wl.kind == "train"
    tape = [(0, 0.0)]
    out = workloads.Outcome()
    workloads.start_loop_collected()
    if train:
        run = workloads.timed_train(wl, seed, ready, work, seconds / 4, rss_steps=1)
        with instrumented(spans, ready.net, tape):
            traced_run = workloads.timed_train(wl, seed, ready, work, seconds / 4, rss_steps=1)
        untraced, traced_steps = run.step_s, traced_run.step_s
        out.checks = workloads.check_train(wl, ready, run.losses + traced_run.losses, work, seed)
        out.failed = int(run.aborted) + int(traced_run.aborted)
        values.update({
            "model.forward_s": spans.median("model.forward"),
            "tensor.backward_s": spans.median("tensor.backward"),
            "training.loss_s": spans.median("training.batch_dice_loss"),
            "training.adamw_step_s": spans.median("training.AdamW.step"),
            "model.save_checkpoint_s": spans.median("model.save_checkpoint"),
        })
    else:
        run = workloads.timed_infer(wl, ready, seconds / 4, rss_steps=1)
        with instrumented(spans, ready.net, tape):
            traced_run = workloads.timed_infer(wl, ready, seconds / 4, rss_steps=1)
        untraced, traced_steps = run.batch_s, traced_run.batch_s
        out.checks = workloads.check_infer(wl, ready, run, seed)
        values.update({
            "model.forward_nograd_s": spans.median("model.forward"),
            "metrics.evaluate_s": spans.median("metrics.evaluate"),
        })
    out.samples = {"untraced_step_s": untraced, "traced_step_s": traced_steps}
    out.attempted = len(untraced) + len(traced_steps)
    untraced_step = statistics.median(untraced)
    values["tensor.tape_nodes"], values["tensor.tape_mb"] = tape[0]
    values["trace.overhead_frac"] = statistics.median(traced_steps) / untraced_step - 1.0
    values["trace.accounted_frac"] = sum(
        statistics.median(spans.self_times(n)) for n in STEP_PARTS[wl.kind]) / untraced_step

    calls = workloads.layer_calls(ready.net, wl.batch, wl.size)
    medians, reps = time_layer_calls(calls, train, seconds / 2, seed)
    values.update(layer_metrics(calls, medians))
    op_fwd = sum(f for f, _ in medians)
    op_bwd = sum(b for _, b in medians)
    forward = values["model.forward_s" if train else "model.forward_nograd_s"]
    out.extra = {
        "untraced_step_s": untraced_step,
        "layer_reps": reps,
        "ops_share_of_forward": op_fwd / forward,
        "ops_share_of_backward": op_bwd / values["tensor.backward_s"] if train else None,
        "conv_calls": [{"stage": c.stage, "op": c.op, "input": list(c.shape),
                        **conv_counts(c), "computed": True}
                       for c in calls if c.fn is layers.conv3d],
    }
    out.attempted += len(out.checks)
    out.failed += sum(not c.passed for c in out.checks)
    out.metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}
    out.spans = spans.rows
    return out
