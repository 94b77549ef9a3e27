"""The benchmark's workloads: input making, set-up, the timed loops (tracing
off) and the output checks.

Every workload runs the program through its public API only, the way the
``train`` and ``evaluate`` commands do. Inputs come from
``data.synth_generate`` and are written to disk before any timing; the
program then reads only those files.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rainunet import data, layers, metrics, model, precision, tensor, training

import reference

# |float32 - float64| allowed between a run and its replay under wide
# precision. A float32 forward through the default network differs from the
# float64 one by ~1e-8 in the dice loss and ~2e-7 in a probability. The
# replay runs the program's own kernels at both precisions, so it only
# catches errors that depend on precision; check_conv_ops catches wrong
# kernels.
LOSS_TOL = 1e-5
PROB_TOL = 1e-4
# Largest |program - reference| over the largest |reference| of each array
# (output and the three gradients) that check_conv_ops accepts, by the
# precision the program runs at. The check runs the first CHECK_BATCH
# samples of a batch.
CONV_TOL = {precision.STANDARD: 1e-4, precision.WIDE: 1e-10}
CHECK_BATCH = 2

# setup_s is the median of this many set-ups, each in a fresh process.
SETUP_REPEATS = 3
# Peak RSS is read once this many timed steps (or batches) have run, rounded
# up to a whole epoch (or pass), and the timed loop runs at least that far.
# Each training step leaves its tape as garbage that only a full collection
# frees, so a peak read at the end of a loop of variable length would grow
# with the number of steps the machine happened to fit in.
RSS_STEPS = 6
END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str      # "train" or "infer"
    size: int      # H = W of every record
    width: int     # RainUNetConfig.base_channels
    records: int   # records in the dataset written to disk
    stages: int = 5
    batch: int = 4

    def model_config(self) -> model.RainUNetConfig:
        return model.RainUNetConfig(stages=self.stages, base_channels=self.width,
                                    in_channels=len(data.DEFAULT_CHANNEL_SET))

    def tiny(self) -> "Workload":
        return replace(self, size=12, width=4, records=4, stages=2, batch=2)


# Why each workload exists is recorded in bench/workload_notes.json.
WORKLOADS = {w.name: w for w in (
    Workload("train_default", "train", size=66, width=16, records=8),
    Workload("train_wide_small", "train", size=36, width=32, records=8),
    Workload("infer_default", "infer", size=66, width=16, records=16),
)}

CONV_KINDS = {"proj1": "proj", "sconv9": "spatial", "dconv49": "dilated", "tconv3": "temporal"}


@dataclass
class Call:
    stage: int
    op: str                 # metric name part, e.g. "conv3d.dconv49"
    fn: object              # the layers function
    layer: object           # its layer object, or the pool kernel
    shape: tuple            # input (N, C, T, H, W)
    needs_dx: bool = True   # False for the first conv, whose input is data

    def params(self):
        return [t for _, t in self.layer.parameters()] if hasattr(self.layer, "parameters") else []


def layer_calls(net: model.RainUNet, batch: int, size: int) -> list[Call]:
    """The layer calls of one forward pass, stage by stage, from the model's
    public encoder and decoder blocks. Stage k runs its encoder and decoder
    TS blocks at the same (T, H, W) and the decoder's upsampling from the
    pooled extents below it."""
    cfg = net.config
    ups = {k: up for k, up, _ in net.decoder}
    decs = {k: block for k, _, block in net.decoder}
    ext = (cfg.in_frames, size, size)
    calls = []
    for k, pool_t in enumerate(cfg.temporal_pool_kernels(), start=1):
        act = (batch, cfg.stage_width(k), *ext)
        pool = (pool_t, 2, 2)
        for block, data_input in ((net.encoder[k - 1], k == 1), (decs[k], False)):
            calls.append(Call(k, "conv3d.proj1", layers.conv3d, block.proj,
                              (batch, block.proj.in_channels, *ext), needs_dx=not data_input))
            for kind, attr in list(CONV_KINDS.items())[1:]:
                calls.append(Call(k, f"conv3d.{kind}", layers.conv3d, getattr(block, attr), act))
            for norm in (block.proj_norm, block.out_norm):
                calls.append(Call(k, "group_norm", layers.group_norm, norm, act))
        calls.append(Call(k, "maxpool3d", layers.maxpool3d, pool, act))
        ext = tuple(e // p for e, p in zip(ext, pool))
        calls.append(Call(k, "conv3d_transposed", layers.conv3d_transposed, ups[k],
                          (batch, ups[k].in_channels, *ext)))
    return calls


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class Ready:
    """A workload set up and warmed: dataset and model in memory."""

    records: list
    net: model.RainUNet
    seconds: float
    load_dataset_s: float
    load_checkpoint_s: float   # 0 for training, which starts from a new model


@dataclass
class Outcome:
    """What one run measured, before formatting."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    samples: dict = field(default_factory=dict)   # name -> list of seconds
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def make_inputs(wl: Workload, seed: int, work: Path) -> None:
    """Write the dataset (9-channel ir+vis records, as ``preprocess`` makes
    them) and, for inference, the checkpoint to read."""
    raw = data.synth_generate(data.SynthConfig(sequences=wl.records, size=wl.size, seed=seed))
    records = [data.SequenceRecord(data.select_modalities(r, data.DEFAULT_CHANNEL_SET),
                                   r.target, r.region, r.start_time) for r in raw]
    data.save_dataset(records, work / "data")
    if wl.kind == "infer":
        model.save_checkpoint(work / "model.runc", model.RainUNet(wl.model_config(), seed=seed))


def train_config(wl: Workload, seed: int, epochs: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=epochs, batch_size=wl.batch, seed=seed)


@contextmanager
def patched(owner, name: str, wrap):
    """Replace ``owner.name`` (a module function, a method, or a method bound
    to one object) by ``wrap(original)`` until the block ends."""
    original = getattr(owner, name)
    own = name in vars(owner)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        if own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


def set_up(wl: Workload, seed: int, work: Path) -> Ready:
    """Load the dataset and the model, then run one warm-up step or batch."""
    t0 = time.perf_counter()
    records = data.load_dataset(work / "data" / data.MANIFEST_NAME)
    t1 = time.perf_counter()
    if wl.kind == "train":
        net = model.RainUNet(wl.model_config(), seed=seed)
        training.fit(net, records[:wl.batch], train_config(wl, seed, epochs=1),
                     on_epoch_end=lambda _e, m, _r: model.save_checkpoint(work / "model.runc", m))
        load_checkpoint_s = 0.0
    else:
        net = model.load_checkpoint(work / "model.runc")
        load_checkpoint_s = time.perf_counter() - t1
        training.predict_probs(net, records[:wl.batch], batch_size=wl.batch)
    return Ready(records, net, time.perf_counter() - t0, t1 - t0, load_checkpoint_s)


class _TimeUp(Exception):
    """Raised from the epoch callback to end ``training.fit`` once the run's
    measuring time is spent."""


@dataclass
class TrainRun:
    step_s: list
    save_s: list
    samples: int
    elapsed: float
    losses: list       # mean loss of each epoch
    aborted: bool
    peak_rss_mb: float


def timed_train(wl: Workload, seed: int, ready: Ready, work: Path, seconds: float,
                rss_steps: int = RSS_STEPS) -> TrainRun:
    """``training.fit`` over the dataset, saving the checkpoint after every
    epoch as ``rainunet train`` does, until ``seconds`` have passed at an
    epoch end. A step runs from one ``model.forward`` call to the next, or
    to the epoch end: forward, loss, backward and AdamW."""
    net = ready.net
    marks: list[tuple[str, float]] = []
    log: list = []
    rss: list[float] = []

    def marked(forward):
        def marked_forward(x):
            marks.append(("step", time.perf_counter()))
            return forward(x)
        return marked_forward

    def on_epoch_end(_epoch, mdl, result):
        marks.append(("save", time.perf_counter()))
        model.save_checkpoint(work / "model.runc", mdl)
        marks.append(("epoch", time.perf_counter()))
        if not rss and sum(kind == "step" for kind, _ in marks) >= rss_steps:
            rss.append(peak_rss_mb())
        if rss and marks[-1][1] - start >= seconds:
            log.extend(result.log)
            raise _TimeUp

    aborted = False
    start = time.perf_counter()
    try:
        with patched(net, "forward", marked):
            training.fit(net, ready.records, train_config(wl, seed, epochs=10**9), on_epoch_end)
    except _TimeUp:
        pass
    except training.TrainingAbort as err:
        log.extend(err.log)
        aborted = True
    ends = [t for kind, t in marks if kind == "epoch"]
    elapsed = (ends[-1] if ends else time.perf_counter()) - start
    pairs = list(zip(marks, marks[1:]))
    steps = [b - a for (kind, a), (_, b) in pairs if kind == "step"]
    saves = [b - a for (kind, a), (_, b) in pairs if kind == "save"]
    return TrainRun(steps, saves, len(ends) * len(ready.records), elapsed,
                    [e.mean_loss for e in log], aborted, rss[0] if rss else peak_rss_mb())


@dataclass
class InferRun:
    batch_s: list
    records: int
    elapsed: float
    probs: np.ndarray              # probabilities of the first pass
    passes: list                   # (ConfusionCounts, lead-time IoU) per pass
    peak_rss_mb: float


def timed_infer(wl: Workload, ready: Ready, seconds: float,
                rss_steps: int = RSS_STEPS) -> InferRun:
    """Passes over the dataset as ``rainunet evaluate`` makes them:
    ``predict_probs`` in batches, then ``binarize``, ``evaluate_masks`` and
    ``lead_time_iou``, until ``seconds`` have passed at a pass end."""
    records = ready.records
    chunks_of = [records[lo:lo + wl.batch] for lo in range(0, len(records), wl.batch)]
    gts = np.stack([r.target for r in records])
    batch_s, passes, first, rss = [], [], None, None
    start = time.perf_counter()
    while True:
        chunks = []
        for chunk in chunks_of:
            t = time.perf_counter()
            chunks.append(training.predict_probs(ready.net, chunk, batch_size=wl.batch))
            batch_s.append(time.perf_counter() - t)
        probs = np.concatenate(chunks)
        passes.append(evaluate(probs, gts))
        if first is None:
            first = probs
        if rss is None and len(batch_s) >= rss_steps:
            rss = peak_rss_mb()
        if rss is not None and time.perf_counter() - start >= seconds:
            break
    return InferRun(batch_s, len(passes) * len(records), time.perf_counter() - start,
                    first, passes, rss)


def evaluate(probs, gts):
    """What ``rainunet evaluate`` computes from the probabilities: the
    confusion counts and the IoU per lead time."""
    masks = metrics.binarize(probs)
    return metrics.evaluate_masks(masks, gts).counts, metrics.lead_time_iou(masks, gts).iou_per_lead


def _batch(wl: Workload, records):
    x = np.stack([r.input for r in records[:wl.batch]])
    y = np.stack([r.target for r in records[:wl.batch]]).astype(np.float32)
    return x, y


def _wide_copy(net: model.RainUNet) -> model.RainUNet:
    """The same parameters in a float64 model; call under wide precision."""
    wide = model.RainUNet(net.config, seed=0)
    wide.load_state({name: t.data for name, t in net.named_parameters()})
    return wide


def _program_conv(call: Call, x, gy, weight, bias):
    """Output and input, weight and bias gradients of the program's call at
    the current precision, with ``gy`` as the output gradient."""
    src = call.layer
    layer = layers.Conv3DLayer(src.in_channels, src.out_channels, src.spec, weight=weight, bias=bias)
    xt = tensor.Tensor(x, requires_grad=True)
    y = call.fn(xt, layer)
    if y.shape != gy.shape:
        return None
    tensor.backward(tensor.tensor_sum(tensor.mul(y, tensor.Tensor(gy))))
    return y.data, xt.grad, layer.weight.grad, layer.bias.grad


def check_conv_ops(wl: Workload, net: model.RainUNet, seed: int) -> list[Check]:
    """Each kind of convolution at the first and the deepest stage, run by
    the program at both precisions on the model's weights, a random bias and
    random inputs, against the float64 reference in bench/reference.py."""
    last = net.config.stages
    firsts = {}
    for call in layer_calls(net, min(wl.batch, CHECK_BATCH), wl.size):
        if call.op.startswith("conv3d") and call.stage in (1, last):
            firsts.setdefault((call.op, call.stage), call)
    rng = np.random.default_rng(seed)
    checks = []
    for (op, stage), call in firsts.items():
        spec = call.layer.spec
        x = rng.standard_normal(call.shape, dtype=np.float32)
        gy = rng.standard_normal((call.shape[0], call.layer.out_channels,
                                  *reference.out_extents(call.shape[2:], spec)), dtype=np.float32)
        weight = call.layer.weight.data
        bias = rng.standard_normal(call.layer.out_channels, dtype=np.float32)
        want = reference.conv(x, weight, bias, spec, gy)
        errs = {}
        for mode in (precision.STANDARD, precision.WIDE):
            with precision.use_precision(mode):
                got = _program_conv(call, x, gy, weight, bias)
            errs[mode] = np.inf if got is None else max(
                float(np.abs(g - r).max() / max(np.abs(r).max(), 1e-30)) for g, r in zip(got, want))
        checks.append(Check(
            f"{op}.s{stage}_matches_reference", all(errs[m] <= CONV_TOL[m] for m in errs),
            "output and gradients, max |program - reference| / max |reference|: "
            + ", ".join(f"{m} {errs[m]:.3g} (tol {CONV_TOL[m]:g})" for m in errs)))
    return checks


def check_train(wl: Workload, ready: Ready, losses, work: Path, seed: int) -> list[Check]:
    """Losses finite, the last checkpoint equal to the model, one step
    replayed under wide precision, and the convolutions against the
    reference."""
    net = ready.net
    finite = bool(losses) and all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in losses)
    checks = [Check("epoch_losses_finite", finite, f"{len(losses)} epoch mean losses in [0, 1]")]

    saved = model.load_checkpoint(work / "model.runc")
    same = all(np.array_equal(t.data, s.data) for (_, t), (_, s)
               in zip(net.named_parameters(), saved.named_parameters()))
    checks.append(Check("checkpoint_matches_model", same, "last epoch's checkpoint read back bitwise"))
    del saved

    x, y = _batch(wl, ready.records)
    loss = training.batch_dice_loss(net.forward(tensor.Tensor(x)), tensor.Tensor(y))
    tensor.backward(loss)
    grads_finite = all(t.grad is not None and np.isfinite(t.grad).all()
                       for _, t in net.named_parameters())
    for _, t in net.named_parameters():
        t.zero_grad()
    with precision.use_precision(precision.WIDE), tensor.no_grad():
        wide_loss = training.batch_dice_loss(_wide_copy(net).forward(tensor.Tensor(x)),
                                             tensor.Tensor(y)).item()
    err = abs(loss.item() - wide_loss)
    checks.append(Check("step_gradients_finite", grads_finite, "replayed step, every parameter"))
    checks.append(Check("step_loss_matches_wide", err <= LOSS_TOL,
                        f"|loss32 - loss64| = {err:.3g} <= {LOSS_TOL:g}"))
    return checks + check_conv_ops(wl, net, seed)


def check_infer(wl: Workload, ready: Ready, run: InferRun, seed: int) -> list[Check]:
    """Probabilities valid, every pass identical, counts complete, one batch
    replayed under wide precision, and the convolutions against the
    reference."""
    probs = run.probs
    gts_size = len(ready.records) * probs[0].size
    counts0, iou0 = run.passes[0]
    checks = [
        Check("probs_in_unit_interval", bool(np.isfinite(probs).all() and probs.min() >= 0.0
                                             and probs.max() <= 1.0), f"{probs.size} values"),
        Check("counts_cover_every_pixel", counts0.total == gts_size,
              f"tp+fp+fn+tn = {counts0.total} of {gts_size}"),
        Check("passes_identical", all(c == counts0 and np.array_equal(i, iou0)
                                      for c, i in run.passes), f"{len(run.passes)} passes"),
    ]
    x, _ = _batch(wl, ready.records)
    with precision.use_precision(precision.WIDE), tensor.no_grad():
        wide = _wide_copy(ready.net).forward(tensor.Tensor(x)).data
    err = float(np.abs(probs[:wl.batch] - wide).max())
    checks.append(Check("batch_probs_match_wide", err <= PROB_TOL,
                        f"max |p32 - p64| = {err:.3g} <= {PROB_TOL:g}"))
    return checks + check_conv_ops(wl, ready.net, seed)


def start_loop_collected() -> None:
    """Run a full garbage collection just before a timed loop.

    Each step leaves its tape behind as reference cycles (tensor <-> node),
    which only the cyclic collector frees, so memory and pauses depend on
    where the collector's counters stand. How many objects input making and
    set-up created varies with the seed; collecting here makes every run
    enter the loop in the same collector state. The loop itself runs with
    the collector untouched."""
    gc.collect()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(wl: Workload, seed: int, work: Path, seconds: float,
               import_s: float, other_setups: list[float]) -> Outcome:
    """End-to-end metrics with tracing off. ``other_setups`` are the set-up
    times of fresh processes; this process's own, its imports and its
    set-up, joins them."""
    ready = set_up(wl, seed, work)
    setups = [*other_setups, import_s + ready.seconds]
    out = Outcome()
    start_loop_collected()
    if wl.kind == "train":
        run = timed_train(wl, seed, ready, work, seconds)
        out.checks = check_train(wl, ready, run.losses, work, seed)
        step_s, samples, n_ops, failed_ops = run.step_s, run.samples, len(run.step_s), int(run.aborted)
        out.samples = {"step_s": run.step_s, "save_s": run.save_s}
    else:
        run = timed_infer(wl, ready, seconds)
        out.checks = check_infer(wl, ready, run, seed)
        step_s, samples, n_ops, failed_ops = run.batch_s, run.records, len(run.batch_s), 0
        out.samples = {"step_s": run.batch_s}
    out.samples["setup_s"] = setups
    out.extra = {"measured_s": run.elapsed, "samples": samples}
    values = {
        "setup_s": statistics.median(setups),
        "samples_per_s": samples / run.elapsed,
        "step_s": statistics.median(step_s),
        "peak_rss_mb": run.peak_rss_mb,
    }
    out.metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    out.attempted = n_ops + failed_ops + len(out.checks)
    out.failed = failed_ops + sum(not c.passed for c in out.checks)
    return out
