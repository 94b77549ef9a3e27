"""Dice loss, AdamW with decoupled weight decay, stochastic weight
averaging, and the training loop.

The dice loss of a batch is one tape op: the per-sample sums are row sums of
the batch, and the gradient is written out in closed form (see
batch_dice_loss)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import precision
from .data import write_csv
from .layers import stack_in_layout
from .metrics import is_binary
from .model import RainUNet, RainUNetConfig
from .tensor import (NonFiniteError, Tensor, TensorError, _op, backward, discard_tape,
                     memory_order, no_grad)


class TrainingAbort(RuntimeError):
    """Training stopped on a non-finite loss; carries the partial log."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 4
    lr: float = 1e-3
    weight_decay: float = 1e-2
    seed: int = 0
    swa: bool = False
    swa_start: int = 10

    def validate(self) -> None:
        for name, v in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if not math.isfinite(v):
                raise TensorError(f"{name} must be finite, got {v}")
        for name, low in (("epochs", 0), ("batch_size", 1), ("lr", 0), ("weight_decay", 0),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise TensorError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.swa and not 1 <= self.swa_start <= self.epochs:
            raise TensorError(f"swa_start must lie in [1, epochs], got {self.swa_start} "
                              f"with epochs = {self.epochs}")


def batch_dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """The dice loss of a batch: each sample's loss over its full map (its
    row of ``pred`` and ``target`` along the leading axis), added in sample
    order and times 1/N. One tape op with a closed-form gradient.

    A sample's loss is 1 - 2*sum(p*g) / (sum(p^2) + sum(g^2)). Both maps all
    zero means a perfect match of empty masks: the loss is 0, with a zero
    gradient. The forward and the gradient repeat the formula's operations
    one by one (sums, products by 2 and -1, a quotient, ``+ 1``), in their
    order, so each sample's numbers are those of that chain of elementwise
    ops; its scalars are broadcast over its row.
    """
    if pred.shape != target.shape:
        raise TensorError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise TensorError(f"dice loss of an empty batch of shape {pred.shape}")
    if float(pred.data.min()) < 0.0 or float(pred.data.max()) > 1.0:
        raise TensorError("predictions must lie in [0, 1]")
    if not is_binary(target.data):
        raise TensorError("target must be binary")
    rows = pred.shape[0]
    p = pred.data.reshape(rows, -1)
    g = target.data.reshape(rows, -1)
    a = np.sum(p * g, axis=1) * 2.0
    den = np.sum(p * p, axis=1) + np.sum(g * g, axis=1)
    live = den != 0
    den = np.where(live, den, 1.0)  # the rows of empty samples divide by 1, then get 0
    losses = np.where(live, -(a / den) + 1.0, 0.0)
    total = np.add.accumulate(losses)[-1] * np.asarray(1.0 / rows, dtype=losses.dtype)
    shape = pred.shape

    def grad_fn(gy):
        gq = gy * (1.0 / rows)
        gd = gq * -1.0
        g_ov = (gd / den * 2.0)[:, None]
        g_den = (-gd * a / (den * den))[:, None]
        grad = (g_den * p + g_den * p) + g_ov * g
        grad[~live] = gq * 0.0
        return (grad.reshape(shape),)
    return _op(total, (pred,), grad_fn)


# AdamW's moment decay rates and denominator guard: the defaults of Kingma &
# Ba (arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elements per block that AdamW.step_param and SWAAverager.accumulate walk: a
# block's arrays stay in L2 cache across an update's passes (16 in AdamW's)
# instead of streaming through memory each pass.
ADAMW_BLOCK = 32768


class AdamW:
    """Decoupled weight decay: p -= lr * (mhat / (sqrt(vhat) + EPS) + wd * p),
    with mhat and vhat the bias-corrected moments of decay BETA1 and BETA2.

    Each parameter is updated in place, in blocks of ADAMW_BLOCK elements,
    in its memory order, read off its strides at each step (a ``.data`` that
    is not dense is updated in a copy and copied back); ``m`` and ``v`` are
    flat arrays in that order, views into one zeroed buffer, so a parameter
    must keep its memory order from step to step. Every element sees the
    formula's operations in order, so the result is bit-identical to a
    whole-array pass. The parameters must share one dtype, that of the
    buffer and of the two scratch blocks.

    :meth:`step_param` is the one update: it updates one parameter for the
    pending step as soon as its gradient is complete (``backward``'s
    ``on_grad``) and drops that gradient, which the optimizer consumes.
    :meth:`step` closes the step once every parameter has had it.
    Parameters are independent, so each gets the same bytes in any order.

    A block whose gradient has been +-0 at every step so far has m and v
    +0.0, and the formula reduces, operation for operation and bit for bit
    (a -0.0 weight and wd = 0 included), to p -= (wd*p + 0) * lr: such a
    block gets only that decay, and its m and v are never read or written.
    ``started[name]`` marks the blocks that have had a nonzero gradient;
    each gets the full update from then on. So a block of a conv weight's
    dead-tap slabs (see layers), which its gradient leaves zero, costs a
    scan of the gradient and keeps its moment pages untouched.
    """

    def __init__(self, named_params, lr=1e-3, weight_decay=1e-2):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        dtypes = {t.data.dtype for _, t in self.named_params}
        if len(dtypes) != 1:
            raise TensorError("AdamW needs parameters of one dtype, got "
                              f"{sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        # m and v of every parameter are views into one zeroed buffer: the
        # blocks never started stay untouched zero pages, and the whole state
        # goes back at once when the optimizer is dropped
        n = sum(t.size for _, t in self.named_params)
        state = np.zeros((2, n), dtype)
        self.m, self.v = {}, {}
        for name, t in self.named_params:  # the buffer handed out from its end
            n -= t.size
            self.m[name], self.v[name] = state[:, n : n + t.size]
        self.scratch = np.empty((2, ADAMW_BLOCK), dtype)
        self.started = {name: np.zeros(-(-t.size // ADAMW_BLOCK), dtype=bool)
                        for name, t in self.named_params}
        self.names = {id(t): name for name, t in self.named_params}
        self.updated: set[str] = set()  # the parameters the pending step has updated

    def step_param(self, t) -> None:
        """Update the parameter ``t`` for the pending step from its gradient,
        and drop that gradient. A tensor this optimizer does not hold is
        left alone."""
        name = self.names.get(id(t))
        if name is None:
            return
        if name in self.updated:
            raise TensorError(f"{name} was already updated in this step")
        if t.grad is None:
            raise TensorError(f"missing gradient for {name}")
        k = self.step_count + 1
        bc1 = 1.0 - BETA1**k
        bc2 = 1.0 - BETA2**k
        order = memory_order(t.data)
        held = t.data.transpose(order)
        p = held.reshape(-1)  # a view, unless .data is not dense
        g = t.grad.transpose(order).reshape(-1)
        m, v, started = self.m[name], self.v[name], self.started[name]
        for i, b in enumerate(range(0, p.size, ADAMW_BLOCK)):
            e = min(b + ADAMW_BLOCK, p.size)
            tmp, update = self.scratch[:, : e - b]
            if not started[i]:
                started[i] = g[b:e].any()
            if started[i]:
                self._update(p[b:e], g[b:e], m[b:e], v[b:e], tmp, update, bc1, bc2)
            elif self.weight_decay:
                # the formula's "+ 0" keeps a -0.0 weight at -0.0
                np.multiply(p[b:e], self.weight_decay, out=update)
                update += 0.0
                update *= self.lr
                p[b:e] -= update
        if not np.may_share_memory(p, held):
            held[...] = p.reshape(held.shape)
        t.grad = None
        self.updated.add(name)

    def step(self) -> None:
        """Close the pending step; TensorError, naming the parameter, when a
        held one has not had :meth:`step_param` in it."""
        for name, _ in self.named_params:
            if name not in self.updated:
                raise TensorError(f"missing gradient for {name}: it was not updated in this step")
        self.updated.clear()
        self.step_count += 1

    def _update(self, p, g, m, v, tmp, update, bc1, bc2) -> None:
        """The docstring formula in place on one block, in two temporary blocks."""
        np.multiply(g, 1.0 - BETA1, out=tmp)
        m *= BETA1
        m += tmp
        np.multiply(g, 1.0 - BETA2, out=tmp)
        tmp *= g
        v *= BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        np.divide(m, bc1, out=update)
        update /= tmp
        if self.weight_decay:
            np.multiply(p, self.weight_decay, out=tmp)
            update += tmp
        update *= self.lr
        p -= update


class SWAAverager:
    """Running arithmetic mean of parameter snapshots, each held in its
    parameter's memory order so that accumulating is one contiguous pass."""

    def __init__(self):
        self.mean: dict[str, np.ndarray] = {}
        self.count = 0

    def accumulate(self, named_params) -> None:
        """Add a snapshot: each mean moves by (p - mean) / count, in blocks
        of ADAMW_BLOCK elements in the mean's memory order through one
        scratch block, so no parameter-sized temporary is made. Each element
        sees the formula's operations, so the bytes are a whole-array pass's."""
        self.count += 1
        for name, t in named_params:
            if name not in self.mean:
                self.mean[name] = t.data.copy(order="K")
                continue
            mean = self.mean[name]
            axes = memory_order(mean)
            m = mean.transpose(axes).reshape(-1)  # a view: the mean is a K-order copy
            p = t.data.transpose(axes).reshape(-1)
            scratch = np.empty(min(ADAMW_BLOCK, m.size), mean.dtype)
            for b in range(0, m.size, ADAMW_BLOCK):
                step = scratch[: min(ADAMW_BLOCK, m.size - b)]
                np.subtract(p[b : b + ADAMW_BLOCK], m[b : b + ADAMW_BLOCK], out=step)
                step /= self.count
                m[b : b + ADAMW_BLOCK] += step

    def finalize(self) -> dict[str, np.ndarray]:
        """The mean of the snapshots, handed over as the averager holds it:
        its own arrays, not copies."""
        if self.count == 0:
            raise TensorError("SWA finalize with no accumulated snapshots")
        return self.mean


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    swa_active: bool


@dataclass
class FitResult:
    log: list[EpochLog] = field(default_factory=list)
    swa: SWAAverager | None = None


def check_records(records, cfg: RainUNetConfig, names=None) -> None:
    """Raise TensorError, naming the record (``names[i]``, else ``record
    i``) and the setting, unless every record fits a model of ``cfg``: its
    input as RainUNetConfig.check_input takes it, its target's H and W as
    its input's, and its input's shape as the first record's, so that the
    records stack into batches. A SequenceRecord's target always has the
    model's out_frames, so the targets share one shape too."""
    for i, r in enumerate(records):
        name = names[i] if names else f"record {i}"
        try:
            cfg.check_input((1, *r.input.shape))
        except TensorError as err:
            raise TensorError(f"{name}: {err}") from None
        if r.target.shape[1:] != r.input.shape[2:]:
            raise TensorError(f"{name}: target H,W {r.target.shape[1:]} differ from the "
                              f"input's {r.input.shape[2:]}")
        check_same_size(r, records[0], name)


def check_same_size(record, first, name: str) -> None:
    """Raise TensorError, naming ``record``, unless its input's shape is ``first``'s."""
    if record.input.shape != first.input.shape:
        raise TensorError(f"{name}: input {record.input.shape} differs from the first record's "
                          f"{first.input.shape}: a dataset holds one frame size")


def _diverged(params, epoch: int, step: int) -> str | None:
    """The first of ``params`` holding NaN or Inf, named with the last
    update made (``epoch``, ``step``), or None; only a failed step scans.
    A weight the previous forward read was finite then, so that update
    wrote the value."""
    for name, t in params:
        if not np.isfinite(t.data).all():
            return f"parameter {name} holds NaN or Inf after the update of epoch {epoch}, step {step}"
    return None


def fit(model: RainUNet, records, cfg: TrainConfig, on_epoch_end=None) -> FitResult:
    """Seeded-shuffle minibatch training with dice loss and AdamW.

    Each parameter is updated inside the backward, as soon as its gradient
    is complete (AdamW.step_param as ``backward``'s ``on_grad``), and its
    gradient is dropped then, so a step never holds every gradient at once;
    AdamW.step then closes the step.

    Each batch is stacked from its records when it is drawn, its inputs in
    the layout (layers.stack_in_layout) and its targets as float32, so the
    loop holds one batch beside the records, not a copy of the dataset.

    A non-finite loss (or activation) aborts with the epoch/step in the
    message, after dropping the step's partial tape; the log collected so
    far rides along on the exception. When an update has diverged, the
    message names the first parameter holding NaN or Inf and the update
    after which it does, rather than the op that read it.
    """
    cfg.validate()
    if not records:
        raise TensorError("empty dataset")
    check_records(records, model.config)
    params = model.named_parameters()
    opt = AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    result = FitResult(swa=SWAAverager() if cfg.swa else None)
    n = len(records)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                # no name holds the batch or the probabilities: the tape
                # holds them until the backward has read them
                loss = batch_dice_loss(
                    model.forward(Tensor(stack_in_layout([records[i].input for i in idx]))),
                    Tensor(np.stack([records[i].target for i in idx], dtype=np.float32)))
                backward(loss, on_grad=opt.step_param)
            except NonFiniteError as err:
                discard_tape()
                last = (epoch, len(losses)) if losses else (epoch - 1, -(-n // cfg.batch_size))
                raise TrainingAbort(
                    f"non-finite value at epoch {epoch}, step {len(losses) + 1}: "
                    f"{_diverged(params, *last) or err}",
                    result.log,
                ) from err
            opt.step()
            losses.append(loss.item())
        swa_active = cfg.swa and epoch >= cfg.swa_start
        if swa_active:
            result.swa.accumulate(params)
        result.log.append(EpochLog(epoch, float(np.mean(losses)), swa_active))
        if on_epoch_end is not None:
            on_epoch_end(epoch, model, result)
    return result


def predict_probs(model: RainUNet, records, batch_size: int = 4) -> np.ndarray:
    """Forward a dataset under no_grad; returns (S, out_frames, H, W).

    Each batch is stacked from its records when it runs, as in fit, and its
    probabilities are written into the output, made before the first batch,
    so no more than one batch of inputs is held beside it."""
    if not records:
        raise TensorError("empty dataset")
    out = np.empty((len(records), model.config.out_frames, *records[0].input.shape[2:]),
                   precision.dtype())
    with no_grad():
        for start in range(0, len(records), batch_size):
            batch = records[start : start + batch_size]
            out[start : start + len(batch)] = model.forward(
                Tensor(stack_in_layout([r.input for r in batch]))).data
    return out


def write_training_log_csv(path, log: list[EpochLog]) -> None:
    write_csv(path, ["epoch", "mean_loss", "swa"],
              ([row.epoch, f"{row.mean_loss:.10g}", int(row.swa_active)] for row in log))
