"""Dice loss, AdamW with decoupled weight decay, stochastic weight
averaging, and the training loop.

The dice loss of a batch is one tape op: the per-sample sums are row sums of
the batch, and the gradient is written out in closed form (see _dice)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import write_csv
from .layers import TAP_MAJOR, is_tap_major
from .metrics import is_binary
from .model import RainUNet, RainUNetConfig
from .tensor import (NonFiniteError, Tensor, TensorError, _op, backward, discard_tape,
                     no_grad)


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


def _dice(pred: Tensor, target: Tensor, rows: int) -> Tensor:
    """The dice loss of each of ``rows`` samples, the rows of ``pred`` and
    ``target`` split along their leading axis, added in sample order and
    times 1/rows. One tape op with a closed-form gradient.

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


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """The dice loss of the whole of ``pred`` against the binary ``target``
    (see :func:`_dice`): one sample, whose 1/rows step multiplies by 1."""
    return _dice(pred, target, 1)


def batch_dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Per-sample dice over each full probability map, averaged over the
    leading batch axis (see :func:`_dice`)."""
    return _dice(pred, target, pred.shape[0])


# AdamW's moment decay rates and denominator guard: the defaults of Kingma &
# Ba (arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elements per block of AdamW.step: a block's six arrays stay in L2 cache
# across the update's 16 passes instead of streaming through memory each pass.
ADAMW_BLOCK = 32768


def _runs(size: int, started) -> list[tuple[int, int, bool]]:
    """``(lo, hi, full)`` ranges covering a flat parameter of ``size``
    elements: ``full`` for the full update, else the decay only. ``started``
    marks the taps of a tap-major weight that have had the full update, or
    is None when every element has."""
    if started is None:
        return [(0, size, True)]
    flat = started.reshape(-1)
    slab = size // flat.size
    cuts = [0, *(np.flatnonzero(flat[1:] != flat[:-1]) + 1), flat.size]
    return [(lo * slab, hi * slab, flat[lo]) for lo, hi in zip(cuts, cuts[1:])]


class AdamW:
    """Decoupled weight decay: p -= lr * (mhat / (sqrt(vhat) + EPS) + wd * p),
    with mhat and vhat the bias-corrected moments of decay BETA1 and BETA2.

    Each parameter is updated in place, in blocks of ADAMW_BLOCK elements,
    in its memory order when it is a tap-major conv weight or a C-order
    array (any other layout is updated in a C-order copy and copied back);
    ``m`` and ``v`` are flat arrays in that order, views into one buffer per
    dtype. Every element sees the formula's operations in order, so the
    result is bit-identical to a whole-array pass.

    A step's parameters may be updated one at a time: :meth:`step_param`
    updates one parameter for the pending step as soon as its gradient is
    complete (``backward``'s ``on_grad``), and :meth:`step` updates the rest
    and closes the step. Both drop each gradient they read: the optimizer
    consumes the gradient. Parameters are independent, so each gets the
    same bytes whenever it is updated.

    A tap-major conv weight (see layers) is walked as its kernel taps'
    slabs. A tap outside the gradient's ``grad_taps`` at every step so far
    has had g = 0 throughout, so its m and v are 0 and the formula reduces,
    operation for operation, to p -= (0 + wd*p) * lr: such a slab gets only
    that decay, and its m, v and gradient are never read or written. It
    gets the full update from the first step its tap is live.
    """

    def __init__(self, named_params, lr=1e-3, weight_decay=1e-2):
        self.named_params = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.axes = {name: TAP_MAJOR if is_tap_major(t.data) else tuple(range(t.data.ndim))
                     for name, t in self.named_params}
        # m and v of every parameter of one dtype are views into one zeroed
        # buffer: the slabs of dead taps stay untouched zero pages, and the
        # whole state goes back at once when the optimizer is dropped
        sizes: dict[np.dtype, int] = {}
        for _, t in self.named_params:
            sizes[t.data.dtype] = sizes.get(t.data.dtype, 0) + t.size
        state = {dtype: np.zeros((2, n), dtype) for dtype, n in sizes.items()}
        self.m, self.v = {}, {}
        for name, t in self.named_params:  # each buffer handed out from its end
            sizes[t.data.dtype] -= t.size
            lo = sizes[t.data.dtype]
            self.m[name], self.v[name] = state[t.data.dtype][:, lo : lo + t.size]
        # per tap-major weight, the taps that have had the full update
        self.started = {name: np.zeros(t.shape[2:], dtype=bool)
                        for name, t in self.named_params if self.axes[name] == TAP_MAJOR}
        self.names = {id(t): name for name, t in self.named_params}
        self.updated: set[str] = set()  # the parameters the pending step has updated
        self.buffers: dict[np.dtype, np.ndarray] = {}

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
        self._update_param(name, t)
        self.updated.add(name)

    def step(self) -> None:
        """Update every parameter :meth:`step_param` has not, then close the step."""
        rest = [(name, t) for name, t in self.named_params if name not in self.updated]
        for name, t in rest:
            if t.grad is None:
                raise TensorError(f"missing gradient for {name}")
        for name, t in rest:
            self._update_param(name, t)
        self.updated.clear()
        self.step_count += 1

    def _update_param(self, name, t) -> None:
        """The pending step's update of one parameter from its gradient,
        which is then dropped."""
        k = self.step_count + 1
        bc1 = 1.0 - BETA1**k
        bc2 = 1.0 - BETA2**k
        held = t.data.transpose(self.axes[name])
        # views, unless .data is laid out neither tap-major nor in C order
        p = held.reshape(-1)
        g = t.grad.transpose(self.axes[name]).reshape(-1)
        m, v = self.m[name], self.v[name]
        if p.dtype not in self.buffers:
            self.buffers[p.dtype] = np.empty((2, ADAMW_BLOCK), dtype=p.dtype)
        tmps = self.buffers[p.dtype]
        started = self.started.get(name)
        if started is not None:
            started[t.grad_taps or ...] = True
        for lo, hi, full in _runs(p.size, started):
            for b in range(lo, hi, ADAMW_BLOCK):
                e = min(b + ADAMW_BLOCK, hi)
                tmp, update = tmps[:, : e - b]
                if full:
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
        self.count += 1
        for name, t in named_params:
            if name not in self.mean:
                self.mean[name] = t.data.copy(order="K")
            else:
                self.mean[name] += (t.data - self.mean[name]) / self.count

    def finalize(self) -> dict[str, np.ndarray]:
        if self.count == 0:
            raise TensorError("SWA finalize with no accumulated snapshots")
        return {name: arr.copy(order="K") for name, arr in self.mean.items()}


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    swa_active: bool


@dataclass
class FitResult:
    log: list[EpochLog] = field(default_factory=list)
    swa: SWAAverager | None = None


def check_records(records, cfg: RainUNetConfig) -> None:
    """Raise TensorError, naming the setting or the record, unless every
    record fits a model of ``cfg``: its input as RainUNetConfig.check_input
    takes it, its target's H and W as its input's, and its input's shape as
    the first record's, so that the records stack into batches. A
    SequenceRecord's target always has the model's out_frames, so the
    targets share one shape too."""
    for i, r in enumerate(records):
        cfg.check_input((1, *r.input.shape))
        if r.target.shape[1:] != r.input.shape[2:]:
            raise TensorError(f"target H,W {r.target.shape[1:]} differ from the input's "
                              f"{r.input.shape[2:]}")
        if r.input.shape != records[0].input.shape:
            raise TensorError(f"record {i} input {r.input.shape} differs from record 0's "
                              f"{records[0].input.shape}: a dataset holds one frame size")


def fit(model: RainUNet, records, cfg: TrainConfig, on_epoch_end=None) -> FitResult:
    """Seeded-shuffle minibatch training with dice loss and AdamW.

    Each parameter is updated inside the backward, as soon as its gradient
    is complete (AdamW.step_param as ``backward``'s ``on_grad``), and its
    gradient is dropped then, so a step never holds every gradient at once;
    AdamW.step then closes the step. The bytes are those of a backward
    followed by one AdamW.step.

    A non-finite loss (or activation) aborts with the epoch/step in the
    message, after dropping the step's partial tape; the log collected so
    far rides along on the exception.
    """
    cfg.validate()
    if not records:
        raise TensorError("empty dataset")
    check_records(records, model.config)
    x_all = np.stack([r.input for r in records])
    y_all = np.stack([r.target for r in records]).astype(np.float32)
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
            xb = Tensor(x_all[idx])
            yb = Tensor(y_all[idx])
            try:
                probs = model.forward(xb)
                loss = batch_dice_loss(probs, yb)
                backward(loss, on_grad=opt.step_param)
            except NonFiniteError as err:
                discard_tape()
                raise TrainingAbort(
                    f"non-finite value at epoch {epoch}, step {len(losses) + 1}: {err}",
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
    """Forward a dataset under no_grad; returns (S, out_frames, H, W)."""
    x_all = np.stack([r.input for r in records])
    chunks = []
    with no_grad():
        for start in range(0, len(records), batch_size):
            chunks.append(model.forward(Tensor(x_all[start : start + batch_size])).data)
    return np.concatenate(chunks, axis=0)


def write_training_log_csv(path, log: list[EpochLog]) -> None:
    write_csv(path, ["epoch", "mean_loss", "swa"],
              ([row.epoch, f"{row.mean_loss:.10g}", int(row.swa_active)] for row in log))
