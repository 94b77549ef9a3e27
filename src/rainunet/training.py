"""Dice loss, AdamW with decoupled weight decay, stochastic weight
averaging, and the training loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import RainUNet
from .tensor import (NonFiniteError, Tensor, TensorError, backward, crop,
                     div, no_grad, scale, tensor_sum)


class TrainingAbort(RuntimeError):
    """Training stopped on a non-finite loss; carries the partial log."""

    def __init__(self, message, log):
        super().__init__(message)
        self.log = log


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 80
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-2
    seed: int = 0
    swa_enabled: bool = False
    swa_start_epoch: int = 10

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1:
            raise TensorError("epochs must be >= 0 and batch_size >= 1")
        if self.lr < 0 or self.weight_decay < 0 or self.eps <= 0:
            raise TensorError("lr/weight_decay must be >= 0 and eps > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise TensorError("betas must lie in [0, 1)")
        if self.swa_enabled and not 1 <= self.swa_start_epoch <= max(self.epochs, 1):
            raise TensorError("swa_start_epoch must lie in [1, epochs]")


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """1 - 2*sum(p*g) / (sum(p^2) + sum(g^2)) over all entries.

    Both maps all zero means a perfect match of empty masks: the loss is 0
    (kept on the tape with zero gradient so callers can still backprop).
    """
    if pred.shape != target.shape:
        raise TensorError(f"shape mismatch {pred.shape} vs {target.shape}")
    if float(pred.data.min()) < 0.0 or float(pred.data.max()) > 1.0:
        raise TensorError("predictions must lie in [0, 1]")
    tvals = target.data
    if not np.isin(tvals, (0, 1)).all():
        raise TensorError("target must be binary")
    overlap = tensor_sum(pred * target)
    denom = tensor_sum(pred * pred) + tensor_sum(target * target)
    if denom.item() == 0.0:
        return scale(tensor_sum(pred), 0.0)
    return scale(div(scale(overlap, 2.0), denom), -1.0) + 1.0


def batch_dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Per-sample dice over each full probability map, averaged over the
    leading batch axis."""
    if pred.shape != target.shape:
        raise TensorError(f"shape mismatch {pred.shape} vs {target.shape}")
    n = pred.shape[0]
    bounds = [(0, e) for e in pred.shape]
    total = None
    for i in range(n):
        bounds[0] = (i, i + 1)
        sample = crop(pred, list(bounds))
        part = dice_loss(sample, Tensor(target.data[i : i + 1]))
        total = part if total is None else total + part
    return scale(total, 1.0 / n)


# Elements per block of AdamW.step: a block's six arrays stay in L2 cache
# across the update's 16 passes instead of streaming through memory each pass.
ADAMW_BLOCK = 32768


class AdamW:
    """Decoupled weight decay: p -= lr * (mhat / (sqrt(vhat) + eps) + wd * p)."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=1e-2):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.named_params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.named_params}

    def step(self) -> None:
        for name, t in self.named_params:
            if t.grad is None:
                raise TensorError(f"missing gradient for {name}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, t in self.named_params:
            p, g, m, v = np.atleast_1d(t.data, t.grad, self.m[name], self.v[name])
            rows = max(1, ADAMW_BLOCK * len(p) // max(p.size, 1))
            # The docstring formula in place, operation for operation, in two
            # scratch arrays per block of axis-0 views: every element sees the
            # same operations, so the result is bit-identical to a whole-array pass.
            for lo in range(0, len(p), rows):
                pb, gb, mb, vb = (a[lo : lo + rows] for a in (p, g, m, v))
                tmp = np.multiply(gb, 1.0 - self.beta1)
                mb *= self.beta1
                mb += tmp
                np.multiply(gb, 1.0 - self.beta2, out=tmp)
                tmp *= gb
                vb *= self.beta2
                vb += tmp
                np.divide(vb, bc2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += self.eps
                update = np.divide(mb, bc1)
                update /= tmp
                if self.weight_decay:
                    np.multiply(pb, self.weight_decay, out=tmp)
                    update += tmp
                update *= self.lr
                pb -= update

    def zero_grad(self) -> None:
        for _, t in self.named_params:
            t.zero_grad()


class SWAAverager:
    """Running arithmetic mean of parameter snapshots."""

    def __init__(self):
        self.mean: dict[str, np.ndarray] = {}
        self.count = 0

    def accumulate(self, named_params) -> None:
        self.count += 1
        for name, t in named_params:
            if name not in self.mean:
                self.mean[name] = t.data.copy()
            else:
                self.mean[name] += (t.data - self.mean[name]) / self.count

    def finalize(self) -> dict[str, np.ndarray]:
        if self.count == 0:
            raise TensorError("SWA finalize with no accumulated snapshots")
        return {name: arr.copy() for name, arr in self.mean.items()}


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    swa_active: bool


@dataclass
class FitResult:
    log: list[EpochLog] = field(default_factory=list)
    swa: SWAAverager | None = None


def _stack_dataset(records, model: RainUNet):
    want_c = model.config.in_channels
    for r in records:
        if r.input.shape[0] != want_c:
            raise TensorError(
                f"record has {r.input.shape[0]} channels but the model wants {want_c}; "
                "run modality selection first"
            )
    x = np.stack([r.input for r in records])
    y = np.stack([r.target for r in records]).astype(np.float32)
    return x, y


def fit(model: RainUNet, records, cfg: TrainConfig, on_epoch_end=None) -> FitResult:
    """Seeded-shuffle minibatch training with dice loss and AdamW.

    A non-finite loss (or activation) aborts with the epoch/step in the
    message; the log collected so far rides along on the exception.
    """
    cfg.validate()
    if not records:
        raise TensorError("empty dataset")
    x_all, y_all = _stack_dataset(records, model)
    params = model.named_parameters()
    opt = AdamW(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                eps=cfg.eps, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    result = FitResult(swa=SWAAverager() if cfg.swa_enabled else None)
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
                backward(loss)
            except NonFiniteError as err:
                raise TrainingAbort(
                    f"non-finite value at epoch {epoch}, step {len(losses) + 1}: {err}",
                    result.log,
                ) from err
            opt.step()
            opt.zero_grad()
            losses.append(loss.item())
        swa_active = cfg.swa_enabled and epoch >= cfg.swa_start_epoch
        if swa_active:
            result.swa.accumulate(params)
        result.log.append(EpochLog(epoch, float(np.mean(losses)), swa_active))
        if on_epoch_end is not None:
            on_epoch_end(epoch, model, result)
    return result


def predict_probs(model: RainUNet, records, batch_size: int = 4) -> np.ndarray:
    """Forward a dataset under no_grad; returns (S, out_frames, H, W)."""
    x_all, _ = _stack_dataset(records, model)
    chunks = []
    with no_grad():
        for start in range(0, len(records), batch_size):
            chunks.append(model.forward(Tensor(x_all[start : start + batch_size])).data)
    return np.concatenate(chunks, axis=0)


def write_training_log_csv(path, log: list[EpochLog]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "mean_loss", "swa"])
        for row in log:
            w.writerow([row.epoch, f"{row.mean_loss:.10g}", int(row.swa_active)])
