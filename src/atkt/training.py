"""Training loop: Adam, stepped LR decay, early stopping, sweeps.

A ``TrainConfig`` is checked when it is built and cannot change afterwards,
so every config the loop sees is valid; derive variants with
``dataclasses.replace``, which checks them again.

Each epoch runs, per batch, a clean forward/backward, then — when
adversarial training is enabled — scales the clean pass's embedding gradient
to the FGSM budget, from its gate gradients, and runs a second
forward/backward on the perturbed embeddings. Neither pass builds an
[n, B, d_in] array, and one [N, 4H] buffer carries the clean pass's gate
activations, then its gate gradients, then FGSM's direction, which the
adversarial pass keeps. One Adam update is applied to the gradient of
``clean_loss + beta * adv_loss``; ``train_batch`` writes that objective and
its gradient sum. Early stopping watches the validation loss, whose running
minimum is ``RunRecord.best_val_loss``; the checkpoint that is kept
maximizes validation AUC.
"""

from __future__ import annotations

import csv
import logging
import math
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import adversarial, model
from .data import (
    DEFAULT_MAX_SEQ_LEN,
    MIN_SEQ_LEN,
    Batch,
    Dataset,
    FoldSplit,
    InteractionSequence,
    make_batches,
    segment_long,
)
from .linalg import Rng
from .metrics import PredictionLog, auc
from .model import ForwardTrace, ModelParams

logger = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the last good state."""

    def __init__(self, message: str, epoch: int, last_good: ModelParams | None):
        super().__init__(message)
        self.epoch = epoch
        self.last_good = last_good


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter, with the reference defaults; checked on construction."""

    skill_dim: int = 256
    resp_dim: int = 96
    hidden_dim: int = 80
    attn_dim: int = 80
    batch_size: int = 24
    lr: float = 0.001
    lr_decay: float = 0.5
    lr_decay_every: int = 50
    max_epochs: int = 150
    patience: int | None = 20
    max_seq_len: int = DEFAULT_MAX_SEQ_LEN
    epsilon: float | None = None
    beta: float = 0.0
    attention: bool = True
    fgsm_scope: str = "per_sequence"
    seed: int = 0

    def __post_init__(self) -> None:
        for name, (kind, optional) in FIELD_TYPES.items():
            value = getattr(self, name)
            if not ((value is None and optional) or _type_ok(kind, value)):
                what = "a finite float" if kind is float else f"of type {kind.__name__}"
                none = " or none" if optional else ""
                raise ValueError(f"{name} must be {what}{none}, got {value!r}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.beta > 0 and self.epsilon is None:
            raise ValueError("epsilon is required when beta > 0")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.fgsm_scope not in adversarial.FGSM_SCOPES:
            raise ValueError(f"fgsm_scope must be one of {adversarial.FGSM_SCOPES}")
        for name in ("skill_dim", "resp_dim", "hidden_dim", "attn_dim", "batch_size",
                     "max_epochs", "lr_decay_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_seq_len < MIN_SEQ_LEN:
            raise ValueError(f"max_seq_len must be >= {MIN_SEQ_LEN}, got {self.max_seq_len}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr", "lr_decay"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 or none")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - set(FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


# The config schema: every reader (config files, checkpoint echoes, code)
# takes the keys and their types from TrainConfig's annotations. Field name ->
# (int, float, bool or str; whether the annotation is "kind | None").
FIELD_TYPES = {
    name: (typing.get_args(hint)[0], True) if typing.get_args(hint) else (hint, False)
    for name, hint in typing.get_type_hints(TrainConfig).items()
}


def _type_ok(kind: type, value) -> bool:
    """Int takes int, float takes a finite int or float; bool is only a bool."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        # Finite; unlike math.isfinite, the comparison cannot overflow on a huge int.
        return isinstance(value, (int, float)) and -math.inf < value < math.inf
    return isinstance(value, kind)


# Adam's moment decays and denominator offset, the values of Kingma & Ba (2015).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Adam updates each array this many elements at a time, so that the slice's
# fourteen in-place passes run in cache rather than over the whole array.
_ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First/second moment estimates mirroring the parameter arrays.

    ``work`` holds two scratch rows as long as the largest slice, so that an
    update allocates nothing.
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    work: np.ndarray  # [2, min(_ADAM_BLOCK, largest array size)]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        largest = max(arr.size for _, arr in params.named_arrays())
        return cls(
            m={name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.named_arrays()},
            v={name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.named_arrays()},
            work=np.empty((2, min(_ADAM_BLOCK, largest))),
        )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, applied in place to the parameters and moments.

    Per array: m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g, and
    the parameter moves by lr m_hat / (sqrt(v_hat) + eps), each product and
    sum rounded in that order; beta1, beta2 and eps are the ``ADAM_*`` constants.
    Each array is walked in flat slices of ``_ADAM_BLOCK`` elements, which are
    views only of C-contiguous arrays, as ``ModelParams`` and ``AdamState``
    build them.
    """
    state.step += 1
    t = state.step
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    for name, arr in params.named_arrays():
        flat = [x.reshape(-1) for x in (arr, grads[name], state.m[name], state.v[name])]
        for lo in range(0, arr.size, _ADAM_BLOCK):
            p, g, m, v = (x[lo : lo + _ADAM_BLOCK] for x in flat)
            a, b = state.work[:, : len(p)]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=a)
            a *= g
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Stepped schedule: multiply by the decay factor every decay period."""
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float
    lr: float


@dataclass
class RunRecord:
    """Per-epoch curves plus the selection outcome of one training run."""

    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1  # by validation AUC
    best_val_auc: float = -np.inf
    best_val_loss: float = np.inf

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss", "val_auc", "lr"])
        for row in self.epochs:
            writer.writerow(
                [row.epoch, repr(float(row.train_loss)), repr(float(row.val_loss)),
                 repr(float(row.val_auc)), repr(float(row.lr))]
            )


@dataclass
class TrainResult:
    record: RunRecord
    params: ModelParams  # checkpoint with the best validation AUC


def prepare_split_sequences(
    dataset: Dataset, indices, config: TrainConfig
) -> list[InteractionSequence]:
    """Materialize one split: pick by index, then segment over-long sequences.

    Segmentation happens after the student-level split so chunks of one
    student can never straddle train and evaluation sets.
    """
    out: list[InteractionSequence] = []
    for i in indices:
        out.extend(segment_long(dataset.sequences[i], max_len=config.max_seq_len))
    return out


def collect_predictions(trace: ForwardTrace) -> PredictionLog:
    """Every valid target of the traced batch, row by row, as a prediction log."""
    batch = trace.batch
    by_row = np.argsort(trace.cells % batch.size, kind="stable")  # packed order is step by step
    steps, rows = np.divmod(trace.cells[by_row], batch.size)
    return PredictionLog(
        probs=trace.pred[by_row],
        labels=batch.responses[rows, steps + 1],
        student_ids=np.asarray(batch.student_ids, dtype=object)[rows],
        steps=steps + 1,
        skills=batch.skills[rows, steps + 1],
    )


# Overflow in a forward pass shows up as a non-finite loss, which every caller
# checks; numpy's warnings would only repeat it.
@np.errstate(all="ignore")
def evaluate(
    params: ModelParams,
    sequences: list[InteractionSequence],
    config: TrainConfig,
    num_skills: int,
) -> tuple[float, float, PredictionLog]:
    """Loss, AUC and the full prediction log for a split (deterministic order)."""
    logs = []
    total_loss = 0.0
    total_rows = 0
    for batch in make_batches(sequences, num_skills, config.batch_size, rng=None):
        trace, loss = model.forward(params, batch, attention_enabled=config.attention)
        total_loss += loss * batch.size
        total_rows += batch.size
        logs.append(collect_predictions(trace))
    log = PredictionLog.concat(logs)
    mean_loss = total_loss / max(total_rows, 1)
    return mean_loss, auc(log), log


def train_batch(
    params: ModelParams, batch: Batch, config: TrainConfig, run_adversarial: bool
) -> tuple[float, float, dict[str, np.ndarray]]:
    """One clean (and optionally adversarial) pass over a batch.

    Returns the clean loss, the training objective (clean + beta * adv), and
    the gradient of that objective. A non-finite clean loss or gate gradient
    gives FGSM no direction: the adversarial pass is skipped and the objective
    is NaN.
    """
    trace, clean_loss = model.forward(params, batch, config.attention)
    clean = model.backward(params, trace)
    grads = clean.params
    if not run_adversarial:
        return clean_loss, clean_loss, grads
    del trace  # its gate buffer now holds the gate gradients; FGSM reads only them
    if not math.isfinite(clean_loss):
        return clean_loss, math.nan, grads
    if not np.all(np.isfinite(clean.gate_grads)):
        return clean_loss, math.nan, grads
    # FGSM scales the gate gradients in place into its direction, which the
    # adversarial pass keeps; only the clean parameter gradients outlive the
    # clean pass.
    pert = adversarial.fgsm_perturbation(
        clean.gate_grads, params.lstm_w, batch, float(config.epsilon or 0.0), scope=config.fgsm_scope
    )
    del clean
    adv_inputs = adversarial.make_adversarial(batch, pert)
    del pert
    adv_trace, adv_loss = model.forward(params, batch, config.attention, embeddings=adv_inputs)
    adv = model.backward(params, adv_trace).params
    for name, g in grads.items():
        g += np.multiply(adv[name], config.beta, out=adv[name])
    return clean_loss, clean_loss + config.beta * adv_loss, grads


# Every non-finite objective and loss is raised as a DivergenceError below;
# numpy's overflow warnings would only repeat it, once per operation.
@np.errstate(all="ignore")
def train(
    config: TrainConfig,
    dataset: Dataset,
    split: FoldSplit,
    initial_params: ModelParams | None = None,
    run_adversarial: bool | None = None,
) -> TrainResult:
    """Full training run on one fold; returns curves and the best checkpoint.

    ``run_adversarial`` defaults to ``beta > 0``; forcing it on with beta 0
    exercises the adversarial passes without letting them affect updates.
    """
    if run_adversarial is None:
        run_adversarial = config.beta > 0
    train_seqs = prepare_split_sequences(dataset, split.train, config)
    val_seqs = prepare_split_sequences(dataset, split.val, config)
    rng = Rng(config.seed)
    if initial_params is None:
        params = model.init_params(
            dataset.num_skills,
            config.skill_dim,
            config.resp_dim,
            config.hidden_dim,
            config.attn_dim,
            rng.split("init"),
        )
    else:
        params = initial_params.copy()
    state = AdamState.for_params(params)
    record = RunRecord()
    best_loss_epoch = -1
    best_params = params.copy()
    last_good: ModelParams | None = None

    for epoch in range(config.max_epochs):
        lr = lr_at(epoch, config)
        batches = make_batches(
            train_seqs, dataset.num_skills, config.batch_size, rng=rng.split(f"shuffle-epoch-{epoch}")
        )
        loss_sum = 0.0
        rows = 0
        for batch in batches:
            clean_loss, objective, grads = train_batch(params, batch, config, run_adversarial)
            if not np.isfinite(objective):
                raise DivergenceError(
                    f"non-finite training objective at epoch {epoch}", epoch, last_good
                )
            adam_step(params, grads, state, lr)
            loss_sum += clean_loss * batch.size
            rows += batch.size
        train_loss = loss_sum / max(rows, 1)
        val_loss, val_auc, _ = evaluate(params, val_seqs, config, dataset.num_skills)
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", epoch, last_good)
        last_good = params.copy()
        record.epochs.append(EpochStats(epoch, train_loss, val_loss, val_auc, lr))
        if val_auc > record.best_val_auc:
            record.best_val_auc = val_auc
            record.best_epoch = epoch
            best_params = params.copy()
        if val_loss < record.best_val_loss:
            record.best_val_loss = val_loss
            best_loss_epoch = epoch
        logger.info(
            "epoch %d: train_loss=%.5f val_loss=%.5f val_auc=%.5f lr=%.2e",
            epoch, train_loss, val_loss, val_auc, lr,
        )
        if config.patience is not None and epoch - best_loss_epoch >= config.patience:
            logger.info("early stop at epoch %d (no val-loss improvement for %s epochs)",
                        epoch, config.patience)
            break

    return TrainResult(record=record, params=best_params)


# ---------------------------------------------------------------------------
# Hyperparameter sweep.
# ---------------------------------------------------------------------------

SWEEP_EPSILONS = (1.0, 5.0, 10.0, 12.0, 15.0)
SWEEP_BETAS = (0.0, 0.2, 0.5, 1.0, 2.0)


@dataclass
class SweepResult:
    epsilons: tuple[float, ...]
    betas: tuple[float, ...]
    grid: np.ndarray  # [len(epsilons), len(betas)] mean val AUC across folds
    best: tuple[float, float]  # (epsilon, beta) at the argmax

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["epsilon"] + [f"beta={b:g}" for b in self.betas])
        for i, eps in enumerate(self.epsilons):
            writer.writerow([f"{eps:g}"] + [repr(float(v)) for v in self.grid[i]])


def sweep(
    config: TrainConfig,
    dataset: Dataset,
    folds: list[FoldSplit],
    epsilons=SWEEP_EPSILONS,
    betas=SWEEP_BETAS,
) -> SweepResult:
    """Train every epsilon x beta combination; grid of mean validation AUC.

    Every cell's config is built, and so checked, before the first run. With beta = 0
    training never reads epsilon, so that column is trained in the first
    row only and its score copied down.
    """
    epsilons = tuple(float(e) for e in epsilons)
    betas = tuple(float(b) for b in betas)
    cells = {
        (i, j): replace(config, epsilon=eps, beta=beta)
        for i, eps in enumerate(epsilons)
        for j, beta in enumerate(betas)
    }
    grid = np.zeros((len(epsilons), len(betas)))
    for (i, j), cell_cfg in cells.items():
        if cell_cfg.beta == 0 and i > 0:
            grid[i, j] = grid[0, j]
        else:
            scores = [train(cell_cfg, dataset, split).record.best_val_auc for split in folds]
            grid[i, j] = float(np.mean(scores))
        logger.info("sweep cell epsilon=%g beta=%g -> mean val AUC %.5f",
                    cell_cfg.epsilon, cell_cfg.beta, grid[i, j])
    best_flat = int(np.argmax(grid))
    bi, bj = divmod(best_flat, len(betas))
    return SweepResult(epsilons=epsilons, betas=betas, grid=grid, best=(epsilons[bi], betas[bj]))
