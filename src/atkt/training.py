"""Training loop: Adam, stepped LR decay, early stopping, sweeps, grad checks.

Each epoch runs, per batch, a clean forward/backward (which already yields
the embedding gradient the attack needs), then — when adversarial training
is enabled — builds the perturbed embeddings and runs a second
forward/backward on them. One Adam update is applied to the combined
gradient of ``clean_loss + beta * adv_loss``. Early stopping watches the
validation loss; the checkpoint that is kept maximizes validation AUC.
"""

from __future__ import annotations

import csv
import logging
import math
import time
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import adversarial, model
from .data import Batch, Dataset, FoldSplit, InteractionSequence, make_batches, segment_long
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


@dataclass
class TrainConfig:
    """Every hyperparameter, with the reference defaults."""

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
    max_seq_len: int = 500
    epsilon: float | None = None
    beta: float = 0.0
    attention: bool = True
    attention_window: str = "causal"
    fgsm_scope: str = "per_sequence"
    strict_truncate: bool = False
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None

    def validate(self) -> None:
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
        if self.attention_window not in model.ATTENTION_WINDOWS:
            raise ValueError(f"attention_window must be one of {model.ATTENTION_WINDOWS}")
        if self.fgsm_scope not in adversarial.FGSM_SCOPES:
            raise ValueError(f"fgsm_scope must be one of {adversarial.FGSM_SCOPES}")
        for name in ("skill_dim", "resp_dim", "hidden_dim", "attn_dim", "batch_size",
                     "max_epochs", "lr_decay_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("lr", "lr_decay", "adam_eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be > 0 or none")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 or none")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - set(FIELD_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg


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


@dataclass
class AdamState:
    """First/second moment estimates mirroring the parameter arrays."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
            v={name: np.zeros_like(arr) for name, arr in params.named_arrays()},
        )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    for name, arr in params.named_arrays():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Stepped schedule: multiply by the decay factor every decay period."""
    return config.lr * config.lr_decay ** (epoch // config.lr_decay_every)


def combine_gradients(
    clean: dict[str, np.ndarray], adv: dict[str, np.ndarray] | None, beta: float
) -> dict[str, np.ndarray]:
    if adv is None:
        return clean
    return {name: clean[name] + beta * adv[name] for name in clean}


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g**2)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


class EarlyStopTracker:
    """Stop once the watched value has not improved for ``patience`` checks."""

    def __init__(self, patience: int | None):
        self.patience = patience
        self.best = np.inf
        self.best_index = -1
        self.count = 0

    def update(self, value: float) -> bool:
        """Record one check; returns True when training should stop now."""
        self.count += 1
        if value < self.best:
            self.best = value
            self.best_index = self.count - 1
        if self.patience is None:
            return False
        return (self.count - 1) - self.best_index >= self.patience


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
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)

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
        out.extend(
            segment_long(dataset.sequences[i], max_len=config.max_seq_len, strict=config.strict_truncate)
        )
    return out


def collect_predictions(trace: ForwardTrace, batch: Batch) -> PredictionLog:
    """Every valid target of a batch, row by row, as a prediction log."""
    valid = trace.step_mask.T  # [B, n]
    rows, ks = np.nonzero(valid)
    return PredictionLog(
        probs=trace.pred.T[valid],
        labels=batch.responses[:, 1:][valid],
        student_ids=np.asarray(batch.student_ids, dtype=object)[rows],
        steps=ks + 1,
        skills=batch.skills[:, 1:][valid],
    )


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
        trace, loss = model.forward(
            params, batch, attention_enabled=config.attention, attention_window=config.attention_window
        )
        total_loss += loss * batch.size
        total_rows += batch.size
        logs.append(collect_predictions(trace, batch))
    log = PredictionLog.concat(logs)
    mean_loss = total_loss / max(total_rows, 1)
    return mean_loss, auc(log), log


def train_batch(
    params: ModelParams, batch: Batch, config: TrainConfig, run_adversarial: bool
) -> tuple[float, float, dict[str, np.ndarray]]:
    """One clean (and optionally adversarial) pass over a batch.

    Returns the clean loss, the training objective (clean + beta * adv), and
    the gradient of that objective.
    """
    trace, clean_loss = model.forward(
        params, batch, attention_enabled=config.attention, attention_window=config.attention_window
    )
    clean_grads = model.backward(params, trace, batch)
    adv_params = None
    objective = clean_loss
    if run_adversarial:
        pert = adversarial.fgsm_perturbation(
            clean_grads.d_embed, float(config.epsilon or 0.0), scope=config.fgsm_scope
        )
        adv_inputs = adversarial.make_adversarial(trace.embeddings, pert)
        adv_trace, adv_loss = model.forward(
            params,
            batch,
            attention_enabled=config.attention,
            attention_window=config.attention_window,
            embeddings=adv_inputs,
        )
        adv_params = model.backward(params, adv_trace, batch).params
        objective = adversarial.joint_loss(clean_loss, adv_loss, config.beta)
    total = combine_gradients(clean_grads.params, adv_params, config.beta)
    if config.grad_clip is not None:
        clip_gradients(total, config.grad_clip)
    return clean_loss, objective, total


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
    config.validate()
    if run_adversarial is None:
        run_adversarial = config.beta > 0
    t0 = time.perf_counter()
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
    record = RunRecord(config=config.to_dict())
    stopper = EarlyStopTracker(config.patience)
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
            adam_step(
                params, grads, state, lr,
                beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_eps,
            )
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
        record.best_val_loss = min(record.best_val_loss, val_loss)
        logger.info(
            "epoch %d: train_loss=%.5f val_loss=%.5f val_auc=%.5f lr=%.2e",
            epoch, train_loss, val_loss, val_auc, lr,
        )
        if stopper.update(val_loss):
            logger.info("early stop at epoch %d (no val-loss improvement for %s epochs)",
                        epoch, config.patience)
            break

    record.wall_time = time.perf_counter() - t0
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
    """Train every epsilon x beta combination; grid of mean validation AUC."""
    epsilons = tuple(float(e) for e in epsilons)
    betas = tuple(float(b) for b in betas)
    grid = np.zeros((len(epsilons), len(betas)))
    for i, eps in enumerate(epsilons):
        for j, beta in enumerate(betas):
            cell_cfg = replace(config, epsilon=eps, beta=beta)
            scores = []
            for split in folds:
                result = train(cell_cfg, dataset, split)
                scores.append(result.record.best_val_auc)
            grid[i, j] = float(np.mean(scores))
            logger.info("sweep cell epsilon=%g beta=%g -> mean val AUC %.5f", eps, beta, grid[i, j])
    best_flat = int(np.argmax(grid))
    bi, bj = divmod(best_flat, len(betas))
    return SweepResult(epsilons=epsilons, betas=betas, grid=grid, best=(epsilons[bi], betas[bj]))


# ---------------------------------------------------------------------------
# Finite-difference gradient checking.
# ---------------------------------------------------------------------------

GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_TOLERANCE = 1e-4
GRAD_CHECK_FLOOR = 1e-8


@dataclass
class GradCheckEntry:
    array: str
    max_rel_error: float
    worst_coordinate: tuple[int, ...]


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error <= self.tolerance for e in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max(e.max_rel_error for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if e.max_rel_error > self.tolerance]

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.max_rel_error <= self.tolerance else "FAIL"
            lines.append(
                f"{status:4s} {e.array:12s} max rel err {e.max_rel_error:.3e} at {e.worst_coordinate}"
            )
        return "\n".join(lines)


def relative_errors(analytic: np.ndarray, numeric: np.ndarray, floor: float = GRAD_CHECK_FLOOR):
    """Elementwise |a-n|/max(|a|,|n|); entries below the floor count as equal."""
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    return np.where(denom > floor, err / np.maximum(denom, floor), 0.0)


def compare_gradients(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    tolerance: float = GRAD_CHECK_TOLERANCE,
) -> GradCheckReport:
    entries = []
    for name in analytic:
        rel = relative_errors(analytic[name], numeric[name])
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
        entries.append(GradCheckEntry(name, float(rel.max()) if rel.size else 0.0, tuple(int(i) for i in worst)))
    return GradCheckReport(entries=entries, tolerance=tolerance)


def numeric_gradients(
    params: ModelParams, batch: Batch, config: TrainConfig, step: float = GRAD_CHECK_STEP
) -> dict[str, np.ndarray]:
    """Central finite differences of the batch loss for every parameter
    coordinate and every input-embedding coordinate."""

    def loss_now() -> float:
        _, loss = model.forward(
            params, batch, attention_enabled=config.attention, attention_window=config.attention_window
        )
        return loss

    numeric: dict[str, np.ndarray] = {}
    for name, arr in params.named_arrays():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            flat[idx] = original + step
            up = loss_now()
            flat[idx] = original - step
            down = loss_now()
            flat[idx] = original
            gflat[idx] = (up - down) / (2.0 * step)
        numeric[name] = g

    base = model.build_embeddings(params, batch)
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for idx in range(flat.shape[0]):
        original = flat[idx]
        flat[idx] = original + step
        _, up = model.forward(
            params, batch, attention_enabled=config.attention,
            attention_window=config.attention_window, embeddings=base,
        )
        flat[idx] = original - step
        _, down = model.forward(
            params, batch, attention_enabled=config.attention,
            attention_window=config.attention_window, embeddings=base,
        )
        flat[idx] = original
        gflat[idx] = (up - down) / (2.0 * step)
    numeric["d_embed"] = g
    return numeric


def analytic_gradients(
    params: ModelParams, batch: Batch, config: TrainConfig
) -> dict[str, np.ndarray]:
    trace, _ = model.forward(
        params, batch, attention_enabled=config.attention, attention_window=config.attention_window
    )
    grads = model.backward(params, trace, batch)
    out = dict(grads.params)
    out["d_embed"] = grads.d_embed
    return out


def grad_check_batch(num_skills: int, config: TrainConfig, seed: int, seq_lens=(5, 4, 3)) -> Batch:
    """A tiny random batch with mixed lengths (so masking is exercised)."""
    rng = Rng(seed).split("grad-check-data")
    seqs = []
    for i, length in enumerate(seq_lens):
        skills = rng.integers(0, num_skills, size=length)
        responses = rng.integers(0, 2, size=length)
        seqs.append(
            InteractionSequence(
                student_id=f"gc-{i}",
                skills=np.asarray(skills, dtype=np.int64),
                responses=np.asarray(responses, dtype=np.int64),
            )
        )
    return make_batches(seqs, num_skills, batch_size=len(seqs), rng=None)[0]


def grad_check(
    config: TrainConfig, seed: int, num_skills: int = 4, seq_lens=(5, 4, 3)
) -> GradCheckReport:
    """Compare analytic and finite-difference gradients on a tiny model."""
    params = model.init_params(
        num_skills, config.skill_dim, config.resp_dim, config.hidden_dim, config.attn_dim,
        Rng(seed).split("grad-check-init"),
    )
    batch = grad_check_batch(num_skills, config, seed, seq_lens)
    analytic = analytic_gradients(params, batch, config)
    numeric = numeric_gradients(params, batch, config)
    return compare_gradients(analytic, numeric)
