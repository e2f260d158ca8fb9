"""Finite-difference gradient oracle for ``model.backward``.

``grad_check`` builds a tiny model and a tiny mixed-length batch, takes the
analytic gradients (``model.backward``) and central finite differences of the
batch loss for every parameter coordinate and every input-embedding
coordinate, and reports the worst relative error per array. The settings
(step 1e-5, tolerance 1e-4, floor 1e-8) are the release gate and are not to
be loosened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from atkt import model
from atkt.data import Batch, InteractionSequence, make_batches
from atkt.linalg import Rng
from atkt.model import ModelParams
from atkt.training import TrainConfig

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
    coordinate and every input-embedding coordinate.

    A parameter coordinate is perturbed in place and the embeddings are
    rebuilt from the tables; a ``d_embed`` coordinate is perturbed in an
    embedding override tensor.
    """

    def loss_now(embeddings) -> float:
        _, loss = model.forward(
            params, batch, attention_enabled=config.attention, embeddings=embeddings
        )
        return loss

    base = model.build_embeddings(params, batch)
    numeric: dict[str, np.ndarray] = {}
    for name, arr in params.named_arrays() + [("d_embed", base)]:
        override = base if name == "d_embed" else None
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            flat[idx] = original + step
            up = loss_now(override)
            flat[idx] = original - step
            down = loss_now(override)
            flat[idx] = original
            gflat[idx] = (up - down) / (2.0 * step)
        numeric[name] = g
    return numeric


def analytic_gradients(
    params: ModelParams, batch: Batch, config: TrainConfig
) -> dict[str, np.ndarray]:
    trace, _ = model.forward(params, batch, attention_enabled=config.attention)
    grads = model.backward(params, trace)
    out = dict(grads.params)
    out["d_embed"] = model.input_gradient(params, trace, grads.gate_grads)
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
