"""Evaluation metrics: the prediction log and ROC AUC.

AUC is computed two ways on purpose: a rank-based (Mann-Whitney) formula used
in production, and an explicit pairwise count kept as an independent oracle.
Both pool predictions across all students, matching the usual knowledge
tracing evaluation convention.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np


class DegenerateLabelsError(ValueError):
    """AUC is undefined when only one class is present; refuse to guess."""


@dataclass
class PredictionLog:
    """Per-prediction columns: probability, label, and provenance."""

    probs: np.ndarray = field(default_factory=lambda: np.zeros(0))  # float64 [N]
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    student_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=object))  # str
    steps: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    skills: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @classmethod
    def concat(cls, logs: list[PredictionLog]) -> PredictionLog:
        """The rows of ``logs``, in order, as one log."""
        if not logs:
            return cls()
        return cls(**{f.name: np.concatenate([getattr(log, f.name) for log in logs]) for f in fields(cls)})

    def __len__(self) -> int:
        return len(self.probs)

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj, lineterminator="\n")
        writer.writerow(["student_id", "step", "skill", "prob", "label"])
        for sid, step, skill, prob, label in zip(
            self.student_ids.tolist(), self.steps.tolist(), self.skills.tolist(),
            self.probs.tolist(), self.labels.tolist(),
        ):
            writer.writerow([sid, step, skill, repr(prob), label])


def _scores_labels(log: PredictionLog) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(log.probs, dtype=np.float64)
    labels = np.asarray(log.labels, dtype=np.int64)
    num_pos = int(np.sum(labels == 1))
    num_neg = int(np.sum(labels == 0))
    if num_pos == 0 or num_neg == 0:
        raise DegenerateLabelsError(
            f"AUC needs both classes, got {num_pos} positives / {num_neg} negatives"
        )
    return scores, labels


def tied_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average rank of their group."""
    n = scores.shape[0]
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    starts = np.r_[0, np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1]
    stops = np.r_[starts[1:], n]
    avg = (starts + stops + 1) / 2.0  # mean of 1-based ranks start+1 .. stop
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, stops - starts)
    return ranks


def auc(log: PredictionLog) -> float:
    """Rank-based AUC (Mann-Whitney U with average ranks for ties)."""
    scores, labels = _scores_labels(log)
    ranks = tied_ranks(scores)
    pos = labels == 1
    num_pos = int(np.sum(pos))
    num_neg = scores.shape[0] - num_pos
    rank_sum = float(np.sum(ranks[pos]))
    return (rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)


def auc_bruteforce(log: PredictionLog) -> float:
    """AUC as an explicit pairwise count: (#pos>neg + 0.5*#ties) / (P*N).

    Independent oracle for ``auc``; keep dumb, do not optimize into ranks.
    """
    scores, labels = _scores_labels(log)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = np.sum(pos[:, None] > neg[None, :], dtype=np.float64)
    ties = np.sum(pos[:, None] == neg[None, :], dtype=np.float64)
    return float((wins + 0.5 * ties) / (pos.shape[0] * neg.shape[0]))
