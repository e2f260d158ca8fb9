"""Benchmark workloads and the seeded generator of their inputs.

Every dataset comes from ``atkt.data.generate_synthetic`` (the two-state
mastery simulator), truncated student by student to a length drawn from the
workload's distribution and serialised to triple-line text. The program only
ever sees that text. The same ``(seed, index)`` gives byte-identical text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from atkt.data import Dataset, InteractionSequence, generate_synthetic, serialize_triple_line

# Simulator settings shared by all workloads. In the few epochs a run can
# afford, the model stays near chance (AUC ~0.5), so the quality metrics
# fingerprint the numerics more than they measure what the model learned.
SIMULATOR = {"learn_rate": 0.1, "guess": 0.25, "slip": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_skills: int
    students: int  # per dataset; make_folds gives fold 0 a 3:1:1 split of them
    min_len: int  # lengths are log-uniform on [min_len, max_len]
    max_len: int
    beta: float  # adversarial weight; epsilon is fixed at 10 when beta > 0
    epochs: int  # fixed epoch count of every train() call
    # Set for evaluation workloads: op 0 trains the checkpoint on a dataset
    # whose sequences all have this length, and every later op only evaluates.
    checkpoint_len: int | None = None

    @property
    def evaluate_only(self) -> bool:
        return self.checkpoint_len is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-adv-long",
            why=(
                "adversarial training (beta 0.2, eps 10) on sequences all 500 long: "
                "O(n^2) causal attention and the doubled FGSM passes dominate, padding is zero"
            ),
            num_skills=110,
            students=40,
            min_len=500,
            max_len=500,
            beta=0.2,
            epochs=1,
        ),
        Workload(
            name="train-clean-wide",
            why=(
                "clean training over 1223 skills, lengths log-uniform 2..60: the full-skill "
                "head and Adam on the wide tables dominate, ~70% of steps are padding"
            ),
            num_skills=1223,
            students=200,
            min_len=2,
            max_len=60,
            beta=0.0,
            epochs=2,
        ),
        Workload(
            name="eval-mixed",
            why=(
                "load a checkpoint and evaluate every fold's test split, lengths log-uniform "
                "2..500: the read path, forward without backward, collection and AUC"
            ),
            num_skills=110,
            students=120,
            min_len=2,
            max_len=500,
            beta=0.0,
            epochs=3,
            # Fixed-length training data keeps the checkpoint op's share of
            # the run, and its throughput, from varying with the seed.
            checkpoint_len=200,
        ),
    )
}


def draw_lengths(rng: np.random.Generator, n: int, low: int, high: int) -> np.ndarray:
    """``n`` log-uniform lengths on [low, high], one per equal-probability stratum.

    Stratifying keeps each dataset's total work nearly the same from seed to
    seed, so run-to-run spread reflects the program rather than the draw; the
    seed still decides the jitter inside each stratum and who gets which length.
    """
    u = (np.arange(n) + rng.random(n)) / n
    lengths = np.rint(np.exp(np.log(low) + u * (np.log(high) - np.log(low)))).astype(np.int64)
    return rng.permutation(lengths)


def make_dataset(workload: Workload, seed: int, index: int) -> Dataset:
    """Dataset ``index`` of a run seeded with ``seed``."""
    rng = np.random.default_rng([seed, index])
    low, high = workload.min_len, workload.max_len
    if workload.evaluate_only and index == 0:
        low = high = workload.checkpoint_len
    lengths = draw_lengths(rng, workload.students, low, high)
    full = generate_synthetic(
        workload.students,
        workload.num_skills,
        high,
        seed=int(rng.integers(2**31)),
        **SIMULATOR,
    )
    sequences = tuple(
        InteractionSequence(seq.student_id, seq.skills[:n], seq.responses[:n])
        for seq, n in zip(full.sequences, lengths)
    )
    return Dataset(sequences=sequences, num_skills=workload.num_skills)


def make_text(workload: Workload, seed: int, index: int) -> str:
    """Triple-line text of dataset ``index`` of a run seeded with ``seed``."""
    return serialize_triple_line(make_dataset(workload, seed, index))
