"""Fast-gradient adversarial perturbations on interaction embeddings.

The attack direction is the loss gradient w.r.t. the input embeddings,
rescaled to a fixed L2 budget epsilon. By default each sequence gets its own
epsilon-ball over the concatenation of its per-step gradients; a "global"
scope (one ball per batch) is available behind a flag. Parameters are frozen
while the perturbation is built: the gradient is simply taken at the current
parameter values and treated as a constant afterwards. The budget holds at
any finite gradient magnitude: each ball's gradient is first scaled by a
power of two, which is exact, so that its norm neither overflows nor
underflows. The training objective that weighs the adversarial loss by beta
is written in ``training.train_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError

FGSM_SCOPES = ("per_sequence", "global")


@dataclass(frozen=True)
class Perturbation:
    """Additive embedding perturbation with a fixed L2 budget."""

    r: np.ndarray  # [n, B, d_in], same layout as the embedding tensor
    epsilon: float


def fgsm_perturbation(
    d_embed: np.ndarray, epsilon: float, scope: str = "per_sequence"
) -> Perturbation:
    """Scale the embedding gradient to L2 norm epsilon.

    A zero gradient yields a zero perturbation rather than an error: there
    is no ascent direction to follow.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if scope not in FGSM_SCOPES:
        raise ValueError(f"scope must be one of {FGSM_SCOPES}, got {scope!r}")
    if not np.all(np.isfinite(d_embed)):
        raise ValueError("embedding gradient contains non-finite entries")
    # One ball per batch row (norms over step and coordinate), or one for all.
    axes = (0, 2) if scope == "per_sequence" else None
    # 2**-k puts each ball's largest entry in [0.5, 1): squares of entries
    # near 1e200 would overflow, and of entries near 1e-170 underflow. The
    # scaled gradient is built twice so that only one [n, B, d] temporary at
    # a time lives beside d_embed, as before the scaling.
    _, k = np.frexp(np.max(np.abs(d_embed), axis=axes, keepdims=True))
    squares = np.ldexp(d_embed, -k)
    np.square(squares, out=squares)
    norms = np.sqrt(np.sum(squares, axis=axes, keepdims=True))
    del squares
    scale = np.divide(epsilon, norms, out=np.zeros_like(norms), where=norms > 0)
    r = np.ldexp(d_embed, -k)
    r *= scale
    return Perturbation(r=r, epsilon=float(epsilon))


def make_adversarial(embeddings: np.ndarray, perturbation: Perturbation) -> np.ndarray:
    """Adversarial inputs: the clean embeddings plus the perturbation."""
    if embeddings.shape != perturbation.r.shape:
        raise ShapeError(
            f"embeddings {embeddings.shape} and perturbation {perturbation.r.shape} differ"
        )
    return embeddings + perturbation.r

