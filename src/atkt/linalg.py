"""The float64 sigmoid, the shape error type and the seeded RNG used everywhere else.

``sigmoid`` works elementwise on arrays of any shape. Shapes are not checked
here: callers that need fixed shapes check them and raise ``ShapeError``.
"""

from __future__ import annotations

import hashlib

import numpy as np

FLOAT = np.float64


class ShapeError(ValueError):
    """Raised when operands have incompatible shapes."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    With e = exp(-|x|), the exponential argument is never positive:
    1/(1+e) for x >= 0 and e/(1+e) for x < 0, selected without branching.
    """
    x = np.asarray(x, dtype=FLOAT)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Rng(np.random.Generator):
    """Deterministic random stream, splittable by label.

    A numpy ``Generator`` on the PCG64 bit generator (pinned; do not change
    across releases, reruns depend on it). A child stream derived with
    ``split(label)`` is statistically independent of its parent and of
    siblings with different labels, and depends only on the root seed and the
    sequence of labels used to reach it.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = _path
        super().__init__(np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=_path)))

    def split(self, label: str) -> "Rng":
        """Derive an independent child stream named by ``label``."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "big")
        return Rng(self.seed, self._path + (key,))
