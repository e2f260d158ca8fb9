"""Float64 nonlinearities, the shape error type and the seeded RNG used everywhere else.

``sigmoid`` and ``tanh`` work elementwise on arrays of any shape. Shapes are
not checked here: callers that need fixed shapes check them and raise
``ShapeError``.
"""

from __future__ import annotations

import hashlib

import numpy as np

FLOAT = np.float64


class ShapeError(ValueError):
    """Raised when operands have incompatible shapes."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    Uses the branch form 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) for x < 0 so
    the exponential argument is never positive.
    """
    x = np.asarray(x, dtype=FLOAT)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=FLOAT))


class Rng:
    """Deterministic random stream, splittable by label.

    Backed by numpy's PCG64 bit generator (pinned; do not change across
    releases, reruns depend on it). A child stream derived with
    ``split(label)`` is statistically independent of its parent and of
    siblings with different labels, and depends only on the root seed and the
    sequence of labels used to reach it.
    """

    ALGORITHM = "pcg64-v1"

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = _path
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, label: str) -> "Rng":
        """Derive an independent child stream named by ``label``."""
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "big")
        return Rng(self.seed, self._path + (key,))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def random(self, size=None):
        return self._gen.random(size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size=size)
