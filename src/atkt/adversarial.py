"""Fast-gradient adversarial perturbations on interaction embeddings.

The attack direction is the loss gradient g w.r.t. the input embeddings,
rescaled to a fixed L2 budget epsilon: r = epsilon g / ||g||. By default each
sequence gets its own epsilon-ball over the concatenation of its per-step
gradients; a "global" scope (one ball per batch) is available behind a flag.
Parameters are frozen while the perturbation is built: the gradient is
simply taken at the current parameter values and treated as a constant
afterwards. The training objective that weighs the adversarial loss by beta
is written in ``training.train_batch``.

g is never built. At each valid cell it is dz @ W, the gate gradients dz
times lstm_w, so with G = W W^T:
  * a ball's squared norm ||dz W||^2 is the quadratic form sum (dz G) * dz;
  * r = s dz W for the ball's scale s, which ``model.forward`` reads as
    an ``InputShift``: direction s dz, and projection r W^T = s (dz G).
The gate gradients are scaled in place into the direction, so the one
[N, 4H] array made is the projection. ``Perturbation.r`` lays r onto the
[n, B, d_in] grid on demand, for inspection.

The budget holds at any finite gradient magnitude: each ball's dz and W are
first scaled by powers of two, which is exact, so that no square overflows
or underflows. The quadratic form then has a rounding bound, and a ball
where it could put the norm off by more than ``NORM_RTOL`` (dz nearly in
W's left null space, where the form cancels) takes its norm from the direct
product dz W instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .data import Batch
from .linalg import FLOAT, ShapeError

FGSM_SCOPES = ("per_sequence", "global")

# The largest relative error the quadratic form may leave in a ball's norm.
NORM_RTOL = 1e-10


@dataclass(frozen=True)
class Perturbation:
    """An embedding perturbation with a fixed L2 budget, in the gates' space.

    r = ``shift.direction`` @ ``lstm_w`` at each valid cell; ``cells`` and
    ``grid`` place those cells on the batch's [n, B] grid.
    """

    shift: model.InputShift
    lstm_w: np.ndarray  # [4H, d_in], a copy of the weights the gradient was taken at
    cells: np.ndarray  # int64 [N], flat t * B + b, packed order
    grid: tuple[int, int]  # (n, B)
    epsilon: float

    @property
    def r(self) -> np.ndarray:
        """r on the [n, B, d_in] grid of the embedding tensor, zeros at padded steps."""
        n, b = self.grid
        out = np.zeros((n * b, self.lstm_w.shape[1]), dtype=FLOAT)
        out[self.cells] = self.shift.direction @ self.lstm_w
        return out.reshape(n, b, -1)


def fgsm_perturbation(
    gate_grads: np.ndarray,
    lstm_w: np.ndarray,
    batch: Batch,
    epsilon: float,
    scope: str = "per_sequence",
) -> Perturbation:
    """Scale the embedding gradient gate_grads @ lstm_w to L2 norm epsilon.

    ``gate_grads`` are the clean pass's dz over ``batch``'s valid cells, in
    packed order, as a float64 array. Once the arguments are checked, it is
    overwritten: it becomes the perturbation's ``shift.direction``. A ball
    whose gradient is zero gets a zero perturbation rather than an error:
    there is no ascent direction to follow.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if scope not in FGSM_SCOPES:
        raise ValueError(f"scope must be one of {FGSM_SCOPES}, got {scope!r}")
    cells, _ = model.pack_cells(batch.seq_lens)
    if gate_grads.shape != (len(cells), lstm_w.shape[0]):
        raise ShapeError(
            f"gate gradients have shape {gate_grads.shape}, expected {(len(cells), lstm_w.shape[0])}"
        )
    # Each cell's ball: its batch row, or one ball for all.
    balls = batch.size if scope == "per_sequence" else 1
    ball = cells % balls
    # Each ball's largest |dz|, without a |dz| temporary. NaN and +-inf
    # survive max and min, so the peaks are finite iff dz is.
    peak = np.zeros(balls)
    with np.errstate(invalid="ignore"):
        np.maximum.at(peak, ball, np.maximum(gate_grads.max(axis=1), -gate_grads.min(axis=1)))
    if not np.all(np.isfinite(peak)):
        raise ValueError("gate gradient contains non-finite entries")
    # 2**-k puts each ball's largest |dz|, and 2**-kw lstm_w's largest entry,
    # in [0.5, 1): entries near 1e200 would overflow the squares, and near
    # 1e-170 underflow them.
    _, k = np.frexp(peak)
    _, kw = np.frexp(np.max(np.abs(lstm_w)))
    w = np.ldexp(lstm_w, -kw)
    dz = gate_grads  # scaled in place from here on, into the direction
    _scale_rows_by_powers_of_two(dz, -k, ball)
    # dz w w^T a block of rows at a time, as model's products over the cells
    # run: one product over all N rows leaves BLAS's packing buffer resident.
    gram = w @ w.T
    dz_g = np.empty_like(dz)
    for lo in range(0, len(dz), model._ROW_BLOCK):
        np.matmul(dz[lo : lo + model._ROW_BLOCK], gram, out=dz_g[lo : lo + model._ROW_BLOCK])
    cell_sq = np.einsum("ij,ij->i", dz_g, dz)  # ||dz w||^2 per cell
    sq_norms = np.bincount(ball, weights=cell_sq, minlength=balls)
    # Rounding bound, with u = 2**-53: each cell's form is off by at most
    # (d_in + 8H) u |dz| |W| |W|^T |dz| <= (d_in + 8H) u ||dz||^2 ||W||_F^2
    # (its sums run over d_in for G, 4H for dz G and 4H for the form), and
    # the sum over the ball's m cells adds m u sum |form|. 2**-52 doubles
    # both for the second-order terms.
    per_cell = (lstm_w.shape[1] + 2 * lstm_w.shape[0]) * np.sum(w * w)
    bound = 2.0**-52 * (
        per_cell * np.bincount(ball, weights=np.einsum("ij,ij->i", dz, dz), minlength=balls)
        + np.bincount(ball, minlength=balls) * np.bincount(ball, weights=np.abs(cell_sq), minlength=balls)
    )
    # A relative error e in the squared norm is e / 2 in the norm; NaN fails too.
    direct = ~(2.0 * NORM_RTOL * sq_norms >= bound)
    if np.any(direct):
        rows = np.flatnonzero(direct[ball])
        g = dz[rows] @ w
        sq_norms[direct] = np.bincount(
            ball[rows], weights=np.einsum("ij,ij->i", g, g), minlength=balls
        )[direct]
    norms = np.sqrt(sq_norms)
    scale = np.divide(epsilon, norms, out=np.zeros_like(norms), where=norms > 0)
    # r = scale dz w = (scale 2**-kw) dz W, and r W^T = (scale 2**kw) dz w w^T.
    dz *= np.ldexp(scale, -kw)[ball, None]
    dz_g *= np.ldexp(scale, kw)[ball, None]
    return Perturbation(
        shift=model.InputShift(direction=dz, projection=dz_g),
        lstm_w=lstm_w.copy(),
        cells=cells,
        grid=(batch.max_len - 1, batch.size),
        epsilon=float(epsilon),
    )


def _scale_rows_by_powers_of_two(x: np.ndarray, e: np.ndarray, ball: np.ndarray) -> None:
    """Multiply each row of ``x`` in place by 2**e of its ball, rounding as
    ``np.ldexp(x, e[ball, None])`` does.

    A product with a power of two rounds only where it leaves the normal
    range, and then once, as ldexp does. 2**e is a normal double for
    |e| <= 1022; beyond, the rows take 2**(e - c) first and then 2**c, with
    c = +-1022. Scaling up, neither product rounds. Scaling down (frexp's
    exponents of a double give e >= -1024), the first rounds only where the
    second then gives 0 either way.
    """
    c = np.clip(e, -1022, 1022)
    if np.any(e != c):
        rows = np.flatnonzero((e != c)[ball])
        x[rows] *= np.ldexp(1.0, e - c)[ball[rows], None]
    x *= np.ldexp(1.0, c)[ball, None]


def make_adversarial(batch: Batch, perturbation: Perturbation) -> model.InputShift:
    """The adversarial inputs, the clean embeddings plus r, as ``model.forward``'s ``embeddings=``.

    The perturbation must have been built for this batch's valid cells.
    """
    cells, _ = model.pack_cells(batch.seq_lens)
    if perturbation.grid != (batch.max_len - 1, batch.size) or not np.array_equal(
        perturbation.cells, cells
    ):
        raise ShapeError(
            f"perturbation built for a {perturbation.grid} grid of {len(perturbation.cells)} "
            f"cells, batch has {(batch.max_len - 1, batch.size)} and {len(cells)}"
        )
    return perturbation.shift
