"""Attentive-LSTM knowledge tracing network with hand-derived gradients.

Architecture per sequence (s_1,a_1)..(s_T,a_T):

  * each consumed interaction is embedded response-aware: a correct answer
    concatenates (skill embedding, correct-response embedding), a wrong one
    concatenates (wrong-response embedding, skill embedding);
  * a single-layer LSTM turns embeddings e_1..e_{T-1} into hidden states
    h_1..h_{T-1} (h_0 = c_0 = 0);
  * to predict the response at step t, the hidden states h_1..h_{t-2} are
    aggregated by a small attention head (tanh projection, dot-product score
    against a learned context vector, softmax over the causal window) and the
    aggregate is concatenated with h_{t-1}. Every window's softmax is computed
    at once as a ratio of exclusive prefix sums, N_k / D_k, over shifted
    exponentials of the scores, so attention costs O(T) per sequence in both
    directions. It is exact while ||attn_u||_1 < 350; beyond that, a window
    whose exponentials all underflow gets a NaN aggregate, not a silent 0, and
    every caller refuses the non-finite loss;
  * an affine layer maps the composite to one logit per skill and a sigmoid
    gives per-skill mastery probabilities; the probability at the attempted
    skill is scored with binary cross-entropy. Training and evaluation compute
    only that one probability (the attempted skill's head row, gathered per
    target); ``skill_probs`` rebuilds every skill's probability on demand,
    which is what ``atkt trace`` plots.

The loss is the mean over sequences of the per-sequence mean BCE over its
T-1 targets, taken from each target's logit z as softplus(z) - a z, which is
exact at any logit. ``backward`` returns exact gradients for every parameter
array, together with the gate gradients dz from which the input embeddings'
gradient dz @ lstm_w follows (the hook adversarial training perturbs);
everything is float64 and validated against central finite differences (the
oracle is ``tests/grad_oracle.py``). The trace stores each value once:
readers recompute tanh(cell), and read the head's composite input as its two
halves.

Batches are padded to their longest row, but the network works only on
real steps: every per-cell array, from the recurrence to the loss, holds the
N valid cells (step t of row b, for t < seq_len - 1) in packed order: step
by step, and within a step longest row first, as
``torch.nn.utils.rnn.pack_padded_sequence`` does. The rows alive at step
t + 1 are then a prefix of those alive at step t, so each step of the
recurrence, and of attention's prefix sums, reads and writes contiguous
slices. No array is laid out on the padded [n, B] grid.

Each step of the recurrence is twelve numpy calls and allocates nothing. The
gate buffer holds the negated pre-activations -z: the input projection is
negated once per call, and each step subtracts its recurrent term, a GEMM
with one contiguous copy of lstm_u^T into a preallocated buffer. The whole
[m, 4H] block is then activated in place as 1/(1 + e^-z), and the
candidate is put back as tanh z = -tanh(-z), numpy's tanh being exactly
odd. Negation is exact, so this is bit for bit the arithmetic on z. The
logistic form agrees with the two-branch one to rounding; below z = -709,
e^-z overflows to inf and the gate is exactly its limit 0, silently. The
head's probabilities still use ``linalg.sigmoid``. The backward step takes
all four gate derivatives from the activations a as one expression,
a (s - a) + (1 - s), with s = 1 on the sigmoid blocks and 0 on the
candidate's. Every time loop slices with Python-int step bounds.

A looked-up input embedding depends only on its (response, skill) pair, of
which there are at most 2S, and a batch holds far fewer pairs than cells.
Every pass therefore projects each pair present once and gathers one row of
the projection per cell; no [n, B, d_in] embedding is built, and lstm_w's
gradient is (dz summed per pair)^T @ the pair embeddings. The adversarial
pass adds a perturbation r to the looked-up embeddings; it comes as an
``InputShift`` held in the gates' space, r = direction @ lstm_w per valid
cell, with its projection r @ lstm_w^T precomputed. The pass adds the pair
projection to that [N, 4H] projection in place and runs on it, and r's
share of lstm_w's gradient is (dz^T @ direction) @ lstm_w.

The backward time loop runs only the recurrence. Each step reads its
cells' gate activations for the last time, so it writes their gate
gradients dz over them: one [N, 4H] buffer holds the activations, then dz,
and a trace serves one backward pass. After the loop, lstm_u's gradient is
one pass of block GEMMs; the head rows and the embedding tables are sorted
segment sums, per target skill and per (response, skill) of the consumed
interactions, read straight from the trace and dz.

Beyond the trace, each direction of attention holds one [N, H] array and
row-block temporaries. The projection u = tanh(h attn_w^T + attn_b) is not
kept: the forward takes the scores from it a row block at a time, and the
backward recomputes it in the same blocks (activation recomputation, Chen
et al. 2016). The forward's aggregate buffer holds a_j h_j, then its prefix
sums, walked in place, then their ratio to D_k. The backward reads -dD from
the aggregate a row block at a time and gives the aggregate up; one buffer
then holds dagg, its reverse prefix sums and, scaled by a and with the
head's hidden half and dpre @ attn_w added a block at a time, the dh the
time loop reads. The head's gathered rows are read a block at a time in
both directions.
"""

from __future__ import annotations

import base64
import binascii
import datetime as _dt
import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import Batch
from .linalg import FLOAT, Rng, ShapeError, sigmoid

# lstm_w/lstm_u/lstm_b stack the four gates in blocks: input, forget,
# candidate, output.
GATE_ORDER = ("input", "forget", "candidate", "output")

# Work over all valid cells that can be split runs this many rows at a time:
# a GEMM packs all its rows into BLAS's buffer, whose pages then stay
# resident, and a gather copies all its rows at once.
_ROW_BLOCK = 2048


def _row_blocks(n: int, start: int = 0) -> list[slice]:
    """Consecutive slices of about ``_ROW_BLOCK`` rows that cover rows ``start:n``.

    A one-row product goes through BLAS's matrix-vector path, which sums in
    another order than the matrix product, so a lone last row joins the block
    before it: each row of a blocked product is then bit for bit its row of
    the product over all ``n`` rows.
    """
    cuts = list(range(start, n, _ROW_BLOCK))
    if len(cuts) > 1 and n - cuts[-1] == 1:
        cuts.pop()
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:] + [n])]


class CheckpointError(ValueError):
    """Unreadable, corrupted, or incompatible checkpoint file."""


@dataclass
class ModelParams:
    """All trainable arrays (float64)."""

    skill_emb: np.ndarray  # [S, skill_dim]
    resp_emb: np.ndarray  # [2, resp_dim]; row 0 = wrong, row 1 = correct
    lstm_w: np.ndarray  # [4H, skill_dim + resp_dim]
    lstm_u: np.ndarray  # [4H, H]
    lstm_b: np.ndarray  # [4H]
    attn_w: np.ndarray  # [attn_dim, H]
    attn_b: np.ndarray  # [attn_dim]
    attn_u: np.ndarray  # [attn_dim]
    head_w: np.ndarray  # [S, 2H]
    head_b: np.ndarray  # [S]

    @property
    def num_skills(self) -> int:
        return self.skill_emb.shape[0]

    @property
    def skill_dim(self) -> int:
        return self.skill_emb.shape[1]

    @property
    def resp_dim(self) -> int:
        return self.resp_emb.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.lstm_u.shape[1]

    @property
    def attn_dim(self) -> int:
        return self.attn_w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.skill_dim + self.resp_dim

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def copy(self, out: "ModelParams | None" = None) -> "ModelParams":
        """A copy of every array; given ``out``, the arrays are copied into its arrays."""
        if out is None:
            return ModelParams(**{name: arr.copy() for name, arr in self.named_arrays()})
        for (_, dst), (_, src) in zip(out.named_arrays(), self.named_arrays()):
            np.copyto(dst, src)
        return out


# The checkpoint's array names, in ModelParams' field order.
PARAM_NAMES = tuple(f.name for f in fields(ModelParams))


@dataclass
class GradientSet:
    """What ``backward`` computed: the parameter gradients and the gate gradients.

    The input embeddings' gradient is gate_grads @ lstm_w at each valid cell;
    FGSM takes its direction from the gate gradients without building it,
    scaling them in place. ``gate_grads`` is the buffer that held the
    trace's gate activations.
    """

    params: dict[str, np.ndarray]  # array-for-array mirror of ModelParams
    gate_grads: np.ndarray  # dz, [N, 4H], packed like the trace's gates


@dataclass
class InputShift:
    """A perturbation r of a batch's looked-up input embeddings, in the gates' space.

    Both arrays hold the N valid cells in packed order (see ``ForwardTrace``):
    r = direction @ lstm_w at each cell, and ``projection`` is r @ lstm_w^T,
    r's share of the gate pre-activations. ``forward`` takes ``projection``
    over as its gate buffer and sets the field to None, so a shift serves one
    pass; ``backward`` reads ``direction`` for lstm_w's gradient.
    """

    direction: np.ndarray  # [N, 4H]
    projection: np.ndarray | None  # [N, 4H]


@dataclass
class ForwardTrace:
    """Everything the backward pass and ``skill_probs`` need, per batch, once.

    Every array holds the N valid cells in packed order: row r is the cell
    with flat index ``cells[r]`` = t * B + b (input step t, target t + 1),
    and step t's rows are ``starts[t]:starts[t + 1]``, longest batch row
    first. The head's composite input is not stored: readers take
    [agg_hidden | hidden] as its two halves, and attention's projection u is
    recomputed from ``hidden``. A trace serves one ``backward``, which writes
    the gate gradients over ``gates`` and gives it up, and ``agg_hidden``,
    setting both to None; ``skill_probs`` needs the trace before that.
    """

    shift: InputShift | None  # the perturbation of the input embeddings, if one was given
    gates: np.ndarray | None  # [N, 4H] post-activation, gate blocks per GATE_ORDER; None after backward
    cell: np.ndarray  # [N, H]
    cells: np.ndarray  # int64 [N]
    starts: np.ndarray  # int64 [n + 1]
    hidden: np.ndarray  # [N, H]
    # a_j = exp(l_j - the row's largest l), and each target's normaliser D_k.
    # Target k's window weights are its row's earlier attn_exp over its
    # attn_norm, so no window reads a row's last a_j.
    attn_exp: np.ndarray | None  # [N]
    attn_norm: np.ndarray | None  # [N]
    agg_hidden: np.ndarray | None  # [N, H]; zeros with attention off; None after backward
    pred: np.ndarray  # [N] probability at the attempted skill (the only one computed)
    target_skills: np.ndarray  # int64 [N]
    attention_enabled: bool
    batch: Batch


def glorot(rng: Rng, rows: int, cols: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(FLOAT)


def init_params(
    num_skills: int,
    skill_dim: int,
    resp_dim: int,
    hidden_dim: int,
    attn_dim: int,
    rng: Rng,
) -> ModelParams:
    """Glorot-uniform weights, zero biases except forget-gate bias = 1."""
    d_in = skill_dim + resp_dim
    h = hidden_dim
    gates_w = [glorot(rng.split(f"lstm_w_{g}"), h, d_in) for g in GATE_ORDER]
    gates_u = [glorot(rng.split(f"lstm_u_{g}"), h, h) for g in GATE_ORDER]
    lstm_b = np.zeros(4 * h, dtype=FLOAT)
    lstm_b[h : 2 * h] = 1.0  # forget gate
    attn_limit = math.sqrt(6.0 / attn_dim)
    return ModelParams(
        skill_emb=glorot(rng.split("skill_emb"), num_skills, skill_dim),
        resp_emb=glorot(rng.split("resp_emb"), 2, resp_dim),
        lstm_w=np.concatenate(gates_w, axis=0),
        lstm_u=np.concatenate(gates_u, axis=0),
        lstm_b=lstm_b,
        attn_w=glorot(rng.split("attn_w"), attn_dim, hidden_dim),
        attn_b=np.zeros(attn_dim, dtype=FLOAT),
        attn_u=rng.split("attn_u").uniform(-attn_limit, attn_limit, size=attn_dim).astype(FLOAT),
        head_w=glorot(rng.split("head_w"), num_skills, 2 * hidden_dim),
        head_b=np.zeros(num_skills, dtype=FLOAT),
    )


def zero_gradients(params: ModelParams) -> dict[str, np.ndarray]:
    # np.zeros takes calloc's already-zeroed pages; np.zeros_like writes every entry.
    return {name: np.zeros(arr.shape, dtype=arr.dtype) for name, arr in params.named_arrays()}


# ---------------------------------------------------------------------------
# Batched forward / backward.
# ---------------------------------------------------------------------------


def _cell_keys(batch: Batch, cells: np.ndarray) -> np.ndarray:
    """Key response * S + skill of the interaction each cell t * B + b consumes."""
    t, b = np.divmod(cells, batch.size)
    return batch.responses[b, t] * batch.num_skills + batch.skills[b, t]


def _distinct_pairs(batch: Batch, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys present among ``cells``, ascending, and each cell's index into them.

    A looked-up embedding depends only on its key, so the callers embed each
    present key once and gather one row per cell.
    """
    return np.unique(_cell_keys(batch, cells), return_inverse=True)


def _pair_embeddings(params: ModelParams, keys: np.ndarray) -> np.ndarray:
    """The input embedding of each key response * S + skill, [len(keys), d_in].

    A wrong answer embeds as [resp_0 | skill], a correct one as [skill | resp_1].
    """
    s, d_s, d_a = params.num_skills, params.skill_dim, params.resp_dim
    wrong = keys < s
    out = np.empty((len(keys), params.input_dim), dtype=FLOAT)
    out[wrong, :d_a] = params.resp_emb[0]
    out[wrong, d_a:] = params.skill_emb[keys[wrong]]
    out[~wrong, :d_s] = params.skill_emb[keys[~wrong] - s]
    out[~wrong, d_s:] = params.resp_emb[1]
    return out


def pack_cells(seq_lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The valid cells in packed order: (flat indices t * B + b, step starts).

    Step t of row b is valid, a consumed input with a real target, iff
    t < seq_len - 1. Rows are taken longest first (ties in batch order), so
    the rows alive at step t + 1 are the first ones of those alive at step t.
    """
    steps_per_row = seq_lens - 1
    order = np.argsort(-steps_per_row, kind="stable")
    alive = np.count_nonzero(np.arange(steps_per_row.max())[:, None] < steps_per_row, axis=1)
    starts = np.concatenate([[0], np.cumsum(alive)])
    steps = np.repeat(np.arange(len(alive)), alive)
    cells = steps * len(seq_lens) + order[np.arange(starts[-1]) - starts[steps]]
    return cells, starts


def _prefix_sums(x: np.ndarray, starts: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Overwrites each packed row of ``x`` with its sum over the earlier
    (``reverse``: later) steps of its batch row, and returns ``x``.

    Walks the steps as the recurrence does, one addition per step, in place:
    step t's rows add step t - 1's (in reverse, step t + 1's), over the rows
    alive at both, which gives each row its sum up to and including its own
    step. Each row then takes that sum from one step back along its batch
    row (in reverse, one step on), a block of rows at a time, in the order
    that reads every row before it is overwritten; the rows with no earlier
    (later) step get zeros. The terms are added one at a time, nearest step
    last, onto the first term plus 0.0, so that every sum is bit for bit a
    running sum from zero, a -0.0 first term included.
    """
    bounds = starts.tolist()
    widths = np.append(np.diff(starts), 0)  # rows alive at each step, and after the last
    steps = np.repeat(np.arange(len(bounds) - 1), widths[:-1])
    rows = np.arange(len(x))
    if reverse:
        empty = rows - starts[steps] >= widths[steps + 1]  # each batch row's last step
        source = np.where(empty, rows, rows + widths[steps])
    else:
        empty = steps == 0
        source = np.where(empty, rows, rows - widths[steps - 1])
    x[empty] += 0.0
    if reverse:
        for t in range(len(bounds) - 3, -1, -1):
            lo, nxt, end = bounds[t], bounds[t + 1], bounds[t + 2]
            x[lo : lo + end - nxt] += x[nxt:end]
    else:
        for t in range(1, len(bounds) - 1):
            prev, lo, hi = bounds[t - 1], bounds[t], bounds[t + 1]
            x[lo:hi] += x[prev : prev + hi - lo]
    # A row's source lies after it in reverse, before it otherwise.
    blocks = _row_blocks(len(x))
    for block in blocks if reverse else blocks[::-1]:
        x[block] = x[source[block]]
    x[empty] = 0.0
    return x


def _recurrence(gates: np.ndarray, cell: np.ndarray, hidden: np.ndarray, starts: np.ndarray,
                lstm_u: np.ndarray) -> None:
    """Run the LSTM over the packed steps, in place.

    ``gates`` holds each valid cell's negated input pre-activation -(e W^T + b)
    on entry and its activations on exit; ``cell`` and ``hidden`` are filled.
    A step's rows are a prefix of the step before's, so its previous h and c
    are the first rows of that step's, and step 0's are zero.
    """
    hd = cell.shape[1]
    bounds = starts.tolist()
    u_t = np.ascontiguousarray(lstm_u.T)  # [H, 4H]: a plain GEMM per step
    rec = np.empty((bounds[1], 4 * hd), dtype=FLOAT)
    tmp = np.empty((bounds[1], hd), dtype=FLOAT)
    h = c = np.zeros((bounds[1], hd), dtype=FLOAT)
    # Twelve calls a step, each writing into preallocated rows. All four gate
    # blocks are activated in place as 1/(1 + e^-z) from the stored -z, and
    # the candidate is put back as tanh z = -tanh(-z) (numpy's tanh is odd).
    # A gate with z < -709 overflows e^-z to inf and gets exactly its limit
    # 0, so that overflow is not reported.
    gi, gf, gg, go = (gates[:, k * hd : (k + 1) * hd] for k in range(4))
    with np.errstate(over="ignore"):
        for t in range(len(bounds) - 1):
            lo, hi = bounds[t], bounds[t + 1]
            m = hi - lo
            z = gates[lo:hi]
            z -= np.matmul(h[:m], u_t, out=rec[:m])
            cand = np.tanh(gg[lo:hi], out=tmp[:m])
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            np.negative(cand, out=gg[lo:hi])
            c = np.multiply(gf[lo:hi], c[:m], out=cell[lo:hi])
            c += np.multiply(gi[lo:hi], gg[lo:hi], out=tmp[:m])
            h = np.tanh(c, out=hidden[lo:hi])
            h *= go[lo:hi]


def forward(
    params: ModelParams,
    batch: Batch,
    attention_enabled: bool = True,
    embeddings: InputShift | None = None,
) -> tuple[ForwardTrace, float]:
    """Run the full network over a batch; returns the trace and the loss.

    ``embeddings``, the adversarial pass's perturbation r, is added to the
    looked-up embeddings; its projection becomes this pass's gate buffer,
    and the shift is kept in the trace. Gradients w.r.t. the embedding tables
    flow through the lookup indices either way.
    """
    if batch.num_skills != params.num_skills:
        raise ShapeError(
            f"batch built for {batch.num_skills} skills, model has {params.num_skills}"
        )
    b = batch.size
    hd = params.hidden_dim
    cells, starts = pack_cells(batch.seq_lens)
    if embeddings is not None:
        if embeddings.projection is None:
            raise ValueError("this input shift has already been used by a forward pass")
        want = (len(cells), 4 * hd)
        if embeddings.projection.shape != want or embeddings.direction.shape != want:
            raise ShapeError(
                f"input shift has shapes {embeddings.direction.shape} and "
                f"{embeddings.projection.shape}, expected {want}"
            )

    # The negated input contributions -(e W^T + b) of all valid cells go
    # straight into the gate buffer, each (response, skill) pair projected
    # once; _recurrence subtracts each step's recurrent term and activates
    # the rows in place. A shift's projection r W^T is the buffer, and the
    # pairs' rows are added to it a block at a time.
    pairs, pair_of_cell = _distinct_pairs(batch, cells)
    proj = _pair_embeddings(params, pairs) @ params.lstm_w.T
    proj += params.lstm_b
    np.negative(proj, out=proj)
    if embeddings is None:
        gates = np.empty((len(cells), 4 * hd), dtype=FLOAT)
        np.take(proj, pair_of_cell, axis=0, out=gates, mode="clip")  # "clip" writes unbuffered
    else:
        gates, embeddings.projection = embeddings.projection, None
        np.negative(gates, out=gates)
        for block in _row_blocks(len(cells)):
            shifted = gates[block]
            shifted += proj[pair_of_cell[block]]
    cell = np.empty((len(cells), hd), dtype=FLOAT)
    hidden = np.empty((len(cells), hd), dtype=FLOAT)
    _recurrence(gates, cell, hidden, starts, params.lstm_u)

    steps, rows = np.divmod(cells, b)
    attn_exp = attn_norm = None
    if attention_enabled:
        attn_exp, attn_norm, agg = _attention_forward(params, hidden, starts, rows)
    else:
        agg = np.zeros_like(hidden)

    target_skills = batch.skills[rows, steps + 1]
    logit = _head_logit(params, hidden, agg, target_skills, attention_enabled)
    pred = sigmoid(logit)

    # BCE from the logit z: -log p = softplus(-z) and -log(1 - p) = softplus(z),
    # so a target's loss is softplus(z) - a z, exact at any z, and its
    # derivative is exactly the p - a that backward uses. (np.logaddexp would
    # warn on a NaN logit, which the callers report as a non-finite loss.)
    labels = batch.responses[rows, steps + 1]
    nll = np.maximum(logit, 0.0) + np.log1p(np.exp(-np.abs(logit))) - labels * logit
    per_seq = np.bincount(rows, weights=nll, minlength=b) / (batch.seq_lens - 1)
    loss = float(per_seq.mean())

    trace = ForwardTrace(
        shift=embeddings,
        gates=gates,
        cell=cell,
        cells=cells,
        starts=starts,
        hidden=hidden,
        attn_exp=attn_exp,
        attn_norm=attn_norm,
        agg_hidden=agg,
        pred=pred,
        target_skills=target_skills,
        attention_enabled=attention_enabled,
        batch=batch,
    )
    return trace, loss


def _head_logit(params, hidden, agg, target_skills, attention_enabled) -> np.ndarray:
    """Each target's logit, [N], from its attempted skill's head row alone.

    The loss reads one skill per target, so O(N*2H) rather than O(N*S*2H) for
    the full head (see skill_probs). The row's two halves are gathered and
    applied one at a time, a block of targets at a time, with no [N, 2H]
    composite and no [N, H] gather. With attention off the aggregate half is
    identically zero; skipping it keeps the ablated model bit-identical to a
    plain LSTM with the right-half head columns.
    """
    hd = params.hidden_dim
    logit = np.empty(len(target_skills), dtype=FLOAT)
    for block in _row_blocks(len(target_skills)):
        skills = target_skills[block]
        np.einsum("nh,nh->n", hidden[block], params.head_w[skills, hd:], out=logit[block])
        if attention_enabled:
            logit[block] += np.einsum("nh,nh->n", agg[block], params.head_w[skills, :hd])
    logit += params.head_b[target_skills]
    return logit


def skill_probs(params: ModelParams, trace: ForwardTrace) -> np.ndarray:
    """Every skill's mastery probability at every valid cell, [N, S], packed like ``trace.pred``.

    ``forward`` computes only the attempted skill's probability; this rebuilds
    the full head from the trace for inspection (for one batch row, row t is
    step t). Its entry at the attempted skill agrees with ``trace.pred`` to
    rounding (the dot products are summed in a different order), not bit for bit.
    The trace must come straight from ``forward``: ``backward`` gives up the
    aggregate this reads.
    """
    if trace.agg_hidden is None:
        raise ValueError(
            "skill_probs needs a trace no backward pass has used: backward gives up its aggregate"
        )
    if trace.attention_enabled:
        composite = np.concatenate([trace.agg_hidden, trace.hidden], axis=1)
        logits = composite @ params.head_w.T + params.head_b
    else:
        hd = params.hidden_dim
        logits = trace.hidden @ params.head_w[:, hd:].T + params.head_b
    return sigmoid(logits)


def backward(params: ModelParams, trace: ForwardTrace) -> GradientSet:
    """Exact gradients of the traced batch's loss for all parameters, and its gate gradients.

    The gate gradients are written over the trace's gate activations; the
    trace gives them up, and its aggregate: a trace serves one backward pass.
    """
    gates = trace.gates
    if gates is None:
        raise ValueError("this trace has already been used by a backward pass")
    trace.gates = None
    batch = trace.batch
    b = batch.size
    hd = params.hidden_dim
    cells, starts, cell = trace.cells, trace.starts, trace.cell
    steps, rows = np.divmod(cells, b)
    grads = zero_gradients(params)

    # d(loss)/d(selected logit) = (p - a) / (B * (T_b - 1)).
    weight = 1.0 / (b * (batch.seq_lens - 1).astype(FLOAT))  # [B]
    dlogit = (trace.pred - batch.responses[rows, steps + 1]) * weight[rows]

    # The head reads [agg_hidden | hidden | 1] (the 1 for head_b) at each
    # target; each part's gradient is summed per target skill straight from
    # the trace. With attention off the aggregate half is exact zeros, so its
    # head gradients are too.
    head_rows, sums = _segment_sum(trace.target_skills, trace.hidden, weights=dlogit)
    grads["head_w"][head_rows, hd:] = sums
    grads["head_b"][head_rows] = _segment_sum(trace.target_skills, dlogit)[1]
    if trace.attention_enabled:
        _, sums = _segment_sum(trace.target_skills, trace.agg_hidden, weights=dlogit)
        grads["head_w"][head_rows, :hd] = sums
        dh_rows = _attention_backward(params, trace, dlogit, grads)
    else:
        trace.agg_hidden = None
        dh_rows = params.head_w[trace.target_skills, hd:]
        dh_rows *= dlogit[:, None]

    # LSTM backward through time over the packed cells: the loop runs only
    # the recurrence and writes every cell's gate gradient over its gate
    # activations; the weights' gradients are block GEMMs after it. The rows
    # alive at t + 1 are the first len(dh) rows at t; the others end at t,
    # with dh = dc = 0. With s = 1 on the sigmoid blocks and 0 on the
    # candidate's, a (s - a) + (1 - s) is every gate's derivative from its
    # activation a: a (1 - a), or 1 - a^2.
    s = np.ones(4 * hd, dtype=FLOAT)
    s[2 * hd : 3 * hd] = 0.0
    one_minus_s = 1.0 - s
    bounds = starts.tolist()
    width = bounds[1]  # step 0 has every row
    deriv = np.empty((width, 4 * hd), dtype=FLOAT)
    tanh_c, swap = (np.empty((width, hd), dtype=FLOAT) for _ in range(2))
    dc_buf, dc_next, dh_next = (np.empty((width, hd), dtype=FLOAT) for _ in range(3))
    c_zero = np.zeros((width, hd), dtype=FLOAT)
    dh = dc = c_zero[:0]
    gi, gf, gg, go = (gates[:, k * hd : (k + 1) * hd] for k in range(4))
    for t in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[t], bounds[t + 1]
        m = hi - lo
        dh_t = dh_rows[lo:hi]
        dh_t[: len(dh)] += dh
        a = gates[lo:hi]
        tc = np.tanh(cell[lo:hi], out=tanh_c[:m])
        dc_t = np.multiply(tc, tc, out=dc_buf[:m])
        np.subtract(1.0, dc_t, out=dc_t)
        dc_t *= go[lo:hi]
        dc_t *= dh_t
        dc_t[: len(dc)] += dc
        c_prev = cell[bounds[t - 1] : bounds[t - 1] + m] if t > 0 else c_zero[:m]
        d = np.subtract(s, a, out=deriv[:m])
        d *= a
        d += one_minus_s
        dc = np.multiply(gf[lo:hi], dc_t, out=dc_next[:m])
        # The step has read its activations for the last time; dz_t takes
        # their rows, the input and candidate blocks swapping through a buffer.
        i_from_g = np.multiply(gg[lo:hi], dc_t, out=swap[:m])
        np.multiply(gi[lo:hi], dc_t, out=gg[lo:hi])
        np.copyto(gi[lo:hi], i_from_g)
        np.multiply(c_prev, dc_t, out=gf[lo:hi])
        np.multiply(tc, dh_t, out=go[lo:hi])
        a *= d
        dh = np.matmul(a, params.lstm_u, out=dh_next[:m])
    del dh_rows, dh_t  # dh_t is a view of step 0's rows
    dz = gates

    # Cells that consumed the same (response, skill) read the same table rows,
    # so their gate gradients are summed once per pair; a looked-up input's
    # share of lstm_w's gradient is then one product over the pairs.
    keys, pair_dz = _segment_sum(_cell_keys(batch, cells), dz)
    np.matmul(pair_dz.T, _pair_embeddings(params, keys), out=grads["lstm_w"])
    if trace.shift is not None:
        # r = direction @ lstm_w is a constant of the pass, so its share is dz^T r.
        grads["lstm_w"] += (dz.T @ trace.shift.direction) @ params.lstm_w
    # A cell's previous hidden state is the same batch row's at the step
    # before, as many packed rows earlier as that step has; step 0's is h_0 = 0.
    first = starts[1]
    prev = np.arange(first, len(cells)) - np.diff(starts)[steps[first:] - 1]
    _gathered_outer(dz[first:], trace.hidden, prev, grads["lstm_u"])
    np.sum(dz, axis=0, out=grads["lstm_b"])
    _embedding_backward(params, keys, pair_dz, grads)
    return GradientSet(grads, dz)


def _gathered_outer(left: np.ndarray, right: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Adds left.T @ right[rows] to ``out``, gathering a row block at a time."""
    for block in _row_blocks(len(rows)):
        out += left[block].T @ right[rows[block]]


def _segment_sum(keys: np.ndarray, values: np.ndarray, weights: np.ndarray | None = None):
    """Sums of the rows of ``values`` per key: (ascending distinct keys, sums).

    The rows are gathered in stable key order, a row block at a time into
    one block buffer, each multiplied by its entry of ``weights`` if given
    (``values`` then a matrix), and each run of equal keys is summed with
    ``np.add.reduceat``; no sorted or weighted copy of all the rows is made
    at once.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    segment = np.cumsum(first) - 1
    sums = np.zeros((int(first.sum()),) + values.shape[1:], dtype=FLOAT)
    buf = np.empty((min(len(keys), _ROW_BLOCK + 1),) + values.shape[1:], dtype=FLOAT)
    for block_rows in _row_blocks(len(keys)):
        seg = segment[block_rows]
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        rows = order[block_rows]
        block = np.take(values, rows, axis=0, out=buf[: len(rows)], mode="clip")  # "clip" writes unbuffered
        if weights is not None:
            block *= weights[rows, None]
        # A block's segments are consecutive, and its first may have begun
        # in the block before, so the block's sums are added on.
        sums[seg[0] : seg[0] + len(starts)] += np.add.reduceat(block, starts, axis=0)
    return keys[first], sums


def _attention_projection(params, hidden, block, out) -> np.ndarray:
    """u = tanh(h attn_w^T + attn_b) of the rows ``block`` of ``hidden``, in ``out``'s first rows.

    Both directions compute u in the same row blocks, so the backward's u is
    bit for bit the forward's, and neither holds it for all rows.
    """
    u = out[: block.stop - block.start]
    np.matmul(hidden[block], params.attn_w.T, out=u)
    u += params.attn_b
    return np.tanh(u, out=u)


def _attention_forward(params, hidden, starts, rows):
    """Returns (attn_exp, attn_norm, agg); see forward.

    The exclusive prefix sums alone pick each window's states. A window past
    step 0 whose exponentials all underflow has D_k = 0 and gets a NaN
    aggregate, which the loss carries to every caller. The scores l_j are
    taken a row block at a time through one block buffer for the projection
    u, which is not kept. One [N, H] buffer holds a_j h_j, then the
    numerators N_k, then the aggregates N_k / D_k.
    """
    u_buf = np.empty((min(len(hidden), _ROW_BLOCK + 1), params.attn_dim), dtype=FLOAT)
    logits = np.empty(len(hidden), dtype=FLOAT)  # l_j
    for block in _row_blocks(len(hidden)):
        np.matmul(_attention_projection(params, hidden, block, u_buf), params.attn_u, out=logits[block])
    del u_buf  # so that it is not alive beside the aggregate
    # |l_j| <= ||attn_u||_1 because tanh is bounded, so after subtracting the
    # row's largest score every a_j >= exp(-2 ||attn_u||_1) stays a normal
    # float64 (and 1/D_k finite) while ||attn_u||_1 < 350.
    peak = np.full(starts[1], -np.inf)  # step 0 has every batch row
    np.maximum.at(peak, rows, logits)
    logits -= peak[rows]
    attn_exp = np.exp(logits, out=logits)
    attn_norm = _prefix_sums(attn_exp.copy(), starts)
    agg = _prefix_sums(np.multiply(attn_exp[:, None], hidden), starts)
    # Step 0's windows are empty and keep their zero sums. Past it, an empty
    # window has N_k = D_k = 0, so 0 / 0 gives its NaN.
    first = starts[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(agg[first:], attn_norm[first:, None], out=agg[first:])
    return attn_exp, attn_norm, agg


def _attention_backward(params, trace, dlogit, grads) -> np.ndarray:
    """Attention's parameter gradients, and dh: the loss's gradient w.r.t. each hidden state.

    The trace gives up its aggregate once -dD has been read from it. One
    [N, H] buffer holds dagg, then dN, then the sums of dN over each row's
    later steps, then dh. The projection u is recomputed a row block at a
    time, and each block adds its share of attention's weight gradients and
    its rows of dh: the head's hidden-half term and dpre @ attn_w, each
    row's terms in the order of the sum head + attention + projection.
    """
    # The aggregate is the head input's first half. Through agg_k = N_k / D_k:
    # dN_k = dagg_k / D_k and dD_k = -(dagg_k . agg_k) / D_k. State j enters
    # N_k and D_k for every later k of its row. Step 0's windows are empty
    # and pass nothing back.
    hd = params.hidden_dim
    skills, starts, norm = trace.target_skills, trace.starts, trace.attn_norm
    first = starts[1]
    neg_dnorm = np.zeros(len(skills), dtype=FLOAT)  # -dD_k
    for block in _row_blocks(len(skills), first):
        dnumer = params.head_w[skills[block], :hd]
        dnumer *= dlogit[block, None]
        dnumer /= norm[block, None]
        np.einsum("nh,nh->n", dnumer, trace.agg_hidden[block], out=neg_dnorm[block])
    trace.agg_hidden = dnumer = None
    dh = params.head_w[skills, :hd]
    dh *= dlogit[:, None]  # dagg
    dh[:first] = 0.0
    np.divide(dh[first:], norm[first:, None], out=dh[first:])
    dh = _prefix_sums(dh, starts, reverse=True)
    neg_dnorm_after = _prefix_sums(neg_dnorm, starts, reverse=True)
    a = trace.attn_exp
    dlogits = np.einsum("nh,nh->n", trace.hidden, dh)
    dlogits -= neg_dnorm_after
    dlogits *= a
    dh *= a[:, None]
    u_buf = np.empty((min(len(skills), _ROW_BLOCK + 1), params.attn_dim), dtype=FLOAT)
    for block in _row_blocks(len(skills)):
        u = _attention_projection(params, trace.hidden, block, u_buf)
        grads["attn_u"] += dlogits[block] @ u
        dpre = np.multiply(u, u, out=u)
        np.subtract(1.0, dpre, out=dpre)
        dpre *= params.attn_u
        dpre *= dlogits[block, None]
        grads["attn_w"] += dpre.T @ trace.hidden[block]
        grads["attn_b"] += dpre.sum(axis=0)
        head_term = params.head_w[skills[block], hd:]
        head_term *= dlogit[block, None]
        dh[block] += head_term
        dh[block] += dpre @ params.attn_w
    return dh


def _embedding_backward(params, keys, pair_dz, grads) -> None:
    """Route the input gradient into the two lookup tables without building it.

    ``pair_dz`` holds the gate gradients summed per ascending key
    response * S + skill; that pair's input gradient is the sum @ lstm_w,
    and each table row takes its slice of it.
    """
    s = params.num_skills
    d_s = params.skill_dim
    d_a = params.resp_dim
    split = np.searchsorted(keys, s)  # wrong answers' keys (= skill) sort first
    wrong, right = pair_dz[:split], pair_dz[split:]
    w = params.lstm_w
    # Wrong answers embed as [resp_0 | skill], correct ones as [skill | resp_1].
    grads["skill_emb"][keys[:split]] += wrong @ w[:, d_a:]
    grads["skill_emb"][keys[split:] - s] += right @ w[:, :d_s]
    grads["resp_emb"][0] += wrong.sum(axis=0) @ w[:, :d_a]
    grads["resp_emb"][1] += right.sum(axis=0) @ w[:, d_s:]


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "atkt-checkpoint"
CHECKPOINT_VERSION = 1


def _checkpoint_digest(arrays: dict[str, dict]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        entry = arrays[name]
        h.update(name.encode())
        h.update(json.dumps(entry["shape"]).encode())
        h.update(entry["data"].encode())
    return h.hexdigest()


def save_checkpoint(path, params: ModelParams, config: dict, timestamp: bool = True) -> None:
    """Write a versioned, checksummed JSON checkpoint.

    Layout: header fields (format, version, optional created), a ``config``
    echo, and per-array entries with shape, dtype and base64 little-endian
    C-order float64 bytes; ``checksum`` is a SHA-256 over names, shapes and
    payloads. Stable across releases.
    """
    arrays = {}
    for name, arr in params.named_arrays():
        data = np.ascontiguousarray(arr, dtype="<f8")
        arrays[name] = {
            "shape": list(arr.shape),
            "dtype": "float64",
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config,
        "arrays": arrays,
        "checksum": _checkpoint_digest(arrays),
    }
    if timestamp:
        doc["created"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint back; returns (params, config echo).

    Any malformed, corrupted or shape-inconsistent document raises
    ``CheckpointError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not an {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')}")
    arrays = doc.get("arrays")
    config = doc.get("config", {})
    if not isinstance(arrays, dict) or not isinstance(config, dict):
        raise CheckpointError(f'{path} needs "arrays" and "config" objects')
    if set(arrays) != set(PARAM_NAMES):
        raise CheckpointError(f"checkpoint arrays {sorted(arrays)} do not match {sorted(PARAM_NAMES)}")
    for name, entry in arrays.items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"])
            and isinstance(entry.get("data"), str)
        ):
            raise CheckpointError(f"checkpoint array {name} needs a shape (list of sizes) and data")
    if _checkpoint_digest(arrays) != doc.get("checksum"):
        raise CheckpointError(f"checksum mismatch in {path}")
    decoded = {}
    for name, entry in arrays.items():
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except binascii.Error as exc:
            raise CheckpointError(f"checkpoint array {name} is not valid base64: {exc}") from exc
        if len(raw) != 8 * math.prod(entry["shape"]):
            raise CheckpointError(
                f"checkpoint array {name} has shape {entry['shape']} but {len(raw)} payload bytes"
            )
        decoded[name] = np.frombuffer(raw, dtype="<f8").astype(FLOAT).reshape(entry["shape"])
        if not np.all(np.isfinite(decoded[name])):
            raise CheckpointError(f"checkpoint array {name} holds non-finite values")
    params = ModelParams(**decoded)
    _check_shapes(params)
    return params, config


def _check_shapes(params: ModelParams) -> None:
    """Every shape must follow from skill_emb, resp_emb, lstm_u and attn_w."""
    if any(getattr(params, name).ndim != 2 for name in ("skill_emb", "resp_emb", "lstm_u", "attn_w")):
        raise CheckpointError("checkpoint arrays skill_emb, resp_emb, lstm_u and attn_w must be matrices")
    s, h, a = params.num_skills, params.hidden_dim, params.attn_dim
    want = dict(skill_emb=(s, params.skill_dim), resp_emb=(2, params.resp_dim),
                lstm_w=(4 * h, params.input_dim), lstm_u=(4 * h, h), lstm_b=(4 * h,),
                attn_w=(a, h), attn_b=(a,), attn_u=(a,), head_w=(s, 2 * h), head_b=(s,))
    bad = [
        f"{name} is {list(arr.shape)}, expected {list(want[name])}"
        for name, arr in params.named_arrays()
        if arr.shape != want[name]
    ]
    if bad:
        raise CheckpointError("inconsistent checkpoint shapes: " + "; ".join(bad))
