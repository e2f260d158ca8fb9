"""Independent reference paths used to check the production model code.

The single-vector ops (``embed_interaction``, ``lstm_step``,
``attend_history``, ``compose``, ``predict_step``) define the per-step
semantics the batched ``model.forward`` must agree with;
``sequence_forward`` composes them step by step, per sequence;
``plain_lstm_forward`` is a from-scratch LSTM-plus-head with no
attention wiring at all (the ablation target); ``full_head_forward`` scores
every skill at every step and keeps the attempted one's column, the oracle for
the gathered head; ``softmax`` backs ``attend_history`` and ``bce`` backs
``sequence_forward``. ``on_grid`` lays a packed trace array onto the [n, B]
grid, which is how the tests read ``model.forward``'s per-cell values by step
and batch row; ``valid_cells`` is the grid's mask of valid cells. ``padded_forward`` and ``padded_backward`` run the LSTM,
attention, head and loss over every cell of the padded batch, as
``model.forward`` and ``model.backward`` did before they packed the valid
cells; their ``PaddedTrace`` keeps every per-cell array as [n, B, ...], which
is also the layout ``stepwise_backward`` reads. Their attention is
``padded_attention_forward`` and ``padded_attention_backward`` (prefix sums
along the step axis, ``exclusive_cumsum``); ``loop_attention_forward`` and
``loop_attention_backward`` compute the same one prediction window at a
time, O(n^2) per sequence, as drop-in replacements for those two;
``masked_attention_forward`` is ``model._attention_forward`` with the support
mask that zeroed each row's last a_j, a drop-in replacement for it;
``running_prefix_sums`` and ``thirteen_call_recurrence`` are
``model._prefix_sums`` and ``model._recurrence`` as they were before each
step took fewer numpy calls, drop-in replacements for them;
``carried_segment_sum`` is ``model._segment_sum`` as it was before each row
block's sums were added on, with the carried partial sum copied aside;
``two_branch_fgsm`` is the FGSM scaling with one code path per scope.
The dense adversarial path, as ``src`` ran it before FGSM worked from the
gate gradients: ``build_embeddings`` lays the looked-up embeddings onto the
[n, B, d_in] grid, one ``embed_interaction`` per valid cell;
``input_gradient`` is their gradient, gate gradients @ lstm_w, on that grid;
``dense_fgsm`` scales it to the budget, each ball first scaled by a power of
two; and ``reference_train_batch`` is the training step run on
``padded_forward`` and ``padded_backward``, whose adversarial pass reads
e + r. ``shift_for_direction`` builds ``model.forward``'s input shift for a
given direction, with its projection taken through the dense r.
``l2_norm`` measures perturbation budgets. ``two_branch_sigmoid`` is the logistic function with one masked
branch per sign, and ``stepwise_backward`` the backward pass with per-step
weight GEMMs, an eager ``d_embed`` and ``np.add.at`` scatters, as
``model.backward`` computed them before its gradients were hoisted out of the
time loop. ``adam_step`` is the Adam update that allocates new moment arrays
at every step.
``per_token_parse_triple_line`` is ``data.parse_triple_line`` as it was
before it converted files in the plain grammar in bulk: one walk over the
groups, one ``int()`` per token, each token checked against the README's
grammar by its own ``readme_int``, not by the converter it validates. All are
deliberately kept separate from the production code they validate.
"""

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from atkt import data, model
from atkt.linalg import FLOAT, ShapeError, sigmoid
from atkt.data import MAX_SKILLS, MIN_SEQ_LEN, Batch, DataFormatError, Dataset

# The oracles' losses clamp probabilities into [PROB_CLAMP, 1 - PROB_CLAMP]
# before any log, as ``model.forward`` did before it took the BCE from the logit.
PROB_CLAMP = 1e-12


def l2_norm(v):
    """Euclidean norm of ``v`` flattened."""
    return float(np.sqrt(np.sum(np.asarray(v, dtype=FLOAT) ** 2)))


def bce(prob, label):
    """Binary cross-entropy -(a*ln p + (1-a)*ln(1-p)) with clamped p."""
    p = min(max(float(prob), PROB_CLAMP), 1.0 - PROB_CLAMP)
    if label == 1:
        return -math.log(p)
    if label == 0:
        return -math.log(1.0 - p)
    raise ValueError(f"label must be 0 or 1, got {label!r}")


def two_branch_fgsm(d_embed, epsilon, scope):
    """The perturbation r of ``fgsm_perturbation``, one branch per scope."""
    if scope == "per_sequence":
        norms = np.sqrt(np.sum(d_embed**2, axis=(0, 2)))  # [B]
        scale = np.divide(epsilon, norms, out=np.zeros_like(norms), where=norms > 0)
        return d_embed * scale[None, :, None]
    norm = float(np.sqrt(np.sum(d_embed**2)))
    return d_embed * (epsilon / norm) if norm > 0 else np.zeros_like(d_embed)


def dense_fgsm(d_embed, epsilon, scope):
    """r = epsilon g / ||g|| per ball of the dense [n, B, d_in] gradient g, at any finite scale.

    Each ball's gradient is first scaled by the power of two that puts its
    largest entry in [0.5, 1), so that no square overflows or underflows.
    """
    axes = (0, 2) if scope == "per_sequence" else None
    peak = np.max(np.abs(d_embed), axis=axes, keepdims=True)
    _, k = np.frexp(peak)
    scaled = np.ldexp(d_embed, -k)
    norms = np.sqrt(np.sum(scaled**2, axis=axes, keepdims=True))
    return scaled * np.divide(epsilon, norms, out=np.zeros_like(norms), where=norms > 0)


def build_embeddings(params, batch):
    """The looked-up input embeddings on the [n, B, d_in] grid; zeros at padded steps."""
    out = np.zeros((batch.max_len - 1, batch.size, params.input_dim), dtype=FLOAT)
    for b in range(batch.size):
        for t in range(int(batch.seq_lens[b]) - 1):
            out[t, b] = embed_interaction(params, int(batch.skills[b, t]), int(batch.responses[b, t]))
    return out


def input_gradient(params, trace, gate_grads):
    """The loss gradient w.r.t. the input embeddings of a packed trace, on the [n, B, d_in] grid.

    Each valid cell's row is its gate gradient @ lstm_w; padded steps are zero.
    """
    return on_grid(trace, gate_grads @ params.lstm_w)


def shift_for_direction(params, batch, direction):
    """(``model.InputShift``, dense r) for r = direction @ lstm_w at the batch's valid cells.

    ``direction`` holds the cells in packed order. The shift's projection is
    r @ lstm_w^T, taken from the dense r laid out on the [n, B, d_in] grid.
    """
    cells, _ = model.pack_cells(batch.seq_lens)
    n, b, d = batch.max_len - 1, batch.size, params.input_dim
    r = np.zeros((n * b, d), dtype=FLOAT)
    r[cells] = direction @ params.lstm_w
    projection = r[cells] @ params.lstm_w.T
    return model.InputShift(direction=direction.copy(), projection=projection), r.reshape(n, b, d)


def two_branch_sigmoid(x):
    """1/(1+e^-x) on x >= 0 and e^x/(1+e^x) on x < 0, one masked branch each."""
    x = np.asarray(x, dtype=FLOAT)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(v):
    """Overflow-safe softmax of a vector (max-subtraction trick)."""
    if v.size == 0:
        raise ShapeError("softmax of an empty vector is undefined")
    shifted = v - np.max(v)
    e = np.exp(shifted)
    return e / np.sum(e)


def embed_interaction(params, skill, response):
    """Response-aware embedding: order of the concatenation encodes a."""
    if not 0 <= skill < params.num_skills:
        raise ShapeError(f"skill id {skill} out of range [0, {params.num_skills})")
    if response not in (0, 1):
        raise ValueError(f"response must be 0 or 1, got {response!r}")
    if response == 1:
        return np.concatenate([params.skill_emb[skill], params.resp_emb[1]])
    return np.concatenate([params.resp_emb[0], params.skill_emb[skill]])


def lstm_step(params, e, h_prev, c_prev):
    """One LSTM cell update; returns (h, c)."""
    h = params.hidden_dim
    z = params.lstm_w @ e + params.lstm_u @ h_prev + params.lstm_b
    gi = sigmoid(z[0:h])
    gf = sigmoid(z[h : 2 * h])
    gg = np.tanh(z[2 * h : 3 * h])
    go = sigmoid(z[3 * h : 4 * h])
    c = gf * c_prev + gi * gg
    return go * np.tanh(c), c


def attend_history(params, hiddens):
    """Softmax-weighted aggregate of past hidden states.

    ``hiddens`` is the causal window (may be empty, giving a zero vector).
    """
    hiddens = list(hiddens)
    if not hiddens:
        return np.zeros(params.hidden_dim, dtype=FLOAT)
    stack = np.stack(hiddens)  # [k, H]
    u = np.tanh(stack @ params.attn_w.T + params.attn_b)
    weights = softmax(u @ params.attn_u)
    return weights @ stack


def compose(agg, current):
    """Concatenate aggregated history with the current hidden state."""
    if agg.shape != current.shape:
        raise ShapeError(f"compose expects equal lengths, got {agg.shape} and {current.shape}")
    return np.concatenate([agg, current])


def predict_step(params, composite, skill):
    """Per-skill mastery probabilities and the one at the attempted skill."""
    if not 0 <= skill < params.num_skills:
        raise ShapeError(f"skill id {skill} out of range [0, {params.num_skills})")
    probs = sigmoid(params.head_w @ composite + params.head_b)
    return probs, float(probs[skill])


def sequence_forward(params, sequence, attention=True):
    """Per-step composition of the public single-vector operations."""
    T = len(sequence)
    h = np.zeros(params.hidden_dim)
    c = np.zeros(params.hidden_dim)
    hiddens = []
    for t in range(T - 1):
        e = embed_interaction(params, int(sequence.skills[t]), int(sequence.responses[t]))
        h, c = lstm_step(params, e, h, c)
        hiddens.append(h)
    preds = []
    losses = []
    for k in range(T - 1):
        if attention:
            agg = attend_history(params, hiddens[:k])
        else:
            agg = np.zeros(params.hidden_dim)
        composite = compose(agg, hiddens[k])
        _, a_hat = predict_step(params, composite, int(sequence.skills[k + 1]))
        preds.append(a_hat)
        losses.append(bce(a_hat, int(sequence.responses[k + 1])))
    return preds, sum(losses) / len(losses)


def plain_lstm_forward(params, batch):
    """Batched LSTM + affine head over the current hidden state only.

    Mirrors the exact expression order of the production forward pass so the
    no-attention configuration can be compared bit for bit: each step runs
    on the rows still alive, longest first, and the input projection is one
    product over the distinct (response, skill) pairs, in ascending order of
    response * S + skill, whose rows the cells then read. The recurrent term
    is a product with a contiguous copy of lstm_u^T, and the input, forget
    and output gates are 1/(1 + e^-z). Hidden states of padded steps are
    zeros.
    """
    hd = params.hidden_dim
    n, b, s = batch.max_len - 1, batch.size, params.num_skills
    step_mask = np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)
    order = sorted(range(b), key=lambda r: -batch.seq_lens[r])
    alive = [[r for r in order if step_mask[t, r]] for t in range(n)]
    keys = [int(batch.responses[r, t]) * s + int(batch.skills[r, t]) for t in range(n) for r in alive[t]]
    pairs = sorted(set(keys))
    table = np.stack([embed_interaction(params, k % s, k // s) for k in pairs]) @ params.lstm_w.T
    table += params.lstm_b
    in_part = table[[pairs.index(k) for k in keys]]
    u_t = np.ascontiguousarray(params.lstm_u.T)
    h = np.zeros((b, hd))
    c = np.zeros((b, hd))
    stack = np.zeros((n, b, hd))
    lo = 0
    for t in range(n):
        rows = alive[t]
        z = in_part[lo : lo + len(rows)] + h[: len(rows)] @ u_t
        lo += len(rows)
        with np.errstate(over="ignore"):  # e^-z = inf gives the gate's limit 0
            gi = 1.0 / (1.0 + np.exp(-z[:, 0:hd]))
            gf = 1.0 / (1.0 + np.exp(-z[:, hd : 2 * hd]))
            go = 1.0 / (1.0 + np.exp(-z[:, 3 * hd :]))
        gg = np.tanh(z[:, 2 * hd : 3 * hd])
        c = gf * c[: len(rows)] + gi * gg
        h = go * np.tanh(c)
        stack[t, rows] = h
    probs = sigmoid(stack @ params.head_w[:, hd:].T + params.head_b)
    targets = np.where(step_mask, batch.skills[:, 1:].T, 0)
    logit = np.einsum("nbh,nbh->nb", stack, params.head_w[targets, hd:])
    pred = sigmoid(logit + params.head_b[targets])
    return probs, pred


def on_grid(trace, packed):
    """Packed per-cell values of ``trace`` laid onto the [n, B, ...] grid, zeros at padded steps."""
    n, b = trace.batch.max_len - 1, trace.batch.size
    out = np.zeros((n * b,) + packed.shape[1:], dtype=packed.dtype)
    out[trace.cells] = packed
    return out.reshape((n, b) + packed.shape[1:])


def valid_cells(trace):
    """bool [n, B]: the grid cells the trace's packed rows stand for."""
    return on_grid(trace, np.ones(len(trace.cells), dtype=bool))


def full_head_forward(params, batch, attention_enabled=True):
    """The forward pass with the full skill head; returns (trace, loss, probs).

    Every skill's probability at every step of the [n, B] grid, then the
    attempted skill's column: the head as ``model.forward`` computed it before
    it gathered one head row per target. The embedding, LSTM and attention
    trunk is ``model.forward``'s (checked by the oracles above), laid onto the
    grid; the mask, targets, predictions and loss are rebuilt here from the
    batch, and the predictions put into the packed trace, so
    ``model.backward`` on it gives this head's gradients.
    """
    trace, _ = model.forward(params, batch, attention_enabled)
    hd = params.hidden_dim
    hidden = on_grid(trace, trace.hidden)
    if attention_enabled:
        composite = np.concatenate([on_grid(trace, trace.agg_hidden), hidden], axis=2)
        logits = composite @ params.head_w.T + params.head_b
    else:
        logits = hidden @ params.head_w[:, hd:].T + params.head_b
    probs = sigmoid(logits)
    n = batch.max_len - 1
    step_mask = np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)
    targets = np.where(step_mask, batch.skills[:, 1:].T, 0)
    pred = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    clamped = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    nll = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    per_seq = np.sum(np.where(step_mask, nll, 0.0), axis=0) / (batch.seq_lens - 1)
    trace = replace(trace, pred=pred.reshape(-1)[trace.cells])
    return trace, float(per_seq.mean()), probs


def loop_attention_forward(params, hidden, seq_lens):
    """Per-window softmax aggregates; same return layout as ``padded_attention_forward``.

    Each target k takes a fresh softmax over its window h_0..h_{k-1}. The
    exp/normaliser slots are None: only ``loop_attention_backward`` consumes
    a trace built from this.
    """
    n, b, hd = hidden.shape
    attn_hidden = np.tanh(hidden @ params.attn_w.T + params.attn_b)
    attn_logits = attn_hidden @ params.attn_u
    agg = np.zeros((n, b, hd))
    for k in range(1, n):
        agg[k] = np.einsum("jb,jbh->bh", _window_weights(attn_logits, k), hidden[:k])
    return attn_hidden, None, None, agg


def loop_attention_backward(params, trace, dagg, dhidden, grads):
    """dagg -> (dhidden, dlogits) one window at a time, then the projection."""
    n, b, hd = trace.hidden.shape
    u = trace.attn_hidden
    logits = u @ params.attn_u
    dlogits = np.zeros((n, b))
    for k in range(1, n):
        w = _window_weights(logits, k)  # [k, B]
        dw = np.einsum("bh,jbh->jb", dagg[k], trace.hidden[:k])
        dhidden[:k] += w[:, :, None] * dagg[k][None, :, :]
        dlogits[:k] += w * (dw - np.sum(w * dw, axis=0, keepdims=True))
    du = dlogits[:, :, None] * params.attn_u[None, None, :]
    grads["attn_u"] += np.einsum("kb,kbw->w", dlogits, u)
    dpre = (1.0 - u * u) * du
    grads["attn_w"] += np.einsum("kbw,kbh->wh", dpre, trace.hidden)
    grads["attn_b"] += dpre.sum(axis=(0, 1))
    dhidden += dpre @ params.attn_w


def masked_attention_forward(params, hidden, starts, rows):
    """``model._attention_forward`` with its support mask: each row's last a_j is 0.

    The packed attention as it was while a window over the whole row also
    existed: only states some causal window uses (step < seq_len - 2) get a
    nonzero a_j. Steps and lengths are recovered from ``starts`` and ``rows``.
    """
    steps = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    seq_lens = np.bincount(rows, minlength=starts[1]) + 1
    attn_hidden = np.tanh(hidden @ params.attn_w.T + params.attn_b)
    logits = attn_hidden @ params.attn_u
    peak = np.full(len(seq_lens), -np.inf)
    np.maximum.at(peak, rows, logits)
    attn_exp = np.where(steps < seq_lens[rows] - 2, np.exp(logits - peak[rows]), 0.0)
    attn_norm = model._prefix_sums(attn_exp, starts)
    numer = model._prefix_sums(attn_exp[:, None] * hidden, starts)
    agg = np.full_like(numer, np.nan)
    agg[: starts[1]] = 0.0
    np.divide(numer, attn_norm[:, None], out=agg, where=attn_norm[:, None] > 0)
    return attn_hidden, attn_exp, attn_norm, agg


def running_prefix_sums(x, starts, reverse=False):
    """``model._prefix_sums`` as a running sum: two calls a step, on np.int64 bounds."""
    out = np.empty_like(x)
    running = np.zeros((starts[1],) + x.shape[1:], dtype=x.dtype)
    steps = range(len(starts) - 1)
    for t in reversed(steps) if reverse else steps:
        lo, hi = starts[t], starts[t + 1]
        out[lo:hi] = running[: hi - lo]
        running[: hi - lo] += x[lo:hi]
    return out


def thirteen_call_recurrence(gates, cell, hidden, starts, lstm_u):
    """``model._recurrence`` as it ran on z: thirteen calls a step, on np.int64 bounds.

    It takes the same negated pre-activations and negates them back first.
    Each step then adds its recurrent term, keeps the candidate's tanh aside,
    negates the whole block for e^-z and copies the tanh back.
    """
    np.negative(gates, out=gates)
    b, hd = starts[1], cell.shape[1]
    u_t = np.ascontiguousarray(lstm_u.T)
    rec = np.empty((b, 4 * hd), dtype=FLOAT)
    tmp = np.empty((b, hd), dtype=FLOAT)
    h = c = np.zeros((b, hd), dtype=FLOAT)
    with np.errstate(over="ignore"):
        for t in range(len(starts) - 1):
            lo, hi = starts[t], starts[t + 1]
            m = hi - lo
            z = gates[lo:hi]
            z += np.matmul(h[:m], u_t, out=rec[:m])
            cand = np.tanh(z[:, 2 * hd : 3 * hd], out=tmp[:m])
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            gi, gf, gg, go = (z[:, k * hd : (k + 1) * hd] for k in range(4))
            gg[...] = cand
            c = np.multiply(gf, c[:m], out=cell[lo:hi])
            c += np.multiply(gi, gg, out=tmp[:m])
            h = np.tanh(c, out=hidden[lo:hi])
            h *= go


def carried_segment_sum(keys, values):
    """``model._segment_sum`` as it was with a carry: each block's sums are
    written over their rows of ``sums``, and the part of the block's first
    segment that the block before had summed is copied aside and added back.
    It reads ``model._ROW_BLOCK`` at each call.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    segment = np.cumsum(first) - 1
    sums = np.zeros((int(first.sum()),) + values.shape[1:], dtype=FLOAT)
    row_block = model._ROW_BLOCK
    for lo in range(0, len(keys), row_block):
        seg = segment[lo : lo + row_block]
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        carry = sums[seg[0]].copy()
        block = sums[seg[0] : seg[0] + len(starts)]
        np.add.reduceat(values[order[lo : lo + row_block]], starts, axis=0, out=block)
        block[0] += carry
    return keys[first], sums


def stepwise_backward(params, trace):
    """Gradients of the traced loss: (dict of the ten parameter gradients, d_embed).

    Every step of the time loop adds its own weight-gradient GEMMs and writes
    its row of ``d_embed``; the head and the tables are scattered with
    ``np.add.at``, and attention's weight gradients are ``einsum`` calls.
    """
    batch = trace.batch
    n, b, _ = trace.hidden.shape
    hd = params.hidden_dim
    grads = model.zero_gradients(params)

    # d(loss)/d(selected logit) = (p - a) / (B * (T_b - 1)) at valid targets.
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    weight = 1.0 / (b * (batch.seq_lens - 1).astype(FLOAT))  # [B]
    dz_sel = np.where(trace.step_mask, (trace.pred - labels) * weight[None, :], 0.0)

    flat_mask = trace.step_mask.ravel()
    tgt_flat = trace.target_skills.ravel()[flat_mask]
    dz_flat = dz_sel.ravel()[flat_mask]

    comp_flat = np.concatenate(
        [x.reshape(n * b, hd)[flat_mask] for x in (trace.agg_hidden, trace.hidden)], axis=1
    )
    np.add.at(grads["head_w"], tgt_flat, dz_flat[:, None] * comp_flat)
    np.add.at(grads["head_b"], tgt_flat, dz_flat)
    dcomp = np.zeros((n * b, 2 * hd), dtype=FLOAT)
    dcomp[flat_mask] = dz_flat[:, None] * params.head_w[tgt_flat]
    dcomp = dcomp.reshape(n, b, 2 * hd)
    dhidden = dcomp[:, :, hd:]
    if trace.attention_enabled:
        _einsum_attention_backward(params, trace, dcomp[:, :, :hd], dhidden, grads)

    d_embed = np.empty((n, b, params.input_dim), dtype=FLOAT)
    dh = np.zeros((b, hd), dtype=FLOAT)
    dc = np.zeros((b, hd), dtype=FLOAT)
    zeros_bh = np.zeros((b, hd), dtype=FLOAT)
    for t in range(n - 1, -1, -1):
        dh_t = dhidden[t] + dh
        gi = trace.gates[t, :, 0:hd]
        gf = trace.gates[t, :, hd : 2 * hd]
        gg = trace.gates[t, :, 2 * hd : 3 * hd]
        go = trace.gates[t, :, 3 * hd :]
        tc = np.tanh(trace.cell[t])
        do = tc * dh_t
        dc_t = dc + go * (1.0 - tc * tc) * dh_t
        c_prev = trace.cell[t - 1] if t > 0 else zeros_bh
        h_prev = trace.hidden[t - 1] if t > 0 else zeros_bh
        dzi = gi * (1.0 - gi) * (gg * dc_t)
        dzf = gf * (1.0 - gf) * (c_prev * dc_t)
        dzg = (1.0 - gg * gg) * (gi * dc_t)
        dzo = go * (1.0 - go) * do
        dz = np.concatenate([dzi, dzf, dzg, dzo], axis=1)  # [B, 4H]
        grads["lstm_w"] += dz.T @ trace.embeddings[t]
        grads["lstm_u"] += dz.T @ h_prev
        grads["lstm_b"] += dz.sum(axis=0)
        d_embed[t] = dz @ params.lstm_w
        dh = dz @ params.lstm_u
        dc = gf * dc_t

    skills = batch.skills[:, :n].T
    resps = batch.responses[:, :n].T
    m1 = trace.step_mask & (resps == 1)
    m0 = trace.step_mask & (resps == 0)
    d_s, d_a = params.skill_dim, params.resp_dim
    de = d_embed[m1]
    np.add.at(grads["skill_emb"], skills[m1], de[:, :d_s])
    grads["resp_emb"][1] += de[:, d_s:].sum(axis=0)
    de = d_embed[m0]
    grads["resp_emb"][0] += de[:, :d_a].sum(axis=0)
    np.add.at(grads["skill_emb"], skills[m0], de[:, d_a:])
    return grads, d_embed


def _einsum_attention_backward(params, trace, dagg, dhidden, grads):
    """The prefix-sum attention backward with ``einsum`` weight gradients."""
    norm = trace.attn_norm[:, :, None]
    dnumer = np.divide(dagg, norm, out=np.zeros_like(dagg), where=norm > 0)
    dnorm = -np.sum(dnumer * trace.agg_hidden, axis=2)
    dnumer_after = exclusive_cumsum(dnumer[::-1])[::-1]
    dnorm_sum = exclusive_cumsum(dnorm[::-1])[::-1]
    a = trace.attn_exp
    dhidden += a[:, :, None] * dnumer_after
    dlogits = a * (np.sum(trace.hidden * dnumer_after, axis=2) + dnorm_sum)
    u = trace.attn_hidden
    du = dlogits[:, :, None] * params.attn_u[None, None, :]
    grads["attn_u"] += np.einsum("kb,kbw->w", dlogits, u)
    dpre = (1.0 - u * u) * du
    grads["attn_w"] += np.einsum("kbw,kbh->wh", dpre, trace.hidden)
    grads["attn_b"] += dpre.sum(axis=(0, 1))
    dhidden += dpre @ params.attn_w


def _window_weights(logits, k):
    """Weights [k, B] of the states h_0..h_{k-1} in target k's aggregate."""
    w = np.exp(logits[:k] - logits[:k].max(axis=0, keepdims=True))
    return w / w.sum(axis=0, keepdims=True)


def reference_train_batch(params, batch, config, run_adversarial):
    """``training.train_batch`` on the dense padded path.

    Returns (clean loss, objective, gradients, the adversarial pass's [n, B]
    predictions or None). Both passes run ``padded_forward`` and
    ``padded_backward``; the adversarial one reads e + r, with r the
    ``dense_fgsm`` scaling of the clean pass's [n, B, d_in] input gradient.
    """
    trace, clean_loss = padded_forward(params, batch, attention_enabled=config.attention)
    grads, d_embed = padded_backward(params, trace)
    if not run_adversarial:
        return clean_loss, clean_loss, grads, None
    r = dense_fgsm(d_embed, float(config.epsilon or 0.0), config.fgsm_scope)
    adv_trace, adv_loss = padded_forward(
        params, batch, attention_enabled=config.attention, embeddings=trace.embeddings + r
    )
    adv_grads, _ = padded_backward(params, adv_trace)
    total = {name: grads[name] + config.beta * adv_grads[name] for name in grads}
    return clean_loss, clean_loss + config.beta * adv_loss, total, adv_trace.pred


@dataclass
class PaddedTrace:
    """``padded_forward``'s trace: ``model.ForwardTrace``'s values on the [n, B] grid.

    Every per-cell array is [n, B, ...] in batch order, with the LSTM's
    values at padded steps too; ``step_mask`` marks the valid cells.
    """

    embeddings: np.ndarray  # [n, B, d_in]
    gates: np.ndarray  # [n, B, 4H]
    cell: np.ndarray  # [n, B, H]
    hidden: np.ndarray  # [n, B, H]
    attn_hidden: np.ndarray | None  # [n, B, attn_dim]
    attn_exp: np.ndarray | None  # [n, B]
    attn_norm: np.ndarray | None  # [n, B]
    agg_hidden: np.ndarray  # [n, B, H]
    pred: np.ndarray  # [n, B]
    step_mask: np.ndarray  # bool [n, B]
    target_skills: np.ndarray  # int64 [n, B], 0 where padded
    attention_enabled: bool
    batch: Batch


def exclusive_cumsum(x):
    """out[k] = sum of x[:k] along axis 0 (out[0] = 0)."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    return out


def padded_attention_forward(params, hidden, seq_lens):
    """Prefix-sum attention over the [n, B] grid: (attn_hidden, attn_exp, attn_norm, agg).

    ``model.forward``'s attention before it ran on the packed cells. Each
    row's scores are shifted by its largest over all n steps, padded ones
    included, and only states some window can use (j < seq_len - 2) get a
    nonzero a_j. A window whose D_k is 0 gets a zero aggregate.
    """
    n = hidden.shape[0]
    attn_hidden = np.tanh(hidden @ params.attn_w.T + params.attn_b)
    logits = attn_hidden @ params.attn_u  # [n, B], l_j
    support = np.arange(n)[:, None] < (seq_lens[None, :] - 2)
    attn_exp = np.where(support, np.exp(logits - logits.max(axis=0)), 0.0)
    attn_norm = exclusive_cumsum(attn_exp)
    numer = exclusive_cumsum(attn_exp[:, :, None] * hidden)
    norm = attn_norm[:, :, None]
    agg = np.divide(numer, norm, out=np.zeros_like(numer), where=norm > 0)
    return attn_hidden, attn_exp, attn_norm, agg


def padded_attention_backward(params, trace, dagg, dhidden, grads):
    """The backward pass of ``padded_attention_forward`` over the [n, B] grid."""
    norm = trace.attn_norm[:, :, None]
    dnumer = np.divide(dagg, norm, out=np.zeros_like(dagg), where=norm > 0)
    dnorm = -np.sum(dnumer * trace.agg_hidden, axis=2)  # [n, B]
    dnumer_after = exclusive_cumsum(dnumer[::-1])[::-1]
    dnorm_sum = exclusive_cumsum(dnorm[::-1])[::-1]
    a = trace.attn_exp
    dhidden += a[:, :, None] * dnumer_after
    dlogits = a * (np.sum(trace.hidden * dnumer_after, axis=2) + dnorm_sum)
    u = trace.attn_hidden
    a_dim = params.attn_dim
    grads["attn_u"] += dlogits.reshape(-1) @ u.reshape(-1, a_dim)
    dpre = dlogits[:, :, None] * params.attn_u[None, None, :]
    dpre *= 1.0 - u * u
    grads["attn_w"] += dpre.reshape(-1, a_dim).T @ trace.hidden.reshape(-1, params.hidden_dim)
    grads["attn_b"] += dpre.sum(axis=(0, 1))
    dhidden += dpre @ params.attn_w


def padded_forward(params, batch, attention_enabled=True, embeddings=None):
    """``model.forward`` run over every cell of the padded batch.

    Returns (``PaddedTrace``, loss). The LSTM, attention, head and loss work
    on [n, B, ...] arrays, as ``model.forward`` did before it packed the valid
    cells; each step's input projection is part of one 3-D matmul over all
    cells.
    """
    n = batch.max_len - 1
    b = batch.size
    hd = params.hidden_dim
    if embeddings is None:
        embeddings = build_embeddings(params, batch)
    gates = np.empty((n, b, 4 * hd), dtype=FLOAT)
    cell = np.empty((n, b, hd), dtype=FLOAT)
    hidden = np.empty((n, b, hd), dtype=FLOAT)
    np.matmul(embeddings, params.lstm_w.T, out=gates)
    gates += params.lstm_b
    h = np.zeros((b, hd), dtype=FLOAT)
    c = np.zeros((b, hd), dtype=FLOAT)
    for t in range(n):
        z = gates[t]
        z += h @ params.lstm_u.T
        gg = np.tanh(z[:, 2 * hd : 3 * hd])
        z[...] = sigmoid(z)
        z[:, 2 * hd : 3 * hd] = gg
        gi, gf, go = z[:, :hd], z[:, hd : 2 * hd], z[:, 3 * hd :]
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        cell[t] = c
        hidden[t] = h

    step_mask = np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)
    attn_hidden = attn_exp = attn_norm = None
    if attention_enabled:
        attn_hidden, attn_exp, attn_norm, agg = padded_attention_forward(params, hidden, batch.seq_lens)
    else:
        agg = np.zeros((n, b, hd), dtype=FLOAT)
    target_skills = np.where(step_mask, batch.skills[:, 1:].T, 0)
    if attention_enabled:
        composite = np.concatenate([agg, hidden], axis=2)
        logit = np.einsum("nbh,nbh->nb", composite, params.head_w[target_skills])
    else:
        logit = np.einsum("nbh,nbh->nb", hidden, params.head_w[target_skills, hd:])
    pred = sigmoid(logit + params.head_b[target_skills])
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    clamped = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    nll = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    per_seq = np.sum(np.where(step_mask, nll, 0.0), axis=0) / (batch.seq_lens - 1)
    trace = PaddedTrace(
        embeddings=embeddings, gates=gates, cell=cell, hidden=hidden,
        attn_hidden=attn_hidden, attn_exp=attn_exp, attn_norm=attn_norm, agg_hidden=agg,
        pred=pred, step_mask=step_mask, target_skills=target_skills,
        attention_enabled=attention_enabled, batch=batch,
    )
    return trace, float(per_seq.mean())


def padded_backward(params, trace):
    """``model.backward`` over a ``padded_forward`` trace: (gradients, d_embed).

    The time loop runs over every cell of the padded batch and keeps every
    gate gradient (exact zeros at padded steps); the LSTM weight gradients and
    ``d_embed`` are single products over all n * B cells.
    """
    batch = trace.batch
    n, b, _ = trace.hidden.shape
    hd = params.hidden_dim
    grads = model.zero_gradients(params)
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    weight = 1.0 / (b * (batch.seq_lens - 1).astype(FLOAT))
    dz_sel = np.where(trace.step_mask, (trace.pred - labels) * weight[None, :], 0.0)
    valid = np.flatnonzero(trace.step_mask)
    tgt_flat = trace.target_skills.ravel()[valid]
    dz_flat = dz_sel.ravel()[valid]
    head_in = np.concatenate(
        [trace.agg_hidden, trace.hidden, np.ones((n, b, 1), dtype=FLOAT)], axis=2
    ).reshape(n * b, 2 * hd + 1)
    head_in *= dz_sel.reshape(n * b, 1)
    rows, sums = model._segment_sum(tgt_flat, head_in[valid])
    grads["head_w"][rows] = sums[:, :-1]
    grads["head_b"][rows] = sums[:, -1]
    dcomp = np.zeros((n * b, 2 * hd), dtype=FLOAT)
    dcomp[valid] = dz_flat[:, None] * params.head_w[tgt_flat]
    dcomp = dcomp.reshape(n, b, 2 * hd)
    dhidden = dcomp[:, :, hd:]
    if trace.attention_enabled:
        padded_attention_backward(params, trace, dcomp[:, :, :hd], dhidden, grads)

    dz = np.empty((n, b, 4 * hd), dtype=FLOAT)
    dh = np.zeros((b, hd), dtype=FLOAT)
    dc = np.zeros((b, hd), dtype=FLOAT)
    zeros_bh = np.zeros((b, hd), dtype=FLOAT)
    for t in range(n - 1, -1, -1):
        dh_t = dhidden[t] + dh
        gi, gf, gg, go = (trace.gates[t, :, k * hd : (k + 1) * hd] for k in range(4))
        tc = np.tanh(trace.cell[t])
        dc_t = dc + go * (1.0 - tc * tc) * dh_t
        c_prev = trace.cell[t - 1] if t > 0 else zeros_bh
        dz_t = dz[t]
        dz_t[:, :hd] = gi * (1.0 - gi) * (gg * dc_t)
        dz_t[:, hd : 2 * hd] = gf * (1.0 - gf) * (c_prev * dc_t)
        dz_t[:, 2 * hd : 3 * hd] = (1.0 - gg * gg) * (gi * dc_t)
        dz_t[:, 3 * hd :] = go * (1.0 - go) * (tc * dh_t)
        dh = dz_t @ params.lstm_u
        dc = gf * dc_t

    dz_rows = dz.reshape(n * b, 4 * hd)
    np.matmul(dz_rows.T, trace.embeddings.reshape(n * b, params.input_dim), out=grads["lstm_w"])
    np.matmul(dz[1:].reshape(-1, 4 * hd).T, trace.hidden[:-1].reshape(-1, hd), out=grads["lstm_u"])
    np.sum(dz_rows, axis=0, out=grads["lstm_b"])
    s, d_s, d_a = params.num_skills, params.skill_dim, params.resp_dim
    resps = batch.responses[:, :n].T.ravel()[valid]
    skills = batch.skills[:, :n].T.ravel()[valid]
    keys, sums = model._segment_sum(resps * s + skills, dz_rows[valid])
    split = np.searchsorted(keys, s)
    wrong, right = sums[:split], sums[split:]
    w = params.lstm_w
    grads["skill_emb"][keys[:split]] += wrong @ w[:, d_a:]
    grads["skill_emb"][keys[split:] - s] += right @ w[:, :d_s]
    grads["resp_emb"][0] += wrong.sum(axis=0) @ w[:, :d_a]
    grads["resp_emb"][1] += right.sum(axis=0) @ w[:, d_s:]
    d_embed = (dz_rows @ params.lstm_w).reshape(n, b, params.input_dim)
    return grads, d_embed


def adam_step(params, grads, state, lr, beta1, beta2, eps):
    """Bias-corrected Adam update, building new moment arrays at every step."""
    state.step += 1
    t = state.step
    for name, arr in params.named_arrays():
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + eps)


def readme_int(tok):
    """A token of the README's grammar: ASCII digits, an optional leading "-",
    whitespace around them."""
    tok = tok.strip()
    if not re.fullmatch(r"-?[0-9]+", tok):
        raise ValueError(tok)
    return int(tok)


def readme_int_list(line, line_number, what):
    """One line's tokens by ``readme_int``; empty tokens at the end are allowed."""
    tokens = line.strip().split(",")
    while tokens and tokens[-1] == "":
        tokens.pop()
    values = []
    for tok in tokens:
        try:
            values.append(readme_int(tok))
        except ValueError:
            raise DataFormatError(line_number, f"non-integer {what} token {tok.strip()!r}") from None
    return values


def per_token_parse_triple_line(text, num_skills=None):
    """Triple-line text to a Dataset, group by group and token by token."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    sequences = []
    dropped = 0
    max_skill = -1
    i = 0
    group = 0
    while i < len(lines):
        if lines[i].strip() == "":
            i += 1
            continue
        count_line_no = i + 1
        count_tok = lines[i].strip()
        try:
            count = readme_int(count_tok)
        except ValueError:
            raise DataFormatError(count_line_no, f"expected interaction count, got {count_tok!r}") from None
        if count < 0:
            raise DataFormatError(count_line_no, f"negative interaction count {count}")
        if i + 2 >= len(lines):
            raise DataFormatError(count_line_no, "truncated group: need skill and response lines")
        skills = readme_int_list(lines[i + 1], i + 2, "skill")
        responses = readme_int_list(lines[i + 2], i + 3, "response")
        if len(skills) != count:
            raise DataFormatError(i + 2, f"declared {count} interactions but found {len(skills)} skills")
        if len(responses) != count:
            raise DataFormatError(i + 3, f"declared {count} interactions but found {len(responses)} responses")
        for s in skills:
            if s < 0:
                raise DataFormatError(i + 2, f"negative skill id {s}")
        for a in responses:
            if a not in (0, 1):
                raise DataFormatError(i + 3, f"response must be 0 or 1, got {a}")
        if skills:
            line_max = max(skills)
            if line_max >= MAX_SKILLS:
                raise DataFormatError(i + 2, f"skill id {line_max} is not below the cap of {MAX_SKILLS:,}")
            max_skill = max(max_skill, line_max)
        if count >= MIN_SEQ_LEN:
            sequences.append(data._sequence(f"student-{group}", skills, responses))
        else:
            dropped += 1
        group += 1
        i += 3
    if dropped:
        data.logger.info("dropped %d sequence(s) shorter than %d interactions", dropped, MIN_SEQ_LEN)
    inferred = max_skill + 1
    if num_skills is None:
        num_skills = inferred
    elif num_skills < inferred:
        raise ValueError(f"num_skills={num_skills} but file contains skill id {max_skill}")
    return Dataset(sequences=tuple(sequences), num_skills=num_skills)
