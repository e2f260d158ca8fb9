"""Independent reference paths used to check the production model code.

The single-vector ops (``embed_interaction``, ``lstm_step``,
``attend_history``, ``compose``, ``predict_step``) define the per-step
semantics the batched ``model.forward`` must agree with;
``sequence_forward`` composes them step by step, per sequence;
``plain_lstm_forward`` is a from-scratch LSTM-plus-head with no
attention wiring at all (the ablation target); ``full_head_forward`` scores
every skill at every step and keeps the attempted one's column, the oracle for
the gathered head; ``softmax`` backs ``attend_history`` and ``bce`` backs
``sequence_forward``; ``loop_attention_forward`` and
``loop_attention_backward`` compute the batched history attention one
prediction window at a time, O(n^2) per sequence, as drop-in replacements for
``model._attention_forward`` and ``model._attention_backward``;
``two_branch_fgsm`` is the FGSM scaling with one code path per scope;
``reference_train_batch`` is the training step that holds the clean pass's
arrays through the adversarial pass; ``l2_norm`` measures perturbation
budgets. All are deliberately kept separate from the production code they
validate.
"""

import math
from dataclasses import replace

import numpy as np

from atkt import adversarial, model
from atkt.linalg import FLOAT, ShapeError, sigmoid, tanh
from atkt.metrics import PROB_CLAMP
from atkt.model import build_embeddings
from atkt.training import clip_gradients, combine_gradients


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
    gg = tanh(z[2 * h : 3 * h])
    go = sigmoid(z[3 * h : 4 * h])
    c = gf * c_prev + gi * gg
    return go * tanh(c), c


def attend_history(params, hiddens):
    """Softmax-weighted aggregate of past hidden states.

    ``hiddens`` is the causal window (may be empty, giving a zero vector).
    """
    hiddens = list(hiddens)
    if not hiddens:
        return np.zeros(params.hidden_dim, dtype=FLOAT)
    stack = np.stack(hiddens)  # [k, H]
    u = tanh(stack @ params.attn_w.T + params.attn_b)
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
    no-attention configuration can be compared bit for bit.
    """
    hd = params.hidden_dim
    n = batch.max_len - 1
    emb = build_embeddings(params, batch)
    in_part = emb @ params.lstm_w.T + params.lstm_b
    h = np.zeros((batch.size, hd))
    c = np.zeros((batch.size, hd))
    hiddens = []
    for t in range(n):
        z = in_part[t] + h @ params.lstm_u.T
        gi = sigmoid(z[:, 0:hd])
        gf = sigmoid(z[:, hd : 2 * hd])
        gg = np.tanh(z[:, 2 * hd : 3 * hd])
        go = sigmoid(z[:, 3 * hd :])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        hiddens.append(h)
    stack = np.stack(hiddens)
    probs = sigmoid(stack @ params.head_w[:, hd:].T + params.head_b)
    step_mask = np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)
    targets = np.where(step_mask, batch.skills[:, 1:].T, 0)
    logit = np.einsum("nbh,nbh->nb", stack, params.head_w[targets, hd:])
    pred = sigmoid(logit + params.head_b[targets])
    return probs, pred


def full_head_forward(params, batch, attention_enabled=True, attention_window="causal"):
    """The forward pass with the full skill head; returns (trace, loss, probs).

    Every skill's probability at every step, then the attempted skill's
    column: the head as ``model.forward`` computed it before it gathered one
    head row per target. The embedding, LSTM and attention trunk is
    ``model.forward``'s (checked by the oracles above); the mask, targets,
    predictions and loss are rebuilt here from the batch and put into the
    trace, so ``model.backward`` on it gives this head's gradients.
    """
    trace, _ = model.forward(params, batch, attention_enabled, attention_window)
    hd = params.hidden_dim
    if attention_enabled:
        composite = np.concatenate([trace.agg_hidden, trace.hidden], axis=2)
        logits = composite @ params.head_w.T + params.head_b
    else:
        logits = trace.hidden @ params.head_w[:, hd:].T + params.head_b
    probs = sigmoid(logits)
    n = batch.max_len - 1
    step_mask = np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)
    targets = np.where(step_mask, batch.skills[:, 1:].T, 0)
    pred = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    clamped = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    nll = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    per_seq = np.sum(np.where(step_mask, nll, 0.0), axis=0) / (batch.seq_lens - 1)
    trace = replace(trace, pred=pred, step_mask=step_mask, target_skills=targets)
    return trace, float(per_seq.mean()), probs


def loop_attention_forward(params, hidden, seq_lens, window):
    """Per-window softmax aggregates; same return layout as the model's.

    "causal" takes a fresh softmax over each window h_0..h_{k-1}; "sequence"
    takes one softmax per row over j < seq_len - 2 and sums its prefixes.
    The exp/normaliser slots are None: only ``loop_attention_backward``
    consumes a trace built from this.
    """
    n, b, hd = hidden.shape
    attn_hidden = np.tanh(hidden @ params.attn_w.T + params.attn_b)
    attn_logits = attn_hidden @ params.attn_u
    agg = np.zeros((n, b, hd))
    for k in range(1, n):
        agg[k] = np.einsum("jb,jbh->bh", _window_weights(attn_logits, seq_lens, window, k), hidden[:k])
    return attn_hidden, None, None, agg


def loop_attention_backward(params, trace, dagg, dhidden, grads):
    """dagg -> (dhidden, dlogits) one window at a time, then the projection."""
    n, b, hd = trace.hidden.shape
    u = trace.attn_hidden
    logits = u @ params.attn_u
    seq_lens = trace.batch.seq_lens
    dlogits = np.zeros((n, b))
    if trace.attention_window == "causal":
        for k in range(1, n):
            w = _window_weights(logits, seq_lens, "causal", k)  # [k, B]
            dw = np.einsum("bh,jbh->jb", dagg[k], trace.hidden[:k])
            dhidden[:k] += w[:, :, None] * dagg[k][None, :, :]
            dlogits[:k] += w * (dw - np.sum(w * dw, axis=0, keepdims=True))
    else:
        w = _window_weights(logits, seq_lens, "sequence", n)  # [n, B]
        dweights = np.zeros((n, b))
        for k in range(1, n):
            dweights[:k] += np.einsum("bh,jbh->jb", dagg[k], trace.hidden[:k])
            dhidden[:k] += w[:k, :, None] * dagg[k][None, :, :]
        dlogits = w * (dweights - np.sum(w * dweights, axis=0, keepdims=True))
    du = dlogits[:, :, None] * params.attn_u[None, None, :]
    grads["attn_u"] += np.einsum("kb,kbw->w", dlogits, u)
    dpre = (1.0 - u * u) * du
    grads["attn_w"] += np.einsum("kbw,kbh->wh", dpre, trace.hidden)
    grads["attn_b"] += dpre.sum(axis=(0, 1))
    dhidden += dpre @ params.attn_w


def _window_weights(logits, seq_lens, window, k):
    """Weights [k, B] of the states h_0..h_{k-1} in target k's aggregate."""
    if window == "causal":
        w = np.exp(logits[:k] - logits[:k].max(axis=0, keepdims=True))
        return w / w.sum(axis=0, keepdims=True)
    support = np.arange(len(logits))[:, None] < (seq_lens[None, :] - 2)
    shifted = np.where(support, logits, -np.inf)
    peak = shifted.max(axis=0, keepdims=True)
    expw = np.where(support, np.exp(shifted - np.where(np.isfinite(peak), peak, 0.0)), 0.0)
    total = expw.sum(axis=0, keepdims=True)
    w = np.divide(expw, total, out=np.zeros_like(expw), where=total > 0)
    return w[:k]


def reference_train_batch(params, batch, config, run_adversarial):
    """``training.train_batch`` with every reference held to the end.

    The clean trace, its ``d_embed`` and the perturbation stay alive through
    the adversarial forward and backward, as they did before the training
    step freed them early; the outputs must not change.
    """
    trace, clean_loss = model.forward(
        params, batch, attention_enabled=config.attention, attention_window=config.attention_window
    )
    clean_grads = model.backward(params, trace)
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
        adv_params = model.backward(params, adv_trace).params
        objective = adversarial.joint_loss(clean_loss, adv_loss, config.beta)
    total = combine_gradients(clean_grads.params, adv_params, config.beta)
    if config.grad_clip is not None:
        clip_gradients(total, config.grad_clip)
    return clean_loss, objective, total
