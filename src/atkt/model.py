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
    exponentials of the scores (exact while ||attn_u||_1 < 350), so attention
    costs O(T) per sequence in both directions;
  * an affine layer maps the composite to one logit per skill and a sigmoid
    gives per-skill mastery probabilities; the probability at the attempted
    skill is scored with binary cross-entropy. Training and evaluation compute
    only that one probability (the attempted skill's head row, gathered per
    target); ``skill_probs`` rebuilds every skill's probability on demand,
    which is what ``atkt trace`` plots.

The loss is the mean over sequences of the per-sequence mean BCE over its
T-1 targets. ``backward`` returns exact gradients for every parameter array
and for the input embeddings (the hook adversarial training perturbs);
everything is float64 and validated against central finite differences
(the oracle is ``tests/grad_oracle.py``). The trace stores each value once:
readers recompute tanh(cell), and concatenate the composite from its halves.
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
from .linalg import FLOAT, Rng, ShapeError, sigmoid, tanh
from .metrics import PROB_CLAMP

PARAM_NAMES = (
    "skill_emb",
    "resp_emb",
    "lstm_w",
    "lstm_u",
    "lstm_b",
    "attn_w",
    "attn_b",
    "attn_u",
    "head_w",
    "head_b",
)

# lstm_w/lstm_u/lstm_b stack the four gates in blocks: input, forget,
# candidate, output.
GATE_ORDER = ("input", "forget", "candidate", "output")

ATTENTION_WINDOWS = ("causal", "sequence")


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

    def copy(self) -> "ModelParams":
        return ModelParams(**{name: arr.copy() for name, arr in self.named_arrays()})


@dataclass
class GradientSet:
    """Array-for-array mirror of ModelParams plus input-embedding gradients."""

    params: dict[str, np.ndarray]
    d_embed: np.ndarray  # [L-1, B, input_dim]; exact zeros at padded steps


@dataclass
class ForwardTrace:
    """Everything the backward pass and ``skill_probs`` need, per batch, once.

    Time-major layout: axis 0 indexes the L-1 consumed steps (equivalently
    the L-1 prediction targets), axis 1 the batch rows. The head's composite
    input is not stored: readers concatenate [agg_hidden | hidden].
    """

    embeddings: np.ndarray  # [n, B, d_in]
    gates: np.ndarray  # [n, B, 4H] post-activation, gate blocks per GATE_ORDER
    cell: np.ndarray  # [n, B, H]
    hidden: np.ndarray  # [n, B, H]
    attn_hidden: np.ndarray | None  # [n, B, attn_dim]
    # a_j = exp(l_j - row max) for j < seq_len - 2, else 0; and each target's
    # normaliser D_k. Target k's window weights are attn_exp[:k] / attn_norm[k].
    attn_exp: np.ndarray | None  # [n, B]
    attn_norm: np.ndarray | None  # [n, B]
    agg_hidden: np.ndarray  # [n, B, H]; zeros with attention off
    pred: np.ndarray  # [n, B] probability at the attempted skill (the only one computed)
    step_mask: np.ndarray  # bool [n, B]; valid input steps == valid targets
    target_skills: np.ndarray  # int64 [n, B] (clipped to 0 where padded)
    attention_enabled: bool
    attention_window: str
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
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


# ---------------------------------------------------------------------------
# Batched forward / backward.
# ---------------------------------------------------------------------------


def build_embeddings(params: ModelParams, batch: Batch) -> np.ndarray:
    """Embed the consumed interactions of a batch; padded steps are zero."""
    n = batch.max_len - 1
    b = batch.size
    d_in = params.input_dim
    d_s = params.skill_dim
    d_a = params.resp_dim
    skills = batch.skills[:, :n].T  # [n, B]
    resps = batch.responses[:, :n].T
    step_mask = _step_mask(batch)
    out = np.zeros((n, b, d_in), dtype=FLOAT)
    m1 = step_mask & (resps == 1)
    m0 = step_mask & (resps == 0)
    out[m1, :d_s] = params.skill_emb[skills[m1]]
    out[m1, d_s:] = params.resp_emb[1]
    out[m0, :d_a] = params.resp_emb[0]
    out[m0, d_a:] = params.skill_emb[skills[m0]]
    return out


def _step_mask(batch: Batch) -> np.ndarray:
    # Step t is a consumed input (and target t is real) iff t < seq_len - 1.
    n = batch.max_len - 1
    return (np.arange(n)[:, None] < (batch.seq_lens[None, :] - 1)).astype(bool)


def forward(
    params: ModelParams,
    batch: Batch,
    attention_enabled: bool = True,
    attention_window: str = "causal",
    embeddings: np.ndarray | None = None,
) -> tuple[ForwardTrace, float]:
    """Run the full network over a batch; returns the trace and the loss.

    ``embeddings`` overrides the table lookup (used for adversarial inputs);
    gradients w.r.t. the embedding tables still flow through the lookup
    indices on the backward pass.

    ``attention_window`` picks how attention weights are normalized:
    "causal" renormalizes over each prediction's own window; "sequence"
    normalizes once over all aggregable states and reuses prefix weights.
    Both compute aggregate k as N_k / D_k, with N_k the prefix sum of
    exp-weighted hidden states before k; only the normaliser D_k differs
    (its own prefix sum, or the row total).
    """
    if attention_window not in ATTENTION_WINDOWS:
        raise ValueError(f"attention_window must be one of {ATTENTION_WINDOWS}")
    if batch.num_skills != params.num_skills:
        raise ShapeError(
            f"batch built for {batch.num_skills} skills, model has {params.num_skills}"
        )
    n = batch.max_len - 1
    b = batch.size
    hd = params.hidden_dim
    if embeddings is None:
        embeddings = build_embeddings(params, batch)
    elif embeddings.shape != (n, b, params.input_dim):
        raise ShapeError(
            f"embedding override has shape {embeddings.shape}, "
            f"expected {(n, b, params.input_dim)}"
        )

    gates = np.empty((n, b, 4 * hd), dtype=FLOAT)
    cell = np.empty((n, b, hd), dtype=FLOAT)
    hidden = np.empty((n, b, hd), dtype=FLOAT)

    # Pre-activation input contributions for all steps at once.
    in_part = embeddings @ params.lstm_w.T + params.lstm_b
    h = np.zeros((b, hd), dtype=FLOAT)
    c = np.zeros((b, hd), dtype=FLOAT)
    for t in range(n):
        z = in_part[t] + h @ params.lstm_u.T
        gi = sigmoid(z[:, 0:hd])
        gf = sigmoid(z[:, hd : 2 * hd])
        gg = tanh(z[:, 2 * hd : 3 * hd])
        go = sigmoid(z[:, 3 * hd :])
        c = gf * c + gi * gg
        h = go * np.tanh(c)
        gates[t, :, 0:hd] = gi
        gates[t, :, hd : 2 * hd] = gf
        gates[t, :, 2 * hd : 3 * hd] = gg
        gates[t, :, 3 * hd :] = go
        cell[t] = c
        hidden[t] = h

    step_mask = _step_mask(batch)
    attn_hidden = attn_exp = attn_norm = None
    if attention_enabled:
        attn_hidden, attn_exp, attn_norm, agg = _attention_forward(
            params, hidden, batch.seq_lens, attention_window
        )
    else:
        agg = np.zeros((n, b, hd), dtype=FLOAT)

    # The loss reads one skill per target, so only its head row is applied:
    # O(n*B*2H) rather than O(n*B*S*2H) for the full head (see skill_probs).
    target_skills = np.where(step_mask, batch.skills[:, 1:].T, 0)
    if attention_enabled:
        composite = np.concatenate([agg, hidden], axis=2)
        logit = np.einsum("nbh,nbh->nb", composite, params.head_w[target_skills])
    else:
        # The aggregate half is identically zero; skipping it keeps the
        # ablated model bit-identical to a plain LSTM with the right-half
        # head columns.
        logit = np.einsum("nbh,nbh->nb", hidden, params.head_w[target_skills, hd:])
    pred = sigmoid(logit + params.head_b[target_skills])

    labels = batch.responses[:, 1:].T.astype(FLOAT)
    clamped = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    nll = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    per_seq = np.sum(np.where(step_mask, nll, 0.0), axis=0) / (batch.seq_lens - 1)
    loss = float(per_seq.mean())

    trace = ForwardTrace(
        embeddings=embeddings,
        gates=gates,
        cell=cell,
        hidden=hidden,
        attn_hidden=attn_hidden,
        attn_exp=attn_exp,
        attn_norm=attn_norm,
        agg_hidden=agg,
        pred=pred,
        step_mask=step_mask,
        target_skills=target_skills,
        attention_enabled=attention_enabled,
        attention_window=attention_window,
        batch=batch,
    )
    return trace, loss


def skill_probs(params: ModelParams, trace: ForwardTrace) -> np.ndarray:
    """Every skill's mastery probability at every step, [n, B, S].

    ``forward`` computes only the attempted skill's probability; this rebuilds
    the full head from the trace for inspection. Its entry at a valid target
    agrees with ``trace.pred`` to rounding (the dot products are summed in a
    different order), not bit for bit.
    """
    if trace.attention_enabled:
        composite = np.concatenate([trace.agg_hidden, trace.hidden], axis=2)
        logits = composite @ params.head_w.T + params.head_b
    else:
        hd = params.hidden_dim
        logits = trace.hidden @ params.head_w[:, hd:].T + params.head_b
    return sigmoid(logits)


def backward(params: ModelParams, trace: ForwardTrace) -> GradientSet:
    """Exact gradients of the traced batch's loss for all parameters and embeddings."""
    batch = trace.batch
    n, b, _ = trace.hidden.shape
    hd = params.hidden_dim
    grads = zero_gradients(params)

    # d(loss)/d(selected logit) = (p - a) / (B * (T_b - 1)) at valid targets.
    labels = batch.responses[:, 1:].T.astype(FLOAT)
    weight = 1.0 / (b * (batch.seq_lens - 1).astype(FLOAT))  # [B]
    dz_sel = np.where(trace.step_mask, (trace.pred - labels) * weight[None, :], 0.0)

    flat_mask = trace.step_mask.ravel()
    tgt_flat = trace.target_skills.ravel()[flat_mask]
    dz_flat = dz_sel.ravel()[flat_mask]

    # The composite [agg_hidden | hidden] at the valid targets. With attention
    # off the aggregate half is exact zeros, so its head gradients are too.
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
        _attention_backward(params, trace, dcomp[:, :, :hd], dhidden, grads)

    # LSTM backward through time.
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

    _embedding_backward(params, batch, trace.step_mask, d_embed, grads)
    return GradientSet(params=grads, d_embed=d_embed)


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """out[k] = sum of x[:k] along axis 0 (out[0] = 0)."""
    out = np.zeros_like(x)
    np.cumsum(x[:-1], axis=0, out=out[1:])
    return out


def _attention_forward(params, hidden, seq_lens, window):
    """Returns (attn_hidden, attn_exp, attn_norm, agg); see forward.

    Only states some window can use (j < seq_len - 2) get a nonzero a_j.
    """
    n = hidden.shape[0]
    attn_hidden = np.tanh(hidden @ params.attn_w.T + params.attn_b)
    logits = attn_hidden @ params.attn_u  # [n, B], l_j
    # |l_j| <= ||attn_u||_1 because tanh is bounded, so after subtracting the
    # row max every a_j >= exp(-2 ||attn_u||_1) stays a normal float64 (and
    # 1/D_k finite) while ||attn_u||_1 < 350.
    support = np.arange(n)[:, None] < (seq_lens[None, :] - 2)
    attn_exp = np.where(support, np.exp(logits - logits.max(axis=0)), 0.0)
    if window == "causal":
        attn_norm = _exclusive_cumsum(attn_exp)
    else:
        attn_norm = np.repeat(attn_exp.sum(axis=0, keepdims=True), n, axis=0)
    numer = _exclusive_cumsum(attn_exp[:, :, None] * hidden)
    norm = attn_norm[:, :, None]
    agg = np.divide(numer, norm, out=np.zeros_like(numer), where=norm > 0)
    return attn_hidden, attn_exp, attn_norm, agg


def _attention_backward(params, trace, dagg, dhidden, grads) -> None:
    # Through agg_k = N_k / D_k: dN_k = dagg_k / D_k and
    # dD_k = -(dagg_k . agg_k) / D_k. State j enters N_k for every k > j, and
    # D_k for every k > j ("causal") or for every k ("sequence").
    norm = trace.attn_norm[:, :, None]
    dnumer = np.divide(dagg, norm, out=np.zeros_like(dagg), where=norm > 0)
    dnorm = -np.sum(dnumer * trace.agg_hidden, axis=2)  # [n, B]
    dnumer_after = _exclusive_cumsum(dnumer[::-1])[::-1]
    if trace.attention_window == "causal":
        dnorm_sum = _exclusive_cumsum(dnorm[::-1])[::-1]
    else:
        dnorm_sum = dnorm.sum(axis=0)
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


def _embedding_backward(params, batch, step_mask, d_embed, grads) -> None:
    """Route embedding gradients into the two lookup tables."""
    n = step_mask.shape[0]
    d_s = params.skill_dim
    d_a = params.resp_dim
    skills = batch.skills[:, :n].T
    resps = batch.responses[:, :n].T
    m1 = step_mask & (resps == 1)
    m0 = step_mask & (resps == 0)
    de = d_embed[m1]
    np.add.at(grads["skill_emb"], skills[m1], de[:, :d_s])
    grads["resp_emb"][1] += de[:, d_s:].sum(axis=0)
    de = d_embed[m0]
    grads["resp_emb"][0] += de[:, :d_a].sum(axis=0)
    np.add.at(grads["skill_emb"], skills[m0], de[:, d_a:])


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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    # In PARAM_NAMES order, as documented on ModelParams.
    want = [(s, params.skill_dim), (2, params.resp_dim), (4 * h, params.input_dim), (4 * h, h),
            (4 * h,), (a, h), (a,), (a,), (s, 2 * h), (s,)]
    bad = [
        f"{name} is {list(arr.shape)}, expected {list(shape)}"
        for (name, arr), shape in zip(params.named_arrays(), want)
        if arr.shape != shape
    ]
    if bad:
        raise CheckpointError("inconsistent checkpoint shapes: " + "; ".join(bad))
