import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from atkt import adversarial, model, training
from atkt.data import Dataset, FoldSplit, InteractionSequence, generate_synthetic, make_batches
from atkt.linalg import Rng, ShapeError
from atkt.model import (
    CheckpointError,
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from atkt.training import TrainConfig

from grad_oracle import (
    analytic_gradients,
    compare_gradients,
    grad_check,
    grad_check_batch,
    numeric_gradients,
)
import reference_impl
from memory_probe import MemoryProbe
from reference_impl import (
    attend_history,
    build_embeddings,
    compose,
    embed_interaction,
    full_head_forward,
    input_gradient,
    loop_attention_backward,
    loop_attention_forward,
    lstm_step,
    on_grid,
    padded_backward,
    padded_forward,
    plain_lstm_forward,
    predict_step,
    sequence_forward,
    shift_for_direction,
    stepwise_backward,
    two_branch_sigmoid,
    valid_cells,
)


def tiny_params(seed=0, num_skills=4, skill_dim=3, resp_dim=2, hidden_dim=3, attn_dim=3):
    return init_params(num_skills, skill_dim, resp_dim, hidden_dim, attn_dim, Rng(seed).split("init"))


def tiny_config(**overrides):
    base = dict(skill_dim=3, resp_dim=2, hidden_dim=3, attn_dim=3, batch_size=4)
    base.update(overrides)
    return TrainConfig(**base)


def random_batch(seed, num_skills=4, lengths=(5, 4, 3, 2)):
    rng = Rng(seed).split("batch")
    seqs = []
    for i, n in enumerate(lengths):
        seqs.append(
            InteractionSequence(
                student_id=f"r{i}",
                skills=np.asarray(rng.integers(0, num_skills, size=n), dtype=np.int64),
                responses=np.asarray(rng.integers(0, 2, size=n), dtype=np.int64),
            )
        )
    return seqs, make_batches(seqs, num_skills, batch_size=len(seqs), rng=None)[0]


class TestEmbedInteraction:
    def test_correct_puts_skill_first(self):
        p = tiny_params()
        p.skill_emb[2] = [1.0, 2.0, 3.0]
        p.resp_emb[1] = [9.0, 8.0]
        np.testing.assert_array_equal(embed_interaction(p, 2, 1), [1, 2, 3, 9, 8])

    def test_wrong_puts_response_first(self):
        p = tiny_params()
        p.skill_emb[2] = [1.0, 2.0, 3.0]
        p.resp_emb[0] = [7.0, 6.0]
        np.testing.assert_array_equal(embed_interaction(p, 2, 0), [7, 6, 1, 2, 3])

    def test_reference_dims_give_length_352(self):
        p = init_params(3, 256, 96, 80, 80, Rng(0).split("init"))
        assert embed_interaction(p, 0, 1).shape == (352,)

    def test_out_of_range_skill(self):
        with pytest.raises(ShapeError):
            embed_interaction(tiny_params(), 4, 1)
        with pytest.raises(ValueError):
            embed_interaction(tiny_params(), 0, 2)


class TestLstmStep:
    def test_zero_weights_zero_state_fixpoint(self):
        p = tiny_params()
        for name, arr in p.named_arrays():
            if name.startswith("lstm"):
                arr[...] = 0.0
        e = Rng(1).split("e").normal(size=p.input_dim)
        h_prev = Rng(1).split("h").normal(size=p.hidden_dim)
        h, c = lstm_step(p, e, h_prev, np.zeros(p.hidden_dim))
        np.testing.assert_array_equal(h, np.zeros(p.hidden_dim))
        np.testing.assert_array_equal(c, np.zeros(p.hidden_dim))

    def test_single_unit_hand_arithmetic(self):
        # One hidden unit, two inputs: evaluate the cell equations with
        # plain math.* as the oracle.
        p = tiny_params(num_skills=2, skill_dim=1, resp_dim=1, hidden_dim=1, attn_dim=1)
        p.lstm_w[...] = np.array([[0.5, -0.3], [0.2, 0.1], [-0.4, 0.6], [0.3, 0.2]])
        p.lstm_u[...] = np.array([[0.1], [-0.2], [0.3], [-0.1]])
        p.lstm_b[...] = np.array([0.05, 1.0, -0.05, 0.02])
        e = np.array([0.7, -1.2])
        h_prev = np.array([0.4])
        c_prev = np.array([-0.3])

        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        zi = 0.5 * 0.7 + (-0.3) * (-1.2) + 0.1 * 0.4 + 0.05
        zf = 0.2 * 0.7 + 0.1 * (-1.2) + (-0.2) * 0.4 + 1.0
        zg = -0.4 * 0.7 + 0.6 * (-1.2) + 0.3 * 0.4 + (-0.05)
        zo = 0.3 * 0.7 + 0.2 * (-1.2) + (-0.1) * 0.4 + 0.02
        c_want = sig(zf) * (-0.3) + sig(zi) * math.tanh(zg)
        h_want = sig(zo) * math.tanh(c_want)

        h, c = lstm_step(p, e, h_prev, c_prev)
        assert c[0] == pytest.approx(c_want, abs=1e-14)
        assert h[0] == pytest.approx(h_want, abs=1e-14)


class TestAttention:
    def test_empty_window_is_zero(self):
        p = tiny_params()
        np.testing.assert_array_equal(attend_history(p, []), np.zeros(p.hidden_dim))

    def test_identical_states_average_to_themselves(self):
        p = tiny_params()
        h = np.array([0.3, -0.2, 0.5])
        out = attend_history(p, [h, h, h, h])
        np.testing.assert_allclose(out, h, rtol=0, atol=1e-15)

    def test_exact_softmax_weights(self):
        # Construct a head whose scores are (ln 1, ln 3): weights 1/4, 3/4.
        p = tiny_params(num_skills=2, skill_dim=1, resp_dim=1, hidden_dim=2, attn_dim=1)
        p.attn_w[...] = np.array([[0.0, 1.0]])
        p.attn_b[...] = 0.0
        p.attn_u[...] = math.log(3.0) / math.tanh(1.0)
        h1 = np.array([1.0, 0.0])
        h2 = np.array([0.0, 1.0])
        out = attend_history(p, [h1, h2])
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-12)


class TestComposeAndPredict:
    def test_compose_concatenates(self):
        np.testing.assert_array_equal(compose(np.array([1.0]), np.array([2.0])), [1, 2])

    def test_compose_zero_history_boundary(self):
        h = np.array([0.1, 0.2])
        out = compose(np.zeros(2), h)
        np.testing.assert_array_equal(out, [0, 0, 0.1, 0.2])

    def test_compose_length_at_reference_dims(self):
        assert compose(np.zeros(80), np.zeros(80)).shape == (160,)

    def test_compose_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compose(np.zeros(2), np.zeros(3))

    def test_zero_head_gives_half_everywhere(self):
        p = tiny_params()
        p.head_w[...] = 0.0
        p.head_b[...] = 0.0
        probs, a_hat = predict_step(p, np.ones(2 * p.hidden_dim), 1)
        np.testing.assert_array_equal(probs, np.full(p.num_skills, 0.5))
        assert a_hat == 0.5

    def test_probabilities_strictly_inside_unit_interval(self):
        p = tiny_params(seed=5)
        probs, a_hat = predict_step(p, np.full(2 * p.hidden_dim, 3.0), 0)
        assert np.all(probs > 0) and np.all(probs < 1)
        assert 0 < a_hat < 1


class TestForward:
    def test_chance_level_loss_on_balanced_labels(self):
        ds = generate_synthetic(30, 6, 12, learn_rate=0.5, guess=0.5, slip=0.5, seed=3)
        batch = make_batches(list(ds.sequences), 6, 30, rng=None)[0]
        p = init_params(6, 16, 8, 12, 12, Rng(0).split("init"))
        _, loss = model.forward(p, batch)
        assert abs(loss - math.log(2)) < 0.15

    def test_length_two_sequence_has_one_target(self):
        seqs, batch = random_batch(0, lengths=(2,))
        trace, _ = model.forward(tiny_params(), batch)
        assert trace.pred.shape == (1,)
        np.testing.assert_array_equal(valid_cells(trace), [[True]])

    def test_attention_flag_changes_predictions(self):
        _, batch = random_batch(1)
        p = tiny_params(seed=2)
        _, loss_on = model.forward(p, batch, attention_enabled=True)
        _, loss_off = model.forward(p, batch, attention_enabled=False)
        assert loss_on != loss_off

    def test_window_weights_sum_to_one(self):
        _, batch = random_batch(2, lengths=(6, 5, 4, 3, 2))
        trace, _ = model.forward(tiny_params(seed=3), batch)
        attn_exp, attn_norm = on_grid(trace, trace.attn_exp), on_grid(trace, trace.attn_norm)
        np.testing.assert_array_equal(on_grid(trace, trace.agg_hidden)[0], 0.0)  # empty window
        for k in range(1, batch.max_len - 1):
            valid = valid_cells(trace)[k]
            w = attn_exp[:k, valid] / attn_norm[k, valid]
            np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-10)
            assert np.all(w > 0)

    def test_matches_single_step_reference(self):
        for lengths in [(6, 4, 3, 2), (130, 47, 9, 2)]:
            for attention in (True, False):
                seqs, batch = random_batch(4, lengths=lengths)
                p = tiny_params(seed=7)
                trace, loss = model.forward(p, batch, attention_enabled=attention)
                pred = on_grid(trace, trace.pred)
                ref_losses = []
                for b, seq in enumerate(seqs):
                    preds, seq_loss = sequence_forward(p, seq, attention=attention)
                    ref_losses.append(seq_loss)
                    for k, want in enumerate(preds):
                        assert pred[k, b] == pytest.approx(want, abs=1e-12)
                assert loss == pytest.approx(np.mean(ref_losses), abs=1e-12)

    def test_rejects_wrong_shift_shape(self):
        _, batch = random_batch(6)  # 10 valid cells, 4H = 12
        for shape in ((10, 11), (9, 12)):
            with pytest.raises(ShapeError):
                model.forward(tiny_params(), batch, embeddings=model.InputShift(np.zeros(shape), np.zeros(shape)))

    def test_deterministic_bitwise(self):
        _, batch = random_batch(7)
        p = tiny_params(seed=9)
        t1, l1 = model.forward(p, batch)
        t2, l2 = model.forward(p, batch)
        assert l1 == l2
        np.testing.assert_array_equal(t1.pred, t2.pred)
        g1 = model.backward(p, t1)
        g2 = model.backward(p, t2)
        for name in g1.params:
            np.testing.assert_array_equal(g1.params[name], g2.params[name])
        np.testing.assert_array_equal(g1.gate_grads, g2.gate_grads)


class TestGateActivation:
    """The recurrence's in-place gates, 1/(1 + e^-z), at and inside their float64 range."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("block", range(4))
    def test_saturated_bias_gives_exact_limits(self, block, sign):
        _, batch = random_batch(60, lengths=(6, 5, 3, 2))
        p = tiny_params(seed=60)
        hd = p.hidden_dim
        p.lstm_b[block * hd : (block + 1) * hd] = 800.0 * sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e^800 overflowing to inf must stay silent
            trace, loss = model.forward(p, batch)
            gates = trace.gates[:, block * hd : (block + 1) * hd].copy()  # backward overwrites them
            grads = model.backward(p, trace)
        assert math.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads.params.values())
        limit = sign if model.GATE_ORDER[block] == "candidate" else max(sign, 0.0)
        np.testing.assert_array_equal(gates, limit)

    def test_matches_two_branch_sigmoid(self):
        # With lstm_w = lstm_u = 0, every cell's pre-activation is lstm_b.
        _, batch = random_batch(61, lengths=(4, 2))
        p = tiny_params(seed=61, hidden_dim=600)
        p.lstm_w[...] = 0.0
        p.lstm_u[...] = 0.0
        p.lstm_b[...] = Rng(61).split("z").uniform(-700.0, 700.0, size=p.lstm_b.shape)
        trace, _ = model.forward(p, batch)
        hd = p.hidden_dim
        for k, name in enumerate(model.GATE_ORDER):
            got = trace.gates[:, k * hd : (k + 1) * hd]
            z = p.lstm_b[k * hd : (k + 1) * hd]
            if name == "candidate":
                np.testing.assert_array_equal(got, np.broadcast_to(np.tanh(z), got.shape))
            else:
                np.testing.assert_allclose(got, np.broadcast_to(two_branch_sigmoid(z), got.shape), rtol=1e-15, atol=0)


class TestMaskingOpacity:
    def test_padded_cells_are_inert(self):
        seqs, batch = random_batch(10, lengths=(5, 3, 2))
        p = tiny_params(seed=11)
        trace, loss = model.forward(p, batch)
        grads = model.backward(p, trace)

        # Poison every padded cell; nothing downstream may change.
        padded = np.arange(batch.max_len)[None, :] >= batch.seq_lens[:, None]
        skills = batch.skills.copy()
        responses = batch.responses.copy()
        skills[padded] = 9999
        responses[padded] = 1
        poisoned = type(batch)(
            skills=skills,
            responses=responses,
            seq_lens=batch.seq_lens,
            student_ids=batch.student_ids,
            num_skills=batch.num_skills,
        )
        trace2, loss2 = model.forward(p, poisoned)
        grads2 = model.backward(p, trace2)
        assert loss == loss2
        for name in grads.params:
            np.testing.assert_array_equal(grads.params[name], grads2.params[name])
        np.testing.assert_array_equal(grads.gate_grads, grads2.gate_grads)

    def test_gradients_vanish_on_padded_steps(self):
        # The gate gradients cover the valid cells only, and FGSM's r is zero
        # at every padded step of the grid.
        _, batch = random_batch(11, lengths=(6, 2))
        p = tiny_params(seed=12)
        trace, _ = model.forward(p, batch)
        grads = model.backward(p, trace)
        assert grads.gate_grads.shape == (len(trace.cells), 4 * p.hidden_dim)
        r = adversarial.fgsm_perturbation(grads.gate_grads, p.lstm_w, batch, 1.0).r
        assert np.all(r[~valid_cells(trace)] == 0.0) and np.any(r != 0.0)


class TestCausality:
    def test_influence_is_strictly_upper_triangular(self):
        # One row, so packed row t is step t; each step's input embedding in
        # turn moves by 0.05 in every coordinate, through an input shift.
        seqs, batch = random_batch(13, lengths=(7,))
        p = tiny_params(seed=13)
        trace, _ = model.forward(p, batch)
        pred = on_grid(trace, trace.pred)[:, 0]
        for t0 in range(len(trace.cells)):
            projection = np.zeros_like(trace.gates)
            projection[t0] = 0.05 * p.lstm_w.sum(axis=1)
            shift = model.InputShift(np.zeros_like(projection), projection)
            trace2, _ = model.forward(p, batch, embeddings=shift)
            pred2 = on_grid(trace2, trace2.pred)[:, 0]
            np.testing.assert_array_equal(pred2[:t0], pred[:t0])
            later = np.abs(pred2[t0:] - pred[t0:])
            assert later.max() > 0

    @pytest.mark.parametrize("attention", [True, False])
    def test_flipped_response_moves_no_earlier_prediction(self, attention):
        # Through the pair projection, no shift: flipping interaction k's
        # response leaves the predictions of interactions 1..k (packed steps
        # before k) alone. Attention shifts a row's scores by its largest, which
        # later states can move; N_k and D_k then change by one factor, so the
        # earlier predictions may move by rounding, never by a real amount.
        seqs, batch = random_batch(17, lengths=(9, 6, 4, 2))
        p = tiny_params(seed=17)
        trace, _ = model.forward(p, batch, attention_enabled=attention)
        pred = on_grid(trace, trace.pred)
        for b, seq in enumerate(seqs):
            for k in range(len(seq)):
                responses = seq.responses.copy()
                responses[k] = 1 - responses[k]
                flipped = list(seqs)
                flipped[b] = dataclasses.replace(seq, responses=responses)
                batch2 = make_batches(flipped, batch.num_skills, batch_size=len(seqs), rng=None)[0]
                trace2, _ = model.forward(p, batch2, attention_enabled=attention)
                pred2 = on_grid(trace2, trace2.pred)
                np.testing.assert_allclose(pred2[:k, b], pred[:k, b], rtol=0, atol=1e-14)
                if k < len(seq) - 1:
                    assert abs(pred2[k, b] - pred[k, b]) > 1e-6  # the flip reaches the model


class TestAblation:
    def test_no_attention_bit_matches_plain_lstm(self):
        _, batch = random_batch(14, lengths=(6, 5, 4, 3, 2))
        p = tiny_params(seed=14)
        trace, _ = model.forward(p, batch, attention_enabled=False)
        ref_probs, ref_pred = plain_lstm_forward(p, batch)
        valid = valid_cells(trace)
        np.testing.assert_array_equal(on_grid(trace, trace.pred)[valid], ref_pred[valid])
        np.testing.assert_array_equal(on_grid(trace, model.skill_probs(p, trace))[valid], ref_probs[valid])

    def test_attention_gradients_are_exact_zeros_when_disabled(self):
        _, batch = random_batch(16, lengths=(6, 5, 4, 3, 2))
        p = tiny_params(seed=16)
        trace, _ = model.forward(p, batch, attention_enabled=False)
        grads = model.backward(p, trace).params
        for name in ("attn_w", "attn_b", "attn_u"):
            np.testing.assert_array_equal(grads[name], 0.0)
        np.testing.assert_array_equal(grads["head_w"][:, : p.hidden_dim], 0.0)
        assert np.any(grads["head_w"][:, p.hidden_dim :] != 0.0)

    def test_attention_params_are_inert_when_disabled(self):
        _, batch = random_batch(15)
        p = tiny_params(seed=15)
        _, loss = model.forward(p, batch, attention_enabled=False)
        p.attn_w[...] = 123.0
        p.attn_u[...] = -7.0
        _, loss2 = model.forward(p, batch, attention_enabled=False)
        assert loss == loss2


class TestGradientCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_config_passes(self, seed):
        report = grad_check(tiny_config(), seed=seed)
        assert report.passed, report.summary()

    def test_attention_disabled_passes(self):
        report = grad_check(tiny_config(attention=False), seed=4)
        assert report.passed, report.summary()

    def test_saturated_head_passes(self):
        # At head_b = 40 every p rounds to 1: a loss taken from clamped
        # probabilities is flat there, while its gradient p - a is not.
        cfg = tiny_config()
        p = tiny_params(seed=6)
        p.head_b[:] = 40.0
        batch = grad_check_batch(4, cfg, seed=6)
        analytic = analytic_gradients(p, batch, cfg)
        assert np.any(analytic["head_b"] != 0.0)
        report = compare_gradients(analytic, numeric_gradients(p, batch, cfg))
        assert report.passed, report.summary()

    def test_sign_flip_in_attention_backward_is_caught(self):
        cfg = tiny_config()
        p = tiny_params(seed=5)
        batch = grad_check_batch(4, cfg, seed=5)
        analytic = analytic_gradients(p, batch, cfg)
        analytic["attn_w"] = -analytic["attn_w"]
        numeric = numeric_gradients(p, batch, cfg)
        report = compare_gradients(analytic, numeric)
        assert not report.passed
        assert [e.array for e in report.failures()] == ["attn_w"]


class TestPrefixSumAttention:
    """The packed prefix-sum attention against the per-window loop oracle."""

    LENGTHS = (123, 60, 17, 5, 3, 2)

    def params(self, attn_u_l1=None):
        p = tiny_params(seed=30)
        if attn_u_l1 is not None:
            p.attn_w *= 20.0
            p.attn_u *= attn_u_l1 / np.sum(np.abs(p.attn_u))
        return p

    def compare(self, monkeypatch, p):
        """Checks the pass against the oracle; returns the attention scores l_j."""
        _, batch = random_batch(30, lengths=self.LENGTHS)
        trace, loss = model.forward(p, batch)
        scores = np.tanh(trace.hidden @ p.attn_w.T + p.attn_b) @ p.attn_u
        grads = model.backward(p, trace)
        with monkeypatch.context() as m:
            m.setattr(reference_impl, "padded_attention_forward", loop_attention_forward)
            m.setattr(reference_impl, "padded_attention_backward", loop_attention_backward)
            ref_trace, ref_loss = padded_forward(p, batch)
            ref_grads, ref_d_embed = padded_backward(p, ref_trace)

        valid = ref_trace.step_mask
        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", on_grid(trace, trace.pred)[valid], ref_trace.pred[valid]),
            ("d_embed", input_gradient(p, trace, grads.gate_grads), ref_d_embed),
        ]
        pairs += [(name, grads.params[name], ref_grads[name]) for name in model.PARAM_NAMES]
        for name, got, want in pairs:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, name
        return scores

    @pytest.mark.parametrize("large_logits", [False, True])
    def test_matches_loop_oracle(self, monkeypatch, large_logits):
        p = tiny_params(seed=30)
        if large_logits:
            # ||attn_u||_1 ~ 205, inside the documented < 350 range.
            p.attn_w *= 20.0
            p.attn_u *= 120.0
        seen = self.compare(monkeypatch, p)
        if large_logits:
            assert seen.max() >= 100.0 and seen.min() <= -100.0

    def test_matches_loop_oracle_beyond_documented_range(self, monkeypatch):
        # Some a_j are subnormal here, but no window's D_k underflows to 0.
        self.compare(monkeypatch, self.params(attn_u_l1=512.6))

    def test_underflowing_window_gives_non_finite_loss(self):
        # Every exponential of 9 causal windows past step 0 underflows, so
        # their D_k is 0; the aggregate must not silently become 0.
        _, batch = random_batch(30, lengths=self.LENGTHS)
        p = self.params(attn_u_l1=683.5)
        with np.errstate(all="ignore"):
            trace, loss = model.forward(p, batch)
        empty = (trace.attn_norm == 0.0) & (trace.cells >= batch.size)  # windows past step 0
        assert np.count_nonzero(empty) == 9
        assert np.all(np.isnan(trace.agg_hidden[empty]))
        assert not math.isfinite(loss)

    def test_underflowing_window_stops_training(self):
        seqs, _ = random_batch(30, lengths=self.LENGTHS)
        data = Dataset(sequences=tuple(seqs), num_skills=4)
        idx = tuple(range(len(seqs)))
        split = FoldSplit(train=idx, val=idx, test=idx)
        cfg = tiny_config(batch_size=len(seqs), max_epochs=1)
        with pytest.raises(training.DivergenceError):
            training.train(cfg, data, split, initial_params=self.params(attn_u_l1=683.5))


class TestGatheredHead:
    """The one-row-per-target head against the full-skill-head oracle."""

    CASES = {
        # Lengths that mix 2 with long rows, over few skills, so targets repeat.
        "mixed_lengths": (31, (60, 2, 37, 2, 9, 2, 14)),
        # Every row attempts skill 2 at every step.
        "same_target": (32, (12, 12, 7, 2)),
    }
    ATTENTION = {"causal": True, "off": False}

    def params(self, seed):
        p = tiny_params(seed=seed)
        p.head_b[:] = Rng(seed).split("head_b").uniform(-1.0, 1.0, size=p.num_skills)
        return p

    def batch(self, case):
        seed, lengths = self.CASES[case]
        seqs, batch = random_batch(seed, lengths=lengths)
        if case == "same_target":
            for s in seqs:
                s.skills[:] = 2
            batch = make_batches(seqs, 4, batch_size=len(seqs), rng=None)[0]
        return batch

    @pytest.mark.parametrize("attention", ATTENTION)
    @pytest.mark.parametrize("case", CASES)
    def test_matches_full_head_oracle(self, case, attention):
        batch = self.batch(case)
        p = self.params(31)
        enabled = self.ATTENTION[attention]
        trace, loss = model.forward(p, batch, enabled)
        grads = model.backward(p, trace)
        ref_trace, ref_loss, _ = full_head_forward(p, batch, enabled)
        ref_grads = model.backward(p, ref_trace)

        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", trace.pred, ref_trace.pred),
            ("d_embed", input_gradient(p, trace, grads.gate_grads),
             input_gradient(p, ref_trace, ref_grads.gate_grads)),
        ]
        pairs += [(name, grads.params[name], ref_grads.params[name]) for name in model.PARAM_NAMES]
        for name, got, want in pairs:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("attention", ATTENTION)
    @pytest.mark.parametrize("case", CASES)
    def test_skill_probs_equal_full_head(self, case, attention):
        batch = self.batch(case)
        p = self.params(32)
        enabled = self.ATTENTION[attention]
        trace, _ = model.forward(p, batch, enabled)
        _, _, ref_probs = full_head_forward(p, batch, enabled)
        probs = model.skill_probs(p, trace)
        assert probs.shape == (len(trace.cells), p.num_skills)
        valid = valid_cells(trace)
        np.testing.assert_array_equal(on_grid(trace, probs)[valid], ref_probs[valid])

    def test_trace_holds_no_per_skill_array(self):
        _, batch = random_batch(33, num_skills=11)
        trace, _ = model.forward(tiny_params(num_skills=11), batch)
        for f in dataclasses.fields(trace):
            value = getattr(trace, f.name)
            if isinstance(value, np.ndarray):
                assert 11 not in value.shape, f.name


def poison_padding(batch, skill=10**6, response=1):
    """The batch with every padded cell set to a sentinel skill and response."""
    padded = np.arange(batch.max_len)[None, :] >= batch.seq_lens[:, None]
    skills = batch.skills.copy()
    responses = batch.responses.copy()
    skills[padded] = skill
    responses[padded] = response
    return dataclasses.replace(batch, skills=skills, responses=responses)


class TestStepwiseBackward:
    """The hoisted backward pass against the per-step oracle it replaced."""

    ATTENTION = {"causal": True, "off": False}

    @pytest.mark.parametrize("row_block", [None, 5])
    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("attention", ATTENTION)
    def test_matches_stepwise_oracle(self, monkeypatch, attention, embeddings, row_block):
        if row_block:  # segments and d_embed's GEMM then span several blocks
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        # Few skills, so (response, skill) buckets and head rows repeat.
        _, batch = random_batch(40, lengths=(23, 2, 9, 2, 15, 4, 17))
        batch = poison_padding(batch)
        p = tiny_params(seed=40)
        enabled = self.ATTENTION[attention]
        shift, dense = shifted_inputs(p, batch, embeddings, seed=40)
        trace, _ = model.forward(p, batch, enabled, embeddings=shift)
        grads = model.backward(p, trace)
        padded_trace, _ = padded_forward(p, batch, enabled, embeddings=dense)
        want, want_d_embed = stepwise_backward(p, padded_trace)
        pairs = [(name, grads.params[name], want[name]) for name in model.PARAM_NAMES]
        pairs.append(("d_embed", input_gradient(p, trace, grads.gate_grads), want_d_embed))
        for name, got, ref in pairs:
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_backward_holds_no_input_gradient(self):
        _, batch = random_batch(41)
        p = tiny_params(seed=41)
        trace, _ = model.forward(p, batch)
        grads = model.backward(p, trace)
        shape = (batch.max_len - 1, batch.size, p.input_dim)
        assert shape not in [a.shape for a in [grads.gate_grads, *grads.params.values()]]

    @pytest.mark.parametrize("scope", ["per_sequence", "global"])
    def test_train_batch_never_reads_dense_r(self, monkeypatch, scope):
        # FGSM's r reaches the adversarial pass in the gates' space; only
        # inspection lays it onto the [n, B, d_in] grid.
        _, batch = random_batch(42)
        p = tiny_params(seed=42)
        cfg = tiny_config(beta=0.5, epsilon=1.0, fgsm_scope=scope)
        reads = []
        monkeypatch.setattr(adversarial.Perturbation, "r", property(lambda pert: reads.append(pert)))
        _, objective, _ = training.train_batch(p, batch, cfg, True)
        assert np.isfinite(objective) and reads == []


class TestPacking:
    """The packed forward and backward against the padded oracle they replaced."""

    ATTENTION = {"causal": True, "off": False}
    LENGTHS = {
        "all_equal": (9, 9, 9, 9),
        # After step 0 only the long row is alive.
        "one_long": (31,) + (2,) * 11,
        "single_row": (17,),
        # Unsorted, with ties, so packed order is not batch order.
        "mixed": (23, 2, 9, 2, 15, 4, 17, 9),
        # Skill t * B + b at step t of row b: every cell is its own
        # (response, skill) pair.
        "distinct_pairs": (9, 4, 7, 2),
        # Skill 1 answered correctly everywhere: one pair for every cell.
        "one_pair": (9, 4, 7, 2),
        # B = 1 with a single cell, so one pair.
        "single_cell": (2,),
    }

    def batch(self, lengths):
        seqs, batch = random_batch(50, lengths=self.LENGTHS[lengths])
        num_skills = batch.num_skills
        if lengths == "distinct_pairs":
            num_skills = len(seqs) * batch.max_len  # more skills than cells
            for b, seq in enumerate(seqs):
                seq.skills[:] = np.arange(len(seq)) * len(seqs) + b
        elif lengths == "one_pair":
            for seq in seqs:
                seq.skills[:] = 1
                seq.responses[:] = 1
        batch = make_batches(seqs, num_skills, batch_size=len(seqs), rng=None)[0]
        return poison_padding(batch)

    @pytest.mark.parametrize("row_block", [None, 5])
    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("attention", ATTENTION)
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_matches_padded_oracle(self, monkeypatch, lengths, attention, embeddings, row_block):
        if row_block:  # the projection and the weight GEMMs then span several blocks
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        batch = self.batch(lengths)
        p = tiny_params(seed=50, num_skills=batch.num_skills)
        enabled = self.ATTENTION[attention]
        shift, dense = shifted_inputs(p, batch, embeddings, seed=50)
        trace, loss = model.forward(p, batch, enabled, embeddings=shift)
        grads = model.backward(p, trace)
        ref_trace, ref_loss = padded_forward(p, batch, enabled, embeddings=dense)
        ref_grads, ref_d_embed = padded_backward(p, ref_trace)

        valid = ref_trace.step_mask
        np.testing.assert_array_equal(valid_cells(trace), valid)
        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", on_grid(trace, trace.pred)[valid], ref_trace.pred[valid]),
            ("hidden", on_grid(trace, trace.hidden)[valid], ref_trace.hidden[valid]),
            ("d_embed", input_gradient(p, trace, grads.gate_grads), ref_d_embed),
        ]
        pairs += [(name, grads.params[name], ref_grads[name]) for name in model.PARAM_NAMES]
        for name, got, want in pairs:
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_trace_keeps_only_valid_cells(self):
        _, batch = random_batch(51, lengths=(7, 2, 4))
        p = tiny_params(seed=51)
        trace, _ = model.forward(p, batch)
        assert trace.shift is None  # the lookup is projected per pair, never per cell
        n_valid = int(np.sum(batch.seq_lens - 1))
        assert trace.gates.shape == (n_valid, 4 * p.hidden_dim)
        assert trace.cell.shape == (n_valid, p.hidden_dim)
        for f in dataclasses.fields(trace):  # no array is laid out on the [n, B] grid
            value = getattr(trace, f.name)
            if isinstance(value, np.ndarray) and f.name != "starts":
                assert len(value) == n_valid, f.name
        # Step by step, longest row first: rows 0, 2, 1 at step 0, then 0 and 2.
        np.testing.assert_array_equal(trace.cells, [0, 2, 1, 3, 5, 6, 8, 9, 12, 15])
        np.testing.assert_array_equal(trace.starts, [0, 3, 5, 7, 8, 9, 10])


class TestFewerCallsPerStep:
    """The one-call prefix walks and the twelve-call step against the walks they replaced."""

    LENGTHS = {
        "all_500": (500,) * 4,
        # Length-2 rows end after step 0; the others end at scattered steps.
        "ragged": (2, 500, 37, 2, 211, 9, 2, 118, 3, 64),
        "single_row": (500,),
    }

    @staticmethod
    def outputs(p, batch, attention, embeddings):
        shift, _ = shifted_inputs(p, batch, embeddings, seed=60)
        trace, loss = model.forward(p, batch, attention, embeddings=shift)
        out = {"loss": np.array(loss), "pred": trace.pred, "agg_hidden": trace.agg_hidden,
               "attn_norm": trace.attn_norm}
        grads = model.backward(p, trace)  # gives up the trace's aggregate
        out["gate_grads"] = grads.gate_grads
        out.update(grads.params)
        return out

    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("attention", [True, False], ids=["causal", "off"])
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_bit_identical_to_old_walks(self, monkeypatch, lengths, attention, embeddings):
        _, batch = random_batch(60, lengths=self.LENGTHS[lengths])
        p = tiny_params(seed=60, hidden_dim=8, attn_dim=5)
        got = self.outputs(p, batch, attention, embeddings)
        monkeypatch.setattr(model, "_prefix_sums", reference_impl.running_prefix_sums)
        monkeypatch.setattr(model, "_recurrence", reference_impl.thirteen_call_recurrence)
        want = self.outputs(p, batch, attention, embeddings)
        assert (want["attn_norm"] is None) == (not attention)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_prefix_sums_match_running_walk(self, monkeypatch, reverse):
        # Rows of lengths 9, 8, ..., 2: one row ends at every step. Every
        # fourth value is -0.0, among them first terms of sums, which a
        # running sum from zero turns into +0.0.
        _, starts = model.pack_cells(np.arange(9, 1, -1))
        x = Rng(61).split("x").normal(size=(starts[-1], 3))
        x[::4] = -0.0
        for row_block in (2048, 3):  # 3: the sums move a step in blocks of rows
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
            for values in (x.copy(), np.ascontiguousarray(x[:, 0])):
                want = reference_impl.running_prefix_sums(values, starts, reverse)
                got = model._prefix_sums(values, starts, reverse)
                assert got is values  # the sums are written over x
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestAttentionInOneBuffer:
    """Attention with one [N, H] buffer per direction and its projection
    recomputed a row block at a time, and the head a block of targets at a
    time, against the code they replaced."""

    # Attention's weight gradients are sums over all rows, which the
    # recomputed projection adds up a row block at a time.
    BLOCK_SUMMED = ("attn_u", "attn_w", "attn_b")

    def compare(self, monkeypatch, lengths, attention, embeddings, row_block, oracles):
        # Blocks of 3 and 7 rows cross step boundaries; N = 1996 (all_500)
        # and 499 (single_row) leave one row over, which joins the block before.
        if row_block:
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        _, batch = random_batch(60, lengths=TestFewerCallsPerStep.LENGTHS[lengths])
        p = tiny_params(seed=60, hidden_dim=8, attn_dim=5)
        p.attn_b[:] = Rng(60).split("attn_b").uniform(-1.0, 1.0, size=p.attn_dim)  # init leaves it 0
        got = TestFewerCallsPerStep.outputs(p, batch, attention, embeddings)
        for name, oracle in oracles.items():
            monkeypatch.setattr(model, name, oracle)
        want = TestFewerCallsPerStep.outputs(p, batch, attention, embeddings)
        assert got.keys() == want.keys()
        # Over one row block, every output is bit for bit the oracle's.
        one_block = len(model._row_blocks(len(want["pred"]))) == 1
        for name in want:
            if name in self.BLOCK_SUMMED and not one_block:
                scale = np.max(np.abs(want[name]))
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name
            else:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("row_block", [None, 3, 7])
    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("attention", [True, False], ids=["causal", "off"])
    @pytest.mark.parametrize("lengths", TestFewerCallsPerStep.LENGTHS)
    def test_bit_identical_to_whole_array_code(self, monkeypatch, lengths, attention, embeddings, row_block):
        self.compare(monkeypatch, lengths, attention, embeddings, row_block, {
            "_attention_forward": reference_impl.whole_array_attention_forward,
            "_attention_backward": reference_impl.whole_array_attention_backward,
            "_head_logit": reference_impl.whole_array_head_logit,
        })

    @pytest.mark.parametrize("row_block", [None, 3, 7])
    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("lengths", TestFewerCallsPerStep.LENGTHS)
    def test_matches_stored_projection_code(self, monkeypatch, lengths, embeddings, row_block):
        stored = reference_impl.StoredProjectionAttention()
        self.compare(monkeypatch, lengths, True, embeddings, row_block, {
            "_attention_forward": stored.forward, "_attention_backward": stored.backward,
        })
        assert stored.projections == {}  # every projection kept was read back

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8])
    def test_row_blocks_leave_no_lone_row(self, monkeypatch, n):
        monkeypatch.setattr(model, "_ROW_BLOCK", 3)
        blocks = model._row_blocks(n)
        assert [i for block in blocks for i in range(n)[block]] == list(range(n))
        assert all(block.stop - block.start > 1 for block in blocks) or n == 1


class TestSegmentSum:
    """The block sums that are added on against the carried segment sum they replaced."""

    @staticmethod
    def keys(case, r):
        if case == "single_key":
            return np.full(3 * r + 1, 5)  # three blocks, the last with one row more
        # Sorted, key 3 starts one row into block 0 and spans three blocks, and
        # keys 4 and 8 cross block boundaries; 4r + 1 rows leave one row over,
        # which joins the last block.
        counts = {1: 1, 3: 2 * r + 1, 4: r + 1, 8: r - 2}
        keys = np.repeat(list(counts), list(counts.values()))
        return Rng(70).split("order").permutation(keys)

    # (value columns, or None for a vector; whether the rows are weighted).
    # The head sums its weighted halves and its vector dlogit.
    VALUES = {"matrix": (3, False), "weighted": (3, True), "vector": (None, False)}

    @pytest.mark.parametrize("values", VALUES)
    @pytest.mark.parametrize("row_block", [3, 7, 2048])
    @pytest.mark.parametrize("case", ["mixed", "single_key"])
    def test_matches_carried_segment_sum(self, monkeypatch, case, row_block, values):
        monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        keys = self.keys(case, row_block)
        assert len(keys) % row_block == 1
        columns, weighted = self.VALUES[values]
        x = Rng(70).split("values").normal(size=(len(keys),) + ((columns,) if columns else ()))
        weights = Rng(70).split("weights").normal(size=len(keys)) if weighted else None
        got_keys, got = model._segment_sum(keys, x, weights)
        weighted_x = x if weights is None else weights[:, None] * x
        want_keys, want = reference_impl.carried_segment_sum(keys, weighted_x)
        assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got, want)


class TestGateGradientsOverActivations:
    """The backward pass that writes dz over the gate activations against the
    separate-buffer backward it replaced."""

    LENGTHS = {"ragged": (23, 2, 9, 2, 15, 4, 17), "equal": (9,) * 4, "single_row": (17,)}

    @pytest.mark.parametrize("row_block", [None, 5])
    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("attention", [True, False], ids=["causal", "off"])
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_bit_identical_to_separate_buffer(self, monkeypatch, lengths, attention, embeddings, row_block):
        if row_block:  # the head's segment sums then span several blocks
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        _, batch = random_batch(80, lengths=self.LENGTHS[lengths])
        p = tiny_params(seed=80, hidden_dim=5, attn_dim=4)

        def trace():  # a trace serves one backward pass, so each gets its own
            shift, _ = shifted_inputs(p, batch, embeddings, seed=80)
            return model.forward(p, batch, attention, embeddings=shift)[0]

        got = model.backward(p, trace())
        want, want_dz = reference_impl.separate_buffer_backward(p, trace())
        np.testing.assert_array_equal(got.gate_grads, want_dz)
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(got.params[name], want[name], err_msg=name)

    def test_a_trace_serves_one_backward_pass(self):
        _, batch = random_batch(81)
        p = tiny_params(seed=81)
        for attention in (True, False):
            trace, _ = model.forward(p, batch, attention)
            gates = trace.gates
            grads = model.backward(p, trace)
            assert grads.gate_grads is gates and trace.gates is None
            assert trace.agg_hidden is None
            with pytest.raises(ValueError, match="already been used by a backward pass"):
                model.backward(p, trace)
            with pytest.raises(ValueError, match="backward gives up its aggregate"):
                model.skill_probs(p, trace)


def shifted_inputs(params, batch, embeddings, seed):
    """(input shift or None, dense inputs or None) for the ``embeddings`` case of a test.

    "shifted" perturbs every valid cell along a random gate-space direction:
    the production pass reads the shift, the padded oracles e + r.
    """
    if embeddings == "clean":
        return None, None
    cells = int(np.sum(batch.seq_lens - 1))
    direction = Rng(seed).split("direction").normal(size=(cells, 4 * params.hidden_dim))
    shift, r = shift_for_direction(params, batch, direction)
    return shift, build_embeddings(params, batch) + r


class TestMemory:
    """tracemalloc peaks with the reference dimensions; each bound is the
    measured peak plus 10%.

    Of one pass at 24 x 200: the forward peaks at 22.55 MB. Projecting each
    (response, skill) pair once builds no [n, B, d_in] embedding, which took
    the peak from 48.0 to 35.82 MB; applying the head row's halves one at a
    time, with no [N, 2H] composite, to 27.11 MB; building attention's
    aggregate in one buffer and gathering the head rows a block at a time,
    to 25.49 MB; keeping no [N, attn_dim] projection in the trace, to
    22.55 MB.
    The backward peaks 5.47 MB above its trace: keeping the gate gradients
    and building the input gradient only for FGSM took it from 39.2 MB to
    19.41 MB; writing the gate gradients over the activations, with the head
    gradients summed straight from the trace, to 12.46 MB; attention's
    backward in one [N, H] buffer, which becomes dh, to 6.63 MB; the
    segment sums gathering into one block buffer, to 4.22 MB. Recomputing
    attention's projection a row block at a time then adds one block buffer:
    5.47 MB above a trace 2.9 MB smaller.

    Of one adversarial training step at 24 x 500, the shapes of the
    train-adv-long benchmark: 88.07 MB. Taking FGSM and the adversarial pass
    from the gate gradients, with no [n, B, d_in] array, brought the peak
    from 131.26 to 128.33 MB; one [N, 4H] buffer carrying the clean gates,
    then dz, then FGSM's direction, to 113.65 MB; attention with one [N, H]
    buffer per direction, to 94.30 MB; attention's projection recomputed a
    row block at a time in the backward, not kept in the trace, to 88.07 MB.
    """

    FORWARD_PEAK_MB = 24.8
    BACKWARD_PEAK_MB = 6.0
    ADVERSARIAL_STEP_PEAK_MB = 96.9

    @staticmethod
    def adversarial_step():
        ds = generate_synthetic(24, 110, 500, learn_rate=0.1, guess=0.25, slip=0.1, seed=18)
        batch = make_batches(list(ds.sequences), ds.num_skills, batch_size=24, rng=None)[0]
        p = init_params(ds.num_skills, 256, 96, 80, 80, Rng(18).split("init"))
        return p, batch, TrainConfig(beta=0.2, epsilon=10.0)

    def test_forward_and_backward_peaks(self):
        ds = generate_synthetic(24, 110, 200, learn_rate=0.3, guess=0.25, slip=0.1, seed=17)
        batch = make_batches(list(ds.sequences), ds.num_skills, batch_size=24, rng=None)[0]
        p = init_params(ds.num_skills, 256, 96, 80, 80, Rng(17).split("init"))
        tracemalloc.start()
        try:
            trace, _ = model.forward(p, batch)
            forward_peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.backward(p, trace)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert forward_peak <= self.FORWARD_PEAK_MB * 2**20, forward_peak / 2**20
        assert backward_peak <= self.BACKWARD_PEAK_MB * 2**20, backward_peak / 2**20

    def test_adversarial_step_peak(self):
        p, batch, cfg = self.adversarial_step()
        tracemalloc.start()
        try:
            training.train_batch(p, batch, cfg, run_adversarial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.ADVERSARIAL_STEP_PEAK_MB * 2**20, peak / 2**20

    def test_attention_holds_one_hidden_sized_array_per_direction(self):
        # Both passes of the step. The forward allocates its outputs and
        # besides them at most one row block and a few [N] index vectors:
        # no [N, H] array of a_j h_j or of the numerators beside the
        # aggregate. The backward gives up the aggregate before it builds
        # dh, and holds no [N, H] array beside dh: at its peak it is no more
        # than dh above its start.
        p, batch, cfg = self.adversarial_step()
        with MemoryProbe(model, ["_attention_forward", "_attention_backward"]) as probe:
            training.train_batch(p, batch, cfg, run_adversarial=True)
        block = model._ROW_BLOCK * p.hidden_dim * 8
        n_valid = int(np.sum(batch.seq_lens - 1))
        vectors = 8 * n_valid * 8
        assert n_valid * p.hidden_dim * 8 > 2 * block + vectors  # an [N, H] array outweighs them
        assert [c.name for c in probe.calls] == ["_attention_forward", "_attention_backward"] * 2
        for call in probe.calls:
            above = call.peak - call.start
            if call.name == "_attention_forward":
                assert above <= call.returned + block + vectors, (above, call.returned)
            else:
                assert call.returned == n_valid * p.hidden_dim * 8  # dh
                assert above <= call.returned, (above, call.returned)


    def test_segment_sum_holds_one_block(self):
        # Every segment sum of the step gathers its rows into one block
        # buffer: at its peak it is at most that block, its returned keys and
        # sums, and a few [N] index vectors above its start. The widest rows
        # it sums are dz's 4H.
        p, batch, cfg = self.adversarial_step()
        with MemoryProbe(model, ["_segment_sum"]) as probe:
            training.train_batch(p, batch, cfg, run_adversarial=True)
        block = (model._ROW_BLOCK + 1) * 4 * p.hidden_dim * 8
        n_valid = int(np.sum(batch.seq_lens - 1))
        vectors = 8 * n_valid * 8
        assert n_valid > 2 * model._ROW_BLOCK and block > vectors  # several blocks; a block outweighs them
        assert len(probe.calls) == 8  # the head's three and dz's per (response, skill), per pass
        for call in probe.calls:
            assert call.peak - call.start <= call.returned + block + vectors, (call.peak - call.start, call.returned)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        p = tiny_params(seed=20)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, p, {"seed": 20, "beta": 0.5}, timestamp=False)
        loaded, config = load_checkpoint(path)
        assert config == {"seed": 20, "beta": 0.5}
        for (name, a), (_, b) in zip(p.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a, b), name

    def test_checksum_detects_tampering(self, tmp_path):
        p = tiny_params()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, p, {}, timestamp=False)
        doc = json.loads(path.read_text())
        payload = doc["arrays"]["head_b"]["data"]
        doc["arrays"]["head_b"]["data"] = ("A" if payload[0] != "A" else "B") + payload[1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_timestamp_flag_controls_created_field(self, tmp_path):
        p = tiny_params()
        save_checkpoint(tmp_path / "a.json", p, {}, timestamp=False)
        save_checkpoint(tmp_path / "b.json", p, {}, timestamp=True)
        assert "created" not in json.loads((tmp_path / "a.json").read_text())
        assert "created" in json.loads((tmp_path / "b.json").read_text())


class TestInit:
    def test_forget_gate_bias_is_one(self):
        p = tiny_params()
        h = p.hidden_dim
        np.testing.assert_array_equal(p.lstm_b[h : 2 * h], np.ones(h))
        np.testing.assert_array_equal(p.lstm_b[:h], np.zeros(h))

    def test_shapes_at_reference_dims(self):
        p = init_params(110, 256, 96, 80, 80, Rng(0).split("init"))
        assert p.skill_emb.shape == (110, 256)
        assert p.resp_emb.shape == (2, 96)
        assert p.lstm_w.shape == (320, 352)
        assert p.lstm_u.shape == (320, 80)
        assert p.head_w.shape == (110, 160)
        assert isinstance(p, ModelParams)

    def test_same_seed_same_init(self):
        a = tiny_params(seed=1)
        b = tiny_params(seed=1)
        for (_, x), (_, y) in zip(a.named_arrays(), b.named_arrays()):
            np.testing.assert_array_equal(x, y)
