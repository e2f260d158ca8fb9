import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from atkt import model, training
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
from reference_impl import (
    attend_history,
    compose,
    embed_interaction,
    full_head_forward,
    loop_attention_backward,
    loop_attention_forward,
    lstm_step,
    on_grid,
    padded_backward,
    padded_forward,
    plain_lstm_forward,
    predict_step,
    sequence_forward,
    stepwise_backward,
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

    def test_sequence_window_mode_prefix_weights(self):
        # Global normalization: each window reuses the whole-sequence
        # weights without renormalizing, so aggregates are prefix sums.
        seqs, batch = random_batch(5, lengths=(5,))
        p = tiny_params(seed=8)
        trace, _ = model.forward(p, batch, attention_window="sequence")
        norm = on_grid(trace, trace.attn_norm)[:, 0]
        assert np.all(norm == norm[0])  # one normaliser for every window
        w = on_grid(trace, trace.attn_exp)[:, 0] / norm[0]
        hidden, agg = on_grid(trace, trace.hidden), on_grid(trace, trace.agg_hidden)
        support = len(seqs[0]) - 2  # states any window can use
        assert w[support:] == pytest.approx(0.0, abs=0)
        assert w[:support].sum() == pytest.approx(1.0, abs=1e-12)
        for k in range(1, len(seqs[0]) - 1):
            want = sum(w[j] * hidden[j, 0] for j in range(k))
            np.testing.assert_allclose(agg[k, 0], want, atol=1e-12)

    def test_rejects_wrong_override_shape(self):
        _, batch = random_batch(6)
        with pytest.raises(ShapeError):
            model.forward(tiny_params(), batch, embeddings=np.zeros((1, 1, 5)))

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
        np.testing.assert_array_equal(g1.d_embed, g2.d_embed)


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
        np.testing.assert_array_equal(grads.d_embed, grads2.d_embed)

    def test_gradients_vanish_on_padded_steps(self):
        _, batch = random_batch(11, lengths=(6, 2))
        p = tiny_params(seed=12)
        trace, _ = model.forward(p, batch)
        grads = model.backward(p, trace)
        padded = ~valid_cells(trace)
        assert np.all(grads.d_embed[padded] == 0.0)


class TestCausality:
    def test_influence_is_strictly_upper_triangular(self):
        seqs, batch = random_batch(13, lengths=(7,))
        p = tiny_params(seed=13)
        base = model.build_embeddings(p, batch)
        trace, _ = model.forward(p, batch, embeddings=base)
        pred = on_grid(trace, trace.pred)[:, 0]
        for t0 in range(base.shape[0]):
            bumped = base.copy()
            bumped[t0, 0, :] += 0.05
            trace2, _ = model.forward(p, batch, embeddings=bumped)
            pred2 = on_grid(trace2, trace2.pred)[:, 0]
            np.testing.assert_array_equal(pred2[:t0], pred[:t0])
            later = np.abs(pred2[t0:] - pred[t0:])
            assert later.max() > 0


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

    def test_sequence_window_mode_passes(self):
        report = grad_check(tiny_config(attention_window="sequence"), seed=3)
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

    def compare(self, monkeypatch, p, window):
        _, batch = random_batch(30, lengths=self.LENGTHS)
        trace, loss = model.forward(p, batch, attention_window=window)
        grads = model.backward(p, trace)
        with monkeypatch.context() as m:
            m.setattr(reference_impl, "padded_attention_forward", loop_attention_forward)
            m.setattr(reference_impl, "padded_attention_backward", loop_attention_backward)
            ref_trace, ref_loss = padded_forward(p, batch, attention_window=window)
            ref_grads, ref_d_embed = padded_backward(p, ref_trace)

        valid = ref_trace.step_mask
        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", on_grid(trace, trace.pred)[valid], ref_trace.pred[valid]),
            ("d_embed", grads.d_embed, ref_d_embed),
        ]
        pairs += [(name, grads.params[name], ref_grads[name]) for name in model.PARAM_NAMES]
        for name, got, want in pairs:
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, name
        return trace

    @pytest.mark.parametrize("window", model.ATTENTION_WINDOWS)
    @pytest.mark.parametrize("large_logits", [False, True])
    def test_matches_loop_oracle(self, monkeypatch, window, large_logits):
        p = tiny_params(seed=30)
        if large_logits:
            # ||attn_u||_1 ~ 205, inside the documented < 350 range.
            p.attn_w *= 20.0
            p.attn_u *= 120.0
        trace = self.compare(monkeypatch, p, window)
        if large_logits:
            seen = trace.attn_hidden @ p.attn_u
            assert seen.max() >= 100.0 and seen.min() <= -100.0

    @pytest.mark.parametrize("window", model.ATTENTION_WINDOWS)
    def test_matches_loop_oracle_beyond_documented_range(self, monkeypatch, window):
        # Some a_j are subnormal here, but no window's D_k underflows to 0.
        self.compare(monkeypatch, self.params(attn_u_l1=512.6), window)

    def test_underflowing_window_gives_non_finite_loss(self):
        # Every exponential of 9 causal windows past step 0 underflows, so
        # their D_k is 0; the aggregate must not silently become 0.
        _, batch = random_batch(30, lengths=self.LENGTHS)
        p = self.params(attn_u_l1=683.5)
        with np.errstate(all="ignore"):
            trace, loss = model.forward(p, batch, attention_window="causal")
        empty = (trace.attn_norm == 0.0) & (trace.cells >= batch.size)  # windows past step 0
        assert np.count_nonzero(empty) == 9
        assert np.all(np.isnan(trace.agg_hidden[empty]))
        assert not math.isfinite(loss)

    def test_underflowing_window_stops_training(self):
        seqs, _ = random_batch(30, lengths=self.LENGTHS)
        data = Dataset(sequences=tuple(seqs), num_skills=4)
        idx = tuple(range(len(seqs)))
        split = FoldSplit(fold_index=0, train=idx, val=idx, test=idx)
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
    ATTENTION = {"causal": (True, "causal"), "sequence": (True, "sequence"), "off": (False, "causal")}

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
        enabled, window = self.ATTENTION[attention]
        trace, loss = model.forward(p, batch, enabled, window)
        grads = model.backward(p, trace)
        ref_trace, ref_loss, _ = full_head_forward(p, batch, enabled, window)
        ref_grads = model.backward(p, ref_trace)

        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", trace.pred, ref_trace.pred),
            ("d_embed", grads.d_embed, ref_grads.d_embed),
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
        enabled, window = self.ATTENTION[attention]
        trace, _ = model.forward(p, batch, enabled, window)
        _, _, ref_probs = full_head_forward(p, batch, enabled, window)
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

    ATTENTION = {"causal": (True, "causal"), "sequence": (True, "sequence"), "off": (False, "causal")}

    @pytest.mark.parametrize("row_block", [None, 5])
    @pytest.mark.parametrize("embeddings", ["clean", "overridden"])
    @pytest.mark.parametrize("attention", ATTENTION)
    def test_matches_stepwise_oracle(self, monkeypatch, attention, embeddings, row_block):
        if row_block:  # segments and d_embed's GEMM then span several blocks
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        # Few skills, so (response, skill) buckets and head rows repeat.
        _, batch = random_batch(40, lengths=(23, 2, 9, 2, 15, 4, 17))
        batch = poison_padding(batch)
        p = tiny_params(seed=40)
        enabled, window = self.ATTENTION[attention]
        override = None
        if embeddings == "overridden":
            shape = (batch.max_len - 1, batch.size, p.input_dim)
            override = Rng(40).split("override").normal(size=shape)  # padded rows too
        trace, _ = model.forward(p, batch, enabled, window, embeddings=override)
        grads = model.backward(p, trace)
        padded_trace, _ = padded_forward(p, batch, enabled, window, embeddings=override)
        want, want_d_embed = stepwise_backward(p, padded_trace)
        pairs = [(name, grads.params[name], want[name]) for name in model.PARAM_NAMES]
        pairs.append(("d_embed", grads.d_embed, want_d_embed))
        for name, got, ref in pairs:
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_d_embed_is_built_only_when_read(self):
        _, batch = random_batch(41)
        p = tiny_params(seed=41)
        trace, _ = model.forward(p, batch)
        grads = model.backward(p, trace)
        shape = embedding_shape(p, trace)
        assert not holds_array_of_shape(grads, shape)
        d_embed = grads.d_embed
        assert d_embed.shape == shape
        assert grads.d_embed is d_embed  # built once

    @pytest.mark.parametrize("run_adversarial", [False, True])
    def test_train_batch_builds_d_embed_only_for_fgsm(self, monkeypatch, run_adversarial):
        _, batch = random_batch(42)
        p = tiny_params(seed=42)
        cfg = tiny_config(beta=0.5 if run_adversarial else 0.0, epsilon=1.0)
        made = []

        def recording_backward(params, trace):
            made.append((model_backward(params, trace), embedding_shape(params, trace)))
            return made[-1][0]

        model_backward = model.backward
        monkeypatch.setattr(model, "backward", recording_backward)
        training.train_batch(p, batch, cfg, run_adversarial)
        built = [holds_array_of_shape(grads, shape) for grads, shape in made]
        # FGSM reads the clean pass's embedding gradient; nothing else does.
        assert built == ([True, False] if run_adversarial else [False])


class TestPacking:
    """The packed forward and backward against the padded oracle they replaced."""

    ATTENTION = {"causal": (True, "causal"), "sequence": (True, "sequence"), "off": (False, "causal")}
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
    @pytest.mark.parametrize("embeddings", ["clean", "overridden"])
    @pytest.mark.parametrize("attention", ATTENTION)
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_matches_padded_oracle(self, monkeypatch, lengths, attention, embeddings, row_block):
        if row_block:  # the projection and the weight GEMMs then span several blocks
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
        batch = self.batch(lengths)
        p = tiny_params(seed=50, num_skills=batch.num_skills)
        enabled, window = self.ATTENTION[attention]
        override = None
        if embeddings == "overridden":
            shape = (batch.max_len - 1, batch.size, p.input_dim)
            override = Rng(50).split("override").normal(size=shape)  # padded rows too
        trace, loss = model.forward(p, batch, enabled, window, embeddings=override)
        grads = model.backward(p, trace)
        ref_trace, ref_loss = padded_forward(p, batch, enabled, window, embeddings=override)
        ref_grads, ref_d_embed = padded_backward(p, ref_trace)

        valid = ref_trace.step_mask
        np.testing.assert_array_equal(valid_cells(trace), valid)
        pairs = [
            ("loss", np.array(loss), np.array(ref_loss)),
            ("pred", on_grid(trace, trace.pred)[valid], ref_trace.pred[valid]),
            ("hidden", on_grid(trace, trace.hidden)[valid], ref_trace.hidden[valid]),
            ("d_embed", grads.d_embed, ref_d_embed),
        ]
        pairs += [(name, grads.params[name], ref_grads[name]) for name in model.PARAM_NAMES]
        for name, got, want in pairs:
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        np.testing.assert_array_equal(grads.d_embed[~valid], 0.0)

    def test_trace_keeps_only_valid_cells(self):
        _, batch = random_batch(51, lengths=(7, 2, 4))
        p = tiny_params(seed=51)
        trace, _ = model.forward(p, batch)
        assert trace.embeddings is None  # the lookup is projected per pair, never per cell
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


def embedding_shape(params, trace):
    """[n, B, d_in]: the shape of the batch's input embeddings and of ``d_embed``."""
    return (trace.batch.max_len - 1, trace.batch.size, params.input_dim)


def holds_array_of_shape(obj, shape):
    return any(isinstance(v, np.ndarray) and v.shape == shape for v in vars(obj).values())


class TestMemory:
    """tracemalloc peaks of one pass at 24 x 200 with the reference dimensions.

    The backward bound is the figure of the per-step backward with its
    separate input-projection buffer (39.20 MB above the trace); keeping the
    gate gradients and building ``d_embed`` on demand brought it to 19.4 MB.
    The forward bound is its measured 35.2 MB plus 10%: projecting each
    (response, skill) pair once builds no [n, B, d_in] embedding, which took
    the peak from 48.0 MB and the trace it keeps from 36.3 to 23.5 MB.
    """

    FORWARD_PEAK_MB = 38.7
    BACKWARD_PEAK_MB = 39.20

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
