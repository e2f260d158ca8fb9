import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from atkt import adversarial, model, training
from atkt.data import (
    Dataset,
    FoldSplit,
    InteractionSequence,
    generate_synthetic,
    make_batches,
    make_folds,
)
from atkt.linalg import Rng
from atkt.training import (
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    collect_predictions,
    lr_at,
    sweep,
    train,
    train_batch,
)

from grad_oracle import compare_gradients, grad_check
from reference_impl import (
    masked_attention_forward,
    on_grid,
    reference_train_batch,
    shift_for_direction,
)
from reference_impl import adam_step as reference_adam_step


def tiny_dataset(num_students=20, num_skills=4, seq_len=8, seed=0):
    return generate_synthetic(
        num_students, num_skills, seq_len, learn_rate=0.3, guess=0.25, slip=0.1, seed=seed
    )


def tiny_config(**overrides):
    base = dict(
        skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, batch_size=6,
        max_epochs=4, patience=None, seed=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def params_bytes(params):
    return b"".join(arr.tobytes() for _, arr in params.named_arrays())


class TestConfig:
    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert (cfg.skill_dim, cfg.resp_dim, cfg.hidden_dim, cfg.attn_dim) == (256, 96, 80, 80)
        assert cfg.batch_size == 24
        assert cfg.lr == 0.001
        assert cfg.lr_decay == 0.5 and cfg.lr_decay_every == 50
        assert cfg.max_epochs == 150 and cfg.patience == 20
        assert cfg.max_seq_len == 500
        assert (training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_beta_requires_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            TrainConfig(beta=0.5)
        TrainConfig(beta=0.5, epsilon=1.0)

    def test_frozen_and_replace_checks_again(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1
        with pytest.raises(ValueError, match="seed"):
            dataclasses.replace(cfg, seed=-1)
        assert dataclasses.replace(cfg, seed=3).seed == 3 and cfg.seed == 0

    def test_round_trip_dict(self):
        cfg = tiny_config(beta=0.2, epsilon=2.0)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize(
        "key, value",
        [("seed", True), ("seed", 1.0), ("batch_size", "8"), ("lr", "0.1"), ("lr", float("inf")),
         ("beta", float("nan")), ("beta", None), ("epsilon", float("nan")), ("attention", 1),
         ("max_epochs", None), ("lr_decay", -1.0), ("epsilon", -1.0), ("lr", 0.0),
         ("seed", -1), ("beta", -0.5)],
    )
    def test_validate_rejects_bad_type_or_range(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_max_seq_len_message_names_the_value(self):
        with pytest.raises(ValueError, match=r"^max_seq_len must be >= 2, got 1$"):
            TrainConfig(max_seq_len=1)

    def test_int_is_a_valid_float(self):
        TrainConfig(lr=1, beta=1, epsilon=10)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": 0.1})


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = model.init_params(3, 4, 2, 3, 3, Rng(0).split("init"))
        before = params_bytes(p)
        grads = {name: np.zeros_like(arr) for name, arr in p.named_arrays()}
        adam_step(p, grads, AdamState.for_params(p), lr=0.001)
        assert params_bytes(p) == before

    def test_first_step_moves_by_lr(self):
        # With a unit gradient the bias-corrected first step is exactly
        # -lr / (1 + eps), i.e. -0.001 up to 1e-11.
        p = model.init_params(3, 4, 2, 3, 3, Rng(0).split("init"))
        theta0 = float(p.head_b[0])
        grads = {name: np.zeros_like(arr) for name, arr in p.named_arrays()}
        grads["head_b"][0] = 1.0
        adam_step(p, grads, AdamState.for_params(p), lr=0.001)
        assert p.head_b[0] == pytest.approx(theta0 - 0.001, abs=1e-10)

    def test_in_place_update_equals_allocating_oracle(self):
        # 1223 skills at the reference dimensions: head_w and skill_emb are the
        # wide tables. Gradient scales span several orders of magnitude.
        p = model.init_params(1223, 256, 96, 80, 80, Rng(3).split("init"))
        want = p.copy()
        state, ref_state = AdamState.for_params(p), AdamState.for_params(want)
        rng = Rng(3).split("grads")
        for step in range(5):
            grads = {name: rng.normal(size=arr.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, arr in p.named_arrays()}
            adam_step(p, grads, state, lr=0.001 * (step + 1))
            reference_adam_step(want, grads, ref_state, lr=0.001 * (step + 1), beta1=training.ADAM_BETA1,
                                beta2=training.ADAM_BETA2, eps=training.ADAM_EPS)
        assert state.step == ref_state.step == 5
        for name, arr in p.named_arrays():
            assert np.array_equal(arr, getattr(want, name)), name
            assert np.array_equal(state.m[name], ref_state.m[name]), name
            assert np.array_equal(state.v[name], ref_state.v[name]), name

    def test_moment_shapes_mirror_params(self):
        p = model.init_params(3, 4, 2, 3, 3, Rng(0).split("init"))
        state = AdamState.for_params(p)
        for name, arr in p.named_arrays():
            assert state.m[name].shape == arr.shape
            assert state.v[name].shape == arr.shape


class TestSchedule:
    def test_decay_steps(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 0.001
        assert lr_at(49, cfg) == 0.001
        assert lr_at(50, cfg) == 0.0005
        assert lr_at(149, cfg) == 0.00025


class TestEarlyStop:
    """``train`` against scripted validation losses (AUC held constant)."""

    def run(self, monkeypatch, val_losses, patience, max_epochs):
        losses = iter(val_losses)
        monkeypatch.setattr(training, "evaluate", lambda *args: (next(losses), 0.5, None))
        ds = tiny_dataset(seed=17)
        return train(tiny_config(max_epochs=max_epochs, patience=patience), ds, make_folds(ds, seed=17)[0])

    def test_fires_exactly_at_patience_exhaustion(self, monkeypatch):
        # 0.9 at epoch 2 ties the best, which is no improvement.
        record = self.run(monkeypatch, [1.0, 0.9, 0.9, 0.95, 0.96, 0.5, 0.4], patience=3, max_epochs=7).record
        assert len(record.epochs) == 5  # stopped at epoch 4 = best 1 + patience 3
        assert record.best_val_loss == 0.9

    def test_never_fires_when_improving(self, monkeypatch):
        record = self.run(monkeypatch, [1.0 / (i + 1) for i in range(8)], patience=1, max_epochs=8).record
        assert len(record.epochs) == 8
        assert record.best_val_loss == 1.0 / 8

    def test_disabled_patience(self, monkeypatch):
        record = self.run(monkeypatch, [float(i) for i in range(6)], patience=None, max_epochs=6).record
        assert len(record.epochs) == 6
        assert record.best_val_loss == 0.0


class TestTrain:
    def test_deterministic_given_seed(self):
        ds = tiny_dataset()
        split = make_folds(ds, seed=2)[0]
        cfg = tiny_config(max_epochs=3)
        a = train(cfg, ds, split)
        b = train(cfg, ds, split)
        assert params_bytes(a.params) == params_bytes(b.params)
        assert [e.val_loss for e in a.record.epochs] == [e.val_loss for e in b.record.epochs]
        assert [e.val_auc for e in a.record.epochs] == [e.val_auc for e in b.record.epochs]

    def test_beta_zero_equals_disabled_adversarial_path(self):
        ds = tiny_dataset(seed=4)
        split = make_folds(ds, seed=4)[0]
        cfg = tiny_config(max_epochs=3, beta=0.0, epsilon=5.0)
        forced = train(cfg, ds, split, run_adversarial=True)
        skipped = train(cfg, ds, split, run_adversarial=False)
        assert params_bytes(forced.params) == params_bytes(skipped.params)
        for ea, eb in zip(forced.record.epochs, skipped.record.epochs):
            assert abs(ea.train_loss - eb.train_loss) <= 1e-9
            assert abs(ea.val_loss - eb.val_loss) <= 1e-9
            assert abs(ea.val_auc - eb.val_auc) <= 1e-9

    def test_adversarial_training_changes_trajectory(self):
        ds = tiny_dataset(seed=5)
        split = make_folds(ds, seed=5)[0]
        clean = train(tiny_config(max_epochs=2), ds, split)
        at = train(tiny_config(max_epochs=2, beta=1.0, epsilon=2.0), ds, split)
        assert params_bytes(clean.params) != params_bytes(at.params)

    def test_loss_decreases_on_learnable_data(self):
        ds = tiny_dataset(num_students=30, seed=6)
        split = make_folds(ds, seed=6)[0]
        result = train(tiny_config(max_epochs=12, lr=0.01), ds, split)
        losses = [e.train_loss for e in result.record.epochs]
        assert losses[-1] < losses[0]

    def test_best_val_loss_bookkeeping_is_running_min(self):
        ds = tiny_dataset(seed=7)
        split = make_folds(ds, seed=7)[0]
        result = train(tiny_config(max_epochs=5), ds, split)
        vals = [e.val_loss for e in result.record.epochs]
        assert result.record.best_val_loss == min(vals)
        aucs = [e.val_auc for e in result.record.epochs]
        assert result.record.best_val_auc == max(aucs)
        assert result.record.best_epoch == int(np.argmax(aucs))

    def test_divergence_aborts_with_last_good_state(self):
        ds = tiny_dataset(seed=8)
        split = make_folds(ds, seed=8)[0]
        cfg = tiny_config(max_epochs=3)
        poisoned = model.init_params(
            ds.num_skills, cfg.skill_dim, cfg.resp_dim, cfg.hidden_dim, cfg.attn_dim,
            Rng(0).split("init"),
        )
        poisoned.head_b[0] = np.nan
        with pytest.raises(DivergenceError) as err:
            train(cfg, ds, split, initial_params=poisoned)
        assert err.value.epoch == 0

    def test_run_record_csv_layout(self):
        ds = tiny_dataset(seed=9)
        split = make_folds(ds, seed=9)[0]
        result = train(tiny_config(max_epochs=2), ds, split)
        buf = io.StringIO()
        result.record.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_auc,lr"
        assert len(lines) == 3

    def test_early_stopping_bounds_epochs(self):
        ds = tiny_dataset(num_students=25, seed=10)
        split = make_folds(ds, seed=10)[0]
        result = train(tiny_config(max_epochs=40, patience=2, lr=0.05), ds, split)
        ran = len(result.record.epochs)
        assert ran < 40
        vals = [e.val_loss for e in result.record.epochs]
        best = int(np.argmin(vals))
        assert ran - 1 == best + 2


class TestSweep:
    def test_grid_shape_and_beta_zero_column(self):
        ds = tiny_dataset(num_students=15, seed=11)
        folds = [make_folds(ds, seed=11)[0]]
        cfg = tiny_config(max_epochs=2)
        result = sweep(cfg, ds, folds, epsilons=(1.0, 5.0), betas=(0.0, 0.5))
        assert result.grid.shape == (2, 2)
        # epsilon is irrelevant without adversarial training
        assert result.grid[0, 0] == result.grid[1, 0]
        assert result.best in [(e, b) for e in result.epsilons for b in result.betas]

    def test_csv_layout(self):
        ds = tiny_dataset(num_students=15, seed=12)
        folds = [make_folds(ds, seed=12)[0]]
        result = sweep(tiny_config(max_epochs=1), ds, folds, epsilons=(1.0,), betas=(0.0, 2.0))
        buf = io.StringIO()
        result.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "epsilon,beta=0,beta=2"
        assert lines[1].startswith("1,")


class TestGradCheckHarness:
    def test_tiny_config_passes(self):
        cfg = TrainConfig(skill_dim=3, resp_dim=2, hidden_dim=3, attn_dim=3)
        report = grad_check(cfg, seed=0)
        assert report.passed
        assert report.max_rel_error <= 1e-4

    def test_report_names_offending_array_and_coordinate(self):
        analytic = {"lstm_u": np.array([1.0, 2.0]), "head_b": np.array([0.5])}
        numeric = {"lstm_u": np.array([1.0, -2.0]), "head_b": np.array([0.5])}
        rep = compare_gradients(analytic, numeric)
        assert not rep.passed
        assert [e.array for e in rep.failures()] == ["lstm_u"]
        assert rep.failures()[0].worst_coordinate == (1,)
        assert "FAIL" in rep.summary() and "lstm_u" in rep.summary()

    def test_tiny_values_below_floor_are_equal(self):
        analytic = {"b": np.array([1e-12])}
        numeric = {"b": np.array([-1e-12])}
        assert compare_gradients(analytic, numeric).passed


class TestCollectPredictions:
    def test_matches_per_target_loop(self):
        # Segments of length 9, 9, 2 per student: every batch mixes long and short rows.
        ds = tiny_dataset(num_students=9, seq_len=20, seed=4)
        seqs = training.prepare_split_sequences(ds, range(9), tiny_config(max_seq_len=9))
        params = model.init_params(ds.num_skills, 6, 3, 5, 5, Rng(2).split("init"))
        for batch in make_batches(seqs, ds.num_skills, 4, rng=None):
            trace, _ = model.forward(params, batch)
            log = collect_predictions(trace)
            pred = on_grid(trace, trace.pred)
            want = [
                (batch.student_ids[b], k + 1, int(batch.skills[b, k + 1]), float(pred[k, b]),
                 int(batch.responses[b, k + 1]))
                for b in range(batch.size)
                for k in range(int(batch.seq_lens[b]) - 1)
            ]
            got = zip(log.student_ids.tolist(), log.steps.tolist(), log.skills.tolist(),
                      log.probs.tolist(), log.labels.tolist())
            assert list(got) == want


class TestCheckpointRoundTrip:
    def test_reloaded_params_reproduce_val_auc(self, tmp_path):
        from atkt.training import evaluate, prepare_split_sequences

        ds = tiny_dataset(num_students=25, seed=14)
        split = make_folds(ds, seed=14)[0]
        cfg = tiny_config(max_epochs=3)
        result = train(cfg, ds, split)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(path, result.params, cfg.to_dict(), timestamp=False)
        reloaded, _ = model.load_checkpoint(path)
        val_seqs = prepare_split_sequences(ds, split.val, cfg)
        _, auc_before, _ = evaluate(result.params, val_seqs, cfg, ds.num_skills)
        _, auc_after, _ = evaluate(reloaded, val_seqs, cfg, ds.num_skills)
        assert abs(auc_before - auc_after) <= 1e-12
        assert auc_before == result.record.epochs[result.record.best_epoch].val_auc


class TestSplitSequences:
    def test_segments_each_picked_student_in_order(self):
        # Segmentation runs after the student-level split, so every chunk of a
        # student lands in the split that picked the student.
        def student(sid, n):
            return InteractionSequence(student_id=sid, skills=np.arange(n) % 4, responses=np.arange(n) % 2)

        long, short, odd = student("long", 1200), student("short", 3), student("odd", 501)
        ds = Dataset(sequences=(short, long, odd, student("unpicked", 900)), num_skills=4)
        out = training.prepare_split_sequences(ds, (1, 0, 2), TrainConfig(max_seq_len=500))
        assert [(s.student_id, len(s)) for s in out] == [
            ("long/0", 500), ("long/1", 500), ("long/2", 200), ("short", 3), ("odd/0", 500)]
        assert out[3] is short
        np.testing.assert_array_equal(np.concatenate([s.responses for s in out[:3]]), long.responses)


class TestValSplitUsage:
    def test_train_and_val_can_share_indices_for_capacity_runs(self):
        ds = tiny_dataset(num_students=8, seed=13)
        idx = tuple(range(8))
        split = FoldSplit(train=idx, val=idx, test=idx)
        result = train(tiny_config(max_epochs=2), ds, split)
        assert len(result.record.epochs) == 2


class TestTrainBatch:
    """The training step against its clean pass and against the dense oracle step."""

    # "ragged" mixes in padding; "equal" has none, so every packed step spans
    # the whole batch; with one row, FGSM's two scopes cover the same ball.
    LENGTHS = {"ragged": (12, 2, 7, 12, 5, 9), "equal": (12,) * 6, "one_row": (12,)}

    def batch(self, responses, lengths="ragged"):
        ds = tiny_dataset(num_students=6, seq_len=12, seed=15)
        seqs = []
        for s, n in zip(ds.sequences, self.LENGTHS[lengths]):
            resp = s.responses[:n] if responses == "mixed" else np.full(n, int(responses == "all_correct"))
            seqs.append(InteractionSequence(s.student_id, s.skills[:n], resp))
        return make_batches(seqs, ds.num_skills, batch_size=len(seqs), rng=None)[0]

    # (run_adversarial, beta, epsilon, the adversarial pass's weight when it
    # repeats the clean one): a plain run's clean step; a clean step under an
    # adversarial config; a zero-radius ball, whose adversarial pass repeats
    # the clean one; and the forced adversarial step at beta 0 with no
    # epsilon, whose passes must not reach the update.
    CLEAN_STEPS = {
        "plain": (False, 0.0, None, None),
        "clean_only": (False, 0.7, 2.0, None),
        "zero_ball": (True, 0.7, 0.0, 0.7),
        "forced_beta0": (True, 0.0, None, 0.0),
    }
    # The adversarial step against the dense oracle: relative to each array's
    # largest entry, or to the value for the losses.
    ADVERSARIAL_RTOL = 1e-12

    def setup(self, lengths, responses, **config):
        batch = self.batch(responses, lengths)
        assert np.all(batch.seq_lens == self.LENGTHS[lengths])
        cfg = tiny_config(**config)
        params = model.init_params(
            batch.num_skills, cfg.skill_dim, cfg.resp_dim, cfg.hidden_dim, cfg.attn_dim,
            Rng(3).split("init"),
        )
        return batch, cfg, params

    @pytest.mark.parametrize("responses", ["mixed", "all_correct", "all_wrong"])
    @pytest.mark.parametrize("scope", ["per_sequence", "global"])
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("step", CLEAN_STEPS)
    def test_bit_identical_to_reference(self, step, attention, lengths, scope, responses):
        # The reference is the clean pass, and with a zero ball or beta 0 the
        # clean pass weighed in a second time.
        run_adversarial, beta, epsilon, repeat = self.CLEAN_STEPS[step]
        batch, cfg, params = self.setup(lengths, responses, beta=beta, epsilon=epsilon,
                                        attention=attention, fgsm_scope=scope)
        got = train_batch(params, batch, cfg, run_adversarial)
        trace, loss = model.forward(params, batch, attention)
        grads = model.backward(params, trace).params
        want = (loss, loss, grads)
        if repeat is not None:
            want = (loss, loss + repeat * loss, {name: g + repeat * g for name, g in grads.items()})
        assert got[:2] == want[:2]
        assert got[2].keys() == want[2].keys()
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(got[2][name], want[2][name], err_msg=name)

    @pytest.mark.parametrize("responses", ["mixed", "all_correct", "all_wrong"])
    @pytest.mark.parametrize("scope", ["per_sequence", "global"])
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("attention", [True, False])
    def test_adversarial_step_matches_dense_oracle(self, monkeypatch, attention, lengths, scope, responses):
        batch, cfg, params = self.setup(lengths, responses, beta=0.7, epsilon=2.0,
                                        attention=attention, fgsm_scope=scope)
        traces, forward = [], model.forward
        monkeypatch.setattr(model, "forward", lambda *a, **kw: traces.append(forward(*a, **kw)) or traces[-1])
        got = train_batch(params, batch, cfg, True)
        want = reference_train_batch(params, batch, cfg, True)
        rtol = self.ADVERSARIAL_RTOL
        assert got[0] == pytest.approx(want[0], rel=rtol, abs=0)
        assert got[1] == pytest.approx(want[1], rel=rtol, abs=0)
        for name in model.PARAM_NAMES:
            assert np.max(np.abs(got[2][name] - want[2][name])) <= rtol * np.max(np.abs(want[2][name])), name
        adv_trace = traces[-1][0]
        valid = on_grid(adv_trace, np.ones(len(adv_trace.cells), dtype=bool))
        np.testing.assert_allclose(on_grid(adv_trace, adv_trace.pred)[valid], want[3][valid], rtol=rtol, atol=0)

    @pytest.mark.parametrize("embeddings", ["clean", "shifted"])
    @pytest.mark.parametrize("lengths", LENGTHS)
    def test_attention_bit_identical_to_masked_oracle(self, monkeypatch, lengths, embeddings):
        # No window reads a row's last state, so the mask that zeroed its a_j
        # changes that a_j and nothing else.
        batch = self.batch("mixed", lengths)
        cfg = tiny_config()
        params = model.init_params(
            batch.num_skills, cfg.skill_dim, cfg.resp_dim, cfg.hidden_dim, cfg.attn_dim,
            Rng(3).split("init"),
        )
        direction = Rng(17).split("direction").normal(size=(int(np.sum(batch.seq_lens - 1)), 4 * cfg.hidden_dim))

        def run():
            shift = shift_for_direction(params, batch, direction)[0] if embeddings == "shifted" else None
            trace, loss = model.forward(params, batch, embeddings=shift)
            return trace, loss, model.backward(params, trace)

        trace, loss, grads = run()
        monkeypatch.setattr(model, "_attention_forward", masked_attention_forward)
        want_trace, want_loss, want_grads = run()
        assert loss == want_loss
        for name in ("pred", "agg_hidden", "attn_norm"):
            np.testing.assert_array_equal(getattr(trace, name), getattr(want_trace, name), err_msg=name)
        np.testing.assert_array_equal(grads.gate_grads, want_grads.gate_grads)
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(grads.params[name], want_grads.params[name], err_msg=name)
        steps, rows = np.divmod(trace.cells, batch.size)
        last = steps == batch.seq_lens[rows] - 2
        np.testing.assert_array_equal(trace.attn_exp != want_trace.attn_exp, last)

    def test_adversarial_step_peaks_one_gate_array_above_clean(self):
        # The clean trace and gate gradients are freed before FGSM, and FGSM's
        # arrays before the adversarial backward, so that pass reuses the
        # clean pass's memory. Its trace holds one array more, FGSM's [N, 4H]
        # direction, which lstm_w's gradient reads after the time loop.
        ds = generate_synthetic(24, 50, 200, learn_rate=0.3, guess=0.25, slip=0.1, seed=16)
        batch = make_batches(list(ds.sequences), ds.num_skills, batch_size=24, rng=None)[0]
        cfg = TrainConfig(skill_dim=32, resp_dim=16, hidden_dim=24, attn_dim=24, beta=0.5, epsilon=1.0)
        params = model.init_params(ds.num_skills, 32, 16, 24, 24, Rng(4).split("init"))

        def peak(run_adversarial):
            tracemalloc.start()
            try:
                train_batch(params, batch, cfg, run_adversarial)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        direction = 8 * int(np.sum(batch.seq_lens - 1)) * 4 * cfg.hidden_dim
        adv, clean = peak(True), peak(False)
        assert adv <= 1.1 * (clean + direction), (adv, clean, direction)

    def test_non_finite_clean_pass_gives_nan_objective_without_fgsm(self, monkeypatch):
        # fgsm_perturbation would raise on the NaN gate gradients.
        batch = self.batch("mixed")
        cfg = tiny_config(beta=0.5, epsilon=1.0)
        params = model.init_params(batch.num_skills, 6, 3, 5, 5, Rng(3).split("init"))
        params.head_b[:] = np.nan
        calls, fgsm = [], adversarial.fgsm_perturbation
        monkeypatch.setattr(adversarial, "fgsm_perturbation",
                            lambda *args, **kw: calls.append(args) or fgsm(*args, **kw))
        _, objective, _ = train_batch(params, batch, cfg, run_adversarial=True)
        assert np.isnan(objective)
        assert calls == []

    def test_non_finite_input_gradient_gives_nan_objective_without_fgsm(self, monkeypatch):
        # The clean loss is finite, but one inf among the gate gradients, and
        # so in the input gradient, leaves FGSM no direction.
        batch = self.batch("mixed")
        cfg = tiny_config(beta=0.5, epsilon=1.0)
        params = model.init_params(batch.num_skills, 6, 3, 5, 5, Rng(3).split("init"))
        backward = model.backward

        def with_inf(*args):
            grads = backward(*args)
            grads.gate_grads[0, 0] = np.inf
            return grads

        calls, fgsm = [], adversarial.fgsm_perturbation
        monkeypatch.setattr(model, "backward", with_inf)
        monkeypatch.setattr(adversarial, "fgsm_perturbation",
                            lambda *args, **kw: calls.append(args) or fgsm(*args, **kw))
        clean_loss, objective, grads = train_batch(params, batch, cfg, run_adversarial=True)
        assert np.isfinite(clean_loss) and np.isnan(objective)
        assert calls == []
        assert all(np.all(np.isfinite(g)) for g in grads.values())
