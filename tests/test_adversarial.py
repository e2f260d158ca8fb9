import numpy as np
import pytest

from atkt import adversarial, model
from atkt.adversarial import FGSM_SCOPES, fgsm_perturbation, make_adversarial
from atkt.data import InteractionSequence, generate_synthetic, make_batches
from atkt.linalg import Rng, ShapeError

from grad_oracle import GRAD_CHECK_STEP, compare_gradients
from reference_impl import (
    build_embeddings,
    l2_norm,
    ldexp_scale_rows,
    padded_backward,
    padded_forward,
    two_branch_fgsm,
)


def grid_batch(n, b, num_skills=3):
    """A batch of b rows with n valid cells each: packed cell t * b + j is step t of row j."""
    seqs = [
        InteractionSequence(f"s{j}", np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64))
        for j in range(b)
    ]
    return make_batches(seqs, num_skills, batch_size=b, rng=None)[0]


def fgsm_case(seed, n=5, b=3, gates=12, d_in=5):
    """(gate gradients [n * b, gates], lstm_w [gates, d_in], batch) with random values."""
    rng = Rng(seed).split("fgsm")
    return rng.normal(size=(n * b, gates)), rng.normal(size=(gates, d_in)), grid_batch(n, b)


def dense(dz, w, batch):
    """The input gradient dz @ w on the batch's [n, B, d_in] grid."""
    return (dz @ w).reshape(batch.max_len - 1, batch.size, w.shape[1])


def ball_norms(pert, scope):
    r = pert.r
    return [l2_norm(r)] if scope == "global" else [l2_norm(r[:, j, :]) for j in range(r.shape[1])]


def tiny_model_batch(seed, lengths=(6, 4, 3)):
    rng = Rng(seed).split("batch")
    seqs = [
        InteractionSequence(f"r{i}", rng.integers(0, 4, size=n), rng.integers(0, 2, size=n))
        for i, n in enumerate(lengths)
    ]
    batch = make_batches(seqs, 4, batch_size=len(seqs), rng=None)[0]
    # Four gate blocks of 4 units over 3 + 2 input coordinates: 4H > d_in.
    return model.init_params(4, 3, 2, 4, 3, Rng(seed).split("init")), batch


class TestFgsm:
    def test_normalizes_direction(self):
        pert = fgsm_perturbation(np.array([[3.0, 4.0]]), np.eye(2), grid_batch(1, 1), epsilon=1.0)
        np.testing.assert_allclose(pert.r, [[[0.6, 0.8]]], rtol=1e-15)

    def test_zero_epsilon_gives_zero(self):
        dz, w, batch = fgsm_case(0)
        pert = fgsm_perturbation(dz, w, batch, epsilon=0.0)
        np.testing.assert_array_equal(pert.r, 0.0)
        np.testing.assert_array_equal(pert.shift.projection, 0.0)

    @pytest.mark.parametrize("shape", [(12, 5), (8, 20)])
    def test_norm_budget_is_exact(self, shape):
        dz, w, batch = fgsm_case(1, gates=shape[0], d_in=shape[1])
        pert = fgsm_perturbation(dz, w, batch, epsilon=10.0)
        for norm in ball_norms(pert, "per_sequence"):
            assert abs(norm - 10.0) <= 1e-9

    def test_zero_gradient_gives_zero_perturbation(self):
        _, w, batch = fgsm_case(2)
        pert = fgsm_perturbation(np.zeros((15, 12)), w, batch, epsilon=5.0)
        np.testing.assert_array_equal(pert.r, 0.0)

    def test_gradient_in_left_null_space_gives_zero_perturbation(self):
        # dz @ W is exactly zero where dz lives on the gate units W gives no input weights.
        dz, w, batch = fgsm_case(3)
        w[:6] = 0.0
        dz[:, 6:] = 0.0
        pert = fgsm_perturbation(dz, w, batch, epsilon=5.0)
        np.testing.assert_array_equal(pert.r, 0.0)

    def test_partial_zero_rows(self):
        dz, w, batch = fgsm_case(4, b=2)
        dz[1::2] = 0.0  # batch row 1
        pert = fgsm_perturbation(dz, w, batch, epsilon=2.0)
        assert l2_norm(pert.r[:, 0, :]) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(pert.r[:, 1, :], 0.0)

    def test_direction_depends_only_on_gradient_direction(self):
        dz, w, batch = fgsm_case(5)
        a = fgsm_perturbation(dz.copy(), w, batch, epsilon=3.0)  # FGSM scales its input in place
        b = fgsm_perturbation(17.5 * dz, w, batch, epsilon=3.0)
        c = fgsm_perturbation(dz, 3.25 * w, batch, epsilon=3.0)
        np.testing.assert_allclose(a.r, b.r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.r, c.r, rtol=0, atol=1e-12)

    def test_global_scope_uses_one_ball(self):
        dz, w, batch = fgsm_case(6)
        pert = fgsm_perturbation(dz, w, batch, epsilon=4.0, scope="global")
        assert l2_norm(pert.r) == pytest.approx(4.0, abs=1e-9)

    def test_projection_and_direction_describe_r(self):
        dz, w, batch = fgsm_case(7)
        pert = fgsm_perturbation(dz, w, batch, epsilon=4.0)
        r = pert.shift.direction @ w
        np.testing.assert_array_equal(pert.r.reshape(-1, w.shape[1]), r)
        want = r @ w.T
        np.testing.assert_allclose(pert.shift.projection, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_matches_dense_oracle(self, scope):
        # Random shapes and magnitudes, with 4H above and below d_in; every
        # third case zeroes some rows, every tenth the whole gradient.
        rng = Rng(3).split(scope)
        for case in range(300):
            n, b, gates, d_in = (int(k) for k in rng.integers(1, 9, size=4))
            dz = rng.normal(size=(n * b, gates)) * 10.0 ** rng.uniform(-4, 4)
            w = rng.normal(size=(gates, d_in)) * 10.0 ** rng.uniform(-2, 2)
            batch = grid_batch(n, b)
            if case % 3 == 1:
                zero_rows = rng.random(size=b) < 0.5
                dz[zero_rows[np.arange(n * b) % b]] = 0.0
            if case % 10 == 9:
                dz[...] = 0.0
            eps = float(rng.uniform(0.0, 20.0))
            want = two_branch_fgsm(dense(dz, w, batch), eps, scope)
            got = fgsm_perturbation(dz, w, batch, eps, scope=scope).r
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * max(eps, 1.0), err_msg=str(case))

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_budget_holds_at_any_finite_scale(self, scope):
        # Squaring gate gradients of 1e200 overflows and of 1e-170 underflows;
        # the mixed case puts both, and subnormal and near-max entries, in one
        # batch, one magnitude per batch row.
        dz, w, batch = fgsm_case(8, n=6, b=4)
        mixed = dz * np.array([1e200, 1e-170, 1e-310, 1e307])[np.arange(len(dz)) % 4, None]
        base = fgsm_perturbation(dz.copy(), w, batch, epsilon=3.0, scope=scope).r
        for g in (dz * 1e200, dz * 1e-170, mixed):
            pert = fgsm_perturbation(g, w, batch, epsilon=3.0, scope=scope)
            for norm in ball_norms(pert, scope):
                assert abs(norm - 3.0) <= 1e-9
            if scope == "per_sequence" or g is not mixed:  # in one global ball tiny rows round to 0
                # A subnormal gate gradient keeps fewer digits than its row had.
                np.testing.assert_allclose(pert.r, base, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_bit_identical_to_ldexp_scaling(self, monkeypatch, scope):
        # The magnitudes above, one per batch row, and every ball's largest
        # |dz| exactly 2**-1060 or 2**1023, where 2**-k is not a normal
        # double. Half the entries of the 2**1023 balls end subnormal.
        dz, w, batch = fgsm_case(8, n=6, b=4)
        row = np.arange(len(dz)) % batch.size
        mixed = dz * np.array([1e200, 1e-170, 1e-310, 1e307])[row, None]
        peak = np.zeros(batch.size)
        np.maximum.at(peak, row, np.max(np.abs(dz), axis=1))
        unit = dz / peak[row, None]
        huge = unit * 2.0**1023
        huge[:, ::2] = Rng(8).split("small").uniform(0.0, 1.0, size=huge[:, ::2].shape)
        for case, g in {"base": dz, "1e200": dz * 1e200, "1e-170": dz * 1e-170, "mixed": mixed,
                        "2**-1060": unit * 2.0**-1060, "2**1023": huge}.items():
            got = fgsm_perturbation(g.copy(), w, batch, epsilon=3.0, scope=scope).shift
            with monkeypatch.context() as m:
                m.setattr(adversarial, "_scale_rows_by_powers_of_two", ldexp_scale_rows)
                want = fgsm_perturbation(g.copy(), w, batch, epsilon=3.0, scope=scope).shift
            np.testing.assert_array_equal(got.direction, want.direction, err_msg=case)
            np.testing.assert_array_equal(got.projection, want.projection, err_msg=case)

    def test_power_of_two_scaling_rounds_as_ldexp(self):
        # Every exponent frexp can give a peak's inverse, about both ends of
        # the normal range, on magnitudes up to the ball's peak and far below.
        e = np.array([-1024, -1023, -1022, -1021, -1, 0, 1, 1021, 1022, 1023, 1024, 1059, 1073])
        rng = Rng(11).split("pow2")
        ball = np.repeat(np.arange(len(e)), 40)
        top = np.minimum(-e, 1024)[ball, None]  # the ball's peak stays below 2**-e
        shape = (len(ball), 6)
        x = np.ldexp(rng.uniform(-1.0, 1.0, size=shape), top - rng.integers(0, 1100, size=shape))
        got = x.copy()
        adversarial._scale_rows_by_powers_of_two(got, e, ball)
        np.testing.assert_array_equal(got, np.ldexp(x, e[ball, None]))
        assert np.any((got != 0) & (np.abs(got) < 2.0**-1022))  # results that round

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_ball_nearly_in_left_null_space(self, scope):
        # With 4H = 12 > d_in = 5, W has a 7-dimensional left null space. Row 0's
        # dz lies in it up to a 1e-5 share, so ||dz W|| is about 1e-5 of
        # ||dz|| ||W||: the quadratic form cancels, the direct product does not.
        dz, w, batch = fgsm_case(9)
        u = np.linalg.svd(w)[0]
        coef = Rng(9).split("null").normal(size=(len(dz), 12))
        row0 = np.arange(len(dz)) % batch.size == 0
        dz[row0] = coef[row0, :7] @ u[:, 5:].T + 1e-5 * coef[row0, 7:] @ u[:, :5].T
        if scope == "global":
            dz[~row0] *= 1e-5  # the whole ball is then nearly null
        pert = fgsm_perturbation(dz.copy(), w, batch, epsilon=3.0, scope=scope)
        for norm in ball_norms(pert, scope):
            assert abs(norm - 3.0) <= 1e-9
        # A norm from the quadratic form alone would miss the budget there.
        ball = row0 if scope == "per_sequence" else np.ones(len(dz), dtype=bool)
        form = np.sum((dz[ball] @ (w @ w.T)) * dz[ball])
        direct = np.sum((dz[ball] @ w) ** 2)
        assert not abs(3.0 * np.sqrt(max(form, 0.0) / direct) - 3.0) <= 1e-9

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_projection_rows_match_one_unblocked_product(self, monkeypatch, scope):
        # 25 cells in blocks of 3 or 8 leave one row over. It joins the block
        # before: alone, its dz G would take BLAS's matrix-vector path, which
        # sums in another order.
        dz, w, batch = fgsm_case(12, n=5, b=5, gates=32, d_in=20)
        monkeypatch.setattr(model, "_ROW_BLOCK", len(dz))
        want = fgsm_perturbation(dz.copy(), w, batch, epsilon=3.0, scope=scope).shift.projection
        for row_block in (3, 8):
            monkeypatch.setattr(model, "_ROW_BLOCK", row_block)
            got = fgsm_perturbation(dz.copy(), w, batch, epsilon=3.0, scope=scope).shift.projection
            np.testing.assert_array_equal(got, want, err_msg=str(row_block))

    def test_rejects_bad_arguments(self):
        dz, w, batch = fgsm_case(10)
        with pytest.raises(ValueError):
            fgsm_perturbation(dz, w, batch, epsilon=-1.0)
        with pytest.raises(ValueError):
            fgsm_perturbation(dz, w, batch, epsilon=1.0, scope="per_batch")
        for bad in (np.nan, np.inf, -np.inf):
            dz[3, 2] = bad
            with pytest.raises(ValueError):
                fgsm_perturbation(dz, w, batch, epsilon=1.0)
        with pytest.raises(ShapeError):
            fgsm_perturbation(np.zeros((14, 12)), w, batch, epsilon=1.0)


class TestMakeAdversarial:
    def test_returns_the_shift_for_its_batch(self):
        dz, w, batch = fgsm_case(11)
        pert = fgsm_perturbation(dz, w, batch, epsilon=1.0)
        assert make_adversarial(batch, pert) is pert.shift

    def test_layout_mismatch(self):
        p, batch = tiny_model_batch(12, lengths=(6, 4, 3))
        trace, _ = model.forward(p, batch)
        pert = fgsm_perturbation(model.backward(p, trace).gate_grads, p.lstm_w, batch, 1.0)
        _, same_grid = tiny_model_batch(12, lengths=(6, 3, 4))  # same shape and cell count
        _, other_grid = tiny_model_batch(12, lengths=(6, 4, 3, 2))
        for other in (same_grid, other_grid):
            with pytest.raises(ShapeError):
                make_adversarial(other, pert)

    def test_zero_perturbation_repeats_the_clean_pass(self):
        p, batch = tiny_model_batch(13)
        trace, loss = model.forward(p, batch)
        grads = model.backward(p, trace)
        pert = fgsm_perturbation(grads.gate_grads, p.lstm_w, batch, epsilon=0.0)
        adv_trace, adv_loss = model.forward(p, batch, embeddings=make_adversarial(batch, pert))
        adv_grads = model.backward(p, adv_trace)
        assert adv_loss == loss
        np.testing.assert_array_equal(adv_trace.pred, trace.pred)
        for name in model.PARAM_NAMES:
            np.testing.assert_array_equal(adv_grads.params[name], grads.params[name], err_msg=name)

    def test_a_shift_serves_one_forward_pass(self):
        p, batch = tiny_model_batch(14)
        trace, _ = model.forward(p, batch)
        pert = fgsm_perturbation(model.backward(p, trace).gate_grads, p.lstm_w, batch, 1.0)
        shift = make_adversarial(batch, pert)
        model.forward(p, batch, embeddings=shift)
        assert shift.projection is None
        with pytest.raises(ValueError):
            model.forward(p, batch, embeddings=shift)


class TestAdversarialPass:
    """The pass on the gate-space shift against the dense pass on e + r."""

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    @pytest.mark.parametrize("attention", [True, False], ids=["causal", "off"])
    def test_matches_dense_oracle(self, attention, scope):
        p, batch = tiny_model_batch(20, lengths=(9, 2, 6, 4, 9))
        trace, _ = model.forward(p, batch, attention)
        pert = fgsm_perturbation(model.backward(p, trace).gate_grads, p.lstm_w, batch, 2.0, scope)
        r = pert.r
        adv_trace, adv_loss = model.forward(p, batch, attention, embeddings=make_adversarial(batch, pert))
        grads = model.backward(p, adv_trace).params
        ref_trace, ref_loss = padded_forward(p, batch, attention, embeddings=build_embeddings(p, batch) + r)
        ref_grads, _ = padded_backward(p, ref_trace)
        assert adv_loss == pytest.approx(ref_loss, rel=1e-13)
        valid = ref_trace.step_mask
        pred = np.zeros(valid.shape)
        pred.reshape(-1)[adv_trace.cells] = adv_trace.pred
        np.testing.assert_allclose(pred[valid], ref_trace.pred[valid], rtol=1e-13, atol=0)
        for name in model.PARAM_NAMES:
            got, want = grads[name], ref_grads[name]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("attention", [True, False], ids=["causal", "off"])
    def test_gradients_match_finite_differences_with_r_fixed(self, attention):
        # r is a constant of the adversarial pass: the loss of e + r through the
        # dense oracle forward, with r held at FGSM's value, is differentiated
        # in every parameter, lstm_w's new (dz^T direction) W term included.
        p, batch = tiny_model_batch(21, lengths=(6, 4, 3))
        trace, _ = model.forward(p, batch, attention)
        pert = fgsm_perturbation(model.backward(p, trace).gate_grads, p.lstm_w, batch, 1.5)
        r = pert.r
        adv_trace, _ = model.forward(p, batch, attention, embeddings=make_adversarial(batch, pert))
        analytic = model.backward(p, adv_trace).params

        def loss():
            return padded_forward(p, batch, attention, embeddings=build_embeddings(p, batch) + r)[1]

        numeric = {}
        for name, arr in p.named_arrays():
            g = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                original = arr[idx]
                arr[idx] = original + GRAD_CHECK_STEP
                up = loss()
                arr[idx] = original - GRAD_CHECK_STEP
                down = loss()
                arr[idx] = original
                g[idx] = (up - down) / (2.0 * GRAD_CHECK_STEP)
            numeric[name] = g
        report = compare_gradients(analytic, numeric)
        assert report.passed, report.summary()


class TestAttackQuality:
    @staticmethod
    def losses(params, batch, rng, scale):
        """(clean loss, FGSM loss, loss along a random same-norm direction); eps = scale ||e||."""
        trace, base_loss = model.forward(params, batch)
        emb = build_embeddings(params, batch)
        eps = scale * l2_norm(emb)
        pert = fgsm_perturbation(model.backward(params, trace).gate_grads, params.lstm_w, batch, eps)
        _, adv_loss = model.forward(params, batch, embeddings=make_adversarial(batch, pert))
        rho = rng.normal(size=emb.shape)
        for b in range(batch.size):
            rho[:, b, :] *= eps / l2_norm(rho[:, b, :])
        _, rand_loss = padded_forward(params, batch, embeddings=emb + rho)
        return base_loss, adv_loss, rand_loss

    def test_fgsm_beats_random_directions_at_small_epsilon(self):
        wins = 0
        trials = 25
        for trial in range(trials):
            rng = Rng(500 + trial)
            ds = generate_synthetic(3, 4, 6, learn_rate=0.3, guess=0.3, slip=0.2, seed=trial)
            batch = make_batches(list(ds.sequences), 4, 3, rng=None)[0]
            params = model.init_params(4, 5, 3, 4, 4, rng.split("init"))
            base_loss, adv_loss, rand_loss = self.losses(params, batch, rng.split("rho"), 1e-3)
            if adv_loss - base_loss >= rand_loss - base_loss:
                wins += 1
        assert wins >= trials - 2

    def test_small_perturbation_increases_loss(self):
        ds = generate_synthetic(4, 4, 8, learn_rate=0.3, guess=0.3, slip=0.2, seed=9)
        batch = make_batches(list(ds.sequences), 4, 4, rng=None)[0]
        params = model.init_params(4, 5, 3, 4, 4, Rng(77).split("init"))
        base_loss, adv_loss, _ = self.losses(params, batch, Rng(77).split("rho"), 1e-4)
        assert adv_loss > base_loss
