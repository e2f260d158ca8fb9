import numpy as np
import pytest

from atkt import model
from atkt.adversarial import FGSM_SCOPES, Perturbation, fgsm_perturbation, joint_loss, make_adversarial
from atkt.data import generate_synthetic, make_batches
from atkt.linalg import Rng, ShapeError

from reference_impl import l2_norm, two_branch_fgsm


def grad_tensor(values):
    """[n, B, d] tensor from nested lists."""
    return np.asarray(values, dtype=np.float64)


class TestFgsm:
    def test_normalizes_direction(self):
        g = grad_tensor([[[3.0, 4.0]]])  # one step, one row, two coords
        pert = fgsm_perturbation(g, epsilon=1.0)
        np.testing.assert_allclose(pert.r, [[[0.6, 0.8]]], rtol=1e-15)

    def test_zero_epsilon_gives_zero(self):
        g = grad_tensor([[[3.0, 4.0]]])
        pert = fgsm_perturbation(g, epsilon=0.0)
        np.testing.assert_array_equal(pert.r, np.zeros_like(g))

    def test_norm_budget_is_exact(self):
        rng = Rng(0).split("g")
        g = rng.normal(size=(7, 3, 5))
        pert = fgsm_perturbation(g, epsilon=10.0)
        for b in range(3):
            assert abs(l2_norm(pert.r[:, b, :]) - 10.0) <= 1e-9

    def test_zero_gradient_gives_zero_perturbation(self):
        g = np.zeros((4, 2, 3))
        pert = fgsm_perturbation(g, epsilon=5.0)
        np.testing.assert_array_equal(pert.r, g)

    def test_partial_zero_rows(self):
        g = np.zeros((2, 2, 2))
        g[:, 0, :] = [[3.0, 0.0], [0.0, 4.0]]
        pert = fgsm_perturbation(g, epsilon=2.0)
        assert l2_norm(pert.r[:, 0, :]) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(pert.r[:, 1, :], 0.0)

    def test_direction_depends_only_on_gradient_direction(self):
        rng = Rng(1).split("g")
        g = rng.normal(size=(5, 2, 4))
        a = fgsm_perturbation(g, epsilon=3.0)
        b = fgsm_perturbation(17.5 * g, epsilon=3.0)
        np.testing.assert_allclose(a.r, b.r, rtol=0, atol=1e-12)

    def test_global_scope_uses_one_ball(self):
        rng = Rng(2).split("g")
        g = rng.normal(size=(5, 3, 4))
        pert = fgsm_perturbation(g, epsilon=4.0, scope="global")
        assert l2_norm(pert.r) == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("scope", FGSM_SCOPES)
    def test_matches_two_branch_oracle(self, scope):
        # Random shapes and magnitudes; every third case zeroes some rows,
        # every tenth the whole gradient.
        rng = Rng(3).split(scope)
        for case in range(300):
            shape = tuple(int(k) for k in rng.integers(1, 7, size=3))
            g = rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4)
            if case % 3 == 1:
                g[:, rng.random(size=shape[1]) < 0.5, :] = 0.0
            if case % 10 == 9:
                g[...] = 0.0
            eps = float(rng.uniform(0.0, 20.0))
            got = fgsm_perturbation(g, eps, scope=scope).r
            assert np.array_equal(got, two_branch_fgsm(g, eps, scope)), (case, shape)

    def test_rejects_bad_arguments(self):
        g = np.zeros((1, 1, 1))
        with pytest.raises(ValueError):
            fgsm_perturbation(g, epsilon=-1.0)
        with pytest.raises(ValueError):
            fgsm_perturbation(g, epsilon=1.0, scope="per_batch")
        with pytest.raises(ValueError):
            fgsm_perturbation(np.full((1, 1, 1), np.nan), epsilon=1.0)


class TestMakeAdversarial:
    def test_zero_perturbation_is_identity(self):
        e = grad_tensor([[[1.0, 2.0]]])
        pert = Perturbation(r=np.zeros_like(e), epsilon=0.0)
        np.testing.assert_array_equal(make_adversarial(e, pert), e)

    def test_adds_elementwise(self):
        e = grad_tensor([[[1.0, 1.0]]])
        pert = Perturbation(r=grad_tensor([[[0.5, -0.5]]]), epsilon=1.0)
        np.testing.assert_array_equal(make_adversarial(e, pert), [[[1.5, 0.5]]])

    def test_shape_mismatch(self):
        e = grad_tensor([[[1.0, 1.0]]])
        pert = Perturbation(r=np.zeros((2, 1, 2)), epsilon=1.0)
        with pytest.raises(ShapeError):
            make_adversarial(e, pert)


class TestJointLoss:
    def test_beta_zero_is_clean_loss(self):
        assert joint_loss(0.41, 99.0, beta=0.0) == 0.41

    def test_weighted_sum(self):
        assert joint_loss(0.5, 0.7, beta=1.0) == pytest.approx(1.2, abs=1e-15)
        assert joint_loss(0.5, 0.7, beta=2.0) == pytest.approx(1.9, abs=1e-15)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(0.1, 0.1, beta=-0.5)


class TestAttackQuality:
    def test_fgsm_beats_random_directions_at_small_epsilon(self):
        wins = 0
        trials = 25
        for trial in range(trials):
            rng = Rng(500 + trial)
            ds = generate_synthetic(3, 4, 6, learn_rate=0.3, guess=0.3, slip=0.2, seed=trial)
            batch = make_batches(list(ds.sequences), 4, 3, rng=None)[0]
            params = model.init_params(4, 5, 3, 4, 4, rng.split("init"))
            trace, base_loss = model.forward(params, batch)
            grads = model.backward(params, trace)
            eps = 1e-3 * l2_norm(trace.embeddings)
            adv = make_adversarial(trace.embeddings, fgsm_perturbation(grads.d_embed, eps))
            _, adv_loss = model.forward(params, batch, embeddings=adv)

            rho = rng.split("rho").normal(size=grads.d_embed.shape)
            for b in range(batch.size):
                rho[:, b, :] *= eps / l2_norm(rho[:, b, :])
            _, rand_loss = model.forward(params, batch, embeddings=trace.embeddings + rho)
            if adv_loss - base_loss >= rand_loss - base_loss:
                wins += 1
        assert wins >= trials - 2

    def test_small_perturbation_increases_loss(self):
        ds = generate_synthetic(4, 4, 8, learn_rate=0.3, guess=0.3, slip=0.2, seed=9)
        batch = make_batches(list(ds.sequences), 4, 4, rng=None)[0]
        params = model.init_params(4, 5, 3, 4, 4, Rng(77).split("init"))
        trace, base_loss = model.forward(params, batch)
        grads = model.backward(params, trace)
        eps = 1e-4 * l2_norm(trace.embeddings)
        adv = make_adversarial(trace.embeddings, fgsm_perturbation(grads.d_embed, eps))
        _, adv_loss = model.forward(params, batch, embeddings=adv)
        assert adv_loss > base_loss
