import hashlib
import math

import numpy as np
import pytest

from atkt.linalg import Rng, ShapeError, sigmoid

from reference_impl import l2_norm, softmax, two_branch_sigmoid


def vec(values):
    return np.asarray(values, dtype=np.float64)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax(vec([0, 0, 0])), [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax(vec([1000, 1000]))
        np.testing.assert_allclose(out, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_exact_exponent_inverse(self):
        out = softmax(vec([math.log(1), math.log(2), math.log(3)]))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(vec([]))

    def test_sum_and_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 9)) * 10
            s = softmax(v)
            assert abs(s.sum() - 1.0) <= 1e-12
            assert np.all(s > 0)
            shifted = softmax(v + 123.456)
            assert np.max(np.abs(s - shifted)) <= 1e-12
            assert np.argmax(s) == np.argmax(v)


class TestL2Norm:
    def test_examples(self):
        assert l2_norm(vec([3, 4])) == 5.0
        assert l2_norm(vec([0, 0, 0])) == 0.0
        assert l2_norm(vec([1, 1, 1, 1])) == 2.0

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=6)
            c = rng.normal()
            assert abs(l2_norm(c * v) - abs(c) * l2_norm(v)) <= 1e-12


class TestElementwise:
    def test_sigmoid_half(self):
        np.testing.assert_array_equal(sigmoid(vec([0])), [0.5])

    def test_sigmoid_extreme_negative_is_stable(self):
        out = sigmoid(vec([-710]))
        assert np.isfinite(out).all()
        assert 0.0 < out[0] <= 1e-300

    def test_sigmoid_extreme_positive(self):
        out = sigmoid(vec([710]))
        assert out[0] == 1.0 or 1.0 - out[0] < 1e-300

    def test_sigmoid_bit_identical_to_two_branch_form(self):
        x = np.random.default_rng(3).normal(0.0, 30.0, size=100_000)
        specials = vec([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 800.0, -800.0])
        x = np.concatenate([x, specials]).reshape(-1, 7)
        got, want = sigmoid(x), two_branch_sigmoid(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, want)  # NaN matches NaN


class TestRng:
    def test_equal_seeds_bit_identical(self):
        a = Rng(123).uniform(-1, 1, size=100)
        b = Rng(123).uniform(-1, 1, size=100)
        np.testing.assert_array_equal(a, b)

    def test_split_is_deterministic_and_independent(self):
        a = Rng(7).split("model").uniform(0, 1, size=10)
        b = Rng(7).split("model").uniform(0, 1, size=10)
        c = Rng(7).split("batches").uniform(0, 1, size=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_split_paths(self):
        a = Rng(7).split("x").split("y").random(size=5)
        b = Rng(7).split("x").split("y").random(size=5)
        c = Rng(7).split("y").split("x").random(size=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_are_pcg64_on_the_label_path(self):
        # Reruns depend on this derivation: the seed, and one sha256-derived
        # spawn key per split label, feed a PCG64 generator.
        def key(label):
            return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")

        for seed, labels in ((0, ()), (7, ("init",)), (123, ("x", "y", "shuffle-epoch-3"))):
            rng = Rng(seed)
            for label in labels:
                rng = rng.split(label)
            ss = np.random.SeedSequence(seed, spawn_key=tuple(key(label) for label in labels))
            want = np.random.Generator(np.random.PCG64(ss))
            np.testing.assert_array_equal(rng.uniform(-1, 1, size=50), want.uniform(-1, 1, size=50))
            np.testing.assert_array_equal(rng.integers(0, 9, size=20), want.integers(0, 9, size=20))
            np.testing.assert_array_equal(rng.permutation(30), want.permutation(30))
            np.testing.assert_array_equal(rng.normal(size=10), want.normal(size=10))
            np.testing.assert_array_equal(rng.random(size=10), want.random(size=10))

    def test_permutation_covers_range(self):
        p = Rng(0).permutation(10)
        assert sorted(p.tolist()) == list(range(10))
