import io
import math

import numpy as np
import pytest

from atkt.metrics import DegenerateLabelsError, PredictionLog, auc, auc_bruteforce, bce


def make_log(scores, labels):
    n = len(scores)
    return PredictionLog(
        probs=np.asarray(scores, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        student_ids=np.array([f"s{i}" for i in range(n)], dtype=object),
        steps=np.arange(n),
        skills=np.zeros(n, dtype=np.int64),
    )


def random_log(rng, max_len=500):
    n = int(rng.integers(10, max_len + 1))
    scores = rng.random(n)
    # Quantize a block of the scores to force tied values across classes.
    if rng.random() < 0.8:
        k = int(rng.integers(1, n))
        scores[:k] = np.round(scores[:k], 1)
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
    if labels.min() == labels.max():  # both classes required
        labels[0] = 1 - labels[0]
    return make_log(scores, labels)


class TestBce:
    def test_half(self):
        assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)

    def test_near_perfect(self):
        assert 0 < bce(1 - 1e-12, 1) < 2e-12

    def test_confident_wrong(self):
        assert bce(0.9, 0) == pytest.approx(math.log(10), rel=1e-9)

    def test_clamps_out_of_range(self):
        assert np.isfinite(bce(0.0, 1))
        assert np.isfinite(bce(1.0, 0))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            bce(0.5, 2)


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(make_log([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])) == 1.0

    def test_inverted_ranking(self):
        assert auc(make_log([0.2, 0.3, 0.8, 0.9], [1, 1, 0, 0])) == 0.0

    def test_all_tied_is_chance(self):
        assert auc(make_log([0.4] * 6, [1, 0, 1, 0, 1, 0])) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            auc(make_log([0.1, 0.9], [1, 1]))
        with pytest.raises(DegenerateLabelsError):
            auc_bruteforce(make_log([0.1, 0.9], [0, 0]))


class TestBruteforce:
    def test_single_tie_pair(self):
        assert auc_bruteforce(make_log([0.7, 0.7], [1, 0])) == 0.5

    def test_one_win_one_loss(self):
        assert auc_bruteforce(make_log([0.9, 0.1, 0.95], [1, 0, 0])) == 0.5

    def test_matches_rank_auc_on_random_logs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            log = random_log(rng, max_len=200)
            assert abs(auc(log) - auc_bruteforce(log)) <= 1e-12


class TestAucProperties:
    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            log = random_log(rng, max_len=120)
            base = auc(log)
            squeezed = make_log([math.atan(5 * p) for p in log.probs], log.labels)
            assert auc(squeezed) == pytest.approx(base, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            log = random_log(rng, max_len=120)
            flipped = make_log([-p for p in log.probs], [1 - a for a in log.labels])
            assert auc(flipped) == pytest.approx(auc(log), abs=1e-12)


class TestPredictionLog:
    def test_csv_layout(self):
        log = make_log([0.25, 0.75], [0, 1])
        buf = io.StringIO()
        log.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "student_id,step,skill,prob,label"
        assert lines[1] == "s0,0,0,0.25,0"
        assert len(lines) == 3
