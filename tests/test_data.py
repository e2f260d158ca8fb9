import logging
import re

import numpy as np
import pytest

from atkt.data import (
    MAX_SKILLS,
    Batch,
    DataFormatError,
    Dataset,
    InteractionSequence,
    generate_synthetic,
    make_batches,
    make_folds,
    parse_triple_line,
    segment_long,
    serialize_triple_line,
)
from atkt.linalg import Rng


def seq(student_id, skills, responses):
    return InteractionSequence(
        student_id=student_id,
        skills=np.asarray(skills, dtype=np.int64),
        responses=np.asarray(responses, dtype=np.int64),
    )


class TestParse:
    def test_direct(self):
        ds = parse_triple_line("3\n1,2,1\n1,0,1\n")
        assert len(ds.sequences) == 1
        np.testing.assert_array_equal(ds.sequences[0].skills, [1, 2, 1])
        np.testing.assert_array_equal(ds.sequences[0].responses, [1, 0, 1])
        assert ds.num_skills == 3

    def test_short_sequences_dropped_with_logged_count(self, caplog):
        with caplog.at_level(logging.INFO, logger="atkt.data"):
            ds = parse_triple_line("1\n5\n1\n")
        assert len(ds.sequences) == 0
        assert "dropped 1" in caplog.text

    def test_crlf_and_trailing_commas(self):
        ds = parse_triple_line("2\r\n4,5,\r\n1,0,\r\n")
        np.testing.assert_array_equal(ds.sequences[0].skills, [4, 5])

    def test_count_mismatch_reports_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_triple_line("3\n1,2\n1,0,1\n")

    # int() also reads "+1", "1_0" and non-ASCII digits; the format does not.
    @pytest.mark.parametrize("token", ["x", "+1", "1_0", "١", "1.0", "-", "--1"])
    @pytest.mark.parametrize("what, line", [("skill", 2), ("response", 3)])
    def test_non_integer_token_reports_line(self, what, line, token):
        lines = ["2", "1,2", "1,0"]
        lines[line - 1] = f"1,{token}"
        want = f"line {line}: non-integer {what} token {token!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(want)}$"):
            parse_triple_line("\n".join(lines) + "\n")

    @pytest.mark.parametrize("token", ["x", "+2", "0_2", "٢"])
    def test_non_integer_count_reports_line(self, token):
        want = f"line 1: expected interaction count, got {token!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(want)}$"):
            parse_triple_line(f"{token}\n1,2\n1,0\n")

    def test_bad_response_value(self):
        with pytest.raises(DataFormatError, match="response must be 0 or 1"):
            parse_triple_line("2\n1,2\n1,2\n")

    def test_truncated_group(self):
        with pytest.raises(DataFormatError, match="truncated"):
            parse_triple_line("2\n1,2")
        with pytest.raises(DataFormatError, match="line 3"):
            parse_triple_line("2\n1,2\n")

    def test_skill_id_below_the_cap_parses(self):
        assert parse_triple_line(f"2\n0,{MAX_SKILLS - 1}\n1,0\n").num_skills == MAX_SKILLS

    @pytest.mark.parametrize("skill", [MAX_SKILLS, 2**63, 10**30])
    def test_skill_id_at_or_above_the_cap_names_the_line(self, skill):
        with pytest.raises(DataFormatError, match=f"^line 5: skill id {skill} is not below the cap"):
            parse_triple_line(f"2\n0,1\n1,0\n2\n1,{skill}\n0,1\n")

    def test_explicit_num_skills(self):
        ds = parse_triple_line("2\n1,2\n1,0\n", num_skills=50)
        assert ds.num_skills == 50
        with pytest.raises(ValueError):
            parse_triple_line("2\n1,9\n1,0\n", num_skills=5)

    def test_round_trip(self):
        text = "3\n1,2,1\n1,0,1\n2\n0,4\n0,0\n"
        ds = parse_triple_line(text)
        again = parse_triple_line(serialize_triple_line(ds))
        assert len(again.sequences) == len(ds.sequences)
        for a, b in zip(ds.sequences, again.sequences):
            np.testing.assert_array_equal(a.skills, b.skills)
            np.testing.assert_array_equal(a.responses, b.responses)


class TestFolds:
    def make_dataset(self, n):
        return Dataset(
            sequences=tuple(seq(f"s{i}", [0, 1], [1, 0]) for i in range(n)),
            num_skills=2,
        )

    def test_ratio_on_ten_sequences(self):
        folds = make_folds(self.make_dataset(10), seed=7)
        assert len(folds) == 5
        for f in folds:
            assert (len(f.train), len(f.val), len(f.test)) == (6, 2, 2)

    def test_deterministic(self):
        a = make_folds(self.make_dataset(23), seed=5)
        b = make_folds(self.make_dataset(23), seed=5)
        assert a == b
        c = make_folds(self.make_dataset(23), seed=6)
        assert a != c

    def test_partition_properties(self):
        n = 37
        folds = make_folds(self.make_dataset(n), seed=3)
        test_union = []
        for f in folds:
            parts = set(f.train) | set(f.val) | set(f.test)
            assert len(f.train) + len(f.val) + len(f.test) == n
            assert parts == set(range(n))
            assert not set(f.train) & set(f.val)
            assert not set(f.val) & set(f.test)
            assert not set(f.train) & set(f.test)
            assert abs(len(f.test) - n / 5) < 1
            assert abs(len(f.val) - n / 5) < 1
            test_union.extend(f.test)
        # The five test folds tile the dataset exactly once.
        assert sorted(test_union) == list(range(n))

    def test_too_few_sequences(self):
        with pytest.raises(ValueError):
            make_folds(self.make_dataset(4), seed=0)


class TestSegment:
    def long_seq(self, n):
        return seq("long", [i % 7 for i in range(n)], [i % 2 for i in range(n)])

    def test_chunks(self):
        parts = segment_long(self.long_seq(1200), max_len=500)
        assert [len(p) for p in parts] == [500, 500, 200]
        np.testing.assert_array_equal(
            np.concatenate([p.skills for p in parts]), self.long_seq(1200).skills
        )

    def test_boundary_unchanged(self):
        s = self.long_seq(500)
        assert segment_long(s, max_len=500) == [s]

    def test_trailing_singleton_dropped(self):
        parts = segment_long(self.long_seq(501), max_len=500)
        assert [len(p) for p in parts] == [500]

    def test_strict_truncation(self):
        parts = segment_long(self.long_seq(1200), max_len=500, strict=True)
        assert [len(p) for p in parts] == [500]

    def test_max_len_validation(self):
        with pytest.raises(ValueError):
            segment_long(self.long_seq(10), max_len=1)


class TestBatches:
    def make_seqs(self, lengths):
        return [seq(f"s{i}", [j % 3 for j in range(n)], [j % 2 for j in range(n)])
                for i, n in enumerate(lengths)]

    def test_batch_sizes(self):
        seqs = self.make_seqs([4] * 50)
        batches = make_batches(seqs, 3, batch_size=24, rng=None)
        assert [b.size for b in batches] == [24, 24, 2]

    def test_mask_and_padding(self):
        batches = make_batches(self.make_seqs([3, 5]), 3, batch_size=2, rng=None)
        (b,) = batches
        assert b.max_len == 5
        np.testing.assert_array_equal(b.seq_lens, [3, 5])
        assert (b.skills[0, 3:] == 3).all()  # sentinel one past the range

    def test_epoch_shuffles_differ_but_reproduce(self):
        seqs = self.make_seqs([2] * 30)
        base = Rng(9)
        e0 = make_batches(seqs, 3, 8, rng=base.split("epoch-0"))
        e1 = make_batches(seqs, 3, 8, rng=base.split("epoch-1"))
        e0_again = make_batches(seqs, 3, 8, rng=Rng(9).split("epoch-0"))
        ids = lambda bs: [b.student_ids for b in bs]
        assert ids(e0) != ids(e1)
        assert ids(e0) == ids(e0_again)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            make_batches(self.make_seqs([2]), 3, batch_size=0)

    def test_targetless_sequences_rejected(self):
        with pytest.raises(ValueError, match="no prediction target"):
            make_batches(self.make_seqs([3, 1]), 3, batch_size=2)


class TestSynthetic:
    def test_impossible_learning_gives_all_wrong(self):
        ds = generate_synthetic(5, 3, 10, learn_rate=0.0, guess=0.0, slip=0.0, seed=1)
        for s in ds.sequences:
            assert (s.responses == 0).all()

    def test_perfect_guessing_gives_all_right(self):
        ds = generate_synthetic(5, 3, 10, learn_rate=0.0, guess=1.0, slip=0.5, seed=1)
        for s in ds.sequences:
            assert (s.responses == 1).all()

    def test_deterministic(self):
        a = generate_synthetic(4, 3, 8, 0.3, 0.2, 0.1, seed=11)
        b = generate_synthetic(4, 3, 8, 0.3, 0.2, 0.1, seed=11)
        for x, y in zip(a.sequences, b.sequences):
            np.testing.assert_array_equal(x.skills, y.skills)
            np.testing.assert_array_equal(x.responses, y.responses)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 1, 5, learn_rate=1.5, guess=0.0, slip=0.0, seed=0)

    def test_learning_curve_rises_from_guess_toward_mastery(self):
        # Monte-Carlo check of the generative process: smoothed per-step
        # accuracy climbs from ~guess toward 1-slip as skills get mastered.
        ds = generate_synthetic(2000, 5, 50, learn_rate=0.3, guess=0.2, slip=0.1, seed=42)
        responses = np.stack([s.responses for s in ds.sequences])
        curve = responses.mean(axis=0)
        assert abs(curve[0] - 0.2) < 0.05
        smooth = np.convolve(curve, np.ones(5) / 5, mode="valid")
        assert smooth[-1] > 0.8
        assert np.all(np.diff(smooth) > -0.01)


class TestPaddingOpacity:
    def test_padded_cells_do_not_leak(self):
        # Downstream opacity (loss/gradients) is asserted in the model tests;
        # here: every cell past a row's seq_len holds the sentinel id.
        seqs = [seq("a", [0, 1, 2], [1, 0, 1]), seq("b", [2, 0], [0, 1])]
        (batch,) = make_batches(seqs, 3, batch_size=2, rng=None)
        assert isinstance(batch, Batch)
        for i in range(batch.size):
            for j in range(batch.max_len):
                if j >= batch.seq_lens[i]:
                    assert batch.skills[i, j] == 3
