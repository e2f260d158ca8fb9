import logging
import random
import re
from pathlib import Path

import numpy as np
import pytest

from atkt import data
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
    segment_dataset,
    segment_long,
    serialize_triple_line,
)
from atkt.linalg import Rng
from reference_impl import per_token_parse_triple_line
from test_fuzz import DATA_TEXT, mutate_data


def seq(student_id, skills, responses):
    return InteractionSequence(
        student_id=student_id,
        skills=np.asarray(skills, dtype=np.int64),
        responses=np.asarray(responses, dtype=np.int64),
    )


# Texts whose last sequence is skills 4, 5 with responses 1, 0.
TOLERATED = [
    "2\r\n4,5,\r\n1,0,\r\n",  # CRLF and trailing commas
    "2\n4, 5\n1 ,0\n",  # a space beside a token
    "2\n4,\t5\n1,0\t\n",  # a tab beside a token
    "2\n4\u00a0,5\n1,0\n",  # a no-break space beside a token
    "2\n04,5\n1,-0\n",  # a leading zero; -0 is 0
    "2\n4,5, \n1,0, \n",  # a trailing ", "
    "0\n\n\n2\n4,5\n1,0\n",  # a count-0 group still has its two number lines
    "2\n0000000000000000000004,5\n1,0\n",  # leading zeros past int64's 18 safe digits
]
# A field written after "1," on a number line, and the token its error names.
# int() also reads "+1", "1_0" and non-ASCII digits; the format does not. A
# field holds one token, and an empty field before a token is the empty token.
MALFORMED = [(t, t) for t in ["x", "+1", "1_0", "١", "1.0", "-", "--1", "1 2", "1\t2"]] + [("1,,2", ""), (" ,2", "")]


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

    @pytest.mark.parametrize("text", TOLERATED)
    def test_tolerated_forms(self, text):
        ds = parse_triple_line(text)
        np.testing.assert_array_equal(ds.sequences[-1].skills, [4, 5])
        np.testing.assert_array_equal(ds.sequences[-1].responses, [1, 0])

    def test_count_mismatch_reports_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_triple_line("3\n1,2\n1,0,1\n")

    @pytest.mark.parametrize("field, token", MALFORMED, ids=[field for field, _ in MALFORMED])
    @pytest.mark.parametrize("what, line", [("skill", 2), ("response", 3)])
    def test_non_integer_token_reports_line(self, what, line, field, token):
        lines = ["2", "1,2", "1,0"]
        lines[line - 1] = f"1,{field}"
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
        text = f"3\n1,2,1\n1,0,1\n2\n0,{MAX_SKILLS - 1}\n0,0\n"
        ds = parse_triple_line(text)
        written = serialize_triple_line(ds)  # what `atkt prepare` writes
        # Written files use only the plain grammar's bytes and take the bulk path.
        assert set(written.encode()) <= set(data._PLAIN_BYTES)
        lines = written.split("\n")
        assert data._parse_plain(lines, data._group_starts(lines)) is not None
        again = parse_triple_line(written)
        assert len(again.sequences) == len(ds.sequences)
        for a, b in zip(ds.sequences, again.sequences):
            np.testing.assert_array_equal(a.skills, b.skills)
            np.testing.assert_array_equal(a.responses, b.responses)


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
# Pieces inserted into number lines: the first ones keep the line in the plain
# alphabet (digits and commas), the last ones send the file to the walk.
PLAIN_PIECES = ["0", "1", "7", "12", ",", ",,", "01"] + ["-", " ", "-0"]


def plain_noise_text(rng: random.Random) -> str:
    """Up to four groups of digits and commas, many of them broken by an inserted piece."""
    lines = []
    for _ in range(rng.randint(0, 4)):
        count = rng.randint(0, 4)
        lines.append(str(count) if rng.random() < 0.9 else rng.choice(["-1", " 2 ", "1,", "99999999999999999999"]))
        for top in (12, 1):
            line = ",".join(str(rng.randint(0, top)) for _ in range(count))
            for _ in range(rng.choice([0, 0, 1, 2])):
                at = rng.randrange(len(line) + 1)
                line = line[:at] + rng.choice(PLAIN_PIECES) + line[at:]
            lines.append(line + rng.choice(["", "", ",", ",,", ", "]))
        if rng.random() < 0.2:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t"]))
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n", "\r\n"])


class TestBulkParse:
    """``parse_triple_line`` gives what the per-token walk gives: sequences or exception, and log."""

    def outcome(self, parse, text, num_skills, caplog):
        caplog.clear()
        try:
            ds = parse(text, num_skills)
        except Exception as exc:  # both parsers must raise the same type with the same message
            return (type(exc), str(exc)), caplog.messages
        sequences = [(s.student_id, s.skills.dtype, s.skills.tolist(), s.responses.dtype, s.responses.tolist())
                     for s in ds.sequences]
        return (ds.num_skills, sequences), caplog.messages

    def assert_matches(self, texts, num_skills, monkeypatch, caplog):
        """Each call's bulk result, None where the bulk path left the text to the walk."""
        real = data._parse_plain
        bulk = []

        def recording(*args):
            bulk.append(real(*args))
            return bulk[-1]

        monkeypatch.setattr(data, "_parse_plain", recording)
        with caplog.at_level(logging.INFO, logger="atkt.data"):
            for text in texts:
                for n in (None, num_skills):
                    want = self.outcome(per_token_parse_triple_line, text, n, caplog)
                    assert self.outcome(parse_triple_line, text, n, caplog) == want, (text, n)
        return bulk

    def test_grammar_cases(self, monkeypatch, caplog):
        texts = list(TOLERATED)
        for field, _ in MALFORMED:
            texts += [f"2\n1,{field}\n1,0\n", f"2\n1,2\n1,{field}\n", f"{field}\n1,2\n1,0\n"]
        # The bulk path, not only the walk it falls back to, parsed some of them.
        assert any(result is not None for result in self.assert_matches(texts, 5, monkeypatch, caplog))

    def test_fuzzed_files(self, monkeypatch, caplog):
        rng = random.Random("atkt-parse-fuzz")
        texts = [mutate_data(rng, DATA_TEXT) for _ in range(400)]
        assert any(result is not None for result in self.assert_matches(texts, 6, monkeypatch, caplog))

    def test_plain_noise(self, monkeypatch, caplog):
        rng = random.Random("atkt-parse-plain")
        texts = [plain_noise_text(rng) for _ in range(600)]
        assert any(result is not None for result in self.assert_matches(texts, 6, monkeypatch, caplog))

    def test_workload_texts(self, monkeypatch, caplog):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from workloads import WORKLOADS, make_text

        texts = [make_text(w, seed, 1) for w in WORKLOADS.values() for seed in (21, 22, 23)]
        bulk = self.assert_matches(texts, 110, monkeypatch, caplog)
        # Every benchmark text takes the bulk path, with and without num_skills.
        assert len(bulk) == 2 * len(texts) and all(result is not None for result in bulk)


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

    def test_dataset_keeps_every_chunk_in_order(self):
        short = seq("short", [1, 2, 3], [0, 1, 0])
        ds = Dataset(sequences=(self.long_seq(1200), short, self.long_seq(501)), num_skills=7)
        out = segment_dataset(ds, max_len=500)
        assert out.num_skills == 7
        assert [(s.student_id, len(s)) for s in out.sequences] == [
            ("long/0", 500), ("long/1", 500), ("long/2", 200), ("short", 3), ("long/0", 500)]
        assert out.sequences[3] is short
        np.testing.assert_array_equal(
            np.concatenate([s.responses for s in out.sequences[:3]]), self.long_seq(1200).responses
        )

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
