"""Interaction-log ingestion, cross-validation splits, batching, synthesis.

The on-disk format is the community-standard "triple line" layout: for each
student, a line with the interaction count, a comma-separated line of skill
ids, and a comma-separated line of 0/1 responses. Sequences shorter than 2
carry no prediction target and are dropped at parse time. Skill ids must lie
in [0, MAX_SKILLS).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import Rng

logger = logging.getLogger(__name__)

DEFAULT_MAX_SEQ_LEN = 500
MIN_SEQ_LEN = 2
NUM_FOLDS = 5
# Skill ids index dense tables (embeddings, head rows, Adam moments), so the
# parser rejects ids at or above this cap instead of sizing them all by it.
MAX_SKILLS = 100_000


class DataFormatError(ValueError):
    """Malformed input file; carries the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class InteractionSequence:
    """One student's ordered (skill, response) pairs."""

    student_id: str
    skills: np.ndarray  # int64 [T]
    responses: np.ndarray  # int64 [T], each 0 or 1

    def __len__(self) -> int:
        return int(self.skills.shape[0])


@dataclass(frozen=True)
class Dataset:
    sequences: tuple[InteractionSequence, ...]
    num_skills: int

    @property
    def num_responses(self) -> int:
        return sum(len(s) for s in self.sequences)


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint train/val/test indices into ``Dataset.sequences`` (3:1:1)."""

    fold_index: int
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


@dataclass(frozen=True)
class Batch:
    """Rectangular padded arrays for a group of sequences.

    The padding sentinel for skills is ``num_skills`` (one past the valid
    range). Cell (b, t) is real iff t < seq_lens[b]; padded cells are
    excluded from embeddings, attention, loss, and gradients.
    """

    skills: np.ndarray  # int64 [B, L]
    responses: np.ndarray  # int64 [B, L]
    seq_lens: np.ndarray  # int64 [B]
    student_ids: tuple[str, ...]
    num_skills: int

    @property
    def size(self) -> int:
        return int(self.skills.shape[0])

    @property
    def max_len(self) -> int:
        return int(self.skills.shape[1])


def _sequence(student_id: str, skills, responses) -> InteractionSequence:
    return InteractionSequence(
        student_id=student_id,
        skills=np.asarray(skills, dtype=np.int64),
        responses=np.asarray(responses, dtype=np.int64),
    )


def _plain_int(tok: str) -> int:
    """``int(tok)`` for ASCII digits with an optional leading "-" only.

    ``int`` alone also reads "+1", "1_0" and non-ASCII digits such as "١".
    """
    digits = tok[1:] if tok.startswith("-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(tok)
    return int(tok)


def _parse_int_list(line: str, line_number: int, what: str) -> list[int]:
    # Community files often carry a trailing comma; tolerate empty tail tokens.
    tokens = line.strip().split(",")
    while tokens and tokens[-1] == "":
        tokens.pop()
    # On an ASCII line with no "+" or "_", int() reads exactly the plain
    # integers, so only other lines pay for the per-token check.
    parse = int if line.isascii() and "+" not in line and "_" not in line else _plain_int
    values = []
    for tok in tokens:
        tok = tok.strip()
        try:
            values.append(parse(tok))
        except ValueError:
            raise DataFormatError(line_number, f"non-integer {what} token {tok!r}") from None
    return values


def parse_triple_line(text: str, num_skills: int | None = None) -> Dataset:
    """Parse triple-line text into a Dataset.

    Groups with fewer than 2 interactions are dropped (with a logged count).
    ``num_skills`` may force a larger skill universe than the file exhibits.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    sequences: list[InteractionSequence] = []
    dropped = 0
    max_skill = -1
    i = 0
    group = 0
    while i < len(lines):
        if lines[i].strip() == "":
            i += 1
            continue
        count_line_no = i + 1
        count_tok = lines[i].strip()
        try:
            count = _plain_int(count_tok)
        except ValueError:
            raise DataFormatError(count_line_no, f"expected interaction count, got {count_tok!r}") from None
        if count < 0:
            raise DataFormatError(count_line_no, f"negative interaction count {count}")
        if i + 2 >= len(lines):
            raise DataFormatError(count_line_no, "truncated group: need skill and response lines")
        skills = _parse_int_list(lines[i + 1], i + 2, "skill")
        responses = _parse_int_list(lines[i + 2], i + 3, "response")
        if len(skills) != count:
            raise DataFormatError(i + 2, f"declared {count} interactions but found {len(skills)} skills")
        if len(responses) != count:
            raise DataFormatError(i + 3, f"declared {count} interactions but found {len(responses)} responses")
        for s in skills:
            if s < 0:
                raise DataFormatError(i + 2, f"negative skill id {s}")
        for a in responses:
            if a not in (0, 1):
                raise DataFormatError(i + 3, f"response must be 0 or 1, got {a}")
        if skills:
            line_max = max(skills)
            if line_max >= MAX_SKILLS:
                raise DataFormatError(i + 2, f"skill id {line_max} is not below the cap of {MAX_SKILLS:,}")
            max_skill = max(max_skill, line_max)
        if count >= MIN_SEQ_LEN:
            sequences.append(_sequence(f"student-{group}", skills, responses))
        else:
            dropped += 1
        group += 1
        i += 3
    if dropped:
        logger.info("dropped %d sequence(s) shorter than %d interactions", dropped, MIN_SEQ_LEN)
    inferred = max_skill + 1
    if num_skills is None:
        num_skills = inferred
    elif num_skills < inferred:
        raise ValueError(f"num_skills={num_skills} but file contains skill id {max_skill}")
    return Dataset(sequences=tuple(sequences), num_skills=num_skills)


def serialize_triple_line(dataset: Dataset) -> str:
    """Inverse of ``parse_triple_line`` (normalized: no trailing commas)."""
    parts = []
    for seq in dataset.sequences:
        parts.append(str(len(seq)))
        parts.append(",".join(str(int(s)) for s in seq.skills))
        parts.append(",".join(str(int(a)) for a in seq.responses))
    return "\n".join(parts) + ("\n" if parts else "")


def read_text(path) -> str:
    """A data file's text; bytes that are not UTF-8 are a DataFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(raw.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc.reason}") from None


def load_dataset(path) -> Dataset:
    return parse_triple_line(read_text(path))


def make_folds(dataset: Dataset, seed: int) -> list[FoldSplit]:
    """Five student-level splits with a 3:1:1 train:val:test ratio.

    Students are shuffled once by ``seed`` and cut into 5 nearly equal
    chunks; fold k uses chunk k as test, chunk k+1 (mod 5) as val, and the
    remaining three chunks as train. Chunk sizes differ by at most one.
    """
    n = len(dataset.sequences)
    if n < NUM_FOLDS:
        raise ValueError(f"need at least {NUM_FOLDS} sequences to build folds, got {n}")
    perm = Rng(seed).split("folds").permutation(n)
    chunks = np.array_split(perm, NUM_FOLDS)
    folds = []
    for k in range(NUM_FOLDS):
        test = chunks[k]
        val = chunks[(k + 1) % NUM_FOLDS]
        train_parts = [chunks[j] for j in range(NUM_FOLDS) if j != k and j != (k + 1) % NUM_FOLDS]
        train = np.concatenate(train_parts)
        folds.append(
            FoldSplit(
                fold_index=k,
                train=tuple(int(i) for i in train),
                val=tuple(int(i) for i in val),
                test=tuple(int(i) for i in test),
            )
        )
    return folds


def segment_long(
    seq: InteractionSequence, max_len: int = DEFAULT_MAX_SEQ_LEN, strict: bool = False
) -> list[InteractionSequence]:
    """Split an over-long sequence into consecutive chunks of <= max_len.

    A trailing chunk of length 1 is dropped (it has no prediction target).
    With ``strict=True`` only the first chunk is kept (hard truncation).
    """
    if max_len < MIN_SEQ_LEN:
        raise ValueError(f"max_len must be >= {MIN_SEQ_LEN}, got {max_len}")
    if len(seq) <= max_len:
        return [seq]
    out = []
    for k, start in enumerate(range(0, len(seq), max_len)):
        stop = min(start + max_len, len(seq))
        if stop - start < MIN_SEQ_LEN:
            break
        out.append(
            _sequence(f"{seq.student_id}/{k}", seq.skills[start:stop], seq.responses[start:stop])
        )
        if strict:
            break
    return out


def segment_dataset(dataset: Dataset, max_len: int = DEFAULT_MAX_SEQ_LEN, strict: bool = False) -> Dataset:
    out: list[InteractionSequence] = []
    for seq in dataset.sequences:
        out.extend(segment_long(seq, max_len=max_len, strict=strict))
    return Dataset(sequences=tuple(out), num_skills=dataset.num_skills)


def make_batches(
    sequences: list[InteractionSequence],
    num_skills: int,
    batch_size: int,
    rng: Rng | None = None,
) -> list[Batch]:
    """Group sequences into padded batches.

    With an ``rng`` the order is reshuffled (pass a fresh epoch-labelled
    stream each epoch); with ``rng=None`` the given order is kept, which is
    what evaluation uses.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = list(range(len(sequences)))
    if rng is not None:
        order = [int(i) for i in rng.permutation(len(sequences))]
    batches = []
    for start in range(0, len(order), batch_size):
        group = [sequences[i] for i in order[start : start + batch_size]]
        batches.append(_pad_batch(group, num_skills))
    return batches


def _pad_batch(group: list[InteractionSequence], num_skills: int) -> Batch:
    lens = np.array([len(s) for s in group], dtype=np.int64)
    if lens.min() < MIN_SEQ_LEN:
        short = group[int(lens.argmin())].student_id
        raise ValueError(f"sequence {short!r} has no prediction target (length < {MIN_SEQ_LEN})")
    width = int(lens.max())
    b = len(group)
    skills = np.full((b, width), num_skills, dtype=np.int64)  # sentinel pad
    responses = np.zeros((b, width), dtype=np.int64)
    for i, seq in enumerate(group):
        t = len(seq)
        skills[i, :t] = seq.skills
        responses[i, :t] = seq.responses
    return Batch(
        skills=skills,
        responses=responses,
        seq_lens=lens,
        student_ids=tuple(s.student_id for s in group),
        num_skills=num_skills,
    )


def generate_synthetic(
    num_students: int,
    num_skills: int,
    seq_len: int,
    learn_rate: float,
    guess: float,
    slip: float,
    seed: int,
) -> Dataset:
    """Two-state mastery simulator used as a test oracle.

    Each student starts with every skill unmastered. At each step a uniformly
    random skill is attempted; the response is correct with probability
    1-slip when mastered and ``guess`` otherwise, and mastery switches on
    with probability ``learn_rate`` after the attempt.
    """
    for name, value in (("learn_rate", learn_rate), ("guess", guess), ("slip", slip)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    rng = Rng(seed).split("synthetic")
    sequences = []
    for i in range(num_students):
        mastered = np.zeros(num_skills, dtype=bool)
        skills = rng.integers(0, num_skills, size=seq_len)
        correct_draws = rng.random(size=seq_len)
        learn_draws = rng.random(size=seq_len)
        responses = np.empty(seq_len, dtype=np.int64)
        for t in range(seq_len):
            s = skills[t]
            p_correct = (1.0 - slip) if mastered[s] else guess
            responses[t] = 1 if correct_draws[t] < p_correct else 0
            if learn_draws[t] < learn_rate:
                mastered[s] = True
        sequences.append(_sequence(f"synth-{i}", skills, responses))
    return Dataset(sequences=tuple(sequences), num_skills=num_skills)
