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
    """Malformed input file; the message starts with the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")


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
    values = []
    for tok in tokens:
        tok = tok.strip()
        try:
            values.append(_plain_int(tok))
        except ValueError:
            raise DataFormatError(line_number, f"non-integer {what} token {tok!r}") from None
    return values


# The bytes of the plain grammar: ASCII digits, ",", newline. That is all
# ``serialize_triple_line`` writes; other files are read token by token.
_PLAIN_BYTES = b"0123456789,\n"
# Longer tokens go to the per-token walk, because the bulk conversion adds
# up digits in int64, which holds any 18-digit number.
_MAX_PLAIN_TOKEN = 18


def parse_triple_line(text: str, num_skills: int | None = None) -> Dataset:
    """Parse triple-line text into a Dataset.

    Groups with fewer than 2 interactions are dropped (with a logged count).
    ``num_skills`` may force a larger skill universe than the file exhibits.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    starts = _group_starts(lines)
    # A file in the plain grammar that breaks no rule converts in bulk; the
    # per-token walk parses any other file or raises its first error.
    plain = text.isascii() and not text.encode("ascii").translate(None, _PLAIN_BYTES)
    parsed = _parse_plain(lines, starts) if plain else None
    sequences, max_skill = parsed or _parse_tokens(lines, starts)
    dropped = len(starts) - len(sequences)
    if dropped:
        logger.info("dropped %d sequence(s) shorter than %d interactions", dropped, MIN_SEQ_LEN)
    inferred = max_skill + 1
    if num_skills is None:
        num_skills = inferred
    elif num_skills < inferred:
        raise ValueError(f"num_skills={num_skills} but file contains skill id {max_skill}")
    return Dataset(sequences=tuple(sequences), num_skills=num_skills)


def _group_starts(lines: list[str]) -> list[int]:
    """Each group's count line index: a blank line is skipped only where a count is expected."""
    starts = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "":
            i += 1
            continue
        starts.append(i)
        i += 3
    return starts


def _parse_tokens(lines: list[str], starts: list[int]) -> tuple[list[InteractionSequence], int]:
    """What ``_sequences`` returns for the file, read token by token.

    Raises the ``DataFormatError`` of the first rule the file breaks.
    """
    counts, all_skills, all_responses = [], [], []
    for i in starts:
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
        line_max = max(skills, default=-1)
        if line_max >= MAX_SKILLS:
            raise DataFormatError(i + 2, f"skill id {line_max} is not below the cap of {MAX_SKILLS:,}")
        counts.append(count)
        all_skills += skills
        all_responses += responses
    return _sequences(counts, np.array(all_skills, dtype=np.int64), np.array(all_responses, dtype=np.int64))


def _parse_plain(lines: list[str], starts: list[int]) -> tuple[list[InteractionSequence], int] | None:
    """What ``_parse_tokens`` returns, in bulk, for lines in the plain grammar.

    None when the file breaks a rule or has a token longer than
    ``_MAX_PLAIN_TOKEN``, so that the per-token walk decides.
    """
    if starts and starts[-1] + 2 >= len(lines):
        return None
    try:
        # On plain lines int() reads exactly what _plain_int reads.
        counts = np.array([int(lines[i]) for i in starts], dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    numbers = _plain_numbers([lines[i + 1] for i in starts] + [lines[i + 2] for i in starts])
    if numbers is None:
        return None
    values, per_line = numbers
    # Token counts are never negative, so this also rejects a negative count.
    if not np.array_equal(per_line, np.tile(counts, 2)):
        return None
    skills, responses = np.split(values, 2)
    if skills.size and (
        skills.min() < 0 or skills.max() >= MAX_SKILLS or responses.min() < 0 or responses.max() > 1
    ):
        return None
    return _sequences(counts.tolist(), skills, responses)


def _sequences(
    counts: list[int], skills: np.ndarray, responses: np.ndarray
) -> tuple[list[InteractionSequence], int]:
    """The groups of at least ``MIN_SEQ_LEN`` interactions, and the largest skill id (-1 if none).

    Group g holds the next ``counts[g]`` values of the int64 arrays ``skills``
    and ``responses`` and becomes sequence ``student-{g}``.
    """
    sequences = []
    offset = 0
    for group, count in enumerate(counts):
        if count >= MIN_SEQ_LEN:
            stop = offset + count
            sequences.append(_sequence(f"student-{group}", skills[offset:stop], responses[offset:stop]))
        offset += count
    return sequences, int(skills.max()) if skills.size else -1


def _plain_numbers(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """All values of comma-separated lines of digits, and each line's token count.

    A line reads as ``_parse_int_list`` reads it: split at commas, with the
    empty tail fields dropped and every other field a run of digits. None
    when a line has an empty field before a token or a token is longer than
    ``_MAX_PLAIN_TOKEN``.
    """
    # A newline before every line and after the last gives every byte two
    # neighbours and gives len(lines) + 1 newlines, also when lines is empty.
    c = np.frombuffer("\n".join(["", *lines, ""]).encode("ascii"), dtype=np.uint8)
    digit = c >= ord("0")  # every other byte is "," or a newline
    # An empty field ends at a comma right after a comma or a line start.
    empty_field = (c[1:] == ord(",")) & ~digit[:-1]
    if np.any(empty_field[:-1] & digit[2:]):
        return None
    # Tokens alternate with separator runs, and the block starts and ends
    # with a separator, so the places where c turns to or from a digit
    # alternate too: the separator before each token, and its last digit.
    turns = np.flatnonzero(digit[1:] != digit[:-1])
    before, last = turns[0::2], turns[1::2]
    # A line's tokens are those whose separator-before lies before its newline.
    per_line = np.diff(np.searchsorted(before, np.flatnonzero(c == ord("\n"))))
    if before.size == 0:
        return np.zeros(0, dtype=np.int64), per_line
    width = int((last - before).max())
    if width > _MAX_PLAIN_TOKEN:
        return None
    # Each token's digits times powers of ten, one place per pass from the
    # last digit back. Digits are 0 at separators, and a place before the
    # token reads the separator just before it.
    digits = (c - ord("0")) * digit  # uint8, 0 where c - 48 wrapped
    values = digits[last].astype(np.int64)
    for k in range(1, width):
        values += digits[np.maximum(last - k, before)].astype(np.int64) * 10**k
    return values, per_line


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


def segment_long(seq: InteractionSequence, max_len: int = DEFAULT_MAX_SEQ_LEN) -> list[InteractionSequence]:
    """Split an over-long sequence into consecutive chunks of <= max_len.

    A trailing chunk of length 1 is dropped (it has no prediction target).
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
    return out


def segment_dataset(dataset: Dataset, max_len: int = DEFAULT_MAX_SEQ_LEN) -> Dataset:
    out: list[InteractionSequence] = []
    for seq in dataset.sequences:
        out.extend(segment_long(seq, max_len=max_len))
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
