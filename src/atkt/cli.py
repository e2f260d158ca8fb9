"""Command line interface: prepare | train | eval | sweep | trace.

Config files are flat ``key = value`` text with ``#`` comments. Unknown keys
are hard errors (a typo in a hyperparameter name must not silently run with
defaults). Exit codes: 0 success, 1 usage/config error or out of memory,
2 data error, 3 numerical failure (a diverging run, or a checkpoint whose
predictions are not finite).
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import model, svg
from .data import (
    DEFAULT_MAX_SEQ_LEN,
    MIN_SEQ_LEN,
    DataFormatError,
    Dataset,
    load_dataset,
    make_batches,
    make_folds,
    parse_triple_line,
    read_text,
    segment_dataset,
    serialize_triple_line,
)
from .linalg import ShapeError, sigmoid
from .metrics import DegenerateLabelsError, PredictionLog
from .model import CheckpointError, load_checkpoint, save_checkpoint
from .training import (
    SWEEP_BETAS,
    SWEEP_EPSILONS,
    DivergenceError,
    FIELD_TYPES,
    TrainConfig,
    evaluate,
    prepare_split_sequences,
    sweep,
    train,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# How many skills `trace` follows when --skills is not given.
DEFAULT_TRACKED = 5


class ConfigError(ValueError):
    """Bad config file contents."""


class DataError(Exception):
    """Requested records do not exist in the data or checkpoint."""


class UsageError(Exception):
    """Bad command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Config files.
# ---------------------------------------------------------------------------


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_value(key: str, raw: str):
    """One config value, parsed as the key's TrainConfig annotation says."""
    kind, optional = FIELD_TYPES[key]
    if optional and raw.lower() in ("none", "off"):
        return None
    return _parse_bool(raw) if kind is bool else kind(raw)


def parse_config_text(text: str) -> TrainConfig:
    """Parse flat key=value config text; unknown keys are errors."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse_value(key, raw_value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_config_text(text)


# Settings older checkpoints echo that are no longer config keys, each with the
# one value this program still runs.
RETIRED_KEYS = {"attention_window": "causal", "strict_truncate": False}


def config_from_echo(echo: dict, params: model.ModelParams) -> TrainConfig:
    """The TrainConfig a checkpoint echoes (other keys are ignored); a bad value
    there, a retired key at any other value or type than the one kept, or a
    dimension the arrays contradict, is a bad checkpoint."""
    for key, kept in RETIRED_KEYS.items():
        value = echo.get(key, kept)
        if type(value) is not type(kept) or value != kept:
            raise CheckpointError(f"checkpoint config: {key} {value!r} is not supported (only {kept!r})")
    try:
        config = TrainConfig.from_dict({k: v for k, v in echo.items() if k in FIELD_TYPES})
    except ValueError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from None
    for key in ("skill_dim", "resp_dim", "hidden_dim", "attn_dim"):
        if key in echo and echo[key] != getattr(params, key):
            raise CheckpointError(f"checkpoint config: {key} {echo[key]} contradicts the arrays")
    return config


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_prepare(args) -> int:
    if args.max_seq_len < MIN_SEQ_LEN:
        raise UsageError(f"--max-seq-len must be >= {MIN_SEQ_LEN}, got {args.max_seq_len}")
    text = read_text(args.data)
    if not text.strip():
        raise DataFormatError(1, "empty input file")
    dataset = parse_triple_line(text)
    print(
        f"{len(dataset.sequences):,} students, {dataset.num_skills:,} KSs, "
        f"{dataset.num_responses:,} responses"
    )
    normalized = segment_dataset(dataset, max_len=args.max_seq_len)
    if len(normalized.sequences) != len(dataset.sequences):
        print(
            f"segmented into {len(normalized.sequences):,} sequences "
            f"(max length {args.max_seq_len})"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_triple_line(normalized))
    return EXIT_OK


def _flag_list(flag: str, text: str, kind: type) -> list:
    """A comma list of ints or floats from the command line."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} takes a comma list of {kind.__name__}s, got {text!r}") from None


def _distinct(flag: str, values: list, noun: str) -> list:
    """``values``, unchanged; a value listed twice is a usage error naming the flag."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"{flag} repeats {noun} {repeated[0]:g}")
    return values


def _check_fold(fold: int, num_folds: int) -> int:
    if not 0 <= fold < num_folds:
        raise UsageError(f"fold must be in [0, {num_folds}), got {fold}")
    return fold


def _folds(dataset: Dataset, seed: int):
    """The dataset's folds; too few students to fill them is a data error."""
    try:
        return make_folds(dataset, seed)
    except ValueError as exc:
        raise DataError(str(exc)) from None


def _with_flag(config: TrainConfig, flag: str, **changes) -> TrainConfig:
    """``config`` with a command-line value applied; a bad value names its flag."""
    try:
        return replace(config, **changes)
    except ValueError as exc:
        raise ConfigError(f"{exc} (from {flag})") from None


def _apply_overrides(config: TrainConfig, args) -> TrainConfig:
    if args.seed is not None:
        config = _with_flag(config, "--seed", seed=args.seed)
    if getattr(args, "no_attention", False):
        config = replace(config, attention=False)
    return config


def _load_for_checkpoint(data_path, params: model.ModelParams) -> Dataset:
    dataset = load_dataset(data_path)
    if dataset.num_skills > params.num_skills:
        raise CheckpointError(
            f"dataset contains {dataset.num_skills} skills but the checkpoint "
            f"was trained with {params.num_skills}"
        )
    return Dataset(sequences=dataset.sequences, num_skills=params.num_skills)


def cmd_train(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    dataset = load_dataset(args.data)
    folds = _folds(dataset, config.seed)
    split = folds[_check_fold(args.fold, len(folds))]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    echo = dict(config.to_dict(), fold=args.fold)
    try:
        result = train(config, dataset, split)
    except DivergenceError as exc:
        if exc.last_good is not None:
            dump = out / "diverged_last_good.json"
            save_checkpoint(dump, exc.last_good, echo, timestamp=not args.no_timestamp)
            logger.error("training diverged at epoch %d; last good state in %s", exc.epoch, dump)
        raise
    save_checkpoint(out / "checkpoint.json", result.params, echo, timestamp=not args.no_timestamp)
    with open(out / "run.csv", "w", encoding="utf-8") as fh:
        result.record.write_csv(fh)
    curves = {
        "train_loss": [e.train_loss for e in result.record.epochs],
        "val_loss": [e.val_loss for e in result.record.epochs],
    }
    with open(out / "loss_curve.svg", "w", encoding="utf-8") as fh:
        fh.write(svg.line_chart(curves, title=f"loss per epoch (fold {args.fold})"))
    print(
        f"fold={args.fold} epochs_run={len(result.record.epochs)} "
        f"best_epoch={result.record.best_epoch} "
        f"best_val_auc={result.record.best_val_auc:.6f} "
        f"best_val_loss={result.record.best_val_loss:.6f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    params, echo = load_checkpoint(args.checkpoint)
    config = config_from_echo(echo, params)
    dataset = _load_for_checkpoint(args.data, params)
    folds = _folds(dataset, config.seed)
    if args.all_folds:
        fold_ids = range(len(folds))
    elif args.fold is not None:
        fold_ids = [_check_fold(args.fold, len(folds))]
    else:
        echoed = echo.get("fold", 0)
        if type(echoed) is not int or not 0 <= echoed < len(folds):
            raise CheckpointError(
                f"checkpoint config: fold must be an int in [0, {len(folds)}), got {echoed!r}"
            )
        fold_ids = [echoed]
    logs = []
    scores = []
    for k in fold_ids:
        split = folds[k]
        indices = getattr(split, args.split)
        seqs = prepare_split_sequences(dataset, indices, config)
        loss, fold_auc, log = evaluate(params, seqs, config, dataset.num_skills)
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite predictions on fold {k}")
        scores.append(fold_auc)
        logs.append(log)
        print(f"fold {k} {args.split} AUC {fold_auc:.6f}")
    if args.all_folds:
        print(f"AUC {np.mean(scores):.6f} ± {np.std(scores):.6f} across {len(scores)} folds")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            PredictionLog.concat(logs).write_csv(fh)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    dataset = load_dataset(args.data)
    folds = _folds(dataset, config.seed)
    if args.folds:
        wanted = [_check_fold(k, len(folds)) for k in _flag_list("--folds", args.folds, int)]
        folds = [folds[k] for k in _distinct("--folds", wanted, "fold")]
    epsilons = _distinct("--epsilons", _flag_list("--epsilons", args.epsilons, float), "epsilon")
    betas = _distinct("--betas", _flag_list("--betas", args.betas, float), "beta")
    # A cell's config is valid iff its epsilon and its beta are, so each list
    # is checked on its own and a bad value names its flag.
    for eps in epsilons:
        _with_flag(config, "--epsilons", epsilon=eps)
    for beta in betas:
        _with_flag(config, "--betas", epsilon=epsilons[0], beta=beta)
    result = sweep(config, dataset, folds, epsilons=epsilons, betas=betas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        result.write_csv(fh)
    best_eps, best_beta = result.best
    print(f"best: epsilon={best_eps:g} beta={best_beta:g} mean_val_auc={result.grid.max():.6f}")
    return EXIT_OK


def _pick_sequence(dataset: Dataset, args):
    if args.student is not None:
        for seq in dataset.sequences:
            if seq.student_id == args.student:
                return seq
        raise DataError(f"student {args.student!r} not found")
    index = args.index or 0
    if not 0 <= index < len(dataset.sequences):
        raise DataError(f"sequence index {index} out of range")
    return dataset.sequences[index]


def _default_tracked(seq) -> list[int]:
    values, counts = np.unique(seq.skills, return_counts=True)
    order = np.lexsort((values, -counts))
    return [int(values[i]) for i in order[:DEFAULT_TRACKED]]


def cmd_trace(args) -> int:
    params, echo = load_checkpoint(args.checkpoint)
    config = config_from_echo(echo, params)
    dataset = _load_for_checkpoint(args.data, params)
    seq = _pick_sequence(dataset, args)
    if args.skills:
        tracked = _distinct("--skills", _flag_list("--skills", args.skills, int), "skill")
        for s in tracked:
            if not 0 <= s < params.num_skills:
                raise DataError(f"unknown skill id {s}")
    else:
        tracked = _default_tracked(seq)
    batch = make_batches([seq], dataset.num_skills, batch_size=1, rng=None)[0]
    with np.errstate(all="ignore"):  # overflow is reported below, once
        trace, _ = model.forward(params, batch, attention_enabled=config.attention)
        probs = model.skill_probs(params, trace)
    steps = len(seq)
    # Row 0 is the untouched initial state (a zero composite leaves only
    # head_b); row t the state after the first t interactions, i.e. what the
    # model believes just before seeing the outcome of exercise t+1.
    grid = np.empty((steps, len(tracked)))
    grid[0] = sigmoid(params.head_b[tracked])
    grid[1:] = probs[:, tracked]  # one batch row: packed order is step order
    if not np.all(np.isfinite(grid)):
        raise FloatingPointError(f"non-finite mastery probabilities for {seq.student_id}")
    attempts = [(int(seq.skills[t]), int(seq.responses[t])) for t in range(steps)]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step"] + [f"skill_{s}" for s in tracked] + ["attempt_skill", "attempt_correct"])
        for t in range(steps):
            writer.writerow([t] + [repr(float(v)) for v in grid[t]] + [attempts[t][0], attempts[t][1]])
    labels = [f"skill {s}" for s in tracked]
    with open(out / "trace.svg", "w", encoding="utf-8") as fh:
        fh.write(svg.mastery_heatmap(grid, labels, attempts, tracked))
    with open(out / "mastery_change.csv", "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["skill", "initial", "final"])
        for i, s in enumerate(tracked):
            writer.writerow([s, repr(float(grid[0, i])), repr(float(grid[-1, i]))])
    with open(out / "mastery_change.svg", "w", encoding="utf-8") as fh:
        fh.write(
            svg.bar_pairs(labels, list(grid[0]), list(grid[-1]), title="mastery: first vs last step")
        )
    print(f"traced {seq.student_id}: {steps} steps x {len(tracked)} skills -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="atkt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="validate, filter and normalize a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-seq-len", type=int, default=DEFAULT_MAX_SEQ_LEN)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train one fold and write run artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--no-attention", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--fold", type=int, default=None)
    which.add_argument("--all-folds", action="store_true")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", default=None, help="write the prediction log CSV here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="train the epsilon x beta grid")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epsilons", default=",".join(f"{e:g}" for e in SWEEP_EPSILONS))
    p.add_argument("--betas", default=",".join(f"{b:g}" for b in SWEEP_BETAS))
    p.add_argument("--folds", default=None, help="comma list of fold indices (default: all)")
    p.add_argument("--no-attention", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("trace", help="export a mastery trace as CSV + SVG")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--student", default=None)
    # None, not 0: argparse counts a flag whose value is its default as absent.
    which.add_argument("--index", type=int, default=None)
    p.add_argument("--skills", default=None, help="comma list of skill ids to track")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit:  # only -h/--help exits; parse errors raise UsageError
        return EXIT_OK
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, DegenerateLabelsError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataFormatError, CheckpointError, ShapeError, DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
