"""Seeded mutation fuzzer for the command line.

Each case mutates one valid input (data file, config file, checkpoint
document or argument vector), runs ``cli.main`` in process and requires a
documented exit code (0 success, 1 usage/config, 2 data, 3 numerical) and,
on failure, exactly one line on stderr. Nothing may escape ``main``: under
this suite's warning filter that includes numpy's RuntimeWarnings. Cases come
from ``random.Random`` with fixed seeds, so every run tries the same inputs.
Inputs stay tiny and training runs one epoch, which keeps the whole budget to
a few seconds; mutated values are small for the same reason.
"""

import base64
import contextlib
import csv
import io
import json
import math
import random
import re

import numpy as np
import pytest

from atkt import cli, model
from atkt.adversarial import FGSM_SCOPES
from atkt.data import MAX_SKILLS, generate_synthetic, serialize_triple_line
from atkt.linalg import Rng
from atkt.training import FIELD_TYPES, TrainConfig

CASES = {"data": 60, "config": 70, "checkpoint": 110, "argv": 90}

BASE_CONFIG = """\
skill_dim = 6
resp_dim = 3
hidden_dim = 5
attn_dim = 5
batch_size = 8
patience = none
seed = 11
epsilon = 1.5
beta = 0.5
"""
# Appended after mutation, so that no case trains for more than one epoch.
ONE_EPOCH = "max_epochs = 1\n"
# Added to every sweep that lacks them, so that no grid is larger than a few cells on one fold.
SWEEP_BOUNDS = {"--epsilons": "1", "--betas": "0,0.5", "--folds": "0"}

TEXT_TOKENS = ["", "0", "1", "2", "3", "-1", "7", "2.5", "x", "nan", "inf", "1e400", "none",
               "true", ",", "=", "#", " ", "\n", "\t", "é"]
# The valid data file that data cases mutate.
DATA_TEXT = serialize_triple_line(generate_synthetic(20, 4, 8, learn_rate=0.3, guess=0.25, slip=0.1, seed=7))
CONFIG_VALUES = ["0", "1", "2", "3", "-1", "0.5", "1.0", "1e-8", "1e200", "x", "", "nan", "inf",
                 "none", "off", "true", "false", "causal", "sequence", "global", "per_sequence"]
PLAUSIBLE = {
    int: ["1", "2", "3", "4", "7", "0"],
    float: ["0.5", "0.9", "1", "2", "1e-3", "1e200"],
    bool: ["true", "false", "on", "0"],
    str: [*FGSM_SCOPES, "per_step"],  # fgsm_scope is the only string key
}
ECHO_VALUES = [None, -1, 0, 1, 2, 5, 2.5, 1e308, -1e308, "x", "", True, False, [], {}, [1],
               10**30, "causal", "sequence", "global"]
ARGV_TOKENS = ["-1", "0", "1", "4", "9", "", "x", "0,0", "1,1", "-0", "1e3", "nan", "inf",
               "0,x", ",", "10**30", "999999999999999999999", "--bogus", "--", "-h"]
FLAG_VALUES = {
    "--seed": ["0", "5", "-1", "x"],
    "--fold": ["0", "4", "5", "-1"],
    "--index": ["0", "19", "20", "-1"],
    "--student": ["student-3", "nobody"],
    "--skills": ["0,3", "0,9", "-1", "x", "2,2"],
    "--split": ["train", "val", "test", "bogus"],
    "--max-seq-len": ["1", "2", "5", "1000"],
    "--epsilons": ["0", "2", "-1", "x", "nan", "1,2"],
    "--betas": ["0", "1", "-1", "x", "inf", "0,0"],
    "--folds": ["1", "0,0", "5", "x", "1,2", ""],
    "--all-folds": [],
    "--no-attention": [],
    "--no-timestamp": [],
    "--data": ["missing.txt"],
    "--out": ["."],
}
COMMAND_FLAGS = {
    "prepare": ["--max-seq-len"],
    "train": ["--seed", "--fold", "--no-attention", "--no-timestamp"],
    "eval": ["--fold", "--all-folds", "--split"],
    "sweep": ["--seed", "--epsilons", "--betas", "--folds", "--no-attention"],
    "trace": ["--student", "--index", "--skills"],
}
COMMANDS = ["prepare", "train", "eval", "sweep", "trace"]


def mutate_text(rng: random.Random, text: str, tokens) -> str:
    """One to three edits: delete or insert characters, replace a number, drop/copy/swap lines."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        lines = text.split("\n")
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 3) :]
        elif op == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(tokens) + text[i:]
        elif op == 2:
            numbers = list(re.finditer(r"-?\d+(\.\d+)?", text))
            if numbers:
                m = rng.choice(numbers)
                text = text[: m.start()] + rng.choice(tokens) + text[m.end() :]
        elif op == 3:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 4:
            i = rng.randrange(len(lines))
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
            text = "\n".join(lines)
        else:
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def mutate_data(rng: random.Random, text: str) -> str:
    """Mostly edits that keep the triple-line layout; otherwise raw text edits."""
    groups = [text.split("\n")[i : i + 3] for i in range(0, len(text.split("\n")) - 1, 3)]
    for _ in range(rng.randint(1, 2)):
        g = rng.randrange(len(groups))
        count, skills, responses = groups[g]
        op = rng.randrange(7)
        if op == 0:
            skills = ",".join(str(rng.choice([0, 1, 3, 5, 12, -1, MAX_SKILLS, 2**63, 10**30]))
                              if rng.random() < 0.3 else tok for tok in skills.split(","))
        elif op == 1:
            responses = ",".join(str(rng.choice([0, 1, 1, 2])) for _ in responses.split(","))
        elif op == 2:
            keep = rng.randint(0, len(skills.split(",")))
            count, skills, responses = str(keep), *(",".join(line.split(",")[:keep]) for line in (skills, responses))
        elif op == 3:
            count = rng.choice(["0", "1", "-1", str(len(skills.split(",")) + 1), "x", ""])
        elif op == 4:
            del groups[g]
            groups = groups or [["2", "0,1", "1,0"]]
            continue
        elif op == 5:
            groups.insert(g, list(groups[g]))
        else:
            del groups[rng.randrange(len(groups)) :]
            groups = groups or [["2", "0,1", "1,0"]]
            continue
        groups[g] = [count, skills, responses]
    text = "\n".join("\n".join(group) for group in groups) + "\n"
    return mutate_text(rng, text, TEXT_TOKENS) if rng.random() < 0.3 else text


def encode(rng: random.Random, text: str) -> bytes:
    raw = text.encode("utf-8")
    if rng.random() < 0.05:
        i = rng.randrange(len(raw) + 1)
        raw = raw[:i] + b"\xff" + raw[i:]
    return raw


def mutate_config(rng: random.Random, text: str) -> str:
    """Mostly a plausible value for one key; otherwise a junk line or a text edit."""
    op = rng.random()
    if op < 0.6:
        key = rng.choice(sorted(set(FIELD_TYPES) - {"max_epochs"}))
        kind, optional = FIELD_TYPES[key]
        values = CONFIG_VALUES if rng.random() < 0.3 else PLAUSIBLE[kind] + ["none"] * optional
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        return "\n".join(lines + [f"{key} = {rng.choice(values)}"]) + "\n"
    if op < 0.75:
        return text + rng.choice(["learning_rate = 0.1\n", "no equals sign\n", "= 3\n", "seed = 1\n"])
    return mutate_text(rng, text, CONFIG_VALUES)


def mutate_checkpoint(rng: random.Random, doc: dict) -> tuple[dict | list | str, bool]:
    """A mutated document, and whether to recompute its checksum."""
    arrays, echo = doc["arrays"], doc["config"]
    name = rng.choice(sorted(arrays))
    entry = arrays[name]
    op = rng.randrange(9)
    if op == 0:
        echo[rng.choice(sorted(FIELD_TYPES) + ["fold"])] = rng.choice(ECHO_VALUES)
    elif op == 1:
        echo.pop(rng.choice(sorted(echo)))
    elif op == 2:
        shape = entry["shape"]
        if shape:
            shape[rng.randrange(len(shape))] = rng.choice([0, 1, 2, -1, 10**12, 2.0, "x", None])
        else:
            entry["shape"] = rng.choice([[], [1], "x", None])
    elif op == 3:
        data = entry["data"]
        i = rng.randrange(len(data) + 1)
        entry["data"] = rng.choice([data[:i], data[:i] + "!" + data[i + 1 :], data + "AAAA", ""])
    elif op == 4:
        values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
        picks = rng.sample(range(values.size), k=min(values.size, rng.randint(1, 4)))
        values[picks] = rng.choice([np.nan, np.inf, 1e308, -1e308, 1e-320, 0.0])
        if rng.random() < 0.5:
            values[:] = [rng.choice([1e308, -1e308]) for _ in range(values.size)]
        entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    elif op == 5:
        del arrays[name]
    elif op == 6:
        doc[rng.choice(["format", "version", "checksum", "config", "arrays"])] = rng.choice(ECHO_VALUES)
        return doc, False
    elif op == 7:
        return rng.choice([[doc], "text", 3, None]), False
    else:
        text = json.dumps(doc)
        return text[: rng.randrange(len(text))], False
    return doc, rng.random() < 0.7


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """Mostly one of the command's flags with a plausible value; otherwise a raw token edit."""
    argv = list(argv)
    flags = COMMAND_FLAGS[argv[0]]  # looked up once: the first edit may delete the command
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(8)
        if op >= 3:
            flag = rng.choice(flags)
            argv += [flag] + ([rng.choice(FLAG_VALUES[flag])] if FLAG_VALUES[flag] else [])
        elif op == 0:
            del argv[rng.randrange(len(argv))]
        elif op == 1:
            argv[rng.randrange(1, len(argv))] = rng.choice(ARGV_TOKENS)
        else:
            argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(sorted(FLAG_VALUES)))
        if not argv:
            break
    return argv


class Inputs:
    """The valid files every case starts from, and an argv for each command."""

    def __init__(self, root):
        self.root = root
        self.data = root / "data.txt"
        self.data.write_text(DATA_TEXT)
        self.config = root / "config.cfg"
        self.config.write_text(BASE_CONFIG + ONE_EPOCH)
        cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
        params = model.init_params(4, 6, 3, 5, 5, Rng(0).split("init"))
        self.checkpoint = root / "checkpoint.json"
        model.save_checkpoint(self.checkpoint, params, dict(cfg.to_dict(), fold=0), timestamp=False)
        self.out = root / "out"

    def argv(self, command, data=None, config=None, checkpoint=None) -> list[str]:
        data, config = data or self.data, config or self.config
        checkpoint = checkpoint or self.checkpoint
        return {
            "prepare": ["prepare", "--data", data, "--out", self.root / "prepared.txt",
                        "--max-seq-len", "5"],
            "train": ["train", "--config", config, "--data", data, "--out", self.out, "--no-timestamp"],
            "eval": ["eval", "--checkpoint", checkpoint, "--data", data, "--out", self.root / "log.csv"],
            "sweep": ["sweep", "--config", config, "--data", data, "--out", self.out,
                      *(token for pair in SWEEP_BOUNDS.items() for token in pair)],
            "trace": ["trace", "--checkpoint", checkpoint, "--data", data, "--out", self.out,
                      "--index", "1"],
        }[command]


def run_case(label: str, argv) -> int:
    argv = [str(a) for a in argv]
    if argv and argv[0] == "sweep":
        for flag, value in SWEEP_BOUNDS.items():
            if flag not in argv:
                argv += [flag, value]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except BaseException as exc:
        pytest.fail(f"{label}: {type(exc).__name__}: {exc} escaped main() for argv {argv}")
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (label, argv, code, lines)
    if code:
        assert len(lines) == 1 and lines[0].strip(), (label, argv, code, lines)
    return code


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cli_survives_mutated_inputs(tmp_path, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)  # a mutated --out may name a relative path
    rng = random.Random(f"atkt-fuzz-{kind}")
    inputs = Inputs(tmp_path)
    base_doc = json.loads(inputs.checkpoint.read_text())
    codes = []
    for case in range(CASES[kind]):
        label = f"{kind} case {case}"
        path = tmp_path / f"case-{case}"
        if kind == "data":
            path.write_bytes(encode(rng, mutate_data(rng, DATA_TEXT)))
            argv = inputs.argv(rng.choice(COMMANDS), data=path)
        elif kind == "config":
            path.write_bytes(encode(rng, mutate_config(rng, BASE_CONFIG) + ONE_EPOCH))
            argv = inputs.argv(rng.choice(["train", "train", "sweep"]), config=path)
        elif kind == "checkpoint":
            doc, rehash = mutate_checkpoint(rng, json.loads(json.dumps(base_doc)))
            if rehash:
                doc["checksum"] = model._checkpoint_digest(doc["arrays"])
            path.write_text(json.dumps(doc))
            argv = inputs.argv(rng.choice(["eval", "eval", "trace"]), checkpoint=path)
        else:
            argv = mutate_argv(rng, inputs.argv(rng.choice(COMMANDS)))
            if argv and rng.random() < 0.05:
                argv[0] = rng.choice(["", "Train", "eval,", "--data"])
        codes.append(run_case(label, argv))
    # The mutations must reach past the first check: some cases succeed, some fail.
    assert 0 in codes and set(codes) - {0}, codes


def edge_checkpoint(inputs, case):
    """A valid checkpoint at one edge of the float range, and its argv for eval and trace.

    "saturated_head": every head_b entry at +-40, so every sigmoid rounds to
    0 or 1 while the loss, taken from the logit, stays finite.
    "saturated_gates": lstm_b at +-800 in every gate block, so e^-z overflows
    to inf in the recurrence and those gates take their exact limits 0 and 1.
    "underflowing_attention": scores spread so wide (||attn_u||_1 = 683.5)
    that all the exponentials of some windows underflow; sequence 2 has such
    a window, and so does the echoed fold's test split.
    """
    cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
    params, _ = model.load_checkpoint(inputs.checkpoint)
    if case == "saturated_head":
        params.head_b[:] = [40.0, -40.0, 40.0, -40.0]
    elif case == "saturated_gates":
        params.lstm_b[0::2] = 800.0
        params.lstm_b[1::2] = -800.0
    else:
        cfg = TrainConfig(skill_dim=3, resp_dim=2, hidden_dim=3, attn_dim=3, seed=11)
        params = model.init_params(4, 3, 2, 3, 3, Rng(30).split("init"))
        params.attn_w *= 20.0
        params.attn_u *= 683.5 / np.sum(np.abs(params.attn_u))
    path = inputs.root / f"{case}.json"
    model.save_checkpoint(path, params, dict(cfg.to_dict(), fold=0), timestamp=False)
    trace = ["trace", "--checkpoint", path, "--data", inputs.data, "--out", inputs.out, "--index", "2"]
    return inputs.argv("eval", checkpoint=path), trace


@pytest.mark.parametrize(
    "case, code", [("saturated_head", 0), ("saturated_gates", 0), ("underflowing_attention", 3)]
)
def test_cli_handles_edge_checkpoints(tmp_path, case, code):
    inputs = Inputs(tmp_path)
    for argv in edge_checkpoint(inputs, case):
        assert run_case(case, argv) == code
    if code == 0:
        with open(tmp_path / "log.csv", encoding="utf-8") as fh:
            probs = [float(row["prob"]) for row in csv.DictReader(fh)]
        assert probs and all(math.isfinite(p) for p in probs)
