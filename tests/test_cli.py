import base64
import csv
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from atkt import cli, model, training
from atkt.cli import ConfigError, parse_config_text
from atkt.data import MAX_SKILLS, generate_synthetic, serialize_triple_line
from atkt.linalg import Rng
from atkt.training import FIELD_TYPES, TrainConfig

TINY_CONFIG = """\
# tiny run for tests
skill_dim = 6
resp_dim = 3
hidden_dim = 5
attn_dim = 5
batch_size = 8
max_epochs = 2
patience = none
seed = 11
"""


@pytest.fixture
def data_file(tmp_path):
    ds = generate_synthetic(20, 4, 8, learn_rate=0.3, guess=0.25, slip=0.1, seed=7)
    path = tmp_path / "data.txt"
    path.write_text(serialize_triple_line(ds))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(TINY_CONFIG)
    return path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestConfigParsing:
    def test_comments_and_spacing(self):
        cfg = parse_config_text("# hello\n  lr = 0.01  # inline\n\nseed=3\n")
        assert cfg.lr == 0.01
        assert cfg.seed == 3

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config_text("learning_rate = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("lr = 0.1\nlr = 0.2\n")

    def test_bad_value_mentions_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*batch_size"):
            parse_config_text("batch_size = many\n")

    def test_missing_epsilon_with_positive_beta(self):
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config_text("beta = 0.5\n")

    def test_epsilon_and_beta_accepted(self):
        cfg = parse_config_text("beta = 0.5\nepsilon = 10\n")
        assert cfg.beta == 0.5 and cfg.epsilon == 10.0

    def test_optional_and_bool_values(self):
        cfg = parse_config_text("patience = none\nattention = false\nepsilon = 5.0\n")
        assert cfg.patience is None
        assert cfg.attention is False
        assert cfg.epsilon == 5.0

    @pytest.mark.parametrize(
        "key, raw, want",
        [
            *[("attention", raw, True) for raw in ("true", "TRUE", "1", "yes", "Yes", "on", "ON")],
            *[("attention", raw, False) for raw in ("false", "False", "0", "no", "NO", "off", "Off")],
            ("patience", "none", None),
            ("patience", "OFF", None),
            ("epsilon", "None", None),
            ("epsilon", "off", None),
            ("epsilon", "NONE", None),
            ("epsilon", "10", 10.0),
            ("patience", "7", 7),
        ],
    )
    def test_accepted_spellings(self, key, raw, want):
        value = getattr(parse_config_text(f"{key} = {raw}\n"), key)
        assert value == want and type(value) is type(want)

    def test_not_key_value(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_shipped_reference_config_parses(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "reference.cfg"
        cfg = parse_config_text(path.read_text())
        assert cfg.skill_dim == 256 and cfg.resp_dim == 96
        assert cfg.hidden_dim == 80 and cfg.attn_dim == 80
        assert cfg.batch_size == 24 and cfg.max_seq_len == 500
        assert cfg.epsilon == 10.0 and cfg.beta == 0.2

    def test_readme_config_table_has_one_row_per_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
        assert re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE) == list(FIELD_TYPES)


class TestPrepare:
    def test_stats_line_and_normalized_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("3\n1,2,1\n1,0,1\n1\n5\n1\n2\n0,3\n0,1\n")
        out = tmp_path / "norm.txt"
        assert run_cli("prepare", "--data", raw, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "2 students, 6 KSs, 5 responses" in stdout
        assert out.read_text() == "3\n1,2,1\n1,0,1\n2\n0,3\n0,1\n"

    def test_long_sequences_are_written_whole(self, tmp_path, capsys):
        # train, eval and sweep segment after the student-level split; a
        # segmented file would let the folds split one student's chunks.
        raw = tmp_path / "raw.txt"
        skills = ",".join(["1"] * 1200)
        resps = ",".join(["1", "0"] * 600)
        raw.write_text(f"1200\n{skills}\n{resps}\n")
        out = tmp_path / "norm.txt"
        assert run_cli("prepare", "--data", raw, "--out", out) == 0
        assert capsys.readouterr().out == "1 students, 2 KSs, 1,200 responses\n"
        assert out.read_text() == raw.read_text()

    def test_only_short_students_reports_zero(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("1\n5\n1\n")
        out = tmp_path / "norm.txt"
        assert run_cli("prepare", "--data", raw, "--out", out) == 0
        assert "0 students" in capsys.readouterr().out

    def test_empty_file_is_data_error(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("\n")
        assert run_cli("prepare", "--data", raw, "--out", tmp_path / "x.txt") == 2

    def test_parse_error_reports_line_and_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("2\n1,oops\n1,0\n")
        assert run_cli("prepare", "--data", raw, "--out", tmp_path / "x.txt") == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("prepare", "--data", tmp_path / "nope.txt", "--out", tmp_path / "x.txt") == 2

    def test_max_seq_len_flag_is_gone(self, tmp_path, capsys):
        # prepare no longer segments; train, eval and sweep read max_seq_len from the config.
        raw = tmp_path / "raw.txt"
        raw.write_text("3\n1,2,1\n1,0,1\n")
        out = tmp_path / "norm.txt"
        assert run_cli("prepare", "--data", raw, "--out", out, "--max-seq-len", 500) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "unrecognized arguments: --max-seq-len 500" in lines[0], lines
        assert not out.exists()

    def test_strict_truncate_flag_is_gone(self, tmp_path, capsys):
        # Segmentation always keeps every chunk; the flag that kept only the first is retired.
        raw = tmp_path / "raw.txt"
        raw.write_text("3\n1,2,1\n1,0,1\n")
        out = tmp_path / "norm.txt"
        assert run_cli("prepare", "--data", raw, "--out", out, "--strict-truncate") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "unrecognized arguments: --strict-truncate" in lines[0], lines
        assert not out.exists()


class TestTrain:
    def test_writes_artifacts_and_is_reproducible(self, tmp_path, data_file, config_file, capsys):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert run_cli("train", "--config", config_file, "--data", data_file,
                       "--out", out1, "--no-timestamp") == 0
        assert run_cli("train", "--config", config_file, "--data", data_file,
                       "--out", out2, "--no-timestamp") == 0
        for name in ("run.csv", "checkpoint.json", "loss_curve.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        stdout = capsys.readouterr().out
        assert "best_val_auc=" in stdout
        header = (out1 / "run.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_auc,lr"

    def test_loss_curve_svg_is_valid_xml(self, tmp_path, data_file, config_file):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_file, "--out", out,
                "--no-timestamp")
        root = ET.parse(out / "loss_curve.svg").getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2  # train and val

    def test_no_attention_flag_recorded(self, tmp_path, data_file, config_file):
        out = tmp_path / "run"
        run_cli("train", "--config", config_file, "--data", data_file, "--out", out,
                "--no-attention", "--no-timestamp")
        _, echo = model.load_checkpoint(out / "checkpoint.json")
        assert echo["attention"] is False

    def test_seed_override(self, tmp_path, data_file, config_file):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_cli("train", "--config", config_file, "--data", data_file, "--out", out1,
                "--seed", 99, "--no-timestamp")
        run_cli("train", "--config", config_file, "--data", data_file, "--out", out2,
                "--no-timestamp")
        _, echo1 = model.load_checkpoint(out1 / "checkpoint.json")
        _, echo2 = model.load_checkpoint(out2 / "checkpoint.json")
        assert echo1["seed"] == 99 and echo2["seed"] == 11
        assert (out1 / "run.csv").read_bytes() != (out2 / "run.csv").read_bytes()


class TestEval:
    def make_chance_checkpoint(self, tmp_path, num_skills=4):
        cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
        params = model.init_params(num_skills, 6, 3, 5, 5, Rng(0).split("init"))
        params.head_w[...] = 0.0
        params.head_b[...] = 0.0
        path = tmp_path / "chance.json"
        model.save_checkpoint(path, params, dict(cfg.to_dict(), fold=0), timestamp=False)
        return path

    def test_chance_checkpoint_scores_half(self, tmp_path, data_file, capsys):
        ckpt = self.make_chance_checkpoint(tmp_path)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_file) == 0
        out = capsys.readouterr().out
        assert "fold 0 test AUC 0.500000" in out

    def test_all_folds_reports_mean_and_std(self, tmp_path, data_file, capsys):
        ckpt = self.make_chance_checkpoint(tmp_path)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_file, "--all-folds") == 0
        out = capsys.readouterr().out
        assert "across 5 folds" in out and "±" in out

    def test_prediction_log_export(self, tmp_path, data_file):
        ckpt = self.make_chance_checkpoint(tmp_path)
        log_path = tmp_path / "preds.csv"
        run_cli("eval", "--checkpoint", ckpt, "--data", data_file, "--out", log_path)
        lines = log_path.read_text().splitlines()
        assert lines[0] == "student_id,step,skill,prob,label"
        assert len(lines) > 1

    def test_skill_universe_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = self.make_chance_checkpoint(tmp_path, num_skills=3)
        big = generate_synthetic(10, 9, 6, 0.3, 0.2, 0.1, seed=1)
        data = tmp_path / "big.txt"
        data.write_text(serialize_triple_line(big))
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data) == 2
        assert "skills" in capsys.readouterr().err

    def test_causal_window_echo_evaluates_as_without_it(self, tmp_path, data_file):
        # Older checkpoints echo retired keys: attention_window and strict_truncate
        # at the one value still run, and Adam's three constants and grad_clip,
        # which evaluation never reads, at any value.
        cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
        params = model.init_params(4, 6, 3, 5, 5, Rng(0).split("init"))
        old = {"attention_window": "causal", "strict_truncate": False,
               "adam_beta1": 0.5, "adam_beta2": 0.9, "adam_eps": 1e-3, "grad_clip": 5.0}
        logs = []
        for name, extra in [("new", {}), ("old", old)]:
            ckpt = tmp_path / f"{name}.json"
            model.save_checkpoint(ckpt, params, dict(cfg.to_dict(), fold=0, **extra), timestamp=False)
            log = tmp_path / f"{name}.csv"
            assert run_cli("eval", "--checkpoint", ckpt, "--data", data_file, "--out", log) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_non_finite_predictions_exit_3(self, tmp_path, data_file, capsys, command):
        # Finite LSTM weights of +-1e308 overflow the recurrence to inf - inf = NaN.
        cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
        params = model.init_params(4, 6, 3, 5, 5, Rng(0).split("init"))
        signs = np.random.default_rng(0)
        for arr in (params.lstm_w, params.lstm_u):
            arr[...] = signs.choice([1e308, -1e308], size=arr.shape)
        ckpt = tmp_path / "overflow.json"
        model.save_checkpoint(ckpt, params, dict(cfg.to_dict(), fold=0), timestamp=False)
        assert run_cli(command, "--checkpoint", ckpt, "--data", data_file, "--out", tmp_path / "o") == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: non-finite"), lines

    # A checkpoint whose config echo holds a bad value is a bad checkpoint.
    ECHO_FAULTS = {
        "echo_seed_str": ("seed", "x"),
        "echo_seed_negative": ("seed", -3),
        "echo_batch_size_str": ("batch_size", "x"),
        "echo_batch_size_0": ("batch_size", 0),
        "echo_max_seq_len_float": ("max_seq_len", 2.5),
        "echo_fold_str": ("fold", "a"),
        "echo_fold_float": ("fold", 1.5),
        "echo_fold_bool": ("fold", True),
        "echo_fold_out_of_range": ("fold", 9),
        # The checksum covers only the arrays; the echoed dimensions must agree with them.
        "echo_skill_dim_vs_arrays": ("skill_dim", 7),
        "echo_resp_dim_vs_arrays": ("resp_dim", 4),
        "echo_hidden_dim_vs_arrays": ("hidden_dim", 100000000),
        "echo_attn_dim_vs_arrays": ("attn_dim", 1),
        # Retired keys survive in older checkpoints' echoes, each at one value and type.
        "echo_attention_window_sequence": ("attention_window", "sequence"),
        "echo_strict_truncate_true": ("strict_truncate", True),
        "echo_strict_truncate_int": ("strict_truncate", 1),
        "echo_strict_truncate_zero": ("strict_truncate", 0),  # == False, but not a bool
        "echo_strict_truncate_str": ("strict_truncate", "false"),
    }

    def malformed_checkpoint(self, tmp_path, case):
        ckpt = self.make_chance_checkpoint(tmp_path)
        if case == "non_utf8":
            ckpt.write_bytes(b"\xff" + ckpt.read_bytes())
            return ckpt
        if case == "deeply_nested":  # deeper than the JSON reader's recursion limit
            ckpt.write_text("[" * 200_000)
            return ckpt
        doc = json.loads(ckpt.read_text())
        arrays = doc["arrays"]
        if case == "json_list":
            doc = [doc]
        elif case == "no_arrays":
            del doc["arrays"]
        elif case in self.ECHO_FAULTS:
            key, value = self.ECHO_FAULTS[case]
            doc["config"][key] = value
        else:
            head_b = np.frombuffer(base64.b64decode(arrays["head_b"]["data"]), dtype="<f8").copy()
            if case == "shape_vs_payload":
                arrays["head_w"]["shape"][1] += 1
            elif case == "bad_base64":
                arrays["head_b"]["data"] = "!" + arrays["head_b"]["data"][1:]
            elif case == "nan_head_b":
                head_b[0] = np.nan
                arrays["head_b"]["data"] = base64.b64encode(head_b.tobytes()).decode("ascii")
            else:
                arrays["head_b"]["shape"] = [head_b.size - 1]
                arrays["head_b"]["data"] = base64.b64encode(head_b[:-1].tobytes()).decode("ascii")
            doc["checksum"] = model._checkpoint_digest(arrays)
        ckpt.write_text(json.dumps(doc))
        return ckpt

    @pytest.mark.parametrize(
        "case",
        ["json_list", "no_arrays", "shape_vs_payload", "bad_base64", "short_head_b",
         *ECHO_FAULTS, "nan_head_b", "non_utf8", "deeply_nested"],
    )
    def test_malformed_checkpoint_exits_2(self, tmp_path, data_file, capsys, case):
        ckpt = self.malformed_checkpoint(tmp_path, case)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_file) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), lines
        if case in self.ECHO_FAULTS:
            assert self.ECHO_FAULTS[case][0] in lines[0], lines


@pytest.fixture
def train_calls(monkeypatch):
    """(epsilon, beta) of every training run ``sweep`` starts."""
    calls = []
    real_train = training.train

    def counting_train(config, *args, **kwargs):
        calls.append((config.epsilon, config.beta))
        return real_train(config, *args, **kwargs)

    monkeypatch.setattr(training, "train", counting_train)
    return calls


class TestSweep:
    def test_beta_zero_column_trains_once_per_fold(self, tmp_path, data_file, config_file, train_calls):
        out = tmp_path / "sweepdir"
        assert run_cli("sweep", "--config", config_file, "--data", data_file, "--out", out,
                       "--epsilons", "1,2", "--betas", "0,0.5", "--folds", "0") == 0
        assert sorted(train_calls) == [(1.0, 0.0), (1.0, 0.5), (2.0, 0.5)]
        grid = [line.split(",")[1:] for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert grid[0][0] == grid[1][0]

    def test_bad_later_epsilon_exits_1_before_training(self, tmp_path, data_file, config_file,
                                                        capsys, train_calls):
        assert run_cli("sweep", "--config", config_file, "--data", data_file, "--out", tmp_path / "o",
                       "--epsilons", "1,-1", "--betas", "0", "--folds", "0") == 1
        assert train_calls == []
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: epsilon"), lines

    @pytest.mark.parametrize("flag, value, message", [
        ("--folds", "1,0,1", "--folds repeats fold 1"),
        ("--epsilons", "1,1", "--epsilons repeats epsilon 1"),
        ("--betas", "0.5,0.5", "--betas repeats beta 0.5"),
    ])
    def test_repeated_value_exits_1_before_training(self, tmp_path, data_file, config_file, capsys,
                                                    train_calls, flag, value, message):
        lists = dict({"--epsilons": "1", "--betas": "0", "--folds": "0"}, **{flag: value})
        assert run_cli("sweep", "--config", config_file, "--data", data_file, "--out", tmp_path / "o",
                       *(token for pair in lists.items() for token in pair)) == 1
        assert train_calls == []
        assert capsys.readouterr().err.splitlines() == [message]

    def test_grid_csv_and_argmax_line(self, tmp_path, data_file, config_file, capsys):
        out = tmp_path / "sweepdir"
        assert run_cli("sweep", "--config", config_file, "--data", data_file, "--out", out,
                       "--epsilons", "1,2", "--betas", "0,1", "--folds", "0") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,beta=0,beta=1"
        assert len(lines) == 3
        grid = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert grid[0, 0] == grid[1, 0]  # beta=0 column constant across epsilon
        assert "best: epsilon=" in capsys.readouterr().out


class TestTrace:
    def overfit_checkpoint(self, tmp_path):
        from atkt.data import FoldSplit, parse_triple_line
        from atkt.training import train

        streak = "12\n" + ",".join(["0"] * 12) + "\n" + ",".join(["1"] * 12) + "\n"
        other = (
            "6\n1,2,1,2,1,2\n0,1,0,1,0,1\n"
            "6\n3,3,2,2,1,1\n1,0,1,0,1,0\n"
            "6\n0,1,2,3,0,1\n0,0,1,1,0,0\n"
            "6\n2,2,3,3,0,0\n1,1,0,0,1,1\n"
            "6\n1,3,1,3,1,3\n0,1,1,0,0,1\n"
        )
        ds = parse_triple_line(streak + other)
        data_path = tmp_path / "toy.txt"
        data_path.write_text(streak + other)
        idx = tuple(range(len(ds.sequences)))
        cfg = TrainConfig(
            skill_dim=8, resp_dim=4, hidden_dim=8, attn_dim=8, batch_size=4,
            max_epochs=200, patience=None, lr=0.02, lr_decay=1.0, lr_decay_every=1000, seed=5,
        )
        result = train(cfg, ds, FoldSplit(idx, idx, idx))
        ckpt = tmp_path / "toy.json"
        model.save_checkpoint(ckpt, result.params, dict(cfg.to_dict(), fold=0), timestamp=False)
        return ckpt, data_path

    def test_csv_and_svg_shapes(self, tmp_path, data_file):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        out = tmp_path / "trace"
        assert run_cli("trace", "--checkpoint", ckpt, "--data", data_file, "--index", 0,
                       "--skills", "0,1,2", "--out", out) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "step,skill_0,skill_1,skill_2,attempt_skill,attempt_correct"
        assert len(lines) == 9  # header + 8 steps
        root = ET.parse(out / "trace.svg").getroot()
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 8 * 3  # steps x tracked skills
        assert (out / "mastery_change.csv").exists()
        ET.parse(out / "mastery_change.svg")  # valid XML

    def test_zero_head_gives_flat_half_rows(self, tmp_path, data_file):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        out = tmp_path / "trace"
        run_cli("trace", "--checkpoint", ckpt, "--data", data_file, "--skills", "0,1", "--out", out)
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        first = rows[0].split(",")
        assert first[1] == "0.5" and first[2] == "0.5"

    def test_rows_match_eval_predictions(self, tmp_path, data_file):
        # The student is shorter than max_seq_len, so eval runs it whole as
        # trace does. Row k at the skill attempted at step k is eval's
        # prediction for step k; the full head sums in another order.
        cfg = TrainConfig(skill_dim=6, resp_dim=3, hidden_dim=5, attn_dim=5, seed=11)
        params = model.init_params(4, 6, 3, 5, 5, Rng(3).split("init"))
        ckpt = tmp_path / "init.json"
        model.save_checkpoint(ckpt, params, dict(cfg.to_dict(), fold=0), timestamp=False)
        log, out = tmp_path / "preds.csv", tmp_path / "trace"
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_file, "--all-folds", "--out", log) == 0
        assert run_cli("trace", "--checkpoint", ckpt, "--data", data_file, "--student", "student-3",
                       "--skills", "0,1,2,3", "--out", out) == 0
        with open(out / "trace.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(log, encoding="utf-8") as fh:
            preds = {int(r["step"]): float(r["prob"])
                     for r in csv.DictReader(fh) if r["student_id"] == "student-3"}
        assert sorted(preds) == list(range(1, len(rows)))
        for k, want in preds.items():
            got = float(rows[k][f"skill_{rows[k]['attempt_skill']}"])
            assert abs(got - want) <= 1e-12, (k, got, want)

    def test_repeated_correct_answers_raise_that_skill(self, tmp_path):
        ckpt, data_path = self.overfit_checkpoint(tmp_path)
        out = tmp_path / "trace"
        assert run_cli("trace", "--checkpoint", ckpt, "--data", data_path, "--index", 0,
                       "--skills", "0", "--out", out) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        probs = [float(r.split(",")[1]) for r in rows]
        assert probs[-1] > 0.9
        assert probs[-1] > probs[0]
        smooth = np.convolve(probs, np.ones(3) / 3, mode="valid")
        assert np.all(np.diff(smooth) > -0.02)

    def test_memorizing_checkpoint_scores_auc_one_on_train_split(self, tmp_path, capsys):
        ckpt, data_path = self.overfit_checkpoint(tmp_path)
        assert run_cli("eval", "--checkpoint", ckpt, "--data", data_path,
                       "--split", "train", "--fold", 0) == 0
        assert "AUC 1.000000" in capsys.readouterr().out

    def test_unknown_skill_id_exits_2(self, tmp_path, data_file):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        code = run_cli("trace", "--checkpoint", ckpt, "--data", data_file,
                       "--skills", "77", "--out", tmp_path / "x")
        assert code == 2

    @pytest.mark.parametrize("skills, message", [
        ("1,x", "--skills takes a comma list of ints, got '1,x'"),
        ("2,0,2", "--skills repeats skill 2"),
    ])
    def test_malformed_skills_list_exits_1(self, tmp_path, data_file, capsys, skills, message):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        assert run_cli("trace", "--checkpoint", ckpt, "--data", data_file,
                       "--skills", skills, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "case", ["echo_batch_size_str", "echo_max_seq_len_float", "echo_hidden_dim_vs_arrays", "nan_head_b"]
    )
    def test_malformed_checkpoint_exits_2(self, tmp_path, data_file, capsys, case):
        ckpt = TestEval().malformed_checkpoint(tmp_path, case)
        assert run_cli("trace", "--checkpoint", ckpt, "--data", data_file, "--out", tmp_path / "x") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), lines

    @pytest.mark.parametrize("index", [-1, -20])
    def test_negative_index_exits_2(self, tmp_path, data_file, capsys, index):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        code = run_cli("trace", "--checkpoint", ckpt, "--data", data_file,
                       "--index", index, "--out", tmp_path / "x")
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"data error: sequence index {index} out of range"]

    def test_unknown_student_exits_2(self, tmp_path, data_file):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        code = run_cli("trace", "--checkpoint", ckpt, "--data", data_file,
                       "--student", "missing", "--out", tmp_path / "x")
        assert code == 2


class TestExitCodes:
    def test_missing_required_argument_is_usage_error(self):
        assert run_cli("train", "--data", "x") == 1

    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_bad_config_exits_1(self, tmp_path, data_file):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("nonsense_key = 4\n")
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize(
        "line", ["lr = nan", "beta = nan", "epsilon = inf", "epsilon = -1", "lr_decay = -1",
                 "seed = -1"]
    )
    def test_bad_config_value_exits_1_with_one_line(self, tmp_path, data_file, capsys, line):
        cfg = tmp_path / "bad.txt"
        # Keys may not repeat, so the "seed" case replaces the tiny config's seed line.
        key = line.split(" = ")[0]
        base = TINY_CONFIG.replace("seed = 11\n", "") if key == "seed" else TINY_CONFIG
        cfg.write_text(base + line + "\n")
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and key in lines[0], lines

    @pytest.mark.parametrize(
        "line", ["attention_window = causal", "strict_truncate = false", "adam_beta1 = 0.9",
                 "adam_beta2 = 0.999", "adam_eps = 1e-8", "grad_clip = 5"]
    )
    def test_retired_key_exits_1_as_unknown(self, tmp_path, data_file, capsys, line):
        cfg = tmp_path / "old.txt"
        cfg.write_text(TINY_CONFIG + line + "\n")
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1
        key = line.split(" = ")[0]
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: config line 10: unknown key {key!r}"], lines

    @pytest.mark.parametrize("what", ["missing", "directory"])
    def test_unreadable_config_exits_1(self, tmp_path, data_file, capsys, what):
        cfg = tmp_path / "missing.cfg" if what == "missing" else tmp_path
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and str(cfg) in lines[0], lines

    @pytest.mark.parametrize("command", ["train", "eval", "sweep"])
    @pytest.mark.parametrize("students", [2, 0])
    def test_too_few_students_is_a_data_error(self, tmp_path, config_file, capsys, command, students):
        data = tmp_path / "few.txt"
        data.write_text(serialize_triple_line(generate_synthetic(students, 4, 6, 0.3, 0.2, 0.1, seed=3)))
        if command == "eval":
            args = ["eval", "--checkpoint", TestEval().make_chance_checkpoint(tmp_path), "--data", data]
        else:
            args = [command, "--config", config_file, "--data", data, "--out", tmp_path / "o"]
        assert run_cli(*args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"data error: need at least 5 sequences to build folds, got {students}"]

    def test_non_utf8_data_exits_2(self, tmp_path, config_file, capsys):
        data = tmp_path / "data.txt"
        data.write_bytes(b"3\n1,\xff2,1\n1,0,1\n")
        assert run_cli("train", "--config", config_file, "--data", data, "--out", tmp_path / "o") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error: line 2:"), lines

    @pytest.mark.parametrize("beta", ["0", "0.5"])
    def test_diverging_run_is_a_numerical_failure(self, tmp_path, capsys, beta):
        # With beta > 0 the non-finite clean pass must stop training before
        # FGSM rejects its gradient, and numpy must not warn on the way.
        data = tmp_path / "data.txt"
        data.write_text(serialize_triple_line(generate_synthetic(30, 4, 8, 0.3, 0.25, 0.1, seed=7)))
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG + f"lr = 1e200\nbeta = {beta}\nepsilon = 1\n")
        assert run_cli("train", "--config", cfg, "--data", data, "--out", tmp_path / "o") == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numerical failure: non-finite training objective at epoch 0"], lines

    @pytest.mark.parametrize("flag, value", [("--epsilons", "1,x"), ("--betas", "0.5,"), ("--folds", "0,x")])
    def test_malformed_sweep_list_names_the_flag(self, tmp_path, data_file, config_file, capsys,
                                                 flag, value):
        assert run_cli("sweep", "--config", config_file, "--data", data_file, "--out", tmp_path / "o",
                       flag, value) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"{flag} takes a comma list of {'int' if flag == '--folds' else 'float'}s, "
                         f"got {value!r}"], lines

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["train", "-h"], ["sweep", "--help"],
                                      ["eval", "--data", "x", "-h"]])
    def test_help_returns_0(self, capsys, argv):
        assert run_cli(*argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: atkt") and err == ""

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--seed", "-1"), ("sweep", "--seed", "-1"), ("sweep", "--epsilons", "1,-1"),
        ("sweep", "--epsilons", "nan"), ("sweep", "--betas", "0,-0.5"), ("sweep", "--betas", "inf"),
    ])
    def test_bad_override_value_names_the_flag(self, tmp_path, data_file, config_file, capsys,
                                               command, flag, value):
        out = tmp_path / "o"
        assert run_cli(command, "--config", config_file, "--data", data_file, "--out", out,
                       flag, value) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert lines[0].endswith(f" (from {flag})"), lines
        assert not out.exists()  # rejected before any training

    def test_non_utf8_config_exits_1_naming_the_file(self, tmp_path, data_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(TINY_CONFIG.encode() + b"lr = 0.\xff1\n")
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: {cfg}: not UTF-8 text at byte {len(TINY_CONFIG) + 7}"], lines

    @pytest.mark.parametrize("command", ["prepare", "train", "eval"])
    @pytest.mark.parametrize("skill", [MAX_SKILLS, 10**30])
    def test_skill_id_at_the_cap_is_a_data_error(self, tmp_path, data_file, config_file, capsys,
                                                 command, skill):
        data = tmp_path / "big_id.txt"
        data.write_text(data_file.read_text() + f"2\n0,{skill}\n1,0\n")
        line = len(data_file.read_text().splitlines()) + 2
        out = tmp_path / "o"
        if command == "eval":
            args = ["eval", "--checkpoint", TestEval().make_chance_checkpoint(tmp_path), "--data", data]
        elif command == "train":
            args = ["train", "--config", config_file, "--data", data, "--out", out]
        else:
            args = ["prepare", "--data", data, "--out", out]
        assert run_cli(*args) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"data error: line {line}: skill id {skill} is not below the cap of 100,000"]
        assert not out.exists()

    def test_allocation_failure_exits_1_with_one_line(self, tmp_path, data_file, capsys):
        # 5 EiB for the first weight matrix: more than any 64-bit address space
        # can map, so the allocator refuses it before touching a page.
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(TINY_CONFIG.replace("skill_dim = 6", f"skill_dim = {2**57}"))
        assert run_cli("train", "--config", cfg, "--data", data_file, "--out", tmp_path / "o") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("out of memory: Unable to allocate"), lines

    @pytest.mark.parametrize("command, flags, message", [
        ("eval", ["--fold", "2", "--all-folds"], "argument --all-folds: not allowed with argument --fold"),
        ("eval", ["--all-folds", "--fold", "0"], "argument --fold: not allowed with argument --all-folds"),
        ("trace", ["--student", "student-3", "--index", "1"],
         "argument --index: not allowed with argument --student"),
        ("trace", ["--student", "student-3", "--index", "0"],
         "argument --index: not allowed with argument --student"),
        ("trace", ["--index", "0", "--student", "student-3"],
         "argument --student: not allowed with argument --index"),
    ])
    def test_contradictory_flags_exit_1(self, tmp_path, data_file, capsys, command, flags, message):
        ckpt = TestEval().make_chance_checkpoint(tmp_path)
        out = tmp_path / "o"
        argv = [command, "--checkpoint", ckpt, "--data", data_file, *flags]
        assert run_cli(*argv, *(["--out", out] if command == "trace" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"atkt {command}: {message}"]
        assert not out.exists()

    def test_out_of_range_fold_exits_1(self, tmp_path, data_file, config_file):
        assert run_cli("train", "--config", config_file, "--data", data_file,
                       "--out", tmp_path / "o", "--fold", 9) == 1
