"""atkt benchmark: runs one workload in process through atkt's public API.

    python3 benchmarks/run.py --workload train-adv-long --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --write-manifest    # regenerate BENCHMARK.json

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported. With ``--trace 1`` every op runs twice on the same input, once
untraced and once with spans around atkt's layer entry points (see
tracing.py), and the per-layer metrics come from the traced copies. Output
checks run outside the timed regions; a failed op or check counts in
``failed`` and the run goes on. The first line of standard output records
the environment, the last line is the result object.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import atkt
    from atkt import data, model, training
    from atkt.linalg import Rng
    from atkt.metrics import auc_bruteforce
except ImportError as exc:
    sys.exit(f"benchmark: cannot import atkt from {ROOT / 'src'}: {exc}")
if not Path(atkt.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"benchmark: atkt was imported from {atkt.__file__}, not from {ROOT / 'src'}")

from tracing import Probe, Tracer, self_times, subtree  # noqa: E402
from workloads import WORKLOADS, Workload, make_text  # noqa: E402

RUN_SECONDS = 30
EPSILON = 10.0
# Set-ups timed after each evaluating op, on that op's text; setup_s is their
# median, so it samples the whole run rather than one moment of it.
SETUP_REPEATS = 3
AUC_TOLERANCE = 1e-12
FGSM_NORM_TOLERANCE = 1e-9
SELF_TIME_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # share of the parent's median it may worsen by


END_TO_END = (
    Metric("train_interactions_per_s", "1/s", "higher", 0.25),
    Metric("eval_predictions_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("final_val_loss", "nats", "lower", 0.05),
    Metric("final_val_auc", "ratio", "higher", 0.15),
    Metric("eval_auc", "ratio", "higher", 0.1),
    Metric("ops_ok_frac", "ratio", "higher", 0.01),
)

# Per-layer seconds are self times per op, summed over these span names.
LAYER_TIMES = {
    "model.forward_s": ("model.forward",),
    "model.backward_s": ("model.backward",),
    "model.forward_adv_s": ("model.forward_adv",),
    "model.backward_adv_s": ("model.backward_adv",),
    "adversarial.fgsm_s": ("adversarial.fgsm_perturbation", "adversarial.make_adversarial"),
    "training.adam_s": ("training.adam_step",),
    "data.batch_s": ("data.make_batches",),
    "training.collect_s": ("training.collect_predictions",),
    "metrics.auc_s": ("metrics.auc",),
    "data.parse_s": ("data.parse_triple_line",),
    "data.folds_s": ("data.make_folds",),
    "model.checkpoint_load_s": ("model.load_checkpoint",),
    "training.train_batch_self_s": ("training.train_batch",),
    "training.train_self_s": ("training.train",),
    "training.evaluate_self_s": ("training.evaluate",),
}
# Per-layer counts are calls per op.
LAYER_COUNTS = {
    "model.forward_calls": "model.forward",
    "model.backward_calls": "model.backward",
    "adversarial.fgsm_calls": "adversarial.fgsm_perturbation",
    "training.adam_calls": "training.adam_step",
}
PER_LAYER = (
    *(Metric(name, "s", "lower") for name in LAYER_TIMES),
    *(Metric(name, "count", "lower") for name in LAYER_COUNTS),
    Metric("data.pad_efficiency", "ratio", "higher"),
    Metric("trace.overhead_frac", "ratio", "lower"),
)


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def make_config(workload: Workload) -> training.TrainConfig:
    """Reference hyperparameters, a fixed epoch count and no early stopping."""
    return training.TrainConfig(
        beta=workload.beta,
        epsilon=EPSILON if workload.beta > 0 else None,
        max_epochs=workload.epochs,
        patience=None,
    )


@dataclass
class OpResult:
    """What one op measured, plus what its checks found."""

    train_s: float
    eval_s: float
    train_targets: int = 0
    predictions: int = 0
    val_loss: float | None = None
    val_auc: float | None = None
    eval_aucs: list[float] = field(default_factory=list)
    trained: "model.ModelParams | None" = None
    failures: list[str] = field(default_factory=list)

    @property
    def work_s(self) -> float:
        return self.train_s + self.eval_s

    def outputs(self) -> tuple:
        return self.val_loss, self.val_auc, self.eval_aucs


class Session:
    """One run of one workload: its inputs, checkpoint, and what was measured.

    An op sets up on a fresh dataset (parse, folds, checkpoint load), trains
    on fold 0 unless the workload only evaluates, then evaluates every fold's
    test split as ``atkt eval --all-folds`` does.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.config = cfg = make_config(workload)
        # The parameters train() would initialise itself with.
        init = model.init_params(workload.num_skills, cfg.skill_dim, cfg.resp_dim,
                                 cfg.hidden_dim, cfg.attn_dim, Rng(cfg.seed).split("init"))
        self.checkpoint = workdir / "init.json"
        model.save_checkpoint(self.checkpoint, init, cfg.to_dict(), timestamp=False)

        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # one message per failed check
        self.setup_s: list[float] = []
        self.train_rates: list[float] = []  # per op: trained targets / train() seconds
        self.eval_rates: list[float] = []  # per op: predictions / evaluate() seconds
        self.val_losses: list[float] = []
        self.val_aucs: list[float] = []
        self.eval_aucs: list[float] = []
        # Traced ops only.
        self.traced_ops = 0
        self.untraced_work_s = self.traced_work_s = 0.0
        self.layer_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.valid_targets = self.computed_steps = 0

    def setup(self, text: str):
        """The program's own set-up calls: parse, folds, checkpoint load."""
        dataset = data.parse_triple_line(text, num_skills=self.workload.num_skills)
        folds = data.make_folds(dataset, self.config.seed)
        params, _ = model.load_checkpoint(self.checkpoint)
        return dataset, folds, params

    def op(self, text: str, train: bool, evaluate: bool, tracer: Tracer | None = None) -> OpResult:
        span = tracer.span if tracer else (lambda name: nullcontext())
        config = self.config
        with span("bench.op"):
            dataset, folds, params = self.setup(text)
            t1 = time.perf_counter()
            record = None
            if train:
                with span("training.train"):
                    result = training.train(config, dataset, folds[0], initial_params=params)
                record, params = result.record, result.params
            t2 = time.perf_counter()
            evaluations = []
            for split in folds if evaluate else ():
                seqs = training.prepare_split_sequences(dataset, split.test, config)
                evaluations.append(training.evaluate(params, seqs, config, dataset.num_skills))
            t3 = time.perf_counter()

        res = OpResult(train_s=t2 - t1, eval_s=t3 - t2)
        if record is not None:
            res.trained = params
            train_seqs = training.prepare_split_sequences(dataset, folds[0].train, config)
            res.train_targets = sum(len(s) - 1 for s in train_seqs) * len(record.epochs)
            res.val_loss = record.epochs[-1].val_loss
            res.val_auc = record.epochs[-1].val_auc
            if len(record.epochs) != self.workload.epochs:
                res.failures.append(f"ran {len(record.epochs)} epochs, not {self.workload.epochs}")
            for e in record.epochs:
                if not (math.isfinite(e.train_loss) and math.isfinite(e.val_loss)):
                    res.failures.append(f"epoch {e.epoch}: non-finite loss")
        for loss, fold_auc, log in evaluations:
            res.predictions += len(log)
            res.eval_aucs.append(fold_auc)
            if not math.isfinite(loss):
                res.failures.append("non-finite evaluation loss")
            oracle = auc_bruteforce(log)
            if abs(fold_auc - oracle) > AUC_TOLERANCE:
                res.failures.append(f"AUC {fold_auc!r} differs from the pairwise count {oracle!r}")
        return res

    def traced_pair(self, index: int, text: str, train: bool) -> OpResult:
        """The same op untraced and traced, alternating which goes first."""
        tracer = Tracer(run=index)
        probe = Probe(tracer)
        results = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                with probe.installed():
                    results[traced] = self.op(text, train, True, tracer)
            else:
                results[traced] = self.op(text, train, True)
        untraced, traced = results[False], results[True]
        self.traced_ops += 1
        self.untraced_work_s += untraced.work_s
        self.traced_work_s += traced.work_s
        selfs = self_times(tracer.spans)
        for s in tracer.spans:
            self.layer_s[s.name] += selfs[s.id]
            self.layer_calls[s.name] += 1
        self.valid_targets += probe.valid_targets
        self.computed_steps += probe.computed_steps
        untraced.failures += traced.failures + check_traced(probe, tracer, selfs)
        if traced.outputs() != untraced.outputs():
            untraced.failures.append("the traced op's outputs differ from the untraced op's")
        return untraced

    def measure(self, seconds: float) -> None:
        """Run ops one after another until the op boundary nearest ``seconds``."""
        # At least one op that measures: an evaluation workload's op 0 only trains.
        min_ops = 2 if self.workload.evaluate_only else 1
        start = time.perf_counter()
        last = 0.0
        i = 0
        while i < min_ops or time.perf_counter() - start + last / 2 < seconds:
            t_op = time.perf_counter()
            text = make_text(self.workload, self.seed, i)
            # An evaluation workload trains its checkpoint in op 0, untraced.
            checkpoint_op = i == 0 and self.workload.evaluate_only
            train = checkpoint_op or not self.workload.evaluate_only
            self.attempted += 1
            try:
                if self.trace and not checkpoint_op:
                    res = self.traced_pair(i, text, train)
                else:
                    res = self.op(text, train, evaluate=not checkpoint_op)
                self.record(res)
                if res.failures:
                    self.failed += 1
                    self.failures.extend(f"op {i}: {f}" for f in res.failures)
                elif checkpoint_op:
                    self.checkpoint = self.workdir / "trained.json"
                    model.save_checkpoint(self.checkpoint, res.trained, self.config.to_dict(),
                                          timestamp=False)
                for _ in range(0 if checkpoint_op else SETUP_REPEATS):
                    t0 = time.perf_counter()
                    self.setup(text)
                    self.setup_s.append(time.perf_counter() - t0)
            except Exception as exc:  # a failed op is counted, and the run goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                self.failures.append(f"op {i}: {exc!r}")
            last = time.perf_counter() - t_op
            i += 1

    def record(self, res: OpResult) -> None:
        if res.predictions:
            self.eval_rates.append(res.predictions / res.eval_s)
            self.eval_aucs.extend(res.eval_aucs)
        if res.val_loss is not None:
            self.train_rates.append(res.train_targets / res.train_s)
            self.val_losses.append(res.val_loss)
            self.val_aucs.append(res.val_auc)

    def end_to_end_metrics(self) -> dict[str, float]:
        return {
            "train_interactions_per_s": _median(self.train_rates),
            "eval_predictions_per_s": _median(self.eval_rates),
            "setup_s": _median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_val_loss": _mean(self.val_losses),
            "final_val_auc": _mean(self.val_aucs),
            "eval_auc": _mean(self.eval_aucs),
            "ops_ok_frac": _ratio(self.attempted - self.failed, self.attempted),
        }

    def per_layer_metrics(self) -> dict[str, float]:
        ops = self.traced_ops
        out = {
            metric: _ratio(sum(self.layer_s[n] for n in names), ops)
            for metric, names in LAYER_TIMES.items()
        }
        out.update({metric: _ratio(self.layer_calls[name], ops) for metric, name in LAYER_COUNTS.items()})
        out["data.pad_efficiency"] = _ratio(self.valid_targets, self.computed_steps)
        out["trace.overhead_frac"] = 1.0 - _ratio(self.untraced_work_s, self.traced_work_s)
        return out


def check_traced(probe: Probe, tracer: Tracer, selfs: dict[int, float]) -> list[str]:
    """Checks only a traced op can make: objectives, FGSM norms, self times."""
    failures = []
    if not all(math.isfinite(o) for o in probe.objectives):
        failures.append("non-finite training objective")
    for epsilon, norms in probe.fgsm_row_norms:
        worst = float(np.max(np.abs(norms - epsilon)))
        if worst > FGSM_NORM_TOLERANCE:
            failures.append(f"FGSM row norm is off epsilon {epsilon} by {worst:.3e}")
    op_root = next(s for s in tracer.spans if s.name == "bench.op")
    for root in tracer.spans:
        if root.parent == op_root.id and root.name in ("training.train", "training.evaluate"):
            accounted = sum(selfs[s.id] for s in subtree(tracer.spans, root))
            if abs(accounted - root.duration) > SELF_TIME_TOLERANCE:
                failures.append(f"{root.name}: self times sum to {accounted!r}s of {root.duration!r}s")
    return failures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    workload = WORKLOADS[args.workload]
    print(json.dumps({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment()}))
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        session = Session(workload, args.seed, Path(workdir), bool(args.trace))
        session.measure(args.seconds)
    if args.trace:
        values, spec = session.per_layer_metrics(), PER_LAYER
    else:
        values, spec = session.end_to_end_metrics(), END_TO_END
    metrics = {}
    for m in spec:
        value = float(values[m.name])
        if not math.isfinite(value):
            session.failures.append(f"metric: {m.name} is {value}")
            value = 0.0
        metrics[m.name] = {"value": value, "unit": m.unit}
        print(f"{m.name:30s} {value:14.6g} {m.unit}")
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not session.failures, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
