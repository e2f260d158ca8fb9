"""Acceptance suite: one test per release criterion, each at its pinned
tolerance, printing one PASS/FAIL line per criterion.

The long-running regularization comparison (criterion 6) trains ten models
in a process pool, one worker per core; on a 2-core VM it took 146-232 s in
four runs within one hour, and 78 s on a quieter day, so the host's load
moves it more than the code does. Everything else finishes in seconds. Run with
``pytest tests/test_acceptance.py -s`` to watch the lines appear.
"""

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from atkt import model
from atkt.adversarial import fgsm_perturbation, make_adversarial
from atkt.cli import main as cli_main
from atkt.data import (
    FoldSplit,
    generate_synthetic,
    make_batches,
    make_folds,
    serialize_triple_line,
)
from atkt.linalg import Rng
from atkt.metrics import PredictionLog, auc, auc_bruteforce
from atkt.training import TrainConfig, evaluate, train

from grad_oracle import grad_check
from reference_impl import build_embeddings, l2_norm, on_grid, padded_forward, plain_lstm_forward, valid_cells


def criterion(number, title):
    """Print the verdict line even when the assertion fails."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title} ({time.perf_counter() - t0:.1f}s)")
                raise
            print(f"[PASS] criterion {number}: {title} ({time.perf_counter() - t0:.1f}s)")

        return run

    return wrap


def best_val_loss(config, data, split):
    return train(config, data, split).record.best_val_loss


def pooled_best_val_losses(jobs, monkeypatch):
    """``best_val_loss(*job)`` for every job, in order, one worker process per core.

    Runs are deterministic, so the pool changes no value. Workers are spawned
    (no fork of a process that may hold BLAS threads) with one BLAS thread
    each, so that they do not oversubscribe the cores.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    workers = min(len(jobs), 10, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(best_val_loss, *zip(*jobs), timeout=3600))


@criterion(1, "analytic gradients match central finite differences (20 seeds, <=1e-4)")
def test_c1_gradient_oracle():
    config = TrainConfig(skill_dim=3, resp_dim=2, hidden_dim=3, attn_dim=3)
    worst = 0.0
    for seed in range(20):
        report = grad_check(config, seed=seed, num_skills=4, seq_lens=(5, 4, 3))
        assert report.passed, f"seed {seed}:\n{report.summary()}"
        worst = max(worst, report.max_rel_error)
    print(f"  worst relative error across seeds: {worst:.3e}")


@criterion(2, "FGSM norm exact to 1e-9 and beats random directions in >=95/100 trials")
def test_c2_fgsm_properties():
    # Gate gradients of 6 steps in each of 3 rows, 4H = 16 units over d_in = 4.
    norm_rng = Rng(2024).split("norms")
    rows = make_batches(list(generate_synthetic(3, 2, 7, 0.3, 0.3, 0.2, seed=1).sequences), 2, 3, rng=None)[0]
    for _ in range(50):
        dz, w = norm_rng.normal(size=(18, 16)), norm_rng.normal(size=(16, 4))
        pert = fgsm_perturbation(dz, w, rows, epsilon=10.0)
        for b in range(3):
            assert abs(l2_norm(pert.r[:, b, :]) - 10.0) <= 1e-9

    wins = 0
    for trial in range(100):
        rng = Rng(9000 + trial)
        data = generate_synthetic(3, 4, 6, learn_rate=0.3, guess=0.3, slip=0.2, seed=trial)
        batch = make_batches(list(data.sequences), 4, 3, rng=None)[0]
        params = model.init_params(4, 5, 3, 4, 4, rng.split("init"))
        trace, base_loss = model.forward(params, batch)
        emb = build_embeddings(params, batch)
        eps = 1e-3 * l2_norm(emb)
        pert = fgsm_perturbation(model.backward(params, trace).gate_grads, params.lstm_w, batch, eps)
        _, adv_loss = model.forward(params, batch, embeddings=make_adversarial(batch, pert))
        rho = rng.split("direction").normal(size=emb.shape)
        for b in range(batch.size):
            rho[:, b, :] *= eps / l2_norm(rho[:, b, :])
        _, rand_loss = padded_forward(params, batch, embeddings=emb + rho)
        if adv_loss - base_loss >= rand_loss - base_loss:
            wins += 1
    print(f"  fgsm beat a random same-norm direction in {wins}/100 trials")
    assert wins >= 95


@criterion(3, "rank AUC equals brute-force pairwise AUC within 1e-12 on 200 logs")
def test_c3_auc_oracle():
    rng = np.random.default_rng(7)
    for case in range(200):
        n = int(rng.integers(10, 501))
        scores = rng.random(n)
        if case % 3:  # inject ties in most cases
            k = int(rng.integers(1, n))
            scores[:k] = np.round(scores[:k], 1)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        log = PredictionLog(
            probs=scores,
            labels=labels.astype(np.int64),
            student_ids=np.full(n, "s", dtype=object),
            steps=np.arange(n),
            skills=np.zeros(n, dtype=np.int64),
        )
        assert abs(auc(log) - auc_bruteforce(log)) <= 1e-12


@criterion(4, "capacity sanity: 8 sequences overfit to BCE < 0.05 with train AUC 1.0")
def test_c4_capacity():
    data = generate_synthetic(8, 5, 20, learn_rate=0.3, guess=0.2, slip=0.1, seed=5)
    idx = tuple(range(8))
    split = FoldSplit(train=idx, val=idx, test=idx)
    config = TrainConfig(
        skill_dim=16, resp_dim=8, hidden_dim=16, attn_dim=16, batch_size=8,
        lr=0.01, lr_decay=1.0, lr_decay_every=1000, max_epochs=500, patience=None, seed=9,
    )
    result = train(config, data, split)
    train_losses = [e.train_loss for e in result.record.epochs]
    reached = next((i for i, v in enumerate(train_losses) if v < 0.05), None)
    assert reached is not None, f"train BCE never dropped below 0.05 (min {min(train_losses):.4f})"
    final_loss, final_auc, _ = evaluate(result.params, list(data.sequences), config, data.num_skills)
    print(f"  BCE < 0.05 at epoch {reached}; checkpoint train AUC {final_auc:.6f}")
    assert final_auc == 1.0


@criterion(5, "ablation wiring: --no-attention bit-matches a plain LSTM; windows sum to 1")
def test_c5_ablation():
    data = generate_synthetic(24, 6, 10, learn_rate=0.3, guess=0.25, slip=0.1, seed=12)
    params = model.init_params(6, 8, 4, 6, 6, Rng(3).split("init"))
    config = TrainConfig(
        skill_dim=8, resp_dim=4, hidden_dim=6, attn_dim=6, batch_size=6,
        max_epochs=1, patience=None, seed=3,
    )
    # Bit-exact agreement with an independent plain-LSTM path on every batch.
    for batch in make_batches(list(data.sequences), 6, config.batch_size, rng=None):
        trace, _ = model.forward(params, batch, attention_enabled=False)
        ref_probs, ref_pred = plain_lstm_forward(params, batch)
        valid = valid_cells(trace)
        assert np.array_equal(on_grid(trace, trace.pred)[valid], ref_pred[valid])
        assert np.array_equal(on_grid(trace, model.skill_probs(params, trace))[valid], ref_probs[valid])

    # One full training epoch with attention on: every prediction window's
    # weights form a distribution.
    split = make_folds(data, seed=3)[0]
    result = train(config, data, split)
    windows = 0
    for batch in make_batches(
        [data.sequences[i] for i in split.train], 6, config.batch_size, rng=None
    ):
        trace, _ = model.forward(result.params, batch, attention_enabled=True)
        step_mask = valid_cells(trace)
        attn_exp, attn_norm = on_grid(trace, trace.attn_exp), on_grid(trace, trace.attn_norm)
        for k in range(1, batch.max_len - 1):
            valid = step_mask[k]
            sums = attn_exp[:k, valid].sum(axis=0) / attn_norm[k, valid]
            assert np.all(np.abs(sums - 1.0) <= 1e-10)
            windows += int(valid.sum())
    print(f"  checked {windows} prediction windows")
    assert windows > 0


@criterion(6, "adversarial training lowers best val loss in >=4/5 paired seeds")
def test_c6_regularization_effect(monkeypatch):
    # Desk-scale stand-in for the full benchmark runs. The perturbation
    # budget is shared across the batch ("global" scope): at sequence
    # length 50 a per-sequence ball of radius 10 would exceed the whole
    # input norm (~13), which matches neither the reference setting's
    # relative scale nor any useful attack.
    data = generate_synthetic(2000, 5, 50, learn_rate=0.3, guess=0.2, slip=0.1, seed=100)
    split = make_folds(data, seed=100)[0]
    base = dict(
        skill_dim=64, resp_dim=32, hidden_dim=64, attn_dim=64, batch_size=64,
        lr=0.005, lr_decay=1.0, lr_decay_every=1000, max_epochs=18, patience=None,
        epsilon=10.0, fgsm_scope="global",
    )
    probe_params = model.init_params(5, 64, 32, 64, 64, Rng(1).split("init"))
    probe = make_batches(list(data.sequences[:4]), 5, 4, rng=None)[0]
    emb = build_embeddings(probe_params, probe)
    per_seq = [l2_norm(emb[:, b, :]) for b in range(4)]
    print(
        f"  per-sequence input norm at init ~{np.mean(per_seq):.1f}; "
        f"epsilon 10 shared across the batch"
    )
    runs = [(seed, beta) for seed in range(1, 6) for beta in (0.0, 1.0)]
    jobs = [(TrainConfig(seed=seed, beta=beta, **base), data, split) for seed, beta in runs]
    losses = dict(zip(runs, pooled_best_val_losses(jobs, monkeypatch)))
    wins = 0
    for seed in range(1, 6):
        best = {beta: losses[seed, beta] for beta in (0.0, 1.0)}
        won = best[1.0] <= best[0.0]
        wins += won
        print(
            f"  seed {seed}: best val loss with AT {best[1.0]:.5f} vs without {best[0.0]:.5f}"
            f" -> {'AT wins' if won else 'AT loses'}"
        )
    assert wins >= 4, f"adversarial training won only {wins}/5 paired seeds"


@criterion(7, "beta=0 run matches a fully disabled adversarial path within 1e-9")
def test_c7_beta_zero_equivalence():
    data = generate_synthetic(30, 5, 10, learn_rate=0.3, guess=0.25, slip=0.1, seed=21)
    split = make_folds(data, seed=21)[0]
    config = TrainConfig(
        skill_dim=8, resp_dim=4, hidden_dim=6, attn_dim=6, batch_size=8,
        max_epochs=5, patience=None, seed=21, beta=0.0, epsilon=10.0,
    )
    forced = train(config, data, split, run_adversarial=True)
    skipped = train(config, data, split, run_adversarial=False)
    assert len(forced.record.epochs) == len(skipped.record.epochs)
    for a, b in zip(forced.record.epochs, skipped.record.epochs):
        assert abs(a.train_loss - b.train_loss) <= 1e-9
        assert abs(a.val_loss - b.val_loss) <= 1e-9
        assert abs(a.val_auc - b.val_auc) <= 1e-9
    for (name, x), (_, y) in zip(forced.params.named_arrays(), skipped.params.named_arrays()):
        assert np.array_equal(x, y), name


@criterion(8, "identical command reruns produce byte-identical CSVs")
def test_c8_determinism(tmp_path):
    data = generate_synthetic(20, 4, 8, learn_rate=0.3, guess=0.25, slip=0.1, seed=31)
    data_path = tmp_path / "data.txt"
    data_path.write_text(serialize_triple_line(data))
    config_path = tmp_path / "config.txt"
    config_path.write_text(
        "skill_dim = 6\nresp_dim = 3\nhidden_dim = 5\nattn_dim = 5\n"
        "batch_size = 8\nmax_epochs = 2\npatience = none\nseed = 31\n"
        "epsilon = 2.0\nbeta = 0.5\n"
    )
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main([
            "train", "--config", str(config_path), "--data", str(data_path),
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        outputs.append(out)
    for artifact in ("run.csv", "checkpoint.json", "loss_curve.svg"):
        assert (outputs[0] / artifact).read_bytes() == (outputs[1] / artifact).read_bytes()

    for name in ("ta", "tb"):
        code = cli_main([
            "trace", "--checkpoint", str(outputs[0] / "checkpoint.json"),
            "--data", str(data_path), "--index", "0", "--out", str(tmp_path / name),
        ])
        assert code == 0
    for artifact in ("trace.csv", "trace.svg", "mastery_change.csv"):
        assert (tmp_path / "ta" / artifact).read_bytes() == (tmp_path / "tb" / artifact).read_bytes()


def test_pooled_runs_equal_serial_runs(monkeypatch):
    """Not a numbered criterion: criterion 6's pool returns what serial runs do."""
    data = generate_synthetic(40, 4, 12, learn_rate=0.3, guess=0.2, slip=0.1, seed=100)
    split = make_folds(data, seed=100)[0]
    base = dict(skill_dim=8, resp_dim=4, hidden_dim=6, attn_dim=6, batch_size=8, max_epochs=3,
                patience=None, epsilon=10.0, fgsm_scope="global")
    jobs = [(TrainConfig(seed=seed, beta=beta, **base), data, split)
            for seed in (1, 2) for beta in (0.0, 1.0)]
    assert pooled_best_val_losses(jobs, monkeypatch) == [best_val_loss(*job) for job in jobs]


def test_chance_level_loss_context():
    """Not a numbered criterion: a fresh random model sits at chance."""
    data = generate_synthetic(30, 6, 12, learn_rate=0.5, guess=0.5, slip=0.5, seed=3)
    batch = make_batches(list(data.sequences), 6, 30, rng=None)[0]
    params = model.init_params(6, 16, 8, 12, 12, Rng(0).split("init"))
    _, loss = model.forward(params, batch)
    assert abs(loss - math.log(2)) < 0.15
