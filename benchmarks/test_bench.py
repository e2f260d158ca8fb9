"""Tests for the benchmark itself: python3 -m pytest benchmarks -q"""

import json
import math
import re

import numpy as np
import pytest

import run  # puts the repository's src/ on sys.path first
from atkt import data, training
from tracing import ENTRY_POINTS, Probe, Span, Tracer, covered, self_times, subtree
from workloads import WORKLOADS, make_dataset, make_text

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_text(name):
    w = WORKLOADS[name]
    text = make_text(w, seed=7, index=1)
    assert text == make_text(w, seed=7, index=1)
    assert text != make_text(w, seed=8, index=1)
    assert text != make_text(w, seed=7, index=2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_text_parses_to_the_workload_shape(name):
    w = WORKLOADS[name]
    dataset = data.parse_triple_line(make_text(w, seed=3, index=0), num_skills=w.num_skills)
    lengths = np.array([len(s) for s in dataset.sequences])
    assert len(lengths) == w.students
    assert lengths.min() >= w.min_len and lengths.max() <= w.max_len
    for parsed, made in zip(dataset.sequences, make_dataset(w, seed=3, index=0).sequences):
        assert np.array_equal(parsed.skills, made.skills)
        assert np.array_equal(parsed.responses, made.responses)


def test_self_times_on_a_hand_built_tree():
    # op [0, 10] > train [1, 7] > {forward [2, 4], backward [4, 6.5]}; evaluate [7.5, 9.5]
    spans = [
        Span(0, "bench.op", 0.0, 10.0, None, 0),
        Span(1, "training.train", 1.0, 7.0, 0, 0),
        Span(2, "model.forward", 2.0, 4.0, 1, 0),
        Span(3, "model.backward", 4.0, 6.5, 1, 0),
        Span(4, "training.evaluate", 7.5, 9.5, 0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 1.5, 2: 2.0, 3: 2.5, 4: 2.0})
    assert sum(selfs[s.id] for s in subtree(spans, spans[1])) == pytest.approx(6.0)
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_covered_counts_overlap_once_and_clips_to_the_parent():
    assert covered([(1.0, 4.0), (3.0, 5.0), (4.5, 4.8)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_tracer_records_parents_and_run_ids():
    tracer = Tracer(run=4)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, inner.parent, inner.run) == ("inner", outer.id, 4)
    assert outer.parent is None and outer.start <= inner.start <= inner.end <= outer.end


def test_probe_traces_an_adversarial_run_and_restores_the_entry_points():
    originals = [getattr(module, attr) for module, attr, _ in ENTRY_POINTS]
    cfg = training.TrainConfig(skill_dim=4, resp_dim=3, hidden_dim=5, attn_dim=3, batch_size=4,
                               max_epochs=1, patience=None, beta=0.2, epsilon=1.5)
    dataset = data.generate_synthetic(20, 6, 8, 0.2, 0.2, 0.1, seed=1)
    split = data.make_folds(dataset, 0)[0]
    tracer = Tracer()
    probe = Probe(tracer)
    with probe.installed():
        with tracer.span("training.train"):
            training.train(cfg, dataset, split)
    assert [getattr(module, attr) for module, attr, _ in ENTRY_POINTS] == originals

    names = [s.name for s in tracer.spans]
    batches = names.count("training.train_batch")
    assert batches == 3  # 12 training students, batches of 4
    assert names.count("model.forward") == batches + 1  # one validation batch
    for name in ("model.backward", "model.forward_adv", "model.backward_adv",
                 "adversarial.fgsm_perturbation", "adversarial.make_adversarial",
                 "training.adam_step"):
        assert names.count(name) == batches, name
    assert names.count("training.evaluate") == 1
    assert len(probe.objectives) == batches and all(map(math.isfinite, probe.objectives))
    for epsilon, norms in probe.fgsm_row_norms:
        assert np.allclose(norms, epsilon, rtol=0, atol=1e-9)
    assert probe.valid_targets == sum(len(dataset.sequences[i]) - 1 for i in split.train + split.val)
    root = next(s for s in tracer.spans if s.name == "training.train")
    selfs = self_times(tracer.spans)
    assert sum(selfs[s.id] for s in subtree(tracer.spans, root)) == pytest.approx(root.duration)


def test_metric_and_workload_names_are_well_formed():
    metrics = run.END_TO_END + run.PER_LAYER
    names = [m.name for m in metrics] + list(WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m.unit) and m.better in ("higher", "lower") for m in metrics)
    assert all(0 < m.bound <= 0.25 for m in run.END_TO_END)
    setup = next(m for m in run.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better, setup.bound) == ("s", "lower", max(m.bound for m in run.END_TO_END))
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_benchmark_json_matches_the_definitions():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.manifest()

