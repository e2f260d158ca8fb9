"""Spans around the calls the program makes into atkt's layers.

``Probe.installed()`` swaps each public entry point listed in ``ENTRY_POINTS``
for a wrapper that records a span (name, start, end, parent, run id) and puts
the originals back on exit. Nothing inside the package changes: the wrappers
sit on the module attributes through which the package calls its own layers,
so ``training.train`` reaches them too. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from atkt import adversarial, data, model, training

# (module, attribute, span name). make_batches and auc are wrapped under the
# names training imported them as, because that is where training calls them.
ENTRY_POINTS = (
    (data, "parse_triple_line", "data.parse_triple_line"),
    (data, "make_folds", "data.make_folds"),
    (training, "make_batches", "data.make_batches"),
    (model, "forward", "model.forward"),
    (model, "backward", "model.backward"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (adversarial, "fgsm_perturbation", "adversarial.fgsm_perturbation"),
    (adversarial, "make_adversarial", "adversarial.make_adversarial"),
    (training, "train_batch", "training.train_batch"),
    (training, "adam_step", "training.adam_step"),
    (training, "evaluate", "training.evaluate"),
    (training, "collect_predictions", "training.collect_predictions"),
    (training, "auc", "metrics.auc"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run`` tags every span with the current run id."""

    def __init__(self, run: int = 0) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))


def covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` within [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans}


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children[s.id])
    return out


class Probe:
    """Wraps the entry points with spans and keeps what the output checks need.

    A forward call given an ``embeddings=`` override is an adversarial pass,
    recorded as ``model.forward_adv``; the backward call on its trace is
    recorded as ``model.backward_adv``.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.objectives: list[float] = []  # every train_batch training objective
        self.fgsm_row_norms: list[tuple[float, np.ndarray]] = []  # (epsilon, ||r|| per row)
        self.valid_targets = 0  # over every batch make_batches built
        self.computed_steps = 0
        self._adv_trace = None

    def _name(self, name: str, args, kwargs) -> str:
        if name == "model.forward" and kwargs.get("embeddings") is not None:
            return "model.forward_adv"
        if name == "model.backward" and self._adv_trace is not None:
            trace = args[1] if len(args) > 1 else kwargs.get("trace")
            if self._adv_trace() is trace:
                return "model.backward_adv"
        return name

    def _after(self, name: str, result) -> None:
        if name == "model.forward_adv":
            self._adv_trace = weakref.ref(result[0])
        elif name == "adversarial.fgsm_perturbation":
            norms = np.sqrt(np.sum(result.r**2, axis=(0, 2)))
            self.fgsm_row_norms.append((result.epsilon, norms))
        elif name == "training.train_batch":
            self.objectives.append(result[1])
        elif name == "data.make_batches":
            for batch in result:
                self.valid_targets += int(np.sum(batch.seq_lens - 1))
                self.computed_steps += batch.size * (batch.max_len - 1)

    def _wrap(self, original, name: str):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = self._name(name, args, kwargs)
            with self.tracer.span(span_name):
                result = original(*args, **kwargs)
            self._after(span_name, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in ENTRY_POINTS]
        try:
            for (module, attr, name), (_, _, original) in zip(ENTRY_POINTS, originals):
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
