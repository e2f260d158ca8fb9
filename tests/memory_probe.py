"""A per-function memory probe: where, call by call, traced memory peaks.

    with MemoryProbe(model, ["_attention_forward", "_attention_backward"]) as probe:
        training.train_batch(params, batch, config, run_adversarial=True)
    for call in probe.calls:
        print(call.name, call.start, call.peak, call.returned)

Inside the ``with`` block tracemalloc runs, and the named functions of the
module are replaced by wrappers, which are put back on exit. Each call is
recorded when it returns: the bytes traced when it began and the most traced
at any moment of it, both counting everything alive in the process, and the
bytes of the arrays it returned. Each call resets tracemalloc's own peak, so
read peaks from the probe; a call's peak still covers those of the wrapped
calls it makes.
"""

from __future__ import annotations

import functools
import tracemalloc
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Call:
    name: str
    start: int  # bytes traced when the call began
    peak: int  # the most bytes traced at any moment of the call
    returned: int  # bytes of the arrays returned, alone or in a tuple


def _array_bytes(result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(item.nbytes for item in items if isinstance(item, np.ndarray))


class MemoryProbe:
    def __init__(self, module, names):
        self.module = module
        self.names = list(names)
        self.calls: list[Call] = []
        self._open: list[int] = []  # each open call's peak before its callee reset the count

    def _wrap(self, name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1] = max(self._open[-1], peak)
            tracemalloc.reset_peak()
            self._open.append(start)
            returned = 0
            try:
                result = original(*args, **kwargs)
                returned = _array_bytes(result)
                return result
            finally:
                peak = max(self._open.pop(), tracemalloc.get_traced_memory()[1])
                if self._open:
                    self._open[-1] = max(self._open[-1], peak)
                self.calls.append(Call(name, start, peak, returned))

        return wrapper

    def __enter__(self) -> "MemoryProbe":
        self._originals = {name: getattr(self.module, name) for name in self.names}
        for name, original in self._originals.items():
            setattr(self.module, name, self._wrap(name, original))
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        tracemalloc.stop()
        for name, original in self._originals.items():
            setattr(self.module, name, original)
