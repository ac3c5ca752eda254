"""Outside-in tracer: wraps module attributes and class methods of the library
for one traced run, records a span per call and restores every original.

Spans live in compact arrays (name, start, end, parent span, phase, question
index) until the run ends and are written out with ``save``. Very hot leaf
calls can be counted without a span, which keeps their callers' self time
from being swamped by the tracer's own cost.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from stats import self_times

PHASES = ("train", "setup", "parse")

# Extra counts derived from one call: (args, kwargs, result) -> {counter: amount}.
CountHook = Callable[[tuple, dict, Any], "dict[str, float]"]


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.phase = "train"
        self.question = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_names = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.span_phases = array("b")
        self.questions = array("q")
        self._stack: list[int] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        span: bool = True,
        hook: CountHook | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``.

        Every call bumps the ``name`` count of the current phase. With
        ``span`` it also records a span; ``hook`` adds counts computed from
        the call's arguments and result.
        """
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counts = self.counts
        perf = time.perf_counter

        if span:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id, perf())
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(idx, perf())
                counts[self.phase, name] += 1
                if hook is not None:
                    for key, amount in hook(args, kwargs, result).items():
                        counts[self.phase, key] += amount
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[self.phase, name] += 1
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name_id: int, start: float) -> int:
        idx = len(self.starts)
        self.starts.append(start)
        self.ends.append(start)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.span_phases.append(PHASES.index(self.phase))
        self.questions.append(self.question)
        self.span_names.append(name_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float) -> None:
        self.ends[idx] = end
        self._stack.pop()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[tuple[str, str], LayerTotals]:
        """Calls, total and self seconds per (phase, span name)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out: dict[tuple[str, str], LayerTotals] = {}
        for i, name_id in enumerate(self.span_names):
            key = (PHASES[self.span_phases[i]], self.names[name_id])
            totals = out.setdefault(key, LayerTotals())
            totals.calls += 1
            totals.total_s += self.ends[i] - self.starts[i]
            totals.self_s += selfs[i]
        return out

    def save(self, path) -> None:
        """Write every span as named columns of an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_names, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            phase=np.frombuffer(self.span_phases, dtype=np.int8),
            phases=np.array(PHASES),
            question=np.frombuffer(self.questions, dtype=np.int64),
        )
