"""In-memory spans recorded by wrappers around the program's public calls.

The traced run patches the public entry points of each layer (class
methods and module functions) with a wrapper that records one span per
call: name, layer, start, end, parent, and an optional per-call size.  The
program's own code is untouched; :meth:`SpanRecorder.restore` puts every
original back.  Spans stay in memory until :meth:`SpanRecorder.dump`.

Only the recording process sees its spans: calls made inside forked
workers are recorded in the worker's copy and lost, which is why the fleet
workload reads the program's own fleet instrumentation instead.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import stats


def rows_of(args, kwargs, result) -> float:
    """Rows of the first argument after ``self``."""
    inputs = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    shape = getattr(inputs, "shape", None)
    if shape is None:
        return float(len(inputs))
    return float(shape[0]) if len(shape) > 1 else 1.0


def items_of(args, kwargs, result) -> float:
    """How many items a call returned (verdicts of a serving call)."""
    return float(len(result))


class SpanRecorder:
    """Records spans from patched calls and from explicit ``span`` blocks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.sizes: List[float] = []
        self.notes: List[object] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str, note=None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sizes.append(0.0)
        self.notes.append(note)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as one span."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def patch(self, owner, attr: str, name: str,
              size: Optional[Callable] = None,
              note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``size(args, kwargs, result)`` gives the call's size (rows, items);
        ``note(args, kwargs)`` is evaluated before the call and stored with
        the span (the cache layer records whether the entry already existed).
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder._open(
                name, note(args, kwargs) if note is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(index)
            if size is not None:
                recorder.sizes[index] = size(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every patched original back (last patched first)."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def mark(self) -> int:
        """Index of the next span (to slice out one pass's spans later)."""
        return len(self.names)

    def window(self, start: int) -> "SpanWindow":
        """The spans recorded since mark ``start``."""
        return SpanWindow(self, start, len(self.names))

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (compressed ``.npz``): a name table,
        then per span its name index, start and end (seconds from the first
        span), parent index and size."""
        table = sorted(set(self.names))
        lookup = {name: index for index, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.asarray(table),
            name=np.asarray([lookup[name] for name in self.names], dtype=np.int32),
            start_s=np.asarray(self.starts) - origin,
            end_s=np.asarray(self.ends) - origin,
            parent=np.asarray(self.parents, dtype=np.int64),
            size=np.asarray(self.sizes))


def layer_of(name: str) -> str:
    """Spans are named ``<layer>.<call>``."""
    return name.split(".", 1)[0]


class SpanWindow:
    """The spans recorded between two marks (one pass of a workload)."""

    def __init__(self, recorder: SpanRecorder, start: int, end: int) -> None:
        self.names = recorder.names[start:end]
        self.durations = np.subtract(recorder.ends[start:end],
                                     recorder.starts[start:end])
        self.sizes = np.asarray(recorder.sizes[start:end])
        self.notes = recorder.notes[start:end]
        # Re-base parents into the window; a parent outside it is a root.
        self.parents = np.asarray([parent - start if parent >= start else -1
                                   for parent in recorder.parents[start:end]],
                                  dtype=np.int64)
        self.self_s = stats.self_times(self.durations, self.parents)

    def select(self, name: str, outermost: bool = False) -> np.ndarray:
        """Indices of spans called ``name`` (only those not nested in
        another span of the same name when ``outermost``)."""
        chosen = []
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            if outermost:
                parent = self.parents[index]
                nested = False
                while parent >= 0:
                    if self.names[parent] == name:
                        nested = True
                        break
                    parent = self.parents[parent]
                if nested:
                    continue
            chosen.append(index)
        return np.asarray(chosen, dtype=np.int64)

    def total(self, name: str) -> float:
        """Seconds inside outermost spans called ``name``."""
        return float(self.durations[self.select(name, outermost=True)].sum())

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer."""
        return stats.layer_self_times([layer_of(name) for name in self.names],
                                      self.durations, self.parents)
