"""In-memory span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions from the
benchmark's own files: it replaces a bound method on one object with a
wrapper that records a span (name, start, end, parent span, batch id)
around the original call.  Nothing inside ``src/`` is modified, and the
untraced run installs no wrapper at all.

Spans live in flat Python lists while the run is timed and are written
out once, when the run ends.  A span's *self time* is its duration minus
the time its child spans cover, so the self times of every span plus the
time outside any span add up to the traced host wall exactly.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List

import numpy as np


class Tracer:
    """Collects nested spans; ``batch_id`` tags spans with the batch being served."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.batches: List[int] = []
        self.batch_id = -1
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.batches.append(self.batch_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def patch(self, obj: object, method: str, name: str) -> None:
        """Trace ``obj.method`` (an instance attribute shadows the class's)."""
        setattr(obj, method, self.wrap(name, getattr(obj, method)))

    # ------------------------------------------------------------ analysis

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called ``name``, in start order."""
        return np.array(
            [e - s for n, s, e in zip(self.names, self.starts, self.ends)
             if n == name],
            dtype=np.float64,
        )

    def totals(self) -> Dict[str, float]:
        """Summed (inclusive) duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name (duration minus child coverage)."""
        if not self.names:
            return {}
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(durations)
        )
        own = durations - covered
        out: Dict[str, float] = {}
        for name, seconds in zip(self.names, own.tolist()):
            out[name] = out.get(name, 0.0) + seconds
        return out

    def root_seconds(self) -> float:
        """Time covered by top-level spans."""
        return float(sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        ))

    def write(self, path: Path) -> None:
        """Write every span as columns of one compressed ``.npz`` file."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts, dtype=np.float64),
            end=np.asarray(self.ends, dtype=np.float64),
            parent=np.asarray(self.parents, dtype=np.int64),
            batch=np.asarray(self.batches, dtype=np.int64),
        )
