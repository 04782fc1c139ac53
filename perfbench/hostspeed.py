"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds to minutes as other tenants load it: the very
same batches, replayed from the same state, took from 0.6x to 1.1x the
time of a first replay.  ``host_qps`` is meant to measure the program, not
the neighbours, so the timed drain runs this kernel after every step and
scales each block of steps by how long the kernel took in that block.

The kernel is the benchmark's own code and never changes with the
program: a mix like the simulator's host path, interpreted Python over a
dict and over objects' attributes, a small INT8 product and partial sort,
and a run of tiny NumPy calls.  Its parts were chosen by how they track
the program: replaying the same 300-600 steps of each workload twice and
timing candidate parts after every step, the interpreter and small-NumPy
parts slowed as much as the steps did (slope 0.8-1.05 of log step-time
ratio on log part-time ratio over 8- and 20-step blocks, r = 0.6-0.93),
while a streaming pass over a large array slowed far less (slope 1.8-2.7)
and was left out.  Normalized, the two replays' total host seconds came
within 0.93-1.00x of each other where the wall clock read 0.84-0.94x.
Set-up phases are scaled by probes between them (``SetupClock``) that add
the streaming pass back: set-up is bulk NumPy work (corpus, k-means,
page packing), and with the pass the quartile spread of ``setup_s`` over
seeds 1-10 and 11-20 was 3-9% per workload, without it 6-17%.

``REFERENCE_S`` is a constant: the kernel's median time during 4-second
drains of seed 5 of each workload read 0.71-0.92 ms (2 vCPUs of an Intel
Xeon at 2.0 GHz, Python 3.11.7, NumPy 2.4.6), and 0.80 ms was taken;
``SETUP_REFERENCE_S`` likewise, from set-up probes that read 1.35-1.98 ms
over two replicas of seed 5 of each workload, 1.7 ms.
Normalized host seconds therefore read like seconds of that host at that
time.  It must not be re-measured per run: a normalized number is only
comparable with another taken against the same constant.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

import numpy as np

REFERENCE_S = 0.00080
SETUP_REFERENCE_S = 0.0017
# Steps per normalization block; the block's median kernel time scales it.
BLOCK_STEPS = 8
# The set-up probe's streaming pass: 8 MiB of float64, allocated once per
# process so that it adds a constant, not a per-replica spike, to peak RSS.
_STREAM = np.random.default_rng(7).random(1 << 20)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


class HostSpeed:
    """Times the reference kernel and turns serving seconds into seconds of
    the reference host."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_240_611)
        self._codes = rng.integers(-128, 128, size=(1024, 64), dtype=np.int8)
        self._queries = rng.integers(-128, 128, size=(8, 64), dtype=np.int8)
        self._table = {i: (i * 7919) % 1021 for i in range(1024)}
        self._keys = [int(k) for k in rng.integers(0, 1024, size=1500)]
        self._pairs = [_Pair(i, i + 1) for i in range(800)]
        self.steps: List[float] = []  # serving seconds of each step
        self.probes: List[float] = []  # kernel seconds after each step

    def kernel(self) -> float:
        """Run the reference kernel once; returns its seconds."""
        t0 = perf_counter()
        acc = 0
        table = self._table
        for key in self._keys:
            acc += table[key]
        for pair in self._pairs:
            acc += pair.a * pair.b
        odd = [pair.a for pair in self._pairs if pair.b & 1]
        products = np.einsum(
            "qd,nd->qn", self._queries.astype(np.int32), self._codes.astype(np.int32)
        )
        np.argpartition(products, 10, axis=1)
        head = self._codes[:8]
        for _ in range(20):
            np.add(head, 1)
            np.zeros(len(odd) & 15)
            np.arange(10)
        return perf_counter() - t0

    def setup_probe(self) -> float:
        """Median seconds of three runs of the kernel plus one streaming
        pass over an array larger than the last-level cache."""
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            _STREAM.sum()
            runs.append(perf_counter() - t0)
        return float(np.median(runs))

    def record(self, step_s: float) -> None:
        """Book one step's serving seconds and probe the host after it."""
        self.steps.append(step_s)
        self.probes.append(self.kernel())

    def serving_s(self) -> float:
        return float(sum(self.steps))

    def normalized_s(self) -> float:
        """Serving seconds scaled, block by block, to the reference host."""
        steps = np.asarray(self.steps)
        probes = np.asarray(self.probes)
        total = 0.0
        for lo in range(0, len(steps), BLOCK_STEPS):
            block = slice(lo, lo + BLOCK_STEPS)
            total += steps[block].sum() * REFERENCE_S / float(np.median(probes[block]))
        return total

    def speed(self) -> float:
        """The host's median speed over the drain, relative to the reference."""
        return REFERENCE_S / float(np.median(self.probes)) if self.probes else 0.0


class SetupClock:
    """Times consecutive set-up phases, probing the host before the first
    and after each one; a phase is scaled by the mean of the probes on
    either side of it.  Probe time is in no phase."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.wall: Dict[str, float] = {}
        self.normalized: Dict[str, float] = {}
        self._before = speed.setup_probe()
        self._start = perf_counter()

    def lap(self, name: str) -> None:
        elapsed = perf_counter() - self._start
        after = self.speed.setup_probe()
        self.wall[name] = elapsed
        self.normalized[name] = (
            elapsed * SETUP_REFERENCE_S / (0.5 * (self._before + after))
        )
        self._before = after
        self._start = perf_counter()
