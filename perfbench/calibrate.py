"""Measure the workloads' absolute knobs once (seed 0) and print them.

Usage, from the repository root::

    python3 perfbench/calibrate.py [workload ...]

For each workload it prints the offered rate, the cache budget and the
latency limit that ``workloads.py`` hard-codes:

* offered rate: ``LOAD`` times the solo (one query at a time) service
  rate of the calibration pass (median over the replicas);
* cache budget: half of the working set -- the most bytes a cache with
  nearly all free DRAM holds on any device, at any step of the warm-up
  stream plus the modeled window (compaction clears it);
* latency limit: the pooled windows' modeled p99 at that rate and
  budget, rounded up to two significant digits.

The numbers are recorded once and never re-derived per run, so a faster
device model does not silently change the offered load.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SEED = 0
LOAD = 2.0
DRAM_HEADROOM = 65_536  # left free for the lazily grown top-list arenas


def _round_up(value: float, digits: int = 2) -> float:
    places = digits - 1 - math.floor(math.log10(value))
    return round(math.ceil(value * 10 ** places) / 10 ** places, places)


def calibrate(spec: workloads.Spec) -> dict:
    replicas = range(workloads.REPLICAS)
    probe = replace(spec, rate_qps=1.0, limit_s=math.inf, cache_budget_bytes=0,
                    warmup_reads=0)
    solo = float(np.median([workloads.WorkloadRun(probe, SEED, r).solo_qps
                            for r in replicas]))
    rate = _round_up(LOAD * solo)
    budget = 0
    if spec.cache_budget_bytes:
        peak = 0
        for r in replicas:
            run = workloads.WorkloadRun(replace(probe, rate_qps=rate), SEED, r)
            free = min(ssd.dram.free_bytes for ssd in run.ssds)
            caches = run.device.enable_page_cache(free - DRAM_HEADROOM)
            caches = caches if isinstance(caches, list) else [caches]
            served = 0
            while served < spec.warmup_reads + spec.window_reads:
                served += run._step(None)
                peak = max([peak] + [c.used_bytes for c in caches])
        budget = peak // 2
    latency, sizes = [], []
    for r in replicas:
        run = workloads.WorkloadRun(
            replace(spec, rate_qps=rate, limit_s=math.inf, cache_budget_bytes=budget),
            SEED, r,
        )
        m = run.measure(0.0, None)
        window = run.queue.batches[m.first_batch:m.end_batch]
        sizes.extend(len(b) for b in window)
        latency.extend(
            run.queue.served[s.sub_id].finish_s - s.submit_s
            for b in window for s in b.submissions if s.sub_id not in run.writes
        )
    p99 = float(np.percentile(latency, 99))
    return {
        "solo_qps": solo,
        "rate_qps": rate,
        "cache_budget_bytes": budget,
        "p99_s": p99,
        "limit_s": _round_up(p99),
        "mean_batch_size": float(np.mean(sizes)),
    }


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    for name in names:
        print(name, calibrate(workloads.WORKLOADS[name]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
