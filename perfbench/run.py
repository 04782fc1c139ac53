"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload single-100k-uniform --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it wraps each layer's public
calls (see ``tracing.py``), gives the per-layer metrics and writes its
spans to ``.perfbench-out/``.  Every metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--report PATH`` also writes
everything the run measured (both metric sets, checks, digest) as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# One single-threaded load process: no BLAS worker threads competing with
# the simulator for the box's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from repro.host.profile import HostProfile  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "host_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "modeled_latency_s_p50": "s",
    "modeled_latency_s_p99": "s",
    "modeled_capacity_qps": "1/s",
    "energy_per_query_j": "J",
    "recall_at_10": "1",
    "slo_attainment": "1",
}

HOST_PHASES = ("prepare", "ibc", "coarse", "fine", "rerank", "documents", "finalize")
# Layers whose self times partition the traced host wall, with the
# unattributed remainder (the load generator and loop bookkeeping).
TRACED_LAYERS = ("queue", "exec", "cache", "ecc", "ingest.commit", "ingest.compact")

PER_LAYER = {
    "trace.host_wall_s": "s",
    "trace.host_qps": "1/s",
    "trace.spans": "count",
    "queue.host_s": "s",
    "queue.batches": "count",
    "queue.mean_batch_size": "count",
    "queue.wait_s_p50": "s",
    "queue.wait_s_p99": "s",
    "exec.host_s": "s",
    "exec.host_batch_s_p50": "s",
    "exec.host_batch_s_p90": "s",
    "ecc.host_s": "s",
    **{f"host_share.{name.replace('.', '_')}": "%"
       for name in TRACED_LAYERS + ("unattributed",)},
    **{f"exec_share.{name}": "%" for name in HOST_PHASES + ("unattributed",)},
    **{f"modeled.{name}_s": "s"
       for name in ("ibc", "coarse", "fine", "rerank", "documents")},
    "modeled.busy_s": "s",
    **{f"modeled_share.{name}": "%" for name in workloads.MODELED_PHASES},
    "sense.scan_requests": "count",
    "sense.scan_senses": "count",
    "sense.scan_sense_ratio": "1",
    "sense.tlc_reads": "count",
    "ecc.decoded_bytes": "B",
    "ecc.uncorrectable_codewords": "count",
    "cache.hit_rate": "1",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.admitted": "count",
    "cache.evicted": "count",
    "cache.invalidated": "count",
    "cache.dram_hits_billed": "count",
    "ingest.commits": "count",
    "ingest.pages_programmed": "count",
    "ingest.compactions": "count",
    "ingest.compactions_at_negative_free_slots": "count",
    "ingest.erased_blocks": "count",
    **{f"energy.{name}_j_per_query": "J" for name in workloads.ENERGY_TERMS},
    **{f"setup.{name}_s": "s" for name in ("corpus", "kmeans", "deploy", "warmup")},
    "host_to_modeled_ratio": "1",
}


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def traced_layers(tracer: Tracer, profile: HostProfile, result: dict, busy_s: float):
    """Per-layer host numbers from the spans.  Returns ``(metrics, extras,
    ok)``: extras are absolute times of layers a workload may bypass, and
    ``ok`` says the self times plus the remainder add up to the wall."""
    wall, reads = result["host_wall_s"], result["timed_reads"]
    own = tracer.self_times()
    totals = tracer.totals()
    unattributed = wall - tracer.root_seconds()
    parts = sum(own.get(name, 0.0) for name in TRACED_LAYERS) + unattributed
    ok = (
        set(own) <= set(TRACED_LAYERS)
        and abs(parts - wall) <= 1e-9 * wall
    )
    exec_s = totals.get("exec", 0.0)
    batches = tracer.durations("exec")
    layers = {
        "trace.host_wall_s": wall,
        "trace.host_qps": reads / wall,
        "trace.spans": len(tracer.names),
        "queue.host_s": own.get("queue", 0.0),
        "exec.host_s": exec_s,
        "exec.host_batch_s_p50": _percentile(batches, 50),
        "exec.host_batch_s_p90": _percentile(batches, 90),
        "ecc.host_s": own.get("ecc", 0.0),
        "host_share.unattributed": 100.0 * unattributed / wall,
        "host_to_modeled_ratio": (wall / reads) / (busy_s / result["window_reads"]),
    }
    for name in TRACED_LAYERS:
        layers[f"host_share.{name.replace('.', '_')}"] = 100.0 * own.get(name, 0.0) / wall
    profiled = 0.0
    for name in HOST_PHASES:
        seconds = profile.seconds.get(name, 0.0)
        profiled += seconds
        layers[f"exec_share.{name}"] = 100.0 * seconds / exec_s
    layers["exec_share.unattributed"] = 100.0 * (exec_s - profiled) / exec_s
    extras = {
        "self.unattributed_s": unattributed,
        "cache.host_s": own.get("cache", 0.0),
        "ingest.commit_host_s": totals.get("ingest.commit", 0.0),
        "ingest.compact_host_s": totals.get("ingest.compact", 0.0),
        "exec.unattributed_s": exec_s - profiled,
        **{f"host.{name}_s": profile.seconds.get(name, 0.0) for name in HOST_PHASES},
    }
    return layers, extras, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = workloads.WORKLOADS[args.workload]
    tracer = profile = None
    if args.trace:
        tracer, profile = Tracer(), HostProfile()
    parts = []
    for replica in range(workloads.REPLICAS):
        run = workloads.WorkloadRun(spec, args.seed, replica)
        if tracer is not None:
            run.install_tracer(tracer, profile)
        m = run.measure(args.seconds / workloads.REPLICAS, tracer)
        parts.append(workloads.evaluate(run, m))
        del run, m
        gc.collect()
    result = workloads.combine(parts)
    metrics = dict(result["metrics"])
    layers = dict(result["layers"])
    extras = {
        "failed_fraction": result["failed_fraction"],
        "host_qps_wall": result["host_qps_wall"],
        "host_speed": result["host_speed"],
        "setup_wall_s": result["setup_wall_s"],
        "calibration.solo_qps": result["solo_qps"],
        "offered_load": spec.rate_qps / result["solo_qps"],
        "modeled.merge_s": layers.get("modeled.merge_s", 0.0),
        "modeled.failover_s": layers.get("modeled.failover_s", 0.0),
        "modeled.ingest_s": layers.get("modeled.ingest_s", 0.0),
        "ingest.maintenance_modeled_s": layers.get("modeled.maintenance_s", 0.0),
        "ingest.compaction_free_slots": result["compaction_free_slots"],
    }
    checks = dict(result["checks"])
    if tracer is not None and "modeled.busy_s" in layers:
        traced, traced_extras, checks["trace_parts_sum_to_wall"] = traced_layers(
            tracer, profile, result, layers["modeled.busy_s"]
        )
        layers.update(traced)
        extras.update(traced_extras)
        if spec.shards > 1:
            extras["router.host_s"] = traced["exec.host_s"]
            extras["router.host_batch_s_p90"] = traced["exec.host_batch_s_p90"]
        out = ROOT / ".perfbench-out" / f"spans-{spec.name}-seed{args.seed}.npz"
        tracer.write(out)
        extras["spans_file"] = str(out.relative_to(ROOT))
    correct = (
        all(checks.values())
        and result["failed"] == 0
        and set(END_TO_END) <= set(metrics)
        and (not args.trace or set(PER_LAYER) <= set(layers))
    )

    print(f"workload {spec.name} seed {args.seed} trace {args.trace}")
    print(f"  why: {spec.why}")
    print(f"  offered {spec.rate_qps:.1f} q/s (sim), limit {spec.limit_s} s, "
          f"cache budget {spec.cache_budget_bytes} B per device")
    for name, ok in sorted(checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, error in enumerate(result["errors"]):
        print(f"  error {name}: {error}")
    print(f"  digest {result['digest']}")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {metrics.get(name)!r} {unit}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name} = {layers.get(name)!r} {unit}")
    for name, value in extras.items():
        print(f"  {name} = {value!r}")

    shown = END_TO_END if not args.trace else PER_LAYER
    values = metrics if not args.trace else layers
    line = {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in shown.items() if name in values
        },
    }
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps({
            **line,
            "workload": spec.name,
            "seed": args.seed,
            "trace": args.trace,
            "end_to_end": metrics,
            "per_layer": layers,
            "extras": extras,
            "checks": checks,
            "digest": result["digest"],
        }, indent=1, default=float) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
