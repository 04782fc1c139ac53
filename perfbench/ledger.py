"""Repeat the benchmark over seeds and record medians, spreads and readings.

Usage, from the repository root::

    python3 perfbench/ledger.py --seeds 1-10 --held-out 11-20 \
        --write perfbench/readings.json

For every workload it runs ``run.py`` once per seed untraced, and traced
right after on the first ``--traced`` seeds, each in its own process, one
at a time.
It reports, per end-to-end metric, the median and the spread (the
distance between the first and third quartile as a share of the median),
and for the held-out seeds the shift of the median against the bound in
``BENCHMARK.json``.  It checks that every traced run gave the same results
digest and bit-identical modeled numbers as the untraced run of its seed,
and reports the tracing overhead as untraced over traced ``host_qps``.
``--write`` stores all of it, with the environment, the workloads' fixed
knobs, the per-layer readings and the per-layer to end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out" / "ledger"

# Host-clock metrics; every other end-to-end metric is modeled and must be
# bit-identical between a traced and an untraced run of one seed.
HOST_METRICS = {"host_qps", "setup_s", "peak_rss_mb"}
# Per-layer numbers that are modeled (or counted) rather than timed.
MODELED_LAYER_PREFIXES = (
    "queue.batches", "queue.mean_batch_size", "queue.wait_", "modeled.",
    "modeled_share.", "sense.", "ecc.decoded_bytes", "ecc.uncorrectable",
    "cache.", "ingest.", "energy.",
)

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "core.queue": {
        "queue.host_s": "host_qps; largest on sharded4-zipf-cache-kill, where "
                        "the former builds per-shard footprints",
        "queue.batches, queue.mean_batch_size": "modeled_capacity_qps up and "
                        "modeled_latency_s_p50 up on single-100k-uniform",
        "queue.wait_s_p50, queue.wait_s_p99": "modeled latency on all workloads",
    },
    "core.batch/core.engine": {
        "exec.host_s, exec.host_batch_s_p50, exec.host_batch_s_p90, "
        "exec_share.* (host.*_s)": "host_qps on single-100k-uniform (fine) "
                                   "and ingest-10k-mixed",
    },
    "core.shard": {
        "router.host_s, router.host_batch_s_p90 (exec.* on sharded4)":
            "host_qps on sharded4-zipf-cache-kill",
        "modeled_share.merge, modeled_share.failover":
            "modeled_latency_s_p99 on sharded4-zipf-cache-kill",
    },
    "core.plan/core.costing": {
        "modeled.*_s, modeled.busy_s, sense.*": "modeled_capacity_qps and "
            "energy_per_query_j on single-100k-uniform",
    },
    "nand.ecc": {
        "ecc.host_s, ecc.decoded_bytes, ecc.uncorrectable_codewords":
            "host_qps on single-100k-uniform and ingest-10k-mixed; barely "
            "on sharded4-zipf-cache-kill, where hits skip the decode",
    },
    "core.cache": {
        "cache.* (host_share.cache)": "energy_per_query_j and "
            "modeled_latency_s_p50 on sharded4-zipf-cache-kill; "
            "cache.invalidated is the cost side on ingest-10k-mixed",
    },
    "core.ingest/core.scheduler": {
        "ingest.*, host_share.ingest_commit, host_share.ingest_compact, "
        "modeled_share.ingest, modeled_share.maintenance":
            "host_qps and modeled_capacity_qps on ingest-10k-mixed",
    },
    "ssd.power": {"energy.*_j_per_query": "energy_per_query_j"},
    "setup": {"setup.*_s": "setup_s"},
    "diagnostic": {"host_to_modeled_ratio": "none (a faster device model at "
                   "the same host cost would read as a regression)"},
}


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, trace: int, seconds: int) -> dict:
    report = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--report", str(report),
    ]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return json.loads(report.read_text())


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def summarize(runs, bounds):
    out = {}
    for name in bounds:
        values = [r["end_to_end"][name] for r in runs]
        median, q1, q3, share = spread(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": share, "values": values}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", default="")
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds, held_out = _seeds(args.seeds), _seeds(args.held_out) if args.held_out else []

    ok = True
    record = {"workloads": {}}
    for workload in args.workloads.split(","):
        # Each traced run follows its untraced twin: host speed drifts over
        # minutes on a shared machine, so only neighbouring runs compare.
        untraced, traced = {}, {}
        for i, s in enumerate(seeds):
            untraced[s] = run_one(workload, s, 0, args.seconds)
            if i < args.traced:
                traced[s] = run_one(workload, s, 1, args.seconds)
        entry = {"seeds": seeds, "end_to_end": summarize(untraced.values(), bounds)}
        failed = [
            f"seed {s}{' traced' if r['trace'] else ''}"
            for s, r in [*untraced.items(), *traced.items()]
            if not r["correct"] or r["failed"]
        ]
        identical = True
        for seed, t in traced.items():
            u = untraced[seed]
            same = t["digest"] == u["digest"] and all(
                t["end_to_end"][k] == u["end_to_end"][k]
                for k in bounds if k not in HOST_METRICS
            ) and all(
                t["per_layer"][k] == u["per_layer"][k]
                for k in u["per_layer"] if k.startswith(MODELED_LAYER_PREFIXES)
            )
            identical = identical and same
        overhead = [
            untraced[s]["end_to_end"]["host_qps"] / t["end_to_end"]["host_qps"]
            for s, t in traced.items()
        ]
        layers = {}
        for name in traced[seeds[0]]["per_layer"] if traced else []:
            values = [t["per_layer"][name] for t in traced.values()]
            if all(isinstance(v, (int, float)) for v in values):
                layers[name] = statistics.median(values)
        extras = {}
        for name in traced[seeds[0]]["extras"] if traced else []:
            values = [t["extras"][name] for t in traced.values()]
            if all(isinstance(v, (int, float)) for v in values):
                extras[name] = statistics.median(values)
        entry.update(
            failed_seeds=failed,
            traced_seeds=sorted(traced),
            traced_equals_untraced=identical,
            tracing_overhead=statistics.median(overhead) if overhead else None,
            per_layer=layers,
            per_layer_extras=extras,
            digests={s: r["digest"] for s, r in untraced.items()},
        )
        print(f"{workload}: failed seeds {failed}, traced == untraced: {identical}, "
              f"tracing overhead x{entry['tracing_overhead']}")
        for name, stats in entry["end_to_end"].items():
            limit = bounds[name]["bound"] / 3
            flag = "" if name == "setup_s" or stats["spread"] <= limit else "  SPREAD > bound/3"
            print(f"  {name:24s} median {stats['median']:.6g}  spread "
                  f"{stats['spread']:.4f}  (bound {bounds[name]['bound']}){flag}")
            ok = ok and not flag
        if held_out:
            second = summarize([run_one(workload, s, 0, args.seconds) for s in held_out], bounds)
            entry["held_out"] = {"seeds": held_out, "end_to_end": second}
            for name, stats in second.items():
                first = entry["end_to_end"][name]["median"]
                worse = (first - stats["median"]) if bounds[name]["better"] == "higher" \
                    else (stats["median"] - first)
                shift = worse / abs(first)
                flag = "" if shift <= bounds[name]["bound"] else "  WORSE THAN BOUND"
                if name != "setup_s" and stats["spread"] > bounds[name]["bound"]:
                    flag += "  HELD-OUT SPREAD > bound"
                print(f"  held-out {name:15s} median {stats['median']:.6g}  "
                      f"spread {stats['spread']:.4f}  worse by {shift:+.4f}{flag}")
                ok = ok and not flag
        ok = ok and identical and not failed
        record["workloads"][workload] = entry

    if args.write is not None:
        spec_fields = ("rate_qps", "limit_s", "cache_budget_bytes", "n_entries",
                       "nlist", "nprobe", "zipf_s", "pool", "shards", "replication",
                       "kill", "write_fraction", "growth_entries", "warmup_reads",
                       "window_reads", "blocks_per_plane")
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(ROOT / "perfbench"))
        import numpy
        import workloads as wl

        record.update(
            environment={
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
                "machine": platform.machine(),
                "run_seconds": args.seconds,
            },
            caches_start_warm=True,
            replicas=wl.REPLICAS,
            workload_specs={
                name: {"why": spec.why, **{f: getattr(spec, f) for f in spec_fields}}
                for name, spec in wl.WORKLOADS.items()
            },
            layer_map=LAYER_MAP,
        )
        args.write.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("steady" if ok else "NOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
