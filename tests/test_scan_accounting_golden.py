"""Golden accounting fixture: every modeled number a served batch produces.

The reference oracle (``tests/reference_search.py``) checks ids, distances
and documents, but it cannot see drift in the *modeled* numbers: command
traces, energy counters, per-query phase costs, TTL footprints and solo
latency.  This module serves a seeded matrix of batches -- IVF and flat,
distance filtering on and off, a metadata filter, the schedule optimizer
off, a forced unfiltered retry, warm LRU and cost-aware caches -- and
compares a snapshot of all of those numbers with ``==`` against the
checked-in ``scan_accounting_golden.json``.

Regenerate the fixture only when a change is *meant* to move modeled
numbers (and say why in the change log)::

    PYTHONPATH=src:. python -m tests.test_scan_accounting_golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.core.batch as batch_module
from repro.ann.ivf import build_ivf_model
from repro.core.api import ReisDevice
from repro.core.cache import CostAwarePolicy, LruPolicy
from repro.core.config import FlashGeometry, NandTiming, OptFlags, ReisConfig
from repro.rag.documents import Corpus
from repro.rag.embeddings import make_clustered_embeddings, make_queries

GOLDEN_PATH = Path(__file__).with_name("scan_accounting_golden.json")

N = 2400
DIM = 256
NLIST = 10
N_QUERIES = 5


def _pairs(mapping):
    """A dict as an ordered ``[key, value]`` list (JSON keys must be
    strings, and insertion order is part of what is pinned)."""
    return [[key, value] for key, value in mapping.items()]


def _phase_cost(cost):
    return {
        "pages_per_plane": _pairs(cost.pages_per_plane),
        "sensed_page_ids": _pairs(cost.sensed_page_ids),
        "channel_bytes": _pairs(cost.channel_bytes),
        "core_seconds": cost.core_seconds,
        "dram_seconds": cost.dram_seconds,
        "dram_bytes": cost.dram_bytes,
        "dram_streams": _pairs(cost.dram_streams),
        "ecc_bytes": cost.ecc_bytes,
    }


def _config(name):
    """The tiny topology with 8x deeper planes, so the internal DRAM (0.1%
    of capacity) holds a partial-working-set cache."""
    return ReisConfig(
        name=name,
        geometry=FlashGeometry(
            channels=2, chips_per_channel=1, dies_per_chip=2,
            planes_per_die=2, blocks_per_plane=64, pages_per_block=64,
        ),
        timing=NandTiming(channel_bandwidth_bps=1.2e9),
    )


def _data():
    vectors, labels = make_clustered_embeddings(N, DIM, NLIST, seed="golden")
    queries = make_queries(vectors, N_QUERIES, seed="golden-q")
    corpus = Corpus.synthetic(N, labels, "golden")
    tags = (np.arange(N) % 3).astype(np.int64)
    model = build_ivf_model(vectors, NLIST, seed=0)
    return vectors, queries, corpus, tags, model


# name -> (ivf, flags, metadata tags + filter, forced retry, cache policy)
CASES = {
    "ivf": dict(ivf=True),
    "ivf_no_filtering": dict(ivf=True, flags=OptFlags(distance_filtering=False)),
    "ivf_metadata": dict(ivf=True, metadata=True),
    "ivf_schedule_off": dict(ivf=True, flags=OptFlags(schedule_optimization=False)),
    "ivf_forced_retry": dict(ivf=True, retry=True),
    "ivf_lru_warm": dict(ivf=True, cache="lru"),
    "ivf_cost_aware_warm": dict(ivf=True, cache="cost_aware"),
    "flat": dict(ivf=False),
    "flat_metadata_no_filtering": dict(
        ivf=False, metadata=True, flags=OptFlags(distance_filtering=False)
    ),
}


def _serve_case(name, spec, data):
    vectors, queries, corpus, tags, model = data
    device = ReisDevice(_config(f"GOLD-{name}"), flags=spec.get("flags"))
    metadata = tags if spec.get("metadata") else None
    metadata_filter = 1 if spec.get("metadata") else None
    if spec["ivf"]:
        db_id = device.ivf_deploy(
            "g", vectors, ivf_model=model, corpus=corpus,
            metadata_tags=metadata, seed=0,
        )
    else:
        db_id = device.db_deploy(
            "g", vectors, corpus=corpus, metadata_tags=metadata, seed=0
        )
    db = device.database(db_id)
    if spec.get("retry"):
        db.filter_threshold = 1  # nothing is within 1 bit: every query retries
    # Scan pages only: the LRU budget holds the whole scan working set,
    # the cost-aware one part of it.
    budget, policy = {
        "lru": (360_000, LruPolicy),
        "cost_aware": (330_000, CostAwarePolicy),
    }.get(spec.get("cache"), (0, None))
    if policy is not None:
        device.enable_page_cache(
            budget, policy=policy(), kinds=("centroid", "cluster")
        )

    captured = []
    original = batch_module.compose_batch_report

    def capture(engine, ctxs, stats, scheduled_senses):
        captured.append(list(ctxs))
        return original(engine, ctxs, stats, scheduled_senses)

    batch_module.compose_batch_report = capture
    try:
        batches = []
        # Two rounds (the first warms any cache), then a solo query and a
        # k=1 batch whose small shortlist compacts the TTL on most pages.
        for round_k in (5, 5):
            batches.append(device.engine.search_batch(
                db, queries, k=round_k, nprobe=3,
                metadata_filter=metadata_filter,
            ))
        batches.append(device.engine.search_batch(
            db, queries[:1], k=5, nprobe=3, metadata_filter=metadata_filter,
        ))
        batches.append(device.engine.search_batch(
            db, queries[1:4], k=1, nprobe=2, metadata_filter=metadata_filter,
        ))
    finally:
        batch_module.compose_batch_report = original

    engine = device.engine
    snapshot = {
        "flash_ops": [
            [die, {op.value: n for op, n in iface.trace.counts.items()}]
            for die, iface in sorted(engine._die_interfaces.items())
        ],
        "counters": _pairs(dict(sorted(device.ssd.counters.as_dict().items()))),
        "ttl_regions": [
            device.ssd.dram.region_size("ttl-c"),
            device.ssd.dram.region_size("ttl-e"),
        ],
        "core_busy_seconds": device.ssd.cores.reis_core.busy_seconds,
        "batches": [],
    }
    cache = device.page_cache
    if cache is not None:
        snapshot["cache"] = [cache.stats.hits, cache.stats.misses]
    for execution, ctxs in zip(batches, captured):
        stats = execution.stats
        snapshot["batches"].append({
            "total_s": execution.report.total_s,
            "phases": _pairs(execution.report.phases),
            "scan": [stats.scan_requests, stats.scan_senses, stats.cache_hits],
            "queries": [
                {
                    "ids": [int(i) for i in result.ids],
                    "stats": dataclasses.asdict(result.stats),
                    "latency": [
                        result.latency.total_s,
                        _pairs(result.latency.phases),
                        _pairs(result.latency.components),
                    ],
                    "costs": {
                        phase: _phase_cost(ctx.phase_costs[phase])
                        for phase in ctx.phase_costs
                    },
                }
                for result, ctx in zip(execution.results, ctxs)
            ],
        })
    # Round-trip through JSON so tuples/ints compare like the fixture.
    return json.loads(json.dumps(snapshot))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def data():
    return _data()


@pytest.mark.parametrize("name", sorted(CASES))
def test_accounting_matches_golden(name, golden, data):
    assert _serve_case(name, CASES[name], data) == golden[name]


def test_matrix_exercises_every_path(golden):
    """The fixture is only worth its bytes if each case drives the path it
    is named after: retries happen, caches hit, filters drop entries."""
    def queries(case):
        return [q for b in golden[case]["batches"] for q in b["queries"]]

    assert all(q["stats"]["filter_retries"] == 1 for q in queries("ivf_forced_retry"))
    for case in ("ivf_lru_warm", "ivf_cost_aware_warm"):
        assert golden[case]["cache"][0] > 0
        assert any(
            cost["dram_streams"]
            for q in queries(case) for cost in q["costs"].values()
        )
    assert any(q["costs"]["fine"]["dram_streams"] for q in queries("ivf_lru_warm"))
    assert any(q["stats"]["entries_filtered"] for q in queries("ivf_metadata"))
    assert all(
        q["stats"]["entries_filtered"] == 0 for q in queries("ivf_no_filtering")
    )
    assert all("coarse" not in q["costs"] for q in queries("flat"))


if __name__ == "__main__":
    shared = _data()
    payload = {name: _serve_case(name, spec, shared) for name, spec in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
