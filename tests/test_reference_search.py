"""The reference oracle (tests/reference_search.py) and the solo entry point.

* **Independence** -- the oracle imports nothing from the serving
  modules it checks, so agreement is evidence, not a tautology.
* **Solo queries match it** -- ``engine.search`` (a batch of one) returns
  the oracle's ids, distances and documents for IVF and flat databases,
  with and without metadata filters, distance filtering, the schedule
  optimizer, and a forced filter retry (hypothesis property).
* **The oracle's coarse phase covers the corpus** -- probing every
  cluster scans each slot exactly once.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ann.ivf import build_ivf_model
from repro.core.api import ReisDevice
from repro.core.config import NO_OPT, OptFlags, tiny_config
from repro.rag.documents import Corpus
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.reference_search import assert_matches_reference, reference_for

ORACLE = Path(__file__).with_name("reference_search.py")

FLAGS = {
    "default": OptFlags(),
    "no-opt": NO_OPT,
    "query-order": OptFlags(schedule_optimization=False),
}


def test_oracle_imports_no_serving_module():
    tree = ast.parse(ORACLE.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert modules, "the oracle must import something (numpy at least)"
    assert not any(name.startswith("repro.core") for name in modules), modules


@given(
    st.tuples(
        st.integers(80, 260),  # n
        st.sampled_from([32, 64]),  # dim
        st.integers(2, 8),  # nlist
        st.integers(1, 12),  # k
        st.integers(1, 8),  # nprobe (clamped to nlist)
        st.booleans(),  # IVF or flat
        st.booleans(),  # metadata filter
        st.booleans(),  # force the filter retry
        st.sampled_from(sorted(FLAGS)),
        st.booleans(),  # deploy a corpus
        st.integers(0, 10**6),  # seed
    )
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_solo_search_matches_reference(shape):
    (n, dim, nlist, k, nprobe, use_ivf, filtered, force_retry, flags,
     with_corpus, seed) = shape
    vectors, labels = make_clustered_embeddings(n, dim, nlist, seed=seed)
    queries = make_queries(vectors, 3, seed=(seed, "ref"))
    tags = (labels % 3).astype(np.uint32)
    corpus = Corpus.synthetic(n, labels, f"ref-{seed}") if with_corpus else None
    device = ReisDevice(tiny_config(f"REF-{seed}-{n}"), flags=FLAGS[flags])
    if use_ivf:
        model = build_ivf_model(vectors, nlist, seed=seed)
        db_id = device.ivf_deploy(
            "r", vectors, ivf_model=model, corpus=corpus,
            metadata_tags=tags, seed=seed,
        )
        reference = reference_for(
            device, db_id, vectors, centroids=model.centroids
        )
    else:
        db_id = device.db_deploy(
            "r", vectors, corpus=corpus, metadata_tags=tags, seed=seed
        )
        reference = reference_for(device, db_id, vectors)
    db = device.database(db_id)
    if force_retry:
        db.filter_threshold = 1  # nothing is within 1 bit of a query
    metadata_filter = int(seed % 3) if filtered else None
    for query in queries:
        result = device.engine.search(
            db, query, k=k, nprobe=nprobe, metadata_filter=metadata_filter
        )
        assert_matches_reference(
            result,
            reference.search(
                query, k=k, nprobe=nprobe, metadata_filter=metadata_filter
            ),
        )


def test_full_probe_reaches_every_slot_once(unit_reference, small_queries):
    """Probing every cluster scans each slot exactly once, slots ascending
    within each probed cluster."""
    db = unit_reference.db
    for query in small_queries[:4]:
        slots = unit_reference.candidates(query, nprobe=db.n_clusters)
        assert sorted(slots.tolist()) == list(range(db.n_entries))
        steps = np.diff(slots)
        # Within a cluster the scan steps by one slot; it jumps only
        # between clusters.
        assert (steps != 1).sum() <= db.n_clusters - 1
