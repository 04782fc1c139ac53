"""Shared fixtures: small datasets, devices and deployed databases.

Expensive objects (trained indexes, deployed devices) are module- or
session-scoped; tests must not mutate them.  Tests that need mutation
build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ann.ivf import build_ivf_model
from repro.ann.recall import exact_ground_truth
from repro.core.api import ReisDevice
from repro.core.config import tiny_config
from repro.rag.documents import Corpus
from repro.rag.embeddings import make_clustered_embeddings, make_queries

SMALL_N = 600
SMALL_DIM = 128
SMALL_CLUSTERS = 12
SMALL_NLIST = 12
N_QUERIES = 12


@pytest.fixture(scope="session")
def small_vectors():
    vectors, labels = make_clustered_embeddings(
        SMALL_N, SMALL_DIM, SMALL_CLUSTERS, seed="tests"
    )
    return vectors, labels


@pytest.fixture(scope="session")
def small_queries(small_vectors):
    vectors, _ = small_vectors
    return make_queries(vectors, N_QUERIES, seed="tests-q")


@pytest.fixture(scope="session")
def small_ground_truth(small_vectors, small_queries):
    vectors, _ = small_vectors
    return exact_ground_truth(small_queries, vectors, 10)


@pytest.fixture(scope="session")
def small_corpus(small_vectors):
    _, labels = small_vectors
    return Corpus.synthetic(SMALL_N, labels, "unit")


@pytest.fixture(scope="session")
def small_ivf_model(small_vectors):
    vectors, _ = small_vectors
    return build_ivf_model(vectors, SMALL_NLIST, seed=0)


@pytest.fixture(scope="session")
def deployed_device(small_vectors, small_corpus, small_ivf_model):
    """A tiny REIS device with one IVF database deployed (read-only)."""
    vectors, _ = small_vectors
    device = ReisDevice(tiny_config())
    db_id = device.ivf_deploy(
        "unit-ivf", vectors, ivf_model=small_ivf_model, corpus=small_corpus, seed=0
    )
    return device, db_id


@pytest.fixture(scope="session")
def unit_reference(deployed_device, small_vectors, small_ivf_model):
    """The reference oracle (tests/reference_search.py) for
    ``deployed_device``'s IVF database."""
    from tests.reference_search import reference_for

    device, db_id = deployed_device
    vectors, _ = small_vectors
    return reference_for(
        device, db_id, vectors, centroids=small_ivf_model.centroids
    )


@pytest.fixture(scope="session")
def deployed_flat_device(small_vectors, small_corpus):
    """A tiny REIS device with one flat (brute-force) database (read-only)."""
    vectors, _ = small_vectors
    device = ReisDevice(tiny_config("REIS-TINY-FLAT"))
    db_id = device.db_deploy("unit-flat", vectors, corpus=small_corpus, seed=0)
    return device, db_id


@pytest.fixture()
def fresh_device():
    """A mutable device for tests that deploy/drop databases."""
    return ReisDevice(tiny_config("REIS-FRESH"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def sim_clock():
    """A fresh simulated clock (host-side queue decisions never read wall
    time; see the guard test in tests/test_core_queue.py)."""
    from repro.sim.latency import SimClock

    return SimClock()
