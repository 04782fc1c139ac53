"""Tests for the page-major TLC phases (batch rerank/document kernels).

PR 3 made the SLC scan phases page-major at batch level; this file pins
the same treatment for the two TLC phases:

* **Bit identity** -- the batch kernels (`_rerank_batch`,
  `_fetch_documents_batch`) reproduce the scalar reference oracle
  (``tests/reference_search.py``) exactly: ids, distances AND decoded
  document text (property-tested over random databases, corpus and
  corpus-free), while every query keeps its batch-of-one latency;
* **Energy invariant** -- batching shares host work, never charges:
  the TLC sense counters (``page_reads_tlc``) and the ECC decode
  counter equal those of serving each query as a batch of one, even
  when queries share pages (:meth:`_bill_shared_tlc_senses` compensates
  the physical senses);
* **One call per batch** -- the host profiler sees exactly one
  rerank/documents phase entry per batch;
* **Vectorized ECC** -- :meth:`EccEngine.correct_batch` equals the
  per-page :meth:`EccEngine.correct` loop, outputs and counters,
  hinted and unhinted, correctable and uncorrectable;
* **Codeword billing** -- a packed document never straddles an ECC
  codeword, so fetching one bills exactly one codeword.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ann.ivf import build_ivf_model
from repro.core.api import ReisDevice
from repro.core.batch import BatchExecutor
from repro.core.config import tiny_config
from repro.core.plan import SearchStats
from repro.host.profile import HostProfile
from repro.nand.ecc import EccEngine
from repro.rag.documents import Corpus, DocumentChunk
from repro.rag.embeddings import make_clustered_embeddings, make_queries

from tests.reference_search import assert_matches_reference, reference_for

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _chunk_corpus(n, seed):
    rng = np.random.default_rng(seed)
    chunks = []
    for i in range(n):
        body = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=20))
        chunks.append(DocumentChunk(chunk_id=i, text=f"doc-{i}: {body}"))
    return Corpus(chunks)


class TestTlcBatchBitIdentity:
    """Batched TLC phases == the reference, including document text."""

    @given(
        st.tuples(
            st.integers(80, 200),  # n
            st.sampled_from([32, 64]),  # dim
            st.integers(2, 6),  # nlist
            st.integers(1, 10),  # k
            st.integers(2, 9),  # batch size
            st.booleans(),  # deploy a corpus (True) or synthetic blobs
            st.integers(0, 10**6),  # seed
        )
    )
    @SETTINGS
    def test_batch_matches_scalar_documents_included(self, shape):
        n, dim, nlist, k, batch_size, with_corpus, seed = shape
        vectors, _ = make_clustered_embeddings(n, dim, max(nlist, 2), seed=seed)
        queries = make_queries(vectors, batch_size, seed=(seed, "tlc"))
        corpus = _chunk_corpus(n, seed) if with_corpus else None
        device = ReisDevice(tiny_config(f"TLC-{seed}-{n}-{dim}"))
        db_id = device.ivf_deploy(
            "t", vectors, nlist=nlist, corpus=corpus, seed=seed
        )
        db = device.database(db_id)
        reference = reference_for(
            device, db_id, vectors,
            centroids=build_ivf_model(vectors, nlist, seed=seed).centroids,
        )
        # Force every document decode through the flash payloads so the
        # comparison covers the packed-region byte path, not the corpus
        # shortcut.
        db.corpus = None

        sequential = [
            device.engine.search(db, query, k=k, nprobe=2) for query in queries
        ]
        execution = BatchExecutor(device.engine).execute(
            db, queries, k=k, nprobe=2
        )
        for query, solo, batched in zip(queries, sequential, execution):
            assert_matches_reference(
                batched, reference.search(query, k=k, nprobe=2)
            )
            assert solo.latency.total_s == pytest.approx(
                batched.latency.total_s, rel=1e-12
            )

    def test_tlc_counters_match_sequential_walk(
        self, small_vectors, small_corpus, small_queries
    ):
        """Cross-query page sharing shares work, never charges: the TLC
        sense and ECC decode counters of one batch of eight equal those of
        eight batches of one."""
        vectors, _ = small_vectors

        def run(batched):
            device = ReisDevice(tiny_config("TLC-CNT"))
            db_id = device.ivf_deploy(
                "c", vectors, nlist=4, corpus=small_corpus, seed=0
            )
            db = device.database(db_id)
            base_reads = device.engine.ssd.counters["page_reads_tlc"]
            base_decoded = device.engine.ssd.ecc.decoded_bytes
            assert base_reads == 0
            if batched:
                BatchExecutor(device.engine).execute(
                    db, small_queries[:8], k=10, nprobe=4
                )
            else:
                for query in small_queries[:8]:
                    device.engine.search(db, query, k=10, nprobe=4)
            return (
                device.engine.ssd.counters["page_reads_tlc"] - base_reads,
                device.engine.ssd.ecc.decoded_bytes - base_decoded,
            )

        seq_reads, seq_decoded = run(batched=False)
        bat_reads, bat_decoded = run(batched=True)
        assert seq_reads > 0
        assert bat_reads == seq_reads
        assert bat_decoded == seq_decoded

    def test_one_profiler_call_per_batch(self, deployed_device, small_queries):
        device, db_id = deployed_device
        profile = HostProfile()
        device.ivf_search(
            db_id, small_queries[:6], k=5, nprobe=3, host_profile=profile
        )
        assert profile.calls["rerank"] == 1
        assert profile.calls["documents"] == 1
        # max_seconds tracks the single batch-level call's duration.
        assert profile.max_seconds["rerank"] == profile.seconds["rerank"]


class TestCorrectBatchEquivalence:
    """`correct_batch` == per-page `correct`, outputs and counters."""

    @staticmethod
    def _page_stack(n_pages, page_bytes, flips, seed):
        """Golden pages plus raws with `flips[i]` flipped bits on page i."""
        rng = np.random.default_rng(seed)
        goldens = rng.integers(0, 256, size=(n_pages, page_bytes)).astype(
            np.uint8
        )
        raws = goldens.copy()
        hints = []
        for i, n_flips in enumerate(flips):
            positions = rng.choice(page_bytes, size=n_flips, replace=False)
            for pos in positions:
                raws[i, pos] ^= np.uint8(1 << int(rng.integers(0, 8)))
            # Hints are a superset of the flipped bytes, like the error
            # injector's report.
            extra = rng.choice(page_bytes, size=2, replace=False)
            hints.append(
                np.unique(np.concatenate([positions, extra])).astype(np.int64)
            )
        return raws, goldens, hints

    @given(
        st.tuples(
            st.integers(1, 6),  # pages
            st.sampled_from([2048, 4096, 8192]),  # page bytes (cw multiple)
            st.booleans(),  # pass hints
            st.integers(0, 10**6),
        )
    )
    @SETTINGS
    def test_matches_per_page_loop(self, shape):
        n_pages, page_bytes, hinted, seed = shape
        rng = np.random.default_rng(seed)
        # Mix of clean, lightly-corrupted and uncorrectable pages: 100
        # flipped bytes can exceed the 72-bit capability of one codeword.
        flips = rng.choice([0, 3, 10, 100], size=n_pages).tolist()
        raws, goldens, hints = self._page_stack(
            n_pages, page_bytes, flips, seed
        )

        solo, batch = EccEngine(), EccEngine()
        expected = np.stack(
            [
                solo.correct(
                    raws[i], goldens[i],
                    candidate_bytes=hints[i] if hinted else None,
                )
                for i in range(n_pages)
            ]
        )
        got = batch.correct_batch(
            raws, goldens, candidate_bytes=hints if hinted else None
        )
        assert np.array_equal(got, expected)
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords

    def test_empty_stack_is_a_noop(self):
        ecc = EccEngine()
        out = ecc.correct_batch(
            np.empty((0, 4096), dtype=np.uint8),
            np.empty((0, 4096), dtype=np.uint8),
        )
        assert out.shape == (0, 4096)
        assert ecc.decoded_bytes == 0

    def test_odd_page_width_falls_back_per_page(self):
        # 3000 bytes is not a codeword multiple: the fallback loop must
        # still match the per-page path exactly.
        raws, goldens, hints = self._page_stack(3, 3000, [0, 5, 90], seed=7)
        solo, batch = EccEngine(), EccEngine()
        expected = np.stack(
            [solo.correct(raws[i], goldens[i]) for i in range(3)]
        )
        got = batch.correct_batch(raws, goldens)
        assert np.array_equal(got, expected)
        assert batch.decoded_bytes == solo.decoded_bytes
        assert batch.corrected_bits == solo.corrected_bits
        assert batch.uncorrectable_codewords == solo.uncorrectable_codewords


class TestDocumentCodewordBilling:
    """Document fetches bill whole codewords, one per packed chunk."""

    def test_single_document_bills_one_codeword(self, deployed_device):
        device, db_id = deployed_device
        engine = device.engine
        db = device.database(db_id)
        cw = engine.ssd.ecc.config.codeword_bytes
        # This corpus packs into slots narrower than a codeword, and a
        # power-of-two slot never straddles one.
        assert db.document_region.item_bytes <= cw
        base_channel = engine.ssd.counters["channel_bytes"]
        stats = SearchStats()
        ((_documents, cost, _host_s),) = engine._fetch_documents_batch(
            db, [np.array([0], dtype=np.int64)], [stats]
        )
        assert stats.pages_read == 1
        assert sum(cost.pages_per_plane.values()) == 1
        assert cost.ecc_bytes == cw
        assert sum(cost.channel_bytes.values()) == cw
        assert engine.ssd.counters["channel_bytes"] - base_channel == cw
