"""A deliberately slow, independent reference for in-storage search.

The serving path answers a query with page-major kernels over simulated
NAND: latched senses, XOR + fail-bit counts, temporal top lists with
per-page quickselect, ECC-corrected TLC reads.  This module recomputes
the answer that path must return from the *inputs* of a deployment
instead -- the original vectors, the deployment's codecs and slot table,
the IVF centroids and the corpus -- in plain numpy, one query at a time.
It touches no flash page, latch, top list or cost model, and imports
nothing from the serving modules it is used to check.

The five phases and their documented tie-break orders:

* **IBC** -- the query is binary-encoded with ``db.binary_quantizer``.
* **Coarse** -- Hamming distance to every centroid code; the
  ``nprobe`` nearest by (distance, centroid slot).
* **Fine** -- candidates are the selected clusters' slot ranges, in
  selected-cluster order with slots ascending (the whole region for a
  flat database).  With distance filtering on, an entry survives only
  strictly below ``db.filter_threshold``; with a metadata filter, only
  entries carrying that tag survive.  If fewer than ``min(k,
  candidates)`` survive, the phase is redone without the distance
  filter.  The shortlist is the ``shortlist_factor * k`` survivors
  nearest by (distance, scan position).
* **Rerank** -- INT8 squared L2 with ``db.int8_quantizer``, a stable
  argsort over the shortlist order, top ``k``.
* **Documents** -- ids via ``db.slot_to_original``; documents from the
  deployed corpus (``chunk-<id>`` blobs for corpus-free deployments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.rag.documents import Corpus, DocumentChunk


@dataclass
class ReferenceResult:
    """What a query must return: ids, INT8 distances and documents."""

    ids: np.ndarray
    distances: np.ndarray
    documents: List[DocumentChunk]


class ReferenceSearch:
    """The reference answer for one deployed, immutable database.

    ``centroids`` are the IVF model's float centroids (required for an
    IVF deployment).  ``shortlist_factor`` and ``distance_filtering`` are
    the serving engine's settings; :func:`reference_for` reads them off a
    device.
    """

    def __init__(
        self,
        db,
        vectors: np.ndarray,
        centroids: Optional[np.ndarray] = None,
        corpus: Optional[Corpus] = None,
        shortlist_factor: int = 4,
        distance_filtering: bool = True,
    ) -> None:
        if db.mutable_index is not None:
            raise ValueError("the reference serves immutable deployments only")
        vectors = np.asarray(vectors, dtype=np.float32)
        slot_vectors = vectors[db.slot_to_original]
        self.db = db
        self.corpus = corpus
        self.shortlist_factor = shortlist_factor
        self.distance_filtering = distance_filtering
        self.slot_bits = np.unpackbits(
            db.binary_quantizer.encode(slot_vectors), axis=1
        )
        self.slot_int8 = db.int8_quantizer.encode(slot_vectors).astype(np.int64)
        self.slot_tags = (
            None if db.metadata_tags is None
            else np.asarray(db.metadata_tags)[db.slot_to_original]
        )
        self.cluster_ranges = None
        if db.r_ivf is not None:
            if centroids is None:
                raise ValueError("an IVF deployment needs its centroids")
            self.centroid_bits = np.unpackbits(
                db.binary_quantizer.encode(
                    np.asarray(centroids, dtype=np.float32)
                ),
                axis=1,
            )
            self.cluster_ranges = [
                (db.r_ivf[c].first_embedding, db.r_ivf[c].last_embedding)
                for c in range(len(db.r_ivf))
            ]

    def _hamming(self, bits: np.ndarray, query) -> np.ndarray:
        query = np.asarray(query, dtype=np.float32)
        query_bits = np.unpackbits(
            self.db.binary_quantizer.encode(query[None, :]), axis=1
        )[0]
        return (bits != query_bits[None, :]).sum(axis=1).astype(np.int64)

    def candidates(self, query, nprobe: Optional[int] = None) -> np.ndarray:
        """Candidate slots in scan order (coarse phase included)."""
        if self.cluster_ranges is None:
            return np.arange(self.db.n_entries, dtype=np.int64)
        n_clusters = len(self.cluster_ranges)
        if nprobe is None:
            nprobe = max(1, int(round(n_clusters**0.5)))
        nprobe = min(nprobe, n_clusters)
        centroid_dists = self._hamming(self.centroid_bits, query)
        probed = np.argsort(centroid_dists, kind="stable")[:nprobe]
        spans = [
            np.arange(first, last + 1, dtype=np.int64)
            for first, last in (self.cluster_ranges[c] for c in probed)
        ]
        return np.concatenate(spans) if spans else np.empty(0, np.int64)

    def shortlist(
        self,
        query,
        k: int,
        nprobe: Optional[int] = None,
        metadata_filter: Optional[int] = None,
    ) -> np.ndarray:
        """The rescoring shortlist's slots, nearest first."""
        slots = self.candidates(query, nprobe)
        dists = self._hamming(self.slot_bits[slots], query)
        tag_ok = np.ones(slots.size, dtype=bool)
        if metadata_filter is not None:
            tag_ok = self.slot_tags[slots] == metadata_filter
        keep = tag_ok
        if self.distance_filtering:
            keep = tag_ok & (dists < self.db.filter_threshold)
            if keep.sum() < min(k, slots.size):
                keep = tag_ok  # the unfiltered retry
        kept_slots, kept_dists = slots[keep], dists[keep]
        order = np.argsort(kept_dists, kind="stable")
        return kept_slots[order[: self.shortlist_factor * k]]

    def search(
        self,
        query,
        k: int = 10,
        nprobe: Optional[int] = None,
        metadata_filter: Optional[int] = None,
        fetch_documents: bool = True,
    ) -> ReferenceResult:
        query = np.asarray(query, dtype=np.float32)
        short = self.shortlist(query, k, nprobe, metadata_filter)
        query_i8 = self.db.int8_quantizer.encode(query[None, :])[0].astype(
            np.int64
        )
        diff = self.slot_int8[short] - query_i8[None, :]
        refined = (diff * diff).sum(axis=1)
        top = np.argsort(refined, kind="stable")[: min(k, short.size)]
        ids = np.asarray(self.db.slot_to_original[short[top]], dtype=np.int64)
        documents: List[DocumentChunk] = []
        if fetch_documents:
            documents = [self.document(int(i)) for i in ids]
        return ReferenceResult(
            ids=ids, distances=refined[top], documents=documents
        )

    def document(self, original_id: int) -> DocumentChunk:
        if self.corpus is not None:
            return self.corpus[original_id]
        return DocumentChunk(chunk_id=original_id, text=f"chunk-{original_id}")


def reference_for(
    device,
    db_id: int,
    vectors: np.ndarray,
    centroids: Optional[np.ndarray] = None,
    corpus: Optional[Corpus] = None,
) -> ReferenceSearch:
    """A :class:`ReferenceSearch` for a database deployed on ``device``,
    with the device engine's shortlist factor and distance-filter flag.
    ``corpus`` defaults to the one the database was deployed with."""
    engine = device.engine
    db = device.database(db_id)
    return ReferenceSearch(
        db,
        vectors,
        centroids=centroids,
        corpus=corpus if corpus is not None else db.corpus,
        shortlist_factor=engine.params.shortlist_factor,
        distance_filtering=engine.flags.distance_filtering,
    )


def assert_matches_reference(result, expected: ReferenceResult,
                             documents: bool = True) -> None:
    """Served ``result`` == the reference: ids, distances, documents."""
    assert np.array_equal(result.ids, expected.ids), (result.ids, expected.ids)
    assert np.array_equal(result.distances, expected.distances)
    if documents:
        assert [(d.chunk_id, d.text) for d in result.documents] == [
            (d.chunk_id, d.text) for d in expected.documents
        ]
