"""Unit tests for the ANN index implementations (flat, IVF, HNSW, LSH, PQ)."""

import numpy as np
import pytest

from repro.ann.flat import BinaryFlatIndex, FlatIndex
from repro.ann.hnsw import HnswIndex
from repro.ann.ivf import BqIvfIndex, IvfIndex, build_ivf_model, coarse_probe
from repro.ann.kmeans import kmeans
from repro.ann.lsh import LshIndex
from repro.ann.pq import PqIvfIndex, ProductQuantizer
from repro.ann.recall import exact_ground_truth, mean_recall_at_k, recall_at_k
from repro.ann.rerank import rerank_fp32, rerank_int8
from repro.ann.selection import (
    quickselect_comparisons,
    quickselect_smallest,
    quicksort_comparisons,
    sorted_topk,
)
from repro.rag.embeddings import make_clustered_embeddings, make_queries

N, DIM, CLUSTERS = 500, 64, 10


@pytest.fixture(scope="module")
def data():
    vectors, _ = make_clustered_embeddings(N, DIM, CLUSTERS, seed="ann")
    queries = make_queries(vectors, 8, seed="ann-q")
    gt = exact_ground_truth(queries, vectors, 10)
    return vectors, queries, gt


class TestFlatIndex:
    def test_exactness(self, data):
        vectors, queries, gt = data
        index = FlatIndex(DIM)
        index.add(vectors)
        for i, q in enumerate(queries):
            _, ids = index.search(q, 10)
            assert recall_at_k(ids, gt[i], 10) == 1.0

    def test_distances_sorted(self, data):
        vectors, queries, _ = data
        index = FlatIndex(DIM)
        index.add(vectors)
        distances, _ = index.search(queries[0], 10)
        assert (np.diff(distances) >= 0).all()

    def test_incremental_add(self, data):
        vectors, _, _ = data
        index = FlatIndex(DIM)
        index.add(vectors[:100])
        index.add(vectors[100:])
        assert len(index) == N

    def test_binary_flat(self, data):
        vectors, queries, _ = data
        from repro.ann.quantization import BinaryQuantizer

        bq = BinaryQuantizer().fit(vectors)
        index = BinaryFlatIndex(DIM // 8)
        index.add(bq.encode(vectors))
        distances, ids = index.search(bq.encode_one(queries[0]), 5)
        assert ids.size == 5
        assert (np.diff(distances) >= 0).all()


class TestKmeans:
    def test_assignment_to_nearest_centroid(self, data):
        vectors, _, _ = data
        result = kmeans(vectors, 8, max_iterations=10, seed=0)
        assert result.centroids.shape == (8, DIM)
        d = ((vectors[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(result.assignments, np.argmin(d, axis=1))

    def test_recovers_clear_clusters(self):
        vectors, labels = make_clustered_embeddings(300, 32, 3, cluster_std=0.1, seed=5)
        result = kmeans(vectors, 3, max_iterations=25, seed=0)
        # Each true cluster should map to exactly one k-means cluster.
        for true_label in range(3):
            found = result.assignments[labels == true_label]
            majority = np.bincount(found).max() / found.size
            assert majority > 0.95

    def test_every_cluster_has_a_member(self):
        # Without the empty-cluster fill this seed leaves cluster 1 empty
        # (sizes 72/0/18), so an IVF probe of it scans nothing.
        vectors, _ = make_clustered_embeddings(90, 64, 3, seed=404)
        result = kmeans(vectors, 3, max_iterations=20, seed=404)
        sizes = np.bincount(result.assignments, minlength=3)
        assert (sizes > 0).all() and sizes.sum() == 90
        d = ((vectors[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        # The filled cluster took the point nearest its centroid; every
        # other point still sits with its nearest centroid.
        (filled,) = np.flatnonzero(result.assignments != d.argmin(axis=1))
        assert result.assignments[filled] == 1
        assert filled == d[:, 1].argmin()

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 4), dtype=np.float32), 5)


class TestIvf:
    def test_full_probe_equals_exhaustive(self, data):
        vectors, queries, gt = data
        index = IvfIndex(DIM, 8, seed=0).fit(vectors)
        for i, q in enumerate(queries):
            _, ids = index.search(q, 10, nprobe=8)
            assert recall_at_k(ids, gt[i], 10) == 1.0

    def test_recall_improves_with_nprobe(self, data):
        vectors, queries, gt = data
        index = IvfIndex(DIM, 10, seed=0).fit(vectors)
        recalls = []
        for nprobe in (1, 4, 10):
            ids = [index.search(q, 10, nprobe=nprobe)[1] for q in queries]
            recalls.append(mean_recall_at_k(ids, gt, 10))
        assert recalls[0] <= recalls[1] + 1e-9 <= recalls[2] + 2e-9

    def test_lists_partition_the_dataset(self, data):
        vectors, _, _ = data
        model = build_ivf_model(vectors, 8, seed=0)
        ids = np.concatenate(model.lists)
        assert np.array_equal(np.sort(ids), np.arange(N))
        assert model.cluster_sizes().sum() == N

    def test_coarse_probe_orders_by_distance(self, data):
        vectors, queries, _ = data
        model = build_ivf_model(vectors, 8, seed=0)
        clusters = coarse_probe(model, queries[0], 4)
        d = ((model.centroids - queries[0]) ** 2).sum(axis=1)
        assert (np.diff(d[clusters]) >= 0).all()

    def test_scanned_candidates_counts_cluster_members(self, data):
        vectors, queries, _ = data
        index = IvfIndex(DIM, 8, seed=0).fit(vectors)
        assert index.scanned_candidates(queries[0], 8) == N

    def test_unfitted_search_raises(self):
        with pytest.raises(RuntimeError):
            IvfIndex(DIM, 4).search(np.zeros(DIM, dtype=np.float32), 5)

    def test_dim_mismatch_rejected(self, data):
        vectors, _, _ = data
        with pytest.raises(ValueError):
            IvfIndex(DIM + 8, 4).fit(vectors)


class TestBqIvf:
    def test_full_probe_recall_matches_flat_bq(self, data):
        vectors, queries, gt = data
        flat = BqIvfIndex(DIM, nlist=1, seed=0).fit(vectors)
        clustered = BqIvfIndex(DIM, nlist=8, seed=0).fit(vectors)
        flat_ids = [flat.search(q, 10, nprobe=1)[1] for q in queries]
        full_ids = [clustered.search(q, 10, nprobe=8)[1] for q in queries]
        assert mean_recall_at_k(full_ids, gt, 10) == pytest.approx(
            mean_recall_at_k(flat_ids, gt, 10), abs=0.05
        )

    def test_rerank_improves_over_raw_hamming(self, data):
        vectors, queries, gt = data
        from repro.ann.quantization import BinaryQuantizer
        from repro.ann.distances import hamming_packed

        index = BqIvfIndex(DIM, nlist=1, seed=0).fit(vectors)
        bq = BinaryQuantizer().fit(vectors)
        codes = bq.encode(vectors)
        raw, reranked = [], []
        for i, q in enumerate(queries):
            h = hamming_packed(bq.encode_one(q), codes)
            raw_ids = np.argsort(h, kind="stable")[:10]
            raw.append(recall_at_k(raw_ids, gt[i], 10))
            _, ids = index.search(q, 10, nprobe=1)
            reranked.append(recall_at_k(ids, gt[i], 10))
        assert np.mean(reranked) >= np.mean(raw)

    def test_returned_distances_sorted(self, data):
        vectors, queries, _ = data
        index = BqIvfIndex(DIM, nlist=4, seed=0).fit(vectors)
        distances, _ = index.search(queries[0], 10, nprobe=4)
        assert (np.diff(distances) >= 0).all()


class TestHnsw:
    def test_reaches_high_recall(self, data):
        vectors, queries, gt = data
        index = HnswIndex(DIM, m=12, ef_construction=60, seed=0)
        index.add(vectors)
        ids = [index.search(q, 10, ef_search=80)[1] for q in queries]
        assert mean_recall_at_k(ids, gt, 10) > 0.85

    def test_recall_improves_with_ef(self, data):
        vectors, queries, gt = data
        index = HnswIndex(DIM, m=12, ef_construction=60, seed=0)
        index.add(vectors)
        low = mean_recall_at_k(
            [index.search(q, 10, ef_search=10)[1] for q in queries], gt, 10
        )
        high = mean_recall_at_k(
            [index.search(q, 10, ef_search=150)[1] for q in queries], gt, 10
        )
        assert high >= low

    def test_hop_count_accumulates(self, data):
        vectors, queries, _ = data
        index = HnswIndex(DIM, m=8, ef_construction=40, seed=0)
        index.add(vectors[:200])
        index.hop_count = 0
        index.search(queries[0], 5)
        assert index.hop_count > 0

    def test_graph_bytes_positive_and_degree_bounded(self, data):
        vectors, _, _ = data
        index = HnswIndex(DIM, m=8, ef_construction=40, seed=0)
        index.add(vectors[:200])
        assert index.graph_bytes() > 0
        assert index.average_degree() <= 2 * 8 + 1e-9

    def test_empty_search_raises(self):
        with pytest.raises(RuntimeError):
            HnswIndex(DIM).search(np.zeros(DIM, dtype=np.float32), 1)


class TestLsh:
    def test_recall_improves_with_probes(self, data):
        vectors, queries, gt = data
        index = LshIndex(DIM, n_bits=10, n_tables=6, seed=0)
        index.add(vectors)
        low = mean_recall_at_k(
            [index.search(q, 10, probes=1)[1] for q in queries], gt, 10
        )
        high = mean_recall_at_k(
            [index.search(q, 10, probes=2)[1] for q in queries], gt, 10
        )
        assert high >= low

    def test_candidates_grow_with_probes(self, data):
        vectors, queries, _ = data
        index = LshIndex(DIM, n_bits=10, n_tables=6, seed=0)
        index.add(vectors)
        assert index.candidates(queries[0], 2).size >= index.candidates(queries[0], 1).size

    def test_bits_bound(self):
        with pytest.raises(ValueError):
            LshIndex(DIM, n_bits=63)


class TestPq:
    def test_codes_shape(self, data):
        vectors, _, _ = data
        pq = ProductQuantizer(DIM, m=8, seed=0).fit(vectors)
        codes = pq.encode(vectors)
        assert codes.shape == (N, 8)

    def test_decode_reduces_error_vs_mean(self, data):
        vectors, _, _ = data
        pq = ProductQuantizer(DIM, m=8, seed=0).fit(vectors)
        decoded = pq.decode(pq.encode(vectors))
        pq_err = ((decoded - vectors) ** 2).sum()
        mean_err = ((vectors.mean(axis=0) - vectors) ** 2).sum()
        assert pq_err < mean_err

    def test_adc_close_to_exact(self, data):
        vectors, queries, _ = data
        pq = ProductQuantizer(DIM, m=16, seed=0).fit(vectors)
        codes = pq.encode(vectors)
        tables = pq.distance_tables(queries[0])
        adc = pq.adc_distances(tables, codes)
        exact = ((vectors - queries[0]) ** 2).sum(axis=1)
        corr = np.corrcoef(adc, exact)[0, 1]
        assert corr > 0.9

    def test_pq_ivf_with_rerank_beats_without(self, data):
        vectors, queries, gt = data
        index = PqIvfIndex(DIM, nlist=4, m=8, seed=0).fit(vectors)
        plain = mean_recall_at_k(
            [index.search(q, 10, nprobe=4)[1] for q in queries], gt, 10
        )
        reranked = mean_recall_at_k(
            [index.search(q, 10, nprobe=4, rerank_factor=10)[1] for q in queries],
            gt,
            10,
        )
        assert reranked >= plain


class TestSelectionAndRerank:
    def test_quickselect_smallest(self):
        values = np.array([5.0, 1.0, 9.0, 3.0, 7.0])
        idx, vals = quickselect_smallest(values, 2)
        assert set(idx.tolist()) == {1, 3}
        assert set(vals.tolist()) == {1.0, 3.0}

    def test_sorted_topk(self):
        values = np.array([5.0, 1.0, 9.0, 3.0])
        top_ids, top_values = sorted_topk(values, 3)
        assert top_values.tolist() == [1.0, 3.0, 5.0]
        assert top_ids.tolist() == [1, 3, 0]

    def test_comparison_models_scale(self):
        ratio = quickselect_comparisons(2000, 10) / quickselect_comparisons(1000, 10)
        assert ratio == pytest.approx(2.0, rel=0.05)
        assert quicksort_comparisons(2000) > 2 * quicksort_comparisons(1000)

    def test_rerank_int8_returns_exact_order(self, data):
        vectors, queries, gt = data
        from repro.ann.quantization import Int8Quantizer

        q8 = Int8Quantizer().fit(vectors)
        candidates = gt[0][::-1].copy()  # true top-10, reversed
        distances, ids = rerank_int8(
            q8.encode_one(queries[0]), candidates, q8.encode(vectors), k=10
        )
        assert (np.diff(distances) >= 0).all()
        assert recall_at_k(ids, gt[0], 10) == 1.0

    def test_rerank_fp32_exact(self, data):
        vectors, queries, gt = data
        candidates = np.arange(N, dtype=np.int64)
        _, ids = rerank_fp32(queries[0], candidates, vectors, k=10)
        assert recall_at_k(ids, gt[0], 10) == 1.0


class TestRecallMetric:
    def test_perfect_recall(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0

    def test_partial_recall(self):
        assert recall_at_k([1, 9, 8], [1, 2, 3], 3) == pytest.approx(1 / 3)

    def test_only_first_k_count(self):
        assert recall_at_k([9, 9, 1], [1, 2], 2) == 0.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], 0)

    def test_mean_recall_requires_matched_lengths(self):
        with pytest.raises(ValueError):
            mean_recall_at_k([[1]], [[1], [2]], 1)
