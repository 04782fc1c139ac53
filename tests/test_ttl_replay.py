"""The scan kernel's count-only TTL replay against a real top list.

The batch scan kernel never streams rows through a
:class:`~repro.core.registry.TemporalTopList`: it replays the per-page
rule ``len > 2k -> compact(k)`` on survivor *counts*
(:meth:`TemporalTopList.replay`) and then picks the rows every query's
list would hold in one segmented selection
(:func:`~repro.core.batch.final_ttl_rows`).  Here real lists absorb
random survivor streams -- heavy distance ties, empty blocks, any
``select_k``, several queries at once -- block by block, and the replay
must agree on every compaction's size, the final length, the peak, the
DRAM arena, the rows held (in order) and the ``select_block`` output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import final_ttl_rows
from repro.core.registry import TemporalTopList, TtlBlock
from repro.ssd.dram import InternalDram

ENTRY_BYTES = 7


def _block(dists, first_id):
    """Rows carry their stream position in ``eadrs`` (row identity)."""
    n = len(dists)
    return TtlBlock(
        dists=np.asarray(dists, dtype=np.int64),
        embs=np.zeros((n, 1), dtype=np.uint8),
        eadrs=np.arange(first_id, first_id + n, dtype=np.int64),
    )


def _absorb(blocks, k):
    """The per-page absorb loop the scan kernel replaces."""
    dram = InternalDram(1 << 30)
    ttl = TemporalTopList("e", ENTRY_BYTES, dram=dram)
    processed = []
    first_id = 0
    for dists in blocks:
        ttl.extend(_block(dists, first_id))
        first_id += len(dists)
        if len(ttl) > 2 * k:
            processed.append(ttl.compact(k))
    return ttl, processed, dram


def _count_replay(streams, repeat=1):
    """The kernel's twin for several queries: counts first, then one
    segmented selection over every query's rows.

    ``streams`` holds one ``(blocks, k)`` per query; rows are numbered
    per query from 0 like :func:`_absorb` numbers them.  ``repeat``
    streams everything that many times into the same lists (cleared in
    between, as the unfiltered retry does): the peak carries over.
    """
    dram = InternalDram(1 << 30)
    ttls = [TemporalTopList("e", ENTRY_BYTES, dram=dram) for _ in streams]
    sizes = [[len(b) for b in blocks] for blocks, _ in streams]
    dists = np.array(
        [d for blocks, _ in streams for b in blocks for d in b], dtype=np.int64
    )
    queries = np.repeat(np.arange(len(streams)), [sum(n) for n in sizes])
    first_window = np.cumsum([0] + [len(n) for n in sizes])
    windows = np.repeat(
        np.arange(first_window[-1]), [n for per_query in sizes for n in per_query]
    )
    ids = np.concatenate([np.arange(sum(n)) for n in sizes] + [np.empty(0, int)])
    ks = np.array([k for _, k in streams])
    for _ in range(repeat):
        kept_from = np.zeros(len(streams), dtype=np.int64)
        processed = []
        for q, (ttl, (_, k)) in enumerate(zip(ttls, streams)):
            ttl.clear()
            done, kept = ttl.replay(sizes[q], k)
            processed.append(done)
            kept_from[q] = first_window[q] + kept
        rows = final_ttl_rows(queries, windows, dists, kept_from, ks)
        held = TtlBlock(
            dists=dists[rows], embs=np.zeros((rows.size, 1), dtype=np.uint8),
            eadrs=ids[rows],
        )
        bounds = np.searchsorted(queries[rows], np.arange(len(streams) + 1))
        for q, ttl in enumerate(ttls):
            ttl.install(held.take(slice(bounds[q], bounds[q + 1])))
    return ttls, processed, dram


block_streams = st.lists(
    st.lists(st.integers(0, 4), max_size=12), max_size=14
)
query_streams = st.lists(
    st.tuples(block_streams, st.integers(1, 6)), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(streams=query_streams)
def test_replay_matches_real_top_list(streams):
    twins, twin_processed, twin_dram = _count_replay(streams)
    peak_region = 0
    for twin, done, (blocks, k) in zip(twins, twin_processed, streams):
        real, real_processed, real_dram = _absorb(blocks, k)
        peak_region = max(peak_region, real_dram.region_size("ttl-e"))
        assert done == real_processed
        assert len(twin) == len(real)
        assert twin.peak_entries == real.peak_entries
        # Same rows in the same order, so every later selection agrees.
        assert [e.eadr for e in twin.entries] == [e.eadr for e in real.entries]
        assert [e.dist for e in twin.entries] == [e.dist for e in real.entries]
        for j in (1, k, 2 * k + 1):
            a, b = twin.select_block(j), real.select_block(j)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.eadrs.tolist() == b.eadrs.tolist()
    # The lists share one arena, sized for the deepest list's peak.
    assert twin_dram.region_size("ttl-e") == peak_region


@settings(max_examples=100, deadline=None)
@given(streams=query_streams)
def test_cleared_replay_keeps_the_peak(streams):
    """A retry rescans into the cleared list; only the peak survives."""
    once, _, _ = _count_replay(streams)
    twice, _, _ = _count_replay(streams, repeat=2)
    assert [len(t) for t in twice] == [len(t) for t in once]
    assert [t.peak_entries for t in twice] == [t.peak_entries for t in once]


def test_segmented_selection_keeps_queries_apart():
    """Several queries in one call: each gets only its own rows."""
    queries = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    windows = np.array([0, 0, 1, 2, 3, 4, 4, 5, 5])
    dists = np.array([3, 1, 2, 5, 5, 0, 9, 0, 1])
    # q0 compacted after window 0 (keeps 1 of its 2 rows), q1 never, q2
    # after window 5 (keeps its 2 nearest of 4, ties by arrival).
    rows = final_ttl_rows(
        queries, windows, dists, np.array([1, 2, 6]), np.array([1, 1, 2])
    )
    assert rows.tolist() == [1, 2, 3, 4, 5, 7]


def test_install_rejects_a_length_the_replay_did_not_count():
    ttl = TemporalTopList("e", ENTRY_BYTES)
    ttl.replay([3], 5)
    with pytest.raises(ValueError):
        ttl.install(_block([1, 2], 0))
