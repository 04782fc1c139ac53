"""The In-Storage ANNS Engine (Sec. 4.3, Fig. 6).

This is the functional heart of REIS.  A query executes entirely inside the
simulated SSD using only hardware that commodity drives already have:

1. **IBC** -- the query code is broadcast into every plane's cache latch
   (with MPIBC, all planes of a die latch the same transfer).
2. **Page read** -- a page of database embeddings is sensed into the
   sensing latch (ESP-SLC, so the raw read is error-free without ECC).
3. **XOR** -- CL xor SL -> DL gives the bitwise difference between the
   query and every embedding in the page.
4. **GEN_DIST** -- the fail-bit counter emits one popcount per embedding
   segment: the Hamming distances.
5. **Distance filtering** -- the pass/fail checker drops embeddings whose
   distance exceeds the calibrated threshold before they cross the channel.
6. **RD_TTL** -- surviving entries (DIST, EMB, and the OOB linkage fields)
   move over the flash channel into the Temporal Top List in SSD DRAM.
7. **Quickselect** on the embedded core keeps the shortlist.
8. **Reranking** re-reads the shortlist's INT8 twins (TLC, ECC-corrected on
   the controller), recomputes distances in INT8 and quicksorts the top-k.
9. **Document identification** follows each winner's DADR to its chunk.

Every step updates both the *functional* state (bytes in latches, entries
in TTLs) and the *cost* state (pages per plane, channel bytes, core
seconds), so one execution produces both the retrieved documents and the
latency/energy report.  The same :mod:`repro.core.costing` composition is
used by the paper-scale analytic model, letting tests cross-validate the
two layers.

The phase methods here are the hardware-level primitives; the plan that
names the phases lives in :mod:`repro.core.plan` and the page-major
executor that strings them together in :mod:`repro.core.batch`.  A solo
query is a batch of one (:meth:`InStorageAnnsEngine.search`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchExecution, BatchExecutor
from repro.core.cache import CacheEntry, PageCache
from repro.core.commands import DieCommandInterface
from repro.core.config import OptFlags, ReisConfig
from repro.core.costing import PhaseCost, ibc_time
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import ReisQueryResult, SearchStats
from repro.core.registry import TemporalTopList, TtlBlock
from repro.nand.geometry import PhysicalPageAddress
from repro.rag.documents import DocumentChunk
from repro.ssd.device import SimulatedSSD

__all__ = [
    "InStorageAnnsEngine",
    "ReisQueryResult",
    "SearchStats",
]


class InStorageAnnsEngine:
    """Executes ``Search`` / ``IVF_Search`` inside the simulated SSD."""

    def __init__(
        self,
        ssd: SimulatedSSD,
        config: ReisConfig,
        flags: Optional[OptFlags] = None,
    ) -> None:
        self.ssd = ssd
        self.config = config
        self.flags = flags if flags is not None else OptFlags()
        self.geometry = ssd.spec.geometry
        self.timing = ssd.spec.timing
        self.params = config.engine
        # One command FSM per die, indexed by global die index.
        self._die_interfaces: Dict[int, DieCommandInterface] = {}
        for plane_index in range(self.geometry.total_planes):
            die_index = plane_index // self.geometry.planes_per_die
            if die_index not in self._die_interfaces:
                self._die_interfaces[die_index] = DieCommandInterface(
                    ssd.array.die_of_plane(plane_index)
                )
        # Planes by global index: the scan kernel senses through them and
        # reports the commands per die (DieCommandInterface.scan_commands).
        self._planes = [
            ssd.array.plane_by_index(i) for i in range(self.geometry.total_planes)
        ]
        # Page-translation memo, one table per region: translate() is a
        # pure function of the (frozen, value-hashable) CoarseRegion, the
        # page offset and this engine's fixed geometry, so the arithmetic
        # runs once per page.
        self._locate_cache: Dict[object, Dict[int, Tuple[PhysicalPageAddress, int, int, int]]] = {}

    # ------------------------------------------------------------ utilities

    def _locate(
        self, region: RegionInfo, page_offset: int
    ) -> Tuple[PhysicalPageAddress, int, int, int]:
        """(physical address, global plane index, channel, linear page id)."""
        return self._locate_pages(region, (page_offset,))[0]

    def _locate_pages(
        self, region: RegionInfo, page_offsets: Sequence[int]
    ) -> List[Tuple[PhysicalPageAddress, int, int, int]]:
        """:meth:`_locate` for many pages of one region."""
        table = self._locate_cache.setdefault(region.region, {})
        located = []
        for page_offset in page_offsets:
            cached = table.get(page_offset)
            if cached is None:
                ppa = region.region.translate(page_offset, self.geometry)
                cached = table[page_offset] = (
                    ppa,
                    ppa.plane_linear(self.geometry),
                    ppa.channel,
                    ppa.to_linear(self.geometry),
                )
            located.append(cached)
        return located

    # ------------------------------------------------------ DRAM page cache

    @property
    def page_cache(self) -> Optional[PageCache]:
        """The device's DRAM page cache (attached to the SSD; default off)."""
        return getattr(self.ssd, "page_cache", None)

    def _bill_dram_hit(
        self, cost: PhaseCost, stats: SearchStats, nbytes: int, key: object
    ) -> None:
        """Account one cache-served page visit.

        A hit skips the sense, the latch work and the channel crossing; the
        controller streams the mirrored bytes out of the internal DRAM, so
        the visit bills :meth:`InternalDram.access_time` and advances the
        ``dram_cache_*`` counters -- the energy invariant becomes: billed
        work = unique NAND senses + DRAM hit bytes.  ``key`` is the page
        identity, so compose_batch_phase can share the stream across the
        queries that drain it (each query still bills the full visit solo,
        mirroring per-query sense billing).
        """
        seconds = self.ssd.dram.access_time(nbytes)
        cost.add_dram_stream(key, seconds)
        cost.dram_bytes += nbytes
        self.ssd.counters.add("dram_cache_hits", 1)
        self.ssd.counters.add("dram_cache_bytes", nbytes)
        stats.cache_hits += 1

    def _admit_page(
        self, region: RegionInfo, page_offset: int, kind: str
    ) -> None:
        """Mirror a page's golden bytes after a fresh sense (copied)."""
        cache = self.page_cache
        if cache is None:
            return
        ppa = self._locate(region, page_offset)[0]
        plane = self.ssd.array.plane(ppa)
        data, oob = plane.golden_view(ppa.block, ppa.page)
        cache.admit(region, page_offset, kind, data, oob)

    # ----------------------------------------------------------------- IBC

    def _input_broadcast_batch(
        self, query_codes: np.ndarray, stats_list: Sequence[SearchStats]
    ) -> float:
        """Batched step 1: broadcast every query's code back to back.

        Cache latches are overwrite-only, so only the last row survives --
        exactly the end state of broadcasting each query on its own --
        while commands, counters and per-query transfer stats reflect the
        full broadcast sequence.  Returns the per-query IBC time (all
        codes in a batch share one width).
        """
        n = len(query_codes)
        if n == 0:
            return 0.0
        total = 0
        for interface in self._die_interfaces.values():
            total += interface.ibc_many(
                query_codes, multi_plane=self.flags.multi_plane_ibc
            )
        per_query = total // n
        for stats in stats_list:
            stats.ibc_transfers += per_query
        return ibc_time(
            self.geometry, self.timing, query_codes.shape[1], self.flags
        )

    # --------------------------------------------------------- search steps

    def select_cluster_block(
        self,
        ttl_c: TemporalTopList,
        nprobe: int,
        cost: PhaseCost,
    ) -> TtlBlock:
        """Quickselect the nprobe nearest centroid rows (nearest first).

        The rows still carry their Hamming distances, which is what the
        shard router merges across devices before any cluster id is
        resolved; the single-device path resolves ids immediately via
        :meth:`resolve_cluster_block`.
        """
        cost.core_seconds += self.ssd.cores.reis_core.quickselect(
            len(ttl_c), nprobe
        )
        block = ttl_c.select_block(nprobe)
        return block if block is not None else TtlBlock.empty()

    def resolve_cluster_block(
        self,
        db: DeployedDatabase,
        block: TtlBlock,
        stats: SearchStats,
    ) -> np.ndarray:
        """Map selected centroid rows to cluster ids (tag cross-check).

        EADR is the centroid's mini-page address == the cluster id; the
        8-bit tag (which aliases for nlist > 256) is cross-checked.
        """
        assert db.r_ivf is not None
        cluster_ids = block.eadrs
        mismatch = db.r_ivf.tags[cluster_ids] != block.tags
        if np.any(mismatch):
            bad = int(cluster_ids[np.argmax(mismatch)])
            raise RuntimeError(f"cluster tag mismatch for centroid {bad}")
        stats.clusters_probed = len(block)
        return cluster_ids

    def select_clusters(
        self,
        db: DeployedDatabase,
        ttl_c: TemporalTopList,
        nprobe: int,
        cost: PhaseCost,
        stats: SearchStats,
    ) -> List[int]:
        """Quickselect the nprobe nearest centroids and resolve cluster ids."""
        block = self.select_cluster_block(ttl_c, nprobe, cost)
        return [int(c) for c in self.resolve_cluster_block(db, block, stats)]

    def fine_retry_needed(
        self,
        n_entries: int,
        threshold: Optional[int],
        shortlist_size: int,
        n_candidates: int,
    ) -> bool:
        """The raw retry predicate: did filtering starve below k survivors?

        Exposed on counts (rather than a TTL) so the shard router can apply
        the *same* rule to cluster-wide totals: the retry is a global
        decision, exactly as it would be on one device scanning the whole
        corpus -- per-shard local decisions would let one shard inject
        unfiltered candidates a single device never saw.
        """
        k = max(1, shortlist_size // self.params.shortlist_factor)
        return threshold is not None and n_entries < min(k, n_candidates)

    def finish_fine_search(
        self,
        ttl_e: TemporalTopList,
        shortlist_size: int,
        cost: PhaseCost,
    ) -> TtlBlock:
        """Final quickselect of the fine phase: the rescoring shortlist.

        Returned columnar (nearest first): the rerank and the shard
        barriers consume the shortlist as arrays, never as entry objects.
        """
        core = self.ssd.cores.reis_core
        cost.core_seconds += core.quickselect(len(ttl_e), shortlist_size)
        block = ttl_e.select_block(shortlist_size)
        return block if block is not None else TtlBlock.empty()

    def _slot_ranges(
        self, db: DeployedDatabase, clusters: Optional[Sequence[int]]
    ) -> List[Tuple[int, int]]:
        """Contiguous slot ranges the fine search must scan.

        A mutable database answers from its live cluster membership
        (:mod:`repro.core.ingest`): streamed appends extend a cluster past
        its deployed range and tombstoned entries drop out of the ranges,
        so the scan/rerank/filter phases skip dead slots without any
        re-layout.  The batch executor's schedule builder and the shard
        router's footprint estimates both resolve their ranges here.
        """
        index = getattr(db, "mutable_index", None)
        if index is not None:
            return index.slot_ranges(clusters)
        if clusters is None:
            return [(0, db.n_entries - 1)] if db.n_entries else []
        assert db.r_ivf is not None
        ranges = []
        for cluster in clusters:
            entry = db.r_ivf[cluster]
            if entry.size > 0:
                ranges.append((entry.first_embedding, entry.last_embedding))
        return ranges

    # ------------------------------------------------- batched TLC kernels

    def _sense_corrected_batch(
        self,
        region: RegionInfo,
        unique_pages: np.ndarray,
        touch_order: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Materialize a set of TLC pages once each, ECC-corrected in bulk.

        Pages are physically sensed in ``touch_order`` (global first-touch
        order, which pins each plane's error-injection RNG stream), then the
        whole stack routes through :meth:`EccEngine.correct_batch` as one
        call.  Returns ``(corrected, planes, channels, page_ids)``, all
        aligned with ``unique_pages``.  Billing is the *caller's* job: this
        helper only performs the shared functional work.
        """
        n_pages = unique_pages.size
        raws: Optional[np.ndarray] = None
        goldens: Optional[np.ndarray] = None
        candidates: List[Optional[np.ndarray]] = [None] * n_pages
        planes = np.empty(n_pages, dtype=np.int64)
        channels = np.empty(n_pages, dtype=np.int64)
        page_ids = np.empty(n_pages, dtype=np.int64)
        for rank in touch_order:
            page_offset = int(unique_pages[rank])
            ppa, plane_index, channel, page_id = self._locate(region, page_offset)
            plane = self.ssd.array.plane(ppa)
            raw, _ = plane.read_page(ppa.block, ppa.page)
            golden, _ = plane.golden_view(ppa.block, ppa.page)
            if raws is None:
                raws = np.empty((n_pages, raw.size), dtype=np.uint8)
                goldens = np.empty((n_pages, raw.size), dtype=np.uint8)
            raws[rank] = raw
            goldens[rank] = golden
            candidates[rank] = plane.last_flipped_bytes
            planes[rank] = plane_index
            channels[rank] = channel
            page_ids[rank] = page_id
        assert raws is not None and goldens is not None
        corrected = self.ssd.ecc.correct_batch(raws, goldens, candidates)
        return corrected, planes, channels, page_ids

    def _materialize_tlc_batch(
        self,
        region: RegionInfo,
        unique_pages: np.ndarray,
        touch_order: np.ndarray,
        kind: str,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
               np.ndarray]:
        """Cache-aware :meth:`_sense_corrected_batch`.

        Each batch-unique page is looked up in the DRAM mirror once (the
        scheduling snapshot); hits fill their ``corrected`` row from the
        golden mirror bytes while the remaining pages sense in first-touch
        order and ECC-correct in one batch call, then admit into the cache.
        Returns ``(corrected, planes, channels, page_ids, cached, nbytes)``
        aligned with ``unique_pages``: ``cached`` marks mirror-served rows
        and ``nbytes`` carries each hit's entry size for DRAM billing
        (0 for sensed rows).  Billing remains the caller's job.
        """
        n_pages = unique_pages.size
        cache = self.page_cache
        cached = np.zeros(n_pages, dtype=bool)
        entry_nbytes = np.zeros(n_pages, dtype=np.int64)
        if cache is None:
            corrected, planes, channels, page_ids = (
                self._sense_corrected_batch(region, unique_pages, touch_order)
            )
            return corrected, planes, channels, page_ids, cached, entry_nbytes

        entries: List[Optional[CacheEntry]] = [None] * n_pages
        for rank in range(n_pages):
            entry = cache.lookup(region, int(unique_pages[rank]))
            if entry is not None:
                entries[rank] = entry
                cached[rank] = True
                entry_nbytes[rank] = entry.nbytes
        planes = np.empty(n_pages, dtype=np.int64)
        channels = np.empty(n_pages, dtype=np.int64)
        page_ids = np.empty(n_pages, dtype=np.int64)
        corrected: Optional[np.ndarray] = None
        raws: Optional[np.ndarray] = None
        goldens: Optional[np.ndarray] = None
        candidates: List[Optional[np.ndarray]] = [None] * n_pages
        sensed_ranks: List[int] = []
        for rank in touch_order:
            page_offset = int(unique_pages[rank])
            ppa, plane_index, channel, page_id = self._locate(region, page_offset)
            planes[rank] = plane_index
            channels[rank] = channel
            page_ids[rank] = page_id
            if cached[rank]:
                continue
            plane = self.ssd.array.plane(ppa)
            raw, _ = plane.read_page(ppa.block, ppa.page)
            golden, _ = plane.golden_view(ppa.block, ppa.page)
            if raws is None:
                raws = np.empty((n_pages, raw.size), dtype=np.uint8)
                goldens = np.empty((n_pages, raw.size), dtype=np.uint8)
            raws[rank] = raw
            goldens[rank] = golden
            candidates[rank] = plane.last_flipped_bytes
            sensed_ranks.append(int(rank))
        if sensed_ranks:
            assert raws is not None and goldens is not None
            rows = np.array(sensed_ranks, dtype=np.int64)
            corrected = np.empty_like(raws)
            corrected[rows] = self.ssd.ecc.correct_batch(
                raws[rows], goldens[rows], [candidates[r] for r in rows]
            )
        for rank in range(n_pages):
            entry = entries[rank]
            if entry is None:
                continue
            if corrected is None:
                corrected = np.empty(
                    (n_pages, entry.data.size), dtype=np.uint8
                )
            corrected[rank] = entry.data
        assert corrected is not None
        # Freshly-sensed pages are now golden (ECC-corrected): mirror them.
        for rank in sensed_ranks:
            self._admit_page(region, int(unique_pages[rank]), kind)
        return corrected, planes, channels, page_ids, cached, entry_nbytes

    def _bill_shared_tlc_senses(self, n_query_unique: int, n_physical: int,
                                page_bytes: int) -> None:
        """Charge the senses the batch kernels served from shared data.

        The energy-counter invariant bills unique senses *per query*: a page
        two queries touch costs two senses and two full-page ECC decodes,
        exactly as each query served alone would.  The batch kernels sense
        each batch-unique page once functionally, so the per-query remainder
        is charged here -- shared host work, unshared energy.
        """
        extra = n_query_unique - n_physical
        if extra > 0:
            self.ssd.counters.add("page_reads", extra)
            self.ssd.counters.add("page_reads_tlc", extra)
            self.ssd.ecc.decoded_bytes += extra * page_bytes

    def _rerank_batch(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        shortlists: Sequence[TtlBlock],
        ks: Sequence[int],
        stats_list: Sequence[SearchStats],
    ) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, PhaseCost]]:
        """Step 8 for a whole batch: page-major INT8 rerank.

        Every query's shortlist RADRs are resolved to (page, codeword) in
        one columnar pass, each batch-unique page is sensed and
        ECC-corrected once (:meth:`_sense_corrected_batch`), the INT8 codes
        gather into one ``(n_total_short, dim)`` matrix refined by a single
        einsum, and each query takes its top-k from its own segment.
        Billing stays per query, as if each query were served alone: each
        query is charged its own unique pages, deduped channel codewords,
        ECC bytes and core time, and the energy counters advance per query
        (:meth:`_bill_shared_tlc_senses`).  Returns one
        ``(distances, dadrs, slots, cost)`` tuple per query.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        n_queries = len(shortlists)
        region = db.int8_region
        dim = db.dim
        core = self.ssd.cores.reis_core
        cw = self.ssd.ecc.config.codeword_bytes

        per_query: List[Tuple[np.ndarray, np.ndarray]] = []
        for shortlist in shortlists:
            radrs, dadrs = shortlist.radrs, shortlist.dadrs
            if radrs.size and (
                radrs.min() < 0 or radrs.max() >= region.n_slots
            ):
                raise IndexError(
                    f"shortlist RADR outside region {region.name!r}"
                )
            per_query.append((radrs, dadrs))
        counts = np.array([r.size for r, _ in per_query], dtype=np.int64)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        empty = np.empty(0, dtype=np.int64)
        outs: List[Tuple[np.ndarray, np.ndarray, np.ndarray, PhaseCost]] = [
            (
                empty, empty, empty,
                PhaseCost(name="rerank", read_mode="tlc", with_compute=False),
            )
            for _ in range(n_queries)
        ]
        if int(counts.sum()) == 0:
            return outs

        radrs_all = np.concatenate([r for r, _ in per_query])
        page_offsets = radrs_all // region.slots_per_page
        starts = (radrs_all % region.slots_per_page) * dim
        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        corrected, plane_of, channel_of, page_id_of, cached_u, hit_nbytes = (
            self._materialize_tlc_batch(
                region, unique_pages, touch_order, "cluster"
            )
        )
        page_rank = np.searchsorted(unique_pages, page_offsets)
        codes_all = corrected[
            page_rank[:, None], starts[:, None] + np.arange(dim)
        ].view(np.int8)
        q_i8 = db.int8_quantizer.encode(queries).astype(np.int32)
        seg_of_row = np.repeat(np.arange(n_queries), counts)
        diff = codes_all.astype(np.int32) - q_i8[seg_of_row]
        refined_all = np.einsum("ij,ij->i", diff, diff).astype(np.int64)

        n_query_unique = 0
        for qi in range(n_queries):
            lo, hi = int(bounds[qi]), int(bounds[qi + 1])
            n_short = hi - lo
            if n_short == 0:
                continue
            cost = PhaseCost(name="rerank", read_mode="tlc", with_compute=False)
            seg_pages = page_offsets[lo:hi]
            seg_starts = starts[lo:hi]
            seg_rank = page_rank[lo:hi]
            u_first = np.unique(seg_pages, return_index=True)[1]
            u_order = np.argsort(u_first, kind="stable")
            for rank in u_order:
                row = int(seg_rank[u_first[rank]])
                if cached_u[row]:
                    self._bill_dram_hit(
                        cost, stats_list[qi], int(hit_nbytes[row]),
                        key=int(page_id_of[row]),
                    )
                else:
                    n_query_unique += 1
                    cost.add_page(
                        int(plane_of[row]), page_id=int(page_id_of[row])
                    )
                    stats_list[qi].pages_read += 1
            # One channel/ECC codeword per query-distinct (page, codeword);
            # mirror hits never cross the channel or the ECC engine.
            first_cw = seg_starts // cw
            last_cw = (seg_starts + dim - 1) // cw
            cw_counts = (last_cw - first_cw + 1).astype(np.int64)
            within = np.arange(cw_counts.sum()) - np.repeat(
                np.cumsum(cw_counts) - cw_counts, cw_counts
            )
            cw_rows = np.repeat(np.arange(n_short), cw_counts)
            cw_index = np.repeat(first_cw, cw_counts) + within
            cw_per_page = int(last_cw.max()) + 1
            keys = seg_pages[cw_rows] * cw_per_page + cw_index
            unique_keys = np.unique(keys)
            key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
            sensed_keys = ~cached_u[key_ranks]
            unique_keys = unique_keys[sensed_keys]
            key_channels = channel_of[key_ranks[sensed_keys]]
            for channel in np.unique(key_channels):
                moved = int((key_channels == channel).sum()) * cw
                cost.add_channel_bytes(int(channel), moved)
            cost.ecc_bytes += unique_keys.size * cw
            self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

            refined = refined_all[lo:hi]
            cost.core_seconds += core.int8_distances(n_short, dim)
            k = min(int(ks[qi]), n_short)
            top = np.argsort(refined, kind="stable")[:k]
            cost.core_seconds += core.quicksort(n_short)
            radrs, all_dadrs = per_query[qi]
            outs[qi] = (refined[top], all_dadrs[top], radrs[top], cost)
        self._bill_shared_tlc_senses(
            n_query_unique, int((~cached_u).sum()), corrected.shape[1]
        )
        return outs

    def _fetch_documents_batch(
        self,
        db: DeployedDatabase,
        dadrs_list: Sequence[np.ndarray],
        stats_list: Sequence[SearchStats],
    ) -> List[Tuple[List[DocumentChunk], PhaseCost, float]]:
        """Step 9 for a whole batch: page-major document identification.

        Every query's result DADRs are resolved in one columnar pass and
        each batch-unique page materializes once (sense + one
        :meth:`EccEngine.correct_batch` call); each query is charged as if
        served alone -- query-unique page senses (the latch serves every
        packed chunk of a sensed page) and query-unique channel/ECC
        codewords -- with the per-query unique
        senses billed to the energy counters
        (:meth:`_bill_shared_tlc_senses`).  Returns one
        ``(documents, cost, host_transfer_seconds)`` tuple per query.
        """
        region = db.document_region
        item_bytes = region.item_bytes
        cw = self.ssd.ecc.config.codeword_bytes
        arrs = [np.asarray(d, dtype=np.int64) for d in dadrs_list]
        for arr in arrs:
            out_of_range = (arr < 0) | (arr >= region.n_slots)
            if out_of_range.any():
                bad = int(arr[np.argmax(out_of_range)])
                raise IndexError(f"slot {bad} outside region {region.name!r}")
        outs: List[Tuple[List[DocumentChunk], PhaseCost, float]] = [
            (
                [],
                PhaseCost(name="documents", read_mode="tlc", with_compute=False),
                0.0,
            )
            for _ in arrs
        ]
        counts = np.array([a.size for a in arrs], dtype=np.int64)
        if int(counts.sum()) == 0:
            return outs
        bounds = np.concatenate([[0], np.cumsum(counts)])
        dadr_all = np.concatenate(arrs)
        page_offsets = dadr_all // region.slots_per_page
        starts = (dadr_all % region.slots_per_page) * item_bytes
        first_cw = starts // cw
        last_cw = (starts + max(item_bytes, 1) - 1) // cw
        cw_per_page = int(last_cw.max()) + 1

        unique_pages, first_rows = np.unique(page_offsets, return_index=True)
        touch_order = np.argsort(first_rows, kind="stable")
        corrected, plane_of, channel_of, page_id_of, cached_u, hit_nbytes = (
            self._materialize_tlc_batch(
                region, unique_pages, touch_order, "document"
            )
        )
        page_rank = np.searchsorted(unique_pages, page_offsets)

        n_query_unique = 0
        for qi, arr in enumerate(arrs):
            n = int(counts[qi])
            if n == 0:
                continue
            lo, hi = int(bounds[qi]), int(bounds[qi + 1])
            cost = PhaseCost(
                name="documents", read_mode="tlc", with_compute=False
            )
            seg_rank = page_rank[lo:hi]
            # One sense per query-distinct uncached page, in this query's
            # first-touch order; mirror hits bill their DRAM access instead.
            seg_unique, seg_first = np.unique(seg_rank, return_index=True)
            for rank in seg_unique[np.argsort(seg_first, kind="stable")]:
                if cached_u[rank]:
                    self._bill_dram_hit(
                        cost, stats_list[qi], int(hit_nbytes[rank]),
                        key=int(page_id_of[rank]),
                    )
                else:
                    n_query_unique += 1
                    cost.add_page(
                        int(plane_of[rank]), page_id=int(page_id_of[rank])
                    )
                    stats_list[qi].pages_read += 1
            # One channel/ECC codeword per query-distinct (page, codeword)
            # on uncached pages only.
            seg_first_cw = first_cw[lo:hi]
            seg_counts = (last_cw[lo:hi] - seg_first_cw + 1).astype(np.int64)
            within = np.arange(seg_counts.sum()) - np.repeat(
                np.cumsum(seg_counts) - seg_counts, seg_counts
            )
            cw_rows = np.repeat(np.arange(n), seg_counts)
            cw_index = np.repeat(seg_first_cw, seg_counts) + within
            keys = page_offsets[lo:hi][cw_rows] * cw_per_page + cw_index
            unique_keys = np.unique(keys)
            key_ranks = np.searchsorted(unique_pages, unique_keys // cw_per_page)
            sensed_keys = ~cached_u[key_ranks]
            unique_keys = unique_keys[sensed_keys]
            key_channels = channel_of[key_ranks[sensed_keys]]
            for channel in np.unique(key_channels):
                moved = int((key_channels == channel).sum()) * cw
                cost.add_channel_bytes(int(channel), moved)
            cost.ecc_bytes += unique_keys.size * cw
            self.ssd.counters.add("channel_bytes", unique_keys.size * cw)

            documents: List[DocumentChunk] = []
            for i in range(lo, hi):
                original_id = db.original_of_dadr(int(dadr_all[i]))
                if db.corpus is not None:
                    documents.append(db.corpus[original_id])
                else:
                    page = corrected[int(page_rank[i])]
                    start = int(starts[i])
                    payload = page[start : start + item_bytes]
                    documents.append(
                        DocumentChunk(
                            chunk_id=original_id,
                            text=DocumentChunk.decode_bytes(payload),
                        )
                    )
            host_bytes = float(n * item_bytes)
            host_s = host_bytes / self.ssd.spec.host_link_bandwidth_bps
            outs[qi] = (documents, cost, host_s)
        self._bill_shared_tlc_senses(
            n_query_unique, int((~cached_u).sum()), corrected.shape[1]
        )
        return outs

    # -------------------------------------------------------------- search

    def search(
        self,
        db: DeployedDatabase,
        query: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> ReisQueryResult:
        """Run one query through the full in-storage pipeline.

        A solo query is a batch of one through :meth:`search_batch`; its
        latency report is the solo composition every batched query also
        carries.  For IVF databases ``nprobe`` selects how many clusters
        the fine search visits (default: enough for ~sqrt(nlist)).  For
        flat databases the fine search scans the whole embedding region
        (brute force, the "BF" rows of Figs. 7/8/10).  With
        ``metadata_filter`` only embeddings deployed with that tag can be
        returned (Sec. 7.1).
        """
        query = np.asarray(query, dtype=np.float32)
        if query.ndim != 1:
            raise ValueError(f"query must be a flat vector of dim {db.dim}")
        return self.search_batch(
            db, query[None], k, nprobe, fetch_documents, metadata_filter
        ).results[0]

    def search_batch(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile=None,
    ) -> BatchExecution:
        """Serve a batch of queries concurrently against this device.

        Functional results are per query (bit-identical to serving each
        query as a batch of one); the latency model charges the batch
        jointly, amortizing page senses across queries and overlapping
        independent queries across dies and channels (see
        :class:`~repro.core.batch.BatchExecutor`).  ``host_profile``
        opts into host wall-clock accounting
        (:class:`~repro.host.profile.HostProfile`).
        """
        return BatchExecutor(self).execute(
            db, queries, k,
            nprobe=nprobe,
            fetch_documents=fetch_documents,
            metadata_filter=metadata_filter,
            host_profile=host_profile,
        )
