"""Controller-DRAM data structures: R-DB, R-IVF and the Temporal Top Lists.

* **R-DB** (Fig. 4, A): one 21-byte record per deployed database -- the
  database signature plus the boundaries of its embedding and document
  regions.  This replaces the 1GB-per-TB page-level FTL for deployed data.
* **R-IVF** (Fig. 4, B): one 15-byte record per IVF cluster -- centroid
  address, first/last embedding index, and an 8-bit tag.
* **TTL** (Fig. 4, C): the Temporal Top Lists that accumulate candidate
  entries during the coarse (TTL-C) and fine (TTL-E) search steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ssd.coarse import COARSE_ENTRY_BYTES, CoarseRegion
from repro.ssd.dram import InternalDram

R_IVF_ENTRY_BYTES = 15


@dataclass(frozen=True)
class RDbEntry:
    """One deployed-database record (coarse-grained access, Sec. 4.1.4)."""

    db_id: int
    embedding_region: CoarseRegion
    document_region: CoarseRegion
    n_entries: int
    # Width of one packed document slot (power of two; the layout engine
    # sizes it to the database's largest chunk, see ``packed_doc_slot_bytes``).
    doc_slot_bytes: int = 4096

    @property
    def size_bytes(self) -> int:
        return COARSE_ENTRY_BYTES


@dataclass(frozen=True)
class RIvfEntry:
    """One IVF-cluster record (Sec. 4.2.1)."""

    centroid_addr: int  # mini-page address of the centroid
    first_embedding: int  # first embedding slot of the cluster
    last_embedding: int  # last embedding slot (inclusive)
    tag: int  # 8-bit cluster tag stored alongside the centroid

    def __post_init__(self) -> None:
        if not 0 <= self.tag <= 0xFF:
            raise ValueError("cluster tag must fit in 8 bits")
        if self.last_embedding < self.first_embedding - 1:
            raise ValueError("cluster range is inverted")

    @property
    def size(self) -> int:
        """Number of embeddings in the cluster."""
        return self.last_embedding - self.first_embedding + 1


class RDb:
    """The database registry kept in the SSD controller's DRAM."""

    def __init__(self, dram: Optional[InternalDram] = None) -> None:
        self._entries: Dict[int, RDbEntry] = {}
        self._dram = dram

    def register(self, entry: RDbEntry) -> None:
        if entry.db_id in self._entries:
            raise ValueError(f"database id {entry.db_id} already deployed")
        self._entries[entry.db_id] = entry
        self._sync_dram()

    def drop(self, db_id: int) -> None:
        self._entries.pop(db_id, None)
        self._sync_dram()
        if self._dram is not None:
            # The per-database DRAM structures (the R-IVF cluster array and
            # the tombstone bitmap of a mutable deployment) die with the
            # R-DB record -- otherwise register->drop cycles leak DRAM.
            self._dram.free(f"r-ivf-{db_id}")
            self._dram.free(f"tombstones-{db_id}")

    def lookup(self, db_id: int) -> RDbEntry:
        try:
            return self._entries[db_id]
        except KeyError:
            raise KeyError(f"database id {db_id} is not deployed") from None

    def __contains__(self, db_id: int) -> bool:
        return db_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> List[int]:
        return sorted(self._entries)

    @property
    def footprint_bytes(self) -> int:
        return len(self._entries) * COARSE_ENTRY_BYTES

    def _sync_dram(self) -> None:
        if self._dram is not None:
            self._dram.allocate("r-db", self.footprint_bytes)


class RIvf:
    """The per-database IVF cluster array."""

    def __init__(self, entries: List[RIvfEntry], dram: Optional[InternalDram] = None, db_id: int = 0) -> None:
        self.entries = list(entries)
        # Column view for vectorized tag cross-checks (entries are
        # replaced wholesale on compaction, never mutated in place).
        self.tags = np.array([e.tag for e in self.entries], dtype=np.int64)
        self._dram = dram
        self._db_id = db_id
        self._tag_to_cluster = {}
        for cluster_id, entry in enumerate(self.entries):
            self._tag_to_cluster.setdefault(entry.tag, []).append(cluster_id)
        if dram is not None:
            dram.allocate(f"r-ivf-{db_id}", self.footprint_bytes)

    def release(self) -> None:
        """Free the DRAM region backing this cluster array."""
        if self._dram is not None:
            self._dram.free(f"r-ivf-{self._db_id}")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, cluster_id: int) -> RIvfEntry:
        return self.entries[cluster_id]

    @property
    def footprint_bytes(self) -> int:
        return len(self.entries) * R_IVF_ENTRY_BYTES

    def clusters_with_tag(self, tag: int) -> List[int]:
        """Tags are 8-bit, so large nlist values alias; disambiguation uses
        the centroid address carried in the TTL entry."""
        return list(self._tag_to_cluster.get(tag, []))


class TombstoneRegistry:
    """Per-database set of dead entry ids, DRAM-accounted as a bitmap.

    Streaming deletes do not rewrite flash: the entry stays physically in
    its cluster tail, and this registry records it as dead so the scan /
    rerank / filter phases skip it (:mod:`repro.core.ingest`).  The DRAM
    cost is one bit per addressable slot, booked in the named region
    ``tombstones-{db_id}`` -- compaction clears the set and shrinks the
    region back to its floor.
    """

    def __init__(self, db_id: int, dram: Optional[InternalDram] = None) -> None:
        self.db_id = db_id
        self._dram = dram
        self._dead: set = set()
        self._capacity_slots = 0

    def track_capacity(self, n_slots: int) -> None:
        """Size the bitmap for ``n_slots`` addressable entry slots."""
        if n_slots > self._capacity_slots:
            self._capacity_slots = n_slots
            self._sync_dram()

    def mark(self, entry_id: int) -> None:
        self._dead.add(int(entry_id))

    def is_dead(self, entry_id: int) -> bool:
        return int(entry_id) in self._dead

    def __len__(self) -> int:
        return len(self._dead)

    def __contains__(self, entry_id: int) -> bool:
        return self.is_dead(entry_id)

    def clear(self) -> None:
        """Forget all tombstones (compaction rewrote the layout)."""
        self._dead.clear()

    def release(self) -> None:
        """Free the DRAM region backing the bitmap (database dropped)."""
        self._dead.clear()
        self._capacity_slots = 0
        if self._dram is not None:
            self._dram.free(f"tombstones-{self.db_id}")

    @property
    def footprint_bytes(self) -> int:
        return (self._capacity_slots + 7) // 8

    def _sync_dram(self) -> None:
        if self._dram is not None:
            self._dram.allocate(f"tombstones-{self.db_id}", self.footprint_bytes)


@dataclass
class TtlEntry:
    """One Temporal-Top-List row.

    Coarse entries carry (DIST, EMB, EADR, TAG); fine entries carry
    (DIST, EMB, RADR, DADR).  ``emb`` keeps the binary code so the engine
    can hand it to reranking without re-reading flash.
    """

    dist: int
    emb: np.ndarray
    eadr: int = -1
    tag: int = -1
    radr: int = -1
    dadr: int = -1
    meta: int = -1  # Sec. 7.1 metadata tag (present when the DB carries one)


class TtlBlock:
    """A columnar batch of TTL rows: one page window's extractions.

    The batched RD_TTL sweep produces many rows at once; keeping them as
    parallel columns (distance, packed code matrix, linkage words) lets the
    TTL absorb a whole page visit with a handful of array appends instead
    of materializing one :class:`TtlEntry` object per surviving embedding.
    Rows are ordered by ascending slot -- the arrival order the stable
    top-k selection ties break on.
    """

    __slots__ = ("dists", "embs", "eadrs", "tags", "radrs", "dadrs", "metas")

    def __init__(
        self,
        dists: np.ndarray,
        embs: np.ndarray,
        eadrs: Optional[np.ndarray] = None,
        tags: Optional[np.ndarray] = None,
        radrs: Optional[np.ndarray] = None,
        dadrs: Optional[np.ndarray] = None,
        metas: Optional[np.ndarray] = None,
    ) -> None:
        n = dists.size
        minus_ones = None

        def col(values: Optional[np.ndarray]) -> np.ndarray:
            nonlocal minus_ones
            if values is not None:
                return np.asarray(values, dtype=np.int64)
            if minus_ones is None:
                minus_ones = np.full(n, -1, dtype=np.int64)
            return minus_ones

        self.dists = np.asarray(dists, dtype=np.int64)
        self.embs = np.atleast_2d(np.asarray(embs, dtype=np.uint8))
        self.eadrs = col(eadrs)
        self.tags = col(tags)
        self.radrs = col(radrs)
        self.dadrs = col(dadrs)
        self.metas = col(metas)

    def __len__(self) -> int:
        return int(self.dists.size)

    @classmethod
    def from_entries(cls, entries: List[TtlEntry]) -> "TtlBlock":
        return cls(
            dists=np.array([e.dist for e in entries], dtype=np.int64),
            embs=np.stack([e.emb for e in entries]) if entries else np.empty((0, 0), dtype=np.uint8),
            eadrs=np.array([e.eadr for e in entries], dtype=np.int64),
            tags=np.array([e.tag for e in entries], dtype=np.int64),
            radrs=np.array([e.radr for e in entries], dtype=np.int64),
            dadrs=np.array([e.dadr for e in entries], dtype=np.int64),
            metas=np.array([e.meta for e in entries], dtype=np.int64),
        )

    def entry(self, row: int) -> TtlEntry:
        """Materialize one row as a :class:`TtlEntry` (selection output)."""
        return TtlEntry(
            dist=int(self.dists[row]),
            emb=self.embs[row],
            eadr=int(self.eadrs[row]),
            tag=int(self.tags[row]),
            radr=int(self.radrs[row]),
            dadr=int(self.dadrs[row]),
            meta=int(self.metas[row]),
        )

    def take(self, rows) -> "TtlBlock":
        """The rows ``rows`` (an index array or a slice) as a new block."""
        block = TtlBlock.__new__(TtlBlock)  # columns are typed already
        for name in self.__slots__:
            setattr(block, name, getattr(self, name)[rows])
        return block

    @classmethod
    def empty(cls, code_bytes: int = 0) -> "TtlBlock":
        return cls(
            dists=np.empty(0, dtype=np.int64),
            embs=np.empty((0, code_bytes), dtype=np.uint8),
        )

    @classmethod
    def concatenate(cls, blocks: List["TtlBlock"]) -> "TtlBlock":
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            dists=np.concatenate([b.dists for b in blocks]),
            embs=np.concatenate([b.embs for b in blocks]),
            eadrs=np.concatenate([b.eadrs for b in blocks]),
            tags=np.concatenate([b.tags for b in blocks]),
            radrs=np.concatenate([b.radrs for b in blocks]),
            dadrs=np.concatenate([b.dadrs for b in blocks]),
            metas=np.concatenate([b.metas for b in blocks]),
        )


class TemporalTopList:
    """An append + select-k staging list in controller DRAM.

    Rows live in columnar :class:`TtlBlock` chunks, always in arrival
    order (a compaction drops rows, it never reorders them), and only the
    final selection materializes :class:`TtlEntry` objects.  The scan
    kernel fills a list in one step (:meth:`replay` + :meth:`install`);
    :meth:`extend` / :meth:`compact` are the row-by-row semantics that
    pair reproduces.
    """

    def __init__(
        self,
        name: str,
        entry_bytes: int,
        dram: Optional[InternalDram] = None,
    ) -> None:
        self.name = name
        self.entry_bytes = entry_bytes
        self._dram = dram
        self._blocks: List[TtlBlock] = []
        self._n = 0
        self.peak_entries = 0

    def __len__(self) -> int:
        return self._n

    @property
    def entries(self) -> List[TtlEntry]:
        """All rows materialized as entries, in arrival order (tests /
        introspection; the hot path never calls this)."""
        block = self._consolidate()
        if block is None:
            return []
        return [block.entry(i) for i in range(len(block))]

    def _consolidate(self) -> Optional[TtlBlock]:
        """Collapse the chunk list to one block (arrival order kept)."""
        if not self._blocks:
            return None
        if len(self._blocks) > 1:
            self._blocks = [TtlBlock.concatenate(self._blocks)]
        return self._blocks[0]

    def append(self, entry: TtlEntry) -> None:
        self.extend(TtlBlock.from_entries([entry]))

    def _grow_region(self) -> None:
        """Raise the shared TTL arena to this list's high-water mark.

        Every query's TTL-C/TTL-E lives in one named DRAM arena sized for
        the worst query seen so far (replay absorbs queries one at a time,
        and the single embedded core serializes their quickselects, so the
        arena is reused rather than duplicated per in-flight query).  The
        region only grows: a later query with a smaller peak must not
        shrink the recorded footprint.
        """
        footprint = self.peak_entries * self.entry_bytes
        region = f"ttl-{self.name}"
        if footprint > self._dram.region_size(region):
            self._dram.allocate(region, footprint)

    def extend(self, entries) -> None:
        """Bulk append: one chunk append + one DRAM high-water update.

        Accepts a :class:`TtlBlock` (the hot path absorbing a page's
        extractions columnar) or any iterable of :class:`TtlEntry`.
        Equivalent to appending each row in order -- same final state and
        the same peak -- without the per-entry allocator round trip.
        """
        if not isinstance(entries, TtlBlock):
            entries = TtlBlock.from_entries(list(entries))
        if len(entries) == 0:
            return
        self._blocks.append(entries)
        self._n += len(entries)
        if self._n > self.peak_entries:
            self.peak_entries = self._n
            if self._dram is not None:
                self._grow_region()

    def select_block(self, k: int) -> Optional[TtlBlock]:
        """The k nearest rows as a columnar block, nearest first.

        Distance ties break by arrival order, so the selection is a pure
        function of (distances, insertion order) -- a deterministic total
        order.  That determinism is what makes the selection reproducible
        across *any* partitioning of the scan: per-shard shortlists merged
        by the same (distance, scan-order) key reconstruct exactly the
        list a single device would have selected (see
        :mod:`repro.core.shard`), and the streaming :meth:`compact` keeps
        the same top-k the full candidate stream would yield.
        """
        block = self._consolidate()
        if k <= 0 or block is None:
            return None
        dists = block.dists
        if dists.min() >= 0 and dists.max() <= np.iinfo(np.uint16).max:
            # Hamming distances fit 16 bits, where the stable sort is a
            # radix sort.
            dists = dists.astype(np.uint16)
        idx = np.argsort(dists, kind="stable")[: min(k, len(block))]
        return block.take(idx)

    def select_smallest(self, k: int) -> List[TtlEntry]:
        """Quickselect: the k nearest entries, nearest first (see
        :meth:`select_block` for the ordering contract)."""
        block = self.select_block(k)
        if block is None:
            return []
        return [block.entry(i) for i in range(len(block))]

    def compact(self, k: int) -> int:
        """Keep only the k nearest entries (the per-iteration quickselect
        of Sec. 4.3.1 that bounds the TTL's DRAM footprint).

        Returns the number of entries the quickselect processed, so the
        caller can charge the embedded core.  Survivors keep their arrival
        order.
        """
        processed = self._n
        block = self._consolidate()
        if block is not None and processed > k:
            nearest = np.argsort(block.dists, kind="stable")[: max(k, 0)]
            self._blocks = [block.take(np.sort(nearest))] if nearest.size else []
            self._n = nearest.size
        return processed

    def replay(self, sizes: Sequence[int], k: int) -> Tuple[List[int], int]:
        """Count-only twin of a scan's absorb loop on an empty list.

        Equivalent, for ``len``, ``peak_entries`` and the DRAM arena, to
        extending by one block of each size in turn, each followed by the
        per-page rule ``len > 2k -> compact(k)``.  Returns the size every
        compaction processed and ``kept_from``, the number of blocks up to
        the last compaction: the rows are then the ``k`` nearest of those
        blocks' rows and every later row, in arrival order, which the
        caller supplies through :meth:`install`.
        """
        if self._n:
            raise ValueError("replay starts from an empty list")
        n = 0
        peak = self.peak_entries
        processed: List[int] = []
        kept_from = 0
        for index, size in enumerate(sizes):
            n += size
            if n > peak:
                peak = n
            if n > 2 * k:
                processed.append(n)
                n = max(k, 0)
                kept_from = index + 1
        self._n = n
        if peak > self.peak_entries:
            self.peak_entries = peak
            if self._dram is not None:
                self._grow_region()
        return processed, kept_from

    def install(self, block: TtlBlock) -> None:
        """Set the rows a :meth:`replay` accounted for (arrival order)."""
        if len(block) != self._n:
            raise ValueError(
                f"{len(block)} rows installed, {self._n} replayed"
            )
        self._blocks = [block] if len(block) else []

    def clear(self) -> None:
        self._blocks.clear()
        self._n = 0

    @property
    def footprint_bytes(self) -> int:
        return self.peak_entries * self.entry_bytes
