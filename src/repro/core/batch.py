"""Batched multi-query serving: one device, many concurrent queries.

This is the one execution path for in-storage search: batches run
**page-major** so the functional simulator, the command traces, the
energy counters and the cost model all tell the same story -- the paper's
"one sense, N distance extractions".  A solo query is a batch of one
(:meth:`~repro.core.engine.InStorageAnnsEngine.search`), and the shard
router drives the same phase pieces per shard.

:class:`BatchExecutor` works phase by phase:

* **Scan phases (coarse, fine, the fine retry)** are driven by a
  columnar task table (:class:`_ScanTasks`): every (query, page,
  slot-window) demand as parallel arrays, scheduled with
  :func:`~repro.core.plan.schedule_order` /
  :func:`~repro.core.plan.schedule_senses`.  Each phase is one segmented
  kernel (:meth:`BatchExecutor._scan_phase`): one loop senses each
  scheduled page once and stacks its latched bytes (a cache hit stacks
  its DRAM mirror instead), then XOR-popcount distances, the threshold,
  the OOB decode with the metadata drop and every query's TTL selection
  run as a few array calls over all window slots.  With
  ``OptFlags.schedule_optimization`` the schedule groups every request
  for a page into one run (maximum collisions); without it, requests
  stay in query order and only accidental adjacency shares a sense.
* **Order-preserving accounting replay** keeps every query's results and
  modeled numbers independent of its batch: per-query page visits,
  channel billing, stats and the per-page TTL compaction are replayed
  from integer counts in each query's original slot order
  (:meth:`BatchExecutor._bill_scan`, :meth:`TemporalTopList.replay`),
  and :func:`final_ttl_rows` picks the rows that replay leaves in each
  TTL -- the state a batch of one would reach.  Reordering page service
  across queries changes *when* a page is sensed, never *what* any
  query computes from it.
* **Rerank and document phases** are page-major batch kernels too
  (:meth:`~repro.core.engine.InStorageAnnsEngine._rerank_batch`,
  :meth:`~repro.core.engine.InStorageAnnsEngine._fetch_documents_batch`):
  each batch-unique TLC page is sensed and ECC-corrected once, while
  every query is billed its own query-unique pages and codewords.

Cost composition is joint: per-query :class:`PhaseCost` records are merged
by :func:`~repro.core.costing.compose_batch_phase` into per-plane /
per-channel occupancies, and for the scan phases the executed schedule's
per-plane sense counts are passed as ``scheduled_senses`` -- the model
bills exactly the senses the trace shows.  The per-query results keep
their solo latency reports (useful for tail-latency analysis and the
analytic cross-validation tests); the batch-level wall clock lives in
:class:`BatchExecution`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import CacheEntry
from repro.core.costing import BatchPhaseBreakdown, PhaseCost, compose_batch_phase
from repro.core.layout import DeployedDatabase, RegionInfo
from repro.core.plan import (
    PlanContext,
    QueryPlan,
    ReisQueryResult,
    build_query_plan,
    finalize_query_result,
    schedule_order,
    schedule_senses,
    schedule_senses_cached,
)
from repro.core.registry import TemporalTopList, TtlBlock
from repro.sim.latency import LatencyReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import InStorageAnnsEngine
    from repro.host.profile import HostProfile

# Shared no-op context for profiling-disabled runs: entering it reads no
# clock and allocates nothing, keeping the default path overhead-free.
_NO_PROFILE = nullcontext()


def _phase_timer(profile: Optional["HostProfile"], name: str):
    """``profile.phase(name)`` when profiling is on, a shared no-op else."""
    return _NO_PROFILE if profile is None else profile.phase(name)


@dataclass
class BatchStats:
    """Device-level accounting for one served batch.

    ``phases`` maps phase names to their composed breakdowns: the on-device
    pipeline phases (``coarse``, ``fine``, ``rerank``, ``documents``) and --
    for batches served by a :class:`~repro.core.shard.ShardRouter` -- the
    host-side ``merge`` phase (distance-merging per-shard shortlists), which
    carries transfer/core components but no senses.
    """

    n_queries: int = 0
    phases: Dict[str, BatchPhaseBreakdown] = field(default_factory=dict)
    # Page-service requests the scan schedules carried and the senses they
    # actually performed.  ``scan_senses`` is, by construction, the number
    # of READ_PAGE commands the batch put on the die command buses for the
    # coarse+fine phases, and equals the cost model's unique-sense count
    # for those phases (compose_batch_phase bills the schedule verbatim).
    scan_requests: int = 0
    scan_senses: int = 0
    # Page visits the DRAM page cache served (all phases, summed over
    # queries); disjoint from the sense counts above.
    cache_hits: int = 0
    # Host-side wait: the batch-forming window (first member's submission
    # to service start) when the batch was formed by a
    # :class:`~repro.core.queue.SubmissionQueue`; zero for batches handed
    # to the executor directly.  Reported as the ``queue`` phase so
    # ``phase_seconds()`` decomposes the full submission-to-completion
    # wall clock, not just the on-device time.
    queue_seconds: float = 0.0
    # The opt-in host wall-clock profile this batch was served under
    # (None when profiling is off, which is the default).  Carries real
    # process time per host phase -- diagnostics for the Python hot path,
    # deliberately separate from the modeled phase breakdowns above.
    host_profile: Optional["HostProfile"] = None

    @property
    def total_senses(self) -> int:
        """Page visits summed over every query (the sequential sense count)."""
        return sum(b.total_senses for b in self.phases.values())

    @property
    def unique_senses(self) -> int:
        """Page senses the device performs after cross-query amortization."""
        return sum(b.unique_senses for b in self.phases.values())

    @property
    def senses_amortized(self) -> int:
        return self.total_senses - self.unique_senses

    def merge(self, other: "BatchStats") -> None:
        """Accumulate another batch's accounting (queue-served sequences)."""
        self.n_queries += other.n_queries
        self.scan_requests += other.scan_requests
        self.scan_senses += other.scan_senses
        self.cache_hits += other.cache_hits
        self.queue_seconds += other.queue_seconds
        for name, breakdown in other.phases.items():
            mine = self.phases.get(name)
            if mine is None:
                self.phases[name] = BatchPhaseBreakdown(
                    name=breakdown.name,
                    seconds=breakdown.seconds,
                    components=dict(breakdown.components),
                    unique_senses=breakdown.unique_senses,
                    total_senses=breakdown.total_senses,
                )
                continue
            mine.seconds += breakdown.seconds
            mine.unique_senses += breakdown.unique_senses
            mine.total_senses += breakdown.total_senses
            for component, seconds in breakdown.components.items():
                mine.components[component] = (
                    mine.components.get(component, 0.0) + seconds
                )


@dataclass
class BatchExecution:
    """A served batch: per-query results plus the batch-level wall clock."""

    results: List[ReisQueryResult]
    report: LatencyReport
    stats: BatchStats
    # Queries whose deadline had already passed when the batch completed
    # (set by the submission queue; deadline-missed queries are still
    # served and returned, never dropped).
    deadline_misses: int = 0
    # Per-shard device-busy seconds when the batch was served by a
    # :class:`~repro.core.shard.ShardRouter` (None for single-device
    # batches); lets the sharded scheduler bill each shard's utilization.
    shard_seconds: Optional[List[float]] = None

    @property
    def batch_seconds(self) -> float:
        """Wall-clock time to drain the whole batch (overlapped model)."""
        return self.report.total_s

    @property
    def queue_seconds(self) -> float:
        """Host-side batch-forming wait included in ``batch_seconds``."""
        return self.stats.queue_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass
class _ScanTasks:
    """A batch phase's scan demands in columnar (array-structured) form.

    Row ``t`` is one (query, page, slot-window) demand; ``queries[t]``
    indexes the batch's contexts.  ``threshold`` is phase-uniform and
    ``filters`` is per *query* (indexed through ``queries``), matching how
    the phase drivers parameterize their sweeps.  Rows are appended
    query-major in sequential scan order, so replaying them by ascending
    index reproduces each query's own scan order exactly, without
    materializing an object per (query, page) pair.
    """

    queries: np.ndarray  # (T,) int64 -- context index of each demand
    pages: np.ndarray  # (T,) int64 -- region page offset
    lo: np.ndarray  # (T,) int64 -- window bounds, unclamped
    hi: np.ndarray  # (T,) int64
    threshold: Optional[int]
    filters: Sequence[Optional[int]]  # per query, len == n_queries

    def __len__(self) -> int:
        return int(self.pages.size)


@dataclass
class _FineScanState:
    """Everything the fine phase carries between scan, retry and finish.

    Exists so the retry decision and the final shortlist selection can be
    driven from outside the executor (the shard router interleaves a
    cluster-wide merge between these steps).
    """

    threshold: Optional[int]
    fine_stages: Sequence[object]  # FineStage per query
    shortlist_sizes: List[int]
    entry_bytes: int
    costs: List[PhaseCost]
    ttls: List[TemporalTopList]
    ranges_per_query: List[List[Tuple[int, int]]]

    def survivors(self, qi: int) -> int:
        """Entries the filtered pass retained for query ``qi`` (the count
        the retry predicate inspects)."""
        return len(self.ttls[qi])


def _tasks_from_ranges(
    region: RegionInfo,
    query_of_range: np.ndarray,
    firsts: np.ndarray,
    lasts: np.ndarray,
    threshold: Optional[int],
    filters: Sequence[Optional[int]],
) -> _ScanTasks:
    """Vectorized page/window expansion of many (query, slot-range) demands.

    The single source of the slot-to-page arithmetic: range ``r``
    covering slots ``[firsts[r], lasts[r]]`` expands to its pages
    ``firsts[r]//spp .. lasts[r]//spp`` with unclamped window bounds
    relative to each page (the kernel clamps to the page's valid slots;
    empty ranges are skipped).  Row order is the ranges' order, pages
    ascending within a range -- callers supply ranges query-major in scan
    order, so the rows replay in each query's scan order.
    """
    spp = region.slots_per_page
    keep = lasts >= firsts
    q = query_of_range[keep]
    f = firsts[keep]
    last = lasts[keep]
    first_page = f // spp
    n_pages = last // spp - first_page + 1
    reps = np.repeat(np.arange(f.size), n_pages)
    # Position of each row within its range: row index minus the range's
    # starting row (exclusive prefix sum of the page counts).
    within = np.arange(reps.size) - np.repeat(np.cumsum(n_pages) - n_pages, n_pages)
    pages = first_page[reps] + within
    page_first = pages * spp
    return _ScanTasks(
        queries=q[reps],
        pages=pages,
        lo=f[reps] - page_first,
        hi=last[reps] - page_first,
        threshold=threshold,
        filters=filters,
    )


def final_ttl_rows(
    queries: np.ndarray,
    windows: np.ndarray,
    dists: np.ndarray,
    kept_from: np.ndarray,
    ks: np.ndarray,
) -> np.ndarray:
    """Which survivor rows each query's TTL holds after its scan.

    ``queries``/``windows``/``dists`` describe the survivor rows, grouped
    by ascending query and in arrival order within a query;
    ``kept_from[q]`` is the first window after query ``q``'s last per-page
    compaction (:meth:`TemporalTopList.replay`).  A TTL holds the
    ``ks[q]`` nearest rows (ties by arrival) of the windows before it and
    every later row.  Distances are small integers, so each query's cut
    distance comes from one histogram of (query, distance) keys instead
    of a sort.  Returns the held rows' indices in row order.
    """
    n_queries = ks.size
    tail = windows >= kept_from[queries]
    width = int(dists.max()) + 1 if dists.size else 1
    # Head rows keyed by (query, distance); tail rows past every key, the
    # cut keys below included.
    n_keys = n_queries * width
    key = np.where(tail, n_keys + 1, queries * width + dists)
    below = np.cumsum(
        np.bincount(key, minlength=n_keys + 2)[:n_keys]
        .reshape(n_queries, width),
        axis=1,
    )  # below[q, d]: head rows of query q at distance <= d
    cut = (below < ks[:, None]).sum(axis=1)  # first distance reaching k
    quota = ks - np.where(cut > 0, below[np.arange(n_queries), cut - 1], 0)
    cut_key = (np.arange(n_queries) * width + cut)[queries]
    keep = tail | (key < cut_key)
    # Rows at the cut distance: the first ``quota`` of each query's.
    tie = np.flatnonzero(key == cut_key)
    tie_q = queries[tie]
    tie_rank = np.arange(tie.size) - np.searchsorted(tie_q, tie_q)
    keep[tie[tie_rank < quota[tie_q]]] = True
    return np.flatnonzero(keep)


class BatchExecutor:
    """Serves a batch of queries concurrently against one device."""

    # The page-major driver dispatches on these stage names; a plan
    # carrying anything else (a host-side MergeStage) is rejected, never
    # silently dropped.
    SERVICEABLE_STAGES = frozenset(
        ("ibc", "coarse", "fine", "rerank", "documents")
    )

    def __init__(self, engine: "InStorageAnnsEngine") -> None:
        self.engine = engine

    # ------------------------------------------------------- scan kernel

    def _scan_phase(
        self,
        region: RegionInfo,
        tasks: _ScanTasks,
        coarse: bool,
        code_bytes: int,
        oob_record_bytes: int,
        ctxs: Sequence[PlanContext],
        ttls: Sequence[TemporalTopList],
        costs: Sequence[PhaseCost],
        entry_bytes: int,
        select_k: Sequence[int],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> None:
        """One scan phase as one segmented kernel over all (task, slot) rows.

        The schedule is computed on the task arrays
        (:func:`~repro.core.plan.schedule_order` /
        :func:`~repro.core.plan.schedule_senses`); :meth:`_stack_runs`
        senses the scheduled runs and stacks each run's latched bytes --
        or, for a cache hit, the mirrored bytes: the cache is just another
        byte source, billed as DRAM instead of a sense.  Everything else
        is a few array calls over every window slot of the phase: XOR
        with the row's query code and popcount (the fail-bit count), the
        strict-below threshold, the OOB linkage decode with the
        metadata-tag drop, and one segmented top-k for every query's TTL
        (:func:`final_ttl_rows`).

        Per-query accounting is replayed from integer counts in each
        query's scan order, so every query is billed exactly as it would
        be alone (:meth:`_bill_scan`).
        """
        engine = self.engine
        n_tasks = len(tasks)
        if n_tasks == 0:
            return
        order = schedule_order(tasks.pages, engine.flags.schedule_optimization)
        if order is None:
            order = np.arange(n_tasks)
        pages_o = tasks.pages[order]
        unique_pages = np.unique(pages_o).tolist()
        located = dict(zip(unique_pages, engine._locate_pages(region, unique_pages)))

        def locate_plane(page_offset: int) -> int:
            return located[page_offset][1]

        cache = engine.page_cache
        entry_of: Dict[int, CacheEntry] = {}
        if cache is not None:
            # One residency snapshot per unique page: pages admitted while
            # this phase drains don't retroactively serve it (the schedule
            # partition is fixed, like the sense/latch plan itself).
            def is_cached(page_offset: int) -> bool:
                entry = cache.lookup(region, page_offset)
                if entry is None:
                    return False
                entry_of[page_offset] = entry
                return True

            sensed, planes, _cached = schedule_senses_cached(
                pages_o, locate_plane, is_cached
            )
        else:
            sensed, planes = schedule_senses(pages_o, locate_plane)
        self._record_schedule(
            n_tasks, sensed, planes, "coarse" if coarse else "fine",
            stats, scheduled_senses,
        )
        starts = np.flatnonzero(np.r_[True, pages_o[1:] != pages_o[:-1]])
        n_runs = starts.size
        run_pages = pages_o[starts]
        spp = region.slots_per_page
        page_stack, oob_stack, run_nbytes = self._stack_runs(
            [located[page] for page in run_pages.tolist()],
            sensed[starts].tolist(),
            [entry_of.get(page) for page in run_pages.tolist()],
            spp * code_bytes,
            spp * oob_record_bytes,
        )

        # Window rows: every (task, slot) pair, in task (= arrival) order;
        # row r of task t reads code slot lo[t] + (r - first_row[t]) of
        # run run_of[t], i.e. stacked code code_of_row[r].
        run_of = np.empty(n_tasks, dtype=np.int64)
        run_of[order] = np.repeat(np.arange(n_runs), np.diff(np.r_[starts, n_tasks]))
        n_segments = np.clip(region.n_slots - run_pages * spp, 0, spp)
        lo = np.maximum(tasks.lo, 0)
        hi = np.minimum(tasks.hi, n_segments[run_of] - 1)
        n_valid = np.maximum(hi - lo + 1, 0)
        first_row = np.cumsum(n_valid) - n_valid
        row_task = np.repeat(np.arange(n_tasks), n_valid)
        code_of_row = np.arange(row_task.size) + np.repeat(
            run_of * spp + lo - first_row, n_valid
        )

        # XOR-popcount on the widest word dividing a code.
        word = next(f"<u{w}" for w in (8, 4, 2, 1) if code_bytes % w == 0)
        query_words = np.ascontiguousarray(
            np.stack([ctx.query_code for ctx in ctxs]), dtype=np.uint8
        ).view(word)
        dists = np.bitwise_count(
            page_stack.view(word).reshape(n_runs * spp, -1).take(code_of_row, axis=0)
            ^ np.repeat(query_words.take(tasks.queries, axis=0), n_valid, axis=0)
        ).sum(axis=1, dtype=np.int64)
        if tasks.threshold is not None:
            rows = np.flatnonzero(dists < tasks.threshold)
        else:
            rows = np.arange(row_task.size)
        n_kept = np.bincount(row_task[rows], minlength=n_tasks)

        records = oob_stack.reshape(n_runs * spp, oob_record_bytes)

        def linkage(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            """OOB linkage words (DADR, RADR[, META]) and metadata tags."""
            words = records.take(codes, axis=0).view("<u4")
            if words.shape[1] >= 3:
                return words, words[:, 2].astype(np.int64)
            return words, np.full(codes.size, -1, dtype=np.int64)

        has_filter = np.array([f is not None for f in tasks.filters])
        if has_filter.any():
            # The in-die tag sweep drops mismatches before RD_TTL.
            wanted = np.array([-1 if f is None else f for f in tasks.filters])
            q = tasks.queries[row_task[rows]]
            metas = linkage(code_of_row[rows])[1]
            rows = rows[~has_filter[q] | (metas == wanted[q])]
        survivor_task = row_task[rows]
        n_surv = np.bincount(survivor_task, minlength=n_tasks)

        # The dies' command traces and latch counters, per die: the senses,
        # then the latched (not cache-served) windows' extractions.
        task_plane = np.empty_like(planes)
        task_plane[order] = planes
        latch = run_nbytes[run_of] == 0
        pass_fail = (has_filter[tasks.queries] & (n_kept > 0)).astype(np.int64)
        if tasks.threshold is not None:
            pass_fail += n_valid > 0
        ppd = engine.geometry.planes_per_die
        n_dies = engine.geometry.total_planes // ppd
        per_die = [np.bincount(planes[sensed] // ppd, minlength=n_dies)] + [
            np.bincount(
                task_plane[latch] // ppd, weights=w[latch], minlength=n_dies
            ).astype(np.int64)
            for w in (np.ones(n_tasks), pass_fail, n_surv)
        ]
        for die in np.flatnonzero(per_die[1]).tolist():
            engine._die_interfaces[die].scan_commands(
                *(int(counts[die]) for counts in per_die)
            )
        moved = int(n_surv[latch].sum()) * entry_bytes
        if moved:
            engine.ssd.counters.add("channel_bytes", moved)

        # Per-query billing and TTL replay, then every TTL's final rows.
        located_tasks = [located[page] for page in tasks.pages.tolist()]
        kept_from = self._bill_scan(
            tasks, located_tasks, run_nbytes[run_of], n_valid, n_surv,
            ctxs, ttls, costs, entry_bytes, select_k,
        )
        survivor_query = tasks.queries[survivor_task]
        picked = final_ttl_rows(
            survivor_query, survivor_task, dists[rows], kept_from,
            np.asarray(select_k, dtype=np.int64),
        )
        code = code_of_row[rows[picked]]
        columns = dict(
            dists=dists[rows[picked]],
            embs=page_stack.reshape(n_runs * spp, code_bytes).take(code, axis=0),
            eadrs=run_pages[code // spp] * spp + code % spp,
        )
        if coarse:
            columns["tags"] = records.take(code, axis=0)[:, 0]
        else:
            words, columns["metas"] = linkage(code)
            columns["dadrs"] = words[:, 0]
            columns["radrs"] = words[:, 1]
        held = TtlBlock(**columns)
        bounds = np.searchsorted(
            survivor_query[picked], np.arange(len(ctxs) + 1)
        ).tolist()
        for qi in np.unique(tasks.queries).tolist():
            ttls[qi].install(held.take(slice(bounds[qi], bounds[qi + 1])))

        if cache is not None:
            kind = "centroid" if coarse else "cluster"
            for page_offset in unique_pages:
                if page_offset not in entry_of:
                    engine._admit_page(region, page_offset, kind)

    def _stack_runs(
        self,
        run_locs: Sequence[Tuple[object, int, int, int]],
        run_sense: Sequence[bool],
        run_entries: Sequence[Optional[CacheEntry]],
        code_width: int,
        oob_width: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The page loop: each scheduled run's bytes, stacked.

        A cache hit's bytes are its mirror.  Every other run reads its
        plane's sensing latch: each plane senses its runs in schedule
        order (error draws and latches are per plane, so this is the
        page-major sense sequence), and a run whose page is still latched
        reads what its plane's previous sense left.  Returns the stacked
        codes, the stacked OOB records and each run's mirror size (0 for a
        latched run).
        """
        n_runs = len(run_locs)
        sources: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * n_runs
        run_nbytes = np.zeros(n_runs, dtype=np.int64)
        by_plane: Dict[int, List[int]] = {}
        for run, (loc, entry) in enumerate(zip(run_locs, run_entries)):
            if entry is None:
                by_plane.setdefault(loc[1], []).append(run)
            else:
                sources[run] = (entry.data, entry.oob)
                run_nbytes[run] = entry.nbytes
        for plane_index, runs in by_plane.items():
            fresh = [run_locs[run][0] for run in runs if run_sense[run]]
            latched = iter(self.engine._planes[plane_index].sense_pages(
                [ppa.block for ppa in fresh], [ppa.page for ppa in fresh]
            ))
            source = None  # a plane's first run always senses
            for run in runs:
                if run_sense[run]:
                    source = next(latched)
                sources[run] = source
        page_stack = np.concatenate([data[:code_width] for data, _ in sources])
        oob_stack = np.concatenate([oob[:oob_width] for _, oob in sources])
        return (
            page_stack.reshape(n_runs, code_width),
            oob_stack.reshape(n_runs, oob_width),
            run_nbytes,
        )

    def _bill_scan(
        self,
        tasks: _ScanTasks,
        located_tasks: Sequence[Tuple[object, int, int, int]],
        task_nbytes: np.ndarray,
        n_valid: np.ndarray,
        n_surv: np.ndarray,
        ctxs: Sequence[PlanContext],
        ttls: Sequence[TemporalTopList],
        costs: Sequence[PhaseCost],
        entry_bytes: int,
        select_k: Sequence[int],
    ) -> np.ndarray:
        """Replay a scan phase's per-query accounting from integer counts.

        Task rows are query-major in scan order, so walking each query's
        rows bills it exactly as a batch of one: a cache-served window
        (``task_nbytes`` > 0) its DRAM stream, a latched window its page
        visit plus its survivors' channel bytes.  The TTL's per-page
        compaction is then replayed on the survivor counts
        (:meth:`TemporalTopList.replay`), each quickselect charged to the
        core.  Returns, per query, the first task row after its last
        compaction (rows before it keep only their top ``select_k``).
        """
        engine = self.engine
        core = engine.ssd.cores.reis_core
        n_queries = len(ctxs)
        present, first_task = np.unique(tasks.queries, return_index=True)
        ends = np.r_[first_task[1:], len(tasks)]
        sensed, scanned, moved = np.add.reduceat(
            np.stack([task_nbytes == 0, n_valid, n_surv]), first_task, axis=1
        ).tolist()
        kept_from = np.zeros(n_queries, dtype=np.int64)
        nbytes_l = task_nbytes.tolist()
        surv_l = n_surv.tolist()
        for i, (qi, first, end) in enumerate(
            zip(present.tolist(), first_task.tolist(), ends.tolist())
        ):
            cost, stats = costs[qi], ctxs[qi].stats
            for t in range(first, end):
                _ppa, plane_index, channel, page_id = located_tasks[t]
                if nbytes_l[t]:
                    engine._bill_dram_hit(cost, stats, nbytes_l[t], key=page_id)
                    continue
                cost.add_page(plane_index, page_id=page_id)
                if surv_l[t]:
                    cost.add_channel_bytes(channel, surv_l[t] * entry_bytes)
            stats.pages_read += sensed[i]
            stats.entries_scanned += scanned[i]
            stats.entries_filtered += scanned[i] - moved[i]
            stats.entries_transferred += moved[i]
            k = select_k[qi]
            processed, kept = ttls[qi].replay(surv_l[first:end], k)
            for n in processed:
                cost.core_seconds += core.quickselect(n, k)
            kept_from[qi] = first + kept
        return kept_from

    # --------------------------------------------------------- phase drivers

    def _coarse_scan(
        self,
        db: DeployedDatabase,
        plans: Sequence[QueryPlan],
        ctxs: Sequence[PlanContext],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> List[TemporalTopList]:
        """Page-major centroid sweep; returns the per-query TTL-Cs.

        Deposits each query's coarse :class:`PhaseCost` into its context;
        cluster *selection* is left to the caller so the shard router can
        merge centroid candidates across devices before resolving ids.
        """
        engine = self.engine
        region = db.centroid_region
        assert region is not None
        nprobes = [
            next(s.nprobe for s in plan.stages if s.name == "coarse")
            for plan in plans
        ]
        entry_bytes = engine.params.coarse_entry_bytes(db.code_bytes)
        costs = [PhaseCost(name="coarse", with_compute=True) for _ in plans]
        ttls = [
            TemporalTopList("c", entry_bytes, dram=engine.ssd.dram)
            for _ in plans
        ]
        n_queries = len(ctxs)
        tasks = _tasks_from_ranges(
            region,
            np.arange(n_queries, dtype=np.int64),
            np.zeros(n_queries, dtype=np.int64),
            np.full(n_queries, region.n_slots - 1, dtype=np.int64),
            threshold=None,
            filters=[None] * n_queries,
        )
        self._scan_phase(
            region, tasks, True, db.code_bytes, engine.params.tag_bytes,
            ctxs, ttls, costs, entry_bytes, nprobes, stats, scheduled_senses,
        )
        for ctx, cost in zip(ctxs, costs):
            ctx.phase_costs["coarse"] = cost
        return ttls

    def _run_coarse_phase(
        self,
        db: DeployedDatabase,
        plans: Sequence[QueryPlan],
        ctxs: Sequence[PlanContext],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> None:
        """Page-major coarse search: all queries sweep the centroid region."""
        engine = self.engine
        nprobes = [
            next(s.nprobe for s in plan.stages if s.name == "coarse")
            for plan in plans
        ]
        ttls = self._coarse_scan(db, plans, ctxs, stats, scheduled_senses)
        for qi, ctx in enumerate(ctxs):
            ctx.clusters = engine.select_clusters(
                db, ttls[qi], nprobes[qi], ctx.phase_costs["coarse"], ctx.stats
            )

    def _fine_scan(
        self,
        db: DeployedDatabase,
        plans: Sequence[QueryPlan],
        ctxs: Sequence[PlanContext],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> "_FineScanState":
        """The filtered page-major fine sweep (no retry, no selection).

        Split out so the retry decision can be taken *outside*: locally by
        :meth:`_run_fine_phase`, or cluster-wide by the shard router (the
        retry predicate must see the whole corpus's survivor count, exactly
        as one device scanning everything would).
        """
        engine = self.engine
        region = db.embedding_region
        fine_stages = [
            next(s for s in plan.stages if s.name == "fine") for plan in plans
        ]
        shortlist_sizes = [stage.shortlist_size for stage in fine_stages]
        entry_bytes = engine.params.fine_entry_bytes(db.code_bytes)
        threshold = (
            db.filter_threshold if engine.flags.distance_filtering else None
        )
        costs = [
            PhaseCost(
                name="fine",
                with_compute=True,
                with_filter=engine.flags.distance_filtering,
            )
            for _ in plans
        ]
        ttls = [
            TemporalTopList("e", entry_bytes, dram=engine.ssd.dram)
            for _ in plans
        ]
        ranges_per_query = [
            engine._slot_ranges(db, ctx.clusters) for ctx in ctxs
        ]
        query_of_range: List[int] = []
        firsts: List[int] = []
        lasts: List[int] = []
        for qi, ctx in enumerate(ctxs):
            for first, last in ranges_per_query[qi]:
                ctx.stats.candidates += last - first + 1
                query_of_range.append(qi)
                firsts.append(first)
                lasts.append(last)
        tasks = _tasks_from_ranges(
            region,
            np.asarray(query_of_range, dtype=np.int64),
            np.asarray(firsts, dtype=np.int64),
            np.asarray(lasts, dtype=np.int64),
            threshold=threshold,
            filters=[stage.metadata_filter for stage in fine_stages],
        )
        self._scan_phase(
            region, tasks, False, db.code_bytes, db.oob_record_bytes,
            ctxs, ttls, costs, entry_bytes, shortlist_sizes, stats,
            scheduled_senses,
        )
        return _FineScanState(
            threshold=threshold,
            fine_stages=fine_stages,
            shortlist_sizes=shortlist_sizes,
            entry_bytes=entry_bytes,
            costs=costs,
            ttls=ttls,
            ranges_per_query=ranges_per_query,
        )

    def _fine_retry(
        self,
        db: DeployedDatabase,
        state: "_FineScanState",
        ctxs: Sequence[PlanContext],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
        retries: Sequence[int],
    ) -> None:
        """Unfiltered rescan for the given queries, as one shared schedule."""
        if not retries:
            return
        engine = self.engine
        region = db.embedding_region
        query_of_range: List[int] = []
        firsts: List[int] = []
        lasts: List[int] = []
        for qi in retries:
            ctxs[qi].stats.filter_retries += 1
            state.ttls[qi].clear()
            for first, last in state.ranges_per_query[qi]:
                query_of_range.append(qi)
                firsts.append(first)
                lasts.append(last)
        retry_tasks = _tasks_from_ranges(
            region,
            np.asarray(query_of_range, dtype=np.int64),
            np.asarray(firsts, dtype=np.int64),
            np.asarray(lasts, dtype=np.int64),
            threshold=None,
            filters=[stage.metadata_filter for stage in state.fine_stages],
        )
        self._scan_phase(
            region, retry_tasks, False, db.code_bytes, db.oob_record_bytes,
            ctxs, state.ttls, state.costs, state.entry_bytes,
            state.shortlist_sizes, stats, scheduled_senses,
        )

    def _fine_finish(
        self,
        state: "_FineScanState",
        ctxs: Sequence[PlanContext],
    ) -> None:
        """Final quickselect of every query's TTL-E into its shortlist."""
        engine = self.engine
        for qi, ctx in enumerate(ctxs):
            ctx.shortlist = engine.finish_fine_search(
                state.ttls[qi], state.shortlist_sizes[qi], state.costs[qi]
            )
            ctx.phase_costs["fine"] = state.costs[qi]

    def _run_fine_phase(
        self,
        db: DeployedDatabase,
        plans: Sequence[QueryPlan],
        ctxs: Sequence[PlanContext],
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> None:
        """Page-major fine search, including the per-query filter retry."""
        engine = self.engine
        state = self._fine_scan(db, plans, ctxs, stats, scheduled_senses)
        # Queries the calibrated threshold starved below k rescan without
        # filtering -- still as one shared page-major schedule.
        retries = [
            qi
            for qi, ctx in enumerate(ctxs)
            if engine.fine_retry_needed(
                state.survivors(qi), state.threshold,
                state.shortlist_sizes[qi], ctx.stats.candidates,
            )
        ]
        self._fine_retry(db, state, ctxs, stats, scheduled_senses, retries)
        self._fine_finish(state, ctxs)

    @staticmethod
    def _record_schedule(
        n_requests: int,
        sensed: np.ndarray,
        planes: np.ndarray,
        phase: str,
        stats: BatchStats,
        scheduled_senses: Dict[str, Dict[int, int]],
    ) -> None:
        """Accumulate an executed schedule's sense counts for the cost model."""
        stats.scan_requests += int(n_requests)
        stats.scan_senses += int(sensed.sum())
        if not sensed.any():
            return
        acc = scheduled_senses.setdefault(phase, {})
        uniq, counts = np.unique(planes[sensed], return_counts=True)
        for plane, senses in zip(uniq.tolist(), counts.tolist()):
            acc[plane] = acc.get(plane, 0) + senses

    # -------------------------------------------------------------- execute

    def prepare(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
    ) -> Tuple[List[QueryPlan], List[PlanContext]]:
        """Build and validate one serviceable plan + context per query."""
        engine = self.engine
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        plans = [
            build_query_plan(
                engine, db, query, k, nprobe, fetch_documents, metadata_filter
            )
            for query in queries
        ]
        for plan in plans:
            unknown = [
                s.name for s in plan.stages
                if s.name not in self.SERVICEABLE_STAGES
            ]
            if unknown or not {"ibc", "fine"} <= set(plan.stage_names()):
                raise ValueError(
                    "page-major batch execution cannot service this plan "
                    f"(stages {plan.stage_names()}); only the device phases "
                    f"{sorted(self.SERVICEABLE_STAGES)} run on a device"
                )
        ctxs = [PlanContext(db=plan.db, query=plan.query) for plan in plans]
        return plans, ctxs

    def run_ibc(self, ctxs: Sequence[PlanContext]) -> None:
        """Step 1, batched: encode every query at once, broadcast back to back.

        The binary quantizers encode row-wise, so each query's code is the
        one it gets alone; cache latches are overwrite-only, so only the
        last broadcast's latch state is ever observable.  Commands,
        counters and per-query transfer stats account the full sequence.
        """
        if not ctxs:
            return
        db = ctxs[0].db
        codes = db.binary_quantizer.encode(
            np.stack([ctx.query for ctx in ctxs])
        )
        ibc_seconds = self.engine._input_broadcast_batch(
            codes, [ctx.stats for ctx in ctxs]
        )
        for ctx, code in zip(ctxs, codes):
            ctx.query_code = code
            ctx.ibc_seconds = ibc_seconds

    def execute(
        self,
        db: DeployedDatabase,
        queries: np.ndarray,
        k: int = 10,
        nprobe: Optional[int] = None,
        fetch_documents: bool = True,
        metadata_filter: Optional[int] = None,
        host_profile: Optional["HostProfile"] = None,
    ) -> BatchExecution:
        """Serve a batch: plan per query, scan page-major, cost jointly.

        ``host_profile`` opts into host wall-clock accounting per phase
        (:class:`~repro.host.profile.HostProfile`); the default ``None``
        serves without ever reading the wall clock.
        """
        engine = self.engine
        with _phase_timer(host_profile, "prepare"):
            plans, ctxs = self.prepare(
                db, queries, k, nprobe, fetch_documents, metadata_filter
            )
        stats = BatchStats(n_queries=len(plans), host_profile=host_profile)
        scheduled_senses: Dict[str, Dict[int, int]] = {}

        with _phase_timer(host_profile, "ibc"):
            self.run_ibc(ctxs)

        # Scan phases run page-major across the whole batch.
        if plans and any(s.name == "coarse" for s in plans[0].stages):
            with _phase_timer(host_profile, "coarse"):
                self._run_coarse_phase(db, plans, ctxs, stats, scheduled_senses)
        if plans:
            with _phase_timer(host_profile, "fine"):
                self._run_fine_phase(db, plans, ctxs, stats, scheduled_senses)

        # TLC phases run page-major across the whole batch too: one shared
        # functional pass per phase (each batch-unique page sensed and
        # ECC-corrected once, one distance einsum), per-query billing.
        if plans and any(s.name == "rerank" for s in plans[0].stages):
            with _phase_timer(host_profile, "rerank"):
                outs = engine._rerank_batch(
                    db,
                    np.stack([ctx.query for ctx in ctxs]),
                    [ctx.shortlist for ctx in ctxs],
                    [plan.k for plan in plans],
                    [ctx.stats for ctx in ctxs],
                )
                for ctx, (distances, dadrs, slots, cost) in zip(ctxs, outs):
                    ctx.distances, ctx.dadrs, ctx.slots = distances, dadrs, slots
                    ctx.phase_costs["rerank"] = cost
        if plans and any(s.name == "documents" for s in plans[0].stages):
            with _phase_timer(host_profile, "documents"):
                # Queries with no winners record no documents phase cost.
                active = [i for i, ctx in enumerate(ctxs) if ctx.dadrs.size]
                if active:
                    docs = engine._fetch_documents_batch(
                        db,
                        [ctxs[i].dadrs for i in active],
                        [ctxs[i].stats for i in active],
                    )
                    for i, (documents, cost, host_s) in zip(active, docs):
                        ctxs[i].documents = documents
                        ctxs[i].host_seconds = host_s
                        ctxs[i].phase_costs["documents"] = cost

        with _phase_timer(host_profile, "finalize"):
            results = [
                finalize_query_result(engine, plan, ctx)
                for plan, ctx in zip(plans, ctxs)
            ]
        report = compose_batch_report(engine, ctxs, stats, scheduled_senses)
        return BatchExecution(results=results, report=report, stats=stats)


def compose_batch_report(
    engine: "InStorageAnnsEngine",
    ctxs: Sequence[PlanContext],
    stats: BatchStats,
    scheduled_senses: Dict[str, Dict[int, int]],
) -> LatencyReport:
    """Joint cost composition of one device's served batch.

    Merges the per-query :class:`PhaseCost` records under the die/channel
    occupancy model (:func:`~repro.core.costing.compose_batch_phase`),
    billing the scan phases exactly the senses their executed schedules
    performed, and deposits the per-phase breakdowns into ``stats``.
    Shared by :meth:`BatchExecutor.execute` and the per-shard composition
    of :class:`~repro.core.shard.ShardRouter`.
    """
    phase_costs: Dict[str, List[PhaseCost]] = {}
    ibc_seconds = 0.0
    host_seconds = 0.0
    for ctx in ctxs:
        ibc_seconds += ctx.ibc_seconds
        host_seconds += ctx.host_seconds
        stats.cache_hits += ctx.stats.cache_hits
        for name, cost in ctx.phase_costs.items():
            phase_costs.setdefault(name, []).append(cost)

    ecc_rate = engine.ssd.ecc.decode_time(1)
    report = LatencyReport()
    report.add_component("ibc", ibc_seconds)
    report.add_phase("ibc", ibc_seconds)
    report.total_s += ibc_seconds
    for name, costs in phase_costs.items():
        breakdown = compose_batch_phase(
            costs, engine.timing, engine.flags, ecc_rate,
            scheduled_senses=scheduled_senses.get(name),
        )
        stats.phases[name] = breakdown
        report.total_s += breakdown.seconds
        report.add_phase(name, breakdown.seconds)
        for component, seconds in breakdown.components.items():
            report.add_component(component, seconds)
    if host_seconds:
        report.add_component("host_transfer", host_seconds)
        report.add_phase("host", host_seconds)
        report.total_s += host_seconds
    return report
