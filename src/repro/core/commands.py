"""NAND flash command-set extensions (Table 2, Sec. 4.4.2).

The SSD controller translates REIS API calls into these flash commands and
issues them to the dies.  Each die's control logic is a finite-state machine
that drives the peripheral circuits:

========  =============  ====================================================
Command   Operands       Effect
========  =============  ====================================================
IBC       Q_EMB          Copy the query into each page buffer (broadcast)
XOR       ADR_P          XOR the cache and sensing latches of a plane
GEN_DIST  EADR           Fail-bit-count distance for embeddings in the latch
RD_TTL    EADR           Move a TTL entry (DIST/EMB/links) to the SSD DRAM
========  =============  ====================================================

``READ_PAGE`` (the standard sense command) and ``PASS_FAIL`` (the standard
program-verify comparator, reused for distance filtering) complete the set
the engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

import numpy as np

from repro.nand.die import Die


class FlashOp(Enum):
    READ_PAGE = "read_page"
    IBC = "ibc"
    XOR = "xor"
    GEN_DIST = "gen_dist"
    PASS_FAIL = "pass_fail"
    RD_TTL = "rd_ttl"


@dataclass
class CommandTrace:
    """Issued-command log (used by tests and the energy model)."""

    counts: Dict[FlashOp, int]

    def record(self, op: FlashOp) -> None:
        self.counts[op] = self.counts.get(op, 0) + 1

    def record_many(self, op: FlashOp, n: int) -> None:
        if n > 0:
            self.counts[op] = self.counts.get(op, 0) + n

    def __getitem__(self, op: FlashOp) -> int:
        return self.counts.get(op, 0)


class DieCommandInterface:
    """The FSM in one die's control logic, driving its peripheral circuits."""

    def __init__(self, die: Die) -> None:
        self.die = die
        self.trace = CommandTrace(counts={})

    # Each method implements one Table-2 command.

    def ibc_many(self, query_codes: np.ndarray, multi_plane: bool) -> int:
        """IBC Q_EMB for a back-to-back batch of queries (one per row).

        Command trace and counters match issuing IBC once per row; the
        latch end state is the last row's broadcast, as it would be.
        """
        self.trace.record_many(FlashOp.IBC, len(query_codes))
        return self.die.broadcast_queries(query_codes, multi_plane)

    def scan_commands(
        self, senses: int, windows: int, pass_fail: int, moved: int
    ) -> None:
        """The commands one scan phase issued to this die.

        ``senses`` READ_PAGEs latched the phase's pages (in schedule
        order).  Each window is one query's visit to a latched page: the
        cache latch is reloaded with that query and XOR + GEN_DIST run
        again ("one sense, N distance extractions"), so every window
        issues one XOR and one GEN_DIST even when it shares its sense.
        ``pass_fail`` counts comparator sweeps (the distance threshold on
        a non-empty window, the Sec. 7.1 metadata-tag sweep on a window
        with survivors); ``moved`` counts the entries RD_TTL carried to
        the TTL.  The controller-side scan kernel
        (:meth:`~repro.core.batch.BatchExecutor._scan_phase`) computes the
        distances from the latched bytes; this records the commands and
        latch counters that work stands for.
        """
        self.trace.record_many(FlashOp.READ_PAGE, senses)
        self.trace.record_many(FlashOp.XOR, windows)
        self.trace.record_many(FlashOp.GEN_DIST, windows)
        self.trace.record_many(FlashOp.PASS_FAIL, pass_fail)
        self.trace.record_many(FlashOp.RD_TTL, moved)
        counters = self.die.counters
        if windows:
            counters.add("latch_xors", windows)
            counters.add("bit_counts", windows)
        if pass_fail:
            counters.add("pass_fail_checks", pass_fail)
