"""Blink's Flow Selector: the hash-indexed cell array.

From the paper (Section 3.1): "Blink runs in programmable network
devices and monitors a small sample of flows (e.g., 64) for each
destination prefix. [...] To choose the monitored flows, Blink
computes a hash of each flow's 5-tuple and uses the hash value as an
index in an array of cells.  Therefore, several flows may collide in
one cell.  However, at any given time, only one flow occupies a cell,
and is thus monitored.  This monitored flow is evicted by freeing its
cell if it finishes or becomes inactive for 2 s or more.  When a cell
is free, Blink samples a new flow.  Blink also resets its monitored
sample every 8.5 min."

This module is deliberately independent of the event loop so the same
code serves the trace-driven analysis, the packet-level simulator and
the Monte-Carlo benches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.blink.constants import DEFAULT_CELLS, EVICTION_TIMEOUT, RESET_INTERVAL
from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple
from repro.obs import tracer as obs


@dataclass(slots=True)
class Cell:
    """One flow-selector cell."""

    flow: Optional[FiveTuple] = None
    last_activity: float = 0.0
    installed_at: float = 0.0
    #: Last time this cell's flow showed a retransmission.
    last_retransmission: Optional[float] = None
    #: Previous sequence number seen (for duplicate-seq detection).
    last_seq: Optional[int] = None
    #: Ground-truth marker of the occupying flow (evaluation only).
    malicious_ground_truth: bool = False

    @property
    def occupied(self) -> bool:
        return self.flow is not None

    def clear(self) -> None:
        self.flow = None
        self.last_activity = 0.0
        self.installed_at = 0.0
        self.last_retransmission = None
        self.last_seq = None
        self.malicious_ground_truth = False


@dataclass
class SelectorStats:
    """Counters for analysing selector behaviour.

    ``legit_occupancy_durations`` collects, for every evicted
    legitimate flow, how long it occupied its cell — whose mean is the
    empirical ``tR`` the paper's analysis consumes.
    """

    installs: int = 0
    evictions_inactive: int = 0
    evictions_fin: int = 0
    resets: int = 0
    collisions_ignored: int = 0
    legit_occupancy_durations: List[float] = field(default_factory=list)
    #: Gap between each observed retransmission and the flow's previous
    #: packet (bounded window; consumed by the RTO-plausibility defense).
    retransmission_gaps: List[float] = field(default_factory=list)

    def mean_legit_occupancy(self) -> float:
        """Empirical tR: mean time a legitimate flow stayed sampled."""
        if not self.legit_occupancy_durations:
            raise ValueError("no legitimate evictions observed yet")
        return sum(self.legit_occupancy_durations) / len(self.legit_occupancy_durations)


class FlowSelector:
    """The per-prefix flow-sampling array.

    Callers drive it with :meth:`observe` for each packet of the
    prefix; :meth:`maybe_reset` implements the 8.5 min sample reset
    (time-driven, so trace replays work without an event loop).
    """

    #: Bound on the retransmission-gap sample window.
    MAX_GAP_SAMPLES = 4096

    def __init__(
        self,
        cells: int = DEFAULT_CELLS,
        eviction_timeout: float = EVICTION_TIMEOUT,
        reset_interval: float = RESET_INTERVAL,
        hash_seed: int = 0,
        reseed_on_reset: bool = True,
    ):
        if cells <= 0:
            raise ConfigurationError("cells must be positive")
        if eviction_timeout <= 0 or reset_interval <= 0:
            raise ConfigurationError("timeouts must be positive")
        self.cells: List[Cell] = [Cell() for _ in range(cells)]
        self.eviction_timeout = eviction_timeout
        self.reset_interval = reset_interval
        self.hash_seed = hash_seed
        self.reseed_on_reset = reseed_on_reset
        self.stats = SelectorStats()
        self._last_reset = 0.0
        # Memoised flow -> cell index for the current hash_seed.  The
        # mapping is a pure function of (flow, cells, hash_seed), so the
        # cache is exact; it is dropped whenever the seed changes (e.g.
        # reseed-on-reset) and bounded against unbounded flow churn.
        self._index_cache: Dict[FiveTuple, int] = {}
        self._index_cache_seed = hash_seed
        # Windowed retransmission log behind retransmitting_bound():
        # (time, cell) per retransmission in arrival order and the
        # newest logged time per cell.  Entries are pruned at the latest
        # ``now`` and the narrowest window seen so far, so a pruned
        # entry can only matter to a query earlier or wider than that.
        self._retx_log: Deque[Tuple[float, int]] = deque()
        self._retx_latest: Dict[int, float] = {}
        self._retx_now = -float("inf")
        self._retx_window = float("inf")

    # -- sampling ----------------------------------------------------------

    def observe(
        self,
        flow: FiveTuple,
        now: float,
        is_retransmission: bool = False,
        is_fin_or_rst: bool = False,
        seq: Optional[int] = None,
        malicious_ground_truth: bool = False,
    ) -> Optional[int]:
        """Process one packet; returns the cell index if monitored.

        Retransmissions can be flagged either explicitly
        (``is_retransmission``, trace-driven mode) or inferred from a
        repeated ``seq`` (packet-driven mode, what the real P4 pipeline
        does).
        """
        if now - self._last_reset >= self.reset_interval:
            self.maybe_reset(now)
        cache = self._index_cache
        if self._index_cache_seed != self.hash_seed:
            cache.clear()
            self._index_cache_seed = self.hash_seed
        index = cache.get(flow)
        if index is None:
            index = self._index_miss(flow)
        cell = self.cells[index]
        occupant = cell.flow

        if occupant is not None and occupant != flow:
            if now - cell.last_activity >= self.eviction_timeout:
                self.stats.evictions_inactive += 1
                if obs.enabled():
                    obs.emit(
                        "blink.eviction",
                        t_sim=now,
                        cell=index,
                        reason="inactive",
                        malicious=cell.malicious_ground_truth,
                    )
                self._record_occupancy(cell, cell.last_activity + self.eviction_timeout)
                cell.clear()
            else:
                self.stats.collisions_ignored += 1
                return None

        freshly_installed = False
        if cell.flow is None:
            cell.flow = flow
            cell.installed_at = now
            cell.last_seq = None
            cell.last_retransmission = None
            cell.malicious_ground_truth = malicious_ground_truth
            self.stats.installs += 1
            freshly_installed = True

        previous_activity = cell.last_activity
        cell.last_activity = now

        duplicate_seq = seq is not None and cell.last_seq is not None and seq == cell.last_seq
        if is_retransmission or duplicate_seq:
            cell.last_retransmission = now
            self._retx_log.append((now, index))
            self._retx_latest[index] = now
            if now >= self._retx_now:
                self._prune_retransmissions(now)
            # The gap between a retransmission and the flow's previous
            # packet is what the RTO-plausibility defense inspects:
            # genuine timeouts respect the RTO floor (~1 s), fakes
            # usually do not.  A flow's first packet has no reference
            # point, so no gap is recorded for it.
            gap = now - previous_activity
            if not freshly_installed and gap > 0:
                self.stats.retransmission_gaps.append(gap)
                if len(self.stats.retransmission_gaps) > self.MAX_GAP_SAMPLES:
                    del self.stats.retransmission_gaps[0]
        if seq is not None:
            cell.last_seq = seq

        if is_fin_or_rst:
            self.stats.evictions_fin += 1
            if obs.enabled():
                obs.emit(
                    "blink.eviction",
                    t_sim=now,
                    cell=index,
                    reason="fin",
                    malicious=cell.malicious_ground_truth,
                )
            self._record_occupancy(cell, now)
            cell.clear()
            return None
        return index

    def _index_miss(self, flow: FiveTuple) -> int:
        """Compute and memoise ``flow``'s cell index (cache seed in sync)."""
        cache = self._index_cache
        if len(cache) >= 65536:
            cache.clear()
        index = cache[flow] = flow.cell_index(len(self.cells), seed=self.hash_seed)
        return index

    def _record_occupancy(self, cell: Cell, evicted_at: float) -> None:
        if cell.occupied and not cell.malicious_ground_truth:
            self.stats.legit_occupancy_durations.append(
                max(0.0, evicted_at - cell.installed_at)
            )

    def maybe_reset(self, now: float) -> bool:
        """Reset the whole sample if the reset interval elapsed."""
        if now - self._last_reset >= self.reset_interval:
            occupied = sum(1 for cell in self.cells if cell.occupied)
            for cell in self.cells:
                cell.clear()
            self._last_reset += self.reset_interval * int(
                (now - self._last_reset) / self.reset_interval
            )
            self.stats.resets += 1
            # Every cell is clear, so no logged retransmission can count.
            self._retx_log.clear()
            self._retx_latest.clear()
            if self.reseed_on_reset:
                self.hash_seed += 1
            if obs.enabled():
                obs.emit(
                    "blink.sample_reset", t_sim=now, evicted=occupied, seed=self.hash_seed
                )
            return True
        return False

    # -- queries -------------------------------------------------------------

    def occupied_count(self, now: Optional[float] = None) -> int:
        """Cells currently monitoring a live flow.

        With ``now`` given, flows past the eviction timeout are treated
        as free (lazy eviction means stale cells linger until touched).
        """
        count = 0
        for cell in self.cells:
            if not cell.occupied:
                continue
            if now is not None and now - cell.last_activity >= self.eviction_timeout:
                continue
            count += 1
        return count

    def malicious_count(self, now: Optional[float] = None) -> int:
        """Ground-truth number of attacker flows currently monitored."""
        count = 0
        for cell in self.cells:
            if not cell.occupied or not cell.malicious_ground_truth:
                continue
            if now is not None and now - cell.last_activity >= self.eviction_timeout:
                continue
            count += 1
        return count

    def retransmitting_count(self, now: float, window: float) -> int:
        """Monitored flows with a retransmission within ``window`` s."""
        # An empty log that still covers this query: nothing to count.
        if not self._retx_log and self._log_covers(now, window):
            return 0
        count = 0
        timeout = self.eviction_timeout
        for cell in self.cells:
            if cell.flow is None:
                continue
            last_retransmission = cell.last_retransmission
            if last_retransmission is None:
                continue
            if now - cell.last_activity >= timeout:
                continue
            if now - last_retransmission <= window:
                count += 1
        return count

    def retransmitting_bound(self, now: float, window: float) -> int:
        """Upper bound on :meth:`retransmitting_count` in O(1) amortised.

        Counts the distinct cells with a logged retransmission inside
        the window, ignoring occupancy and inactivity, so it never
        undercounts.  Entries that left the window are pruned; a query
        earlier than a previous one, or with a wider window, may need
        pruned entries and falls back to the trivial bound, the number
        of cells.
        """
        # Runs once per packet: _log_covers and the prune's no-op case
        # are inlined.
        if not (now >= self._retx_now and window <= self._retx_window):
            return len(self.cells)
        self._retx_window = window
        log = self._retx_log
        if log and now - log[0][0] > window:
            self._prune_retransmissions(now)
        else:
            self._retx_now = now
        return len(self._retx_latest)

    def _log_covers(self, now: float, window: float) -> bool:
        """Whether pruning has kept every entry a ``(now, window)`` query needs."""
        return now >= self._retx_now and window <= self._retx_window

    def _prune_retransmissions(self, now: float) -> None:
        # Same comparison as retransmitting_count(), so float rounding
        # cannot prune an entry the exact count would still include.
        self._retx_now = now
        window = self._retx_window
        log = self._retx_log
        latest = self._retx_latest
        while log and now - log[0][0] > window:
            time, index = log.popleft()
            if latest.get(index) == time:
                del latest[index]

    def monitored_flows(self) -> Dict[int, FiveTuple]:
        return {
            i: cell.flow for i, cell in enumerate(self.cells) if cell.flow is not None
        }
