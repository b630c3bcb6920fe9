"""The arrival sweep lowered to plain data, and its source blocks.

Every route to the all-pairs arrival matrix — the serial
:meth:`~repro.core.engine.TemporalEngine.arrival_matrix`, its
incremental cone re-sweeps, and the distributed cluster workers
(:mod:`repro.service.cluster`) — first lowers the sweep to a
:class:`SweepPlan` and then runs :func:`~repro.core.sweep_kernel.sweep_block`
over it.

A plan *is* the stream the kernel scans: four aligned, read-only int64
arrays ``src, tgt, dep, arr`` — one entry per contact, already sorted
by ``(dep, arr, tgt)`` — plus the header ``n``, ``start_time``,
``horizon`` and ``max_wait``.  That is the departure-ordered
edge stream of Wu et al., "Path Problems in Temporal Graphs"
(PVLDB 7(9), 2014); nothing between the compiled index and the kernel
converts it again.

A plan is also what a process that does not hold the graph needs.
Presences and latencies are arbitrary Python callables (black-box
:class:`~repro.core.presence.FunctionPresence`, lambda latencies) that
may not pickle — and even when they do, re-evaluating a black-box
predicate elsewhere would break the engine's at-most-once-per-(edge,
date) contract.  So :func:`build_sweep_plan` resolves black-box edges
through the engine's long-lived
:class:`~repro.core.index.LazyContactCache` and precomputes the arrival
date of every contact (swallowing callable latencies).

The sweep partitions by *source blocks*: the arrival dates a sweep
records for source ``i`` never depend on which other sources share the
pass, so blocks from :func:`partition_sources`, swept independently,
stack into the full matrix element for element.  The cluster ships
those blocks to remote workers; ``tests/properties/test_property_kernel``
proves the stacking exact under all three waiting semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Hashable, NamedTuple

import numpy as np

from repro.core.semantics import WaitingSemantics

__all__ = [
    "SweepPlan",
    "build_sweep_plan",
    "in_kernel_order",
    "partition_sources",
]

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine

#: Lowered plans kept per engine (FIFO eviction); a plan is O(contacts)
#: int64 arrays, so a small handful bounds memory while still covering
#: the query mix between two mutations.
PLAN_MEMO_SIZE: int = 8

_STREAM = ("src", "tgt", "dep", "arr")


def in_kernel_order(dep: np.ndarray, arr: np.ndarray, tgt: np.ndarray) -> bool:
    """Whether the aligned arrays are sorted by ``(dep, arr, tgt)``."""
    d0, d1 = dep[:-1], dep[1:]
    a0, a1 = arr[:-1], arr[1:]
    later = (a0 < a1) | ((a0 == a1) & (tgt[:-1] <= tgt[1:]))
    return bool(np.all((d0 < d1) | ((d0 == d1) & later)))


class Schedule(NamedTuple):
    """The kernel's source-independent view of a plan's stream.

    ``group_starts`` opens one merge group per distinct ``(dep, arr,
    tgt)``; ``dates`` is the date axis (every departure, every arrival,
    and the start); date ``dates[i]``'s contacts are
    ``date_lo[i]:date_hi[i]`` of the stream and its groups are
    ``group_starts[group_lo[i]:group_hi[i]]``.
    """

    group_starts: np.ndarray
    dates: np.ndarray
    date_lo: np.ndarray
    date_hi: np.ndarray
    group_lo: np.ndarray
    group_hi: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """One sweep lowered to plain data: ints and read-only int64 arrays.

    Contact ``k`` leaves node ``src[k]`` at date ``dep[k]`` and reaches
    node ``tgt[k]`` at date ``arr[k]`` (callable latencies already
    applied, so nothing callable crosses a process boundary).  The
    constructor is the one place a plan's invariants are made: it
    checks them (``ValueError`` otherwise), sorts the stream by
    ``(dep, arr, tgt)`` unless it already is, and freezes the arrays —
    every sweep, cone re-sweep and cluster job shares one plan, so
    nothing may write to it.  The invariants: aligned 1-d arrays,
    ``0 <= src, tgt < n``, ``start_time <= dep < horizon`` and
    ``arr > dep`` (the kernel relies on strictly positive latencies).
    ``max_wait`` is the waiting bound (None for unbounded, 0 for
    no-wait).
    """

    n: int
    src: np.ndarray
    tgt: np.ndarray
    dep: np.ndarray
    arr: np.ndarray
    start_time: int
    horizon: int
    max_wait: int | None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"node count must be >= 0, got {self.n}")
        if self.max_wait is not None and self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0 or None, got {self.max_wait}")
        stream = [np.array(getattr(self, name), dtype=np.int64) for name in _STREAM]
        if any(a.ndim != 1 or len(a) != len(stream[0]) for a in stream):
            raise ValueError("src, tgt, dep and arr must be aligned 1-d arrays")
        src, tgt, dep, arr = stream
        if len(src):
            if min(src.min(), tgt.min()) < 0 or max(src.max(), tgt.max()) >= self.n:
                raise ValueError("contact endpoints fall outside the node range")
            if dep.min() < self.start_time or dep.max() >= self.horizon:
                raise ValueError("departures fall outside [start_time, horizon)")
            if np.any(arr <= dep):
                raise ValueError("every arrival must be later than its departure")
        if not in_kernel_order(dep, arr, tgt):
            order = np.lexsort((tgt, arr, dep))
            src, tgt, dep, arr = src[order], tgt[order], dep[order], arr[order]
        for name, array in zip(_STREAM, (src, tgt, dep, arr)):
            # Store a view of a read-only base: a view cannot be made
            # writeable again while its base is not.
            array.flags.writeable = False
            object.__setattr__(self, name, array.view())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SweepPlan):
            return NotImplemented
        return (self.n, self.start_time, self.horizon, self.max_wait) == (
            other.n, other.start_time, other.horizon, other.max_wait
        ) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _STREAM
        )

    __hash__ = None  # type: ignore[assignment]  (value equality over arrays)

    def __reduce__(self):
        # Unpickling goes back through the constructor, so a copy is
        # checked and read-only like the original.
        return SweepPlan, (
            self.n, self.src, self.tgt, self.dep, self.arr,
            self.start_time, self.horizon, self.max_wait,
        )

    @cached_property
    def schedule(self) -> Schedule:
        """The kernel's date axis and merge groups, computed once per plan."""
        dep, arr, tgt = self.dep, self.arr, self.tgt
        change = np.ones(len(dep), dtype=bool)
        change[1:] = (
            (dep[1:] != dep[:-1]) | (arr[1:] != arr[:-1]) | (tgt[1:] != tgt[:-1])
        )
        group_starts = np.flatnonzero(change)
        dates = np.unique(
            np.concatenate((dep, arr, np.asarray([self.start_time], dtype=np.int64)))
        )
        date_lo = np.searchsorted(dep, dates, side="left")
        date_hi = np.searchsorted(dep, dates, side="right")
        return Schedule(
            group_starts,
            dates,
            date_lo,
            date_hi,
            np.searchsorted(group_starts, date_lo, side="left"),
            np.searchsorted(group_starts, date_hi, side="left"),
        )


def build_sweep_plan(
    engine: "TemporalEngine",
    start_time: int,
    semantics: WaitingSemantics,
    horizon: int,
) -> tuple[list[Hashable], SweepPlan]:
    """Lower one sweep over ``engine``'s graph into a :class:`SweepPlan`.

    Runs where the graph lives: the stream is sliced out of the
    compiled index's flat contact array in bulk, black-box presences
    are resolved through the engine's
    :class:`~repro.core.index.LazyContactCache` (so arbitrary
    predicates never need to pickle and each still fires at most once
    per (edge, date) across the engine's lifetime), and arrivals are
    ``dep + latency`` in one vectorized add — a Python call is made
    only for contacts on callable-latency edges.  Returns the node
    ordering alongside (the matrix axes).

    Plans are memoized on the engine by ``(version, start, horizon,
    max_wait)`` — a plan is immutable, so repeated sweeps of the same
    query (the incremental path re-sweeping a cone right after the full
    sweep that seeded it, cluster retries, warm queries) share one plan
    and its kernel schedule.
    """
    key = (engine.graph.version, start_time, horizon, semantics.max_wait)
    memo = engine._plan_memo
    hit = memo.get(key)
    if hit is not None:
        nodes, plan = hit
        return list(nodes), plan
    index = engine.index_for(min(start_time, horizon), horizon)
    edges, dep = index.departure_stream(start_time, horizon)
    latency = index.const_latency[edges]
    arr = dep + latency
    for k in np.flatnonzero(latency < 0).tolist():
        arr[k] = index.arrival(int(edges[k]), int(dep[k]))
    plan = SweepPlan(
        n=len(index.nodes),
        src=index.source_idx[edges],
        tgt=index.target_idx[edges],
        dep=dep,
        arr=arr,
        start_time=start_time,
        horizon=horizon,
        max_wait=semantics.max_wait,
    )
    if len(memo) >= PLAN_MEMO_SIZE:
        memo.pop(next(iter(memo)))
    memo[key] = (tuple(index.nodes), plan)
    return list(index.nodes), plan


def partition_sources(
    n: int, workers: int, oversplit: int = 1
) -> list[tuple[int, ...]]:
    """Split sources ``0..n-1`` into at most ``workers * oversplit``
    contiguous, balanced, non-empty blocks (sizes differ by at most
    one).

    ``oversplit > 1`` produces more blocks than workers on purpose: the
    cluster executor feeds them through a shared queue, so a finished
    worker picks up blocks a straggler would otherwise still own — work
    stealing by construction, with no rebalancing protocol.
    """
    count = max(1, min(workers * max(1, oversplit), n))
    base, extra = divmod(n, count)
    blocks: list[tuple[int, ...]] = []
    lo = 0
    for b in range(count):
        size = base + (1 if b < extra else 0)
        if size:
            blocks.append(tuple(range(lo, lo + size)))
        lo += size
    return blocks
