"""The arrival sweep lowered to plain data, and its source blocks.

Every route to the all-pairs arrival matrix — the serial
:meth:`~repro.core.engine.TemporalEngine.arrival_matrix`, its
incremental cone re-sweeps, and the distributed cluster workers
(:mod:`repro.service.cluster`) — first lowers the sweep to a
:class:`SweepPlan` and then runs :func:`~repro.core.sweep_kernel.sweep_block`
over it.

A plan is what a process that does not hold the graph needs.
Presences and latencies are arbitrary Python callables (black-box
:class:`~repro.core.presence.FunctionPresence`, lambda latencies) that
may not pickle — and even when they do, re-evaluating a black-box
predicate elsewhere would break the engine's at-most-once-per-(edge,
date) contract.  So :func:`build_sweep_plan` resolves black-box edges
through the engine's long-lived
:class:`~repro.core.index.LazyContactCache` and precomputes the arrival
date of every contact (swallowing callable latencies), leaving per-edge
contact dates plus the CSR adjacency as tuples of ints.

The sweep partitions by *source blocks*: the arrival dates a sweep
records for source ``i`` never depend on which other sources share the
pass, so blocks from :func:`partition_sources`, swept independently,
stack into the full matrix element for element.  The cluster ships
those blocks to remote workers; ``tests/properties/test_property_kernel``
proves the stacking exact under all three waiting semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.core.semantics import WaitingSemantics

__all__ = ["SweepPlan", "build_sweep_plan", "partition_sources"]

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.engine import TemporalEngine

#: Lowered plans kept per engine (FIFO eviction); plans are O(edges x
#: horizon) tuples, so a small handful bounds memory while still
#: covering the query mix between two mutations.
PLAN_MEMO_SIZE: int = 8


@dataclass(frozen=True)
class SweepPlan:
    """One sweep lowered to plain data (only ints and tuples — picklable).

    ``contacts[e]`` holds edge ``e``'s sorted departure dates within
    ``[start_time, horizon)`` and ``arrivals[e]`` the aligned arrival
    dates (``dep + zeta(e, dep)`` precomputed, so callable latencies
    never cross a process boundary).  ``out_edges[j]`` lists the
    out-edge indices of node ``j`` in insertion order and
    ``target_idx[e]`` the head node of edge ``e`` — the same CSR view
    the compiled index uses.  ``max_wait`` is the waiting bound (None
    for unbounded, 0 for no-wait).
    """

    n: int
    out_edges: tuple[tuple[int, ...], ...]
    target_idx: tuple[int, ...]
    contacts: tuple[tuple[int, ...], ...]
    arrivals: tuple[tuple[int, ...], ...]
    start_time: int
    horizon: int
    max_wait: int | None


def build_sweep_plan(
    engine: "TemporalEngine",
    start_time: int,
    semantics: WaitingSemantics,
    horizon: int,
) -> tuple[list[Hashable], SweepPlan]:
    """Lower one sweep over ``engine``'s graph into a :class:`SweepPlan`.

    Runs where the graph lives: black-box presences are resolved here,
    through the engine's :class:`~repro.core.index.LazyContactCache`, so
    arbitrary predicates never need to pickle and each still fires at
    most once per (edge, date) across the engine's lifetime.  Returns
    the node ordering alongside (the matrix axes).

    Plans are memoized on the engine by ``(version, start, horizon,
    max_wait)`` — a plan is immutable plain data and the lowering loop
    is O(edges x horizon), so repeated sweeps of the same query (the
    incremental path re-sweeping a cone right after the full sweep that
    seeded it, cluster retries) share one lowering.
    """
    key = (engine.graph.version, start_time, horizon, semantics.max_wait)
    memo = engine._plan_memo
    hit = memo.get(key)
    if hit is not None:
        nodes, plan = hit
        return list(nodes), plan
    index = engine.index_for(min(start_time, horizon), horizon)
    contacts: list[tuple[int, ...]] = []
    arrivals: list[tuple[int, ...]] = []
    for ei in range(len(index.edge_list)):
        departures = index.departures(ei, start_time, horizon)
        contacts.append(tuple(departures))
        arrivals.append(tuple(index.arrival(ei, dep) for dep in departures))
    plan = SweepPlan(
        n=len(index.nodes),
        out_edges=tuple(
            tuple(index.out_edge_indices(j)) for j in range(len(index.nodes))
        ),
        target_idx=tuple(index.target_idx),
        contacts=tuple(contacts),
        arrivals=tuple(arrivals),
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
