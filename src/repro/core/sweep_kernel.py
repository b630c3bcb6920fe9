"""The sweep kernel behind the all-pairs arrival matrix.

Every consumer of the batched arrival sweep — the serial
:meth:`~repro.core.engine.TemporalEngine.arrival_matrix`, the
distributed cluster workers (:mod:`repro.service.cluster`), and the
service's shared cached sweep — lowers the sweep to one
:class:`~repro.core.parallel.SweepPlan` and then runs
:func:`sweep_block` over it, for all sources or one block of them.

The kernel is the single departure-ordered contact scan (the
edge-stream earliest-arrival scheme of Wu et al., "Path Problems in
Temporal Graphs", PVLDB 2014), run for a whole source block at once.
It reads the plan as it is: four read-only int64 arrays ``src, tgt,
dep, arr`` already sorted by ``(dep, arr, tgt)``, plus the plan's
:attr:`~repro.core.parallel.SweepPlan.schedule` (date axis and merge
groups), computed once per plan object and held by it.
The frontier is a ``(n, ceil(b/64))`` uint64 numpy matrix (``b`` =
source-block width): bit ``i`` of node ``j``'s row says source ``i``'s
journeys have mass pending at ``j``.  Pending states are bucketed *by
date* — arrivals are strictly later than departures (latencies are
positive), so every mask pending at date ``t`` is final before any
date-``t`` state is expanded, and a whole date processes as vectorized
row ops: ``new = mask & ~node_mask``, ``node_mask |= new``, arrival
stamping by ``np.unpackbits`` + ``np.nonzero`` on the newly-set bits,
and successor pushes grouped per ``(arrival date, target)`` so frontier
merges are one ``np.bitwise_or.reduceat`` and a fancy-indexed ``|=``.

``tests/properties/test_property_kernel.py`` proves the kernel bit-equal
to a per-state heap sweep over Python-int masks (the block-level oracle
kept under ``tests/``) and to the interpretive journey search, under all
three waiting semantics, black-box presences included.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.parallel import SweepPlan

#: Sentinel arrival date for unreachable pairs — larger than any real
#: date, so ``matrix <= t`` comparisons need no special casing.
#: (Re-exported by :mod:`repro.core.engine`, its historical home.)
UNREACHED: int = np.iinfo(np.int64).max


# -- incremental maintenance helpers ------------------------------------------


def affected_rows(previous: np.ndarray, tails: Sequence[int]) -> np.ndarray:
    """Source rows of ``previous`` whose answers a dirty edge can change.

    ``tails`` are the node indices at which some edge's schedule changed
    (its tail — where journeys board it).  Any journey whose arrival
    date changes, in either direction, crosses a dirty edge; the
    *first* dirty edge on that journey is reached by an all-clean
    prefix, which was equally valid before the mutation — so the old
    matrix already records a finite arrival at that edge's tail.  Rows
    with ``previous[i, tail] == UNREACHED`` for every dirty tail are
    therefore exact as they stand, under every waiting semantics (the
    argument never inspects departure eligibility, only prefix
    validity).  Conservative: a returned row may turn out unchanged.
    """
    if len(tails) == 0:
        return np.empty(0, dtype=np.int64)
    tail_idx = np.asarray(tuple(tails), dtype=np.int64)
    return np.flatnonzero(
        (previous[:, tail_idx] != UNREACHED).any(axis=1)
    ).astype(np.int64)


def merge_rows(
    previous: np.ndarray, rows: Sequence[int], block: np.ndarray
) -> np.ndarray:
    """A copy of ``previous`` with ``rows`` replaced by ``block``'s rows.

    ``block`` is the output of :func:`sweep_block` over exactly
    ``rows`` (in order); the merge never mutates ``previous`` — cached
    matrices stay valid for their own version.
    """
    merged = previous.copy()
    if len(rows):
        merged[np.asarray(tuple(rows), dtype=np.int64)] = block
    return merged


# -- the bitset kernel ---------------------------------------------------------


def sweep_block(plan: "SweepPlan", sources: Sequence[int]) -> np.ndarray:
    """The arrival sweep of one source block (see the module docstring).

    Row ``r`` of the returned ``(len(sources), plan.n)`` int64 matrix is
    the earliest-arrival row of source ``sources[r]`` — a source's
    arrival dates never depend on which other sources share the pass, so
    stacked block sweeps equal the full sweep element for element.

    The plan's stream arrives sorted by (departure, arrival, target);
    the sweep walks the merged date axis (contact departures, contact
    arrivals, and the seed date) in increasing order.  At each date the
    pending bucket — a full-width ``(n, words)`` uint64 matrix — is
    applied (``new = mask & ~node_mask`` stamps first arrivals), and the
    date's contact slice departs carrying whichever source rows the
    semantics make eligible:

    * unbounded waiting — ``node_mask`` rows (every bit that has ever
      arrived at the tail; earlier arrivals' departure windows subsume
      later ones, so this is exact);
    * no-wait — the current bucket's rows (only bits arriving exactly at
      the departure date may continue);
    * bounded ``wait[w]`` — the OR of the buckets retained for the
      recency window ``[t - w, t]`` (an arrival *event*, re-arrivals of
      known bits included, keeps a bit eligible for ``w`` more dates —
      exactly the per-state heap sweep's full-mask push discipline).

    Each contact is therefore touched exactly once per sweep, and all
    pushes landing on the same (arrival date, target) merge with one
    ``np.bitwise_or.reduceat`` over pre-sorted group boundaries.
    """
    sources = tuple(sources)
    b = len(sources)
    n = plan.n
    arrival = np.full((b, n), UNREACHED, dtype=np.int64)
    if b == 0 or n == 0:
        return arrival
    words = (b + 63) >> 6
    start = plan.start_time
    horizon = plan.horizon
    max_wait = plan.max_wait
    # A wait bound no processed departure date can exhaust is unbounded
    # waiting in disguise (latest is pinned at the horizon either way).
    wait_like = max_wait is None or start + max_wait + 1 >= horizon

    # The plan's stream is already in kernel order; its date axis and
    # merge groups are computed once per plan object and held by it.
    arr_s, tgt_s, src_s = plan.arr, plan.tgt, plan.src
    group_starts_all, dates, date_lo, date_hi, group_lo, group_hi = plan.schedule

    #: bit i of node_mask[j] — source i's earliest arrival at j is stamped.
    node_mask = np.zeros((n, words), dtype=np.uint64)

    # Seed: one bucket at the start date carrying every source's own bit
    # (duplicate source nodes simply stack their bits in one row).
    seed = np.zeros((n, words), dtype=np.uint64)
    rows = np.arange(b, dtype=np.uint64)
    np.bitwise_or.at(
        seed,
        (np.asarray(sources, dtype=np.int64), (rows >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (rows & np.uint64(63)),
    )
    buckets: dict[int, np.ndarray] = {start: seed}
    #: bounded-wait recency window: the (date, bucket) pairs with
    #: ``date in [t - max_wait, t]``, oldest first.
    retained: deque[tuple[int, np.ndarray]] = deque()

    for di, t in enumerate(dates.tolist()):
        bucket = buckets.pop(t, None)
        if bucket is not None:
            active = np.flatnonzero(bucket.any(axis=1))
            masks = bucket[active]
            known = node_mask[active]
            new = masks & ~known
            if new.any():
                node_mask[active] = known | new
                # Newly-set bits, little-endian throughout, so unpacked
                # column s is exactly source row s of the block.
                bits = np.unpackbits(
                    new.astype("<u8", copy=False).view(np.uint8),
                    axis=1,
                    bitorder="little",
                )
                hit_rows, hit_sources = np.nonzero(bits[:, :b])
                arrival[hit_sources, active[hit_rows]] = t
        if t >= horizon:
            continue
        lo = int(date_lo[di])
        hi = int(date_hi[di])
        if not wait_like and max_wait > 0:
            if bucket is not None:
                retained.append((t, bucket))
            while retained and retained[0][0] < t - max_wait:
                retained.popleft()
        if lo == hi:
            continue

        # Which source rows may depart on this date's contacts.
        srcs = src_s[lo:hi]
        if wait_like:
            eligible = node_mask[srcs]
        elif max_wait == 0:
            if bucket is None:
                continue
            eligible = bucket[srcs]
        else:
            if not retained:
                continue
            it = iter(retained)
            eligible = next(it)[1][srcs].copy()
            for _d, held in it:
                eligible |= held[srcs]

        # Merge pushes sharing an (arrival date, target) with ONE
        # or-reduce over the pre-sorted groups, drop the empty ones, and
        # scatter each arrival date's rows into its bucket.
        gs = group_starts_all[group_lo[di] : group_hi[di]]
        merged = np.bitwise_or.reduceat(eligible, gs - lo, axis=0)
        keep = np.flatnonzero(merged.any(axis=1))
        if keep.size == 0:
            continue
        merged = merged[keep]
        group_arr = arr_s[gs[keep]]
        group_tgt = tgt_s[gs[keep]]
        date_bounds = np.append(
            np.flatnonzero(np.r_[True, group_arr[1:] != group_arr[:-1]]),
            len(group_arr),
        )
        for a, z in zip(date_bounds[:-1], date_bounds[1:]):
            date = int(group_arr[a])
            bucket_d = buckets.get(date)
            if bucket_d is None:
                bucket_d = np.zeros((n, words), dtype=np.uint64)
                buckets[date] = bucket_d
            bucket_d[group_tgt[a:z]] |= merged[a:z]

    return arrival
