"""The compiled contact-sequence index (``CompiledTVG``).

Interpretive journey search asks a Python :class:`PresenceFunction` one
date at a time — a per-edge, per-date function call on the hottest path
of the whole system.  :class:`CompiledTVG` lowers every *structured*
presence into sorted contact dates over a bounded window, held as ONE
flat ``np.int64`` array (``contact_dates``) with per-edge offsets
(``contact_ptr``: edge ``i``'s dates are
``contact_dates[contact_ptr[i]:contact_ptr[i + 1]]``), plus CSR-style
per-node adjacency, so the queries journey search needs become array
operations:

* *next presence at or after t* — one ``searchsorted`` (binary search);
* *all departures in [a, b)* — one slice of an edge's sorted dates;
* *every contact in [a, b)* — one mask over the flat array
  (:meth:`CompiledTVG.departure_stream`, what the arrival sweep's plan
  is sliced from).

Lowering rules
--------------

A presence is *structured* — exactly lowerable, no per-date calls — when
it is built from ``always``/``never``, :class:`IntervalPresence`,
:class:`PeriodicPresence`, and their ``shifted``/``dilated``/
``union``/``intersect`` combinators.  :func:`lower_presences` lowers
them in bulk, not edge by edge:

* periodic presences are grouped by ``(period, pattern)`` and each
  distinct pattern is lowered once over the window, then copied into
  every edge of its group;
* interval, ``always`` and ``never`` presences become ranges of dates,
  expanded for all edges at once by one vectorized ranges-expansion;
* only the combinators keep the per-edge path: one exact
  ``presence.support`` call over the window.

Every intermediate is the size of the contacts it produces, so memory
stays O(contacts), never O(edges x window).

Black-box fallback
------------------

:class:`FunctionPresence` (and any unknown subclass) admits no exact
lowering — the paper's Table 1 schedules are arbitrary computable
predicates.  Those edges are *not* compiled: the index records them as
black-box (``contacts[i] is None``) and answers their queries through
the original callable with bounded scans, byte-for-byte the
interpretive semantics.  A compiled and an interpretive run therefore
always agree; compilation only accelerates the edges it can prove out.

Lazy black-box lowering
-----------------------

A black-box predicate is arbitrary but *deterministic*, so its answers
can be memoized.  :class:`LazyContactCache` lowers black-box edges
lazily: the first query over a window scans the predicate once and
stores the resulting contact dates as a sorted array; later queries are
answered from the array, and wider queries extend the scanned window by
calling the predicate only on the *new* dates.  The cache outlives index
rebuilds (the :class:`~repro.core.engine.TemporalEngine` owns one and
threads it through every :class:`CompiledTVG` it compiles), so across
repeated analysis queries each predicate is invoked at most once per
(edge, date).  Graph mutation flushes the cache through the same version
counter that invalidates the index.

Invalidation
------------

The index snapshots :attr:`TimeVaryingGraph.version` at build time.
Any structural mutation bumps the counter, and
:class:`~repro.core.engine.TemporalEngine` transparently rebuilds a
stale index before answering (or, for a chain of pure presence swaps,
patches the touched edges in place: :meth:`CompiledTVG.apply_deltas`).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Hashable

import numpy as np

from repro.core.edges import Edge
from repro.core.intervals import Interval
from repro.core.latency import ConstantLatency
from repro.core.presence import (
    IntervalPresence,
    PeriodicPresence,
    PresenceFunction,
    _AlwaysPresence,
    _CombinedPresence,
    _DilatedPresence,
    _NeverPresence,
    _ShiftedPresence,
)
from repro.core.tvg import TimeVaryingGraph

_STRUCTURED_LEAVES = (
    _AlwaysPresence,
    _NeverPresence,
    IntervalPresence,
    PeriodicPresence,
)


def is_structured(presence: PresenceFunction) -> bool:
    """Whether ``presence`` lowers exactly (no per-date callable scans)."""
    if isinstance(presence, _STRUCTURED_LEAVES):
        return True
    if isinstance(presence, (_ShiftedPresence, _DilatedPresence)):
        return is_structured(presence.inner)
    if isinstance(presence, _CombinedPresence):
        return is_structured(presence.left) and is_structured(presence.right)
    return False


class LazyContactCache:
    """Memoized contact arrays for black-box presences of one graph.

    Per edge (keyed by edge key) the cache holds a sorted list of
    disjoint scanned *segments* ``(lo, hi, contacts)`` — the sorted
    ``np.int64`` contact dates found in ``[lo, hi)``.  A query inside
    scanned territory is pure array work; a query reaching outside
    scans only the uncovered gaps it actually touches and merges the
    result with any overlapping or adjacent segments.  Queries far from
    earlier ones therefore start a new segment instead of scanning the
    no-man's-land in between, and across the cache's lifetime each
    predicate is invoked **at most once per (edge, date)** — the lazy
    counterpart of the eager lowering :class:`CompiledTVG` applies to
    structured presences.

    The cache snapshots :attr:`TimeVaryingGraph.version`; when the graph
    mutates it drops exactly the edges whose schedule actually changed —
    the edge is gone, or its presence object is a different one than the
    segments were scanned against — and retains every other edge's
    segments.  Contacts are a pure function of the presence object, so
    an unrelated ``add_edge`` can no longer re-fire every black-box
    predicate on every other edge.
    """

    __slots__ = ("graph", "version", "_segments", "_presences")

    def __init__(self, graph: TimeVaryingGraph) -> None:
        self.graph = graph
        self.version = graph.version
        #: edge key -> sorted disjoint (lo, hi, contact dates) segments.
        self._segments: dict[str, list[tuple[int, int, np.ndarray]]] = {}
        #: edge key -> the presence object the segments were scanned
        #: against (identity is the retention test across mutations).
        self._presences: dict[str, PresenceFunction] = {}

    def _sync(self) -> None:
        """Catch up with graph mutations, keeping untouched edges.

        A cached edge survives iff it still exists and its presence is
        the *same object* the segments were scanned from; a remove +
        re-add under the same key with a new schedule, or a
        ``set_presence``, fails the identity check and drops exactly
        that edge's segments.
        """
        if self.graph.version == self.version:
            return
        for key in list(self._segments):
            if (
                not self.graph.has_edge(key)
                or self.graph.edge(key).presence is not self._presences.get(key)
            ):
                del self._segments[key]
                self._presences.pop(key, None)
        self.version = self.graph.version

    def __len__(self) -> int:
        """Number of edges with at least one scanned segment."""
        return len(self._segments)

    def scanned_window(self, edge: Edge) -> tuple[int, int] | None:
        """The hull ``(lo, hi)`` of the segments scanned for ``edge``.

        Dates inside the hull but between disjoint segments have *not*
        been scanned; None when the edge was never queried.
        """
        self._sync()
        segments = self._segments.get(edge.key)
        if not segments:
            return None
        return segments[0][0], segments[-1][1]

    def contacts(self, edge: Edge, start: int, end: int) -> np.ndarray:
        """Sorted contact dates of ``edge`` in ``[start, end)``.

        The predicate is called only on dates of ``[start, end)`` never
        scanned before.
        """
        self._sync()
        if self._presences.get(edge.key) is not edge.presence:
            # Segments (if any) were scanned from a different schedule
            # than the caller's edge object carries — never mix them.
            self._segments.pop(edge.key, None)
            self._presences[edge.key] = edge.presence
        if end <= start:
            return _EMPTY_CONTACTS
        segments = self._segments.get(edge.key, [])
        before: list[tuple[int, int, np.ndarray]] = []
        absorbed: list[tuple[int, int, np.ndarray]] = []
        after: list[tuple[int, int, np.ndarray]] = []
        for segment in segments:
            lo, hi, _dates = segment
            if hi < start:
                before.append(segment)
            elif lo > end:
                after.append(segment)
            else:  # overlapping or adjacent: merge into the query's span
                absorbed.append(segment)
        merged_lo = min([start] + [lo for lo, _hi, _d in absorbed])
        merged_hi = max([end] + [hi for _lo, hi, _d in absorbed])
        pieces: list[np.ndarray] = []
        cursor = merged_lo
        for lo, hi, dates in absorbed:
            if cursor < lo:
                pieces.append(self._scan(edge, cursor, lo))
            pieces.append(dates)
            cursor = hi
        if cursor < merged_hi:
            pieces.append(self._scan(edge, cursor, merged_hi))
        merged = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        self._segments[edge.key] = before + [(merged_lo, merged_hi, merged)] + after
        left = int(np.searchsorted(merged, start, side="left"))
        right = int(np.searchsorted(merged, end, side="left"))
        return merged[left:right]

    @staticmethod
    def _scan(edge: Edge, start: int, end: int) -> np.ndarray:
        return np.fromiter(
            (t for t in range(start, end) if edge.present_at(t)), dtype=np.int64
        )

    def __repr__(self) -> str:
        segments = sum(len(s) for s in self._segments.values())
        return (
            f"LazyContactCache({len(self)} edges scanned in {segments} "
            f"segments, version={self.version})"
        )


_EMPTY_CONTACTS = np.empty(0, dtype=np.int64)


def _expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    without the Python loop (``lengths`` must be non-negative)."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    if not len(lengths):
        return np.empty(0, dtype=np.int64)
    steps = np.ones(int(lengths.sum()), dtype=np.int64)
    steps[0] = starts[0]
    steps[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(steps)


def _periodic_dates(period: int, pattern: frozenset, window: Interval) -> np.ndarray:
    """The sorted dates of ``window`` whose residue mod ``period`` is in
    ``pattern``."""
    if window.empty or not pattern:
        return np.empty(0, dtype=np.int64)
    cycles = np.arange(
        window.start // period, (window.end - 1) // period + 1, dtype=np.int64
    )
    residues = np.asarray(sorted(pattern), dtype=np.int64)
    dates = (cycles[:, None] * period + residues).ravel()
    return dates[(dates >= window.start) & (dates < window.end)]


def lower_presences(
    presences: Sequence[PresenceFunction], window: Interval
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower ``presences`` over ``window`` in bulk (see the module docstring).

    Returns ``(dates, ptr, blackbox)``: presence ``i``'s sorted contact
    dates are ``dates[ptr[i]:ptr[i + 1]]``, and ``blackbox[i]`` marks a
    presence that admits no exact lowering (its slice is empty).
    """
    count = len(presences)
    counts = np.zeros(count, dtype=np.int64)
    blackbox = np.zeros(count, dtype=bool)
    periodic: dict[tuple[int, frozenset], list[int]] = {}
    range_owner: list[int] = []
    range_lo: list[int] = []
    range_hi: list[int] = []
    #: (member presences, the sorted dates every member shares)
    groups: list[tuple[list[int], np.ndarray]] = []
    for i, presence in enumerate(presences):
        kind = type(presence)
        if kind is PeriodicPresence:
            periodic.setdefault((presence.period, presence.pattern), []).append(i)
        elif kind is IntervalPresence:
            starts, ends = presence.intervals.bounds()
            range_owner.extend([i] * len(starts))
            range_lo.extend(starts)
            range_hi.extend(ends)
        elif kind is _AlwaysPresence:
            range_owner.append(i)
            range_lo.append(window.start)
            range_hi.append(window.end)
        elif kind is _NeverPresence:
            pass
        elif is_structured(presence):
            support = presence.support(window)
            dates = np.fromiter(
                support.times(), dtype=np.int64, count=support.total_length()
            )
            groups.append(([i], dates))
        else:
            blackbox[i] = True
    groups += [
        (members, _periodic_dates(period, pattern, window))
        for (period, pattern), members in periodic.items()
    ]

    # Ranges, clipped to the window.  Presences were visited in order and
    # each one's intervals are sorted and disjoint, so the expanded dates
    # come out grouped by owner in ascending owner order.
    owner = np.asarray(range_owner, dtype=np.int64)
    lo = np.maximum(np.asarray(range_lo, dtype=np.int64), window.start)
    hi = np.minimum(np.asarray(range_hi, dtype=np.int64), window.end)
    lengths = np.maximum(hi - lo, 0)
    np.add.at(counts, owner, lengths)
    for members, dates in groups:
        counts[members] = len(dates)

    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    flat = np.empty(int(ptr[-1]), dtype=np.int64)
    ranged = np.unique(owner[lengths > 0])
    flat[_expand_ranges(ptr[ranged], counts[ranged])] = _expand_ranges(lo, lengths)
    for members, dates in groups:
        flat[ptr[members][:, None] + np.arange(len(dates))] = dates
    return flat, ptr, blackbox


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Read-only views of ``arrays`` (a view of a read-only base cannot
    be made writeable again)."""
    for array in arrays:
        array.flags.writeable = False
    return tuple(array.view() for array in arrays)


class EdgeContacts(Sequence):
    """Per-edge views of one index's flat contact array.

    Item ``i`` is edge ``i``'s sorted, read-only ``np.int64`` contact
    dates (a slice of ``contact_dates``, no copy), or None for a
    black-box edge.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "CompiledTVG") -> None:
        self._index = index

    def __len__(self) -> int:
        return len(self._index.edge_list)

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self._index._edge_dates(j) for j in picked]
        return self._index._edge_dates(picked)


class CompiledTVG:
    """A contact-sequence index of one graph over one time window.

    Every structured edge's present dates within
    ``[window.start, window.end)`` live in the one flat, read-only
    ``contact_dates`` array: edge ``i``'s sorted dates are
    ``contact_dates[contact_ptr[i]:contact_ptr[i + 1]]``, and
    ``blackbox[i]`` marks an edge with no exact lowering (empty slice).
    :attr:`contacts` is the per-edge view (``None`` for black-box
    edges).  ``out_ptr``/``out_edge_idx`` form the CSR adjacency: the
    out-edge indices of node ``j`` (in insertion order, matching
    :meth:`TimeVaryingGraph.out_edges`) are
    ``out_edge_idx[out_ptr[j]:out_ptr[j + 1]]``; ``source_idx`` and
    ``target_idx`` give each edge's tail and head node index.

    ``cache`` optionally supplies a :class:`LazyContactCache`; with one,
    black-box queries are memoized through it instead of re-calling the
    predicate on every scan.
    """

    __slots__ = (
        "graph",
        "version",
        "window",
        "nodes",
        "node_index",
        "edge_list",
        "contact_dates",
        "contact_ptr",
        "blackbox",
        "cache",
        "const_latency",
        "out_ptr",
        "out_edge_idx",
        "source_idx",
        "target_idx",
        "_out_lists",
        "_edge_pos",
    )

    def __init__(
        self,
        graph: TimeVaryingGraph,
        window: Interval,
        cache: LazyContactCache | None = None,
    ) -> None:
        if window.empty:
            window = Interval(window.start, window.start)
        self.graph = graph
        self.version = graph.version
        self.window = window
        self.cache = cache
        self.nodes: tuple[Hashable, ...] = graph.nodes
        node_index = self.node_index = {node: i for i, node in enumerate(self.nodes)}
        edges = self.edge_list = graph.edges
        self._edge_pos: dict[str, int] = {edge.key: i for i, edge in enumerate(edges)}
        self.contact_dates, self.contact_ptr, self.blackbox = _frozen(
            *lower_presences([edge.presence for edge in edges], window)
        )
        count = len(edges)
        #: Latency value when the edge's zeta is constant, else -1 (call it).
        self.const_latency = np.fromiter(
            (
                edge.latency.value if isinstance(edge.latency, ConstantLatency) else -1
                for edge in edges
            ),
            dtype=np.int64,
            count=count,
        )
        self.source_idx = np.fromiter(
            (node_index[edge.source] for edge in edges), dtype=np.int64, count=count
        )
        self.target_idx = np.fromiter(
            (node_index[edge.target] for edge in edges), dtype=np.int64, count=count
        )
        # CSR adjacency: graph.edges and every out_edges(node) share one
        # insertion order, so a stable sort by tail groups it per node.
        self.out_edge_idx = np.argsort(self.source_idx, kind="stable")
        self.out_ptr = np.zeros(len(self.nodes) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.source_idx, minlength=len(self.nodes)),
            out=self.out_ptr[1:],
        )
        # Hot-loop view of the CSR rows: plain tuples iterate faster than
        # numpy slices, so snapshot each row once (derived, never diverges).
        edge_ids = self.out_edge_idx.tolist()
        bounds = self.out_ptr.tolist()
        self._out_lists: tuple[tuple[int, ...], ...] = tuple(
            tuple(edge_ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )

    @property
    def contacts(self) -> EdgeContacts:
        """Edge ``i``'s sorted ``np.int64`` contact dates, or None for a
        black-box edge (read-only views of :attr:`contact_dates`)."""
        return EdgeContacts(self)

    def _edge_dates(self, edge_idx: int) -> np.ndarray | None:
        if self.blackbox[edge_idx]:
            return None
        ptr = self.contact_ptr
        return self.contact_dates[ptr[edge_idx] : ptr[edge_idx + 1]]

    def _blackbox_dates(self, edge_idx: int, start: int, end: int) -> np.ndarray:
        """A black-box edge's contacts in ``[start, end)`` (``start < end``)."""
        edge = self.edge_list[edge_idx]
        if self.cache is None:
            support = edge.presence.support(Interval(start, end))
            return np.fromiter(
                support.times(), dtype=np.int64, count=support.total_length()
            )
        return self.cache.contacts(edge, start, end)

    # -- staleness ------------------------------------------------------------

    @property
    def stale(self) -> bool:
        """Whether the graph mutated after this index was built."""
        return self.graph.version != self.version

    def covers(self, start: int, end: int) -> bool:
        """Whether ``[start, end)`` lies inside the compiled window."""
        return start >= self.window.start and end <= self.window.end

    def apply_deltas(self, deltas) -> bool:
        """Patch the index in place from a complete mutation-delta chain.

        Presence swaps are the only mutation that leaves every compiled
        shape intact — same nodes, same edge set, same adjacency, same
        latencies — so a chain of pure ``"set_presence"`` deltas patches
        as: relower the touched edges over the existing window, splice
        their dates into the flat array, and refresh their
        :attr:`edge_list` entries.  Any other delta kind (or an
        unknowable chain, ``deltas is None``) returns False and the
        caller rebuilds from scratch.  Returns True with :attr:`version`
        caught up on success.
        """
        if deltas is None:
            return False
        touched: dict[str, None] = {}
        for delta in deltas:
            if delta.kind != "set_presence" or delta.edge_key is None:
                return False
            touched[delta.edge_key] = None
        positions = sorted(self._edge_pos.get(key, -1) for key in touched)
        if positions and positions[0] < 0:
            return False
        edges = list(self.edge_list)
        for pos in positions:
            edges[pos] = self.graph.edge(edges[pos].key)
        new_dates, new_ptr, new_blackbox = lower_presences(
            [edges[pos].presence for pos in positions], self.window
        )
        ptr = self.contact_ptr
        counts = np.diff(ptr)
        counts[positions] = np.diff(new_ptr)
        blackbox = self.blackbox.copy()
        blackbox[positions] = new_blackbox
        pieces = []
        cursor = 0
        for j, pos in enumerate(positions):
            pieces.append(self.contact_dates[ptr[cursor] : ptr[pos]])
            pieces.append(new_dates[new_ptr[j] : new_ptr[j + 1]])
            cursor = pos + 1
        pieces.append(self.contact_dates[ptr[cursor] :])
        patched_ptr = np.zeros_like(ptr)
        np.cumsum(counts, out=patched_ptr[1:])
        self.contact_dates, self.contact_ptr, self.blackbox = _frozen(
            np.concatenate(pieces), patched_ptr, blackbox
        )
        self.edge_list = tuple(edges)
        self.version = self.graph.version
        return True

    # -- the kernel queries ----------------------------------------------------

    def out_edge_indices(self, node_idx: int) -> Sequence[int]:
        """Out-edge indices of a node, in insertion order."""
        return self._out_lists[node_idx]

    def next_present(self, edge_idx: int, time: int, limit: int) -> int | None:
        """Earliest contact of edge ``edge_idx`` in ``[time, limit)``."""
        contacts = self._edge_dates(edge_idx)
        if contacts is None:
            edge = self.edge_list[edge_idx]
            if self.cache is None:
                return edge.presence.next_present(time, limit)
            found = self.cache.contacts(edge, time, limit)
            return int(found[0]) if len(found) else None
        pos = int(np.searchsorted(contacts, time, side="left"))
        if pos < len(contacts) and contacts[pos] < limit:
            return int(contacts[pos])
        return None

    def departures(self, edge_idx: int, start: int, end: int) -> list[int]:
        """All contacts of edge ``edge_idx`` in ``[start, end)``, sorted."""
        if end <= start:
            return []
        contacts = self._edge_dates(edge_idx)
        if contacts is None:
            return self._blackbox_dates(edge_idx, start, end).tolist()
        lo = int(np.searchsorted(contacts, start, side="left"))
        hi = int(np.searchsorted(contacts, end, side="left"))
        return contacts[lo:hi].tolist()

    def departure_stream(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """Every contact of every edge in ``[start, end)``, as aligned
        ``(edge index, date)`` int64 arrays in no particular order.

        Compiled edges are sliced out of the flat array by one mask;
        black-box edges are resolved through the cache, so each
        predicate still fires at most once per (edge, date).
        """
        dates = self.contact_dates
        owner = np.repeat(
            np.arange(len(self.edge_list), dtype=np.int64), np.diff(self.contact_ptr)
        )
        keep = (dates >= start) & (dates < end)
        edges, deps = [owner[keep]], [dates[keep]]
        if end > start:
            for ei in np.flatnonzero(self.blackbox).tolist():
                found = self._blackbox_dates(ei, start, end)
                edges.append(np.full(len(found), ei, dtype=np.int64))
                deps.append(found)
        return np.concatenate(edges), np.concatenate(deps)

    def present_at(self, edge_idx: int, time: int) -> bool:
        """Membership test on the compiled contact sequence."""
        contacts = self._edge_dates(edge_idx)
        if contacts is None:
            edge = self.edge_list[edge_idx]
            if self.cache is None:
                return edge.present_at(time)
            return bool(len(self.cache.contacts(edge, time, time + 1)))
        pos = int(np.searchsorted(contacts, time, side="left"))
        return pos < len(contacts) and int(contacts[pos]) == time

    def arrival(self, edge_idx: int, departure: int) -> int:
        """Arrival date of a traversal of ``edge_idx`` started at ``departure``."""
        value = int(self.const_latency[edge_idx])
        if value >= 0:
            return departure + value
        return departure + self.edge_list[edge_idx].latency(departure)

    # -- stats ----------------------------------------------------------------

    @property
    def compiled_edge_count(self) -> int:
        """How many edges lowered exactly (the rest use the fallback)."""
        return len(self.edge_list) - int(self.blackbox.sum())

    def __repr__(self) -> str:
        return (
            f"CompiledTVG(|V|={len(self.nodes)}, |E|={len(self.edge_list)}, "
            f"compiled={self.compiled_edge_count}, window=[{self.window.start}, "
            f"{self.window.end}), version={self.version})"
        )
