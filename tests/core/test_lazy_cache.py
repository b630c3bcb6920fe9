"""Tests for the lazy black-box lowering cache.

The :class:`LazyContactCache` must (a) answer exactly what the predicate
would, (b) grow its scanned windows incrementally — re-calling the
predicate only on never-seen dates, (c) drop exactly the edges whose
schedule a mutation actually changed (and nothing else), and (d)
guarantee at most one predicate call per (edge, date) across arbitrary
repeated analysis queries through one engine.
"""

import pytest

from repro.analysis.classes import classify
from repro.analysis.evolution import reachability_growth, value_of_waiting
from repro.analysis.reachability import reachability_matrix, semantics_gap_matrix
from repro.analysis.spanners import foremost_broadcast_tree
from repro.core.engine import TemporalEngine
from repro.core.index import LazyContactCache
from repro.core.presence import function_presence, periodic_presence
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.time_domain import Lifetime
from repro.core.traversal import earliest_arrivals, reachable_states
from repro.core.tvg import TimeVaryingGraph


class CountingPredicate:
    """A black-box schedule that records every date it is asked about."""

    def __init__(self, period=3, residue=1):
        self.period = period
        self.residue = residue
        self.calls: list[int] = []

    def __call__(self, t: int) -> bool:
        self.calls.append(t)
        return t % self.period == self.residue

    def max_calls_per_date(self) -> int:
        return max(self.calls.count(t) for t in set(self.calls)) if self.calls else 0


def blackbox_graph(predicate, horizon=12, second=None):
    """Two black-box edges (each with its OWN predicate — the memoization
    guarantee is per (edge, date)) plus one structured edge."""
    g = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name="blackbox")
    g.add_edge("a", "b", presence=function_presence(predicate, "counted"), key="ab")
    g.add_edge("b", "c", presence=periodic_presence([0, 2], 4), key="bc")
    g.add_edge(
        "c",
        "a",
        presence=function_presence(second or CountingPredicate(4, 2), "counted2"),
        key="ca",
    )
    return g


class TestCacheQueries:
    def test_contacts_match_predicate_truth(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        assert cache.contacts(edge, 0, 12).tolist() == [1, 4, 7, 10]
        assert cache.contacts(edge, 3, 8).tolist() == [4, 7]
        assert cache.contacts(edge, 5, 5).tolist() == []

    def test_repeat_query_calls_predicate_once(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        cache.contacts(edge, 0, 12)
        calls = len(predicate.calls)
        for _ in range(5):
            cache.contacts(edge, 0, 12)
            cache.contacts(edge, 2, 9)
        assert len(predicate.calls) == calls  # not one extra call

    def test_window_growth_scans_only_new_dates(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate, horizon=40)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        cache.contacts(edge, 10, 20)
        assert cache.scanned_window(edge) == (10, 20)
        assert sorted(predicate.calls) == list(range(10, 20))
        predicate.calls.clear()
        # Growing right: only [20, 30) is scanned.
        assert cache.contacts(edge, 15, 30).tolist() == [16, 19, 22, 25, 28]
        assert sorted(predicate.calls) == list(range(20, 30))
        predicate.calls.clear()
        # Growing left: only [0, 10) is scanned.
        assert cache.contacts(edge, 0, 25).tolist() == [1, 4, 7, 10, 13, 16, 19, 22]
        assert sorted(predicate.calls) == list(range(0, 10))
        assert cache.scanned_window(edge) == (0, 30)
        assert predicate.max_calls_per_date() == 1

    def test_disjoint_windows_do_not_scan_the_gap(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate, horizon=10_000)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        cache.contacts(edge, 0, 10)
        predicate.calls.clear()
        # A query far away starts a new segment; the gap is untouched.
        assert cache.contacts(edge, 9_000, 9_010).tolist() == [9001, 9004, 9007]
        assert sorted(predicate.calls) == list(range(9_000, 9_010))
        assert cache.scanned_window(edge) == (0, 9_010)  # hull, gap unscanned
        predicate.calls.clear()
        # A bridging query scans exactly the remaining gap, once.
        assert cache.contacts(edge, 5, 9_005).tolist()[:3] == [7, 10, 13]
        assert sorted(predicate.calls) == list(range(10, 9_000))
        assert predicate.max_calls_per_date() == 1

    def test_adjacent_segments_merge(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate, horizon=100)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        cache.contacts(edge, 0, 10)
        cache.contacts(edge, 10, 20)  # adjacent: merges, no re-scan
        assert cache.scanned_window(edge) == (0, 20)
        assert cache.contacts(edge, 0, 20).tolist() == [1, 4, 7, 10, 13, 16, 19]
        assert predicate.max_calls_per_date() == 1

    def test_windows_are_per_edge(self):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate)
        cache = LazyContactCache(g)
        cache.contacts(g.edge("ab"), 0, 6)
        assert cache.scanned_window(g.edge("ab")) == (0, 6)
        assert cache.scanned_window(g.edge("ca")) is None
        assert len(cache) == 1

    def test_unrelated_mutation_retains_segments(self):
        """Regression: one unrelated ``add_edge`` used to flush EVERY
        edge's memoized scans, re-firing every black-box predicate.
        Contacts are a pure function of the presence object, so an edge
        whose presence is untouched must keep its segments."""
        predicate = CountingPredicate()
        g = blackbox_graph(predicate)
        cache = LazyContactCache(g)
        edge = g.edge("ab")
        cache.contacts(edge, 0, 12)
        g.add_edge("a", "c", key="ac")  # structural, but not this edge
        assert cache.contacts(edge, 0, 12).tolist() == [1, 4, 7, 10]
        assert sorted(set(predicate.calls)) == list(range(0, 12))
        assert predicate.max_calls_per_date() == 1  # never asked twice
        assert cache.scanned_window(edge) == (0, 12)

    def test_own_presence_change_still_rescans(self):
        """The retention must be exactly per-edge: swapping THIS edge's
        schedule drops its segments (the new predicate is consulted)
        while the unrelated black-box edge keeps its scans."""
        predicate = CountingPredicate()
        other = CountingPredicate(4, 2)
        g = blackbox_graph(predicate, second=other)
        cache = LazyContactCache(g)
        cache.contacts(g.edge("ab"), 0, 12)
        cache.contacts(g.edge("ca"), 0, 12)
        other.calls.clear()
        swapped = g.set_presence(
            "ab", function_presence(CountingPredicate(3, 2), "swapped")
        )
        assert cache.contacts(swapped, 0, 12).tolist() == [2, 5, 8, 11]
        assert cache.contacts(g.edge("ca"), 0, 12).tolist() == [2, 6, 10]
        assert other.calls == [], "unrelated edge was re-scanned"


class TestRemoveReaddInvalidation:
    """Removing an edge and re-adding a same-keyed edge with a different
    schedule must flush the cache's segments — not just the compiled
    index.  Segments are keyed by edge *key*, so a missed flush would
    silently serve the old predicate's contacts for the new edge."""

    def test_same_key_readd_is_not_served_stale(self):
        first = CountingPredicate(3, 1)  # contacts 1, 4, 7, 10
        g = blackbox_graph(first)
        cache = LazyContactCache(g)
        assert cache.contacts(g.edge("ab"), 0, 12).tolist() == [1, 4, 7, 10]
        g.remove_edge("ab")
        second = CountingPredicate(3, 2)  # contacts 2, 5, 8, 11
        readded = g.add_edge(
            "a", "b", presence=function_presence(second, "recounted"), key="ab"
        )
        assert cache.contacts(readded, 0, 12).tolist() == [2, 5, 8, 11]
        assert sorted(set(second.calls)) == list(range(0, 12)), (
            "the new predicate must actually be consulted"
        )
        assert cache.scanned_window(readded) == (0, 12)

    def test_set_presence_flushes_too(self):
        first = CountingPredicate(3, 1)
        g = blackbox_graph(first)
        cache = LazyContactCache(g)
        assert cache.contacts(g.edge("ab"), 0, 12).tolist() == [1, 4, 7, 10]
        second = CountingPredicate(3, 0)  # contacts 0, 3, 6, 9
        swapped = g.set_presence("ab", function_presence(second, "swapped"))
        assert cache.contacts(swapped, 0, 12).tolist() == [0, 3, 6, 9]
        assert second.calls, "the swapped-in predicate must be consulted"

    def test_engine_answers_track_the_readded_schedule(self):
        """End to end: a query, the remove/re-add, then the same query —
        the engine path must agree with the interpretive oracle on the
        new schedule (a stale segment would leave it on the old one)."""
        first = CountingPredicate(3, 1)
        g = blackbox_graph(first)
        engine = TemporalEngine(g)
        assert earliest_arrivals(g, "a", 0, WAIT, engine=engine) == (
            earliest_arrivals(g, "a", 0, WAIT)
        )
        g.remove_edge("ab")
        g.add_edge(
            "a", "b",
            presence=function_presence(CountingPredicate(5, 4), "recounted"),
            key="ab",
        )
        for semantics in (NO_WAIT, WAIT):
            assert earliest_arrivals(g, "a", 0, semantics, engine=engine) == (
                earliest_arrivals(g, "a", 0, semantics)
            )


class TestEngineIntegration:
    def test_engine_owns_one_cache_across_rebuilds(self):
        predicate = CountingPredicate()
        g = TimeVaryingGraph(name="unbounded")  # unbounded lifetime
        g.add_edge("a", "b", presence=function_presence(predicate, "counted"), key="ab")
        engine = TemporalEngine(g)
        earliest_arrivals(g, "a", 0, WAIT, horizon=6, engine=engine)
        # Widening the horizon rebuilds the index but keeps the cache:
        # only the new dates [6, 20) are scanned.
        seen = set(predicate.calls)
        earliest_arrivals(g, "a", 0, WAIT, horizon=20, engine=engine)
        assert predicate.max_calls_per_date() == 1
        assert set(predicate.calls) - seen == set(range(6, 20))

    @pytest.mark.parametrize("semantics", [NO_WAIT, WAIT, bounded_wait(2)])
    def test_at_most_one_call_per_date_across_analyses(self, semantics):
        """The acceptance bar: repeated analysis queries through one
        engine invoke each black-box predicate at most once per
        (edge, date)."""
        first, second = CountingPredicate(), CountingPredicate(4, 2)
        g = blackbox_graph(first, second=second)
        engine = TemporalEngine(g)
        for _ in range(3):
            reachability_growth(g, 0, 12, semantics, engine=engine)
            reachability_matrix(g, 0, semantics, engine=engine)
            semantics_gap_matrix(g, 0, engine=engine)
            classify(g, 0, 12, engine=engine)
            value_of_waiting(g, 0, 12, engine=engine)
            foremost_broadcast_tree(g, "a", 0, semantics, engine=engine)
            reachable_states(g, [("a", 0)], semantics, engine=engine)
        assert first.calls and second.calls, "black-box edges never consulted"
        assert first.max_calls_per_date() == 1
        assert second.max_calls_per_date() == 1

    def test_cached_results_stay_exact(self):
        predicate = CountingPredicate(period=4, residue=3)
        g = blackbox_graph(predicate)
        engine = TemporalEngine(g)
        for _ in range(2):
            for semantics in (NO_WAIT, WAIT, bounded_wait(1)):
                assert reachable_states(
                    g, [("a", 0)], semantics, engine=engine
                ) == reachable_states(g, [("a", 0)], semantics)
                assert earliest_arrivals(
                    g, "a", 0, semantics, engine=engine
                ) == earliest_arrivals(g, "a", 0, semantics)


class TestSegmentAdjacency:
    """Edge cases of the segment-merge classification: a segment is
    absorbed (not skipped) when it merely *touches* the query — scanned
    ``hi == start`` or ``lo == end`` — and a bridging query across two
    disjoint segments scans exactly the gap between them.  Pins the
    at-most-once-per-(edge, date) contract the sweep plan's
    pre-lowering relies on."""

    def _cache(self, horizon=40):
        predicate = CountingPredicate()
        g = blackbox_graph(predicate, horizon=horizon)
        return predicate, g, LazyContactCache(g), g.edge("ab")

    def test_right_touching_segment_absorbed(self):
        # Existing segment ends exactly where the query starts (hi == start).
        predicate, _g, cache, edge = self._cache()
        cache.contacts(edge, 0, 10)
        predicate.calls.clear()
        assert cache.contacts(edge, 10, 18).tolist() == [10, 13, 16]
        assert sorted(predicate.calls) == list(range(10, 18))
        assert cache.scanned_window(edge) == (0, 18)
        assert len(cache._segments[edge.key]) == 1  # merged, not stacked
        assert predicate.max_calls_per_date() == 1

    def test_left_touching_segment_absorbed(self):
        # Existing segment starts exactly where the query ends (lo == end).
        predicate, _g, cache, edge = self._cache()
        cache.contacts(edge, 10, 20)
        predicate.calls.clear()
        assert cache.contacts(edge, 2, 10).tolist() == [4, 7]
        assert sorted(predicate.calls) == list(range(2, 10))
        assert cache.scanned_window(edge) == (2, 20)
        assert len(cache._segments[edge.key]) == 1
        assert predicate.max_calls_per_date() == 1

    def test_bridging_query_absorbs_both_neighbours(self):
        # Two disjoint segments; the bridge touches both ends exactly
        # (hi == start of the query AND lo == end of it) and must scan
        # only the gap, once.
        predicate, _g, cache, edge = self._cache()
        cache.contacts(edge, 0, 4)
        cache.contacts(edge, 8, 12)
        assert len(cache._segments[edge.key]) == 2
        predicate.calls.clear()
        assert cache.contacts(edge, 4, 8).tolist() == [4, 7]
        assert sorted(predicate.calls) == list(range(4, 8))
        assert len(cache._segments[edge.key]) == 1
        assert cache.scanned_window(edge) == (0, 12)
        # The merged segment answers the whole hull without new calls.
        predicate.calls.clear()
        assert cache.contacts(edge, 0, 12).tolist() == [1, 4, 7, 10]
        assert predicate.calls == []

    def test_bridge_overshooting_both_segments(self):
        # The bridge also extends past both neighbours: only the three
        # uncovered gaps are scanned (left flank, middle, right flank).
        predicate, _g, cache, edge = self._cache()
        cache.contacts(edge, 4, 8)
        cache.contacts(edge, 12, 16)
        predicate.calls.clear()
        assert cache.contacts(edge, 0, 20).tolist() == [1, 4, 7, 10, 13, 16, 19]
        assert sorted(predicate.calls) == (
            list(range(0, 4)) + list(range(8, 12)) + list(range(16, 20))
        )
        assert len(cache._segments[edge.key]) == 1
        assert predicate.max_calls_per_date() == 1
