"""Bulk presence lowering equals per-edge ``support()``, exactly.

:class:`~repro.core.index.CompiledTVG` lowers presences in bulk —
periodic patterns grouped by ``(period, pattern)``, intervals and
``always``/``never`` through one vectorized ranges-expansion, only the
combinators per edge.  Whatever the route, edge ``i``'s compiled
contacts must equal ``presence.support(window).times()``: Hypothesis
draws arbitrary structured presences (mixed periods and patterns,
intervals reaching past the window on either side, ``always``/
``never``, shifted/dilated/union/intersect trees), windows with
negative starts and empty windows, and set-presence chains patched in
place by ``apply_deltas`` — compared against a fresh compile.
Black-box edges must stay uncompiled (``None``) and their predicates
must still fire at most once per (edge, date).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.engine import TemporalEngine
from repro.core.index import CompiledTVG
from repro.core.intervals import Interval
from repro.core.parallel import build_sweep_plan
from repro.core.presence import (
    FunctionPresence,
    always,
    at_times,
    function_presence,
    interval_presence,
    never,
    periodic_presence,
)
from repro.core.semantics import NO_WAIT, WAIT
from repro.core.tvg import TimeVaryingGraph

DETERMINISTIC = settings(deadline=None, derandomize=True, print_blob=True)


class CountingPredicate:
    """A black-box schedule that records every date it is asked about."""

    def __init__(self, period: int, residue: int) -> None:
        self.period = period
        self.residue = residue
        self.calls: list[int] = []

    def __call__(self, t: int) -> bool:
        self.calls.append(t)
        return t % self.period == self.residue

    def max_calls_per_date(self) -> int:
        return max(self.calls.count(t) for t in set(self.calls)) if self.calls else 0


def leaves():
    periodic = st.integers(1, 7).flatmap(
        lambda period: st.builds(
            periodic_presence,
            st.sets(st.integers(-period, 2 * period), max_size=period + 1),
            st.just(period),
        )
    )
    intervals = st.lists(
        st.tuples(st.integers(-30, 30), st.integers(0, 12)), max_size=4
    ).map(lambda pairs: interval_presence((a, a + w) for a, w in pairs))
    dates = st.lists(st.integers(-30, 30), max_size=6).map(at_times)
    return st.one_of(periodic, intervals, dates, st.just(always()), st.just(never()))


def structured_presences():
    return st.recursive(
        leaves(),
        lambda inner: st.one_of(
            st.tuples(inner, st.integers(-6, 6)).map(lambda p: p[0].shifted(p[1])),
            st.tuples(inner, st.integers(1, 3)).map(lambda p: p[0].dilated(p[1])),
            st.tuples(inner, inner).map(lambda p: p[0] | p[1]),
            st.tuples(inner, inner).map(lambda p: p[0] & p[1]),
        ),
        max_leaves=4,
    )


windows = st.tuples(st.integers(-20, 20), st.integers(-3, 30)).map(
    lambda w: Interval(w[0], w[0] + w[1])
)


def support_dates(presence, window: Interval) -> list[int]:
    """The per-edge truth: the presence's own exact support."""
    if window.empty:
        return []
    support = presence.support(window)
    return np.fromiter(support.times(), dtype=np.int64).tolist()


@st.composite
def graphs(draw, blackbox=True):
    """A graph whose edges carry drawn structured presences (and, when
    ``blackbox``, some counting black-box predicates)."""
    graph = TimeVaryingGraph(name="lowering")
    graph.add_nodes(range(4))
    predicates = []
    for k in range(draw(st.integers(0, 10))):
        u, v = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if blackbox and draw(st.integers(0, 4)) == 0:
            period = draw(st.integers(1, 4))
            predicate = CountingPredicate(period, draw(st.integers(0, period - 1)))
            predicates.append(predicate)
            presence = function_presence(predicate, f"count{k}")
        else:
            # Bare leaves half the time: they take the bulk paths.
            presence = draw(st.one_of(leaves(), structured_presences()))
        graph.add_edge(u, v, presence=presence, key=f"e{k}")
    return graph, predicates


def assert_matches_support(index: CompiledTVG) -> None:
    contacts = index.contacts
    assert len(contacts) == len(index.edge_list)
    for edge, dates in zip(index.edge_list, contacts):
        assert (dates is None) == isinstance(edge.presence, FunctionPresence)
        if dates is None:
            continue
        assert dates.dtype == np.int64 and not dates.flags.writeable
        assert dates.tolist() == support_dates(edge.presence, index.window), edge.key


class TestBulkLoweringEqualsSupport:
    @given(graphs(), windows)
    @settings(DETERMINISTIC, max_examples=100)
    def test_every_edge_equals_its_support(self, drawn, window):
        graph, _predicates = drawn
        assert_matches_support(CompiledTVG(graph, window))

    @given(st.lists(structured_presences(), max_size=12), windows)
    @settings(DETERMINISTIC, max_examples=60)
    def test_shared_patterns_lower_once_but_land_everywhere(self, presences, window):
        """The same presence objects on many edges (one periodic group,
        one shared interval set) still give every edge its own exact
        slice."""
        graph = TimeVaryingGraph(name="shared")
        graph.add_nodes(range(3))
        for k, presence in enumerate(presences + presences):
            graph.add_edge(k % 3, (k + 1) % 3, presence=presence, key=f"e{k}")
        assert_matches_support(CompiledTVG(graph, window))

    @given(graphs(), windows, st.data())
    @settings(DETERMINISTIC, max_examples=60)
    def test_patched_chain_equals_a_fresh_compile(self, drawn, window, data):
        """A chain of set_presence swaps (structured <-> black-box
        included) patches the index in place; the patched contacts equal
        both the presences' supports and a from-scratch compile."""
        graph, _predicates = drawn
        if not graph.edge_count or window.empty:
            return
        engine = TemporalEngine(graph)
        before = engine.index_for(window.start, window.end)
        keys = [edge.key for edge in graph.edges]
        for _ in range(data.draw(st.integers(1, 4))):
            key = data.draw(st.sampled_from(keys))
            if data.draw(st.integers(0, 5)) == 0:
                presence = function_presence(CountingPredicate(2, 1), "swap")
            else:
                presence = data.draw(structured_presences())
            graph.set_presence(key, presence)
        patched = engine.index_for(window.start, window.end)
        assert patched is before  # patched in place, not rebuilt
        assert_matches_support(patched)
        fresh = CompiledTVG(graph, patched.window)
        assert np.array_equal(patched.contact_ptr, fresh.contact_ptr)
        assert np.array_equal(patched.contact_dates, fresh.contact_dates)
        assert np.array_equal(patched.blackbox, fresh.blackbox)


class TestBlackboxEdges:
    @given(graphs(), st.integers(-6, 6), st.integers(1, 16))
    @settings(DETERMINISTIC, max_examples=50)
    def test_blackbox_stays_lazy_and_fires_once_per_date(self, drawn, start, span):
        graph, predicates = drawn
        engine = TemporalEngine(graph)
        horizon = start + span
        index = engine.index_for(start, horizon)
        assert_matches_support(index)
        # Two plans, an index query and a full sweep over one engine:
        # each predicate is still asked about each date at most once.
        build_sweep_plan(engine, start, WAIT, horizon)
        build_sweep_plan(engine, start, NO_WAIT, horizon)
        engine.arrival_matrix(start, WAIT, horizon=horizon)
        edges, deps = index.departure_stream(start, horizon)
        for predicate in predicates:
            assert predicate.max_calls_per_date() <= 1
        for ei, edge in enumerate(index.edge_list):
            truth = [t for t in range(start, horizon) if edge.presence(t)]
            assert sorted(deps[edges == ei].tolist()) == truth
