"""Tests for the lowered sweep plan and its source blocks
(:mod:`repro.core.parallel`).

The block contract, which the cluster relies on: partitioning the source
set into blocks, sweeping each block, and stacking the sub-matrices must
reproduce the full sweep element for element — with black-box presences
lowered where the graph lives, through the engine's LazyContactCache, so
arbitrary predicates never pickle and each fires at most once per
(edge, date).
"""

import pickle

import numpy as np
import pytest

from repro.core.engine import UNREACHED, TemporalEngine
from repro.core.generators import periodic_random_tvg
from repro.core.latency import function_latency
from repro.core.parallel import build_sweep_plan, partition_sources
from repro.core.presence import function_presence, periodic_presence
from repro.core.semantics import NO_WAIT, WAIT, bounded_wait
from repro.core.sweep_kernel import sweep_block
from repro.core.time_domain import Lifetime
from repro.core.tvg import TimeVaryingGraph

HORIZON = 14
SEMANTICS = [NO_WAIT, WAIT, bounded_wait(2)]


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


def random_graph(n=12, seed=3):
    return periodic_random_tvg(n, period=6, density=0.12, seed=seed)


def blackbox_ring(n=10, horizon=HORIZON):
    """A ring with one fresh counting predicate per edge plus a lambda
    latency — nothing on it pickles, which is exactly the point."""
    g = TimeVaryingGraph(lifetime=Lifetime(0, horizon), name="blackbox-ring")
    g.add_nodes(range(n))
    predicates = []
    for u in range(n):
        predicate = CountingPredicate(3, u % 3)
        predicates.append(predicate)
        g.add_edge(
            u,
            (u + 1) % n,
            presence=function_presence(predicate, f"p{u}"),
            latency=function_latency(lambda t: 1 + t % 2, "odd-even"),
        )
    g.add_edge(0, n // 2, presence=periodic_presence([0, 2], 4), key="chord")
    return g, predicates


class TestPartition:
    def test_blocks_cover_all_sources_in_order(self):
        for n in (1, 2, 7, 8, 20):
            for workers in (1, 2, 3, 4, 50):
                blocks = partition_sources(n, workers)
                assert [i for block in blocks for i in block] == list(range(n))
                assert all(block for block in blocks)
                assert len(blocks) == min(workers, n) if n else not blocks

    def test_blocks_are_balanced(self):
        sizes = [len(b) for b in partition_sources(10, 4)]
        assert sorted(sizes) == [2, 2, 3, 3]

    def test_more_shards_than_sources_never_yields_empty_blocks(self):
        for n in (1, 2, 5):
            blocks = partition_sources(n, n + 37)
            assert len(blocks) == n
            assert all(len(block) == 1 for block in blocks)
            assert [i for block in blocks for i in block] == list(range(n))

    def test_empty_source_set_partitions_to_nothing(self):
        assert partition_sources(0, 1) == []
        assert partition_sources(0, 8) == []

    def test_single_shard_is_one_covering_block(self):
        for n in (1, 7, 20):
            assert partition_sources(n, 1) == [tuple(range(n))]

    def test_blocks_are_contiguous_and_disjoint(self):
        for n in (5, 9, 16):
            for workers in (2, 3, 4, 7):
                blocks = partition_sources(n, workers)
                seen: set[int] = set()
                for block in blocks:
                    assert block == tuple(range(block[0], block[-1] + 1))
                    assert not seen & set(block)
                    seen |= set(block)
                assert seen == set(range(n))


class TestSweepPlan:
    def test_plan_is_plain_picklable_data(self):
        g, _predicates = blackbox_ring()
        engine = TemporalEngine(g)
        nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert len(nodes) == plan.n

    def test_blackbox_lowering_happens_once_in_the_parent(self):
        g, predicates = blackbox_ring()
        engine = TemporalEngine(g)
        build_sweep_plan(engine, 0, WAIT, HORIZON)
        build_sweep_plan(engine, 0, NO_WAIT, HORIZON)  # second plan: cache hit
        for predicate in predicates:
            assert sorted(set(predicate.calls)) == list(range(0, HORIZON))
            assert predicate.max_calls_per_date() == 1

    def test_plan_arrivals_swallow_callable_latencies(self):
        g, _predicates = blackbox_ring()
        engine = TemporalEngine(g)
        _nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        assert len(plan.dep) == len(plan.arr)
        assert all(arr > dep for dep, arr in zip(plan.dep, plan.arr))


class TestReadOnlyPlans:
    """The memoized plan is shared by cold sweeps, incremental cone
    re-sweeps and cluster jobs, so nothing may write to it."""

    @staticmethod
    def _snapshot(plan):
        return [getattr(plan, name).tobytes() for name in ("src", "tgt", "dep", "arr")]

    def test_memoized_plan_arrays_refuse_writes(self):
        engine = TemporalEngine(random_graph())
        _nodes, plan = build_sweep_plan(engine, 0, WAIT, HORIZON)
        assert build_sweep_plan(engine, 0, WAIT, HORIZON)[1] is plan  # the memo
        assert len(plan.dep)
        for name in ("src", "tgt", "dep", "arr"):
            array = getattr(plan, name)
            assert array.dtype == np.int64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
            with pytest.raises(ValueError):
                array.flags.writeable = True  # no way back to writeable
        with pytest.raises(AttributeError):
            plan.dep = np.zeros(3, dtype=np.int64)

    def test_pickled_copy_is_read_only_too(self):
        _nodes, plan = build_sweep_plan(TemporalEngine(random_graph()), 0, WAIT, HORIZON)
        clone = pickle.loads(pickle.dumps(plan))
        assert not clone.dep.flags.writeable and clone == plan

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_sweeps_leave_the_plan_byte_identical(self, semantics):
        g = random_graph()
        engine = TemporalEngine(g)
        nodes, previous = engine.arrival_matrix(0, semantics, horizon=HORIZON)
        version = g.version
        g.set_presence(g.edges[0].key, periodic_presence([1, 3], 6))
        _nodes, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        before = self._snapshot(plan)
        sweep_block(plan, range(plan.n))
        sweep_block(plan, (3, 1, 1))
        result = engine.arrival_matrix_incremental(
            0, (nodes, previous), g.deltas_since(version), semantics, HORIZON
        )
        assert result is not None
        assert build_sweep_plan(engine, 0, semantics, HORIZON)[1] is plan
        assert self._snapshot(plan) == before


class TestBlockSweepEquality:
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_stacked_blocks_equal_serial(self, semantics, workers):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(0, semantics, horizon=HORIZON)
        nodes, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        blocks = partition_sources(plan.n, workers)
        stacked = np.vstack([sweep_block(plan, block) for block in blocks])
        assert np.array_equal(stacked, serial)

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_blackbox_blocks_equal_serial(self, semantics):
        g, predicates = blackbox_ring()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(0, semantics)
        _same, plan = build_sweep_plan(engine, 0, semantics, HORIZON)
        stacked = np.vstack(
            [sweep_block(plan, block) for block in partition_sources(plan.n, 4)]
        )
        assert np.array_equal(stacked, serial)
        for predicate in predicates:
            assert predicate.max_calls_per_date() == 1

    def test_single_block_is_the_whole_matrix(self):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, serial = engine.arrival_matrix(2, WAIT, horizon=HORIZON)
        _same, plan = build_sweep_plan(engine, 2, WAIT, HORIZON)
        assert np.array_equal(sweep_block(plan, range(plan.n)), serial)

    def test_start_at_horizon_leaves_only_the_diagonal(self):
        g = random_graph()
        engine = TemporalEngine(g)
        _nodes, plan = build_sweep_plan(engine, 9, WAIT, 9)
        block = sweep_block(plan, range(plan.n))
        expected = np.full((plan.n, plan.n), UNREACHED, dtype=np.int64)
        np.fill_diagonal(expected, 9)
        assert np.array_equal(block, expected)


class TestEngineFallbacks:
    def test_empty_graph_stays_serial_and_answers_0xn(self):
        g = TimeVaryingGraph(lifetime=Lifetime(0, HORIZON), name="empty")
        nodes, matrix = TemporalEngine(g).arrival_matrix(0, WAIT, horizon=HORIZON)
        assert nodes == [] and matrix.shape == (0, 0)
