"""cold-query: the library path, one caller, closed loop.

Each query builds a fresh ``TemporalEngine`` and answers one all-pairs
``arrival_matrix(0, sem, horizon=32)``, then repeats it on that warm
engine.  The semantics cycle wait, nowait, wait[2], and one op is one
whole cycle: the three semantics cost about 250, 300 and 280 ms, so
single queries would pool three cost classes into one percentile and
the median would jump between them from run to run.  Answers are
digested as they come and checked after the timed phase against
reference matrices, whose rows are spot-checked against the
interpretive search.
"""

from __future__ import annotations

import hashlib
import random
import time

from measure import TIMED_CAP_S, Outcome, Timeline, timed_setups, vm_hwm_mb
from traffic import (
    COLD_DENSITY,
    COLD_HORIZON,
    COLD_NODES,
    COLD_PERIOD,
    SEMANTICS_CYCLE,
)

#: Set-ups timed per run (the median is reported); one takes ~0.4 s.
SETUPS = 5
#: Rows per semantics spot-checked against the interpretive search (a
#: WAIT row costs seconds there).
SPOT_ROWS = 1


def build_graph(seed: int, nodes: int = COLD_NODES, density: float = COLD_DENSITY):
    from repro.core.generators import periodic_random_tvg

    return periodic_random_tvg(
        nodes, period=COLD_PERIOD, density=density, labels="ab", seed=seed
    )


def digest(nodes, matrix) -> str:
    h = hashlib.blake2b(repr(list(nodes)).encode(), digest_size=16)
    h.update(matrix.tobytes())
    return h.hexdigest()


def parsed_semantics() -> dict:
    from repro.core.semantics import parse_semantics

    return {name: parse_semantics(name) for name in SEMANTICS_CYCLE}


def check_answers(outcome: Outcome, graph, seed: int, answers) -> None:
    """Compare every digested answer with a reference matrix per
    semantics, and spot-check reference rows against the interpretive
    ``earliest_arrivals``."""
    from repro.core.engine import UNREACHED, TemporalEngine
    from repro.core.traversal import earliest_arrivals

    semantics = parsed_semantics()
    rng = random.Random(f"cold-spot/{seed}")
    expected = {}
    for name, sem in semantics.items():
        nodes, matrix = TemporalEngine(graph).arrival_matrix(0, sem, horizon=COLD_HORIZON)
        expected[name] = digest(nodes, matrix)
        for row in rng.sample(range(len(nodes)), SPOT_ROWS):
            oracle = earliest_arrivals(graph, nodes[row], 0, sem, horizon=COLD_HORIZON)
            want = [oracle.get(node, UNREACHED) for node in nodes]
            outcome.check(matrix[row].tolist() == want)
    for name, *digests in answers:
        for d in digests:
            outcome.check(d == expected[name])


def measure(root, workload, seed: int, seconds: float) -> Outcome:
    from repro.core.engine import TemporalEngine

    outcome = Outcome()
    outcome.setup_norm, outcome.setup_raw, graph = timed_setups(
        lambda: build_graph(seed), SETUPS
    )
    semantics = parsed_semantics()
    answers = []
    timeline = outcome.timeline = Timeline()
    timeline.open()
    deadline = time.monotonic() + max(seconds, TIMED_CAP_S)
    while True:
        cold = light = 0.0
        for name in SEMANTICS_CYCLE:
            sem = semantics[name]
            began = time.perf_counter()
            engine = TemporalEngine(graph)
            nodes, matrix = engine.arrival_matrix(0, sem, horizon=COLD_HORIZON)
            cold_done = time.perf_counter()
            warm_nodes, warm = engine.arrival_matrix(0, sem, horizon=COLD_HORIZON)
            light_done = time.perf_counter()
            cold += cold_done - began
            light += light_done - cold_done
            answers.append((name, digest(nodes, matrix), digest(warm_nodes, warm)))
        timeline.add(cold + light, 1, {"primary": [cold], "light": [light]})
        enough = (
            timeline.wall_s >= seconds
            and timeline.count("primary") >= workload.min_primary
            and timeline.count("light") >= workload.min_light
        )
        if enough or time.monotonic() > deadline:
            break
    outcome.rss_mb = vm_hwm_mb()
    check_answers(outcome, graph, seed, answers)
    outcome.notes.append(
        f"graph: {graph.node_count} nodes, {graph.edge_count} edges; "
        f"{len(answers)} cold + {len(answers)} warm answers checked"
    )
    return outcome
