"""served-hot: every op a cache hit, over loopback.

A layer group of the traced run (its end-to-end workload was dropped:
see ``spec.TRACED_ONLY``).  Set-up starts ``repro serve`` on the
cold-query graph shape and fills its cache with the working set (every
window x semantics).  The wire run drives two closed loops over two
connections: zipf point queries plus a few growth curves, every one a
hit, and pings.  Every response is kept raw and checked afterwards
against matrices computed in-process on the same graph.
"""

from __future__ import annotations

import json
import random

from measure import Outcome, Timeline
from traffic import (
    COLD_DENSITY,
    COLD_NODES,
    COLD_PERIOD,
    HOT_SEMANTICS,
    HOT_WINDOWS,
    STATS,
    hot_fill_requests,
    hot_requests,
    pings,
)
from wire import Lane, Server, call, drive

#: Seconds of traffic per probe-bracketed slice.
SLICE_S = 0.5


def server_args(seed: int) -> list[str]:
    """``repro serve`` flags for the graph :func:`build_graph` builds."""
    return [
        "--nodes", str(COLD_NODES), "--period", str(COLD_PERIOD),
        "--density", str(COLD_DENSITY), "--seed", str(seed),
        "--horizon", str(HOT_WINDOWS[0][1]),
    ]


def build_graph(seed: int):
    """The graph ``repro serve`` builds from :func:`server_args` (the
    CLI generates it without edge labels)."""
    from repro.core.generators import periodic_random_tvg

    return periodic_random_tvg(
        COLD_NODES, period=COLD_PERIOD, density=COLD_DENSITY, seed=seed
    )


class Hot:
    """A running server with its working set cached."""

    def __init__(self, root, seed: int) -> None:
        self.server = Server(root, server_args(seed))
        try:
            self.socks = [self.server.connect(), self.server.connect()]
            self.fill = [call(self.socks[0], frame) for frame in hot_fill_requests()]
        except BaseException:
            self.server.close()
            raise

    def stats(self) -> dict:
        return call(self.socks[0], STATS)["result"]

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.server.close()


class Expected:
    """Reference answers for the working set, computed in-process."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        from repro.core.engine import UNREACHED, TemporalEngine
        from repro.core.semantics import parse_semantics
        from repro.core.traversal import earliest_arrivals

        graph = build_graph(seed)
        rng = random.Random(f"hot-spot/{seed}")
        self.matrices = {}
        for start, end in HOT_WINDOWS:
            for name in HOT_SEMANTICS:
                sem = parse_semantics(name)
                nodes, matrix = TemporalEngine(graph).arrival_matrix(
                    start, sem, horizon=end
                )
                if nodes != list(range(len(nodes))):
                    raise RuntimeError("served-hot expects nodes 0..n-1 in order")
                self.matrices[(start, end, name)] = matrix
                if (start, end) == HOT_WINDOWS[0]:
                    row = rng.randrange(len(nodes))
                    oracle = earliest_arrivals(graph, row, start, sem, horizon=end)
                    want = [oracle.get(node, UNREACHED) for node in nodes]
                    outcome.check(matrix[row].tolist() == want)
        self.unreached = UNREACHED
        self.curves = {}

    def curve(self, start: int, end: int, name: str) -> list:
        key = (start, end, name)
        if key not in self.curves:
            import numpy as np

            matrix = self.matrices[key]
            n = matrix.shape[0]
            off = matrix[~np.eye(n, dtype=bool)]
            finite = np.sort(off[off != self.unreached])
            self.curves[key] = [
                [t, int(np.searchsorted(finite, t, side="right")) / (n * (n - 1))]
                for t in range(start, end)
            ]
        return self.curves[key]

    def answer(self, request: dict):
        op = request["op"]
        if op == "ping":
            return "pong"
        name = request["semantics"]
        if op == "growth":
            return self.curve(request["start"], request["end"], name)
        matrix = self.matrices[(request["start"], request["horizon"], name)]
        value = int(matrix[request["source"], request["target"]])
        arrival = None if value == self.unreached else value
        return arrival is not None if op == "reach" else arrival


def check_lane(outcome: Outcome, expected: Expected, lane: Lane) -> None:
    for frame, raw in zip(lane.sent, lane.responses):
        response = json.loads(raw)
        outcome.check(
            response.get("ok") is True
            and response["result"] == expected.answer(json.loads(frame))
        )


def run_traffic(hot: Hot, seed: int, seconds: float):
    """The two closed loops, sliced; returns the timeline and lanes."""
    queries = Lane(hot.socks[0], hot_requests(seed))
    prober = Lane(hot.socks[1], pings())
    timeline = Timeline()
    timeline.open()
    while timeline.wall_s < seconds:
        marks = len(queries.latencies), len(prober.latencies)
        wall = drive([queries, prober], SLICE_S)
        timeline.add(
            wall,
            len(queries.latencies) - marks[0],
            {
                "primary": queries.latencies[marks[0]:],
                "light": prober.latencies[marks[1]:],
            },
        )
    return timeline, queries, prober
