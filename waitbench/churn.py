"""churn: writes beside reads over loopback.

Set-up writes a clustered contact trace (disjoint communities), starts
``repro serve`` on it and seeds the cache with one read of the window.
The timed phase runs two closed loops over two connections: the
*writer* (cycles of one mutation in one community, then one read of
the window — always a fresh answer; a round of four cycles is the
primary op) and the *prober* (pings, the light op, which wait behind
the writer's re-sweeps on the event loop).

Answers are checked afterwards on per-community shadow graphs: no
contact crosses communities, so a read's answer depends only on its
community, and one fresh engine per epoch on a 50-node shadow is cheap.
"""

from __future__ import annotations

import itertools
import json
import os
import time

from measure import TIMED_CAP_S, Outcome, Timeline, timed_setups
from traffic import (
    CHURN_COMMUNITIES,
    CHURN_HORIZON,
    CHURN_KINDS,
    CHURN_SEMANTICS,
    STATS,
    churn_cycles,
    churn_requests,
    churn_seed_read,
    churn_trace,
    community_of,
    ping_pauses,
    pings,
)
from wire import Lane, Server, call, drive

SLICE_S = 0.5
SETUPS = 5
#: The server's cache bound, in entries.  Every write retains the old
#: window matrix as incremental seed material, and the service bounds
#: entries, not bytes, so this fixes the retained matrices' footprint.
CACHE_SIZE = 32
#: Write cycles per op: one round of the add, add, set_presence,
#: remove cycle.  A read after a schedule change patches the compiled
#: index while one after an add or remove recompiles it, at about half
#: the cost again, so single cycles would pool two cost classes into
#: one percentile; every round holds one of each kind.
ROUND = len(CHURN_KINDS)
#: Every this many epochs the shadow answer is also checked against
#: the interpretive search.
SPOT_EVERY = 16


def write_trace(root, seed: int):
    work = root / ".waitbench_work"
    work.mkdir(exist_ok=True)
    path = work / f"churn-{seed}-{os.getpid()}.trace"
    path.write_text("\n".join(churn_trace(seed)) + "\n", encoding="utf-8")
    return path


def server_args(path) -> list[str]:
    return [
        "--trace", str(path), "--horizon", str(CHURN_HORIZON),
        "--cache-size", str(CACHE_SIZE),
    ]


class Churn:
    """A running server on the trace, its window's matrix cached."""

    def __init__(self, root, path) -> None:
        self.server = Server(root, server_args(path))
        try:
            self.socks = [self.server.connect(), self.server.connect()]
            self.seed_response = call(self.socks[0], churn_seed_read())
        except BaseException:
            self.server.close()
            raise

    def stats(self) -> dict:
        return call(self.socks[0], STATS)["result"]

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.server.close()


def run_traffic(churn: Churn, seed: int, seconds: float, workload=None):
    """Writer and prober, sliced; returns the timeline and both lanes.
    A writer op is one round of ROUND (mutation, read) cycles, timed as
    the sum of its round trips; pings follow seeded random think times,
    so they sample the wait behind the writer at unrelated moments."""
    frames = 2 * ROUND
    writer = Lane(churn.socks[0], churn_requests(seed), group=frames)
    prober = Lane(churn.socks[1], pings(), pauses=ping_pauses(seed))
    timeline = Timeline()
    timeline.open()
    deadline = time.monotonic() + max(seconds, TIMED_CAP_S)
    while True:
        marks = len(writer.latencies), len(prober.latencies)
        wall = drive([writer, prober], SLICE_S)
        lat = writer.latencies[marks[0]:]
        rounds = [sum(lat[i : i + frames]) for i in range(0, len(lat), frames)]
        timeline.add(
            wall, len(rounds),
            {"primary": rounds, "light": prober.latencies[marks[1]:]},
        )
        enough = timeline.wall_s >= seconds and (
            workload is None
            or (
                timeline.count("primary") >= workload.min_primary
                and timeline.count("light") >= workload.min_light
            )
        )
        if enough or time.monotonic() > deadline:
            return timeline, writer, prober


def community_shadows(seed: int) -> dict:
    """One shadow graph per community, parsed from its trace lines."""
    from repro.dynamics.traces import parse_trace

    lines: dict[int, list[str]] = {c: [] for c in range(CHURN_COMMUNITIES)}
    for line in churn_trace(seed):
        if not line.startswith("#"):
            lines[community_of(line.split()[0])].append(line)
    return {c: parse_trace(body) for c, body in lines.items()}


def apply_mutation(graph, mutation: dict) -> None:
    """Replay one wire mutation on a graph through its own mutators."""
    from repro.core.presence import interval_presence

    op = mutation["op"]
    if op == "remove_edge":
        graph.remove_edge(mutation["key"])
        return
    presence = interval_presence(tuple(p) for p in mutation["presence"]["pairs"])
    if op == "add_edge":
        graph.add_edge(
            mutation["source"], mutation["target"], key=mutation["key"],
            presence=presence,
        )
    else:
        graph.set_presence(mutation["key"], presence)


def check_answers(outcome: Outcome, seed: int, churn: Churn, writer, prober) -> None:
    """Replay the writer's mutations on the community shadows; at each
    epoch one fresh engine answers the read."""
    from repro.core.engine import TemporalEngine
    from repro.core.semantics import parse_semantics
    from repro.core.traversal import earliest_arrivals

    sem = parse_semantics(CHURN_SEMANTICS)
    shadows = community_shadows(seed)

    def expected(read: dict):
        graph = shadows[community_of(read["source"])]
        arrivals = TemporalEngine(graph).earliest_arrivals(
            read["source"], read["start"], sem, horizon=read["horizon"]
        )
        return graph, arrivals.get(read["target"])

    seed_read = json.loads(churn_seed_read())
    seeded = churn.seed_response
    outcome.check(seeded.get("ok") is True and seeded["result"] == expected(seed_read)[1])
    responses = [json.loads(raw) for raw in writer.responses]
    cycles = itertools.islice(churn_cycles(seed), len(responses) // 2)
    for epoch, (mutation, read) in enumerate(cycles):
        done, answer = responses[2 * epoch], responses[2 * epoch + 1]
        outcome.check(done.get("ok") is True and done["result"] == mutation["key"])
        apply_mutation(shadows[community_of(read["source"])], mutation)
        graph, want = expected(read)
        outcome.check(answer.get("ok") is True and answer["result"] == want)
        if epoch % SPOT_EVERY == 0:
            oracle = earliest_arrivals(
                graph, read["source"], read["start"], sem, horizon=read["horizon"]
            )
            outcome.check(oracle.get(read["target"]) == want)
    for raw in prober.responses:
        outcome.check(json.loads(raw).get("result") == "pong")


def measure(root, workload, seed: int, seconds: float) -> Outcome:
    outcome = Outcome()
    path = write_trace(root, seed)
    try:
        outcome.setup_norm, outcome.setup_raw, churn = timed_setups(
            lambda: Churn(root, path), SETUPS
        )
        try:
            before = churn.stats()["sweeps"]
            outcome.timeline, writer, prober = run_traffic(churn, seed, seconds, workload)
            after = churn.stats()["sweeps"]
            outcome.rss_mb = churn.server.peak_rss_mb()
        finally:
            churn.close()
    finally:
        path.unlink()
    check_answers(outcome, seed, churn, writer, prober)
    outcome.notes.append(
        f"{len(writer.responses) // 2} write cycles + {len(prober.responses)} pings "
        f"checked; sweeps in the timed phase: "
        f"{after['incremental'] - before['incremental']} incremental, "
        f"{after['full'] - before['full']} full"
    )
    return outcome
