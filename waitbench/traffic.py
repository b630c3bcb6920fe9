"""Seeded traffic generators.

Nothing here imports ``repro``: the program under test receives only
what these functions produce — request lines, a contact trace, a list
of semantics — so a change to the program cannot change its inputs.
The same seed always gives byte-identical output.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Iterator

# -- cold-query ----------------------------------------------------------------

#: The cold-query graph: ``periodic_random_tvg(COLD_NODES, period=8,
#: density=0.008, labels="ab", seed=<seed>)`` over [0, COLD_HORIZON).
COLD_NODES = 400
COLD_PERIOD = 8
COLD_DENSITY = 0.008
COLD_HORIZON = 32

#: The fixed semantics cycle of cold-query, as wire strings.
SEMANTICS_CYCLE: tuple[str, ...] = ("wait", "nowait", "wait[2]")


# -- served-hot ----------------------------------------------------------------

#: The working set: every (window, semantics) pair, 9 arrival matrices
#: plus 9 growth curves — far below the service's default 256 entries.
HOT_WINDOWS: tuple[tuple[int, int], ...] = ((0, 32), (8, 40), (16, 48))
HOT_SEMANTICS: tuple[str, ...] = SEMANTICS_CYCLE
ZIPF_EXPONENT = 1.1
GROWTH_SHARE = 0.04


def encode(request: dict) -> bytes:
    """One JSON-lines request frame."""
    return json.dumps(request, separators=(",", ":")).encode() + b"\n"


def hot_fill_requests() -> list[bytes]:
    """One growth request per (window, semantics): each computes and
    caches its window's arrival matrix and growth curve."""
    return [
        encode({"op": "growth", "start": s, "end": e, "semantics": sem})
        for s, e in HOT_WINDOWS
        for sem in HOT_SEMANTICS
    ]


def hot_requests(seed: int, nodes: int = COLD_NODES) -> Iterator[bytes]:
    """Zipf-skewed point ``reach``/``arrival`` queries plus a few
    ``growth`` curves over the working set, forever."""
    rng = random.Random(f"served-hot/{seed}")
    ranking = list(range(nodes))
    rng.shuffle(ranking)
    cum = list(
        itertools.accumulate(1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(nodes))
    )
    combos = [(w, sem) for w in HOT_WINDOWS for sem in HOT_SEMANTICS]
    while True:
        (start, end), sem = rng.choice(combos)
        draw = rng.random()
        if draw < GROWTH_SHARE:
            yield encode({"op": "growth", "start": start, "end": end, "semantics": sem})
            continue
        source, target = (
            ranking[i] for i in rng.choices(range(nodes), cum_weights=cum, k=2)
        )
        op = "reach" if draw < (1.0 + GROWTH_SHARE) / 2 else "arrival"
        yield encode(
            {
                "op": op, "source": source, "target": target,
                "start": start, "horizon": end, "semantics": sem,
            }
        )


PING = encode({"op": "ping"})
STATS = encode({"op": "stats"})


def pings() -> Iterator[bytes]:
    return itertools.repeat(PING)


#: The churn prober's mean think time between pings.
PING_PAUSE_S = 0.01


def ping_pauses(seed: int) -> Iterator[float]:
    """Think times uniform on [0, 2 * PING_PAUSE_S), so pings land at
    unrelated moments of the writer's work instead of in lockstep."""
    rng = random.Random(f"ping-pauses/{seed}")
    while True:
        yield rng.uniform(0.0, 2 * PING_PAUSE_S)


# -- churn ---------------------------------------------------------------------

#: Disjoint communities of the churn trace, as in
#: ``benchmarks/bench_incremental.py``: no contact crosses communities,
#: so a mutation's dirty cone stays inside its community.
CHURN_COMMUNITIES = 16
CHURN_COMMUNITY_NODES = 50
CHURN_PAIR_DENSITY = 0.06
CHURN_HORIZON = 32
CHURN_SEMANTICS = "wait"
CHURN_KINDS: tuple[str, ...] = ("add_edge", "add_edge", "set_presence", "remove_edge")


def churn_node(community: int, i: int) -> str:
    return f"n{community * CHURN_COMMUNITY_NODES + i}"


def community_of(node: str) -> int:
    return int(node[1:]) // CHURN_COMMUNITY_NODES


def _interval(rng: random.Random) -> tuple[int, int]:
    start = rng.randrange(CHURN_HORIZON - 1)
    return start, min(CHURN_HORIZON, start + rng.randint(1, 3))


def churn_trace(seed: int) -> list[str]:
    """Contact-trace lines ``u v start end``.

    Every community is a ring (so every node exists and no mutation
    ever adds a node) plus random chords; each community's first ring
    contact ends at the horizon, so every community spans the same
    lifetime as the whole trace.
    """
    rng = random.Random(f"churn-trace/{seed}")
    m = CHURN_COMMUNITY_NODES
    lines = [f"# churn trace, seed {seed}"]
    for c in range(CHURN_COMMUNITIES):
        for i in range(m):
            start, end = (CHURN_HORIZON - 2, CHURN_HORIZON) if i == 0 else _interval(rng)
            lines.append(f"{churn_node(c, i)} {churn_node(c, (i + 1) % m)} {start} {end}")
        for i in range(m):
            for j in range(i + 2, m):
                if rng.random() < CHURN_PAIR_DENSITY:
                    start, end = _interval(rng)
                    lines.append(f"{churn_node(c, i)} {churn_node(c, j)} {start} {end}")
    return lines


def churn_seed_read() -> bytes:
    """The read that seeds the server's cache with the window's matrix."""
    return encode(
        {
            "op": "arrival", "source": churn_node(0, 0), "target": churn_node(0, 1),
            "start": 0, "horizon": CHURN_HORIZON, "semantics": CHURN_SEMANTICS,
        }
    )


def churn_cycles(seed: int) -> Iterator[tuple[dict, dict]]:
    """The writer's stream: (mutation, read) request pairs, forever.

    Mutations cycle add, add, set_presence, remove: cycle ``k`` adds
    edge ``w<k>`` (k = 0, 1 mod 4) in a random community, or re-times
    / removes the edge added two cycles before, in that edge's
    community.  The read asks for the arrival date from the mutated
    edge's tail to a random node of the same community, so it always
    lands in the dirty cone.
    """
    rng = random.Random(f"churn-writer/{seed}")
    m = CHURN_COMMUNITY_NODES
    added: dict[str, tuple[str, str]] = {}
    for k in itertools.count():
        kind = CHURN_KINDS[k % 4]
        if kind == "add_edge":
            c = rng.randrange(CHURN_COMMUNITIES)
            u, v = rng.sample(range(m), 2)
            key = f"w{k}"
            source, target = churn_node(c, u), churn_node(c, v)
            added[key] = (source, target)
            start, end = _interval(rng)
            mutation = {
                "op": kind, "source": source, "target": target, "key": key,
                "presence": {"kind": "intervals", "pairs": [[start, end]]},
            }
        else:
            key = f"w{k - 2}"
            source, _target = added[key]
            if kind == "set_presence":
                start, end = _interval(rng)
                mutation = {
                    "op": kind, "key": key,
                    "presence": {"kind": "intervals", "pairs": [[start, end]]},
                }
            else:
                mutation = {"op": kind, "key": key}
                del added[key]
        c = community_of(source)
        read = {
            "op": "arrival", "source": source,
            "target": churn_node(c, rng.randrange(m)),
            "start": 0, "horizon": CHURN_HORIZON, "semantics": CHURN_SEMANTICS,
        }
        yield mutation, read


def churn_requests(seed: int) -> Iterator[bytes]:
    """The writer's stream flattened to frames: mutation, read, ..."""
    for mutation, read in churn_cycles(seed):
        yield encode(mutation)
        yield encode(read)


# -- the n=2400 scale sweep ----------------------------------------------------

SCALE_NODES = 2400
#: Per-residue density giving the same edges-per-pair share as the
#: ~92,000-edge n=2400 graph the roadmap's baseline measured.
SCALE_DENSITY = 0.002


def scale_edges(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(u, v, residues)`` for a periodic random graph on SCALE_NODES
    nodes: an ordered pair carries an edge with the probability that
    some residue passes a SCALE_DENSITY draw, and an edge carries one
    uniform residue plus each other one with probability SCALE_DENSITY.
    Edge-bearing pairs are found by geometric skipping, so the cost is
    per edge, not per pair."""
    import math

    rng = random.Random(f"scale/{seed}")
    n, period = SCALE_NODES, COLD_PERIOD
    q = 1.0 - (1.0 - SCALE_DENSITY) ** period
    log_miss = math.log(1.0 - q)
    edges = []
    pair = -1
    while True:
        pair += 1 + int(math.log(1.0 - rng.random()) / log_miss)
        if pair >= n * (n - 1):
            return edges
        u, rest = divmod(pair, n - 1)
        v = rest + (rest >= u)
        first = rng.randrange(period)
        residues = tuple(
            r for r in range(period) if r == first or rng.random() < SCALE_DENSITY
        )
        edges.append((u, v, residues))
