"""The traced run: per-layer metrics, timed from outside.

Every traced run measures every layer group, whichever workload it is
run for (the run must print every per-layer metric); the workload only
picks which tracing overhead is reported.  Nothing in ``repro`` is
instrumented: each span is a ``perf_counter`` pair around a call into
a public function, and the server-side layers are measured by
replaying the request stream a short wire run sent through
``handle_request`` in-process.  Layer timings are raw (not
probe-normalised); ``host.probe_ms`` shows the host speed they were
taken at.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time

import churn
import cold_query
import served_hot
from measure import Outcome, probe_ms
from traffic import (
    CHURN_HORIZON,
    COLD_HORIZON,
    COLD_PERIOD,
    HOT_WINDOWS,
    SCALE_NODES,
    SEMANTICS_CYCLE,
    churn_cycles,
    churn_seed_read,
    hot_fill_requests,
    scale_edges,
)

#: Traced cold ops per run: whole semantics cycles.
COLD_CYCLES = 3
#: The share of ``--seconds`` each wire group (served-hot, churn) runs.
WIRE_SHARE = 0.1
#: Cache gets per timed batch (one get is too short to time alone).
GET_BATCH = 1000

pc = time.perf_counter


def median_ms(xs) -> float:
    return 1e3 * statistics.median(xs)


def median_us(xs) -> float:
    return 1e6 * statistics.median(xs)


# -- cold-query ----------------------------------------------------------------


def traced_cold_op(graph, sem, horizon: int = COLD_HORIZON) -> dict:
    """``arrival_matrix``'s steps on a fresh engine, one span each:
    compile (``index_for``), plan (``build_sweep_plan``), the first
    ``sweep_block`` (lowering plus kernel) and a repeat (kernel only).
    ``total`` spans the steps a cold ``arrival_matrix`` performs;
    ``contacts`` counts the compiled index's contacts."""
    from repro.core.engine import TemporalEngine
    from repro.core.parallel import build_sweep_plan
    from repro.core.sweep_kernel import sweep_block

    began = pc()
    engine = TemporalEngine(graph)
    t0 = pc()
    index = engine.index_for(0, horizon)
    t1 = pc()
    nodes, plan = build_sweep_plan(engine, 0, sem, horizon)
    t2 = pc()
    matrix = sweep_block(plan, range(plan.n))
    t3 = pc()
    sweep_block(plan, range(plan.n))
    t4 = pc()
    return {
        "compile": t1 - t0, "plan": t2 - t1, "first": t3 - t2, "kernel": t4 - t3,
        "total": t3 - began, "nodes": nodes, "matrix": matrix,
        "contacts": sum(len(c) for c in index.contacts if c is not None),
    }


def paired_cold_op(
    graph, sem, traced_first: bool, horizon: int = COLD_HORIZON
) -> dict:
    """One untraced cold ``arrival_matrix`` (``whole``) and one traced
    op on the same graph, back to back in the given order (callers
    alternate it, so neither side always runs just after the other's
    garbage); ``same`` says whether they agree (the answers themselves
    are dropped)."""
    from repro.core.engine import TemporalEngine

    if traced_first:
        op = traced_cold_op(graph, sem, horizon)
    began = pc()
    nodes, matrix = TemporalEngine(graph).arrival_matrix(0, sem, horizon=horizon)
    whole = pc() - began
    if not traced_first:
        op = traced_cold_op(graph, sem, horizon)
    op["whole"] = whole
    op["same"] = nodes == op.pop("nodes") and bool((matrix == op.pop("matrix")).all())
    return op


def span_coverage(ops: list[dict]) -> float:
    """The share of an untraced cold call the spans account for, each
    side taken at its fastest of ``ops`` so a slow host phase during
    one of them cannot skew the ratio."""
    spans = min(op["compile"] + op["plan"] + op["first"] for op in ops)
    return spans / min(op["whole"] for op in ops)


def scale_graph(seed: int):
    from repro.core.presence import periodic_presence
    from repro.core.tvg import TimeVaryingGraph

    graph = TimeVaryingGraph(period=COLD_PERIOD, name="scale")
    graph.add_nodes(range(SCALE_NODES))
    for u, v, residues in scale_edges(seed):
        graph.add_edge(u, v, presence=periodic_presence(residues, COLD_PERIOD))
    return graph


def cold_layers(outcome: Outcome, seed: int) -> tuple[dict, float]:
    from repro.core.semantics import WAIT

    graph = cold_query.build_graph(seed)
    semantics = cold_query.parsed_semantics()
    ops = []
    for i, name in enumerate(SEMANTICS_CYCLE * COLD_CYCLES):
        op = paired_cold_op(graph, semantics[name], traced_first=i % 2 == 1)
        outcome.check(op["same"])
        ops.append(op)
    spans = {k: [op[k] for op in ops] for k in ("compile", "plan", "first", "kernel")}
    lower = [op["first"] - op["kernel"] for op in ops]
    metrics = {
        "core.index.compile_ms": median_ms(spans["compile"]),
        "core.parallel.plan_ms": median_ms(spans["plan"]),
        "core.sweep_kernel.lower_ms": median_ms(lower),
        "core.sweep_kernel.kernel_ms": median_ms(spans["kernel"]),
        # The untraced call and the spans come from different executions,
        # so this difference of medians can dip below zero on noise.
        "core.engine.unattributed_ms": median_ms([op["whole"] for op in ops])
        - median_ms([op["compile"] + op["plan"] + op["first"] for op in ops]),
        "core.index.contacts": ops[0]["contacts"],
    }
    overhead = statistics.median(op["total"] for op in ops) / statistics.median(
        op["whole"] for op in ops
    )
    outcome.notes.append(f"cold: spans cover {span_coverage(ops):.3f} of a cold call")

    big = scale_graph(seed)
    op = traced_cold_op(big, WAIT)
    outcome.check(op["matrix"].shape == (SCALE_NODES, SCALE_NODES))
    metrics["core.index.compile_ms.n2400"] = 1e3 * op["compile"]
    metrics["core.parallel.plan_ms.n2400"] = 1e3 * op["plan"]
    metrics["core.sweep_kernel.kernel_ms.n2400"] = 1e3 * op["kernel"]
    outcome.notes.append(
        f"cold: {len(lower)} traced ops at n={graph.node_count}; one at "
        f"n={big.node_count} with {big.edge_count} edges"
    )
    return metrics, overhead


# -- served-hot ----------------------------------------------------------------


def hot_layers(outcome: Outcome, root, seed: int, wire_s: float) -> tuple[dict, float]:
    from repro.analysis.evolution import growth_curve_from_arrivals
    from repro.service.server import handle_request
    from repro.service.service import TVGService

    hot = served_hot.Hot(root, seed)
    try:
        before = hot.stats()["cache"]
        _timeline, queries, prober = served_hot.run_traffic(hot, seed, wire_s)
        after = hot.stats()["cache"]
    finally:
        hot.close()
    expected = served_hot.Expected(seed, outcome)
    served_hot.check_lane(outcome, expected, queries)
    served_hot.check_lane(outcome, expected, prober)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]

    # The same stream, replayed in-process on the service the CLI builds.
    service = TVGService(
        served_hot.build_graph(seed), window=(0, HOT_WINDOWS[0][1])
    )
    for frame in hot_fill_requests():
        handle_request(service, json.loads(frame))
    requests = [json.loads(frame) for frame in queries.sent]
    began = pc()
    for request in requests:
        json.dumps(handle_request(service, request)).encode()
    untraced = pc() - began
    dispatch, encode, lines = [], [], []
    began = pc()
    for request in requests:
        t0 = pc()
        response = handle_request(service, request)
        t1 = pc()
        lines.append(json.dumps(response).encode() + b"\n")
        t2 = pc()
        dispatch.append(t1 - t0)
        encode.append(t2 - t1)
    traced = pc() - began
    for line, raw in zip(lines, queries.responses):
        outcome.check(json.loads(line) == json.loads(raw))

    version = service.graph.version
    keys = [
        ("arrival_matrix", r["start"], r["horizon"], r["semantics"])
        if r["op"] != "growth"
        else ("growth", r["start"], r["end"], r["semantics"])
        for r in requests[:GET_BATCH]
    ]
    gets = []
    for _ in range(5):
        t0 = pc()
        for key in keys:
            service.cache.get(version, key)
        gets.append((pc() - t0) / len(keys))
    growth = []
    for (start, end), name in itertools.product(HOT_WINDOWS, SEMANTICS_CYCLE):
        matrix = expected.matrices[(start, end, name)]
        t0 = pc()
        growth_curve_from_arrivals(matrix, start, end)
        growth.append(pc() - t0)

    client = statistics.median(queries.latencies)
    metrics = {
        "service.server.dispatch_us": median_us(dispatch),
        "service.cache.get_us": median_us(gets),
        "service.server.encode_us": median_us(encode),
        "service.server.transport_us": 1e6 * (
            client - statistics.median(dispatch) - statistics.median(encode)
        ),
        "service.cache.hit_ratio": hits / max(1, hits + misses),
        "analysis.evolution.growth_ms": median_ms(growth),
    }
    outcome.notes.append(
        f"served-hot: {len(requests)} requests over the wire and replayed; "
        f"{hits} hits, {misses} misses"
    )
    return metrics, traced / untraced


# -- churn ---------------------------------------------------------------------


def churn_replay(path, cycles, traced: bool):
    """Replay write cycles in-process on the service the CLI builds.

    Traced, each cycle is split into spans: the mutation's dispatch,
    the index refresh (``index_for``; a patch when the compiled index
    survives, else a recompile), and the read's dispatch (the
    incremental re-sweep).  Returns the spans, the responses and the
    service."""
    from repro.dynamics.traces import load_trace
    from repro.service.server import handle_request
    from repro.service.service import TVGService

    service = TVGService(
        load_trace(path), window=(0, CHURN_HORIZON), cache_size=churn.CACHE_SIZE
    )
    handle_request(service, json.loads(churn_seed_read()))
    spans = {"mutation": [], "patch": [], "recompile": [], "read": [], "cycle": []}
    responses = []
    for mutation, read in cycles:
        t0 = pc()
        responses.append(handle_request(service, mutation))
        if traced:
            t1 = pc()
            compiled = service.engine.compiled
            service.engine.index_for(0, CHURN_HORIZON)
            t2 = pc()
            refresh = "patch" if service.engine.compiled is compiled else "recompile"
            spans[refresh].append(t2 - t1)
            spans["mutation"].append(t1 - t0)
            t3 = pc()
            responses.append(handle_request(service, read))
            spans["read"].append(pc() - t3)
        else:
            responses.append(handle_request(service, read))
        spans["cycle"].append(pc() - t0)
    return spans, responses, service


def churn_layers(
    outcome: Outcome, root, seed: int, wire_s: float
) -> tuple[dict, float]:
    from repro.dynamics.traces import load_trace
    from repro.service.server import handle_request

    path = churn.write_trace(root, seed)
    try:
        server = churn.Churn(root, path)
        try:
            before = server.stats()["sweeps"]
            timeline, writer, prober = churn.run_traffic(server, seed, wire_s)
            after = server.stats()["sweeps"]
        finally:
            server.close()
        churn.check_answers(outcome, seed, server, writer, prober)
        count = len(writer.responses) // 2
        cycles = list(itertools.islice(churn_cycles(seed), count))
        untraced, _responses, _service = churn_replay(path, cycles, traced=False)
        spans, responses, service = churn_replay(path, cycles, traced=True)
        for mine, raw in zip(responses, writer.responses):
            outcome.check(mine == json.loads(raw))

        shadow = load_trace(path)
        mutate = []
        for mutation, _read in cycles:
            t0 = pc()
            churn.apply_mutation(shadow, mutation)
            mutate.append(pc() - t0)
    finally:
        path.unlink()
    ping = []
    for _ in range(200):
        t0 = pc()
        handle_request(service, {"op": "ping"})
        ping.append(pc() - t0)

    sweeps = service.stats()["sweeps"]
    n = service.graph.node_count
    full = after["full"] - before["full"]
    incremental = after["incremental"] - before["incremental"]
    busy = sum(untraced["cycle"]) + len(prober.responses) * statistics.median(ping)
    metrics = {
        "core.tvg.mutate_us": median_us(mutate),
        "core.index.patch_ms": median_ms(spans["patch"]),
        "core.index.recompile_ms": median_ms(spans["recompile"]),
        "core.engine.incremental_ms": median_ms(spans["read"]),
        "core.sweep_kernel.rows_reswept_share": sweeps["rows_reswept"]
        / (max(1, sweeps["incremental"]) * n),
        "service.service.incremental_share": incremental / max(1, incremental + full),
        "service.server.busy_share": busy / timeline.wall_s,
    }
    outcome.notes.append(
        f"churn: {count} cycles over the wire and replayed; rows re-swept "
        f"{sweeps['rows_reswept']} over {sweeps['incremental']} incremental "
        f"sweeps x n={n}; {len(spans['patch'])} patches, "
        f"{len(spans['recompile'])} recompiles"
    )
    overhead = sum(spans["cycle"]) / sum(untraced["cycle"])
    return metrics, overhead


def measure_all(root, workload: str, seed: int, seconds: float) -> Outcome:
    """Every layer group; ``trace.overhead_share`` is the run's
    workload's traced-over-untraced time for the same work."""
    outcome = Outcome()
    probes = [probe_ms()]
    overheads = {}
    wire_s = WIRE_SHARE * seconds
    for name, group in (
        ("cold-query", lambda: cold_layers(outcome, seed)),
        ("served-hot", lambda: hot_layers(outcome, root, seed, wire_s)),
        ("churn", lambda: churn_layers(outcome, root, seed, wire_s)),
    ):
        metrics, overheads[name] = group()
        outcome.metrics.update(metrics)
        probes.append(probe_ms())
    outcome.metrics["host.probe_ms"] = statistics.median(probes)
    outcome.metrics["trace.overhead_share"] = overheads[workload]
    for name, value in outcome.metrics.items():
        outcome.notes.append(f"{name:40s} {value:14.4f}")
    outcome.notes.append(
        "tracing overhead (traced over untraced, same work): "
        + ", ".join(f"{k} {v:.4f}" for k, v in overheads.items())
    )
    return outcome
