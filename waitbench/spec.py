"""The benchmark's one declared table.

Workloads with their reason, end-to-end metrics with unit, direction
and regression bound, and per-layer metrics with the end-to-end metric
and workload each should move.  ``BENCHMARK.json`` is rendered from
this table (``python3 waitbench/spec.py --write``) and the self-tests
check that the two agree.

Every run prints every end-to-end metric, so the names are shared by
all workloads; each workload says what its *primary* op and its
*light* op are.  The two classes differ in cost and are never pooled
into one percentile.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

from measure import min_samples_for

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "waitbench/run.py"]
PATHS = ["waitbench"]
RUN_SECONDS = 35


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: str
    light: str
    primary_tail: float
    light_tail: float

    @property
    def min_primary(self) -> int:
        return min_samples_for(self.primary_tail)

    @property
    def min_light(self) -> int:
        return min_samples_for(self.light_tail)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    workload: str = ""
    moves: str = ""


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "cold-query",
        "library path, one caller: compile, plan, lowering and kernel do all "
        "the work of an all-pairs arrival sweep and the service does none",
        primary="one semantics cycle: three fresh TemporalEngines, each "
        "answering one all-pairs arrival_matrix (n=400, horizon 32), under "
        "wait, nowait and wait[2]",
        light="the cycle's three queries repeated on their warm engines: plan "
        "memo and kernel lowering reused, kernel only",
        primary_tail=80.0,
        light_tail=80.0,
    ),
    Workload(
        "churn",
        "writes beside reads over loopback: the delta log, index patch or "
        "recompile and the cone re-sweep do the work, and pings wait behind it",
        primary="one write round: four cycles (add, add, set_presence, remove) "
        "of one mutation in one community, then one read of the window (a "
        "fresh answer, never a cache hit)",
        light="one ping on a second connection after a random think time, "
        "waiting behind the writer",
        primary_tail=90.0,
        light_tail=90.0,
    ),
)

#: Bounds sit at about twice the largest seed-to-seed spread (quartile
#: distance over median) seen in five-seed trials on a 2-CPU shared
#: host whose speed drifts by up to 2x: 0.03-0.12 for medians and
#: throughput, up to 0.15 for tails, 0.01 for memory.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.2),
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("throughput_ops_s", "1/s", "higher", 0.2),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("light_p50_ms", "ms", "lower", 0.2),
    Metric("light_tail_ms", "ms", "lower", 0.25),
)

#: Layer groups measured in every traced run without a gated workload
#: of their own, and why.
TRACED_ONLY: dict[str, str] = {
    "served-hot": "its end-to-end figures over loopback did not repeat within "
    "a tenth across seeds, even probe-normalised, so the workload was "
    "dropped; its layers are still measured by a short wire run and an "
    "in-process replay in every traced run",
}

_COLD = "cold-query"
_HOT = "served-hot"
_CHURN = "churn"
_ALL = "all"

PER_LAYER: tuple[Metric, ...] = (
    Metric("core.index.compile_ms", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.parallel.plan_ms", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.sweep_kernel.lower_ms", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.sweep_kernel.kernel_ms", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.engine.unattributed_ms", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.index.contacts", "count", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.index.compile_ms.n2400", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric("core.parallel.plan_ms.n2400", "ms", "lower", None, _COLD, "latency_p50_ms"),
    Metric(
        "core.sweep_kernel.kernel_ms.n2400", "ms", "lower", None, _COLD,
        "latency_p50_ms",
    ),
    Metric("service.server.dispatch_us", "us", "lower", None, _HOT),
    Metric("service.cache.get_us", "us", "lower", None, _HOT),
    Metric("service.server.encode_us", "us", "lower", None, _HOT),
    Metric("service.server.transport_us", "us", "lower", None, _HOT),
    Metric("service.cache.hit_ratio", "ratio", "higher", None, _HOT),
    Metric("analysis.evolution.growth_ms", "ms", "lower", None, _HOT),
    Metric("core.tvg.mutate_us", "us", "lower", None, _CHURN, "latency_p50_ms"),
    Metric("core.index.patch_ms", "ms", "lower", None, _CHURN, "latency_p50_ms"),
    Metric("core.index.recompile_ms", "ms", "lower", None, _CHURN, "latency_p50_ms"),
    Metric("core.engine.incremental_ms", "ms", "lower", None, _CHURN, "latency_p50_ms"),
    Metric(
        "core.sweep_kernel.rows_reswept_share", "ratio", "lower", None, _CHURN,
        "latency_p50_ms",
    ),
    Metric(
        "service.service.incremental_share", "ratio", "higher", None, _CHURN,
        "latency_p50_ms",
    ),
    Metric("service.server.busy_share", "ratio", "lower", None, _CHURN, "light_tail_ms"),
    Metric("host.probe_ms", "ms", "lower", None, _ALL, ""),
    Metric("trace.overhead_share", "ratio", "lower", None, _ALL, ""),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


def render() -> dict:
    """``BENCHMARK.json`` as a dict, from the table above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def rendered_text() -> str:
    return json.dumps(render(), indent=2) + "\n"


if __name__ == "__main__":
    if "--write" in sys.argv[1:]:
        (ROOT / "BENCHMARK.json").write_text(rendered_text(), encoding="utf-8")
    else:
        sys.stdout.write(rendered_text())
