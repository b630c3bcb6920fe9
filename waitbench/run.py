"""The benchmark entry point.

    python3 waitbench/run.py --workload cold-query --seed 1 --seconds 20 --trace 0

Pins itself (and every ``repro serve`` child it starts) to one CPU,
runs one workload, checks every answer off the timed path, and prints
one JSON object as its last line: the end-to-end metrics with
``--trace 0``, or the per-layer metrics with ``--trace 1``.

Every gated timing is probe-normalised (see ``measure.py``); the raw
wall-clock value is printed beside it on the lines before the JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
from pathlib import Path

import spec
from measure import PROBE_REF_MS, nearest_rank, samples_beyond, tail

ROOT = Path(__file__).resolve().parent.parent


def pin_one_cpu() -> int:
    """Pin this process (and so its children) to the last allowed CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def end_to_end(workload, run) -> tuple[dict, list[str]]:
    """The end-to-end metrics of one measured run, plus report lines
    giving the raw wall-clock value beside each normalised one."""
    timeline = run.timeline
    metrics: dict[str, float] = {}
    lines = []

    def add(name, value, raw, note=""):
        metrics[name] = value
        lines.append(f"{name:18s} {value:12.4f}   raw {raw:12.4f}  {note}")

    add(
        "setup_s", statistics.median(run.setup_norm),
        statistics.median(run.setup_raw), f"median of {len(run.setup_norm)} set-ups",
    )
    for prefix, cls, p in (
        ("latency", "primary", workload.primary_tail),
        ("light", "light", workload.light_tail),
    ):
        norm = timeline.samples(cls)
        raw = timeline.samples(cls, normalised=False)
        n = len(norm)
        add(f"{prefix}_p50_ms", 1e3 * nearest_rank(norm, 50), 1e3 * nearest_rank(raw, 50),
            f"{n} samples")
        add(f"{prefix}_tail_ms", 1e3 * tail(norm, p), 1e3 * tail(raw, p),
            f"p{p:g} of {n} samples, {samples_beyond(n, p)} beyond")
    add("throughput_ops_s", timeline.throughput(), timeline.throughput(False),
        f"{sum(s.ops for s in timeline.slices)} ops in {timeline.wall_s:.2f} s")
    metrics["peak_rss_mb"] = run.rss_mb
    lines.append(f"{'peak_rss_mb':18s} {run.rss_mb:12.4f}")
    lines.append(
        f"host probe: median {statistics.median(timeline.probes):.3f} ms over "
        f"{len(timeline.probes)} readings (reference {PROBE_REF_MS} ms)"
    )
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        workload = spec.workload(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cpu = pin_one_cpu()
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, pinned to CPU {cpu}")

    if args.trace:
        import layers

        outcome = layers.measure_all(ROOT, workload.name, args.seed, args.seconds)
    else:
        module = importlib.import_module(workload.name.replace("-", "_"))
        outcome = module.measure(ROOT, workload, args.seed, args.seconds)
        outcome.metrics, lines = end_to_end(workload, outcome)
        outcome.notes.extend(lines)

    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {m.name: m.unit for m in declared}
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for line in outcome.notes:
        print(line)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
