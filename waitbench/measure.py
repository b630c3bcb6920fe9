"""Measurement helpers: the host-speed probe, probe-normalised slices,
and nearest-rank percentiles with the tail rule.

Nothing here imports ``repro``: the probe must time the host, not the
program under test, so a change to the program can never move it.

Host speed for interpreted code drifts in phases of about ten seconds
on small shared hosts, by up to a factor of two.  The timed phase is
therefore cut into short *slices*; the probe (a fixed mix of
interpreter and numpy work, timed with ``time.thread_time()`` so other
threads and processes cannot inflate it) runs between every two
slices, and each slice's timings are scaled by ``PROBE_REF_MS`` over
the mean probe reading around it.  A normalised figure is then "the
time this would have taken on a host where the probe reads
``PROBE_REF_MS``".
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: The reference probe time every timing is normalised to.  It is a
#: fixed constant — never re-measured — so normalised figures from
#: different runs, seeds and commits share one scale.
PROBE_REF_MS: float = 15.0

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND: int = 10

#: The timed phase runs past ``--seconds`` until every op class holds
#: enough samples for its declared tail, but never past this.
TIMED_CAP_S: float = 120.0

#: Tail percentiles a metric may report, highest first.
TAIL_LADDER: tuple[float, ...] = (99.9, 99.0, 90.0, 80.0)

_PROBE_ARRAY = np.random.default_rng(20120716).integers(0, 1 << 40, size=60_000)
_PROBE_KEYS = _PROBE_ARRAY[::5].copy()


def _probe_work() -> int:
    """One fixed unit of interpreter plus numpy work.

    Its data stay cache-resident on purpose: a probe that streams tens
    of megabytes reads as fast or slow as the memory its own process
    happened to get, which says nothing of the server process beside
    it.
    """
    acc = 0
    table: dict[int, int] = {}
    for i in range(20_000):
        k = i & 127
        table[k] = table.get(k, 0) + i
        acc ^= (i * 2654435761) & 0xFFFF
    words = ",".join([str(i) for i in range(5000)]).split(",")
    acc += len(words)
    for _ in range(3):
        ordered = np.sort(_PROBE_ARRAY)
        acc += int(np.searchsorted(ordered, _PROBE_KEYS)[-1])
        acc += int(np.cumsum(ordered & 0xFF)[-1])
    return acc


def probe_ms() -> float:
    """CPU time of one probe unit, in milliseconds."""
    began = time.thread_time()
    _probe_work()
    return (time.thread_time() - began) * 1e3


def normalise(raw: float, probe_before: float, probe_after: float) -> float:
    """Scale a timing taken between two probe readings to the
    reference host speed."""
    return raw * PROBE_REF_MS / ((probe_before + probe_after) / 2.0)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, in MiB, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# -- percentiles ---------------------------------------------------------------


def nearest_rank(ordered: list[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile (0 < p <= 100) of a sorted
    list: the smallest sample with at least p% of samples at or below
    it — never an interpolation."""
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(round(p / 100.0 * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank p-th one."""
    return n - max(math.ceil(round(p / 100.0 * n, 9)), 1)


def min_samples_for(p: float) -> int:
    """The fewest samples that leave ``TAIL_BEYOND`` beyond percentile p."""
    n = TAIL_BEYOND + 1
    while samples_beyond(n, p) < TAIL_BEYOND:
        n += 1
    return n


def highest_supported(n: int) -> float | None:
    """The highest ladder percentile ``n`` samples support, or None."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_BEYOND:
            return p
    return None


def tail(ordered: list[float], p: float) -> float:
    """The p-th percentile, refused when too few samples lie beyond it."""
    beyond = samples_beyond(len(ordered), p)
    if beyond < TAIL_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples has only {beyond} beyond it "
            f"(needs {TAIL_BEYOND})"
        )
    return nearest_rank(ordered, p)


# -- the sliced timeline ---------------------------------------------------------


#: Probe readings on each side of a slice that set its speed.  The
#: host flips between fast and slow states within seconds, and one
#: reading catches one state, so a slice is scaled by the mean of the
#: readings around it: the share of slow readings estimates the share
#: of slow time, while the window stays shorter than the ~10 s phases.
PROBE_WINDOW = 4


@dataclass
class Slice:
    """One probe-bracketed stretch of the timed phase; ``factor`` is
    filled in once the readings after it are known."""

    wall_s: float
    ops: int
    samples: dict[str, list[float]]
    factor: float = 1.0


@dataclass
class Timeline:
    """The timed phase as a list of slices, with a probe reading
    between every two; ``add`` takes one slice's raw figures."""

    probes: list[float] = field(default_factory=list)
    slices: list[Slice] = field(default_factory=list)

    def open(self) -> None:
        self.probes.append(probe_ms())

    def add(self, wall_s: float, ops: int, samples: dict[str, list[float]]) -> None:
        self.slices.append(Slice(wall_s, ops, samples))
        self.probes.append(probe_ms())
        for i in range(max(0, len(self.slices) - PROBE_WINDOW), len(self.slices)):
            self.slices[i].factor = self.factor(i)

    def factor(self, i: int) -> float:
        """Slice ``i``'s scale to the reference host speed, from the
        mean probe reading in a window around it."""
        window = self.probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]
        return PROBE_REF_MS / statistics.fmean(window)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.slices)

    def count(self, cls: str) -> int:
        return sum(len(s.samples.get(cls, ())) for s in self.slices)

    def samples(self, cls: str, normalised: bool = True) -> list[float]:
        """All samples of one op class, sorted, each scaled by its
        slice's factor when ``normalised``."""
        out = []
        for s in self.slices:
            factor = s.factor if normalised else 1.0
            out.extend(x * factor for x in s.samples.get(cls, ()))
        out.sort()
        return out

    def throughput(self, normalised: bool = True) -> float:
        """Completed ops per (normalised) second of timed wall time."""
        seconds = sum(
            s.wall_s * (s.factor if normalised else 1.0) for s in self.slices
        )
        return sum(s.ops for s in self.slices) / seconds


def timed_setups(setup, repeats: int) -> tuple[list[float], list[float], object]:
    """Run ``setup()`` ``repeats`` times, each probe-bracketed; returns
    the normalised and raw wall times and the last set-up's result.
    Earlier results are closed first when they have a ``close``."""
    normalised_times, raw_times = [], []
    result = None
    before = probe_ms()
    for _ in range(repeats):
        if hasattr(result, "close"):
            result.close()
        began = time.perf_counter()
        result = setup()
        elapsed = time.perf_counter() - began
        after = probe_ms()
        raw_times.append(elapsed)
        normalised_times.append(normalise(elapsed, before, after))
        before = after
    return normalised_times, raw_times, result


@dataclass
class Outcome:
    """What one run hands back: its timed phase, set-up times, peak
    memory, the ops it attempted and how many failed their check, and
    the metrics computed from them."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    timeline: Timeline | None = None
    setup_norm: list[float] = field(default_factory=list)
    setup_raw: list[float] = field(default_factory=list)
    rss_mb: float = 0.0

    def check(self, ok: bool) -> None:
        """Count one attempted op, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
