"""Long-lived query service over a mutating time-varying graph.

The :class:`TVGService` owns one :class:`~repro.core.tvg.TimeVaryingGraph`
plus one :class:`~repro.core.engine.TemporalEngine` and answers the
paper's query hierarchy — reachability, earliest arrivals, growth
curves, class membership — while accepting structural mutations between
queries.  A :class:`QueryCache` keyed by ``(graph.version, window,
semantics, query)`` makes repeated queries between mutations free;
every mutation bumps the version and invalidates exactly the stale
entries.

``server``/``client`` wrap the service in an asyncio JSON-lines
protocol (``python -m repro serve``), and ``wire`` defines the
JSON-serializable specs for presences, latencies, semantics, sweep
plans, and sub-matrices that cross the socket.  ``cluster`` distributes
the arrival sweep itself: ``python -m repro worker`` runs a long-lived
sweep worker and :class:`ClusterExecutor` ships ``(plan, block)`` jobs
to a fleet of them, re-sweeping any failed block locally so answers are
always element-for-element equal to the serial sweep.  The worker
doubles the cluster tests use (a chaos worker, an in-process loopback
fleet) live in ``tests/doubles.py``, not here.

``limits`` and ``tasks`` harden the front end for real traffic:
per-client sliding-window rate limiting with an admission gate on
in-flight requests, latency reservoirs behind the ``stats`` op, and a
bounded background-task table (``submit``/``status``/``result``/
``cancel``) that runs expensive cold queries over graph snapshots on a
worker thread instead of stalling the event loop.
"""

from repro.service.cache import MISS, QueryCache
from repro.service.client import ServiceClient
from repro.service.cluster import (
    ClusterExecutor,
    handle_worker_request,
    serve_worker,
)
from repro.service.limits import (
    AdmissionGate,
    LatencyRecorder,
    RateLimiter,
    percentile,
)
from repro.service.replay import replay_service_trace
from repro.service.server import ServiceFrontend, handle_request, serve_service
from repro.service.service import TVGService
from repro.service.tasks import BackgroundTask, TaskTable
from repro.service.wire import (
    latency_from_spec,
    latency_to_spec,
    matrix_from_spec,
    matrix_to_spec,
    parse_semantics,
    plan_from_spec,
    plan_to_spec,
    presence_from_spec,
    presence_to_spec,
)

__all__ = [
    "MISS",
    "AdmissionGate",
    "BackgroundTask",
    "ClusterExecutor",
    "LatencyRecorder",
    "QueryCache",
    "RateLimiter",
    "ServiceClient",
    "ServiceFrontend",
    "TVGService",
    "TaskTable",
    "handle_request",
    "handle_worker_request",
    "latency_from_spec",
    "latency_to_spec",
    "matrix_from_spec",
    "matrix_to_spec",
    "parse_semantics",
    "percentile",
    "plan_from_spec",
    "plan_to_spec",
    "presence_from_spec",
    "presence_to_spec",
    "replay_service_trace",
    "serve_service",
    "serve_worker",
]
