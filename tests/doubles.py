"""Test doubles shared by the suites and the benchmarks.

None of this is production code; it lives here so ``src/`` carries only
what the library runs.  ``pytest.ini`` puts this directory on
``sys.path``, so test modules import it as ``doubles``:

* :func:`sweep_block_bignum` — the block-level arrival-sweep oracle, a
  per-state heap sweep over Python-int masks that shares no code with
  the bitset kernel in :mod:`repro.core.sweep_kernel`;
* :class:`FaultyWorker` — a TCP sweep worker that misbehaves on
  purpose, for the cluster's fault-recovery checks;
* :class:`LoopbackWorkerPool` — real in-process sweep workers on
  loopback ports.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import socket
import threading
from bisect import bisect_left
from typing import Sequence

import numpy as np

from repro.core.parallel import SweepPlan
from repro.core.sweep_kernel import UNREACHED
from repro.service.cluster import PlanCache, serve_worker
from repro.service.wire import matrix_to_spec, plan_fingerprint

# -- the sweep oracle ----------------------------------------------------------


def sweep_block_bignum(
    plan: SweepPlan,
    sources: Sequence[int],
    stats: dict[str, int] | None = None,
) -> np.ndarray:
    """The per-state Python-int sweep — the block-level oracle.

    A direct transcription of the waiting semantics: a heap of
    ``(date, node)`` states whose pending masks are arbitrary-precision
    ints over block positions.  Each pending ``(node, date)`` key gets
    exactly one heap entry (created with the key, merged silently
    after), including duplicate seed sources.  Pass a dict as ``stats``
    to collect ``pops``, ``dead_pops`` (entries whose mass was already
    consumed) and ``pushes`` (successor merges).
    """
    sources = tuple(sources)
    arrival = np.full((len(sources), plan.n), UNREACHED, dtype=np.int64)
    node_mask = [0] * plan.n
    pending: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int]] = []
    start = plan.start_time
    for row, node_idx in enumerate(sources):
        key = (node_idx, start)
        if key not in pending:
            heapq.heappush(heap, (start, node_idx))
            pending[key] = 0
        pending[key] |= 1 << row
    horizon = plan.horizon
    max_wait = plan.max_wait
    # The oracle's own per-node grouping of the stream: node j's
    # contacts as (departure, arrival, target), sorted by departure.
    leaving: list[list[tuple[int, int, int]]] = [[] for _ in range(plan.n)]
    for s, d, a, t in zip(
        plan.src.tolist(), plan.dep.tolist(), plan.arr.tolist(), plan.tgt.tolist()
    ):
        leaving[s].append((d, a, t))
    for row in leaving:
        row.sort()
    departures = [[d for d, _a, _t in row] for row in leaving]
    pops = dead_pops = push_count = 0
    while heap:
        time, node_idx = heapq.heappop(heap)
        mask = pending.pop((node_idx, time), 0)
        if not mask:
            dead_pops += 1
            continue
        pops += 1
        new = mask & ~node_mask[node_idx]
        if new:
            node_mask[node_idx] |= new
            while new:
                low = new & -new
                arrival[low.bit_length() - 1, node_idx] = time
                new ^= low
        if time >= horizon:
            continue
        latest = horizon if max_wait is None else min(horizon, time + max_wait + 1)
        dates = departures[node_idx]
        lo = bisect_left(dates, time)
        hi = bisect_left(dates, latest, lo)
        for _dep, arr, target in leaving[node_idx][lo:hi]:
            push_count += 1
            key = (target, arr)
            existing = pending.get(key)
            if existing is None:
                pending[key] = mask
                heapq.heappush(heap, (arr, target))
            elif existing | mask != existing:
                pending[key] = existing | mask
    if stats is not None:
        stats.update(pops=pops, dead_pops=dead_pops, pushes=push_count)
    return arrival


# -- cluster worker doubles ---------------------------------------------------


class FaultyWorker:
    """A TCP "sweep worker" that misbehaves on purpose — a chaos double.

    The executor's only correctness obligation is that worker failures
    never change an answer; this double injects the failure modes the
    fault-handling path must absorb, for the differential harness
    (``tests/properties/test_property_cluster.py``) and the cluster unit
    tests.  ``mode`` is mutable mid-run:

    * ``"kill"``     — accept the job, then close without answering;
    * ``"hang"``     — accept the job and hold the connection silently
      until :meth:`close` — the executor's *timeout* path must fire,
      however long its configured timeout is (an earlier build held
      only 10 s, so default-config chaos always manifested as EOF and
      the timeout-recovery branch went unexercised);
    * ``"corrupt"``  — answer with a line that is not JSON;
    * ``"misshape"`` — answer ``ok: true`` with a well-formed matrix
      spec of the wrong dimensions;
    * ``"stale-plan-version"`` — answer ``ok: true`` with a matrix of
      the *correct* shape but computed "from" a stale plan: the echoed
      fingerprint hashes a doctored plan spec.  Before fingerprint
      checking this was the silent-corruption hole — a shape check
      alone accepts the frame and stacks wrong numbers into the answer;
    * ``"plan-evicted"`` — answer *every* sweep job with a structured
      plan-miss frame, even one that just shipped the full plan.  The
      executor owes exactly one re-ship; a worker that claims eviction
      forever must become a local re-sweep, never a loop;
    * ``"steal-crash"`` — accept one job off the shared queue, then
      die completely: no answer, listener closed, every later connect
      refused.  The worst work-stealing case — a worker that grabs a
      block and takes it to the grave mid-sweep.

    Deliberately implemented on plain blocking sockets and threads, not
    asyncio: it must be able to violate the protocol in ways the real
    worker's framing never would.
    """

    def __init__(self, mode: str = "kill") -> None:
        self.mode = mode
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.address = f"127.0.0.1:{self.port}"
        self.jobs_seen = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="faulty-worker", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _peer = self._sock.accept()
            except OSError:  # listener closed
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _read_frame(self, conn) -> bytes | None:
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(1 << 16)
            if not chunk:
                return None
            data += chunk
        return data

    def _handle(self, conn) -> None:
        try:
            conn.settimeout(10)
            data = self._read_frame(conn)
            if data is None:
                return
            self.jobs_seen += 1
            mode = self.mode
            if mode == "hang":
                # Hold the connection until the double is closed: the
                # executor must recover via its own timeout, whatever
                # that timeout is — never via a premature EOF.
                self._stop.wait()
            elif mode == "corrupt":
                conn.sendall(b"{this is not json\n")
            elif mode == "misshape":
                request = json.loads(data)
                response = {
                    "id": request.get("id"),
                    "ok": True,
                    "result": {
                        "kind": "int64_matrix",
                        "rows": 1,
                        "cols": 1,
                        "data": "AAAAAAAAAAA=",  # one packed int64 zero
                    },
                }
                conn.sendall(json.dumps(response).encode() + b"\n")
            elif mode == "stale-plan-version":
                request = json.loads(data)
                plan_spec = request.get("plan") or {}
                sources = request.get("sources") or []
                # Right shape, wrong contents: zeros for the block, and
                # a fingerprint honestly computed — but from a plan one
                # version behind the one the executor shipped.
                stale_spec = dict(plan_spec)
                stale_spec["start"] = int(plan_spec.get("start", 0) or 0) - 1
                result = matrix_to_spec(
                    np.zeros((len(sources), int(plan_spec.get("n", 0) or 0)),
                             dtype=np.int64)
                )
                result["fingerprint"] = plan_fingerprint(stale_spec, (sources,))
                response = {"id": request.get("id"), "ok": True, "result": result}
                conn.sendall(json.dumps(response).encode() + b"\n")
            elif mode == "plan-evicted":
                # Claim eviction forever, even for jobs that carry the
                # full plan — including the executor's one repair
                # re-ship on this same connection.
                while data is not None:
                    request = json.loads(data)
                    response = {
                        "id": request.get("id"),
                        "ok": False,
                        "error": "PlanMissError: plan evicted (chaos)",
                    }
                    conn.sendall(json.dumps(response).encode() + b"\n")
                    data = self._read_frame(conn)
            elif mode == "steal-crash":
                # Die with the accepted block: close this connection
                # unanswered AND stop accepting new ones.  close() is
                # idempotent, so a second crash is a no-op.
                self.close()
            # "kill": fall through and close without a byte in reply.
        except OSError:  # pragma: no cover — peer raced the fault
            pass
        finally:
            conn.close()

    def __enter__(self) -> "FaultyWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._stop.set()
        self._sock.close()


class LoopbackWorkerPool:
    """``count`` in-process sweep workers on a background event loop.

    A context manager for tests and benchmarks that exercise the
    cluster path without deploying anything: the workers are real asyncio
    servers on loopback ports, indistinguishable on the wire from
    ``python -m repro worker`` processes — they just share this
    process's GIL, so they prove *plumbing*, not parallel speed-up.
    Each worker owns its own :class:`PlanCache` (pass ``plan_cache_size``
    to squeeze them for eviction tests).

    ::

        with LoopbackWorkerPool(2) as pool:
            cluster = ClusterExecutor(pool.addresses)
            nodes, matrix = engine.arrival_matrix(0, WAIT, horizon=20,
                                                  cluster=cluster)
    """

    def __init__(self, count: int = 2, plan_cache_size: int | None = None) -> None:
        self.count = count
        self.plan_cache_size = plan_cache_size
        self.addresses: list[str] = []
        self.plan_caches: list[PlanCache] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._servers: list[asyncio.AbstractServer] = []

    def __enter__(self) -> "LoopbackWorkerPool":
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="loopback-workers", daemon=True
        )
        self._thread.start()
        started.wait()
        try:
            for _ in range(self.count):
                cache = (
                    PlanCache()
                    if self.plan_cache_size is None
                    else PlanCache(max_plans=self.plan_cache_size)
                )
                server = asyncio.run_coroutine_threadsafe(
                    serve_worker(port=0, plan_cache=cache), self._loop
                ).result(timeout=10)
                self._servers.append(server)
                self.plan_caches.append(cache)
                host, port = server.sockets[0].getsockname()[:2]
                self.addresses.append(f"{host}:{port}")
        except BaseException:
            # A failed bind mid-startup must not leak the loop thread or
            # the servers that did come up — __exit__ will never run.
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        loop = self._loop
        if loop is None:
            return

        async def shutdown() -> None:
            for server in self._servers:
                server.close()
                await server.wait_closed()

        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        loop.close()
        self._servers.clear()
        self._loop = None
        self._thread = None
