"""The wire side: a ``repro serve`` subprocess and closed-loop lanes.

Nothing here imports ``repro``.  The server runs as a child of the
pinned benchmark process, so it inherits the same one-CPU affinity.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

from measure import vm_hwm_mb

_READY = re.compile(r"serving .* on \('127\.0\.0\.1', (\d+)\)")
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child: ask for SIGTERM when the benchmark dies, so a
    killed run leaves no server behind."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``python -m repro serve`` child process on an ephemeral port."""

    def __init__(self, root: Path, args: list[str], timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + timeout
        self.port = None
        for line in self.proc.stdout:
            match = _READY.search(line)
            if match:
                self.port = int(match.group(1))
                break
            if time.monotonic() > deadline:
                break
        if self.port is None:
            self.close()
            raise RuntimeError(f"repro serve {' '.join(args)} never became ready")

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MiB."""
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def call(sock: socket.socket, frame: bytes) -> dict:
    """One blocking request/response round trip (set-up and stats)."""
    sock.sendall(frame)
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return json.loads(buf)


class Lane:
    """One connection driven as a closed loop: the next request goes
    out only after the previous response arrived, plus the next think
    time from ``pauses`` when given.

    An op may span ``group`` consecutive requests; a lane never stops
    in the middle of one.  Every response line is kept raw and checked
    after the timed phase; ``latencies`` holds the client-observed
    round trip of each request.
    """

    def __init__(
        self,
        sock: socket.socket,
        requests: Iterator[bytes],
        pauses: Iterator[float] | None = None,
        group: int = 1,
    ) -> None:
        self.sock = sock
        self.requests = requests
        self.pauses = pauses
        self.group = group
        self.sent: list[bytes] = []
        self.responses: list[bytes] = []
        self.latencies: list[float] = []
        self._buf = b""
        self._sent_at = 0.0
        self._due = 0.0

    def send(self) -> None:
        frame = next(self.requests)
        self.sent.append(frame)
        self._sent_at = time.perf_counter()
        self.sock.sendall(frame)

    def receive(self) -> bool:
        """Read what arrived; True once a whole response is in."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk
        if not self._buf.endswith(b"\n"):
            return False
        now = time.perf_counter()
        self.latencies.append(now - self._sent_at)
        self.responses.append(self._buf[:-1])
        self._buf = b""
        if self.pauses is not None:
            self._due = now + next(self.pauses)
        return True


def drive(lanes: list[Lane], seconds: float) -> float:
    """Run every lane's closed loop for ``seconds``, then let each
    finish its op in flight.  Returns the wall time taken."""
    selector = selectors.DefaultSelector()
    began = time.perf_counter()
    deadline = began + seconds
    waiting: list[Lane] = []
    try:
        for lane in lanes:
            selector.register(lane.sock, selectors.EVENT_READ, lane)
            lane.send()
        busy = len(lanes)
        while busy or waiting:
            timeout = None
            if waiting:
                timeout = max(0.0, min(lane._due for lane in waiting) - time.perf_counter())
            for key, _events in selector.select(timeout):
                lane = key.data
                if not lane.receive():
                    continue
                busy -= 1
                if time.perf_counter() < deadline or len(lane.responses) % lane.group:
                    if lane.pauses is not None:
                        waiting.append(lane)
                    else:
                        lane.send()
                        busy += 1
            now = time.perf_counter()
            for lane in [w for w in waiting if w._due <= now]:
                waiting.remove(lane)
                if now < deadline or len(lane.responses) % lane.group:
                    lane.send()
                    busy += 1
    finally:
        selector.close()
    return time.perf_counter() - began
