"""Client for the scheduler service.

:class:`ServiceClient` wraps one socket connection to a running
:class:`~repro.service.server.SchedulerService` and speaks the
line-delimited frame protocol (:mod:`repro.service.protocol`).  The
high-level calls (:meth:`ServiceClient.solve`, :meth:`sweep`,
:meth:`status`, …) block until the terminal frame for their request
arrives; the lower-level :meth:`submit_solve` / :meth:`collect` split
exposes the intermediate frames (``accepted``, ``busy``, ``progress``)
that the backpressure and cancellation tests assert on.

Usage::

    with ServiceClient(host, port) as client:
        outcome = client.solve(instance, "three_halves")
        outcome.record.makespan   # exact Fraction, same as the batch path
        outcome.cached            # True when served without a solve
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.runner.records import RunRecord
from repro.service.protocol import (
    cancel_request,
    decode_frame,
    encode_frame,
    shutdown_request,
    solve_request,
    stats_request,
    status_request,
    sweep_request,
)

__all__ = ["ServiceBusy", "ServiceError", "SolveOutcome", "ServiceClient"]


class ServiceError(RuntimeError):
    """The server answered with an ``error`` frame (or hung up)."""


class ServiceBusy(RuntimeError):
    """The server rejected the request with a ``busy`` frame
    (admission backpressure) — retry later."""


@dataclass
class SolveOutcome:
    """Terminal state of one solve request.

    ``elapsed_ms`` is the server-stamped admission-to-result latency
    (volatile telemetry; ``None`` when talking to a server that
    predates the field)."""

    record: RunRecord
    cached: bool
    request_id: str
    elapsed_ms: Optional[float] = None


class ServiceClient:
    """One connection to a scheduler service (not thread-safe)."""

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._seq = 0
        # Frames that arrived while collecting a different request.
        self._pending: Dict[str, List[Dict[str, Any]]] = {}

    # ----------------------------------------------------------------- #
    # Connection plumbing
    # ----------------------------------------------------------------- #

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            # Requests are small single writes; do not let Nagle's
            # algorithm hold one back behind the server's delayed ACK.
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            except OSError:
                pass  # peer already gone; nothing left to release
            self._sock = None
            self._reader = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next_id(self) -> str:
        self._seq += 1
        return f"req-{self._seq}"

    def _send(self, frame: Mapping[str, Any]) -> None:
        self.connect()
        self._sock.sendall(encode_frame(frame))

    def _recv_for(self, request_id: str) -> Dict[str, Any]:
        """Next frame addressed to ``request_id`` (other requests'
        frames are buffered for their own collectors)."""
        buffered = self._pending.get(request_id)
        if buffered:
            return buffered.pop(0)
        while True:
            line = self._reader.readline()
            if not line:
                raise ServiceError("server closed the connection")
            frame = decode_frame(line)
            if frame.get("id") == request_id:
                return frame
            self._pending.setdefault(frame.get("id", "?"), []).append(frame)

    # ----------------------------------------------------------------- #
    # Low-level request API (used by the backpressure/cancel tests)
    # ----------------------------------------------------------------- #

    def submit_solve(
        self,
        instance: Union[Mapping[str, Any], Any],
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Send a solve request without waiting; returns its id."""
        payload = (
            instance if isinstance(instance, Mapping) else instance.to_dict()
        )
        request_id = self._next_id()
        self._send(solve_request(request_id, payload, algorithm, params))
        return request_id

    def await_admission(self, request_id: str) -> Dict[str, Any]:
        """Block until the server's admission verdict for ``request_id``
        (``accepted``, ``busy``, or — for a cache hit — the immediate
        ``result``) and return that frame.  A terminal frame is pushed
        back so a later :meth:`collect` still sees it."""
        frame = self._recv_for(request_id)
        if frame["type"] not in ("accepted", "busy"):
            self._pending.setdefault(request_id, []).insert(0, frame)
        return frame

    def collect(
        self,
        request_id: str,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SolveOutcome:
        """Block until the terminal frame for ``request_id``."""
        while True:
            frame = self._recv_for(request_id)
            kind = frame["type"]
            if kind in ("accepted",):
                continue
            if kind == "progress":
                if on_progress is not None:
                    on_progress(frame)
                continue
            if kind == "result":
                return SolveOutcome(
                    record=RunRecord.from_dict(frame["record"]),
                    cached=bool(frame.get("cached")),
                    request_id=request_id,
                    elapsed_ms=frame.get("elapsed_ms"),
                )
            if kind == "busy":
                raise ServiceBusy(frame.get("reason", "service busy"))
            if kind == "error":
                raise ServiceError(frame.get("message", "unknown error"))
            raise ServiceError(f"unexpected frame {kind!r} for solve")

    # ----------------------------------------------------------------- #
    # High-level API
    # ----------------------------------------------------------------- #

    def solve(
        self,
        instance: Union[Mapping[str, Any], Any],
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> SolveOutcome:
        """Solve one instance on the service (blocking).

        Raises :class:`ServiceBusy` on admission backpressure and
        :class:`ServiceError` on protocol/solve failures.  A record with
        ``status="error"`` is returned, not raised — error records are
        data, exactly as in the batch engine.
        """
        request_id = self.submit_solve(instance, algorithm, params)
        return self.collect(request_id, on_progress=on_progress)

    def sweep(
        self,
        algorithms,
        *,
        families=("uniform",),
        machines=(4,),
        sizes=(10,),
        seeds=(0,),
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Run a family-grid sweep on the service; returns the summary
        frame (``executed``/``cache_hits``/``errors``/``cells``)."""
        request_id = self._next_id()
        self._send(
            sweep_request(
                request_id,
                algorithms,
                families=families,
                machines=machines,
                sizes=sizes,
                seeds=seeds,
            )
        )
        while True:
            frame = self._recv_for(request_id)
            kind = frame["type"]
            if kind in ("accepted",):
                continue
            if kind == "progress":
                if on_progress is not None:
                    on_progress(frame)
                continue
            if kind == "sweep_result":
                return frame
            if kind == "busy":
                raise ServiceBusy(frame.get("reason", "service busy"))
            if kind == "error":
                raise ServiceError(frame.get("message", "unknown error"))
            raise ServiceError(f"unexpected frame {kind!r} for sweep")

    def status(self) -> Dict[str, Any]:
        """Server counters (queue depth, cache size, hit/solve counts)."""
        request_id = self._next_id()
        self._send(status_request(request_id))
        frame = self._recv_for(request_id)
        if frame["type"] != "status":
            raise ServiceError(f"unexpected frame {frame['type']!r}")
        return frame

    def stats(self) -> Dict[str, Any]:
        """The server's metrics snapshot (request counters, queue depth,
        backpressure events, per-request latency percentiles)."""
        request_id = self._next_id()
        self._send(stats_request(request_id))
        frame = self._recv_for(request_id)
        if frame["type"] != "stats":
            raise ServiceError(f"unexpected frame {frame['type']!r}")
        return frame.get("metrics") or {}

    def cancel(self, target_request_id: str) -> bool:
        """Cancel a queued request; False when it already dispatched."""
        request_id = self._next_id()
        self._send(cancel_request(request_id, target_request_id))
        frame = self._recv_for(request_id)
        if frame["type"] != "cancelled":
            raise ServiceError(f"unexpected frame {frame['type']!r}")
        return bool(frame.get("ok"))

    def shutdown(self) -> None:
        """Ask the server to shut down gracefully (waits for ``bye``)."""
        request_id = self._next_id()
        self._send(shutdown_request(request_id))
        frame = self._recv_for(request_id)
        if frame["type"] != "bye":
            raise ServiceError(f"unexpected frame {frame['type']!r}")
