"""The scheduler service: a long-running solve server.

:class:`SchedulerService` is "an engine that never exits": a master
thread accepts connections on a TCP socket, connection handlers decode
line-delimited JSON request frames (:mod:`repro.service.protocol`),
admission control bounds the in-flight work
(:mod:`repro.service.admission`), and a single dispatcher thread drains
fair batches of pending requests, coalesces compatible solve requests
into one :class:`~repro.runner.plan.WorkPlan`, and executes it through
the unchanged batch engine (:func:`repro.runner.engine.run_plan`) and
its pluggable :class:`~repro.runner.backends.ExecutionBackend`.

Three properties fall out of reusing the engine instead of re-solving
per request:

* **Cache hits without a solve** — :class:`~repro.service.cache.ResultStore`
  holds every successful record in memory over an append-only JSONL
  file, so a repeat request is answered at admission time (``result``
  frame, ``"cached": true``) without touching the queue or a solver,
  and each batch persists only its new records, so what a request
  costs does not grow with the stored history.
* **Batching** — solve requests pending at dispatch time become cells
  of one plan, paying plan/cache/backend setup once per batch instead
  of once per request; identical concurrent requests coalesce into a
  single cell whose result is fanned back out to every waiter.
* **Canonical records** — a service-produced result file is
  byte-identical (in canonical form) to the batch sweep that would have
  produced it, because it *is* the batch path.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.core.instance import Instance
from repro.obs import get_tracer, percentiles
from repro.runner import (
    InstanceRepository,
    RunRecord,
    SweepResult,
    WorkPlan,
    cache_key,
    instance_content_hash,
    run_plan,
)
from repro.service.admission import AdmissionFull, AdmissionQueue
from repro.service.cache import ResultStore
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    validate_request,
)

__all__ = ["SchedulerService"]


class _ClientConn:
    """One accepted connection: a locked sender plus client identity.

    The handler thread and the dispatcher thread both write response
    frames to the same socket; the lock keeps frames line-atomic.
    """

    def __init__(self, conn: socket.socket, client_id: str, stats: dict) -> None:
        self.conn = conn
        self.client_id = client_id
        self._stats = stats
        self._lock = threading.Lock()
        self._dead = False

    def send(self, frame: Dict[str, Any]) -> bool:
        """Send one frame; a client that vanished mid-stream is recorded
        in the service counters, not raised into the dispatcher."""
        with self._lock:
            if self._dead:
                return False
            try:
                self.conn.sendall(encode_frame(frame))
                return True
            except OSError:
                # Client went away between admission and reply: drop the
                # frame, count it, and stop writing to this socket.
                self._dead = True
                self._stats["send_failures"] = (
                    self._stats.get("send_failures", 0) + 1
                )
                return False

    def close(self) -> None:
        with self._lock:
            self._dead = True
            try:
                self.conn.close()
            except OSError:
                pass  # already torn down by the peer


class _Ticket:
    """One admitted request waiting for the dispatcher."""

    def __init__(self, client: _ClientConn, frame: Dict[str, Any]) -> None:
        self.client = client
        self.frame = frame
        self.request_id = frame["id"]
        self.kind = frame["type"]
        self.key: Optional[str] = None  # solve tickets only
        # Monotonic admission stamp: progress/result frames report
        # ``elapsed_ms`` relative to this (volatile telemetry — see the
        # protocol module docstring).
        self.admitted_at = time.monotonic()


def _elapsed_ms(t0: float) -> float:
    return round((time.monotonic() - t0) * 1000.0, 3)


class SchedulerService:
    """Long-running scheduler master (see the module docstring).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    results_path:
        The service's JSONL result file — the record format a batch
        ``repro sweep -o`` writes — loaded once at start, appended to
        by every batch and reused across restarts (see
        :class:`~repro.service.cache.ResultStore`).  ``None`` keeps
        results in memory only, so cache hits span the process
        lifetime; a path is strongly recommended.
    backend, workers, shards:
        Passed through to :func:`~repro.runner.engine.run_plan` for
        every dispatched batch.
    queue_limit, per_client_limit:
        Admission bounds (see :class:`~repro.service.admission.AdmissionQueue`).
    batch_window_s:
        How long the dispatcher waits for further requests once the
        queue is non-empty, trading a little latency for batching.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        results_path: Optional[Union[str, Path]] = None,
        backend: Optional[str] = None,
        workers: int = 1,
        shards: Optional[int] = None,
        queue_limit: int = 64,
        per_client_limit: Optional[int] = None,
        batch_window_s: float = 0.02,
    ) -> None:
        self.host = host
        self.port = port
        self.results_path = Path(results_path) if results_path else None
        self.backend = backend
        self.workers = workers
        self.shards = shards
        self.batch_window_s = batch_window_s
        self.admission = AdmissionQueue(
            limit=queue_limit, per_client_limit=per_client_limit
        )
        self.store = ResultStore(self.results_path)
        self.stats: Dict[str, Any] = {
            "requests": 0,
            "cache_hits": 0,
            "solved": 0,
            "errors": 0,
            "batches": 0,
            "coalesced": 0,
            "rejected": 0,
        }
        self._listener: Optional[socket.socket] = None
        # The acceptor and the dispatcher.
        self._threads: List[threading.Thread] = []
        # Live connections and their handler threads; a handler removes
        # its own entry when its connection ends.
        self._clients: Dict[_ClientConn, threading.Thread] = {}
        self._clients_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._started_at: Optional[float] = None
        self._client_seq = 0
        # Per-request latency samples (ms, admission -> final frame),
        # bounded; the `stats` request reports their percentiles.
        self._latencies: Deque[float] = deque(maxlen=4096)
        self._latency_lock = threading.Lock()

    def _note_latency(self, ms: float) -> None:
        with self._latency_lock:
            self._latencies.append(ms)
        get_tracer().latency("service.request_ms", ms)

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    @property
    def address(self) -> Tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("service is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "SchedulerService":
        """Bind, listen, and spin up the acceptor + dispatcher threads."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        self._listener = listener
        self._started_at = time.monotonic()
        for name, target in (
            ("repro-service-accept", self._accept_loop),
            ("repro-service-dispatch", self._dispatch_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) lands."""
        self._shutdown.wait()
        self._join()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the queue, join."""
        self._initiate_shutdown()
        self._join()

    def _initiate_shutdown(self) -> None:
        self._shutdown.set()
        self.admission.close()
        if self._listener is not None:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked in accept() (the in-flight syscall keeps
            # the listening socket alive), so the port would stay open
            # and the acceptor would never observe the shutdown event.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not connected / already shut down — both fine here
            try:
                self._listener.close()
            except OSError:
                pass  # double-close race with the acceptor is benign

    def _join(self) -> None:
        self._initiate_shutdown()
        # Acceptor and dispatcher first: the dispatcher drains the queue
        # and still needs live client sockets to deliver the final
        # result frames.
        for thread in self._threads:
            thread.join(timeout=10)
        with self._clients_lock:
            clients = dict(self._clients)
        for client in clients:
            # Unblocks handler threads parked in their read loop.
            client.close()
        for handler in clients.values():
            handler.join(timeout=10)

    def __enter__(self) -> "SchedulerService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- #
    # Acceptor + per-connection handler
    # ----------------------------------------------------------------- #

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                # Listener closed by shutdown — the loop condition is
                # about to observe the event and exit.
                continue
            # Frames are small and written one by one: without NODELAY,
            # Nagle's algorithm holds each reply behind the client's
            # delayed ACK of the previous frame (~40 ms per request).
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._client_seq += 1
            client = _ClientConn(
                conn, f"client-{self._client_seq}", self.stats
            )
            handler = threading.Thread(
                target=self._handle_client,
                args=(client,),
                name=f"repro-service-{client.client_id}",
                daemon=True,
            )
            with self._clients_lock:
                self._clients[client] = handler
            handler.start()

    def _handle_client(self, client: _ClientConn) -> None:
        reader = client.conn.makefile("rb")
        try:
            while True:
                line = reader.readline(MAX_FRAME_BYTES)
                if not line:
                    break
                if len(line) == MAX_FRAME_BYTES and not line.endswith(b"\n"):
                    # The rest of the frame is still unread, so the
                    # stream cannot be resynchronized: answer and hang up.
                    self.stats["oversized_frames"] = (
                        self.stats.get("oversized_frames", 0) + 1
                    )
                    client.send(
                        {
                            "type": "error",
                            "id": "?",
                            "message": (
                                f"frame exceeds {MAX_FRAME_BYTES} bytes"
                            ),
                        }
                    )
                    break
                if not line.strip():
                    continue
                try:
                    frame = validate_request(decode_frame(line))
                except ProtocolError as exc:
                    client.send(
                        {"type": "error", "id": "?", "message": str(exc)}
                    )
                    continue
                self.stats["requests"] += 1
                self._handle_request(client, frame)
                if frame["type"] == "shutdown":
                    break
        except OSError:
            # Connection reset mid-read: the client is gone; its queued
            # tickets (if any) still run and their replies are dropped
            # by the dead-sender guard.
            self.stats["recv_failures"] = (
                self.stats.get("recv_failures", 0) + 1
            )
        finally:
            try:
                reader.close()
            except OSError:
                pass  # socket already reset by the peer
            client.close()
            with self._clients_lock:
                self._clients.pop(client, None)

    def _handle_request(
        self, client: _ClientConn, frame: Dict[str, Any]
    ) -> None:
        kind = frame["type"]
        request_id = frame["id"]
        if kind == "status":
            client.send(self._status_frame(request_id))
            return
        if kind == "stats":
            client.send(self._stats_frame(request_id))
            return
        if kind == "cancel":
            removed = self.admission.cancel(
                client.client_id,
                lambda ticket: ticket.request_id == frame["target"],
            )
            client.send(
                {"type": "cancelled", "id": request_id, "ok": removed > 0}
            )
            return
        if kind == "shutdown":
            client.send({"type": "bye", "id": request_id})
            self._initiate_shutdown()
            return
        if kind == "solve":
            self._admit_solve(client, frame)
            return
        # kind == "sweep" (validate_request admits nothing else)
        self._admit(client, _Ticket(client, frame))

    def _admit_solve(self, client: _ClientConn, frame: Dict[str, Any]) -> None:
        request_id = frame["id"]
        try:
            instance = Instance.from_dict(frame["instance"])
        except (KeyError, TypeError, ValueError) as exc:
            client.send(
                {
                    "type": "error",
                    "id": request_id,
                    "message": f"bad instance payload: {exc}",
                }
            )
            self.stats["errors"] += 1
            return
        key = cache_key(
            instance_content_hash(instance),
            frame["algorithm"],
            frame.get("params") or {},
        )
        received = time.monotonic()
        hit = self.store.get(key)
        if hit is not None:
            # The fast path the service exists for: an identical request
            # was already solved — answer from the store, no queue, no
            # solver.
            self._send_stored(client, request_id, hit, received)
            return
        ticket = _Ticket(client, frame)
        ticket.key = key
        self._admit(client, ticket)

    def _send_stored(
        self,
        client: _ClientConn,
        request_id: str,
        record: RunRecord,
        since: float,
    ) -> None:
        """Answer a solve request with a stored record (a cache hit)."""
        self.stats["cache_hits"] += 1
        get_tracer().count("service.cache_hits")
        elapsed = _elapsed_ms(since)
        self._note_latency(elapsed)
        client.send(
            {
                "type": "result",
                "id": request_id,
                "cached": True,
                "elapsed_ms": elapsed,
                "record": record.to_dict(),
            }
        )

    def _admit(self, client: _ClientConn, ticket: _Ticket) -> None:
        try:
            self.admission.submit(client.client_id, ticket)
        except AdmissionFull as exc:
            self.stats["rejected"] += 1
            client.send(
                {
                    "type": "busy",
                    "id": ticket.request_id,
                    "reason": str(exc),
                }
            )
            return
        client.send(
            {
                "type": "accepted",
                "id": ticket.request_id,
                "key": ticket.key,
            }
        )

    def _status_frame(self, request_id: str) -> Dict[str, Any]:
        frame = {
            "type": "status",
            "id": request_id,
            "queue_depth": self.admission.depth,
            "cached_results": len(self.store),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }
        frame.update(self.stats)
        return frame

    def _stats_frame(self, request_id: str) -> Dict[str, Any]:
        """The ``stats`` response: a metrics snapshot with per-request
        latency percentiles.  All values are volatile telemetry."""
        with self._latency_lock:
            samples = list(self._latencies)
        counters = {
            key: value
            for key, value in sorted(self.stats.items())
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        return {
            "type": "stats",
            "id": request_id,
            "metrics": {
                "counters": counters,
                "queue_depth": self.admission.depth,
                "backpressure_events": self.admission.backpressure_events,
                "cached_results": len(self.store),
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "latency_ms": percentiles(samples),
            },
        }

    # ----------------------------------------------------------------- #
    # Dispatcher: fair batches -> one WorkPlan -> run_plan
    # ----------------------------------------------------------------- #

    def _dispatch_loop(self) -> None:
        while True:
            batch = self.admission.next_batch(timeout=0.2)
            if batch is None:
                return  # closed and drained
            if not batch:
                continue
            if self.batch_window_s > 0:
                # Small batching window: requests racing in right behind
                # this batch join it instead of paying their own plan.
                time.sleep(self.batch_window_s)
                extra = self.admission.next_batch(timeout=0)
                if extra:
                    batch.extend(extra)
            self.stats["batches"] += 1
            solves = [t for _cid, t in batch if t.kind == "solve"]
            sweeps = [t for _cid, t in batch if t.kind == "sweep"]
            with get_tracer().span(
                "service.batch", solves=len(solves), sweeps=len(sweeps)
            ):
                if solves:
                    self._dispatch_solves(solves)
                for ticket in sweeps:
                    self._dispatch_sweep(ticket)

    def _dispatch_solves(self, tickets: List[_Ticket]) -> None:
        repo = InstanceRepository()
        plan = WorkPlan()
        waiters: Dict[str, List[_Ticket]] = {}
        named_hashes: Dict[str, str] = {}
        for ticket in tickets:
            if ticket.key in waiters:
                # Identical request already a cell of this batch: the
                # extra waiter just fans out the same record.
                self.stats["coalesced"] += 1
                waiters[ticket.key].append(ticket)
                continue
            stored = self.store.peek(ticket.key)
            if stored is not None:
                # An earlier batch stored this key after the ticket was
                # admitted (two clients raced on one instance): serve it,
                # do not solve it again.
                self._send_stored(
                    ticket.client, ticket.request_id, stored, ticket.admitted_at
                )
                continue
            waiters[ticket.key] = [ticket]
            instance = Instance.from_dict(ticket.frame["instance"])
            content_hash = instance_content_hash(instance)
            name = instance.name
            if named_hashes.get(name, content_hash) != content_hash:
                # Two different instances under one display name: keep
                # both, disambiguated by content hash.
                name = f"{name}@{content_hash[:8]}"
            if name not in named_hashes:
                named_hashes[name] = content_hash
                repo.add(instance, name=name)
            plan.add(
                repo.get(name),
                ticket.frame["algorithm"],
                ticket.frame.get("params") or {},
            )
        if not waiters:
            return

        def progress(record: RunRecord, done: int, total: int) -> None:
            for waiter in waiters.get(record.key, ()):
                waiter.client.send(
                    {
                        "type": "progress",
                        "id": waiter.request_id,
                        "done": done,
                        "total": total,
                        "elapsed_ms": _elapsed_ms(waiter.admitted_at),
                    }
                )

        result = self._run(plan, repo, progress)
        if result is None:
            for key_tickets in waiters.values():
                for waiter in key_tickets:
                    waiter.client.send(
                        {
                            "type": "error",
                            "id": waiter.request_id,
                            "message": "dispatch failed (see server log)",
                        }
                    )
            return
        self.stats["solved"] += result.executed
        self.stats["errors"] += result.errors
        by_key = {record.key: record for record in result.records}
        for key, key_tickets in waiters.items():
            record = by_key.get(key)
            for position, waiter in enumerate(key_tickets):
                if record is None:  # pragma: no cover - defensive
                    waiter.client.send(
                        {
                            "type": "error",
                            "id": waiter.request_id,
                            "message": "no record produced for request",
                        }
                    )
                    continue
                elapsed = _elapsed_ms(waiter.admitted_at)
                self._note_latency(elapsed)
                waiter.client.send(
                    {
                        "type": "result",
                        "id": waiter.request_id,
                        # Coalesced duplicates did not cause a solve of
                        # their own — report them as served, not solved.
                        "cached": position > 0,
                        "elapsed_ms": elapsed,
                        "record": record.to_dict(),
                    }
                )

    def _dispatch_sweep(self, ticket: _Ticket) -> None:
        frame = ticket.frame
        try:
            repo = InstanceRepository.from_families(
                frame.get("families") or ["uniform"],
                frame.get("machines") or [4],
                frame.get("sizes") or [10],
                frame.get("seeds") or [0],
            )
        except (KeyError, ValueError) as exc:
            self.stats["errors"] += 1
            ticket.client.send(
                {
                    "type": "error",
                    "id": ticket.request_id,
                    "message": f"bad sweep request: {exc}",
                }
            )
            return
        cells = WorkPlan.from_product(repo, frame["algorithms"])
        # Only the cells the store lacks are run; the rest are its hits.
        plan = WorkPlan()
        for spec in cells:
            if spec.key not in self.store:
                plan.add(repo.get(spec.instance_name), spec.algorithm, spec.params)

        def progress(record: RunRecord, done: int, total: int) -> None:
            ticket.client.send(
                {
                    "type": "progress",
                    "id": ticket.request_id,
                    "done": done,
                    "total": total,
                    "elapsed_ms": _elapsed_ms(ticket.admitted_at),
                }
            )

        result = self._run(plan, repo, progress) if len(plan) else SweepResult()
        if result is None:
            ticket.client.send(
                {
                    "type": "error",
                    "id": ticket.request_id,
                    "message": "dispatch failed (see server log)",
                }
            )
            return
        self.stats["solved"] += result.executed
        self.stats["errors"] += result.errors
        elapsed = _elapsed_ms(ticket.admitted_at)
        self._note_latency(elapsed)
        ticket.client.send(
            {
                "type": "sweep_result",
                "id": ticket.request_id,
                "executed": result.executed,
                "cache_hits": len(cells) - len(plan),
                "errors": result.errors,
                "cells": len(cells),
                "elapsed_ms": elapsed,
            }
        )

    def _run(self, plan: WorkPlan, repo, progress) -> Optional[SweepResult]:
        """Run the cells the store lacks, then append their successful
        records to it — one write and one fsync, before the caller sends
        any result frame.  A backend or disk failure must not kill the
        dispatcher thread (the service would wedge with a live queue)."""
        try:
            tracer = get_tracer()
            with tracer.span("service.dispatch", cells=len(plan)):
                result = run_plan(
                    plan,
                    None,
                    backend=self.backend,
                    workers=self.workers,
                    shards=self.shards,
                    repository=repo,
                    progress=progress,
                )
            with tracer.span("service.persist", records=len(result.records)):
                self.store.append(result.records)
            return result
        except Exception as exc:
            # Converted, not swallowed: counted in the stats and reported
            # to every waiter as an error frame by the caller.
            self.stats["dispatch_failures"] = (
                self.stats.get("dispatch_failures", 0) + 1
            )
            self.stats["last_dispatch_error"] = str(exc)
            return None
