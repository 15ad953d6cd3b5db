"""The ``sharded`` backend: work-stealing shard workers + part files.

Cells are *content-hashed* onto ``config.shards`` home shards (stable:
the same plan always shards the same way, independent of plan order or
machine).  One long-lived worker process per shard executes cells and
streams each finished record to its own JSONL **part file** — the
crash-tolerance layer: a sweep killed at any point loses at most the
cells in flight, and the next run adopts every completed part-file
record before executing anything.

Scheduling is a coordinator-served **work-stealing** pull model: workers
request work; the coordinator serves from the worker's home queue first
and otherwise steals from the *longest* other queue, so a straggler
shard (e.g. one whose cells are all huge instances) is drained by idle
shards instead of serializing the sweep.  Steals are counted in
``stats["steals"]``.

Fault tolerance is per cell.  Each worker talks to the coordinator over
its own pipe, and the coordinator waits on every pipe and every process
sentinel at once, so a dead worker can break only its own channel.  A
worker that dies mid-cell (OOM, SIGKILL, solver segfault) shows up as
EOF on its pipe or as an exited process; the in-flight cell is
**requeued** with an incremented ``attempt`` up to ``retry_limit``, and
a replacement worker is spawned.  A cell that keeps killing workers is
**quarantined** as an ERROR record after the budget is exhausted — the
sweep always completes.

Emit order is *deterministic*: completed records are merged and yielded
in cache-key order, so the canonical record stream (and hence the
canonical JSONL file) is byte-identical regardless of steal order,
shard count, or which worker executed which cell.  Live progress still
flows through the sink in completion order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
from collections import deque
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import get_tracer, merge_sidecar, sidecar_path, worker_trace_scope
from repro.runner.backends.base import (
    BackendConfig,
    ExecutionBackend,
    RecordSink,
    execute_cell,
    register_backend,
    spec_payload,
    worker_failure_record,
)
from repro.runner.plan import RunSpec, cache_key
from repro.runner.records import iter_jsonl

__all__ = ["ShardedBackend", "home_shard"]

logger = logging.getLogger(__name__)


def home_shard(key: str, shards: int) -> int:
    """Stable content-hash shard assignment for one cell key."""
    digest = hashlib.sha256(key.encode()).hexdigest()
    return int(digest[:8], 16) % shards


def _mp_context():
    # fork keeps parent-registered algorithms and in-memory repositories
    # visible to workers; fall back to the platform default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _shard_worker(shard, conn, part_path, repository):
    """Worker loop: receive payloads on ``conn`` until the ``None``
    sentinel, answering each with ``(key, record)`` on the same pipe.

    Each finished record is appended (and flushed) to this shard's part
    file *before* the result message is sent, so a record is never lost
    between execution and acknowledgement.

    The pipe is this worker's alone: a worker that dies at any point —
    mid-solve, mid-send — can break only its own channel, which the
    coordinator reads as EOF and handles like any other crash.

    When the (fork-inherited) tracer is enabled, the worker streams its
    spans to a per-shard **trace sidecar** next to the part file — same
    append-and-flush discipline, so a killed worker's trace survives up
    to its last completed span; the coordinator merges every sidecar
    into the parent trace after the deterministic record merge.
    """
    trace_path = sidecar_path(Path(part_path).parent, shard)
    memo: Dict[str, Any] = {}  # one-entry parse memo (see execute_cell)
    try:
        with open(part_path, "a") as part, \
                worker_trace_scope(trace_path, shard=shard):
            while True:
                payload = conn.recv()
                if payload is None:
                    return
                record = execute_cell(payload, repository, memo)
                part.write(
                    json.dumps(record, sort_keys=True, default=str) + "\n"
                )
                part.flush()
                conn.send((payload["key"], record))
    except (KeyboardInterrupt, EOFError, ConnectionError) as exc:
        # Deliberate kill / coordinator gone: nothing to requeue from in
        # here (the coordinator handles the in-flight cell), but the
        # exit is recorded rather than silently dropped (REP005).
        logger.debug("shard %d worker exiting on %r", shard, exc)


class _Worker:
    """Coordinator-side handle for one shard worker process and the
    duplex pipe the two talk over."""

    def __init__(self, ctx, shard: int, part_path, repository):
        self.shard = shard
        self.conn, child_conn = ctx.Pipe()
        self.busy: Optional[Tuple[RunSpec, int]] = None
        self.parked = False
        self.process = ctx.Process(
            target=_shard_worker,
            args=(shard, child_conn, part_path, repository),
            daemon=True,
        )
        self.process.start()
        # Only the worker may hold the child end: its exit then closes
        # the pipe, and the coordinator reads EOF.
        child_conn.close()

    def send(self, payload: Optional[dict]) -> None:
        try:
            self.conn.send(payload)
        except OSError as exc:
            # The worker is gone (broken pipe).  Its EOF and sentinel
            # wake the coordinator, which handles the in-flight cell.
            logger.debug("shard %d: send failed: %r", self.shard, exc)

    def stop(self, terminate: bool) -> None:
        if self.process.exitcode is None:
            if terminate:
                self.process.terminate()
            else:
                self.send(None)

    def reap(self) -> None:
        self.process.join(timeout=5)
        if self.process.exitcode is None:  # pragma: no cover
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


@register_backend
class ShardedBackend(ExecutionBackend):
    name = "sharded"

    def run(
        self,
        pending: Iterable[RunSpec],
        *,
        repository=None,
        sink: RecordSink,
        config: BackendConfig,
    ) -> Iterator[Tuple[RunSpec, dict]]:
        specs = list(pending)
        stats = config.stats
        stats.setdefault("steals", 0)
        stats.setdefault("retries", 0)
        stats.setdefault("quarantined", 0)
        stats.setdefault("part_recovered", 0)
        stats.setdefault("respawns", 0)
        if not specs:
            return

        part_dir = config.part_dir
        if part_dir is None:
            raise ValueError(
                "sharded backend needs a part-file directory "
                "(BackendConfig.part_dir)"
            )
        part_dir = Path(part_dir)
        part_dir.mkdir(parents=True, exist_ok=True)

        shards = max(1, min(config.shards, len(specs)))
        stats["shards"] = shards
        cells_by_shard: Dict[int, int] = {s: 0 for s in range(shards)}
        stats["cells_by_shard"] = cells_by_shard
        by_key: Dict[str, RunSpec] = {spec.key: spec for spec in specs}
        results: Dict[str, dict] = {}

        # --- crash recovery: adopt completed records from part files of a
        # previous (killed) run of this sweep before executing anything.
        for part_path in sorted(part_dir.glob("shard-*.part.jsonl")):
            for obj in iter_jsonl(part_path):
                try:
                    key = cache_key(
                        obj["instance_hash"], obj["algorithm"],
                        obj.get("params") or {},
                    )
                except (KeyError, TypeError):
                    continue
                if key in by_key and key not in results and \
                        obj.get("status") == "ok":
                    results[key] = obj
                    stats["part_recovered"] += 1
                    sink.emit(by_key[key], obj)

        queues: List[Deque[Tuple[RunSpec, int]]] = [
            deque() for _ in range(shards)
        ]
        for spec in specs:
            if spec.key not in results:
                queues[home_shard(spec.key, shards)].append((spec, 0))

        ctx = _mp_context()
        part_paths = [
            part_dir / f"shard-{shard:03d}.part.jsonl"
            for shard in range(shards)
        ]
        workers: Dict[int, _Worker] = {}

        def spawn(shard: int) -> None:
            worker = workers[shard] = _Worker(
                ctx, shard, part_paths[shard], repository
            )
            dispatch(worker)

        def next_item(shard: int) -> Optional[Tuple[RunSpec, int]]:
            """Own queue first, else steal from the longest other queue."""
            if queues[shard]:
                return queues[shard].popleft()
            victims = [
                s for s in range(shards) if s != shard and queues[s]
            ]
            if not victims:
                return None
            victim = max(victims, key=lambda s: (len(queues[s]), -s))
            stats["steals"] += 1
            return queues[victim].popleft()

        def dispatch(worker: _Worker) -> None:
            item = next_item(worker.shard)
            if item is None:
                worker.parked = True
                return
            spec, attempt = item
            worker.busy = item
            worker.parked = False
            worker.send(
                spec_payload(
                    spec,
                    backend=self.name,
                    shard=worker.shard,
                    attempt=attempt,
                    repository=repository,
                    # Deferred payloads are fetched *inside* the worker,
                    # so shard workers overlap their repository IO.
                    resolve=False,
                )
            )

        def complete(key: str, record: dict) -> None:
            if key in results:
                return  # late duplicate after a requeue race
            results[key] = record
            sink.emit(by_key[key], record)

        def lost(worker: _Worker) -> None:
            """A worker died: requeue or quarantine its in-flight cell,
            and spawn a replacement while work remains."""
            shard = worker.shard
            worker.reap()
            item, worker.busy = worker.busy, None
            if item is not None and item[0].key not in results:
                spec, attempt = item
                if attempt >= config.retry_limit:
                    stats["quarantined"] += 1
                    complete(
                        spec.key,
                        worker_failure_record(
                            spec,
                            f"worker crashed (exit "
                            f"{worker.process.exitcode}); cell "
                            f"quarantined after {attempt + 1} attempts",
                            backend=self.name,
                            shard=shard,
                            attempt=attempt,
                        ).to_dict(),
                    )
                else:
                    stats["retries"] += 1
                    queues[home_shard(spec.key, shards)].append(
                        (spec, attempt + 1)
                    )
            del workers[shard]
            if len(results) < len(specs):
                stats["respawns"] += 1
                spawn(shard)
            for other in workers.values():
                if other.parked:
                    dispatch(other)

        def service(worker: _Worker) -> None:
            """Take every result waiting on the worker's pipe, handing
            it its next cell after each; a closed pipe or an exited
            process is a crash."""
            try:
                while worker.conn.poll():
                    key, record = worker.conn.recv()
                    worker.busy = None
                    cells_by_shard[worker.shard] += 1
                    complete(key, record)
                    if len(results) < len(specs):
                        dispatch(worker)
            except (EOFError, OSError) as exc:
                logger.debug("shard %d pipe closed: %r", worker.shard, exc)
                lost(worker)
                return
            if worker.process.exitcode is not None:
                lost(worker)

        interrupted = False
        try:
            for shard in range(shards):
                spawn(shard)
            while len(results) < len(specs):
                handles = [w.conn for w in workers.values()] + [
                    w.process.sentinel for w in workers.values()
                ]
                ready = wait(handles)
                for worker in list(workers.values()):
                    if workers.get(worker.shard) is worker and (
                        worker.conn in ready
                        or worker.process.sentinel in ready
                    ):
                        service(worker)
        except KeyboardInterrupt:
            # Ctrl-C in the coordinator: terminate the workers promptly
            # (they may be mid-solve and would otherwise be orphaned or
            # block teardown on the graceful sentinel), keep every part
            # file on disk — each holds a complete record per line, so
            # the next resume adopts the finished prefix — and re-raise
            # so the caller sees the interrupt.
            interrupted = True
            stats["interrupted"] = True
            raise
        finally:
            for worker in workers.values():
                worker.stop(terminate=interrupted)
            for worker in workers.values():
                worker.reap()

        # --- deterministic merge: the canonical record stream is ordered
        # by cache key, independent of steal/completion order.
        for spec in sorted(specs, key=lambda s: s.key):
            yield spec, results[spec.key]

        # Fold worker trace sidecars (if tracing is on) into the parent
        # trace, then remove them alongside the part files.  Volatile
        # telemetry only: the record stream above is already complete.
        tracer = get_tracer()
        if tracer.enabled:
            for trace_path in sorted(part_dir.glob("shard-*.trace.jsonl")):
                merge_sidecar(tracer, trace_path)
            tracer.add_counters("sharded", stats)
        for trace_path in part_dir.glob("shard-*.trace.jsonl"):
            try:
                trace_path.unlink()
            except OSError as exc:  # pragma: no cover
                logger.debug("could not remove %s: %r", trace_path, exc)

        # The canonical stream has been fully consumed (the engine writes
        # each record before pulling the next): the part files are now
        # redundant and a fresh resume reads the canonical file instead.
        for part_path in part_dir.glob("shard-*.part.jsonl"):
            try:
                part_path.unlink()
            except OSError as exc:  # pragma: no cover
                stats["part_cleanup_errors"] = (
                    stats.get("part_cleanup_errors", 0) + 1
                )
                logger.debug("could not remove %s: %r", part_path, exc)
        try:
            part_dir.rmdir()
        except OSError as exc:
            # Non-empty (a foreign file, or a part file that survived the
            # unlink above) or concurrently recreated; harmless either way.
            logger.debug("part dir %s not removed: %r", part_dir, exc)
