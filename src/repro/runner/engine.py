"""Batch sweep execution engine.

:func:`run_plan` executes every cell of a :class:`~repro.runner.plan.WorkPlan`
through a pluggable **execution backend** (see
:mod:`repro.runner.backends`): ``serial`` (in-process reference) or
``sharded`` (work-stealing shard workers with per-shard part files and
crash requeue).  Left unspecified, the backend follows the worker
count: inline for ``workers <= 1``, ``workers`` shards otherwise.

The engine owns what every backend must agree on:

* **Resumability** — before executing, the engine loads the output file
  (tolerating a torn final line) and skips every cell whose cache key
  already has a successful record.  Cache keys are content-addressed,
  so a sweep started on one backend resumes on any other; re-running a
  finished sweep is a 100% cache hit and touches no solver.
* **The canonical record stream** — one JSONL record per cell, streamed
  and flushed in the backend's emit order (plan order for ``serial``;
  deterministic cache-key order for ``sharded``'s merged part files).
* **Atomic finalization** — records are staged to a sibling
  ``<out>.tmp`` file and moved over the canonical path with
  :func:`os.replace` (after an fsync) only when the sweep completes.
  The canonical file therefore never holds a partially-written result
  set: a reader (an analysis job, a service starting on the file) sees
  either the previous complete sweep or the new one, never a torn
  intermediate.  A killed sweep leaves its staging file behind, and the
  next resume adopts the records it holds — crash-resume semantics are
  unchanged.  (The scheduler service does not finalize through here: it
  calls ``run_plan`` without an output file and appends to its own
  results file, see :mod:`repro.service.cache`.)
* **Failure isolation** — a cell that raises (unknown algorithm, solver
  bug, crashed worker) yields a ``status="error"`` record; the sweep
  always runs to completion and the error is data, not a crash.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs import get_tracer
from repro.runner.backends.base import (
    BACKEND_ENV,
    BackendConfig,
    RecordSink,
    env_shards,
    get_backend,
    resolve_backend_name,
)
from repro.runner.plan import WorkPlan
from repro.runner.records import RunRecord, iter_jsonl

__all__ = ["SweepResult", "run_plan", "staging_path"]


def staging_path(path: Union[str, Path]) -> Path:
    """The sibling file a sweep stages records in before the atomic
    :func:`os.replace` onto ``path`` (see the module docstring)."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so the rename that finalized a
    sweep survives a power loss (not supported on every platform)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # best-effort durability: the rename itself already happened
    finally:
        os.close(fd)


@dataclass
class SweepResult:
    """Outcome of one :func:`run_plan` call.

    ``records`` holds one record per plan cell, in plan order — cached
    records included, so the caller never needs to re-read the JSONL.
    ``backend`` names the backend that executed the pending cells and
    ``stats`` carries its counters (steals, retries, quarantined cells,
    …).
    """

    records: List[RunRecord] = field(default_factory=list)
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    out_path: Optional[Path] = None
    backend: str = "serial"
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok_records(self) -> List[RunRecord]:
        return [rec for rec in self.records if rec.ok]

    def error_summary(self) -> Dict[str, List[RunRecord]]:
        """Failed records grouped by algorithm (empty when all ok)."""
        failed: Dict[str, List[RunRecord]] = {}
        for rec in self.records:
            if not rec.ok:
                failed.setdefault(rec.algorithm, []).append(rec)
        return failed


def _load_completed(path: Path, retry_errors: bool) -> Dict[str, RunRecord]:
    """Index prior records by cache key; failed cells are dropped (and
    therefore retried) unless ``retry_errors`` is False."""
    from repro.runner.plan import cache_key

    completed: Dict[str, RunRecord] = {}
    for obj in iter_jsonl(path):
        try:
            record = RunRecord.from_dict(obj)
        except (KeyError, TypeError, ValueError):
            continue
        if retry_errors and not record.ok:
            continue
        completed[cache_key(record.instance_hash, record.algorithm, record.params)] = record
    return completed


class _ProgressSink(RecordSink):
    """Engine-side sink: fires the user progress callback per completed
    cell, in completion order (which for the sharded backend differs
    from the canonical emit order the JSONL file uses)."""

    def __init__(
        self,
        progress: Optional[Callable[[RunRecord, int, int], None]],
        total: int,
    ) -> None:
        self.progress = progress
        self.total = total
        self.done = 0

    def emit(self, spec, record_dict: dict) -> None:
        self.done += 1
        if self.progress is not None:
            self.progress(RunRecord.from_dict(record_dict), self.done, self.total)


def run_plan(
    plan: WorkPlan,
    out_path: Optional[Union[str, Path]] = None,
    *,
    workers: int = 1,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
    repository=None,
    retry_limit: int = 2,
    resume: bool = True,
    retry_errors: bool = True,
    progress: Optional[Callable[[RunRecord, int, int], None]] = None,
) -> SweepResult:
    """Execute a work plan, streaming records to ``out_path`` (JSONL).

    Parameters
    ----------
    out_path:
        JSONL result file.  With ``resume`` (the default) existing
        successful records act as a cache and are carried into the new
        result set; with ``resume=False`` every cell is re-executed and
        the file rewritten from scratch.  Either way the file is
        replaced *atomically* on completion (records stage in a sibling
        ``<out>.tmp``), so it always holds a complete result set; a
        killed sweep leaves the staging file for the next resume to
        adopt.  ``None`` keeps results in memory only.
    workers:
        Parallelism.  With ``backend`` unset, ``<= 1`` selects
        ``serial`` and ``> 1`` selects ``sharded`` with ``workers``
        shards.
    backend:
        Execution backend name (``serial``/``sharded``), or
        ``None``/``"auto"`` to apply the ``REPRO_SWEEP_BACKEND`` env
        override and then the workers-based default.
    shards:
        Shard count for the ``sharded`` backend (default: ``workers``
        when ``> 1``, else 2; ``REPRO_SWEEP_SHARDS`` overrides when the
        backend came from the environment).
    repository:
        Instance source for plans built with deferred payloads
        (``WorkPlan.from_product(..., defer_payloads=True)``); required
        only when the plan has deferred cells.
    retry_limit:
        How many times the sharded backend requeues a cell whose worker
        died before quarantining it as an ERROR record.
    retry_errors:
        Whether prior ``status="error"`` records are re-executed on
        resume (successful records are always reused).
    progress:
        Optional callback ``(record, done, total)`` fired per finished
        cell in completion order (cached cells are not reported).
    """
    path = Path(out_path) if out_path is not None else None
    tmp_path = staging_path(path) if path is not None else None
    completed: Dict[str, RunRecord] = {}
    staged_new = 0
    if path is not None and resume:
        if path.exists():
            completed = _load_completed(path, retry_errors)
        if tmp_path.exists():
            # Staging file of a sweep that was killed before finalizing:
            # adopt its completed records (they are newer than the
            # canonical file's) instead of re-executing them.
            staged = _load_completed(tmp_path, retry_errors)
            staged_new = sum(1 for key in staged if key not in completed)
            completed.update(staged)

    pending = [spec for spec in plan if spec.key not in completed]
    cache_hits = len(plan) - len(pending)
    tracer = get_tracer()
    tracer.count("sweep.resume_cache_hits", cache_hits)
    by_key: Dict[str, RunRecord] = {
        spec.key: completed[spec.key]
        for spec in plan
        if spec.key in completed
    }

    backend_name = resolve_backend_name(backend, workers)
    if shards is None:
        shards = workers if workers > 1 else 2
        if backend in (None, "auto") and os.environ.get(BACKEND_ENV):
            # Only an env-selected backend honors the env shard count;
            # an explicit backend argument keeps the workers-based
            # default unless shards is passed explicitly.
            shards = env_shards(shards)

    # The canonical file is written atomically: records are staged to a
    # sibling .tmp file (prior completed records first, then new ones as
    # they stream in) and os.replace()d over the canonical path only on
    # a completed sweep.  A kill at any point leaves the canonical file
    # exactly as the last finished sweep wrote it; the staging file's
    # completed prefix is adopted by the next resume.
    stage = bool(pending) or not resume or staged_new > 0
    out_handle = None
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        if stage:
            out_handle = open(tmp_path, "w")
            if resume:
                for record in completed.values():
                    out_handle.write(record.to_json() + "\n")
                out_handle.flush()
        elif tmp_path.exists():
            # Leftover staging file whose records are all already in the
            # canonical file: nothing to finalize, drop it.
            tmp_path.unlink()

    executed = 0
    sink = _ProgressSink(progress, len(pending))
    tmp_parts = None
    finished = False
    try:
        if pending:
            if path is not None:
                part_dir = path.parent / f"{path.name}.parts"
                if not resume and part_dir.exists():
                    # resume=False means "re-execute everything": stale
                    # part files from a killed sweep must not be adopted.
                    for leftover in part_dir.glob("shard-*.part.jsonl"):
                        leftover.unlink()
            else:
                tmp_parts = tempfile.TemporaryDirectory(prefix="repro-sweep-")
                part_dir = Path(tmp_parts.name)
            config = BackendConfig(
                shards=max(1, shards),
                retry_limit=retry_limit,
                part_dir=part_dir,
            )
            engine = get_backend(backend_name)
            with tracer.span(
                "sweep.run_plan",
                backend=backend_name,
                pending=len(pending),
                cache_hits=cache_hits,
            ):
                for spec, record_dict in engine.run(
                    pending, repository=repository, sink=sink, config=config
                ):
                    record = RunRecord.from_dict(record_dict)
                    by_key[spec.key] = record
                    executed += 1
                    if out_handle is not None:
                        out_handle.write(record.to_json() + "\n")
                        out_handle.flush()
            stats = config.stats
            # Cells adopted from leftover part files were completed by a
            # *previous* (killed) run, not executed now.
            executed -= stats.get("part_recovered", 0)
        else:
            stats = {}
        finished = True
    finally:
        if out_handle is not None:
            if finished:
                out_handle.flush()
                os.fsync(out_handle.fileno())
            out_handle.close()
            if finished:
                # Atomic promotion: the canonical path flips from the old
                # complete result set to the new one in one rename.
                os.replace(tmp_path, path)
                _fsync_dir(path.parent)
            # On failure/interrupt the staging file stays behind with
            # every record that completed — the next resume adopts it.
        if tmp_parts is not None:
            tmp_parts.cleanup()

    records = [by_key[spec.key] for spec in plan]
    return SweepResult(
        records=records,
        executed=executed,
        cache_hits=cache_hits,
        errors=sum(1 for rec in records if not rec.ok),
        out_path=path,
        backend=backend_name,
        stats=stats,
    )
