"""The :class:`ExecutionBackend` protocol and shared cell machinery.

A backend is the strategy that turns a list of pending
:class:`~repro.runner.plan.RunSpec` cells into finished record dicts.
The engine (:func:`repro.runner.engine.run_plan`) owns everything
backends must agree on — resume/cache semantics, the canonical JSONL
output file, the in-memory result set — and delegates *execution order,
parallelism and fault handling* to the backend:

``run(pending, repository=…, sink=…, config=…)`` receives

* ``pending`` — an iterable of cells to execute (cache misses only),
  in plan order;
* ``repository`` — the instance source for deferred cells
  (``instance_payload is None``), or ``None`` when every payload is
  inline;
* ``sink`` — live completion notifications (``sink.emit(spec,
  record_dict)`` as each cell finishes, in completion order); and
* ``config`` — knobs (shard count, retry budget, part-file directory)
  plus a shared ``stats`` dict the backend annotates (steal counts,
  retries, …).

and *yields* ``(spec, record_dict)`` pairs in the backend's **emit
order** — the order the engine appends records to the canonical JSONL
file.  ``serial`` emits in plan order as each cell finishes;
``sharded`` streams to per-shard part files for crash tolerance and
emits the merged stream in cache-key order at the end, so its canonical
output is deterministic regardless of steal order.

Backends register themselves in :data:`BACKENDS` via
:func:`register_backend`; :func:`resolve_backend_name` implements the
engine's selection rule (explicit argument > ``REPRO_SWEEP_BACKEND``
env var > ``sharded`` when ``workers > 1`` else ``serial``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.obs import get_tracer
from repro.runner.plan import RunSpec
from repro.runner.records import RunRecord

if TYPE_CHECKING:
    from repro.runner.repository import InstanceRepository

_BackendT = TypeVar("_BackendT", bound=Type["ExecutionBackend"])

__all__ = [
    "BACKENDS",
    "BackendConfig",
    "ExecutionBackend",
    "RecordSink",
    "available_backends",
    "execute_cell",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "spec_payload",
    "worker_failure_record",
]

#: Environment overrides: force a backend (and shard count) for every
#: ``run_plan`` call that does not name one explicitly.  CI uses this to
#: run the whole tier-1 suite on the ``sharded`` backend.
BACKEND_ENV = "REPRO_SWEEP_BACKEND"
SHARDS_ENV = "REPRO_SWEEP_SHARDS"


@dataclass
class BackendConfig:
    """Execution knobs shared by every backend.

    ``stats`` is a plain dict the backend mutates in place; the engine
    surfaces it on :attr:`~repro.runner.engine.SweepResult.stats` so
    callers (CLI summary line, the ``--suite runner`` benchmark) can
    read steal counts, retries and quarantines without a second API.
    """

    shards: int = 2
    retry_limit: int = 2
    #: Directory for the sharded backend's per-shard part files (derived
    #: from the sweep's output path by the engine; a temp dir for
    #: in-memory sweeps).
    part_dir: Optional[Path] = None
    stats: Dict[str, Any] = field(default_factory=dict)


class RecordSink:
    """Live completion notifications (completion order, any shard).

    The engine's sink drives the user-facing ``progress`` callback; the
    separation from the yielded stream lets the sharded backend report
    cells as they finish while still emitting a deterministic canonical
    stream at merge time.
    """

    def emit(self, spec: RunSpec, record_dict: dict) -> None:  # pragma: no cover
        raise NotImplementedError


class NullSink(RecordSink):
    def emit(self, spec: RunSpec, record_dict: dict) -> None:
        pass


class ExecutionBackend:
    """Base class for execution backends (see module docstring)."""

    name: str = "?"

    def run(
        self,
        pending: Iterable[RunSpec],
        *,
        repository: Optional["InstanceRepository"] = None,
        sink: RecordSink,
        config: BackendConfig,
    ) -> Iterator[Tuple[RunSpec, dict]]:  # pragma: no cover
        raise NotImplementedError


BACKENDS: Dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(cls: _BackendT) -> _BackendT:
    """Class decorator: register an :class:`ExecutionBackend` by name."""
    BACKENDS[cls.name] = cls
    return cls


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def get_backend(name: str) -> ExecutionBackend:
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        ) from None
    return factory()


def resolve_backend_name(backend: Optional[str], workers: int) -> str:
    """Selection rule: explicit > env override > workers-based default."""
    if backend is not None and backend != "auto":
        return backend
    env = os.environ.get(BACKEND_ENV)
    if env:
        return env
    return "sharded" if workers > 1 else "serial"


def env_shards(default: int) -> int:
    value = os.environ.get(SHARDS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return default


def spec_payload(
    spec: RunSpec,
    *,
    backend: str,
    shard: Optional[int] = None,
    attempt: int = 0,
    repository: Optional["InstanceRepository"] = None,
    resolve: bool = True,
) -> dict:
    """The picklable work unit shipped to a worker for one cell.

    Deferred cells (no inline payload) are resolved through
    ``repository`` when ``resolve`` is true; with ``resolve=False`` the
    fetch is left to the worker process (the sharded backend does this
    so shard workers overlap their repository IO).  A fetch failure is
    carried in ``fetch_error`` rather than raised, so it surfaces as an
    ERROR record for that cell instead of killing the sweep.
    """
    payload = {
        "key": spec.key,
        "instance_name": spec.instance_name,
        "instance_hash": spec.instance_hash,
        "instance_payload": spec.instance_payload,
        "algorithm": spec.algorithm,
        "params": spec.params,
        "meta": spec.meta,
        "backend": backend,
        "shard": shard,
        "attempt": attempt,
    }
    if payload["instance_payload"] is None and resolve:
        if repository is None:
            payload["fetch_error"] = (
                f"cell {spec.instance_name!r} has a deferred payload but "
                "the sweep has no repository to fetch it from"
            )
        else:
            try:
                payload["instance_payload"] = repository.fetch_payload(
                    spec.instance_name
                )
            except Exception as exc:
                payload["fetch_error"] = (
                    f"instance fetch failed: {type(exc).__name__}: {exc}"
                )
    return payload


def execute_cell(
    payload: dict,
    repository: Optional["InstanceRepository"] = None,
    memo: Optional[Dict[str, Any]] = None,
) -> dict:
    """Run one cell; always returns a record dict (never raises).

    Module-level so it pickles into worker processes.  ``repository``
    serves deferred payloads the dispatcher chose not to resolve
    (worker-side fetch).

    ``memo`` is a one-entry parse cache that the caller keeps across
    calls, ``{instance_hash: Instance}``: a cell whose instance hash
    matches the entry reuses the parsed instance (and the aggregates it
    memoizes, such as the LPT order); any other cell parses its payload
    and replaces the entry.  One entry parses a run of consecutive cells
    on one instance once while holding a single instance in memory.
    """
    base = {
        "instance": payload["instance_name"],
        "instance_hash": payload["instance_hash"],
        "algorithm": payload["algorithm"],
        "params": payload["params"],
        "meta": payload["meta"],
        "backend": payload.get("backend"),
        "shard": payload.get("shard"),
        "attempt": payload.get("attempt", 0),
    }
    tracer = get_tracer()
    try:
        with tracer.span(
            "sweep.cell",
            instance=payload["instance_name"],
            algorithm=payload["algorithm"],
        ):
            if payload.get("fetch_error"):
                raise RuntimeError(payload["fetch_error"])
            instance_payload = payload["instance_payload"]
            if instance_payload is None:
                if repository is None:
                    raise RuntimeError(
                        "deferred payload reached execution without a "
                        "repository"
                    )
                with tracer.span(
                    "sweep.fetch", instance=payload["instance_name"]
                ):
                    instance_payload = repository.fetch_payload(
                        payload["instance_name"]
                    )
            from repro.core.instance import Instance
            from repro.core.validate import is_valid, validation_instance

            instance_hash = payload["instance_hash"]
            instance = None if memo is None else memo.get(instance_hash)
            if instance is None:
                instance = Instance.from_dict(instance_payload)
                if memo is not None:
                    memo.clear()
                    memo[instance_hash] = instance
            base.update(
                n=instance.num_jobs,
                m=instance.num_machines,
                classes=instance.num_classes,
            )
            from repro.algorithms import get_algorithm

            solver = get_algorithm(payload["algorithm"])
            start = time.perf_counter()
            with tracer.span(
                "sweep.solve", algorithm=payload["algorithm"]
            ):
                result = solver(instance, **payload["params"])
            wall = time.perf_counter() - start
            if tracer.enabled:
                # Promote the always-on kernel counters into the trace;
                # telemetry only — the record below never carries them.
                counters = (result.stats or {}).get(
                    "kernel", (result.stats or {}).get("dispatch")
                )
                if isinstance(counters, dict):
                    tracer.add_counters("kernel", counters)
                incremental = (result.stats or {}).get("incremental")
                if isinstance(incremental, dict):
                    tracer.add_counters("eptas", incremental)
            with tracer.span("sweep.emit"):
                target = validation_instance(instance, result.schedule)
                record = RunRecord(
                    instance=payload["instance_name"],
                    instance_hash=payload["instance_hash"],
                    algorithm=payload["algorithm"],
                    params=payload["params"],
                    status="ok",
                    n=instance.num_jobs,
                    m=instance.num_machines,
                    num_classes=instance.num_classes,
                    wall_time=wall,
                    makespan=result.makespan,
                    lower_bound=None
                    if result.lower_bound is None
                    else Fraction(result.lower_bound),
                    valid=is_valid(target, result.schedule),
                    backend=payload.get("backend"),
                    shard=payload.get("shard"),
                    attempt=payload.get("attempt", 0),
                    meta=payload["meta"],
                )
        return record.to_dict()
    except Exception as exc:
        tracer.count("sweep.cell_errors")
        base.setdefault("n", 0)
        base.setdefault("m", 0)
        base.setdefault("classes", 0)
        base.update(
            status="error",
            wall_time=0.0,
            error=f"{type(exc).__name__}: {exc}"[:500],
            schema=2,
        )
        return base


def worker_failure_record(
    spec: RunSpec,
    message: str,
    *,
    backend: str,
    shard: Optional[int] = None,
    attempt: int = 0,
) -> RunRecord:
    """Record for a cell whose *worker* died (result never came back)."""
    return RunRecord(
        instance=spec.instance_name,
        instance_hash=spec.instance_hash,
        algorithm=spec.algorithm,
        params=spec.params,
        status="error",
        n=0,
        m=0,
        num_classes=0,
        wall_time=0.0,
        error=f"worker failure: {message}"[:500],
        backend=backend,
        shard=shard,
        attempt=attempt,
        meta=spec.meta,
    )
