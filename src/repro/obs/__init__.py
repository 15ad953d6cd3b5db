"""Unified tracing & metrics for the repro codebase.

``repro.obs`` is a zero-dependency observability layer threaded through
every subsystem: the solver kernels, the incremental EPTAS, the sweep
execution backends, and the scheduler service.  It records

* **spans** — nested wall-clock intervals measured with
  ``time.perf_counter`` (monotonic; never the wall clock, per lint
  REP002): ``solve → eptas.search → eptas.ip_solve``,
  ``sweep.cell → sweep.fetch / sweep.solve``,
  ``service.batch → service.dispatch / service.persist`` — and
* **counters / gauges / latency histograms** — kernel heap pushes,
  frontier queries, conflict-scan steps, signature-memo and resume
  cache hits, sharded steals/requeues/quarantines, admission queue
  depth and backpressure events, per-request service latency
  percentiles.

The contract (enforced by lint REP002 and the CI ``obs`` job):

* Telemetry is **volatile**.  It must never reach
  ``RunRecord.canonical_dict`` / ``canonical_stream`` — canonical
  record output is byte-identical with tracing enabled or disabled.
* The disabled path is a no-op cheap enough to leave compiled in:
  :data:`NULL_TRACER` is a singleton whose ``span`` returns a shared
  no-op context manager, and the bench ``obs`` suite gates its
  overhead at ≤2% in CI.

Enable with ``--trace PATH`` on ``repro solve/sweep/bench/serve`` or
the ``REPRO_TRACE`` environment variable (``1`` to trace in memory,
a path to also dump JSONL at process exit).  Export with
``python -m repro trace summarize|export``.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_ENV,
    NullTracer,
    Tracer,
    get_tracer,
    merge_sidecar,
    percentiles,
    set_tracer,
    sidecar_path,
    trace_scope,
    tracing_enabled,
    worker_trace_scope,
)
from repro.obs.export import (
    chrome_trace,
    load_trace,
    phase_totals,
    summarize_trace,
    write_chrome_trace,
)

__all__ = [
    "NULL_TRACER",
    "TRACE_ENV",
    "NullTracer",
    "Tracer",
    "chrome_trace",
    "get_tracer",
    "load_trace",
    "merge_sidecar",
    "percentiles",
    "phase_totals",
    "set_tracer",
    "sidecar_path",
    "summarize_trace",
    "trace_scope",
    "tracing_enabled",
    "worker_trace_scope",
    "write_chrome_trace",
]
