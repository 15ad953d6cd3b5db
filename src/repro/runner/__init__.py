"""Parallel batch-sweep runner.

The runner is the substrate for experiment sweeps: a
:class:`~repro.runner.repository.InstanceRepository` names the
instances, a :class:`~repro.runner.plan.WorkPlan` spans the cartesian
product ``instances × algorithms × params``, and
:func:`~repro.runner.engine.run_plan` executes the plan — in process,
or across shard worker processes — streaming one JSONL
:class:`~repro.runner.records.RunRecord` per cell and skipping cells a
previous run already completed (content-addressed cache).

Quickstart::

    from repro.runner import InstanceRepository, WorkPlan, run_plan

    repo = InstanceRepository.from_families(
        ["uniform", "big_jobs"], [2, 4], [8], [0, 1]
    )
    plan = WorkPlan.from_product(repo, ["three_halves", "five_thirds"])
    result = run_plan(plan, "results.jsonl", workers=4)
    worst = max(r.ratio for r in result.ok_records)

CLI equivalent: ``python -m repro sweep`` (see ``--help``).

Execution is delegated to a pluggable backend
(:mod:`repro.runner.backends`): ``serial`` (the in-process reference)
or ``sharded`` (work-stealing shard workers with crash requeue and
part-file merging, selected by ``workers > 1``) — or name one with
``run_plan(..., backend="sharded", shards=4)`` or
``python -m repro sweep --backend sharded --shards 4``.  The
content-addressed resume cache is backend-independent: a sweep started
on ``serial`` resumes on ``sharded``.

:mod:`repro.runner.perf` tracks the repo's wall-clock trajectory:
``python -m repro bench`` writes a machine-readable
``BENCH_runtime_scaling.json`` (per-size median solve times, optional
speedup deltas against a committed baseline).
"""

from repro.runner.backends import (
    BackendConfig,
    ExecutionBackend,
    available_backends,
    get_backend,
)
from repro.runner.engine import SweepResult, run_plan
from repro.runner.perf import (
    load_bench_json,
    run_runtime_scaling,
    write_bench_json,
)
from repro.runner.plan import (
    DuplicateCellWarning,
    RunSpec,
    WorkPlan,
    cache_key,
    instance_content_hash,
)
from repro.runner.records import RunRecord, canonical_stream, read_records
from repro.runner.repository import InstanceRef, InstanceRepository

__all__ = [
    "BackendConfig",
    "DuplicateCellWarning",
    "ExecutionBackend",
    "InstanceRef",
    "InstanceRepository",
    "RunRecord",
    "RunSpec",
    "SweepResult",
    "WorkPlan",
    "available_backends",
    "cache_key",
    "canonical_stream",
    "get_backend",
    "instance_content_hash",
    "load_bench_json",
    "read_records",
    "run_plan",
    "run_runtime_scaling",
    "write_bench_json",
]
