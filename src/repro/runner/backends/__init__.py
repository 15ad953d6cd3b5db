"""Pluggable execution backends for the sweep runner.

Two strategies behind one protocol (see :mod:`.base`):

=========== =========================================================
``serial``  in-process reference — plan order, fully debuggable
``sharded`` content-hashed shard workers, work-stealing dispatch,
            per-shard JSONL part files, crash requeue/quarantine,
            deterministic key-ordered merge
=========== =========================================================

Selection happens in :func:`repro.runner.engine.run_plan` via
:func:`~repro.runner.backends.base.resolve_backend_name`; the
``REPRO_SWEEP_BACKEND`` / ``REPRO_SWEEP_SHARDS`` environment variables
force a backend for every call that does not name one (CI runs the
tier-1 suite once on ``sharded`` this way).
"""

from repro.runner.backends.base import (
    BACKENDS,
    BackendConfig,
    ExecutionBackend,
    RecordSink,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.runner.backends.serial import SerialBackend
from repro.runner.backends.sharded import ShardedBackend, home_shard

__all__ = [
    "BACKENDS",
    "BackendConfig",
    "ExecutionBackend",
    "RecordSink",
    "SerialBackend",
    "ShardedBackend",
    "available_backends",
    "get_backend",
    "home_shard",
    "register_backend",
    "resolve_backend_name",
]
