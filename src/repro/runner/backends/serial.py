"""The ``serial`` backend: in-process, one cell at a time.

The debuggable reference implementation every other backend is measured
against — no subprocesses, no queues, completion order == plan order ==
emit order.  ``pdb`` works, tracebacks are local, and the canonical
record stream it produces is the golden stream the cross-backend
determinism tests compare ``sharded`` output to.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Tuple

from repro.runner.backends import base
from repro.runner.backends.base import (
    BackendConfig,
    ExecutionBackend,
    RecordSink,
    register_backend,
    spec_payload,
)
from repro.runner.plan import RunSpec

__all__ = ["SerialBackend"]


@register_backend
class SerialBackend(ExecutionBackend):
    name = "serial"

    def run(
        self,
        pending: Iterable[RunSpec],
        *,
        repository=None,
        sink: RecordSink,
        config: BackendConfig,
    ) -> Iterator[Tuple[RunSpec, dict]]:
        # Cell-level spans come from execute_cell itself (the serial
        # backend runs in-process, so they land in the active trace
        # directly — no sidecar needed).  The call goes through the
        # module attribute so a wrapper installed on
        # ``base.execute_cell`` (a profiler's, say) sees every cell.
        # One parse memo per run: consecutive cells on one instance (a
        # ``from_product`` plan lists them so) share one parse.
        memo: Dict[str, Any] = {}
        for spec in pending:
            payload = spec_payload(
                spec, backend=self.name, repository=repository
            )
            record = base.execute_cell(payload, repository, memo)
            sink.emit(spec, record)
            yield spec, record
