"""The service's result store: an append-only JSONL file mirrored in memory.

:class:`ResultStore` is the scheduler service's persistence layer.  It
reads its results file once, at start.  From then on a lookup is one
dict probe, and each dispatched batch appends only its new successful
records to the file — one write and one ``fsync``, before any result of
the batch is sent — so what a request costs does not grow with the
stored history ("serve, don't recompute").

The file is the same JSONL a batch ``repro sweep -o`` writes
(:mod:`repro.runner.records`), and loading makes it hold exactly the
store's records:

* a torn final line, which a kill mid-append leaves, is cut off, so the
  next append cannot join onto it;
* a leftover ``<out>.tmp`` staging file (a sweep or a compaction killed
  before its :func:`os.replace`) is adopted, as
  :func:`~repro.runner.engine.run_plan`'s resume adopts it: the records
  the file lacks are appended and the staging file is removed;
* a file holding error records, duplicate keys or unreadable lines (a
  batch sweep's output, say) is compacted once, through the engine's
  staging path: written to ``<out>.tmp``, fsynced, and moved over the
  file with :func:`os.replace`.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs import get_tracer
from repro.runner.engine import _fsync_dir, staging_path
from repro.runner.records import RunRecord

__all__ = ["ResultStore"]


def _parse(line: bytes) -> Optional[RunRecord]:
    """The record on one JSONL line, or ``None`` when it holds none."""
    try:
        return RunRecord.from_dict(json.loads(line.decode()))
    except (ValueError, KeyError, TypeError):
        return None


def _write_records(handle, records: Iterable[RunRecord]) -> None:
    """Write ``records`` with one call, then flush and fsync them."""
    handle.write("".join(record.to_json() + "\n" for record in records).encode())
    handle.flush()
    os.fsync(handle.fileno())


class ResultStore:
    """Thread-safe ``cache key -> RunRecord`` map over successful runs,
    persisted to an append-only JSONL file (see the module docstring).

    Only ``status="ok"`` records are stored: an error record must not
    shadow a future retry the way a success legitimately shadows a
    recompute.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, RunRecord] = {}
        self._lock = threading.Lock()
        # Serializes appends: two writers could otherwise both find a key
        # missing and write it twice.  Lookups only take ``_lock``, so
        # they never wait on the disk.
        self._append_lock = threading.Lock()
        if self.path is not None:
            self._load(self.path)

    # ----------------------------------------------------------------- #
    # Lookups
    # ----------------------------------------------------------------- #

    def get(self, key: str) -> Optional[RunRecord]:
        """Admission-time lookup, counted as a store hit or miss."""
        record = self.peek(key)
        get_tracer().count(
            "service.result_store_hits" if record is not None
            else "service.result_store_misses"
        )
        return record

    def peek(self, key: str) -> Optional[RunRecord]:
        """Lookup that leaves the hit and miss counters alone."""
        with self._lock:
            return self._records.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    # ----------------------------------------------------------------- #
    # Persistence
    # ----------------------------------------------------------------- #

    def append(self, records: Iterable[RunRecord]) -> int:
        """Store the successful records not stored yet; returns how many.

        With a path, they are first appended to the file in one write and
        fsynced, so a record is durable before any lookup can return it.
        """
        with self._append_lock:
            fresh: Dict[str, RunRecord] = {}
            with self._lock:
                for record in records:
                    key = record.key
                    if record.ok and key not in self._records:
                        fresh[key] = record
            if fresh and self.path is not None:
                with open(self.path, "ab") as handle:
                    _write_records(handle, fresh.values())
            with self._lock:
                self._records.update(fresh)
        return len(fresh)

    def _load(self, path: Path) -> None:
        """Read the file once and leave it holding exactly the store's
        records (see the module docstring)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        created = not path.exists()
        clean, cut, offset = True, None, 0
        if not created:
            with open(path, "rb") as handle:
                for line in handle:
                    if line.endswith(b"\n"):
                        if line.strip() and not self._adopt(line):
                            clean = False
                    elif _parse(line) is None:
                        # The final line, torn by a kill mid-append.
                        cut = offset
                    else:
                        # A whole final record without its newline:
                        # compaction writes it back terminated.
                        self._adopt(line)
                        clean = False
                    offset += len(line)
        staging = staging_path(path)
        adopted: List[RunRecord] = []
        if staging.exists():
            with open(staging, "rb") as handle:
                for line in handle:
                    record = _parse(line)
                    if record is not None and record.ok and record.key not in self._records:
                        self._records[record.key] = record
                        adopted.append(record)
        if not clean:
            self._compact(path, staging)
            return
        with open(path, "ab") as handle:
            if cut is not None:
                handle.truncate(cut)
            if adopted:
                _write_records(handle, adopted)
        if created:
            _fsync_dir(path.parent)
        staging.unlink(missing_ok=True)

    def _adopt(self, line: bytes) -> bool:
        """Store the record on ``line``; False when the line is not a
        stored record (unreadable, an error record, or a repeated key —
        the later record wins, as in :func:`~repro.runner.engine.run_plan`)."""
        record = _parse(line)
        if record is None or not record.ok:
            return False
        key = record.key
        repeated = key in self._records
        self._records[key] = record
        return not repeated

    def _compact(self, path: Path, staging: Path) -> None:
        """Rewrite the file as exactly the store's records, atomically."""
        with open(staging, "w") as handle:
            for record in self._records.values():
                handle.write(record.to_json() + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
        _fsync_dir(path.parent)
