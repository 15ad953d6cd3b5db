"""Layer wrappers for the traced run.

The traced run times each layer of the program from outside it:
:func:`install` replaces the public entry points of ``repro.service``,
``repro.runner``, ``repro.core``, ``repro.algorithms`` and
``repro.ptas`` with thin wrappers that record one span per call into a
:class:`Recorder`.  Spans nest per thread, so a span's self time is its
duration minus the spans nested in it.  Calls made once per stored
record (JSONL reads, record parses and writes) are not kept as spans of
their own: their count, time and self time fold into the enclosing
span, so a 2,000-record resume does not add thousands of events per
batch.

Span clocks are ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux, so spans recorded in the server process and samples taken by the
load generator share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

_clock = time.perf_counter

#: Layers whose self time the traced run reports.
LAYERS = ("service", "runner", "core", "algorithms", "ptas")

#: Spans that measure waiting for work, not work.
WAITING = ("service.next_batch",)

#: Kernel counters the program promotes into its obs trace.
KERNEL_COUNTERS = ("placements", "scan_steps", "frontier_queries", "frontier_updates")

ZERO = (0, 0.0, 0.0)


class Recorder:
    """Spans recorded by the wrappers of one process."""

    def __init__(self):
        self.events = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        frame = [name, _clock(), 0.0, {}]
        self._stack().append(frame)
        return frame

    def exit(self, frame, keep=True, info=None):
        end = _clock()
        stack = self._stack()
        stack.pop()
        name, start, child, agg = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        if keep or parent is None:
            event = {
                "name": name,
                "t0": start,
                "dur": dur,
                "self": dur - child,
                "thread": threading.get_ident(),
                "agg": agg,
            }
            if info:
                event["info"] = info
            with self._lock:
                self.events.append(event)
            return
        folded = parent[3]
        _fold(folded, name, 1, dur, dur - child)
        for sub, (count, sub_dur, sub_self) in agg.items():
            _fold(folded, sub, count, sub_dur, sub_self)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.events, handle)


def _fold(table, name, count, dur, self_s):
    entry = table.setdefault(name, [0, 0.0, 0.0])
    entry[0] += count
    entry[1] += dur
    entry[2] += self_s


def totals(events):
    """``name -> [calls, seconds, self seconds]`` over ``events`` and
    everything folded into them."""
    table = {}
    for event in events:
        _fold(table, event["name"], 1, event["dur"], event["self"])
        for name, (count, dur, self_s) in event["agg"].items():
            _fold(table, name, count, dur, self_s)
    return table


def in_windows(events, windows):
    """Events that started inside one of the ``(start, end)`` windows."""
    return [e for e in events if any(a <= e["t0"] <= b for a, b in windows)]


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #


def _timed(recorder, name, func, keep=True):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.exit(frame, keep)

    return wrapper


def _timed_steps(recorder, name, func):
    """Wrap a generator function: time each step that produces an item,
    not the consumer's work between items.  Each item is one call of
    ``name``; the final, empty step is one call of ``name + ".end"``."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        items = func(*args, **kwargs)
        while True:
            frame = recorder.enter(name)
            try:
                item = next(items)
            except StopIteration:
                frame[0] = name + ".end"
                recorder.exit(frame, keep=False)
                return
            except BaseException:
                recorder.exit(frame, keep=False)
                raise
            recorder.exit(frame, keep=False)
            yield item

    return wrapper


class _TimedFile:
    """A staging file whose writes and flushes are timed."""

    def __init__(self, handle, recorder):
        self._handle = handle
        self._recorder = recorder

    def _call(self, method, *args):
        frame = self._recorder.enter("runner.stage_write")
        try:
            return method(*args)
        finally:
            self._recorder.exit(frame, keep=False)

    def write(self, text):
        return self._call(self._handle.write, text)

    def flush(self):
        return self._call(self._handle.flush)

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


def _next_batch_wrapper(recorder, original):
    """``AdmissionQueue.next_batch``: record each returned ticket's age
    (its queue wait) and, for the dispatcher's follow-up call, the batch
    window since its first call returned."""
    local = threading.local()

    @functools.wraps(original)
    def next_batch(self, max_items=None, timeout=None):
        frame = recorder.enter("service.next_batch")
        batch = None
        try:
            batch = original(self, max_items, timeout)
            return batch
        finally:
            now = time.monotonic()
            follow_up = timeout == 0
            info = {"follow_up": follow_up, "tickets": []}
            if follow_up:
                info["window_ms"] = (frame[1] - getattr(local, "last", frame[1])) * 1e3
            for _client, ticket in batch or ():
                request = getattr(ticket, "frame", None) or {}
                admitted = getattr(ticket, "admitted_at", None)
                info["tickets"].append([
                    (request.get("instance") or {}).get("name"),
                    None if admitted is None else (now - admitted) * 1e3,
                ])
            recorder.exit(frame, keep=True, info=info)
            if batch and not follow_up:
                local.last = _clock()

    return next_batch


def _store_get_wrapper(recorder, original):
    @functools.wraps(original)
    def get(self, key):
        frame = recorder.enter("service.store_get")
        record = None
        try:
            record = original(self, key)
            return record
        finally:
            recorder.exit(frame, keep=True, info={"hit": record is not None})

    return get


def install(recorder):
    """Wrap every layer entry point in this process; returns a function
    that restores the originals."""
    import repro.algorithms as algorithms
    import repro.core.validate as validate
    import repro.ptas.ip as ip
    import repro.runner as runner
    import repro.runner.backends.base as backends_base
    import repro.runner.engine as engine
    import repro.runner.records as records
    import repro.service.client as client
    import repro.service.server as server
    from repro.core.instance import Instance
    from repro.runner.plan import WorkPlan
    from repro.runner.records import RunRecord
    from repro.service.admission import AdmissionQueue
    from repro.service.cache import ResultStore

    undo = []

    def patch(owner, attr, make):
        raw = vars(owner)[attr]
        undo.append((owner, attr, raw))
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def timed(name, keep=True):
        return lambda func: _timed(recorder, name, func, keep)

    # repro.service
    for module, name in ((server, "service.codec"), (client, "service.client_codec")):
        patch(module, "encode_frame", timed(name, keep=False))
        patch(module, "decode_frame", timed(name, keep=False))
    patch(AdmissionQueue, "next_batch", lambda f: _next_batch_wrapper(recorder, f))
    patch(ResultStore, "get", lambda f: _store_get_wrapper(recorder, f))
    patch(ResultStore, "__init__", timed("service.store_load"))

    # repro.runner
    for module in (server, engine, runner):
        patch(module, "run_plan", timed("runner.run_plan"))
    patch(WorkPlan, "from_product", timed("runner.plan_build"))
    patch(backends_base, "execute_cell", timed("runner.cell"))
    for module in (engine, records):
        patch(module, "iter_jsonl", lambda f: _timed_steps(recorder, "runner.resume_read", f))
    patch(RunRecord, "from_dict", timed("runner.record_parse", keep=False))
    patch(RunRecord, "to_json", timed("runner.stage_encode", keep=False))
    patch(os, "fsync", timed("runner.fsync", keep=False))
    patch(os, "replace", timed("runner.replace", keep=False))

    def staging_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        return _TimedFile(handle, recorder) if "w" in mode else handle

    # The engine opens its staging file with the builtin; a module global
    # of the same name shadows it for the engine alone.
    engine.open = staging_open

    # repro.core
    patch(Instance, "from_dict", timed("core.parse", keep=False))
    patch(validate, "is_valid", timed("core.validate", keep=False))
    patch(validate, "validate_schedule", timed("core.validate", keep=False))

    # repro.algorithms: every solver the registry hands out
    def get_algorithm_wrapper(original):
        @functools.wraps(original)
        def get_algorithm(name):
            return _timed(recorder, f"algorithms.{name}", original(name), keep=False)

        return get_algorithm

    patch(algorithms, "get_algorithm", get_algorithm_wrapper)

    # repro.ptas: the window IP that HiGHS solves
    patch(ip, "solve_window_ip_milp", timed("ptas.milp", keep=False))

    def restore():
        del engine.open
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


# ---------------------------------------------------------------------- #
# Per-layer metrics shared by the workloads
# ---------------------------------------------------------------------- #


def report_runner(run, table, units):
    """``runner.*`` per unit of work (a sweep pass or a service batch)."""

    def self_s(*names):
        return sum(table.get(name, ZERO)[2] for name in names) / units

    def calls(name):
        return table.get(name, ZERO)[0] / units

    run.layer("runner.resume_parse_s", self_s(
        "runner.resume_read", "runner.resume_read.end", "runner.record_parse"))
    run.layer("runner.resume_records", calls("runner.resume_read"))
    run.layer("runner.stage_write_s", self_s("runner.stage_encode", "runner.stage_write"))
    run.layer("runner.records_written", calls("runner.stage_encode"))
    run.layer("runner.fsync_s", self_s("runner.fsync"))
    run.layer("runner.fsyncs", calls("runner.fsync"))
    run.layer("runner.replace_s", self_s("runner.replace"))
    run.layer("runner.plan_build_s", self_s("runner.plan_build"))
    run.layer("runner.cell_self_s", self_s("runner.cell"))


def report_core(run, table, units):
    """``core.parse_*`` and ``core.validate_s`` per unit of work."""
    run.layer("core.parse_s", table.get("core.parse", ZERO)[2] / units)
    run.layer("core.parse_calls", table.get("core.parse", ZERO)[0] / units)
    run.layer("core.validate_s", table.get("core.validate", ZERO)[2] / units)


def report_kernel(run, counters, units):
    """The kernel counters the program promoted into its trace."""
    for key in KERNEL_COUNTERS:
        run.layer(f"core.kernel.{key}", counters.get(f"kernel.{key}", 0) / units if units else 0.0)


def report_self(run, table, units, wall, extra_service=0.0):
    """``<layer>.self_s`` per unit of work, and the share of ``wall``
    that no layer covers."""
    selfs = dict.fromkeys(LAYERS, 0.0)
    selfs["service"] = extra_service
    for name, (_count, _dur, self_s) in table.items():
        layer = name.split(".", 1)[0]
        if layer in selfs and name not in WAITING:
            selfs[layer] += self_s
    for layer in LAYERS:
        run.layer(f"{layer}.self_s", selfs[layer] / units)
    run.layer("unattributed_share", max(0.0, 1.0 - sum(selfs.values()) / wall))


def cross_check(run, label, wrapped, span_name, in_program, limit=0.05):
    """The wrappers' total must agree with the program's own spans."""
    gap = abs(wrapped - in_program) / in_program if in_program else 1.0
    run.note(f"cross-check {label} {wrapped:.6f} s vs {span_name} spans "
             f"{in_program:.6f} s: {gap:.2%} apart (limit {limit:.0%})")
    run.verify(gap <= limit, f"trace cross-check: {label} and {span_name} are {gap:.2%} apart")
