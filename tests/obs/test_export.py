"""Exporter tests: summarize, phase totals and the Chrome trace-event
format (the ``repro trace`` CLI's engine).

The Chrome export contract is structural: a Perfetto/chrome://tracing
loadable JSON object with ``traceEvents`` — ``"M"`` process-name
metadata, ``"X"`` complete events with microsecond ``ts``/``dur``, and
one final ``"i"`` instant event carrying the metrics snapshot.
"""

import json
from fractions import Fraction

import repro
from repro.obs import (
    Tracer,
    chrome_trace,
    load_trace,
    phase_totals,
    set_tracer,
    summarize_trace,
    trace_scope,
    write_chrome_trace,
)
from repro.util.optional import milp_modules
from repro.workloads import generate


def _sample_trace(tmp_path):
    with trace_scope(tmp_path / "t.trace.jsonl") as tracer:
        with tracer.span("solve", instance="demo"):
            with tracer.span("eptas.classify"):
                pass
        tracer.count("kernel.placements", 9)
        tracer.gauge("service.queue_depth", 2)
        tracer.latency("service.request_ms", 12.5)
    return load_trace(tmp_path / "t.trace.jsonl")


def _validate_chrome_schema(doc):
    """Structural validation of trace-event JSON (the CI schema check)."""
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert isinstance(events, list) and events
    phases = {"M", "X", "i"}
    pids = set()
    for event in events:
        assert event["ph"] in phases
        assert isinstance(event["pid"], int)
        pids.add(event["pid"])
        if event["ph"] == "M":
            assert event["name"] == "process_name"
            assert "name" in event["args"]
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert isinstance(event["name"], str)
        if event["ph"] == "i":
            assert event["s"] == "g"
    # Every pid used by an event has a process_name metadata entry.
    named = {e["pid"] for e in events if e["ph"] == "M"}
    assert pids <= named


class TestSummarize:
    def test_sections_present(self, tmp_path):
        trace = _sample_trace(tmp_path)
        text = summarize_trace(trace)
        assert "solve" in text
        assert "kernel.placements" in text
        assert "service.queue_depth" in text
        assert "service.request_ms" in text

    def test_empty_trace(self):
        text = summarize_trace(
            {"events": [], "counters": {}, "gauges": {}, "latency_ms": {}}
        )
        assert "(no spans)" in text

    def test_phase_totals_prefix_filter(self, tmp_path):
        trace = _sample_trace(tmp_path)
        totals = phase_totals(trace["events"], prefix="eptas.")
        assert set(totals) == {"eptas.classify"}
        assert totals["eptas.classify"]["count"] == 1


class TestChromeExport:
    def test_schema(self, tmp_path):
        trace = _sample_trace(tmp_path)
        _validate_chrome_schema(chrome_trace(trace))

    def test_write_is_valid_json(self, tmp_path):
        trace = _sample_trace(tmp_path)
        out = tmp_path / "chrome.json"
        write_chrome_trace(trace, out)
        _validate_chrome_schema(json.loads(out.read_text()))

    def test_eptas_solve_shows_per_guess_ip_spans(self, tmp_path):
        # The acceptance criterion: a Chrome export of an EPTAS solve
        # contains the per-guess decision spans.  On the MILP backend
        # the greedy pack decides the guesses and ``eptas.ip_solve`` is
        # the compressed finalize; on backtracking every guess is an
        # ``eptas.ip_solve``.
        inst = generate("small_jobs", 2, 8, 0)
        path = tmp_path / "eptas.trace.jsonl"
        with trace_scope(path):
            repro.solve(
                inst,
                algorithm="eptas",
                epsilon=Fraction(1, 2),
                mode="augmentation",
            )
        doc = chrome_trace(load_trace(path))
        _validate_chrome_schema(doc)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "eptas.ip_solve" in names
        if milp_modules() is not None:
            assert "eptas.pack" in names
        assert "eptas.classify" in names
        assert "eptas.solve" in names

    def test_shard_processes_get_own_pids(self):
        events = [
            {"name": "a", "ts": 0.0, "dur": 1.0, "depth": 0,
             "proc": "main", "shard": None},
            {"name": "b", "ts": 0.5, "dur": 0.2, "depth": 0,
             "proc": "shard-1", "shard": 1},
        ]
        doc = chrome_trace(
            {"events": events, "counters": {}, "gauges": {},
             "latency_ms": {}}
        )
        xs = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert xs["a"]["pid"] != xs["b"]["pid"]
        assert xs["a"]["pid"] == 1  # "main" is always process 1


class TestTracedSolveCounters:
    def test_solve_promotes_kernel_counters(self):
        inst = generate("uniform", 4, 12, 0)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            result = repro.solve(inst, algorithm="class_greedy")
        finally:
            set_tracer(previous)
        shim = result.stats.get("kernel", result.stats.get("dispatch"))
        assert shim is not None
        for key, value in shim.items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            assert tracer.counters[f"kernel.{key}"] == value
