"""End-to-end tests of the scheduler service.

Everything runs in-process (server threads + client sockets over
loopback), so fake algorithms registered by the tests are visible to
the service's serial dispatch — which is how the cache-hit accounting
tests can assert *zero solver calls* with a counting shim.
"""

import os
import socket
import threading
import time

import pytest

from repro import Instance, solve
from repro.algorithms import registry
from repro.obs import trace_scope
from repro.runner import (
    InstanceRepository,
    RunRecord,
    WorkPlan,
    canonical_stream,
    read_records,
    run_plan,
)
from repro.service import (
    SchedulerService,
    ServiceBusy,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import decode_frame
from repro.workloads import generate


@pytest.fixture
def fake_algorithm():
    """Register a throwaway solver under a temporary name."""
    registered = []

    def _register(name, func):
        registry._REGISTRY[name] = func
        registered.append(name)
        return name

    yield _register
    for name in registered:
        registry._REGISTRY.pop(name, None)


@pytest.fixture
def service(tmp_path):
    svc = SchedulerService(
        results_path=tmp_path / "service.jsonl", batch_window_s=0.0
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def serial_service(tmp_path):
    """A service pinned to the in-process serial backend, for tests whose
    solver shims must run in this process whatever backend the
    environment selects."""
    svc = SchedulerService(
        results_path=tmp_path / "service.jsonl",
        backend="serial",
        batch_window_s=0.0,
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    host, port = service.address
    with ServiceClient(host, port, timeout=60.0) as cli:
        yield cli


@pytest.fixture
def serial_client(serial_service):
    host, port = serial_service.address
    with ServiceClient(host, port, timeout=60.0) as cli:
        yield cli


def _counting(counter):
    """A solver shim that counts invocations and delegates to merge_lpt."""

    def run(instance, **kwargs):
        counter["calls"] += 1
        return solve(instance, algorithm="merge_lpt")

    return run


class TestCacheHitAccounting:
    def test_second_identical_request_performs_zero_solver_calls(
        self, serial_client, fake_algorithm
    ):
        client = serial_client
        counter = {"calls": 0}
        fake_algorithm("_counted", _counting(counter))
        inst = generate("uniform", 3, 8, 0)

        progress_frames = []
        first = client.solve(inst, "_counted", on_progress=progress_frames.append)
        assert not first.cached
        assert first.record.ok
        assert counter["calls"] == 1
        # Progress frames streamed for the solved request.
        assert [f["type"] for f in progress_frames] == ["progress"]
        assert progress_frames[0]["done"] == progress_frames[0]["total"] == 1

        second = client.solve(inst, "_counted")
        assert second.cached
        assert counter["calls"] == 1  # zero additional solver calls
        assert second.record.makespan == first.record.makespan

        status = client.status()
        assert status["cache_hits"] == 1
        assert status["solved"] == 1

    def test_cached_requests_stream_no_progress(
        self, service, client, fake_algorithm
    ):
        counter = {"calls": 0}
        fake_algorithm("_counted2", _counting(counter))
        inst = generate("uniform", 2, 6, 1)
        client.solve(inst, "_counted2")
        frames = []
        outcome = client.solve(inst, "_counted2", on_progress=frames.append)
        assert outcome.cached and frames == []

    def test_distinct_params_are_distinct_cache_entries(
        self, serial_client, fake_algorithm
    ):
        client = serial_client
        counter = {"calls": 0}

        def run(instance, epsilon=None, **kwargs):
            counter["calls"] += 1
            return solve(instance, algorithm="merge_lpt")

        fake_algorithm("_parametric", run)
        inst = generate("uniform", 2, 6, 2)
        a = client.solve(inst, "_parametric", {"epsilon": 0.5})
        b = client.solve(inst, "_parametric", {"epsilon": 0.25})
        assert not a.cached and not b.cached
        assert counter["calls"] == 2

    def test_warm_restart_serves_from_the_results_file(
        self, tmp_path, fake_algorithm
    ):
        """A new service over an existing canonical file answers repeat
        requests without any solve — the cache survives restarts."""
        counter = {"calls": 0}
        fake_algorithm("_counted3", _counting(counter))
        inst = generate("uniform", 3, 8, 3)
        results = tmp_path / "service.jsonl"
        pinned = {"results_path": results, "backend": "serial"}
        with SchedulerService(**pinned) as first:
            with ServiceClient(*first.address) as cli:
                cli.solve(inst, "_counted3")
        assert counter["calls"] == 1
        with SchedulerService(**pinned) as second:
            with ServiceClient(*second.address) as cli:
                outcome = cli.solve(inst, "_counted3")
        assert outcome.cached
        assert counter["calls"] == 1

    def test_key_stored_after_admission_is_served_at_dispatch(
        self, serial_service, fake_algorithm
    ):
        """Two clients race on one instance across batches: the second
        request misses at admission (the first is still solving) and is
        answered from the store at dispatch, not solved again."""
        counter = {"calls": 0}
        started, release = threading.Event(), threading.Event()

        def gated(instance, **kwargs):
            counter["calls"] += 1
            started.set()
            release.wait(timeout=30)
            return solve(instance, algorithm="merge_lpt")

        fake_algorithm("_gated", gated)
        inst = generate("uniform", 3, 8, 9)
        service = serial_service
        host, port = service.address
        try:
            with trace_scope() as tracer, ServiceClient(
                host, port
            ) as first, ServiceClient(host, port) as second:
                ra = first.submit_solve(inst, "_gated")
                assert started.wait(timeout=30)
                rb = second.submit_solve(inst, "_gated")
                assert second.await_admission(rb)["type"] == "accepted"
                release.set()
                a, b = first.collect(ra), second.collect(rb)
        finally:
            release.set()
        assert not a.cached and b.cached
        assert counter["calls"] == 1
        assert b.record.canonical_dict() == a.record.canonical_dict()
        assert service.stats["cache_hits"] == 1
        assert service.stats["solved"] == 1
        # The dispatch-time check leaves the admission counters alone.
        assert tracer.counters["service.result_store_misses"] == 2
        assert "service.result_store_hits" not in tracer.counters
        assert tracer.counters["service.cache_hits"] == 1


class TestBatchingAndBackpressure:
    def _blocked_service(self, tmp_path, fake_algorithm, **kwargs):
        """A serial-backend service plus a registered solver that parks
        the dispatcher until ``release`` is set (started is set once it
        is running)."""
        started, release = threading.Event(), threading.Event()

        def blocker(instance, **kw):
            started.set()
            release.wait(timeout=30)
            return solve(instance, algorithm="merge_lpt")

        fake_algorithm("_blocker", blocker)
        svc = SchedulerService(
            results_path=tmp_path / "service.jsonl",
            backend="serial",
            batch_window_s=0.0,
            **kwargs,
        )
        svc.start()
        return svc, started, release

    def test_admission_backpressure_sends_busy(
        self, tmp_path, fake_algorithm
    ):
        svc, started, release = self._blocked_service(
            tmp_path, fake_algorithm, queue_limit=1
        )
        try:
            with ServiceClient(*svc.address) as cli:
                r1 = cli.submit_solve(generate("uniform", 2, 6, 0), "_blocker")
                assert started.wait(timeout=30)
                # Dispatcher is busy: the queue (depth 1) fills ...
                r2 = cli.submit_solve(generate("uniform", 2, 6, 1), "merge_lpt")
                # ... and the next request is rejected with `busy`.
                r3 = cli.submit_solve(generate("uniform", 2, 6, 2), "merge_lpt")
                with pytest.raises(ServiceBusy, match="full"):
                    cli.collect(r3)
                release.set()
                assert cli.collect(r1).record.ok
                assert cli.collect(r2).record.ok
                assert cli.status()["rejected"] == 1
        finally:
            release.set()
            svc.stop()

    def test_identical_concurrent_requests_coalesce_into_one_solve(
        self, tmp_path, fake_algorithm
    ):
        svc, started, release = self._blocked_service(tmp_path, fake_algorithm)
        counter = {"calls": 0}
        fake_algorithm("_counted4", _counting(counter))
        inst = generate("uniform", 2, 6, 4)
        try:
            with ServiceClient(*svc.address) as cli:
                r0 = cli.submit_solve(generate("uniform", 2, 6, 0), "_blocker")
                assert started.wait(timeout=30)
                # Both identical requests queue behind the blocker and
                # land in the same dispatch batch -> one plan cell.
                ra = cli.submit_solve(inst, "_counted4")
                rb = cli.submit_solve(inst, "_counted4")
                # Wait for both admission acks before unblocking, so the
                # requests are provably queued together.
                assert cli.await_admission(ra)["type"] == "accepted"
                assert cli.await_admission(rb)["type"] == "accepted"
                release.set()
                a, b = cli.collect(ra), cli.collect(rb)
                assert counter["calls"] == 1
                assert {a.cached, b.cached} == {False, True}
                assert a.record.makespan == b.record.makespan
                assert cli.collect(r0).record.ok
                assert cli.status()["coalesced"] == 1
        finally:
            release.set()
            svc.stop()

    def test_queued_request_can_be_cancelled(self, tmp_path, fake_algorithm):
        svc, started, release = self._blocked_service(tmp_path, fake_algorithm)
        try:
            with ServiceClient(*svc.address) as cli:
                r1 = cli.submit_solve(generate("uniform", 2, 6, 0), "_blocker")
                assert started.wait(timeout=30)
                r2 = cli.submit_solve(generate("uniform", 2, 6, 1), "merge_lpt")
                assert cli.cancel(r2) is True
                # A request that was never queued cannot be cancelled.
                assert cli.cancel("req-999") is False
                release.set()
                assert cli.collect(r1).record.ok
        finally:
            release.set()
            svc.stop()


class TestConcurrentClients:
    def test_parallel_clients_each_get_their_own_results(self, service):
        host, port = service.address
        outcomes = {}

        def run_client(tag, seed):
            with ServiceClient(host, port) as cli:
                inst = generate("uniform", 2, 6, seed)
                outcomes[tag] = (cli.solve(inst, "merge_lpt"), inst)

        threads = [
            threading.Thread(target=run_client, args=(f"c{i}", i))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(outcomes) == 4
        for tag, (outcome, inst) in outcomes.items():
            assert outcome.record.ok
            reference = solve(inst, algorithm="merge_lpt")
            assert outcome.record.makespan == reference.makespan


class TestRecordsMatchBatchPath:
    def test_service_canonical_stream_equals_batch_sweep(
        self, tmp_path, service
    ):
        """The service's result file is byte-identical (canonical form)
        to the batch sweep that would have produced the same cells —
        the service *is* the batch path behind a socket."""
        # Distinct display names: generated instances share one name per
        # family/size, and the batch repository requires unique names.
        instances = []
        for seed in range(3):
            payload = generate("uniform", 2, 6, seed).to_dict()
            payload["name"] = f"svc-u{seed}"
            instances.append(Instance.from_dict(payload))
        with ServiceClient(*service.address) as cli:
            for inst in instances:
                for algorithm in ("merge_lpt", "three_halves"):
                    assert cli.solve(inst, algorithm).record.ok

        batch_out = tmp_path / "batch.jsonl"
        repo = InstanceRepository()
        for inst in instances:
            repo.add(inst)
        plan = WorkPlan.from_product(repo, ["merge_lpt", "three_halves"])
        run_plan(plan, batch_out)

        service_stream = canonical_stream(read_records(service.results_path))
        batch_stream = canonical_stream(read_records(batch_out))
        assert service_stream == batch_stream


class TestFailureIsolation:
    def test_solver_error_comes_back_as_an_error_record(
        self, service, client, fake_algorithm
    ):
        def exploding(instance, **kwargs):
            raise RuntimeError("boom")

        fake_algorithm("_exploding_svc", exploding)
        outcome = client.solve(generate("uniform", 2, 6, 0), "_exploding_svc")
        assert not outcome.record.ok
        assert "boom" in outcome.record.error
        # The service survives: the next request still works.
        assert client.solve(generate("uniform", 2, 6, 1), "merge_lpt").record.ok

    def test_unknown_algorithm_is_an_error_record(self, service, client):
        outcome = client.solve(generate("uniform", 2, 6, 0), "_no_such_algo")
        assert not outcome.record.ok

    def test_bad_instance_payload_is_an_error_frame(self, service, client):
        with pytest.raises(ServiceError, match="bad instance payload"):
            client.solve({"jobs": "nope"}, "merge_lpt")

    def test_error_records_are_not_cached(
        self, serial_client, fake_algorithm
    ):
        client = serial_client
        attempts = {"calls": 0}

        def flaky(instance, **kwargs):
            attempts["calls"] += 1
            if attempts["calls"] == 1:
                raise RuntimeError("transient")
            return solve(instance, algorithm="merge_lpt")

        fake_algorithm("_flaky", flaky)
        inst = generate("uniform", 2, 6, 5)
        assert not client.solve(inst, "_flaky").record.ok
        # The retry is re-executed (no error-result cache hit) and wins.
        retry = client.solve(inst, "_flaky")
        assert retry.record.ok and not retry.cached
        assert attempts["calls"] == 2


class TestSweepRequests:
    def test_sweep_over_the_socket(self, service, client):
        progress = []
        summary = client.sweep(
            ["merge_lpt"],
            machines=(2,),
            sizes=(6,),
            seeds=(0, 1),
            on_progress=progress.append,
        )
        assert summary["executed"] == 2
        assert summary["errors"] == 0
        assert len(progress) == 2
        # A repeat sweep is served from the resume cache.
        again = client.sweep(["merge_lpt"], machines=(2,), sizes=(6,),
                             seeds=(0, 1))
        assert again["executed"] == 0
        assert again["cache_hits"] == 2


class TestSubmitCLI:
    """``repro submit`` driven against an in-process service."""

    @pytest.fixture
    def instance_file(self, tmp_path):
        import json

        inst = generate("uniform", 3, 6, 0)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(inst.to_dict()))
        return path

    def test_submit_solve_then_cache_hit(
        self, service, instance_file, capsys
    ):
        from repro.cli import main

        _host, port = service.address
        argv = [
            "submit", str(instance_file), "-a", "merge_lpt",
            "--port", str(port),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "ok (solved)" in first and "makespan" in first
        assert main(argv) == 0
        assert "ok (cache)" in capsys.readouterr().out

    def test_submit_status_and_refused_port(self, service, capsys):
        from repro.cli import main

        _host, port = service.address
        assert main(["submit", "--status", "--port", str(port)]) == 0
        assert "queue_depth" in capsys.readouterr().out
        # A port nobody listens on is a clean exit 2, not a traceback.
        dead_port = 1  # reserved tcpmux port: nothing listens there
        assert main(["submit", "--status", "--port", str(dead_port)]) == 2
        assert "no service" in capsys.readouterr().err

    def test_submit_requires_an_instance(self, service, capsys):
        from repro.cli import main

        _host, port = service.address
        assert main(["submit", "--port", str(port)]) == 2
        assert "instance file is required" in capsys.readouterr().err

    def test_serve_port_zero_is_valid_but_negative_is_not(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0"])
        assert args.port == 0
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["serve", "--port", "-1"])
        assert excinfo.value.code == 2


class TestTelemetry:
    def test_result_frames_carry_server_stamped_latency(
        self, service, client
    ):
        inst = generate("uniform", 3, 8, 5)
        outcome = client.solve(inst, "merge_lpt")
        assert isinstance(outcome.elapsed_ms, float)
        assert outcome.elapsed_ms >= 0.0
        # Cache hits are stamped too (admission -> cached answer).
        cached = client.solve(inst, "merge_lpt")
        assert cached.cached
        assert isinstance(cached.elapsed_ms, float)

    def test_progress_frames_carry_elapsed_ms(self, service, client):
        frames = []
        client.solve(
            generate("uniform", 2, 6, 6),
            "merge_lpt",
            on_progress=frames.append,
        )
        assert frames
        for frame in frames:
            assert isinstance(frame["elapsed_ms"], float)

    def test_elapsed_ms_is_volatile_not_canonical(self, service, client):
        outcome = client.solve(generate("uniform", 2, 6, 7), "merge_lpt")
        canonical = canonical_stream([outcome.record])
        assert "elapsed_ms" not in canonical

    def test_stats_request_returns_metrics_snapshot(self, service, client):
        inst = generate("uniform", 3, 8, 8)
        client.solve(inst, "merge_lpt")
        client.solve(inst, "merge_lpt")  # cache hit, still a request
        metrics = client.stats()
        assert metrics["cached_results"] >= 1
        assert metrics["queue_depth"] == 0
        assert metrics["backpressure_events"] == 0
        assert metrics["uptime_s"] >= 0.0
        counters = metrics["counters"]
        assert counters["solved"] == 1
        assert counters["cache_hits"] == 1
        # Both requests landed in the latency histogram.
        latency = metrics["latency_ms"]
        assert latency["count"] >= 2
        assert latency["max"] >= latency["p50"] >= 0.0


def _write_history(path, count):
    """``count`` stored records with distinct keys, as a results file."""
    template = solve(generate("uniform", 2, 2, 0), algorithm="merge_lpt")
    lines = []
    for index in range(count):
        record = RunRecord(
            instance=f"hist-{index}",
            instance_hash=f"{index:016x}",
            algorithm="merge_lpt",
            params={},
            status="ok",
            n=4,
            m=2,
            num_classes=2,
            wall_time=0.0,
            makespan=template.makespan,
            lower_bound=template.makespan,
            valid=True,
        )
        lines.append(record.to_json() + "\n")
    path.write_text("".join(lines))


class TestConstantCostPerRequest:
    """A request costs the same after 2,000 stored results as on the
    first: counted, not timed, so the gate is deterministic."""

    def _one_new_solve(self, tmp_path, monkeypatch, stored):
        path = tmp_path / f"history-{stored}.jsonl"
        _write_history(path, stored)
        svc = SchedulerService(
            results_path=path, backend="serial", batch_window_s=0.0
        )
        assert len(svc.store) == stored
        svc.start()
        counts = {"parses": 0, "fsyncs": 0}
        from_dict, fsync = RunRecord.from_dict, os.fsync

        def counting_from_dict(data):
            counts["parses"] += 1
            return from_dict(data)

        def counting_fsync(fd):
            counts["fsyncs"] += 1
            return fsync(fd)

        try:
            with ServiceClient(*svc.address) as cli:
                cli.status()
                lines = path.read_bytes().count(b"\n")
                with monkeypatch.context() as patch:
                    patch.setattr(
                        RunRecord, "from_dict", staticmethod(counting_from_dict)
                    )
                    patch.setattr(os, "fsync", counting_fsync)
                    outcome = cli.solve(generate("uniform", 3, 8, 11), "merge_lpt")
                assert outcome.record.ok and not outcome.cached
                counts["lines"] = path.read_bytes().count(b"\n") - lines
        finally:
            svc.stop()
        return counts

    def test_new_solve_work_does_not_grow_with_history(
        self, tmp_path, monkeypatch
    ):
        empty = self._one_new_solve(tmp_path, monkeypatch, 0)
        full = self._one_new_solve(tmp_path, monkeypatch, 2000)
        assert empty == full
        assert full["lines"] == 1  # appended, not rewritten
        assert full["fsyncs"] == 1
        # The new record's own parses (engine, progress, client): none of
        # the 2,000 stored records is read at dispatch.
        assert full["parses"] <= 3

    def test_sockets_disable_nagle(self, service, client):
        client.status()
        with service._clients_lock:
            accepted = [conn.conn for conn in service._clients]
        assert accepted
        for sock in accepted + [client._sock]:
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestConnectionBookkeeping:
    def test_closed_connections_leave_no_trace(self, service, client):
        """Handlers drop their connection and thread when the client
        goes away, so the bookkeeping tracks live connections only."""
        host, port = service.address
        client.status()
        for _ in range(50):
            with ServiceClient(host, port) as short:
                short.status()
        deadline = time.monotonic() + 30
        while len(service._clients) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(service._clients) == 1  # the fixture's live client
        assert all(thread.is_alive() for thread in service._clients.values())
        assert len(service._threads) == 2  # acceptor and dispatcher
        assert client.status()["requests"] == 52


class TestFrameSizeCap:
    def test_oversized_frame_gets_an_error_then_eof(self, service, monkeypatch):
        """A client that never sends a newline cannot make the server
        buffer more than the cap: it gets one error frame and EOF, and
        the next client is served as usual."""
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", 4096)
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(b"x" * 4096)  # a cap's worth, and no newline
            reader = raw.makefile("rb")
            frame = decode_frame(reader.readline())
            assert frame["type"] == "error"
            assert "exceeds 4096 bytes" in frame["message"]
            assert reader.readline() == b""  # the server hung up
            reader.close()
        with ServiceClient(host, port, timeout=60.0) as second:
            outcome = second.solve(generate("uniform", 2, 6, 0), "merge_lpt")
            assert outcome.record.ok
            assert second.status()["oversized_frames"] == 1


class TestShutdown:
    def test_clean_shutdown_stops_accepting(self, tmp_path):
        svc = SchedulerService(results_path=tmp_path / "service.jsonl")
        svc.start()
        host, port = svc.address
        with ServiceClient(host, port) as cli:
            cli.solve(generate("uniform", 2, 6, 0), "merge_lpt")
            cli.shutdown()  # blocks until the server says `bye`
        svc.serve_forever()  # returns promptly: shutdown already landed
        with pytest.raises((ConnectionRefusedError, OSError)):
            ServiceClient(host, port, timeout=2.0).connect()
        # The result file was finalized before the listener went away.
        assert len(read_records(svc.results_path)) == 1
