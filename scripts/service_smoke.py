#!/usr/bin/env python
"""CI smoke test for the scheduler service.

Starts ``python -m repro serve`` as a real subprocess, drives it over
the socket with :class:`repro.service.ServiceClient` — solve, repeat
(must be a cache hit with zero additional solves), status, graceful
shutdown — and asserts the server process exits 0.

A second phase injects a fault: it solves K instances, kills the
server with SIGKILL while more requests are in flight, leaves a torn
line at the end of the results file, and restarts the server on that
file.  Every instance that got a ``result`` frame must then be answered
``cached: true``, and after one more append the file must hold no
repeated key and no torn line.

Exit code 0 on success; any assertion failure or timeout is fatal.
Run from the repository root::

    PYTHONPATH=src python scripts/service_smoke.py
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Instances solved before the SIGKILL, and requests left in flight.
KILL_AFTER = 5
IN_FLIGHT = 3


def wait_for_port(proc, timeout_s=30.0):
    """Parse the ephemeral port from the server's startup line."""
    deadline = time.monotonic() + timeout_s
    line = proc.stdout.readline()
    while time.monotonic() < deadline:
        match = re.search(r"serving on [^:]+:(\d+)", line)
        if match:
            return int(match.group(1))
        if proc.poll() is not None:
            raise AssertionError(
                f"server died during startup: {proc.stderr.read()}"
            )
        line = proc.stdout.readline()
    raise AssertionError("server never printed its address")


def start_server(repo_root, env, results):
    """``repro serve`` on an ephemeral port; returns (process, port)."""
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "-o", str(results),
        ],
        env=env,
        cwd=repo_root,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        return server, wait_for_port(server)
    except BaseException:
        stop(server)
        raise


def stop(server):
    if server.poll() is None:
        server.kill()
        server.wait(timeout=10)


def main():
    repo_root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # The smoke drives the plain serial service; a CI job env that
    # forces a multiprocess sweep backend does not apply here.
    env.pop("REPRO_SWEEP_BACKEND", None)
    env.pop("REPRO_SWEEP_SHARDS", None)

    workdir = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    round_trip(repo_root, env, workdir / "service.jsonl")
    kill_and_restart(repo_root, env, workdir / "killed.jsonl")
    print("service smoke: OK")
    return 0


def round_trip(repo_root, env, results):
    """Solve, repeat from the cache, status, graceful shutdown."""
    from repro.service import ServiceClient
    from repro.workloads import generate

    server, port = start_server(repo_root, env, results)
    try:
        print(f"server up on port {port}")
        inst = generate("uniform", 3, 8, 0)
        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            progress = []
            first = client.solve(inst, "three_halves",
                                 on_progress=progress.append)
            assert first.record.ok, first.record.error
            assert not first.cached, "first request must be a real solve"
            assert progress, "no progress frames streamed"
            print(f"solved: makespan={first.record.makespan}")

            second = client.solve(inst, "three_halves")
            assert second.cached, "repeat request must be a cache hit"
            assert second.record.makespan == first.record.makespan
            print("repeat request served from cache")

            status = client.status()
            assert status["solved"] == 1, status
            assert status["cache_hits"] == 1, status
            print(f"status: solved={status['solved']} "
                  f"cache_hits={status['cache_hits']}")

            client.shutdown()
            print("server acknowledged shutdown")

        code = server.wait(timeout=30)
        assert code == 0, f"server exited {code}: {server.stderr.read()}"
        assert results.exists() and len(results.read_text().splitlines()) == 1
    finally:
        stop(server)


def kill_and_restart(repo_root, env, results):
    """SIGKILL with requests in flight, a torn tail, then a restart."""
    from repro.runner import read_records
    from repro.service import ServiceClient
    from repro.workloads import generate

    instances = [generate("uniform", 3, 8, 100 + seed)
                 for seed in range(KILL_AFTER + IN_FLIGHT + 1)]
    answered = []
    server, port = start_server(repo_root, env, results)
    try:
        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            for inst in instances[:KILL_AFTER]:
                assert client.solve(inst, "three_halves").record.ok
                answered.append(inst)
            # Left in flight: each is stored whole or not at all.
            for inst in instances[KILL_AFTER:-1]:
                client.submit_solve(inst, "three_halves")
            os.kill(server.pid, signal.SIGKILL)
            assert server.wait(timeout=30) == -signal.SIGKILL
    finally:
        stop(server)
    print(f"server killed after {len(answered)} answered solves")
    # What a kill in the middle of an append leaves behind.
    with open(results, "ab") as handle:
        handle.write(b'{"schema": 2, "instance": "torn')

    server, port = start_server(repo_root, env, results)
    try:
        with ServiceClient("127.0.0.1", port, timeout=60.0) as client:
            for inst in answered:
                outcome = client.solve(inst, "three_halves")
                assert outcome.cached, "an answered solve was lost by the kill"
            fresh = client.solve(instances[-1], "three_halves")
            assert fresh.record.ok and not fresh.cached
            client.shutdown()
        code = server.wait(timeout=30)
        assert code == 0, f"server exited {code}: {server.stderr.read()}"
    finally:
        stop(server)
    print("restart served every answered solve from the store")

    text = results.read_text()
    assert text.endswith("\n"), "the results file ends in a torn line"
    lines = text.splitlines()
    for line in lines:
        json.loads(line)  # raises on a torn or joined line
    keys = [record.key for record in read_records(results)]
    assert len(keys) == len(lines) == len(set(keys)), "repeated key in the file"
    assert len(keys) >= len(answered) + 1
    print(f"results file: {len(keys)} records, no repeated key, no torn line")


if __name__ == "__main__":
    sys.exit(main())
