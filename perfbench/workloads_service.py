"""Service round trips, driven from outside the program.

``service-fresh`` and ``service-history`` run a ``repro serve`` process
on loopback (serial backend, default admission settings and batch
window) and two closed-loop clients in this process, one thread and one
``ServiceClient`` connection each.  Each client alternates a new
instance with a repeat of its previous one, so half the requests miss
the result store and half hit it.  The traced server starts under
``-X importtime``, which gives the ``repro.cli`` import chain.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

import common
import layers

ALGORITHM = "three_halves"
CLIENTS = 2
#: The server's default batch window: a client misses at most once per window.
BATCH_WINDOW_S = 0.02
#: service-history's stored records: 400 tiny instances x 5 algorithms.
HISTORY_INSTANCES = 400
HISTORY_ALGORITHMS = ("five_thirds", "three_halves", "merge_lpt", "list_lpt", "class_greedy")
#: The first misses of each client whose makespans make up the fingerprint.
FINGERPRINT_MISSES = 40
#: A p95 with at least ten samples above it.
P95_MIN_MISSES = 200
#: The gated round trips are this quantile of the loop's.  Other tenants
#: of the machine slow it for seconds at a time and only ever slow a
#: request down, so the fast end filters them, as the best pass does for
#: the sweep and EPTAS timings; the loop's p50s spread 15-25 % between
#: runs (the sub-millisecond hits most), its p10s 1-13 %.
FAST_END = 0.10
#: Generator seed streams, one per kind of instance.
WARM_STREAM, HISTORY_STREAM = 8, 9


def _seed(seed, stream, index):
    return (abs(seed) * 16 + stream) * 10**6 + index


def _distinct(seed, stream, count, seen, make):
    """``count`` instances of ``make(generator seed)`` whose content
    hashes are not in ``seen`` (so an intended miss never hits)."""
    from repro.runner import instance_content_hash

    instances = []
    index = 0
    while len(instances) < count:
        instance = make(_seed(seed, stream, index))
        index += 1
        digest = instance_content_hash(instance)
        if digest not in seen:
            seen.add(digest)
            instances.append(instance)
    return instances


def _payloads(instances, label):
    payloads = []
    for index, instance in enumerate(instances):
        payload = instance.to_dict()
        payload["name"] = f"{label}-{index}"
        payloads.append(payload)
    return payloads


def request_pools(seed, per_client):
    """Per client: a warm-up instance and ``per_client`` fresh ones, all
    ``uniform`` m=4 size 12 (about 30 jobs)."""
    from repro.workloads import generate

    seen = set()

    def make(value):
        return generate("uniform", 4, 12, value)

    warm = _payloads(_distinct(seed, WARM_STREAM, CLIENTS, seen, make), f"warm-s{seed}")
    pools = [
        _payloads(_distinct(seed, client, per_client, seen, make), f"req-s{seed}-c{client}")
        for client in range(CLIENTS)
    ]
    return warm, pools


def seed_history(seed, path):
    """Write about 2,000 tiny records to ``path`` through ``run_plan``."""
    from repro.runner import InstanceRepository, WorkPlan, run_plan
    from repro.workloads import generate

    repo = InstanceRepository()
    tiny = _distinct(seed, HISTORY_STREAM, HISTORY_INSTANCES, set(),
                     lambda value: generate("uniform", 2, 2, value))
    for index, instance in enumerate(tiny):
        repo.add(instance, name=f"hist-s{seed}-{index}")
    path.unlink(missing_ok=True)
    result = run_plan(WorkPlan.from_product(repo, HISTORY_ALGORITHMS), path, workers=1)
    if result.errors:
        raise RuntimeError(f"seeding the history failed on {result.errors} cells")


class Server:
    """A ``repro serve`` process on loopback: serial backend, default
    admission settings and batch window.  The traced variant starts
    through ``launcher.py`` under ``-X importtime`` with ``--trace``."""

    def __init__(self, run, results, tag, traced=False):
        self.layers_path = run.workdir / f"{tag}.layers.json"
        self.trace_path = run.workdir / f"{tag}.trace.jsonl"
        self.stderr_path = run.workdir / f"{tag}.stderr"
        serve = ["serve", "--port", "0", "-o", str(results), "--backend", "serial"]
        if traced:
            argv = [sys.executable, "-X", "importtime", str(common.HERE / "launcher.py"),
                    str(self.layers_path), *serve, "--trace", str(self.trace_path)]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self._stderr = open(self.stderr_path, "w")
        self.proc = common.start_child(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, text=True)
        watchdog = threading.Timer(common.CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = re.search(r"serving on [^:]+:(\d+)", line)
        if match is None:
            self._reap()
            raise RuntimeError(f"repro serve did not start ({line!r}): "
                               f"{self.stderr_path.read_text()[-500:]}")
        self.port = int(match.group(1))

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=common.CHILD_TIMEOUT_S)

    def peak_rss_mb(self):
        return common.peak_rss_mb(self.proc.pid)

    def stop(self):
        """Ask the server to shut down; returns its exit status."""
        from repro.service import ServiceError

        try:
            with self.client() as client:
                client.shutdown()
            self.proc.wait(timeout=30)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            pass  # _reap kills it; the exit status tells the caller
        return self._reap()

    def _reap(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


# ---------------------------------------------------------------------- #
# service-fresh and service-history
# ---------------------------------------------------------------------- #


def _start_service(run, history, tag, traced=False):
    """Instances, results file, server, and one warmed-up connection per
    client (a miss and a hit each)."""
    warm, pools = request_pools(run.seed, int(run.seconds / BATCH_WINDOW_S) + 10)
    results = run.workdir / f"{tag}.jsonl"
    results.with_name(results.name + ".tmp").unlink(missing_ok=True)
    if history:
        master = run.workdir / "history.jsonl"
        seed_history(run.seed, master)
        shutil.copyfile(master, results)
    else:
        results.unlink(missing_ok=True)
    server = Server(run, results, tag, traced=traced)
    clients = []
    try:
        for payload in warm:
            client = server.client().connect()
            clients.append(client)
            miss = client.solve(payload, ALGORITHM)
            hit = client.solve(payload, ALGORITHM)
            if miss.cached or not hit.cached:
                raise RuntimeError("the warm-up requests did not miss and then hit")
    except BaseException:
        _stop_service({"clients": clients, "server": server})
        raise
    return {"server": server, "clients": clients, "pools": pools,
            "sent": 2 * len(warm), "hits": len(warm)}


def _stop_service(live):
    for client in live["clients"]:
        client.close()
    return live["server"].stop()


def closed_loop(live, seconds):
    """Each client sends a new instance, then repeats it, and so on, one
    request at a time, until ``seconds`` have passed.  Returns the
    samples per client and the loop's (start, end)."""
    from repro.service import ServiceBusy, ServiceError

    clients, pools = live["clients"], live["pools"]
    samples = [[] for _ in clients]
    gate = threading.Barrier(len(clients) + 1)
    deadline = [math.inf]

    def drive(index):
        client, out = clients[index], samples[index]
        fresh = iter(pools[index])
        previous = None
        gate.wait()
        while time.perf_counter() < deadline[0]:
            if previous is None:
                payload, kind = next(fresh, None), "miss"
                if payload is None:
                    return
            else:
                payload, kind = previous, "hit"
            sample = {"kind": kind, "name": payload["name"], "payload": payload, "ok": False}
            out.append(sample)
            start = time.perf_counter()
            try:
                request_id = client.submit_solve(payload, ALGORITHM)
                first = client.await_admission(request_id)
                if first["type"] == "busy":
                    raise ServiceBusy(first.get("reason", "service busy"))
                progress = []
                outcome = client.collect(request_id, on_progress=progress.append)
            except (ServiceBusy, ServiceError, OSError) as exc:
                sample.update(rtt_ms=math.inf, t1=time.perf_counter(),
                              error=f"{type(exc).__name__}: {exc}")
                return
            end = time.perf_counter()
            sample.update(
                ok=True, rtt_ms=(end - start) * 1e3, t1=end, cached=outcome.cached,
                elapsed_ms=outcome.elapsed_ms, record=outcome.record,
                frames=(first["type"] == "accepted") + len(progress) + 1,
            )
            previous = payload if kind == "miss" else None

    threads = [threading.Thread(target=drive, args=(i,), daemon=True) for i in range(len(clients))]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + seconds
    gate.wait()
    for thread in threads:
        thread.join()
    end = max((s["t1"] for per in samples for s in per), default=start)
    return samples, (start, end)


def _check_service(run, live, samples):
    """Records ok and valid, misses equal to an in-benchmark solve, hits
    equal to their miss, server counters equal to the clients'.  Returns
    the fingerprint: the first misses' makespans."""
    from repro import Instance, solve

    flat = [s for per in samples for s in per]
    run.ops(len(flat))
    misses = {}
    for s in flat:
        if not s["ok"]:
            run.fail(f"{s['kind']} {s['name']}: {s['error']}")
            continue
        record = s["record"]
        problems = []
        if not (record.ok and record.valid):
            problems.append(f"status={record.status} valid={record.valid}")
        if s["kind"] == "miss":
            if s["cached"]:
                problems.append("answered from the store")
            expected = solve(Instance.from_dict(s["payload"]), ALGORITHM).makespan
            if record.makespan != expected:
                problems.append(f"makespan {record.makespan}, solve() gives {expected}")
            misses[s["name"]] = record
        else:
            if not s["cached"]:
                problems.append("solved again")
            earlier = misses.get(s["name"])
            if earlier is None or record.canonical_dict() != earlier.canonical_dict():
                problems.append("differs from the miss before it")
        if problems:
            run.fail(f"{s['kind']} {s['name']}: " + "; ".join(problems))

    with live["server"].client() as client:
        counters = client.stats().get("counters", {})
    sent = live["sent"] + len(flat) + 1  # +1: the stats request itself
    hits = live["hits"] + sum(1 for s in flat if s["ok"] and s["cached"])
    run.verify(counters.get("requests") == sent,
               f"the server counted {counters.get('requests')} requests, the clients sent {sent}")
    run.verify(counters.get("cache_hits") == hits,
               f"the server counted {counters.get('cache_hits')} cache hits, the clients saw {hits}")

    digest = hashlib.sha256()
    for index, per in enumerate(samples):
        first = [s for s in per if s["ok"] and s["kind"] == "miss"][:FINGERPRINT_MISSES]
        run.verify(len(first) == FINGERPRINT_MISSES,
                   f"client {index} completed {len(first)} misses, fewer than {FINGERPRINT_MISSES}")
        for s in first:
            digest.update(f"{s['name']}={s['record'].makespan}\n".encode())
    return digest.hexdigest()


def service(run, history):
    live = common.repeated_setup(
        run, lambda: _start_service(run, history, "service"), _stop_service)
    try:
        samples, window = closed_loop(live, run.seconds)
        rss = live["server"].peak_rss_mb()
        run.fingerprint = _check_service(run, live, samples)
    finally:
        status = _stop_service(live)
    run.verify(status == 0, f"repro serve exited with status {status}")

    flat = [s for per in samples for s in per]
    miss_rtts = [s["rtt_ms"] for s in flat if s["kind"] == "miss"]
    hit_rtts = [s["rtt_ms"] for s in flat if s["kind"] == "hit"]
    completed = sum(1 for s in flat if s["ok"])
    run.metric("ops_per_s", completed / (window[1] - window[0]))
    run.metric("primary_ms", common.percentile(miss_rtts, FAST_END))
    run.metric("secondary_ms", common.percentile(hit_rtts, FAST_END))
    run.metric("peak_rss_mb", rss)
    run.report("req_per_s", run.metrics["ops_per_s"], "1/s", f"{completed} requests")
    run.report("miss_rtt_p50_ms", statistics.median(miss_rtts), "ms", f"n={len(miss_rtts)}")
    shortfall = "" if len(miss_rtts) >= P95_MIN_MISSES else f", fewer than {P95_MIN_MISSES}"
    run.report("miss_rtt_p95_ms", common.percentile(miss_rtts, 0.95), "ms",
               f"n={len(miss_rtts)}{shortfall}")
    run.report("hit_rtt_p50_ms", statistics.median(hit_rtts), "ms", f"n={len(hit_rtts)}")
    if run.trace:
        _service_traced(run, history)


def _service_traced(run, history):
    from repro.obs import load_trace

    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        live = _start_service(run, history, "traced", traced=True)
        try:
            samples, window = closed_loop(live, run.seconds)
            fingerprint = _check_service(run, live, samples)
        finally:
            status = _stop_service(live)
    finally:
        restore()
    run.verify(status == 0, f"the traced repro serve exited with status {status}")
    run.verify(fingerprint == run.fingerprint,
               "the traced run's makespans differ from the untraced run's")
    server = live["server"]
    events = json.loads(server.layers_path.read_text())
    served = layers.in_windows(events, [window])
    table = layers.totals(served)
    client_codec = layers.totals(layers.in_windows(recorder.events, [window])).get(
        "service.client_codec", layers.ZERO)[2]
    trace = load_trace(server.trace_path)

    ok = [s for per in samples for s in per if s["ok"]]
    misses = [s for s in ok if s["kind"] == "miss"]
    requests = len(ok)
    run.layer("service.transport_gap_ms",
              statistics.median([s["rtt_ms"] - s["elapsed_ms"] for s in misses]))
    run.layer("service.frames_per_miss", statistics.mean([s["frames"] for s in misses]))
    run.layer("service.codec_s",
              (table.get("service.codec", layers.ZERO)[2] + client_codec) / requests)
    batches = _batches(served)
    ages = [age for b in batches for _name, age, _late in b["tickets"] if age is not None]
    run.layer("service.queue_wait_ms", statistics.median(ages))
    run.layer("service.batch_window_ms", statistics.median([b["window_ms"] for b in batches]))
    run.layer("service.batch_size", statistics.mean([len(b["tickets"]) for b in batches]))
    dispatches = [e["dur"] for e in served if e["name"] == "runner.run_plan"]
    run.layer("service.busy_share", sum(dispatches) / (window[1] - window[0]))
    gets = [e for e in served if e["name"] == "service.store_get"]
    run.layer("service.store_hit_share", sum(e["info"]["hit"] for e in gets) / len(gets))
    run.layer("service.store_get_us", statistics.mean([e["dur"] for e in gets]) * 1e6)
    loads = [e["dur"] for e in events if e["name"] == "service.store_load"]
    run.layer("service.store_load_s", loads[0] if loads else 0.0)
    run.layer("service.dispatch_ms", statistics.median(dispatches) * 1e3)
    layers.report_runner(run, table, len(dispatches))
    layers.report_core(run, table, requests)
    cells = sum(1 for e in trace["events"] if e.get("name") == "sweep.cell")
    layers.report_kernel(run, trace["counters"], cells)
    run.layer(f"algorithms.{ALGORITHM}.solve_s",
              table.get(f"algorithms.{ALGORITHM}", layers.ZERO)[2] / requests)
    layers.report_self(run, table, requests, sum(s["rtt_ms"] for s in ok) / 1e3, client_codec)
    run.layer("unattributed_share", _unattributed(misses, batches))
    report_imports(run, import_profile(server.stderr_path.read_text()))
    run.layer("cli.interpreter_ms", interpreter_ms())
    traced_miss_ms = common.percentile([s["rtt_ms"] for s in misses], FAST_END)
    run.layer("obs.trace_overhead_pct", (traced_miss_ms / run.metrics["primary_ms"] - 1) * 100)


def _batches(events):
    """The dispatcher's batches in order: its first ``next_batch`` call
    that returned tickets, the follow-up after the batch window, and the
    ``run_plan`` that dispatched them."""
    polls = [e for e in events if e["name"] == "service.next_batch"]
    if not polls:
        return []
    thread = polls[0]["thread"]
    batches, current = [], None
    for e in sorted((e for e in events if e["thread"] == thread), key=lambda e: e["t0"]):
        if e["name"] == "service.next_batch":
            info = e["info"]
            if not info["follow_up"] and info["tickets"]:
                current = {"tickets": [(n, a, False) for n, a in info["tickets"]],
                           "window_ms": 0.0}
            elif info["follow_up"] and current is not None:
                current["window_ms"] = info["window_ms"]
                current["tickets"] += [(n, a, True) for n, a in info["tickets"]]
        elif e["name"] == "runner.run_plan" and current is not None:
            current["dispatch_ms"] = e["dur"] * 1e3
            batches.append(current)
            current = None
    return batches


def _unattributed(misses, batches):
    """Share of the misses' round trips that neither the transport gap nor
    the queue wait, batch window and dispatch of their batch cover."""
    covered = {}
    for b in batches:
        for name, age, late in b["tickets"]:
            # A ticket that joined during the window already counts the
            # window in its own queue wait.
            covered[name] = (age or 0.0) + (0.0 if late else b["window_ms"]) + b["dispatch_ms"]
    total = uncovered = 0.0
    for s in misses:
        if s["name"] in covered:
            total += s["rtt_ms"]
            uncovered += max(0.0, s["elapsed_ms"] - covered[s["name"]])
    return uncovered / total if total else 0.0


# ---------------------------------------------------------------------- #
# The repro.cli import chain
# ---------------------------------------------------------------------- #


def import_profile(text):
    """``-X importtime`` lines as ``module -> (self us, cumulative us,
    nesting depth)``."""
    profile = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].strip()
            depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
            profile[name] = (int(fields[0]), int(fields[1]), depth)
    return profile


def report_imports(run, profile):
    """``cli.*`` import-chain metrics of one ``-X importtime`` profile."""

    def in_package(name, package):
        return name == package or name.startswith(package + ".")

    def cumulative_ms(module):
        return profile.get(module, (0, 0, 0))[1] / 1e3

    def package_ms(package):
        return sum(self_us for name, (self_us, _cum, _depth) in profile.items()
                   if in_package(name, package)) / 1e3

    # Every repro module imported outside another import: repro.cli, with
    # the package nested inside it, and what the command imports lazily.
    run.layer("cli.import_ms", sum(cum for name, (_self, cum, depth) in profile.items()
                                   if depth == 0 and in_package(name, "repro")) / 1e3)
    run.layer("cli.import_scipy_ms", package_ms("scipy"))
    run.layer("cli.import_numpy_ms", package_ms("numpy"))
    run.layer("cli.import_repro_analysis_ms", cumulative_ms("repro.analysis"))
    run.layer("cli.import_repro_ptas_ms", cumulative_ms("repro.ptas"))
    run.layer("cli.modules_imported", len(profile))


def interpreter_ms():
    """Median wall time of a bare ``python -c pass``."""
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=common.CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls) * 1e3
