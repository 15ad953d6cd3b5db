"""The sweep and EPTAS workloads, run in this process.

``sweep-grid`` builds a plan and runs it serially (``workers=1``, the
``repro sweep`` default) into a fresh JSONL file, pass after pass.
``eptas-default`` makes warm ``solve(instance, "eptas")`` calls at the
default epsilon, 2/5, in augmentation mode.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

import common
import layers

#: The grid stays fixed: single cells of these families cost up to
#: several times what others do, so a seed-drawn grid would measure the
#: draw.  The benchmark seed orders the plan and draws the warm-up.
#: Size 400 keeps a pass near one second, so a run makes enough passes
#: for every cell's fastest run to miss the co-tenant bursts that slow
#: whole passes of the size-1600 grid by up to 1.7x.
SWEEP_FAMILIES = ("uniform", "mh_stress", "big_jobs")
SWEEP_MACHINES = (8, 64)
SWEEP_SIZE = 400
SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_ALGORITHMS = ("five_thirds", "three_halves", "merge_lpt", "list_lpt", "class_greedy")
SWEEP_CELLS = len(SWEEP_FAMILIES) * len(SWEEP_MACHINES) * len(SWEEP_SEEDS) * len(SWEEP_ALGORITHMS)

#: (family, machines, size, generator seed): n = 74, 87 and 21.  These,
#: and the warm-up instance, stay fixed whatever the benchmark seed:
#: HiGHS's work changes severalfold with the instance, even with the
#: order its classes are listed in, so a seed-drawn set would measure
#: the draw.
EPTAS_INSTANCES = (("small_jobs", 2, 8, 0), ("small_jobs", 2, 8, 1), ("uniform", 3, 8, 0))
EPTAS_WARMUP = ("uniform", 2, 4, 7)


def _walls(passes):
    return [end - start for start, end in (p["window"] for p in passes)]


def _best_pass(passes, parts):
    """Seconds of a pass assembled from each part's fastest run across
    ``passes``, plus the fastest remainder outside the parts.  Other
    tenants of the machine only ever slow a part down, and their bursts
    last seconds, so the minimum over passes filters them where a median
    of two or three passes would not."""
    fastest = [min(times) for times in zip(*(parts(p) for p in passes))]
    rest = min(wall - sum(parts(p)) for p, wall in zip(passes, _walls(passes)))
    return sum(fastest) + rest


def _overhead_pct(traced, untraced):
    return (traced / untraced - 1.0) * 100.0


# ---------------------------------------------------------------------- #
# sweep-grid
# ---------------------------------------------------------------------- #


def sweep_grid(run):
    import repro.runner as runner
    from repro.obs import phase_totals, trace_scope

    out = run.workdir / "sweep.jsonl"
    warm_out = run.workdir / "warm.jsonl"

    def build():
        refs = list(runner.InstanceRepository.from_families(
            SWEEP_FAMILIES, SWEEP_MACHINES, [SWEEP_SIZE], SWEEP_SEEDS))
        random.Random(run.seed).shuffle(refs)
        repo = runner.InstanceRepository(refs)
        warm = runner.InstanceRepository.from_families(
            ["uniform"], [8], [40], [1000 + abs(run.seed)])
        warm_out.unlink(missing_ok=True)
        runner.run_plan(runner.WorkPlan.from_product(warm, SWEEP_ALGORITHMS), warm_out, workers=1)
        return repo

    repo = common.repeated_setup(run, build, lambda _repo: None)

    def one_pass():
        out.unlink(missing_ok=True)
        gaps = []
        start = time.perf_counter()
        last = [start]

        def progress(_record, _done, _total):
            now = time.perf_counter()
            gaps.append(now - last[0])
            last[0] = now

        plan = runner.WorkPlan.from_product(repo, SWEEP_ALGORITHMS)
        result = runner.run_plan(plan, out, workers=1, progress=progress)
        return {"window": (start, time.perf_counter()), "cells": gaps, "result": result}

    def cells(p):
        return p["cells"]

    passes = common.repeat_passes(run.seconds, one_pass)
    run.fingerprint = _check_sweep(run, passes)
    best = _best_pass(passes, cells)
    run.metric("ops_per_s", SWEEP_CELLS / best)
    run.metric("primary_ms", best * 1e3)
    run.metric("secondary_ms", statistics.median(
        [min(times) for times in zip(*map(cells, passes))]) * 1e3)
    run.metric("peak_rss_mb", common.peak_rss_mb())
    run.report("cells_per_s", run.metrics["ops_per_s"], "1/s",
               f"each cell's fastest of {len(passes)} passes; median pass "
               f"{statistics.median(_walls(passes))} s")
    if not run.trace:
        return

    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        with trace_scope() as tracer:
            traced = common.repeat_passes(run.seconds, one_pass)
    finally:
        restore()
    run.verify(_check_sweep(run, traced) == run.fingerprint,
               "the traced sweep's canonical stream differs from the untraced one")
    windows = [p["window"] for p in traced]
    units = len(traced)
    table = layers.totals(layers.in_windows(recorder.events, windows))
    layers.report_runner(run, table, units)
    layers.report_core(run, table, units)
    layers.report_kernel(run, tracer.counters, units)
    wrapped = 0.0
    for algorithm in SWEEP_ALGORITHMS:
        _calls, dur, self_s = table.get(f"algorithms.{algorithm}", layers.ZERO)
        run.layer(f"algorithms.{algorithm}.solve_s", self_s / units)
        wrapped += dur
    in_program = phase_totals(tracer.events).get("sweep.solve", {}).get("total_s", 0.0)
    layers.cross_check(run, "algorithms.*.solve_s", wrapped, "sweep.solve", in_program)
    layers.report_self(run, table, units, sum(_walls(traced)))
    run.layer("obs.trace_overhead_pct", _overhead_pct(_best_pass(traced, cells), best))


def _check_sweep(run, passes):
    """Every cell ok and valid; every pass the same canonical stream."""
    from repro.runner import canonical_stream

    digests = set()
    for p in passes:
        result = p["result"]
        run.ops(len(result.records))
        for record in result.records:
            if not (record.ok and record.valid):
                run.fail(f"sweep cell {record.instance} x {record.algorithm}: "
                         f"status={record.status} valid={record.valid} {record.error or ''}")
        run.verify(len(result.records) == result.executed == SWEEP_CELLS,
                   f"a sweep pass executed {result.executed} of "
                   f"{len(result.records)} cells, expected {SWEEP_CELLS}")
        digests.add(hashlib.sha256(canonical_stream(result.records).encode()).hexdigest())
    run.verify(len(digests) == 1, "the canonical stream differs between passes")
    return min(digests)


# ---------------------------------------------------------------------- #
# eptas-default
# ---------------------------------------------------------------------- #


def eptas_default(run):
    from repro import solve
    from repro.obs import phase_totals, trace_scope
    from repro.workloads import generate

    def build():
        instances = [generate(*spec) for spec in EPTAS_INSTANCES]
        solve(generate(*EPTAS_WARMUP), "eptas")
        return instances

    instances = common.repeated_setup(run, build, lambda _instances: None)

    def one_pass():
        solves = []
        start, cpu = time.perf_counter(), time.process_time()
        for instance in instances:
            began = time.perf_counter()
            result = solve(instance, "eptas")
            solves.append((time.perf_counter() - began, result))
        return {"window": (start, time.perf_counter()),
                "cpu": time.process_time() - cpu, "solves": solves}

    def solve_walls(p):
        return [wall for wall, _result in p["solves"]]

    passes = common.repeat_passes(run.seconds, one_pass)
    run.fingerprint = _check_eptas(run, instances, passes)
    walls = _walls(passes)
    best = _best_pass(passes, solve_walls)
    run.metric("ops_per_s", len(instances) / best)
    run.metric("primary_ms", best * 1e3)
    run.metric("secondary_ms", statistics.median(
        [min(times) for times in zip(*map(solve_walls, passes))]) * 1e3)
    run.metric("peak_rss_mb", common.peak_rss_mb())
    run.report("eptas_solve_s", best, "s",
               f"each solve's fastest of {len(passes)} passes; median pass "
               f"{statistics.median(walls)} s")
    run.note(f"env eptas_cpu_per_wall = {sum(p['cpu'] for p in passes) / sum(walls)}")
    if not run.trace:
        return

    recorder = layers.Recorder()
    restore = layers.install(recorder)
    try:
        with trace_scope() as tracer:
            traced = common.repeat_passes(run.seconds, one_pass)
    finally:
        restore()
    run.verify(_check_eptas(run, instances, traced) == run.fingerprint,
               "the traced EPTAS makespans differ from the untraced ones")
    units = len(traced)
    table = layers.totals(layers.in_windows(recorder.events, [p["window"] for p in traced]))
    spans = phase_totals(tracer.events)

    def span_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    ip_solve = span_s("eptas.ip_solve")
    run.layer("ptas.ip_solve_s", ip_solve / units)
    run.layer("ptas.ip_solve_share", ip_solve / span_s("solve") if span_s("solve") else 0.0)
    calls, milp, _self = table.get("ptas.milp", layers.ZERO)
    run.layer("ptas.milp_calls", calls / units)
    run.layer("ptas.milp_s", milp / units)
    counts = {}
    for p in traced:
        for _wall, result in p["solves"]:
            for key, value in result.stats.get("incremental", {}).items():
                counts[key] = counts.get(key, 0) + value
    guesses = counts.get("guesses", 0)
    run.layer("ptas.guesses", guesses / units)
    run.layer("ptas.ip_solves", counts.get("ip_solves", 0) / units)
    run.layer("ptas.signature_hits", counts.get("signature_hits", 0) / units)
    run.layer("ptas.guess_reuse_share", counts.get("signature_hits", 0) / guesses if guesses else 0.0)
    run.layer("ptas.classify_s", span_s("eptas.classify") / units)
    run.layer("ptas.reinsert_s", span_s("eptas.reinsert") / units)
    layers.cross_check(run, "ptas.milp_s", milp, "eptas.ip_solve", ip_solve)
    layers.report_core(run, table, units)
    layers.report_self(run, table, units, sum(_walls(traced)))
    run.layer("obs.trace_overhead_pct", _overhead_pct(_best_pass(traced, solve_walls), best))


def _check_eptas(run, instances, passes):
    """Every schedule valid against its validation instance and within
    the result's guarantee; every pass the same makespans."""
    from repro import InvalidScheduleError, validate_schedule, validation_instance

    digests = set()
    for p in passes:
        digest = hashlib.sha256()
        for instance, (_wall, result) in zip(instances, p["solves"]):
            run.ops(1)
            try:
                validate_schedule(validation_instance(instance, result.schedule), result.schedule)
            except InvalidScheduleError as exc:
                run.fail(f"eptas on {instance.name}: invalid schedule: {exc}")
                continue
            if not result.within_guarantee():
                run.fail(f"eptas on {instance.name}: makespan {result.makespan} exceeds "
                         f"{result.guarantee} x {result.lower_bound}")
            digest.update(f"{instance.name}={result.makespan}\n".encode())
        digests.add(digest.hexdigest())
    run.verify(len(digests) == 1, "EPTAS makespans differ between passes")
    return min(digests)
