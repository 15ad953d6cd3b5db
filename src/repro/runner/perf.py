"""Machine-readable performance benchmarks (``BENCH_*.json``).

The repo tracks its wall-clock trajectory across PRs with small JSON
artifacts: ``run_runtime_scaling`` measures the per-size median solve
time of the core algorithms on the seed benchmark grid (the same
``uniform`` family / ``m = 8`` grid as ``benchmarks/bench_runtime_scaling.py``)
and :func:`write_bench_json` serializes the result — optionally with
speedup deltas against a previous ``BENCH_*.json`` baseline, so a PR can
demonstrate (and CI can archive) a measured before/after win.

``run_baselines_suite`` is the dispatch-kernel scaling grid: the
heap-indexed baselines (``class_greedy``/``list_lpt``/``merge_lpt``) up
to n = 10⁵, with the preserved pre-kernel quadratic loops
(:mod:`repro.algorithms.reference`) timed alongside on the sizes where
they are still tractable — each such cell records ``naive_median_s`` and
``speedup_vs_naive``, so the artifact carries the measured kernel win.

``run_approx_suite`` is the same pattern for the paper's approximation
algorithms (``five_thirds``/``three_halves``/``no_huge``, ported onto
the dispatch kernel in PR 4): each algorithm sweeps its *stress family*
with the machine count scaling alongside the class count
(``mh_stress`` drives `Algorithm_3/2`'s M̄H pairing steps — quadratic in
the pre-kernel loop — and ``packed_small`` drives `Algorithm_no_huge`'s
pairing steps), timing the preserved pre-kernel placement cores
alongside and asserting identical makespans per cell.

``check_regressions`` turns any ``BENCH_*.json`` into a perf gate by
comparing cell medians and the headline ``largest_size_speedups*`` maps
against a baseline-of-record within a percent tolerance
(``repro bench --fail-on-regression PCT``).  Cells are matched by
``(suite, algorithm, n_target, epsilon)``, so two suites that time the
same algorithm at the same size never compare against each other, nor
do two eptas cells that differ only in ``ε``.

``run_eptas_suite`` races the incremental EPTAS driver (warm-started
:class:`~repro.ptas.context.GuessContext`: signature-memoized window-IP
outcomes, certified greedy packs, profile-based parameter bands)
against the preserved rebuild-per-guess reference on small instances,
each cell at its own ``ε``, with order-balanced paired timing,
asserting identical makespans per cell and recording
``speedup_vs_rebuild``.  Each cell additionally
carries a per-phase wall-clock breakdown (``phase_s`` /
``ip_solve_pct``) from one extra *untimed* solve under an enabled
tracer — "% time in the window IP (HiGHS)" becomes a recorded artifact
without tracing ever contaminating the timed repeats.

``run_obs_suite`` measures the cost of the observability layer on a
smoke cell with order-balanced paired timing: the same solve under the
null tracer (the production default) and under an enabled in-memory
tracer.  The cell's ``median_s`` is the **null-path** median — the
two-run ``--fail-on-regression`` pattern gates the
instrumented-but-disabled hot path against gross regressions — and
``overhead_pct`` records what *enabling* tracing costs on top.  The
≤ 2% disabled-path budget itself is enforced deterministically (the
obs test suite asserts O(1) tracer touches per solve), since
wall-clock gates that tight flake on shared runners.
Makespans are asserted identical under both tracers, so telemetry can
never change behavior.

``run_runner_suite`` benchmarks the *sweep engine itself* rather than a
solver: one fixed work plan over an in-memory repository is executed
by the ``serial`` backend and by the ``sharded`` backend at each shard
count (:mod:`repro.runner.backends`), recording cells/sec, steal counts
and ``speedup_vs_serial`` — the throughput factor over the in-process
reference.

CLI: ``python -m repro bench --out BENCH_runtime_scaling.json
[--baseline old.json]
[--suite default|baselines|approx|eptas|obs|runner|all]``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

import repro.algorithms  # noqa: F401 - registration side effects
from repro.algorithms.registry import get_algorithm
from repro.core.validate import validate_schedule, validation_instance
from repro.workloads import (
    generate,
    mh_stress_machines,
    packed_small_machines,
)

__all__ = [
    "BENCHMARK_NAME",
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SIZES",
    "BASELINES_SIZES",
    "BASELINES_ALGORITHMS",
    "APPROX_SIZES",
    "APPROX_ALGORITHMS",
    "APPROX_FAMILIES",
    "EPTAS_BENCH_CELLS",
    "RUNNER_SHARD_COUNTS",
    "OBS_SMOKE_SIZE",
    "run_runtime_scaling",
    "run_baselines_suite",
    "run_approx_suite",
    "run_eptas_suite",
    "run_obs_suite",
    "run_runner_suite",
    "merge_bench_runs",
    "write_bench_json",
    "load_bench_json",
    "largest_size_speedups",
    "check_regressions",
]

BENCHMARK_NAME = "runtime_scaling"

#: The seed benchmark grid (benchmarks/bench_runtime_scaling.py).
DEFAULT_SIZES = (50, 200, 800, 3200)
DEFAULT_MACHINES = 8
DEFAULT_ALGORITHMS = ("five_thirds", "three_halves", "merge_lpt", "list_lpt")

#: The dispatch-kernel scaling grid (``--suite baselines``).
BASELINES_SIZES = (1000, 10000, 100000)
BASELINES_ALGORITHMS = ("class_greedy", "list_lpt", "merge_lpt")
#: Largest n_target on which the quadratic reference loops are timed
#: alongside the kernel (naive ``class_greedy`` needs ~20 s at 10⁴).
NAIVE_CUTOFF = 10_000

#: The approximation-algorithm scaling grid (``--suite approx``).  The
#: size knob is the stress family's *class count*; the machine count
#: scales alongside it (see ``APPROX_FAMILIES``), which is the regime
#: where the pre-kernel `Algorithm_3/2` loops go quadratic.
APPROX_SIZES = (2000, 8000, 16000)
APPROX_ALGORITHMS = ("five_thirds", "three_halves", "no_huge")
#: Algorithm → (stress family, machine-count rule).
APPROX_FAMILIES = {
    "five_thirds": ("mh_stress", mh_stress_machines),
    "three_halves": ("mh_stress", mh_stress_machines),
    "no_huge": ("packed_small", packed_small_machines),
}
#: Largest size on which the pre-kernel placement cores are timed
#: alongside (reference ``three_halves`` needs ~5 s per solve there).
APPROX_NAIVE_CUTOFF = 16_000

#: The EPTAS incremental-vs-rebuild grid (``--suite eptas``): small
#: instances (the scheme is exponential in 1/(εδ); these are the largest
#: cells on which the rebuild-per-guess reference stays tractable at
#: bench repeats).  ``size`` is the class-count knob.  The ε = 1/2 cells
#: keep δ (and hence the grid g=εδT) coarse; the ε = 2/5 cell is the
#: default-ε solve (the first ``eptas-default`` perfbench instance),
#: where the rebuild reference pays the compressed window IP at every
#: guess and the incremental driver pays it once.
EPTAS_BENCH_CELLS = (
    # (family, machines, size, seed, epsilon)
    ("uniform", 2, 6, 0, "1/2"),
    ("small_jobs", 2, 8, 0, "1/2"),
    ("small_jobs", 3, 12, 0, "1/2"),
    ("small_jobs", 2, 8, 0, "2/5"),
)
EPTAS_BENCH_MODE = "augmentation"

#: The observability smoke cell (``--suite obs``): one mid-size
#: ``uniform`` solve, large enough that per-solve span overhead (not
#: interpreter startup noise) dominates the delta.
OBS_SMOKE_SIZE = 800
OBS_SMOKE_ALGORITHM = "three_halves"

#: The execution-backend scaling grid (``--suite runner``): shard counts
#: the sharded backend is swept over.
RUNNER_SHARD_COUNTS = (1, 2, 4)
#: Sweep-plan shape: ``RUNNER_INSTANCES`` uniform instances with
#: ``RUNNER_SIZE`` classes each, one algorithm per cell.  A cell
#: (~12 ms on a 2-core VM) costs well above a shard worker's start-up,
#: so the grid measures parallel execution rather than process creation.
RUNNER_INSTANCES = 36
RUNNER_SIZE = 400
RUNNER_MACHINES = 4
RUNNER_ALGORITHM = "three_halves"


def _bench_instance(n_target: int, machines: int, seed: int):
    # `uniform` averages ~2.5 jobs/class; size the class count accordingly
    # (mirrors benchmarks/bench_runtime_scaling.py so numbers line up).
    return generate(
        "uniform", machines, max(machines + 1, n_target // 2), seed
    )


def _median_solve_time(
    solver,
    n_target: int,
    machines: int,
    seed: int,
    repeats: int,
    factory=None,
):
    """Median wall-clock of ``solver`` over ``repeats`` fresh instances;
    returns ``(timings, last_result)``.

    Each repeat solves a *fresh* (identical) instance, so lazily cached
    per-instance state (e.g. the memoized LPT order) is cold in every
    timed solve — the production sweep-runner shape of one solve per
    instance.  ``factory(n_target, machines, seed)`` overrides the
    default ``uniform``-family instance builder.
    """
    if factory is None:
        factory = _bench_instance
    timings: List[float] = []
    result = None
    for _ in range(max(1, repeats)):
        fresh = factory(n_target, machines, seed)
        t0 = time.perf_counter()
        result = solver(fresh)
        timings.append(time.perf_counter() - t0)
    return timings, result


def _validate_cell(instance, result, cell: dict) -> None:
    try:
        validate_schedule(
            validation_instance(instance, result.schedule),
            result.schedule,
        )
    except Exception as exc:
        cell["valid"] = False
        cell["error"] = str(exc)


def _attach_naive_comparison(
    cell: dict,
    naive_solver,
    result,
    n_target: int,
    machines: int,
    seed: int,
    naive_repeats: int,
    factory=None,
) -> None:
    """Time a preserved pre-kernel solver on the same instances and
    annotate ``cell`` with ``naive_median_s``/``speedup_vs_naive``; a
    kernel/naive makespan mismatch marks the cell invalid, so a speedup
    is never bought with a behavior change."""
    naive_timings, naive_result = _median_solve_time(
        naive_solver, n_target, machines, seed, naive_repeats, factory
    )
    cell["naive_median_s"] = statistics.median(naive_timings)
    if cell["median_s"] > 0:
        cell["speedup_vs_naive"] = (
            cell["naive_median_s"] / cell["median_s"]
        )
    if (
        naive_result.schedule.makespan_ticks
        != result.schedule.makespan_ticks
    ):
        cell["valid"] = False
        cell["error"] = (
            "kernel/naive makespan mismatch: "
            f"{result.schedule.makespan} vs "
            f"{naive_result.schedule.makespan}"
        )


def _run_grid(
    sizes: Sequence[int],
    machines: int,
    algorithms: Sequence[str],
    repeats: int,
    seed: int,
    validate: bool,
    decorate=None,
) -> List[dict]:
    """The shared (size × algorithm) measurement loop behind both
    suites.  ``decorate(cell, name, n_target, result)`` may append
    suite-specific annotations to each finished cell."""
    results: List[dict] = []
    for n_target in sizes:
        instance = _bench_instance(n_target, machines, seed)
        for name in algorithms:
            timings, result = _median_solve_time(
                get_algorithm(name), n_target, machines, seed, repeats
            )
            cell = {
                "algorithm": name,
                "n_target": n_target,
                "n_jobs": instance.num_jobs,
                "n_classes": instance.num_classes,
                "machines": machines,
                "median_s": statistics.median(timings),
                "min_s": min(timings),
                "repeats": len(timings),
                "valid": True,
            }
            if validate:
                _validate_cell(instance, result, cell)
            if decorate is not None:
                decorate(cell, name, n_target, result)
            results.append(cell)
    return results


def run_runtime_scaling(
    *,
    sizes: Sequence[int] = DEFAULT_SIZES,
    machines: int = DEFAULT_MACHINES,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    repeats: int = 5,
    seed: int = 0,
    validate: bool = True,
) -> dict:
    """Measure median solve wall-clock per (algorithm, size) cell.

    Timing covers :func:`repro.solve`'s work (bound computation, schedule
    construction) only; validation runs once per cell afterwards and its
    outcome is recorded in ``valid`` — a ``False`` there means the
    producing algorithm is broken, and the CLI exits non-zero.
    """
    results = _run_grid(
        sizes, machines, algorithms, repeats, seed, validate
    )
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "default",
            "family": "uniform",
            "machines": machines,
            "sizes": list(sizes),
            "seed": seed,
            "repeats": repeats,
            "algorithms": list(algorithms),
        },
        "python": platform.python_version(),
        "results": results,
    }


def run_baselines_suite(
    *,
    sizes: Sequence[int] = BASELINES_SIZES,
    machines: int = DEFAULT_MACHINES,
    algorithms: Sequence[str] = BASELINES_ALGORITHMS,
    repeats: int = 3,
    seed: int = 0,
    validate: bool = True,
    naive_cutoff: int = NAIVE_CUTOFF,
    naive_repeats: int = 3,
) -> dict:
    """The dispatch-kernel scaling grid, up to n ≈ 10⁵.

    For every cell with ``n_target ≤ naive_cutoff`` the preserved
    pre-kernel quadratic loop is timed on the same instances and the
    cell records ``naive_median_s`` plus
    ``speedup_vs_naive = naive_median_s / median_s`` (> 1 means the
    kernel is faster); the naive makespan is asserted identical, so the
    speedup is never bought with a behavior change.  Above the cutoff
    only the kernel runs — that is the regime the quadratic loops could
    not reach.
    """
    from repro.algorithms.reference import NAIVE_REFERENCES

    def add_naive_comparison(cell, name, n_target, result):
        cell["suite"] = "baselines"
        naive = NAIVE_REFERENCES.get(name)
        if naive is None or n_target > naive_cutoff:
            return
        _attach_naive_comparison(
            cell, naive, result, n_target, machines, seed, naive_repeats
        )

    results = _run_grid(
        sizes,
        machines,
        algorithms,
        repeats,
        seed,
        validate,
        decorate=add_naive_comparison,
    )
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "baselines",
            "family": "uniform",
            "machines": machines,
            "sizes": list(sizes),
            "seed": seed,
            "repeats": repeats,
            "naive_cutoff": naive_cutoff,
            "naive_repeats": naive_repeats,
            "algorithms": list(algorithms),
        },
        "python": platform.python_version(),
        "results": results,
    }


def run_approx_suite(
    *,
    sizes: Sequence[int] = APPROX_SIZES,
    algorithms: Sequence[str] = APPROX_ALGORITHMS,
    repeats: int = 3,
    seed: int = 0,
    validate: bool = True,
    naive_cutoff: int = APPROX_NAIVE_CUTOFF,
    naive_repeats: int = 3,
) -> dict:
    """The approximation-algorithm scaling grid (``--suite approx``).

    Each algorithm sweeps its stress family with the machine count
    scaling alongside the class-count knob ``n_target`` (see
    ``APPROX_FAMILIES``).  For every cell with ``n_target ≤
    naive_cutoff`` the preserved pre-kernel placement core
    (:data:`repro.algorithms.reference.APPROX_REFERENCES`) is timed on
    the same instances and the cell records ``naive_median_s`` plus
    ``speedup_vs_naive``; the naive makespan is asserted identical, so
    the speedup is never bought with a behavior change.
    """
    from repro.algorithms.reference import APPROX_REFERENCES

    unknown = [name for name in algorithms if name not in APPROX_FAMILIES]
    if unknown:
        raise ValueError(
            f"no approx-suite stress family for {unknown}; supported: "
            f"{sorted(APPROX_FAMILIES)}"
        )
    results: List[dict] = []
    for name in algorithms:
        family, machines_for = APPROX_FAMILIES[name]

        def factory(n_target, machines, seed, _family=family):
            return generate(_family, machines, n_target, seed)

        for n_target in sizes:
            machines = machines_for(n_target)
            instance = factory(n_target, machines, seed)
            timings, result = _median_solve_time(
                get_algorithm(name),
                n_target,
                machines,
                seed,
                repeats,
                factory,
            )
            cell = {
                "suite": "approx",
                "algorithm": name,
                "family": family,
                "n_target": n_target,
                "n_jobs": instance.num_jobs,
                "n_classes": instance.num_classes,
                "machines": machines,
                "median_s": statistics.median(timings),
                "min_s": min(timings),
                "repeats": len(timings),
                "valid": True,
            }
            if validate:
                _validate_cell(instance, result, cell)
            if n_target <= naive_cutoff:
                _attach_naive_comparison(
                    cell,
                    APPROX_REFERENCES[name],
                    result,
                    n_target,
                    machines,
                    seed,
                    naive_repeats,
                    factory,
                )
            results.append(cell)
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "approx",
            "families": {
                name: APPROX_FAMILIES[name][0] for name in algorithms
            },
            "sizes": list(sizes),
            "seed": seed,
            "repeats": repeats,
            "naive_cutoff": naive_cutoff,
            "naive_repeats": naive_repeats,
            "algorithms": list(algorithms),
        },
        "python": platform.python_version(),
        "results": results,
    }


def _attach_eptas_phases(cell: dict, solve_once) -> None:
    """Annotate an eptas cell with per-phase span totals from one extra
    solve under an enabled (in-memory) tracer.

    The probe solve runs outside every timing window, so the recorded
    medians stay null-tracer timings; ``ip_solve_pct`` — the share of
    ``eptas.solve`` wall-clock spent inside the window IP (HiGHS) — is
    the suite's headline phase artifact.
    """
    from repro.obs import Tracer, phase_totals, set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        solve_once()
    finally:
        set_tracer(previous)
    totals = phase_totals(tracer.events, prefix="eptas.")
    if not totals:
        return
    cell["phase_s"] = {
        name: round(info["total_s"], 6) for name, info in sorted(totals.items())
    }
    solve_total = totals.get("eptas.solve", {}).get("total_s", 0.0)
    if solve_total > 0:
        ip_total = totals.get("eptas.ip_solve", {}).get("total_s", 0.0)
        cell["ip_solve_pct"] = round(100.0 * ip_total / solve_total, 1)


def run_eptas_suite(
    *,
    cells: Sequence[tuple] = EPTAS_BENCH_CELLS,
    mode: str = EPTAS_BENCH_MODE,
    repeats: int = 3,
    validate: bool = True,
) -> dict:
    """The EPTAS incremental-vs-rebuild grid (``--suite eptas``).

    Each cell is ``(family, machines, size, seed, epsilon)`` with ``ε``
    as a fraction string.  Every cell solves the same fresh instances
    with the incremental driver (warm-started
    :class:`~repro.ptas.context.GuessContext`) and the preserved
    rebuild-per-guess reference
    (:func:`repro.algorithms.reference.reference_eptas`), recording both
    medians plus ``speedup_vs_rebuild = rebuild_median_s / median_s``
    (> 1 means the incremental driver is faster).  Measurement is
    *order-balanced*: each repeat alternates which driver runs first.
    Makespans are asserted identical per cell — the incremental
    search's reuse (signature-memoized IP outcomes, certified greedy
    packs, profile-based bands) must never change the schedule — and
    augmentation-mode schedules validate against the augmented
    instance.

    After the timed repeats, one extra solve per cell runs under an
    enabled tracer (outside any timing window) and its ``eptas.*`` span
    totals land in ``phase_s``; ``ip_solve_pct`` is the share of the
    solve spent inside the window IP (HiGHS).
    """
    from fractions import Fraction

    from repro.algorithms.reference import reference_eptas
    from repro.ptas import augmented_instance, schedule_eptas

    results: List[dict] = []
    for family, machines, size, seed, epsilon in cells:
        eps = Fraction(epsilon)
        instance = generate(family, machines, size, seed)
        t_inc: List[float] = []
        t_rebuild: List[float] = []
        result_inc = result_rebuild = None
        for i in range(max(1, repeats)):
            order = (
                ("incremental", "rebuild")
                if i % 2 == 0
                else ("rebuild", "incremental")
            )
            for which in order:
                fresh = generate(family, machines, size, seed)
                if which == "incremental":
                    t0 = time.perf_counter()
                    result_inc = schedule_eptas(
                        fresh, epsilon=eps, mode=mode
                    )
                    t_inc.append(time.perf_counter() - t0)
                else:
                    t0 = time.perf_counter()
                    result_rebuild = reference_eptas(
                        fresh, epsilon=eps, mode=mode
                    )
                    t_rebuild.append(time.perf_counter() - t0)
        cell = {
            "suite": "eptas",
            "algorithm": "eptas",
            "family": family,
            "n_target": size,
            "n_jobs": instance.num_jobs,
            "n_classes": instance.num_classes,
            "machines": machines,
            "epsilon": epsilon,
            "mode": mode,
            "median_s": statistics.median(t_inc),
            "min_s": min(t_inc),
            "rebuild_median_s": statistics.median(t_rebuild),
            "repeats": len(t_inc),
            "incremental": result_inc.stats.get("incremental"),
            "valid": True,
        }
        if cell["median_s"] > 0:
            cell["speedup_vs_rebuild"] = (
                cell["rebuild_median_s"] / cell["median_s"]
            )
        _attach_eptas_phases(
            cell,
            lambda: schedule_eptas(
                generate(family, machines, size, seed),
                epsilon=eps,
                mode=mode,
            ),
        )
        if validate:
            target = augmented_instance(
                instance, result_inc.stats.get("extra_machines", 0)
            )
            _validate_cell(target, result_inc, cell)
        if (
            result_inc.schedule.makespan_ticks
            != result_rebuild.schedule.makespan_ticks
        ):
            cell["valid"] = False
            cell["error"] = (
                "incremental/rebuild makespan mismatch: "
                f"{result_inc.schedule.makespan} vs "
                f"{result_rebuild.schedule.makespan}"
            )
        results.append(cell)
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "eptas",
            "cells": [list(cell) for cell in cells],
            "mode": mode,
            "repeats": repeats,
        },
        "python": platform.python_version(),
        "results": results,
    }


def run_obs_suite(
    *,
    n_target: int = OBS_SMOKE_SIZE,
    machines: int = DEFAULT_MACHINES,
    algorithm: str = OBS_SMOKE_ALGORITHM,
    repeats: int = 7,
    seed: int = 0,
    validate: bool = True,
) -> dict:
    """The observability overhead smoke (``--suite obs``).

    One solve cell is timed with order-balanced pairing under the null
    tracer (the production default) and under an enabled in-memory
    tracer.  The cell's ``median_s`` is the **null-path** median, so
    CI's two-run ``--fail-on-regression`` pattern gates the
    instrumented-but-disabled hot path (wide tolerance — the strict
    ≤ 2% budget is enforced by the deterministic touch-count test);
    ``traced_median_s`` / ``overhead_pct`` record what enabling tracing
    costs on top, and ``speedup_vs_traced`` feeds the headline map so a
    *relative* slowdown of the null path is caught even when absolute
    medians drift with the machine.  Makespans under both tracers are
    asserted identical — telemetry must never change behavior.
    """
    from repro.obs import NULL_TRACER, Tracer, set_tracer

    solver = get_algorithm(algorithm)
    t_null: List[float] = []
    t_traced: List[float] = []
    result_null = result_traced = None
    instance = _bench_instance(n_target, machines, seed)
    for i in range(max(1, repeats)):
        order = ("null", "traced") if i % 2 == 0 else ("traced", "null")
        for which in order:
            fresh = _bench_instance(n_target, machines, seed)
            tracer = NULL_TRACER if which == "null" else Tracer()
            previous = set_tracer(tracer)
            try:
                t0 = time.perf_counter()
                result = solver(fresh)
                elapsed = time.perf_counter() - t0
            finally:
                set_tracer(previous)
            if which == "null":
                t_null.append(elapsed)
                result_null = result
            else:
                t_traced.append(elapsed)
                result_traced = result
    cell = {
        "suite": "obs",
        "algorithm": algorithm,
        "family": "uniform",
        "n_target": n_target,
        "n_jobs": instance.num_jobs,
        "n_classes": instance.num_classes,
        "machines": machines,
        "median_s": statistics.median(t_null),
        "min_s": min(t_null),
        "traced_median_s": statistics.median(t_traced),
        "repeats": len(t_null),
        "valid": True,
    }
    if cell["median_s"] > 0:
        cell["speedup_vs_traced"] = (
            cell["traced_median_s"] / cell["median_s"]
        )
        cell["overhead_pct"] = round(
            100.0 * (cell["speedup_vs_traced"] - 1.0), 2
        )
    if validate:
        _validate_cell(instance, result_null, cell)
    if (
        result_null.schedule.makespan_ticks
        != result_traced.schedule.makespan_ticks
    ):
        cell["valid"] = False
        cell["error"] = (
            "traced/untraced makespan mismatch: "
            f"{result_traced.schedule.makespan} vs "
            f"{result_null.schedule.makespan}"
        )
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "obs",
            "family": "uniform",
            "machines": machines,
            "n_target": n_target,
            "seed": seed,
            "repeats": repeats,
            "algorithm": algorithm,
            "overhead_budget_pct": 2.0,
        },
        "python": platform.python_version(),
        "results": [cell],
    }


def run_runner_suite(
    *,
    shard_counts: Sequence[int] = RUNNER_SHARD_COUNTS,
    instances: int = RUNNER_INSTANCES,
    machines: int = RUNNER_MACHINES,
    size: int = RUNNER_SIZE,
    algorithm: str = RUNNER_ALGORITHM,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """The execution-backend scaling grid (``--suite runner``).

    One fixed plan (``instances`` × 1 algorithm, deferred payloads over
    an in-memory repository) is swept by ``serial`` and by ``sharded``
    at each of ``shard_counts``.  Measured per config (median of
    ``repeats``): total sweep wall-clock, cells/sec, steal counts and
    retries, plus ``speedup_vs_serial``, the throughput factor over the
    in-process reference.

    Every config's record stream is checked cell-for-cell against the
    serial reference stream (canonical form, timing excluded), so a
    throughput win is never bought with a behavior change.
    """
    from repro.runner.engine import run_plan
    from repro.runner.plan import WorkPlan
    from repro.runner.records import canonical_stream
    from repro.runner.repository import InstanceRepository

    repo = InstanceRepository.from_families(
        ["uniform"], [machines], [size],
        list(range(seed, seed + instances)),
    )

    #: (label, run_plan kwargs, scaling knob recorded as n_target)
    configs = [("serial", {"backend": "serial"}, 1)]
    for count in shard_counts:
        configs.append(
            (
                f"sharded-{count}",
                {"backend": "sharded", "shards": count},
                count,
            )
        )

    reference_stream: Optional[str] = None
    results: List[dict] = []
    for label, kwargs, knob in configs:
        timings: List[float] = []
        last = None
        for _ in range(max(1, repeats)):
            plan = WorkPlan.from_product(
                repo, [algorithm], defer_payloads=True
            )
            t0 = time.perf_counter()
            last = run_plan(plan, None, repository=repo, **kwargs)
            timings.append(time.perf_counter() - t0)
        median = statistics.median(timings)
        n_cells = len(last.records)
        stream = canonical_stream(last.records)
        if reference_stream is None:
            reference_stream = stream
        cell = {
            "suite": "runner",
            "algorithm": f"sweep[{label}]",
            "backend": label,
            "n_target": knob,
            "n_jobs": n_cells,
            "cells": n_cells,
            "machines": machines,
            "median_s": median,
            "min_s": min(timings),
            "repeats": len(timings),
            "cells_per_sec": round(n_cells / median, 3) if median > 0 else None,
            "errors": last.errors,
            "valid": last.errors == 0 and stream == reference_stream,
        }
        if stream != reference_stream:
            cell["error"] = (
                "canonical record stream differs from the serial reference"
            )
        for key in ("steals", "retries", "quarantined"):
            if key in last.stats:
                cell[key] = last.stats[key]
        results.append(cell)
    serial_median = results[0]["median_s"]
    for cell in results:
        if cell["median_s"] > 0:
            cell["speedup_vs_serial"] = round(
                serial_median / cell["median_s"], 3
            )
    return {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suite": "runner",
            "family": "uniform",
            "instances": instances,
            "machines": machines,
            "size": size,
            "algorithm": algorithm,
            "shard_counts": list(shard_counts),
            "seed": seed,
            "repeats": repeats,
        },
        "python": platform.python_version(),
        "results": results,
    }


def merge_bench_runs(*runs: dict) -> dict:
    """Concatenate several suite runs into one artifact (``--suite all``):
    the cells are appended in order and each run's config is kept under
    ``config["suites"]`` keyed by its suite name."""
    merged = {
        "benchmark": BENCHMARK_NAME,
        "config": {
            "suites": {
                run["config"].get("suite", f"run{i}"): run["config"]
                for i, run in enumerate(runs)
            }
        },
        "python": platform.python_version(),
        "results": [cell for run in runs for cell in run["results"]],
    }
    return merged


def load_bench_json(path) -> dict:
    """Read a ``BENCH_*.json`` file."""
    with open(path) as handle:
        return json.load(handle)


def _cell_id(cell: Mapping) -> tuple:
    """Identity of a bench cell across runs.  Suites may time the same
    algorithm at the same size, and the eptas suite the same size at
    two ``epsilon`` values; a cell without a ``suite`` (artifacts older
    than the field) belongs to ``default``."""
    return (
        cell.get("suite", "default"),
        cell["algorithm"],
        cell["n_target"],
        cell.get("epsilon"),
    )


def _index(results: Sequence[Mapping]) -> Dict[tuple, Mapping]:
    return {_cell_id(cell): cell for cell in results}


def attach_baseline(data: dict, baseline: dict) -> dict:
    """Annotate each cell with the baseline median and the speedup factor
    (``baseline_median_s / median_s``; > 1 means this run is faster)."""
    base = _index(baseline.get("results", []))
    for cell in data["results"]:
        ref = base.get(_cell_id(cell))
        if ref is None:
            continue
        cell["baseline_median_s"] = ref["median_s"]
        if cell["median_s"] > 0:
            cell["speedup"] = ref["median_s"] / cell["median_s"]
    data["baseline_config"] = baseline.get("config")
    return data


def largest_size_speedups(
    data: dict, key: str = "speedup"
) -> Dict[str, float]:
    """Per-algorithm ``key`` factor at the largest size carrying one
    (empty when no cell carries the annotation).  ``key`` is
    ``"speedup"`` for baseline-file deltas and ``"speedup_vs_naive"``
    for the baselines suite's quadratic-loop comparison."""
    sizes = [
        cell["n_target"] for cell in data["results"] if key in cell
    ]
    if not sizes:
        return {}
    largest = max(sizes)
    return {
        cell["algorithm"]: cell[key]
        for cell in data["results"]
        if cell["n_target"] == largest and key in cell
    }


def write_bench_json(
    path, data: dict, *, baseline: Optional[dict] = None
) -> dict:
    """Write ``data`` to ``path`` (annotated with ``baseline`` deltas and
    the headline per-algorithm speedups when a baseline is given)."""
    if baseline is not None:
        data = attach_baseline(data, baseline)
        data["largest_size_speedups"] = largest_size_speedups(data)
    naive_speedups = largest_size_speedups(data, key="speedup_vs_naive")
    if naive_speedups:
        data["largest_size_speedups_vs_naive"] = naive_speedups
    eptas_speedups = largest_size_speedups(data, key="speedup_vs_rebuild")
    if eptas_speedups:
        data["largest_size_speedups_vs_rebuild"] = eptas_speedups
    traced_ratios = largest_size_speedups(data, key="speedup_vs_traced")
    if traced_ratios:
        data["largest_size_speedups_vs_traced"] = traced_ratios
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True))
    return data


#: Headline speedup maps compared by :func:`check_regressions` — a drop
#: in any of them beyond the tolerance is a perf regression even when
#: the raw medians moved with machine noise in the same direction.
_REGRESSION_HEADLINES = (
    "largest_size_speedups_vs_naive",
    "largest_size_speedups_vs_rebuild",
    # traced/null ratio from the obs suite: a drop means the disabled
    # (null-tracer) hot path got slower relative to the traced path.
    "largest_size_speedups_vs_traced",
)


def check_regressions(
    data: dict, baseline: dict, pct: float
) -> List[str]:
    """Perf regressions of ``data`` against a baseline-of-record.

    Two families of checks, both with a ``pct``-percent tolerance:

    * **cell medians** — a cell whose ``median_s`` exceeds the matching
      baseline cell's by more than ``pct`` percent;
    * **headline speedups** — an algorithm whose
      ``largest_size_speedups_vs_naive`` / ``…_vs_rebuild`` factor fell
      more than ``pct`` percent below the baseline's (these are
      within-run *ratios*, so they regress only when the kernel itself
      got slower relative to its in-run reference, not when the whole
      machine did).

    Returns human-readable failure strings (empty = no regression);
    the CLI's ``--fail-on-regression`` exits non-zero on any.
    """
    failures: List[str] = []
    tol = 1.0 + pct / 100.0
    base = _index(baseline.get("results", []))
    for cell in data.get("results", []):
        ref = base.get(_cell_id(cell))
        if ref is None or not ref.get("median_s"):
            continue
        if cell["median_s"] > ref["median_s"] * tol:
            slower = 100.0 * (cell["median_s"] / ref["median_s"] - 1.0)
            epsilon = (
                f", epsilon={cell['epsilon']}" if "epsilon" in cell else ""
            )
            failures.append(
                f"{cell['algorithm']} @ n_target={cell['n_target']}"
                f"{epsilon}: "
                f"median {cell['median_s'] * 1e3:.2f} ms vs baseline "
                f"{ref['median_s'] * 1e3:.2f} ms (+{slower:.1f}%, "
                f"tolerance {pct:.1f}%)"
            )
    for key in _REGRESSION_HEADLINES:
        current = data.get(key, {})
        for name, ref_factor in baseline.get(key, {}).items():
            factor = current.get(name)
            if factor is None or not ref_factor:
                continue
            if factor < ref_factor / tol:
                drop = 100.0 * (1.0 - factor / ref_factor)
                failures.append(
                    f"{key}[{name}]: {factor:.3f}x vs baseline "
                    f"{ref_factor:.3f}x (-{drop:.1f}%, "
                    f"tolerance {pct:.1f}%)"
                )
    return failures
