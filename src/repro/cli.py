"""Command-line interface.

Usage (after ``pip install -e .``):

.. code-block:: bash

    python -m repro demo                      # quick tour on a built-in instance
    python -m repro solve plan.json -a three_halves --gantt
    python -m repro audit plan.json           # run every algorithm + certify
    python -m repro figures --out results/    # regenerate the paper's figures
    python -m repro generate uniform -m 4 --size 10 --seed 7 -o plan.json
    python -m repro sweep --families uniform big_jobs -m 2 4 --seeds 0 1 \\
        -a three_halves five_thirds --workers 4 -o results.jsonl
    python -m repro sweep ... --backend sharded --shards 4   # work-stealing
    python -m repro bench -o BENCH_runtime_scaling.json \\
        --baseline BENCH_old.json   # machine-readable perf tracking
    python -m repro bench --suite runner   # backend throughput scaling
    python -m repro bench --suite startup  # cold-start wall time
    python -m repro lint src tests        # invariant linter (REP001–REP006)
    python -m repro lint --format json --rule REP004   # single rule, CI schema
    python -m repro serve --port 7341 -o service.jsonl  # scheduler service
    python -m repro submit plan.json -a three_halves --port 7341
    python -m repro solve plan.json -a eptas --trace run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl   # phase breakdown
    python -m repro trace export run.trace.jsonl --format chrome -o t.json

Instance files are the JSON produced by
:meth:`repro.core.instance.Instance.to_dict` (see ``generate``).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from repro import (
    Instance,
    InvalidScheduleError,
    available_algorithms,
    solve,
    validate_schedule,
    validation_instance,
)
from repro.core.errors import PreconditionError
from repro.workloads import family_names, generate

__all__ = ["main", "build_parser"]


def _load_instance(path: str) -> Instance:
    with open(path) as handle:
        return Instance.from_dict(json.load(handle))


def _validation_target(inst: Instance, schedule) -> Instance:
    """Instance to validate against, warning on a machine-count mismatch.

    Algorithms may legitimately return a schedule on a different machine
    set (e.g. the EPTAS in resource-augmentation mode); previously such
    schedules were silently never validated.
    """
    target = validation_instance(inst, schedule)
    if target is not inst:
        print(
            f"warning: schedule uses {schedule.num_machines} machines but "
            f"the instance has {inst.num_machines}; validating against "
            f"{schedule.num_machines}",
            file=sys.stderr,
        )
    return target


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    result = solve(inst, algorithm=args.algorithm)
    try:
        validate_schedule(_validation_target(inst, result.schedule), result.schedule)
        validity = "valid"
    except InvalidScheduleError as exc:
        validity = f"INVALID — {exc}"
    print(f"instance : {inst.name} (n={inst.num_jobs}, m={inst.num_machines})")
    print(f"algorithm: {result.algorithm}")
    print(f"makespan : {result.makespan}")
    print(f"bound T  : {result.lower_bound}")
    print(f"ratio    : {float(result.bound_ratio()):.4f}")
    print(f"validity : {validity}")
    if result.guarantee is not None:
        print(f"guarantee: {result.guarantee} (holds: {result.within_guarantee()})")
    if args.gantt:
        from repro.analysis import render_gantt

        print()
        print(render_gantt(result.schedule, inst))
    if args.out:
        Path(args.out).write_text(json.dumps(result.schedule.to_dict()))
        print(f"schedule written to {args.out}")
    return 0 if validity == "valid" else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis import format_table

    inst = _load_instance(args.instance)
    rows = []
    algorithms = args.algorithms or [
        "five_thirds",
        "three_halves",
        "merge_lpt",
        "class_greedy",
        "list_lpt",
    ]
    for algorithm in algorithms:
        try:
            result = solve(inst, algorithm=algorithm)
        except Exception as exc:
            rows.append([algorithm, "ERROR", str(exc)[:40], "-", "-", "-"])
            continue
        try:
            validate_schedule(
                _validation_target(inst, result.schedule), result.schedule
            )
            ok = "valid"
        except InvalidScheduleError as exc:
            # Report the offending algorithm and keep auditing the rest.
            print(f"warning: {algorithm}: {exc}", file=sys.stderr)
            ok = "invalid"
        rows.append(
            [
                algorithm,
                str(result.makespan),
                str(result.lower_bound),
                f"{float(result.bound_ratio()):.4f}",
                str(result.guarantee) if result.guarantee else "-",
                ok,
            ]
        )
    print(
        format_table(
            ["algorithm", "makespan", "bound T", "ratio", "guarantee", "valid"],
            rows,
        )
    )
    return 0


def _sweep_stats_line(result) -> str:
    """One-line backend telemetry summary (steals, retries, hit rate…)."""
    parts = [f"backend={result.backend}"]
    stats = result.stats
    for key in (
        "shards",
        "steals",
        "retries",
        "quarantined",
        "part_recovered",
    ):
        if key in stats and stats[key] is not None:
            parts.append(f"{key}={stats[key]}")
    return ", ".join(parts)


def _print_failure_summary(result) -> None:
    """Per-algorithm failure roll-up on stderr (first error as sample)."""
    for algorithm, failed in sorted(result.error_summary().items()):
        sample = failed[0].error or "unknown error"
        print(
            f"error: {algorithm}: {len(failed)} cell(s) failed "
            f"(e.g. {failed[0].instance}: {sample})",
            file=sys.stderr,
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import sweep_summary_table
    from repro.runner import InstanceRepository, WorkPlan, run_plan
    from repro.runner.backends import resolve_backend_name

    if args.instances_dir:
        try:
            repo = InstanceRepository.from_directory(args.instances_dir)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        repo = InstanceRepository.from_families(
            args.families, args.machines, args.sizes, args.seeds
        )
    backend = None if args.backend == "auto" else args.backend
    # Deferred payloads let shard workers fetch their own instances,
    # overlapping repository IO with solving; the serial backend
    # resolves them in line.
    defer = resolve_backend_name(backend, args.workers) == "sharded"
    plan = WorkPlan.from_product(repo, args.algorithms, defer_payloads=defer)
    print(
        f"sweep: {len(repo)} instance(s) × {len(args.algorithms)} "
        f"algorithm(s) = {len(plan)} cell(s), backend={args.backend}, "
        f"workers={args.workers}"
    )

    def progress(record, done, total):
        if not args.quiet:
            status = record.status if record.ok else f"error: {record.error}"
            print(
                f"  [{done}/{total}] {record.instance} × {record.algorithm}"
                f" — {status}"
            )

    result = run_plan(
        plan,
        args.out,
        workers=args.workers,
        backend=backend,
        shards=args.shards,
        repository=repo,
        retry_limit=args.retry_limit,
        resume=not args.no_resume,
        progress=progress,
    )
    print(
        f"done: {result.executed} executed, {result.cache_hits} cached, "
        f"{result.errors} error(s) -> {args.out}"
    )
    print(f"  {_sweep_stats_line(result)}")
    print(sweep_summary_table(result.records))
    if result.errors:
        _print_failure_summary(result)
        if args.keep_going:
            print(
                f"warning: {result.errors} cell(s) failed; exiting 0 "
                "(--keep-going)",
                file=sys.stderr,
            )
            return 0
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.runner.perf import (
        check_regressions,
        load_bench_json,
        merge_bench_runs,
        run_approx_suite,
        run_baselines_suite,
        run_eptas_suite,
        run_obs_suite,
        run_runner_suite,
        run_runtime_scaling,
        run_startup_suite,
        write_bench_json,
    )

    baseline = None
    if args.baseline:
        try:
            baseline = load_bench_json(args.baseline)
        except FileNotFoundError:
            print(
                f"error: baseline {args.baseline} not found", file=sys.stderr
            )
            return 2
    overrides = {}
    if args.sizes:
        overrides["sizes"] = args.sizes
    if args.machines:
        overrides["machines"] = args.machines
    if args.algorithms:
        overrides["algorithms"] = args.algorithms
    runs = []
    if args.suite in ("default", "all"):
        runs.append(
            run_runtime_scaling(
                repeats=args.repeats, seed=args.seed, **overrides
            )
        )
    if args.suite in ("baselines", "all"):
        baseline_overrides = dict(overrides)
        if args.suite == "all":
            # Sizes/algorithms flags configure the default grid; the
            # baselines grid keeps its own (up to n = 10⁵) defaults.
            baseline_overrides.pop("sizes", None)
            baseline_overrides.pop("algorithms", None)
        runs.append(
            run_baselines_suite(
                repeats=args.repeats, seed=args.seed, **baseline_overrides
            )
        )
    if args.suite in ("approx", "all"):
        approx_overrides = dict(overrides)
        # The approx grid derives its machine counts from the stress
        # families; -m configures the other suites only.
        approx_overrides.pop("machines", None)
        if args.suite == "all":
            approx_overrides.pop("sizes", None)
            approx_overrides.pop("algorithms", None)
        runs.append(
            run_approx_suite(
                repeats=args.repeats, seed=args.seed, **approx_overrides
            )
        )
    if args.suite in ("eptas", "all"):
        # The eptas grid has its own cell list (small instances where the
        # rebuild-per-guess reference stays tractable); the generic size
        # and machine flags configure the other suites only.
        runs.append(run_eptas_suite(repeats=args.repeats))
    if args.suite in ("obs", "all"):
        # One smoke cell; the null-tracer median is the gated number.
        runs.append(run_obs_suite(repeats=args.repeats, seed=args.seed))
    if args.suite in ("runner", "all"):
        runner_overrides = {}
        if args.shard_counts:
            runner_overrides["shard_counts"] = args.shard_counts
        runs.append(
            run_runner_suite(
                repeats=args.repeats, seed=args.seed, **runner_overrides
            )
        )
    if args.suite in ("startup", "all"):
        runs.append(run_startup_suite(repeats=args.repeats, seed=args.seed))
    data = runs[0] if len(runs) == 1 else merge_bench_runs(*runs)
    data = write_bench_json(args.out, data, baseline=baseline)
    rows = []
    for cell in data["results"]:
        rows.append(
            [
                cell["algorithm"],
                str(cell["n_jobs"]),
                f"{cell['median_s'] * 1e3:.2f}",
                (
                    f"{cell['speedup']:.2f}x"
                    if "speedup" in cell
                    else "-"
                ),
                (
                    f"{cell['speedup_vs_naive']:.2f}x"
                    if "speedup_vs_naive" in cell
                    else "-"
                ),
                (
                    f"{cell['ip_solve_pct']:.1f}%"
                    if "ip_solve_pct" in cell
                    else "-"
                ),
                "yes" if cell["valid"] else "INVALID",
            ]
        )
    print(
        format_table(
            [
                "algorithm",
                "jobs n",
                "median (ms)",
                "vs baseline",
                "vs naive",
                "% in IP",
                "valid",
            ],
            rows,
        )
    )
    if baseline is not None:
        speedups = data.get("largest_size_speedups", {})
        if speedups:
            summary = ", ".join(
                f"{name} {factor:.2f}x"
                for name, factor in sorted(speedups.items())
            )
            print(f"largest-size speedups: {summary}")
    naive_speedups = data.get("largest_size_speedups_vs_naive", {})
    if naive_speedups:
        summary = ", ".join(
            f"{name} {factor:.2f}x"
            for name, factor in sorted(naive_speedups.items())
        )
        print(f"kernel vs pre-kernel quadratic loop: {summary}")
    runner_cells = [
        cell for cell in data["results"] if cell.get("suite") == "runner"
    ]
    if runner_cells:
        summary = ", ".join(
            f"{cell['backend']} {cell['cells_per_sec']:.1f} cells/s"
            + (
                f" ({cell['speedup_vs_serial']:.2f}x)"
                if "speedup_vs_serial" in cell
                else ""
            )
            + f" IQR {cell['spread_pct']:.0f}%"
            for cell in runner_cells
        )
        print(
            f"sweep throughput vs serial, best of "
            f"{runner_cells[0]['repeats']}: {summary}"
        )
    eptas_speedups = data.get("largest_size_speedups_vs_rebuild", {})
    if eptas_speedups:
        summary = ", ".join(
            f"{name} {factor:.2f}x"
            for name, factor in sorted(eptas_speedups.items())
        )
        print(f"incremental eptas vs rebuild-per-guess: {summary}")
    obs_cells = [
        cell for cell in data["results"] if cell.get("suite") == "obs"
    ]
    for cell in obs_cells:
        if "overhead_pct" in cell:
            print(
                f"tracing overhead ({cell['algorithm']}, enabled vs null "
                f"tracer): {cell['overhead_pct']:+.2f}%"
            )
    startup_cells = [
        cell for cell in data["results"] if cell.get("suite") == "startup"
    ]
    if startup_cells:
        summary = ", ".join(
            f"{cell['command']} {cell['min_s'] * 1e3:.0f} ms "
            f"(IQR {cell['spread_pct']:.0f}%)"
            for cell in startup_cells
        )
        print(f"cold start, best of {startup_cells[0]['repeats']}: {summary}")
    print(f"wrote {args.out}")
    invalid = [cell for cell in data["results"] if not cell["valid"]]
    if invalid:
        for cell in invalid:
            print(
                f"error: {cell['algorithm']} n={cell['n_target']}: "
                f"{cell.get('error', 'invalid schedule')}",
                file=sys.stderr,
            )
        return 1
    if args.fail_on_regression is not None:
        gate_path = args.regression_baseline or args.baseline
        if not gate_path:
            print(
                "error: --fail-on-regression needs --regression-baseline "
                "(or --baseline) to compare against",
                file=sys.stderr,
            )
            return 2
        try:
            gate = load_bench_json(gate_path)
        except FileNotFoundError:
            print(
                f"error: regression baseline {gate_path} not found",
                file=sys.stderr,
            )
            return 2
        failures = check_regressions(data, gate, args.fail_on_regression)
        if failures:
            for failure in failures:
                print(f"perf regression: {failure}", file=sys.stderr)
            return 3
        print(
            f"no perf regression vs {gate_path} "
            f"(tolerance {args.fail_on_regression:.1f}%)"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = generate(args.family, args.machines, args.size, args.seed)
    payload = json.dumps(inst.to_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(payload)
        print(
            f"wrote {args.family} instance (n={inst.num_jobs}, "
            f"m={inst.num_machines}) to {args.out}"
        )
    else:
        print(payload)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import all_figures

    figures = all_figures()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in figures.items():
            (out / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {len(figures)} figures to {out}/")
    else:
        for name, text in figures.items():
            print(text)
            print("=" * 72)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, summarize_trace, write_chrome_trace

    try:
        trace = load_trace(args.trace_file)
    except FileNotFoundError:
        print(f"error: trace file {args.trace_file} not found",
              file=sys.stderr)
        return 2
    if args.action == "summarize":
        print(summarize_trace(trace))
        return 0
    # export
    if args.format != "chrome":  # pragma: no cover - argparse enforces
        print(f"error: unknown export format {args.format!r}",
              file=sys.stderr)
        return 2
    write_chrome_trace(trace, args.out)
    if args.out != "-":
        print(
            f"wrote Chrome trace-event JSON to {args.out} "
            "(load in Perfetto / chrome://tracing)"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.analysis import format_table, render_gantt

    inst = Instance.from_class_sizes(
        [[9, 2], [8, 3], [5, 5, 4], [6, 6], [4, 4, 4], [3, 2, 2], [7],
         [1, 1, 1, 1]],
        4,
        name="demo",
    )
    print(__doc__)
    print(f"demo instance: {inst}")
    rows = []
    for algorithm in ("five_thirds", "three_halves", "merge_lpt", "exact"):
        try:
            result = solve(inst, algorithm=algorithm)
        except PreconditionError as exc:
            # e.g. `exact` needs scipy's MILP at this size; the demo
            # still runs end to end on a scipy-free interpreter.
            rows.append([algorithm, "-", f"unavailable ({exc})"])
            continue
        validate_schedule(inst, result.schedule)
        rows.append(
            [
                algorithm,
                str(result.makespan),
                f"{float(result.bound_ratio()):.4f}",
            ]
        )
    print(format_table(["algorithm", "makespan", "ratio to its bound"], rows))
    result = solve(inst, algorithm="three_halves")
    T = Fraction(result.lower_bound)
    print()
    print(render_gantt(result.schedule, inst, marks={"T": T}))
    return 0


def _positive_int(value: str) -> int:
    """``type=`` validator: an integer >= 1 (argparse exits 2 on raise)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {number})"
        )
    return number


def _nonnegative_int(value: str) -> int:
    """``type=`` validator: an integer >= 0 (argparse exits 2 on raise)."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer (got {number})"
        )
    return number


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Register ``--trace PATH`` (handled generically in :func:`main`)."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record an obs trace (span/metrics JSONL) of this command to "
            "PATH; inspect with 'repro trace summarize/export'"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Scheduling with Many Shared Resources — reproduction CLI "
            "(Deppert et al., IPDPS 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON instance file")
    p_solve.add_argument("instance", help="path to an instance JSON file")
    p_solve.add_argument(
        "-a",
        "--algorithm",
        default="three_halves",
        choices=available_algorithms(),
    )
    p_solve.add_argument(
        "--gantt", action="store_true", help="render the schedule"
    )
    p_solve.add_argument("-o", "--out", help="write the schedule JSON here")
    _add_trace_flag(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_audit = sub.add_parser(
        "audit", help="run several algorithms and certify their bounds"
    )
    p_audit.add_argument("instance")
    p_audit.add_argument(
        "--algorithms", nargs="*", help="subset of algorithms to run"
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_sweep = sub.add_parser(
        "sweep",
        help="batch-run algorithms over an instance grid (JSONL results)",
    )
    p_sweep.add_argument(
        "--families",
        nargs="+",
        default=["uniform"],
        choices=family_names(),
        help="workload families to generate instances from",
    )
    p_sweep.add_argument(
        "-m", "--machines", nargs="+", type=int, default=[4]
    )
    p_sweep.add_argument("--sizes", nargs="+", type=int, default=[10])
    p_sweep.add_argument("--seeds", nargs="+", type=int, default=[0])
    p_sweep.add_argument(
        "--instances-dir",
        help="load *.json instance files instead of generating families",
    )
    p_sweep.add_argument(
        "-a",
        "--algorithms",
        nargs="+",
        default=["five_thirds", "three_halves"],
        choices=available_algorithms(),
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (<=1 runs inline)",
    )
    p_sweep.add_argument(
        "--backend",
        choices=("auto", "serial", "sharded"),
        default="auto",
        help=(
            "execution backend (auto: serial for --workers<=1, sharded "
            "otherwise; REPRO_SWEEP_BACKEND overrides auto)"
        ),
    )
    p_sweep.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help=(
            "shard-worker count for --backend sharded (default: "
            "--workers when > 1, else 2)"
        ),
    )
    p_sweep.add_argument(
        "--retry-limit",
        type=_nonnegative_int,
        default=2,
        help=(
            "crash-retry budget per cell before the sharded backend "
            "quarantines it as an ERROR record"
        ),
    )
    p_sweep.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "exit 0 even when cells fail (failures are still recorded "
            "and summarized); default is a non-zero exit"
        ),
    )
    p_sweep.add_argument(
        "-o", "--out", default="sweep.jsonl", help="JSONL result file"
    )
    p_sweep.add_argument(
        "--no-resume",
        action="store_true",
        help="re-run every cell even if the result file already has it",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )
    _add_trace_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser(
        "bench",
        help="run the runtime-scaling benchmark to a BENCH_*.json artifact",
    )
    p_bench.add_argument(
        "--sizes",
        nargs="+",
        type=int,
        default=None,
        help="target job counts (default: the seed benchmark grid)",
    )
    p_bench.add_argument("-m", "--machines", type=int, default=None)
    p_bench.add_argument(
        "-a",
        "--algorithms",
        nargs="+",
        default=None,
        choices=available_algorithms(),
    )
    p_bench.add_argument(
        "--suite",
        choices=(
            "default", "baselines", "approx", "eptas", "obs", "runner",
            "startup", "all",
        ),
        default="default",
        help=(
            "default: the seed runtime-scaling grid; baselines: the "
            "dispatch-kernel grid up to n=1e5 with quadratic-loop "
            "speedup cells; approx: the 5/3, 3/2 and no_huge stress "
            "grids vs their preserved pre-kernel cores; eptas: the "
            "incremental EPTAS vs the rebuild-per-guess reference "
            "(paired timing, identical makespans asserted, per-phase "
            "span breakdown); obs: the observability overhead smoke "
            "(null vs enabled tracer, paired timing); runner: the "
            "execution-backend throughput grid (serial vs sharded "
            "cells/sec by shard count); startup: cold-start wall time of "
            "python, repro --help, serve and submit in fresh child "
            "processes; all: every suite"
        ),
    )
    p_bench.add_argument(
        "--shard-counts",
        nargs="+",
        type=int,
        default=None,
        help="shard counts for the --suite runner scaling grid",
    )
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "-o", "--out", default="BENCH_runtime_scaling.json"
    )
    p_bench.add_argument(
        "--baseline",
        help="previous BENCH_*.json to compute speedup deltas against",
    )
    p_bench.add_argument(
        "--fail-on-regression",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "exit non-zero when any cell median or headline "
            "largest_size_speedups* factor regresses more than PCT "
            "percent against the baseline-of-record "
            "(--regression-baseline, falling back to --baseline)"
        ),
    )
    p_bench.add_argument(
        "--regression-baseline",
        metavar="PATH",
        help=(
            "baseline-of-record BENCH_*.json for --fail-on-regression "
            "(default: the --baseline file)"
        ),
    )
    _add_trace_flag(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="inspect an obs trace file (summarize / export for Perfetto)",
    )
    trace_sub = p_trace.add_subparsers(dest="action", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize",
        help="per-span totals, counters, gauges and latency percentiles",
    )
    p_trace_sum.add_argument("trace_file", help="trace JSONL from --trace")
    p_trace_sum.set_defaults(func=_cmd_trace, action="summarize")
    p_trace_exp = trace_sub.add_parser(
        "export",
        help="convert to another format (chrome: trace-event JSON that "
        "loads in Perfetto / chrome://tracing)",
    )
    p_trace_exp.add_argument("trace_file", help="trace JSONL from --trace")
    p_trace_exp.add_argument(
        "--format", choices=("chrome",), default="chrome"
    )
    p_trace_exp.add_argument(
        "-o", "--out", default="-", help="output path ('-' for stdout)"
    )
    p_trace_exp.set_defaults(func=_cmd_trace, action="export")

    p_gen = sub.add_parser(
        "generate", help="generate a random instance to JSON"
    )
    p_gen.add_argument("family", choices=family_names())
    p_gen.add_argument("-m", "--machines", type=int, default=4)
    p_gen.add_argument("--size", type=int, default=10)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--out", help="output path (stdout if omitted)")
    p_gen.set_defaults(func=_cmd_generate)

    p_fig = sub.add_parser(
        "figures", help="regenerate the paper's six figures"
    )
    p_fig.add_argument("--out", help="directory for figN.txt files")
    p_fig.set_defaults(func=_cmd_figures)

    p_demo = sub.add_parser("demo", help="quick tour on a built-in instance")
    p_demo.set_defaults(func=_cmd_demo)

    from repro.lint.cli import add_lint_parser
    from repro.service.cli import add_service_parsers

    add_lint_parser(sub)
    add_service_parsers(sub, _positive_int, _nonnegative_int)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``.

    Commands that registered ``--trace`` run inside a
    :class:`repro.obs.trace_scope`: the tracer is active for the whole
    command (every layer picks it up via ``get_tracer()``) and the
    trace is dumped to the given path on the way out.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return args.func(args)
    from repro.obs import trace_scope

    with trace_scope(trace_path):
        code = args.func(args)
    print(f"trace written to {trace_path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
