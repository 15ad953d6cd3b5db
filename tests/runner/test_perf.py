"""Tests for the machine-readable perf benchmarks (`repro.runner.perf`)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runner.perf import (
    attach_baseline,
    check_regressions,
    largest_size_speedups,
    merge_bench_runs,
    run_approx_suite,
    run_baselines_suite,
    run_eptas_suite,
    run_obs_suite,
    run_runner_suite,
    run_runtime_scaling,
    write_bench_json,
)


def test_baselines_suite_records_naive_comparison():
    data = run_baselines_suite(
        sizes=(24,), machines=3, repeats=1, naive_repeats=1
    )
    assert data["config"]["suite"] == "baselines"
    cells = data["results"]
    assert {c["algorithm"] for c in cells} == {
        "class_greedy",
        "list_lpt",
        "merge_lpt",
    }
    for cell in cells:
        assert cell["valid"], cell.get("error")
        assert cell["suite"] == "baselines"
        # Below the cutoff every cell carries the quadratic-loop delta.
        assert cell["naive_median_s"] > 0
        assert cell["speedup_vs_naive"] > 0


def test_baselines_suite_skips_naive_above_cutoff():
    data = run_baselines_suite(
        sizes=(24,), machines=3, repeats=1, naive_cutoff=10
    )
    for cell in data["results"]:
        assert "naive_median_s" not in cell
        assert "speedup_vs_naive" not in cell


def test_approx_suite_records_reference_comparison():
    data = run_approx_suite(
        sizes=(60,), repeats=1, naive_repeats=1
    )
    assert data["config"]["suite"] == "approx"
    cells = data["results"]
    assert {c["algorithm"] for c in cells} == {
        "five_thirds",
        "three_halves",
        "no_huge",
    }
    for cell in cells:
        assert cell["valid"], cell.get("error")
        assert cell["suite"] == "approx"
        assert cell["family"] in ("mh_stress", "packed_small")
        # Machines scale with the class-count knob, not a fixed m.
        assert cell["machines"] > 8
        assert cell["naive_median_s"] > 0
        assert cell["speedup_vs_naive"] > 0


def test_approx_suite_skips_naive_above_cutoff():
    data = run_approx_suite(
        sizes=(60,), repeats=1, naive_cutoff=10
    )
    for cell in data["results"]:
        assert "naive_median_s" not in cell
        assert "speedup_vs_naive" not in cell


def test_approx_suite_rejects_non_approx_algorithms():
    with pytest.raises(ValueError, match="stress family"):
        run_approx_suite(sizes=(30,), algorithms=("class_greedy",))


def test_merge_bench_runs_concatenates_suites():
    default = run_runtime_scaling(
        sizes=(20,), machines=3, algorithms=("merge_lpt",), repeats=1
    )
    baselines = run_baselines_suite(
        sizes=(24,), machines=3, repeats=1, naive_repeats=1
    )
    merged = merge_bench_runs(default, baselines)
    assert set(merged["config"]["suites"]) == {"default", "baselines"}
    assert len(merged["results"]) == (
        len(default["results"]) + len(baselines["results"])
    )
    headline = largest_size_speedups(merged, key="speedup_vs_naive")
    assert set(headline) == {"class_greedy", "list_lpt", "merge_lpt"}


def test_write_bench_json_records_naive_headline(tmp_path):
    data = run_baselines_suite(
        sizes=(24,), machines=3, repeats=1, naive_repeats=1
    )
    out = tmp_path / "bench.json"
    written = write_bench_json(out, data)
    assert "largest_size_speedups_vs_naive" in written
    assert json.loads(out.read_text()) == written


def test_cli_bench_suite_approx(tmp_path, capsys):
    out = tmp_path / "BENCH_approx.json"
    code = main(
        [
            "bench",
            "--suite",
            "approx",
            "--sizes",
            "60",
            "--repeats",
            "1",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "kernel vs pre-kernel quadratic loop" in printed
    data = json.loads(out.read_text())
    assert data["config"]["suite"] == "approx"
    assert set(data["largest_size_speedups_vs_naive"]) == {
        "five_thirds",
        "three_halves",
        "no_huge",
    }


def _fake_bench(median_by_cell, **headlines):
    return {
        "results": [
            {"algorithm": algo, "n_target": n, "median_s": median}
            for (algo, n), median in median_by_cell.items()
        ],
        **headlines,
    }


class TestCheckRegressions:
    def test_within_tolerance_passes(self):
        base = _fake_bench({("merge_lpt", 100): 1.0})
        data = _fake_bench({("merge_lpt", 100): 1.05})
        assert check_regressions(data, base, 10.0) == []

    def test_slower_cell_is_flagged(self):
        base = _fake_bench({("merge_lpt", 100): 1.0})
        data = _fake_bench({("merge_lpt", 100): 1.5})
        failures = check_regressions(data, base, 10.0)
        assert len(failures) == 1
        assert "merge_lpt @ n_target=100" in failures[0]
        assert "+50.0%" in failures[0]

    def test_unmatched_cells_are_ignored(self):
        base = _fake_bench({("class_greedy", 50): 1.0})
        data = _fake_bench({("merge_lpt", 100): 9.0})
        assert check_regressions(data, base, 10.0) == []

    def test_headline_speedup_drop_is_flagged(self):
        base = _fake_bench(
            {}, largest_size_speedups_vs_naive={"five_thirds": 1.2}
        )
        data = _fake_bench(
            {}, largest_size_speedups_vs_naive={"five_thirds": 0.8}
        )
        failures = check_regressions(data, base, 10.0)
        assert len(failures) == 1
        assert "largest_size_speedups_vs_naive[five_thirds]" in failures[0]

    def test_headline_within_tolerance_passes(self):
        base = _fake_bench(
            {}, largest_size_speedups_vs_rebuild={"eptas": 1.00}
        )
        data = _fake_bench(
            {}, largest_size_speedups_vs_rebuild={"eptas": 0.95}
        )
        assert check_regressions(data, base, 10.0) == []

    @staticmethod
    def _two_suites(default_s, obs_s):
        return {
            "results": [
                {"suite": "default", "algorithm": "three_halves",
                 "n_target": 800, "median_s": default_s},
                {"suite": "obs", "algorithm": "three_halves",
                 "n_target": 800, "median_s": obs_s},
            ]
        }

    def test_suites_sharing_a_cell_compare_within_their_suite(self):
        base = self._two_suites(2.0, 1.0)
        data = self._two_suites(1.9, 1.05)
        assert check_regressions(data, base, 10.0) == []
        annotated = attach_baseline(data, base)
        assert [c["baseline_median_s"] for c in annotated["results"]] == [
            2.0,
            1.0,
        ]

    @staticmethod
    def _two_epsilons(half_s, two_fifths_s):
        return {
            "results": [
                {"suite": "eptas", "algorithm": "eptas", "n_target": 8,
                 "epsilon": "1/2", "median_s": half_s},
                {"suite": "eptas", "algorithm": "eptas", "n_target": 8,
                 "epsilon": "2/5", "median_s": two_fifths_s},
            ]
        }

    def test_cells_differing_only_in_epsilon_compare_separately(self):
        base = self._two_epsilons(0.5, 3.0)
        steady = self._two_epsilons(0.52, 2.9)
        assert check_regressions(steady, base, 10.0) == []
        slower = self._two_epsilons(0.9, 2.9)
        failures = check_regressions(slower, base, 10.0)
        assert len(failures) == 1
        assert "eptas @ n_target=8, epsilon=1/2: " in failures[0]
        assert "+80.0%" in failures[0]
        annotated = attach_baseline(steady, base)
        assert [c["baseline_median_s"] for c in annotated["results"]] == [
            0.5,
            3.0,
        ]

    def test_cell_without_suite_reads_as_default(self):
        base = _fake_bench({("three_halves", 800): 1.0})
        data = self._two_suites(1.5, 9.0)
        failures = check_regressions(data, base, 10.0)
        assert len(failures) == 1
        assert "+50.0%" in failures[0]


def test_cli_bench_fail_on_regression_gate(tmp_path, capsys):
    """End-to-end regression gate: green against itself, exit 3 against
    a fabricated impossibly-fast baseline, exit 2 with no baseline."""
    out = tmp_path / "BENCH_gate.json"
    argv = [
        "bench",
        "--suite",
        "baselines",
        "--sizes",
        "24",
        "-m",
        "3",
        "--repeats",
        "1",
        "-o",
        str(out),
    ]
    assert main(argv) == 0
    # A just-written run of the same grid cannot regress >400% vs itself.
    code = main(
        argv + ["--fail-on-regression", "400",
                "--regression-baseline", str(out)]
    )
    assert code == 0
    assert "no perf regression" in capsys.readouterr().out

    fast = json.loads(out.read_text())
    for cell in fast["results"]:
        cell["median_s"] = cell["median_s"] / 1e6
    gate = tmp_path / "impossible.json"
    gate.write_text(json.dumps(fast))
    code = main(
        argv + ["--fail-on-regression", "10",
                "--regression-baseline", str(gate)]
    )
    assert code == 3
    assert "perf regression:" in capsys.readouterr().err

    code = main(
        argv
        + [
            "--fail-on-regression",
            "10",
            "--regression-baseline",
            str(tmp_path / "missing.json"),
        ]
    )
    assert code == 2
    code = main(argv + ["--fail-on-regression", "10"])
    assert code == 2


def test_cli_bench_suite_baselines(tmp_path, capsys):
    out = tmp_path / "BENCH_baselines.json"
    code = main(
        [
            "bench",
            "--suite",
            "baselines",
            "--sizes",
            "24",
            "-m",
            "3",
            "--repeats",
            "1",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "vs naive" in printed
    assert "kernel vs pre-kernel quadratic loop" in printed
    data = json.loads(out.read_text())
    assert data["config"]["suite"] == "baselines"


def test_obs_suite_measures_tracing_overhead():
    data = run_obs_suite(n_target=80, machines=3, repeats=2)
    assert data["config"]["suite"] == "obs"
    assert data["config"]["overhead_budget_pct"] == 2.0
    (cell,) = data["results"]
    assert cell["valid"], cell.get("error")
    assert cell["suite"] == "obs"
    # median_s is the *null-tracer* timing: the two-run cell-median
    # regression gate guards the disabled hot path.
    assert cell["median_s"] > 0
    assert cell["traced_median_s"] > 0
    assert cell["speedup_vs_traced"] == pytest.approx(
        cell["traced_median_s"] / cell["median_s"]
    )
    assert cell["overhead_pct"] == pytest.approx(
        100 * (cell["speedup_vs_traced"] - 1), abs=0.01
    )


def test_write_bench_json_records_traced_headline(tmp_path):
    data = run_obs_suite(n_target=60, machines=3, repeats=1)
    out = tmp_path / "BENCH_obs.json"
    write_bench_json(out, data)
    written = json.loads(out.read_text())
    headline = written["largest_size_speedups_vs_traced"]
    assert set(headline) == {"three_halves"}
    assert headline["three_halves"] > 0


def test_eptas_suite_attaches_phase_breakdown():
    data = run_eptas_suite(
        cells=(("uniform", 2, 6, 0, "1/2"), ("uniform", 2, 6, 0, "2/5")),
        repeats=1,
    )
    # Each cell runs at its own epsilon.
    assert [cell["epsilon"] for cell in data["results"]] == ["1/2", "2/5"]
    for cell in data["results"]:
        assert cell["valid"], cell.get("error")
        phases = cell["phase_s"]
        assert "eptas.solve" in phases
        assert "eptas.classify" in phases
        # The headline phase artifact: % of the solve inside the IP.
        assert 0.0 <= cell["ip_solve_pct"] <= 100.0


def test_runner_suite_races_serial_against_sharded():
    data = run_runner_suite(
        shard_counts=(2,), instances=3, size=6, repeats=1
    )
    assert data["config"]["suite"] == "runner"
    cells = data["results"]
    assert [c["backend"] for c in cells] == ["serial", "sharded-2"]
    for cell in cells:
        assert cell["valid"], cell.get("error")
        assert cell["cells"] == 3
        assert cell["cells_per_sec"] > 0
    assert cells[0]["speedup_vs_serial"] == 1.0
    assert cells[1]["speedup_vs_serial"] > 0
