"""Tests for the command-line interface."""

import json
from fractions import Fraction

import pytest

from repro.algorithms import registry
from repro.algorithms.base import ScheduleResult
from repro.cli import main
from repro.core.schedule import Placement, Schedule
from repro.workloads import generate
from tests.markers import needs_networkx


@pytest.fixture
def instance_file(tmp_path):
    inst = generate("uniform", 3, 6, seed=0)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(inst.to_dict()))
    return path


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


def _sequential_schedule(inst, num_machines):
    """A trivially valid schedule: all jobs back-to-back on machine 0."""
    placements, clock = [], Fraction(0)
    for job in inst.jobs:
        placements.append(Placement(job=job, machine=0, start=clock))
        clock += job.size
    return Schedule(placements, num_machines)


def _overlapping_schedule(inst, num_machines):
    """An invalid schedule: every job starts at time zero on machine 0."""
    placements = [
        Placement(job=job, machine=0, start=Fraction(0)) for job in inst.jobs
    ]
    return Schedule(placements, num_machines)


class TestSolve:
    def test_solve_basic(self, instance_file, capsys):
        assert main(["solve", str(instance_file)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "guarantee" in out

    def test_solve_with_gantt(self, instance_file, capsys):
        assert main(["solve", str(instance_file), "--gantt"]) == 0
        assert "M0" in capsys.readouterr().out

    def test_solve_algorithm_choice(self, instance_file, capsys):
        assert (
            main(["solve", str(instance_file), "-a", "five_thirds"]) == 0
        )
        assert "five_thirds" in capsys.readouterr().out

    def test_solve_writes_schedule(self, instance_file, tmp_path, capsys):
        out = tmp_path / "schedule.json"
        assert (
            main(["solve", str(instance_file), "-o", str(out)]) == 0
        )
        data = json.loads(out.read_text())
        assert data["placements"]

    def test_unknown_algorithm_rejected(self, instance_file):
        with pytest.raises(SystemExit):
            main(["solve", str(instance_file), "-a", "bogus"])


class TestAudit:
    def test_audit_table(self, instance_file, capsys):
        assert main(["audit", str(instance_file)]) == 0
        out = capsys.readouterr().out
        for name in ("five_thirds", "three_halves", "merge_lpt"):
            assert name in out

    def test_audit_subset(self, instance_file, capsys):
        assert (
            main(
                ["audit", str(instance_file), "--algorithms", "merge_lpt"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "merge_lpt" in out
        assert "five_thirds" not in out


class TestSolveValidation:
    def test_machine_mismatch_is_validated_with_warning(
        self, instance_file, fake_algorithm, capsys
    ):
        """Schedules on a different machine count used to skip validation
        silently; now they are validated against their own machine count
        and a warning is printed."""

        def augmented(inst, **kwargs):
            return ScheduleResult(
                schedule=_sequential_schedule(inst, inst.num_machines + 1),
                lower_bound=1,
                algorithm="_augmented_ok",
            )

        fake_algorithm("_augmented_ok", augmented)
        assert main(["solve", str(instance_file), "-a", "_augmented_ok"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "4 machines" in captured.err
        assert "validity : valid" in captured.out

    def test_invalid_mismatched_schedule_is_caught(
        self, instance_file, fake_algorithm, capsys
    ):
        """Regression: an *invalid* schedule with a foreign machine count
        must be reported, not silently waved through."""

        def bad(inst, **kwargs):
            return ScheduleResult(
                schedule=_overlapping_schedule(inst, inst.num_machines + 1),
                lower_bound=1,
                algorithm="_augmented_bad",
            )

        fake_algorithm("_augmented_bad", bad)
        assert main(["solve", str(instance_file), "-a", "_augmented_bad"]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestAuditResilience:
    def test_erroring_algorithm_reported_not_fatal(
        self, instance_file, fake_algorithm, capsys
    ):
        def exploding(inst, **kwargs):
            raise RuntimeError("boom")

        fake_algorithm("_exploding", exploding)
        assert (
            main(
                [
                    "audit",
                    str(instance_file),
                    "--algorithms",
                    "_exploding",
                    "merge_lpt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ERROR" in out and "boom" in out
        assert "merge_lpt" in out

    def test_invalid_schedule_reported_not_fatal(
        self, instance_file, fake_algorithm, capsys
    ):
        """Regression for the dead ``ok = "valid"`` variable: an invalid
        schedule used to raise and abort the audit mid-table."""

        def bad(inst, **kwargs):
            return ScheduleResult(
                schedule=_overlapping_schedule(inst, inst.num_machines),
                lower_bound=1,
                algorithm="_invalid",
            )

        fake_algorithm("_invalid", bad)
        assert (
            main(
                [
                    "audit",
                    str(instance_file),
                    "--algorithms",
                    "_invalid",
                    "merge_lpt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "invalid" in out
        assert "merge_lpt" in out  # the audit completed

    def test_valid_column_present(self, instance_file, capsys):
        assert main(["audit", str(instance_file)]) == 0
        assert "valid" in capsys.readouterr().out


class TestSweep:
    def test_sweep_writes_jsonl_and_caches(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        argv = [
            "sweep",
            "--families",
            "uniform",
            "--machines",
            "2",
            "3",
            "--sizes",
            "6",
            "--seeds",
            "0",
            "1",
            "-a",
            "three_halves",
            "merge_lpt",
            "--quiet",
            "-o",
            str(out),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "8 executed, 0 cached" in first
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert len(records) == 8
        assert all(rec["status"] == "ok" and rec["valid"] for rec in records)

        assert main(argv) == 0
        assert "0 executed, 8 cached" in capsys.readouterr().out
        # Cached rerun appended nothing.
        assert len(out.read_text().splitlines()) == 8

    def test_sweep_from_instance_directory(self, tmp_path, capsys):
        for seed in (0, 1):
            inst = generate("uniform", 2, 5, seed)
            (tmp_path / f"inst{seed}.json").write_text(
                json.dumps(inst.to_dict())
            )
        out = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--instances-dir",
                    str(tmp_path),
                    "-a",
                    "merge_lpt",
                    "--quiet",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        assert len(out.read_text().splitlines()) == 2

    def test_sweep_error_exit_code_and_failure_summary(
        self, tmp_path, fake_algorithm, capsys
    ):
        def exploding(inst, **kwargs):
            raise RuntimeError("boom")

        fake_algorithm("_exploding", exploding)
        # argparse restricts -a to registered algorithms, so the fake
        # name is accepted only because it is registered right now.
        out = tmp_path / "results.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--families",
                    "uniform",
                    "--machines",
                    "2",
                    "-a",
                    "_exploding",
                    "--quiet",
                    "-o",
                    str(out),
                ]
            )
            == 1
        )
        captured = capsys.readouterr()
        assert "1 error(s)" in captured.out
        # Per-algorithm failure summary lands on stderr.
        assert "_exploding: 1 cell(s) failed" in captured.err
        assert "boom" in captured.err

    def test_sweep_keep_going_exits_zero(
        self, tmp_path, fake_algorithm, capsys
    ):
        def exploding(inst, **kwargs):
            raise RuntimeError("boom")

        fake_algorithm("_exploding2", exploding)
        assert (
            main(
                [
                    "sweep",
                    "--families",
                    "uniform",
                    "--machines",
                    "2",
                    "-a",
                    "_exploding2",
                    "--keep-going",
                    "--quiet",
                    "-o",
                    str(tmp_path / "results.jsonl"),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "--keep-going" in captured.err

    def test_sweep_sharded_backend(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        argv = [
            "sweep",
            "--families",
            "uniform",
            "--machines",
            "2",
            "--seeds",
            "0",
            "1",
            "-a",
            "merge_lpt",
            "--backend",
            "sharded",
            "--shards",
            "2",
            "--quiet",
            "-o",
            str(out),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "backend=sharded" in first
        assert len(out.read_text().splitlines()) == 2
        # Cached re-run works across the same backend flag.
        assert main(argv) == 0
        assert "0 executed, 2 cached" in capsys.readouterr().out

    def test_sweep_workers_select_sharded(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        argv = [
            "sweep",
            "--families",
            "uniform",
            "--machines",
            "2",
            "--seeds",
            "0",
            "1",
            "2",
            "-a",
            "merge_lpt",
            "--workers",
            "2",
            "--quiet",
            "-o",
            str(out),
        ]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "backend=sharded, shards=2" in printed
        assert len(out.read_text().splitlines()) == 3


class TestSweepArgumentValidation:
    """Regression: bad numeric flags used to reach the backends and die
    with opaque tracebacks; they must exit 2 at the parser."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shards", "0"], "must be a positive integer"),
            (["--retry-limit", "-1"], "must be a non-negative integer"),
        ],
    )
    def test_bad_values_exit_2_with_clear_error(
        self, flags, message, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--quiet", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert flags[0] in err

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "x"], ["--retry-limit", "no"]],
    )
    def test_non_integers_exit_2(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--quiet", *flags])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "uniform", "-m", "2", "--size", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_machines"] == 2

    def test_generate_to_file_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        assert (
            main(
                [
                    "generate",
                    "big_jobs",
                    "-m",
                    "3",
                    "--size",
                    "6",
                    "--seed",
                    "1",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        # the generated file round-trips through solve
        assert main(["solve", str(out)]) == 0


class TestFiguresAndDemo:
    @needs_networkx
    def test_figures_to_directory(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {f"fig{i}.txt" for i in range(1, 7)}

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "three_halves" in out and "exact" in out
