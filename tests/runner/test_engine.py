"""Tests for the batch sweep engine: caching, resume, failure isolation."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from repro.algorithms import registry
from repro.core.instance import Instance
from repro.runner import (
    DuplicateCellWarning,
    InstanceRepository,
    RunRecord,
    WorkPlan,
    cache_key,
    instance_content_hash,
    read_records,
    run_plan,
)
from repro.runner.engine import staging_path
from repro.workloads import generate

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def repo():
    return InstanceRepository.from_families(
        ["uniform", "big_jobs"], [2, 4], [6], [0, 1]
    )


@pytest.fixture
def plan(repo):
    return WorkPlan.from_product(
        repo, ["three_halves", "five_thirds", "merge_lpt"]
    )


class TestPlan:
    def test_product_size(self, plan):
        assert len(plan) == 8 * 3

    def test_duplicate_cells_skipped_with_warning(self, repo):
        with pytest.warns(DuplicateCellWarning, match="duplicate cell"):
            plan = WorkPlan.from_product(
                repo, ["three_halves", "three_halves"]
            )
        assert len(plan) == 8
        assert plan.duplicates_skipped == 8

    def test_no_warning_without_duplicates(self, repo):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DuplicateCellWarning)
            plan = WorkPlan.from_product(repo, ["three_halves", "merge_lpt"])
        assert plan.duplicates_skipped == 0

    def test_content_hash_ignores_name(self):
        inst = generate("uniform", 2, 6, 0)
        renamed = Instance(
            inst.jobs, inst.num_machines, name="something-else"
        )
        assert instance_content_hash(inst) == instance_content_hash(renamed)

    def test_content_hash_sees_machines(self):
        inst = generate("uniform", 2, 6, 0)
        wider = Instance(inst.jobs, 3, name=inst.name)
        assert instance_content_hash(inst) != instance_content_hash(wider)

    def test_params_in_cache_key(self):
        assert cache_key("h", "a", {"x": 1}) != cache_key("h", "a", {"x": 2})
        assert cache_key("h", "a", {"x": 1, "y": 2}) == cache_key(
            "h", "a", {"y": 2, "x": 1}
        )


class TestInlineRun:
    def test_in_memory_sweep(self, plan):
        result = run_plan(plan)
        assert result.executed == len(plan)
        assert result.cache_hits == 0
        assert result.errors == 0
        assert len(result.records) == len(plan)
        assert all(rec.valid for rec in result.records)
        assert all(rec.ratio >= 1 for rec in result.records)

    def test_records_are_exact(self, plan):
        result = run_plan(plan)
        for rec in result.records:
            assert isinstance(rec.makespan, Fraction)
            assert isinstance(rec.lower_bound, Fraction)
            if rec.algorithm == "three_halves":
                assert rec.ratio <= Fraction(3, 2)

    def test_records_in_plan_order(self, plan):
        result = run_plan(plan)
        expected = [(s.instance_name, s.algorithm) for s in plan]
        got = [(r.instance, r.algorithm) for r in result.records]
        assert got == expected

    def test_progress_callback(self, repo):
        plan = WorkPlan.from_product(repo, ["merge_lpt"])
        seen = []
        run_plan(plan, progress=lambda rec, done, total: seen.append((done, total)))
        assert seen == [(i + 1, len(plan)) for i in range(len(plan))]


class TestCache:
    def test_rerun_is_all_cache_hits(self, plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        first = run_plan(plan, out)
        assert first.executed == len(plan)

        second = run_plan(plan, out)
        assert second.executed == 0
        assert second.cache_hits == len(plan)
        assert second.errors == 0
        # Cached records carry full data, not placeholders.
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records
        ]
        # No duplicate lines were appended.
        assert len(read_records(out)) == len(plan)

    def test_new_cells_only_are_executed(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_plan(WorkPlan.from_product(repo, ["merge_lpt"]), out)
        grown = WorkPlan.from_product(repo, ["merge_lpt", "three_halves"])
        result = run_plan(grown, out)
        assert result.cache_hits == len(repo)
        assert result.executed == len(repo)

    def test_no_resume_reexecutes_and_truncates(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        plan = WorkPlan.from_product(repo, ["merge_lpt"])
        run_plan(plan, out)
        result = run_plan(plan, out, resume=False)
        assert result.executed == len(plan)
        assert result.cache_hits == 0
        # The file was rewritten, not appended: no duplicate cells.
        assert len(read_records(out)) == len(plan)

    def test_resume_after_partial_jsonl(self, plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_plan(plan, out)
        lines = out.read_text().splitlines()
        # Simulate a sweep killed mid-write: keep 5 complete records plus
        # a torn half-line.
        out.write_text("\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2])
        result = run_plan(plan, out)
        assert result.cache_hits == 5
        assert result.executed == len(plan) - 5
        assert result.errors == 0
        # The file now contains every cell exactly once (torn tail aside).
        keys = {
            cache_key(r.instance_hash, r.algorithm, r.params)
            for r in read_records(out)
        }
        assert len(keys) == len(plan)


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


class TestAtomicFinalize:
    """Regression suite for the atomic canonical output: the JSONL file
    is promoted with ``os.replace`` only on a completed sweep, so a kill
    mid-merge can never leave a truncated canonical file for a later
    resume (or the service cache) to adopt as if it were complete."""

    def test_no_staging_file_survives_a_completed_sweep(
        self, repo, tmp_path
    ):
        out = tmp_path / "sweep.jsonl"
        run_plan(WorkPlan.from_product(repo, ["merge_lpt"]), out)
        assert out.exists()
        assert not staging_path(out).exists()

    def test_cached_rerun_does_not_touch_the_canonical_file(
        self, repo, tmp_path
    ):
        out = tmp_path / "sweep.jsonl"
        plan = WorkPlan.from_product(repo, ["merge_lpt"])
        run_plan(plan, out)
        before = out.read_bytes()
        result = run_plan(plan, out)
        assert result.cache_hits == len(plan)
        assert out.read_bytes() == before
        assert not staging_path(out).exists()

    def test_interrupt_preserves_canonical_and_stages_progress(
        self, repo, fake_algorithm, tmp_path
    ):
        """An interrupt mid-sweep leaves the canonical file exactly as
        the previous completed sweep wrote it; the cells that did finish
        are staged and adopted by the next resume."""

        def interrupt(instance, **kwargs):
            raise KeyboardInterrupt

        fake_algorithm("_interrupt_cell", interrupt)
        out = tmp_path / "sweep.jsonl"
        ref = next(iter(repo))
        baseline = WorkPlan()
        baseline.add(ref, "merge_lpt")
        run_plan(baseline, out)
        before = out.read_bytes()

        grown = WorkPlan()
        grown.add(ref, "merge_lpt")
        grown.add(ref, "_interrupt_cell")
        grown.add(ref, "three_halves")
        # The interrupt must reach this process, so the cell runs in it.
        with pytest.raises(KeyboardInterrupt):
            run_plan(grown, out, backend="serial")
        # The canonical file was never touched mid-sweep.
        assert out.read_bytes() == before
        # The staging file holds the adopted prior record, ready for resume.
        staged = read_records(staging_path(out))
        assert [rec.algorithm for rec in staged] == ["merge_lpt"]

        fake_algorithm(
            "_interrupt_cell",
            lambda instance, **kwargs: registry.get_algorithm("merge_lpt")(
                instance
            ),
        )
        result = run_plan(grown, out)
        assert result.cache_hits == 1
        assert result.executed == 2
        assert result.errors == 0
        assert not staging_path(out).exists()
        assert len(read_records(out)) == 3

    def test_kill_mid_merge_is_recoverable(self, tmp_path, fake_algorithm):
        """Acceptance: SIGKILL the sweep process mid-merge; the canonical
        file stays byte-identical to the last completed sweep, completed
        cells survive in the staging file, and the next resume adopts
        them and finishes the plan."""
        out = tmp_path / "sweep.jsonl"
        inst = generate("uniform", 2, 6, 0)
        repo = InstanceRepository()
        ref = repo.add(inst, name="victim")
        baseline = WorkPlan()
        baseline.add(ref, "merge_lpt")
        run_plan(baseline, out)
        before = out.read_bytes()

        script = tmp_path / "kill_mid_merge.py"
        script.write_text(
            textwrap.dedent(
                """
                import os, signal, sys

                from repro.algorithms import registry
                from repro.runner import InstanceRepository, WorkPlan, run_plan
                from repro.workloads import generate

                def _kill(instance, **kwargs):
                    os.kill(os.getpid(), signal.SIGKILL)

                registry._REGISTRY["_kill_mid_merge"] = _kill
                repo = InstanceRepository()
                ref = repo.add(generate("uniform", 2, 6, 0), name="victim")
                plan = WorkPlan()
                plan.add(ref, "merge_lpt")
                plan.add(ref, "_kill_mid_merge")
                plan.add(ref, "three_halves")
                # In-process, so the SIGKILL hits the sweep itself.
                run_plan(plan, sys.argv[1], backend="serial")
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -9, proc.stderr

        # The canonical file is byte-identical to the completed sweep —
        # never truncated, never partially merged.
        assert out.read_bytes() == before
        staged = read_records(staging_path(out))
        assert [rec.algorithm for rec in staged] == ["merge_lpt"]

        fake_algorithm(
            "_kill_mid_merge",
            lambda instance, **kwargs: registry.get_algorithm("merge_lpt")(
                instance
            ),
        )
        plan = WorkPlan()
        plan.add(ref, "merge_lpt")
        plan.add(ref, "_kill_mid_merge")
        plan.add(ref, "three_halves")
        result = run_plan(plan, out)
        assert result.cache_hits == 1  # adopted from the staging file
        assert result.executed == 2
        assert result.errors == 0
        assert not staging_path(out).exists()
        assert len(read_records(out)) == 3


class TestFailureIsolation:
    def test_unknown_algorithm_is_error_record(self, repo, tmp_path):
        plan = WorkPlan.from_product(repo, ["merge_lpt", "no_such_algo"])
        result = run_plan(plan, tmp_path / "sweep.jsonl")
        assert result.errors == len(repo)
        bad = [r for r in result.records if not r.ok]
        assert all(r.algorithm == "no_such_algo" for r in bad)
        assert all("no_such_algo" in r.error for r in bad)
        # Healthy cells still completed.
        assert sum(1 for r in result.records if r.ok) == len(repo)

    def test_solver_exception_is_error_record(self, repo):
        def exploding(instance, **kwargs):
            raise RuntimeError("boom")

        registry._REGISTRY["_exploding_test"] = exploding
        try:
            plan = WorkPlan.from_product(repo, ["_exploding_test", "merge_lpt"])
            result = run_plan(plan)
            assert result.errors == len(repo)
            bad = [r for r in result.records if not r.ok]
            assert all("boom" in r.error for r in bad)
        finally:
            del registry._REGISTRY["_exploding_test"]

    def test_errors_retried_on_resume(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        plan = WorkPlan.from_product(repo, ["no_such_algo"])
        run_plan(plan, out)
        result = run_plan(plan, out)
        assert result.executed == len(plan)  # errors are not cache hits
        result = run_plan(plan, out, retry_errors=False)
        assert result.executed == 0
        assert result.cache_hits == len(plan)


class TestParallelAcceptance:
    def test_twenty_plus_cells_four_workers_then_full_cache_hit(
        self, tmp_path
    ):
        """Acceptance: ≥20 cells with --workers 4 produce a complete JSONL
        result set, and re-running is a 100% cache hit."""
        repo = InstanceRepository.from_families(
            ["uniform", "big_jobs"], [2, 3], [6], [0, 1]
        )
        plan = WorkPlan.from_product(
            repo, ["three_halves", "five_thirds", "merge_lpt"]
        )
        assert len(plan) >= 20
        out = tmp_path / "sweep.jsonl"

        first = run_plan(plan, out, workers=4)
        assert first.executed == len(plan)
        assert first.errors == 0
        on_disk = read_records(out)
        assert len(on_disk) == len(plan)
        assert all(rec.ok and rec.valid for rec in on_disk)

        second = run_plan(plan, out, workers=4)
        assert second.executed == 0
        assert second.cache_hits == len(plan)

    def test_worker_failure_isolated_across_pool(self, tmp_path):
        repo = InstanceRepository.from_families(["uniform"], [2, 3], [6], [0, 1])
        plan = WorkPlan.from_product(repo, ["merge_lpt", "no_such_algo"])
        result = run_plan(plan, tmp_path / "sweep.jsonl", workers=4)
        assert result.errors == len(repo)
        assert sum(1 for r in result.records if r.ok) == len(repo)


class TestRecordRoundtrip:
    def test_jsonl_roundtrip_preserves_exact_values(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        result = run_plan(WorkPlan.from_product(repo, ["three_halves"]), out)
        # Match by cache key: disk order is backend-dependent (the
        # sharded backend writes the canonical key-ordered stream).
        loaded = {rec.key: rec for rec in read_records(out)}
        assert len(loaded) == len(result.records)
        for mem in result.records:
            disk = loaded[mem.key]
            assert disk.makespan == mem.makespan
            assert disk.lower_bound == mem.lower_bound
            assert disk.ratio == mem.ratio
            assert disk.meta == mem.meta

    def test_non_json_params_serialize_and_cache(self, repo, tmp_path):
        """Fraction-valued params must not crash record writing, and the
        canonicalized form must still cache-hit on re-run."""
        out = tmp_path / "sweep.jsonl"
        grid = [{"epsilon": Fraction(1, 3)}]
        plan = WorkPlan.from_product(repo, ["merge_lpt"], params_grid=grid)
        first = run_plan(plan, out)
        assert first.errors in (0, len(plan))  # solver may reject the kwarg
        assert len(read_records(out)) == len(plan)
        second = run_plan(
            WorkPlan.from_product(repo, ["merge_lpt"], params_grid=grid),
            out,
            retry_errors=False,
        )
        assert second.executed == 0
        assert second.cache_hits == len(plan)

    def test_jsonl_lines_are_valid_json(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_plan(WorkPlan.from_product(repo, ["merge_lpt"]), out)
        for line in out.read_text().splitlines():
            obj = json.loads(line)
            assert obj["status"] == "ok"
            assert Fraction(obj["makespan"]) > 0
