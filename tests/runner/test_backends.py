"""Tests for the pluggable execution-backend subsystem.

Covers the subsystem's contract: cross-backend determinism (one plan,
identical canonical record streams through ``serial`` and ``sharded``),
the sharded backend's work stealing, crash requeue + poison-cell
quarantine (a worker killed while holding a lock it shares with the
coordinator included), part-file recovery, backend-agnostic resume,
deferred-payload fetch failures, and the v2 record schema.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.algorithms import registry
from repro.runner import (
    InstanceRepository,
    RunRecord,
    WorkPlan,
    available_backends,
    canonical_stream,
    get_backend,
    read_records,
    run_plan,
)
from repro.runner.backends.sharded import home_shard
from repro.workloads import generate

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
fork_only = pytest.mark.skipif(
    not HAS_FORK, reason="needs fork start method (registry inheritance)"
)


@pytest.fixture(autouse=True)
def _clear_backend_env(monkeypatch):
    """This file asserts *explicit* backend selection; neutralize the
    CI job's REPRO_SWEEP_BACKEND override (the env tests re-set it)."""
    monkeypatch.delenv("REPRO_SWEEP_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_SHARDS", raising=False)


@pytest.fixture
def repo():
    return InstanceRepository.from_families(
        ["uniform", "big_jobs"], [2, 3], [6], [0, 1]
    )


@pytest.fixture
def golden_plan(repo):
    """The fixed plan the cross-backend acceptance tests share."""
    return WorkPlan.from_product(repo, ["three_halves", "merge_lpt"])


@pytest.fixture
def fake_algorithm():
    registered = []

    def _register(name, func):
        registry._REGISTRY[name] = func
        registered.append(name)
        return name

    yield _register
    for name in registered:
        registry._REGISTRY.pop(name, None)


class TestRegistry:
    def test_serial_and_sharded_are_the_backends(self):
        assert available_backends() == ("serial", "sharded")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            get_backend("no_such_backend")

    def test_unknown_backend_in_run_plan(self, golden_plan):
        with pytest.raises(ValueError, match="unknown execution backend"):
            run_plan(golden_plan, backend="no_such_backend")


class TestCrossBackendDeterminism:
    """Acceptance: one shared plan must produce identical canonical
    record streams through every backend (timing/provenance excluded)."""

    def test_serial_and_sharded_identical(
        self, golden_plan, repo, tmp_path
    ):
        reference = run_plan(golden_plan, tmp_path / "serial.jsonl")
        assert reference.backend == "serial" and reference.errors == 0
        golden = canonical_stream(reference.records)

        # More than one worker selects the sharded backend, one shard
        # per worker.
        parallel = run_plan(golden_plan, tmp_path / "workers.jsonl", workers=2)
        assert parallel.backend == "sharded"
        assert parallel.stats["shards"] == 2
        assert canonical_stream(parallel.records) == golden

        sharded = run_plan(
            golden_plan, tmp_path / "sharded.jsonl", backend="sharded",
            shards=3,
        )
        assert sharded.backend == "sharded"
        assert canonical_stream(sharded.records) == golden

        # Deferred payloads are fetched inside the shard workers.
        deferred = WorkPlan.from_product(
            repo, ["three_halves", "merge_lpt"], defer_payloads=True
        )
        fetched = run_plan(
            deferred,
            tmp_path / "deferred.jsonl",
            backend="sharded",
            shards=2,
            repository=repo,
        )
        assert canonical_stream(fetched.records) == golden

    def test_sharded_jsonl_is_key_ordered_and_parts_cleaned(
        self, golden_plan, tmp_path
    ):
        out = tmp_path / "sweep.jsonl"
        run_plan(golden_plan, out, backend="sharded", shards=3)
        on_disk = read_records(out)
        assert len(on_disk) == len(golden_plan)
        assert [rec.key for rec in on_disk] == sorted(
            rec.key for rec in on_disk
        )
        assert not (tmp_path / "sweep.jsonl.parts").exists()

    def test_sharded_rerun_is_bytewise_reproducible(
        self, golden_plan, tmp_path
    ):
        first = run_plan(
            golden_plan, tmp_path / "a.jsonl", backend="sharded", shards=2
        )
        second = run_plan(
            golden_plan, tmp_path / "b.jsonl", backend="sharded", shards=4
        )
        assert canonical_stream(first.records) == canonical_stream(
            second.records
        )

    def test_error_cells_are_deterministic_too(self, repo, tmp_path):
        plan = WorkPlan.from_product(repo, ["merge_lpt", "no_such_algo"])
        serial = run_plan(plan)
        sharded = run_plan(
            plan, tmp_path / "err.jsonl", backend="sharded", shards=2
        )
        assert serial.errors == sharded.errors == len(repo)
        assert canonical_stream(serial.records) == canonical_stream(
            sharded.records
        )


class TestShardedScheduling:
    def test_home_shard_is_stable(self, golden_plan):
        keys = [spec.key for spec in golden_plan]
        assert [home_shard(k, 4) for k in keys] == [
            home_shard(k, 4) for k in keys
        ]
        assert all(0 <= home_shard(k, 4) < 4 for k in keys)

    def test_idle_shard_steals_from_loaded_shard(self, tmp_path):
        """Every cell is home-sharded onto shard 0, so shard 1's worker
        can only make progress by stealing — deterministic starvation."""
        repo = InstanceRepository.from_families(
            ["uniform"], [2, 3], [6], [0, 1, 2, 3]
        )
        plan = WorkPlan()
        for ref in repo:
            for algorithm in ("merge_lpt", "three_halves", "five_thirds"):
                spec = plan.add(ref, algorithm)
                if spec is not None and home_shard(spec.key, 2) != 0:
                    # Keep only shard-0 cells in the plan.
                    plan._specs.pop()
                    plan._keys.discard(spec.key)
        assert len(plan) >= 4
        result = run_plan(
            plan, tmp_path / "steal.jsonl", backend="sharded", shards=2
        )
        assert result.errors == 0
        assert result.stats["steals"] >= 1
        assert result.stats["cells_by_shard"][1] >= 1

    def test_part_file_recovery_adopts_completed_cells(
        self, golden_plan, tmp_path
    ):
        """Records left in part files by a killed sweep are adopted, not
        re-executed (their payload is trusted verbatim)."""
        reference = run_plan(golden_plan)
        adopted = reference.records[0]
        marked = adopted.to_dict()
        marked["meta"] = dict(marked["meta"], recovered_marker=True)

        out = tmp_path / "sweep.jsonl"
        part_dir = tmp_path / "sweep.jsonl.parts"
        part_dir.mkdir()
        (part_dir / "shard-000.part.jsonl").write_text(
            json.dumps(marked, sort_keys=True, default=str) + "\n"
        )
        result = run_plan(golden_plan, out, backend="sharded", shards=2)
        assert result.stats["part_recovered"] == 1
        # The adopted cell was completed by the previous (killed) run,
        # not executed now.
        assert result.executed == len(golden_plan) - 1
        by_key = {rec.key: rec for rec in result.records}
        assert by_key[adopted.key].meta.get("recovered_marker") is True
        assert not part_dir.exists()

    def test_no_resume_discards_stale_part_files(
        self, golden_plan, tmp_path
    ):
        """resume=False means re-execute everything — stale part-file
        records from a killed sweep must not be adopted."""
        reference = run_plan(golden_plan)
        marked = reference.records[0].to_dict()
        marked["meta"] = dict(marked["meta"], recovered_marker=True)

        part_dir = tmp_path / "sweep.jsonl.parts"
        part_dir.mkdir()
        (part_dir / "shard-000.part.jsonl").write_text(
            json.dumps(marked, sort_keys=True, default=str) + "\n"
        )
        result = run_plan(
            golden_plan,
            tmp_path / "sweep.jsonl",
            backend="sharded",
            shards=2,
            resume=False,
        )
        assert result.stats["part_recovered"] == 0
        assert result.executed == len(golden_plan)
        assert not any(
            rec.meta.get("recovered_marker") for rec in result.records
        )


@fork_only
class TestCrashInjection:
    """Acceptance: a worker killed mid-cell is requeued and the sweep
    completes; a cell that keeps killing workers is quarantined."""

    def test_crashed_cell_is_requeued_and_succeeds(
        self, fake_algorithm, tmp_path
    ):
        marker = tmp_path / "crashed-once"

        def crash_once(instance, marker=None, **kwargs):
            if marker and not os.path.exists(marker):
                open(marker, "w").close()
                os.kill(os.getpid(), signal.SIGKILL)
            from repro.algorithms import get_algorithm

            return get_algorithm("merge_lpt")(instance)

        fake_algorithm("_crash_once", crash_once)
        repo = InstanceRepository.from_families(
            ["uniform"], [2], [6], [0, 1, 2]
        )
        plan = WorkPlan.from_product(repo, ["merge_lpt"])
        plan.add(next(iter(repo)), "_crash_once", {"marker": str(marker)})

        result = run_plan(
            plan, tmp_path / "crash.jsonl", backend="sharded", shards=2
        )
        assert result.errors == 0
        crashed = [r for r in result.records if r.algorithm == "_crash_once"]
        assert len(crashed) == 1 and crashed[0].ok
        assert crashed[0].attempt == 1  # second attempt succeeded
        assert result.stats["retries"] == 1
        assert result.stats["respawns"] >= 1
        # The whole sweep still landed on disk.
        assert len(read_records(tmp_path / "crash.jsonl")) == len(plan)

    def test_poison_cell_is_quarantined_not_fatal(
        self, fake_algorithm, tmp_path
    ):
        def poison(instance, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        fake_algorithm("_poison", poison)
        repo = InstanceRepository.from_families(
            ["uniform"], [2], [6], [0, 1, 2]
        )
        plan = WorkPlan.from_product(repo, ["merge_lpt"])
        plan.add(next(iter(repo)), "_poison")

        result = run_plan(
            plan,
            tmp_path / "poison.jsonl",
            backend="sharded",
            shards=2,
            retry_limit=1,
        )
        bad = [r for r in result.records if r.algorithm == "_poison"]
        assert len(bad) == 1 and bad[0].status == "error"
        assert "quarantined" in bad[0].error
        assert bad[0].attempt == 1
        assert result.stats["quarantined"] == 1
        # Healthy cells all survived the crashes.
        assert all(
            rec.ok for rec in result.records if rec.algorithm == "merge_lpt"
        )

    def test_worker_killed_holding_a_shared_lock_cannot_hang(self, tmp_path):
        """Regression: a worker SIGKILLed while it holds a lock it shares
        with the coordinator or the other workers (a result queue's
        writer lock, say) must not stall the sweep.  The shim takes every
        multiprocessing lock reachable from its worker frame, then kills
        itself; the sweep runs in a subprocess so a hang fails the test
        instead of blocking the suite."""
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        script = tmp_path / "lock_kill_sweep.py"
        script.write_text(
            textwrap.dedent(
                """
                import multiprocessing.synchronize, os, signal, sys, time

                from repro.algorithms import get_algorithm, registry
                from repro.runner import InstanceRepository, WorkPlan, run_plan
                from repro.workloads import generate

                def _grab_locks_and_die(instance, marker=None, **kwargs):
                    if not os.path.exists(marker):
                        open(marker, "w").close()
                        frame = sys._getframe()
                        while frame is not None and (
                            frame.f_code.co_name != "_shard_worker"
                        ):
                            frame = frame.f_back
                        values = frame.f_locals.values() if frame else ()
                        reachable = []
                        for value in values:
                            reachable.append(value)
                            attrs = getattr(value, "__dict__", {})
                            reachable.extend(attrs.values())
                        lock_type = multiprocessing.synchronize.Lock
                        for obj in reachable:
                            if isinstance(obj, lock_type):
                                obj.acquire(False)
                        os.kill(os.getpid(), signal.SIGKILL)
                    return get_algorithm("merge_lpt")(instance)

                def _nap(instance, **kwargs):
                    time.sleep(0.05)
                    return get_algorithm("merge_lpt")(instance)

                registry._REGISTRY["_grab_locks_and_die"] = _grab_locks_and_die
                registry._REGISTRY["_nap"] = _nap
                repo = InstanceRepository()
                refs = [
                    repo.add(generate("uniform", 2, 6, seed), name=f"i{seed}")
                    for seed in range(12)
                ]
                plan = WorkPlan()
                marker = {"marker": sys.argv[2]}
                plan.add(refs[0], "_grab_locks_and_die", marker)
                for ref in refs:
                    plan.add(ref, "_nap")
                result = run_plan(
                    plan, sys.argv[1], backend="sharded", shards=2
                )
                ok = result.errors == 0 and result.stats["retries"] == 1
                sys.exit(0 if ok else 3)
                """
            )
        )
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                str(script),
                str(tmp_path / "sweep.jsonl"),
                str(tmp_path / "killed-once"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            # Own process group, so a hung coordinator and its workers
            # can be killed together.
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sweep hung after a worker died holding a lock")
        assert proc.returncode == 0, stderr
        assert (tmp_path / "killed-once").exists()
        assert len(read_records(tmp_path / "sweep.jsonl")) == 13


@fork_only
class TestKeyboardInterrupt:
    """Regression: Ctrl-C in the sharded coordinator must terminate and
    reap the shard workers (no orphans), keep the part files adoptable,
    and re-raise the interrupt to the caller."""

    def test_sigint_reaps_workers_and_keeps_part_files(self, tmp_path):
        import sys
        import textwrap
        import time
        from pathlib import Path

        out = tmp_path / "sweep.jsonl"
        marker = tmp_path / "slow-cell-started"
        script = tmp_path / "sigint_sweep.py"
        script.write_text(
            textwrap.dedent(
                """
                import multiprocessing, os, sys, time

                from repro.algorithms import get_algorithm, registry
                from repro.runner import InstanceRepository, WorkPlan, run_plan
                from repro.workloads import generate

                def _slow(instance, marker=None, **kwargs):
                    open(marker, "w").close()
                    time.sleep(60)
                    return get_algorithm("merge_lpt")(instance)

                registry._REGISTRY["_sigint_slow"] = _slow
                repo = InstanceRepository()
                quick = [
                    repo.add(generate("uniform", 2, 6, seed), name=f"q{seed}")
                    for seed in range(6)
                ]
                slow_ref = repo.add(generate("uniform", 2, 6, 7), name="slow")
                plan = WorkPlan.from_product(quick, ["merge_lpt"])
                plan.add(slow_ref, "_sigint_slow", {"marker": sys.argv[2]})
                try:
                    run_plan(plan, sys.argv[1], backend="sharded", shards=2)
                except KeyboardInterrupt:
                    # The graceful handler must already have terminated
                    # and joined every shard worker.
                    leftover = multiprocessing.active_children()
                    sys.exit(7 if not leftover else 8)
                sys.exit(9)
                """
            )
        )
        src_dir = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        env.pop("REPRO_SWEEP_BACKEND", None)
        env.pop("REPRO_SWEEP_SHARDS", None)
        import subprocess

        proc = subprocess.Popen(
            [sys.executable, str(script), str(out), str(marker)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        part_dir = tmp_path / "sweep.jsonl.parts"

        def part_records():
            if not part_dir.exists():
                return []
            from repro.runner.records import iter_jsonl

            return [
                obj
                for part in sorted(part_dir.glob("shard-*.part.jsonl"))
                for obj in iter_jsonl(part)
            ]

        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if marker.exists() and len(part_records()) >= 6:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            assert proc.poll() is None, (
                f"sweep exited early: {proc.communicate()[1]}"
            )
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == 7, proc.communicate()[1]

        # Part files survived the interrupt with every completed cell.
        adopted = part_records()
        assert len(adopted) == 6
        assert all(obj["status"] == "ok" for obj in adopted)

        # The next (sharded) run adopts the part files and only executes
        # the interrupted cell.
        registry._REGISTRY["_sigint_slow"] = (
            lambda instance, marker=None, **kwargs: registry.get_algorithm(
                "merge_lpt"
            )(instance)
        )
        try:
            repo = InstanceRepository()
            quick = [
                repo.add(generate("uniform", 2, 6, seed), name=f"q{seed}")
                for seed in range(6)
            ]
            slow_ref = repo.add(generate("uniform", 2, 6, 7), name="slow")
            plan = WorkPlan.from_product(quick, ["merge_lpt"])
            plan.add(slow_ref, "_sigint_slow", {"marker": str(marker)})
            result = run_plan(plan, out, backend="sharded", shards=2)
        finally:
            registry._REGISTRY.pop("_sigint_slow", None)
        assert result.stats["part_recovered"] == 6
        assert result.executed == 1
        assert result.errors == 0
        assert len(read_records(out)) == 7
        assert not part_dir.exists()


class TestParseOnce:
    """``serial`` parses a run of consecutive cells on one instance once."""

    ALGORITHMS = ["three_halves", "merge_lpt", "list_lpt"]

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.core.instance import Instance

        calls = []
        original = Instance.from_dict

        def counting(data):
            calls.append(data["name"])
            return original(data)

        monkeypatch.setattr(Instance, "from_dict", staticmethod(counting))
        return calls

    @pytest.mark.parametrize("defer", [False, True])
    def test_product_plan_parses_each_instance_once(
        self, repo, parses, defer
    ):
        plan = WorkPlan.from_product(
            repo, self.ALGORITHMS, defer_payloads=defer
        )
        result = run_plan(plan, None, backend="serial", repository=repo)
        assert result.errors == 0
        assert len(result.records) == len(repo) * len(self.ALGORITHMS)
        assert len(parses) == len(repo)

    def test_interleaved_plan_parses_per_cell_same_stream(
        self, repo, parses
    ):
        grouped = run_plan(
            WorkPlan.from_product(repo, self.ALGORITHMS), None,
            backend="serial",
        )
        parses.clear()
        interleaved = WorkPlan()
        for algorithm in self.ALGORITHMS:
            for ref in repo:
                interleaved.add(ref, algorithm)
        result = run_plan(interleaved, None, backend="serial")
        assert len(parses) == len(repo) * len(self.ALGORITHMS)
        assert canonical_stream(result.records) == canonical_stream(
            grouped.records
        )


class TestBackendAgnosticResume:
    def test_serial_sweep_resumes_on_sharded(self, golden_plan, tmp_path):
        out = tmp_path / "sweep.jsonl"
        first = run_plan(golden_plan, out, backend="serial")
        assert first.executed == len(golden_plan)
        second = run_plan(golden_plan, out, backend="sharded", shards=2)
        assert second.executed == 0
        assert second.cache_hits == len(golden_plan)

    def test_sharded_sweep_resumes_on_serial(self, repo, tmp_path):
        out = tmp_path / "sweep.jsonl"
        run_plan(
            WorkPlan.from_product(repo, ["merge_lpt"]),
            out,
            backend="sharded",
            shards=2,
        )
        grown = WorkPlan.from_product(repo, ["merge_lpt", "three_halves"])
        result = run_plan(grown, out, backend="serial")
        assert result.cache_hits == len(repo)
        assert result.executed == len(repo)


class TestDeferredPayloads:
    @pytest.mark.parametrize("backend", ["serial", "sharded"])
    def test_fetch_failure_is_error_record_not_crash(
        self, repo, tmp_path, backend
    ):
        class FlakyRepo:
            def __init__(self, inner, bad_name):
                self.inner = inner
                self.bad_name = bad_name

            def fetch_payload(self, name):
                if name == self.bad_name:
                    raise IOError("remote unavailable")
                return self.inner.fetch_payload(name)

        bad_name = repo.names()[0]
        plan = WorkPlan.from_product(
            repo, ["merge_lpt"], defer_payloads=True
        )
        result = run_plan(
            plan,
            tmp_path / "flaky.jsonl",
            backend=backend,
            shards=2,
            repository=FlakyRepo(repo, bad_name),
        )
        bad = [rec for rec in result.records if not rec.ok]
        assert len(bad) == 1 and bad[0].instance == bad_name
        assert "remote unavailable" in bad[0].error
        assert sum(1 for rec in result.records if rec.ok) == len(repo) - 1

    def test_deferred_plan_without_repository_is_error_records(self, repo):
        plan = WorkPlan.from_product(repo, ["merge_lpt"], defer_payloads=True)
        result = run_plan(plan)
        assert result.errors == len(plan)
        assert all("deferred payload" in rec.error for rec in result.records)


class TestEnvOverride:
    def test_env_selects_backend(self, golden_plan, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_SWEEP_SHARDS", "2")
        result = run_plan(golden_plan, tmp_path / "env.jsonl")
        assert result.backend == "sharded"
        assert result.stats["shards"] == 2

    def test_explicit_backend_beats_env(self, golden_plan, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "sharded")
        result = run_plan(golden_plan, backend="serial")
        assert result.backend == "serial"

    def test_env_shards_only_applies_to_env_selected_backend(
        self, golden_plan, tmp_path, monkeypatch
    ):
        """REPRO_SWEEP_SHARDS must not override the workers-based
        default when the backend was chosen explicitly."""
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "sharded")
        monkeypatch.setenv("REPRO_SWEEP_SHARDS", "2")
        explicit = run_plan(
            golden_plan, tmp_path / "a.jsonl", backend="sharded", workers=3
        )
        assert explicit.stats["shards"] == 3
        from_env = run_plan(golden_plan, tmp_path / "b.jsonl", workers=3)
        assert from_env.backend == "sharded"
        assert from_env.stats["shards"] == 2


class TestRecordSchemaV2:
    def test_records_stamped_with_provenance(self, golden_plan, tmp_path):
        result = run_plan(
            golden_plan, tmp_path / "sweep.jsonl", backend="sharded", shards=2
        )
        for rec in result.records:
            assert rec.backend == "sharded"
            assert rec.shard in (0, 1)
            assert rec.attempt == 0
        on_disk = [
            json.loads(line)
            for line in (tmp_path / "sweep.jsonl").read_text().splitlines()
        ]
        assert all(obj["schema"] == 2 for obj in on_disk)
        assert all("backend" in obj and "shard" in obj for obj in on_disk)

    def test_v1_records_still_parse(self):
        v1 = {
            "instance": "old",
            "instance_hash": "abc",
            "algorithm": "merge_lpt",
            "params": {},
            "status": "ok",
            "n": 3,
            "m": 2,
            "classes": 2,
            "makespan": "7/2",
            "wall_time": 0.01,
        }
        rec = RunRecord.from_dict(v1)
        assert rec.backend is None
        assert rec.shard is None
        assert rec.attempt == 0

    def test_canonical_dict_excludes_volatile_fields(self, repo):
        result = run_plan(WorkPlan.from_product(repo, ["merge_lpt"]))
        canonical = result.records[0].canonical_dict()
        for key in ("wall_time", "backend", "shard", "attempt"):
            assert key not in canonical
        for key in ("instance", "makespan", "valid", "schema"):
            assert key in canonical
