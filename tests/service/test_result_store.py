"""Load-time hygiene of the service's append-only result store.

Loading a results file must leave it holding exactly the store's
records, so that the next append lands on a clean line: a torn tail is
cut, a leftover staging file is adopted, and a file with error records
or repeated keys is compacted once through the atomic staging path.
"""

import json
import os
import sys
import threading
from fractions import Fraction

import pytest

from repro.obs import trace_scope
from repro.runner import (
    InstanceRepository,
    RunRecord,
    WorkPlan,
    read_records,
    run_plan,
)
from repro.runner.engine import staging_path
from repro.service import ResultStore
from repro.workloads import generate


def _record(index, status="ok"):
    return RunRecord(
        instance=f"inst-{index}",
        instance_hash=f"{index:016x}",
        algorithm="merge_lpt",
        params={},
        status=status,
        n=2,
        m=1,
        num_classes=1,
        wall_time=0.001,
        makespan=Fraction(3) if status == "ok" else None,
        lower_bound=Fraction(2) if status == "ok" else None,
        valid=True if status == "ok" else None,
        error=None if status == "ok" else "boom",
    )


def _lines(records):
    return "".join(record.to_json() + "\n" for record in records)


def _assert_clean(path, expected):
    """The file holds exactly ``expected``, one whole line each."""
    text = path.read_text()
    assert text.endswith("\n")
    assert [json.loads(line)["instance"] for line in text.splitlines()] == [
        record.instance for record in expected
    ]


@pytest.fixture
def replaces(monkeypatch):
    """Counts os.replace calls (compactions)."""
    calls = []
    original = os.replace

    def counting(src, dst):
        calls.append((src, dst))
        return original(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    return calls


def test_missing_file_is_created_empty(tmp_path):
    path = tmp_path / "deep" / "results.jsonl"
    store = ResultStore(path)
    assert len(store) == 0
    assert path.read_bytes() == b""


def test_torn_final_line_is_cut(tmp_path, replaces):
    path = tmp_path / "results.jsonl"
    records = [_record(i) for i in range(3)]
    path.write_text(_lines(records) + '{"schema": 2, "instance": "to')
    store = ResultStore(path)
    assert len(store) == 3
    _assert_clean(path, records)
    # The next append starts on a line of its own.
    assert store.append([_record(3)]) == 1
    _assert_clean(path, records + [_record(3)])
    assert len(read_records(path)) == 4
    assert replaces == []  # cut in place, not rewritten


def test_whole_record_without_newline_is_kept(tmp_path):
    path = tmp_path / "results.jsonl"
    records = [_record(i) for i in range(2)]
    path.write_text(_lines(records).rstrip("\n"))
    store = ResultStore(path)
    assert len(store) == 2
    _assert_clean(path, records)


def test_leftover_staging_file_is_adopted(tmp_path, replaces):
    """A sweep killed before its os.replace leaves <out>.tmp holding the
    prior records plus the new ones; the store adopts the new ones."""
    path = tmp_path / "results.jsonl"
    records = [_record(i) for i in range(4)]
    path.write_text(_lines(records[:2]))
    staging_path(path).write_text(_lines(records) + '{"torn')
    store = ResultStore(path)
    assert len(store) == 4
    assert all(record.key in store for record in records)
    _assert_clean(path, records)
    assert not staging_path(path).exists()
    assert replaces == []  # adopted by appending


def test_error_records_and_repeated_keys_are_compacted_once(tmp_path, replaces):
    """A batch sweep's output (error records, and the same cell from two
    sweeps) is rewritten once, atomically, to the store's records."""
    path = tmp_path / "results.jsonl"
    repo = InstanceRepository()
    for seed in range(2):
        repo.add(generate("uniform", 2, 6, seed), name=f"u{seed}")
    run_plan(WorkPlan.from_product(repo, ["merge_lpt", "_no_such_algo"]), path)
    swept = read_records(path)
    assert sum(1 for record in swept if not record.ok) == 2
    ok = [record for record in swept if record.ok]
    with open(path, "a") as handle:
        handle.write(ok[0].to_json() + "\n")  # repeated key
    replaces.clear()  # the sweep's own finalize

    store = ResultStore(path)
    assert len(store) == 2
    assert len(replaces) == 1
    assert not staging_path(path).exists()
    assert sorted(record.key for record in read_records(path)) == sorted(
        record.key for record in ok
    )
    _assert_clean(path, [store.peek(record.key) for record in ok])

    # The file now equals the store: loading it again rewrites nothing.
    ResultStore(path)
    assert len(replaces) == 1


def test_unreadable_line_is_compacted(tmp_path, replaces):
    path = tmp_path / "results.jsonl"
    records = [_record(i) for i in range(2)]
    path.write_text(_lines(records[:1]) + "not json\n" + _lines(records[1:]))
    assert len(ResultStore(path)) == 2
    assert len(replaces) == 1
    _assert_clean(path, records)


def test_append_skips_errors_and_stored_keys(tmp_path):
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)
    assert store.append([_record(0), _record(1, status="error"), _record(0)]) == 1
    assert store.append([_record(0)]) == 0
    _assert_clean(path, [_record(0)])


def test_racing_appends_store_each_key_once(tmp_path):
    """Writers racing on overlapping keys: every key lands in the file
    exactly once and the file matches the store."""
    path = tmp_path / "results.jsonl"
    store = ResultStore(path)

    def writer(first):
        for index in range(first, first + 20):
            store.append([_record(index)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(5 * k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    keys = [record.key for record in read_records(path)]
    assert len(keys) == len(set(keys)) == len(store) == 55
    assert len(ResultStore(path)) == 55


def test_only_get_counts_hits_and_misses(tmp_path):
    store = ResultStore(tmp_path / "results.jsonl")
    store.append([_record(0)])
    key = _record(0).key
    with trace_scope() as tracer:
        assert key in store
        assert "missing" not in store
        assert store.peek(key) is not None
        assert "service.result_store_hits" not in tracer.counters
        assert "service.result_store_misses" not in tracer.counters
        assert store.get(key) is not None
        assert store.get("missing") is None
    assert tracer.counters["service.result_store_hits"] == 1
    assert tracer.counters["service.result_store_misses"] == 1
