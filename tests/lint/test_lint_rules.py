"""Per-rule tests over the deliberate-violation fixture corpus.

Each fixture tree under ``tests/lint/fixtures/repNNN/`` mirrors the
real layout (``core/dispatch.py``, ``src/repro/runner/...``) so rule
scope patterns match it unmodified; every rule must produce exactly
its expected true positives, honour the inline suppression, and stay
silent on the allowlisted near-misses that share the file.
"""

import json
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rules, rule_ids, run_lint
from repro.lint.engine import collect_files

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "fixtures.json"


def lint_fixture(subdir, rule=None):
    """Lint one fixture tree; relpaths are rooted at the tree itself."""
    root = FIXTURES / subdir
    files = [p for _, p in collect_files([root], root=root)]
    rules = get_rules([rule]) if rule else None
    return run_lint(files, root=root, rules=rules, baseline=None)


def by_status(report):
    active = [d.finding for d in report.diagnostics if d.status == "active"]
    suppressed = [d.finding for d in report.diagnostics if d.status == "suppressed"]
    return active, suppressed


class TestRep001TickDiscipline:
    def test_hot_path_fraction_is_flagged(self):
        active, suppressed = by_status(lint_fixture("rep001", "REP001"))
        dispatch = [f for f in active if "dispatch.py" in f.path]
        assert [f.line for f in dispatch] == [16]
        assert "Fraction" in dispatch[0].message

    def test_inline_allow_suppresses(self):
        active, suppressed = by_status(lint_fixture("rep001", "REP001"))
        assert [f.line for f in suppressed] == [21]

    def test_boundaries_are_allowlisted(self):
        # Constant-arg Fraction(5, 3), the to_dict body, and the
        # @property accessor in the same file must produce nothing.
        active, suppressed = by_status(lint_fixture("rep001", "REP001"))
        dispatch = [
            f for f in active + suppressed if "dispatch.py" in f.path
        ]
        assert {f.line for f in dispatch} == {16, 21}


class TestRep002Determinism:
    def test_positives(self):
        active, _ = by_status(lint_fixture("rep002", "REP002"))
        emit = [f for f in active if "emit.py" in f.path]
        assert [f.line for f in emit] == [12, 22, 27, 42]
        messages = " ".join(f.message for f in emit)
        assert "time.time" in messages
        assert "random.random" in messages
        assert "default_rng" in messages
        assert "bare set" in messages

    def test_inline_allow_suppresses(self):
        _, suppressed = by_status(lint_fixture("rep002", "REP002"))
        assert [f.line for f in suppressed] == [17]

    def test_rng_module_is_allowlisted(self):
        report = lint_fixture("rep002", "REP002")
        assert not any(
            "util/rng.py" in d.finding.path for d in report.diagnostics
        )

    def test_obs_layer_is_order_sensitive(self):
        # The scope extension of the observability layer: a bare-set
        # iteration planted in src/repro/obs/ turns the lint red.
        active, _ = by_status(lint_fixture("rep002", "REP002"))
        obs = [f for f in active if "obs/export.py" in f.path]
        assert [f.line for f in obs] == [6]
        assert "bare set" in obs[0].message
        from repro.lint.rules.rep002_determinism import DeterminismRule

        rule = DeterminismRule()
        assert rule.applies_to("src/repro/obs/tracer.py")
        assert rule.applies_to("src/repro/obs/export.py")

    def test_no_obs_symbol_inside_canonical_construction(self):
        # The volatility contract: any repro.obs symbol referenced (or
        # lazily imported) inside canonical_dict/canonical_stream is a
        # violation — telemetry never enters canonical record output.
        active, _ = by_status(lint_fixture("rep002", "REP002"))
        records = [f for f in active if "records.py" in f.path]
        assert [f.line for f in records] == [8, 16, 18]
        messages = " ".join(f.message for f in records)
        assert "canonical_dict" in messages
        assert "canonical_stream" in messages
        assert "get_tracer" in messages
        # Telemetry *outside* the canonical constructors (and functions
        # merely named canonical_*) stays unflagged.
        assert all(f.line not in (25, 31) for f in records)


class TestRep003PicklingSafety:
    def test_positives(self):
        active, _ = by_status(lint_fixture("rep003", "REP003"))
        assert [f.line for f in active] == [23, 28, 33, 38]

    def test_inline_allow_suppresses(self):
        _, suppressed = by_status(lint_fixture("rep003", "REP003"))
        assert [f.line for f in suppressed] == [36]

    def test_module_level_and_threads_pass(self):
        # pool.submit(execute_cell, ...), pool.map(json.dumps, ...) and
        # threading.Thread(target=lambda) must not be flagged.
        active, suppressed = by_status(lint_fixture("rep003", "REP003"))
        flagged = {f.line for f in active} | {f.line for f in suppressed}
        assert flagged.isdisjoint({21, 30, 40})

    def test_runner_backends_are_in_scope(self):
        # The cell payload builder and the shard worker both live under
        # runner/ — anything they hand across a process boundary stays
        # covered by the pickling contract.
        from repro.lint.rules.rep003_pickling import PicklingSafetyRule

        rule = PicklingSafetyRule()
        assert rule.applies_to("src/repro/runner/backends/base.py")
        assert rule.applies_to("src/repro/runner/backends/sharded.py")


class TestRep004RegistryCoverage:
    def test_missing_reference_and_missing_corpus(self):
        active, _ = by_status(lint_fixture("rep004", "REP004"))
        assert len(active) == 2
        by_message = {f.message: f for f in active}
        assert any("'missing'" in m and "reference" in m for m in by_message)
        assert any("'nocorpus'" in m and "corpus" in m for m in by_message)

    def test_covered_and_exempted_pass(self):
        active, _ = by_status(lint_fixture("rep004", "REP004"))
        assert not any("'covered'" in f.message for f in active)
        assert not any("'exempted'" in f.message for f in active)


class TestRep005ExceptionHygiene:
    def test_positives(self):
        active, _ = by_status(lint_fixture("rep005", "REP005"))
        assert [f.line for f in active] == [8, 15]

    def test_inline_allow_suppresses(self):
        _, suppressed = by_status(lint_fixture("rep005", "REP005"))
        assert [f.line for f in suppressed] == [40]

    def test_narrow_and_converting_handlers_pass(self):
        # `except ValueError: pass` and the handler that returns an
        # ERROR record are both fine.
        active, suppressed = by_status(lint_fixture("rep005", "REP005"))
        flagged = {f.line for f in active} | {f.line for f in suppressed}
        assert flagged.isdisjoint({23, 32})


class TestRep006EagerImports:
    def test_positives(self):
        active, _ = by_status(lint_fixture("rep006", "REP006"))
        assert [f.line for f in active] == [5, 8]
        messages = " ".join(f.message for f in active)
        assert "numpy" in messages
        assert "scipy.optimize" in messages

    def test_inline_allow_suppresses(self):
        _, suppressed = by_status(lint_fixture("rep006", "REP006"))
        assert [f.line for f in suppressed] == [13]

    def test_type_checking_and_function_imports_pass(self):
        # `if TYPE_CHECKING: import scipy.sparse` never runs, and the
        # networkx import inside max_flow runs only on call.
        active, suppressed = by_status(lint_fixture("rep006", "REP006"))
        flagged = {f.line for f in active} | {f.line for f in suppressed}
        assert flagged.isdisjoint({16, 21})


def test_golden_diagnostics():
    """The full fixture corpus reproduces the committed golden report."""
    files = [p for _, p in collect_files([FIXTURES], root=FIXTURES)]
    report = run_lint(files, root=FIXTURES, baseline=None)
    assert json.loads(report.to_json()) == json.loads(GOLDEN.read_text())


def test_rule_registry():
    assert rule_ids() == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
    ]
    assert [r.id for r in all_rules()] == rule_ids()
    with pytest.raises(KeyError):
        get_rules(["REP999"])


def test_rules_have_docs_and_hints():
    for rule in all_rules():
        assert rule.title
        assert rule.contract
        assert rule.hint
