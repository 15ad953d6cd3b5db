"""End-to-end CLI tests: ``python -m repro lint`` as CI runs it.

Includes the meta-test (the real tree lints clean) and the planting
tests from the acceptance criteria: deliberately introducing a
tick-discipline, pickling-safety, or registry-coverage violation in a
scratch tree must turn the exit code red.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_lint_cli(*args, cwd=REPO_ROOT):
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_meta_repo_lints_clean():
    """`python -m repro lint src tests` exits 0 on the committed tree."""
    proc = run_lint_cli("src", "tests")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_list_rules():
    proc = run_lint_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in (
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
    ):
        assert rule_id in proc.stdout


def test_lint_appears_in_repro_help():
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lint" in proc.stdout


def test_json_format_is_stable_schema():
    target = FIXTURES / "rep005" / "src" / "repro" / "runner" / "swallow.py"
    proc = run_lint_cli("--format", "json", "--no-baseline", target)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["version"] == 1
    assert report["summary"]["active"] == 2
    assert {f["rule"] for f in report["findings"]} == {"REP005"}


def test_unknown_rule_is_usage_error():
    proc = run_lint_cli("--rule", "REP999", "src")
    assert proc.returncode == 2
    assert "REP999" in proc.stderr


def test_planted_fraction_arithmetic_fails(tmp_path):
    plant = tmp_path / "core" / "dispatch.py"
    plant.parent.mkdir(parents=True)
    plant.write_text(
        textwrap.dedent(
            """\
            from fractions import Fraction

            def advance(state, delta):
                return state.clock + Fraction(delta, state.scale)
            """
        )
    )
    proc = run_lint_cli("--no-baseline", plant)
    assert proc.returncode == 1
    assert "REP001" in proc.stdout


def test_planted_lambda_submit_fails(tmp_path):
    plant = tmp_path / "src" / "repro" / "runner" / "backends" / "pool.py"
    plant.parent.mkdir(parents=True)
    plant.write_text(
        textwrap.dedent(
            """\
            def run(pool, cells):
                return [pool.submit(lambda c=c: c()) for c in cells]
            """
        )
    )
    proc = run_lint_cli("--no-baseline", plant)
    assert proc.returncode == 1
    assert "REP003" in proc.stdout


def test_planted_unregistered_reference_fails(tmp_path):
    tree = tmp_path / "plant"
    algo = tree / "src" / "repro" / "algorithms"
    (algo / "reference").mkdir(parents=True)
    (tree / "tests").mkdir(parents=True)
    (algo / "planted.py").write_text(
        textwrap.dedent(
            """\
            from repro.algorithms.registry import register

            @register("planted")
            def solve(instance):
                return None
            """
        )
    )
    (algo / "reference" / "refs.py").write_text("NAIVE_REFERENCES = {}\n")
    (tree / "tests" / "test_differential.py").write_text(
        'FAST_ALGORITHMS = ("planted",)\n'
    )
    proc = run_lint_cli("--no-baseline", "--rule", "REP004", tree)
    assert proc.returncode == 1
    assert "REP004" in proc.stdout
    assert "'planted'" in proc.stdout


def test_write_baseline_then_clean(tmp_path):
    plant = tmp_path / "src" / "repro" / "runner" / "swallow.py"
    plant.parent.mkdir(parents=True)
    plant.write_text(
        textwrap.dedent(
            """\
            def run(cell):
                try:
                    cell()
                except Exception:
                    pass
            """
        )
    )
    baseline = tmp_path / "baseline.json"
    wrote = run_lint_cli("--write-baseline", "--baseline", baseline, plant)
    assert wrote.returncode == 0, wrote.stdout + wrote.stderr
    assert baseline.exists()

    clean = run_lint_cli("--baseline", baseline, plant)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "1 baselined" in clean.stdout


def test_baseline_guard_ratchet(tmp_path):
    current = tmp_path / "current.json"
    previous = tmp_path / "previous.json"
    entry = {
        "rule": "REP005",
        "path": "src/repro/runner/x.py",
        "line": 1,
        "snippet": "except Exception:",
        "justification": "why",
    }
    previous.write_text(json.dumps({"version": 1, "findings": []}))
    current.write_text(json.dumps({"version": 1, "findings": [entry]}))
    grown = run_lint_cli("--baseline", current, "--baseline-guard", previous)
    assert grown.returncode == 1
    assert "ratchet" in grown.stderr

    shrunk = run_lint_cli("--baseline", previous, "--baseline-guard", current)
    assert shrunk.returncode == 0
