"""scipy, numpy and networkx load only where they run.

Each check runs in a fresh interpreter, since the test process itself
has imported whatever other tests needed:

* the import contract: importing the CLI, the service or the runner,
  and a service answering a ``three_halves`` solve, loads none of the
  three packages;
* the packages hidden behind an import-raising finder: every caller of
  :mod:`repro.util.optional` takes its fallback (the B&B, backtracking,
  the stdlib PCG64) or declares a ``PreconditionError``, on any
  install.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.util.rng import make_rng
from repro.workloads import generate

REPO_ROOT = Path(__file__).resolve().parents[2]

HEAVY_PREFIX = """
import json, sys

def heavy_modules():
    return sorted(
        name for name in sys.modules
        if name.partition(".")[0] in ("numpy", "scipy", "networkx")
    )
"""

SERVICE_SOLVE = """
import tempfile
from pathlib import Path

from repro import Instance
from repro.service import SchedulerService, ServiceClient

with tempfile.TemporaryDirectory() as tmp:
    service = SchedulerService(
        results_path=Path(tmp) / "service.jsonl",
        backend="serial",
        batch_window_s=0.0,
    )
    service.start()
    try:
        host, port = service.address
        with ServiceClient(host, port, timeout=60.0) as client:
            instance = Instance.from_class_sizes([[3, 2], [2, 2], [4]], 2)
            assert client.solve(instance, "three_halves").record.ok
    finally:
        service.stop()
"""

HIDE_PACKAGES = """
class HidePackages:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "networkx"):
            raise ModuleNotFoundError(f"No module named {name!r} (hidden)")
        return None


sys.meta_path.insert(0, HidePackages())
"""

HIDDEN_CHECKS = """
from fractions import Fraction

import repro
from repro.core.errors import PreconditionError
from repro.core.instance import Instance
from repro.ptas.context import GuessContext
from repro.ptas.flownet import assign_placeholders_by_flow
from repro.util._pcg64 import StdlibGenerator
from repro.util.rng import make_rng
from repro.workloads import generate

out = {}
exact = repro.solve(Instance.from_dict(json.loads(sys.argv[1])), "exact")
out["exact"] = [exact.algorithm, str(exact.makespan)]

eptas_instance = generate("small_jobs", 2, 6, 0)
eptas = {
    backend: repro.solve(
        eptas_instance, "eptas", epsilon=Fraction(1, 2),
        mode="augmentation", ip_backend=backend,
    )
    for backend in ("auto", "backtracking")
}
out["eptas"] = [str(result.makespan) for result in eptas.values()]
out["eptas_pack_accepts"] = eptas["auto"].stats["incremental"]["pack_accepts"]
out["auto_backend"] = GuessContext(
    eptas_instance, Fraction(1, 2), "augmentation"
)._resolved_backend()

rng = make_rng(7)
out["rng_stdlib"] = isinstance(rng, StdlibGenerator)
out["draws"] = [int(v) for v in rng.integers(0, 1000, size=5)] + [
    float(rng.random()) for _ in range(3)
]
out["workload"] = generate("uniform", 3, 8, 5).to_dict()

try:
    assign_placeholders_by_flow({0: 1}, {(0, 0): 1}, {0: 1})
    out["flow"] = "ran"
except PreconditionError as exc:
    out["flow"] = f"PreconditionError: {exc}"
"""


def run_child(source: str, *args: str) -> dict:
    """Run ``source`` in a fresh interpreter; it sets ``out``, which
    comes back (with ``heavy``, the packages it loaded) as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = (
        HEAVY_PREFIX
        + "out = {}\n"
        + textwrap.dedent(source)
        + "\nout['heavy'] = heavy_modules()\nprint(json.dumps(out))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "source",
    ["import repro.cli", "import repro.service", "import repro.runner",
     SERVICE_SOLVE],
    ids=["cli", "service", "runner", "service-solve"],
)
def test_cold_paths_import_no_heavy_package(source):
    assert run_child(source)["heavy"] == []


def test_hidden_packages_take_every_fallback():
    exact_instance = repro.Instance.from_class_sizes([[3, 2], [2, 2], [4]], 2)
    out = run_child(
        HIDE_PACKAGES + HIDDEN_CHECKS, json.dumps(exact_instance.to_dict())
    )
    assert out["heavy"] == []
    # exact: the branch & bound, still optimal.
    opt = repro.solve(exact_instance, "exact").makespan
    assert out["exact"] == ["exact_bb", str(opt)]
    # eptas: `auto` resolves to backtracking, which runs no greedy pack.
    assert out["auto_backend"] == "backtracking"
    auto, backtracking = out["eptas"]
    assert auto == backtracking
    assert out["eptas_pack_accepts"] == 0
    # make_rng: the stdlib PCG64, drawing what this process draws.
    rng = make_rng(7)
    expected = [int(v) for v in rng.integers(0, 1000, size=5)] + [
        float(rng.random()) for _ in range(3)
    ]
    assert out["rng_stdlib"] is True
    assert out["draws"] == expected
    assert out["workload"] == json.loads(
        json.dumps(generate("uniform", 3, 8, 5).to_dict())
    )
    # The flow network has no fallback: it declares the missing package.
    assert out["flow"].startswith("PreconditionError: networkx")
