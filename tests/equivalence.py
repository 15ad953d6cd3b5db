"""Reusable equivalence harness for dispatch-kernel ports.

Every time a placement core moves onto the kernel, the same three layers
of evidence pin it against the preserved pre-kernel loop
(:mod:`repro.algorithms.reference`); this module is the plug-in point so
a future port only declares its reference pair and reuses the machinery:

* **outcome equivalence** — :func:`run_and_capture` /
  :func:`assert_same_outcome` run two solvers on one instance and
  require bit-identical schedules (``to_dict``), makespan, lower bound
  *and step logs* — or the same declared error type.  Hypothesis tests
  call :func:`assert_matches_reference` per drawn instance.
* **golden replay** — :func:`golden_cells` filters
  ``tests/data/goldens_seed.json`` (generated from pre-refactor code)
  and :func:`replay_golden_cell` replays a cell through *any* solver,
  so both the kernel implementation and the preserved reference copy
  are checked against the frozen pre-port behavior.
* **step-count shims** — :func:`kernel_counters` pulls the counting-shim
  counters out of a result and :func:`assert_subquadratic_growth`
  encodes the "4× the input must cost ≪ 16× the work" regression check.

``EQUIVALENCE_PAIRS`` maps each ported registry algorithm to its
preserved reference solver: the dispatching baselines, the
approximation algorithms and the rebuild-per-guess EPTAS driver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro import solve
from repro.algorithms.base import ScheduleResult
from repro.algorithms.reference import (
    APPROX_REFERENCES,
    EPTAS_REFERENCES,
    NAIVE_REFERENCES,
)
from repro.core.errors import ReproError
from repro.core.instance import Instance
from repro.workloads import generate

#: Registry name → preserved pre-kernel solver, for every ported core.
EQUIVALENCE_PAIRS: Dict[str, Callable[..., ScheduleResult]] = {
    **NAIVE_REFERENCES,
    **APPROX_REFERENCES,
    **EPTAS_REFERENCES,
}

_GOLDENS_PATH = Path(__file__).parent / "data" / "goldens_seed.json"


@dataclass
class Outcome:
    """What a solver did on one instance: a result or a declared error."""

    result: Optional[ScheduleResult] = None
    error: Optional[str] = None  # exception type name

    @property
    def raised(self) -> bool:
        return self.error is not None


def run_and_capture(solver, inst: Instance, **kwargs) -> Outcome:
    """Run ``solver`` and capture the result or the declared-error type.

    Only :class:`~repro.core.errors.ReproError` subclasses count as an
    outcome (raising behavior is part of the pinned contract); anything
    else propagates as a genuine test failure.
    """
    try:
        return Outcome(result=solver(inst, **kwargs))
    except ReproError as exc:
        return Outcome(error=type(exc).__name__)


def assert_same_outcome(
    kernel: Outcome, reference: Outcome, *, context: str = ""
) -> None:
    """Bit-for-bit decision equivalence of two captured outcomes."""
    tag = f" [{context}]" if context else ""
    assert kernel.raised == reference.raised, (
        f"kernel {'raised ' + str(kernel.error) if kernel.raised else 'succeeded'}, "
        f"reference "
        f"{'raised ' + str(reference.error) if reference.raised else 'succeeded'}"
        f"{tag}"
    )
    if kernel.raised:
        assert kernel.error == reference.error, tag
        return
    a, b = kernel.result, reference.result
    assert a.schedule.to_dict() == b.schedule.to_dict(), tag
    assert a.makespan == b.makespan, tag
    assert a.lower_bound == b.lower_bound, tag
    assert a.algorithm == b.algorithm, tag
    assert a.guarantee == b.guarantee, tag
    # Step logs are decisions too: same classes to the same machines in
    # the same order, not just the same final layout.
    for key in ("steps", "no_huge_steps"):
        assert a.stats.get(key) == b.stats.get(key), (key, tag)


def assert_matches_reference(
    inst: Instance, algorithm: str, **kwargs
) -> None:
    """Run the registry (kernel) implementation and its preserved
    reference on ``inst`` and require identical decisions."""
    reference = EQUIVALENCE_PAIRS[algorithm]
    kernel = run_and_capture(
        lambda i, **kw: solve(i, algorithm=algorithm, **kw), inst, **kwargs
    )
    ref = run_and_capture(reference, inst, **kwargs)
    assert_same_outcome(kernel, ref, context=algorithm)


# --------------------------------------------------------------------- #
# Golden replay
# --------------------------------------------------------------------- #
def golden_cells(
    algorithms: Optional[Iterable[str]] = None,
    *,
    min_jobs: int = 0,
) -> list:
    """The golden cells, optionally filtered by algorithm name.

    ``min_jobs`` filters on the cell's ``size`` knob (a proxy for the
    instance scale) — use it to pick out the medium-n cells.
    """
    cells = json.loads(_GOLDENS_PATH.read_text())["cells"]
    wanted = set(algorithms) if algorithms is not None else None
    return [
        cell
        for cell in cells
        if (wanted is None or cell["algorithm"] in wanted)
        and cell["size"] >= min_jobs
    ]


def golden_cell_id(cell: Mapping) -> str:
    """Stable pytest id for one golden cell."""
    tag = "-".join(
        f"{k}={v}" for k, v in sorted(cell.get("kwargs", {}).items())
    )
    return (
        f"{cell['algorithm']}-{cell['family']}-m{cell['machines']}"
        f"-s{cell['size']}-seed{cell['seed']}" + (f"-{tag}" if tag else "")
    )


def replay_golden_cell(cell: Mapping, solver=None) -> None:
    """Replay one golden cell through ``solver`` (default: the registry
    implementation) and require the frozen pre-refactor outcome."""
    from fractions import Fraction

    inst = generate(
        cell["family"], cell["machines"], cell["size"], cell["seed"]
    )
    if solver is None:
        def solver(i, **kw):
            return solve(i, algorithm=cell["algorithm"], **kw)

    outcome = run_and_capture(solver, inst, **cell.get("kwargs", {}))
    if outcome.raised:
        assert cell.get("error") == outcome.error, (
            f"raised {outcome.error}, golden "
            f"{cell.get('error', 'succeeded')}"
        )
        return
    assert "error" not in cell, f"golden raised {cell.get('error')}"
    result = outcome.result
    assert result.schedule.to_dict() == cell["schedule"]
    makespan = Fraction(result.schedule.makespan)
    assert [makespan.numerator, makespan.denominator] == cell["makespan"]
    lower = Fraction(result.lower_bound)
    assert [lower.numerator, lower.denominator] == cell["lower_bound"]


# --------------------------------------------------------------------- #
# Step-count shims
# --------------------------------------------------------------------- #
def kernel_counters(result: ScheduleResult) -> Dict[str, int]:
    """The counting-shim counters of a kernel result (``dispatch`` for
    the baselines, ``kernel`` for the approximation algorithms)."""
    stats = result.stats
    counters = stats.get("kernel", stats.get("dispatch"))
    assert counters is not None, (
        f"{result.algorithm} result carries no kernel counters"
    )
    return dict(counters)


def traced_solve(inst: Instance, algorithm: str, **kwargs):
    """Solve under an enabled in-memory tracer; returns ``(result,
    promoted counters dict)``."""
    from repro.obs import Tracer, set_tracer

    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = solve(inst, algorithm=algorithm, **kwargs)
    finally:
        set_tracer(previous)
    return result, dict(tracer.counters)


def assert_traced_counters_match(inst: Instance, algorithm: str) -> None:
    """The obs layer's promoted ``kernel.*`` counters must equal the
    step-count shim counters bit for bit.  A drift here means telemetry
    invented numbers the counting shims never recorded."""
    try:
        result, counters = traced_solve(inst, algorithm)
    except ReproError:
        return  # declared precondition/infeasibility: nothing traced
    promoted = {
        key: value
        for key, value in counters.items()
        if key.startswith("kernel.")
    }
    shim = (result.stats or {}).get(
        "kernel", (result.stats or {}).get("dispatch")
    )
    if shim is None:
        assert not promoted, (
            f"{algorithm}: counters promoted to the tracer but the "
            "result carries no counting shim"
        )
        return
    expected = {
        f"kernel.{key}": value
        for key, value in shim.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    assert promoted == expected, (
        f"{algorithm}: traced counters diverged from the step-count shims"
    )


def assert_subquadratic_growth(
    small: Mapping[str, int],
    large: Mapping[str, int],
    keys: Iterable[str],
    *,
    n_key: str = "n",
    slack: float = 2.0,
) -> None:
    """Require ``keys`` to grow at most ``slack ×`` linearly in
    ``n_key`` between two measurements (a quadratic regression shows
    ``(n_large/n_small)²`` growth and fails loudly)."""
    ratio = large[n_key] / small[n_key]
    assert ratio > 1, "the two measurements must differ in scale"
    for key in keys:
        if small[key] == 0:
            continue
        growth = large[key] / small[key]
        assert growth <= slack * ratio, (
            f"{key} grew {growth:.1f}x for a {ratio:.1f}x larger input "
            f"(limit {slack * ratio:.1f}x)"
        )
