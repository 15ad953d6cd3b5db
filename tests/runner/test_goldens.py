"""The sweep runner reproduces the seed goldens.

``tests/core/test_tick_equivalence.py`` replays the seed golden corpus
(``tests/data/goldens_seed.json``) through :func:`repro.solve`.  Sweeps,
the service and the benchmarks reach the algorithms another way: a
:class:`~repro.runner.plan.WorkPlan` cell, run by an execution backend
through :func:`repro.runner.backends.base.execute_cell`, comes back as
a :class:`~repro.runner.records.RunRecord`.  Here every golden cell of
the six dispatch algorithms runs as one cell of a single plan, once on
the ``serial`` backend and once on ``sharded``, and each record must
carry the golden makespan and lower bound and a valid schedule, or the
golden error type.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.runner import (
    InstanceRef,
    WorkPlan,
    cache_key,
    instance_content_hash,
    run_plan,
)
from repro.workloads import generate
from tests.equivalence import golden_cell_id, golden_cells

#: The dispatch algorithms sweeps and the service run; the EPTAS and
#: exact-solver cells stay with the solver-level replay.
RUNNER_ALGORITHMS = (
    "class_greedy",
    "list_lpt",
    "merge_lpt",
    "five_thirds",
    "three_halves",
    "no_huge",
)

BACKENDS = ("serial", "sharded")

_CELLS = golden_cells(RUNNER_ALGORITHMS)


def _instance_name(cell) -> str:
    return (
        f"{cell['family']}-m{cell['machines']}-s{cell['size']}"
        f"-seed{cell['seed']}"
    )


@pytest.fixture(scope="module")
def golden_records():
    """Every cell's record, by backend and then by golden cell id."""
    refs = {}
    keys = {}
    plan = WorkPlan()
    for cell in _CELLS:
        name = _instance_name(cell)
        if name not in refs:
            refs[name] = InstanceRef(
                name,
                generate(
                    cell["family"], cell["machines"], cell["size"],
                    cell["seed"],
                ),
            )
        params = cell.get("kwargs", {})
        plan.add(refs[name], cell["algorithm"], params)
        keys[golden_cell_id(cell)] = cache_key(
            instance_content_hash(refs[name].instance),
            cell["algorithm"],
            params,
        )
    records = {}
    for backend in BACKENDS:
        sweep = run_plan(plan, backend=backend, shards=2)
        by_key = {record.key: record for record in sweep.records}
        records[backend] = {
            cell_id: by_key[key] for cell_id, key in keys.items()
        }
    return records


@pytest.mark.parametrize(
    "cell", _CELLS, ids=[golden_cell_id(c) + "-runner" for c in _CELLS]
)
def test_runner_replays_seed_goldens(cell, golden_records):
    cell_id = golden_cell_id(cell)
    for backend in BACKENDS:
        record = golden_records[backend][cell_id]
        if "error" in cell:
            assert record.status == "error", backend
            assert record.error.startswith(cell["error"] + ":"), (
                backend, record.error,
            )
            continue
        assert record.status == "ok", (backend, record.error)
        assert record.valid, backend
        assert record.makespan == Fraction(*cell["makespan"]), backend
        assert record.lower_bound == Fraction(*cell["lower_bound"]), backend
