"""REP001 — integer-tick discipline in the schedule kernel.

PR 2's contract: schedule construction runs on per-schedule **integer
tick grids**; exact :class:`fractions.Fraction` arithmetic exists only
at the API boundary.  The O(n²)-era slowness this repo started from was
per-operation ``Fraction`` normalization on the placement hot path, so
any ``Fraction`` construction creeping back into the kernel modules or
the algorithm placement cores is a performance regression waiting for a
profile to notice it.

Allowlisted (no finding):

* the declared boundary modules — ``util/rational.py`` and
  ``core/timescale.py`` (the grid itself) — are out of scope entirely;
* ``to_dict`` / ``from_dict`` / ``to_json`` / ``__repr__`` / ``__str__``
  bodies (serialization boundary);
* ``@property`` / ``functools.cached_property`` getters (exact read-out
  accessors such as ``Schedule.makespan`` are the documented API
  boundary);
* constant rationals — every argument a literal, e.g. the
  ``Fraction(5, 3)`` guarantee stamp — which carry no tick-valued data.

Anything else needs an inline ``# repro: allow[REP001] reason`` naming
the boundary it implements (e.g. the one-per-solve grid-denominator
derivation in ``BlockDispatchState``).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.diagnostics import Finding
from repro.lint.rules import (
    ImportMap,
    Rule,
    decorator_names,
    register_rule,
    walk_scoped,
)

__all__ = ["TickDisciplineRule"]

#: Function bodies that are serialization/debug boundary by convention.
BOUNDARY_FUNCTIONS = frozenset(
    {"to_dict", "from_dict", "to_json", "__repr__", "__str__"}
)

#: Decorators marking exact read-out accessors (API boundary).
BOUNDARY_DECORATORS = frozenset(
    {"property", "cached_property", "functools.cached_property"}
)


@register_rule
class TickDisciplineRule(Rule):
    id = "REP001"
    title = "tick discipline: no Fraction on the kernel hot path"
    contract = (
        "core/{dispatch,machine,schedule}.py and the algorithm "
        "placement cores compute in integer ticks; Fraction only at "
        "the API boundary"
    )
    hint = (
        "compute in integer ticks on the schedule's grid and convert at "
        "the boundary (to_dict / @property accessors / core.timescale); "
        "a genuine boundary site takes `# repro: allow[REP001] <reason>`"
    )
    scope = (
        "core/dispatch.py",
        "core/machine.py",
        "core/schedule.py",
        "algorithms/class_greedy.py",
        "algorithms/five_thirds.py",
        "algorithms/list_scheduling.py",
        "algorithms/merge_lpt.py",
        "algorithms/no_huge.py",
        "algorithms/three_halves.py",
        "ptas/reinsert.py",
    )

    def check_file(self, ctx, project) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node, stack in walk_scoped(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not imports.resolves_to(node.func, "fractions", "Fraction"):
                continue
            if self._boundary_scope(stack):
                continue
            if _constant_args(node):
                continue
            yield self.finding(
                ctx,
                node,
                "Fraction constructed on the tick-kernel hot path "
                "(integer-tick discipline, PR 2)",
            )

    @staticmethod
    def _boundary_scope(stack: Iterable[ast.AST]) -> bool:
        for func in stack:
            name = getattr(func, "name", "")
            if name in BOUNDARY_FUNCTIONS:
                return True
            if BOUNDARY_DECORATORS & set(decorator_names(func)):
                return True
        return False


def _constant_args(call: ast.Call) -> bool:
    """True for ``Fraction()`` / ``Fraction(5, 3)`` — constant rationals
    (guarantee stamps and the like), which carry no tick data."""
    if call.keywords:
        return False
    return all(isinstance(arg, ast.Constant) for arg in call.args)
