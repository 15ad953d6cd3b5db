"""REP006 — no eager imports of the heavy optional packages.

scipy, numpy and networkx together cost a ``repro`` process about a
second to import, and load about 900 modules.  Only the MILP backends,
the Figure 5 flow network and the numpy PCG64 draws use them, so
:mod:`repro.util.optional` imports each one where it runs.  A single
module-scope import anywhere under ``src/repro/`` would put the whole
cost back on every command, ``repro --help`` and ``repro submit``
included, with no test failing.

Flagged: an ``import`` or ``from … import`` of ``scipy``, ``numpy`` or
``networkx`` (or a submodule) that runs when its module is imported —
at module level, in a class body, or inside a module-level ``try``,
``if``, ``with`` or loop.  Imports inside a function body run on call
and pass, as does the body of ``if TYPE_CHECKING:`` (never executed).
The loader itself imports through :func:`importlib.import_module`, which
is not an import statement.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.diagnostics import Finding
from repro.lint.rules import Rule, dotted_name, register_rule

__all__ = ["EagerImportRule"]

HEAVY = frozenset({"scipy", "numpy", "networkx"})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@register_rule
class EagerImportRule(Rule):
    id = "REP006"
    title = "no eager imports of scipy, numpy or networkx"
    contract = (
        "scipy, numpy and networkx are imported where they run "
        "(repro.util.optional), never at module scope, so a cold "
        "command pays only for what its verb uses"
    )
    hint = (
        "call repro.util.optional.optional_import(...) (or "
        "milp_modules()) where the package runs; a type-only import "
        "goes under `if TYPE_CHECKING:`"
    )
    scope = ("src/repro/*",)

    def check_file(self, ctx, project) -> Iterator[Finding]:
        for node in _eager_statements(ctx.tree.body):
            heavy = _heavy_module(node)
            if heavy is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"module-scope import of {heavy} runs on every import "
                    "of this module; import it where it runs",
                )


def _eager_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement that runs when the module is imported: the body,
    recursively through compound statements and class bodies, but not
    into functions or ``if TYPE_CHECKING:`` branches."""
    for stmt in body:
        if isinstance(stmt, _FUNC_NODES):
            continue
        yield stmt
        if isinstance(stmt, ast.If) and _is_type_checking(stmt.test):
            yield from _eager_statements(stmt.orelse)
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield from _eager_statements([child])
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                yield from _eager_statements(child.body)


def _is_type_checking(test: ast.AST) -> bool:
    return dotted_name(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _heavy_module(node: ast.stmt) -> Optional[str]:
    """The first heavy module ``node`` imports, or ``None``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module]
    else:
        return None
    for name in names:
        if name.partition(".")[0] in HEAVY:
            return name
    return None
