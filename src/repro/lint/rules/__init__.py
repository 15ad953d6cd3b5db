"""The rule-plugin protocol and shared AST utilities.

A rule is a class with

* ``id`` — the stable ``REPnnn`` identifier used in suppressions,
  baselines and ``--rule`` selection;
* ``title`` / ``contract`` — one-liners for ``--list-rules`` and docs;
* ``scope`` — path patterns selecting the files the rule reads
  (matched against the lint-root-relative posix path, with an implicit
  ``*/`` prefix so mirrored fixture trees match too);
* ``check_file(ctx, project)`` — per-file hook yielding
  :class:`~repro.lint.diagnostics.Finding`s (may also just collect
  symbols for ``finish``);
* ``finish(project)`` — cross-file hook, called once after every file,
  for whole-project contracts (e.g. registry coverage).

Rules register with the :func:`register_rule` class decorator; the
engine instantiates a **fresh** rule object per run (rules may keep
per-run symbol tables on ``self``).  To add a rule: drop a module in
this package, decorate the class, import it below, and add a fixture
pair under ``tests/lint/fixtures/`` — the golden-diagnostics test will
fail until the fixture proves a true positive.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.lint.diagnostics import Finding

__all__ = [
    "Rule",
    "ImportMap",
    "all_rules",
    "get_rules",
    "path_matches",
    "register_rule",
    "rule_ids",
    "walk_scoped",
]


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """``fnmatch`` against the relative path, also accepting any
    directory-suffix match (so ``core/dispatch.py`` matches both
    ``src/repro/core/dispatch.py`` and a mirrored fixture tree)."""
    return any(
        fnmatch(relpath, pattern) or fnmatch(relpath, "*/" + pattern)
        for pattern in patterns
    )


class Rule:
    """Base class for lint rules (see module docstring)."""

    id: str = "REP000"
    title: str = ""
    #: The repo contract the rule enforces, one sentence (docs/--list-rules).
    contract: str = ""
    #: Fix-it hint attached to findings by default.
    hint: str = ""
    #: Path patterns the rule reads; empty means every file.
    scope: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return not self.scope or path_matches(relpath, self.scope)

    def check_file(self, ctx, project) -> Iterable[Finding]:
        return ()

    def finish(self, project) -> Iterable[Finding]:
        return ()

    # ------------------------------------------------------------------ #
    def finding(
        self,
        ctx,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``'s file."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.id,
            path=ctx.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
            snippet=ctx.snippet(line),
        )


RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: register a rule by its ``id``."""
    if cls.id in RULES:
        raise ValueError(f"lint rule {cls.id!r} already registered")
    RULES[cls.id] = cls
    return cls


def rule_ids() -> List[str]:
    return sorted(RULES)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, id order."""
    return [RULES[rule_id]() for rule_id in rule_ids()]


def get_rules(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    if not ids:
        return all_rules()
    unknown = sorted(set(ids) - set(RULES))
    if unknown:
        raise KeyError(
            f"unknown lint rule(s) {', '.join(unknown)}; "
            f"available: {', '.join(rule_ids())}"
        )
    return [RULES[rule_id]() for rule_id in sorted(set(ids))]


# ---------------------------------------------------------------------- #
# Shared AST utilities
# ---------------------------------------------------------------------- #
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def walk_scoped(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Yield ``(node, enclosing_function_stack)`` for every node.

    The stack is the chain of ``FunctionDef``/``AsyncFunctionDef``
    nodes enclosing ``node`` (innermost last); the function node itself
    is yielded under its *outer* scope.
    """

    def visit(node: ast.AST, stack: Tuple[ast.AST, ...]):
        for child in ast.iter_child_nodes(node):
            yield child, stack
            child_stack = stack + (child,) if isinstance(child, _FUNC_NODES) else stack
            yield from visit(child, child_stack)

    yield tree, ()
    yield from visit(tree, ())


def decorator_names(func: ast.AST) -> List[str]:
    """Dotted names of a function's decorators (``property``,
    ``functools.cached_property``, ``register`` …)."""
    names: List[str] = []
    for dec in getattr(func, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        dotted = dotted_name(target)
        if dotted:
            names.append(dotted)
    return names


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """What each local name refers to, import-wise, for one module.

    * ``modules`` — local alias → imported module path
      (``import numpy as np`` → ``{"np": "numpy"}``);
    * ``names`` — local name → ``(module, original_name)``
      (``from fractions import Fraction as F`` →
      ``{"F": ("fractions", "Fraction")}``).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.modules[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = (node.module, alias.name)

    def resolves_to(self, node: ast.AST, module: str, name: str) -> bool:
        """True when ``node`` is a reference to ``module.name`` through
        any import spelling (``from m import n [as x]`` /
        ``import m [as y]; y.n``)."""
        if isinstance(node, ast.Name):
            return self.names.get(node.id) == (module, name)
        if isinstance(node, ast.Attribute) and node.attr == name:
            dotted = dotted_name(node.value)
            if dotted is None:
                return False
            root, _, rest = dotted.partition(".")
            resolved = self.modules.get(root)
            if resolved is None:
                return False
            full = resolved + ("." + rest if rest else "")
            return full == module
        return False

    def is_module_ref(self, node: ast.AST) -> bool:
        """True when ``node`` is a bare reference to an imported module
        (so ``module.func`` is a picklable top-level function)."""
        dotted = dotted_name(node)
        if dotted is None:
            return False
        root = dotted.split(".")[0]
        return root in self.modules


# Import the rule modules for their registration side effect.
from repro.lint.rules import (  # noqa: E402,F401  (registration imports)
    rep001_ticks,
    rep002_determinism,
    rep003_pickling,
    rep004_registry,
    rep005_exceptions,
    rep006_imports,
)
