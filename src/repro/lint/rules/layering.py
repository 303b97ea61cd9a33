"""REP004 — the package layering DAG, enforced at import sites.

PRs 1-4 grew the codebase in strict layers::

    errors
      └─ config ── observability ── imaging ── kernels ── lint
           └─ core.transform
                └─ core.packing ── core.stats ── core.base (threshold)
                     └─ resilience ── hardware
                          └─ core.window ── spec
                               └─ runtime ── baselines
                                    └─ serve
                                         └─ analysis
                                              └─ cli

The invariants that keep the model honest: ``core`` imports nothing
above it (so the datapath model never depends on the runtime that
schedules it), ``hardware`` never sees ``runtime``, and ``analysis`` /
``cli`` are the only consumers of everything.  This rule resolves every
``import`` / ``from .. import`` in a module, maps both ends onto the
layer table, and flags edges outside each layer's allowed set.

Imports inside ``if TYPE_CHECKING:`` blocks are exempt — type-only
edges carry no runtime coupling (mirroring import-linter's convention).

The rule also checks ``__all__`` consistency: every name a module
exports must actually be defined or imported in it, so the public
surface cannot silently rot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping

from ..framework import ModuleSource, Violation

#: Longest-prefix-match table from dotted module prefix to layer name.
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.errors", "errors"),
    ("repro.config", "config"),
    ("repro.observability", "observability"),
    ("repro.imaging", "imaging"),
    ("repro.kernels", "kernels"),
    ("repro.lint", "lint"),
    ("repro.core.transform", "core.transform"),
    ("repro.core.packing", "core.packing"),
    ("repro.core.stats", "core.stats"),
    ("repro.core.threshold", "core.base"),
    ("repro.core.window", "core.window"),
    ("repro.core", "core.api"),
    ("repro.resilience", "resilience"),
    ("repro.hardware", "hardware"),
    ("repro.spec", "spec"),
    ("repro.runtime", "runtime"),
    ("repro.serve", "serve"),
    ("repro.baselines", "baselines"),
    ("repro.analysis", "analysis"),
    ("repro.cli", "cli"),
    ("repro.__main__", "cli"),
    ("repro", "api"),
)

_CORE_COMMON = frozenset(
    {"errors", "config", "core.transform", "core.base", "core.packing"}
)

#: What each layer may import (itself is always allowed).
ALLOWED_IMPORTS: Mapping[str, frozenset[str]] = {
    "errors": frozenset(),
    "config": frozenset({"errors"}),
    "observability": frozenset({"errors"}),
    "imaging": frozenset({"errors", "config"}),
    "kernels": frozenset({"errors", "config"}),
    "lint": frozenset({"errors"}),
    "core.transform": frozenset({"errors", "config"}),
    "core.base": frozenset(
        {"errors", "config", "core.transform", "core.packing", "core.stats"}
    ),
    "core.packing": frozenset(
        {"errors", "config", "core.transform", "core.base"}
    ),
    "core.stats": _CORE_COMMON | frozenset({"observability"}),
    "resilience": _CORE_COMMON | frozenset({"observability"}),
    "hardware": _CORE_COMMON | frozenset({"observability", "resilience"}),
    "core.window": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "resilience",
            "observability",
            "imaging",
            "kernels",
        }
    ),
    "core.api": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "core.window",
            "resilience",
            "observability",
            "imaging",
            "kernels",
        }
    ),
    "spec": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "core.window",
            "core.api",
            "kernels",
            "observability",
            "resilience",
        }
    ),
    "runtime": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "core.window",
            "core.api",
            "spec",
            "kernels",
            "observability",
            "resilience",
            "imaging",
        }
    ),
    "serve": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "core.window",
            "core.api",
            "spec",
            "kernels",
            "observability",
            "resilience",
            "runtime",
        }
    ),
    "baselines": _CORE_COMMON
    | frozenset({"core.stats", "core.window", "core.api", "kernels", "imaging"}),
    "analysis": _CORE_COMMON
    | frozenset(
        {
            "core.stats",
            "core.window",
            "core.api",
            "spec",
            "kernels",
            "observability",
            "resilience",
            "imaging",
            "hardware",
            "runtime",
            "serve",
            "baselines",
            "api",
        }
    ),
    "cli": frozenset(
        layer for _, layer in LAYER_PREFIXES if layer != "cli"
    ),
    "api": frozenset(
        layer
        for _, layer in LAYER_PREFIXES
        if layer not in ("api", "cli", "lint", "analysis")
    ),
}


def layer_of(module: str) -> str | None:
    """The layer of a dotted module name (``None`` for non-repro)."""
    best: str | None = None
    best_len = -1
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def resolve_relative(source: ModuleSource, node: ast.ImportFrom) -> str:
    """Absolute dotted target of an ``ImportFrom`` in ``source``."""
    if node.level == 0:
        return node.module or ""
    parts = source.module.split(".") if source.module else []
    if not source.is_package and parts:
        parts = parts[:-1]
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    if node.module:
        parts = [*parts, node.module]
    return ".".join(parts)


def _type_checking_nodes(tree: ast.Module) -> set[int]:
    """ids of nodes inside ``if TYPE_CHECKING:`` blocks (type-only edges)."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id
            if isinstance(test, ast.Name)
            else test.attr
            if isinstance(test, ast.Attribute)
            else ""
        )
        if name == "TYPE_CHECKING":
            for stmt in node.body:
                guarded.update(id(n) for n in ast.walk(stmt))
    return guarded


class LayeringRule:
    """REP004: imports follow the layer DAG; ``__all__`` names exist."""

    code = "REP004"
    name = "import-layering"
    description = (
        "Each package may only import from the layers beneath it (core "
        "imports nothing above core; runtime is never imported from "
        "core/hardware), and every __all__ entry must be defined in its "
        "module."
    )

    def __init__(
        self,
        allowed: Mapping[str, frozenset[str]] = ALLOWED_IMPORTS,
    ) -> None:
        self.allowed = allowed

    def check(self, source: ModuleSource) -> Iterator[Violation]:
        """Yield layering and ``__all__`` consistency violations."""
        own_layer = layer_of(source.module) if source.module else None
        if own_layer is not None:
            yield from self._check_imports(source, own_layer)
        yield from self._check_dunder_all(source)

    def _check_imports(
        self, source: ModuleSource, own_layer: str
    ) -> Iterator[Violation]:
        allowed = self.allowed.get(own_layer, frozenset())
        type_only = _type_checking_nodes(source.tree)
        seen: set[tuple[str, int]] = set()
        for node in ast.walk(source.tree):
            if id(node) in type_only:
                continue
            for target, pos in self._import_targets(source, node):
                if (target, pos[0]) in seen:
                    continue
                seen.add((target, pos[0]))
                target_layer = layer_of(target)
                if target_layer is None:  # stdlib / third-party
                    continue
                if target_layer == own_layer or target_layer in allowed:
                    continue
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=pos[0],
                    col=pos[1],
                    message=(
                        f"layer '{own_layer}' may not import '{target}' "
                        f"(layer '{target_layer}'); allowed layers: "
                        f"{', '.join(sorted(allowed)) or 'none'}"
                    ),
                )

    @staticmethod
    def _import_targets(
        source: ModuleSource, node: ast.AST
    ) -> Iterator[tuple[str, tuple[int, int]]]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, (node.lineno, node.col_offset)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(source, node)
            if not base:
                return
            for alias in node.names:
                # `from repro import runtime` names a submodule; prefer
                # the finer-grained target when it maps to a layer of
                # its own, else charge the import to `base`.
                candidate = f"{base}.{alias.name}"
                target = (
                    candidate
                    if layer_of(candidate) != layer_of(base)
                    else base
                )
                yield target, (node.lineno, node.col_offset)

    def _check_dunder_all(
        self, source: ModuleSource
    ) -> Iterator[Violation]:
        exported: list[tuple[str, int, int]] = []
        for node in source.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        exported.append(
                            (elt.value, elt.lineno, elt.col_offset)
                        )
        if not exported:
            return
        defined = self._top_level_names(source.tree)
        for name, line, col in exported:
            if name not in defined:
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=line,
                    col=col,
                    message=(
                        f"__all__ exports '{name}' but the module never "
                        "defines or imports it"
                    ),
                )

    @staticmethod
    def _top_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        # Walk the whole tree: names bound inside `if TYPE_CHECKING:` or
        # try/except import fallbacks still satisfy __all__.
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(
                        alias.asname
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
        return names
