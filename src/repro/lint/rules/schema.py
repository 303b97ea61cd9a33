"""REP009 — bench schemas cannot silently fork.

Every ``BENCH_*.json`` trajectory file names its schema with a
``repro-<name>/<version>`` string constant (``BENCH_SCHEMA =
"repro-bench/1"`` and friends).  The contract that keeps those files
loadable across PRs has three legs, and history shows each one can rot
independently:

1. the writer module must also define the ``load_*_json`` validator
   that structurally checks files it claims to produce;
2. the validator must actually reference the schema constant (or its
   literal) — otherwise version bumps stop being enforced;
3. the test suite must reference *both* the schema and the validator,
   so a schema bump without a test update fails review loudly.

The rule anchors on module-level assignments of ``repro-*/N`` string
literals and checks all three legs.  The tests tree is discovered by
walking up from the linted file to the directory holding
``pyproject.toml`` (overridable for fixtures via ``tests_root``); when
no tests tree exists — linting a fixture snippet in isolation — leg 3
is skipped rather than failed, so rule unit tests can exercise legs 1–2
hermetically.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from pathlib import Path

from ..framework import ModuleSource, Violation

#: A bench schema tag: ``repro-<name>/<version>``.
SCHEMA_RE = re.compile(r"^repro-[a-z0-9-]+/\d+$")

#: A validator function name: ``load_<name>_json`` (jsonl included).
_LOADER_RE = re.compile(r"^load_\w+_json\w*$")


def _schema_constants(tree: ast.Module) -> Iterator[tuple[str, str, ast.Assign]]:
    """Module-level ``NAME = "repro-x/N"`` assignments."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
            and SCHEMA_RE.match(stmt.value.value)
        ):
            yield stmt.targets[0].id, stmt.value.value, stmt


def _loader_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and _LOADER_RE.match(stmt.name):
            yield stmt


def _references(func: ast.FunctionDef, name: str, literal: str) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value == literal
        ):
            return True
    return False


class SchemaDriftRule:
    """REP009: every bench schema has a validator and test coverage."""

    code = "REP009"
    name = "schema-drift"
    description = (
        "Every repro-*/N bench schema constant must have a same-module "
        "load_*_json validator that references it, and the test suite "
        "must reference both the schema and the validator, so a schema "
        "fork or version bump cannot land silently."
    )

    def __init__(self, tests_root: Path | None = None) -> None:
        self._tests_root = tests_root
        self._tests_text: dict[Path, str] = {}

    def check(self, source: ModuleSource) -> Iterator[Violation]:
        """Yield one finding per broken leg of each schema contract."""
        constants = list(_schema_constants(source.tree))
        if not constants:
            return
        loaders = list(_loader_functions(source.tree))
        tests_text = self._tests(source)
        for name, literal, stmt in constants:
            matching = [
                fn for fn in loaders if _references(fn, name, literal)
            ]
            if not matching:
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"schema {name} = {literal!r} has no load_*_json "
                        "validator in this module referencing it: the "
                        "writer can fork the schema with nothing checking "
                        "readers"
                    ),
                )
                continue
            if tests_text is None:
                continue
            if name not in tests_text and literal not in tests_text:
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"schema {name} = {literal!r} is never referenced "
                        "by the test suite: a version bump would land "
                        "without a test update"
                    ),
                )
            for fn in matching:
                if fn.name not in tests_text:
                    yield Violation(
                        rule=self.code,
                        path=source.path,
                        line=fn.lineno,
                        col=fn.col_offset,
                        message=(
                            f"validator {fn.name}() for schema {literal!r} "
                            "is never exercised by the test suite"
                        ),
                    )

    # -- tests-tree discovery ----------------------------------------------

    def _tests(self, source: ModuleSource) -> str | None:
        root = self._tests_root
        if root is None:
            root = _discover_tests_root(source.path)
        if root is None or not root.is_dir():
            return None
        cached = self._tests_text.get(root)
        if cached is None:
            parts = []
            for path in sorted(root.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                try:
                    parts.append(path.read_text())
                except OSError:
                    continue
            cached = "\n".join(parts)
            self._tests_text[root] = cached
        return cached


def _discover_tests_root(path_text: str) -> Path | None:
    if path_text.startswith("<"):  # in-memory fixture: no tests tree
        return None
    path = Path(path_text)
    if not path.is_absolute():
        path = Path.cwd() / path
    for parent in path.parents:
        if (parent / "pyproject.toml").is_file():
            tests = parent / "tests"
            return tests if tests.is_dir() else None
    return None
