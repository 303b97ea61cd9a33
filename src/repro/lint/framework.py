"""The reprolint rule framework: sources, violations, suppressions, driver.

``reprolint`` is the repo's domain-specific static analyser.  Generic
linters check style; this one checks the *invariants the reproduction
rests on* — integer bit-exactness of the transform/packing datapaths,
resource-lifecycle pairing in the streaming runtime, probe-seam purity,
and the package layering DAG.  Hardware flows run lint/CDC checks before
synthesis for exactly these classes of bug; this is the software
analogue.

The pieces:

- :class:`ModuleSource` — one parsed file (text, AST, dotted module
  name, parent links), computed once and shared by every rule.
- :class:`Violation` — one finding, ``path:line:col: REPxxx message``.
- :class:`Rule` — the protocol a rule implements: a ``code`` (``REPxxx``),
  a ``name``, a ``description`` and ``check(source) -> violations``.
- :class:`FunctionRule` — the flow-sensitive extension: a rule that
  additionally implements ``check_function(source, func, cfg)`` receives
  every function with its control-flow graph (built once per function,
  shared across rules).  Plain rules keep working unchanged.
- Suppressions — ``# reprolint: disable=REP001`` on the offending line
  (or alone on the line above) waives that rule there;
  ``# reprolint: disable-file=REP001`` anywhere waives it for the file.
  ``disable=all`` waives every rule.  Waivers are the lint analogue of
  timing-constraint exceptions: visible, greppable, reviewed.  A waiver
  that suppresses nothing is itself reported (code ``REP000``) so stale
  exceptions cannot accumulate.
- :class:`RuleCrash` — an internal rule failure, reported separately
  from findings so the CLI can exit 2 (linter broke) instead of 1
  (violations found).
- :func:`analyze_module` / :func:`lint_paths` — the entry points.
"""

from __future__ import annotations

import ast
import io
import re
import time
import tokenize
import traceback
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..errors import ConfigError
from .cfg import CFG, FunctionNode, build_cfg, iter_functions

#: Synthetic rule code for waivers that suppress nothing.
UNUSED_WAIVER_CODE = "REP000"

#: Matches one suppression comment; group 1 is the directive, group 2 the
#: comma-separated rule codes (or ``all``).
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding, pinned to a file position."""

    #: Rule code, e.g. ``"REP001"``.
    rule: str
    #: Path of the offending file (as given to the driver).
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Human-readable explanation of what is wrong and why it matters.
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True, slots=True)
class RuleCrash:
    """An unhandled exception inside a rule (linter bug, not a finding)."""

    #: Code of the rule that crashed (``"<cfg>"`` for the CFG builder).
    rule: str
    #: File being analysed when the rule crashed.
    path: str
    #: ``repr`` of the exception.
    error: str
    #: Full traceback text, for the pointer file the CLI writes.
    traceback: str

    def format(self) -> str:
        """One-line rendering for terminal output."""
        return f"{self.path}: rule {self.rule} crashed: {self.error}"


class ModuleSource:
    """One Python file parsed for linting (shared by all rules).

    Carries the raw text, the AST, the dotted module name (derived from
    the ``__init__.py`` chain above the file, so rules can reason about
    layering), and a child-to-parent node map for context checks.
    """

    def __init__(
        self,
        *,
        text: str,
        path: str = "<memory>",
        module: str = "",
        is_package: bool = False,
    ) -> None:
        self.text = text
        self.path = path
        self.module = module
        self.is_package = is_package
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        self._parents: dict[ast.AST, ast.AST] | None = None

    @classmethod
    def from_path(cls, path: Path) -> "ModuleSource":
        """Parse ``path``, deriving the dotted module name from packages.

        Walks up while a ``__init__.py`` sibling exists, so
        ``src/repro/core/transform/haar1d.py`` resolves to
        ``repro.core.transform.haar1d`` no matter where the repo lives.
        """
        parts = [path.stem if path.name != "__init__.py" else None]
        parent = path.parent
        while (parent / "__init__.py").is_file():
            parts.append(parent.name)
            parent = parent.parent
        module = ".".join(p for p in reversed(parts) if p)
        return cls(
            text=path.read_text(),
            path=str(path),
            module=module,
            is_package=path.name == "__init__.py",
        )

    @classmethod
    def from_source(
        cls, text: str, *, module: str = "", is_package: bool = False
    ) -> "ModuleSource":
        """Parse an in-memory snippet (the fixture entry point for tests)."""
        return cls(text=text, module=module, is_package=is_package)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (``None`` for the module root)."""
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors, innermost first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


@runtime_checkable
class Rule(Protocol):
    """What every reprolint rule provides."""

    #: Stable rule code (``REPxxx``) used in reports and suppressions.
    code: str
    #: Short kebab-case name, e.g. ``"bit-exact-integers"``.
    name: str
    #: One-paragraph statement of the invariant the rule enforces.
    description: str

    def check(self, source: ModuleSource) -> Iterable[Violation]:
        """Yield every violation of this rule in ``source``."""
        ...  # pragma: no cover - protocol body


@runtime_checkable
class FunctionRule(Protocol):
    """A rule that opts into per-function dataflow facts.

    The driver builds each function's CFG exactly once and hands it to
    every function rule, so N flow-sensitive rules share one graph.
    ``check`` still runs (module-level sweep); return ``()`` from it when
    the rule is purely flow-sensitive.
    """

    code: str
    name: str
    description: str

    def check(self, source: ModuleSource) -> Iterable[Violation]:
        """Yield every violation of this rule in ``source``."""
        ...  # pragma: no cover - protocol body

    def check_function(
        self, source: ModuleSource, func: FunctionNode, cfg: CFG
    ) -> Iterable[Violation]:
        """Yield violations found in one function given its CFG."""
        ...  # pragma: no cover - protocol body


class _Suppressions:
    """Waiver bookkeeping: suppression *and* unused-waiver detection."""

    def __init__(self, source: ModuleSource) -> None:
        self.per_line, self.file_wide = suppressed_lines(source)
        #: Comment line -> codes declared there (before next-line
        #: propagation), for attributing unused waivers to their comment.
        self._declared: list[tuple[int, frozenset[str]]] = []
        self._used: set[tuple[int, str]] = set()
        self._used_file_wide: set[str] = set()
        for lineno, _line, match in _waiver_comments(source):
            if match.group(1) != "disable":
                continue
            codes = frozenset(
                c.strip() for c in match.group(2).split(",") if c.strip()
            )
            self._declared.append((lineno, codes))

    def is_suppressed(self, violation: Violation) -> bool:
        """True when a waiver covers ``violation`` (marking it used)."""
        if violation.rule in self.file_wide or "all" in self.file_wide:
            self._used_file_wide.add(
                violation.rule if violation.rule in self.file_wide else "all"
            )
            return True
        codes = self.per_line.get(violation.line, ())
        for code in (violation.rule, "all"):
            if code in codes:
                self._used.add((violation.line, code))
                return True
        return False

    def unused(
        self, path: str, active_codes: frozenset[str]
    ) -> Iterator[Violation]:
        """Waivers that suppressed nothing, as synthetic REP000 findings.

        Only codes in ``active_codes`` (the rules that actually ran) are
        judged — a ``--rules`` subset run cannot tell whether a waiver
        for an unselected rule is stale.
        """
        for lineno, codes in self._declared:
            for code in sorted(codes):
                if code != "all" and code not in active_codes:
                    continue
                # The comment covers its own line and, when alone on the
                # line, the next one; used on either means not stale.
                if (lineno, code) in self._used or (
                    lineno + 1,
                    code,
                ) in self._used:
                    continue
                yield Violation(
                    rule=UNUSED_WAIVER_CODE,
                    path=path,
                    line=lineno,
                    col=0,
                    message=(
                        f"unused waiver: 'reprolint: disable={code}' "
                        "suppresses nothing here — remove it"
                    ),
                )
        for code in sorted(self.file_wide):
            if code != "all" and code not in active_codes:
                continue
            if code in self._used_file_wide:
                continue
            yield Violation(
                rule=UNUSED_WAIVER_CODE,
                path=path,
                line=1,
                col=0,
                message=(
                    f"unused waiver: 'reprolint: disable-file={code}' "
                    "suppresses nothing in this file — remove it"
                ),
            )


def suppressed_lines(source: ModuleSource) -> tuple[dict[int, set[str]], set[str]]:
    """Parse suppression comments out of ``source``.

    Returns ``(per_line, file_wide)`` where ``per_line`` maps a 1-based
    line number to the rule codes waived there and ``file_wide`` is the
    set of codes waived for the whole file.  A code set containing
    ``"all"`` waives everything.
    """
    per_line: dict[int, set[str]] = {}
    file_wide: set[str] = set()
    for lineno, line, match in _waiver_comments(source):
        codes = {c.strip() for c in match.group(2).split(",") if c.strip()}
        if match.group(1) == "disable-file":
            file_wide |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
            # A suppression alone on its own line covers the next line.
            if line.lstrip().startswith("#"):
                per_line.setdefault(lineno + 1, set()).update(codes)
    return per_line, file_wide


def _waiver_comments(
    source: ModuleSource,
) -> Iterator[tuple[int, str, "re.Match[str]"]]:
    """Waiver directives found in actual ``#`` comments.

    Tokenising (rather than regex-scanning raw lines) keeps a docstring
    that merely *mentions* the waiver syntax — rule documentation does —
    from acting as (or being reported as) a real waiver.  Files that do
    not tokenise fall back to the line scan: a file being linted always
    parsed, so this only happens for exotic encodings.
    """
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source.text).readline)
        )
    except (tokenize.TokenError, SyntaxError, ValueError):
        for lineno, line in enumerate(source.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is not None:
                yield lineno, line, match
        return
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is not None:
            lineno = token.start[0]
            line = source.lines[lineno - 1] if lineno <= len(source.lines) else ""
            yield lineno, line, match


@dataclass(frozen=True, slots=True)
class ModuleResult:
    """Everything :func:`analyze_module` learned about one file."""

    violations: tuple[Violation, ...]
    crashes: tuple[RuleCrash, ...]
    unused_waivers: tuple[Violation, ...]


def _run_rule(
    rule: Rule,
    source: ModuleSource,
    crashes: list[RuleCrash],
    call: "Callable[[], Iterable[Violation]]",
) -> list[Violation]:
    try:
        return list(call())
    except Exception as exc:  # noqa: BLE001 - crash isolation is the point
        crashes.append(
            RuleCrash(
                rule=rule.code,
                path=source.path,
                error=repr(exc),
                traceback=traceback.format_exc(),
            )
        )
        return []


def analyze_module(
    source: ModuleSource, rules: Sequence[Rule]
) -> ModuleResult:
    """Run ``rules`` over one module: findings, crashes, stale waivers.

    Function rules additionally get each function's CFG, built once and
    shared.  A rule that raises is recorded as a :class:`RuleCrash` and
    does not abort the other rules (nor surface as a finding).
    """
    suppressions = _Suppressions(source)
    crashes: list[RuleCrash] = []
    found: list[Violation] = []
    for rule in rules:
        found.extend(
            _run_rule(
                rule, source, crashes, lambda r=rule: r.check(source)
            )
        )
    function_rules = [r for r in rules if isinstance(r, FunctionRule)]
    if function_rules:
        for func in iter_functions(source.tree):
            try:
                cfg = build_cfg(func)
            except Exception as exc:  # noqa: BLE001 - crash isolation
                crashes.append(
                    RuleCrash(
                        rule="<cfg>",
                        path=source.path,
                        error=repr(exc),
                        traceback=traceback.format_exc(),
                    )
                )
                continue
            for rule in function_rules:
                found.extend(
                    _run_rule(
                        rule,
                        source,
                        crashes,
                        lambda r=rule: r.check_function(source, func, cfg),
                    )
                )
    kept = [v for v in found if not suppressions.is_suppressed(v)]
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    active = frozenset(r.code for r in rules)
    unused = tuple(suppressions.unused(source.path, active))
    return ModuleResult(
        violations=tuple(kept),
        crashes=tuple(crashes),
        unused_waivers=unused,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the sorted ``*.py`` files beneath.

    ``__pycache__`` trees are skipped; a missing path raises
    :class:`~repro.errors.ConfigError` rather than silently linting
    nothing.
    """
    for path in paths:
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            raise ConfigError(f"lint path does not exist: {path}")


@dataclass(frozen=True, slots=True)
class LintReport:
    """Outcome of linting a set of paths."""

    #: Every unsuppressed violation, in file order.
    violations: tuple[Violation, ...]
    #: Number of Python files parsed.
    files_checked: int
    #: The rules that ran (for reporting).
    rules: tuple[Rule, ...] = field(default=())
    #: Internal rule failures (exit 2, not exit 1).
    crashes: tuple[RuleCrash, ...] = field(default=())
    #: Wall-clock time spent linting, in seconds.
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no violations were found and no rule crashed."""
        return not self.violations and not self.crashes


def lint_paths(
    paths: Iterable[Path],
    rules: Sequence[Rule] | None = None,
    *,
    report_unused_waivers: bool = True,
) -> LintReport:
    """Lint every Python file under ``paths`` with ``rules``.

    ``rules=None`` runs the default rule set (all ``REPxxx`` rules).
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    started = time.perf_counter()
    violations: list[Violation] = []
    crashes: list[RuleCrash] = []
    files = 0
    for path in iter_python_files(paths):
        files += 1
        result = analyze_module(ModuleSource.from_path(path), rules)
        violations.extend(result.violations)
        crashes.extend(result.crashes)
        if report_unused_waivers:
            violations.extend(result.unused_waivers)
    return LintReport(
        violations=tuple(violations),
        files_checked=files,
        rules=tuple(rules),
        crashes=tuple(crashes),
        elapsed_seconds=time.perf_counter() - started,
    )
