"""REP007 — must-release over every CFG path (complements REP002's scan).

REP002 checks that an acquisition site is *lexically* protected — inside
or immediately before a try with an error edge.  That shape check has a
known false-negative class: an early ``return``/``continue``/``break``
*between* the acquire and the release inside the protected region leaks
the resource on a path REP002 never looks at, because the try/except is
present and the pattern matches.

REP007 closes it with dataflow.  For each function we run a forward
may-held analysis over the CFG: an acquisition site generates a "held"
fact, a release or an ownership escape kills it, and any site still held
in the function-exit block's entry fact has a concrete leaking path.
Exceptional edges propagate the *entry* fact of the raising statement
(a failed ``acquire`` has acquired nothing), and handler/finally bodies
are ordinary blocks, so ``except BaseException: release(); raise`` and
``finally: discard()`` idioms pass by construction rather than by
pattern.

Tracked resources (same inventory as REP002, plus the gateway's
connection tasks):

- ring slots — ``x = <ring>.acquire(...)``; released by
  ``<ring>.release(x)``;
- shared memory — ``x = SharedMemory(..., create=True)``; released by
  ``x.close()`` / ``x.unlink()``;
- gateway connection tasks — ``<conn_tasks>.add(x)``; released by
  ``<conn_tasks>.discard(x)`` / ``.remove(x)`` / ``.clear()``.

A resource *escapes* (tracking stops, deliberately conservative) when
its variable is passed as a call argument, returned or yielded, aliased,
stored into an attribute/subscript/container, or rebound: ownership has
moved somewhere this per-function analysis cannot see.  An acquisition
stored straight onto an attribute (``self._shm = SharedMemory(create=
True, ...)``, the shape of ``FrameRing.__init__``) is therefore never
tracked here; REP002's lexical check is what keeps it protected, so the
two rules stay side by side.  Pure reads —
``if slot is None:``, receiver position ``task.add_done_callback(...)``
— do not escape, so a test between acquire and release cannot hide a
leaking early return.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from ..cfg import CFG, Block, FunctionNode, header_parts
from ..dataflow import Solution, solve
from ..framework import ModuleSource, Violation
from .lifecycle import _is_ring_acquire, _is_shm_create, _receiver_text

_TASK_CONTAINER_HINT = "conn_tasks"


@dataclass(frozen=True, slots=True)
class _Site:
    """One acquisition: where, what variable, what kind of resource."""

    sid: int
    var: str
    kind: str  # "slot" | "shm" | "task"
    line: int
    col: int
    what: str


def _is_task_add(call: ast.Call) -> bool:
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "add"
        and _TASK_CONTAINER_HINT in _receiver_text(call.func.value)
        and len(call.args) == 1
    )


def _in_withitem(source: ModuleSource, call: ast.Call) -> bool:
    for ancestor in source.ancestors(call):
        if isinstance(ancestor, ast.withitem) and any(
            inner is call for inner in ast.walk(ancestor.context_expr)
        ):
            return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False


def _collect_sites(
    source: ModuleSource, cfg: CFG
) -> tuple[dict[int, _Site], list[Violation]]:
    """Find acquisition sites keyed by owning-block id.

    Returns ``(sites_by_block, immediate)`` where ``immediate`` are
    acquisitions whose result is discarded outright (nothing to track —
    the leak is unconditional).
    """
    sites: dict[int, _Site] = {}
    immediate: list[Violation] = []
    next_sid = 0
    for block in cfg.blocks:
        for stmt in block.nodes:
            for part in header_parts(stmt):
                for call in ast.walk(part):
                    if not isinstance(call, ast.Call):
                        continue
                    if _is_ring_acquire(call):
                        kind, what = "slot", "ring-slot acquire()"
                    elif _is_shm_create(call):
                        kind, what = "shm", "SharedMemory(create=True)"
                    elif _is_task_add(call):
                        kind, what = "task", "conn_tasks.add()"
                    else:
                        continue
                    if _in_withitem(source, call):
                        continue
                    var = _bound_name(stmt, call, kind)
                    if var is None:
                        continue  # ownership escapes at birth
                    if var == "":
                        immediate.append(
                            Violation(
                                rule="REP007",
                                path=source.path,
                                line=call.lineno,
                                col=call.col_offset,
                                message=(
                                    f"{what} result is discarded: the "
                                    "resource can never be released"
                                ),
                            )
                        )
                        continue
                    sites[block.id] = _Site(
                        sid=next_sid,
                        var=var,
                        kind=kind,
                        line=call.lineno,
                        col=call.col_offset,
                        what=what,
                    )
                    next_sid += 1
    return sites, immediate


def _bound_name(
    stmt: ast.AST, call: ast.Call, kind: str
) -> str | None:
    """The variable that holds the resource after ``stmt`` runs.

    ``None`` means ownership immediately escaped (attribute store, call
    argument, ...): not trackable, not a finding.  ``""`` means the
    result is plainly discarded: an unconditional leak.
    """
    if kind == "task":
        arg = call.args[0]
        return arg.id if isinstance(arg, ast.Name) else None
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        if value is call and len(targets) == 1:
            target = targets[0]
            if isinstance(target, ast.Name):
                return target.id
            return None  # attribute/subscript target: ownership escapes
        return None  # acquire buried in a larger expression
    if isinstance(stmt, ast.Expr) and stmt.value is call:
        return ""  # bare expression statement: result dropped
    return None


class _MustRelease:
    """Forward may-held analysis; fact = frozenset of site ids."""

    direction = "forward"

    def __init__(
        self,
        source: ModuleSource,
        sites_by_block: dict[int, _Site],
    ) -> None:
        self._source = source
        self._by_block = sites_by_block
        self._sites = {s.sid: s for s in sites_by_block.values()}

    def boundary(self, cfg: CFG) -> frozenset[int]:
        """No resource is held at function entry."""
        return frozenset()

    def join(
        self, a: frozenset[int] | None, b: frozenset[int] | None
    ) -> frozenset[int] | None:
        """May-union: held on *some* incoming path means may-held."""
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    def widen(self, old: object, new: object) -> object:
        """No-op: the site-id lattice is finite."""
        return new

    def transfer(
        self, block: Block, fact: frozenset[int] | None
    ) -> frozenset[int] | None:
        """Kill released/rebound/escaped sites, then gen this block's."""
        if fact is None:
            return None
        for stmt in block.nodes:
            if fact:
                fact = frozenset(
                    sid
                    for sid in fact
                    if not self._kills(stmt, self._sites[sid])
                )
        site = self._by_block.get(block.id)
        if site is not None:
            fact = fact | {site.sid}
        return fact

    # -- kill classification ----------------------------------------------

    def _kills(self, stmt: ast.AST, site: _Site) -> bool:
        if self._releases(stmt, site):
            return True
        if site.var in _rebound_names(stmt):
            return True
        return self._escapes(stmt, site.var)

    def _releases(self, stmt: ast.AST, site: _Site) -> bool:
        for part in header_parts(stmt):
            for call in ast.walk(part):
                if not isinstance(call, ast.Call) or not isinstance(
                    call.func, ast.Attribute
                ):
                    continue
                attr = call.func.attr
                recv = _receiver_text(call.func.value)
                if site.kind == "slot":
                    if (
                        attr == "release"
                        and "ring" in recv.lower()
                        and _name_in_args(call, site.var)
                    ):
                        return True
                elif site.kind == "shm":
                    if attr in ("close", "unlink") and recv == site.var:
                        return True
                elif site.kind == "task":
                    if _TASK_CONTAINER_HINT in recv and (
                        attr == "clear"
                        or (
                            attr in ("discard", "remove")
                            and _name_in_args(call, site.var)
                        )
                    ):
                        return True
        return False

    def _escapes(self, stmt: ast.AST, var: str) -> bool:
        for part in header_parts(stmt):
            for node in ast.walk(part):
                if (
                    isinstance(node, ast.Name)
                    and node.id == var
                    and isinstance(node.ctx, ast.Load)
                    and self._occurrence_escapes(node, stmt)
                ):
                    return True
        return False

    def _occurrence_escapes(self, name: ast.Name, stmt: ast.AST) -> bool:
        child: ast.AST = name
        current = self._source.parent(name)
        while current is not None:
            if isinstance(current, ast.Call):
                # Receiver position (x.method(...)) is a read, not a
                # transfer; argument position hands ownership away.
                func = current.func
                if not (
                    isinstance(func, ast.Attribute)
                    and any(n is child for n in ast.walk(func))
                ):
                    return True
            if isinstance(
                current,
                (
                    ast.Return,
                    ast.Yield,
                    ast.YieldFrom,
                    ast.Tuple,
                    ast.List,
                    ast.Set,
                    ast.Dict,
                    ast.Starred,
                ),
            ):
                return True
            if (
                isinstance(current, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                and getattr(current, "value", None) is not None
                and any(n is name for n in ast.walk(current.value))
            ):
                return True
            if isinstance(current, ast.AugAssign) and any(
                n is name for n in ast.walk(current.value)
            ):
                return True
            if current is stmt or isinstance(current, ast.stmt):
                return False
            child = current
            current = self._source.parent(current)
        return False


def _rebound_names(stmt: ast.AST) -> frozenset[str]:
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        targets: list[ast.AST] = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars
            for item in stmt.items
            if item.optional_vars is not None
        ]
    else:
        targets = []
    for target in targets:
        for inner in ast.walk(target):
            if isinstance(inner, ast.Name):
                names.add(inner.id)
    return frozenset(names)


def _name_in_args(call: ast.Call, var: str) -> bool:
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        if isinstance(arg, ast.Name) and arg.id == var:
            return True
    return False


class FlowLifecycleRule:
    """REP007: no CFG path may exit with an unreleased resource."""

    code = "REP007"
    name = "flow-lifecycle"
    description = (
        "Must-release dataflow over every control-flow path: a ring "
        "slot, SharedMemory(create=True) handle, or gateway connection "
        "task that is still held when the function can exit — including "
        "early return/continue/break paths REP002's lexical check never "
        "sees — is a leak."
    )

    def check(self, source: ModuleSource) -> Iterator[Violation]:
        """Module sweep: nothing — this rule is purely flow-sensitive."""
        return iter(())

    def check_function(
        self, source: ModuleSource, func: FunctionNode, cfg: CFG
    ) -> Iterator[Violation]:
        """Yield a finding per acquisition that can reach exit held."""
        sites_by_block, immediate = _collect_sites(source, cfg)
        yield from immediate
        if not sites_by_block:
            return
        analysis = _MustRelease(source, sites_by_block)
        solution: Solution = solve(cfg, analysis)
        held = solution.entry(cfg.exit) or frozenset()
        for site in sites_by_block.values():
            if site.sid in held:
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=site.line,
                    col=site.col,
                    message=(
                        f"{site.what} assigned to '{site.var}' may leak: "
                        "a control-flow path reaches function exit with "
                        "the resource still held (early return/break/"
                        "raise without release)"
                    ),
                )
