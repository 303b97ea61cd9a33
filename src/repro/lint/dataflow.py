"""Worklist dataflow over :mod:`repro.lint.cfg` graphs.

One generic forward fixpoint solver (:func:`solve`), which runs REP007's
must-release analysis, plus :class:`IntervalAnalysis`, the analysis
REP006 is built on: a path-insensitive value-range abstract
interpretation over the integers, with widening at loop heads, so a
rule can ask "what is the provable bound of this expression here".

Facts use ``None`` as the bottom element (unreachable / not yet
computed); every analysis' ``join`` must treat ``None`` as the identity.
Edges whose kind is in :data:`~repro.lint.cfg.EXCEPTIONAL_KINDS`
propagate the source block's *entry* fact — the statement may have
raised before any of its effects happened (see the cfg module docs).
"""

from __future__ import annotations

import ast
import math
from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Any, Protocol

from .cfg import CFG, EXCEPTIONAL_KINDS, Block, FunctionNode, header_parts

#: Joins a block's input may absorb before :meth:`Analysis.widen` is
#: applied (keeps infinite-height lattices, i.e. intervals, terminating).
WIDEN_AFTER = 8


class Analysis(Protocol):
    """What the solver needs from a forward dataflow analysis."""

    def boundary(self, cfg: CFG) -> Any:
        """Fact at the entry block."""
        ...  # pragma: no cover - protocol body

    def join(self, a: Any, b: Any) -> Any:
        """Least upper bound; must treat ``None`` (bottom) as identity."""
        ...  # pragma: no cover - protocol body

    def transfer(self, block: Block, fact: Any) -> Any:
        """Fact after executing ``block``."""
        ...  # pragma: no cover - protocol body

    def widen(self, old: Any, new: Any) -> Any:
        """Accelerate convergence (default: return ``new``)."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True, slots=True)
class Solution:
    """Per-block input/output facts of a solved analysis."""

    inputs: dict[int, Any]
    outputs: dict[int, Any]

    def entry(self, block: Block) -> Any:
        """Fact on entry to ``block`` (``None`` when unreachable)."""
        return self.inputs.get(block.id)

    def exit(self, block: Block) -> Any:
        """Fact on exit from ``block``."""
        return self.outputs.get(block.id)


def solve(cfg: CFG, analysis: Analysis) -> Solution:
    """Run ``analysis`` forward to fixpoint over ``cfg`` (standard worklist)."""
    by_id = {b.id: b for b in cfg.blocks}
    inputs: dict[int, Any] = {}
    outputs: dict[int, Any] = {}
    entry = cfg.entry
    inputs[entry.id] = analysis.boundary(cfg)
    outputs[entry.id] = analysis.transfer(entry, inputs[entry.id])
    joins: dict[int, int] = {}
    work = deque(cfg.blocks)
    while work:
        block = work.popleft()
        if block is not entry:
            fact: Any = None
            for edge in block.pred:
                src = by_id[edge.src]
                incoming = (
                    inputs.get(src.id)
                    if edge.kind in EXCEPTIONAL_KINDS
                    else outputs.get(src.id)
                )
                fact = analysis.join(fact, incoming)
            if fact is None:
                continue  # still unreachable
            old = inputs.get(block.id)
            if old is not None and fact != old:
                joins[block.id] = joins.get(block.id, 0) + 1
                if joins[block.id] > WIDEN_AFTER:
                    fact = analysis.widen(old, fact)
            if old is not None and fact == old:
                continue
            inputs[block.id] = fact
        out = analysis.transfer(block, inputs[block.id])
        if outputs.get(block.id) == out and block is not entry:
            continue
        outputs[block.id] = out
        for nid in {e.dst for e in block.succ}:
            work.append(by_id[nid])
    return Solution(inputs=inputs, outputs=outputs)


# -- name helpers ----------------------------------------------------------


def assigned_names(node: ast.AST) -> Iterator[str]:
    """Names a statement/header binds (stores), walrus targets included."""
    targets: list[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        targets = [node.target]
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        targets = [
            item.optional_vars
            for item in node.items
            if item.optional_vars is not None
        ]
    for target in targets:
        for inner in ast.walk(target):
            if isinstance(inner, ast.Name):
                yield inner.id
    for part in header_parts(node):
        for inner in ast.walk(part):
            if isinstance(inner, ast.NamedExpr) and isinstance(
                inner.target, ast.Name
            ):
                yield inner.target.id


# -- interval abstract interpretation --------------------------------------

_INF = math.inf


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed integer interval; ``±math.inf`` bounds mean unbounded."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:  # pragma: no cover - guarded by constructors
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def finite(self) -> bool:
        """True when both bounds are concrete integers."""
        return self.lo > -_INF and self.hi < _INF

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (the lattice join)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


TOP = Interval(-_INF, _INF)
_NON_NEGATIVE = Interval(0, _INF)
_BOOL = Interval(0, 1)

#: Abstract environment: name -> interval.  Missing names are TOP, so
#: the mapping only carries what the analysis actually knows.
Env = Mapping[str, Interval]


def _mul_bound(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0  # avoids 0 * inf = nan
    return a * b


def _pow2(exp: float) -> float:
    if exp >= 4096:  # astronomically large shifts: treat as unbounded
        return _INF
    # Exact int arithmetic: float would lose precision right at the
    # int64 boundary REP006 compares against.
    return 2 ** int(exp) if exp == int(exp) else _INF


def _combos(a: Interval, b: Interval, op: Any) -> Interval:
    values = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(values), max(values))


def _shift_left(value: float, amount: float) -> float:
    if value in (-_INF, _INF):
        return value
    return _mul_bound(value, _pow2(max(amount, 0)))


def _shift_right(value: float, amount: float) -> float:
    if value in (-_INF, _INF) or amount == _INF:
        if value >= 0 and amount == _INF:
            return 0
        if value < 0 and amount == _INF:
            return -1
        return value
    divisor = _pow2(max(amount, 0))
    if divisor == _INF:
        return 0 if value >= 0 else -1
    return math.floor(value / divisor)


def binop_interval(op: ast.operator, a: Interval, b: Interval) -> Interval:
    """The interval of ``a <op> b`` (TOP when nothing is provable)."""
    if isinstance(op, ast.Add):
        return Interval(a.lo + b.lo, a.hi + b.hi)
    if isinstance(op, ast.Sub):
        return Interval(a.lo - b.hi, a.hi - b.lo)
    if isinstance(op, ast.Mult):
        return _combos(a, b, _mul_bound)
    if isinstance(op, ast.FloorDiv):
        if b.lo >= 1 or b.hi <= -1:  # divisor provably nonzero
            return _combos(
                a, b, lambda x, y: _shift_right(x, 0) if y in (-_INF, _INF)
                else math.floor(x / y) if x not in (-_INF, _INF)
                else x * (1 if y > 0 else -1)
            )
        return TOP
    if isinstance(op, ast.Mod):
        if b.lo >= 1 and b.hi < _INF:
            return Interval(0, b.hi - 1)
        return TOP
    if isinstance(op, ast.LShift):
        if b.lo < 0:
            return TOP
        return _combos(a, b, _shift_left)
    if isinstance(op, ast.RShift):
        if b.lo < 0:
            return TOP
        return _combos(a, b, _shift_right)
    if isinstance(op, ast.Pow):
        if (
            a.finite
            and b.finite
            and b.lo >= 0
            and b.hi <= 256
        ):
            values = [
                x ** int(y)
                for x in (a.lo, a.hi)
                for y in (b.lo, b.hi)
            ] + ([0] if a.lo <= 0 <= a.hi else [])
            return Interval(min(values), max(values))
        return TOP
    if isinstance(op, ast.BitAnd):
        if a.lo >= 0 and b.lo >= 0:
            return Interval(0, min(a.hi, b.hi))
        return TOP
    if isinstance(op, (ast.BitOr, ast.BitXor)):
        if a.lo >= 0 and b.lo >= 0 and a.hi < _INF and b.hi < _INF:
            bits = max(int(a.hi), int(b.hi)).bit_length()
            return Interval(0, 2**bits - 1)
        return TOP
    return TOP


def eval_interval(expr: ast.AST, env: Env) -> Interval:
    """Conservative interval of ``expr`` under ``env`` (TOP = unknown)."""
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool):
            return Interval(int(expr.value), int(expr.value))
        if isinstance(expr.value, int):
            return Interval(expr.value, expr.value)
        return TOP
    if isinstance(expr, ast.Name):
        return env.get(expr.id, TOP)
    if isinstance(expr, ast.NamedExpr):
        return eval_interval(expr.value, env)
    if isinstance(expr, ast.BinOp):
        return binop_interval(
            expr.op,
            eval_interval(expr.left, env),
            eval_interval(expr.right, env),
        )
    if isinstance(expr, ast.UnaryOp):
        inner = eval_interval(expr.operand, env)
        if isinstance(expr.op, ast.USub):
            return Interval(-inner.hi, -inner.lo)
        if isinstance(expr.op, ast.UAdd):
            return inner
        if isinstance(expr.op, ast.Invert):  # ~x == -x - 1
            return Interval(-inner.hi - 1, -inner.lo - 1)
        if isinstance(expr.op, ast.Not):
            return _BOOL
        return TOP
    if isinstance(expr, ast.IfExp):
        return eval_interval(expr.body, env).hull(
            eval_interval(expr.orelse, env)
        )
    if isinstance(expr, (ast.Compare,)):
        return _BOOL
    if isinstance(expr, ast.BoolOp):
        result = eval_interval(expr.values[0], env)
        for value in expr.values[1:]:
            result = result.hull(eval_interval(value, env))
        return result
    if isinstance(expr, ast.Call):
        return _call_interval(expr, env)
    return TOP


def _call_interval(call: ast.Call, env: Env) -> Interval:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else None
    args = [eval_interval(a, env) for a in call.args]
    if name == "len":
        return _NON_NEGATIVE
    if name == "abs" and len(args) == 1:
        inner = args[0]
        bound = max(abs(inner.lo), abs(inner.hi))
        return Interval(0, bound)
    if name == "int" and len(args) == 1:
        return args[0]
    if name == "min" and args:
        return Interval(min(a.lo for a in args), min(a.hi for a in args))
    if name == "max" and args:
        return Interval(max(a.lo for a in args), max(a.hi for a in args))
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "bit_length"
        and not call.args
    ):
        return _NON_NEGATIVE
    return TOP


def range_interval(call: ast.Call, env: Env) -> Interval | None:
    """The interval of a ``for`` target iterating ``range(...)``."""
    if not (
        isinstance(call.func, ast.Name)
        and call.func.id == "range"
        and not call.keywords
        and 1 <= len(call.args) <= 3
    ):
        return None
    bounds = [eval_interval(a, env) for a in call.args]
    if len(bounds) == 1:
        start, stop = Interval(0, 0), bounds[0]
    else:
        start, stop = bounds[0], bounds[1]
    if len(bounds) == 3 and bounds[2].lo < 1:
        return None  # a possibly non-positive step defeats the bound
    lo = min(start.lo, stop.lo)
    hi = max(start.hi, stop.hi - 1)
    if lo > hi:
        return Interval(lo, lo)
    return Interval(lo, hi)


class IntervalAnalysis:
    """Forward abstract interpretation over integer intervals."""

    def boundary(self, cfg: CFG) -> dict[str, Interval]:
        """Nothing is known about any name at entry (all TOP)."""
        return {}

    def join(
        self, a: dict[str, Interval] | None, b: dict[str, Interval] | None
    ) -> dict[str, Interval] | None:
        """Per-name hull over the common keys (missing/TOP drop out)."""
        if a is None:
            return b
        if b is None:
            return a
        return {
            name: a[name].hull(b[name])
            for name in a.keys() & b.keys()
            if a[name].hull(b[name]) != TOP
        }

    def transfer(
        self, block: Block, fact: dict[str, Interval] | None
    ) -> dict[str, Interval] | None:
        """Replay each statement's effect on a copy of the environment."""
        if fact is None:
            return None
        env = dict(fact)
        for node in block.nodes:
            transfer_node(node, env)
        return env

    def widen(
        self, old: dict[str, Interval], new: dict[str, Interval]
    ) -> dict[str, Interval]:
        """Keep stable bounds, jump moving ones to ±inf (termination)."""
        widened: dict[str, Interval] = {}
        for name, interval in new.items():
            prior = old.get(name)
            if prior is None or prior == interval:
                widened[name] = interval
                continue
            lo = interval.lo if interval.lo == prior.lo else -_INF
            hi = interval.hi if interval.hi == prior.hi else _INF
            if (lo, hi) != (-_INF, _INF):
                widened[name] = Interval(lo, hi)
        return widened


def transfer_node(node: ast.AST, env: dict[str, Interval]) -> None:
    """Apply one statement/header's effect to a mutable interval env."""
    if isinstance(node, ast.Assign):
        value = eval_interval(node.value, env)
        for target in node.targets:
            _assign_target(target, node.value, value, env)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        _assign_target(
            node.target, node.value, eval_interval(node.value, env), env
        )
    elif isinstance(node, ast.AugAssign):
        if isinstance(node.target, ast.Name):
            current = env.get(node.target.id, TOP)
            result = binop_interval(
                node.op, current, eval_interval(node.value, env)
            )
            _set(env, node.target.id, result)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        bound = (
            range_interval(node.iter, env)
            if isinstance(node.iter, ast.Call)
            else None
        )
        for inner in ast.walk(node.target):
            if isinstance(inner, ast.Name):
                _set(
                    env,
                    inner.id,
                    bound
                    if bound is not None and isinstance(node.target, ast.Name)
                    else TOP,
                )
    else:
        for name in assigned_names(node):
            env.pop(name, None)
    # Walrus assignments anywhere in the evaluated parts.
    for part in header_parts(node):
        for inner in ast.walk(part):
            if isinstance(inner, ast.NamedExpr) and isinstance(
                inner.target, ast.Name
            ):
                _set(env, inner.target.id, eval_interval(inner.value, env))


def _assign_target(
    target: ast.AST,
    value_expr: ast.AST,
    value: Interval,
    env: dict[str, Interval],
) -> None:
    if isinstance(target, ast.Name):
        _set(env, target.id, value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        elements = (
            value_expr.elts
            if isinstance(value_expr, (ast.Tuple, ast.List))
            and len(value_expr.elts) == len(target.elts)
            else None
        )
        for i, sub in enumerate(target.elts):
            if elements is not None:
                _assign_target(
                    sub, elements[i], eval_interval(elements[i], env), env
                )
            else:
                for inner in ast.walk(sub):
                    if isinstance(inner, ast.Name):
                        env.pop(inner.id, None)


def _set(env: dict[str, Interval], name: str, value: Interval) -> None:
    if value == TOP:
        env.pop(name, None)
    else:
        env[name] = value


def interval_environments(
    cfg: CFG,
) -> Iterator[tuple[Block, dict[str, Interval]]]:
    """Each reachable block with its solved entry environment.

    The convenience loop REP006 uses: replay :func:`transfer_node` over
    ``block.nodes`` to get the exact environment at every sub-statement.
    """
    solution = solve(cfg, IntervalAnalysis())
    reachable = cfg.reachable()
    for block in cfg.blocks:
        if block.id not in reachable:
            continue
        env = solution.entry(block)
        if env is None:
            continue
        yield block, dict(env)


__all__ = [
    "Analysis",
    "Env",
    "Interval",
    "IntervalAnalysis",
    "Solution",
    "TOP",
    "WIDEN_AFTER",
    "assigned_names",
    "binop_interval",
    "eval_interval",
    "interval_environments",
    "range_interval",
    "solve",
    "transfer_node",
]
