"""REP008 — types crossing the process boundary stay frozen + picklable.

The streaming runtime sends :class:`FrameTask` down each worker's pipe
and receives :class:`FrameResult` / :class:`FrameError` back, and the
sweep pools send :class:`MapChunk` and receive :class:`MapDone` (nothing
else crosses a worker pipe: a worker stops when its pipe closes); engine
configuration crosses as pickled :class:`EngineSpec` blobs (which embed
:class:`ArchitectureConfig`, :class:`WindowKernel`, :class:`ChaosSpec`
and the memory plan, a :class:`PlacementPlan` with its placement and
primitive types).  Two properties make that safe and must hold *by
declaration*, not by luck:

- **Immutability** — a worker and the driver each hold a copy; a
  mutable field (dict, list, set) invites the classic "mutated my copy,
  expected yours" bug and breaks the engine-cache keying, which assumes
  the blob is a value.
- **Stdlib picklability** — a lambda default or a ``Callable`` field
  pickles locally (tests pass!) and then dies inside a spawn-method
  worker on another platform.

The rule checks every registered IPC class declaration:

- the class must be declared ``@dataclass(frozen=True)``;
- every field annotation must be built from the immutable-picklable
  grammar: scalars (``int``/``float``/``bool``/``str``/``bytes``/
  ``None``), ``tuple[...]``/``frozenset[...]``, ``Optional``/``Union``/
  ``|``/``Literal`` combinations thereof, and other registered frozen
  repro types (``WindowKernel`` is allow-listed: every built-in kernel
  is a frozen registered pickle-by-name type);
- no mutable default (``[]``, ``{}``, ``set()``), no
  ``field(default_factory=dict/list/set)``, and no lambda anywhere in a
  default.

Fields that knowingly carry a mutable payload (e.g. a stats dict that
is created worker-side and never shared) carry an explicit reviewed
``# reprolint: disable=REP008`` waiver, same as REP001 ratios.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import Sequence

from ..framework import ModuleSource, Violation

#: The memory plan an ``EngineSpec`` carries, and the types it is made of.
_PLAN_TYPES: frozenset[str] = frozenset(
    {"PlacementPlan", "PayloadPlacement", "Placement", "FifoSpec", "Portfolio"}
    | {"MemoryPrimitive", "PortConfig"}
)

#: Class names whose instances cross the process boundary.
IPC_CLASSES: frozenset[str] = frozenset(
    {
        "EngineSpec",
        "FrameTask",
        "FrameResult",
        "FrameError",
        "ChaosSpec",
        "RingSpec",
        "MapChunk",
        "MapDone",
    }
) | _PLAN_TYPES

#: Annotation leaves accepted as immutable + stdlib-picklable.  The
#: repro types listed are themselves REP008-checked frozen dataclasses
#: (or, for WindowKernel, a frozen pickle-by-name registry type).
_SAFE_LEAVES: frozenset[str] = frozenset(
    {
        "int",
        "float",
        "bool",
        "str",
        "bytes",
        "None",
        "NoneType",
        "ArchitectureConfig",
        "WindowKernel",
        "EngineSpec",
        "ChaosSpec",
        "RingSpec",
        "FrameTask",
        "FrameResult",
        "FrameError",
    }
) | _PLAN_TYPES

#: Subscripted containers accepted when their parameters are safe.
_SAFE_CONTAINERS: frozenset[str] = frozenset(
    {"tuple", "frozenset", "Tuple", "FrozenSet", "Optional", "Union", "Literal"}
)

_MUTABLE_FACTORIES: frozenset[str] = frozenset(
    {"dict", "list", "set", "bytearray", "Counter", "defaultdict"}
)


def _leaf_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant):
        if node.value is None:
            return "None"
        if isinstance(node.value, str):
            return node.value  # string forward reference
    return None


def _annotation_offenders(node: ast.AST) -> Iterator[str]:
    """Yield the unsafe parts of one annotation expression."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        yield from _annotation_offenders(node.left)
        yield from _annotation_offenders(node.right)
        return
    if isinstance(node, ast.Subscript):
        head = _leaf_name(node.value)
        if head not in _SAFE_CONTAINERS:
            yield head or ast.unparse(node.value)
            return
        if head == "Literal":
            return  # literal parameters are constants by definition
        inner = node.slice
        elements = (
            inner.elts if isinstance(inner, ast.Tuple) else [inner]
        )
        for element in elements:
            if isinstance(element, ast.Constant) and element.value is Ellipsis:
                continue
            yield from _annotation_offenders(element)
        return
    name = _leaf_name(node)
    if name is None:
        yield ast.unparse(node)
        return
    if name in _SAFE_LEAVES:
        return
    # Bare tuple/frozenset (unparameterised) are still immutable.
    if name in ("tuple", "frozenset", "Tuple", "FrozenSet"):
        return
    yield name


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = _leaf_name(deco.func)
        if name != "dataclass":
            continue
        return any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in deco.keywords
        )
    return False


def _default_offence(value: ast.AST) -> str | None:
    for inner in ast.walk(value):
        if isinstance(inner, ast.Lambda):
            return "lambda default (unpicklable under spawn)"
        if isinstance(inner, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return "mutable literal default"
    if isinstance(value, ast.Call):
        name = _leaf_name(value.func)
        if name == "field":
            for kw in value.keywords:
                if kw.arg == "default_factory":
                    factory = _leaf_name(kw.value)
                    if factory in _MUTABLE_FACTORIES:
                        return (
                            f"field(default_factory={factory}) — a mutable "
                            "per-instance container"
                        )
        elif name in _MUTABLE_FACTORIES:
            return f"mutable default {name}()"
    return None


class IpcSafetyRule:
    """REP008: IPC dataclasses are frozen, immutable, stdlib-picklable."""

    code = "REP008"
    name = "ipc-safety"
    description = (
        "Types crossing the process boundary (EngineSpec, FrameTask/"
        "FrameResult/FrameError, MapChunk/MapDone, ChaosSpec, RingSpec) "
        "must be frozen "
        "dataclasses whose fields are transitively immutable and "
        "stdlib-picklable: no dict/list/set annotations, no mutable or "
        "lambda defaults."
    )

    def __init__(self, classes: Sequence[str] | None = None) -> None:
        self.classes = frozenset(classes) if classes is not None else IPC_CLASSES

    def check(self, source: ModuleSource) -> Iterator[Violation]:
        """Yield every IPC-safety breach in registered class bodies."""
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in self.classes:
                continue
            if not _is_frozen_dataclass(node):
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"IPC type {node.name} must be declared "
                        "@dataclass(frozen=True): both sides of the "
                        "process boundary hold copies"
                    ),
                )
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                field_name = stmt.target.id
                if field_name.startswith("_"):
                    continue
                for offender in _annotation_offenders(stmt.annotation):
                    yield Violation(
                        rule=self.code,
                        path=source.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"IPC field {node.name}.{field_name} uses "
                            f"'{offender}' in its annotation: not provably "
                            "immutable + picklable (use tuple/frozenset/"
                            "scalars or a registered frozen type)"
                        ),
                    )
                if stmt.value is not None:
                    offence = _default_offence(stmt.value)
                    if offence is not None:
                        yield Violation(
                            rule=self.code,
                            path=source.path,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            message=(
                                f"IPC field {node.name}.{field_name} has a "
                                f"{offence}"
                            ),
                        )
