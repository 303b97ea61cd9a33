"""REP001 — no floating point in bit-exact datapath modules.

The whole reproduction rests on the software model behaving like 2's-
complement hardware: the Haar IWT/IIWT lifting steps, NBits packing and
BRAM bit-accounting must be integer-exact, or every "bit-identical to
the register-level model" property in the test suite is luck rather
than construction.  A single float literal, true division, or
``np.float*`` dtype silently converts a path to IEEE-754 arithmetic —
the classic way a software "reference model" drifts from the RTL.

The rule flags, inside the configured bit-exact modules:

- float (and complex) literals;
- true division ``/`` and ``/=`` (``//`` floor division is the hardware
  shift-and-round idiom and stays legal);
- ``np.float16/32/64``, ``np.floating``, ``np.half/single/double`` and
  friends, and ``np.true_divide`` / ``np.divide``;
- the ``float`` builtin in runtime code (calls, ``astype(float)``,
  ``dtype=float``) — type annotations are exempt.

Reporting helpers that legitimately compute ratios (compression ratio,
ECC overhead percent) carry an explicit ``# reprolint: disable=REP001``
waiver, the software analogue of a reviewed timing exception.

The default scope covers the datapath models only: ``core/transform``,
``core/packing``, the protection codecs (``resilience/protection``: the
SECDED, parity and TMR words and the ``scaled_bits`` stored-size rule)
and the placement layer (``hardware/primitives``, the port-geometry
tables, and ``hardware/planner``, whose per-group capacities the engine
enforces at run time).  The estimator modules (``hardware/resources``,
``latency``, ``device``) model analog quantities — Fmax in MHz,
utilisation percentages, linear fits — and are deliberately outside the
bit-exact scope.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from ..framework import ModuleSource, Violation

#: Module prefixes whose arithmetic must stay integer-exact.  The
#: ``repro.core.packing`` prefix covers the compiled-tier wrappers in
#: ``repro.core.packing.native`` too; they are listed explicitly so the
#: scope survives a future split of the native tier out of the packing
#: package (the ctypes marshalling code is exactly where a stray
#: ``float()`` would silently corrupt the bit-exactness contract).
BIT_EXACT_MODULES: tuple[str, ...] = (
    "repro.core.transform",
    "repro.core.packing",
    "repro.core.packing.native",
    "repro.resilience.protection",
    "repro.hardware.primitives",
    "repro.hardware.planner",
)

#: ``np.<attr>`` names that introduce floating-point dtypes or division.
_FLOAT_NUMPY_ATTRS = frozenset(
    {
        "float16",
        "float32",
        "float64",
        "float128",
        "floating",
        "half",
        "single",
        "double",
        "longdouble",
        "true_divide",
        "divide",
    }
)


def _in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


def _annotation_nodes(tree: ast.Module) -> set[int]:
    """ids of every node inside a type annotation (exempt from REP001)."""
    roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                roots.append(node.returns)
            all_args = [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
            if node.args.vararg is not None:
                all_args.append(node.args.vararg)
            if node.args.kwarg is not None:
                all_args.append(node.args.kwarg)
            roots.extend(
                a.annotation for a in all_args if a.annotation is not None
            )
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {
        id(inner) for root in roots for inner in ast.walk(root)
    }


class BitExactRule:
    """REP001: bit-exact modules stay in pure integer arithmetic."""

    code = "REP001"
    name = "bit-exact-integers"
    description = (
        "Bit-exact datapath modules (core/transform, core/packing, the "
        "register-level hardware blocks) must not use float literals, true "
        "division, the float builtin, or np.float* dtypes; the model must "
        "behave like 2's-complement hardware."
    )

    def __init__(self, modules: Sequence[str] = BIT_EXACT_MODULES) -> None:
        self.modules = tuple(modules)

    def check(self, source: ModuleSource) -> Iterator[Violation]:
        """Yield every floating-point leak in a bit-exact module."""
        if not _in_scope(source.module, self.modules):
            return
        exempt = _annotation_nodes(source.tree)
        for node in ast.walk(source.tree):
            if id(node) in exempt:
                continue
            hit = self._describe(node)
            if hit is not None:
                yield Violation(
                    rule=self.code,
                    path=source.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=f"{hit} in bit-exact module {source.module}",
                )

    @staticmethod
    def _describe(node: ast.AST) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division '/' (use '//' floor division)"
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            return "true division '/=' (use '//=' floor division)"
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _FLOAT_NUMPY_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            return f"floating-point numpy name np.{node.attr}"
        if (
            isinstance(node, ast.Name)
            and node.id == "float"
            and isinstance(node.ctx, ast.Load)
        ):
            return "the float builtin"
        return None
