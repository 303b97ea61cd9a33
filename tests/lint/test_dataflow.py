"""Tests for the worklist solver and stock analyses (:mod:`repro.lint.dataflow`).

Covers the forward solver's plumbing (exceptional edges) through the
interval abstract interpretation — including widening termination on a
counting loop.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.cfg import build_cfg, iter_functions
from repro.lint.dataflow import (
    TOP,
    Interval,
    IntervalAnalysis,
    binop_interval,
    eval_interval,
    interval_environments,
    range_interval,
    solve,
    transfer_node,
)


def _cfg(source: str):
    tree = ast.parse(textwrap.dedent(source))
    func = next(iter_functions(tree))
    return build_cfg(func)


def _env_at_exit(source: str) -> dict[str, Interval]:
    """The joined interval environment on entry to the exit block."""
    cfg = _cfg(source)
    solution = solve(cfg, IntervalAnalysis())
    return solution.entry(cfg.exit) or {}


class TestIntervalPrimitives:
    def test_constant_and_name(self):
        env = {"x": Interval(2, 5)}
        assert eval_interval(ast.parse("7", mode="eval").body, env) == Interval(7, 7)
        assert eval_interval(ast.parse("x", mode="eval").body, env) == Interval(2, 5)
        assert eval_interval(ast.parse("y", mode="eval").body, env) == TOP

    def test_arithmetic_combinations(self):
        a, b = Interval(1, 3), Interval(10, 20)
        assert binop_interval(ast.Add(), a, b) == Interval(11, 23)
        assert binop_interval(ast.Sub(), b, a) == Interval(7, 19)
        assert binop_interval(ast.Mult(), a, b) == Interval(10, 60)

    def test_shift_is_exact_at_the_int64_boundary(self):
        one = Interval(1, 1)
        sixty_three = Interval(63, 63)
        out = binop_interval(ast.LShift(), one, sixty_three)
        # Must be the exact integer 2**63, not a rounded float.
        assert out.lo == 2**63 and out.hi == 2**63

    def test_mod_with_positive_divisor(self):
        out = binop_interval(
            ast.Mod(), Interval(-100, 100), Interval(8, 8)
        )
        assert out == Interval(0, 7)

    def test_unary_invert_matches_python(self):
        env = {"x": Interval(0, 7)}
        out = eval_interval(ast.parse("~x", mode="eval").body, env)
        assert out == Interval(-8, -1)

    def test_abs_and_min_max_calls(self):
        env = {"x": Interval(-5, 3)}
        assert eval_interval(
            ast.parse("abs(x)", mode="eval").body, env
        ) == Interval(0, 5)
        assert eval_interval(
            ast.parse("min(x, 2)", mode="eval").body, env
        ) == Interval(-5, 2)

    def test_range_interval_bounds_the_target(self):
        call = ast.parse("range(3, 10)", mode="eval").body
        assert range_interval(call, {}) == Interval(3, 9)
        call = ast.parse("range(n)", mode="eval").body
        assert range_interval(call, {"n": Interval(0, 4)}) == Interval(0, 3)

    def test_range_with_unknown_step_defeated(self):
        call = ast.parse("range(0, 10, s)", mode="eval").body
        assert range_interval(call, {}) is None


class TestIntervalAnalysis:
    def test_straight_line_propagation(self):
        env = _env_at_exit(
            """
            def f():
                x = 4
                y = x * 3
                return y
            """
        )
        assert env["y"] == Interval(12, 12)

    def test_branch_hull(self):
        env = _env_at_exit(
            """
            def f(cond):
                if cond:
                    x = 1
                else:
                    x = 10
                return x
            """
        )
        assert env["x"] == Interval(1, 10)

    def test_for_range_target_bounded(self):
        env = _env_at_exit(
            """
            def f():
                last = 0
                for i in range(10):
                    last = i
                return last
            """
        )
        assert env["last"].lo == 0
        assert env["last"].hi <= 9

    def test_widening_terminates_counting_loop(self):
        # Without widening this loop's interval grows forever; the solver
        # must converge and report an unbounded-above interval.
        env = _env_at_exit(
            """
            def f(n):
                total = 0
                i = 0
                while i < n:
                    total = total + 2
                    i = i + 1
                return total
            """
        )
        total = env.get("total", TOP)
        assert total.lo == 0
        assert total.hi == float("inf")

    def test_aug_assign_transfer(self):
        env: dict[str, Interval] = {"x": Interval(1, 2)}
        node = ast.parse("x += 5").body[0]
        transfer_node(node, env)
        assert env["x"] == Interval(6, 7)

    def test_tuple_unpack_assignment(self):
        env: dict[str, Interval] = {}
        node = ast.parse("a, b = 1, 2").body[0]
        transfer_node(node, env)
        assert env["a"] == Interval(1, 1)
        assert env["b"] == Interval(2, 2)

    def test_unknown_assignment_clears_binding(self):
        env: dict[str, Interval] = {"x": Interval(0, 1)}
        node = ast.parse("x = mystery()").body[0]
        transfer_node(node, env)
        assert "x" not in env

    def test_interval_environments_covers_reachable_blocks(self):
        cfg = _cfg(
            """
            def f():
                x = 2
                y = x + 1
                return y
            """
        )
        envs = dict(
            (block.id, env) for block, env in interval_environments(cfg)
        )
        assert cfg.entry.id in envs
        assert cfg.exit.id in envs
        assert envs[cfg.exit.id]["y"] == Interval(3, 3)

    def test_exceptional_edge_uses_entry_fact(self):
        # If the acquire-line raises, the env on the handler path must be
        # the PRE-statement env: x keeps its old interval, not the new one.
        env = _env_at_exit(
            """
            def f():
                x = 1
                try:
                    x = mystery()
                except ValueError:
                    pass
                return x
            """
        )
        # Post-try x is TOP on the clean path (mystery() unknown) joined
        # with [1,1] on the exception path -> dropped from the env.
        assert env.get("x", TOP) == TOP
