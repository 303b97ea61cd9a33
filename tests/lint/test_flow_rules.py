"""Golden fixtures for the flow-sensitive rules (REP006–REP009).

Every rule gets at least one passing and one failing fixture.  The
centrepiece is the REP007 early-return slot leak: the acquire is
immediately followed by a try with a handler, which looks protected,
but one control-flow path still exits the function holding the slot.
"""

from __future__ import annotations

import textwrap

from pathlib import Path

from repro.lint import ModuleSource, analyze_module
from repro.lint.rules import (
    FlowLifecycleRule,
    IntWidthRule,
    IpcSafetyRule,
    SchemaDriftRule,
)

BIT_EXACT = "repro.core.transform.fake"
NATIVE = "repro.core.packing.native.fake"


def _violations(rule, text: str, module: str = ""):
    source = ModuleSource.from_source(
        textwrap.dedent(text), module=module
    )
    return list(analyze_module(source, [rule]).violations)


class TestRep006IntWidth:
    def test_provable_overflow_flagged(self):
        found = _violations(
            IntWidthRule(),
            """
            def widen(depth):
                base = 1 << 62
                total = base * 4
                return total
            """,
            BIT_EXACT,
        )
        assert [v.rule for v in found] == ["REP006"]
        assert "int64 overflow" in found[0].message

    def test_bounded_arithmetic_clean(self):
        found = _violations(
            IntWidthRule(),
            """
            def widen(depth):
                base = 1 << 30
                total = base * 4
                for i in range(1024):
                    total = total + i
                return total
            """,
            BIT_EXACT,
        )
        assert found == []

    def test_unknown_ranges_never_flagged(self):
        # TOP intervals must not produce findings: the rule reports
        # provable overflow only, not possibilities.
        found = _violations(
            IntWidthRule(),
            """
            def combine(a, b):
                return a * b + (a << b)
            """,
            BIT_EXACT,
        )
        assert found == []

    def test_augassign_overflow_flagged(self):
        found = _violations(
            IntWidthRule(),
            """
            def accumulate():
                total = 2 ** 62
                total *= 8
                return total
            """,
            BIT_EXACT,
        )
        assert any("provably reaches" in v.message for v in found)

    def test_out_of_scope_module_exempt(self):
        found = _violations(
            IntWidthRule(),
            """
            def widen(depth):
                return (1 << 62) * 4
            """,
            "repro.analysis.report",
        )
        assert found == []

    def test_unpinned_ctypes_flagged_in_native(self):
        found = _violations(
            IntWidthRule(),
            """
            import ctypes
            ROWS_T = ctypes.c_long
            """,
            NATIVE,
        )
        assert found and "host-width ctypes type 'c_long'" in found[0].message

    def test_unpinned_ctypes_bare_import_flagged(self):
        found = _violations(
            IntWidthRule(),
            """
            from ctypes import c_int
            WIDTH_T = c_int
            """,
            NATIVE,
        )
        assert any("'c_int'" in v.message for v in found)

    def test_sized_ctypes_clean(self):
        found = _violations(
            IntWidthRule(),
            """
            import ctypes
            ROWS_T = ctypes.c_int64
            BYTES_T = ctypes.POINTER(ctypes.c_uint8)
            """,
            NATIVE,
        )
        assert found == []

    def test_ctypes_check_scoped_to_native_tier(self):
        # Outside core/packing/native the ABI-pinning sweep stays quiet
        # (e.g. an unrelated module legitimately using c_double).
        found = _violations(
            IntWidthRule(),
            "import ctypes\nT = ctypes.c_double\n",
            "repro.analysis.report",
        )
        assert found == []


class TestRep007FlowLifecycle:
    # The acceptance fixture: the acquire is immediately followed by a
    # try with a handler, but the early `return None` inside the try
    # exits with the slot still held.
    EARLY_RETURN_LEAK = """
    def frame(ring, fast_path, process):
        slot = ring.acquire()
        try:
            if fast_path():
                return None
            process(slot)
        except ValueError:
            ring.release(slot)
            raise
        ring.release(slot)
        return None
    """

    def test_early_return_leak_caught_by_rep007(self):
        found = _violations(FlowLifecycleRule(), self.EARLY_RETURN_LEAK)
        assert [v.rule for v in found] == ["REP007"]
        assert "may leak" in found[0].message
        assert "'slot'" in found[0].message

    def test_try_finally_release_clean(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            def frame(ring, fast_path, process):
                slot = ring.acquire()
                try:
                    if fast_path():
                        return None
                    process(slot)
                finally:
                    ring.release(slot)
            """,
        )
        assert found == []

    def test_discarded_acquire_is_unconditional_leak(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            def poke(ring):
                ring.acquire()
            """,
        )
        assert found and "discarded" in found[0].message

    def test_with_statement_clean(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            def frame(ring, process):
                with ring.acquire() as slot:
                    process(slot)
            """,
        )
        assert found == []

    def test_escape_to_new_owner_stops_tracking(self):
        # Storing the slot on another owner transfers responsibility;
        # the rule must not flag what it can no longer prove.
        found = _violations(
            FlowLifecycleRule(),
            """
            def frame(ring, sink):
                slot = ring.acquire()
                sink.pending = slot
                return None
            """,
        )
        assert found == []

    def test_escape_to_callee_still_leaks_on_raise_path(self):
        # Passing the slot to a callee transfers ownership on the clean
        # path, but the call itself may raise before the callee takes
        # over — that exception path still exits holding the slot.
        found = _violations(
            FlowLifecycleRule(),
            """
            def frame(ring, sink):
                slot = ring.acquire()
                sink.consume(slot)
                return None
            """,
        )
        assert found and "may leak" in found[0].message

    def test_shared_memory_leak_on_exception_path(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name, publish):
                shm = SharedMemory(name, create=True)
                publish(name)
                return None
            """,
        )
        assert found and "SharedMemory(create=True)" in found[0].message

    def test_shared_memory_closed_on_all_paths_clean(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name, publish):
                shm = SharedMemory(name, create=True)
                try:
                    publish(name)
                finally:
                    shm.close()
                    shm.unlink()
            """,
        )
        assert found == []

    def test_frame_ring_init_protects_its_segment(self):
        ring = Path(__file__).parents[2] / "src/repro/runtime/ring.py"
        found = _violations(
            FlowLifecycleRule(), ring.read_text(), "repro.runtime.ring"
        )
        assert found == []

    def test_attribute_slot_released_by_ring(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            class Holder:
                def __init__(self, ring):
                    self._slot = ring.acquire()
                    try:
                        prepare(self._slot)
                    except BaseException:
                        ring.release(self._slot)
                        raise
            """,
        )
        assert found == []

    def test_attribute_handed_to_object_on_return(self):
        # Nothing after the store can raise: a normal return is the
        # only exit, and it hands the segment to the new object.
        found = _violations(
            FlowLifecycleRule(),
            """
            class Ring:
                def __init__(self, size):
                    self._shm = SharedMemory(create=True, size=size)
                    self.size = size
            """,
        )
        assert found == []

    def test_attribute_store_outside_init_escapes(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            class Ring:
                def reopen(self, size):
                    self._shm = SharedMemory(create=True, size=size)
                    self.spec = describe(self._shm.name)
            """,
        )
        assert found == []

    def test_conn_task_leak_without_discard(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            async def handle(conn_tasks, current_task, serve):
                task = current_task()
                conn_tasks.add(task)
                await serve()
            """,
        )
        assert found and "conn_tasks.add()" in found[0].message

    def test_conn_task_discard_in_finally_clean(self):
        found = _violations(
            FlowLifecycleRule(),
            """
            async def handle(conn_tasks, current_task, serve):
                task = current_task()
                conn_tasks.add(task)
                try:
                    await serve()
                finally:
                    conn_tasks.discard(task)
            """,
        )
        assert found == []


class TestRep008IpcSafety:
    def test_frozen_immutable_class_clean(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Msg:
                frame_index: int
                payload: bytes
                shape: tuple[int, ...]
                tags: frozenset[str] = frozenset()
            """,
        )
        assert found == []

    def test_unfrozen_dataclass_flagged(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            from dataclasses import dataclass

            @dataclass
            class Msg:
                frame_index: int
            """,
        )
        assert found and "frozen=True" in found[0].message

    def test_mutable_annotation_flagged(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Msg:
                stats: dict[str, int]
            """,
        )
        assert any("'dict" in v.message for v in found)

    def test_mutable_default_factory_flagged(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class Msg:
                frame_index: int
                extras: tuple = field(default_factory=list)
            """,
        )
        assert any("default" in v.message for v in found)

    def test_unregistered_class_ignored(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            class Scratch:
                cache: dict = {}
            """,
        )
        assert found == []

    def test_private_fields_exempt(self):
        found = _violations(
            IpcSafetyRule(classes=["Msg"]),
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Msg:
                frame_index: int
                _scratch: dict | None = None
            """,
        )
        assert found == []


SCHEMA_MODULE_OK = """
PERF_SCHEMA = "repro-perf/3"


def load_perf_json(payload):
    if payload.get("schema") != PERF_SCHEMA:
        raise ValueError("schema mismatch")
    return payload
"""

SCHEMA_MODULE_NO_LOADER = """
PERF_SCHEMA = "repro-perf/3"


def summarise(payload):
    return payload["frames"]
"""


class TestRep009SchemaDrift:
    def test_schema_with_loader_clean_in_memory(self):
        # In-memory fixtures have no tests tree: only the validator leg
        # is checked, and it passes.
        found = _violations(SchemaDriftRule(), SCHEMA_MODULE_OK)
        assert found == []

    def test_schema_without_loader_flagged(self):
        found = _violations(SchemaDriftRule(), SCHEMA_MODULE_NO_LOADER)
        assert [v.rule for v in found] == ["REP009"]
        assert "no load_*_json validator" in found[0].message

    def test_untested_schema_and_loader_flagged(self, tmp_path):
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_other.py").write_text("def test_ok():\n    pass\n")
        found = _violations(
            SchemaDriftRule(tests_root=tests_root), SCHEMA_MODULE_OK
        )
        messages = " | ".join(v.message for v in found)
        assert "never referenced by the test suite" in messages
        assert "never exercised by the test suite" in messages

    def test_tested_schema_clean(self, tmp_path):
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_perf_json.py").write_text(
            textwrap.dedent(
                """
                from perf import PERF_SCHEMA, load_perf_json

                def test_roundtrip():
                    assert load_perf_json({"schema": PERF_SCHEMA})
                """
            )
        )
        found = _violations(
            SchemaDriftRule(tests_root=tests_root), SCHEMA_MODULE_OK
        )
        assert found == []

    def test_module_without_schemas_ignored(self):
        found = _violations(
            SchemaDriftRule(), "def helper():\n    return 1\n"
        )
        assert found == []
