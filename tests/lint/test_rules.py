"""Per-rule fixtures: each REP rule has passing and failing snippets."""

from __future__ import annotations

from repro.lint import ModuleSource, check_module
from repro.lint.rules import (
    BitExactRule,
    FlowLifecycleRule,
    LayeringRule,
    ProbePurityRule,
    ResourceLifecycleRule,
)


def _violations(rule, text: str, module: str, is_package: bool = False):
    source = ModuleSource.from_source(
        text, module=module, is_package=is_package
    )
    return check_module(source, [rule])


class TestRep001BitExact:
    IN_SCOPE = "repro.core.transform.fake"

    def test_float_literal_flagged(self):
        found = _violations(BitExactRule(), "x = 1.5\n", self.IN_SCOPE)
        assert [v.rule for v in found] == ["REP001"]
        assert "float literal" in found[0].message

    def test_true_division_flagged(self):
        found = _violations(BitExactRule(), "y = a / b\n", self.IN_SCOPE)
        assert found and "floor division" in found[0].message

    def test_aug_division_flagged(self):
        assert _violations(BitExactRule(), "a /= 2\n", self.IN_SCOPE)

    def test_numpy_float_dtype_flagged(self):
        found = _violations(
            BitExactRule(),
            "import numpy as np\nz = arr.astype(np.float32)\n",
            self.IN_SCOPE,
        )
        assert found and "np.float32" in found[0].message

    def test_float_builtin_flagged(self):
        assert _violations(
            BitExactRule(), "z = arr.astype(float)\n", self.IN_SCOPE
        )

    def test_floor_division_clean(self):
        assert not _violations(
            BitExactRule(), "y = (a + b) // 2\n", self.IN_SCOPE
        )

    def test_annotations_exempt(self):
        code = (
            "def ratio() -> float:\n"
            '    """Doc."""\n'
            "    return compute()\n"
            "x: float = compute()\n"
        )
        assert not _violations(BitExactRule(), code, self.IN_SCOPE)

    def test_out_of_scope_module_clean(self):
        assert not _violations(
            BitExactRule(), "x = 1.5\n", "repro.analysis.fake"
        )

    def test_hardware_datapath_in_scope(self):
        assert _violations(
            BitExactRule(), "x = 0.5\n", "repro.hardware.fifo"
        )

    def test_hardware_estimators_out_of_scope(self):
        assert not _violations(
            BitExactRule(), "x = 0.5\n", "repro.hardware.resources"
        )

    def test_native_wrapper_in_scope(self):
        # The ctypes wrappers of the compiled tier marshal the bit-exact
        # payloads; a float sneaking into them corrupts the contract just
        # as surely as in the pure-NumPy path.
        found = _violations(
            BitExactRule(),
            "ratio = used / total\n",
            "repro.core.packing.native.loader",
        )
        assert [v.rule for v in found] == ["REP001"]

    def test_native_wrapper_integer_code_clean(self):
        code = (
            "import numpy as np\n"
            "widths = np.maximum(lengths + 1, 1)\n"
            "total = int(widths.sum()) // 8\n"
        )
        assert not _violations(
            BitExactRule(), code, "repro.core.packing.native"
        )


class TestRep002Lifecycle:
    MOD = "repro.runtime.fake"

    def test_bare_acquire_flagged(self):
        code = "slot = self._ring.acquire()\nuse(slot)\n"
        found = _violations(ResourceLifecycleRule(), code, self.MOD)
        assert [v.rule for v in found] == ["REP002"]

    def test_acquire_then_try_clean(self):
        code = (
            "slot = ring.acquire()\n"
            "try:\n"
            "    use(slot)\n"
            "except BaseException:\n"
            "    ring.release(slot)\n"
            "    raise\n"
        )
        assert not _violations(ResourceLifecycleRule(), code, self.MOD)

    def test_acquire_inside_try_finally_clean(self):
        code = (
            "try:\n"
            "    slot = ring.acquire()\n"
            "finally:\n"
            "    ring.release(slot)\n"
        )
        assert not _violations(ResourceLifecycleRule(), code, self.MOD)

    def test_acquire_as_context_manager_clean(self):
        code = "with ring.acquire() as slot:\n    use(slot)\n"
        assert not _violations(ResourceLifecycleRule(), code, self.MOD)

    def test_try_around_whole_function_does_not_count(self):
        code = (
            "try:\n"
            "    def f():\n"
            '        """Doc."""\n'
            "        slot = ring.acquire()\n"
            "        return slot\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert _violations(ResourceLifecycleRule(), code, self.MOD)

    def test_lock_acquire_out_of_scope(self):
        assert not _violations(
            ResourceLifecycleRule(), "lock.acquire()\n", self.MOD
        )

    def test_bare_shared_memory_create_flagged(self):
        code = "shm = SharedMemory(create=True, size=64)\nfill(shm)\n"
        found = _violations(ResourceLifecycleRule(), code, self.MOD)
        assert found and "SharedMemory" in found[0].message

    def test_shared_memory_attach_clean(self):
        assert not _violations(
            ResourceLifecycleRule(),
            "shm = SharedMemory(name='x')\n",
            self.MOD,
        )

    def test_shared_memory_create_then_try_clean(self):
        code = (
            "shm = SharedMemory(create=True, size=64)\n"
            "try:\n"
            "    fill(shm)\n"
            "except BaseException:\n"
            "    shm.unlink()\n"
            "    raise\n"
        )
        assert not _violations(ResourceLifecycleRule(), code, self.MOD)

    # FrameRing.__init__'s shape with its try removed: the segment goes
    # straight onto ``self``.  REP007 treats the attribute store as an
    # ownership escape and stops tracking, so only REP002 catches it.
    UNPROTECTED_SHM_ATTRIBUTE = (
        "class Ring:\n"
        "    def __init__(self, size):\n"
        "        self._shm = shared_memory.SharedMemory(create=True, size=size)\n"
        "        self.spec = describe(self._shm.name)\n"
    )

    def test_unprotected_shm_attribute_flagged(self):
        found = _violations(
            ResourceLifecycleRule(), self.UNPROTECTED_SHM_ATTRIBUTE, self.MOD
        )
        assert [v.rule for v in found] == ["REP002"]

    def test_unprotected_shm_attribute_missed_by_rep007(self):
        assert not _violations(
            FlowLifecycleRule(), self.UNPROTECTED_SHM_ATTRIBUTE, self.MOD
        )


class TestRep003ProbePurity:
    MOD = "repro.core.window.fake"

    def test_probe_without_default_flagged(self):
        code = "def f(probe):\n    pass\n"
        found = _violations(ProbePurityRule(), code, self.MOD)
        assert found and "default to None" in found[0].message

    def test_probe_with_non_none_default_flagged(self):
        code = "def f(probe=NULL_PROBE):\n    pass\n"
        assert _violations(ProbePurityRule(), code, self.MOD)

    def test_probe_keyword_only_none_default_clean(self):
        code = "def f(*, probe=None):\n    pass\n"
        assert not _violations(ProbePurityRule(), code, self.MOD)

    def test_impure_call_in_guard_flagged(self):
        code = (
            "if self.probe is not None:\n"
            "    self.reset_state()\n"
        )
        found = _violations(ProbePurityRule(), code, self.MOD)
        assert found and "reset_state" in found[0].message

    def test_probe_methods_and_clock_clean(self):
        code = (
            "if self.probe is not None:\n"
            "    self.probe.observe('x', time.perf_counter() - t0)\n"
            "    self.probe.count('y')\n"
        )
        assert not _violations(ProbePurityRule(), code, self.MOD)

    def test_numpy_reduction_clean(self):
        code = (
            "if self.probe is not None:\n"
            "    self.probe.observe('zeros', np.count_nonzero(arr))\n"
        )
        assert not _violations(ProbePurityRule(), code, self.MOD)

    def test_guard_with_and_condition_checked(self):
        code = (
            "if self.probe is not None and n:\n"
            "    self.mutate()\n"
        )
        assert _violations(ProbePurityRule(), code, self.MOD)

    def test_observability_package_exempt(self):
        code = "def f(probe):\n    pass\n"
        assert not _violations(
            ProbePurityRule(), code, "repro.observability.fake"
        )


class TestRep004Layering:
    def test_core_may_not_import_runtime(self):
        found = _violations(
            LayeringRule(),
            "from repro.runtime import streaming\n",
            "repro.core.transform.fake",
        )
        assert found and "layer 'core.transform'" in found[0].message

    def test_hardware_may_not_import_runtime(self):
        assert _violations(
            LayeringRule(),
            "import repro.runtime.pool\n",
            "repro.hardware.fake",
        )

    def test_relative_import_resolved(self):
        # ...runtime from repro.core.transform.fake -> repro.runtime
        found = _violations(
            LayeringRule(),
            "from ...runtime import pool\n",
            "repro.core.transform.fake",
        )
        assert found

    def test_runtime_may_import_core_window(self):
        assert not _violations(
            LayeringRule(),
            "from ..core.window.base import WindowEngine\n",
            "repro.runtime.fake",
        )

    def test_type_checking_imports_exempt(self):
        code = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from ..runtime.pool import PersistentPool\n"
        )
        assert not _violations(
            LayeringRule(), code, "repro.hardware.fake"
        )

    def test_dunder_all_missing_name_flagged(self):
        code = '__all__ = ["present", "absent"]\npresent = 1\n'
        found = _violations(LayeringRule(), code, "repro.kernels.fake")
        assert len(found) == 1
        assert "absent" in found[0].message

    def test_dunder_all_imported_name_clean(self):
        code = (
            "from .base import WindowKernel\n"
            '__all__ = ["WindowKernel"]\n'
        )
        assert not _violations(LayeringRule(), code, "repro.kernels.fake")

    def test_non_repro_modules_unchecked(self):
        assert not _violations(
            LayeringRule(), "import os\nimport numpy\n", "repro.core.stats"
        )
