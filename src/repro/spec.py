"""The single run description every entry point builds engines from.

Before this module existed the repo had three ways to describe "run this
image through that architecture": direct engine constructors, the
streaming runtime's private worker spec, and per-CLI-subcommand flag
soup.  :class:`EngineSpec` unifies them: one frozen, picklable value
holding the architecture config, the kernel, the lossiness threshold,
the memory-path protection, the memory plan, the execution-strategy
choice and the probe options — everything :func:`make_engine` needs to
construct a ready engine, in one process or a worker across an IPC
boundary.

Quick start::

    from repro import EngineSpec, make_engine
    from repro.kernels import GaussianKernel

    spec = EngineSpec(config=config, kernel=GaussianKernel(6.0, 32),
                      threshold=4, fast_path=True)
    run = make_engine(spec).run(image)

The engine constructors remain public API — the spec is the
recommended front door, not the only one.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .config import ArchitectureConfig
from .errors import ConfigError
from .kernels.base import WindowKernel
from .resilience.chaos import ChaosSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.window.base import SlidingWindowEngine
    from .hardware.planner import PlacementPlan
    from .observability.probe import Probe

#: Engine families a spec can describe.
ENGINE_KINDS: tuple[str, ...] = ("compressed", "traditional")


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to construct one sliding-window engine.

    Parameters
    ----------
    config, kernel:
        The architecture instance and processing kernel.  The kernel must
        be picklable for specs that cross process boundaries (all
        built-in kernels are).
    engine:
        ``"compressed"`` (the paper's modified architecture, default) or
        ``"traditional"`` (the line-buffer baseline).
    threshold:
        Optional lossiness-threshold override; ``None`` keeps the
        config's threshold.  Lets callers sweep thresholds without
        rebuilding configs.
    recirculate, protection, fault_policy, fast_path:
        Forwarded to :class:`~repro.core.window.compressed.CompressedEngine`
        (ignored by the traditional engine, which has none of these
        knobs).  ``protection`` must be a scheme *name* here so the spec
        stays cheaply picklable.
    memory_plan, overflow:
        Forwarded to the compressed engine too: the design-time
        :class:`~repro.hardware.planner.PlacementPlan` whose per-group
        capacities every traversal is checked against (``None``: no
        check; a plan pickles to well under a kilobyte, so it rides to
        the workers with the spec), and what a frame that overflows it
        does — ``"error"`` (default) raises
        :class:`~repro.errors.CapacityError`, which a stream delivers as
        ``FrameFailure(reason="capacity")`` and the gateway as a 507;
        ``"tighten"`` re-runs the frame up the threshold ladder.
    probe:
        When true, :meth:`build` attaches a fresh
        :class:`~repro.observability.probe.MetricsProbe` (unless the
        caller passes its own), so remote workers can be instrumented by
        flag instead of by pickling a registry.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosSpec` of injected
        process-level faults (worker kills/raises/delays, dropped
        results).  Only the streaming runtime honours it; a plain
        :meth:`build` engine ignores chaos entirely, which is what lets
        the supervision layer degrade to a chaos-free inline run.
    codec:
        Codec tier of the compressed engine's pack/size kernels:
        ``"auto"`` (default — compiled tier when available, NumPy
        otherwise), ``"numpy"``, or ``"native"`` (compiled tier, with a
        one-time :class:`RuntimeWarning` fallback to NumPy when the
        environment cannot provide it).  All tiers are bit-identical;
        the traditional engine ignores this knob.
    """

    config: ArchitectureConfig
    kernel: WindowKernel
    engine: str = "compressed"
    threshold: int | None = None
    recirculate: bool = True
    protection: str | None = None
    fault_policy: str = "degrade"
    fast_path: bool | None = None
    probe: bool = False
    chaos: ChaosSpec | None = None
    codec: str = "auto"
    memory_plan: PlacementPlan | None = None
    overflow: str = "error"

    def __post_init__(self) -> None:
        from .core.packing.tiers import CODEC_TIERS
        from .core.window.compressed import OVERFLOW_MODES

        if self.engine not in ENGINE_KINDS:
            raise ConfigError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        if self.codec not in CODEC_TIERS:
            raise ConfigError(
                f"codec must be one of {CODEC_TIERS}, got {self.codec!r}"
            )
        if self.overflow not in OVERFLOW_MODES:
            raise ConfigError(
                f"overflow must be one of {OVERFLOW_MODES}, got {self.overflow!r}"
            )
        if (
            self.memory_plan is not None
            and self.memory_plan.config.window_size != self.config.window_size
        ):
            raise ConfigError(
                f"memory plan is for window "
                f"{self.memory_plan.config.window_size}, spec window is "
                f"{self.config.window_size}"
            )
        if self.protection is not None and not isinstance(self.protection, str):
            raise ConfigError(
                "EngineSpec.protection must be a scheme name (picklable); "
                "pass ProtectionPolicy objects to the engine constructor"
            )

    @property
    def resolved_config(self) -> ArchitectureConfig:
        """The config with the spec's threshold override applied."""
        if self.threshold is None or self.threshold == self.config.threshold:
            return self.config
        return replace(self.config, threshold=self.threshold)

    def replace(self, **changes) -> "EngineSpec":
        """A copy of this spec with ``changes`` applied.

        Sugar over :func:`dataclasses.replace` so sweeps read naturally:
        ``spec.replace(engine="traditional")``,
        ``spec.replace(threshold=6)``.
        """
        return replace(self, **changes)

    def build(self, *, probe: "Probe | None" = None) -> "SlidingWindowEngine":
        """Construct the engine this spec describes.

        ``probe`` attaches an explicit probe; when ``None`` and the spec
        was created with ``probe=True`` a fresh
        :class:`~repro.observability.probe.MetricsProbe` is attached.
        """
        from .core.window.compressed import CompressedEngine
        from .core.window.traditional import TraditionalEngine

        if probe is None and self.probe:
            from .observability.probe import MetricsProbe

            probe = MetricsProbe()
        config = self.resolved_config
        if self.engine == "traditional":
            return TraditionalEngine(config, self.kernel, probe=probe)
        return CompressedEngine(
            config,
            self.kernel,
            recirculate=self.recirculate,
            protection=self.protection,
            fault_policy=self.fault_policy,
            fast_path=self.fast_path,
            probe=probe,
            codec=self.codec,
            memory_plan=self.memory_plan,
            overflow=self.overflow,
        )

    def blob(self) -> bytes:
        """Pickled form — the streaming workers' engine-cache key."""
        return pickle.dumps(self)


def make_engine(
    spec: EngineSpec, *, probe: "Probe | None" = None
) -> "SlidingWindowEngine":
    """Build the engine described by ``spec`` (the spec-driven front door)."""
    return spec.build(probe=probe)
