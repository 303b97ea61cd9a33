"""The :class:`~repro.spec.EngineSpec` front door.

One spec value must build every engine family, survive pickling (the
streaming workers' transport) and apply threshold overrides without
mutating the original config.  The old ``repro.runtime.worker.EngineSpec``
import path is gone.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import (
    ArchitectureConfig,
    CompressedEngine,
    EngineSpec,
    TraditionalEngine,
    make_engine,
)
from repro.errors import ConfigError
from repro.kernels import BoxFilterKernel
from repro.observability.probe import MetricsProbe
from repro.resilience import resolve_policy

from helpers import random_image


def spec_of(**kw) -> EngineSpec:
    config = ArchitectureConfig(image_width=32, image_height=32, window_size=8)
    return EngineSpec(config=config, kernel=BoxFilterKernel(8), **kw)


class TestBuild:
    def test_default_builds_compressed(self):
        engine = make_engine(spec_of())
        assert isinstance(engine, CompressedEngine)
        assert engine.probe is None

    def test_traditional_kind(self):
        assert isinstance(
            make_engine(spec_of(engine="traditional")), TraditionalEngine
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="engine must be one of"):
            spec_of(engine="quantum")

    def test_protection_must_be_a_name(self):
        with pytest.raises(ConfigError, match="scheme name"):
            spec_of(protection=resolve_policy("secded"))

    def test_engine_knobs_forwarded(self):
        engine = make_engine(
            spec_of(recirculate=False, fast_path=False, protection="secded")
        )
        assert not engine.recirculate
        assert not engine.fast_path_eligible

    def test_from_spec_constructors(self):
        assert isinstance(
            CompressedEngine.from_spec(spec_of()), CompressedEngine
        )
        assert isinstance(
            TraditionalEngine.from_spec(spec_of(engine="traditional")),
            TraditionalEngine,
        )

    def test_from_spec_rejects_wrong_family(self):
        with pytest.raises(ConfigError, match="engine"):
            CompressedEngine.from_spec(spec_of(engine="traditional"))
        with pytest.raises(ConfigError, match="engine"):
            TraditionalEngine.from_spec(spec_of())


class TestThresholdOverride:
    def test_resolved_config_applies_override(self):
        spec = spec_of(threshold=6)
        assert spec.resolved_config.threshold == 6
        assert spec.config.threshold == 0  # original untouched
        assert make_engine(spec).config.threshold == 6

    def test_no_override_reuses_config(self):
        spec = spec_of()
        assert spec.resolved_config is spec.config

    def test_replace_sugar(self):
        spec = spec_of()
        swept = spec.replace(threshold=4, engine="traditional")
        assert swept.threshold == 4 and swept.engine == "traditional"
        assert spec.threshold is None  # frozen original unchanged


class TestProbes:
    def test_probe_flag_attaches_fresh_probe(self):
        engine = spec_of(probe=True).build()
        assert isinstance(engine.probe, MetricsProbe)
        other = spec_of(probe=True).build()
        assert other.probe is not engine.probe

    def test_explicit_probe_wins(self):
        probe = MetricsProbe()
        engine = make_engine(spec_of(probe=True), probe=probe)
        assert engine.probe is probe


class TestTransport:
    def test_pickle_round_trip_builds_equal_engine(self, rng):
        spec = spec_of(threshold=2, recirculate=False)
        clone = pickle.loads(spec.blob())
        # Kernels compare by identity, so check everything around them.
        assert clone.config == spec.config
        assert type(clone.kernel) is type(spec.kernel)
        assert (clone.threshold, clone.recirculate) == (2, False)
        image = random_image(rng, 32, 32, smooth=True)
        a = make_engine(spec).run(image)
        b = make_engine(clone).run(image)
        assert np.array_equal(a.outputs, b.outputs)

    def test_probed_spec_stays_picklable(self):
        # The probe field is a bool, not a registry — pickling must not
        # drag instrument state across the process boundary.
        clone = pickle.loads(spec_of(probe=True).blob())
        assert clone.probe is True


class TestDeprecatedImportPath:
    def test_runtime_package_reexport_does_not_warn(self, recwarn):
        from repro.runtime import EngineSpec as runtime_spec

        assert runtime_spec is EngineSpec
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]

    def test_removed_worker_path_raises(self):
        import repro.runtime.worker as worker

        with pytest.raises(AttributeError):
            worker.EngineSpec
