"""Fast-path ≡ sequential-path equivalence for the compressed engine.

The frame-at-once vectorised strategy must be bit-identical to the
per-traversal reference loop on every configuration where both are
allowed: outputs, reconstruction, per-traversal band totals, occupancy
peaks and the whole :class:`~repro.core.window.base.EngineStats` value.
These tests pin that contract across the lossless/lossy x recirculate
matrix, odd frame heights, every kernel in :mod:`repro.kernels`, the
extension knobs (levels, LL-DPCM, wrapping) and the capacity-error
surfaces — plus the fallback rules for configurations the fast path
must refuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArchitectureConfig,
    CompressedCycleEngine,
    CompressedEngine,
    GoldenEngine,
    TraditionalEngine,
)
from repro.core import stats
from repro.core.window import compressed
from repro.core.packing import native
from repro.core.window.golden import sliding_windows
from repro.errors import CapacityError, ConfigError
from repro.observability.probe import MetricsProbe
from repro.kernels import (
    BoxFilterKernel,
    CensusKernel,
    DilateKernel,
    ErodeKernel,
    GaussianKernel,
    HarrisResponseKernel,
    MedianKernel,
    MorphGradientKernel,
    SobelMagnitudeKernel,
    TemplateMatchKernel,
)
from repro.resilience.injector import FaultInjector

from helpers import exact_capacity_plan, group_peaks, random_image


def cfg(width=32, height=32, window=8, **kw):
    return ArchitectureConfig(
        image_width=width, image_height=height, window_size=window, **kw
    )


#: Codec tiers the planned-run tests cover (native when it compiles).
CODEC_TIERS = ("numpy", "native") if native.is_available() else ("numpy",)


def run_both(config, kernel, image, **engine_kw):
    """Run the sequential loop and the (forced) fast path on one frame."""
    seq = CompressedEngine(config, kernel, fast_path=False, **engine_kw)
    fast = CompressedEngine(config, kernel, fast_path=True, **engine_kw)
    seq_run = seq.run(image)
    fast_run = fast.run(image)
    assert seq.last_path == "sequential"
    assert fast.last_path == "fast"
    return seq_run, fast_run


def assert_identical(seq_run, fast_run):
    """Bit-identity across every surface of a :class:`WindowRun`."""
    assert np.array_equal(seq_run.outputs, fast_run.outputs)
    assert np.array_equal(seq_run.reconstruction, fast_run.reconstruction)
    assert seq_run.stats == fast_run.stats  # peaks, cycles, band trace


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("threshold", [0, 4])
    @pytest.mark.parametrize("recirculate", [True, False])
    def test_threshold_recirculate_grid(self, rng, threshold, recirculate):
        config = cfg(threshold=threshold)
        image = random_image(rng, 32, 32, smooth=True)
        engine_kw = dict(recirculate=recirculate)
        if threshold and recirculate:
            # Lossy recirculation feeds reconstructions back — inherently
            # sequential; the fast path must refuse at construction.
            with pytest.raises(ConfigError, match="fast_path"):
                CompressedEngine(
                    config, BoxFilterKernel(8), fast_path=True, **engine_kw
                )
            return
        seq_run, fast_run = run_both(
            config, BoxFilterKernel(8), image, **engine_kw
        )
        assert_identical(seq_run, fast_run)

    @pytest.mark.parametrize(
        "height,width", [(33, 32), (47, 64), (32, 46), (9, 32)]
    )
    def test_odd_and_nonsquare_frames(self, rng, height, width):
        """Odd heights and non-square frames (width must stay even: the
        IWT consumes column pairs)."""
        config = cfg(width=width, height=height, window=8)
        image = random_image(rng, height, width)
        seq_run, fast_run = run_both(config, BoxFilterKernel(8), image)
        assert_identical(seq_run, fast_run)

    @pytest.mark.parametrize(
        "make_kernel",
        [
            BoxFilterKernel,
            lambda n: GaussianKernel(sigma=n / 5.0, window_size=n),
            SobelMagnitudeKernel,
            MedianKernel,
            HarrisResponseKernel,
            lambda n: TemplateMatchKernel(np.arange(n * n).reshape(n, n)),
            ErodeKernel,
            DilateKernel,
            MorphGradientKernel,
            CensusKernel,
        ],
        ids=[
            "box",
            "gaussian",
            "sobel",
            "median",
            "harris",
            "template",
            "erode",
            "dilate",
            "morph-gradient",
            "census",
        ],
    )
    def test_every_kernel(self, rng, make_kernel):
        config = cfg(width=24, height=26, window=8)
        image = random_image(rng, 26, 24)
        seq_run, fast_run = run_both(config, make_kernel(8), image)
        assert_identical(seq_run, fast_run)

    @pytest.mark.parametrize(
        "extra",
        [
            dict(decomposition_levels=2),
            dict(decomposition_levels=2, ll_dpcm=True),
            dict(ll_dpcm=True),
            dict(threshold=4, threshold_bands="details"),
            dict(coefficient_bits=8, wrap_coefficients=True),
        ],
        ids=["levels2", "levels2-dpcm", "dpcm", "details", "wrapped"],
    )
    def test_extension_knobs(self, rng, extra):
        config = cfg(**extra)
        image = random_image(rng, 32, 32, smooth=True)
        seq_run, fast_run = run_both(
            config, BoxFilterKernel(8), image, recirculate=False
        )
        assert_identical(seq_run, fast_run)


    @pytest.mark.parametrize("codec", CODEC_TIERS)
    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "sequential"])
    def test_32_bit_wrap_matches_traditional(self, rng, codec, fast_path):
        """A 32-bit wrap is int32's own wraparound on every tier and path."""
        config = cfg(coefficient_bits=32, wrap_coefficients=True)
        image = random_image(rng, 32, 32)
        kernel = BoxFilterKernel(8)
        engine = CompressedEngine(config, kernel, codec=codec, fast_path=fast_path)
        run = engine.run(image)
        assert engine.last_path == ("fast" if fast_path else "sequential")
        trad = TraditionalEngine(config, kernel).run(image)
        assert np.array_equal(run.outputs, trad.outputs)
        assert np.array_equal(run.reconstruction, image)


class TestNonDyadicWindows:
    """Box-filter outputs at N where ``1/N^2`` is not a binary fraction:
    every engine path, whole-frame or per-band, returns the windowed
    oracle's integer-exact means bit for bit."""

    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_every_engine_bit_identical(self, rng, n):
        config = cfg(width=24, height=27, window=n)
        image = random_image(rng, 27, 24)
        kernel = BoxFilterKernel(n)
        oracle = kernel.apply(sliding_windows(image, n))
        runs = {
            "golden": GoldenEngine(config, kernel).run(image),
            "traditional": TraditionalEngine(config, kernel).run(image),
            "compressed-cycle": CompressedCycleEngine(config, kernel).run(image),
        }
        runs["sequential"], runs["fast"] = run_both(config, kernel, image)
        for name, run in runs.items():
            assert np.array_equal(run.outputs, oracle), name


class TestProbeTransparency:
    """Attaching a probe must not change a single output bit.

    The same threshold x fast-path matrix as above, but the variant under
    test is probed vs unprobed rather than fast vs sequential — the
    observability layer's core contract.
    """

    @pytest.mark.parametrize("threshold", [0, 4])
    @pytest.mark.parametrize("fast_path", [False, True])
    def test_probe_on_off_bit_identical(self, rng, threshold, fast_path):
        config = cfg(threshold=threshold)
        image = random_image(rng, 32, 32, smooth=True)
        engine_kw = dict(recirculate=False, fast_path=fast_path)
        plain = CompressedEngine(config, BoxFilterKernel(8), **engine_kw)
        probe = MetricsProbe()
        probed = CompressedEngine(
            config, BoxFilterKernel(8), probe=probe, **engine_kw
        )
        plain_run = plain.run(image)
        probed_run = probed.run(image)
        assert plain.last_path == probed.last_path
        assert_identical(plain_run, probed_run)
        # The unprobed run carries no snapshot; the probed one does, and
        # it actually saw the frame.
        assert plain_run.metrics is None
        snap = probed_run.metrics
        assert snap is not None
        assert any(
            c["name"] == "repro_frames_total" and c["value"] == 1.0
            for c in snap["counters"]
        )
        spans = {
            h["labels"]["span"]
            for h in snap["histograms"]
            if h["name"] == "repro_span_seconds"
        }
        # The native tier sizes a level-1 fast frame in one fused span.
        native = fast_path and probed.codec_resolved == "native"
        assert "run" in spans and ("run/size" if native else "run/transform") in spans

    def test_traditional_probe_transparent(self, rng):
        config = cfg()
        image = random_image(rng, 32, 32)
        plain = TraditionalEngine(config, BoxFilterKernel(8)).run(image)
        probe = MetricsProbe()
        probed = TraditionalEngine(
            config, BoxFilterKernel(8), probe=probe
        ).run(image)
        assert np.array_equal(plain.outputs, probed.outputs)
        assert plain.stats == probed.stats
        assert probed.metrics is not None

    def test_probed_sequential_records_band_distributions(self, rng):
        config = cfg(threshold=4)
        probe = MetricsProbe()
        engine = CompressedEngine(
            config, BoxFilterKernel(8), recirculate=False,
            fast_path=False, probe=probe,
        )
        engine.run(random_image(rng, 32, 32, smooth=True))
        names = {h["name"] for h in probe.snapshot()["histograms"]}
        assert {
            "repro_band_nbits",
            "repro_band_occupancy_bits",
            "repro_band_zero_ratio",
        } <= names

    @pytest.mark.parametrize(
        "extra,image",
        [
            (dict(), "flat-rows"),
            (dict(threshold=4), "smooth"),
            (dict(decomposition_levels=2), "smooth"),
        ],
        ids=["lossless-flat-rows", "lossy", "levels2"],
    )
    def test_fast_and_sequential_band_histograms_identical(
        self, rng, extra, image
    ):
        """Both paths record the stored NBits fields, occupancy peaks and
        zero ratios of a frame sample for sample.  Flat rows leave whole
        parity columns without a significant coefficient, whose NBits
        field is still at least 1."""
        config = cfg(width=64, height=64, **extra)
        if image == "flat-rows":
            frame = np.repeat(rng.integers(0, 256, size=(64, 1)), 64, axis=1)
        else:
            frame = random_image(rng, 64, 64, smooth=True)
        snaps = []
        for fast_path in (False, True):
            probe = MetricsProbe()
            CompressedEngine(
                config, BoxFilterKernel(8), recirculate=False,
                fast_path=fast_path, probe=probe,
            ).run(frame)
            snaps.append(
                sorted(
                    (h["name"], h["count"], h["sum"], tuple(h["bucket_counts"]))
                    for h in probe.snapshot()["histograms"]
                    if h["name"].startswith("repro_band_")
                )
            )
        assert len(snaps[0]) == 3
        assert snaps[0] == snaps[1]

    def test_probed_fast_path_records_band_distributions(self, rng):
        config = cfg(threshold=4)
        probe = MetricsProbe()
        engine = CompressedEngine(
            config, BoxFilterKernel(8), recirculate=False,
            fast_path=True, probe=probe,
        )
        engine.run(random_image(rng, 32, 32, smooth=True))
        assert engine.last_path == "fast"
        snap = probe.snapshot()
        hists = {h["name"]: h for h in snap["histograms"]}
        for name in (
            "repro_band_nbits",
            "repro_band_occupancy_bits",
            "repro_band_zero_ratio",
        ):
            assert hists[name]["count"] > 0
            assert sum(hists[name]["bucket_counts"]) == hists[name]["count"]


class TestCapacitySurfaces:
    def test_memory_plan_overflow_same_error(self, rng):
        from repro.core.stats import analyze_image
        from repro.hardware.planner import plan_placement

        config = cfg(width=512, height=64, window=16)
        from repro.imaging import generate_scene

        smooth = generate_scene(seed=11, resolution=512).astype(np.int64)[:64]
        noise = random_image(rng, 64, 512)
        plan = plan_placement(
            config, analyze_image(config, smooth).row_bits_worst
        )
        if plan.rows_per_bram <= 1:
            pytest.skip("plan fell back to one row per BRAM (never overflows)")
        messages = []
        for codec in CODEC_TIERS:
            for fast_path in (False, True):
                engine = CompressedEngine(
                    config,
                    BoxFilterKernel(16),
                    memory_plan=plan,
                    fast_path=fast_path,
                    codec=codec,
                )
                with pytest.raises(CapacityError, match="BRAM group") as err:
                    engine.run(noise)
                messages.append(str(err.value))
        assert len(set(messages)) == 1

    def test_memory_plan_passing_frame_identical(self, rng):
        from repro.core.stats import analyze_image
        from repro.hardware.planner import plan_placement

        config = cfg(width=64, height=64)
        image = random_image(rng, 64, 64, smooth=True)
        plan = plan_placement(
            config, analyze_image(config, image).row_bits_worst
        )
        for codec in CODEC_TIERS:
            seq_run, fast_run = run_both(
                config, BoxFilterKernel(8), image, memory_plan=plan, codec=codec
            )
            assert_identical(seq_run, fast_run)


@pytest.fixture(scope="module")
def suite_512():
    """Two 512x512 benchmark frames (int64), shared by the ZU7EV cases."""
    from repro.imaging import benchmark_dataset

    return [img.astype(np.int64) for img in benchmark_dataset(512, n_images=2)]


class TestMemoryPlanCapacity:
    """The engine enforces the one memory plan on both paths.

    Rows fold by ``plan.payload.rows_per_group``; each group's *stored*
    sliding occupancy is compared with ``group_capacity_list()``.
    """

    @pytest.mark.parametrize(
        "window,kind", [(16, "bram36"), (32, "bram36"), (64, "uram")]
    )
    def test_ultrascale_plan_has_no_false_overflow(self, suite_512, window, kind):
        """A ZU7EV plan from two frames' worst rows runs both frames.

        Its groups are BRAM36 (36864 bits) or URAM (294912 bits); a
        check priced in RAMB18s would reject frames the plan holds.
        """
        from repro.core.stats import analyze_image
        from repro.hardware.device import ZU7EV
        from repro.hardware.planner import plan_placement

        config = cfg(width=512, height=512, window=window)
        worst = np.maximum.reduce(
            [analyze_image(config, f).row_bits_worst for f in suite_512]
        )
        plan = plan_placement(config, worst, device=ZU7EV)
        assert plan.payload.primitive.kind == kind
        assert min(plan.payload.group_capacity_list()) > 18432
        kernel = BoxFilterKernel(window)
        for codec in CODEC_TIERS:
            for frame in suite_512:
                seq_run, fast_run = run_both(
                    config, kernel, frame, memory_plan=plan, codec=codec
                )
                assert_identical(seq_run, fast_run)

    def test_secded_storage_counts_against_capacity(self, rng):
        """Raw bits fit one RAMB18 group; their SECDED code words do not."""
        from repro.hardware.planner import plan_placement

        config = cfg(width=320, height=320, window=8)
        plan = plan_placement(config, np.full(8, 100))
        assert plan.rows_per_bram == 8
        assert plan.payload.group_capacity_list() == (18432,)
        frame = rng.integers(0, 96, size=(320, 320), dtype=np.int64)
        kernel = BoxFilterKernel(8)
        for codec in CODEC_TIERS:
            seq_run, fast_run = run_both(
                config, kernel, frame, memory_plan=plan, codec=codec
            )
            assert_identical(seq_run, fast_run)
        engine = CompressedEngine(
            config, kernel, memory_plan=plan, protection="secded"
        )
        with pytest.raises(
            CapacityError,
            match=(
                r"^BRAM group 0 holds \d+ stored bits at traversal \d+, its "
                r"allocation is 18432 bits \(1 x BRAM18, 8 rows/group\)"
            ),
        ):
            engine.run(frame)

    def test_group_capacity_boundary(self, rng):
        """Exactly at a group's capacity fits; one bit over raises."""
        config = cfg(width=64, height=48)
        frame = random_image(rng, 48, 64)
        kernel = BoxFilterKernel(8)
        (peak,) = group_peaks(config, frame, 8)
        messages = []
        for codec in CODEC_TIERS:
            seq_run, fast_run = run_both(
                config,
                kernel,
                frame,
                memory_plan=exact_capacity_plan(config, [peak]),
                codec=codec,
            )
            assert_identical(seq_run, fast_run)
            for fast_path in (False, True):
                engine = CompressedEngine(
                    config,
                    kernel,
                    memory_plan=exact_capacity_plan(config, [peak - 1]),
                    fast_path=fast_path,
                    codec=codec,
                )
                with pytest.raises(CapacityError) as err:
                    engine.run(frame)
                messages.append(str(err.value))
        assert len(set(messages)) == 1
        assert f"holds {peak} stored bits" in messages[0]
        assert f"allocation is {peak - 1} bits ({peak - 1} x BIT, 8 rows/group)" in (
            messages[0]
        )


def band_histograms(probe):
    """The ``repro_band_*`` histograms of a probe, sample for sample."""
    return sorted(
        (h["name"], h["count"], h["sum"], tuple(h["bucket_counts"]))
        for h in probe.snapshot()["histograms"]
        if h["name"].startswith("repro_band_")
    )


def span_counts(probe):
    """Recorded spans per label."""
    return {
        h["labels"]["span"]: h["count"]
        for h in probe.snapshot()["histograms"]
        if h["name"] == "repro_span_seconds"
    }


class TestPlannedFastPath:
    """A memory plan leaves the fast path on its one sizing route.

    Group columns come from the shared-block pass at every level, group
    size and tier; the sequential loop (per-element widths folded into
    groups) is the oracle for outputs, stats, band histograms and the
    exact ``CapacityError`` text.
    """

    @pytest.mark.parametrize("codec", CODEC_TIERS)
    @pytest.mark.parametrize("rows_per_group", [1, 2, 4, 8])
    @pytest.mark.parametrize("ll_dpcm", [False, True], ids=["plain", "dpcm"])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_plans_match_sequential(
        self, rng, levels, ll_dpcm, rows_per_group, codec
    ):
        config = cfg(
            width=32,
            height=37,
            threshold=3,
            decomposition_levels=levels,
            ll_dpcm=ll_dpcm,
        )
        frame = random_image(rng, 37, 32, smooth=True)
        kernel = BoxFilterKernel(8)
        engine_kw = dict(recirculate=False, codec=codec)
        peaks = group_peaks(config, frame, rows_per_group)
        plan = exact_capacity_plan(config, peaks)
        runs, histograms = [], []
        for fast_path in (False, True):
            probe = MetricsProbe()
            engine = CompressedEngine(
                config,
                kernel,
                memory_plan=plan,
                fast_path=fast_path,
                probe=probe,
                **engine_kw,
            )
            runs.append(engine.run(frame))
            histograms.append(band_histograms(probe))
        assert_identical(*runs)
        assert histograms[0] == histograms[1]

        # One bit short in the last group: both paths trip it at the
        # same traversal with the same stored bits.
        last = len(peaks) - 1
        tight = exact_capacity_plan(config, [*peaks[:-1], peaks[-1] - 1])
        messages = []
        for fast_path in (False, True):
            engine = CompressedEngine(
                config, kernel, memory_plan=tight, fast_path=fast_path, **engine_kw
            )
            with pytest.raises(CapacityError) as err:
                engine.run(frame)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"BRAM group {last} holds {peaks[-1]} stored bits" in messages[0]

    @pytest.mark.parametrize("codec", CODEC_TIERS)
    def test_chunk_boundaries(self, rng, monkeypatch, codec):
        """Several transform, group-column and sequential traversal
        chunks per frame: the occupancy and plan carries cross every
        boundary."""
        monkeypatch.setattr(stats, "BLOCK_CHUNK_VALUES", 3 * 4 * 32)
        monkeypatch.setattr(stats, "GROUP_CHUNK_VALUES", 5 * 4 * 32)
        monkeypatch.setattr(compressed, "TRAVERSAL_CHUNK_VALUES", 4 * 8 * 32)
        config = cfg(width=32, height=41, decomposition_levels=2)
        frame = random_image(rng, 41, 32)
        peaks = group_peaks(config, frame, 2)
        seq_run, fast_run = run_both(
            config,
            BoxFilterKernel(8),
            frame,
            memory_plan=exact_capacity_plan(config, peaks),
            codec=codec,
        )
        assert_identical(seq_run, fast_run)
        tight = exact_capacity_plan(config, [*peaks[:2], peaks[2] - 1, peaks[3]])
        messages = []
        for fast_path in (False, True):
            engine = CompressedEngine(
                config,
                BoxFilterKernel(8),
                memory_plan=tight,
                fast_path=fast_path,
                codec=codec,
            )
            with pytest.raises(CapacityError) as err:
                engine.run(frame)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("codec", CODEC_TIERS)
    def test_plan_check_carries_across_sequential_chunks(
        self, rng, monkeypatch, codec
    ):
        """A traversal's group peak mixes the previous band's stored
        columns with its own: here the band leaving at the first traversal
        of a sequential chunk is busy on the right of the ring, the one
        arriving busy on its left, so only the carried previous columns
        make that traversal overflow."""
        monkeypatch.setattr(compressed, "TRAVERSAL_CHUNK_VALUES", 4 * 8 * 32)
        t, n = 12, 8  # traversal index 12 opens the fourth 4-traversal chunk
        frame = np.full((41, 32), 128, dtype=np.int64)
        frame[t - 1, 12:24] = rng.integers(0, 256, size=12)
        frame[t + n - 1, 0:12] = rng.integers(0, 256, size=12)
        before = group_peaks(cfg(height=t + n - 1), frame[: t + n - 1], 8)
        through = group_peaks(cfg(height=t + n), frame[: t + n], 8)
        assert through[0] > before[0]
        plan = exact_capacity_plan(cfg(height=41), [int(before[0])])
        messages = []
        for fast_path in (False, True):
            engine = CompressedEngine(
                cfg(height=41),
                BoxFilterKernel(8),
                memory_plan=plan,
                fast_path=fast_path,
                codec=codec,
            )
            with pytest.raises(CapacityError) as err:
                engine.run(frame)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"holds {through[0]} stored bits at traversal {t + n - 1}," in messages[0]

    @pytest.mark.parametrize("codec", CODEC_TIERS)
    def test_plan_keeps_the_route(self, rng, codec):
        """A planned fast frame records exactly the unplanned spans."""
        config = cfg(width=64, height=64)
        frame = random_image(rng, 64, 64, smooth=True)
        plan = exact_capacity_plan(config, group_peaks(config, frame, 2))
        counts = []
        for memory_plan in (None, plan):
            probe = MetricsProbe()
            engine = CompressedEngine(
                config,
                BoxFilterKernel(8),
                memory_plan=memory_plan,
                fast_path=True,
                probe=probe,
                codec=codec,
            )
            engine.run(frame)
            counts.append(span_counts(probe))
        assert ("run/size" if codec == "native" else "run/transform") in counts[0]
        assert counts[0] == counts[1]


class TestOccupancyPeakClosedForm:
    """The closed-form per-traversal peak (``stats.occupancy_peaks``, the
    NumPy tier's band and group peaks) equals the maximum of the full
    ``sliding_occupancy`` trace, the sequential loop's reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        window=st.integers(1, 6).map(lambda k: 2 * k),
        extra=st.integers(0, 6).map(lambda k: 2 * k),
        traversals=st.integers(1, 5),
        groups=st.one_of(st.none(), st.integers(1, 4)),
        mgmt=st.integers(0, 9),
        carried=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_peak_equals_trace_max(
        self, window, extra, traversals, groups, mgmt, carried, seed
    ):
        width = window + extra  # extra == 0 covers W - N == 0
        rng = np.random.default_rng(seed)
        shape = (traversals,) + (() if groups is None else (groups,)) + (width,)
        cols = rng.integers(0, 300, size=shape)
        prev_last = rng.integers(0, 300, size=shape[1:]) if carried else None
        carry = cols[:1] if prev_last is None else prev_last[None]
        prev = np.concatenate([carry, cols[:-1]], axis=0)
        expected = stats.sliding_occupancy(prev, cols, window, mgmt).max(axis=-1)
        peaks = stats.occupancy_peaks(cols, window, mgmt, prev_last)
        assert np.array_equal(peaks, expected)


class TestFallbackRules:
    def test_injector_falls_back(self, rng):
        engine = CompressedEngine(
            cfg(),
            BoxFilterKernel(8),
            injector=FaultInjector(upset_rate=0.0, seed=1),
        )
        assert not engine.fast_path_eligible
        engine.run(random_image(rng, 32, 32))
        assert engine.last_path == "sequential"

    def test_protection_falls_back(self, rng):
        engine = CompressedEngine(
            cfg(), BoxFilterKernel(8), protection="secded"
        )
        assert not engine.fast_path_eligible
        engine.run(random_image(rng, 32, 32))
        assert engine.last_path == "sequential"

    @pytest.mark.parametrize(
        "engine_kw",
        [
            dict(injector=FaultInjector(upset_rate=0.0, seed=1)),
            dict(protection="secded"),
        ],
        ids=["injector", "protection"],
    )
    def test_forcing_fast_path_refused(self, engine_kw):
        with pytest.raises(ConfigError, match="fast_path"):
            CompressedEngine(
                cfg(), BoxFilterKernel(8), fast_path=True, **engine_kw
            )

    def test_lossless_recirculate_is_eligible(self, rng):
        """Lossless recirculation is exact — the fast path applies."""
        engine = CompressedEngine(cfg(), BoxFilterKernel(8), recirculate=True)
        assert engine.fast_path_eligible
        engine.run(random_image(rng, 32, 32))
        assert engine.last_path == "fast"


@pytest.mark.skipif(not native.is_available(), reason="native codec tier unavailable")
class TestFastFrameMemory:
    def test_native_fast_frame_allocates_no_frame_sized_plane(self, rng):
        """A 2048x2048 N=64 level-1 native fast frame peaks at its own
        arrays (the int64 copy, the outputs and the uint8 NBits) plus a
        small constant: a frame-sized coefficient, flag or column plane
        coming back on this path (8 MiB or more) fails the bound."""
        import tracemalloc

        config = cfg(width=2048, height=2048, window=64)
        frame = random_image(rng, 2048, 2048)
        engine = CompressedEngine(
            config, BoxFilterKernel(64), fast_path=True, codec="native"
        )
        tracemalloc.start()
        try:
            run = engine.run(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        traversals = 2048 - 64 + 1
        nbits_bytes = traversals * 2 * 2048
        bound = frame.nbytes + run.outputs.nbytes + nbits_bytes + (4 << 20)
        assert peak < bound, f"peak {peak} bytes, bound {bound}"
