"""Compiled codec tier: bit-identity with NumPy, and graceful fallback.

Two halves:

- kernel- and engine-level equivalence (skipped when no C compiler is
  present): every native wrapper must be *bit-identical* to its NumPy
  reference — the tier is a pure speed knob, never a semantics knob;
- fallback behaviour (always runs): a broken or disabled native tier
  must degrade to NumPy — silently for ``"auto"``, with exactly one
  ``RuntimeWarning`` per process for an explicit ``"native"`` request —
  both inline and through the streaming worker pool.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ArchitectureConfig, CompressedCycleEngine, CompressedEngine
from repro.core.window import compressed
from repro.core.packing import (
    apply_threshold,
    bits_to_values,
    native,
    pack_interleaved_column,
    values_to_bits,
)
from repro.core.packing.nbits import bit_widths_signed, min_bits_signed
from repro.core.packing.tiers import reset_codec_state, resolve_codec
from repro.core.stats import band_stack_sizes, sliding_occupancy
from repro.errors import CapacityError, ConfigError
from repro.kernels import BoxFilterKernel
from repro.observability.probe import MetricsProbe
from repro.spec import EngineSpec

from helpers import exact_capacity_plan, random_image

NATIVE_AVAILABLE = native.is_available()

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE,
    reason="native codec tier unavailable (no usable C compiler)",
)


def cfg(**kw):
    defaults = dict(image_width=32, image_height=24, window_size=8)
    defaults.update(kw)
    return ArchitectureConfig(**defaults)


#: Per-band fields of :class:`~repro.core.stats.BandStackSizes`.
SIZE_FIELDS = ("nbits", "significant_counts", "band_totals", "band_peaks")


def assert_same_sizes(got, want):
    """Bit-identity of two ``BandStackSizes``, group peaks included."""
    for name in SIZE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a, b), name
    if want.group_peaks is None:
        assert got.group_peaks is None
    else:
        assert np.array_equal(got.group_peaks, want.group_peaks)


# ----------------------------------------------------------------------
# Kernel-level bit-identity (native wrapper vs NumPy reference)
# ----------------------------------------------------------------------


@needs_native
class TestKernelEquivalence:
    @pytest.mark.parametrize(
        "extra",
        [
            {},
            {"threshold": 4},
            {"threshold": 4, "threshold_bands": "details"},
            {"threshold": 3, "ll_dpcm": True},
            {"coefficient_bits": 8, "wrap_coefficients": True},
            {"threshold": 3, "decomposition_levels": 2, "ll_dpcm": True},
            {"threshold": 3, "decomposition_levels": 3},
        ],
        ids=["lossless", "lossy", "details", "dpcm", "wrap", "levels2", "levels3"],
    )
    def test_band_stack_sizes_bit_identical(self, rng, extra):
        config = cfg(**extra)
        img = random_image(rng, config.image_height, config.image_width)
        for rows_per_group in (None, 1, 2, config.window_size):
            ref = band_stack_sizes(
                config, img, rows_per_group=rows_per_group, codec="numpy"
            )
            nat = band_stack_sizes(
                config, img, rows_per_group=rows_per_group, codec="native"
            )
            assert_same_sizes(nat, ref)
            assert (nat.group_peaks is None) == (rows_per_group is None)

    def test_stack_nbits_matches_min_bits(self, rng):
        stack = rng.integers(-(2**17), 2**17, size=(5, 6, 12)).astype(np.int32)
        stack[0, :, 0] = 0  # all-zero column: width must clamp to 1
        nbits = native.stack_nbits(stack)
        for q in (0, 1):
            expected = min_bits_signed(stack[:, q::2, :], axis=1)
            assert np.array_equal(nbits[:, q, :], expected)

    def test_bit_widths_matches_reference(self, rng):
        vals = rng.integers(-(2**40), 2**40, size=257)
        vals[:6] = (0, -1, 1, 2**62, -(2**62), -(2**63))
        assert np.array_equal(native.bit_widths(vals), bit_widths_signed(vals))

    def test_threshold_inplace_matches_apply_threshold(self, rng):
        plane = rng.integers(-40, 41, size=(7, 2, 10)).astype(np.int32)
        exempt = np.zeros((2, 10), dtype=bool)
        exempt[0, 0::2] = True  # the residual-LL lattice at mod == 2
        expected = apply_threshold(plane, 9, exempt_mask=exempt)
        got = native.threshold_inplace(plane.copy(), 9, exempt_mod=2)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("signed", [True, False])
    def test_pack_unpack_roundtrip(self, rng, signed):
        widths = rng.integers(0, 20, size=64)
        if signed:
            values = np.array(
                [
                    int(rng.integers(-(2 ** max(w - 1, 0)), 2 ** max(w - 1, 0)))
                    if w
                    else 0
                    for w in widths
                ]
            )
        else:
            values = np.array([int(rng.integers(0, 2**w)) for w in widths])
        bits = native.pack_values(values, widths)
        assert np.array_equal(bits, values_to_bits(values, widths))
        decoded = native.unpack_values(bits, widths, signed=signed)
        assert np.array_equal(
            decoded, bits_to_values(bits, widths, signed=signed)
        )
        assert np.array_equal(decoded, values)

    @pytest.mark.parametrize("threshold,exempt", [(0, False), (5, False), (5, True)])
    def test_pack_column_matches_reference(self, rng, threshold, exempt):
        column = rng.integers(-60, 61, size=16)
        ref = pack_interleaved_column(
            column, threshold=threshold, exempt_even=exempt
        )
        ne, no, bitmap, payload = native.pack_column(
            column, threshold=threshold, exempt_even=exempt
        )
        assert (ne, no) == (ref.nbits_even, ref.nbits_odd)
        assert np.array_equal(bitmap, ref.bitmap)
        assert np.array_equal(payload, ref.payload)

    def test_occupancy_peaks_matches_sliding_occupancy(self, rng):
        t_total, w, n, mgmt = 9, 20, 6, 11
        cols = rng.integers(0, 300, size=(t_total, w)).astype(np.int64)
        peaks = native.occupancy_peaks(cols, n, mgmt)
        prev = np.concatenate([cols[:1], cols[:-1]], axis=0)
        expected = sliding_occupancy(prev, cols, n, mgmt).max(axis=-1)
        assert np.array_equal(peaks, expected)

    def test_occupancy_peaks_carry_between_chunks(self, rng):
        t_total, w, n, mgmt = 8, 18, 4, 7
        cols = rng.integers(0, 200, size=(t_total, w)).astype(np.int64)
        whole = native.occupancy_peaks(cols, n, mgmt)
        split = np.concatenate(
            [
                native.occupancy_peaks(cols[:3], n, mgmt),
                native.occupancy_peaks(cols[3:], n, mgmt, prev_last=cols[2]),
            ]
        )
        assert np.array_equal(whole, split)


# ----------------------------------------------------------------------
# Engine-level bit-identity: native == numpy == sequential
# ----------------------------------------------------------------------


@needs_native
class TestEngineEquivalence:
    @pytest.mark.parametrize("threshold", [0, 4], ids=["lossless", "lossy"])
    @pytest.mark.parametrize(
        "recirculate", [False, True], ids=["single-pass", "recirculate"]
    )
    def test_native_matches_numpy_and_sequential(
        self, rng, threshold, recirculate
    ):
        config = cfg(threshold=threshold)
        img = random_image(rng, config.image_height, config.image_width)
        kernel = BoxFilterKernel(config.window_size)
        # Lossy + recirculating frames are inherently sequential (the fast
        # path refuses them); the native codec still runs inside the
        # sequential band codec there.
        fast_ok = threshold == 0 or not recirculate
        native_run, numpy_run, sequential_run = (
            CompressedEngine(
                config,
                kernel,
                codec=tier,
                fast_path=fast if fast_ok else None,
                recirculate=recirculate,
            ).run(img)
            for tier, fast in (
                ("native", True),
                ("numpy", True),
                ("numpy", False),
            )
        )
        for other in (numpy_run, sequential_run):
            assert np.array_equal(native_run.outputs, other.outputs)
            assert native_run.stats.buffer_bits_peak == other.stats.buffer_bits_peak
            assert np.array_equal(
                native_run.stats.band_total_bits, other.stats.band_total_bits
            )

    def test_chunked_deep_decomposition_path(self, rng):
        # levels=2 routes through analyze_band on band stacks (the chunked path).
        config = cfg(decomposition_levels=2, threshold=3)
        img = random_image(rng, config.image_height, config.image_width)
        kernel = BoxFilterKernel(config.window_size)
        nat = CompressedEngine(config, kernel, codec="native").run(img)
        ref = CompressedEngine(config, kernel, codec="numpy").run(img)
        assert np.array_equal(nat.outputs, ref.outputs)
        assert nat.stats.buffer_bits_peak == ref.stats.buffer_bits_peak


# ----------------------------------------------------------------------
# The recirculating loop's traversal step: native kernel == NumPy step
# ----------------------------------------------------------------------


def count_calls(monkeypatch, name):
    """Wrap ``native.<name>`` with a call counter; returns the count list."""
    calls = []
    original = getattr(native, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(native, name, counted)
    return calls


def band_histograms(probe):
    """The ``repro_band_*`` histograms of a probe, comparable across runs."""
    return sorted(
        (h["name"], h["count"], h["sum"], tuple(h["bucket_counts"]))
        for h in probe.snapshot()["histograms"]
        if h["name"].startswith("repro_band_")
    )


def probed_run(config, image, codec, fast_path=False, **engine_kw):
    """One run (sequential unless ``fast_path``): ``(WindowRun or
    CapacityError text, histograms)``."""
    probe = MetricsProbe()
    engine = CompressedEngine(
        config,
        BoxFilterKernel(config.window_size),
        codec=codec,
        fast_path=fast_path,
        probe=probe,
        **engine_kw,
    )
    try:
        run = engine.run(image)
    except CapacityError as exc:
        return str(exc), None
    assert engine.last_path == ("fast" if fast_path else "sequential")
    return run, band_histograms(probe)


def assert_same_run(run, other):
    """Bit-identity of two WindowRuns over every surface, never vacuously."""
    assert run.outputs.size > 0 and run.outputs.shape == other.outputs.shape
    assert run.outputs.dtype == other.outputs.dtype
    assert np.array_equal(run.outputs, other.outputs)
    assert np.array_equal(run.reconstruction, other.reconstruction)
    assert run.stats == other.stats
    assert len(run.stats.band_total_bits) == run.outputs.shape[0]


@st.composite
def level1_cases(draw, max_window, max_width, max_height):
    """A level-1 frame, its config and an optional plan: an even window
    up to ``max_window``, an even width up to ``max_width`` and a height
    from the window to ``max_height(window)``."""
    n = draw(st.sampled_from(range(2, max_window + 1, 2)))
    width = 2 * draw(st.integers(n // 2, max_width // 2))
    height = draw(st.integers(n, max_height(n)))
    wrap = draw(st.sampled_from([None, 8, 10, 32]))
    config = ArchitectureConfig(
        image_width=width,
        image_height=height,
        window_size=n,
        threshold=draw(st.integers(0, 24)),
        threshold_bands=draw(st.sampled_from(["all", "details"])),
        ll_dpcm=draw(st.booleans()),
        **({} if wrap is None else dict(coefficient_bits=wrap, wrap_coefficients=True)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    content = draw(st.sampled_from(["noise", "smooth", "extremes"]))
    if content == "extremes":
        image = rng.choice([0, config.pixel_max], size=(height, width))
    else:
        image = random_image(rng, height, width, smooth=content == "smooth")
    groups = 0
    if draw(st.booleans()):
        groups = draw(st.sampled_from([g for g in (1, 2, 4, n) if n % g == 0]))
    # Each group's capacity scales a fair share of the raw band, so some
    # plans admit the frame and some overflow.
    share = (width - n) * (n // max(groups, 1)) * config.pixel_bits
    fractions = draw(
        st.lists(st.floats(0.1, 2.5), min_size=groups, max_size=groups)
    )
    plan = (
        exact_capacity_plan(config, [int(f * share) for f in fractions])
        if groups
        else None
    )
    return config, image, plan


def recirculating_cases():
    """Lossy recirculating level-1 frames (small: the loop is per traversal)."""
    return level1_cases(16, 24, lambda n: 20)


@needs_native
class TestRecirculatingTraversals:
    def test_forced_sequential_sizes_on_the_native_tier(self, rng, monkeypatch):
        """A native-tier sequential run sizes every traversal natively and
        matches the NumPy tier bit for bit."""
        config = cfg(threshold=4)
        img = random_image(rng, config.image_height, config.image_width)
        calls = count_calls(monkeypatch, "stack_nbits")
        nat, nat_hist = probed_run(config, img, "native", recirculate=False)
        traversals = config.image_height - config.window_size + 1
        assert len(calls) > traversals  # one per traversal, one per chunk
        ref, ref_hist = probed_run(config, img, "numpy", recirculate=False)
        assert_same_run(nat, ref)
        assert nat_hist == ref_hist and len(nat_hist) == 3

    @pytest.mark.parametrize(
        "extra",
        [
            {"threshold": 6},
            {"threshold": 4, "ll_dpcm": True},
            {"threshold": 3, "threshold_bands": "details"},
            {"threshold": 5, "coefficient_bits": 8, "wrap_coefficients": True},
            {"threshold": 9, "coefficient_bits": 32, "wrap_coefficients": True},
            {"threshold": 0},
        ],
        ids=["lossy", "dpcm", "details", "wrap8", "wrap32", "lossless"],
    )
    def test_one_native_call_per_chunk(self, rng, monkeypatch, extra):
        """Chunked runs on both tiers equal a one-chunk run: the
        occupancy carry crosses every chunk boundary."""
        config = cfg(**extra)
        img = random_image(rng, config.image_height, config.image_width, smooth=True)
        whole, whole_hist = probed_run(config, img, "numpy")
        # 3 traversals per chunk: 17 traversals make 6 chunks, the last short.
        values = 3 * config.window_size * config.image_width
        monkeypatch.setattr(compressed, "TRAVERSAL_CHUNK_VALUES", values)
        calls = count_calls(monkeypatch, "recirculate")
        nat, nat_hist = probed_run(config, img, "native")
        assert len(calls) == 6
        ref, ref_hist = probed_run(config, img, "numpy")
        for run, hist in ((ref, ref_hist), (whole, whole_hist)):
            assert_same_run(nat, run)
            assert nat_hist == hist and len(nat_hist) == 3

    @pytest.mark.parametrize(
        "engine_kw,extra",
        [
            ({"recirculate": False}, {"threshold": 4}),
            ({}, {"threshold": 4, "decomposition_levels": 2}),
            ({"protection": "secded"}, {"threshold": 4}),
        ],
        ids=["single-pass", "levels2", "protected"],
    )
    def test_other_runs_never_take_the_kernel(self, rng, monkeypatch, engine_kw, extra):
        config = cfg(**extra)
        img = random_image(rng, config.image_height, config.image_width)

        def refuse(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("native recirculate kernel called")

        monkeypatch.setattr(native, "recirculate", refuse)
        nat, _ = probed_run(config, img, "native", **engine_kw)
        ref, _ = probed_run(config, img, "numpy", **engine_kw)
        assert_same_run(nat, ref)

    def test_kernel_refuses_mismatched_buffers(self):
        image = np.zeros((8, 8), dtype=np.int64)
        state = np.zeros((4, 8), dtype=np.int64)
        bands = np.zeros((2, 4, 8), dtype=np.int64)
        kw = dict(threshold=1, exempt_ll=False, ll_dpcm=False, wrap_bits=None, pixel_max=255)
        with pytest.raises(ConfigError, match="int32"):
            native.recirculate(image, state, 3, bands, bands.copy(), **kw)
        planes = np.zeros((2, 4, 8), dtype=np.int32)
        with pytest.raises(ConfigError, match="do not fit"):
            native.recirculate(image, state, 7, bands, planes, **kw)
        with pytest.raises(ConfigError, match="shape"):
            native.recirculate(image, state[:2], 3, bands, planes, **kw)

    @given(recirculating_cases())
    @settings(max_examples=60, deadline=None)
    def test_differential_recirculating_runs(self, case):
        """The native kernel, the NumPy step and (small, single-level,
        plan-free frames) the register-level engine agree on outputs,
        reconstruction, stats, band histograms and capacity errors."""
        config, image, plan = case
        nat, nat_hist = probed_run(config, image, "native", memory_plan=plan)
        ref, ref_hist = probed_run(config, image, "numpy", memory_plan=plan)
        if isinstance(ref, str):
            assert ref.startswith("BRAM group") and nat == ref
            return
        assert_same_run(nat, ref)
        assert nat_hist == ref_hist and len(nat_hist) == 3
        if plan is None and not config.ll_dpcm and image.size <= 400:
            cycle = CompressedCycleEngine(
                config, BoxFilterKernel(config.window_size)
            ).run(image)
            assert np.array_equal(cycle.outputs, ref.outputs)
            assert np.array_equal(cycle.reconstruction, ref.reconstruction)


# ----------------------------------------------------------------------
# The fast path's fused sizing pass: native band_sizes == NumPy tier
# ----------------------------------------------------------------------


def fast_cases():
    """Level-1 fast-path frames: windows 2 .. 32, widths up to 64, odd
    and even heights up to 40 rows past the window."""
    return level1_cases(32, 64, lambda n: n + 40)


@needs_native
class TestFusedSizingPass:
    @given(fast_cases())
    @settings(max_examples=80, deadline=None)
    def test_differential_fast_frames(self, case):
        """The fused kernel, the NumPy tier's block route and the
        sequential loop agree on NBits, counts, totals, band and group
        peaks, outputs, stats, band histograms and capacity errors."""
        config, image, plan = case
        rows_per_group = None if plan is None else plan.payload.rows_per_group
        nat = band_stack_sizes(
            config, image, rows_per_group=rows_per_group, codec="native"
        )
        ref = band_stack_sizes(
            config, image, rows_per_group=rows_per_group, codec="numpy"
        )
        assert_same_sizes(nat, ref)
        kw = dict(memory_plan=plan, recirculate=False)
        nat_run, nat_hist = probed_run(config, image, "native", True, **kw)
        for codec, fast_path in (("numpy", True), ("numpy", False)):
            run, hist = probed_run(config, image, codec, fast_path, **kw)
            if isinstance(run, str):
                assert run.startswith("BRAM group") and nat_run == run
                continue
            assert_same_run(nat_run, run)
            assert nat_hist == hist and len(nat_hist) == 3

    def test_one_native_call_per_fast_frame(self, rng, monkeypatch):
        """A level-1 native fast frame, planned or not, makes exactly one
        native call: the fused sizing pass."""
        config = cfg(threshold=3)
        img = random_image(rng, config.image_height, config.image_width)
        loader = ("NativeUnavailable", "is_available", "load", "reset")
        kernels = [name for name in native.__all__ if name not in loader]
        plan = exact_capacity_plan(config, [10**6] * 4)
        for memory_plan in (None, plan):
            with monkeypatch.context() as patch:
                calls = [count_calls(patch, name) for name in kernels]
                CompressedEngine(
                    config,
                    BoxFilterKernel(config.window_size),
                    codec="native",
                    fast_path=True,
                    recirculate=False,
                    memory_plan=memory_plan,
                ).run(img)
            assert [name for made in calls for name in made] == ["band_sizes"]

    def test_wrapper_refuses_bad_buffers(self):
        kw = dict(
            threshold=1,
            exempt_ll=False,
            ll_dpcm=False,
            wrap_bits=None,
            management_bits_per_column=16,
        )
        image = np.zeros((8, 8), dtype=np.int64)
        strided = np.zeros((8, 16), dtype=np.int64)[:, ::2]
        for bad in (image.astype(np.int32), strided, image[None]):
            with pytest.raises(ConfigError, match="contiguous 2D int64"):
                native.band_sizes(bad, 4, **kw)
        cases = (
            (3, image),
            (0, image),
            (10, image),
            (4, image[:, :7].copy()),
            (6, image[:, :4].copy()),
        )
        for window, img in cases:
            with pytest.raises(ConfigError, match="do not fit"):
                native.band_sizes(img, window, **kw)
        with pytest.raises(ConfigError, match="threshold"):
            native.band_sizes(image, 4, **{**kw, "threshold": -1})
        for groups in (0, 3, 8):
            with pytest.raises(ConfigError, match="groups"):
                native.band_sizes(image, 4, groups=groups, **kw)


# ----------------------------------------------------------------------
# Fallback behaviour (runs everywhere, native or not)
# ----------------------------------------------------------------------


@pytest.fixture
def codec_state():
    """Fresh tier-resolution state before and after each fallback test."""
    reset_codec_state()
    yield
    reset_codec_state()


def _break_native(monkeypatch):
    def broken_load():
        raise native.NativeUnavailable("simulated broken toolchain")

    monkeypatch.setattr(native, "load", broken_load)


class TestFallback:
    def test_explicit_native_warns_once_then_stays_quiet(
        self, monkeypatch, codec_state
    ):
        _break_native(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_codec("native") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_codec("native") == "numpy"

    def test_auto_falls_back_silently(self, monkeypatch, codec_state):
        _break_native(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_codec("auto") == "numpy"

    def test_numpy_never_touches_the_native_probe(self, monkeypatch, codec_state):
        def exploding_load():  # pragma: no cover - must not run
            raise AssertionError("numpy tier probed the native loader")

        monkeypatch.setattr(native, "load", exploding_load)
        assert resolve_codec("numpy") == "numpy"

    def test_engine_runs_on_fallback_tier(self, rng, monkeypatch, codec_state):
        _break_native(monkeypatch)
        config = cfg(threshold=2)
        img = random_image(rng, config.image_height, config.image_width)
        kernel = BoxFilterKernel(config.window_size)
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = CompressedEngine(config, kernel, codec="native")
        assert engine.codec_resolved == "numpy"
        ref = CompressedEngine(config, kernel, codec="numpy").run(img)
        assert np.array_equal(engine.run(img).outputs, ref.outputs)

    def test_kill_switch_disables_native(self, monkeypatch, codec_state):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reset_codec_state()
        assert not native.is_available()
        assert resolve_codec("auto") == "numpy"

    def test_streaming_workers_fall_back(self, rng, monkeypatch, codec_state):
        # The kill switch travels through the environment, so forked
        # workers inherit it: every worker resolves to NumPy and the
        # streamed outputs still match the inline engine bit for bit.
        from repro.runtime import StreamingProcessor

        monkeypatch.setenv("REPRO_NATIVE", "0")
        reset_codec_state()
        config = cfg(image_width=16, image_height=12, window_size=4)
        kernel = BoxFilterKernel(4)
        frames = [random_image(rng, 12, 16) for _ in range(4)]
        spec = EngineSpec(config=config, kernel=kernel, codec="native")
        with pytest.warns(RuntimeWarning, match="falling back"):
            inline = CompressedEngine(config, kernel, codec="native")
        assert inline.codec_resolved == "numpy"
        expected = [inline.run(f).outputs for f in frames]
        with StreamingProcessor(spec, workers=2) as proc:
            results = list(proc.map(frames))
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert np.array_equal(got.outputs, want)
