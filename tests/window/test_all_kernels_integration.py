"""Integration matrix: every kernel through both architectures.

The architecture is kernel-agnostic (Section V); this matrix hardens that
claim by running every shipped kernel through the compressed engine and
asserting lossless equality with the traditional architecture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ArchitectureConfig,
    CompressedCycleEngine,
    CompressedEngine,
    TraditionalEngine,
)
from repro.core.stats import sliding_band_stack
from repro.core.window.golden import golden_apply
from repro.errors import ConfigError
from repro.kernels import (
    BoxFilterKernel,
    CensusKernel,
    ConvolutionKernel,
    DilateKernel,
    ErodeKernel,
    GaussianKernel,
    HarrisResponseKernel,
    MedianKernel,
    MorphGradientKernel,
    SobelMagnitudeKernel,
    TemplateMatchKernel,
)

from helpers import random_image

N = 8


def all_kernels():
    rng = np.random.default_rng(7)
    return [
        BoxFilterKernel(N),
        GaussianKernel(N / 5.0, N),
        SobelMagnitudeKernel(N),
        MedianKernel(N),
        MedianKernel(N, lower=True),
        HarrisResponseKernel(N),
        TemplateMatchKernel(rng.integers(0, 256, size=(N, N))),
        ErodeKernel(N),
        DilateKernel(N),
        MorphGradientKernel(N),
        CensusKernel(N),
        ConvolutionKernel(rng.integers(-3, 4, size=(N, N)), name="randconv"),
    ]


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
def test_lossless_equality_for_every_kernel(rng, kernel):
    config = ArchitectureConfig(image_width=24, image_height=20, window_size=N)
    img = random_image(rng, 20, 24)
    comp = CompressedEngine(config, kernel).run(img)
    trad = TraditionalEngine(config, kernel).run(img)
    if comp.outputs.dtype == np.uint64:
        assert np.array_equal(comp.outputs, trad.outputs)
    else:
        assert np.allclose(comp.outputs, trad.outputs)


@pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
def test_golden_apply_band_stack_equals_band_calls(rng, kernel):
    """A ``(T, N, W)`` band stack gives each band's output row, bit for bit
    what T separate 2-D calls give; and the 2-D route over the whole
    frame still gives those same rows (float taps included)."""
    image = random_image(rng, 20, 24)
    view = sliding_band_stack(image, N)
    per_band = np.stack([golden_apply(band, N, kernel)[0] for band in view])
    assert per_band.shape == (20 - N + 1, 24 - N + 1)
    for stack in (view, np.ascontiguousarray(view)):
        got = golden_apply(stack, N, kernel)
        assert got.dtype == per_band.dtype
        assert np.array_equal(got, per_band)
    frame = golden_apply(image, N, kernel)
    assert frame.dtype == per_band.dtype
    assert np.array_equal(frame, per_band)
    with pytest.raises(ConfigError, match="bands must be"):
        golden_apply(view[:, 1:], N, kernel)


@pytest.mark.slow
@pytest.mark.parametrize(
    "kernel",
    [BoxFilterKernel(N), MedianKernel(N), CensusKernel(N)],
    ids=lambda k: k.name,
)
def test_lossy_outputs_consistent_between_paths(rng, kernel):
    """The lossy vectorised engine and the register-level engine agree
    for every kernel family."""
    config = ArchitectureConfig(
        image_width=24, image_height=20, window_size=N, threshold=4
    )
    img = random_image(rng, 20, 24, smooth=True)
    fast = CompressedEngine(config, kernel).run(img)
    exact = CompressedCycleEngine(config, kernel).run(img)
    if fast.outputs.dtype == np.uint64:
        assert np.array_equal(fast.outputs, exact.outputs)
    else:
        assert np.allclose(fast.outputs, exact.outputs)
