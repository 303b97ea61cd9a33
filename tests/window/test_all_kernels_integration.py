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
