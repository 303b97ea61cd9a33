"""Shared test helpers (importable from every test via the conftest path hook)."""

from __future__ import annotations

import numpy as np


def random_image(
    rng: np.random.Generator, height: int, width: int, *, smooth: bool = False
) -> np.ndarray:
    """Random 8-bit test image; ``smooth=True`` gives compressible content."""
    if not smooth:
        return rng.integers(0, 256, size=(height, width), dtype=np.int64)
    base = int(rng.integers(40, 200))
    ramp = np.linspace(0, 30, width)[None, :] + np.linspace(0, 20, height)[:, None]
    noise = rng.integers(-3, 4, size=(height, width))
    return np.clip(base + ramp + noise, 0, 255).astype(np.int64)


def group_peaks(config, frame: np.ndarray, rows_per_group: int) -> np.ndarray:
    """Oracle: each payload group's peak raw occupancy over a lossless frame.

    Lossless bands are the raw rows; each traversal's width plane folds
    into aligned groups of ``rows_per_group`` rows, which slide through
    the ``W - N`` column slots of the line-buffer ring.
    """
    from repro.core.stats import analyze_band, sliding_occupancy

    n, w = config.window_size, config.image_width
    peaks = np.zeros(n // rows_per_group, dtype=np.int64)
    prev = None
    for y in range(n - 1, config.image_height):
        widths = analyze_band(config, frame[y - n + 1 : y + 1]).widths
        cur = widths.reshape(n // rows_per_group, rows_per_group, w).sum(axis=1)
        occ = sliding_occupancy(cur if prev is None else prev, cur, n, 0)
        peaks = np.maximum(peaks, occ.max(axis=-1))
        prev = cur
    return peaks


def exact_capacity_plan(config, group_bits):
    """The default memory plan with payload groups of exactly ``group_bits``.

    Each group is ``group_bits[g]`` units of a one-bit primitive, so its
    enforced capacity is that many bits.
    """
    from dataclasses import replace

    from repro.hardware.planner import PayloadPlacement, plan_placement
    from repro.hardware.primitives import MemoryPrimitive, PortConfig

    bit = MemoryPrimitive(
        name="BIT", kind="bram18", unit_bits=1, configs=(PortConfig(1, 1),)
    )
    base = plan_placement(config, np.zeros(config.window_size))
    return replace(
        base,
        payload=PayloadPlacement(
            primitive=bit,
            rows_per_group=config.window_size // len(group_bits),
            per_group_units=tuple(int(b) for b in group_bits),
            cost=0,
        ),
    )


def scalar_forward_inplace(image, levels: int = 1, wrap_bits=None) -> np.ndarray:
    """Oracle for ``forward_inplace``: the scalar Fig 5 block on every 2x2
    block of each level's ``2**level``-strided grid (batch axes looped)."""
    from repro.core.transform.hwmodel import Haar2DBlock

    block = Haar2DBlock(wrap_bits=wrap_bits)
    plane = np.array(image, dtype=np.int64)
    for level in range(levels):
        for i00, i01, i10, i11 in _block_corners(plane.shape, level):
            x = (int(plane[i00]), int(plane[i01]), int(plane[i10]), int(plane[i11]))
            ll, lh, hl, hh = block.forward(*x)
            plane[i00], plane[i01], plane[i10], plane[i11] = ll, hl, lh, hh
    return plane


def scalar_inverse_inplace(plane, levels: int = 1, wrap_bits=None) -> np.ndarray:
    """Oracle for ``inverse_inplace``: the scalar Fig 10 block, deepest
    level first."""
    from repro.core.transform.hwmodel import InverseHaar2DBlock

    block = InverseHaar2DBlock(wrap_bits=wrap_bits)
    out = np.array(plane, dtype=np.int64)
    for level in reversed(range(levels)):
        for i00, i01, i10, i11 in _block_corners(out.shape, level):
            c = (int(out[i00]), int(out[i10]), int(out[i01]), int(out[i11]))
            out[i00], out[i01], out[i10], out[i11] = block.inverse(*c)
    return out


def _block_corners(shape, level: int):
    """Index tuples of the four corners of every block at ``level``."""
    step = 1 << level
    h, w = shape[-2:]
    for batch in np.ndindex(*shape[:-2]):
        for i in range(0, h, 2 * step):
            for j in range(0, w, 2 * step):
                yield (
                    batch + (i, j),
                    batch + (i, j + step),
                    batch + (i + step, j),
                    batch + (i + step, j + step),
                )
