"""Architecture configuration shared by the sliding-window engines.

The paper's architecture is parameterised by the input image geometry, the
window size, the pixel bit width and the lossiness threshold.  All engines,
accounting helpers and hardware models consume a single validated
:class:`ArchitectureConfig` value so that every component agrees on the same
derived quantities (coefficient bit width, management-bit formulas, FIFO
depths, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterator

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

#: Window sizes evaluated throughout the paper (Tables I-X, Fig 13).
PAPER_WINDOW_SIZES: tuple[int, ...] = (8, 16, 32, 64, 128)

#: Image widths/resolutions evaluated in Tables I-V.
PAPER_IMAGE_WIDTHS: tuple[int, ...] = (512, 1024, 2048, 3840)

#: Threshold values evaluated in Tables II-V and Fig 13.
PAPER_THRESHOLDS: tuple[int, ...] = (0, 2, 4, 6)


@dataclass(frozen=True, slots=True)
class ArchitectureConfig:
    """Static parameters of one sliding-window architecture instance.

    Parameters
    ----------
    image_width, image_height:
        Input resolution in pixels (W x H in the paper's notation).
    window_size:
        Side length N of the square active window.  Must be even because the
        single-level 2D Haar transform consumes pixels in 2x2 blocks.
    pixel_bits:
        Bit width of one input pixel (8 throughout the paper).
    threshold:
        Lossiness threshold T.  Wavelet coefficients with ``abs(c) < T`` are
        zeroed before packing.  ``0`` selects lossless operation.
    threshold_bands:
        Which sub-bands the threshold applies to: ``"all"`` (paper's
        description) or ``"details"`` (LL exempt).  Lossless behaviour is
        identical for both.
    coefficient_bits:
        Bit width used to represent a wavelet coefficient in two's
        complement.  The single-level integer Haar transform of b-bit pixels
        needs at most ``b + 2`` bits for the detail bands, which is the
        default.  The paper's RTL uses 8 bits and relies on natural-image
        statistics; pass ``coefficient_bits=8`` with ``wrap_coefficients``
        to model that design point bit-exactly.
    wrap_coefficients:
        When true, coefficients wrap modulo ``2**coefficient_bits`` (two's
        complement hardware overflow) instead of widening.  Reconstruction
        wraps identically, so lossless operation is preserved for inputs
        whose transform stays in range and degrades gracefully otherwise.
    decomposition_levels:
        Wavelet decomposition depth (1 in the paper; Section IV.C discusses
        2-3 levels).  Deeper levels re-decompose the LL band in place,
        which shrinks its dominant storage cost at extra hardware cost; the
        window and image width must be divisible by ``2**levels``.
    ll_dpcm:
        Extension beyond the paper: store the LL band as horizontal
        first differences (one subtractor in hardware), attacking the
        term that dominates the compressed footprint.  DPCM'd LL samples
        are always exempt from thresholding (a lossy delta would
        propagate along the whole row on reconstruction).
    """

    image_width: int
    image_height: int
    window_size: int
    pixel_bits: int = 8
    threshold: int = 0
    threshold_bands: str = "all"
    coefficient_bits: int = field(default=-1)
    wrap_coefficients: bool = False
    decomposition_levels: int = 1
    ll_dpcm: bool = False

    def __post_init__(self) -> None:
        if self.coefficient_bits == -1:
            object.__setattr__(
                self, "coefficient_bits", self.pixel_bits + 2 * max(self.decomposition_levels, 1)
            )
        if self.image_width <= 0 or self.image_height <= 0:
            raise ConfigError(
                f"image dimensions must be positive, got "
                f"{self.image_width}x{self.image_height}"
            )
        if self.image_width % 2 != 0:
            raise ConfigError(
                f"image_width must be even (the IWT consumes column pairs), "
                f"got {self.image_width}"
            )
        if self.window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {self.window_size}")
        if self.window_size % 2 != 0:
            raise ConfigError(
                f"window_size must be even for the 2D Haar transform, "
                f"got {self.window_size}"
            )
        if self.window_size > self.image_width or self.window_size > self.image_height:
            raise ConfigError(
                f"window ({self.window_size}) exceeds image "
                f"({self.image_width}x{self.image_height})"
            )
        if not 1 <= self.pixel_bits <= 16:
            raise ConfigError(f"pixel_bits must be in [1, 16], got {self.pixel_bits}")
        if self.threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if self.threshold_bands not in ("all", "details"):
            raise ConfigError(
                f"threshold_bands must be 'all' or 'details', "
                f"got {self.threshold_bands!r}"
            )
        if self.coefficient_bits < self.pixel_bits:
            raise ConfigError(
                f"coefficient_bits ({self.coefficient_bits}) must be at least "
                f"pixel_bits ({self.pixel_bits})"
            )
        if self.coefficient_bits > 32:
            raise ConfigError(
                f"coefficient_bits must be <= 32, got {self.coefficient_bits}"
            )
        if not 1 <= self.decomposition_levels <= 4:
            raise ConfigError(
                f"decomposition_levels must be in [1, 4], got "
                f"{self.decomposition_levels}"
            )
        factor = 1 << self.decomposition_levels
        if self.window_size % factor or self.image_width % factor:
            raise ConfigError(
                f"window_size and image_width must be divisible by "
                f"2^levels = {factor} for {self.decomposition_levels} "
                f"decomposition level(s)"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def buffered_columns(self) -> int:
        """Number of column slots held in the line buffers: ``W - N``.

        This matches the paper's FIFO depth (Section III): ``(N-1)`` FIFOs of
        depth ``(W-N)`` pixels.
        """
        return self.image_width - self.window_size

    @property
    def fifo_count(self) -> int:
        """Number of line-buffer FIFOs in the traditional architecture."""
        return self.window_size - 1

    @property
    def lossless(self) -> bool:
        """True when the configured threshold performs no coefficient zeroing."""
        return self.threshold == 0

    @property
    def pixel_max(self) -> int:
        """Largest representable pixel value (unsigned)."""
        return (1 << self.pixel_bits) - 1

    @property
    def wrap_bits(self) -> int | None:
        """Width the Haar datapath wraps at, or ``None`` when it widens."""
        return self.coefficient_bits if self.wrap_coefficients else None

    def check_pixels(self, pixels: "np.ndarray") -> None:
        """Raise :class:`ConfigError` unless every pixel is in ``[0, pixel_max]``.

        The one range check: the engines, ``StreamingProcessor.submit``
        (before a frame takes a ring slot) and the gateway's frame decode
        all call it, so a frame is refused the same way everywhere.
        """
        if pixels.size and (pixels.min() < 0 or pixels.max() > self.pixel_max):
            raise ConfigError(
                f"pixels outside [0, {self.pixel_max}] for "
                f"{self.pixel_bits}-bit input"
            )

    # ------------------------------------------------------------------
    # Management-bit formulas (Section IV.C / V.E)
    # ------------------------------------------------------------------

    @property
    def nbits_field_width(self) -> int:
        """Bits used to store one NBits value (4 in the paper for 8-bit pixels)."""
        # NBits ranges over 1..coefficient_bits; 4 bits suffice up to 15.
        return max(4, (self.coefficient_bits).bit_length())

    @property
    def nbits_total_bits(self) -> int:
        """Total NBits management storage: ``2 x 4 x (W - N)`` bits.

        Each buffered column carries two sub-band column vectors (LL+LH on
        even columns, HL+HH on odd columns), each with its own NBits field.
        """
        return 2 * self.nbits_field_width * self.buffered_columns

    @property
    def bitmap_total_bits(self) -> int:
        """Total BitMap management storage: ``(W - N) x N`` bits."""
        return self.buffered_columns * self.window_size

    @property
    def management_total_bits(self) -> int:
        """All management bits (NBits + BitMap) for one buffer generation."""
        return self.nbits_total_bits + self.bitmap_total_bits

    @property
    def traditional_buffer_bits(self) -> int:
        """Raw line-buffer storage used by the traditional architecture.

        ``(W - N) x (N - 1) x pixel_bits`` exactly as Section III's worked
        example (512 - 3) x 2 x 8 bits.
        """
        return self.buffered_columns * self.fifo_count * self.pixel_bits

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_threshold(self, threshold: int) -> "ArchitectureConfig":
        """Return a copy of this configuration with a different threshold."""
        return replace(self, threshold=threshold)

    def with_window(self, window_size: int) -> "ArchitectureConfig":
        """Return a copy of this configuration with a different window size."""
        return replace(self, window_size=window_size)

    def describe(self) -> str:
        """One-line human readable summary used by the CLI and benches."""
        mode = "lossless" if self.lossless else f"lossy(T={self.threshold})"
        return (
            f"{self.image_width}x{self.image_height} window={self.window_size} "
            f"{self.pixel_bits}bpp {mode}"
        )


def paper_configs(
    image_width: int,
    image_height: int | None = None,
    *,
    thresholds: tuple[int, ...] = PAPER_THRESHOLDS,
    window_sizes: tuple[int, ...] = PAPER_WINDOW_SIZES,
) -> Iterator[ArchitectureConfig]:
    """Yield every (window, threshold) configuration evaluated by the paper.

    Iterates window-major, threshold-minor — the same order as the rows and
    columns of Tables II-V.
    """
    if image_height is None:
        image_height = image_width
    for n in window_sizes:
        for t in thresholds:
            yield ArchitectureConfig(
                image_width=image_width,
                image_height=image_height,
                window_size=n,
                threshold=t,
            )
