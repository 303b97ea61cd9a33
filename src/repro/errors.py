"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends raised by NumPy)
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError, ValueError):
    """An architecture or experiment configuration is invalid.

    Raised eagerly at construction time (e.g. odd window size, window larger
    than the image, unsupported pixel bit width) so that misconfiguration
    never surfaces as a cryptic shape error deep inside a kernel.
    """


class BitstreamError(ReproError, ValueError):
    """A packed bit stream is malformed or was read past its end."""


class CapacityError(ReproError, RuntimeError):
    """A hardware buffer (FIFO / BRAM) overflowed its modelled capacity.

    The paper (Section V.E, *Current Limitations*) notes that the compression
    ratio is fixed at design time; a frame that compresses worse than the
    provisioned worst case overflows the memory unit.  The simulator raises
    this error in exactly that situation instead of silently dropping bits.
    """


class StateError(ReproError, RuntimeError):
    """An architectural block was driven outside its legal state sequence."""


class ChaosError(ReproError, RuntimeError):
    """A fault deliberately injected by the process-level chaos harness.

    Only ever raised on purpose (see :mod:`repro.resilience.chaos`); seeing
    one escape a supervised stream means the recovery ladder is broken.
    """


class DatasetError(ReproError, ValueError):
    """A benchmark dataset request was invalid (unknown scene class, etc.)."""
