"""Deterministic, seedable soft-error (SEU) fault injector.

The compressed architecture's central trade — many image rows folded into
few BRAMs — concentrates state, so a single event upset in a line buffer
corrupts far more output pixels than in the traditional design.  This
module models those upsets: bit flips in the *stored* representation of
the three Memory Unit streams,

- ``"payload"`` — the packed coefficient words (per-row Bit Packing FIFOs),
- ``"nbits"``   — the NBits management fields,
- ``"bitmap"``  — the significance BitMap words.

Two upset models are supported:

- **rate mode** (``upset_rate``): every stored bit flips independently with
  the given probability — the steady-state SEU model used by the campaign
  sweeps;
- **per-word mode** (``flips_per_word``): exactly ``k`` distinct bits flip
  in every protected code word — the worst-case-aligned model the
  acceptance criteria use (1 flip/word must be transparent under SECDED,
  2 flips/word must degrade gracefully).

All randomness flows from one :class:`numpy.random.Generator` seeded at
construction, so a campaign cell is exactly reproducible from
``(seed, geometry, scheme, rate)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.probe import Probe

#: Storage streams the injector can target.
STREAM_NAMES: tuple[str, ...] = ("payload", "nbits", "bitmap")


class FaultInjector:
    """Flips bits in modelled storage streams at a configurable rate.

    Parameters
    ----------
    upset_rate:
        Independent per-bit flip probability (rate mode).
    flips_per_word:
        When given, overrides ``upset_rate``: exactly this many distinct
        bit positions flip in *every* word passed to :meth:`inject_words`.
    seed:
        RNG seed; identical seeds reproduce identical fault patterns.
    targets:
        Subset of :data:`STREAM_NAMES` the injector hits; other streams
        pass through untouched.
    """

    def __init__(
        self,
        *,
        upset_rate: float = 0.0,
        flips_per_word: int | None = None,
        seed: int = 0,
        targets: tuple[str, ...] = STREAM_NAMES,
        probe: Probe | None = None,
    ) -> None:
        if upset_rate < 0.0 or upset_rate > 1.0:
            raise ConfigError(f"upset_rate must be in [0, 1], got {upset_rate}")
        if flips_per_word is not None and flips_per_word < 0:
            raise ConfigError(
                f"flips_per_word must be >= 0, got {flips_per_word}"
            )
        unknown = set(targets) - set(STREAM_NAMES)
        if unknown:
            raise ConfigError(
                f"unknown fault targets {sorted(unknown)}; "
                f"expected a subset of {STREAM_NAMES}"
            )
        self.upset_rate = upset_rate
        self.flips_per_word = flips_per_word
        self.seed = seed
        self.targets = tuple(targets)
        #: Optional :class:`~repro.observability.probe.Probe` counting
        #: injected flips (``repro_seu_injected_total{stream=...}``).
        self.probe: Probe | None = probe
        self._rng = np.random.default_rng(seed)
        #: Flips injected so far, per stream name.
        self.flips: dict[str, int] = {name: 0 for name in STREAM_NAMES}

    def _count_flips(self, stream: str, n_flips: int) -> None:
        """Record injected flips on the probe (if attached)."""
        if self.probe is not None and n_flips:
            self.probe.count("repro_seu_injected_total", n_flips, stream=stream)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Re-seed the RNG and zero the flip counters (fresh campaign cell)."""
        self._rng = np.random.default_rng(self.seed)
        self.flips = {name: 0 for name in STREAM_NAMES}

    @property
    def total_flips(self) -> int:
        """Flips injected across every stream since construction/reset."""
        return sum(self.flips.values())

    # ------------------------------------------------------------------

    def inject_words(self, words: np.ndarray, stream: str) -> tuple[np.ndarray, int]:
        """Corrupt a ``(n_words, word_bits)`` 0/1 array; returns a copy.

        ``stream`` selects the counter and the target filter; untargeted
        streams are returned unchanged (no RNG draw, so adding a target
        does not perturb the fault pattern of the others).
        """
        if stream not in STREAM_NAMES:
            raise ConfigError(f"unknown stream {stream!r}, expected {STREAM_NAMES}")
        arr = np.atleast_2d(np.asarray(words, dtype=np.uint8))
        if stream not in self.targets or arr.size == 0:
            return arr, 0
        if self.flips_per_word is not None:
            k = min(self.flips_per_word, arr.shape[1])
            if k == 0:
                return arr, 0
            # k distinct positions per word, uniformly without replacement.
            order = np.argsort(self._rng.random(arr.shape), axis=1)[:, :k]
            mask = np.zeros(arr.shape, dtype=bool)
            np.put_along_axis(mask, order, True, axis=1)
        else:
            if self.upset_rate == 0.0:
                return arr, 0
            mask = self._rng.random(arr.shape) < self.upset_rate
        n_flips = int(mask.sum())
        if n_flips == 0:
            return arr, 0
        out = arr.copy()
        out[mask] ^= 1
        self.flips[stream] += n_flips
        self._count_flips(stream, n_flips)
        return out, n_flips

    def inject_bits(self, bits: np.ndarray, stream: str) -> tuple[np.ndarray, int]:
        """Rate-mode corruption of a flat bit array (no word structure)."""
        flat = np.asarray(bits, dtype=np.uint8).ravel()
        out, n = self.inject_words(flat[None, :], stream)
        return out[0], n
