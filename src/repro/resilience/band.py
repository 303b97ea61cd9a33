"""Protected band round-trip with fault injection and graceful re-sync.

This is the functional heart of the resilience subsystem: one band's
compressed representation is serialised into the three storage streams the
Memory Unit holds (per-row packed payload, NBits fields, BitMap words),
protected by the configured :class:`~repro.resilience.protection.\
ProtectionPolicy`, corrupted by the
:class:`~repro.resilience.injector.FaultInjector`, decoded (correcting
what the scheme can correct), and reconstructed.

Degradation model (the hardware's column re-sync):

- a *detected-but-uncorrectable* payload word zero-fills its row's slice of
  the coefficient plane (the row's unpacker drops the rest of its stream
  and waits for the next band);
- a detected-uncorrectable NBits/BitMap word zero-fills the whole band —
  the management streams drive every row's unpacker, so their loss
  desynchronises all of them;
- a *silent* management flip that changes the implied payload length is
  caught by the length bookkeeping the real unpacker performs (it runs out
  of, or is left holding, payload bits) and triggers the same row re-sync;
- a silent payload flip decodes cleanly into wrong coefficients — the
  silent-corruption case the campaign quantifies.

Every round-trip returns a :class:`BandFaultReport`; corrupted pixels are
counted against the fault-free reconstruction of the same band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ArchitectureConfig
from ..errors import BitstreamError, ConfigError
from ..core.packing.bitstream import bits_to_values, values_to_bits
from ..core.packing.packer import BandCodec, EncodedBand, band_widths
from ..observability.probe import Probe
from .injector import FaultInjector
from .protection import ProtectionPolicy, resolve_policy


@dataclass(frozen=True, slots=True)
class BandFaultReport:
    """Fault outcome of one protected band round-trip."""

    flips_injected: int = 0
    corrected_words: int = 0
    uncorrectable_words: int = 0
    #: Rows zero-filled after a payload-stream re-sync.
    resync_rows: int = 0
    #: 1 when the whole band was zero-filled (management-stream loss).
    resync_bands: int = 0
    #: Pixels of this band's reconstruction differing from the clean one.
    corrupted_pixels: int = 0

    @property
    def detected(self) -> bool:
        """True when the protection (or length bookkeeping) flagged anything."""
        return bool(self.uncorrectable_words or self.resync_rows or self.resync_bands)

    @property
    def silent(self) -> bool:
        """Corruption that nothing detected — the worst failure class."""
        return self.corrupted_pixels > 0 and not self.detected


@dataclass(frozen=True, slots=True)
class FaultRecord:
    """One traversal's fault outcome inside an engine run."""

    traversal: int
    report: BandFaultReport


@dataclass(slots=True)
class EngineFaultSummary:
    """Aggregated fault outcome of one engine run."""

    policy_name: str
    records: list[FaultRecord] = field(default_factory=list)

    def add(self, traversal: int, report: BandFaultReport) -> None:
        """Append one traversal's report."""
        self.records.append(FaultRecord(traversal=traversal, report=report))

    @property
    def bands(self) -> int:
        """Bands processed."""
        return len(self.records)

    @property
    def flips_injected(self) -> int:
        """Total injected bit flips."""
        return sum(r.report.flips_injected for r in self.records)

    @property
    def corrected_words(self) -> int:
        """Words whose upset was corrected transparently."""
        return sum(r.report.corrected_words for r in self.records)

    @property
    def uncorrectable_words(self) -> int:
        """Detected-but-uncorrectable words."""
        return sum(r.report.uncorrectable_words for r in self.records)

    @property
    def resync_events(self) -> int:
        """Row plus band re-sync events."""
        return sum(r.report.resync_rows + r.report.resync_bands for r in self.records)

    @property
    def corrupted_pixels(self) -> int:
        """Band-level corrupted pixels summed over the run."""
        return sum(r.report.corrupted_pixels for r in self.records)

    @property
    def silent_bands(self) -> int:
        """Bands corrupted without any detection."""
        return sum(1 for r in self.records if r.report.silent)

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of bands with silent corruption."""
        if not self.records:
            return 0.0
        return self.silent_bands / len(self.records)


class ResilientBandCodec:
    """Band round-trip through the protected, fault-injected memory path.

    Parameters
    ----------
    config:
        Architecture geometry (threshold, wavelet settings, ...).
    protection:
        A :class:`ProtectionPolicy` or level name (``"none"``, ``"parity"``,
        ``"tmr-nbits"``, ``"secded"``).
    injector:
        Optional fault injector; ``None`` models a radiation-free run.
    on_uncorrectable:
        ``"resync"`` (graceful degradation, default) or ``"raise"``
        (propagate :class:`~repro.errors.BitstreamError` like unprotected
        hardware would surface a parity trap).
    """

    def __init__(
        self,
        config: ArchitectureConfig,
        protection: ProtectionPolicy | str | None = None,
        *,
        injector: FaultInjector | None = None,
        on_uncorrectable: str = "resync",
        probe: Probe | None = None,
    ) -> None:
        if on_uncorrectable not in ("resync", "raise"):
            raise ConfigError(
                f"on_uncorrectable must be 'resync' or 'raise', "
                f"got {on_uncorrectable!r}"
            )
        self.config = config
        self.policy = resolve_policy(protection)
        self.injector = injector
        self.on_uncorrectable = on_uncorrectable
        #: Optional :class:`~repro.observability.probe.Probe` receiving the
        #: correction/re-sync counters; threaded through to an unprobed
        #: injector so injected-flip counts land in the same registry.
        self.probe = probe
        if probe is not None and injector is not None and injector.probe is None:
            injector.probe = probe
        self._codec = BandCodec(config)

    # ------------------------------------------------------------------

    def _stream_roundtrip(
        self, bits: np.ndarray, stream: str
    ) -> tuple[np.ndarray, int, int, int]:
        """Protect, upset and recover one stream.

        Returns ``(recovered_bits, flips, corrected, uncorrectable)``.
        """
        scheme = self.policy.scheme_for(stream)
        code = scheme.encode_stream(bits)
        flips = 0
        if self.injector is not None:
            code, flips = self.injector.inject_words(code, stream)
        outcome = scheme.decode_stream(code, int(np.asarray(bits).size))
        if outcome.uncorrectable_words and self.on_uncorrectable == "raise":
            raise BitstreamError(
                f"{outcome.uncorrectable_words} uncorrectable word(s) in the "
                f"{stream} stream under {scheme.name} protection"
            )
        return outcome.bits, flips, outcome.corrected_words, outcome.uncorrectable_words

    def roundtrip(
        self, band: np.ndarray
    ) -> tuple[np.ndarray, BandFaultReport, EncodedBand]:
        """Compress, store-with-faults and reconstruct one ``(N, W)`` band.

        Returns ``(decoded_band, report, clean_encoding)`` — the encoding is
        fault-free and is what occupancy accounting should consume (storage
        is sized at write time, before any upset happens).
        """
        cfg = self.config
        encoded = self._codec.encode_band(band)
        clean = self._codec.decode_band(encoded)

        n_rows, n_cols = encoded.bitmap.shape
        fw = cfg.nbits_field_width

        flips = corrected = uncorrectable = 0
        band_resync = False
        resync_rows: set[int] = set()

        # Management streams first: they decide every row's field widths.
        nbits_flat = encoded.nbits.astype(np.int64).ravel()
        nbits_bits = values_to_bits(nbits_flat, np.full(nbits_flat.size, fw))
        rec, f, c, u = self._stream_roundtrip(nbits_bits, "nbits")
        flips, corrected, uncorrectable = flips + f, corrected + c, uncorrectable + u
        if u:
            band_resync = True
        nbits_rec = bits_to_values(
            rec, np.full(nbits_flat.size, fw), signed=False
        ).reshape(2, n_cols)

        bitmap_bits = encoded.bitmap.astype(np.uint8).ravel()
        rec, f, c, u = self._stream_roundtrip(bitmap_bits, "bitmap")
        flips, corrected, uncorrectable = flips + f, corrected + c, uncorrectable + u
        if u:
            band_resync = True
        bitmap_rec = rec.astype(bool).reshape(n_rows, n_cols)

        # Widths every unpacker will assume, from the recovered management.
        widths_rec = band_widths(nbits_rec, bitmap_rec)

        plane = np.zeros((n_rows, n_cols), dtype=np.int64)
        if not band_resync:
            for i in range(n_rows):
                row_bits = encoded.row_payloads[i]
                rec, f, c, u = self._stream_roundtrip(row_bits, "payload")
                flips += f
                corrected += c
                uncorrectable += u
                if u:
                    resync_rows.add(i)
                    continue
                expected = int(widths_rec[i].sum())
                if expected != rec.size:
                    # A silent management flip desynchronised this row's
                    # unpacker — length bookkeeping catches it: re-sync.
                    resync_rows.add(i)
                    continue
                plane[i] = bits_to_values(rec, widths_rec[i], signed=True)

        if band_resync:
            decoded = np.zeros_like(clean)
        else:
            decoded = self._codec.reconstruct(plane)

        report = BandFaultReport(
            flips_injected=flips,
            corrected_words=corrected,
            uncorrectable_words=uncorrectable,
            resync_rows=len(resync_rows),
            resync_bands=int(band_resync),
            corrupted_pixels=int(np.count_nonzero(decoded != clean)),
        )
        if self.probe is not None:
            if corrected:
                self.probe.count("repro_seu_corrected_total", corrected)
            if uncorrectable:
                self.probe.count("repro_seu_uncorrectable_total", uncorrectable)
            if report.resync_rows or report.resync_bands:
                self.probe.count(
                    "repro_resync_events_total",
                    report.resync_rows + report.resync_bands,
                )
            if report.silent:
                self.probe.count("repro_silent_bands_total")
        return decoded, report, encoded
