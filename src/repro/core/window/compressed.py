"""The modified (compressed line-buffer) sliding window architecture.

Two engines:

- :class:`CompressedEngine` — the production path.  Per row traversal it
  compresses the exiting window band (IWT -> threshold -> NBits/bitmap
  sizing), reconstructs it, and slides the kernel over the band the
  hardware would actually present: the newest row raw from the input, the
  older rows reconstructed from the line buffers.  With
  ``recirculate=True`` (default, matching the hardware dataflow of Fig 4)
  reconstructed rows are re-compressed on every traversal, so lossy error
  feedback is modelled faithfully; ``recirculate=False`` gives the
  single-pass semantics most compression papers (this one included) quote
  MSE numbers for.
- :class:`CompressedCycleEngine` — the one register-level model: streams
  every pixel through the Fig 4 dataflow and the hardware block models
  (Fig 5 IWT, Fig 7 NBits gates, Fig 6 packers, Fig 8 unpackers, Fig 10
  IIWT) with FIFO causality checks, for bit-true validation on small
  images.

In lossless mode every reconstruction is exact, so both engines produce
output identical to the traditional architecture — the paper's headline
functional claim, property-tested in the suite.

:class:`CompressedEngine` has two execution strategies with identical
results:

- the *sequential* reference path, required whenever a traversal's
  input depends on the previous traversal's lossy reconstruction
  (``recirculate=True`` with a non-zero threshold), or when the memory
  path is protected/injected.  Only the reconstruction feeds back from
  one traversal to the next, so the path runs in chunks of traversals:
  a *traversal step* writes each traversal's band and thresholded
  coefficient plane, then one *accounting tail* per chunk produces the
  kernel outputs (one :func:`~repro.core.window.golden.golden_apply`
  over the band stack), the sizes, occupancy peaks and plan check.  The
  step is one native :func:`~repro.core.packing.native.recirculate`
  call per chunk for level-1 recirculating runs on the native tier, and
  otherwise :func:`~repro.core.stats.analyze_band` plus a
  reconstruction per traversal (the native kernel's oracle), the
  reconstruction coming from ``ResilientBandCodec.roundtrip`` on a
  protected or injected memory path;
- the *fast* frame-at-once path — when every traversal band is known up
  front to be the raw input rows (lossless, or ``recirculate=False``),
  one :func:`~repro.core.stats.band_stack_sizes` call sizes the whole
  frame from its shared ``2**L``-row blocks, at every decomposition
  level and with or without a memory plan (whose group columns come
  from the same pass), and a single whole-frame
  :func:`~repro.core.window.golden.golden_apply` produces the kernel
  outputs.  Bit-identical to the sequential path (outputs, widths,
  occupancy peaks, stats, probe distributions, capacity errors) —
  property-tested.

Neither path materialises payload bits: both size bands with the
compressor's threshold-and-size step.  The bit streams themselves are
checked by the codec round trip (``BandCodec.decode_plane(encode_band(b))
== analyze_band(b).plane``) and by :class:`CompressedCycleEngine`.
"""

from __future__ import annotations

import numpy as np

from collections import deque
from dataclasses import dataclass
from math import ceil
from typing import TYPE_CHECKING

from ...config import ArchitectureConfig
from ...errors import CapacityError, ConfigError, StateError
from ...kernels.base import WindowKernel
from ...observability.probe import NULL_PROBE
from ...resilience.band import EngineFaultSummary, ResilientBandCodec
from ...resilience.injector import FaultInjector
from ...resilience.protection import ProtectionPolicy, resolve_policy
from ..packing import native as native_codec
from ..packing.hw_pack import BitPackingUnit
from ..packing.hw_unpack import BitUnpackingUnit
from ..packing.nbits import NBitsGateModel
from ..packing.packer import BandAccounting, ll_exempt_mod, threshold_and_size
from ..packing.tiers import resolve_codec
from ..stats import analyze_band, band_stack_sizes, sliding_occupancy
from ..transform.haar2d import forward_inplace, inverse_inplace
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .golden import golden_apply
from .traditional import traditional_fill_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...hardware.planner import PayloadPlacement, PlacementPlan
    from ...observability.probe import Probe


class CompressedEngine(SlidingWindowEngine):
    """Fast vectorised model of the compressed architecture."""

    def __init__(
        self,
        config: ArchitectureConfig,
        kernel: WindowKernel,
        *,
        recirculate: bool = True,
        memory_plan: "PlacementPlan | None" = None,
        protection: ProtectionPolicy | str | None = None,
        injector: FaultInjector | None = None,
        fault_policy: str = "degrade",
        fast_path: bool | None = None,
        probe: "Probe | None" = None,
        codec: str = "auto",
    ) -> None:
        super().__init__(config, kernel, probe=probe)
        self.recirculate = recirculate
        #: Requested codec tier (``auto`` / ``numpy`` / ``native``).
        self.codec = codec
        #: Concrete tier the run will use (``numpy`` or ``native``),
        #: resolved once at construction so an explicit-but-unavailable
        #: ``native`` request warns here rather than mid-frame.
        self.codec_resolved = resolve_codec(codec)
        #: Optional design-time memory plan
        #: (:class:`repro.hardware.planner.PlacementPlan`).  When given,
        #: every payload group's *stored* occupancy is enforced against
        #: its placed capacity every traversal — a frame whose rows
        #: compress worse than the plan's worst case raises
        #: :class:`~repro.errors.CapacityError` naming the group, exactly
        #: the Section V.E failure mode.
        self.memory_plan = memory_plan
        if (
            memory_plan is not None
            and memory_plan.config.window_size != config.window_size
        ):
            raise ConfigError(
                f"memory plan is for window {memory_plan.config.window_size}, "
                f"engine window is {config.window_size}"
            )
        if fault_policy not in ("degrade", "raise"):
            raise ConfigError(
                f"fault_policy must be 'degrade' or 'raise', got {fault_policy!r}"
            )
        #: Memory-path protection level; the line buffers are stored through
        #: the scheme's code words and occupancy accounting carries its
        #: storage overhead.
        self.protection = resolve_policy(protection)
        #: Optional SEU injector; with ``fault_policy="degrade"`` a
        #: detected-but-uncorrectable word triggers column re-sync
        #: (zero-fill plus corrupted-pixel counting) instead of raising.
        self.injector = injector
        self.fault_policy = fault_policy
        self._resilient: ResilientBandCodec | None = None
        if injector is not None or not self.protection.is_trivial:
            self._resilient = ResilientBandCodec(
                config,
                self.protection,
                injector=injector,
                on_uncorrectable="resync" if fault_policy == "degrade" else "raise",
                probe=probe,
            )
        #: Fault outcome of the most recent :meth:`run` (protected path only).
        self.fault_summary: EngineFaultSummary | None = None
        #: Execution-strategy selector: ``None`` picks the frame-at-once
        #: vectorised path automatically whenever it is exact (see
        #: :attr:`fast_path_eligible`), ``False`` forces the sequential
        #: reference loop, ``True`` demands the fast path and fails fast
        #: at construction if the configuration cannot use it.
        self.fast_path = fast_path
        if fast_path and not self.fast_path_eligible:
            raise ConfigError(
                "fast_path=True requires a deterministic frame-at-once run: "
                "lossless or recirculate=False and an unprotected/uninjected "
                "memory path"
            )
        #: Strategy used by the most recent :meth:`run`
        #: (``"fast"`` or ``"sequential"``).
        self.last_path: str | None = None

    @property
    def fast_path_eligible(self) -> bool:
        """True when the frame-at-once vectorised path is exact.

        The fast path requires every traversal band to be the raw input
        rows, known before the run starts.  That holds when reconstruction
        is exact (lossless threshold) or when reconstructed rows are never
        fed back (``recirculate=False``).  Protected/injected runs mutate
        stored words and stay on the sequential reference loop.
        """
        return self._resilient is None and (
            self.config.lossless or not self.recirculate
        )

    @property
    def _payload(self) -> "PayloadPlacement":
        """The memory plan's payload placement (plan runs only)."""
        assert self.memory_plan is not None
        return self.memory_plan.payload

    def _group_columns(self, widths: np.ndarray) -> np.ndarray:
        """Stored per-group column sizes of bands under the memory plan.

        ``widths`` is the bands' ``(..., N, W)`` per-element widths; rows
        fold into the plan's payload groups of ``rows_per_group`` rows in
        one reshaped sum, giving ``(..., G, W)``.  Each column's group
        bits are charged at their stored size — the payload protection
        scheme's code expansion, applied per column exactly as the
        hardware writes it.
        """
        r = self._payload.rows_per_group
        *lead, n, w = widths.shape
        grouped = widths.reshape(*lead, n // r, r, w).sum(axis=-2)
        return np.asarray(
            self.protection.payload.scaled_bits(grouped), dtype=np.int64
        )

    def _check_memory_plan(
        self,
        group_cols: np.ndarray,
        prev_group_cols: np.ndarray | None,
        first_traversal: int,
    ) -> np.ndarray:
        """Enforce the memory plan's per-group capacity on traversals.

        ``group_cols`` is the ``(C, G, W)`` stored group-column stack of
        consecutive traversals from ``first_traversal`` on;
        ``prev_group_cols`` holds the group columns of the traversal
        before them (``None`` for a frame's first).  The earliest
        traversal's lowest-numbered overflowing group is reported (the
        order the hardware's group monitors would trip in).  Returns the
        last traversal's group columns, the next call's reference.
        """
        peaks = self._occupancy_band_peaks(group_cols, 0, prev_group_cols)
        payload = self._payload
        capacities = np.asarray(payload.group_capacity_list(), dtype=np.int64)
        over = np.argwhere(peaks > capacities)
        if over.size:
            t, g = (int(v) for v in over[0])
            raise CapacityError(
                f"BRAM group {g} holds {int(peaks[t, g])} stored bits at "
                f"traversal {first_traversal + t}, its allocation is "
                f"{payload.group_capacity_bits(g)} bits "
                f"({payload.describe()}) — frame exceeds the design-time plan"
            )
        return group_cols[-1]

    def run(self, image: np.ndarray) -> WindowRun:
        """Process ``image`` through the compressed architecture.

        Dispatches to the frame-at-once vectorised path when it is exact
        (see :attr:`fast_path_eligible`) and ``fast_path`` does not force
        the sequential loop; both paths produce bit-identical results on
        every configuration where both are allowed.
        """
        arr = self._validate_image(image).astype(np.int64)
        prb = self.probe if self.probe is not None else NULL_PROBE
        with prb.span("run"):
            if self.fast_path is not False and self.fast_path_eligible:
                self.last_path = "fast"
                result = self._run_fast(arr)
            else:
                self.last_path = "sequential"
                result = self._run_sequential(arr)
        if self.probe is not None:
            self.probe.count(
                "repro_frames_total", engine="compressed", path=self.last_path
            )
            result.metrics = self.probe.snapshot()
        return result

    # -- frame-at-once vectorised path ------------------------------------

    def _run_fast(self, arr: np.ndarray) -> WindowRun:
        """Vectorised frame-at-once run (bit-identical to the loop).

        Every traversal band is the raw rows ``y-N+1 .. y`` (the
        eligibility precondition), so the whole frame's compression
        accounting is one shared-block :func:`band_stack_sizes` pass at
        any decomposition level, and the kernel output map is one
        whole-frame :func:`golden_apply` instead of one call per
        traversal.  A memory plan's group columns come from the same
        pass (``BandStackSizes.group_payload_columns``); eligibility
        rules out a protected memory path, so they are the stored sizes.
        """
        cfg = self.config
        n, w = cfg.window_size, cfg.image_width
        self.fault_summary = None
        prb = self.probe if self.probe is not None else NULL_PROBE

        with prb.span("kernel"):
            outputs = golden_apply(arr, n, self.kernel)
        sizes = band_stack_sizes(
            cfg, arr, probe=self.probe, codec=self.codec_resolved
        )
        cols = sizes.payload_bits_per_column
        mgmt = sizes.management_bits_per_column
        with prb.span("fifo"):
            band_totals = (cols.sum(axis=1) + mgmt * (w - n)).tolist()
            band_peaks = self._occupancy_band_peaks(cols, mgmt, None)
        if self.memory_plan is not None:
            prev_group_cols = None
            for t0, group_cols in sizes.group_payload_columns(
                self._payload.rows_per_group
            ):
                prev_group_cols = self._check_memory_plan(
                    group_cols, prev_group_cols, t0 + n - 1
                )
        if self.probe is not None:
            self._observe_bands(sizes.nbits, band_peaks, sizes.significant_counts)

        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            drain_cycles=0,
            pixels_in=arr.size,
            outputs=outputs.size,
            buffer_bits_peak=int(band_peaks.max()),
            traditional_buffer_bits=cfg.traditional_buffer_bits,
            band_total_bits=band_totals,
        )
        return WindowRun(
            outputs=outputs,
            stats=stats,
            # Every buffered row is a raw input row (lossless, or lossy
            # without recirculation), and ``arr`` is the private int64
            # copy run() made.
            reconstruction=arr,
            faults=None,
        )

    def _occupancy_band_peaks(
        self,
        cols: np.ndarray,
        mgmt: int,
        prev_last: np.ndarray | None,
    ) -> np.ndarray:
        """Per-traversal occupancy peaks of a ``(C, W)`` or ``(C, G, W)`` stack.

        Each traversal references the previous traversal's sizes;
        ``prev_last`` carries the final sizes of the preceding chunk (the
        very first traversal of a frame references itself).
        """
        if self.codec_resolved == "native":
            if cols.ndim == 2:
                return native_codec.occupancy_peaks(
                    cols, self.config.window_size, mgmt, prev_last=prev_last
                )
            return np.stack(
                [
                    self._occupancy_band_peaks(
                        cols[:, g],
                        mgmt,
                        None if prev_last is None else prev_last[g],
                    )
                    for g in range(cols.shape[1])
                ],
                axis=1,
            )
        # The maximum of the ``sliding_occupancy`` trace in closed form:
        # position x holds the previous band's first W-N columns with
        # its first k replaced by the current band's, k = 0 .. W-N, so
        # the peak is that total plus the best prefix of cur - prev.
        span = cols.shape[-1] - self.config.window_size
        head = cols[..., :span].astype(np.int64, copy=False)
        carry = head[:1] if prev_last is None else prev_last[None, ..., :span]
        prev = np.concatenate([carry, head[:-1]], axis=0)
        gain = np.cumsum(head - prev, axis=-1)
        return prev.sum(axis=-1) + gain.max(axis=-1, initial=0) + mgmt * span

    def _observe_bands(
        self,
        nbits: np.ndarray | list[np.ndarray],
        band_peaks: np.ndarray | list[int],
        significant_counts: np.ndarray | list[int],
    ) -> None:
        """Record per-band distributions (probe attached only).

        ``repro_band_nbits`` samples every per-column per-parity NBits
        field, ``repro_band_occupancy_bits`` the per-traversal occupancy
        peak, ``repro_band_zero_ratio`` the per-band zeroed-coefficient
        fraction.  Every path records a frame through here, in traversal
        order, so the fast and sequential histograms are identical.
        """
        coefficients = float(self.config.window_size * self.config.image_width)
        zero_ratios = 1.0 - np.asarray(significant_counts) / coefficients
        self.probe.observe_many("repro_band_nbits", np.asarray(nbits))
        self.probe.observe_many("repro_band_occupancy_bits", np.asarray(band_peaks))
        self.probe.observe_many("repro_band_zero_ratio", zero_ratios)

    # -- sequential reference path ----------------------------------------

    def _run_sequential(self, arr: np.ndarray) -> WindowRun:
        """Reference traversal loop (handles every configuration).

        Traversals run in chunks of at most :data:`TRAVERSAL_CHUNK_VALUES`
        band values: the traversal step writes each traversal's band and
        thresholded plane, then one accounting tail sizes the chunk.  A
        protected or injected run takes one traversal per chunk, so a
        capacity overflow is still reported before a later traversal's
        uncorrectable word.
        """
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height
        prb = self.probe if self.probe is not None else NULL_PROBE
        resilient = self._resilient
        faults = (
            EngineFaultSummary(policy_name=self.protection.name)
            if resilient is not None
            else None
        )
        self.fault_summary = faults
        t_total = h - n + 1
        step = self._numpy_step
        chunk = min(max(TRAVERSAL_CHUNK_VALUES // (n * w), 1), t_total)
        if resilient is not None:
            chunk = 1
        elif (
            self.recirculate
            and self.codec_resolved == "native"
            and cfg.decomposition_levels == 1
        ):
            step = self._native_step

        reconstruction = arr.copy()
        out_rows: list[np.ndarray] = []
        band_totals: list[int] = []
        peaks = np.empty(t_total, dtype=np.int64)
        # NBits fields fit a byte; the frame's fields feed the histograms.
        nbits_seen = np.empty((t_total, 2, w), dtype=np.uint8)
        counts = np.empty(t_total, dtype=np.int64)
        prev_cols: np.ndarray | None = None
        prev_group_cols: np.ndarray | None = None
        # State entering traversal y = rows y-n+1..y-1 reconstructed on the
        # previous traversal plus the raw new row y.  The first traversal
        # (y = n-1) sees raw pixels only — the fill state buffered them
        # uncompressed exactly once.
        state = arr[0:n].copy()
        band_buffer = np.empty((chunk, n, w), dtype=np.int64)
        plane_buffer = np.empty((chunk, n, w), dtype=np.int32)
        for t0 in range(0, t_total, chunk):
            c = min(chunk, t_total - t0)
            bands, planes = band_buffer[:c], plane_buffer[:c]
            step(arr, state, t0 + n - 1, bands, planes)
            # -- the chunk's accounting tail --
            _, nbits, bitmap = threshold_and_size(
                planes,
                cfg.threshold,
                exempt_mod=ll_exempt_mod(cfg),
                codec=self.codec_resolved,
                probe=self.probe,
            )
            sizes = BandAccounting(config=cfg, nbits=nbits, bitmap=bitmap)
            cols, mgmt = self._stored_columns(sizes)
            if self.memory_plan is not None:
                prev_group_cols = self._check_memory_plan(
                    self._group_columns(sizes.widths), prev_group_cols, t0 + n - 1
                )
            with prb.span("kernel"):
                out_rows.append(golden_apply(bands, n, self.kernel))
            reconstruction[t0 : t0 + c] = bands[:, 0]
            with prb.span("fifo"):
                band_totals += (cols.sum(axis=-1) + mgmt * (w - n)).tolist()
                peaks[t0 : t0 + c] = self._sequential_peaks(cols, mgmt, prev_cols)
            nbits_seen[t0 : t0 + c] = nbits
            counts[t0 : t0 + c] = sizes.significant_counts
            prev_cols = cols[-1]
        # The last traversal's band holds the frame's bottom rows.
        reconstruction[t_total - 1 :] = bands[-1]

        if self.probe is not None:
            self._observe_bands(nbits_seen, peaks, counts)
        outputs = np.concatenate(out_rows)
        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            drain_cycles=0,
            pixels_in=arr.size,
            outputs=outputs.size,
            buffer_bits_peak=int(peaks.max()),
            traditional_buffer_bits=cfg.traditional_buffer_bits,
            band_total_bits=band_totals,
        )
        return WindowRun(
            outputs=outputs,
            stats=stats,
            reconstruction=reconstruction,
            faults=faults,
        )

    def _stored_columns(self, sizes: BandAccounting) -> tuple[np.ndarray, int]:
        """Stored ``(C, W)`` payload columns and per-column management bits.

        On a protected memory path payload bits expand by the payload
        scheme, and the management cost by the NBits / BitMap schemes.
        """
        cols = sizes.payload_bits_per_column
        if self._resilient is None:
            return cols, sizes.management_bits_per_column
        protection = self.protection
        mgmt = ceil(
            2 * self.config.nbits_field_width * protection.nbits.expansion
            + self.config.window_size * protection.bitmap.expansion
        )
        return np.ceil(cols * protection.payload.expansion).astype(np.int64), mgmt

    def _sequential_peaks(
        self, cols: np.ndarray, mgmt: int, prev_last: np.ndarray | None
    ) -> np.ndarray:
        """Per-traversal occupancy peaks of one chunk's ``(C, W)`` columns.

        The NumPy tier takes the maximum of the full
        :func:`sliding_occupancy` trace, the oracle of the closed form the
        fast path uses; the native tier scans the peaks in C.
        """
        if self.codec_resolved == "native":
            return self._occupancy_band_peaks(cols, mgmt, prev_last)
        carry = cols[:1] if prev_last is None else prev_last[None]
        reference = np.concatenate([carry, cols[:-1]])
        occ = sliding_occupancy(reference, cols, self.config.window_size, mgmt)
        return occ.max(axis=-1)

    # -- traversal steps ---------------------------------------------------
    # Each runs traversals y0 .. y0+C-1 from ``state``, the band traversal
    # y0 presents, writing each traversal's band to ``bands`` and its
    # thresholded coefficient plane to ``planes``; ``state`` ends as the
    # band of the traversal after the chunk.

    def _numpy_step(
        self,
        arr: np.ndarray,
        state: np.ndarray,
        y0: int,
        bands: np.ndarray,
        planes: np.ndarray,
    ) -> None:
        """:func:`analyze_band` and a reconstruction, traversal by traversal.

        A protected or injected run reconstructs through the resilient
        round trip, which also records the traversal's faults; storage
        is sized at write time, so its plane is the fault-free one.
        """
        prb = self.probe if self.probe is not None else NULL_PROBE
        resilient, faults = self._resilient, self.fault_summary
        for k, y in enumerate(range(y0, y0 + len(bands))):
            bands[k] = state
            sizes = analyze_band(
                self.config, state, probe=self.probe, codec=self.codec_resolved
            )
            planes[k] = sizes.plane
            if resilient is not None:
                assert faults is not None
                decoded, report, _ = resilient.roundtrip(state)
                faults.add(y, report)
            if y + 1 == self.config.image_height:
                break
            if self.recirculate:
                if resilient is None:
                    with prb.span("inverse"):
                        decoded = sizes.reconstruct()
                state[:-1] = decoded[1:]
            else:
                state[:-1] = state[1:]
            state[-1] = arr[y + 1]

    def _native_step(
        self,
        arr: np.ndarray,
        state: np.ndarray,
        y0: int,
        bands: np.ndarray,
        planes: np.ndarray,
    ) -> None:
        """One native call runs the chunk's level-1 recirculating traversals."""
        cfg = self.config
        prb = self.probe if self.probe is not None else NULL_PROBE
        with prb.span("traverse"):
            native_codec.recirculate(
                arr,
                state,
                y0,
                bands,
                planes,
                threshold=cfg.threshold,
                exempt_ll=bool(ll_exempt_mod(cfg)),
                ll_dpcm=cfg.ll_dpcm,
                wrap_bits=cfg.wrap_bits,
                pixel_max=cfg.pixel_max,
            )


#: Band values (``C * N * W``) per chunk of the sequential path: 768 KB of
#: int64 bands and int32 planes whatever the frame size (16 traversals of
#: a 256-wide N=16 frame).  Chunks four times larger cut ~18% off such a
#: frame's time but add ~3 MB to the peak resident set.
TRAVERSAL_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True, slots=True)
class _ColumnRecord:
    """Management data of one compressed column held in the Memory Unit.

    The column's payload bits sit in the per-row word FIFOs; the record
    carries what the Fig 8 unpackers need to decode them.
    """

    column_index: int
    nbits: tuple[int, int]  # (even rows, odd rows)
    bitmap: tuple[int, ...]
    #: Payload plus management bits this column keeps resident.
    bits: int


class CompressedCycleEngine(SlidingWindowEngine):
    """Register-level model of the Fig 4 dataflow (validation, small images).

    One loop iteration per input pixel.  At position ``x`` of traversal
    ``y`` (Section III's processing state, ``y >= N-1``):

    - *read side* — on even ``x`` the records of columns ``x`` and
      ``x+1`` leave the record FIFO (an underflow or out-of-order pop
      raises :class:`~repro.errors.StateError`), N long-lived Fig 8
      unpackers decode their coefficients from the per-row word FIFOs (an
      underflow raises :class:`~repro.errors.BitstreamError`) and the
      batched Fig 10 inverse rebuilds the pixel pair.  The column entering
      the window is the decoded column shifted up one row plus the raw
      pixel ``(y, x)``; the first traversal reads the raw fill-state rows.
    - *write side* — on odd ``x`` the batched Fig 5 transform turns the
      column pair into two interleaved coefficient columns.  Each is
      thresholded (LL exempt under ``threshold_bands="details"``), sized
      by the Fig 7 gate tree (cross-checked against the codec's
      :func:`~repro.core.packing.packer.threshold_and_size`) and streamed
      through N Fig 6 packers whose words feed the unpackers' FIFOs.
      Every packer flushes at the end of the traversal; the final
      traversal compresses nothing.

    Kernel outputs are one :func:`golden_apply` per traversal over the
    ``N x W`` band the window slid across, which matches the whole-frame
    call exactly.  Outputs and reconstruction are asserted bit-identical
    to :class:`CompressedEngine` with ``recirculate=True``.
    """

    def __init__(self, config: ArchitectureConfig, kernel: WindowKernel) -> None:
        super().__init__(config, kernel)
        if config.decomposition_levels != 1 or config.ll_dpcm:
            raise ConfigError(
                "the register-level engine models the paper's single-level "
                "datapath; use CompressedEngine for multi-level configs"
            )
        self._wrap = config.wrap_bits
        self._gate = NBitsGateModel(max(config.coefficient_bits, 2))
        #: High-water mark of the record FIFO (column records), last run.
        self.fifo_peak = 0
        #: Peak resident bits (payload + per-record management), last run.
        self.bits_peak = 0

    # -- column-pair transforms (Fig 5 / Fig 10 blocks) -------------------

    def _transform_pair(
        self, even_col: np.ndarray, odd_col: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """2D IWT of an aligned column pair -> interleaved coefficient cols.

        All ``N/2`` 2x2 blocks of the ``(N, 2)`` pair go through one
        :func:`forward_inplace` pass (bit-exact against the scalar Fig 5
        block model); ``col_a`` carries (LL, LH, ...), ``col_b`` (HL, HH,
        ...).
        """
        pair = np.stack([even_col, odd_col], axis=1)
        plane = forward_inplace(pair, wrap_bits=self._wrap)
        return (
            plane[:, 0].astype(np.int64, copy=False),
            plane[:, 1].astype(np.int64, copy=False),
        )

    def _inverse_pair(
        self, col_a: np.ndarray, col_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact inverse of :meth:`_transform_pair` (batched Fig 10 math)."""
        plane = np.stack([col_a, col_b], axis=1)
        pair = inverse_inplace(plane, wrap_bits=self._wrap)
        return (
            pair[:, 0].astype(np.int64, copy=False),
            pair[:, 1].astype(np.int64, copy=False),
        )

    # -- Fig 6 / Fig 7 / Fig 8 column streaming ---------------------------

    def _nbits(self, significant: np.ndarray, expected: int) -> int:
        """Fig 7 gate-tree NBits, cross-checked against the codec's."""
        nbits = self._gate.min_bits(significant)
        if nbits != expected:
            raise StateError(
                f"gate-tree NBits {nbits} disagrees with the codec's {expected}"
            )
        return nbits

    def _pack_column(
        self,
        coeff: np.ndarray,
        index: int,
        packers: list[BitPackingUnit],
        unpackers: list[BitUnpackingUnit],
    ) -> _ColumnRecord:
        """Stream one coefficient column through the N packers."""
        cfg = self.config
        n = coeff.size
        exempt_even = bool(ll_exempt_mod(cfg)) and index % 2 == 0
        significant, expected, _ = threshold_and_size(
            coeff[:, None], cfg.threshold, exempt_mod=2 if exempt_even else 0
        )
        nbits = (
            self._nbits(significant[0::2, 0], int(expected[0, 0])),
            self._nbits(significant[1::2, 0], int(expected[1, 0])),
        )
        bitmap: list[int] = []
        payload = 0
        for i in range(n):
            bit, words = packers[i].step(
                int(coeff[i]), nbits[i % 2], exempt=exempt_even and i % 2 == 0
            )
            unpackers[i].feed(words)
            bitmap.append(bit)
            payload += bit * nbits[i % 2]
        return _ColumnRecord(
            column_index=index,
            nbits=nbits,
            bitmap=tuple(bitmap),
            bits=payload + 2 * cfg.nbits_field_width + n,
        )

    def _write_pair(
        self,
        records: deque[_ColumnRecord],
        packers: list[BitPackingUnit],
        unpackers: list[BitUnpackingUnit],
        band: np.ndarray,
        x: int,
    ) -> int:
        """Compress the column pair ``(x-1, x)``; returns the bits stored."""
        col_a, col_b = self._transform_pair(band[:, x - 1], band[:, x])
        stored = 0
        for index, coeff in ((x - 1, col_a), (x, col_b)):
            record = self._pack_column(coeff, index, packers, unpackers)
            records.append(record)
            stored += record.bits
        return stored

    def _read_pair(
        self,
        records: deque[_ColumnRecord],
        unpackers: list[BitUnpackingUnit],
        x: int,
    ) -> tuple[list[np.ndarray], int]:
        """Decode columns ``(x, x+1)``; returns the pixel pair and freed bits."""
        coeffs: list[np.ndarray] = []
        freed = 0
        for index in (x, x + 1):
            if not records:
                raise StateError(f"record FIFO underflow at column {index}")
            record = records.popleft()
            if record.column_index != index:
                raise StateError(
                    f"out-of-order pop: expected column {index}, got "
                    f"{record.column_index}"
                )
            freed += record.bits
            coeffs.append(
                np.array(
                    [
                        unpackers[i].step(bit, record.nbits[i % 2])
                        for i, bit in enumerate(record.bitmap)
                    ],
                    dtype=np.int64,
                )
            )
        pixels = np.stack(self._inverse_pair(coeffs[0], coeffs[1]))
        cfg = self.config
        if cfg.wrap_coefficients:
            pixels &= cfg.pixel_max
        else:
            np.clip(pixels, 0, cfg.pixel_max, out=pixels)
        return list(pixels), freed

    def run(self, image: np.ndarray) -> WindowRun:
        """Stream every pixel of ``image`` through the register-level blocks."""
        arr = self._validate_image(image).astype(np.int64)
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height
        packers = [
            BitPackingUnit(
                word_bits=8, threshold=cfg.threshold, max_nbits=cfg.coefficient_bits
            )
            for _ in range(n)
        ]
        unpackers = [
            BitUnpackingUnit(word_bits=8, max_nbits=cfg.coefficient_bits)
            for _ in range(n)
        ]
        records: deque[_ColumnRecord] = deque()
        self.fifo_peak = self.bits_peak = 0
        resident = 0
        out_rows: list[np.ndarray] = []
        reconstruction = arr.copy()
        band = arr[0:n].copy()  # fill state: the first band is raw
        decoded: list[np.ndarray] = []

        for y in range(n - 1, h):
            for x in range(w):
                if y > n - 1:
                    if x % 2 == 0:
                        decoded, freed = self._read_pair(records, unpackers, x)
                        resident -= freed
                    band[:-1, x] = decoded[x % 2][1:]
                    band[-1, x] = arr[y, x]
                if y < h - 1 and x % 2 == 1:
                    resident += self._write_pair(
                        records, packers, unpackers, band, x
                    )
                    self.fifo_peak = max(self.fifo_peak, len(records))
                    self.bits_peak = max(self.bits_peak, resident)
            out_rows.append(golden_apply(band, n, self.kernel)[0])
            reconstruction[y - n + 1 : y + 1] = band
            if y < h - 1:
                for packer, unpacker in zip(packers, unpackers):
                    unpacker.feed(packer.flush())

        outputs = np.vstack(out_rows)
        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            pixels_in=arr.size,
            outputs=outputs.size,
            buffer_bits_peak=self.bits_peak,
            traditional_buffer_bits=cfg.traditional_buffer_bits,
        )
        return WindowRun(outputs=outputs, stats=stats, reconstruction=reconstruction)
