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

- the *sequential* reference path — one Python-loop iteration per row
  traversal, required whenever a traversal's input depends on the
  previous traversal's lossy reconstruction (``recirculate=True`` with a
  non-zero threshold), when payload bits must be materialised
  (``bit_exact=True``), or when the memory path is protected/injected;
- the *fast* frame-at-once path — when every traversal band is known up
  front to be the raw input rows (lossless, or ``recirculate=False``),
  all ``H - N + 1`` bands are assembled as a zero-copy ``(T, N, W)``
  stack and compressed in one vectorised
  :func:`~repro.core.stats.analyze_band_stack` pass, with a single
  whole-frame :func:`~repro.core.window.golden.golden_apply` producing
  the kernel outputs.  Bit-identical to the sequential path (outputs,
  widths, occupancy peaks, stats, capacity errors) — property-tested.
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
from ..packing.bitmap import apply_threshold
from ..packing.hw_pack import BitPackingUnit
from ..packing.hw_unpack import BitUnpackingUnit
from ..packing.nbits import NBitsGateModel, min_bits_signed
from ..packing.packer import BandCodec
from ..packing.tiers import resolve_codec
from ..stats import (
    analyze_band,
    analyze_band_stack,
    band_stack_sizes,
    sliding_band_stack,
    sliding_occupancy,
)
from ..transform.haar2d import Subbands, forward_column_pair, inverse_column_pair
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .golden import golden_apply
from .traditional import traditional_fill_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...hardware.mapping import MemoryMappingPlan
    from ...observability.probe import Probe
    from ...spec import EngineSpec


class CompressedEngine(SlidingWindowEngine):
    """Fast vectorised model of the compressed architecture."""

    def __init__(
        self,
        config: ArchitectureConfig,
        kernel: WindowKernel,
        *,
        recirculate: bool = True,
        bit_exact: bool = False,
        memory_budget_bits: int | None = None,
        memory_plan: "MemoryMappingPlan | None" = None,
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
        self.bit_exact = bit_exact
        self.memory_budget_bits = memory_budget_bits
        #: Optional design-time BRAM plan
        #: (:class:`repro.hardware.mapping.MemoryMappingPlan`).  When given,
        #: per-BRAM-group occupancy is enforced every traversal — a frame
        #: whose rows compress worse than the plan's worst case raises
        #: :class:`~repro.errors.CapacityError` naming the group, exactly
        #: the Section V.E failure mode.
        self.memory_plan = memory_plan
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
        self._codec = BandCodec(config, codec=self.codec_resolved)
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
                "lossless or recirculate=False, bit_exact=False and an "
                "unprotected/uninjected memory path"
            )
        #: Strategy used by the most recent :meth:`run`
        #: (``"fast"`` or ``"sequential"``).
        self.last_path: str | None = None

    @classmethod
    def from_spec(
        cls, spec: "EngineSpec", *, probe: "Probe | None" = None
    ) -> "CompressedEngine":
        """Build from an :class:`~repro.spec.EngineSpec` describing this kind."""
        if spec.engine != "compressed":
            raise ConfigError(
                f"spec describes a {spec.engine!r} engine, not a compressed one"
            )
        return spec.build(probe=probe)

    @property
    def fast_path_eligible(self) -> bool:
        """True when the frame-at-once vectorised path is exact.

        The fast path requires every traversal band to be the raw input
        rows, known before the run starts.  That holds when reconstruction
        is exact (lossless threshold) or when reconstructed rows are never
        fed back (``recirculate=False``).  ``bit_exact`` runs materialise
        payload bit streams and protected/injected runs mutate stored
        words — both stay on the sequential reference loop.
        """
        return (
            not self.bit_exact
            and self._resilient is None
            and (self.config.lossless or not self.recirculate)
        )

    def _roundtrip(self, band: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Compress+reconstruct one band.

        Returns ``(decoded_band, widths, management_bits_per_column)``
        where ``widths`` is the per-coefficient packed-size plane.  The
        ``bit_exact`` flag routes through the real bit streams instead of
        the width arithmetic; both paths are equivalent (tested) — the
        fast path just never materialises payload bits.
        """
        prb = self.probe if self.probe is not None else NULL_PROBE
        if self.bit_exact:
            with prb.span("pack"):
                encoded = self._codec.encode_band(band)
            with prb.span("unpack"):
                decoded = self._codec.decode_band(encoded)
            return decoded, encoded.widths, encoded.management_bits_per_column
        analysis = analyze_band(self.config, band, probe=self.probe)
        with prb.span("inverse"):
            decoded = analysis.reconstruct()
        return (
            decoded,
            analysis.widths,
            analysis.management_bits_per_column,
        )

    def _plan_geometry(self) -> tuple[int, int, int, int]:
        """(rows per group, group count, BRAMs per group, capacity bits)."""
        plan = self.memory_plan
        n = self.config.window_size
        r = plan.rows_per_bram
        n_groups = n // r
        group_brams = max(1, plan.packed_brams // n_groups)
        return r, n_groups, group_brams, group_brams * 18 * 1024

    def _group_columns(self, widths: np.ndarray) -> np.ndarray:
        """Per-BRAM-group column sizes via one reshaped sum.

        ``widths`` is ``(..., N, W)``; rows are folded into their plan
        groups in a single pass, giving ``(..., G, W)``.  Rows beyond
        ``G * rows_per_bram`` (a ragged final group the plan does not
        map) are excluded, matching the per-group slicing the plan uses.
        """
        r, n_groups, _, _ = self._plan_geometry()
        lead = widths.shape[:-2]
        w = widths.shape[-1]
        grouped = widths[..., : n_groups * r, :].reshape(
            lead + (n_groups, r, w)
        )
        return grouped.sum(axis=-2)

    def _check_memory_plan(
        self,
        prev_widths: np.ndarray | None,
        widths: np.ndarray,
        traversal: int,
    ) -> None:
        """Enforce the design-time BRAM plan's per-group capacity.

        All BRAM groups are checked in one stacked occupancy pass; the
        lowest-numbered overflowing group is reported (the order the
        hardware's group monitors would trip in).
        """
        ref = widths if prev_widths is None else prev_widths
        cur_g = self._group_columns(widths)
        prev_g = self._group_columns(ref)
        occ = sliding_occupancy(prev_g, cur_g, self.config.window_size, 0)
        peaks = occ.max(axis=-1)
        self._raise_plan_overflow(peaks, traversal)

    def _raise_plan_overflow(self, peaks: np.ndarray, traversal: int) -> None:
        """Raise for the first group whose peak exceeds the plan capacity."""
        _, _, group_brams, capacity = self._plan_geometry()
        over = np.nonzero(peaks > capacity)[0]
        if over.size:
            g = int(over[0])
            raise CapacityError(
                f"BRAM group {g} holds {int(peaks[g])} bits at traversal "
                f"{traversal}, allocation is {capacity} bits "
                f"({group_brams} x 18Kb) — frame exceeds the "
                f"design-time plan"
            )

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

    #: Per-chunk working-set budget of the fast path (bytes of one
    #: ``(C, N, W)`` int64 plane); bounds memory on 2048x2048 sweeps.
    _FAST_CHUNK_BUDGET = 32 * 1024 * 1024

    def _run_fast(self, arr: np.ndarray) -> WindowRun:
        """Vectorised frame-at-once run (bit-identical to the loop).

        Every traversal band is the raw rows ``y-N+1 .. y`` (the
        eligibility precondition), so the whole frame's compression
        accounting resolves in a handful of vectorised passes — the
        shared-row :func:`band_stack_sizes` dataflow for the common
        single-level case, a chunked :func:`analyze_band_stack` sweep
        when per-coefficient widths are needed (BRAM-plan enforcement)
        or the pyramid is deeper — and the kernel output map is one
        whole-frame :func:`golden_apply` instead of one call per
        traversal.
        """
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height
        self.fault_summary = None
        prb = self.probe if self.probe is not None else NULL_PROBE

        with prb.span("kernel"):
            outputs = golden_apply(arr, n, self.kernel)
        if self.memory_plan is None and cfg.decomposition_levels == 1:
            peak, band_totals = self._fast_sizes_shared(arr)
        else:
            peak, band_totals = self._fast_sizes_chunked(arr)

        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            drain_cycles=0,
            pixels_in=arr.size,
            outputs=outputs.size,
            buffer_bits_peak=peak,
            traditional_buffer_bits=cfg.traditional_buffer_bits,
            band_total_bits=band_totals,
        )
        return WindowRun(
            outputs=outputs,
            stats=stats,
            reconstruction=arr.copy(),
            faults=None,
        )

    def _occupancy_band_peaks(
        self,
        cols: np.ndarray,
        mgmt: int,
        prev_last: np.ndarray | None,
    ) -> np.ndarray:
        """Per-traversal occupancy peaks of a ``(C, ..., W)`` size stack.

        Each traversal references the previous traversal's sizes;
        ``prev_last`` carries the final sizes of the preceding chunk (the
        very first traversal of a frame references itself).
        """
        if self.codec_resolved == "native" and cols.ndim == 2:
            return native_codec.occupancy_peaks(
                cols, self.config.window_size, mgmt, prev_last=prev_last
            )
        carry = cols[:1] if prev_last is None else prev_last[None]
        prev = np.concatenate([carry, cols[:-1]], axis=0)
        occ = sliding_occupancy(prev, cols, self.config.window_size, mgmt)
        return occ.max(axis=-1)

    def _first_budget_overflow(self, band_peaks: np.ndarray) -> int | None:
        """Index of the first traversal over ``memory_budget_bits``."""
        if self.memory_budget_bits is None:
            return None
        over = np.nonzero(band_peaks > self.memory_budget_bits)[0]
        return int(over[0]) if over.size else None

    def _raise_budget_overflow(self, peak_bits: int, traversal: int) -> None:
        raise CapacityError(
            f"buffered {peak_bits} bits at traversal {traversal}, memory "
            f"unit provisioned for {self.memory_budget_bits}"
        )

    def _fast_sizes_shared(self, arr: np.ndarray) -> tuple[int, list[int]]:
        """Whole-frame accounting via the shared-row pair dataflow."""
        cfg = self.config
        n, w = cfg.window_size, cfg.image_width
        prb = self.probe if self.probe is not None else NULL_PROBE
        sizes = band_stack_sizes(
            cfg, arr, probe=self.probe, codec=self.codec_resolved
        )
        cols = sizes.payload_bits_per_column
        mgmt = sizes.management_bits_per_column
        with prb.span("fifo"):
            band_totals = [int(v) + mgmt * (w - n) for v in cols.sum(axis=1)]
            band_peaks = self._occupancy_band_peaks(cols, mgmt, None)
        if self.probe is not None:
            self._observe_bands(
                sizes.nbits, band_peaks, sizes.zero_ratios()
            )
        t = self._first_budget_overflow(band_peaks)
        if t is not None:
            self._raise_budget_overflow(int(band_peaks[t]), t + n - 1)
        return int(band_peaks.max()), band_totals

    def _observe_bands(
        self,
        nbits: np.ndarray,
        band_peaks: np.ndarray,
        zero_ratios: np.ndarray | None,
    ) -> None:
        """Record per-band distributions (probe attached only).

        ``repro_band_nbits`` samples every per-column per-parity NBits
        field, ``repro_band_occupancy_bits`` the per-traversal occupancy
        peak, ``repro_band_zero_ratio`` the per-band zeroed-coefficient
        fraction.
        """
        self.probe.observe_many("repro_band_nbits", nbits.ravel())
        self.probe.observe_many("repro_band_occupancy_bits", band_peaks.ravel())
        if zero_ratios is not None:
            self.probe.observe_many("repro_band_zero_ratio", zero_ratios)

    def _fast_sizes_chunked(self, arr: np.ndarray) -> tuple[int, list[int]]:
        """Whole-frame accounting via chunked band-stack analysis.

        Used when per-coefficient width planes are required (BRAM-plan
        enforcement) or the decomposition recurses deeper than one level;
        chunking bounds the ``(C, N, W)`` working set.
        """
        cfg = self.config
        n, w = cfg.window_size, cfg.image_width
        prb = self.probe if self.probe is not None else NULL_PROBE
        stack = sliding_band_stack(arr, n)
        band_totals: list[int] = []
        peak = 0
        prev_cols: np.ndarray | None = None
        prev_group_cols: np.ndarray | None = None
        chunk = max(1, self._FAST_CHUNK_BUDGET // (n * w * 8))
        for t0 in range(0, stack.shape[0], chunk):
            analysis = analyze_band_stack(
                cfg,
                stack[t0 : t0 + chunk],
                probe=self.probe,
                codec=self.codec_resolved,
            )
            mgmt = analysis.management_bits_per_column
            cols = analysis.payload_bits_per_column  # (C, W)
            with prb.span("fifo"):
                band_totals.extend(
                    int(v) + mgmt * (w - n) for v in cols.sum(axis=1)
                )
                band_peaks = self._occupancy_band_peaks(cols, mgmt, prev_cols)
            if self.probe is not None:
                self._observe_bands(
                    analysis.nbits,
                    band_peaks,
                    1.0 - analysis.bitmap.mean(axis=(1, 2)),
                )
            budget_t = self._first_budget_overflow(band_peaks)
            plan_t: int | None = None
            group_peaks: np.ndarray | None = None
            if self.memory_plan is not None:
                group_cols = self._group_columns(analysis.widths)  # (C, G, W)
                group_band_peaks = self._occupancy_band_peaks(
                    group_cols, 0, prev_group_cols
                )  # (C, G)
                _, _, _, capacity = self._plan_geometry()
                bad = np.nonzero((group_band_peaks > capacity).any(axis=1))[0]
                if bad.size:
                    plan_t = int(bad[0])
                    group_peaks = group_band_peaks[plan_t]
                prev_group_cols = group_cols[-1]
            # The sequential loop checks the budget before the plan inside
            # one traversal; re-raise the earliest event with that order.
            if budget_t is not None and (plan_t is None or budget_t <= plan_t):
                self._raise_budget_overflow(
                    int(band_peaks[budget_t]), t0 + budget_t + n - 1
                )
            if plan_t is not None:
                self._raise_plan_overflow(group_peaks, t0 + plan_t + n - 1)
            peak = max(peak, int(band_peaks.max()))
            prev_cols = cols[-1]
        return peak, band_totals

    # -- sequential reference path ----------------------------------------

    def _run_sequential(self, arr: np.ndarray) -> WindowRun:
        """Reference per-traversal loop (handles every configuration)."""
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height
        prb = self.probe if self.probe is not None else NULL_PROBE

        out_rows: list[np.ndarray] = []
        band_totals: list[int] = []
        reconstruction = arr.copy()
        peak = 0
        prev_cols: np.ndarray | None = None
        prev_widths: np.ndarray | None = None
        resilient = self._resilient
        faults = (
            EngineFaultSummary(policy_name=self.protection.name)
            if resilient is not None
            else None
        )
        self.fault_summary = faults
        # Stored-size scaling of the protected memory path: payload bits
        # expand by the payload scheme; the per-column management cost by
        # the NBits / BitMap schemes.
        payload_expansion = self.protection.payload.expansion
        mgmt_stored = ceil(
            2 * cfg.nbits_field_width * self.protection.nbits.expansion
            + n * self.protection.bitmap.expansion
        )

        # State entering traversal y = rows y-n+1..y-1 reconstructed on the
        # previous traversal plus the raw new row y.  The first traversal
        # (y = n-1) sees raw pixels only — the fill state buffered them
        # uncompressed exactly once.
        state = arr[0:n].copy()
        for y in range(n - 1, h):
            # Kernel outputs for this traversal come from the current state.
            with prb.span("kernel"):
                out_rows.append(golden_apply(state, n, self.kernel)[0])
            reconstruction[y - n + 1 : y + 1] = state
            if resilient is not None:
                decoded, report, encoded = resilient.roundtrip(state)
                faults.add(y, report)
                widths = encoded.widths
                mgmt = mgmt_stored
                cols = np.ceil(
                    widths.sum(axis=0) * payload_expansion
                ).astype(np.int64)
            else:
                decoded, widths, mgmt = self._roundtrip(state)
                cols = widths.sum(axis=0)
            with prb.span("fifo"):
                band_totals.append(int(cols.sum()) + mgmt * (w - n))
                reference = cols if prev_cols is None else prev_cols
                occ = sliding_occupancy(reference, cols, n, mgmt)
                band_peak = int(occ.max())
            peak = max(peak, band_peak)
            if self.probe is not None:
                # Parity-wise column maxes of the width plane recover the
                # NBits fields (zero where a parity packs nothing).
                self.probe.observe_many(
                    "repro_band_nbits",
                    np.concatenate(
                        [widths[0::2].max(axis=0), widths[1::2].max(axis=0)]
                    ),
                )
                self.probe.observe("repro_band_occupancy_bits", band_peak)
                self.probe.observe(
                    "repro_band_zero_ratio",
                    1.0 - np.count_nonzero(widths) / widths.size,
                )
            if self.memory_budget_bits is not None and band_peak > self.memory_budget_bits:
                raise CapacityError(
                    f"buffered {band_peak} bits at traversal {y}, memory unit "
                    f"provisioned for {self.memory_budget_bits}"
                )
            if self.memory_plan is not None:
                self._check_memory_plan(prev_widths, widths, y)
            prev_cols = cols
            prev_widths = widths
            if y + 1 < h:
                if self.recirculate:
                    state = np.vstack([decoded[1:], arr[y + 1 : y + 2]])
                else:
                    state = arr[y - n + 2 : y + 2].copy()

        outputs = np.vstack(out_rows)
        fill = traditional_fill_cycles(n, w)
        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            drain_cycles=0,
            pixels_in=arr.size,
            outputs=outputs.size,
            buffer_bits_peak=peak,
            traditional_buffer_bits=cfg.traditional_buffer_bits,
            band_total_bits=band_totals,
        )
        return WindowRun(
            outputs=outputs,
            stats=stats,
            reconstruction=reconstruction,
            faults=faults,
        )


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
      by the Fig 7 gate tree (cross-checked against
      :func:`~repro.core.packing.nbits.min_bits_signed`) and streamed
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
        self._wrap = config.coefficient_bits if config.wrap_coefficients else None
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

        All ``N/2`` 2x2 blocks go through the batched Haar column math at
        once (bit-exact against the scalar Fig 5 block model); ``col_a``
        carries (LL, LH, ...), ``col_b`` (HL, HH, ...).
        """
        pair = np.stack([even_col, odd_col], axis=1)
        plane = forward_column_pair(pair, wrap_bits=self._wrap).interleaved()
        return (
            plane[:, 0].astype(np.int64, copy=False),
            plane[:, 1].astype(np.int64, copy=False),
        )

    def _inverse_pair(
        self, col_a: np.ndarray, col_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact inverse of :meth:`_transform_pair` (batched Fig 10 math)."""
        plane = np.stack([col_a, col_b], axis=1)
        pair = inverse_column_pair(
            Subbands.from_interleaved(plane), wrap_bits=self._wrap
        )
        return (
            pair[:, 0].astype(np.int64, copy=False),
            pair[:, 1].astype(np.int64, copy=False),
        )

    # -- Fig 6 / Fig 7 / Fig 8 column streaming ---------------------------

    def _nbits(self, significant: np.ndarray) -> int:
        """Fig 7 gate-tree NBits, cross-checked against the codec's."""
        nbits = self._gate.min_bits(significant)
        expected = int(min_bits_signed(significant))
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
        exempt_even = cfg.threshold_bands == "details" and index % 2 == 0
        significant = apply_threshold(
            coeff,
            cfg.threshold,
            exempt_mask=(np.arange(n) % 2 == 0) if exempt_even else None,
        )
        nbits = (self._nbits(significant[0::2]), self._nbits(significant[1::2]))
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
