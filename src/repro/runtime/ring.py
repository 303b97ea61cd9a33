"""Shared-memory frame ring: the zero-copy transport of the streaming runtime.

A :class:`FrameRing` is a fixed number of *slots* carved out of one
``multiprocessing.shared_memory`` segment.  Each slot holds an input frame
plane and an output plane.  The producer writes a frame directly into a
slot's input view, workers in other processes map the same segment and read
the frame / write the kernel outputs in place, and only the slot index plus
a small stats payload ever crosses the IPC queues — frames are never
pickled.

Slot lifecycle (all acquire/release calls happen in the owning process; the
workers only ever dereference an index they were handed):

1. ``acquire()`` blocks until a slot is free — this is the stream's
   backpressure: a producer can never have more frames in flight than the
   ring has slots.
2. The producer fills ``input_view(slot)`` and ships the index.
3. A worker computes into ``output_view(slot)``.
4. The consumer reads the output and calls ``release(slot)``.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass

import numpy as np
from multiprocessing import shared_memory

from ..errors import ConfigError


@dataclass(frozen=True, slots=True)
class RingSpec:
    """Picklable description of a ring; workers attach with it."""

    #: Name of the backing ``SharedMemory`` segment.
    name: str
    #: Number of frame slots.
    slots: int
    #: Input frame plane shape ``(H, W)``.
    frame_shape: tuple[int, int]
    #: Input dtype name (``numpy.dtype(str)`` round-trips it).
    frame_dtype: str
    #: Output plane shape (the engine's valid-region map).
    out_shape: tuple[int, int]
    #: Output dtype name.
    out_dtype: str

    @property
    def frame_bytes(self) -> int:
        """Bytes of one input frame plane."""
        return int(np.prod(self.frame_shape)) * np.dtype(self.frame_dtype).itemsize

    @property
    def out_bytes(self) -> int:
        """Bytes of one output plane."""
        return int(np.prod(self.out_shape)) * np.dtype(self.out_dtype).itemsize

    @property
    def slot_bytes(self) -> int:
        """Bytes of one slot (input plane followed by output plane)."""
        return self.frame_bytes + self.out_bytes

    @property
    def total_bytes(self) -> int:
        """Bytes of the whole segment."""
        return self.slots * self.slot_bytes


class FrameRing:
    """A ring of shared-memory frame slots (create in the owner, attach in
    workers).

    The owner constructs with ``spec=None`` geometry arguments and gets a
    fresh segment plus the free-slot accounting; workers call
    :meth:`attach` with the owner's :attr:`spec` and only map views.
    """

    def __init__(
        self,
        *,
        slots: int,
        frame_shape: tuple[int, int],
        frame_dtype: np.dtype | str,
        out_shape: tuple[int, int],
        out_dtype: np.dtype | str,
    ) -> None:
        if slots < 1:
            raise ConfigError(f"ring needs >= 1 slot, got {slots}")
        spec = RingSpec(
            name="",  # patched below once the segment exists
            slots=slots,
            frame_shape=tuple(frame_shape),
            frame_dtype=np.dtype(frame_dtype).name,
            out_shape=tuple(out_shape),
            out_dtype=np.dtype(out_dtype).name,
        )
        self._shm = shared_memory.SharedMemory(create=True, size=spec.total_bytes)
        try:
            self.spec = RingSpec(
                name=self._shm.name,
                slots=spec.slots,
                frame_shape=spec.frame_shape,
                frame_dtype=spec.frame_dtype,
                out_shape=spec.out_shape,
                out_dtype=spec.out_dtype,
            )
            self._owner = True
            self._free: queue.Queue[int] | None = queue.Queue()
            for i in range(slots):
                self._free.put(i)
            #: High-water mark of simultaneously acquired slots.
            self.in_flight_peak = 0
            self._in_flight = 0
        except BaseException:
            # A half-built owner must not leak the /dev/shm segment:
            # ``_owner`` may not be set yet, so ``close()`` cannot be
            # trusted to unlink here.
            self._shm.close()
            self._shm.unlink()
            self._shm = None
            raise

    @classmethod
    def attach(cls, spec: RingSpec) -> "FrameRing":
        """Map an existing ring segment (worker side; no slot accounting)."""
        ring = object.__new__(cls)
        try:
            # Python >= 3.13: opt out of resource tracking for segments
            # this process does not own (bpo-39959 / gh-82300).
            ring._shm = shared_memory.SharedMemory(name=spec.name, track=False)
        except TypeError:  # pragma: no cover - depends on Python version
            ring._shm = shared_memory.SharedMemory(name=spec.name)
        ring.spec = spec
        ring._owner = False
        ring._free = None
        ring.in_flight_peak = 0
        ring._in_flight = 0
        return ring

    # -- slot accounting (owner side) -----------------------------------

    def acquire(self, timeout: float | None = None) -> int:
        """Claim a free slot, blocking while the ring is full.

        ``timeout`` bounds the wait; expiry raises :class:`TimeoutError`
        (the ring's backpressure made visible instead of an unbounded
        stall).
        """
        if self._free is None:
            raise ConfigError("only the ring owner tracks free slots")
        try:
            slot = self._free.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"all {self.spec.slots} ring slots in flight for "
                f"{timeout:g}s — consume results before submitting more frames"
            ) from None
        self._in_flight += 1
        self.in_flight_peak = max(self.in_flight_peak, self._in_flight)
        return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the free list."""
        if self._free is None:
            raise ConfigError("only the ring owner tracks free slots")
        if not 0 <= slot < self.spec.slots:
            raise ConfigError(f"slot {slot} outside ring of {self.spec.slots}")
        self._in_flight -= 1
        self._free.put(slot)

    @property
    def free_slots(self) -> int:
        """Slots currently available to :meth:`acquire` (owner side).

        A healthy idle ring reports its full slot count; anything less
        while no frames are in flight means a slot leaked — the
        supervision layer's reclamation counters exist to keep this at
        full after crash recovery.
        """
        if self._free is None:
            raise ConfigError("only the ring owner tracks free slots")
        return self._free.qsize()

    # -- views -----------------------------------------------------------

    def _slot_buffer(self, slot: int) -> memoryview:
        if not 0 <= slot < self.spec.slots:
            raise ConfigError(f"slot {slot} outside ring of {self.spec.slots}")
        start = slot * self.spec.slot_bytes
        return self._shm.buf[start : start + self.spec.slot_bytes]

    def input_view(self, slot: int) -> np.ndarray:
        """Writable array view of ``slot``'s input frame plane."""
        spec = self.spec
        buf = self._slot_buffer(slot)[: spec.frame_bytes]
        return np.ndarray(spec.frame_shape, dtype=spec.frame_dtype, buffer=buf)

    def output_view(self, slot: int) -> np.ndarray:
        """Writable array view of ``slot``'s output plane."""
        spec = self.spec
        buf = self._slot_buffer(slot)[spec.frame_bytes : spec.slot_bytes]
        return np.ndarray(spec.out_shape, dtype=spec.out_dtype, buffer=buf)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment; the owner also unlinks it (idempotent)."""
        if self._shm is None:
            return
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._shm = None

    def __enter__(self) -> "FrameRing":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Release the segment on scope exit."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
