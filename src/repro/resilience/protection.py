"""Selectable memory-protection schemes for the compressed line buffers.

Four protection levels, cheapest first:

- ``"none"``      — raw storage; every upset is silent.
- ``"parity"``    — one parity bit per word; odd flip counts are *detected*
  (never corrected), even counts stay silent.
- ``"tmr-nbits"`` — triple modular redundancy on the NBits management
  stream only.  The NBits fields are the highest-leverage bits in the
  design: one flipped field desynchronises a whole row's packed payload,
  so triplicating the few management bits buys a lot of robustness for
  almost no storage.  Payload and BitMap stay unprotected.
- ``"secded"``    — the Xilinx-style extended-Hamming SECDED of
  :class:`SecdedProtection` on every stream: single flips corrected
  transparently, double flips detected (12.5 % storage overhead at the
  native 64/72 geometry).

A :class:`ProtectionScheme` works word-wise on 0/1 arrays; a
:class:`ProtectionPolicy` assigns one scheme to each of the three Memory
Unit streams (``payload`` / ``nbits`` / ``bitmap``) and is what the
engines, the Memory Unit and the BRAM-mapping planner consume.

Stored sizes are integer-exact (:meth:`ProtectionScheme.scaled_bits`),
like the rest of the bit accounting; the float ``expansion`` and
``overhead_percent`` ratios are for reports only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import BitstreamError, ConfigError

#: Names of the selectable protection levels.
PROTECTION_LEVELS: tuple[str, ...] = ("none", "parity", "tmr-nbits", "secded")


@dataclass(frozen=True, slots=True)
class StreamDecode:
    """Outcome of decoding one protected stream."""

    #: Recovered data bits (flat, trimmed to the requested length).
    bits: np.ndarray
    #: Words whose single upset was corrected transparently.
    corrected_words: int
    #: Words with a *detected but uncorrectable* error.
    uncorrectable_words: int


class ProtectionScheme(ABC):
    """Word-wise codec over 0/1 arrays: ``data_bits`` in, ``code_bits`` out."""

    name: str
    data_bits: int
    code_bits: int

    @property
    def expansion(self) -> float:
        """Stored bits per data bit (>= 1; reporting only)."""
        return self.code_bits / self.data_bits  # reprolint: disable=REP001

    @property
    def overhead_percent(self) -> float:
        """Storage overhead of the protection (reporting only)."""
        return (self.expansion - 1.0) * 100.0  # reprolint: disable=REP001

    @abstractmethod
    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Encode ``(n_words, data_bits)`` flags into ``(n_words, code_bits)``."""

    @abstractmethod
    def decode_words(
        self, code_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode; returns ``(data_words, corrected_mask, uncorrectable_mask)``."""

    # -- stream helpers ------------------------------------------------

    def encode_stream(self, bits: np.ndarray) -> np.ndarray:
        """Protect a flat bit stream (zero padded to a word multiple)."""
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        n_words = -(-arr.size // self.data_bits)
        padded = np.zeros(n_words * self.data_bits, dtype=np.uint8)
        padded[: arr.size] = arr
        if n_words == 0:
            return np.zeros((0, self.code_bits), dtype=np.uint8)
        return self.encode_words(padded.reshape(n_words, self.data_bits))

    def decode_stream(self, code_words: np.ndarray, n_data_bits: int) -> StreamDecode:
        """Recover ``n_data_bits`` payload bits from protected words."""
        words = np.asarray(code_words, dtype=np.uint8)
        if words.size == 0:
            return StreamDecode(np.zeros(0, dtype=np.uint8), 0, 0)
        data, corrected, uncorrectable = self.decode_words(words)
        flat = data.reshape(-1)
        if flat.size < n_data_bits:
            raise ConfigError(
                f"{self.name}: stream holds {flat.size} data bits, "
                f"{n_data_bits} requested"
            )
        return StreamDecode(
            bits=flat[:n_data_bits],
            corrected_words=int(corrected.sum()),
            uncorrectable_words=int(uncorrectable.sum()),
        )

    def scaled_bits(self, n_data_bits: int | np.ndarray) -> int | np.ndarray:
        """Integer-exact occupancy charge ``ceil(n * code_bits / data_bits)``.

        The runtime's bit-accounting must behave like 2's-complement
        hardware, so the fractional code expansion is applied as a
        ceiling division over integers — never through a float ratio,
        whose rounding could drift from the RTL for large bit counts.
        Accepts a scalar or an integer array (applied elementwise).
        """
        return -((-n_data_bits * self.code_bits) // self.data_bits)


class NoProtection(ProtectionScheme):
    """Raw storage — the paper's baseline memory path."""

    name = "none"

    def __init__(self, data_bits: int = 64) -> None:
        self.data_bits = data_bits
        self.code_bits = data_bits

    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Identity: raw words are stored as-is."""
        return np.atleast_2d(np.asarray(data_words, dtype=np.uint8))

    def decode_words(
        self, code_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Identity decode; nothing is ever corrected or detected."""
        words = np.atleast_2d(np.asarray(code_words, dtype=np.uint8))
        none = np.zeros(words.shape[0], dtype=bool)
        return words, none, none


class ParityProtection(ProtectionScheme):
    """One parity bit per word: detects odd flip counts, corrects nothing."""

    name = "parity"

    def __init__(self, data_bits: int = 64) -> None:
        if data_bits < 1:
            raise ConfigError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = data_bits
        self.code_bits = data_bits + 1

    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Append one even-parity bit to every word."""
        words = np.atleast_2d(np.asarray(data_words, dtype=np.uint8))
        parity = words.sum(axis=1, dtype=np.int64) % 2
        return np.concatenate([words, parity[:, None].astype(np.uint8)], axis=1)

    def decode_words(
        self, code_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flag words whose stored parity mismatches; never correct."""
        words = np.atleast_2d(np.asarray(code_words, dtype=np.uint8))
        data = words[:, : self.data_bits]
        mismatch = (words.sum(axis=1, dtype=np.int64) % 2) == 1
        corrected = np.zeros(words.shape[0], dtype=bool)
        return data, corrected, mismatch


class TmrProtection(ProtectionScheme):
    """Bitwise triple modular redundancy with majority voting.

    Any single flip per stored triple is voted away; two flips in the same
    triple outvote the truth silently.  Disagreeing triples are reported as
    *corrected* (the voter fixed something), never as uncorrectable — TMR
    has no detection-without-correction state.
    """

    name = "tmr"

    def __init__(self, data_bits: int = 8) -> None:
        if data_bits < 1:
            raise ConfigError(f"data_bits must be >= 1, got {data_bits}")
        self.data_bits = data_bits
        self.code_bits = 3 * data_bits

    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Store three copies of every word."""
        words = np.atleast_2d(np.asarray(data_words, dtype=np.uint8))
        return np.concatenate([words, words, words], axis=1)

    def decode_words(
        self, code_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Majority-vote the three copies bit by bit."""
        words = np.atleast_2d(np.asarray(code_words, dtype=np.uint8))
        d = self.data_bits
        copies = words.reshape(words.shape[0], 3, d)
        votes = copies.sum(axis=1, dtype=np.int64)
        data = (votes >= 2).astype(np.uint8)
        disagree = ((votes % 3) != 0).any(axis=1)
        uncorrectable = np.zeros(words.shape[0], dtype=bool)
        return data, disagree, uncorrectable


class SecdedProtection(ProtectionScheme):
    """Extended-Hamming SECDED over every stored word (Xilinx BRAM style).

    Xilinx block RAMs offer a built-in 64/72-bit Hamming SECDED mode
    (single error correct, double error detect).  Compressed line buffers
    concentrate a lot of image state into few BRAMs, so a single upset
    corrupts many pixels; this is the textbook extended Hamming code over
    configurable word widths.  Any single flipped bit of a word is
    corrected, any double flip is detected.

    The memory path runs the block codec (:meth:`encode_words` /
    :meth:`decode_words`); the scalar per-word :meth:`encode` /
    :meth:`decode` is the oracle the block codec is property-tested
    against.
    """

    name = "secded"

    def __init__(self, data_bits: int = 64) -> None:
        if not 4 <= data_bits <= 120:
            raise ConfigError(f"data_bits must be in [4, 120], got {data_bits}")
        self.data_bits = data_bits
        # Smallest r with 2^r >= data_bits + r + 1 (Hamming bound).
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.hamming_parity_bits = r
        #: Total code word width including the overall parity bit.
        self.code_bits = data_bits + r + 1
        # 1-based Hamming numbering: parity bits sit at 1, 2, 4, 8, ...
        total = data_bits + r
        positions = np.arange(1, total + 1)
        self._parity_pos = 1 << np.arange(r)
        self._data_pos = positions[~np.isin(positions, self._parity_pos)]
        # Check matrix of the block codec: check k covers every position
        # whose binary expansion has bit k set.
        self._checks = (
            (positions[None, :] & self._parity_pos[:, None]) != 0
        ).T.astype(np.uint8)

    # -- scalar per-word oracle -------------------------------------------

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode a 0/1 array of ``data_bits`` into ``code_bits`` flags."""
        bits = np.asarray(data, dtype=np.uint8).ravel()
        if bits.size != self.data_bits:
            raise ConfigError(
                f"expected {self.data_bits} data bits, got {bits.size}"
            )
        total = self.data_bits + self.hamming_parity_bits
        word = np.zeros(total + 1, dtype=np.uint8)  # 1-based
        word[self._data_pos] = bits
        for p in self._parity_pos:
            covered = (np.arange(1, total + 1) & p) != 0
            word[p] = word[1:][covered].sum() % 2
        overall = word[1:].sum() % 2
        return np.concatenate([word[1:], [overall]]).astype(np.uint8)

    def decode(self, code: np.ndarray) -> tuple[np.ndarray, bool]:
        """Decode; returns ``(data_bits, corrected)``.

        Raises :class:`BitstreamError` on an uncorrectable double error.
        """
        word = np.asarray(code, dtype=np.uint8).ravel()
        if word.size != self.code_bits:
            raise ConfigError(
                f"expected {self.code_bits} code bits, got {word.size}"
            )
        total = self.data_bits + self.hamming_parity_bits
        payload = np.zeros(total + 1, dtype=np.uint8)
        payload[1:] = word[:total]
        overall_stored = int(word[total])

        syndrome = 0
        for p in self._parity_pos:
            covered = (np.arange(1, total + 1) & p) != 0
            if payload[1:][covered].sum() % 2:
                syndrome |= int(p)
        overall_now = (int(payload[1:].sum()) + overall_stored) % 2

        corrected = False
        if syndrome == 0 and overall_now == 0:
            pass  # clean word
        elif overall_now == 1:
            # Odd number of flips -> single error, correctable.
            corrected = True
            if syndrome == 0:
                pass  # the overall parity bit itself flipped
            elif syndrome <= total:
                payload[syndrome] ^= 1
            else:
                raise BitstreamError(
                    f"SECDED syndrome {syndrome} outside word (corrupt frame)"
                )
        else:
            # Even flips with non-zero syndrome -> double error.
            raise BitstreamError("SECDED double-bit error detected")
        return payload[self._data_pos].astype(np.uint8), corrected

    # -- block codec ------------------------------------------------------

    def encode_words(self, data_words: np.ndarray) -> np.ndarray:
        """Hamming-encode every word plus the overall parity bit."""
        words = np.atleast_2d(np.asarray(data_words, dtype=np.uint8))
        if words.shape[1] != self.data_bits:
            raise ConfigError(
                f"expected {self.data_bits} data bits per word, got {words.shape[1]}"
            )
        total = self.data_bits + self.hamming_parity_bits
        payload = np.zeros((words.shape[0], total), dtype=np.uint8)
        payload[:, self._data_pos - 1] = words
        # Parity positions are powers of two, so no check covers another
        # parity bit: the parities can be computed over the data bits alone.
        payload[:, self._parity_pos - 1] = (payload @ self._checks) % 2
        overall = payload.sum(axis=1, dtype=np.int64) % 2
        return np.concatenate([payload, overall[:, None].astype(np.uint8)], axis=1)

    def decode_words(
        self, code_words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Syndrome-decode: correct singles, flag doubles; never raises.

        Words flagged *uncorrectable* (double errors, or a syndrome
        pointing outside the word) return their raw, possibly corrupt,
        data bits so the caller can decide between re-sync and raising.
        """
        words = np.atleast_2d(np.asarray(code_words, dtype=np.uint8))
        if words.shape[1] != self.code_bits:
            raise ConfigError(
                f"expected {self.code_bits} code bits per word, got {words.shape[1]}"
            )
        total = self.data_bits + self.hamming_parity_bits
        payload = words[:, :total].copy()
        overall_stored = words[:, total].astype(np.int64)
        syndrome = (
            ((payload @ self._checks) % 2).astype(np.int64) @ self._parity_pos
        )
        overall_now = (payload.sum(axis=1, dtype=np.int64) + overall_stored) % 2

        single = overall_now == 1
        # Syndrome 0 with odd overall parity: the overall bit itself flipped.
        fixable = single & (syndrome > 0) & (syndrome <= total)
        rows = np.flatnonzero(fixable)
        payload[rows, syndrome[rows] - 1] ^= 1
        uncorrectable = (single & (syndrome > total)) | (~single & (syndrome != 0))
        corrected = single & ~uncorrectable
        return payload[:, self._data_pos - 1], corrected, uncorrectable


@dataclass(frozen=True, slots=True)
class ProtectionPolicy:
    """Per-stream protection assignment for the Memory Unit."""

    name: str
    payload: ProtectionScheme
    nbits: ProtectionScheme
    bitmap: ProtectionScheme

    def scheme_for(self, stream: str) -> ProtectionScheme:
        """Scheme guarding ``stream`` (``payload`` / ``nbits`` / ``bitmap``)."""
        try:
            return {"payload": self.payload, "nbits": self.nbits, "bitmap": self.bitmap}[
                stream
            ]
        except KeyError:
            raise ConfigError(f"unknown stream {stream!r}") from None

    @property
    def is_trivial(self) -> bool:
        """True when no stream carries any protection."""
        return all(
            s.name == "none" for s in (self.payload, self.nbits, self.bitmap)
        )

    @property
    def storage_overhead_percent(self) -> float:
        """Worst single-stream storage overhead.

        Campaign reports additionally compute the *measured* overhead from
        actual per-stream bit counts; this property is the design-time
        bound (12.5 % for SECDED-64/72 on every stream).
        """
        return max(
            s.overhead_percent for s in (self.payload, self.nbits, self.bitmap)
        )

    def describe(self) -> str:
        """One-line summary for tables and logs."""
        return (
            f"{self.name}: payload={self.payload.name} nbits={self.nbits.name} "
            f"bitmap={self.bitmap.name} (+{self.storage_overhead_percent:.1f}% storage)"
        )


def resolve_policy(
    protection: "ProtectionPolicy | str | None",
) -> ProtectionPolicy:
    """Turn a level name (or an existing policy) into a concrete policy.

    Parity and SECDED use the native 64-bit BRAM word geometry on every
    stream — hardware packs the management fields of consecutive columns
    into shared protected words, so the overhead amortises to the scheme's
    64-bit figure (1.6 % for parity, 12.5 % for SECDED).  TMR triplicates
    the per-column NBits management word (8 bits) only.
    """
    if isinstance(protection, ProtectionPolicy):
        return protection
    name = protection or "none"
    if name == "none":
        return ProtectionPolicy(
            "none", NoProtection(), NoProtection(), NoProtection()
        )
    if name == "parity":
        return ProtectionPolicy(
            "parity", ParityProtection(64), ParityProtection(64), ParityProtection(64)
        )
    if name == "tmr-nbits":
        return ProtectionPolicy(
            "tmr-nbits", NoProtection(), TmrProtection(8), NoProtection()
        )
    if name == "secded":
        return ProtectionPolicy(
            "secded", SecdedProtection(64), SecdedProtection(64), SecdedProtection(64)
        )
    raise ConfigError(
        f"unknown protection level {name!r}; expected one of {PROTECTION_LEVELS}"
    )
