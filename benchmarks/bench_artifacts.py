"""Every paper artifact, regenerated and held to its committed golden.

One case per entry of :data:`repro.analysis.artifacts.ARTIFACTS`: it
runs the experiment at the entry's golden geometry, applies the entry's
checks (the paper's numbers, or the shape of the paper's claim, below
in :data:`CHECKS`), and compares the rendered text with the committed
``benchmarks/out/<name>.txt``.  On a difference the new text is written
in place and the case fails with a unified diff: committing the file is
the update.
"""

from __future__ import annotations

import difflib
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.analysis.artifacts import ARTIFACTS, PAPER_BRAM_TABLES
from repro.hardware.device import XC7Z020
from repro.hardware.resources import BLOCK_ANCHORS

OUT_DIR = Path(__file__).parent / "out"

#: The paper's Table I, verbatim: window -> width -> BRAMs.
PAPER_TABLE_1 = {
    8: {512: 8, 1024: 8, 2048: 8, 3840: 16},
    16: {512: 16, 1024: 16, 2048: 16, 3840: 32},
    32: {512: 32, 1024: 32, 2048: 32, 3840: 64},
    64: {512: 64, 1024: 64, 2048: 64, 3840: 128},
    128: {512: 128, 1024: 128, 2048: 128, 3840: 256},
}

#: (width, window) management cells where our BRAM-geometry arithmetic
#: cannot reproduce the paper's number from its own formulas (documented
#: in EXPERIMENTS.md); everywhere else we assert an exact match.
MGMT_DEVIATIONS = {(3840, 32), (3840, 64), (3840, 128)}


def _check_table1(result: Any) -> None:
    for n, row in PAPER_TABLE_1.items():
        for w, expected in row.items():
            assert result.counts[(n, w)] == expected, (n, w)


def _check_bram_table(result: Any) -> None:
    ref = PAPER_BRAM_TABLES[result.width]
    for n in result.windows:
        # Management BRAMs are pure arithmetic: exact, except for the
        # paper's internally-inconsistent 3840 cells.
        plan = result.plans[(n, 0)]
        if (result.width, n) not in MGMT_DEVIATIONS:
            assert plan.management_brams == ref["mgmt"][n], (result.width, n)
        # Packed BRAMs depend on the dataset: counts never increase with
        # threshold, and stay within a factor of two of the paper's cells.
        counts = [result.plans[(n, t)].packed_brams for t in result.thresholds]
        assert counts == sorted(counts, reverse=True)
        for got, paper in zip(counts, ref["packed"][n]):
            assert paper / 2 <= got <= paper * 2, (result.width, n, got, paper)


def _check_resource_table(result: Any) -> None:
    # Anchored cells are the paper's Tables VI-X.
    for n, (luts, regs) in BLOCK_ANCHORS[result.module].items():
        est = result.model.estimate(result.module, n)
        assert (est.luts, est.registers) == (luts, regs), (result.module, n)


def _check_table10(result: Any) -> None:
    _check_resource_table(result)
    # Window 128 exceeds the XC7Z020 (Table X's dashed row); 64 fits.
    assert not result.model.overall(128).fits(XC7Z020)
    assert result.model.overall(64).fits(XC7Z020)


def _check_fig3(result: Any) -> None:
    assert result.peak_total_kbits > 0
    ll = result.subband_kbits["LL"].max()
    for band in ("LH", "HL", "HH"):
        assert ll > result.subband_kbits[band].max()


def _check_fig11(result: Any) -> None:
    savings = {r: s for r, s, _ in result.rows}
    assert savings == {1: 0.0, 2: 50.0, 4: 75.0, 8: 87.5}


def _check_fig12(result: Any) -> None:
    assert {row[0].split("-")[1] for row in result.rows} == {"indoor", "outdoor"}


def _check_fig13(result: Any) -> None:
    # Savings grow with threshold for every window size.
    for n in result.windows:
        means = [result.savings[(n, t)].mean for t in result.thresholds]
        assert means == sorted(means)
    # Lossless savings land in a plausible band around the paper's.
    lossless = [result.savings[(n, 0)].mean for n in result.windows]
    assert min(lossless) > 15.0
    assert max(lossless) < 60.0


def _check_mse(result: Any) -> None:
    means = [result.single_pass[t].mean for t in (2, 4, 6)]
    # Strictly increasing in T and in the paper's order of magnitude.
    assert means == sorted(means)
    assert 0.05 < means[0] < 2.0  # paper: 0.59
    assert 0.3 < means[2] < 10.0  # paper: 4.8
    # Lossy recirculation can only degrade quality.
    assert result.recirculated is not None
    for t in (2, 4, 6):
        assert result.recirculated[t].mean >= result.single_pass[t].mean * 0.99


def _check_headline(result: Any) -> None:
    lo, hi = result.lossless_range
    # The paper's lossless band is 25-70 %.  Our lower bound can hit 0 %
    # at 3840 x 3840 where a compressed row narrowly misses fitting one
    # BRAM (dataset-dependent; see EXPERIMENTS.md); the upper bound matches.
    assert 0.0 <= lo <= 45.0
    assert 55.0 <= hi <= 80.0
    # The lossy best case reproduces the paper's 84 % almost exactly
    # (window 128 at 512 x 512: (128 - 21) / 128 = 83.6 %).
    assert result.best_lossy >= 75.0


def _check_throughput(result: Any) -> None:
    rows = {r[0]: r for r in result.rows}
    assert rows["traditional"][3] == rows["compressed"][3]


def _check_tradeoff(result: Any) -> None:
    by_window = {p.window: p for p in result.points}
    # Savings grow with window size; window 128 busts the XC7Z020 on LUTs
    # even though its BRAM saving is the largest (Table X's dashed row).
    saved = [p.brams_saved for p in result.points]
    assert saved == sorted(saved)
    assert by_window[64].fits_device
    assert not by_window[128].fits_device


def _check_latency(result: Any) -> None:
    # The overhead is a window-independent constant and negligible.
    assert len({r[3] for r in result.rows}) == 1
    assert all(float(r[4].rstrip("%")) < 0.1 for r in result.rows)


def _check_extensions(result: Any) -> None:
    by_key = {(r[0], r[1]): r[2] for r in result.rows}
    base0 = by_key[("paper baseline (1 level)", 0)]
    # Each extension improves the lossless saving meaningfully.
    assert by_key[("LL-DPCM", 0)] > base0 + 5
    assert by_key[("2 levels", 0)] > base0 + 5
    # The combination is the best lossless configuration.
    combo = by_key[("2 levels + LL-DPCM", 0)]
    assert combo >= by_key[("LL-DPCM", 0)] - 1
    assert combo >= by_key[("2 levels", 0)] - 1


def _check_ablation_wavelets(result: Any) -> None:
    bpp = {name: v for name, v, _ in result.rows}
    # Haar compresses within ~20 % of 5/3 at half the datapath cost.
    assert bpp["haar"] < bpp["legall53"] * 1.25


def _check_ablation_levels(result: Any) -> None:
    bpp = {name: v for name, v, _ in result.rows}
    assert bpp["2 level(s)"] <= bpp["1 level(s)"]
    # Deviation from the paper's qualitative claim: because our LL costs
    # a full 9 bits/coefficient, a second level (which decomposes LL)
    # helps substantially; diminishing returns only set in at level 3.
    # Recorded in EXPERIMENTS.md.
    gain2 = bpp["1 level(s)"] - bpp["2 level(s)"]
    gain3 = bpp["2 level(s)"] - bpp["3 level(s)"]
    assert gain3 < gain2


def _check_ablation_nbits(result: Any) -> None:
    totals = {name: v for name, v, _ in result.rows}
    assert totals["per-column (paper)"] < totals["per-sub-band"]


def _check_sensitivity_noise(result: Any) -> None:
    # Noise monotonically destroys the lossless saving...
    lossless = [p.saving_lossless for p in result.points]
    assert lossless == sorted(lossless, reverse=True)
    # ...but the lossy threshold absorbs small-amplitude noise.
    by_value = {p.value: p for p in result.points}
    assert by_value[4.0].saving_lossy > by_value[4.0].saving_lossless + 10


def _check_sensitivity_texture(result: Any) -> None:
    lossless = [p.saving_lossless for p in result.points]
    assert lossless[0] > lossless[-1]


def _check_sensitivity_luminance(result: Any) -> None:
    # Brightness moves LL by at most one NBits step: savings stay stable.
    assert result.lossless_span < 15.0


def _check_related_work_buffering(result: Any) -> None:
    # The paper's scheme is the only one that cuts memory while keeping
    # exactly one off-chip read per output and streaming capability.
    by_name = {r[0]: r for r in result.rows}
    comp_bits = by_name["compressed line buffers (paper)"][1]
    assert comp_bits < by_name["traditional line buffers"][1]
    for name, row in by_name.items():
        if name.startswith(("block", "segmented")):
            assert row[2] > 1.0


def _check_coding_efficiency(result: Any) -> None:
    # Ladder ordering.  The pooled first-order entropy bounds memoryless
    # coefficient coders only; NBits packing adapts per column and per
    # sub-band, so it can land below it (and does on smooth scenes).
    assert result.loco_bpp < result.nbits_total_bpp
    assert result.nbits_total_bpp < result.raw_bpp
    # NBits payload stays within ~1.5x of the pooled entropy: 'good
    # compression ratios' for a coder this cheap (Section II's claim).
    assert result.nbits_overhead_vs_entropy < 1.5


def _check_fault_campaign(result: Any) -> None:
    by_key = {(p.scheme, p.upset_rate, p.threshold): p for p in result.points}
    for threshold in (0, 6):
        secded = by_key[("secded", 1e-3, threshold)]
        none = by_key[("none", 1e-3, threshold)]
        assert secded.corrupted_pixels <= none.corrupted_pixels
        assert secded.storage_overhead_percent <= 12.5 + 1e-9
        assert none.corrupted_pixels > 0


def _check_fault_campaign_1perword(result: Any) -> None:
    # One flip in every stored word: SECDED is bit-exact.
    secded = next(p for p in result.points if p.scheme == "secded")
    none = next(p for p in result.points if p.scheme == "none")
    assert secded.corrupted_pixels == 0
    assert secded.output_mse == 0.0
    assert secded.corrected_words == secded.flips_injected > 0
    assert none.corrupted_pixels > 0


CHECKS: dict[str, Callable[[Any], None]] = {
    "table1": _check_table1,
    **{f"table{i}": _check_bram_table for i in (2, 3, 4, 5)},
    **{f"table{i}": _check_resource_table for i in (6, 7, 8, 9)},
    "table10": _check_table10,
    "fig3": _check_fig3,
    "fig11": _check_fig11,
    "fig12": _check_fig12,
    "fig13": _check_fig13,
    "mse": _check_mse,
    "headline": _check_headline,
    "throughput": _check_throughput,
    "tradeoff": _check_tradeoff,
    "latency": _check_latency,
    "extensions": _check_extensions,
    "ablation_wavelets": _check_ablation_wavelets,
    "ablation_levels": _check_ablation_levels,
    "ablation_nbits": _check_ablation_nbits,
    "sensitivity_noise": _check_sensitivity_noise,
    "sensitivity_texture": _check_sensitivity_texture,
    "sensitivity_luminance": _check_sensitivity_luminance,
    "related_work_buffering": _check_related_work_buffering,
    "coding_efficiency": _check_coding_efficiency,
    "fault_campaign": _check_fault_campaign,
    "fault_campaign_1perword": _check_fault_campaign_1perword,
}


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_bench_artifact(benchmark, name):
    entry = ARTIFACTS[name]
    result = benchmark.pedantic(entry.run, rounds=1, iterations=1)
    text = entry.text(result) + "\n"
    print(f"\n{text}")
    path = OUT_DIR / f"{name}.txt"
    committed = path.read_text() if path.exists() else ""
    if text != committed:
        path.write_text(text)
    CHECKS[name](result)
    if text != committed:
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"{path.name} (committed)",
            tofile=f"{path.name} (regenerated)",
        )
        pytest.fail(
            f"{path} changed; the regenerated text is written in place, "
            f"commit it if the change is intended:\n{''.join(diff)}"
        )
