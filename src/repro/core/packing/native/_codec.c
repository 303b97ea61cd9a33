/* Compiled codec kernels for the compressed sliding-window fast path.
 *
 * Pure C99 with no Python dependency: the loader compiles this file with
 * the system compiler into a shared object and binds it through ctypes,
 * so the native tier works from a source checkout without build tooling
 * (and degrades to the NumPy tier when no compiler is present).
 *
 * Bit-exactness contract: every kernel reproduces the NumPy reference
 * path exactly, including its int32 wrap-around semantics.  NumPy's
 * COEFF_DTYPE arithmetic is two's-complement int32; each lifting step
 * here is computed in int64 (never overflows for int32 operands) and
 * truncated back to int32, which is the same mod-2^32 result.  The
 * optional wrap_bits reduction masks low bits, so exact-int64-then-mask
 * equals NumPy's int32-then-mask for every wrap_bits <= 31.
 */

#include <stdint.h>
#include <string.h>

#if defined(_WIN32)
#define REPRO_API __declspec(dllexport)
#else
#define REPRO_API __attribute__((visibility("default")))
#endif

/* Bumped whenever an exported signature changes; the loader refuses a
 * stale cached .so whose ABI does not match. */
#define REPRO_NATIVE_ABI 3

REPRO_API int64_t
repro_abi_version(void)
{
    return REPRO_NATIVE_ABI;
}

/* -- helpers ---------------------------------------------------------- */

/* One lifting-step result: optional two's-complement reduction into
 * wrap_bits, then truncation to int32 (NumPy's COEFF_DTYPE overflow). */
static inline int32_t
wrap_i32(int64_t v, int64_t wrap_bits)
{
    if (wrap_bits > 0) {
        uint64_t modulus = (uint64_t)1 << wrap_bits;
        int64_t half = (int64_t)(modulus >> 1);
        v = (int64_t)(((uint64_t)(v + half)) & (modulus - 1)) - half;
    }
    return (int32_t)v;
}

/* Minimum two's-complement width of an int32 value: bit_length of
 * (v >= 0 ? v : ~v) plus the sign bit.  Matches min_bits_signed_scalar. */
static inline uint8_t
width_i32(int32_t v)
{
    uint32_t m = (uint32_t)(v ^ (v >> 31));
    return (uint8_t)((m ? 32 - __builtin_clz(m) : 0) + 1);
}

static inline uint8_t
width_i64(int64_t v)
{
    uint64_t m = (uint64_t)(v ^ (v >> 63));
    return (uint8_t)((m ? 64 - __builtin_clzll(m) : 0) + 1);
}

/* -- pair transform (shared-row dataflow, level 1) -------------------- */

/* Single-level 2x2 Haar transform of every adjacent row pair of an
 * (h, w) int64 image, written as the interleaved (h-1, 2, w) int32
 * plane stack: plane[p] is the transform of rows (p, p+1).  Layout per
 * pair: row 0 = LL, HL, LL, HL, ...; row 1 = LH, HH, ...  With
 * ll_dpcm != 0, LL samples are replaced by horizontal differences
 * (first sample absolute), exactly ll_dpcm_forward on the pair stack. */
REPRO_API void
repro_pair_transform(const int64_t *image, int64_t h, int64_t w,
                     int64_t ll_dpcm, int64_t wrap_bits, int32_t *plane)
{
    for (int64_t p = 0; p + 1 < h; p++) {
        const int64_t *r0 = image + p * w;
        const int64_t *r1 = r0 + w;
        int32_t *o0 = plane + p * 2 * w;
        int32_t *o1 = o0 + w;
        int32_t prev_ll = 0;
        for (int64_t j = 0; j + 1 < w; j += 2) {
            int32_t x00 = (int32_t)r0[j];
            int32_t x01 = (int32_t)r0[j + 1];
            int32_t x10 = (int32_t)r1[j];
            int32_t x11 = (int32_t)r1[j + 1];
            /* Rows first (horizontal split) ... */
            int32_t h0 = wrap_i32((int64_t)x00 - x01, wrap_bits);
            int32_t l0 = wrap_i32((int64_t)x01 + (h0 >> 1), wrap_bits);
            int32_t h1 = wrap_i32((int64_t)x10 - x11, wrap_bits);
            int32_t l1 = wrap_i32((int64_t)x11 + (h1 >> 1), wrap_bits);
            /* ... then columns (vertical split). */
            int32_t lh = wrap_i32((int64_t)l0 - l1, wrap_bits);
            int32_t ll = wrap_i32((int64_t)l1 + (lh >> 1), wrap_bits);
            int32_t hh = wrap_i32((int64_t)h0 - h1, wrap_bits);
            int32_t hl = wrap_i32((int64_t)h1 + (hh >> 1), wrap_bits);
            if (ll_dpcm) {
                int32_t absolute = ll;
                if (j > 0)
                    ll = (int32_t)((int64_t)absolute - prev_ll);
                prev_ll = absolute;
            }
            o0[j] = ll;
            o0[j + 1] = hl;
            o1[j] = lh;
            o1[j + 1] = hh;
        }
    }
}

/* -- threshold -------------------------------------------------------- */

/* Zero every |v| < threshold in an (outer, rows, w) int32 stack, in
 * place.  exempt_mod > 0 exempts positions with row % exempt_mod == 0
 * and col % exempt_mod == 0 (the residual-LL mask of the interleaved
 * layout).  Callers skip the call entirely for threshold == 0, matching
 * apply_threshold's identity path. */
REPRO_API void
repro_threshold_i32(int32_t *plane, int64_t outer, int64_t rows, int64_t w,
                    int64_t threshold, int64_t exempt_mod)
{
    int32_t t = (int32_t)threshold;
    for (int64_t b = 0; b < outer; b++) {
        for (int64_t r = 0; r < rows; r++) {
            int32_t *row = plane + (b * rows + r) * w;
            int exempt_row = exempt_mod > 0 && r % exempt_mod == 0;
            if (exempt_row) {
                for (int64_t c = 0; c < w; c++) {
                    if (c % exempt_mod == 0)
                        continue;
                    int32_t v = row[c];
                    if (v < t && v > -t)
                        row[c] = 0;
                }
            } else {
                for (int64_t c = 0; c < w; c++) {
                    int32_t v = row[c];
                    if (v < t && v > -t)
                        row[c] = 0;
                }
            }
        }
    }
}

/* -- recirculating traversals (Fig 4 feedback loop, level 1) --------- */

/* Zero |v| < t, exactly as repro_threshold_i32 does. */
static inline int32_t
threshold_one(int32_t v, int32_t t)
{
    return v < t && v > -t ? 0 : v;
}

/* Map one reconstructed sample back to the pixel range: the low bits
 * for a wrap-around datapath (wrap_bits > 0), saturation otherwise
 * (BandAnalysis.reconstruct's clip). */
static inline int64_t
to_pixel(int32_t v, int64_t wrap_bits, int64_t pixel_max)
{
    if (wrap_bits > 0)
        return (int64_t)((uint32_t)v & (uint32_t)pixel_max);
    return v < 0 ? 0 : (v > pixel_max ? pixel_max : v);
}

/* One 2-row block of one traversal: forward butterflies, optional LL
 * DPCM and threshold into o0/o1; with decode, the inverse into d0 (the
 * row above, NULL for the band's first pair) and d1.  Always inlined
 * with a constant ll_dpcm and a literal 0 for wrap_bits on the unwrapped
 * datapath, so those variants carry no flag branches in the loop. */
static inline __attribute__((always_inline)) void
traverse_pair(const int64_t *restrict r0, const int64_t *restrict r1,
              int32_t *restrict o0, int32_t *restrict o1,
              int64_t *restrict d0, int64_t *restrict d1, int64_t w,
              int32_t t, int64_t exempt_ll, int64_t ll_dpcm,
              int64_t wrap_bits, int64_t pixel_max, int decode)
{
    int32_t prev_ll = 0;
    uint32_t ll_sum = 0;
    for (int64_t j = 0; j + 1 < w; j += 2) {
        int32_t h0 = wrap_i32((int64_t)(int32_t)r0[j] - (int32_t)r0[j + 1],
                              wrap_bits);
        int32_t l0 = wrap_i32((int64_t)(int32_t)r0[j + 1] + (h0 >> 1),
                              wrap_bits);
        int32_t h1 = wrap_i32((int64_t)(int32_t)r1[j] - (int32_t)r1[j + 1],
                              wrap_bits);
        int32_t l1 = wrap_i32((int64_t)(int32_t)r1[j + 1] + (h1 >> 1),
                              wrap_bits);
        int32_t lh = wrap_i32((int64_t)l0 - l1, wrap_bits);
        int32_t ll = wrap_i32((int64_t)l1 + (lh >> 1), wrap_bits);
        int32_t hh = wrap_i32((int64_t)h0 - h1, wrap_bits);
        int32_t hl = wrap_i32((int64_t)h1 + (hh >> 1), wrap_bits);
        if (ll_dpcm) {
            int32_t absolute = ll;
            if (j > 0)
                ll = (int32_t)((int64_t)absolute - prev_ll);
            prev_ll = absolute;
        }
        if (!exempt_ll)
            ll = threshold_one(ll, t);
        hl = threshold_one(hl, t);
        lh = threshold_one(lh, t);
        hh = threshold_one(hh, t);
        o0[j] = ll;
        o0[j + 1] = hl;
        o1[j] = lh;
        o1[j + 1] = hh;
        if (!decode)
            continue;
        if (ll_dpcm) { /* int32 running sum, wrapping like NumPy's */
            ll_sum = j > 0 ? ll_sum + (uint32_t)ll : (uint32_t)ll;
            ll = (int32_t)ll_sum;
        }
        /* Columns first (vertical merge) ... */
        int32_t c1 = wrap_i32((int64_t)ll - (lh >> 1), wrap_bits);
        int32_t c0 = wrap_i32((int64_t)lh + c1, wrap_bits);
        int32_t e1 = wrap_i32((int64_t)hl - (hh >> 1), wrap_bits);
        int32_t e0 = wrap_i32((int64_t)hh + e1, wrap_bits);
        /* ... then rows (horizontal merge). */
        int32_t p01 = wrap_i32((int64_t)c0 - (e0 >> 1), wrap_bits);
        int32_t p00 = wrap_i32((int64_t)e0 + p01, wrap_bits);
        int32_t p11 = wrap_i32((int64_t)c1 - (e1 >> 1), wrap_bits);
        int32_t p10 = wrap_i32((int64_t)e1 + p11, wrap_bits);
        if (d0) {
            d0[j] = to_pixel(p00, wrap_bits, pixel_max);
            d0[j + 1] = to_pixel(p01, wrap_bits, pixel_max);
        }
        d1[j] = to_pixel(p10, wrap_bits, pixel_max);
        d1[j + 1] = to_pixel(p11, wrap_bits, pixel_max);
    }
}

/* Run `count` consecutive traversals y0, y0+1, ... of the recirculating
 * lossy loop over an (h, w) int64 image with an n-row window.  state
 * (n, w) holds the band traversal y presents: rows y-n+1 .. y-1 as the
 * previous traversal reconstructed them, row y raw.  Per traversal:
 *
 *   1. copy state to bands[k];
 *   2. per 2x2 block, the forward butterfly (the pair_transform
 *      arithmetic), the optional LL DPCM and the threshold (LL exempt
 *      when exempt_ll) write the stored plane planes[k];
 *   3. unless y is the last image row, undo the DPCM, run the inverse
 *      butterfly, wrap (wrap_bits > 0) or clip to [0, pixel_max], and
 *      write rows 1 .. n-1 of
 *      that reconstruction to state rows 0 .. n-2, then shift image row
 *      y+1 into state row n-1.
 *
 * bands is (count, n, w) int64 and planes (count, n, w) int32; all
 * arrays are caller-allocated and C-contiguous. */
REPRO_API void
repro_recirculate(const int64_t *restrict image, int64_t h, int64_t w,
                  int64_t n, int64_t y0, int64_t count, int64_t threshold,
                  int64_t exempt_ll, int64_t ll_dpcm, int64_t wrap_bits,
                  int64_t pixel_max, int64_t *restrict state, int64_t *restrict bands,
                  int32_t *restrict planes)
{
    int32_t t = (int32_t)threshold;
    int64_t size = n * w;
    for (int64_t k = 0; k < count; k++) {
        int64_t y = y0 + k;
        int decode = y + 1 < h;
        const int64_t *band = bands + k * size;
        int32_t *plane = planes + k * size;
        memcpy(bands + k * size, state, (size_t)size * sizeof(int64_t));
        for (int64_t i = 0; i < n; i += 2) {
            const int64_t *r0 = band + i * w;
            int32_t *o0 = plane + i * w;
            int64_t *d0 = i > 0 ? state + (i - 1) * w : NULL;
            int64_t *d1 = state + i * w;
            /* Constant flags select a specialised copy of the loop. */
            if (wrap_bits && ll_dpcm)
                traverse_pair(r0, r0 + w, o0, o0 + w, d0, d1, w, t, exempt_ll,
                              1, wrap_bits, pixel_max, decode);
            else if (wrap_bits)
                traverse_pair(r0, r0 + w, o0, o0 + w, d0, d1, w, t, exempt_ll,
                              0, wrap_bits, pixel_max, decode);
            else if (ll_dpcm)
                traverse_pair(r0, r0 + w, o0, o0 + w, d0, d1, w, t, exempt_ll,
                              1, 0, pixel_max, decode);
            else
                traverse_pair(r0, r0 + w, o0, o0 + w, d0, d1, w, t, exempt_ll,
                              0, 0, pixel_max, decode);
        }
        if (decode)
            memcpy(state + (n - 1) * w, image + (y + 1) * w,
                   (size_t)w * sizeof(int64_t));
    }
}

/* -- fused level-1 sizing pass (fast path) ---------------------------- */

/* Peak of the sliding_occupancy trace of one traversal: the ring holds
 * the previous band's first `depth` columns with its first k replaced
 * by the current band's, k = 0 .. depth, plus `base` management bits. */
static int64_t
ring_peak(const int64_t *restrict prev, const int64_t *restrict cur,
          int64_t depth, int64_t base)
{
    int64_t total_prev = 0;
    for (int64_t x = 0; x < depth; x++)
        total_prev += prev[x];
    int64_t best = total_prev + base; /* limit == 0 positions */
    int64_t s_prev = 0, s_cur = 0;
    for (int64_t limit = 1; limit <= depth; limit++) {
        s_prev += prev[limit - 1];
        s_cur += cur[limit - 1];
        int64_t occ = total_prev - s_prev + s_cur + base;
        if (occ > best)
            best = occ;
    }
    return best;
}

/* Reduce band t, whose n/2 pairs t, t+2, .., t+n-2 sit in the ring
 * (pair p in slot p % (n-1): 2w widths, then 2w significance flags),
 * into its per-band results; see repro_band_sizes. */
static void
reduce_band(int64_t t, const uint8_t *restrict ring, int64_t w, int64_t n,
            int64_t mgmt, int64_t groups, int32_t *restrict cnt,
            int64_t *restrict cols, uint8_t *restrict nbits,
            int64_t *restrict counts, int64_t *restrict totals,
            int64_t *restrict peaks, int64_t *restrict group_peaks)
{
    int64_t row = 2 * w, slots = n - 1, half = n >> 1, span = w - n;
    uint8_t *restrict nb = nbits + t * row;
    const uint8_t *restrict w0 = ring + (t % slots) * 2 * row;
    memcpy(nb, w0, (size_t)row);
    for (int64_t c = 0; c < row; c++)
        cnt[c] = w0[row + c];
    for (int64_t i = 1; i < half; i++) {
        const uint8_t *restrict wi = ring + ((t + 2 * i) % slots) * 2 * row;
        for (int64_t c = 0; c < row; c++)
            nb[c] = wi[c] > nb[c] ? wi[c] : nb[c];
        for (int64_t c = 0; c < row; c++)
            cnt[c] += wi[row + c];
    }
    /* Every significant element packs its parity's NBits: a column's
     * payload is counts x NBits per parity. */
    int64_t *cur = cols + (t & 1) * w;
    const int64_t *prev = t > 0 ? cols + ((t - 1) & 1) * w : cur;
    int64_t payload = 0, significant = 0;
    for (int64_t c = 0; c < w; c++) {
        int64_t v = (int64_t)cnt[c] * nb[c] + (int64_t)cnt[w + c] * nb[w + c];
        cur[c] = v;
        payload += v;
        significant += cnt[c] + cnt[w + c];
    }
    counts[t] = significant;
    totals[t] = payload + mgmt * span;
    peaks[t] = ring_peak(prev, cur, span, mgmt * span);
    if (!group_peaks)
        return;
    if (groups == 1) { /* one group holds the band's columns */
        group_peaks[t] = peaks[t] - mgmt * span;
        return;
    }
    /* Per-group, per-parity significant counts: band row 2i+q (pair
     * t+2i, parity q) belongs to group (2i+q) / rows_per_group. */
    int64_t r = n / groups;
    int32_t *restrict gcnt = cnt + row; /* (groups, 2, w) */
    memset(gcnt, 0, (size_t)(groups * row) * sizeof(int32_t));
    for (int64_t i = 0; i < half; i++) {
        const uint8_t *restrict sg = ring + ((t + 2 * i) % slots) * 2 * row + row;
        for (int64_t q = 0; q < 2; q++) {
            int32_t *restrict dst = gcnt + ((2 * i + q) / r) * row + q * w;
            for (int64_t c = 0; c < w; c++)
                dst[c] += sg[q * w + c];
        }
    }
    int64_t *gcur = cols + 2 * w + (t & 1) * groups * w;
    const int64_t *gprev = t > 0 ? cols + 2 * w + ((t - 1) & 1) * groups * w : gcur;
    for (int64_t g = 0; g < groups; g++) {
        const int32_t *gc = gcnt + g * row;
        int64_t *dst = gcur + g * w;
        for (int64_t c = 0; c < w; c++)
            dst[c] = (int64_t)gc[c] * nb[c] + (int64_t)gc[w + c] * nb[w + c];
        group_peaks[t * groups + g] = ring_peak(gprev + g * w, dst, span, 0);
    }
}

/* The whole pass with its flags as constants (always inlined into one
 * specialised copy per flag combination). */
static inline __attribute__((always_inline)) void
band_sizes_body(const int64_t *restrict image, int64_t h, int64_t w,
                int64_t n, int32_t t, int64_t exempt_ll, int64_t ll_dpcm,
                int64_t wrap_bits, int64_t mgmt, int64_t groups,
                int32_t *restrict coef, uint8_t *restrict ring,
                int32_t *restrict cnt, int64_t *restrict cols,
                uint8_t *restrict nbits, int64_t *restrict counts,
                int64_t *restrict totals, int64_t *restrict peaks,
                int64_t *restrict group_peaks)
{
    int64_t row = 2 * w, slots = n - 1;
    for (int64_t p = 0; p + 1 < h; p++) {
        traverse_pair(image + p * w, image + (p + 1) * w, coef, coef + w,
                      NULL, NULL, w, t, exempt_ll, ll_dpcm, wrap_bits, 0, 0);
        uint8_t *restrict wd = ring + (p % slots) * 2 * row;
        uint8_t *restrict sg = wd + row;
        for (int64_t c = 0; c < row; c++) {
            int32_t v = coef[c];
            wd[c] = width_i32(v);
            sg[c] = v != 0;
        }
        if (p >= n - 2) /* pair p completes band p - n + 2 */
            reduce_band(p - n + 2, ring, w, n, mgmt, groups, cnt, cols,
                        nbits, counts, totals, peaks, group_peaks);
    }
}

/* Per-band compressed sizes of every traversal of an (h, w) int64 image
 * with an n-row window, level 1, in one streaming pass that keeps no
 * frame-sized intermediate.  Each row pair is transformed (the
 * repro_recirculate butterfly, optional LL DPCM, threshold with the LL
 * exempt when exempt_ll) into the 2w int32 row `coef`, turned into
 * element widths and significance flags held in a ring of n-1 pair rows,
 * and every band t = 0 .. h-n is reduced as soon as its last pair is in:
 *
 *   nbits[t][q][c]  per-parity NBits (T, 2, w) uint8
 *   counts[t]       significant coefficients
 *   totals[t]       payload bits plus mgmt bits per ring slot
 *   peaks[t]        occupancy peak against band t-1 (band 0: itself)
 *   group_peaks[t][g]  (nullable) payload-only peak of each of `groups`
 *                   aligned row groups of n / groups rows
 *
 * Scratch, caller-allocated: coef 2w int32, ring (n-1) * 4w uint8,
 * cnt (groups + 1) * 2w int32, cols 2 * (groups + 1) * w int64. */
REPRO_API void
repro_band_sizes(const int64_t *restrict image, int64_t h, int64_t w,
                 int64_t n, int64_t threshold, int64_t exempt_ll,
                 int64_t ll_dpcm, int64_t wrap_bits, int64_t mgmt,
                 int64_t groups, int32_t *restrict coef,
                 uint8_t *restrict ring, int32_t *restrict cnt,
                 int64_t *restrict cols, uint8_t *restrict nbits,
                 int64_t *restrict counts, int64_t *restrict totals,
                 int64_t *restrict peaks, int64_t *restrict group_peaks)
{
    int32_t t = (int32_t)threshold;
#define REPRO_BAND_SIZES(EX, DP, WB)                                        \
    band_sizes_body(image, h, w, n, t, EX, DP, WB, mgmt, groups, coef, ring, \
                    cnt, cols, nbits, counts, totals, peaks, group_peaks)
    /* Constant flags select a specialised copy of the pass. */
    if (wrap_bits) {
        if (exempt_ll && ll_dpcm)
            REPRO_BAND_SIZES(1, 1, wrap_bits);
        else if (exempt_ll)
            REPRO_BAND_SIZES(1, 0, wrap_bits);
        else if (ll_dpcm)
            REPRO_BAND_SIZES(0, 1, wrap_bits);
        else
            REPRO_BAND_SIZES(0, 0, wrap_bits);
    } else {
        if (exempt_ll && ll_dpcm)
            REPRO_BAND_SIZES(1, 1, 0);
        else if (exempt_ll)
            REPRO_BAND_SIZES(1, 0, 0);
        else if (ll_dpcm)
            REPRO_BAND_SIZES(0, 1, 0);
        else
            REPRO_BAND_SIZES(0, 0, 0);
    }
#undef REPRO_BAND_SIZES
}

/* -- pair reduce (NBits / significance over sliding pair windows) ----- */

/* From the thresholded (h-1, 2, w) pair plane, produce per-band packing
 * sizes for every traversal band of an n-row window:
 *
 *   nbits[t][q][c]  = max element width over band t's parity-q rows
 *   cols[t][c]      = payload bits of plane column c of band t
 *   counts[t]       = significant coefficients in band t
 *
 * Band t covers pairs t, t+2, ..., t+n-2 (the shared-row dataflow);
 * nbits is (T, 2, w) uint8 (an NBits field is at most 32), widths8/sig
 * are (h-1, 2, w) uint8 scratch, maxw (2, w) uint8 and cnt (2, w)
 * int32 scratch, all caller-allocated. */
REPRO_API void
repro_pair_reduce(const int32_t *restrict plane, int64_t h, int64_t w,
                  int64_t n, uint8_t *restrict widths8,
                  uint8_t *restrict sig, uint8_t *restrict maxw,
                  int32_t *restrict cnt, uint8_t *restrict nbits,
                  int64_t *restrict cols, int64_t *restrict counts)
{
    int64_t pairs = h - 1;
    int64_t row = 2 * w; /* elements per pair block */
    for (int64_t p = 0; p < pairs; p++) {
        const int32_t *restrict src = plane + p * row;
        uint8_t *restrict wd = widths8 + p * row;
        uint8_t *restrict sg = sig + p * row;
        for (int64_t c = 0; c < row; c++) {
            int32_t v = src[c];
            wd[c] = width_i32(v);
            sg[c] = v != 0;
        }
    }
    int64_t half = n >> 1;
    int64_t t_total = h - n + 1;
    for (int64_t t = 0; t < t_total; t++) {
        const uint8_t *restrict w0 = widths8 + t * row;
        const uint8_t *restrict s0 = sig + t * row;
        memcpy(maxw, w0, (size_t)row);
        for (int64_t c = 0; c < row; c++)
            cnt[c] = s0[c];
        for (int64_t i = 1; i < half; i++) {
            const uint8_t *restrict wi = widths8 + (t + 2 * i) * row;
            const uint8_t *restrict si = sig + (t + 2 * i) * row;
            for (int64_t c = 0; c < row; c++)
                if (wi[c] > maxw[c])
                    maxw[c] = wi[c];
            for (int64_t c = 0; c < row; c++)
                cnt[c] += si[c];
        }
        uint8_t *nb = nbits + t * row;
        int64_t *cl = cols + t * w;
        int64_t total = 0;
        for (int64_t c = 0; c < w; c++) {
            int64_t nb0 = maxw[c];
            int64_t nb1 = maxw[w + c];
            int64_t c0 = cnt[c];
            int64_t c1 = cnt[w + c];
            nb[c] = maxw[c];
            nb[w + c] = maxw[w + c];
            cl[c] = c0 * nb0 + c1 * nb1;
            total += c0 + c1;
        }
        counts[t] = total;
    }
}

/* -- per-parity NBits of a (T, N, W) interleaved stack ---------------- */

/* min_bits_signed over each parity row class of every band: the native
 * form of threshold_and_size's "pack" stage.  Output (T, 2, W). */
REPRO_API void
repro_stack_nbits_i32(const int32_t *plane, int64_t t_total, int64_t rows,
                      int64_t w, int64_t *nbits)
{
    for (int64_t t = 0; t < t_total; t++) {
        const int32_t *band = plane + t * rows * w;
        int64_t *nb = nbits + t * 2 * w;
        for (int64_t c = 0; c < 2 * w; c++)
            nb[c] = 1;
        for (int64_t r = 0; r < rows; r++) {
            const int32_t *src = band + r * w;
            int64_t *dst = nb + (r & 1) * w;
            for (int64_t c = 0; c < w; c++) {
                int64_t wd = width_i32(src[c]);
                if (wd > dst[c])
                    dst[c] = wd;
            }
        }
    }
}

/* -- element-wise widths ---------------------------------------------- */

REPRO_API void
repro_bit_widths_i64(const int64_t *values, int64_t count, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = width_i64(values[i]);
}

/* -- FIFO occupancy peaks --------------------------------------------- */

/* Per-traversal maximum of sliding_occupancy over a (t_total, w) column
 * size stack.  Traversal t references traversal t-1's sizes; prev_last
 * (nullable) carries the final sizes of a preceding chunk, and the
 * first traversal of a frame references itself. */
REPRO_API void
repro_occupancy_peaks(const int64_t *cols, int64_t t_total, int64_t w,
                      int64_t n, int64_t mgmt, const int64_t *prev_last,
                      int64_t *peaks)
{
    int64_t depth = w - n; /* ring slots */
    for (int64_t t = 0; t < t_total; t++) {
        const int64_t *cur = cols + t * w;
        const int64_t *prev =
            t > 0 ? cols + (t - 1) * w : (prev_last ? prev_last : cur);
        peaks[t] = ring_peak(prev, cur, depth, mgmt * depth);
    }
}

/* -- variable-width bit streams --------------------------------------- */

/* values_to_bits: pack values[i] into widths[i] LSB-first 0/1 flags.
 * Returns the number of bits written (== sum(widths)). */
REPRO_API int64_t
repro_pack_values(const int64_t *values, const int64_t *widths,
                  int64_t count, uint8_t *bits)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t v = values[i];
        int64_t wd = widths[i];
        for (int64_t k = 0; k < wd; k++)
            bits[pos++] = (uint8_t)((v >> k) & 1);
    }
    return pos;
}

/* bits_to_values: reassemble one integer per field, optionally
 * sign-extending each from its own width. */
REPRO_API void
repro_unpack_values(const uint8_t *bits, const int64_t *widths,
                    int64_t count, int64_t sign_extend, int64_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t wd = widths[i];
        int64_t v = 0;
        for (int64_t k = 0; k < wd; k++)
            v |= (int64_t)bits[pos + k] << k;
        pos += wd;
        if (sign_extend && wd > 0 && (v >> (wd - 1)) & 1)
            v -= (int64_t)1 << wd;
        out[i] = v;
    }
}

/* -- one interleaved column ------------------------------------------- */

/* pack_interleaved_column: threshold, per-parity NBits, significance
 * bitmap and the LSB-first payload of one n-element column.  payload
 * must hold at least 64 * n bits.  Returns the payload bit count;
 * nbits_out receives {even, odd}. */
REPRO_API int64_t
repro_pack_column(const int64_t *column, int64_t n, int64_t threshold,
                  int64_t exempt_even, int64_t *nbits_out,
                  uint8_t *bitmap, uint8_t *payload)
{
    uint8_t nb_even = 1, nb_odd = 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t v = column[i];
        int even = (i & 1) == 0;
        if (threshold > 0 && !(exempt_even && even) && v < threshold &&
            v > -threshold)
            v = 0;
        uint8_t wd = width_i64(v);
        if (even) {
            if (wd > nb_even)
                nb_even = wd;
        } else if (wd > nb_odd) {
            nb_odd = wd;
        }
        bitmap[i] = v != 0;
    }
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++) {
        if (!bitmap[i])
            continue;
        int64_t v = column[i];
        if (threshold > 0 && !(exempt_even && (i & 1) == 0) &&
            v < threshold && v > -threshold)
            v = 0;
        int64_t wd = (i & 1) == 0 ? nb_even : nb_odd;
        for (int64_t k = 0; k < wd; k++)
            payload[pos++] = (uint8_t)((v >> k) & 1);
    }
    nbits_out[0] = nb_even;
    nbits_out[1] = nb_odd;
    return pos;
}
