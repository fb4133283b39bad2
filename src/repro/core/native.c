/*
 * Fused scans over the bit-packed layout (paper Functions 1-3, section 3),
 * scanned chunk at a time the Willhalm way (section 8).
 *
 * Layout: one little-endian bit stream per column, element i at bit
 * i * bits, so chunk c (64 elements) is exactly the words
 * [c * bits, (c + 1) * bits).  Every kernel below touches only the words
 * of the chunks it is given; the Python caller checks that the buffer
 * holds them before each call, so nothing here reads or writes past a
 * buffer.
 *
 * Decoding a chunk has two implementations:
 *  - one fully unrolled scalar decode (and pack) per width 1..64, so every
 *    shift and mask is a constant: every width on every host, and the
 *    only one `repack` uses;
 *  - on x86-64 hosts with AVX2 (checked at run time; the library is built
 *    without -march), widths 2..25 and 32 decode eight elements at a time:
 *    two 16-byte loads inside the chunk, one byte shuffle that puts each
 *    element's 4 bytes in its 32-bit lane, one shift and one mask.  A
 *    column the scan only filters on is compared in those lanes and never
 *    stored.
 * The scans decode one chunk per needed column into a stack buffer, build
 * a 64-bit match mask from per-column [lo, hi] intervals, and fold the
 * aggregates off the mask.
 *
 * Built by repro.core.native with `cc -O3 -fPIC -shared`, called through
 * ctypes (which releases the GIL for the duration of a call).
 */

#include <stdint.h>
#include <string.h>
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LANE_BITS 25
#else
#define LANE_BITS 0
#endif

#define CHUNK 64
#define MAX_COLUMNS 32

typedef unsigned __int128 u128;
typedef void (*chunk_fn)(const uint64_t *restrict, uint64_t *restrict);

#define LOW_BITS(B) ((B) == 64 ? ~0ULL : (1ULL << ((B) & 63)) - 1)

#define DEFINE_WIDTH(B)                                                   \
    static void decode_##B(const uint64_t *restrict w,                    \
                           uint64_t *restrict out)                        \
    {                                                                     \
        _Pragma("GCC unroll 64")                                          \
        for (unsigned j = 0; j < CHUNK; j++) {                            \
            const unsigned pos = j * (B), word = pos >> 6, off = pos & 63; \
            uint64_t v = w[word] >> off;                                  \
            if (off + (B) > 64)                                           \
                v |= w[word + 1] << ((64 - off) & 63);                    \
            out[j] = v & LOW_BITS(B);                                     \
        }                                                                 \
    }                                                                     \
    static void pack_##B(const uint64_t *restrict in,                     \
                         uint64_t *restrict w)                            \
    {                                                                     \
        memset(w, 0, (B) * sizeof(uint64_t));                             \
        _Pragma("GCC unroll 8")                                           \
        for (unsigned j = 0; j < CHUNK; j++) {                            \
            const unsigned pos = j * (B), word = pos >> 6, off = pos & 63; \
            w[word] |= in[j] << off;                                      \
            if (off + (B) > 64)                                           \
                w[word + 1] |= in[j] >> ((64 - off) & 63);                \
        }                                                                 \
    }

#define EACH_WIDTH(X)                                                     \
    X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11) X(12)        \
    X(13) X(14) X(15) X(16) X(17) X(18) X(19) X(20) X(21) X(22) X(23)     \
    X(24) X(25) X(26) X(27) X(28) X(29) X(30) X(31) X(32) X(33) X(34)     \
    X(35) X(36) X(37) X(38) X(39) X(40) X(41) X(42) X(43) X(44) X(45)     \
    X(46) X(47) X(48) X(49) X(50) X(51) X(52) X(53) X(54) X(55) X(56)     \
    X(57) X(58) X(59) X(60) X(61) X(62) X(63) X(64)

EACH_WIDTH(DEFINE_WIDTH)

#define DECODE_ENTRY(B) decode_##B,
#define PACK_ENTRY(B) pack_##B,
static const chunk_fn DECODE[65] = {0, EACH_WIDTH(DECODE_ENTRY)};
static const chunk_fn PACK[65] = {0, EACH_WIDTH(PACK_ENTRY)};

#define FOR_EACH_COLUMN(c, set)                                           \
    for (uint32_t rest_ = (set), c; rest_ &&                              \
         ((c = (uint32_t)__builtin_ctz(rest_)), 1); rest_ &= rest_ - 1)

/* One column of a scan call, prepared once per call. */
struct column {
    const uint64_t *words;
    int bits;
    /* Filter interval [lo, lo + width], clamped to the width. */
    uint64_t lo, width;
    /* Decoded eight lanes at a time: elements 4h..4h+3 of group g (of 8)
     * are the 16 bytes at byte base[2g + h] of the chunk, shuffled by
     * ctl[g] (lane j takes its element's 4 bytes) and shifted right by
     * shift[g][j].  Every byte read lies inside the chunk. */
    int lanes;
    int32_t base[16];
    uint8_t ctl[8][32];
    uint32_t shift[8][8];
};

struct scan {
    struct column col[MAX_COLUMNS];
    uint32_t used, filtered;
    /* Columns whose values the folds read (the others are only
     * filtered on, and one decoded in lanes is never stored). */
    uint32_t stored;
};

static int have_lanes(void)
{
#if LANE_BITS
    static int known = -1;
    if (known < 0)
        known = __builtin_cpu_supports("avx2") ? 1 : 0;
    return known;
#else
    return 0;
#endif
}

/* Fill `s` for the columns in `stored` and `filtered`; 0 when some
 * filter interval is empty (nothing can match). */
static int prepare(struct scan *s, const uint64_t *const *words,
                   const int32_t *bits, uint32_t stored, uint32_t filtered,
                   const uint64_t *lo, const uint64_t *hi)
{
    const int lanes = have_lanes();

    s->used = stored | filtered;
    s->filtered = filtered;
    s->stored = stored;
    FOR_EACH_COLUMN(c, s->used) {
        struct column *col = &s->col[c];
        const int b = bits[c];
        col->words = words[c];
        col->bits = b;
        if (filtered >> c & 1) {
            const uint64_t top = hi[c] < LOW_BITS(b) ? hi[c] : LOW_BITS(b);
            if (lo[c] > top)
                return 0;
            col->lo = lo[c];
            col->width = top - lo[c];
        }
        col->lanes = lanes && b >= 2 && (b <= LANE_BITS || b == 32);
        for (int j = 0; col->lanes && j < CHUNK; j++) {
            /* The element's 4-byte window, kept inside the chunk's 8b
             * bytes; the 16-byte load of its half-group likewise. */
            const int32_t first = j & ~3, window_last = 8 * b - 4,
                          load_last = 8 * b - 16;
            int32_t start = j * b >> 3, half = first * b >> 3;
            start = start < window_last ? start : window_last;
            half = half < window_last ? half : window_last;
            half = half < load_last ? half : load_last;
            col->base[j >> 2] = half;
            for (int q = 0; q < 4; q++)
                col->ctl[j >> 3][16 * (j >> 2 & 1) + 4 * (j & 3) + q] =
                    (uint8_t)(start - half + q);
            col->shift[j >> 3][j & 7] = (uint32_t)(j * b - 8 * start);
        }
    }
    return 1;
}

/* Rows of chunk i (of a run with `valid` rows) that hold data. */
static inline uint64_t valid_mask(int64_t valid, int64_t i)
{
    const int64_t left = valid - i * CHUNK;
    return left >= CHUNK ? ~0ULL : (1ULL << left) - 1;
}

/* Rows of v in [lo, lo + width]. */
static inline uint64_t range_mask(const uint64_t *v, uint64_t lo,
                                  uint64_t width)
{
    uint64_t m = 0;
    for (unsigned j = 0; j < CHUNK; j++)
        m |= (uint64_t)(v[j] - lo <= width) << j;
    return m;
}

#if LANE_BITS
/* Elements 8g..8g+7 of the chunk at w, one per 32-bit lane. */
__attribute__((target("avx2"))) static inline __m256i
lanes8(const uint64_t *w, const struct column *col, unsigned g)
{
    const uint8_t *bytes = (const uint8_t *)w;
    const __m256i x = _mm256_shuffle_epi8(
        _mm256_loadu2_m128i((const __m128i *)(bytes + col->base[2 * g + 1]),
                            (const __m128i *)(bytes + col->base[2 * g])),
        _mm256_loadu_si256((const __m256i *)col->ctl[g]));
    return _mm256_and_si256(
        _mm256_srlv_epi32(x, _mm256_loadu_si256(
                                 (const __m256i *)col->shift[g])),
        _mm256_set1_epi32((int)LOW_BITS(col->bits)));
}

__attribute__((target("avx2"))) static void
decode_lanes(const uint64_t *w, const struct column *col, uint64_t *out)
{
    for (unsigned j = 0; j < CHUNK; j += 8) {
        const __m256i x = lanes8(w, col, j >> 3);
        _mm256_storeu_si256((__m256i *)(out + j),
                            _mm256_cvtepu32_epi64(_mm256_castsi256_si128(x)));
        _mm256_storeu_si256(
            (__m256i *)(out + j + 4),
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(x, 1)));
    }
}

/* Rows of the chunk at w in the column's interval, never stored. */
__attribute__((target("avx2"))) static uint64_t
match_lanes(const uint64_t *w, const struct column *col)
{
    const __m256i bias = _mm256_set1_epi32((int)0x80000000u);
    const __m256i low = _mm256_set1_epi32((int)(uint32_t)col->lo);
    const __m256i limit = _mm256_set1_epi32(
        (int)((uint32_t)col->width ^ 0x80000000u));
    uint64_t m = 0;
    for (unsigned j = 0; j < CHUNK; j += 8) {
        const __m256i x = _mm256_xor_si256(
            _mm256_sub_epi32(lanes8(w, col, j >> 3), low), bias);
        const int out = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(x, limit)));
        m |= (uint64_t)(~out & 255) << j;
    }
    return m;
}
#endif

/* Decode chunk `chunk` of the columns the folds read into vals, and
 * return the rows of m that fall in every filtered column's interval. */
static inline uint64_t decode_and_match(const struct scan *s, int64_t chunk,
                                        uint64_t m,
                                        uint64_t vals[][CHUNK])
{
    FOR_EACH_COLUMN(c, s->used) {
        const struct column *col = &s->col[c];
        const uint64_t *w = col->words + chunk * col->bits;
#if LANE_BITS
        if (col->lanes) {
            if (!(s->stored >> c & 1)) {
                m &= match_lanes(w, col);
                continue;
            }
            decode_lanes(w, col, vals[c]);
        } else
#endif
            DECODE[col->bits](w, vals[c]);
        if (s->filtered >> c & 1)
            m &= range_mask(vals[c], col->lo, col->width);
    }
    return m;
}

/* Sum of the rows of v in m: one word while 64 of them cannot wrap it. */
static inline u128 masked_sum(const uint64_t *v, uint64_t m, int bits)
{
    if (bits <= 58) {
        uint64_t s = 0;
        if (m == ~0ULL)
            for (unsigned j = 0; j < CHUNK; j++)
                s += v[j];
        else
            for (unsigned j = 0; j < CHUNK; j++)
                s += v[j] & (0 - ((m >> j) & 1));
        return s;
    }
    u128 s = 0;
    for (unsigned j = 0; j < CHUNK; j++)
        s += v[j] & (0 - ((m >> j) & 1));
    return s;
}

/*
 * Ungrouped aggregate of chunks [first, first + count), whose first
 * `valid` rows hold data, under the conjunction of lo[c] <= v <= hi[c]
 * over the columns in `filtered`.  For each column c in `summed`, out[4c]
 * and out[4c + 1] receive the low and high words of the exact 128-bit
 * sum of its matching rows; for each column in `extremes`, out[4c + 2]
 * and out[4c + 3] their min and max.  Returns the matching row count.
 */
int64_t scan_agg(const uint64_t *const *words, const int32_t *bits,
                 int64_t first, int64_t count, int64_t valid,
                 const uint64_t *lo, const uint64_t *hi, uint32_t filtered,
                 uint32_t summed, uint32_t extremes, uint64_t *out)
{
    struct scan s;
    uint64_t vals[MAX_COLUMNS][CHUNK];
    u128 sums[MAX_COLUMNS] = {0};
    uint64_t mins[MAX_COLUMNS], maxs[MAX_COLUMNS];
    int64_t matched = 0;

    if (!prepare(&s, words, bits, summed | extremes, filtered, lo, hi))
        return 0;
    for (unsigned c = 0; c < MAX_COLUMNS; c++) {
        mins[c] = ~0ULL;
        maxs[c] = 0;
    }
    for (int64_t i = 0; i < count; i++) {
        const uint64_t m = decode_and_match(&s, first + i,
                                            valid_mask(valid, i), vals);
        if (!m)
            continue;
        matched += __builtin_popcountll(m);
        FOR_EACH_COLUMN(c, summed)
            sums[c] += masked_sum(vals[c], m, bits[c]);
        FOR_EACH_COLUMN(c, extremes) {
            const uint64_t *v = vals[c];
            uint64_t mn = mins[c], mx = maxs[c];
            if (m == ~0ULL)
                for (unsigned j = 0; j < CHUNK; j++) {
                    mn = v[j] < mn ? v[j] : mn;
                    mx = v[j] > mx ? v[j] : mx;
                }
            else
                for (uint64_t rest = m; rest; rest &= rest - 1) {
                    const uint64_t x = v[__builtin_ctzll(rest)];
                    mn = x < mn ? x : mn;
                    mx = x > mx ? x : mx;
                }
            mins[c] = mn;
            maxs[c] = mx;
        }
    }
    FOR_EACH_COLUMN(c, summed | extremes) {
        out[4 * c] = (uint64_t)sums[c];
        out[4 * c + 1] = (uint64_t)(sums[c] >> 64);
        out[4 * c + 2] = mins[c];
        out[4 * c + 3] = maxs[c];
    }
    return matched;
}

static inline void add128(uint64_t *slot, uint64_t v)
{
    slot[0] += v;
    slot[1] += slot[0] < v;
}

/* Keys at most this wide, and at most SMALL_SUMS summed columns whose
 * run sums fit a word, fold into SMALL_COPIES interleaved copies of the
 * slots: consecutive rows of one key then do not wait on each other's
 * stores.  With one summed column whose sum and count fit one word side
 * by side (count above bit `count_shift`), a row is one add. */
#define SMALL_KEY_BITS 8
#define SMALL_SUMS 4
#define SMALL_COPIES 4
#define SMALL_SLOTS (1 << SMALL_KEY_BITS)

static int64_t group_small(const struct scan *s, int64_t first,
                           int64_t count, int64_t valid, int32_t key,
                           uint32_t summed, int count_shift,
                           int64_t *counts, uint64_t *sums)
{
    uint64_t vals[MAX_COLUMNS][CHUNK];
    uint64_t n[SMALL_COPIES][SMALL_SLOTS] = {{0}};
    uint64_t acc[SMALL_SUMS][SMALL_COPIES][SMALL_SLOTS] = {{{0}}};
    const uint64_t *v[SMALL_SUMS];
    uint32_t cols[SMALL_SUMS];
    const int64_t slots = (int64_t)1 << s->col[key].bits;
    const uint64_t one = count_shift ? 1ULL << count_shift : 0;
    int ns = 0;
    int64_t matched = 0;

    FOR_EACH_COLUMN(c, summed) {
        cols[ns] = c;
        v[ns++] = vals[c];
    }
    for (int64_t i = 0; i < count; i++) {
        const uint64_t m = decode_and_match(s, first + i,
                                            valid_mask(valid, i), vals);
        const uint64_t *keys = vals[key];
        matched += __builtin_popcountll(m);
        if (m == ~0ULL && one) {
            for (unsigned j = 0; j < CHUNK; j += SMALL_COPIES)
                for (unsigned q = 0; q < SMALL_COPIES; q++)
                    acc[0][q][keys[j + q]] += v[0][j + q] + one;
            continue;
        }
        if (m == ~0ULL) {
            for (unsigned j = 0; j < CHUNK; j += SMALL_COPIES)
                for (unsigned q = 0; q < SMALL_COPIES; q++) {
                    const uint64_t k = keys[j + q];
                    n[q][k]++;
                    for (int c = 0; c < ns; c++)
                        acc[c][q][k] += v[c][j + q];
                }
            continue;
        }
        for (uint64_t rest = m; rest; rest &= rest - 1) {
            const unsigned j = (unsigned)__builtin_ctzll(rest);
            const uint64_t k = keys[j];
            n[0][k]++;
            for (int c = 0; c < ns; c++)
                acc[c][0][k] += v[c][j];
        }
    }
    for (int64_t k = 0; k < slots; k++)
        for (unsigned q = 0; q < SMALL_COPIES; q++) {
            uint64_t rows = n[q][k];
            if (one) {
                rows += acc[0][q][k] >> count_shift;
                acc[0][q][k] &= one - 1;
            }
            counts[k] += (int64_t)rows;
            for (int c = 0; c < ns; c++)
                add128(sums + 2 * (cols[c] * slots + k), acc[c][q][k]);
        }
    return matched;
}

/*
 * scan_agg grouped by column `key`, whose values index per-slot
 * accumulators directly (slots = 2**bits[key]): counts[k] += matching
 * rows with key k; for each column c in `summed`, the 128-bit sum of
 * those rows is added into sums[2 * (c * slots + k)] (low word) and the
 * word after it (high word); for each column in `extremes`, mins and
 * maxs[c * slots + k] fold their min and max.  Accumulates across calls;
 * returns the matching row count of this one.
 */
int64_t scan_group(const uint64_t *const *words, const int32_t *bits,
                   int64_t first, int64_t count, int64_t valid,
                   const uint64_t *lo, const uint64_t *hi, uint32_t filtered,
                   int32_t key, uint32_t summed, uint32_t extremes,
                   int64_t *counts, uint64_t *sums, uint64_t *mins,
                   uint64_t *maxs)
{
    struct scan s;
    uint64_t vals[MAX_COLUMNS][CHUNK];
    const uint32_t stored = summed | extremes | (1u << key);
    const int64_t slots = (int64_t)1 << bits[key];
    const int run_bits = 64 - __builtin_clzll((uint64_t)count * CHUNK | 1);
    int64_t matched = 0;
    int small = bits[key] <= SMALL_KEY_BITS && !extremes &&
                __builtin_popcount(summed) <= SMALL_SUMS;

    if (!prepare(&s, words, bits, stored, filtered, lo, hi))
        return 0;
    FOR_EACH_COLUMN(c, summed)
        small &= bits[c] + run_bits <= 64;
    if (small) {
        int shift = 0;
        if (__builtin_popcount(summed) == 1) {
            shift = bits[__builtin_ctz(summed)] + run_bits;
            shift = shift + run_bits <= 64 ? shift : 0;
        }
        return group_small(&s, first, count, valid, key, summed, shift,
                           counts, sums);
    }
    for (int64_t i = 0; i < count; i++) {
        const uint64_t m = decode_and_match(&s, first + i,
                                            valid_mask(valid, i), vals);
        const uint64_t *keys = vals[key];
        matched += __builtin_popcountll(m);
        for (uint64_t rest = m; rest; rest &= rest - 1)
            counts[keys[__builtin_ctzll(rest)]]++;
        FOR_EACH_COLUMN(c, summed) {
            const uint64_t *v = vals[c];
            uint64_t *acc = sums + 2 * c * slots;
            for (uint64_t rest = m; rest; rest &= rest - 1) {
                const unsigned j = (unsigned)__builtin_ctzll(rest);
                add128(acc + 2 * keys[j], v[j]);
            }
        }
        FOR_EACH_COLUMN(c, extremes) {
            const uint64_t *v = vals[c];
            uint64_t *mn = mins + c * slots, *mx = maxs + c * slots;
            for (uint64_t rest = m; rest; rest &= rest - 1) {
                const unsigned j = (unsigned)__builtin_ctzll(rest);
                const uint64_t k = keys[j];
                if (v[j] < mn[k])
                    mn[k] = v[j];
                if (v[j] > mx[k])
                    mx[k] = v[j];
            }
        }
    }
    return matched;
}

/*
 * Re-pack chunks [first, first + count) of `src` (sbits wide) into the
 * same chunks of `dst` at tbits.  Returns -1, or the index of the first
 * element that does not fit tbits (its value in *bad); the chunks before
 * it are already written.
 */
int64_t repack(const uint64_t *src, int32_t sbits, uint64_t *dst,
               int32_t tbits, int64_t first, int64_t count, uint64_t *bad)
{
    uint64_t vals[CHUNK];
    const uint64_t over = ~LOW_BITS(tbits);

    for (int64_t chunk = first; chunk < first + count; chunk++) {
        DECODE[sbits](src + chunk * sbits, vals);
        uint64_t any = 0;
        for (unsigned j = 0; j < CHUNK; j++)
            any |= vals[j];
        if (any & over) {
            for (unsigned j = 0; j < CHUNK; j++)
                if (vals[j] & over) {
                    *bad = vals[j];
                    return chunk * CHUNK + j;
                }
        }
        PACK[tbits](vals, dst + chunk * tbits);
    }
    return -1;
}
