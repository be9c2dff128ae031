/*
 * Native executor of a compiled FIGLUT GEMM program (repro.core.program).
 *
 * figlut_execute() runs one CompiledProgram, the whole GEMM, for a batch of
 * activation columns: the LUT build, the plane gather-accumulate, the
 * alpha-scaled y updates and the offset stage.  Every float operation
 * replays the scalar reference's order, so the output is bitwise identical
 * to it:
 *
 *  - a LUT entry is ((0.0 + s_0*x_0) + s_1*x_1) + ... summed in double, with
 *    s_i = +-1.0 multiplied (not negated), then converted once, directly, to
 *    the accumulator type (double -> half for fp16, never through float);
 *  - a partial starts at +0.0 and adds its mu-groups in ascending order in
 *    the accumulator type; an fp16 add is a float add of the two widened
 *    halves rounded to nearest-even half, as NumPy's half loop does;
 *  - y starts at +0.0; y[row][col] += (double)alpha * (double)partial,
 *    segments ascending and bit planes innermost, with the plane's scatter
 *    rows for masked planes;
 *  - then y[row][col] += z[row][g] * (0.0 + sum of x[a_g:b_g][col]), groups
 *    ascending, with NumPy's pairwise summation order (see pairwise()), so
 *    the group sum equals the x[a:b].sum(axis=0) that gemm_reference runs.
 *
 * The batch is walked in tiles of w <= COL_TILE columns; one pass over a
 * plane's keys accumulates a block of COL_TILE / w rows x w columns, with w
 * a compile-time constant at every width, and the rows left over after the
 * last whole block take a runtime-width pass.  No reduction crosses a
 * column, so neither the tiling nor the blocking changes a bit.  Build with
 * -ffp-contract=off: a fused multiply-add would round once where the
 * reference rounds twice.
 */

#define _POSIX_C_SOURCE 199309L

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* Activation columns per tile: one segment's tables (slots x 2^mu x tile)
 * and a tile of every output row stay cache-resident while the segment's
 * planes stream through them. */
#define COL_TILE 16

/* X(S, W) for every tile width W = 1 .. COL_TILE: each width gets its own
 * constant-width case in plane_T and scale_T, so the compiler unrolls and
 * vectorises the column loops at every width. */
#define EACH_WIDTH(X, S)                                                      \
    X(S, 1) X(S, 2) X(S, 3) X(S, 4) X(S, 5) X(S, 6) X(S, 7) X(S, 8)           \
    X(S, 9) X(S, 10) X(S, 11) X(S, 12) X(S, 13) X(S, 14) X(S, 15) X(S, 16)

typedef struct {
    int64_t m, n, mu, num_segments, slots_per_segment, num_planes;
    const int64_t *lut_cols;      /* (num_slots, mu); n = zero sentinel row */
    const int64_t *plane_rows;    /* active rows of each plane */
    const int32_t *const *keys;   /* per plane: (num_slots, rows_p) */
    const int64_t *const *rows;   /* per plane: scatter rows, NULL = all */
    const double *const *scales;  /* per plane: (num_segments, rows_p) */
    int64_t num_groups;
    const int64_t *group_rows;    /* (num_groups, 2): [start, stop) of x */
    const double *offsets;        /* (m, num_groups) */
} figlut_program;

/* -1.0 read through a volatile, so the compiler cannot fold -1.0 * x into
 * a sign flip: for a NaN x the multiply keeps its sign bit (as NumPy's
 * multiply does), the flip would not. */
static const volatile double NEG_ONE = -1.0;

/* -- IEEE binary16, round to nearest even (NumPy's conversions) ---------- */

static inline float bits_to_float(uint32_t bits)
{
    float f;
    memcpy(&f, &bits, sizeof f);
    return f;
}

static inline uint32_t float_to_bits(float f)
{
    uint32_t bits;
    memcpy(&bits, &f, sizeof bits);
    return bits;
}

static inline float half_to_float(uint16_t h)
{
    uint32_t bits = (uint32_t)(h & 0x7fffu) << 13;
    const uint32_t exp = bits & 0x0f800000u;
    bits += (127u - 15u) << 23;                 /* rebias the exponent */
    if (exp == 0x0f800000u) {
        bits += (128u - 16u) << 23;             /* inf / NaN */
    } else if (!exp) {                          /* zero / subnormal: exact */
        bits = float_to_bits(bits_to_float(bits + (1u << 23))
                             - bits_to_float(113u << 23));
    }
    return bits_to_float(bits | (uint32_t)(h & 0x8000u) << 16);
}

static inline uint16_t half_from_float(float value)
{
    uint32_t bits = float_to_bits(value);
    const uint32_t sign = (bits >> 16) & 0x8000u;
    bits &= 0x7fffffffu;
    if (bits >= (127u + 16u) << 23) {           /* overflow, inf, NaN */
        if (bits <= 0x7f800000u)
            return (uint16_t)(sign | 0x7c00u);
        const uint32_t payload = (bits & 0x7fffffu) >> 13;
        return (uint16_t)(sign | 0x7c00u | (payload ? payload : 1u));
    }
    if (bits < 113u << 23) {                    /* subnormal or zero */
        /* Adding 0.5 aligns the half's subnormal grid with the float's
         * last bit, so the FPU's own nearest-even rounding does the rest. */
        const float magic = bits_to_float(126u << 23);
        return (uint16_t)(sign | (float_to_bits(bits_to_float(bits) + magic)
                                  - (126u << 23)));
    }
    const uint32_t odd = (bits >> 13) & 1u;     /* ties to even */
    bits += ((uint32_t)(15 - 127) << 23) + 0xfffu + odd;
    return (uint16_t)(sign | (bits >> 13));
}

static inline uint16_t half_from_double(double d)
{
    uint64_t bits;
    memcpy(&bits, &d, sizeof bits);
    uint16_t sign = (uint16_t)((bits >> 48) & 0x8000u);
    int e = (int)((bits >> 52) & 0x7ffu);
    uint64_t mant = bits & 0xfffffffffffffull;
    if (e == 0x7ff) {                       /* inf / NaN: keep payload top */
        uint16_t payload = (uint16_t)(mant >> 42);
        return (uint16_t)(sign | 0x7c00u | (mant && !payload ? 1u : payload));
    }
    e -= 1023;
    if (e > 15)
        return (uint16_t)(sign | 0x7c00u);  /* overflow */
    if (e < -25)
        return sign;                        /* rounds to zero */
    uint64_t sig = mant | (1ull << 52);
    int shift = e >= -14 ? 42 : 28 - e;     /* normal: keep 11 bits */
    uint64_t h = (e >= -14 ? (uint64_t)(e + 14) << 10 : 0) + (sig >> shift);
    uint64_t rem = sig & ((1ull << shift) - 1), halfway = 1ull << (shift - 1);
    if (rem > halfway || (rem == halfway && (h & 1u)))
        h++;                                /* a carry bumps the exponent */
    return (uint16_t)(sign | h);
}

/* -- per-accumulator stages ---------------------------------------------- */

typedef uint16_t half;

#define F64_CVT(v) (v)
#define F64_ADD(a, b) ((a) + (b))
#define F64_WIDEN(v) (v)
#define F32_CVT(v) ((float)(v))
#define F32_ADD(a, b) ((a) + (b))
#define F32_WIDEN(v) ((double)(v))
#define F16_CVT(v) half_from_double(v)
#define F16_ADD(a, b) half_from_float(half_to_float(a) + half_to_float(b))
#define F16_WIDEN(v) ((double)half_to_float(v))

/*
 * lut_T: the tables of one segment for columns [c0, c0 + w): tab[(g * 2^mu +
 * key) * w + c].  Entries share their prefix sums: after input i, prefix p
 * holds the sum over the top i + 1 key bits, built with the same adds in the
 * same order as the reference's per-entry sum.
 *
 * plane_T: part[r * w + c] = +0.0 + tab[g][key(g, r)][c] over g ascending,
 * COL_TILE / w rows x w columns per pass over the keys, held in registers.
 * Each width 1 .. COL_TILE runs rows_T with w and the block size as
 * literals; the rows after the last whole block run it with a runtime w.
 *
 * scale_T: ytile[row(r) * w + c] += alpha[r] * part[r * w + c], where ytile
 * holds the column tile of y row-contiguously; each width runs scale_rows_T
 * with a literal w.
 *
 * Both switch over w, which figlut_execute keeps in [1, COL_TILE].
 */
#define PLANE_CASE(S, W)                                                      \
    case W:                                                                   \
        for (; r + COL_TILE / W <= rows; r += COL_TILE / W)                   \
            rows_##S(tab, entries, W, keys + r, rows, gmax, COL_TILE / W,     \
                     part + r * W);                                           \
        break;
#define SCALE_CASE(S, W)                                                      \
    case W:                                                                   \
        scale_rows_##S(partial, rows, W, alpha, scatter, ytile);              \
        break;

#define DEFINE_STAGES(S, T, CVT, ADD, WIDEN)                                  \
static void lut_##S(const double *restrict x, int64_t batch, int64_t c0,     \
                    int64_t w, const int64_t *restrict cols, int64_t gmax,    \
                    int64_t mu, int64_t n, void *out, double *restrict sums)  \
{                                                                             \
    T *restrict tab = out;                                                    \
    const int64_t entries = (int64_t)1 << mu;                                 \
    const double neg = NEG_ONE;                                               \
    double pos[COL_TILE], negx[COL_TILE];                                     \
    for (int64_t g = 0; g < gmax; g++) {                                      \
        double *restrict cur = sums, *restrict next = sums + entries * w;     \
        for (int64_t c = 0; c < w; c++)                                       \
            cur[c] = 0.0;                                                     \
        for (int64_t i = 0, width = 1; i < mu; i++, width <<= 1) {            \
            const int64_t col = cols[g * mu + i];                             \
            for (int64_t c = 0; c < w; c++) {                                 \
                const double xi = col < n ? x[col * batch + c0 + c] : 0.0;    \
                pos[c] = 1.0 * xi;                                            \
                negx[c] = neg * xi;                                           \
            }                                                                 \
            for (int64_t p = 0; p < width; p++)                               \
                for (int64_t c = 0; c < w; c++) {                             \
                    next[(2 * p + 1) * w + c] = cur[p * w + c] + pos[c];      \
                    next[2 * p * w + c] = cur[p * w + c] + negx[c];           \
                }                                                             \
            double *restrict swap = cur;                                      \
            cur = next;                                                       \
            next = swap;                                                      \
        }                                                                     \
        T *restrict entry = tab + g * entries * w;                            \
        for (int64_t k = 0; k < entries * w; k++)                             \
            entry[k] = CVT(cur[k]);                                           \
    }                                                                         \
}                                                                             \
                                                                              \
static inline __attribute__((always_inline)) void                            \
rows_##S(const T *tab, int64_t entries, int64_t w, const int32_t *keys,       \
         int64_t rows, int64_t gmax, int64_t nb, T *part)                     \
{                                                                             \
    T acc[COL_TILE];                                                          \
    const T zero = CVT(0.0);                                                  \
    for (int64_t i = 0; i < nb * w; i++)                                      \
        acc[i] = zero;                                                        \
    for (int64_t g = 0; g < gmax; g++) {                                      \
        const T *tg = tab + g * entries * w;                                  \
        const int32_t *kg = keys + g * rows;                                  \
        for (int64_t j = 0; j < nb; j++) {                                    \
            const T *t = tg + (int64_t)kg[j] * w;                             \
            for (int64_t c = 0; c < w; c++)                                   \
                acc[j * w + c] = ADD(acc[j * w + c], t[c]);                   \
        }                                                                     \
    }                                                                         \
    for (int64_t i = 0; i < nb * w; i++)                                      \
        part[i] = acc[i];                                                     \
}                                                                             \
                                                                              \
static void plane_##S(const void *table, int64_t entries, int64_t w,          \
                      const int32_t *keys, int64_t rows, int64_t gmax,        \
                      void *out)                                              \
{                                                                             \
    const T *tab = table;                                                     \
    T *part = out;                                                            \
    int64_t r = 0;                                                            \
    switch (w) {                                                              \
    EACH_WIDTH(PLANE_CASE, S)                                                 \
    }                                                                         \
    if (r < rows)                                                             \
        rows_##S(tab, entries, w, keys + r, rows, gmax, rows - r,             \
                 part + r * w);                                               \
}                                                                             \
                                                                              \
static inline __attribute__((always_inline)) void                            \
scale_rows_##S(const T *restrict part, int64_t rows, int64_t w,               \
               const double *alpha, const int64_t *scatter,                   \
               double *restrict ytile)                                        \
{                                                                             \
    for (int64_t r = 0; r < rows; r++) {                                      \
        const double a = alpha[r];                                            \
        double *yr = ytile + (scatter ? scatter[r] : r) * w;                  \
        const T *pr = part + r * w;                                           \
        /* Loads before stores: GCC then vectorises the row, which it        \
         * will not do through yr's scattered address. */                    \
        double v[COL_TILE];                                                   \
        for (int64_t c = 0; c < w; c++)                                       \
            v[c] = yr[c] + a * WIDEN(pr[c]);                                  \
        memcpy(yr, v, (size_t)w * sizeof *v);                                 \
    }                                                                         \
}                                                                             \
                                                                              \
static void scale_##S(const void *partial, int64_t rows, int64_t w,           \
                      const double *alpha, const int64_t *scatter,            \
                      double *ytile)                                          \
{                                                                             \
    switch (w) {                                                              \
    EACH_WIDTH(SCALE_CASE, S)                                                 \
    }                                                                         \
}

DEFINE_STAGES(f64, double, F64_CVT, F64_ADD, F64_WIDEN)
DEFINE_STAGES(f32, float, F32_CVT, F32_ADD, F32_WIDEN)
DEFINE_STAGES(f16, half, F16_CVT, F16_ADD, F16_WIDEN)

typedef struct {
    size_t itemsize;
    void (*lut)(const double *, int64_t, int64_t, int64_t, const int64_t *,
                int64_t, int64_t, int64_t, void *, double *);
    void (*plane)(const void *, int64_t, int64_t, const int32_t *, int64_t,
                  int64_t, void *);
    void (*scale)(const void *, int64_t, int64_t, const double *,
                  const int64_t *, double *);
} stages;

/* Indexed by the accumulator code: 0 = float64, 1 = float32, 2 = float16. */
static const stages STAGES[] = {
    {sizeof(double), lut_f64, plane_f64, scale_f64},
    {sizeof(float), lut_f32, plane_f32, scale_f32},
    {sizeof(half), lut_f16, plane_f16, scale_f16},
};

/* -- offset stage -------------------------------------------------------- */

/* NumPy's pairwise_sum block: up to this many terms run on 8 accumulators. */
#define PW_BLOCK 128

/*
 * out[c] = x[0][c] + ... + x[n - 1][c] for c < w (rows stride apart), in
 * the order of NumPy's pairwise_sum: fewer than 8 terms add in turn to
 * -0.0; up to PW_BLOCK terms, accumulator j sums terms j, j + 8, ... of
 * the whole 8-term blocks, the eight combine as ((r0 + r1) + (r2 + r3)) +
 * ((r4 + r5) + (r6 + r7)) and the tail adds in turn; above PW_BLOCK the
 * two halves, split at n / 2 rounded down to a multiple of 8, are summed
 * apart and added.  Each column is summed alone; a block of columns only
 * shares the loads' row walk.
 */
static void pairwise(const double *x, int64_t n, int64_t stride, int64_t w,
                     double *restrict out)
{
    if (n < 8) {
        for (int64_t c = 0; c < w; c++)
            out[c] = -0.0;
        for (int64_t i = 0; i < n; i++)
            for (int64_t c = 0; c < w; c++)
                out[c] += x[i * stride + c];
    } else if (n <= PW_BLOCK) {
        double r[8][COL_TILE];
        for (int64_t j = 0; j < 8; j++)
            for (int64_t c = 0; c < w; c++)
                r[j][c] = x[j * stride + c];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                for (int64_t c = 0; c < w; c++)
                    r[j][c] += x[(i + j) * stride + c];
        for (int64_t c = 0; c < w; c++)
            out[c] = ((r[0][c] + r[1][c]) + (r[2][c] + r[3][c]))
                     + ((r[4][c] + r[5][c]) + (r[6][c] + r[7][c]));
        for (; i < n; i++)
            for (int64_t c = 0; c < w; c++)
                out[c] += x[i * stride + c];
    } else {
        int64_t half = n / 2;
        half -= half % 8;
        double low[COL_TILE];
        pairwise(x, half, stride, w, low);
        pairwise(x + half * stride, n - half, stride, w, out);
        for (int64_t c = 0; c < w; c++)
            out[c] = low[c] + out[c];
    }
}

/*
 * ytile[r * w + c] += z[r][g] * sums[g][c] over groups g ascending, where
 * sums[g][c] = 0.0 + pairwise(group g of column c0 + c): NumPy's column sum
 * starts its output at the add identity +0.0, so a group of -0.0 sums to
 * +0.0.  The group sums of the tile come first, then y is updated row by
 * row.
 */
static void offset_tile(const figlut_program *p, const double *x,
                        int64_t batch, int64_t c0, int64_t w,
                        double *restrict sums, double *restrict ytile)
{
    const int64_t groups = p->num_groups;
    for (int64_t g = 0; g < groups; g++) {
        const int64_t start = p->group_rows[2 * g];
        double *sg = sums + g * w;
        pairwise(x + start * batch + c0, p->group_rows[2 * g + 1] - start,
                 batch, w, sg);
        for (int64_t c = 0; c < w; c++)
            sg[c] = 0.0 + sg[c];
    }
    for (int64_t r = 0; r < p->m; r++) {
        const double *z = p->offsets + r * groups;
        double *yr = ytile + r * w;
        for (int64_t g = 0; g < groups; g++) {
            const double zg = z[g];
            const double *sg = sums + g * w;
            for (int64_t c = 0; c < w; c++)
                yr[c] = yr[c] + zg * sg[c];
        }
    }
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Adds the time since *t to clock[stage] and restarts *t (profiling). */
static void lap(int64_t *clock, int stage, int64_t *t)
{
    if (!clock)
        return;
    const int64_t now = now_ns();
    clock[stage] += now - *t;
    *t = now;
}

/* figlut_execute without the running clock: clock, when not NULL, is a
 * private one the laps add to. */
static int execute(const figlut_program *p, int acc, const double *x,
                   int64_t batch, double *y, int64_t *clock)
{
    if (!batch)
        return 0;
    const stages *st = &STAGES[acc];
    const int64_t gmax = p->slots_per_segment, entries = (int64_t)1 << p->mu;
    const int datapath = p->num_segments && gmax && p->num_planes;
    const int64_t tile = batch < COL_TILE ? batch : COL_TILE;
    int64_t max_rows = 0;
    for (int64_t pl = 0; pl < p->num_planes; pl++)
        if (p->plane_rows[pl] > max_rows)
            max_rows = p->plane_rows[pl];
    /* No request is for 0 bytes, for which malloc may return NULL. */
    void *tab = malloc((size_t)(datapath ? gmax * entries * tile : 1)
                       * st->itemsize);
    void *part = malloc((size_t)(max_rows * tile + 1) * st->itemsize);
    double *sums = malloc((size_t)(2 * entries * tile + p->num_groups * tile)
                          * sizeof(double));
    /* y's column tile, row-contiguous so the updates stream through it; y
     * itself is that layout when one tile spans the batch. */
    double *ytile = tile == batch ? y : malloc((size_t)(p->m * tile + 1) *
                                               sizeof(double));
    if (!tab || !part || !sums || !ytile) {
        free(tab);
        free(part);
        free(sums);
        if (ytile != y)
            free(ytile);
        return 2;
    }
    int64_t t = clock ? now_ns() : 0;
    for (int64_t c0 = 0; c0 < batch; c0 += tile) {
        const int64_t w = batch - c0 < tile ? batch - c0 : tile;
        memset(ytile, 0, (size_t)(p->m * w) * sizeof(double));
        lap(clock, 2, &t);
        for (int64_t s = 0; datapath && s < p->num_segments; s++) {
            st->lut(x, batch, c0, w, p->lut_cols + s * gmax * p->mu, gmax,
                    p->mu, p->n, tab, sums);
            lap(clock, 0, &t);
            for (int64_t pl = 0; pl < p->num_planes; pl++) {
                const int64_t rows = p->plane_rows[pl];
                st->plane(tab, entries, w, p->keys[pl] + s * gmax * rows,
                          rows, gmax, part);
                lap(clock, 1, &t);
                st->scale(part, rows, w, p->scales[pl] + s * rows,
                          p->rows[pl], ytile);
                lap(clock, 2, &t);
            }
        }
        if (p->num_groups) {
            offset_tile(p, x, batch, c0, w, sums + 2 * entries * tile, ytile);
            lap(clock, 3, &t);
        }
        if (ytile != y) {
            for (int64_t r = 0; r < p->m; r++)
                memcpy(y + r * batch + c0, ytile + r * w,
                       (size_t)w * sizeof(double));
            lap(clock, 2, &t);
        }
    }
    free(tab);
    free(part);
    free(sums);
    if (ytile != y)
        free(ytile);
    return 0;
}

/*
 * y (m, batch) = the GEMM of program p over x (n, batch); both are
 * row-major float64.  stage_ns, when not NULL, is a running clock: a
 * successful call adds the nanoseconds it spent in the LUT build [0], plane
 * gathers [1], y updates [2] and offset stage [3], and 1 to its call count
 * [4], atomically, so concurrent calls may share it.  Returns 0, 1 for an
 * unknown accumulator code, 2 when out of memory.
 */
int figlut_execute(const figlut_program *p, int acc, const double *x,
                   int64_t batch, double *y, int64_t *stage_ns)
{
    if (acc < 0 || acc > 2)
        return 1;
    if (!stage_ns)
        return execute(p, acc, x, batch, y, NULL);
    int64_t laps[4] = {0, 0, 0, 0};
    const int status = execute(p, acc, x, batch, y, laps);
    if (status)
        return status;
    for (int i = 0; i < 4; i++)
        __atomic_fetch_add(&stage_ns[i], laps[i], __ATOMIC_RELAXED);
    __atomic_fetch_add(&stage_ns[4], 1, __ATOMIC_RELAXED);
    return 0;
}
