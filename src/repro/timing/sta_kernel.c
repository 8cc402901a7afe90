/* Native sample-sweep evaluator for the level-compiled STA program.
 *
 * One exported entry point, sta_run, evaluates all N samples of a run
 * of the program that repro.timing.compiled.CompiledTimingProgram packs
 * into two self-describing images, with the whole per-gate recurrence
 * fused into a single pass:
 *
 *   slew_in  = sqrt(pin_slew^2 + step2)                (Bakoglu wire)
 *   cand     = pin_arrival + wire_delay
 *                + (base_delay + d_slew*slew_in) * scale_d
 *   slew_out = (base_slew + s_slew*slew_in) * scale_s
 *   winner   = first pin with strictly greater cand    (reference tie rule)
 *
 * with scale = max(1 + k1*u + k2*u^2, 0.05) from the rank-one projection
 * u = sum_j w_j * p_j, computed here per gate and lane.  The caller
 * passes the P parameters as row-major (N, K_j) value matrices; the
 * kernel packs each sample block's rows as K = sum_j K_j value columns
 * (all parameters side by side) of B contiguous lanes, (K, B) like the
 * arenas, and the images hold one projection row per DFF and per gate:
 * P value columns u_col and P weights u_w, applied in that fixed
 * parameter order.  Per-gate samples are the identity-column case;
 * Algorithm 2 samples stay on the mesh triangles and u_col holds each
 * gate's containing-triangle column.
 *
 * Image layout.  Both images start with a header; every section follows
 * it contiguously, in the order listed, and the last one ends exactly at
 * the image length.
 *
 *   prog (int64)  [0] STA_MAGIC, [1..8] the counts num_pi, num_dff,
 *                 num_gates, num_pins, width, P, K, num_ends, [9..16]
 *                 the offsets of the sections
 *                   pi_slot[num_pi]  dff_slot[num_dff]
 *                   g_fanin[num_gates]  g_out_slot[num_gates]
 *                   p_slot[num_pins]  u_col[(num_dff + num_gates) * P]
 *                   v_cols[P]  end_slot[num_ends]
 *   coef (double) [0] STA_MAGIC, [1..18] the offsets (integral doubles)
 *                 of the sections
 *                   input_slew[1]
 *                   dff_dnom dff_snom dff_k1 dff_k2 dff_m1 dff_m2
 *                                                        [num_dff each]
 *                   g_bd g_dsl g_bs g_ssl g_k1 g_k2 g_m1 g_m2
 *                                                      [num_gates each]
 *                   p_wd[num_pins]  p_step2[num_pins]
 *                   u_w[(num_dff + num_gates) * P]
 *
 * v_cols[j] is K_j, the column count of parameter j's value matrix;
 * end_slot lists the arena slots copied to the (num_ends, N) output.
 *
 * Validation.  Before touching any lane, sta_run checks the headers
 * against the buffer lengths it was given and every index that depends
 * on the data: each slot < width, each fanin >= 1 with the fanins
 * summing to num_pins, each u_col < K, the v_cols summing to K, each
 * parameter matrix at least N * K_j long, the arenas and scratch long
 * enough for the worker team and the output for num_ends * N.  The
 * first failed check returns its code (the STA_ERR_* enum below,
 * mirrored in repro.timing.native) and nothing is read or written out
 * of bounds; 0 means the run was evaluated.
 *
 * The arenas are (width, B) slot-major so every per-slot vector of
 * lanes is contiguous; all inner loops run over the sample lanes and
 * auto-vectorize.  Gate-sequential evaluation is safe because the slot
 * schedule has level-barrier semantics: an output slot never aliases a
 * slot still being read by its own level.
 *
 * Threading: [0, N) is cut into blocks of B lanes (the last one may be
 * short), sized by the caller to one core's cache, and a team of
 * min(threads, blocks, STA_MAX_TEAM) workers evaluates whole blocks,
 * each claiming the next unclaimed block from a shared atomic counter
 * when it finishes one, so a worker slowed by another process on its
 * core simply takes fewer blocks.  Each worker owns a private (width, B) pair of arenas and a (K + 4, B)
 * scratch block (its packed values and the four per-gate lane vectors),
 * carved from caller buffers sized for the team, and writes only its
 * blocks' columns of the output, so no synchronization is needed beyond
 * the join.  Every lane's arithmetic is the sequence of operations
 * eval_lane_range runs for that lane alone, whatever block or worker
 * holds it, so results are bitwise identical for every thread count and
 * block size.  The parallel backend is chosen at compile time: OpenMP
 * when the build defines _OPENMP, raw pthreads under
 * REPRO_USE_PTHREADS, else one worker takes every block (still
 * correct, no speedup).
 */

#include <math.h>
#include <stdatomic.h>
#include <stdint.h>

#if defined(_OPENMP)
#include <omp.h>
#elif defined(REPRO_USE_PTHREADS)
#include <pthread.h>
#endif

#define STA_MAGIC 0x53544131 /* "STA1" */

/* Counts are bounded so every product of two of them fits in int64;
 * products of three go through sat_mul. */
#define STA_MAX_COUNT ((int64_t)1 << 30)

/* Most workers one call runs, whatever `threads` asks for. */
#define STA_MAX_TEAM 64

enum {
    H_MAGIC, H_NUM_PI, H_NUM_DFF, H_NUM_GATES, H_NUM_PINS, H_WIDTH,
    H_NUM_PARAMS, H_NUM_VALUE_COLS, H_NUM_ENDS, H_OFFSETS
};
enum { PS_PI_SLOT, PS_DFF_SLOT, PS_FANIN, PS_OUT_SLOT, PS_PIN_SLOT,
       PS_U_COL, PS_V_COLS, PS_END_SLOT, PROG_SECTIONS };
enum { CS_INPUT_SLEW, CS_DFF_DNOM, CS_DFF_SNOM, CS_DFF_K1, CS_DFF_K2,
       CS_DFF_M1, CS_DFF_M2, CS_G_BD, CS_G_DSL, CS_G_BS, CS_G_SSL,
       CS_G_K1, CS_G_K2, CS_G_M1, CS_G_M2, CS_P_WD, CS_P_STEP2, CS_U_W,
       COEF_SECTIONS };
#define PROG_HEADER_LEN (H_OFFSETS + PROG_SECTIONS)
#define COEF_HEADER_LEN (1 + COEF_SECTIONS)

/* Error codes; repro.timing.native names each one. */
enum {
    STA_OK = 0,
    STA_ERR_ROWS = 1,             /* rows < 0 or too large */
    STA_ERR_THREADS = 2,          /* threads < 1 or too large */
    STA_ERR_PROG_HEADER = 3,      /* prog missing or shorter than header */
    STA_ERR_PROG_MAGIC = 4,
    STA_ERR_COEF_HEADER = 5,      /* coef missing or shorter than header */
    STA_ERR_COEF_MAGIC = 6,
    STA_ERR_BLOCK = 7,            /* block < 1 or too large */
    STA_ERR_COUNT = 10,           /* + header field: count out of range */
    STA_ERR_PROG_SECTION = 20,    /* + PS_*: extent != its count */
    STA_ERR_COEF_SECTION = 30,    /* + CS_*: extent != its count */
    STA_ERR_PI_SLOT = 50,         /* pi_slot entry outside [0, width) */
    STA_ERR_DFF_SLOT = 51,
    STA_ERR_FANIN = 52,           /* g_fanin entry outside [1, num_pins] */
    STA_ERR_FANIN_SUM = 53,       /* fanins do not sum to num_pins */
    STA_ERR_OUT_SLOT = 54,
    STA_ERR_PIN_SLOT = 55,
    STA_ERR_U_COL = 56,           /* u_col entry outside [0, K) */
    STA_ERR_V_COLS = 57,          /* v_cols entry < 0 or sum != K */
    STA_ERR_END_SLOT = 58,        /* end_slot entry outside [0, width) */
    STA_ERR_NUM_VALUES = 59,      /* value matrix count != P */
    STA_ERR_VALUES = 60,          /* a matrix missing or < rows * K_j */
    STA_ERR_ARENA_A = 61,         /* arena_a < team * width * block */
    STA_ERR_ARENA_S = 62,
    STA_ERR_SCRATCH = 63,         /* scratch < team * (K + 4) * block */
    STA_ERR_END_OUT = 64          /* end_out < num_ends * rows */
};

/* The images resolved to typed section pointers. */
typedef struct {
    int64_t num_pi, num_dff, num_gates, num_pins, width, num_params;
    int64_t num_value_cols, num_ends;
    const int64_t *pi_slot, *dff_slot, *g_fanin, *g_out_slot, *p_slot;
    const int64_t *u_col, *v_cols, *end_slot;
    double input_slew;
    const double *dff_dnom, *dff_snom, *dff_k1, *dff_k2, *dff_m1, *dff_m2;
    const double *g_bd, *g_dsl, *g_bs, *g_ssl;
    const double *g_k1, *g_k2, *g_m1, *g_m2;
    const double *p_wd, *p_step2, *u_w;
} sta_prog;

/* Section `s` spans [off[s], off[s+1]) (the last one ends at `len`) and
 * must hold exactly need[s] entries, starting right after the header. */
static int check_sections(const int64_t *off, const int64_t *need,
                          int n, int64_t header_len, int64_t len,
                          int first_code)
{
    for (int s = 0; s < n; ++s) {
        const int64_t start = off[s];
        const int64_t end = s + 1 < n ? off[s + 1] : len;
        if ((s == 0 && start != header_len) || start < header_len
            || end < start || end > len || end - start != need[s])
            return first_code + s;
    }
    return STA_OK;
}

static int check_slots(const int64_t *slot, int64_t n, int64_t width,
                       int code)
{
    for (int64_t i = 0; i < n; ++i)
        if (slot[i] < 0 || slot[i] >= width)
            return code;
    return STA_OK;
}

static int parse_images(const int64_t *prog, int64_t prog_len,
                        const double *coef, int64_t coef_len,
                        sta_prog *out)
{
    if (!prog || prog_len < PROG_HEADER_LEN)
        return STA_ERR_PROG_HEADER;
    if (prog[H_MAGIC] != STA_MAGIC)
        return STA_ERR_PROG_MAGIC;
    if (!coef || coef_len < COEF_HEADER_LEN)
        return STA_ERR_COEF_HEADER;
    if (coef[0] != (double)STA_MAGIC)
        return STA_ERR_COEF_MAGIC;
    for (int h = H_NUM_PI; h < H_OFFSETS; ++h)
        if (prog[h] < 0 || prog[h] > STA_MAX_COUNT)
            return STA_ERR_COUNT + h;

    const int64_t n_pi = prog[H_NUM_PI], n_dff = prog[H_NUM_DFF];
    const int64_t n_g = prog[H_NUM_GATES], n_p = prog[H_NUM_PINS];
    const int64_t width = prog[H_WIDTH], P = prog[H_NUM_PARAMS];
    const int64_t K = prog[H_NUM_VALUE_COLS], n_ends = prog[H_NUM_ENDS];
    const int64_t table = (n_dff + n_g) * P;

    const int64_t prog_need[PROG_SECTIONS] = {
        n_pi, n_dff, n_g, n_g, n_p, table, P, n_ends};
    int rc = check_sections(prog + H_OFFSETS, prog_need, PROG_SECTIONS,
                            PROG_HEADER_LEN, prog_len,
                            STA_ERR_PROG_SECTION);
    if (rc)
        return rc;

    int64_t coef_off[COEF_SECTIONS];
    for (int s = 0; s < COEF_SECTIONS; ++s) {
        const double d = coef[1 + s];
        /* NaN fails the range test; the cast is only taken in range. */
        if (!(d >= 0.0 && d <= (double)coef_len) || d != floor(d))
            return STA_ERR_COEF_SECTION + s;
        coef_off[s] = (int64_t)d;
    }
    const int64_t coef_need[COEF_SECTIONS] = {
        1, n_dff, n_dff, n_dff, n_dff, n_dff, n_dff,
        n_g, n_g, n_g, n_g, n_g, n_g, n_g, n_g, n_p, n_p, table};
    rc = check_sections(coef_off, coef_need, COEF_SECTIONS,
                        COEF_HEADER_LEN, coef_len, STA_ERR_COEF_SECTION);
    if (rc)
        return rc;

    const int64_t *po = prog + H_OFFSETS;
    out->num_pi = n_pi;
    out->num_dff = n_dff;
    out->num_gates = n_g;
    out->num_pins = n_p;
    out->width = width;
    out->num_params = P;
    out->num_value_cols = K;
    out->num_ends = n_ends;
    out->pi_slot = prog + po[PS_PI_SLOT];
    out->dff_slot = prog + po[PS_DFF_SLOT];
    out->g_fanin = prog + po[PS_FANIN];
    out->g_out_slot = prog + po[PS_OUT_SLOT];
    out->p_slot = prog + po[PS_PIN_SLOT];
    out->u_col = prog + po[PS_U_COL];
    out->v_cols = prog + po[PS_V_COLS];
    out->end_slot = prog + po[PS_END_SLOT];
    out->input_slew = coef[coef_off[CS_INPUT_SLEW]];
    out->dff_dnom = coef + coef_off[CS_DFF_DNOM];
    out->dff_snom = coef + coef_off[CS_DFF_SNOM];
    out->dff_k1 = coef + coef_off[CS_DFF_K1];
    out->dff_k2 = coef + coef_off[CS_DFF_K2];
    out->dff_m1 = coef + coef_off[CS_DFF_M1];
    out->dff_m2 = coef + coef_off[CS_DFF_M2];
    out->g_bd = coef + coef_off[CS_G_BD];
    out->g_dsl = coef + coef_off[CS_G_DSL];
    out->g_bs = coef + coef_off[CS_G_BS];
    out->g_ssl = coef + coef_off[CS_G_SSL];
    out->g_k1 = coef + coef_off[CS_G_K1];
    out->g_k2 = coef + coef_off[CS_G_K2];
    out->g_m1 = coef + coef_off[CS_G_M1];
    out->g_m2 = coef + coef_off[CS_G_M2];
    out->p_wd = coef + coef_off[CS_P_WD];
    out->p_step2 = coef + coef_off[CS_P_STEP2];
    out->u_w = coef + coef_off[CS_U_W];

    /* Data-dependent indices. */
    if ((rc = check_slots(out->pi_slot, n_pi, width, STA_ERR_PI_SLOT)))
        return rc;
    if ((rc = check_slots(out->dff_slot, n_dff, width, STA_ERR_DFF_SLOT)))
        return rc;
    int64_t pins = 0;
    for (int64_t g = 0; g < n_g; ++g) {
        const int64_t fanin = out->g_fanin[g];
        if (fanin < 1 || fanin > n_p)
            return STA_ERR_FANIN;
        pins += fanin;
    }
    if (pins != n_p)
        return STA_ERR_FANIN_SUM;
    if ((rc = check_slots(out->g_out_slot, n_g, width, STA_ERR_OUT_SLOT)))
        return rc;
    if ((rc = check_slots(out->p_slot, n_p, width, STA_ERR_PIN_SLOT)))
        return rc;
    if ((rc = check_slots(out->u_col, table, K, STA_ERR_U_COL)))
        return rc;
    int64_t cols = 0;
    for (int64_t j = 0; j < P; ++j) {
        if (out->v_cols[j] < 0 || out->v_cols[j] > K)
            return STA_ERR_V_COLS;
        cols += out->v_cols[j];
    }
    if (cols != K)
        return STA_ERR_V_COLS;
    return check_slots(out->end_slot, n_ends, width, STA_ERR_END_SLOT);
}

/* The projection u of one DFF or gate for lanes [lane_lo, lane_hi):
 * u[n] = sum_j w[j] * values[cols[j]*B + n], accumulated in parameter
 * order j = 0, 1, ..., P-1 whatever the lane range. */
static void project_row(
    const double *values, int64_t B,
    const int64_t *cols, const double *w, int64_t num_params,
    int64_t lane_lo, int64_t lane_hi, double *u)
{
    for (int64_t j = 0; j < num_params; ++j) {
        const double *vj = values + cols[j] * B;
        const double wj = w[j];
        if (j == 0) {
            for (int64_t n = lane_lo; n < lane_hi; ++n)
                u[n] = wj * vj[n];
        } else {
            for (int64_t n = lane_lo; n < lane_hi; ++n)
                u[n] += wj * vj[n];
        }
    }
}

/* Evaluate lanes [lane_lo, lane_hi) of one sample block for every
 * primary input, DFF and gate.  The four scratch vectors are
 * full-B-length arrays indexed by absolute lane. */
static void eval_lane_range(
    const sta_prog *c, const double *values,
    double *arena_a, double *arena_s,
    int64_t B,                   /* lane stride of the arenas */
    int64_t lane_lo, int64_t lane_hi,
    double *best_a, double *best_s, double *scd, double *scs)
{
    const int64_t num_params = c->num_params;
    const int64_t num_dff = c->num_dff;
    const double input_slew = c->input_slew;

    for (int64_t i = 0; i < c->num_pi; ++i) {
        double *pa = arena_a + c->pi_slot[i] * B;
        double *ps = arena_s + c->pi_slot[i] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            pa[n] = 0.0;
            ps[n] = input_slew;
        }
    }

    for (int64_t i = 0; i < num_dff; ++i) {
        double *pa = arena_a + c->dff_slot[i] * B;
        double *ps = arena_s + c->dff_slot[i] * B;
        const double dn = c->dff_dnom[i], sn = c->dff_snom[i];
        if (num_params) {
            const double k1 = c->dff_k1[i], k2 = c->dff_k2[i];
            const double m1 = c->dff_m1[i], m2 = c->dff_m2[i];
            project_row(values, B,
                        c->u_col + i * num_params, c->u_w + i * num_params,
                        num_params, lane_lo, lane_hi, scd);
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double uv = scd[n];
                double sd = 1.0 + k1 * uv + k2 * uv * uv;
                double ss = 1.0 + m1 * uv + m2 * uv * uv;
                if (sd < 0.05) sd = 0.05;
                if (ss < 0.05) ss = 0.05;
                pa[n] = dn * sd;
                ps[n] = sn * ss;
            }
        } else {
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                pa[n] = dn;
                ps[n] = sn;
            }
        }
    }

    int64_t p = 0;
    for (int64_t g = 0; g < c->num_gates; ++g) {
        const int64_t fanin = c->g_fanin[g];
        const double bd = c->g_bd[g], dsl = c->g_dsl[g];
        const double bs = c->g_bs[g], ssl = c->g_ssl[g];

        if (num_params) {
            const double k1 = c->g_k1[g], k2 = c->g_k2[g];
            const double m1 = c->g_m1[g], m2 = c->g_m2[g];
            project_row(values, B,
                        c->u_col + (num_dff + g) * num_params,
                        c->u_w + (num_dff + g) * num_params,
                        num_params, lane_lo, lane_hi, scd);
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double uv = scd[n];
                double sd = 1.0 + k1 * uv + k2 * uv * uv;
                double ss = 1.0 + m1 * uv + m2 * uv * uv;
                if (sd < 0.05) sd = 0.05;
                if (ss < 0.05) ss = 0.05;
                scd[n] = sd;
                scs[n] = ss;
            }
        } else {
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                scd[n] = 1.0;
                scs[n] = 1.0;
            }
        }

        /* First pin unconditionally seeds the winner ... */
        {
            const double *pa = arena_a + c->p_slot[p] * B;
            const double *ps = arena_s + c->p_slot[p] * B;
            const double wd = c->p_wd[p], st2 = c->p_step2[p];
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double sl = sqrt(ps[n] * ps[n] + st2);
                best_a[n] = pa[n] + wd + (bd + dsl * sl) * scd[n];
                best_s[n] = (bs + ssl * sl) * scs[n];
            }
            ++p;
        }
        /* ... later pins replace it only when strictly greater. */
        for (int64_t j = 1; j < fanin; ++j, ++p) {
            const double *pa = arena_a + c->p_slot[p] * B;
            const double *ps = arena_s + c->p_slot[p] * B;
            const double wd = c->p_wd[p], st2 = c->p_step2[p];
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double sl = sqrt(ps[n] * ps[n] + st2);
                const double cand = pa[n] + wd + (bd + dsl * sl) * scd[n];
                const double osl = (bs + ssl * sl) * scs[n];
                const int take = cand > best_a[n];
                best_a[n] = take ? cand : best_a[n];
                best_s[n] = take ? osl : best_s[n];
            }
        }

        double *oa = arena_a + c->g_out_slot[g] * B;
        double *os = arena_s + c->g_out_slot[g] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            oa[n] = best_a[n];
            os[n] = best_s[n];
        }
    }
}

/* a * b for a, b >= 0, saturating at INT64_MAX (a buffer needing
 * that much is always too short). */
static int64_t sat_mul(int64_t a, int64_t b)
{
    if (a != 0 && b > INT64_MAX / a)
        return INT64_MAX;
    return a * b;
}

/* Shared per-call state of one run.  Workers claim blocks from
 * next_block; worker t evaluates them in the private buffers at index
 * t. */
typedef struct {
    const sta_prog *prog;
    const double *const *values;       /* P row-major (rows, K_j) */
    double *arena_a, *arena_s, *scratch, *end_out;
    int64_t rows, B;
    _Atomic int64_t next_block;
} sta_call;

/* Copy rows [start, start + n) of every parameter matrix into the
 * (K, B) value block, parameter j's columns after those of 0..j-1.
 * Tiles of PACK_TILE columns keep the written lines in L1 while the
 * rows stream through. */
enum { PACK_TILE = 16 };

static void pack_block(const sta_call *c, int64_t start, int64_t n,
                       double *packed)
{
    const int64_t B = c->B;
    int64_t offset = 0;
    for (int64_t j = 0; j < c->prog->num_params; ++j) {
        const int64_t kj = c->prog->v_cols[j];
        const double *src = c->values[j] + start * kj;
        double *dst = packed + offset * B;
        for (int64_t c0 = 0; c0 < kj; c0 += PACK_TILE) {
            const int64_t c1 = c0 + PACK_TILE < kj ? c0 + PACK_TILE : kj;
            for (int64_t i = 0; i < n; ++i) {
                const double *row = src + i * kj;
                for (int64_t col = c0; col < c1; ++col)
                    dst[col * B + i] = row[col];
            }
        }
        offset += kj;
    }
}

static void run_worker(sta_call *c, int64_t t)
{
    const sta_prog *p = c->prog;
    const int64_t B = c->B, width = p->width;
    double *arena_a = c->arena_a + t * width * B;
    double *arena_s = c->arena_s + t * width * B;
    double *packed = c->scratch + t * (p->num_value_cols + 4) * B;
    double *vec = packed + p->num_value_cols * B;

    for (;;) {
        const int64_t start = B * atomic_fetch_add_explicit(
            &c->next_block, 1, memory_order_relaxed);
        if (start >= c->rows)
            break;
        const int64_t n = c->rows - start < B ? c->rows - start : B;
        pack_block(c, start, n, packed);
        eval_lane_range(p, packed, arena_a, arena_s, B, 0, n,
                        vec, vec + B, vec + 2 * B, vec + 3 * B);
        for (int64_t e = 0; e < p->num_ends; ++e) {
            const double *src = arena_a + p->end_slot[e] * B;
            double *dst = c->end_out + e * c->rows + start;
            for (int64_t i = 0; i < n; ++i)
                dst[i] = src[i];
        }
    }
}

#if !defined(_OPENMP) && defined(REPRO_USE_PTHREADS)
typedef struct {
    sta_call *call;
    int64_t worker;
} pthread_job;

static void *pthread_trampoline(void *raw)
{
    const pthread_job *job = (const pthread_job *)raw;
    run_worker(job->call, job->worker);
    return 0;
}
#endif

int64_t sta_run(
    const int64_t *prog, int64_t prog_len,
    const double *coef, int64_t coef_len,
    const double *const *values,                /* P (rows, K_j) matrices */
    const int64_t *values_len, int64_t num_values,
    double *arena_a, double *arena_s,           /* team * (width, block) */
    int64_t arena_len,
    double *scratch, int64_t scratch_len,       /* team * (K + 4, block) */
    double *end_out, int64_t end_out_len,       /* (num_ends, rows) */
    int64_t rows, int64_t block, int64_t threads)
{
    if (rows < 0 || rows > STA_MAX_COUNT)
        return STA_ERR_ROWS;
    if (threads < 1 || threads > STA_MAX_COUNT)
        return STA_ERR_THREADS;
    if (block < 1 || block > STA_MAX_COUNT)
        return STA_ERR_BLOCK;
    sta_prog image;
    const int rc = parse_images(prog, prog_len, coef, coef_len, &image);
    if (rc)
        return rc;
    /* A NULL buffer holds nothing, whatever length comes with it. */
    if (!values || !values_len) num_values = 0;
    if (!scratch) scratch_len = 0;
    if (!end_out) end_out_len = 0;
    if (num_values != image.num_params)
        return STA_ERR_NUM_VALUES;
    for (int64_t j = 0; j < num_values; ++j)
        if (!values[j] || values_len[j] < rows * image.v_cols[j])
            return STA_ERR_VALUES;

    const int64_t blocks = rows / block + (rows % block != 0);
    int64_t team = threads < blocks ? threads : blocks;
    if (team > STA_MAX_TEAM)
        team = STA_MAX_TEAM;
    const int64_t arena_need = sat_mul(team, image.width * block);
    if (!arena_a || arena_len < arena_need)
        return STA_ERR_ARENA_A;
    if (!arena_s || arena_len < arena_need)
        return STA_ERR_ARENA_S;
    if (scratch_len < sat_mul(team, (image.num_value_cols + 4) * block))
        return STA_ERR_SCRATCH;
    if (end_out_len < image.num_ends * rows)
        return STA_ERR_END_OUT;
    if (rows == 0)
        return STA_OK;

    sta_call call = {&image, values, arena_a, arena_s, scratch, end_out,
                     rows, block, 0};

    if (team == 1) {
        run_worker(&call, 0);
        return STA_OK;
    }

#if defined(_OPENMP)
    /* A team smaller than asked for only means fewer claimants. */
    #pragma omp parallel num_threads((int)team)
    run_worker(&call, (int64_t)omp_get_thread_num());
#elif defined(REPRO_USE_PTHREADS)
    {
        pthread_t handles[STA_MAX_TEAM];
        pthread_job jobs[STA_MAX_TEAM];
        int64_t spawned = 0;
        for (int64_t t = 1; t < team; ++t) {
            jobs[t].call = &call;
            jobs[t].worker = t;
            /* Spawn failure: the workers already running claim the
             * blocks left; only the parallelism degrades. */
            if (pthread_create(&handles[t], 0, pthread_trampoline,
                               &jobs[t]) != 0)
                break;
            spawned = t;
        }
        run_worker(&call, 0);
        for (int64_t t = 1; t <= spawned; ++t)
            pthread_join(handles[t], 0);
    }
#else
    /* No thread backend compiled in: worker 0 claims every block,
     * bitwise identical, no speedup. */
    run_worker(&call, 0);
#endif
    return STA_OK;
}
