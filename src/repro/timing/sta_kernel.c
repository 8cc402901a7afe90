/* Native block evaluator for the level-compiled STA program.
 *
 * This kernel consumes exactly the arrays that
 * repro.timing.compiled.CompiledTimingProgram flattens at compile time
 * (per-gate model coefficients, per-pin wire constants, arena slot
 * indices in topological order) and evaluates one sample block with the
 * whole per-gate recurrence fused into a single pass:
 *
 *   slew_in  = sqrt(pin_slew^2 + step2)                (Bakoglu wire)
 *   cand     = pin_arrival + wire_delay
 *                + (base_delay + d_slew*slew_in) * scale_d
 *   slew_out = (base_slew + s_slew*slew_in) * scale_s
 *   winner   = first pin with strictly greater cand    (reference tie rule)
 *
 * with scale = max(1 + k1*u + k2*u^2, 0.05) from the rank-one projection
 * u = sum_j w_j * p_j, computed here per gate and lane.  The caller packs
 * each block's parameter values as K value columns (all parameters side
 * by side) of B contiguous lanes, (K, B) like the arenas, and passes one
 * projection row per DFF and per gate: P value columns u_col and P
 * weights u_w, applied in that fixed parameter order.  Per-gate samples
 * are the identity-column case; Algorithm 2 samples stay on the mesh
 * triangles and u_col holds each gate's containing-triangle column.
 *
 * The arenas are (width, B) slot-major so every per-slot vector of B
 * samples is contiguous; all inner loops run over the B sample lanes and
 * auto-vectorize.  Gate-sequential evaluation is safe because the slot
 * schedule has level-barrier semantics: an output slot never aliases a
 * slot still being read by its own level.
 *
 * Per-sample results are independent of B, so any block partitioning
 * yields bitwise identical results.
 *
 * Threading: sta_eval_gates_mt partitions the B sample lanes into
 * contiguous ranges, one per worker, cut at arena cache-line
 * boundaries.  Every lane's arithmetic is the sequence of operations
 * eval_lane_range runs for that lane alone — identical whether the
 * surrounding loop covers [0, B) or [lo, hi) — so the multithreaded
 * entry point is bitwise identical to the serial one for every thread
 * count and every lane partition.  Workers touch
 * disjoint lane ranges of the shared arenas and private scratch
 * blocks, so no synchronization is needed beyond the join.  The
 * parallel backend is chosen at compile time: OpenMP when the build
 * defines _OPENMP, raw pthreads under REPRO_USE_PTHREADS, else a
 * sequential sweep over the same lane ranges (still correct, no
 * speedup).
 */

#include <math.h>
#include <stdint.h>

#if defined(_OPENMP)
#include <omp.h>
#elif defined(REPRO_USE_PTHREADS)
#include <pthread.h>
#endif

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

/* One worker's share of a sample block: evaluate lanes [lane_lo,
 * lane_hi) of every primary input, DFF and gate.  The four scratch
 * vectors are full-B-length arrays indexed by absolute lane, so a
 * worker only touches its own [lane_lo, lane_hi) slice of them. */
static void eval_lane_range(
    int64_t num_params,
    const double *values,
    const int64_t *u_col, const double *u_w,
    double input_slew,
    const int64_t *pi_slots, int64_t num_pi,
    const int64_t *dff_slots,
    const double *dff_dnom, const double *dff_snom,
    const double *dff_k1, const double *dff_k2,
    const double *dff_m1, const double *dff_m2, int64_t num_dff,
    int64_t num_gates,
    const int64_t *g_fanin, const int64_t *g_out_slot,
    const double *g_bd, const double *g_dsl,
    const double *g_bs, const double *g_ssl,
    const double *g_k1, const double *g_k2,
    const double *g_m1, const double *g_m2,
    const int64_t *p_slot, const double *p_wd, const double *p_step2,
    double *arena_a, double *arena_s,
    int64_t B,                   /* lane stride of the arenas */
    int64_t lane_lo, int64_t lane_hi,
    double *best_a, double *best_s, double *scd, double *scs)
{
    for (int64_t i = 0; i < num_pi; ++i) {
        double *pa = arena_a + pi_slots[i] * B;
        double *ps = arena_s + pi_slots[i] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            pa[n] = 0.0;
            ps[n] = input_slew;
        }
    }

    for (int64_t i = 0; i < num_dff; ++i) {
        double *pa = arena_a + dff_slots[i] * B;
        double *ps = arena_s + dff_slots[i] * B;
        const double dn = dff_dnom[i], sn = dff_snom[i];
        if (values) {
            const double k1 = dff_k1[i], k2 = dff_k2[i];
            const double m1 = dff_m1[i], m2 = dff_m2[i];
            project_row(values, B,
                        u_col + i * num_params, u_w + i * num_params,
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
    for (int64_t g = 0; g < num_gates; ++g) {
        const int64_t fanin = g_fanin[g];
        const double bd = g_bd[g], dsl = g_dsl[g];
        const double bs = g_bs[g], ssl = g_ssl[g];

        if (values) {
            const double k1 = g_k1[g], k2 = g_k2[g];
            const double m1 = g_m1[g], m2 = g_m2[g];
            project_row(values, B,
                        u_col + (num_dff + g) * num_params,
                        u_w + (num_dff + g) * num_params,
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
            const double *pa = arena_a + p_slot[p] * B;
            const double *ps = arena_s + p_slot[p] * B;
            const double wd = p_wd[p], st2 = p_step2[p];
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double sl = sqrt(ps[n] * ps[n] + st2);
                best_a[n] = pa[n] + wd + (bd + dsl * sl) * scd[n];
                best_s[n] = (bs + ssl * sl) * scs[n];
            }
            ++p;
        }
        /* ... later pins replace it only when strictly greater. */
        for (int64_t j = 1; j < fanin; ++j, ++p) {
            const double *pa = arena_a + p_slot[p] * B;
            const double *ps = arena_s + p_slot[p] * B;
            const double wd = p_wd[p], st2 = p_step2[p];
            for (int64_t n = lane_lo; n < lane_hi; ++n) {
                const double sl = sqrt(ps[n] * ps[n] + st2);
                const double cand = pa[n] + wd + (bd + dsl * sl) * scd[n];
                const double osl = (bs + ssl * sl) * scs[n];
                const int take = cand > best_a[n];
                best_a[n] = take ? cand : best_a[n];
                best_s[n] = take ? osl : best_s[n];
            }
        }

        double *oa = arena_a + g_out_slot[g] * B;
        double *os = arena_s + g_out_slot[g] * B;
        for (int64_t n = lane_lo; n < lane_hi; ++n) {
            oa[n] = best_a[n];
            os[n] = best_s[n];
        }
    }
}

void sta_eval_gates(
    int64_t num_rows,            /* B: samples in this block */
    int64_t num_params,          /* P: parameters per projection row */
    int64_t num_value_cols,      /* K: value columns (extent of values) */
    const double *values,        /* (K, B) value columns, or NULL (nominal) */
    const int64_t *u_col,        /* >= (num_dff+num_gates)*P entries */
    const double *u_w,           /* >= (num_dff+num_gates)*P entries */
    double input_slew,
    const int64_t *pi_slots, int64_t num_pi,
    const int64_t *dff_slots,
    const double *dff_dnom, const double *dff_snom,
    const double *dff_k1, const double *dff_k2,
    const double *dff_m1, const double *dff_m2, int64_t num_dff,
    int64_t num_gates,           /* combinational gates, topological order */
    const int64_t *g_fanin, const int64_t *g_out_slot,
    const double *g_bd, const double *g_dsl,
    const double *g_bs, const double *g_ssl,
    const double *g_k1, const double *g_k2,
    const double *g_m1, const double *g_m2,
    const int64_t *p_slot, const double *p_wd, const double *p_step2,
    double *arena_a, double *arena_s,   /* (width, B) slot-major */
    double *scratch)                    /* >= 4*B doubles */
{
    const int64_t B = num_rows;
    eval_lane_range(
        num_params, values, u_col, u_w, input_slew,
        pi_slots, num_pi,
        dff_slots, dff_dnom, dff_snom,
        dff_k1, dff_k2, dff_m1, dff_m2, num_dff,
        num_gates, g_fanin, g_out_slot,
        g_bd, g_dsl, g_bs, g_ssl,
        g_k1, g_k2, g_m1, g_m2,
        p_slot, p_wd, p_step2,
        arena_a, arena_s, B, 0, B,
        scratch, scratch + B, scratch + 2 * B, scratch + 3 * B);
}

/* Shared per-call arguments for one multithreaded evaluation; worker t
 * evaluates lanes [t*B/T, (t+1)*B/T) with scratch block t. */
typedef struct {
    int64_t num_params;
    const double *values;
    const int64_t *u_col; const double *u_w;
    double input_slew;
    const int64_t *pi_slots; int64_t num_pi;
    const int64_t *dff_slots;
    const double *dff_dnom; const double *dff_snom;
    const double *dff_k1; const double *dff_k2;
    const double *dff_m1; const double *dff_m2; int64_t num_dff;
    int64_t num_gates;
    const int64_t *g_fanin; const int64_t *g_out_slot;
    const double *g_bd; const double *g_dsl;
    const double *g_bs; const double *g_ssl;
    const double *g_k1; const double *g_k2;
    const double *g_m1; const double *g_m2;
    const int64_t *p_slot; const double *p_wd; const double *p_step2;
    double *arena_a; double *arena_s;
    double *scratch;
    int64_t B;
    int64_t num_threads;
} mt_call;

/* First lane of worker t: B*t/T moved down to the nearest lane that
 * starts a 64-byte line of arena_a, so two workers never write the same
 * cache line of an arena row (false sharing on every gate's output
 * otherwise costs more than the second worker gains).  With B a
 * multiple of 8 lanes every row shares the base's line phase; arena_s,
 * allocated the same way, normally shares it too, and where it does not
 * only speed is lost.  Results are bitwise the same under any
 * partition. */
static int64_t lane_boundary(const mt_call *c, int64_t t)
{
    if (t <= 0)
        return 0;
    if (t >= c->num_threads)
        return c->B;
    const int64_t phase =
        (int64_t)(((uintptr_t)c->arena_a / sizeof(double)) % 8);
    const int64_t lane = ((c->B * t) / c->num_threads + phase) / 8 * 8;
    return lane > phase ? lane - phase : 0;
}

static void eval_worker(const mt_call *c, int64_t t)
{
    const int64_t B = c->B;
    const int64_t lo = lane_boundary(c, t);
    const int64_t hi = lane_boundary(c, t + 1);
    double *block = c->scratch + 4 * B * t;
    if (lo >= hi)
        return;
    eval_lane_range(
        c->num_params, c->values, c->u_col, c->u_w,
        c->input_slew,
        c->pi_slots, c->num_pi,
        c->dff_slots, c->dff_dnom, c->dff_snom,
        c->dff_k1, c->dff_k2, c->dff_m1, c->dff_m2, c->num_dff,
        c->num_gates, c->g_fanin, c->g_out_slot,
        c->g_bd, c->g_dsl, c->g_bs, c->g_ssl,
        c->g_k1, c->g_k2, c->g_m1, c->g_m2,
        c->p_slot, c->p_wd, c->p_step2,
        c->arena_a, c->arena_s, B, lo, hi,
        block, block + B, block + 2 * B, block + 3 * B);
}

#if !defined(_OPENMP) && defined(REPRO_USE_PTHREADS)
typedef struct {
    const mt_call *call;
    int64_t thread_index;
} pthread_job;

static void *pthread_trampoline(void *raw)
{
    const pthread_job *job = (const pthread_job *)raw;
    eval_worker(job->call, job->thread_index);
    return 0;
}
#endif

void sta_eval_gates_mt(
    int64_t num_rows,            /* B: samples in this block */
    int64_t num_params,          /* P: parameters per projection row */
    int64_t num_value_cols,      /* K: value columns (extent of values) */
    const double *values,        /* (K, B) value columns, or NULL (nominal) */
    const int64_t *u_col,        /* >= (num_dff+num_gates)*P entries */
    const double *u_w,           /* >= (num_dff+num_gates)*P entries */
    double input_slew,
    const int64_t *pi_slots, int64_t num_pi,
    const int64_t *dff_slots,
    const double *dff_dnom, const double *dff_snom,
    const double *dff_k1, const double *dff_k2,
    const double *dff_m1, const double *dff_m2, int64_t num_dff,
    int64_t num_gates,           /* combinational gates, topological order */
    const int64_t *g_fanin, const int64_t *g_out_slot,
    const double *g_bd, const double *g_dsl,
    const double *g_bs, const double *g_ssl,
    const double *g_k1, const double *g_k2,
    const double *g_m1, const double *g_m2,
    const int64_t *p_slot, const double *p_wd, const double *p_step2,
    double *arena_a, double *arena_s,   /* (width, B) slot-major */
    double *scratch,                    /* >= 4*B*num_threads doubles */
    int64_t num_threads)
{
    const int64_t B = num_rows;
    if (B <= 0)
        return;
    int64_t T = num_threads;
    if (T < 1)
        T = 1;
    if (T > B)
        T = B;

    mt_call call;
    call.num_params = num_params;
    call.values = values;
    call.u_col = u_col; call.u_w = u_w;
    call.input_slew = input_slew;
    call.pi_slots = pi_slots; call.num_pi = num_pi;
    call.dff_slots = dff_slots;
    call.dff_dnom = dff_dnom; call.dff_snom = dff_snom;
    call.dff_k1 = dff_k1; call.dff_k2 = dff_k2;
    call.dff_m1 = dff_m1; call.dff_m2 = dff_m2; call.num_dff = num_dff;
    call.num_gates = num_gates;
    call.g_fanin = g_fanin; call.g_out_slot = g_out_slot;
    call.g_bd = g_bd; call.g_dsl = g_dsl;
    call.g_bs = g_bs; call.g_ssl = g_ssl;
    call.g_k1 = g_k1; call.g_k2 = g_k2;
    call.g_m1 = g_m1; call.g_m2 = g_m2;
    call.p_slot = p_slot; call.p_wd = p_wd; call.p_step2 = p_step2;
    call.arena_a = arena_a; call.arena_s = arena_s;
    call.scratch = scratch;
    call.B = B;
    call.num_threads = T;

    if (T == 1) {
        eval_worker(&call, 0);
        return;
    }

#if defined(_OPENMP)
    #pragma omp parallel num_threads((int)T)
    {
        eval_worker(&call, (int64_t)omp_get_thread_num());
    }
#elif defined(REPRO_USE_PTHREADS)
    {
        pthread_t handles[64];
        pthread_job jobs[64];
        int64_t spawned = 0;
        if (T > 64)
            T = 64;
        call.num_threads = T;
        for (int64_t t = 1; t < T; ++t) {
            jobs[t].call = &call;
            jobs[t].thread_index = t;
            if (pthread_create(&handles[t], 0, pthread_trampoline,
                               &jobs[t]) != 0) {
                /* Spawn failure: run the remaining ranges inline.  The
                 * lane partition is already fixed by T, so results stay
                 * bitwise identical — only the parallelism degrades. */
                for (int64_t rest = t; rest < T; ++rest)
                    eval_worker(&call, rest);
                break;
            }
            spawned = t;
        }
        eval_worker(&call, 0);
        for (int64_t t = 1; t <= spawned; ++t)
            pthread_join(handles[t], 0);
    }
#else
    /* No thread backend compiled in: sweep the same lane ranges
     * sequentially — bitwise identical, no speedup. */
    for (int64_t t = 0; t < T; ++t)
        eval_worker(&call, t);
#endif
}
