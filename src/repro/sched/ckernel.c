/*
 * The compiled hot path of one candidate evaluation, over one flat int64
 * state block per candidate:
 *
 *   sched_pass   the list-scheduling pass of repro.sched.arrays
 *                (ArraySpec._run_lists), decision for decision;
 *   price_state  the integer core of the slide-14 objective
 *                (repro.core.array_metrics.price_counts_python).
 *
 * Block layout (word offsets live in block_layout, built by
 * repro.sched.ckernel.BlockLayout; the Python and C sides never compute
 * them twice):
 *
 *   header       layout key, status, scheduled count, and the failing
 *                (job, node, edge, end)
 *   candidate    node_of[pids], delays[messages], rank_of_job[jobs],
 *                job_of_rank[jobs]
 *   runs         count[nodes], starts[nodes][cap], ends[nodes][cap]
 *   bus_used     one used-byte word per TDMA slot occurrence
 *   loop state   earliest[jobs], preds[jobs], heap[jobs]
 *
 * No float arithmetic runs here: urgencies are ranked in Python, so the
 * pass sees distinct integer ranks only.  Every index read from a block
 * is range-checked first, so a truncated or corrupted block returns an
 * error status instead of touching memory outside it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Header words. */
enum { H_KEY, H_STATUS, H_SCHEDULED, H_JOB, H_NODE, H_EDGE, H_END, H_WORDS };

/* Pass outcomes (H_STATUS and sched_pass's return value). */
enum { ST_FRESH, ST_OK, ST_HORIZON, ST_DEADLINE, ST_BUS, ST_WCET, ST_CYCLE };

/* Block errors (negative returns of both entry points). */
enum { E_NOMEM = -1, E_KEY = -2, E_STATUS = -3, E_CANDIDATE = -4,
       E_RUNS = -5, E_OVERFLOW = -6 };

typedef struct {
    int64_t key, size, n_nodes, run_cap, n_occ, n_jobs, n_pids, n_msgs;
    int64_t node_of, delays, rank, order, count, starts, ends, bus,
            earliest, preds, heap;
} block_layout;

/* Candidate-independent pass inputs of one ArraySpec. */
typedef struct {
    const block_layout *layout;
    int64_t horizon, round_length, n_sources;
    const int64_t *job_pid, *deadline, *wcet, *sources;
    const int64_t *out_ptr, *edge_msg, *edge_dst, *edge_dst_pid, *edge_size;
    const int64_t *slot_off, *slot_len, *slot_cap, *occ_count, *occ_base;
} sched_ctx;

/* Header and run counts shared by both entry points. */
static int check_block(const block_layout *L, const int64_t *b)
{
    if (b[H_KEY] != L->key)
        return E_KEY;
    const int64_t *count = b + L->count;
    for (int64_t n = 0; n < L->n_nodes; n++) {
        if (count[n] < 0 || count[n] > L->run_cap)
            return E_RUNS;
    }
    return 0;
}

static void heap_push(int64_t *heap, int64_t *len, int64_t value)
{
    int64_t i = (*len)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static int64_t heap_pop(int64_t *heap, int64_t *len)
{
    int64_t top = heap[0];
    int64_t n = --(*len);
    if (n == 0)
        return top;
    int64_t last = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

static int fail(int64_t *b, int status, int64_t scheduled, int64_t job,
                int64_t node, int64_t edge, int64_t end)
{
    b[H_STATUS] = status;
    b[H_SCHEDULED] = scheduled;
    b[H_JOB] = job;
    b[H_NODE] = node;
    b[H_EDGE] = edge;
    b[H_END] = end;
    return status;
}

/*
 * One cold list-scheduling pass over a fresh block, in place.  Returns the
 * ST_* outcome (also stored in the header, with the failing job, node,
 * edge and end time), or a negative E_* code for a block this spec could
 * not have built.
 */
int sched_pass(const sched_ctx *c, int64_t *b)
{
    const block_layout *L = c->layout;
    int status = check_block(L, b);
    if (status)
        return status;
    if (b[H_STATUS] != ST_FRESH)
        return E_STATUS;
    const int64_t n_nodes = L->n_nodes, n_jobs = L->n_jobs;
    const int64_t cap = L->run_cap;
    const int64_t *node_of = b + L->node_of;
    const int64_t *delays = b + L->delays;
    const int64_t *rank_of_job = b + L->rank;
    const int64_t *job_of_rank = b + L->order;
    for (int64_t p = 0; p < L->n_pids; p++) {
        if (node_of[p] < 0 || node_of[p] >= n_nodes)
            return E_CANDIDATE;
    }
    for (int64_t j = 0; j < n_jobs; j++) {
        if (rank_of_job[j] < 0 || rank_of_job[j] >= n_jobs
            || job_of_rank[j] < 0 || job_of_rank[j] >= n_jobs)
            return E_CANDIDATE;
    }
    int64_t *count = b + L->count;
    int64_t *starts = b + L->starts;
    int64_t *ends = b + L->ends;
    int64_t *bus_used = b + L->bus;
    int64_t *earliest = b + L->earliest;
    int64_t *preds = b + L->preds;
    int64_t *heap = b + L->heap;
    const int64_t horizon = c->horizon;
    const int64_t round_length = c->round_length;

    int64_t ready = 0;
    for (int64_t s = 0; s < c->n_sources; s++)
        heap_push(heap, &ready, rank_of_job[c->sources[s]]);
    int64_t scheduled = 0;

    while (ready) {
        const int64_t j = job_of_rank[heap_pop(heap, &ready)];
        const int64_t p = c->job_pid[j];
        const int64_t n = node_of[p];
        const int64_t w = c->wcet[p * n_nodes + n];
        if (w < 0)
            return fail(b, ST_WCET, scheduled, j, n, -1, -1);

        /* Inlined IntervalSet.earliest_fit over the node's runs. */
        int64_t *ss = starts + n * cap;
        int64_t *ee = ends + n * cap;
        const int64_t k = count[n];
        int64_t cursor = earliest[j];
        int64_t lo = 0, hi = k;
        while (lo < hi) { /* bisect_right(ss, cursor) */
            int64_t mid = (lo + hi) / 2;
            if (cursor < ss[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        int64_t idx = lo - 1;
        if (idx >= 0 && ee[idx] > cursor)
            cursor = ee[idx];
        idx++;
        while (idx < k) {
            if (ss[idx] - cursor >= w)
                break;
            if (ee[idx] > cursor)
                cursor = ee[idx];
            idx++;
        }
        /* end > horizon, written so a corrupted cursor cannot overflow. */
        if (cursor > horizon - w)
            return fail(b, ST_HORIZON, scheduled, j, n, -1, -1);
        const int64_t start = cursor, end = start + w;
        if (end > c->deadline[j])
            return fail(b, ST_DEADLINE, scheduled, j, n, -1, end);

        /* Canonical insertion at idx: only adjacency can merge. */
        if (idx > 0 && ee[idx - 1] == start) {
            if (idx < k && ss[idx] == end) {
                ee[idx - 1] = ee[idx];
                memmove(ss + idx, ss + idx + 1, (size_t)(k - idx - 1) * sizeof *ss);
                memmove(ee + idx, ee + idx + 1, (size_t)(k - idx - 1) * sizeof *ee);
                count[n] = k - 1;
            } else {
                ee[idx - 1] = end;
            }
        } else if (idx < k && ss[idx] == end) {
            ss[idx] = start;
        } else {
            if (k >= cap)
                return E_OVERFLOW;
            memmove(ss + idx + 1, ss + idx, (size_t)(k - idx) * sizeof *ss);
            memmove(ee + idx + 1, ee + idx, (size_t)(k - idx) * sizeof *ee);
            ss[idx] = start;
            ee[idx] = end;
            count[n] = k + 1;
        }
        scheduled++;

        for (int64_t t = c->out_ptr[j]; t < c->out_ptr[j + 1]; t++) {
            const int64_t dj = c->edge_dst[t];
            int64_t arrival;
            if (node_of[c->edge_dst_pid[t]] == n) {
                arrival = end;
            } else {
                const int64_t size = c->edge_size[t];
                const int64_t threshold = c->slot_cap[n] - size;
                const int64_t offset = c->slot_off[n];
                const int64_t n_occ = c->occ_count[n];
                int64_t *used = bus_used + c->occ_base[n];
                int64_t r;
                if (threshold < 0) {
                    r = n_occ;
                } else {
                    /* first_occurrence_not_before(n, end), then scan. */
                    r = end <= offset
                        ? 0 : (end - offset + round_length - 1) / round_length;
                    while (r < n_occ && used[r] > threshold)
                        r++;
                    /* Message delay: re-scan from window.start + 1, i.e.
                     * from the next occurrence index. */
                    int64_t delay = delays[c->edge_msg[t]];
                    while (delay > 0 && r < n_occ) {
                        r++;
                        while (r < n_occ && used[r] > threshold)
                            r++;
                        delay--;
                    }
                }
                if (r >= n_occ)
                    return fail(b, ST_BUS, scheduled, j, n, t, end);
                used[r] += size;
                arrival = r * round_length + offset + c->slot_len[n];
            }
            if (arrival > earliest[dj])
                earliest[dj] = arrival;
            if (--preds[dj] == 0) {
                if (ready >= n_jobs)
                    return E_OVERFLOW;
                heap_push(heap, &ready, rank_of_job[dj]);
            }
        }
    }
    if (scheduled != n_jobs)
        return fail(b, ST_CYCLE, scheduled, -1, -1, -1, -1);
    b[H_STATUS] = ST_OK;
    b[H_SCHEDULED] = scheduled;
    return ST_OK;
}

/* Candidate-independent inputs of one (ArraySpec, T_min, future) triple;
 * declared field for field in the loader's cdef. */
typedef struct {
    const block_layout *layout;
    int64_t horizon, width, n_windows, max_cap;
    const int64_t *window_lengths, *caps, *win;
    const int64_t *base_used, *base_hist, *base_window_free;
    int64_t n_p_runs, p_min, n_m_runs, m_min;
    const int64_t *p_size, *p_count, *m_size, *m_count;
} price_ctx;

/*
 * Best-fit unplaced total over a sparse bin histogram.
 *
 * values[0..*n) is ascending and holds distinct bin capacities; counts[]
 * how many bins hold each (a count of zero is a drained class kept in
 * place).  Within one run of equal-size objects best fit drains eligible
 * bins in ascending order, each hosting value / size objects, so a whole
 * value class drains at once and at most one bin per run is left
 * partially drained.  Same walk as best_fit_unplaced_total_hist, except
 * that drained classes are compacted away before each run instead of
 * being skipped lazily; that bounds the arrays at twice the live classes
 * plus two per run (see the capacities in price_state).
 */
static void hist_add(int64_t *values, int64_t *counts, int64_t *n,
                     int64_t value, int64_t count, int64_t *cursor)
{
    int64_t lo = 0, hi = *n;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (values[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < *n && values[lo] == value) {
        counts[lo] += count;
        return;
    }
    memmove(values + lo + 1, values + lo, (size_t)(*n - lo) * sizeof *values);
    memmove(counts + lo + 1, counts + lo, (size_t)(*n - lo) * sizeof *counts);
    values[lo] = value;
    counts[lo] = count;
    *n += 1;
    if (lo <= *cursor)
        *cursor += 1;
}

static int64_t best_fit_hist(const int64_t *run_size, const int64_t *run_count,
                             int64_t n_runs, int64_t *values, int64_t *counts,
                             int64_t n)
{
    int64_t unplaced = 0;
    for (int64_t r = 0; r < n_runs; r++) {
        int64_t size = run_size[r];
        int64_t count = run_count[r];
        int64_t live = 0;
        for (int64_t j = 0; j < n; j++) {
            if (counts[j]) {
                values[live] = values[j];
                counts[live] = counts[j];
                live++;
            }
        }
        n = live;
        int64_t lo = 0, hi = n;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (values[mid] < size)
                lo = mid + 1;
            else
                hi = mid;
        }
        int64_t i = lo;
        while (count && i < n) {
            int64_t value = values[i];
            int64_t bins = counts[i];
            if (!bins) {
                i++;
                continue;
            }
            int64_t per = value / size;
            int64_t capacity = per * bins;
            int64_t remainder = value % size;
            if (capacity <= count) {
                /* Every bin of this class drains to value % size, which
                 * is < size and so lands below the walk cursor. */
                counts[i] = 0;
                if (remainder)
                    hist_add(values, counts, &n, remainder, bins, &i);
                i++;
                count -= capacity;
            } else {
                int64_t full = count / per;
                int64_t rest = count % per;
                counts[i] = bins - full - (rest ? 1 : 0);
                if (full && remainder)
                    hist_add(values, counts, &n, remainder, full, &i);
                if (rest)
                    hist_add(values, counts, &n, value - rest * size, 1, &i);
                count = 0;
            }
        }
        unplaced += size * count;
    }
    return unplaced;
}

static int cmp_int64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Sort bin capacities and fold them into (value, count) classes in place;
 * returns the number of classes. */
static int64_t fold_classes(int64_t *values, int64_t *counts, int64_t n)
{
    if (n < 256) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = values[i], j = i;
            while (j > 0 && values[j - 1] > v) {
                values[j] = values[j - 1];
                j--;
            }
            values[j] = v;
        }
    } else {
        qsort(values, (size_t)n, sizeof *values, cmp_int64);
    }
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (k && values[k - 1] == values[i]) {
            counts[k - 1]++;
        } else {
            values[k] = values[i];
            counts[k] = 1;
            k++;
        }
    }
    return k;
}

/* Returns 0 and fills out[4] from a block's runs and bus_used; E_NOMEM when
 * scratch memory cannot be had, another E_* code when the block breaks
 * the layout the scheduler guarantees (sorted, merged runs inside the
 * horizon; slots filled within capacity). */
int price_state(const price_ctx *ctx, const int64_t *b, int64_t *out)
{
    const block_layout *L = ctx->layout;
    const int status = check_block(L, b);
    if (status)
        return status;
    const int64_t n_nodes = L->n_nodes, cap = L->run_cap;
    const int64_t *count = b + L->count;
    const int64_t *bus_used = b + L->bus;
    int64_t n_runs = 0;
    for (int64_t n = 0; n < n_nodes; n++)
        n_runs += count[n];
    const int64_t n_windows = ctx->n_windows;
    const int64_t width = ctx->width;
    const int64_t horizon = ctx->horizon;
    const int64_t max_cap = ctx->max_cap;
    /* Class arrays: a run may add one class per drained class plus two,
     * and live classes grow by at most two per run, so twice the initial
     * bins (one gap per run plus a tail gap per node; one class per
     * residual value) plus two per bag run always suffices. */
    const int64_t p_cap = 2 * (n_runs + n_nodes + 2 * ctx->n_p_runs + 1);
    const int64_t m_cap = 2 * (max_cap + 1 + 2 * ctx->n_m_runs + 1);
    int64_t *scratch = malloc(
        (size_t)(2 * n_windows + 2 * p_cap + 2 * m_cap + max_cap + 1)
        * sizeof *scratch);
    if (!scratch)
        return E_NOMEM;
    int64_t *busy = scratch;
    int64_t *window_free = busy + n_windows;
    int64_t *p_values = window_free + n_windows;
    int64_t *p_counts = p_values + p_cap;
    int64_t *m_values = p_counts + p_cap;
    int64_t *m_counts = m_values + m_cap;
    int64_t *resid_hist = m_counts + m_cap;

    /* Node slack: gap lengths and the per-window busy split, one pass
     * over each node's sorted, merged runs. */
    const int collect = ctx->n_p_runs > 0;
    const int64_t p_min = ctx->p_min;
    int64_t n_gaps = 0;
    int64_t c2p = 0;
    for (int64_t n = 0; n < n_nodes; n++) {
        const int64_t k_runs = count[n];
        const int64_t *starts = b + L->starts + n * cap;
        const int64_t *ends = b + L->ends + n * cap;
        memset(busy, 0, (size_t)n_windows * sizeof *busy);
        int64_t cursor = 0;
        for (int64_t j = 0; j < k_runs; j++) {
            int64_t start = starts[j];
            const int64_t end = ends[j];
            /* Runs index the window array: reject any that are unsorted,
             * overlapping or outside the horizon. */
            if (start < cursor || end < start || end > horizon)
                goto invalid;
            if (collect && start - cursor >= p_min)
                p_values[n_gaps++] = start - cursor;
            cursor = end;
            int64_t k = start / width;
            while (start < end) {
                const int64_t boundary = (k + 1) * width;
                if (boundary >= end) {
                    busy[k] += end - start;
                    break;
                }
                busy[k] += boundary - start;
                start = boundary;
                k++;
            }
        }
        if (collect && horizon - cursor >= p_min)
            p_values[n_gaps++] = horizon - cursor;
        int64_t window_min = ctx->window_lengths[0] - busy[0];
        for (int64_t w = 1; w < n_windows; w++) {
            const int64_t slack = ctx->window_lengths[w] - busy[w];
            if (slack < window_min)
                window_min = slack;
        }
        c2p += window_min;
    }

    /* Bus: the base occupancy's residual counting histogram (residuals
     * are bounded by the slot capacity, so no sort) and per-window free
     * bytes, patched where the state's used bytes differ from the base --
     * a candidate touches only a handful of occurrences. */
    memcpy(resid_hist, ctx->base_hist, (size_t)(max_cap + 1) * sizeof *resid_hist);
    memcpy(window_free, ctx->base_window_free,
           (size_t)n_windows * sizeof *window_free);
    const int64_t *base_used = ctx->base_used;
    for (int64_t i = 0; i < L->n_occ; i++) {
        const int64_t after = bus_used[i];
        const int64_t before = base_used[i];
        if (after == before)
            continue;
        if (after < 0 || after > ctx->caps[i])
            goto invalid;
        resid_hist[ctx->caps[i] - before]--;
        resid_hist[ctx->caps[i] - after]++;
        if (ctx->win[i] >= 0)
            window_free[ctx->win[i]] -= after - before;
    }
    int64_t c2m = window_free[0];
    for (int64_t w = 1; w < n_windows; w++) {
        if (window_free[w] < c2m)
            c2m = window_free[w];
    }

    int64_t p_unplaced = 0;
    if (collect) {
        const int64_t n_classes = fold_classes(p_values, p_counts, n_gaps);
        p_unplaced = best_fit_hist(ctx->p_size, ctx->p_count, ctx->n_p_runs,
                                   p_values, p_counts, n_classes);
    }
    int64_t m_unplaced = 0;
    if (ctx->n_m_runs > 0) {
        int64_t n_classes = 0;
        for (int64_t v = ctx->m_min; v <= max_cap; v++) {
            if (resid_hist[v]) {
                m_values[n_classes] = v;
                m_counts[n_classes] = resid_hist[v];
                n_classes++;
            }
        }
        m_unplaced = best_fit_hist(ctx->m_size, ctx->m_count, ctx->n_m_runs,
                                   m_values, m_counts, n_classes);
    }

    free(scratch);
    out[0] = p_unplaced;
    out[1] = c2p;
    out[2] = m_unplaced;
    out[3] = c2m;
    return 0;

invalid:
    free(scratch);
    return E_RUNS;
}
