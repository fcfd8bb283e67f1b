/*
 * Integer core of the slide-14 objective over one finished array state.
 *
 * The C twin of repro.core.array_metrics.price_counts_python: node slack
 * gaps and the per-T_min-window busy split, bus residuals and per-window
 * free bytes, and histogram best-fit packing of both future bags.  It
 * returns four integers (unplaced process total, C2P, unplaced message
 * total, C2M); the caller mixes them into the float metrics with the
 * Python kernel's exact expressions, so objectives stay bit-identical.
 *
 * Every quantity is a pure function of integer inputs, and best fit's
 * unplaced total is a pure function of the bag and bin multisets, so the
 * order in which bins are collected never matters.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Candidate-independent inputs of one (ArraySpec, T_min, future) triple;
 * declared field for field in the loader's cdef. */
typedef struct {
    int64_t horizon, width, n_windows, n_occ, max_cap;
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

/* Returns 0 and fills out[4]; -1 when scratch memory cannot be had, -2
 * when the state breaks the layout the scheduler guarantees (sorted,
 * merged runs inside the horizon; slots filled within capacity). */
int price_state(const price_ctx *ctx, const int64_t *runs, int64_t n_nodes,
                int64_t n_runs, const int64_t *bus_used, int64_t *out)
{
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
        return -1;
    int64_t *busy = scratch;
    int64_t *window_free = busy + n_windows;
    int64_t *p_values = window_free + n_windows;
    int64_t *p_counts = p_values + p_cap;
    int64_t *m_values = p_counts + p_cap;
    int64_t *m_counts = m_values + m_cap;
    int64_t *resid_hist = m_counts + m_cap;

    /* Node slack: gap lengths and the per-window busy split, one pass
     * over each node's sorted, merged runs [count, starts..., ends...]. */
    const int collect = ctx->n_p_runs > 0;
    const int64_t p_min = ctx->p_min;
    int64_t n_gaps = 0;
    int64_t c2p = 0;
    const int64_t *node = runs;
    for (int64_t n = 0; n < n_nodes; n++) {
        const int64_t k_runs = node[0];
        const int64_t *starts = node + 1;
        const int64_t *ends = starts + k_runs;
        node = ends + k_runs;
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
    for (int64_t i = 0; i < ctx->n_occ; i++) {
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
    return -2;
}
