/*
 * Compiled loops of simplex_stdp: the step of dynamics.simulate, the joint
 * multi-output step of multi._joint_steps and the membrane of
 * spiking.simulate_membrane.
 *
 * simplex_advance runs steps k0..k1-1 for every row of a batch, drawing as
 * it steps, with the same draws, arithmetic and order as
 * `dynamics.numpy_step` and, when mart is given, `dynamics.GapTracker`:
 *
 *   p    = x, or lam * x / sum(lam * x)         (weight form)
 *   idx  = #{j : cumsum(p)_j <= u}, capped at top
 *   y    = S + z, S one-hot at idx or, with gamma, the idx column of C
 *   x    = x * (1 + alpha * y), divided by its sum in the probability form
 *
 * simplex_joint does the same for the joint scheme, with the arithmetic of
 * its numpy reference `multi._joint_step`.
 *
 * Every row sum uses numpy's pairwise summation order, so results are bit
 * for bit those of the numpy steps. Build without FMA contraction or
 * fast-math (-ffp-contract=off), which would change the rounding.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy's order for the sum of n contiguous doubles (pairwise_sum) */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* out = gamma @ p, each entry summed in pairwise order over tmp */
static void gamma_dot(const double *gamma, const double *p, int64_t d, double *tmp, double *out)
{
    for (int64_t r = 0; r < d; r++) {
        for (int64_t k = 0; k < d; k++)
            tmp[k] = p[k] * gamma[r * d + k];
        out[r] = pairwise_sum(tmp, d);
    }
}

static int all_finite(const double *v, int64_t d)
{
    for (int64_t j = 0; j < d; j++)
        if (!isfinite(v[j]))
            return 0;
    return 1;
}

/* v[0] - max(v[1:]) */
static double lead_gap(const double *v, int64_t d)
{
    double mx = v[1];
    for (int64_t j = 2; j < d; j++)
        if (v[j] > mx)
            mx = v[j];
    return v[0] - mx;
}

/*
 * Everything fixed for one run of dynamics.simulate. x (n, d) is the state,
 * updated in place; top (n,) the last pickable coordinate of each row.
 * streams (n, 3) holds, per row, the state addresses of the numpy bit
 * generators positioned at the chunk's trigger uniforms, noise values and
 * pair uniforms (NULL without pairs); next_double is their shared draw
 * function, one 64-bit output per double. pair (d, d)
 * numbers each unordered pair. gamma and pair are NULL for independent
 * triggers, mart NULL without tracking; mart and max_abs are (n, d) and
 * alive (n,). In a joint run the rows are the columns of the runs, row
 * run * d_out + j holding column j, and alphas (d_out,) their rates; alpha,
 * top, gamma and the tracking fields are unused. Every field is 8 bytes
 * wide, so the layout has no padding.
 */
struct simplex_run {
    int64_t n, d, n_pairs;
    double alpha, half_width;
    double *x;
    const int64_t *top;
    void *const *streams;
    double (*next_double)(void *);
    const double *gamma;
    const int64_t *pair;
    double *mart, *max_abs;
    uint8_t *alive;
    double threshold, half_gap, half_gap_gamma;
    int64_t d_out;
    const double *alphas;
};

/* One step of GapTracker for row i, checking the gap of gamma @ p too when the
 * run has correlated triggers; returns 1 on an inclusion violation. With
 * gamma, gp holds gamma @ p on entry and gamma @ pn on return. */
static int track(const struct simplex_run *r, int64_t i, const double *p, const double *y,
                 const double *pn, double *tmp, double *gp)
{
    const int64_t d = r->d;
    const double *gamma = r->gamma;
    double *mart = r->mart + i * d, *max_abs = r->max_abs + i * d;
    uint8_t *alive = r->alive + i;
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * y[j];
    const double s = pairwise_sum(tmp, d);
    const double *mean = gamma ? gp : p;
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * mean[j];
    const double pm = pairwise_sum(tmp, d);
    int e_now = 1;
    for (int64_t j = 0; j < d; j++) {
        const double drift = p[j] * (mean[j] - pm);
        const double xi = drift - p[j] * (y[j] - s);
        if (*alive)
            mart[j] += r->alpha * xi;
        const double a = fabs(mart[j]);
        if (a > max_abs[j])
            max_abs[j] = a;
        e_now &= max_abs[j] <= r->threshold;
    }
    int ok = lead_gap(pn, d) >= r->half_gap;
    if (gamma) {
        gamma_dot(gamma, pn, d, tmp, gp);
        ok &= lead_gap(gp, d) >= r->half_gap_gamma;
    }
    *alive = *alive && ok;
    return e_now && !*alive;
}

/*
 * Runs steps k0..k1-1 of r under the intensities lam (d,), NULL in the
 * probability form. Each step of a row reads one trigger uniform, d noise
 * values -h + 2h * r (numpy's uniform(-h, h)) and n_pairs pair uniforms
 * from the row's three generators. In the weight form a row stops at its
 * first state that is not finite; *stop gets the earliest step after which
 * a row is not finite, or k1 + 1. Returns the number of inclusion violations seen, or -1
 * when out of memory.
 */
int64_t simplex_advance(const struct simplex_run *r, int64_t k0, int64_t k1, const double *lam,
                        int64_t *stop)
{
    const int64_t d = r->d, n_pairs = r->n_pairs;
    const double lo = -r->half_width, span = r->half_width - lo;
    double *buf = malloc((6 * (size_t)d + (size_t)n_pairs) * sizeof(double));
    if (!buf)
        return -1;
    double *pb = buf, *y = buf + d, *xn = buf + 2 * d, *tmp = buf + 3 * d, *gp = buf + 4 * d;
    double *z = buf + 5 * d, *gu = buf + 6 * d;
    int64_t violations = 0;
    *stop = k1 + 1;
    for (int64_t i = 0; i < r->n; i++) {
        double *xr = r->x + i * d;
        void *const *st = r->streams + 3 * i;
        int have_gp = 0; /* gp holds gamma @ p of this step */
        for (int64_t t = k0; t < k1; t++) {
            const double u = r->next_double(st[0]);
            for (int64_t j = 0; j < d; j++)
                z[j] = lo + span * r->next_double(st[1]);
            for (int64_t q = 0; q < n_pairs; q++)
                gu[q] = r->next_double(st[2]);
            const double *p = xr;
            if (lam) {
                for (int64_t j = 0; j < d; j++)
                    tmp[j] = lam[j] * xr[j];
                const double total = pairwise_sum(tmp, d);
                for (int64_t j = 0; j < d; j++)
                    pb[j] = tmp[j] / total;
                p = pb;
            }
            int64_t idx = 0;
            double cum = p[0];
            for (int64_t j = 0; j < d; j++) {
                if (j)
                    cum += p[j];
                idx += cum <= u;
            }
            if (idx > r->top[i])
                idx = r->top[i];
            for (int64_t j = 0; j < d; j++) {
                /* gamma_ii = 1 exceeds every uniform, so the trigger spikes */
                double sig = j == idx;
                if (r->gamma && j != idx)
                    sig = gu[r->pair[idx * d + j]] < r->gamma[idx * d + j];
                y[j] = sig + z[j];
            }
            for (int64_t j = 0; j < d; j++)
                xn[j] = xr[j] * (1.0 + r->alpha * y[j]);
            if (!lam) {
                const double total = pairwise_sum(xn, d);
                for (int64_t j = 0; j < d; j++)
                    xn[j] /= total;
            }
            if (r->mart) {
                if (r->gamma && !have_gp)
                    gamma_dot(r->gamma, p, d, tmp, gp);
                violations += track(r, i, p, y, xn, tmp, gp);
                /* in the probability form xn is the next step's p */
                have_gp = !lam;
            }
            for (int64_t j = 0; j < d; j++)
                xr[j] = xn[j];
            /* a probability row stays on the simplex; weights can overflow */
            if (lam && !all_finite(xr, d)) {
                if (t + 1 < *stop)
                    *stop = t + 1;
                break;
            }
        }
    }
    free(buf);
    return violations;
}

/* v -= sum(v * ub) * ub, the sum over tmp */
static void project_off(double *v, const double *ub, int64_t d, double *tmp)
{
    for (int64_t k = 0; k < d; k++)
        tmp[k] = v[k] * ub[k];
    const double dot = pairwise_sum(tmp, d);
    for (int64_t k = 0; k < d; k++)
        v[k] -= dot * ub[k];
}

/* sqrt(sum(v * v)), the sum over tmp: np.linalg.norm */
static double norm2(const double *v, int64_t d, double *tmp)
{
    for (int64_t k = 0; k < d; k++)
        tmp[k] = v[k] * v[k];
    return sqrt(pairwise_sum(tmp, d));
}

/*
 * Runs steps k0..k1-1 of the joint scheme under the intensities lam (d,).
 * Per step, each column j of a run reads one trigger uniform and d noise
 * values from its row's generators and takes the increment
 * (alphas[j] * w_j) * (e_idx + z), idx capped at the last positive
 * probability; the increments of columns i+1.. are then projected off the
 * unit vector of column i after its own projection off columns 0..i-1
 * (none when that residual is at most 1e-12 of the column norm), and
 * w = max(w + inc, 0) as np.clip does. A run stops at its first state that
 * is not finite, or at a column norm that is not finite; *stop gets the
 * earliest step after which a run is not finite, or k1 + 1. Returns the number
 * of clipped entries, -1 when out of memory and -2 when a column norm is
 * not finite before the earliest such step (where the numpy step raises).
 */
int64_t simplex_joint(const struct simplex_run *r, int64_t k0, int64_t k1, const double *lam,
                      int64_t *stop)
{
    const int64_t d = r->d, d_out = r->d_out, size = d_out * d;
    const double lo = -r->half_width, span = r->half_width - lo;
    double *buf = malloc((2 * (size_t)size + 3 * (size_t)d) * sizeof(double));
    if (!buf)
        return -1;
    double *inc = buf, *basis = buf + size, *z = buf + 2 * size, *tmp = z + d, *p = tmp + d;
    int64_t clips = 0, bad_norm = k1 + 1;
    *stop = k1 + 1;
    for (int64_t run = 0; run < r->n / d_out; run++) {
        double *w = r->x + run * size;
        void *const *st = r->streams + 3 * run * d_out;
        for (int64_t t = k0; t < k1; t++) {
            for (int64_t j = 0; j < d_out; j++) {
                const double *wj = w + j * d;
                const double u = r->next_double(st[3 * j]);
                for (int64_t k = 0; k < d; k++)
                    z[k] = lo + span * r->next_double(st[3 * j + 1]);
                for (int64_t k = 0; k < d; k++)
                    tmp[k] = lam[k] * wj[k];
                const double total = pairwise_sum(tmp, d);
                for (int64_t k = 0; k < d; k++)
                    p[k] = tmp[k] / total;
                int64_t idx = 0, top = d - 1;
                double cum = p[0];
                for (int64_t k = 0; k < d; k++) {
                    if (k)
                        cum += p[k];
                    idx += cum <= u;
                }
                while (top > 0 && !(p[top] > 0.0))
                    top--;
                if (!(p[top] > 0.0))
                    top = d - 1;
                if (idx > top)
                    idx = top;
                for (int64_t k = 0; k < d; k++)
                    inc[j * d + k] = r->alphas[j] * wj[k] * ((k == idx) + z[k]);
            }
            int64_t i = 0;
            for (; i + 1 < d_out; i++) {
                const double scale = norm2(w + i * d, d, tmp);
                if (!isfinite(scale))
                    break;
                double *ub = basis + i * d;
                for (int64_t k = 0; k < d; k++)
                    ub[k] = w[i * d + k];
                for (int64_t b = 0; b < i; b++)
                    project_off(ub, basis + b * d, d, tmp);
                const double norm = norm2(ub, d, tmp);
                const int keep = norm > 1e-12 * scale;
                const double div = norm < 1e-300 ? 1e-300 : norm;
                for (int64_t k = 0; k < d; k++)
                    ub[k] = keep ? ub[k] / div : 0.0;
                for (int64_t h = i + 1; h < d_out; h++)
                    project_off(inc + h * d, ub, d, tmp);
            }
            if (i + 1 < d_out) {
                if (t < bad_norm)
                    bad_norm = t;
                break;
            }
            for (int64_t k = 0; k < size; k++) {
                const double next = w[k] + inc[k];
                clips += next < 0.0;
                /* np.clip(next, 0, None): -0.0 becomes 0.0, NaN stays */
                w[k] = next > 0.0 || isnan(next) ? next : 0.0;
            }
            if (!all_finite(w, size)) {
                if (t + 1 < *stop)
                    *stop = t + 1;
                break;
            }
        }
    }
    free(buf);
    return bad_norm < *stop ? -2 : clips;
}

/*
 * The membrane of spiking.simulate_membrane over d presynaptic trains:
 * times[j] holds the sizes[j] spike times of neuron j, which must be finite
 * and nondecreasing from 0. The trains are merged as they are walked, the
 * smallest head time first and the lowest neuron index on ties (the order
 * of np.lexsort((ids, times))), and each event does
 *
 *   y = y * exp(t_prev - t);  y = y + w[j];  y >= threshold: spike, y = 0
 *
 * with libm's exp, the function math.exp calls. Spike times and trigger ids
 * go to spike_times and trigger_ids (cap entries each); when potentials is
 * given, every event's time and its y after any reset go to event_times and
 * potentials (one entry per event). Returns the number of spikes, -1 when a
 * train is not finite and nondecreasing from 0, -2 when more than cap
 * spikes occur and -3 when out of memory.
 */
int64_t simplex_membrane(int64_t d, const double *const *times, const int64_t *sizes,
                         const double *w, double threshold, int64_t cap,
                         double *spike_times, int64_t *trigger_ids,
                         double *event_times, double *potentials)
{
    int64_t *pos = calloc((size_t)d, sizeof(int64_t));
    if (!pos)
        return -3;
    int64_t n_events = 0, n_spikes = 0;
    for (int64_t j = 0; j < d; j++)
        n_events += sizes[j];
    double y = 0.0, t_prev = 0.0;
    for (int64_t e = 0; e < n_events; e++) {
        int64_t j = -1;
        double t = 0.0;
        for (int64_t k = 0; k < d; k++)
            if (pos[k] < sizes[k] && (j < 0 || times[k][pos[k]] < t)) {
                j = k;
                t = times[k][pos[k]];
            }
        /* a NaN head is taken sooner or later and fails here too */
        if (!isfinite(t) || !(t >= (pos[j] ? times[j][pos[j] - 1] : 0.0))) {
            n_spikes = -1;
            break;
        }
        pos[j]++;
        y = y * exp(t_prev - t);
        y = y + w[j];
        t_prev = t;
        if (y >= threshold) {
            if (n_spikes == cap) {
                n_spikes = -2;
                break;
            }
            spike_times[n_spikes] = t;
            trigger_ids[n_spikes++] = j;
            y = 0.0;
        }
        if (potentials) {
            event_times[e] = t;
            potentials[e] = y;
        }
    }
    free(pos);
    return n_spikes;
}
