/*
 * The three compiled loops of simplex_stdp: the step of dynamics.simulate,
 * the joint multi-output step of multi._joint_steps and the membrane of
 * spiking.membrane, which spiking.collect_triggers and
 * spiking.spiking_learning_run walk.
 *
 * simplex_advance runs steps k0..k1-1 for every probability row of a batch,
 * drawing as it steps, with the same draws, arithmetic and order as
 * `dynamics.numpy_step` and, when mart is given, `dynamics.GapTracker`. Each
 * step of a row reads its own stream in step order: the trigger uniform u, d
 * uniforms r for the noise, then, with gamma, d uniforms g:
 *
 *   idx  = #{j : cumsum(p)_j <= u}, the last positive entry if that is d
 *   z    = -1 + 2 * r for d uniforms r, numpy's uniform(-1, 1)
 *   y    = S + z, S one-hot at idx or, with gamma, S_j = [g_j < gamma_idx,j],
 *          the idx column of C, whose entries are independent Ber(gamma_idx,j)
 *   p    = p * (1 + alpha * y), divided by its sum
 *
 * simplex_joint does the same for the joint scheme, which steps weights,
 * with the arithmetic of its numpy reference `multi._joint_step`. In the
 * joint scheme a weight row whose sum(lam * x) leaves [2^-256, 2^256] is
 * first scaled by a power of two, as `dynamics.rescale` does, so the weights
 * cannot overflow; the scaling is exact while entries stay normal, so the
 * probabilities do not change.
 *
 * Every row sum uses numpy's pairwise summation order, so results are bit
 * for bit those of the numpy steps. Build without FMA contraction or
 * fast-math (-ffp-contract=off), which would change the rounding.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Forced inline, so that with a constant d every loop over j unrolls */
#define INLINE static inline __attribute__((always_inline))

/* numpy's pairwise_sum order for n >= 8 contiguous doubles; its halves
 * have at least 64 entries each */
static double pairwise_blocks(const double *a, int64_t n)
{
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
    return pairwise_blocks(a, n2) + pairwise_blocks(a + n2, n - n2);
}

/* numpy's order for the sum of n contiguous doubles (pairwise_sum), left to
 * right below 8 entries; only pairwise_blocks recurses, so this inlines */
INLINE double pairwise_sum(const double *a, int64_t n)
{
    if (n >= 8)
        return pairwise_blocks(a, n);
    double res = 0.0;
    for (int64_t i = 0; i < n; i++)
        res += a[i];
    return res;
}

/* out = gamma @ p, each entry summed in pairwise order over tmp */
INLINE void gamma_dot(const double *gamma, const double *p, int64_t d, double *tmp, double *out)
{
    for (int64_t r = 0; r < d; r++) {
        for (int64_t k = 0; k < d; k++)
            tmp[k] = p[k] * gamma[r * d + k];
        out[r] = pairwise_sum(tmp, d);
    }
}

/* sum(lam * x) over tmp, which keeps lam * x */
static double products_sum(const double *lam, const double *x, int64_t d, double *tmp)
{
    for (int64_t j = 0; j < d; j++)
        tmp[j] = lam[j] * x[j];
    return pairwise_sum(tmp, d);
}

/* sum(lam * x) over tmp, as products_sum, after scaling x in place by the
 * power of two that brings its largest entry into [0.5, 1) when the sum lies
 * outside [2^-256, 2^256]: the arithmetic of dynamics._weight_sums */
static double weight_sum(const double *lam, double *x, int64_t d, double *tmp)
{
    const double total = products_sum(lam, x, d, tmp);
    if (total >= 0x1p-256 && total <= 0x1p256)
        return total;
    double mx = x[0];
    int e;
    for (int64_t j = 1; j < d; j++)
        if (x[j] > mx)
            mx = x[j];
    frexp(mx, &e);
    for (int64_t j = 0; j < d; j++)
        x[j] = ldexp(x[j], -e);
    return products_sum(lam, x, d, tmp);
}

/* The trigger of the probabilities p (d,) for the uniform u, the rule of
 * dynamics.sample_triggers: the number of cumulative sums at or below u. A
 * zero entry repeats the previous sum, so a count below d is a positive
 * entry. A count of d means u lies at or above a total that rounding left
 * below 1; the trigger is then the last positive entry (d - 1 if none). */
INLINE int64_t trigger(const double *p, int64_t d, double u)
{
    int64_t idx = 0;
    double cum = 0.0;
    for (int64_t j = 0; j < d; j++) {
        cum += p[j];
        idx += cum <= u;
    }
    if (idx < d)
        return idx;
    for (int64_t j = d - 1; j >= 0; j--)
        if (p[j] > 0.0)
            return j;
    return d - 1;
}

/* v[0] - max(v[1:]) */
INLINE double lead_gap(const double *v, int64_t d)
{
    double mx = v[1];
    for (int64_t j = 2; j < d; j++)
        if (v[j] > mx)
            mx = v[j];
    return v[0] - mx;
}

/*
 * Everything fixed for one run of dynamics.simulate: what the run varies
 * and nothing more. x (n, d) is the state, probability rows updated in
 * place (weight rows in a joint run), stepped at the rate alpha.
 * streams (n,) holds the state address of each row's numpy bit generator,
 * read in step order; next_double is their shared draw function, one
 * 64-bit output per double. gamma (d, d) is NULL for independent
 * triggers, mart NULL without tracking; mart is (n, d), bounded and
 * alive (n,) the flags of each row's maximal-inequality and gap events. In a
 * joint run the rows are the columns of the runs, row run * d_out + j
 * holding column j, and alphas (d_out,) their rates; alpha, gamma and the
 * tracking fields are unused.
 * Every field is 8 bytes wide, so the layout has no padding.
 */
struct simplex_run {
    int64_t n, d;
    double alpha;
    double *x;
    void *const *streams;
    double (*next_double)(void *);
    const double *gamma;
    double *mart;
    uint8_t *bounded, *alive;
    double threshold, half_gap, half_gap_gamma;
    int64_t d_out;
    const double *alphas;
};

/* One step of GapTracker for row i of r, whose rows have d entries: M moves
 * while the gap event holds, bounded clears at the first |M_j| above the
 * threshold, and the gap is checked, that of gamma @ p too when the run has
 * correlated triggers. Returns 1 on an inclusion violation, bounded still
 * set after the gap event ended. With gamma, gp holds gamma @ p on entry and
 * gamma @ pn, the next step's gamma @ p, on return. */
INLINE int track(const struct simplex_run *r, int64_t d, int64_t i, const double *p,
                 const double *y, const double *pn, double *tmp, double *gp)
{
    const double *gamma = r->gamma;
    double *mart = r->mart + i * d;
    uint8_t *bounded = r->bounded + i, *alive = r->alive + i;
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * y[j];
    const double s = pairwise_sum(tmp, d);
    const double *mean = gamma ? gp : p;
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * mean[j];
    const double pm = pairwise_sum(tmp, d);
    int held = 1;
    for (int64_t j = 0; j < d; j++) {
        const double drift = p[j] * (mean[j] - pm);
        const double xi = drift - p[j] * (y[j] - s);
        if (*alive)
            mart[j] += r->alpha * xi;
        held &= fabs(mart[j]) <= r->threshold;
    }
    *bounded = *bounded && held;
    int ok = lead_gap(pn, d) >= r->half_gap;
    if (gamma) {
        gamma_dot(gamma, pn, d, tmp, gp);
        ok &= lead_gap(gp, d) >= r->half_gap_gamma;
    }
    *alive = *alive && ok;
    return *bounded && !*alive;
}

/*
 * Runs steps k0..k1-1 of r, whose rows have d entries, over the buffer buf
 * of 6 * d doubles. Each step of a row reads one trigger uniform, d noise
 * values -1 + 2 * r (numpy's uniform(-1, 1)) and, with gamma, d column
 * uniforms, in that order, from the row's generator. Returns the number of
 * inclusion violations seen. simplex_advance calls it with d a constant
 * where it can, so that the compiler unrolls every loop over j.
 */
INLINE int64_t advance(const struct simplex_run *r, int64_t d, int64_t k0, int64_t k1,
                       double *buf)
{
    const double alpha = r->alpha, *gamma = r->gamma;
    double *y = buf, *xn = buf + d, *tmp = buf + 2 * d, *gp = buf + 3 * d;
    double *z = buf + 4 * d, *g = buf + 5 * d;
    int64_t violations = 0;
    for (int64_t i = 0; i < r->n; i++) {
        double *p = r->x + i * d;
        void *const st = r->streams[i];
        /* track keeps gp at gamma @ p from here on */
        if (r->mart && gamma)
            gamma_dot(gamma, p, d, tmp, gp);
        for (int64_t t = k0; t < k1; t++) {
            const double u = r->next_double(st);
            for (int64_t j = 0; j < d; j++)
                z[j] = -1.0 + 2.0 * r->next_double(st);
            if (gamma)
                for (int64_t j = 0; j < d; j++)
                    g[j] = r->next_double(st);
            const int64_t idx = trigger(p, d, u);
            for (int64_t j = 0; j < d; j++) {
                /* gamma_ii = 1 exceeds every uniform, so the trigger spikes */
                const double sig = gamma ? g[j] < gamma[idx * d + j] : j == idx;
                y[j] = sig + z[j];
            }
            for (int64_t j = 0; j < d; j++)
                xn[j] = p[j] * (1.0 + alpha * y[j]);
            const double total = pairwise_sum(xn, d);
            for (int64_t j = 0; j < d; j++)
                xn[j] /= total;
            if (r->mart)
                violations += track(r, d, i, p, y, xn, tmp, gp);
            for (int64_t j = 0; j < d; j++)
                p[j] = xn[j];
        }
    }
    return violations;
}

/* advance over steps k0..k1-1 of r, compiled apart for d = 2 and d = 3, the
 * dimensions of every single-neuron scenario at its defaults; returns -1
 * when out of memory. */
int64_t simplex_advance(const struct simplex_run *r, int64_t k0, int64_t k1)
{
    double *buf = malloc(6 * (size_t)r->d * sizeof(double));
    if (!buf)
        return -1;
    int64_t violations;
    switch (r->d) {
    case 2:
        violations = advance(r, 2, k0, k1, buf);
        break;
    case 3:
        violations = advance(r, 3, k0, k1, buf);
        break;
    default:
        violations = advance(r, r->d, k0, k1, buf);
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
 * Per step, each column j of a run reads one trigger uniform, then d noise
 * values, from its row's generator and takes the increment
 * (alphas[j] * w_j) * (e_idx + z), idx the trigger of its probabilities;
 * the increments of columns i+1.. are then projected off the unit vector of
 * column i after its own projection off columns 0..i-1 (none when that
 * residual is at most 1e-12 of the column norm), and w = max(w + inc, 0) as
 * np.clip does. Scaling a column by a power of two scales its increment
 * alike and leaves every unit vector as it is.
 * Returns the number of clipped entries, or -1 when out of memory.
 */
int64_t simplex_joint(const struct simplex_run *r, int64_t k0, int64_t k1, const double *lam)
{
    const int64_t d = r->d, d_out = r->d_out, size = d_out * d;
    double *buf = malloc((2 * (size_t)size + 3 * (size_t)d) * sizeof(double));
    if (!buf)
        return -1;
    double *inc = buf, *basis = buf + size, *z = buf + 2 * size, *tmp = z + d, *p = tmp + d;
    int64_t clips = 0;
    for (int64_t run = 0; run < r->n / d_out; run++) {
        double *w = r->x + run * size;
        void *const *st = r->streams + run * d_out;
        for (int64_t t = k0; t < k1; t++) {
            for (int64_t j = 0; j < d_out; j++) {
                double *wj = w + j * d;
                const double total = weight_sum(lam, wj, d, tmp);
                const double u = r->next_double(st[j]);
                for (int64_t k = 0; k < d; k++)
                    z[k] = -1.0 + 2.0 * r->next_double(st[j]);
                for (int64_t k = 0; k < d; k++)
                    p[k] = tmp[k] / total;
                const int64_t idx = trigger(p, d, u);
                for (int64_t k = 0; k < d; k++)
                    inc[j * d + k] = r->alphas[j] * wj[k] * ((k == idx) + z[k]);
            }
            for (int64_t i = 0; i + 1 < d_out; i++) {
                const double scale = norm2(w + i * d, d, tmp);
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
            for (int64_t k = 0; k < size; k++) {
                const double next = w[k] + inc[k];
                clips += next < 0.0;
                /* np.clip(next, 0, None): -0.0 becomes 0.0, NaN stays */
                w[k] = next > 0.0 || isnan(next) ? next : 0.0;
            }
        }
    }
    free(buf);
    return clips;
}

/*
 * The membrane of spiking.membrane over one stream of n presynaptic events
 * in time order: event e is a spike of neuron ids[e] at times[e]. From the
 * potential state[0] at the time state[1], each event does
 *
 *   y = y * exp(t_prev - t);  y = y + w[j];  y >= threshold: spike, y = 0
 *
 * with libm's exp, the function math.exp calls. The walk stops right after
 * the cap-th spike (cap >= 1) or at the end of the stream. Only the spikes
 * are recorded: the positions e of their events go to spikes (cap
 * entries). On return state holds (y, t_prev) after the last event walked,
 * so a stream cut into blocks, or resumed where a walk stopped, runs as one
 * pass. Returns the number of spikes, or -1 when a time is not finite or
 * lies below the one before it.
 */
int64_t simplex_membrane(int64_t n, const double *times, const int64_t *ids, const double *w,
                         double threshold, double *state, int64_t cap, int64_t *spikes)
{
    int64_t count = 0;
    double y = state[0], t_prev = state[1];
    for (int64_t e = 0; e < n; e++) {
        const double t = times[e];
        if (!isfinite(t) || !(t >= t_prev)) {
            count = -1;
            break;
        }
        y = y * exp(t_prev - t);
        y = y + w[ids[e]];
        t_prev = t;
        if (y >= threshold) {
            spikes[count] = e;
            y = 0.0;
            /* tested here, not per event at the loop head, where it made the
             * walk of a 32768-event block about 40% slower */
            if (++count == cap)
                break;
        }
    }
    state[0] = y;
    state[1] = t_prev;
    return count;
}
