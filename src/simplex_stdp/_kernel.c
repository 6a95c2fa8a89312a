/*
 * Compiled chunk step of simplex_stdp.dynamics.simulate.
 *
 * simplex_advance runs steps t0..t1-1 of one pre-drawn chunk for every row
 * of a batch, with the same arithmetic in the same order as the numpy loop
 * of `simulate` and, when mart is given, of `dynamics.GapTracker`:
 *
 *   p    = x, or lam * x / sum(lam * x)         (weight form)
 *   idx  = #{j : cumsum(p)_j <= u}, capped at top
 *   y    = S + z, S one-hot at idx or, with gamma, the idx column of C
 *   x    = x * (1 + alpha * y), divided by its sum in the probability form
 *
 * Every row sum uses numpy's pairwise summation order, so results are bit
 * for bit those of the numpy loop. Build without FMA contraction or
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

/* v[0] - max(v[1:]) */
static double lead_gap(const double *v, int64_t d)
{
    double mx = v[1];
    for (int64_t j = 2; j < d; j++)
        if (v[j] > mx)
            mx = v[j];
    return v[0] - mx;
}

/* One step of GapTracker for one row; returns 1 on an inclusion violation. */
static int track(int64_t d, double alpha, const double *p, const double *y, const double *pn,
                 const double *gamma, double *tmp, double *gp, double *mart, double *max_abs,
                 uint8_t *alive, double threshold, double half_gap, double half_gap_gamma)
{
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * y[j];
    const double s = pairwise_sum(tmp, d);
    const double *mean = p;
    if (gamma) {
        gamma_dot(gamma, p, d, tmp, gp);
        mean = gp;
    }
    for (int64_t j = 0; j < d; j++)
        tmp[j] = p[j] * mean[j];
    const double pm = pairwise_sum(tmp, d);
    int e_now = 1;
    for (int64_t j = 0; j < d; j++) {
        const double drift = p[j] * (mean[j] - pm);
        const double xi = drift - p[j] * (y[j] - s);
        if (*alive)
            mart[j] += alpha * xi;
        const double a = fabs(mart[j]);
        if (a > max_abs[j])
            max_abs[j] = a;
        e_now &= max_abs[j] <= threshold;
    }
    int ok = lead_gap(pn, d) >= half_gap;
    if (gamma) {
        gamma_dot(gamma, pn, d, tmp, gp);
        ok &= lead_gap(gp, d) >= half_gap_gamma;
    }
    *alive = *alive && ok;
    return e_now && !*alive;
}

/*
 * x (n, d) is the state, updated in place; top (n,) the last pickable
 * coordinate of each row. u (n, m), z (n, m, d) and gu (n, m, n_pairs) are
 * the chunk's draws; pair (d, d) numbers each unordered pair. lam (d,) is
 * NULL in the probability form, gamma (d, d) and pair NULL for independent
 * triggers, mart NULL without tracking; mart and max_abs are (n, d), alive
 * (n,), and track_gamma (d, d) is the tracker's correlation matrix, NULL for
 * independent triggers. Returns the number of inclusion violations seen, or
 * -1 when out of memory.
 */
int64_t simplex_advance(int64_t n, int64_t d, int64_t m, int64_t t0, int64_t t1, double alpha,
                        double *x, const int64_t *top, const double *u, const double *z,
                        const double *gu, int64_t n_pairs, const double *lam,
                        const double *gamma, const int64_t *pair, double *mart,
                        double *max_abs, uint8_t *alive, const double *track_gamma,
                        double threshold, double half_gap, double half_gap_gamma)
{
    double *buf = malloc(5 * (size_t)d * sizeof(double));
    if (!buf)
        return -1;
    double *pb = buf, *y = buf + d, *xn = buf + 2 * d, *tmp = buf + 3 * d, *gp = buf + 4 * d;
    int64_t violations = 0;
    for (int64_t i = 0; i < n; i++) {
        double *xr = x + i * d;
        for (int64_t t = t0; t < t1; t++) {
            const int64_t s = i * m + t;
            const double *zt = z + s * d;
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
                idx += cum <= u[s];
            }
            if (idx > top[i])
                idx = top[i];
            for (int64_t j = 0; j < d; j++) {
                /* gamma_ii = 1 exceeds every uniform, so the trigger spikes */
                double sig = j == idx;
                if (gamma && j != idx)
                    sig = gu[s * n_pairs + pair[idx * d + j]] < gamma[idx * d + j];
                y[j] = sig + zt[j];
            }
            for (int64_t j = 0; j < d; j++)
                xn[j] = xr[j] * (1.0 + alpha * y[j]);
            if (!lam) {
                const double total = pairwise_sum(xn, d);
                for (int64_t j = 0; j < d; j++)
                    xn[j] /= total;
            }
            if (mart)
                violations += track(d, alpha, p, y, xn, track_gamma, tmp, gp, mart + i * d,
                                    max_abs + i * d, alive + i, threshold, half_gap,
                                    half_gap_gamma);
            for (int64_t j = 0; j < d; j++)
                xr[j] = xn[j];
        }
    }
    free(buf);
    return violations;
}
