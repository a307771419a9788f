/* The annealer's rung kernel: draws, windows, screening, pricing,
 * the accept test and commits.
 *
 * Each temperature rung of repro.pnr.place.anneal_placement is one call
 * of `step`, which runs, in order:
 *
 *   pick     K gates, uniform over the movable ones;
 *   windows  the dominance window of every picked gate: the floor is the
 *            max over its fan-ins' output cells, the ceiling the min over
 *            its fan-outs' input cells, both clamped to the region;
 *   targets  K rows, then K columns, uniform inside the windows;
 *   uniforms K doubles in [0, 1) for the accept test;
 *   screen   drop candidates whose window is empty, that do not move, or
 *            whose target cell is taken; compact the survivors;
 *   price    the exact HPWL delta of every survivor against the current
 *            cache, with IncrementalHpwl.propose semantics;
 *   accept   the Metropolis test, with exp(-delta / T) read from the
 *            caller's table (numpy computed it, so it is numpy's exp);
 *   commit   greedy commits, in draw order, of the accepted candidates,
 *            under the conflict screen.
 *
 * The draws are numpy's Generator(PCG64) stream, bit for bit: the same
 * generator, the same bounded-integer and uniform algorithms, in the
 * order the numpy annealer drew them.  Its state (and next_uint32's
 * spare half) lives in the caller's array.
 *
 * The kernel keeps no state of its own: everything lives in the caller's
 * arrays, reached through the three structs below, so anneals running on
 * different threads share nothing.  Deltas are sums of integer spans,
 * added as doubles in the order the Python oracle adds them.
 */

#include <stdint.h>
#include <string.h>

/* The cached per-net bounding boxes (IncrementalHpwl's state). */
typedef struct {
    int32_t *rows, *cols;    /* gate positions (input cell) */
    int64_t *boxes;          /* per net: rmin rmax cmin cmax, then the
                                number of pins on each of those edges */
    const int64_t *grp_ptr;  /* gate -> its (net, offsets) groups */
    const int64_t *grp_net;
    const int64_t *off_ptr;  /* group -> its pin column offsets */
    const int64_t *off;
    const int64_t *pin_ptr;  /* net -> its pins (gate, column offset) */
    const int64_t *pin_gate;
    const int64_t *pin_off;
} Hpwl;

/* One rung's buffers plus the annealer's grid state. */
typedef struct {
    int64_t *pick, *trs, *tcs;           /* the draw */
    int64_t *lo_r, *hi_r1, *lo_c, *hi_c1; /* target bounds, hi exclusive */
    uint8_t *ok;                         /* window not empty */
    const int64_t *fi_ptr, *fi;          /* gate -> fan-in gates */
    const int64_t *fo_ptr, *fo;          /* gate -> fan-out gates */
    const int32_t *widths;
    int64_t row_lo, row_hi, col_lo, col_hi;
    int32_t *occupied;                   /* -1 empty, -2 dead, else gate */
    int64_t occ_cols;
    int64_t *idx;                        /* screened candidates */
    double *deltas;                      /* per screened candidate */
    int64_t *ebeg, *ent_net, *nb;        /* its nets and their new boxes */
    uint8_t *accept;                     /* the accept test's verdicts */
    int64_t *touched;                    /* per net: last rung it moved in */
    int64_t *committed;                  /* committed candidates, in order */
    double *total;                       /* running total, best total */
    int32_t *best_rows, *best_cols;
    int64_t n_gates;
} Rung;

/* The rung's random stream and accept table. */
typedef struct {
    uint64_t *pcg;            /* state hi, lo, inc hi, lo, has_uint32,
                                 uinteger: numpy's PCG64 state */
    const int64_t *movable;   /* the gates a pick draws from */
    int64_t n_mov;
    double *u;                /* the rung's uniforms */
    const double *table;      /* per rung: exp(-d / T) for d = 0..width-1 */
    int64_t width;
} Draw;

static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Target bounds of the k picked gates.  Each target is drawn from
 * [lo, max(lo, hi) + 1), so an empty window still consumes its draw. */
void windows(const Hpwl *h, Rung *w, int64_t k)
{
    for (int64_t j = 0; j < k; j++) {
        int64_t g = w->pick[j];
        int64_t lr = w->row_lo, lc = w->col_lo;
        int64_t hr = w->row_hi, hc = w->col_hi;
        for (int64_t t = w->fi_ptr[g]; t < w->fi_ptr[g + 1]; t++) {
            int64_t f = w->fi[t];
            lr = max64(lr, h->rows[f]);
            lc = max64(lc, h->cols[f] + w->widths[f] - 1);
        }
        for (int64_t t = w->fo_ptr[g]; t < w->fo_ptr[g + 1]; t++) {
            int64_t f = w->fo[t];
            hr = min64(hr, h->rows[f]);
            hc = min64(hc, h->cols[f]);
        }
        w->ok[j] = lr <= hr && lc <= hc;
        w->lo_r[j] = lr;
        w->hi_r1[j] = max64(lr, hr) + 1;
        w->lo_c[j] = lc;
        w->hi_c1[j] = max64(lc, hc) + 1;
    }
}

/* Indices of the drawn candidates worth pricing; returns their count. */
int64_t screen(const Hpwl *h, Rung *w, int64_t k)
{
    int64_t n = 0;
    for (int64_t j = 0; j < k; j++) {
        int64_t g = w->pick[j], tr = w->trs[j], tc = w->tcs[j];
        if (!w->ok[j] || (tr == h->rows[g] && tc == h->cols[g]))
            continue;
        int32_t o = w->occupied[tr * w->occ_cols + tc];
        if (o != -1 && o != g)
            continue;
        w->idx[n++] = j;
    }
    return n;
}

/* IncrementalHpwl._scan: net k's box with gate `moved` at (nr, nc). */
static void scan(const Hpwl *h, int64_t k, int64_t moved, int64_t nr,
                 int64_t nc, int64_t *b)
{
    int64_t rmin = INT64_MAX, rmax = INT64_MIN;
    int64_t cmin = INT64_MAX, cmax = INT64_MIN;
    int64_t p0 = h->pin_ptr[k], p1 = h->pin_ptr[k + 1];
    for (int pass = 0; pass < 2; pass++) {
        int64_t n[4] = {0, 0, 0, 0};
        for (int64_t p = p0; p < p1; p++) {
            int64_t g = h->pin_gate[p], r, c;
            if (g == moved) {
                r = nr;
                c = nc + h->pin_off[p];
            } else {
                r = h->rows[g];
                c = h->cols[g] + h->pin_off[p];
            }
            if (pass == 0) {
                rmin = min64(rmin, r);
                rmax = max64(rmax, r);
                cmin = min64(cmin, c);
                cmax = max64(cmax, c);
            } else {
                n[0] += r == rmin;
                n[1] += r == rmax;
                n[2] += c == cmin;
                n[3] += c == cmax;
            }
        }
        if (pass == 1) {
            b[0] = rmin; b[1] = rmax; b[2] = cmin; b[3] = cmax;
            memcpy(b + 4, n, sizeof n);
        }
    }
}

/* IncrementalHpwl._bbox_after: move every pin of gate g on net k (one
 * per offset) from (or_, oc) to (nr, nc); rescan if an edge empties. */
static void bbox_after(const Hpwl *h, int64_t k, int64_t g, int64_t grp,
                       int64_t or_, int64_t oc, int64_t nr, int64_t nc,
                       int64_t *b)
{
    memcpy(b, h->boxes + 8 * k, 8 * sizeof *b);
    for (int64_t t = h->off_ptr[grp]; t < h->off_ptr[grp + 1]; t++) {
        int64_t o = h->off[t], occ = oc + o, ncc = nc + o;
        b[4] -= or_ == b[0];
        b[5] -= or_ == b[1];
        b[6] -= occ == b[2];
        b[7] -= occ == b[3];
        if (!b[4] || !b[5] || !b[6] || !b[7]) {
            scan(h, k, g, nr, nc, b);
            return;
        }
        if (nr < b[0]) { b[0] = nr; b[4] = 1; } else if (nr == b[0]) b[4]++;
        if (nr > b[1]) { b[1] = nr; b[5] = 1; } else if (nr == b[1]) b[5]++;
        if (ncc < b[2]) { b[2] = ncc; b[6] = 1; } else if (ncc == b[2]) b[6]++;
        if (ncc > b[3]) { b[3] = ncc; b[7] = 1; } else if (ncc == b[3]) b[7]++;
    }
}

/* Exact deltas of the n screened candidates (IncrementalHpwl.propose),
 * with each candidate's nets and replacement boxes kept for commit. */
void price(const Hpwl *h, Rung *w, int64_t n)
{
    int64_t e = 0;
    w->ebeg[0] = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t c = w->idx[j], g = w->pick[c];
        int64_t nr = w->trs[c], nc = w->tcs[c];
        int64_t or_ = h->rows[g], oc = h->cols[g];
        double delta = 0.0;
        for (int64_t grp = h->grp_ptr[g]; grp < h->grp_ptr[g + 1]; grp++, e++) {
            int64_t k = h->grp_net[grp];
            const int64_t *old = h->boxes + 8 * k;
            int64_t *b = w->nb + 8 * e;
            bbox_after(h, k, g, grp, or_, oc, nr, nc, b);
            w->ent_net[e] = k;
            delta += (double)(((b[1] - b[0]) + (b[3] - b[2]))
                              - ((old[1] - old[0]) + (old[3] - old[2])));
        }
        w->deltas[j] = delta;
        w->ebeg[j + 1] = e;
    }
}

/* Commit the accepted candidates among the n priced ones, in order,
 * skipping any whose nets an earlier commit of this rung touched or
 * whose target cell it took; returns the commit count. */
int64_t commit(Hpwl *h, Rung *w, int64_t n, int64_t rung)
{
    int64_t done = 0;
    for (int64_t j = 0; j < n; j++) {
        if (!w->accept[j])
            continue;
        int64_t e0 = w->ebeg[j], e1 = w->ebeg[j + 1], e;
        for (e = e0; e < e1; e++)
            if (w->touched[w->ent_net[e]] == rung)
                break;
        if (e < e1)
            continue;
        int64_t c = w->idx[j], g = w->pick[c];
        int64_t tr = w->trs[c], tc = w->tcs[c];
        int32_t *at = w->occupied + tr * w->occ_cols + tc;
        if (*at != -1 && *at != g)
            continue;
        w->occupied[h->rows[g] * w->occ_cols + h->cols[g]] = -1;
        *at = (int32_t)g;
        h->rows[g] = (int32_t)tr;
        h->cols[g] = (int32_t)tc;
        for (e = e0; e < e1; e++) {
            int64_t k = w->ent_net[e];
            memcpy(h->boxes + 8 * k, w->nb + 8 * e, 8 * sizeof(int64_t));
            w->touched[k] = rung;
        }
        w->total[0] += w->deltas[j];
        w->committed[done++] = j;
    }
    if (w->total[0] < w->total[1]) {
        w->total[1] = w->total[0];
        memcpy(w->best_rows, h->rows, (size_t)w->n_gates * sizeof(int32_t));
        memcpy(w->best_cols, h->cols, (size_t)w->n_gates * sizeof(int32_t));
    }
    return done;
}

/* numpy's PCG64: the 128-bit LCG step, then the XSL-RR output. */
static uint64_t next64(uint64_t *s)
{
    typedef unsigned __int128 u128;
    const u128 mult = (u128)2549297995355413924ULL << 64
                      | 4865540595714422341ULL;
    u128 st = ((u128)s[0] << 64 | s[1]) * mult + ((u128)s[2] << 64 | s[3]);
    s[0] = (uint64_t)(st >> 64);
    s[1] = (uint64_t)st;
    uint64_t x = s[0] ^ s[1];
    unsigned rot = (unsigned)(s[0] >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* numpy's next_uint32: the low half of a fresh draw, keeping the high
 * half for the next call. */
static uint32_t next32(uint64_t *s)
{
    if (s[4]) {
        s[4] = 0;
        return (uint32_t)s[5];
    }
    uint64_t v = next64(s);
    s[4] = 1;
    s[5] = v >> 32;
    return (uint32_t)v;
}

/* numpy's Generator.integers(lo, hi1) for a range under 2**32 - 1:
 * Lemire's bounded draw on 32-bit words; a one-value range draws
 * nothing. */
static int64_t bounded(uint64_t *s, int64_t lo, int64_t hi1)
{
    uint32_t rng = (uint32_t)(hi1 - lo - 1);
    if (!rng)
        return lo;
    uint32_t excl = rng + 1;
    uint64_t m = (uint64_t)next32(s) * excl;
    uint32_t left = (uint32_t)m;
    if (left < excl) {
        uint32_t threshold = (UINT32_MAX - rng) % excl;
        while (left < threshold) {
            m = (uint64_t)next32(s) * excl;
            left = (uint32_t)m;
        }
    }
    return lo + (int64_t)(m >> 32);
}

/* One whole rung at table row rung - 1; returns its commit count, or -1
 * (before any commit) when a positive delta falls outside the table. */
int64_t step(Hpwl *h, Rung *w, Draw *d, int64_t k, int64_t rung)
{
    uint64_t *s = d->pcg;
    for (int64_t j = 0; j < k; j++)
        w->pick[j] = d->movable[bounded(s, 0, d->n_mov)];
    windows(h, w, k);
    for (int64_t j = 0; j < k; j++)
        w->trs[j] = bounded(s, w->lo_r[j], w->hi_r1[j]);
    for (int64_t j = 0; j < k; j++)
        w->tcs[j] = bounded(s, w->lo_c[j], w->hi_c1[j]);
    for (int64_t j = 0; j < k; j++)
        d->u[j] = (double)(next64(s) >> 11) * (1.0 / 9007199254740992.0);
    int64_t n = screen(h, w, k);
    if (!n)
        return 0;
    price(h, w, n);
    const double *bar = d->table + (rung - 1) * d->width;
    for (int64_t j = 0; j < n; j++) {
        double delta = w->deltas[j];
        if (delta <= 0.0) {
            w->accept[j] = 1;
            continue;
        }
        if (!(delta < (double)d->width) || delta != (double)(int64_t)delta)
            return -1;
        w->accept[j] = d->u[w->idx[j]] < bar[(int64_t)delta];
    }
    return commit(h, w, n, rung);
}
