/* The annealer's per-rung kernel: windows, screening, pricing, commits.
 *
 * Each temperature rung of repro.pnr.place.anneal_placement draws K
 * candidate moves in numpy (so the rng stream is numpy's) and runs four
 * data-dependent passes here:
 *
 *   windows  the dominance window of every picked gate: the floor is the
 *            max over its fan-ins' output cells, the ceiling the min over
 *            its fan-outs' input cells, both clamped to the region;
 *   screen   drop candidates whose window is empty, that do not move, or
 *            whose target cell is taken; compact the survivors;
 *   price    the exact HPWL delta of every survivor against the current
 *            cache, with IncrementalHpwl.propose semantics;
 *   commit   greedy commits, in draw order, of the candidates numpy's
 *            Metropolis test accepted, under the conflict screen.
 *
 * The kernel keeps no state of its own: everything lives in the caller's
 * arrays, reached through the two structs below, so anneals running on
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
    const uint8_t *accept;
    int64_t *touched;                    /* per net: last rung it moved in */
    int64_t *committed;                  /* committed candidates, in order */
    double *total;                       /* running total, best total */
    int32_t *best_rows, *best_cols;
    int64_t n_gates;
} Rung;

static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Target bounds of the k picked gates.  numpy draws each target from
 * [lo, max(lo, hi) + 1), so an empty window still consumes one draw. */
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
