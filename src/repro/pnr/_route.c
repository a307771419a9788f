/* The router's hot paths: A* search, path commits and journal replay.
 *
 * repro.pnr.route.Router routes one net at a time:
 *
 *   route_net  every sink of a net, nearest first: land on a column the
 *              net already reaches, or run a maze search over the wire
 *              nodes w[r][c][i] and commit the found path; a declared
 *              output the tree does not drive gets a tap row;
 *   replay_many  re-claim earlier routes' commit journals op by op,
 *              net by net, each op validated against the current
 *              occupancy; the first collision rolls that net back and
 *              stops;
 *   apply      commit one journal op unchecked (the Python output taps);
 *   rollback   undo everything the current net claimed;
 *   emit       write the single-cell gates' fan-out rows and every
 *              feed-through row into configuration digits.
 *
 * Everything lives in caller-owned arrays reached through structs:
 * State (the occupancy, indexed by cell id r * cols + c or by wire id
 * (r * (cols + 1) + c) * 6 + i), Search (the cost grid every search of
 * one router shares, valid where its generation stamp matches), Net
 * (one net's sinks and its output journal) and Emit (one emission
 * pass).  The kernel keeps no state of its own, so routers on
 * different threads share nothing.
 *
 * The frontier pops in (f, tick) order and ticks are unique, so any heap
 * pops it in one order.  Candidates are pushed in a fixed order (seeds in
 * route order, then drive rows, then the entry scan; per popped node its
 * free rows ascending, east before north), and f and the stale test are
 * evaluated as ((g + dr) + dc) in doubles; the build forbids contraction.
 * Every claim also records its wire's feed-through hop depth, which is
 * what static timing reads.
 */

#include <stdint.h>
#include <stdlib.h>

#define NI 6              /* input columns per cell == driver rows */
#define ALL_ROWS 0x3f
#define FREE (-1)         /* owner of an unclaimed wire or column */

/* Journal op codes (the artifact codec's) and their lengths in ints. */
enum { OP_ENTRY, OP_ENTRY_FRONT, OP_DRIVE, OP_THRU, OP_COL };
static const int OP_LEN[] = {4, 4, 8, 9, 4};

/* route_net results. */
enum {
    OK, NO_COLUMN, NO_PATH, NO_TAP, PI_TAP, NO_MEMORY, FULL
};

/* Parent kinds of a search node; a hop's parent is the previous node. */
enum { P_SEED = -1, P_DRIVE = -2, P_ENTRY = -3 };

/* Undo-logged buffers, by their index in an undo entry. */
enum {
    B_WIRE, B_COLNET, B_THRUNET, B_MASK, B_GDIR, B_TDIR, B_TIN, B_PEND,
    B_NPEND, B_NASSIGN, B_PENDOUT, N_BUF
};

typedef struct {
    int64_t rows, cols;
    int64_t r0, r1, c0, c1;         /* routing region, hi exclusive */
    int32_t *wire_net;              /* per wire: owning net, FREE, or a
                                       reserved owner below FREE */
    int32_t *depth;                 /* per wire: feed-through hops from
                                       its net's drive or entry wire */
    int32_t *col_net;               /* per cell column: the net read */
    int64_t *col_seq;               /* per cell column: claim stamp */
    int32_t *thru_net;              /* per cell column: the net whose
                                       feed-throughs read it */
    int32_t *row_mask;              /* per cell: driver rows in use */
    int32_t *gate_dir, *thru_dir;   /* per cell row: -1 or direction */
    int32_t *thru_in;               /* per cell row: column it reads */
    int32_t *pend;                  /* per cell: 6 slots of input nets
                                       still owed a column, FREE empty */
    int32_t *n_pend, *n_assign;     /* per cell: counts */
    int32_t *pend_out;              /* per cell: output row still owed */
    int32_t *committed;             /* per cell: no row may be taken */
    int32_t *opaque;                /* per cell: no net passes */
    int32_t *logic;                 /* per cell: a gate sits here */
    int32_t *thru_key, *gate_key;   /* per cell: ever given a row of
                                       that kind (rollback keeps it) */
    double *history;                /* per cell: congestion charge */
    int32_t *undo;                  /* (buffer, index, old value) */
    int64_t undo_cap;               /* entries */
    int64_t *ctr;                   /* [undo entries, next claim stamp] */
} State;

typedef struct {
    double *gcost;
    int64_t *stamp;
    int32_t *par;                   /* previous node, or a P_ kind */
    int32_t *move;                  /* row * 2 + direction */
    int64_t *gen;                   /* [current generation] */
} Search;

typedef struct {
    int64_t net, src_cell, multi, is_output, er, ec, n_sinks;
    int32_t *sinks;                 /* per sink: target cell, pinned
                                       column or -1 */
    int32_t *sink_col;              /* out: column each sink landed on */
    int32_t *wires;                 /* out: (r, c, i) per wire */
    int32_t *ops;                   /* out: the commit journal */
    int32_t *path;                  /* scratch: one path, goal first */
    int64_t *io;                    /* out: [wires, journal ints, entry
                                       wire or -1, failing sink, number
                                       of allowed columns, columns...] */
    int64_t wire_cap, op_cap;
} Net;

typedef struct {
    double f;
    int64_t tick;
    int64_t nid;
} Item;

static int64_t wid(const State *s, int64_t r, int64_t c, int64_t i)
{
    return (r * (s->cols + 1) + c) * NI + i;
}

static void unwid(const State *s, int64_t w, int64_t *r, int64_t *c,
                  int64_t *i)
{
    *i = w % NI;
    *c = (w / NI) % (s->cols + 1);
    *r = w / NI / (s->cols + 1);
}

/* ---- undo-logged mutators ------------------------------------------ */

static void set32(State *s, int buf, int32_t *arr, int64_t i, int32_t v)
{
    int32_t *u = s->undo + 3 * s->ctr[0]++;
    u[0] = buf;
    u[1] = (int32_t)i;
    u[2] = arr[i];
    arr[i] = v;
}

void rollback(State *s)
{
    int32_t *bufs[N_BUF] = {
        s->wire_net, s->col_net, s->thru_net, s->row_mask, s->gate_dir,
        s->thru_dir, s->thru_in, s->pend, s->n_pend, s->n_assign,
        s->pend_out,
    };
    for (int64_t n = s->ctr[0]; n-- > 0;) {
        const int32_t *u = s->undo + 3 * n;
        bufs[u[0]][u[1]] = u[2];
    }
    s->ctr[0] = 0;
}

static void claim_wire(State *s, int64_t w, int32_t net, int32_t depth)
{
    set32(s, B_WIRE, s->wire_net, w, net);
    s->depth[w] = depth;
}

static void mark_row(State *s, int64_t cell, int64_t row)
{
    set32(s, B_MASK, s->row_mask, cell, s->row_mask[cell] | 1 << row);
}

static void assign_col(State *s, int64_t cell, int64_t col, int32_t net)
{
    int64_t k = cell * NI + col;
    if (s->col_net[k] == FREE) {
        set32(s, B_COLNET, s->col_net, k, net);
        set32(s, B_NASSIGN, s->n_assign, cell, s->n_assign[cell] + 1);
        s->col_seq[k] = s->ctr[1]++;
    }
    if (s->n_pend[cell] > 0) {
        for (int64_t j = cell * NI; j < (cell + 1) * NI; j++) {
            if (s->pend[j] == net) {
                set32(s, B_PEND, s->pend, j, FREE);
                set32(s, B_NPEND, s->n_pend, cell, s->n_pend[cell] - 1);
                break;
            }
        }
    }
}

static void add_gate_row(State *s, int64_t cell, int64_t row, int64_t dir)
{
    s->gate_key[cell] = 1;
    set32(s, B_GDIR, s->gate_dir, cell * NI + row, (int32_t)dir);
    mark_row(s, cell, row);
    if (s->pend_out[cell])
        set32(s, B_PENDOUT, s->pend_out, cell, 0);
}

static int thru_col_of(const State *s, int64_t cell, int32_t net)
{
    for (int j = 0; j < NI; j++)
        if (s->thru_net[cell * NI + j] == net)
            return j;
    return -1;
}

static void add_thru_row(State *s, int64_t cell, int32_t net, int64_t in_col,
                         int64_t row, int64_t dir)
{
    if (thru_col_of(s, cell, net) < 0)
        set32(s, B_THRUNET, s->thru_net, cell * NI + in_col, net);
    assign_col(s, cell, in_col, net);
    s->thru_key[cell] = 1;
    set32(s, B_TDIR, s->thru_dir, cell * NI + row, (int32_t)dir);
    set32(s, B_TIN, s->thru_in, cell * NI + row, (int32_t)in_col);
    mark_row(s, cell, row);
}

/* The hop depth of a wire a feed-through at `cell` drives from column
 * `in_col`: one more than the wire it reads.  An output tap reads its
 * entry wire before claiming it; that entry is the root, depth 0. */
static int32_t feed_depth(const State *s, int64_t cell, int64_t in_col,
                          int32_t net)
{
    int64_t feed = wid(s, cell / s->cols, cell % s->cols, in_col);
    return s->wire_net[feed] == net ? s->depth[feed] + 1 : 1;
}

/* ---- occupancy queries --------------------------------------------- */

int64_t free_rows(const State *s, int64_t cell)
{
    return s->committed[cell] ? 0 : ~s->row_mask[cell] & ALL_ROWS;
}

/* Rows through-traffic may take: one stays for an undriven gate. */
static int64_t thru_rows(const State *s, int64_t cell)
{
    int64_t rows = free_rows(s, cell);
    if (s->pend_out[cell] && __builtin_popcountll(rows) <= 1)
        return 0;
    return rows;
}

static int pending_has(const State *s, int64_t cell, int32_t net)
{
    for (int64_t j = cell * NI; j < (cell + 1) * NI; j++)
        if (s->pend[j] == net)
            return 1;
    return 0;
}

/* Can `net` pass through cell (r, c) reading column `col`? */
int64_t passable(const State *s, int64_t r, int64_t c, int64_t net,
                 int64_t col)
{
    if (r < s->r0 || r >= s->r1 || c < s->c0 || c >= s->c1)
        return 0;
    int64_t cell = r * s->cols + c;
    if (s->opaque[cell])
        return 0;
    int existing = thru_col_of(s, cell, (int32_t)net);
    if (existing >= 0)
        return col == existing;
    int32_t owner = s->col_net[cell * NI + col];
    if (owner != FREE)
        return owner == net;
    /* A fresh column claim must leave enough free columns for the
     * cell's own unrouted gate inputs (unless this net is one). */
    if (s->n_pend[cell] > 0 && !pending_has(s, cell, (int32_t)net))
        return NI - s->n_assign[cell] > s->n_pend[cell];
    return 1;
}

static double hop_cost(const State *s, int64_t cell, int32_t net)
{
    double base;
    if (thru_col_of(s, cell, net) >= 0)
        base = 1.0;                 /* reuse a cell the net reads */
    else if (s->logic[cell] || s->thru_key[cell])
        base = 1.5;                 /* share a cell something uses */
    else
        base = 2.0;                 /* burn a fresh blank */
    return base + s->history[cell];
}

/* ---- the frontier: a binary heap on (f, tick) ---------------------- */

typedef struct {
    Item *items;
    int64_t n, cap;
} Heap;

static int before(const Item *a, const Item *b)
{
    return a->f < b->f || (a->f == b->f && a->tick < b->tick);
}

static int heap_push(Heap *h, double f, int64_t tick, int64_t nid)
{
    if (h->n == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 256;
        Item *grown = realloc(h->items, (size_t)cap * sizeof(Item));
        if (!grown)
            return 0;
        h->items = grown;
        h->cap = cap;
    }
    int64_t k = h->n++;
    Item it = {f, tick, nid};
    while (k > 0) {
        int64_t up = (k - 1) / 2;
        if (!before(&it, &h->items[up]))
            break;
        h->items[k] = h->items[up];
        k = up;
    }
    h->items[k] = it;
    return 1;
}

static Item heap_pop(Heap *h)
{
    Item top = h->items[0];
    Item last = h->items[--h->n];
    int64_t k = 0;
    for (;;) {
        int64_t child = 2 * k + 1;
        if (child >= h->n)
            break;
        if (child + 1 < h->n && before(&h->items[child + 1], &h->items[child]))
            child++;
        if (!before(&h->items[child], &last))
            break;
        h->items[k] = h->items[child];
        k = child;
    }
    if (h->n)
        h->items[k] = last;
    return top;
}

/* ---- the search ---------------------------------------------------- */

typedef struct {
    const State *s;
    Search *q;
    Heap heap;
    int64_t tr, tc, gen, tick;
    int ok;
} Frontier;

static void push(Frontier *fr, int64_t r, int64_t c, int64_t i, double cost,
                 int32_t par, int32_t move)
{
    if (r > fr->tr || c > fr->tc)
        return;
    Search *q = fr->q;
    int64_t nid = wid(fr->s, r, c, i);
    if (q->stamp[nid] == fr->gen && q->gcost[nid] <= cost)
        return;
    q->gcost[nid] = cost;
    q->par[nid] = par;
    q->move[nid] = move;
    q->stamp[nid] = fr->gen;
    double f = cost + (double)(fr->tr - r) + (double)(fr->tc - c);
    fr->ok &= heap_push(&fr->heap, f, ++fr->tick, nid);
}

/* Primary-input entry: any free wire the search can use inside the
 * bound quadrant — a passable cell's free column, or the sink pin
 * itself.  Cell-level vetoes are hoisted out of the column loop. */
static void push_entries(Frontier *fr, const Net *n, int allowed)
{
    const State *s = fr->s;
    int32_t net = (int32_t)n->net;
    int64_t er = n->er >= 0 ? n->er : fr->tr;
    int64_t ec = n->ec >= 0 ? n->ec : fr->tc;
    int64_t r_end = s->r1 < er + 1 ? s->r1 : er + 1;
    int64_t c_end = s->c1 < ec + 1 ? s->c1 : ec + 1;
    for (int64_t r = s->r0; r < r_end; r++) {
        for (int64_t c = s->c0; c < c_end; c++) {
            int64_t cell = r * s->cols + c;
            int is_target = r == fr->tr && c == fr->tc;
            int opaque = s->opaque[cell];
            if (opaque && !is_target)
                continue;
            int existing = thru_col_of(s, cell, net);
            int32_t n_pend = s->n_pend[cell];
            int veto_fresh = n_pend > 0 && !pending_has(s, cell, net)
                             && NI - s->n_assign[cell] <= n_pend;
            for (int64_t i = 0; i < NI; i++) {
                if (s->wire_net[wid(s, r, c, i)] != FREE)
                    continue;
                if (!n->multi && is_target && (allowed >> i & 1)) {
                    push(fr, r, c, i, 0.0, P_ENTRY, 0);
                    continue;
                }
                if (opaque)
                    continue;
                if (existing >= 0) {
                    if (i != existing)
                        continue;
                } else {
                    int32_t owner = s->col_net[cell * NI + i];
                    if (owner != FREE) {
                        if (owner != net)
                            continue;
                    } else if (veto_fresh) {
                        continue;
                    }
                }
                push(fr, r, c, i, 0.0, P_ENTRY, 0);
            }
        }
    }
}

/* The goal node of a least-cost path to (tr, tc) on an allowed column;
 * -1 when there is none, -2 when the frontier could not grow. */
static int64_t search(const State *s, Search *q, const Net *n, int64_t tr,
                      int64_t tc, int allowed, int64_t n_wires)
{
    int32_t net = (int32_t)n->net;
    Frontier fr = {s, q, {0, 0, 0}, tr, tc, ++q->gen[0], 0, 1};
    for (int64_t k = 0; k < n_wires; k++) {
        const int32_t *w = n->wires + 3 * k;
        push(&fr, w[0], w[1], w[2], 0.0, P_SEED, 0);
    }
    if (n->src_cell >= 0) {
        int64_t rows = free_rows(s, n->src_cell);
        int64_t sr = n->src_cell / s->cols, sc = n->src_cell % s->cols;
        for (int64_t row = 0; row < NI; row++) {
            if (!(rows >> row & 1))
                continue;
            /* Drive wires always exist: the cell is in the array. */
            if (s->wire_net[wid(s, sr, sc + 1, row)] == FREE)
                push(&fr, sr, sc + 1, row, 1.0, P_DRIVE, (int32_t)(row * 2));
            if (s->wire_net[wid(s, sr + 1, sc, row)] == FREE)
                push(&fr, sr + 1, sc, row, 1.0, P_DRIVE,
                     (int32_t)(row * 2 + 1));
        }
    } else if (n_wires == 0) {
        push_entries(&fr, n, allowed);
    }
    int64_t goal = -1;
    while (fr.ok && fr.heap.n) {
        Item it = heap_pop(&fr.heap);
        int64_t r, c, i;
        unwid(s, it.nid, &r, &c, &i);
        if (q->gcost[it.nid] + 1e-9 < it.f - (double)(tr - r) - (double)(tc - c))
            continue;               /* a stale entry */
        if (r == tr && c == tc && (allowed >> i & 1)) {
            goal = it.nid;
            break;
        }
        if (!passable(s, r, c, net, i))
            continue;
        int64_t cell = r * s->cols + c;
        int push_east = c + 1 <= tc, push_north = r + 1 <= tr;
        if (!(push_east || push_north))
            continue;
        double cost = q->gcost[it.nid] + hop_cost(s, cell, net);
        int64_t rows = thru_rows(s, cell);
        for (int64_t row = 0; row < NI; row++) {
            if (!(rows >> row & 1))
                continue;
            int64_t ends[2][2] = {{r, c + 1}, {r + 1, c}};
            for (int dir = 0; dir < 2; dir++) {
                if (!(dir ? push_north : push_east))
                    continue;
                int64_t wr = ends[dir][0], wc = ends[dir][1];
                int64_t w = wid(s, wr, wc, row);
                if (s->wire_net[w] != FREE)
                    continue;
                if (q->stamp[w] == fr.gen && q->gcost[w] <= cost)
                    continue;
                q->gcost[w] = cost;
                q->par[w] = (int32_t)it.nid;
                q->move[w] = (int32_t)(row * 2 + dir);
                q->stamp[w] = fr.gen;
                double f = cost + (double)(tr - wr) + (double)(tc - wc);
                fr.ok &= heap_push(&fr.heap, f, ++fr.tick, w);
            }
        }
    }
    free(fr.heap.items);
    return fr.ok ? goal : -2;
}

/* ---- one net's journal --------------------------------------------- */

static int put_op(Net *n, int code, const int64_t *v)
{
    int64_t at = n->io[1];
    if (at + OP_LEN[code] > n->op_cap)
        return 0;
    n->ops[at] = code;
    for (int k = 1; k < OP_LEN[code]; k++)
        n->ops[at + k] = (int32_t)v[k - 1];
    n->io[1] = at + OP_LEN[code];
    return 1;
}

static int put_wire(const State *s, Net *n, int64_t w)
{
    int64_t k = n->io[0];
    if (k >= n->wire_cap)
        return 0;
    int64_t r, c, i;
    unwid(s, w, &r, &c, &i);
    n->wires[3 * k] = (int32_t)r;
    n->wires[3 * k + 1] = (int32_t)c;
    n->wires[3 * k + 2] = (int32_t)i;
    n->io[0] = k + 1;
    return 1;
}

/* Claim the path ending at `goal`, root first, journaling each claim. */
static int commit(State *s, const Search *q, Net *n, int64_t goal)
{
    int32_t net = (int32_t)n->net;
    int64_t len = 0, node = goal;
    n->path[len++] = (int32_t)node;
    while (q->par[node] >= 0) {
        if (len == n->wire_cap)
            return 0;
        node = q->par[node];
        n->path[len++] = (int32_t)node;
    }
    while (len-- > 0) {
        node = n->path[len];
        int32_t par = q->par[node];
        int64_t r, c, i;
        unwid(s, node, &r, &c, &i);
        int64_t row = q->move[node] / 2, dir = q->move[node] % 2;
        if (par == P_SEED)
            continue;
        if (par == P_ENTRY) {
            int64_t v[] = {r, c, i};
            claim_wire(s, node, net, 0);
            n->io[2] = node;
            if (!put_op(n, OP_ENTRY, v) || !put_wire(s, n, node))
                return 0;
            continue;
        }
        if (par == P_DRIVE) {
            int64_t v[] = {r, c, i, n->src_cell / s->cols,
                           n->src_cell % s->cols, row, dir};
            add_gate_row(s, n->src_cell, row, dir);
            claim_wire(s, node, net, 0);
            if (!put_op(n, OP_DRIVE, v))
                return 0;
        } else {
            int64_t pr, pc, pi;
            unwid(s, par, &pr, &pc, &pi);
            int64_t cell = pr * s->cols + pc;
            int64_t v[] = {r, c, i, pr, pc, pi, row, dir};
            add_thru_row(s, cell, net, pi, row, dir);
            claim_wire(s, node, net, feed_depth(s, cell, pi, net));
            if (!put_op(n, OP_THRU, v))
                return 0;
        }
        if (!put_wire(s, n, node))
            return 0;
    }
    return 1;
}

/* The columns a sink may land on, in preference order: its pinned
 * column; else the columns the net already reads there, in claim
 * order; else the free columns. */
static int allowed_cols(const State *s, int64_t cell, int64_t pinned,
                        int32_t net, int64_t *out)
{
    if (pinned >= 0) {
        out[0] = pinned;
        return 1;
    }
    const int32_t *owner = s->col_net + cell * NI;
    const int64_t *seq = s->col_seq + cell * NI;
    int n = 0;
    for (int j = 0; j < NI; j++) {
        if (owner[j] != net)
            continue;
        int k = n++;
        while (k > 0 && seq[out[k - 1]] > seq[j]) {
            out[k] = out[k - 1];
            k--;
        }
        out[k] = j;
    }
    if (n)
        return n;
    for (int j = 0; j < NI; j++)
        if (owner[j] == FREE)
            out[n++] = j;
    return n;
}

/* A declared output whose tree drives no wire of its own: the source
 * gate drives one more row. */
static int64_t tap_source(State *s, Net *n)
{
    int64_t cell = n->src_cell, rows = free_rows(s, cell);
    int64_t sr = cell / s->cols, sc = cell % s->cols;
    for (int64_t row = 0; row < NI; row++) {
        if (!(rows >> row & 1))
            continue;
        for (int64_t dir = 0; dir < 2; dir++) {
            int64_t wr = dir ? sr + 1 : sr, wc = dir ? sc : sc + 1;
            int64_t w = wid(s, wr, wc, row);
            if (s->wire_net[w] != FREE)
                continue;
            int64_t v[] = {wr, wc, row, sr, sc, row, dir};
            add_gate_row(s, cell, row, dir);
            claim_wire(s, w, (int32_t)n->net, 0);
            if (!put_op(n, OP_DRIVE, v) || !put_wire(s, n, w))
                return FULL;
            return OK;
        }
    }
    return NO_TAP;
}

/* Route every sink of one net (see the file comment).  On failure the
 * claims stay in place until the caller's rollback. */
int64_t route_net(State *s, Search *q, Net *n)
{
    int32_t net = (int32_t)n->net;
    s->ctr[0] = 0;
    n->io[0] = n->io[1] = 0;
    n->io[2] = n->io[3] = -1;
    for (int64_t k = 0; k < n->n_sinks; k++) {
        int64_t cell = n->sinks[2 * k], pinned = n->sinks[2 * k + 1];
        int64_t tr = cell / s->cols, tc = cell % s->cols;
        int64_t *order = n->io + 5;
        int na = allowed_cols(s, cell, pinned, net, order);
        n->io[3] = k;
        n->io[4] = na;
        if (!na)
            return NO_COLUMN;
        /* Routing is monotone, so one sink's path claims at most
         * rows + cols + 1 wires, each logging at most 9 entries. */
        if (s->ctr[0] + 9 * (s->rows + s->cols + 2) > s->undo_cap)
            return FULL;
        int64_t col = -1;
        for (int j = 0; j < na; j++) {
            if (s->wire_net[wid(s, tr, tc, order[j])] == net) {
                col = order[j];
                break;
            }
        }
        if (col < 0) {
            int allowed = 0;
            for (int j = 0; j < na; j++)
                allowed |= 1 << order[j];
            int64_t goal = search(s, q, n, tr, tc, allowed, n->io[0]);
            if (goal == -1)
                return NO_PATH;
            if (goal < 0)
                return NO_MEMORY;
            if (!commit(s, q, n, goal))
                return FULL;
            col = goal % NI;
        }
        n->sink_col[k] = (int32_t)col;
        assign_col(s, cell, col, net);
        int64_t v[] = {tr, tc, col};
        if (!put_op(n, OP_COL, v))
            return FULL;
    }
    n->io[3] = -1;
    if (!n->is_output || n->io[0] > (n->io[2] >= 0))
        return OK;
    return n->src_cell >= 0 ? tap_source(s, n) : PI_TAP;
}

/* ---- journal replay ------------------------------------------------ */

static int in_array(const State *s, int64_t r, int64_t c)
{
    return 0 <= r && r < s->rows && 0 <= c && c < s->cols;
}

/* Apply one op; with `check`, only if the current occupancy allows it,
 * as the search that wrote it required.  0 when refused or malformed. */
static int apply_op(State *s, int32_t net, int code, const int32_t *v,
                    int check)
{
    if (s->ctr[0] + 9 > s->undo_cap)
        return 0;
    if (code == OP_COL) {
        if (!in_array(s, v[0], v[1]) || v[2] < 0 || v[2] >= NI)
            return 0;
        int64_t cell = v[0] * s->cols + v[1];
        int32_t owner = s->col_net[cell * NI + v[2]];
        if (check && owner != FREE && owner != net)
            return 0;
        assign_col(s, cell, v[2], net);
        return 1;
    }
    if (v[0] < 0 || v[0] > s->rows || v[1] < 0 || v[1] > s->cols
        || v[2] < 0 || v[2] >= NI)
        return 0;
    int64_t w = wid(s, v[0], v[1], v[2]);
    if (check && s->wire_net[w] != FREE)
        return 0;
    if (code == OP_ENTRY || code == OP_ENTRY_FRONT) {
        claim_wire(s, w, net, 0);
        return 1;
    }
    if (!in_array(s, v[3], v[4]))
        return 0;
    int64_t cell = v[3] * s->cols + v[4];
    if (code == OP_DRIVE) {
        int64_t row = v[5], dir = v[6];
        if (row < 0 || row >= NI || dir < 0 || dir > 1)
            return 0;
        if (check && !(free_rows(s, cell) >> row & 1))
            return 0;
        add_gate_row(s, cell, row, dir);
        claim_wire(s, w, net, 0);
        return 1;
    }
    int64_t in_col = v[5], row = v[6], dir = v[7];
    if (in_col < 0 || in_col >= NI || row < 0 || row >= NI || dir < 0
        || dir > 1)
        return 0;
    if (check && (!passable(s, v[3], v[4], net, in_col)
                  || !(thru_rows(s, cell) >> row & 1)))
        return 0;
    add_thru_row(s, cell, net, in_col, row, dir);
    claim_wire(s, w, net, feed_depth(s, cell, in_col, net));
    return 1;
}

/* Re-claim one journal of `n_ints` ints for `net`: 1 when every op
 * applied, else 0 with the net rolled back. */
static int replay(State *s, int32_t net, const int32_t *ops, int64_t n_ints)
{
    s->ctr[0] = 0;
    for (int64_t k = 0; k < n_ints;) {
        int32_t code = ops[k];
        if (code < OP_ENTRY || code > OP_COL || k + OP_LEN[code] > n_ints
            || !apply_op(s, net, code, ops + k + 1, 1)) {
            rollback(s);
            return 0;
        }
        k += OP_LEN[code];
    }
    return 1;
}

/* Replay the journals ops[offs[k]:offs[k + 1]] of nets[k], k < n, in
 * order: the number replayed before the first that collided (that one
 * is rolled back). */
int64_t replay_many(State *s, const int64_t *nets, const int64_t *offs,
                    const int32_t *ops, int64_t n)
{
    for (int64_t k = 0; k < n; k++)
        if (!replay(s, (int32_t)nets[k], ops + offs[k], offs[k + 1] - offs[k]))
            return k;
    return n;
}

/* Apply one op (code first) unchecked; 0 when malformed. */
int64_t apply(State *s, int64_t net, const int32_t *op)
{
    if (op[0] < OP_ENTRY || op[0] > OP_COL)
        return 0;
    return apply_op(s, (int32_t)net, op[0], op + 1, 0);
}

/* ---- emission ------------------------------------------------------ */

/* One emit pass: the single-cell gates, the digit block and where each
 * cell's 64 digits sit in it.  Digit values and offsets come from the
 * caller, which owns the frame layout. */
typedef struct {
    int64_t n_gates;
    int32_t *gate_cell;             /* per gate: its cell id */
    int32_t *inputs;                /* per gate: 6 input nets, -2 padded */
    uint8_t *mode;                  /* per gate: driver mode digit */
    uint8_t *is_const;              /* per gate: a constant-1 row */
    int32_t *where;                 /* per cell: its block row, or -1 */
    uint8_t *block;                 /* 64 digits per block row */
    int64_t active, tied, cut;      /* crosspoint digits: read a column,
                                       ignore it (ON), break the row */
    int64_t drv_off, drv_inv, off_driver, off_direction;
    int64_t *err;                   /* out: [gate or cell, pin or row] */
} Emit;

enum { EMIT_OK, NO_OUTPUT, UNROUTED_INPUT, CLASH };

static void write_row(const Emit *e, uint8_t *d, int64_t row,
                      const uint8_t *xp, int64_t mode, int64_t dir)
{
    for (int j = 0; j < NI; j++)
        d[row * NI + j] = xp[j];
    d[e->off_driver + row] = (uint8_t)mode;
    d[e->off_direction + row] = (uint8_t)dir;
}

/* A product reads the first column the router claimed for each of the
 * gate's input nets; every committed fan-out row repeats it. */
int64_t emit(const State *s, const Emit *e)
{
    for (int64_t g = 0; g < e->n_gates; g++) {
        int64_t cell = e->gate_cell[g];
        const int32_t *dirs = s->gate_dir + cell * NI;
        int any = 0;
        for (int row = 0; row < NI; row++)
            any |= dirs[row] >= 0;
        e->err[0] = g;
        if (!any)
            return NO_OUTPUT;
        uint8_t xp[NI];
        for (int j = 0; j < NI; j++)
            xp[j] = (uint8_t)(e->is_const[g] ? e->cut : e->tied);
        for (int pin = 0; pin < NI && !e->is_const[g]; pin++) {
            int32_t net = e->inputs[g * NI + pin];
            if (net < 0)
                continue;
            int col = -1;
            for (int j = 0; j < NI; j++)
                if (s->col_net[cell * NI + j] == net
                    && (col < 0 || s->col_seq[cell * NI + j]
                                   < s->col_seq[cell * NI + col]))
                    col = j;
            e->err[1] = pin;
            if (col < 0)
                return UNROUTED_INPUT;
            xp[col] = (uint8_t)e->active;
        }
        uint8_t *d = e->block + 64 * e->where[cell];
        for (int row = 0; row < NI; row++)
            if (dirs[row] >= 0)
                write_row(e, d, row, xp, e->mode[g], dirs[row]);
    }
    for (int64_t cell = 0; cell < s->rows * s->cols; cell++) {
        for (int row = 0; row < NI; row++) {
            int32_t dir = s->thru_dir[cell * NI + row];
            if (dir < 0)
                continue;
            uint8_t *d = e->block + 64 * e->where[cell];
            e->err[0] = cell;
            e->err[1] = row;
            if (d[e->off_driver + row] != e->drv_off)
                return CLASH;
            /* A single-input NAND plus INVERT: a buffer. */
            uint8_t xp[NI];
            for (int j = 0; j < NI; j++)
                xp[j] = (uint8_t)(j == s->thru_in[cell * NI + row]
                                  ? e->active : e->tied);
            write_row(e, d, row, xp, e->drv_inv, dir);
        }
    }
    return EMIT_OK;
}
