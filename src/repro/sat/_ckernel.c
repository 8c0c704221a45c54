/* Compiled CDCL kernel behind repro.sat.solver.CKernelSolver.
 *
 * This is a line-for-line twin of the pure-Python PySolver: same literal
 * encoding (2*var positive, 2*var+1 negative), same two-watched-literal
 * propagation with dedicated binary watch lists, same first-UIP analysis,
 * same VSIDS activities and Luby restarts, same LBD-based learned-clause
 * reduction with lazy watcher cleanup.  Being a twin is a hard contract:
 * kernel-on and kernel-off runs must make the *same decisions in the same
 * order* so engine-level fingerprints match bit-for-bit.  That pins three
 * things most C ports would treat as free choices:
 *
 *  1. The branching order is the multiset of `(-activity, var)` tuples
 *     that the spec's heapq holds, stale entries included, compared like
 *     Python tuples (key first, variable index as the tie-break).  Branch
 *     picking only ever reads the minimum of that multiset, so identical
 *     tuples share one counted item and the heap's shape is free: the
 *     kernel keeps a 4-ary heap that decides exactly like the spec.
 *  2. All activity arithmetic is IEEE-754 double precision in the same
 *     operation order as the Python code (growth by multiplying with
 *     1.0/0.95 resp. 1.0/0.999, rescales at >1e100 / >1e20), so activity
 *     ties and rescale points are bit-identical.
 *  3. Budget, deadline and restart checks sit at the same program points,
 *     so an interrupted search stops after the same conflict.
 *
 * The Python boundary is coarse: one add_clauses call ingests a whole CNF
 * (literal validation, tautology and duplicate elimination, num_vars growth
 * and the level-0 tail of PySolver.add_clause all happen here, with the
 * reference's exception types and messages), and one solve call takes
 * DIMACS assumptions and returns the model as bytes indexed by variable.
 * A real repro.utils.timer.Deadline is read once per solve and then checked
 * against CLOCK_MONOTONIC, the clock behind time.perf_counter; any other
 * deadline object keeps the per-check `.expired` read.  Proof logging never
 * reaches this module: the factory routes proof-logging solvers to pure
 * Python.
 *
 * NOTE: this file is a C source, outside `step lint` scope (the analyzer
 * covers Python only; see docs/analysis.md).  Determinism is enforced by
 * tests/test_kernel_differential.py instead.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <sys/mman.h>
#endif

#define VAL_TRUE 1
#define VAL_FALSE 0
#define VAL_UNASSIGNED (-1)

#define GLUE_LBD 2
#define REDUCE_BASE 4000

/* Largest variable index: keeps 2*var+1 and the doubled capacities in
 * int32 range. */
#define MAX_VAR (1 << 29)

/* repro.errors.SolverError and repro.utils.timer.Deadline, imported once
 * at module initialisation. */
static PyObject *SolverError = NULL;
static PyObject *DeadlineType = NULL;

/* ------------------------------------------------------------- clauses */

typedef struct Clause {
    int32_t size;
    uint8_t learned;
    uint8_t deleted; /* reduced away; watcher lists shed it lazily */
    uint8_t locked;  /* scratch flag used by reduce_db */
    int32_t lbd;
    int32_t refs; /* live watcher-list references (long clauses only) */
    double activity;
    int32_t lits[1]; /* flexible array (C89-compatible spelling) */
} Clause;

static Clause *
clause_new(const int32_t *lits, int32_t size, int learned)
{
    Clause *c = (Clause *)malloc(sizeof(Clause) + (size_t)(size > 0 ? size - 1 : 0) * sizeof(int32_t));
    if (c == NULL)
        return NULL;
    c->size = size;
    c->learned = (uint8_t)learned;
    c->deleted = 0;
    c->locked = 0;
    c->lbd = 0;
    c->refs = 0;
    c->activity = 0.0;
    if (size > 0)
        memcpy(c->lits, lits, (size_t)size * sizeof(int32_t));
    return c;
}

/* ------------------------------------------------------------- vectors */

typedef struct {
    Clause **data;
    Py_ssize_t size, cap;
} ClauseVec;

typedef struct {
    int32_t other;
    Clause *clause;
} BinWatch;

typedef struct {
    BinWatch *data;
    Py_ssize_t size, cap;
} BinVec;

typedef struct {
    int32_t *data;
    Py_ssize_t size, cap;
} IntVec;

/* `count` copies of the tuple (key, var) in the spec's heapq. */
typedef struct {
    double key;
    int32_t var;
    int32_t count;
} HeapItem;

static int
clausevec_push(ClauseVec *v, Clause *c)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 8;
        Clause **data = (Clause **)realloc(v->data, (size_t)cap * sizeof(Clause *));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = c;
    return 0;
}

static int
binvec_push(BinVec *v, int32_t other, Clause *c)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 4;
        BinWatch *data = (BinWatch *)realloc(v->data, (size_t)cap * sizeof(BinWatch));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size].other = other;
    v->data[v->size].clause = c;
    v->size++;
    return 0;
}

static int
intvec_push(IntVec *v, int32_t value)
{
    if (v->size == v->cap) {
        Py_ssize_t cap = v->cap ? v->cap * 2 : 16;
        int32_t *data = (int32_t *)realloc(v->data, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = value;
    return 0;
}

/* ------------------------------------------------------------ the type */

typedef struct {
    PyObject_HEAD
    int32_t num_vars;
    int32_t cap_vars; /* per-var arrays are sized cap_vars + 1 */
    int8_t *assigns;  /* indexed by var; VAL_* */
    int32_t *level;
    Clause **reason;
    int8_t *phase;
    int8_t *seen;
    double *activity;
    int32_t *lbd_mark;   /* per-level stamp used to count distinct levels */
    int32_t *visit_mark; /* per-var stamp used by analyze_final */
    int8_t *assume_mark; /* per-ilit flags used by analyze_final */
    int32_t *lit_mark;   /* per-ilit stamp used by clause ingest */
    int32_t stamp;

    ClauseVec *watches; /* per-ilit long-clause watcher lists */
    BinVec *bin_watches;

    int32_t *trail;
    Py_ssize_t trail_size, trail_cap;
    int32_t *trail_lim;
    Py_ssize_t trail_lim_size, trail_lim_cap;
    Py_ssize_t qhead;

    HeapItem *heap;
    Py_ssize_t heap_size, heap_cap;
    Py_ssize_t *heap_pos; /* per var: slot of its tracked item, or -1 */

    double var_inc, var_inc_growth;
    double cla_inc, cla_inc_growth;

    ClauseVec clauses; /* ownership list of original clauses */
    ClauseVec learnts;

    IntVec learned_buf; /* scratch for analyze */
    IntVec clause_buf;  /* scratch for clause ingest */

    int ok;
    int64_t reduce_base;
    int64_t conflicts, decisions, propagations;
    int64_t next_cid;
} CSolver;

/* --------------------------------------------------- small inline helpers */

static inline int
lit_value(CSolver *s, int32_t ilit)
{
    int8_t a = s->assigns[ilit >> 1];
    if (a < 0)
        return VAL_UNASSIGNED;
    return a ^ (ilit & 1);
}

static inline Py_ssize_t
decision_level(CSolver *s)
{
    return s->trail_lim_size;
}

static int
trail_push(CSolver *s, int32_t ilit)
{
    if (s->trail_size == s->trail_cap) {
        Py_ssize_t cap = s->trail_cap ? s->trail_cap * 2 : 64;
        int32_t *data = (int32_t *)realloc(s->trail, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        s->trail = data;
        s->trail_cap = cap;
    }
    s->trail[s->trail_size++] = ilit;
    return 0;
}

static int
trail_lim_push(CSolver *s, int32_t boundary)
{
    if (s->trail_lim_size == s->trail_lim_cap) {
        Py_ssize_t cap = s->trail_lim_cap ? s->trail_lim_cap * 2 : 16;
        int32_t *data = (int32_t *)realloc(s->trail_lim, (size_t)cap * sizeof(int32_t));
        if (data == NULL)
            return -1;
        s->trail_lim = data;
        s->trail_lim_cap = cap;
    }
    s->trail_lim[s->trail_lim_size++] = boundary;
    return 0;
}

/* ------------------------------------------------------ VSIDS order heap
 *
 * PySolver keeps a heapq of (-activity, var) tuples: every push appends a
 * tuple, stale ones included, and branch picking pops the minimum until an
 * unassigned variable comes up.  Only the minimum is ever read, so the
 * kernel keeps the same multiset with one counted item per run of
 * identical tuples, in a 4-ary min-heap ordered like Python tuples: key
 * first, var breaks ties.  Keys compare with `==`, so 0.0 and -0.0 are one
 * key, as they are one tuple to Python.
 *
 * heap_pos[var] is the slot of the item holding var's most recently pushed
 * key, or -1 once that item is gone.  A push with an equal key adds to its
 * count; any other push inserts a new item that becomes the tracked one.
 * The older item keeps its (now stale) key and is no longer tracked.
 */

#define HEAP_ARITY 4

static inline int
heap_lt(HeapItem a, HeapItem b)
{
    if (a.key < b.key)
        return 1;
    if (a.key == b.key)
        return a.var < b.var;
    return 0;
}

/* Store item at pos; a tracked item takes its slot along. */
static inline void
heap_put(CSolver *s, Py_ssize_t pos, HeapItem item, int tracked)
{
    s->heap[pos] = item;
    if (tracked)
        s->heap_pos[item.var] = pos;
}

/* Move the item at slot from to slot to. */
static inline void
heap_move(CSolver *s, Py_ssize_t from, Py_ssize_t to)
{
    HeapItem item = s->heap[from];
    heap_put(s, to, item, s->heap_pos[item.var] == from);
}

/* Fill the hole at pos with item, sifting it towards the root. */
static void
heap_sift_up(CSolver *s, Py_ssize_t pos, HeapItem item, int tracked)
{
    while (pos > 0) {
        Py_ssize_t parentpos = (pos - 1) / HEAP_ARITY;
        if (!heap_lt(item, s->heap[parentpos]))
            break;
        heap_move(s, parentpos, pos);
        pos = parentpos;
    }
    heap_put(s, pos, item, tracked);
}

/* Stale items stay until they reach the top, as in the spec, so a
 * long-lived incremental solver's heap can reach MiBs.  On Linux, arrays
 * of HEAP_MAP_BYTES and more get a mapping of their own and grow by
 * mremap: a realloc inside the malloc arena would copy the array
 * and keep the old copy resident, and glibc places large blocks there once
 * its dynamic mmap threshold has risen. */
#if defined(__linux__) && defined(MREMAP_MAYMOVE)
#define HEAP_MAP_BYTES ((size_t)1 << 20)
#endif

static int
heap_grow(CSolver *s)
{
    Py_ssize_t cap = s->heap_cap ? s->heap_cap * 2 : 64;
    size_t new_bytes = (size_t)cap * sizeof(HeapItem);
    void *data;
#ifdef HEAP_MAP_BYTES
    size_t old_bytes = (size_t)s->heap_cap * sizeof(HeapItem);
    if (new_bytes >= HEAP_MAP_BYTES) {
        if (old_bytes >= HEAP_MAP_BYTES) {
            data = mremap(s->heap, old_bytes, new_bytes, MREMAP_MAYMOVE);
        }
        else {
            data = mmap(NULL, new_bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (data != MAP_FAILED) {
                memcpy(data, s->heap, old_bytes);
                free(s->heap);
            }
        }
        if (data == MAP_FAILED)
            return -1;
    }
    else
#endif
    {
        data = realloc(s->heap, new_bytes);
        if (data == NULL)
            return -1;
    }
    s->heap = (HeapItem *)data;
    s->heap_cap = cap;
    return 0;
}

static void
heap_free(CSolver *s)
{
#ifdef HEAP_MAP_BYTES
    size_t bytes = (size_t)s->heap_cap * sizeof(HeapItem);
    if (bytes >= HEAP_MAP_BYTES) {
        munmap(s->heap, bytes);
        return;
    }
#endif
    free(s->heap);
}

static int
heap_push(CSolver *s, double key, int32_t var)
{
    /* heapq.heappush((key, var)) */
    Py_ssize_t pos = s->heap_pos[var];
    if (pos >= 0 && s->heap[pos].key == key && s->heap[pos].count < INT32_MAX) {
        s->heap[pos].count++;
        return 0;
    }
    if (s->heap_size == s->heap_cap && heap_grow(s) < 0)
        return -1;
    HeapItem item;
    item.key = key;
    item.var = var;
    item.count = 1;
    heap_sift_up(s, s->heap_size++, item, 1);
    return 0;
}

/* Remove the top item with all its copies. */
static void
heap_remove_top(CSolver *s)
{
    Py_ssize_t end = --s->heap_size;
    if (s->heap_pos[s->heap[0].var] == 0)
        s->heap_pos[s->heap[0].var] = -1;
    if (end == 0)
        return;
    HeapItem item = s->heap[end];
    int tracked = s->heap_pos[item.var] == end;
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = HEAP_ARITY * pos + 1;
        if (child >= end)
            break;
        Py_ssize_t last = child + HEAP_ARITY < end ? child + HEAP_ARITY : end;
        Py_ssize_t best = child;
        for (Py_ssize_t c = child + 1; c < last; c++) {
            if (heap_lt(s->heap[c], s->heap[best]))
                best = c;
        }
        if (!heap_lt(s->heap[best], item))
            break;
        heap_move(s, best, pos);
        pos = best;
    }
    heap_put(s, pos, item, tracked);
}

/* -------------------------------------------------------------- growth */

static int
cs_ensure_vars(CSolver *s, int32_t want)
{
    if (want <= s->num_vars)
        return 0;
    if (want > s->cap_vars) {
        int32_t cap = s->cap_vars ? s->cap_vars : 16;
        while (cap < want)
            cap *= 2;
        size_t nvars = (size_t)cap + 1;
        size_t nlits = 2 * nvars;
#define GROW(field, type, count)                                            \
    do {                                                                    \
        type *p = (type *)realloc(s->field, (count) * sizeof(type));        \
        if (p == NULL)                                                      \
            return -1;                                                      \
        s->field = p;                                                       \
    } while (0)
        GROW(assigns, int8_t, nvars);
        GROW(level, int32_t, nvars);
        GROW(reason, Clause *, nvars);
        GROW(phase, int8_t, nvars);
        GROW(seen, int8_t, nvars);
        GROW(activity, double, nvars);
        GROW(lbd_mark, int32_t, nvars);
        GROW(visit_mark, int32_t, nvars);
        GROW(heap_pos, Py_ssize_t, nvars);
        GROW(assume_mark, int8_t, nlits);
        GROW(lit_mark, int32_t, nlits);
        GROW(watches, ClauseVec, nlits);
        GROW(bin_watches, BinVec, nlits);
#undef GROW
        /* Zero the newly exposed range. */
        size_t old_vars = (size_t)s->cap_vars + (s->cap_vars ? 1 : 0);
        size_t old_lits = 2 * old_vars;
        memset(s->assigns + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->level + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->reason + old_vars, 0, (nvars - old_vars) * sizeof(Clause *));
        memset(s->phase + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->seen + old_vars, 0, (nvars - old_vars) * sizeof(int8_t));
        memset(s->activity + old_vars, 0, (nvars - old_vars) * sizeof(double));
        memset(s->lbd_mark + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->visit_mark + old_vars, 0, (nvars - old_vars) * sizeof(int32_t));
        memset(s->assume_mark + old_lits, 0, (nlits - old_lits) * sizeof(int8_t));
        memset(s->lit_mark + old_lits, 0, (nlits - old_lits) * sizeof(int32_t));
        memset(s->watches + old_lits, 0, (nlits - old_lits) * sizeof(ClauseVec));
        memset(s->bin_watches + old_lits, 0, (nlits - old_lits) * sizeof(BinVec));
        s->cap_vars = cap;
    }
    for (int32_t var = s->num_vars + 1; var <= want; var++) {
        s->assigns[var] = VAL_UNASSIGNED;
        s->level[var] = 0;
        s->reason[var] = NULL;
        s->phase[var] = 0;
        s->seen[var] = 0;
        s->activity[var] = 0.0;
        s->heap_pos[var] = -1;
        if (heap_push(s, 0.0, var) < 0)
            return -1;
    }
    s->num_vars = want;
    return 0;
}

/* --------------------------------------------------------------- search */

static int
cs_enqueue(CSolver *s, int32_t ilit, Clause *reason)
{
    /* Mirrors PySolver._enqueue: a no-op when the literal is assigned. */
    if (s->assigns[ilit >> 1] >= 0)
        return 0;
    int32_t var = ilit >> 1;
    s->assigns[var] = (int8_t)(1 ^ (ilit & 1));
    s->level[var] = (int32_t)decision_level(s);
    s->reason[var] = reason;
    s->phase[var] = (int8_t)(!(ilit & 1));
    return trail_push(s, ilit);
}

/* -1 when a heap push ran out of memory; the trail is unwound either way. */
static int
cs_cancel_until(CSolver *s, Py_ssize_t level)
{
    if (s->trail_lim_size <= level)
        return 0;
    int rc = 0;
    Py_ssize_t boundary = s->trail_lim[level];
    for (Py_ssize_t t = s->trail_size - 1; t >= boundary; t--) {
        int32_t var = s->trail[t] >> 1;
        s->assigns[var] = VAL_UNASSIGNED;
        s->reason[var] = NULL;
        if (heap_push(s, -s->activity[var], var) < 0)
            rc = -1;
    }
    s->trail_size = boundary;
    s->trail_lim_size = level;
    s->qhead = s->trail_size;
    return rc;
}

static int
cs_attach(CSolver *s, Clause *c)
{
    int32_t *lits = c->lits;
    if (c->size == 2) {
        if (binvec_push(&s->bin_watches[lits[0] ^ 1], lits[1], c) < 0)
            return -1;
        return binvec_push(&s->bin_watches[lits[1] ^ 1], lits[0], c);
    }
    if (clausevec_push(&s->watches[lits[0] ^ 1], c) < 0)
        return -1;
    if (clausevec_push(&s->watches[lits[1] ^ 1], c) < 0)
        return -1;
    c->refs = 2;
    return 0;
}

static Clause *
cs_propagate(CSolver *s)
{
    Py_ssize_t qhead = s->qhead;
    if (qhead == s->trail_size)
        return NULL;
    int32_t level = (int32_t)s->trail_lim_size;
    int64_t propagated = 0;
    Clause *conflict = NULL;
    while (conflict == NULL && qhead < s->trail_size) {
        int32_t ilit = s->trail[qhead++];

        /* Binary clauses: the other literal is unit unless already true. */
        BinVec *bw = &s->bin_watches[ilit];
        for (Py_ssize_t bi = 0; bi < bw->size; bi++) {
            int32_t other = bw->data[bi].other;
            int8_t oval = s->assigns[other >> 1];
            if (oval < 0) {
                int32_t var = other >> 1;
                s->assigns[var] = (int8_t)(1 ^ (other & 1));
                s->level[var] = level;
                s->reason[var] = bw->data[bi].clause;
                s->phase[var] = (int8_t)(!(other & 1));
                if (trail_push(s, other) < 0) {
                    PyErr_NoMemory();
                    return NULL;
                }
                propagated++;
            }
            else if (oval == (int8_t)(other & 1)) {
                conflict = bw->data[bi].clause;
                qhead = s->trail_size;
                break;
            }
        }
        if (conflict != NULL)
            break;

        ClauseVec *wl = &s->watches[ilit];
        int32_t false_lit = ilit ^ 1;
        Py_ssize_t i = 0, j = 0;
        Py_ssize_t count = wl->size;
        while (i < count) {
            Clause *c = wl->data[i++];
            if (c->deleted) {
                /* Lazy watcher cleanup: reduced-away clauses are dropped
                 * here instead of by an eager sweep at reduction time. */
                if (--c->refs == 0)
                    free(c);
                continue;
            }
            int32_t *lits = c->lits;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int32_t first = lits[0];
            int8_t first_val = s->assigns[first >> 1];
            if ((int)first_val == (1 ^ (first & 1))) {
                wl->data[j++] = c;
                continue;
            }
            int32_t size = c->size;
            int moved = 0;
            for (int32_t k = 2; k < size; k++) {
                int32_t other = lits[k];
                if ((int)s->assigns[other >> 1] != (other & 1)) {
                    /* Not false: move the watch to this literal. */
                    lits[1] = other;
                    lits[k] = false_lit;
                    if (clausevec_push(&s->watches[other ^ 1], c) < 0) {
                        PyErr_NoMemory();
                        return NULL;
                    }
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            wl->data[j++] = c;
            if ((int)first_val == (first & 1)) {
                /* Every literal false: conflict. */
                while (i < count)
                    wl->data[j++] = wl->data[i++];
                conflict = c;
                qhead = s->trail_size;
                break;
            }
            int32_t var = first >> 1;
            s->assigns[var] = (int8_t)(1 ^ (first & 1));
            s->level[var] = level;
            s->reason[var] = c;
            s->phase[var] = (int8_t)(!(first & 1));
            if (trail_push(s, first) < 0) {
                PyErr_NoMemory();
                return NULL;
            }
            propagated++;
        }
        wl->size = j;
    }
    s->qhead = qhead;
    s->propagations += propagated;
    return conflict;
}

static int
cs_bump_var(CSolver *s, int32_t var)
{
    s->activity[var] += s->var_inc;
    if (s->activity[var] > 1e100) {
        for (int32_t v = 1; v <= s->num_vars; v++)
            s->activity[v] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    /* Assigned variables are pushed by cancel_until when they become
     * selectable again; pushing here would only add stale entries. */
    if (s->assigns[var] < 0)
        return heap_push(s, -s->activity[var], var);
    return 0;
}

static void
cs_bump_clause(CSolver *s, Clause *c)
{
    c->activity += s->cla_inc;
    if (c->activity > 1e20) {
        for (Py_ssize_t i = 0; i < s->learnts.size; i++)
            s->learnts.data[i]->activity *= 1e-20;
        s->cla_inc *= 1e-20;
    }
}

static int
cs_analyze(CSolver *s, Clause *conflict, int32_t *out_bt, int32_t *out_lbd)
{
    /* First-UIP conflict analysis; the learned clause lands in
     * s->learned_buf with the asserting literal first.  The LBD is counted
     * here, before backtracking, while the literals' levels are live. */
    IntVec *learned = &s->learned_buf;
    learned->size = 0;
    if (intvec_push(learned, 0) < 0)
        return -1;
    int32_t counter = 0;
    int32_t resolved_lit = -1; /* internal literals are >= 2 */
    Clause *clause = conflict;
    Py_ssize_t index = s->trail_size - 1;
    int32_t dlevel = (int32_t)s->trail_lim_size;

    for (;;) {
        if (clause->learned)
            cs_bump_clause(s, clause);
        int32_t csize = clause->size;
        for (int32_t k = 0; k < csize; k++) {
            int32_t lit = clause->lits[k];
            if (lit == resolved_lit)
                continue;
            int32_t var = lit >> 1;
            if (s->seen[var])
                continue;
            int8_t a = s->assigns[var];
            if (a >= 0 && (a ^ (lit & 1)) == VAL_TRUE)
                continue;
            if (s->level[var] == 0)
                continue;
            s->seen[var] = 1;
            if (cs_bump_var(s, var) < 0)
                goto oom;
            if (s->level[var] >= dlevel)
                counter++;
            else if (intvec_push(learned, lit) < 0)
                goto oom;
        }
        while (!s->seen[s->trail[index] >> 1])
            index--;
        resolved_lit = s->trail[index];
        index--;
        int32_t var = resolved_lit >> 1;
        s->seen[var] = 0;
        counter--;
        if (counter == 0) {
            learned->data[0] = resolved_lit ^ 1;
            break;
        }
        clause = s->reason[var];
    }

    for (Py_ssize_t k = 1; k < learned->size; k++)
        s->seen[learned->data[k] >> 1] = 0;

    if (learned->size == 1) {
        *out_bt = 0;
    }
    else {
        Py_ssize_t max_i = 1;
        for (Py_ssize_t i = 2; i < learned->size; i++) {
            if (s->level[learned->data[i] >> 1] > s->level[learned->data[max_i] >> 1])
                max_i = i;
        }
        int32_t tmp = learned->data[1];
        learned->data[1] = learned->data[max_i];
        learned->data[max_i] = tmp;
        *out_bt = s->level[learned->data[1] >> 1];
    }

    s->stamp++;
    int32_t lbd = 0;
    for (Py_ssize_t k = 0; k < learned->size; k++) {
        int32_t lvl = s->level[learned->data[k] >> 1];
        if (s->lbd_mark[lvl] != s->stamp) {
            s->lbd_mark[lvl] = s->stamp;
            lbd++;
        }
    }
    *out_lbd = lbd;
    return 0;

oom:
    /* Leave no marks behind for the next analysis. */
    memset(s->seen, 0, (size_t)s->num_vars + 1);
    return -1;
}

static int
cs_record_learned(CSolver *s, int32_t lbd)
{
    IntVec *learned = &s->learned_buf;
    Clause *c = clause_new(learned->data, (int32_t)learned->size, 1);
    if (c == NULL)
        return -1;
    c->lbd = lbd;
    if (learned->size == 1) {
        if (clausevec_push(&s->learnts, c) < 0)
            return -1;
        return cs_enqueue(s, learned->data[0], c);
    }
    if (cs_attach(s, c) < 0)
        return -1;
    if (clausevec_push(&s->learnts, c) < 0)
        return -1;
    cs_bump_clause(s, c);
    return cs_enqueue(s, learned->data[0], c);
}

/* Stable worst-first order for reduce_db: higher LBD first, then lower
 * activity, ties keep insertion order — the same ordering as the Python
 * list.sort(key=lambda c: (-c.lbd, c.activity)).  Bottom-up mergesort with
 * an auxiliary buffer (qsort is not stable). */
static inline int
reduce_before(const Clause *a, const Clause *b)
{
    if (a->lbd != b->lbd)
        return a->lbd > b->lbd;
    return a->activity < b->activity;
}

static int
stable_sort_clauses(Clause **data, Py_ssize_t n)
{
    if (n < 2)
        return 0;
    Clause **aux = (Clause **)malloc((size_t)n * sizeof(Clause *));
    if (aux == NULL)
        return -1;
    Clause **src = data, **dst = aux;
    for (Py_ssize_t width = 1; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            Py_ssize_t mid = lo + width < n ? lo + width : n;
            Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            Py_ssize_t a = lo, b = mid, out = lo;
            while (a < mid && b < hi) {
                /* take left unless right is strictly before it (stable) */
                if (reduce_before(src[b], src[a]))
                    dst[out++] = src[b++];
                else
                    dst[out++] = src[a++];
            }
            while (a < mid)
                dst[out++] = src[a++];
            while (b < hi)
                dst[out++] = src[b++];
        }
        Clause **tmp = src;
        src = dst;
        dst = tmp;
    }
    if (src != data)
        memcpy(data, src, (size_t)n * sizeof(Clause *));
    free(aux);
    return 0;
}

static int
cs_reduce_db(CSolver *s)
{
    for (int32_t var = 1; var <= s->num_vars; var++) {
        Clause *r = s->reason[var];
        if (r != NULL && r->learned)
            r->locked = 1;
    }
    if (stable_sort_clauses(s->learnts.data, s->learnts.size) < 0)
        return -1;
    Py_ssize_t half = s->learnts.size / 2;
    Py_ssize_t j = 0;
    for (Py_ssize_t i = 0; i < s->learnts.size; i++) {
        Clause *c = s->learnts.data[i];
        if (i < half && c->lbd > GLUE_LBD && !c->locked && c->size > 2)
            c->deleted = 1; /* reaped lazily by cs_propagate */
        else
            s->learnts.data[j++] = c;
    }
    s->learnts.size = j;
    for (int32_t var = 1; var <= s->num_vars; var++) {
        Clause *r = s->reason[var];
        if (r != NULL && r->learned)
            r->locked = 0;
    }
    return 0;
}

static int32_t
cs_pick_branch(CSolver *s)
{
    while (s->heap_size > 0) {
        /* The spec pops one copy of an unassigned top; an assigned top's
         * copies all come off in consecutive pops. */
        HeapItem *top = &s->heap[0];
        int32_t var = top->var;
        if (s->assigns[var] < 0) {
            if (--top->count == 0)
                heap_remove_top(s);
            return 2 * var + (s->phase[var] ? 0 : 1);
        }
        heap_remove_top(s);
    }
    for (int32_t var = 1; var <= s->num_vars; var++) {
        if (s->assigns[var] < 0)
            return 2 * var + (s->phase[var] ? 0 : 1);
    }
    return -1;
}

static int64_t
luby(int64_t index)
{
    int64_t size = 1;
    int64_t level = 0;
    while (size < index + 1) {
        level += 1;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        level -= 1;
        index %= size;
    }
    return (int64_t)1 << level;
}

static int
cs_analyze_final(CSolver *s, int32_t failed, const int32_t *assumptions,
                 Py_ssize_t n_assumptions, IntVec *core)
{
    /* Failed-assumption core as external literals, deduplicated in order
     * (PySolver applies dict.fromkeys): assume_mark bit 1 flags the
     * assumptions, bit 2 the literals already in the core. */
    for (Py_ssize_t k = 0; k < n_assumptions; k++)
        s->assume_mark[assumptions[k]] = 1;
    int rc = 0;
    IntVec stack = {NULL, 0, 0};
    int32_t var = failed >> 1;
    int32_t ext = (failed & 1) ? -var : var;
    s->assume_mark[failed] |= 2;
    if (intvec_push(core, ext) < 0 || intvec_push(&stack, failed ^ 1) < 0)
        rc = -1;
    s->stamp++;
    while (rc == 0 && stack.size > 0) {
        int32_t lit = stack.data[--stack.size];
        var = lit >> 1;
        if (s->visit_mark[var] == s->stamp)
            continue;
        s->visit_mark[var] = s->stamp;
        if (s->level[var] == 0)
            continue;
        Clause *reason = s->reason[var];
        int8_t a = s->assigns[var];
        int32_t true_lit = (a >= 0 && (a ^ (lit & 1)) == VAL_TRUE) ? lit : (lit ^ 1);
        if (reason == NULL) {
            if (s->assume_mark[true_lit] == 1) {
                s->assume_mark[true_lit] |= 2;
                var = true_lit >> 1;
                ext = (true_lit & 1) ? -var : var;
                if (intvec_push(core, ext) < 0)
                    rc = -1;
            }
            continue;
        }
        for (int32_t k = 0; k < reason->size; k++) {
            int32_t other = reason->lits[k];
            if ((other >> 1) != (lit >> 1)) {
                if (intvec_push(&stack, other) < 0) {
                    rc = -1;
                    break;
                }
            }
        }
    }
    free(stack.data);
    for (Py_ssize_t k = 0; k < n_assumptions; k++)
        s->assume_mark[assumptions[k]] = 0;
    return rc;
}

/* --------------------------------------------------------------- deadlines
 *
 * The pure solver reads Deadline.expired at fixed program points.  For a
 * real repro.utils.timer.Deadline that property is
 * `(time.perf_counter() - _start) >= budget`, so the kernel reads budget
 * and _start once per solve and evaluates the same comparison in C.
 * perf_counter_seconds() reproduces time.perf_counter() on Linux bit for
 * bit: CLOCK_MONOTONIC as integer nanoseconds, then CPython's
 * _PyTime_AsSecondsDouble conversion.  Any other object (a subclass, a
 * test double), and every deadline on platforms where perf_counter reads
 * another clock, keeps the per-point `.expired` read.
 */

#ifdef __linux__
#define KERNEL_CLOCK
#endif

enum { DEADLINE_NONE, DEADLINE_CLOCK, DEADLINE_OBJECT };

typedef struct {
    int mode;
    double start, budget;
    PyObject *obj; /* borrowed; DEADLINE_OBJECT only */
} DeadlineCheck;

#ifdef KERNEL_CLOCK
static double
perf_counter_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    int64_t ns = (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
    volatile double d; /* same rounding as CPython's conversion */
    if (ns % 1000000000 == 0) {
        d = (double)(ns / 1000000000);
    }
    else {
        d = (double)ns;
        d /= 1e9;
    }
    return d;
}

static int
read_double_attr(PyObject *obj, const char *name, double *out)
{
    PyObject *value = PyObject_GetAttrString(obj, name);
    if (value == NULL)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}
#endif

static int
deadline_init(DeadlineCheck *d, PyObject *deadline)
{
    d->mode = DEADLINE_NONE;
    d->obj = deadline;
    if (deadline == Py_None)
        return 0;
    d->mode = DEADLINE_OBJECT;
#ifdef KERNEL_CLOCK
    if ((PyObject *)Py_TYPE(deadline) != DeadlineType)
        return 0;
    d->mode = DEADLINE_NONE;
    PyObject *budget = PyObject_GetAttrString(deadline, "budget");
    if (budget == NULL)
        return -1;
    int unlimited = budget == Py_None;
    Py_DECREF(budget);
    if (unlimited)
        return 0; /* Deadline(None).expired is always False */
    if (read_double_attr(deadline, "budget", &d->budget) < 0
        || read_double_attr(deadline, "_start", &d->start) < 0)
        return -1;
    d->mode = DEADLINE_CLOCK;
#endif
    return 0;
}

/* 1 expired, 0 live, -1 on a raised exception. */
static int
deadline_expired(DeadlineCheck *d)
{
    if (d->mode == DEADLINE_NONE)
        return 0;
#ifdef KERNEL_CLOCK
    if (d->mode == DEADLINE_CLOCK)
        return (perf_counter_seconds() - d->start) >= d->budget;
#endif
    PyObject *flag = PyObject_GetAttrString(d->obj, "expired");
    if (flag == NULL)
        return -1;
    int truth = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return truth; /* PyObject_IsTrue already returns -1 on error */
}

/* ------------------------------------------------------- literal parsing */

/* A DIMACS literal from a Python object, validated exactly like
 * PySolver.add_clause: anything but a non-zero int (bools excluded) raises
 * SolverError("invalid literal <repr>").  Returns 0 with an exception set
 * on failure. */
static int32_t
parse_literal(PyObject *obj)
{
    if (!PyLong_CheckExact(obj) && (!PyLong_Check(obj) || PyBool_Check(obj))) {
        PyErr_Format(SolverError, "invalid literal %R", obj);
        return 0;
    }
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return 0;
    if (overflow || v > MAX_VAR || v < -MAX_VAR) {
        PyErr_Format(PyExc_OverflowError,
                     "literal %R exceeds the kernel's variable range", obj);
        return 0;
    }
    if (v == 0)
        PyErr_Format(SolverError, "invalid literal %R", obj);
    return (int32_t)v;
}

/* ------------------------------------------------------------ clause ingest */

/* PySolver.add_clause without proof logging: validate each literal, grow
 * num_vars up to it (so a clause dropped as a tautology or rejected later
 * still grows num_vars to the literal scanned), drop duplicates, drop
 * tautologies, then simplify against level 0 and attach or propagate.
 * Returns 1 when the clause consumed a cid, 0 for a tautology, -1 with an
 * exception set. */
static int
cs_add_clause(CSolver *s, PyObject *clause)
{
    PyObject *seq = PySequence_Fast(clause, "a clause must be an iterable of literals");
    if (seq == NULL)
        return -1;
    Py_ssize_t size = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    IntVec *buf = &s->clause_buf;
    buf->size = 0;
    int32_t stamp = ++s->stamp;
    for (Py_ssize_t k = 0; k < size; k++) {
        int32_t lit = parse_literal(items[k]);
        if (lit == 0)
            goto fail;
        int32_t var = lit < 0 ? -lit : lit;
        if (cs_ensure_vars(s, var) < 0)
            goto oom;
        int32_t ilit = 2 * var + (lit < 0 ? 1 : 0);
        if (s->lit_mark[ilit ^ 1] == stamp) {
            Py_DECREF(seq);
            return 0; /* tautology */
        }
        if (s->lit_mark[ilit] == stamp)
            continue;
        s->lit_mark[ilit] = stamp;
        if (intvec_push(buf, ilit) < 0)
            goto oom;
    }
    Py_DECREF(seq);
    if (!s->ok)
        return 1;

    int32_t *ilits = buf->data;
    Py_ssize_t n = buf->size;
    /* Satisfied at level 0: never an antecedent, drop it. */
    for (Py_ssize_t k = 0; k < n; k++) {
        if (lit_value(s, ilits[k]) == VAL_TRUE)
            return 1;
    }
    /* Simplify against the level-0 assignment.  At add time every
     * assignment is level 0, so this removes exactly the false literals
     * and the remainder is entirely unassigned. */
    Py_ssize_t w = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        if (lit_value(s, ilits[k]) != VAL_FALSE)
            ilits[w++] = ilits[k];
    }
    n = w;
    if (n == 0) {
        s->ok = 0;
        return 1;
    }
    Clause *record = clause_new(ilits, (int32_t)n, 0);
    if (record == NULL)
        goto oom_unowned;
    if (clausevec_push(&s->clauses, record) < 0) {
        free(record);
        goto oom_unowned;
    }
    if (n == 1) {
        if (cs_enqueue(s, record->lits[0], record) < 0)
            goto oom_unowned;
        Clause *conflict = cs_propagate(s);
        if (PyErr_Occurred())
            return -1;
        if (conflict != NULL)
            s->ok = 0;
        return 1;
    }
    if (cs_attach(s, record) < 0)
        goto oom_unowned;
    return 1;

oom:
    PyErr_NoMemory();
fail:
    Py_DECREF(seq);
    return -1;
oom_unowned:
    PyErr_NoMemory();
    return -1;
}

/* ------------------------------------------------------- Python methods */

static PyObject *
solver_new_var(CSolver *s, PyObject *Py_UNUSED(ignored))
{
    if (s->num_vars >= MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "the kernel's variable range is exhausted");
        return NULL;
    }
    if (cs_ensure_vars(s, s->num_vars + 1) < 0)
        return PyErr_NoMemory();
    return PyLong_FromLong(s->num_vars);
}

static PyObject *
solver_add_clauses(CSolver *s, PyObject *const *args, Py_ssize_t nargs)
{
    /* add_clauses(clauses, num_vars) -> list of cids (None for dropped
     * tautologies): PySolver.add_cnf over any sequence of clauses. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "add_clauses(clauses, num_vars)");
        return NULL;
    }
    long want = PyLong_AsLong(args[1]);
    if (want == -1 && PyErr_Occurred())
        return NULL;
    if (want > MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "num_vars exceeds the kernel's variable range");
        return NULL;
    }
    if (cs_ensure_vars(s, (int32_t)want) < 0)
        return PyErr_NoMemory();
    PyObject *seq = PySequence_Fast(args[0], "add_clauses expects a sequence of clauses");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject *cids = PyList_New(n);
    if (cids == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        int kept = cs_add_clause(s, PySequence_Fast_GET_ITEM(seq, i));
        if (kept < 0)
            goto fail;
        PyObject *cid = kept ? PyLong_FromLongLong(s->next_cid++) : Py_NewRef(Py_None);
        if (cid == NULL)
            goto fail;
        PyList_SET_ITEM(cids, i, cid);
    }
    Py_DECREF(seq);
    return cids;
fail:
    Py_DECREF(seq);
    Py_DECREF(cids);
    return NULL;
}

static PyObject *
build_values(CSolver *s)
{
    /* One byte per variable, indexed by variable (byte 0 unused). */
    PyObject *values = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)s->num_vars + 1);
    if (values == NULL)
        return NULL;
    char *out = PyBytes_AS_STRING(values);
    out[0] = 0;
    for (int32_t var = 1; var <= s->num_vars; var++)
        out[var] = s->assigns[var] == VAL_TRUE;
    return values;
}

static PyObject *
build_core(const IntVec *core)
{
    PyObject *tuple = PyTuple_New(core->size);
    if (tuple == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < core->size; k++) {
        PyObject *item = PyLong_FromLong(core->data[k]);
        if (item == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, k, item);
    }
    return tuple;
}

static PyObject *
solver_solve(CSolver *s, PyObject *const *args, Py_ssize_t nargs)
{
    /* solve(assumptions, conflict_budget, deadline) -> (status, values,
     * core): PySolver.solve with DIMACS assumptions, validated here. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "solve(assumptions, conflict_budget, deadline)");
        return NULL;
    }
    if (!s->ok)
        return Py_BuildValue("(Oy#())", Py_False, "", (Py_ssize_t)0);
    int has_budget = args[1] != Py_None;
    long long budget = 0;
    if (has_budget) {
        budget = PyLong_AsLongLong(args[1]);
        if (budget == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *seq = PySequence_Fast(args[0], "assumptions must be an iterable of literals");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n_assumptions = PySequence_Fast_GET_SIZE(seq);
    int32_t *assumptions = (int32_t *)malloc((size_t)(n_assumptions ? n_assumptions : 1) * sizeof(int32_t));
    if (assumptions == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t k = 0; k < n_assumptions; k++) {
        int32_t lit = parse_literal(PySequence_Fast_GET_ITEM(seq, k));
        int32_t var = lit < 0 ? -lit : lit;
        if (lit == 0 || cs_ensure_vars(s, var) < 0) {
            if (lit != 0)
                PyErr_NoMemory();
            Py_DECREF(seq);
            free(assumptions);
            return NULL;
        }
        assumptions[k] = 2 * var + (lit < 0 ? 1 : 0);
    }
    Py_DECREF(seq);
    DeadlineCheck deadline;
    if (deadline_init(&deadline, args[2]) < 0) {
        free(assumptions);
        return NULL;
    }

    if (cs_cancel_until(s, 0) < 0) {
        free(assumptions);
        return PyErr_NoMemory();
    }
    int64_t conflicts_at_start = s->conflicts;
    int64_t restart_index = 0;
    int64_t restart_budget = 64 * luby(restart_index);
    int64_t conflicts_this_restart = 0;
    int status = -2; /* sentinel: still searching */
    PyObject *values = NULL;
    PyObject *core = NULL;

    while (status == -2) {
        Clause *conflict = cs_propagate(s);
        if (PyErr_Occurred())
            goto fail;
        if (conflict != NULL) {
            s->conflicts++;
            conflicts_this_restart++;
            if (decision_level(s) == 0) {
                s->ok = 0;
                status = 0;
                break;
            }
            int32_t backtrack_level, lbd;
            if (cs_analyze(s, conflict, &backtrack_level, &lbd) < 0)
                goto oom;
            if (cs_cancel_until(s, backtrack_level) < 0)
                goto oom;
            if (cs_record_learned(s, lbd) < 0)
                goto oom;
            s->var_inc *= s->var_inc_growth;
            s->cla_inc *= s->cla_inc_growth;
            if (has_budget && s->conflicts - conflicts_at_start >= budget) {
                if (cs_cancel_until(s, 0) < 0)
                    goto oom;
                status = -1;
                break;
            }
            int expired = deadline_expired(&deadline);
            if (expired < 0)
                goto fail;
            if (expired) {
                if (cs_cancel_until(s, 0) < 0)
                    goto oom;
                status = -1;
                break;
            }
            if (conflicts_this_restart >= restart_budget) {
                restart_index++;
                restart_budget = 64 * luby(restart_index);
                conflicts_this_restart = 0;
                if (cs_cancel_until(s, 0) < 0)
                    goto oom;
            }
            continue;
        }

        {
            int expired = deadline_expired(&deadline);
            if (expired < 0)
                goto fail;
            if (expired) {
                if (cs_cancel_until(s, 0) < 0)
                    goto oom;
                status = -1;
                break;
            }
        }

        if (decision_level(s) < n_assumptions) {
            /* Place the next assumption as a pseudo-decision. */
            int32_t ilit = assumptions[decision_level(s)];
            int value = lit_value(s, ilit);
            if (value == VAL_TRUE) {
                if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
                    goto oom;
                continue;
            }
            if (value == VAL_FALSE) {
                IntVec core_lits = {NULL, 0, 0};
                if (cs_analyze_final(s, ilit, assumptions, n_assumptions, &core_lits) < 0) {
                    free(core_lits.data);
                    goto oom;
                }
                core = build_core(&core_lits);
                free(core_lits.data);
                if (core == NULL)
                    goto fail;
                if (cs_cancel_until(s, 0) < 0)
                    goto oom;
                status = 0;
                break;
            }
            if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
                goto oom;
            if (cs_enqueue(s, ilit, NULL) < 0)
                goto oom;
            continue;
        }

        if ((int64_t)s->learnts.size > s->reduce_base) {
            if (cs_reduce_db(s) < 0)
                goto oom;
        }

        int32_t ilit = cs_pick_branch(s);
        if (ilit < 0) {
            values = build_values(s);
            if (values == NULL)
                goto fail;
            if (cs_cancel_until(s, 0) < 0)
                goto oom;
            status = 1;
            break;
        }
        s->decisions++;
        if (trail_lim_push(s, (int32_t)s->trail_size) < 0)
            goto oom;
        if (cs_enqueue(s, ilit, NULL) < 0)
            goto oom;
    }

    free(assumptions);
    if (values == NULL)
        values = PyBytes_FromStringAndSize("", 0);
    if (core == NULL)
        core = PyTuple_New(0);
    if (values == NULL || core == NULL) {
        Py_XDECREF(values);
        Py_XDECREF(core);
        return NULL;
    }
    PyObject *verdict = status == -1 ? Py_None : (status ? Py_True : Py_False);
    return Py_BuildValue("(ONN)", verdict, values, core);

oom:
    PyErr_NoMemory();
fail:
    free(assumptions);
    Py_XDECREF(values);
    Py_XDECREF(core);
    (void)cs_cancel_until(s, 0); /* an exception is already set */
    return NULL;
}

/* ------------------------------------------------------------ lifecycle */

static PyObject *
solver_new(PyTypeObject *type, PyObject *Py_UNUSED(args), PyObject *Py_UNUSED(kwds))
{
    CSolver *s = (CSolver *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    s->num_vars = 0;
    s->cap_vars = 0;
    s->assigns = NULL;
    s->level = NULL;
    s->reason = NULL;
    s->phase = NULL;
    s->seen = NULL;
    s->activity = NULL;
    s->lbd_mark = NULL;
    s->visit_mark = NULL;
    s->assume_mark = NULL;
    s->lit_mark = NULL;
    s->stamp = 0;
    s->watches = NULL;
    s->bin_watches = NULL;
    s->trail = NULL;
    s->trail_size = s->trail_cap = 0;
    s->trail_lim = NULL;
    s->trail_lim_size = s->trail_lim_cap = 0;
    s->qhead = 0;
    s->heap = NULL;
    s->heap_size = s->heap_cap = 0;
    s->heap_pos = NULL;
    s->var_inc = 1.0;
    s->var_inc_growth = 1.0 / 0.95;
    s->cla_inc = 1.0;
    s->cla_inc_growth = 1.0 / 0.999;
    memset(&s->clauses, 0, sizeof(ClauseVec));
    memset(&s->learnts, 0, sizeof(ClauseVec));
    memset(&s->learned_buf, 0, sizeof(IntVec));
    memset(&s->clause_buf, 0, sizeof(IntVec));
    s->ok = 1;
    s->reduce_base = REDUCE_BASE;
    s->conflicts = s->decisions = s->propagations = 0;
    s->next_cid = 0;
    return (PyObject *)s;
}

static void
solver_dealloc(CSolver *s)
{
    /* Deleted-but-still-watched clauses live only in the watcher lists;
     * free each on its last remaining reference. */
    if (s->watches != NULL) {
        for (int32_t ilit = 2; ilit <= 2 * s->num_vars + 1; ilit++) {
            ClauseVec *wl = &s->watches[ilit];
            for (Py_ssize_t i = 0; i < wl->size; i++) {
                Clause *c = wl->data[i];
                if (c->deleted && --c->refs == 0)
                    free(c);
            }
            free(wl->data);
        }
    }
    if (s->bin_watches != NULL) {
        for (int32_t ilit = 2; ilit <= 2 * s->num_vars + 1; ilit++)
            free(s->bin_watches[ilit].data);
    }
    for (Py_ssize_t i = 0; i < s->clauses.size; i++)
        free(s->clauses.data[i]);
    for (Py_ssize_t i = 0; i < s->learnts.size; i++)
        free(s->learnts.data[i]);
    free(s->clauses.data);
    free(s->learnts.data);
    free(s->learned_buf.data);
    free(s->clause_buf.data);
    free(s->watches);
    free(s->bin_watches);
    free(s->assigns);
    free(s->level);
    free(s->reason);
    free(s->phase);
    free(s->seen);
    free(s->activity);
    free(s->lbd_mark);
    free(s->visit_mark);
    free(s->assume_mark);
    free(s->lit_mark);
    free(s->trail);
    free(s->trail_lim);
    heap_free(s);
    free(s->heap_pos);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyObject *
solver_get_order_heap(CSolver *s, void *Py_UNUSED(closure))
{
    PyObject *items = PyList_New(s->heap_size);
    if (items == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < s->heap_size; k++) {
        HeapItem it = s->heap[k];
        PyObject *item = Py_BuildValue("(dii)", it.key, (int)it.var, (int)it.count);
        if (item == NULL) {
            Py_DECREF(items);
            return NULL;
        }
        PyList_SET_ITEM(items, k, item);
    }
    return items;
}

static PyGetSetDef solver_getset[] = {
    {"order_heap", (getter)solver_get_order_heap, NULL,
     "The VSIDS order heap as (key, var, count) items in slot order "
     "(test hook).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef solver_methods[] = {
    {"new_var", (PyCFunction)solver_new_var, METH_NOARGS,
     "Allocate a fresh variable and return its index."},
    {"add_clauses", (PyCFunction)(void (*)(void))solver_add_clauses, METH_FASTCALL,
     "add_clauses(clauses, num_vars) -> cids: grow to num_vars, then ingest "
     "every clause (None marks a dropped tautology)."},
    {"solve", (PyCFunction)(void (*)(void))solver_solve, METH_FASTCALL,
     "solve(assumptions, conflict_budget, deadline) -> (status, values, core)"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef solver_members[] = {
    {"num_vars", T_INT, offsetof(CSolver, num_vars), READONLY, "Variables allocated."},
    {"ok", T_INT, offsetof(CSolver, ok), READONLY,
     "0 once the clause database is unsatisfiable on its own."},
    {"reduce_base", T_LONGLONG, offsetof(CSolver, reduce_base), 0,
     "Learned-clause count that triggers a reduction (test hook)."},
    {"var_inc", T_DOUBLE, offsetof(CSolver, var_inc), 0,
     "VSIDS activity increment (test hook)."},
    {"conflicts", T_LONGLONG, offsetof(CSolver, conflicts), READONLY, NULL},
    {"decisions", T_LONGLONG, offsetof(CSolver, decisions), READONLY, NULL},
    {"propagations", T_LONGLONG, offsetof(CSolver, propagations), READONLY,
     "Enqueues by unit propagation, including level-0 ingest."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject SolverType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._ckernel.Solver",
    .tp_basicsize = sizeof(CSolver),
    .tp_dealloc = (destructor)solver_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled CDCL kernel (decision-for-decision twin of PySolver).",
    .tp_methods = solver_methods,
    .tp_members = solver_members,
    .tp_getset = solver_getset,
    .tp_new = solver_new,
};

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sat._ckernel",
    .m_doc = "Compiled CDCL propagation/analysis/backtrack kernel.",
    .m_size = -1,
};

static PyObject *
import_attr(const char *module_name, const char *attr)
{
    PyObject *module = PyImport_ImportModule(module_name);
    if (module == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(module, attr);
    Py_DECREF(module);
    return value;
}

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (SolverError == NULL && (SolverError = import_attr("repro.errors", "SolverError")) == NULL)
        return NULL;
    if (DeadlineType == NULL && (DeadlineType = import_attr("repro.utils.timer", "Deadline")) == NULL)
        return NULL;
    if (PyType_Ready(&SolverType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&SolverType);
    if (PyModule_AddObject(module, "Solver", (PyObject *)&SolverType) < 0) {
        Py_DECREF(&SolverType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "KERNEL_NAME", "c") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
