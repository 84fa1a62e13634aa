/*
 * Compiled per-instruction simulation core.
 *
 * A whole-machine C port of the per-cycle engine (commit -> writeback ->
 * issue -> rename -> fetch, reverse pipeline order), operated through a
 * deliberately tiny ABI: Python builds a Machine from a flat config
 * vector, fills the C-owned trace/predictor/cache arrays through typed
 * pointer accessors, and drives sim_run(), which executes cycles until
 * the run finishes or it needs Python (wrong-path payload refill,
 * exception-lottery refill, deadlock, or an internal inconsistency that
 * triggers the bit-exact Python fallback).
 *
 * Everything observable in SimStats is accumulated in the STATS array;
 * the semantics mirror the Python engine statement for statement — any
 * divergence is a bug caught by the equivalence suite, never a tolerated
 * approximation.
 *
 * The declarations between CDEF_START and CDEF_END are the one
 * declaration of the Python<->C ABI: the loader hands them to cffi, and
 * Python reads every shared constant from the loaded library by name
 * (lib.ST_..., lib.CFG_...).  A plain STATS counter is named ST_ (or RF_
 * for the per-register-file block) plus its SimStats field in upper
 * case; the stats assembly finds it by that name.
 */

/* CDEF_START */
typedef struct Machine Machine;
Machine *sim_new(const long long *cfg, int ncfg);
void sim_free(Machine *m);
long long *sim_i64(Machine *m, int which);
double *sim_exc_buf(Machine *m);
signed char *sim_gs_table(Machine *m);
long long sim_get(Machine *m, int which);
void sim_set(Machine *m, int which, long long value);
void sim_set_exception_rate(Machine *m, double rate);
int sim_run(Machine *m);

/* Op classes (repro.isa.OpClass) and the pool executing each
 * (repro.isa.FU_KIND, pools numbered as repro.isa.FUKind). */
enum {
    OP_INT_ALU = 0, OP_INT_MULT, OP_FP_ADD, OP_FP_MULT, OP_FP_DIV,
    OP_LOAD, OP_STORE, OP_BRANCH, OP_FP_LOAD, OP_FP_STORE, OP_NOP,
    N_OPS,
};
enum { N_FU_KINDS = 6 };
extern const int FU_KIND_OF[N_OPS];

/* Release policies (ProcessorConfig.release_policy). */
enum { POLICY_CONV = 0, POLICY_BASIC, POLICY_EXTENDED };

/* Config vector layout. */
enum {
    CFG_TRACE_LEN = 0, CFG_FETCH_W, CFG_RENAME_W, CFG_ISSUE_W, CFG_COMMIT_W,
    CFG_MAX_TAKEN, CFG_FRONTEND, CFG_ROS, CFG_LSQ, CFG_CK_CAP,
    CFG_NPHYS_INT, CFG_NPHYS_FP, CFG_NLOG_INT, CFG_NLOG_FP,
    CFG_GSHARE_BITS, CFG_BTB_SETS, CFG_BTB_ASSOC,
    CFG_POLICY, CFG_REUSE, CFG_WP_ENABLED, CFG_EXC_ENABLED,
    CFG_L1I_SETS, CFG_L1I_ASSOC, CFG_L1I_SHIFT, CFG_L1I_LAT,
    CFG_L1D_SETS, CFG_L1D_ASSOC, CFG_L1D_SHIFT, CFG_L1D_LAT,
    CFG_L2_SETS, CFG_L2_ASSOC, CFG_L2_SHIFT, CFG_L2_LAT,
    CFG_MEM_LAT,
    CFG_FU_COUNT,                                   /* one per pool */
    CFG_FU_UNPIPELINED = CFG_FU_COUNT + N_FU_KINDS, /* one per pool */
    CFG_OP_LAT = CFG_FU_UNPIPELINED + N_FU_KINDS,   /* one per op class */
    CFG_WP_CAP = CFG_OP_LAT + N_OPS, CFG_EXC_CAP, CFG_WARM_LEN,
    NCFG,
};

/* Scalar ids for sim_get / sim_set. */
enum {
    SC_STATUS = 0, SC_ERROR, SC_CYCLE, SC_MAX_CYCLES, SC_COMMIT_LIMIT,
    SC_DEADLOCK, SC_WP_COUNT, SC_WP_HEAD, SC_EXC_COUNT, SC_EXC_HEAD,
    SC_GS_HISTORY, SC_READY_PEAK, SC_SEQ, SC_ABI_MAGIC,
};

/* Array ids for sim_i64. */
enum {
    A_T_OP = 0, A_T_PC, A_T_DC, A_T_DEST, A_T_NSRC, A_T_SRC_CLASS,
    A_T_SRC_LOG, A_T_TAKEN, A_T_TARGET, A_T_ADDR,
    A_W_OP, A_W_DC, A_W_DEST, A_W_NSRC, A_W_SRC_CLASS, A_W_SRC_LOG,
    A_W_ADDR, A_W_TDELTA,
    A_B_TAG, A_B_TARGET, A_B_NWAY,
    A_L1I_TAG, A_L1I_DIRTY, A_L1I_NWAY,
    A_L1D_TAG, A_L1D_DIRTY, A_L1D_NWAY,
    A_L2_TAG, A_L2_DIRTY, A_L2_NWAY,
    A_STATS,
    A_WU_OP, A_WU_PC, A_WU_ADDR, A_WU_TAKEN, A_WU_TARGET,
};

/* Source operands per instruction: trace rows hold MAX_SRCS, wrong-path
 * payload rows WP_MAX_SRCS. */
enum { MAX_SRCS = 3, WP_MAX_SRCS = 2 };

/* sim_run statuses. */
enum {
    RUN_FINISHED = 0, RUN_NEED_WRONGPATH, RUN_NEED_EXC,
    RUN_DEADLOCK, RUN_INTERNAL,
};

/* Per-register-file STATS block (RegisterFileStats). */
enum {
    RF_ALLOCATIONS = 0, RF_RELEASES, RF_EARLY_RELEASES, RF_REGISTER_REUSES,
    RF_IMMEDIATE_RELEASES, RF_SCHEDULED_EARLY_RELEASES,
    RF_CONVENTIONAL_RELEASES, RF_CONDITIONAL_SCHEDULINGS,
    RF_OCC_EMPTY, RF_OCC_READY, RF_OCC_IDLE,
    RF_N,
};

/* STATS slots (int64 counters).  ST_STALL_<REASON> is the
 * SimStats.dispatch_stalls entry <reason>. */
enum {
    ST_COMMITTED_INSTRUCTIONS = 0,
    ST_BY_CLASS,                                    /* one per op class */
    ST_FETCHED_INSTRUCTIONS = ST_BY_CLASS + N_OPS,
    ST_FETCHED_WRONG_PATH, ST_RENAMED_INSTRUCTIONS,
    ST_SQUASHED_INSTRUCTIONS, ST_EXCEPTIONS_TAKEN,
    ST_BRANCHES_RESOLVED, ST_BRANCH_MISPREDICTIONS,
    ST_BTB_HITS, ST_BTB_MISSES,
    ST_L1I_HITS, ST_L1I_MISSES, ST_L1D_HITS, ST_L1D_MISSES,
    ST_L2_HITS, ST_L2_MISSES,
    ST_FORWARDED_LOADS,
    ST_STALL_ROS_FULL, ST_STALL_LSQ_FULL, ST_STALL_CHECKPOINTS_FULL,
    ST_STALL_NO_FREE_INT_REGISTER, ST_STALL_NO_FREE_FP_REGISTER,
    ST_STRUCTURAL_STALLS,
    ST_RF_INT,                                      /* RF_N slots each */
    ST_RF_FP = ST_RF_INT + RF_N,
    ST_N = ST_RF_FP + RF_N,
};
/* CDEF_END */

#ifndef REPRO_ABI_DIGEST
#error "build through repro.engine.accel.loader (defines REPRO_ABI_DIGEST)"
#endif

#include <stdlib.h>
#include <string.h>

typedef long long i64;
typedef signed char i8;

/* Internal error details (SC_ERROR), for diagnostics only. */
enum {
    E_NONE = 0, E_FREELIST, E_ALLOC_EMPTY, E_WK_POOL, E_CQ_POOL, E_LW_POOL,
    E_RQ_OVERFLOW, E_RWC_MISSING, E_SLOT_MISMATCH, E_LSQ_REMOVE, E_CQ_RANGE,
    E_READY_POOL,
};

const int FU_KIND_OF[N_OPS] = {0, 1, 2, 3, 4, 5, 5, 0, 5, 5, 0};
#define IS_LOAD(op)   ((op) == OP_LOAD || (op) == OP_FP_LOAD)
#define IS_STORE(op)  ((op) == OP_STORE || (op) == OP_FP_STORE)
#define IS_MEM(op)    (IS_LOAD(op) || IS_STORE(op))
#define IS_BRANCH(op) ((op) == OP_BRANCH)


/* ------------------------------------------------------------------ */
/* Sub-structures.                                                    */
/* ------------------------------------------------------------------ */
typedef struct {
    i64 *tag;        /* n_sets * assoc, -1 = empty way */
    i64 *dirty;
    i64 *nway;       /* ways in use per set */
    i64 n_sets, assoc, shift, lat;
    i64 *hits, *misses;   /* point into STATS */
} CacheZ;

typedef struct {            /* decoded front-end pipe entry */
    i64 ready_cycle;
    i64 pc, target, addr;
    i64 pred_idx, pred_hist;
    i64 resume_cursor;
    int op, dest_class, dest, nsrc;
    int src_class[MAX_SRCS], src_log[MAX_SRCS];
    int taken, has_pred, pred_taken, pred_raw, mispredicted, wrong_path;
} DQEnt;

typedef struct {            /* one release-queue level (slot) */
    i64 branch_seq;
    int rwns_n;
    int *rwns_phys;         /* insertion-ordered; update keeps position */
    int *rwns_log;          /* -1 == None */
    i64 *rwns_nv;
    int rwc_n;
    i64 *rwc_lu;            /* insertion-ordered LU seqs */
    int *rwc_nbits;
    int *rwc_bits;          /* 4 per LU entry */
    i64 *rwc_nv;            /* 4 per LU entry */
} RQLevel;

struct Machine {
    i64 cfg[NCFG];
    double exception_rate;

    /* run controls / scalars */
    int status;
    i64 error;
    i64 cycle, seq, max_cycles, commit_limit, deadlock_threshold;
    i64 last_commit_cycle, committed_watermark;
    i64 ready_peak;

    /* trace columns (C-owned, filled by Python) */
    i64 trace_len;
    i64 *t_op, *t_pc, *t_dc, *t_dest, *t_nsrc, *t_src_class, *t_src_log,
        *t_taken, *t_target, *t_addr;

    /* warm-up trace columns (C-owned, filled by Python; replayed once
     * through the predictor/BTB/memory models before the measured run) */
    i64 warm_len;
    i64 *wu_op, *wu_pc, *wu_addr, *wu_taken, *wu_target;
    int warm_done;

    /* wrong-path payload ring buffer (refilled by Python, status 1) */
    i64 wp_cap, wp_count, wp_head;
    i64 *w_op, *w_dc, *w_dest, *w_nsrc, *w_src_class, *w_src_log,
        *w_addr, *w_tdelta;

    /* exception lottery doubles (refilled by Python, status 2) */
    i64 exc_cap, exc_count, exc_head;
    double *exc_buf;

    /* gshare */
    i8 *gs_table;
    i64 gs_size, gs_mask, gs_history;

    /* BTB */
    i64 *btb_tag, *btb_target, *btb_nway;
    i64 btb_sets, btb_assoc;

    /* caches + memory */
    CacheZ l1i, l1d, l2;
    i64 mem_lat;

    /* functional units */
    i64 fu_count[N_FU_KINDS], fu_unpip[N_FU_KINDS];
    i64 fu_last_cycle[N_FU_KINDS], fu_used[N_FU_KINDS];
    i64 *fu_free_at;            /* unpipelined units, fu_off[kind] slices */
    i64 fu_off[N_FU_KINDS];
    i64 op_lat[N_OPS];

    /* register files: class 0 = INT, 1 = FP */
    i64 nphys[2], nlog[2];
    int *fl_ring[2];            /* FIFO free list */
    i64 fl_head[2], fl_count[2];
    i8 *fl_is_free[2];
    i64 *producer_seq[2];       /* -1 == None */
    int *producer_row[2];
    i64 *occ_alloc[2], *occ_write[2], *occ_lu[2];   /* -1 == None */
    i64 occ_empty[2], occ_ready[2], occ_idle[2];
    int *map[2], *iomt[2];
    i8 *map_stale[2], *arch_released[2];

    /* LUs table (basic/extended) */
    i64 *lus_seq[2];            /* -1 == None */
    i8 *lus_slot[2];

    /* policy */
    int policy;                 /* POLICY_* */
    int reuse_on_committed_lu;

    /* ROS (ring of rows) */
    i64 ros_cap, ros_head, ros_count;
    int seen_exception;
    i64 *r_seq, *r_pc, *r_target, *r_addr, *r_resume, *r_pred_idx,
        *r_pred_hist;
    int *r_op, *r_dest_class, *r_dest_log, *r_pd, *r_old_pd, *r_mask,
        *r_nsrc, *r_src_class, *r_src_log, *r_src_phys;   /* *3 per row */
    i8 *r_completed, *r_squashed, *r_exception, *r_issued, *r_wrong_path,
       *r_fetch_mispred, *r_pred_taken, *r_pred_raw, *r_has_pred, *r_taken,
       *r_allocated_new, *r_reused, *r_rel_old, *r_in_ready;
    int *r_nwait;
    i64 *r_wait;                /* *3 per row */
    int *r_wk_head, *r_wk_tail; /* consumer list attached to producer row */

    /* ready set: min-heap on seq with lazy deletion */
    i64 *heap_seq;
    int *heap_row;
    i64 heap_n, heap_cap, rdy_count;

    /* wakeup node pool */
    i64 *wk_seq;
    int *wk_row, *wk_next;
    int wk_free;
    i64 wk_cap;

    /* completion queue: bucket ring + node pool */
    i64 cq_ring, cq_mask;
    int *cq_bucket, *cq_tail;
    i64 *cq_seq;
    int *cq_row, *cq_next;
    int cq_free;
    i64 cq_cap;

    /* LSQ ring + per-slot waiter lists */
    i64 lsq_cap, lsq_head, lsq_count;
    i64 *l_seq, *l_addr;
    i8 *l_is_store, *l_known;
    int *l_whead, *l_wtail;
    i64 *lw_seq;
    int *lw_row, *lw_next;
    int lw_free;
    i64 lw_cap;

    /* checkpoints: slot-indirected stack */
    i64 ck_cap, ck_count;
    int *ck_order, *ck_freestack;
    i64 ck_nfree;
    i64 *ck_seq;                /* per slot */
    int *ck_map[2];             /* per slot: nlog ints */
    i8 *ck_stale[2];
    i64 *ck_lus_seq[2];
    i8 *ck_lus_slot[2];

    /* release queues (extended), one per class; rq_levels slots each,
     * sized from the config's checkpoint capacity (max_pending_branches) */
    i64 rq_levels;
    RQLevel *rq_slots[2];
    int *rq_order[2];
    int *rq_freestack[2];
    int rq_count[2], rq_nfree[2];
    i64 rq_rwns_cap, rq_rwc_cap;

    /* decode queue ring */
    DQEnt *dq;
    i64 dq_cap, dq_head, dq_count, decode_capacity;

    /* fetch unit */
    i64 cursor, wp_pc, stall_until;
    int on_wrong_path;
    int wp_enabled, exc_enabled;

    /* scratch */
    int *scratch_rows, *blocked_rows, *freed_reg[2];

    /* stats */
    i64 st[ST_N];
    int finalized;
};

/* ------------------------------------------------------------------ */
/* Allocation helpers.                                                */
/* ------------------------------------------------------------------ */
static void *zmalloc(size_t n) {
    void *p = calloc(1, n ? n : 1);
    return p;
}
#define NEW_I64(n) ((i64 *)zmalloc((size_t)(n) * sizeof(i64)))
#define NEW_INT(n) ((int *)zmalloc((size_t)(n) * sizeof(int)))
#define NEW_I8(n)  ((i8 *)zmalloc((size_t)(n) * sizeof(i8)))

static void fill_i64(i64 *a, i64 n, i64 v) {
    for (i64 i = 0; i < n; i++) a[i] = v;
}
static void fill_int(int *a, i64 n, int v) {
    for (i64 i = 0; i < n; i++) a[i] = v;
}

static i64 next_pow2(i64 v) {
    i64 p = 1;
    while (p < v) p <<= 1;
    return p;
}

/* ------------------------------------------------------------------ */
/* gshare / BTB / caches / memory.                                    */
/* ------------------------------------------------------------------ */
static void gs_predict(Machine *m, i64 pc, i64 *idx, i64 *hist_before,
                       int *pred) {
    i64 hb = m->gs_history;
    i64 index = ((pc >> 2) ^ hb) & m->gs_mask;
    int p = m->gs_table[index] >= 2;
    m->gs_history = ((hb << 1) | p) & m->gs_mask;
    *idx = index;
    *hist_before = hb;
    *pred = p;
}

static void gs_resolve(Machine *m, i64 idx, i64 hist_before, int taken,
                       int predicted) {
    i8 counter = m->gs_table[idx];
    if (taken) {
        if (counter < 3) m->gs_table[idx] = (i8)(counter + 1);
    } else {
        if (counter > 0) m->gs_table[idx] = (i8)(counter - 1);
    }
    if (taken != predicted)
        m->gs_history = ((hist_before << 1) | (taken ? 1 : 0)) & m->gs_mask;
}

/* Returns target on hit (rotating the way to MRU), -1 on miss. */
static i64 btb_lookup(Machine *m, i64 pc) {
    i64 set = (pc >> 2) % m->btb_sets;
    i64 tag = pc >> 2;
    i64 base = set * m->btb_assoc;
    i64 n = m->btb_nway[set];
    for (i64 pos = 0; pos < n; pos++) {
        if (m->btb_tag[base + pos] == tag) {
            i64 target = m->btb_target[base + pos];
            for (i64 k = pos; k > 0; k--) {
                m->btb_tag[base + k] = m->btb_tag[base + k - 1];
                m->btb_target[base + k] = m->btb_target[base + k - 1];
            }
            m->btb_tag[base] = tag;
            m->btb_target[base] = target;
            m->st[ST_BTB_HITS]++;
            return target;
        }
    }
    m->st[ST_BTB_MISSES]++;
    return -1;
}

static void btb_update(Machine *m, i64 pc, i64 target) {
    i64 set = (pc >> 2) % m->btb_sets;
    i64 tag = pc >> 2;
    i64 base = set * m->btb_assoc;
    i64 n = m->btb_nway[set];
    i64 pos = -1;
    for (i64 k = 0; k < n; k++) {
        if (m->btb_tag[base + k] == tag) { pos = k; break; }
    }
    if (pos >= 0) {
        for (i64 k = pos; k < n - 1; k++) {
            m->btb_tag[base + k] = m->btb_tag[base + k + 1];
            m->btb_target[base + k] = m->btb_target[base + k + 1];
        }
        n--;
    }
    for (i64 k = (n < m->btb_assoc ? n : m->btb_assoc - 1); k > 0; k--) {
        m->btb_tag[base + k] = m->btb_tag[base + k - 1];
        m->btb_target[base + k] = m->btb_target[base + k - 1];
    }
    m->btb_tag[base] = tag;
    m->btb_target[base] = target;
    if (n < m->btb_assoc) n++;          /* insert grew the set (then trim) */
    m->btb_nway[set] = n;
}

/* Exact port of Cache.access_hit: MRU rotate on hit, front insert+trim
 * on miss; the hit path re-marks dirty after the rotate. */
static int cache_access(CacheZ *c, i64 address, int is_write) {
    i64 line = address >> c->shift;
    i64 tag = line;
    i64 set = line % c->n_sets;
    i64 base = set * c->assoc;
    i64 n = c->nway[set];
    for (i64 pos = 0; pos < n; pos++) {
        if (c->tag[base + pos] == tag) {
            i64 dirty = c->dirty[base + pos];
            for (i64 k = pos; k > 0; k--) {
                c->tag[base + k] = c->tag[base + k - 1];
                c->dirty[base + k] = c->dirty[base + k - 1];
            }
            c->tag[base] = tag;
            c->dirty[base] = dirty;
            if (is_write) c->dirty[base] = 1;
            (*c->hits)++;
            return 1;
        }
    }
    (*c->misses)++;
    i64 keep = (n < c->assoc) ? n : c->assoc - 1;
    for (i64 k = keep; k > 0; k--) {
        c->tag[base + k] = c->tag[base + k - 1];
        c->dirty[base + k] = c->dirty[base + k - 1];
    }
    c->tag[base] = tag;
    c->dirty[base] = is_write ? 1 : 0;
    if (n < c->assoc) n++;
    c->nway[set] = n;
    return 0;
}

static i64 mem_access(Machine *m, CacheZ *l1, i64 address, int is_write) {
    if (cache_access(l1, address, is_write))
        return l1->lat;
    i64 latency = l1->lat + m->l2.lat;
    if (!cache_access(&m->l2, address, 0))
        latency += m->mem_lat;
    return latency;
}
#define MEM_IACCESS(m, pc)   mem_access((m), &(m)->l1i, (pc), 0)
#define MEM_DREAD(m, addr)   mem_access((m), &(m)->l1d, (addr), 0)
#define MEM_DWRITE(m, addr)  mem_access((m), &(m)->l1d, (addr), 1)

/* ------------------------------------------------------------------ */
/* Functional units.                                                  */
/* ------------------------------------------------------------------ */
static i64 fu_try_issue(Machine *m, int op, i64 cycle) {
    int kind = FU_KIND_OF[op];
    if (!m->fu_unpip[kind]) {
        if (m->fu_last_cycle[kind] != cycle) {
            m->fu_last_cycle[kind] = cycle;
            m->fu_used[kind] = 1;
        } else if (m->fu_used[kind] < m->fu_count[kind]) {
            m->fu_used[kind]++;
        } else {
            return -1;
        }
        return m->op_lat[op];
    }
    i64 *units = m->fu_free_at + m->fu_off[kind];
    i64 lat = m->op_lat[op];
    for (i64 i = 0; i < m->fu_count[kind]; i++) {
        if (units[i] <= cycle) {
            units[i] = cycle + lat;
            return lat;
        }
    }
    return -1;
}

/* ------------------------------------------------------------------ */
/* Register file: checked free list + occupancy accounting.           */
/* ------------------------------------------------------------------ */
static void occ_attribute(Machine *m, int c, int reg, i64 end_cycle) {
    i64 alloc = m->occ_alloc[c][reg];
    if (alloc < 0) return;
    i64 write = m->occ_write[c][reg];
    if (write < 0) {
        if (end_cycle > alloc) m->occ_empty[c] += end_cycle - alloc;
        return;
    }
    if (write < alloc) write = alloc;
    if (write > alloc) m->occ_empty[c] += write - alloc;
    i64 last_use = m->occ_lu[c][reg];
    if (last_use < 0 || last_use < write) last_use = write;
    if (last_use > end_cycle) last_use = end_cycle;
    if (last_use > write) m->occ_ready[c] += last_use - write;
    if (end_cycle > last_use) m->occ_idle[c] += end_cycle - last_use;
}

static int fl_push(Machine *m, int c, int reg) {
    if (reg < 0 || reg >= m->nphys[c] || m->fl_is_free[c][reg]) {
        m->status = RUN_INTERNAL;
        m->error = E_FREELIST;
        return 0;
    }
    i64 pos = (m->fl_head[c] + m->fl_count[c]) % m->nphys[c];
    m->fl_ring[c][pos] = reg;
    m->fl_count[c]++;
    m->fl_is_free[c][reg] = 1;
    return 1;
}

/* PhysicalRegisterFile.release / the release_many per-register body. */
static void release_reg(Machine *m, int c, int reg, i64 cycle, int early) {
    if (!fl_push(m, c, reg)) return;
    m->producer_seq[c][reg] = -1;
    m->producer_row[c][reg] = -1;
    occ_attribute(m, c, reg, cycle);
    m->occ_alloc[c][reg] = -1;
    m->occ_write[c][reg] = -1;
    m->occ_lu[c][reg] = -1;
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    rf[RF_RELEASES]++;
    if (early) rf[RF_EARLY_RELEASES]++;
}

/* _release_physical: release + stale-architectural-mapping bookkeeping. */
static void release_physical(Machine *m, int c, int reg, int logical,
                             i64 cycle, int early) {
    release_reg(m, c, reg, cycle, early);
    if (logical >= 0 && m->iomt[c][logical] == reg)
        m->arch_released[c][logical] = 1;
}

static int rf_allocate(Machine *m, int c, i64 cycle, i64 producer,
                       int prow) {
    if (m->fl_count[c] == 0) {
        m->status = RUN_INTERNAL;
        m->error = E_ALLOC_EMPTY;
        return -1;
    }
    int reg = m->fl_ring[c][m->fl_head[c]];
    m->fl_head[c] = (m->fl_head[c] + 1) % m->nphys[c];
    m->fl_count[c]--;
    m->fl_is_free[c][reg] = 0;
    m->producer_seq[c][reg] = producer;
    m->producer_row[c][reg] = prow;
    m->occ_alloc[c][reg] = cycle;
    m->occ_write[c][reg] = -1;
    m->occ_lu[c][reg] = -1;
    m->st[(c ? ST_RF_FP : ST_RF_INT) + RF_ALLOCATIONS]++;
    return reg;
}

static void mark_written(Machine *m, int c, int reg, i64 cycle) {
    m->producer_seq[c][reg] = -1;
    m->producer_row[c][reg] = -1;
    if (m->occ_write[c][reg] < 0) m->occ_write[c][reg] = cycle;
}

/* ------------------------------------------------------------------ */
/* ROS ring helpers.                                                  */
/* ------------------------------------------------------------------ */
#define ROS_ROW(m, off) ((int)(((m)->ros_head + (off)) % (m)->ros_cap))
#define ROW_LIVE(m, row, sq) \
    ((m)->r_seq[row] == (sq) && !(m)->r_squashed[row])

/* Binary search the age-ordered window for seq; returns row or -1. */
static int ros_find(Machine *m, i64 seq) {
    i64 lo = 0, hi = m->ros_count;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        int row = ROS_ROW(m, mid);
        if (m->r_seq[row] < seq) lo = mid + 1;
        else hi = mid;
    }
    if (lo < m->ros_count) {
        int row = ROS_ROW(m, lo);
        if (m->r_seq[row] == seq && !m->r_squashed[row]) return row;
    }
    return -1;
}

static i64 ros_completed_prefix(Machine *m, i64 limit) {
    i64 n = m->ros_count < limit ? m->ros_count : limit;
    i64 run = 0;
    while (run < n && m->r_completed[ROS_ROW(m, run)]) run++;
    return run;
}

/* First offset with a pending exception within the prefix, else -1. */
static i64 ros_exception_in_prefix(Machine *m, i64 length) {
    if (!m->seen_exception) return -1;
    for (i64 off = 0; off < length; off++)
        if (m->r_exception[ROS_ROW(m, off)]) return off;
    return -1;
}

/* ------------------------------------------------------------------ */
/* Ready set: min-heap on sequence numbers with lazy deletion.        */
/* The heap stores (seq,row) pairs; r_in_ready is the live flag.      */
/* ------------------------------------------------------------------ */
static void heap_push(Machine *m, i64 seq, int row) {
    if (m->heap_n >= m->heap_cap) {
        /* Compact: rebuild from live entries (rare; lazy deletion only
         * grows the heap when entries are discarded, capacity is 4x the
         * ROS so a full heap is mostly dead weight). */
        i64 n = 0;
        for (i64 i = 0; i < m->heap_n; i++) {
            int r = m->heap_row[i];
            if (m->r_in_ready[r] && m->r_seq[r] == m->heap_seq[i]) {
                m->heap_seq[n] = m->heap_seq[i];
                m->heap_row[n] = r;
                n++;
            }
        }
        m->heap_n = n;
        for (i64 i = 1; i < n; i++) {           /* heapify by sifting up */
            i64 j = i;
            while (j > 0) {
                i64 parent = (j - 1) / 2;
                if (m->heap_seq[parent] <= m->heap_seq[j]) break;
                i64 ts = m->heap_seq[parent]; int tr = m->heap_row[parent];
                m->heap_seq[parent] = m->heap_seq[j];
                m->heap_row[parent] = m->heap_row[j];
                m->heap_seq[j] = ts; m->heap_row[j] = tr;
                j = parent;
            }
        }
        if (m->heap_n >= m->heap_cap) {
            m->status = RUN_INTERNAL;
            m->error = E_READY_POOL;
            return;
        }
    }
    i64 i = m->heap_n++;
    m->heap_seq[i] = seq;
    m->heap_row[i] = row;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (m->heap_seq[parent] <= m->heap_seq[i]) break;
        i64 ts = m->heap_seq[parent]; int tr = m->heap_row[parent];
        m->heap_seq[parent] = m->heap_seq[i];
        m->heap_row[parent] = m->heap_row[i];
        m->heap_seq[i] = ts; m->heap_row[i] = tr;
        i = parent;
    }
}

static void heap_pop_min(Machine *m, i64 *seq, int *row) {
    *seq = m->heap_seq[0];
    *row = m->heap_row[0];
    m->heap_n--;
    if (m->heap_n > 0) {
        m->heap_seq[0] = m->heap_seq[m->heap_n];
        m->heap_row[0] = m->heap_row[m->heap_n];
        i64 i = 0;
        for (;;) {
            i64 l = 2 * i + 1, r = 2 * i + 2, s = i;
            if (l < m->heap_n && m->heap_seq[l] < m->heap_seq[s]) s = l;
            if (r < m->heap_n && m->heap_seq[r] < m->heap_seq[s]) s = r;
            if (s == i) break;
            i64 ts = m->heap_seq[s]; int tr = m->heap_row[s];
            m->heap_seq[s] = m->heap_seq[i];
            m->heap_row[s] = m->heap_row[i];
            m->heap_seq[i] = ts; m->heap_row[i] = tr;
            i = s;
        }
    }
}

static void ready_add(Machine *m, int row) {
    if (m->r_in_ready[row]) return;
    m->r_in_ready[row] = 1;
    m->rdy_count++;
    if (m->rdy_count > m->ready_peak) m->ready_peak = m->rdy_count;
    heap_push(m, m->r_seq[row], row);
}

static void ready_discard(Machine *m, int row) {
    if (m->r_in_ready[row]) {
        m->r_in_ready[row] = 0;
        m->rdy_count--;
    }
}

/* Pop the oldest live ready entry; caller guarantees rdy_count > 0. */
static int ready_pop(Machine *m) {
    for (;;) {
        i64 seq;
        int row;
        heap_pop_min(m, &seq, &row);
        if (m->r_in_ready[row] && m->r_seq[row] == seq) {
            m->r_in_ready[row] = 0;
            m->rdy_count--;
            return row;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Wakeup index: FIFO consumer lists attached to the producer row.    */
/* ------------------------------------------------------------------ */
static void wk_register(Machine *m, int prow, i64 cseq, int crow) {
    int node = m->wk_free;
    if (node < 0) {
        m->status = RUN_INTERNAL;
        m->error = E_WK_POOL;
        return;
    }
    m->wk_free = m->wk_next[node];
    m->wk_seq[node] = cseq;
    m->wk_row[node] = crow;
    m->wk_next[node] = -1;
    if (m->r_wk_tail[prow] >= 0)
        m->wk_next[m->r_wk_tail[prow]] = node;
    else
        m->r_wk_head[prow] = node;
    m->r_wk_tail[prow] = node;
}

static void wk_drop(Machine *m, int prow) {
    int node = m->r_wk_head[prow];
    while (node >= 0) {
        int next = m->wk_next[node];
        m->wk_next[node] = m->wk_free;
        m->wk_free = node;
        node = next;
    }
    m->r_wk_head[prow] = -1;
    m->r_wk_tail[prow] = -1;
}

/* Remove one occurrence of pseq from the row's wait set. */
static void wait_discard(Machine *m, int row, i64 pseq) {
    i64 *w = m->r_wait + (i64)row * MAX_SRCS;
    int n = m->r_nwait[row];
    for (int i = 0; i < n; i++) {
        if (w[i] == pseq) {
            w[i] = w[n - 1];
            m->r_nwait[row] = n - 1;
            return;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Completion queue: power-of-two bucket ring of FIFO node lists.     */
/* ------------------------------------------------------------------ */
static void cq_schedule(Machine *m, i64 at_cycle, i64 seq, int row) {
    if (at_cycle - m->cycle >= m->cq_ring) {
        m->status = RUN_INTERNAL;
        m->error = E_CQ_RANGE;
        return;
    }
    int node = m->cq_free;
    if (node < 0) {
        m->status = RUN_INTERNAL;
        m->error = E_CQ_POOL;
        return;
    }
    m->cq_free = m->cq_next[node];
    m->cq_seq[node] = seq;
    m->cq_row[node] = row;
    m->cq_next[node] = -1;
    i64 idx = at_cycle & m->cq_mask;
    if (m->cq_tail[idx] >= 0)
        m->cq_next[m->cq_tail[idx]] = node;
    else
        m->cq_bucket[idx] = node;
    m->cq_tail[idx] = node;
}

/* ------------------------------------------------------------------ */
/* LSQ: ring with stable slot indices and per-slot waiter lists.      */
/* ------------------------------------------------------------------ */
static void lsq_free_waiters(Machine *m, i64 slot) {
    int node = m->l_whead[slot];
    while (node >= 0) {
        int next = m->lw_next[node];
        m->lw_next[node] = m->lw_free;
        m->lw_free = node;
        node = next;
    }
    m->l_whead[slot] = -1;
    m->l_wtail[slot] = -1;
}

static void lsq_insert(Machine *m, i64 seq, int is_store, i64 addr) {
    i64 slot = (m->lsq_head + m->lsq_count) % m->lsq_cap;
    m->l_seq[slot] = seq;
    m->l_is_store[slot] = (i8)is_store;
    m->l_addr[slot] = addr;
    m->l_known[slot] = 0;
    m->lsq_count++;
}

/* Last older known store to the same 8-byte-aligned address, if any. */
static int lsq_store_forwards(Machine *m, i64 load_seq, i64 addr) {
    i64 target = addr & ~7LL;
    int hit = 0;
    for (i64 off = 0; off < m->lsq_count; off++) {
        i64 slot = (m->lsq_head + off) % m->lsq_cap;
        if (m->l_seq[slot] >= load_seq) break;
        if (m->l_is_store[slot] && m->l_known[slot] &&
            (m->l_addr[slot] & ~7LL) == target)
            hit = 1;
    }
    if (hit) m->st[ST_FORWARDED_LOADS]++;
    return hit;
}

/* Park behind the first older store with an unknown address; 1 if parked. */
static int lsq_park_blocked(Machine *m, i64 load_seq, int load_row) {
    for (i64 off = 0; off < m->lsq_count; off++) {
        i64 slot = (m->lsq_head + off) % m->lsq_cap;
        if (m->l_seq[slot] >= load_seq) break;
        if (m->l_is_store[slot] && !m->l_known[slot]) {
            int node = m->lw_free;
            if (node < 0) {
                m->status = RUN_INTERNAL;
                m->error = E_LW_POOL;
                return 0;
            }
            m->lw_free = m->lw_next[node];
            m->lw_seq[node] = load_seq;
            m->lw_row[node] = load_row;
            m->lw_next[node] = -1;
            if (m->l_wtail[slot] >= 0)
                m->lw_next[m->l_wtail[slot]] = node;
            else
                m->l_whead[slot] = node;
            m->l_wtail[slot] = node;
            return 1;
        }
    }
    return 0;
}

static i64 lsq_find_slot(Machine *m, i64 seq) {
    i64 lo = 0, hi = m->lsq_count;
    while (lo < hi) {
        i64 mid = (lo + hi) / 2;
        i64 slot = (m->lsq_head + mid) % m->lsq_cap;
        if (m->l_seq[slot] < seq) lo = mid + 1;
        else hi = mid;
    }
    if (lo < m->lsq_count) {
        i64 slot = (m->lsq_head + lo) % m->lsq_cap;
        if (m->l_seq[slot] == seq) return slot;
    }
    return -1;
}

static void make_issue_ready(Machine *m, int row);   /* fwd */

/* Address becomes known at issue (loads and stores alike); wake the
 * slot's parked loads in FIFO order. */
static void lsq_mark_address_known(Machine *m, i64 seq) {
    i64 slot = lsq_find_slot(m, seq);
    if (slot < 0) return;
    m->l_known[slot] = 1;
    int node = m->l_whead[slot];
    m->l_whead[slot] = -1;
    m->l_wtail[slot] = -1;
    while (node >= 0) {
        i64 wseq = m->lw_seq[node];
        int wrow = m->lw_row[node];
        int next = m->lw_next[node];
        m->lw_next[node] = m->lw_free;
        m->lw_free = node;
        if (ROW_LIVE(m, wrow, wseq))
            make_issue_ready(m, wrow);   /* may re-park on a later store */
        node = next;
    }
}

/* Commit-time removal; only the head is ever removed in practice. */
static void lsq_remove(Machine *m, i64 seq) {
    if (m->lsq_count > 0 && m->l_seq[m->lsq_head] == seq) {
        lsq_free_waiters(m, m->lsq_head);
        m->lsq_head = (m->lsq_head + 1) % m->lsq_cap;
        m->lsq_count--;
        return;
    }
    m->status = RUN_INTERNAL;
    m->error = E_LSQ_REMOVE;
}

static void lsq_squash_younger(Machine *m, i64 seq) {
    while (m->lsq_count > 0) {
        i64 slot = (m->lsq_head + m->lsq_count - 1) % m->lsq_cap;
        if (m->l_seq[slot] <= seq) break;
        lsq_free_waiters(m, slot);
        m->lsq_count--;
    }
}

static void lsq_clear(Machine *m) {
    for (i64 off = 0; off < m->lsq_count; off++)
        lsq_free_waiters(m, (m->lsq_head + off) % m->lsq_cap);
    m->lsq_head = 0;
    m->lsq_count = 0;
}

/* ------------------------------------------------------------------ */
/* Checkpoint stack (slot-indirected).                                */
/* ------------------------------------------------------------------ */
static void ck_push(Machine *m, i64 seq) {
    int slot = m->ck_freestack[--m->ck_nfree];
    m->ck_seq[slot] = seq;
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->ck_map[c] + (i64)slot * nl, m->map[c],
               (size_t)nl * sizeof(int));
        memcpy(m->ck_stale[c] + (i64)slot * nl, m->map_stale[c],
               (size_t)nl * sizeof(i8));
        if (m->policy != POLICY_CONV) {
            memcpy(m->ck_lus_seq[c] + (i64)slot * nl, m->lus_seq[c],
                   (size_t)nl * sizeof(i64));
            memcpy(m->ck_lus_slot[c] + (i64)slot * nl, m->lus_slot[c],
                   (size_t)nl * sizeof(i8));
        }
    }
    m->ck_order[m->ck_count++] = slot;
}

static void ck_confirm(Machine *m, i64 seq) {
    for (i64 i = 0; i < m->ck_count; i++) {
        int slot = m->ck_order[i];
        if (m->ck_seq[slot] == seq) {
            memmove(m->ck_order + i, m->ck_order + i + 1,
                    (size_t)(m->ck_count - i - 1) * sizeof(int));
            m->ck_count--;
            m->ck_freestack[m->ck_nfree++] = slot;
            return;
        }
    }
}

/* Restore the snapshot taken at seq and drop it plus everything younger. */
static void ck_mispredict(Machine *m, i64 seq) {
    i64 pos = -1;
    for (i64 i = 0; i < m->ck_count; i++)
        if (m->ck_seq[m->ck_order[i]] == seq) { pos = i; break; }
    if (pos < 0) return;
    int slot = m->ck_order[pos];
    for (i64 i = pos; i < m->ck_count; i++)
        m->ck_freestack[m->ck_nfree++] = m->ck_order[i];
    m->ck_count = pos;
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->map[c], m->ck_map[c] + (i64)slot * nl,
               (size_t)nl * sizeof(int));
        memcpy(m->map_stale[c], m->ck_stale[c] + (i64)slot * nl,
               (size_t)nl * sizeof(i8));
    }
    if (m->policy != POLICY_CONV) {
        for (int c = 0; c < 2; c++) {
            i64 nl = m->nlog[c];
            memcpy(m->lus_seq[c], m->ck_lus_seq[c] + (i64)slot * nl,
                   (size_t)nl * sizeof(i64));
            memcpy(m->lus_slot[c], m->ck_lus_slot[c] + (i64)slot * nl,
                   (size_t)nl * sizeof(i8));
        }
    }
}

static void ck_squash_clear(Machine *m) {
    for (i64 i = 0; i < m->ck_count; i++)
        m->ck_freestack[m->ck_nfree++] = m->ck_order[i];
    m->ck_count = 0;
}

static int ck_has_pending_younger(Machine *m, i64 seq) {
    return m->ck_count > 0 &&
           m->ck_seq[m->ck_order[m->ck_count - 1]] > seq;
}

/* ------------------------------------------------------------------ */
/* Release queues (extended policy), one per register class.          */
/* Levels keep Python-dict semantics: ordered, update-in-place.       */
/* ------------------------------------------------------------------ */
static void rq_push_level(Machine *m, int c, i64 branch_seq) {
    if (m->rq_count[c] >= m->rq_levels || m->rq_nfree[c] == 0) {
        m->status = RUN_INTERNAL;
        m->error = E_RQ_OVERFLOW;
        return;
    }
    int slot = m->rq_freestack[c][--m->rq_nfree[c]];
    RQLevel *lv = &m->rq_slots[c][slot];
    lv->branch_seq = branch_seq;
    lv->rwns_n = 0;
    lv->rwc_n = 0;
    m->rq_order[c][m->rq_count[c]++] = slot;
}

static void rwns_insert_or_update(Machine *m, RQLevel *lv, int phys,
                                  int logical, i64 nv) {
    for (int i = 0; i < lv->rwns_n; i++) {
        if (lv->rwns_phys[i] == phys && lv->rwns_log[i] == logical) {
            lv->rwns_nv[i] = nv;
            return;
        }
    }
    if (lv->rwns_n >= m->rq_rwns_cap) {
        m->status = RUN_INTERNAL;
        m->error = E_RQ_OVERFLOW;
        return;
    }
    lv->rwns_phys[lv->rwns_n] = phys;
    lv->rwns_log[lv->rwns_n] = logical;
    lv->rwns_nv[lv->rwns_n] = nv;
    lv->rwns_n++;
}

static void rwc_add_bit(Machine *m, RQLevel *lv, i64 lu_seq, int bit,
                        i64 nv) {
    int idx = -1;
    for (int i = 0; i < lv->rwc_n; i++)
        if (lv->rwc_lu[i] == lu_seq) { idx = i; break; }
    if (idx < 0) {
        if (lv->rwc_n >= m->rq_rwc_cap) {
            m->status = RUN_INTERNAL;
            m->error = E_RQ_OVERFLOW;
            return;
        }
        idx = lv->rwc_n++;
        lv->rwc_lu[idx] = lu_seq;
        lv->rwc_nbits[idx] = 0;
    }
    int *bits = lv->rwc_bits + idx * 4;
    i64 *nvs = lv->rwc_nv + idx * 4;
    for (int b = 0; b < lv->rwc_nbits[idx]; b++) {
        if (bits[b] == bit) {
            nvs[b] = nv;
            return;
        }
    }
    int nb = lv->rwc_nbits[idx]++;
    bits[nb] = bit;
    nvs[nb] = nv;
}

#define RQ_TAIL(m, c) \
    (&(m)->rq_slots[c][(m)->rq_order[c][(m)->rq_count[c] - 1]])

static void rq_schedule_committed(Machine *m, int c, int phys, int logical,
                                  i64 nv_seq) {
    rwns_insert_or_update(m, RQ_TAIL(m, c), phys, logical, nv_seq);
}

static void rq_schedule_inflight(Machine *m, int c, i64 lu_seq, int bit,
                                 i64 nv_seq) {
    rwc_add_bit(m, RQ_TAIL(m, c), lu_seq, bit, nv_seq);
}

/* The slot a mask bit names: bit 8 = destination, bits 1/2/4 = sources. */
static void phys_of_slot(Machine *m, int row, int bit, int *cls, int *phys,
                         int *logical) {
    if (bit == 8) {
        *cls = m->r_dest_class[row];
        *phys = m->r_pd[row];
        *logical = m->r_dest_log[row];
    } else {
        int slot = (bit == 1) ? 0 : (bit == 2) ? 1 : 2;
        *cls = m->r_src_class[row * MAX_SRCS + slot];
        *phys = m->r_src_phys[row * MAX_SRCS + slot];
        *logical = m->r_src_log[row * MAX_SRCS + slot];
    }
}

/* A scheduled LU commits: resolve its pending slot-bits into RwNS
 * entries of whichever levels carry them. */
static void rq_on_lu_commit(Machine *m, int c, i64 lu_seq, int row) {
    for (i64 i = 0; i < m->rq_count[c]; i++) {
        RQLevel *lv = &m->rq_slots[c][m->rq_order[c][i]];
        int idx = -1;
        for (int k = 0; k < lv->rwc_n; k++)
            if (lv->rwc_lu[k] == lu_seq) { idx = k; break; }
        if (idx < 0) continue;
        int *bits = lv->rwc_bits + idx * 4;
        i64 *nvs = lv->rwc_nv + idx * 4;
        for (int b = 0; b < lv->rwc_nbits[idx]; b++) {
            int sc, sp, sl;
            phys_of_slot(m, row, bits[b], &sc, &sp, &sl);
            rwns_insert_or_update(m, lv, sp, sl, nvs[b]);
        }
        memmove(lv->rwc_lu + idx, lv->rwc_lu + idx + 1,
                (size_t)(lv->rwc_n - idx - 1) * sizeof(i64));
        memmove(lv->rwc_nbits + idx, lv->rwc_nbits + idx + 1,
                (size_t)(lv->rwc_n - idx - 1) * sizeof(int));
        memmove(lv->rwc_bits + idx * 4, lv->rwc_bits + (idx + 1) * 4,
                (size_t)(lv->rwc_n - idx - 1) * 4 * sizeof(int));
        memmove(lv->rwc_nv + idx * 4, lv->rwc_nv + (idx + 1) * 4,
                (size_t)(lv->rwc_n - idx - 1) * 4 * sizeof(i64));
        lv->rwc_n--;
    }
}

static void rq_on_branch_confirmed(Machine *m, int c, i64 seq) {
    i64 index = -1;
    for (i64 i = 0; i < m->rq_count[c]; i++)
        if (m->rq_slots[c][m->rq_order[c][i]].branch_seq == seq) {
            index = i;
            break;
        }
    if (index < 0) return;
    int slot = m->rq_order[c][index];
    RQLevel *lv = &m->rq_slots[c][slot];
    memmove(m->rq_order[c] + index, m->rq_order[c] + index + 1,
            (size_t)(m->rq_count[c] - index - 1) * sizeof(int));
    m->rq_count[c]--;
    if (index == 0) {
        /* Oldest level confirmed: fire RwNS releases, promote RwC bits
         * onto their (still in-flight) LU entries' early-release masks. */
        for (int i = 0; i < lv->rwns_n; i++)
            release_physical(m, c, lv->rwns_phys[i], lv->rwns_log[i],
                             m->cycle, 1);
        for (int k = 0; k < lv->rwc_n; k++) {
            int mask = 0;
            for (int b = 0; b < lv->rwc_nbits[k]; b++)
                mask |= lv->rwc_bits[k * 4 + b];
            int lrow = ros_find(m, lv->rwc_lu[k]);
            if (lrow < 0) {
                m->status = RUN_INTERNAL;
                m->error = E_RWC_MISSING;
                return;
            }
            m->r_mask[lrow] |= mask;
        }
    } else {
        /* Inner level: merge into the next-older one. */
        RQLevel *older = &m->rq_slots[c][m->rq_order[c][index - 1]];
        for (int i = 0; i < lv->rwns_n; i++)
            rwns_insert_or_update(m, older, lv->rwns_phys[i],
                                  lv->rwns_log[i], lv->rwns_nv[i]);
        for (int k = 0; k < lv->rwc_n; k++)
            for (int b = 0; b < lv->rwc_nbits[k]; b++)
                rwc_add_bit(m, older, lv->rwc_lu[k],
                            lv->rwc_bits[k * 4 + b], lv->rwc_nv[k * 4 + b]);
    }
    m->rq_freestack[c][m->rq_nfree[c]++] = slot;
}

/* Drop every scheduling requested by a squashed next-version. */
static void rq_cancel_younger(Machine *m, int c, i64 seq) {
    for (i64 i = 0; i < m->rq_count[c]; i++) {
        RQLevel *lv = &m->rq_slots[c][m->rq_order[c][i]];
        int n = 0;
        for (int k = 0; k < lv->rwns_n; k++) {
            if (lv->rwns_nv[k] <= seq) {
                lv->rwns_phys[n] = lv->rwns_phys[k];
                lv->rwns_log[n] = lv->rwns_log[k];
                lv->rwns_nv[n] = lv->rwns_nv[k];
                n++;
            }
        }
        lv->rwns_n = n;
        n = 0;
        for (int k = 0; k < lv->rwc_n; k++) {
            int nb = 0;
            for (int b = 0; b < lv->rwc_nbits[k]; b++) {
                if (lv->rwc_nv[k * 4 + b] <= seq) {
                    lv->rwc_bits[k * 4 + nb] = lv->rwc_bits[k * 4 + b];
                    lv->rwc_nv[k * 4 + nb] = lv->rwc_nv[k * 4 + b];
                    nb++;
                }
            }
            if (nb > 0) {
                lv->rwc_lu[n] = lv->rwc_lu[k];
                lv->rwc_nbits[n] = nb;
                if (n != k) {
                    memmove(lv->rwc_bits + n * 4, lv->rwc_bits + k * 4,
                            4 * sizeof(int));
                    memmove(lv->rwc_nv + n * 4, lv->rwc_nv + k * 4,
                            4 * sizeof(i64));
                }
                n++;
            }
        }
        lv->rwc_n = n;
    }
}

static void rq_on_branch_mispredicted(Machine *m, int c, i64 seq) {
    i64 index = -1;
    for (i64 i = 0; i < m->rq_count[c]; i++)
        if (m->rq_slots[c][m->rq_order[c][i]].branch_seq == seq) {
            index = i;
            break;
        }
    if (index >= 0) {
        for (i64 i = index; i < m->rq_count[c]; i++)
            m->rq_freestack[c][m->rq_nfree[c]++] = m->rq_order[c][i];
        m->rq_count[c] = index;
    }
    rq_cancel_younger(m, c, seq);
}

static void rq_clear(Machine *m, int c) {
    for (i64 i = 0; i < m->rq_count[c]; i++)
        m->rq_freestack[c][m->rq_nfree[c]++] = m->rq_order[c][i];
    m->rq_count[c] = 0;
}

/* ------------------------------------------------------------------ */
/* Release-policy hooks.                                              */
/* ------------------------------------------------------------------ */
/* Destination-rename outcomes. */
enum { OUT_ALLOC_NOREL = 0, OUT_ALLOC_REL = 1, OUT_REUSE = 2 };

static void fire_early_mask(Machine *m, int c, int row) {
    int mask = m->r_mask[row];
    for (int bit = 1; bit <= 8; bit <<= 1) {
        if (!(mask & bit)) continue;
        int sc, sp, sl;
        phys_of_slot(m, row, bit, &sc, &sp, &sl);
        if (sc == c) release_physical(m, c, sp, sl, m->cycle, 1);
    }
}

static void policy_on_commit(Machine *m, int c, int row) {
    int dc = m->r_dest_class[row];
    int dl = m->r_dest_log[row];
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    if (m->policy == POLICY_CONV) {
        if (dc == c) {
            if (m->r_rel_old[row] && m->r_allocated_new[row] &&
                m->r_old_pd[row] >= 0) {
                release_physical(m, c, m->r_old_pd[row], dl, m->cycle, 0);
                rf[RF_CONVENTIONAL_RELEASES]++;
            }
            m->arch_released[c][dl] = 0;
        }
        return;
    }
    if (dc == c) m->arch_released[c][dl] = 0;
    fire_early_mask(m, c, row);
    if (m->policy == POLICY_BASIC) {
        if (dc == c && m->r_rel_old[row] && m->r_allocated_new[row] &&
            m->r_old_pd[row] >= 0) {
            release_physical(m, c, m->r_old_pd[row], dl, m->cycle, 0);
            rf[RF_CONVENTIONAL_RELEASES]++;
        }
    } else {
        rq_on_lu_commit(m, c, m->r_seq[row], row);
    }
}

/* The per-destination release decision at rename time. */
static int rename_destination(Machine *m, int c, int row, int logical,
                              int old_pd, i64 this_seq) {
    i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
    if (m->map_stale[c][logical]) return OUT_ALLOC_NOREL;
    if (m->policy == POLICY_CONV) return OUT_ALLOC_REL;

    i64 lu_seq = m->lus_seq[c][logical];
    if (m->policy == POLICY_BASIC) {
        if (lu_seq < 0) return OUT_ALLOC_REL;
        if (ck_has_pending_younger(m, lu_seq)) return OUT_ALLOC_REL;
        if (lu_seq <= m->committed_watermark) {
            if (m->reuse_on_committed_lu) {
                rf[RF_REGISTER_REUSES]++;
                return OUT_REUSE;
            }
            release_physical(m, c, old_pd, logical, m->cycle, 1);
            rf[RF_IMMEDIATE_RELEASES]++;
            return OUT_ALLOC_NOREL;
        }
        int lu_row = ros_find(m, lu_seq);
        if (lu_row < 0) return OUT_ALLOC_REL;
        int bit = (m->lus_slot[c][logical] == 3)
                      ? 8 : (1 << m->lus_slot[c][logical]);
        int sc, sp, sl;
        phys_of_slot(m, lu_row, bit, &sc, &sp, &sl);
        if (sp != old_pd) return OUT_ALLOC_REL;
        m->r_mask[lu_row] |= bit;
        rf[RF_SCHEDULED_EARLY_RELEASES]++;
        return OUT_ALLOC_NOREL;
    }

    /* extended */
    int pending = (int)m->ck_count;
    if (lu_seq < 0 || lu_seq <= m->committed_watermark) {
        if (pending == 0) {
            if (m->reuse_on_committed_lu) {
                rf[RF_REGISTER_REUSES]++;
                return OUT_REUSE;
            }
            release_physical(m, c, old_pd, logical, m->cycle, 1);
            rf[RF_IMMEDIATE_RELEASES]++;
            return OUT_ALLOC_NOREL;
        }
        rq_schedule_committed(m, c, old_pd, logical, this_seq);
        rf[RF_CONDITIONAL_SCHEDULINGS]++;
        return OUT_ALLOC_NOREL;
    }
    int lu_row = (lu_seq == this_seq) ? row : ros_find(m, lu_seq);
    if (lu_row < 0) {
        if (pending == 0) {
            release_physical(m, c, old_pd, logical, m->cycle, 1);
            rf[RF_IMMEDIATE_RELEASES]++;
            return OUT_ALLOC_NOREL;
        }
        rq_schedule_committed(m, c, old_pd, logical, this_seq);
        rf[RF_CONDITIONAL_SCHEDULINGS]++;
        return OUT_ALLOC_NOREL;
    }
    int bit = (m->lus_slot[c][logical] == 3)
                  ? 8 : (1 << m->lus_slot[c][logical]);
    int sc, sp, sl;
    phys_of_slot(m, lu_row, bit, &sc, &sp, &sl);
    if (sp != old_pd) {
        m->status = RUN_INTERNAL;     /* Python asserts here */
        m->error = E_SLOT_MISMATCH;
        return OUT_ALLOC_NOREL;
    }
    if (pending == 0) {
        m->r_mask[lu_row] |= bit;
        rf[RF_SCHEDULED_EARLY_RELEASES]++;
        return OUT_ALLOC_NOREL;
    }
    rq_schedule_inflight(m, c, lu_seq, bit, this_seq);
    rf[RF_CONDITIONAL_SCHEDULINGS]++;
    return OUT_ALLOC_NOREL;
}

/* Can this destination rename proceed with an empty free list? */
static int may_avoid_allocation(Machine *m, int c, int logical, DQEnt *d) {
    if (m->policy == POLICY_CONV) return 0;
    if (m->map_stale[c][logical]) return 0;
    for (int s = 0; s < d->nsrc; s++)
        if (d->src_class[s] == c && d->src_log[s] == logical) return 0;
    i64 lu_seq = m->lus_seq[c][logical];
    if (lu_seq < 0) return m->policy == POLICY_EXTENDED && m->ck_count == 0;
    if (ck_has_pending_younger(m, lu_seq)) return 0;
    if (lu_seq > m->committed_watermark) return 0;
    if (m->policy == POLICY_EXTENDED && m->ck_count > 0) return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Squash / recovery machinery.                                       */
/* ------------------------------------------------------------------ */
static void make_issue_ready(Machine *m, int row) {
    if (IS_LOAD(m->r_op[row]) &&
        lsq_park_blocked(m, m->r_seq[row], row))
        return;
    ready_add(m, row);
}

/* Undo rename effects of already-squash-marked rows (youngest first). */
static void undo_squashed(Machine *m, int *rows, i64 n) {
    m->st[ST_SQUASHED_INSTRUCTIONS] += n;
    i64 nfreed[2] = {0, 0};
    for (i64 i = 0; i < n; i++) {
        int row = rows[i];
        int dc = m->r_dest_class[row];
        if (dc >= 0) {
            if (m->r_allocated_new[row]) {
                m->freed_reg[dc][nfreed[dc]++] = m->r_pd[row];
            } else if (m->r_reused[row]) {
                m->producer_seq[dc][m->r_pd[row]] = -1;
                m->producer_row[dc][m->r_pd[row]] = -1;
            }
        }
        wk_drop(m, row);
        ready_discard(m, row);
    }
    for (int c = 0; c < 2; c++) {
        for (i64 k = 0; k < nfreed[c]; k++) {
            int reg = m->freed_reg[c][k];
            if (!fl_push(m, c, reg)) return;
            m->producer_seq[c][reg] = -1;
            m->producer_row[c][reg] = -1;
            occ_attribute(m, c, reg, m->cycle);
            m->occ_alloc[c][reg] = -1;
            m->occ_write[c][reg] = -1;
            m->occ_lu[c][reg] = -1;
        }
        m->st[(c ? ST_RF_FP : ST_RF_INT) + RF_RELEASES] += nfreed[c];
    }
}

/* Mark everything younger than seq squashed; fills rows youngest-first. */
static i64 ros_squash_younger(Machine *m, i64 seq, int *rows) {
    i64 keep = m->ros_count;
    while (keep > 0 && m->r_seq[ROS_ROW(m, keep - 1)] > seq) keep--;
    i64 n = 0;
    for (i64 off = m->ros_count - 1; off >= keep; off--) {
        int row = ROS_ROW(m, off);
        m->r_squashed[row] = 1;
        m->r_completed[row] = 0;
        m->r_exception[row] = 0;
        rows[n++] = row;
    }
    m->ros_count = keep;
    return n;
}

static void fetch_recover(Machine *m, i64 cursor) {
    m->cursor = cursor;
    m->on_wrong_path = 0;
}

static void recover_from_misprediction(Machine *m, int row) {
    m->r_mask[row] = 0;
    i64 seq = m->r_seq[row];
    i64 n = ros_squash_younger(m, seq, m->scratch_rows);
    undo_squashed(m, m->scratch_rows, n);
    lsq_squash_younger(m, seq);
    if (m->policy == POLICY_EXTENDED) {
        rq_on_branch_mispredicted(m, 0, seq);
        rq_on_branch_mispredicted(m, 1, seq);
    }
    ck_mispredict(m, seq);
    m->dq_head = 0;
    m->dq_count = 0;
    if (m->r_resume[row] >= 0) fetch_recover(m, m->r_resume[row]);
}

static void exception_flush(Machine *m, int exc_row) {
    i64 n = 0;
    for (i64 off = m->ros_count - 1; off >= 0; off--) {
        int row = ROS_ROW(m, off);
        m->r_squashed[row] = 1;
        m->r_completed[row] = 0;
        m->r_exception[row] = 0;
        m->scratch_rows[n++] = row;
    }
    m->ros_count = 0;
    undo_squashed(m, m->scratch_rows, n);
    lsq_clear(m);
    ck_squash_clear(m);
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        memcpy(m->map[c], m->iomt[c], (size_t)nl * sizeof(int));
        memset(m->map_stale[c], 0, (size_t)nl * sizeof(i8));
    }
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        for (i64 log = 0; log < nl; log++)
            if (m->arch_released[c][log]) m->map_stale[c][log] = 1;
        if (m->policy != POLICY_CONV) fill_i64(m->lus_seq[c], nl, -1);
        if (m->policy == POLICY_EXTENDED) rq_clear(m, c);
    }
    m->dq_head = 0;
    m->dq_count = 0;
    if (m->r_resume[exc_row] >= 0) fetch_recover(m, m->r_resume[exc_row]);
}

/* ------------------------------------------------------------------ */
/* Stage: commit.                                                     */
/* ------------------------------------------------------------------ */
static void commit_stage(Machine *m) {
    i64 retire = ros_completed_prefix(m, m->cfg[CFG_COMMIT_W]);
    if (retire == 0) return;
    i64 exc_at = ros_exception_in_prefix(m, retire);
    if (exc_at >= 0) retire = exc_at + 1;
    i64 start = m->ros_head;
    /* retire_prefix removes the rows from the window first; the
     * per-entry processing below must not see them in lookups. */
    m->ros_head = (m->ros_head + retire) % m->ros_cap;
    m->ros_count -= retire;
    int last_row = -1;
    for (i64 i = 0; i < retire; i++) {
        int row = (int)((start + i) % m->ros_cap);
        m->r_completed[row] = 0;
        m->r_exception[row] = 0;
        int op = m->r_op[row];
        m->st[ST_BY_CLASS + op]++;
        m->committed_watermark = m->r_seq[row];
        int dc = m->r_dest_class[row];
        if (dc >= 0) m->iomt[dc][m->r_dest_log[row]] = m->r_pd[row];
        policy_on_commit(m, 0, row);
        policy_on_commit(m, 1, row);
        for (int s = 0; s < m->r_nsrc[row]; s++) {
            int sc = m->r_src_class[row * MAX_SRCS + s];
            m->occ_lu[sc][m->r_src_phys[row * MAX_SRCS + s]] = m->cycle;
        }
        if (dc >= 0) m->occ_lu[dc][m->r_pd[row]] = m->cycle;
        if (IS_MEM(op)) {
            if (IS_STORE(op)) MEM_DWRITE(m, m->r_addr[row]);
            lsq_remove(m, m->r_seq[row]);
        }
        last_row = row;
        if (m->status) return;
    }
    m->st[ST_COMMITTED_INSTRUCTIONS] += retire;
    m->last_commit_cycle = m->cycle;
    if (exc_at >= 0) {
        m->st[ST_EXCEPTIONS_TAKEN]++;
        exception_flush(m, last_row);
    }
}

/* ------------------------------------------------------------------ */
/* Stage: writeback.                                                  */
/* ------------------------------------------------------------------ */
static void wake_consumers(Machine *m, int prow) {
    int node = m->r_wk_head[prow];
    m->r_wk_head[prow] = -1;
    m->r_wk_tail[prow] = -1;
    i64 pseq = m->r_seq[prow];
    while (node >= 0) {
        i64 cseq = m->wk_seq[node];
        int crow = m->wk_row[node];
        int next = m->wk_next[node];
        m->wk_next[node] = m->wk_free;
        m->wk_free = node;
        if (ROW_LIVE(m, crow, cseq)) {
            wait_discard(m, crow, pseq);
            if (m->r_nwait[crow] == 0 && !m->r_issued[crow])
                make_issue_ready(m, crow);
        }
        node = next;
    }
}

static void resolve_branch(Machine *m, int row) {
    int taken = m->r_taken[row];
    /* History repair compares against the predictor's own (raw) direction,
     * not the BTB-gated front-end decision — a gated-down taken prediction
     * still counts as the predictor being wrong. */
    if (m->r_has_pred[row])
        gs_resolve(m, m->r_pred_idx[row], m->r_pred_hist[row], taken,
                   m->r_pred_raw[row]);
    if (taken) btb_update(m, m->r_pc[row], m->r_target[row]);
    if (!m->r_wrong_path[row]) m->st[ST_BRANCHES_RESOLVED]++;
    if (m->r_fetch_mispred[row]) {
        m->st[ST_BRANCH_MISPREDICTIONS]++;
        recover_from_misprediction(m, row);
    } else {
        i64 seq = m->r_seq[row];
        ck_confirm(m, seq);
        if (m->policy == POLICY_EXTENDED) {
            rq_on_branch_confirmed(m, 0, seq);
            if (m->status) return;
            rq_on_branch_confirmed(m, 1, seq);
        }
    }
}

static void writeback_stage(Machine *m) {
    i64 idx = m->cycle & m->cq_mask;
    int node = m->cq_bucket[idx];
    if (node < 0) return;
    m->cq_bucket[idx] = -1;
    m->cq_tail[idx] = -1;
    while (node >= 0) {
        i64 seq = m->cq_seq[node];
        int row = m->cq_row[node];
        int next = m->cq_next[node];
        m->cq_next[node] = m->cq_free;
        m->cq_free = node;
        /* Per-node liveness at processing time: a branch recovery midway
         * through this bucket squashes later same-bucket entries. */
        if (ROW_LIVE(m, row, seq)) {
            m->r_completed[row] = 1;
            int dc = m->r_dest_class[row];
            if (dc >= 0) mark_written(m, dc, m->r_pd[row], m->cycle);
            wake_consumers(m, row);
            if (IS_BRANCH(m->r_op[row])) resolve_branch(m, row);
            if (m->status) return;
        }
        node = next;
    }
}

/* ------------------------------------------------------------------ */
/* Stage: issue.                                                      */
/* ------------------------------------------------------------------ */
static void issue_stage(Machine *m) {
    if (m->rdy_count == 0) return;
    i64 width = m->cfg[CFG_ISSUE_W];
    i64 issued = 0, nblocked = 0;
    while (issued < width && m->rdy_count > 0) {
        int row = ready_pop(m);
        int op = m->r_op[row];
        i64 lat = fu_try_issue(m, op, m->cycle);
        if (lat < 0) {
            m->st[ST_STRUCTURAL_STALLS]++;
            m->blocked_rows[nblocked++] = row;
            continue;
        }
        m->r_issued[row] = 1;
        issued++;
        i64 seq = m->r_seq[row];
        if (IS_MEM(op)) lsq_mark_address_known(m, seq);
        i64 at;
        if (IS_LOAD(op)) {
            i64 mem_lat = lsq_store_forwards(m, seq, m->r_addr[row])
                              ? 1 : MEM_DREAD(m, m->r_addr[row]);
            at = m->cycle + lat + mem_lat;
        } else {
            at = m->cycle + lat;
        }
        cq_schedule(m, at, seq, row);
        if (m->status) return;
    }
    for (i64 i = 0; i < nblocked; i++) ready_add(m, m->blocked_rows[i]);
}

/* ------------------------------------------------------------------ */
/* Stage: rename.                                                     */
/* ------------------------------------------------------------------ */
static int dispatch_hazard(Machine *m, DQEnt *d) {
    if (m->ros_count >= m->ros_cap) return ST_STALL_ROS_FULL;
    if (IS_MEM(d->op) && m->lsq_count >= m->lsq_cap) return ST_STALL_LSQ_FULL;
    if (IS_BRANCH(d->op) && m->ck_count >= m->ck_cap)
        return ST_STALL_CHECKPOINTS_FULL;
    if (d->dest_class >= 0) {
        int c = d->dest_class;
        if (m->fl_count[c] == 0 && !may_avoid_allocation(m, c, d->dest, d))
            return c ? ST_STALL_NO_FREE_FP_REGISTER
                     : ST_STALL_NO_FREE_INT_REGISTER;
    }
    return -1;
}

static void rename_one(Machine *m, DQEnt *d) {
    int row = (int)((m->ros_head + m->ros_count) % m->ros_cap);
    i64 seq = m->seq++;
    /* begin_rename: reset the row; the entry stays unpublished (count is
     * bumped at the end) so policy lookups cannot see it mid-rename. */
    wk_drop(m, row);
    m->r_seq[row] = seq;
    m->r_op[row] = d->op;
    m->r_pc[row] = d->pc;
    m->r_target[row] = d->target;
    m->r_addr[row] = d->addr;
    m->r_resume[row] = d->resume_cursor;
    m->r_pred_idx[row] = d->pred_idx;
    m->r_pred_hist[row] = d->pred_hist;
    m->r_has_pred[row] = (i8)d->has_pred;
    m->r_pred_taken[row] = (i8)d->pred_taken;
    m->r_pred_raw[row] = (i8)d->pred_raw;
    m->r_taken[row] = (i8)d->taken;
    m->r_wrong_path[row] = (i8)d->wrong_path;
    m->r_fetch_mispred[row] = (i8)d->mispredicted;
    m->r_completed[row] = 0;
    m->r_squashed[row] = 0;
    m->r_exception[row] = 0;
    m->r_issued[row] = 0;
    m->r_allocated_new[row] = 0;
    m->r_reused[row] = 0;
    m->r_rel_old[row] = 0;
    m->r_in_ready[row] = 0;
    m->r_mask[row] = 0;
    m->r_nwait[row] = 0;
    m->r_nsrc[row] = d->nsrc;
    m->r_dest_class[row] = -1;
    m->r_dest_log[row] = -1;
    m->r_pd[row] = -1;
    m->r_old_pd[row] = -1;

    for (int s = 0; s < d->nsrc; s++) {
        int rc = d->src_class[s];
        int log = d->src_log[s];
        int phys = m->map[rc][log];
        m->r_src_class[row * MAX_SRCS + s] = rc;
        m->r_src_log[row * MAX_SRCS + s] = log;
        m->r_src_phys[row * MAX_SRCS + s] = phys;
        /* A store's slot 0 is the value operand: it does not take part
         * in wakeup (stores read it at commit), but the LUs table still
         * records the read. */
        if (!(IS_STORE(d->op) && s == 0)) {
            i64 pseq = m->producer_seq[rc][phys];
            if (pseq >= 0) {
                int dup = 0;
                for (int w = 0; w < m->r_nwait[row]; w++)
                    if (m->r_wait[row * MAX_SRCS + w] == pseq) {
                        dup = 1;
                        break;
                    }
                if (!dup)
                    m->r_wait[row * MAX_SRCS + m->r_nwait[row]++] = pseq;
                wk_register(m, m->producer_row[rc][phys], seq, row);
                if (m->status) return;
            }
        }
        if (m->policy != POLICY_CONV) {
            m->lus_seq[rc][log] = seq;
            m->lus_slot[rc][log] = (i8)s;
        }
    }

    if (d->dest_class >= 0) {
        int c = d->dest_class, dl = d->dest;
        int old_pd = m->map[c][dl];
        int out = rename_destination(m, c, row, dl, old_pd, seq);
        if (m->status) return;
        int pd;
        if (out == OUT_REUSE) {
            pd = old_pd;
            m->r_reused[row] = 1;
            m->producer_seq[c][pd] = seq;
            m->producer_row[c][pd] = row;
        } else {
            pd = rf_allocate(m, c, m->cycle, seq, row);
            if (pd < 0) return;
            m->map[c][dl] = pd;
            m->map_stale[c][dl] = 0;
            m->r_allocated_new[row] = 1;
        }
        m->r_dest_class[row] = c;
        m->r_dest_log[row] = dl;
        m->r_pd[row] = pd;
        m->r_old_pd[row] = old_pd;
        m->r_rel_old[row] = (i8)(out == OUT_ALLOC_REL);
        if (m->policy != POLICY_CONV) {
            m->lus_seq[c][dl] = seq;
            m->lus_slot[c][dl] = 3;       /* DST_SLOT */
        }
    }

    if (IS_BRANCH(d->op)) {
        ck_push(m, seq);
        if (m->policy == POLICY_EXTENDED) {
            rq_push_level(m, 0, seq);
            rq_push_level(m, 1, seq);
            if (m->status) return;
        }
    }
    if (IS_MEM(d->op)) lsq_insert(m, seq, IS_STORE(d->op), d->addr);

    int exception = 0;
    if (m->exc_enabled && !d->wrong_path)
        exception = m->exc_buf[m->exc_head++] < m->exception_rate;

    m->ros_count++;                       /* push: publish the entry */
    if (exception) {
        m->r_exception[row] = 1;
        m->seen_exception = 1;
    }
    m->st[ST_RENAMED_INSTRUCTIONS]++;
    if (d->op == OP_NOP) {
        cq_schedule(m, m->cycle + 1, seq, row);
        m->r_issued[row] = 1;
    } else if (m->r_nwait[row] == 0) {
        make_issue_ready(m, row);
    }
}

static void rename_stage(Machine *m) {
    i64 width = m->cfg[CFG_RENAME_W];
    for (i64 k = 0; k < width; k++) {
        if (m->dq_count == 0) break;
        DQEnt *d = &m->dq[m->dq_head];
        if (d->ready_cycle > m->cycle) break;
        int stall = dispatch_hazard(m, d);
        if (stall >= 0) {
            m->st[stall]++;
            break;
        }
        m->dq_head = (m->dq_head + 1) % m->dq_cap;
        m->dq_count--;
        rename_one(m, d);
        if (m->status) return;
    }
}

/* ------------------------------------------------------------------ */
/* Stage: fetch.                                                      */
/* ------------------------------------------------------------------ */
static void fetch_stage(Machine *m) {
    if (m->dq_count >= m->decode_capacity) return;
    if (m->cycle < m->stall_until) return;
    /* The group's leading pc probes the I-cache even when the wrong-path
     * generator is disabled (fetch then idles on the wrong path). */
    i64 leading_pc = -1;
    int have_leading = 0;
    if (m->on_wrong_path) {
        leading_pc = m->wp_pc;
        have_leading = 1;
    } else if (m->cursor < m->trace_len) {
        leading_pc = m->t_pc[m->cursor];
        have_leading = 1;
    }
    if (have_leading) {
        i64 latency = MEM_IACCESS(m, leading_pc);
        if (latency > 1) {
            m->stall_until = m->cycle + latency;
            return;
        }
    }
    i64 fw = m->cfg[CFG_FETCH_W];
    i64 taken_seen = 0;
    for (i64 k = 0; k < fw; k++) {
        DQEnt d;
        memset(&d, 0, sizeof d);
        d.pred_idx = -1;
        d.resume_cursor = -1;
        if (m->on_wrong_path) {
            if (!m->wp_enabled) break;
            i64 pi = m->wp_head++;
            i64 pc0 = m->wp_pc;
            m->wp_pc += 4;
            d.op = (int)m->w_op[pi];
            d.pc = pc0;
            d.dest_class = (int)m->w_dc[pi];
            d.dest = (int)m->w_dest[pi];
            d.nsrc = (int)m->w_nsrc[pi];
            for (int s = 0; s < d.nsrc; s++) {
                d.src_class[s] = (int)m->w_src_class[pi * WP_MAX_SRCS + s];
                d.src_log[s] = (int)m->w_src_log[pi * WP_MAX_SRCS + s];
            }
            d.addr = m->w_addr[pi];
            d.wrong_path = 1;
            if (IS_BRANCH(d.op)) {
                i64 idx, hist;
                int pred;
                gs_predict(m, pc0, &idx, &hist, &pred);
                d.pred_raw = pred;
                if (pred && btb_lookup(m, pc0) < 0) pred = 0;
                d.has_pred = 1;
                d.pred_idx = idx;
                d.pred_hist = hist;
                d.pred_taken = pred;
                d.taken = pred;
                d.target = pred ? pc0 + m->w_tdelta[pi] * 4 : pc0 + 4;
                if (pred) m->wp_pc = d.target;
            }
        } else {
            if (m->cursor >= m->trace_len) break;
            i64 i = m->cursor++;
            d.op = (int)m->t_op[i];
            d.pc = m->t_pc[i];
            d.dest_class = (int)m->t_dc[i];
            d.dest = (int)m->t_dest[i];
            d.nsrc = (int)m->t_nsrc[i];
            for (int s = 0; s < d.nsrc; s++) {
                d.src_class[s] = (int)m->t_src_class[i * MAX_SRCS + s];
                d.src_log[s] = (int)m->t_src_log[i * MAX_SRCS + s];
            }
            d.addr = m->t_addr[i];
            d.taken = (int)m->t_taken[i];
            d.target = m->t_target[i];
            d.resume_cursor = m->cursor;
            if (IS_BRANCH(d.op)) {
                i64 idx, hist;
                int pred;
                gs_predict(m, d.pc, &idx, &hist, &pred);
                d.pred_raw = pred;
                if (pred && btb_lookup(m, d.pc) < 0) pred = 0;
                d.has_pred = 1;
                d.pred_idx = idx;
                d.pred_hist = hist;
                d.pred_taken = pred;
                d.mispredicted = (pred != d.taken);
                if (d.mispredicted) {
                    m->on_wrong_path = 1;
                    m->wp_pc = pred ? d.target : d.pc + 4;
                }
            }
        }
        d.ready_cycle = m->cycle + m->cfg[CFG_FRONTEND];
        m->dq[(m->dq_head + m->dq_count) % m->dq_cap] = d;
        m->dq_count++;
        m->st[ST_FETCHED_INSTRUCTIONS]++;
        if (d.wrong_path) m->st[ST_FETCHED_WRONG_PATH]++;
        if (IS_BRANCH(d.op) && d.pred_taken) {
            taken_seen++;
            if (taken_seen >= m->cfg[CFG_MAX_TAKEN]) break;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Run loop.                                                          */
/* ------------------------------------------------------------------ */
static void finalize_stats(Machine *m) {
    if (m->finalized) return;
    m->finalized = 1;
    for (int c = 0; c < 2; c++) {
        for (i64 reg = 0; reg < m->nphys[c]; reg++)
            if (!m->fl_is_free[c][reg]) occ_attribute(m, c, reg, m->cycle);
        i64 *rf = m->st + (c ? ST_RF_FP : ST_RF_INT);
        rf[RF_OCC_EMPTY] = m->occ_empty[c];
        rf[RF_OCC_READY] = m->occ_ready[c];
        rf[RF_OCC_IDLE] = m->occ_idle[c];
    }
}

/* Warm-up pass: exact port of MachineState._warm_state.  Each warm-up
 * instruction touches the I-cache, the data caches (loads/stores) and —
 * for branches — the predictor (speculative-history predict + resolve)
 * and the BTB (update only when taken; no lookup, matching the Python
 * pass).  The warmed structures keep their contents; every statistic
 * they incremented is zeroed afterwards, exactly like the Python
 * reset_statistics() calls at the warm/measure boundary. */
static void warmup_pass(Machine *m) {
    if (m->warm_len <= 0) return;
    for (i64 i = 0; i < m->warm_len; i++) {
        int op = (int)m->wu_op[i];
        i64 pc = m->wu_pc[i];
        MEM_IACCESS(m, pc);
        if (IS_MEM(op)) {
            if (IS_STORE(op)) MEM_DWRITE(m, m->wu_addr[i]);
            else MEM_DREAD(m, m->wu_addr[i]);
        }
        if (IS_BRANCH(op)) {
            i64 idx, hist;
            int pred;
            int taken = m->wu_taken[i] != 0;
            gs_predict(m, pc, &idx, &hist, &pred);
            gs_resolve(m, idx, hist, taken, pred);
            if (taken) btb_update(m, pc, m->wu_target[i]);
        }
    }
    for (int s = ST_BTB_HITS; s <= ST_L2_MISSES; s++) m->st[s] = 0;
}

int sim_run(Machine *m) {
    if (m->status == RUN_INTERNAL) return m->status;
    if (!m->warm_done) {
        m->warm_done = 1;
        warmup_pass(m);
    }
    m->status = RUN_FINISHED;
    for (;;) {
        if (m->max_cycles >= 0 && m->cycle >= m->max_cycles) break;
        /* Refill escapes keep a full cycle's worth of draws buffered so
         * no stage ever blocks mid-cycle. */
        if (m->wp_enabled &&
            m->wp_count - m->wp_head < m->cfg[CFG_FETCH_W]) {
            m->status = RUN_NEED_WRONGPATH;
            return m->status;
        }
        if (m->exc_enabled &&
            m->exc_count - m->exc_head < m->cfg[CFG_RENAME_W]) {
            m->status = RUN_NEED_EXC;
            return m->status;
        }
        commit_stage(m);
        if (m->status) return m->status;
        writeback_stage(m);
        if (m->status) return m->status;
        issue_stage(m);
        if (m->status) return m->status;
        rename_stage(m);
        if (m->status) return m->status;
        fetch_stage(m);
        if (m->status) return m->status;
        m->cycle++;
        if (m->st[ST_COMMITTED_INSTRUCTIONS] >= m->commit_limit) break;
        if (m->ros_count == 0 && m->dq_count == 0 &&
            m->cursor >= m->trace_len && !m->on_wrong_path)
            break;
        if (m->max_cycles >= 0 && m->cycle >= m->max_cycles) break;
        if (m->cycle - m->last_commit_cycle > m->deadlock_threshold) {
            m->status = RUN_DEADLOCK;
            return m->status;
        }
    }
    finalize_stats(m);
    return m->status;
}

/* ------------------------------------------------------------------ */
/* Construction / teardown / ABI accessors.                           */
/* ------------------------------------------------------------------ */
static void cache_init(Machine *m, CacheZ *c, i64 sets, i64 assoc,
                       i64 shift, i64 lat, int hits_slot, int misses_slot) {
    c->n_sets = sets;
    c->assoc = assoc;
    c->shift = shift;
    c->lat = lat;
    c->tag = NEW_I64(sets * assoc);
    c->dirty = NEW_I64(sets * assoc);
    c->nway = NEW_I64(sets);
    fill_i64(c->tag, sets * assoc, -1);
    c->hits = m->st + hits_slot;
    c->misses = m->st + misses_slot;
}

Machine *sim_new(const long long *cfg, int ncfg) {
    if (ncfg != NCFG) return 0;
    Machine *m = (Machine *)zmalloc(sizeof(Machine));
    if (!m) return 0;
    memcpy(m->cfg, cfg, sizeof(m->cfg));

    m->trace_len = cfg[CFG_TRACE_LEN];
    m->ros_cap = cfg[CFG_ROS];
    m->lsq_cap = cfg[CFG_LSQ];
    m->ck_cap = cfg[CFG_CK_CAP];
    m->policy = (int)cfg[CFG_POLICY];
    m->reuse_on_committed_lu = (int)cfg[CFG_REUSE];
    m->wp_enabled = (int)cfg[CFG_WP_ENABLED];
    m->exc_enabled = (int)cfg[CFG_EXC_ENABLED];
    m->nphys[0] = cfg[CFG_NPHYS_INT];
    m->nphys[1] = cfg[CFG_NPHYS_FP];
    m->nlog[0] = cfg[CFG_NLOG_INT];
    m->nlog[1] = cfg[CFG_NLOG_FP];
    m->mem_lat = cfg[CFG_MEM_LAT];
    m->wp_cap = cfg[CFG_WP_CAP];
    m->exc_cap = cfg[CFG_EXC_CAP];

    m->max_cycles = -1;
    m->commit_limit = m->trace_len;
    m->deadlock_threshold = 50000;
    m->committed_watermark = -1;

    /* trace columns */
    i64 tl = m->trace_len > 0 ? m->trace_len : 1;
    m->t_op = NEW_I64(tl);
    m->t_pc = NEW_I64(tl);
    m->t_dc = NEW_I64(tl);
    m->t_dest = NEW_I64(tl);
    m->t_nsrc = NEW_I64(tl);
    m->t_src_class = NEW_I64(tl * MAX_SRCS);
    m->t_src_log = NEW_I64(tl * MAX_SRCS);
    m->t_taken = NEW_I64(tl);
    m->t_target = NEW_I64(tl);
    m->t_addr = NEW_I64(tl);

    /* warm-up trace columns */
    m->warm_len = cfg[CFG_WARM_LEN];
    i64 wl = m->warm_len > 0 ? m->warm_len : 1;
    m->wu_op = NEW_I64(wl);
    m->wu_pc = NEW_I64(wl);
    m->wu_addr = NEW_I64(wl);
    m->wu_taken = NEW_I64(wl);
    m->wu_target = NEW_I64(wl);

    /* wrong-path payload buffer */
    i64 wc = m->wp_cap > 0 ? m->wp_cap : 1;
    m->w_op = NEW_I64(wc);
    m->w_dc = NEW_I64(wc);
    m->w_dest = NEW_I64(wc);
    m->w_nsrc = NEW_I64(wc);
    m->w_src_class = NEW_I64(wc * WP_MAX_SRCS);
    m->w_src_log = NEW_I64(wc * WP_MAX_SRCS);
    m->w_addr = NEW_I64(wc);
    m->w_tdelta = NEW_I64(wc);

    /* exception lottery */
    i64 ec = m->exc_cap > 0 ? m->exc_cap : 1;
    m->exc_buf = (double *)zmalloc((size_t)ec * sizeof(double));

    /* gshare */
    m->gs_size = 1LL << cfg[CFG_GSHARE_BITS];
    m->gs_mask = m->gs_size - 1;
    m->gs_table = NEW_I8(m->gs_size);
    memset(m->gs_table, 2, (size_t)m->gs_size);

    /* BTB */
    m->btb_sets = cfg[CFG_BTB_SETS];
    m->btb_assoc = cfg[CFG_BTB_ASSOC];
    m->btb_tag = NEW_I64(m->btb_sets * m->btb_assoc);
    m->btb_target = NEW_I64(m->btb_sets * m->btb_assoc);
    m->btb_nway = NEW_I64(m->btb_sets);
    fill_i64(m->btb_tag, m->btb_sets * m->btb_assoc, -1);

    /* caches */
    cache_init(m, &m->l1i, cfg[CFG_L1I_SETS], cfg[CFG_L1I_ASSOC],
               cfg[CFG_L1I_SHIFT], cfg[CFG_L1I_LAT], ST_L1I_HITS,
               ST_L1I_MISSES);
    cache_init(m, &m->l1d, cfg[CFG_L1D_SETS], cfg[CFG_L1D_ASSOC],
               cfg[CFG_L1D_SHIFT], cfg[CFG_L1D_LAT], ST_L1D_HITS,
               ST_L1D_MISSES);
    cache_init(m, &m->l2, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC],
               cfg[CFG_L2_SHIFT], cfg[CFG_L2_LAT], ST_L2_HITS,
               ST_L2_MISSES);

    /* functional units */
    i64 fu_total = 0;
    for (int k = 0; k < N_FU_KINDS; k++) {
        m->fu_count[k] = cfg[CFG_FU_COUNT + k];
        m->fu_unpip[k] = cfg[CFG_FU_UNPIPELINED + k];
        m->fu_last_cycle[k] = -1;
        m->fu_off[k] = fu_total;
        fu_total += m->fu_count[k];
    }
    m->fu_free_at = NEW_I64(fu_total > 0 ? fu_total : 1);
    for (int op = 0; op < N_OPS; op++) m->op_lat[op] = cfg[CFG_OP_LAT + op];

    /* register files */
    for (int c = 0; c < 2; c++) {
        i64 np = m->nphys[c], nl = m->nlog[c];
        m->fl_ring[c] = NEW_INT(np);
        m->fl_is_free[c] = NEW_I8(np);
        m->producer_seq[c] = NEW_I64(np);
        m->producer_row[c] = NEW_INT(np);
        m->occ_alloc[c] = NEW_I64(np);
        m->occ_write[c] = NEW_I64(np);
        m->occ_lu[c] = NEW_I64(np);
        m->map[c] = NEW_INT(nl);
        m->iomt[c] = NEW_INT(nl);
        m->map_stale[c] = NEW_I8(nl);
        m->arch_released[c] = NEW_I8(nl);
        m->lus_seq[c] = NEW_I64(nl);
        m->lus_slot[c] = NEW_I8(nl);

        fill_i64(m->producer_seq[c], np, -1);
        fill_int(m->producer_row[c], np, -1);
        fill_i64(m->occ_alloc[c], np, -1);
        fill_i64(m->occ_write[c], np, -1);
        fill_i64(m->occ_lu[c], np, -1);
        fill_i64(m->lus_seq[c], nl, -1);
        for (i64 log = 0; log < nl; log++) {
            m->map[c][log] = (int)log;
            m->iomt[c][log] = (int)log;
            /* initial architectural mappings: occupied from cycle 0,
             * written, never read yet; not counted as allocations */
            m->occ_alloc[c][log] = 0;
            m->occ_write[c][log] = 0;
        }
        m->fl_head[c] = 0;
        m->fl_count[c] = np - nl;
        for (i64 i = nl; i < np; i++) {
            m->fl_ring[c][i - nl] = (int)i;
            m->fl_is_free[c][i] = 1;
        }
    }

    /* ROS rows */
    i64 rc = m->ros_cap;
    m->r_seq = NEW_I64(rc);
    m->r_pc = NEW_I64(rc);
    m->r_target = NEW_I64(rc);
    m->r_addr = NEW_I64(rc);
    m->r_resume = NEW_I64(rc);
    m->r_pred_idx = NEW_I64(rc);
    m->r_pred_hist = NEW_I64(rc);
    m->r_op = NEW_INT(rc);
    m->r_dest_class = NEW_INT(rc);
    m->r_dest_log = NEW_INT(rc);
    m->r_pd = NEW_INT(rc);
    m->r_old_pd = NEW_INT(rc);
    m->r_mask = NEW_INT(rc);
    m->r_nsrc = NEW_INT(rc);
    m->r_src_class = NEW_INT(rc * MAX_SRCS);
    m->r_src_log = NEW_INT(rc * MAX_SRCS);
    m->r_src_phys = NEW_INT(rc * MAX_SRCS);
    m->r_completed = NEW_I8(rc);
    m->r_squashed = NEW_I8(rc);
    m->r_exception = NEW_I8(rc);
    m->r_issued = NEW_I8(rc);
    m->r_wrong_path = NEW_I8(rc);
    m->r_fetch_mispred = NEW_I8(rc);
    m->r_pred_taken = NEW_I8(rc);
    m->r_pred_raw = NEW_I8(rc);
    m->r_has_pred = NEW_I8(rc);
    m->r_taken = NEW_I8(rc);
    m->r_allocated_new = NEW_I8(rc);
    m->r_reused = NEW_I8(rc);
    m->r_rel_old = NEW_I8(rc);
    m->r_in_ready = NEW_I8(rc);
    m->r_nwait = NEW_INT(rc);
    m->r_wait = NEW_I64(rc * MAX_SRCS);
    m->r_wk_head = NEW_INT(rc);
    m->r_wk_tail = NEW_INT(rc);
    fill_i64(m->r_seq, rc, -1);
    fill_int(m->r_wk_head, rc, -1);
    fill_int(m->r_wk_tail, rc, -1);

    /* ready heap */
    m->heap_cap = 4 * rc;
    m->heap_seq = NEW_I64(m->heap_cap);
    m->heap_row = NEW_INT(m->heap_cap);

    /* wakeup pool */
    m->wk_cap = 8 * rc;
    m->wk_seq = NEW_I64(m->wk_cap);
    m->wk_row = NEW_INT(m->wk_cap);
    m->wk_next = NEW_INT(m->wk_cap);
    for (i64 i = 0; i < m->wk_cap; i++)
        m->wk_next[i] = (int)(i + 1 < m->wk_cap ? i + 1 : -1);
    m->wk_free = 0;

    /* completion queue */
    i64 max_op_lat = 0;
    for (int op = 0; op < N_OPS; op++)
        if (m->op_lat[op] > max_op_lat) max_op_lat = m->op_lat[op];
    i64 horizon = max_op_lat + m->l1d.lat + m->l2.lat + m->mem_lat + 8;
    m->cq_ring = next_pow2(horizon > 256 ? horizon : 256);
    m->cq_mask = m->cq_ring - 1;
    m->cq_bucket = NEW_INT(m->cq_ring);
    m->cq_tail = NEW_INT(m->cq_ring);
    fill_int(m->cq_bucket, m->cq_ring, -1);
    fill_int(m->cq_tail, m->cq_ring, -1);
    m->cq_cap = 4 * rc + 64;
    m->cq_seq = NEW_I64(m->cq_cap);
    m->cq_row = NEW_INT(m->cq_cap);
    m->cq_next = NEW_INT(m->cq_cap);
    for (i64 i = 0; i < m->cq_cap; i++)
        m->cq_next[i] = (int)(i + 1 < m->cq_cap ? i + 1 : -1);
    m->cq_free = 0;

    /* LSQ */
    i64 lc = m->lsq_cap > 0 ? m->lsq_cap : 1;
    m->l_seq = NEW_I64(lc);
    m->l_addr = NEW_I64(lc);
    m->l_is_store = NEW_I8(lc);
    m->l_known = NEW_I8(lc);
    m->l_whead = NEW_INT(lc);
    m->l_wtail = NEW_INT(lc);
    fill_int(m->l_whead, lc, -1);
    fill_int(m->l_wtail, lc, -1);
    m->lw_cap = 4 * rc;
    m->lw_seq = NEW_I64(m->lw_cap);
    m->lw_row = NEW_INT(m->lw_cap);
    m->lw_next = NEW_INT(m->lw_cap);
    for (i64 i = 0; i < m->lw_cap; i++)
        m->lw_next[i] = (int)(i + 1 < m->lw_cap ? i + 1 : -1);
    m->lw_free = 0;

    /* checkpoints */
    i64 kc = m->ck_cap > 0 ? m->ck_cap : 1;
    m->ck_order = NEW_INT(kc);
    m->ck_freestack = NEW_INT(kc);
    m->ck_seq = NEW_I64(kc);
    for (i64 i = 0; i < kc; i++) m->ck_freestack[i] = (int)i;
    m->ck_nfree = m->ck_cap;
    for (int c = 0; c < 2; c++) {
        i64 nl = m->nlog[c];
        m->ck_map[c] = NEW_INT(kc * nl);
        m->ck_stale[c] = NEW_I8(kc * nl);
        m->ck_lus_seq[c] = NEW_I64(kc * nl);
        m->ck_lus_slot[c] = NEW_I8(kc * nl);
    }

    /* release queues (extended only): depth = checkpoint capacity
     * (ProcessorConfig.max_pending_branches), not a hardwired constant */
    if (m->policy == POLICY_EXTENDED) {
        i64 npmax = m->nphys[0] > m->nphys[1] ? m->nphys[0] : m->nphys[1];
        m->rq_levels = m->ck_cap > 0 ? m->ck_cap : 1;
        m->rq_rwns_cap = 2 * npmax + rc;
        m->rq_rwc_cap = rc;
        for (int c = 0; c < 2; c++) {
            m->rq_slots[c] = (RQLevel *)zmalloc(
                (size_t)m->rq_levels * sizeof(RQLevel));
            m->rq_order[c] = NEW_INT(m->rq_levels);
            m->rq_freestack[c] = NEW_INT(m->rq_levels);
            for (i64 s = 0; s < m->rq_levels; s++) {
                RQLevel *lv = &m->rq_slots[c][s];
                lv->rwns_phys = NEW_INT(m->rq_rwns_cap);
                lv->rwns_log = NEW_INT(m->rq_rwns_cap);
                lv->rwns_nv = NEW_I64(m->rq_rwns_cap);
                lv->rwc_lu = NEW_I64(m->rq_rwc_cap);
                lv->rwc_nbits = NEW_INT(m->rq_rwc_cap);
                lv->rwc_bits = NEW_INT(m->rq_rwc_cap * 4);
                lv->rwc_nv = NEW_I64(m->rq_rwc_cap * 4);
                m->rq_freestack[c][s] = (int)s;
            }
            m->rq_nfree[c] = (int)m->rq_levels;
        }
    }

    /* decode queue */
    m->decode_capacity = (cfg[CFG_FRONTEND] + 2) * cfg[CFG_FETCH_W];
    m->dq_cap = m->decode_capacity + cfg[CFG_FETCH_W];
    m->dq = (DQEnt *)zmalloc((size_t)m->dq_cap * sizeof(DQEnt));

    /* scratch */
    m->scratch_rows = NEW_INT(rc);
    m->blocked_rows = NEW_INT(rc);
    m->freed_reg[0] = NEW_INT(rc);
    m->freed_reg[1] = NEW_INT(rc);

    return m;
}

void sim_free(Machine *m) {
    if (!m) return;
    free(m->t_op); free(m->t_pc); free(m->t_dc); free(m->t_dest);
    free(m->t_nsrc); free(m->t_src_class); free(m->t_src_log);
    free(m->t_taken); free(m->t_target); free(m->t_addr);
    free(m->wu_op); free(m->wu_pc); free(m->wu_addr);
    free(m->wu_taken); free(m->wu_target);
    free(m->w_op); free(m->w_dc); free(m->w_dest); free(m->w_nsrc);
    free(m->w_src_class); free(m->w_src_log); free(m->w_addr);
    free(m->w_tdelta);
    free(m->exc_buf);
    free(m->gs_table);
    free(m->btb_tag); free(m->btb_target); free(m->btb_nway);
    free(m->l1i.tag); free(m->l1i.dirty); free(m->l1i.nway);
    free(m->l1d.tag); free(m->l1d.dirty); free(m->l1d.nway);
    free(m->l2.tag); free(m->l2.dirty); free(m->l2.nway);
    free(m->fu_free_at);
    for (int c = 0; c < 2; c++) {
        free(m->fl_ring[c]); free(m->fl_is_free[c]);
        free(m->producer_seq[c]); free(m->producer_row[c]);
        free(m->occ_alloc[c]); free(m->occ_write[c]); free(m->occ_lu[c]);
        free(m->map[c]); free(m->iomt[c]); free(m->map_stale[c]);
        free(m->arch_released[c]); free(m->lus_seq[c]); free(m->lus_slot[c]);
        free(m->ck_map[c]); free(m->ck_stale[c]);
        free(m->ck_lus_seq[c]); free(m->ck_lus_slot[c]);
        if (m->policy == POLICY_EXTENDED) {
            for (i64 s = 0; s < m->rq_levels; s++) {
                RQLevel *lv = &m->rq_slots[c][s];
                free(lv->rwns_phys); free(lv->rwns_log); free(lv->rwns_nv);
                free(lv->rwc_lu); free(lv->rwc_nbits);
                free(lv->rwc_bits); free(lv->rwc_nv);
            }
            free(m->rq_slots[c]); free(m->rq_order[c]);
            free(m->rq_freestack[c]);
        }
        free(m->freed_reg[c]);
    }
    free(m->r_seq); free(m->r_pc); free(m->r_target); free(m->r_addr);
    free(m->r_resume); free(m->r_pred_idx); free(m->r_pred_hist);
    free(m->r_op); free(m->r_dest_class); free(m->r_dest_log);
    free(m->r_pd); free(m->r_old_pd); free(m->r_mask); free(m->r_nsrc);
    free(m->r_src_class); free(m->r_src_log); free(m->r_src_phys);
    free(m->r_completed); free(m->r_squashed); free(m->r_exception);
    free(m->r_issued); free(m->r_wrong_path); free(m->r_fetch_mispred);
    free(m->r_pred_taken); free(m->r_pred_raw); free(m->r_has_pred);
    free(m->r_taken);
    free(m->r_allocated_new); free(m->r_reused); free(m->r_rel_old);
    free(m->r_in_ready); free(m->r_nwait); free(m->r_wait);
    free(m->r_wk_head); free(m->r_wk_tail);
    free(m->heap_seq); free(m->heap_row);
    free(m->wk_seq); free(m->wk_row); free(m->wk_next);
    free(m->cq_bucket); free(m->cq_tail);
    free(m->cq_seq); free(m->cq_row); free(m->cq_next);
    free(m->l_seq); free(m->l_addr); free(m->l_is_store); free(m->l_known);
    free(m->l_whead); free(m->l_wtail);
    free(m->lw_seq); free(m->lw_row); free(m->lw_next);
    free(m->ck_order); free(m->ck_freestack); free(m->ck_seq);
    free(m->dq);
    free(m->scratch_rows); free(m->blocked_rows);
    free(m);
}

long long *sim_i64(Machine *m, int which) {
    switch (which) {
    case A_T_OP: return m->t_op;
    case A_T_PC: return m->t_pc;
    case A_T_DC: return m->t_dc;
    case A_T_DEST: return m->t_dest;
    case A_T_NSRC: return m->t_nsrc;
    case A_T_SRC_CLASS: return m->t_src_class;
    case A_T_SRC_LOG: return m->t_src_log;
    case A_T_TAKEN: return m->t_taken;
    case A_T_TARGET: return m->t_target;
    case A_T_ADDR: return m->t_addr;
    case A_W_OP: return m->w_op;
    case A_W_DC: return m->w_dc;
    case A_W_DEST: return m->w_dest;
    case A_W_NSRC: return m->w_nsrc;
    case A_W_SRC_CLASS: return m->w_src_class;
    case A_W_SRC_LOG: return m->w_src_log;
    case A_W_ADDR: return m->w_addr;
    case A_W_TDELTA: return m->w_tdelta;
    case A_B_TAG: return m->btb_tag;
    case A_B_TARGET: return m->btb_target;
    case A_B_NWAY: return m->btb_nway;
    case A_L1I_TAG: return m->l1i.tag;
    case A_L1I_DIRTY: return m->l1i.dirty;
    case A_L1I_NWAY: return m->l1i.nway;
    case A_L1D_TAG: return m->l1d.tag;
    case A_L1D_DIRTY: return m->l1d.dirty;
    case A_L1D_NWAY: return m->l1d.nway;
    case A_L2_TAG: return m->l2.tag;
    case A_L2_DIRTY: return m->l2.dirty;
    case A_L2_NWAY: return m->l2.nway;
    case A_STATS: return m->st;
    case A_WU_OP: return m->wu_op;
    case A_WU_PC: return m->wu_pc;
    case A_WU_ADDR: return m->wu_addr;
    case A_WU_TAKEN: return m->wu_taken;
    case A_WU_TARGET: return m->wu_target;
    }
    return 0;
}

double *sim_exc_buf(Machine *m) {
    return m->exc_buf;
}

signed char *sim_gs_table(Machine *m) {
    return m->gs_table;
}

long long sim_get(Machine *m, int which) {
    switch (which) {
    case SC_STATUS: return m->status;
    case SC_ERROR: return m->error;
    case SC_CYCLE: return m->cycle;
    case SC_MAX_CYCLES: return m->max_cycles;
    case SC_COMMIT_LIMIT: return m->commit_limit;
    case SC_DEADLOCK: return m->deadlock_threshold;
    case SC_WP_COUNT: return m->wp_count;
    case SC_WP_HEAD: return m->wp_head;
    case SC_EXC_COUNT: return m->exc_count;
    case SC_EXC_HEAD: return m->exc_head;
    case SC_GS_HISTORY: return m->gs_history;
    case SC_READY_PEAK: return m->ready_peak;
    case SC_SEQ: return m->seq;
    case SC_ABI_MAGIC: return REPRO_ABI_DIGEST;
    }
    return -1;
}

void sim_set(Machine *m, int which, long long value) {
    switch (which) {
    case SC_CYCLE: m->cycle = value; break;
    case SC_MAX_CYCLES: m->max_cycles = value; break;
    case SC_COMMIT_LIMIT: m->commit_limit = value; break;
    case SC_DEADLOCK: m->deadlock_threshold = value; break;
    case SC_WP_COUNT: m->wp_count = value; break;
    case SC_WP_HEAD: m->wp_head = value; break;
    case SC_EXC_COUNT: m->exc_count = value; break;
    case SC_EXC_HEAD: m->exc_head = value; break;
    case SC_GS_HISTORY: m->gs_history = value; break;
    case SC_SEQ: m->seq = value; break;
    }
}

void sim_set_exception_rate(Machine *m, double rate) {
    m->exception_rate = rate;
}
