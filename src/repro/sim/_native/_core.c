/*
 * Native dispatch core of the simulator.
 *
 * A C mirror of the simulator's hottest Python code:
 *
 *   - the calendar kernel's pop/dispatch loop and queue insertion
 *     (repro.sim.kernel.Simulator.run / _push / _advance_day);
 *   - the controller's completion, pump, write-buffer drain, read
 *     dispatch and _execute (repro.sim.controller.StorageController),
 *     with the tracer's op capture and the physics engine's hooks (the
 *     engine itself stays Python);
 *   - the NAND array's program, read, erase and is_programmed
 *     (repro.nand.array.NandArray -> Chip -> Block);
 *   - the FTLs' idle-time query, BaseFtl/FlexFtl.wants_background_gc,
 *     and the greedy victim scan, BaseFtl._select_victim
 *     (repro.ftl.base / repro.core.flexftl);
 *   - the closed-loop hosts' request issue and completion
 *     (repro.sim.host / repro.scenarios.host): submit(), and
 *     _complete_request -> SimStats.note_request_complete ->
 *     StreamCompletion -> _advance -> Simulator.schedule;
 *   - the QoS front-end (repro.qos): MultiTenantHost._enqueue, _pump,
 *     _wake and _on_done (through TenantCompletion) with the
 *     submission queues, the admission gate, the stock arbiters and
 *     SLO accounting as the completion hook;
 *   - one FTL write path for every FTL (repro.ftl.base):
 *     BaseFtl.next_op -> _host_write_op -> WriteBuffer.pop ->
 *     NandGeometry.ppn -> MappingTable.map_write -> _note_block_write,
 *     and _gc_step (relocation and the victim's erase), with the FTL's
 *     allocation natively for flexFTL (FlexFtl._allocate_host_page /
 *     _allocate_gc_page: PolicyManager.choose, _take_msb, _take_lsb's
 *     installed-fast-block case) and PageFtl._allocate (the FPS
 *     cursor), and called for any other allocator.
 *
 * The Python code stays the reference ("oracle"): every function here
 * mirrors the plain general Python methods named in its comment, reads
 * and writes the very same Python objects in the same order, and calls
 * the Python method for every rare branch (fault work, fast-block or
 * FPS-cursor install, a block's last page, parity enqueue, GC begin,
 * errors).  NAND operations run natively only while the controller's
 * bound _array_* methods are the stock NandArray ones, so a TLC array's
 * overrides still apply.  The rule for the Python side: a method this
 * file mirrors is written plainly (the speed lives here), while a
 * method this file calls into may stay hand-inlined (FlexFtl._take_lsb).
 * Keep each function in sync with the methods named in its comment; the
 * differential suites (tests/test_native_core.py, test_native_qos.py)
 * pin the two together, and _stock_refs() lists every mirrored method,
 * so a patched one keeps the run on Python.
 *
 * An event runs natively only when the stock code is in place: see
 * controller_reason() and stock_classes().  Otherwise its Python
 * callable is called exactly as the Python run loop would.
 *
 * The core keeps no simulation state between calls: every attribute is
 * read from the Python objects when it is needed, so snapshots pickle
 * exactly as before.  The only static data are references to the stock
 * classes and functions (bound on the first run) and the coverage
 * counters: events by how they ran, the core's calls into Python by the
 * layer called, and reference-cache flushes by cause.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

#ifndef REPRO_CORE_BUILD
#define REPRO_CORE_BUILD "unversioned"
#endif

/* ------------------------------------------------------------------ */
/* interned attribute names                                           */

#define NAMES(X)                                                        \
    X(now) X(processed) X(_active) X(_active_pos) X(_active_key)        \
    X(_horizon_key) X(_buckets) X(_key_heap) X(_far) X(_inv_width)      \
    X(_span) X(_seq) X(_cancelled) X(_advance_day) X(sim) X(_injector)  \
    X(_physics) X(_execute) X(_busy) X(_idle)                           \
    X(in_flight) X(_pumping) X(_read_queues) X(_ftl_next_op)            \
    X(_admissions) X(write_buffer) X(capacity) X(_live)                 \
    X(_queued_reads) X(ftl) X(wants_background_gc) X(background_op)     \
    X(_chips_per_channel) X(_channel_free) X(_t_transfer)               \
    X(_array_program) X(_array_read) X(_array_erase) X(_sim_push)       \
    X(_on_op_done) X(_complete_request) X(_ftl_lookup)                  \
    X(_pages_per_chip) X(geometry) X(array) X(is_programmed)            \
    X(address_of) X(contains) X(coalesce) X(_drain_admissions)          \
    X(_fifo) X(_resident) X(stats) X(written_pages) X(write_bandwidth)  \
    X(window) X(page_size) X(first_arrival) X(read_only)                \
    X(_reject_write) X(buffer_read_hits) X(_trace)                      \
    X(_pending_invalidations) X(_flush_parity_invalidations) X(chips)   \
    X(pending) X(fault_work) X(_fault_recovery_op) X(gc) X(background)  \
    X(_gc_step) X(managers) X(_fast) X(_sbqueue) X(wordlines) X(_next)  \
    X(free_blocks) X(config) X(gc_reserve_blocks) X(policy) X(u_high)   \
    X(u_low) X(quota) X(value) X(cap) X(_next_alternate) X(decisions)   \
    X(block) X(parity_interval) X(_enqueue_parity_backup) X(mapping)    \
    X(global_block_of) X(_coords) X(_ppb) X(_cpc) X(_take_lsb)          \
    X(_mark_block_full) X(_select_victim) X(_begin_gc) X(_stale)        \
    X(pop) X(logical_pages) X(_p2l) X(_l2p) X(_valid) X(_mapped)        \
    X(map_write) X(_write_clock) X(_block_write_stamp)                  \
    X(host_programs) X(_after_host_program) X(_after_gc_program)        \
    X(valid_lpns) X(victim_gb) X(copied) X(gc_programs) X(lookup)       \
    X(total_pages) X(pages_per_block) X(blocks_per_chip)                \
    X(chips_per_channel) X(popleft) X(appendleft) X(append)             \
    X(_current) X(controller) X(tenant) X(kind) X(lpn) X(npages)        \
    X(think_after) X(issued) X(streams) X(_cursor) X(time)              \
    X(on_complete) X(addr) X(data) X(pages_remaining) X(submitted_at)   \
    X(channel) X(chip) X(page) X(host) X(_stock_refs)                   \
    X(_pages_per_block) X(_op_raw) X(_op_limit) X(_trim) X(event)       \
    X(phase) X(_phase) X(bg_gc_enabled)                                 \
    X(gc_threshold_blocks) X(bg_gc_min_invalid_fraction) X(predictor)   \
    X(_predictor_wants_gc) X(_bg_min_invalid) X(on_read) X(note_program) \
    X(note_erase) X(_note_physics_read) X(tag) X(sample) X(name) X(prev) \
    X(stream) X(program) X(read) X(erase) X(blocks) X(_states)          \
    X(_unconstrained) X(_fps) X(_used) X(_data) X(track_history)        \
    X(program_history) X(lsb_programs) X(msb_programs) X(_prog_times)   \
    X(busy_time) X(reads) X(timing) X(t_read) X(t_erase) X(erases)      \
    X(pages) X(erase_count) X(channels) X(completion_hook)              \
    X(completed_reads) X(completed_writes) X(read_latencies)            \
    X(write_latencies) X(last_completion) X(_advance) X(_iters)         \
    X(_pulled) X(_issue) X(schedule) X(_push) X(gc_policy)              \
    X(full_blocks) X(invalid_count) X(_victim_score) X(greedy)          \
    X(note_request_complete) X(completed_at) X(_host_write_op)          \
    X(_note_block_write) X(_allocate) X(_allocate_host_page)              \
    X(_allocate_gc_page) X(_order) X(_pos) X(_page_address) X(ppn)        \
    X(note_block_erased) X(_after_gc_complete) X(victim_block)            \
    X(chip_coords) X(note_arrival) X(is_empty) X(tenants) X(queues)       \
    X(buckets) X(arbiter) X(gate) X(_metrics) X(_enqueue)                 \
    X(_wake_at) X(_issued) X(_pump) X(max_outstanding)                    \
    X(max_pending_admissions) X(outstanding) X(blocked_decisions)         \
    X(max_depth) X(enqueued) X(max_depth_seen) X(depth_samples)           \
    X(weights) X(_credits) X(_deficit) X(_credited) X(quantum) X(select)  \
    X(note_empty) X(can_admit) X(note_dispatch) X(note_complete) X(push)  \
    X(accounts) X(record) X(target) X(read_latency)                     \
    X(write_latency) X(read_pages) X(read_violations) X(write_violations) \
    X(status) X(seq) X(request)

#define DECLARE_NAME(n) static PyObject *S_##n;
NAMES(DECLARE_NAME)
#undef DECLARE_NAME

/* ------------------------------------------------------------------ */
/* references bound on the first run                                  */

static int bound;

static PyTypeObject *T_Simulator, *T_Controller, *T_FlexFtl, *T_Mapping,
    *T_WriteBuffer, *T_Geometry, *T_FlashOp, *T_BufferedWrite, *T_Request,
    *T_PPA, *T_StreamHost, *T_ClosedHost, *T_Array, *T_Chip, *T_Block,
    *T_SimStats, *T_Event, *T_Completion, *T_FpsCursor, *T_QosHost,
    *T_TenantCompletion, *T_SubQueue, *T_QueuedCommand, *T_Gate,
    *T_SloAccountant, *T_TenantAccount, *T_ChainedHook;
/* the stock arbiters, in ARB_* order */
enum { ARB_FIFO = 0, ARB_RR, ARB_WRR, ARB_DRR, N_ARBITERS };
static PyTypeObject *T_Arbiter[N_ARBITERS];
static PyObject *F_select[N_ARBITERS], *F_note_empty[N_ARBITERS];
static PyObject *F_base_next_op, *F_host_write_op, *F_gc_step,
    *F_note_block_write, *F_page_allocate, *F_page_alloc_host,
    *F_page_alloc_gc, *F_page_address, *F_note_arrival, *F_qos_enqueue,
    *F_qos_wake, *F_slo_record, *F_queue_push, *F_queue_pop,
    *F_can_admit, *F_note_dispatch, *F_note_complete, *F_note_block_erased;
static PyObject *K_ERASE, *REQUEST_OK, *FLOAT_ZERO;
static PyObject *F_push, *F_on_op_done, *F_execute, *F_flex_next_op,
    *F_lookup, *F_stream_issue, *F_closed_issue, *F_base_wants_gc,
    *F_flex_wants_gc, *F_bg_min_invalid, *F_predictor_wants_gc,
    *F_array_program, *F_array_read, *F_array_erase, *F_is_programmed,
    *F_complete_request, *F_note_request_complete, *F_stream_advance,
    *F_closed_advance, *F_schedule, *F_check_schedule, *F_select_victim,
    *F_victim_score, *F_global_block_of, *F_invalid_count,
    *F_base_background_op, *F_flex_background_op, *F_flush_parity;
static PyObject *K_PROGRAM, *K_READ, *R_READ, *P_LSB, *P_MSB;
static PyObject *C_PhaseCursor;
static PyObject *heappush_fn, *heappop_fn;
static PyObject *STOCK;           /* tuple of (type, name, function) */
static PyObject *ZERO, *ONE, *KW_TENANT, *KW_SAMPLE, *KW_NOW;
/* trace events emitted from native code: kinds and keyword names */
static PyObject *EV_LSB_COMPLETE, *KW_LSB_COMPLETE, *EV_SCENARIO_PHASE,
    *KW_SCENARIO_PHASE;

/* slot offsets of the slotted dataclasses */
static Py_ssize_t OP_kind, OP_addr, OP_tag, OP_lpn, OP_on_complete,
    OP_data, OP_source;
static Py_ssize_t RQ_time, RQ_kind, RQ_lpn, RQ_npages,
    RQ_pages_remaining, RQ_submitted_at, RQ_completed_at, RQ_on_complete;
static Py_ssize_t BW_lpn, BW_enqueued_at, BW_request;
static Py_ssize_t SC_host, SC_index, SC_think;
static Py_ssize_t RQ_tenant, RQ_status, RQ_error;
static Py_ssize_t QC_request, QC_seq, QC_enqueued_at;
static Py_ssize_t TC_host, TC_tenant, TC_stream, TC_think;
static Py_ssize_t CH_first, CH_second;

/* ------------------------------------------------------------------ */
/* coverage counters                                                  */

enum {
    WHY_OK = 0,
    WHY_HANDLER,      /* the handler has no native implementation */
    WHY_PATCHED,      /* a class method the core replaces was patched */
    WHY_SUBCLASS,     /* the handler is bound to a subclass instance */
    WHY_INJECTOR,     /* a fault injector is attached */
    WHY_EXECUTE,      /* _execute is patched on the instance (OpLog, tests) */
    WHY_ARGS,         /* the event arguments are not the usual tuple */
    N_REASONS
};

static const char *REASON_NAMES[N_REASONS] = {
    "ok", "handler", "patched", "subclass", "injector", "execute", "args",
};

static unsigned long long cov_native;
static unsigned long long cov_python[N_REASONS];

/* The core's calls into Python code, by the layer called (value-type
 * constructors such as Request() and PhaseCursor() are not counted),
 * and the reference-cache flushes after them: per layer, plus
 * F_HANDLER for events handled in Python. */
enum {
    L_NAND = 0,       /* the NAND array (a TLC or patched array, errors) */
    L_FTL,            /* FTL methods, rare branches and allocation hooks */
    L_HOST,           /* request completions and op callbacks */
    L_SCENARIO,       /* a streaming host's op generator */
    L_PHYSICS,        /* the physics engine's hooks */
    L_TRACER,         /* trace events and the op ring's trim */
    L_KERNEL,         /* the kernel's overflow heap, a non-stock push */
    L_CONTROLLER,     /* a patched _execute, a non-stock write buffer */
    N_LAYERS
};
#define F_HANDLER N_LAYERS

static const char *LAYER_NAMES[N_LAYERS + 1] = {
    "nand", "ftl", "host", "scenario", "physics", "tracer", "kernel",
    "controller", "handler",
};

static unsigned long long cov_callouts[N_LAYERS];
static unsigned long long cov_flushes[N_LAYERS + 1];

#define CALLOUT(layer) (cov_callouts[layer]++)

/* ------------------------------------------------------------------ */
/* small helpers                                                      */

#define GA(o, n) PyObject_GetAttr((o), S_##n)
#define SA(o, n, v) PyObject_SetAttr((o), S_##n, (v))
#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

static inline int
truthy(PyObject *o)
{
    if (o == Py_None || o == Py_False)
        return 0;
    if (o == Py_True)
        return 1;
    return PyObject_IsTrue(o);
}

static int
as_ll(PyObject *o, long long *out)
{
    int overflow;
    long long v;
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError,
                     "native core: expected an int, got %.100s",
                     Py_TYPE(o)->tp_name);
        return -1;
    }
    v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (overflow) {
        PyErr_SetString(PyExc_OverflowError,
                        "native core: integer out of range");
        return -1;
    }
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
as_double(PyObject *o, double *out)
{
    double v;
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    v = PyFloat_AsDouble(o);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* getattr as a C long long */
static int
ga_ll(PyObject *o, PyObject *name, long long *out)
{
    int r;
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL)
        return -1;
    r = as_ll(v, out);
    Py_DECREF(v);
    return r;
}

static int
sa_ll(PyObject *o, PyObject *name, long long value)
{
    int r;
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    r = PyObject_SetAttr(o, name, v);
    Py_DECREF(v);
    return r;
}

/* ``o.name += delta`` on an int attribute */
static int
attr_add(PyObject *o, PyObject *name, long long delta)
{
    long long v;
    if (ga_ll(o, name, &v) < 0)
        return -1;
    return sa_ll(o, name, v + delta);
}

/* ``seq[i]`` (new reference) */
static PyObject *
item_at(PyObject *seq, Py_ssize_t i)
{
    PyObject *key, *v;
    if (PyList_CheckExact(seq) && i >= 0 && i < PyList_GET_SIZE(seq)) {
        v = PyList_GET_ITEM(seq, i);
        Py_INCREF(v);
        return v;
    }
    key = PyLong_FromSsize_t(i);
    if (key == NULL)
        return NULL;
    v = PyObject_GetItem(seq, key);
    Py_DECREF(key);
    return v;
}

static int
item_ll(PyObject *seq, Py_ssize_t i, long long *out)
{
    int r;
    PyObject *v = item_at(seq, i);
    if (v == NULL)
        return -1;
    r = as_ll(v, out);
    Py_DECREF(v);
    return r;
}

/* ``seq[i] = v`` */
static int
set_item(PyObject *seq, Py_ssize_t i, PyObject *v)
{
    PyObject *key;
    int r;
    if (PyList_CheckExact(seq) && i >= 0 && i < PyList_GET_SIZE(seq)) {
        PyObject *old = PyList_GET_ITEM(seq, i);
        Py_INCREF(v);
        PyList_SET_ITEM(seq, i, v);
        Py_DECREF(old);
        return 0;
    }
    key = PyLong_FromSsize_t(i);
    if (key == NULL)
        return -1;
    r = PyObject_SetItem(seq, key, v);
    Py_DECREF(key);
    return r;
}

static int
set_item_ll(PyObject *seq, Py_ssize_t i, long long value)
{
    int r;
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    r = set_item(seq, i, v);
    Py_DECREF(v);
    return r;
}

/* ``seq[i] += delta`` on an int item */
static int
item_add(PyObject *seq, Py_ssize_t i, long long delta)
{
    long long v;
    if (item_ll(seq, i, &v) < 0)
        return -1;
    return set_item_ll(seq, i, v + delta);
}

/* Attribute of a slotted dataclass instance: a direct slot load when
 * the object is exactly the expected class, getattr otherwise.  New
 * reference. */
static inline PyObject *
slot_get(PyObject *o, PyTypeObject *type, Py_ssize_t off, PyObject *name)
{
    if (Py_TYPE(o) == type) {
        PyObject *v = SLOT(o, off);
        if (v != NULL) {
            Py_INCREF(v);
            return v;
        }
    }
    return PyObject_GetAttr(o, name);
}

static inline int
slot_set(PyObject *o, PyTypeObject *type, Py_ssize_t off, PyObject *name,
         PyObject *v)
{
    if (Py_TYPE(o) == type) {
        PyObject *old = SLOT(o, off);
        Py_INCREF(v);
        SLOT(o, off) = v;
        Py_XDECREF(old);
        return 0;
    }
    return PyObject_SetAttr(o, name, v);
}

#define OP_GET(op, f) slot_get((op), T_FlashOp, OP_##f, S_##f)
#define RQ_GET(rq, f) slot_get((rq), T_Request, RQ_##f, S_##f)
#define RQ_SET(rq, f, v) slot_set((rq), T_Request, RQ_##f, S_##f, (v))

static int
rq_get_ll(PyObject *rq, Py_ssize_t off, PyObject *name, long long *out)
{
    int r;
    PyObject *v = slot_get(rq, T_Request, off, name);
    if (v == NULL)
        return -1;
    r = as_ll(v, out);
    Py_DECREF(v);
    return r;
}

static int
rq_set_ll(PyObject *rq, Py_ssize_t off, PyObject *name, long long value)
{
    int r;
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    r = slot_set(rq, T_Request, off, name, v);
    Py_DECREF(v);
    return r;
}

static PyObject *
call_method0(PyObject *o, PyObject *name)
{
    return PyObject_CallMethodNoArgs(o, name);
}

static PyObject *
call_method1(PyObject *o, PyObject *name, PyObject *a)
{
    return PyObject_CallMethodOneArg(o, name, a);
}

static PyObject *
call_method2(PyObject *o, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *args[3] = {o, a, b};
    return PyObject_VectorcallMethod(
        name, args, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
}

/* ``list.append(item)`` */
static int
list_append(PyObject *list, PyObject *item)
{
    PyObject *res;
    if (PyList_CheckExact(list))
        return PyList_Append(list, item);
    if ((res = call_method1(list, S_append, item)) == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ``a < b`` for two ints (fast when both are exact, small ints) */
static int
int_lt(PyObject *a, PyObject *b)
{
    if (PyLong_CheckExact(a) && PyLong_CheckExact(b)) {
        int oa, ob;
        long long x = PyLong_AsLongLongAndOverflow(a, &oa);
        long long y = PyLong_AsLongLongAndOverflow(b, &ob);
        if (!oa && !ob && !((x == -1 || y == -1) && PyErr_Occurred()))
            return x < y;
        PyErr_Clear();
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* Queue-entry ordering, ``a < b`` on ``[time, priority, seq, ...]``:
 * the list comparison Python does, with a fast path for float times
 * and int priorities/seqs. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    if (PyList_Check(a) && PyList_Check(b) && PyList_GET_SIZE(a) >= 3
            && PyList_GET_SIZE(b) >= 3) {
        PyObject *ta = PyList_GET_ITEM(a, 0), *tb = PyList_GET_ITEM(b, 0);
        if (PyFloat_CheckExact(ta) && PyFloat_CheckExact(tb)) {
            double x = PyFloat_AS_DOUBLE(ta), y = PyFloat_AS_DOUBLE(tb);
            if (x < y)
                return 1;
            if (x > y)
                return 0;
            if (x == y) {
                int i;
                for (i = 1; i < 3; i++) {
                    PyObject *pa = PyList_GET_ITEM(a, i);
                    PyObject *pb = PyList_GET_ITEM(b, i);
                    int oa, ob;
                    long long u, v;
                    if (!PyLong_CheckExact(pa) || !PyLong_CheckExact(pb))
                        break;
                    u = PyLong_AsLongLongAndOverflow(pa, &oa);
                    v = PyLong_AsLongLongAndOverflow(pb, &ob);
                    if (oa || ob)
                        break;
                    if (u != v)
                        return u < v;
                }
            }
        }
    }
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* bisect.bisect_right (``right``) or bisect_left over list ``a`` from
 * ``lo``, with ``lt`` as the ordering; -1 on error */
static Py_ssize_t
bisect(PyObject *a, PyObject *x, Py_ssize_t lo, int right,
       int (*lt)(PyObject *, PyObject *))
{
    Py_ssize_t hi = PyList_GET_SIZE(a);
    while (lo < hi) {
        Py_ssize_t mid = ((size_t)lo + hi) / 2;
        PyObject *m;
        int c;
        if (mid >= PyList_GET_SIZE(a)) {
            PyErr_SetString(PyExc_RuntimeError,
                            "list changed size during bisect");
            return -1;
        }
        m = PyList_GET_ITEM(a, mid);
        Py_INCREF(m);
        c = right ? lt(x, m) : lt(m, x);
        Py_DECREF(m);
        if (c < 0)
            return -1;
        if (right ? c : !c)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* bisect.insort_right(a, x, lo) for a queue entry */
static int
insort_entry(PyObject *a, PyObject *x, Py_ssize_t lo)
{
    if (lo < 0) {
        PyErr_SetString(PyExc_ValueError, "lo must be non-negative");
        return -1;
    }
    if ((lo = bisect(a, x, lo, 1, entry_lt)) < 0)
        return -1;
    return PyList_Insert(a, lo, x);
}

/* bisect.insort_right(a, x) for a chip id on the idle list */
static int
insort_int(PyObject *a, PyObject *x)
{
    Py_ssize_t i;
    if (!PyList_CheckExact(a)) {
        PyErr_SetString(PyExc_TypeError,
                        "native core: idle chips are not a list");
        return -1;
    }
    if ((i = bisect(a, x, 0, 1, int_lt)) < 0)
        return -1;
    return PyList_Insert(a, i, x);
}

/* A PhysicalPageAddress built like ``tuple.__new__(PPA, (a, b, c, d))`` */
static PyObject *
new_ppa(PyObject *channel, PyObject *chip, PyObject *block, PyObject *page)
{
    PyObject *t = T_PPA->tp_alloc(T_PPA, 4);
    if (t == NULL)
        return NULL;
    Py_INCREF(channel);
    Py_INCREF(chip);
    Py_INCREF(block);
    Py_INCREF(page);
    PyTuple_SET_ITEM(t, 0, channel);
    PyTuple_SET_ITEM(t, 1, chip);
    PyTuple_SET_ITEM(t, 2, block);
    PyTuple_SET_ITEM(t, 3, page);
    return t;
}

/* ``addr[i]`` of a PhysicalPageAddress (its ``channel``/``chip``/... field) */
static PyObject *
ppa_field(PyObject *addr, Py_ssize_t i, PyObject *name)
{
    if (PyTuple_Check(addr) && Py_TYPE(addr) == T_PPA
            && PyTuple_GET_SIZE(addr) == 4) {
        PyObject *v = PyTuple_GET_ITEM(addr, i);
        Py_INCREF(v);
        return v;
    }
    return PyObject_GetAttr(addr, name);
}

/* FlashOp(kind, addr, tag=tag, lpn=lpn, source=source) */
static PyObject *
new_op(PyObject *kind, PyObject *addr, PyObject *tag, PyObject *lpn,
       PyObject *source)
{
    PyObject *op = T_FlashOp->tp_alloc(T_FlashOp, 0);
    if (op == NULL)
        return NULL;
    Py_INCREF(kind);
    SLOT(op, OP_kind) = kind;
    Py_INCREF(addr);
    SLOT(op, OP_addr) = addr;
    Py_INCREF(tag);
    SLOT(op, OP_tag) = tag;
    Py_INCREF(lpn);
    SLOT(op, OP_lpn) = lpn;
    Py_INCREF(Py_None);
    SLOT(op, OP_on_complete) = Py_None;
    Py_INCREF(Py_None);
    SLOT(op, OP_data) = Py_None;
    Py_INCREF(source);
    SLOT(op, OP_source) = source;
    return op;
}

/* next(counter) */
static PyObject *
next_of(PyObject *it)
{
    PyObject *v;
    if (Py_TYPE(it)->tp_iternext == NULL) {
        PyErr_Format(PyExc_TypeError, "'%.100s' object is not an iterator",
                     Py_TYPE(it)->tp_name);
        return NULL;
    }
    v = Py_TYPE(it)->tp_iternext(it);
    if (v == NULL && !PyErr_Occurred())
        PyErr_SetNone(PyExc_StopIteration);
    return v;
}

/* ------------------------------------------------------------------ */
/* stock checks                                                       */

/* Every (class, name, function) in STOCK still resolves to the stock
 * function: nothing patched a method the core replaces. */
static int
stock_classes(void)
{
    Py_ssize_t i, n = PyTuple_GET_SIZE(STOCK);
    for (i = 0; i < n; i++) {
        PyObject *row = PyTuple_GET_ITEM(STOCK, i);
        PyTypeObject *type = (PyTypeObject *)PyTuple_GET_ITEM(row, 0);
        PyObject *name = PyTuple_GET_ITEM(row, 1);
        if (_PyType_Lookup(type, name) != PyTuple_GET_ITEM(row, 2))
            return 0;
    }
    return 1;
}

/* 1 when ``o.name`` is ``func`` bound to ``o`` (neither a subclass nor
 * the instance overrides it), 0 when it is not, -1 on error */
static int
bound_to(PyObject *o, PyObject *name, PyObject *func)
{
    PyObject *v = PyObject_GetAttr(o, name);
    int r;
    if (v == NULL)
        return -1;
    r = PyMethod_Check(v) && PyMethod_GET_FUNCTION(v) == func
        && PyMethod_GET_SELF(v) == o;
    Py_DECREF(v);
    return r;
}

/* 1 when ``o.name`` is ``expected``, 0 when not, -1 on error */
static int
attr_is(PyObject *o, PyObject *name, PyObject *expected)
{
    PyObject *v = PyObject_GetAttr(o, name);
    int r;
    if (v == NULL)
        return -1;
    r = v == expected;
    Py_DECREF(v);
    return r;
}

/* Whether the controller's native path applies right now: WHY_OK, a
 * fallback reason, or -1 on error. */
static int
controller_reason(PyObject *ctrl)
{
    PyObject *v;
    int reason = WHY_OK;
    if (Py_TYPE(ctrl) != T_Controller)
        return WHY_SUBCLASS;
    if ((v = GA(ctrl, _injector)) == NULL)
        return -1;
    if (v != Py_None)
        reason = WHY_INJECTOR;
    Py_DECREF(v);
    if (reason != WHY_OK)
        return reason;
    switch (bound_to(ctrl, S__execute, F_execute)) {
    case -1:
        return -1;
    case 0:
        return WHY_EXECUTE;
    }
    return WHY_OK;
}

/* ------------------------------------------------------------------ */
/* the per-run reference cache                                        */

/*
 * References the hot paths would otherwise look up on every event:
 * the controller's bound methods and containers, the kernel's queue
 * containers, the FTL's tables and the mapping lists, a QoS host's
 * queues, arbiter and gate, plus their constant scalars.  A run() fills
 * the cache lazily and drops it whenever Python code that could rebind
 * one of them has run: every event handled in Python (a power cut's
 * halt() and reset_after_power_loss() rebind the kernel's and the
 * controller's lists), and every host-side callback reached from native
 * code that the core does not mirror (a completion hook other than SLO
 * accounting, a custom on_complete, an op callback, idle-time FTL work,
 * a non-stock idle-time query, fault recovery).  The stock closed-loop
 * and QoS completions run here and keep the cache; so does the
 * device-internal Python code the core calls (a non-stock NAND array,
 * the FTLs' rare branches, allocators and hooks, a non-greedy victim
 * scan, the physics engine, the tracer, a streaming host's op
 * generator, the SLO accountant opening an account), which never
 * rebinds them.  Mutable scalars (levels, counters, cursors) are never
 * cached.
 */
typedef struct {
    /* the running simulator and the current event's time (borrowed) */
    PyObject *run_sim, *now;
    int stock;                  /* stock_classes(), or -1: not checked */
    /* controller group: valid while ctrl != NULL */
    PyObject *ctrl;
    int reason;                 /* controller_reason(ctrl) */
    int ftln;                   /* _ftl_next_op natively: FTLN_* */
    PyObject *sim, *busy, *idle, *in_flight, *queues, *admissions, *buffer,
        *channel_free, *program, *read, *erase, *push, *next_op, *ftl,
        *lookup, *geometry, *array, *seq, *cancelled, *capacity;
    long long cpc, ppc;
    double tt;
    /* the tracer's op buffer (ctrl._op_raw) and its trim length, or
     * op_raw == NULL; the attached physics engine, or NULL */
    PyObject *op_raw, *physics;
    double op_limit;
    /* ftl.wants_background_gc and ftl.background_op: GCQ_PYTHON, or a
     * stock BaseFtl/FlexFtl function evaluated natively over gc_chips
     * (gcq is GCQ_UNKNOWN until the pump first asks); which of their
     * helpers are stock */
    int gcq, bgo, bg_min_stock, predictor_stock, flush_pi_stock;
    PyObject *gc_chips;
    /* the NAND array: LAZY_YES when the bound _array_* methods are the
     * stock NandArray ones (LAZY_UNKNOWN until an op first asks); its
     * chips and geometry bounds */
    int nand;
    PyObject *n_chips;
    long long n_channels, n_cpc, n_bpc, n_ppb;
    /* request completion: LAZY_YES when _complete_request, the
     * kernel's schedule and _push are stock; the last stats object and
     * closed-loop host found stock (borrowed identity keys, held) */
    int cq;
    PyObject *c_stats, *c_host;
    /* the victim scan: LAZY_YES when ftl._select_victim is BaseFtl's
     * over an exact MappingTable; the FTL's chip states and mapping */
    int vs;
    PyObject *v_chips, *v_mapping;
    long long v_bpc, v_ppb;
    /* NandGeometry.address_of: the last geometry seen and its sizes */
    PyObject *g_key;
    long long g_total, g_ppb, g_bpc, g_cpc;
    /* counts ctx_flush calls: the run loop re-reads the kernel's cursor
     * only when an event flushed (a Python handler may have halted) */
    unsigned long long epoch;
    /* the calendar kernel behind a stock _sim_push, or psim == NULL */
    PyObject *psim, *buckets, *key_heap, *far;
    double inv;
    /* a stock, non-coalescing write buffer, or fifo == NULL */
    PyObject *fifo, *resident;
    long long cap;
    /* FTL group (the write path of the FTL behind a stock next_op):
     * valid while fftl != NULL.  ``alloc`` is how it allocates
     * (ALLOC_*); hw/gs/nbw say whether _host_write_op, _gc_step and
     * _note_block_write are the stock BaseFtl methods; fps_page whether
     * its _page_address is.  The geometry's sizes back geometry.ppn. */
    PyObject *fftl, *chips, *mapping, *stamps, *fbuffer, *fgeometry;
    long long f_ppc, f_ppb, f_cpc, fg_channels, fg_cpc, fg_bpc, fg_ppb,
        fg_chips;
    int alloc, hw_stock, gs_stock, nbw_stock;
    /* flexFTL's allocation (alloc == ALLOC_FLEX) */
    PyObject *pinv, *managers, *policy, *decisions, *quota, *coords;
    long long reserve, interval;
    double u_high, u_low;
    /* PageFtl._allocate's active cursors (alloc == ALLOC_FPS) */
    PyObject *active;
    /* the QoS host last found stock (qos_stock) and its containers */
    PyObject *q_host, *q_tenants, *q_queues, *q_cursor, *q_arbiter,
        *q_gate;
    int q_arb;
    /* mapping group: valid while map != NULL */
    PyObject *map, *l2p, *p2l, *valid;
    long long logical, m_ppb;
} Ctx;

/* a cached reference as a new reference */
#define CX(cx, field) (Py_INCREF((cx)->field), (cx)->field)

static void
ctx_flush_mapping(Ctx *cx)
{
    Py_CLEAR(cx->map);
    Py_CLEAR(cx->l2p);
    Py_CLEAR(cx->p2l);
    Py_CLEAR(cx->valid);
}

static void
ctx_flush_ftl(Ctx *cx)
{
    Py_CLEAR(cx->fftl);
    Py_CLEAR(cx->chips);
    Py_CLEAR(cx->mapping);
    Py_CLEAR(cx->stamps);
    Py_CLEAR(cx->fbuffer);
    Py_CLEAR(cx->fgeometry);
    Py_CLEAR(cx->pinv);
    Py_CLEAR(cx->managers);
    Py_CLEAR(cx->policy);
    Py_CLEAR(cx->decisions);
    Py_CLEAR(cx->quota);
    Py_CLEAR(cx->coords);
    Py_CLEAR(cx->active);
}

static void
ctx_flush_qos(Ctx *cx)
{
    Py_CLEAR(cx->q_host);
    Py_CLEAR(cx->q_tenants);
    Py_CLEAR(cx->q_queues);
    Py_CLEAR(cx->q_cursor);
    Py_CLEAR(cx->q_arbiter);
    Py_CLEAR(cx->q_gate);
}

static void
ctx_flush(Ctx *cx)
{
    cx->now = NULL;
    cx->stock = -1;
    Py_CLEAR(cx->ctrl);
    Py_CLEAR(cx->sim);
    Py_CLEAR(cx->busy);
    Py_CLEAR(cx->idle);
    Py_CLEAR(cx->in_flight);
    Py_CLEAR(cx->queues);
    Py_CLEAR(cx->admissions);
    Py_CLEAR(cx->buffer);
    Py_CLEAR(cx->channel_free);
    Py_CLEAR(cx->program);
    Py_CLEAR(cx->read);
    Py_CLEAR(cx->erase);
    Py_CLEAR(cx->push);
    Py_CLEAR(cx->next_op);
    Py_CLEAR(cx->ftl);
    Py_CLEAR(cx->lookup);
    Py_CLEAR(cx->geometry);
    Py_CLEAR(cx->array);
    Py_CLEAR(cx->seq);
    Py_CLEAR(cx->cancelled);
    Py_CLEAR(cx->capacity);
    Py_CLEAR(cx->psim);
    Py_CLEAR(cx->buckets);
    Py_CLEAR(cx->key_heap);
    Py_CLEAR(cx->far);
    Py_CLEAR(cx->fifo);
    Py_CLEAR(cx->resident);
    Py_CLEAR(cx->op_raw);
    Py_CLEAR(cx->physics);
    Py_CLEAR(cx->gc_chips);
    Py_CLEAR(cx->n_chips);
    Py_CLEAR(cx->c_stats);
    Py_CLEAR(cx->c_host);
    Py_CLEAR(cx->v_chips);
    Py_CLEAR(cx->v_mapping);
    Py_CLEAR(cx->g_key);
    cx->epoch++;
    ctx_flush_ftl(cx);
    ctx_flush_mapping(cx);
    ctx_flush_qos(cx);
}

/* ctx_flush after a callout into ``layer`` (or F_HANDLER) */
static void
ctx_flush_after(Ctx *cx, int layer)
{
    cov_flushes[layer]++;
    ctx_flush(cx);
}

enum { LAZY_UNKNOWN = -1, LAZY_NO, LAZY_YES };
enum { GCQ_UNKNOWN = -1, GCQ_PYTHON, GCQ_BASE, GCQ_FLEX };
/* the controller's next_op: called, BaseFtl.next_op, FlexFtl.next_op */
enum { FTLN_PYTHON = 0, FTLN_BASE, FTLN_FLEX };
/* an FTL's page allocation: called, flexFTL's, PageFtl._allocate's */
enum { ALLOC_PYTHON = 0, ALLOC_FLEX, ALLOC_FPS };

/* Classify cx->ftl's wants_background_gc: the stock BaseFtl or FlexFtl
 * function (evaluated natively by wants_background_gc below), or
 * anything else (called). */
static int
ctx_gc_query(Ctx *cx)
{
    PyObject *ftl = cx->ftl, *v = GA(ftl, wants_background_gc);
    int gcq = GCQ_PYTHON, bgo = GCQ_PYTHON, bg_min = 0, predictor = 0,
        flush_pi = 0;
    if (v == NULL)
        return -1;
    if (PyMethod_Check(v) && PyMethod_GET_SELF(v) == ftl) {
        if (PyMethod_GET_FUNCTION(v) == F_base_wants_gc)
            gcq = GCQ_BASE;
        else if (PyMethod_GET_FUNCTION(v) == F_flex_wants_gc)
            gcq = GCQ_FLEX;
    }
    Py_DECREF(v);
    if ((v = GA(ftl, background_op)) == NULL)
        return -1;
    if (PyMethod_Check(v) && PyMethod_GET_SELF(v) == ftl) {
        if (PyMethod_GET_FUNCTION(v) == F_base_background_op)
            bgo = GCQ_BASE;
        else if (PyMethod_GET_FUNCTION(v) == F_flex_background_op)
            bgo = GCQ_FLEX;
    }
    Py_DECREF(v);
    if (gcq != GCQ_PYTHON || bgo != GCQ_PYTHON) {
        if ((bg_min = bound_to(ftl, S__bg_min_invalid, F_bg_min_invalid)) < 0
                || ((gcq == GCQ_FLEX || bgo == GCQ_FLEX)
                    && (predictor = bound_to(ftl, S__predictor_wants_gc,
                                             F_predictor_wants_gc)) < 0)
                || (bgo == GCQ_FLEX
                    && (flush_pi = bound_to(ftl,
                                            S__flush_parity_invalidations,
                                            F_flush_parity)) < 0)
                || (cx->gc_chips = GA(ftl, chips)) == NULL)
            return -1;
    }
    cx->gcq = gcq;
    cx->bgo = bgo;
    cx->bg_min_stock = bg_min;
    cx->predictor_stock = predictor;
    cx->flush_pi_stock = flush_pi;
    return 0;
}

/* Load the controller group for ``ctrl`` (no-op when it is loaded). */
static int
ctx_controller(Ctx *cx, PyObject *ctrl)
{
    PyObject *v;
    int c;

    if (cx->ctrl == ctrl)
        return 0;
    ctx_flush(cx);
    if ((cx->reason = controller_reason(ctrl)) < 0)
        return -1;
    Py_INCREF(ctrl);
    cx->ctrl = ctrl;
    if ((cx->sim = GA(ctrl, sim)) == NULL
            || (cx->busy = GA(ctrl, _busy)) == NULL
            || (cx->idle = GA(ctrl, _idle)) == NULL
            || (cx->in_flight = GA(ctrl, in_flight)) == NULL
            || (cx->queues = GA(ctrl, _read_queues)) == NULL
            || (cx->admissions = GA(ctrl, _admissions)) == NULL
            || (cx->buffer = GA(ctrl, write_buffer)) == NULL
            || (cx->channel_free = GA(ctrl, _channel_free)) == NULL
            || (cx->program = GA(ctrl, _array_program)) == NULL
            || (cx->read = GA(ctrl, _array_read)) == NULL
            || (cx->erase = GA(ctrl, _array_erase)) == NULL
            || (cx->push = GA(ctrl, _sim_push)) == NULL
            || (cx->next_op = GA(ctrl, _ftl_next_op)) == NULL
            || (cx->ftl = GA(ctrl, ftl)) == NULL
            || (cx->lookup = GA(ctrl, _ftl_lookup)) == NULL
            || (cx->geometry = GA(ctrl, geometry)) == NULL
            || (cx->array = GA(ctrl, array)) == NULL
            || (cx->seq = GA(cx->sim, _seq)) == NULL
            || (cx->cancelled = GA(cx->sim, _cancelled)) == NULL
            || (cx->capacity = GA(cx->buffer, capacity)) == NULL)
        goto error;
    if (ga_ll(ctrl, S__chips_per_channel, &cx->cpc) < 0
            || ga_ll(ctrl, S__pages_per_chip, &cx->ppc) < 0)
        goto error;
    if ((v = GA(ctrl, _t_transfer)) == NULL)
        goto error;
    c = as_double(v, &cx->tt);
    Py_DECREF(v);
    if (c < 0)
        goto error;
    /* the FTL's next_op natively: FlexFtl's on an exact FlexFtl, or
     * BaseFtl's on the controller's FTL (any FTL not overriding it) */
    cx->ftln = FTLN_PYTHON;
    if (PyMethod_Check(cx->next_op)) {
        PyObject *fn = PyMethod_GET_FUNCTION(cx->next_op);
        PyObject *self = PyMethod_GET_SELF(cx->next_op);
        if (fn == F_flex_next_op && Py_TYPE(self) == T_FlexFtl)
            cx->ftln = FTLN_FLEX;
        else if (fn == F_base_next_op && self == cx->ftl)
            cx->ftln = FTLN_BASE;
    }
    /* the tracer's op capture */
    if ((v = GA(ctrl, _op_raw)) == NULL)
        goto error;
    if (v == Py_None)
        Py_DECREF(v);
    else {
        cx->op_raw = v;
        if ((v = GA(ctrl, _op_limit)) == NULL)
            goto error;
        c = as_double(v, &cx->op_limit);
        Py_DECREF(v);
        if (c < 0)
            goto error;
    }
    /* the physics engine */
    if ((v = GA(ctrl, _physics)) == NULL)
        goto error;
    if (v == Py_None)
        Py_DECREF(v);
    else
        cx->physics = v;
    cx->gcq = GCQ_UNKNOWN;
    cx->nand = LAZY_UNKNOWN;
    cx->cq = LAZY_UNKNOWN;
    cx->vs = LAZY_UNKNOWN;
    /* the calendar kernel's push */
    if (PyMethod_Check(cx->push) && PyMethod_GET_FUNCTION(cx->push) == F_push
            && Py_TYPE(PyMethod_GET_SELF(cx->push)) == T_Simulator) {
        PyObject *psim = PyMethod_GET_SELF(cx->push);
        if ((v = GA(psim, _inv_width)) == NULL)
            goto error;
        c = PyFloat_CheckExact(v);
        if (c)
            cx->inv = PyFloat_AS_DOUBLE(v);
        Py_DECREF(v);
        if (c) {
            if ((cx->buckets = GA(psim, _buckets)) == NULL
                    || (cx->key_heap = GA(psim, _key_heap)) == NULL
                    || (cx->far = GA(psim, _far)) == NULL)
                goto error;
            if (PyDict_CheckExact(cx->buckets)) {
                Py_INCREF(psim);
                cx->psim = psim;
            }
        }
    }
    /* the write buffer's containers (the native drain) */
    if (Py_TYPE(cx->buffer) == T_WriteBuffer) {
        if ((v = GA(cx->buffer, coalesce)) == NULL)
            goto error;
        c = truthy(v);
        Py_DECREF(v);
        if (c < 0)
            goto error;
        if (!c) {
            if ((cx->fifo = GA(cx->buffer, _fifo)) == NULL
                    || (cx->resident = GA(cx->buffer, _resident)) == NULL
                    || as_ll(cx->capacity, &cx->cap) < 0)
                goto error;
        }
    }
    return 0;
error:
    ctx_flush(cx);
    return -1;
}

/* Load the FTL group for ``ftl``, the FTL behind the controller's stock
 * next_op (no-op when it is loaded). */
static int
ctx_ftl(Ctx *cx, PyObject *ftl)
{
    PyObject *v, *config;
    int c, fps[4] = {0, 0, 0, 0};

    if (cx->fftl == ftl)
        return 0;
    ctx_flush_ftl(cx);
    if ((cx->chips = GA(ftl, chips)) == NULL
            || (cx->mapping = GA(ftl, mapping)) == NULL
            || (cx->stamps = GA(ftl, _block_write_stamp)) == NULL
            || (cx->fbuffer = GA(ftl, write_buffer)) == NULL
            || (cx->fgeometry = GA(ftl, geometry)) == NULL)
        goto error;
    if (ga_ll(ftl, S__pages_per_chip, &cx->f_ppc) < 0
            || ga_ll(ftl, S__ppb, &cx->f_ppb) < 0
            || ga_ll(ftl, S__cpc, &cx->f_cpc) < 0)
        goto error;
    cx->fg_chips = -1;               /* geometry.ppn calls Python */
    if (Py_TYPE(cx->fgeometry) == T_Geometry
            && (ga_ll(cx->fgeometry, S_channels, &cx->fg_channels) < 0
                || ga_ll(cx->fgeometry, S_chips_per_channel, &cx->fg_cpc) < 0
                || ga_ll(cx->fgeometry, S_blocks_per_chip, &cx->fg_bpc) < 0
                || ga_ll(cx->fgeometry, S_pages_per_block, &cx->fg_ppb) < 0))
        goto error;
    if (Py_TYPE(cx->fgeometry) == T_Geometry)
        cx->fg_chips = cx->fg_channels * cx->fg_cpc;
    if ((cx->hw_stock = bound_to(ftl, S__host_write_op, F_host_write_op)) < 0
            || (cx->gs_stock = bound_to(ftl, S__gc_step, F_gc_step)) < 0
            || (cx->nbw_stock = bound_to(ftl, S__note_block_write,
                                         F_note_block_write)) < 0)
        goto error;
    cx->alloc = ALLOC_PYTHON;
    if (Py_TYPE(ftl) == T_FlexFtl) {
        if ((cx->pinv = GA(ftl, _pending_invalidations)) == NULL
                || (cx->managers = GA(ftl, managers)) == NULL
                || (cx->policy = GA(ftl, policy)) == NULL
                || (cx->decisions = GA(cx->policy, decisions)) == NULL
                || (cx->quota = GA(ftl, quota)) == NULL
                || (cx->coords = GA(ftl, _coords)) == NULL
                || ga_ll(ftl, S_parity_interval, &cx->interval) < 0)
            goto error;
        if ((config = GA(ftl, config)) == NULL)
            goto error;
        c = ga_ll(config, S_gc_reserve_blocks, &cx->reserve);
        Py_DECREF(config);
        if (c < 0 || (config = GA(cx->policy, config)) == NULL)
            goto error;
        c = -1;
        if ((v = GA(config, u_high)) != NULL
                && as_double(v, &cx->u_high) == 0) {
            Py_DECREF(v);
            if ((v = GA(config, u_low)) != NULL
                    && as_double(v, &cx->u_low) == 0)
                c = 0;
        }
        Py_XDECREF(v);
        Py_DECREF(config);
        if (c < 0)
            goto error;
        cx->alloc = ALLOC_FLEX;
    }
    else {
        /* PageFtl._allocate behind both allocation methods (a PageFtl
         * has _allocate: it is looked up only then) */
        if ((fps[0] = bound_to(ftl, S__allocate_host_page,
                               F_page_alloc_host)) < 0
                || (fps[0] && (fps[1] = bound_to(ftl, S__allocate_gc_page,
                                                 F_page_alloc_gc)) < 0)
                || (fps[0] && fps[1]
                    && (fps[2] = bound_to(ftl, S__allocate,
                                          F_page_allocate)) < 0)
                || (fps[0] && fps[1] && fps[2]
                    && (fps[3] = bound_to(ftl, S__page_address,
                                          F_page_address)) < 0))
            goto error;
        if (fps[0] && fps[1] && fps[2] && fps[3]) {
            if ((cx->active = GA(ftl, _active)) == NULL)
                goto error;
            if (PyList_CheckExact(cx->active))
                cx->alloc = ALLOC_FPS;
            else
                Py_CLEAR(cx->active);
        }
    }
    Py_INCREF(ftl);
    cx->fftl = ftl;
    return 0;
error:
    ctx_flush_ftl(cx);
    return -1;
}

/* Load the mapping group for ``mapping`` (an exact MappingTable). */
static int
ctx_mapping(Ctx *cx, PyObject *mapping)
{
    if (cx->map == mapping)
        return 0;
    ctx_flush_mapping(cx);
    if ((cx->l2p = GA(mapping, _l2p)) == NULL
            || (cx->p2l = GA(mapping, _p2l)) == NULL
            || (cx->valid = GA(mapping, _valid)) == NULL
            || ga_ll(mapping, S_logical_pages, &cx->logical) < 0
            || ga_ll(mapping, S__pages_per_block, &cx->m_ppb) < 0) {
        ctx_flush_mapping(cx);
        return -1;
    }
    Py_INCREF(mapping);
    cx->map = mapping;
    return 0;
}

/* the controller group of ``ctrl``, loaded; 0 or -1 */
#define NEED_CTRL(cx, ctrl) ctx_controller((cx), (ctrl))

/* ------------------------------------------------------------------ */
/* kernel: Simulator._push                                            */

/* Simulator._push(entry) on the calendar kernel cached in ``cx``. */
static int
kernel_push(Ctx *cx, PyObject *entry)
{
    PyObject *sim = cx->psim, *time, *v, *key = NULL, *bucket;
    double t, x;
    long long k, active_key, horizon;
    int r = -1;

    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) < 1)
        goto python;
    time = PyList_GET_ITEM(entry, 0);
    if (!PyFloat_Check(time) && !PyLong_Check(time))
        goto python;
    if (as_double(time, &t) < 0)
        return -1;
    x = t * cx->inv;
    if (!(fabs(x) < 4.0e15))
        goto python;
    k = (long long)x;               /* int() truncates toward zero */
    if (ga_ll(sim, S__active_key, &active_key) < 0)
        return -1;
    if (k > active_key) {
        if (ga_ll(sim, S__horizon_key, &horizon) < 0)
            return -1;
        if ((key = PyLong_FromLongLong(k)) == NULL)
            return -1;
        if (k < horizon) {
            bucket = PyDict_GetItemWithError(cx->buckets, key);
            if (bucket == NULL) {
                PyObject *fresh, *res;
                if (PyErr_Occurred())
                    goto done;
                if ((fresh = PyList_New(1)) == NULL)
                    goto done;
                Py_INCREF(entry);
                PyList_SET_ITEM(fresh, 0, entry);
                r = PyDict_SetItem(cx->buckets, key, fresh);
                Py_DECREF(fresh);
                if (r < 0)
                    goto done;
                r = -1;
                res = PyObject_CallFunctionObjArgs(heappush_fn, cx->key_heap,
                                                   key, NULL);
                if (res == NULL)
                    goto done;
                Py_DECREF(res);
            }
            else if (PyList_CheckExact(bucket)) {
                if (PyList_Append(bucket, entry) < 0)
                    goto done;
            }
            else {
                PyObject *res = call_method1(bucket, S_append, entry);
                if (res == NULL)
                    goto done;
                Py_DECREF(res);
            }
        }
        else {
            PyObject *res = PyObject_CallFunctionObjArgs(heappush_fn, cx->far,
                                                         entry, NULL);
            if (res == NULL)
                goto done;
            Py_DECREF(res);
        }
        r = 0;
    }
    else {
        PyObject *active;
        long long pos;
        if ((active = GA(sim, _active)) == NULL)
            return -1;
        if (ga_ll(sim, S__active_pos, &pos) < 0) {
            Py_DECREF(active);
            return -1;
        }
        if (!PyList_CheckExact(active)) {
            Py_DECREF(active);
            goto python;
        }
        r = insort_entry(active, entry, (Py_ssize_t)pos);
        Py_DECREF(active);
    }
done:
    Py_XDECREF(key);
    return r;

python:
    /* anything unusual: the Python method itself */
    CALLOUT(L_KERNEL);
    v = PyObject_CallFunctionObjArgs(F_push, sim, entry, NULL);
    if (v == NULL)
        return -1;
    Py_DECREF(v);
    return 0;
}

/* controller._sim_push(entry): natively when it is the stock calendar
 * push (the controller group of cx is loaded) */
static int
sim_push(Ctx *cx, PyObject *entry)
{
    PyObject *res;
    if (cx->psim != NULL)
        return kernel_push(cx, entry);
    CALLOUT(L_KERNEL);
    res = PyObject_CallOneArg(cx->push, entry);
    ctx_flush_after(cx, L_KERNEL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Simulator._advance_day: 1 when a bucket was activated, 0 when none
 * remain.  Migrating entries out of the overflow heap is rare (timers
 * past the calendar horizon) and stays in the Python method. */
static int
kernel_advance_day(PyObject *sim)
{
    PyObject *far, *heap, *key = NULL, *buckets = NULL, *active = NULL,
        *res, *pos0 = NULL;
    long long k, span;
    int r = -1;

    if ((far = GA(sim, _far)) == NULL)
        return -1;
    if (!PyList_CheckExact(far) || PyList_GET_SIZE(far) != 0) {
        Py_DECREF(far);
        CALLOUT(L_KERNEL);
        res = call_method0(sim, S__advance_day);
        if (res == NULL)
            return -1;
        r = truthy(res);
        Py_DECREF(res);
        return r;
    }
    Py_DECREF(far);
    if ((heap = GA(sim, _key_heap)) == NULL)
        return -1;
    switch (truthy(heap)) {
    case -1:
        goto done;
    case 0:
        r = 0;
        goto done;
    }
    /* key = heappop(key_heap) */
    if ((key = PyObject_CallOneArg(heappop_fn, heap)) == NULL)
        goto done;
    /* active = self._buckets.pop(key); active.sort() */
    if ((buckets = GA(sim, _buckets)) == NULL)
        goto done;
    if ((active = call_method1(buckets, S_pop, key)) == NULL)
        goto done;
    if (PyList_CheckExact(active)) {
        if (PyList_Sort(active) < 0)
            goto done;
    }
    else {
        res = PyObject_CallMethod(active, "sort", NULL);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (SA(sim, _active, active) < 0)
        goto done;
    if ((pos0 = PyLong_FromLong(0)) == NULL || SA(sim, _active_pos, pos0) < 0)
        goto done;
    if (SA(sim, _active_key, key) < 0)
        goto done;
    if (as_ll(key, &k) < 0 || ga_ll(sim, S__span, &span) < 0)
        goto done;
    if (sa_ll(sim, S__horizon_key, k + span) < 0)
        goto done;
    r = 1;
done:
    Py_DECREF(heap);
    Py_XDECREF(key);
    Py_XDECREF(buckets);
    Py_XDECREF(active);
    Py_XDECREF(pos0);
    return r;
}

/* ------------------------------------------------------------------ */
/* NAND array                                                         */

/* 1 when ``m`` is ``func`` bound to ``self`` */
static inline int
method_is(PyObject *m, PyObject *func, PyObject *self)
{
    return PyMethod_Check(m) && PyMethod_GET_FUNCTION(m) == func
        && PyMethod_GET_SELF(m) == self;
}

/* Classify the controller's NAND calls: native when its bound
 * _array_program, _array_read and _array_erase are the stock methods of
 * an exact NandArray over an exact NandGeometry whose is_programmed is
 * stock too.  A TLC array, a subclass or a patched binding keeps every
 * NAND call on Python. */
static int
ctx_nand(Ctx *cx)
{
    PyObject *array = cx->array, *geometry;
    int c;

    cx->nand = LAZY_NO;
    if (Py_TYPE(array) != T_Array
            || !method_is(cx->program, F_array_program, array)
            || !method_is(cx->read, F_array_read, array)
            || !method_is(cx->erase, F_array_erase, array))
        return 0;
    if ((c = bound_to(array, S_is_programmed, F_is_programmed)) <= 0)
        return c;
    if ((geometry = GA(array, geometry)) == NULL)
        return -1;
    c = Py_TYPE(geometry) == T_Geometry;
    if (c && (ga_ll(geometry, S_channels, &cx->n_channels) < 0
              || ga_ll(geometry, S_chips_per_channel, &cx->n_cpc) < 0
              || ga_ll(geometry, S_blocks_per_chip, &cx->n_bpc) < 0
              || ga_ll(geometry, S_pages_per_block, &cx->n_ppb) < 0))
        c = -1;
    Py_DECREF(geometry);
    if (c <= 0)
        return c;
    if ((cx->n_chips = GA(array, chips)) == NULL)
        return -1;
    if (PyList_CheckExact(cx->n_chips))
        cx->nand = LAZY_YES;
    else
        Py_CLEAR(cx->n_chips);
    return 0;
}

/* 1 when the NAND calls run natively, 0 when not, -1 on error */
static int
nand_native(Ctx *cx)
{
    if (cx->nand == LAZY_UNKNOWN && ctx_nand(cx) < 0)
        return -1;
    return cx->nand == LAZY_YES;
}

/* ``NandArray.chip_at(addr)`` and the addressed block for in-bounds
 * int fields: 1 with *chip, *blk (new references) and *page set, 0
 * when the address is not a plain in-bounds PhysicalPageAddress or the
 * objects are not exact Chip/Block instances (the Python method then
 * decides, raising its exact error), -1 on error. */
static int
nand_block(Ctx *cx, long long channel, long long chip, long long block,
           PyObject **chip_out, PyObject **blk_out)
{
    PyObject *c, *blocks, *b;
    long long cid;

    if (!(0 <= channel && channel < cx->n_channels && 0 <= chip
          && chip < cx->n_cpc && 0 <= block && block < cx->n_bpc))
        return 0;
    cid = channel * cx->n_cpc + chip;
    if (cid >= PyList_GET_SIZE(cx->n_chips))
        return 0;
    c = PyList_GET_ITEM(cx->n_chips, (Py_ssize_t)cid);
    if (Py_TYPE(c) != T_Chip)
        return 0;
    if ((blocks = GA(c, blocks)) == NULL)
        return -1;
    if (!PyList_CheckExact(blocks) || block >= PyList_GET_SIZE(blocks)
            || Py_TYPE(b = PyList_GET_ITEM(blocks, (Py_ssize_t)block))
               != T_Block) {
        Py_DECREF(blocks);
        return 0;
    }
    Py_INCREF(c);
    Py_INCREF(b);
    Py_DECREF(blocks);
    *chip_out = c;
    *blk_out = b;
    return 1;
}

static int
nand_locate(Ctx *cx, PyObject *addr, PyObject **chip, PyObject **blk,
            long long *page)
{
    long long f[4];
    int i;

    if (Py_TYPE(addr) != T_PPA || PyTuple_GET_SIZE(addr) != 4)
        return 0;
    for (i = 0; i < 4; i++) {
        PyObject *v = PyTuple_GET_ITEM(addr, i);
        int overflow;
        if (!PyLong_CheckExact(v))
            return 0;
        f[i] = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow)
            return 0;
    }
    if (!(0 <= f[3] && f[3] < cx->n_ppb))
        return 0;
    *page = f[3];
    return nand_block(cx, f[0], f[1], f[2], chip, blk);
}

/* ``blk._states`` when it is a bytearray holding ``page`` (new
 * reference), Py_None when it is not (new reference), NULL on error */
static PyObject *
block_states(PyObject *blk, long long page)
{
    PyObject *states = GA(blk, _states);
    if (states == NULL)
        return NULL;
    if (!PyByteArray_CheckExact(states)
            || page >= PyByteArray_GET_SIZE(states)) {
        Py_DECREF(states);
        Py_RETURN_NONE;
    }
    return states;
}

/* ``o.name += delta`` on a float attribute (``busy_time``) */
static int
attr_add_float(PyObject *o, PyObject *name, double delta)
{
    PyObject *v = PyObject_GetAttr(o, name);
    double x;
    int r;
    if (v == NULL)
        return -1;
    r = as_double(v, &x);
    Py_DECREF(v);
    if (r < 0 || (v = PyFloat_FromDouble(x + delta)) == NULL)
        return -1;
    r = PyObject_SetAttr(o, name, v);
    Py_DECREF(v);
    return r;
}

/* ``chip.timing.<name>`` as a double */
static int
chip_timing(PyObject *chip, PyObject *name, double *out)
{
    PyObject *timing = GA(chip, timing), *v;
    int r;
    if (timing == NULL)
        return -1;
    v = PyObject_GetAttr(timing, name);
    Py_DECREF(timing);
    if (v == NULL)
        return -1;
    r = as_double(v, out);
    Py_DECREF(v);
    return r;
}

#define ERASED_CODE 0
#define PROGRAMMED_CODE 1

/* NandArray.program -> Chip.program (the sequence-scheme legality
 * check) -> Block.program, for a legal program of an erased page: 1
 * with *lat set, 0 when the Python method must run (an illegal or
 * repeated program, which it raises with the exact message; anything
 * unusual), -1 on error.  The updates run in Chip.program's order. */
static int
nand_program(Ctx *cx, PyObject *addr, PyObject *data, double *lat)
{
    PyObject *chip = NULL, *blk = NULL, *states = NULL, *v = NULL;
    long long page, wl, wordlines;
    const char *s;
    int r = -1, c, half, legal;

    if ((c = nand_locate(cx, addr, &chip, &blk, &page)) <= 0)
        return c;
    if ((states = block_states(blk, page)) == NULL
            || ga_ll(blk, S_wordlines, &wordlines) < 0)
        goto done;
    if (states == Py_None || page >= 2 * wordlines) {
        r = 0;
        goto done;
    }
    s = PyByteArray_AS_STRING(states);
    half = (int)(page & 1);
    wl = page >> 1;
    if ((v = GA(chip, _unconstrained)) == NULL || (c = truthy(v)) < 0)
        goto done;
    Py_CLEAR(v);
    if (c)
        legal = 1;
    else if (half)
        legal = s[page - 1] == PROGRAMMED_CODE
            && (wl == 0 || s[page - 2] == PROGRAMMED_CODE)
            && (wl + 1 >= wordlines || s[page + 1] == PROGRAMMED_CODE);
    else {
        legal = wl == 0 || s[page - 2] == PROGRAMMED_CODE;
        if (legal) {
            if ((v = GA(chip, _fps)) == NULL || (c = truthy(v)) < 0)
                goto done;
            Py_CLEAR(v);
            legal = !c || wl < 2 || s[page - 3] == PROGRAMMED_CODE;
        }
    }
    if (!legal || s[page] != ERASED_CODE) {
        r = 0;
        goto done;
    }
    PyByteArray_AS_STRING(states)[page] = PROGRAMMED_CODE;
    if (attr_add(blk, S__used, 1) < 0 || (v = GA(blk, _data)) == NULL)
        goto done;
    if (v != Py_None && set_item(v, (Py_ssize_t)page, data) < 0)
        goto done;
    Py_CLEAR(v);
    if ((v = GA(blk, track_history)) == NULL || (c = truthy(v)) < 0)
        goto done;
    Py_CLEAR(v);
    if (c) {
        PyObject *index = PyLong_FromLongLong(page);
        if (index == NULL || (v = GA(blk, program_history)) == NULL) {
            Py_XDECREF(index);
            goto done;
        }
        c = list_append(v, index);
        Py_DECREF(index);
        Py_CLEAR(v);
        if (c < 0)
            goto done;
    }
    if (attr_add(chip, half ? S_msb_programs : S_lsb_programs, 1) < 0
            || (v = GA(chip, _prog_times)) == NULL)
        goto done;
    {
        PyObject *duration = item_at(v, half);
        if (duration == NULL)
            goto done;
        c = as_double(duration, lat);
        Py_DECREF(duration);
        if (c < 0)
            goto done;
    }
    if (attr_add_float(chip, S_busy_time, *lat) < 0)
        goto done;
    r = 1;
done:
    Py_XDECREF(chip);
    Py_XDECREF(blk);
    Py_XDECREF(states);
    Py_XDECREF(v);
    return r;
}

/* NandArray.read -> Chip.read of a programmed page (the payload is
 * not needed): 1 with *lat set, 0 when the Python method must run (an
 * erased or destroyed page, which it raises for), -1 on error */
static int
nand_read(Ctx *cx, PyObject *addr, double *lat)
{
    PyObject *chip = NULL, *blk = NULL, *states = NULL;
    long long page;
    int r = -1, c;

    if ((c = nand_locate(cx, addr, &chip, &blk, &page)) <= 0)
        return c;
    if ((states = block_states(blk, page)) == NULL)
        goto done;
    if (states == Py_None
            || PyByteArray_AS_STRING(states)[page] != PROGRAMMED_CODE) {
        r = 0;
        goto done;
    }
    if (attr_add(chip, S_reads, 1) < 0
            || chip_timing(chip, S_t_read, lat) < 0
            || attr_add_float(chip, S_busy_time, *lat) < 0)
        goto done;
    r = 1;
done:
    Py_XDECREF(chip);
    Py_XDECREF(blk);
    Py_XDECREF(states);
    return r;
}

/* NandArray.is_programmed: 1 with *out set, 0 when the Python method
 * must run, -1 on error */
static int
nand_is_programmed(Ctx *cx, PyObject *addr, int *out)
{
    PyObject *chip = NULL, *blk = NULL, *states;
    long long page;
    int c;

    if ((c = nand_locate(cx, addr, &chip, &blk, &page)) <= 0)
        return c;
    states = block_states(blk, page);
    Py_DECREF(chip);
    Py_DECREF(blk);
    if (states == NULL)
        return -1;
    c = states != Py_None;
    if (c)
        *out = PyByteArray_AS_STRING(states)[page] == PROGRAMMED_CODE;
    Py_DECREF(states);
    return c;
}

/* NandArray.erase -> Chip.erase -> Block.erase: 1 with *lat set, 0
 * when the Python method must run, -1 on error */
static int
nand_erase(Ctx *cx, PyObject *channel, PyObject *chip_no, PyObject *block,
           double *lat)
{
    PyObject *f[3] = {channel, chip_no, block}, *chip = NULL, *blk = NULL,
        *v = NULL, *nv = NULL;
    long long x[3], pages;
    int r = -1, c, i;

    for (i = 0; i < 3; i++) {
        int overflow;
        if (!PyLong_CheckExact(f[i]))
            return 0;
        x[i] = PyLong_AsLongLongAndOverflow(f[i], &overflow);
        if (overflow)
            return 0;
    }
    if (cx->n_ppb <= 0)
        return 0;                   /* page 0 is out of range */
    if ((c = nand_block(cx, x[0], x[1], x[2], &chip, &blk)) <= 0)
        return c;
    /* Block.erase */
    if (ga_ll(blk, S_pages, &pages) < 0)
        goto done;
    if (pages < 0) {
        r = 0;
        goto done;
    }
    if ((nv = PyByteArray_FromStringAndSize(NULL, (Py_ssize_t)pages)) == NULL)
        goto done;
    memset(PyByteArray_AS_STRING(nv), 0, (size_t)pages);
    if (SA(blk, _states, nv) < 0)
        goto done;
    Py_CLEAR(nv);
    if ((v = GA(blk, _data)) == NULL)
        goto done;
    if (v != Py_None) {
        if ((nv = PyList_New((Py_ssize_t)pages)) == NULL)
            goto done;
        for (i = 0; i < pages; i++) {
            Py_INCREF(Py_None);
            PyList_SET_ITEM(nv, i, Py_None);
        }
        if (SA(blk, _data, nv) < 0)
            goto done;
        Py_CLEAR(nv);
    }
    Py_CLEAR(v);
    if ((v = GA(blk, program_history)) == NULL || (c = truthy(v)) < 0)
        goto done;
    if (c) {
        if ((nv = PyList_New(0)) == NULL
                || SA(blk, program_history, nv) < 0)
            goto done;
        Py_CLEAR(nv);
    }
    if (SA(blk, _used, ZERO) < 0 || attr_add(blk, S_erase_count, 1) < 0)
        goto done;
    /* Chip.erase */
    if (attr_add(chip, S_erases, 1) < 0
            || chip_timing(chip, S_t_erase, lat) < 0
            || attr_add_float(chip, S_busy_time, *lat) < 0)
        goto done;
    r = 1;
done:
    Py_XDECREF(chip);
    Py_XDECREF(blk);
    Py_XDECREF(v);
    Py_XDECREF(nv);
    return r;
}

/* ------------------------------------------------------------------ */
/* controller                                                         */

static PyObject *flex_next_op(Ctx *cx, PyObject *ftl, PyObject *chip,
                              long long cid, PyObject *now);
static PyObject *ftl_next_op(Ctx *cx, PyObject *ftl, PyObject *chip,
                             long long cid, PyObject *now);
static PyObject *ftl_gc_step(Ctx *cx, PyObject *ftl, PyObject *chip,
                             long long cid);
static int qos_stock(Ctx *cx, PyObject *host);
static int hook_stock(PyObject *hook, int depth);
static int hook_call(PyObject *hook, PyObject *request, PyObject *now);
static PyObject *new_request(PyObject *time, PyObject *kind, PyObject *lpn,
                             PyObject *npages, PyObject *tenant);
static int qos_on_done(Ctx *cx, PyObject *host, PyObject *tenant,
                       PyObject *stream, PyObject *think);

/* ``self.sim.now`` (new reference) */
static PyObject *
ctx_now(Ctx *cx)
{
    if (cx->now != NULL && cx->sim == cx->run_sim) {
        Py_INCREF(cx->now);
        return cx->now;
    }
    return GA(cx->sim, now);
}

/* Classify the completion path: native when the controller's
 * _complete_request is the stock method and the calendar kernel behind
 * _sim_push, the controller's own simulator, has stock schedule and
 * _push methods. */
static int
ctx_completion(Ctx *cx)
{
    int c;

    cx->cq = LAZY_NO;
    if (cx->psim == NULL || cx->psim != cx->sim)
        return 0;
    if ((c = bound_to(cx->ctrl, S__complete_request, F_complete_request)) <= 0
            || (c = bound_to(cx->psim, S_schedule, F_schedule)) <= 0
            || (c = bound_to(cx->psim, S__push, F_push)) <= 0)
        return c;
    cx->cq = LAZY_YES;
    return 0;
}

/* 1 when ``stats`` is an exact SimStats whose note_request_complete and
 * note_arrival are the stock methods, 0 when not, -1 on error */
static int
stats_stock(Ctx *cx, PyObject *stats)
{
    int c;
    if (stats == cx->c_stats)
        return 1;
    if (Py_TYPE(stats) != T_SimStats)
        return 0;
    if ((c = bound_to(stats, S_note_request_complete,
                      F_note_request_complete)) <= 0
            || (c = bound_to(stats, S_note_arrival, F_note_arrival)) <= 0)
        return c;
    Py_INCREF(stats);
    Py_XSETREF(cx->c_stats, stats);
    return 1;
}

/* The closed-loop host behind a StreamCompletion: 1 an exact
 * StreamingClosedLoopHost, 2 an exact ClosedLoopHost, each with its
 * stock _advance and scheduling on the controller's kernel; 0 anything
 * else; -1 on error */
static int
host_stock(Ctx *cx, PyObject *host)
{
    PyObject *sim;
    int kind, c;

    if (Py_TYPE(host) == T_StreamHost)
        kind = 1;
    else if (Py_TYPE(host) == T_ClosedHost)
        kind = 2;
    else
        return 0;
    if (host == cx->c_host)
        return kind;
    if ((c = bound_to(host, S__advance, kind == 1 ? F_stream_advance
                      : F_closed_advance)) <= 0)
        return c;
    if ((sim = GA(host, sim)) == NULL)
        return -1;
    c = sim == cx->psim;
    Py_DECREF(sim);
    if (!c)
        return 0;
    Py_INCREF(host);
    Py_XSETREF(cx->c_host, host);
    return kind;
}

/* SimStats.note_request_complete(request, now) */
static int
note_request_complete(PyObject *stats, PyObject *request, PyObject *now)
{
    PyObject *rtime = NULL, *kind = NULL, *latency = NULL, *list = NULL,
        *last = NULL;
    int r = -1, c;

    /* request.completed_at = time; latency = time - request.time */
    if (RQ_SET(request, completed_at, now) < 0
            || (rtime = RQ_GET(request, time)) == NULL)
        goto done;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(rtime))
        latency = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                     - PyFloat_AS_DOUBLE(rtime));
    else
        latency = PyNumber_Subtract(now, rtime);
    if (latency == NULL || (kind = RQ_GET(request, kind)) == NULL)
        goto done;
    if (kind == R_READ) {
        if (attr_add(stats, S_completed_reads, 1) < 0
                || (list = GA(stats, read_latencies)) == NULL)
            goto done;
    }
    else if (attr_add(stats, S_completed_writes, 1) < 0
             || (list = GA(stats, write_latencies)) == NULL)
        goto done;
    if (list_append(list, latency) < 0)
        goto done;
    /* if time > self.last_completion: self.last_completion = time */
    if ((last = GA(stats, last_completion)) == NULL)
        goto done;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(last))
        c = PyFloat_AS_DOUBLE(now) > PyFloat_AS_DOUBLE(last);
    else if ((c = PyObject_RichCompareBool(now, last, Py_GT)) < 0)
        goto done;
    if (c && SA(stats, last_completion, now) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(rtime);
    Py_XDECREF(kind);
    Py_XDECREF(latency);
    Py_XDECREF(list);
    Py_XDECREF(last);
    return r;
}

/* ``sim.schedule(delay, fn, *args)`` on the controller's calendar
 * kernel: Simulator.schedule with _check_schedule, the same Event (seq,
 * fn and args objects) pushed straight into the queue. */
static int
kernel_schedule(Ctx *cx, PyObject *delay, PyObject *fn, PyObject *args)
{
    PyObject *now = NULL, *time = NULL, *seq = NULL, *fields = NULL,
        *event = NULL;
    double d;
    int r = -1;

    /* _check_schedule(delay): the Python function judges (and raises
     * for) anything but a finite, non-negative float */
    if (!(PyFloat_CheckExact(delay) && (d = PyFloat_AS_DOUBLE(delay)) >= 0.0
          && !isinf(d))) {
        PyObject *res;
        CALLOUT(L_KERNEL);
        res = PyObject_CallOneArg(F_check_schedule, delay);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    if ((now = ctx_now(cx)) == NULL)
        goto done;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(delay))
        time = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                  + PyFloat_AS_DOUBLE(delay));
    else
        time = PyNumber_Add(now, delay);
    /* Event((self.now + delay, priority, next(self._seq), fn, args,
     *        False, self._cancelled)) */
    if (time == NULL || (seq = next_of(cx->seq)) == NULL
            || (fields = PyTuple_Pack(7, time, ZERO, seq, fn, args, Py_False,
                                      cx->cancelled)) == NULL
            || (event = PyObject_CallOneArg((PyObject *)T_Event, fields))
               == NULL)
        goto done;
    r = kernel_push(cx, event);
done:
    Py_XDECREF(now);
    Py_XDECREF(time);
    Py_XDECREF(seq);
    Py_XDECREF(fields);
    Py_XDECREF(event);
    return r;
}

/* ``self.sim.schedule(think, self._issue, index)`` of a closed-loop
 * host */
static int
host_schedule(Ctx *cx, PyObject *host, PyObject *index, PyObject *think)
{
    PyObject *fn, *args;
    int r = -1;

    if ((fn = GA(host, _issue)) == NULL)
        return -1;
    if ((args = PyTuple_Pack(1, index)) != NULL)
        r = kernel_schedule(cx, think, fn, args);
    Py_DECREF(fn);
    Py_XDECREF(args);
    return r;
}

/* StreamingClosedLoopHost._advance (``streaming``) or
 * ClosedLoopHost._advance */
static int
host_advance(Ctx *cx, PyObject *host, int streaming, PyObject *index,
             PyObject *think)
{
    PyObject *v = NULL, *item = NULL, *nv = NULL, *nxt = NULL,
        *stream = NULL;
    int r = -1, more = 0;

    if (streaming) {
        /* nxt = next(self._iters[index], None) */
        if ((v = GA(host, _iters)) == NULL
                || (item = PyObject_GetItem(v, index)) == NULL)
            goto done;
        Py_CLEAR(v);
        if (!PyIter_Check(item)) {
            PyErr_Format(PyExc_TypeError, "'%.200s' object is not an iterator",
                         Py_TYPE(item)->tp_name);
            goto done;
        }
        CALLOUT(L_SCENARIO);
        if ((nxt = (*Py_TYPE(item)->tp_iternext)(item)) == NULL) {
            if (PyErr_Occurred()) {
                if (!PyErr_ExceptionMatches(PyExc_StopIteration))
                    goto done;
                PyErr_Clear();
            }
            Py_INCREF(Py_None);
            nxt = Py_None;
        }
        Py_CLEAR(item);
        /* self._pulled[index] += 1; self._current[index] = nxt */
        if ((v = GA(host, _pulled)) == NULL
                || (item = PyObject_GetItem(v, index)) == NULL
                || (nv = PyNumber_Add(item, ONE)) == NULL
                || PyObject_SetItem(v, index, nv) < 0)
            goto done;
        Py_CLEAR(v);
        if ((v = GA(host, _current)) == NULL
                || PyObject_SetItem(v, index, nxt) < 0)
            goto done;
        more = nxt != Py_None;
    }
    else {
        Py_ssize_t n;
        /* self._cursor[index] += 1
         * if self._cursor[index] < len(self.streams[index]) */
        if ((v = GA(host, _cursor)) == NULL
                || (item = PyObject_GetItem(v, index)) == NULL
                || (nv = PyNumber_Add(item, ONE)) == NULL
                || PyObject_SetItem(v, index, nv) < 0)
            goto done;
        Py_CLEAR(item);
        Py_CLEAR(nv);
        if ((item = PyObject_GetItem(v, index)) == NULL)
            goto done;
        Py_CLEAR(v);
        if ((v = GA(host, streams)) == NULL
                || (stream = PyObject_GetItem(v, index)) == NULL
                || (n = PyObject_Length(stream)) < 0
                || (nv = PyLong_FromSsize_t(n)) == NULL
                || (more = int_lt(item, nv)) < 0)
            goto done;
    }
    r = more ? host_schedule(cx, host, index, think) : 0;
done:
    Py_XDECREF(v);
    Py_XDECREF(item);
    Py_XDECREF(nv);
    Py_XDECREF(nxt);
    Py_XDECREF(stream);
    return r;
}

/* StorageController._complete_request.  Natively when the controller's
 * stats are a stock SimStats, the completion hook is None or stock QoS
 * accounting (hook_stock) and the request's on_complete is None, a
 * StreamCompletion of a stock closed-loop host or a TenantCompletion of
 * a stock QoS host: these run only stock code, so the cache stands.
 * Anything else calls the Python method, and the cache is dropped. */
static int
complete_request(Ctx *cx, PyObject *ctrl, PyObject *request)
{
    PyObject *hook, *stats = NULL, *cb = NULL, *now = NULL, *host = NULL,
        *res;
    int r = -1, c, kind = 0;

    if ((hook = GA(ctrl, completion_hook)) == NULL)
        return -1;
    if (!hook_stock(hook, 0))
        goto python;
    if (NEED_CTRL(cx, ctrl) < 0)
        goto done;
    if (cx->cq == LAZY_UNKNOWN && ctx_completion(cx) < 0)
        goto done;
    if (cx->cq != LAZY_YES)
        goto python;
    if ((stats = GA(ctrl, stats)) == NULL || (c = stats_stock(cx, stats)) < 0
            || (cb = RQ_GET(request, on_complete)) == NULL)
        goto done;
    if (!c)
        goto python;
    if (Py_TYPE(cb) == T_Completion) {
        if ((host = SLOT(cb, SC_host)) == NULL || SLOT(cb, SC_index) == NULL
                || SLOT(cb, SC_think) == NULL)
            goto python;
        Py_INCREF(host);
        if ((kind = host_stock(cx, host)) < 0)
            goto done;
        if (!kind)
            goto python;
    }
    else if (Py_TYPE(cb) == T_TenantCompletion) {
        if ((host = SLOT(cb, TC_host)) == NULL || SLOT(cb, TC_tenant) == NULL
                || SLOT(cb, TC_stream) == NULL || SLOT(cb, TC_think) == NULL)
            goto python;
        Py_INCREF(host);
        if ((c = qos_stock(cx, host)) < 0)
            goto done;
        if (!c)
            goto python;
        kind = 3;
    }
    else if (cb != Py_None)
        goto python;
    if ((now = ctx_now(cx)) == NULL
            || note_request_complete(stats, request, now) < 0)
        goto done;
    /* self.completion_hook(request, now) */
    if (hook != Py_None && hook_call(hook, request, now) < 0)
        goto done;
    /* request.on_complete(request, now): StreamCompletion.__call__ or
     * TenantCompletion.__call__ */
    if (kind == 1 || kind == 2) {
        PyObject *index = SLOT(cb, SC_index), *think = SLOT(cb, SC_think);
        Py_INCREF(index);
        Py_INCREF(think);
        r = host_advance(cx, host, kind == 1, index, think);
        Py_DECREF(index);
        Py_DECREF(think);
    }
    else if (kind == 3) {
        PyObject *tenant = SLOT(cb, TC_tenant), *stream = SLOT(cb, TC_stream),
            *think = SLOT(cb, TC_think);
        Py_INCREF(tenant);
        Py_INCREF(stream);
        Py_INCREF(think);
        r = qos_on_done(cx, host, tenant, stream, think);
        Py_DECREF(tenant);
        Py_DECREF(stream);
        Py_DECREF(think);
    }
    else
        r = 0;
done:
    Py_DECREF(hook);
    Py_XDECREF(stats);
    Py_XDECREF(cb);
    Py_XDECREF(now);
    Py_XDECREF(host);
    return r;
python:
    Py_DECREF(hook);
    Py_XDECREF(stats);
    Py_XDECREF(cb);
    Py_XDECREF(host);
    CALLOUT(L_HOST);
    res = call_method1(ctrl, S__complete_request, request);
    ctx_flush_after(cx, L_HOST);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* StorageController._complete_read_page */
static int
complete_read_page(Ctx *cx, PyObject *ctrl, PyObject *request)
{
    long long remaining;
    if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                  &remaining) < 0)
        return -1;
    if (rq_set_ll(request, RQ_pages_remaining, S_pages_remaining,
                  remaining - 1) < 0)
        return -1;
    if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                  &remaining) < 0)
        return -1;
    if (remaining != 0)
        return 0;
    return complete_request(cx, ctrl, request);
}

/* MappingTable.lookup: the ppn object, or None.  New reference. */
static PyObject *
mapping_lookup(Ctx *cx, PyObject *mapping, PyObject *lpn)
{
    long long l;
    PyObject *ppn;
    if (Py_TYPE(mapping) != T_Mapping || !PyLong_CheckExact(lpn)) {
        CALLOUT(L_FTL);
        return call_method1(mapping, S_lookup, lpn);
    }
    if (ctx_mapping(cx, mapping) < 0 || as_ll(lpn, &l) < 0)
        return NULL;
    if (!(0 <= l && l < cx->logical)) {
        CALLOUT(L_FTL);
        return call_method1(mapping, S_lookup, lpn);  /* raises */
    }
    if ((ppn = item_at(cx->l2p, (Py_ssize_t)l)) == NULL)
        return NULL;
    switch (int_lt(ppn, ZERO)) {
    case -1:
        Py_DECREF(ppn);
        return NULL;
    case 1:
        Py_DECREF(ppn);
        Py_RETURN_NONE;
    }
    return ppn;
}

/* ``self._ftl_lookup(lpn)`` */
static PyObject *
controller_lookup(Ctx *cx, PyObject *ctrl, PyObject *lpn)
{
    PyObject *fn;
    if (NEED_CTRL(cx, ctrl) < 0)
        return NULL;
    fn = cx->lookup;
    if (PyMethod_Check(fn) && PyMethod_GET_FUNCTION(fn) == F_lookup)
        return mapping_lookup(cx, PyMethod_GET_SELF(fn), lpn);
    CALLOUT(L_FTL);
    return PyObject_CallOneArg(fn, lpn);
}

/* WriteBuffer.contains: 1/0, or -1 on error */
static int
buffer_contains(PyObject *buffer, PyObject *lpn)
{
    PyObject *v;
    int r;
    if (Py_TYPE(buffer) == T_WriteBuffer) {
        if ((v = GA(buffer, _resident)) == NULL)
            return -1;
        r = PySequence_Contains(v, lpn);
        Py_DECREF(v);
        return r;
    }
    CALLOUT(L_CONTROLLER);
    if ((v = call_method1(buffer, S_contains, lpn)) == NULL)
        return -1;
    r = truthy(v);
    Py_DECREF(v);
    return r;
}

/* NandGeometry.address_of (new reference).  The geometry is a frozen
 * dataclass: its sizes are read once per cache load. */
static PyObject *
geometry_address_of(Ctx *cx, PyObject *geometry, PyObject *ppn_obj)
{
    long long ppn, total, ppb, bpc, cpc, bg, page, cid, block, channel, chip;
    PyObject *f[4] = {NULL, NULL, NULL, NULL}, *addr = NULL;
    int i;
    if (Py_TYPE(geometry) != T_Geometry || !PyLong_CheckExact(ppn_obj)) {
        CALLOUT(L_NAND);
        return call_method1(geometry, S_address_of, ppn_obj);
    }
    if (geometry != cx->g_key) {
        Py_CLEAR(cx->g_key);
        if (ga_ll(geometry, S_total_pages, &cx->g_total) < 0
                || ga_ll(geometry, S_pages_per_block, &cx->g_ppb) < 0
                || ga_ll(geometry, S_blocks_per_chip, &cx->g_bpc) < 0
                || ga_ll(geometry, S_chips_per_channel, &cx->g_cpc) < 0)
            return NULL;
        Py_INCREF(geometry);
        cx->g_key = geometry;
    }
    total = cx->g_total;
    ppb = cx->g_ppb;
    bpc = cx->g_bpc;
    cpc = cx->g_cpc;
    if (as_ll(ppn_obj, &ppn) < 0)
        return NULL;
    if (!(0 <= ppn && ppn < total)) {
        CALLOUT(L_NAND);
        return call_method1(geometry, S_address_of, ppn_obj);  /* raises */
    }
    bg = ppn / ppb;
    page = ppn - bg * ppb;
    cid = bg / bpc;
    block = bg - cid * bpc;
    channel = cid / cpc;
    chip = cid - channel * cpc;
    if ((f[0] = PyLong_FromLongLong(channel)) != NULL
            && (f[1] = PyLong_FromLongLong(chip)) != NULL
            && (f[2] = PyLong_FromLongLong(block)) != NULL
            && (f[3] = PyLong_FromLongLong(page)) != NULL)
        addr = new_ppa(f[0], f[1], f[2], f[3]);
    for (i = 0; i < 4; i++)
        Py_XDECREF(f[i]);
    return addr;
}

/* StorageController._next_read_op: *op and *request receive new
 * references (both None when the queue drained without a NAND read). */
static int
next_read_op(Ctx *cx, PyObject *ctrl, long long cid, PyObject **op,
             PyObject **request)
{
    PyObject *queue, *pair = NULL, *lpn = NULL, *req = NULL, *ppn = NULL,
        *addr = NULL, *res;
    long long p;
    int r = -1, skip;

    *op = NULL;
    *request = NULL;
    if (NEED_CTRL(cx, ctrl) < 0)
        return -1;
    if ((queue = item_at(cx->queues, (Py_ssize_t)cid)) == NULL)
        return -1;
    for (;;) {
        int more = truthy(queue);
        if (more < 0)
            goto done;
        if (!more)
            break;
        /* lpn, request = queue.popleft() */
        if ((pair = call_method0(queue, S_popleft)) == NULL)
            goto done;
        if (PyTuple_CheckExact(pair) && PyTuple_GET_SIZE(pair) == 2) {
            lpn = PyTuple_GET_ITEM(pair, 0);
            req = PyTuple_GET_ITEM(pair, 1);
            Py_INCREF(lpn);
            Py_INCREF(req);
        }
        else {
            PyObject *seq = PySequence_Fast(pair, "cannot unpack");
            if (seq == NULL)
                goto done;
            if (PySequence_Fast_GET_SIZE(seq) != 2) {
                Py_DECREF(seq);
                PyErr_SetString(PyExc_ValueError,
                                "expected 2 values to unpack");
                goto done;
            }
            lpn = PySequence_Fast_GET_ITEM(seq, 0);
            req = PySequence_Fast_GET_ITEM(seq, 1);
            Py_INCREF(lpn);
            Py_INCREF(req);
            Py_DECREF(seq);
        }
        Py_CLEAR(pair);
        /* self._queued_reads -= 1 */
        if (attr_add(ctrl, S__queued_reads, -1) < 0)
            goto done;
        if ((ppn = controller_lookup(cx, ctrl, lpn)) == NULL)
            goto done;
        skip = ppn == Py_None;
        if (!skip) {
            if (NEED_CTRL(cx, ctrl) < 0
                    || (skip = buffer_contains(cx->buffer, lpn)) < 0)
                goto done;
        }
        if (!skip) {
            if (as_ll(ppn, &p) < 0)
                goto done;
            skip = p / cx->ppc != cid;
        }
        if (!skip) {
            int programmed = 0;
            if ((addr = geometry_address_of(cx, cx->geometry, ppn)) == NULL
                    || (skip = nand_native(cx)) < 0
                    || (skip && (skip = nand_is_programmed(cx, addr,
                                                           &programmed)) < 0))
                goto done;
            if (!skip) {
                CALLOUT(L_NAND);
                if ((res = call_method1(cx->array, S_is_programmed, addr))
                        == NULL)
                    goto done;
                programmed = truthy(res);
                Py_DECREF(res);
                if (programmed < 0)
                    goto done;
            }
            skip = !programmed;
        }
        if (skip) {
            /* superseded, relocated, or its program is still in flight */
            if (complete_read_page(cx, ctrl, req) < 0)
                goto done;
            Py_CLEAR(lpn);
            Py_CLEAR(req);
            Py_CLEAR(ppn);
            Py_CLEAR(addr);
            if (NEED_CTRL(cx, ctrl) < 0)
                goto done;
            continue;
        }
        /* FlashOp(OpKind.READ, addr, tag="host", lpn=lpn), request */
        if ((*op = new_op(K_READ, addr, S_host, lpn, Py_None)) == NULL)
            goto done;
        *request = req;
        req = NULL;
        r = 0;
        goto done;
    }
    Py_INCREF(Py_None);
    *op = Py_None;
    Py_INCREF(Py_None);
    *request = Py_None;
    r = 0;
done:
    Py_DECREF(queue);
    Py_XDECREF(pair);
    Py_XDECREF(lpn);
    Py_XDECREF(req);
    Py_XDECREF(ppn);
    Py_XDECREF(addr);
    return r;
}

/* The trace capture of StorageController._execute:
 *
 *     raw.extend((now, done, chip_id, code, op.tag, addr[2], addr[3],
 *                 -1 if lpn is None else lpn))
 *     if len(raw) >= self._op_limit:
 *         self._trace._trim()
 *
 * where ``raw`` is the tracer's list. */
static int
trace_op(Ctx *cx, PyObject *ctrl, PyObject *now, PyObject *done,
         PyObject *chip, PyObject *kind, PyObject *op, PyObject *addr)
{
    PyObject *raw = cx->op_raw, *rec[8] = {NULL}, *lpn, *res;
    Py_ssize_t i;
    int r = -1;

    if (!PyList_CheckExact(raw)) {
        PyErr_SetString(PyExc_TypeError,
                        "native core: the trace buffer is not a list");
        return -1;
    }
    Py_INCREF(raw);
    Py_INCREF(now);
    rec[0] = now;
    Py_INCREF(done);
    rec[1] = done;
    Py_INCREF(chip);
    rec[2] = chip;
    if ((rec[3] = PyLong_FromLong(kind == K_PROGRAM ? 0 : kind == K_READ
                                  ? 1 : 2)) == NULL
            || (rec[4] = OP_GET(op, tag)) == NULL
            || (rec[5] = ppa_field(addr, 2, S_block)) == NULL
            || (rec[6] = ppa_field(addr, 3, S_page)) == NULL
            || (lpn = OP_GET(op, lpn)) == NULL)
        goto done;
    if (lpn == Py_None) {
        Py_DECREF(lpn);
        if ((lpn = PyLong_FromLong(-1)) == NULL)
            goto done;
    }
    rec[7] = lpn;
    for (i = 0; i < 8; i++)
        if (PyList_Append(raw, rec[i]) < 0)
            goto done;
    if ((double)PyList_GET_SIZE(raw) >= cx->op_limit) {
        /* the ring's amortized trim: the tracer's own list, in place */
        PyObject *trace = GA(ctrl, _trace);
        if (trace == NULL)
            goto done;
        CALLOUT(L_TRACER);
        res = call_method0(trace, S__trim);
        Py_DECREF(trace);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    r = 0;
done:
    Py_DECREF(raw);
    for (i = 0; i < 8; i++)
        Py_XDECREF(rec[i]);
    return r;
}

/* StorageController._execute */
static int
controller_execute(Ctx *cx, PyObject *ctrl, PyObject *chip, long long cid,
                   PyObject *op, PyObject *rreq)
{
    PyObject *now = NULL, *kind = NULL, *addr = NULL, *start = NULL,
        *lat = NULL, *tmp = NULL, *entry = NULL, *done_fn = NULL,
        *args = NULL, *f0 = NULL, *f1 = NULL, *f2 = NULL, *done_t = NULL;
    double now_d, start_d, lat_d, total;
    Py_ssize_t i;
    int r = -1, c, native;

    if (NEED_CTRL(cx, ctrl) < 0)
        return -1;
    if (cx->reason == WHY_EXECUTE) {
        /* patched meanwhile (a callback installed a tracer): call it */
        PyObject *res;
        CALLOUT(L_CONTROLLER);
        res = PyObject_CallMethodObjArgs(ctrl, S__execute, chip, op, rreq,
                                         NULL);
        ctx_flush_after(cx, L_CONTROLLER);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if ((now = ctx_now(cx)) == NULL || as_double(now, &now_d) < 0)
        goto done;
    if ((kind = OP_GET(op, kind)) == NULL)
        goto done;
    if (kind == K_PROGRAM || kind == K_READ) {
        double tt = cx->tt;
        Py_ssize_t channel = (Py_ssize_t)(cid / cx->cpc);
        PyObject *cf = CX(cx, channel_free);
        start = item_at(cf, channel);
        if (start == NULL || as_double(start, &start_d) < 0) {
            Py_DECREF(cf);
            goto done;
        }
        if (start_d < now_d)
            start_d = now_d;
        tmp = PyFloat_FromDouble(start_d + tt);
        if (tmp == NULL || set_item(cf, channel, tmp) < 0) {
            Py_DECREF(cf);
            goto done;
        }
        Py_DECREF(cf);
        Py_CLEAR(tmp);
        if ((addr = OP_GET(op, addr)) == NULL
                || (native = nand_native(cx)) < 0)
            goto done;
        if (kind == K_PROGRAM) {
            PyObject *data = OP_GET(op, data), *fn;
            PyObject *cargs[2];
            if (data == NULL)
                goto done;
            c = native ? nand_program(cx, addr, data, &lat_d) : 0;
            if (c == 0) {
                CALLOUT(L_NAND);
                fn = CX(cx, program);
                cargs[0] = addr;
                cargs[1] = data;
                lat = PyObject_Vectorcall(fn, cargs, 2, NULL);
                Py_DECREF(fn);
                c = lat == NULL || as_double(lat, &lat_d) < 0 ? -1 : 1;
            }
            Py_DECREF(data);
            if (c < 0)
                goto done;
        }
        else if ((c = native ? nand_read(cx, addr, &lat_d) : 0) < 0)
            goto done;
        else if (c == 0) {
            PyObject *pair, *fn = CX(cx, read);
            CALLOUT(L_NAND);
            pair = PyObject_CallOneArg(fn, addr);
            Py_DECREF(fn);
            if (pair == NULL)
                goto done;
            /* _, latency = pair */
            tmp = PySequence_Fast(pair, "cannot unpack non-iterable");
            Py_DECREF(pair);
            if (tmp == NULL)
                goto done;
            if (PySequence_Fast_GET_SIZE(tmp) != 2) {
                PyErr_Format(PyExc_ValueError,
                             "expected 2 values to unpack, got %zd",
                             PySequence_Fast_GET_SIZE(tmp));
                goto done;
            }
            lat = PySequence_Fast_GET_ITEM(tmp, 1);
            Py_INCREF(lat);
            Py_CLEAR(tmp);
            if (as_double(lat, &lat_d) < 0)
                goto done;
        }
        total = (start_d - now_d) + tt + lat_d;
    }
    else {
        PyObject *cargs[3], *fn;
        if ((addr = OP_GET(op, addr)) == NULL)
            goto done;
        if ((f0 = ppa_field(addr, 0, S_channel)) == NULL
                || (f1 = ppa_field(addr, 1, S_chip)) == NULL
                || (f2 = ppa_field(addr, 2, S_block)) == NULL
                || (native = nand_native(cx)) < 0
                || (c = native ? nand_erase(cx, f0, f1, f2, &total) : 0) < 0)
            goto done;
        if (c == 0) {
            CALLOUT(L_NAND);
            fn = CX(cx, erase);
            cargs[0] = f0;
            cargs[1] = f1;
            cargs[2] = f2;
            lat = PyObject_Vectorcall(fn, cargs, 3, NULL);
            Py_DECREF(fn);
            if (lat == NULL || as_double(lat, &total) < 0)
                goto done;
        }
    }
    /* NAND calls never rebind the controller: the cache stands */
    /* done = now + total */
    if ((done_t = PyFloat_FromDouble(now_d + total)) == NULL)
        goto done;
    if (cx->op_raw != NULL
            && trace_op(cx, ctrl, now, done_t, chip, kind, op, addr) < 0)
        goto done;
    /* self._busy[chip_id] = True */
    if (set_item(cx->busy, (Py_ssize_t)cid, Py_True) < 0)
        goto done;
    /* del idle[bisect_left(idle, chip_id)] */
    if (!PyList_CheckExact(cx->idle)) {
        PyErr_SetString(PyExc_TypeError,
                        "native core: idle chips are not a list");
        goto done;
    }
    if ((i = bisect(cx->idle, chip, 0, 0, int_lt)) < 0
            || PySequence_DelItem(cx->idle, i) < 0)
        goto done;
    /* self.in_flight[chip_id] = op */
    if (PyObject_SetItem(cx->in_flight, chip, op) < 0)
        goto done;
    /* self._sim_push([done, 0, next(sim._seq), self._on_op_done,
     *                 (chip_id, op, read_request), False, sim._cancelled]) */
    if ((tmp = next_of(cx->seq)) == NULL)
        goto done;
    if ((done_fn = GA(ctrl, _on_op_done)) == NULL)
        goto done;
    if ((args = PyTuple_Pack(3, chip, op, rreq)) == NULL)
        goto done;
    if ((entry = PyList_New(7)) == NULL)
        goto done;
    PyList_SET_ITEM(entry, 0, done_t);
    done_t = NULL;
    Py_INCREF(ZERO);
    PyList_SET_ITEM(entry, 1, ZERO);
    PyList_SET_ITEM(entry, 2, tmp);
    tmp = NULL;
    PyList_SET_ITEM(entry, 3, done_fn);
    done_fn = NULL;
    PyList_SET_ITEM(entry, 4, args);
    args = NULL;
    Py_INCREF(Py_False);
    PyList_SET_ITEM(entry, 5, Py_False);
    PyList_SET_ITEM(entry, 6, CX(cx, cancelled));
    r = sim_push(cx, entry);
done:
    Py_XDECREF(now);
    Py_XDECREF(kind);
    Py_XDECREF(addr);
    Py_XDECREF(start);
    Py_XDECREF(lat);
    Py_XDECREF(tmp);
    Py_XDECREF(entry);
    Py_XDECREF(done_fn);
    Py_XDECREF(args);
    Py_XDECREF(f0);
    Py_XDECREF(f1);
    Py_XDECREF(f2);
    Py_XDECREF(done_t);
    return r;
}

/* ``stats.note_host_page_write(now)`` ``pages`` times: the page count
 * and the clock's bandwidth bucket, added once */
static int
note_host_pages(PyObject *stats, PyObject *now, long long pages)
{
    PyObject *bandwidth = NULL, *buckets = NULL, *key = NULL, *v = NULL,
        *count;
    long long page_size, n = 0;
    double now_d, window;
    int r = -1, c;

    if (attr_add(stats, S_written_pages, pages) < 0
            || (bandwidth = GA(stats, write_bandwidth)) == NULL
            || (buckets = GA(bandwidth, _buckets)) == NULL
            || (v = GA(bandwidth, window)) == NULL
            || as_double(v, &window) < 0 || as_double(now, &now_d) < 0)
        goto done;
    Py_CLEAR(v);
    if ((key = PyLong_FromDouble(now_d / window)) == NULL
            || ga_ll(stats, S_page_size, &page_size) < 0)
        goto done;
    if (PyDict_CheckExact(buckets)) {
        count = PyDict_GetItemWithError(buckets, key);
        if (count == NULL && PyErr_Occurred())
            goto done;
        if (count != NULL && as_ll(count, &n) < 0)
            goto done;
    }
    else {
        if ((count = PyObject_CallMethod(buckets, "get", "OO", key,
                                         ZERO)) == NULL)
            goto done;
        c = as_ll(count, &n);
        Py_DECREF(count);
        if (c < 0)
            goto done;
    }
    if ((v = PyLong_FromLongLong(n + pages * page_size)) == NULL
            || PyObject_SetItem(buckets, key, v) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(bandwidth);
    Py_XDECREF(buckets);
    Py_XDECREF(key);
    Py_XDECREF(v);
    return r;
}

/* StorageController._drain_admissions with WriteBuffer.push and
 * SimStats.note_host_page_write folded in, for a non-coalescing stock
 * buffer (anything else calls the Python method).  The clock is fixed
 * for the whole drain, so the pages pushed for a request are noted in
 * one step, before its completion runs: every completion sees the
 * stats and the buffer level the Python loop leaves.
 * 1 = progress, 0 = none. */
static int
controller_drain(Ctx *cx, PyObject *ctrl)
{
    PyObject *buffer, *res, *admissions = NULL, *now = NULL, *fifo = NULL,
        *resident = NULL, *request = NULL, *stats = NULL, *key = NULL,
        *v = NULL;
    long long capacity, live, pushed = 0, remaining, lpn0, npages, next_lpn;
    int r = -1, c, progress = 0;

    if (NEED_CTRL(cx, ctrl) < 0)
        return -1;
    buffer = CX(cx, buffer);
    if (cx->fifo == NULL) {
        /* another buffer class, or coalescing: the Python method */
        CALLOUT(L_CONTROLLER);
        res = call_method0(ctrl, S__drain_admissions);
        ctx_flush_after(cx, L_CONTROLLER);
        Py_DECREF(buffer);
        if (res == NULL)
            return -1;
        r = truthy(res);
        Py_DECREF(res);
        return r;
    }
    capacity = cx->cap;
    admissions = CX(cx, admissions);
    fifo = CX(cx, fifo);
    resident = CX(cx, resident);
    /* note_page = self.stats.note_host_page_write, bound once */
    if ((now = ctx_now(cx)) == NULL || (stats = GA(ctrl, stats)) == NULL)
        goto done;
    if (ga_ll(buffer, S__live, &live) < 0)
        goto done;
    for (;;) {
        if ((c = truthy(admissions)) < 0)
            goto done;
        if (!c || !(live < capacity))
            break;
        if ((request = PySequence_GetItem(admissions, 0)) == NULL)
            goto done;
        if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                      &remaining) < 0
                || rq_get_ll(request, RQ_lpn, S_lpn, &lpn0) < 0
                || rq_get_ll(request, RQ_npages, S_npages, &npages) < 0)
            goto done;
        next_lpn = lpn0 + npages - remaining;
        while (remaining > 0 && live < capacity) {
            /* BufferedWrite via object.__new__ + slot stores */
            PyObject *entry, *count;
            long long n = 0;
            if ((key = PyLong_FromLongLong(next_lpn)) == NULL)
                goto done;
            if ((entry = T_BufferedWrite->tp_alloc(T_BufferedWrite, 0)) == NULL)
                goto done;
            Py_INCREF(key);
            SLOT(entry, BW_lpn) = key;
            Py_INCREF(now);
            SLOT(entry, BW_enqueued_at) = now;
            Py_INCREF(request);
            SLOT(entry, BW_request) = request;
            res = call_method1(fifo, S_append, entry);
            Py_DECREF(entry);
            if (res == NULL)
                goto done;
            Py_DECREF(res);
            /* resident[next_lpn] = resident.get(next_lpn, 0) + 1 */
            if (PyDict_CheckExact(resident)) {
                count = PyDict_GetItemWithError(resident, key);
                if (count == NULL && PyErr_Occurred())
                    goto done;
                if (count != NULL && as_ll(count, &n) < 0)
                    goto done;
                if ((v = PyLong_FromLongLong(n + 1)) == NULL
                        || PyDict_SetItem(resident, key, v) < 0)
                    goto done;
            }
            else {
                if ((count = PyObject_CallMethod(resident, "get", "OO", key,
                                                 ZERO)) == NULL)
                    goto done;
                v = PyNumber_Add(count, ONE);
                Py_DECREF(count);
                if (v == NULL || PyObject_SetItem(resident, key, v) < 0)
                    goto done;
            }
            Py_CLEAR(v);
            Py_CLEAR(key);
            next_lpn++;
            live++;
            remaining--;
            pushed++;
            progress = 1;
        }
        if (rq_set_ll(request, RQ_pages_remaining, S_pages_remaining,
                      remaining) < 0)
            goto done;
        if (remaining > 0)
            break;
        if ((res = call_method0(admissions, S_popleft)) == NULL)
            goto done;
        Py_DECREF(res);
        /* publish the level and the pages before the completion runs */
        if (sa_ll(buffer, S__live, live) < 0
                || (pushed && note_host_pages(stats, now, pushed) < 0))
            goto done;
        pushed = 0;
        if (complete_request(cx, ctrl, request) < 0)
            goto done;
        Py_CLEAR(request);
        if (ga_ll(buffer, S__live, &live) < 0)
            goto done;
    }
    if (sa_ll(buffer, S__live, live) < 0
            || (pushed && note_host_pages(stats, now, pushed) < 0))
        goto done;
    r = progress;
done:
    Py_DECREF(buffer);
    Py_XDECREF(admissions);
    Py_XDECREF(now);
    Py_XDECREF(fifo);
    Py_XDECREF(resident);
    Py_XDECREF(request);
    Py_XDECREF(stats);
    Py_XDECREF(key);
    Py_XDECREF(v);
    return r;
}

/* The pump's ``ftl_next_op(chip_id, now)``: natively when it is the
 * stock FlexFtl or BaseFtl method, the Python call otherwise. */
static PyObject *
call_next_op(Ctx *cx, PyObject *ctrl, PyObject *next_op, PyObject *chip,
             long long cid, PyObject *now)
{
    PyObject *args[2] = {chip, now};
    if (NEED_CTRL(cx, ctrl) < 0)
        return NULL;
    if (cx->ftln == FTLN_FLEX && next_op == cx->next_op)
        return flex_next_op(cx, PyMethod_GET_SELF(next_op), chip, cid, now);
    if (cx->ftln == FTLN_BASE && next_op == cx->next_op)
        return ftl_next_op(cx, PyMethod_GET_SELF(next_op), chip, cid, now);
    CALLOUT(L_FTL);
    return PyObject_Vectorcall(next_op, args, 2, NULL);
}

/* BaseFtl._bg_min_invalid (new reference) */
static PyObject *
bg_min_invalid(Ctx *cx, PyObject *ftl)
{
    PyObject *geometry, *config, *v;
    long long ppb, n;
    double fraction, x;
    int c;

    if (!cx->bg_min_stock) {
        CALLOUT(L_FTL);
        return call_method0(ftl, S__bg_min_invalid);
    }
    /* max(1, int(self.geometry.pages_per_block
     *            * self.config.bg_gc_min_invalid_fraction)) */
    if ((geometry = GA(ftl, geometry)) == NULL)
        return NULL;
    c = ga_ll(geometry, S_pages_per_block, &ppb);
    Py_DECREF(geometry);
    if (c < 0 || (config = GA(ftl, config)) == NULL)
        return NULL;
    v = GA(config, bg_gc_min_invalid_fraction);
    Py_DECREF(config);
    if (v == NULL)
        return NULL;
    c = as_double(v, &fraction);
    Py_DECREF(v);
    if (c < 0)
        return NULL;
    x = (double)ppb * fraction;
    if (!(fabs(x) < 9.0e18)) {
        CALLOUT(L_FTL);
        return call_method0(ftl, S__bg_min_invalid);  /* raises, or huge */
    }
    n = (long long)x;               /* int() truncates toward zero */
    return PyLong_FromLongLong(n > 1 ? n : 1);
}

/* Classify ftl._select_victim: native when it is BaseFtl's stock
 * method with its stock _victim_score, over an exact MappingTable whose
 * global_block_of and invalid_count are stock.  slcFTL's override, a
 * subclass's or an instance patch is called. */
static int
ctx_victim(Ctx *cx)
{
    PyObject *ftl = cx->ftl, *mapping = NULL, *geometry = NULL;
    int c;

    cx->vs = LAZY_NO;
    if ((c = bound_to(ftl, S__select_victim, F_select_victim)) <= 0
            || (c = bound_to(ftl, S__victim_score, F_victim_score)) <= 0)
        return c;
    if ((mapping = GA(ftl, mapping)) == NULL)
        return -1;
    c = 0;
    if (Py_TYPE(mapping) == T_Mapping
            && (c = bound_to(mapping, S_global_block_of,
                             F_global_block_of)) > 0
            && (c = bound_to(mapping, S_invalid_count, F_invalid_count)) > 0) {
        c = -1;
        if ((geometry = GA(mapping, geometry)) != NULL
                && ga_ll(geometry, S_blocks_per_chip, &cx->v_bpc) == 0
                && ga_ll(geometry, S_pages_per_block, &cx->v_ppb) == 0
                && (cx->v_chips = GA(ftl, chips)) != NULL) {
            Py_INCREF(mapping);
            cx->v_mapping = mapping;
            cx->vs = LAZY_YES;
            c = 0;
        }
    }
    Py_DECREF(mapping);
    Py_XDECREF(geometry);
    return c < 0 ? -1 : 0;
}

/* The greedy scan of BaseFtl._select_victim over chip ``cid``: 1 with
 * *victim set (a new reference: the block, or None), 0 when the Python
 * method must run, -1 on error.  It iterates state.full_blocks in the
 * set's own order, so ties break exactly as in Python. */
static int
greedy_victim(Ctx *cx, long long cid, long long min_invalid,
              PyObject **victim)
{
    PyObject *state = NULL, *blocks = NULL, *valid = NULL, *it = NULL,
        *block, *best = NULL;
    double best_score = -INFINITY;
    int r = -1;

    if ((state = item_at(cx->v_chips, (Py_ssize_t)cid)) == NULL
            || (blocks = GA(state, full_blocks)) == NULL
            || (valid = GA(cx->v_mapping, _valid)) == NULL)
        goto done;
    r = 0;
    if (!PySet_CheckExact(blocks) || !PyList_CheckExact(valid))
        goto done;
    r = -1;
    if ((it = PyObject_GetIter(blocks)) == NULL)
        goto done;
    while ((block = PyIter_Next(it)) != NULL) {
        long long b, gb, count;
        int overflow;
        PyObject *v;
        /* gb = self.mapping.global_block_of(chip_id, block)
         * invalid = self.mapping.invalid_count(gb) */
        b = PyLong_CheckExact(block)
            ? PyLong_AsLongLongAndOverflow(block, &overflow) : 0;
        if (!PyLong_CheckExact(block) || overflow) {
            Py_DECREF(block);
            r = 0;
            goto done;
        }
        gb = cid * cx->v_bpc + b;
        if (!(0 <= gb && gb < PyList_GET_SIZE(valid))
                || !PyLong_CheckExact(v = PyList_GET_ITEM(valid,
                                                          (Py_ssize_t)gb))) {
            Py_DECREF(block);
            r = 0;
            goto done;
        }
        count = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow) {
            Py_DECREF(block);
            r = 0;
            goto done;
        }
        /* if invalid < min_invalid: continue
         * score = float(invalid)  (greedy) */
        if (cx->v_ppb - count >= min_invalid
                && (double)(cx->v_ppb - count) > best_score) {
            best_score = (double)(cx->v_ppb - count);
            Py_XSETREF(best, block);
        }
        else
            Py_DECREF(block);
    }
    if (PyErr_Occurred())
        goto done;
    if (best == NULL) {
        Py_INCREF(Py_None);
        best = Py_None;
    }
    *victim = best;
    best = NULL;
    r = 1;
done:
    Py_XDECREF(state);
    Py_XDECREF(blocks);
    Py_XDECREF(valid);
    Py_XDECREF(it);
    Py_XDECREF(best);
    return r;
}

/* ``ftl._select_victim(chip, min_invalid)`` (``min_invalid`` NULL: the
 * default, 1): the greedy scan natively when the stock method applies
 * with gc_policy "greedy", the Python call otherwise.  New reference. */
static PyObject *
select_victim(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
              PyObject *min_invalid)
{
    PyObject *config, *policy, *victim;
    long long floor = 1;
    int c, overflow = 0;

    if (ftl != cx->ftl)
        goto python;
    if (cx->vs == LAZY_UNKNOWN && ctx_victim(cx) < 0)
        return NULL;
    if (cx->vs != LAZY_YES)
        goto python;
    if (min_invalid != NULL) {
        if (!PyLong_CheckExact(min_invalid))
            goto python;
        floor = PyLong_AsLongLongAndOverflow(min_invalid, &overflow);
        if (overflow)
            goto python;
    }
    /* self.config.gc_policy == "greedy" */
    if ((config = GA(ftl, config)) == NULL)
        return NULL;
    policy = GA(config, gc_policy);
    Py_DECREF(config);
    if (policy == NULL)
        return NULL;
    c = PyUnicode_CheckExact(policy)
        && PyUnicode_Compare(policy, S_greedy) == 0;
    Py_DECREF(policy);
    if (!c)
        goto python;
    switch (greedy_victim(cx, cid, floor, &victim)) {
    case -1:
        return NULL;
    case 1:
        return victim;
    }
python:
    CALLOUT(L_FTL);
    return min_invalid != NULL
        ? call_method2(ftl, S__select_victim, chip, min_invalid)
        : call_method1(ftl, S__select_victim, chip);
}

/* ``self._predictor_wants_gc(chip_id, now=None)`` as a truth value */
static int
predictor_wants_gc(PyObject *ftl, PyObject *chip)
{
    PyObject *args[3] = {ftl, chip, Py_None}, *v;
    int r;
    CALLOUT(L_FTL);
    v = PyObject_VectorcallMethod(S__predictor_wants_gc, args,
                                  2 | PY_VECTORCALL_ARGUMENTS_OFFSET, KW_NOW);
    if (v == NULL)
        return -1;
    r = truthy(v);
    Py_DECREF(v);
    return r;
}

/* ``ftl.wants_background_gc(chip_id)``: 1/0, or -1 on error.  The stock
 * BaseFtl.wants_background_gc (and FlexFtl's, which adds the
 * predictor's trigger) runs here; only the victim scan
 * (``_select_victim``) and a live predictor's check call into Python.
 * Both are device-internal queries, so the cache stands.  Any other
 * method is called, and the cache dropped. */
static int
wants_background_gc(Ctx *cx, PyObject *chip, long long cid)
{
    PyObject *ftl = cx->ftl, *state = NULL, *v = NULL, *config = NULL,
        *min_invalid = NULL;
    long long free_n, threshold;
    int r = -1, c, enabled = 0, want = 0;

    if (cx->gcq == GCQ_UNKNOWN && ctx_gc_query(cx) < 0)
        return -1;
    if (cx->gcq == GCQ_PYTHON) {
        CALLOUT(L_FTL);
        v = call_method1(ftl, S_wants_background_gc, chip);
        ctx_flush_after(cx, L_FTL);
        if (v == NULL)
            return -1;
        r = truthy(v);
        Py_DECREF(v);
        return r;
    }
    Py_INCREF(ftl);
    if ((state = item_at(cx->gc_chips, (Py_ssize_t)cid)) == NULL)
        goto done;
    /* if state.fault_work is not None: return True */
    if ((v = GA(state, fault_work)) == NULL)
        goto done;
    if (v != Py_None) {
        r = 1;
        goto done;
    }
    Py_CLEAR(v);
    /* if not self.config.bg_gc_enabled: return False */
    if ((config = GA(ftl, config)) == NULL
            || (v = GA(config, bg_gc_enabled)) == NULL
            || (enabled = truthy(v)) < 0)
        goto done;
    Py_CLEAR(v);
    if (enabled) {
        /* if state.pending or state.gc is not None: return True */
        if ((v = GA(state, pending)) == NULL || (c = truthy(v)) < 0)
            goto done;
        Py_CLEAR(v);
        if (!c) {
            if ((v = GA(state, gc)) == NULL)
                goto done;
            c = v != Py_None;
            Py_CLEAR(v);
        }
        if (c)
            want = 1;
        else {
            /* len(state.free_blocks) < self.gc_threshold_blocks and
             * self._select_victim(chip_id, self._bg_min_invalid())
             *     is not None */
            if ((v = GA(state, free_blocks)) == NULL
                    || (free_n = PyObject_Length(v)) < 0
                    || ga_ll(ftl, S_gc_threshold_blocks, &threshold) < 0)
                goto done;
            Py_CLEAR(v);
            if (free_n < threshold) {
                if ((min_invalid = bg_min_invalid(cx, ftl)) == NULL
                        || (v = select_victim(cx, ftl, chip, cid,
                                              min_invalid)) == NULL)
                    goto done;
                want = v != Py_None;
                Py_CLEAR(v);
            }
        }
    }
    if (want || cx->gcq == GCQ_BASE) {
        r = want;
        goto done;
    }
    /* FlexFtl: return self._predictor_wants_gc(chip_id, now=None), which
     * is False without a predictor or with background GC off */
    if (cx->predictor_stock) {
        if (!enabled) {
            r = 0;
            goto done;
        }
        if ((v = GA(ftl, predictor)) == NULL)
            goto done;
        if (v == Py_None) {
            r = 0;
            goto done;
        }
    }
    r = predictor_wants_gc(ftl, chip);
done:
    Py_DECREF(ftl);
    Py_XDECREF(state);
    Py_XDECREF(v);
    Py_XDECREF(config);
    Py_XDECREF(min_invalid);
    return r;
}

/* ``self._gc_step(chip_id)`` from the idle path: natively (as in
 * next_op) for the FTL behind a native next_op, the Python method
 * otherwise */
static PyObject *
idle_gc_step(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid)
{
    PyObject *out;
    if (cx->ftln != FTLN_PYTHON && ftl == PyMethod_GET_SELF(cx->next_op))
        return ftl_gc_step(cx, ftl, chip, cid);
    CALLOUT(L_FTL);
    out = call_method1(ftl, S__gc_step, chip);
    ctx_flush_after(cx, L_FTL);
    return out;
}

/* ``ftl.background_op(chip_id, now)`` (``ftl`` held by the caller).
 * The stock BaseFtl method (and
 * FlexFtl's, which first flushes the deferred parity invalidations and
 * adds the predictor's trigger) runs here, with the greedy victim scan;
 * the GC begin and a GC step other than flexFTL's call Python.  A chip
 * with fault work, and any other method, calls the Python method, and
 * the cache is dropped.  New reference. */
static PyObject *
background_op(Ctx *cx, PyObject *ctrl, PyObject *ftl, PyObject *chip,
              long long cid, PyObject *now)
{
    PyObject *state = NULL, *v = NULL, *config = NULL, *min_invalid = NULL,
        *victim = NULL, *out = NULL, *res;
    long long free_n, threshold;
    int c, flex;

    if (NEED_CTRL(cx, ctrl) < 0
            || (cx->gcq == GCQ_UNKNOWN && ctx_gc_query(cx) < 0))
        return NULL;
    if (ftl != cx->ftl || cx->bgo == GCQ_PYTHON)
        goto python;
    flex = cx->bgo == GCQ_FLEX;
    if ((state = item_at(cx->gc_chips, (Py_ssize_t)cid)) == NULL
            || (v = GA(state, fault_work)) == NULL)
        goto done;
    c = v != Py_None;
    Py_CLEAR(v);
    if (c) {
        /* the recovery step may rebind anything: all of it in Python */
        Py_CLEAR(state);
        goto python;
    }
    if (flex) {
        /* self._flush_parity_invalidations(chip_id), which returns at
         * once when the chip has none pending */
        c = 1;
        if (cx->flush_pi_stock) {
            PyObject *pending;
            if ((v = GA(ftl, _pending_invalidations)) == NULL
                    || (pending = item_at(v, (Py_ssize_t)cid)) == NULL)
                goto done;
            c = truthy(pending);
            Py_DECREF(pending);
            if (c < 0)
                goto done;
            Py_CLEAR(v);
        }
        if (c) {
            CALLOUT(L_FTL);
            if ((res = call_method1(ftl, S__flush_parity_invalidations,
                                    chip)) == NULL)
                goto done;
            Py_DECREF(res);
        }
    }
    /* ---- BaseFtl.background_op ---- */
    /* if state.pending: return state.pending.popleft() */
    if ((v = GA(state, pending)) == NULL || (c = truthy(v)) < 0)
        goto done;
    if (c) {
        out = call_method0(v, S_popleft);
        goto done;
    }
    Py_CLEAR(v);
    /* if state.gc is not None: return self._gc_step(chip_id) */
    if ((v = GA(state, gc)) == NULL)
        goto done;
    c = v != Py_None;
    Py_CLEAR(v);
    if (c) {
        out = idle_gc_step(cx, ftl, chip, cid);
        goto done;
    }
    /* bg_gc_enabled, the free-block threshold, then the victim */
    if ((config = GA(ftl, config)) == NULL
            || (v = GA(config, bg_gc_enabled)) == NULL
            || (c = truthy(v)) < 0)
        goto done;
    Py_CLEAR(v);
    if (c) {
        if ((v = GA(state, free_blocks)) == NULL
                || (free_n = PyObject_Length(v)) < 0
                || ga_ll(ftl, S_gc_threshold_blocks, &threshold) < 0)
            goto done;
        Py_CLEAR(v);
        if (free_n < threshold) {
            if ((min_invalid = bg_min_invalid(cx, ftl)) == NULL
                    || (victim = select_victim(cx, ftl, chip, cid,
                                               min_invalid)) == NULL)
                goto done;
            if (victim != Py_None)
                goto collect;
            Py_CLEAR(victim);
            Py_CLEAR(min_invalid);
        }
    }
    if (!flex) {
        Py_INCREF(Py_None);
        out = Py_None;
        goto done;
    }
    /* ---- FlexFtl: the predictor's trigger ----
     * if state.gc is not None or not self._predictor_wants_gc(chip_id,
     *                                                         now) */
    if ((v = GA(state, gc)) == NULL)
        goto done;
    c = v == Py_None;
    Py_CLEAR(v);
    if (c && cx->predictor_stock) {
        /* _predictor_wants_gc is False without a predictor or with
         * background GC off */
        if ((v = GA(config, bg_gc_enabled)) == NULL
                || (c = truthy(v)) < 0)
            goto done;
        Py_CLEAR(v);
        if (c) {
            if ((v = GA(ftl, predictor)) == NULL)
                goto done;
            c = v != Py_None;
            Py_CLEAR(v);
        }
    }
    if (c) {
        CALLOUT(L_FTL);
        if ((v = call_method2(ftl, S__predictor_wants_gc, chip, now)) == NULL
                || (c = truthy(v)) < 0)
            goto done;
        Py_CLEAR(v);
    }
    if (!c) {
        Py_INCREF(Py_None);
        out = Py_None;
        goto done;
    }
    if ((min_invalid = bg_min_invalid(cx, ftl)) == NULL
            || (victim = select_victim(cx, ftl, chip, cid, min_invalid))
               == NULL)
        goto done;
    if (victim == Py_None) {
        Py_INCREF(Py_None);
        out = Py_None;
        goto done;
    }
collect:
    /* self._begin_gc(chip_id, victim, background=True)
     * return self._gc_step(chip_id) */
    CALLOUT(L_FTL);
    if ((res = PyObject_CallMethodObjArgs(ftl, S__begin_gc, chip, victim,
                                          Py_True, NULL)) == NULL)
        goto done;
    Py_DECREF(res);
    out = idle_gc_step(cx, ftl, chip, cid);
done:
    Py_XDECREF(state);
    Py_XDECREF(v);
    Py_XDECREF(config);
    Py_XDECREF(min_invalid);
    Py_XDECREF(victim);
    return out;
python:
    CALLOUT(L_FTL);
    out = call_method2(ftl, S_background_op, chip, now);
    ctx_flush_after(cx, L_FTL);
    return out;
}

/* ``host_idle() and ftl.wants_background_gc(chip)`` then
 * ``ftl.background_op(chip, now)``: the idle-time work of the pump.
 * Sets *op (new reference) when there is some. */
static int
idle_time_op(Ctx *cx, PyObject *ctrl, PyObject *admissions, PyObject *buffer,
             PyObject *chip, long long cid, PyObject *now, PyObject **op)
{
    PyObject *v, *ftl;
    int busy, c;

    /* StorageController.host_idle(): not (self._admissions or
     * self._queued_reads or len(self.write_buffer)) */
    if ((busy = truthy(admissions)) != 0)
        return busy < 0 ? -1 : 0;
    if ((v = GA(ctrl, _queued_reads)) == NULL)
        return -1;
    busy = truthy(v);
    Py_DECREF(v);
    if (busy != 0)
        return busy < 0 ? -1 : 0;
    if (Py_TYPE(buffer) == T_WriteBuffer) {
        if ((v = GA(buffer, _live)) == NULL)
            return -1;
        busy = truthy(v);
        Py_DECREF(v);
    }
    else {
        Py_ssize_t n = PyObject_Length(buffer);
        busy = n < 0 ? -1 : n > 0;
    }
    if (busy != 0)
        return busy < 0 ? -1 : 0;
    if (NEED_CTRL(cx, ctrl) < 0)
        return -1;
    ftl = CX(cx, ftl);
    c = wants_background_gc(cx, chip, cid);
    if (c > 0) {
        PyObject *res = background_op(cx, ctrl, ftl, chip, cid, now);
        if (res == NULL)
            c = -1;
        else {
            Py_DECREF(*op);
            *op = res;
        }
    }
    Py_DECREF(ftl);
    return c < 0 ? -1 : 0;
}

/* The body of StorageController._pump, inside its _pumping guard. */
static int
controller_pump_body(Ctx *cx, PyObject *ctrl)
{
    PyObject *idle, *queues, *next_op, *admissions, *buffer, *capacity,
        *now = NULL, *snapshot = NULL, *v;
    int progress = 1, r = -1, c;
    Py_ssize_t i;

    if (NEED_CTRL(cx, ctrl) < 0)
        return -1;
    idle = CX(cx, idle);
    queues = CX(cx, queues);
    next_op = CX(cx, next_op);
    admissions = CX(cx, admissions);
    buffer = CX(cx, buffer);
    capacity = CX(cx, capacity);
    if ((now = ctx_now(cx)) == NULL)
        goto done;
    while (progress) {
        /* progress = bool(admissions) and buffer._live < capacity
         *            and self._drain_admissions() */
        progress = 0;
        if ((c = truthy(admissions)) < 0)
            goto done;
        if (c) {
            if ((v = GA(buffer, _live)) == NULL)
                goto done;
            c = int_lt(v, capacity);
            Py_DECREF(v);
            if (c < 0)
                goto done;
            if (c && (progress = controller_drain(cx, ctrl)) < 0)
                goto done;
        }
        /* snapshot: _execute prunes self._idle while we iterate */
        Py_XSETREF(snapshot, PySequence_Tuple(idle));
        if (snapshot == NULL)
            goto done;
        for (i = 0; i < PyTuple_GET_SIZE(snapshot); i++) {
            PyObject *chip = PyTuple_GET_ITEM(snapshot, i), *queue, *op = NULL,
                *rreq = NULL;
            long long cid;
            if (as_ll(chip, &cid) < 0)
                goto done;
            if ((queue = PyObject_GetItem(queues, chip)) == NULL)
                goto done;
            c = truthy(queue);
            Py_DECREF(queue);
            if (c < 0)
                goto done;
            if (c) {
                if (next_read_op(cx, ctrl, cid, &op, &rreq) < 0)
                    goto done;
            }
            else {
                Py_INCREF(Py_None);
                op = Py_None;
                Py_INCREF(Py_None);
                rreq = Py_None;
            }
            if (op == Py_None) {
                Py_DECREF(op);
                op = call_next_op(cx, ctrl, next_op, chip, cid, now);
                if (op == NULL) {
                    Py_DECREF(rreq);
                    goto done;
                }
            }
            if (op == Py_None
                    && idle_time_op(cx, ctrl, admissions, buffer, chip, cid,
                                    now, &op) < 0) {
                Py_DECREF(op);
                Py_DECREF(rreq);
                goto done;
            }
            if (op == Py_None) {
                Py_DECREF(op);
                Py_DECREF(rreq);
                continue;
            }
            c = controller_execute(cx, ctrl, chip, cid, op, rreq);
            Py_DECREF(op);
            Py_DECREF(rreq);
            if (c < 0)
                goto done;
            progress = 1;
        }
    }
    r = 0;
done:
    Py_DECREF(idle);
    Py_DECREF(queues);
    Py_DECREF(next_op);
    Py_DECREF(admissions);
    Py_DECREF(buffer);
    Py_DECREF(capacity);
    Py_XDECREF(now);
    Py_XDECREF(snapshot);
    return r;
}

/* StorageController._pump */
static int
controller_pump(Ctx *cx, PyObject *ctrl)
{
    PyObject *v = GA(ctrl, _pumping), *et, *ev, *tb;
    int c, r;
    if (v == NULL)
        return -1;
    c = truthy(v);
    Py_DECREF(v);
    if (c)
        return c < 0 ? -1 : 0;
    if (SA(ctrl, _pumping, Py_True) < 0)
        return -1;
    r = controller_pump_body(cx, ctrl);
    /* finally: self._pumping = False */
    PyErr_Fetch(&et, &ev, &tb);
    if (SA(ctrl, _pumping, Py_False) < 0) {
        Py_XDECREF(et);
        Py_XDECREF(ev);
        Py_XDECREF(tb);
        return -1;
    }
    PyErr_Restore(et, ev, tb);
    return r;
}

/* The physics hook of StorageController._on_op_done: 1 when the
 * completion is deferred (a voltage-shift ladder is being charged), 0
 * when it goes on, -1 on error.  The engine and _note_physics_read are
 * Python (the engine's floats and RNG stream stay exactly Python's);
 * both are device-internal, so the cache stands. */
static int
physics_hook(Ctx *cx, PyObject *ctrl, PyObject *chip, PyObject *op,
             PyObject *rreq)
{
    PyObject *physics = CX(cx, physics), *kind = NULL, *addr = NULL,
        *block = NULL, *page = NULL, *now = NULL, *tag = NULL, *res = NULL;
    int r = -1, c;

    if ((kind = OP_GET(op, kind)) == NULL || (addr = OP_GET(op, addr)) == NULL
            || (block = ppa_field(addr, 2, S_block)) == NULL)
        goto done;
    if (kind == K_READ) {
        /* outcome = self._physics.on_read(chip_id, addr.block, addr.page,
         *     self.sim.now, sample=op.tag == "host") */
        PyObject *args[6];
        if ((page = ppa_field(addr, 3, S_page)) == NULL
                || (now = ctx_now(cx)) == NULL
                || (tag = OP_GET(op, tag)) == NULL
                || (c = PyObject_RichCompareBool(tag, S_host, Py_EQ)) < 0)
            goto done;
        args[0] = physics;
        args[1] = chip;
        args[2] = block;
        args[3] = page;
        args[4] = now;
        args[5] = c ? Py_True : Py_False;
        CALLOUT(L_PHYSICS);
        if ((res = PyObject_VectorcallMethod(
                 S_on_read, args, 5 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                 KW_SAMPLE)) == NULL)
            goto done;
        if (res == Py_None) {
            r = 0;
            goto done;
        }
        /* if self._note_physics_read(chip_id, op, read_request, outcome):
         *     return */
        {
            PyObject *nargs[5] = {ctrl, chip, op, rreq, res}, *deferred;
            CALLOUT(L_PHYSICS);
            deferred = PyObject_VectorcallMethod(
                S__note_physics_read, nargs,
                5 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            if (deferred == NULL)
                goto done;
            r = truthy(deferred);
            Py_DECREF(deferred);
        }
    }
    else if (kind == K_PROGRAM) {
        /* self._physics.note_program(chip_id, addr.block, addr.page,
         *                            self.sim.now) */
        PyObject *args[5];
        if ((page = ppa_field(addr, 3, S_page)) == NULL
                || (now = ctx_now(cx)) == NULL)
            goto done;
        args[0] = physics;
        args[1] = chip;
        args[2] = block;
        args[3] = page;
        args[4] = now;
        CALLOUT(L_PHYSICS);
        if ((res = PyObject_VectorcallMethod(
                 S_note_program, args, 5 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                 NULL)) == NULL)
            goto done;
        r = 0;
    }
    else {
        /* self._physics.note_erase(chip_id, addr.block) */
        CALLOUT(L_PHYSICS);
        if ((res = call_method2(physics, S_note_erase, chip, block)) == NULL)
            goto done;
        r = 0;
    }
done:
    Py_DECREF(physics);
    Py_XDECREF(kind);
    Py_XDECREF(addr);
    Py_XDECREF(block);
    Py_XDECREF(page);
    Py_XDECREF(now);
    Py_XDECREF(tag);
    Py_XDECREF(res);
    return r;
}

/* StorageController._on_op_done (stock path: no fault injector) */
static int
controller_on_op_done(Ctx *cx, PyObject *ctrl, PyObject *chip, PyObject *op,
                      PyObject *rreq)
{
    PyObject *cb, *res;
    long long cid;
    int c;

    if (as_ll(chip, &cid) < 0 || NEED_CTRL(cx, ctrl) < 0)
        return -1;
    if (cx->physics != NULL) {
        if ((c = physics_hook(cx, ctrl, chip, op, rreq)) != 0)
            return c < 0 ? -1 : 0;
        if (NEED_CTRL(cx, ctrl) < 0)
            return -1;
    }
    /* self._busy[chip_id] = False; insort(self._idle, chip_id) */
    if (set_item(cx->busy, (Py_ssize_t)cid, Py_False) < 0
            || insort_int(cx->idle, chip) < 0)
        return -1;
    /* self.in_flight.pop(chip_id, None) */
    if (PyDict_CheckExact(cx->in_flight)) {
        int has = PyDict_Contains(cx->in_flight, chip);
        if (has < 0 || (has && PyDict_DelItem(cx->in_flight, chip) < 0))
            return -1;
    }
    else {
        if ((res = call_method2(cx->in_flight, S_pop, chip, Py_None)) == NULL)
            return -1;
        Py_DECREF(res);
    }
    /* if op.on_complete is not None: op.on_complete(self.sim.now) */
    if ((cb = OP_GET(op, on_complete)) == NULL)
        return -1;
    if (cb != Py_None) {
        PyObject *now = ctx_now(cx);
        CALLOUT(L_HOST);
        res = now == NULL ? NULL : PyObject_CallOneArg(cb, now);
        Py_XDECREF(now);
        ctx_flush_after(cx, L_HOST);
        if (res == NULL) {
            Py_DECREF(cb);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(cb);
    if (rreq != Py_None && complete_read_page(cx, ctrl, rreq) < 0)
        return -1;
    return controller_pump(cx, ctrl);
}

/* StorageController._submit_read */
static int
controller_submit_read(Ctx *cx, PyObject *ctrl, PyObject *request)
{
    PyObject *lpn = NULL, *ppn = NULL, *stats = NULL, *queue = NULL,
        *pair = NULL, *res;
    long long npages, lpn0, offset, p, remaining;
    int r = -1, c;

    if (rq_get_ll(request, RQ_npages, S_npages, &npages) < 0)
        return -1;
    for (offset = 0; offset < npages; offset++) {
        if (rq_get_ll(request, RQ_lpn, S_lpn, &lpn0) < 0
                || (lpn = PyLong_FromLongLong(lpn0 + offset)) == NULL
                || NEED_CTRL(cx, ctrl) < 0)
            goto done;
        if ((c = buffer_contains(cx->buffer, lpn)) < 0)
            goto done;
        if (c) {
            if ((stats = GA(ctrl, stats)) == NULL
                    || attr_add(stats, S_buffer_read_hits, 1) < 0)
                goto done;
            Py_CLEAR(stats);
            if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                          &remaining) < 0
                    || rq_set_ll(request, RQ_pages_remaining,
                                 S_pages_remaining, remaining - 1) < 0)
                goto done;
            Py_CLEAR(lpn);
            continue;
        }
        if ((ppn = controller_lookup(cx, ctrl, lpn)) == NULL)
            goto done;
        if (ppn == Py_None) {
            /* never-written page: served as zeroes, no NAND access */
            if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                          &remaining) < 0
                    || rq_set_ll(request, RQ_pages_remaining,
                                 S_pages_remaining, remaining - 1) < 0)
                goto done;
            Py_CLEAR(lpn);
            Py_CLEAR(ppn);
            continue;
        }
        if (as_ll(ppn, &p) < 0 || NEED_CTRL(cx, ctrl) < 0)
            goto done;
        if ((queue = item_at(cx->queues, (Py_ssize_t)(p / cx->ppc))) == NULL
                || (pair = PyTuple_Pack(2, lpn, request)) == NULL
                || (res = call_method1(queue, S_append, pair)) == NULL)
            goto done;
        Py_DECREF(res);
        if (attr_add(ctrl, S__queued_reads, 1) < 0)
            goto done;
        Py_CLEAR(lpn);
        Py_CLEAR(ppn);
        Py_CLEAR(queue);
        Py_CLEAR(pair);
    }
    if (rq_get_ll(request, RQ_pages_remaining, S_pages_remaining,
                  &remaining) < 0)
        goto done;
    if (remaining == 0 && complete_request(cx, ctrl, request) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(lpn);
    Py_XDECREF(ppn);
    Py_XDECREF(stats);
    Py_XDECREF(queue);
    Py_XDECREF(pair);
    return r;
}

/* StorageController.submit */
static int
controller_submit(Ctx *cx, PyObject *ctrl, PyObject *request)
{
    PyObject *stats = NULL, *first = NULL, *rtime = NULL, *now = NULL,
        *kind = NULL, *v = NULL, *res;
    int r = -1, c;

    if ((stats = GA(ctrl, stats)) == NULL || NEED_CTRL(cx, ctrl) < 0
            || (c = stats_stock(cx, stats)) < 0)
        goto done;
    if (c) {
        /* SimStats.note_arrival(request) */
        if ((first = GA(stats, first_arrival)) == NULL
                || (rtime = RQ_GET(request, time)) == NULL)
            goto done;
        c = 1;
        if (first != Py_None
                && (c = PyObject_RichCompareBool(rtime, first, Py_LT)) < 0)
            goto done;
        if (c && SA(stats, first_arrival, rtime) < 0)
            goto done;
    }
    else {
        CALLOUT(L_CONTROLLER);
        res = call_method1(stats, S_note_arrival, request);
        ctx_flush_after(cx, L_CONTROLLER);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (NEED_CTRL(cx, ctrl) < 0 || (now = ctx_now(cx)) == NULL
            || RQ_SET(request, submitted_at, now) < 0)
        goto done;
    if ((kind = RQ_GET(request, kind)) == NULL)
        goto done;
    if (kind == R_READ) {
        if (controller_submit_read(cx, ctrl, request) < 0)
            goto done;
    }
    else {
        if ((v = GA(ctrl, read_only)) == NULL || (c = truthy(v)) < 0)
            goto done;
        if (c) {
            CALLOUT(L_HOST);
            res = call_method1(ctrl, S__reject_write, request);
            ctx_flush_after(cx, L_HOST);
            if (res == NULL)
                goto done;
            Py_DECREF(res);
            r = 0;
            goto done;
        }
        if (NEED_CTRL(cx, ctrl) < 0
                || (res = call_method1(cx->admissions, S_append, request)) == NULL)
            goto done;
        Py_DECREF(res);
    }
    r = controller_pump(cx, ctrl);
done:
    Py_XDECREF(stats);
    Py_XDECREF(first);
    Py_XDECREF(rtime);
    Py_XDECREF(now);
    Py_XDECREF(kind);
    Py_XDECREF(v);
    return r;
}

/* ------------------------------------------------------------------ */
/* hosts                                                              */

/* The scenario host's phase emission:
 *
 *     trace = getattr(self.controller, "_trace", None)
 *     if trace is not None and op.phase and op.phase != self._phase:
 *         trace.event(SCENARIO_PHASE, name=op.phase, prev=self._phase,
 *                     stream=index)
 *         self._phase = op.phase
 */
static int
scenario_phase(PyObject *host, PyObject *ctrl, PyObject *op, PyObject *index)
{
    PyObject *trace, *phase = NULL, *prev = NULL, *res;
    int r = -1, c;

    if ((trace = PyObject_GetAttr(ctrl, S__trace)) == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
        return 0;
    }
    if (trace == Py_None) {
        Py_DECREF(trace);
        return 0;
    }
    if ((phase = GA(op, phase)) == NULL || (c = truthy(phase)) < 0)
        goto done;
    if (c) {
        if ((prev = GA(host, _phase)) == NULL
                || (c = PyObject_RichCompareBool(phase, prev, Py_NE)) < 0)
            goto done;
        if (c) {
            PyObject *args[5] = {trace, EV_SCENARIO_PHASE, phase, prev, index};
            CALLOUT(L_TRACER);
            res = PyObject_VectorcallMethod(
                S_event, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET,
                KW_SCENARIO_PHASE);
            if (res == NULL)
                goto done;
            Py_DECREF(res);
            if (SA(host, _phase, phase) < 0)
                goto done;
        }
    }
    r = 0;
done:
    Py_DECREF(trace);
    Py_XDECREF(phase);
    Py_XDECREF(prev);
    return r;
}

/* StreamingClosedLoopHost._issue / ClosedLoopHost._issue */
static int
host_issue(Ctx *cx, PyObject *host, PyObject *index, int streaming)
{
    PyObject *op = NULL, *ctrl = NULL, *sim = NULL, *now = NULL,
        *tenant = NULL, *kind = NULL, *lpn = NULL, *npages = NULL,
        *request = NULL, *think = NULL, *completion = NULL, *v = NULL;
    int r = -1;

    if (streaming) {
        /* op = self._current[index]; assert op is not None */
        if ((v = GA(host, _current)) == NULL
                || (op = PyObject_GetItem(v, index)) == NULL)
            goto done;
        if (op == Py_None) {
            PyErr_SetNone(PyExc_AssertionError);
            goto done;
        }
    }
    else {
        /* op = self.streams[index][self._cursor[index]] */
        PyObject *stream, *cursor, *pos;
        if ((v = GA(host, streams)) == NULL
                || (stream = PyObject_GetItem(v, index)) == NULL)
            goto done;
        Py_CLEAR(v);
        if ((cursor = GA(host, _cursor)) == NULL) {
            Py_DECREF(stream);
            goto done;
        }
        pos = PyObject_GetItem(cursor, index);
        Py_DECREF(cursor);
        if (pos == NULL) {
            Py_DECREF(stream);
            goto done;
        }
        op = PyObject_GetItem(stream, pos);
        Py_DECREF(stream);
        Py_DECREF(pos);
        if (op == NULL)
            goto done;
    }
    Py_CLEAR(v);
    if ((ctrl = GA(host, controller)) == NULL)
        goto done;
    if (streaming && scenario_phase(host, ctrl, op, index) < 0)
        goto done;
    /* Request(self.sim.now, op.kind, op.lpn, op.npages, tenant=...) */
    if ((sim = GA(host, sim)) == NULL || (now = GA(sim, now)) == NULL
            || (kind = GA(op, kind)) == NULL || (lpn = GA(op, lpn)) == NULL
            || (npages = GA(op, npages)) == NULL)
        goto done;
    if (streaming) {
        if ((tenant = GA(op, tenant)) == NULL)
            goto done;
        if (tenant == Py_None) {
            Py_DECREF(tenant);
            if ((tenant = GA(host, tenant)) == NULL)
                goto done;
        }
    }
    else if ((tenant = GA(host, tenant)) == NULL)
        goto done;
    if ((request = new_request(now, kind, lpn, npages, tenant)) == NULL)
        goto done;
    /* request.on_complete = StreamCompletion(self, index, op.think_after),
     * its __init__'s slot stores done here */
    if ((think = GA(op, think_after)) == NULL
            || (completion = T_Completion->tp_alloc(T_Completion, 0)) == NULL)
        goto done;
    Py_INCREF(host);
    SLOT(completion, SC_host) = host;
    Py_INCREF(index);
    SLOT(completion, SC_index) = index;
    Py_INCREF(think);
    SLOT(completion, SC_think) = think;
    if (RQ_SET(request, on_complete, completion) < 0)
        goto done;
    /* self.controller.submit(request) */
    if (controller_submit(cx, ctrl, request) < 0)
        goto done;
    if (streaming && attr_add(host, S_issued, 1) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(op);
    Py_XDECREF(ctrl);
    Py_XDECREF(sim);
    Py_XDECREF(now);
    Py_XDECREF(tenant);
    Py_XDECREF(kind);
    Py_XDECREF(lpn);
    Py_XDECREF(npages);
    Py_XDECREF(request);
    Py_XDECREF(think);
    Py_XDECREF(completion);
    Py_XDECREF(v);
    return r;
}

/* Request(time, kind, lpn, npages, tenant=tenant): the dataclass's
 * __init__ and __post_init__ as slot stores, in field order, for an int
 * lpn >= 0 and npages > 0.  Anything else calls the class, which raises
 * the same ValueError for a bad value.  New reference. */
static PyObject *
new_request(PyObject *time, PyObject *kind, PyObject *lpn, PyObject *npages,
            PyObject *tenant)
{
    PyObject *args[5] = {time, kind, lpn, npages, tenant}, *rq, *v[11];
    long long l, n;
    int ol, on, i;

    if (PyLong_CheckExact(lpn) && PyLong_CheckExact(npages)) {
        l = PyLong_AsLongLongAndOverflow(lpn, &ol);
        n = PyLong_AsLongLongAndOverflow(npages, &on);
        if ((ol > 0 || (ol == 0 && l >= 0)) && (on > 0 || (on == 0 && n > 0))
                && (rq = T_Request->tp_alloc(T_Request, 0)) != NULL) {
            Py_ssize_t off[11] = {RQ_time, RQ_kind, RQ_lpn, RQ_npages,
                                  RQ_tenant, RQ_pages_remaining,
                                  RQ_submitted_at, RQ_status, RQ_error,
                                  RQ_completed_at, RQ_on_complete};
            v[0] = time;
            v[1] = kind;
            v[2] = lpn;
            v[3] = npages;
            v[4] = tenant;
            v[5] = npages;          /* __post_init__: pages_remaining */
            v[6] = FLOAT_ZERO;
            v[7] = REQUEST_OK;
            v[8] = v[9] = v[10] = Py_None;
            for (i = 0; i < 11; i++) {
                Py_INCREF(v[i]);
                SLOT(rq, off[i]) = v[i];
            }
            return rq;
        }
        if (PyErr_Occurred())
            return NULL;
    }
    return PyObject_Vectorcall((PyObject *)T_Request, args, 4, KW_TENANT);
}

/* ------------------------------------------------------------------ */
/* the QoS front-end (repro.qos)                                      */

/* 1 when a completion hook runs only stock code: None (at the top
 * level), a SloAccountant's bound record, or a _ChainedHook of such
 * parts; 0 otherwise */
static int
hook_stock(PyObject *hook, int depth)
{
    PyObject *first, *second;
    if (hook == Py_None)
        return depth == 0;
    if (PyMethod_Check(hook))
        return PyMethod_GET_FUNCTION(hook) == F_slo_record
            && Py_TYPE(PyMethod_GET_SELF(hook)) == T_SloAccountant;
    if (Py_TYPE(hook) != T_ChainedHook || depth >= 8
            || (first = SLOT(hook, CH_first)) == NULL
            || (second = SLOT(hook, CH_second)) == NULL)
        return 0;
    return hook_stock(first, depth + 1) && hook_stock(second, depth + 1);
}

/* ``o.name = o.name + delta`` (``+=`` on an int attribute, any delta) */
static int
attr_iadd(PyObject *o, PyObject *name, PyObject *delta)
{
    PyObject *v = PyObject_GetAttr(o, name), *nv;
    int r;
    if (v == NULL)
        return -1;
    nv = PyNumber_InPlaceAdd(v, delta);
    Py_DECREF(v);
    if (nv == NULL)
        return -1;
    r = PyObject_SetAttr(o, name, nv);
    Py_DECREF(nv);
    return r;
}

/* TenantAccount.record for a request that completed ok */
static int
account_record(PyObject *account, PyObject *request, PyObject *now)
{
    PyObject *rtime = NULL, *latency = NULL, *v = NULL, *kind = NULL,
        *npages = NULL, *list = NULL, *target = NULL;
    int r = -1, c, read;

    /* latency = now - request.time */
    if ((rtime = RQ_GET(request, time)) == NULL)
        goto done;
    if (PyFloat_CheckExact(now) && PyFloat_CheckExact(rtime))
        latency = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                     - PyFloat_AS_DOUBLE(rtime));
    else
        latency = PyNumber_Subtract(now, rtime);
    /* if self.first_arrival is None or request.time < self.first_arrival */
    if (latency == NULL || (v = GA(account, first_arrival)) == NULL)
        goto done;
    c = 1;
    if (v != Py_None && (c = PyObject_RichCompareBool(rtime, v, Py_LT)) < 0)
        goto done;
    if (c && SA(account, first_arrival, rtime) < 0)
        goto done;
    Py_CLEAR(v);
    /* if now > self.last_completion */
    if ((v = GA(account, last_completion)) == NULL
            || (c = PyObject_RichCompareBool(now, v, Py_GT)) < 0
            || (c && SA(account, last_completion, now) < 0))
        goto done;
    Py_CLEAR(v);
    if ((kind = RQ_GET(request, kind)) == NULL
            || (npages = RQ_GET(request, npages)) == NULL)
        goto done;
    read = kind == R_READ;
    if (attr_add(account, read ? S_completed_reads : S_completed_writes,
                 1) < 0
            || attr_iadd(account, read ? S_read_pages : S_written_pages,
                         npages) < 0
            || (list = PyObject_GetAttr(account, read ? S_read_latencies
                                        : S_write_latencies)) == NULL
            || list_append(list, latency) < 0)
        goto done;
    /* target = self.target.<kind>_latency
     * if target is not None and latency > target: violations += 1 */
    if ((v = GA(account, target)) == NULL
            || (target = PyObject_GetAttr(v, read ? S_read_latency
                                          : S_write_latency)) == NULL)
        goto done;
    if (target != Py_None) {
        if ((c = PyObject_RichCompareBool(latency, target, Py_GT)) < 0
                || (c && attr_add(account, read ? S_read_violations
                                  : S_write_violations, 1) < 0))
            goto done;
    }
    r = 0;
done:
    Py_XDECREF(rtime);
    Py_XDECREF(latency);
    Py_XDECREF(v);
    Py_XDECREF(kind);
    Py_XDECREF(npages);
    Py_XDECREF(list);
    Py_XDECREF(target);
    return r;
}

/* SloAccountant.record(request, now): the request's existing account
 * records a request completed ok natively; a new account, a failed or a
 * recovered request call the stock Python method (which rebinds nothing
 * the cache holds) */
static int
slo_record(PyObject *accountant, PyObject *request, PyObject *now)
{
    PyObject *tenant = NULL, *accounts = NULL, *account = NULL,
        *status = NULL, *res;
    int r = -1;

    if ((tenant = RQ_GET(request, tenant)) == NULL)
        return -1;
    if (tenant == Py_None) {
        Py_DECREF(tenant);
        return 0;
    }
    if ((accounts = GA(accountant, accounts)) == NULL
            || (status = RQ_GET(request, status)) == NULL)
        goto done;
    if (PyDict_CheckExact(accounts)) {
        account = PyDict_GetItemWithError(accounts, tenant);
        if (account == NULL && PyErr_Occurred())
            goto done;
        Py_XINCREF(account);
    }
    /* status == REQUEST_OK (a resumed snapshot's strings are equal, not
     * the same object) */
    if (account != NULL && Py_TYPE(account) == T_TenantAccount
            && (status == REQUEST_OK
                || (PyUnicode_CheckExact(status)
                    && PyUnicode_Compare(status, REQUEST_OK) == 0)))
        r = account_record(account, request, now);
    else {
        CALLOUT(L_HOST);
        if ((res = call_method2(accountant, S_record, request, now)) != NULL) {
            Py_DECREF(res);
            r = 0;
        }
    }
done:
    Py_DECREF(tenant);
    Py_XDECREF(accounts);
    Py_XDECREF(account);
    Py_XDECREF(status);
    return r;
}

/* Call a stock completion hook (hook_stock): ``hook(request, now)`` */
static int
hook_call(PyObject *hook, PyObject *request, PyObject *now)
{
    if (PyMethod_Check(hook))
        return slo_record(PyMethod_GET_SELF(hook), request, now);
    /* _ChainedHook: self.first(request, now); self.second(request, now) */
    if (hook_call(SLOT(hook, CH_first), request, now) < 0)
        return -1;
    return hook_call(SLOT(hook, CH_second), request, now);
}

/* Classify ``host`` for the native QoS path: 1 when it is an exact
 * MultiTenantHost on the loaded controller and its kernel, with no
 * tracer or metrics hooks, no token bucket, exact SubmissionQueues and
 * AdmissionGate (on the same controller) and a stock fifo/rr/wrr/drr
 * arbiter, their methods neither overridden nor patched; 0 otherwise
 * (the host's events then run in Python); -1 on error.  A stock host's
 * containers are cached in ``cx``. */
static int
qos_stock(Ctx *cx, PyObject *host)
{
    PyObject *v = NULL, *tenants = NULL, *queues = NULL, *cursor = NULL,
        *arbiter = NULL, *gate = NULL;
    Py_ssize_t i;
    int r = 0, c, arb;

    if (host == cx->q_host)
        return 1;
    if (Py_TYPE(host) != T_QosHost || cx->ctrl == NULL)
        return 0;
    if (cx->cq == LAZY_UNKNOWN && ctx_completion(cx) < 0)
        return -1;
    if (cx->cq != LAZY_YES)
        return 0;
    /* on the loaded controller and its kernel, with no tracer or
     * metrics (Tracer.attach_qos) */
    if ((c = attr_is(host, S_controller, cx->ctrl)) <= 0
            || (c = attr_is(host, S_sim, cx->psim)) <= 0
            || (c = attr_is(host, S__trace, Py_None)) <= 0
            || (c = attr_is(host, S__metrics, Py_None)) <= 0)
        return c;
    /* no token bucket */
    if ((v = GA(host, buckets)) == NULL)
        return -1;
    c = PyList_CheckExact(v);
    for (i = 0; c && i < PyList_GET_SIZE(v); i++)
        c = PyList_GET_ITEM(v, i) == Py_None;
    Py_DECREF(v);
    if (!c)
        return 0;
    if ((tenants = GA(host, tenants)) == NULL
            || (cursor = GA(host, _cursor)) == NULL
            || (queues = GA(host, queues)) == NULL
            || (arbiter = GA(host, arbiter)) == NULL
            || (gate = GA(host, gate)) == NULL)
        goto error;
    if (!PyList_CheckExact(tenants) || !PyList_CheckExact(cursor)
            || !PyList_CheckExact(queues) || PyList_GET_SIZE(queues) == 0
            || Py_TYPE(gate) != T_Gate)
        goto done;
    /* exact queues and a stock arbiter and gate, nothing patched on
     * the instances */
    for (i = 0; i < PyList_GET_SIZE(queues); i++) {
        PyObject *queue = PyList_GET_ITEM(queues, i);
        if (Py_TYPE(queue) != T_SubQueue)
            goto done;
        if ((c = bound_to(queue, S_push, F_queue_push)) <= 0
                || (c = bound_to(queue, S_pop, F_queue_pop)) <= 0) {
            r = c;
            goto done;
        }
    }
    for (arb = 0; arb < N_ARBITERS; arb++)
        if (Py_TYPE(arbiter) == T_Arbiter[arb])
            break;
    if (arb == N_ARBITERS)
        goto done;
    if ((c = bound_to(arbiter, S_select, F_select[arb])) <= 0
            || (c = bound_to(arbiter, S_note_empty, F_note_empty[arb])) <= 0
            || (c = bound_to(gate, S_can_admit, F_can_admit)) <= 0
            || (c = bound_to(gate, S_note_dispatch, F_note_dispatch)) <= 0
            || (c = bound_to(gate, S_note_complete, F_note_complete)) <= 0
            || (c = attr_is(gate, S_controller, cx->ctrl)) <= 0) {
        r = c;
        goto done;
    }
    ctx_flush_qos(cx);
    Py_INCREF(host);
    cx->q_host = host;
    cx->q_tenants = tenants;
    cx->q_cursor = cursor;
    cx->q_queues = queues;
    cx->q_arbiter = arbiter;
    cx->q_gate = gate;
    cx->q_arb = arb;
    return 1;
error:
    r = -1;
done:
    Py_XDECREF(tenants);
    Py_XDECREF(cursor);
    Py_XDECREF(queues);
    Py_XDECREF(arbiter);
    Py_XDECREF(gate);
    return r;
}

/* SubmissionQueue.push(request, seq, now): the full-queue check (whose
 * OverflowError the Python method raises), the QueuedCommand (slot
 * stores), the enqueue count and the depth timeline */
static int
queue_push(PyObject *queue, PyObject *request, PyObject *seq, PyObject *now)
{
    PyObject *fifo = NULL, *v = NULL, *command = NULL, *sample = NULL,
        *res;
    Py_ssize_t depth;
    long long seen;
    int r = -1, c;

    if ((fifo = GA(queue, _fifo)) == NULL || (v = GA(queue, max_depth)) == NULL
            || (depth = PyObject_Length(fifo)) < 0)
        goto done;
    if (v != Py_None) {
        PyObject *n = PyLong_FromSsize_t(depth);
        if (n == NULL)
            goto done;
        c = PyObject_RichCompareBool(n, v, Py_GE);
        Py_DECREF(n);
        if (c < 0)
            goto done;
        if (c) {
            /* full: the Python method raises */
            CALLOUT(L_HOST);
            if ((res = PyObject_CallMethodObjArgs(queue, S_push, request, seq,
                                                  now, NULL)) != NULL) {
                Py_DECREF(res);
                r = 0;
            }
            goto done;
        }
    }
    Py_CLEAR(v);
    /* command = QueuedCommand(request=request, seq=seq, enqueued_at=now) */
    if ((command = T_QueuedCommand->tp_alloc(T_QueuedCommand, 0)) == NULL)
        goto done;
    Py_INCREF(request);
    SLOT(command, QC_request) = request;
    Py_INCREF(seq);
    SLOT(command, QC_seq) = seq;
    Py_INCREF(now);
    SLOT(command, QC_enqueued_at) = now;
    if ((res = call_method1(fifo, S_append, command)) == NULL)
        goto done;
    Py_DECREF(res);
    if (attr_add(queue, S_enqueued, 1) < 0
            || (depth = PyObject_Length(fifo)) < 0
            || ga_ll(queue, S_max_depth_seen, &seen) < 0
            || (depth > seen && sa_ll(queue, S_max_depth_seen, depth) < 0)
            || (v = GA(queue, depth_samples)) == NULL
            || (sample = Py_BuildValue("(On)", now, depth)) == NULL
            || list_append(v, sample) < 0)
        goto done;
    r = 0;
done:
    Py_XDECREF(fifo);
    Py_XDECREF(v);
    Py_XDECREF(command);
    Py_XDECREF(sample);
    return r;
}

/* SubmissionQueue.pop(now) (new reference); an empty queue's IndexError
 * is the Python method's */
static PyObject *
queue_pop(PyObject *queue, PyObject *now)
{
    PyObject *fifo, *command = NULL, *v = NULL, *sample = NULL;
    Py_ssize_t depth;

    if ((fifo = GA(queue, _fifo)) == NULL)
        return NULL;
    if ((depth = PyObject_Length(fifo)) <= 0) {
        Py_DECREF(fifo);
        if (depth < 0)
            return NULL;
        CALLOUT(L_HOST);
        return call_method1(queue, S_pop, now);
    }
    if ((command = call_method0(fifo, S_popleft)) == NULL
            || attr_add(queue, S_issued, 1) < 0
            || (depth = PyObject_Length(fifo)) < 0
            || (v = GA(queue, depth_samples)) == NULL
            || (sample = Py_BuildValue("(On)", now, depth)) == NULL
            || list_append(v, sample) < 0)
        Py_CLEAR(command);
    Py_DECREF(fifo);
    Py_XDECREF(v);
    Py_XDECREF(sample);
    return command;
}

/* ``len(queue._fifo)``, or -1 on error */
static Py_ssize_t
queue_depth(PyObject *queue)
{
    PyObject *fifo = GA(queue, _fifo);
    Py_ssize_t n;
    if (fifo == NULL)
        return -1;
    n = PyObject_Length(fifo);
    Py_DECREF(fifo);
    return n;
}

/* ``queue.head`` (``queue._fifo[0]``, new reference) */
static PyObject *
queue_head(PyObject *queue)
{
    PyObject *fifo = GA(queue, _fifo), *head;
    if (fifo == NULL)
        return NULL;
    head = PySequence_GetItem(fifo, 0);
    Py_DECREF(fifo);
    return head;
}

/* ``queue.head.request.npages`` as a C integer (1), 0 when it is not a
 * plain int of at most 2**53 in size (the float arithmetic of the
 * caller would not be exact), -1 on error */
static int
head_npages(PyObject *queue, long long *out)
{
    PyObject *head = queue_head(queue), *request, *npages;
    int r = 0, overflow;

    if (head == NULL)
        return -1;
    request = slot_get(head, T_QueuedCommand, QC_request, S_request);
    Py_DECREF(head);
    if (request == NULL)
        return -1;
    npages = RQ_GET(request, npages);
    Py_DECREF(request);
    if (npages == NULL)
        return -1;
    if (PyLong_CheckExact(npages)) {
        *out = PyLong_AsLongLongAndOverflow(npages, &overflow);
        r = !overflow && *out <= (1LL << 53) && *out >= -(1LL << 53);
    }
    Py_DECREF(npages);
    return r;
}

/* AdmissionGate.can_admit(): 1/0, or -1 on error.  ``ctrl`` is the
 * gate's controller, loaded in ``cx``. */
static int
gate_can_admit(Ctx *cx, PyObject *gate, PyObject *ctrl)
{
    PyObject *limit, *v;
    int c;

    /* max_outstanding is not None and outstanding >= max_outstanding */
    if ((limit = GA(gate, max_outstanding)) == NULL)
        return -1;
    c = 0;
    if (limit != Py_None) {
        if ((v = GA(gate, outstanding)) == NULL) {
            Py_DECREF(limit);
            return -1;
        }
        c = PyObject_RichCompareBool(v, limit, Py_GE);
        Py_DECREF(v);
    }
    Py_DECREF(limit);
    if (c != 0)
        goto blocked;
    /* max_pending_admissions is not None and
     * controller.pending_admissions >= max_pending_admissions */
    if ((limit = GA(gate, max_pending_admissions)) == NULL)
        return -1;
    if (limit != Py_None) {
        Py_ssize_t n;
        if (NEED_CTRL(cx, ctrl) < 0 || (n = PyObject_Length(cx->admissions)) < 0
                || (v = PyLong_FromSsize_t(n)) == NULL) {
            Py_DECREF(limit);
            return -1;
        }
        c = PyObject_RichCompareBool(v, limit, Py_GE);
        Py_DECREF(v);
    }
    Py_DECREF(limit);
    if (c == 0)
        return 1;
blocked:
    if (c < 0 || attr_add(gate, S_blocked_decisions, 1) < 0)
        return -1;
    return 0;
}

/* The stock arbiters' select(queues, eligible), natively: the index to
 * serve (>= 0), -2 when the Python method must decide (state the native
 * arithmetic does not cover exactly, or no progress, where it raises),
 * -1 on error.  ``eligible`` has one flag per queue, some set. */
static Py_ssize_t
arbiter_select(PyObject *arbiter, int arb, PyObject *queues,
               const char *eligible, Py_ssize_t n)
{
    PyObject *weights = NULL, *state = NULL, *v;
    double *w = NULL, *x = NULL, min_w, quantum = 0.0, bound_d;
    long long pos, cost, max_cost = 0, *costs = NULL, loops, it;
    char *changed = NULL;
    Py_ssize_t i, index, r = -2;
    int c, credited = 0;

    if (arb == ARB_FIFO) {
        /* the eligible head that arrived first (lowest seq) */
        PyObject *best_seq = NULL;
        index = -1;
        for (i = 0; i < n; i++) {
            PyObject *head, *seq;
            if (!eligible[i])
                continue;
            if ((head = queue_head(PyList_GET_ITEM(queues, i))) == NULL)
                goto fifo_error;
            seq = slot_get(head, T_QueuedCommand, QC_seq, S_seq);
            Py_DECREF(head);
            if (seq == NULL)
                goto fifo_error;
            if (index < 0 || (c = int_lt(seq, best_seq)) == 1) {
                index = i;
                Py_XSETREF(best_seq, seq);
            }
            else {
                Py_DECREF(seq);
                if (c < 0)
                    goto fifo_error;
            }
        }
        Py_XDECREF(best_seq);
        return index;
    fifo_error:
        Py_XDECREF(best_seq);
        return -1;
    }
    if (ga_ll(arbiter, S__pos, &pos) < 0)
        return -1;
    if (pos < 0 || pos >= n)
        return -2;
    if (arb == ARB_RR) {
        for (i = 0; i < n; i++) {
            index = (pos + i) % n;
            if (eligible[index]) {
                if (sa_ll(arbiter, S__pos, (index + 1) % n) < 0)
                    return -1;
                return index;
            }
        }
        return -2;
    }
    /* WRR and DRR: the float weights and credits (deficits) */
    if ((weights = GA(arbiter, weights)) == NULL
            || (state = PyObject_GetAttr(arbiter, arb == ARB_WRR ? S__credits
                                          : S__deficit)) == NULL)
        goto error;
    if (!PyList_CheckExact(weights) || !PyList_CheckExact(state)
            || PyList_GET_SIZE(weights) != n || PyList_GET_SIZE(state) != n)
        goto done;
    w = PyMem_Malloc(2 * n * sizeof(double));
    costs = PyMem_Malloc(n * sizeof(long long));
    changed = PyMem_Calloc(n, 1);
    if (w == NULL || costs == NULL || changed == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    x = w + n;
    min_w = 0.0;
    for (i = 0; i < n; i++) {
        PyObject *a = PyList_GET_ITEM(weights, i), *b = PyList_GET_ITEM(state, i);
        if (!PyFloat_CheckExact(a) || !PyFloat_CheckExact(b))
            goto done;
        w[i] = PyFloat_AS_DOUBLE(a);
        x[i] = PyFloat_AS_DOUBLE(b);
        if (w[i] != w[i] || x[i] != x[i])
            goto done;              /* NaN: min() and comparisons differ */
        if (i == 0 || w[i] < min_w)
            min_w = w[i];
    }
    if (arb == ARB_WRR) {
        /* max_rounds = int(1.0 / min(self.weights)) + 2 */
        bound_d = 1.0 / min_w;
        if (!(bound_d < 1e15))
            goto done;
        loops = ((long long)bound_d + 2) * n + n;
        for (it = 0; it < loops; it++) {
            index = (Py_ssize_t)pos;
            if (eligible[index] && x[index] >= 1.0) {
                x[index] -= 1.0;
                changed[index] = 1;
                r = index;
                break;
            }
            pos = (index + 1) % n;
            if (pos == 0)
                for (i = 0; i < n; i++) {
                    x[i] += w[i];
                    changed[i] = 1;
                }
        }
    }
    else {
        /* costs = [head npages if eligible]; bound =
         * (int(max_cost / (quantum * min(weights))) + 2) * n + n */
        if ((v = GA(arbiter, quantum)) == NULL)
            goto error;
        c = 1;
        if (PyFloat_CheckExact(v))
            quantum = PyFloat_AS_DOUBLE(v);
        else if (PyLong_CheckExact(v)) {
            int overflow;
            long long q = PyLong_AsLongLongAndOverflow(v, &overflow);
            c = !overflow && q <= (1LL << 53) && q >= -(1LL << 53);
            quantum = (double)q;
        }
        else
            c = 0;
        Py_DECREF(v);
        if (!c)
            goto done;
        if ((v = GA(arbiter, _credited)) == NULL)
            goto error;
        c = v == Py_True || v == Py_False;
        credited = v == Py_True;
        Py_DECREF(v);
        if (!c)
            goto done;
        for (i = 0, c = 0; i < n; i++) {
            int got;
            if (!eligible[i])
                continue;
            if ((got = head_npages(PyList_GET_ITEM(queues, i), &cost)) <= 0) {
                if (got < 0)
                    goto error;
                goto done;
            }
            costs[i] = cost;
            if (!c++ || cost > max_cost)
                max_cost = cost;
        }
        bound_d = (double)max_cost / (quantum * min_w);
        if (!(fabs(bound_d) < 1e15))
            goto done;
        loops = ((long long)bound_d + 2) * n + n;
        for (it = 0; it < loops; it++) {
            index = (Py_ssize_t)pos;
            if (eligible[index]) {
                if (!credited) {
                    x[index] += quantum * w[index];
                    changed[index] = 1;
                    credited = 1;
                }
                if (x[index] >= (double)costs[index]) {
                    x[index] -= (double)costs[index];
                    changed[index] = 1;
                    r = index;
                    break;
                }
            }
            pos = (index + 1) % n;
            credited = 0;
        }
    }
    if (r < 0)
        goto done;                  /* no progress: Python raises */
    /* publish the scan position and the changed credits */
    if (sa_ll(arbiter, S__pos, pos) < 0
            || (arb == ARB_DRR
                && SA(arbiter, _credited, credited ? Py_True : Py_False) < 0))
        goto error;
    for (i = 0; i < n; i++) {
        if (changed[i]) {
            PyObject *f = PyFloat_FromDouble(x[i]);
            if (f == NULL || set_item(state, i, f) < 0) {
                Py_XDECREF(f);
                goto error;
            }
            Py_DECREF(f);
        }
    }
    goto done;
error:
    r = -1;
done:
    Py_XDECREF(weights);
    Py_XDECREF(state);
    PyMem_Free(w);
    PyMem_Free(costs);
    PyMem_Free(changed);
    return r;
}

/* ``self.arbiter.select(self.queues, eligible)``: natively, or the
 * stock Python method where arbiter_select defers to it.  The index, or
 * -1 on error (a None result raises, as the Python loop's assert). */
static Py_ssize_t
qos_select(PyObject *arbiter, int arb, PyObject *queues,
           const char *eligible, Py_ssize_t n)
{
    PyObject *flags, *res;
    Py_ssize_t i, index = arbiter_select(arbiter, arb, queues, eligible, n);

    if (index != -2)
        return index;
    if ((flags = PyList_New(n)) == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *b = eligible[i] ? Py_True : Py_False;
        Py_INCREF(b);
        PyList_SET_ITEM(flags, i, b);
    }
    CALLOUT(L_HOST);
    res = call_method2(arbiter, S_select, queues, flags);
    Py_DECREF(flags);
    if (res == NULL)
        return -1;
    if (res == Py_None) {
        Py_DECREF(res);
        PyErr_SetNone(PyExc_AssertionError);
        return -1;
    }
    index = PyNumber_AsSsize_t(res, PyExc_IndexError);
    Py_DECREF(res);
    if (index == -1 && PyErr_Occurred())
        return -1;
    if (index < 0 || index >= n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return index;
}

/* Arbiter.note_empty(index): DeficitRoundRobinArbiter's forfeits the
 * queue's deficit and moves the scan on; the base method does nothing */
static int
arbiter_note_empty(PyObject *arbiter, int arb, Py_ssize_t index)
{
    PyObject *v, *f;
    long long pos;
    Py_ssize_t n;
    int r;

    if (arb != ARB_DRR)
        return 0;
    /* self._deficit[index] = 0.0 */
    if ((v = GA(arbiter, _deficit)) == NULL)
        return -1;
    if ((f = PyFloat_FromDouble(0.0)) == NULL) {
        Py_DECREF(v);
        return -1;
    }
    r = set_item(v, index, f);
    Py_DECREF(f);
    Py_DECREF(v);
    if (r < 0 || ga_ll(arbiter, S__pos, &pos) < 0)
        return -1;
    if (pos != index)
        return 0;
    /* self._pos = (index + 1) % len(self.tenants); self._credited = False */
    if ((v = GA(arbiter, tenants)) == NULL)
        return -1;
    n = PyObject_Length(v);
    Py_DECREF(v);
    if (n <= 0) {
        if (n == 0)
            PyErr_SetString(PyExc_ZeroDivisionError,
                            "integer modulo by zero");
        return -1;
    }
    if (sa_ll(arbiter, S__pos, (index + 1) % n) < 0
            || SA(arbiter, _credited, Py_False) < 0)
        return -1;
    return 0;
}

/* AdmissionGate.note_complete: ``self.outstanding -= 1`` (the Python
 * method raises its RuntimeError for a completion without a dispatch) */
static int
gate_note_complete(PyObject *gate)
{
    PyObject *res;
    long long outstanding;
    if (ga_ll(gate, S_outstanding, &outstanding) < 0)
        return -1;
    if (outstanding > 0)
        return sa_ll(gate, S_outstanding, outstanding - 1);
    CALLOUT(L_HOST);
    if ((res = call_method0(gate, S_note_complete)) == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* MultiTenantHost._pump for a stock host (qos_stock): while the gate
 * admits, the arbiter picks an eligible queue, its head command is
 * popped and submitted to the controller.  A callout that drops the
 * cache makes the loop classify the host afresh; should it no longer be
 * stock, the Python method takes over where the loop stands. */
static int
qos_pump(Ctx *cx, PyObject *host)
{
    PyObject *v, *ctrl = NULL, *queues = NULL, *arbiter = NULL, *gate = NULL,
        *now = NULL, *queue = NULL, *command = NULL, *request = NULL,
        *et, *ev, *tb;
    char small[16], *eligible = small;
    Py_ssize_t i, n, index, depth, alloc = 16;
    int r = -1, c, any, arb;

    if ((v = GA(host, _pumping)) == NULL)
        return -1;
    c = truthy(v);
    Py_DECREF(v);
    if (c)
        return c < 0 ? -1 : 0;
    if (SA(host, _pumping, Py_True) < 0)
        return -1;
    ctrl = CX(cx, ctrl);
    for (;;) {
        if (cx->q_host != host) {
            /* the cache was dropped: classify the host afresh */
            if (NEED_CTRL(cx, ctrl) < 0 || (c = qos_stock(cx, host)) < 0)
                goto done;
            if (!c) {
                PyObject *res;
                if (SA(host, _pumping, Py_False) < 0)
                    goto done;
                CALLOUT(L_HOST);
                res = call_method0(host, S__pump);
                ctx_flush_after(cx, L_HOST);
                if (res == NULL)
                    goto out;
                Py_DECREF(res);
                r = 0;
                goto out;
            }
        }
        if (queues != cx->q_queues) {
            Py_XSETREF(queues, CX(cx, q_queues));
            Py_XSETREF(arbiter, CX(cx, q_arbiter));
            Py_XSETREF(gate, CX(cx, q_gate));
        }
        arb = cx->q_arb;
        if ((c = gate_can_admit(cx, gate, ctrl)) <= 0) {
            r = c;
            goto done;
        }
        if (NEED_CTRL(cx, ctrl) < 0 || (now = ctx_now(cx)) == NULL)
            goto done;
        n = PyList_GET_SIZE(queues);
        if (n > alloc) {
            if (eligible != small)
                PyMem_Free(eligible);
            if ((eligible = PyMem_Malloc(n)) == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            alloc = n;
        }
        any = 0;
        for (i = 0; i < n; i++) {
            if ((depth = queue_depth(PyList_GET_ITEM(queues, i))) < 0)
                goto done;
            eligible[i] = depth > 0;
            any |= eligible[i];
        }
        if (!any) {
            r = 0;
            goto done;
        }
        if ((index = qos_select(arbiter, arb, queues, eligible, n)) < 0)
            goto done;
        queue = PyList_GET_ITEM(queues, index);
        Py_INCREF(queue);
        if ((command = queue_pop(queue, now)) == NULL
                || (depth = queue_depth(queue)) < 0
                || (depth == 0 && arbiter_note_empty(arbiter, arb, index) < 0)
                || attr_add(gate, S_outstanding, 1) < 0  /* note_dispatch */
                || attr_add(host, S__issued, 1) < 0
                || (request = slot_get(command, T_QueuedCommand, QC_request,
                                       S_request)) == NULL
                || controller_submit(cx, ctrl, request) < 0)
            goto done;
        Py_CLEAR(queue);
        Py_CLEAR(command);
        Py_CLEAR(request);
        Py_CLEAR(now);
    }
done:
    /* finally: self._pumping = False */
    PyErr_Fetch(&et, &ev, &tb);
    if (SA(host, _pumping, Py_False) < 0) {
        Py_XDECREF(et);
        Py_XDECREF(ev);
        Py_XDECREF(tb);
        r = -1;
    }
    else
        PyErr_Restore(et, ev, tb);
out:
    if (eligible != small)
        PyMem_Free(eligible);
    Py_XDECREF(ctrl);
    Py_XDECREF(queues);
    Py_XDECREF(arbiter);
    Py_XDECREF(gate);
    Py_XDECREF(now);
    Py_XDECREF(queue);
    Py_XDECREF(command);
    Py_XDECREF(request);
    return r;
}

/* MultiTenantHost._enqueue(t_index, s_index) for a stock host: the
 * stream's next op as a Request carrying a TenantCompletion, pushed on
 * the tenant's queue, then _pump */
static int
qos_enqueue(Ctx *cx, PyObject *host, PyObject *t, PyObject *s)
{
    PyObject *spec = NULL, *v = NULL, *stream = NULL, *row = NULL,
        *pos = NULL, *op = NULL, *now = NULL, *kind = NULL, *lpn = NULL,
        *npages = NULL, *name = NULL, *request = NULL, *think = NULL,
        *completion = NULL, *queue = NULL, *seq = NULL, *next = NULL;
    int r = -1;

    /* op = spec.streams[s_index][self._cursor[t_index][s_index]] */
    if ((spec = PyObject_GetItem(cx->q_tenants, t)) == NULL
            || (queue = PyObject_GetItem(cx->q_queues, t)) == NULL
            || (v = GA(spec, streams)) == NULL
            || (stream = PyObject_GetItem(v, s)) == NULL
            || (row = PyObject_GetItem(cx->q_cursor, t)) == NULL
            || (pos = PyObject_GetItem(row, s)) == NULL
            || (op = PyObject_GetItem(stream, pos)) == NULL
            || (now = ctx_now(cx)) == NULL)
        goto done;
    /* request = Request(now, op.kind, op.lpn, op.npages, tenant=spec.name)
     * request.on_complete = TenantCompletion(self, t_index, s_index,
     *                                        op.think_after) */
    if ((kind = GA(op, kind)) == NULL || (lpn = GA(op, lpn)) == NULL
            || (npages = GA(op, npages)) == NULL
            || (name = GA(spec, name)) == NULL
            || (request = new_request(now, kind, lpn, npages, name)) == NULL
            || (think = GA(op, think_after)) == NULL
            || (completion = T_TenantCompletion->tp_alloc(T_TenantCompletion,
                                                          0)) == NULL)
        goto done;
    Py_INCREF(host);
    SLOT(completion, TC_host) = host;
    Py_INCREF(t);
    SLOT(completion, TC_tenant) = t;
    Py_INCREF(s);
    SLOT(completion, TC_stream) = s;
    Py_INCREF(think);
    SLOT(completion, TC_think) = think;
    /* self.queues[t_index].push(request, self._seq, now); self._seq += 1 */
    if (RQ_SET(request, on_complete, completion) < 0
            || (seq = GA(host, _seq)) == NULL
            || queue_push(queue, request, seq, now) < 0
            || (next = PyNumber_Add(seq, ONE)) == NULL
            || SA(host, _seq, next) < 0)
        goto done;
    r = qos_pump(cx, host);
done:
    Py_XDECREF(spec);
    Py_XDECREF(v);
    Py_XDECREF(stream);
    Py_XDECREF(row);
    Py_XDECREF(pos);
    Py_XDECREF(op);
    Py_XDECREF(now);
    Py_XDECREF(kind);
    Py_XDECREF(lpn);
    Py_XDECREF(npages);
    Py_XDECREF(name);
    Py_XDECREF(request);
    Py_XDECREF(think);
    Py_XDECREF(completion);
    Py_XDECREF(queue);
    Py_XDECREF(seq);
    Py_XDECREF(next);
    return r;
}

/* MultiTenantHost._on_done(t_index, s_index, think), reached through a
 * TenantCompletion: the gate's completion, the stream's next enqueue
 * scheduled after its think time, then _pump.  ``host`` was found
 * stock by the caller. */
static int
qos_on_done(Ctx *cx, PyObject *host, PyObject *t, PyObject *s,
            PyObject *think)
{
    PyObject *row = NULL, *v = NULL, *nv = NULL, *spec = NULL,
        *streams = NULL, *stream = NULL, *fn = NULL, *args = NULL;
    Py_ssize_t len;
    int r = -1, c;

    if (gate_note_complete(cx->q_gate) < 0)
        return -1;
    /* cursor = self._cursor[t_index]; cursor[s_index] += 1 */
    if ((row = PyObject_GetItem(cx->q_cursor, t)) == NULL
            || (v = PyObject_GetItem(row, s)) == NULL
            || (nv = PyNumber_InPlaceAdd(v, ONE)) == NULL
            || PyObject_SetItem(row, s, nv) < 0)
        goto done;
    Py_CLEAR(v);
    Py_CLEAR(nv);
    /* if cursor[s_index] < len(self.tenants[t_index].streams[s_index]):
     *     self.sim.schedule(think, self._enqueue, t_index, s_index) */
    if ((v = PyObject_GetItem(row, s)) == NULL
            || (spec = PyObject_GetItem(cx->q_tenants, t)) == NULL
            || (streams = GA(spec, streams)) == NULL
            || (stream = PyObject_GetItem(streams, s)) == NULL
            || (len = PyObject_Length(stream)) < 0
            || (nv = PyLong_FromSsize_t(len)) == NULL
            || (c = PyObject_RichCompareBool(v, nv, Py_LT)) < 0)
        goto done;
    if (c && ((fn = GA(host, _enqueue)) == NULL
              || (args = PyTuple_Pack(2, t, s)) == NULL
              || kernel_schedule(cx, think, fn, args) < 0))
        goto done;
    r = qos_pump(cx, host);
done:
    Py_XDECREF(row);
    Py_XDECREF(v);
    Py_XDECREF(nv);
    Py_XDECREF(spec);
    Py_XDECREF(streams);
    Py_XDECREF(stream);
    Py_XDECREF(fn);
    Py_XDECREF(args);
    return r;
}

/* MultiTenantHost._wake: ``self._wake_at = None; self._pump()`` */
static int
qos_wake(Ctx *cx, PyObject *host)
{
    if (SA(host, _wake_at, Py_None) < 0)
        return -1;
    return qos_pump(cx, host);
}

/* ------------------------------------------------------------------ */
/* the FTL write path                                                 */

#define NEED_FTL(cx, ftl) ctx_ftl((cx), (ftl))

/* ``mapping.map_write(lpn, ppn)`` with MappingTable.map_write
 * open-coded (error paths delegate so the exact exception is raised). */
static int
mapping_map_write(Ctx *cx, PyObject *mapping, PyObject *lpn, long long ppn)
{
    PyObject *ppn_obj, *res;
    long long l, cur = 0, old, ppb;

    if (Py_TYPE(mapping) == T_Mapping && PyLong_CheckExact(lpn)) {
        if (ctx_mapping(cx, mapping) < 0 || as_ll(lpn, &l) < 0)
            return -1;
        if (0 <= l && l < cx->logical
                && item_ll(cx->p2l, (Py_ssize_t)ppn, &cur) < 0)
            return -1;
        if (0 <= l && l < cx->logical && cur < 0) {
            ppb = cx->m_ppb;
            if (item_ll(cx->l2p, (Py_ssize_t)l, &old) < 0)
                return -1;
            if (old >= 0) {
                if (set_item_ll(cx->p2l, (Py_ssize_t)old, -1) < 0
                        || item_add(cx->valid, (Py_ssize_t)(old / ppb), -1) < 0
                        || attr_add(mapping, S__mapped, -1) < 0)
                    return -1;
            }
            if (set_item_ll(cx->l2p, (Py_ssize_t)l, ppn) < 0
                    || set_item(cx->p2l, (Py_ssize_t)ppn, lpn) < 0
                    || item_add(cx->valid, (Py_ssize_t)(ppn / ppb), 1) < 0
                    || attr_add(mapping, S__mapped, 1) < 0)
                return -1;
            return 0;
        }
    }
    /* another mapping class, or the error path (which raises) */
    if ((ppn_obj = PyLong_FromLongLong(ppn)) == NULL)
        return -1;
    CALLOUT(L_FTL);
    res = call_method2(mapping, S_map_write, lpn, ppn_obj);
    Py_DECREF(ppn_obj);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* BaseFtl._note_block_write(gb): ``self._write_clock += 1;
 * self._block_write_stamp[gb] = self._write_clock`` (an override is
 * called) */
static int
note_block_write(Ctx *cx, PyObject *ftl, long long gb)
{
    long long clock;
    if (NEED_FTL(cx, ftl) < 0)
        return -1;
    if (!cx->nbw_stock) {
        PyObject *v = PyLong_FromLongLong(gb), *res;
        if (v == NULL)
            return -1;
        CALLOUT(L_FTL);
        res = call_method1(ftl, S__note_block_write, v);
        Py_DECREF(v);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    if (ga_ll(ftl, S__write_clock, &clock) < 0
            || sa_ll(ftl, S__write_clock, clock + 1) < 0)
        return -1;
    return set_item_ll(cx->stamps, (Py_ssize_t)gb, clock + 1);
}

/* quota.value += delta (saturating at quota.cap when ``saturate``) */
static int
quota_add(Ctx *cx, long long delta, int saturate)
{
    long long value, cap;
    if (ga_ll(cx->quota, S_value, &value) < 0)
        return -1;
    if (saturate) {
        if (ga_ll(cx->quota, S_cap, &cap) < 0)
            return -1;
        if (!(value < cap))
            return 0;
    }
    return sa_ll(cx->quota, S_value, value + delta);
}

/* Address of page ``page`` of ``block`` on the chip, built from
 * ``channel, chip = self._coords[chip_id]`` (new reference) */
static PyObject *
chip_page_address(Ctx *cx, long long cid, PyObject *block, long long page)
{
    PyObject *pair, *seq, *page_obj, *addr;
    if ((pair = item_at(cx->coords, (Py_ssize_t)cid)) == NULL)
        return NULL;
    seq = PySequence_Fast(pair, "cannot unpack non-iterable");
    Py_DECREF(pair);
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != 2) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "expected 2 values to unpack");
        return NULL;
    }
    page_obj = PyLong_FromLongLong(page);
    addr = page_obj == NULL ? NULL
        : new_ppa(PySequence_Fast_GET_ITEM(seq, 0),
                  PySequence_Fast_GET_ITEM(seq, 1), block, page_obj);
    Py_DECREF(seq);
    Py_XDECREF(page_obj);
    return addr;
}

/* FlexFtl._take_msb: TwoPhaseBlockManager.take_msb,
 * QuotaTracker.note_msb_write, BaseFtl._page_address and, on the last
 * MSB page, _mark_block_full.  1 with *addr set (new reference), 0
 * when the SBQueue is empty. */
static int
flex_take_msb(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
              PyObject **addr)
{
    PyObject *manager = NULL, *sbqueue = NULL, *cursor = NULL, *block = NULL,
        *res;
    long long wordline, wordlines;
    int r = -1, c, full;

    *addr = NULL;
    if (NEED_FTL(cx, ftl) < 0
            || (manager = item_at(cx->managers, (Py_ssize_t)cid)) == NULL
            || (sbqueue = GA(manager, _sbqueue)) == NULL)
        goto done;
    if ((c = truthy(sbqueue)) <= 0) {
        r = c;
        goto done;
    }
    if ((cursor = PySequence_GetItem(sbqueue, 0)) == NULL
            || ga_ll(cursor, S__next, &wordline) < 0
            || sa_ll(cursor, S__next, wordline + 1) < 0
            || (block = GA(cursor, block)) == NULL
            || ga_ll(manager, S_wordlines, &wordlines) < 0)
        goto done;
    full = wordline + 1 >= wordlines;
    if (full) {
        if ((res = call_method0(sbqueue, S_popleft)) == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (quota_add(cx, 1, 1) < 0
            || (*addr = chip_page_address(cx, cid, block,
                                          2 * wordline + 1)) == NULL)
        goto done;
    if (full) {
        /* block fully written: GC-eligible, parity page now dead */
        CALLOUT(L_FTL);
        if ((res = call_method2(ftl, S__mark_block_full, chip, block)) == NULL) {
            Py_CLEAR(*addr);
            goto done;
        }
        Py_DECREF(res);
    }
    r = 1;
done:
    Py_XDECREF(manager);
    Py_XDECREF(sbqueue);
    Py_XDECREF(cursor);
    Py_XDECREF(block);
    return r;
}

/* ``a, b = pair`` (new references) */
static int
unpack2(PyObject *pair, PyObject **a, PyObject **b)
{
    PyObject *seq = PySequence_Fast(pair, "cannot unpack non-iterable");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != 2) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "expected 2 values to unpack");
        return -1;
    }
    *a = PySequence_Fast_GET_ITEM(seq, 0);
    *b = PySequence_Fast_GET_ITEM(seq, 1);
    Py_INCREF(*a);
    Py_INCREF(*b);
    Py_DECREF(seq);
    return 0;
}

/* NandGeometry.ppn(addr) on the FTL's geometry: the validated flat page
 * number, or the Python method (which raises for an address outside
 * the device, or runs a geometry of another class).  0 or -1. */
static int
geometry_ppn(Ctx *cx, PyObject *addr, long long *ppn)
{
    PyObject *res;
    long long f[4];
    int i, c;

    if (cx->fg_chips >= 0 && Py_TYPE(addr) == T_PPA
            && PyTuple_GET_SIZE(addr) == 4) {
        for (i = 0; i < 4; i++) {
            PyObject *v = PyTuple_GET_ITEM(addr, i);
            int overflow;
            if (!PyLong_CheckExact(v))
                break;
            f[i] = PyLong_AsLongLongAndOverflow(v, &overflow);
            if (overflow)
                break;
        }
        if (i == 4 && 0 <= f[0] && f[0] < cx->fg_channels && 0 <= f[1]
                && f[1] < cx->fg_cpc && 0 <= f[2] && f[2] < cx->fg_bpc
                && 0 <= f[3] && f[3] < cx->fg_ppb) {
            *ppn = ((f[0] * cx->fg_cpc + f[1]) * cx->fg_bpc + f[2]) * cx->fg_ppb
                + f[3];
            return 0;
        }
    }
    CALLOUT(L_NAND);
    if ((res = call_method1(cx->fgeometry, S_ppn, addr)) == NULL)
        return -1;
    c = as_ll(res, ppn);
    Py_DECREF(res);
    return c;
}

/* ``self._enqueue_parity_backup(chip_id,
 *                                owner=self.mapping.global_block_of(chip_id, block))`` */
static int
enqueue_parity(Ctx *cx, PyObject *ftl, PyObject *chip, PyObject *block)
{
    PyObject *owner, *res;
    if (NEED_FTL(cx, ftl) < 0)
        return -1;
    CALLOUT(L_FTL);
    owner = call_method2(cx->mapping, S_global_block_of, chip, block);
    if (owner == NULL)
        return -1;
    CALLOUT(L_FTL);
    res = call_method2(ftl, S__enqueue_parity_backup, chip, owner);
    Py_DECREF(owner);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ``if self._trace is not None:
 *     self._trace.event("2po.lsb_complete", chip=chip_id, block=block)`` */
static int
lsb_complete_event(PyObject *ftl, PyObject *chip, PyObject *block)
{
    PyObject *trace = GA(ftl, _trace), *res;
    if (trace == NULL)
        return -1;
    if (trace != Py_None) {
        PyObject *args[4] = {trace, EV_LSB_COMPLETE, chip, block};
        CALLOUT(L_TRACER);
        res = PyObject_VectorcallMethod(
            S_event, args, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET,
            KW_LSB_COMPLETE);
        if (res == NULL) {
            Py_DECREF(trace);
            return -1;
        }
        Py_DECREF(res);
    }
    Py_DECREF(trace);
    return 0;
}

/* FlexFtl._take_lsb with an installed fast block (``fast``, the
 * manager's _fast): the fast block's next LSB page, with the SBQueue
 * hand-over and parity enqueue of its last page.  *addr receives the
 * address (new reference) and *ppn its page number; 0, or -1 on error. */
static int
flex_take_fast_lsb(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
                   PyObject *manager, PyObject *fast, PyObject **addr,
                   long long *ppn)
{
    PyObject *block = NULL, *sbqueue = NULL, *res;
    long long wordline, wordlines, blk;
    int r = -1;

    *addr = NULL;
    if (ga_ll(manager, S_wordlines, &wordlines) < 0
            || ga_ll(fast, S__next, &wordline) < 0
            || sa_ll(fast, S__next, wordline + 1) < 0
            || (block = GA(fast, block)) == NULL
            || quota_add(cx, -1, 0) < 0)
        goto done;
    if (wordline + 1 >= wordlines) {
        /* last LSB page: the block joins the SBQueue and its parity
         * page is persisted */
        PyObject *wl = PyLong_FromLongLong(wordlines), *cursor;
        if (wl == NULL)
            goto done;
        cursor = PyObject_CallFunctionObjArgs(C_PhaseCursor, block, wl,
                                              P_MSB, NULL);
        Py_DECREF(wl);
        if (cursor == NULL || (sbqueue = GA(manager, _sbqueue)) == NULL) {
            Py_XDECREF(cursor);
            goto done;
        }
        res = call_method1(sbqueue, S_append, cursor);
        Py_DECREF(cursor);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
        if (SA(manager, _fast, Py_None) < 0
                || lsb_complete_event(ftl, chip, block) < 0
                || enqueue_parity(cx, ftl, chip, block) < 0)
            goto done;
    }
    else if (cx->interval > 0 && (wordline + 1) % cx->interval == 0
             && enqueue_parity(cx, ftl, chip, block) < 0)
        goto done;
    if (NEED_FTL(cx, ftl) < 0
            || (*addr = chip_page_address(cx, cid, block, 2 * wordline))
               == NULL
            || as_ll(block, &blk) < 0)
        goto done;
    *ppn = cid * cx->f_ppc + blk * cx->f_ppb + 2 * wordline;
    r = 0;
done:
    if (r < 0)
        Py_CLEAR(*addr);
    Py_XDECREF(block);
    Py_XDECREF(sbqueue);
    return r;
}

/* FlexFtl._allocate_gc_page: _take_msb, else _take_lsb(chip_id,
 * for_gc=True), the installed fast block's page natively and the Python
 * method to install one.  1 with *addr and *ptype set (new references),
 * 0 when there is no room, -1 on error. */
static int
flex_allocate_gc(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
                 PyObject **addr, PyObject **ptype)
{
    PyObject *manager = NULL, *fast = NULL, *target;
    long long ppn;
    int r = -1, c;

    if ((c = flex_take_msb(cx, ftl, chip, cid, addr)) != 0) {
        if (c > 0) {
            Py_INCREF(P_MSB);
            *ptype = P_MSB;
        }
        return c;
    }
    if ((manager = item_at(cx->managers, (Py_ssize_t)cid)) == NULL
            || (fast = GA(manager, _fast)) == NULL)
        goto done;
    if (fast != Py_None) {
        if (flex_take_fast_lsb(cx, ftl, chip, cid, manager, fast, addr,
                               &ppn) < 0)
            goto done;
        Py_INCREF(P_LSB);
        *ptype = P_LSB;
        r = 1;
        goto done;
    }
    /* no fast block: _take_lsb installs one (or finds no room) */
    CALLOUT(L_FTL);
    if ((target = call_method2(ftl, S__take_lsb, chip, Py_True)) == NULL)
        goto done;
    r = target == Py_None ? 0 : unpack2(target, addr, ptype) < 0 ? -1 : 1;
    Py_DECREF(target);
done:
    Py_XDECREF(manager);
    Py_XDECREF(fast);
    return r;
}

/* ``policy.decisions[choice] += 1`` */
static int
count_decision(Ctx *cx, PyObject *choice)
{
    PyObject *v = PyObject_GetItem(cx->decisions, choice), *nv;
    int r;
    if (v == NULL)
        return -1;
    nv = PyNumber_Add(v, ONE);
    Py_DECREF(v);
    if (nv == NULL)
        return -1;
    r = PyObject_SetItem(cx->decisions, choice, nv);
    Py_DECREF(nv);
    return r;
}

/* PolicyManager.choose with both page types available, as
 * FlexFtl._allocate_host_page calls it; borrowed reference or NULL. */
static PyObject *
flex_choose(Ctx *cx, PyObject *buffer)
{
    PyObject *v, *choice;
    long long live, capacity, q;
    double utilization;

    if (ga_ll(buffer, S__live, &live) < 0
            || ga_ll(buffer, S_capacity, &capacity) < 0)
        return NULL;
    utilization = (double)live / (double)capacity;
    if (utilization > cx->u_high) {
        if (ga_ll(cx->quota, S_value, &q) < 0)
            return NULL;
        if (q > 0)
            return P_LSB;
    }
    else if (utilization < cx->u_low)
        return P_MSB;
    /* the alternating choice */
    if ((v = GA(cx->policy, _next_alternate)) == NULL)
        return NULL;
    choice = v == P_LSB ? P_LSB : v == P_MSB ? P_MSB : NULL;
    Py_DECREF(v);
    if (choice == NULL) {
        PyErr_SetString(PyExc_TypeError, "native core: unexpected page type");
        return NULL;
    }
    if (SA(cx->policy, _next_alternate, choice == P_LSB ? P_MSB : P_LSB) < 0)
        return NULL;
    return choice;
}

/* FlexFtl._allocate_host_page: _lsb_available, PolicyManager.choose,
 * then _take_lsb (the installed fast block's page natively, the Python
 * method to install one) or _take_msb.  1/0/-1 as flex_allocate_gc. */
static int
flex_allocate_host(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
                   PyObject **addr, PyObject **ptype)
{
    PyObject *manager = NULL, *fast = NULL, *sbqueue = NULL, *state = NULL,
        *v = NULL, *choice, *alloc = NULL;
    long long wordlines, fnext = 0, free_n, ppn;
    int r = -1, c, lsb_available, msb_available;

    if ((manager = item_at(cx->managers, (Py_ssize_t)cid)) == NULL
            || (fast = GA(manager, _fast)) == NULL
            || (sbqueue = GA(manager, _sbqueue)) == NULL
            || ga_ll(manager, S_wordlines, &wordlines) < 0)
        goto done;
    if (fast != Py_None && ga_ll(fast, S__next, &fnext) < 0)
        goto done;
    if (fast != Py_None && fnext < wordlines)
        lsb_available = 1;
    else {
        if ((state = item_at(cx->chips, (Py_ssize_t)cid)) == NULL
                || (v = GA(state, free_blocks)) == NULL
                || (free_n = PyObject_Length(v)) < 0)
            goto done;
        lsb_available = free_n > cx->reserve;
    }
    if ((msb_available = truthy(sbqueue)) < 0)
        goto done;
    if (!lsb_available && !msb_available) {
        r = 0;
        goto done;
    }
    if (!msb_available)
        choice = P_LSB;
    else if (!lsb_available)
        choice = P_MSB;
    else if ((choice = flex_choose(cx, cx->fbuffer)) == NULL)
        goto done;
    if (count_decision(cx, choice) < 0)
        goto done;
    if (choice == P_LSB && fast != Py_None) {
        /* _take_lsb with an installed fast block */
        if (flex_take_fast_lsb(cx, ftl, chip, cid, manager, fast, addr,
                               &ppn) < 0)
            goto done;
        Py_INCREF(P_LSB);
        *ptype = P_LSB;
        r = 1;
    }
    else if (choice == P_LSB) {
        /* no fast block: _take_lsb installs one, else _take_msb when
         * the manager has a slow block */
        CALLOUT(L_FTL);
        if ((alloc = call_method2(ftl, S__take_lsb, chip, Py_False)) == NULL)
            goto done;
        if (alloc != Py_None)
            r = unpack2(alloc, addr, ptype) < 0 ? -1 : 1;
        else if (!msb_available)
            r = 0;
        else if ((r = flex_take_msb(cx, ftl, chip, cid, addr)) > 0) {
            Py_INCREF(P_MSB);
            *ptype = P_MSB;
        }
    }
    else {
        /* _take_msb (the choice implies a non-empty SBQueue) */
        if ((c = flex_take_msb(cx, ftl, chip, cid, addr)) < 0)
            goto done;
        if (c == 0) {
            PyErr_SetString(PyExc_IndexError, "deque index out of range");
            goto done;
        }
        Py_INCREF(P_MSB);
        *ptype = P_MSB;
        r = 1;
    }
done:
    Py_XDECREF(manager);
    Py_XDECREF(fast);
    Py_XDECREF(sbqueue);
    Py_XDECREF(state);
    Py_XDECREF(v);
    Py_XDECREF(alloc);
    return r;
}

/* PageFtl._allocate(chip_id, for_gc), which pageFTL and parityFTL use
 * for both allocations: the active FpsCursor's next page (FpsCursor.take
 * -> split_index -> BaseFtl._page_address) natively.  The Python method
 * runs to install a cursor (_take_free_block) and to take a block's last
 * page (_mark_block_full).  1/0/-1 as flex_allocate_gc. */
static int
fps_allocate(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
             int for_gc, PyObject **addr, PyObject **ptype)
{
    PyObject *cursor, *order = NULL, *block = NULL, *f[3] = {NULL}, *res;
    long long pos, index, channel;
    int r = -1, i;

    if ((cursor = item_at(cx->active, (Py_ssize_t)cid)) == NULL)
        return -1;
    if (Py_TYPE(cursor) != T_FpsCursor)
        goto python;
    if ((order = GA(cursor, _order)) == NULL || ga_ll(cursor, S__pos, &pos) < 0)
        goto done;
    /* index = self._order[self._pos]; self._pos += 1 (the last page and
     * an exhausted cursor run in Python) */
    if (!PyList_CheckExact(order) || pos < 0
            || pos + 1 >= PyList_GET_SIZE(order))
        goto python;
    if (as_ll(PyList_GET_ITEM(order, (Py_ssize_t)pos), &index) < 0)
        goto done;
    if (index < 0)
        goto python;                /* split_index raises */
    if (sa_ll(cursor, S__pos, pos + 1) < 0
            || (block = GA(cursor, block)) == NULL)
        goto done;
    /* channel, chip = divmod(chip_id, self._cpc);
     * PhysicalPageAddress(channel, chip, block, 2 * wordline + ptype) */
    channel = cid / cx->f_cpc;
    if ((f[0] = PyLong_FromLongLong(channel)) == NULL
            || (f[1] = PyLong_FromLongLong(cid - channel * cx->f_cpc)) == NULL
            || (f[2] = PyLong_FromLongLong(index)) == NULL
            || (*addr = new_ppa(f[0], f[1], block, f[2])) == NULL)
        goto done;
    *ptype = index & 1 ? P_MSB : P_LSB;
    Py_INCREF(*ptype);
    r = 1;
    goto done;
python:
    CALLOUT(L_FTL);
    if ((res = call_method2(ftl, S__allocate, chip,
                            for_gc ? Py_True : Py_False)) == NULL)
        goto done;
    r = res == Py_None ? 0 : unpack2(res, addr, ptype) < 0 ? -1 : 1;
    Py_DECREF(res);
done:
    Py_DECREF(cursor);
    Py_XDECREF(order);
    Py_XDECREF(block);
    for (i = 0; i < 3; i++)
        Py_XDECREF(f[i]);
    return r;
}

/* The FTL's page allocation: ``_allocate_host_page(chip_id, now)``, or
 * ``_allocate_gc_page(chip_id)`` when ``gc``.  flexFTL's and
 * PageFtl._allocate's run natively; any other allocator is called (a
 * device-internal call: the cache stands).  1 with *addr and *ptype set
 * (new references), 0 when it returned None, -1 on error. */
static int
ftl_allocate(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
             PyObject *now, int gc, PyObject **addr, PyObject **ptype)
{
    PyObject *res;
    int r;

    *addr = *ptype = NULL;
    if (cx->alloc == ALLOC_FLEX)
        r = gc ? flex_allocate_gc(cx, ftl, chip, cid, addr, ptype)
            : flex_allocate_host(cx, ftl, chip, cid, addr, ptype);
    else if (cx->alloc == ALLOC_FPS)
        r = fps_allocate(cx, ftl, chip, cid, gc, addr, ptype);
    else {
        CALLOUT(L_FTL);
        res = gc ? call_method1(ftl, S__allocate_gc_page, chip)
            : call_method2(ftl, S__allocate_host_page, chip, now);
        if (res == NULL)
            return -1;
        r = res == Py_None ? 0 : unpack2(res, addr, ptype) < 0 ? -1 : 1;
        Py_DECREF(res);
    }
    if (r <= 0) {
        Py_CLEAR(*addr);
        Py_CLEAR(*ptype);
    }
    return r;
}

/* ``self.mapping.note_block_erased(gb)``: nothing to do while the block
 * holds no valid page (the Python method raises otherwise, and runs for
 * another mapping class) */
static int
note_block_erased(Ctx *cx, PyObject *mapping, PyObject *gb)
{
    PyObject *res;
    long long g, valid;
    int c;

    if (Py_TYPE(mapping) == T_Mapping && PyLong_CheckExact(gb)) {
        if ((c = bound_to(mapping, S_note_block_erased,
                          F_note_block_erased)) < 0
                || ctx_mapping(cx, mapping) < 0 || as_ll(gb, &g) < 0)
            return -1;
        if (c && PyList_CheckExact(cx->valid) && 0 <= g
                && g < PyList_GET_SIZE(cx->valid)) {
            if (item_ll(cx->valid, (Py_ssize_t)g, &valid) < 0)
                return -1;
            if (valid == 0)
                return 0;
        }
    }
    CALLOUT(L_FTL);
    if ((res = call_method1(mapping, S_note_block_erased, gb)) == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The erase step of BaseFtl._gc_step, the victim drained:
 *
 *     state.gc = None
 *     self.mapping.note_block_erased(job.victim_gb)
 *     state.free_blocks.append(job.victim_block)
 *     if self._after_gc_complete is not None: hook(chip_id, job)
 *     return FlashOp(ERASE, PhysicalPageAddress(
 *         *self.geometry.chip_coords(chip_id), job.victim_block, 0), "gc")
 *
 * The hook is device-internal: the cache stands. */
static PyObject *
gc_erase_step(Ctx *cx, PyObject *ftl, PyObject *state, PyObject *job,
              PyObject *chip, long long cid)
{
    PyObject *gb = NULL, *block = NULL, *v = NULL, *res, *channel = NULL,
        *chip_no = NULL, *addr = NULL, *out = NULL;
    long long ch;

    if (SA(state, gc, Py_None) < 0 || (gb = GA(job, victim_gb)) == NULL
            || note_block_erased(cx, cx->mapping, gb) < 0
            || (block = GA(job, victim_block)) == NULL
            || (v = GA(state, free_blocks)) == NULL
            || (res = call_method1(v, S_append, block)) == NULL)
        goto done;
    Py_DECREF(res);
    Py_CLEAR(v);
    if ((v = GA(ftl, _after_gc_complete)) == NULL)
        goto done;
    if (v != Py_None) {
        CALLOUT(L_FTL);
        if ((res = PyObject_CallFunctionObjArgs(v, chip, job, NULL)) == NULL)
            goto done;
        Py_DECREF(res);
    }
    if (cx->fg_chips >= 0 && 0 <= cid && cid < cx->fg_chips) {
        ch = cid / cx->fg_cpc;
        if ((channel = PyLong_FromLongLong(ch)) == NULL
                || (chip_no = PyLong_FromLongLong(cid - ch * cx->fg_cpc))
                   == NULL)
            goto done;
    }
    else {
        /* another geometry class, or out of range (which raises) */
        CALLOUT(L_NAND);
        if ((res = call_method1(cx->fgeometry, S_chip_coords, chip)) == NULL)
            goto done;
        if (unpack2(res, &channel, &chip_no) < 0) {
            Py_DECREF(res);
            goto done;
        }
        Py_DECREF(res);
    }
    if ((addr = new_ppa(channel, chip_no, block, ZERO)) == NULL)
        goto done;
    out = new_op(K_ERASE, addr, S_gc, Py_None, Py_None);
done:
    Py_XDECREF(gb);
    Py_XDECREF(block);
    Py_XDECREF(v);
    Py_XDECREF(channel);
    Py_XDECREF(chip_no);
    Py_XDECREF(addr);
    return out;
}

/* BaseFtl._gc_step: one relocation (the GC read, with the program of the
 * relocated page queued behind it) through ftl_allocate, or the victim's
 * erase once it is drained.  An override is called. */
static PyObject *
ftl_gc_step(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid)
{
    PyObject *state = NULL, *job = NULL, *lpns = NULL, *lpn = NULL,
        *mapping = NULL, *ppn = NULL, *taddr = NULL, *tptype = NULL,
        *saddr = NULL, *hook = NULL, *pending = NULL, *op = NULL,
        *res = NULL, *out = NULL;
    long long p = 0, ppb, victim_gb = 0, tppn;
    int c;

    if (NEED_FTL(cx, ftl) < 0)
        return NULL;
    if (!cx->gs_stock) {
        CALLOUT(L_FTL);
        out = call_method1(ftl, S__gc_step, chip);
        ctx_flush_after(cx, L_FTL);
        return out;
    }
    if ((state = item_at(cx->chips, (Py_ssize_t)cid)) == NULL
            || (job = GA(state, gc)) == NULL)
        goto done;
    if (job == Py_None) {
        Py_INCREF(Py_None);
        out = Py_None;
        goto done;
    }
    ppb = cx->f_ppb;
    mapping = CX(cx, mapping);
    if ((lpns = GA(job, valid_lpns)) == NULL)
        goto done;
    for (;;) {
        if ((c = truthy(lpns)) < 0)
            goto done;
        if (!c)
            break;
        if ((lpn = call_method0(lpns, S_popleft)) == NULL
                || (ppn = mapping_lookup(cx, mapping, lpn)) == NULL)
            goto done;
        if (ppn != Py_None) {
            if (as_ll(ppn, &p) < 0
                    || ga_ll(job, S_victim_gb, &victim_gb) < 0)
                goto done;
        }
        if (ppn == Py_None || p / ppb != victim_gb) {
            /* superseded by a newer host write meanwhile */
            Py_CLEAR(lpn);
            Py_CLEAR(ppn);
            continue;
        }
        if ((c = ftl_allocate(cx, ftl, chip, cid, NULL, 1, &taddr,
                              &tptype)) < 0)
            goto done;
        if (c == 0) {
            /* no room to relocate: abandon for now, retry later */
            if ((res = call_method1(lpns, S_appendleft, lpn)) == NULL)
                goto done;
            Py_INCREF(Py_None);
            out = Py_None;
            goto done;
        }
        if (NEED_FTL(cx, ftl) < 0
                || (saddr = geometry_address_of(cx, cx->fgeometry, ppn))
                   == NULL
                || geometry_ppn(cx, taddr, &tppn) < 0
                || mapping_map_write(cx, mapping, lpn, tppn) < 0
                || note_block_write(cx, ftl, tppn / ppb) < 0
                || attr_add(ftl, S_gc_programs, 1) < 0
                || attr_add(job, S_copied, 1) < 0)
            goto done;
        if ((hook = GA(ftl, _after_gc_program)) == NULL)
            goto done;
        if (hook != Py_None) {
            /* an FTL hook: device-internal, so the cache stands */
            CALLOUT(L_FTL);
            res = PyObject_CallFunctionObjArgs(hook, chip, taddr, tptype, NULL);
            if (res == NULL)
                goto done;
            Py_CLEAR(res);
        }
        /* state.pending.append(FlashOp(PROGRAM, target_addr, tag="gc",
         *                              lpn=lpn, source=source_addr)) */
        if ((op = new_op(K_PROGRAM, taddr, S_gc, lpn, saddr)) == NULL
                || (pending = GA(state, pending)) == NULL
                || (res = call_method1(pending, S_append, op)) == NULL)
            goto done;
        out = new_op(K_READ, saddr, S_gc, lpn, Py_None);
        goto done;
    }
    out = gc_erase_step(cx, ftl, state, job, chip, cid);
done:
    Py_XDECREF(state);
    Py_XDECREF(job);
    Py_XDECREF(lpns);
    Py_XDECREF(lpn);
    Py_XDECREF(mapping);
    Py_XDECREF(ppn);
    Py_XDECREF(taddr);
    Py_XDECREF(tptype);
    Py_XDECREF(saddr);
    Py_XDECREF(hook);
    Py_XDECREF(pending);
    Py_XDECREF(op);
    Py_XDECREF(res);
    return out;
}

/* The write-blocked branch of BaseFtl._host_write_op: start (or
 * promote) a foreground collection and step it. */
static PyObject *
write_blocked(Ctx *cx, PyObject *ftl, PyObject *state, PyObject *chip,
              long long cid)
{
    PyObject *gc, *v, *res;
    int c;

    if ((gc = GA(state, gc)) == NULL)
        return NULL;
    if (gc == Py_None) {
        PyObject *victim = select_victim(cx, ftl, chip, cid, NULL);
        if (victim == NULL)
            goto error;
        if (victim != Py_None) {
            CALLOUT(L_FTL);
            res = PyObject_CallMethodObjArgs(ftl, S__begin_gc, chip, victim,
                                             Py_False, NULL);
            if (res == NULL) {
                Py_DECREF(victim);
                goto error;
            }
            Py_DECREF(res);
        }
        Py_DECREF(victim);
    }
    else {
        if ((v = GA(gc, background)) == NULL)
            goto error;
        c = truthy(v);
        Py_DECREF(v);
        if (c < 0 || (c && SA(gc, background, Py_False) < 0))
            goto error;
    }
    Py_SETREF(gc, GA(state, gc));
    if (gc == NULL)
        return NULL;
    if (gc != Py_None) {
        if ((v = GA(gc, background)) == NULL)
            goto error;
        c = truthy(v);
        Py_DECREF(v);
        if (c < 0)
            goto error;
        if (!c) {
            Py_DECREF(gc);
            return ftl_gc_step(cx, ftl, chip, cid);
        }
    }
    Py_DECREF(gc);
    Py_RETURN_NONE;
error:
    Py_DECREF(gc);
    return NULL;
}

/* WriteBuffer.pop (new reference): open-coded for an exact WriteBuffer
 * with no stale marks, the Python method otherwise */
static PyObject *
buffer_pop(PyObject *buffer)
{
    PyObject *v, *fifo, *resident, *entry, *elpn, *count;
    long long n;
    int c;

    if (Py_TYPE(buffer) == T_WriteBuffer) {
        if ((v = GA(buffer, _stale)) == NULL || (c = truthy(v)) < 0) {
            Py_XDECREF(v);
            return NULL;
        }
        Py_DECREF(v);
    }
    else
        c = 1;
    if (c) {
        CALLOUT(L_CONTROLLER);
        return call_method0(buffer, S_pop);
    }
    if ((fifo = GA(buffer, _fifo)) == NULL)
        return NULL;
    entry = call_method0(fifo, S_popleft);
    Py_DECREF(fifo);
    if (entry == NULL)
        return NULL;
    if ((elpn = slot_get(entry, T_BufferedWrite, BW_lpn, S_lpn)) == NULL)
        goto error;
    if ((resident = GA(buffer, _resident)) == NULL) {
        Py_DECREF(elpn);
        goto error;
    }
    count = PyObject_GetItem(resident, elpn);
    c = count == NULL ? -1 : as_ll(count, &n);
    Py_XDECREF(count);
    if (c == 0) {
        if (n - 1) {
            PyObject *nv = PyLong_FromLongLong(n - 1);
            c = nv == NULL ? -1 : PyObject_SetItem(resident, elpn, nv);
            Py_XDECREF(nv);
        }
        else
            c = PyObject_DelItem(resident, elpn);
    }
    Py_DECREF(resident);
    Py_DECREF(elpn);
    if (c < 0 || attr_add(buffer, S__live, -1) < 0)
        goto error;
    return entry;
error:
    Py_DECREF(entry);
    return NULL;
}

/* BaseFtl._host_write_op (an override is called): the allocation
 * through ftl_allocate, WriteBuffer.pop, NandGeometry.ppn,
 * MappingTable.map_write and _note_block_write. */
static PyObject *
ftl_host_write_op(Ctx *cx, PyObject *ftl, PyObject *state, PyObject *chip,
                  long long cid, PyObject *now)
{
    PyObject *buffer, *v = NULL, *addr = NULL, *ptype = NULL, *entry = NULL,
        *lpn = NULL, *out = NULL, *res;
    long long live, ppn;
    int c;

    if (!cx->hw_stock) {
        CALLOUT(L_FTL);
        return call_method2(ftl, S__host_write_op, chip, now);
    }
    buffer = CX(cx, fbuffer);
    /* if buffer.is_empty: return None */
    if (Py_TYPE(buffer) == T_WriteBuffer) {
        if (ga_ll(buffer, S__live, &live) < 0)
            goto done;
        c = live == 0;
    }
    else if ((v = GA(buffer, is_empty)) == NULL || (c = truthy(v)) < 0)
        goto done;
    if (c) {
        Py_INCREF(Py_None);
        out = Py_None;
        goto done;
    }
    if ((c = ftl_allocate(cx, ftl, chip, cid, now, 0, &addr, &ptype)) < 0)
        goto done;
    if (c == 0) {
        out = write_blocked(cx, ftl, state, chip, cid);
        goto done;
    }
    if ((entry = buffer_pop(buffer)) == NULL
            || (lpn = slot_get(entry, T_BufferedWrite, BW_lpn, S_lpn)) == NULL
            || NEED_FTL(cx, ftl) < 0
            || geometry_ppn(cx, addr, &ppn) < 0
            || mapping_map_write(cx, cx->mapping, lpn, ppn) < 0
            || note_block_write(cx, ftl, ppn / cx->f_ppb) < 0
            || attr_add(ftl, S_host_programs, 1) < 0)
        goto done;
    Py_XSETREF(v, GA(ftl, _after_host_program));
    if (v == NULL)
        goto done;
    if (v != Py_None) {
        /* an FTL hook (parity pre-backup, the tracer's allocation
         * capture, the predictor's observation): device-internal, so
         * the cache stands */
        CALLOUT(L_FTL);
        res = PyObject_CallFunctionObjArgs(v, chip, addr, ptype, now, NULL);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    out = new_op(K_PROGRAM, addr, S_host, lpn, Py_None);
done:
    Py_DECREF(buffer);
    Py_XDECREF(v);
    Py_XDECREF(addr);
    Py_XDECREF(ptype);
    Py_XDECREF(entry);
    Py_XDECREF(lpn);
    return out;
}

/* BaseFtl.next_op: queued work, fault recovery (Python), a foreground
 * GC step, then a host write. */
static PyObject *
ftl_next_op(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
            PyObject *now)
{
    PyObject *state, *v = NULL, *res, *out = NULL;
    int c;

    if (NEED_FTL(cx, ftl) < 0)
        return NULL;
    if ((state = item_at(cx->chips, (Py_ssize_t)cid)) == NULL)
        return NULL;
    /* if state.pending: return state.pending.popleft() */
    if ((v = GA(state, pending)) == NULL || (c = truthy(v)) < 0)
        goto done;
    if (c) {
        out = call_method0(v, S_popleft);
        goto done;
    }
    Py_CLEAR(v);
    /* fault work: the Python recovery step */
    if ((v = GA(state, fault_work)) == NULL)
        goto done;
    c = v != Py_None;
    Py_CLEAR(v);
    if (c) {
        CALLOUT(L_FTL);
        res = call_method2(ftl, S__fault_recovery_op, chip, now);
        ctx_flush_after(cx, L_FTL);
        if (res == NULL)
            goto done;
        if (res != Py_None) {
            out = res;
            goto done;
        }
        Py_DECREF(res);
        if (NEED_FTL(cx, ftl) < 0)
            goto done;
    }
    /* a foreground GC in progress takes the chip */
    if ((v = GA(state, gc)) == NULL)
        goto done;
    if (v != Py_None) {
        PyObject *bg = GA(v, background);
        if (bg == NULL)
            goto done;
        c = truthy(bg);
        Py_DECREF(bg);
        if (c < 0)
            goto done;
        if (!c) {
            out = ftl_gc_step(cx, ftl, chip, cid);
            goto done;
        }
    }
    out = ftl_host_write_op(cx, ftl, state, chip, cid, now);
done:
    Py_DECREF(state);
    Py_XDECREF(v);
    return out;
}

/* FlexFtl.next_op: the deferred parity invalidations, then
 * BaseFtl.next_op. */
static PyObject *
flex_next_op(Ctx *cx, PyObject *ftl, PyObject *chip, long long cid,
             PyObject *now)
{
    PyObject *v, *res;
    int c;

    if (NEED_FTL(cx, ftl) < 0)
        return NULL;
    /* if self._pending_invalidations[chip_id]:
     *     self._flush_parity_invalidations(chip_id) */
    if ((v = item_at(cx->pinv, (Py_ssize_t)cid)) == NULL)
        return NULL;
    c = truthy(v);
    Py_DECREF(v);
    if (c < 0)
        return NULL;
    if (c) {
        CALLOUT(L_FTL);
        if ((res = call_method1(ftl, S__flush_parity_invalidations, chip))
                == NULL)
            return NULL;
        Py_DECREF(res);
    }
    return ftl_next_op(cx, ftl, chip, cid, now);
}

/* ------------------------------------------------------------------ */
/* kernel: the run loop                                               */

/* controller_reason(ctrl), loading the controller group when the
 * controller can run natively */
static int
ctx_reason(Ctx *cx, PyObject *ctrl)
{
    int reason;
    if (cx->ctrl == ctrl)
        return cx->reason;
    if ((reason = controller_reason(ctrl)) == WHY_OK
            && ctx_controller(cx, ctrl) < 0)
        return -1;
    return reason;
}

/* WHY_OK when no class method the core replaces was patched */
static int
ctx_stock(Ctx *cx)
{
    if (cx->stock < 0)
        cx->stock = stock_classes();
    return cx->stock ? WHY_OK : WHY_PATCHED;
}

/* Run one event's callback: natively when it is a stock core handler
 * whose preconditions hold, as ``fn(*args)`` otherwise. */
static int
dispatch(Ctx *cx, PyObject *fn, PyObject *args)
{
    PyObject *res;
    if (PyMethod_Check(fn)) {
        PyObject *func = PyMethod_GET_FUNCTION(fn);
        PyObject *self = PyMethod_GET_SELF(fn);
        int reason = -2;
        if (func == F_on_op_done) {
            if ((reason = ctx_reason(cx, self)) == WHY_OK)
                reason = ctx_stock(cx);
            if (reason < 0)
                return -1;
            if (reason == WHY_OK
                    && !(PyTuple_CheckExact(args) && PyTuple_GET_SIZE(args) == 3))
                reason = WHY_ARGS;
            if (reason == WHY_OK) {
                cov_native++;
                return controller_on_op_done(cx, self,
                                             PyTuple_GET_ITEM(args, 0),
                                             PyTuple_GET_ITEM(args, 1),
                                             PyTuple_GET_ITEM(args, 2));
            }
        }
        else if (func == F_qos_enqueue || func == F_qos_wake) {
            /* a QoS host: natively when qos_stock holds, its Python
             * handler (counted under "handler") otherwise */
            Py_ssize_t nargs = func == F_qos_enqueue ? 2 : 0;
            PyObject *ctrl = GA(self, controller);
            if (ctrl == NULL)
                return -1;
            reason = ctx_reason(cx, ctrl);
            Py_DECREF(ctrl);
            if (reason == WHY_OK)
                reason = ctx_stock(cx);
            if (reason == WHY_OK) {
                int c = qos_stock(cx, self);
                if (c < 0)
                    return -1;
                if (!c)
                    reason = WHY_HANDLER;
            }
            if (reason < 0)
                return -1;
            if (reason == WHY_OK && !(PyTuple_CheckExact(args)
                                      && PyTuple_GET_SIZE(args) == nargs))
                reason = WHY_ARGS;
            if (reason == WHY_OK) {
                cov_native++;
                return nargs ? qos_enqueue(cx, self, PyTuple_GET_ITEM(args, 0),
                                           PyTuple_GET_ITEM(args, 1))
                    : qos_wake(cx, self);
            }
        }
        else if (func == F_stream_issue || func == F_closed_issue) {
            int streaming = func == F_stream_issue;
            if (Py_TYPE(self) != (streaming ? T_StreamHost : T_ClosedHost))
                reason = WHY_SUBCLASS;
            else {
                PyObject *ctrl = GA(self, controller);
                if (ctrl == NULL)
                    return -1;
                reason = ctx_reason(cx, ctrl);
                Py_DECREF(ctrl);
                if (reason < 0)
                    return -1;
                if (reason == WHY_OK)
                    reason = ctx_stock(cx);
            }
            if (reason == WHY_OK
                    && !(PyTuple_CheckExact(args) && PyTuple_GET_SIZE(args) == 1))
                reason = WHY_ARGS;
            if (reason == WHY_OK) {
                cov_native++;
                return host_issue(cx, self, PyTuple_GET_ITEM(args, 0),
                                  streaming);
            }
        }
        cov_python[reason == -2 ? WHY_HANDLER : reason]++;
    }
    else
        cov_python[WHY_HANDLER]++;
    if (PyTuple_Check(args))
        res = PyObject_Call(fn, args, NULL);
    else {
        PyObject *tuple = PySequence_Tuple(args);
        if (tuple == NULL)
            return -1;
        res = PyObject_Call(fn, tuple, NULL);
        Py_DECREF(tuple);
    }
    /* a Python handler may have rebound anything (a power cut) */
    ctx_flush_after(cx, F_HANDLER);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ``counter[0] -= 1; entry[_COUNTER] = None`` for a collected
 * cancelled entry */
static int
uncount_cancelled(PyObject *entry)
{
    PyObject *counter = PyList_GET_ITEM(entry, 6), *v, *nv;
    int r;
    Py_INCREF(counter);
    v = PySequence_GetItem(counter, 0);
    if (v == NULL) {
        Py_DECREF(counter);
        return -1;
    }
    nv = PyNumber_Subtract(v, ONE);
    Py_DECREF(v);
    if (nv == NULL) {
        Py_DECREF(counter);
        return -1;
    }
    r = PySequence_SetItem(counter, 0, nv);
    Py_DECREF(nv);
    Py_DECREF(counter);
    if (r < 0)
        return -1;
    Py_INCREF(Py_None);
    return PyList_SetItem(entry, 6, Py_None);
}

static int bind(void);

/* Simulator.run(until, max_events): every form of the call.  Mirrors
 * the general loop (``_ensure_head`` per event); the run-to-exhaustion
 * fast path of the Python method pops in the same order. */
static PyObject *
core_run(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *sim, *until, *max_events, *active = NULL, *entry, *v, *nv;
    long long remaining = -1, pos;
    unsigned long long epoch = 0;
    int c;
    Ctx cx;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "run(sim, until, max_events) takes 3 arguments");
        return NULL;
    }
    sim = args[0];
    until = args[1];
    max_events = args[2];
    if (!bound && bind() < 0)
        return NULL;
    if (max_events != Py_None) {
        /* ``remaining == 0`` stops the loop: only a non-negative whole
         * number ever gets there; anything else runs to exhaustion */
        if (PyLong_Check(max_events)) {
            int overflow;
            remaining = PyLong_AsLongLongAndOverflow(max_events, &overflow);
            if (remaining == -1 && PyErr_Occurred())
                return NULL;
            if (overflow || remaining < 0)
                remaining = -1;
        }
        else if (PyFloat_Check(max_events)) {
            double d = PyFloat_AS_DOUBLE(max_events);
            remaining = (d >= 0.0 && d == floor(d) && d < 9.0e18)
                ? (long long)d : -1;
        }
        else {
            PyErr_Format(PyExc_TypeError,
                         "max_events must be a number, got %.100s",
                         Py_TYPE(max_events)->tp_name);
            return NULL;
        }
    }
    memset(&cx, 0, sizeof cx);
    cx.run_sim = sim;
    cx.stock = -1;
    if ((active = GA(sim, _active)) == NULL
            || ga_ll(sim, S__active_pos, &pos) < 0)
        goto error;
    for (;;) {
        /* _ensure_head: skip (and collect) cancelled entries */
        for (;;) {
            if (!PyList_Check(active)) {
                PyErr_SetString(PyExc_TypeError,
                                "native core: active bucket is not a list");
                goto error;
            }
            if (pos < PyList_GET_SIZE(active)) {
                entry = PyList_GET_ITEM(active, (Py_ssize_t)pos);
                if (!PyList_Check(entry) || PyList_GET_SIZE(entry) < 7) {
                    PyErr_SetString(PyExc_TypeError,
                                    "native core: malformed queue entry");
                    goto error;
                }
                if ((c = truthy(PyList_GET_ITEM(entry, 5))) < 0)
                    goto error;
                if (c) {
                    if (uncount_cancelled(entry) < 0)
                        goto error;
                    pos++;
                    continue;
                }
                break;
            }
            if (sa_ll(sim, S__active_pos, pos) < 0)
                goto error;
            if ((c = kernel_advance_day(sim)) < 0)
                goto error;
            if (!c)
                goto finished;
            Py_SETREF(active, GA(sim, _active));
            if (active == NULL || ga_ll(sim, S__active_pos, &pos) < 0)
                goto error;
        }
        if (remaining == 0) {
            if (sa_ll(sim, S__active_pos, pos) < 0)
                goto error;
            goto finished;
        }
        if (until != Py_None) {
            PyObject *time = PyList_GET_ITEM(entry, 0);
            if (PyFloat_CheckExact(time) && PyFloat_CheckExact(until))
                c = PyFloat_AS_DOUBLE(time) > PyFloat_AS_DOUBLE(until);
            else if ((c = PyObject_RichCompareBool(time, until, Py_GT)) < 0)
                goto error;
            if (c) {
                if (sa_ll(sim, S__active_pos, pos) < 0
                        || SA(sim, now, until) < 0)
                    goto error;
                goto finished;
            }
        }
        Py_INCREF(entry);
        /* self._active_pos = pos + 1; entry[_COUNTER] = None;
         * self.now = time; self.processed += 1 */
        c = sa_ll(sim, S__active_pos, pos + 1);
        if (c == 0) {
            Py_INCREF(Py_None);
            c = PyList_SetItem(entry, 6, Py_None);
        }
        if (c == 0)
            c = SA(sim, now, PyList_GET_ITEM(entry, 0));
        if (c == 0) {
            c = -1;
            if ((v = GA(sim, processed)) != NULL) {
                nv = PyNumber_Add(v, ONE);
                Py_DECREF(v);
                if (nv != NULL) {
                    c = SA(sim, processed, nv);
                    Py_DECREF(nv);
                }
            }
        }
        if (c == 0) {
            PyObject *fn = PyList_GET_ITEM(entry, 3);
            PyObject *fargs = PyList_GET_ITEM(entry, 4);
            Py_INCREF(fn);
            Py_INCREF(fargs);
            cx.now = PyList_GET_ITEM(entry, 0);
            epoch = cx.epoch;
            c = dispatch(&cx, fn, fargs);
            cx.now = NULL;
            Py_DECREF(fn);
            Py_DECREF(fargs);
        }
        Py_DECREF(entry);
        if (c < 0)
            goto error;
        if (remaining > 0)
            remaining--;
        /* the callback may have rebound the active bucket (halt).  Only
         * Python code can, and an event that ran any flushed the cache:
         * otherwise the cursor is where it was published. */
        if (cx.epoch == epoch) {
            pos++;
            continue;
        }
        Py_SETREF(active, GA(sim, _active));
        if (active == NULL || ga_ll(sim, S__active_pos, &pos) < 0)
            goto error;
    }
finished:
    ctx_flush(&cx);
    Py_XDECREF(active);
    Py_RETURN_NONE;
error:
    ctx_flush(&cx);
    Py_XDECREF(active);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* coverage                                                           */

/* {names[i]: counts[i]} for i in [first, n) */
static PyObject *
counts_dict(const char **names, const unsigned long long *counts, int first,
            int n)
{
    PyObject *d = PyDict_New(), *v;
    int i;
    if (d == NULL)
        return NULL;
    for (i = first; i < n; i++) {
        v = PyLong_FromUnsignedLongLong(counts[i]);
        if (v == NULL || PyDict_SetItemString(d, names[i], v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(d);
            return NULL;
        }
        Py_DECREF(v);
    }
    return d;
}

static PyObject *
core_coverage(PyObject *module, PyObject *unused)
{
    PyObject *python, *callouts = NULL, *flushes = NULL;
    if ((python = counts_dict(REASON_NAMES, cov_python, 1, N_REASONS)) == NULL
            || (callouts = counts_dict(LAYER_NAMES, cov_callouts, 0,
                                       N_LAYERS)) == NULL
            || (flushes = counts_dict(LAYER_NAMES, cov_flushes, 0,
                                      N_LAYERS + 1)) == NULL) {
        Py_XDECREF(python);
        Py_XDECREF(callouts);
        return NULL;
    }
    return Py_BuildValue("{s:K,s:N,s:N,s:N}", "native", cov_native,
                         "python", python, "callouts", callouts,
                         "flushes", flushes);
}

static PyObject *
core_reset_coverage(PyObject *module, PyObject *unused)
{
    cov_native = 0;
    memset(cov_python, 0, sizeof cov_python);
    memset(cov_callouts, 0, sizeof cov_callouts);
    memset(cov_flushes, 0, sizeof cov_flushes);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* binding                                                            */

static PyObject *
ref(PyObject *refs, const char *key)
{
    PyObject *v = PyDict_GetItemString(refs, key);
    if (v == NULL) {
        PyErr_Format(PyExc_RuntimeError, "native core: missing reference %s",
                     key);
        return NULL;
    }
    Py_INCREF(v);
    return v;
}

static PyTypeObject *
type_ref(PyObject *refs, const char *key)
{
    PyObject *v = ref(refs, key);
    if (v != NULL && !PyType_Check(v)) {
        Py_DECREF(v);
        PyErr_Format(PyExc_TypeError, "native core: %s is not a class", key);
        return NULL;
    }
    return (PyTypeObject *)v;
}

static int
member_offset(PyTypeObject *type, const char *name, Py_ssize_t *off)
{
    PyObject *d = PyDict_GetItemString(type->tp_dict, name);
    PyMemberDef *m;
    if (d == NULL || !PyObject_TypeCheck(d, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError, "native core: %s.%s is not a slot",
                     type->tp_name, name);
        return -1;
    }
    m = ((PyMemberDescrObject *)d)->d_member;
    if (m->type != T_OBJECT_EX || (m->flags & READONLY)) {
        PyErr_Format(PyExc_TypeError,
                     "native core: %s.%s is not a writable object slot",
                     type->tp_name, name);
        return -1;
    }
    *off = m->offset;
    return 0;
}

static int
bind(void)
{
    PyObject *module, *refs;
    int r = -1;

    if ((module = PyImport_ImportModule("repro.sim._native")) == NULL)
        return -1;
    refs = PyObject_CallMethodNoArgs(module, S__stock_refs);
    Py_DECREF(module);
    if (refs == NULL)
        return -1;
    if (!PyDict_Check(refs)) {
        PyErr_SetString(PyExc_TypeError, "native core: references not a dict");
        goto done;
    }
    if ((T_Simulator = type_ref(refs, "Simulator")) == NULL
            || (T_Controller = type_ref(refs, "StorageController")) == NULL
            || (T_FlexFtl = type_ref(refs, "FlexFtl")) == NULL
            || (T_Mapping = type_ref(refs, "MappingTable")) == NULL
            || (T_WriteBuffer = type_ref(refs, "WriteBuffer")) == NULL
            || (T_Geometry = type_ref(refs, "NandGeometry")) == NULL
            || (T_FlashOp = type_ref(refs, "FlashOp")) == NULL
            || (T_BufferedWrite = type_ref(refs, "BufferedWrite")) == NULL
            || (T_Request = type_ref(refs, "Request")) == NULL
            || (T_PPA = type_ref(refs, "PhysicalPageAddress")) == NULL
            || (T_StreamHost = type_ref(refs, "StreamingClosedLoopHost")) == NULL
            || (T_ClosedHost = type_ref(refs, "ClosedLoopHost")) == NULL
            || (T_Array = type_ref(refs, "NandArray")) == NULL
            || (T_Chip = type_ref(refs, "Chip")) == NULL
            || (T_Block = type_ref(refs, "Block")) == NULL
            || (T_SimStats = type_ref(refs, "SimStats")) == NULL
            || (T_Event = type_ref(refs, "Event")) == NULL
            || (T_Completion = type_ref(refs, "StreamCompletion")) == NULL
            || (T_FpsCursor = type_ref(refs, "FpsCursor")) == NULL
            || (T_QosHost = type_ref(refs, "MultiTenantHost")) == NULL
            || (T_TenantCompletion = type_ref(refs, "TenantCompletion")) == NULL
            || (T_SubQueue = type_ref(refs, "SubmissionQueue")) == NULL
            || (T_QueuedCommand = type_ref(refs, "QueuedCommand")) == NULL
            || (T_Gate = type_ref(refs, "AdmissionGate")) == NULL
            || (T_SloAccountant = type_ref(refs, "SloAccountant")) == NULL
            || (T_TenantAccount = type_ref(refs, "TenantAccount")) == NULL
            || (T_ChainedHook = type_ref(refs, "ChainedHook")) == NULL
            || (T_Arbiter[ARB_FIFO] = type_ref(refs, "FifoArbiter")) == NULL
            || (T_Arbiter[ARB_RR] = type_ref(refs, "RoundRobinArbiter")) == NULL
            || (T_Arbiter[ARB_WRR] = type_ref(refs, "WeightedRoundRobinArbiter"))
               == NULL
            || (T_Arbiter[ARB_DRR] = type_ref(refs, "DeficitRoundRobinArbiter"))
               == NULL
            || (F_select[ARB_FIFO] = ref(refs, "fifo_select")) == NULL
            || (F_select[ARB_RR] = ref(refs, "rr_select")) == NULL
            || (F_select[ARB_WRR] = ref(refs, "wrr_select")) == NULL
            || (F_select[ARB_DRR] = ref(refs, "drr_select")) == NULL
            || (F_note_empty[ARB_FIFO] = ref(refs, "note_empty")) == NULL
            || (F_note_empty[ARB_RR] = ref(refs, "note_empty")) == NULL
            || (F_note_empty[ARB_WRR] = ref(refs, "note_empty")) == NULL
            || (F_note_empty[ARB_DRR] = ref(refs, "drr_note_empty")) == NULL
            || (F_base_next_op = ref(refs, "base_next_op")) == NULL
            || (F_host_write_op = ref(refs, "host_write_op")) == NULL
            || (F_gc_step = ref(refs, "gc_step")) == NULL
            || (F_note_block_write = ref(refs, "note_block_write")) == NULL
            || (F_note_block_erased = ref(refs, "note_block_erased")) == NULL
            || (F_page_allocate = ref(refs, "page_allocate")) == NULL
            || (F_page_alloc_host = ref(refs, "page_alloc_host")) == NULL
            || (F_page_alloc_gc = ref(refs, "page_alloc_gc")) == NULL
            || (F_page_address = ref(refs, "page_address")) == NULL
            || (F_note_arrival = ref(refs, "note_arrival")) == NULL
            || (F_qos_enqueue = ref(refs, "qos_enqueue")) == NULL
            || (F_qos_wake = ref(refs, "qos_wake")) == NULL
            || (F_slo_record = ref(refs, "slo_record")) == NULL
            || (F_queue_push = ref(refs, "queue_push")) == NULL
            || (F_queue_pop = ref(refs, "queue_pop")) == NULL
            || (F_can_admit = ref(refs, "can_admit")) == NULL
            || (F_note_dispatch = ref(refs, "note_dispatch")) == NULL
            || (F_note_complete = ref(refs, "note_complete")) == NULL
            || (K_ERASE = ref(refs, "ERASE")) == NULL
            || (REQUEST_OK = ref(refs, "REQUEST_OK")) == NULL
            || (F_push = ref(refs, "push")) == NULL
            || (F_on_op_done = ref(refs, "on_op_done")) == NULL
            || (F_execute = ref(refs, "execute")) == NULL
            || (F_flex_next_op = ref(refs, "flex_next_op")) == NULL
            || (F_lookup = ref(refs, "lookup")) == NULL
            || (F_stream_issue = ref(refs, "stream_issue")) == NULL
            || (F_closed_issue = ref(refs, "closed_issue")) == NULL
            || (F_base_wants_gc = ref(refs, "base_wants_gc")) == NULL
            || (F_flex_wants_gc = ref(refs, "flex_wants_gc")) == NULL
            || (F_bg_min_invalid = ref(refs, "bg_min_invalid")) == NULL
            || (F_predictor_wants_gc = ref(refs, "predictor_wants_gc")) == NULL
            || (F_array_program = ref(refs, "array_program")) == NULL
            || (F_array_read = ref(refs, "array_read")) == NULL
            || (F_array_erase = ref(refs, "array_erase")) == NULL
            || (F_is_programmed = ref(refs, "is_programmed")) == NULL
            || (F_complete_request = ref(refs, "complete_request")) == NULL
            || (F_note_request_complete = ref(refs, "note_request_complete"))
               == NULL
            || (F_stream_advance = ref(refs, "stream_advance")) == NULL
            || (F_closed_advance = ref(refs, "closed_advance")) == NULL
            || (F_schedule = ref(refs, "schedule")) == NULL
            || (F_check_schedule = ref(refs, "check_schedule")) == NULL
            || (F_select_victim = ref(refs, "select_victim")) == NULL
            || (F_victim_score = ref(refs, "victim_score")) == NULL
            || (F_global_block_of = ref(refs, "global_block_of")) == NULL
            || (F_invalid_count = ref(refs, "invalid_count")) == NULL
            || (F_base_background_op = ref(refs, "base_background_op")) == NULL
            || (F_flex_background_op = ref(refs, "flex_background_op")) == NULL
            || (F_flush_parity = ref(refs, "flush_parity")) == NULL
            || (K_PROGRAM = ref(refs, "PROGRAM")) == NULL
            || (K_READ = ref(refs, "READ")) == NULL
            || (R_READ = ref(refs, "REQUEST_READ")) == NULL
            || (P_LSB = ref(refs, "LSB")) == NULL
            || (P_MSB = ref(refs, "MSB")) == NULL
            || (C_PhaseCursor = ref(refs, "PhaseCursor")) == NULL
            || (heappush_fn = ref(refs, "heappush")) == NULL
            || (heappop_fn = ref(refs, "heappop")) == NULL
            || (STOCK = ref(refs, "stock")) == NULL)
        goto done;
    if (!PyTuple_CheckExact(STOCK)) {
        PyErr_SetString(PyExc_TypeError, "native core: stock is not a tuple");
        goto done;
    }
    if (member_offset(T_FlashOp, "kind", &OP_kind) < 0
            || member_offset(T_FlashOp, "addr", &OP_addr) < 0
            || member_offset(T_FlashOp, "tag", &OP_tag) < 0
            || member_offset(T_FlashOp, "lpn", &OP_lpn) < 0
            || member_offset(T_FlashOp, "on_complete", &OP_on_complete) < 0
            || member_offset(T_FlashOp, "data", &OP_data) < 0
            || member_offset(T_FlashOp, "source", &OP_source) < 0
            || member_offset(T_Request, "time", &RQ_time) < 0
            || member_offset(T_Request, "kind", &RQ_kind) < 0
            || member_offset(T_Request, "lpn", &RQ_lpn) < 0
            || member_offset(T_Request, "npages", &RQ_npages) < 0
            || member_offset(T_Request, "pages_remaining",
                             &RQ_pages_remaining) < 0
            || member_offset(T_Request, "submitted_at", &RQ_submitted_at) < 0
            || member_offset(T_Request, "completed_at", &RQ_completed_at) < 0
            || member_offset(T_Request, "on_complete", &RQ_on_complete) < 0
            || member_offset(T_BufferedWrite, "lpn", &BW_lpn) < 0
            || member_offset(T_BufferedWrite, "enqueued_at",
                             &BW_enqueued_at) < 0
            || member_offset(T_BufferedWrite, "request", &BW_request) < 0
            || member_offset(T_Completion, "host", &SC_host) < 0
            || member_offset(T_Completion, "index", &SC_index) < 0
            || member_offset(T_Completion, "think", &SC_think) < 0
            || member_offset(T_Request, "tenant", &RQ_tenant) < 0
            || member_offset(T_Request, "status", &RQ_status) < 0
            || member_offset(T_Request, "error", &RQ_error) < 0
            || member_offset(T_QueuedCommand, "request", &QC_request) < 0
            || member_offset(T_QueuedCommand, "seq", &QC_seq) < 0
            || member_offset(T_QueuedCommand, "enqueued_at",
                             &QC_enqueued_at) < 0
            || member_offset(T_TenantCompletion, "host", &TC_host) < 0
            || member_offset(T_TenantCompletion, "tenant", &TC_tenant) < 0
            || member_offset(T_TenantCompletion, "stream", &TC_stream) < 0
            || member_offset(T_TenantCompletion, "think", &TC_think) < 0
            || member_offset(T_ChainedHook, "first", &CH_first) < 0
            || member_offset(T_ChainedHook, "second", &CH_second) < 0)
        goto done;
    bound = 1;
    r = 0;
done:
    Py_DECREF(refs);
    return r;
}

/* ------------------------------------------------------------------ */
/* module                                                             */

static PyMethodDef core_methods[] = {
    {"run", (PyCFunction)(void (*)(void))core_run, METH_FASTCALL,
     "run(sim, until, max_events): Simulator.run natively."},
    {"coverage", core_coverage, METH_NOARGS,
     "Events handled natively and passed to Python by reason, the core's "
     "calls into Python by layer, and cache flushes by cause."},
    {"reset_coverage", core_reset_coverage, METH_NOARGS,
     "Zero the coverage counters."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "Native dispatch core of the simulator (see _core.c).", -1, core_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *module;
#define INTERN_NAME(n)                                                  \
    if ((S_##n = PyUnicode_InternFromString(#n)) == NULL)               \
        return NULL;
    NAMES(INTERN_NAME)
#undef INTERN_NAME
    if ((ZERO = PyLong_FromLong(0)) == NULL
            || (ONE = PyLong_FromLong(1)) == NULL
            || (FLOAT_ZERO = PyFloat_FromDouble(0.0)) == NULL
            || (KW_TENANT = PyTuple_Pack(1, S_tenant)) == NULL
            || (KW_SAMPLE = PyTuple_Pack(1, S_sample)) == NULL
            || (KW_NOW = PyTuple_Pack(1, S_now)) == NULL
            || (EV_LSB_COMPLETE = PyUnicode_InternFromString(
                    "2po.lsb_complete")) == NULL
            || (KW_LSB_COMPLETE = PyTuple_Pack(2, S_chip, S_block)) == NULL
            || (EV_SCENARIO_PHASE = PyUnicode_InternFromString(
                    "scenario.phase")) == NULL
            || (KW_SCENARIO_PHASE = PyTuple_Pack(3, S_name, S_prev,
                                                 S_stream)) == NULL)
        return NULL;
    module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddStringConstant(module, "BUILD", REPRO_CORE_BUILD) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
