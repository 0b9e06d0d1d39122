/*
 * Native block kernels for the batch and superbatch engines.
 *
 * Every random number is drawn from the trial's own NumPy bit generator
 * (the bitgen_t behind Generator.bit_generator.capsule) through the C
 * distributions NumPy ships in libnpyrandom.a, in exactly the order and
 * with exactly the arguments the Generator methods of the reference
 * NumPy path use:
 *
 *   rng.integers(0, k, size=m)             random_bounded_uint64_fill(
 *                                              bg, 0, k - 1, m, false, out)
 *   rng.integers(0, k)                     the same with m = 1
 *   rng.hypergeometric(g, b, s)            random_hypergeometric(bg, g, b, s)
 *   rng.multivariate_hypergeometric(c, s)  random_multivariate_hypergeometric_
 *                                              marginals(bg, sum(c), len(c),
 *                                              c, s, 1, zeroed out)
 *   rng.shuffle(x), rng.permuted(x)        for i = len-1 .. 1:
 *                                              swap(x[i], x[random_interval(bg, i)])
 *
 * so chains, counters and the final generator state are bit-identical to
 * the NumPy path.  The Generator wrappers also validate their arguments
 * (hypergeometric and the "marginals" method reject populations of 10^9
 * or more); the C routines do not, so the engines check that envelope
 * once, when a trial spec is built.
 *
 * The functions are stages, one per engine stage (sample / apply /
 * detect / commit), so the stage profile keeps timing each stage and a
 * pair-table miss returns to Python between them.  Arrays handed back
 * are fresh NumPy arrays; temporaries live in one module-level arena
 * sized by the largest block seen (pairs or present states), never by
 * the population.  The GIL is held throughout, and no function calls
 * back into Python while it uses the arena.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <numpy/random/bitgen.h>
#include <numpy/random/distributions.h>

#include <string.h>

/* ------------------------------------------------------------------ */
/* argument and result helpers                                         */
/* ------------------------------------------------------------------ */

/* Data of a contiguous int64 (or int32) array, or NULL with an error. */
static void *
array_data(PyObject *obj, int typenum, npy_intp need, const char *name)
{
    PyArrayObject *array;
    if (!PyArray_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an ndarray", name);
        return NULL;
    }
    array = (PyArrayObject *)obj;
    if (PyArray_TYPE(array) != typenum || PyArray_NDIM(array) != 1
            || !PyArray_IS_C_CONTIGUOUS(array)) {
        PyErr_Format(PyExc_TypeError, "%s must be a contiguous 1-d %s array",
                     name, typenum == NPY_INT32 ? "int32" : "int64");
        return NULL;
    }
    if (PyArray_SIZE(array) < need) {
        PyErr_Format(PyExc_ValueError, "%s holds %zd items, needs %zd", name,
                     (Py_ssize_t)PyArray_SIZE(array), (Py_ssize_t)need);
        return NULL;
    }
    return PyArray_DATA(array);
}

#define I64(obj, need, name) ((int64_t *)array_data((obj), NPY_INT64, (need), (name)))
#define I32(obj, need, name) ((int32_t *)array_data((obj), NPY_INT32, (need), (name)))
#define SIZE(obj) ((int64_t)PyArray_SIZE((PyArrayObject *)(obj)))

static bitgen_t *
get_bitgen(PyObject *capsule)
{
    return (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
}

static int
get_int(PyObject *obj, int64_t *out)
{
    *out = PyLong_AsLongLong(obj);
    return !(*out == -1 && PyErr_Occurred());
}

/* A fresh int64 array of `size` items (data in *data), or NULL. */
static PyObject *
new_array(int64_t size, int64_t **data)
{
    npy_intp dims[1] = {(npy_intp)size};
    PyObject *array = PyArray_SimpleNew(1, dims, NPY_INT64);
    if (array != NULL) {
        *data = (int64_t *)PyArray_DATA((PyArrayObject *)array);
    }
    return array;
}

/* Whether every id in the arrays indexes a table of `limit` entries. */
static int
ids_below(int64_t limit, int64_t size, const int64_t *a, const int64_t *b,
          const int64_t *c, const int64_t *d)
{
    int64_t i;
    for (i = 0; i < size; i++) {
        if ((uint64_t)a[i] >= (uint64_t)limit || (uint64_t)b[i] >= (uint64_t)limit
                || (uint64_t)c[i] >= (uint64_t)limit || (uint64_t)d[i] >= (uint64_t)limit) {
            PyErr_SetString(PyExc_IndexError, "state id outside the count tables");
            return 0;
        }
    }
    return 1;
}

#define CHECK_NARGS(count, name)                                             \
    if (nargs != (count)) {                                                  \
        PyErr_Format(PyExc_TypeError, name "() takes %d arguments", (count)); \
        return NULL;                                                         \
    }

/* The temporaries' arena: grown on demand, reused by every call. */
static int64_t *arena = NULL;
static size_t arena_items = 0;

static int64_t *
scratch(int64_t items)
{
    if ((size_t)items > arena_items) {
        size_t grown = arena_items ? 2 * arena_items : 1024;
        int64_t *fresh;
        while (grown < (size_t)items) {
            grown *= 2;
        }
        fresh = (int64_t *)PyMem_RawRealloc(arena, grown * sizeof(int64_t));
        if (fresh == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        arena = fresh;
        arena_items = grown;
    }
    return arena;
}

/* ------------------------------------------------------------------ */
/* the shared draws                                                    */
/* ------------------------------------------------------------------ */

/* rng.integers(0, high) for one value, high >= 1. */
static int64_t
draw_below(bitgen_t *bg, int64_t high)
{
    uint64_t value;
    random_bounded_uint64_fill(bg, 0, (uint64_t)(high - 1), 1, false, &value);
    return (int64_t)value;
}

/*
 * rng.multivariate_hypergeometric(colors, nsample) into out; 0, with
 * ValueError set and nothing drawn, when nsample exceeds the colours'
 * total (where the Generator method raises too).
 */
static int
draw_mvh(bitgen_t *bg, int64_t *colors, int64_t width, int64_t nsample,
         int64_t *out)
{
    int64_t total = 0, i;
    for (i = 0; i < width; i++) {
        total += colors[i];
        out[i] = 0;
    }
    if (nsample > total) {
        PyErr_SetString(PyExc_ValueError, "nsample > sum(colors)");
        return 0;
    }
    random_multivariate_hypergeometric_marginals(bg, total, (size_t)width,
                                                 colors, nsample, 1, out);
    return 1;
}

/* rng.shuffle(values) on a 1-d int64 array. */
static void
shuffle(bitgen_t *bg, int64_t *values, int64_t size)
{
    int64_t i;
    for (i = size - 1; i >= 1; i--) {
        int64_t j = (int64_t)random_interval(bg, (uint64_t)i);
        int64_t swap = values[j];
        values[j] = values[i];
        values[i] = swap;
    }
}

/*
 * The engines' _draw_one(pool): an index drawn with probability
 * proportional to pool (cumulative sum, rng.integers(0, total), first
 * cumulative value strictly above the ticket).  -1, with ValueError set
 * and nothing drawn, for an empty pool (where rng.integers raises).
 */
static int64_t
draw_one(bitgen_t *bg, const int64_t *pool, int64_t size)
{
    int64_t total = 0, ticket, cumulative = 0, i;
    for (i = 0; i < size; i++) {
        total += pool[i];
    }
    if (total <= 0) {
        PyErr_SetString(PyExc_ValueError, "draw from an empty pool");
        return -1;
    }
    ticket = draw_below(bg, total);
    for (i = 0; i < size; i++) {
        cumulative += pool[i];
        if (cumulative > ticket) {
            return i;
        }
    }
    return size - 1;
}

/* ------------------------------------------------------------------ */
/* batch engine: sample stage                                          */
/* ------------------------------------------------------------------ */

/*
 * batch_sample(capsule, n, pairs, counts, known)
 *     -> (free, flat_index, touched_initiator, touched_responder, pre0, pre1)
 *
 * The reference's draw_interaction_pairs, first_collision and
 * sample_block_states in one pass: the pair draws, the first repeated
 * agent in pick order (an open-addressing set over the block's picks,
 * sized to the block), the multivariate-hypergeometric state sample over
 * counts[:known] and its shuffle, split into pre0/pre1.  For the
 * colliding interaction (flat_index >= 0) the touched_* values give each
 * agent's pick position inside the collision-free prefix, or -1 for an
 * agent the prefix never touched.
 */
static PyObject *
batch_sample(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    int64_t n, pairs, known, free_pairs, flat_index = -1, slots, i, j, fill;
    int64_t touched[2] = {-1, -1}, role;
    int64_t *counts, *work, *initiators, *responders, *states, *variates;
    int64_t *keys, *positions, *pre0, *pre1;
    PyObject *pre0_array, *pre1_array;
    uint64_t set_size = 1, mask;
    int shift = 64;

    CHECK_NARGS(5, "batch_sample");
    if (!(bg = get_bitgen(args[0])) || !get_int(args[1], &n)
            || !get_int(args[2], &pairs) || !get_int(args[4], &known)) {
        return NULL;
    }
    if (n < 2 || pairs < 1 || known < 1) {
        PyErr_SetString(PyExc_ValueError, "batch_sample: bad sizes");
        return NULL;
    }
    if (!(counts = I64(args[3], known, "counts"))) {
        return NULL;
    }
    while (set_size < (uint64_t)(4 * pairs)) {
        set_size *= 2;
        shift--;
    }
    mask = set_size - 1;
    work = scratch(4 * pairs + known + 2 * (int64_t)set_size);
    if (work == NULL) {
        return NULL;
    }
    initiators = work;
    responders = initiators + pairs;
    states = responders + pairs;
    variates = states + 2 * pairs;
    keys = variates + known;
    positions = keys + set_size;

    random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 1), pairs, false,
                               (uint64_t *)initiators);
    random_bounded_uint64_fill(bg, 0, (uint64_t)(n - 2), pairs, false,
                               (uint64_t *)responders);
    for (i = 0; i < pairs; i++) {
        responders[i] += responders[i] >= initiators[i];
    }
    /* First repeated pick in (i0, r0, i1, r1, ...) order. */
    memset(keys, 0xff, set_size * sizeof(int64_t));
    for (i = 0; i < 2 * pairs && flat_index < 0; i++) {
        int64_t agent = (i & 1) ? responders[i >> 1] : initiators[i >> 1];
        uint64_t slot = ((uint64_t)agent * 0x9E3779B97F4A7C15ULL) >> shift;
        while (keys[slot] >= 0 && keys[slot] != agent) {
            slot = (slot + 1) & mask;
        }
        if (keys[slot] == agent) {
            flat_index = i;
        }
        else {
            keys[slot] = agent;
            positions[slot] = i;
        }
    }
    free_pairs = flat_index < 0 ? pairs : flat_index / 2;
    if (flat_index >= 0) {
        for (role = 0; role < 2; role++) {
            int64_t agent = role ? responders[free_pairs] : initiators[free_pairs];
            uint64_t slot = ((uint64_t)agent * 0x9E3779B97F4A7C15ULL) >> shift;
            while (keys[slot] >= 0 && keys[slot] != agent) {
                slot = (slot + 1) & mask;
            }
            if (keys[slot] == agent && positions[slot] < 2 * free_pairs) {
                touched[role] = positions[slot];
            }
        }
    }
    slots = 2 * free_pairs;
    if (!draw_mvh(bg, counts, known, slots, variates)) {
        return NULL;
    }
    fill = 0;
    for (i = 0; i < known; i++) {
        for (j = 0; j < variates[i]; j++) {
            states[fill++] = i;
        }
    }
    shuffle(bg, states, slots);
    pre0_array = new_array(free_pairs, &pre0);
    pre1_array = new_array(free_pairs, &pre1);
    if (pre0_array == NULL || pre1_array == NULL) {
        Py_XDECREF(pre0_array);
        Py_XDECREF(pre1_array);
        return NULL;
    }
    for (i = 0; i < free_pairs; i++) {
        pre0[i] = states[2 * i];
        pre1[i] = states[2 * i + 1];
    }
    return Py_BuildValue("(LLLLNN)", (long long)free_pairs,
                         (long long)flat_index, (long long)touched[0],
                         (long long)touched[1], pre0_array, pre1_array);
}

/* ------------------------------------------------------------------ */
/* apply stage: the compiled kernel's id-pair post tables               */
/* ------------------------------------------------------------------ */

/*
 * gather(table0, table1, cap, pre0, pre1) -> (post0, post1) or None
 *
 * KernelTransitionCache.apply_block's all-hit branch.  None when any
 * pair lies outside the tables or is not resolved yet (and for inputs
 * that are not contiguous int64 arrays): apply_block then takes its
 * NumPy path, which resolves misses in interning order.
 */
static PyObject *
gather(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t cap, size, i;
    int32_t *table0, *table1;
    int64_t *pre0, *pre1, *post0, *post1;
    PyObject *post0_array, *post1_array;

    CHECK_NARGS(5, "gather");
    if (!get_int(args[2], &cap)) {
        return NULL;
    }
    if (!(table0 = I32(args[0], cap * cap, "table0"))
            || !(table1 = I32(args[1], cap * cap, "table1"))) {
        return NULL;
    }
    if (!PyArray_Check(args[3]) || !PyArray_Check(args[4])
            || !PyArray_IS_C_CONTIGUOUS((PyArrayObject *)args[3])
            || !PyArray_IS_C_CONTIGUOUS((PyArrayObject *)args[4])
            || PyArray_TYPE((PyArrayObject *)args[3]) != NPY_INT64
            || PyArray_TYPE((PyArrayObject *)args[4]) != NPY_INT64
            || PyArray_NDIM((PyArrayObject *)args[3]) != 1
            || SIZE(args[4]) != SIZE(args[3])) {
        Py_RETURN_NONE;
    }
    size = SIZE(args[3]);
    pre0 = (int64_t *)PyArray_DATA((PyArrayObject *)args[3]);
    pre1 = (int64_t *)PyArray_DATA((PyArrayObject *)args[4]);
    for (i = 0; i < size; i++) {
        if ((uint64_t)pre0[i] >= (uint64_t)cap || (uint64_t)pre1[i] >= (uint64_t)cap
                || table0[pre0[i] * cap + pre1[i]] < 0) {
            Py_RETURN_NONE;
        }
    }
    post0_array = new_array(size, &post0);
    post1_array = new_array(size, &post1);
    if (post0_array == NULL || post1_array == NULL) {
        Py_XDECREF(post0_array);
        Py_XDECREF(post1_array);
        return NULL;
    }
    for (i = 0; i < size; i++) {
        int64_t slot = pre0[i] * cap + pre1[i];
        post0[i] = table0[slot];
        post1[i] = table1[slot];
    }
    return Py_BuildValue("(NN)", post0_array, post1_array);
}

/* ------------------------------------------------------------------ */
/* detect stage                                                        */
/* ------------------------------------------------------------------ */

/*
 * batch_detect(marks, pre0, pre1, post0, post1, lead, target) -> int
 *
 * Interactions to keep so the block ends at the first interaction whose
 * cumulative leader count equals target; 0 when none does or when no
 * interaction moves the count at all.
 */
static PyObject *
batch_detect(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t size, lead, target, i, moved = 0;
    int64_t *marks, *pre0, *pre1, *post0, *post1;

    CHECK_NARGS(7, "batch_detect");
    if (!get_int(args[5], &lead) || !get_int(args[6], &target)
            || !(pre0 = I64(args[1], 0, "pre0"))) {
        return NULL;
    }
    size = SIZE(args[1]);
    if (!(marks = I64(args[0], 0, "marks"))
            || !(pre1 = I64(args[2], size, "pre1"))
            || !(post0 = I64(args[3], size, "post0"))
            || !(post1 = I64(args[4], size, "post1"))
            || !ids_below(SIZE(args[0]), size, pre0, pre1, post0, post1)) {
        return NULL;
    }
    for (i = 0; i < size && !moved; i++) {
        moved = marks[post0[i]] + marks[post1[i]] != marks[pre0[i]] + marks[pre1[i]];
    }
    if (moved) {
        for (i = 0; i < size; i++) {
            lead += marks[post0[i]] + marks[post1[i]] - marks[pre0[i]] - marks[pre1[i]];
            if (lead == target) {
                return PyLong_FromLongLong(i + 1);
            }
        }
    }
    return PyLong_FromLong(0);
}

/*
 * run_deltas(marks, pre0, pre1, post0, post1, weight, lead, target)
 *     -> deltas or None
 *
 * Per-entry leader deltas of a weighted run when some delta is non-zero
 * and the target lies between the lowest and highest leader count a
 * prefix can reach (the range test that opens the superbatch engine's
 * truncation bisection); None when no prefix can hit the target.
 */
static PyObject *
run_deltas(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t size, lead, target, i, down = 0, up = 0;
    int64_t *marks, *pre0, *pre1, *post0, *post1, *weight, *deltas;
    PyObject *deltas_array;

    CHECK_NARGS(8, "run_deltas");
    if (!get_int(args[6], &lead) || !get_int(args[7], &target)
            || !(pre0 = I64(args[1], 0, "pre0"))) {
        return NULL;
    }
    size = SIZE(args[1]);
    if (!(marks = I64(args[0], 0, "marks"))
            || !(pre1 = I64(args[2], size, "pre1"))
            || !(post0 = I64(args[3], size, "post0"))
            || !(post1 = I64(args[4], size, "post1"))
            || !(weight = I64(args[5], size, "weight"))
            || !ids_below(SIZE(args[0]), size, pre0, pre1, post0, post1)) {
        return NULL;
    }
    if ((deltas_array = new_array(size, &deltas)) == NULL) {
        return NULL;
    }
    for (i = 0; i < size; i++) {
        int64_t delta = marks[post0[i]] + marks[post1[i]] - marks[pre0[i]] - marks[pre1[i]];
        deltas[i] = delta;
        if (delta < 0) {
            down += weight[i] * delta;
        }
        else {
            up += weight[i] * delta;
        }
    }
    if ((down || up) && lead + down <= target && target <= lead + up) {
        return deltas_array;
    }
    Py_DECREF(deltas_array);
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* commit stage                                                        */
/* ------------------------------------------------------------------ */

/*
 * commit(counts, marks, pre0, pre1, post0, post1, weight, want_added)
 *     -> (lead_delta, active, added or None)
 *
 * Moves weight[i] agents (one when weight is None) from each pre pair to
 * its post pair in counts.  `active` is the weight of entries whose pair
 * changed; with want_added, `added` is the committed post-state
 * multiset over the whole counts range (the superbatch engine's touched
 * agents).
 */
static PyObject *
commit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int64_t size, span, i, lead_delta = 0, active = 0;
    int64_t *counts, *marks, *pre0, *pre1, *post0, *post1;
    int64_t *weight = NULL, *added = NULL;
    PyObject *added_array = Py_None;
    int want_added;

    CHECK_NARGS(8, "commit");
    if (!(counts = I64(args[0], 0, "counts")) || !(pre0 = I64(args[2], 0, "pre0"))) {
        return NULL;
    }
    span = SIZE(args[0]);
    size = SIZE(args[2]);
    if (!(marks = I64(args[1], span, "marks"))
            || !(pre1 = I64(args[3], size, "pre1"))
            || !(post0 = I64(args[4], size, "post0"))
            || !(post1 = I64(args[5], size, "post1"))
            || !ids_below(span, size, pre0, pre1, post0, post1)) {
        return NULL;
    }
    if (args[6] != Py_None && !(weight = I64(args[6], size, "weight"))) {
        return NULL;
    }
    if ((want_added = PyObject_IsTrue(args[7])) < 0) {
        return NULL;
    }
    if (want_added) {
        if ((added_array = new_array(span, &added)) == NULL) {
            return NULL;
        }
        memset(added, 0, (size_t)span * sizeof(int64_t));
    }
    else {
        Py_INCREF(added_array);
    }
    for (i = 0; i < size; i++) {
        int64_t a = pre0[i], b = pre1[i], c = post0[i], d = post1[i];
        int64_t w = weight ? weight[i] : 1;
        if (added) {
            added[c] += w;
            added[d] += w;
        }
        if (a == c && b == d) {
            continue;
        }
        counts[a] -= w;
        counts[b] -= w;
        counts[c] += w;
        counts[d] += w;
        lead_delta += w * (marks[c] + marks[d] - marks[a] - marks[b]);
        active += w;
    }
    return Py_BuildValue("(LLN)", (long long)lead_delta, (long long)active,
                         added_array);
}

/* ------------------------------------------------------------------ */
/* the colliding interaction's draws                                   */
/* ------------------------------------------------------------------ */

/*
 * batch_collision(capsule, touched_initiator, touched_responder, post0,
 *                 post1, counts) -> (pre_initiator, pre_responder)
 *
 * Pre-states of the interaction that ended a batch block: a touched
 * agent keeps the post-state the block left it in (pick position p ->
 * post0[p // 2] or post1[p // 2]); a fresh agent's state is drawn from
 * the untouched remainder, counts minus the block's post-states.
 */
static PyObject *
batch_collision(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    int64_t position[2], state[2], size, span, role, i;
    int64_t *post0, *post1, *counts, *pool = NULL;

    CHECK_NARGS(6, "batch_collision");
    if (!(bg = get_bitgen(args[0])) || !get_int(args[1], &position[0])
            || !get_int(args[2], &position[1])
            || !(post0 = I64(args[3], 0, "post0"))) {
        return NULL;
    }
    size = SIZE(args[3]);
    if (!(post1 = I64(args[4], size, "post1"))
            || !(counts = I64(args[5], 0, "counts"))) {
        return NULL;
    }
    span = SIZE(args[5]);
    if (!ids_below(span, size, post0, post1, post0, post1)) {
        return NULL;
    }
    if (position[0] >= 2 * size || position[1] >= 2 * size) {
        PyErr_SetString(PyExc_IndexError, "pick position outside the block");
        return NULL;
    }
    for (role = 0; role < 2; role++) {
        int64_t p = position[role];
        state[role] = p < 0 ? -1 : ((p & 1) ? post1[p >> 1] : post0[p >> 1]);
        if (p < 0 && pool == NULL) {
            if ((pool = scratch(span)) == NULL) {
                return NULL;
            }
            memcpy(pool, counts, (size_t)span * sizeof(int64_t));
            for (i = 0; i < size; i++) {
                pool[post0[i]] -= 1;
                pool[post1[i]] -= 1;
            }
        }
    }
    if (state[0] < 0) {
        if ((state[0] = draw_one(bg, pool, span)) < 0) {
            return NULL;
        }
        pool[state[0]] -= 1;
    }
    if (state[1] < 0 && (state[1] = draw_one(bg, pool, span)) < 0) {
        return NULL;
    }
    return Py_BuildValue("(LL)", (long long)state[0], (long long)state[1]);
}

/*
 * replay_draws(capsule, n, touched_count, touched, counts)
 *     -> (pre_initiator, pre_responder)
 *
 * The superbatch engine's collision replay draws: the touched-pattern
 * ticket, then the states of the touched participant(s), drawn from the
 * run's post multiset `touched`, and of a fresh one, drawn from counts
 * minus `touched`.
 */
static PyObject *
replay_draws(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    int64_t n, t, cross, ticket, first, second, span, i;
    int64_t *touched, *counts, *pool;

    CHECK_NARGS(5, "replay_draws");
    if (!(bg = get_bitgen(args[0])) || !get_int(args[1], &n)
            || !get_int(args[2], &t) || !(touched = I64(args[3], 0, "touched"))) {
        return NULL;
    }
    span = SIZE(args[3]);
    if (!(counts = I64(args[4], span, "counts")) || !(pool = scratch(span))) {
        return NULL;
    }
    if (t < 1 || t > n) {
        PyErr_SetString(PyExc_ValueError, "replay_draws: touched count outside [1, n]");
        return NULL;
    }
    cross = t * (n - t);
    ticket = draw_below(bg, t * (2 * n - t - 1));
    if (ticket < 2 * cross) {
        int64_t touched_state = draw_one(bg, touched, span), fresh_state;
        if (touched_state < 0) {
            return NULL;
        }
        for (i = 0; i < span; i++) {
            pool[i] = counts[i] - touched[i];
        }
        if ((fresh_state = draw_one(bg, pool, span)) < 0) {
            return NULL;
        }
        first = ticket < cross ? touched_state : fresh_state;
        second = ticket < cross ? fresh_state : touched_state;
    }
    else {
        memcpy(pool, touched, (size_t)span * sizeof(int64_t));
        if ((first = draw_one(bg, pool, span)) < 0) {
            return NULL;
        }
        pool[first] -= 1;
        if ((second = draw_one(bg, pool, span)) < 0) {
            return NULL;
        }
    }
    return Py_BuildValue("(LL)", (long long)first, (long long)second);
}

/* ------------------------------------------------------------------ */
/* superbatch engine: the run's ordered pair multiset                  */
/* ------------------------------------------------------------------ */

/*
 * run_pairs(capsule, counts, known, pairs, grid_bound)
 *     -> (pre0, pre1, weight, residual) or None
 *
 * sample_run_pairs over the present states of counts[:known], through
 * the dense pair grid.  None, before any draw, when more than grid_bound
 * states are present: the caller then runs the reference's unaggregated
 * wide assembly.
 */
static PyObject *
run_pairs(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    bitgen_t *bg;
    int64_t known, pairs, grid_bound, width = 0, modal = 0, total = 0;
    int64_t modal_count, slots, modal_sampled, modal_initiators;
    int64_t modal_responders, modal_modal, under_modal, over_modal, residual;
    int64_t entries = 0, minority, i, j, k, fill;
    int64_t *counts, *work, *support, *pool, *remaining, *left_types;
    int64_t *variates, *right, *grid, *pre0, *pre1, *weight;
    PyObject *pre0_array, *pre1_array, *weight_array;

    CHECK_NARGS(5, "run_pairs");
    if (!(bg = get_bitgen(args[0])) || !get_int(args[2], &known)
            || !get_int(args[3], &pairs) || !get_int(args[4], &grid_bound)
            || !(counts = I64(args[1], known, "counts"))) {
        return NULL;
    }
    for (i = 0; i < known; i++) {
        width += counts[i] != 0;
    }
    if (width < 1) {
        PyErr_SetString(PyExc_ValueError, "run_pairs: no agents in counts");
        return NULL;
    }
    if (width > grid_bound) {
        Py_RETURN_NONE;
    }
    work = scratch(5 * width + pairs + width * width);
    if (work == NULL) {
        return NULL;
    }
    support = work;
    pool = support + width;
    remaining = pool + width;
    left_types = remaining + width;
    variates = left_types + width;
    right = variates + width;
    grid = right + pairs;
    width = 0;
    for (i = 0; i < known; i++) {
        if (counts[i]) {
            support[width] = i;
            pool[width] = counts[i];
            total += counts[i];
            if (counts[i] > pool[modal]) {
                modal = width;  /* np.argmax: the first maximum */
            }
            width++;
        }
    }
    if (pairs < 1 || 2 * pairs > total) {
        PyErr_SetString(PyExc_ValueError, "run_pairs: run longer than half the population");
        return NULL;
    }
    memset(grid, 0, (size_t)(width * width) * sizeof(int64_t));
    residual = 0;
    slots = 2 * pairs;
    modal_count = pool[modal];
    modal_sampled = width == 1
        ? slots
        : random_hypergeometric(bg, modal_count, total - modal_count, slots);
    if (modal_sampled == slots) {
        grid[modal * width + modal] = pairs;
        goto assemble;
    }
    modal_initiators = modal_sampled
        ? random_hypergeometric(bg, modal_sampled, slots - modal_sampled, pairs)
        : 0;
    modal_responders = modal_sampled - modal_initiators;
    modal_modal = (modal_initiators && modal_responders)
        ? random_hypergeometric(bg, modal_responders, pairs - modal_responders,
                                modal_initiators)
        : 0;
    under_modal = modal_initiators - modal_modal;
    over_modal = modal_responders - modal_modal;
    residual = pairs - modal_initiators - over_modal;

    /* Minority counts in support order, the modal slot left out; LOCAL
     * maps a minority position back to its support-local index. */
    minority = width - 1;
    for (i = 0, j = 0; i < width; i++) {
        if (i != modal) {
            remaining[j++] = pool[i];
        }
    }
#define LOCAL(m) ((m) + ((m) >= modal))
    grid[modal * width + modal] = modal_modal;
    if (under_modal) {
        if (!draw_mvh(bg, remaining, minority, under_modal, variates)) {
            return NULL;
        }
        for (j = 0; j < minority; j++) {
            remaining[j] -= variates[j];
            grid[modal * width + LOCAL(j)] += variates[j];
        }
    }
    if (over_modal) {
        if (!draw_mvh(bg, remaining, minority, over_modal, variates)) {
            return NULL;
        }
        for (j = 0; j < minority; j++) {
            remaining[j] -= variates[j];
            grid[LOCAL(j) * width + modal] += variates[j];
        }
    }
    if (residual) {
        /* repeat(minority_local, left_types) is sorted, so only its
         * types are kept; the right side is materialized and permuted. */
        if (!draw_mvh(bg, remaining, minority, residual, left_types)) {
            return NULL;
        }
        for (j = 0; j < minority; j++) {
            remaining[j] -= left_types[j];
        }
        if (!draw_mvh(bg, remaining, minority, residual, variates)) {
            return NULL;
        }
        fill = 0;
        for (j = 0; j < minority; j++) {
            for (k = 0; k < variates[j]; k++) {
                right[fill++] = LOCAL(j);
            }
        }
        shuffle(bg, right, residual);
        fill = 0;
        for (j = 0; j < minority; j++) {
            for (k = 0; k < left_types[j]; k++) {
                grid[LOCAL(j) * width + right[fill++]] += 1;
            }
        }
    }
#undef LOCAL
assemble:
    for (i = 0; i < width * width; i++) {
        entries += grid[i] != 0;
    }
    pre0_array = new_array(entries, &pre0);
    pre1_array = new_array(entries, &pre1);
    weight_array = new_array(entries, &weight);
    if (pre0_array == NULL || pre1_array == NULL || weight_array == NULL) {
        Py_XDECREF(pre0_array);
        Py_XDECREF(pre1_array);
        Py_XDECREF(weight_array);
        return NULL;
    }
    for (i = 0, j = 0; i < width * width; i++) {
        if (grid[i]) {
            pre0[j] = support[i / width];
            pre1[j] = support[i % width];
            weight[j] = grid[i];
            j++;
        }
    }
    return Py_BuildValue("(NNNL)", pre0_array, pre1_array, weight_array,
                         (long long)residual);
}

/* ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"batch_sample", (PyCFunction)(void (*)(void))batch_sample, METH_FASTCALL,
     "Pair draws, first collision and state sample of one batch block."},
    {"gather", (PyCFunction)(void (*)(void))gather, METH_FASTCALL,
     "Post ids from the kernel pair tables, or None on any miss."},
    {"batch_detect", (PyCFunction)(void (*)(void))batch_detect, METH_FASTCALL,
     "Length of the block prefix ending at the first leader-target hit."},
    {"run_deltas", (PyCFunction)(void (*)(void))run_deltas, METH_FASTCALL,
     "Leader deltas of a weighted run when a prefix can hit the target."},
    {"commit", (PyCFunction)(void (*)(void))commit, METH_FASTCALL,
     "Commit (weighted) pre/post pairs to counts."},
    {"batch_collision", (PyCFunction)(void (*)(void))batch_collision, METH_FASTCALL,
     "Pre-states of the batch block's colliding interaction."},
    {"replay_draws", (PyCFunction)(void (*)(void))replay_draws, METH_FASTCALL,
     "Pre-states of the superbatch run's colliding interaction."},
    {"run_pairs", (PyCFunction)(void (*)(void))run_pairs, METH_FASTCALL,
     "Ordered state-pair multiset of a collision-free run."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_blocks",
    "Native block kernels for the batch and superbatch engines.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__blocks(void)
{
    import_array();
    return PyModule_Create(&module);
}
