/* Compiled search kernel, built and loaded by kernel.py through ctypes.

Twin of _kernel_py.py: same entry points, same exploration order, same node
accounting.  Keep the two in sync; the parity test compares full traces
(solutions, completeness, node counts and depths) on shared instances.

Plain C99 with no Python headers, so the shared library does not depend on
the interpreter's version.  The tables are the ones search._build_tables
makes, passed in as int arrays; the kernel reads them and never frees them.
Each placed letter moves the window along one labeled edge of the grid,
read from the shift table.  Solutions and progress go back through
callbacks; a callback that returns nonzero stops the search at once.

Prune rules (bitmask; see _kernel_py.py for what each one prunes):
  1  duplicate-window
  2  uncovered-count
  4  components
The components rule prunes exactly where the pure kernel's does; only its
bookkeeping for covering targets differs.  The pure kernel counts the
components of G[U] from scratch where the bound could fire.  Here the count
is carried along the word, and each window on a new vector updates it by a
search around that vector (split_of).
*/

#include <limits.h>
#include <stdlib.h>
#include <string.h>

#define PROGRESS_INTERVAL 1000000LL

#define RULE_DUPLICATE 1
#define RULE_REMAINING 2
#define RULE_COMPONENTS 4

/* Results of pg_fixed_length_search. */
#define PG_COMPLETE 1
#define PG_EXHAUSTED 0
#define PG_ABORTED (-1)
#define PG_NO_MEMORY (-2)

typedef int (*pg_found_fn)(const unsigned char *word);
typedef int (*pg_progress_fn)(long long nodes, int pos, long long found);

typedef struct {
    int k, sigma, length, n_vec;
    const int *shift;
    int pdb_only, rule_dup, rule_rem;
    long long collect_limit, node_budget;
    pg_found_fn found_fn;
    pg_progress_fn progress_fn;

    long long nodes, found;
    int max_depth, exhausted;
    int uncovered, dups;
    unsigned char *word;
    int *mult;
    int *used_at;          /* per position: letters used before it */
    int *at;               /* per position: the window that ends there */

    /* The components rule (NULL otherwise): per vector, its grid
       neighbours in sigma^2 ints, -1 after the last. */
    int *nbrs;
    /* The components rule, covering targets (NULL otherwise): per
       position, the number of components of G[U] after the window that
       ends there, exact wherever the search goes on; per vector, a visit
       stamp and the queue of split_of. */
    int *comps, *seen, *queue;
    int stamp;
    /* The components rule, perfect-cover targets (NULL otherwise): per
       vector, its neighbours in U and the current window; the uncovered
       vectors with at most one such neighbour, and with none. */
    int *deg;
    int ends, isolated;
} State;

/* The row of shift whose entry c is the window that ends at `pos` with
   letter c.  A word starts from the window k*e_0 (rank 0), so while pos < k
   the letter that leaves is one of its a's. */
static const int *shift_row(const int *shift, int sigma, int k,
                            const unsigned char *word, const int *at, int pos)
{
    size_t prev = pos > 0 ? (size_t)at[pos - 1] : 0;
    size_t out = pos >= k ? word[pos - k] : 0;
    return shift + (prev * (size_t)sigma + out) * (size_t)sigma;
}

/* The sigma^2 shifts of vector v: entry (out, in) is a grid neighbour of v
   when it is neither -1 (v holds no out) nor v itself (in = out). */
static const int *shifts_of(const State *s, int v)
{
    return s->shift + (size_t)v * (size_t)s->sigma * (size_t)s->sigma;
}

/* The grid neighbours of vector v, -1 after the last. */
static const int *neighbours(const State *s, int v)
{
    return s->nbrs + (size_t)v * (size_t)s->sigma * (size_t)s->sigma;
}

/* Adds `sign` to the counts of uncovered vectors of low degree for v. */
static void count_ends(State *s, int v, int sign)
{
    s->ends += sign * (s->deg[v] <= 1);
    s->isolated += sign * (s->deg[v] == 0);
}

/* Vector v enters (delta 1) or leaves (delta -1) the set U + {current}. */
static void move_degrees(State *s, int v, int delta)
{
    for (const int *x_at = neighbours(s, v); *x_at >= 0; x_at++) {
        int x = *x_at;
        if (s->mult[x] == 0) {
            count_ends(s, x, -1);
            s->deg[x] += delta;
            count_ends(s, x, 1);
        } else {
            s->deg[x] += delta;
        }
    }
}

static int find(int *root, int a)
{
    while (root[a] != a)
        a = root[a] = root[root[a]];
    return a;
}

/* The number of components that the component of G[U] holding idx splits
   into once idx is covered.  Two neighbours v - e_a + e_b and v - e_c + e_d
   of idx are adjacent exactly when a = c or b = d, so its uncovered
   neighbours start in groups that share out-letters or in-letters.  From
   them a breadth-first search runs, one queue for all groups, until at most
   one group is still searching: two groups whose searches meet are one,
   and a group that runs out of vectors is a component of its own.  Once
   more than `limit` components are certain it returns that many.
   kernel.py keeps sigma <= 256, a letter being a byte. */
static int split_of(State *s, int idx, int limit)
{
    int sigma = s->sigma, head = 0, tail = 0, alive = 0, done = 0, base;
    int root[256], pending[256], owner[256];
    const int *row = shifts_of(s, idx);
    /* a vector seen by group g of this search holds stamp base + g */
    if (s->stamp > INT_MAX - sigma - 1) {
        memset(s->seen, 0, (size_t)s->n_vec * sizeof(int));
        s->stamp = 0;
    }
    base = s->stamp + 1;
    s->stamp += sigma;
    for (int a = 0; a < sigma; a++) {
        root[a] = a;
        pending[a] = 0;
        owner[a] = -1;
    }
    for (int a = 0; a < sigma; a++, row += sigma)
        for (int b = 0; b < sigma; b++) {
            int x = row[b], g, h;
            if (x < 0 || b == a || s->mult[x] != 0)
                continue;
            g = find(root, a);
            s->seen[x] = base + a;
            s->queue[tail++] = x;
            alive += pending[g]++ == 0;
            if (owner[b] < 0) {
                owner[b] = g;
            } else if ((h = find(root, owner[b])) != g) {
                root[h] = g;
                pending[g] += pending[h];
                alive--;
            }
        }
    while (alive > 1 && done < limit) {
        int y = s->queue[head++], g = find(root, s->seen[y] - base);
        for (const int *x_at = neighbours(s, y); *x_at >= 0; x_at++) {
            int x = *x_at, h;
            if (s->mult[x] != 0)
                continue;
            if (s->seen[x] < base) {
                s->seen[x] = base + g;
                s->queue[tail++] = x;
                pending[g]++;
            } else if ((h = find(root, s->seen[x] - base)) != g) {
                root[h] = g;
                pending[g] += pending[h];
                alive--;
            }
        }
        if (--pending[g] == 0) {
            done++;
            alive--;
        }
    }
    return done + (alive > 0);
}

static void place(State *s, int pos, int c, int idx)
{
    int fresh;
    s->word[pos] = (unsigned char)c;
    s->at[pos] = idx;
    if (pos + 1 > s->max_depth)
        s->max_depth = pos + 1;
    if (pos < s->k - 1)
        return;
    fresh = ++s->mult[idx] == 1;
    if (fresh)
        s->uncovered--;
    else
        s->dups++;
    if (s->deg != NULL) {
        /* U + {current} loses the previous window, and gains idx unless
           idx was uncovered, in U already */
        int prev = pos >= s->k ? s->at[pos - 1] : idx;
        if (fresh)
            count_ends(s, idx, -1);
        if (prev != idx) {
            move_degrees(s, prev, -1);
            if (!fresh)
                move_degrees(s, idx, 1);
        }
    }
}

static void unplace(State *s, int pos)
{
    int idx = s->at[pos];
    if (pos < s->k - 1)
        return;
    if (s->deg != NULL) {
        int prev = pos >= s->k ? s->at[pos - 1] : idx;
        if (prev != idx) {
            if (s->mult[idx] > 1)
                move_degrees(s, idx, -1);
            move_degrees(s, prev, 1);
        }
    }
    if (--s->mult[idx] == 0) {
        s->uncovered++;
        if (s->deg != NULL)
            count_ends(s, idx, 1);
    } else {
        s->dups--;
    }
}

/* The prune rules, after the letter at `pos` is placed; rem letters
   follow it and U is the set of uncovered vectors. */
static int pruned(State *s, int pos)
{
    int rem = s->length - 1 - pos, u = s->uncovered;
    if (pos < s->k - 1)
        return 0;
    if (s->rule_rem && rem < u)
        return 1;
    /* perfect covers: the rest of the word is a path through all of U
       from the current window, so every vector of U has a neighbour in
       U + {current} and at most one, the far end, has only one */
    if (s->deg != NULL)
        return s->isolated > 0 || s->ends > 1;
    /* covering words: every window between two components of G[U] is on
       a covered vector, so rem >= u + c - 1.  A window on a new vector
       splits its component; before the first window U is the whole grid,
       which is connected.  c is exact wherever the rule lets the search go
       on. */
    if (s->comps != NULL) {
        int idx = s->at[pos], c = pos >= s->k ? s->comps[pos - 1] : 1;
        if (s->mult[idx] == 1)
            c += split_of(s, idx, rem - u + 2 - c) - 1;
        s->comps[pos] = c;
        return rem < u + c - 1;
    }
    return 0;
}

static int is_solution(const State *s)
{
    return s->uncovered == 0 && (!s->pdb_only || s->dups == 0);
}

/* Reports the current word; nonzero when the search must stop (a callback
   asked for it or enough solutions were collected). */
static int report(State *s)
{
    s->found++;
    if (s->found_fn(s->word))
        return PG_ABORTED;
    return s->collect_limit > 0 && s->found >= s->collect_limit;
}

/* Depth-first search over the words of s->length letters that extend
   `prefix`.  Iterative, so that long words cannot overflow the C stack:
   level `pos` tries letters c .. top-1, which is the forced letter at a
   prefix position and otherwise 0 up to one letter beyond the `used`
   letters seen so far (canonical form); descending saves `used` in
   used_at[pos], and backing up resumes after word[pos].  Positions before
   `owned` are not counted as nodes.  Returns PG_ABORTED when a callback
   asked to stop, otherwise 0. */
static int dfs(State *s, const unsigned char *prefix, int prefix_len,
               int owned)
{
    int pos = 0, used = 0, c = prefix_len > 0 ? prefix[0] : 0;
    for (;;) {
        int top = pos < prefix_len ? prefix[pos] + 1
                  : used < s->sigma ? used + 1 : s->sigma;
        int counted = pos >= owned;
        const int *row = shift_row(s->shift, s->sigma, s->k, s->word, s->at,
                                   pos);
        for (; c < top; c++) {
            if (counted) {
                s->nodes++;
                if (s->node_budget && s->nodes > s->node_budget) {
                    s->exhausted = 1;
                    return 0;
                }
                if (s->progress_fn && s->nodes % PROGRESS_INTERVAL == 0
                        && s->progress_fn(s->nodes, pos, s->found))
                    return PG_ABORTED;
            }
            if (s->rule_dup && pos >= s->k - 1 && s->mult[row[c]] > 0)
                continue;
            place(s, pos, c, row[c]);
            if (!pruned(s, pos)) {
                if (pos + 1 < s->length)
                    break;
                if (is_solution(s)) {
                    int stop = report(s);
                    if (stop)
                        return stop < 0 ? PG_ABORTED : 0;
                }
            }
            unplace(s, pos);
        }
        if (c < top) {
            s->used_at[pos] = used;
            used = c < used ? used : c + 1;
            pos++;
            c = pos < prefix_len ? prefix[pos] : 0;
            continue;
        }
        if (pos == 0)
            return 0;
        pos--;
        c = s->word[pos];
        used = s->used_at[pos];
        unplace(s, pos);
        c++;
    }
}

/* Explores canonical words of exactly `length` letters that extend
   `prefix`; see _kernel_py.fixed_length_search for the contract.  Every
   solution is passed to `found_fn`; `progress_fn` may be NULL.  Returns
   PG_COMPLETE, PG_EXHAUSTED (node budget ran out), PG_ABORTED (a callback
   returned nonzero) or PG_NO_MEMORY, and stores the node count and maximum
   depth. */
int pg_fixed_length_search(int k, int sigma, int length, int n_vec,
                           const int *shift, int pdb_only, int rules,
                           const unsigned char *prefix, int prefix_len,
                           long long collect_limit, long long node_budget,
                           pg_found_fn found_fn, pg_progress_fn progress_fn,
                           long long *nodes_out, int *max_depth_out)
{
    State s = {0};
    int status = PG_NO_MEMORY;
    int owned = prefix_len - 1;
    int *ints;

    s.k = k;
    s.sigma = sigma;
    s.length = length;
    s.n_vec = n_vec;
    s.shift = shift;
    s.pdb_only = pdb_only != 0;
    s.rule_dup = (rules & RULE_DUPLICATE) && pdb_only;
    s.rule_rem = (rules & RULE_REMAINING) != 0;
    s.collect_limit = collect_limit;
    s.node_budget = node_budget;
    s.found_fn = found_fn;
    s.progress_fn = progress_fn;
    s.uncovered = n_vec;

    s.word = calloc((size_t)length + 1, 1);
    ints = calloc((4 + ((rules & RULE_COMPONENTS) ? (size_t)sigma * sigma : 0))
                  * (size_t)n_vec + 3 * (size_t)length + 1, sizeof(int));
    if (s.word == NULL || ints == NULL)
        goto done;
    s.mult = ints;
    s.used_at = s.mult + n_vec;
    s.at = s.used_at + length;
    if (rules & RULE_COMPONENTS) {
        s.nbrs = s.at + length;
        for (int v = 0; v < n_vec; v++) {
            const int *row = shifts_of(&s, v);
            int *near = s.nbrs + (size_t)v * sigma * sigma, m = 0;
            for (int j = 0; j < sigma * sigma; j++)
                if (row[j] >= 0 && row[j] != v)
                    near[m++] = row[j];
            near[m] = -1;   /* m <= sigma * (sigma - 1) */
        }
    }
    if ((rules & RULE_COMPONENTS) && pdb_only) {
        /* U + {current} starts as every vector */
        s.deg = s.nbrs + (size_t)n_vec * sigma * sigma;
        for (int v = 0; v < n_vec; v++) {
            for (const int *x_at = neighbours(&s, v); *x_at >= 0; x_at++)
                s.deg[v]++;
            count_ends(&s, v, 1);
        }
    } else if (rules & RULE_COMPONENTS) {
        s.comps = s.nbrs + (size_t)n_vec * sigma * sigma;
        s.seen = s.comps + length;
        s.queue = s.seen + n_vec;
    }

    /* A prefix position is a node of this search only when every prefix
       letter after it is 0: of the searches that share it, this one is the
       first in prefix order, and so in depth-first order, to reach it.
       Each node is then counted once however the tree is split. */
    while (owned > 0 && prefix[owned] == 0)
        owned--;
    status = PG_COMPLETE;
    if (length > 0 && dfs(&s, prefix, prefix_len, owned) == PG_ABORTED)
        status = PG_ABORTED;
    if (status == PG_COMPLETE && s.exhausted)
        status = PG_EXHAUSTED;

done:
    free(s.word);
    free(ints);
    *nodes_out = s.nodes;
    *max_depth_out = s.max_depth;
    return status;
}

typedef struct {
    int k, sigma, length;
    const int *shift;
    unsigned char *word;
    int *mult, *at;
} Naive;

static int naive(Naive *t, int pos, int uncovered)
{
    /* word[pos - k] is still the letter placed there: positions are
       overwritten left to right, never cleared */
    const int *row = shift_row(t->shift, t->sigma, t->k, t->word, t->at, pos);
    for (int c = 0; c < t->sigma; c++) {
        int idx = row[c], covered_now = uncovered, hit;
        t->word[pos] = (unsigned char)c;
        t->at[pos] = idx;
        if (pos >= t->k - 1 && ++t->mult[idx] == 1)
            covered_now = uncovered - 1;
        if (pos + 1 == t->length)
            hit = covered_now == 0;
        else
            hit = naive(t, pos + 1, covered_now);
        if (pos >= t->k - 1)
            t->mult[idx]--;
        if (hit)
            return 1;
    }
    return 0;
}

/* First covering word of `length` >= 1 letters in plain lexicographic order;
   see _kernel_py.find_covering_naive.  Writes it to `word` and returns 1,
   returns 0 when there is none, PG_NO_MEMORY when allocation fails. */
int pg_find_covering_naive(int k, int sigma, int length, int n_vec,
                           const int *shift, unsigned char *word)
{
    Naive t = {k, sigma, length, shift, word, NULL, NULL};
    int hit;
    t.mult = calloc((size_t)n_vec + (size_t)length, sizeof(int));
    if (t.mult == NULL)
        return PG_NO_MEMORY;
    t.at = t.mult + n_vec;
    hit = naive(&t, 0, n_vec);
    free(t.mult);
    return hit;
}
