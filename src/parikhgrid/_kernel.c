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
*/

#include <stdlib.h>

#define PROGRESS_INTERVAL 10000000LL

#define RULE_DUPLICATE 1
#define RULE_REMAINING 2
#define RULE_LETTER_BUDGET 4
#define RULE_CONNECTIVITY 8

/* Results of pg_fixed_length_search. */
#define PG_COMPLETE 1
#define PG_EXHAUSTED 0
#define PG_ABORTED (-1)
#define PG_NO_MEMORY (-2)

typedef int (*pg_found_fn)(const unsigned char *word);
typedef int (*pg_progress_fn)(long long nodes, int pos, long long found);

typedef struct {
    int k, sigma, length, n_vec;
    const int *shift, *dist;
    int m_min, diameter;
    int pdb_only, rule_dup, rule_rem, rule_bud, rule_con;
    long long collect_limit, node_budget;
    pg_found_fn found_fn;
    pg_progress_fn progress_fn;

    long long nodes, found;
    int max_depth, exhausted;
    int uncovered, dups;
    unsigned char *word;
    int *counts, *mult;
    int *used_at;          /* per position: letters used before it */
    int *at;               /* per position: the window that ends there */
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

static void place(State *s, int pos, int c, int idx)
{
    s->word[pos] = (unsigned char)c;
    s->at[pos] = idx;
    s->counts[c]++;
    if (pos >= s->k - 1) {
        if (++s->mult[idx] == 1)
            s->uncovered--;
        else
            s->dups++;
    }
    if (pos + 1 > s->max_depth)
        s->max_depth = pos + 1;
}

static void unplace(State *s, int pos, int c)
{
    if (pos >= s->k - 1) {
        if (--s->mult[s->at[pos]] == 0)
            s->uncovered++;
        else
            s->dups--;
    }
    s->counts[c]--;
}

static int pruned(const State *s, int pos)
{
    int rem = s->length - 1 - pos;
    if (s->rule_rem && pos >= s->k - 1 && rem < s->uncovered)
        return 1;
    if (s->rule_bud)
        for (int x = 0; x < s->sigma; x++)
            if (s->counts[x] + rem < s->m_min)
                return 1;
    if (s->rule_con && pos >= s->k - 1 && rem < s->diameter
            && s->uncovered > 0) {
        const int *row = s->dist + (size_t)s->at[pos] * (size_t)s->n_vec;
        for (int idx = 0; idx < s->n_vec; idx++)
            if (s->mult[idx] == 0 && row[idx] > rem)
                return 1;
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
            unplace(s, pos, c);
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
        unplace(s, pos, c);
        c++;
    }
}

/* Explores canonical words of exactly `length` letters that extend
   `prefix`; see _kernel_py.fixed_length_search for the contract.  `dist` is
   NULL when the connectivity rule has no distance table.  Every solution is
   passed to `found_fn`; `progress_fn` may be NULL.  Returns PG_COMPLETE,
   PG_EXHAUSTED (node budget ran out), PG_ABORTED (a callback returned
   nonzero) or PG_NO_MEMORY, and stores the node count and maximum depth. */
int pg_fixed_length_search(int k, int sigma, int length, int n_vec,
                           const int *shift, int m_min, const int *dist,
                           int diameter, int pdb_only, int rules,
                           const unsigned char *prefix, int prefix_len,
                           long long collect_limit, long long node_budget,
                           pg_found_fn found_fn, pg_progress_fn progress_fn,
                           long long *nodes_out, int *max_depth_out)
{
    State s = {0};
    int status = PG_NO_MEMORY;
    int owned = prefix_len - 1;

    s.k = k;
    s.sigma = sigma;
    s.length = length;
    s.n_vec = n_vec;
    s.shift = shift;
    s.dist = dist;
    s.m_min = m_min;
    s.diameter = diameter;
    s.pdb_only = pdb_only != 0;
    s.rule_dup = (rules & RULE_DUPLICATE) && pdb_only;
    s.rule_rem = (rules & RULE_REMAINING) != 0;
    s.rule_bud = (rules & RULE_LETTER_BUDGET) != 0;
    s.rule_con = (rules & RULE_CONNECTIVITY) && dist != NULL;
    s.collect_limit = collect_limit;
    s.node_budget = node_budget;
    s.found_fn = found_fn;
    s.progress_fn = progress_fn;
    s.uncovered = n_vec;

    s.word = calloc((size_t)length + 1, 1);
    s.counts = calloc((size_t)sigma + (size_t)n_vec + 2 * (size_t)length + 1,
                      sizeof(int));
    if (s.word == NULL || s.counts == NULL)
        goto done;
    s.mult = s.counts + sigma;
    s.used_at = s.mult + n_vec;
    s.at = s.used_at + length;

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
    free(s.counts);
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
