/* The search kernel, built and loaded by kernel.py through ctypes.

The search enumerates candidate words of one fixed length, depth-first,
letters in alphabet order, restricted to canonical form (each letter's
first occurrence after the previous letter's).  Each placed letter moves
the window along one labeled edge of the grid, read from the shift table in
O(1).  A word starts from the window k*e_0 (rank 0): while pos < k the
letter that leaves is one of its a's, and the windows that end before
position k - 1 are not counted.

Prune rules (bitmask, each independently sound).  U is the set of
uncovered vectors and rem the number of letters after the current one; two
vectors are neighbours when one letter shift joins them (the shift entries
with out != in), and the current window is the one that ends at the
current letter:
  1  duplicate-window  reject a letter whose window repeats a seen vector
                       (perfect-cover targets only)
  2  uncovered-count   rem < |U|
  4  components        covering targets: rem < |U| + c - 1, where c is the
                       number of components of the grid induced on U, since
                       a window between two of them is on a covered vector.
                       Perfect-cover targets: the rest of the word is a path
                       through U from the current window, so some vector of
                       U has no neighbour in U + {current}, or two have at
                       most one.

tests/pure_kernel.py is this kernel's reference: the same tables and
search, the same exploration order, the same node accounting, with simpler
bookkeeping.  Keep the two in sync; the parity tests compare full traces
(solutions, completeness, node counts and depths) on shared instances.

Plain C99 with no Python headers, so the shared library does not depend on
the interpreter's version.  pg_build_shift fills the shift table, an int
array that Python owns, with the labeled grid by rank in two counting
passes; the searches read it and never free it.  Solutions and progress go
back through callbacks; a callback that returns nonzero stops the search at
once.

The components rule runs on bitsets over vector ranks of
ceil(n_vec / 64) 64-bit words: U, which place and unplace keep, and each
vector's grid neighbours as one mask for each word that holds any, at most
sigma (sigma - 1), so the state stays O(n_vec * sigma^2).  For covering
targets the number of components of G[U], which the reference counts from
scratch where the bound could fire, is carried along the word: a window on
a new vector updates it by the parts its component splits into
(split_of), grown one level at a time, word-parallel.  For perfect-cover
targets the degrees of the vectors in U + {current} are bit-sliced
counters over the same words, one plane per bit, so a move adds or
subtracts a whole mask of neighbours at once; the dead-end test reads the
planes and U word by word.
The degrees change once per level, not once per letter: any fresh window
at `pos` leaves U and becomes current, so the set loses exactly the
previous window, whatever the letter.  dfs makes that move at the first
letter of a level that passes the duplicate-window check, and undoes it on
the way up only if it made it; a level where every letter repeats a window
moves nothing.  A letter that repeats a window adds it back to the set.
*/

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* split_of is one body for every bitset width, which the compiler
   specialises for bitsets of one and two words (up to 128 vectors;
   shortest (sigma=3, k=10) has 66); pruned keeps it out of line, since the
   perfect-cover searches never call it. */
#ifdef __GNUC__
#define ALWAYS_INLINE inline __attribute__((always_inline))
#define NOINLINE __attribute__((noinline))
#else
#define ALWAYS_INLINE inline
#define NOINLINE
#endif

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
    int k, sigma, length;
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

    /* The components rule (NULL otherwise).  Bitsets over vector ranks,
       `words` 64-bit words each: U, which place and unplace keep.  The grid
       neighbours of v are the masks nbr_mask[i] over words nbr_word[i],
       one for each word that holds any, for i in nbr_first[v] ..
       nbr_first[v + 1] - 1; with one word and sigma >= 2 that is the one
       mask nbr_mask[v]. */
    uint64_t *unc, *nbr_mask;
    int *nbr_first, *nbr_word;
    int words;
    /* Covering targets: per position, the number of components of G[U]
       after the window that ends there, exact wherever the search goes
       on.  split_of's scratch: a group's next level, 0 between levels,
       and per group the vectors it reached and then those it reached
       last. */
    int *comps;
    uint64_t *next, *groups;
    /* Perfect-cover targets: the degree of each vector, its number of
       neighbours in U + {current}, as a bit-sliced counter: bit b of the
       degrees of the vectors in word j is in deg[j * planes + b], and
       planes bits, one at least, hold sigma (sigma - 1).  At a level with
       no letter placed yet, the previous window still counts as
       current. */
    uint64_t *deg;
    int planes;
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

/* The bit of vector v in its word of a bitset. */
static uint64_t bit(int v)
{
    return (uint64_t)1 << (v & 63);
}

/* Vector v enters (delta 1) or leaves (delta -1) the set U + {current}:
   each mask of its neighbours is added to or subtracted from the counters
   of its word, carrying from plane to plane.  A degree stays within 0 ..
   sigma (sigma - 1), so nothing carries out of the last plane.  The carry
   runs through every plane: stopping where it dies out costs more, in
   branches that cannot be predicted, than it saves. */
static void move_degrees(State *s, int v, int delta)
{
    uint64_t flip = delta > 0 ? 0 : ~(uint64_t)0;
    for (int i = s->nbr_first[v]; i < s->nbr_first[v + 1]; i++) {
        uint64_t *deg = s->deg + (size_t)s->nbr_word[i] * s->planes;
        uint64_t carry = s->nbr_mask[i];
        for (int b = 0; b < s->planes; b++) {
            uint64_t t = deg[b];
            deg[b] = t ^ carry;
            carry &= t ^ flip;   /* an add carries from a 1, a subtraction
                                    borrows from a 0 */
        }
    }
}

/* Perfect covers: whether some vector of U has no neighbour in
   U + {current}, or more than one has at most one.  A degree is at most
   one when no plane above the first holds its bit. */
static int dead_end(const State *s)
{
    int ends = 0;
    for (int j = 0; j < s->words; j++) {
        const uint64_t *deg = s->deg + (size_t)j * s->planes;
        uint64_t high = 0, low;
        for (int b = 1; b < s->planes; b++)
            high |= deg[b];
        low = s->unc[j] & ~high;
        if (low == 0)
            continue;
        if ((low & ~deg[0]) != 0 || ends || (low & (low - 1)) != 0)
            return 1;
        ends = 1;
    }
    return 0;
}

static int lowest_bit(uint64_t m)
{
#ifdef __GNUC__
    return __builtin_ctzll(m);
#else
    int i = 0;
    for (; !(m & 1); m >>= 1)
        i++;
    return i;
#endif
}

/* The word of vector v in a bitset of w words: for one word a constant 0,
   so that the word stays in a register. */
static ALWAYS_INLINE int word_of(int v, int w)
{
    return w == 1 ? 0 : v >> 6;
}

/* Group g of split_of's scratch: the vectors it reached, then in the next
   w words those it reached last. */
static ALWAYS_INLINE uint64_t *group(const State *s, int g, int w)
{
    return s->groups + (size_t)g * 2 * w;
}

/* Copies group `from` over group `to`. */
static ALWAYS_INLINE void move_group(State *s, int to, int from, int w)
{
    if (to != from)
        memcpy(group(s, to, w), group(s, from, w),
               2 * (size_t)w * sizeof *s->groups);
}

/* The number of components that the component of G[U] holding idx splits
   into once idx is covered: exact when it is at most `limit`, otherwise
   some number above `limit`.  Neighbours v - e_a + e_b of idx that share
   the out-letter a are adjacent, so the uncovered ones start in one group
   per a.  The groups then grow one level at a time: the neighbour masks
   of a group's front, the vectors it reached last, are ORed into its next
   level.  Groups that reach a common vector are one, and a group that
   stops growing is a component of its own; that goes on until at most one
   group grows.  w is s->words. */
static ALWAYS_INLINE int split_words(State *s, int idx, int limit, int w)
{
    int sigma = s->sigma, alive = 0, done = 0;
    const int *row = shifts_of(s, idx);
    for (int a = 0; a < sigma; a++, row += sigma) {
        uint64_t *reach = group(s, alive, w), any = 0;
        /* row[a] is idx itself, which is covered, unless idx holds no a */
        if (row[a] < 0)
            continue;
        memset(reach, 0, (size_t)w * sizeof *reach);
        for (int b = 0; b < sigma; b++)
            reach[word_of(row[b], w)] |= bit(row[b]);
        for (int j = 0; j < w; j++) {
            reach[j] &= s->unc[j];
            any |= reach[j];
        }
        if (any != 0) {
            memcpy(reach + w, reach, (size_t)w * sizeof *reach);
            alive++;
        }
    }
    while (alive > 1 && done < limit) {
        for (int g = 0; g < alive; g++) {
            uint64_t *reach = group(s, g, w), *front = reach + w;
            /* the words of the next level that the front's masks reach;
               with at most two, scanning both costs less than tracking */
            int from = w > 2 ? w : 0, to = w > 2 ? 0 : w;
            for (int i = 0; i < w; i++) {
                for (uint64_t m = front[i]; m != 0; m &= m - 1) {
                    int v = i * 64 + lowest_bit(m);
                    if (w == 1) {
                        /* with sigma >= 2, v's one mask is the v-th */
                        s->next[0] |= s->nbr_mask[v];
                        continue;
                    }
                    for (int p = s->nbr_first[v]; p < s->nbr_first[v + 1];
                         p++) {
                        int j = s->nbr_word[p];
                        s->next[j] |= s->nbr_mask[p];
                        if (w > 2) {
                            from = j < from ? j : from;
                            to = j + 1 > to ? j + 1 : to;
                        }
                    }
                }
                front[i] = 0;
            }
            for (int j = from; j < to; j++) {
                front[j] = s->next[j] & s->unc[j] & ~reach[j];
                reach[j] |= front[j];
                s->next[j] = 0;
            }
        }
        /* Before this level no two groups shared a vector, and each had
           reached every uncovered neighbour of the vectors it grew from;
           so two share one now exactly when the front of one meets the
           other.  A group takes in every later one that its front meets,
           looking again after each; it then shares no vector with the
           groups left, and is a whole component if it reached nothing
           new. */
        for (int g = 0; g < alive;) {
            uint64_t *reach = group(s, g, w), *front = reach + w;
            uint64_t grows = 0;
            for (int h = g + 1; h < alive;) {
                const uint64_t *its = group(s, h, w);
                uint64_t touch = 0;
                for (int j = 0; j < w; j++)
                    touch |= front[j] & its[j];
                if (touch == 0) {
                    h++;
                    continue;
                }
                for (int j = 0; j < 2 * w; j++)   /* and the front */
                    reach[j] |= its[j];
                move_group(s, h, --alive, w);
                h = g + 1;
            }
            for (int j = 0; j < w; j++)
                grows |= front[j];
            if (grows != 0) {
                g++;
            } else {
                done++;
                move_group(s, g, --alive, w);
            }
        }
    }
    return done + alive;
}

static NOINLINE int split_of(State *s, int idx, int limit)
{
    if (s->words == 1)
        return split_words(s, idx, limit, 1);
    if (s->words == 2)
        return split_words(s, idx, limit, 2);
    return split_words(s, idx, limit, s->words);
}

/* Lists the grid neighbours of every vector as masks, one for each word
   that holds any, in nbr_mask and nbr_word, which have room for
   min(sigma (sigma - 1), words) of them per vector.  slot[j] is the index
   of the mask of word j, below nbr_first[v] while v has none there. */
static void list_neighbours(State *s, int n_vec, int *slot)
{
    int count = 0, width = s->sigma * s->sigma;
    for (int j = 0; j < s->words; j++)
        slot[j] = -1;
    for (int v = 0; v < n_vec; v++) {
        const int *row = shifts_of(s, v);
        int first = s->nbr_first[v] = count;
        for (int j = 0; j < width; j++) {
            int x = row[j], *at;
            if (x < 0 || x == v)
                continue;
            at = slot + (x >> 6);
            if (*at < first) {
                *at = count++;
                s->nbr_word[*at] = x >> 6;
                s->nbr_mask[*at] = 0;
            }
            s->nbr_mask[*at] |= bit(x);
        }
    }
    s->nbr_first[n_vec] = count;
}

static void place(State *s, int pos, int c, int idx)
{
    s->word[pos] = (unsigned char)c;
    s->at[pos] = idx;
    if (pos + 1 > s->max_depth)
        s->max_depth = pos + 1;
    if (pos < s->k - 1)
        return;
    /* dfs took the previous window out of U + {current}; a fresh idx is in
       it already and leaves only U, a repeated one comes back */
    if (++s->mult[idx] == 1) {
        s->uncovered--;
        if (s->unc != NULL)
            s->unc[idx >> 6] &= ~bit(idx);
    } else {
        s->dups++;
        if (s->deg != NULL)
            move_degrees(s, idx, 1);
    }
}

static void unplace(State *s, int pos)
{
    int idx = s->at[pos];
    if (pos < s->k - 1)
        return;
    if (--s->mult[idx] == 0) {
        s->uncovered++;
        if (s->unc != NULL)
            s->unc[idx >> 6] |= bit(idx);
    } else {
        s->dups--;
        if (s->deg != NULL)
            move_degrees(s, idx, -1);
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
        return dead_end(s);
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
   used_at[pos], and backing up resumes after word[pos].  `placed` says
   whether a letter passed the duplicate-window check at this level, which
   for perfect covers has moved the previous window out of U + {current};
   a level that is backed up to has placed its letter.  Positions before
   `owned` are not counted as nodes.  Returns PG_ABORTED when a callback
   asked to stop, otherwise 0. */
static int dfs(State *s, const unsigned char *prefix, int prefix_len,
               int owned)
{
    int pos = 0, used = 0, placed = 0, c = prefix_len > 0 ? prefix[0] : 0;
    for (;;) {
        int top = pos < prefix_len ? prefix[pos] + 1
                  : used < s->sigma ? used + 1 : s->sigma;
        int counted = pos >= owned;
        const int *row = shift_row(s->shift, s->sigma, s->k, s->word, s->at,
                                   pos);
        for (; c < top; c++) {
            if (counted) {
                s->nodes++;
                if (s->nodes > s->node_budget) {
                    s->exhausted = 1;
                    return 0;
                }
                if (s->progress_fn && s->nodes % PROGRESS_INTERVAL == 0
                        && s->progress_fn(s->nodes, pos, s->found))
                    return PG_ABORTED;
            }
            if (s->rule_dup && pos >= s->k - 1 && s->mult[row[c]] > 0)
                continue;
            if (!placed) {
                placed = 1;
                if (s->deg != NULL && pos >= s->k)
                    move_degrees(s, s->at[pos - 1], -1);
            }
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
            placed = 0;
            c = pos < prefix_len ? prefix[pos] : 0;
            continue;
        }
        if (pos == 0)
            return 0;
        if (placed && s->deg != NULL && pos >= s->k)
            move_degrees(s, s->at[pos - 1], 1);
        pos--;
        placed = 1;
        c = s->word[pos];
        used = s->used_at[pos];
        unplace(s, pos);
        c++;
    }
}

/* Explores canonical words of exactly `length` letters that extend
   `prefix`, at most `node_budget` counted nodes; see
   kernel.fixed_length_search for the contract.  Every solution is passed
   to `found_fn`; `progress_fn` may be NULL.  Returns
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
    int components = (rules & RULE_COMPONENTS) != 0;
    int perfect = components && pdb_only;
    int covering = components && !pdb_only;
    int *ints;
    uint64_t *words;

    s.k = k;
    s.sigma = sigma;
    s.length = length;
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
    if (components)
        s.words = (n_vec + 63) / 64;
    s.planes = 1;
    while ((1 << s.planes) <= sigma * (sigma - 1))
        s.planes++;
    /* mult, used_at and at, then nbr_first, list_neighbours' slots and
       comps */
    ints = calloc((size_t)n_vec + 3 * (size_t)length + 1
                  + (components ? (size_t)n_vec + 1 + s.words : 0),
                  sizeof(int));
    /* U, then the degree planes, or the next level and two masks per
       group */
    words = calloc(perfect ? (1 + (size_t)s.planes) * s.words
                   : covering ? (2 + 2 * (size_t)sigma) * s.words : 1,
                   sizeof *words);
    if (s.word == NULL || ints == NULL || words == NULL)
        goto done;
    s.mult = ints;
    s.used_at = s.mult + n_vec;
    s.at = s.used_at + length;
    if (components) {
        /* malloc, not calloc: only the masks written take memory */
        int most = sigma * (sigma - 1) < s.words ? sigma * (sigma - 1)
                   : s.words;
        size_t room = (size_t)n_vec * most + 1;
        s.unc = words;
        for (int v = 0; v < n_vec; v++)
            s.unc[v >> 6] |= bit(v);
        s.nbr_mask = malloc(room * (sizeof *s.nbr_mask + sizeof *s.nbr_word));
        if (s.nbr_mask == NULL)
            goto done;
        s.nbr_word = (int *)(s.nbr_mask + room);
        s.nbr_first = s.at + length;
        list_neighbours(&s, n_vec, s.nbr_first + n_vec + 1);
    }
    if (perfect) {
        s.deg = s.unc + s.words;
        /* U + {current} starts as every vector */
        for (int v = 0; v < n_vec; v++)
            move_degrees(&s, v, 1);
    } else if (covering) {
        s.comps = s.nbr_first + n_vec + 1 + s.words;
        s.next = s.unc + s.words;
        s.groups = s.next + s.words;
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
    free(words);
    free(s.nbr_mask);
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
   see kernel.find_covering_naive.  Writes it to `word` and returns 1,
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

/* Steps p to the next order-k vector in colex order, the last coordinate
   varying slowest: with i the first non-zero coordinate, one unit moves up
   to i + 1 and the rest of p[i] drops back to coordinate 0.  The last
   vector, k*e_{sigma-1}, stays as it is. */
static void next_vector(int *p, int sigma)
{
    int i = 0, t;
    while (i < sigma - 1 && p[i] == 0)
        i++;
    if (i == sigma - 1)
        return;
    t = p[i];
    p[i] = 0;
    p[i + 1]++;
    p[0] = t - 1;
}

/* Fills shift, n_vec * sigma^2 ints, with the shift table of the n_vec
   order-k vectors over sigma letters: entry (i*sigma + out)*sigma + c is
   the rank of p_i - e_out + e_c, -1 when p_i[out] is 0.  Adding e_c keeps
   colex order, so as p runs over the order-k vectors in rank order, those
   with p[c] > 0 arrive in the rank order of p - e_c, and one running count
   per letter is that rank.  The first pass records, for every order-(k-1)
   vector q, its up row: the ranks of q + e_0 .. q + e_{sigma-1}.  The
   second copies into row (i, out) the up row of p_i - e_out.  n_vec is
   C(k+sigma-1, sigma-1), which the caller checks; a count is below it,
   so the up rows fit in n_vec * sigma ints.  Returns 0, or PG_NO_MEMORY. */
int pg_build_shift(int k, int sigma, int n_vec, int *shift)
{
    /* the up rows, then p and the running counts */
    int *up = malloc(((size_t)n_vec + 2) * (size_t)sigma * sizeof *up);
    int *p, *count;
    if (up == NULL)
        return PG_NO_MEMORY;
    p = up + (size_t)n_vec * sigma;
    count = p + sigma;
    for (int pass = 0; pass < 2; pass++) {
        memset(p, 0, 2 * (size_t)sigma * sizeof *p);
        p[0] = k;
        for (int i = 0; i < n_vec; i++) {
            for (int c = 0; c < sigma; c++) {
                int *row = shift + ((size_t)i * sigma + c) * sigma;
                size_t r;
                if (p[c] == 0) {
                    if (pass == 1)
                        for (int x = 0; x < sigma; x++)
                            row[x] = -1;
                    continue;
                }
                r = (size_t)count[c]++;
                if (pass == 0)
                    up[r * sigma + c] = i;
                else
                    memcpy(row, up + r * sigma, (size_t)sigma * sizeof *row);
            }
            next_vector(p, sigma);
        }
    }
    free(up);
    return 0;
}
