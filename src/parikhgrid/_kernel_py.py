"""Pure-Python search kernel.

Mirrors the compiled kernel (_kernel.c) exactly: same entry points,
same exploration order, same node accounting.  The search enumerates
candidate words of one fixed length, depth-first, letters in alphabet
order, restricted to canonical form (each letter's first occurrence after
the previous letter's).  Each placed letter moves the window along one
labeled edge of the grid, read from the shift table in O(1).  A word starts
from the window k*e_0 (rank 0): while pos < k the letter that leaves is one
of its a's, and the windows that end before position k - 1 are not counted.

Prune rules (bitmask, each independently sound):
  1  duplicate-window  reject a letter whose window repeats a seen vector
                       (perfect-cover targets only)
  2  uncovered-count   remaining positions < uncovered vectors
  4  letter-budget     some letter can no longer reach its minimum count
  8  connectivity      some uncovered vector is farther than the remaining
                       step budget in the grid
"""

PROGRESS_INTERVAL = 10_000_000

RULE_DUPLICATE = 1
RULE_REMAINING = 2
RULE_LETTER_BUDGET = 4
RULE_CONNECTIVITY = 8
ALL_RULES = 15

KERNEL_NAME = "pure-python"


def fixed_length_search(k, sigma, length, tables, pdb_only, rules, prefix,
                        collect_limit, node_budget, progress=None):
    """Explore canonical words of exactly ``length`` letters.

    tables: (n_vectors, shift, m_min, dist, diameter) as built by
    search._build_tables.  collect_limit <= 0 collects every solution.
    Returns (complete, solutions, nodes, max_depth) where solutions is a
    list of bytes (letter indices) in discovery order and complete is False
    only when the node budget ran out.
    """
    n_vec, shift, m_min, dist, diameter = tables
    rule_dup = bool(rules & RULE_DUPLICATE) and pdb_only
    rule_rem = bool(rules & RULE_REMAINING)
    rule_bud = bool(rules & RULE_LETTER_BUDGET)
    rule_con = bool(rules & RULE_CONNECTIVITY) and dist is not None

    word = [0] * length
    at = [0] * length        # per position: the window that ends there
    used_at = [0] * length   # per position: letters used before it
    counts = [0] * sigma
    mult = [0] * n_vec
    uncovered, dups, nodes, max_depth = n_vec, 0, 0, 0
    solutions = []

    def unplace(pos, c):
        nonlocal uncovered, dups
        if pos >= k - 1:
            mult[at[pos]] -= 1
            if mult[at[pos]] == 0:
                uncovered += 1
            else:
                dups -= 1
        counts[c] -= 1

    def pruned(pos):
        rem = length - 1 - pos
        if rule_rem and pos >= k - 1 and rem < uncovered:
            return True
        if rule_bud:
            for x in range(sigma):
                if counts[x] + rem < m_min:
                    return True
        if rule_con and pos >= k - 1 and rem < diameter and uncovered > 0:
            cur = at[pos] * n_vec
            for idx in range(n_vec):
                if mult[idx] == 0 and dist[cur + idx] > rem:
                    return True
        return False

    # Prefix letters are forced.  A prefix position is a node of this task
    # only when every prefix letter after it is 0: of the tasks that share
    # it, this one is the first in prefix order, and so in depth-first order,
    # to reach it.
    owned = len(prefix) - 1
    while owned > 0 and prefix[owned] == 0:
        owned -= 1

    # The loop of dfs in _kernel.c: level ``pos`` tries letters c .. top-1;
    # descending saves ``used`` in used_at[pos], and backing up resumes
    # after word[pos].
    pos = used = 0
    c = prefix[0] if prefix else 0
    while length > 0:
        top = (prefix[pos] + 1 if pos < len(prefix)
               else used + 1 if used < sigma else sigma)
        counted = pos >= owned
        # entry c of this row is the window that ends at pos with letter c
        row = ((at[pos - 1] if pos else 0) * sigma
               + (word[pos - k] if pos >= k else 0)) * sigma
        while c < top:
            if counted:
                nodes += 1
                if node_budget and nodes > node_budget:
                    return False, solutions, nodes, max_depth
                if progress is not None and nodes % PROGRESS_INTERVAL == 0:
                    progress(nodes, pos, len(solutions))
            idx = shift[row + c]
            if rule_dup and pos >= k - 1 and mult[idx] > 0:
                c += 1
                continue
            word[pos] = c
            at[pos] = idx
            counts[c] += 1
            if pos >= k - 1:
                mult[idx] += 1
                if mult[idx] == 1:
                    uncovered -= 1
                else:
                    dups += 1
            max_depth = max(max_depth, pos + 1)
            if not pruned(pos):
                if pos + 1 < length:
                    break
                if uncovered == 0 and (not pdb_only or dups == 0):
                    solutions.append(bytes(word))
                    if 0 < collect_limit <= len(solutions):
                        return True, solutions, nodes, max_depth
            unplace(pos, c)
            c += 1
        if c < top:
            used_at[pos] = used
            used = max(used, c + 1)
            pos += 1
            c = prefix[pos] if pos < len(prefix) else 0
            continue
        if pos == 0:
            break
        pos -= 1
        c = word[pos]
        used = used_at[pos]
        unplace(pos, c)
        c += 1
    return True, solutions, nodes, max_depth


def find_covering_naive(k, sigma, length, tables):
    """First covering word of the given length in plain lexicographic order,
    or None.  Enumerates all sigma**length words: no canonical-form
    restriction, no pruning.  Independent check for refutations."""
    n_vec, shift = tables[:2]
    word = [0] * length
    at = [0] * length
    mult = [0] * n_vec

    def rec(pos, uncovered):
        # word[pos - k] is still the letter placed there: positions are
        # overwritten left to right, never cleared
        row = ((at[pos - 1] if pos else 0) * sigma
               + (word[pos - k] if pos >= k else 0)) * sigma
        for c in range(sigma):
            idx = shift[row + c]
            word[pos] = c
            at[pos] = idx
            covered_now = uncovered
            if pos >= k - 1:
                mult[idx] += 1
                if mult[idx] == 1:
                    covered_now = uncovered - 1
            if pos + 1 == length:
                hit = covered_now == 0
            else:
                hit = rec(pos + 1, covered_now)
            if pos >= k - 1:
                mult[idx] -= 1
            if hit:
                return True
        return False

    if length < 1:
        return None
    return bytes(word) if rec(0, n_vec) else None
