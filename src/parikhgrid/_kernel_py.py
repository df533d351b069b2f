"""Pure-Python search kernel.

Mirrors the compiled kernel (_kernel.c) exactly: same entry points,
same exploration order, same node accounting.  The search enumerates
candidate words of one fixed length, depth-first, letters in alphabet
order, restricted to canonical form (each letter's first occurrence after
the previous letter's).  Window vectors are tracked through a mixed-radix
code so cover bookkeeping is O(1) per placed letter.

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

    tables: (n_vectors, radix_powers, code_to_index, m_min, dist, diameter)
    as built by search._build_tables.  collect_limit <= 0 collects every
    solution.  Returns (complete, solutions, nodes, max_depth) where
    solutions is a list of bytes (letter indices) in discovery order and
    complete is False only when the node budget ran out.
    """
    n_vec, powers, code_to_index, m_min, dist, diameter = tables
    rule_dup = bool(rules & RULE_DUPLICATE) and pdb_only
    rule_rem = bool(rules & RULE_REMAINING)
    rule_bud = bool(rules & RULE_LETTER_BUDGET)
    rule_con = bool(rules & RULE_CONNECTIVITY) and dist is not None

    word = [0] * length
    counts = [0] * sigma
    mult = [0] * n_vec
    state = {"code": 0, "uncovered": n_vec, "dups": 0, "nodes": 0,
             "max_depth": 0, "exhausted": False}
    solutions = []

    def place(pos, c):
        if pos >= k:
            state["code"] -= powers[word[pos - k]]
        state["code"] += powers[c]
        word[pos] = c
        counts[c] += 1
        if pos >= k - 1:
            idx = code_to_index[state["code"]]
            mult[idx] += 1
            if mult[idx] == 1:
                state["uncovered"] -= 1
            else:
                state["dups"] += 1
        if pos + 1 > state["max_depth"]:
            state["max_depth"] = pos + 1

    def unplace(pos, c):
        if pos >= k - 1:
            idx = code_to_index[state["code"]]
            mult[idx] -= 1
            if mult[idx] == 0:
                state["uncovered"] += 1
            else:
                state["dups"] -= 1
        counts[c] -= 1
        state["code"] -= powers[c]
        if pos >= k:
            state["code"] += powers[word[pos - k]]

    def pruned(pos):
        rem = length - 1 - pos
        if rule_rem and pos >= k - 1 and rem < state["uncovered"]:
            return True
        if rule_bud:
            for x in range(sigma):
                if counts[x] + rem < m_min:
                    return True
        if (rule_con and pos >= k - 1 and rem < diameter
                and state["uncovered"] > 0):
            cur = code_to_index[state["code"]] * n_vec
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

    def dfs(pos, used):
        if pos < len(prefix):
            letters, counted = (prefix[pos],), pos >= owned
        else:
            letters, counted = range(used + 1 if used < sigma else sigma), True
        for c in letters:
            if counted:
                state["nodes"] += 1
                if node_budget and state["nodes"] > node_budget:
                    state["exhausted"] = True
                    return True
                if (progress is not None
                        and state["nodes"] % PROGRESS_INTERVAL == 0):
                    progress(state["nodes"], pos, len(solutions))
            if rule_dup and pos >= k - 1:
                nxt = state["code"] + powers[c]
                if pos >= k:
                    nxt -= powers[word[pos - k]]
                if mult[code_to_index[nxt]] > 0:
                    continue
            place(pos, c)
            stop = False
            if not pruned(pos):
                if pos + 1 == length:
                    if state["uncovered"] == 0 and (not pdb_only
                                                    or state["dups"] == 0):
                        solutions.append(bytes(word))
                        if 0 < collect_limit <= len(solutions):
                            stop = True
                else:
                    stop = dfs(pos + 1, used if c < used else c + 1)
            unplace(pos, c)
            if stop:
                return True
        return False

    if length > 0:
        dfs(0, 0)
    return (not state["exhausted"], solutions, state["nodes"],
            state["max_depth"])


def find_covering_naive(k, sigma, length, tables):
    """First covering word of the given length in plain lexicographic order,
    or None.  Enumerates all sigma**length words: no canonical-form
    restriction, no pruning.  Independent check for refutations."""
    n_vec, powers, code_to_index, _m_min, _dist, _diam = tables
    word = [0] * length
    mult = [0] * n_vec

    def rec(pos, code, uncovered):
        for c in range(sigma):
            word[pos] = c
            ncode = code + powers[c]
            if pos >= k:
                ncode -= powers[word[pos - k]]
            # word[pos - k] is still the letter placed there: positions are
            # overwritten left to right, never cleared
            if pos >= k - 1:
                idx = code_to_index[ncode]
                mult[idx] += 1
                covered_now = uncovered - 1 if mult[idx] == 1 else uncovered
            else:
                idx = -1
                covered_now = uncovered
            if pos + 1 == length:
                hit = covered_now == 0
            else:
                hit = rec(pos + 1, ncode, covered_now)
            if idx >= 0:
                mult[idx] -= 1
            if hit:
                return True
        return False

    if length < 1:
        return None
    return bytes(word) if rec(0, 0, n_vec) else None
