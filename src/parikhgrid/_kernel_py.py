"""Pure-Python search kernel.

Mirrors the compiled kernel (_kernel.c) exactly: same entry points, same
tables, same exploration order, same node accounting.  Only the components
rule's bookkeeping differs, and this kernel is the reference the compiled
one is checked against.  This one lists each vector's neighbours by rank; the
compiled kernel keeps them, for both targets, as one mask per 64-bit word
of vectors that holds any.  For covering targets it carries the component
count along the word on those masks, where this one counts it from
scratch.  For perfect-cover targets this one keeps each vector's degree in
an int, with running counts of the vectors of U of degree at most one and
of degree zero, and moves the previous window at every level; the compiled
kernel keeps bit-sliced counters over the same words, reads the dead-end
test off them, and moves the previous window only at a level where some
letter passes the duplicate-window check.

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
                       most one.  Its degrees change once per level: any
                       fresh window leaves U and becomes current, so the
                       set loses the previous window whatever the letter.
"""

PROGRESS_INTERVAL = 1_000_000

RULE_DUPLICATE = 1
RULE_REMAINING = 2
RULE_COMPONENTS = 4
ALL_RULES = 7

KERNEL_NAME = "pure-python"


def build_tables(k, sigma):
    """The kernels' tables, (n_vec, shift): shift is an array of C ints,
    and shift[(idx*sigma + out)*sigma + c] is the rank of p - e_out + e_c
    for p of rank idx (-1 when p[out] is 0).  Row (idx, out) is the up row
    of p - e_out in vectors.rank_map."""
    # imported here: loading a kernel, as every CLI start does, loads
    # neither vectors, nor dataclasses, nor array
    from array import array

    from . import vectors as V

    down, up = V.rank_map(k, sigma)
    rows = [up[r:r + sigma] for r in range(0, len(up), sigma)]
    # the row of a missing letter, read at down rank -1
    rows.append(array("i", [-1]) * sigma)
    shift = array("i")
    for r in down:
        # extending an array by an array copies the ints as they are
        shift.extend(rows[r])
    return len(down) // sigma, shift


def fixed_length_search(k, sigma, length, tables, pdb_only, rules, prefix,
                        collect_limit, node_budget, progress=None):
    """Explore canonical words of exactly ``length`` letters.

    tables: (n_vectors, shift) as built by build_tables.
    collect_limit <= 0 collects every solution.  Returns (complete,
    solutions, nodes, max_depth) where solutions is a list of bytes (letter
    indices) in discovery order and complete is False only when the node
    budget ran out.
    """
    n_vec, shift = tables
    rule_dup = bool(rules & RULE_DUPLICATE) and pdb_only
    rule_rem = bool(rules & RULE_REMAINING)
    rule_comp = bool(rules & RULE_COMPONENTS)

    word = [0] * length
    at = [0] * length        # per position: the window that ends there
    used_at = [0] * length   # per position: letters used before it
    mult = [0] * n_vec
    uncovered, dups, nodes, max_depth = n_vec, 0, 0, 0
    solutions = []

    # The components rule.  Covering targets: per position, the number of
    # components of G[U] after the window that ends there (-1: not known),
    # counted only when the bound could fire and kept while U stays the
    # same.  Perfect-cover targets: deg[v] counts v's neighbours in U +
    # {current} (in U alone between levels), and ends and isolated count the
    # vectors of U with at most one and with none.
    neighbours = comps = deg = None
    ends = isolated = 0
    if rule_comp:
        # the shifts of v other than -1 (v holds no out) and v itself
        # (in = out)
        width = sigma * sigma
        neighbours = [[x for x in shift[v * width:(v + 1) * width]
                       if x >= 0 and x != v] for v in range(n_vec)]
        if pdb_only:
            deg = [len(near) for near in neighbours]
            ends = sum(d <= 1 for d in deg)
            isolated = deg.count(0)
        else:
            comps = [-1] * length

    def count_ends(v, sign):
        nonlocal ends, isolated
        ends += sign * (deg[v] <= 1)
        isolated += sign * (deg[v] == 0)

    def move_degrees(v, delta):
        # v enters (delta 1) or leaves (delta -1) the set U + {current}
        nonlocal ends, isolated
        for x in neighbours[v]:
            before = deg[x]
            deg[x] = after = before + delta
            if mult[x] == 0:
                ends += (after <= 1) - (before <= 1)
                isolated += (after == 0) - (before == 0)

    def count_components(limit):
        # components of G[U], stopping at limit + 1
        seen = set()
        c = 0
        for v in range(n_vec):
            if mult[v] or v in seen:
                continue
            c += 1
            if c > limit:
                break
            seen.add(v)
            stack = [v]
            while stack:
                for x in neighbours[stack.pop()]:
                    if not mult[x] and x not in seen:
                        seen.add(x)
                        stack.append(x)
        return c

    def place(pos, c, idx):
        nonlocal uncovered, dups, max_depth
        word[pos] = c
        at[pos] = idx
        max_depth = max(max_depth, pos + 1)
        if pos < k - 1:
            return
        mult[idx] += 1
        fresh = mult[idx] == 1
        if fresh:
            uncovered -= 1
        else:
            dups += 1
        if comps is not None:
            comps[pos] = -1 if fresh else comps[pos - 1]
        elif deg is not None and fresh:
            count_ends(idx, -1)
        elif deg is not None:
            # the level took the previous window out; a repeated idx is back
            move_degrees(idx, 1)

    def unplace(pos):
        nonlocal uncovered, dups
        if pos < k - 1:
            return
        idx = at[pos]
        mult[idx] -= 1
        if mult[idx] == 0:
            uncovered += 1
            if deg is not None:
                count_ends(idx, 1)
        else:
            dups -= 1
            if deg is not None:
                move_degrees(idx, -1)

    def pruned(pos):
        if pos < k - 1:
            return False
        rem = length - 1 - pos
        if rule_rem and rem < uncovered:
            return True
        if deg is not None:
            return isolated > 0 or ends > 1
        if comps is not None and 0 < uncovered and rem < 2 * uncovered - 1:
            slack = rem - uncovered + 1
            c = comps[pos]
            if c < 0:
                c = count_components(slack)
                if c <= slack:
                    comps[pos] = c
            return c > slack
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
    # after word[pos].  Perfect covers: a level pos >= k takes the previous
    # window out of U + {current} on the way down, back in on the way up.
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
            place(pos, c, idx)
            if not pruned(pos):
                if pos + 1 < length:
                    break
                if uncovered == 0 and (not pdb_only or dups == 0):
                    solutions.append(bytes(word))
                    if 0 < collect_limit <= len(solutions):
                        return True, solutions, nodes, max_depth
            unplace(pos)
            c += 1
        if c < top:
            used_at[pos] = used
            used = max(used, c + 1)
            pos += 1
            c = prefix[pos] if pos < len(prefix) else 0
            if deg is not None and pos >= k:
                move_degrees(at[pos - 1], -1)
            continue
        if pos == 0:
            break
        if deg is not None and pos >= k:
            move_degrees(at[pos - 1], 1)
        pos -= 1
        c = word[pos]
        used = used_at[pos]
        unplace(pos)
        c += 1
    return True, solutions, nodes, max_depth


def find_covering_naive(k, sigma, length, tables):
    """First covering word of the given length in plain lexicographic order,
    or None.  Enumerates all sigma**length words: no canonical-form
    restriction, no pruning.  Independent check for refutations."""
    n_vec, shift = tables
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
