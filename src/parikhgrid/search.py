"""Exhaustive search for shortest covering words and perfect covering words.

Iterative deepening on the target length, starting at the combined lower
bound, so a witness found at length L certifies minimality once every
shorter length has been refuted.  Each length is explored depth-first in
canonical form (letters first appear in alphabet order), letters tried in
alphabet order, so the first witness is the lexicographically smallest
canonical one; refutations are exhaustive over canonical words, which
suffices because the target predicates are invariant under relabeling.

The tree for one length is split at a fixed prefix depth into independent
subtree tasks.  Tasks are merged in prefix order (first task with a witness
wins), making the outcome identical for any worker count; workers simply
run tasks concurrently in separate processes.  The inner loop lives in the
kernel module (compiled when available, pure Python otherwise).
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from math import comb

from . import covering, kernel
from . import vectors as V
from .errors import CapacityExceeded, InvalidInput

TARGET_SHORTEST = "shortest_covering"
TARGET_PDB = "pdb_only"
TARGET_AT_LENGTH = "existence_at_length"

STATUS_FOUND = "found"
STATUS_REFUTED = "refuted_up_to"
STATUS_BUDGET = "budget_exhausted"

RULE_NAMES = {
    "duplicate_window": kernel.RULE_DUPLICATE,
    "uncovered_count": kernel.RULE_REMAINING,
    "letter_budget": kernel.RULE_LETTER_BUDGET,
    "connectivity": kernel.RULE_CONNECTIVITY,
}
ALL_RULES = frozenset(RULE_NAMES)

# The kernel indexes windows through a (k+1)^sigma mixed-radix table and a
# per-vector multiplicity array; both must stay small.
MAX_SEARCH_VECTORS = 100_000
MAX_CODE_TABLE = 4_000_000

DEFAULT_NODE_BUDGET = 100_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.  ``node_budget`` caps every independent subtree
    task; ``split_depth`` is the prefix length at which the tree is split
    into such tasks (0 disables splitting)."""

    k: int
    sigma: int
    target: str = TARGET_SHORTEST
    target_length: int = None  # for TARGET_AT_LENGTH
    max_len: int = None
    worker_count: int = 1
    node_budget: int = DEFAULT_NODE_BUDGET
    split_depth: int = None  # default: k + 2
    rules: frozenset = field(default=ALL_RULES)


@dataclass(frozen=True)
class SearchStats:
    nodes: int = 0
    elapsed: float = 0.0
    max_depth: int = 0


@dataclass(frozen=True)
class SearchOutcome:
    k: int
    sigma: int
    target: str
    status: str
    witness: str = None
    minimal: bool = False
    refuted_up_to: int = None
    stats: SearchStats = field(default_factory=SearchStats)


def _rules_mask(rules):
    bad = set(rules) - set(RULE_NAMES)
    if bad:
        raise InvalidInput("unknown pruning rules: %s" % ", ".join(sorted(bad)))
    mask = 0
    for name in rules:
        mask |= RULE_NAMES[name]
    return mask


def _build_tables(k, sigma, with_distances):
    """Vector tables the kernel indexes by: mixed-radix window codes, the
    per-letter minimum count, and (optionally) all-pairs grid distances."""
    n_vec = V.ensure_capacity(k, sigma)
    if n_vec > MAX_SEARCH_VECTORS:
        raise CapacityExceeded("search over %d vectors exceeds the %d bound"
                               % (n_vec, MAX_SEARCH_VECTORS))
    radix = k + 1
    if radix ** sigma > MAX_CODE_TABLE:
        raise CapacityExceeded(
            "window code table (k+1)^sigma = %d exceeds the %d bound"
            % (radix ** sigma, MAX_CODE_TABLE))
    powers = [radix ** i for i in range(sigma)]
    vectors = V.enumerate_pv(k, sigma)
    code_to_index = [-1] * (radix ** sigma)
    for idx, p in enumerate(vectors):
        code_to_index[sum(c * powers[i] for i, c in enumerate(p))] = idx
    m_min = covering.min_letter_occurrences(k, sigma)
    dist = diameter = None
    if with_distances:
        index = {p: i for i, p in enumerate(vectors)}
        dist = [0] * (n_vec * n_vec)
        diameter = 0
        for src, p in enumerate(vectors):
            seen = {p: 0}
            frontier = [p]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in V.neighbors(u):
                        if w not in seen:
                            seen[w] = seen[u] + 1
                            nxt.append(w)
                frontier = nxt
            for q, d in seen.items():
                dist[src * n_vec + index[q]] = d
                if d > diameter:
                    diameter = d
    return (n_vec, powers, code_to_index, m_min, dist, diameter)


def _canonical_prefixes(sigma, depth):
    """All canonical letter sequences of the given depth, in lex order."""
    out = []

    def rec(seq, used):
        if len(seq) == depth:
            out.append(tuple(seq))
            return
        for c in range(min(used + 1, sigma)):
            seq.append(c)
            rec(seq, used if c < used else c + 1)
            seq.pop()

    rec([], 0)
    return out


def _subtree_task(args):
    """Worker entry point; rebuilds tables locally (cheap at search sizes)."""
    (k, sigma, length, pdb_only, mask, prefix, collect_limit, budget,
     with_dist) = args
    tables = _build_tables(k, sigma, with_dist)
    return kernel.fixed_length_search(k, sigma, length, tables, pdb_only,
                                      mask, prefix, collect_limit, budget)


def _search_length(cfg, length, pdb_only, collect_limit, progress=None):
    """Explore one fixed length; returns (complete, solutions, nodes, depth).

    Splits into canonical-prefix subtrees below ``split_depth`` and merges
    results in prefix order, so the outcome does not depend on worker count
    or scheduling.  The node budget caps each subtree task.
    """
    mask = _rules_mask(cfg.rules)
    with_dist = "connectivity" in cfg.rules
    depth = cfg.split_depth if cfg.split_depth is not None else cfg.k + 2
    if depth >= length or cfg.sigma == 1:
        depth = 0
    if depth == 0:
        tables = _build_tables(cfg.k, cfg.sigma, with_dist)
        checkpoint = None
        if progress is not None:
            def checkpoint(nodes, at_depth, found):
                progress(nodes, at_depth, found, length)
        return kernel.fixed_length_search(
            cfg.k, cfg.sigma, length, tables, pdb_only, mask, (),
            collect_limit, cfg.node_budget, checkpoint)

    # Each subtree task gets the full node budget: subtree sizes are very
    # uneven, and a per-task cap keeps the outcome independent of worker
    # count and scheduling.  Exhaustion in any subtree is reported.
    prefixes = _canonical_prefixes(cfg.sigma, depth)
    jobs = [(cfg.k, cfg.sigma, length, pdb_only, mask, pfx, collect_limit,
             cfg.node_budget, with_dist) for pfx in prefixes]

    complete, solutions, nodes, max_depth = True, [], 0, 0

    def fold(result):
        nonlocal complete, nodes, max_depth
        task_complete, sols, task_nodes, task_depth = result
        complete = complete and task_complete
        nodes += task_nodes
        max_depth = max(max_depth, task_depth)
        solutions.extend(sols)
        return bool(sols) and 0 < collect_limit <= len(solutions)

    if cfg.worker_count <= 1:
        for job in jobs:
            if fold(_subtree_task(job)):
                break
    else:
        with ProcessPoolExecutor(max_workers=cfg.worker_count) as pool:
            futures = [pool.submit(_subtree_task, job) for job in jobs]
            for fut in futures:
                if fold(fut.result()):
                    # cancel here: shutdown's cancel_futures is lost when the
                    # pool is collected before its manager thread acts, and
                    # the speculative tasks then all run after the answer
                    for pending in futures:
                        pending.cancel()
                    pool.shutdown(wait=False, cancel_futures=True)
                    break
    return complete, solutions, nodes, max_depth


def _render(sigma, solution):
    return V.Alphabet(sigma).indices_to_word(list(solution))


def _assert_witness(word, k, sigma, pdb_only):
    report = covering.verify(word, k, sigma)
    ok = report.is_pdb if pdb_only else report.is_covering
    if not ok:
        raise AssertionError("search returned a non-witness %r for k=%d "
                             "sigma=%d" % (word, k, sigma))


def run_search(cfg, progress=None):
    """Dispatch on cfg.target; see the wrapper functions for the contracts."""
    if cfg.target == TARGET_SHORTEST:
        return search_shortest_covering(cfg, progress=progress)
    if cfg.target == TARGET_PDB:
        return search_pdb_existence(cfg.k, cfg.sigma, cfg, progress=progress)
    if cfg.target == TARGET_AT_LENGTH:
        if cfg.target_length is None or cfg.target_length < cfg.k:
            raise InvalidInput("existence search needs target_length >= k")
        return _existence_at_length(cfg, progress=progress)
    raise InvalidInput("unknown search target %r" % (cfg.target,))


def search_shortest_covering(cfg, progress=None):
    """Iterative deepening from the lower bound; the first witness is found
    at the smallest feasible length and is minimal by exhaustion below."""
    start = time.perf_counter()
    lower = covering.bounds(cfg.k, cfg.sigma).shortest_lower_bound
    nodes = max_depth = 0
    length = lower
    refuted_below = True  # vacuous at the lower bound
    while cfg.max_len is None or length <= cfg.max_len:
        complete, sols, n, d = _search_length(cfg, length, False, 1, progress)
        nodes += n
        max_depth = max(max_depth, d)
        stats = SearchStats(nodes=nodes,
                            elapsed=time.perf_counter() - start,
                            max_depth=max_depth)
        if sols:
            # minimality depends only on the lengths below: either nothing
            # was below the starting bound or each was exhaustively refuted
            word = _render(cfg.sigma, sols[0])
            _assert_witness(word, cfg.k, cfg.sigma, False)
            return SearchOutcome(k=cfg.k, sigma=cfg.sigma,
                                 target=TARGET_SHORTEST, status=STATUS_FOUND,
                                 witness=word, minimal=refuted_below,
                                 stats=stats)
        if not complete:
            return SearchOutcome(k=cfg.k, sigma=cfg.sigma,
                                 target=TARGET_SHORTEST, status=STATUS_BUDGET,
                                 refuted_up_to=length - 1, stats=stats)
        length += 1
    stats = SearchStats(nodes=nodes, elapsed=time.perf_counter() - start,
                        max_depth=max_depth)
    return SearchOutcome(k=cfg.k, sigma=cfg.sigma, target=TARGET_SHORTEST,
                         status=STATUS_REFUTED, refuted_up_to=cfg.max_len,
                         stats=stats)


def search_pdb_existence(k, sigma, cfg=None, progress=None):
    """Search the single feasible perfect-cover length, windows never
    repeating a vector; refutation means no such word exists at all."""
    cfg = replace(cfg or SearchConfig(k=k, sigma=sigma), k=k, sigma=sigma,
                  target=TARGET_PDB)
    start = time.perf_counter()
    length = covering.perfect_length(k, sigma)
    complete, sols, nodes, depth = _search_length(cfg, length, True, 1,
                                                  progress)
    stats = SearchStats(nodes=nodes, elapsed=time.perf_counter() - start,
                        max_depth=depth)
    if sols:
        word = _render(sigma, sols[0])
        _assert_witness(word, k, sigma, True)
        return SearchOutcome(k=k, sigma=sigma, target=TARGET_PDB,
                             status=STATUS_FOUND, witness=word, minimal=True,
                             stats=stats)
    status = STATUS_REFUTED if complete else STATUS_BUDGET
    return SearchOutcome(k=k, sigma=sigma, target=TARGET_PDB, status=status,
                         refuted_up_to=length if complete else None,
                         stats=stats)


def _existence_at_length(cfg, progress=None):
    start = time.perf_counter()
    length = cfg.target_length
    complete, sols, nodes, depth = _search_length(cfg, length, False, 1,
                                                  progress)
    stats = SearchStats(nodes=nodes, elapsed=time.perf_counter() - start,
                        max_depth=depth)
    if sols:
        word = _render(cfg.sigma, sols[0])
        _assert_witness(word, cfg.k, cfg.sigma, False)
        return SearchOutcome(k=cfg.k, sigma=cfg.sigma,
                             target=TARGET_AT_LENGTH, status=STATUS_FOUND,
                             witness=word, minimal=False, stats=stats)
    status = STATUS_REFUTED if complete else STATUS_BUDGET
    return SearchOutcome(k=cfg.k, sigma=cfg.sigma, target=TARGET_AT_LENGTH,
                         status=status,
                         refuted_up_to=length if complete else None,
                         stats=stats)


def iter_covering_words(k, sigma, max_len, node_budget=None):
    """Every canonical k-covering word of length <= max_len, shortest first,
    lexicographic within a length.  Raises on budget exhaustion rather than
    silently truncating."""
    cfg = SearchConfig(k=k, sigma=sigma,
                       node_budget=node_budget or DEFAULT_NODE_BUDGET)
    lower = covering.bounds(k, sigma).shortest_lower_bound
    for length in range(lower, max_len + 1):
        complete, sols, _n, _d = _search_length(cfg, length, False, 0)
        if not complete:
            raise CapacityExceeded("covering-word enumeration ran out of "
                                   "node budget at length %d" % length)
        for sol in sols:
            yield _render(sigma, sol)


# Beyond this many vectors, complete deduplication of perfect-cover words
# degenerates; callers must opt in explicitly.
ENUMERATE_ALL_GATE = 20


def _relabel_canonical(word, sigma):
    """Map letters to a, b, c, ... by first occurrence."""
    alphabet = V.Alphabet(sigma)
    mapping = {}
    out = []
    for idx in alphabet.word_to_indices(word):
        if idx not in mapping:
            mapping[idx] = len(mapping)
        out.append(mapping[idx])
    return alphabet.indices_to_word(out)


def canonical_form(word, sigma):
    """Lexicographic minimum over the 2 * sigma! relabel/reversal images."""
    return min(_relabel_canonical(word, sigma),
               _relabel_canonical(word[::-1], sigma))


def enumerate_all_pdb(k, sigma, cfg=None, force=False):
    """All perfect covering words, one canonical representative per orbit
    under alphabet relabeling and reversal, sorted."""
    n_vec = V.ensure_capacity(k, sigma)
    if n_vec > ENUMERATE_ALL_GATE and not force:
        raise CapacityExceeded(
            "enumerating all perfect covers over %d vectors exceeds the "
            "default gate of %d; pass force=True to override"
            % (n_vec, ENUMERATE_ALL_GATE))
    cfg = replace(cfg or SearchConfig(k=k, sigma=sigma), k=k, sigma=sigma,
                  target=TARGET_PDB)
    length = covering.perfect_length(k, sigma)
    complete, sols, _n, _d = _search_length(cfg, length, True, 0)
    if not complete:
        raise CapacityExceeded("perfect-cover enumeration ran out of node "
                               "budget")
    reps = {canonical_form(_render(sigma, sol), sigma) for sol in sols}
    return sorted(reps)
