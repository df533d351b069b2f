"""Exhaustive search for shortest covering words and perfect covering words.

Iterative deepening on the target length, starting at the combined lower
bound, so a witness found at length L certifies minimality once every
shorter length has been refuted.  Each length is explored depth-first in
canonical form (letters first appear in alphabet order), letters tried in
alphabet order, so the first witness is the lexicographically smallest
canonical one; refutations are exhaustive over canonical words, which
suffices because the target predicates are invariant under relabeling.

The kernel tables are built once per search call.  The tree of one length
is split only for workers: one worker runs the whole tree inline, N workers
share the canonical prefixes of the shallowest depth that gives
TASKS_PER_WORKER * N tasks (Embarrassingly Parallel Search, Regin et al.,
CP 2013).  Tasks are merged in prefix order (first task with a witness
wins), and the node budget caps the whole search call: it is exhausted at
the first task where the running total passes the budget.  The kernel
counts every node in exactly one task, so outcome, node count and depth
are the same for any worker count.  The inner loop lives in the kernel
module (compiled when available, pure Python otherwise).

With N workers a search call keeps one process pool for all its lengths.
The pool initializer gives each worker the tables and a one-byte shared
stop flag once, so the jobs carry only the task's parameters.  The merge
settles only at a task whose predecessors are all folded, so the tasks
still running then come after it and their results would be discarded;
and every settle ends the search call.  On leaving the call the flag is
set: queued tasks return at once and running ones at their next kernel
checkpoint, every kernel.PROGRESS_INTERVAL (10^6) nodes.  That is 0.05 to
0.15 s on the compiled kernel, which with the components rule explores 7 to
20 million nodes per second; the pure-Python fallback stops only at the
same checkpoint, which it reaches far later.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial

from . import covering, kernel
from . import vectors as V
from .errors import CapacityExceeded, InvalidInput
from .grid import up_ranks

TARGET_SHORTEST = "shortest_covering"
TARGET_PDB = "pdb_only"
TARGET_AT_LENGTH = "existence_at_length"

STATUS_FOUND = "found"
STATUS_REFUTED = "refuted_up_to"
STATUS_BUDGET = "budget_exhausted"

RULE_NAMES = {
    "duplicate_window": kernel.RULE_DUPLICATE,
    "uncovered_count": kernel.RULE_REMAINING,
    "components": kernel.RULE_COMPONENTS,
}
ALL_RULES = frozenset(RULE_NAMES)

# Bound on the kernel's state for one search length: the n_vec * sigma^2
# shifts of its table, plus one for each letter of the word, of which the
# kernel keeps a few ints.  A word has at least k letters.  Checked before
# anything is allocated; it keeps sigma <= 158, so a letter fits in a byte.
MAX_TABLE_ENTRIES = 4_000_000

DEFAULT_NODE_BUDGET = 100_000_000

# Tasks per worker process: enough that uneven subtrees even out.
TASKS_PER_WORKER = 30


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.  ``node_budget`` caps the nodes of the whole
    search call, all lengths together (0 or None: no cap)."""

    k: int
    sigma: int
    target: str = TARGET_SHORTEST
    target_length: int = None  # for TARGET_AT_LENGTH
    max_len: int = None
    worker_count: int = 1
    node_budget: int = DEFAULT_NODE_BUDGET
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


def _longest_word(k, sigma):
    """The most letters a search word over the (k, sigma) tables may have
    within MAX_TABLE_ENTRIES."""
    return MAX_TABLE_ENTRIES - V.ensure_capacity(k, sigma) * sigma * sigma


def _build_tables(k, sigma):
    """The kernel's tables over vector ranks, (n_vec, shift):
    shift[(idx*sigma + out)*sigma + c] is the rank of p - e_out + e_c for p
    of rank idx (-1 when p[out] is 0)."""
    if _longest_word(k, sigma) < k:
        raise CapacityExceeded(
            "search tables for k=%d sigma=%d and a word of k letters exceed "
            "the MAX_TABLE_ENTRIES bound of %d ints"
            % (k, sigma, MAX_TABLE_ENTRIES))
    vectors, up = up_ranks(k, sigma)
    shift = []
    for p in vectors:
        for out in range(sigma):
            shift.extend(up[p[:out] + (p[out] - 1,) + p[out + 1:]] if p[out]
                         else [-1] * sigma)
    return (len(vectors), shift)


def _prepare(cfg, lengths):
    """Checks the budget and the longest of ``lengths``, a range or list,
    and builds the tables, once per search call."""
    if cfg.node_budget is not None and cfg.node_budget < 0:
        raise InvalidInput("node_budget must be >= 0 (0: no cap)")
    longest = _longest_word(cfg.k, cfg.sigma)
    if lengths and lengths[-1] > longest:
        raise CapacityExceeded(
            "a search word of %d letters for k=%d sigma=%d exceeds the "
            "MAX_TABLE_ENTRIES bound: at most %d letters"
            % (lengths[-1], cfg.k, cfg.sigma, longest))
    return _build_tables(cfg.k, cfg.sigma)


def _budget_left(cfg, nodes):
    """Nodes the search call may still spend after ``nodes`` (None: no
    cap)."""
    return cfg.node_budget - nodes if cfg.node_budget else None


def _task_prefixes(sigma, length, worker_count):
    """The canonical prefixes that split one length's tree into tasks, in
    lex order: the whole tree for one worker, else the shallowest level with
    TASKS_PER_WORKER tasks per worker, never deeper than length - 1."""
    want = TASKS_PER_WORKER * worker_count if worker_count > 1 else 1
    prefixes = [()]
    while len(prefixes) < want and len(prefixes[0]) < length - 1:
        prefixes = [p + (c,) for p in prefixes
                    for c in range(min(max(p, default=-1) + 2, sigma))]
    return prefixes


# A pool worker's tables and stop flag, set once by _init_worker.
_worker_tables = _worker_stop = None


class _Stopped(Exception):
    """Raised at a kernel checkpoint in a worker once the stop flag is set."""


def _init_worker(tables, stop):
    global _worker_tables, _worker_stop
    _worker_tables, _worker_stop = tables, stop


def _check_stop(_nodes, _depth, _found):
    if _worker_stop.value:
        raise _Stopped


@contextmanager
def _pool(cfg, tables):
    """One pool per search call, forking its workers once for all lengths;
    on leaving, by any path, it stops the tasks still queued or running and
    waits for its workers.  None for one worker, and for a call with no
    tables because it has no length to search."""
    if cfg.worker_count <= 1 or tables is None:
        yield None
        return
    stop = multiprocessing.RawValue("b", 0)
    pool = ProcessPoolExecutor(max_workers=cfg.worker_count,
                               initializer=_init_worker,
                               initargs=(tables, stop))
    try:
        yield pool
    finally:
        stop.value = 1
        pool.shutdown(wait=True, cancel_futures=True)


def _subtree_task(job, tables=None, progress=None):
    """Runs one task, the subtree below its prefix: inline on ``tables``,
    or, the worker entry point, on the worker's tables.  A worker's task
    returns None once the stop flag is set, at its next checkpoint."""
    k, sigma, length, pdb_only, mask, prefix, collect_limit, cap = job
    if tables is None:
        if _worker_stop.value:
            return None
        tables, progress = _worker_tables, _check_stop
    try:
        return kernel.fixed_length_search(k, sigma, length, tables, pdb_only,
                                          mask, prefix, collect_limit, cap,
                                          progress)
    except _Stopped:
        return None


def _search_length(cfg, tables, length, pdb_only, collect_limit, budget,
                   pool, progress=None):
    """Explore one fixed length; returns (complete, solutions, nodes, depth).

    ``budget`` is what the search call may still spend (None: no cap).
    Tasks run on ``pool`` and merge in prefix order; the length is exhausted
    at the first task where the running total passes the budget, and
    reports budget + 1 nodes, as one task over the whole tree would.
    """
    if budget == 0:
        # the first node of any length is over; the kernel reads 0 as no cap
        return False, [], 1, 0
    mask = _rules_mask(cfg.rules)

    def job(prefix, cap):
        return (cfg.k, cfg.sigma, length, pdb_only, mask, prefix,
                collect_limit, cap or 0)

    prefixes = _task_prefixes(cfg.sigma, length, cfg.worker_count)
    complete, solutions, nodes, max_depth = True, [], 0, 0

    def fold(prefix, result):
        nonlocal complete, nodes, max_depth
        _complete, sols, task_nodes, task_depth = result
        if budget is not None and nodes + task_nodes > budget:
            # a task given more than was left is redone with exactly that,
            # for the depth one task over the whole tree reaches; with
            # nothing left its first counted node is over and adds no depth
            left = budget - nodes
            if left < budget:
                task_depth = (_subtree_task(job(prefix, left), tables)[3]
                              if left else 0)
            complete, nodes = False, budget + 1
            max_depth = max(max_depth, task_depth)
            return True
        nodes += task_nodes
        max_depth = max(max_depth, task_depth)
        solutions.extend(sols)
        return bool(sols) and 0 < collect_limit <= len(solutions)

    if len(prefixes) == 1:
        checkpoint = None
        if progress is not None:
            def checkpoint(nodes, at_depth, found):
                progress(nodes, at_depth, found, length)
        fold((), _subtree_task(job((), budget), tables, checkpoint))
        return complete, solutions, nodes, max_depth

    # the tasks after a settle are stopped when the search call leaves _pool
    futures = [pool.submit(_subtree_task, job(prefix, budget))
               for prefix in prefixes]
    reported = None
    for prefix, fut in zip(prefixes, futures):
        settled = fold(prefix, fut.result())
        if progress is not None and reported != (nodes, len(solutions)):
            reported = nodes, len(solutions)
            progress(nodes, max_depth, len(solutions), length)
        if settled:
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
        return _search(cfg, TARGET_AT_LENGTH, [cfg.target_length], False,
                       False, progress=progress)
    raise InvalidInput("unknown search target %r" % (cfg.target,))


def _search(cfg, target, lengths, pdb_only, minimal, refuted_up_to=None,
            progress=None):
    """Searches ``lengths`` in order up to the first witness, with one
    tables build and one node budget for all of them; ``refuted_up_to`` is
    what is refuted before the first of them."""
    start = time.perf_counter()
    tables = _prepare(cfg, lengths) if lengths else None
    complete, sols, nodes, max_depth = True, [], 0, 0
    with _pool(cfg, tables) as pool:
        for length in lengths:
            complete, sols, n, d = _search_length(
                cfg, tables, length, pdb_only, 1, _budget_left(cfg, nodes),
                pool, progress)
            nodes += n
            max_depth = max(max_depth, d)
            if sols or not complete:
                break
            refuted_up_to = length
    outcome = partial(SearchOutcome, k=cfg.k, sigma=cfg.sigma, target=target,
                      stats=SearchStats(nodes=nodes, max_depth=max_depth,
                                        elapsed=time.perf_counter() - start))
    if sols:
        word = _render(cfg.sigma, sols[0])
        _assert_witness(word, cfg.k, cfg.sigma, pdb_only)
        return outcome(status=STATUS_FOUND, witness=word, minimal=minimal)
    return outcome(status=STATUS_REFUTED if complete else STATUS_BUDGET,
                   refuted_up_to=refuted_up_to)


def search_shortest_covering(cfg, progress=None):
    """Iterative deepening from the lower bound; the first witness is found
    at the smallest feasible length and is minimal by exhaustion below."""
    lower = covering.bounds(cfg.k, cfg.sigma).shortest_lower_bound
    top = cfg.max_len
    if top is None:
        # every length the tables allow; _prepare refuses a lower bound
        # beyond them
        top = max(lower, _longest_word(cfg.k, cfg.sigma))
    return _search(cfg, TARGET_SHORTEST, range(lower, top + 1), False, True,
                   min(lower - 1, top), progress)


def search_pdb_existence(k, sigma, cfg=None, progress=None):
    """Search the single feasible perfect-cover length, windows never
    repeating a vector; refutation means no such word exists at all."""
    cfg = replace(cfg or SearchConfig(k=k, sigma=sigma), k=k, sigma=sigma,
                  target=TARGET_PDB)
    # bounds() rejects a k or sigma below 1
    bounds = covering.bounds(k, sigma)
    if not bounds.pdb_possible_by_bounds:
        # the counting bound: no covering word is as short as a perfect one
        return _search(cfg, TARGET_PDB, [], True, True, bounds.pdb_length)
    return _search(cfg, TARGET_PDB, [bounds.pdb_length], True, True,
                   progress=progress)


def iter_covering_words(k, sigma, max_len, node_budget=None):
    """Every canonical k-covering word of length <= max_len, shortest first,
    lexicographic within a length.  Raises on budget exhaustion rather than
    silently truncating."""
    cfg = SearchConfig(k=k, sigma=sigma,
                       node_budget=node_budget or DEFAULT_NODE_BUDGET)
    lengths = range(covering.bounds(k, sigma).shortest_lower_bound,
                    max_len + 1)
    tables = _prepare(cfg, lengths)
    nodes = 0
    for length in lengths:
        complete, sols, n, _d = _search_length(
            cfg, tables, length, False, 0, _budget_left(cfg, nodes), None)
        nodes += n
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
    tables = _prepare(cfg, [length])
    with _pool(cfg, tables) as pool:
        complete, sols, _n, _d = _search_length(
            cfg, tables, length, True, 0, _budget_left(cfg, 0), pool)
    if not complete:
        raise CapacityExceeded("perfect-cover enumeration ran out of node "
                               "budget")
    reps = {canonical_form(_render(sigma, sol), sigma) for sol in sols}
    return sorted(reps)
