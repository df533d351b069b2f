"""Exhaustive search for shortest covering words and perfect covering words.

Iterative deepening on the target length, starting at the combined lower
bound, so a witness found at length L certifies minimality once every
shorter length has been refuted.  Each length is explored depth-first in
canonical form (letters first appear in alphabet order), letters tried in
alphabet order, so the first witness is the lexicographically smallest
canonical one; refutations are exhaustive over canonical words, which
suffices because the target predicates are invariant under relabeling.

The kernel tables are built once per search call.  Every length first runs
its whole tree inline, as one worker does.  With N workers that inline run
is capped at the kernel's first checkpoint, kernel.PROGRESS_INTERVAL
(10^6) nodes: only a length that outgrows the cap, when the budget allows
more, forks the call's process pool and is split, its inline run
discarded, and the later lengths of the call go straight to that pool.  A
search that ends before the cap thus forks no process, whatever the worker
count.  N is at most the number of CPUs the process may run on.  The split
gives N workers the canonical prefixes of the shallowest depth that gives
TASKS_PER_WORKER * N tasks (Embarrassingly Parallel Search, Regin et al.,
CP 2013).  Tasks are merged in prefix order (first task with a witness
wins), and the node budget caps the whole search call: it is exhausted at
the first task where the running total passes the budget.  The kernel
counts every node in exactly one task, so outcome, node count and depth
are the same for any worker count.  The inner loop lives in the kernel
module (compiled when available, pure Python otherwise).

A search call keeps at most one process pool for all its lengths.  The
pool initializer gives each worker the tables once, so the jobs carry only
the task's parameters.  The merge settles only at a task whose
predecessors are all folded, so the tasks still queued or running then
come after it and their results would be discarded; and every settle ends
the search call.  On leaving the call the pool is terminated: a worker
holds nothing but its current task, so ending it loses nothing, and the
call does not wait for tasks past its answer.
"""

import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

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
    "components": kernel.RULE_COMPONENTS,
}
ALL_RULES = frozenset(RULE_NAMES)

# Bound on the kernel's state for one search length: the n_vec * sigma^2
# shifts of its table, plus one for each letter of the word, of which the
# kernel keeps a few ints.  A word has at least k letters.  Under the
# components rule the kernel also keeps, for each vector, one mask for each
# 64-bit word of vectors that holds any of its neighbours, at most
# sigma (sigma - 1), which grow like the shifts and are not counted apart.
# Checked before anything is allocated; it keeps sigma <= 158, so a letter
# fits in a byte.
MAX_TABLE_ENTRIES = 4_000_000

DEFAULT_NODE_BUDGET = 100_000_000

# Tasks per worker process: enough that uneven subtrees even out.
TASKS_PER_WORKER = 30


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.  ``node_budget`` caps the nodes of the whole
    search call, all lengths together (0 or None: no cap).  ``worker_count``
    must be >= 1; at most one worker per usable CPU is started."""

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
    within MAX_TABLE_ENTRIES.  The capacity gate of every search: it
    refuses, before any table is built, a k or sigma below 1 and tables
    that leave no room for a word of k letters."""
    longest = MAX_TABLE_ENTRIES - V.check_instance(k, sigma) * sigma * sigma
    if longest < k:
        raise CapacityExceeded(
            "search tables for k=%d sigma=%d and a word of k letters exceed "
            "the MAX_TABLE_ENTRIES bound of %d ints"
            % (k, sigma, MAX_TABLE_ENTRIES))
    return longest


def _build_tables(k, sigma):
    """The kernel's tables over vector ranks, (n_vec, shift):
    shift[(idx*sigma + out)*sigma + c] is the rank of p - e_out + e_c for p
    of rank idx (-1 when p[out] is 0).  shift is an array of C ints, which
    the compiled kernel reads in place."""
    _longest_word(k, sigma)   # refuses tables over the bound
    return kernel.build_tables(k, sigma)


def _prepare(cfg, lengths):
    """Checks the budget and the longest of ``lengths``, a range or list,
    against the kernel's state, and builds the tables, once per search
    call."""
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


# A pool worker's tables, set once by _init_worker.
_worker_tables = None


def _init_worker(tables):
    global _worker_tables
    _worker_tables = tables


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    # macOS and Windows have no affinity call
    return os.cpu_count() or 1


class _Pool:
    """The process pool of one search call.  Its ``worker_count`` is the
    configured one, at most one per usable CPU; it sizes the pool and the
    split of each length.  No process is forked before start(), which forks
    the workers once for all the call's lengths.  On leaving the ``with``
    block, by any path, a started pool is terminated and its workers
    joined."""

    def __init__(self, worker_count, tables):
        if worker_count < 1:
            raise InvalidInput("worker_count must be >= 1")
        self.worker_count = min(worker_count, _usable_cpus())
        self.tables = tables
        self.mp_pool = None

    def start(self):
        if self.mp_pool is None:
            # imported here: most searches never fork, and neither the
            # import of the package nor such a search loads this module
            import multiprocessing
            self.mp_pool = multiprocessing.Pool(
                self.worker_count, _init_worker, (self.tables,))
        return self.mp_pool

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        if self.mp_pool is not None:
            self.mp_pool.terminate()
            self.mp_pool.join()


def _subtree_task(job, tables=None, progress=None):
    """Runs one task, the subtree below its prefix: inline on ``tables``,
    or, the worker entry point, on the worker's tables."""
    k, sigma, length, pdb_only, mask, prefix, collect_limit, cap = job
    return kernel.fixed_length_search(k, sigma, length,
                                      tables or _worker_tables, pdb_only,
                                      mask, prefix, collect_limit, cap,
                                      progress)


def _search_length(cfg, tables, length, pdb_only, collect_limit, budget,
                   pool, progress=None):
    """Explore one fixed length; returns (complete, solutions, nodes, depth).

    ``budget`` is what the search call may still spend (None: no cap).
    The length runs inline until ``pool`` (a _Pool, or None for one worker)
    has started; with N workers that run is capped at the kernel's first
    checkpoint, and a length that outgrows the cap, when the budget allows
    more, starts the pool.  Tasks run on the pool and merge in prefix order;
    the length is exhausted at the first task where the running total
    passes the budget, and reports budget + 1 nodes, as one task over the
    whole tree would.
    """
    if budget == 0:
        # the first node of any length is over; the kernel reads 0 as no cap
        return False, [], 1, 0
    mask = _rules_mask(cfg.rules)
    workers = pool.worker_count if pool is not None else 1

    def job(prefix, cap):
        return (cfg.k, cfg.sigma, length, pdb_only, mask, prefix,
                collect_limit, cap or 0)

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

    if workers == 1 or pool.mp_pool is None:
        # the one-worker run; with N workers it is capped at the first
        # checkpoint, past which the split takes over and counts the same
        # nodes
        cap, checkpoint = budget, None
        if workers > 1:
            cap = min(budget or kernel.PROGRESS_INTERVAL,
                      kernel.PROGRESS_INTERVAL)
        elif progress is not None:
            def checkpoint(nodes, at_depth, found):
                progress(nodes, at_depth, found, length)
        result = _subtree_task(job((), cap), tables, checkpoint)
        if result[0] or cap == budget:
            fold((), result)
            return complete, solutions, nodes, max_depth

    # the tasks after a settle end with the pool, when the search call
    # leaves its block
    prefixes = _task_prefixes(cfg.sigma, length, workers)
    results = pool.start().imap(_subtree_task,
                                [job(prefix, budget) for prefix in prefixes])
    reported = None
    for prefix, result in zip(prefixes, results):
        settled = fold(prefix, result)
        if progress is not None and reported != (nodes, len(solutions)):
            reported = nodes, len(solutions)
            progress(nodes, max_depth, len(solutions), length)
        if settled:
            break
    return complete, solutions, nodes, max_depth


def _certified(cfg, solution, pdb_only):
    """A solution, letter indices, as a word, once covering.verify finds it
    a perfect cover (pdb_only) or a covering word: the one way a word
    leaves the search."""
    word = V.Alphabet(cfg.sigma).indices_to_word(solution)
    report = covering.verify(word, cfg.k, cfg.sigma)
    if not (report.is_pdb if pdb_only else report.is_covering):
        raise AssertionError("search returned a non-witness %r for k=%d "
                             "sigma=%d" % (word, cfg.k, cfg.sigma))
    return word


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
    with _Pool(cfg.worker_count, tables) as pool:
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
        return outcome(status=STATUS_FOUND, minimal=minimal,
                       witness=_certified(cfg, sols[0], pdb_only))
    return outcome(status=STATUS_REFUTED if complete else STATUS_BUDGET,
                   refuted_up_to=refuted_up_to)


def search_shortest_covering(cfg, progress=None):
    """Iterative deepening from the lower bound; the first witness is found
    at the smallest feasible length and is minimal by exhaustion below."""
    lower = covering.bounds(cfg.k, cfg.sigma).shortest_lower_bound
    top = cfg.max_len
    if top is None:
        # every length the kernel's state allows; _prepare refuses a lower
        # bound beyond them
        top = max(lower, _longest_word(cfg.k, cfg.sigma))
    return _search(cfg, TARGET_SHORTEST, range(lower, top + 1), False, True,
                   min(lower - 1, top), progress)


def _pdb_lengths(k, sigma):
    """The lengths a perfect-cover search runs: the perfect length, or none
    when the counting bound rules it out, as no covering word is then that
    short.  bounds() refuses a k or sigma below 1."""
    bounds = covering.bounds(k, sigma)
    return [bounds.pdb_length] if bounds.pdb_possible_by_bounds else []


def search_pdb_existence(k, sigma, cfg=None, progress=None):
    """Search the single feasible perfect-cover length, windows never
    repeating a vector; refutation means no such word exists at all."""
    cfg = replace(cfg or SearchConfig(k=k, sigma=sigma), k=k, sigma=sigma,
                  target=TARGET_PDB)
    lengths = _pdb_lengths(k, sigma)
    return _search(cfg, TARGET_PDB, lengths, True, True,
                   None if lengths else covering.perfect_length(k, sigma),
                   progress)


def _collect_all(cfg, lengths, pdb_only, what):
    """Yields the kernel's canonical solutions of ``lengths`` in order, with
    one tables build, pool and node budget for all of them; raises
    CapacityExceeded, naming the length, when the budget runs out."""
    tables = _prepare(cfg, lengths) if lengths else None
    nodes = 0
    with _Pool(cfg.worker_count, tables) as pool:
        for length in lengths:
            complete, sols, n, _d = _search_length(
                cfg, tables, length, pdb_only, 0, _budget_left(cfg, nodes),
                pool)
            nodes += n
            if not complete:
                raise CapacityExceeded("%s ran out of node budget at length "
                                       "%d" % (what, length))
            yield from sols


def iter_covering_words(k, sigma, max_len, node_budget=None):
    """Every canonical k-covering word of length <= max_len, shortest first,
    lexicographic within a length.  ``node_budget`` is as in SearchConfig
    (0: no cap), DEFAULT_NODE_BUDGET when None; running out of it raises
    CapacityExceeded."""
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    cfg = SearchConfig(k=k, sigma=sigma, node_budget=node_budget)
    lengths = range(covering.bounds(k, sigma).shortest_lower_bound,
                    max_len + 1)
    for sol in _collect_all(cfg, lengths, False, "covering-word enumeration"):
        yield _certified(cfg, sol, False)


def _canonical(letters):
    """The least of the 2 * sigma! relabel/reversal images of a word of
    letter indices: the word and its reversal, each relabeled 0, 1, 2, ...
    by first occurrence, the smaller as a tuple."""
    def relabeled(seq):
        first = {}
        return tuple(first.setdefault(c, len(first)) for c in seq)

    return min(relabeled(letters), relabeled(letters[::-1]))


def canonical_form(word, sigma):
    """The least relabel/reversal image of a word, compared on indices."""
    alphabet = V.Alphabet(sigma)
    return alphabet.indices_to_word(_canonical(alphabet.word_to_indices(word)))


def enumerate_all_pdb(k, sigma, cfg=None):
    """All perfect covering words, one canonical representative per orbit
    under alphabet relabeling and reversal, sorted by letter indices: []
    at once when the counting bound rules them out, else bounded by the
    node budget of ``cfg``, whose exhaustion raises CapacityExceeded."""
    cfg = replace(cfg or SearchConfig(k=k, sigma=sigma), k=k, sigma=sigma,
                  target=TARGET_PDB)
    classes = {_canonical(sol) for sol in _collect_all(
        cfg, _pdb_lengths(k, sigma), True, "perfect-cover enumeration")}
    return [_certified(cfg, rep, True) for rep in sorted(classes)]
