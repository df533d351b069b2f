"""Exhaustive search for shortest covering words and perfect covering words.

run_search(cfg) is the one entry point to an outcome, and cfg the one
source of k, sigma and the target, which gives the lengths searched.  One
loop over the lengths serves it and the enumerations.  A shortest covering
word is sought by iterative deepening from the combined lower bound, so a
witness found at length L certifies minimality once every shorter length
has been refuted.  Each length is explored depth-first in canonical form
(letters first appear in alphabet order), letters tried in alphabet order,
so the first witness is the lexicographically smallest canonical one;
refutations are exhaustive over canonical words, which suffices because
the target predicates are invariant under relabeling.

The kernel tables are built once per search call.  Every length first runs
its whole tree inline, as one worker does.  With N workers that inline run
is capped at the kernel's first checkpoint, kernel.PROGRESS_INTERVAL (10^6)
nodes: only a length that outgrows the cap, when the budget allows more,
starts the call's threads and is split, its inline run discarded, and the
later lengths of the call go straight to those threads.  A search that ends
before the cap thus starts no thread, whatever the worker count.  N is at
most the number of usable CPUs.  The split gives N workers the canonical
prefixes of the shallowest depth that gives TASKS_PER_WORKER * N tasks
(Embarrassingly Parallel Search, Regin et al., CP 2013).  Tasks are merged
in prefix order (first task with a witness wins), and the node budget caps
the whole search call: it is exhausted at the first task where the running
total passes the budget.  The loop resolves cfg.node_budget once: None or
0 (no cap) becomes kernel.MAX_NODES, the range of the kernel's node
counter, and below the loop a budget is the int of nodes still allowed,
which the kernel never passes.  The kernel counts every node in exactly
one task, so outcome, node count and depth are the same for any worker
count.
The inner loop is the compiled kernel of the kernel module.

A search call keeps at most one thread pool for all its lengths.  Its
threads share the call's tables: the compiled kernel keeps its state per
call and releases the GIL while it runs.  The merge settles only at a task
whose predecessors are all folded, and every settle ends the search call,
so the tasks then queued or running are of no use: on leaving the call
they are cancelled or end at their next kernel checkpoint, and the call
returns with no thread of its pool left.
"""

import os
import time
from contextlib import closing
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

# Tasks per worker: enough that uneven subtrees even out.
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


def _check_sizes(cfg):
    """Refuses a config whose (k, sigma) vectors.check_instance refuses, then
    one whose worker count, node budget or lengths are not ints in range,
    through the same test.  node_budget and max_len may be None (no cap,
    no limit); an existence search needs its target_length."""
    V.check_instance(cfg.k, cfg.sigma)
    sizes = [("worker_count", 1, False), ("node_budget", 0, True),
             ("max_len", 0, True)]
    if cfg.target == TARGET_AT_LENGTH:
        sizes.append(("target_length", cfg.k, False))
    for name, least, optional in sizes:
        value = getattr(cfg, name)
        if not (V._is_size(value, least) or optional and value is None):
            raise InvalidInput("%s must be an int >= %d, got %r"
                               % (name, least, value))


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


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    # macOS and Windows have no affinity call
    return os.cpu_count() or 1


THREAD_PREFIX = "parikhgrid-search"


class _Stopped(Exception):
    """Ends a pool task at a kernel checkpoint once its pool is stopping."""


class _Pool:
    """The worker threads of one search call, started by its first map()
    for all its lengths and ended on leaving the ``with`` block by any path.
    ``worker_count`` sizes the pool and each split: the configured count,
    at most one per usable CPU."""

    def __init__(self, worker_count):
        self.worker_count = min(worker_count, _usable_cpus())
        self.executor = None
        self.stopping = False

    def _checkpoint(self, *_report):
        if self.stopping:
            raise _Stopped

    def map(self, tables, jobs):
        """The results of ``jobs`` in order, run on the pool's threads."""
        if self.executor is None:
            # imported here: most searches never split, and neither the
            # import of the package nor such a search loads this module
            from concurrent.futures import ThreadPoolExecutor
            self.executor = ThreadPoolExecutor(
                self.worker_count, thread_name_prefix=THREAD_PREFIX)
        return self.executor.map(
            partial(_subtree_task, tables=tables, progress=self._checkpoint),
            jobs)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        if self.executor is not None:
            self.stopping = True
            self.executor.shutdown(wait=True, cancel_futures=True)


def _subtree_task(job, tables, progress=None):
    """Runs one task, the subtree below its prefix, on ``tables``."""
    k, sigma, length, pdb_only, mask, prefix, collect_limit, cap = job
    return kernel.fixed_length_search(k, sigma, length, tables, pdb_only,
                                      mask, prefix, collect_limit, cap,
                                      progress)


def _search_length(cfg, tables, length, pdb_only, collect_limit, budget,
                   pool, progress=None):
    """Explore one fixed length; returns (complete, solutions, nodes, depth).

    ``budget`` is the number of nodes the search call may still spend.
    The length runs inline until ``pool`` (a _Pool) has started; with N
    workers that run is capped at the kernel's first checkpoint, and a
    length that outgrows the cap, when the budget allows more, starts the
    pool.  Tasks run on the pool and merge in prefix order; the length is
    exhausted at the first task where the running total passes the budget,
    and reports budget + 1 nodes, as one task over the whole tree would.
    """
    mask = _rules_mask(cfg.rules)
    workers = pool.worker_count

    def job(prefix, cap):
        return (cfg.k, cfg.sigma, length, pdb_only, mask, prefix,
                collect_limit, cap)

    complete, solutions, nodes, max_depth = True, [], 0, 0

    def fold(prefix, result):
        nonlocal complete, nodes, max_depth
        _complete, sols, task_nodes, task_depth = result
        if nodes + task_nodes > budget:
            # a task given more than was left is redone with exactly that,
            # for the depth one task over the whole tree reaches
            left = budget - nodes
            if left < budget:
                task_depth = _subtree_task(job(prefix, left), tables)[3]
            complete, nodes = False, budget + 1
            max_depth = max(max_depth, task_depth)
            return True
        nodes += task_nodes
        max_depth = max(max_depth, task_depth)
        solutions.extend(sols)
        return bool(sols) and 0 < collect_limit <= len(solutions)

    if workers == 1 or pool.executor is None:
        # the one-worker run; with N workers it is capped at the first
        # checkpoint, past which the split takes over and counts the same
        # nodes
        cap, checkpoint = budget, None
        if workers > 1:
            cap = min(budget, kernel.PROGRESS_INTERVAL)
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
    results = pool.map(tables, [job(prefix, budget) for prefix in prefixes])
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


def _lengths(cfg):
    """The lengths the search of ``cfg`` runs, in order, and the length
    refuted before the first of them (None: none).  No perfect cover is
    sought where the counting bound rules it out, as no covering word is
    then that short."""
    if cfg.target == TARGET_AT_LENGTH:
        return [cfg.target_length], None
    bounds = covering.bounds(cfg.k, cfg.sigma)
    if cfg.target == TARGET_PDB:
        if bounds.pdb_possible_by_bounds:
            return [bounds.pdb_length], None
        return [], bounds.pdb_length
    lower = bounds.shortest_lower_bound
    top = cfg.max_len
    if top is None:
        # every length the kernel's state allows; the loop refuses a lower
        # bound beyond them
        top = max(lower, _longest_word(cfg.k, cfg.sigma))
    return range(lower, top + 1), min(lower - 1, top)


def _search_lengths(cfg, lengths, pdb_only, collect_limit, progress=None):
    """Searches ``lengths`` in order with one tables build, one pool and
    one node budget for all of them, and yields (length, complete,
    solutions, nodes, max_depth) after each, nodes and max_depth over the
    lengths so far; stops after a length the budget left incomplete.  A
    caller that stops earlier closes it, which ends the pool."""
    if not lengths:
        return
    longest = _longest_word(cfg.k, cfg.sigma)
    if lengths[-1] > longest:
        raise CapacityExceeded(
            "a search word of %d letters for k=%d sigma=%d exceeds the "
            "MAX_TABLE_ENTRIES bound: at most %d letters"
            % (lengths[-1], cfg.k, cfg.sigma, longest))
    tables = _build_tables(cfg.k, cfg.sigma)
    budget = min(cfg.node_budget or kernel.MAX_NODES, kernel.MAX_NODES)
    nodes = max_depth = 0
    with _Pool(cfg.worker_count) as pool:
        for length in lengths:
            complete, sols, n, d = _search_length(
                cfg, tables, length, pdb_only, collect_limit, budget - nodes,
                pool, progress)
            nodes += n
            max_depth = max(max_depth, d)
            yield length, complete, sols, nodes, max_depth
            if not complete:
                return


def run_search(cfg, progress=None):
    """The outcome of the search ``cfg`` describes.  A perfect cover is
    sought at its one feasible length, windows never repeating a vector,
    so a refutation means none exists."""
    if cfg.target not in (TARGET_SHORTEST, TARGET_PDB, TARGET_AT_LENGTH):
        raise InvalidInput("unknown search target %r" % (cfg.target,))
    start = time.perf_counter()
    _check_sizes(cfg)
    lengths, refuted_up_to = _lengths(cfg)
    pdb_only = cfg.target == TARGET_PDB
    complete, sols, nodes, max_depth = True, [], 0, 0
    # closed before the witness is certified: no thread of the pool is
    # left by then
    with closing(_search_lengths(cfg, lengths, pdb_only, 1,
                                 progress)) as searched:
        for length, complete, sols, nodes, max_depth in searched:
            if sols or not complete:
                break
            refuted_up_to = length
    outcome = partial(SearchOutcome, k=cfg.k, sigma=cfg.sigma,
                      target=cfg.target,
                      stats=SearchStats(nodes=nodes, max_depth=max_depth,
                                        elapsed=time.perf_counter() - start))
    if sols:
        return outcome(status=STATUS_FOUND,
                       minimal=cfg.target != TARGET_AT_LENGTH,
                       witness=_certified(cfg, sols[0], pdb_only))
    return outcome(status=STATUS_REFUTED if complete else STATUS_BUDGET,
                   refuted_up_to=refuted_up_to)


def _collect_all(cfg, what):
    """Yields the kernel's canonical solutions of the lengths the search of
    ``cfg`` runs, in order; raises CapacityExceeded, naming the length,
    when the budget runs out."""
    _check_sizes(cfg)
    with closing(_search_lengths(cfg, _lengths(cfg)[0],
                                 cfg.target == TARGET_PDB, 0)) as searched:
        for length, complete, sols, _nodes, _depth in searched:
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
    cfg = SearchConfig(k=k, sigma=sigma, max_len=max_len,
                       node_budget=node_budget)
    for sol in _collect_all(cfg, "covering-word enumeration"):
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
    node budget of ``cfg``, whose exhaustion raises CapacityExceeded.
    ``cfg`` must be of the same k and sigma; its target is ignored."""
    cfg = cfg or SearchConfig(k=k, sigma=sigma)
    if (cfg.k, cfg.sigma) != (k, sigma):
        raise InvalidInput("a config of k=%r sigma=%r cannot enumerate the "
                           "perfect covers of k=%r sigma=%r"
                           % (cfg.k, cfg.sigma, k, sigma))
    cfg = replace(cfg, target=TARGET_PDB)
    classes = {_canonical(sol) for sol in _collect_all(
        cfg, "perfect-cover enumeration")}
    return [_certified(cfg, rep, True) for rep in sorted(classes)]
