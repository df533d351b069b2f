from collections import deque
import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from parikhgrid import covering as C
from parikhgrid import kernel
from parikhgrid import search as S
from parikhgrid import vectors as V
from parikhgrid.errors import CapacityExceeded, InvalidInput

import pure_kernel
from helpers import (canonical_indices, colex_vectors,
                     covering_word_exists_naive, grid_step, pdb_search,
                     render_indices)

# (k, sigma) -> expected shortest covering length
SHORTEST = {(2, 3): 7, (3, 3): 12, (2, 4): 12, (2, 5): 16, (4, 3): 19,
            (1, 3): 3, (2, 2): 4, (3, 2): 6, (4, 2): 8, (5, 2): 10}


@pytest.fixture
def cpus(monkeypatch):
    """Four usable CPUs, so that searches of up to four workers start as
    many threads on any machine."""
    monkeypatch.setattr(S, "_usable_cpus", lambda: 4)


@pytest.fixture
def pools(monkeypatch, cpus):
    """The thread pools that search calls start, in order; each records
    the number of tasks mapped on it."""
    started = []

    class CountedExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            self.tasks = 0
            started.append(self)
            super().__init__(*args, **kwargs)

        def map(self, fn, jobs):
            jobs = list(jobs)
            self.tasks += len(jobs)
            return super().map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        CountedExecutor)
    return started


def _search_threads():
    """The threads of search pools still alive."""
    return [t for t in threading.enumerate()
            if t.name.startswith(S.THREAD_PREFIX)]


# The search's own task, which _slow_past_the_witness wraps.
_subtree_task = S._subtree_task
# The witness of the search that _slow_past_the_witness slows down, as
# letter indices; set before the search starts its threads.
_witness = None


def _slow_past_the_witness(job, tables, progress=None):
    # a pool task whose prefix sorts after the witness's calls its
    # checkpoint every 5 ms for 30 s before it runs; the inline run has no
    # checkpoint and the empty prefix
    prefix = job[5]
    if progress is not None and prefix > tuple(_witness[:len(prefix)]):
        end = time.monotonic() + 30
        while time.monotonic() < end:
            progress(0, len(prefix), 0)
            time.sleep(0.005)
    return _subtree_task(job, tables, progress)


class TestShortestCovering:
    @pytest.mark.parametrize("k,sigma", sorted(SHORTEST))
    def test_lengths_and_minimality(self, k, sigma):
        out = S.run_search(S.SearchConfig(k=k, sigma=sigma))
        assert out.status == S.STATUS_FOUND
        assert len(out.witness) == SHORTEST[(k, sigma)]
        assert out.minimal
        assert C.verify(out.witness, k, sigma).is_covering

    def test_length_never_below_bound(self):
        for (k, sigma), length in SHORTEST.items():
            assert length >= C.bounds(k, sigma).shortest_lower_bound

    def test_k2_closed_form(self):
        for sigma in range(2, 6):
            out = S.run_search(S.SearchConfig(k=2, sigma=sigma))
            expected = (sigma * (sigma + 1)) // 2 + (1 if sigma % 2
                                                     else sigma // 2)
            assert len(out.witness) == expected

    def test_k2_s6_beyond_the_default_budget(self):
        # the closed form is 24 letters; with every rule on, the default
        # budget runs out in length 24 after refuting 23
        out = S.run_search(S.SearchConfig(k=2, sigma=6))
        if out.status == S.STATUS_FOUND:
            assert len(out.witness) == 24 and out.minimal
        else:
            assert out.status == S.STATUS_BUDGET
            assert out.refuted_up_to <= 23
        word = C.construct_family("k2_eulerian", 2, 6)
        assert len(word) == 24 and C.verify(word, 2, 6).is_covering

    @pytest.mark.parametrize("k,sigma,nodes,witness", [
        (7, 3, 9_961_588, "aabbbccbbcccabacaaabcbbbbbbbaaaaaaacccccccba"),
        (8, 3, 20_236_432,
         "aaaaaaaabbbbbbbbccccccccaaaaacaabbbcbabbcccacbccaaabaa"),
        (4, 4, 9_618_268, "aabbbbcaacadbddbccacddddaaaabdbbccccdd"),
        # 70 vectors: the compiled kernel's masks take two words
        (4, 5, 1_030_711,
         "aaaabbbbcaaadbbbeaaccbbddaaeaebcccadbeeeadddcccceeeeddddbebecbdcde"
         "ceacdad"),
    ])
    def test_compiled_outcomes_pinned(self, k, sigma, nodes, witness):
        # every node of a covering search reads the carried component
        # count, so a count that is wrong anywhere moves these
        out = S.run_search(S.SearchConfig(k=k, sigma=sigma))
        assert (out.status, out.witness, out.minimal, out.stats.nodes,
                out.stats.max_depth) == (S.STATUS_FOUND, witness, True, nodes,
                                         len(witness))

    def test_max_len_refutation(self):
        out = S.run_search(
            S.SearchConfig(k=3, sigma=3, max_len=11))
        assert out.status == S.STATUS_REFUTED
        assert out.refuted_up_to == 11

    def test_budget_past_the_node_counter_is_no_cap(self):
        # no search reaches a budget past the kernel's node counter
        def run(budget):
            out = S.run_search(S.SearchConfig(k=3, sigma=3,
                                              node_budget=budget))
            return (out.status, out.witness, out.stats.nodes,
                    out.stats.max_depth)

        assert run(2**70) == run(kernel.MAX_NODES) == run(0) == run(None)

    def test_budget_exhaustion_reported(self):
        out = S.run_search(
            S.SearchConfig(k=4, sigma=3, node_budget=50))
        assert out.status == S.STATUS_BUDGET

    @pytest.mark.parametrize("target", [S.TARGET_SHORTEST, S.TARGET_PDB,
                                        S.TARGET_AT_LENGTH])
    @pytest.mark.parametrize("budget", [1, 2, 10, 50, 300])
    def test_one_budget_for_all_tasks(self, target, budget):
        # the 2-worker search stops inside a task that ran past the budget,
        # and still reports the nodes and depth of the 1-worker search
        def run(workers):
            out = S.run_search(S.SearchConfig(
                k=4, sigma=4, target=target, target_length=40,
                node_budget=budget, worker_count=workers))
            return out.status, out.stats.nodes, out.stats.max_depth

        one = run(1)
        assert one[:2] == (S.STATUS_BUDGET, budget + 1)
        assert run(2) == one

    @pytest.mark.parametrize("budget", [3_212, 3_213, 12_345, 45_015,
                                        46_016, 46_017, 123_457])
    def test_one_budget_for_all_lengths(self, budget):
        # lengths 25 and 26 are refuted in exactly 3,212 and 45,015 nodes in
        # all, and the length after runs out of what is left, even when
        # nothing is left; the whole search, found at 27, fits in 123,457
        def run(**kw):
            return S.run_search(S.SearchConfig(k=5, sigma=3,
                                                             **kw))

        out = run(node_budget=budget)
        if budget == 123_457:
            whole = run(node_budget=0)
            assert whole.status == S.STATUS_FOUND
            assert whole.stats.nodes < budget
            assert (out.status, out.witness, out.stats.nodes,
                    out.stats.max_depth) == (whole.status, whole.witness,
                                             whole.stats.nodes,
                                             whole.stats.max_depth)
            return
        refuted = 25 if budget < 45_015 else 26
        assert out.status == S.STATUS_BUDGET
        assert out.refuted_up_to == refuted
        assert out.stats.nodes == budget + 1
        if budget in (3_212, 45_015):
            # nothing of the next length was placed
            below = run(max_len=refuted)
            assert below.stats.nodes == budget
            assert out.stats.max_depth == below.stats.max_depth


class TestPdbExistence:
    @pytest.mark.parametrize("k,sigma", [(3, 6), (2, 4)])
    def test_refuted_by_bounds_without_search(self, k, sigma):
        # a perfect cover is shorter than the counting bound allows
        assert not C.bounds(k, sigma).pdb_possible_by_bounds
        out = pdb_search(k, sigma)
        assert out.status == S.STATUS_REFUTED
        assert out.refuted_up_to == C.perfect_length(k, sigma)
        assert out.stats.nodes == 0

    def test_4_3_refuted_at_18(self):
        out = pdb_search(4, 3)
        assert out.status == S.STATUS_REFUTED
        assert out.refuted_up_to == 18

    def test_3_3_found(self):
        out = pdb_search(3, 3)
        assert out.status == S.STATUS_FOUND
        assert C.verify(out.witness, 3, 3).is_pdb
        assert out.minimal

    def test_binary_found(self):
        for k in (2, 3, 5):
            out = pdb_search(k, 2)
            assert out.status == S.STATUS_FOUND
            assert len(out.witness) == 2 * k

    def test_5_4_sixty_letter_word_found(self):
        out = pdb_search(5, 4)
        assert out.status == S.STATUS_FOUND
        assert len(out.witness) == 60
        assert C.verify(out.witness, 5, 4).is_pdb


class TestTables:
    @pytest.mark.parametrize("k,sigma", [(3, 1), (3, 3), (4, 5), (2, 15)])
    def test_shift_and_dist_match_the_grid(self, k, sigma):
        vectors = colex_vectors(k, sigma)
        rank = {p: i for i, p in enumerate(vectors)}
        n_vec, shift = S._build_tables(k, sigma)
        assert pure_kernel.build_tables(k, sigma) == (n_vec, shift)
        assert shift.typecode == "i"
        assert n_vec == len(vectors)
        assert shift.tolist() == [
            rank.get(grid_step(p, out, into), -1)
            for p in vectors for out in range(sigma) for into in range(sigma)]
        # the components rule walks the shift entries other than -1 and the
        # vector itself: the fewest steps between two vectors is the grid
        # distance k - sum(min(p_i, q_i)), so the grid is one component
        width = sigma * sigma
        dist = []
        for start in range(n_vec):
            seen = {start: 0}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for x in shift[v * width:(v + 1) * width]:
                    if x >= 0 and x not in seen:
                        seen[x] = seen[v] + 1
                        queue.append(x)
            dist.extend(seen.get(q) for q in range(n_vec))
        assert dist == [k - sum(map(min, p, q))
                        for p in vectors for q in vectors]

    def test_bound_is_checked_before_the_tables_are_built(self, monkeypatch):
        # 50,388 vectors of (k=12, sigma=8) fit in 3,224,844 ints; the
        # 77,520 of (k=13, sigma=8) would take 4,961,293
        assert S._build_tables(12, 8)[0] == 50388
        monkeypatch.setattr(kernel, "build_tables", None)
        with pytest.raises(CapacityExceeded, match="MAX_TABLE_ENTRIES"):
            S._build_tables(13, 8)
        # one vector, but the kernel's state grows with words of k letters
        with pytest.raises(CapacityExceeded, match="MAX_TABLE_ENTRIES"):
            S._build_tables(S.MAX_TABLE_ENTRIES, 1)

    @pytest.mark.parametrize("search", [
        lambda: S.run_search(S.SearchConfig(k=13, sigma=8)),
        lambda: S.run_search(S.SearchConfig(
            k=13, sigma=8, target=S.TARGET_AT_LENGTH, target_length=80_000)),
        lambda: list(S.iter_covering_words(13, 8, 80_000)),
    ])
    def test_covering_searches_count_only_the_shifts(self, monkeypatch,
                                                     search):
        # the kernel keeps a covering search's neighbour masks as it keeps a
        # perfect cover's, so the 3,224,832 shifts of (k=12, sigma=8) leave
        # the same room for either target, and those of (k=13, sigma=8) none
        assert S._longest_word(12, 8) == S.MAX_TABLE_ENTRIES - 3_224_832
        assert S._longest_word(12, 8) >= C.perfect_length(12, 8)
        assert S._longest_word(8, 8) == S.MAX_TABLE_ENTRIES - 6_435 * 64
        monkeypatch.setattr(kernel, "build_tables", None)
        with pytest.raises(CapacityExceeded, match="MAX_TABLE_ENTRIES"):
            search()

    @pytest.mark.parametrize("cfg", [
        S.SearchConfig(k=2, sigma=2, target=S.TARGET_AT_LENGTH,
                       target_length=S.MAX_TABLE_ENTRIES - 11),
        S.SearchConfig(k=2, sigma=2, max_len=3_000_000_000),
        S.SearchConfig(k=3, sigma=4, target=S.TARGET_AT_LENGTH,
                       target_length=3_000_000_000),
    ])
    def test_length_is_checked_before_the_tables_are_built(self, monkeypatch,
                                                           cfg):
        # the kernels keep a few ints per letter: the 3 * 2^2 shifts of
        # (k=2, sigma=2) leave room for MAX_TABLE_ENTRIES - 12 letters
        assert S._longest_word(2, 2) == S.MAX_TABLE_ENTRIES - 12
        monkeypatch.setattr(kernel, "build_tables", None)
        with pytest.raises(CapacityExceeded, match="MAX_TABLE_ENTRIES"):
            S.run_search(cfg)


class TestMinimalityCertificates:
    """Refutations re-checked by plain enumeration with no pruning."""

    def test_2_3_state_space(self):
        # 3^6 words of length 6: pure-Python oracle
        assert not covering_word_exists_naive(2, 3, 6)

    def test_3_3_naive_kernel(self):
        tables = S._build_tables(3, 3)
        assert kernel.find_covering_naive(3, 3, 11, tables) is None

    def test_2_4_naive_kernel(self):
        tables = S._build_tables(2, 4)
        assert kernel.find_covering_naive(2, 4, 11, tables) is None

    def test_naive_finds_when_one_exists(self):
        tables = S._build_tables(2, 3)
        word = kernel.find_covering_naive(2, 3, 7, tables)
        assert word is not None
        rendered = V.Alphabet(3).indices_to_word(list(word))
        assert C.verify(rendered, 2, 3).is_covering

    def test_kernel_naive_matches_pure_oracle(self):
        # cross-check the kernel enumerator against itertools enumeration
        for k, sigma, length in [(2, 2, 3), (2, 2, 4), (2, 3, 6), (2, 3, 7),
                                 (3, 2, 5), (3, 2, 6)]:
            tables = S._build_tables(k, sigma)
            got = kernel.find_covering_naive(k, sigma, length, tables)
            assert (got is not None) == covering_word_exists_naive(
                k, sigma, length)

    def test_4_3_refutation_confirmed_over_full_space(self):
        # a length-18 covering word over three letters would have exactly
        # 15 windows for 15 vectors, i.e. be a perfect cover; enumerating
        # all 3^18 words with no pruning and no symmetry confirms there is
        # none, independently of the backtracking search
        tables = S._build_tables(4, 3)
        assert kernel.find_covering_naive(4, 3, 18, tables) is None


REGRESSION = [
    ("shortest", 2, 3), ("shortest", 3, 3), ("shortest", 2, 4), ("pdb", 4, 3),
]


class TestPruningRules:
    @pytest.mark.parametrize("target,k,sigma", REGRESSION)
    @pytest.mark.parametrize("dropped", sorted(S.ALL_RULES))
    def test_each_rule_removable(self, target, k, sigma, dropped):
        rules = frozenset(S.ALL_RULES - {dropped})
        reference = self._run(target, k, sigma, S.ALL_RULES)
        got = self._run(target, k, sigma, rules)
        assert got.status == reference.status
        assert got.witness == reference.witness
        assert got.minimal == reference.minimal

    @staticmethod
    def _run(target, k, sigma, rules):
        if target == "pdb":
            return pdb_search(k, sigma, rules=rules)
        return S.run_search(S.SearchConfig(k=k, sigma=sigma, rules=rules))

    @pytest.mark.parametrize("target,k,sigma,witness", [
        (S.TARGET_PDB, 6, 3, None),
        (S.TARGET_SHORTEST, 5, 3, "aaaaabbbacccccbbbbbaacaaccb"),
    ])
    def test_components_rule_prunes(self, target, k, sigma, witness):
        # the same answer from fewer nodes
        def run(rules):
            return S.run_search(S.SearchConfig(k=k, sigma=sigma, target=target,
                                               rules=rules, node_budget=0))

        on = run(S.ALL_RULES)
        off = run(S.ALL_RULES - {"components"})
        assert (on.status, on.witness, on.refuted_up_to) == (
            off.status, off.witness, off.refuted_up_to)
        assert on.witness == witness
        assert on.stats.nodes < off.stats.nodes


class TestDeterminism:
    def test_witness_stable_across_worker_counts(self):
        outs = [S.run_search(
            S.SearchConfig(k=3, sigma=3, worker_count=w)) for w in (1, 2, 4)]
        assert len({o.witness for o in outs}) == 1
        assert len({o.status for o in outs}) == 1

    def test_repeat_runs_identical(self):
        a = S.run_search(S.SearchConfig(k=2, sigma=4))
        b = S.run_search(S.SearchConfig(k=2, sigma=4))
        assert a.witness == b.witness and a.stats.nodes == b.stats.nodes

    def test_workers_stop_after_the_witness(self, pools):
        # without the components rule this search takes 12.9M nodes, so
        # with 2 workers its inline run reaches the first checkpoint and the
        # length is split into 202 tasks (prefixes of 6 letters); the
        # witness is in the 4th, and tasks after it would each run to the
        # 10^8-node budget it is given: the search stops its pool once the
        # witness is merged, so no thread is left when it returns
        out = pdb_search(4, 5, worker_count=2,
                         rules=S.ALL_RULES - {"components"})
        assert out.status == S.STATUS_FOUND
        assert len(pools) == 1 and pools[0].tasks == 202
        assert _search_threads() == []

    @pytest.mark.parametrize("target,k,sigma,rules,budget", [
        pytest.param(S.TARGET_SHORTEST, 3, 4, S.ALL_RULES,
                     S.DEFAULT_NODE_BUDGET, id="shortest-k3-s4"),
        pytest.param(S.TARGET_PDB, 4, 3, S.ALL_RULES, S.DEFAULT_NODE_BUDGET,
                     id="pdb-k4-s3"),
        pytest.param(S.TARGET_PDB, 2, 5, frozenset({"duplicate_window"}),
                     S.DEFAULT_NODE_BUDGET, id="pdb-k2-s5-duplicate-only"),
        pytest.param(S.TARGET_PDB, 6, 4, S.ALL_RULES, 1_000,
                     id="pdb-k6-s4-budget-1000"),
        pytest.param(S.TARGET_PDB, 6, 4, S.ALL_RULES, 123_457,
                     id="pdb-k6-s4-budget-123457"),
        pytest.param(S.TARGET_SHORTEST, 5, 3, frozenset({"components"}),
                     S.DEFAULT_NODE_BUDGET, id="shortest-k5-s3-components"),
        pytest.param(S.TARGET_PDB, 6, 3, S.ALL_RULES, S.DEFAULT_NODE_BUDGET,
                     id="pdb-k6-s3"),
        # the searches below reach the kernel's first checkpoint, where
        # more than one worker hands the length over to the pool: length 42
        # ends inline, 43 is handed over and 44 runs on the started pool
        pytest.param(S.TARGET_SHORTEST, 7, 3, S.ALL_RULES,
                     S.DEFAULT_NODE_BUDGET, id="shortest-k7-s3-handed-over"),
        # the budget ends the inline run one node before its checkpoint,
        # at it, and one node after it
        *[pytest.param(S.TARGET_PDB, 6, 4, S.ALL_RULES,
                       kernel.PROGRESS_INTERVAL + d,
                       id="pdb-k6-s4-budget-checkpoint%+d" % d)
          for d in (-1, 0, 1)],
    ])
    def test_two_workers_match_one(self, cpus, target, k, sigma, rules,
                                   budget):
        # each node is counted in exactly one task and the budget is merged
        # in prefix order, so splitting for workers changes nothing
        def run(workers):
            out = S.run_search(S.SearchConfig(
                k=k, sigma=sigma, target=target, worker_count=workers,
                node_budget=budget, rules=rules))
            return (out.status, out.witness, out.refuted_up_to,
                    out.stats.nodes, out.stats.max_depth)

        one = run(1)
        assert run(2) == one
        assert run(3) == one

    def test_more_threads_than_cores_under_fast_switching(self, pools):
        # four threads, switching every microsecond, on a machine that may
        # have fewer cores: the tasks share only the tables, which no one
        # writes, so a result lost or mixed up in the merge would move the
        # outcome.  Shortest (k=7, sigma=3) splits lengths 43 and 44
        def run(workers):
            out = S.run_search(
                S.SearchConfig(k=7, sigma=3, worker_count=workers))
            return (out.status, out.witness, out.stats.nodes,
                    out.stats.max_depth)

        one = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run(4) == one
        finally:
            sys.setswitchinterval(interval)
        assert len(pools) == 1 and pools[0].tasks > 4

    def test_one_pool_per_search_call(self, pools):
        # shortest (k=5, sigma=3) refutes lengths 25 and 26 before its
        # witness at 27 in 49,469 nodes, all inline below the kernel's
        # first checkpoint, so no worker count starts a pool for it
        assert C.bounds(5, 3).shortest_lower_bound == 25
        for workers in (1, 2):
            out = S.run_search(
                S.SearchConfig(k=5, sigma=3, worker_count=workers))
            assert len(out.witness) == 27
            assert pools == []

    def test_one_pool_for_the_lengths_past_the_checkpoint(self, pools):
        # shortest (k=8, sigma=3): length 52 ends inline in 820,913 nodes,
        # 53 outgrows the first checkpoint and starts the pool, and 54 goes
        # straight to that pool, though its 471,601 nodes would end inline
        out = S.run_search(
            S.SearchConfig(k=8, sigma=3, worker_count=2))
        assert len(out.witness) == 54 and out.minimal
        assert len(pools) == 1
        assert pools[0].tasks == sum(
            len(S._task_prefixes(3, length, 2)) for length in (53, 54))

    @pytest.mark.parametrize("over,started", [(-1, 0), (0, 0), (1, 1)])
    def test_pool_only_for_a_budget_past_the_cap(self, pools, monkeypatch,
                                                 over, started):
        # the inline run of 2 workers is capped at the first checkpoint,
        # here moved to 1,000 nodes; a budget that ends there has the
        # one-worker outcome and starts no pool
        monkeypatch.setattr(kernel, "PROGRESS_INTERVAL", 1_000)
        out = pdb_search(6, 4, worker_count=2, node_budget=1_000 + over)
        assert (out.status, out.stats.nodes) == (S.STATUS_BUDGET,
                                                 1_001 + over)
        assert len(pools) == started

    def test_no_pool_without_a_length(self, pools):
        # perfect covers of (k=3, sigma=6) are ruled out by bounds(), so
        # nothing is searched and no pool is needed; a search of their
        # length would outgrow the first checkpoint and start one
        cfg = S.SearchConfig(k=3, sigma=6, target=S.TARGET_PDB,
                             worker_count=2,
                             node_budget=2 * kernel.PROGRESS_INTERVAL)
        out = S.run_search(cfg)
        assert out.status == S.STATUS_REFUTED
        assert pools == []
        [(_length, complete, _sols, nodes, _depth)] = S._search_lengths(
            cfg, [C.perfect_length(3, 6)], True, 1)
        assert not complete and nodes == cfg.node_budget + 1
        assert len(pools) == 1

    def test_task_prefixes_follow_the_worker_count(self):
        assert S._task_prefixes(4, 38, 1) == [()]
        for sigma, length, workers in [(4, 38, 2), (2, 80, 3), (5, 73, 2)]:
            prefixes = S._task_prefixes(sigma, length, workers)
            want = S.TASKS_PER_WORKER * workers
            assert want <= len(prefixes) <= want * sigma
            assert prefixes == sorted(prefixes)
            # the shallowest such level: a length of d letters allows
            # prefixes of at most d - 1
            assert len(S._task_prefixes(sigma, len(prefixes[0]),
                                        workers)) < want
        # never deeper than length - 1
        assert S._task_prefixes(3, 3, 2) == [(0, 0), (0, 1)]


class TestWorkerStop:
    """Pool threads share the tables and run their current task; a search
    call stops its pool before it returns."""

    def test_tasks_past_the_witness_are_not_awaited(self, pools,
                                                    monkeypatch):
        # the perfect cover of (sigma=4, k=5) takes 1,254,578 nodes, so 2
        # workers split it; every pool task after the witness's calls its
        # checkpoint for 30 s, which raises once the pool is stopping
        one = pdb_search(5, 4)
        monkeypatch.setattr(sys.modules[__name__], "_witness",
                            V.Alphabet(4).word_to_indices(one.witness))
        monkeypatch.setattr(S, "_subtree_task", _slow_past_the_witness)
        start = time.monotonic()
        out = pdb_search(5, 4, worker_count=2)
        assert time.monotonic() - start < 10
        assert (out.status, out.witness) == (S.STATUS_FOUND, one.witness)
        assert len(pools) == 1 and _search_threads() == []

    def test_enumeration_out_of_budget_stops_the_pool(self, pools):
        # the perfect covers of (sigma=4, k=4) take 38,999,635 nodes, so 2
        # workers split their length past the inline run's first
        # checkpoint, and the budget runs out in the pool's tasks
        with pytest.raises(CapacityExceeded, match="at length 38"):
            S.enumerate_all_pdb(4, 4, S.SearchConfig(
                k=4, sigma=4, worker_count=2, node_budget=2 * 10**6))
        assert len(pools) == 1 and _search_threads() == []

    def test_progress_that_raises_stops_the_pool(self, pools):
        # the progress callback runs in the calling thread after each
        # merged task; what it raises, as Ctrl-C would, reaches the caller
        # once the pool's threads have ended
        class Interrupt(Exception):
            pass

        def progress(*_report):
            raise Interrupt

        with pytest.raises(Interrupt):
            pdb_search(4, 5, progress, worker_count=2,
                       rules=S.ALL_RULES - {"components"})
        assert len(pools) == 1 and _search_threads() == []

    def test_workers_stop_the_task_after_the_witness(self, cpus):
        # task (0,0,0,0,1,2), the 5th, starts beside the witness's and runs
        # to its 10^8-node cap if nothing stops it; without the components
        # rule that takes well under a second
        rules = S.ALL_RULES - {"components"}
        tables = S._build_tables(4, 5)
        job = (4, 5, C.perfect_length(4, 5), True, S._rules_mask(rules),
               (0, 0, 0, 0, 1, 2), 1, S.DEFAULT_NODE_BUDGET)
        start = time.perf_counter()
        complete, _sols, nodes, _depth = S._subtree_task(job, tables)
        alone = time.perf_counter() - start
        assert not complete and nodes > S.DEFAULT_NODE_BUDGET
        start = time.perf_counter()
        out = pdb_search(4, 5, worker_count=2, rules=rules)
        assert out.status == S.STATUS_FOUND
        assert time.perf_counter() - start < alone


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -4, 2.5, "2"])
    def test_below_one_rejected(self, workers):
        with pytest.raises(InvalidInput, match="worker_count"):
            S.run_search(S.SearchConfig(k=2, sigma=2, worker_count=workers))

    def test_at_most_one_worker_per_cpu(self, monkeypatch):
        # a fake executor records the worker count it is asked for and runs
        # the tasks in the calling thread; a cap of 1,000 nodes hands the
        # length over to it
        asked, jobs = [], []

        class FakeExecutor:
            def __init__(self, max_workers, thread_name_prefix):
                asked.append(max_workers)

            def map(self, fn, length_jobs):
                length_jobs = list(length_jobs)
                jobs.extend(length_jobs)
                return map(fn, length_jobs)

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            FakeExecutor)
        monkeypatch.setattr(S, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(kernel, "PROGRESS_INTERVAL", 1_000)

        def run(workers):
            out = S.run_search(
                S.SearchConfig(k=5, sigma=3, worker_count=workers))
            return (out.status, out.witness, out.refuted_up_to,
                    out.stats.nodes, out.stats.max_depth)

        one = run(1)
        assert asked == []
        # lengths 25 (3,212 nodes), 26 and 27 all run on the pool
        assert run(10**6) == one
        assert asked == [3]
        assert len(jobs) == sum(len(S._task_prefixes(3, length, 3))
                                for length in (25, 26, 27))


def test_no_process_machinery_below_the_first_checkpoint():
    # the package and a search that ends inline load neither the
    # multiprocessing nor the concurrent.futures modules, and start no
    # thread, whatever the worker count; (k=40, sigma=2) ends in about 120
    # nodes
    script = """
import contextlib, io, json, sys, threading
import parikhgrid, parikhgrid.cli
from parikhgrid import search
out = search.run_search(search.SearchConfig(k=5, sigma=3, worker_count=2))
with contextlib.redirect_stdout(io.StringIO()):
    code = parikhgrid.cli.main(["search", "--k", "40", "--sigma", "2",
                                "--threads", "2"])
loaded = sorted(m for m in ("multiprocessing", "concurrent.futures")
                if m in sys.modules)
print(json.dumps([out.status, code, loaded, threading.active_count()]))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(S.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [S.STATUS_FOUND, 0, [], 1]


class TestEnumerateAllPdb:
    def test_3_3_single_class(self):
        reps = S.enumerate_all_pdb(3, 3)
        assert reps == ["abbbcccaaabc"]

    def test_3_3_confirmed_over_full_space(self):
        # from scratch: scan all 3^12 words for perfect covers; the orbit
        # has all 12 images distinct and forms a single class
        words = []
        for tup in itertools.product("abc", repeat=12):
            word = "".join(tup)
            counts = [word[:3].count(c) for c in "abc"]
            seen = {tuple(counts)}
            ok = True
            for i in range(3, 12):
                counts["abc".index(word[i - 3])] -= 1
                counts["abc".index(word[i])] += 1
                key = tuple(counts)
                if key in seen:
                    ok = False
                    break
                seen.add(key)
            if ok and len(seen) == 10:
                words.append(word)
        assert len(words) == 12
        assert {S.canonical_form(w, 3) for w in words} == {"abbbcccaaabc"}

    def test_4_3_empty(self):
        assert S.enumerate_all_pdb(4, 3) == []

    def test_binary_single_class(self):
        for k in range(2, 7):
            assert S.enumerate_all_pdb(k, 2) == ["a" * k + "b" * k]

    @pytest.mark.parametrize("k, sigma", [(3, 6), (3, 9), (2, 4)])
    def test_counting_bound_decides_first(self, monkeypatch, k, sigma):
        # no covering word is as short as a perfect one: answered before
        # any table is built or the kernel runs
        def unreached(*_args):
            raise AssertionError("the enumeration reached the kernel")

        monkeypatch.setattr(kernel, "build_tables", unreached)
        monkeypatch.setattr(kernel, "fixed_length_search", unreached)
        assert not C.bounds(k, sigma).pdb_possible_by_bounds
        assert S.enumerate_all_pdb(k, sigma) == []

    def test_node_budget_bounds_the_enumeration(self):
        cfg = S.SearchConfig(k=4, sigma=4, node_budget=1000)
        with pytest.raises(CapacityExceeded,
                           match="node budget at length 38"):
            S.enumerate_all_pdb(4, 4, cfg)

    def test_4_4_classes(self, cpus):
        # 38,999,635 nodes; the same classes for any worker count
        reps = [S.enumerate_all_pdb(4, 4, S.SearchConfig(
                    k=4, sigma=4, worker_count=workers))
                for workers in (1, 2)]
        assert reps[0] == reps[1]
        assert len(reps[0]) == 38
        assert all(C.verify(word, 4, 4).is_pdb for word in reps[0])
        assert S.canonical_form(C.PERFECT_COVERS[4, 4], 4) in reps[0]

    def test_binary_k20_single_class(self):
        # 1,048,615 nodes
        assert S.enumerate_all_pdb(20, 2) == ["a" * 20 + "b" * 20]

    def test_canonical_form_is_orbit_minimum(self):
        word = "abbbcccaaabc"
        images = set()
        for perm in itertools.permutations("abc"):
            table = str.maketrans("abc", "".join(perm))
            for w in (word, word[::-1]):
                images.add(w.translate(table))
        assert S.canonical_form(word, 3) == min(images)

    def test_canonical_form_matches_the_oracle(self):
        rng = random.Random(0xCA7)
        for sigma in range(1, 41):
            for _ in range(20):
                letters = [rng.randrange(sigma)
                           for _ in range(rng.randrange(0, 3 * sigma))]
                word = render_indices(letters, sigma)
                assert S.canonical_form(word, sigma) == render_indices(
                    canonical_indices(letters), sigma), (word, sigma)
        # taken on indices, not on the rendered text: "10" sorts before
        # "2" as text
        assert S.canonical_form("0,1,10", 27) == "0,1,2"
        assert S.canonical_form("2,10,2,0", 27) == "0,1,0,2"

    def test_oracle_is_the_orbit_minimum(self):
        rng = random.Random(0x0B1)
        for sigma in range(1, 5):
            for _ in range(30):
                letters = [rng.randrange(sigma) for _ in range(8)]
                images = [[perm[c] for c in seq]
                          for perm in itertools.permutations(range(sigma))
                          for seq in (letters, letters[::-1])]
                assert canonical_indices(letters) == min(images)


class TestCertifiedExits:
    """Every word leaves the search through covering.verify: a kernel that
    returns a non-cover is caught at each exit."""

    @pytest.fixture(autouse=True)
    def broken_kernel(self, monkeypatch):
        def search(k, sigma, length, *_args):
            return True, [bytes(length)], 1, length

        monkeypatch.setattr(kernel, "fixed_length_search", search)

    def test_witness(self):
        with pytest.raises(AssertionError, match="non-witness 'aaaaaaa'"):
            S.run_search(S.SearchConfig(k=2, sigma=3))

    def test_covering_enumeration(self):
        with pytest.raises(AssertionError, match="non-witness"):
            next(S.iter_covering_words(2, 3, 8))

    def test_perfect_cover_enumeration(self):
        with pytest.raises(AssertionError, match="non-witness"):
            S.enumerate_all_pdb(3, 3)


class TestExistenceAtLength:
    def test_found_at_exact_length(self):
        cfg = S.SearchConfig(k=2, sigma=3, target=S.TARGET_AT_LENGTH,
                             target_length=8)
        out = S.run_search(cfg)
        assert out.status == S.STATUS_FOUND
        assert len(out.witness) == 8
        assert not out.minimal

    def test_refuted_below_shortest(self):
        cfg = S.SearchConfig(k=2, sigma=3, target=S.TARGET_AT_LENGTH,
                             target_length=6)
        out = S.run_search(cfg)
        assert out.status == S.STATUS_REFUTED


class TestCoveringEnumeration:
    def test_words_sorted_and_covering(self):
        words = list(S.iter_covering_words(2, 3, 8))
        assert words[0] == "aabbcca"
        assert all(C.verify(w, 2, 3).is_covering for w in words)
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)

    def test_every_found_word_obeys_lower_order_regression(self):
        # covering words over two letters, and k<=3 words generally, stay
        # covering one order down
        for k, sigma, max_len in [(3, 2, 7), (4, 2, 9), (3, 3, 12)]:
            for word in S.iter_covering_words(k, sigma, max_len):
                below = V.parikh_set(word, k - 1, sigma).members
                assert below == set(V.enumerate_pv(k - 1, sigma))

    def test_budget_zero_is_no_cap(self, monkeypatch):
        # 0 means no cap, as in SearchConfig; only None takes the default
        monkeypatch.setattr(S, "DEFAULT_NODE_BUDGET", 10)
        assert list(S.iter_covering_words(2, 3, 7, node_budget=0))
        with pytest.raises(CapacityExceeded, match="node budget"):
            list(S.iter_covering_words(2, 3, 7))
