"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All expected values are exact; the timed criteria assert their stated
wall-clock budgets.
"""

import itertools
import random
import time
from math import comb

from parikhgrid import covering as C
from parikhgrid import grid as G
from parikhgrid import realize as R
from parikhgrid import search as S
from parikhgrid import vectors as V
from parikhgrid import walks as W

from helpers import (
    LETTERS,
    REFERENCE_COVER_ROWS,
    W54,
    achievable_window_sets,
    cliques_of_size,
)

rng = random.Random(0xACCE97)


def _report(num, label):
    print("ACCEPTANCE %2d: PASS - %s" % (num, label))


def test_criterion_01_enumeration_counts():
    start = time.perf_counter()
    for k in range(1, 9):
        for sigma in range(1, 9):
            assert len(V.enumerate_pv(k, sigma)) == comb(k + sigma - 1,
                                                         sigma - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "vector counts match the binomial formula for k,sigma <= 8 "
               "(%.2fs)" % elapsed)


def test_criterion_02_neighborhood_example():
    p = (1, 2, 0)
    assert V.neighbors(p) == {(0, 3, 0), (0, 2, 1), (2, 1, 0), (1, 1, 1)}
    assert V.parents(p) == {(2, 2, 0), (1, 3, 0), (1, 2, 1)}
    assert V.children(p) == {(0, 2, 0), (1, 1, 0)}
    _report(2, "neighbors/parents/children of (1,2,0) reproduce exactly")


def test_criterion_03_walk_example():
    walk = W.walk_of("aabacabb", 4)
    assert walk.vertices == ((3, 1, 0), (2, 1, 1), (2, 1, 1), (2, 1, 1),
                             (1, 2, 1))
    assert walk.enclosing_vectors() == [(3, 1, 1), (3, 1, 1), (2, 2, 1),
                                        (2, 2, 1)]
    assert walk.inner_vectors() == [(2, 1, 0), (1, 1, 1), (2, 0, 1),
                                    (1, 1, 1)]
    _report(3, "walk of 'aabacabb' and both adjacent-order columns reproduce")


def test_criterion_04_reference_words_verify():
    start = time.perf_counter()
    for sigma, k, word, length, pdb, excess in REFERENCE_COVER_ROWS:
        rep = C.verify(word, k, sigma)
        assert len(word) == length
        assert rep.is_covering
        assert rep.is_pdb == pdb
        assert rep.excess == excess
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, "all %d reference covering words verify as printed (%.2fs)"
            % (len(REFERENCE_COVER_ROWS), elapsed))


def test_criterion_05_perfect_cover_not_lower_covering():
    rep5 = C.verify(W54, 5, 4)
    rep4 = C.verify(W54, 4, 4)
    assert rep5.is_pdb
    assert not rep4.is_covering
    assert (1, 1, 1, 1) in rep4.missing
    assert (1, 1, 1, 1) not in V.parikh_set(W54, 4, 4).members
    _report(5, "the 60-letter word is perfect at order 5 yet misses "
               "(1,1,1,1) at order 4")


def test_criterion_06_search_reproduces_shortest_lengths():
    start = time.perf_counter()
    expected = {(3, 2): 7, (3, 3): 12, (4, 2): 12, (5, 2): 16, (3, 4): 19}
    for (sigma, k), length in sorted(expected.items()):
        out = S.run_search(S.SearchConfig(k=k, sigma=sigma))
        assert out.status == S.STATUS_FOUND, (sigma, k)
        assert len(out.witness) == length, (sigma, k)
        assert out.minimal, (sigma, k)
    # deterministic across thread counts
    single = S.run_search(S.SearchConfig(k=3, sigma=3,
                                                       worker_count=1))
    double = S.run_search(S.SearchConfig(k=3, sigma=3,
                                                       worker_count=2))
    assert single.witness == double.witness
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(6, "shortest lengths 7/12/12/16/19 found with minimality "
               "certificates, thread-count independent (%.1fs)" % elapsed)


def test_criterion_07_no_perfect_cover_for_three_letters_k4():
    start = time.perf_counter()
    out = S.run_search(S.SearchConfig(k=4, sigma=3, target=S.TARGET_PDB))
    assert out.status == S.STATUS_REFUTED
    assert out.refuted_up_to == 18
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    _report(7, "exhaustive refutation: no zero-excess word at k=4 over "
               "three letters (%.1fs)" % elapsed)


def test_criterion_08_unique_class_at_3_3():
    reps = S.enumerate_all_pdb(3, 3)
    assert len(reps) == 1
    assert reps[0] == S.canonical_form("abbbcccaaabc", 3)
    assert reps[0] == "abbbcccaaabc"
    _report(8, "exactly one perfect-cover class at (3,3), containing "
               "'abbbcccaaabc'")


def test_criterion_09_realizability_oracle_equivalence():
    start = time.perf_counter()
    achievable = set(achievable_window_sets(3, 3))
    vs = V.enumerate_pv(3, 3)
    assert len(vs) == 10
    checked = 0
    for size in range(1, 11):
        for subset in itertools.combinations(vs, size):
            got = R.is_realizable_set(subset)
            assert got.realizable == (frozenset(subset) in achievable), subset
            if got.realizable:
                assert V.parikh_set(got.witness, 3, 3).members == set(subset)
            checked += 1
    assert checked == 2**10 - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report(9, "all 1023 subsets of the order-3 grid agree with exhaustive "
               "enumeration, witnesses exact (%.1fs)" % elapsed)


def test_criterion_10_bounds_consistency():
    # every instance with k, sigma <= 5 whose search completes at desk scale
    instances = [(k, 1) for k in range(1, 6)]
    instances += [(1, s) for s in range(2, 6)]
    instances += [(2, s) for s in range(2, 6)]
    instances += [(3, s) for s in range(2, 6)]
    instances += [(4, 2), (4, 3), (5, 2), (4, 4), (5, 3)]
    for k, sigma in instances:
        out = S.run_search(S.SearchConfig(k=k, sigma=sigma))
        assert out.status == S.STATUS_FOUND, (k, sigma)
        lower = C.bounds(k, sigma).shortest_lower_bound
        assert len(out.witness) >= lower, (k, sigma)
        if k == 2:
            closed = comb(sigma + 1, 2) + (1 if sigma % 2 else sigma // 2)
            assert len(out.witness) == closed, (k, sigma)
    _report(10, "found lengths dominate the lower bound on %d instances; "
                "k=2 matches the Eulerian closed form" % len(instances))


def test_criterion_11_construction_suite():
    for k in range(1, 11):
        assert C.verify(C.construct_family("binary_pdb", k, 2), k, 2).is_pdb
    for sigma in range(1, 9):
        word = C.construct_family("k2_eulerian", 2, sigma)
        rep = C.verify(word, 2, sigma)
        assert rep.is_covering
        assert len(word) == comb(sigma + 1, 2) + (1 if sigma % 2
                                                  else sigma // 2)
    for k, sigma in [(4, 3), (5, 3), (4, 4), (5, 4)]:
        word = C.construct_family("kcover_not_k1", k, sigma)
        assert C.verify(word, k, sigma).is_covering
        avoided = (k - 3, 1, 1) + (0,) * (sigma - 3)
        assert avoided not in V.parikh_set(word, k - 1, sigma).members
    _report(11, "block words (k <= 10), Eulerian k=2 words (sigma <= 8), "
                "and all four avoidance constructions verify")


def test_criterion_12_property_suites():
    # walk roundtrip
    for _ in range(200):
        sigma = rng.randint(1, 5)
        n = rng.randint(1, 40)
        word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
        k = rng.randint(1, n)
        walk = W.walk_of(word, k, sigma)
        respelled = W.spell(walk)
        if n >= 2 * k - 1:
            assert respelled == word
        else:
            assert W.walk_of(respelled, k, sigma).vertices == walk.vertices
    # bowfree consequences
    for _ in range(200):
        sigma = rng.randint(2, 4)
        n = rng.randint(2, 24)
        word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
        rep = W.check_bowfree_consequences(word, rng.randint(1, n - 1), sigma)
        if rep.applicable:
            assert rep.letter_rule_holds and rep.face_rule_holds
    # clique classification, exhaustive for k, sigma <= 5
    for sigma in range(2, 6):
        for k in range(1, 6):
            g = G.build_grid(k, sigma)
            for clique in cliques_of_size(g.vertices(), sigma):
                kind = G.classify_clique(clique).kind
                if sigma == 2:
                    assert kind == G.BOTH
                else:
                    assert kind in (G.COMMON_CHILD, G.COMMON_PARENT)
    # meet/join laws
    for _ in range(200):
        sigma = rng.randint(1, 5)
        ps = [tuple(rng.randint(0, 4) for _ in range(sigma))
              for _ in range(rng.randint(1, 4))]
        lo, hi = V.meet(ps), V.join(ps)
        assert all(all(a <= b <= c for a, b, c in zip(lo, p, hi)) for p in ps)
    # wrapped cycles are perfect covers
    for r in range(6):
        cycle = ("aabbcc"[r:] + "aabbcc"[:r])
        assert C.is_universal_cycle(cycle, 2, 3)
        assert C.verify(C.wrap_cycle(cycle, 2), 2, 3).is_pdb
    _report(12, "walk roundtrip, bowfree consequences, clique "
                "classification, lattice laws, and cycle wrapping all hold")
