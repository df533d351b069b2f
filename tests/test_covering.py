import random
import time
from fractions import Fraction
from math import comb

import pytest

from parikhgrid import covering as C
from parikhgrid import vectors as V
from parikhgrid.errors import FamilyUnsupported, InvalidInput

from helpers import (
    LETTERS,
    REFERENCE_COVER_ROWS,
    W54,
    naive_parikh_set,
    naive_window_multiplicities,
)

rng = random.Random(0xCAFE)


class TestVerify:
    def test_perfect_cover_3_3(self):
        rep = C.verify("abbbcccaaabc", 3, 3)
        assert rep.is_pdb and rep.is_covering and rep.excess == 0

    def test_w54_perfect_at_5(self):
        rep = C.verify(W54, 5, 4)
        assert rep.is_pdb and len(W54) == 60

    def test_w54_not_covering_at_4(self):
        rep = C.verify(W54, 4, 4)
        assert not rep.is_covering
        assert (1, 1, 1, 1) in rep.missing

    def test_excess_one_word(self):
        rep = C.verify("aaaabbbbccccaacabcb", 4, 3)
        assert rep.is_covering and not rep.is_pdb and rep.excess == 1

    def test_reference_rows(self):
        for sigma, k, word, length, pdb, excess in REFERENCE_COVER_ROWS:
            rep = C.verify(word, k, sigma)
            assert len(word) == length
            assert rep.is_covering
            assert rep.is_pdb == pdb
            assert rep.excess == excess
            # the per-letter minimum of covering words
            counts = V.pv_of(word, sigma)
            assert min(counts) >= C.min_letter_occurrences(k, sigma)

    def test_multiplicities_against_oracle(self):
        for _ in range(200):
            sigma = rng.randint(1, 4)
            n = rng.randint(0, 25)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, 8)
            rep = C.verify(word, k, sigma)
            mult = naive_window_multiplicities(word, k, sigma)
            total = comb(k + sigma - 1, sigma - 1)
            assert rep.is_covering == (len(mult) == total)
            assert set(rep.missing) == set(V.enumerate_pv(k, sigma)) - set(mult)
            assert dict(rep.duplicated) == {p: m for p, m in mult.items()
                                            if m > 1}

    def test_pdb_iff_covering_at_perfect_length(self):
        for _ in range(300):
            sigma = rng.randint(1, 3)
            n = rng.randint(1, 20)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, n)
            rep = C.verify(word, k, sigma)
            assert rep.is_pdb == (rep.is_covering
                                  and n == C.perfect_length(k, sigma))

    def test_excess_absent_for_non_covering(self):
        assert C.verify("ab", 2, 3).excess is None


class TestCovset:
    def test_example(self):
        assert sorted(C.covset("aabbcca", 3)) == [1, 2]

    def test_unary(self):
        assert C.covset("a", 1) == frozenset({1})

    def test_w54_contains_5_not_4(self):
        ks = C.covset(W54, 4)
        assert 5 in ks and 4 not in ks

    def test_agrees_with_verify(self):
        for _ in range(50):
            sigma = rng.randint(1, 3)
            n = rng.randint(1, 15)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            ks = C.covset(word, sigma)
            for k in range(1, n + 1):
                assert (k in ks) == C.verify(word, k, sigma).is_covering

    def test_matches_brute_force_on_random_words(self):
        for _ in range(500):
            sigma = rng.randint(1, 5)
            n = rng.randint(0, 40)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            assert C.covset(word, sigma) == {
                k for k in range(1, n + 1)
                if len(naive_parikh_set(word, k, sigma))
                == comb(k + sigma - 1, k)}

    def test_two_long_runs_in_under_a_second(self):
        # a^m b^m is k-covering for every k <= m; over two letters the runs
        # settle it, with no window scanned
        word = "a" * 20_000 + "b" * 20_000
        start = time.monotonic()
        ks = C.covset(word, 2)
        assert time.monotonic() - start < 1
        assert ks == frozenset(range(1, 20_001))
        assert C.covset("a" * 20_000, 1) == frozenset(range(1, 20_001))

    def test_three_long_runs_in_under_two_seconds(self):
        # a^m b^m c^m holds few distinct windows for each k, so counting the
        # positions where a letter differs from the one k later rules out
        # every k but 1 without scanning its windows
        word = "a" * 20_000 + "b" * 20_000 + "c" * 20_000
        start = time.monotonic()
        ks = C.covset(word, 3)
        assert time.monotonic() - start < 2
        assert ks == frozenset({1})

    def test_long_binary_word_in_seconds(self):
        # k is bounded by the letters' longest runs, here 18 a's and 12 b's,
        # not by the 20,000 letters
        draw = random.Random(7)
        word = "".join(draw.choice("ab") for _ in range(20_000))
        start = time.monotonic()
        ks = C.covset(word, 2)
        assert time.monotonic() - start < 2
        assert ks == {k for k in range(1, 41)
                      if C.verify(word, k, 2).is_covering}


class TestBounds:
    def test_2_4(self):
        b = C.bounds(2, 4)
        assert (b.pdb_length, b.counting_bound) == (11, 12)
        assert not b.pdb_possible_by_bounds
        assert b.shortest_lower_bound == 12

    def test_2_5(self):
        b = C.bounds(2, 5)
        assert (b.pdb_length, b.counting_bound) == (16, 15)
        assert b.pdb_possible_by_bounds

    def test_3_6_divisibility(self):
        b = C.bounds(3, 6)
        assert not b.uc_divisibility  # C(8,2) = 28 is not divisible by 3
        assert b.known_verdict.verdict == C.VERDICT_IMPOSSIBLE

    def test_verdict_table(self):
        cases = {
            (4, 2): C.VERDICT_EXISTS,      # block word
            (2, 2): C.VERDICT_EXISTS,      # sigma=2 precedes the k=2 rule
            (2, 3): C.VERDICT_EXISTS,      # odd sigma, k=2
            (2, 4): C.VERDICT_IMPOSSIBLE,  # even sigma, k=2
            (3, 3): C.VERDICT_EXISTS,
            (3, 4): C.VERDICT_EXISTS,      # 3 does not divide 4
            (3, 9): C.VERDICT_IMPOSSIBLE,
            (4, 3): C.VERDICT_IMPOSSIBLE,  # three letters, k >= 4
            (7, 3): C.VERDICT_IMPOSSIBLE,
            (4, 4): C.VERDICT_EXISTS,      # certified perfect covers
            (5, 4): C.VERDICT_EXISTS,
            (4, 5): C.VERDICT_EXISTS,
            (6, 4): C.VERDICT_UNKNOWN,
            (5, 5): C.VERDICT_UNKNOWN,
            (1, 1): C.VERDICT_EXISTS,      # the alphabet once
            (1, 7): C.VERDICT_EXISTS,
            (4, 1): C.VERDICT_EXISTS,      # a^k
            (9, 1): C.VERDICT_EXISTS,
        }
        for (k, sigma), verdict in cases.items():
            assert C.bounds(k, sigma).known_verdict.verdict == verdict, (k, sigma)

    def test_every_existence_verdict_is_certified(self):
        # the rule's word, or its certificate, is a perfect cover
        def certificate(k, sigma):
            if (k, sigma) in C.PERFECT_COVERS:
                return C.PERFECT_COVERS[k, sigma]
            if sigma == 2:
                return C.construct_family(C.FAMILY_BINARY, k, sigma)
            if k == 1:
                return LETTERS[:sigma]
            if sigma == 1:
                return "a" * k
            return None

        certified = 0
        for k in range(1, 9):
            for sigma in range(1, 8):
                verdict = C.bounds(k, sigma).known_verdict
                word = certificate(k, sigma)
                if verdict.verdict == C.VERDICT_EXISTS and word is not None:
                    assert C.verify(word, k, sigma).is_pdb, (k, sigma)
                    certified += 1
        # 8 binary, 6 more at k = 1, 7 more unary and the 3 certificates
        assert certified == 24
        # the certificates are the perfect covers of the reference rows
        assert sorted(C.PERFECT_COVERS.items()) == sorted(
            ((k, sigma), word) for sigma, k, word, _, pdb, _ in
            REFERENCE_COVER_ROWS if pdb and k >= 4)

    def test_lower_bound_dominates_pdb_length(self):
        for k in range(1, 8):
            for sigma in range(1, 8):
                b = C.bounds(k, sigma)
                assert b.shortest_lower_bound >= b.pdb_length


class TestUniversalCycles:
    def test_staircase_cycle(self):
        assert C.is_universal_cycle("aabbcc", 2, 3)
        assert C.wrap_cycle("aabbcc", 2) == "aabbcca"

    def test_wrap_of_cycle_is_perfect(self):
        word = C.wrap_cycle("aabbcc", 2)
        assert C.verify(word, 2, 3).is_pdb

    def test_rotations_stay_cycles(self):
        w = "aabbcc"
        for r in range(len(w)):
            rotated = w[r:] + w[:r]
            assert C.is_universal_cycle(rotated, 2, 3)
            assert C.verify(C.wrap_cycle(rotated, 2), 2, 3).is_pdb

    def test_wrong_multiset(self):
        assert not C.is_universal_cycle("aaab", 2, 2)

    def test_wrong_length_immediately_false(self):
        assert not C.is_universal_cycle("abbbcccaaabc", 3, 3)

    def test_unary_cycle_shorter_than_its_window(self):
        # "a" is the universal cycle over one letter for every k; its
        # cyclic windows wrap round the word more than once
        for k in range(1, 7):
            assert C.is_universal_cycle("a", k, 1)

    def test_window_below_one_refused(self):
        # "a" has one window of length 0 and there is one order-0 vector,
        # yet a cycle of empty windows is no universal cycle
        for k in (0, -1):
            with pytest.raises(InvalidInput, match="window length"):
                C.is_universal_cycle("a", k, 2)
            with pytest.raises(InvalidInput, match="window length"):
                C.wrap_cycle("a", k, 2)

    def test_wrap_with_an_alphabet(self):
        assert C.wrap_cycle("aabbcc", 2, 3) == "aabbcca"
        with pytest.raises(InvalidInput, match="symbol 'd'"):
            C.wrap_cycle("abd", 2, 3)
        # past 26 letters words are comma-separated letter indices
        word = ",".join(str(i) for i in range(27))
        assert C.wrap_cycle(word, 3, 27) == word + ",0,1"

    def test_wrap_infers_sigma_from_letters(self):
        # without sigma the word is read as letters a to z, as with one:
        # letter indices and other symbols are refused, not sliced as text
        assert C.wrap_cycle("aabbcc", 3) == "aabbccaa"
        for word in ("0,1,2", "a1!"):
            with pytest.raises(InvalidInput, match="cannot infer an alphabet"):
                C.wrap_cycle(word, 2)

    def test_exhaustive_agreement_with_wrap(self):
        # every length-C word: cycle <=> its wrap is a perfect cover whose
        # windows also wrap around
        from itertools import product
        k, sigma = 2, 2
        n = comb(sigma + k - 1, k)
        for tup in product(LETTERS[:sigma], repeat=n):
            word = "".join(tup)
            if C.is_universal_cycle(word, k, sigma):
                assert C.verify(C.wrap_cycle(word, k), k, sigma).is_pdb


class TestConstructions:
    def test_binary_block_words(self):
        for k in range(1, 11):
            word = C.construct_family("binary_pdb", k, 2)
            assert word == "a" * k + "b" * k
            assert C.verify(word, k, 2).is_pdb

    def test_k2_eulerian_lengths(self):
        for sigma in range(1, 9):
            word = C.construct_family("k2_eulerian", 2, sigma)
            rep = C.verify(word, 2, sigma)
            assert rep.is_covering
            expected = comb(sigma + 1, 2) + (1 if sigma % 2 else sigma // 2)
            assert len(word) == expected
            assert rep.is_pdb == (sigma % 2 == 1 or sigma == 2)

    def test_k2_matches_reference_word(self):
        assert C.construct_family("k2_eulerian", 2, 3) == "aabbcca"

    @pytest.mark.parametrize("k,sigma", [(4, 3), (5, 3), (4, 4), (5, 4)])
    def test_avoidance_construction(self, k, sigma):
        word = C.construct_family("kcover_not_k1", k, sigma)
        rep = C.verify(word, k, sigma)
        assert rep.is_covering
        avoided = (k - 3, 1, 1) + (0,) * (sigma - 3)
        assert avoided not in V.parikh_set(word, k - 1, sigma).members

    def test_alphabets_written_as_indices(self):
        # past 26 letters a word is written as comma-separated indices;
        # each family verifies its word before returning it
        word = C.construct_family("k2_eulerian", 2, 27)
        assert len(V.Alphabet(27).word_to_indices(word)) == comb(28, 2) + 1
        word = C.construct_family("kcover_not_k1", 4, 27)
        assert set(V.Alphabet(27).word_to_indices(word)) == set(range(27))

    def test_unsupported_combinations(self):
        with pytest.raises(FamilyUnsupported):
            C.construct_family("binary_pdb", 3, 3)
        with pytest.raises(FamilyUnsupported):
            C.construct_family("k2_eulerian", 3, 3)
        with pytest.raises(FamilyUnsupported):
            C.construct_family("kcover_not_k1", 3, 3)
        with pytest.raises(FamilyUnsupported):
            C.construct_family("no_such_family", 2, 2)

    def test_letter_count_bound_on_constructions(self):
        # every covering word obeys the per-letter minimum
        for sigma in range(2, 7):
            word = C.construct_family("k2_eulerian", 2, sigma)
            counts = V.pv_of(word, sigma)
            assert min(counts) >= C.min_letter_occurrences(2, sigma)


class TestMincov:
    def test_binary_always_full(self):
        rep = C.mincov_explore(3, 2, 7)
        assert rep.value == Fraction(1) and not rep.estimate_only

    def test_k3_always_full(self):
        rep = C.mincov_explore(3, 3, 12)
        assert rep.value == Fraction(1) and not rep.estimate_only

    def test_4_3_at_shortest_length(self):
        # all twelve shortest covering words remain 3-covering; the
        # avoidance construction shows longer words can drop to <= 9/10
        rep = C.mincov_explore(4, 3, 19)
        assert rep.value == Fraction(1)
        assert rep.estimate_only
        assert rep.words_enumerated == 12
        word = C.construct_family("kcover_not_k1", 4, 3)
        ratio = Fraction(len(V.parikh_set(word, 3, 3).members), comb(5, 3))
        assert ratio <= Fraction(9, 10)

    def test_k1_rejected(self):
        with pytest.raises(InvalidInput):
            C.mincov_explore(1, 3, 5)
