import itertools
import random

import pytest

from parikhgrid import realize as R
from parikhgrid import vectors as V
from parikhgrid import walks
from parikhgrid.errors import InvalidInput

from helpers import (achievable_window_sets, induced_components,
                     naive_parikh_set)

rng = random.Random(0x5E7)


class TestBasicCases:
    def test_singleton(self):
        got = R.is_realizable_set([(1, 2, 0)])
        assert got.realizable and got.witness == "abb"

    def test_non_neighbor_pair_refuted(self):
        got = R.is_realizable_set([(3, 0, 0), (0, 3, 0)])
        assert not got.realizable
        comp_a, comp_b = got.refutation
        assert {comp_a[0], comp_b[0]} == {(3, 0, 0), (0, 3, 0)}

    def test_neighbor_pair(self):
        got = R.is_realizable_set([(2, 1, 0), (1, 2, 0)])
        assert got.realizable
        assert V.parikh_set(got.witness, 3, 3).members == {(2, 1, 0),
                                                           (1, 2, 0)}

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInput):
            R.is_realizable_set([])

    def test_mixed_orders_rejected(self):
        with pytest.raises(InvalidInput):
            R.is_realizable_set([(1, 2, 0), (1, 1, 0)])

    def test_alphabet_checked_before_deciding(self):
        # five letters for three-letter vectors: refused whether the set is
        # disconnected or connected, not refuted
        for pi in ([(3, 0, 0), (0, 3, 0)], [(3, 0, 0), (2, 1, 0)]):
            with pytest.raises(InvalidInput, match="sigma=5 does not match"):
                R.is_realizable_set(pi, sigma=5)

    def test_vector_without_coordinates_rejected(self):
        for pi in ([()], [(), (1,)]):
            with pytest.raises(InvalidInput):
                R.is_realizable_set(pi)

    def test_certificate_catches_a_wrong_witness(self, monkeypatch):
        # a spelling step that enters the wrong letter leaves the window
        # set, and the certificate refuses the witness
        extend = walks.extend_by_shift

        def misspelled(word, k, out_i, in_i):
            extend(word, k, out_i, in_i)
            word[-1] = (in_i + 1) % 3

        monkeypatch.setattr(walks, "extend_by_shift", misspelled)
        with pytest.raises(AssertionError, match="witness construction"):
            R.is_realizable_set([(2, 1, 0), (1, 2, 0)])


class TestPairWitness:
    def test_example(self):
        assert R.realizable_pair_witness((2, 1, 0), (1, 2, 0)) == "aabb"
        assert naive_parikh_set("aabb", 3, 3) == {(2, 1, 0), (1, 2, 0)}

    def test_corner_pair(self):
        for k in (2, 4, 6):
            word = R.realizable_pair_witness((k, 0, 0), (k - 1, 1, 0))
            assert word == "a" * k + "b"

    def test_interior_pair(self):
        word = R.realizable_pair_witness((1, 1, 1), (0, 2, 1))
        assert word == "abcb"
        assert naive_parikh_set(word, 3, 3) == {(1, 1, 1), (0, 2, 1)}

    def test_rejects_non_neighbors(self):
        with pytest.raises(InvalidInput):
            R.realizable_pair_witness((3, 0, 0), (1, 1, 1))

    def test_rejects_negative_counts(self):
        # (1, -1) and (0, 0) differ by one letter shift, but no word has a
        # window with a negative count
        for p, q in [((1, -1), (0, 0)), ((0, 0), (1, -1))]:
            with pytest.raises(InvalidInput, match="negative count"):
                R.realizable_pair_witness(p, q)

    def test_all_neighbor_pairs_small(self):
        for k, sigma in [(3, 3), (2, 4)]:
            for p in V.enumerate_pv(k, sigma):
                for q in V.neighbors(p):
                    word = R.realizable_pair_witness(p, q)
                    assert naive_parikh_set(word, k, sigma) == {p, q}


class TestOracleEquivalence:
    def test_small_subsets_of_grid_3_3(self):
        # every subset of <= 4 vectors vs. exhaustive word enumeration
        achievable = set(achievable_window_sets(3, 3))
        vs = V.enumerate_pv(3, 3)
        for size in (1, 2, 3, 4):
            for subset in itertools.combinations(vs, size):
                got = R.is_realizable_set(subset)
                assert got.realizable == (frozenset(subset) in achievable)
                if got.realizable:
                    assert V.parikh_set(got.witness, 3, 3).members == set(subset)

    def test_witness_lengths_bounded(self):
        # constructive witness: at most k letters per itinerary step over a
        # walk with at most 2|set| vertices
        vs = V.enumerate_pv(3, 3)
        for _ in range(200):
            size = rng.randint(1, 10)
            subset = frozenset(rng.sample(vs, size))
            got = R.is_realizable_set(subset)
            if got.realizable:
                assert len(got.witness) <= 3 + 2 * size * 3


class TestMonotonicity:
    def test_union_with_neighbor_stays_realizable(self):
        vs = V.enumerate_pv(3, 3)
        for _ in range(200):
            size = rng.randint(1, 6)
            subset = set(rng.sample(vs, size))
            got = R.is_realizable_set(subset)
            if not got.realizable:
                continue
            member = rng.choice(sorted(subset))
            extra = rng.choice(sorted(V.neighbors(member)))
            assert R.is_realizable_set(subset | {extra}).realizable

    def test_full_vertex_set_realizable(self):
        for k, sigma in [(2, 2), (3, 3), (2, 4), (4, 3)]:
            got = R.is_realizable_set(V.enumerate_pv(k, sigma))
            assert got.realizable

    def test_set_deeper_than_the_recursion_limit(self):
        # all 1,140 vectors of (sigma=18, k=3): the depth-first itinerary
        # goes deeper than the interpreter's recursion limit
        members = set(V.enumerate_pv(3, 18))
        assert len(members) == 1140
        got = R.is_realizable_set(members)
        assert got.realizable
        assert naive_parikh_set(got.witness, 3, 18) == members


# Witnesses and refutations pinned from the construction as first
# written: depth-first order by rank with parent revisits, spelled by
# copying the window letters before the leaving one and appending the
# entering one.
PINNED_WITNESSES = {
    (3, 3): "aaabbbcaaccbccc",
    (2, 4): "aabbcaccdadbdd",
    (4, 3): "aaaabbbbcaaaccbbcccacccc",
}

PINNED_SUBSETS = [
    ([(0, 1, 3), (0, 3, 1), (1, 1, 2), (2, 0, 2), (2, 1, 1), (2, 2, 0),
      (3, 0, 1), (3, 1, 0), (4, 0, 0)],
     ((((4, 0, 0), (3, 1, 0), (2, 2, 0), (3, 0, 1), (2, 1, 1), (2, 0, 2),
        (1, 1, 2), (0, 1, 3)), ((0, 3, 1),)))),
    ([(0, 0, 0, 3), (0, 0, 1, 2), (0, 0, 2, 1), (0, 1, 0, 2), (0, 1, 1, 1),
      (0, 1, 2, 0), (0, 2, 1, 0), (0, 3, 0, 0), (1, 0, 0, 2), (1, 0, 1, 1),
      (1, 1, 0, 1), (2, 1, 0, 0)],
     "aabdacdbcbbbccddaddbddd"),
    ([(0, 1, 4), (0, 2, 3), (0, 3, 2), (1, 0, 4), (1, 2, 2), (1, 3, 1),
      (2, 2, 1), (2, 3, 0), (3, 0, 2), (3, 1, 1), (3, 2, 0), (4, 0, 1),
      (4, 1, 0), (5, 0, 0)],
     "aaaaabbbaacaacaabbcbacbcbbcccca"),
    ([(0, 0, 0, 0, 3), (0, 0, 0, 1, 2), (0, 0, 1, 0, 2), (0, 0, 1, 2, 0),
      (0, 0, 3, 0, 0), (0, 1, 0, 2, 0), (0, 2, 1, 0, 0), (0, 3, 0, 0, 0),
      (1, 0, 0, 0, 2), (1, 0, 0, 1, 1), (1, 0, 1, 0, 1), (1, 0, 2, 0, 0),
      (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 0, 0), (2, 0, 0, 0, 1)],
     "bbbcacccaeabddcddbadeaeeceedeee"),
    ([(0, 0, 3, 1), (0, 1, 3, 0), (0, 2, 1, 1), (0, 4, 0, 0), (1, 0, 0, 3),
      (1, 1, 2, 0), (1, 2, 0, 1), (1, 3, 0, 0), (2, 1, 1, 0), (3, 0, 0, 1)],
     (((1, 3, 0, 0), (0, 4, 0, 0), (1, 2, 0, 1), (0, 2, 1, 1)),
      ((2, 1, 1, 0), (1, 1, 2, 0), (0, 1, 3, 0), (0, 0, 3, 1)))),
    ([(0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 2, 0), (0, 0, 0, 1, 0, 1),
      (0, 0, 0, 2, 0, 0), (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 1, 0),
      (0, 1, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0), (0, 2, 0, 0, 0, 0)],
     "bbddfcebeebecff"),
]


class TestPinnedAnswers:
    @pytest.mark.parametrize("k, sigma", sorted(PINNED_WITNESSES))
    def test_whole_grid(self, k, sigma):
        got = R.is_realizable_set(V.enumerate_pv(k, sigma))
        assert got.witness == PINNED_WITNESSES[k, sigma]

    @pytest.mark.parametrize("members, answer", PINNED_SUBSETS)
    def test_subset(self, members, answer):
        got = R.is_realizable_set(members)
        if isinstance(answer, str):
            assert got.realizable and got.witness == answer
        else:
            assert not got.realizable and got.refutation == answer


class TestAgainstComponentsOracle:
    def test_seeded_subsets(self):
        draw = random.Random(0xC0C0)
        for _ in range(300):
            k, sigma = draw.randint(1, 5), draw.randint(1, 6)
            vs = V.enumerate_pv(k, sigma)
            members = set(draw.sample(vs, draw.randint(1, min(60, len(vs)))))
            got = R.is_realizable_set(members)
            comps = induced_components(members)
            assert got.realizable == (len(comps) == 1)
            if got.realizable:
                assert naive_parikh_set(got.witness, k, sigma) == members
            else:
                assert got.refutation == tuple(map(tuple, comps[:2]))


class TestScale:
    def test_whole_grid_over_sixty_letters(self):
        # 1,830 vectors, letters written as indices
        members = set(V.enumerate_pv(2, 60))
        got = R.is_realizable_set(members)
        assert got.realizable
        assert naive_parikh_set(got.witness, 2, 60) == members

    def test_two_thousand_unit_vectors(self):
        # one child group of 2,000 members: every pair are neighbors, and
        # the traversal walks the group in rank order
        members = {tuple(int(i == j) for j in range(2000))
                   for i in range(2000)}
        got = R.is_realizable_set(members)
        assert got.witness == ",".join(map(str, range(2000)))
