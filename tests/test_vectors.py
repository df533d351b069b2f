import random
from math import comb

import pytest

from parikhgrid import vectors as V
from parikhgrid.errors import CapacityExceeded, InvalidInput

from helpers import LETTERS, colex_vectors, naive_parikh_set

rng = random.Random(0xC0FFEE)


class TestPvOf:
    def test_counts(self):
        assert V.pv_of("aab", 3) == (2, 1, 0)
        assert V.pv_of("aba", 3) == (2, 1, 0)
        assert V.pv_of("baa", 3) == (2, 1, 0)

    def test_empty(self):
        assert V.pv_of("", 3) == (0, 0, 0)

    def test_one_of_each(self):
        assert V.pv_of("cab", 3) == (1, 1, 1)

    def test_unknown_symbol(self):
        with pytest.raises(InvalidInput,
                           match=r"symbol 'z' is not in the alphabet \(size 3\)"):
            V.pv_of("abz", 3)

    def test_concatenation_additive(self):
        for _ in range(200):
            sigma = rng.randint(1, 5)
            w = "".join(rng.choice(LETTERS[:sigma]) for _ in range(rng.randint(0, 30)))
            cut = rng.randint(0, len(w))
            u, v = w[:cut], w[cut:]
            full = V.pv_of(w, sigma)
            assert tuple(a + b for a, b in zip(V.pv_of(u, sigma),
                                               V.pv_of(v, sigma))) == full


class TestEnumeration:
    def test_small_counts(self):
        assert len(V.enumerate_pv(2, 3)) == 6
        assert len(V.enumerate_pv(4, 3)) == 15

    def test_binomial_count_formula(self):
        for k in range(11):
            for sigma in range(1, 11):
                assert len(V.enumerate_pv(k, sigma)) == comb(k + sigma - 1,
                                                             sigma - 1)

    def test_k0(self):
        assert V.enumerate_pv(0, 4) == [(0, 0, 0, 0)]

    def test_colex_order(self):
        # last coordinate varies slowest
        assert V.enumerate_pv(2, 3) == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                                        (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_no_duplicates_all_valid(self):
        vs = V.enumerate_pv(5, 4)
        assert len(set(vs)) == len(vs)
        assert all(sum(p) == 5 and min(p) >= 0 for p in vs)

    def test_capacity_bound_named(self):
        with pytest.raises(CapacityExceeded):
            V.enumerate_pv(10**9, 12)


class TestRanking:
    def test_roundtrip_pointwise(self):
        assert V.pv_rank(V.pv_unrank(7, 4, 3)) == 7

    def test_unrank_zero_is_first(self):
        for k, sigma in [(4, 3), (0, 2), (6, 5), (1, 1)]:
            assert V.pv_unrank(0, k, sigma) == V.enumerate_pv(k, sigma)[0]

    def test_bijective_small(self):
        for k, sigma in [(4, 3), (3, 4), (5, 2), (2, 6), (0, 3), (6, 1)]:
            vs = V.enumerate_pv(k, sigma)
            assert [V.pv_rank(p) for p in vs] == list(range(len(vs)))
            assert [V.pv_unrank(i, k, sigma) for i in range(len(vs))] == vs

    def test_roundtrip_against_the_colex_oracle(self):
        # every vector of every (k, sigma) with at most 10^4 of them
        sizes = [(k, sigma) for sigma in range(1, 9) for k in range(9)
                 if comb(k + sigma - 1, sigma - 1) <= 10**4]
        for k, sigma in sizes + [(2, 40)]:
            for i, p in enumerate(colex_vectors(k, sigma)):
                assert V.pv_rank(p) == i
                assert V.pv_unrank(i, k, sigma) == p

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            V.pv_unrank(15, 4, 3)
        with pytest.raises(InvalidInput):
            V.pv_unrank(-1, 4, 3)


class TestRelations:
    def test_example_neighbors(self):
        assert V.neighbors((1, 2, 0)) == {(0, 3, 0), (0, 2, 1), (2, 1, 0),
                                          (1, 1, 1)}

    def test_example_parents_children(self):
        assert V.parents((1, 2, 0)) == {(2, 2, 0), (1, 3, 0), (1, 2, 1)}
        assert V.children((1, 2, 0)) == {(0, 2, 0), (1, 1, 0)}

    def test_corner_has_sigma_minus_one_neighbors(self):
        for k in (1, 3, 6):
            assert len(V.neighbors((k, 0, 0))) == 2

    def test_parent_child_counts(self):
        for p in V.enumerate_pv(4, 4):
            assert len(V.parents(p)) == 4
            assert len(V.children(p)) == V.support_size(p)

    def test_neighbor_symmetry_exhaustive(self):
        for k in range(1, 7):
            for sigma in range(1, 7):
                for p in V.enumerate_pv(k, sigma):
                    for q in V.neighbors(p):
                        assert p in V.neighbors(q)

    def test_parent_child_duality(self):
        for p in V.enumerate_pv(3, 3):
            for q in V.children(p):
                assert p in V.parents(q)
            for r in V.parents(p):
                assert p in V.children(r)

    def test_three_neighbor_characterizations_agree(self):
        # neighbors <=> share a parent <=> share a child, exhaustively
        for k, sigma in [(3, 3), (4, 3), (2, 4), (3, 4), (5, 2)]:
            vs = V.enumerate_pv(k, sigma)
            for i, p in enumerate(vs):
                for q in vs[i + 1:]:
                    byrel = q in V.neighbors(p)
                    byparent = bool(V.parents(p) & V.parents(q))
                    bychild = bool(V.children(p) & V.children(q))
                    assert byrel == byparent == bychild

    @pytest.mark.parametrize("relation", [V.neighbors, V.parents,
                                          V.children])
    def test_shift_relations_refuse_a_negative_count(self, relation):
        # (1, -1) is one shift from (2, -2) and (0, 0), yet no Parikh vector
        with pytest.raises(InvalidInput, match="negative count"):
            relation((1, -1))

    def test_neighbors_via_children(self):
        # neighbors of p are the (c + e_j) != p over children c of p
        for p in V.enumerate_pv(4, 3):
            rebuilt = set()
            for c in V.children(p):
                rebuilt |= {q for q in V.parents(c) if q != p}
            assert rebuilt == V.neighbors(p)


class TestMeetJoin:
    def test_examples(self):
        assert V.meet([(2, 1, 0), (1, 2, 0)]) == (1, 1, 0)
        assert V.join([(2, 1, 0), (1, 2, 0)]) == (2, 2, 0)
        assert V.meet([(3, 1, 0)]) == (3, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            V.meet([])
        with pytest.raises(InvalidInput):
            V.join([])

    def test_single_vector_is_its_own_meet_and_join(self):
        for p in [(3, 1, 0), (0,), (2, 0, 5, 1)]:
            assert V.meet([p]) == p and V.join([p]) == p
            assert V.meet(iter([list(p)])) == p
            assert V.join(iter([list(p)])) == p

    def test_lattice_laws(self):
        for _ in range(300):
            sigma = rng.randint(1, 5)
            ps = [tuple(rng.randint(0, 4) for _ in range(sigma))
                  for _ in range(rng.randint(1, 4))]
            lo, hi = V.meet(ps), V.join(ps)
            for p in ps:
                assert all(a <= b <= c for a, b, c in zip(lo, p, hi))
            assert V.meet([lo, lo]) == lo and V.join([hi, hi]) == hi
            assert V.meet(ps) == V.meet(list(reversed(ps)))
            assert V.join(ps) == V.join(list(reversed(ps)))
            a, b, c = (ps + ps + ps)[:3]
            assert V.meet([V.meet([a, b]), c]) == V.meet([a, V.meet([b, c])])
            assert V.join([V.join([a, b]), c]) == V.join([a, V.join([b, c])])


class TestParikhSet:
    def test_example_window4(self):
        got = V.parikh_set("aabacabb", 4, 3)
        assert got.members == {(3, 1, 0), (2, 1, 1), (1, 2, 1)}

    def test_unary_word(self):
        assert V.parikh_set("aaaa", 2, 3).members == {(2, 0, 0)}

    def test_full_cover_word(self):
        got = V.parikh_set("abbbcccaaabc", 3, 3)
        assert got.members == set(V.enumerate_pv(3, 3))

    def test_window_exceeds_word(self):
        got = V.parikh_set("ab", 5, 3)
        assert got.window_exceeds_word and got.members == frozenset()

    def test_matches_naive_oracle(self):
        for _ in range(300):
            sigma = rng.randint(1, 5)
            n = rng.randint(1, 30)
            w = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, n)
            assert V.parikh_set(w, k, sigma).members == naive_parikh_set(
                w, k, sigma)


class TestAlphabetRendering:
    def test_large_alphabet_uses_indices(self):
        a = V.Alphabet(30)
        assert a.indices_to_word([0, 29, 5]) == "0,29,5"
        assert a.word_to_indices("0,29,5") == [0, 29, 5]

    def test_canonical_word(self):
        assert V.canonical_word((1, 2, 0)) == "abb"
        assert V.canonical_word((0, 0, 3)) == "ccc"

    def test_canonical_word_rejects_a_negative_count(self):
        with pytest.raises(InvalidInput):
            V.canonical_word((2, -1))
