import random
import time

import pytest

from parikhgrid import vectors as V
from parikhgrid import walks as W
from parikhgrid.errors import InvalidInput, WalkUnrealizable

from helpers import LETTERS, walk_realizable_naive, walk_vertices_of

rng = random.Random(0xB0755)

FIG_WORD = "aabacabb"


class TestWalkOf:
    def test_window_vertex_sequence(self):
        walk = W.walk_of(FIG_WORD, 4)
        assert walk.vertices == ((3, 1, 0), (2, 1, 1), (2, 1, 1), (2, 1, 1),
                                 (1, 2, 1))

    def test_labels(self):
        walk = W.walk_of(FIG_WORD, 4)
        assert [(l.out_letter, l.in_letter) for l in walk.labels] == [
            ("a", "c"), ("a", "a"), ("b", "b"), ("a", "b")]

    def test_adjacent_order_columns(self):
        walk = W.walk_of(FIG_WORD, 4)
        assert walk.enclosing_vectors() == [(3, 1, 1), (3, 1, 1), (2, 2, 1),
                                            (2, 2, 1)]
        assert walk.inner_vectors() == [(2, 1, 0), (1, 1, 1), (2, 0, 1),
                                        (1, 1, 1)]

    def test_unary_word_bows_only(self):
        walk = W.walk_of("aaaa", 2, 3)
        assert walk.vertices == ((2, 0, 0),) * 3
        assert all((l.out_letter, l.in_letter) == ("a", "a")
                   for l in walk.labels)

    def test_too_short(self):
        with pytest.raises(InvalidInput):
            W.walk_of("ab", 3, 3)

    def test_labels_match_letter_pairs(self):
        for _ in range(100):
            sigma = rng.randint(1, 5)
            n = rng.randint(2, 25)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, n - 1)
            walk = W.walk_of(word, k, sigma)
            for i, lab in enumerate(walk.labels):
                assert lab.out_letter == word[i]
                assert lab.in_letter == word[i + k]


class TestRealizableWalk:
    def test_back_and_forth_is_unrealizable(self):
        got = W.is_realizable_walk([(3, 0, 0), (2, 1, 0), (3, 0, 0)], k=3)
        assert not got.realizable
        assert got.refutation_index == 0

    def test_walks_of_words_are_realizable(self):
        for _ in range(100):
            sigma = rng.randint(1, 4)
            n = rng.randint(2, 20)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, n - 1)
            walk = W.walk_of(word, k, sigma)
            got = W.is_realizable_walk(list(walk.vertices), k=k)
            assert got.realizable

    def test_staircase_walk(self):
        vs = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        got = W.is_realizable_walk(vs, k=2)
        assert got.realizable
        assert got.word == "aabbcc"

    def test_agrees_with_naive_enumeration_exhaustive(self):
        # every equal-or-neighbor vertex sequence on small grids
        for k, sigma, m in [(2, 2, 4), (3, 2, 4), (2, 3, 3)]:
            vs = V.enumerate_pv(k, sigma)
            seqs = [[p] for p in vs]
            for _ in range(m - 1):
                seqs = [s + [q] for s in seqs
                        for q in sorted(V.neighbors(s[-1]) | {s[-1]})]
            for seq in seqs:
                got = W.is_realizable_walk(seq, k=k)
                word = walk_realizable_naive(seq, k, sigma)
                assert got.realizable == (word is not None), seq
                if got.realizable:
                    assert walk_vertices_of(got.word, k, sigma) == tuple(seq)

    def test_agrees_with_naive_enumeration_random(self):
        for _ in range(60):
            sigma = rng.choice([2, 3])
            k = rng.choice([2, 3])
            m = rng.randint(2, 10 - k)
            seq = [tuple(V.pv_of("".join(rng.choice(LETTERS[:sigma])
                                         for _ in range(k)), sigma))]
            for _ in range(m - 1):
                seq.append(rng.choice(sorted(V.neighbors(seq[-1]) | {seq[-1]})))
            got = W.is_realizable_walk(seq, k=k)
            assert got.realizable == (
                walk_realizable_naive(seq, k, sigma) is not None)


class TestSpell:
    def test_roundtrip_with_labels(self):
        assert W.spell(W.walk_of(FIG_WORD, 4)) == FIG_WORD

    def test_staircase(self):
        word = W.spell([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1),
                        (0, 0, 2)], k=2)
        assert word == "aabbcc"

    def test_unrealizable_raises_with_index(self):
        with pytest.raises(WalkUnrealizable) as exc:
            W.spell([(3, 0, 0), (2, 1, 0), (3, 0, 0)], k=3)
        assert exc.value.refutation_index == 0

    def test_roundtrip_random(self):
        # the walk determines the word fully once |w| >= 2k - 1; below
        # that, the first window is underdetermined and only the walk of
        # the respelled word must match
        for _ in range(300):
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

    def test_walk_deeper_than_the_recursion_limit(self):
        # 2,000 letters: one pass over 2,000 positions, with no recursion
        deep = random.Random(2000)
        word = "".join(deep.choice("abc") for _ in range(2000))
        vertices = walk_vertices_of(word, 3, 3)
        spelled = W.spell(vertices, k=3)
        assert walk_vertices_of(spelled, 3, 3) == vertices
        assert spelled == word
        # a last step that is an edge but leaves by another letter than
        # the one the last window starts with: every earlier position is
        # placed, and the pass fails at the leaving letter, position
        # len(vertices) - 1, so window len(vertices) - k
        last = vertices[-1]
        out_i = next(i for i in range(3)
                     if LETTERS[i] != word[-3] and last[i] > 0)
        in_i = next(i for i in range(3) if i != out_i)
        bad = list(last)
        bad[out_i] -= 1
        bad[in_i] += 1
        got = W.is_realizable_walk(vertices + (tuple(bad),), k=3)
        assert not got.realizable
        assert got.refutation_index == len(vertices) - 3

    def test_long_run_of_bows_spells_at_once(self):
        # k + 1 bows at (h, h), then one step: each window position is
        # fixed by its own chain, so k = 40 spells in well under a second
        k = 40
        vertices = [(k // 2, k // 2)] * (k + 2) + [(k // 2 + 1, k // 2 - 1)]
        start = time.monotonic()
        word = W.spell(vertices, k=k)
        assert time.monotonic() - start < 1
        assert walk_vertices_of(word, k, 2) == tuple(vertices)

    def test_without_labels_lexicographically_smallest(self):
        # single vertex (1,1,1): abc is the smallest of the six words
        assert W.spell([(1, 1, 1)], k=3) == "abc"

    def test_jointly_unspellable_labels_refused(self):
        # each label is valid for its step, but the step-2 bow letter
        # clashes with the letter absorbed from step 0
        from parikhgrid.grid import EdgeLabel
        vertices = ((1, 1, 0), (0, 1, 1), (0, 1, 1), (0, 1, 1))
        bad = W.Walk(k=2, vertices=vertices,
                     labels=(EdgeLabel("a", "c"), EdgeLabel("b", "b"),
                             EdgeLabel("b", "b")))
        with pytest.raises(WalkUnrealizable) as exc:
            W.spell(bad)
        assert exc.value.refutation_index == 1
        got = W.is_realizable_walk(bad)
        assert not got.realizable and got.refutation_index == 1
        good = W.Walk(k=2, vertices=vertices,
                      labels=(EdgeLabel("a", "c"), EdgeLabel("b", "b"),
                              EdgeLabel("c", "c")))
        assert W.spell(good) == "abcbc"
        got = W.is_realizable_walk(good)
        assert got.realizable and got.word == "abcbc"
        assert got.labels == good.labels


class TestStringFromItinerary:
    def test_pair(self):
        word = W.string_from_itinerary([(2, 1, 0), (1, 2, 0)], 3)
        assert word == "aabb"
        assert V.parikh_set(word, 3, 3).members == {(2, 1, 0), (1, 2, 0)}

    def test_single_vertex(self):
        assert W.string_from_itinerary([(1, 1, 1)], 3) == "abc"

    def test_itinerary_object(self):
        itinerary = W.Walk(k=3, vertices=((2, 1, 0), (2, 1, 0),
                                          (1, 2, 0))).itinerary()
        assert W.string_from_itinerary(itinerary, 3) == "aabb"

    def test_rejects_non_neighbors(self):
        with pytest.raises(InvalidInput):
            W.string_from_itinerary([(3, 0, 0), (1, 1, 1)], 3)

    def test_rejects_vertices_that_are_no_order_k_vectors(self):
        # a negative count after the first vertex, a negative first vertex,
        # another order and another alphabet size: rejected as a walk's
        # vertices are, not spelled
        for itinerary, k in [([(2, 0), (3, -1)], 2), ([(-1, 3)], 2),
                             ([(2, 1, 0)], 2), ([(2, 0), (1, 1, 0)], 2)]:
            with pytest.raises(InvalidInput):
                W.string_from_itinerary(itinerary, k)

    def test_all_three_vertex_paths_in_grid_3_3(self):
        vs = V.enumerate_pv(3, 3)
        for a in vs:
            for b in V.neighbors(a):
                for c in V.neighbors(b):
                    if c == a:
                        continue
                    word = W.string_from_itinerary([a, b, c], 3)
                    assert V.parikh_set(word, 3, 3).members == {a, b, c}

    def test_itinerary_roundtrip_exhaustive(self):
        # walks of length <= 6: itinerary of the output equals the input
        for k, sigma, depth in [(3, 3, 6), (2, 4, 6)]:
            paths = [[p] for p in V.enumerate_pv(k, sigma)]
            for _ in range(depth - 1):
                paths = [s + [q] for s in paths for q in V.neighbors(s[-1])
                         if q != (s[-2] if len(s) > 1 else None)]
                # keep the test small: sample deterministically
                paths = paths[::3] if len(paths) > 4000 else paths
            for path in paths[:2000]:
                word = W.string_from_itinerary(path, k)
                walk = W.walk_of(word, k, sigma)
                assert walk.itinerary().vertices == tuple(path)


class TestBowfreeConsequences:
    def test_clean_word(self):
        rep = W.check_bowfree_consequences("aabbcc", 2, 3)
        assert rep.bowfree and rep.applicable
        assert rep.letter_rule_holds and rep.face_rule_holds

    def test_bow_word_not_applicable(self):
        rep = W.check_bowfree_consequences("abcabc", 3)
        assert not rep.bowfree and not rep.applicable

    def test_short_word_face_clause_vacuous(self):
        rep = W.check_bowfree_consequences("aaab", 3)
        assert rep.bowfree and rep.face_rule_holds

    def test_bowfree_words_always_pass(self):
        # both consequences hold for every bowfree walk encountered
        for _ in range(300):
            sigma = rng.randint(2, 4)
            n = rng.randint(2, 24)
            word = "".join(rng.choice(LETTERS[:sigma]) for _ in range(n))
            k = rng.randint(1, n - 1)
            rep = W.check_bowfree_consequences(word, k, sigma)
            if rep.applicable:
                assert rep.letter_rule_holds and rep.face_rule_holds


class TestWalkValidation:
    def test_walk_rejects_non_adjacent(self):
        with pytest.raises(InvalidInput):
            W.Walk(k=3, vertices=((3, 0, 0), (1, 1, 1)))

    def test_walk_rejects_bad_labels(self):
        from parikhgrid.grid import EdgeLabel
        with pytest.raises(InvalidInput):
            W.Walk(k=2, vertices=((2, 0), (1, 1)),
                   labels=(EdgeLabel("b", "a"),))

    def test_raw_vertices_checked_like_a_walk(self):
        # a negative count, a vertex of another order and vertices of
        # mixed lengths are no walk: rejected, not spelled or refuted
        for vertices, k in [([(-1, 4)], 3), ([(1, 2)], 5),
                            ([(1, 2), (1, 2, 0)], 3)]:
            with pytest.raises(InvalidInput):
                W.Walk(k=k, vertices=tuple(vertices))
            with pytest.raises(InvalidInput):
                W.is_realizable_walk(vertices, k)
            with pytest.raises(InvalidInput):
                W.spell(vertices, k)

    def test_walk_with_another_k_refused(self):
        # a walk brings its own k: another one is refused, not ignored
        walk = W.walk_of(FIG_WORD, 4)
        for call in (W.is_realizable_walk, W.spell):
            assert call(walk) == call(walk, 4)
            with pytest.raises(InvalidInput, match="k=5 given for a walk "
                                                   "of k=4"):
                call(walk, k=5)

    def test_window_below_one_refused(self):
        # order-0 vertices would make k = 0, where every window is empty
        zeros = [(0, 0), (0, 0)]
        for call in (lambda: W.Walk(k=0, vertices=tuple(zeros)),
                     lambda: W.is_realizable_walk(zeros),
                     lambda: W.spell(zeros, 0),
                     lambda: W.string_from_itinerary([(0, 0)], 0),
                     lambda: W.walk_of("ab", 0)):
            with pytest.raises(InvalidInput, match="window length"):
                call()

    def test_alphabet_not_guessed_beyond_a_to_z(self):
        with pytest.raises(InvalidInput, match="'A'.*pass one explicitly"):
            W.walk_of("aAb", 2)

    def test_itinerary_rejects_consecutive_duplicates(self):
        with pytest.raises(InvalidInput):
            W.Itinerary(vertices=((1, 1), (1, 1)))
