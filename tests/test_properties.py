"""Property tests of the grid iterators, realizability, the window scan,
the shift decoder and walk spelling against the package-free oracles in helpers.py, at
small random (k, sigma): sigma = 1 included, and sigma = 27, where letters
are written as indices."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parikhgrid import covering as C
from parikhgrid import export
from parikhgrid import realize as R
from parikhgrid import vectors as V
from parikhgrid import walks as W
from parikhgrid.errors import WalkUnrealizable
from parikhgrid.grid import EdgeLabel, build_grid

from helpers import (LETTERS, colex_vectors, grid_step, induced_components,
                     letter_indices, naive_parikh_set,
                     naive_window_multiplicities, walk_realizable_naive,
                     walk_refutation_naive, walk_vertices_of)

# Derandomized, so that every run of the suite draws the same examples.
PROPERTY = settings(max_examples=200, deadline=None, database=None,
                    derandomize=True)

# (k, sigma) with sigma = 1 and sigma = 27 among the draws
SIZES = st.one_of(
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.integers(1, 6), st.just(1)),
    st.tuples(st.integers(1, 2), st.just(27)),
)


def _letter(sigma, i):
    return LETTERS[i] if sigma <= len(LETTERS) else str(i)


def _word(sigma, letters):
    return ("" if sigma <= len(LETTERS) else ",").join(
        _letter(sigma, i) for i in letters)


def _oracle_arcs(k, sigma):
    """(i, j, out, in) for every arc, in source rank, leaving letter,
    entering letter order."""
    vectors = colex_vectors(k, sigma)
    rank = {p: i for i, p in enumerate(vectors)}
    return [(rank[p], rank[q], out, into)
            for p in vectors for out in range(sigma) for into in range(sigma)
            for q in [grid_step(p, out, into)] if q is not None]


@PROPERTY
@given(SIZES)
def test_rank_map_matches_the_oracle(size):
    k, sigma = size
    vectors, lower = colex_vectors(k, sigma), colex_vectors(k - 1, sigma)
    rank = {p: i for i, p in enumerate(vectors)}
    low_rank = {q: r for r, q in enumerate(lower)}
    down, up = V.rank_map(k, sigma)
    unit = [tuple(int(c == x) for x in range(sigma)) for c in range(sigma)]
    assert down.tolist() == [
        low_rank[tuple(map(int.__sub__, p, unit[c]))] if p[c] else -1
        for p in vectors for c in range(sigma)]
    assert up.tolist() == [rank[tuple(map(int.__add__, q, unit[c]))]
                           for q in lower for c in range(sigma)]


@PROPERTY
@given(SIZES)
def test_grid_iterators_match_the_oracle(size):
    k, sigma = size
    g = build_grid(k, sigma)
    vectors = colex_vectors(k, sigma)
    arcs = _oracle_arcs(k, sigma)
    assert g.vertices() == vectors
    assert list(g.arcs()) == arcs

    labeled = [(vectors[i], vectors[j],
                _letter(sigma, out), _letter(sigma, into))
               for i, j, out, into in arcs]
    assert [(p, q, lab.out_letter, lab.in_letter)
            for p, q, lab in g.directed_edges()] == labeled

    edges = [(vectors[i], vectors[j]) for i, j, _, _ in arcs if i < j]
    assert list(g.undirected_edges()) == edges
    assert g.undirected_edge_count() == len(edges)
    assert {frozenset(e) for e in edges} == {
        frozenset((vectors[i], vectors[j])) for i, j, out, into in arcs
        if out != into}

    bows = [(vectors[i], _letter(sigma, out))
            for i, _, out, into in arcs if out == into]
    assert [(p, lab.out_letter) for p in vectors
            for lab in g.bows(p)] == bows
    assert g.bow_count() == len(bows)

    doc = export.grid_to_dict(g, include_directed=True)
    assert doc["undirected_edges"] == [[i, j] for i, j, _, _ in arcs if i < j]
    assert doc["bows"] == [{"vertex": i, "letter": _letter(sigma, out)}
                           for i, _, out, into in arcs if out == into]
    assert [(a["from"], a["to"], a["out"], a["in"])
            for a in doc["directed_edges"]] == [
        (i, j, _letter(sigma, out), _letter(sigma, into))
        for i, j, out, into in arcs]


@st.composite
def vector_sets(draw):
    """A non-empty set of equal-order vectors: a word's windows (connected),
    maybe with a few extra vectors, or a plain random subset."""
    k, sigma = draw(SIZES)
    vectors = colex_vectors(k, sigma)
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, sigma - 1), min_size=k,
                             max_size=k + 20))
        members = naive_parikh_set(_word(sigma, word), k, sigma)
        members |= set(draw(st.lists(st.sampled_from(vectors), max_size=2)))
    else:
        members = set(draw(st.lists(st.sampled_from(vectors), min_size=1,
                                    max_size=12)))
    return k, sigma, frozenset(members)


@PROPERTY
@given(vector_sets())
def test_realizable_iff_connected(case):
    k, sigma, members = case
    got = R.is_realizable_set(members, sigma=sigma)
    comps = induced_components(members)
    assert got.realizable == (len(comps) == 1)
    if got.realizable:
        assert naive_parikh_set(got.witness, k, sigma) == members
        return
    # the component of the first member by rank, then the one of the first
    # member outside it
    assert got.refutation == tuple(map(tuple, comps[:2]))


@st.composite
def words(draw, min_windows=0, covering=True):
    """(k, sigma, word): random letters, or, when ``covering``, the sorted
    words of every order-k vector in random order, which covers."""
    k, sigma = draw(SIZES)
    if covering and draw(st.booleans()):
        letters = [i for p in draw(st.permutations(colex_vectors(k, sigma)))
                   for i, c in enumerate(p) for _ in range(c)]
    else:
        letters = draw(st.lists(st.integers(0, sigma - 1),
                                min_size=max(0, k - 1 + min_windows),
                                max_size=k + 20))
    return k, sigma, _word(sigma, letters)


@PROPERTY
@given(words(min_windows=1))
def test_walk_of_and_spell_round_trip(case):
    k, sigma, word = case
    walk = W.walk_of(word, k, sigma)
    assert walk.vertices == walk_vertices_of(word, k, sigma)
    assert W.walk_of(W.spell(walk), k, sigma) == walk


@PROPERTY
@given(words())
def test_verify_matches_window_multiplicities(case):
    k, sigma, word = case
    report = C.verify(word, k, sigma)
    mult = naive_window_multiplicities(word, k, sigma)
    vectors = colex_vectors(k, sigma)
    assert report.missing == tuple(p for p in vectors if p not in mult)
    assert report.duplicated == tuple((p, mult[p]) for p in vectors
                                      if mult.get(p, 0) > 1)
    assert report.is_covering == (len(mult) == len(vectors))
    assert report.is_pdb == (report.is_covering and not report.duplicated)


@PROPERTY
@given(words(covering=False))
def test_covset_matches_naive_window_sets(case):
    _, sigma, word = case
    n = len(letter_indices(word, sigma))
    assert C.covset(word, sigma) == {
        j for j in range(1, n + 1)
        if len(naive_parikh_set(word, j, sigma)) == comb(j + sigma - 1, j)}


@PROPERTY
@given(st.data())
def test_step_inverts_grid_step(data):
    k, sigma = data.draw(SIZES)
    vectors = colex_vectors(k, sigma)
    p = data.draw(st.sampled_from(vectors))
    shifts = {grid_step(p, out, into): (out, into)
              for out in range(sigma) for into in range(sigma) if out != into}
    shifts.pop(None, None)
    assert [V.step(p, q) for q in vectors] == [shifts.get(q) for q in vectors]


@st.composite
def perturbed_walks(draw):
    """(k, sigma, vertices, bow letters or None): the walk of a word of at
    most 8 letters with one vertex replaced by itself or a neighbor, and,
    when the result is still a walk, maybe a letter prescribed at each bow."""
    sigma = draw(st.integers(2, 3))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k + 1, 8))
    word = draw(st.lists(st.integers(0, sigma - 1), min_size=n, max_size=n))
    vertices = list(walk_vertices_of(_word(sigma, word), k, sigma))
    i = draw(st.integers(0, len(vertices) - 1))
    p = vertices[i]
    neighbors = sorted({grid_step(p, out, into) for out in range(sigma)
                        for into in range(sigma)} - {None, p})
    if neighbors and draw(st.booleans()):
        vertices[i] = draw(st.sampled_from(neighbors))
    steps = list(zip(vertices, vertices[1:]))
    if (not draw(st.booleans())
            or any(p != q and V.step(p, q) is None for p, q in steps)):
        return k, sigma, tuple(vertices), None
    bow_letters = [draw(st.sampled_from([c for c in range(sigma) if p[c]]))
                   if p == q else None for p, q in steps]
    return k, sigma, tuple(vertices), bow_letters


@settings(PROPERTY, max_examples=400)
@given(perturbed_walks())
def test_spelling_matches_word_enumeration(case):
    k, sigma, vertices, bow_letters = case
    word = walk_realizable_naive(vertices, k, sigma, bow_letters)
    refutation = walk_refutation_naive(vertices, k, sigma, bow_letters)
    assert (word is None) == (refutation is not None)
    walk = list(vertices)
    if bow_letters is not None:
        labels = tuple(EdgeLabel(LETTERS[c], LETTERS[c]) if c is not None
                       else EdgeLabel(*(LETTERS[x] for x in V.step(p, q)))
                       for p, q, c in zip(vertices, vertices[1:], bow_letters))
        walk = W.Walk(k=k, vertices=vertices, labels=labels)
    got = W.is_realizable_walk(walk, k)
    assert got.realizable == (word is not None)
    if word is None:
        assert got.refutation_index == refutation
        with pytest.raises(WalkUnrealizable) as exc:
            W.spell(walk, k)
        assert exc.value.refutation_index == refutation
        return
    assert got.word == W.spell(walk, k) == word
    if bow_letters is not None:
        assert got.labels == walk.labels
