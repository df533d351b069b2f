"""Property tests of the grid iterators and of realizability against the
package-free oracles in helpers.py, at small random (k, sigma): sigma = 1
included, and sigma = 27, where letters are written as indices."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from parikhgrid import export
from parikhgrid import realize as R
from parikhgrid.grid import build_grid

from helpers import LETTERS, colex_vectors, grid_step, naive_parikh_set

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


def _oracle_connected(members, sigma):
    start = next(iter(members))
    seen, queue = {start}, deque([start])
    while queue:
        p = queue.popleft()
        for out in range(sigma):
            for into in range(sigma):
                q = grid_step(p, out, into)
                if q in members and q not in seen:
                    seen.add(q)
                    queue.append(q)
    return len(seen) == len(members)


@st.composite
def vector_sets(draw):
    """A non-empty set of equal-order vectors: a word's windows (connected),
    maybe with a few extra vectors, or a plain random subset."""
    k, sigma = draw(SIZES)
    vectors = colex_vectors(k, sigma)
    if draw(st.booleans()):
        word = draw(st.lists(st.integers(0, sigma - 1), min_size=k,
                             max_size=k + 20))
        text = ("".join(LETTERS[i] for i in word) if sigma <= len(LETTERS)
                else ",".join(map(str, word)))
        members = naive_parikh_set(text, k, sigma)
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
    assert got.realizable == _oracle_connected(members, sigma)
    if got.realizable:
        assert naive_parikh_set(got.witness, k, sigma) == members
        return
    a, b = map(set, got.refutation)
    assert a and b and not a & b and a | b <= members
    assert not any(grid_step(p, out, into) in b for p in a
                   for out in range(sigma) for into in range(sigma))
