"""Every public entry point that takes Parikh vectors refuses a tuple that
is none: one without coordinates, or one with a negative count, whether
its counts sum to the order asked for or not.  Every one that takes an
order k or an alphabet size sigma refuses either below 1 or not an int,
with one message, before any other argument is read.  A search refuses a
length or a node budget that is not an int, and a perfect-cover
enumeration a config of another instance."""

import re

import pytest

from parikhgrid import covering as C
from parikhgrid import grid as G
from parikhgrid import realize as R
from parikhgrid import search as S
from parikhgrid import vectors as V
from parikhgrid import walks as W
from parikhgrid.errors import InvalidInput

# the grid of order-1 vectors over two letters; (2, -1) has order 1
GRID = G.PdbGrid(1, 2)

ENTRY_POINTS = {
    "order": V.order,
    "support_size": V.support_size,
    "neighbors": V.neighbors,
    "parents": V.parents,
    "children": V.children,
    "pv_rank": V.pv_rank,
    "canonical_word": V.canonical_word,
    "PdbGrid.rank": GRID.rank,
    "PdbGrid.neighbors": GRID.neighbors,
    "PdbGrid.degree": GRID.degree,
    "PdbGrid.bows": GRID.bows,
    "PdbGrid.edge_label": lambda p: GRID.edge_label(p, (1, 0)),
    "PdbGrid.simplex_of_parent": GRID.simplex_of_parent,
    "PdbGrid.simplex_of_child": GRID.simplex_of_child,
    "Walk": lambda p: W.Walk(k=1, vertices=(p,)),
    "is_realizable_walk": lambda p: W.is_realizable_walk([p], 1),
    "spell": lambda p: W.spell([p], 1),
    "string_from_itinerary": lambda p: W.string_from_itinerary([p], 1),
    "is_realizable_set": lambda p: R.is_realizable_set([p]),
    "realizable_pair_witness": lambda p: R.realizable_pair_witness(p, (0, 1)),
    "classify_clique": lambda p: G.classify_clique([p]),
    "meet": lambda p: V.meet([p]),
    "meet of two": lambda p: V.meet([p, p]),
    "join": lambda p: V.join([p]),
}

# the messages of vectors.validate_vector and vectors.check_vectors
REFUSAL = "at least one coordinate|negative count|is not an order-"


@pytest.mark.parametrize("p", [(1, -1), (2, -1), ()], ids=repr)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_refuses_a_non_vector(name, p):
    with pytest.raises(InvalidInput, match=REFUSAL):
        ENTRY_POINTS[name](p)


INSTANCE_ENTRY_POINTS = {
    "bounds": C.bounds,
    "verify": lambda k, sigma: C.verify("ab", k, sigma),
    "build_grid": G.build_grid,
    "run_search": lambda k, sigma: S.run_search(S.SearchConfig(k=k,
                                                               sigma=sigma)),
    "enumerate_all_pdb": S.enumerate_all_pdb,
    "run_search at a length": lambda k, sigma: S.run_search(S.SearchConfig(
        k=k, sigma=sigma, target=S.TARGET_AT_LENGTH, target_length=8)),
    "iter_covering_words": lambda k, sigma: list(
        S.iter_covering_words(k, sigma, 5)),
    "construct_family k2_eulerian": lambda k, sigma: C.construct_family(
        "k2_eulerian", k, sigma),
    "construct_family kcover_not_k1": lambda k, sigma: C.construct_family(
        "kcover_not_k1", k, sigma),
}


NEED = "need k >= 1 and sigma >= 1, got "


@pytest.mark.parametrize("k,sigma", [
    (0, 2), (2, 0), (-1, 3), (3, -2),
    pytest.param(2, "2", id="2-'2'"),
    pytest.param("2", 2, id="'2'-2"),
    pytest.param(2, 2.0, id="2-2.0"),
])
@pytest.mark.parametrize("name", sorted(INSTANCE_ENTRY_POINTS))
def test_entry_point_refuses_an_instance_below_one(name, k, sigma):
    message = NEED + "k=%r sigma=%r" % (k, sigma)
    with pytest.raises(InvalidInput, match="^%s$" % re.escape(message)):
        INSTANCE_ENTRY_POINTS[name](k, sigma)


ALPHABET_ENTRY_POINTS = {
    "Alphabet": V.Alphabet,
    "pv_of": lambda sigma: V.pv_of("ab", sigma),
    "covset": lambda sigma: C.covset("ab", sigma),
    "canonical_form": lambda sigma: S.canonical_form("ab", sigma),
    "walk_of": lambda sigma: W.walk_of("ab", 1, sigma),
}


@pytest.mark.parametrize("sigma", [0, -2, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("name", sorted(ALPHABET_ENTRY_POINTS))
def test_entry_point_refuses_an_alphabet_below_one(name, sigma):
    # no order k is given, and the message says which size it refuses
    message = NEED + "sigma=%r" % (sigma,)
    with pytest.raises(InvalidInput, match="^%s$" % re.escape(message)):
        ALPHABET_ENTRY_POINTS[name](sigma)


SIZE_ENTRY_POINTS = {
    "node_budget": lambda size: S.run_search(S.SearchConfig(
        k=3, sigma=2, node_budget=size)),
    "max_len": lambda size: S.run_search(S.SearchConfig(
        k=3, sigma=2, max_len=size)),
    "target_length": lambda size: S.run_search(S.SearchConfig(
        k=3, sigma=2, target=S.TARGET_AT_LENGTH, target_length=size)),
    "iter_covering_words": lambda size: list(
        S.iter_covering_words(2, 2, size)),
}


@pytest.mark.parametrize("size", [7.5, 8.0, "5", -1], ids=repr)
@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_search_refuses_a_size_that_is_not_an_int(name, size):
    # refused before the kernel or range() reads it
    field = "max_len" if name == "iter_covering_words" else name
    message = "%s must be an int >= %d, got %r" % (
        field, 3 if field == "target_length" else 0, size)
    with pytest.raises(InvalidInput, match="^%s$" % re.escape(message)):
        SIZE_ENTRY_POINTS[name](size)


@pytest.mark.parametrize("k,sigma", [(4, 4), (4, 3), (3, 4)])
def test_enumeration_refuses_a_config_of_another_instance(k, sigma):
    # the config gives the enumeration its budget and workers, not another
    # (k, sigma) to search in place of its own
    with pytest.raises(InvalidInput, match="^a config of k=%d sigma=%d "
                       "cannot enumerate the perfect covers of k=3 sigma=3$"
                       % (k, sigma)):
        S.enumerate_all_pdb(3, 3, S.SearchConfig(k=k, sigma=sigma))
