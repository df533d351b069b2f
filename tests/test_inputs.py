"""Every public entry point that takes Parikh vectors refuses a tuple that
is none: one without coordinates, or one with a negative count, whether
its counts sum to the order asked for or not.  Every one that takes an
order k and an alphabet size sigma refuses either below 1, with one
message."""

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
    "build_grid": G.build_grid,
    "run_search": lambda k, sigma: S.run_search(S.SearchConfig(k=k,
                                                               sigma=sigma)),
    "enumerate_all_pdb": S.enumerate_all_pdb,
}


@pytest.mark.parametrize("k,sigma", [(0, 2), (2, 0), (-1, 3), (3, -2)])
@pytest.mark.parametrize("name", sorted(INSTANCE_ENTRY_POINTS))
def test_entry_point_refuses_an_instance_below_one(name, k, sigma):
    message = "need k >= 1 and sigma >= 1, got k=%d sigma=%d" % (k, sigma)
    with pytest.raises(InvalidInput, match="^%s$" % re.escape(message)):
        INSTANCE_ENTRY_POINTS[name](k, sigma)
