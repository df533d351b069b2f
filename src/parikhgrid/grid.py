"""The grid of fixed-order Parikh vectors.

Undirected view: vertices are all order-k vectors over sigma letters, edges
join neighbors (vectors one window shift apart).  Directed view: two
anti-parallel labeled arcs per neighbor pair, plus one labeled self-loop
("bow") per non-zero coordinate of each vertex, modeling window shifts that
do not change the vector.

Adjacency is computed arithmetically from the vector, so grids stay cheap
even when the vertex count is large.  Explicit edge lists come from one
generator of labeled arcs by rank, :meth:`PdbGrid.arcs`, read off the same
rank map (:func:`vectors.rank_map`) as the pure search kernel's shift
table.
"""

import math
from dataclasses import dataclass

from . import vectors as V
from .errors import CapacityExceeded, InvalidInput, LayoutUnsupported

# Kinds returned by classify_clique.
COMMON_CHILD = "common_child"
COMMON_PARENT = "common_parent"
BOTH = "both"
NOT_A_CLIQUE = "not_a_clique"
SINGLETON = "singleton"

# A grid holds nothing per vertex; only the lists that vertices() and
# arcs() materialize, and what reads them, are capped, well below the
# 64-bit vector-count bound.
MAX_GRID_VERTICES = 5_000_000


@dataclass(frozen=True)
class EdgeLabel:
    """Letters exchanged by a window shift: ``out_letter`` leaves the
    window, ``in_letter`` enters.  Bows carry (x, x)."""

    out_letter: str
    in_letter: str


@dataclass(frozen=True)
class CliqueClassification:
    kind: str
    common_child: tuple = None
    common_parent: tuple = None


class PdbGrid:
    """Grid of all order-k Parikh vectors over a sigma-letter alphabet."""

    def __init__(self, k, sigma):
        self.vertex_count = V.check_instance(k, sigma)
        self.k = k
        self.sigma = sigma
        self.alphabet = V.Alphabet(sigma)

    def __repr__(self):
        return "PdbGrid(k=%d, sigma=%d)" % (self.k, self.sigma)

    # -- vertex addressing ------------------------------------------------

    def _check_listable(self):
        if self.vertex_count > MAX_GRID_VERTICES:
            raise CapacityExceeded(
                "listing the grid's %d vertices exceeds the %d-vertex bound"
                % (self.vertex_count, MAX_GRID_VERTICES))

    def vertices(self):
        """All vertices in rank order (the canonical colex enumeration)."""
        self._check_listable()
        return V.enumerate_pv(self.k, self.sigma)

    def rank(self, p):
        self._check_vertex(p)
        return V.pv_rank(p)

    def unrank(self, i):
        return V.pv_unrank(i, self.k, self.sigma)

    def contains(self, p):
        try:
            self._check_vertex(p)
        except InvalidInput:
            return False
        return True

    def _check_vertex(self, p, k=None):
        # k is the grid's order unless given
        V.check_vectors((p,), self.k if k is None else k, self.sigma)

    # -- adjacency ---------------------------------------------------------

    def neighbors(self, p):
        self._check_vertex(p)
        return V.neighbors(p)

    def degree(self, p):
        """gamma(p) * (sigma - 1)."""
        self._check_vertex(p)
        return V.support_size(p) * (self.sigma - 1)

    def bows(self, p):
        """One self-loop label per non-zero coordinate of p."""
        self._check_vertex(p)
        return [EdgeLabel(self.alphabet.letter(i), self.alphabet.letter(i))
                for i, c in enumerate(p) if c]

    def edge_label(self, p, q):
        """Label of the directed edge p -> q (q a neighbor of p)."""
        V.check_vectors((p, q), self.k, self.sigma)
        shift = V.step(p, q)
        if shift is None:
            raise InvalidInput("%r and %r are not neighbors" % (p, q))
        out_i, in_i = shift
        return EdgeLabel(self.alphabet.letter(out_i), self.alphabet.letter(in_i))

    # -- aggregate structure (materialized on demand) ----------------------
    #
    # Every edge list is read from arcs(): by source rank, then leaving
    # letter, then entering letter.

    def arcs(self):
        """Every labeled arc, bows included, as rank and letter indices
        (i, j, out, in): the vertex of rank j is p - e_out + e_in for p of
        rank i, and bows are the arcs with out == in."""
        self._check_listable()
        sigma = self.sigma
        down, up = V.rank_map(self.k, sigma)
        for slot, r in enumerate(down):
            if r >= 0:
                i, out = divmod(slot, sigma)
                for into, j in enumerate(up[r * sigma:(r + 1) * sigma]):
                    yield i, j, out, into

    def undirected_edges(self):
        """Each neighbor pair once, as (p, q) with rank(p) < rank(q)."""
        vectors = self.vertices()
        for i, j, _out, _into in self.arcs():
            if i < j:
                yield vectors[i], vectors[j]

    def directed_edges(self):
        """All labeled arcs, bows included, as (p, q, label)."""
        vectors = self.vertices()
        letters = [self.alphabet.letter(c) for c in range(self.sigma)]
        labels = [[EdgeLabel(a, b) for b in letters] for a in letters]
        for i, j, out, into in self.arcs():
            yield vectors[i], vectors[j], labels[out][into]

    def bow_count(self):
        """sigma * C(k+sigma-2, sigma-1): a bow (p, i) with p[i] >= 1 is an
        order-(k-1) vector p - e_i and a letter i."""
        return self.sigma * math.comb(self.k + self.sigma - 2, self.sigma - 1)

    def undirected_edge_count(self):
        """Each bow (p, i) starts sigma - 1 arcs p -> p - e_i + e_j, and each
        edge is two arcs."""
        return self.bow_count() * (self.sigma - 1) // 2

    # -- order-(k +/- 1) simplices -----------------------------------------

    def simplex_of_parent(self, r):
        """Children of an order-(k+1) vector; always a clique in the grid."""
        self._check_vertex(r, self.k + 1)
        return V.children(r)

    def simplex_of_child(self, q):
        """Parents of an order-(k-1) vector; always a clique in the grid."""
        self._check_vertex(q, self.k - 1)
        return V.parents(q)


def build_grid(k, sigma):
    return PdbGrid(k, sigma)


def classify_clique(vs):
    """Classify a set of equal-order vectors by shared child/parent.

    Pairwise neighbors always share at most one child (their meet) and at
    most one parent (their join).  Cliques of size >= 3 have exactly one of
    the two; pairs have both; a singleton is reported as its own kind.
    """
    vs = list(set(vs))
    if not vs:
        raise InvalidInput("cannot classify an empty vertex set")
    k = sum(vs[0])
    V.check_vectors(vs, k, len(vs[0]))
    if len(vs) == 1:
        return CliqueClassification(kind=SINGLETON)
    for i, p in enumerate(vs):
        for q in vs[i + 1:]:
            if V.step(p, q) is None:
                return CliqueClassification(kind=NOT_A_CLIQUE)
    low = V.meet(vs)
    high = V.join(vs)
    child = low if sum(low) == k - 1 else None
    parent = high if sum(high) == k + 1 else None
    if child is not None and parent is not None:
        kind = BOTH
    elif child is not None:
        kind = COMMON_CHILD
    elif parent is not None:
        kind = COMMON_PARENT
    else:
        # Cannot occur for pairwise neighbors; guard against misuse.
        return CliqueClassification(kind=NOT_A_CLIQUE)
    return CliqueClassification(kind=kind, common_child=child,
                                common_parent=parent)


_SQRT3_2 = math.sqrt(3.0) / 2.0


def layout_2d(grid):
    """Triangular drawing coordinates for sigma = 3.

    Maps (p1, p2, p3) to (p2 + p3/2, sqrt(3)/2 * p3); neighbor pairs land at
    Euclidean distance exactly 1.
    """
    if grid.sigma != 3:
        raise LayoutUnsupported("2D layout is defined for sigma=3 only, "
                                "got sigma=%d" % grid.sigma)
    return {p: (p[1] + p[2] / 2.0, _SQRT3_2 * p[2]) for p in grid.vertices()}
