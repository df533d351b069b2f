"""Parikh vector grids, covering words, and exhaustive shortest-cover search.

Vertices of the order-k grid are the Parikh vectors (letter-count tuples)
of k-letter strings over a sigma-letter alphabet; edges join vectors one
window shift apart.  Strings map to walks, sets of vectors are realizable
exactly when they induce a connected subgraph, and words covering every
vector (once: perfect covers) are verified, constructed, and searched for
exhaustively.

Importing the package loads none of its submodules.  Each name of
``__all__`` is looked up in its home module on first use, which imports
that module and what it needs: ``parikhgrid.verify`` loads ``covering``,
while the kernel (and ``ctypes``) is loaded only by a search or by
``active_kernel()``.  The kernel is compiled C, built on first use: a
search needs a C compiler, and nothing else does.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys((
        "BoundsReport", "CoverReport", "KnownVerdict", "MincovReport",
        "bounds", "construct_family", "covset", "is_universal_cycle",
        "mincov_explore", "perfect_length", "verify", "wrap_cycle",
    ), "covering"),
    **dict.fromkeys((
        "CapacityExceeded", "FamilyUnsupported", "InvalidInput",
        "LayoutUnsupported", "ParikhGridError", "WalkUnrealizable",
    ), "errors"),
    **dict.fromkeys((
        "CliqueClassification", "EdgeLabel", "PdbGrid", "build_grid",
        "classify_clique", "layout_2d",
    ), "grid"),
    "active_kernel": "kernel",
    **dict.fromkeys((
        "RealizabilityResult", "is_realizable_set", "realizable_pair_witness",
    ), "realize"),
    **dict.fromkeys((
        "SearchConfig", "SearchOutcome", "enumerate_all_pdb",
        "iter_covering_words", "run_search",
    ), "search"),
    **dict.fromkeys((
        "Alphabet", "ParikhSet", "canonical_word", "children", "enumerate_pv",
        "join", "meet", "neighbors", "parents", "parikh_set", "pv_count",
        "pv_of", "pv_rank", "pv_unrank",
    ), "vectors"),
    **dict.fromkeys((
        "BowfreeReport", "Itinerary", "Walk", "WalkRealizability",
        "check_bowfree_consequences", "is_realizable_walk", "spell",
        "string_from_itinerary", "walk_of",
    ), "walks"),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # The name is read from its home module on every access, never stored
    # here, so a function rebound in its home module is what the package
    # hands out, and restoring it there restores it here.
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + home, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
