"""Realizability of sets of equal-order Parikh vectors.

A set is realizable when some string's window vectors are exactly that set,
which happens precisely when the set induces a connected subgraph of the
grid.  The witness is built constructively: a depth-first traversal of the
induced subgraph (revisiting vertices on backtrack) yields a bowfree
covering itinerary, which the walk machinery turns into a string.
"""

from dataclasses import dataclass

from . import vectors as V
from . import walks
from .errors import InvalidInput


@dataclass(frozen=True)
class RealizabilityResult:
    realizable: bool
    k: int
    sigma: int
    witness: str = None
    refutation: tuple = None  # pair of vertex tuples, one per component


def _as_vector_set(pi):
    if isinstance(pi, V.ParikhSet):
        members = pi.members
    else:
        members = frozenset(tuple(p) for p in pi)
    if not members:
        raise InvalidInput("realizability of the empty set is undefined: "
                           "every word of length >= k has a window")
    some = next(iter(members))
    k = sum(some)
    if any(len(p) != len(some) or sum(p) != k or min(p) < 0 for p in members):
        raise InvalidInput("realizable-set members must share one order and "
                           "one alphabet size")
    return members, k, len(some)


def _adjacency(ordered):
    """Neighbor lists of the members, by position in ``ordered`` (rank
    order), each list in rank order.  Two vectors are neighbors exactly
    when they share a child p - e_i, and a neighbor pair shares only its
    meet, so grouping the members by child lists every pair once."""
    by_child = {}
    for i, p in enumerate(ordered):
        for c, count in enumerate(p):
            if count:
                by_child.setdefault(p[:c] + (count - 1,) + p[c + 1:],
                                    []).append(i)
    adj = [[] for _ in ordered]
    for group in by_child.values():
        for i in group:
            adj[i].extend(j for j in group if j != i)
    for near in adj:
        near.sort()
    return adj


def _components(adj):
    """Connected components of the member graph, as sorted position lists,
    ordered by their first position."""
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for j in adj[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _covering_itinerary(adj):
    """Bowfree walk, by position, visiting every member of a connected set:
    depth-first order from the first member with parent revisits on
    backtrack, trailing returns trimmed."""
    tour = [0]
    seen = [False] * len(adj)
    seen[0] = True
    last_new = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        q = next((q for q in stack[-1][1] if not seen[q]), None)
        if q is None:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
            continue
        seen[q] = True
        last_new = len(tour)
        tour.append(q)
        stack.append((q, iter(adj[q])))
    return tour[:last_new + 1]


def is_realizable_set(pi, sigma=None, alphabet=None):
    """Decide realizability; on success the witness string's window set is
    verified to equal the input exactly."""
    members, k, vec_sigma = _as_vector_set(pi)
    if sigma is not None and sigma != vec_sigma:
        raise InvalidInput("sigma=%d does not match vectors of length %d"
                           % (sigma, vec_sigma))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else vec_sigma)
    # colex order, the last coordinate slowest, is rank order
    ordered = sorted(members, key=lambda p: p[::-1])
    adj = _adjacency(ordered)
    comps = _components(adj)
    if len(comps) > 1:
        return RealizabilityResult(
            realizable=False, k=k, sigma=vec_sigma,
            refutation=tuple(tuple(ordered[i] for i in comp)
                             for comp in comps[:2]))
    itinerary = [ordered[i] for i in _covering_itinerary(adj)]
    witness = walks.string_from_itinerary(itinerary, k, alphabet)
    got = V.parikh_set(witness, k, alphabet).members
    if got != members:
        raise AssertionError(
            "witness construction is broken: expected window set %r, got %r"
            % (sorted(members), sorted(got)))
    return RealizabilityResult(realizable=True, k=k, sigma=vec_sigma,
                               witness=witness)


def realizable_pair_witness(p, q, alphabet=None):
    """Witness for a neighbor pair {p, q}: the leaving letter, then the
    canonical word of the pair's meet, then the entering letter."""
    p, q = tuple(p), tuple(q)
    V.validate_vector(p)
    V.validate_vector(q)
    shift = V.step(p, q)
    if shift is None:
        raise InvalidInput("%r and %r are not neighbors" % (p, q))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else len(p))
    out_i, in_i = shift
    middle = V.canonical_word(V.meet([p, q]), alphabet)
    return alphabet.letter(out_i) + middle + alphabet.letter(in_i)
