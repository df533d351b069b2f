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


def _components(members):
    """Connected components of the induced subgraph, by rank order."""
    remaining = set(members)
    comps = []
    while remaining:
        start = min(remaining, key=V.pv_rank)
        comp, stack = {start}, [start]
        while stack:
            p = stack.pop()
            for q in V.neighbors(p):
                if q in remaining and q not in comp:
                    comp.add(q)
                    stack.append(q)
        comps.append(tuple(sorted(comp, key=V.pv_rank)))
        remaining -= comp
    return comps


def _covering_itinerary(members):
    """Bowfree walk visiting every member of a connected set: depth-first
    order with parent revisits on backtrack, trailing returns trimmed."""
    rank = {p: V.pv_rank(p) for p in members}

    def members_near(p):
        return iter(sorted(V.neighbors(p) & members, key=rank.__getitem__))

    start = min(members, key=rank.__getitem__)
    tour = [start]
    seen = {start}
    last_new = 0
    stack = [(start, members_near(start))]
    while stack:
        q = next((q for q in stack[-1][1] if q not in seen), None)
        if q is None:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
            continue
        seen.add(q)
        last_new = len(tour)
        tour.append(q)
        stack.append((q, members_near(q)))
    return tour[:last_new + 1]


def is_realizable_set(pi, sigma=None, alphabet=None):
    """Decide realizability; on success the witness string's window set is
    verified to equal the input exactly."""
    members, k, vec_sigma = _as_vector_set(pi)
    if sigma is not None and sigma != vec_sigma:
        raise InvalidInput("sigma=%d does not match vectors of length %d"
                           % (sigma, vec_sigma))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else vec_sigma)
    comps = _components(members)
    if len(comps) > 1:
        return RealizabilityResult(realizable=False, k=k, sigma=vec_sigma,
                                   refutation=(comps[0], comps[1]))
    witness = walks.string_from_itinerary(_covering_itinerary(members), k,
                                          alphabet)
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
    if not V.is_neighbor(p, q):
        raise InvalidInput("%r and %r are not neighbors" % (p, q))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else len(p))
    out_i = next(i for i in range(len(p)) if q[i] < p[i])
    in_i = next(i for i in range(len(p)) if q[i] > p[i])
    middle = V.canonical_word(V.meet([p, q]), alphabet)
    return alphabet.letter(out_i) + middle + alphabet.letter(in_i)
