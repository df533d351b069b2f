"""Realizability of sets of equal-order Parikh vectors.

A set is realizable when some string's window vectors are exactly that set,
which happens precisely when the set induces a connected subgraph of the
grid.  Two vectors are neighbors exactly when they share a child p - e_c,
so one depth-first traversal over the members grouped by child decides,
and spells the witness on the way from the letters the groups carry; a
second traversal gives the refutation's other component.  The work is
linear in the group slots, not in the neighbor pairs.
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
    V.check_vectors(members, k, len(some))
    return members, k, len(some)


def _child_groups(ordered):
    """For each member, by position in ``ordered`` (rank order), its child
    groups as (group, c) with the member equal to the child plus e_c.  A
    group lists the members sharing one child, each with its letter, in
    descending position, so its first unseen member sits at its end.  A
    neighbor pair shares only its meet, so it meets in one group."""
    by_child = {}
    links = [None] * len(ordered)
    for i in range(len(ordered) - 1, -1, -1):
        p = ordered[i]
        child = list(p)
        mine = []
        for c, count in enumerate(p):
            if count:
                child[c] = count - 1
                key = tuple(child)
                child[c] = count
                group = by_child.get(key)
                if group is None:
                    group = by_child[key] = []
                group.append((i, c))
                mine.append((group, c))
        links[i] = mine
    return links


def _tour(links, seen, start):
    """Depth-first traversal of the component of ``start``, always to the
    unseen neighbor of smallest position, back to the parent at a dead end.
    Returns the component's positions and the tour's (out, in) letter
    shifts, a return being the reversed shift, trailing returns dropped.
    Seen only grows, so a group drops its seen members from its end for
    good: each group slot is dropped at most once."""
    seen[start] = True
    comp, shifts = [start], []
    kept = 0
    stack = [(start, None)]
    while stack:
        here, back = stack[-1]
        best = len(seen)
        for group, c in links[here]:
            while group and seen[group[-1][0]]:
                group.pop()
            if group and group[-1][0] < best:
                best, shift = group[-1][0], (c, group[-1][1])
        if best == len(seen):
            stack.pop()
            if back is not None:
                shifts.append(back)
            continue
        seen[best] = True
        comp.append(best)
        shifts.append(shift)
        kept = len(shifts)
        stack.append((best, shift[::-1]))
    del shifts[kept:]
    return comp, shifts


def is_realizable_set(pi, sigma=None, alphabet=None):
    """Decide realizability; on success the witness string's window set is
    verified to equal the input exactly."""
    members, k, vec_sigma = _as_vector_set(pi)
    if sigma is not None and sigma != vec_sigma:
        raise InvalidInput("sigma=%d does not match vectors of length %d"
                           % (sigma, vec_sigma))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else vec_sigma)
    if alphabet.size != vec_sigma:
        raise InvalidInput("alphabet size %d does not match vectors of "
                           "length %d" % (alphabet.size, vec_sigma))
    # colex order, the last coordinate slowest, is rank order
    ordered = sorted(members, key=lambda p: p[::-1])
    links = _child_groups(ordered)
    seen = [False] * len(ordered)
    comp, shifts = _tour(links, seen, 0)
    if len(comp) < len(ordered):
        other, _ = _tour(links, seen, seen.index(False))
        return RealizabilityResult(
            realizable=False, k=k, sigma=vec_sigma,
            refutation=tuple(tuple(ordered[i] for i in sorted(part))
                             for part in (comp, other)))
    word = [c for c, count in enumerate(ordered[0]) for _ in range(count)]
    for shift in shifts:
        walks.extend_by_shift(word, k, *shift)
    got = set(V.window_vectors(word, k, vec_sigma))
    if got != members:
        raise AssertionError(
            "witness construction is broken: expected window set %r, got %r"
            % (sorted(members), sorted(got)))
    return RealizabilityResult(realizable=True, k=k, sigma=vec_sigma,
                               witness=alphabet.indices_to_word(word))


def realizable_pair_witness(p, q, alphabet=None):
    """Witness for a neighbor pair {p, q}: the leaving letter, then the
    canonical word of the pair's meet, then the entering letter."""
    p, q = tuple(p), tuple(q)
    V.check_vectors((p, q), sum(p), len(p))
    shift = V.step(p, q)
    if shift is None:
        raise InvalidInput("%r and %r are not neighbors" % (p, q))
    alphabet = V.as_alphabet(alphabet if alphabet is not None else len(p))
    out_i, in_i = shift
    middle = V.canonical_word(V.meet([p, q]), alphabet)
    return alphabet.letter(out_i) + middle + alphabet.letter(in_i)
