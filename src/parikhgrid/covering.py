"""Covering words: verification, length bounds, and explicit constructions.

A word is k-covering when every order-k Parikh vector appears among its
window vectors, and a perfect covering word when every vector appears in
exactly one window; the latter forces length C(sigma+k-1, k) + k - 1, and
the *excess* of a covering word is its length above that floor.  This
module verifies those properties, evaluates the two lower bounds on
shortest covering words (the window count and a per-letter occurrence
count), checks the universal-cycle divisibility condition, and emits the
known explicit constructions: the two-letter block word, the k=2 word from
an Eulerian walk on the complete graph with loops, and, for k >= 4 and
sigma >= 3, a k-covering word whose (k-1)-window vectors omit
(k-3, 1, 1, 0, ..., 0).
"""

from collections import Counter
from dataclasses import dataclass
from itertools import cycle, groupby, islice
from math import comb
from operator import ne

from . import vectors as V
from .errors import CapacityExceeded, FamilyUnsupported, InvalidInput

# verify() holds a sigma-long tuple for each distinct window and each
# missing vector, so it caps vectors * sigma, separately from the 64-bit
# enumeration bound: a million vectors over two letters.
MAX_VERIFY_ENTRIES = 2_000_000

VERDICT_EXISTS = "exists"
VERDICT_IMPOSSIBLE = "impossible"
VERDICT_UNKNOWN = "unknown"


@dataclass(frozen=True)
class CoverReport:
    k: int
    sigma: int
    word: str
    is_covering: bool
    is_pdb: bool
    excess: int = None  # defined only for covering words
    missing: tuple = ()
    duplicated: tuple = ()  # (vector, multiplicity) pairs, multiplicity >= 2


@dataclass(frozen=True)
class KnownVerdict:
    verdict: str
    reason: str = ""


@dataclass(frozen=True)
class BoundsReport:
    k: int
    sigma: int
    pdb_length: int
    counting_bound: int
    shortest_lower_bound: int
    pdb_possible_by_bounds: bool
    uc_divisibility: bool
    known_verdict: KnownVerdict


def perfect_length(k, sigma):
    """Length of a zero-excess covering word: C(sigma+k-1, k) + k - 1."""
    return comb(sigma + k - 1, k) + k - 1


def min_letter_occurrences(k, sigma):
    """Each letter occurs at least ceil(C(sigma+k-1, k-1) / k) times in any
    k-covering word."""
    return -(-comb(sigma + k - 1, k - 1) // k)


def verify(word, k, sigma):
    """Count window multiplicities and report covering / perfect-covering
    status, excess, missing vectors, and duplicated vectors."""
    total = _verifiable(k, sigma)
    letters = V.Alphabet(sigma).word_to_indices(word)
    length = len(letters)
    mult = Counter(V.window_vectors(letters, k, sigma))
    covering = len(mult) == total
    missing = (() if covering else
               tuple(p for p in V.enumerate_pv(k, sigma) if p not in mult))
    duplicated = tuple(sorted(((p, m) for p, m in mult.items() if m > 1),
                              key=lambda pm: V.pv_rank(pm[0])))
    excess = length - perfect_length(k, sigma) if covering else None
    if covering:
        # every covering word meets both lower bounds; a failure here means
        # the bound arithmetic is broken
        if length < max(perfect_length(k, sigma),
                        sigma * min_letter_occurrences(k, sigma)):
            raise AssertionError("covering word shorter than the length "
                                 "bound: %r" % word)
        m_min = min_letter_occurrences(k, sigma)
        counts = [0] * sigma
        for i in letters:
            counts[i] += 1
        if min(counts) < m_min:
            raise AssertionError("covering word violates the per-letter "
                                 "minimum of %d: %r" % (m_min, word))
    return CoverReport(k=k, sigma=sigma, word=word, is_covering=covering,
                       is_pdb=covering and not duplicated, excess=excess,
                       missing=missing, duplicated=duplicated)


def _verifiable(k, sigma):
    """The vector count of an instance verify() accepts; refuses an instance
    vectors.check_instance refuses, and raises CapacityExceeded when its
    vectors hold more than MAX_VERIFY_ENTRIES letter counts."""
    total = V.check_instance(k, sigma)
    if total * sigma > MAX_VERIFY_ENTRIES:
        raise CapacityExceeded(
            "verification would hold %d vectors of %d counts each, above "
            "the %d bound" % (total, sigma, MAX_VERIFY_ENTRIES))
    return total


def covset(word, sigma):
    """All k for which the word is k-covering.  Such a word holds the
    window k * e_x, a run of k x's, for every letter x, so k is at most the
    shortest of the letters' longest runs.  Over one letter that is
    enough, and over two as well: consecutive windows differ by at most one
    b, so between a window of k a's and one of k b's the word passes every
    vector.

    Over more letters a k is checked window by window only when two
    cheaper counts allow it.  Window i+1 equals window i exactly when the
    leaving letter equals the entering one, so the word has at most
    1 + #{i : w[i] != w[i+k]} distinct windows.  And its n - k + 1 windows
    shrink as k grows while the vectors to cover grow, so the first k with
    too few windows ends the scan."""
    letters = V.Alphabet(sigma).word_to_indices(word)
    longest = [0] * sigma
    for x, run in groupby(letters):
        longest[x] = max(longest[x], sum(1 for _ in run))
    if sigma <= 2:
        return frozenset(range(1, min(longest) + 1))
    out = set()
    for k in range(1, min(longest) + 1):
        total = comb(k + sigma - 1, sigma - 1)
        if len(letters) - k + 1 < total:
            break
        if (1 + sum(map(ne, letters, letters[k:])) >= total and len(set(
                V.window_vectors(letters, k, sigma))) == total):
            out.add(k)
    return frozenset(out)


# Perfect covering words that certify a verdict no rule below gives, by
# (k, sigma); verify() confirms each.
PERFECT_COVERS = {
    (4, 4): "aabbbbcaacadbddbccacddddaaaabdbbccccdd",
    (5, 4): "aaaaabbbbbcaaaadbbbcccccdddddaaaccdbcbaccaccddbddbadacddbbbb",
    (4, 5): "aaaabbbbcaaadbbbeaaccbbddaaeaebcccadbeeeadddcccceeeedddd"
            "bebecbdcdeceacdad",
}


def _known_verdict(k, sigma):
    # Only verdicts with a supporting construction, certificate or
    # impossibility argument are encoded; everything else stays unknown.
    # The sigma=2 rule comes first: the k=2 parity rule below is stated for
    # sigma >= 3.
    if sigma == 2:
        return KnownVerdict(VERDICT_EXISTS, "block word a^k b^k")
    if k == 1:
        return KnownVerdict(VERDICT_EXISTS, "the alphabet once")
    if sigma == 1 and k >= 4:
        return KnownVerdict(VERDICT_EXISTS, "the word a^k")
    if (k, sigma) in PERFECT_COVERS:
        return KnownVerdict(VERDICT_EXISTS, "perfect covering word %s"
                            % PERFECT_COVERS[k, sigma])
    if k == 2:
        if sigma % 2 == 1:
            return KnownVerdict(VERDICT_EXISTS,
                                "Eulerian walk on the looped complete graph")
        return KnownVerdict(VERDICT_IMPOSSIBLE,
                            "even alphabets force excess sigma/2 - 1 at k=2")
    if k == 3:
        if sigma == 3 or sigma % 3 != 0:
            return KnownVerdict(VERDICT_EXISTS,
                                "three-letter witness / universal-cycle "
                                "constructions when 3 does not divide sigma")
        return KnownVerdict(VERDICT_IMPOSSIBLE,
                            "counting bound exceeds the perfect length when "
                            "3 divides sigma >= 6")
    if sigma == 3 and k >= 4:
        return KnownVerdict(VERDICT_IMPOSSIBLE,
                            "no zero-excess word over three letters once "
                            "k >= 4")
    return KnownVerdict(VERDICT_UNKNOWN, "")


def bounds(k, sigma):
    """Both lower bounds on shortest covering length, the divisibility
    condition for universal cycles, and any known existence verdict."""
    V.check_instance(k, sigma)
    pdb_len = perfect_length(k, sigma)
    counting = sigma * min_letter_occurrences(k, sigma)
    return BoundsReport(
        k=k, sigma=sigma,
        pdb_length=pdb_len,
        counting_bound=counting,
        shortest_lower_bound=max(pdb_len, counting),
        pdb_possible_by_bounds=pdb_len >= counting,
        uc_divisibility=comb(sigma + k - 1, k - 1) % k == 0,
        known_verdict=_known_verdict(k, sigma),
    )


def is_universal_cycle(word, k, sigma):
    """True iff the cyclic length-k windows realize every order-k vector
    exactly once (which forces |word| = C(sigma+k-1, k))."""
    V.check_window(k)
    letters = V.Alphabet(sigma).word_to_indices(word)
    n = len(letters)
    total = V.check_instance(k, sigma)
    if n != total:
        return False
    # the cyclic windows are the linear windows of the word with its first
    # k - 1 letters wrapped on; a word shorter than k - 1 wraps round more
    # than once
    wrapped = list(islice(cycle(letters), n + k - 1))
    return len(set(V.window_vectors(wrapped, k, sigma))) == total


def wrap_cycle(word, k, sigma=None):
    """Linearize a cyclic word by appending its first k-1 letters.  Sigma
    is inferred from the word when not given."""
    V.check_window(k)
    alphabet = V.Alphabet(V.guess_sigma(word) if sigma is None else sigma)
    letters = alphabet.word_to_indices(word)
    return alphabet.indices_to_word(letters + letters[:k - 1])


# -- explicit constructions ----------------------------------------------

FAMILY_BINARY = "binary_pdb"
FAMILY_K2_EULERIAN = "k2_eulerian"
FAMILY_KCOVER_NOT_K1 = "kcover_not_k1"
FAMILIES = (FAMILY_BINARY, FAMILY_K2_EULERIAN, FAMILY_KCOVER_NOT_K1)


def _binary_pdb(k, sigma):
    if sigma != 2:
        raise FamilyUnsupported("binary_pdb needs sigma=2, got %d" % sigma)
    _verifiable(k, sigma)   # refuses k < 1
    return "a" * k + "b" * k


def _eulerian_word(sigma):
    """Walk covering every edge of the complete graph on sigma vertices with
    a loop at each vertex; the vertex sequence is the word.  For even sigma,
    odd-degree vertices are paired lowest-index-first with sigma/2 - 1
    duplicated edges, leaving an Eulerian path from vertex 0 to vertex 1."""
    adj = {v: [] for v in range(sigma)}

    def add_edge(a, b):
        e = [a, b, False]
        adj[a].append(e)
        if a != b:
            adj[b].append(e)

    for v in range(sigma):
        add_edge(v, v)
    for a in range(sigma):
        for b in range(a + 1, sigma):
            add_edge(a, b)
    if sigma % 2 == 0 and sigma > 2:
        for a in range(2, sigma - 1, 2):
            add_edge(a, a + 1)
    for v in adj:
        adj[v].sort(key=lambda e: (e[0] + e[1] - v, e[0] != e[1]))

    # Hierholzer, iterative, smallest-neighbor-first for determinism.
    stack, trail = [0], []
    nexts = {v: 0 for v in range(sigma)}
    while stack:
        v = stack[-1]
        edges = adj[v]
        while nexts[v] < len(edges) and edges[nexts[v]][2]:
            nexts[v] += 1
        if nexts[v] == len(edges):
            trail.append(stack.pop())
        else:
            e = edges[nexts[v]]
            e[2] = True
            stack.append(e[1] if e[0] == v else e[0])
    trail.reverse()
    return trail


def _k2_eulerian(k, sigma):
    if k != 2:
        raise FamilyUnsupported("k2_eulerian needs k=2, got k=%d" % k)
    _verifiable(k, sigma)   # refuses sigma < 1
    alphabet = V.Alphabet(sigma)
    if sigma == 1:
        return "aa"
    return alphabet.indices_to_word(_eulerian_word(sigma))


def _avoidance_gadget(x, k):
    """Infill u(x) spliced between two x^k blocks; its windows add the
    avoided vector's parent with x raised, and nothing else new."""
    a, b, c = 0, 1, 2
    if x == a:
        return [b] + [a] * (k - 2) + [c]
    if x == b:
        return [a] * (k - 3) + [b, b, c]
    if x == c:
        return [a] * (k - 3) + [c, c, b]
    return [b] + [a] * (k - 3) + [x, c]


def _kcover_not_k1(k, sigma):
    if sigma < 3 or k < 4:
        raise FamilyUnsupported("kcover_not_k1 needs sigma >= 3 and k >= 4, "
                                "got k=%d sigma=%d" % (k, sigma))
    _verifiable(k, sigma)
    from . import realize  # deferred: realize is independent of this module

    alphabet = V.Alphabet(sigma)
    avoided = (k - 3, 1, 1) + (0,) * (sigma - 3)
    removed = V.parents(avoided)
    reduced = set(V.enumerate_pv(k, sigma)) - removed
    base = realize.is_realizable_set(reduced)
    if not base.realizable:
        raise AssertionError("grid minus the parents of %r is disconnected"
                             % (avoided,))
    letters = alphabet.word_to_indices(base.witness)
    first = {}  # letter x -> start of the first x^k
    run = 0
    for i, x in enumerate(letters):
        run = run + 1 if i and x == letters[i - 1] else 1
        if run == k:
            first.setdefault(x, i - k + 1)
    for x in sorted(first, key=first.get, reverse=True):
        # replace the first x^k with x^k u(x) x^k, the last one first so
        # that the earlier starts hold; the flanking blocks keep every
        # window that overlaps u(x) inside the gadget
        at = first[x] + k
        letters[at:at] = _avoidance_gadget(x, k) + [x] * k
    return alphabet.indices_to_word(letters), avoided


def construct_family(family, k, sigma):
    """Emit a word from a named construction; every output is re-verified
    against the family's contract before being returned."""
    return _construct(family, k, sigma)[0]


def _construct(family, k, sigma):
    """The word of construct_family and its verify() report."""
    V.check_instance(k, sigma)  # before a family compares or formats them
    family = family.replace("-", "_")
    if family == FAMILY_BINARY:
        word = _binary_pdb(k, sigma)
        report = verify(word, k, 2)
        if not report.is_pdb:
            raise AssertionError("binary block word failed verification")
        return word, report
    if family == FAMILY_K2_EULERIAN:
        word = _k2_eulerian(k, sigma)
        report = verify(word, 2, sigma)
        if report.excess != (0 if sigma % 2 else sigma // 2 - 1):
            raise AssertionError("Eulerian k=2 word failed verification")
        return word, report
    if family == FAMILY_KCOVER_NOT_K1:
        word, avoided = _kcover_not_k1(k, sigma)
        report = verify(word, k, sigma)
        below = V.parikh_set(word, k - 1, sigma).members
        if not report.is_covering or avoided in below:
            raise AssertionError("avoidance construction failed verification")
        return word, report
    raise FamilyUnsupported("unknown construction family %r (choose from %s)"
                            % (family, ", ".join(FAMILIES)))


@dataclass(frozen=True)
class MincovReport:
    """Minimum fraction of order-(k-1) vectors realized by the enumerated
    k-covering words.  ``estimate_only`` is set unless the k <= 3 /
    sigma <= 2 argument pins the true minimum at 1."""

    k: int
    sigma: int
    max_len: int
    value: "Fraction"  # fractions.Fraction, imported where one is made
    estimate_only: bool
    minimizing_word: str
    words_enumerated: int


def mincov_explore(k, sigma, max_len, node_budget=None):
    """Enumerate every k-covering word up to max_len and take the minimum of
    |(k-1)-window set| / C(sigma+k-2, k-1)."""
    if k < 2:
        raise InvalidInput("mincov needs k >= 2 (there are no order-%d "
                           "windows)" % (k - 1,))
    from fractions import Fraction

    from . import search  # deferred: search depends on this module for bounds

    lower = bounds(k, sigma).shortest_lower_bound
    if max_len < lower:
        raise InvalidInput("max_len=%d is below the shortest covering length "
                           "bound %d" % (max_len, lower))
    denom = comb(sigma + k - 2, k - 1)
    best = None
    best_word = None
    count = 0
    for word in search.iter_covering_words(k, sigma, max_len,
                                           node_budget=node_budget):
        count += 1
        ratio = Fraction(len(V.parikh_set(word, k - 1, sigma).members), denom)
        if best is None or ratio < best:
            best, best_word = ratio, word
    if best is None:
        raise AssertionError("no covering word up to length %d; bound says "
                             "one exists at %d" % (max_len, lower))
    exact = sigma <= 2 or k <= 3
    if exact and best != 1:
        raise AssertionError("covering words over sigma<=2 or with k<=3 must "
                             "realize every lower-order vector")
    return MincovReport(k=k, sigma=sigma, max_len=max_len, value=best,
                        estimate_only=not exact, minimizing_word=best_word,
                        words_enumerated=count)
