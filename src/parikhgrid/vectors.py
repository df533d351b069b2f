"""Parikh vectors over an ordered alphabet.

A Parikh vector is a tuple of per-letter occurrence counts; its *order* is
the sum of the counts, i.e. the length of any string realizing it.  This
module provides the vector-level vocabulary used everywhere else: counting
letters, enumerating all vectors of a fixed order, ranking/unranking in a
canonical order, the neighbor/parent/child relations induced by sliding a
window one position, componentwise meet and join, and the set of window
vectors of a string.

Three functions here are the package's only reading of a window shift, in
which one letter leaves the window and one enters: :func:`window_vectors`
slides a window along a word, :func:`step` recovers the two letters from a
pair of vectors, and :func:`rank_map` gives every shift of the grid at
once, by rank, for the grid's arcs and the pure kernel's shift table.

Vectors are plain tuples of non-negative ints and are never mutated.
"""

from array import array
from dataclasses import dataclass, field
from math import comb

from .errors import CapacityExceeded, InvalidInput

_ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Enumerations and grids materialize O(count) state; anything whose vector
# count does not fit in 64 bits is rejected outright.
MAX_VECTOR_COUNT = 2**63 - 1


class Alphabet:
    """An ordered alphabet of ``sigma`` distinct symbols, and the package's
    only reader of letters.

    Up to 26 letters the symbols render as ``a, b, c, ...``; beyond that,
    words are written as comma-separated letter indices.
    """

    def __init__(self, sigma):
        if sigma < 1:
            raise InvalidInput("alphabet size must be >= 1, got %r" % (sigma,))
        self.size = sigma
        self.letters = tuple(_ASCII_LETTERS[:sigma]) if sigma <= 26 else None
        self._index = (None if self.letters is None
                       else {s: i for i, s in enumerate(self.letters)})

    def index(self, symbol):
        """Index of a symbol: a letter, or beyond 26 letters a decimal index
        written as :meth:`indices_to_word` writes it."""
        if self._index is not None:
            try:
                return self._index[symbol]
            except KeyError:
                raise InvalidInput("symbol %r is not in the alphabet (size %d)"
                                   % (symbol, self.size)) from None
        # int() also reads signs, spaces, underscores, leading zeros and
        # non-ASCII digits; only its own rendering is accepted back
        if not (isinstance(symbol, str) and symbol.isascii()
                and symbol.isdecimal() and str(int(symbol)) == symbol):
            raise InvalidInput("expected a letter index in plain decimals, "
                               "got %r" % (symbol,))
        i = int(symbol)
        self.letter(i)  # refuses an index out of range
        return i

    def letter(self, i):
        if not 0 <= i < self.size:
            raise InvalidInput("letter index %d out of range for sigma=%d"
                               % (i, self.size))
        return self.letters[i] if self.letters is not None else str(i)

    def word_to_indices(self, word):
        """Parse a rendered word into a list of letter indices."""
        if self._index is not None:
            try:
                return list(map(self._index.__getitem__, word))
            except KeyError as exc:
                self.index(exc.args[0])  # raises, naming the symbol
        if word == "":
            return []
        return [self.index(part) for part in word.split(",")]

    def indices_to_word(self, indices):
        return ("" if self.letters is not None else ",").join(
            map(self.letter, indices))

    def __repr__(self):
        return "Alphabet(%d)" % self.size


def guess_sigma(word):
    """The size of the smallest a..z alphabet that holds the word's
    letters, for a word given without one."""
    try:
        return max(Alphabet(26).word_to_indices(word), default=0) + 1
    except InvalidInput as exc:
        raise InvalidInput("cannot infer an alphabet: %s; pass one explicitly"
                           % exc) from None


def check_instance(k, sigma):
    """Refuse an order k or an alphabet size sigma below 1, then as
    :func:`ensure_capacity` does; returns the vector count."""
    if k < 1 or sigma < 1:
        raise InvalidInput("need k >= 1 and sigma >= 1, got k=%r sigma=%r"
                           % (k, sigma))
    return ensure_capacity(k, sigma)


def ensure_capacity(k, sigma):
    """Reject (k, sigma) whose vector count C(k+sigma-1, sigma-1) overflows
    the 64-bit bound; returns the count otherwise."""
    if k < 0 or sigma < 1:
        raise InvalidInput("need k >= 0 and sigma >= 1, got k=%r sigma=%r"
                           % (k, sigma))
    count = comb(k + sigma - 1, sigma - 1)
    if count > MAX_VECTOR_COUNT:
        # the count itself can have more digits than str() converts
        raise CapacityExceeded(
            "C(%d, %d) vectors of order %d over %d letters exceed the "
            "2^63-1 capacity bound" % (k + sigma - 1, sigma - 1, k, sigma))
    return count


def validate_vector(p):
    if len(p) < 1:
        raise InvalidInput("a Parikh vector needs at least one coordinate")
    if any(c < 0 for c in p):
        raise InvalidInput("negative count in Parikh vector %r" % (p,))


def check_vectors(ps, k, sigma):
    """Refuse any of ``ps`` that is not an order-k vector over sigma
    letters: sigma >= 1 counts, none negative, summing to k."""
    for p in ps:
        if len(p) != sigma or sum(p) != k or min(p, default=-1) < 0:
            validate_vector(p)  # names an empty vector or a negative count
            raise InvalidInput("%r is not an order-%d vector over %d letters"
                               % (p, k, sigma))


def check_window(k):
    """Refuse a window length below 1."""
    if k < 1:
        raise InvalidInput("window length k must be >= 1, got %r" % (k,))


def order(p):
    """Order of a vector: the sum of its counts."""
    return sum(p)


def support_size(p):
    """Number of non-zero counts (the vector's gamma)."""
    return sum(1 for c in p if c)


def pv_of(word, sigma):
    """Parikh vector of a word: counts[i] = occurrences of letter i."""
    counts = [0] * sigma
    for i in Alphabet(sigma).word_to_indices(word):
        counts[i] += 1
    return tuple(counts)


def format_vector(p):
    """Render as parenthesized comma-separated counts, e.g. ``(2,1,0)``."""
    return "(%s)" % ",".join(str(c) for c in p)


def parse_vector(text):
    """Inverse of :func:`format_vector`."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise InvalidInput("expected a parenthesized vector, got %r" % (text,))
    try:
        p = tuple(int(part) for part in text[1:-1].split(","))
    except ValueError:
        raise InvalidInput("malformed vector %r" % (text,)) from None
    validate_vector(p)
    return p


def _colex(k, sigma):
    """The order-k vectors over sigma letters in colexicographic order, as
    one list that each step changes in place."""
    # Colex successor: the last coordinate varies slowest.  With i the first
    # non-zero coordinate, one unit moves up to i + 1 and the rest of p[i]
    # drops back to coordinate 0.
    p = [k] + [0] * (sigma - 1)
    while True:
        yield p
        i = 0
        while i < sigma - 1 and p[i] == 0:
            i += 1
        if i == sigma - 1:
            return
        t = p[i]
        p[i] = 0
        p[i + 1] += 1
        p[0] = t - 1


def enumerate_pv(k, sigma):
    """All order-k vectors over sigma letters, in colexicographic order.

    The list has C(k+sigma-1, sigma-1) entries; its positions define the
    canonical rank used throughout the package.
    """
    ensure_capacity(k, sigma)
    return [tuple(p) for p in _colex(k, sigma)]


def rank_map(k, sigma):
    """The grid's shifts by rank, as two arrays of C ints.  For the
    order-k vector p of rank i, ``down[i*sigma + c]`` is the rank of
    p - e_c among the order-(k-1) vectors (-1 when p[c] is 0); for the
    order-(k-1) vector q of rank r, ``up[r*sigma + c]`` is the rank of
    q + e_c.  The shift that takes letter ``out`` from p and brings letter
    ``in`` ends at ``up[down[i*sigma + out]*sigma + in]``.

    Adding e_c keeps colex order, so as p runs over the order-k vectors in
    rank order, those with p[c] > 0 arrive in the rank order of p - e_c:
    one running count per letter is that rank, and one pass fills both
    arrays."""
    n = ensure_capacity(k, sigma)
    down = array("i", [-1]) * (n * sigma)
    up = array("i", [0]) * ((comb(k + sigma - 2, sigma - 1) if k else 0)
                            * sigma)
    count = [0] * sigma
    slot = 0
    for i, p in enumerate(_colex(k, sigma)):
        for c, x in enumerate(p):
            if x:
                r = count[c]
                count[c] = r + 1
                down[slot + c] = r
                up[r * sigma + c] = i
        slot += sigma
    return down, up


def pv_count(k, sigma):
    """|PV(k, sigma)| = C(k+sigma-1, sigma-1)."""
    return ensure_capacity(k, sigma)


def pv_rank(p):
    """Position of p in the colexicographic enumeration of its order."""
    validate_vector(p)
    r = 0
    m = sum(p)
    for j in range(len(p) - 1, 0, -1):
        s = p[j]
        if s:
            # vectors whose j-th coordinate is smaller than s, prefix
            # arbitrary; none when s is 0
            r += comb(m + j, j) - comb(m - s + j, j)
            m -= s
    return r


def pv_unrank(i, k, sigma):
    """Vector of order k at rank i; inverse of :func:`pv_rank`."""
    total = ensure_capacity(k, sigma)
    if not 0 <= i < total:
        raise InvalidInput("rank %d out of range [0, %d) for k=%d sigma=%d"
                           % (i, total, k, sigma))
    counts = [0] * sigma
    m = k
    for j in range(sigma - 1, 0, -1):
        if not i:
            break  # rank 0 of the rest: all of it in coordinate 0
        s = 0
        block = comb(m + j - 1, j - 1)  # |PV(m - s, j)| at s = 0
        while i >= block:
            i -= block
            s += 1
            block = comb(m - s + j - 1, j - 1)
        counts[j] = s
        m -= s
    counts[0] = m
    return tuple(counts)


def neighbors(p):
    """Vectors reachable by one window shift: p - e_i + e_j with i != j."""
    if min(p, default=-1) < 0:
        validate_vector(p)  # raises: p is empty or has a negative count
    sigma = len(p)
    out = set()
    for i in range(sigma):
        if p[i] == 0:
            continue
        q = list(p)
        q[i] -= 1
        for j in range(sigma):
            if j != i:
                q[j] += 1
                out.add(tuple(q))
                q[j] -= 1
    return out


def parents(p):
    """The sigma vectors p + e_i of order one higher."""
    if min(p, default=-1) < 0:
        validate_vector(p)
    return {p[:i] + (p[i] + 1,) + p[i + 1:] for i in range(len(p))}


def children(p):
    """The gamma(p) vectors p - e_i of order one lower."""
    if min(p, default=-1) < 0:
        validate_vector(p)
    return {p[:i] + (p[i] - 1,) + p[i + 1:] for i in range(len(p)) if p[i] > 0}


def step(p, q):
    """The letters a window shift exchanges: ``(out, in)`` when
    q = p - e_out + e_in with out != in, else None."""
    if len(p) != len(q):
        return None
    out = into = None
    for i, (a, b) in enumerate(zip(p, q)):
        if a - b == 1 and out is None:
            out = i
        elif b - a == 1 and into is None:
            into = i
        elif a != b:
            return None
    return None if out is None or into is None else (out, into)


def meet(ps):
    """Componentwise minimum of a non-empty list of vectors."""
    ps = list(ps)
    if not ps:
        raise InvalidInput("meet of an empty list is undefined")
    _check_same_sigma(ps)
    return tuple(ps[0]) if len(ps) == 1 else tuple(map(min, *ps))


def join(ps):
    """Componentwise maximum of a non-empty list of vectors."""
    ps = list(ps)
    if not ps:
        raise InvalidInput("join of an empty list is undefined")
    _check_same_sigma(ps)
    return tuple(ps[0]) if len(ps) == 1 else tuple(map(max, *ps))


def _check_same_sigma(ps):
    sigma = len(ps[0])
    if any(len(p) != sigma for p in ps):
        raise InvalidInput("vectors over different alphabet sizes")


def canonical_word(p):
    """The word realizing p with letters in alphabet order, e.g. (1,2,0) -> 'abb'."""
    validate_vector(p)
    return Alphabet(len(p)).indices_to_word(
        [i for i, c in enumerate(p) for _ in range(c)])


@dataclass(frozen=True)
class ParikhSet:
    """The distinct Parikh vectors of a word's length-k windows.

    ``window_exceeds_word`` flags the degenerate k > |word| case, which
    yields an empty member set rather than an error.
    """

    k: int
    members: frozenset = field(default_factory=frozenset)
    window_exceeds_word: bool = False


def window_vectors(letters, k, sigma):
    """The vector of each length-k window of a letter-index list, left to
    right: one letter leaves and one enters per shift.  A list shorter
    than k has no window."""
    if k > len(letters):
        return
    window = [0] * sigma
    for i in letters[:k]:
        window[i] += 1
    yield tuple(window)
    for out, into in zip(letters, letters[k:]):
        window[out] -= 1
        window[into] += 1
        yield tuple(window)


def parikh_set(word, k, sigma):
    """The distinct vectors of the word's length-k windows."""
    alphabet = Alphabet(sigma)
    check_window(k)
    letters = alphabet.word_to_indices(word)
    if k > len(letters):
        return ParikhSet(k=k, members=frozenset(), window_exceeds_word=True)
    return ParikhSet(k=k, members=frozenset(
        window_vectors(letters, k, sigma)))
