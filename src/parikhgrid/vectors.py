"""Parikh vectors over an ordered alphabet.

A Parikh vector is a tuple of per-letter occurrence counts; its *order* is
the sum of the counts, i.e. the length of any string realizing it.  This
module provides the vector-level vocabulary used everywhere else: counting
letters, enumerating all vectors of a fixed order, ranking/unranking in a
canonical order, the neighbor/parent/child relations induced by sliding a
window one position, componentwise meet and join, and the set of window
vectors of a string.

Two functions here are the package's only reading of a window shift, in
which one letter leaves the window and one enters: :func:`window_vectors`
slides a window along a word, and :func:`step` recovers the two letters
from a pair of vectors.

Vectors are plain tuples of non-negative ints and are never mutated.
"""

from dataclasses import dataclass, field
from math import comb

from .errors import CapacityExceeded, InvalidInput

_ASCII_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Enumerations and grids materialize O(count) state; anything whose vector
# count does not fit in 64 bits is rejected outright.
MAX_VECTOR_COUNT = 2**63 - 1


class Alphabet:
    """An ordered alphabet of ``sigma`` distinct symbols.

    Up to 26 letters the symbols render as ``a, b, c, ...``; beyond that,
    words are written as comma-separated letter indices.
    """

    def __init__(self, sigma, letters=None):
        if sigma < 1:
            raise InvalidInput("alphabet size must be >= 1, got %r" % (sigma,))
        if letters is None:
            letters = tuple(_ASCII_LETTERS[:sigma]) if sigma <= 26 else None
        else:
            letters = tuple(letters)
            if len(letters) != sigma:
                raise InvalidInput("expected %d letters, got %d"
                                   % (sigma, len(letters)))
            if len(set(letters)) != sigma:
                raise InvalidInput("alphabet letters must be distinct")
        self.size = sigma
        self.letters = letters
        self._index = (
            {s: i for i, s in enumerate(letters)} if letters is not None else None
        )

    def index(self, symbol):
        """Index of a symbol (letter, or decimal index beyond 26 letters)."""
        if self._index is not None:
            try:
                return self._index[symbol]
            except KeyError:
                raise InvalidInput("symbol %r is not in the alphabet (size %d)"
                                   % (symbol, self.size)) from None
        try:
            i = int(symbol)
        except (TypeError, ValueError):
            raise InvalidInput("expected a letter index, got %r" % (symbol,)) from None
        if not 0 <= i < self.size:
            raise InvalidInput("letter index %d out of range for sigma=%d"
                               % (i, self.size))
        return i

    def letter(self, i):
        if not 0 <= i < self.size:
            raise InvalidInput("letter index %d out of range for sigma=%d"
                               % (i, self.size))
        return self.letters[i] if self.letters is not None else str(i)

    def word_to_indices(self, word):
        """Parse a rendered word into a list of letter indices."""
        if self.letters is not None:
            return [self.index(ch) for ch in word]
        if word == "":
            return []
        return [self.index(part) for part in word.split(",")]

    def indices_to_word(self, indices):
        if self.letters is not None:
            return "".join(self.letter(i) for i in indices)
        return ",".join(str(self.index(i)) for i in indices)

    def __eq__(self, other):
        return (isinstance(other, Alphabet)
                and self.size == other.size and self.letters == other.letters)

    def __hash__(self):
        return hash((self.size, self.letters))

    def __repr__(self):
        return "Alphabet(%d)" % self.size


def as_alphabet(alphabet):
    """Accept an Alphabet or a plain sigma."""
    if isinstance(alphabet, Alphabet):
        return alphabet
    return Alphabet(int(alphabet))


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


def order(p):
    """Order of a vector: the sum of its counts."""
    return sum(p)


def support_size(p):
    """Number of non-zero counts (the vector's gamma)."""
    return sum(1 for c in p if c)


def pv_of(word, alphabet):
    """Parikh vector of a word: counts[i] = occurrences of letter i."""
    alphabet = as_alphabet(alphabet)
    counts = [0] * alphabet.size
    for i in alphabet.word_to_indices(word):
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


def enumerate_pv(k, sigma):
    """All order-k vectors over sigma letters, in colexicographic order.

    The list has C(k+sigma-1, sigma-1) entries; its positions define the
    canonical rank used throughout the package.
    """
    ensure_capacity(k, sigma)
    # Colex successor: the last coordinate varies slowest.  With i the first
    # non-zero coordinate, one unit moves up to i + 1 and the rest of p[i]
    # drops back to coordinate 0.
    p = [k] + [0] * (sigma - 1)
    out = []
    while True:
        out.append(tuple(p))
        i = 0
        while i < sigma - 1 and p[i] == 0:
            i += 1
        if i == sigma - 1:
            return out
        t = p[i]
        p[i] = 0
        p[i + 1] += 1
        p[0] = t - 1


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
        # vectors whose j-th coordinate is smaller than s, prefix arbitrary
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
    return {p[:i] + (p[i] + 1,) + p[i + 1:] for i in range(len(p))}


def children(p):
    """The gamma(p) vectors p - e_i of order one lower."""
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
    return tuple(min(col) for col in zip(*ps))


def join(ps):
    """Componentwise maximum of a non-empty list of vectors."""
    ps = list(ps)
    if not ps:
        raise InvalidInput("join of an empty list is undefined")
    _check_same_sigma(ps)
    return tuple(max(col) for col in zip(*ps))


def _check_same_sigma(ps):
    sigma = len(ps[0])
    if any(len(p) != sigma for p in ps):
        raise InvalidInput("vectors over different alphabet sizes")


def canonical_word(p, alphabet=None):
    """The word realizing p with letters in alphabet order, e.g. (1,2,0) -> 'abb'."""
    alphabet = as_alphabet(alphabet if alphabet is not None else len(p))
    if len(p) != alphabet.size:
        raise InvalidInput("vector length %d does not match sigma=%d"
                           % (len(p), alphabet.size))
    return alphabet.indices_to_word(
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


def parikh_set(word, k, alphabet):
    """The distinct vectors of the word's length-k windows."""
    alphabet = as_alphabet(alphabet)
    if k < 1:
        raise InvalidInput("window length k must be >= 1, got %r" % (k,))
    letters = alphabet.word_to_indices(word)
    if k > len(letters):
        return ParikhSet(k=k, members=frozenset(), window_exceeds_word=True)
    return ParikhSet(k=k, members=frozenset(
        window_vectors(letters, k, alphabet.size)))
