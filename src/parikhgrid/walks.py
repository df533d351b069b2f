"""Walks in the directed grid and their connection to strings.

A string w of length n induces the walk whose i-th vertex is the Parikh
vector of the i-th length-k window; the step from window i to window i+1 is
labeled with the letter leaving the window and the letter entering it.  The
converse fails: a vertex sequence spells a string only if a consistent
letter assignment exists.  Every position j of the string is shared between
the step j that emits it and the step j-k that absorbs it, so the positions
r, r+k, r+2k, ... form a chain: an edge fixes the letters on both of its
ends, and a bow carries its letter k places on.  A chain's head, its letter
in the first window, stays free until some position carrying it is wanted
as a leaving letter, so one left-to-right pass spells the walk, in time
linear in its length.  One further constraint is easy to miss: the first k
letters, taken together, must realize the first vertex exactly.  The
canonical non-spellable example (3,0,0),(2,1,0),(3,0,0) fails only this
constraint.
"""

from dataclasses import dataclass

from . import vectors as V
from .errors import InvalidInput, WalkUnrealizable
from .grid import EdgeLabel

_BOW = -1


@dataclass(frozen=True)
class Walk:
    """A vertex sequence with optional step labels.

    Consecutive vertices must be equal (a bow) or neighbors; labels, when
    present, must be valid edge labels for their steps.
    """

    k: int
    vertices: tuple
    labels: tuple = None
    alphabet: V.Alphabet = None

    def __post_init__(self):
        if not self.vertices:
            raise InvalidInput("a walk needs at least one vertex")
        alphabet = _vertex_alphabet(self.vertices, self.k, self.alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        steps = _classify_steps(self.vertices)
        bad = next((i for i, s in enumerate(steps) if s is None), None)
        if bad is not None:
            raise InvalidInput(
                "vertices %d and %d are neither equal nor neighbors" % (bad, bad + 1))
        if self.labels is not None:
            if len(self.labels) != len(self.vertices) - 1:
                raise InvalidInput("expected %d labels, got %d"
                                   % (len(self.vertices) - 1, len(self.labels)))
            for i, (label, step) in enumerate(zip(self.labels, steps)):
                out_i = alphabet.index(label.out_letter)
                in_i = alphabet.index(label.in_letter)
                if step == _BOW:
                    ok = out_i == in_i and self.vertices[i][out_i] > 0
                else:
                    ok = (out_i, in_i) == step
                if not ok:
                    raise InvalidInput("label %r invalid for step %d" % (label, i))

    def sigma(self):
        return len(self.vertices[0])

    def is_bowfree(self):
        return all(a != b for a, b in zip(self.vertices, self.vertices[1:]))

    def itinerary(self):
        """Compress consecutive duplicate vertices; the result is bowfree."""
        verts = [self.vertices[0]]
        for p in self.vertices[1:]:
            if p != verts[-1]:
                verts.append(p)
        return Itinerary(vertices=tuple(verts))

    def enclosing_vectors(self):
        """Per step, the order-(k+1) vector of the (k+1)-letter span it
        covers: vertex i plus the entering letter."""
        self._need_labels()
        out = []
        for p, label in zip(self.vertices, self.labels):
            i = self.alphabet.index(label.in_letter)
            out.append(p[:i] + (p[i] + 1,) + p[i + 1:])
        return out

    def inner_vectors(self):
        """Per step, the order-(k-1) vector of the (k-1)-letter overlap of
        its two windows: vertex i minus the leaving letter."""
        self._need_labels()
        out = []
        for p, label in zip(self.vertices, self.labels):
            i = self.alphabet.index(label.out_letter)
            out.append(p[:i] + (p[i] - 1,) + p[i + 1:])
        return out

    def _need_labels(self):
        if self.labels is None:
            raise InvalidInput("this walk carries no labels")


@dataclass(frozen=True)
class Itinerary:
    """A bowfree vertex sequence (no two consecutive vertices equal)."""

    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise InvalidInput("an itinerary needs at least one vertex")
        if any(a == b for a, b in zip(self.vertices, self.vertices[1:])):
            raise InvalidInput("itinerary repeats a vertex consecutively")


@dataclass(frozen=True)
class WalkRealizability:
    realizable: bool
    labels: tuple = None
    word: str = None
    refutation_index: int = None


def walk_of(word, k, alphabet=None):
    """The walk a word induces: window vectors plus (leaving, entering)
    letter labels."""
    V.check_window(k)
    alphabet = V.as_alphabet(alphabet if alphabet is not None else _guess_sigma(word))
    letters = alphabet.word_to_indices(word)
    n = len(letters)
    if n < k:
        raise InvalidInput("word of length %d has no length-%d window" % (n, k))
    verts = tuple(V.window_vectors(letters, k, alphabet.size))
    labels = tuple(EdgeLabel(alphabet.letter(out_i), alphabet.letter(in_i))
                   for out_i, in_i in zip(letters, letters[k:]))
    return Walk(k=k, vertices=verts, labels=labels, alphabet=alphabet)


def _guess_sigma(word):
    # Default alphabet: large enough for the word's letters, a..z rendering.
    try:
        return max(V.Alphabet(26).word_to_indices(word), default=0) + 1
    except InvalidInput as exc:
        raise InvalidInput("cannot infer an alphabet: %s; pass one explicitly"
                           % exc) from None


def _vertex_alphabet(vertices, k, alphabet):
    """The alphabet of a walk's vertices, sigma = the first vertex's length
    unless given.  Rejects a window length below 1, a vertex that is not an
    order-k vector over sigma letters and an alphabet of another size."""
    V.check_window(k)
    sigma = len(vertices[0])
    V.check_vectors(vertices, k, sigma)
    alphabet = V.as_alphabet(alphabet if alphabet is not None else sigma)
    if alphabet.size != sigma:
        raise InvalidInput("alphabet size %d does not match vectors of "
                           "length %d" % (alphabet.size, sigma))
    return alphabet


def _classify_steps(vertices):
    """Per step: _BOW, an (out, in) coordinate pair, or None if not an edge."""
    return [_BOW if p == q else V.step(p, q)
            for p, q in zip(vertices, vertices[1:])]


def _solve_spelling(vertices, k, bow_letters):
    """Find the lexicographically smallest word spelled by the vertex
    sequence, or the first window holding a conflicting position.

    Position j carries a letter in along its chain (from step j-k) and is
    wanted as a letter by step j: an edge's leaving letter, or a prescribed
    bow letter.  A wanted letter fixes a free head, drawing on the first
    vertex's letter budget; the heads left free take what remains of it,
    smallest letters first.  Returns (word_indices, None) or
    (None, refutation_index).
    """
    m = len(vertices)
    steps = _classify_steps(vertices)
    bad = next((i for i, s in enumerate(steps) if s is None), None)
    if bad is not None:
        return None, bad
    budget = list(vertices[0])
    heads = [None] * k
    word = []  # None at a position that carries its chain's free head
    for j in range(m + k - 1):
        carried = None
        if j >= k:
            s = steps[j - k]
            carried = word[j - k] if s == _BOW else s[1]
        wanted = None
        if j <= m - 2:
            s = steps[j]
            wanted = bow_letters[j] if s == _BOW else s[0]
        if wanted is not None:
            if carried is None:
                heads[j % k] = carried = wanted
                budget[wanted] -= 1
            if carried != wanted or budget[wanted] < 0:
                return None, max(0, j - k + 1)
        word.append(carried)
    spare = (c for c, count in enumerate(budget) for _ in range(count))
    heads = [next(spare) if c is None else c for c in heads]
    return [heads[j % k] if c is None else c for j, c in enumerate(word)], None


def _walk_parts(walk_or_vertices, k=None, alphabet=None):
    """Vertices, k, alphabet and, per step, the bow letter the walk's
    labels prescribe (None at an edge, and everywhere without labels)."""
    if isinstance(walk_or_vertices, Walk):
        w = walk_or_vertices
        vertices = tuple(w.vertices)
        labels = w.labels or [None] * (len(vertices) - 1)
        return vertices, w.k, w.alphabet, [
            w.alphabet.index(lab.out_letter) if lab and p == q else None
            for p, q, lab in zip(vertices, vertices[1:], labels)]
    vertices = tuple(tuple(p) for p in walk_or_vertices)
    if not vertices:
        raise InvalidInput("a walk needs at least one vertex")
    if k is None:
        k = sum(vertices[0])
    alphabet = _vertex_alphabet(vertices, k, alphabet)
    return vertices, k, alphabet, [None] * (len(vertices) - 1)


def is_realizable_walk(walk_or_vertices, k=None, alphabet=None):
    """Decide whether a vertex sequence spells some string, honoring the
    bow letters of a labeled walk.

    On success the result carries one consistent labeling (and the witness
    word it came from); on failure, the index of the earliest violated
    constraint.
    """
    vertices, k, alphabet, bow_letters = _walk_parts(walk_or_vertices, k,
                                                     alphabet)
    word, refuted = _solve_spelling(vertices, k, bow_letters)
    if word is None:
        return WalkRealizability(realizable=False, refutation_index=refuted)
    labels = tuple(
        EdgeLabel(alphabet.letter(word[i]), alphabet.letter(word[i + k]))
        for i in range(len(vertices) - 1))
    return WalkRealizability(realizable=True, labels=labels,
                             word=alphabet.indices_to_word(word))


def spell(walk_or_vertices, k=None, alphabet=None):
    """A word whose walk has this vertex sequence; honors labels when the
    input walk carries them, otherwise returns the lexicographically
    smallest consistent word.  Raises WalkUnrealizable otherwise."""
    vertices, k, alphabet, bow_letters = _walk_parts(walk_or_vertices, k,
                                                     alphabet)
    word, refuted = _solve_spelling(vertices, k, bow_letters)
    if word is None:
        raise WalkUnrealizable(
            "walk spells no string (violated at constraint %d)" % refuted,
            refutation_index=refuted)
    return alphabet.indices_to_word(word)


def extend_by_shift(word, k, out_i, in_i):
    """Extend a letter-index list whose last window holds ``out_i`` so that
    its walk takes one more step, ``out_i`` leaving and ``in_i`` entering:
    copy the window letters preceding the earliest window occurrence of the
    leaving letter (each copy is a bow), then append the entering letter.
    The earliest occurrence minimizes the appended length."""
    start = len(word) - k
    word.extend(word[start:word.index(out_i, start)])
    word.append(in_i)


def string_from_itinerary(itinerary, k, alphabet=None):
    """Construct a word whose walk's itinerary is exactly the given bowfree
    vertex sequence.

    Starts from the canonical word of the first vertex and extends it once
    per itinerary step with :func:`extend_by_shift`.
    """
    if isinstance(itinerary, Itinerary):
        vertices = itinerary.vertices
    else:
        vertices = tuple(tuple(p) for p in itinerary)
        Itinerary(vertices=vertices)  # validates bowfreeness / non-emptiness
    alphabet = _vertex_alphabet(vertices, k, alphabet)
    word = alphabet.word_to_indices(V.canonical_word(vertices[0], alphabet))
    for prev, nxt in zip(vertices, vertices[1:]):
        shift = V.step(prev, nxt)
        if shift is None:
            raise InvalidInput("itinerary vertices %r and %r are not neighbors"
                               % (prev, nxt))
        extend_by_shift(word, k, *shift)
    return alphabet.indices_to_word(word)


@dataclass(frozen=True)
class BowfreeReport:
    """Consequences that hold for words whose walk uses no bows: no letter
    recurs k positions later, and a window equal to k copies of one letter
    forces the window k steps later onto the opposite face."""

    word: str
    k: int
    bowfree: bool
    applicable: bool
    letter_rule_holds: bool = None
    face_rule_holds: bool = None
    counterexample: int = None


def check_bowfree_consequences(word, k, alphabet=None):
    alphabet = V.as_alphabet(alphabet if alphabet is not None else _guess_sigma(word))
    walk = walk_of(word, k, alphabet)
    if not walk.is_bowfree():
        return BowfreeReport(word=word, k=k, bowfree=False, applicable=False)
    letters = alphabet.word_to_indices(word)
    n = len(letters)
    letter_ok, face_ok, witness = True, True, None
    for i in range(n - k):
        if letters[i] == letters[i + k]:
            letter_ok, witness = False, i
            break
    m = len(walk.vertices)
    for i in range(m):
        p = walk.vertices[i]
        j = next((x for x in range(len(p)) if p[x] == k), None)
        if j is None or i + k >= m:
            continue
        if walk.vertices[i + k][j] != 0:
            face_ok = False
            witness = i if witness is None else witness
            break
    return BowfreeReport(word=word, k=k, bowfree=True, applicable=True,
                         letter_rule_holds=letter_ok, face_rule_holds=face_ok,
                         counterexample=witness)
