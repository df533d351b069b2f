"""Walks in the directed grid and their connection to strings.

A string w of length n induces the walk whose i-th vertex is the Parikh
vector of the i-th length-k window; the step from window i to window i+1 is
labeled with the letter leaving the window and the letter entering it.  The
converse fails: a vertex sequence spells a string only if a consistent
letter assignment exists.  Letter choices arise only at bows (steps between
equal vertices), and every position of the string is shared between the
step that emits it and the step k places earlier that absorbs it, so
realizability reduces to left-to-right propagation with backtracking over
bow letters.  One further constraint is easy to miss: the first k letters,
taken together, must realize the first vertex exactly.  The canonical
non-spellable example (3,0,0),(2,1,0),(3,0,0) fails only this constraint.
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
        sigma = len(self.vertices[0])
        alphabet = self.alphabet or V.Alphabet(sigma)
        object.__setattr__(self, "alphabet", alphabet)
        _check_vertices(self.vertices, self.k, alphabet)
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
    alphabet = V.as_alphabet(alphabet if alphabet is not None else _guess_sigma(word))
    letters = alphabet.word_to_indices(word)
    n = len(letters)
    if k < 1:
        raise InvalidInput("window length k must be >= 1, got %r" % (k,))
    if n < k:
        raise InvalidInput("word of length %d has no length-%d window" % (n, k))
    verts = tuple(V.window_vectors(letters, k, alphabet.size))
    labels = tuple(EdgeLabel(alphabet.letter(out_i), alphabet.letter(in_i))
                   for out_i, in_i in zip(letters, letters[k:]))
    return Walk(k=k, vertices=verts, labels=labels, alphabet=alphabet)


def _guess_sigma(word):
    # Default alphabet: large enough for the word's letters, a..z rendering.
    sigma = 1
    for ch in word:
        pos = _ascii_pos(ch)
        sigma = max(sigma, pos + 1)
    return sigma


def _ascii_pos(ch):
    i = ord(ch) - ord("a")
    if not 0 <= i < 26:
        raise InvalidInput("cannot infer an alphabet containing %r; pass one "
                           "explicitly" % (ch,))
    return i


def _check_vertices(vertices, k, alphabet):
    """Reject an alphabet of another size than the first vertex's length and
    a vertex that is not an order-k vector of that length."""
    sigma = len(vertices[0])
    if alphabet.size != sigma:
        raise InvalidInput("alphabet size %d does not match vectors of "
                           "length %d" % (alphabet.size, sigma))
    for p in vertices:
        if len(p) != sigma or sum(p) != k or min(p) < 0:
            raise InvalidInput("walk vertex %r is not an order-%d vector"
                               % (p, k))


def _classify_steps(vertices):
    """Per step: _BOW, an (out, in) coordinate pair, or None if not an edge."""
    return [_BOW if p == q else V.step(p, q)
            for p, q in zip(vertices, vertices[1:])]


def _solve_spelling(vertices, k, alphabet, forced_bow_letters=None):
    """Find the lexicographically smallest word spelled by the vertex
    sequence, or the earliest violated window index.

    Position j of the word is emitted by step j (as the leaving letter, for
    j <= m-2) and absorbed by step j-k (as the entering letter, for j >= k);
    positions inside the first window draw on the first vertex's letter
    budget.  Returns (word_indices, None) or (None, refutation_index).
    """
    m = len(vertices)
    steps = _classify_steps(vertices)
    bad = next((i for i, s in enumerate(steps) if s is None), None)
    if bad is not None:
        return None, bad
    n = m + k - 1
    sigma = len(vertices[0])
    budget = list(vertices[0])
    word = [None] * n

    def options(j):
        # Intersection of every constraint touching position j: the step
        # absorbing it (j-k), the step emitting it (j), any prescribed bow
        # letter, and the first-window letter budget.
        allowed = list(range(sigma))
        if j >= k:
            s = steps[j - k]
            fixed = word[j - k] if s == _BOW else s[1]
            allowed = [c for c in allowed if c == fixed]
        if j <= m - 2:
            s = steps[j]
            if s == _BOW:
                allowed = [c for c in allowed if vertices[j][c] > 0]
                if (forced_bow_letters is not None
                        and forced_bow_letters[j] is not None):
                    allowed = [c for c in allowed
                               if c == forced_bow_letters[j]]
            else:
                allowed = [c for c in allowed if c == s[0]]
        if j < k:
            allowed = [c for c in allowed if budget[c] > 0]
        return allowed

    # depth-first over positions; tries[j] holds the letters position j
    # has still to try, and a position re-entered from j + 1 first takes
    # back the letter it had placed
    tries = []
    deepest = 0
    j = 0
    while j < n:
        if len(tries) == j:
            deepest = max(deepest, j)
            tries.append(iter(options(j)))
        else:
            if j < k:
                budget[word[j]] += 1
            word[j] = None
        c = next(tries[j], None)
        if c is None:
            if j == 0:
                return None, max(0, deepest - k + 1)
            tries.pop()
            j -= 1
            continue
        word[j] = c
        if j < k:
            budget[c] -= 1
        j += 1
    return word, None


def _walk_parts(walk_or_vertices, k=None, alphabet=None):
    if isinstance(walk_or_vertices, Walk):
        w = walk_or_vertices
        return tuple(w.vertices), w.k, w.alphabet, w.labels
    vertices = tuple(tuple(p) for p in walk_or_vertices)
    if not vertices:
        raise InvalidInput("a walk needs at least one vertex")
    if k is None:
        k = sum(vertices[0])
    alphabet = V.as_alphabet(alphabet if alphabet is not None else len(vertices[0]))
    _check_vertices(vertices, k, alphabet)
    return vertices, k, alphabet, None


def is_realizable_walk(walk_or_vertices, k=None, alphabet=None):
    """Decide whether a vertex sequence spells some string.

    On success the result carries one consistent labeling (and the witness
    word it came from); on failure, the index of the earliest violated
    constraint.
    """
    vertices, k, alphabet, _ = _walk_parts(walk_or_vertices, k, alphabet)
    word, refuted = _solve_spelling(vertices, k, alphabet)
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
    vertices, k, alphabet, labels = _walk_parts(walk_or_vertices, k, alphabet)
    forced = None
    if labels is not None:
        steps = _classify_steps(vertices)
        forced = [alphabet.index(lab.out_letter) if s == _BOW else None
                  for s, lab in zip(steps, labels)]
    word, refuted = _solve_spelling(vertices, k, alphabet, forced)
    if word is None:
        raise WalkUnrealizable(
            "walk spells no string (violated at constraint %d)" % refuted,
            refutation_index=refuted)
    return alphabet.indices_to_word(word)


def string_from_itinerary(itinerary, k, alphabet=None):
    """Construct a word whose walk's itinerary is exactly the given bowfree
    vertex sequence.

    Starts from the canonical word of the first vertex and extends once per
    itinerary step: copy the window letters preceding the earliest window
    occurrence of the leaving letter (each copy is a bow), then append the
    entering letter.  The earliest occurrence minimizes the appended length.
    """
    if isinstance(itinerary, Itinerary):
        vertices = itinerary.vertices
    else:
        vertices = tuple(tuple(p) for p in itinerary)
        Itinerary(vertices=vertices)  # validates bowfreeness / non-emptiness
    if sum(vertices[0]) != k:
        raise InvalidInput("itinerary vertices must have order k=%d" % k)
    alphabet = V.as_alphabet(alphabet if alphabet is not None else len(vertices[0]))
    word = alphabet.word_to_indices(V.canonical_word(vertices[0], alphabet))
    for prev, nxt in zip(vertices, vertices[1:]):
        shift = V.step(prev, nxt)
        if shift is None:
            raise InvalidInput("itinerary vertices %r and %r are not neighbors"
                               % (prev, nxt))
        out_i, in_i = shift
        window = word[-k:]
        g = window.index(out_i)
        word.extend(window[:g])
        word.append(in_i)
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
