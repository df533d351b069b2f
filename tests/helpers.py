"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's optimized code paths:
window sets are recomputed from scratch, realizability is settled by
exhaustive state-space enumeration, and covering existence by plain word
enumeration.
"""

import itertools
import string
from collections import deque
from math import comb

from parikhgrid import search as S
from parikhgrid import vectors as V

# Known shortest k-covering words for small alphabets, used as regression
# fixtures: (sigma, k, word, length, is_pdb, excess).
REFERENCE_COVER_ROWS = [
    (3, 2, "aabbcca", 7, True, 0),
    (3, 3, "abbbcccaaabc", 12, True, 0),
    (3, 4, "aaaabbbbccccaacabcb", 19, False, 1),
    (3, 5, "aaaaabbbacccccbbbbbaacaaccb", 27, False, 2),
    (3, 6, "aaaabccccccaaaaaabbbbbbcccbbcabbaca", 35, False, 2),
    (3, 7, "aabbbccbbcccabacaaabcbbbbbbbaaaaaaacccccccba", 44, False, 2),
    (3, 8, "aaaaaaaabbbbbbbbccccccccaaaaacaabbbcbabbcccacbccaaabaa", 54, False,
     2),
    (3, 9, "aaaabbbbbbbbbcccccccccaaaaaaaaabbbbacbbbccaccbcccaabaacaaabbcbcbb",
     65, False, 2),
    (4, 2, "aabbcadbccdd", 12, False, 1),
    (4, 3, "aaabbbcaadbdbccadddccc", 22, True, 0),
    (4, 4, "aabbbbcaacadbddbccacddddaaaabdbbccccdd", 38, True, 0),
    (4, 5, "aaaaabbbbbcaaaadbbbcccccdddddaaaccdbcbaccaccddbddbadacddbbbb",
     60, True, 0),
    (5, 2, "aabbcadbeccddeea", 16, True, 0),
    (5, 3, "aaabbbcaadbbeaccbdddcccebededadceeeaa", 37, True, 0),
    (5, 4, "aaaabbbbcaaadbbbeaaccbbddaaeaebcccadbeeeadddcccceeeedddd"
     "bebecbdcdeceacdad", 73, True, 0),
]

# The 60-letter word that covers every order-5 vector over four letters
# exactly once yet misses (1,1,1,1) at order 4.
W54 = "aaaaabbbbbcaaaadbbbcccccdddddaaaccdbcbaccaccddbddbadacddbbbb"

LETTERS = string.ascii_lowercase


def letter_indices(word, sigma):
    """Letter indices of a word: letters up to 26, comma-separated indices
    beyond."""
    if sigma <= len(LETTERS):
        return [LETTERS.index(ch) for ch in word]
    return [int(part) for part in word.split(",")] if word else []


def render_indices(letters, sigma):
    """Inverse of letter_indices."""
    if sigma <= len(LETTERS):
        return "".join(LETTERS[c] for c in letters)
    return ",".join(str(c) for c in letters)


def canonical_indices(letters):
    """The least image of a letter-index word under relabeling and
    reversal: the word and its reversal, each with its letters renamed
    0, 1, 2, ... in the order they first occur, the smaller as a list."""
    images = []
    for seq in (list(letters), list(reversed(letters))):
        order = []
        for c in seq:
            if c not in order:
                order.append(c)
        images.append([order.index(c) for c in seq])
    return min(images)


def naive_parikh_set(word, k, sigma):
    """Window set recomputed from scratch for every window."""
    letters = letter_indices(word, sigma)
    out = set()
    for i in range(len(letters) - k + 1):
        counts = [0] * sigma
        for c in letters[i:i + k]:
            counts[c] += 1
        out.add(tuple(counts))
    return out


def naive_window_multiplicities(word, k, sigma):
    letters = letter_indices(word, sigma)
    mult = {}
    for i in range(len(letters) - k + 1):
        counts = [0] * sigma
        for c in letters[i:i + k]:
            counts[c] += 1
        key = tuple(counts)
        mult[key] = mult.get(key, 0) + 1
    return mult


def all_words(sigma, length):
    return ("".join(w) for w in itertools.product(LETTERS[:sigma],
                                                  repeat=length))


def first_covering_word_naive(k, sigma, length):
    """The letter indices of the first k-covering word of ``length`` >= k
    letters in lex order, or None: plain enumeration of all sigma**length
    words, each word's windows but the last taken once for the sigma words
    that extend them."""
    total = comb(k + sigma - 1, sigma - 1)
    vector = {w: tuple(sorted(w))
              for w in itertools.product(range(sigma), repeat=k)}
    for head in itertools.product(range(sigma), repeat=length - 1):
        seen = {vector[head[i:i + k]] for i in range(length - k)}
        for c in range(sigma):
            if len(seen | {vector[head[length - k:] + (c,)]}) == total:
                return head + (c,)
    return None


def covering_word_exists_naive(k, sigma, length):
    """Plain enumeration over all sigma**length words."""
    return first_covering_word_naive(k, sigma, length) is not None


def pdb_search(k, sigma, progress=None, **fields):
    """The outcome of search.run_search for a perfect cover of (k, sigma),
    with the other SearchConfig fields as given."""
    cfg = S.SearchConfig(k=k, sigma=sigma, target=S.TARGET_PDB, **fields)
    return S.run_search(cfg, progress=progress)


def achievable_window_sets(k, sigma):
    """Every set that occurs as the k-window vector set of some word.

    Exhaustive enumeration of all words of every length, with words merged
    when they share (last k letters, set of window vectors seen): two such
    words have identical futures, so the state graph is finite and a
    breadth-first sweep to fixpoint covers all words.  Returns a dict
    mapping each achievable frozenset to the shortest word achieving it.
    """
    start_states = {}
    for word in all_words(sigma, k):
        pv = next(iter(naive_parikh_set(word, k, sigma)))
        state = (word, frozenset([pv]))
        start_states.setdefault(state, word)
    seen = dict(start_states)
    achieved = {}
    queue = deque(seen.items())
    while queue:
        (window, pvs), word = queue.popleft()
        if pvs not in achieved or len(word) < len(achieved[pvs]):
            achieved[pvs] = word
        for ch in LETTERS[:sigma]:
            nwindow = window[1:] + ch
            counts = [0] * sigma
            for c in nwindow:
                counts[LETTERS.index(c)] += 1
            npvs = pvs | {tuple(counts)}
            state = (nwindow, npvs)
            if state not in seen:
                seen[state] = word + ch
                queue.append((state, word + ch))
    return achieved


def walk_vertices_of(word, k, sigma):
    letters = letter_indices(word, sigma)
    out = []
    for i in range(len(letters) - k + 1):
        counts = [0] * sigma
        for c in letters[i:i + k]:
            counts[c] += 1
        out.append(tuple(counts))
    return tuple(out)


def walk_realizable_naive(vertices, k, sigma, bow_letters=None):
    """The first word, in lexicographic order, of the implied length that
    induces this vertex sequence and holds letter bow_letters[i] at each
    position i where that is not None; None if there is none."""
    n = len(vertices) + k - 1
    prescribed = [(i, LETTERS[c]) for i, c in enumerate(bow_letters or ())
                  if c is not None]
    for word in all_words(sigma, n):
        if all(word[i] == ch for i, ch in prescribed) and all(
                tuple(word[i:i + k].count(ch) for ch in LETTERS[:sigma]) == p
                for i, p in enumerate(vertices)):
            return word
    return None


def walk_refutation_naive(vertices, k, sigma, bow_letters=None):
    """The window at which spelling the vertex sequence fails, or None if
    some word spells it.

    A step between vertices that are neither equal nor neighbors fails at
    its own index.  Otherwise L is the longest prefix that some word fills
    while meeting every constraint touching that prefix alone: the leaving
    and entering letter of each edge, the equal letters of each bow and its
    prescribed letter, and the letter counts of the first vertex.  The
    walk fails at the first window holding position L, max(0, L - k + 1).
    """
    n = len(vertices) + k - 1
    checks = [[] for _ in range(n)]  # by the last position they read
    for i, (p, q) in enumerate(zip(vertices, vertices[1:])):
        diff = [b - a for a, b in zip(p, q)]
        if p == q:
            checks[i + k].append(lambda w, i=i: w[i] == w[i + k])
            if bow_letters and bow_letters[i] is not None:
                checks[i].append(lambda w, i=i, c=bow_letters[i]: w[i] == c)
        elif sorted(diff) == [-1] + [0] * (sigma - 2) + [1]:
            out, into = diff.index(-1), diff.index(1)
            checks[i].append(lambda w, i=i, c=out: w[i] == c)
            checks[i + k].append(lambda w, j=i + k, c=into: w[j] == c)
        else:
            return i
    for j in range(k):
        checks[j].append(
            lambda w, j=j: w[:j + 1].count(w[j]) <= vertices[0][w[j]])
    longest = 0
    for word in itertools.product(range(sigma), repeat=n):
        filled = 0
        while filled < n and all(check(word) for check in checks[filled]):
            filled += 1
        longest = max(longest, filled)
    return None if longest == n else max(0, longest - k + 1)


def colex_vectors(k, sigma):
    """Order-k vectors over sigma letters, the last coordinate varying
    slowest: the rank order of the package's tables."""
    vectors = []
    for letters in itertools.combinations_with_replacement(range(sigma), k):
        counts = [0] * sigma
        for i in letters:
            counts[i] += 1
        vectors.append(tuple(counts))
    return sorted(vectors, key=lambda p: p[::-1])


def grid_step(p, out, into):
    """The window after letter ``out`` leaves p and ``into`` enters it, or
    None when p holds no ``out``."""
    if p[out] == 0:
        return None
    q = list(p)
    q[out] -= 1
    q[into] += 1
    return tuple(q)


def induced_components(members):
    """Components of the subgraph that a set of equal-order vectors induces
    in the grid, by breadth-first search over every letter shift: each
    component in colex (rank) order, the components ordered by their first
    member.  The set is connected exactly when there is one component."""
    ordered = sorted(members, key=lambda p: p[::-1])
    unseen = set(ordered)
    comps = []
    for start in ordered:
        if start not in unseen:
            continue
        unseen.discard(start)
        comp, queue = [start], deque([start])
        while queue:
            p = queue.popleft()
            for out in range(len(p)):
                for into in range(len(p)):
                    q = grid_step(p, out, into)
                    if q in unseen:
                        unseen.discard(q)
                        comp.append(q)
                        queue.append(q)
        comps.append(sorted(comp, key=lambda p: p[::-1]))
    return comps


def cliques_of_size(vertices, size):
    """All size-cliques of the neighbor graph on the given vertex list."""
    order = {p: i for i, p in enumerate(vertices)}
    adj = {p: {q for q in V.neighbors(p) if q in order} for p in vertices}
    out = []

    def extend(clique, candidates):
        if len(clique) == size:
            out.append(frozenset(clique))
            return
        for q in sorted(candidates, key=order.get):
            extend(clique + [q],
                   {r for r in candidates & adj[q] if order[r] > order[q]})

    for p in vertices:
        extend([p], {q for q in adj[p] if order[q] > order[p]})
    return out


# -- minimal DOT syntax checker ---------------------------------------------


def check_dot(text):
    """Validate the undirected-graph DOT subset we emit; raises on errors."""
    tokens = _dot_tokens(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expect=None):
        tok = peek()
        if tok is None:
            raise AssertionError("unexpected end of DOT input")
        if expect is not None and tok != expect:
            raise AssertionError("expected %r, got %r" % (expect, tok))
        pos[0] += 1
        return tok

    def is_id(tok):
        return tok is not None and (tok[0] == '"' or tok[0].isalnum()
                                    or tok[0] == "_")

    take("graph")
    if is_id(peek()):
        take()
    take("{")
    while peek() != "}":
        if not is_id(peek()):
            raise AssertionError("expected a node id, got %r" % (peek(),))
        take()
        if peek() == "--":
            take()
            if not is_id(peek()):
                raise AssertionError("dangling edge")
            take()
        if peek() == "[":
            take()
            while peek() != "]":
                if not is_id(take()):
                    raise AssertionError("bad attribute name")
                take("=")
                if not is_id(take()):
                    raise AssertionError("bad attribute value")
                if peek() == ",":
                    take()
            take("]")
        if peek() == ";":
            take()
    take("}")
    if peek() is not None:
        raise AssertionError("trailing tokens after closing brace")
    return True


def _dot_tokens(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == '"':
            j = text.index('"', i + 1)
            tokens.append(text[i:j + 1])
            i = j + 1
        elif text[i:i + 2] == "--":
            tokens.append("--")
            i += 2
        elif ch in "{}[];,=":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "._-!"):
                j += 1
            if j == i:
                raise AssertionError("cannot tokenize DOT at %r" % text[i:i + 10])
            tokens.append(text[i:j])
            i = j
    return tokens
