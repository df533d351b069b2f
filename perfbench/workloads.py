"""The benchmark's workloads: operations, their inputs and their checks.

An operation is one call into the package (``call``, the timed part) and a
check of its result (``check``, untimed), which returns None when the output
is right and otherwise says what is wrong.  The checks use oracles written
here, independent of the package's own code paths, except that every search
witness is also re-verified with ``covering.verify``.

The search instances and their expected verdicts are the paper's, so they do
not depend on the seed.  The seed draws the inputs of ``grid-bookkeeping``:
its words and vector samples change with the seed, their number and sizes
do not, so that every seed asks for about the same work.
"""

import contextlib
import io
import itertools
import json
import math
import random
import statistics
import sys
from dataclasses import dataclass

from parikhgrid import (cli, covering, export, grid, realize, search, vectors,
                        walks)
from parikhgrid.errors import ParikhGridError
from parikhgrid.search import SearchConfig
from procs import child_env, run_cli

WORKLOADS = ("paper-searches", "kernel-bound", "parallel-split",
             "grid-bookkeeping")

# (sigma, k) -> length of the shortest covering word.
PAPER_SHORTEST = {(3, 2): 7, (3, 3): 12, (4, 2): 12, (5, 2): 16, (3, 4): 19,
                  (4, 3): 22, (5, 3): 37, (3, 5): 27}
# (sigma, k) -> the only length a perfect cover could have; none exists.
PAPER_PDB_REFUTED = {(3, 4): 18, (3, 5): 25, (3, 6): 33}
# Perfect covers for (sigma=3, k=3), one per relabeling/reversal class.
PDB_CLASSES_3_3 = ["abbbcccaaabc"]
# Perfect cover for (sigma=5, k=4): the kernel-bound instance.
KERNEL_BOUND = (5, 4, 73)

# Wall-clock caps of the parallel-split calls.  The (5,4) cap is about twice
# the instance's single-worker time on the pure kernel (about 7 s).
CAP_S = 60.0
CAP_PDB_5_4_S = 14.0
CALL_REPEATS = 3

# (k, sigma) of the vector and grid instances
VECTOR_SIZES = ((8, 4), (5, 6), (3, 18))
GRID_SIZES = ((6, 3), (5, 4), (4, 5), (5, 5), (3, 8), (6, 4), (4, 6))
SAMPLE = 600


@dataclass
class Op:
    name: str
    layer: str          # the layer the benchmark calls into
    call: object        # () -> result
    check: object       # result -> None, or what is wrong
    nodes: object = None    # result -> search nodes, for the repeat check
    observe: object = None  # (result, counts) -> None: counts seen outside
    # How a run sums up the operation's times.  An in-process computation
    # does the same work every time, so the best time is its cost and the
    # rest is other tenants slowing the machine.  A CLI call that runs a
    # process pool varies by its own scheduling, so it takes the median.
    estimate: object = min


def build(name, seed, root):
    """The operations of one pass of workload ``name``."""
    if name == "paper-searches":
        return paper_searches()
    if name == "kernel-bound":
        sigma, k, length = KERNEL_BOUND
        return [_search_op(sigma, k, search.TARGET_PDB,
                           _check_found(sigma, k, length, True))]
    if name == "parallel-split":
        return parallel_split(root)
    if name == "grid-bookkeeping":
        return grid_bookkeeping(random.Random(seed))
    raise ValueError("unknown workload %r" % (name,))


# -- independent oracles ------------------------------------------------------


def all_vectors(k, sigma):
    """Order-k vectors over sigma letters in colexicographic order, built
    from letter multisets."""
    out = []
    for combo in itertools.combinations_with_replacement(range(sigma), k):
        counts = [0] * sigma
        for letter in combo:
            counts[letter] += 1
        out.append(tuple(counts))
    out.sort(key=lambda p: p[::-1])
    return out


def windows(word, k, sigma):
    """Parikh vector of every length-k window of a word over a, b, c, ..."""
    letters = [ord(ch) - ord("a") for ch in word]
    out = []
    for start in range(len(letters) - k + 1):
        counts = [0] * sigma
        for letter in letters[start:start + k]:
            counts[letter] += 1
        out.append(tuple(counts))
    return out


def shift(p, out_i, in_i):
    q = list(p)
    q[out_i] -= 1
    q[in_i] += 1
    return tuple(q)


def adjacent(p):
    return {shift(p, i, j) for i in range(len(p)) if p[i]
            for j in range(len(p)) if j != i}


def vector_count(k, sigma):
    return math.comb(k + sigma - 1, sigma - 1)


def random_word(rng, sigma, length):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz"[:sigma])
                   for _ in range(length))


def cover_problem(word, k, sigma, perfect):
    """None if ``word`` covers every order-k vector (each exactly once when
    ``perfect``), by a recount here and by ``covering.verify``."""
    seen = windows(word, k, sigma)
    n_vec = vector_count(k, sigma)
    if len(set(seen)) != n_vec:
        return "witness %r misses %d vectors" % (word, n_vec - len(set(seen)))
    if perfect and len(seen) != n_vec:
        return "witness %r repeats a window" % (word,)
    report = covering.verify(word, k, sigma)
    if not report.is_covering or (perfect and not report.is_pdb):
        return "covering.verify rejects witness %r" % (word,)
    return None


# -- searches -----------------------------------------------------------------


def _check_found(sigma, k, length, perfect):
    def check(outcome):
        if outcome.status != search.STATUS_FOUND or not outcome.witness:
            return "expected a witness of length %d, got %s" % (
                length, outcome.status)
        if len(outcome.witness) != length:
            return "witness of length %d, expected %d" % (
                len(outcome.witness), length)
        if not outcome.minimal:
            return "witness not certified minimal"
        return cover_problem(outcome.witness, k, sigma, perfect)
    return check


def _check_refuted(length):
    def check(outcome):
        if (outcome.status != search.STATUS_REFUTED
                or outcome.refuted_up_to != length or outcome.witness):
            return "expected a refutation at %d, got %s %r" % (
                length, outcome.status, outcome.refuted_up_to)
        return None
    return check


def _search_op(sigma, k, target, check):
    cfg = SearchConfig(k=k, sigma=sigma, target=target)
    kind = "shortest" if target == search.TARGET_SHORTEST else "pdb"
    return Op(name="%s s%d k%d" % (kind, sigma, k), layer="search",
              call=lambda: search.run_search(cfg), check=check,
              nodes=lambda outcome: outcome.stats.nodes)


def paper_searches():
    ops = [_search_op(sigma, k, search.TARGET_SHORTEST,
                      _check_found(sigma, k, length, False))
           for (sigma, k), length in PAPER_SHORTEST.items()]
    ops += [_search_op(sigma, k, search.TARGET_PDB, _check_refuted(length))
            for (sigma, k), length in PAPER_PDB_REFUTED.items()]

    def check_classes(reps):
        if reps != PDB_CLASSES_3_3:
            return "perfect-cover classes %r, expected %r" % (
                reps, PDB_CLASSES_3_3)
        return cover_problem(reps[0], 3, 3, True)

    ops.append(Op(name="enumerate-pdb s3 k3", layer="search",
                  call=lambda: search.enumerate_all_pdb(3, 3),
                  check=check_classes))
    return ops


# -- parallel-split: CLI processes ---------------------------------------


def _outcome(res):
    try:
        return export.from_json(res.stdout)
    except (ValueError, KeyError, ParikhGridError):
        return None


def _cli_search_op(root, sigma, k, target, cap, exit_code, check):
    argv = [sys.executable, "-m", "parikhgrid.cli", "search", "--k", str(k),
            "--sigma", str(sigma), "--target", target, "--threads", "2"]
    # Unbuffered output, so that the answer is seen when it is written.
    env = dict(child_env(root), PYTHONUNBUFFERED="1")

    def check_call(res):
        outcome = _outcome(res)
        if outcome is None:
            return "exit %d, unreadable output %r, stderr %r" % (
                res.returncode, res.stdout[-200:], res.stderr[-200:])
        if res.returncode != exit_code:
            return "exit code %d, expected %d" % (res.returncode, exit_code)
        return check(outcome)

    def nodes(res):
        outcome = _outcome(res)
        return None if outcome is None else outcome.stats.nodes

    def observe(res, counts):
        outcome = _outcome(res)
        if outcome is not None:
            counts["cli.answer_s"] += outcome.stats.elapsed
            if not res.killed:
                # whether a killed call printed its answer depends on timing
                counts["kernel.nodes"] += outcome.stats.nodes
        if res.answer_s is not None:
            counts["cli.linger_s"] += res.seconds - res.answer_s
        counts["cli.killed"] += res.killed

    return Op(name="cli %s s%d k%d threads=2" % (target, sigma, k),
              layer="cli", call=lambda: run_cli(argv, cap, root, env),
              check=check_call, nodes=nodes, observe=observe,
              estimate=statistics.median)


def parallel_split(root):
    # When the first two calls exit depends on which speculative tasks are
    # running as the answer arrives, so each runs CALL_REPEATS times in a
    # pass and counts at its median time (Op.estimate).
    return [
        # exhaustive: load balance and dispatch
        _cli_search_op(root, 3, 6, "pdb", CAP_S, 1, _check_refuted(33)),
        # first witness, then cancellation of the speculative tasks
        _cli_search_op(root, 3, 5, "shortest", CAP_S, 0,
                       _check_found(3, 5, 27, False)),
    ] * CALL_REPEATS + [
        # first witness of the kernel-bound instance, then shutdown
        _cli_search_op(root, 5, 4, "pdb", CAP_PDB_5_4_S, 0,
                       _check_found(5, 4, 73, True)),
    ]


# -- grid-bookkeeping: the library's cheap paths -------------------------


def grid_bookkeeping(rng):
    ops = []
    for k, sigma in VECTOR_SIZES:
        ops += _vector_ops(rng, k, sigma)
    for k, sigma in GRID_SIZES:
        ops += _grid_ops(k, sigma)
    ops += _covering_ops(rng)
    ops += _walk_ops(rng)
    ops += _realize_ops(rng)
    ops += _cli_ops(rng)
    ops += _roundtrip_ops(rng)
    return ops


def _expect(expected, what):
    def check(got):
        return None if got == expected else "%s differs from the oracle" % what
    return check


def _vector_ops(rng, k, sigma):
    table = all_vectors(k, sigma)
    rank_of = {p: i for i, p in enumerate(table)}
    sample = [rng.choice(table) for _ in range(SAMPLE)]
    groups = [rng.sample(table, rng.randint(2, 3)) for _ in range(SAMPLE)]
    tag = "k%d s%d" % (k, sigma)

    def ranks():
        return [(r, vectors.pv_unrank(r, k, sigma))
                for r in map(vectors.pv_rank, sample)]

    return [
        Op("enumerate_pv " + tag, "vectors",
           lambda: vectors.enumerate_pv(k, sigma),
           _expect(table, "enumeration")),
        Op("rank/unrank " + tag, "vectors", ranks,
           _expect([(rank_of[p], p) for p in sample], "rank/unrank")),
        Op("neighbors " + tag, "vectors",
           lambda: [vectors.neighbors(p) for p in sample],
           _expect([adjacent(p) for p in sample], "neighbors")),
        Op("meet/join " + tag, "vectors",
           lambda: [(vectors.meet(g), vectors.join(g)) for g in groups],
           _expect([(tuple(map(min, zip(*g))), tuple(map(max, zip(*g))))
                    for g in groups], "meet/join")),
    ]


def _grid_facts(k, sigma):
    table = all_vectors(k, sigma)
    edges = {frozenset((p, q)) for p in table for q in adjacent(p)}
    bows = sum(1 for p in table for c in p if c)
    return table, edges, bows


def _grid_ops(k, sigma):
    table, edges, bows = _grid_facts(k, sigma)
    arcs = 2 * len(edges) + bows
    tag = "k%d s%d" % (k, sigma)

    def check_undirected(got):
        if len(got) != len(edges) or {frozenset(e) for e in got} != edges:
            return "undirected edges differ from the oracle"
        return None

    def check_directed(got):
        if len({(p, q, lab) for p, q, lab in got}) != arcs:
            return "%d distinct arcs, expected %d" % (len(set(got)), arcs)
        for p, q, lab in got:
            out_i = ord(lab.out_letter) - ord("a")
            in_i = ord(lab.in_letter) - ord("a")
            ok = (out_i == in_i and p[out_i] > 0) if p == q else (
                p[out_i] > 0 and q == shift(p, out_i, in_i))
            if not ok:
                return "arc %r -> %r has label %r" % (p, q, lab)
        return None

    def check_dot(text):
        lines = text.splitlines()
        links = sum(1 for line in lines if " -- " in line)
        nodes = sum(1 for line in lines
                    if line.strip().startswith("v") and " -- " not in line)
        if links != len(edges) + bows or nodes != len(table):
            return "DOT has %d nodes and %d links" % (nodes, links)
        return None

    def check_dict(doc):
        got = (doc["vertex_count"], len(doc["undirected_edges"]),
               len(doc["bows"]), len(doc["directed_edges"]))
        want = (len(table), len(edges), bows, arcs)
        return None if got == want else "grid dict sizes %r, expected %r" % (
            got, want)

    ops = [
        Op("undirected_edges " + tag, "grid",
           lambda: list(grid.build_grid(k, sigma).undirected_edges()),
           check_undirected),
        Op("directed_edges " + tag, "grid",
           lambda: list(grid.build_grid(k, sigma).directed_edges()),
           check_directed),
        Op("grid_to_dot " + tag, "export",
           lambda: export.grid_to_dot(grid.build_grid(k, sigma)), check_dot),
        Op("grid_to_dict " + tag, "export",
           lambda: export.grid_to_dict(grid.build_grid(k, sigma), True),
           check_dict),
    ]
    if sigma == 3:
        def check_layout(pos):
            if len(pos) != len(table):
                return "layout has %d points" % len(pos)
            for edge in edges:
                p, q = tuple(edge)
                if abs(math.dist(pos[p], pos[q]) - 1.0) > 1e-9:
                    return "neighbors %r, %r not at distance 1" % (p, q)
            return None

        ops.append(Op("layout_2d " + tag, "grid",
                      lambda: grid.layout_2d(grid.build_grid(k, sigma)),
                      check_layout))
    return ops


def _cover_facts(word, k, sigma):
    seen = windows(word, k, sigma)
    n_vec = vector_count(k, sigma)
    covers = len(set(seen)) == n_vec
    return (covers, covers and len(seen) == n_vec,
            len(word) - (n_vec + k - 1) if covers else None,
            n_vec - len(set(seen)))


def _verify_op(name, word, k, sigma):
    want = _cover_facts(word, k, sigma)

    def check(report):
        got = (report.is_covering, report.is_pdb, report.excess,
               len(report.missing))
        return None if got == want else "verify says %r, oracle %r" % (
            got, want)

    return Op(name, "covering", lambda: covering.verify(word, k, sigma),
              check)


def _constructed_word(rng, k, sigma):
    """A covering word: the sorted-letter word of every vector, in random
    order, so that each vector is a window."""
    table = all_vectors(k, sigma)
    rng.shuffle(table)
    return "".join("".join(chr(ord("a") + i) * c for i, c in enumerate(p))
                   for p in table)


def _covering_ops(rng):
    ops = []
    for sigma, k, length in ((3, 3, 60), (3, 3, 200), (4, 3, 150),
                             (4, 3, 400), (3, 4, 300), (5, 2, 80)):
        ops.append(_verify_op("verify random s%d k%d n%d" % (sigma, k, length),
                              random_word(rng, sigma, length), k, sigma))
    for sigma, k in ((3, 3), (4, 3), (3, 4), (5, 2)):
        ops.append(_verify_op("verify constructed s%d k%d" % (sigma, k),
                              _constructed_word(rng, k, sigma), k, sigma))
    ops.append(_verify_op("verify perfect s3 k3", PDB_CLASSES_3_3[0], 3, 3))
    for sigma, length in ((2, 40), (3, 60), (3, 120), (4, 150)):
        word = random_word(rng, sigma, length)
        want = frozenset(
            k for k in range(1, length + 1)
            if len(set(windows(word, k, sigma))) == vector_count(k, sigma))
        ops.append(Op("covset s%d n%d" % (sigma, length), "covering",
                      lambda word=word, sigma=sigma: covering.covset(word,
                                                                     sigma),
                      _expect(want, "covset")))
    return ops


def _spell_op(name, word, k, sigma):
    walk = walks.walk_of(word, k, sigma)
    return Op(name, "walks", lambda: walks.spell(walk),
              lambda got: None if windows(got, k, sigma) == list(walk.vertices)
              else "spelled word has another walk")


def _walk_ops(rng):
    ops = []
    for sigma, k, length in ((3, 3, 120), (4, 3, 250), (3, 4, 400),
                             (4, 4, 500)):
        word = random_word(rng, sigma, length)
        verts = windows(word, k, sigma)
        labels = [(word[i], word[i + k]) for i in range(length - k)]
        tag = "s%d k%d n%d" % (sigma, k, length)

        def check_walk(walk, verts=verts, labels=labels):
            got = (list(walk.vertices),
                   [(lab.out_letter, lab.in_letter) for lab in walk.labels])
            return None if got == (verts, labels) else "walk differs"

        def check_realizable(res, k=k, sigma=sigma, verts=verts):
            if not res.realizable or windows(res.word, k, sigma) != verts:
                return "realizable walk refuted or mis-spelled"
            return None

        # Insert a vertex that is neither equal nor adjacent to its
        # predecessor: no word has that walk.
        at = rng.randrange(len(verts))
        table = all_vectors(k, sigma)
        jump = rng.choice([q for q in table
                           if q != verts[at] and q not in adjacent(verts[at])])
        broken = verts[:at + 1] + [jump] + verts[at + 1:]
        ops += [
            Op("walk_of " + tag, "walks",
               lambda word=word, k=k, sigma=sigma: walks.walk_of(word, k,
                                                                 sigma),
               check_walk),
            _spell_op("spell " + tag, word, k, sigma),
            Op("is_realizable_walk " + tag, "walks",
               lambda verts=verts, k=k: walks.is_realizable_walk(verts, k),
               check_realizable),
            Op("is_realizable_walk broken " + tag, "walks",
               lambda broken=broken, k=k: walks.is_realizable_walk(broken, k),
               lambda res: "broken walk called realizable"
               if res.realizable else None),
        ]
    # Deeper than the interpreter's recursion limit at the seed.
    ops.append(_spell_op("spell s3 k3 n2000", random_word(rng, 3, 2000), 3, 3))
    return ops


def _realize_op(name, members, k, sigma, realizable):
    members = frozenset(members)

    def check(res):
        if res.realizable != realizable:
            return "realizable=%r, expected %r" % (res.realizable, realizable)
        if realizable and set(windows(res.witness, k, sigma)) != members:
            return "witness %r has another window set" % (res.witness,)
        if not realizable:
            a, b = map(set, res.refutation)
            if not a or not b or a & b or not (a | b) <= members:
                return "refutation is not two parts of the set"
        return None

    return Op(name, "realize",
              lambda: realize.is_realizable_set(members, sigma=sigma), check)


def _realize_ops(rng):
    ops = []
    for sigma, k, length in ((4, 4, 40), (4, 4, 120), (5, 3, 100),
                             (3, 5, 200)):
        members = windows(random_word(rng, sigma, length), k, sigma)
        ops.append(_realize_op("realize connected s%d k%d n%d"
                               % (sigma, k, length), members, k, sigma, True))
    table = all_vectors(4, 4)
    for i in range(3):
        part = set(windows(random_word(rng, 4, 12), 4, 4))
        near = part | {q for p in part for q in adjacent(p)}
        far = rng.choice([q for q in table if q not in near])
        ops.append(_realize_op("realize disconnected s4 k4 #%d" % i,
                               part | {far}, 4, 4, False))
    # Every vector of (sigma=18, k=3): deeper than the recursion limit at
    # the seed.
    ops.append(_realize_op("realize all s18 k3", all_vectors(3, 18), 3, 18,
                           True))
    return ops


def _run_cli_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(name, argv, check):
    return Op(name, "cli", lambda: _run_cli_main(argv), check)


def _cli_ops(rng):
    table, edges, bows = _grid_facts(4, 3)

    def check_dot(res):
        code, text = res
        links = sum(1 for line in text.splitlines() if " -- " in line)
        if code != 0 or not text.startswith("graph grid_k4_s3"):
            return "grid dot exit %d" % code
        return None if links == len(edges) + bows else "%d links" % links

    def check_json(res):
        code, text = res
        doc = json.loads(text)
        if code != 0 or doc["vertex_count"] != vector_count(3, 4):
            return "grid json exit %d" % code
        return None

    ops = [
        _cli_op("cli grid dot k4 s3",
                ["grid", "--k", "4", "--sigma", "3", "--format", "dot"],
                check_dot),
        _cli_op("cli grid json k3 s4",
                ["grid", "--k", "3", "--sigma", "4", "--directed"],
                check_json),
    ]
    for length in (20, 40, 80):
        word = random_word(rng, 3, length)
        covers = _cover_facts(word, 3, 3)[0]

        def check_verify(res, covers=covers):
            code, text = res
            if code != (0 if covers else 1):
                return "verify exit %d" % code
            if json.loads(text)["is_covering"] != covers:
                return "verify verdict differs from the oracle"
            return None

        ops.append(_cli_op("cli verify s3 k3 n%d" % length,
                           ["verify", word, "--k", "3", "--sigma", "3"],
                           check_verify))
    connected = sorted(set(windows(random_word(rng, 3, 15), 3, 3)))
    for name, members, realizable in (
            ("disconnected", [(3, 0, 0), (0, 3, 0)], False),
            ("connected", connected, True)):
        def check_realize(res, realizable=realizable):
            code, text = res
            if code != (0 if realizable else 1):
                return "realize exit %d" % code
            if json.loads(text)["realizable"] != realizable:
                return "realize verdict differs from the oracle"
            return None

        text = ",".join("(%s)" % ",".join(map(str, p)) for p in members)
        ops.append(_cli_op("cli realize %s" % name,
                           ["realize", text, "--k", "3", "--sigma", "3"],
                           check_realize))
    return ops


def _roundtrip_ops(rng):
    covers = [covering.verify(random_word(rng, 3, n), 3, 3)
              for n in (10, 30, 60, 120)]
    bounds = [covering.bounds(k, sigma)
              for k, sigma in ((2, 3), (3, 4), (4, 5), (6, 3))]
    realized = [realize.is_realizable_set(
        windows(random_word(rng, 3, n), 3, 3), sigma=3) for n in (8, 20)]
    realized.append(realize.is_realizable_set([(3, 0, 0), (0, 3, 0)]))
    return [Op("json round trip %s" % kind, "export",
               lambda reports=reports: [export.from_json(export.to_json(r))
                                        for r in reports],
               _expect(reports, "round trip"))
            for kind, reports in (("cover", covers), ("bounds", bounds),
                                  ("realize", realized))]
