"""The compiled kernel and the pure-Python reference kernel of
pure_kernel.py must produce identical traces: same solutions in the same
order, same node counts, same depths."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import parikhgrid.kernel as K
from parikhgrid.covering import perfect_length
from parikhgrid.search import _build_tables

import pure_kernel as pure
from helpers import first_covering_word_naive

# Both kernels, for the tests that run each on its own; the ids keep the
# names under which the suite reports these tests.
KERNELS = [pytest.param(pure.fixed_length_search, id="fixed_length_search"),
           pytest.param(K.fixed_length_search, id="_compiled_search")]

# rules is a bit mask: 15 sets every bit, so every rule is on; 3 is every
# rule but components (4)
CASES = [
    # k, sigma, length, pdb_only, rules, prefix, collect_limit
    (2, 3, 7, False, 15, (), 1),
    (2, 3, 7, False, 15, (), 0),
    (3, 3, 12, True, 15, (), 0),
    (3, 3, 12, True, 6, (), 0),      # duplicate-window rule off
    (3, 3, 12, False, 15, (0, 1), 1),
    (2, 4, 12, False, 15, (), 1),
    (4, 3, 18, True, 15, (), 0),
    (2, 2, 4, False, 0, (), 0),      # all rules off
    (1, 3, 3, False, 15, (), 0),
    (2, 3, 7, False, 15, (0, 0, 1, 1, 2, 2, 0), 1),  # prefix is the word
    (2, 4, 13, False, 15, (), 0),    # every one of 2,832 solutions
    # prefixes under the duplicate-window rule alone
    (3, 3, 12, True, 1, (0, 1, 1), 0),
    (2, 5, 16, True, 1, (0, 0, 1, 0), 1),
    (2, 3, 7, True, 1, (0, 0, 0), 0),  # the prefix repeats a window
    (3, 3, 12, True, 1, (0, 1, 2, 0, 0), 0),
    (30, 2, 1200, False, 15, (), 1),  # deeper than the recursion limit
    # components on and off, covering and perfect-cover targets
    (3, 3, 11, False, 3, (), 0),
    (2, 4, 13, False, 3, (), 0),
    (4, 3, 18, True, 3, (), 0),
    (3, 3, 12, True, 4, (), 0),      # components alone
    (4, 3, 19, False, 4, (), 0),
    (4, 3, 19, False, 15, (0, 0, 0, 0, 1), 0),
    (4, 3, 19, False, 3, (0, 0, 0, 0, 1), 0),
    (5, 3, 26, False, 15, (0, 0, 0, 0, 0, 1), 0),
    (3, 3, 12, True, 5, (0, 1, 1), 0),
    (3, 3, 12, True, 6, (0, 1, 2, 0), 0),  # a duplicate window placed
    (5, 2, 10, True, 15, (), 0),     # the grid is a path
    (3, 4, 22, False, 15, (), 0),
    (2, 5, 16, False, 15, (), 0),
    (3, 5, 37, False, 15, (0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0, 3), 1),
    (3, 1, 3, False, 15, (), 0),     # one vector, with no neighbour
]


# Covering targets past one 64-bit word of vectors, where the compiled
# kernel's bitsets take two words or more and a vector's neighbours may
# span several masks: sigma=2 at its lower bound 2k for 64, 65, 128 and
# 129 vectors, and instances over more letters under a node budget (the
# pure kernel takes about 0.2 s per 10^4 nodes there).
WIDE_CASES = [
    # k, sigma, length, pdb_only, rules, prefix, collect_limit, node_budget
    (63, 2, 126, False, 15, (), 1, 10**8),
    (64, 2, 128, False, 15, (), 1, 10**8),
    (127, 2, 254, False, 15, (), 1, 10**8),
    (128, 2, 256, False, 15, (), 1, 10**8),
    (10, 3, 75, False, 15, (), 1, 5 * 10**4),   # 66 vectors
    (4, 5, 73, False, 15, (), 1, 5 * 10**4),    # 70 vectors
    (6, 5, 215, False, 15, (), 1, 2 * 10**4),   # 210 vectors, 4 words
    (4, 6, 129, False, 15, (), 1, 5 * 10**4),   # 126 vectors, 2 words
]


# Perfect covers, where the compiled kernel keeps bit-sliced degree
# counters and a mask of neighbours for each word that holds any: the
# instances of 70, 126 and 136 vectors take one, two and three words, and
# sigma = 1 .. 9 take every number of planes, 1 to 7.  Then repeated
# windows, which re-enter U + {current} without the duplicate-window rule,
# and a prefix task.  The pure kernel takes about 0.07 s per 5 * 10^4
# nodes there.  Last, the budget edges of the refutation of (sigma=3,
# k=4), which counts 1,452 nodes: no node, one short of the tree, the tree
# and one more, and a prefix task that places two letters before its
# first counted node.
PERFECT_CASES = [
    # k, sigma, length, pdb_only, rules, prefix, collect_limit, node_budget
    (4, 5, 73, True, 15, (), 1, 5 * 10**4),
    (4, 6, 129, True, 15, (), 1, 5 * 10**4),
    (15, 3, 150, True, 15, (), 1, 5 * 10**4),
] + [
    (k, sigma, perfect_length(k, sigma), True, 15, (), 1, 10**4)
    for k, sigma in [(3, 1), (4, 2), (3, 3), (4, 4), (5, 5), (5, 6), (5, 7),
                     (4, 8), (4, 9)]
] + [
    (4, 6, 129, True, 6, (), 1, 5 * 10**4),     # duplicate-window rule off
    (15, 3, 150, True, 4, (), 1, 5 * 10**4),    # components alone
    (4, 6, 129, True, 15, (0, 0, 0, 0, 1, 2), 1, 5 * 10**4),
] + [
    (4, 3, 18, True, 15, (), 0, budget) for budget in (0, 1451, 1452, 1453)
] + [(4, 3, 18, True, 15, (0, 0, 1), 0, 0)]


def _same_trace(k, sigma, length, pdb_only, rules, prefix, limit, budget):
    tables = _build_tables(k, sigma)
    a = K.fixed_length_search(k, sigma, length, tables, pdb_only, rules,
                              prefix, limit, budget)
    b = pure.fixed_length_search(k, sigma, length, tables, pdb_only, rules,
                                 prefix, limit, budget)
    assert a == b


@pytest.mark.parametrize("case", CASES)
def test_identical_traces(case):
    _same_trace(*case, 10**8)


@pytest.mark.parametrize("case", WIDE_CASES)
def test_identical_traces_past_one_mask_word(case):
    _same_trace(*case)


@pytest.mark.parametrize("case", PERFECT_CASES)
def test_identical_perfect_cover_traces(case):
    _same_trace(*case)


@pytest.mark.parametrize("search", KERNELS)
@pytest.mark.parametrize("k,sigma,length,pdb_only,rules", [
    (3, 3, 11, False, 15),   # refuted: the whole tree
    (3, 3, 12, True, 15),
    (2, 5, 16, True, 1),     # duplicate-window rule alone
    (2, 4, 12, False, 0),    # no rules, every solution
    (4, 3, 19, False, 4),    # components alone
    (3, 3, 12, True, 4),
])
def test_prefix_tasks_count_each_node_once(search, k, sigma, length,
                                           pdb_only, rules):
    # the tasks at any depth, run in prefix order, visit the nodes of the
    # whole tree once each and find its solutions in the same order
    tables = _build_tables(k, sigma)
    whole = search(k, sigma, length, tables, pdb_only, rules, (), 0,
                   K.MAX_NODES)
    prefixes = [()]
    for _depth in range(4):
        prefixes = [p + (c,) for p in prefixes
                    for c in range(min(max(p, default=-1) + 2, sigma))]
        parts = [search(k, sigma, length, tables, pdb_only, rules, p, 0,
                        K.MAX_NODES) for p in prefixes]
        assert sum(part[2] for part in parts) == whole[2]
        assert max(part[3] for part in parts) == whole[3]
        assert [w for part in parts for w in part[1]] == whole[1]


@pytest.mark.parametrize("k,sigma,length", [(2, 3, 6), (2, 3, 7), (3, 2, 6),
                                            (2, 4, 11), (3, 3, 11)])
def test_naive_enumerator_parity(k, sigma, length):
    first = first_covering_word_naive(k, sigma, length)
    tables = _build_tables(k, sigma)
    assert K.find_covering_naive(k, sigma, length, tables) == (
        None if first is None else bytes(first))


# Perfect-cover searches pinned to their full traces.  Both kernels keep
# the degrees of the components rule the same way, so the parity test
# alone cannot catch a fault they share.  The budget, well above every
# pinned count, ends a search that prunes too little.
def _pinned(search, k, sigma, length, rules, prefix, limit):
    complete, solutions, nodes, max_depth = search(
        k, sigma, length, _build_tables(k, sigma), True, rules, prefix, limit,
        10**7)
    words = ["".join("abcde"[c] for c in w) for w in solutions]
    return complete, nodes, max_depth, words


@pytest.mark.parametrize("search", KERNELS)
def test_perfect_cover_traces_pinned(search):
    # (sigma=3, k=6) has no perfect cover: the whole tree is refuted
    assert _pinned(search, 6, 3, 33, 15, (), 0) == (True, 73195, 28, [])
    # components alone, after a prefix: repeated windows are placed, and
    # only a word without one is a solution
    assert _pinned(search, 3, 3, 12, 4, (0, 1), 0) == (
        True, 27031, 12, ["abbbcccaaabc", "abcccaaabbbc"])


@pytest.mark.parametrize("k,sigma,nodes,witness", [
    (4, 5, 984596, "aaaabbbbcaaadbbbeaaccbbddaaeaebcccadbeeeadddcccceeeedddd"
                   "bebecbdcdeceacdad"),
    (5, 4, 1254578,
     "aaaaabbbbbcaaaadbbbcccccdddddaaaccdbcbaccaccddbddbadacddbbbb"),
])
def test_perfect_cover_first_witness_pinned(k, sigma, nodes, witness):
    length = perfect_length(k, sigma)
    assert _pinned(K.fixed_length_search, k, sigma, length, K.ALL_RULES, (),
                   1) == (True, nodes, length, [witness])


def test_budget_exhaustion_parity():
    tables = _build_tables(3, 3)
    a = K.fixed_length_search(3, 3, 12, tables, False, 15, (), 1, 100)
    b = pure.fixed_length_search(3, 3, 12, tables, False, 15, (), 1, 100)
    assert a == b
    assert a[0] is False or a[0] == 0  # budget flag tripped


@pytest.mark.parametrize("search", KERNELS)
def test_budget_caps_the_counted_nodes(search):
    # the node past the budget is counted and ends the search: a budget of
    # 0 allows no node, and one node short of the tree leaves it
    # incomplete at the tree's depth
    tables = _build_tables(4, 3)

    def run(budget, prefix=()):
        return search(4, 3, 18, tables, True, 15, prefix, 0, budget)

    assert run(0) == (False, [], 1, 0)
    assert run(0, (0, 0, 1)) == (False, [], 1, 2)
    assert run(1451) == (False, [], 1452, 17)
    assert run(1452) == run(1453) == run(K.MAX_NODES) == (True, [], 1452, 17)


@pytest.mark.parametrize("budget", [-1, K.MAX_NODES + 1])
def test_compiled_rejects_a_budget_past_its_counter(budget):
    # the C node counter is a long long, which a larger int would wrap
    tables = _build_tables(2, 3)
    with pytest.raises(ValueError):
        K.fixed_length_search(2, 3, 7, tables, False, 15, (), 1, budget)


def test_progress_exception_propagates():
    # without the components rule the perfect-cover search for (sigma=5,
    # k=4) takes 12.9M nodes, so the first checkpoint comes at 1M nodes,
    # inside the compiled search
    class Stop(Exception):
        pass

    calls = []

    def progress(nodes, pos, found):
        calls.append(nodes)
        raise Stop

    tables = _build_tables(4, 5)
    with pytest.raises(Stop):
        K.fixed_length_search(4, 5, perfect_length(4, 5), tables, True,
                              K.ALL_RULES & ~K.RULE_COMPONENTS, (), 1,
                              K.MAX_NODES, progress)
    assert calls == [K.PROGRESS_INTERVAL]


@pytest.mark.parametrize("prefix", [(0, 3), (0,) * 8])
def test_compiled_rejects_prefix_it_cannot_place(prefix):
    # a letter outside the alphabet or a prefix longer than the word would
    # index past the C arrays
    tables = _build_tables(2, 3)
    with pytest.raises(ValueError):
        K.fixed_length_search(2, 3, 7, tables, False, 15, prefix, 1, 0)


def test_kernel_source_is_strict_c99(tmp_path):
    # optimised, since some warnings come only from the optimiser's analyses
    proc = subprocess.run(["cc", "-std=c99", "-Wall", "-Wextra", "-pedantic",
                           "-Werror", "-O2", "-c", "-o",
                           str(tmp_path / "_kernel.o"), K._SOURCE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _libasan():
    # cc prints the bare name when it has no such library
    if shutil.which("cc") is None:
        return None
    path = subprocess.run(["cc", "-print-file-name=libasan.so"],
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


# Run in a child process with the sanitizer runtime preloaded: the compiled
# kernel built with address and undefined-behaviour checks against the
# reference kernel on every parity case, those past one mask word and the
# perfect covers too, and its table builder against the reference one, from
# one vector to tables of several mask words.  The child loads the
# sanitized build in place of the normal one.  A fault aborts the child.
_SANITIZED_PARITY = """
import sys
import parikhgrid.kernel as K
from parikhgrid.search import _build_tables
import pure_kernel as pure
from test_kernel_parity import CASES, PERFECT_CASES, WIDE_CASES
K._lib = K._load(sys.argv[1])
for k, sigma in [(1, 1), (5, 1), (1, 4), (4, 2), (6, 5), (3, 9)]:
    assert K.build_tables(k, sigma) == pure.build_tables(k, sigma)
for case in [case + (10**8,) for case in CASES] + WIDE_CASES + PERFECT_CASES:
    k, sigma, length, pdb_only, rules, prefix, limit, budget = case
    tables = _build_tables(k, sigma)
    args = (k, sigma, length, tables, pdb_only, rules, prefix, limit, budget)
    assert K.fixed_length_search(*args) == pure.fixed_length_search(*args)
"""


@pytest.mark.skipif(_libasan() is None, reason="no cc with libasan")
def test_sanitized_kernel_parity(tmp_path):
    library = str(tmp_path / "_kernel_asan.so")
    build = subprocess.run(
        ["cc", "-O1", "-g", "-shared", "-fPIC", "-fno-omit-frame-pointer",
         "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-o", library, K._SOURCE],
        capture_output=True, text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    env = dict(os.environ, LD_PRELOAD=_libasan(),
               ASAN_OPTIONS="detect_leaks=0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(K.__file__)),
         os.path.dirname(os.path.abspath(__file__))])
    run = subprocess.run([sys.executable, "-c", _SANITIZED_PARITY, library],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]


def test_table_builders_agree():
    # every table up to 10^6 shifts with k <= 12 and sigma <= 15, and the
    # largest the search takes
    sizes = [(k, sigma) for k in range(1, 13) for sigma in range(1, 16)
             if math.comb(k + sigma - 1, k) * sigma * sigma <= 10**6]
    assert len(sizes) == 129
    for k, sigma in sizes + [(12, 8)]:
        assert K.build_tables(k, sigma) == pure.build_tables(k, sigma), (
            k, sigma)


@pytest.mark.parametrize("k,sigma", [(4, 3), (2, 4)])
def test_compiled_rejects_tables_of_another_instance(k, sigma):
    # the shift table of (k=3, sigma=3) would lead the windows of another
    # instance to rank -1 or past the C arrays
    tables = _build_tables(3, 3)
    with pytest.raises(ValueError):
        K.fixed_length_search(k, sigma, 12, tables, False, 15, (), 1, 0)


def test_compiled_rejects_more_than_256_letters():
    # a letter is a byte; the shift table passes for its length alone,
    # and the check comes before it is read
    class Shifts:
        def __len__(self):
            return 257 ** 3

    with pytest.raises(ValueError):
        K.fixed_length_search(1, 257, 257, (257, Shifts()), False, 15, (), 1,
                              0)


# Run in a child process with an empty cache and no cc on PATH, so that the
# kernel cannot be built: a search command exits 2 with one error line that
# names the reason, and the commands that do not search, and reading a
# search outcome back from JSON, work as with a kernel.
_WITHOUT_COMPILER = """
import contextlib, io, json, sys
import parikhgrid
from parikhgrid import cli, export, search


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


outcome = search.SearchOutcome(k=3, sigma=3, target=search.TARGET_PDB,
                               status=search.STATUS_FOUND,
                               witness="abbbcccaaabc", minimal=True)
try:
    parikhgrid.active_kernel()
except parikhgrid.ParikhGridError as exc:
    reason = str(exc)
print(json.dumps({
    "reason": reason,
    "searches": [run(*argv) for argv in (
        ["search", "--k", "3", "--sigma", "3"],
        ["enumerate-pdb", "--k", "3", "--sigma", "3"],
        ["mincov", "--k", "3", "--sigma", "2", "--max-len", "7"])],
    "others": [run(*argv)[0] for argv in (
        ["verify", "abbbcccaaabc", "--k", "3", "--sigma", "3"],
        ["grid", "--k", "2", "--sigma", "3"],
        ["bounds", "--k", "3", "--sigma", "3"],
        ["covset", "abbbcccaaabc", "--sigma", "3"],
        ["construct", "binary-pdb", "--k", "3", "--sigma", "2"],
        ["walk", "aabacabb", "--k", "4"],
        ["realize", "(2,0),(1,1)", "--k", "2", "--sigma", "2"],
        ["search", "--k", "3", "--sigma", "6", "--target", "pdb"])],
    "from_json": export.from_json(export.to_json(outcome)) == outcome,
}))
"""


def test_fallback_without_compiler(tmp_path):
    env = dict(os.environ, PATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.path.dirname(os.path.dirname(K.__file__)))
    run = subprocess.run([sys.executable, "-c", _WITHOUT_COMPILER],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout)
    assert doc["reason"].startswith("compiled kernel unavailable: cannot run "
                                    "cc")
    for code, out, err in doc["searches"]:
        assert (code, out, err) == (2, "", "error: %s\n" % doc["reason"])
    # a perfect cover of (3, 6) is refuted by the bounds, with no search
    assert doc["others"] == [0, 0, 0, 0, 0, 0, 0, 1]
    assert doc["from_json"]


def test_new_build_removes_stale_builds(monkeypatch, tmp_path):
    # builds of other sources loaded in the order of their names, another
    # process's build in progress, a stale name that cannot be unlinked (a
    # directory, loaded first of all) and a foreign file
    cache = tmp_path / "parikhgrid"
    cache.mkdir()
    for i in range(K.KEEP_BUILDS):
        build = cache / ("_kernel-%08x.so" % i)
        build.write_bytes(b"stale")
        os.utime(build, (1000 + i, 1000 + i))
    (cache / "_kernel-00000000.so.4242.tmp").write_bytes(b"in progress")
    (cache / "_kernel-11111111.so").mkdir()
    os.utime(cache / "_kernel-11111111.so", (0, 0))
    (cache / "notes.txt").write_text("kept")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    target = K._build()
    # the new build and the KEEP_BUILDS - 1 builds loaded last stay
    assert sorted(os.listdir(cache)) == sorted(
        [os.path.basename(target), "_kernel-00000000.so.4242.tmp",
         "_kernel-11111111.so", "notes.txt"]
        + ["_kernel-%08x.so" % i for i in range(1, K.KEEP_BUILDS)])
    # the build is found, not rebuilt, and counts as loaded last; a cache
    # that holds it and KEEP_BUILDS + 1 builds loaded since is pruned too
    os.utime(target, (500, 500))
    for i in range(K.KEEP_BUILDS + 1):
        build = cache / ("_kernel-%08x.so" % (0x20 + i))
        build.write_bytes(b"stale")
        os.utime(build, (2000 + i, 2000 + i))
    monkeypatch.setattr(subprocess, "run", None)
    assert K._build() == target
    assert os.stat(target).st_mtime > 2000 + K.KEEP_BUILDS
    assert sorted(os.listdir(cache)) == sorted(
        [os.path.basename(target), "_kernel-00000000.so.4242.tmp",
         "_kernel-11111111.so", "notes.txt"]
        + ["_kernel-%08x.so" % (0x20 + i)
           for i in range(2, K.KEEP_BUILDS + 1)])


@pytest.mark.parametrize("search", KERNELS)
@pytest.mark.parametrize("k,sigma,length,pdb_only", [
    (3, 3, 12, True), (4, 3, 18, True), (2, 5, 16, True), (5, 2, 10, True),
    (2, 3, 7, False), (2, 3, 8, False), (2, 3, 9, False),
    (3, 2, 6, False), (3, 2, 7, False), (3, 2, 8, False),
    (3, 3, 12, False), (3, 3, 13, False), (2, 4, 12, False),
    (4, 3, 19, False),
])
def test_components_rule_keeps_every_solution(search, k, sigma, length,
                                              pdb_only):
    # the rule cuts only subtrees without a solution
    tables = _build_tables(k, sigma)
    without = K.ALL_RULES & ~K.RULE_COMPONENTS
    on = search(k, sigma, length, tables, pdb_only, K.ALL_RULES, (), 0,
                K.MAX_NODES)
    off = search(k, sigma, length, tables, pdb_only, without, (), 0,
                 K.MAX_NODES)
    assert on[0] and off[0]
    assert on[1] == off[1]
    assert on[2] <= off[2]
