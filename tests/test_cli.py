import json
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from parikhgrid import cli, covering, export, search
from parikhgrid.errors import InvalidInput

from helpers import check_dot


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_perfect_cover_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "abbbcccaaabc", "--k", "3",
                           "--sigma", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["is_pdb"] is True and doc["excess"] == 0

    def test_non_covering_exits_one(self, capsys):
        code, out, _ = run(capsys, "verify", "aab", "--k", "2", "--sigma", "3")
        assert code == 1
        assert json.loads(out)["is_covering"] is False

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "verify", "aabbcca", "--k", "2",
                           "--sigma", "3", "--format", "table")
        assert code == 0
        assert out.splitlines()[0].split() == ["sigma", "k", "word", "length",
                                               "pdb", "excess"]


class TestGridCommand:
    def test_json_counts(self, capsys):
        code, out, _ = run(capsys, "grid", "--k", "4", "--sigma", "3",
                           "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert (doc["vertex_count"], len(doc["undirected_edges"]),
                len(doc["bows"])) == (15, 30, 30)

    def test_dot_valid(self, capsys):
        for k, sigma in [(1, 3), (4, 3), (2, 4), (3, 5)]:
            code, out, _ = run(capsys, "grid", "--k", str(k), "--sigma",
                               str(sigma), "--format", "dot")
            assert code == 0
            check_dot(out)

    def test_capacity_exit_two(self, capsys):
        code, _, err = run(capsys, "grid", "--k", "1000000", "--sigma", "8")
        assert code == 2
        assert "2^63-1 capacity bound" in err

    @pytest.mark.parametrize("option", [(), ("--format", "dot"),
                                        ("--directed",)])
    def test_export_over_the_entry_bound_exit_two_at_once(self, capsys,
                                                          option):
        # 635,376 vertices and 8,934,975 edges and bows: within the grid's
        # vertex bound, but an export of them would take gigabytes
        start = time.monotonic()
        code, out, err = run(capsys, "grid", "--k", "60", "--sigma", "5",
                             *option)
        assert (code, out) == (2, "")
        assert "MAX_EXPORT_ENTRIES" in err
        assert time.monotonic() - start < 1


class TestRealizeCommand:
    def test_disconnected_exits_one(self, capsys):
        code, out, _ = run(capsys, "realize", "(3,0,0),(0,3,0)", "--k", "3",
                           "--sigma", "3")
        doc = json.loads(out)
        assert code == 1
        assert doc["refutation"]["component_a"] == [[3, 0, 0]]

    def test_connected_exits_zero(self, capsys):
        code, out, _ = run(capsys, "realize", "(2,1,0),(1,2,0)", "--k", "3",
                           "--sigma", "3")
        assert code == 0
        assert json.loads(out)["witness"]

    def test_order_other_than_k_exit_two(self, capsys):
        code, out, err = run(capsys, "realize", "(3,0,0)", "--k", "2",
                             "--sigma", "3")
        assert code == 2 and out == ""
        assert "vectors have order 3, not k=2" in err

    def test_malformed_vector_exit_two(self, capsys):
        code, _, err = run(capsys, "realize", "(2,1,x)", "--k", "3",
                           "--sigma", "3")
        assert code == 2 and "error" in err


class TestSearchCommand:
    def test_shortest(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "2", "--sigma", "3")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["witness"]) == 7 and doc["minimal"] is True

    def test_pdb_refutation_exits_one(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "4", "--sigma", "3",
                           "--target", "pdb")
        doc = json.loads(out)
        assert code == 1
        assert doc["status"] == "refuted_up_to" and doc["refuted_up_to"] == 18

    def test_progress_lines_on_stderr(self, capsys):
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "2",
                           "--progress")
        assert code == 0
        # small search finishes before the first checkpoint; stderr is
        # reserved for progress JSON lines either way
        for line in err.splitlines():
            assert json.loads(line)

    def test_progress_lines_with_two_threads(self, capsys, monkeypatch):
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        # the perfect cover of (sigma=4, k=5) takes 1,254,578 nodes, so the
        # search reaches its first checkpoint and is split for the workers
        code, _, err = run(capsys, "search", "--k", "5", "--sigma", "4",
                           "--target", "pdb", "--threads", "2", "--progress")
        assert code == 0
        events = [json.loads(line) for line in err.splitlines()]
        # one line per merged task of the length-60 search that moved the
        # node count or the number found
        assert events
        assert all(e["event"] == "checkpoint" and e["length"] == 60
                   for e in events)
        moved = [(e["nodes"], e["found"]) for e in events]
        assert all(a != b for a, b in zip(moved, moved[1:]))

    def test_no_progress_line_below_the_first_checkpoint(self, capsys):
        # a search that ends inline prints none, whatever the thread count
        for threads in ("1", "2"):
            code, _, err = run(capsys, "search", "--k", "3", "--sigma", "3",
                               "--threads", threads, "--progress")
            assert (code, err) == (0, "")

    def test_small_budget_is_the_whole_budget(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "search", "--k", "6", "--sigma", "4",
                           "--target", "pdb", "--node-budget", "1000")
        doc = json.loads(out)
        assert code == 1
        assert doc["status"] == "budget_exhausted"
        assert doc["stats"]["nodes"] <= 1001
        assert time.monotonic() - start < 10

    def test_deep_tree_splits_in_seconds(self, capsys):
        # the search ends inline in about 120 nodes; a split, had it come
        # to one, would stop at 30 tasks per worker, not at a fixed depth of
        # k + 2 = 42 letters (2^41 prefixes)
        start = time.monotonic()
        code, out, _ = run(capsys, "search", "--k", "40", "--sigma", "2",
                           "--threads", "2", "--node-budget", "1000")
        assert code in (0, 1)
        assert json.loads(out)["stats"]["nodes"] <= 1001
        assert time.monotonic() - start < 30

    def test_pdb_target_out_of_range_exit_two(self, capsys):
        # rejected by the bounds, not a ValueError from the perfect length
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "-2",
                           "--target", "pdb")
        assert code == 2 and "sigma >= 1" in err

    def test_search_below_order_one_exit_two(self, capsys):
        # refused with the k given, not the k - 1 of the tables' up ranks
        for argv in (("enumerate-pdb", "--k", "0", "--sigma", "2"),
                     ("search", "--k", "0", "--sigma", "2", "--target",
                      "length", "--length", "3")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "need k >= 1 and sigma >= 1, got k=0 " in err
        with pytest.raises(InvalidInput, match="need k >= 1 and sigma >= 1"):
            search.enumerate_all_pdb(0, 2)

    def test_vector_count_too_long_to_print_exit_two(self, capsys):
        # C(10^20 + 299, 299) has more digits than str() converts
        code, _, err = run(capsys, "verify", "a", "--k", "9" * 20,
                           "--sigma", "300")
        assert code == 2 and "capacity bound" in err

    def test_negative_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "3",
                           "--node-budget", "-1")
        assert code == 2 and "node_budget" in err

    def test_negative_threads_exit_two(self, capsys):
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "3",
                           "--threads", "-4")
        assert code == 2 and "worker_count" in err

    def test_no_threads_environment_variable(self, tmp_path):
        # --threads has no default from the environment, so a malformed
        # value there cannot break a command
        env = dict(os.environ, PARIKHGRID_THREADS="two",
                   PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "parikhgrid.cli", "bounds", "--k", "2",
             "--sigma", "2"], capture_output=True, text=True, env=env,
            cwd=tmp_path, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_pdb_ruled_out_by_bounds_exits_one_at_once(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "search", "--k", "3", "--sigma", "6",
                           "--target", "pdb")
        doc = json.loads(out)
        assert code == 1
        assert doc["status"] == "refuted_up_to"
        assert doc["refuted_up_to"] == 58 and doc["stats"]["nodes"] == 0
        assert time.monotonic() - start < 1

    def test_wide_alphabet_pdb_found(self, capsys):
        # 120 vectors over 15 letters: a shift table of 120 * 15^2 ints
        code, out, _ = run(capsys, "search", "--k", "2", "--sigma", "15",
                           "--target", "pdb")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "found"
        code, out, _ = run(capsys, "verify", doc["witness"], "--k", "2",
                           "--sigma", "15")
        assert code == 0 and json.loads(out)["is_pdb"] is True

    def test_tables_over_the_bound_exit_two_at_once(self, capsys):
        # 77,520 vectors: their shifts alone exceed the bound
        start = time.monotonic()
        code, _, err = run(capsys, "search", "--k", "13", "--sigma", "8",
                           "--target", "pdb", "--node-budget", "1000")
        assert code == 2 and "MAX_TABLE_ENTRIES" in err
        assert time.monotonic() - start < 1

    def test_covering_search_runs_where_its_shifts_fit(self, capsys):
        # a covering search keeps its neighbour masks as a perfect cover
        # does: the shifts of 77,520 vectors exceed the bound for either
        # target, and those of 50,388 vectors fit for both
        start = time.monotonic()
        code, out, err = run(capsys, "search", "--k", "13", "--sigma", "8")
        assert (code, out) == (2, "") and "MAX_TABLE_ENTRIES" in err
        assert time.monotonic() - start < 1
        for argv in (("--k", "12", "--sigma", "8", "--target", "pdb"),
                     ("--k", "8", "--sigma", "8")):
            code, out, _ = run(capsys, "search", *argv, "--node-budget",
                               "1000")
            assert code == 1
            assert json.loads(out)["status"] == "budget_exhausted"

    def test_covering_search_over_50388_vectors_runs(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "search", "--k", "12", "--sigma", "8",
                           "--node-budget", "1000")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "budget_exhausted"
        assert doc["stats"]["nodes"] == 1001
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize("option", [
        ("--target", "length", "--length", "3000000000"),
        ("--max-len", "3000000000"),
    ])
    def test_length_over_the_bound_exit_two_at_once(self, capsys, option):
        # the kernel would allocate a few ints per letter
        start = time.monotonic()
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "2",
                           *option)
        assert code == 2 and "MAX_TABLE_ENTRIES" in err
        assert time.monotonic() - start < 1

    def test_default_budget_reproduces_k7_row(self, capsys):
        code, out, _ = run(capsys, "search", "--k", "7", "--sigma", "3")
        doc = json.loads(out)
        assert code == 0 and doc["minimal"] is True
        assert doc["witness"] == "aabbbccbbcccabacaaabcbbbbbbbaaaaaaacccccccba"


class TestOtherCommands:
    def test_walk(self, capsys):
        code, out, _ = run(capsys, "walk", "aabacabb", "--k", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["vertices"][0] == [3, 1, 0]
        assert doc["labels"][0] == ["a", "c"]

    def test_alphabet_below_one_or_unwritten_letter_exit_two(self, capsys):
        # refused as covset refuses them, not answered with a guessed
        # sigma or a letter index read in another form
        for argv in (("walk", "ab", "--k", "1", "--sigma", "0"),
                     ("covset", "ab", "--sigma", "0"),
                     ("verify", "0,1_0,+2,\uff12", "--k", "1", "--sigma",
                      "30"),
                     ("verify", "None", "--k", "1", "--sigma", "30")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ")

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "2", "--sigma", "4")
        assert code == 0
        assert json.loads(out)["shortest_lower_bound"] == 12

    def test_covset(self, capsys):
        code, out, _ = run(capsys, "covset", "aabbcca", "--sigma", "3")
        assert code == 0
        assert json.loads(out)["covset"] == [1, 2]

    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "k2-eulerian", "--k", "2",
                           "--sigma", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["is_pdb"] is True

    def test_construct_unsupported_exit_two(self, capsys):
        code, _, err = run(capsys, "construct", "kcover-not-k1", "--k", "3",
                           "--sigma", "3")
        assert code == 2 and "error" in err
        # a family that does not fit the instance says so, however large
        code, _, err = run(capsys, "construct", "binary-pdb", "--k",
                           "1000000000", "--sigma", "3")
        assert code == 2 and "binary_pdb needs sigma=2" in err

    @pytest.mark.parametrize("family,k,sigma", [
        ("binary-pdb", "99999999999999999999", "2"),
        ("binary-pdb", "1000000000", "2"),
        ("kcover-not-k1", "30", "10"),
        ("kcover-not-k1", "4", "300"),
        ("k2-eulerian", "2", "100000"),
        # 980,700 vectors, but of 1,400 counts each
        ("k2-eulerian", "2", "1400"),
    ])
    def test_construct_over_the_verify_bound_exit_two_at_once(
            self, capsys, family, k, sigma):
        # refused before the word is built, which would take gigabytes or
        # overflow a string's length; verify refuses the same instances
        start = time.monotonic()
        code, out, err = run(capsys, "construct", family, "--k", k,
                             "--sigma", sigma)
        assert (code, out) == (2, "")
        assert "bound" in err
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("family,k,sigma", [
        ("binary-pdb", "3", "2"), ("k2-eulerian", "2", "6"),
        ("kcover-not-k1", "4", "3")])
    def test_construct_verifies_once(self, capsys, monkeypatch, family, k,
                                     sigma):
        # the output reports the verification of the construction itself
        calls = []
        verify = covering.verify

        def counted(*args):
            calls.append(args)
            return verify(*args)

        monkeypatch.setattr(covering, "verify", counted)
        code, out, _ = run(capsys, "construct", family, "--k", k, "--sigma",
                           sigma)
        doc = json.loads(out)
        assert code == 0 and len(calls) == 1
        assert doc["report"] == export.report_to_dict(
            verify(doc["word"], int(k), int(sigma)))

    def test_enumerate_pdb(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "3", "--sigma", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 1
        assert doc["representatives"] == ["abbbcccaaabc"]

    def test_enumerate_pdb_past_26_letters(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "1", "--sigma",
                           "27")
        assert code == 0
        assert json.loads(out)["representatives"] == [
            ",".join(map(str, range(27)))]

    def test_enumerate_pdb_empty_exits_one(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "4", "--sigma", "3")
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_enumerate_pdb_ruled_out_by_the_counting_bound(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "3", "--sigma", "6")
        assert code == 1
        assert json.loads(out)["count"] == 0

    def test_mincov(self, capsys):
        code, out, _ = run(capsys, "mincov", "--k", "3", "--sigma", "2",
                           "--max-len", "7")
        doc = json.loads(out)
        assert code == 0
        assert doc["numerator"] == doc["denominator"] == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "grid.json"
        code, out, _ = run(capsys, "grid", "--k", "2", "--sigma", "3",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["vertex_count"] == 6

    @pytest.mark.parametrize("argv", [
        ["bounds", "--k", "2", "--sigma", "3"],
        # an open instance, which with no node cap would not end
        ["search", "--k", "6", "--sigma", "4", "--target", "pdb",
         "--node-budget", "0"],
    ])
    @pytest.mark.parametrize("where,reason", [
        ("missing/x.json", "no such directory"), (".", "is a directory")])
    def test_unwritable_output_exit_two_before_the_command_runs(
            self, capsys, monkeypatch, tmp_path, argv, where, reason):
        ran = []
        monkeypatch.setattr(covering, "bounds", lambda *a: ran.append(a))
        monkeypatch.setattr(search, "run_search", lambda *a, **kw:
                            ran.append(a))
        target = str(tmp_path / where)
        code, out, err = run(capsys, *argv, "--output", target)
        assert (code, out, ran) == (2, "", [])
        assert err == "error: cannot write --output %s: %s\n" % (target,
                                                                  reason)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device whose writes fail")
    def test_failed_write_exit_two(self, capsys):
        code, out, err = run(capsys, "bounds", "--k", "2", "--sigma", "3",
                             "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --output /dev/full: ")

    def test_consecutive_calls_share_no_state(self, capsys, monkeypatch,
                                              tmp_path):
        # the parser is built once per process; each call starts from the
        # defaults, whatever the call before it set
        assert cli._parser() is cli._parser()
        seen = []
        run_search = search.run_search

        def recorded(cfg, progress=None):
            seen.append(progress)
            return run_search(cfg, progress=progress)

        monkeypatch.setattr(search, "run_search", recorded)
        argv = ["search", "--k", "3", "--sigma", "3"]
        target = tmp_path / "table.txt"
        assert run(capsys, *argv, "--output", str(target), "--progress",
                   "--format", "table") == (0, "", "")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert target.read_text().split()[:2] == ["sigma", "k"]
        assert json.loads(out)["status"] == search.STATUS_FOUND
        assert [p is None for p in seen] == [False, True]

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "abc"])  # missing --k/--sigma
        assert exc.value.code == 2


# Values each option is drawn from, in range and out of range.  A node
# budget of 0 means no cap, so it is never drawn.
FUZZ_IN_RANGE = {
    "--k": ["1", "2", "3", "4", "6"],
    "--sigma": ["2", "3", "4", "5"],
    "--target": ["shortest", "pdb", "length"],
    "--length": ["5", "12", "22", "40"],
    "--max-len": ["12", "22", "40"],
    "--threads": ["1", "2"],
    "--node-budget": ["1", "1000", "100000"],
}
FUZZ_OUT_OF_RANGE = {
    "--k": ["0", "-1", "99999999999999999999"],
    "--sigma": ["0", "-2", "1", "300"],
    "--length": ["0", "-1"],
    "--max-len": ["0", "-1"],
    "--threads": ["0", "-1"],
    "--node-budget": ["-5"],
}
FUZZ_COMMANDS = {
    "search": ["--k", "--sigma", "--target", "--length", "--max-len",
               "--threads", "--node-budget", "--format"],
    "verify": ["--k", "--sigma", "--format"],
    "grid": ["--k", "--sigma", "--format"],
    "realize": ["--k", "--sigma"],
    "walk": ["--k", "--sigma"],
    "construct binary-pdb": ["--k", "--sigma"],
    "construct k2-eulerian": ["--k", "--sigma"],
    "construct kcover-not-k1": ["--k", "--sigma"],
    "covset": ["--sigma"],
    "bounds": ["--k", "--sigma"],
    "mincov": ["--k", "--sigma", "--max-len", "--node-budget"],
    # not enumerate-pdb: it takes no --node-budget, so a drawn (k=6,
    # sigma=5) would run the default budget of 10^8 nodes
}
FUZZ_FORMATS = {"search": ["json", "table"], "verify": ["json", "table"],
                "grid": ["json", "dot"]}
# Positional arguments of no instance in particular.
FUZZ_WORDS = ["", "zz", "a-b", "\u00e9"]
FUZZ_VECTORS = ["(1,-1),(0,0)", "((", "(a,b)", "", "(3,0,0),(0,3,0)"]
# Malformed values, at most one per call; None drops the option.
FUZZ_MALFORMED = ["x", "2.5", "", "xml", None]
# Seconds one call may take, process start included.
FUZZ_CAP = 20


def _small(text, default):
    # the drawn --k or --sigma when it is a small instance's
    try:
        value = int(text)
    except (TypeError, ValueError):
        return default
    return value if 1 <= value <= 6 else default


def _fuzz_argvs(count, seed=0xC11F):
    # Mostly calls that get past argument parsing, with words and vectors of
    # the drawn instance; then out-of-range and malformed values, dropped
    # options, and positional arguments of no instance.
    rng = random.Random(seed)
    argvs = []
    for i in range(count):
        command = sorted(FUZZ_COMMANDS)[i % len(FUZZ_COMMANDS)]
        options = FUZZ_COMMANDS[command]
        malformed = rng.choice(options) if rng.random() < 0.3 else None
        values = {}
        for option in options:
            if option == malformed:
                # without --node-budget a search may take 10^8 nodes
                values[option] = rng.choice(
                    FUZZ_MALFORMED[:-1] if option == "--node-budget"
                    else FUZZ_MALFORMED)
            elif option == "--format":
                values[option] = rng.choice(FUZZ_FORMATS[command])
            elif (option not in ("--k", "--sigma", "--node-budget")
                  and rng.random() < 0.3):
                values[option] = None
            elif option in FUZZ_OUT_OF_RANGE and rng.random() < 0.15:
                values[option] = rng.choice(FUZZ_OUT_OF_RANGE[option])
            else:
                values[option] = rng.choice(FUZZ_IN_RANGE[option])
        k = _small(values.get("--k"), 2)
        sigma = _small(values["--sigma"], 3)
        argv = command.split()
        if command in ("verify", "walk", "covset"):
            argv.append(rng.choice(FUZZ_WORDS) if rng.random() < 0.2 else
                        "".join(rng.choice("abcdef"[:sigma])
                                for _ in range(rng.randrange(20))))
        elif command == "realize":
            vectors = []
            for _ in range(rng.randint(1, 5)):
                counts = [0] * sigma
                for _ in range(k):
                    counts[rng.randrange(sigma)] += 1
                vectors.append("(%s)" % ",".join(map(str, counts)))
            argv.append(rng.choice(FUZZ_VECTORS) if rng.random() < 0.2 else
                        ",".join(vectors))
        for option, value in values.items():
            if value is not None:
                argv += [option, value]
        if rng.random() < 0.05:
            argv.append("--bogus")
        argvs.append(argv)
    return argvs


def test_fuzzed_arguments_end_cleanly(tmp_path):
    # every call ends with exit code 0, 1 or 2, within the cap and without a
    # traceback, whatever its arguments
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cli.__file__)))

    def call(argv):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "parikhgrid.cli", *argv],
                capture_output=True, text=True, env=env, cwd=tmp_path,
                timeout=FUZZ_CAP)
        except subprocess.TimeoutExpired:
            return argv, None, "timed out"
        return argv, proc.returncode, proc.stderr

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(call, _fuzz_argvs(50)))
    bad = [(argv, code, err[-300:]) for argv, code, err in results
           if code not in (0, 1, 2) or "Traceback" in err]
    assert not bad
    assert {" ".join(argv[:2 if argv[0] == "construct" else 1])
            for argv, _, _ in results} == set(FUZZ_COMMANDS)
    assert {code for _, code, _ in results} >= {0, 2}
