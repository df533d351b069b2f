import json
import time

import pytest

from parikhgrid import cli, kernel

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
        assert "bound" in err


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

    def test_progress_lines_with_two_threads(self, capsys):
        code, _, err = run(capsys, "search", "--k", "3", "--sigma", "3",
                           "--threads", "2", "--progress")
        assert code == 0
        events = [json.loads(line) for line in err.splitlines()]
        # one line per merged task of the length-12 search that moved the
        # node count or the number found
        assert events
        assert all(e["event"] == "checkpoint" and e["length"] == 12
                   for e in events)
        moved = [(e["nodes"], e["found"]) for e in events]
        assert all(a != b for a, b in zip(moved, moved[1:]))

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
        # the split stops at 30 tasks per worker, not at a fixed depth of
        # k + 2 = 42 letters (2^41 prefixes)
        start = time.monotonic()
        code, out, _ = run(capsys, "search", "--k", "40", "--sigma", "2",
                           "--threads", "2", "--node-budget", "1000")
        assert code in (0, 1)
        assert json.loads(out)["stats"]["nodes"] <= 1001
        assert time.monotonic() - start < 30

    def test_negative_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "3",
                           "--node-budget", "-1")
        assert code == 2 and "node_budget" in err

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

    @pytest.mark.parametrize("option", [
        ("--target", "length", "--length", "3000000000"),
        ("--max-len", "3000000000"),
    ])
    def test_length_over_the_bound_exit_two_at_once(self, capsys, option):
        # the kernels would allocate a few ints per letter
        start = time.monotonic()
        code, _, err = run(capsys, "search", "--k", "2", "--sigma", "2",
                           *option)
        assert code == 2 and "MAX_TABLE_ENTRIES" in err
        assert time.monotonic() - start < 1

    @pytest.mark.skipif(kernel.KERNEL_NAME != "compiled",
                        reason="about 10^7 nodes; minutes on the pure kernel")
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

    def test_enumerate_pdb(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "3", "--sigma", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 1
        assert doc["representatives"] == ["abbbcccaaabc"]

    def test_enumerate_pdb_empty_exits_one(self, capsys):
        code, out, _ = run(capsys, "enumerate-pdb", "--k", "4", "--sigma", "3")
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

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "abc"])  # missing --k/--sigma
        assert exc.value.code == 2
