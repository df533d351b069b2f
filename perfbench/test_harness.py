"""Self-tests of the benchmark harness; they take a few seconds.

    python3 -m pytest perfbench -q
"""

import json
import math
import statistics
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import procs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from parikhgrid import realize, search  # noqa: E402
from parikhgrid.search import SearchConfig, SearchOutcome  # noqa: E402

FOUND_3_2 = SearchOutcome(k=2, sigma=3, target=search.TARGET_SHORTEST,
                          status=search.STATUS_FOUND, witness="aabbcca",
                          minimal=True)
REFUTED_3_4 = SearchOutcome(k=4, sigma=3, target=search.TARGET_PDB,
                            status=search.STATUS_REFUTED, refuted_up_to=18)


def test_corrupted_witness_is_caught():
    check = workloads._check_found(3, 2, 7, False)
    assert check(FOUND_3_2) is None
    assert check(replace(FOUND_3_2, witness="aabbccb")) is not None
    assert check(replace(FOUND_3_2, witness="aabbcc")) is not None
    assert check(replace(FOUND_3_2, minimal=False)) is not None
    # (3,2) perfect cover "aabbcca": repeating a window breaks perfection
    assert workloads._check_found(3, 2, 8, True)(
        replace(FOUND_3_2, witness="aabbccaa")) is not None


def test_wrong_verdict_is_caught():
    refuted = workloads._check_refuted(18)
    assert refuted(REFUTED_3_4) is None
    assert refuted(replace(REFUTED_3_4, refuted_up_to=17)) is not None
    assert refuted(replace(REFUTED_3_4, status=search.STATUS_BUDGET,
                           refuted_up_to=None)) is not None
    assert refuted(replace(REFUTED_3_4, status=search.STATUS_FOUND,
                           witness="a" * 18)) is not None
    assert workloads._check_found(3, 4, 19, False)(REFUTED_3_4) is not None


def test_wrong_answer_makes_the_run_incorrect():
    op = workloads.Op("bad", "search", lambda: REFUTED_3_4,
                      workloads._check_refuted(25))
    assert run.run_op(0, op, None).failure[0] == "wrong"
    op = workloads.Op("raises", "search", lambda: 1 / 0, lambda r: None)
    assert run.run_op(0, op, None).failure[0] == "error"


def test_call_killed_at_the_cap_counts_as_failed():
    op = workloads._cli_search_op(ROOT, 5, 4, "pdb", 1.0, 0,
                                  workloads._check_found(5, 4, 73, True))
    res = run.run_op(0, op, None)
    assert res.failure[0] == "killed"
    assert 1.0 <= res.seconds < 5.0
    assert procs.own_children() == []


def test_spread_uses_the_quartiles_of_statistics_quantiles():
    values = list(range(1, 11))
    assert statistics.quantiles(values, n=4) == [2.75, 5.5, 8.25]
    assert steady.spread(values) == (2.75, 5.5, 8.25, (8.25 - 2.75) / 5.5)
    assert steady.spread([10.0, 30.0, 20.0, 40.0])[1] == 25.0
    assert steady.spread([2.0, 2.0, 2.0])[3] == 0.0


def test_self_times_subtract_child_spans():
    recorded = [["0", "search", 0.0, 10.0, -1, "0"],
                ["t", "search.tables", 1.0, 4.0, 0, "0"],
                ["k", "kernel", 5.0, 9.0, 0, "0"],
                ["v", "covering", 6.0, 7.0, 2, "0"]]
    own = spans.self_times(recorded)
    assert own == {"search": 3.0, "search.tables": 3.0, "kernel": 3.0,
                   "covering": 1.0}
    assert sum(own.values()) == 10.0


def test_tracer_records_layers_and_restores_the_package():
    original = search._build_tables
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = tracer.run_op("0", "search", lambda: search.run_search(
            SearchConfig(k=3, sigma=3)))
    finally:
        tracer.restore()
    assert search._build_tables is original
    recorded, counts = tracer.take()
    assert outcome.stats.nodes == counts["kernel.nodes"]
    assert counts["kernel.calls"] == counts["search.tables.builds"] > 0
    own = spans.self_times(recorded)
    total = recorded[0][3] - recorded[0][2]
    assert math.isclose(sum(own.values()), total, rel_tol=1e-9)
    assert {"search", "search.tables", "kernel", "covering"} <= set(own)


def test_calls_that_raise_are_counted_as_calls_and_failures():
    tracer = spans.Tracer()
    tracer.install()
    try:
        ok = tracer.run_op("0", "realize", lambda: realize.is_realizable_set(
            [(1, 1, 0), (0, 2, 0)]))
        try:
            tracer.run_op("1", "realize", lambda: realize.is_realizable_set(
                [(1, 1, 0)], sigma=4))
        except Exception:
            pass
    finally:
        tracer.restore()
    assert ok.realizable
    counts = tracer.take()[1]
    assert counts["realize.calls"] == 2
    assert counts["realize.failed"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
