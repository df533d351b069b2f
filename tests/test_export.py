import json
import os
import subprocess
import sys

import pytest

from parikhgrid import covering, export, realize, search
from parikhgrid.errors import CapacityExceeded, InvalidInput
from parikhgrid.grid import PdbGrid, build_grid

from helpers import check_dot


def _sample_reports():
    yield covering.verify("aabbcca", 2, 3)
    yield covering.verify("abab", 3, 3)
    yield covering.bounds(4, 3)
    yield covering.bounds(2, 5)
    yield search.run_search(search.SearchConfig(k=2, sigma=3))
    yield search.run_search(search.SearchConfig(k=4, sigma=3,
                                              target=search.TARGET_PDB))
    yield realize.is_realizable_set([(2, 1, 0), (1, 2, 0)])
    yield realize.is_realizable_set([(3, 0, 0), (0, 3, 0)])
    yield covering.mincov_explore(3, 2, 7)


class TestJsonRoundTrip:
    def test_every_report_kind(self):
        for report in _sample_reports():
            text = export.to_json(report)
            back = export.from_json(text)
            assert back == report, type(report).__name__

    def test_every_report_kind_with_only_export_imported(self):
        # export loads the report classes of search and realize only when
        # it reads such a report
        reports = list(_sample_reports())
        script = """
import json, sys
from parikhgrid import export
print(json.dumps([export.to_json(export.from_json(text))
                  for text in json.load(sys.stdin)]))
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(export.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=60,
            input=json.dumps([export.to_json(r) for r in reports]))
        assert proc.returncode == 0, proc.stderr
        assert [export.from_json(t) for t in json.loads(proc.stdout)] \
            == reports

    def test_schema_stamp(self):
        for report in _sample_reports():
            assert json.loads(export.to_json(report))["schema"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            export.dict_to_report({"kind": "nonsense"})

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidInput, match="cannot serialize"):
            export.report_to_dict(search.SearchStats(1, 0.0, 1))

    def test_vectors_as_integer_arrays(self):
        doc = json.loads(export.to_json(covering.verify("abab", 3, 3)))
        assert all(isinstance(v, list) for v in doc["missing"])


class TestGridExport:
    def test_json_counts_4_3(self):
        doc = export.grid_to_dict(build_grid(4, 3))
        assert doc["vertex_count"] == 15
        assert len(doc["vertices"]) == 15
        assert len(doc["undirected_edges"]) == 30
        assert len(doc["bows"]) == 30

    def test_positions_only_for_three_letters(self):
        doc3 = export.grid_to_dict(build_grid(2, 3))
        doc4 = export.grid_to_dict(build_grid(2, 4))
        assert all("pos" in v for v in doc3["vertices"])
        assert all("pos" not in v for v in doc4["vertices"])

    def test_directed_flag(self):
        g = build_grid(2, 3)
        doc = export.grid_to_dict(g, include_directed=True)
        assert len(doc["directed_edges"]) == (2 * g.undirected_edge_count()
                                              + g.bow_count())

    def test_entry_bound_is_checked_before_the_export_is_built(
            self, monkeypatch):
        # (k=25, sigma=5) has 330,876 vertices, edges and bows, and 511,875
        # arcs besides; at the bound the export goes on to read the arcs
        g = build_grid(25, 5)
        monkeypatch.setattr(PdbGrid, "arcs", None)
        with pytest.raises(CapacityExceeded, match="MAX_EXPORT_ENTRIES"):
            export.grid_to_dict(g, include_directed=True)
        for bound, raised in [(330_875, CapacityExceeded),
                              (330_876, TypeError)]:
            monkeypatch.setattr(export, "MAX_EXPORT_ENTRIES", bound)
            for build in (export.grid_to_dict, export.grid_to_dot):
                with pytest.raises(raised):
                    build(g)

    def test_vertices_carry_rank_and_vector(self):
        g = build_grid(3, 3)
        doc = export.grid_to_dict(g)
        for entry in doc["vertices"]:
            assert g.rank(tuple(entry["vector"])) == entry["rank"]


class TestDot:
    def test_valid_for_all_small_grids(self):
        for k in range(1, 6):
            for sigma in range(1, 6):
                check_dot(export.grid_to_dot(build_grid(k, sigma)))

    def test_triangle_with_self_loops(self):
        dot = export.grid_to_dot(build_grid(1, 3))
        assert dot.count("--") == 6  # 3 edges + 3 bows
        assert 'label="a"' in dot and 'label="c"' in dot

    def test_golden_k2_s3(self):
        # edges once and then bows, both in arc order: by source rank, then
        # leaving letter, then entering letter
        assert export.grid_to_dot(build_grid(2, 3)) == """\
graph grid_k2_s3 {
  node [shape=circle];
  v0 [label="(2,0,0)" pos="0.0000,0.0000!"];
  v1 [label="(1,1,0)" pos="1.0000,0.0000!"];
  v2 [label="(0,2,0)" pos="2.0000,0.0000!"];
  v3 [label="(1,0,1)" pos="0.5000,0.8660!"];
  v4 [label="(0,1,1)" pos="1.5000,0.8660!"];
  v5 [label="(0,0,2)" pos="1.0000,1.7321!"];
  v0 -- v1;
  v0 -- v3;
  v1 -- v2;
  v1 -- v4;
  v1 -- v3;
  v2 -- v4;
  v3 -- v4;
  v3 -- v5;
  v4 -- v5;
  v0 -- v0 [label="a"];
  v1 -- v1 [label="a"];
  v1 -- v1 [label="b"];
  v2 -- v2 [label="b"];
  v3 -- v3 [label="a"];
  v3 -- v3 [label="c"];
  v4 -- v4 [label="b"];
  v4 -- v4 [label="c"];
  v5 -- v5 [label="c"];
}
"""

    def test_positions_in_dot_for_sigma3(self):
        dot = export.grid_to_dot(build_grid(4, 3))
        assert 'pos="0.0000,0.0000!"' in dot


class TestTable:
    def test_columns(self):
        table = export.cover_table([covering.verify("aabbcca", 2, 3)])
        header, row = table.strip().splitlines()
        assert header.split() == ["sigma", "k", "word", "length", "pdb",
                                  "excess"]
        assert row.split() == ["3", "2", "aabbcca", "7", "yes", "0"]

    def test_non_covering_marker(self):
        table = export.cover_table([covering.verify("ab", 3, 3)])
        assert "not covering" in table
