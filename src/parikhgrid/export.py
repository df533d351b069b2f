"""Serialization: versioned JSON for every report type, DOT for grids, and
a plain table format for covering-word results.

Every report kind round-trips: dict_to_report(report_to_dict(x)) == x.
"""

import json
import sys

from .errors import CapacityExceeded, InvalidInput

SCHEMA = 1


def _vec(p):
    return list(p)


def _vecs(ps):
    return [list(p) for p in ps]


def _is(obj, module, name):
    """isinstance(obj, <module>.<name>) for a submodule of this package,
    without importing it: until the module is loaded, no instance of its
    classes exists."""
    loaded = sys.modules.get("%s.%s" % (__package__, module))
    return loaded is not None and isinstance(obj, getattr(loaded, name))


def report_to_dict(obj):
    """Serialize any report dataclass to a schema-stamped dict."""
    if _is(obj, "covering", "CoverReport"):
        return {
            "schema": SCHEMA, "kind": "cover_report",
            "k": obj.k, "sigma": obj.sigma, "word": obj.word,
            "is_covering": obj.is_covering, "is_pdb": obj.is_pdb,
            "excess": obj.excess,
            "missing": _vecs(obj.missing),
            "duplicated": [{"vector": _vec(p), "multiplicity": m}
                           for p, m in obj.duplicated],
        }
    if _is(obj, "covering", "BoundsReport"):
        return {
            "schema": SCHEMA, "kind": "bounds_report",
            "k": obj.k, "sigma": obj.sigma,
            "pdb_length": obj.pdb_length,
            "counting_bound": obj.counting_bound,
            "shortest_lower_bound": obj.shortest_lower_bound,
            "pdb_possible_by_bounds": obj.pdb_possible_by_bounds,
            "uc_divisibility": obj.uc_divisibility,
            "known_verdict": {"verdict": obj.known_verdict.verdict,
                              "reason": obj.known_verdict.reason},
        }
    if _is(obj, "search", "SearchOutcome"):
        return {
            "schema": SCHEMA, "kind": "search_outcome",
            "k": obj.k, "sigma": obj.sigma, "target": obj.target,
            "status": obj.status, "witness": obj.witness,
            "minimal": obj.minimal, "refuted_up_to": obj.refuted_up_to,
            "stats": {"nodes": obj.stats.nodes, "elapsed": obj.stats.elapsed,
                      "max_depth": obj.stats.max_depth},
        }
    if _is(obj, "realize", "RealizabilityResult"):
        return {
            "schema": SCHEMA, "kind": "realizability_result",
            "k": obj.k, "sigma": obj.sigma, "realizable": obj.realizable,
            "witness": obj.witness,
            "refutation": (None if obj.refutation is None else
                           {"component_a": _vecs(obj.refutation[0]),
                            "component_b": _vecs(obj.refutation[1])}),
        }
    if _is(obj, "covering", "MincovReport"):
        return {
            "schema": SCHEMA, "kind": "mincov_report",
            "k": obj.k, "sigma": obj.sigma, "max_len": obj.max_len,
            "numerator": obj.value.numerator,
            "denominator": obj.value.denominator,
            "estimate_only": obj.estimate_only,
            "minimizing_word": obj.minimizing_word,
            "words_enumerated": obj.words_enumerated,
        }
    raise InvalidInput("cannot serialize %r" % type(obj).__name__)


def dict_to_report(d):
    """Inverse of report_to_dict."""
    kind = d.get("kind")
    if kind == "cover_report":
        from .covering import CoverReport

        return CoverReport(
            k=d["k"], sigma=d["sigma"], word=d["word"],
            is_covering=d["is_covering"], is_pdb=d["is_pdb"],
            excess=d["excess"],
            missing=tuple(tuple(p) for p in d["missing"]),
            duplicated=tuple((tuple(e["vector"]), e["multiplicity"])
                             for e in d["duplicated"]),
        )
    if kind == "bounds_report":
        from .covering import BoundsReport, KnownVerdict

        return BoundsReport(
            k=d["k"], sigma=d["sigma"], pdb_length=d["pdb_length"],
            counting_bound=d["counting_bound"],
            shortest_lower_bound=d["shortest_lower_bound"],
            pdb_possible_by_bounds=d["pdb_possible_by_bounds"],
            uc_divisibility=d["uc_divisibility"],
            known_verdict=KnownVerdict(verdict=d["known_verdict"]["verdict"],
                                       reason=d["known_verdict"]["reason"]),
        )
    if kind == "search_outcome":
        from .search import SearchOutcome, SearchStats

        return SearchOutcome(
            k=d["k"], sigma=d["sigma"], target=d["target"],
            status=d["status"], witness=d["witness"], minimal=d["minimal"],
            refuted_up_to=d["refuted_up_to"],
            stats=SearchStats(nodes=d["stats"]["nodes"],
                              elapsed=d["stats"]["elapsed"],
                              max_depth=d["stats"]["max_depth"]),
        )
    if kind == "realizability_result":
        from .realize import RealizabilityResult

        ref = d["refutation"]
        return RealizabilityResult(
            realizable=d["realizable"], k=d["k"], sigma=d["sigma"],
            witness=d["witness"],
            refutation=(None if ref is None else
                        (tuple(tuple(p) for p in ref["component_a"]),
                         tuple(tuple(p) for p in ref["component_b"]))),
        )
    if kind == "mincov_report":
        from fractions import Fraction

        from .covering import MincovReport

        return MincovReport(
            k=d["k"], sigma=d["sigma"], max_len=d["max_len"],
            value=Fraction(d["numerator"], d["denominator"]),
            estimate_only=d["estimate_only"],
            minimizing_word=d["minimizing_word"],
            words_enumerated=d["words_enumerated"],
        )
    raise InvalidInput("unknown report kind %r" % (kind,))


def to_json(obj, indent=2):
    return json.dumps(report_to_dict(obj), indent=indent)


def from_json(text):
    return dict_to_report(json.loads(text))


# -- grid exports -----------------------------------------------------------

# Bound on the entries of a grid export: its vertices, undirected edges and
# bows, plus its arcs when they are included.  The whole export is held in
# memory; a JSON export with arcs takes up to about 1 KB per entry at its
# peak, DOT about 0.2 KB, so an export stays within about 0.5 GB.
MAX_EXPORT_ENTRIES = 500_000


def _check_export_size(grid, include_directed=False):
    """Refuses, before anything is built, an export over
    MAX_EXPORT_ENTRIES; every count is a closed form."""
    edges, bows = grid.undirected_edge_count(), grid.bow_count()
    # each edge is two arcs and each bow one
    entries = (grid.vertex_count + edges + bows
               + (2 * edges + bows if include_directed else 0))
    if entries > MAX_EXPORT_ENTRIES:
        raise CapacityExceeded(
            "an export of the k=%d sigma=%d grid would have %d vertices, "
            "edges, bows%s, above the MAX_EXPORT_ENTRIES bound of %d"
            % (grid.k, grid.sigma, entries,
               " and arcs" if include_directed else "", MAX_EXPORT_ENTRIES))


def grid_to_dict(grid, include_directed=False):
    _check_export_size(grid, include_directed)
    from .grid import layout_2d

    pos = layout_2d(grid) if grid.sigma == 3 else None
    letters = [grid.alphabet.letter(c) for c in range(grid.sigma)]
    edges, bows, arcs = [], [], []
    for i, j, out, into in grid.arcs():
        if out == into:
            bows.append({"vertex": i, "letter": letters[out]})
        elif i < j:
            edges.append([i, j])
        if include_directed:
            arcs.append({"from": i, "to": j,
                         "out": letters[out], "in": letters[into]})
    out = {
        "schema": SCHEMA, "kind": "grid",
        "k": grid.k, "sigma": grid.sigma,
        "vertex_count": grid.vertex_count,
        "undirected_edge_count": grid.undirected_edge_count(),
        "bow_count": grid.bow_count(),
        "vertices": [
            {"rank": i, "vector": _vec(p),
             **({"pos": [pos[p][0], pos[p][1]]} if pos else {})}
            for i, p in enumerate(grid.vertices())
        ],
        "undirected_edges": edges,
        "bows": bows,
    }
    if include_directed:
        out["directed_edges"] = arcs
    return out


def grid_to_dot(grid):
    """Undirected DOT rendering: vector-labeled nodes (positioned for
    sigma=3), each neighbor edge once, bows as letter-labeled self-loops."""
    _check_export_size(grid)
    from .grid import layout_2d
    from .vectors import format_vector

    pos = layout_2d(grid) if grid.sigma == 3 else None
    lines = ["graph grid_k%d_s%d {" % (grid.k, grid.sigma),
             "  node [shape=circle];"]
    for i, p in enumerate(grid.vertices()):
        attrs = ['label="%s"' % format_vector(p)]
        if pos is not None:
            attrs.append('pos="%.4f,%.4f!"' % pos[p])
        lines.append("  v%d [%s];" % (i, " ".join(attrs)))
    letters = [grid.alphabet.letter(c) for c in range(grid.sigma)]
    bows = []
    for i, j, out, into in grid.arcs():
        if out == into:
            bows.append('  v%d -- v%d [label="%s"];' % (i, i, letters[out]))
        elif i < j:
            lines.append("  v%d -- v%d;" % (i, j))
    lines += bows
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- table format -----------------------------------------------------------

_TABLE_HEADER = ("sigma", "k", "word", "length", "pdb", "excess")


def cover_table(reports):
    """Plain table with columns sigma | k | word | length | pdb | excess."""
    rows = [_TABLE_HEADER]
    for r in reports:
        excess = "-" if r.excess is None else str(r.excess)
        pdb = "yes" if r.is_pdb else ("no" if r.is_covering else "not covering")
        rows.append((str(r.sigma), str(r.k), r.word, str(len(r.word)), pdb,
                     excess))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
