"""Command-line interface.

Exit codes: 0 for positive verdicts (covering / realizable / found), 1 for
negative verdicts, 2 for usage and capacity errors, and for a search
(``search``, ``enumerate-pdb``, ``mincov``) when the compiled kernel cannot
be built or loaded.

Each command imports the modules it runs, so a call loads only those:
``verify`` never loads the search or its kernel, and ``search`` never loads
walks or realize.
"""

import argparse
import functools
import json
import os
import sys

from .errors import InvalidInput, ParikhGridError


def _check_output(path):
    """Refuses, before the command runs, an --output path that cannot be
    written."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(directory):
        reason = "no such directory"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise InvalidInput("cannot write --output %s: %s" % (path, reason))


def _out(args, text):
    text = text if text.endswith("\n") else text + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput("cannot write --output %s: %s"
                           % (args.output, exc.strerror)) from exc


def _parse_vectors(text):
    """Parse a list like "(3,0,0),(0,3,0)" into vector tuples."""
    from .vectors import parse_vector

    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    return [parse_vector(p) for p in parts]


def cmd_grid(args):
    from . import export
    from .grid import build_grid

    g = build_grid(args.k, args.sigma)
    if args.format == "dot":
        _out(args, export.grid_to_dot(g))
    else:
        _out(args, json.dumps(export.grid_to_dict(g, args.directed), indent=2))
    return 0


def cmd_verify(args):
    from . import covering, export

    report = covering.verify(args.word, args.k, args.sigma)
    if args.format == "table":
        _out(args, export.cover_table([report]))
    else:
        _out(args, export.to_json(report))
    return 0 if report.is_covering else 1


def cmd_walk(args):
    from . import export, walks

    walk = walks.walk_of(args.word, args.k, args.sigma)
    doc = {
        "schema": export.SCHEMA, "kind": "walk",
        "k": walk.k, "sigma": walk.sigma(), "word": args.word,
        "vertices": [list(p) for p in walk.vertices],
        "labels": [[lab.out_letter, lab.in_letter] for lab in walk.labels],
        "enclosing_vectors": [list(p) for p in walk.enclosing_vectors()],
        "inner_vectors": [list(p) for p in walk.inner_vectors()],
        "bowfree": walk.is_bowfree(),
    }
    _out(args, json.dumps(doc, indent=2))
    return 0


def cmd_realize(args):
    from . import export, realize

    vectors = _parse_vectors(args.vectors)
    result = realize.is_realizable_set(vectors, sigma=args.sigma)
    if result.k != args.k:
        raise ParikhGridError("vectors have order %d, not k=%d"
                              % (result.k, args.k))
    _out(args, export.to_json(result))
    return 0 if result.realizable else 1


def cmd_bounds(args):
    from . import covering, export

    _out(args, export.to_json(covering.bounds(args.k, args.sigma)))
    return 0


def cmd_covset(args):
    from . import covering, export

    ks = sorted(covering.covset(args.word, args.sigma))
    _out(args, json.dumps({"schema": export.SCHEMA, "kind": "covset",
                           "sigma": args.sigma, "word": args.word,
                           "covset": ks}, indent=2))
    return 0


def cmd_construct(args):
    from . import covering, export

    # the construction's own verify() report
    word, report = covering._construct(args.family, args.k, args.sigma)
    doc = {"schema": export.SCHEMA, "kind": "construction",
           "family": args.family.replace("-", "_"), "k": args.k,
           "sigma": args.sigma, "word": word,
           "report": export.report_to_dict(report)}
    _out(args, json.dumps(doc, indent=2))
    return 0


def _progress_printer(nodes, depth, found, length):
    sys.stderr.write(json.dumps({"event": "checkpoint", "nodes": nodes,
                                 "depth": depth, "found": found,
                                 "length": length}) + "\n")
    sys.stderr.flush()


def cmd_search(args):
    from . import covering, export, search

    target = {"shortest": search.TARGET_SHORTEST, "pdb": search.TARGET_PDB,
              "length": search.TARGET_AT_LENGTH}[args.target]
    cfg = search.SearchConfig(
        k=args.k, sigma=args.sigma, target=target,
        target_length=args.length, max_len=args.max_len,
        worker_count=args.threads,
        node_budget=(search.DEFAULT_NODE_BUDGET if args.node_budget is None
                     else args.node_budget),
    )
    outcome = search.run_search(
        cfg, progress=_progress_printer if args.progress else None)
    if args.format == "table" and outcome.witness:
        report = covering.verify(outcome.witness, args.k, args.sigma)
        _out(args, export.cover_table([report]))
    else:
        _out(args, export.to_json(outcome))
    return 0 if outcome.status == search.STATUS_FOUND else 1


def cmd_enumerate_pdb(args):
    from . import export, search

    reps = search.enumerate_all_pdb(args.k, args.sigma)
    _out(args, json.dumps({"schema": export.SCHEMA, "kind": "pdb_classes",
                           "k": args.k, "sigma": args.sigma,
                           "count": len(reps), "representatives": reps},
                          indent=2))
    return 0 if reps else 1


def cmd_mincov(args):
    from . import covering, export

    report = covering.mincov_explore(args.k, args.sigma, args.max_len,
                                     node_budget=args.node_budget)
    _out(args, export.to_json(report))
    return 0


def _add_common(sub, k=True, sigma=True):
    if k:
        sub.add_argument("--k", type=int, required=True,
                         help="window length / vector order")
    if sigma:
        sub.add_argument("--sigma", type=int, required=True,
                         help="alphabet size")
    sub.add_argument("--output", help="write the result to a file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="parikhgrid",
        description="Parikh vector grids, covering words, and exhaustive "
                    "shortest-covering-word search.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("grid", help="export the order-k grid")
    _add_common(p)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--directed", action="store_true",
                   help="include labeled arcs and bows in JSON output")
    p.set_defaults(func=cmd_grid)

    p = subs.add_parser("verify", help="covering / perfect-cover check")
    p.add_argument("word")
    _add_common(p)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("walk", help="the walk a word induces")
    p.add_argument("word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sigma", type=int, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_walk)

    p = subs.add_parser("realize",
                        help='decide realizability of "(a,b,..),(c,d,..)"')
    p.add_argument("vectors")
    _add_common(p)
    p.set_defaults(func=cmd_realize)

    p = subs.add_parser("bounds", help="lower bounds and known verdicts")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("covset", help="all k for which the word is covering")
    p.add_argument("word")
    _add_common(p, k=False)
    p.set_defaults(func=cmd_covset)

    p = subs.add_parser("construct", help="emit a known construction")
    p.add_argument("family", choices=("binary-pdb", "binary_pdb",
                                      "k2-eulerian", "k2_eulerian",
                                      "kcover-not-k1", "kcover_not_k1"))
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("search", help="exhaustive search")
    _add_common(p)
    p.add_argument("--target", choices=("shortest", "pdb", "length"),
                   default="shortest")
    p.add_argument("--length", type=int, default=None,
                   help="target length (with --target length)")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads, at most one per usable CPU; a "
                        "search runs inline until its first 10^6-node "
                        "checkpoint, and only one that gets that far starts "
                        "the threads")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--progress", action="store_true",
                   help="JSON checkpoint lines on stderr: every 10^6 "
                        "nodes on one thread; with more, after each merged "
                        "task that moves the counts on, once the search "
                        "has started its threads")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("enumerate-pdb",
                        help="all perfect covers modulo relabeling/reversal")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate_pdb)

    p = subs.add_parser("mincov",
                        help="minimum (k-1)-coverage among covering words")
    _add_common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(func=cmd_mincov)

    return parser


@functools.cache
def _parser():
    # built on the first call and reused: parse_args keeps no state between
    # calls, it fills a new namespace each time
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except ParikhGridError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
