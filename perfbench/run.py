"""Benchmark of parikhgrid: the paper's searches, the search kernel, the
process pool and the library's bookkeeping paths.

    python3 perfbench/run.py --workload paper-searches --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  A run repeats
passes over the workload's operations until about ``--seconds`` have gone,
checking every output, and prints a JSON line with the run record, one line
per operation and per metric, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (one client, closed loop, at most two worker processes):

  paper-searches    the paper's shortest-cover searches, perfect-cover
                    refutations and the (3,3) perfect-cover classes; one
                    worker, in-process.  Dominated by orchestration: over a
                    thousand subtree tasks, each rebuilding its tables.
  kernel-bound      the perfect-cover search for (sigma=5, k=4); one worker,
                    in-process.  Almost all of its time is in the kernel.
  parallel-split    ``parikhgrid search --threads 2`` as a process per call,
                    timed until the process exits: an exhaustive refutation
                    and a first-witness search, three times each, and a
                    first-witness search under a wall-clock cap.  The only
                    workload with a process pool.
  grid-bookkeeping  vectors, grid, walks, realize, covering, export and the
                    in-process CLI on inputs drawn from the seed.  It never
                    reaches search or the kernel.

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median time
for a fresh interpreter to import the package and its CLI, over 20 starts
spread between the passes), ``wall_s``
(time of one pass: each in-process operation at its best time of the run,
each CLI call at its median; see ``workloads.Op.estimate``), ``ok_ratio``
(operations that gave a right answer, over those attempted) and
``peak_rss_mb``.  With ``--trace 1`` the run alternates untraced and traced
passes and reports per-layer counts and self times from the traced pass of
median length (see spans.py), and writes the spans to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import procs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "parikhgrid"
OUT = ROOT / "perfbench" / "out"
clock = time.perf_counter

SETUP_SAMPLES = 20
SETUP_BATCH = 4
SETUP_CODE = "import parikhgrid, parikhgrid.cli; parikhgrid.active_kernel()"

# Failure kinds: "error" (an exception), "killed" (a CLI call at its cap),
# "leaked" (a CLI call that left processes behind), "survivors" (processes
# that even a kill did not stop) and "wrong" (a wrong answer).  These two
# make the run incorrect:
INCORRECT = ("survivors", "wrong")

END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_ratio": "ratio",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "search.tables.builds": "count", "search.tables.self_s": "s",
    "search.lengths": "count", "search.tasks": "count", "search.self_s": "s",
    "kernel.calls": "count", "kernel.self_s": "s", "kernel.nodes": "count",
    "kernel.nodes_per_s": "1/s",
    "cli.answer_s": "s", "cli.linger_s": "s", "cli.killed": "count",
    "cli.self_s": "s",
    "vectors.neighbors.calls": "count", "vectors.self_s": "s",
    "covering.verify.calls": "count", "covering.self_s": "s",
    "grid.self_s": "s", "grid.edges": "count",
    "walks.self_s": "s", "walks.failed": "count",
    "realize.calls": "count", "realize.self_s": "s", "realize.failed": "count",
    "export.self_s": "s", "export.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class OpResult:
    name: str
    seconds: float
    failure: tuple = None   # (kind, message)
    nodes: int = None
    peak_rss_mb: float = None  # CLI calls: the call's processes together


@dataclass
class Pass:
    traced: bool
    results: list
    wall: float             # sum of the operations' times
    elapsed: float          # the whole pass, checks included
    spans: list
    counts: dict


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args, kernel_name):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(), "commit": git_commit(),
            "kernel": kernel_name}


class SetupTimer:
    """Times for a fresh interpreter to import the package and its CLI,
    taken in small batches spread over the run, so that one slow moment of
    the machine cannot move their median.  A first, untimed, start leaves
    the bytecode caches warm."""

    def __init__(self):
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.env = procs.child_env(ROOT)
        self.times = []
        self._start()

    def _start(self):
        start = clock()
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True,
                       stdout=subprocess.DEVNULL)
        return clock() - start

    def sample(self, share):
        """Take samples until their count is ``share`` of SETUP_SAMPLES,
        with a batch before the first pass."""
        want = SETUP_BATCH + (SETUP_SAMPLES - SETUP_BATCH) * min(share, 1.0)
        while len(self.times) < round(want):
            self.times.append(self._start())


def run_op(index, op, tracer):
    start = clock()
    try:
        if tracer is not None:
            result = tracer.run_op(str(index), op.layer, op.call)
        else:
            result = op.call()
    except Exception as exc:  # a failed operation is recorded; the run goes on
        return OpResult(op.name, clock() - start,
                        ("error", "%s: %s" % (type(exc).__name__,
                                              str(exc)[:200])))
    seconds = clock() - start
    failure = None
    if isinstance(result, procs.CliResult):
        seconds = result.seconds
        if result.survivors:
            failure = ("survivors", "processes %s could not be stopped"
                       % (result.survivors,))
        elif result.killed:
            failure = ("killed", "still running at the cap")
        elif result.leaked:
            failure = ("leaked", "%d processes outlived the main one"
                       % result.leaked)
    if failure is None:
        try:
            problem = op.check(result)
        except Exception as exc:  # a check that cannot read the output
            problem = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if problem:
            failure = ("wrong", problem)
    if tracer is not None and op.observe is not None:
        op.observe(result, tracer.counts)
    nodes = op.nodes(result) if op.nodes and failure is None else None
    peak = result.peak_rss_mb if isinstance(result, procs.CliResult) else None
    return OpResult(op.name, seconds, failure, nodes, peak)


def run_passes(ops, seconds, trace, tracer, between=None):
    """Passes until the next one would end after ``seconds``; with tracing,
    untraced and traced passes alternate and there is at least one of each.
    After each pass ``between`` is called with the share of ``seconds``
    gone; its own time is not counted against ``seconds``."""
    passes = []
    start = clock()
    paused = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        began = clock()
        if traced:
            tracer.install()
        try:
            results = [run_op(i, op, tracer if traced else None)
                       for i, op in enumerate(ops)]
        finally:
            if traced:
                tracer.restore()
        spans, counts = tracer.take() if traced else ([], {})
        passes.append(Pass(traced, results, sum(r.seconds for r in results),
                           clock() - began, spans, counts))
        if between is not None:
            pause = clock()
            between((pause - start - paused) / seconds)
            paused += clock() - pause
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p.elapsed for p in passes)
        if clock() - start - paused + typical > seconds:
            return passes


def op_samples(passes, field):
    """Each operation's values of ``field`` over the passes, by name."""
    samples = {}
    for p in passes:
        for r in p.results:
            samples.setdefault(r.name, []).append(getattr(r, field))
    return samples


def repeat_problems(passes):
    """Search node counts are deterministic: they must repeat in every
    pass."""
    problems = []
    for name, nodes in op_samples(passes, "nodes").items():
        seen = set(nodes) - {None}
        if len(seen) > 1:
            problems.append("%s: node counts differ between passes: %s"
                            % (name, sorted(seen)))
    return problems


def pass_time(passes, ops):
    """Time of one pass: each operation at the time its ``estimate`` takes
    from the run's samples, once per time the pass runs it."""
    estimate = {op.name: op.estimate for op in ops}
    per_pass = Counter(r.name for r in passes[0].results)
    times = op_samples(passes, "seconds")
    return sum(n * estimate[name](times[name])
               for name, n in per_pass.items())


def median_pass(passes):
    ordered = sorted(passes, key=lambda p: p.wall)
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(passes, ops, spans_mod):
    """Per-layer numbers from the traced pass of median length."""
    traced_passes = [p for p in passes if p.traced]
    traced = median_pass(traced_passes)
    own = spans_mod.self_times(traced.spans)
    counts = traced.counts
    values = {}
    for name in PER_LAYER:
        layer, _, what = name.rpartition(".")
        zero = 0.0 if PER_LAYER[name] == "s" else 0
        values[name] = (own.get(layer, 0.0) if what == "self_s"
                        else counts.get(name, zero))
    kernel_s = values["kernel.self_s"]
    values["kernel.nodes_per_s"] = (values["kernel.nodes"] / kernel_s
                                    if kernel_s else 0.0)
    values["trace.overhead_ratio"] = (
        pass_time(traced_passes, ops)
        / pass_time([p for p in passes if not p.traced], ops))
    return values, traced, own


def write_outputs(args, passes, spans_mod):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    spans_mod.write_spans(path, [(i, p.spans) for i, p in enumerate(passes)
                                 if p.traced])
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit("perfbench: no package sources at %s" % PACKAGE)
    sys.path.insert(0, str(ROOT / "src"))
    import parikhgrid
    if Path(parikhgrid.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit("perfbench: imported parikhgrid from %s, not from %s"
                 % (parikhgrid.__file__, PACKAGE))
    import spans as spans_mod
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))

    print(json.dumps({"run": run_record(args, parikhgrid.active_kernel())}))
    setup = None if args.trace else SetupTimer()
    ops = workloads.build(args.workload, args.seed, ROOT)
    tracer = spans_mod.Tracer() if args.trace else None
    if setup:
        setup.sample(0.0)
    passes = run_passes(ops, args.seconds, bool(args.trace), tracer,
                        setup.sample if setup else None)
    if setup:
        setup.sample(1.0)
    problems = repeat_problems(passes)
    survivors = procs.stop_children()
    if survivors:
        problems.append("child processes outlived the workload: %s"
                        % survivors)

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.failure]
    correct = not problems and not any(r.failure[0] in INCORRECT
                                       for r in failed)
    times = op_samples([p for p in passes if not p.traced], "seconds")
    nodes = op_samples(passes, "nodes")
    fails = op_samples(passes, "failure")
    for name in times:
        seen = set(nodes[name]) - {None}
        print("op %-34s best %8.4f s, median %8.4f s of %d%s%s" % (
            name, min(times[name]), statistics.median(times[name]),
            len(times[name]),
            "  nodes %d" % seen.pop() if len(seen) == 1 else "",
            "".join("  FAILED %s: %s" % f
                    for f in sorted(set(fails[name]) - {None}))))
    if setup:
        print("setup: median %.4f s, best %.4f s, worst %.4f s of %d starts"
              % (statistics.median(setup.times), min(setup.times),
                 max(setup.times), len(setup.times)))
    for problem in problems:
        print("problem:", problem)

    if args.trace:
        metrics, traced, own = layer_metrics(passes, ops, spans_mod)
        units = PER_LAYER
        print("traced pass: wall %.4f s, self times sum to %.4f s; spans in %s"
              % (traced.wall, sum(own.values()),
                 write_outputs(args, passes, spans_mod).relative_to(ROOT)))
        if args.workload == "parallel-split":
            print("note: time spent inside the CLI processes (search, tables, "
                  "kernel) is not visible from the benchmark and reads 0; "
                  "kernel.nodes and cli.answer_s are the counts the CLI "
                  "reports")
    else:
        cli_peaks = [r.peak_rss_mb for r in results
                     if r.peak_rss_mb is not None]
        metrics = {
            "setup_s": statistics.median(setup.times),
            "wall_s": pass_time(passes, ops),
            "ok_ratio": 1.0 - len(failed) / len(results),
            "peak_rss_mb": (max(cli_peaks) if cli_peaks else
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0),
        }
        units = END_TO_END
    for name, value in metrics.items():
        print("metric %s = %r %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": correct, "attempted": len(results), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))


if __name__ == "__main__":
    main()
