"""One CLI call in its own session, with a wall-clock cap.

The call is started as a session leader, so it and every worker it forks
share one process group that can be killed at once.  While it runs, the
session's processes are sampled from /proc for their peak resident size.
When the main process has exited or been killed at the cap, the whole group
is killed and the call is not finished until no process of the session is
left; any that had to be killed after the main process exited are reported
as leaked.
"""

import contextlib
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

clock = time.perf_counter

POLL_S = 0.1
REAP_WAIT_S = 10.0


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    seconds: float        # start to exit (or kill) of the main process
    answer_s: float       # start to the first byte of output, or None
    killed: bool          # the main process was killed at the cap
    leaked: int           # processes still running after the main one exited
    peak_rss_mb: float    # sum over the session's processes of their peaks
    survivors: tuple      # pids that could not be stopped


def _processes():
    """(pid, state, parent pid, session id) of every process in /proc."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as fh:
                text = fh.read()
        except OSError:
            continue
        fields = text.rsplit(")", 1)[1].split()
        yield int(entry), fields[0], int(fields[1]), int(fields[3])


def session_members(sid):
    """Pids of the live (not zombie) processes in session ``sid``."""
    return [pid for pid, state, _ppid, session in _processes()
            if session == sid and state != "Z"]


def own_children():
    """Pids of live processes whose parent is this process."""
    me = os.getpid()
    return [pid for pid, state, ppid, _sid in _processes()
            if ppid == me and state != "Z"]


def stop_children():
    """Kill and reap every live child of this process; returns their pids."""
    pids = own_children()
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return pids


def child_env(root):
    """Environment for a child interpreter that imports the package from the
    checkout's ``src``.  Children may write the package's bytecode caches,
    so that their start-up time does not depend on whether the caller's
    environment allows it."""
    path = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _peak_rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(argv, cap, cwd, env):
    """Run ``argv`` until its main process exits, killing its whole process
    group at ``cap`` seconds."""
    start = clock()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    out, err, marks = [], [], {}

    def pump_stdout():
        while True:
            chunk = proc.stdout.read1(65536)
            if not chunk:
                return
            marks.setdefault("answer", clock())
            out.append(chunk)

    def pump_stderr():
        err.append(proc.stderr.read())

    def wait_exit():
        proc.wait()
        marks["exit"] = clock()

    threads = [threading.Thread(target=f, daemon=True)
               for f in (pump_stdout, pump_stderr, wait_exit)]
    for t in threads:
        t.start()
    peaks = {}
    killed = False
    waiter = threads[2]
    while waiter.is_alive():
        for pid in session_members(proc.pid):
            peaks[pid] = max(peaks.get(pid, 0), _peak_rss_kb(pid))
        waiter.join(POLL_S)
        if waiter.is_alive() and clock() - start > cap:
            _kill_group(proc.pid)
            killed = True
            waiter.join()
    leaked = 0 if killed else len(session_members(proc.pid))
    survivors = stop_session(proc.pid)
    for t in threads[:2]:
        t.join(REAP_WAIT_S)
    for stream in (proc.stdout, proc.stderr):
        stream.close()
    answer = marks.get("answer")
    return CliResult(
        returncode=proc.returncode,
        stdout=b"".join(out).decode(errors="replace"),
        stderr=b"".join(err).decode(errors="replace"),
        seconds=marks["exit"] - start,
        answer_s=None if answer is None else answer - start,
        killed=killed, leaked=leaked,
        peak_rss_mb=sum(peaks.values()) / 1024.0,
        survivors=tuple(survivors))


def stop_session(sid):
    """Kill what is left of session ``sid`` and wait until it is gone;
    returns the pids still alive after the wait."""
    _kill_group(sid)
    deadline = clock() + REAP_WAIT_S
    left = session_members(sid)
    while left and clock() < deadline:
        time.sleep(POLL_S)
        left = session_members(sid)
    return left

