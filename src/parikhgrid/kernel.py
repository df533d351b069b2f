"""Selects the search kernel at import time.

The compiled kernel is the plain C file ``_kernel.c`` next to this module,
loaded through ctypes.  On import it is compiled with ``cc -O2 -shared
-fPIC`` into ``$XDG_CACHE_HOME/parikhgrid`` (``~/.cache/parikhgrid`` when
that is unset) under a name keyed by a checksum of the source, the flags
and the machine, so an edited source is rebuilt and an unchanged one is
built once.  The cache keeps the KEEP_BUILDS builds loaded most recently,
so checkouts of a few sources that share it do not rebuild.  When
there is no compiler, the build fails or the cache cannot be written, the
pure-Python twin (``_kernel_py``) is used instead and ``FALLBACK_REASON``
says why.  PARIKHGRID_PURE_KERNEL=1 forces the pure-Python kernel (useful
for benchmarking and for debugging kernel parity).
"""

import array
import ctypes
import math
import os
import zlib

from . import _kernel_py
from ._kernel_py import (  # noqa: F401  (re-exported constants)
    ALL_RULES,
    PROGRESS_INTERVAL,
    RULE_COMPONENTS,
    RULE_DUPLICATE,
    RULE_REMAINING,
)

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
# Builds the cache keeps, the most recently loaded ones.
KEEP_BUILDS = 4

# Results of pg_fixed_length_search, as defined in _kernel.c.
_COMPLETE, _NO_MEMORY = 1, -2
# The C node counter is a long long; a larger budget cannot be reached.
_MAX_NODES = 2**63 - 1

_FOUND = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)
_PROGRESS = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_longlong, ctypes.c_int,
                             ctypes.c_longlong)
_INTS = ctypes.POINTER(ctypes.c_int)


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "parikhgrid")


def _build():
    """Path of the shared library built from _SOURCE, compiling it first when
    the cache has no build of this source.  Raises OSError when the source
    cannot be read, the compiler cannot be run or fails, or the cache cannot
    be written."""
    with open(_SOURCE, "rb") as f:
        source = f.read()
    key = zlib.crc32(" ".join(_CFLAGS + (os.uname().machine,)).encode(),
                     zlib.crc32(source))
    directory = _cache_dir()
    target = os.path.join(directory, "_kernel-%08x.so" % key)
    if os.path.exists(target):
        try:
            # the time it was last loaded, for _remove_stale_builds
            os.utime(target)
        except OSError:
            pass
        return target

    import subprocess
    os.makedirs(directory, exist_ok=True)
    # a name of its own for each process, so that concurrent builds never
    # write the same file; os.replace then publishes a complete build
    tmp = "%s.%d.tmp" % (target, os.getpid())
    try:
        try:
            proc = subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SOURCE],
                                  capture_output=True, text=True,
                                  timeout=300)
        except (OSError, subprocess.SubprocessError) as exc:
            raise OSError("cannot run cc: %s" % exc) from exc
        if proc.returncode != 0:
            raise OSError("cc exited with %d: %s"
                          % (proc.returncode, proc.stderr.strip()))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_stale_builds(directory)
    return target


def _remove_stale_builds(directory):
    """Deletes from the cache directory all builds but the KEEP_BUILDS
    most recently loaded (by modification time); the temporary files of
    builds in progress stay, and a file that cannot be removed is left."""
    try:
        names = os.listdir(directory)
    except OSError:
        return
    builds = []
    for name in names:
        path = os.path.join(directory, name)
        if name.startswith("_kernel-") and name.endswith(".so"):
            try:
                builds.append((os.stat(path).st_mtime, path))
            except OSError:
                pass
    for _mtime, path in sorted(builds, reverse=True)[KEEP_BUILDS:]:
        try:
            os.unlink(path)
        except OSError:
            pass


def _load(path):
    """The ctypes handle of the kernel library at ``path``, argument types
    declared."""
    lib = ctypes.CDLL(path)
    lib.pg_fixed_length_search.argtypes = (
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        _INTS, ctypes.c_int, ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
        ctypes.c_longlong, ctypes.c_longlong, _FOUND, _PROGRESS,
        ctypes.POINTER(ctypes.c_longlong), ctypes.POINTER(ctypes.c_int))
    lib.pg_fixed_length_search.restype = ctypes.c_int
    lib.pg_find_covering_naive.argtypes = (
        ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        _INTS, ctypes.c_char_p)
    lib.pg_find_covering_naive.restype = ctypes.c_int
    return lib


def _int_array(values):
    """A C int array holding ``values``; it keeps its own buffer alive."""
    buf = array.array("i", values)
    return (ctypes.c_int * len(buf)).from_buffer(buf)


def _check_tables(k, sigma, tables):
    # tables of another (k, sigma) would lead the C kernel off its arrays,
    # and a letter is a byte
    n_vec, shift = tables
    if (sigma > 256 or n_vec != math.comb(k + sigma - 1, sigma - 1)
            or len(shift) != n_vec * sigma * sigma):
        raise ValueError("kernel tables do not match k=%d sigma=%d"
                         % (k, sigma))


def _compiled_search(k, sigma, length, tables, pdb_only, rules, prefix,
                     collect_limit, node_budget, progress=None):
    """See _kernel_py.fixed_length_search; identical contract.  An exception
    raised by ``progress`` stops the search and propagates."""
    _check_tables(k, sigma, tables)
    if len(prefix) > length or any(not 0 <= c < sigma for c in prefix):
        raise ValueError("prefix %r is not a word of at most %d letters over "
                         "%d letters" % (tuple(prefix), length, sigma))
    n_vec, shift = tables
    solutions = []
    raised = []

    def guarded(fn):
        # ctypes cannot pass an exception through C, so the callback records
        # it, asks the search to stop, and it is raised once the search has
        # returned
        def call(*args):
            try:
                fn(*args)
            except BaseException as exc:
                raised.append(exc)
                return 1
            return 0
        return call

    found = _FOUND(guarded(
        lambda word: solutions.append(ctypes.string_at(word, length))))
    # _PROGRESS() is a NULL function pointer: no progress reports
    checkpoint = (_PROGRESS(guarded(progress)) if progress is not None
                  else _PROGRESS())
    nodes, max_depth = ctypes.c_longlong(), ctypes.c_int()
    status = _lib.pg_fixed_length_search(
        k, sigma, length, n_vec, _int_array(shift), 1 if pdb_only else 0,
        rules, bytes(prefix), len(prefix),
        collect_limit, min(node_budget or 0, _MAX_NODES), found, checkpoint,
        ctypes.byref(nodes), ctypes.byref(max_depth))
    if raised:
        raise raised[0]
    if status == _NO_MEMORY:
        raise MemoryError("search kernel could not allocate its state")
    return (status == _COMPLETE, solutions, nodes.value, max_depth.value)


def _compiled_naive(k, sigma, length, tables):
    """See _kernel_py.find_covering_naive; identical contract."""
    _check_tables(k, sigma, tables)
    if length < 1:
        return None
    n_vec, shift = tables
    word = ctypes.create_string_buffer(length)
    hit = _lib.pg_find_covering_naive(k, sigma, length, n_vec,
                                      _int_array(shift), word)
    if hit == _NO_MEMORY:
        raise MemoryError("naive enumerator could not allocate its state")
    return word.raw if hit else None


FALLBACK_REASON = None
_lib = None
if os.environ.get("PARIKHGRID_PURE_KERNEL"):
    FALLBACK_REASON = "PARIKHGRID_PURE_KERNEL is set"
else:
    try:
        _lib = _load(_build())
    except OSError as exc:
        FALLBACK_REASON = "compiled kernel unavailable: %s" % exc

if _lib is None:
    fixed_length_search = _kernel_py.fixed_length_search
    find_covering_naive = _kernel_py.find_covering_naive
    KERNEL_NAME = _kernel_py.KERNEL_NAME
else:
    fixed_length_search = _compiled_search
    find_covering_naive = _compiled_naive
    KERNEL_NAME = "compiled"


def active_kernel():
    """Name of the kernel in use: 'compiled' or 'pure-python'.  When it is
    'pure-python', FALLBACK_REASON says why."""
    return KERNEL_NAME
