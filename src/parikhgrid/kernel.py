"""The search kernel: the plain C file ``_kernel.c`` next to this module,
loaded through ctypes.  Its header describes the search and its prune
rules.  It builds the search's tables (``build_tables``), in two counting
passes over the vectors in rank order, searches one word length
(``fixed_length_search``) and enumerates every word of a length
(``find_covering_naive``).

On first use it is compiled with ``cc -O2 -shared -fPIC`` into
``$XDG_CACHE_HOME/parikhgrid`` (``~/.cache/parikhgrid`` when that is
unset) under a name keyed by a checksum of the source, the flags and the
machine, so an edited source is rebuilt and an unchanged one is built
once.  The cache keeps the KEEP_BUILDS builds loaded most recently,
so checkouts of a few sources that share it do not rebuild.  Importing
this module builds nothing.  When there is no compiler, the build fails or
the cache cannot be written, each call of an entry point or of
``active_kernel()`` raises ParikhGridError, naming the reason; nothing but
a search needs the kernel.
"""

import ctypes
import math
import os
import zlib

# As _kernel.c defines them.
PROGRESS_INTERVAL = 1_000_000

RULE_DUPLICATE = 1
RULE_REMAINING = 2
RULE_COMPONENTS = 4
ALL_RULES = 7

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
# Builds the cache keeps, the most recently loaded ones.
KEEP_BUILDS = 4

# Results of pg_fixed_length_search, as defined in _kernel.c.
_COMPLETE, _NO_MEMORY = 1, -2
# The C node counter is a long long: the largest node budget.
MAX_NODES = 2**63 - 1

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
        _remove_stale_builds(directory)
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
    lib.pg_build_shift.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_int,
                                   _INTS)
    lib.pg_build_shift.restype = ctypes.c_int
    return lib


def _shifts(k, sigma, tables):
    """The shift table of ``tables`` as a C int array over the buffer of
    its ``array('i')``, without a copy; ValueError when the tables are not
    those of (k, sigma)."""
    # tables of another (k, sigma) would lead the C kernel off its arrays,
    # and a letter is a byte
    n_vec, shift = tables
    if (sigma > 256 or n_vec != math.comb(k + sigma - 1, sigma - 1)
            or len(shift) != n_vec * sigma * sigma):
        raise ValueError("kernel tables do not match k=%d sigma=%d"
                         % (k, sigma))
    return (ctypes.c_int * len(shift)).from_buffer(shift)


# The loaded library, once _kernel() has built and loaded it.
_lib = None


def _kernel():
    """The ctypes handle of the kernel library, built and loaded on the first
    call; raises ParikhGridError, naming the reason, when it cannot be."""
    global _lib
    if _lib is None:
        try:
            _lib = _load(_build())
        except OSError as exc:
            # imported here: importing this module loads no other module of
            # the package
            from .errors import ParikhGridError
            raise ParikhGridError("compiled kernel unavailable: %s"
                                  % exc) from exc
    return _lib


def build_tables(k, sigma):
    """The kernel's tables, (n_vec, shift): shift is an array of C ints,
    and shift[(idx*sigma + out)*sigma + c] is the rank of p - e_out + e_c
    for p of rank idx (-1 when p[out] is 0)."""
    import array   # imported here: importing this module does not load it

    lib = _kernel()
    n_vec = math.comb(k + sigma - 1, sigma - 1)
    tables = (n_vec, array.array("i", [0]) * (n_vec * sigma * sigma))
    if lib.pg_build_shift(k, sigma, n_vec,
                          _shifts(k, sigma, tables)) == _NO_MEMORY:
        raise MemoryError("table builder could not allocate its state")
    return tables


def fixed_length_search(k, sigma, length, tables, pdb_only, rules, prefix,
                        collect_limit, node_budget, progress=None):
    """Explores the canonical words of exactly ``length`` letters that
    extend ``prefix``, on ``tables`` as built by build_tables, under the
    prune rules of the ``rules`` mask.  collect_limit <= 0 collects every
    solution.  It explores at most ``node_budget`` counted nodes, an int
    from 0 to MAX_NODES; the node past them is counted and ends the search
    incomplete, so a budget of 0 gives (False, [], 1, 0) without a prefix.
    ``progress(nodes, pos, found)`` is called every PROGRESS_INTERVAL
    nodes; an exception it raises stops the search and propagates.
    Returns (complete, solutions, nodes, max_depth) where solutions is a
    list of bytes (letter indices) in discovery order and complete is False
    only when the node budget ran out."""
    lib = _kernel()
    shifts = _shifts(k, sigma, tables)
    if len(prefix) > length or any(not 0 <= c < sigma for c in prefix):
        raise ValueError("prefix %r is not a word of at most %d letters over "
                         "%d letters" % (tuple(prefix), length, sigma))
    if not 0 <= node_budget <= MAX_NODES:
        raise ValueError("node budget %r is not in 0 .. MAX_NODES"
                         % (node_budget,))
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
    status = lib.pg_fixed_length_search(
        k, sigma, length, tables[0], shifts, 1 if pdb_only else 0,
        rules, bytes(prefix), len(prefix),
        collect_limit, node_budget, found, checkpoint,
        ctypes.byref(nodes), ctypes.byref(max_depth))
    if raised:
        raise raised[0]
    if status == _NO_MEMORY:
        raise MemoryError("search kernel could not allocate its state")
    return (status == _COMPLETE, solutions, nodes.value, max_depth.value)


def find_covering_naive(k, sigma, length, tables):
    """First covering word of the given length in plain lexicographic order,
    as bytes of letter indices, or None.  Enumerates all sigma**length
    words: no canonical-form restriction, no pruning.  Independent check
    for refutations."""
    lib = _kernel()
    shifts = _shifts(k, sigma, tables)
    if length < 1:
        return None
    word = ctypes.create_string_buffer(length)
    hit = lib.pg_find_covering_naive(k, sigma, length, tables[0], shifts,
                                     word)
    if hit == _NO_MEMORY:
        raise MemoryError("naive enumerator could not allocate its state")
    return word.raw if hit else None


def active_kernel():
    """'compiled', the one search kernel, once it is loaded; raises
    ParikhGridError, naming the reason, when it cannot be built or
    loaded."""
    _kernel()
    return "compiled"
