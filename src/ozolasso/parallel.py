"""One call run beside the caller's own work: in a forked child process when
the work is large enough to pay for the fork, inline otherwise.

The child starts as a copy of this process, so the call's function and
arguments are never sent; its result, or its exception, comes back pickled
through a pipe, and nothing else does. So a call run beside reports what it
did in its result and does not log: a record made in the child reaches only
the child's copies of the handlers, which keep it where the caller never
looks or write it out of order. Fork, not spawn: a spawned worker would
import numpy and scipy again, which costs more than the work it takes over.
A fork in a process with threads is safe only if no other thread holds a
lock the child needs. The only threads here are those of the OpenBLAS that
numpy and scipy each bundle: it stops them in its own fork handler, and each
process starts its own again at its next BLAS call. With two threads in each
of two processes on two CPUs, a paper-scale ridge CV took 3.4 times as long
as inline. So a call that makes BLAS calls passes
``threads=blas_threads()``, the count in force, and runs inline unless the
CPUs hold that many threads for each process. The CLI sets one thread, so no
environment variable changes a result. Another BLAS counts as a thread per
CPU: its threads cannot be set here, and an OpenMP pool may not survive a
fork.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import pickle
import signal
import sys
from contextlib import contextmanager
from pathlib import Path

# Bytes of text to parse or format, or of a design to cross-validate, below
# which the call runs inline. Timed on a 2-vCPU x86-64 VM, in fresh
# processes, serial against forked: loading two hourly files of 0.5 MB or
# 1 MB each took the same time either way (fork, the pickled result and the
# second process's slower parse on a shared core eat the saving); files of
# 2.4 MB each loaded 23% faster, and 5 MB ones 25%. So the call forks from
# twice the size at which the parse stopped losing. The writer, which sends
# nothing back, already gained from 0.3 MB of features.csv text; it keeps
# this one threshold on purpose, with the parse's crossover as its safety
# margin, so text of 0.3-2 MiB is written inline. Cross-validation folds are
# gated by the 8np bytes of an n x p design, stored or streamed, on the same
# constant. A lasso CV at p = 918 (2 folds x 10 lambdas, one BLAS thread,
# the median of 7 to 15 calls in one process) forked read 3% faster to 7%
# slower at 48 rows (0.34 MB), and from 96 rows (0.67 MB) on 6-43% faster in
# 8 of 9 runs (once 18% slower); so the constant keeps about the parse's
# margin.
MIN_BYTES = 2 << 20


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no affinity call
        return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple:
    """(file name, get, set) of the thread count of each OpenBLAS bundled in
    ``numpy.libs`` and ``scipy.libs``, found once per process."""
    found = []
    for package, suffix in (("numpy", "64_"), ("scipy", "")):
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob(f"libscipy_openblas{suffix}-*")):
            lib = ctypes.CDLL(str(path))
            found.append((path.name, getattr(lib, f"scipy_openblas_get_num_threads{suffix}"),
                          getattr(lib, f"scipy_openblas_set_num_threads{suffix}")))
    return tuple(found)


def set_blas_threads(n: int) -> list[str]:
    """Run each bundled OpenBLAS on ``n`` threads; their file names."""
    for _, get, set_threads in _openblas():
        if get() != n:  # setting the same count again raised paper-max8h's peak RSS 3.5 MiB
            set_threads(n)
    return [name for name, _, _ in _openblas()]


def blas_threads() -> int:
    """Threads of one BLAS call: the most a bundled OpenBLAS runs, else one per usable CPU."""
    return max((get() for _, get, _ in _openblas()), default=usable_cpus())


def forks(nbytes: int, threads: int = 1) -> bool:
    """Whether ``beside`` runs a call on ``nbytes`` in a child: the platform
    can fork, the bytes are at least MIN_BYTES, and the usable CPUs hold
    ``threads`` running threads of the caller and as many of the child."""
    return hasattr(os, "fork") and nbytes >= MIN_BYTES and usable_cpus() >= 2 * threads


def _child(fn, args, fd: int):
    """Run ``fn(*args)`` in the forked child, send (ok, value) through
    ``fd`` and leave by ``os._exit``: no caller frame is unwound here, so
    none of its cleanup runs twice and no buffer is flushed twice."""
    code = 1
    try:
        try:
            sent = (True, fn(*args))
        except Exception as exc:
            sent = (False, exc)
        try:
            data = pickle.dumps(sent)
        except Exception as exc:  # a result or exception that cannot be pickled
            data = pickle.dumps((False, exc))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _start(fn, args):
    """(pid, read end of its pipe) of a forked child making the call, or
    None when the system has no process to spare."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        os.close(read_fd)
        _child(fn, args, write_fd)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


@contextmanager
def beside(fn, *args, nbytes: int, threads: int = 1):
    """Yield a function that returns ``fn(*args)``.

    When ``forks(nbytes, threads)``, a forked child starts the call at
    once, and the yielded function waits for it: it returns the child's
    result or raises its exception with the same type, message and
    attributes. Otherwise, or when no process can be forked, the yielded
    function makes the call itself. Either way the caller sees the errors of its own work in the
    block before those of the call, as in serial code. A child still
    running when the block exits is killed; it is always reaped.
    """
    started = _start(fn, args) if forks(nbytes, threads) else None
    if started is None:
        yield lambda: fn(*args)
        return
    pid, pipe = started
    reaped = False

    def result():
        nonlocal reaped
        data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not data:
            raise ChildProcessError(
                f"worker exited with status {os.waitstatus_to_exitcode(status)} and no result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
