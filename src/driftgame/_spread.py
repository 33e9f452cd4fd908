"""One Monte Carlo pass shared with a forked helper process.

simulate.stacked_path_functionals hands a pass, one config's paths under
every measure of the pass, to scan() here from simulate._SPREAD_MIN_PATHS
(1024) paths up; the rest of the decision is made here.  On Linux, when
this process may run on another CPU (its affinity set, so taskset limits
it), the pass forks one helper.  Elsewhere it runs serially in
driftgame._scan: fork is unsafe on macOS, and no other platform is tested.

Before the fork the path range is cut into chunks of CHUNK_PATHS paths and
every chunk's index is written into one pipe, the queue, as an 8-byte
record.  Caller and helper each read one record at a time and scan that
chunk with _scan.scan_paths, under every measure of the pass, until the
queue is empty; a pipe read of a whole record already in the pipe is
atomic, so each chunk is scanned once, and neither process waits on the
other before its last chunk.  Each measure's slots come from
_scan.unscanned laid out in an anonymous shared mapping, so the helper
writes its paths in place.  Every path lands in its own slot, so the
result is bit-identical to one scan in one process.  scan() returns a
private heap copy of the slots: the mapping would stay shared with any
process the caller forks later, which could then write into the result.

The helper is a fork of the caller: it starts with the kernel imported and
its scratch built, and shares the caller's memory copy on write.  It ignores
SIGINT, so ^C reaches only the caller, closes every file descriptor it
inherited but its two pipes, and ends within one chunk of the caller's
death.  It reports only a failure, as a pickled exception on a
second pipe; the caller re-raises it with its type, and a helper that dies
is a RuntimeError.  The helper has ended and been reaped before scan()
returns or raises.
"""

from __future__ import annotations

import dataclasses
import fcntl
import mmap
import os
import pickle
import signal
import sys
import warnings

import numpy as np

from . import _scan
from ._scan import PathFunctionals

CHUNK_PATHS = _scan.BATCH_PATHS   # one batch of the kernel per chunk

_RECORD = np.dtype("<i8")   # one chunk index in the queue


def scan(jobs: tuple, n: int) -> tuple:
    """_scan.scan(jobs, n), with a forked helper process scanning some of
    its chunks, under every measure of the pass, where this process may
    use a second CPU on Linux; the helper has ended on return."""
    if sys.platform != "linux" or _cpu_count() < 2:
        return _scan.scan(jobs, n)
    _scan.scan_scratch(len(jobs))   # built once, before the fork, for both processes
    shared = tuple(_scan.unscanned(n, len(job.z_pays), len(job.betas),
                                   lambda size: mmap.mmap(-1, size))
                   for job in jobs)
    queue_r, queue_w = os.pipe()
    os.set_blocking(queue_w, False)   # see _fill_queue
    error_r, error_w = os.pipe()
    open_fds = [queue_r, queue_w, error_r, error_w]

    def close(fd: int) -> None:
        open_fds.remove(fd)
        os.close(fd)

    helper, status = None, 0
    try:
        chunk = _fill_queue(queue_w, n)
        close(queue_w)
        caller = os.getpid()
        # SIGINT waits until the child ignores it and the caller holds its pid
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            helper = _fork()
            if helper == 0:
                _serve(jobs, shared, chunk, queue_r, error_w, caller, mask)
        except OSError:   # no process to spare: this one scans every chunk
            pass
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        close(error_w)
        _scan_queue(jobs, shared, chunk, queue_r)
        error = _read_to_end(error_r)   # ends when the helper does
        if helper is not None:
            _, status = os.waitpid(helper, 0)
            helper = None
    finally:
        if helper is not None:
            os.kill(helper, signal.SIGKILL)
            os.waitpid(helper, 0)
        for fd in open_fds:
            os.close(fd)
    if error:
        raise pickle.loads(error)
    if status:
        raise RuntimeError("a Monte Carlo helper process died")
    return tuple(PathFunctionals(*(getattr(pf, field.name).copy()
                                   for field in dataclasses.fields(PathFunctionals)))
                 for pf in shared)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, so taskset limits it.
    Called on Linux only, where os.sched_getaffinity always exists."""
    return len(os.sched_getaffinity(0))


def _fill_queue(queue_w: int, n: int) -> int:
    """Write the index of every chunk of the n paths into the empty queue
    pipe, and return the paths per chunk: CHUNK_PATHS, or more where the
    pipe cannot hold a record per chunk of CHUNK_PATHS.

    Nothing reads the pipe yet, so a write that found it full would wait
    forever; queue_w is non-blocking, and such a write raises
    BlockingIOError instead."""
    records = fcntl.fcntl(queue_w, fcntl.F_GETPIPE_SZ) // _RECORD.itemsize
    chunk = max(CHUNK_PATHS, -(-n // records))
    view = memoryview(np.arange(-(-n // chunk), dtype=_RECORD).tobytes())
    while view:   # the records fit in the pipe
        view = view[os.write(queue_w, view):]
    return chunk


def _fork() -> int:
    """os.fork(), without the warning Python 3.12+ gives when the process
    has other threads.

    numpy's OpenBLAS pool is such a thread.  The child is safe without
    it: the kernel calls no BLAS routine, and the child imports nothing,
    logs nothing and touches no stdio, so it takes no lock that another
    thread held at the fork (glibc resets malloc's own locks in the
    child).  It leaves only through os._exit.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", category=DeprecationWarning,
            message=r"This process \(pid=\d+\) is multi-threaded, "
                    r"use of fork\(\) may lead to deadlocks in the child\.")
        return os.fork()


def _serve(jobs: tuple, shared: tuple, chunk: int, queue_r: int,
           error_w: int, caller: int, mask) -> None:
    """The helper process: scan chunks from the queue until it is empty or
    the caller has died, and write a pickled exception to error_w if the
    scan raises.  Never returns into the caller's frames."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # drops one pending
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # Other threads' pipes, stdio and sockets were copied in by the
        # fork; holding them would keep their readers from seeing EOF.
        low = 0
        for fd in sorted((queue_r, error_w)):
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        try:
            _scan_queue(jobs, shared, chunk, queue_r, caller)
            code = 0
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            view = memoryview(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
            while view:
                view = view[os.write(error_w, view):]
    finally:
        os._exit(code)


def _scan_queue(jobs: tuple, shared: tuple, chunk: int, queue_r: int,
                caller: int | None = None) -> None:
    """Scan the chunks whose indices this process reads from the queue until
    it is empty; with caller, stop as well once that process has died."""
    while (index := _claim(queue_r)) is not None:
        lo = index * chunk
        _scan.scan_paths(jobs, lo, tuple(_scan.slots(out, lo, lo + chunk)
                                         for out in shared))
        if caller is not None and os.getppid() != caller:
            return


def _claim(queue_r: int) -> int | None:
    """The next chunk index in the queue; None once it is empty."""
    record = os.read(queue_r, _RECORD.itemsize)
    return int.from_bytes(record, "little") if record else None


def _read_to_end(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 65536):
        parts.append(part)
    return b"".join(parts)
