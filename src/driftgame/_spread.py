"""One Monte Carlo pass shared with a forked helper process.

simulate.stacked_path_functionals hands a pass (its ScanJob) to scan()
here from simulate._SPREAD_MIN_PATHS (1024) paths up; the rest of the
decision is made here.  On Linux, when this process may run on another
CPU (its affinity set, so taskset limits it), the pass forks one helper.
Elsewhere it runs serially in driftgame._scan: fork is unsafe on macOS,
and no other platform is tested.  A pass whose every path stops at t = 0
runs serially too: _scan.unscanned writes it whole, so it has no path to
share.

Before the fork the path range is cut into at most MAX_CHUNKS chunks of
whole multiples of CHUNK_PATHS paths, and every chunk's index is written
into one pipe, the queue, as an 8-byte record.  Caller and helper each
run one lane scan, _scan.scan_paths under every measure of the pass, fed
with the paths of the chunks it claims: a process reads the next record
only when its lanes need a path and it has none left, so its lanes take
paths across chunks and drain once, when the queue is empty.  A pipe read
of a whole record already in the pipe is atomic, so each chunk is
claimed once.  Each measure's slots come from _scan.unscanned laid out
in an anonymous shared mapping, so both processes write their paths in
place, each in its own slot, and add every sum in place: the result is
bit-identical to one scan in one process.  scan() returns a private heap
copy of the slots: the mapping would stay shared with any
process the caller forks later, which could then write into the result.

The helper is a fork of the caller: it starts with the kernel imported and
its scratch built, and shares the caller's memory copy on write.  It ignores
SIGINT, so ^C reaches only the caller, keeps no inherited file descriptor
but the queue's read end, and claims no chunk once the caller has died:
it ends when the paths it has claimed are scanned.
It reports nothing but its exit status, 0 only if it scanned every chunk it
took, and has been reaped before scan() returns or raises.  Where no pipe
or process can be had, or the helper fails (it raises, or is killed), the
caller scans the whole pass again in _scan.scan: the kernel is
deterministic, so that gives what a serial run gives, its result or its
exception.
"""

from __future__ import annotations

import dataclasses
import mmap
import os
import select
import signal
import sys
import warnings

import numpy as np

from . import _scan
from ._scan import PathFunctionals

CHUNK_PATHS = 256   # paths of a queue chunk, at least

_RECORD = np.dtype("<i8")   # one chunk index in the queue
MAX_CHUNKS = select.PIPE_BUF // _RECORD.itemsize   # 512 on Linux


def scan(job: _scan.ScanJob, n: int) -> tuple:
    """_scan.scan(job, n), with a forked helper process scanning some of
    its chunks, under every measure of the pass, where this process may
    use a second CPU on Linux and some path is scanned; the helper has
    ended on return."""
    if sys.platform != "linux" or _cpu_count() < 2 or _scan._stops_at_zero(job):
        return _scan.scan(job, n)
    try:
        queue_r, queue_w = os.pipe()
    except OSError:   # no descriptor to spare: scan in this process
        return _scan.scan(job, n)
    try:
        chunk = _fill_queue(queue_w, n)
    finally:
        os.close(queue_w)
    helper, status = None, 0
    try:
        _scan.scan_scratch(job)   # built before the fork, for both
        shared = _scan.unscanned(job, n, lambda size: mmap.mmap(-1, size))
        caller = os.getpid()
        # SIGINT waits until the child ignores it and the caller holds its pid
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            helper = _fork()
            if helper == 0:
                _serve(job, shared, chunk, n, queue_r, caller, mask)
        except OSError:   # no process to spare: this one scans every chunk
            pass
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        _scan.scan_paths(job, shared, _queued(queue_r, chunk, n))
        if helper is not None:
            _, status = os.waitpid(helper, 0)
            helper = None
    finally:
        if helper is not None:
            os.kill(helper, signal.SIGKILL)
            os.waitpid(helper, 0)
        os.close(queue_r)
    if status:   # some chunk the helper took may be unscanned
        return _scan.scan(job, n)
    return tuple(PathFunctionals(*(getattr(pf, field.name).copy()
                                   for field in dataclasses.fields(PathFunctionals)))
                 for pf in shared)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, so taskset limits it.
    Called on Linux only, where os.sched_getaffinity always exists."""
    return len(os.sched_getaffinity(0))


def _fill_queue(queue_w: int, n: int) -> int:
    """Write the index of every chunk of the n paths into the empty queue
    pipe, and return the paths per chunk: CHUNK_PATHS, or the fewest whole
    multiples of it that cut the n paths into at most MAX_CHUNKS chunks.

    Nothing reads the pipe yet, so the records must fit in it: they are
    one write of at most PIPE_BUF bytes, which an empty pipe takes whole."""
    chunk = CHUNK_PATHS * -(-n // (CHUNK_PATHS * MAX_CHUNKS))
    os.write(queue_w, np.arange(-(-n // chunk), dtype=_RECORD).tobytes())
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


def _serve(job: _scan.ScanJob, shared: tuple, chunk: int, n: int, queue_r: int,
           caller: int, mask) -> None:
    """The helper process: scan the paths of chunks from the queue until it
    is empty or the caller has died, and exit 0 if every chunk it took was
    scanned.  Never returns into the caller's frames."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)   # drops one pending
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # Other threads' pipes, stdio and sockets were copied in by the
        # fork; holding them would keep their readers from seeing EOF.
        os.closerange(0, queue_r)
        os.closerange(queue_r + 1, os.sysconf("SC_OPEN_MAX"))
        _scan.scan_paths(job, shared, _queued(queue_r, chunk, n, caller))
        code = 0
    finally:
        os._exit(code)


def _queued(queue_r: int, chunk: int, n: int, caller: int | None = None):
    """The paths of the chunks this process claims from the queue, of n
    paths in chunks of chunk paths, each chunk claimed when the last one's
    paths are taken, until the queue is empty; with caller, no chunk is
    claimed once that process has died."""
    while caller is None or os.getppid() == caller:
        index = _claim(queue_r)
        if index is None:
            return
        yield from range(index * chunk, min(n, (index + 1) * chunk))


def _claim(queue_r: int) -> int | None:
    """The next chunk index in the queue; None once it is empty."""
    record = os.read(queue_r, _RECORD.itemsize)
    return int.from_bytes(record, "little") if record else None
