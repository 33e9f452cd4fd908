"""One streaming-kernel scan shared with a helper process.

simulate.path_functionals calls scan() from simulate._SPREAD_MIN_PATHS
(2048) paths up; the rest of the decision is made here.  The path range is
cut into chunks of CHUNK_PATHS paths and the caller scans chunk 0 first.
It starts one helper only when this process may run on another CPU (its
affinity set, so taskset limits it) and chunk 0's time predicts at least
HELPER_START_S of work left: a helper's start-up (a fresh interpreter
importing numpy, about 0.2 s on a 2-vCPU VM) would not end before the scan
does.

The helper is ``python -S -c`` running serve(), started with posix_spawn.
It imports the kernel and never the caller's __main__, so a script needs
no ``if __name__ == "__main__"`` guard.  It reads the pickled job and then
path ranges on its stdin and answers each range on its stdout.  The caller
scans chunks from the front and hands chunks from the back to the helper,
HELPER_HOLDS at a time, so the helper never waits for the caller to finish
a chunk of its own.  Every path lands in its own slot, so the result is bit-identical to
one scan in one process.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import select
import signal
import struct
import sys
import time

import numpy as np

from . import _scan, simulate
from .simulate import PathFunctionals, _ScanJob, _slots

CHUNK_PATHS = _scan.BATCH_PATHS   # one batch of the kernel per chunk
HELPER_START_S = 0.25
HELPER_HOLDS = 2   # chunks handed to the helper and not yet returned, at most

_HEADER = struct.Struct("<Q")   # byte length of the pickled message after it


def scan(job: _ScanJob, out: PathFunctionals) -> None:
    """simulate._scan_paths(job, 0, out), with a helper process scanning
    some of its chunks when that pays; the helper has ended on return."""
    n, chunk = out.n_paths, CHUNK_PATHS
    n_chunks = -(-n // chunk)
    t0 = time.perf_counter()
    simulate._scan_paths(job, 0, _slots(out, 0, chunk))
    left_s = (time.perf_counter() - t0) * (n_chunks - 1)
    helper = None
    if _cpu_count() > 1 and left_s >= HELPER_START_S:
        helper = _start_helper()
    if helper is None:
        simulate._scan_paths(job, chunk, _slots(out, chunk, n))
        return

    try:
        _send(helper, job)
        front, back = 1, n_chunks   # chunks [front, back) are unclaimed
        held = None                 # the helper's chunks; None until it is up
        while front < back or held:
            for msg in _receive(helper, wait=front == back):
                if msg is None:     # the helper is up
                    held = 0
                else:
                    _put(out, *msg)
                    held -= 1
            while held is not None and held < HELPER_HOLDS and front < back:
                back -= 1
                _send(helper, (back * chunk, min(n, back * chunk + chunk)))
                held += 1
            if front < back:
                lo = front * chunk
                front += 1
                simulate._scan_paths(job, lo, _slots(out, lo, lo + chunk))
    finally:
        _end_helper(helper)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set, so taskset limits it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _start_helper() -> tuple[int, int, int] | None:
    """(pid, fd of its stdin, fd of its stdout) of a new helper process;
    None where none can start."""
    if not hasattr(os, "posix_spawn"):
        return None
    # The caller's sys.path stands in for site (-S), and a bare package
    # object for driftgame/__init__, which would import the closed-form
    # layer: about 0.08 s less start-up on a 2-vCPU VM.
    path = [entry for entry in sys.path if isinstance(entry, str)]
    package_dir = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys, types; "
            f"sys.path[:] = {path!r}; "
            "sys.modules['driftgame'] = package = types.ModuleType('driftgame'); "
            f"package.__path__ = [{package_dir!r}]; "
            "import driftgame._spread; driftgame._spread.serve()")
    stdin_r, stdin_w = os.pipe()
    stdout_r, stdout_w = os.pipe()
    try:
        # a process group of its own: ^C at a terminal reaches only the caller
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-S", "-c", code], os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, stdin_r, 0),
                          (os.POSIX_SPAWN_DUP2, stdout_w, 1)],
            setpgroup=0)
    except OSError:
        os.close(stdin_w)
        os.close(stdout_r)
        return None
    finally:
        os.close(stdin_r)
        os.close(stdout_w)
    return pid, stdin_w, stdout_r


def _end_helper(helper: tuple[int, int, int]) -> None:
    """Kill the helper (idle by now unless the scan failed) and reap it."""
    pid, stdin_w, stdout_r = helper
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    os.close(stdin_w)
    os.close(stdout_r)


def serve() -> None:
    """Helper process: read the job, report None once up, then answer each
    path range (lo, hi) with (lo, its PathFunctionals) until stdin closes;
    an exception is sent instead and ends the helper."""
    out = os.dup(1)
    os.dup2(2, 1)   # a stray print goes to stderr, not into the messages
    job = _read(0)
    _write(out, None)
    try:
        while True:
            lo, hi = _read(0)
            part = simulate._unscanned(hi - lo, len(job.z_pays))
            simulate._scan_paths(job, lo, part)
            _write(out, (lo, part))
    except EOFError:
        pass
    except Exception as exc:  # noqa: BLE001 - re-raised in the caller
        _write(out, exc)


def _send(helper: tuple[int, int, int], msg) -> None:
    try:
        _write(helper[1], msg)
    except BrokenPipeError:
        raise _died() from None


def _receive(helper: tuple[int, int, int], wait: bool) -> list:
    """The messages the helper has sent; with wait, at least one.  A
    helper's exception is raised here."""
    fd = helper[2]
    msgs = []
    while select.select([fd], [], [], None if wait and not msgs else 0)[0]:
        try:
            msg = _read(fd)
        except EOFError:
            raise _died() from None
        if isinstance(msg, Exception):
            raise msg
        msgs.append(msg)
    return msgs


def _died() -> RuntimeError:
    return RuntimeError("a path_functionals helper process died")


def _write(fd: int, msg) -> None:
    data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int):
    """The next message on fd; EOFError once its writer has closed it."""
    size, = _HEADER.unpack(_read_bytes(fd, _HEADER.size))
    return pickle.loads(_read_bytes(fd, size))


def _read_bytes(fd: int, size: int) -> bytearray:
    buf = bytearray()
    while len(buf) < size:
        part = os.read(fd, size - len(buf))
        if not part:
            raise EOFError
        buf += part
    return buf


def _put(out: PathFunctionals, lo: int, part: PathFunctionals) -> None:
    """Copy the paths of part into out's slots from lo on."""
    for field in dataclasses.fields(PathFunctionals):
        getattr(out, field.name)[..., lo:lo + part.n_paths] = getattr(part, field.name)
