import mmap
import os
import time

import numpy as np
import pytest

from driftgame import ModelParams, build_solution

# Base-case parameters used throughout the numerical study.
BASE = dict(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.1)


@pytest.fixture(scope="session")
def base_params():
    return ModelParams(**BASE)


@pytest.fixture(scope="session")
def base_solution(base_params):
    return build_solution(base_params)


def _random_params(n=20, seed=20260810):
    """Valid-by-construction parameter sets around the base case."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(ModelParams(
            mu0=-float(rng.uniform(0.2, 2.5)),
            mu1=float(rng.uniform(0.2, 2.5)),
            sigma=float(rng.uniform(0.25, 2.0)),
            eps=float(rng.uniform(0.03, 0.4)),
            x0=float(rng.uniform(0.5, 2.0)),
            prior=float(rng.uniform(0.15, 0.85)),
        ))
    return out


@pytest.fixture(scope="session")
def random_param_sets():
    return _random_params()


@pytest.fixture(scope="session")
def random_solutions(random_param_sets):
    return [build_solution(p) for p in random_param_sets]


class HelperSwitch:
    """Turns the Monte Carlo kernel's helper process on or off.

    While on, the calling process takes its first chunk only after the
    helper has taken one, so that both processes scan paths.
    helper_chunks is the number of chunks the helper took in the last split
    scan (counted in memory shared with it), and helpers lists every helper
    process started.
    """

    def __init__(self, monkeypatch):
        import driftgame._spread as spread

        self._monkeypatch = monkeypatch
        self._spread = spread
        self._real_fork = spread._fork
        self._real_claim = spread._claim
        self._caller = os.getpid()
        self._taken = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
        self._waited = True
        self.helpers = []
        monkeypatch.setattr(spread, "_fork", self._fork)
        monkeypatch.setattr(spread, "_claim", self._claim)

    def set(self, on: bool) -> None:
        self._monkeypatch.setattr(self._spread, "_cpu_count", lambda: 2 if on else 1)

    @property
    def helper_chunks(self) -> int:
        return int(self._taken[0])

    def all_ended(self) -> bool:
        """Whether every helper started has ended and been reaped."""
        for pid in self.helpers:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True

    def _fork(self):
        self._taken[0] = 0
        pid = self._real_fork()
        if pid:
            self.helpers.append(pid)
            self._waited = False
        return pid

    def _claim(self, queue_r):
        if os.getpid() != self._caller:   # in the helper
            index = self._real_claim(queue_r)
            self._taken[0] += index is not None
            return index
        if not self._waited:
            self._waited = True
            deadline = time.monotonic() + 60.0
            while (self._taken[0] == 0 and time.monotonic() < deadline
                   and os.waitid(os.P_PID, self.helpers[-1], os.WEXITED
                                 | os.WNOHANG | os.WNOWAIT) is None):
                time.sleep(0.001)
        return self._real_claim(queue_r)


@pytest.fixture
def helper_switch(monkeypatch):
    return HelperSwitch(monkeypatch)
