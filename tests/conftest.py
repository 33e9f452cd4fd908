import os

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
    """Turns path_functionals' helper process on (started however short the
    scan) or off.

    While on, the calling process waits for the helper to be up before it
    scans its second chunk, so that both processes scan paths.
    helper_chunks is the number of chunks the helper returned in the last
    split scan, and helpers lists every helper process started.
    """

    def __init__(self, monkeypatch):
        import driftgame._spread as spread

        self._monkeypatch = monkeypatch
        self._spread = spread
        self._real_start = spread._start_helper
        self._real_receive = spread._receive
        self._up = False
        self.helper_chunks = 0
        self.helpers = []
        monkeypatch.setattr(spread, "_start_helper", self._start_helper)
        monkeypatch.setattr(spread, "_receive", self._receive)
        monkeypatch.setattr(spread, "HELPER_START_S", 0.0)

    def set(self, on: bool) -> None:
        self._monkeypatch.setattr(self._spread, "_cpu_count", lambda: 2 if on else 1)

    def all_ended(self) -> bool:
        """Whether every helper started has ended and been reaped."""
        for pid, _, _ in self.helpers:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True

    def _start_helper(self):
        self._up, self.helper_chunks = False, 0
        helper = self._real_start()
        self.helpers.append(helper)
        return helper

    def _receive(self, helper, wait):
        msgs = self._real_receive(helper, wait or not self._up)
        self._up = True   # the helper's first message says it is up
        self.helper_chunks += sum(msg is not None for msg in msgs)
        return msgs


@pytest.fixture
def helper_switch(monkeypatch):
    return HelperSwitch(monkeypatch)
