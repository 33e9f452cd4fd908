"""Operations of the three benchmark workloads and their correctness gates.

An operation ("op") is one user job: one or more `driftgame` command lines,
run in-process through `driftgame.cli.main`.  Every command's output is
parsed and checked; an op fails on a non-zero exit code, any exception
(including ones the CLI does not catch), a failed `all_pass` or
`qvi.all_pass`, or a base-case value that misses its reference.

Only the standard library is imported here, so that importing this module
does not hide the cost of importing numpy and driftgame from `setup_s`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass

WORKLOADS = ("mc-oracle", "deviations-paired", "study")

# Base case of the numerical study, and its closed-form thresholds as this
# code computes them (A, B to full precision: they place the mc-oracle
# starting points exactly as acceptance criterion 5 does).
BASE_FLAGS = ("--mu0", "-1", "--mu1", "1", "--sigma", "0.5", "--eps", "0.1")
BASE_A = 0.3291992562213167
BASE_B = 0.8681076322511255
# Acceptance criteria 1 and 2: thresholds to 1e-3.
REF_TOL = 1e-3
REF_SOLVE = {"A": 0.329, "B": 0.868, "a": 0.248, "b": 0.465}
REF_SYMMETRIC = {"a": 0.193, "b": 0.758}

# Criterion 5's interior starting points.  A/2 is left out: its paths stop
# at t=0, so the op would time the CLI and not the kernel.
MC_PHIS = ((BASE_A + BASE_B) / 2, BASE_B, 1.5 * BASE_B)
MC_PATHS = 10_000
# A run ends only after whole cycles of a workload's ops, so that each
# starting point has the same weight in every run's medians.
CYCLE = {"mc-oracle": len(MC_PHIS)}
DEV_PHI = 0.6
DEV_PATHS = 5_000
DEV_THREADS = 2
DEV_P1_ROWS = 25 * 9    # default --aprime-points x --phi-points
DEV_P2_ROWS = 5 + 2     # default --bprime-mults and --jump-probs
SETUP_PATHS = 10

VOI_GRID = 99
SWEEP_POINTS = 25
SWEEP_PARAMS = ("mu0", "mu1", "sigma", "eps")
PATH_DT = "1e-3"        # criterion 7's grid; horizon stays at the default 50
TRAJECTORY_HEADER = "t,X,Phi,PhiB,PiStar,Gamma,L"

# Neighbourhood of the test fixtures from which later study jobs draw.
STUDY_RANGES = {"mu0": (-2.5, -0.2), "mu1": (0.2, 2.5), "sigma": (0.25, 2.0),
                "eps": (0.03, 0.4), "pi": (0.15, 0.85)}

# Log-grid of valid parameters on which the solvers are known to fail.
PROBE_GRID = {"mu0": (-50.0, -5.0, -1.0, -1e-3), "mu1": (1e-3, 1.0, 5.0, 50.0),
              "sigma": (1e-2, 0.1, 1.0, 10.0), "eps": (1e-6, 1e-3, 0.1, 10.0)}


class GateError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Call:
    """One command line and the check of its standard output.

    `check(text)` raises GateError on a wrong output and otherwise returns
    the largest standard error the output reports (0 for exact outputs).
    """

    argv: tuple
    check: object


@dataclass(frozen=True)
class Op:
    calls: tuple
    paths: int          # sample paths the op asks for


@dataclass
class OpResult:
    wall_s: float       # sum of the cli.main calls, checks excluded
    ok: bool
    stderr_max: float
    output_bytes: int
    traceback: bool     # an exception escaped cli.main
    reason: str = ""


# -- checks -------------------------------------------------------------------

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GateError(msg)


def _near(got: dict, ref: dict, what: str) -> None:
    for key, want in ref.items():
        _require(abs(got[key] - want) <= REF_TOL,
                 f"{what} {key}={got[key]!r} not within {REF_TOL} of {want}")


def _csv(text: str) -> tuple[dict, str, list[list[str]]]:
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _check_mc(phi: float, seed: int, paths: int):
    def check(text: str) -> float:
        doc = json.loads(text)
        meta = doc["metadata"]
        _require((meta["phi"], meta["seed"], meta["paths"]) == (phi, seed, paths),
                 "metadata does not echo the flags")
        _require([c["check"] for c in doc["checks"]] == ["J0", "J1", "Jhat"],
                 "checks are not J0, J1, Jhat")
        _require(doc["all_pass"] is True, "all_pass is false")
        return max(c["stderr"] for c in doc["checks"])
    return check


def _check_deviations(seed: int, paths: int):
    def check(text: str) -> float:
        doc = json.loads(text)
        meta = doc["metadata"]
        _require((meta["seed"], meta["paths"]) == (seed, paths),
                 "metadata does not echo the flags")
        _require(len(doc["player1"]) == DEV_P1_ROWS
                 and len(doc["player2"]) == DEV_P2_ROWS, "wrong row count")
        _require(doc["all_pass"] is True, "all_pass is false")
        return max(r["stderr"] for r in doc["player2"])
    return check


def _check_solve(base: bool):
    def check(text: str) -> float:
        doc = json.loads(text)
        _require(doc["qvi"]["all_pass"] is True, "qvi.all_pass is false")
        if base:
            _near(doc["solution"], REF_SOLVE, "solve")
        return 0.0
    return check


def _check_symmetric(base: bool):
    def check(text: str) -> float:
        sol = json.loads(text)["solution"]
        _require(0.0 < sol["a"] < sol["b"] < 1.0, "thresholds not ordered in (0, 1)")
        if base:
            _near(sol, REF_SYMMETRIC, "symmetric")
        return 0.0
    return check


def _check_voi(text: str) -> float:
    _, header, rows = _csv(text)
    _require(header == "pi,value_symmetric,value_asymmetric,difference",
             "voi header")
    _require(len(rows) == VOI_GRID, "voi row count")
    _require(all(math.isfinite(float(v)) for row in rows for v in row),
             "voi value not finite")
    return 0.0


def _check_sweep(text: str) -> float:
    _, header, rows = _csv(text)
    _require(header == "param,value,A,B,a,b,status", "sweep header")
    _require(len(rows) == SWEEP_POINTS, "sweep row count")
    return 0.0


def _check_path(text: str) -> float:
    """Acceptance criterion 7's sample-path properties."""
    meta, header, rows = _csv(text)
    _require(header == TRAJECTORY_HEADER, "path header")
    _require(len(rows) >= 1, "path has no rows")
    a, b = float(meta["a"]), float(meta["b"])
    pistar = [float(r[4]) for r in rows]
    gamma = [float(r[5]) for r in rows]
    _require(all(p <= b + 1e-12 for p in pistar), "PiStar exceeds b")
    _require(all(pistar[k] >= b - 1e-12 for k in range(1, len(rows))
                 if gamma[k] > gamma[k - 1]),
             "Gamma increased away from the barrier")
    if meta["censored"] == "False":
        _require(pistar[-1] <= a and all(p > a for p in pistar[:-1]),
                 "path did not stop at the first crossing of a")
    return 0.0


# -- op generators --------------------------------------------------------------

def mc_op(phi: float, seed: int, paths: int, threads: int = 1) -> Op:
    argv = ("mc", "--phi", repr(phi), "--seed", str(seed), "--threads",
            str(threads), "--paths", str(paths))
    return Op((Call(argv, _check_mc(phi, seed, paths)),), paths)


def _deviations_op(seed: int, paths: int) -> Op:
    argv = ("deviations", "--phi", repr(DEV_PHI), "--paths", str(paths),
            "--seed", str(seed), "--threads", str(DEV_THREADS))
    return Op((Call(argv, _check_deviations(seed, paths)),), paths)


def _study_op(params: dict | None, pi: float, sweep_param: str, seed: int) -> Op:
    """Reproduce the study for one parameter set (None: the base case)."""
    base = params is None
    flags = BASE_FLAGS if base else tuple(itertools.chain.from_iterable(
        (f"--{k}", repr(v)) for k, v in params.items()))
    calls = (
        Call(("solve", *flags, "--pi", repr(pi)), _check_solve(base)),
        Call(("symmetric", *flags), _check_symmetric(base)),
        Call(("voi", *flags, "--grid", str(VOI_GRID)), _check_voi),
        Call(("sweep", *flags, "--param", sweep_param), _check_sweep),
        Call(("path", *flags, "--pi", repr(pi), "--seed", str(seed),
              "--dt", PATH_DT), _check_path),
    )
    return Op(calls, 1)


def _seed(rng: random.Random) -> int:
    return rng.getrandbits(63)


def ops(workload: str, seed: int, paths: int | None = None):
    """Endless op sequence of a workload; the same seed gives the same ops.
    `paths` replaces the Monte Carlo path count (set-up uses 10)."""
    rng = random.Random(f"{workload}/{seed}")
    for i in itertools.count():
        if workload == "mc-oracle":
            yield mc_op(MC_PHIS[i % len(MC_PHIS)], _seed(rng), paths or MC_PATHS)
        elif workload == "deviations-paired":
            yield _deviations_op(_seed(rng), paths or DEV_PATHS)
        elif workload == "study":
            params = None if i == 0 else {
                k: rng.uniform(*STUDY_RANGES[k]) for k in SWEEP_PARAMS}
            pi = 0.35 if i == 0 else rng.uniform(*STUDY_RANGES["pi"])
            yield _study_op(params, pi, SWEEP_PARAMS[i % len(SWEEP_PARAMS)],
                            _seed(rng))
        else:
            raise ValueError(f"unknown workload {workload!r}")


def setup_op(workload: str, seed: int) -> Op:
    """The workload's first op at minimal size, to be run cold."""
    return next(ops(workload, seed, paths=SETUP_PATHS))


def small_ops() -> list[Op]:
    """One small op of each workload at fixed seeds, for the traced run."""
    return [mc_op(DEV_PHI, 1, 1_000), _deviations_op(1, 1_000),
            _study_op(None, 0.35, "mu1", 1)]


def domain_probe_ops() -> list[Op]:
    """`solve` and `symmetric` over the 4^4 log-grid of valid parameters."""
    out = []
    for cmd, check in (("solve", _check_solve(False)),
                       ("symmetric", _check_symmetric(False))):
        for values in itertools.product(*PROBE_GRID.values()):
            flags = itertools.chain.from_iterable(
                (f"--{k}", repr(v)) for k, v in zip(PROBE_GRID, values))
            out.append(Op((Call((cmd, *flags), check),), 0))
    return out


# -- running --------------------------------------------------------------------

def run_op(op: Op) -> OpResult:
    """Run the op's commands in order; stop at the first failure."""
    import driftgame.cli as cli

    wall = 0.0
    stderr_max = 0.0
    nbytes = 0
    for call in op.calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.argv))
        except SystemExit as exc:    # argparse rejects the flags
            code = exc.code
        except Exception as exc:     # noqa: BLE001 - an uncaught failure is a result
            wall += time.perf_counter() - t0
            return OpResult(wall, False, stderr_max, nbytes, True,
                            f"{call.argv[0]}: {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - t0
        text = out.getvalue()
        nbytes += len(text.encode())
        if code != 0:
            return OpResult(wall, False, stderr_max, nbytes, False,
                            f"{call.argv[0]}: exit {code}: {err.getvalue().strip()}")
        try:
            stderr_max = max(stderr_max, call.check(text))
        except (GateError, ValueError, KeyError, IndexError, TypeError) as exc:
            return OpResult(wall, False, stderr_max, nbytes, False,
                            f"{call.argv[0]}: {type(exc).__name__}: {exc}")
    return OpResult(wall, True, stderr_max, nbytes, False)
