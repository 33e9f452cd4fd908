"""Command-line front end.

Commands: solve | symmetric | voi | path | mc | deviations | sweep.
Exit codes: 0 ok, 2 invalid input, 3 numerical failure, 4 verification
failure (any pass=false in the requested checks).

Configuration may come from a flat key=value file (--config); command-line
flags override file values.  Every output embeds the artifact version, the
effective parameters and the seed, and all numbers carry 17 significant
digits so outputs are byte-stable and round-trip binary floating point.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .equilibrium import BracketFailure, build_solution, check_qvi
from .model import DomainError, InvalidParameters, ModelParams, belief_to_ratio, \
    ratio_to_belief
from .simulate import TRAJECTORY_COLUMNS, SimConfig, fmt17, write_csv, \
    write_trajectory_csv
from .sweeps import DEFAULT_SWEEP_POINTS, SWEEPABLE, SweepSpec, default_sweep_values, \
    run_sweep, sample_path_figure, write_sweep_csv
from .symmetric import NoConvergence, solve_symmetric, value_of_information
from .verify import deviations_player1, deviations_player2, mc_oracle_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

# Hard defaults, applied after file values and flags.
_DEFAULTS = {
    "mu0": -1.0, "mu1": 1.0, "sigma": 0.5, "eps": 0.1, "x": 1.0,
    "seed": 0, "paths": 10_000, "dt": 1e-4, "horizon": 50.0,
    "format": None,
}
_DEFAULT_PI = 0.5
_DEFAULT_PI_PATH = 0.35
# deviations' reflection levels as multiples of B; those at or below A
# are left out
_DEFAULT_BPRIME_MULTS = (0.5, 0.75, 1.25, 1.5, 2.0)

_FILE_KEY_TYPES = {
    "mu0": float, "mu1": float, "sigma": float, "eps": float,
    "pi": float, "phi": float, "x": float,
    "seed": int, "paths": int, "dt": float, "horizon": float,
    "threads": int,  # accepted for old config files; changes nothing
    "format": str, "output": str,
}


class CliError(ValueError):
    pass


# -- 17-significant-digit JSON ----------------------------------------------

def _num(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f) or math.isinf(f):
        return "null"
    return fmt17(f)


def dumps17(obj, indent: int = 0) -> str:
    pad = " " * indent
    pad_in = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _num(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad_in}{json.dumps(str(k))}: {dumps17(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad_in}{dumps17(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialise {type(obj)!r}")


# -- configuration plumbing ---------------------------------------------------

def read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _FILE_KEY_TYPES:
                raise CliError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = _FILE_KEY_TYPES[key](val)
            except ValueError as exc:
                raise CliError(f"{path}:{ln}: bad value for {key}: {exc}") from None
    return values


def _effective(args, key, file_vals):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_vals:
        return file_vals[key]
    return _DEFAULTS.get(key)


def _resolve(args, default_pi: float):
    """Merge file values and flags into (params, pi, phi, settings)."""
    file_vals = read_config_file(args.config) if args.config else {}
    get = lambda k: _effective(args, k, file_vals)

    pi_flag, phi_flag = getattr(args, "pi", None), getattr(args, "phi", None)
    if pi_flag is not None and phi_flag is not None:
        raise CliError("give exactly one of --pi and --phi, not both")
    if pi_flag is None and phi_flag is None:
        pi_flag, phi_flag = file_vals.get("pi"), file_vals.get("phi")
        if pi_flag is not None and phi_flag is not None:
            raise CliError("config file sets both pi and phi; give exactly one")
    if phi_flag is not None:
        phi = float(phi_flag)
        pi = ratio_to_belief(phi)
        if pi == 1.0:
            raise CliError(f"phi={phi} is too large: its prior phi/(1+phi) rounds to 1")
    else:
        pi = float(pi_flag) if pi_flag is not None else default_pi
        phi = belief_to_ratio(pi)

    params = ModelParams(mu0=get("mu0"), mu1=get("mu1"), sigma=get("sigma"),
                         eps=get("eps"), x0=get("x"), prior=pi)
    settings = {
        "seed": int(get("seed")),
        "paths": int(get("paths")),
        "dt": float(get("dt")),
        "horizon": float(get("horizon")),
        "format": get("format"),
        "output": getattr(args, "output", None) or file_vals.get("output"),
    }
    return params, pi, phi, settings


def _count(flag: str, n: int) -> int:
    """n, the value of a count flag, once it is at least 1."""
    if n < 1:
        raise CliError(f"{flag} {n} must be >= 1")
    return n


def _metadata(command: str, params: ModelParams, pi: float, phi: float,
              settings: dict, extra: dict | None = None) -> dict:
    meta = {
        "version": __version__,
        "command": command,
        "mu0": params.mu0, "mu1": params.mu1, "sigma": params.sigma,
        "eps": params.eps, "pi": pi, "phi": phi, "x": params.x0,
        "seed": settings["seed"],
    }
    meta.update(extra or {})
    return meta


def _emit(settings: dict, default_fmt: str, doc: dict | None, write_csv_to) -> None:
    """Write `doc` as JSON, or call write_csv_to(fh), as the format asks;
    to the output file, or to stdout without one.  No `doc`: CSV only."""
    fmt = settings.get("format") or default_fmt
    if fmt not in ("json", "csv"):
        raise CliError(f"format={fmt!r} must be json or csv")
    if fmt == "json" and doc is None:
        raise CliError("this command only supports --format csv")
    write = write_csv_to if fmt == "csv" else lambda fh: fh.write(dumps17(doc) + "\n")
    out = settings.get("output")
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _solution_csv(meta: dict, fields: dict):
    """One CSV row: the parameters from `meta`, then the solution fields."""
    header = ("mu0", "mu1", "sigma", "eps", "pi", "phi", "x", *fields)
    row = [{**meta, **fields}[h] for h in header]
    top = {k: meta[k] for k in ("version", "command", "seed")}
    return lambda fh: write_csv(fh, header, [row], top)


# -- commands -----------------------------------------------------------------

def _cmd_solve(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    sol = build_solution(params)
    qvi = check_qvi(sol)
    meta = _metadata("solve", params, pi, phi, settings)
    fields = {
        "A": sol.A, "B": sol.B, "a": sol.a, "b": sol.b,
        "beta1": sol.exps.beta1, "beta2": sol.exps.beta2, "delta": sol.delta,
        "C1": sol.C1, "C2": sol.C2, "D1": sol.D1, "D2": sol.D2,
    }
    _emit(settings, "json",
          {"metadata": meta, "solution": fields, "qvi": qvi.as_dict()},
          _solution_csv(meta, {**fields, "qvi_pass": qvi.all_pass}))
    return EXIT_OK if qvi.all_pass else EXIT_VERIFICATION


def _cmd_symmetric(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    sym = solve_symmetric(params)
    meta = _metadata("symmetric", params, pi, phi, settings)
    fields = {"As": sym.As, "Bs": sym.Bs, "a": sym.a, "b": sym.b,
              "Dh1": sym.Dh1, "Dh2": sym.Dh2}
    _emit(settings, "json", {"metadata": meta, "solution": fields},
          _solution_csv(meta, fields))
    return EXIT_OK


def _cmd_voi(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    n = _count("--grid", args.grid)
    pis = np.arange(1, n + 1) / (n + 1)
    curve = value_of_information(params, pis)
    meta = _metadata("voi", params, pi, phi, settings,
                     {"grid": n, "orientation": curve.orientation})
    header = ("pi", "value_symmetric", "value_asymmetric", "difference")
    rows = list(zip(*(getattr(curve, h).tolist() for h in header)))
    _emit(settings, "csv",
          {"metadata": meta, "rows": [dict(zip(header, r)) for r in rows]},
          lambda fh: write_csv(fh, header, rows, meta))
    return EXIT_OK


def _sim_config(settings: dict, n_paths: int) -> SimConfig:
    """The grid, n_paths paths and the seed of a simulating command."""
    return SimConfig(dt=settings["dt"], horizon=settings["horizon"],
                     n_paths=n_paths, seed=settings["seed"])


def _cmd_path(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI_PATH)
    traj, info = sample_path_figure(params, _sim_config(settings, 1),
                                    path_index=args.path_index)
    meta = _metadata("path", params, pi, phi, settings,
                     {"dt": settings["dt"], "horizon": settings["horizon"],
                      "path_index": args.path_index, "a": info["a"],
                      "b": info["b"], "censored": info["censored"],
                      "columns": args.columns})
    _emit(settings, "csv", None, lambda fh: write_trajectory_csv(
        traj, fh, metadata=meta, columns=args.columns))
    return EXIT_OK


def _cmd_mc(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    sol = build_solution(params)
    checks = mc_oracle_suite(sol, phi, _sim_config(settings, settings["paths"]))
    meta = _metadata("mc", params, pi, phi, settings,
                     {"paths": settings["paths"], "dt": settings["dt"],
                      "horizon": settings["horizon"]})
    ok = all(c["pass"] for c in checks)
    header = ("check", "phi", "estimate", "stderr", "oracle", "tolerance",
              "bias_bound", "censored_fraction", "pass")
    _emit(settings, "json", {"metadata": meta, "checks": checks, "all_pass": ok},
          lambda fh: write_csv(fh, header, [[c[h] for h in header] for c in checks],
                               meta))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_deviations(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    _count("--aprime-points", args.aprime_points)
    _count("--phi-points", args.phi_points)
    sol = build_solution(params)
    aprime = np.linspace(0.0, sol.B, args.aprime_points + 2)[1:-1]
    phis = np.linspace(0.0, 2.0 * sol.B, args.phi_points + 1)[1:]
    p1 = deviations_player1(sol, aprime, phis)
    if args.bprime_mults is None:
        bprime = [m * sol.B for m in _DEFAULT_BPRIME_MULTS if m * sol.B > sol.A]
    else:
        bprime = [m * sol.B for m in args.bprime_mults]
    p2 = deviations_player2(sol, bprime, phi,
                            _sim_config(settings, settings["paths"]),
                            jump_probs=tuple(args.jump_probs))
    ok = p1.all_pass and p2.all_pass
    meta = _metadata("deviations", params, pi, phi, settings,
                     {"paths": settings["paths"], "dt": settings["dt"],
                      "horizon": settings["horizon"],
                      "aprime_points": args.aprime_points,
                      "phi_points": args.phi_points,
                      "limitation": p2.limitation})
    header = ("kind", "parameter", "phi", "equilibrium", "deviation",
              "stderr", "tolerance", "pass", "method")
    rows = [["" if r[h] is None else r[h] for h in header]
            for r in p1.as_dicts() + p2.as_dicts()]
    _emit(settings, "json", {"metadata": meta, "player1": p1.as_dicts(),
                             "player2": p2.as_dicts(), "all_pass": ok},
          lambda fh: write_csv(fh, header, rows, meta))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    params, pi, phi, settings = _resolve(args, _DEFAULT_PI)
    _count("--points", args.points)
    if args.from_ is not None or args.to is not None:
        if args.from_ is None or args.to is None:
            raise CliError("--from and --to must be given together")
        if not (math.isfinite(args.from_) and math.isfinite(args.to)):
            raise CliError(f"--from {args.from_} and --to {args.to} must be finite")
        ends = (args.from_, args.to)
        if args.log and not (min(ends) > 0.0 or max(ends) < 0.0):
            raise CliError(f"--log needs --from {args.from_} and --to {args.to} "
                           f"non-zero and of one sign")
        values = (np.geomspace(args.from_, args.to, args.points) if args.log
                  else np.linspace(args.from_, args.to, args.points))
    else:
        values = default_sweep_values(args.param, args.points)
    result = run_sweep(SweepSpec(parameter=args.param, values=values, base=params))
    meta = _metadata("sweep", params, pi, phi, settings,
                     {"param": args.param, "points": args.points})
    _emit(settings, "csv", {"metadata": meta, "rows": [
        {"param": r.parameter, "value": r.value, "A": r.A, "B": r.B, "a": r.a,
         "b": r.b, "status": r.status} for r in result.rows]},
          lambda fh: write_sweep_csv(result, fh, metadata=meta))
    return EXIT_OK


# -- parser -------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in scientific notation,
    such as --mu0 -1e-3, as a value: the argparse of Python 3.11 and 3.12
    takes only forms like -1 and -0.001 for numbers, and -1e-3 for an
    unknown option.  add_subparsers gives every subcommand a parser of
    this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    g = shared.add_argument_group("model")
    g.add_argument("--mu0", type=float, help="low-regime drift (< 0)")
    g.add_argument("--mu1", type=float, help="high-regime drift (> 0)")
    g.add_argument("--sigma", type=float, help="volatility (> 0)")
    g.add_argument("--eps", type=float, help="stopping premium (> 0)")
    g.add_argument("--pi", type=float, help="prior probability of the high regime")
    g.add_argument("--phi", type=float, help="initial likelihood ratio (alternative to --pi)")
    g.add_argument("--x", type=float, help="initial asset level (> 0)")
    s = shared.add_argument_group("simulation")
    s.add_argument("--seed", type=int, help="64-bit master seed")
    s.add_argument("--paths", type=int, help="number of Monte Carlo paths")
    s.add_argument("--dt", type=float, help="time step")
    s.add_argument("--horizon", type=float, help="censoring horizon")
    o = shared.add_argument_group("output")
    o.add_argument("--config", help="flat key=value configuration file")
    o.add_argument("--output", help="write to this file instead of stdout")
    o.add_argument("--format", choices=("json", "csv"))
    o.add_argument("--threads", type=int,
                   help="accepted so existing scripts and config files keep "
                        "working; the value never changes results.  From 1024 "
                        "paths up, on Linux, the Monte Carlo kernel may fork "
                        "one helper process onto a second CPU of the affinity "
                        "set (limit it with taskset)")

    parser = _Parser(
        prog="driftgame",
        description="Equilibrium solver and Monte Carlo verifier for the "
                    "asymmetric-information stopping game")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("solve", parents=[shared],
                   help="closed-form thresholds, coefficients and QVI check"
                   ).set_defaults(func=_cmd_solve)
    sub.add_parser("symmetric", parents=[shared],
                   help="benchmark game with symmetric incomplete information"
                   ).set_defaults(func=_cmd_symmetric)

    p = sub.add_parser("voi", parents=[shared], help="value-of-information curve")
    p.add_argument("--grid", type=int, default=99,
                   help="number of interior prior points (default 99)")
    p.set_defaults(func=_cmd_voi)

    p = sub.add_parser("path", parents=[shared],
                       help="one seeded sample path until the stop")
    p.add_argument("--path-index", type=int, default=0)
    p.add_argument("--columns", choices=tuple(TRAJECTORY_COLUMNS), default="full",
                   help="full trajectory columns or (t, PiStar, Gamma)")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("mc", parents=[shared],
                       help="Monte Carlo payoffs against the closed forms "
                            "(with martingale control variates)",
                       description="J0, J1 and Jhat by Monte Carlo against "
                                   "their closed forms V0, V1 and V.  Each "
                                   "subtracts a least-squares fit, on the "
                                   "same paths, on two martingale controls of "
                                   "exactly known mean that follow the "
                                   "reflection at B under its measure, with "
                                   "n - 3 degrees of freedom.  A control that "
                                   "is constant (every path stops at t = 0), "
                                   "overflows or is spanned by the others is "
                                   "dropped; with no control left, or no more "
                                   "than 3 paths, the estimate is a plain "
                                   "mean.")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("deviations", parents=[shared],
                       help="Nash deviation suite for both players")
    p.add_argument("--aprime-points", type=int, default=25)
    p.add_argument("--phi-points", type=int, default=9)
    p.add_argument("--bprime-mults", type=float, nargs="+",
                   help="deviating reflection levels as multiples of B (default "
                        + " ".join(map(str, _DEFAULT_BPRIME_MULTS))
                        + ", less those at or below A; a level given here at "
                          "or below A is invalid input)")
    p.add_argument("--jump-probs", type=float, nargs="+", default=(0.5, 1.0))
    p.set_defaults(func=_cmd_deviations)

    p = sub.add_parser("sweep", parents=[shared],
                       help="thresholds under a one-parameter sweep")
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--from", dest="from_", type=float)
    p.add_argument("--to", type=float)
    p.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS)
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about 40 times a parse; a process that runs
    # many commands builds it once.  Every parse gets the same default
    # objects, so defaults are immutable and no command changes args.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # numerical failures first: LinAlgError subclasses ValueError
    except (BracketFailure, NoConvergence, np.linalg.LinAlgError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InvalidParameters, DomainError, CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
