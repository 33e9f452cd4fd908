"""Spans at the driftgame module boundaries, recorded from outside the program.

`Tracer` replaces each traced public function, in every driftgame module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent span, op id) and, for some functions, exact work counts
taken from the arguments and the result.  The wrappers are installed only
while an op is being traced, so untraced ops run the unmodified program.

A span's self time is its duration minus the durations of its direct
children; a module's self time in an op is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kernel_counts(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    cfg = a["config"]
    pay = a.get("barrier_pay")
    steps = np.where(result.censored, cfg.n_steps,
                     np.rint(np.nan_to_num(result.tau) / cfg.dt))
    paired = pay is not None and pay != cfg.barrier
    return {"kind": "paired" if paired else cfg.measure.value,
            "paths": int(result.tau.size), "steps": int(steps.sum())}


def _simulate_phi_counts(fn, args, kwargs, result) -> dict:
    return {"steps": _bound(fn, args, kwargs)["config"].n_steps}


def _grid_counts(fn, args, kwargs, result) -> dict:
    return {"steps": int(result.times.size)}


def _trajectory_rows(fn, args, kwargs, result) -> dict:
    return {"rows": int(_bound(fn, args, kwargs)["traj"].times.size)}


def _sweep_points(fn, args, kwargs, result) -> dict:
    return {"points": len(result.rows)}


def _path_counts(fn, args, kwargs, result) -> dict:
    cfg = _bound(fn, args, kwargs)["config"]
    return {"simulated": cfg.n_steps, "kept": int(result[0].times.size) - 1}


# (module, function) -> work counter.  Module names are those of
# src/driftgame; `model` is left out because its calls take under 1 us and
# belong to the caller's self time.
TRACED = {
    ("cli", "main"): None,
    ("verify", "mc_oracle_suite"): None,
    ("verify", "deviations_player1"): None,
    ("verify", "deviations_player2"): None,
    ("equilibrium", "build_solution"): None,
    ("equilibrium", "check_qvi"): None,
    ("equilibrium", "deviation_value_player1"): None,
    ("symmetric", "solve_symmetric"): None,
    ("symmetric", "value_of_information"): None,
    ("sweeps", "run_sweep"): _sweep_points,
    ("sweeps", "sample_path_figure"): _path_counts,
    ("simulate", "path_functionals"): _kernel_counts,
    ("simulate", "simulate_phi"): _simulate_phi_counts,
    ("simulate", "reflect"): _grid_counts,
    ("simulate", "write_trajectory_csv"): _trajectory_rows,
}
LAYERS = ("cli", "verify", "equilibrium", "symmetric", "sweeps", "simulate")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "error", "counts")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = start
        self.error = False
        self.counts = None

    @property
    def dur_s(self) -> float:
        return (self.end - self.start) * 1e-9

    def as_dict(self) -> dict:
        return {"name": self.name, "op": self.op, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end,
                "error": self.error, "counts": self.counts}


class Tracer:
    """In-memory span recorder for the traced functions of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._patches = []
        for (mod, name), counter in TRACED.items():
            fn = getattr(sys.modules.get(f"driftgame.{mod}"), name, None)
            if fn is None:
                self.missing.append(f"{mod}.{name}")
                continue
            wrapper = self._wrap(f"{mod}.{name}", fn, counter)
            for m_name, module in list(sys.modules.items()):
                if m_name == "driftgame" or m_name.startswith("driftgame."):
                    for attr, val in vars(module).items():
                        if val is fn:
                            self._patches.append((module, attr, fn, wrapper))

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._op, self._stack[-1] if self._stack else None,
                        time.perf_counter_ns())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(fn, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def recording(self, op_id):
        """Trace everything the program does inside the block as op `op_id`."""
        self._op = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, fn, _ in self._patches:
                setattr(module, attr, fn)
            self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# -- per-layer metrics -------------------------------------------------------------

def _self_times(spans: list[Span]) -> list[float]:
    child = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [(s.end - s.start - c) * 1e-9 for s, c in zip(spans, child)]


def span_metrics(spans: list[Span], ops) -> dict:
    """Timing metrics of the spans that belong to `ops`; a metric whose
    function these ops never called is absent."""
    ops = set(ops)
    selves = _self_times(spans)
    picked = [(s, t) for s, t in zip(spans, selves) if s.op in ops]
    by_name: dict[str, list[Span]] = {}
    for s, _ in picked:
        by_name.setdefault(s.name, []).append(s)

    def per_op_self(pred):
        per_op: dict = {}
        for s, t in picked:
            if pred(s.name):
                per_op[s.op] = per_op.get(s.op, 0.0) + t
        return statistics.median(per_op.values()) if per_op else None

    def median_dur(name, scale):
        got = by_name.get(name)
        return statistics.median(s.dur_s for s in got) * scale if got else None

    def per_count(name, key, scale, kind=None):
        got = [s for s in by_name.get(name, ())
               if kind is None or s.counts["kind"] == kind]
        total = sum(s.counts[key] for s in got)
        return sum(s.dur_s for s in got) / total * scale if total else None

    kernel = "simulate.path_functionals"
    out = {
        f"{kernel}.ns_per_step.tilted0": per_count(kernel, "steps", 1e9, "tilted0"),
        f"{kernel}.ns_per_step.tilted1": per_count(kernel, "steps", 1e9, "tilted1"),
        f"{kernel}.ns_per_step.paired": per_count(kernel, "steps", 1e9, "paired"),
        f"{kernel}.us_per_path": per_count(kernel, "paths", 1e6),
        f"{kernel}.self_s": per_op_self(lambda n: n == kernel),
        "simulate.simulate_phi.ns_per_step":
            per_count("simulate.simulate_phi", "steps", 1e9),
        "simulate.reflect.ns_per_step": per_count("simulate.reflect", "steps", 1e9),
        "simulate.write_trajectory_csv.ns_per_row":
            per_count("simulate.write_trajectory_csv", "rows", 1e9),
        "cli.self_s": per_op_self(lambda n: n.startswith("cli.")),
        "verify.self_s": per_op_self(lambda n: n.startswith("verify.")),
        "verify.deviations_player1.ms": median_dur("verify.deviations_player1", 1e3),
        "equilibrium.build_solution.us": median_dur("equilibrium.build_solution", 1e6),
        "equilibrium.check_qvi.ms": median_dur("equilibrium.check_qvi", 1e3),
        "equilibrium.deviation_value_player1.us":
            median_dur("equilibrium.deviation_value_player1", 1e6),
        "symmetric.solve_symmetric.us": median_dur("symmetric.solve_symmetric", 1e6),
        "symmetric.value_of_information.ms":
            median_dur("symmetric.value_of_information", 1e3),
        "sweeps.run_sweep.us_per_point": per_count("sweeps.run_sweep", "points", 1e6),
        "sweeps.sample_path_figure.ms": median_dur("sweeps.sample_path_figure", 1e3),
    }
    return {k: v for k, v in out.items() if v is not None}


def count_metrics(spans: list[Span], ops) -> dict:
    """Exact work counts of the spans that belong to `ops`."""
    ops = set(ops)
    picked = [s for s in spans if s.op in ops]
    kernel = [s for s in picked if s.name == "simulate.path_functionals"]
    paths = [s for s in picked if s.name == "sweeps.sample_path_figure"]
    k_paths = sum(s.counts["paths"] for s in kernel)
    simulated = sum(s.counts["simulated"] for s in paths)
    kept = sum(s.counts["kept"] for s in paths)
    return {
        "simulate.path_functionals.calls_per_op": len(kernel) / len(ops),
        "simulate.path_functionals.steps_per_path":
            sum(s.counts["steps"] for s in kernel) / k_paths if k_paths else 0.0,
        "simulate.path.steps_simulated": simulated / len(paths) if paths else 0.0,
        "simulate.path.steps_kept": kept / len(paths) if paths else 0.0,
        "simulate.path.steps_wasted_frac":
            (simulated - kept) / simulated if simulated else 0.0,
    }


def error_counts(spans: list[Span]) -> dict:
    """Exceptions raised through each module's wrapped functions."""
    return {f"{layer}.errors": sum(1 for s in spans if s.error
                                   and s.name.startswith(layer + "."))
            for layer in LAYERS}
