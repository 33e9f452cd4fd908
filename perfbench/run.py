"""Benchmark of the driftgame command line.

    python3 perfbench/run.py --workload {mc-oracle,deviations-paired,study} \\
        --seed N --seconds S --trace {0,1}

Run from a source checkout: the program is imported from `src/`.  The run
first measures set-up (import plus one cold minimal op, in this process and
in fresh child processes), then runs the workload's ops for S seconds, each
through `driftgame.cli.main` with its output checked.  Times in the
end-to-end metrics are at a fixed reference machine speed (see `speed.py`);
the summary line also gives the plain wall-time median.  The `study` workload
then also runs the domain probe.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, with
`--trace 1` the per-layer ones.  The line before it is a summary with the
sample counts, the domain probe's failures and any failed op's reason.
Traced runs also write their spans to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
TARGET_SE = 1e-3
GAUGE_EVERY_S = 0.25    # short ops share a reference reading


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="measure one set-up and print it (used for child processes)")
    return p.parse_args(argv)


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """Cold import of the CLI plus the workload's minimal op: its wall time
    and that time at reference speed, read right after it.  Must run before
    anything in this process has imported numpy or driftgame.

    The op's verdict is not checked: at 10 paths a Monte Carlo check may
    fail by chance.  An exception escaping the CLI stops the benchmark.
    """
    t0 = time.perf_counter()
    import driftgame.cli  # noqa: F401
    res = workloads.run_op(workloads.setup_op(workload, seed))
    wall = time.perf_counter() - t0
    if res.traceback:
        raise RuntimeError(f"set-up op raised: {res.reason}")
    import speed
    return wall, wall * speed.REF_NOMINAL_S / speed.reference_s(speed.SETUP_READ_S)


def setup_child(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def run_traced(op, tracer, op_id):
    """Run one op, recorded as `op_id` when a tracer is given."""
    if tracer is None:
        return workloads.run_op(op)
    with tracer.recording(op_id):
        return workloads.run_op(op)


def timed_loop(workload: str, seed: int, seconds: float, gauge,
               tracer=None) -> list:
    """Closed loop, one op at a time, until `seconds` have passed and the
    workload's cycle of ops is whole.  With a tracer, every other op is
    traced (op id = its index).  Returns (op, result, traced, scale), where
    scale turns the op's wall time into reference-speed seconds."""
    cycle = workloads.CYCLE.get(workload, 1)
    min_ops = 2 if tracer else 1
    results = []
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(workloads.ops(workload, seed)):
        if (len(results) >= min_ops and len(results) % cycle == 0
                and time.perf_counter() >= deadline):
            break
        traced = tracer is not None and i % 2 == 0
        results.append((op, run_traced(op, tracer if traced else None, i), traced))
        gauge.add()
    gauge.flush()
    return [(*r, scale) for r, scale in zip(results, gauge.scales, strict=True)]


def run_probe(tracer=None) -> dict:
    """The solvers over the domain probe's log-grid; failures are expected."""
    ops = workloads.domain_probe_ops()
    failed = {"solve": 0, "symmetric": 0}
    tracebacks = 0
    t0 = time.perf_counter()
    for op in ops:
        res = run_traced(op, tracer, "probe")
        failed[op.calls[0].argv[0]] += not res.ok
        tracebacks += res.traceback
    return {"attempted": len(ops),
            "failed": sum(failed.values()), "solve_failed": failed["solve"],
            "symmetric_failed": failed["symmetric"], "tracebacks": tracebacks,
            "wall_s": time.perf_counter() - t0}


def end_to_end(results, setups) -> dict:
    """End-to-end metrics; every time is at reference speed."""
    walls = [res.wall_s * scale for _, res, _, scale in results]
    p90 = (statistics.quantiles(walls, n=10, method="inclusive")[8]
           if len(walls) > 1 else walls[0])
    # cost to reach a standard error of TARGET_SE by scaling the op's paths;
    # an op whose outputs are exact reaches it in one run
    to_se = [wall * ((res.stderr_max / TARGET_SE) ** 2
                     if res.stderr_max > 0 else 1.0)
             for wall, (_, res, _, _) in zip(walls, results)]
    return {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "op_s.p50": statistics.median(walls),
        "op_s.p90": p90,
        "paths_per_s": sum(op.paths for op, *_ in results) / sum(walls),
        "time_to_se1e-3_s": statistics.median(to_se),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_small_ops(tracer) -> list:
    """One small op of each workload, traced as ops small0, small1, ...

    A function the workload never calls is timed on these, so that every
    per-layer timing is a measurement of this code.
    """
    return [run_traced(op, tracer, f"small{k}")
            for k, op in enumerate(workloads.small_ops())]


def per_layer(tracer, results, n_small, probe, names) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the summary entries that say
    which were timed on the small ops and which nothing measured."""
    import probes
    import tracing

    traced = [i for i, (_, _, t, _) in enumerate(results) if t]
    own = tracing.span_metrics(tracer.spans, traced)
    small = tracing.span_metrics(tracer.spans, [f"small{k}" for k in range(n_small)])
    metrics = {**small, **own}
    metrics.update(tracing.count_metrics(tracer.spans, traced))
    metrics.update(tracing.error_counts(tracer.spans))
    metrics["cli.output_bytes"] = statistics.median(
        res.output_bytes for _, res, _, _ in results)
    metrics["probe.solve.failed"] = probe["solve_failed"] if probe else 0
    metrics["probe.symmetric.failed"] = probe["symmetric_failed"] if probe else 0
    standalone = {"simulate.philox.ns_per_draw": probes.philox_ns_per_draw,
                  "simulate.thread_speedup": probes.thread_speedup,
                  "equilibrium.V.us_scalar": probes.v_scalar_us}
    for name, probe_fn in standalone.items():
        try:
            metrics[name] = probe_fn()
        except Exception as exc:  # noqa: BLE001 - reported as unmeasured
            print(f"probe {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    on = [res.wall_s * scale for _, res, t, scale in results if t]
    off = [res.wall_s * scale for _, res, t, scale in results if not t]
    metrics["trace.overhead_ratio"] = statistics.median(on) / statistics.median(off)
    # a function the program no longer has leaves its metrics unmeasured
    unmeasured = [n for n in names if n not in metrics]
    metrics.update(dict.fromkeys(unmeasured, 0.0))
    notes = {"timed_on_small_ops": sorted(set(small) - set(own)),
             "not_wrapped": tracer.missing, "unmeasured": unmeasured}
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftgame" / "cli.py").is_file():
        print(f"error: no driftgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(json.dumps(setup_once(args.workload, args.seed)))
        return 0

    setups = [setup_once(args.workload, args.seed)]
    import driftgame
    if Path(driftgame.__file__).resolve().parent != SRC / "driftgame":
        print(f"error: driftgame imported from {driftgame.__file__}", file=sys.stderr)
        return 2
    setups += [setup_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    import speed
    gauge = speed.Gauge(GAUGE_EVERY_S)
    results = timed_loop(args.workload, args.seed, args.seconds, gauge, tracer)
    probe = run_probe(tracer) if args.workload == "study" else None
    small = run_small_ops(tracer) if tracer else []

    checked = [res for _, res, _, _ in results] + small
    failures = [res.reason for res in checked if not res.ok]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "ops_attempted": len(checked), "ops_failed": len(failures),
               "setup_samples": len(setups),
               "setup_wall_s": statistics.median(wall for wall, _ in setups),
               "op_wall_s.p50": statistics.median(res.wall_s for _, res, *_ in results),
               "reference_ms": {"nominal": speed.REF_NOMINAL_S * 1e3,
                                "median": statistics.median(gauge.readings) * 1e3,
                                "readings": len(gauge.readings)},
               "domain_probe": probe, "failures": failures[:5]}
    if args.trace:
        wanted = spec["per_layer"]
        values, notes = per_layer(tracer, results, len(small), probe,
                                  [m["name"] for m in wanted])
        summary.update(notes)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(span_file)
        summary["spans"] = str(span_file.relative_to(ROOT))
    else:
        values = end_to_end(results, setups)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures, "attempted": len(checked), "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
