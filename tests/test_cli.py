import itertools
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from driftgame.cli import main


def run(tmp_path, *argv):
    """Invoke the CLI writing to a temp file; return (exit_code, text)."""
    out = tmp_path / "out.txt"
    code = main([*argv, "--output", str(out)])
    return code, (out.read_text() if out.exists() else "")


BASE_FLAGS = ("--mu0", "-1", "--mu1", "1", "--sigma", "0.5", "--eps", "0.1")


def test_solve_json(tmp_path):
    code, text = run(tmp_path, "solve", *BASE_FLAGS)
    assert code == 0
    doc = json.loads(text)
    assert doc["solution"]["A"] == pytest.approx(0.329, abs=1e-3)
    assert doc["solution"]["B"] == pytest.approx(0.868, abs=1e-3)
    assert doc["solution"]["a"] == pytest.approx(0.248, abs=1e-3)
    assert doc["solution"]["b"] == pytest.approx(0.465, abs=1e-3)
    assert doc["qvi"]["all_pass"] is True
    meta = doc["metadata"]
    assert meta["version"] and meta["seed"] == 0
    assert meta["mu0"] == -1 and meta["pi"] == 0.5


def test_solve_rejects_bad_drift(tmp_path, capsys):
    code = main(["solve", "--mu0", "1", "--mu1", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mu0" in err and "mu0 < 0 < mu1" in err


@pytest.mark.parametrize("argv", [("solve", "--x=inf"), ("mc", "--mu1=inf"),
                                  ("path", "--sigma=inf")])
def test_non_finite_parameters_are_invalid_input(tmp_path, capsys, argv):
    # an infinite parameter is invalid input (exit 2) with no output, not
    # a solution with "x": null nor a numerical failure (exit 3)
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert "requires finite" in capsys.readouterr().err


def test_solve_csv_single_row(tmp_path):
    code, text = run(tmp_path, "solve", *BASE_FLAGS, "--format", "csv")
    assert code == 0
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == ("mu0,mu1,sigma,eps,pi,phi,x,A,B,a,b,beta1,beta2,delta,"
                        "C1,C2,D1,D2,qvi_pass")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[7]) == pytest.approx(0.329, abs=1e-3)
    assert row[-1] == "True"


def test_pi_phi_exclusive(capsys):
    assert main(["solve", "--pi", "0.4", "--phi", "0.6"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_phi_flag_drives_prior(tmp_path):
    code, text = run(tmp_path, "solve", "--phi", "1.5")
    doc = json.loads(text)
    assert doc["metadata"]["phi"] == 1.5
    assert doc["metadata"]["pi"] == pytest.approx(0.6, rel=1e-12)


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu0=-1\nmu1=1\nsigma=0.5\neps=0.1\npi=0.35\nseed=9\n")
    code, text = run(tmp_path, "solve", "--config", str(cfg))
    doc = json.loads(text)
    assert code == 0
    assert doc["metadata"]["pi"] == pytest.approx(0.35)
    assert doc["metadata"]["seed"] == 9
    # flags override file values
    code, text = run(tmp_path, "solve", "--config", str(cfg), "--pi", "0.5",
                     "--seed", "11")
    doc = json.loads(text)
    assert doc["metadata"]["pi"] == 0.5
    assert doc["metadata"]["seed"] == 11


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volatility=0.5\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_symmetric_command(tmp_path):
    code, text = run(tmp_path, "symmetric", *BASE_FLAGS)
    assert code == 0
    doc = json.loads(text)
    assert doc["solution"]["a"] == pytest.approx(0.193, abs=1e-3)
    assert doc["solution"]["b"] == pytest.approx(0.758, abs=1e-3)


def test_symmetric_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import driftgame.cli as cli
    from driftgame.symmetric import NoConvergence

    def boom(params):
        raise NoConvergence("forced")

    monkeypatch.setattr(cli, "solve_symmetric", boom)
    assert main(["symmetric"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_voi_grid(tmp_path):
    code, text = run(tmp_path, "voi", "--grid", "99")
    assert code == 0
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "pi,value_symmetric,value_asymmetric,difference"
    assert len(lines) == 100
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.01)
    # both games stop immediately at the low edge: values within 1e-3 of 1
    assert first[1] == pytest.approx(1.0, abs=1e-3)
    assert first[2] == pytest.approx(1.0, abs=1e-3)
    assert all(float(ln.split(",")[3]) >= -1e-10 for ln in lines[1:])


def test_path_deterministic_bytes(tmp_path):
    args = ("path", "--pi", "0.35", "--seed", "7", "--dt", "1e-3",
            "--horizon", "10")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first and first == second
    lines = first.splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "t,X,Phi,PhiB,PiStar,Gamma,L"
    assert any(ln.startswith("# a=") for ln in lines)
    assert any(ln.startswith("# b=") for ln in lines)


def test_path_figure_columns(tmp_path):
    code, text = run(tmp_path, "path", "--pi", "0.35", "--seed", "7", "--dt",
                     "1e-3", "--horizon", "10", "--columns", "figure")
    assert code == 0
    header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    assert header == "t,PiStar,Gamma"


def test_mc_command(tmp_path):
    code, text = run(tmp_path, "mc", "--phi", "0.6", "--paths", "2000",
                     "--dt", "4e-4", "--seed", "3", "--threads", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["all_pass"] is True
    assert [c["check"] for c in doc["checks"]] == ["J0", "J1", "Jhat"]
    for c in doc["checks"]:
        assert set(c) == {"check", "params", "phi", "estimate", "stderr",
                          "oracle", "tolerance", "bias_bound",
                          "censored_fraction", "pass"}


def test_mc_thread_count_does_not_change_output(tmp_path):
    args = ("mc", "--phi", "0.6", "--paths", "1500", "--dt", "4e-4",
            "--seed", "3")
    _, one = run(tmp_path, *args, "--threads", "1")
    _, four = run(tmp_path, *args, "--threads", "4")
    assert one == four


@pytest.mark.parametrize("command", ["mc", "deviations"])
def test_helper_process_does_not_change_output(capsys, helper_switch, command):
    # from 1024 paths the kernel may share its paths with a helper process
    outputs = []
    for on in (False, True):
        helper_switch.set(on)
        assert main([command, "--phi", "0.6", "--paths", "2048", "--dt", "4e-4",
                     "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert helper_switch.helper_chunks >= 1
    assert helper_switch.all_ended()
    assert outputs[0] == outputs[1]


def test_killed_helper_leaves_mc_to_the_caller(capsys, monkeypatch, helper_switch):
    # A helper killed on its first chunk leaves its pass to the caller,
    # which scans it again: exit 0 and the stdout of a run without helper
    import driftgame._scan as scan

    helper_switch.set(False)
    argv = ["mc", "--paths", "2048", "--dt", "1e-3"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    caller, real_scan = os.getpid(), scan.scan_paths

    def killed_helper(job, outs, paths):
        if os.getpid() != caller:
            next(paths)   # its first chunk claimed
            os.kill(os.getpid(), signal.SIGKILL)
        real_scan(job, outs, paths)

    monkeypatch.setattr(scan, "scan_paths", killed_helper)
    helper_switch.set(True)
    assert main(argv) == 0
    assert helper_switch.helper_chunks >= 1
    assert helper_switch.all_ended()
    assert capsys.readouterr().out == serial


def _python_env():
    """os.environ with this checkout's driftgame first on PYTHONPATH."""
    import driftgame

    src = str(Path(driftgame.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_helper_code_out():
    # the kernel is imported on the first pass, and the helper code only
    # when the kernel may start a helper, so the set-up of a command pays
    # for neither
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftgame.cli; "
         "print(sorted({'driftgame._scan', 'driftgame._spread', 'multiprocessing'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=_python_env(), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_runs_as_a_script(tmp_path):
    # The README's library quick start, saved as a script without an
    # ``if __name__ == "__main__"`` guard and run with the helper process
    # forced on, prints what it prints with the helper off: the helper
    # never runs the caller's script.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    assert code.count("n_paths=100_000") == 1
    code = code.replace("n_paths=100_000", "n_paths=4096")
    outputs = []
    for on in (False, True):
        script = tmp_path / f"quick_start_{on}.py"
        script.write_text(
            "import driftgame._spread as spread\n"
            f"spread._cpu_count = lambda: {2 if on else 1}\n" + code)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, env=_python_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_mc_verification_failure_exit_code(tmp_path, monkeypatch):
    import driftgame.cli as cli

    def fake_suite(sol, phi, config):
        return [{"check": "J0", "params": {}, "phi": phi, "estimate": 0.0,
                 "stderr": 0.0, "oracle": 1.0, "tolerance": 0.0,
                 "bias_bound": 0.0, "censored_fraction": 0.0, "pass": False}]

    monkeypatch.setattr(cli, "mc_oracle_suite", fake_suite)
    code, text = run(tmp_path, "mc", "--paths", "10")
    assert code == 4


def test_deviations_command(tmp_path):
    code, text = run(tmp_path, "deviations", "--phi", "0.6", "--paths", "1500",
                     "--dt", "4e-4", "--seed", "3", "--aprime-points", "5",
                     "--phi-points", "3", "--threads", "1")
    assert code == 0
    doc = json.loads(text)
    assert doc["all_pass"] is True
    assert len(doc["player1"]) == 15
    kinds = {r["kind"] for r in doc["player2"]}
    assert kinds == {"player2-barrier", "player2-jump0"}
    # the sampled-strategy-classes limitation is stated in the report
    assert "refute" in doc["metadata"]["limitation"]


@pytest.mark.parametrize("command", ["mc", "deviations"])
def test_one_path_is_rejected_before_simulating(tmp_path, monkeypatch, capsys,
                                                command):
    # a standard error needs two paths: exit 2 with a one-line error
    import driftgame.verify as verify

    def no_kernel(*args, **kwargs):
        raise AssertionError("simulated one path")

    monkeypatch.setattr(verify, "stacked_path_functionals", no_kernel)
    code, text = run(tmp_path, command, "--paths", "1")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "n_paths=1" in err and "at least 2 paths" in err


@pytest.mark.parametrize("argv", [
    ("deviations", "--aprime-points", "0"),
    ("deviations", "--aprime-points", "-1"),
    ("deviations", "--phi-points", "0"),
    ("deviations", "--phi-points", "-1"),
    ("sweep", "--param", "eps", "--points", "0"),
    ("voi", "--grid", "0"),
])
def test_empty_grid_is_rejected_before_simulating(tmp_path, monkeypatch, capsys,
                                                  argv):
    # a grid of no points would check or write nothing: exit 2 with a
    # one-line error, and no output
    import driftgame.verify as verify

    def no_kernel(*args, **kwargs):
        raise AssertionError("simulated paths")

    monkeypatch.setattr(verify, "stacked_path_functionals", no_kernel)
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {argv[-2]} {argv[-1]} must be >= 1\n"


@pytest.mark.parametrize("argv", [
    ("mc", "--horizon", "inf", "--paths", "10"),
    ("path", "--horizon", "inf"),
    ("deviations", "--horizon", "inf"),
    ("mc", "--horizon", "1e300", "--dt", "1e-10"),
], ids=["mc-inf", "path-inf", "deviations-inf", "mc-overflow"])
def test_unbounded_step_count_is_invalid_input(tmp_path, capsys, argv):
    # an infinite horizon, or a horizon/dt that overflows, has no step count
    code, text = run(tmp_path, *argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: horizon")


@pytest.mark.parametrize("horizon, steps", [("1e9", "1e+12"), ("1e300", "1e+303")])
def test_path_grid_too_large_is_invalid_input(tmp_path, capsys, horizon, steps):
    # a full path grid past the cap is refused before it is allocated, with
    # the inputs in the message; mc and deviations stream their paths
    code, text = run(tmp_path, "path", "--horizon", horizon, "--dt", "1e-3")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: horizon={float(horizon)} / dt=0.001 is "
                          f"{steps} steps")


@pytest.mark.parametrize("argv, code, rows", [
    # Phi underflows to 0 past the stop at the first step, where the
    # walk's 1024-step prefix still runs on
    (("--mu0", "-50", "--seed", "1"), 0, 2),
    # omega sqrt(dt) is about 6.3: Phi overflows at step 31, before a stop
    (("--mu0", "-1", "--pi", "0.9", "--seed", "3"), 3, 0),
], ids=["underflow-past-stop", "overflow-before-stop"])
def test_path_out_of_range_warns_nowhere(argv, code, rows):
    # The entry point with warnings as errors: a path whose Phi leaves the
    # floating-point range past its stop prints its rows and nothing on
    # stderr, and one whose Phi overflows before its stop is a numerical
    # failure with no output, not rows of nan.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "driftgame.cli", "path", "--mu1", "1",
         "--sigma", "0.01", "--dt", "1e-3", *argv],
        capture_output=True, text=True, env=_python_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
        assert "# censored=False" in proc.stdout.splitlines()
        assert len([ln for ln in proc.stdout.splitlines()
                    if not ln.startswith("#")]) == 1 + rows
    else:
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("numerical failure: Phi overflows at t=0.031")


def test_deviations_rejects_jump_prob_before_simulating(tmp_path, monkeypatch,
                                                        capsys):
    import driftgame.verify as verify

    def no_kernel(*args, **kwargs):
        raise AssertionError("simulated before checking the jump probabilities")

    monkeypatch.setattr(verify, "stacked_path_functionals", no_kernel)
    code, _ = run(tmp_path, "deviations", "--jump-probs", "1.5", "--paths", "5000")
    assert code == 2
    assert "jump probability p=1.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--bprime-mults", "1.25", "inf"),
    ("--mu0", "-3", "--bprime-mults", "1e308"),   # B is 2.5
], ids=["inf", "overflow"])
def test_deviations_rejects_non_finite_bprime_before_simulating(
        tmp_path, monkeypatch, capsys, argv):
    # an infinite multiple, or one whose product with B overflows, is
    # invalid input (exit 2) with no output, not a row with "parameter": null
    import driftgame.verify as verify

    def no_kernel(*args, **kwargs):
        raise AssertionError("simulated an infinite B'")

    monkeypatch.setattr(verify, "stacked_path_functionals", no_kernel)
    code, text = run(tmp_path, "deviations", *argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "Bprime=inf must be finite and exceed A=" in err


def test_default_bprime_levels_leave_out_those_below_a(tmp_path, capsys):
    # at eps 0.03, A/B is 0.509, so the default 0.5 B is below A: deviations
    # leaves that level out and runs the others, where a level given with
    # --bprime-mults at or below A is still invalid input
    args = ("deviations", "--eps", "0.03", "--paths", "200", "--dt", "1e-3",
            "--aprime-points", "3", "--phi-points", "2")
    code, text = run(tmp_path, *args)
    assert code in (0, 4)
    doc = json.loads(text)
    from driftgame import ModelParams, build_solution
    sol = build_solution(ModelParams(mu0=-1.0, mu1=1.0, sigma=0.5, eps=0.03))
    assert 0.5 * sol.B <= sol.A
    assert [r["parameter"] for r in doc["player2"] if r["kind"] == "player2-barrier"] \
        == [m * sol.B for m in (0.75, 1.25, 1.5, 2.0)]
    capsys.readouterr()
    (tmp_path / "out.txt").unlink()
    code, text = run(tmp_path, *args, "--bprime-mults", "0.5")
    assert code == 2 and text == ""
    assert "must be finite and exceed A=" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--mu0", "-1e-3"),
    ("solve", "--mu0", "-1E-3", "--mu1", "1e+0", "--sigma", "5e-1"),
    ("sweep", "--param", "mu0", "--from", "-6", "--to", "-1e-1", "--points", "3",
     "--log"),
    ("deviations", "--mu0", "-2.5e0", "--bprime-mults", "1.25", "2e0", "--paths", "20",
     "--dt", "1e-3", "--aprime-points", "2", "--phi-points", "2"),
], ids=["solve", "solve-capitals", "sweep", "deviations"])
def test_negative_numbers_in_scientific_notation(capsys, argv):
    # "--mu0 -1e-3" is a value, as "--mu0=-1e-3" is, on every subcommand:
    # both spellings print the same bytes
    joined = []
    for i, arg in enumerate(argv):
        if i and argv[i - 1].startswith("--") and arg.startswith("-") \
                and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert joined != list(argv)
    outs = []
    for spelling in (argv, joined):
        assert main(list(spelling)) in (0, 4)
        out, err = capsys.readouterr()
        assert err == ""
        outs.append(out)
    assert outs[0] == outs[1] and outs[0]


def test_log_sweep_ends_of_one_sign(tmp_path, capsys):
    # a log-spaced grid needs both ends non-zero and of one sign: ends of
    # opposite sign, or a zero end, are invalid input (exit 2) with no
    # output and no numpy warning; two negative ends give a grid of
    # negative values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ends in (("--from=-1", "--to=1"), ("--from=1", "--to=-1"),
                     ("--from=0", "--to=1"), ("--from=-1", "--to=0")):
            code, text = run(tmp_path, "sweep", "--param", "eps", "--points", "3",
                             "--log", *ends)
            assert code == 2 and text == ""
            assert "non-zero and of one sign" in capsys.readouterr().err
        code, text = run(tmp_path, "sweep", "--param", "mu0", "--from=-6",
                         "--to=-0.1", "--points", "3", "--log")
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
    assert [float(r[1]) for r in rows] == pytest.approx([-6.0, -(0.6 ** 0.5), -0.1])
    assert all(r[-1] == "ok" for r in rows)


@pytest.mark.parametrize("flag, names", [
    ("--eps=1e300", "the QVI check on the band (A, B) overflows double precision"),
    ("--sigma=1e-300", "omega**2 overflows double precision"),
    ("--mu1=1e300", "omega**2 overflows double precision"),
], ids=["eps", "sigma", "mu1"])
def test_solve_overflow_names_what_overflowed(flag, names):
    # with warnings as errors, each set exits 3 with one line on stderr,
    # which names what overflowed: no numpy warning, no traceback and no
    # bare errno tuple
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "driftgame.cli",
                           "solve", flag],
                          capture_output=True, text=True, env=_python_env(), timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith(f"numerical failure: {names} (")
    assert proc.stderr.count("\n") == 1


def test_overflow_names_the_term(tmp_path, capsys):
    # B**beta2 (in V(B)) and B**(1 - beta2) (in C2) overflow on these sets;
    # the exit-3 message names the term, B and beta2
    for flags, term in ((("--mu0=-0.001", "--mu1=1.0", "--sigma=10.0", "--eps=0.1"),
                         "B**beta2 in V(B)"),
                        (("--mu0=-1", "--mu1=0.001", "--sigma=10", "--eps=1e-6"),
                         "B**(1 - beta2) in C2")):
        code, _ = run(tmp_path, "solve", *flags)
        assert code == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {term} overflows" in err
        assert "B=" in err and "beta2=" in err


def test_symmetric_overflow_names_the_power(tmp_path, capsys):
    # As**beta2 in the symmetric game's value-matching system overflows on
    # this set; the exit-3 message names the power, As and beta2
    code, text = run(tmp_path, "symmetric", "--mu0", "-0.001", "--mu1", "0.001",
                     "--sigma", "1", "--eps", "0.1")
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: As**beta2 in value matching "
                          "overflows double precision (As=0.41185971527383697, "
                          "beta2=-999.5002499999376)")
    assert err.count("\n") == 1


# the commands of one parameter set of the numerical study
_STUDY = (("solve", "--pi", "0.35"), ("symmetric",), ("voi", "--grid", "9"),
          ("sweep", "--param", "mu0", "--points", "5"),
          ("path", "--pi", "0.35", "--seed", "3", "--dt", "1e-3"))


def test_parser_built_once_and_reused(monkeypatch, capsys):
    # main keeps the first parser it builds; later commands, --version and
    # rejected flags in the same process leave its output unchanged
    import driftgame.cli as cli

    builds = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    cli._parser.cache_clear()

    def study():
        outs = []
        for argv in _STUDY:
            assert main([*argv, *BASE_FLAGS]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    first = study()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out.strip()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--sigma", "wide"])
    assert exc.value.code == 2 and "invalid float value" in capsys.readouterr().err
    assert study() == first
    # a command's handler still finds the module's functions at call time
    reached = []
    monkeypatch.setattr(cli, "mc_oracle_suite",
                        lambda *args: reached.append(args) or [])
    assert main(["mc", "--paths", "10"]) == 0
    assert len(reached) == 1 and builds == [1]
    cli._parser.cache_clear()


@pytest.mark.parametrize("argv", [
    ("path", "--horizon", "10000", "--dt", "1e-3"),
    ("mc", "--horizon", "1e9", "--dt", "1e-3", "--paths", "20"),
], ids=["path-long-horizon", "mc-long-horizon"])
def test_long_horizon_warns_nothing(tmp_path, capsys, argv):
    # the path walk ends at its stop, and the J1 censoring bound is formed
    # only on censored paths, so no discarded value overflows or meets log 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, *argv)
    assert code == 0 and text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags", [
    ("--mu0", "-50", "--mu1", "1", "--sigma", "0.01", "--eps", "0.1",
     "--phi", "22.726157531613033"),
    ("--mu0", "-5", "--mu1", "50", "--sigma", "0.01", "--eps", "0.1",
     "--phi", "0.04545605909880704"),
    ("--mu0", "-0.001", "--mu1", "50", "--sigma", "0.01", "--eps", "10",
     "--phi", "9.090949078737295e-07"),
], ids=["mu0=-50", "mu0=-5", "mu0=-0.001"])
def test_mc_control_fit_is_total(tmp_path, capsys, flags):
    # sets of the probe grid at phi = (A+B)/2 where one step moves log Phi
    # by hundreds or more: controls that overflow or that the others span are
    # dropped in log space, before any exp, so mc reports with no numpy
    # warning and no singular fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "mc", *flags, "--paths", "300", "--horizon", "5")
    assert code in (0, 4)
    checks = json.loads(text)["checks"]
    assert [c["check"] for c in checks] == ["J0", "J1", "Jhat"]
    assert all(c["stderr"] >= 0.0 for c in checks)
    assert capsys.readouterr().err == ""


@pytest.mark.xfail(strict=True, reason="grid bias above the HIT_BIAS_COEFF "
                                       "budget; see ROADMAP item 2")
@pytest.mark.parametrize("flags, check", [
    (("--mu0", "-2", "--mu1", "0.3", "--sigma", "1.5", "--eps", "0.35",
      "--phi", "1.8227"), "J0"),
    (("--mu0", "-0.5", "--mu1", "0.8", "--sigma", "0.9", "--eps", "0.25",
      "--phi", "0.4612"), "J1"),
    (("--mu0", "-0.9351", "--mu1", "1.1835", "--sigma", "0.7998", "--eps",
      "0.2467", "--phi", "0.416"), "J1"),
    (("--mu0", "-2.1682", "--mu1", "0.4709", "--sigma", "0.7898", "--eps",
      "0.332", "--phi", "2.488"), "J0"),
], ids=["J0", "J1", "J1-controlled", "J0-controlled"])
def test_grid_bias_within_budget_at_study_range_sets(tmp_path, flags, check):
    # at the default 10 000 paths and dt 1e-4, J0 reads -0.0115 against a
    # budget of 0.0038 at the first set and J1 +0.0096 against 0.0036 at
    # the second: up to 0.76 omega sqrt(dt), where HIT_BIAS_COEFF allows
    # 0.25.  At the last two, J1 reads +0.0099 against 0.0066 and J0
    # -0.0097 against 0.0084; they passed only while J1's plain stderr and
    # J0's M_beta-controlled one (1.5e-3 and 7.8e-4) were wide enough for
    # 3 of them to cover the bias
    code, text = run(tmp_path, "mc", *flags)
    report = {c["check"]: c for c in json.loads(text)["checks"]}
    assert report[check]["pass"], report[check]
    assert code == 0


def test_sweep_command(tmp_path):
    code, text = run(tmp_path, "sweep", "--param", "mu1", "--from", "0.25",
                     "--to", "3", "--points", "25")
    assert code == 0
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "param,value,A,B,a,b,status"
    assert len(lines) == 26
    assert all(ln.endswith(",ok") for ln in lines[1:])


@pytest.mark.parametrize("log", [(), ("--log",)])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_sweep_ends_are_invalid_input(tmp_path, capsys, value, log):
    # a non-finite end of the grid is invalid input (exit 2) with no
    # output, not rows of nan and inf after a numpy warning
    for ends in ((f"--from={value}", "--to=0.3"), ("--from=0.1", f"--to={value}")):
        code, text = run(tmp_path, "sweep", "--param", "eps", "--points", "3",
                         *ends, *log)
        assert code == 2 and text == ""
        assert "must be finite" in capsys.readouterr().err


def test_sweep_default_grid(tmp_path):
    code, text = run(tmp_path, "sweep", "--param", "eps")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert len(lines) == 26


def test_solve_seventeen_digit_numbers(tmp_path):
    # outputs round-trip binary floating point
    _, text = run(tmp_path, "solve")
    doc = json.loads(text)
    from driftgame import ModelParams, build_solution
    sol = build_solution(ModelParams(mu0=-1, mu1=1, sigma=0.5, eps=0.1))
    assert doc["solution"]["A"] == sol.A
    assert doc["solution"]["D2"] == sol.D2


def test_repeated_runs_byte_identical(tmp_path):
    for args in (("solve",), ("symmetric",), ("voi", "--grid", "7"),
                 ("sweep", "--param", "sigma", "--points", "5")):
        _, a = run(tmp_path, *args)
        _, b = run(tmp_path, *args)
        assert a == b and a


def test_solve_small_sigma(tmp_path):
    # omega^2 ~ 4e4 here; the exponent check is relative to q's own scale
    code, text = run(tmp_path, "solve", "--sigma", "0.01")
    assert code == 0
    assert json.loads(text)["qvi"]["all_pass"] is True


PROBE_GRID = {"mu0": (-50, -5, -1, -1e-3), "mu1": (1e-3, 1, 5, 50),
              "sigma": (1e-2, 0.1, 1, 10), "eps": (1e-6, 1e-3, 0.1, 10)}


@pytest.mark.parametrize("command", ["solve", "symmetric"])
def test_domain_probe_exit_codes(tmp_path, command):
    # every valid parameter set solves, or fails with a documented exit code
    codes = []
    for values in itertools.product(*PROBE_GRID.values()):
        flags = [f for k, v in zip(PROBE_GRID, values) for f in (f"--{k}", repr(v))]
        codes.append(run(tmp_path, command, *flags)[0])
    assert set(codes) <= {0, 3, 4}


# The probe sets where V1'(B) is the difference of two terms of 2.4e5 to
# 8.1e6, so that its rounding alone (2.3e-10 to 9.3e-10) exceeds 1e-10.
V1_SLOPE_SETS = {(-1e-3, 1, 1, 10), (-1e-3, 5, 1, 10), (-1e-3, 5, 10, 10),
                 (-1e-3, 50, 1, 10), (-1e-3, 50, 10, 10)}


def test_v1_slope_bound_scales_with_its_terms(tmp_path):
    # reflection-smooth-V1 is bounded relative to the terms of V1'(B): the
    # five sets solve (exit 0, every QVI condition passes), and every other
    # probe set keeps the exit code and pass flags of the absolute 1e-10
    seen = set()
    for values in itertools.product(*PROBE_GRID.values()):
        flags = [f for k, v in zip(PROBE_GRID, values) for f in (f"--{k}", repr(v))]
        code, text = run(tmp_path, "solve", *flags)
        if code == 3:   # no solution to check
            continue
        qvi = json.loads(text)["qvi"]
        assert code == (0 if qvi["all_pass"] else 4)
        absolute = [c["max_residual"] <= 1e-10 if c["name"] == "reflection-smooth-V1"
                    else c["pass"] for c in qvi["conditions"]]
        if values in V1_SLOPE_SETS:
            seen.add(values)
            assert qvi["all_pass"]
            assert absolute.count(False) == 1
        else:
            assert absolute == [c["pass"] for c in qvi["conditions"]], values
    assert seen == V1_SLOPE_SETS
