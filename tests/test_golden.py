"""Byte-for-byte outputs of the command line against stored files.

These outputs depend on the value functions (the `solve` QVI residuals
use their first and second derivatives as well as their values) and on
the CSV and JSON writers, so a change to any of their bytes is a change to
the output contract.  To accept such a change on purpose, rewrite a file with
`driftgame <its command line> --output tests/data/<name>`.
"""

from pathlib import Path

import pytest

from driftgame.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "solve.csv": ("solve", "--format", "csv"),
    "solve.json": ("solve",),
    "symmetric.json": ("symmetric",),
    "sweep_eps.csv": ("sweep", "--param", "eps", "--points", "5"),
    "path_full.csv": ("path", "--pi", "0.35", "--seed", "7", "--dt", "1e-3",
                      "--horizon", "10", "--columns", "full"),
    "path_figure.csv": ("path", "--pi", "0.35", "--seed", "7", "--dt", "1e-3",
                        "--horizon", "10", "--columns", "figure"),
    "path_blocks.csv": ("path", "--seed", "1", "--dt", "1e-5", "--columns",
                        "figure"),
    "mc.json": ("mc", "--paths", "200", "--threads", "1", "--seed", "3"),
    "deviations.json": ("deviations", "--paths", "200", "--threads", "1",
                        "--seed", "3"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_stored_bytes(tmp_path, name):
    out = tmp_path / name
    assert main([*CASES[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
