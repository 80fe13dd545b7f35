"""Pin the bytes of the documented CLI reports.

Each command below (the README's examples and the acceptance criterion 9
commands) runs in-process, and its stdout, with the wall-clock member
dropped and the problems directory replaced by a placeholder, must equal
the file of the same name under ``tests/golden/``. A change that moves a
reported byte on purpose regenerates the files with

    PYTHONPATH=src python tests/test_report_bytes.py

and names the move in CHANGES.md.  Every golden report (each file but the
table's) must also parse as strict JSON: no NaN and no Infinity.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from loglosslab.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
PROBLEMS = TESTS.parent / "problems"
BINARY = str(PROBLEMS / "binary_hamming.yaml")
SKEW3 = str(PROBLEMS / "skewed3.yaml")

COMMANDS = {
    # README
    "readme_rd_point": ["rd", BINARY, "--distortion", "0.1"],
    "readme_rd_grid": ["rd", BINARY, "--grid", "0.05,0.1,0.2", "--format", "table"],
    "readme_oneshot_avg": ["oneshot", SKEW3, "--criterion", "avg", "--messages", "2"],
    "readme_oneshot_excess_logloss": [
        "oneshot", SKEW3, "--criterion", "excess", "--logloss",
        "--messages", "2", "--distortion", "0.693", "--bits"],
    "readme_equiv": ["equiv", SKEW3, "--messages", "2"],
    "readme_sr": ["sr", BINARY, "--d1", "0.5", "--d2", "0.1"],
    "readme_sr_chain": ["sr", BINARY, "--chain", "0.65,0.5,0.35", "--d2", "0.1"],
    "readme_timeshare": [
        "timeshare", "--px", "0.25,0.25,0.25,0.25", "--distortion", "0.693147",
        "--n", "100000", "--seed", "7"],
    # acceptance criterion 9; its oneshot, equiv and sr commands are the
    # README's
    "criterion9_rd": ["rd", BINARY, "--distortion", "0.2"],
    "criterion9_timeshare": [
        "timeshare", "--px", "0.25,0.25,0.25,0.25", "--distortion", "0.4",
        "--n", "1000", "--seed", "11"],
    # the oneshot cells no example above covers
    "oneshot_avg_logloss": [
        "oneshot", SKEW3, "--criterion", "avg", "--logloss", "--messages", "2"],
    "oneshot_excess": [
        "oneshot", SKEW3, "--criterion", "excess", "--messages", "2",
        "--distortion", "0.5"],
    "oneshot_codebook": [
        "oneshot", SKEW3, "--criterion", "codebook", "--distortion", "0.5",
        "--epsilon", "0.25"],
    "oneshot_codebook_logloss": [
        "oneshot", SKEW3, "--criterion", "codebook", "--logloss",
        "--distortion", "0.5", "--epsilon", "0.25"],
    # --bits: rates, log losses and slopes in bits, one report per command
    "bits_rd_grid": ["rd", BINARY, "--grid", "0.05,0.1,0.2", "--bits"],
    "bits_equiv": ["equiv", SKEW3, "--messages", "2", "--bits"],
    "bits_sr_chain": ["sr", BINARY, "--chain", "0.65,0.5,0.35", "--d2", "0.1", "--bits"],
    "bits_timeshare": [
        "timeshare", SKEW3, "--distortion", "0.3", "--d2", "0.1", "--n", "2000",
        "--seed", "1", "--bits"],
}
REPORTS = sorted(name for name, argv in COMMANDS.items() if "table" not in argv)


def normalized(stdout: str) -> str:
    """stdout without the wall-clock member, which sorts last, and the comma before it."""
    out = re.sub(r',\n *"wall_clock_seconds": [^\n]*\n', "\n", stdout)
    return out.replace(str(PROBLEMS), "<problems>")


def refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    out = normalized(capsys.readouterr().out)
    golden = (GOLDEN / f"{name}.txt").read_text()
    assert out == golden, name
    if name in REPORTS:
        json.loads(golden, parse_constant=refuse_constant)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(normalized(buffer.getvalue()))
