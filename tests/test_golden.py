"""Committed CLI outputs that pin the output contract and the numbers.

Headers, columns and footer words must match the files exactly. Numbers in
data cells and footers may move by at most 1e-12 + 1e-14 * n, where n is the
row's collision index (the run's collision count where a row has none), so
that a change of kernel may move the last digits but nothing more.

``PYTHONPATH=src python tests/test_golden.py`` writes only the golden files
that are missing and leaves the committed ones as they are. To regenerate one
case for a deliberate contract change, delete its file first.
"""

import json
import math
import re
from pathlib import Path

import pytest

from qcollide import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "trajectory_single.csv": ["trajectory", "--p", "0.5", "--collisions", "100"],
    "trajectory_single_window.json": [
        "trajectory", "--p", "0.8", "--collisions", "60", "--window", "20:50",
        "--backflow-tol", "1e-6", "--format", "json"],
    "trajectory_two.csv": [
        "trajectory", "--p", "0.5", "--ancillas", "2", "--seed", "7", "--collisions", "50"],
    "trajectory_three_restricted.json": [
        "trajectory", "--p", "0.62", "--wg", "0.9", "--ancillas", "3", "--seed", "11",
        "--collisions", "80", "--restrict-system-ancilla", "--format", "json"],
    "trajectory_three_window.csv": [
        "trajectory", "--p", "0.7", "--ancillas", "3", "--seed", "3", "--collisions", "300",
        "--window", "250:301"],
    "orbit_grid.csv": ["orbit", "--p-grid", "0.5:0.85:0.05", "--collisions", "100"],
    "orbit_grid.json": [
        "orbit", "--p-grid", "0.5:0.85:0.05", "--collisions", "100", "--format", "json"],
    "orbit_single_window.json": [
        "orbit", "--p", "0.75", "--collisions", "60", "--window", "30:61", "--format", "json"],
    "markovian_ps.csv": [
        "markovian", "--p", "0.7", "--p", "0.1", "--p", "0.5", "--collisions", "50",
        "--backflow-tol", "1e-6"],
    "markovian_grid_window.json": [
        "markovian", "--p-grid", "0.2:0.8:0.3", "--wg", "0.9", "--collisions", "40",
        "--window", "10:30", "--format", "json"],
}

_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:e[+-]?\d+)?|(?<!\w)(?:inf|nan)(?!\w)")


def tolerance(n: float) -> float:
    return 1e-12 + 1e-14 * n


def assert_close(got: float, want: float, n: float, where: str) -> None:
    if math.isnan(want):
        assert math.isnan(got), where
    else:
        assert abs(got - want) <= tolerance(n), f"{where}: {got!r} != {want!r}"


def assert_footer(got: list[str], want: list[str], n: int) -> None:
    assert len(got) == len(want)
    for line_got, line_want in zip(got, want):
        assert _NUMBER.split(line_got) == _NUMBER.split(line_want)
        for a, b in zip(_NUMBER.findall(line_got), _NUMBER.findall(line_want)):
            assert_close(float(a), float(b), n, line_want)


def split_csv(text: str) -> tuple[list[str], list[str], list[list[str]], list[str]]:
    """(header lines, columns, data rows, footer lines) of an emitted CSV file."""
    lines = text.splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    columns, rows = body[0].split(","), [line.split(",") for line in body[1:]]
    n_head = lines.index(body[0])
    return head[:n_head], columns, rows, [line[2:] for line in head[n_head:]]


def assert_rows(got: list[list], want: list[list], columns: list[str], n_collisions: int) -> None:
    assert len(got) == len(want)
    for i, (row_got, row_want) in enumerate(zip(got, want)):
        n = float(row_want[columns.index("n")]) if "n" in columns else n_collisions
        for name, a, b in zip(columns, row_got, row_want):
            assert_close(float(a), float(b), n, f"row {i}, column {name}")


def run_case(argv: list[str], path: Path) -> str:
    assert cli.main(argv + ["--out", str(path)]) == 0
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    argv = CASES[name]
    got_text = run_case(argv, tmp_path / name)
    want_text = (GOLDEN / name).read_text(encoding="utf-8")
    n_collisions = int(argv[argv.index("--collisions") + 1])
    if name.endswith(".csv"):
        head_got, cols_got, rows_got, foot_got = split_csv(got_text)
        head_want, cols_want, rows_want, foot_want = split_csv(want_text)
        assert head_got == head_want
        assert cols_got == cols_want
        assert_rows(rows_got, rows_want, cols_want, n_collisions)
        assert_footer(foot_got, foot_want, n_collisions)
    else:
        got, want = json.loads(got_text), json.loads(want_text)
        assert got.keys() == want.keys()
        assert got["config"] == want["config"]
        columns = list(want["rows"][0])
        assert all(list(row) == columns for row in got["rows"])
        assert_rows([list(r.values()) for r in got["rows"]],
                    [list(r.values()) for r in want["rows"]], columns, n_collisions)
        assert_footer(got.get("notes", []), want.get("notes", []), n_collisions)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        if not (GOLDEN / name).exists():
            run_case(argv, GOLDEN / name)
