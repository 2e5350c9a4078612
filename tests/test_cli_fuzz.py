"""CLI fuzz: argv built from fixed fragments, valid and malformed, on every
subcommand. Every run must exit 0, 2, 3 or 4 with no traceback on stderr, a
flag the subcommand does not declare must exit 2, and a failed run must write
no output file."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import cli

OK_OUT, MISSING_OUT = "<out>", "<missing-dir-out>"


def _fragments(values_by_flag):
    return [[flag, value] for flag, values in values_by_flag.items() for value in values]


# Values some subcommand accepts (a window may still end past the last
# collision); grids hold at most five points and runs at most 10 collisions.
VALID = _fragments({
    "--p": ["0", "0.5", "0.8", "1"],
    "--p-grid": ["0.5:0.7:0.1", "0.2:0.2:0.1", "0:1:0.25"],
    "--wg": ["0", "0.8", "1"],
    "--ancillas": ["1", "2", "3"],
    "--collisions": ["1", "3", "10"],
    "--seed": ["0", "5", "99999999999999999999"],
    "--window": ["0:2", "1:3"],
    "--backflow-tol": ["0", "1e-9", "0.5"],
    "--format": ["csv", "json"],
    "--out": [OK_OUT],
}) + [["--restrict-system-ancilla"]]

# Malformed, non-finite or out-of-range values, and flags nothing declares.
INVALID = _fragments({
    "--p": ["-0.2", "1.5", "1e308", "nan", "inf", "x"],
    "--p-grid": ["1:2:0.5", "0.9:0.1:0.1", "0:1:0", "0:1:-0.1", "0:inf:1", "nan:1:0.5",
                 "a:b:c", "0:1", "0:1e300:1e-300", "0:1:1e-12"],
    "--wg": ["-0.1", "1.5", "nan", "x"],
    "--ancillas": ["-1", "0", "4", "x"],
    "--collisions": ["-1", "0", "x", "1000000000000000"],
    "--seed": ["-3", "x"],
    "--window": ["5:2", "3:3", "-1:2", "a:b", "1:2:3", "0:50"],
    "--backflow-tol": ["-1", "nan", "inf", "-inf", "x"],
    "--format": ["xml"],
    "--out": [MISSING_OUT],
}) + [["--frobnicate"], ["--seed=5"], ["--p-grid"], ["stray"], ["--version"]]

BAD_PROBABILITY = [f for f in INVALID if f[0] in ("--p", "--p-grid")]

# The flags each subcommand declares; every other flag must exit 2.
FLAGS = {
    "trajectory": {"--p", "--wg", "--ancillas", "--collisions", "--seed", "--window",
                   "--restrict-system-ancilla", "--backflow-tol", "--format", "--out"},
    "orbit": {"--p", "--p-grid", "--wg", "--collisions", "--window", "--format", "--out"},
    "markovian": {"--p", "--p-grid", "--wg", "--collisions", "--window", "--backflow-tol",
                  "--format", "--out"},
}


@st.composite
def argvs(draw):
    """A subcommand with one --p or --p-grid, valid or not, up to three of its
    own valid flags, then at most one malformed value or foreign flag."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    own = [f for f in VALID if f[0] in FLAGS[command]]
    probability = [f for f in own if f[0] in ("--p", "--p-grid")]
    options = [f for f in own if f not in probability]
    bad = INVALID + [f for f in VALID if f[0] not in FLAGS[command]]
    fragments = [draw(st.sampled_from(probability) | st.sampled_from(BAD_PROBABILITY))]
    fragments += draw(st.lists(st.sampled_from(options), max_size=3))
    fragments += draw(st.lists(st.sampled_from(bad), max_size=1))
    return [command, "--collisions", "3"] + [token for f in fragments for token in f]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
def test_cli_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {OK_OUT: os.path.join(tmp, "out.csv"),
                 MISSING_OUT: os.path.join(tmp, "missing", "out.csv")}
        argv = [paths.get(token, token) for token in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4), argv
        flags = {token.split("=")[0] for token in argv if token.startswith("--")}
        if flags - FLAGS[argv[0]]:
            assert code == 2, argv
        assert "Traceback" not in err.getvalue(), argv
        if code != 0:
            assert not os.path.exists(paths[OK_OUT]), argv
