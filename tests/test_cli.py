import json
import math
import tracemalloc

import numpy as np
import pytest

from csv_output import read_csv_output
import qcollide
from qcollide import cli, dynamics

HALF = 1 / math.sqrt(2)


def run(argv, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = cli.main(argv + ["--out", str(path)])
    return code, path


def column(rows, columns, name, cast=float):
    idx = columns.index(name)
    return [cast(row[idx]) for row in rows]


class TestGridParsing:
    def test_inclusive_endpoints(self):
        grid = cli.parse_grid("0.5:0.85:0.005")
        assert len(grid) == 71
        assert grid[0] == pytest.approx(0.5)
        assert grid[-1] == pytest.approx(0.85)

    def test_single_point(self):
        assert cli.parse_grid("0.5:0.5:0.1") == [0.5]

    def test_rejects_reversed(self):
        with pytest.raises(ValueError, match="empty"):
            cli.parse_grid("0.8:0.5:0.1")

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            cli.parse_grid("0:1:0")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_grid("a:b:c")

    def test_no_point_passes_the_stop(self):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, which is no probability.
        assert cli.parse_grid("0.09:1:0.07")[-1] == 1.0
        assert all(p <= 0.95 for p in cli.parse_grid("0.05:0.95:0.05"))

    @pytest.mark.parametrize("command", ["orbit", "markovian"])
    def test_a_grid_ending_at_one_runs(self, command, tmp_path):
        code, path = run([command, "--p-grid", "0.09:1:0.07", "--collisions", "10"], tmp_path)
        assert code == 0
        _, columns, rows = read_csv_output(path)
        assert column(rows, columns, "p")[-1] == 1.0


class TestNonFiniteInput:
    """Infinite or NaN numbers are configuration errors: exit 2, no traceback."""

    def test_infinite_grid_stop_exits_two(self, tmp_path, capsys):
        code, _ = run(["orbit", "--p-grid", "0:inf:1"], tmp_path)
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_infinite_grid_step_exits_two(self, tmp_path, capsys):
        code, _ = run(["markovian", "--p-grid", "0:1:inf"], tmp_path)
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_backflow_tol_exits_two(self, tmp_path, capsys):
        code, path = run(["markovian", "--p", "0.5", "--backflow-tol", "nan"], tmp_path)
        assert code == 2
        assert "--backflow-tol" in capsys.readouterr().err
        assert not path.exists()


class TestTrajectoryCommand:
    def test_negative_backflow_tol_exits_two_before_the_run(self, monkeypatch, tmp_path, capsys):
        def unreachable(*args):
            pytest.fail("run_trajectory was called")

        monkeypatch.setattr(cli, "run_trajectory", unreachable)
        argv = ["trajectory", "--p", "0.5", "--collisions", "200000", "--backflow-tol", "-1"]
        code, path = run(argv, tmp_path)
        assert code == 2
        assert "--backflow-tol" in capsys.readouterr().err
        assert not path.exists()

    def test_single_scenario_columns_and_cycle(self, tmp_path):
        code, path = run(
            ["trajectory", "--p", "0.5", "--collisions", "100"], tmp_path
        )
        assert code == 0
        header, columns, rows = read_csv_output(str(path))
        assert columns == ["n", "coherence_A", "coherence_env", "negativity", "trace_distance"]
        assert header["scenario"] == "single"
        assert header["seed"] == "none"
        coh = column(rows, columns, "coherence_A")
        assert len(coh) == 101
        np.testing.assert_allclose(coh[:5], [1.0, HALF, 0.0, HALF, 1.0], atol=1e-9)
        neg = column(rows, columns, "negativity")
        assert neg[2] < 1e-10 and 0.115 <= neg[1] <= 0.145

    def test_multi_scenario_columns_and_schedule_echo(self, tmp_path):
        code, path = run(
            ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "11",
             "--collisions", "20"],
            tmp_path,
        )
        assert code == 0
        header, columns, rows = read_csv_output(str(path))
        assert columns == ["n", "coherence_A", "trace_distance"]
        assert header["scenario"] == "multi"
        assert header["seed"] == "11"
        events = header["schedule"].split()
        assert len(events) == 20
        assert all("-" in ev for ev in events)

    def test_determinism_byte_identical(self, tmp_path):
        argv = ["trajectory", "--p", "0.5", "--ancillas", "2", "--seed", "7",
                "--collisions", "50"]
        _, path_a = run(argv, tmp_path, "a.csv")
        _, path_b = run(argv, tmp_path, "b.csv")
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_round_trip_reproduces_data(self, tmp_path):
        argv = ["trajectory", "--p", "0.62", "--ancillas", "2", "--seed", "5",
                "--collisions", "30"]
        _, path_a = run(argv, tmp_path, "a.csv")
        header, _, rows_a = read_csv_output(str(path_a))
        rebuilt = [
            header["command"],
            "--p", header["p"],
            "--wg", header["w_g"],
            "--ancillas", header["n_ancillas"],
            "--collisions", header["n_collisions"],
            "--seed", header["seed"],
            "--format", header["format"],
        ]
        _, path_b = run(rebuilt, tmp_path, "b.csv")
        _, _, rows_b = read_csv_output(str(path_b))
        assert rows_a == rows_b

    def test_unseeded_multi_echoes_replayable_seed(self, tmp_path):
        _, path_a = run(
            ["trajectory", "--p", "0.5", "--ancillas", "2", "--collisions", "10"],
            tmp_path, "a.csv",
        )
        header, _, rows_a = read_csv_output(str(path_a))
        assert header["seed"] != "none"
        _, path_b = run(
            ["trajectory", "--p", "0.5", "--ancillas", "2", "--collisions", "10",
             "--seed", header["seed"]],
            tmp_path, "b.csv",
        )
        _, _, rows_b = read_csv_output(str(path_b))
        assert rows_a == rows_b

    def test_window_filters_rows(self, tmp_path):
        _, path = run(
            ["trajectory", "--p", "0.5", "--collisions", "30", "--window", "10:20"],
            tmp_path,
        )
        _, columns, rows = read_csv_output(str(path))
        ns = column(rows, columns, "n", cast=int)
        assert ns == list(range(10, 20))

    def test_restricted_schedule_only_touches_system(self, tmp_path):
        _, path = run(
            ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "2",
             "--collisions", "40", "--restrict-system-ancilla"],
            tmp_path,
        )
        header, _, _ = read_csv_output(str(path))
        assert all(ev.startswith("0-") for ev in header["schedule"].split())

    def test_backflow_footer_present(self, tmp_path):
        _, path = run(["trajectory", "--p", "0.5", "--collisions", "20"], tmp_path)
        text = path.read_text()
        assert "# backflow_events = " in text

    def test_requires_exactly_one_p(self, tmp_path):
        code, _ = run(["trajectory"], tmp_path)
        assert code == 2
        code, _ = run(["trajectory", "--p", "0.1", "--p", "0.2"], tmp_path)
        assert code == 2

    def test_rejects_bad_ancillas(self, tmp_path):
        code, _ = run(["trajectory", "--p", "0.5", "--ancillas", "4"], tmp_path)
        assert code == 2

    def test_rejects_bad_wg(self, tmp_path):
        code, _ = run(["trajectory", "--p", "0.5", "--wg", "1.5"], tmp_path)
        assert code == 2


class TestOrbitCommand:
    def test_single_point_three_clusters(self, tmp_path):
        code, path = run(
            ["orbit", "--p", "0.5", "--collisions", "100"], tmp_path
        )
        assert code == 0
        header, columns, rows = read_csv_output(str(path))
        assert columns == ["p", "value"]
        assert header["window"] == "41:101"
        values = column(rows, columns, "value")
        assert len(values) == 60
        clusters = sorted(set(round(v, 8) for v in values))
        np.testing.assert_allclose(clusters, [0.0, HALF, 1.0], atol=1e-8)

    def test_grid_rows_in_grid_order(self, tmp_path):
        code, path = run(
            ["orbit", "--p-grid", "0.5:0.55:0.05", "--collisions", "40"], tmp_path
        )
        assert code == 0
        header, columns, rows = read_csv_output(str(path))
        ps = column(rows, columns, "p")
        assert ps == sorted(ps)
        assert header["p_grid"] == "0.5:0.55:0.05"

    def test_grid_rows_equal_the_rows_of_single_point_runs(self, tmp_path):
        # The grid is stepped as one stack; that must change no bit of a row.
        def data_lines(argv):
            code, path = run(argv, tmp_path)
            assert code == 0
            lines = [line for line in path.read_bytes().splitlines() if not line.startswith(b"#")]
            assert lines[0] == b"p,value"
            return lines[1:]

        spec = "0.5:0.85:0.05"
        singles = [data_lines(["orbit", "--p", repr(p), "--collisions", "100"])
                   for p in cli.parse_grid(spec)]
        assert len(singles) == 8 and all(len(rows) == 60 for rows in singles)
        assert data_lines(["orbit", "--p-grid", spec, "--collisions", "100"]) == sum(singles, [])

    def test_empty_grid_exits_two(self, tmp_path, capsys):
        code = cli.main(["orbit", "--p-grid", "0.9:0.5:0.01"])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_requires_probability(self, tmp_path):
        code, _ = run(["orbit"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_rejects_other_than_one_ancilla(self, tmp_path, capsys, n):
        code, path = run(["orbit", "--p", "0.5", "--ancillas", str(n)], tmp_path)
        assert code == 2
        assert "unrecognized arguments: --ancillas" in capsys.readouterr().err
        assert not path.exists()


class TestMarkovianCommand:
    def test_columns_and_monotonicity(self, tmp_path):
        code, path = run(
            ["markovian", "--p", "0.1", "--p", "0.2", "--p", "0.5", "--p", "0.7",
             "--collisions", "60"],
            tmp_path,
        )
        assert code == 0
        header, columns, rows = read_csv_output(str(path))
        assert columns == ["n", "p", "trace_distance", "coherence"]
        ps = column(rows, columns, "p")
        assert ps == sorted(ps)
        for p in (0.1, 0.2, 0.5, 0.7):
            series = [
                float(r[2]) for r in rows if float(r[1]) == pytest.approx(p)
            ]
            assert len(series) == 61
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        footer = [
            line for line in path.read_text().splitlines()
            if line.startswith("# monotone")
        ]
        assert len(footer) == 4
        assert all(": true" in line for line in footer)

    def test_zero_p_constant_distance(self, tmp_path):
        _, path = run(["markovian", "--p", "0", "--collisions", "10"], tmp_path)
        _, columns, rows = read_csv_output(str(path))
        assert all(float(r[2]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_requires_probability(self, tmp_path):
        code, _ = run(["markovian"], tmp_path)
        assert code == 2

    def test_p_and_p_grid_exit_two(self, tmp_path, capsys):
        code, path = run(["markovian", "--p", "0.3", "--p-grid", "0.5:0.6:0.1"], tmp_path)
        assert code == 2
        assert "give either --p or --p-grid, not both" in capsys.readouterr().err
        assert not path.exists()


class TestDefaultAncilla:
    # The CLI's default --wg builds the library's DEFAULT_ANCILLA, so a default
    # run prints, to the last bit, the values of the same run in the library.
    def read(self, argv, tmp_path, *names):
        code, path = run(argv, tmp_path)
        assert code == 0
        _, columns, rows = read_csv_output(str(path))
        return [np.array(column(rows, columns, name)) for name in names]

    def test_orbit(self, tmp_path):
        (values,) = self.read(["orbit", "--p-grid", "0.5:0.85:0.005", "--collisions", "100"], tmp_path, "value")
        diagram = qcollide.orbit_sweep(cli.parse_grid("0.5:0.85:0.005"))
        assert np.array_equal(values, diagram.values.ravel())

    def test_three_ancilla_trajectory(self, tmp_path):
        argv = ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "7", "--collisions", "300"]
        got = self.read(argv, tmp_path, "coherence_A", "trace_distance")
        traj = qcollide.run_trajectory(dynamics.SUPERPOSITION_PLUS, dynamics.DEFAULT_ANCILLA,
                                       0.5, qcollide.random_schedule(4, 300, 7))
        for cli_values, name in zip(got, ["coherence_a", "trace_distance"], strict=True):
            assert np.array_equal(cli_values, traj.columns[name]), name

    def test_markovian(self, tmp_path):
        got = self.read(["markovian", "--p", "0.3", "--collisions", "500"], tmp_path, "trace_distance", "coherence")
        traj = qcollide.markovian_trajectory(dynamics.SUPERPOSITION_PLUS, 0.3,
                                             dynamics.DEFAULT_ANCILLA, 500)
        for cli_values, name in zip(got, ["trace_distance", "coherence_a"], strict=True):
            assert np.array_equal(cli_values, traj.columns[name]), name


class TestWindowRange:
    @pytest.mark.parametrize("command", [
        ["trajectory", "--p", "0.5"],
        ["orbit", "--p", "0.5"],
        ["markovian", "--p", "0.5"],
    ])
    @pytest.mark.parametrize("window", ["50:60", "5:12"])
    def test_window_past_last_collision_exits_two(self, tmp_path, capsys, command, window):
        code, path = run(command + ["--collisions", "10", "--window", window], tmp_path)
        assert code == 2
        assert "past collision 10" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("command", [
        ["trajectory", "--p", "0.5"],
        ["orbit", "--p", "0.5"],
        ["markovian", "--p", "0.5"],
    ])
    # argparse reads a bare "-1:4" as a flag, so the negative start needs the "=" form.
    @pytest.mark.parametrize("window", [["--window", "5:5"], ["--window", "7:3"], ["--window=-1:4"]])
    def test_empty_or_negative_window_exits_two(self, tmp_path, capsys, command, window):
        code, path = run(command + ["--collisions", "10"] + window, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert f"window {window[-1].removeprefix('--window=')!r} is empty or negative" in err
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("command", [
        ["trajectory", "--p", "0.5"],
        ["orbit", "--p", "0.5"],
        ["markovian", "--p", "0.5"],
    ])
    def test_window_through_last_collision_is_accepted(self, tmp_path, command):
        code, path = run(command + ["--collisions", "10", "--window", "0:11"], tmp_path)
        assert code == 0
        _, _, rows = read_csv_output(str(path))
        assert len(rows) == 11


class TestOutputPlumbing:
    def test_json_document(self, tmp_path):
        code, path = run(
            ["trajectory", "--p", "0.5", "--collisions", "10", "--format", "json"],
            tmp_path, "out.json",
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["config"]["scenario"] == "single"
        assert len(doc["rows"]) == 11
        assert doc["rows"][0]["coherence_A"] == pytest.approx(1.0)
        assert "notes" in doc

    def test_stdout_default(self, capsys):
        code = cli.main(["trajectory", "--p", "0.5", "--collisions", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# command = trajectory")

    def test_unwritable_path_exits_three(self, tmp_path, capsys):
        code = cli.main(
            ["trajectory", "--p", "0.5", "--collisions", "3",
             "--out", str(tmp_path / "missing" / "out.csv")]
        )
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_invariant_violation_exits_four(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise cli.InvariantViolationError("positivity drifted", step=1, pair=(0, 1), p=0.5, copy=0)

        monkeypatch.setattr(cli, "run_trajectory", explode)
        code = cli.main(["trajectory", "--p", "0.5", "--collisions", "3"])
        assert code == 4
        assert "invariant" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        assert cli.main(["trajectory", "--p", "0.5", "--frobnicate"]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert cli.main(["resonate"]) == 2

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "qcollide" in capsys.readouterr().out

    def test_seventeen_significant_digits(self, tmp_path):
        _, path = run(["trajectory", "--p", "0.5", "--collisions", "4"], tmp_path)
        _, columns, rows = read_csv_output(str(path))
        value = rows[1][columns.index("coherence_A")]
        # 17 significant digits round-trip float64 exactly.
        assert value == f"{float(value):.17g}"
        assert float(value) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestForeignFlags:
    """A flag its run would ignore exits 2: argparse rejects flags a subcommand
    does not declare, and one ancilla has no random schedule to seed or restrict."""

    @pytest.mark.parametrize("argv", [
        ["markovian", "--p", "0.5", "--ancillas", "2"],
        ["markovian", "--p", "0.5", "--seed", "5"],
        ["markovian", "--p", "0.5", "--restrict-system-ancilla"],
        ["orbit", "--p", "0.5", "--seed", "5"],
        ["orbit", "--p", "0.5", "--restrict-system-ancilla"],
        ["orbit", "--p", "0.5", "--backflow-tol", "1e-3"],
        ["trajectory", "--p", "0.5", "--p-grid", "0.5:0.6:0.1"],
        ["trajectory", "--p", "0.5", "--seed", "5"],
        ["trajectory", "--p", "0.5", "--ancillas", "1", "--restrict-system-ancilla"],
    ])
    def test_exits_two_without_output(self, tmp_path, capsys, argv):
        code, path = run(argv + ["--collisions", "5"], tmp_path)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not path.exists()


class TestGridPointCap:
    def test_overflowing_point_count_exits_two(self, tmp_path, capsys):
        code, path = run(["orbit", "--p-grid", "0:1e300:1e-300"], tmp_path)
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not path.exists()

    def test_grid_over_the_cap_exits_two(self, tmp_path, capsys):
        code, path = run(["markovian", "--p-grid", "0:1:1e-12"], tmp_path)
        assert code == 2
        assert "more than" in capsys.readouterr().err
        assert not path.exists()

    def test_cap_is_inclusive(self):
        cap = cli.MAX_COLLISIONS
        assert len(cli.parse_grid(f"0:{cap - 1}:1")) == cap
        with pytest.raises(ValueError, match="more than"):
            cli.parse_grid(f"0:{cap}:1")


class TestCollisionCap:
    @pytest.mark.parametrize("argv", [
        ["trajectory", "--p", "0.5", "--collisions", "1000000000000000"],
        ["trajectory", "--p", "0.5", "--ancillas", "3", "--collisions", "1000001"],
        ["orbit", "--p", "0.5", "--collisions", "1000001"],
        ["markovian", "--p", "0.5", "--collisions", "1000000000000000"],
    ])
    def test_over_the_cap_exits_two(self, tmp_path, capsys, argv):
        code, path = run(argv, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "--collisions must be" in err
        assert "Traceback" not in err
        assert not path.exists()

    @pytest.mark.parametrize("argv,points", [
        (["orbit", "--p-grid", "0.5:0.85:0.0005", "--collisions", "2000"], 701),
        (["orbit", "--p-grid", "0:0.999999:0.000001", "--collisions", "100"], 1000000),
        (["markovian", "--p-grid", "0.05:0.95:0.05", "--collisions", "100000"], 19),
        (["markovian", "--p", "0.2", "--p", "0.4", "--collisions", "500001"], 2),
    ])
    def test_grid_over_the_cap_exits_two(self, tmp_path, capsys, argv, points):
        # Each axis is within its own cap; their product of collision steps is not.
        code, path = run(argv, tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{points} probabilities x --collisions {argv[-1]}" in err
        assert "Traceback" not in err
        assert not path.exists()

    def test_grid_is_rejected_before_it_is_built(self, capsys):
        # A million-point grid as a list of floats alone takes over 30 MB.
        tracemalloc.start()
        try:
            code = cli.main(["orbit", "--p-grid", "0:0.999999:0.000001", "--collisions", "100"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "1000000 probabilities x --collisions 100" in capsys.readouterr().err
        assert peak < 5 * 2**20


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, monkeypatch, capsys):
        # main builds its parser once per process. Each call must parse as a
        # fresh parser would, and an append list (--p) must start empty,
        # also after a call that failed halfway through its --p values.
        argvs = [
            ["markovian", "--p", "0.3", "--collisions", "20"],
            ["markovian", "--p", "0.4", "--p", "x"],
            ["--version"],
            ["markovian", "--p", "0.6", "--collisions", "20"],
            ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "7", "--collisions", "30"],
            ["orbit", "--p-grid", "0.5:0.6:0.05", "--collisions", "20"],
        ]

        def outcome(parse, argv):
            try:
                return vars(parse(argv))
            except SystemExit as exc:
                return exc.code

        build = cli.build_parser
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        parser = cli._parser()
        real_parse = parser.parse_args
        seen = []

        def recording(argv):
            try:
                args = real_parse(argv)
            except SystemExit as exc:
                seen.append(exc.code)
                raise
            seen.append(vars(args))
            return args

        monkeypatch.setattr(parser, "parse_args", recording)
        codes, outs = [], []
        for argv in argvs:
            codes.append(cli.main(argv))
            outs.append(capsys.readouterr().out)
        assert codes == [0, 2, 0, 0, 0, 0]
        assert builds == [1]
        assert cli._parser() is parser
        assert seen == [outcome(build().parse_args, argv) for argv in argvs]
        assert [line for line in outs[3].splitlines() if line.startswith("# p = ")] == [
            f"# p = {cli._fmt(0.6)}"]
        assert outs[2] == f"qcollide {qcollide.__version__}\n"


class TestSeed:
    def test_negative_seed_exits_two_before_the_run(self, monkeypatch, tmp_path, capsys):
        def unreachable(*args, **kwargs):
            pytest.fail("the run was started")

        monkeypatch.setattr(cli, "random_schedule", unreachable)
        monkeypatch.setattr(cli, "run_trajectory", unreachable)
        argv = ["trajectory", "--p", "0.5", "--ancillas", "2", "--seed", "-1"]
        code, path = run(argv, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "qcollide: --seed must be >= 0, got -1\n"
        assert not path.exists()

    def test_unseeded_multi_draws_a_63_bit_seed(self, tmp_path):
        argv = ["trajectory", "--p", "0.5", "--ancillas", "2", "--collisions", "3"]
        seeds = []
        for k in range(4):
            code, path = run(argv, tmp_path, f"{k}.csv")
            assert code == 0
            seeds.append(read_csv_output(str(path))[0]["seed"])
        assert all(seed.isdigit() and 0 <= int(seed) < 2 ** 63 for seed in seeds)
        assert len(set(seeds)) > 1


class TestInvertedAncilla:
    """A --wg below 0.5 runs, and its warning is one diagnostic line on stderr."""

    @pytest.mark.parametrize("argv", [
        ["markovian", "--p", "0.5", "--wg", "0.3", "--collisions", "2"],
        ["trajectory", "--p", "0.5", "--wg", "0.3", "--collisions", "2"],
        ["orbit", "--p", "0.5", "--wg", "0", "--collisions", "2"],
    ])
    def test_warning_is_one_stderr_line(self, capsys, argv):
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("# command = ")
        assert err == ("qcollide: warning: ancilla has inverted populations (w_e > w_g), "
                       "i.e. negative temperature\n")
