import json
import math

import numpy as np
import pytest

from qcollide import cli

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
        with pytest.raises(cli.ConfigError, match="empty"):
            cli.parse_grid("0.8:0.5:0.1")

    def test_rejects_bad_step(self):
        with pytest.raises(cli.ConfigError, match="step"):
            cli.parse_grid("0:1:0")

    def test_rejects_garbage(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_grid("a:b:c")


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
    def test_single_scenario_columns_and_cycle(self, tmp_path):
        code, path = run(
            ["trajectory", "--p", "0.5", "--collisions", "100"], tmp_path
        )
        assert code == 0
        header, columns, rows = cli.read_csv_output(str(path))
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
        header, columns, rows = cli.read_csv_output(str(path))
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
        header, _, rows_a = cli.read_csv_output(str(path_a))
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
        _, _, rows_b = cli.read_csv_output(str(path_b))
        assert rows_a == rows_b

    def test_unseeded_multi_echoes_replayable_seed(self, tmp_path):
        _, path_a = run(
            ["trajectory", "--p", "0.5", "--ancillas", "2", "--collisions", "10"],
            tmp_path, "a.csv",
        )
        header, _, rows_a = cli.read_csv_output(str(path_a))
        assert header["seed"] != "none"
        _, path_b = run(
            ["trajectory", "--p", "0.5", "--ancillas", "2", "--collisions", "10",
             "--seed", header["seed"]],
            tmp_path, "b.csv",
        )
        _, _, rows_b = cli.read_csv_output(str(path_b))
        assert rows_a == rows_b

    def test_window_filters_rows(self, tmp_path):
        _, path = run(
            ["trajectory", "--p", "0.5", "--collisions", "30", "--window", "10:20"],
            tmp_path,
        )
        _, columns, rows = cli.read_csv_output(str(path))
        ns = column(rows, columns, "n", cast=int)
        assert ns == list(range(10, 20))

    def test_restricted_schedule_only_touches_system(self, tmp_path):
        _, path = run(
            ["trajectory", "--p", "0.5", "--ancillas", "3", "--seed", "2",
             "--collisions", "40", "--restrict-system-ancilla"],
            tmp_path,
        )
        header, _, _ = cli.read_csv_output(str(path))
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
        header, columns, rows = cli.read_csv_output(str(path))
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
        header, columns, rows = cli.read_csv_output(str(path))
        ps = column(rows, columns, "p")
        assert ps == sorted(ps)
        assert header["p_grid"] == "0.5:0.55:0.05"

    def test_empty_grid_exits_two(self, tmp_path, capsys):
        code = cli.main(["orbit", "--p-grid", "0.9:0.5:0.01"])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_requires_probability(self, tmp_path):
        code, _ = run(["orbit"], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_rejects_other_than_one_ancilla(self, tmp_path, capsys, n):
        code, path = run(["orbit", "--p", "0.5", "--ancillas", str(n)], tmp_path)
        assert code == 2
        assert "--ancillas must be 1" in capsys.readouterr().err
        assert not path.exists()


class TestMarkovianCommand:
    def test_columns_and_monotonicity(self, tmp_path):
        code, path = run(
            ["markovian", "--p", "0.1", "--p", "0.2", "--p", "0.5", "--p", "0.7",
             "--collisions", "60"],
            tmp_path,
        )
        assert code == 0
        header, columns, rows = cli.read_csv_output(str(path))
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
        _, columns, rows = cli.read_csv_output(str(path))
        assert all(float(r[2]) == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_requires_probability(self, tmp_path):
        code, _ = run(["markovian"], tmp_path)
        assert code == 2

    def test_p_and_p_grid_exit_two(self, tmp_path, capsys):
        code, path = run(["markovian", "--p", "0.3", "--p-grid", "0.5:0.6:0.1"], tmp_path)
        assert code == 2
        assert "give either --p or --p-grid, not both" in capsys.readouterr().err
        assert not path.exists()


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
    def test_window_through_last_collision_is_accepted(self, tmp_path, command):
        code, path = run(command + ["--collisions", "10", "--window", "0:11"], tmp_path)
        assert code == 0
        _, _, rows = cli.read_csv_output(str(path))
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
            raise cli.InvariantViolationError("positivity drifted")

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
        _, columns, rows = cli.read_csv_output(str(path))
        value = rows[1][columns.index("coherence_A")]
        # 17 significant digits round-trip float64 exactly.
        assert value == f"{float(value):.17g}"
        assert float(value) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
