"""Checks of the benchmark harness itself.

Run from the repository root: python3 -m pytest -q bench/selftest.py
(The file name keeps these checks out of the library's own test run.)
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads

# Each metric column of each workload, for the perturbation checks.
COLUMNS = {
    "orbit": ["value"],
    "ensemble3": ["coherence_A", "trace_distance"],
    "trajectory1": ["coherence_A", "coherence_env", "negativity", "trace_distance"],
    "markovian": ["trace_distance", "coherence"],
}


def run_workload(name: str, seed: int, tmp_path) -> list[str]:
    """One fresh-worker sample of a workload; returns the text of each output file."""
    argvs = workloads.WORKLOADS[name].argvs(seed)
    paths = [tmp_path / f"{name}-{seed}-{k:03d}.csv" for k in range(len(argvs))]
    sample = run.spawn([a + ["--out", str(p)] for a, p in zip(argvs, paths)], traced=False)
    assert sample["ok"], sample["error"]
    assert set(sample["exit_codes"]) == {0}
    return [p.read_text(encoding="utf-8") for p in paths]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    return {name: run_workload(name, 1, tmp) for name in workloads.WORKLOADS}


def perturb(text: str, column: str, delta: float = 1e-6) -> str:
    """Shift one value of ``column`` in the middle data row by ``delta``."""
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    k = lines[data[0]].rstrip("\n").split(",").index(column)
    i = data[len(data) // 2]
    cells = lines[i].rstrip("\n").split(",")
    cells[k] = f"{float(cells[k]) + delta:.17g}"
    lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_accepts_seed_outputs(outputs, name):
    errors = workloads.WORKLOADS[name].check(1, outputs[name])
    assert errors == [[]] * len(outputs[name])


@pytest.mark.parametrize("name,column", [(n, c) for n, cols in COLUMNS.items() for c in cols])
def test_gate_rejects_perturbed_value(outputs, name, column):
    texts = list(outputs[name])
    texts[0] = perturb(texts[0], column)
    errors = workloads.WORKLOADS[name].check(1, texts)
    assert any(column in e for e in errors[0]), errors[0]
    assert all(not e for e in errors[1:])


def test_gate_rejects_missing_output(outputs):
    errors = workloads.WORKLOADS["orbit"].check(1, [None])
    assert errors == [["no output file"]]


def test_seed_fixes_ensemble_inputs(outputs, tmp_path):
    again = run_workload("ensemble3", 1, tmp_path)
    assert again == outputs["ensemble3"]
    other = run_workload("ensemble3", 2, tmp_path)

    def schedules(texts):
        return [workloads.parse_csv(t).header["schedule"] for t in texts]

    assert all(a != b for a, b in zip(schedules(outputs["ensemble3"]), schedules(other)))


def test_tracer_wraps_every_entry_point(tmp_path):
    out = str(tmp_path / "out")
    calls = [
        ["trajectory", "--p", "0.5", "--collisions", "3", "--out", out],
        ["trajectory", "--p", "0.5", "--ancillas", "2", "--seed", "1", "--collisions", "3", "--out", out],
        ["orbit", "--p-grid", "0.5:0.6:0.05", "--collisions", "3", "--window", "1:3", "--out", out],
        ["markovian", "--p", "0.5", "--collisions", "3", "--format", "json", "--out", out],
    ]
    sample = run.spawn(calls, traced=True)
    assert sample["ok"], sample["error"]
    assert sample["exit_codes"] == [0] * len(calls)
    report = sample["trace"]
    assert report["absent"] == []
    assert report["hook_errors"] == 0
    assert {layer for layer, info in report["layers"].items() if info["calls"] == 0} == set()
    sites = report["sites"]
    assert {"qcollide.model.pair_collision_unitary", "qcollide.dynamics.pair_collision_unitary"} <= set(
        sites["model.pair_collision_unitary"])
    assert {"qcollide.dynamics.run_trajectory", "qcollide.cli.run_trajectory"} <= set(
        sites["dynamics.run_trajectory"])
    assert set(run.REPORTED_LAYERS) <= set(report["layers"])


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import qcollide.model  # noqa: F401

    monkeypatch.setattr(tracer, "SPANS", (
        ("gone.function", "model", "no_such_function"),
        ("gone.module", "no_such_module", "anything"),
    ))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["model.no_such_function", "no_such_module.anything"]
    assert t.layers() == {name: {"calls": 0, "self_s": 0.0} for name in ("gone.function", "gone.module")}


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: time.sleep(0.02))
    outer = t.wrap("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    calls, total, self_s = t.edges[(tracer.ROOT, "outer")]
    assert calls == 1 and total >= 0.03
    assert self_s == pytest.approx(total - t.edges[("outer", "inner")][1])
    assert t.edges[("outer", "inner")][0] == 1


def test_benchmark_json_lists_every_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_declared_metrics(trace, group):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "markovian", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[group]}
    units = {m["name"]: m["unit"] for m in spec[group]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    record = json.loads((run.OUT / "results" / f"markovian-seed3-trace{trace}.json").read_text())
    prov = record["provenance"]
    assert prov["workload_seed"] == 3
    assert prov["qcollide_path"].startswith(str(run.SRC.resolve()))
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "loadavg_start", "host_speed_ms_start"):
        assert key in prov


def test_runner_refuses_tree_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
