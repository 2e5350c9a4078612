"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them on success)."""

import itertools
import math

import numpy as np

import literal_unitaries as lit
from qcollide import analysis, cli, dynamics, metrics, model, qmat

HALF = 1 / math.sqrt(2)
PLUS = dynamics.SUPERPOSITION_PLUS
MINUS = dynamics.SUPERPOSITION_MINUS
ANC = model.ThermalAncilla(0.8, 0.2)

THREE_LEVELS = np.array([0.0, HALF, 1.0])


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


def _paired_run(p, n_collisions, n_ancillas=1, seed=None):
    if n_ancillas == 1:
        sched = dynamics.repeated_schedule(2, (0, 1), n_collisions)
    else:
        sched = dynamics.random_schedule(1 + n_ancillas, n_collisions, seed=seed)
    return dynamics.run_trajectory((PLUS, MINUS), [ANC] * n_ancillas, p, sched)


def _clusters_match(series, targets, tol):
    clusters = analysis.cluster_values(series, cluster_tol=tol)
    return (
        len(clusters) == len(targets)
        and np.max(np.abs(np.array(clusters) - targets)) < tol
    )


def test_criterion_1_period_four_coherence_cycle():
    traj = _paired_run(0.5, 100)
    series = traj.columns["coherence_a"]
    verdict = analysis.detect_period(series)
    ok = verdict.period == 4 and _clusters_match(series, THREE_LEVELS, 1e-8)
    _report(1, ok, f"coherence period {verdict.period} with clusters "
                   f"{np.round(analysis.cluster_values(series, 1e-8), 6)}")


def test_criterion_2_trace_distance_cycle_with_backflow():
    traj = _paired_run(0.5, 100)
    series = traj.columns["trace_distance"]
    verdict = analysis.detect_period(series)
    report = metrics.backflow_events(series)
    ok = (
        verdict.period == 4
        and _clusters_match(series, THREE_LEVELS, 1e-8)
        and len(report.events) > 0
    )
    _report(2, ok, f"distance period {verdict.period}, "
                   f"{len(report.events)} backflow events (memory present)")


def test_criterion_3_chaotic_regime_is_aperiodic():
    traj = _paired_run(0.8, 200)
    coh = analysis.detect_period(traj.columns["coherence_a"], window=60)
    dist = analysis.detect_period(traj.columns["trace_distance"], window=60)
    ok = coh.period is None and dist.period is None
    _report(3, ok, f"p=0.8 verdicts over last 60 of 200: coherence {coh.label}, "
                   f"distance {dist.label}")


def test_criterion_4_orbit_diagram_structure():
    grid = cli.parse_grid("0.5:0.85:0.005")
    diagram = dynamics.orbit_sweep(grid, n_collisions=100)
    by_p = dict(zip(diagram.p_grid, diagram.values))

    p075 = min(by_p, key=lambda p: abs(p - 0.75))
    n075 = analysis.distinct_values(by_p[p075], cluster_tol=1e-6)
    ok_three = n075 == 3
    ok_floor = min(by_p[p075]) > 0.05

    near_062 = {p: analysis.distinct_values(by_p[p], cluster_tol=1e-6)
                for p in by_p if abs(p - 0.62) <= 0.01 + 1e-12}
    ok_five = any(count == 5 for count in near_062.values())

    p08 = min(by_p, key=lambda p: abs(p - 0.8))
    n08 = analysis.distinct_values(by_p[p08], cluster_tol=1e-6)
    ok_chaos = n08 >= 20

    ok = ok_three and ok_floor and ok_five and ok_chaos
    _report(4, ok,
            f"clusters: {n075} at p=0.75 (want 3), "
            f"min coherence {min(by_p[p075]):.3f} (> 0.05: {ok_floor}), "
            f"near 0.62 {sorted(near_062.values())} (want a 5), "
            f"{n08} at p=0.8 (>= 20: {ok_chaos})")


def test_criterion_5_negativity_alternation():
    traj = _paired_run(0.5, 100)
    neg = traj.columns["negativity"]
    coh_a = traj.columns["coherence_a"]
    coh_env = traj.columns["coherence_env"]
    evens, odds = neg[0::2], neg[1::2]
    peak_ok = (
        np.all(evens < 1e-10)
        and np.all((0.115 <= odds) & (odds <= 0.145))
        and np.max(odds) - np.min(odds) < 1e-9
    )
    period_ok = analysis.detect_period(neg).period == 2
    max_a, max_env = np.max(coh_a), np.max(coh_env)
    partial_ok = all(
        0.0 < coh_a[n] < max_a and 0.0 < coh_env[n] < max_env
        for n in range(1, len(neg), 2)
    )
    ok = peak_ok and period_ok and partial_ok
    _report(5, ok, f"entanglement alternates 0 / {np.mean(odds):.4f} with period 2; "
                   f"at peaks both coherences strictly partial: {partial_ok}")


def test_criterion_6_markovian_limit():
    ps = (0.1, 0.2, 0.5, 0.7)
    series = {}
    finals = {}
    for p in ps:
        traj = dynamics.markovian_trajectory((PLUS, MINUS), p, ANC, 500)
        series[p] = traj.columns["trace_distance"]
        finals[p] = traj.final_registers[0]
    no_backflow = all(
        not metrics.backflow_events(series[p], tol=1e-12).events for p in ps
    )
    ordered = all(
        series[0.7][n] <= series[0.5][n] <= series[0.2][n] <= series[0.1][n]
        for n in range(1, 501)
    )
    thermalized = all(
        np.max(np.abs(np.diag(finals[p]).real - np.array([0.8, 0.2]))) < 1e-6
        for p in ps
    )
    ok = no_backflow and ordered and thermalized
    _report(6, ok, f"monotone: {no_backflow}, p-ordered: {ordered}, "
                   f"thermalized to (0.8, 0.2): {thermalized}")


def test_criterion_7_environment_size_suppresses_backflow():
    n_steps, seeds = 100, range(50)
    single = _paired_run(0.5, n_steps)
    mean_1 = float(np.mean(single.columns["trace_distance"][1:]))
    means = {1: mean_1}
    for n_anc in (2, 3):
        per_seed = []
        for seed in seeds:
            traj = _paired_run(0.5, n_steps, n_ancillas=n_anc, seed=seed)
            per_seed.append(float(np.mean(traj.columns["trace_distance"][1:])))
        means[n_anc] = float(np.mean(per_seed))
    ok = means[1] > means[2] > means[3]
    _report(7, ok, "mean distance over steps 1-100, 50 schedules: "
                   f"1 ancilla {means[1]:.4f} > 2 ancillas {means[2]:.4f} "
                   f"> 3 ancillas {means[3]:.4f}")


def test_criterion_8_structural_oracles():
    p_grid = [round(0.1 * k, 10) for k in range(11)]

    unitary_ok = True
    for n_qubits in (2, 3, 4):
        eye = np.eye(2 ** n_qubits)
        for pair in itertools.combinations(range(n_qubits), 2):
            for p in p_grid:
                u = model.pair_collision_unitary(n_qubits, pair, p).matrix
                if np.max(np.abs(u @ u.conj().T - eye)) >= 1e-12:
                    unitary_ok = False

    printed_ok = all(
        np.array_equal(
            model.pair_collision_unitary(2, (0, 1), p).matrix, lit.u4_system_ancilla(p)
        )
        and np.array_equal(
            model.pair_collision_unitary(3, (0, 1), p).matrix, lit.u8_ab(p)
        )
        for p in (0.25, 0.5, 0.8)
    )

    rng = np.random.default_rng(1234)
    kraus_ok = True
    p, w_g = 0.5, 0.8
    kraus = [
        math.sqrt(w_g) * np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
        math.sqrt(w_g) * np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex),
        math.sqrt(1 - w_g) * np.array([[math.sqrt(1 - p), 0], [0, 1]], dtype=complex),
        math.sqrt(1 - w_g) * np.array([[0, 0], [-math.sqrt(p), 0]], dtype=complex),
    ]
    u = model.pair_collision_unitary(2, (0, 1), p).matrix
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        joint = u @ qmat.kron(rho, np.diag([w_g, 1 - w_g]).astype(complex)) @ u.conj().T
        reduced = qmat.partial_trace(joint, [2, 2], keep=0)
        via_kraus = sum(k @ rho @ k.conj().T for k in kraus)
        if np.max(np.abs(reduced - via_kraus)) >= 1e-10:
            kraus_ok = False

    fresh_ok = True
    for p_step in (0.2, 0.5, 0.9):
        for _ in range(5):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            reg = qmat.kron(rho, model.thermal_density(ANC))
            reduced = qmat.partial_trace(
                dynamics.collide(reg, (0, 1), p_step), [2, 2], keep=0
            )
            if np.max(np.abs(dynamics.markovian_step(rho, p_step, ANC) - reduced)) >= 1e-13:
                fresh_ok = False

    bounds_ok = True
    runs = [
        ([ANC], dynamics.repeated_schedule(2, (0, 1), 150), 0.5),
        ([ANC] * 3, dynamics.random_schedule(4, 100, seed=8), 0.5),
    ]
    for ancillas, sched, p_run in runs:
        regs = [
            model.composite_initial(s, ancillas) for s in (PLUS, MINUS)
        ]
        for pair in map(sched.pairs.__getitem__, sched.index):
            regs = [dynamics.collide(r, pair, p_run) for r in regs]
            for reg in regs:
                trace_dev = abs(np.trace(reg) - 1.0)
                herm_dev = np.max(np.abs(reg - reg.conj().T))
                lam_min = qmat.hermitian_eigenvalues(reg)[0]
                if trace_dev >= 1e-10 or herm_dev >= 1e-10 or lam_min <= -1e-9:
                    bounds_ok = False

    ok = unitary_ok and printed_ok and kraus_ok and fresh_ok and bounds_ok
    _report(8, ok, f"unitarity {unitary_ok}, tabulated matrices {printed_ok}, "
                   f"4-operator channel {kraus_ok}, fresh-ancilla map {fresh_ok}, "
                   f"state bounds {bounds_ok}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    argv = ["trajectory", "--p", "0.5", "--ancillas", "2", "--seed", "7",
            "--collisions", "100"]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(path_a)]) == 0
    assert cli.main(argv + ["--out", str(path_b)]) == 0
    ok = path_a.read_bytes() == path_b.read_bytes()
    _report(9, ok, "identical config and seed give byte-identical output")
