"""Benchmark runner for qcollide's command-line workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` for about S seconds, one fresh worker
process per sample and one worker at a time, checks every output file, writes
a results file under ``bench/out/results/`` and prints one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
See README.md in this directory for the metrics and how to read them.
"""

import os

# One BLAS thread in this process and in every worker, so that this process
# and the one running worker use at most two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, count_values

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 8  # import-only workers per run, on top of one per sample
MIN_SAMPLES = 3  # untraced samples per run
MIN_TRACED_SAMPLES = 4  # a traced run alternates untraced and traced samples
WORKER_TIMEOUT_S = 150

# Layers whose calls and self time are reported with --trace 1 (tracer.SPANS names).
REPORTED_LAYERS = (
    "qmat.eigvalsh", "qmat.psd", "qmat.trace_norm", "qmat.partial_trace", "qmat.partial_transpose",
    "dynamics.check", "dynamics.collide", "dynamics.loop", "dynamics.markovian_step",
    "model.unitary", "metrics.negativity", "metrics.trace_distance", "metrics.l1_coherence",
    "metrics.backflow", "cli.render", "cli.main",
)


def spawn(invocations: list[list[str]], traced: bool) -> dict:
    """Run one worker to completion; return its report plus set-up time."""
    spec = {"src": str(SRC), "invocations": invocations, "trace": traced}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        return {"ok": False, "error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    report.update(ok=True, setup_s=report["ready"] - start, stderr=proc.stderr[-2000:])
    return report


def median(values):
    return statistics.median(values) if values else None


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the shared host runs right now."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def provenance(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcollide").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "loadavg_start": os.getloadavg(),
        "host_speed_ms_start": host_speed_ms(),
    }


def run_samples(invocations, outputs, seconds: float, trace: bool) -> list[dict]:
    """Alternate untraced (and, with ``trace``, traced) samples for about ``seconds``."""
    samples = []
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        for path in outputs:
            path.unlink(missing_ok=True)
        t0 = time.monotonic()
        sample = spawn(invocations, traced)
        last = time.monotonic() - t0
        sample["traced"] = traced
        sample["outputs"] = [p.read_bytes() if p.exists() else None for p in outputs]
        samples.append(sample)
        enough = len(samples) >= (MIN_TRACED_SAMPLES if trace else MIN_SAMPLES)
        if enough and time.monotonic() - start + last > seconds:
            return samples


def judge(workload, seed: int, samples: list[dict]) -> tuple[int, int, list[str]]:
    """Apply the correctness gate; return (attempted, failed, reasons).

    The first sample's files are checked against closed forms or the
    reference; every other sample must reproduce them byte for byte.
    """
    first = samples[0]["outputs"]
    texts = [b.decode("utf-8") if b is not None else None for b in first]
    try:
        errors = workload.check(seed, texts)
    except Exception:  # a malformed file fails the gate; it must not lose the report
        errors = [[traceback.format_exc(limit=3)]] * len(texts)
    reasons = [f"invocation {k}: {e}" for k, errs in enumerate(errors) for e in errs]
    attempted = failed = 0
    for i, sample in enumerate(samples):
        codes = sample.get("exit_codes") or [None] * len(first)
        if not sample["ok"]:
            reasons.append(f"sample {i}: {sample['error']}")
        for k, code in enumerate(codes):
            attempted += 1
            bad = code != 0 or bool(errors[k]) or sample["outputs"][k] != first[k]
            failed += bad
            if code != 0 and sample["ok"]:
                reasons.append(f"sample {i} invocation {k}: exit code {code}")
            elif sample["outputs"][k] != first[k]:
                reasons.append(f"sample {i} invocation {k}: output differs from sample 0")
    return attempted, failed, reasons


def end_to_end(workload, samples, probes) -> dict:
    timed = [s for s in samples if s["ok"] and not s["traced"]]
    walls = [s["wall_s"] for s in timed]
    return {
        "wall_s": (median(walls), "s"),
        "steps_per_s": (median([workload.steps / w for w in walls]), "1/s"),
        "setup_s": (median([s["setup_s"] for s in samples + probes if s["ok"]]), "s"),
        "peak_rss_mb": (median([s["peak_rss_kb"] / 1024 for s in timed]), "MB"),
    }


def per_layer(workload, samples) -> dict:
    traced = [s for s in samples if s["ok"] and s["traced"]]
    untraced = [s for s in samples if s["ok"] and not s["traced"]]
    if not traced or not untraced:
        return {}
    reports = [s["trace"] for s in traced]
    last = reports[-1]  # counts repeat exactly from sample to sample; times vary

    def calls(name):
        return last["layers"][name]["calls"]

    def self_s(name):
        return median([r["layers"][name]["self_s"] for r in reports])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in REPORTED_LAYERS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    neg_emitted = count_values(
        [b.decode("utf-8") if b is not None else None for b in samples[0]["outputs"]], "negativity"
    )
    neg_calls = calls("metrics.negativity")
    out.update({
        "qmat.eigvalsh.us_per_call": (1e6 * ratio(self_s("qmat.eigvalsh"), calls("qmat.eigvalsh")), "us"),
        "dynamics.check.per_copy_step": (ratio(calls("dynamics.check"), workload.register_steps), "ratio"),
        "metrics.negativity.unused_ratio": (ratio(max(neg_calls - neg_emitted, 0), neg_calls), "ratio"),
        "model.unitary.rebuild_ratio": (ratio(calls("model.unitary"), last["unitary_distinct"]), "ratio"),
        "dynamics.collide.flop_computed": (last["collide_flop"], "flop"),
        "cli.render.bytes": (last["render_bytes"], "B"),
        "trace.overhead_s": (
            median([s["wall_s"] for s in traced]) - median([s["wall_s"] for s in untraced]), "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "qcollide" / "cli.py").is_file():
        print(f"bench: no qcollide source tree at {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    prov = provenance(args.seed)
    work = OUT / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    argvs = workload.argvs(args.seed)
    outputs = [work / f"{k:03d}.csv" for k in range(len(argvs))]
    invocations = [a + ["--out", str(p)] for a, p in zip(argvs, outputs)]

    warm = spawn([], False)  # compiles bytecode and warms the page cache; not reported
    if not warm["ok"]:
        print(f"bench: cannot import qcollide: {warm['error']}", file=sys.stderr)
        return 2
    imported = Path(warm["qcollide_path"]).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"bench: imported qcollide from {imported}, not from {SRC}", file=sys.stderr)
        return 2
    prov.update(qcollide_path=str(imported), numpy=warm["numpy"])

    probes = [spawn([], False) for _ in range(SETUP_PROBES)]
    samples = run_samples(invocations, outputs, args.seconds, bool(args.trace))
    attempted, failed, reasons = judge(workload, args.seed, samples)
    metrics = per_layer(workload, samples) if args.trace else end_to_end(workload, samples, probes)
    correct = failed == 0 and all(s["ok"] for s in samples + probes) and all(
        v is not None for v, _ in metrics.values())
    prov.update(loadavg_end=os.getloadavg(), host_speed_ms_end=host_speed_ms())

    untraced_walls = sorted(s["wall_s"] for s in samples if s["ok"] and not s["traced"])
    record = {
        "provenance": prov,
        "workload": {"name": workload.name, "argv": argvs,
                     "steps": workload.steps, "register_steps": workload.register_steps},
        "run_seconds": args.seconds,
        "trace": bool(args.trace),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "gate_failures": reasons,
        # The ten-samples-beyond rule supports no tail percentile at these
        # sample counts, so the raw samples and their maximum are kept instead.
        "wall_s_samples": untraced_walls,
        "wall_s_max": untraced_walls[-1] if untraced_walls else None,
        "setup_s_samples": [s["setup_s"] for s in samples + probes if s["ok"]],
        "samples": [{k: v for k, v in s.items() if k not in ("outputs", "trace")} for s in samples],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    traced = [s for s in samples if s["ok"] and s["traced"]]
    if traced:
        record["tracer"] = traced[-1]["trace"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for path_out in outputs:
        path_out.unlink(missing_ok=True)

    for reason in reasons[:20]:
        print(f"bench: {reason}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if v is not None},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
