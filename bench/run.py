"""Benchmark of the transmon_dmrg CLI; see README.md in this directory.

Usage (from the repository root):

    python3 bench/run.py --workload chain_ladder --seed 1 --seconds 55 --trace 0

Each repetition runs the workload's CLI jobs in a fresh process with BLAS
pinned to one thread, and gates every target's output against stored
references.  Repetitions continue while another one is expected to end
within ``--seconds``.  ``wall_s`` and ``cpu_s`` are those of the fastest
repetition (on a shared host, interference only ever slows a repetition
down), ``setup_s`` and ``peak_rss_mb`` are medians; the three times are
scaled to a reference host speed (see ``calibration_s``).  With
``--trace 1`` one untraced repetition is followed by traced ones and the
per-layer metrics are reported instead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workload inputs are fixed (later changes are compared on exactly these
jobs, and the chain ladder's solver seed is part of its definition), so
``--seed`` is recorded but selects nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)  # before numpy is imported, here and in every child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # set-up-only processes per run, besides each repetition's own
# the fastest calibration pass seen on a 2-vCPU Xeon at 2.0 GHz in a quiet phase
CALIBRATION_REF_S = 0.06
CALIBRATION_PASSES = 3  # before each set-up probe and repetition
REP_TIMEOUT_S = 170.0
RUN_CAP_S = 175.0  # a run must exit within 180 s

PER_LAYER = {
    "model.mpo_max_bond": "count",
    "model.build_mpo.s": "s",
    "solver.matvec.calls": "count",
    "solver.matvec.s": "s",
    "solver.matvec.us_per_call": "us",
    "solver.lanczos_x.calls": "count",
    "solver.lanczos_x.self_s": "s",
    "solver.lanczos_x.matvec_per_call": "count",
    "solver.lanczos_x.cap_hit_frac": "frac",
    "solver.run_sweeps.calls": "count",
    "solver.run_sweeps.self_s": "s",
    "solver.sweeps": "count",
    "solver.build_environments.s": "s",
    "tensor.svd_split.calls": "count",
    "tensor.svd_split.s": "s",
    "tensor.qr_split.s": "s",
    "mps.variance.s": "s",
    "mps.expectation.s": "s",
    "cli.pool_busy_frac": "frac",
    "analysis.engine.calls": "count",
    "analysis.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or a broken child)."""


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return its resource usage.

    On timeout, or if this process is interrupted, the child is killed and
    reaped before the error propagates.
    """
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() <= deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            time.sleep(0.02)
        raise BenchError(f"repetition exceeded {timeout:.0f} s and was killed")
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)


def run_rep(name: str, rep: Path, mode: str, timeout: float = REP_TIMEOUT_S) -> dict:
    """One repetition of a workload in a fresh process.

    ``mode`` is ``timed``, ``traced`` or ``setup`` (see child.py).  Returns
    the child's result plus wall, set-up and CPU time and peak memory.
    """
    if rep.exists():
        shutil.rmtree(rep)
    argvs = workloads.write_jobs(name, ROOT, rep)
    result_path = rep / "result.json"
    plan = {"src": str(SRC), "mode": mode, "jobs": argvs, "result": str(result_path)}
    plan_path = rep / "plan.json"
    plan_path.write_text(json.dumps(plan))
    env = {**os.environ, **BLAS_PINS}
    env.pop("TRANSMON_DMRG_THREADS", None)  # the pool width comes from the job file
    with open(rep / "child.log", "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan_path)],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(rep),
        )
        usage = _wait(proc, timeout)
    if proc.returncode != 0 or not result_path.exists():
        tail = (rep / "child.log").read_text()[-2000:]
        raise BenchError(f"{name} {mode} child exited {proc.returncode}:\n{tail}")
    child = json.loads(result_path.read_text())
    if child.get("module_file") and not Path(child["module_file"]).is_relative_to(SRC):
        raise BenchError(f"package imported from {child['module_file']}, not {SRC}")
    out = {
        "child": child,
        "setup_s": child["first_mpo_at"] - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if mode != "setup":
        out["wall_s"] = child["done_at"] - started
    return out


def calibration_s() -> float:
    """Time one pass of a fixed dense kernel that does not use the package.

    The benchmark host is shared and drifts between faster and slower phases
    lasting minutes, longer than a run; they slow this kernel and the
    workloads alike.  Passes run before each set-up probe and repetition,
    while no child runs, and a run's times are scaled by
    ``CALIBRATION_REF_S / fastest pass``: seconds at the reference speed.
    """
    a = np.random.default_rng(0).standard_normal((300, 300))
    started = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a.T / 300)
    return time.perf_counter() - started


def manifest(args) -> dict:
    import numpy
    import scipy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        revision = ""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_env": {k: os.environ.get(k) for k in BLAS_PINS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision or "unknown",
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "transmon_dmrg").glob("*.py"))
        ),
    }


def check_checkout(name: str) -> None:
    needed = [SRC / "transmon_dmrg" / "cli.py", workloads.REFERENCES]
    needed += workloads.input_files(name, ROOT)
    missing = sorted({str(p.relative_to(ROOT)) for p in needed if not p.exists()})
    if missing:
        raise BenchError("not a transmon_dmrg checkout; missing " + ", ".join(missing))


def measure(args) -> tuple[dict, dict]:
    """Run the repetitions; returns (final result, details)."""
    name, budget = args.workload, float(args.seconds)
    references = workloads.load_references()
    work = WORK / f"{name}-{os.getpid()}"
    start = time.perf_counter()
    gates, reps, setups, traced, passes = [], [], [], [], []

    def repeat(mode: str, index: int) -> dict:
        remaining = RUN_CAP_S - (time.perf_counter() - start)
        rep_dir = work / f"{mode}{index}"
        rep = run_rep(name, rep_dir, mode, timeout=max(remaining, 1.0))
        if mode != "setup":
            gates.append(workloads.judge(name, rep_dir, rep["child"], references))
        shutil.rmtree(rep_dir)
        return rep

    def another(runs: list[dict]) -> bool:
        """Whether one more repetition is expected to end within the budget."""
        if not runs:
            return True
        expected = statistics.median(r["wall_s"] for r in runs)
        return time.perf_counter() - start + expected <= budget

    try:
        if args.trace:
            reps.append(repeat("timed", 0))
            while another(traced):
                traced.append(repeat("traced", len(traced)))
        else:
            for i in range(SETUP_PROBES):
                passes.extend(calibration_s() for _ in range(CALIBRATION_PASSES))
                setups.append(repeat("setup", i)["setup_s"])
            while another(reps):
                passes.extend(calibration_s() for _ in range(CALIBRATION_PASSES))
                reps.append(repeat("timed", len(reps)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    median = lambda key, runs: statistics.median(r[key] for r in runs)  # noqa: E731
    scale = CALIBRATION_REF_S / min(passes) if passes else None
    if args.trace:
        layers = {
            key: statistics.median_low(r["child"]["layers"][key] for r in traced)
            for key in traced[0]["child"]["layers"]
        }
        layers["trace.overhead_s"] = median("wall_s", traced) - median("wall_s", reps)
        metrics = {key: (layers[key], unit) for key, unit in PER_LAYER.items()}
    else:
        layers = {}
        metrics = {
            "wall_s": (scale * min(r["wall_s"] for r in reps), "s"),
            "setup_s": (scale * statistics.median(setups + [r["setup_s"] for r in reps]), "s"),
            "cpu_s": (scale * min(r["cpu_s"] for r in reps), "s"),
            "peak_rss_mb": (median("peak_rss_mb", reps), "MB"),
            "pass_frac": (1.0 - failed / attempted, "frac"),
        }
    result = {
        "correct": all(g["correct"] for g in gates),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    details = {
        "manifest": manifest(args),
        "fail_frac": failed / attempted,
        "median_s": {key: median(key, reps) for key in ("wall_s", "cpu_s")},
        "calibration_s": passes,
        "scale": scale,
        "repetitions": [
            {k: r[k] for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")} for r in reps + traced
        ],
        "setup_probes_s": setups,
        "heff_applications": [
            sum(x["report"]["heff_applications"] for x in r["child"]["reports"]) for r in reps + traced
        ],
        "layers": layers,
        "spans": traced[-1]["child"]["spans"] if traced else {},
        "failures": sorted(
            {f"{t['name']}: {'; '.join(t['reasons'])}" for g in gates for t in g["targets"] if t["reasons"]}
            | {e for g in gates for e in g["errors"]}
        ),
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in _wait
    try:
        check_checkout(args.workload)
        result, details = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    (WORK / f"last_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=2) + "\n"
    )
    print(json.dumps(details, indent=None))
    summary = dict(result["metrics"])
    if not args.trace:
        summary["fail_frac"] = {"value": details["fail_frac"], "unit": "frac"}
    for key, m in summary.items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
