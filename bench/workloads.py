"""The three benchmark workloads and the gate that checks their outputs.

Each workload is a fixed list of ``transmon_dmrg.cli run`` jobs; README.md
says why each was chosen.  A *target* is one eigenstate a job is asked for.
A target fails on any of:

* its job exited with a status other than 0 or 2 (2 = "ran, not all
  converged", which the ``converged`` gate below already covers), its row
  carries an error, or its output is missing;
* ``converged`` is false;
* its final variance exceeds ``VARIANCE_MAX``;
* its energy is more than ``ENERGY_TOL`` from the stored reference;
* (DMRG-X) its squared overlap with the bare target, read from the
  checkpoint, is below ``OVERLAP_MIN``.

The variance and convergence gates catch a run that settled in energy
without reaching an eigenstate; the others mean the answer is wrong.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

VARIANCE_MAX = 1e-9  # GHz^2
ENERGY_TOL = 1e-7  # GHz
OVERLAP_MIN = 0.5

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
CHAIN_DEVICE = HERE / "devices" / "work_scaling_chain.json"

# chain-ordered single excitations of chip_3x3: the corner qubit 8 sits at
# chain position 20 and the center qubit 4 at position 10 of its snake order
CHIP3X3_TARGETS = [[int(x == pos) for x in range(21)] for pos in (20, 10)]
LADDER = [[1] * n + [0] * (7 - n) for n in (1, 2, 3, 4)]
GSCAN = {"qubit_k": 0, "qubit_l": 1, "g_guess": 0.002, "points": 9}

NAMES = ("chip3x3", "chain_ladder", "chip2x2_gscan")


def _job(task: str, device: Path, out: Path, **fields) -> dict:
    return {"schema": "job-v1", "task": task, "device": str(device), "output_dir": str(out), **fields}


def job_docs(name: str, root: Path, rep: Path) -> list[tuple[dict, list[str]]]:
    """(job document, extra CLI flags) per job of a workload, run in order."""
    if name == "chip3x3":
        device = root / "devices" / "chip_3x3.json"
        return [
            (_job("ground", device, rep / "ground", sweep={"chi_max": 32}), []),
            (
                _job(
                    "dmrgx", device, rep / "dmrgx", parallelism=2,
                    targets=CHIP3X3_TARGETS, sweep={"chi_max": 24},
                ),
                ["--checkpoint-dir", str(rep / "checkpoints")],
            ),
        ]
    if name == "chain_ladder":
        sweep = {"chi_max": 12, "krylov_dim": 100, "lanczos_mode": "lanczos_x", "seed": 3}
        return [
            (
                _job(
                    "mtdmrgx", CHAIN_DEVICE, rep / "ladder",
                    target_sets=[[occ] for occ in LADDER], sweep=sweep,
                ),
                [],
            )
        ]
    if name == "chip2x2_gscan":
        device = root / "devices" / "chip_2x2.json"
        return [
            (
                _job(
                    "g_scan", device, rep / "gscan",
                    options={"engine": "solver", **GSCAN}, sweep={"chi_max": 16},
                ),
                [],
            )
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_jobs(name: str, root: Path, rep: Path) -> list[list[str]]:
    """Write the job files into ``rep``; returns the CLI argument lists."""
    rep.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, (doc, flags) in enumerate(job_docs(name, root, rep)):
        path = rep / f"job_{i}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        argvs.append(["run", str(path), *flags])
    return argvs


def input_files(name: str, root: Path) -> list[Path]:
    """Files a workload reads besides the package itself."""
    return [Path(doc["device"]) for doc, _ in job_docs(name, root, Path("."))]


# ---------------------------------------------------------------------------
# the gate


def target_failures(target: dict, reference: float | None) -> list[str]:
    """Reasons a target fails; empty when it passes.

    ``target`` has ``energy``, ``variance``, ``converged`` and ``error`` (and
    ``overlap`` for DMRG-X targets).  A reason is ``hard`` when the output
    is wrong or missing, as opposed to an unresolved eigenstate.
    """
    reasons = []
    if target.get("error"):
        reasons.append(f"hard: {target['error']}")
        return reasons
    if not target.get("converged"):
        reasons.append("not converged")
    variance = target.get("variance", math.nan)
    if not variance <= VARIANCE_MAX:
        reasons.append(f"variance {variance:.3e} GHz^2 > {VARIANCE_MAX:.0e}")
    energy = target.get("energy", math.nan)
    if reference is None:
        reasons.append("hard: no reference energy")
    elif not abs(energy - reference) <= ENERGY_TOL:
        reasons.append(f"hard: energy {energy!r} is {abs(energy - reference):.3e} GHz off reference")
    if "overlap" in target and not target["overlap"] >= OVERLAP_MIN:
        reasons.append(f"hard: overlap^2 {target['overlap']:.3f} with the bare target < {OVERLAP_MIN}")
    return reasons


def _missing(name: str, why: str) -> dict:
    return {"name": name, "error": f"missing output: {why}"}


def _rows(path: Path) -> list[dict]:
    return json.loads(path.read_text()) if path.exists() else []


def _status_error(status: int | None) -> str:
    if status in (0, 2):
        return ""
    return f"job exit status {status}"


def collect_targets(name: str, rep: Path, child: dict) -> list[dict]:
    """Every target's outcome, read from the workload's outputs."""
    statuses = child.get("statuses") or []
    status = lambda i: statuses[i] if i < len(statuses) else None  # noqa: E731
    targets: list[dict] = []
    if name == "chip3x3":
        from transmon_dmrg.mps import BareState, amplitude, load_state

        report = rep / "ground" / "report_ground.json"
        if report.exists():
            doc = json.loads(report.read_text())
            targets.append(
                {
                    "name": "ground",
                    "energy": doc["final_energies_ghz"][0],
                    "variance": doc["final_variances_ghz2"][0],
                    "converged": doc["converged"],
                    "error": _status_error(status(0)),
                }
            )
        else:
            targets.append(_missing("ground", "report_ground.json"))
        rows = {r["target"]: r for r in _rows(rep / "dmrgx" / "energies.json")}
        for i, occ in enumerate(CHIP3X3_TARGETS):
            label = f"dmrgx/{i}"
            if i not in rows:
                targets.append(_missing(label, "energies.json row"))
                continue
            row = rows[i]
            entry = {
                "name": label,
                "energy": row["energy_ghz"],
                "variance": row["variance_ghz2"],
                "converged": row["converged"],
                "error": row["error"] or _status_error(status(1)),
            }
            checkpoint = rep / "checkpoints" / f"target_{i}.mpsc"
            if checkpoint.exists():
                psi = load_state(str(checkpoint))
                entry["overlap"] = abs(amplitude(psi, BareState(tuple(occ)))) ** 2
            else:
                entry["overlap"] = math.nan
            targets.append(entry)
        return targets
    if name == "chain_ladder":
        rows = {r["set"]: r for r in _rows(rep / "ladder" / "energies.json")}
        for i in range(len(LADDER)):
            label = f"set{i}"
            if i not in rows:
                targets.append(_missing(label, "energies.json row"))
                continue
            row = rows[i]
            targets.append(
                {
                    "name": label,
                    "energy": row["energy_ghz"],
                    "variance": row["variance_ghz2"],
                    "converged": row["converged"],
                    "error": row["error"] or _status_error(status(0)),
                }
            )
        return targets
    if name == "chip2x2_gscan":
        reports = child.get("reports") or []
        error = _status_error(status(0))
        for p in range(GSCAN["points"]):
            for k, side in enumerate("kl"):
                label = f"point{p}/{side}"
                if p >= len(reports):
                    targets.append(_missing(label, "run_sweeps report"))
                    continue
                rep_doc = reports[p]["report"]
                targets.append(
                    {
                        "name": label,
                        "energy": rep_doc["final_energies_ghz"][k],
                        "variance": rep_doc["final_variances_ghz2"][k],
                        "converged": rep_doc["converged"],
                        "error": error,
                    }
                )
        return targets
    raise ValueError(f"unknown workload {name!r}")


def gscan_output_errors(rep: Path, references: dict) -> list[str]:
    """Compare the written g-scan table with the references' detunings."""
    path = rep / "gscan" / "g_scan.csv"
    if not path.exists():
        return ["missing output: g_scan.csv"]
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    ref = references["chip2x2_gscan"]
    errors = []
    if len(rows) != len(ref["grid_ghz"]):
        return [f"g_scan.csv has {len(rows)} rows, expected {len(ref['grid_ghz'])}"]
    for p, (row, w) in enumerate(zip(rows, ref["grid_ghz"])):
        e_k = ref["energies_ghz"][f"point{p}/k"]
        e_l = ref["energies_ghz"][f"point{p}/l"]
        if abs(float(row["swept_ghz"]) - w) > 1e-12:
            errors.append(f"point {p}: swept {row['swept_ghz']} != grid {w!r}")
        if not abs(float(row["detuning_ghz"]) - abs(e_k - e_l)) <= 2 * ENERGY_TOL:
            errors.append(f"point {p}: detuning {row['detuning_ghz']} off reference {abs(e_k - e_l)!r}")
    return errors


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def judge(name: str, rep: Path, child: dict, references: dict) -> dict:
    """Gate one repetition: per-target outcomes and workload-level errors."""
    refs = references[name]["energies_ghz"]
    rows = []
    for target in collect_targets(name, rep, child):
        reasons = target_failures(target, refs.get(target["name"]))
        rows.append({**target, "reasons": reasons})
    errors = gscan_output_errors(rep, references) if name == "chip2x2_gscan" else []
    return {
        "targets": rows,
        "attempted": len(rows),
        "failed": sum(1 for r in rows if r["reasons"]),
        "correct": not errors and not any(
            reason.startswith("hard") for r in rows for reason in r["reasons"]
        ),
        "errors": errors,
    }
