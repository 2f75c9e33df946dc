"""Regenerate the benchmark's correctness references (not timed).

Usage (from the repository root):

    python3 bench/make_references.py            # chain ladder + g-scan oracles
    python3 bench/make_references.py --anchor-chip3x3

* ``chain_ladder``: writes ``devices/work_scaling_chain.json`` (from
  ``chips.work_scaling_chain()``) and takes each ladder target's energy from
  the dense ``oracle.diagonalize`` spectrum with ``oracle.best_match``
  (dimension 3^7 = 2187, about half a minute).
* ``chip2x2_gscan``: for each grid point, ``oracle.low_spectrum`` (k=24,
  residual-certified) with an injective match of the two single-excitation
  targets (about 2.5 s per point).
* ``chip3x3``: no oracle reaches its dimension (4^9 * 3^12).  Its energies
  are anchored to one solver run of the commit that defined the benchmark;
  ``--anchor-chip3x3`` re-records them and should not be used to follow a
  later change.  Without the flag the stored anchors are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run  # pins BLAS threads and sets up the import paths
import workloads

from transmon_dmrg import analysis, chips, oracle
from transmon_dmrg.model import load_device, save_device, snake_order
from transmon_dmrg.mps import BareState

GSCAN_K = 24


def injective_match(spectrum: oracle.DenseSpectrum, bares) -> list[tuple[int, float]]:
    """Distinct eigenstates for the bare states, by descending overlap^2."""
    ov = [
        abs(spectrum.states[oracle.basis_index(spectrum.local_dims, b.occupations), :]) ** 2
        for b in bares
    ]
    pairs = sorted(
        ((float(row[j]), k, j) for k, row in enumerate(ov) for j in range(row.size)),
        reverse=True,
    )
    out: dict[int, tuple[int, float]] = {}
    used: set[int] = set()
    for weight, k, j in pairs:
        if k not in out and j not in used:
            out[k] = (j, weight)
            used.add(j)
    return [out[k] for k in range(len(bares))]


def chain_ladder() -> dict:
    device = chips.work_scaling_chain()
    workloads.CHAIN_DEVICE.parent.mkdir(exist_ok=True)
    save_device(device, str(workloads.CHAIN_DEVICE))
    spectrum = oracle.diagonalize(load_device(str(workloads.CHAIN_DEVICE)))
    energies, overlaps = {}, {}
    for i, occ in enumerate(workloads.LADDER):
        idx, weight = oracle.best_match(spectrum, BareState(tuple(occ)))
        energies[f"set{i}"] = float(spectrum.energies[idx])
        overlaps[f"set{i}"] = weight
    return {
        "source": "oracle.diagonalize + oracle.best_match (dense, dim 2187)",
        "energies_ghz": energies,
        "oracle_overlap2": overlaps,
    }


def gscan_point(device, order, omega: float) -> dict:
    """Reference energies of the two g-scan targets at one grid point."""
    k, l = workloads.GSCAN["qubit_k"], workloads.GSCAN["qubit_l"]
    bares = [analysis.bare_with(device, order, {k: 1}), analysis.bare_with(device, order, {l: 1})]
    spectrum = oracle.low_spectrum(device.with_mode_omega(k, float(omega)), k=GSCAN_K, order=order)
    (ik, wk), (il, wl) = injective_match(spectrum, bares)
    return {
        "k": float(spectrum.energies[ik]),
        "l": float(spectrum.energies[il]),
        "overlap2": [wk, wl],
    }


def gscan() -> dict:
    device = load_device(str(run.ROOT / "devices" / "chip_2x2.json"))
    order = snake_order(device)
    grid = analysis.default_g_sweep(
        device.modes[workloads.GSCAN["qubit_l"]].omega,
        workloads.GSCAN["g_guess"],
        workloads.GSCAN["points"],
    )
    energies, overlaps = {}, {}
    for p, omega in enumerate(grid):
        point = gscan_point(device, order, omega)
        energies[f"point{p}/k"], energies[f"point{p}/l"] = point["k"], point["l"]
        overlaps[f"point{p}"] = point["overlap2"]
    return {
        "source": f"oracle.low_spectrum(k={GSCAN_K}) + injective overlap match per grid point",
        "grid_ghz": [float(w) for w in grid],
        "energies_ghz": energies,
        "oracle_overlap2": overlaps,
    }


def anchor_chip3x3() -> dict:
    rep_dir = run.WORK / "anchor-chip3x3"
    rep = run.run_rep("chip3x3", rep_dir, "timed")
    targets = workloads.collect_targets("chip3x3", rep_dir, rep["child"])
    shutil.rmtree(rep_dir)
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "source": f"solver run at git revision {revision or 'unknown'} (no oracle at this size)",
        "energies_ghz": {t["name"]: t["energy"] for t in targets},
        "variances_ghz2": {t["name"]: t["variance"] for t in targets},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate bench/references.json")
    parser.add_argument("--anchor-chip3x3", action="store_true")
    args = parser.parse_args(argv)
    old = workloads.load_references() if workloads.REFERENCES.exists() else {}
    refs = {"chain_ladder": chain_ladder(), "chip2x2_gscan": gscan()}
    refs["chip3x3"] = anchor_chip3x3() if args.anchor_chip3x3 else old["chip3x3"]
    refs = {name: refs[name] for name in workloads.NAMES}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
