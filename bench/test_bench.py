"""Tests of the benchmark itself: tracing, the output gate and the references."""

from __future__ import annotations

import importlib
import math

import pytest

import make_references
import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def ladder_runs(tmp_path_factory):
    """One untraced and one traced chain_ladder repetition."""
    base = tmp_path_factory.mktemp("ladder")
    return {mode: run.run_rep("chain_ladder", base / mode, mode) for mode in ("timed", "traced")}


def test_traced_and_untraced_runs_agree(ladder_runs):
    timed, traced = (ladder_runs[m]["child"]["reports"] for m in ("timed", "traced"))
    assert len(timed) == len(traced) == len(workloads.LADDER)
    for a, b in zip(timed, traced):
        assert a["targets"] == b["targets"]
        assert a["report"]["final_energies_ghz"] == b["report"]["final_energies_ghz"]
        assert a["report"]["heff_applications"] == b["report"]["heff_applications"]


def test_matvec_calls_equal_report_applications(ladder_runs):
    child = ladder_runs["traced"]["child"]
    applications = sum(r["report"]["heff_applications"] for r in child["reports"])
    assert applications > 0
    assert child["layers"]["solver.matvec.calls"] == applications
    assert child["layers"]["solver.report_heff_applications"] == applications


def test_tracer_rebinds_every_import_and_restores():
    cli = importlib.import_module("transmon_dmrg.cli")
    model = importlib.import_module("transmon_dmrg.model")
    solver = importlib.import_module("transmon_dmrg.solver")
    original = model.build_mpo
    tracer = tracing.Tracer().install()
    try:
        assert model.build_mpo is not original
        assert cli.build_mpo is model.build_mpo is solver.build_mpo
    finally:
        tracer.restore()
    assert cli.build_mpo is model.build_mpo is solver.build_mpo is original


def test_workload_inputs_match_their_definitions():
    device = make_references.load_device(str(run.ROOT / "devices" / "chip_3x3.json"))
    order = make_references.snake_order(device)
    qubits = [make_references.analysis.bare_with(device, order, {q: 1}) for q in (8, 4)]
    assert workloads.CHIP3X3_TARGETS == [list(b.occupations) for b in qubits]
    chain = make_references.load_device(str(workloads.CHAIN_DEVICE))
    assert chain == make_references.chips.work_scaling_chain()


def test_stored_reference_matches_fresh_oracle():
    refs = workloads.load_references()["chip2x2_gscan"]
    device = make_references.load_device(str(run.ROOT / "devices" / "chip_2x2.json"))
    order = make_references.snake_order(device)
    p = 4  # the crossing, where the two targets hybridize
    point = make_references.gscan_point(device, order, refs["grid_ghz"][p])
    assert point["k"] == pytest.approx(refs["energies_ghz"][f"point{p}/k"], abs=1e-9)
    assert point["l"] == pytest.approx(refs["energies_ghz"][f"point{p}/l"], abs=1e-9)


GOOD = {"name": "t", "energy": 1.0, "variance": 1e-12, "converged": True, "error": ""}


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"energy": 1.0 + 2e-7}, "hard: energy"),
        ({"energy": math.nan}, "hard: energy"),
        ({"variance": 6.5e-8}, "variance"),
        ({"variance": math.nan}, "variance"),
        ({"converged": False}, "not converged"),
        ({"error": "LanczosError: no"}, "hard: LanczosError"),
        ({"overlap": 0.3}, "hard: overlap"),
    ],
)
def test_gate_trips(change, reason):
    assert workloads.target_failures(GOOD, 1.0) == []
    assert workloads.target_failures({**GOOD, "overlap": 0.97}, 1.0) == []
    reasons = workloads.target_failures({**GOOD, **change}, 1.0)
    assert any(r.startswith(reason) for r in reasons), reasons


def test_gate_without_reference_is_hard():
    assert workloads.target_failures(GOOD, None) == ["hard: no reference energy"]
