"""One benchmark repetition in a fresh process: run a workload's CLI jobs.

Usage: python3 child.py <plan.json>

The plan names the package source directory, the ``transmon_dmrg.cli``
argument lists to run in order, the result file, and a mode:

* ``timed``  - only ``build_mpo`` and ``run_sweeps`` are wrapped (set-up
  time and per-target reports);
* ``traced`` - every public function of the layers is wrapped;
* ``setup``  - exit as soon as the first MPO is built.

The result file holds ``perf_counter`` readings (the parent compares them
with its own spawn time; both use the system-wide monotonic clock), each
job's exit status, every ``run_sweeps`` report and, when traced, the spans.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(plan_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    sys.path.insert(0, plan["src"])

    import tracer as tracing

    from transmon_dmrg import cli

    mode = plan["mode"]
    tracer = tracing.Tracer(keys=None if mode == "traced" else tracing.PROBE_KEYS)

    def write(doc: dict) -> None:
        with open(plan["result"], "w") as f:
            json.dump(doc, f)

    if mode == "setup":

        def stop():
            write({"first_mpo_at": tracer.first_mpo_at})
            os._exit(0)

        tracer.on_first_mpo = stop
    tracer.install()
    try:
        statuses = [cli.main(argv) for argv in plan["jobs"]]
        done_at = time.perf_counter()
    finally:
        tracer.restore()
    doc = {
        "first_mpo_at": tracer.first_mpo_at,
        "done_at": done_at,
        "statuses": statuses,
        "reports": tracer.reports,
        "module_file": cli.__file__,
    }
    if mode == "traced":
        doc["layers"] = tracer.layer_metrics()
        doc["spans"] = tracer.spans()
    write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
