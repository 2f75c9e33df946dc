"""Outside-in tracing of the ``transmon_dmrg`` layers.

The tracer wraps functions of the package from outside: each wrapped call
records a span (wall time, and self time = wall time minus the spans it
caused) under a ``<layer>.<name>`` key.  A function is rebound under every
module name that imports it (``build_mpo`` is also ``cli.build_mpo``,
``solver.build_mpo`` and ``analysis.build_mpo``), so calls through any
binding are seen.  Span stacks are kept per thread, so the CLI's worker pool
is attributed correctly.  :meth:`Tracer.restore` puts the originals back.

Nothing in ``src/`` changes.  The untraced benchmark run uses the same
mechanism on two functions only (``build_mpo`` for the set-up time and
``run_sweeps`` to read every target's report), which costs microseconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict

PACKAGE = "transmon_dmrg"
LAYERS = ("cli", "analysis", "solver", "mps", "tensor", "model")
# every module of the package, so a function is rebound wherever it is imported
MODULES = LAYERS + ("oracle", "chips")

MATVEC = "solver.EffectiveHamiltonian.matvec"
LANCZOS_X = "solver.lanczos_x"
RUN_SWEEPS = "solver.run_sweeps"
BUILD_MPO = "model.build_mpo"
SAVE_STATE = "mps.save_state"
DISPATCH = "cli._dispatch"
ENGINE = "analysis.engine"
ENGINE_FACTORIES = ("analysis.solver_energy_engine", "analysis.oracle_energy_engine")

# the untraced run wraps only these
PROBE_KEYS = (BUILD_MPO, RUN_SWEEPS)


def _modules():
    return [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES] + [
        importlib.import_module(PACKAGE)
    ]


def traceable():
    """{key: (owner, attribute, function)} for the public callables of the layers.

    Public module-level functions and the public methods of public classes
    defined in each layer module, plus ``cli._dispatch`` (the worker pool).
    """
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{layer}.{name}"] = (mod, name, obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found[f"{layer}.{name}.{meth}"] = (obj, meth, fn)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    found[DISPATCH] = (cli, "_dispatch", cli._dispatch)
    return found


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "matvecs", "cap_hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.matvecs = 0
        self.cap_hits = 0


class Tracer:
    """Span recorder over the package's public functions.

    ``keys`` limits the wrapped functions (None wraps every traceable one).
    """

    def __init__(self, keys=None):
        self._keys = keys
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.first_mpo_at: float | None = None  # perf_counter when the first MPO exists
        self.on_first_mpo = None  # optional callback, run once
        self.reports: list[dict] = []  # one per run_sweeps call, in completion order
        self.mpo_max_bond = 0
        self.save_bytes = 0
        self.pool_busy_s = 0.0  # run_sweeps time inside pool dispatches
        self.pool_capacity_s = 0.0  # width x wall time of the dispatches
        self._run_sweeps_s = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        found = traceable()
        keys = found if self._keys is None else {k: found[k] for k in self._keys}
        modules = _modules()
        for key, (owner, attr, fn) in keys.items():
            wrapper = self._wrap(key, fn)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key, fn):
        post = {
            BUILD_MPO: self._after_build_mpo,
            RUN_SWEEPS: self._after_run_sweeps,
            SAVE_STATE: self._after_save_state,
        }.get(key)
        if key in ENGINE_FACTORIES:
            post = self._after_engine_factory
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == key for frame in stack):
                return fn(*args, **kwargs)  # recursion: the outer span counts
            frame = [key, 0.0, 0]  # key, child seconds, matvecs inside
            stack.append(frame)
            pool_mark = self._run_sweeps_s if key == DISPATCH else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                    if key == MATVEC:
                        for outer in stack:
                            outer[2] += 1
                self._record(key, dt, frame, signature, args, kwargs, pool_mark)
            if post is not None:
                result = post(result, args, kwargs)
            return result

        return wrapper

    def _record(self, key, dt, frame, signature, args, kwargs, pool_mark) -> None:
        with self._lock:
            stat = self.stats[key]
            stat.calls += 1
            stat.total_s += dt
            stat.self_s += dt - frame[1]
            stat.matvecs += frame[2]
            if key == LANCZOS_X:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                stat.cap_hits += frame[2] >= bound.arguments["d_max"]
            elif key == RUN_SWEEPS:
                self._run_sweeps_s += dt
            elif key == DISPATCH:
                spec, jobs = signature.bind(*args, **kwargs).args
                width = max(1, int(os.environ.get("TRANSMON_DMRG_THREADS") or spec.parallelism))
                width = 1 if width == 1 or len(jobs) <= 1 else min(width, len(jobs))
                self.pool_busy_s += self._run_sweeps_s - pool_mark
                self.pool_capacity_s += width * dt

    # -- post hooks -----------------------------------------------------------

    def _after_build_mpo(self, h, args, kwargs):
        with self._lock:
            self.mpo_max_bond = max(self.mpo_max_bond, max(h.bond_dims))
            first = self.first_mpo_at is None
            if first:
                self.first_mpo_at = time.perf_counter()
        if first and self.on_first_mpo is not None:
            self.on_first_mpo()
        return h

    def _after_run_sweeps(self, result, args, kwargs):
        _, report = result
        targets = kwargs.get("targets", args[4] if len(args) > 4 else None)
        entry = {
            "targets": None if targets is None else [list(s.occupations) for s in targets.states],
            "report": report.to_dict(),
        }
        with self._lock:
            self.reports.append(entry)
        return result

    def _after_save_state(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs.get("f")
        if isinstance(path, str):
            with self._lock:
                self.save_bytes += os.path.getsize(path)
        return result

    def _after_engine_factory(self, engine, args, kwargs):
        return self._wrap(ENGINE, engine)

    # -- results ----------------------------------------------------------------

    def spans(self) -> dict:
        """Raw per-key span statistics."""
        with self._lock:
            return {
                key: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for key, s in sorted(self.stats.items())
            }

    def layer_metrics(self) -> dict:
        """The per-layer metrics the benchmark reports (see README.md)."""
        with self._lock:
            stat = lambda key: self.stats.get(key, _Stat())  # noqa: E731
            matvec, lx = stat(MATVEC), stat(LANCZOS_X)
            out = {
                "model.mpo_max_bond": self.mpo_max_bond,
                "model.build_mpo.s": stat(BUILD_MPO).total_s,
                "solver.matvec.calls": matvec.calls,
                "solver.matvec.s": matvec.total_s,
                "solver.matvec.us_per_call": 1e6 * matvec.total_s / max(matvec.calls, 1),
                "solver.lanczos_x.calls": lx.calls,
                "solver.lanczos_x.self_s": lx.self_s,
                "solver.lanczos_x.matvec_per_call": lx.matvecs / max(lx.calls, 1),
                "solver.lanczos_x.cap_hit_frac": lx.cap_hits / max(lx.calls, 1),
                "solver.lanczos_lowest.calls": stat("solver.lanczos_lowest").calls,
                "solver.lanczos_lowest.self_s": stat("solver.lanczos_lowest").self_s,
                "solver.run_sweeps.calls": stat(RUN_SWEEPS).calls,
                "solver.run_sweeps.self_s": stat(RUN_SWEEPS).self_s,
                "solver.sweeps": sum(r["report"]["n_sweeps"] for r in self.reports),
                "solver.report_heff_applications": sum(
                    r["report"]["heff_applications"] for r in self.reports
                ),
                "solver.build_environments.s": stat("solver.build_environments").total_s,
                "tensor.svd_split.calls": stat("tensor.svd_split").calls,
                "tensor.svd_split.s": stat("tensor.svd_split").total_s,
                "tensor.qr_split.s": stat("tensor.qr_split").total_s,
                "mps.variance.s": stat("mps.variance").total_s,
                "mps.expectation.s": stat("mps.expectation").total_s,
                "mps.move_oc.s": stat("mps.move_oc").total_s,
                "mps.save_state.calls": stat(SAVE_STATE).calls,
                "mps.save_state.s": stat(SAVE_STATE).total_s,
                "mps.save_state.bytes": self.save_bytes,
                "cli.pool_busy_frac": self.pool_busy_s / self.pool_capacity_s
                if self.pool_capacity_s
                else 0.0,
                "analysis.engine.calls": stat(ENGINE).calls,
                "analysis.engine.s": stat(ENGINE).total_s,
            }
            for layer in LAYERS:
                out[f"{layer}.self_s"] = sum(
                    s.self_s for key, s in self.stats.items() if key.startswith(layer + ".")
                )
            return out
