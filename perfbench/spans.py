"""Span recorder for the traced benchmark run (stdlib only).

``Tracer.install`` replaces every public function of the gasdiff layer
modules, at every module-level name it is bound to, with a wrapper that
records a span: name, layer, start, end and the index of the enclosing
span.  A function is wrapped under the name its caller looks it up by, so
``from .fd_solver import solve`` in fitting is caught as ``fitting.solve``
and recorded as ``fd_solver.solve``.  Spans stay in memory and are written
out by ``dump`` when the run ends.

Self time is a span's duration minus the durations of its direct children;
the program is single-threaded under the benchmark, so children never
overlap.  A few wrappers also record counts from arguments and results
(rows, bytes, pairs, frames, iterations); those counts are computed from
array sizes and returned objects, not measured by the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
import types

LAYERS = ("cli", "pipeline", "md", "trajectory_io", "binning", "fields",
          "fd_solver", "fitting")

# Private functions wrapped as well: the cell-list pair search inside a step.
PRIVATE = {("md", "_candidate_pairs")}

# Functions the per-layer metrics are computed from.  install() fails when
# one is missing, so a renamed function cannot silently read as zero.
REQUIRED = {
    "cli": ("main",),
    "pipeline": ("read_binned_dir", "write_binned_dir"),
    "md": ("init_state", "compute_forces", "verlet_step", "run",
           "_candidate_pairs", "kinetic_energy"),
    "trajectory_io": ("write_native", "read_native", "parse_lammps_dump"),
    "binning": ("bin_trajectory",),
    "fields": ("read_field_csv", "write_field_csv"),
    "fd_solver": ("solve",),
    "fitting": ("lm_fit", "residuals", "cost_curve"),
}

# md.useful_pair_ratio looks at every SAMPLE_EVERY-th pair search inside a
# step, at most MAX_SAMPLES of them, and does the distance work after the run.
SAMPLE_EVERY = 25
MAX_SAMPLES = 16

NAME, LAYER, START, END, PARENT = range(5)


class Tracer:
    """Records spans of the wrapped gasdiff functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._patched: list = []
        self._originals: dict[str, types.FunctionType] = {}
        self._pair_searches = 0
        self.pair_samples: list = []
        self._energy_first = None
        self._energy_last = None
        self.energy_drifts: list[float] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gasdiff.{layer}")
                   for layer in LAYERS}
        for layer, names in REQUIRED.items():
            for name in names:
                if not isinstance(getattr(modules[layer], name, None),
                                  types.FunctionType):
                    raise RuntimeError(
                        f"traced run needs function {layer}.{name}, which "
                        f"gasdiff no longer defines; update perfbench/spans.py")
        wrappers: dict[int, types.FunctionType] = {}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if layer not in LAYERS or not fn.__module__.startswith("gasdiff."):
                    continue
                if attr.startswith("_") and (layer, fn.__name__) not in PRIVATE:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, layer)
                    self._originals[f"{layer}.{fn.__name__}"] = fn
                setattr(module, attr, wrappers[id(fn)])
                self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        self._close_energy_sequence()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, layer, 0.0, 0.0, parent))  # open until it ends
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            if hook is not None:
                hook(self, index, args, result)
            return result

        return wrapper

    # -- energy drift of the stepped trajectory ---------------------------

    def _energy(self, state, potential) -> float:
        return self._originals["md.kinetic_energy"](state) + potential

    def _close_energy_sequence(self) -> None:
        if self._energy_first is not None and self._energy_last is not None:
            first = self._energy_first
            last = self._energy(*self._energy_last)
            self.energy_drifts.append(abs(last - first) / abs(first))
        self._energy_first = self._energy_last = None

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}},
                      fh)

    def layer_span_counts(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            out[span[LAYER]] += 1
        return out


# -- hooks: counts taken from arguments and results ------------------------

def _on_init_state(tracer, index, args, result):
    tracer._close_energy_sequence()


def _on_verlet_step(tracer, index, args, result):
    state, _forces, potential = result
    if tracer._energy_first is None:
        tracer._energy_first = tracer._energy(state, potential)
    tracer._energy_last = (state, potential)


def _on_candidate_pairs(tracer, index, args, result):
    tracer.counts[index] = {"pairs": int(len(result[0]))}
    if not any(tracer.spans[i][NAME] == "md.verlet_step" for i in tracer._stack):
        return
    if (tracer._pair_searches % SAMPLE_EVERY == 0
            and len(tracer.pair_samples) < MAX_SAMPLES):
        tracer.pair_samples.append((args[0], args[1], result[0], result[1]))
    tracer._pair_searches += 1


def _trajectory_bytes(traj) -> int:
    return sum(f.ids.nbytes + f.species.nbytes + f.positions.nbytes
               + f.velocities.nbytes for f in traj.frames)


def _rows(traj) -> int:
    return sum(f.n_particles for f in traj.frames)


def _on_run(tracer, index, args, result):
    tracer.counts[index] = {"bytes": _trajectory_bytes(result)}


def _on_write_native(tracer, index, args, result):
    tracer.counts[index] = {"rows": _rows(args[0]),
                            "bytes": os.path.getsize(args[1])}


def _on_read(tracer, index, args, result):
    tracer.counts[index] = {"rows": _rows(result)}


def _on_bin_trajectory(tracer, index, args, result):
    tracer.counts[index] = {"frames": len(args[0].frames)}


def _on_solve(tracer, index, args, result):
    tracer.counts[index] = {"frames": len(result.frames)}


def _on_lm_fit(tracer, index, args, result):
    tracer.counts[index] = {"iterations": result.iterations}


def _on_cost_curve(tracer, index, args, result):
    tracer.counts[index] = {"points": len(result)}


_HOOKS = {
    "md.init_state": _on_init_state,
    "md.verlet_step": _on_verlet_step,
    "md._candidate_pairs": _on_candidate_pairs,
    "md.run": _on_run,
    "trajectory_io.write_native": _on_write_native,
    "trajectory_io.read_native": _on_read,
    "trajectory_io.parse_lammps_dump": _on_read,
    "binning.bin_trajectory": _on_bin_trajectory,
    "fd_solver.solve": _on_solve,
    "fitting.lm_fit": _on_lm_fit,
    "fitting.cost_curve": _on_cost_curve,
}


# -- per-layer metrics ------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _useful_pair_ratio(tracer) -> float:
    """Share of sampled candidate pairs closer than the LJ cutoff."""
    import numpy as np
    from gasdiff import md

    useful = candidates = 0
    for pos, side, ii, jj in tracer.pair_samples:
        d = pos[ii] - pos[jj]
        d -= side * np.floor(d / side + 0.5)
        useful += int(np.count_nonzero(
            np.einsum("ij,ij->i", d, d) < md.LJ_CUTOFF ** 2))
        candidates += len(ii)
    return _ratio(useful, candidates)


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.  Totals are per workload
    iteration; per-call timings are medians over calls."""
    spans, counts = tracer.spans, tracer.counts
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_time = [d - c for d, c in zip(dur, child)]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def ancestor(i, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        return p

    def total(name):
        return sum(dur[i] for i in idx(name))

    def count_sum(name, key):
        return sum(counts[i][key] for i in idx(name))

    per_iter = 1.0 / max(iterations, 1)
    steps = idx("md.verlet_step")
    searches_in_steps = [i for i in idx("md._candidate_pairs")
                         if ancestor(i, "md.verlet_step") >= 0]
    read_rows = count_sum("trajectory_io.read_native", "rows")
    parse_rows = count_sum("trajectory_io.parse_lammps_dump", "rows")
    written_rows = count_sum("trajectory_io.write_native", "rows")

    fits = idx("fitting.lm_fit")
    residual_calls = {i: 0 for i in fits}
    for i in idx("fitting.residuals"):
        fit = ancestor(i, "fitting.lm_fit")
        if fit >= 0:
            residual_calls[fit] += 1
    rejected = sum(residual_calls[i] - 1 - counts[i]["iterations"] for i in fits)
    solves = idx("fd_solver.solve")
    solves_in_fits = sum(1 for i in solves if ancestor(i, "fitting.lm_fit") >= 0)
    solves_in_curves = sum(1 for i in solves
                           if ancestor(i, "fitting.cost_curve") >= 0)

    out = {
        "md.step_ms": _median([dur[i] for i in steps]) * 1e3,
        "md.force_ms": _median([dur[i] for i in idx("md.compute_forces")]) * 1e3,
        "md.pair_search_ms": _median(
            [dur[i] for i in idx("md._candidate_pairs")]) * 1e3,
        "md.integrate_ms": _median([self_time[i] for i in steps]) * 1e3,
        "md.pair_search_calls_per_step": _ratio(len(searches_in_steps), len(steps)),
        "md.candidate_pairs": _median(
            [counts[i]["pairs"] for i in searches_in_steps]),
        "md.useful_pair_ratio": _useful_pair_ratio(tracer),
        "md.init_s": _median([dur[i] for i in idx("md.init_state")]),
        "md.energy_drift_rel": max(tracer.energy_drifts, default=0.0),
        "md.trajectory_mb": max(
            (counts[i]["bytes"] for i in idx("md.run")), default=0) / 1e6,
        "trajectory_io.write_us_per_row": _ratio(
            total("trajectory_io.write_native"), written_rows) * 1e6,
        "trajectory_io.read_us_per_row": _ratio(
            total("trajectory_io.read_native"), read_rows) * 1e6,
        "trajectory_io.parse_lammps_us_per_row": _ratio(
            total("trajectory_io.parse_lammps_dump"), parse_rows) * 1e6,
        "trajectory_io.rows_read": (read_rows + parse_rows) * per_iter,
        "trajectory_io.rows_written": written_rows * per_iter,
        "trajectory_io.bytes_written": count_sum(
            "trajectory_io.write_native", "bytes") * per_iter,
        "binning.bin_s": total("binning.bin_trajectory") * per_iter,
        "binning.frames_per_s": _ratio(
            count_sum("binning.bin_trajectory", "frames"),
            total("binning.bin_trajectory")),
        "pipeline.read_binned_dir_s": total("pipeline.read_binned_dir") * per_iter,
        "pipeline.write_binned_dir_s": total("pipeline.write_binned_dir") * per_iter,
        "fields.csv_files": (len(idx("fields.read_field_csv"))
                             + len(idx("fields.write_field_csv"))) * per_iter,
        "fd_solver.solve_ms": _median([dur[i] for i in solves]) * 1e3,
        "fd_solver.solve_calls": len(solves) * per_iter,
        "fd_solver.frames_per_s": _ratio(count_sum("fd_solver.solve", "frames"),
                                         total("fd_solver.solve")),
        "fitting.lm_fit_s": total("fitting.lm_fit") * per_iter,
        "fitting.iterations": count_sum("fitting.lm_fit", "iterations") * per_iter,
        "fitting.rejected_trials": rejected * per_iter,
        "fitting.solves_per_fit": _ratio(solves_in_fits, len(fits)),
        "fitting.cost_curve_s": total("fitting.cost_curve") * per_iter,
        "fitting.solves_per_cost_point": _ratio(
            solves_in_curves, count_sum("fitting.cost_curve", "points")),
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer_self[s[LAYER]] += self_time[i]
    out["cli.overhead_s"] = layer_self["cli"] * per_iter
    for layer in LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = layer_self[layer] * per_iter
    return out
