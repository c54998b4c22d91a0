"""In-process traced run of a workload, and the per-layer metrics it yields.

Run as a script, this file is the worker of a traced run: a fresh process
that imports every macrobell module, optionally wraps each module's public
functions in spans, and calls ``macrobell.cli.run(argv)`` once per
invocation of the workload. It writes the spans (kept in memory until the
end) and the loop's wall time to a JSON file.

The spans come from this file only; the program itself is not changed.
Wrapping replaces the function object in every loaded macrobell module
namespace, so calls through ``module.func`` and through names bound by
``from .module import func`` are both traced.

Usage (normally started by run.py):

    python3 bench/layers.py --workload NAME --seed N --workdir DIR \
        --result FILE --trace 0|1 [--tiny]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("povm", "finite_n", "limits", "bell", "noise", "sampling", "cli")

#: The public functions whose calls are layer boundaries.
TRACED = {
    "povm": ("validate_povm", "derive_params", "projective_from_bloch", "povm_from_json"),
    "finite_n": ("pmf_finite", "char_fn_finite", "moments_finite"),
    "limits": ("limit_density_alpha_half", "limit_density_alpha_one", "rotor_pushforward"),
    "bell": ("sign_overlap_table", "optimize_chsh", "chsh_value", "correlator",
             "local_model_alpha_one"),
    "noise": ("noisy_chsh_sweep", "noisy_limit_params"),
    "sampling": ("sample_outcomes", "ks_distance"),
}

#: A sampler window (base_level + level count) at most this is "narrow" ...
NARROW_WINDOW = 3
#: ... and at least this is "wide".
WIDE_WINDOW = 20


class Tracer:
    """Spans kept in memory: name, start, end, parent index, op id, counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def wrap(self, name: str, func, counter=None):
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "ok": False}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = func(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound.arguments,
                                             result if span["ok"] else None)

        traced.__wrapped__ = func
        return traced


def _pmf_counts(a, result):
    state, povm = a["state"], a["povm"]
    return {"lattice_points": state.n_particles * (len(povm.outcomes) - 1) + 1,
            "level_pairs": state.coeffs.size ** 2}


def _grid_counts(a, result):
    return {"grid_points": 0 if result is None else len(result.grid)}


def _local_model_counts(a, result):
    if result is None:
        return {"cells": 0}
    grid = result.quantum_joint
    d_a, d_b = (len(row) for row in (a["c_kl"], a["c_kl"][0]))
    return {"cells": grid.x_grid.size * grid.y_grid.size * d_a * d_b}


def _sweep_counts(a, result):
    return {"cells": len(a["s_grid"]) * len(a["eps_grid"])}


def _sample_counts(a, result):
    state = a["state"]
    return {"sample_particles": int(a["n_samples"]) * state.n_particles,
            "window": state.base_level + state.coeffs.size}


COUNTERS = {
    "finite_n.pmf_finite": _pmf_counts,
    "limits.limit_density_alpha_half": _grid_counts,
    "limits.limit_density_alpha_one": _grid_counts,
    "limits.rotor_pushforward": _grid_counts,
    "bell.local_model_alpha_one": _local_model_counts,
    "noise.noisy_chsh_sweep": _sweep_counts,
    "sampling.sample_outcomes": _sample_counts,
}


def install(tracer: Tracer):
    """Wrap every traced function wherever a macrobell module binds it."""
    namespaces = [m for name, m in sys.modules.items()
                  if name == "macrobell" or name.startswith("macrobell.")]
    for layer, names in TRACED.items():
        module = importlib.import_module(f"macrobell.{layer}")
        for name in names:
            original = getattr(module, name)
            wrapped = tracer.wrap(f"{layer}.{name}", original,
                                  COUNTERS.get(f"{layer}.{name}"))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)


def _artifact_counts(path: Path) -> tuple[int, int]:
    """(data rows, bytes) of a CSV artifact and its sidecar, if present."""
    rows = size = 0
    for p in (path, Path(str(path) + ".meta.json")):
        if p.exists():
            size += p.stat().st_size
    if path.exists() and path.suffix == ".csv":
        with open(path, "rb") as handle:
            rows = sum(1 for _ in handle) - 1
    return rows, size


def worker(workload: str, seed: int, workdir: Path, result_path: Path, trace: bool,
           tiny: bool):
    import workloads

    for layer in LAYERS:
        importlib.import_module(f"macrobell.{layer}")
    from macrobell import cli

    tracer = Tracer()
    run = cli.run
    if trace:
        install(tracer)
        run = tracer.wrap("cli.run", cli.run)
    invs = workloads.invocations(workload, seed, tiny)
    ops = []
    loop_start = time.perf_counter()
    for op, inv in enumerate(invs):
        tracer.op = op
        out = workdir / f"{inv.out}.stdout"
        with open(out, "w") as stdout, open(workdir / f"{inv.out}.stderr", "w") as stderr, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(inv.argv(workdir))
        ops.append({"name": inv.name, "returncode": code})
    loop_s = time.perf_counter() - loop_start
    for op in ops:
        inv = next(i for i in invs if i.name == op["name"])
        op["rows"], op["bytes"] = _artifact_counts(workdir / inv.out)
    result_path.write_text(json.dumps({"loop_s": loop_s, "ops": ops, "spans": tracer.spans}))


# --------------------------------------------------------------------------
# aggregation into per-layer metrics
# --------------------------------------------------------------------------

def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list, ops: list) -> dict:
    """Per-layer busy and self times, counts and rates from one traced run."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)

    def layer_of(i):
        return spans[i]["name"].split(".", 1)[0]

    busy = {layer: 0.0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    for i, span in enumerate(spans):
        layer = layer_of(i)
        self_s[layer] += _duration(span) - child_time[i]
        by_name.setdefault(span["name"], []).append(span)
        # busy time counts only the outermost span of a layer, so a layer
        # calling itself is not counted twice
        parent = span["parent"]
        while parent is not None and layer_of(parent) != layer:
            parent = spans[parent]["parent"]
        if parent is None:
            busy[layer] += _duration(span)

    def total(name):
        return sum((_duration(s) for s in by_name.get(name, ())), 0.0)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by_name.get(name, ()))

    def rate(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    rows = sum(op["rows"] for op in ops)
    m["cli.run.busy_s"] = busy["cli"]
    # cli.run spans have only engine spans below them, so this is the busy
    # time minus the engine busy time of the same invocations
    m["cli.self_s"] = self_s["cli"]
    m["cli.rows"] = rows
    m["cli.artifact_bytes"] = sum(op["bytes"] for op in ops)
    m["cli.ns_per_row"] = rate(m["cli.self_s"] * 1e9, rows)

    m["povm.busy_s"] = busy["povm"]

    pmf = by_name.get("finite_n.pmf_finite", [])
    m["finite_n.busy_s"] = busy["finite_n"]
    m["finite_n.pmf_finite.busy_s"] = total("finite_n.pmf_finite")
    m["finite_n.pmf_finite.calls"] = len(pmf)
    m["finite_n.pmf_finite.failed"] = sum(1 for s in pmf if not s["ok"])
    m["finite_n.lattice_points"] = count("finite_n.pmf_finite", "lattice_points")
    m["finite_n.level_pairs"] = count("finite_n.pmf_finite", "level_pairs")
    m["finite_n.points_per_s"] = rate(m["finite_n.lattice_points"],
                                      m["finite_n.pmf_finite.busy_s"])

    m["limits.busy_s"] = busy["limits"]
    m["limits.grid_points"] = sum(count(f"limits.{f}", "grid_points")
                                  for f in TRACED["limits"])

    tables = by_name.get("bell.sign_overlap_table", [])
    m["bell.busy_s"] = busy["bell"]
    m["bell.sign_overlap_table.first_s"] = _duration(tables[0]) if tables else 0.0
    m["bell.optimize_chsh.busy_s"] = total("bell.optimize_chsh")
    m["bell.chsh_value.busy_s"] = total("bell.chsh_value")
    m["bell.local_model_alpha_one.busy_s"] = total("bell.local_model_alpha_one")
    m["bell.local_model.cells"] = count("bell.local_model_alpha_one", "cells")

    sweep_s = total("noise.noisy_chsh_sweep")
    inner_optimize_s = sum(_duration(s) for s in by_name.get("bell.optimize_chsh", ())
                           if s["parent"] is not None
                           and spans[s["parent"]]["name"] == "noise.noisy_chsh_sweep")
    m["noise.busy_s"] = busy["noise"]
    m["noise.noisy_chsh_sweep.busy_s"] = sweep_s
    m["noise.sweep_cells"] = count("noise.noisy_chsh_sweep", "cells")
    m["noise.noisy_limit_params.busy_s"] = total("noise.noisy_limit_params")
    m["noise.cell_ms"] = rate((sweep_s - inner_optimize_s) * 1e3, m["noise.sweep_cells"])

    samples = by_name.get("sampling.sample_outcomes", [])
    m["sampling.busy_s"] = busy["sampling"]
    m["sampling.sample_outcomes.busy_s"] = total("sampling.sample_outcomes")
    m["sampling.sample_particles"] = count("sampling.sample_outcomes", "sample_particles")
    for label, keep in (("narrow", lambda w: w <= NARROW_WINDOW),
                        ("wide", lambda w: w >= WIDE_WINDOW)):
        chosen = [s for s in samples if s.get("counts") and keep(s["counts"]["window"])]
        m[f"sampling.ns_per_sample_particle.{label}"] = rate(
            sum(_duration(s) for s in chosen) * 1e9,
            sum(s["counts"]["sample_particles"] for s in chosen))
    m["sampling.ks_distance.busy_s"] = total("sampling.ks_distance")

    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness self-test")
    args = parser.parse_args(argv)
    worker(args.workload, args.seed, args.workdir, args.result, bool(args.trace),
           args.tiny)


if __name__ == "__main__":
    main()
