"""Spans and counters around freeconv's public calls, for the traced run.

Tracer.install wraps each listed function or method.  A method is patched
on its class; a function is patched in every freeconv module that holds it,
since modules import one another's functions by name.  Each wrapped call
adds its self time (duration minus the time of wrapped calls inside it) and
one call to its layer entry, and may add counts read from its arguments or
result.  Each call outside the per-iteration entries (INNER) is also kept in
memory as a span (name, start, end, enclosing span, operation), to be
written out at the end; the per-iteration calls, tens of thousands per
operation, are only timed and counted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _points(w) -> int:
    return int(w.shape[0]) if getattr(w, "ndim", 2) == 3 else 1


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _csv_pair_size(path) -> int:
    """A density sheet and the .raw sheet written beside it."""
    p = Path(path)
    return _file_size(p) + _file_size(p.with_name(p.stem + ".raw" + p.suffix))


def _solve_counts(result) -> dict:
    _, iterations, _, converged = result
    return {"iterations": int(iterations.sum()), "iterations_max": int(iterations.max(initial=0)),
            "solves": int(iterations.size), "unconverged": int((~converged).sum())}


# (layer entry, owner, attribute, counts(args, result) -> {counter: value})
# owner is "module.Class" for methods and "module" for functions.
TARGETS = [
    ("algebra.cp_apply", "algebra.CPMap", "apply", None),
    ("algebra.linearize", "algebra", "linearize_on_basis", None),
    ("model.cauchy", "model.OperatorModel", "cauchy", None),
    ("model.resolvent", "model.OperatorModel", "resolvent", None),
    ("model.expect", "model.OperatorModel", "expect", None),
    ("subordination.h_map", "subordination.SubordinationProblem", "h_map",
     lambda a, r: {"h_map_points": _points(a[1])}),
    ("subordination.solve", "subordination", "solve_omega_stack", lambda a, r: _solve_counts(r)),
    ("subordination.solve", "subordination", "solve_gq_stack", lambda a, r: _solve_counts(r)),
    ("subordination.solve", "subordination", "solve_omega", None),
    ("subordination.solve", "subordination", "solve_vq", None),
    ("subordination.solve", "subordination", "phi_q", None),
    # no metric reports these layers' self times (not every workload reaches
    # them); they are wrapped so they show in the spans and so their own work
    # is not charged to the calls that enclose them, such as run_command
    ("transforms.density_grid", "transforms", "density_grid", None),
    ("transforms.r_transform", "transforms", "r_transform_eval", None),
    ("transforms.cauchy_eval", "transforms", "cauchy_eval", None),
    ("diagnostics.delta_omega_spectrum", "diagnostics", "delta_omega_spectrum", None),
    ("diagnostics.dvg_spectrum", "diagnostics", "dvg_spectrum", None),
    ("diagnostics.vq_derivative", "diagnostics", "vq_derivative", None),
    ("diagnostics.axioms", "diagnostics", "nc_function_axioms_check", None),
    ("diagnostics.jc_probe", "diagnostics", "jc_probe", None),
    ("harness.sample", "harness", "sample_rmt_spectrum", None),
    ("harness.compare", "harness", "compare_density", None),
    ("serialize.read", "serialize", "load_json", lambda a, r: {"bytes_read": _file_size(a[0])}),
    ("serialize.read", "serialize", "density_from_csv",
     lambda a, r: {"bytes_read": _file_size(a[0])}),
    ("serialize.read", "serialize", "sha256_of", lambda a, r: {"bytes_read": _file_size(a[0])}),
    ("serialize.write", "serialize", "dump_json",
     lambda a, r: {"bytes_written": _file_size(a[1])}),
    ("serialize.write", "serialize", "density_to_csv",
     lambda a, r: {"bytes_written": _csv_pair_size(a[1])}),
    ("serialize.write", "serialize", "gnuplot_data",
     lambda a, r: {"bytes_written": _file_size(a[1])}),
    ("cli.command", "cli", "run_command", None),
]
# the parsers and writers of serialize's formats, timed with its file I/O
for _name in ("matrix", "measure", "cp_map", "model", "problem", "ensemble", "solver_config"):
    TARGETS.append(("serialize.read", "serialize", f"{_name}_from_json", None))
    TARGETS.append(("serialize.write", "serialize", f"{_name}_to_json", None))
for _name in ("certificate", "jc_probe"):
    TARGETS.append(("serialize.write", "serialize", f"{_name}_to_json", None))


INNER = {"algebra.cp_apply", "model.cauchy", "model.resolvent", "model.expect",
         "subordination.h_map"}


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.spans: list[list] = []
        self.op = None            # identifier of the operation being run
        self._stack: list[list] = []   # [child time, enclosing span] per open call
        self._patches: list[tuple] = []

    def wrap(self, entry: str, fn, counts=None):
        layer = entry.split(".", 1)[0]
        spanned = entry not in INNER
        span_name = f"{entry}:{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            span = -1
            if spanned:
                span = len(tracer.spans)
                tracer.spans.append([span_name, 0.0, 0.0, parent, tracer.op])
            frame = [0.0, span if spanned else parent]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.self_time[entry] += elapsed - frame[0]
                tracer.calls[entry] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span >= 0:
                    tracer.spans[span][1:3] = [start, end]
            if counts is not None:
                for key, value in counts(args, result).items():
                    name = f"{layer}.{key}"
                    if key.endswith("_max"):
                        tracer.counts[name] = max(tracer.counts[name], value)
                    else:
                        tracer.counts[name] += value
            return result

        return traced

    def install(self, package: str = "freeconv") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for entry, owner, attr, counts in TARGETS:
            module_name, _, cls_name = owner.partition(".")
            home = sys.modules[f"{package}.{module_name}"]
            if cls_name:
                cls = getattr(home, cls_name)
                self._patch(cls, attr, self.wrap(entry, cls.__dict__[attr], counts))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(entry, original, counts)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def spans_json(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"id": i, "name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent, "op": op}
                for i, (name, start, end, parent, op) in enumerate(self.spans)]
