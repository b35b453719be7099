"""Spans around calls into fedbeam's public functions, for the traced run.

The tracer wraps functions from outside the package.  Each wrapped name is
resolved by module attribute when the tracer is installed, so a function a
refactor has removed is reported as absent instead of failing the run; its
time then shows up in its caller's self time.  Spans stay in memory and
are written out once, by `finish`.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

# Span name -> the statistics reported for it.  A span name is the module
# (without the package prefix) followed by the qualified function name.
SPAN_METRICS = {
    "splines.basis_and_derivative": ("calls", "s"),
    "layers.kan_layer_forward": ("calls", "s", "self_s"),
    "layers.kan_layer_backward": ("s",),
    "layers.linear_forward": ("s",),
    "layers.linear_backward": ("s",),
    "model.forward_with_caches": ("s", "self_s"),
    "model.model_backward": ("s", "self_s"),
    "model.forward": ("s",),
    "model.import_weights": ("calls", "s"),
    "model.gradient_vector": ("calls", "s"),
    "optim.mse_loss": ("s",),
    "optim.clip_gradient_norm": ("calls", "s"),
    "optim.adam_step": ("calls", "s"),
    "params.ParameterVector.from_flat": ("calls", "s"),
    "params.ParameterVector.to_flat": ("s",),
    "federation.local_train": ("calls", "s", "self_s"),
    "federation.run_round": ("self_s",),
    "federation.aggregate": ("calls", "s"),
    "federation.evaluate_global": ("s",),
    "federation.build_client": ("s",),
    "data.load_csv": ("calls", "s"),
    "report.render_experiment_csv": ("s",),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Counters measured where the work happens: name -> (unit, span it needs).
COUNTER_METRICS = {
    "splines.basis_nonzero_fraction": ("fraction", "splines.basis_and_derivative"),
    "splines.clamped_fraction": ("fraction", "splines.basis_and_derivative"),
    "splines.eval_calls": ("count", "splines.basis_and_derivative"),
    "model.cache_bytes": ("bytes", "model.forward_with_caches"),
    "optim.clip_fraction": ("fraction", "optim.clip_gradient_norm"),
    "federation.aggregate_bytes": ("bytes", "federation.aggregate"),
}

# Probe failures a changed signature can cause; the counter is then absent.
_PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {
        f"{span}.{stat}": STAT_UNITS[stat]
        for span, stats in SPAN_METRICS.items()
        for stat in stats
    }
    units.update({name: unit for name, (unit, _) in COUNTER_METRICS.items()})
    return units


def _nbytes(obj) -> int:
    """Bytes of every array reachable through containers and dataclasses."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def _sum_squares(obj) -> float:
    if isinstance(obj, np.ndarray):
        return float(np.sum(obj * obj))
    return sum(float(np.sum(a * a)) for a in obj.arrays())


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _probe_basis(c, args, kwargs):
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    grid = _arg(args, kwargs, 1, "grid")
    c["basis_inputs"] += x.size
    c["basis_clamped"] += int(np.count_nonzero((x < grid.range_min) | (x > grid.range_max)))


def _probe_basis_result(c, result):
    c["basis_entries"] += result[0].size
    c["basis_nonzero"] += int(np.count_nonzero(result[0]))


def _probe_caches(c, result):
    c["cache_calls"] += 1
    c["cache_bytes"] += _nbytes(result[1])


def _probe_clip(c, args, kwargs):
    norm = math.sqrt(_sum_squares(_arg(args, kwargs, 0, "grads")))
    c["clip_calls"] += 1
    c["clip_fired"] += norm > _arg(args, kwargs, 1, "max_norm")


def _probe_aggregate(c, args, kwargs):
    c["aggregate_calls"] += 1
    c["aggregate_bytes"] += sum(_nbytes(u.weights) for u in _arg(args, kwargs, 0, "updates"))


# span -> (probe of the arguments before the call, probe of the result after)
_PROBES = {
    "splines.basis_and_derivative": (_probe_basis, _probe_basis_result),
    "model.forward_with_caches": (None, _probe_caches),
    "optim.clip_gradient_norm": (_probe_clip, None),
    "federation.aggregate": (_probe_aggregate, None),
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span, in call order, so a parent precedes its children;
        # the times are filled in when the call returns.
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.self_time = []
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.failed_probes: set[str] = set()

    def install(self) -> None:
        """Wrap every function in SPAN_METRICS that the package still has."""
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fedbeam"]
        for span in SPAN_METRICS:
            module_name, _, qualname = span.partition(".")
            try:
                owner = importlib.import_module(f"fedbeam.{module_name}")
            except ImportError:
                self.absent.append(span)
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(span, raw.__func__)))
            elif isinstance(owner, type) and callable(raw):
                setattr(owner, attr, self._wrap(span, raw))
            elif callable(raw):
                wrapped = self._wrap(span, raw)
                # Rebind every module's name for it, including `from x import f`.
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
            else:
                self.absent.append(span)

    def _wrap(self, span: str, fn):
        span_id = self._ids[span] = len(self.span_names)
        self.span_names.append(span)
        before, after = _PROBES.get(span, (None, None))
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            t_outer = clock()
            if before is not None:
                self._probe(span, before, args, kwargs)
            index = len(self.name)
            self.name.append(span_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                self.self_time[index] = (t1 - t0) - frame[1]
                if stack:
                    # Probes count as the child's cost, not the caller's self time.
                    stack[-1][1] += t1 - t_outer
            if after is not None:
                self._probe(span, after, result)
                if stack:
                    stack[-1][1] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def _probe(self, span, probe, *payload) -> None:
        try:
            probe(self.counts, *payload)
        except _PROBE_ERRORS:
            self.failed_probes.add(span)

    def finish(self, spans_path) -> dict:
        """Write the spans once and return the per-layer metrics.

        A metric whose function is absent, or whose probe no longer fits
        the function's arguments, reads 0 and is listed in "absent".
        """
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        self_time = np.array(self.self_time, dtype=np.float64)
        np.savez(spans_path, names=np.array(self.span_names), name=name, parent=parent,
                 start=start, end=end, self_time=self_time)

        n_names = len(self.span_names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=end - start, minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        values: dict[str, float] = {}
        absent = set()
        for span, stats in SPAN_METRICS.items():
            i = self._ids.get(span)
            for stat in stats:
                if i is None:
                    absent.add(f"{span}.{stat}")
                    values[f"{span}.{stat}"] = 0.0
                else:
                    values[f"{span}.{stat}"] = float({"calls": calls, "s": total, "self_s": own}[stat][i])

        c = self.counts
        derived = {
            "splines.basis_nonzero_fraction": _ratio(c["basis_nonzero"], c["basis_entries"]),
            "splines.clamped_fraction": _ratio(c["basis_clamped"], c["basis_inputs"]),
            "splines.eval_calls": float(
                self._calls_under("splines.basis_and_derivative", "federation.evaluate_global")
            ),
            "model.cache_bytes": _ratio(c["cache_bytes"], c["cache_calls"]),
            "optim.clip_fraction": _ratio(c["clip_fired"], c["clip_calls"]),
            "federation.aggregate_bytes": _ratio(c["aggregate_bytes"], c["aggregate_calls"]),
        }
        for metric, (_, span) in COUNTER_METRICS.items():
            values[metric] = derived[metric]
            if span not in self._ids or span in self.failed_probes:
                absent.add(metric)
        return {
            "metrics": values,
            "absent": sorted(absent),
            "absent_functions": sorted(self.absent),
            "spans": len(self.name),
        }

    def _calls_under(self, span: str, ancestor: str) -> int:
        """Calls of `span` with an `ancestor` span somewhere above them."""
        if span not in self._ids or ancestor not in self._ids:
            return 0
        target, above = self._ids[span], self._ids[ancestor]
        inside = [False] * len(self.name)
        for i, p in enumerate(self.parent):
            inside[i] = p >= 0 and (self.name[p] == above or inside[p])
        return sum(1 for n, under in zip(self.name, inside) if under and n == target)


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was counted."""
    return float(numerator) / denominator if denominator else 0.0
