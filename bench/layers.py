"""In-memory span tracing of dmres layers, applied from outside the package.

Each traced function is replaced, for the duration of a traced pass, at
every binding where its callers look it up: module attributes of every
loaded ``dmres`` module (``from .x import f`` copies), class attributes
for methods, and function defaults such as
``characterize(..., plan_builder=plan_res)``.  ``restore()`` puts the
originals back, so untraced passes run the unmodified program.

Spans are kept in memory as (name, start, end, parent, run) and written
out when the run ends.  A layer's self time is its span duration minus
the durations of its direct children; spans nest strictly because the
benchmark drives the program from one thread.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

# (span name, module, attribute).  A dotted attribute names a method.
SPANS = (
    ("cli.main", "dmres.cli", "main"),
    ("scenarios.run", "dmres.scenarios", "run_scenario"),
    ("scenarios.write", "dmres.scenarios", "ScenarioResult.write"),
    ("precision.sweep", "dmres.precision", "g_sweep"),
    ("precision.trace", "dmres.precision", "per_state_values"),
    ("precision.histogram", "dmres.precision", "error_histogram"),
    ("precision.reference", "dmres.precision", "reference_comparison"),
    ("precision.resource", "dmres.precision", "resource_report"),
    ("shots.simulate", "dmres.shots", "simulate_shots"),
    ("shots.variance", "dmres.shots", "element_variance"),
    ("res.characterize", "dmres.res", "characterize"),
    ("res.extract", "dmres.res", "extract_element"),
    ("plans.build_res", "dmres.res", "plan_res"),
    ("plans.build_seq", "dmres.seq", "plan_seq"),
    ("seq.response_map", "dmres.seq", "response_map"),
    ("seq.calibrate", "dmres.seq", "calibrate_estimator"),
    ("plans.base_amplitudes", "dmres.plans", "base_amplitudes"),
    ("plans.joint_unitary", "dmres.plans", "joint_unitary"),
    ("plans.readout", "dmres.plans", "readout_amplitudes"),
    ("plans.probabilities", "dmres.plans", "all_probabilities"),
    ("plans.variance_operator", "dmres.plans", "estimator_operators"),
    ("operators.involution", "dmres.operators", "make_involution"),
    ("sampling.stream", "dmres.sampling", "stream"),
    ("sampling.haar_state", "dmres.sampling", "sample_precision_state"),
    ("linalg.validate", "dmres.linalg", "DensityMatrix.create"),
    ("linalg.validate", "dmres.linalg", "Ket.create"),
    ("linalg.validate", "dmres.linalg", "UnitaryMatrix.create"),
    ("linalg.validate", "dmres.linalg", "Observable.create"),
    ("stateio.read", "dmres.stateio", "read_state"),
    ("stateio.write", "dmres.stateio", "write_state"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# Span duration statistics: (span, metric suffix, statistic, unit, scale).
DURATIONS = (
    ("plans.build_res", "p50_ms", statistics.median, "ms", 1e3),
    ("plans.build_seq", "p50_ms", statistics.median, "ms", 1e3),
    ("plans.build_seq", "max_ms", max, "ms", 1e3),
    ("shots.simulate", "p50_us", statistics.median, "us", 1e6),
    ("sampling.stream", "p50_us", statistics.median, "us", 1e6),
    ("sampling.haar_state", "p50_us", statistics.median, "us", 1e6),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Patches the layer bindings, records spans and waste/trust counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list = []
        self._stream_keys: dict = {}
        self.haar_keys: set = set()
        self.plan_keys: set = set()
        self.calibration_residuals: list[float] = []
        self.calibration_singular_values: list[float] = []
        self.bytes_written = {"stateio.write": 0, "scenarios.write": 0}
        self._hooks = {
            "sampling.stream": self._on_stream,
            "sampling.haar_state": self._on_haar_state,
            "plans.build_res": self._on_plan("res"),
            "plans.build_seq": self._on_plan("seq"),
            "stateio.write": self._on_state_write,
            "scenarios.write": self._on_scenario_write,
        }

    # -- counters computed at the wrappers from arguments and return values

    def _on_stream(self, args, kwargs, gen):
        key = (self.run_id, _arg(args, kwargs, 0, "seed"), _arg(args, kwargs, 1, "tag"),
               _arg(args, kwargs, 2, "index"))
        self._stream_keys[id(gen)] = key

    def _on_haar_state(self, args, kwargs, _result):
        rng = _arg(args, kwargs, 2, "rng")
        self.haar_keys.add(self._stream_keys.pop(id(rng), (self.run_id, "untracked", id(rng))))

    def _on_plan(self, scheme):
        def hook(args, kwargs, plan):
            element = _arg(args, kwargs, 0, "element")
            g = float(_arg(args, kwargs, 1, "g"))
            self.plan_keys.add((self.run_id, scheme, element.dims, element.s, element.s_prime, g))
            info = getattr(plan, "calibration", None)
            if info is not None:
                self.calibration_residuals.append(max(info.residual_re, info.residual_im))
                self.calibration_singular_values.append(info.smallest_singular_value)
        return hook

    def _on_state_write(self, args, kwargs, _result):
        self.bytes_written["stateio.write"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _on_scenario_write(self, _args, _kwargs, out_dir):
        self.bytes_written["scenarios.write"] += sum(
            p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())

    # -- patching

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "dmres" or key.startswith("dmres."))]
        replaced = {}
        for name, module_name, attr in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            replaced[id(original)] = (original, self._wrap(name, original))

        def swap(value):
            hit = replaced.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        # Defaults first, while the module attributes still hold the originals.
        functions = {id(v): v for m in modules for v in vars(m).values()
                     if getattr(v, "__defaults__", None)}
        for fn in functions.values():
            defaults = fn.__defaults__
            patched = tuple(swap(d) for d in defaults)
            if any(a is not b for a, b in zip(patched, defaults)):
                self._restore.append((fn, "__defaults__", defaults))
                fn.__defaults__ = patched
        for module in modules:
            for key, value in list(vars(module).items()):
                if swap(value) is not value:
                    self._restore.append((module, key, value))
                    setattr(module, key, swap(value))

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._stack.clear()

    # -- reduction

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls and self time per span name, plus the counters."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        durations = {name: [] for name in SPAN_NAMES}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            durations[name].append(end - start)

        passes = max(passes, 1)
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        for name, suffix, stat, unit, scale in DURATIONS:
            vals = durations[name]
            out[f"{name}.{suffix}"] = (stat(vals) * scale if vals else 0.0, unit)
        builds = calls["plans.build_res"] + calls["plans.build_seq"]
        draws = calls["sampling.haar_state"]
        out["plans.build.calls"] = (builds / passes, "count")
        out["plans.distinct_builds"] = (len(self.plan_keys) / passes, "count")
        out["plans.distinct_build_frac"] = (len(self.plan_keys) / builds if builds else 0.0, "frac")
        out["sampling.distinct_states"] = (len(self.haar_keys) / passes, "count")
        out["sampling.distinct_state_frac"] = (len(self.haar_keys) / draws if draws else 0.0, "frac")
        out["seq.calibration.max_residual"] = (max(self.calibration_residuals, default=0.0), "1")
        out["seq.calibration.min_singular_value"] = (
            min(self.calibration_singular_values, default=0.0), "1")
        out["seq.calibration.plans"] = (len(self.calibration_residuals) / passes, "count")
        for name, total in self.bytes_written.items():
            out[f"{name}.bytes"] = (total / passes, "B")
        out["trace.spans"] = (len(self.spans) / passes, "count")
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
