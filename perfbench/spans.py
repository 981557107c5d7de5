"""Layer spans recorded from outside the package.

`Tracer.install` rebinds each layer's public functions, in the modules
that call them, to wrappers that record one span per call: name, layer,
start, end, parent span, and a few counters read from the arguments or
the result. The package itself is not modified. Spans stay in memory
and are written as JSON lines when the traced pass ends.

`layer_metrics` turns one pass's spans into the per-layer metrics. A
span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# layer -> public functions of the module of the same name.
LAYERS = {
    "graph": ("spectrum", "laplacian", "add_pair_edges", "build_complete",
              "build_path", "build_pcycle", "build_custom",
              "pair_difference_matrix"),
    "stability": ("check_platoon", "region_bound", "in_region_S", "solve_a"),
    "covariance": ("steady_state_covariance", "complete_graph_sigma_c",
                   "f_integral"),
    "risk": ("risk_profile", "condition", "var_risk", "naive_risk"),
    "closed_form": ("complete_profile",),
    "experiments": ("stability_rows", "covariance_rows", "profile_rows",
                    "sweep_scale_rows", "sweep_sparsity_rows",
                    "add_edge_rows", "simulate_rows"),
    "simulate": ("run",),
    "config": ("load_config", "build_graph", "build_noise", "build_platoon",
               "build_query", "build_scenario", "build_sim", "resolve_seed",
               "experiment_option", "scenario_state_values"),
    "cli": ("main", "render_csv"),
}

# Calls inside the defining module are traced only for these, because
# their counts or times are metrics; other same-layer calls would only
# add overhead.
_TRACED_WITHIN_LAYER = {"f_integral", "region_bound", "render_csv", "main"}


def _f_key(args, kwargs, result):
    # The f cache's own key: 12 significant digits of (s1, s2).
    return {"key": f"{args[0]:.11e},{args[1]:.11e}"}


def _profile_counts(args, kwargs, result):
    return {"pairs": len(result),
            "errors": sum(entry.error is not None for entry in result)}


def _condition_counts(args, kwargs, result):
    return {"pairs": 1}


def _sample_count(args, kwargs, result):
    empirical = result[0] if isinstance(result, tuple) else result
    return {"samples": int(empirical.sample_count)}


def _byte_count(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


_ATTRS = {
    "f_integral": _f_key,
    "risk_profile": _profile_counts,
    "condition": _condition_counts,
    "run": _sample_count,
    "render_csv": _byte_count,
}


class Tracer:
    """Single-threaded span recorder; `spans` holds
    [name, layer, start, end, parent index, attrs] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, clock(), None,
                      stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function wherever a `cascade_risk` module
        binds it. Functions the package no longer has are listed in
        `missing`."""
        modules = {name: importlib.import_module(f"cascade_risk.{name}")
                   for name in LAYERS}
        callers = [m for key, m in sys.modules.items()
                   if key.startswith("cascade_risk.") and m is not None]
        for layer, names in LAYERS.items():
            home = modules[layer]
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(layer, name, fn)
                for module in callers:
                    if module is home and name not in _TRACED_WITHIN_LAYER:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, attrs in self.spans:
                line = {"name": name, "layer": layer, "start": start,
                        "end": end, "parent": parent}
                if attrs:
                    line.update(attrs)
                fh.write(json.dumps(line) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times (seconds) from one pass's spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    f_self = 0.0
    count = defaultdict(int)
    total = defaultdict(float)
    longest = defaultdict(float)
    summed = defaultdict(int)
    f_keys = set()
    patterns = 0
    for i, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        own = duration - covered[i]
        self_s[span["layer"]] += own
        count[name] += 1
        total[name] += duration
        longest[name] = max(longest[name], duration)
        for key in ("pairs", "errors", "samples", "bytes"):
            summed[key] += span.get(key, 0)
        if name == "f_integral":
            f_self += own
            f_keys.add(span["key"])
        parent = span["parent"]
        if name == "risk_profile" and parent is not None \
                and spans[parent]["name"] == "sweep_sparsity_rows":
            patterns += 1
    sim_time = total["run"]
    return {
        "graph.spectrum_calls": count["spectrum"],
        "graph.self_s": self_s["graph"],
        "graph.spectrum_max_s": longest["spectrum"],
        "stability.check_calls": count["check_platoon"],
        "stability.region_bound_calls": count["region_bound"],
        "stability.self_s": self_s["stability"],
        "covariance.f_calls": count["f_integral"],
        "covariance.f_distinct": len(f_keys),
        "covariance.f_self_s": f_self,
        "covariance.self_s": self_s["covariance"] - f_self,
        "risk.profile_calls": count["risk_profile"],
        "risk.pairs": summed["pairs"],
        "risk.error_entries": summed["errors"],
        "risk.self_s": self_s["risk"],
        "closed_form.calls": count["complete_profile"],
        "closed_form.self_s": self_s["closed_form"],
        "experiments.patterns": patterns,
        "experiments.self_s": self_s["experiments"],
        "simulate.samples": summed["samples"],
        "simulate.self_s": self_s["simulate"],
        "simulate.samples_per_s":
            summed["samples"] / sim_time if sim_time > 0 else 0.0,
        "config.self_s": self_s["config"],
        "cli.render_s": total["render_csv"],
        "cli.bytes_out": summed["bytes"],
        "cli.self_s": self_s["cli"],
    }


def layer_shares(metrics: dict, run_s: float) -> dict:
    """Self time of each layer as a share of the traced run time; `f`
    is split out of covariance, and `untraced` is what no span covers."""
    parts = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    parts["f"] = metrics["covariance.f_self_s"]
    parts["untraced"] = run_s - sum(parts.values())
    return {name: value / run_s for name, value in parts.items()}
