"""Layer tracing of lifelike from outside the package, and the per-layer metrics.

`install` wraps selected public functions of each lifelike module and
rebinds every reference to them across the package, including names other
modules bound with `from .x import y` (`measures.neighborhood_index_field`,
`search.static_measure`, ...). Each call records a span: name, parent span,
the command it belongs to, start and end. Spans stay in memory until the
run ends. `per_layer` turns the spans into the metrics named in
BENCHMARK.json; a metric whose wrapped function no longer exists is
reported as absent rather than failing the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "lifelike"

#: Wrapped functions per layer. Helpers called per cell, per cube or per
#: sort key (neighborhood_index, make_and, canonical_key, ...) are left out:
#: a wrapper would cost more than they do.
TRACED = {
    "cli": ("main",),
    "rules": ("parse_rule_spec",),
    "boolmin": ("minimize", "minimize_detailed", "prime_implicants", "minimal_cover", "xor_extract"),
    "heval": ("eval_g_all", "m_truth_table"),
    "measures": ("static_measure", "dynamic_measure"),
    "simulator": ("neighborhood_index_field", "step", "m_field", "evolve", "render_ppm"),
    "search": ("evaluate", "run_ga"),
    "catalog": ("write_catalog",),
}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# hook(args, kwargs, result) -> span attributes; result is None when the call raised.
HOOKS = {
    "boolmin.minimize": lambda a, k, r: {"rule": hash(_arg(a, k, 0, "tt"))},
    "boolmin.minimize_detailed": lambda a, k, r: {"rule": hash(_arg(a, k, 0, "tt"))},
    "boolmin.prime_implicants": lambda a, k, r: {} if r is None else {"primes": len(r)},
    "boolmin.minimal_cover": lambda a, k, r: {"mode": _arg(a, k, 2, "mode", "exact")},
    "simulator.neighborhood_index_field": lambda a, k, r: {"cells": int(_arg(a, k, 0, "c").size)},
    "simulator.render_ppm": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "catalog.write_catalog": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "search.evaluate": lambda a, k, r: (
        {} if r is None else {"valid": bool(r.stability_zero), "skipped": r.md is None}
    ),
    "search.run_ga": lambda a, k, r: {
        "slots": _arg(a, k, 0, "cfg").pop_size * _arg(a, k, 0, "cfg").generations
    },
}


class Tracer:
    """Span recorder. A span is [id, parent, command, name, start_ns, end_ns, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = 0

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.command, name, 0, 0, {}]
            spans.append(span)
            stack.append(span[0])
            result = None
            span[4] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[6]["error"] = type(exc).__name__
                raise
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()
                if hook is not None:
                    try:
                        span[6].update(hook(args, kwargs, result))
                    except Exception as exc:  # a stale hook must not break the program
                        span[6]["hook_error"] = repr(exc)

        return traced

    def records(self):
        keys = ("id", "parent", "command", "name", "start_ns", "end_ns", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


def install(tracer: Tracer) -> list[str]:
    """Wrap every TRACED function and rebind it across the package.

    Returns the qualified names that could not be found.
    """
    missing = []
    wrappers = {}
    for mod_name, names in TRACED.items():
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            missing.extend(f"{mod_name}.{n}" for n in names)
            continue
        for fn_name in names:
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                missing.append(f"{mod_name}.{fn_name}")
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing


# --- per-layer metrics --------------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method; a single value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num, base):
    return (num / base if base else 0.0), base


#: name -> (unit, functions it needs, count repeats exactly between runs)
PER_LAYER = {
    "boolmin.minimize.per_rule": ("count/rule", ("boolmin.minimize",), True),
    "boolmin.prime_implicants.self_s": ("s", ("boolmin.prime_implicants",), False),
    "boolmin.prime_implicants.primes_p50": ("count", ("boolmin.prime_implicants",), True),
    "boolmin.minimal_cover.exact.self_s": ("s", ("boolmin.minimal_cover",), False),
    "boolmin.minimal_cover.greedy.self_s": ("s", ("boolmin.minimal_cover",), False),
    "boolmin.cover_budget_exceeded": ("count", ("boolmin.minimal_cover",), True),
    "boolmin.exact_cover.yield": ("ratio", ("boolmin.minimal_cover",), True),
    "boolmin.xor_extract.self_s": ("s", ("boolmin.xor_extract",), False),
    "heval.eval_g_all.self_s": ("s", ("heval.eval_g_all",), False),
    "heval.m_truth_table.calls": ("count", ("heval.m_truth_table",), True),
    "measures.static_measure.self_s": ("s", ("measures.static_measure",), False),
    "measures.dynamic_measure.self_s": ("s", ("measures.dynamic_measure",), False),
    "simulator.neighborhood_index_field.self_s": ("s", ("simulator.neighborhood_index_field",), False),
    "simulator.cells_indexed": ("count", ("simulator.neighborhood_index_field",), True),
    "simulator.index_ns_per_cell": ("ns", ("simulator.neighborhood_index_field",), False),
    "simulator.step.self_s": ("s", ("simulator.step",), False),
    "simulator.m_field.self_s": ("s", ("simulator.m_field",), False),
    "simulator.evolve.self_s": ("s", ("simulator.evolve",), False),
    "simulator.render_ppm.self_s": ("s", ("simulator.render_ppm",), False),
    "simulator.bytes_rendered": ("bytes", ("simulator.render_ppm",), True),
    "search.evaluate.calls": ("count", ("search.evaluate",), True),
    "search.evaluate.ms_p50": ("ms", ("search.evaluate",), False),
    "search.evaluate.ms_p90": ("ms", ("search.evaluate",), False),
    "search.archive_hit_ratio": ("ratio", ("search.evaluate", "search.run_ga"), True),
    "search.valid_ratio": ("ratio", ("search.evaluate",), True),
    "search.dynamic_skip_ratio": ("ratio", ("search.evaluate",), True),
    "catalog.write_catalog.self_s": ("s", ("catalog.write_catalog",), False),
    "catalog.bytes_written": ("bytes", ("catalog.write_catalog",), True),
    "cli.main.self_s": ("s", ("cli.main",), False),
    "rules.parse_rule_spec.self_s": ("s", ("rules.parse_rule_spec",), False),
    "trace.overhead_s": ("s", (), False),
    "trace.overhead_ratio": ("ratio", (), False),
}


def per_layer(spans: list[dict], missing: list[str], traced_s: float, plain_s: float) -> dict:
    """Per-layer metrics from a traced run's spans.

    Each metric is {"value", "unit", "base", "samples", "absent"}: `base` is
    the denominator of a ratio, or for a self time the traced commands' wall
    time; `samples` is the number of spans it was computed from.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        s["self_s"] = (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e9
        by_name[s["name"]].append(s)
    names = {s["id"]: s["name"] for s in spans}

    def self_s(group):
        return sum(s["self_s"] for s in group), traced_s

    minimize_names = ("boolmin.minimize", "boolmin.minimize_detailed")
    entries = [
        s for name in minimize_names for s in by_name[name]
        if names.get(s["parent"]) not in minimize_names
    ]
    covers = by_name["boolmin.minimal_cover"]
    exact = [s for s in covers if s["attrs"].get("mode") == "exact"]
    greedy = [s for s in covers if s["attrs"].get("mode") == "greedy"]
    exceeded = sum(s["attrs"].get("error") == "CoverBudgetExceeded" for s in exact)
    index = by_name["simulator.neighborhood_index_field"]
    cells = sum(s["attrs"].get("cells", 0) for s in index)
    index_s = sum(s["self_s"] for s in index)
    evaluate = by_name["search.evaluate"]
    eval_ms = sorted((s["end_ns"] - s["start_ns"]) / 1e6 for s in evaluate)
    slots = sum(s["attrs"].get("slots", 0) for s in by_name["search.run_ga"])
    primes = [s["attrs"]["primes"] for s in by_name["boolmin.prime_implicants"] if "primes" in s["attrs"]]

    computed = {
        "boolmin.minimize.per_rule": (
            _ratio(len(entries), len({s["attrs"].get("rule") for s in entries})), entries),
        "boolmin.prime_implicants.self_s": (self_s(by_name["boolmin.prime_implicants"]),
                                            by_name["boolmin.prime_implicants"]),
        "boolmin.prime_implicants.primes_p50": (
            (statistics.median(primes) if primes else 0.0, None), primes),
        "boolmin.minimal_cover.exact.self_s": (self_s(exact), exact),
        "boolmin.minimal_cover.greedy.self_s": (self_s(greedy), greedy),
        "boolmin.cover_budget_exceeded": ((exceeded, None), exact),
        "boolmin.exact_cover.yield": (_ratio(len(exact) - exceeded, len(exact)), exact),
        "simulator.cells_indexed": ((cells, None), index),
        "simulator.index_ns_per_cell": (_ratio(index_s * 1e9, cells), index),
        "simulator.bytes_rendered": (
            (sum(s["attrs"].get("bytes", 0) for s in by_name["simulator.render_ppm"]), None),
            by_name["simulator.render_ppm"]),
        "heval.m_truth_table.calls": ((len(by_name["heval.m_truth_table"]), None),
                                      by_name["heval.m_truth_table"]),
        "search.evaluate.calls": ((len(evaluate), None), evaluate),
        "search.evaluate.ms_p50": ((quantile(eval_ms, 50) if eval_ms else 0.0, None), evaluate),
        "search.evaluate.ms_p90": ((quantile(eval_ms, 90) if eval_ms else 0.0, None), evaluate),
        "search.archive_hit_ratio": (_ratio(slots - len(evaluate), slots), evaluate),
        "search.valid_ratio": (
            _ratio(sum(bool(s["attrs"].get("valid")) for s in evaluate), len(evaluate)), evaluate),
        "search.dynamic_skip_ratio": (
            _ratio(sum(bool(s["attrs"].get("skipped")) for s in evaluate), len(evaluate)), evaluate),
        "catalog.bytes_written": (
            (sum(s["attrs"].get("bytes", 0) for s in by_name["catalog.write_catalog"]), None),
            by_name["catalog.write_catalog"]),
        "trace.overhead_s": ((traced_s - plain_s, plain_s), []),
        "trace.overhead_ratio": (_ratio(traced_s - plain_s, plain_s), []),
    }
    result = {}
    for name, (unit, needs, _exact) in PER_LAYER.items():
        if name in computed:
            (value, base), samples = computed[name]
        else:  # "<module>.<function>.self_s"
            group = by_name[name.rsplit(".", 1)[0]]
            (value, base), samples = self_s(group), group
        absent = any(n in missing for n in needs)
        result[name] = {
            "value": 0 if absent else value,
            "unit": unit,
            "base": base,
            "samples": len(samples),
            "absent": absent,
        }
    return result
