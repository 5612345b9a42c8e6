"""Span tracing of evcharge's public entry points, installed from outside.

Each wrapper replaces a function under the name its caller looks it up by
(for example ``evcharge.mdp.transition_matrix``, which ``mdp.solve`` calls),
records one span per call in memory, and restores the original on
``uninstall``.  A name that no longer exists is skipped, so a function that a
later change removes reports zero calls instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (span name, module that looks the function up, attribute name)
TARGETS = (
    ("price_model.transition_matrix", "evcharge.mdp", "transition_matrix"),
    ("price_model.sample_path", "evcharge.policy_eval", "sample_path"),
    ("price_model.build_grid", "evcharge.config", "build_grid"),
    ("risk.mean_cvar_rows", "evcharge.mdp", "mean_cvar_rows"),
    ("mdp.solve", "evcharge.mdp", "solve"),
    ("mdp.solve", "evcharge.beta_search", "solve"),
    ("mdp.terminal_values", "evcharge.mdp", "terminal_values"),
    ("mdp.verify_structure", "evcharge.mdp", "verify_structure"),
    ("policy_eval.simulate", "evcharge.policy_eval", "simulate"),
    ("policy_eval.estimate", "evcharge.policy_eval", "estimate"),
    ("policy_eval.estimate", "evcharge.beta_search", "estimate"),
    ("beta_search.solve_family", "evcharge.beta_search", "solve_family"),
    ("beta_search.fit", "evcharge.beta_search", "fit"),
    ("beta_search.linprog", "evcharge.beta_search", "linprog"),
    ("beta_search.select_beta", "evcharge.beta_search", "select_beta"),
    ("beta_search.pipeline", "evcharge.beta_search", "pipeline"),
    ("config.load", "evcharge.cli", "load_config"),
    ("cli", "evcharge.cli", "main"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count(span, args, kwargs, result, tracer):
    """Per-call counters, read from the arguments and results the caller sees."""
    c = tracer.counters
    if span == "price_model.transition_matrix":
        t, params = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 1, "params")
        tracer.keys[span].add(int(t) % int(params.seas_period))
    elif span == "risk.mean_cvar_rows":
        c["risk.mean_cvar_rows.rows"] += int(_arg(args, kwargs, 0, "values").shape[0])
    elif span == "mdp.solve":
        cfg, grid = _arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 3, "grid")
        c["mdp.solve.states"] += cfg.horizon * (cfg.r_max + 1) * len(grid)
    elif span == "policy_eval.simulate":
        c["policy_eval.simulate.paths"] += int(_arg(args, kwargs, 5, "n_paths"))
        if isinstance(result, list):
            c["policy_eval.simulate.steps"] += sum(int(getattr(tr, "tau", 0)) for tr in result)
    elif span == "beta_search.solve_family":
        tracer.keys[span].add((float(_arg(args, kwargs, 0, "lam")),
                               float(_arg(args, kwargs, 1, "alpha"))))
    elif span == "beta_search.linprog":
        a_ub = kwargs.get("A_ub")
        c["beta_search.fit.lp_rows"] += 0 if a_ub is None else int(a_ub.shape[0])


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(".distinct_ratio"):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(float)
        self.keys = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, span, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = (span, start, time.perf_counter(), parent)
                self._stack.pop()
            _count(span, args, kwargs, result, self)
            return result
        return wrapper

    def install(self) -> None:
        import importlib
        for span, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def summary(self) -> dict:
        """Calls, total seconds and self seconds per span name, plus counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child.get(idx, 0.0)
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.keys.items()}}

    def per_layer(self, overhead_s: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, zero where a layer did
        no work in this workload."""
        s = self.summary()
        calls, total, self_s = s["calls"], s["total_s"], s["self_s"]
        counters, distinct = s["counters"], s["distinct"]

        def ratio(span):
            n = calls.get(span, 0)
            return distinct.get(span, 0) / n if n else 0.0

        out = {
            "price_model.transition_matrix.calls": calls.get("price_model.transition_matrix", 0),
            "price_model.transition_matrix.s": total.get("price_model.transition_matrix", 0.0),
            "price_model.transition_matrix.distinct_ratio": ratio("price_model.transition_matrix"),
            "price_model.sample_path.calls": calls.get("price_model.sample_path", 0),
            "price_model.sample_path.s": total.get("price_model.sample_path", 0.0),
            "price_model.build_grid.s": total.get("price_model.build_grid", 0.0),
            "risk.mean_cvar_rows.calls": calls.get("risk.mean_cvar_rows", 0),
            "risk.mean_cvar_rows.s": total.get("risk.mean_cvar_rows", 0.0),
            "risk.mean_cvar_rows.rows": counters.get("risk.mean_cvar_rows.rows", 0),
            "mdp.solve.calls": calls.get("mdp.solve", 0),
            "mdp.solve.self_s": self_s.get("mdp.solve", 0.0),
            "mdp.solve.states": counters.get("mdp.solve.states", 0),
            "mdp.terminal_values.s": total.get("mdp.terminal_values", 0.0),
            "mdp.verify_structure.s": total.get("mdp.verify_structure", 0.0),
            "policy_eval.simulate.calls": calls.get("policy_eval.simulate", 0),
            "policy_eval.simulate.s": total.get("policy_eval.simulate", 0.0),
            "policy_eval.simulate.paths": counters.get("policy_eval.simulate.paths", 0),
            "policy_eval.simulate.steps": counters.get("policy_eval.simulate.steps", 0),
            "policy_eval.estimate.self_s": self_s.get("policy_eval.estimate", 0.0),
            "beta_search.solve_family.calls": calls.get("beta_search.solve_family", 0),
            "beta_search.solve_family.distinct_ratio": ratio("beta_search.solve_family"),
            "beta_search.fit.calls": calls.get("beta_search.fit", 0),
            "beta_search.fit.s": total.get("beta_search.fit", 0.0),
            "beta_search.fit.lp_rows": counters.get("beta_search.fit.lp_rows", 0),
            "beta_search.select_beta.s": total.get("beta_search.select_beta", 0.0),
            "beta_search.pipeline.self_s": self_s.get("beta_search.pipeline", 0.0),
            "config.load.s": total.get("config.load", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
            "trace.overhead_s": overhead_s,
        }
        return {k: float(v) for k, v in out.items()}

    def dump(self, path: str, per_layer: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], start, end, parent]
                                 for n, start, end, parent in self.spans],
                       "per_layer": per_layer}, fh)
