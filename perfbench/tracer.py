"""Spans and counters around the package's layer boundaries, from outside it.

`Tracer.install()` replaces each listed function with a wrapper in every
`cavity_ramsey` module namespace that binds it (several modules import their
callees by name, so patching the defining module alone would miss calls), and
patches the listed methods on their classes. `uninstall()` puts every original
back. Spans are kept in memory as [name, start, end, parent, pass id] and
written once, by `dump()`, after the pass; `layer_metrics()` turns them into
the per-layer numbers.

The per-term hot calls (`CompensatedSum.add`, `thermal.gammaln`, ...) get
count-only wrappers: a span each would cost more than the work it measures.
Their time therefore shows up in the self time of the span around them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "cavity_ramsey"
ORIGINAL_ATTR = "__perfbench_original__"

# (module, function): span named "<module>.<function>"
SPANS = (
    ("cli", "main"),
    ("open_system", "master_fringe"),
    ("open_system", "evolve_master"),
    ("thermal", "thermal_visibility"),
    ("thermal", "pg_constant"),
    ("thermal", "pg_oscillatory"),
    ("jc", "solve_pi_half_time"),
    ("jc", "branch_states"),
    ("jc", "jc_evolve"),
    ("fock", "coherent_state"),
    ("interferometry", "plus_minus_decomposition"),
    ("interferometry", "fringe_scan_setup1"),
    ("interferometry", "visibility_from_pattern"),
    ("experiments", "run_setup1", "experiments.runner"),
    ("experiments", "run_setup2", "experiments.runner"),
    ("experiments", "run_fig4", "experiments.runner"),
    ("experiments", "run_velocity_scan", "experiments.runner"),
    ("experiments", "run_selftest", "experiments.runner"),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("experiments", "ScanReport", "to_csv", "experiments.render"),
    ("experiments", "ScanReport", "to_json", "experiments.render"),
    ("config", "PhysicalConfig", "resolved_series", "config.resolved_series"),
)
# (module, class or None, attribute, counter name)
COUNTERS = (
    ("summation", "CompensatedSum", "__init__", "summation.CompensatedSum.instances"),
    ("summation", "CompensatedSum", "add", "summation.CompensatedSum.add.calls"),
    ("summation", None, "exact_sum", "summation.exact_sum.calls"),
    ("thermal", None, "gammaln", "thermal.gammaln.calls"),
)
# spans whose distinct argument sets are counted
DISTINCT = ("open_system.master_fringe", "thermal.thermal_visibility",
            "fock.coherent_state")
FRINGE = "open_system.master_fringe"

# the oracle points the selftest workload visits: its configured
# (T = 0.04, nbar = 0.7) and the zero-temperature fringe at the same T
ORACLE_POINTS = ("T0.04_nbar0", "T0.04_nbar0.7")
# layers whose self time is reported as a share of the traced wall time;
# summation has counters only, so its time sits in thermal's share
LAYERS = ("open_system", "thermal", "jc", "fock", "interferometry",
          "experiments", "config", "cli")


def _freeze(value):
    """A hashable stand-in for a call argument (arrays by shape and bytes)."""
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, pass_id: int = 1):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.fringe: dict[int, dict] = {}  # master_fringe span -> point, batch, L
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._signatures: dict[str, inspect.Signature] = {}

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, name, fn):
        spans, stack, pass_id = self.spans, self._stack, self.pass_id
        observe = {FRINGE: self._on_fringe,
                   "jc.jc_evolve": self._on_jc_evolve}.get(name)
        distinct = name in DISTINCT
        if distinct:
            self._signatures[name] = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, pass_id]
            spans.append(rec)
            if observe is not None:
                observe(idx, args, kwargs)
            if distinct:
                self._on_distinct(name, args, kwargs)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        setattr(wrapper, ORIGINAL_ATTR, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    def _bound(self, name, args, kwargs):
        bound = self._signatures[name].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _on_distinct(self, name, args, kwargs):
        self.keys[name].add(_freeze(tuple(self._bound(name, args, kwargs).items())))

    def _on_fringe(self, idx, args, kwargs):
        a = self._bound(FRINGE, args, kwargs)
        self.fringe[idx] = {"point": f"T{a['T']:g}_nbar{a['nbar']:g}",
                            "batch": 0, "levels": 0}

    def _on_jc_evolve(self, idx, args, kwargs):
        state = args[0] if args else kwargs.get("state")
        if not hasattr(state, "mat"):
            return  # a pure state: not part of the oracle's density batch
        for parent in reversed(self._stack):
            if parent in self.fringe:
                self.fringe[parent]["batch"] += 1
                self.fringe[parent]["levels"] = max(self.fringe[parent]["levels"],
                                                    state.n_levels)
                return

    # -- install / uninstall ----------------------------------------------
    def _patch_everywhere(self, original, wrapper):
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mod = {m: importlib.import_module(f"{PACKAGE}.{m}")
               for m in {spec[0] for spec in SPANS + METHOD_SPANS + COUNTERS}}
        for spec in SPANS:
            module, func = spec[:2]
            name = spec[2] if len(spec) > 2 else f"{module}.{func}"
            original = getattr(mod[module], func)
            self._patch_everywhere(original, self._span_wrapper(name, original))
        for module, cls, method, name in METHOD_SPANS:
            owner = getattr(mod[module], cls)
            self._patch_attr(owner, method,
                             self._span_wrapper(name, owner.__dict__[method]))
        for module, cls, attr, name in COUNTERS:
            if cls is None:
                original = getattr(mod[module], attr)
                self._patch_everywhere(original, self._count_wrapper(name, original))
            else:
                owner = getattr(mod[module], cls)
                self._patch_attr(owner, attr,
                                 self._count_wrapper(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": self.spans,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "fringe": [self.fringe[i] | {"span": i} for i in sorted(self.fringe)],
        }


def leftover_wrappers() -> list[str]:
    """Names in the package's modules and classes still bound to a wrapper."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL_ATTR):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{attr}.{k}"
                          for k, v in vars(value).items() if hasattr(v, ORIGINAL_ATTR)]
    return found


def unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".instances", ".spans")):
        return "count"
    if name.endswith(("distinct_ratio", "self_share")):
        return "ratio"
    if name.endswith("state_bytes"):
        return "B"
    return "s"


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose CLI calls took `wall_s`."""
    spans = trace["spans"]
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(name):
        return trace["distinct"].get(name, 0) / n(name) if n(name) else 0.0

    m = {}
    m["open_system.master_fringe.calls"] = n(FRINGE)
    m["open_system.master_fringe.self_s"] = s(FRINGE)
    m["open_system.master_fringe.distinct_ratio"] = ratio(FRINGE)
    per_point = dict.fromkeys(ORACLE_POINTS, 0.0)
    state_bytes = 0
    for f in trace["fringe"]:
        key = f["point"]
        per_point[key] = per_point.get(key, 0.0) + own[f["span"]]
        state_bytes = max(state_bytes, f["batch"] * (2 * f["levels"]) ** 2 * 16)
    for key in ORACLE_POINTS:
        m[f"{FRINGE}.self_s.{key}"] = per_point[key]
    m["open_system.evolve_master.calls"] = n("open_system.evolve_master")
    m["open_system.evolve_master.self_s"] = s("open_system.evolve_master")
    m["open_system.state_bytes"] = state_bytes

    m["thermal.thermal_visibility.calls"] = n("thermal.thermal_visibility")
    m["thermal.thermal_visibility.distinct_ratio"] = ratio("thermal.thermal_visibility")
    for name in ("thermal.pg_constant", "thermal.pg_oscillatory"):
        m[f"{name}.calls"] = n(name)
        m[f"{name}.self_s"] = s(name)
    for _, _, _, counter in COUNTERS:
        m[counter] = trace["counts"].get(counter, 0)

    m["jc.solve_pi_half_time.calls"] = n("jc.solve_pi_half_time")
    m["jc.solve_pi_half_time.self_s"] = s("jc.solve_pi_half_time")
    m["jc.branch_states.self_s"] = s("jc.branch_states")
    m["jc.jc_evolve.calls"] = n("jc.jc_evolve")
    m["jc.jc_evolve.self_s"] = s("jc.jc_evolve")

    m["fock.coherent_state.calls"] = n("fock.coherent_state")
    m["fock.coherent_state.self_s"] = s("fock.coherent_state")
    m["fock.coherent_state.distinct_ratio"] = ratio("fock.coherent_state")

    m["interferometry.plus_minus_decomposition.self_s"] = \
        s("interferometry.plus_minus_decomposition")
    m["interferometry.fringe_scan_setup1.self_s"] = s("interferometry.fringe_scan_setup1")
    m["interferometry.visibility_from_pattern.calls"] = \
        n("interferometry.visibility_from_pattern")
    m["interferometry.visibility_from_pattern.self_s"] = \
        s("interferometry.visibility_from_pattern")

    m["experiments.runner.self_s"] = s("experiments.runner")
    m["experiments.render.self_s"] = s("experiments.render")
    m["config.resolved_series.self_s"] = s("config.resolved_series")
    m["cli.main.self_s"] = s("cli.main")

    for layer in LAYERS:
        total = sum(t for name, t in self_s.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_share"] = total / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    m["trace.unattributed_s"] = wall_s - sum(own)
    return m
