"""Per-layer call counts and self time, recorded from outside the package.

The tracer wraps the functions named in LAYERS and patches each wrapper
into every `chainsure` module namespace that holds the function, because
modules bind each other's functions by name (for example `risk.premium`
is called as `premium` inside `market` and `harness`). A layer's self
time is its wall time minus the time spent in the layers it called, so
it includes any helper that is not a layer of its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "chainsure"

# Each reported as <layer>.calls and <layer>.self_s. harness.solve_point
# is one too, so that run_sweep's self time is CSV writing and dispatch
# only. demand.lu_factor and demand.lu_solve are scipy's, bound in demand.
LAYERS = (
    "specfun.reg_inc_beta",
    "risk.attack_probability",
    "risk.premium",
    "risk.survival_grid",
    "demand.spectral_radius",
    "demand.lu_factor",
    "demand.lu_solve",
    "demand.closed_form_demand",
    "demand.lcp_demand",
    "market.provider_gradient",
    "market.provider_profit",
    "market.insurer_profit",
    "equilibrium.best_response_provider",
    "equilibrium.best_response_insurer",
    "equilibrium.solve_stackelberg",
    "harness.generate_instance",
    "harness.solve_point",
    "harness.run_sweep",
)


class Tracer:
    """Counts calls and self time per layer while installed."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._callee_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, callee_time = self.calls, self.self_s, self._callee_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            callee_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                self_s[name] += elapsed - callee_time.pop()
                if callee_time:
                    callee_time[-1] += elapsed

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            short, attr = layer.split(".")
            fn = getattr(importlib.import_module(f"{PACKAGE}.{short}"), attr)
            wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(obj), (None, None))
                if fn is obj:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
