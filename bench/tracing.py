"""Per-layer call counts and self times for a traced benchmark run.

The layers are qbench's modules.  ``Tracer.installed()`` wraps each public
function in ``LAYERS`` at every binding the package holds for it (the
defining module's attribute as well as each ``from ... import`` copy in
another module) and restores every binding on exit.  A function's self
time is its wall time minus the wall time of the wrapped calls made
inside it.  A function missing from the package is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "circuits": ("joint_plan",),
    "qcore": ("embed_unitary", "apply_unitary", "reset_qubit", "basis_probabilities"),
    "noise": ("simulate_noisy", "evolve_density", "depolarize", "thermal_relax", "apply_readout"),
    "metrics": ("sorkin_kappa", "gamma", "peres_f"),
    "stats": ("sample_counts", "bootstrap_ci"),
    "sweep": ("run_sweep", "run_joint_test", "readout_threshold"),
    "csvio": ("write_records_csv",),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.shots = 0
        self.csv_bytes = 0
        self.absent: list[str] = []
        self._children: list[float] = []  # wrapped-call time of each open call

    def _wrap(self, key: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[key] += elapsed - self._children.pop()
                self.calls[key] += 1
                if self._children:
                    self._children[-1] += elapsed
                self._count_work(key, signature, args, kwargs)

        return wrapper

    def _count_work(self, key: str, signature, args, kwargs) -> None:
        if key == "stats.sample_counts":
            self.shots += int(signature.bind(*args, **kwargs).arguments.get("n_shots", 0))
        elif key == "csvio.write_records_csv":
            path = signature.bind(*args, **kwargs).arguments.get("path")
            if path is not None and os.path.exists(path):
                self.csv_bytes += os.path.getsize(path)

    @contextlib.contextmanager
    def installed(self):
        package = [m for name, m in list(sys.modules.items()) if name == "qbench" or name.startswith("qbench.")]
        patched = []
        self.absent = []
        try:
            for key in FUNCTIONS:
                module_name, name = key.split(".")
                original = getattr(sys.modules.get(f"qbench.{module_name}"), name, None)
                if original is None:
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(key, original)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def metrics(self, records: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for key in FUNCTIONS:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        circuits = self.calls["noise.simulate_noisy"]
        out["noise.simulate_noisy.per_record"] = (circuits / records if records else 0.0, "circuits/record")
        out["qcore.embed_unitary.per_circuit"] = (
            self.calls["qcore.embed_unitary"] / circuits if circuits else 0.0,
            "calls/circuit",
        )
        out["stats.sample_counts.shots"] = (self.shots, "count")
        out["csvio.write_records_csv.bytes"] = (self.csv_bytes, "bytes")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
