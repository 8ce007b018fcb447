"""In-memory span tracer for the calls into each `menhir` layer.

Spans are recorded from the benchmark's side only: `installed` replaces the
public functions named in `TARGETS` with timing wrappers in every `menhir`
module that holds a reference to them, so calls made between modules are
traced too.  Each span keeps its name, start, end and parent; spans stay in
memory until `summary` turns them into per-layer metrics.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array

import numpy as np

#: (span name, module, attribute path) for every traced public function
TARGETS = (
    ("algebra.mul_coeffs", "menhir.algebra", "Algebra.mul_coeffs"),
    ("algebra.inverse", "menhir.algebra", "Element.inverse"),
    ("algebra.tables", "menhir.algebra", "Algebra.__init__"),
    ("calculus.compose_menhirs", "menhir.calculus", "compose_menhirs"),
    ("calculus.thomas_matrix", "menhir.calculus", "RotationDescriptor.matrix"),
    ("calculus.radial", "menhir.calculus", "menhir_of"),
    ("calculus.radial", "menhir.calculus", "velocity_of"),
    ("lorentz.boost_matrix", "menhir.lorentz", "boost_matrix"),
    ("lorentz.polar_decompose", "menhir.lorentz", "polar_decompose"),
    ("reversions.boost_star_shift", "menhir.reversions", "boost_star_shift"),
    ("reversions.revert", "menhir.reversions", "revert"),
    ("parsing.parse_element", "menhir.parsing", "parse_element"),
    ("parsing.format_element", "menhir.parsing", "format_element"),
    ("verify.trial", "menhir.verify", "composition_trial"),
)

#: generator counts reported separately for `algebra.mul_coeffs`
#: (every algebra the workloads use: real .. clifford5, and clifford10)
GENERATOR_COUNTS = (0, 1, 2, 3, 4, 5, 10)

#: layers reported as `<layer>.calls` and `<layer>.self_s`; `cli` is the
#: command span the benchmark opens around each CLI invocation
_LAYERS = (
    "algebra.inverse",
    "calculus.compose_menhirs",
    "calculus.thomas_matrix",
    "calculus.radial",
    "lorentz.boost_matrix",
    "lorentz.polar_decompose",
    "reversions.boost_star_shift",
    "reversions.revert",
    "parsing.parse_element",
    "parsing.format_element",
    "verify.trial",
    "cli",
)


def metric_names() -> dict[str, str]:
    """Every per-layer metric `summary` emits, with its unit."""
    names = {}
    for stem in ["algebra.mul_coeffs"] + [f"algebra.mul_coeffs.g{g}" for g in GENERATOR_COUNTS]:
        names[f"{stem}.calls"] = "count"
        names[f"{stem}.rows"] = "count"
        names[f"{stem}.self_s"] = "s"
    names["algebra.tables_s"] = "s"
    for layer in _LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
    names["trace.untraced_wall_s"] = "s"
    names["trace.traced_wall_s"] = "s"
    names["trace.overhead_s"] = "s"
    names["trace.uncovered_s"] = "s"
    return names


class Tracer:
    """Nested spans in flat arrays: name id, start, end, parent index,
    generator count and nonzero left rows (the last two for products only)."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.gens = array("i")
        self.rows = array("q")
        self.stack: list[int] = []

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def open(self, name_id: int, gens: int = -1, rows: int = 0) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.gens.append(gens)
        self.rows.append(rows)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int):
        self.end[index] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the CLI command)."""
        index = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        open_, close = self.open, self.close
        if name == "algebra.mul_coeffs":
            def traced(alg, a, b):
                index = open_(name_id, alg.n_gen, int(np.count_nonzero(a)))
                try:
                    return fn(alg, a, b)
                finally:
                    close(index)
        else:
            def traced(*args, **kwargs):
                index = open_(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(index)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target in every loaded `menhir` module and class with
        its traced wrapper, and put the originals back on exit."""
        replaced = []
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "menhir" and m]
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if outer:  # a method: the class attribute is the only reference
                refs = [(owner, attr)]
            else:
                refs = [(mod, key) for mod in modules
                        for key, value in vars(mod).items() if value is original]
            wrapper = self.wrap(name, original)
            for obj, key in refs:
                setattr(obj, key, wrapper)
                replaced.append((obj, key, original))
        try:
            yield self
        finally:
            for owner, attr, original in replaced:
                setattr(owner, attr, original)

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls, rows and self times; `wall_s` is the traced wall
        time the spans are checked against (for `trace.uncovered_s`)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        gens = np.frombuffer(self.gens, dtype=np.int32)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_s = dur - covered

        def select(layer: str):
            return name == self.name_ids.get(layer, -1)

        out = {key: 0.0 for key in metric_names()}
        mul = select("algebra.mul_coeffs")
        for stem, mask in [("algebra.mul_coeffs", mul)] + [
            (f"algebra.mul_coeffs.g{g}", mul & (gens == g)) for g in GENERATOR_COUNTS
        ]:
            out[f"{stem}.calls"] = int(mask.sum())
            out[f"{stem}.rows"] = int(rows[mask].sum())
            out[f"{stem}.self_s"] = float(self_s[mask].sum())
        out["algebra.tables_s"] = float(self_s[select("algebra.tables")].sum())
        for layer in _LAYERS:
            mask = select(layer)
            out[f"{layer}.calls"] = int(mask.sum())
            out[f"{layer}.self_s"] = float(self_s[mask].sum())
        out["trace.uncovered_s"] = wall_s - float(dur[~child].sum())
        return out
