"""The benchmark's tracer (`bench/spans.py`) names menhir functions by string;
a rename in `src/` must fail here rather than silently drop a span."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import menhir.cli
import menhir.parsing
from menhir.algebra import Algebra, clifford

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for _, module, path in _load_spans().TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)


def test_traced_product_signature_and_rows():
    assert list(inspect.signature(Algebra.mul_coeffs).parameters) == ["self", "a", "b"]
    spans = _load_spans()
    tracer = spans.Tracer()
    traced = tracer.wrap("algebra.mul_coeffs", Algebra.mul_coeffs)
    algebra = clifford(3)
    a = np.array([0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 3.0])  # 1-D, three nonzero rows
    b = np.arange(8.0)
    assert np.array_equal(traced(algebra, a, b), algebra.mul_coeffs(a, b))
    assert list(tracer.gens) == [3] and list(tracer.rows) == [3]


def test_cli_formats_through_the_traced_function():
    # the `parsing.format_element` span only sees calls made through this name
    assert menhir.cli.format_element is menhir.parsing.format_element
