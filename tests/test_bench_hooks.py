"""The benchmark's hooks into the package still resolve.

``bench/spans.py`` wraps functions by attribute path, and ``bench/run.py``
and ``bench/workloads.py`` call a few public names directly.  A name that
no longer resolves would silently drop its per-layer counts to zero, so
this test reads the span table from the benchmark itself.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"rsdesitter.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_span_target_resolves_to_a_callable():
    targets = _load_spans().TARGETS
    assert targets
    for name, module, path in targets:
        assert callable(_resolve(module, path)), (name, module, path)


def test_names_the_benchmark_calls_exist():
    for module, path in (
        ("ansatz", "ModeLabel"),
        ("ansatz", "forced_zero_slots"),
        ("cli", "main"),
        ("cli", "run_integrate"),
        ("radial", "RadialSystem"),
        ("radial", "ConstraintSet"),
        ("radial", "ConstraintSet.residuals"),
        ("radial", "build_A8"),
        ("radial", "build_A16"),
        ("radial", "assemble_from_angular"),
        ("solver", "frobenius"),
        ("solver", "constraint_kernel_state"),
        ("solver", "integrate"),
    ):
        assert callable(_resolve(module, path)), (module, path)
