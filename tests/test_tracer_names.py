"""The benchmark tracer's span names still name functions of the package.

``perfbench/tracer.py`` wraps fedbeam functions by name and reports a name
it cannot resolve as absent instead of failing, so a renamed kernel would
quietly drop out of every traced benchmark run.  The tracer is loaded from
its file, in process.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Spans whose functions were deleted before this guard existed; the tracer
# still lists them.  They may leave SPAN_METRICS, but no name may join them.
STALE = {
    "model.gradient_vector",
    "params.ParameterVector.from_flat",
    "params.ParameterVector.to_flat",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def resolves(span: str) -> bool:
    """Whether ``fedbeam.<module>.<qualname>`` is a callable, as the tracer
    looks it up when it is installed."""
    module_name, _, qualname = span.partition(".")
    try:
        owner = importlib.import_module(f"fedbeam.{module_name}")
    except ImportError:
        return False
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_span_names_a_package_function():
    spans = load_tracer().SPAN_METRICS
    assert "splines.basis_and_derivative" in spans
    unresolved = {span for span in spans if not resolves(span)}
    assert unresolved <= STALE, sorted(unresolved - STALE)


def test_a_renamed_function_is_caught(monkeypatch):
    monkeypatch.delattr("fedbeam.splines.basis_and_derivative")
    assert not resolves("splines.basis_and_derivative")
    assert resolves("layers.kan_layer_forward")
