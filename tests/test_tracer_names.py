"""The benchmark tracer's span names still name functions of the package,
and its probes still read the arguments and results of real calls.

``perfbench/tracer.py`` wraps fedbeam functions by name and reports a name
it cannot resolve as absent instead of failing, so a renamed kernel would
quietly drop out of every traced benchmark run.  A probe that no longer
fits its function's signature is swallowed the same way, and its counter
reads absent.  The tracer is loaded from its file, in process.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fedbeam.model import (
    ModelConfig,
    build_model,
    export_weights,
    forward_with_caches,
    import_weights,
)
from fedbeam.optim import clip_gradient_norm

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


def test_the_clip_and_cache_probes_count_real_calls(tmp_path):
    # The probes run through the tracer's own wrappers, on calls made as the
    # training loop makes them; no package name is rebound.
    tracer = load_tracer().Tracer()
    traced_forward = tracer._wrap("model.forward_with_caches", forward_with_caches)
    traced_clip = tracer._wrap("optim.clip_gradient_norm", clip_gradient_norm)
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = import_weights(model, export_weights(model), copies=2)
    _, caches = traced_forward(stacked, np.random.default_rng(2).random((2, 5, 10)))
    # Every row's norm is sqrt(parameters), far above max_norm 1.
    traced_clip(np.ones_like(stacked.weights), 1.0)
    assert tracer.failed_probes == set()
    counts = tracer.counts
    assert counts["cache_calls"] == 1 and counts["cache_bytes"] > 0
    assert counts["clip_calls"] == 1 and counts["clip_fired"] == 1
    result = tracer.finish(tmp_path / "spans.npz")
    assert {"model.cache_bytes", "optim.clip_fraction"}.isdisjoint(result["absent"])
    assert result["metrics"]["optim.clip_fraction"] == 1.0
