"""The benchmark tracer's span names still name functions of the package,
its probes still read the arguments and results of real calls, and every
training step still calls each kernel it traces.

``perfbench/tracer.py`` wraps fedbeam functions by name and reports a name
it cannot resolve as absent instead of failing, so a renamed kernel would
quietly drop out of every traced benchmark run.  A probe that no longer
fits its function's signature is swallowed the same way, and its counter
reads absent.  The tracer is loaded from its file, in process.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fedbeam.data import default_profiles, generate_synthetic
from fedbeam.federation import FederationConfig, _lockstep_calls, build_client, local_train
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


# Spans the training step must enter, with how many times per step: "step"
# once, "spline"/"affine" once per spline/affine block, "hidden spline"
# once per spline block that builds its own plane.
STEP_SPANS = {
    "model.forward_with_caches": "step",
    "optim.mse_loss": "step",
    "model.model_backward": "step",
    "optim.clip_gradient_norm": "step",
    "optim.adam_step": "step",
    "layers.kan_layer_forward": "hidden spline",
    "splines.basis_and_derivative": "hidden spline",
    "layers.kan_layer_backward": "spline",
    "layers.linear_forward": "affine",
    "layers.linear_backward": "affine",
}


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("make", [ModelConfig.fed_kan, ModelConfig.fed_mlp], ids=["kan", "mlp"])
def test_every_training_step_calls_each_traced_kernel(monkeypatch, make, epochs):
    # The step's functions are rebound to the tracer's own wrappers in every
    # fedbeam module that holds them, as installing the tracer does, so a
    # step that routes around a traced kernel shows in the span counts.
    tracer = load_tracer().Tracer()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "fedbeam"]
    for span in STEP_SPANS:
        module_name, _, name = span.partition(".")
        raw = getattr(importlib.import_module(f"fedbeam.{module_name}"), name)
        wrapped = tracer._wrap(span, raw)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    monkeypatch.setattr(module, key, wrapped)
    # Rows of 60, 72 and 92 samples: stacked calls of several sizes, shared
    # starts and, over two epochs, different ones.
    clients = [
        build_client(generate_synthetic(3, h, p), 5, 0.8)
        for h, p in zip((80, 95, 120), default_profiles(3))
    ]
    template = build_model(make(), seed=5)
    fed = FederationConfig(local_epochs=epochs, batch_size=16)
    counts = sorted((c.sample_count for c in clients), reverse=True)
    steps = sum(1 for _ in _lockstep_calls(counts, epochs, fed.batch_size))
    rngs = [np.random.default_rng(i) for i in range(len(clients))]
    local_train(clients, template, export_weights(template), fed, rngs)

    splines = sum(spline for _, spline, _ in template.plan)
    # With more than one epoch a spline first block reads rows of the plane
    # built once per round (one basis call per client), not its own.
    prebuilt = int(epochs > 1 and template.plan[0][1])
    per_step = {
        "step": 1,
        "spline": splines,
        "hidden spline": splines - prebuilt,
        "affine": len(template.plan) - splines,
    }
    calls = Counter(tracer.span_names[i] for i in tracer.name)
    setup = {"splines.basis_and_derivative": prebuilt * len(clients)}
    assert {span: calls[span] for span in STEP_SPANS} == {
        span: steps * per_step[kind] + setup.get(span, 0) for span, kind in STEP_SPANS.items()
    }
