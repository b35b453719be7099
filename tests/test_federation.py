"""FedAvg mechanics: local training, aggregation algebra, rounds, runs."""

import dataclasses
import hashlib
import itertools
import os
import pickle
import signal
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedbeam.federation
import fedbeam.layers
import fedbeam.model
import fedbeam.pool
from fedbeam.data import BeamSeries, Scaler, default_profiles, generate_synthetic
from fedbeam.errors import (
    ConfigurationError,
    ContractViolationError,
    NumericsError,
)
from fedbeam.federation import (
    ClientState,
    ClientUpdate,
    ExperimentReport,
    FederationConfig,
    Helpers,
    aggregate,
    build_client,
    build_clients,
    dataset_digest,
    deal_experiments,
    evaluate_global,
    local_train,
    _lockstep_calls,
    _draw_kept,
    _runs,
    _step_masks,
    _take,
    run_experiment,
    run_round,
)
from fedbeam.layers import KanLayerParams, dropout_scale
from fedbeam.model import (
    ModelConfig,
    build_model,
    dropout_widths,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    model_backward,
    with_weights,
)
from fedbeam.optim import adam_step, clip_gradient_norm, mse_loss
from fedbeam.report import render_experiment_csv
from fedbeam.splines import SplineGrid, basis_and_derivative

from helpers import has_no_child, initial_adam_state

FAST_FED = FederationConfig(rounds=2, local_epochs=2, batch_size=16, seed=5)

# Both models at the default dropout_p 0.5, then at 0.3 (whose 1 / keep is
# inexact) and at 0, where nothing is drawn.
DROPOUT_CONFIGS = [
    pytest.param(ModelConfig.fed_kan(), id="kan"),
    pytest.param(ModelConfig.fed_mlp(), id="mlp"),
    *(
        pytest.param(make(dropout_p=p), id=f"{name}-p{p}")
        for p in (0.3, 0.0)
        for name, make in (("kan", ModelConfig.fed_kan), ("mlp", ModelConfig.fed_mlp))
    ),
]


def small_clients(n_beams: int = 2, hours: int = 80) -> list[ClientState]:
    profiles = default_profiles(n_beams)
    return [build_client(generate_synthetic(3, hours, p), 5, 0.8) for p in profiles]


def vector_of(value: float) -> np.ndarray:
    return np.full(3, value)


def update_of(cid: str, value: float, count: int) -> ClientUpdate:
    return ClientUpdate(cid, vector_of(value), count, 0.1)


def test_lockstep_calls_cover_590_in_37():
    calls = list(_lockstep_calls([590], 1, 16))
    assert len(calls) == 37
    assert [size for _, _, _, size, _, _ in calls] == [16] * 36 + [14]
    assert [starts for _, _, _, _, starts, _ in calls] == [[a] for a in range(0, 590, 16)]


def test_local_train_rejects_what_it_cannot_batch():
    clients = small_clients()
    template = build_model(ModelConfig.fed_kan(), seed=0)
    weights = export_weights(template)
    rngs = [np.random.default_rng(i) for i in range(len(clients))]
    # A config that cannot batch is refused when it is built, before a zero
    # batch size divides or zero epochs leave no loss to report.
    for overrides in ({"batch_size": 0}, {"local_epochs": 0}):
        with pytest.raises(ConfigurationError):
            local_train(clients, template, weights, FederationConfig(**overrides), rngs)
    first = clients[0]
    empty = dataclasses.replace(
        first, train_features=first.train_features[:0], train_targets=first.train_targets[:0]
    )
    with pytest.raises(ConfigurationError):
        local_train([empty, clients[1]], template, weights, FederationConfig(), rngs)


def test_aggregate_idempotent_on_identical_updates():
    updates = [update_of(f"c{i}", 0.73, 10) for i in range(3)]
    out = aggregate(updates, "uniform")
    assert np.max(np.abs(out - 0.73)) <= 1e-15


def test_aggregate_opposite_vectors_cancel():
    updates = [update_of("a", 1.5, 10), update_of("b", -1.5, 10)]
    out = aggregate(updates, "uniform")
    assert np.array_equal(out, np.zeros(3))


def test_aggregate_sample_weighted_hand_example():
    updates = [update_of("a", 1.0, 3), update_of("b", 5.0, 1)]
    out = aggregate(updates, "sample_weighted")
    assert np.array_equal(out, np.full(3, 2.0))
    assert not out.flags.writeable


def test_aggregate_is_permutation_invariant():
    rng = np.random.default_rng(8)
    updates = [ClientUpdate(f"c{i}", rng.standard_normal(6), i + 1, 0.1) for i in range(4)]
    forward_order = aggregate(updates, "sample_weighted")
    backward_order = aggregate(list(reversed(updates)), "sample_weighted")
    assert np.array_equal(forward_order, backward_order)


def test_aggregate_respects_convex_hull():
    rng = np.random.default_rng(9)
    values = rng.standard_normal((5, 6))
    updates = [ClientUpdate(f"c{i}", values[i], 2 * i + 1, 0.1) for i in range(5)]
    for scheme in ("uniform", "sample_weighted"):
        out = aggregate(updates, scheme)
        assert np.all(out >= values.min(axis=0) - 1e-12)
        assert np.all(out <= values.max(axis=0) + 1e-12)


def test_client_updates_compare_by_identity_and_hash():
    # A generated __eq__ would compare the weight arrays and raise.
    update, twin = update_of("b", 0.0, 1), update_of("b", 0.0, 1)
    assert update == update and update != twin
    assert len({update, twin}) == 2


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(ContractViolationError):
        aggregate([], "uniform")
    good = update_of("a", 1.0, 1)
    other = ClientUpdate("b", np.zeros(4), 1, 0.1)
    with pytest.raises(ContractViolationError, match="differ in shape"):
        aggregate([good, other], "uniform")
    with pytest.raises(ConfigurationError):
        aggregate([good], "median")


def test_local_train_zero_lr_returns_global_bitwise():
    clients = small_clients(1)
    cfg = ModelConfig.fed_kan()
    fed = dataclasses.replace(FAST_FED, local_epochs=1, learning_rate=0.0)
    template = build_model(cfg, seed=5)
    global_weights = export_weights(template)
    [update] = local_train([clients[0]], template, global_weights, fed, [np.random.default_rng(0)])
    assert np.array_equal(update.weights, global_weights)
    assert not update.weights.flags.writeable
    assert update.sample_count == clients[0].sample_count


def test_local_train_is_deterministic():
    clients = small_clients(1)
    cfg = ModelConfig.fed_mlp()
    template = build_model(cfg, seed=5)
    global_weights = export_weights(template)
    [a] = local_train([clients[0]], template, global_weights, FAST_FED, [np.random.default_rng(4)])
    [b] = local_train([clients[0]], template, global_weights, FAST_FED, [np.random.default_rng(4)])
    assert np.array_equal(a.weights, b.weights)
    assert a.local_train_loss == b.local_train_loss
    [c] = local_train([clients[0]], template, global_weights, FAST_FED, [np.random.default_rng(5)])
    assert not np.array_equal(a.weights, c.weights)


def layer_arrays(model) -> list[np.ndarray]:
    arrays = []
    for block in model.blocks:
        if isinstance(block, KanLayerParams):
            arrays.append(block.weights)
        else:
            arrays += [block.weights, block.biases]
    return arrays


def test_layer_arrays_are_views_into_the_weight_buffer():
    for cfg in (ModelConfig.fed_kan(), ModelConfig.fed_mlp()):
        model = build_model(cfg, seed=3)
        imported = import_weights(model, export_weights(model))
        for m in (model, imported):
            assert all(np.shares_memory(a, m.weights) for a in layer_arrays(m))
        assert not np.shares_memory(imported.weights, model.weights)


def test_training_after_build_never_replans(monkeypatch):
    clients = small_clients(2)
    for cfg in (ModelConfig.fed_kan(), ModelConfig.fed_mlp()):
        template = build_model(cfg, seed=5)
        global_weights = export_weights(template)

        def forbidden(*args, **kwargs):
            raise AssertionError("re-planned a built model")

        with monkeypatch.context() as patch:
            patch.setattr(ModelConfig, "__post_init__", forbidden)
            patch.setattr(SplineGrid, "uniform", forbidden)
            patch.setattr(fedbeam.model, "layer_plan", forbidden)
            import_weights(template, global_weights)
            import_weights(template, global_weights, copies=2)
            rngs = [np.random.default_rng(0), np.random.default_rng(1)]
            updates = local_train(clients, template, global_weights, FAST_FED, rngs)
            evaluate_global(updates[0].weights, clients, template)


def test_training_leaves_template_and_global_weights_unchanged():
    clients = small_clients(3)
    template = build_model(ModelConfig.fed_kan(), seed=5)
    global_weights = export_weights(template)

    def snapshot() -> list[bytes]:
        arrays = [template.weights, *layer_arrays(template)]
        arrays.append(global_weights)
        return [a.tobytes() for a in arrays]

    before = snapshot()
    local_train([clients[0]], template, global_weights, FAST_FED, [np.random.default_rng(0)])
    assert snapshot() == before
    run_round(global_weights, clients, template, FAST_FED, 1)
    assert snapshot() == before


def arrays_in(value) -> list[np.ndarray]:
    """Every array in a nest of dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in arrays_in(v)]
    return []


@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("cfg", DROPOUT_CONFIGS[:2])
def test_no_array_of_a_step_is_alive_when_the_next_forward_starts(monkeypatch, cfg, epochs):
    # The batch, masks, predictions and caches of one step, checked by weak
    # reference as the next step's forward starts.
    previous: list[weakref.ref] = []
    alive = []
    forward_with_caches = fedbeam.federation.forward_with_caches

    def watched(model, batch, masks):
        alive.append(sum(ref() is not None for ref in previous))
        preds, caches = forward_with_caches(model, batch, masks)
        previous[:] = [weakref.ref(a) for a in arrays_in((batch, masks, preds, caches))]
        return preds, caches

    monkeypatch.setattr(fedbeam.federation, "forward_with_caches", watched)
    clients = small_clients(3)
    template = build_model(cfg, seed=5)
    fed = dataclasses.replace(FAST_FED, local_epochs=epochs)
    rngs = [np.random.default_rng(i) for i in range(3)]
    local_train(clients, template, export_weights(template), fed, rngs)
    assert len(previous) > 5 and len(alive) > 2
    assert alive == [0] * len(alive)


@pytest.mark.parametrize(
    "cfg, bound",
    [
        pytest.param(ModelConfig.fed_kan(), 44, id="kan"),
        pytest.param(ModelConfig.fed_mlp(), 34, id="mlp"),
    ],
)
def test_a_training_step_makes_few_python_calls(cfg, bound):
    # Python-level calls (``sys.setprofile`` "call" events, which miss
    # builtins and ufuncs) per step of a one-epoch local_train over two
    # protocol clients, its set-up included.  The bounds are the counts of
    # a step that carries only its layers' math, so a shape check or a
    # property read that creeps back into the step fails here.
    clients = small_clients(2, hours=743)
    template = build_model(cfg, seed=5)
    weights = export_weights(template)
    fed = dataclasses.replace(FAST_FED, local_epochs=1)
    counts = sorted((c.sample_count for c in clients), reverse=True)
    steps = sum(1 for _ in _lockstep_calls(counts, 1, fed.batch_size))
    assert steps == 37
    # A first call fills the per-order caches, whose building is no step's.
    local_train(clients, template, weights, fed, [np.random.default_rng(0)] * 2)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    rngs = [np.random.default_rng(i) for i in range(2)]
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        local_train(clients, template, weights, fed, rngs)
    finally:
        sys.setprofile(previous)
    assert calls / steps <= bound


def test_federation_config_validation():
    with pytest.raises(ConfigurationError):
        FederationConfig(rounds=0)
    with pytest.raises(ConfigurationError):
        FederationConfig(local_epochs=0)
    with pytest.raises(ConfigurationError):
        FederationConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        FederationConfig(aggregation="median")
    with pytest.raises(ConfigurationError):
        FederationConfig(availability_prob=0.0)
    with pytest.raises(ConfigurationError):
        FederationConfig(max_grad_norm=0.0)
    # An override re-checks the config, as the CLI's --availability does.
    with pytest.raises(ConfigurationError, match="availability_prob"):
        dataclasses.replace(FederationConfig(), availability_prob=1.5)
    with pytest.raises(ConfigurationError):
        FederationConfig.from_dict({"cadence": 3})


def test_run_round_all_participate_at_full_availability():
    clients = small_clients(3)
    cfg = ModelConfig.fed_kan()
    template = build_model(cfg, seed=5)
    weights = export_weights(template)
    _, report = run_round(weights, clients, template, FAST_FED, round_index=1)
    assert len(report.participants) == 3
    assert set(report.per_client_test_loss) == {c.client_id for c in clients}


def test_run_round_single_client_adopts_its_update():
    clients = small_clients(1)
    cfg = ModelConfig.fed_kan()
    template = build_model(cfg, seed=5)
    weights = export_weights(template)
    new_weights, report = run_round(weights, clients, template, FAST_FED, round_index=1)
    rng = np.random.default_rng(np.random.SeedSequence((FAST_FED.seed, 1, 1, 0)))
    [update] = local_train([clients[0]], template, weights, FAST_FED, [rng])
    assert np.array_equal(new_weights, update.weights)
    assert report.avg_train_loss == update.local_train_loss


def test_run_round_averages_are_consistent():
    clients = small_clients(3)
    cfg = ModelConfig.fed_mlp()
    template = build_model(cfg, seed=6)
    weights = export_weights(template)
    new_weights, report = run_round(weights, clients, template, FAST_FED, round_index=2)
    assert report.avg_test_loss == pytest.approx(
        np.mean(list(report.per_client_test_loss.values())), abs=1e-12
    )
    per_client, avg = evaluate_global(new_weights, clients, template)
    assert report.avg_test_loss == pytest.approx(avg, abs=1e-12)
    for cid, loss in per_client.items():
        assert report.per_client_test_loss[cid] == pytest.approx(loss, abs=1e-12)


def test_run_round_with_no_client_drawn_trains_exactly_one():
    clients = small_clients(3)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    fed = dataclasses.replace(FAST_FED, availability_prob=1e-300)
    _, report = run_round(export_weights(template), clients, template, fed, round_index=1)
    assert len(report.participants) == 1
    assert report.participants[0] in {c.client_id for c in clients}
    assert set(report.per_client_test_loss) == {c.client_id for c in clients}


def test_run_round_skipped_clients_still_evaluated():
    clients = small_clients(4, hours=60)
    cfg = ModelConfig.fed_kan()
    template = build_model(cfg, seed=5)
    weights = export_weights(template)
    fed = dataclasses.replace(FAST_FED, availability_prob=0.5)
    saw_partial = False
    for round_index in range(1, 21):
        _, report = run_round(weights, clients, template, fed, round_index)
        assert len(report.per_client_test_loss) == 4
        assert 1 <= len(report.participants) <= 4
        if len(report.participants) < 4:
            saw_partial = True
            break
    assert saw_partial


@pytest.mark.parametrize("cfg", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()], ids=["kan", "mlp"])
def test_lockstep_group_matches_each_client_alone(cfg):
    clients = small_clients(3)
    assert len({c.sample_count for c in clients}) == 1
    template = build_model(cfg, seed=7)
    weights = export_weights(template)
    together = local_train(
        clients, template, weights, FAST_FED, [np.random.default_rng(i) for i in range(3)]
    )
    assert [u.client_id for u in together] == [c.client_id for c in clients]
    for i, (client, update) in enumerate(zip(clients, together)):
        [alone] = local_train([client], template, weights, FAST_FED, [np.random.default_rng(i)])
        assert np.array_equal(update.weights, alone.weights)
        assert update.local_train_loss == alone.local_train_loss
        assert update.sample_count == alone.sample_count


def uneven_clients(hours=(80, 95, 120, 80)) -> list[ClientState]:
    profiles = default_profiles(len(hours))
    return [build_client(generate_synthetic(3, h, p), 5, 0.8) for h, p in zip(hours, profiles)]


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("cfg", DROPOUT_CONFIGS)
def test_ragged_lockstep_matches_each_client_alone(cfg, epochs):
    clients = uneven_clients()
    assert [c.sample_count for c in clients] == [60, 72, 92, 60]
    fed = dataclasses.replace(FAST_FED, local_epochs=epochs, batch_size=16)
    # One epoch reads per-client sources.  Three read stacked ones: as views
    # in calls whose rows share a batch start, gathered row by row in calls
    # whose rows do not.
    calls = list(_lockstep_calls([92, 72, 60, 60], epochs, 16))
    multirow = [starts for _, lo, hi, _, starts, _ in calls if hi - lo > 1]
    assert any(len(set(starts)) == 1 for starts in multirow)
    assert any(len(set(starts)) > 1 for starts in multirow) == (epochs > 1)
    template = build_model(cfg, seed=7)
    weights = export_weights(template)
    together = local_train(
        clients, template, weights, fed, [np.random.default_rng(i) for i in range(4)]
    )
    assert [u.client_id for u in together] == [c.client_id for c in clients]
    for i, (client, update) in enumerate(zip(clients, together)):
        [alone] = local_train([client], template, weights, fed, [np.random.default_rng(i)])
        assert update.weights.tobytes() == alone.weights.tobytes()
        assert np.float64(update.local_train_loss).tobytes() == np.float64(
            alone.local_train_loss
        ).tobytes()
        assert update.sample_count == alone.sample_count


def train_alone(client, template, weights, fed, rng):
    """One client's local training as a plain loop over feature rows.

    Follows the schedule ``local_train`` documents: chronological batches,
    every epoch in turn, one Adam step number per step from 1, fresh
    moments, and the element-weighted mean of the final epoch's losses.
    Each step draws its dropout masks from ``rng`` one layer at a time.
    """
    model = import_weights(template, weights)
    drop_prob = template.config.dropout_p
    widths = dropout_widths(template)
    grads = np.zeros_like(model.weights)
    gradient = with_weights(model, grads)
    state = initial_adam_state(grads.shape, fed.learning_rate, fed.weight_decay)
    n = client.sample_count
    step = 0
    losses, sizes = [], []
    for epoch in range(fed.local_epochs):
        for start in range(0, n, fed.batch_size):
            stop = min(start + fed.batch_size, n)
            features = client.train_features[start:stop]
            masks = None
            if drop_prob > 0.0:
                masks = [
                    dropout_scale(rng.random((stop - start, w)) < 1.0 - drop_prob, drop_prob)
                    for w in widths
                ]
            preds, caches = forward_with_caches(model, features, masks)
            loss, loss_grad = mse_loss(preds, client.train_targets[start:stop])
            model_backward(model, caches, loss_grad, gradient)
            clip_gradient_norm(grads, fed.max_grad_norm)
            step += 1
            adam_step(model.weights, grads, state, step)
            if epoch == fed.local_epochs - 1:
                losses.append(loss)
                sizes.append(stop - start)
    return model.weights, np.float64(np.average(losses, weights=sizes))


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("cfg", DROPOUT_CONFIGS)
def test_local_train_matches_a_plain_loop_over_feature_rows(cfg, epochs):
    # With more than one epoch a spline first block reads rows of a plane
    # built once per client; the plain loop builds every batch's plane from
    # its own feature rows.  local_train cuts each step's dropout masks from
    # an epoch's block per client; the plain loop draws them step by step,
    # layer by layer, from its generator.
    clients = uneven_clients()
    fed = dataclasses.replace(FAST_FED, local_epochs=epochs, batch_size=16)
    template = build_model(cfg, seed=7)
    weights = export_weights(template)
    updates = local_train(
        clients, template, weights, fed, [np.random.default_rng(i) for i in range(4)]
    )
    for i, (client, update) in enumerate(zip(clients, updates)):
        alone, loss = train_alone(client, template, weights, fed, np.random.default_rng(i))
        assert update.weights.tobytes() == alone.tobytes()
        assert np.float64(update.local_train_loss).tobytes() == loss.tobytes()


@st.composite
def lockstep_cases(draw):
    """A group of 1-6 clients of 1-120 training rows, a schedule, a model
    and a ``MAX_STACK_ROWS``: from 1 up to the most batch rows a call can
    hold here (6 x 32), or the default."""
    counts = draw(st.lists(st.integers(1, 120), min_size=1, max_size=6))
    fed = dataclasses.replace(
        FAST_FED, batch_size=draw(st.integers(1, 32)), local_epochs=draw(st.integers(1, 4))
    )
    make = draw(st.sampled_from([ModelConfig.fed_kan, ModelConfig.fed_mlp]))
    cfg = make(dropout_p=draw(st.sampled_from([0.0, 0.3])))
    max_rows = draw(st.integers(1, 6 * 32) | st.just(fedbeam.federation.MAX_STACK_ROWS))
    return counts, fed, cfg, max_rows


def test_lockstep_training_matches_each_client_alone_on_drawn_groups(monkeypatch):
    # Six distinct beams of 124 training rows, cut to each drawn count.
    beams = uneven_clients((160,) * 6)
    seen = set()

    @settings(max_examples=70, derandomize=True, deadline=None, database=None)
    @given(lockstep_cases())
    def check(case):
        counts, fed, cfg, max_rows = case
        clients = [
            dataclasses.replace(
                beam, train_features=beam.train_features[:n], train_targets=beam.train_targets[:n]
            )
            for beam, n in zip(beams, counts)
        ]
        template = build_model(cfg, seed=7)
        weights = export_weights(template)
        monkeypatch.setattr(fedbeam.federation, "MAX_STACK_ROWS", max_rows)
        updates = local_train(
            clients, template, weights, fed, [np.random.default_rng(i) for i in range(len(clients))]
        )
        for i, (client, update) in enumerate(zip(clients, updates)):
            alone, loss = train_alone(client, template, weights, fed, np.random.default_rng(i))
            assert update.weights.tobytes() == alone.tobytes()
            assert np.float64(update.local_train_loss).tobytes() == loss.tobytes()
        seen.add(("model", cfg.kind))
        seen.add(("dropout", cfg.dropout_p > 0.0))
        seen.add(("epochs", fed.local_epochs > 1))
        seen.add(("ragged", len(set(counts)) > 1))
        # Runs are maximal, so two calls of one step and one size are a split.
        calls = list(_lockstep_calls(sorted(counts, reverse=True), fed.local_epochs, fed.batch_size))
        seen.add(("split", any(a[0] == b[0] and a[3] == b[3] for a, b in zip(calls, calls[1:]))))

    check()
    # The sample reaches both models, both dropout settings, one and several
    # epochs, uneven groups, and calls split at MAX_STACK_ROWS.
    assert seen >= {
        ("model", "fed_kan"),
        ("model", "fed_mlp"),
        ("dropout", False),
        ("dropout", True),
        ("epochs", False),
        ("epochs", True),
        ("ragged", True),
        ("split", True),
    }, seen


@pytest.mark.parametrize("epochs", [1, 3])
def test_layer_zero_planes_are_kept_only_when_an_epoch_reads_them_again(monkeypatch, epochs):
    clients = uneven_clients()
    fed = dataclasses.replace(FAST_FED, local_epochs=epochs, batch_size=16)
    template = build_model(ModelConfig.fed_kan(), seed=7)
    weights = export_weights(template)
    width = template.config.input_width
    calls = []

    def recording_basis(x, grid, derivative=True, pad=0, out=None):
        calls.append((len(x), derivative))
        return basis_and_derivative(x, grid, derivative, pad, out)

    monkeypatch.setattr(fedbeam.layers, "basis_and_derivative", recording_basis)
    local_train(clients, template, weights, fed, [np.random.default_rng(i) for i in range(4)])
    # Layer 0 is the only spline layer evaluated without derivatives here,
    # and it evaluates every training row once per call, whatever the epochs.
    layer0 = [n for n, derivative in calls if not derivative]
    assert sum(layer0) == sum(c.sample_count for c in clients) * width
    if epochs == 1:
        # No row is read twice, so nothing is built ahead of its step.
        assert max(n for n, _ in calls) <= len(clients) * fed.batch_size * width
    else:
        # One plane per client, over all its rows.
        assert sorted(layer0) == sorted(c.sample_count * width for c in clients)


def lockstep_calls_all_at_once(counts, epochs, batch_size):
    """The whole lockstep schedule built before its first call, as one array
    per quantity over every global step: the form ``_lockstep_calls`` had
    before it worked one epoch at a time."""
    steps = -(-np.array(counts) // batch_size)
    g = np.arange(epochs * steps[0])[:, None]
    starts = g % steps * batch_size
    sizes = np.minimum(batch_size, np.array(counts) - starts)
    sizes[g >= epochs * steps] = 0
    first_final = ((epochs - 1) * steps > g).sum(axis=1)
    calls = []
    for step, (size_g, start_g, k) in enumerate(
        zip(sizes.tolist(), starts.tolist(), first_final.tolist())
    ):
        for lo, hi, size in _runs(size_g):
            calls.append((step, lo, hi, size, start_g[lo:hi], range(max(lo, k), hi)))
    return calls


@pytest.mark.parametrize("batch_size", [1, 5, 16, 128])
@pytest.mark.parametrize("epochs", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "counts",
    # The last one splits calls at MAX_STACK_ROWS when the batch is 128.
    [[60], [92, 72, 60, 60], [590, 589, 17, 16, 1], [2000, 1990, 7, 7, 7, 3], [300] * 13],
)
def test_lockstep_calls_match_the_whole_schedule_built_at_once(counts, epochs, batch_size):
    lazy = _lockstep_calls(counts, epochs, batch_size)
    assert iter(lazy) is lazy
    expected = lockstep_calls_all_at_once(counts, epochs, batch_size)
    for got, want in itertools.zip_longest(lazy, expected):
        assert got == want


def test_a_long_lockstep_schedule_is_not_built_ahead():
    tracemalloc.start()
    try:
        head = list(itertools.islice(_lockstep_calls([590, 300, 120], 10**9, 16), 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # No row reaches its last epoch within these calls at 10 epochs either.
    assert head == lockstep_calls_all_at_once([590, 300, 120], 10, 16)[:50]
    # The whole schedule would hold ~4 * 10^10 steps; one epoch holds 37.
    assert peak < 1 << 20


@pytest.mark.parametrize("epochs", [1, 3])
def test_layer_zero_training_planes_are_built_once_per_round(monkeypatch, epochs):
    profiles = default_profiles(4)
    beams = [generate_synthetic(3, h, p) for h, p in zip((80, 95, 120, 80), profiles)]
    fed = dataclasses.replace(FAST_FED, rounds=3, local_epochs=epochs, batch_size=16)
    clients = [build_client(b, 5, 0.8) for b in beams]
    width = ModelConfig.fed_kan().input_width
    training = []
    calls = []

    def recording_basis(x, grid, derivative=True, pad=0, out=None):
        if training:
            calls.append((x.copy(), derivative))
        return basis_and_derivative(x, grid, derivative, pad, out)

    def recording_local_train(*args):
        training.append(True)
        try:
            return local_train(*args)
        finally:
            training.clear()

    monkeypatch.setattr(fedbeam.layers, "basis_and_derivative", recording_basis)
    monkeypatch.setattr(fedbeam.federation, "local_train", recording_local_train)
    # The stubs record in this process only, so no share may go to a helper.
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 1)
    report = run_experiment(ModelConfig.fed_kan(), fed, clients)
    assert len(report.rounds) == 3 and all(len(r.participants) == 4 for r in report.rounds)
    # In training, layer 0 is the only spline layer evaluated without derivatives.
    layer0 = [x for x, derivative in calls if not derivative]
    if epochs == 1:
        # Each round reads each training row once, in batches; nothing is kept.
        assert sum(map(len, layer0)) == fed.rounds * sum(c.sample_count for c in clients) * width
        assert max(len(x) for x, _ in calls) <= len(clients) * fed.batch_size * width
    else:
        # One plane per client over all its training rows, in every round.
        assert len(layer0) == fed.rounds * len(clients)
        for client in clients:
            points = client.train_features.reshape(-1)
            assert sum(np.array_equal(x, points) for x in layer0) == fed.rounds


def test_stacked_calls_are_split_at_max_stack_rows(monkeypatch):
    clients = uneven_clients((80, 80, 80, 80, 95))
    fed = dataclasses.replace(FAST_FED, local_epochs=2, batch_size=16)
    template = build_model(ModelConfig.fed_mlp(), seed=7)
    weights = export_weights(template)

    def rngs():
        return [np.random.default_rng(i) for i in range(5)]

    unsplit = local_train(clients, template, weights, fed, rngs())

    shapes = []

    def recording_forward(model, batch, *args):
        shapes.append(batch.shape[:2])
        return forward_with_caches(model, batch, *args)

    monkeypatch.setattr(fedbeam.federation, "MAX_STACK_ROWS", 40)
    monkeypatch.setattr(fedbeam.federation, "forward_with_caches", recording_forward)
    split = local_train(clients, template, weights, fed, rngs())
    # Four 60-sample rows: batches of 16 go two at a time, the last (12) three and one.
    assert all(rows * size <= 40 for rows, size in shapes)
    assert {(2, 16), (3, 12), (1, 12)} <= set(shapes)
    for a, b in zip(unsplit, split):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.local_train_loss == b.local_train_loss


def test_run_round_mixed_lengths_match_clients_trained_alone(monkeypatch):
    profiles = default_profiles(3)
    clients = [
        build_client(generate_synthetic(3, hours, p), 5, 0.8)
        for hours, p in zip((80, 80, 95), profiles)
    ]
    assert clients[0].sample_count == clients[1].sample_count != clients[2].sample_count
    template = build_model(ModelConfig.fed_kan(), seed=7)
    weights = export_weights(template)
    fed = dataclasses.replace(FAST_FED, aggregation="sample_weighted")

    group_sizes = []

    def recording_local_train(group, *args):
        group_sizes.append(len(group))
        return local_train(group, *args)

    monkeypatch.setattr("fedbeam.federation.local_train", recording_local_train)
    new_weights, report = run_round(weights, clients, template, fed, 1)
    assert group_sizes == [3]

    updates = [
        local_train([c], template, weights, fed, [
            np.random.default_rng(np.random.SeedSequence((fed.seed, 1, 1, idx)))
        ])[0]
        for idx, c in enumerate(clients)
    ]
    expected = aggregate(updates, fed.aggregation)
    assert np.array_equal(new_weights, expected)
    assert report.avg_train_loss == float(np.mean([u.local_train_loss for u in updates]))


@pytest.mark.parametrize("drop_prob", [0.5, 0.3])
def test_an_epoch_block_sliced_per_step_equals_per_step_draws(monkeypatch, drop_prob):
    # Two rows, 60 and 44 samples: short last batches of 12 each.  Each
    # epoch block is drawn in several calls, and a chunk ends mid-step.
    monkeypatch.setattr(fedbeam.federation, "DRAW_CHUNK", 1000)
    counts, batch_size, widths = [60, 44], 16, [8, 16, 48]
    total = sum(widths)
    blocks = [np.random.default_rng(r) for r in range(2)]
    oracles = [np.random.default_rng(r) for r in range(2)]
    kept = np.empty((2, max(counts), total), dtype=bool)
    for epoch in range(2):
        for r, n in enumerate(counts):
            _draw_kept(blocks[r], 1.0 - drop_prob, kept[r, :n])
            for a in range(0, n, batch_size):
                size = min(batch_size, n - a)
                got = _step_masks(kept[r : r + 1, a : a + size], widths, drop_prob)
                for mask, w in zip(got, widths, strict=True):
                    draws = oracles[r].random((1, size, w))
                    want = dropout_scale(draws < 1.0 - drop_prob, drop_prob)
                    assert mask.tobytes() == want.tobytes()
        # A stacked call at different starts: each row is its own call's.
        for a, b in ((16, 32), (48, 32)):
            size = min(batch_size, counts[0] - a, counts[1] - b)
            pair = _step_masks(_take(kept, 0, [a, b], size), widths, drop_prob)
            alone = [
                _step_masks(kept[r : r + 1, s : s + size], widths, drop_prob)
                for r, s in ((0, a), (1, b))
            ]
            for layer, mask in enumerate(pair):
                assert mask.tobytes() == np.concatenate([m[layer] for m in alone]).tobytes()


@pytest.mark.parametrize("make", [ModelConfig.fed_kan, ModelConfig.fed_mlp], ids=["kan", "mlp"])
def test_no_dropout_leaves_every_generator_untouched(make):
    clients = uneven_clients()
    template = build_model(make(dropout_p=0.0), seed=7)
    rngs = [np.random.default_rng(i) for i in range(4)]
    before = [r.bit_generator.state for r in rngs]
    local_train(clients, template, export_weights(template), FAST_FED, rngs)
    assert [r.bit_generator.state for r in rngs] == before


def test_local_train_rejects_a_wrong_rng_count():
    clients = small_clients(1)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ContractViolationError):
        local_train(clients, template, export_weights(template), FAST_FED, rngs)


def test_non_finite_targets_name_their_client():
    clients = small_clients(3)
    poisoned = clients[1].train_targets.copy()
    poisoned[3, 0] = np.nan
    clients[1] = dataclasses.replace(clients[1], train_targets=poisoned)
    template = build_model(ModelConfig.fed_kan(), seed=5)
    rngs = [np.random.default_rng(i) for i in range(3)]
    with pytest.raises(NumericsError) as err:
        local_train(clients, template, export_weights(template), FAST_FED, rngs)
    message = str(err.value)
    assert clients[1].client_id in message
    assert clients[0].client_id not in message and clients[2].client_id not in message


def test_evaluate_global_zero_loss_on_matching_targets():
    cfg = ModelConfig.fed_mlp()
    template = build_model(cfg, seed=2)
    weights = export_weights(template)
    features = np.random.default_rng(0).random((6, 10))
    targets = forward(template, features)
    client = ClientState("solo", features, targets, features, targets)
    per_client, avg = evaluate_global(weights, [client], template)
    assert per_client["solo"] == 0.0
    assert avg == 0.0


def test_run_experiment_rounds_one_composes_run_round():
    profiles = default_profiles(2)
    beams = [generate_synthetic(3, 80, p) for p in profiles]
    cfg = ModelConfig.fed_kan()
    fed = dataclasses.replace(FAST_FED, rounds=1)
    clients = build_clients(beams, 5, 0.8)
    report = run_experiment(cfg, fed, clients)

    template = build_model(cfg, seed=fed.seed)
    weights = export_weights(template)
    manual_weights, manual_round = run_round(weights, clients, template, fed, 1)
    assert np.array_equal(report.final_weights, manual_weights)
    assert report.rounds == (manual_round,)
    assert report.final_avg_test_loss == manual_round.avg_test_loss


def test_run_experiment_is_deterministic():
    profiles = default_profiles(2)
    beams = [generate_synthetic(3, 80, p) for p in profiles]
    cfg = ModelConfig.fed_kan()
    a = run_experiment(cfg, FAST_FED, build_clients(beams, 5, 0.8))
    b = run_experiment(cfg, FAST_FED, build_clients(beams, 5, 0.8))
    assert a.rounds == b.rounds
    assert np.array_equal(a.final_weights, b.final_weights)
    assert a.dataset_digest == b.dataset_digest


def test_build_clients_lets_the_raw_series_go():
    # Given a list its caller does not keep, no series and none of its
    # arrays is alive once the clients are built: they hold copies.
    series: list[weakref.ref] = []

    def beams() -> list[BeamSeries]:
        made = [generate_synthetic(3, 80, p) for p in default_profiles(3)]
        series.extend(weakref.ref(x) for b in made for x in (b, b.hourly_volumes, b.hourly_shares))
        return made

    clients = build_clients(beams(), 5, 0.8)
    assert len(clients) == 3 and len(series) == 9
    assert sum(ref() is not None for ref in series) == 0


def test_run_experiment_layout_is_conserved():
    profiles = default_profiles(2)
    beams = [generate_synthetic(3, 80, p) for p in profiles]
    cfg = ModelConfig.fed_mlp()
    report = run_experiment(cfg, FAST_FED, build_clients(beams, 5, 0.8))
    template = build_model(cfg, seed=FAST_FED.seed)
    # The final weights are a read-only vector in the template's layout.
    assert report.final_weights.shape == template.weights.shape
    assert not report.final_weights.flags.writeable
    assert import_weights(template, report.final_weights).layout == template.layout


def test_run_experiment_rejects_mismatched_window():
    profiles = default_profiles(1)
    clients = build_clients([generate_synthetic(3, 80, p) for p in profiles], 5, 0.8)
    with pytest.raises(ConfigurationError):
        run_experiment(ModelConfig.fed_kan(), FAST_FED, clients, window_hours=4)


def test_build_clients_rejects_empty_and_duplicate_beam_ids():
    profile = default_profiles(1)[0]
    beams = [generate_synthetic(3, 80, profile), generate_synthetic(4, 80, profile)]
    with pytest.raises(ConfigurationError, match="duplicate beam ids"):
        build_clients(beams, 5, 0.8)
    with pytest.raises(ConfigurationError, match="at least one beam"):
        build_clients([], 5, 0.8)


def test_dataset_digest_tracks_content():
    clients_a = small_clients(2)
    clients_b = small_clients(2)
    assert dataset_digest(clients_a) == dataset_digest(clients_b)
    other = [build_client(generate_synthetic(4, 80, default_profiles(2)[0]), 5, 0.8)]
    assert dataset_digest(clients_a) != dataset_digest(other + clients_a[1:])


def test_dataset_digest_hashes_each_arrays_bytes_in_c_order():
    """The digest is the one built from ``tobytes`` copies, views included."""
    clients = small_clients(2)
    # A Fortran-order copy holds the same values: the digest must hash
    # their C-order bytes, as it does for every C-contiguous array.
    features = np.asfortranarray(clients[0].train_features)
    assert not features.flags.c_contiguous
    clients[0] = dataclasses.replace(clients[0], train_features=features)
    h = hashlib.sha256()
    for client in sorted(clients, key=lambda c: c.client_id):
        h.update(client.client_id.encode("utf-8"))
        for arr in (
            client.train_features,
            client.train_targets,
            client.test_features,
            client.test_targets,
        ):
            h.update(arr.tobytes())
    assert dataset_digest(clients) == h.hexdigest()
    assert dataset_digest(clients) == dataset_digest(small_clients(2))


# A fleet-shaped run (uneven beams, partial rounds, sample-weighted, one
# epoch) and a protocol-shaped one (equal beams, every client, several epochs).
SHARED_RUNS = {
    "fleet": (
        (80, 95, 120, 140, 100, 110),
        FederationConfig(
            rounds=3,
            local_epochs=1,
            batch_size=16,
            availability_prob=0.75,
            aggregation="sample_weighted",
            seed=5,
        ),
    ),
    "protocol": ((120,) * 4, FAST_FED),
}

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


@needs_fork
@pytest.mark.parametrize("make", [ModelConfig.fed_kan, ModelConfig.fed_mlp])
@pytest.mark.parametrize("shape", sorted(SHARED_RUNS))
def test_a_run_is_byte_identical_on_any_number_of_cpus(monkeypatch, shape, make):
    hours, fed = SHARED_RUNS[shape]
    beams = [generate_synthetic(3, h, p) for h, p in zip(hours, default_profiles(len(hours)))]
    shares = []
    map_ = Helpers.map

    def recording_map(self, items):
        shares.append(len(items))
        return map_(self, items)

    monkeypatch.setattr(Helpers, "map", recording_map)
    outputs = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda cpus=cpus: cpus)
        shares.clear()
        report = run_experiment(make(), fed, build_clients(beams, 5, 0.8))
        outputs.add((render_experiment_csv(report), report.final_weights.tobytes()))
        # Every process took a share of some round.
        assert max(shares, default=1) == cpus
        assert has_no_child()
    assert len(outputs) == 1


def poison_target(client: ClientState) -> ClientState:
    poisoned = client.train_targets.copy()
    poisoned[3, 0] = np.nan
    return dataclasses.replace(client, train_targets=poisoned)


def no_training_rows(client: ClientState) -> ClientState:
    return dataclasses.replace(
        client, train_features=client.train_features[:0], train_targets=client.train_targets[:0]
    )


@needs_fork
@pytest.mark.parametrize(
    "cpus, spoil, error, bad",
    [
        # Equal counts deal in client-id order: beam-02 goes to the helper.
        (2, poison_target, NumericsError, [1]),
        # Both shares fail, and this process's share is reported: beam-03.
        (2, poison_target, NumericsError, [1, 2]),
        # A client without training rows is dealt last: to the second helper.
        (3, no_training_rows, ConfigurationError, [0]),
    ],
)
def test_a_failed_share_raises_its_error_in_the_parent(monkeypatch, cpus, spoil, error, bad):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: cpus)
    clients = small_clients(3)
    for i in bad:
        clients[i] = spoil(clients[i])
    template = build_model(ModelConfig.fed_kan(), seed=5)
    with Helpers(clients, template, FAST_FED) as helpers:
        with pytest.raises(error) as err:
            run_round(export_weights(template), clients, template, FAST_FED, 1, helpers=helpers)
    assert has_no_child()
    named = [c.client_id for c in clients if c.client_id in str(err.value)]
    assert named == [clients[bad[-1]].client_id], str(err.value)


@needs_fork
def test_every_update_reaching_aggregate_is_read_only(monkeypatch):
    # A helper's updates arrive by pickle at protocol 5, which hands a
    # read-only array back read-only.
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    writeable = []
    aggregate = fedbeam.federation.aggregate

    def recording_aggregate(updates, *args):
        writeable.extend(u.weights.flags.writeable for u in updates)
        return aggregate(updates, *args)

    monkeypatch.setattr(fedbeam.federation, "aggregate", recording_aggregate)
    clients = small_clients(3)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    with Helpers(clients, template, FAST_FED) as helpers:
        run_round(export_weights(template), clients, template, FAST_FED, 1, helpers=helpers)
    assert has_no_child()
    assert writeable == [False] * 3


@needs_fork
def test_no_generator_crosses_a_pipe(monkeypatch):
    # A helper seeds its share's dropout generators itself from the round index.
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    sent = []
    dumps = fedbeam.pool._dumps

    def recording_dumps(obj):
        sent.append(dumps(obj))
        return sent[-1]

    monkeypatch.setattr(fedbeam.pool, "_dumps", recording_dumps)
    clients = small_clients(3)
    template = build_model(ModelConfig.fed_kan(), seed=5)
    with Helpers(clients, template, FAST_FED) as helpers:
        run_round(export_weights(template), clients, template, FAST_FED, 1, helpers=helpers)
    assert has_no_child()
    # The shares sent from this process: one to train, one to evaluate.
    assert len(sent) == 2 and not any(b"numpy.random" in data for data in sent)


@needs_fork
def test_a_report_keeps_its_weights_read_only_across_processes(monkeypatch):
    # compare's second model trains in a forked process, and its report
    # crosses a pipe, pickled at the highest protocol; from protocol 5 on a
    # pickle gives a read-only array back read-only.
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    clients = build_clients([generate_synthetic(3, 80, p) for p in default_profiles(2)], 5, 0.8)
    fed = dataclasses.replace(FAST_FED, rounds=1)
    reports = deal_experiments(
        lambda k, cpus: run_experiment(ModelConfig.fed_mlp(), fed, clients, cpus=cpus), 2
    )
    assert has_no_child()
    assert reports[0].final_weights.tobytes() == reports[1].final_weights.tobytes()
    reports.append(pickle.loads(pickle.dumps(reports[0], pickle.HIGHEST_PROTOCOL)))
    assert [r.final_weights.flags.writeable for r in reports] == [False] * len(reports)


@pytest.mark.parametrize(
    "make",
    [
        lambda: BeamSeries("b", np.zeros((3, 2)), np.full((3, 4), 0.25)),
        lambda: Scaler(np.zeros(2), np.ones(2)),
        lambda: small_clients(1)[0],
        lambda: ExperimentReport(ModelConfig.fed_mlp(), FAST_FED, {}, "d", (), 0.5, np.zeros(3)),
        lambda: build_model(ModelConfig.fed_kan(), 0),
    ],
    ids=["BeamSeries", "Scaler", "ClientState", "ExperimentReport", "Model"],
)
def test_types_holding_arrays_compare_and_hash_by_identity(make):
    # Field-by-field equality would ask NumPy for the truth of an array.
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2


@needs_fork
def test_no_helper_outlives_a_run_that_fails(monkeypatch):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 3)
    spoiled = fedbeam.federation.build_client

    def build_client_poisoned(series, *args):
        client = spoiled(series, *args)
        return poison_target(client) if series.beam_id == "beam-03" else client

    monkeypatch.setattr(fedbeam.federation, "build_client", build_client_poisoned)
    beams = [generate_synthetic(3, 80, p) for p in default_profiles(3)]
    with pytest.raises(NumericsError, match="'beam-03'"):
        run_experiment(ModelConfig.fed_mlp(), FAST_FED, build_clients(beams, 5, 0.8))
    assert has_no_child()


@needs_fork
def test_a_helper_that_died_is_an_os_error(monkeypatch):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    clients = small_clients(2)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    weights = export_weights(template)
    with Helpers(clients, template, FAST_FED) as helpers:
        run_round(weights, clients, template, FAST_FED, 1, helpers=helpers)
        [worker] = helpers._workers
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(OSError):
            run_round(weights, clients, template, FAST_FED, 2, helpers=helpers)
    assert has_no_child()


@needs_fork
def test_a_round_with_one_participant_trains_here_and_deals_its_evaluation(
    monkeypatch, tmp_path
):
    # Every share logs the process that runs it and what it does.
    log = tmp_path / "shares.log"

    def log_calls(name):
        work = getattr(fedbeam.federation, name)

        def logged(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{name} {os.getpid()}\n")
            return work(*args)

        monkeypatch.setattr(fedbeam.federation, name, logged)

    log_calls("local_train")
    log_calls("evaluate_global")
    clients = small_clients(2)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    weights = export_weights(template)
    # At availability 0.5, seed 5 draws one client in round 1.
    fed = dataclasses.replace(FAST_FED, availability_prob=0.5)
    rounds = []
    for cpus in (1, 2):
        monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda cpus=cpus: cpus)
        log.unlink(missing_ok=True)
        with Helpers(clients, template, fed) as helpers:
            new_weights, report = run_round(weights, clients, template, fed, 1, helpers=helpers)
            assert len(report.participants) == 1
            assert has_no_child() == (cpus == 1)
        assert has_no_child()
        rounds.append((new_weights.tobytes(), repr(report)))
        pids = {"local_train": set(), "evaluate_global": set()}
        for line in log.read_text(encoding="utf-8").splitlines():
            name, pid = line.split()
            pids[name].add(int(pid))
        assert pids["local_train"] == {os.getpid()}
        assert len(pids["evaluate_global"]) == cpus and os.getpid() in pids["evaluate_global"]
    assert rounds[0] == rounds[1]


@needs_fork
def test_a_helper_ignores_interrupts_and_exits_quietly_at_end_of_file(monkeypatch, capfd):
    monkeypatch.setattr(fedbeam.federation, "_usable_cpus", lambda: 2)
    clients = small_clients(2)
    template = build_model(ModelConfig.fed_mlp(), seed=5)
    statuses = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    with Helpers(clients, template, FAST_FED) as helpers:
        # After one answered round the helper is in its loop.
        run_round(export_weights(template), clients, template, FAST_FED, 1, helpers=helpers)
        [worker] = helpers._workers
        os.kill(worker.pid, signal.SIGINT)
        time.sleep(0.5)
        assert os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        monkeypatch.setattr(os, "waitpid", recording_waitpid)
    # Closing this process's ends is what ends the helper.
    assert statuses == [0]
    monkeypatch.undo()
    assert has_no_child()
    assert capfd.readouterr() == ("", "")
