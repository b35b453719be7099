"""Architecture assembly, parameter counting, and weight round-trips."""

import dataclasses

import numpy as np
import pytest

from fedbeam.errors import ConfigurationError, ContractViolationError
from fedbeam.layers import (
    KanLayerParams,
    LinearLayerParams,
    kan_layer_forward,
    kan_plane,
    linear_forward,
    relu,
)
from fedbeam.model import (
    ModelConfig,
    build_model,
    count_parameters,
    dropout_widths,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    layer_plan,
    model_backward,
    with_weights,
)
from fedbeam.optim import mse_loss

from gradcheck import finite_difference_gradient, stacked_finite_difference_gradient
from helpers import dropout_scale


def test_fed_mlp_plan_is_four_linear_layers():
    config = ModelConfig.fed_mlp()
    assert layer_plan(config) == [
        ("linear", 10, 8),
        ("linear", 8, 16),
        ("linear", 16, 48),
        ("linear", 48, 4),
    ]
    # ReLU + dropout after each hidden layer, plain final readout.
    assert dropout_widths(build_model(config, seed=0)) == [8, 16, 48]


def test_fed_kan_plan_chains_widths():
    config = ModelConfig.fed_kan()
    plan = layer_plan(config)
    kinds = [kind for kind, _, _ in plan]
    assert kinds == ["kan", "kan", "kan", "linear", "linear"]
    widths = [(a, b) for _, a, b in plan]
    assert widths == [(10, 2), (2, 4), (4, 8), (8, 8), (8, 4)]
    # Head: FC1 carries ReLU and dropout, the output layer is plain, with
    # or without spline layers before it.
    assert dropout_widths(build_model(config, seed=0)) == [8]
    head_only = ModelConfig.fed_kan(kan_hidden_widths=())
    assert dropout_widths(build_model(head_only, seed=0)) == [8]


def test_count_parameters_fed_mlp_is_1244():
    assert count_parameters(ModelConfig.fed_mlp()) == 88 + 144 + 816 + 196 == 1244


def test_count_parameters_fed_kan_formula():
    cfg = ModelConfig.fed_kan()
    edges = 10 * 2 + 2 * 4 + 4 * 8
    per_edge = cfg.grid_intervals + cfg.spline_order + 1
    fc = (8 * 8 + 8) + (8 * 4 + 4)
    assert count_parameters(cfg) == edges * per_edge + fc == 648


def test_count_parameters_degenerate_kan_is_44():
    cfg = ModelConfig.fed_kan(kan_hidden_widths=(), fc_head_widths=())
    assert count_parameters(cfg) == 44


def test_export_length_equals_count():
    for cfg in (
        ModelConfig.fed_kan(),
        ModelConfig.fed_mlp(),
        ModelConfig.fed_kan(kan_hidden_widths=(3,), fc_head_widths=(4,)),
        ModelConfig.fed_mlp(mlp_hidden_widths=(5, 6)),
    ):
        model = build_model(cfg, seed=2)
        assert export_weights(model).shape == (count_parameters(cfg),)


def test_build_is_deterministic():
    cfg = ModelConfig.fed_kan()
    first, second = build_model(cfg, seed=9), build_model(cfg, seed=9)
    assert first.layout == second.layout
    a, b = export_weights(first), export_weights(second)
    assert np.array_equal(a, b)
    c = export_weights(build_model(cfg, seed=10))
    assert not np.array_equal(a, c)


def test_validate_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        ModelConfig(kind="transformer")
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_kan(fc_head_widths=(8, 5))
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_mlp(dropout_p=1.0)
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_mlp(mlp_hidden_widths=(0,))
    with pytest.raises(ConfigurationError, match="dropout_p"):
        dataclasses.replace(ModelConfig.fed_kan(), dropout_p=1.0)
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict({"kind": "fed_kan", "flux": 1})
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict({})


def test_config_dict_round_trip():
    cfg = ModelConfig.fed_kan()
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_fed_kan_blocks_have_no_dropout_on_kan_layers():
    model = build_model(ModelConfig.fed_kan(), seed=0)
    kan_blocks = [b for b in model.blocks if isinstance(b, KanLayerParams)]
    linear_blocks = [b for b in model.blocks if isinstance(b, LinearLayerParams)]
    assert len(kan_blocks) == 3 and len(linear_blocks) == 2
    # Only the head's first layer, 8 wide, takes dropout.
    assert dropout_widths(model) == [linear_blocks[0].out_width] == [8]


def test_forward_eval_is_deterministic():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    batch = np.random.default_rng(0).random((7, 10))
    a = forward(model, batch)
    b = forward(model, batch)
    assert np.array_equal(a, b)
    assert a.shape == (7, 4)


def draw_masks(rng, lead, widths, drop_prob):
    """One step's dropout masks, drawn one layer at a time."""
    return [dropout_scale(rng.random((*lead, w)) < 1.0 - drop_prob, drop_prob) for w in widths]


def test_forward_train_replays_with_seeded_rng():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    batch = np.random.default_rng(1).random((5, 10))
    widths, p = dropout_widths(model), model.config.dropout_p
    a, _ = forward_with_caches(model, batch, draw_masks(np.random.default_rng(77), (5,), widths, p))
    b, _ = forward_with_caches(model, batch, draw_masks(np.random.default_rng(77), (5,), widths, p))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, forward(model, batch))


def layers_in_turn(model, batch, masks):
    """The blocks applied one after another: ReLU and a mask after every
    affine block but the last."""
    masks = iter(masks)
    x = batch
    for i, block in enumerate(model.blocks):
        if isinstance(block, KanLayerParams):
            x, _ = kan_layer_forward(x, block)
        else:
            x, _ = linear_forward(x, block)
            if i < len(model.blocks) - 1:
                x, _ = relu(x, next(masks))
    return x


@pytest.mark.parametrize("mode", ["eval", "train"])
@pytest.mark.parametrize("config", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()])
def test_forward_is_bitwise_forward_with_caches(config, mode):
    # Eval: the evaluation pass is the caching pass given no masks.  Train:
    # the caching pass applies the masks it is given, one per dropout layer.
    model = build_model(config, seed=4)
    stacked = import_weights(model, export_weights(model), copies=3)
    batch = np.random.default_rng(2).uniform(-1.5, 1.5, (3, 9, 10))
    widths = dropout_widths(model)
    for m, x in ((model, batch[0]), (stacked, batch)):
        if mode == "eval":
            out = forward(m, x)
            cached, caches = forward_with_caches(m, x)
        else:
            masks = draw_masks(np.random.default_rng(77), x.shape[:-1], widths, config.dropout_p)
            out = layers_in_turn(m, x, masks)
            cached, caches = forward_with_caches(m, x, masks)
        assert out.tobytes() == cached.tobytes()
        # Only the spline layers after the first cache basis derivatives,
        # and the backward pass returns no gradient for the batch.
        kan = [caches[i][1] is None for i, spline, _ in m.plan if spline]
        assert kan == ([True, False, False] if config.kind == "fed_kan" else [])
        grads = with_weights(m, np.empty_like(m.weights))
        assert model_backward(m, caches, np.ones_like(cached), grads) is None


def test_model_backward_rejects_a_gradient_model_of_another_layout():
    # Two configs of 632 parameters each, laid out differently.
    model = build_model(ModelConfig.fed_kan(kan_hidden_widths=(4, 2, 8), fc_head_widths=(4, 4)), 4)
    other = build_model(ModelConfig.fed_kan(kan_hidden_widths=(2, 8, 4), fc_head_widths=(4,)), 4)
    assert model.weights.shape == other.weights.shape == (632,)
    stacked = import_weights(model, export_weights(model), copies=3)
    batch = np.random.default_rng(2).random((3, 5, 10))
    out, caches = forward_with_caches(stacked, batch)
    upstream = np.ones_like(out)
    for grads in (
        with_weights(other, np.empty((3, other.weights.shape[-1]))),  # another config
        with_weights(model, np.empty((2, model.weights.shape[-1]))),  # another row count
        with_weights(model, np.empty(model.weights.shape)),  # one model for a stack
    ):
        with pytest.raises(ContractViolationError, match="gradient model"):
            model_backward(stacked, caches, upstream, grads)
    matching = with_weights(stacked, np.empty_like(stacked.weights))
    model_backward(stacked, caches, upstream, matching)


def test_forward_with_caches_rejects_masks_that_do_not_fit():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    batch = np.zeros((5, 10))
    masks = draw_masks(np.random.default_rng(0), (5,), dropout_widths(model), 0.5)
    with pytest.raises(ContractViolationError, match="2 dropout masks for 3 dropout layers"):
        forward_with_caches(model, batch, masks[:2])
    masks[1] = masks[1][:4]
    with pytest.raises(ContractViolationError, match=r"dropout mask of shape \(4, 16\)"):
        forward_with_caches(model, batch, masks)


def test_rows_of_a_prebuilt_input_plane_stand_in_for_feature_rows():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = import_weights(model, export_weights(model), copies=3)
    features = np.random.default_rng(2).uniform(-1.5, 1.5, (40, 10))
    plane = kan_plane(features, model.blocks[0].grid)[0]
    slots = model.config.grid_intervals + model.config.spline_order + 1
    assert plane.shape == (40, 10 * slots)
    # Batches gathered from one plane built over all rows, against batches
    # whose plane is built from their own feature rows.
    picks = np.array([[3, 4, 5, 6], [0, 1, 2, 3], [36, 37, 38, 39]])
    masks = draw_masks(np.random.default_rng(77), picks.shape, dropout_widths(model), 0.5)
    out, caches = forward_with_caches(stacked, features[picks], masks)
    planned_out, planned_caches = forward_with_caches(stacked, plane[picks], masks)
    assert planned_out.tobytes() == out.tobytes()
    assert planned_caches[0][0].tobytes() == caches[0][0].tobytes()
    grads = np.empty((2, *stacked.weights.shape))
    upstream = np.ones_like(out)
    model_backward(stacked, caches, upstream, with_weights(stacked, grads[0]))
    model_backward(stacked, planned_caches, upstream, with_weights(stacked, grads[1]))
    assert grads[0].tobytes() == grads[1].tobytes()


def test_only_a_spline_first_block_takes_a_plane_of_its_width():
    kan = build_model(ModelConfig.fed_kan(), seed=4)
    mlp = build_model(ModelConfig.fed_mlp(), seed=4)
    features = np.random.default_rng(2).random((5, 10))
    plane = kan_plane(features, kan.blocks[0].grid)[0]
    with pytest.raises(ContractViolationError):
        forward_with_caches(mlp, plane)
    with pytest.raises(ContractViolationError):
        forward_with_caches(kan, plane[:, :-1])


@pytest.mark.parametrize("seed", [0, 4, 12])
def test_spline_blocks_place_the_initial_draws_in_their_slots(seed):
    # Replays the draw order: per spline layer its coefficients (in, out, m)
    # and then its base weights (in, out), then the head's weights.
    config = ModelConfig.fed_kan()
    model = build_model(config, seed)
    rng = np.random.default_rng(seed)
    m = config.grid_intervals + config.spline_order
    widths = [config.input_width, *config.kan_hidden_widths]
    blocks = iter(model.blocks)
    for a, b in zip(widths[:-1], widths[1:]):
        coeffs = rng.uniform(-0.1, 0.1, size=(a, b, m)) / np.sqrt(a)
        bound = np.sqrt(6.0 / a)
        base = rng.uniform(-bound, bound, size=(a, b))
        weights = next(blocks).weights
        assert weights.shape == (a, m + 1, b)
        assert weights[:, 0].tobytes() == base.tobytes()
        assert weights[:, 1:].tobytes() == coeffs.swapaxes(-1, -2).tobytes()
    head_in = widths[-1]
    for width in config.fc_head_widths:
        bound = np.sqrt(6.0 / head_in)
        params = next(blocks)
        assert params.weights.tobytes() == rng.uniform(-bound, bound, (width, head_in)).tobytes()
        assert not params.biases.any()
        head_in = width
    assert next(blocks, None) is None


def test_forward_rejects_bad_batch_width():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    with pytest.raises(ContractViolationError):
        forward(model, np.zeros((2, 9)))


def test_stacked_copies_run_a_stack_of_batches():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = import_weights(model, export_weights(model), copies=2)
    assert stacked.weights.shape == (2, model.weights.shape[0])
    batch = np.random.default_rng(1).random((5, 10))
    with pytest.raises(ContractViolationError):
        forward(stacked, batch)
    with pytest.raises(ContractViolationError):
        forward(model, np.stack([batch, batch]))
    out = forward(stacked, np.stack([batch, batch]))
    expected = forward(model, batch)
    assert np.array_equal(out[0], expected) and np.array_equal(out[1], expected)


def test_zeroed_final_layer_gives_zero_outputs():
    model = build_model(ModelConfig.fed_mlp(), seed=3)
    zeroed = import_weights(model, export_weights(model))
    readout = zeroed.blocks[-1]
    readout.weights[...] = 0.0
    readout.biases[...] = 0.0
    out = forward(zeroed, np.random.default_rng(0).random((3, 10)))
    assert np.array_equal(out, np.zeros((3, 4)))


def test_import_export_round_trip_is_bitwise():
    model = build_model(ModelConfig.fed_kan(), seed=12)
    vec = export_weights(model)
    again = export_weights(import_weights(model, vec))
    assert again.shape == vec.shape
    assert np.array_equal(vec, again)
    batch = np.random.default_rng(2).random((4, 10))
    assert np.array_equal(
        forward(model, batch),
        forward(import_weights(model, vec), batch),
    )


def test_vector_owns_a_read_only_buffer():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    flat = export_weights(model)
    assert flat.dtype == np.float64 and flat.shape == model.weights.shape
    assert not flat.flags.writeable
    assert not np.shares_memory(flat, model.weights)
    before = flat.copy()
    model.weights[...] = 0.0
    assert np.array_equal(flat, before)


def test_import_copies_the_vector_buffer():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    vec = export_weights(model)
    for imported in (import_weights(model, vec), import_weights(model, vec, copies=3)):
        assert imported.weights.flags.writeable
        assert not np.shares_memory(imported.weights, vec)
        imported.weights[...] = 1.0
    assert np.array_equal(vec, model.weights)


def test_with_weights_reuses_the_blocks_plan():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = with_weights(model, np.tile(model.weights, (2, 1)))
    assert stacked.layout is model.layout
    for block, again in zip(model.blocks, stacked.blocks):
        assert type(block) is type(again)
        if isinstance(block, KanLayerParams):
            assert again.grid is block.grid
    assert dropout_widths(stacked) == dropout_widths(model) == [8]
    with pytest.raises(ContractViolationError):
        with_weights(model, model.weights[:-1])


@pytest.mark.parametrize("config", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()])
def test_stacked_differences_match_the_serial_helper(config):
    template = build_model(config, seed=3)
    rng = np.random.default_rng(7)
    batch = rng.random((2, config.input_width))
    targets = rng.random((2, config.output_width))

    def serial_loss(flat):
        model = import_weights(template, flat)
        value, _ = mse_loss(forward(model, batch), targets)
        return value

    def stacked_loss(rows):
        model = with_weights(template, rows)
        preds = forward(model, np.broadcast_to(batch, (len(rows), *batch.shape)))
        values, _ = mse_loss(preds, np.broadcast_to(targets, preds.shape))
        return values

    serial = finite_difference_gradient(serial_loss, template.weights)
    stacked = stacked_finite_difference_gradient(stacked_loss, template.weights)
    assert stacked.tobytes() == serial.tobytes()


def test_from_flat_rejects_wrong_length():
    model = build_model(ModelConfig.fed_mlp(), seed=8)
    vec = export_weights(model)
    for flat in (np.zeros(vec.size + 1), vec[:-1], vec[None]):
        with pytest.raises(ContractViolationError, match="do not fit a model of 1244"):
            import_weights(model, flat)
        with pytest.raises(ContractViolationError):
            import_weights(model, flat, copies=2)


def test_degenerate_fed_kan_is_single_linear():
    cfg = ModelConfig.fed_kan(kan_hidden_widths=(), fc_head_widths=())
    model = build_model(cfg, seed=1)
    assert len(model.blocks) == 1
    assert isinstance(model.blocks[0], LinearLayerParams)
    assert dropout_widths(model) == []
    out = forward(model, np.zeros((2, 10)))
    assert out.shape == (2, 4)


def test_config_is_frozen():
    cfg = ModelConfig.fed_kan()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.kind = "fed_mlp"
