"""Architecture assembly, parameter counting, and weight round-trips."""

import dataclasses

import numpy as np
import pytest

from fedbeam.errors import (
    ConfigurationError,
    ContractViolationError,
    IncompatibleWeightsError,
)
from fedbeam.gradcheck import finite_difference_gradient, stacked_finite_difference_gradient
from fedbeam.layers import MODE_EVAL, MODE_TRAIN
from fedbeam.model import (
    KanBlock,
    LinearBlock,
    ModelConfig,
    build_model,
    count_parameters,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    input_plane,
    layer_plan,
    model_backward,
    segment_views,
    with_weights,
)
from fedbeam.optim import mse_loss
from fedbeam.params import ParameterVector


def test_fed_mlp_plan_is_four_linear_layers():
    plan = layer_plan(ModelConfig.fed_mlp())
    assert [entry[0] for entry in plan] == ["linear"] * 4
    assert [(entry[1], entry[2]) for entry in plan] == [(10, 8), (8, 16), (16, 48), (48, 4)]
    # ReLU + dropout after each hidden layer, plain final readout.
    assert [entry[3] for entry in plan] == [True, True, True, False]
    assert [entry[4] for entry in plan] == [True, True, True, False]


def test_fed_kan_plan_chains_widths():
    plan = layer_plan(ModelConfig.fed_kan())
    kinds = [entry[0] for entry in plan]
    assert kinds == ["kan", "kan", "kan", "linear", "linear"]
    widths = [(entry[1], entry[2]) for entry in plan]
    assert widths == [(10, 2), (2, 4), (4, 8), (8, 8), (8, 4)]
    # Head: FC1 carries ReLU and dropout, the output layer is plain.
    assert plan[3][3] and plan[3][4]
    assert not plan[4][3] and not plan[4][4]


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
        assert export_weights(model).to_flat().size == count_parameters(cfg)


def test_build_is_deterministic():
    cfg = ModelConfig.fed_kan()
    a = export_weights(build_model(cfg, seed=9))
    b = export_weights(build_model(cfg, seed=9))
    assert a.layout() == b.layout()
    assert np.array_equal(a.to_flat(), b.to_flat())
    c = export_weights(build_model(cfg, seed=10))
    assert not np.array_equal(a.to_flat(), c.to_flat())


def test_validate_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        ModelConfig(kind="transformer").validate()
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_kan(fc_head_widths=(8, 5)).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_mlp(dropout_p=1.0).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig.fed_mlp(mlp_hidden_widths=(0,)).validate()
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict({"kind": "fed_kan", "flux": 1})
    with pytest.raises(ConfigurationError):
        ModelConfig.from_dict({})


def test_config_dict_round_trip_and_hash():
    cfg = ModelConfig.fed_kan()
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    assert ModelConfig.fed_mlp().config_hash() != cfg.config_hash()


def test_fed_kan_blocks_have_no_dropout_on_kan_layers():
    model = build_model(ModelConfig.fed_kan(), seed=0)
    kan_blocks = [b for b in model.blocks if isinstance(b, KanBlock)]
    linear_blocks = [b for b in model.blocks if isinstance(b, LinearBlock)]
    assert len(kan_blocks) == 3 and len(linear_blocks) == 2
    assert linear_blocks[0].apply_dropout and not linear_blocks[1].apply_dropout


def test_forward_eval_is_deterministic():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    batch = np.random.default_rng(0).random((7, 10))
    a = forward(model, batch, MODE_EVAL)
    b = forward(model, batch, MODE_EVAL)
    assert np.array_equal(a, b)
    assert a.shape == (7, 4)


def test_forward_train_replays_with_seeded_rng():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    batch = np.random.default_rng(1).random((5, 10))
    a = forward(model, batch, MODE_TRAIN, np.random.default_rng(77))
    b = forward(model, batch, MODE_TRAIN, np.random.default_rng(77))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", [MODE_EVAL, MODE_TRAIN])
@pytest.mark.parametrize("config", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()])
def test_forward_is_bitwise_forward_with_caches(config, mode):
    model = build_model(config, seed=4)
    stacked = import_weights(model, export_weights(model), copies=3)
    batch = np.random.default_rng(2).uniform(-1.5, 1.5, (3, 9, 10))
    def one():
        return np.random.default_rng(77)

    def per_row():
        return [np.random.default_rng(s) for s in (77, 78, 79)]

    for m, x, rngs in ((model, batch[0], one), (stacked, batch, per_row)):
        out = forward(m, x, mode, rngs())
        cached, caches = forward_with_caches(m, x, mode, rngs())
        assert out.tobytes() == cached.tobytes()
        # Only the spline layers after the first cache basis derivatives,
        # and the backward pass returns no gradient for the batch.
        kan = [c["layer"]["dplane"] is None for c in caches if c["kind"] == "kan"]
        assert kan == ([True, False, False] if config.kind == "fed_kan" else [])
        grads = segment_views(m.layout, np.empty_like(m.weights))
        assert model_backward(m, caches, np.ones_like(cached), grads) is None


def test_rows_of_a_prebuilt_input_plane_stand_in_for_feature_rows():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = import_weights(model, export_weights(model), copies=3)
    features = np.random.default_rng(2).uniform(-1.5, 1.5, (40, 10))
    plane = input_plane(model, features)
    slots = model.config.grid_intervals + model.config.spline_order + 1
    assert plane.shape == (40, 10 * slots)
    # Batches gathered from one plane built over all rows, against batches
    # whose plane is built from their own feature rows.
    picks = np.array([[3, 4, 5, 6], [0, 1, 2, 3], [36, 37, 38, 39]])
    rngs = [np.random.default_rng(s) for s in (77, 78, 79)]
    out, caches = forward_with_caches(stacked, features[picks], MODE_TRAIN, rngs)
    rngs = [np.random.default_rng(s) for s in (77, 78, 79)]
    planned_out, planned_caches = forward_with_caches(stacked, plane[picks], MODE_TRAIN, rngs, True)
    assert planned_out.tobytes() == out.tobytes()
    assert planned_caches[0]["layer"]["plane"].tobytes() == caches[0]["layer"]["plane"].tobytes()
    grads = np.empty((2, *stacked.weights.shape))
    upstream = np.ones_like(out)
    model_backward(stacked, caches, upstream, segment_views(stacked.layout, grads[0]))
    model_backward(stacked, planned_caches, upstream, segment_views(stacked.layout, grads[1]))
    assert grads[0].tobytes() == grads[1].tobytes()


def test_only_a_spline_first_block_takes_a_plane_of_its_width():
    kan = build_model(ModelConfig.fed_kan(), seed=4)
    mlp = build_model(ModelConfig.fed_mlp(), seed=4)
    features = np.random.default_rng(2).random((5, 10))
    with pytest.raises(ContractViolationError):
        input_plane(mlp, features)
    with pytest.raises(ContractViolationError):
        forward_with_caches(mlp, features, MODE_EVAL, None, True)
    with pytest.raises(ContractViolationError):
        forward_with_caches(kan, features, MODE_EVAL, None, True)
    with pytest.raises(ContractViolationError):
        forward_with_caches(kan, input_plane(kan, features)[:, :-1], MODE_EVAL, None, True)


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
        weights = next(blocks).params.weights
        assert weights.shape == (a, m + 1, b)
        assert weights[:, 0].tobytes() == base.tobytes()
        assert weights[:, 1:].tobytes() == coeffs.swapaxes(-1, -2).tobytes()
    head_in = widths[-1]
    for width in config.fc_head_widths:
        bound = np.sqrt(6.0 / head_in)
        params = next(blocks).params
        assert params.weights.tobytes() == rng.uniform(-bound, bound, (width, head_in)).tobytes()
        assert not params.biases.any()
        head_in = width
    assert next(blocks, None) is None


def test_forward_train_requires_rng_when_dropout_active():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    batch = np.zeros((2, 10))
    with pytest.raises(ContractViolationError):
        forward(model, batch, MODE_TRAIN)


def test_forward_rejects_bad_batch_width():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    with pytest.raises(ContractViolationError):
        forward(model, np.zeros((2, 9)), MODE_EVAL)


def test_stacked_copies_run_a_stack_of_batches():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = import_weights(model, export_weights(model), copies=2)
    assert stacked.weights.shape == (2, model.weights.shape[0])
    batch = np.random.default_rng(1).random((5, 10))
    with pytest.raises(ContractViolationError):
        forward(stacked, batch, MODE_EVAL)
    with pytest.raises(ContractViolationError):
        forward(model, np.stack([batch, batch]), MODE_EVAL)
    out = forward(stacked, np.stack([batch, batch]), MODE_EVAL)
    expected = forward(model, batch, MODE_EVAL)
    assert np.array_equal(out[0], expected) and np.array_equal(out[1], expected)


def test_zeroed_final_layer_gives_zero_outputs():
    model = build_model(ModelConfig.fed_mlp(), seed=3)
    vec = export_weights(model)
    flat = vec.to_flat().copy()
    for (name, _), view in zip(vec.layout(), segment_views(vec.layout(), flat)):
        if name.startswith("layer03."):
            view[...] = 0.0
    zeroed = import_weights(model, ParameterVector.from_flat(vec.layout(), flat))
    out = forward(zeroed, np.random.default_rng(0).random((3, 10)), MODE_EVAL)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_import_export_round_trip_is_bitwise():
    model = build_model(ModelConfig.fed_kan(), seed=12)
    vec = export_weights(model)
    again = export_weights(import_weights(model, vec))
    assert vec.layout() == again.layout()
    assert np.array_equal(vec.to_flat(), again.to_flat())
    batch = np.random.default_rng(2).random((4, 10))
    assert np.array_equal(
        forward(model, batch, MODE_EVAL),
        forward(import_weights(model, vec), batch, MODE_EVAL),
    )


def test_vector_owns_a_read_only_buffer():
    model = build_model(ModelConfig.fed_mlp(), seed=4)
    vec = export_weights(model)
    flat = vec.to_flat()
    assert flat is vec.to_flat()
    assert not flat.flags.writeable
    assert not np.shares_memory(flat, model.weights)
    before = flat.copy()
    model.weights[...] = 0.0
    assert np.array_equal(vec.to_flat(), before)


def test_import_copies_the_vector_buffer():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    vec = export_weights(model)
    for imported in (import_weights(model, vec), import_weights(model, vec, copies=3)):
        assert imported.weights.flags.writeable
        assert not np.shares_memory(imported.weights, vec.to_flat())
        imported.weights[...] = 1.0
    assert np.array_equal(vec.to_flat(), model.weights)


def test_with_weights_reuses_the_blocks_plan():
    model = build_model(ModelConfig.fed_kan(), seed=4)
    stacked = with_weights(model, np.tile(model.weights, (2, 1)))
    assert stacked.layout is model.layout
    for block, again in zip(model.blocks, stacked.blocks):
        assert type(block) is type(again)
        if isinstance(block, KanBlock):
            assert again.params.grid is block.params.grid
        else:
            assert again.apply_relu == block.apply_relu
            assert again.apply_dropout == block.apply_dropout
    with pytest.raises(ContractViolationError):
        with_weights(model, model.weights[:-1])


@pytest.mark.parametrize("config", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()])
def test_stacked_differences_match_the_serial_helper(config):
    template = build_model(config, seed=3)
    rng = np.random.default_rng(7)
    batch = rng.random((2, config.input_width))
    targets = rng.random((2, config.output_width))

    def serial_loss(flat):
        vector = ParameterVector.from_flat(template.layout, flat)
        model = import_weights(template, vector)
        value, _ = mse_loss(forward(model, batch, MODE_EVAL), targets)
        return value

    def stacked_loss(rows):
        model = with_weights(template, rows)
        preds = forward(model, np.broadcast_to(batch, (len(rows), *batch.shape)), MODE_EVAL)
        values, _ = mse_loss(preds, np.broadcast_to(targets, preds.shape))
        return values

    serial = finite_difference_gradient(serial_loss, template.weights)
    stacked = stacked_finite_difference_gradient(stacked_loss, template.weights)
    assert stacked.tobytes() == serial.tobytes()


def test_import_rejects_renamed_segment():
    model = build_model(ModelConfig.fed_kan(), seed=12)
    vec = export_weights(model)
    layout = list(vec.layout())
    layout[0] = ("layer00.mystery", layout[0][1])
    with pytest.raises(IncompatibleWeightsError) as err:
        import_weights(model, ParameterVector.from_flat(tuple(layout), vec.to_flat()))
    assert "layer00.mystery" in str(err.value)
    assert "layer00.weights" in str(err.value)


def test_from_flat_rejects_wrong_length():
    model = build_model(ModelConfig.fed_mlp(), seed=8)
    vec = export_weights(model)
    with pytest.raises(IncompatibleWeightsError):
        ParameterVector.from_flat(vec.layout(), np.zeros(vec.to_flat().size + 1))


def test_degenerate_fed_kan_is_single_linear():
    cfg = ModelConfig.fed_kan(kan_hidden_widths=(), fc_head_widths=())
    model = build_model(cfg, seed=1)
    assert len(model.blocks) == 1
    assert isinstance(model.blocks[0], LinearBlock)
    out = forward(model, np.zeros((2, 10)), MODE_EVAL)
    assert out.shape == (2, 4)


def test_config_is_frozen():
    cfg = ModelConfig.fed_kan()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.kind = "fed_mlp"
