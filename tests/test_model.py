"""Architecture assembly, parameter counting, and weight round-trips."""

import dataclasses

import numpy as np
import pytest

from fedbeam.errors import (
    ConfigurationError,
    ContractViolationError,
    IncompatibleWeightsError,
)
from fedbeam.layers import MODE_EVAL, MODE_TRAIN
from fedbeam.model import (
    KanBlock,
    LinearBlock,
    ModelConfig,
    build_model,
    count_parameters,
    export_weights,
    forward,
    import_weights,
    layer_plan,
)
from fedbeam.params import ParameterVector, Segment


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
        assert export_weights(model).total_len == count_parameters(cfg)


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
    segments = list(vec.segments)
    for i, seg in enumerate(segments):
        if seg.name.startswith("layer03."):
            segments[i] = Segment(seg.name, seg.shape, np.zeros_like(seg.values))
    zeroed = import_weights(model, ParameterVector(tuple(segments)))
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


def test_import_rejects_renamed_segment():
    model = build_model(ModelConfig.fed_kan(), seed=12)
    vec = export_weights(model)
    segments = list(vec.segments)
    segments[0] = Segment("layer00.mystery", segments[0].shape, segments[0].values)
    with pytest.raises(IncompatibleWeightsError) as err:
        import_weights(model, ParameterVector(tuple(segments)))
    assert "layer00.mystery" in str(err.value)
    assert "layer00.spline_coeffs" in str(err.value)


def test_from_flat_rejects_wrong_length():
    model = build_model(ModelConfig.fed_mlp(), seed=8)
    vec = export_weights(model)
    with pytest.raises(IncompatibleWeightsError):
        ParameterVector.from_flat(vec.layout(), np.zeros(vec.total_len + 1))


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
