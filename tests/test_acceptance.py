"""Acceptance gate.

Each criterion is tagged with @pytest.mark.acceptance and summarized as one
[ACCEPTANCE] line at the end of the run (see conftest).  Tolerances are
pinned here and nowhere else.

Criterion 1 note: the fed_mlp count is exact (1244) and the fed_kan count
must match the documented per-edge formula exactly; the additional budget
parity clause (fed_kan within +/-10% of 1244) is asserted as written even
though the documented convention yields 648, so that sub-check fails and is
visibly recorded rather than papered over.
"""

import hashlib
import json

import numpy as np
import pytest

from fedbeam.cli import EXIT_OK, main
from fedbeam.data import (
    Scaler,
    default_profiles,
    generate_synthetic,
    train_count,
    window_arrays,
)
from fedbeam.federation import (
    ClientUpdate,
    FederationConfig,
    aggregate,
    build_client,
    run_experiment,
)
from fedbeam.gradcheck import finite_difference_gradient, stacked_finite_difference_gradient
from fedbeam.layers import (
    KanLayerParams,
    LinearLayerParams,
    kan_layer_backward,
    kan_layer_forward,
    linear_backward,
    linear_forward,
)
from fedbeam.model import (
    ModelConfig,
    build_model,
    count_parameters,
    forward_with_caches,
    model_backward,
    segment_views,
    with_weights,
)
from fedbeam.optim import mse_loss
from fedbeam.report import parse_comparison_csv, parse_experiment_csv
from fedbeam.splines import SplineGrid, basis_matrix

REL_TOL_GRADIENT = 1e-4
PARTITION_TOL = 1e-9
ORACLE_TOL = 1e-12
GRADIENT_SEEDS = 20

# SHA-256 of the three files the protocol_run fixture writes (the synthetic
# config route: the seed-7 beams generated in process, not read from CSV).
# Rule: a change that moves bits updates these constants in the same commit
# and records the old and new digests in CHANGES.md.  They depend on the
# BLAS build; a mismatch on another machine is a finding to report, not a
# reason to turn the pin into a tolerance.
PROTOCOL_DIGESTS = {
    "comparison.csv": "76f65d82c84e5eaae459c9aa7895e1c1377f3c3a7451a2e30974fc3c6d1f193b",
    "report_fed_kan.csv": "3701fa1323fa8baede32ecba1f06f7b7198a7d35340727850384b762a26ba210",
    "report_fed_mlp.csv": "4f81cb1cc5ad11ebb597e8b4a33a1028c72dc70f768f6bd37e221f2d3c184fd6",
}

PAPER_FEDERATION = {
    "rounds": 20,
    "local_epochs": 5,
    "batch_size": 16,
    "learning_rate": 0.001,
    "weight_decay": 1e-5,
    "max_grad_norm": 1.0,
    "aggregation": "uniform",
    "availability_prob": 1.0,
    "seed": 0,
}
PAPER_DATA = {"synthetic": {"seed": 7, "hours": 743, "beams": 4}}


@pytest.fixture(scope="session")
def protocol_run(tmp_path_factory):
    """One cmd_compare at the full protocol; shared by criteria 6-8."""
    root = tmp_path_factory.mktemp("protocol")
    out_dir = root / "runA"
    config = {
        "model": {},
        "federation": PAPER_FEDERATION,
        "data": PAPER_DATA,
        "out_dir": str(out_dir),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["compare", "--config", str(config_path)]) == EXIT_OK
    return {"config_path": config_path, "out_dir": out_dir, "root": root}


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum.reduce(
        [np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-6)]
    )
    return float(np.max(np.abs(analytic - numeric) / scale))


# --- criterion 1: parameter-count oracle -----------------------------------


@pytest.mark.acceptance("1-parameter-count-oracle")
def test_criterion1_exact_counts():
    assert count_parameters(ModelConfig.fed_mlp()) == 1244
    cfg = ModelConfig.fed_kan()
    edges = 10 * 2 + 2 * 4 + 4 * 8
    per_edge = cfg.grid_intervals + cfg.spline_order + 1
    fc_terms = (8 * 8 + 8) + (8 * 4 + 4)
    assert count_parameters(cfg) == edges * per_edge + fc_terms


@pytest.mark.acceptance("1-parameter-count-oracle")
def test_criterion1_budget_parity():
    kan_count = count_parameters(ModelConfig.fed_kan())
    assert abs(kan_count - 1244) <= 0.10 * 1244


# --- criterion 2: gradient suite --------------------------------------------


def full_model_gradcheck(config: ModelConfig, seed: int) -> float:
    template = build_model(config, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    batch = rng.random((2, config.input_width))
    targets = rng.random((2, config.output_width))
    targets = targets / targets.sum(axis=1, keepdims=True)

    def stacked_loss(rows: np.ndarray) -> np.ndarray:
        # One forward without dropout over every probe: a stack of
        # len(rows) models, each seeing the same batch.
        model = with_weights(template, rows)
        preds, _ = forward_with_caches(model, np.broadcast_to(batch, (len(rows), *batch.shape)))
        values, _ = mse_loss(preds, np.broadcast_to(targets, preds.shape))
        return values

    preds, caches = forward_with_caches(template, batch)
    _, loss_grad = mse_loss(preds, targets)
    analytic = np.empty_like(template.weights)
    model_backward(template, caches, loss_grad, segment_views(template.layout, analytic))
    numeric = stacked_finite_difference_gradient(stacked_loss, template.weights)
    return max_rel_err(analytic, numeric)


@pytest.mark.acceptance("2-gradient-suite")
def test_criterion2_layer_gradients():
    grid = SplineGrid.uniform(5, 3)
    worst = 0.0
    for seed in range(GRADIENT_SEEDS):
        rng = np.random.default_rng(seed)
        params = KanLayerParams.initialized(2, 3, grid, rng)
        x = rng.uniform(-0.9, 0.9, (4, 2))
        probe = rng.standard_normal((4, 3))
        _, cache = kan_layer_forward(x, params)
        d_weights = np.empty_like(params.weights)
        kan_layer_backward(probe, params, cache, d_weights)

        def kan_loss(flat: np.ndarray) -> float:
            p = KanLayerParams(flat.reshape(params.weights.shape), grid)
            out, _ = kan_layer_forward(x, p)
            return float(np.sum(out * probe))

        numeric = finite_difference_gradient(kan_loss, params.weights.reshape(-1))
        analytic = d_weights.reshape(-1)
        worst = max(worst, max_rel_err(analytic, numeric))

        lin = LinearLayerParams.initialized(3, 2, rng)
        xl = rng.standard_normal((4, 3))
        probe_l = rng.standard_normal((4, 2))
        _, cache_l = linear_forward(xl, lin)
        d_weights, d_biases = np.empty_like(lin.weights), np.empty_like(lin.biases)
        linear_backward(probe_l, lin, cache_l, d_weights, d_biases)
        n_w = lin.weights.size

        def lin_loss(flat: np.ndarray) -> float:
            p = LinearLayerParams(flat[:n_w].reshape(lin.weights.shape), flat[n_w:])
            out, _ = linear_forward(xl, p)
            return float(np.sum(out * probe_l))

        numeric_l = finite_difference_gradient(
            lin_loss, np.concatenate([lin.weights.reshape(-1), lin.biases])
        )
        analytic_l = np.concatenate([d_weights.reshape(-1), d_biases])
        worst = max(worst, max_rel_err(analytic_l, numeric_l))
    assert worst < REL_TOL_GRADIENT


@pytest.mark.acceptance("2-gradient-suite")
def test_criterion2_full_model_gradients():
    worst_kan = max(
        full_model_gradcheck(ModelConfig.fed_kan(), seed) for seed in range(GRADIENT_SEEDS)
    )
    worst_mlp = max(
        full_model_gradcheck(ModelConfig.fed_mlp(), seed) for seed in range(GRADIENT_SEEDS)
    )
    assert worst_kan < REL_TOL_GRADIENT
    assert worst_mlp < REL_TOL_GRADIENT


# --- criterion 3: spline suite ----------------------------------------------


def naive_cox_de_boor(x: float, k: int, i: int, knots: np.ndarray) -> float:
    if k == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + k] != knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * naive_cox_de_boor(
            x, k - 1, i, knots
        )
    right = 0.0
    if knots[i + k + 1] != knots[i + 1]:
        right = (knots[i + k + 1] - x) / (knots[i + k + 1] - knots[i + 1]) * naive_cox_de_boor(
            x, k - 1, i + 1, knots
        )
    return left + right


@pytest.mark.acceptance("3-spline-suite")
def test_criterion3_spline_suite():
    grid = SplineGrid.uniform(5, 3)
    xs = np.linspace(-1.0, 1.0, 1000)
    b = basis_matrix(xs, grid)
    assert np.all(b >= 0.0)
    assert np.max(np.abs(b.sum(axis=1) - 1.0)) < PARTITION_TOL

    rng = np.random.default_rng(123)
    sample = rng.uniform(-1.0, 1.0, 1000)
    computed = basis_matrix(sample, grid)
    for row, x in zip(computed, sample):
        oracle = np.array(
            [naive_cox_de_boor(float(x), 3, i, grid.knots) for i in range(grid.num_bases)]
        )
        assert np.max(np.abs(row - oracle)) < ORACLE_TOL


# --- criterion 4: FedAvg algebra --------------------------------------------


@pytest.mark.acceptance("4-fedavg-algebra")
def test_criterion4_fedavg_algebra():
    def update_of(cid: str, values: np.ndarray, count: int) -> ClientUpdate:
        return ClientUpdate(cid, values, count, 0.0)

    identical = [update_of(f"c{i}", np.full(5, 0.37), 4) for i in range(4)]
    agg = aggregate(identical, "uniform")
    assert np.max(np.abs(agg - 0.37)) <= 1e-15

    rng = np.random.default_rng(77)
    values = rng.standard_normal((4, 5))
    updates = [update_of(f"c{i}", values[i], i + 1) for i in range(4)]
    shuffled = [updates[2], updates[0], updates[3], updates[1]]
    assert np.array_equal(
        aggregate(updates, "sample_weighted"),
        aggregate(shuffled, "sample_weighted"),
    )
    for scheme in ("uniform", "sample_weighted"):
        out = aggregate(updates, scheme)
        assert np.all(out >= values.min(axis=0) - 1e-12)
        assert np.all(out <= values.max(axis=0) + 1e-12)

    weighted = aggregate(
        [update_of("a", np.full(3, 1.0), 3), update_of("b", np.full(3, 5.0), 1)],
        "sample_weighted",
    )
    assert np.array_equal(weighted, np.full(3, 2.0))


# --- criterion 5: data pipeline ---------------------------------------------


@pytest.mark.acceptance("5-data-pipeline")
def test_criterion5_data_pipeline():
    series = generate_synthetic(7, 743, default_profiles(1)[0])
    features, targets = window_arrays(series, 5)
    assert len(features) == len(targets) == 738
    n_train = train_count(len(features), 0.8)
    assert n_train == 590
    assert len(features) - n_train == 148
    scaler_train = Scaler.fit(features[:n_train])
    # Chronological and disjoint: the train rows then the test rows are the
    # windows in order, scaled with the training range only.
    client = build_client(series, 5, 0.8)
    assert len(client.train_features) == 590
    assert len(client.test_features) == 148
    rows = np.concatenate([client.train_features, client.test_features])
    assert rows.tobytes() == scaler_train.transform(features).tobytes()
    row_targets = np.concatenate([client.train_targets, client.test_targets])
    assert row_targets.tobytes() == targets.tobytes()
    # Leakage tripwire: the scaler must depend only on the training range.
    scaler_all = Scaler.fit(features)
    assert not (
        np.array_equal(scaler_train.feature_min, scaler_all.feature_min)
        and np.array_equal(scaler_train.feature_max, scaler_all.feature_max)
    )


# --- criterion 6: training progress ------------------------------------------


@pytest.mark.acceptance("6-training-progress")
def test_criterion6_training_progress(protocol_run):
    text = (protocol_run["out_dir"] / "comparison.csv").read_text(encoding="utf-8")
    parsed = parse_comparison_csv(text)
    rows = parsed["rows"]
    assert rows.shape[0] == 20
    assert np.all(np.isfinite(rows))
    kan_train = rows[:, 1]
    mlp_train = rows[:, 2]
    assert kan_train[-1] <= 0.5 * kan_train[0]
    assert mlp_train[-1] <= 0.5 * mlp_train[0]
    for name in ("report_fed_kan.csv", "report_fed_mlp.csv"):
        report = parse_experiment_csv(
            (protocol_run["out_dir"] / name).read_text(encoding="utf-8")
        )
        assert np.all(np.isfinite(report["rows"]))


# --- criterion 7: comparative tendency (soft, reported not gated) ------------


@pytest.mark.acceptance("7-comparative-tendency")
def test_criterion7_comparative_tendency(protocol_run, capsys):
    comparison = parse_comparison_csv(
        (protocol_run["out_dir"] / "comparison.csv").read_text(encoding="utf-8")
    )
    results = [
        (
            0,
            float(comparison["meta"]["final_avg_test_loss_fed_kan"]),
            float(comparison["meta"]["final_avg_test_loss_fed_mlp"]),
        )
    ]
    beams = [
        generate_synthetic(PAPER_DATA["synthetic"]["seed"], 743, p)
        for p in default_profiles(4)
    ]
    for seed in range(1, 5):
        fed = FederationConfig(**{**PAPER_FEDERATION, "seed": seed})
        kan = run_experiment(ModelConfig.fed_kan(), fed, beams)
        mlp = run_experiment(ModelConfig.fed_mlp(), fed, beams)
        results.append((seed, kan.final_avg_test_loss, mlp.final_avg_test_loss))

    wins = sum(1 for _, kan_loss, mlp_loss in results if kan_loss <= mlp_loss)
    with capsys.disabled():
        print("\nper-seed comparison (params: fed_kan=648, fed_mlp=1244):")
        print("seed  fed_kan_test_loss  fed_mlp_test_loss  kan<=mlp")
        for seed, kan_loss, mlp_loss in results:
            print(f"{seed:>4}  {kan_loss:>17.6f}  {mlp_loss:>17.6f}  {kan_loss <= mlp_loss}")
        print(f"fed_kan <= fed_mlp in {wins}/5 seeds (soft target: >=3)")

    # Soft criterion: the table above is the deliverable; only integrity is
    # gated here.
    assert len(results) == 5
    for _, kan_loss, mlp_loss in results:
        assert np.isfinite(kan_loss) and np.isfinite(mlp_loss)


# --- criterion 8: determinism -------------------------------------------------


@pytest.mark.acceptance("8-determinism")
def test_criterion8_byte_identical_compare(protocol_run):
    root = protocol_run["root"]
    base_config = json.loads(protocol_run["config_path"].read_text(encoding="utf-8"))
    reruns = [("runB", []), ("runC", ["--parallel-clients"])]
    for name, extra in reruns:
        out_dir = root / name
        config = dict(base_config, out_dir=str(out_dir))
        config_path = root / f"config_{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["compare", "--config", str(config_path)] + extra) == EXIT_OK
    for name in ("report_fed_kan.csv", "report_fed_mlp.csv", "comparison.csv"):
        baseline = (protocol_run["out_dir"] / name).read_bytes()
        assert baseline == (root / "runB" / name).read_bytes()
        assert baseline == (root / "runC" / name).read_bytes()


def test_protocol_reports_match_their_pinned_digests(protocol_run):
    for name, digest in PROTOCOL_DIGESTS.items():
        data = (protocol_run["out_dir"] / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_acceptance_protocol_uses_paper_settings(protocol_run):
    """Sanity anchor: the shared run really used the published protocol."""
    report = parse_experiment_csv(
        (protocol_run["out_dir"] / "report_fed_kan.csv").read_text(encoding="utf-8")
    )
    fed = report["meta"]["federation"]
    assert fed["rounds"] == 20
    assert fed["local_epochs"] == 5
    assert fed["batch_size"] == 16
    assert fed["learning_rate"] == 0.001
    assert fed["weight_decay"] == 1e-5
    assert fed["max_grad_norm"] == 1.0
    model = report["meta"]["model"]
    assert model["kan_hidden_widths"] == [2, 4, 8]
    assert model["fc_head_widths"] == [8, 4]
    assert model["grid_intervals"] == 5
    assert model["spline_order"] == 3
    assert model["dropout_p"] == 0.5
