"""B-spline grid and basis tests against an independent recursive oracle."""

import dataclasses

import numpy as np
import pytest

from fedbeam.errors import ConfigurationError
from fedbeam.splines import SplineGrid, basis_and_derivative, basis_matrix


def naive_cox_de_boor(x: float, k: int, i: int, knots: np.ndarray) -> float:
    """Textbook recursive definition, deliberately unoptimized."""
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


def test_uniform_grid_shape():
    g = SplineGrid.uniform(5, 3)
    assert g.knots.shape == (5 + 2 * 3 + 1,)
    assert g.num_bases == 8
    assert g.knots[3] == pytest.approx(-1.0)
    assert g.knots[-4] == pytest.approx(1.0)
    g.validate()


def test_uniform_grid_rejects_bad_settings():
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(0, 3)
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(5, -1)
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(5, 3, range_min=1.0, range_max=1.0)


def test_validate_rejects_tampered_knots():
    g = SplineGrid.uniform(5, 3)
    bad = g.knots.copy()
    bad[4] = bad[6]
    tampered = dataclasses.replace(g, knots=bad)
    with pytest.raises(ConfigurationError):
        tampered.validate()
    with pytest.raises(ConfigurationError):
        basis_matrix(np.zeros(1), tampered)


def test_order_zero_is_interval_indicator():
    g = SplineGrid.uniform(4, 0)
    x = np.array([-0.9, -0.3, 0.1, 0.7])
    b = basis_matrix(x, g)
    expected = np.eye(4)
    assert np.array_equal(b, expected)


def test_partition_of_unity_at_center():
    g = SplineGrid.uniform(5, 3)
    values = basis_matrix(np.array([0.0]), g)[0]
    assert values.shape == (8,)
    assert abs(values.sum() - 1.0) < 1e-12


def test_partition_of_unity_and_nonnegativity():
    g = SplineGrid.uniform(5, 3)
    x = np.linspace(-1.0, 1.0, 1000)
    b = basis_matrix(x, g)
    assert np.all(b >= 0.0)
    assert np.max(np.abs(b.sum(axis=1) - 1.0)) < 1e-9


def test_matches_naive_recursive_oracle():
    g = SplineGrid.uniform(5, 3)
    rng = np.random.default_rng(42)
    xs = rng.uniform(-1.0, 1.0, size=1000)
    b = basis_matrix(xs, g)
    for row, x in zip(b, xs):
        expected = [naive_cox_de_boor(float(x), 3, i, g.knots) for i in range(g.num_bases)]
        assert np.max(np.abs(row - np.array(expected))) < 1e-12


def test_out_of_range_inputs_are_clamped():
    g = SplineGrid.uniform(5, 3)
    far = basis_matrix(np.array([5.0, -5.0]), g)
    edge = basis_matrix(np.array([1.0, -1.0]), g)
    assert np.array_equal(far, edge)


def test_derivative_matches_finite_differences():
    g = SplineGrid.uniform(5, 3)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-0.95, 0.95, size=50)
    _, analytic = basis_and_derivative(xs, g)
    h = 1e-6
    numeric = (basis_matrix(xs + h, g) - basis_matrix(xs - h, g)) / (2 * h)
    assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_derivative_zero_outside_range():
    g = SplineGrid.uniform(5, 3)
    _, deriv = basis_and_derivative(np.array([3.0, -2.5]), g)
    assert np.array_equal(deriv, np.zeros_like(deriv))


def test_order_zero_derivative_is_zero():
    g = SplineGrid.uniform(4, 0)
    _, deriv = basis_and_derivative(np.array([-0.3, 0.4]), g)
    assert np.array_equal(deriv, np.zeros_like(deriv))
