"""B-spline grid and basis tests against an independent recursive oracle.

The package evaluates bases from the cardinal B-spline's polynomial pieces;
the textbook Cox-de Boor recursion below is the reference it must match.
"""

import numpy as np
import pytest

from fedbeam.errors import ConfigurationError
from fedbeam.splines import SplineGrid, _piece_matrix, basis_and_derivative, basis_matrix


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


def reference_basis_and_derivative(x: np.ndarray, grid: SplineGrid):
    """The earlier kernel, kept as the bitwise oracle.

    It multiplies the powers of u by the whole piece matrix at once and
    scatters values and derivatives into two planes through one index.
    For two or more points its bits are what every report was made with.
    """
    k, m = grid.order, grid.num_bases
    n = x.shape[0]
    xc = np.minimum(np.maximum(x, grid.range_min), grid.range_max)
    s = np.searchsorted(grid.knots, xc, side="right") - 1
    np.minimum(np.maximum(s, k, out=s), k + grid.intervals - 1, out=s)
    u = (xc - grid.knots[s]) / grid.spacing
    pieces = (u[:, None] ** np.arange(k + 1)) @ _piece_matrix(k)
    values = pieces[:, : k + 1]
    np.maximum(values, 0.0, out=values)
    pieces[:, k + 1 :] *= ((x == xc) / grid.spacing)[:, None]
    first = s + np.arange(-k, n * m - k, m)
    offsets = np.concatenate([np.arange(k + 1), np.arange(n * m, n * m + k + 1)])
    planes = np.zeros((2, n, m))
    planes.reshape(-1)[first[:, None] + offsets] = pieces
    return planes[0], planes[1]


def test_uniform_grid_shape():
    g = SplineGrid.uniform(5, 3)
    assert g.knots.shape == (5 + 2 * 3 + 1,)
    assert g.num_bases == 8
    assert g.knots[3] == pytest.approx(-1.0)
    assert g.knots[-4] == pytest.approx(1.0)


def test_uniform_grid_rejects_bad_settings():
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(0, 3)
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(5, -1)
    with pytest.raises(ConfigurationError):
        SplineGrid.uniform(5, 3, range_min=1.0, range_max=1.0)


def test_knots_are_read_only():
    g = SplineGrid.uniform(5, 3)
    with pytest.raises(ValueError):
        g.knots[0] = 0.0


@pytest.mark.parametrize("order", range(5))
def test_range_ends_and_clamped_inputs_sum_to_one(order):
    g = SplineGrid.uniform(5, order)
    x = np.array([-1.0, 1.0, -3.0, 3.0])
    b = basis_matrix(x, g)
    assert np.max(np.abs(b.sum(axis=1) - 1.0)) < 1e-12


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


GRID_SHAPES = [
    (order, intervals, lo, hi)
    for order in range(5)
    for intervals in (1, 3, 5, 7)
    for lo, hi in ((-1.0, 1.0), (0.0, 2.0), (-0.3, 0.9))
]


@pytest.mark.parametrize("order,intervals,lo,hi", GRID_SHAPES)
def test_matches_oracle_on_knots_and_range_ends(order, intervals, lo, hi):
    g = SplineGrid.uniform(intervals, order, lo, hi)
    real_knots = g.knots[order : order + intervals + 1]
    rng = np.random.default_rng(intervals)
    xs = np.concatenate([real_knots, [lo, hi], rng.uniform(lo, hi, size=20)])
    if order == 0:
        # The oracle's order-0 indicators are half-open, so it leaves the
        # last real knot (and anything past it) without a basis.
        xs = xs[xs < real_knots[-1]]
    b = basis_matrix(xs, g)
    for row, x in zip(b, xs):
        expected = [naive_cox_de_boor(float(x), order, i, g.knots) for i in range(g.num_bases)]
        assert np.max(np.abs(row - np.array(expected))) < 1e-12


@pytest.mark.parametrize("order,intervals,lo,hi", [s for s in GRID_SHAPES if s[0] > 0])
def test_derivative_matches_finite_differences_off_knots(order, intervals, lo, hi):
    g = SplineGrid.uniform(intervals, order, lo, hi)
    rng = np.random.default_rng(order * 10 + intervals)
    xs = rng.uniform(lo, hi, size=50)
    xs = xs[np.min(np.abs(xs[:, None] - g.knots[None, :]), axis=1) > 1e-3]
    _, analytic = basis_and_derivative(xs, g)
    h = 1e-6
    numeric = (basis_matrix(xs + h, g) - basis_matrix(xs - h, g)) / (2 * h)
    assert np.max(np.abs(analytic - numeric)) < 1e-6


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


SPLIT_SHAPES = [
    (order, intervals, lo, hi)
    for order in range(6)
    for intervals in (1, 2, 5, 7, 20, 100)
    for lo, hi in ((-1.0, 1.0), (-0.3, 0.9))
]


@pytest.mark.parametrize("order,intervals,lo,hi", SPLIT_SHAPES)
def test_values_only_evaluation_is_bitwise_the_full_one(order, intervals, lo, hi):
    g = SplineGrid.uniform(intervals, order, lo, hi)
    rng = np.random.default_rng(order * 10 + intervals)
    real_knots = g.knots[order : order + intervals + 1]
    # Exact knots and one ulp either side of every knot, both range ends,
    # inputs clamped on either side, infinities, and NaN.
    xs = np.concatenate(
        [
            real_knots,
            np.nextafter(g.knots, -np.inf),
            np.nextafter(g.knots, np.inf),
            [lo, hi, lo - 3.0, hi + 3.0, -np.inf, np.inf, np.nan],
            rng.uniform(lo - 0.5, hi + 0.5, 40),
        ]
    )
    bases, dbases = basis_and_derivative(xs, g)
    values, none = basis_and_derivative(xs, g, derivative=False)
    assert none is None
    assert values.tobytes() == bases.tobytes()
    # With a free leading slot per point, the planes hold the same bits after it.
    padded, dpadded = basis_and_derivative(xs, g, pad=1)
    values_padded, none = basis_and_derivative(xs, g, derivative=False, pad=1)
    assert none is None
    zeros = np.zeros(len(xs)).tobytes()
    for plane, unpadded in ((padded, bases), (dpadded, dbases), (values_padded, bases)):
        assert plane.shape == (len(xs), g.num_bases + 1)
        assert plane[:, 1:].tobytes() == unpadded.tobytes()
        assert plane[:, 0].tobytes() == zeros
    assert basis_matrix(xs, g).tobytes() == bases.tobytes()
    ref_bases, ref_dbases = reference_basis_and_derivative(xs, g)
    assert bases.tobytes() == ref_bases.tobytes()
    assert dbases.tobytes() == ref_dbases.tobytes()
    # The same points one, two and three at a time.
    for n in (1, 2, 3):
        for i in range(len(xs) - n + 1):
            few_bases, few_dbases = basis_and_derivative(xs[i : i + n], g)
            assert few_bases.tobytes() == ref_bases[i : i + n].tobytes()
            assert few_dbases.tobytes() == ref_dbases[i : i + n].tobytes()


@pytest.mark.parametrize("order", range(16))
def test_a_lone_point_gets_the_bits_it_gets_among_others(order):
    g = SplineGrid.uniform(5, order)
    rng = np.random.default_rng(order)
    for _ in range(100):
        x = rng.uniform(-1.2, 1.2, 3)
        lone = basis_and_derivative(x[:1], g)
        among = basis_and_derivative(x, g)
        assert lone[0].tobytes() == among[0][:1].tobytes()
        assert lone[1].tobytes() == among[1][:1].tobytes()
