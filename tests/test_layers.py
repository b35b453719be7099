"""Layer forward/backward tests, anchored by finite differences."""

import warnings

import mpmath
import numpy as np
import pytest

from fedbeam.errors import ContractViolationError
from fedbeam.layers import (
    KanLayerParams,
    LinearLayerParams,
    kan_layer_backward,
    kan_layer_forward,
    kan_plane,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
    sigmoid,
)
from fedbeam.splines import SplineGrid, basis_and_derivative

from gradcheck import finite_difference_gradient
from helpers import basis_matrix, dense_derivative, dropout_scale

GRID = SplineGrid.uniform(5, 3)


def kan_grads(upstream, params, cache):
    """The (inputs, weights) gradients, the weights' written into a new array."""
    d_weights = np.empty_like(params.weights)
    return kan_layer_backward(upstream, params, cache, d_weights), d_weights


def linear_grads(upstream, params, cache, input_grad=True):
    """The (inputs, weights, biases) gradients, the last two written into new arrays."""
    d_weights, d_biases = np.empty_like(params.weights), np.empty_like(params.biases)
    d_in = linear_backward(upstream, params, cache, d_weights, d_biases, input_grad)
    return d_in, d_weights, d_biases


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])))


def test_zero_params_give_zero_output():
    params = KanLayerParams(weights=np.zeros((3, GRID.num_bases + 1, 2)), grid=GRID)
    x = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    out, _ = kan_layer_forward(x, params)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_a_spline_layers_plane_width_is_its_planes_and_its_blocks():
    params = KanLayerParams(weights=np.zeros((3, GRID.num_bases + 1, 2)), grid=GRID)
    plane, _ = kan_plane(np.zeros((5, 3)), GRID)
    assert params.plane_width == plane.shape[-1] == params.weights[..., 0].size


def test_identity_interpolation_on_grid_interior():
    # Fit spline coefficients so the 1x1 edge reproduces f(x) = x.
    xs = np.linspace(-1.0, 1.0, 200)
    design = basis_matrix(xs, GRID)
    coeffs, *_ = np.linalg.lstsq(design, xs, rcond=None)
    weights = np.zeros((1, GRID.num_bases + 1, 1))
    weights[0, 1:, 0] = coeffs
    params = KanLayerParams(weights=weights, grid=GRID)
    probe = np.linspace(-0.9, 0.9, 61).reshape(-1, 1)
    out, _ = kan_layer_forward(probe, params)
    assert np.max(np.abs(out - probe)) < 1e-3


def test_rows_are_independent():
    rng = np.random.default_rng(1)
    params = KanLayerParams.initialized(4, 3, GRID, rng)
    row = rng.uniform(-1, 1, (1, 4))
    x = np.vstack([row, row])
    out, _ = kan_layer_forward(x, params)
    assert np.array_equal(out[0], out[1])


def test_kan_forward_rejects_bad_width():
    params = KanLayerParams.initialized(4, 3, GRID, np.random.default_rng(0))
    with pytest.raises(ContractViolationError):
        kan_layer_forward(np.zeros((2, 5)), params)


def test_kan_backward_rejects_bad_upstream():
    params = KanLayerParams.initialized(4, 3, GRID, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(-1, 1, (2, 4))
    _, cache = kan_layer_forward(x, params)
    with pytest.raises(ContractViolationError):
        kan_grads(np.zeros((2, 4)), params, cache)


def test_zero_upstream_gives_zero_grads():
    params = KanLayerParams.initialized(2, 3, GRID, np.random.default_rng(5))
    x = np.random.default_rng(6).uniform(-1, 1, (4, 2))
    _, cache = kan_layer_forward(x, params)
    d_in, d_weights = kan_grads(np.zeros((4, 3)), params, cache)
    assert np.array_equal(d_in, np.zeros((4, 2)))
    assert np.array_equal(d_weights, np.zeros_like(params.weights))


def test_kan_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = KanLayerParams.initialized(2, 3, GRID, rng)
    x = rng.uniform(-0.9, 0.9, (4, 2))
    probe = rng.standard_normal((4, 3))

    out, cache = kan_layer_forward(x, params)
    d_in, d_weights = kan_grads(probe, params, cache)

    def loss_of_params(flat: np.ndarray) -> float:
        p = KanLayerParams(weights=flat.reshape(params.weights.shape), grid=GRID)
        o, _ = kan_layer_forward(x, p)
        return float(np.sum(o * probe))

    fd = finite_difference_gradient(loss_of_params, params.weights.reshape(-1))
    analytic = d_weights.reshape(-1)
    assert rel_err(analytic, fd) < 1e-4

    def loss_of_inputs(flat: np.ndarray) -> float:
        o, _ = kan_layer_forward(flat.reshape(x.shape), params)
        return float(np.sum(o * probe))

    fd_in = finite_difference_gradient(loss_of_inputs, x.reshape(-1))
    assert rel_err(d_in.reshape(-1), fd_in) < 1e-4


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("intervals", [1, 5, 17])
def test_kan_input_gradient_matches_finite_differences_across_grids(order, intervals):
    # At order 0 only silu' flows; at 17 intervals most slots are empty.
    grid = SplineGrid.uniform(intervals, order)
    rng = np.random.default_rng(order * 100 + intervals)
    params = KanLayerParams(rng.standard_normal((2, grid.num_bases + 1, 3)), grid)
    x = rng.uniform(-1.2, 1.2, 64)
    # Central differences need the points off the knots, where B' jumps.
    x = x[np.min(np.abs(x[:, None] - grid.knots), axis=1) > 1e-3][:8].reshape(4, 2)
    probe = rng.standard_normal((4, 3))
    _, cache = kan_layer_forward(x, params)
    d_in, _ = kan_grads(probe, params, cache)

    def loss_of_inputs(flat: np.ndarray) -> float:
        o, _ = kan_layer_forward(flat.reshape(x.shape), params)
        return float(np.sum(o * probe))

    fd_in = finite_difference_gradient(loss_of_inputs, x.reshape(-1))
    assert rel_err(d_in.reshape(-1), fd_in) < 1e-4


def test_base_weight_grad_closed_form():
    rng = np.random.default_rng(9)
    params = KanLayerParams.initialized(1, 1, GRID, rng)
    x = rng.uniform(-0.8, 0.8, (6, 1))
    upstream = rng.standard_normal((6, 1))
    _, cache = kan_layer_forward(x, params)
    _, d_weights = kan_grads(upstream, params, cache)
    d_base = d_weights[:, 0]
    silu = x[:, 0] * sigmoid(x[:, 0])
    expected = float(np.sum(upstream[:, 0] * silu))
    assert d_base[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "batch,in_width,out_width",
    [(1, 3, 2), (5, 1, 2), (5, 3, 1), (16, 10, 2), (16, 2, 4), (16, 4, 8)],
)
def test_kan_contractions_match_einsum_reference(batch, in_width, out_width):
    rng = np.random.default_rng(batch * 100 + in_width * 10 + out_width)
    params = KanLayerParams.initialized(in_width, out_width, GRID, rng)
    x = rng.uniform(-1.2, 1.2, (batch, in_width))
    upstream = rng.standard_normal((batch, out_width))
    out, cache = kan_layer_forward(x, params)
    d_in, d_weights = kan_grads(upstream, params, cache)
    d_base, d_coeffs = d_weights[:, 0], d_weights[:, 1:]

    shape = (batch, in_width, GRID.num_bases)
    bases, terms = basis_and_derivative(x.reshape(-1), GRID)
    dbases = dense_derivative(bases.shape, terms).reshape(shape)
    bases = bases.reshape(shape)
    base, coeffs = params.weights[:, 0], params.weights[:, 1:]
    sig = 1.0 / (1.0 + np.exp(-x))
    expected_out = (x * sig) @ base + np.einsum("bim,imo->bo", bases, coeffs)
    expected_d_coeffs = np.einsum("bo,bim->imo", upstream, bases)
    expected_d_in = (upstream @ base.T) * sig * (1.0 + x * (1.0 - sig))
    expected_d_in += np.einsum("bo,imo,bim->bi", upstream, coeffs, dbases)

    assert np.max(np.abs(out - expected_out)) < 1e-12
    assert np.max(np.abs(d_coeffs - expected_d_coeffs)) < 1e-12
    assert np.max(np.abs(d_in - expected_d_in)) < 1e-12
    assert np.max(np.abs(d_base - (x * sig).T @ upstream)) < 1e-12

    # Without basis derivatives: the same output and parameter gradients, no input gradient.
    out_v, cache_v = kan_layer_forward(x, params, derivative=False)
    none, d_weights_v = kan_grads(upstream, params, cache_v)
    assert none is None and cache_v[1] is None
    assert out_v.tobytes() == out.tobytes()
    assert d_weights_v.tobytes() == d_weights.tobytes()


@pytest.mark.parametrize("order", range(5))
def test_each_input_gradient_sums_its_terms_in_the_documented_order(order):
    # Stacked inputs, some on knots and some clamped on either side.  Each
    # point's gradient must be, bit for bit, its order + 1 basis terms
    # G * B' added from the first nonzero basis to the last, then G * silu'.
    grid = SplineGrid.uniform(5, order)
    rng = np.random.default_rng(60 + order)
    clients, batch, in_width, out_width = 3, 6, 4, 3
    slots = grid.num_bases + 1
    params = KanLayerParams(rng.standard_normal((clients, in_width, slots, out_width)), grid)
    x = rng.uniform(-1.0, 1.0, (clients, batch, in_width))
    flat = x.reshape(-1)
    flat[: grid.knots.size] = grid.knots
    flat[-4:] = [-1.7, 1.7, -1.0, 1.0]
    upstream = rng.standard_normal((clients, batch, out_width))
    _, cache = kan_layer_forward(x, params)
    d_in, _ = kan_grads(upstream, params, cache)

    pieces, index, dsilu = cache[1]
    # Row r holds each point's r-th nonzero basis: consecutive slots.
    assert (np.diff(index, axis=0) == 1).all()
    block = params.weights.reshape(clients, in_width * slots, out_width)
    d_plane = (upstream @ block.swapaxes(-1, -2)).reshape(-1)
    expected = np.empty(flat.size)
    for j in range(flat.size):
        total = d_plane[index[0, j]] * pieces[0, j]
        for r in range(1, order + 1):
            total = total + d_plane[index[r, j]] * pieces[r, j]
        expected[j] = total + d_plane[j * slots] * dsilu[j]
    assert d_in.tobytes() == expected.reshape(x.shape).tobytes()


def test_linear_identity():
    params = LinearLayerParams(weights=np.eye(3), biases=np.zeros(3))
    x = np.random.default_rng(2).standard_normal((4, 3))
    out, _ = linear_forward(x, params)
    assert np.array_equal(out, x)


def test_linear_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = LinearLayerParams.initialized(3, 2, rng)
    x = rng.standard_normal((5, 3))
    probe = rng.standard_normal((5, 2))
    out, cache = linear_forward(x, params)
    d_in, d_weights, d_biases = linear_grads(probe, params, cache)

    n_w = params.weights.size

    def loss_of_params(flat: np.ndarray) -> float:
        p = LinearLayerParams(flat[:n_w].reshape(params.weights.shape), flat[n_w:])
        o, _ = linear_forward(x, p)
        return float(np.sum(o * probe))

    flat0 = np.concatenate([params.weights.reshape(-1), params.biases])
    fd = finite_difference_gradient(loss_of_params, flat0)
    analytic = np.concatenate([d_weights.reshape(-1), d_biases])
    assert rel_err(analytic, fd) < 1e-4

    def loss_of_inputs(flat: np.ndarray) -> float:
        o, _ = linear_forward(flat.reshape(x.shape), params)
        return float(np.sum(o * probe))

    fd_in = finite_difference_gradient(loss_of_inputs, x.reshape(-1))
    assert rel_err(d_in.reshape(-1), fd_in) < 1e-4


def test_bias_grad_is_upstream_column_sum():
    rng = np.random.default_rng(13)
    params = LinearLayerParams.initialized(3, 2, rng)
    x = rng.standard_normal((5, 3))
    probe = rng.standard_normal((5, 2))
    _, cache = linear_forward(x, params)
    _, _, d_biases = linear_grads(probe, params, cache)
    assert np.allclose(d_biases, probe.sum(axis=0), rtol=0, atol=0)


def test_relu_values_and_backward():
    out, mask = relu(np.array([[-2.0, 3.5, 0.0]]))
    assert np.array_equal(out, np.array([[0.0, 3.5, 0.0]]))
    up = np.array([[1.0, 1.0, 1.0]])
    assert np.array_equal(relu_backward(up, mask), np.array([[0.0, 1.0, 0.0]]))


def drawn_scale(rng, shape, drop_prob):
    """A dropout mask drawn in one call, as the federation's draws build it."""
    return dropout_scale(rng.random(shape) < 1.0 - drop_prob, drop_prob)


def test_dropout_zero_prob_is_identity_in_train():
    x = np.random.default_rng(3).standard_normal((4, 4))
    scale = drawn_scale(np.random.default_rng(0), x.shape, 0.0)
    assert np.array_equal(scale, np.ones_like(x))
    out, mask = relu(x, scale)
    assert out.tobytes() == relu(x)[0].tobytes()
    assert mask.tobytes() == (x > 0).astype(np.float64).tobytes()


def test_dropout_preserves_expectation():
    scale = drawn_scale(np.random.default_rng(17), 1_000_000, 0.5)
    assert set(np.unique(scale)) == {0.0, 2.0}
    assert abs(scale.mean() - 1.0) < 0.01


def test_dropout_mask_replays_with_same_seed():
    x = np.ones((8, 8))
    out_a, mask_a = relu(x, drawn_scale(np.random.default_rng(23), x.shape, 0.5))
    out_b, mask_b = relu(x, drawn_scale(np.random.default_rng(23), x.shape, 0.5))
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(mask_a, mask_b)
    back = relu_backward(np.ones_like(x), mask_a)
    assert np.array_equal(back, mask_a)


def mpmath_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function at 80 bits, rounded once to float64."""
    with mpmath.workprec(80):
        return np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in x])


def test_sigmoid_is_within_4e_16_of_mpmath():
    x = np.linspace(-708.0, 708.0, 50_001)
    exact = mpmath_sigmoid(x)
    assert np.max(np.abs(sigmoid(x) - exact) / exact) <= 4e-16


def test_sigmoid_below_minus_709_is_the_clamp_value():
    # exp sees at most 709, so everything below -709 gets sigmoid(-709),
    # 1.2e-308, where the true value is smaller still.
    x = -np.geomspace(709.0, 1e300, 2_001)
    got = sigmoid(x)
    assert np.max(np.abs(got - mpmath_sigmoid(x))) <= 1.3e-308
    assert np.all(got == mpmath_sigmoid(np.array([-709.0]))[0])


def test_sigmoid_edges_are_exact_and_quiet():
    clamp = mpmath_sigmoid(np.array([-709.0]))[0]
    x, expected = np.array(
        [
            (0.0, 0.5),
            (-0.0, 0.5),
            (1e-300, 0.5),
            (-1e-300, 0.5),
            (800.0, 1.0),
            (-800.0, clamp),
            (np.inf, 1.0),
            (-np.inf, clamp),
        ]
    ).T
    assert np.signbit(x[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        nan = sigmoid(np.array([np.nan, -np.nan]))
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(nan).all()


def test_silu_derivative_matches_finite_differences():
    # Slot 0 of the derivative plane is silu'(x) = s(x) * (1 + x * (1 - s(x))).
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e-300, 1e-300]])
    plane, terms = kan_plane(x[:, None], GRID, derivative=True)
    dplane = dense_derivative(plane.shape, terms)
    step = 1e-6

    def silu(v):
        return kan_plane(v[:, None], GRID)[0][:, 0]

    fd = (silu(x + step) - silu(x - step)) / (2.0 * step)
    np.testing.assert_allclose(dplane[:, 0], fd, rtol=1e-7, atol=1e-8)


def test_plane_derivative_terms_densify_to_silu_and_the_kernel_derivatives():
    rng = np.random.default_rng(37)
    x = rng.uniform(-1.3, 1.3, (3, 5, 4))
    plane, terms = kan_plane(x, GRID, derivative=True)
    dense = dense_derivative(plane.shape, terms).reshape(*x.shape, -1)
    sig = sigmoid(x)
    assert dense[..., 0].tobytes() == (sig * (1.0 + x * (1.0 - sig))).tobytes()
    bases, basis_terms = basis_and_derivative(x.reshape(-1), GRID)
    dbases = dense_derivative(bases.shape, basis_terms)
    assert dense[..., 1:].reshape(dbases.shape).tobytes() == dbases.tobytes()
    assert kan_plane(x, GRID)[1] is None


def test_array_holding_params_compare_by_identity():
    rng = np.random.default_rng(0)
    for make in (
        lambda: SplineGrid.uniform(5, 3),
        lambda: KanLayerParams.initialized(2, 3, GRID, rng),
        lambda: LinearLayerParams.initialized(2, 3, rng),
    ):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_stacked_layers_match_each_batch_alone():
    rng = np.random.default_rng(31)
    clients, batch = 3, 7
    kan = [KanLayerParams.initialized(4, 3, GRID, rng) for _ in range(clients)]
    lin = [LinearLayerParams.initialized(4, 3, rng) for _ in range(clients)]
    stacked_kan = KanLayerParams(np.stack([p.weights for p in kan]), GRID)
    stacked_lin = LinearLayerParams(
        np.stack([p.weights for p in lin]), np.stack([p.biases for p in lin])
    )
    x = rng.uniform(-1.2, 1.2, (clients, batch, 4))
    upstream = rng.standard_normal((clients, batch, 3))
    for fwd, bwd, stacked, alone in (
        (kan_layer_forward, kan_grads, stacked_kan, kan),
        (linear_forward, linear_grads, stacked_lin, lin),
    ):
        out, cache = fwd(x, stacked)
        grads = bwd(upstream, stacked, cache)
        for c in range(clients):
            out_c, cache_c = fwd(x[c], alone[c])
            assert np.array_equal(out[c], out_c)
            for g, g_c in zip(grads, bwd(upstream[c], alone[c], cache_c)):
                assert np.array_equal(g[c], g_c)

    # A stacked cache without basis derivatives gives the same parameter
    # gradients and no input gradient.
    _, cache = kan_layer_forward(x, stacked_kan, derivative=False)
    none, d_weights = kan_grads(upstream, stacked_kan, cache)
    _, full = kan_layer_forward(x, stacked_kan)
    _, full_weights = kan_grads(upstream, stacked_kan, full)
    assert none is None
    assert d_weights.tobytes() == full_weights.tobytes()



def test_backward_writes_into_strided_gradient_views():
    # Gradient views as a stacked buffer's segment views give them: each
    # row's slice is contiguous, the rows are a whole buffer row apart.
    rng = np.random.default_rng(33)
    clients, batch = 3, 16
    kan = KanLayerParams(
        np.stack([KanLayerParams.initialized(4, 3, GRID, rng).weights for _ in range(clients)]),
        GRID,
    )
    lin = LinearLayerParams(rng.standard_normal((clients, 3, 4)), rng.standard_normal((clients, 3)))
    buffer = np.full((clients, 200), np.nan)
    d_kan = buffer[:, 5 : 5 + kan.weights[0].size].reshape(kan.weights.shape)
    d_lin_w = buffer[:, 150:162].reshape(clients, 3, 4)
    d_lin_b = buffer[:, 170:173]
    x = rng.uniform(-1.2, 1.2, (clients, batch, 4))
    upstream = rng.standard_normal((clients, batch, 3))

    _, cache = kan_layer_forward(x, kan)
    d_in = kan_layer_backward(upstream, kan, cache, d_kan)
    want_in, want = kan_grads(upstream, kan, cache)
    assert d_in.tobytes() == want_in.tobytes()
    assert d_kan.tobytes() == want.tobytes()

    _, cache = linear_forward(x, lin)
    none = linear_backward(upstream, lin, cache, d_lin_w, d_lin_b, input_grad=False)
    assert none is None
    _, want_w, want_b = linear_grads(upstream, lin, cache)
    assert d_lin_w.tobytes() == want_w.tobytes()
    assert d_lin_b.tobytes() == want_b.tobytes()
    # Nothing outside the three views was written.
    inside = np.zeros(buffer.shape, dtype=bool)
    for lo, hi in ((5, 5 + kan.weights[0].size), (150, 162), (170, 173)):
        inside[:, lo:hi] = True
    assert np.array_equal(~np.isnan(buffer), inside)


def test_a_plane_written_into_a_buffer_row_is_the_same_bits():
    rng = np.random.default_rng(35)
    features = rng.uniform(-1.3, 1.3, (7, 4))
    width = 4 * (GRID.num_bases + 1)
    fresh, _ = kan_plane(features, GRID)
    stack = np.full((2, 9, width), np.nan)
    written, _ = kan_plane(features, GRID, out=stack[1, :7])
    assert np.shares_memory(written, stack)
    assert stack[1, :7].tobytes() == fresh.tobytes()
    assert np.isnan(stack[0]).all() and np.isnan(stack[1, 7:]).all()
    with pytest.raises(ContractViolationError):
        kan_plane(features, GRID, out=np.empty((7, 2 * width))[:, :width])
    with pytest.raises(ContractViolationError):
        basis_and_derivative(features.reshape(-1), GRID, pad=1, out=np.empty((28, 3)))
    # Each must be exactly the plane's shape, not merely as many entries.
    inputs = rng.uniform(-1.0, 1.0, (4, 10))
    for shape in ((4, 91), (4, 7), (2, 180)):
        with pytest.raises(ContractViolationError):
            kan_plane(inputs, GRID, out=np.empty(shape))

EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300, -2.5, 3.5])


@pytest.mark.parametrize("drop_prob", [0.5, 0.3])
def test_relu_and_dropout_as_one_mask_are_bitwise_the_two_in_turn(drop_prob):
    # 1 / 0.7 is inexact; 1 / 0.5 is not.
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 16, 12)) * 10.0
    upstream = rng.standard_normal(x.shape)
    x.reshape(-1)[: EDGES.size] = EDGES
    upstream.reshape(-1)[-EDGES.size :] = EDGES
    rng.shuffle(x.reshape(-1))
    rng.shuffle(upstream.reshape(-1))

    scale = drawn_scale(np.random.default_rng(5), x.shape, drop_prob)
    with np.errstate(invalid="ignore"):
        relu_out, relu_mask = relu(x)
        out = relu_out * scale
        back = relu_backward(upstream * scale, relu_mask)
        fused_out, mask = relu(x, scale)
        fused_back = relu_backward(upstream, mask)
    assert fused_out.tobytes() == out.tobytes()
    assert fused_back.tobytes() == back.tobytes()
    assert np.isnan(fused_out).any() and np.signbit(fused_out[fused_out == 0]).any()


def test_one_mask_differs_only_where_the_scaled_gradient_overflows():
    x = np.array([-1.0, 1.0])
    upstream = np.array([1e308, 1e308])
    scale = np.array([2.0, 2.0])
    _, relu_mask = relu(x)
    _, mask = relu(x, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        two = relu_backward(upstream * scale, relu_mask)
        one = relu_backward(upstream, mask)
    assert np.isnan(two[0]) and one[0] == 0.0
    assert two[1] == one[1] == np.inf
