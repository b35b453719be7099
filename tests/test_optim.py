"""Loss, clipping, Adam, and the finite-difference oracle itself."""

import numpy as np
import pytest

from fedbeam.errors import ContractViolationError
from fedbeam.model import ModelConfig, count_parameters
from fedbeam.optim import AdamState, adam_step, clip_gradient_norm, mse_loss

from gradcheck import finite_difference_gradient
from helpers import initial_adam_state


def flat_norm(row: np.ndarray) -> np.float64:
    """The L2 norm clipping uses, as an oracle: one row's squares summed in
    one flat pass."""
    return np.sqrt(np.sum(row * row))


def test_mse_zero_when_equal():
    x = np.random.default_rng(0).standard_normal((3, 4))
    loss, grad = mse_loss(x, x.copy())
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(x))


def test_mse_hand_example():
    loss, grad = mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
    assert loss == pytest.approx(0.5)
    assert np.array_equal(grad, np.array([[1.0, 0.0]]))


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ContractViolationError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ContractViolationError):
        mse_loss(np.zeros((0, 2)), np.zeros((0, 2)))


def test_mse_grad_matches_finite_differences():
    rng = np.random.default_rng(21)
    target = rng.standard_normal((16, 4))
    pred = rng.standard_normal((16, 4))
    _, grad = mse_loss(pred, target)

    def loss_fn(flat: np.ndarray) -> float:
        value, _ = mse_loss(flat.reshape(pred.shape), target)
        return value

    fd = finite_difference_gradient(loss_fn, pred.reshape(-1))
    rel = np.max(np.abs(grad.reshape(-1) - fd) / np.maximum(np.abs(fd), 1e-6))
    assert rel < 1e-6


def test_clip_below_threshold_is_unchanged():
    g = np.array([0.3, 0.4])
    before = g.copy()
    for max_norm in (1.0, np.float64(1e300)):
        clip_gradient_norm(g, max_norm)
        assert np.array_equal(g, before)


def test_clip_hand_example():
    g = np.array([2.0, 0.0])
    clip_gradient_norm(g, 1.0)
    assert np.array_equal(g, np.array([1.0, 0.0]))


def test_clip_scales_to_max_norm():
    raw = np.random.default_rng(5).standard_normal(16)
    g = raw * (7.3 / flat_norm(raw))
    before = g.copy()
    clip_gradient_norm(g, 1.0)
    assert flat_norm(g) == pytest.approx(1.0, abs=1e-9)
    # Direction preserved.
    cosine = float(np.dot(before, g) / (np.linalg.norm(before) * np.linalg.norm(g)))
    assert cosine == pytest.approx(1.0, abs=1e-12)


def clip_by_reference(raw, max_norm):
    """``raw`` clipped one row at a time, each row's flat norm deciding it."""
    expected = raw.copy()
    for row in expected.reshape(-1, expected.shape[-1]):
        norm = flat_norm(row)
        if norm > max_norm:
            row *= max_norm / norm
    return expected


def edge_rows(size, rng):
    """(rows, max_norm) cases at the edges of the clip decision."""
    base = rng.standard_normal(size)
    norm = float(flat_norm(base))
    cases = []
    # Row norms within 1e-12 relative of max_norm, on either side, and one
    # ulp either side of it.
    near = [base * ((1.0 + d) / norm) for d in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)]
    cases.append((np.array(near), 1.0))
    for max_norm in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, np.inf)):
        cases.append((base[None].copy(), max_norm))
    # NaN and +-inf entries, and squares that overflow, beside finite rows.
    odd = np.array([base / norm * 0.5] * 5)
    odd[0, 3] = np.nan
    odd[1, -1] = np.inf
    odd[2, 0] = -np.inf
    odd[3] = base * 1e200
    cases.append((odd, 1.0))
    # A max_norm whose square is subnormal, and one whose square overflows.
    for max_norm in (1e-160, 1e300):
        scales = max_norm * 10.0 ** rng.uniform(-1.0, 1.0, (6, 1))
        rows = base / norm * scales
        if max_norm > 1.0:
            rows[0] = base * 1e200
        cases.append((rows, max_norm))
    return cases


@pytest.mark.parametrize("config", [ModelConfig.fed_kan(), ModelConfig.fed_mlp()])
def test_clip_is_bitwise_the_per_row_flat_norm(config):
    size = count_parameters(config)
    rng = np.random.default_rng(17)
    for clients in (None, 1, 4, 12):
        lead = () if clients is None else (clients,)
        for _ in range(20):
            raw = rng.standard_normal((*lead, size))
            # Row norms from 1e-8 to 1e3 around max_norm 1.
            raw *= 10.0 ** rng.uniform(-8.0, 3.0, (*lead, 1)) / np.sqrt(raw.shape[-1])
            grads = raw.copy()
            clip_gradient_norm(grads, 1.0)
            assert grads.tobytes() == clip_by_reference(raw, 1.0).tobytes()
    # The edges of the decision, each row alone and all of a case's rows stacked.
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, max_norm in edge_rows(size, rng):
            for raw in [*rows, rows]:
                grads = raw.copy()
                clip_gradient_norm(grads, max_norm)
                assert grads.tobytes() == clip_by_reference(raw, max_norm).tobytes()


def test_clip_edges_do_clip_where_the_norm_says():
    # The edge cases are not vacuous: the rows one ulp over max_norm, the
    # infinite and overflowing rows are clipped; the NaN row is not.
    cases = edge_rows(count_parameters(ModelConfig.fed_mlp()), np.random.default_rng(3))
    with np.errstate(over="ignore", invalid="ignore"):
        changed = []
        for rows, max_norm in cases:
            grads = rows.copy()
            clip_gradient_norm(grads, max_norm)
            changed.append([g.tobytes() != r.tobytes() for g, r in zip(grads, rows)])
    assert changed[1] == [True] and changed[2] == [False] and changed[3] == [False]
    assert changed[4] == [False, True, True, True, False]
    assert changed[6][0]


def test_clip_rejects_bad_max_norm():
    g = np.array([1.0, 0.0])
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ContractViolationError):
            clip_gradient_norm(g, bad)


def test_adam_zero_grad_is_identity():
    params = np.array([1.0, -2.0, 0.5])
    before = params.copy()
    adam_step(params, np.zeros(3), initial_adam_state(3, learning_rate=0.001), 1)
    assert np.array_equal(params, before)


def test_adam_first_step_identity():
    params = np.zeros(1)
    adam_step(params, np.array([0.2]), initial_adam_state(1, learning_rate=0.001), 1)
    assert abs(params[0] + 0.001) < 1e-6


def scalar_adam_oracle(theta, grads, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight transcription of the Adam recurrences for one scalar."""
    m = v = 0.0
    t = 0
    for g in grads:
        g = g + wd * theta
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (v_hat**0.5 + eps)
    return theta


def test_adam_two_steps_match_scalar_oracle():
    grads = [0.3, 0.3, -0.1, 0.25, 0.05, -0.4, 0.2, 0.0, 0.15, -0.05]
    for wd in (0.0, 1e-5):
        state = initial_adam_state(1, learning_rate=0.001, weight_decay=wd)
        params = np.array([0.7])
        for step, g in enumerate(grads, start=1):
            adam_step(params, np.array([g]), state, step)
            # The oracle applies decay to the pre-step theta each time, as adam_step does.
            theta = scalar_adam_oracle(0.7, grads[:step], 0.001, wd)
            assert abs(params[0] - theta) < 1e-12


def test_adam_state_compares_by_identity():
    a = initial_adam_state(3, 0.1)
    b = initial_adam_state(3, 0.1)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_adam_is_bitwise_deterministic():
    rng = np.random.default_rng(31)
    params = rng.standard_normal(20)
    grads = rng.standard_normal(20)
    out_a, out_b = params.copy(), params.copy()
    state_a = initial_adam_state(20, learning_rate=0.001, weight_decay=1e-5)
    state_b = initial_adam_state(20, learning_rate=0.001, weight_decay=1e-5)
    adam_step(out_a, grads, state_a, 1)
    adam_step(out_b, grads, state_b, 1)
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(state_a.first_moment, state_b.first_moment)
    assert np.array_equal(state_a.second_moment, state_b.second_moment)


def test_adam_rejects_a_step_below_one():
    for step in (0, -1):
        params = np.array([1.0, -2.0])
        state = initial_adam_state(2, learning_rate=0.001)
        with pytest.raises(ContractViolationError):
            adam_step(params, np.array([0.5, 0.5]), state, step)
        assert np.array_equal(params, [1.0, -2.0])
        assert not state.first_moment.any() and not state.second_moment.any()


def test_adam_rejects_length_mismatch():
    state = initial_adam_state(3, learning_rate=0.001)
    with pytest.raises(ContractViolationError):
        adam_step(np.zeros(4), np.zeros(4), state, 1)
    with pytest.raises(ContractViolationError):
        adam_step(np.zeros(3), np.zeros(4), state, 1)


def test_stacked_rows_match_each_row_alone():
    rng = np.random.default_rng(41)
    # Row 0 is clipped, row 1 is left alone, row 2 is clipped.
    grads = rng.standard_normal((3, 16)) * np.array([[5.0], [0.01], [3.0]])
    params = rng.standard_normal((3, 16))
    preds, targets = rng.standard_normal((2, 3, 7, 4))

    losses, loss_grad = mse_loss(preds, targets)
    stacked = grads.copy()
    clip_gradient_norm(stacked, 1.0)
    new_params = params.copy()
    state = initial_adam_state((3, 16), learning_rate=0.01, weight_decay=1e-5)
    adam_step(new_params, stacked, state, 1)
    # Adam on the row view [1:3] of shared buffers writes only those rows.
    shared = initial_adam_state((3, 16), learning_rate=0.01, weight_decay=1e-5)
    shared_params = params.copy()
    rows = AdamState(shared.first_moment[1:3], shared.second_moment[1:3], 0.01, 1e-5)
    adam_step(shared_params[1:3], stacked[1:3], rows, 1)
    assert np.array_equal(shared_params[0], params[0])
    assert not shared.first_moment[0].any() and not shared.second_moment[0].any()
    assert losses.shape == (3,)
    for c in range(3):
        loss_c, grad_c = mse_loss(preds[c], targets[c])
        assert losses[c] == loss_c and np.array_equal(loss_grad[c], grad_c)
        row = grads[c].copy()
        clip_gradient_norm(row, 1.0)
        assert np.array_equal(stacked[c], row)
        params_c = params[c].copy()
        alone = initial_adam_state(16, learning_rate=0.01, weight_decay=1e-5)
        adam_step(params_c, row, alone, 1)
        for stepped, moments in [(new_params, state), (shared_params, shared)][: 1 + (c > 0)]:
            assert np.array_equal(stepped[c], params_c)
            assert np.array_equal(moments.first_moment[c], alone.first_moment)
            assert np.array_equal(moments.second_moment[c], alone.second_moment)
    assert np.array_equal(stacked[1], grads[1])


def test_finite_differences_on_quadratic():
    grad = finite_difference_gradient(lambda p: float(p[0] ** 2), np.array([3.0]))
    assert abs(grad[0] - 6.0) < 1e-6


def test_finite_differences_on_constant():
    grad = finite_difference_gradient(lambda p: 4.25, np.array([1.0, -2.0, 0.3]))
    assert np.max(np.abs(grad)) < 1e-9
