"""Loss, gradient clipping, and the Adam update rule.

Clipping and adam_step work on flat float64 vectors in the model's
parameter layout, in place: the training loop clips the flat gradient
buffer, and adam_step updates the model's weight buffer and the Adam
moments it is given.  The clip norm is taken per segment, and only in a
call where some row may clip: a cheaper flat sum screens the rest out
without changing a bit (see clip_gradient_norm).
A stack of models, ``(clients, parameters)``, is one row per client: every
loss, norm and clip decision is per row, and each row's arithmetic is the
same as for that client's flat vector alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ContractViolationError


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared error per batch, plus its gradient.

    For (..., n, out) predictions the loss has the leading shape (a float
    for a single (n, out) batch): the mean over each batch's n * out
    elements.  The gradient has the shape of ``predictions``:
    2 * (p - t) / (n * out).
    """
    if predictions.shape != targets.shape:
        raise ContractViolationError(
            f"prediction shape {predictions.shape} != target shape {targets.shape}"
        )
    if predictions.size == 0:
        raise ContractViolationError("cannot take the loss of an empty batch")
    diff = predictions - targets
    squares = (diff * diff).reshape(*diff.shape[:-2], -1)
    # np.mean's own arithmetic, without its Python wrapper.
    loss = np.add.reduce(squares, axis=-1) / squares.shape[-1]
    grad = (2.0 / squares.shape[-1]) * diff
    return loss, grad


# The clip screen: a row whose flat sum of squares is below max_norm**2 by
# this factor cannot clip, for rows of at most _SCREEN_PARAMETERS entries
# (see clip_gradient_norm).
_SCREEN_MARGIN = 1.0 - 1e-9
_SCREEN_PARAMETERS = 10**6
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def clip_gradient_norm(
    grads: np.ndarray, max_norm: float, segments: Iterable[np.ndarray]
) -> None:
    """Scale each row of the gradient in place so its L2 norm is <= max_norm.

    ``grads`` is ``(parameters,)`` or ``(clients, parameters)`` and
    ``segments`` are its per-segment views in layout order (see
    ``fedbeam.model.segment_views``).  The norm that decides a clip is the
    per-segment one: ``grads`` is squared once, the squares are summed one
    segment slice at a time and those partial sums added left to right,
    which fixes the floating-point summation order (a single sum over the
    flat buffer would round differently).  Rows whose norm is within
    ``max_norm`` are left untouched.

    Most calls clip no row, so a screen comes first: each row's squares
    summed in one flat pass.  If every such sum is below ``max_norm**2 *
    (1 - 1e-9)`` the call returns without the per-segment norm.  Both sums
    add the same P non-negative squares in different orders, so each lies
    within a relative (P - 1) * u / (1 - (P - 1) * u) of the exact sum (u =
    2**-53; Higham, SIAM J. Sci. Comput. 14(4), 1993).  For P <= 10**6
    that is below 1.2e-10, so a row that passes the screen has a
    per-segment sum below ``max_norm**2 * (1 - 7e-10)`` and a norm that
    rounds to at most ``max_norm``: the per-segment path would not clip it
    either, and the result is the same bits.  Longer rows, a ``max_norm**2``
    that is subnormal or overflows, and any row whose sum is NaN or
    infinite (NaN or infinite entries, overflowing squares) take the
    per-segment path, which alone decides the clip.
    """
    if not math.isfinite(max_norm) or max_norm <= 0.0:
        raise ContractViolationError(
            f"max_norm must be positive and finite, got {max_norm}"
        )
    squares = grads * grads
    # A Python float's square overflows to inf without a warning.
    bound = float(max_norm) * float(max_norm)
    if _SMALLEST_NORMAL <= bound < math.inf and grads.shape[-1] <= _SCREEN_PARAMETERS:
        largest = np.maximum.reduce(np.add.reduce(squares, axis=-1), axis=None)
        if largest < bound * _SCREEN_MARGIN:
            return
    lead = grads.ndim - 1
    total = 0.0
    start = 0
    for seg in segments:
        stop = start + math.prod(seg.shape[lead:])
        total = total + np.add.reduce(squares[..., start:stop], axis=-1)
        start = stop
    norm = np.sqrt(total)
    over = norm > max_norm
    if over.any():
        grads[over] *= (max_norm / norm[over])[:, None]


@dataclass(frozen=True, eq=False)
class AdamState:
    """Adam's moment buffers, which adam_step updates in place, and its settings.

    States compare and hash by identity: an array field has no single
    truth value.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float
    weight_decay: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, step: int) -> None:
    """Adam update number ``step`` (1 for the first), in place.

    Updates ``params``, a flat vector or a ``(clients, parameters)`` stack
    of them, and the state's moments, which may be row views of larger
    buffers.  Weight decay is folded into the gradient (decoupled decay is
    not used): g <- g + wd * theta.  Each operation rounds as in the
    textbook form, so the result is bitwise that of
    theta - lr * m_hat / (sqrt(v_hat) + eps).  A ``step`` below 1 would
    divide by 1 - beta**0 = 0 and is rejected.
    """
    if step < 1:
        raise ContractViolationError(f"Adam step numbers start at 1, got {step}")
    if params.shape != grads.shape or params.ndim not in (1, 2):
        raise ContractViolationError(
            f"params {params.shape} and grads {grads.shape} must be flat (or "
            "stacked flat) and equal"
        )
    if params.shape != state.first_moment.shape:
        raise ContractViolationError(
            f"optimizer state shaped {state.first_moment.shape} cannot update "
            f"parameters shaped {params.shape}"
        )
    m, v = state.first_moment, state.second_moment
    g = state.weight_decay * params
    g += grads
    update = (1.0 - state.beta1) * g
    m *= state.beta1
    m += update
    g *= g
    g *= 1.0 - state.beta2
    v *= state.beta2
    v += g
    np.divide(m, 1.0 - state.beta1**step, out=update)
    update *= state.learning_rate
    np.divide(v, 1.0 - state.beta2**step, out=g)
    np.sqrt(g, out=g)
    g += state.epsilon
    update /= g
    params -= update
