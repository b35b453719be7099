"""Loss, gradient clipping, and the Adam update rule.

Clipping and adam_step work on flat float64 vectors in place, and need
not know the model's parameter layout: the training loop clips the flat
gradient buffer by its L2 norm, and adam_step updates the model's weight
buffer and the Adam moments it is given.
A stack of models, ``(clients, parameters)``, is one row per client: every
loss, norm and clip decision is per row, and each row's arithmetic is the
same as for that client's flat vector alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def clip_gradient_norm(grads: np.ndarray, max_norm: float) -> None:
    """Scale each row of the gradient in place so its L2 norm is <= max_norm.

    ``grads`` is ``(parameters,)`` or ``(clients, parameters)``.  A row's
    norm is the square root of its flat sum of squares (``np.add.reduce``,
    NumPy's pairwise sum).  A row whose norm is above ``max_norm`` is
    scaled by ``max_norm / norm``; the others, a NaN norm included, are
    left untouched.
    """
    if not math.isfinite(max_norm) or max_norm <= 0.0:
        raise ContractViolationError(
            f"max_norm must be positive and finite, got {max_norm}"
        )
    norm = np.sqrt(np.add.reduce(grads * grads, axis=-1))
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
