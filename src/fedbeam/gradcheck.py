"""Central finite-difference gradients for checking analytic backprop.

Both forms probe the loss at the same points; the stacked form hands all
of them to one loss call, so a model can evaluate them in one stacked
forward pass.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def stacked_finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], np.ndarray],
    params: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Estimate d loss / d params by central differences in one loss call.

    loss_fn takes a ``(2 P, P)`` matrix of probes and returns one loss per
    row: row ``2 i`` is ``params`` with entry ``i`` raised by ``step``, row
    ``2 i + 1`` the same entry lowered by it.
    """
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    index = np.arange(params.size)
    rows = np.tile(params, (2 * params.size, 1))
    rows[2 * index, index] = params + step
    rows[2 * index + 1, index] = params - step
    losses = np.asarray(loss_fn(rows), dtype=np.float64)
    return (losses[0::2] - losses[1::2]) / (2.0 * step)


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Estimate d loss / d params by central differences.

    loss_fn must be a pure function of the flat parameter vector it is
    handed; it is called 2 * len(params) times, once per probe.
    """
    return stacked_finite_difference_gradient(
        lambda rows: [loss_fn(row) for row in rows], params, step
    )
