"""Shorthands that only the tests call."""

from __future__ import annotations

import numpy as np

from fedbeam.optim import AdamState
from fedbeam.splines import SplineGrid, basis_and_derivative


def basis_matrix(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Evaluate all basis functions at each point of ``x``.

    Returns an array of shape (len(x), grid.num_bases).  Values are
    non-negative and sum to 1 for points inside the grid range; points
    outside are clamped first.
    """
    return basis_and_derivative(x, grid, derivative=False)[0]


def initial_adam_state(
    shape: int | tuple[int, ...], learning_rate: float, weight_decay: float = 0.0
) -> AdamState:
    """Adam state with zero moments for parameters of this shape."""
    return AdamState(np.zeros(shape), np.zeros(shape), learning_rate, weight_decay)
