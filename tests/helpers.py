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


def dense_derivative(shape: tuple[int, ...], terms: tuple) -> np.ndarray:
    """Derivative terms scattered into a zero plane of the given shape.

    ``terms`` are ``basis_and_derivative``'s (derivatives, flat positions),
    whose plane is the values plane's shape, or ``kan_plane``'s, which add
    ``silu'`` per input for slot 0 of that input's slots.  The result holds
    each derivative where its basis sits in the values plane and zero in
    every other slot.
    """
    dense = np.zeros(shape)
    pieces, index, *silu = terms
    dense.reshape(-1)[index] = pieces
    for dsilu in silu:
        dense.reshape(*dsilu.shape, -1)[..., 0] = dsilu
    return dense


def initial_adam_state(
    shape: int | tuple[int, ...], learning_rate: float, weight_decay: float = 0.0
) -> AdamState:
    """Adam state with zero moments for parameters of this shape."""
    return AdamState(np.zeros(shape), np.zeros(shape), learning_rate, weight_decay)
