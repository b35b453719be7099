"""Uniform B-spline grids and basis evaluation.

A grid with ``intervals`` segments and spline order ``order`` over
[range_min, range_max] carries an extended knot sequence (``order`` extra
knots padded beyond each end with the same spacing) and therefore
``intervals + order`` basis functions.  Bases are evaluated with the
Cox-de Boor recurrence; inputs outside the grid range are clamped to the
range boundary before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Relative tolerance on knot spacing uniformity.
_SPACING_RTOL = 1e-12


@dataclass(frozen=True)
class SplineGrid:
    """Extended uniform knot grid for B-splines on [range_min, range_max]."""

    range_min: float
    range_max: float
    intervals: int
    order: int
    knots: np.ndarray

    @classmethod
    def uniform(
        cls,
        intervals: int,
        order: int,
        range_min: float = -1.0,
        range_max: float = 1.0,
    ) -> "SplineGrid":
        """Build the canonical evenly spaced grid for the given resolution."""
        if intervals < 1:
            raise ConfigurationError(f"grid intervals must be >= 1, got {intervals}")
        if order < 0:
            raise ConfigurationError(f"spline order must be >= 0, got {order}")
        if not range_max > range_min:
            raise ConfigurationError(
                f"grid range is empty: [{range_min}, {range_max}]"
            )
        spacing = (range_max - range_min) / intervals
        knots = range_min + spacing * np.arange(
            -order, intervals + order + 1, dtype=np.float64
        )
        return cls(float(range_min), float(range_max), int(intervals), int(order), knots)

    @property
    def num_bases(self) -> int:
        return self.intervals + self.order

    def validate(self) -> None:
        """Raise ConfigurationError unless the knot sequence is well-formed."""
        expected = self.intervals + 2 * self.order + 1
        if self.knots.ndim != 1 or self.knots.shape[0] != expected:
            raise ConfigurationError(
                f"knot sequence must have {expected} entries, got {self.knots.shape}"
            )
        steps = np.diff(self.knots)
        if not np.all(steps > 0):
            raise ConfigurationError("knot sequence must be strictly increasing")
        spacing = (self.range_max - self.range_min) / self.intervals
        if np.max(np.abs(steps - spacing)) > _SPACING_RTOL * max(abs(spacing), 1.0):
            raise ConfigurationError("knots must be evenly spaced")


def basis_matrix(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Evaluate all basis functions at each point of ``x``.

    Returns an array of shape (len(x), grid.num_bases).  Values are
    non-negative and sum to 1 for points inside the grid range; points
    outside are clamped first.
    """
    grid.validate()
    t = grid.knots
    xc = np.clip(np.asarray(x, dtype=np.float64), grid.range_min, grid.range_max)
    # Order-0 indicators over the half-open knot intervals.  The padding
    # knots beyond range_max keep the indicator at x == range_max inside
    # the recursion's reach.
    b = ((xc[:, None] >= t[None, :-1]) & (xc[:, None] < t[None, 1:])).astype(np.float64)
    for d in range(1, grid.order + 1):
        left = (xc[:, None] - t[None, : -(d + 1)]) / (t[None, d:-1] - t[None, : -(d + 1)])
        right = (t[None, d + 1 :] - xc[:, None]) / (t[None, d + 1 :] - t[None, 1:-d])
        b = left * b[:, :-1] + right * b[:, 1:]
    return b


def basis_and_derivative(x: np.ndarray, grid: SplineGrid) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate bases and their derivatives with respect to the input.

    The derivative uses the standard order-lowering difference formula.
    Clamped points contribute zero derivative (the clamp is flat outside
    the range), which is what a layer backward pass needs.
    """
    grid.validate()
    t = grid.knots
    k = grid.order
    x = np.asarray(x, dtype=np.float64)
    inside = (x >= grid.range_min) & (x <= grid.range_max)
    xc = np.clip(x, grid.range_min, grid.range_max)

    b = ((xc[:, None] >= t[None, :-1]) & (xc[:, None] < t[None, 1:])).astype(np.float64)
    b_lower = b
    for d in range(1, k + 1):
        b_lower = b
        left = (xc[:, None] - t[None, : -(d + 1)]) / (t[None, d:-1] - t[None, : -(d + 1)])
        right = (t[None, d + 1 :] - xc[:, None]) / (t[None, d + 1 :] - t[None, 1:-d])
        b = left * b[:, :-1] + right * b[:, 1:]

    if k == 0:
        deriv = np.zeros_like(b)
    else:
        # b_lower holds the order-(k-1) bases, one column wider than b.
        denom_left = t[k:-1] - t[: -(k + 1)]
        denom_right = t[k + 1 :] - t[1:-k]
        deriv = k * (b_lower[:, :-1] / denom_left - b_lower[:, 1:] / denom_right)
        deriv = deriv * inside[:, None]
    return b, deriv
