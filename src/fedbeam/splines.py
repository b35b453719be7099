"""Uniform B-spline grids and basis evaluation.

A grid with ``intervals`` segments and spline order ``order`` over
[range_min, range_max] carries an extended knot sequence (``order`` extra
knots padded beyond each end with the same spacing) and therefore
``intervals + order`` basis functions.

On uniform knots every basis is a shifted copy of one cardinal B-spline,
and on each knot interval only ``order + 1`` bases are nonzero.  Evaluation
clamps inputs to the grid range, finds each input's knot interval by a
binary search over the interior knots (so the search never leaves the real
intervals and needs no clamping of its own) and its local coordinate ``u``
in [0, 1], and evaluates the nonzero bases as polynomials in ``u`` whose
coefficients come from the truncated-power form of the cardinal B-spline.
The last real interval is closed, so ``range_max`` and every input clamped
there get a full set of bases.  Everything that depends on the order alone
(the coefficient blocks, row offsets and exponents) is built once per order
and cached.

The derivatives with respect to the input come from the same powers of
``u`` and are only computed when asked for: a forward pass whose input
gradient nobody reads evaluates the values alone.  Values and derivatives
are laid out one ``(order + 1, n)`` row per nonzero basis and scattered
into their dense planes through one shared index.  A caller may ask for
leading free slots in every row of those planes (a spline layer keeps
``silu`` there), so the bases land where the layer's product reads them
without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial

import numpy as np

from .errors import ConfigurationError, ContractViolationError


@dataclass(frozen=True, eq=False)
class SplineGrid:
    """Extended uniform knot grid for B-splines on [range_min, range_max].

    A grid is its four numbers.  They are checked, and the read-only knots
    derived from them, once, when the grid is built, so a grid that exists
    is well-formed.  Grids compare and hash by identity: an array field has
    no single truth value.
    """

    range_min: float
    range_max: float
    intervals: int
    order: int
    knots: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ConfigurationError(f"grid intervals must be >= 1, got {self.intervals}")
        if self.order < 0:
            raise ConfigurationError(f"spline order must be >= 0, got {self.order}")
        if not self.range_max > self.range_min:
            raise ConfigurationError(
                f"grid range is empty: [{self.range_min}, {self.range_max}]"
            )
        knots = self.range_min + self.spacing * np.arange(
            -self.order, self.intervals + self.order + 1, dtype=np.float64
        )
        knots.flags.writeable = False
        object.__setattr__(self, "knots", knots)

    @classmethod
    def uniform(
        cls,
        intervals: int,
        order: int,
        range_min: float = -1.0,
        range_max: float = 1.0,
    ) -> "SplineGrid":
        """Build the canonical evenly spaced grid for the given resolution."""
        return cls(range_min, range_max, intervals, order)

    @property
    def num_bases(self) -> int:
        return self.intervals + self.order

    @property
    def spacing(self) -> float:
        return (self.range_max - self.range_min) / self.intervals


# The piece matrix divides by order!, and 171! overflows a float64.
MAX_SPLINE_ORDER = 170


@cache
def _piece_matrix(order: int) -> np.ndarray:
    """Polynomial pieces of the cardinal B-spline of the given order.

    On a knot interval with local coordinate u, the r-th nonzero basis is
    N(u + order - r), where N is the cardinal B-spline supported on
    [0, order + 1].  Row p holds the coefficients of ``u**p``: column r for
    the value of that basis, column order + 1 + r for its d/du.  They come
    from the truncated-power form
    N(t) = sum_j (-1)**j C(order+1, j) (t - j)_+**order / order!,
    whose terms are integers until the final division.
    """
    k = order
    scaled = np.array(
        [
            [
                sum(
                    (-1) ** j * comb(k + 1, j) * comb(k, p) * (k - r - j) ** (k - p)
                    for j in range(k - r + 1)
                )
                for r in range(k + 1)
            ]
            for p in range(k + 1)
        ],
        dtype=np.float64,
    )
    derivs = np.zeros_like(scaled)
    derivs[:-1] = scaled[1:] * np.arange(1, k + 1)[:, None]
    pieces = np.hstack([scaled, derivs]) / factorial(k)
    pieces.flags.writeable = False
    return pieces


@cache
def _order_constants(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What every evaluation at this order reuses, built once.

    The contiguous transposed value and derivative blocks of the piece
    matrix, the ``(order + 1, 1)`` row-offset column, and the column of
    exponents 2..order for ``pow``.
    """
    pieces = _piece_matrix(order)
    constants = (
        np.ascontiguousarray(pieces[:, : order + 1].T),
        np.ascontiguousarray(pieces[:, order + 1 :].T),
        np.arange(order + 1)[:, None],
        np.arange(2.0, order + 1)[:, None],
    )
    for array in constants:
        array.flags.writeable = False
    return constants


def basis_and_derivative(
    x: np.ndarray,
    grid: SplineGrid,
    derivative: bool = True,
    pad: int = 0,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Evaluate bases and, if asked, their derivatives with respect to the input.

    Returns two arrays of shape (len(x), pad + grid.num_bases): the first
    ``pad`` slots of each row are left zero for the caller to fill, and the
    bases follow in order.  With ``derivative=False`` the second is None and
    no derivative is computed.  ``out``, a C-contiguous float64 array of the
    first result's shape, receives the values in place of a new array (its
    pad slots are zeroed too) and is returned.
    The values are the same bits either way, and a point's bits do not
    depend on the other points evaluated with it.  Clamped points
    contribute zero derivative (the clamp is flat outside the range), which
    is what a layer backward pass needs.  On a knot the derivative is the
    one-sided derivative of the interval the point belongs to.

    A point's interval comes from a binary search over the grid's interior
    knots alone, so it lands in the real intervals without clamping: NaN
    and anything at or past the last interior knot fall in the last one.
    The piece blocks, row offsets and exponents come from a per-order
    cache.
    """
    k = grid.order
    width = pad + grid.num_bases
    values, derivs, rows, exponents = _order_constants(k)
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if out is not None and (
        out.shape != (n, width) or out.dtype != np.float64 or not out.flags.c_contiguous
    ):
        raise ContractViolationError(
            f"bases are written into a C-contiguous float64 array of shape "
            f"{(n, width)}, got {out.dtype} {out.shape}"
        )
    xc = np.minimum(np.maximum(x, grid.range_min), grid.range_max)
    # Interval s (counted from the first real knot) holds
    # knots[k + s] <= xc < knots[k + s + 1]; range_max joins the last one.
    real = grid.knots[k : k + grid.intervals]
    s = real[1:].searchsorted(xc, side="right")
    u = (xc - real[s]) / grid.spacing

    # powers[p] = u**p (row 1 is a slice: an order-0 grid has none).  u**0
    # is 1 and u**1 is u exactly, so pow runs from p = 2, over an exponent
    # array: NumPy computes a scalar exponent 2 as u * u, which can round
    # differently from pow.  A lone point gets a second, equal column: a
    # one-column product goes to gemv, which can round differently from the
    # gemm that every other n takes.
    columns = 2 if n == 1 else n
    powers = np.empty((k + 1, columns))
    powers[0] = 1.0
    powers[1:2] = u
    np.power(u, exponents.repeat(columns, axis=1), out=powers[2:])
    # Row r of a piece product is the r-th nonzero basis of every point; it
    # lands on basis s + r of that point's row, after the row's pad slots.
    s += np.arange(pad, n * width, width)
    index = s + rows

    pieces = (values @ powers)[:, :n]
    # A piece that vanishes at an interval end can round to -1e-17 there;
    # the bases are non-negative.
    np.maximum(pieces, 0.0, out=pieces)
    if out is None:
        bases = np.zeros((n, width))
    else:
        bases = out
        bases.fill(0.0)
    bases.reshape(-1)[index] = pieces
    if not derivative:
        return bases, None
    pieces = (derivs @ powers)[:, :n]
    # d/du -> d/dx; clamped points get zero.
    pieces *= (x == xc) / grid.spacing
    dbases = np.zeros((n, width))
    dbases.reshape(-1)[index] = pieces
    return bases, dbases


def basis_matrix(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Evaluate all basis functions at each point of ``x``.

    Returns an array of shape (len(x), grid.num_bases).  Values are
    non-negative and sum to 1 for points inside the grid range; points
    outside are clamped first.
    """
    return basis_and_derivative(x, grid, derivative=False)[0]
