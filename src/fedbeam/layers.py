"""Layer primitives with hand-derived forward and backward passes.

Two trainable layer kinds exist: spline layers whose per-edge activation is
``w_base * silu(x) + sum_m c_m * B_m(x)``, and plain affine layers.  A
spline layer treats ``silu`` as one more basis: it evaluates every input's
``silu`` and bases into one plane (``kan_plane``) and multiplies that by
one weight block (``kan_product``); a plane built in advance can be
multiplied directly.
All arithmetic is float64 and every backward consumes the cache produced by
the matching forward.

Every layer also accepts a stack of batches: inputs of shape
``(clients, batch, width)`` with parameters carrying the same leading
``clients`` axis train that many independent models at once.  Each
contraction is a stacked ``matmul`` that runs the same BLAS call per
client as the unstacked layer, so client ``c``'s slice of every result is
bitwise equal to running client ``c`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .splines import SplineGrid, basis_and_derivative

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass(frozen=True, eq=False)
class KanLayerParams:
    """Parameters of one spline layer: one weight block in the product's order.

    ``weights`` has shape (..., in_width, num_bases + 1, out_width).  Slot 0
    of each input's group is its base weight (the ``silu`` term), slots
    1..num_bases its spline coefficients, so the block flattens to the
    (in_width * (num_bases + 1), out_width) matrix of the forward product
    as a view.
    """

    weights: np.ndarray
    grid: SplineGrid

    @classmethod
    def initialized(
        cls, in_width: int, out_width: int, grid: SplineGrid, rng: np.random.Generator
    ) -> "KanLayerParams":
        """Draw fresh parameters; spline coefficients start near zero.

        The coefficients are drawn as (in, out, num_bases), then the base
        weights as (in, out), and both are placed into the block.
        """
        if in_width < 1 or out_width < 1:
            raise ConfigurationError(
                f"layer widths must be >= 1, got {in_width}x{out_width}"
            )
        coeffs = rng.uniform(
            -0.1, 0.1, size=(in_width, out_width, grid.num_bases)
        ) / np.sqrt(in_width)
        bound = np.sqrt(6.0 / in_width)
        base = rng.uniform(-bound, bound, size=(in_width, out_width))
        weights = np.empty((in_width, grid.num_bases + 1, out_width))
        weights[:, 0] = base
        weights[:, 1:] = coeffs.swapaxes(-1, -2)
        return cls(weights, grid)

    @property
    def in_width(self) -> int:
        return self.weights.shape[-3]

    @property
    def out_width(self) -> int:
        return self.weights.shape[-1]


@dataclass(frozen=True, eq=False)
class LinearLayerParams:
    """Affine layer: out = x @ weights.T + biases.

    weights has shape (..., out_width, in_width) and biases (..., out_width).
    """

    weights: np.ndarray
    biases: np.ndarray

    @classmethod
    def initialized(
        cls, in_width: int, out_width: int, rng: np.random.Generator
    ) -> "LinearLayerParams":
        if in_width < 1 or out_width < 1:
            raise ConfigurationError(
                f"layer widths must be >= 1, got {in_width}x{out_width}"
            )
        bound = np.sqrt(6.0 / in_width)
        weights = rng.uniform(-bound, bound, size=(out_width, in_width))
        biases = np.zeros(out_width, dtype=np.float64)
        return cls(weights, biases)

    @property
    def in_width(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[-2]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    exp only ever sees -|x|: 1 / (1 + e) for x >= 0, e / (1 + e) below.
    ``minimum(x, -x)`` rather than ``-abs(x)`` passes a NaN through with
    its sign.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _check_inputs(inputs: np.ndarray, in_width: int) -> None:
    if inputs.ndim < 2 or inputs.shape[-1] != in_width:
        raise ContractViolationError(
            f"expected inputs of shape (..., batch, {in_width}), got {inputs.shape}"
        )


def _check_upstream(upstream: np.ndarray, cached: np.ndarray, out_width: int) -> None:
    """``cached`` is the layer's inputs or plane: its rows are the output's rows."""
    expected = (*cached.shape[:-1], out_width)
    if upstream.shape != expected:
        raise ContractViolationError(
            f"upstream shape {upstream.shape} does not match layer output {expected}"
        )


def kan_plane(
    inputs: np.ndarray, grid: SplineGrid, derivative: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """The plane a spline layer multiplies by its weight block, and its derivative.

    inputs has shape (..., batch, in_width); the plane has shape
    (..., batch, in_width * (num_bases + 1)), matching the rows of the
    block: each input gets num_bases + 1 slots, ``silu(x)`` in slot 0 and
    its bases after it.  With ``derivative`` the second plane holds
    ``silu'(x)`` in slot 0 and the basis derivatives after it; otherwise it
    is None and no derivative is computed.  The plane depends on the inputs
    and the grid alone, and each row's bits on that row alone, so a plane
    built once over fixed features serves every batch gathered from it.
    """
    plane, dplane = basis_and_derivative(inputs.reshape(-1), grid, derivative, pad=1)
    slots = (*inputs.shape, -1)
    sig = sigmoid(inputs)
    np.multiply(inputs, sig, out=plane.reshape(slots)[..., 0])
    if dplane is not None:
        # d silu(x) / dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
        np.multiply(sig, 1.0 + inputs * (1.0 - sig), out=dplane.reshape(slots)[..., 0])
        dplane = dplane.reshape(*inputs.shape[:-1], -1)
    return plane.reshape(*inputs.shape[:-1], -1), dplane


def kan_product(
    plane: np.ndarray, params: KanLayerParams, dplane: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """A spline layer's output from its plane: one product with the weight block.

    The returned cache feeds kan_layer_backward; ``dplane`` None (a plane
    built without derivatives) gives a backward pass that yields the weight
    gradient only.
    """
    w = params.weights
    out = plane @ w.reshape(*w.shape[:-3], -1, w.shape[-1])
    return out, {"plane": plane, "dplane": dplane}


def kan_layer_forward(
    inputs: np.ndarray, params: KanLayerParams, derivative: bool = True
) -> tuple[np.ndarray, dict]:
    """Forward pass of a spline layer: build its plane, then take the product.

    inputs has shape (..., batch, in_width); the result has shape
    (..., batch, out_width).  With ``derivative=False`` the basis
    derivatives are not evaluated and the cache holds ``dplane=None``: a
    backward pass over it yields the weight gradient only, for a layer
    whose input gradient nobody reads.
    """
    _check_inputs(inputs, params.in_width)
    plane, dplane = kan_plane(inputs, params.grid, derivative)
    return kan_product(plane, params, dplane)


def kan_layer_backward(
    upstream: np.ndarray, params: KanLayerParams, cache: dict
) -> tuple[np.ndarray | None, np.ndarray]:
    """Backward pass; returns the gradients of (inputs, weights).

    A cache built with ``derivative=False`` gives None for the inputs'
    gradient and computes none of it.
    """
    plane = cache["plane"]
    _check_upstream(upstream, plane, params.out_width)
    w = params.weights
    d_weights = (plane.swapaxes(-1, -2) @ upstream).reshape(w.shape)
    dplane = cache["dplane"]
    if dplane is None:
        return None, d_weights
    # Each input's gradient sums its num_bases + 1 slots.
    flat = w.reshape(*w.shape[:-3], -1, w.shape[-1])
    d_plane = (upstream @ flat.swapaxes(-1, -2)) * dplane
    return d_plane.reshape(*plane.shape[:-1], params.in_width, -1).sum(axis=-1), d_weights


def linear_forward(
    inputs: np.ndarray, params: LinearLayerParams
) -> tuple[np.ndarray, dict]:
    _check_inputs(inputs, params.in_width)
    out = inputs @ params.weights.swapaxes(-1, -2) + params.biases[..., None, :]
    return out, {"inputs": inputs}


def linear_backward(
    upstream: np.ndarray, params: LinearLayerParams, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; returns the gradients of (inputs, weights, biases)."""
    x = cache["inputs"]
    _check_upstream(upstream, x, params.out_width)
    d_weights = upstream.swapaxes(-1, -2) @ x
    d_biases = upstream.sum(axis=-2)
    d_inputs = upstream @ params.weights
    return d_inputs, d_weights, d_biases


def relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (output, mask); the mask is reused by the backward pass."""
    mask = x > 0
    return x * mask, mask


def relu_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask


def dropout(
    inputs: np.ndarray,
    drop_prob: float,
    mode: str,
    rng: np.random.Generator | Sequence[np.random.Generator] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout.  Eval mode (or drop_prob 0) is the identity with an
    all-ones mask and draws nothing from rng.

    For a stack of batches, ``rng`` may be one generator per entry of the
    leading axis; each then draws its own batch's mask, exactly as it would
    for that batch alone.
    """
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {drop_prob}")
    if mode == MODE_EVAL or drop_prob == 0.0:
        mask = np.ones_like(inputs)
        return inputs, mask
    if mode != MODE_TRAIN:
        raise ConfigurationError(f"unknown mode {mode!r}")
    keep = 1.0 - drop_prob
    if isinstance(rng, np.random.Generator):
        draws = rng.random(inputs.shape)
    else:
        if len(rng) != inputs.shape[0]:
            raise ContractViolationError(
                f"{len(rng)} generators cannot draw masks for a stack of {inputs.shape[0]}"
            )
        draws = np.empty(inputs.shape)
        for row, r in zip(draws, rng):
            r.random(out=row)
    mask = (draws < keep).astype(np.float64) / keep
    return inputs * mask, mask


def dropout_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask
