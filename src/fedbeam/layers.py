"""Layer primitives with hand-derived forward and backward passes.

Two trainable layer kinds exist: spline layers whose per-edge activation is
``w_base * silu(x) + sum_m c_m * B_m(x)``, and plain affine layers.  All
arithmetic is float64 and every backward consumes the cache produced by the
matching forward.

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
    """Parameters of one spline layer.

    spline_coeffs has shape (..., in_width, out_width, num_bases) and
    base_weights has shape (..., in_width, out_width).
    """

    spline_coeffs: np.ndarray
    base_weights: np.ndarray
    grid: SplineGrid

    @classmethod
    def initialized(
        cls, in_width: int, out_width: int, grid: SplineGrid, rng: np.random.Generator
    ) -> "KanLayerParams":
        """Draw fresh parameters; spline coefficients start near zero."""
        if in_width < 1 or out_width < 1:
            raise ConfigurationError(
                f"layer widths must be >= 1, got {in_width}x{out_width}"
            )
        coeffs = rng.uniform(
            -0.1, 0.1, size=(in_width, out_width, grid.num_bases)
        ) / np.sqrt(in_width)
        bound = np.sqrt(6.0 / in_width)
        base = rng.uniform(-bound, bound, size=(in_width, out_width))
        return cls(coeffs, base, grid)

    @property
    def in_width(self) -> int:
        return self.base_weights.shape[-2]

    @property
    def out_width(self) -> int:
        return self.base_weights.shape[-1]


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


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def _check_inputs(inputs: np.ndarray, in_width: int) -> None:
    if inputs.ndim < 2 or inputs.shape[-1] != in_width:
        raise ContractViolationError(
            f"expected inputs of shape (..., batch, {in_width}), got {inputs.shape}"
        )


def _check_upstream(upstream: np.ndarray, inputs: np.ndarray, out_width: int) -> None:
    expected = (*inputs.shape[:-1], out_width)
    if upstream.shape != expected:
        raise ContractViolationError(
            f"upstream shape {upstream.shape} does not match layer output {expected}"
        )


def _flat_coeffs(params: KanLayerParams) -> np.ndarray:
    """Spline coefficients as an (..., in_width * num_bases, out_width) matrix."""
    coeffs = params.spline_coeffs
    return coeffs.swapaxes(-1, -2).reshape(*coeffs.shape[:-3], -1, coeffs.shape[-2])


def kan_layer_forward(
    inputs: np.ndarray, params: KanLayerParams, derivative: bool = True
) -> tuple[np.ndarray, dict]:
    """Forward pass of a spline layer.

    inputs has shape (..., batch, in_width); the result has shape
    (..., batch, out_width).  The returned cache feeds kan_layer_backward.
    With ``derivative=False`` the basis derivatives are not evaluated and
    the cache holds ``dbases=None``: a backward pass over it yields the
    parameter gradients only, for a layer whose input gradient nobody reads.
    """
    _check_inputs(inputs, params.in_width)
    bases, dbases = basis_and_derivative(inputs.reshape(-1), params.grid, derivative)
    # (..., batch, in_width * num_bases), matching the rows of _flat_coeffs.
    bases = bases.reshape(*inputs.shape[:-1], -1)
    if dbases is not None:
        dbases = dbases.reshape(bases.shape)
    flat_coeffs = _flat_coeffs(params)
    sig = sigmoid(inputs)
    silu_x = inputs * sig
    out = silu_x @ params.base_weights
    out = out + bases @ flat_coeffs
    cache = {
        "inputs": inputs,
        "silu": silu_x,
        "bases": bases,
        # Read only for the inputs' gradient.
        "sigmoid": sig if derivative else None,
        "dbases": dbases,
        "flat_coeffs": flat_coeffs if derivative else None,
    }
    return out, cache


def kan_layer_backward(
    upstream: np.ndarray, params: KanLayerParams, cache: dict
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward pass; returns the gradients of (inputs, spline_coeffs, base_weights).

    A cache built with ``derivative=False`` gives None for the inputs'
    gradient and computes none of it.
    """
    x = cache["inputs"]
    _check_upstream(upstream, x, params.out_width)
    dbases = cache["dbases"]
    m = params.grid.num_bases

    d_base = cache["silu"].swapaxes(-1, -2) @ upstream
    # (..., in_width * num_bases, out_width) -> (..., in_width, out_width, num_bases)
    d_flat = cache["bases"].swapaxes(-1, -2) @ upstream
    d_coeffs = d_flat.reshape(*d_base.shape[:-1], m, -1).swapaxes(-1, -2)
    if dbases is None:
        return None, d_coeffs, d_base

    sig = cache["sigmoid"]
    # d silu(x) / dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
    silu_prime = sig * (1.0 + x * (1.0 - sig))
    d_inputs = (upstream @ params.base_weights.swapaxes(-1, -2)) * silu_prime
    d_spline = (upstream @ cache["flat_coeffs"].swapaxes(-1, -2)) * dbases
    d_inputs = d_inputs + d_spline.reshape(*x.shape, m).sum(axis=-1)
    return d_inputs, d_coeffs, d_base


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
