"""Layer primitives with hand-derived forward and backward passes.

Two trainable layer kinds exist: spline layers whose per-edge activation is
``w_base * silu(x) + sum_m c_m * B_m(x)``, and plain affine layers.  All
arithmetic is float64 and every backward consumes the cache produced by the
matching forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .splines import SplineGrid, basis_and_derivative

MODE_TRAIN = "train"
MODE_EVAL = "eval"


@dataclass(frozen=True)
class KanLayerParams:
    """Parameters of one spline layer.

    spline_coeffs has shape (in_width, out_width, num_bases) and
    base_weights has shape (in_width, out_width).
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
        return self.base_weights.shape[0]

    @property
    def out_width(self) -> int:
        return self.base_weights.shape[1]


@dataclass(frozen=True)
class LinearLayerParams:
    """Affine layer: out = x @ weights.T + biases."""

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
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def _flat_coeffs(params: KanLayerParams) -> np.ndarray:
    """Spline coefficients as an (in_width * num_bases, out_width) matrix."""
    coeffs = params.spline_coeffs
    return coeffs.transpose(0, 2, 1).reshape(-1, coeffs.shape[1])


def kan_layer_forward(
    inputs: np.ndarray, params: KanLayerParams
) -> tuple[np.ndarray, dict]:
    """Forward pass of a spline layer.

    inputs has shape (batch, in_width); the result has shape
    (batch, out_width).  The returned cache feeds kan_layer_backward.
    """
    if inputs.ndim != 2 or inputs.shape[1] != params.in_width:
        raise ContractViolationError(
            f"expected inputs of shape (batch, {params.in_width}), got {inputs.shape}"
        )
    n = inputs.shape[0]
    bases, dbases = basis_and_derivative(inputs.reshape(-1), params.grid)
    # (batch, in_width * num_bases), matching the rows of _flat_coeffs.
    bases = bases.reshape(n, -1)
    dbases = dbases.reshape(n, -1)
    sig = sigmoid(inputs)
    silu_x = inputs * sig
    out = silu_x @ params.base_weights
    out = out + bases @ _flat_coeffs(params)
    cache = {
        "inputs": inputs,
        "sigmoid": sig,
        "silu": silu_x,
        "bases": bases,
        "dbases": dbases,
    }
    return out, cache


def kan_layer_backward(
    upstream: np.ndarray, params: KanLayerParams, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; returns the gradients of (inputs, spline_coeffs, base_weights)."""
    if upstream.shape != (cache["inputs"].shape[0], params.out_width):
        raise ContractViolationError(
            f"upstream shape {upstream.shape} does not match layer output "
            f"({cache['inputs'].shape[0]}, {params.out_width})"
        )
    x = cache["inputs"]
    sig = cache["sigmoid"]
    bases = cache["bases"]
    dbases = cache["dbases"]

    n, w = x.shape
    m = params.grid.num_bases

    d_base = cache["silu"].T @ upstream
    # (in_width * num_bases, out_width) -> (in_width, out_width, num_bases)
    d_coeffs = (bases.T @ upstream).reshape(w, m, -1).transpose(0, 2, 1)

    # d silu(x) / dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
    silu_prime = sig * (1.0 + x * (1.0 - sig))
    d_inputs = (upstream @ params.base_weights.T) * silu_prime
    d_spline = (upstream @ _flat_coeffs(params).T) * dbases
    d_inputs = d_inputs + d_spline.reshape(n, w, m).sum(axis=2)
    return d_inputs, d_coeffs, d_base


def linear_forward(
    inputs: np.ndarray, params: LinearLayerParams
) -> tuple[np.ndarray, dict]:
    if inputs.ndim != 2 or inputs.shape[1] != params.in_width:
        raise ContractViolationError(
            f"expected inputs of shape (batch, {params.in_width}), got {inputs.shape}"
        )
    out = inputs @ params.weights.T + params.biases
    return out, {"inputs": inputs}


def linear_backward(
    upstream: np.ndarray, params: LinearLayerParams, cache: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; returns the gradients of (inputs, weights, biases)."""
    x = cache["inputs"]
    if upstream.shape != (x.shape[0], params.out_width):
        raise ContractViolationError(
            f"upstream shape {upstream.shape} does not match layer output "
            f"({x.shape[0]}, {params.out_width})"
        )
    d_weights = upstream.T @ x
    d_biases = upstream.sum(axis=0)
    d_inputs = upstream @ params.weights
    return d_inputs, d_weights, d_biases


def relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (output, mask); the mask is reused by the backward pass."""
    mask = x > 0
    return x * mask, mask


def relu_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask


def dropout(
    inputs: np.ndarray, drop_prob: float, mode: str, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Inverted dropout.  Eval mode (or drop_prob 0) is the identity with an
    all-ones mask and draws nothing from rng."""
    if not 0.0 <= drop_prob < 1.0:
        raise ConfigurationError(f"dropout probability must be in [0, 1), got {drop_prob}")
    if mode == MODE_EVAL or drop_prob == 0.0:
        mask = np.ones_like(inputs)
        return inputs, mask
    if mode != MODE_TRAIN:
        raise ConfigurationError(f"unknown mode {mode!r}")
    keep = 1.0 - drop_prob
    mask = (rng.random(inputs.shape) < keep).astype(np.float64) / keep
    return inputs * mask, mask


def dropout_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask
