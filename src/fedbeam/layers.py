"""Layer primitives with hand-derived forward and backward passes.

Two trainable layer kinds exist: spline layers whose per-edge activation is
``w_base * silu(x) + sum_m c_m * B_m(x)``, and plain affine layers.  A
spline layer treats ``silu`` as one more basis: it evaluates every input's
``silu`` and bases into one plane (``kan_plane``) and multiplies that by
one weight block (``kan_product``); a plane built in advance can be
multiplied directly.
A hidden affine layer's ReLU and dropout are one elementwise mask
(``relu`` with a dropout ``scale``), whose product gives the same bits as
the two applied in turn.
All arithmetic is float64 and every backward consumes the cache produced by
the matching forward.  A backward writes its parameter gradients with
``out=`` into the arrays it is given (in training, the segment views of the
gradient buffer, so no copy follows) and returns only the input gradient;
a view's bits are those of a new array.

Every layer also accepts a stack of batches: inputs of shape
``(clients, batch, width)`` with parameters carrying the same leading
``clients`` axis train that many independent models at once.  Each
contraction is a stacked ``matmul`` that runs the same BLAS call per
client as the unstacked layer, so client ``c``'s slice of every result is
bitwise equal to running client ``c`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .splines import SplineGrid, basis_and_derivative


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
    inputs: np.ndarray,
    grid: SplineGrid,
    derivative: bool = False,
    out: np.ndarray | None = None,
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
    ``out``, a C-contiguous float64 array of the plane's shape, is filled
    with the plane and returned as it.
    """
    if out is not None:
        if not out.flags.c_contiguous:
            raise ContractViolationError("a plane is written into a C-contiguous array")
        out = out.reshape(-1, grid.num_bases + 1)
    plane, dplane = basis_and_derivative(inputs.reshape(-1), grid, derivative, 1, out)
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
    upstream: np.ndarray, params: KanLayerParams, cache: dict, d_weights: np.ndarray
) -> np.ndarray | None:
    """Backward pass: writes the weights' gradient into ``d_weights`` and
    returns the inputs' gradient.

    ``d_weights`` has the weights' shape and must reshape to the flat
    ``(..., in_width * (num_bases + 1), out_width)`` block without a copy,
    as a segment view of a gradient buffer does: the product is written
    through that reshaped view.  A cache built with ``derivative=False``
    gives None for the inputs' gradient and computes none of it.
    """
    plane = cache["plane"]
    _check_upstream(upstream, plane, params.out_width)
    w = params.weights
    flat = w.reshape(*w.shape[:-3], -1, w.shape[-1])
    np.matmul(plane.swapaxes(-1, -2), upstream, out=d_weights.reshape(flat.shape))
    dplane = cache["dplane"]
    if dplane is None:
        return None
    # Each input's gradient sums its num_bases + 1 slots.
    d_plane = (upstream @ flat.swapaxes(-1, -2)) * dplane
    return d_plane.reshape(*plane.shape[:-1], params.in_width, -1).sum(axis=-1)


def linear_forward(
    inputs: np.ndarray, params: LinearLayerParams
) -> tuple[np.ndarray, dict]:
    _check_inputs(inputs, params.in_width)
    out = inputs @ params.weights.swapaxes(-1, -2) + params.biases[..., None, :]
    return out, {"inputs": inputs}


def linear_backward(
    upstream: np.ndarray,
    params: LinearLayerParams,
    cache: dict,
    d_weights: np.ndarray,
    d_biases: np.ndarray,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backward pass: writes the weights' and biases' gradients into
    ``d_weights`` and ``d_biases`` (arrays or views of their shapes) and
    returns the inputs' gradient, or None without computing it when
    ``input_grad`` is False.
    """
    x = cache["inputs"]
    _check_upstream(upstream, x, params.out_width)
    np.matmul(upstream.swapaxes(-1, -2), x, out=d_weights)
    np.add.reduce(upstream, axis=-2, out=d_biases)
    return upstream @ params.weights if input_grad else None


def relu(x: np.ndarray, scale: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """ReLU, then inverted dropout when ``scale`` is given, as one mask.

    Returns (output, mask); the backward pass is ``relu_backward(upstream,
    mask)``.  ``scale`` is a dropout mask as ``dropout_scale`` builds it
    (0 or ``1 / keep`` per entry).  ``x * ((x > 0) * scale)`` is bitwise
    ``(x * (x > 0)) * scale``, signed zeros, NaN and infinities included,
    and so is the backward product, except where ``upstream * scale``
    overflows at an entry the ReLU zeroes: relu then dropout gives NaN
    there, the one mask a signed zero.
    """
    mask = x > 0
    if scale is not None:
        mask = mask * scale
    return x * mask, mask


def relu_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask


def dropout_scale(kept: np.ndarray, drop_prob: float) -> np.ndarray:
    """Inverted-dropout multipliers: ``1 / (1 - drop_prob)`` where kept, else 0."""
    return kept.astype(np.float64) / (1.0 - drop_prob)
