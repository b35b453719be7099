"""Layer primitives with hand-derived forward and backward passes.

Two trainable layer kinds exist: spline layers whose per-edge activation is
``w_base * silu(x) + sum_m c_m * B_m(x)``, and plain affine layers.  A
spline layer treats ``silu`` as one more basis: it evaluates every input's
``silu`` and bases into one plane (``kan_plane``) and multiplies that by
one weight block; a plane built in advance is multiplied directly
(``kan_product``).  Its input gradient needs only the ``order + 1``
nonzero basis derivatives of each input and ``silu'``, so they are kept
as those terms, never as a dense plane.
A hidden affine layer's ReLU and dropout are one elementwise mask
(``relu`` with a dropout ``scale``), whose product gives the same bits as
the two applied in turn.
All arithmetic is float64 and every backward consumes the cache produced by
the matching forward: a spline layer's is the tuple ``(plane, dterms)``,
an affine layer's its inputs.  Each layer checks its arguments itself,
with one compare of shapes read from its parameters' arrays, so a model's
pass does not check them again.  The views of the parameters that the
products read (``block`` and ``block_t``, ``weights_t`` and ``bias_row``)
are taken once, when the parameters are built, not at every call.  A
backward writes its parameter gradients with ``out=`` into the arrays it
is given (in training, a gradient model's views of the gradient buffer,
so no copy follows) and returns only the input gradient; a view's bits
are those of a new array.

Every layer also accepts a stack of batches: inputs of shape
``(clients, batch, width)`` with parameters carrying the same leading
``clients`` axis train that many independent models at once.  Each
contraction is a stacked ``matmul`` that runs the same BLAS call per
client as the unstacked layer, so client ``c``'s slice of every result is
bitwise equal to running client ``c`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    as a view.  That view, ``block``, and its transpose ``block_t`` are
    taken once, when the parameters are built, so ``weights`` must reshape
    to it without a copy, as a model's segment views and every
    C-contiguous array do: a copy would not see the weights change in
    place.
    """

    weights: np.ndarray
    grid: SplineGrid
    block: np.ndarray = field(init=False, repr=False)
    block_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        w = self.weights
        block = w.reshape(*w.shape[:-3], -1, w.shape[-1])
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "block_t", block.swapaxes(-1, -2))

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

    @property
    def plane_width(self) -> int:
        """Width of this layer's plane (``kan_plane``): num_bases + 1 slots
        per input, the rows of the flattened block."""
        return self.in_width * (self.grid.num_bases + 1)


@dataclass(frozen=True, eq=False)
class LinearLayerParams:
    """Affine layer: out = x @ weights.T + biases.

    weights has shape (..., out_width, in_width) and biases (..., out_width).
    The views the forward product reads, ``weights_t`` (the weights'
    transpose) and ``bias_row`` (the biases as one ``(..., 1, out_width)``
    row), are taken once, when the parameters are built.
    """

    weights: np.ndarray
    biases: np.ndarray
    weights_t: np.ndarray = field(init=False, repr=False)
    bias_row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights_t", self.weights.swapaxes(-1, -2))
        object.__setattr__(self, "bias_row", self.biases[..., None, :])

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
    """Logistic function ``1 / (1 + exp(-x))``, computed in one array.

    Its relative error against an exact reference is at most 4e-16 on
    [-708, 708].  ``exp`` sees ``min(-x, 709)``, so it never overflows:
    below -709 the result is 1 / (1 + e**709) = 1.2e-308 where the true
    value is smaller still, an absolute error of at most 1.3e-308.  NaN
    passes through.
    """
    e = np.negative(x)
    np.minimum(e, 709.0, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


# Each layer checks its arguments inline, with one compare of shapes; these
# build the error once a check has failed.
def _inputs_error(inputs: np.ndarray, in_width: int) -> ContractViolationError:
    return ContractViolationError(
        f"expected inputs of shape (..., batch, {in_width}), got {inputs.shape}"
    )


def _upstream_error(upstream: np.ndarray, expected: tuple) -> ContractViolationError:
    return ContractViolationError(
        f"upstream shape {upstream.shape} does not match layer output {expected}"
    )


def kan_plane(
    inputs: np.ndarray,
    grid: SplineGrid,
    derivative: bool = False,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """The plane a spline layer multiplies by its weight block, and its derivative terms.

    inputs has shape (..., batch, in_width); the plane has shape
    (..., batch, in_width * (num_bases + 1)), matching the rows of the
    block: each input gets num_bases + 1 slots, ``silu(x)`` in slot 0 and
    its bases after it.  With ``derivative`` the second result holds the
    derivative terms: the ``(order + 1, n)`` basis derivatives of the n
    inputs, in the plane's order, with their flat positions in the plane
    (see ``basis_and_derivative``), and ``silu'(x)`` of the n inputs in the
    same order.
    Otherwise it is None and no derivative is computed.  The plane depends
    on the inputs and the grid alone, and each row's bits on that row
    alone, so a plane built once over fixed features serves every batch
    gathered from it.  ``out``, a C-contiguous float64 array of the
    plane's shape, is filled with the plane and returned as it.
    """
    slots = grid.num_bases + 1
    if out is not None:
        expected = (*inputs.shape[:-1], inputs.shape[-1] * slots)
        if out.shape != expected or not out.flags.c_contiguous:
            raise ContractViolationError(
                f"a plane is written into a C-contiguous array of shape {expected}, "
                f"got {out.shape}"
            )
        out = out.reshape(-1, slots)
    x = inputs.reshape(-1)
    plane, dterms = basis_and_derivative(x, grid, derivative, 1, out)
    sig = sigmoid(x)
    np.multiply(x, sig, out=plane[:, 0])
    if dterms is not None:
        # d silu(x) / dx = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
        dterms = (*dterms, sig * (1.0 + x * (1.0 - sig)))
    return plane.reshape(*inputs.shape[:-1], -1), dterms


def kan_product(
    plane: np.ndarray, params: KanLayerParams, dterms: tuple | None = None
) -> tuple[np.ndarray, tuple]:
    """A spline layer's output from its plane: one product with the weight block.

    The returned cache, the tuple ``(plane, dterms)``, feeds
    kan_layer_backward; ``dterms`` are the plane's derivative terms as
    ``kan_plane`` returns them, and None (a plane built without
    derivatives) gives a backward pass that yields the weight gradient
    only.
    """
    return plane @ params.block, (plane, dterms)


def kan_layer_forward(
    inputs: np.ndarray, params: KanLayerParams, derivative: bool = True
) -> tuple[np.ndarray, tuple]:
    """Forward pass of a spline layer: build its plane, then take the product.

    inputs has shape (..., batch, in_width); the result has shape
    (..., batch, out_width).  With ``derivative=False`` the basis
    derivatives are not evaluated and the cache's ``dterms`` are None: a
    backward pass over it yields the weight gradient only, for a layer
    whose input gradient nobody reads.
    """
    if inputs.ndim < 2 or inputs.shape[-1] != params.weights.shape[-3]:
        raise _inputs_error(inputs, params.in_width)
    plane, dterms = kan_plane(inputs, params.grid, derivative)
    return plane @ params.block, (plane, dterms)


def kan_layer_backward(
    upstream: np.ndarray, params: KanLayerParams, cache: tuple, d_weights: np.ndarray
) -> np.ndarray | None:
    """Backward pass: writes the weights' gradient into ``d_weights`` and
    returns the inputs' gradient.

    ``d_weights`` has the weights' shape and must reshape to the flat
    ``(..., in_width * (num_bases + 1), out_width)`` block without a copy,
    as the weights of a gradient model's block do: the product is written
    through that reshaped view.  A cache built with ``derivative=False``
    gives None for the inputs' gradient and computes none of it.

    The inputs' gradient reads the plane's gradient ``G = upstream @
    block.T`` at each input's order + 1 basis positions and its ``silu``
    slot only.  Each input's sum runs in one fixed order: the basis terms
    ``G * B'`` from the first nonzero basis to the last (one reduce over
    the terms' first axis, which adds its rows in turn), then
    ``G * silu'``.  A point's bits therefore do not depend on the other
    points, stacked clients included.
    """
    plane, dterms = cache
    block = params.block
    expected = plane.shape[:-1] + block.shape[-1:]
    if upstream.shape != expected:
        raise _upstream_error(upstream, expected)
    np.matmul(plane.swapaxes(-1, -2), upstream, out=d_weights.reshape(block.shape))
    if dterms is None:
        return None
    pieces, index, dsilu = dterms
    d_plane = upstream @ params.block_t
    terms = d_plane.take(index)
    terms *= pieces
    d_inputs = np.add.reduce(terms, axis=0)
    d_inputs += dsilu * d_plane.reshape(dsilu.size, -1)[:, 0]
    return d_inputs.reshape(*expected[:-1], -1)


def linear_forward(
    inputs: np.ndarray, params: LinearLayerParams
) -> tuple[np.ndarray, np.ndarray]:
    """Forward pass of an affine layer; its cache is the inputs themselves."""
    if inputs.ndim < 2 or inputs.shape[-1] != params.weights.shape[-1]:
        raise _inputs_error(inputs, params.in_width)
    out = inputs @ params.weights_t
    out += params.bias_row
    return out, inputs


def linear_backward(
    upstream: np.ndarray,
    params: LinearLayerParams,
    inputs: np.ndarray,
    d_weights: np.ndarray,
    d_biases: np.ndarray,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backward pass over the forward's cache, its ``inputs``: writes the
    weights' and biases' gradients into ``d_weights`` and ``d_biases``
    (arrays or views of their shapes) and returns the inputs' gradient, or
    None without computing it when ``input_grad`` is False.
    """
    expected = inputs.shape[:-1] + params.biases.shape[-1:]
    if upstream.shape != expected:
        raise _upstream_error(upstream, expected)
    np.matmul(upstream.swapaxes(-1, -2), inputs, out=d_weights)
    np.add.reduce(upstream, axis=-2, out=d_biases)
    return upstream @ params.weights if input_grad else None


def relu(x: np.ndarray, scale: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """ReLU, then inverted dropout when ``scale`` is given, as one mask.

    Returns (output, mask); the backward pass is ``relu_backward(upstream,
    mask)``.  ``scale`` is a dropout mask, 0 or ``1 / keep`` per entry
    (see ``fedbeam.federation._step_masks``).  ``x * ((x > 0) * scale)``
    is bitwise ``(x * (x > 0)) * scale``, signed zeros, NaN and infinities
    included, and so is the backward product, except where ``upstream *
    scale`` overflows at an entry the ReLU zeroes: relu then dropout gives
    NaN there, the one mask a signed zero.
    """
    mask = x > 0
    if scale is not None:
        mask = mask * scale
    return x * mask, mask


def relu_backward(upstream: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return upstream * mask
