"""Model construction, forward/backward, and weight export.

Two architectures share one config type.  ``fed_kan`` stacks spline layers
over [input] + kan_hidden_widths, then a fully connected head (ReLU and
dropout after every head layer except the last).  ``fed_mlp`` is a plain
multilayer perceptron with ReLU and dropout after each hidden layer.  Both
end in a linear readout of ``output_width`` traffic shares, so an affine
block is followed by ReLU and dropout exactly when it is not the last
block.  It applies the two as one mask, and caches only that mask for the
backward pass.

A built model owns one flat float64 weight buffer; every layer array is a
reshaped view into it.  A spline layer is one array, its weight block
(base weight and spline coefficients per input, in the order its forward
product reads them); an affine layer is two, weights and biases.
``parameter_layout`` fixes the order and shape of those arrays (the
segments).  A gradient buffer has the same layout: ``model_backward``
fills it through the model re-viewed over it (``with_weights``), block by
block.  Only this module knows the layout.  The federation exchanges plain
read-only ``(parameters,)`` float64 arrays in it, which ``export_weights``
copies out of a model and ``import_weights`` copies into one, and the
optimizer clips and steps gradient and weight rows as flat vectors.

A ``ModelConfig`` is checked when it is built, so every config that exists
is valid.  ``build_model`` is the only step that plans: it lays out the
blocks, builds the spline grid and records what a pass checks or branches
on: the first block's plane width, the dropout-layer count, and the pass
plan, one ``(index, spline, mask)`` entry per block, in order, that names
the block, says whether it is a spline block and gives the index of the
dropout mask that follows it (None when no ReLU and dropout follow).
Every later model is the built one re-viewed over a new buffer
(``with_weights``): the same blocks, grids and records, only the arrays
they view change.  So a pass checks its batch and masks with a few
compares against those records, and each layer checks its own arguments
with one compare of shapes (see ``fedbeam.layers``); a step rebuilds no
list to do it.  The forward pass walks the plan and the backward pass
walks it in reverse, and each block's cache is one tuple: a spline
block's ``(plane, dterms)``, an affine block's ``(inputs, mask)``.

The model draws no dropout masks: a training pass is given them
(``forward_with_caches``), and the evaluation pass (``forward``) applies
none.

The buffer may also be a stack of shape ``(clients, parameters)``: one row
per model, every layer array then carrying a leading ``clients`` axis.  Such
a model runs a stack of batches, ``(clients, batch, width)``, one batch per
row, and is how the federation trains a round's clients in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolationError,
    require_finite,
    require_int,
)
from .layers import (
    KanLayerParams,
    LinearLayerParams,
    kan_layer_backward,
    kan_layer_forward,
    kan_product,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)
from .splines import MAX_SPLINE_ORDER, SplineGrid

KIND_FED_KAN = "fed_kan"
KIND_FED_MLP = "fed_mlp"
_WIDTH_FIELDS = ("kan_hidden_widths", "mlp_hidden_widths", "fc_head_widths")

# The name and shape of every trainable array, in buffer order.
Layout = tuple[tuple[str, tuple[int, ...]], ...]

# The pass plan: per block, in order, (index, spline, mask), where mask is
# the index of the dropout mask that follows the block's ReLU, or None when
# no ReLU and dropout follow it (every spline block, and the last block).
Plan = tuple[tuple[int, bool, int | None], ...]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and regularization settings for one model."""

    kind: str
    input_width: int = 10
    kan_hidden_widths: tuple[int, ...] = (2, 4, 8)
    mlp_hidden_widths: tuple[int, ...] = (8, 16, 48)
    fc_head_widths: tuple[int, ...] = (8, 4)
    output_width: int = 4
    grid_intervals: int = 5
    spline_order: int = 3
    dropout_p: float = 0.5

    @classmethod
    def fed_kan(cls, **overrides) -> "ModelConfig":
        return cls(kind=KIND_FED_KAN, **overrides)

    @classmethod
    def fed_mlp(cls, **overrides) -> "ModelConfig":
        return cls(kind=KIND_FED_MLP, **overrides)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_FED_KAN, KIND_FED_MLP):
            raise ConfigurationError(
                f"kind must be {KIND_FED_KAN!r} or {KIND_FED_MLP!r}, got {self.kind!r}"
            )
        require_int("input_width", self.input_width, 1)
        require_int("output_width", self.output_width, 1)
        for name in _WIDTH_FIELDS:
            for w in getattr(self, name):
                require_int(f"{name} entries", w, 1)
        if self.kind == KIND_FED_KAN and self.fc_head_widths:
            if self.fc_head_widths[-1] != self.output_width:
                raise ConfigurationError(
                    f"fc_head_widths must end in output_width "
                    f"({self.output_width}), got {self.fc_head_widths}"
                )
        require_int("grid_intervals", self.grid_intervals, 1)
        require_int("spline_order", self.spline_order, 0)
        if self.spline_order > MAX_SPLINE_ORDER:
            raise ConfigurationError(
                f"spline_order must be <= {MAX_SPLINE_ORDER}, got {self.spline_order}"
            )
        require_finite("dropout_p", self.dropout_p)
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigurationError(
                f"dropout_p must be in [0, 1), got {self.dropout_p}"
            )

    def to_dict(self) -> dict:
        raw = asdict(self)
        for key in _WIDTH_FIELDS:
            raw[key] = list(raw[key])
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown model config keys: {sorted(extra)}")
        if "kind" not in raw:
            raise ConfigurationError("model config must name a kind")
        kwargs = dict(raw)
        for key in _WIDTH_FIELDS:
            if key in kwargs:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ConfigurationError(
                        f"{key} must be a list of integers, got {kwargs[key]!r}"
                    )
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


# Layer plan entries: (kind, in, out), kind "kan" or "linear".
def layer_plan(config: ModelConfig) -> list[tuple[str, int, int]]:
    """Expand a config into the ordered list of concrete layers."""
    if config.kind == KIND_FED_KAN:
        widths = [config.input_width, *config.kan_hidden_widths]
        plan = [("kan", a, b) for a, b in zip(widths[:-1], widths[1:])]
        # Degenerate config: no head means a single plain readout.
        head = [widths[-1], *(config.fc_head_widths or (config.output_width,))]
    else:
        plan = []
        head = [config.input_width, *config.mlp_hidden_widths, config.output_width]
    return plan + [("linear", a, b) for a, b in zip(head[:-1], head[1:])]


def count_parameters(config: ModelConfig) -> int:
    """Trainable scalar count.

    Spline layers carry in*out*(grid_intervals + spline_order) coefficients
    plus in*out base weights, in one block; affine layers carry in*out
    weights plus out biases.
    """
    return sum(math.prod(shape) for _, shape in parameter_layout(config))


def parameter_layout(config: ModelConfig) -> Layout:
    """Name and shape of every trainable array, in buffer order.

    A spline layer contributes one segment, its weight block
    ``weights`` of shape (in, bases + 1, out): slot 0 is each input's base
    weight, slots 1..bases its spline coefficients.  An affine layer
    contributes two: weights then biases.
    """
    return _plan_layout(layer_plan(config), config.grid_intervals + config.spline_order)


def _plan_layout(plan: list[tuple[str, int, int]], bases: int) -> Layout:
    layout: list[tuple[str, tuple[int, ...]]] = []
    for i, (kind, a, b) in enumerate(plan):
        name = f"layer{i:02d}"
        if kind == "kan":
            layout.append((f"{name}.weights", (a, bases + 1, b)))
        else:
            layout += [(f"{name}.weights", (b, a)), (f"{name}.biases", (b,))]
    return tuple(layout)


def _segment_views(layout: Layout, flat: np.ndarray) -> list[np.ndarray]:
    """One view into ``flat`` per segment of the layout, in its shape.

    ``flat`` may carry leading axes, ``(*lead, parameters)``; each view then
    has shape ``(*lead, *segment_shape)``.
    """
    lead = flat.shape[:-1]
    views = []
    offset = 0
    for _, shape in layout:
        size = math.prod(shape)
        views.append(flat[..., offset : offset + size].reshape(*lead, *shape))
        offset += size
    return views


Block = Union[KanLayerParams, LinearLayerParams]


@dataclass(frozen=True, eq=False)
class Model:
    """A built network: config, flat weight buffer, and blocks viewing it.

    ``weights`` is ``(parameters,)`` for one model or ``(clients,
    parameters)`` for a stack of models.  ``build_model`` also records
    what every pass checks or branches on, so a pass reads it instead of
    working it out again: the pass plan (see ``Plan``), the first block's
    plane width (None unless it is a spline block) and the number of
    dropout layers.
    """

    config: ModelConfig
    blocks: tuple[Block, ...]
    weights: np.ndarray
    layout: Layout
    plan: Plan
    plane_width: int | None
    dropout_layers: int


def with_weights(model: Model, weights: np.ndarray) -> Model:
    """The model's blocks re-viewed over another ``(P,)`` or ``(m, P)`` buffer.

    Grids are the model's own; nothing is re-planned and nothing is
    copied, so the result trains ``weights`` in place.
    """
    if weights.shape[-1:] != model.weights.shape[-1:]:
        raise ContractViolationError(
            f"weight buffer of shape {weights.shape} does not hold "
            f"{model.weights.shape[-1]} parameters per row"
        )
    views = iter(_segment_views(model.layout, weights))
    blocks = tuple(
        KanLayerParams(next(views), block.grid)
        if spline
        else LinearLayerParams(next(views), next(views))
        for block, (_, spline, _) in zip(model.blocks, model.plan)
    )
    # Built directly: dataclasses.replace takes twice as long, and training
    # re-views a stack for every new range of its rows.
    return Model(
        model.config, blocks, weights, model.layout, model.plan, model.plane_width,
        model.dropout_layers,
    )


def build_model(config: ModelConfig, seed: int) -> Model:
    """Initialize a model deterministically from a seed."""
    rng = np.random.default_rng(seed)
    grid = SplineGrid.uniform(config.grid_intervals, config.spline_order)
    layers = layer_plan(config)
    blocks: list[Block] = []
    arrays: list[np.ndarray] = []
    for kind, a, b in layers:
        if kind == "kan":
            params = KanLayerParams.initialized(a, b, grid, rng)
            arrays.append(params.weights)
        else:
            params = LinearLayerParams.initialized(a, b, rng)
            arrays += [params.weights, params.biases]
        blocks.append(params)
    weights = np.concatenate([a.reshape(-1) for a in arrays])
    layout = _plan_layout(layers, grid.num_bases)
    plan: list[tuple[int, bool, int | None]] = []
    dropout_layers = 0
    for i, (kind, _, _) in enumerate(layers):
        # ReLU and dropout follow every affine block but the last.
        if kind == "linear" and i < len(layers) - 1:
            plan.append((i, False, dropout_layers))
            dropout_layers += 1
        else:
            plan.append((i, kind == "kan", None))
    plane_width = blocks[0].plane_width if plan[0][1] else None
    model = Model(config, tuple(blocks), weights, layout, tuple(plan), plane_width, dropout_layers)
    # The initial blocks hold the drawn arrays; re-view them over the buffer.
    return with_weights(model, weights)


def dropout_widths(model: Model) -> list[int]:
    """Widths of the blocks whose outputs pass through dropout, in order:
    every affine block but the last."""
    return [model.blocks[i].out_width for i, _, mask in model.plan if mask is not None]


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """The evaluation pass: no dropout, and nothing kept for a backward pass,
    so no spline layer evaluates its basis derivatives.
    """
    return _forward(model, batch, None, None)


def forward_with_caches(
    model: Model,
    batch: np.ndarray,
    masks: Sequence[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[tuple]]:
    """Forward pass keeping what model_backward needs: one cache per block.

    ``batch`` is ``(n, input_width)`` for one model and ``(clients, n,
    input_width)`` for a stack of models.  ``masks`` are the dropout masks
    drawn ahead, one per entry of ``dropout_widths`` and each of that
    layer's output shape and holding 0 or ``1 / (1 - dropout_p)`` per
    entry; None applies no dropout.  The first block's input gradient is
    never read, so a spline layer there caches no basis derivatives; every
    later spline layer caches its derivative terms as ``kan_plane``
    returns them, the order + 1 nonzero basis derivatives per input and
    ``silu'``, and no dense derivative plane.

    Block i's cache is a tuple, in the order of the pass plan: ``(plane,
    dterms)`` for a spline block (``dterms`` None for the first block) and
    ``(inputs, mask)`` for an affine block, ``mask`` being its ReLU and
    dropout mask (None for the last block, which has neither).

    When the first block is a spline block, the batch may instead hold
    rows of its plane (``fedbeam.layers.kan_plane``), ``(..., n,
    input_width * (num_bases + 1))``: the batch's width tells which, since
    num_bases >= 1.  That block then only multiplies them by its weights.
    Rows gathered from a plane built once give the same bits as building
    them here.
    """
    caches: list[tuple] = []
    out = _forward(model, batch, masks, caches)
    return out, caches


def _forward(
    model: Model,
    batch: np.ndarray,
    masks: Sequence[np.ndarray] | None,
    caches: list[tuple] | None,
) -> np.ndarray:
    """The forward loop over the pass plan; appends one cache per block to
    ``caches`` unless None.

    A batch as wide as a spline first block's plane holds rows of that
    plane (see ``forward_with_caches``).
    """
    lead = model.weights.shape[:-1]
    width = model.config.input_width
    if (
        batch.ndim != len(lead) + 2
        or batch.shape[:-2] != lead
        or batch.shape[-1] not in (width, model.plane_width)
    ):
        raise ContractViolationError(
            f"expected batch of shape {(*lead, 'n', width)}, got {batch.shape}"
        )
    if masks is not None and len(masks) != model.dropout_layers:
        raise ContractViolationError(
            f"{len(masks)} dropout masks for {model.dropout_layers} dropout layers"
        )
    x = np.asarray(batch, dtype=np.float64)
    blocks = model.blocks
    derivative = caches is not None
    for i, spline, j in model.plan:
        if not spline:
            x, inputs = linear_forward(x, blocks[i])
            mask = None
            if j is not None:
                scale = None
                if masks is not None:
                    scale = masks[j]
                    if scale.shape != x.shape:
                        raise ContractViolationError(
                            f"dropout mask of shape {scale.shape} for an output of {x.shape}"
                        )
                x, mask = relu(x, scale)
            cache = (inputs, mask)
        elif i == 0 and x.shape[-1] == model.plane_width:
            x, cache = kan_product(x, blocks[0])
        else:
            x, cache = kan_layer_forward(x, blocks[i], derivative and i > 0)
        if caches is not None:
            caches.append(cache)
    return x


def model_backward(model: Model, caches: list[tuple], upstream: np.ndarray, grads: Model) -> None:
    """Backpropagate the loss gradient through every block, walking the
    pass plan in reverse over ``forward_with_caches``'s caches.

    ``grads`` is the model re-viewed over a gradient buffer of its weights'
    shape (``with_weights(model, buffer)``); each block's backward writes
    its parameter gradients straight into the matching block of ``grads``.
    A training loop builds it once per buffer and passes it to every step.
    Nothing is returned: no caller reads the gradient with respect to the
    batch, and the first block, spline or affine, does not compute it.
    """
    if len(caches) != len(model.blocks):
        raise ContractViolationError(
            f"cache list of length {len(caches)} does not match {len(model.blocks)} blocks"
        )
    if (grads.weights.shape, grads.layout) != (model.weights.shape, model.layout):
        raise ContractViolationError(
            f"a gradient model of weights shaped {grads.weights.shape} does not "
            f"match the layout of weights shaped {model.weights.shape}"
        )
    u = upstream
    blocks, grad_blocks = model.blocks, grads.blocks
    for i, spline, _ in reversed(model.plan):
        if spline:
            u = kan_layer_backward(u, blocks[i], caches[i], grad_blocks[i].weights)
        else:
            inputs, mask = caches[i]
            if mask is not None:
                u = relu_backward(u, mask)
            grad = grad_blocks[i]
            u = linear_backward(u, blocks[i], inputs, grad.weights, grad.biases, input_grad=i > 0)


def export_weights(model: Model) -> np.ndarray:
    """A read-only copy of the model's flat weights, sharing no memory with it.

    The copy is ``(parameters,)`` for one model; a stack's is ``(clients,
    parameters)``, and each of its rows is one model's read-only weights.
    """
    weights = model.weights.copy()
    weights.flags.writeable = False
    return weights


def import_weights(model: Model, weights: np.ndarray, copies: int | None = None) -> Model:
    """Return a copy of the model carrying these ``(parameters,)`` weights.

    With ``copies`` set, the result is a stack of that many models, each
    starting from the same weights.
    """
    if weights.shape != model.weights.shape[-1:]:
        raise ContractViolationError(
            f"weights of shape {weights.shape} do not fit a model of "
            f"{model.weights.shape[-1]} parameters"
        )
    return with_weights(model, weights.copy() if copies is None else np.tile(weights, (copies, 1)))
