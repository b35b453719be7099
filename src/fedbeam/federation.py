"""Synchronous FedAvg over beam clients.

One round: broadcast the global weights, train each available client for
local_epochs over its own windowed series, aggregate the returned weight
vectors, then evaluate the new global model on every client's test set.
Every weight vector exchanged here is a read-only ``(parameters,)`` float64
array in the model's layout (see ``fedbeam.model``).

A round trains all its participants in lockstep, one row per client of a
stacked model, even when their series differ in length.  The clients step
together on a global step counter; a client leaves the stack when its own
schedule ends, and at each step the clients whose batch has the same size
form one stacked call (split when it would exceed ``MAX_STACK_ROWS``
batch rows).  Every client keeps its own rows of the stack's weight and
Adam moment buffers, which each call updates in place, and each row's
arithmetic is the same as training that client alone, so the stacking
cannot change results.

Every client also keeps its own seeded dropout generator, and only this
module draws from it: the model applies the masks it is given.  When a
client starts an epoch, that epoch's uniforms are drawn from its generator
(``DRAW_CHUNK`` at a time) into its row of one ``(clients, samples,
dropout widths)`` bool buffer, and each step reads its masks from that row
in stream order: its batch's rows, layer by layer.  That is the order in
which drawing each step's masks one layer at a time would consume the
stream, and a PCG64 stream gives the same doubles however its draws are
chunked, so the masks are bitwise those of drawing them step by step.
With ``dropout_p`` 0 nothing is drawn.

When a round trains more than one local epoch, every participant's
training rows are stacked once per round: one ``(clients, samples, width)``
source buffer and one of targets.  A spline first layer reads only the
client's fixed training windows, so its source is the layer-0 plane
(``silu`` and the B-spline bases of every feature), written straight into
the buffer, and every step reads its batch's rows of that plane in place of
feature rows.  A point's plane bits do not depend on the points evaluated
with it, so this cannot change results either.  With one local epoch no
row is read twice in a round, so nothing is stacked or built ahead: each
step gathers its rows from the clients' own arrays.

A stacked call whose rows share a batch start reads its batch, targets
and dropout flags as basic-slice views of those buffers; rows at different
starts are gathered row by row.  Every layer's product runs the same BLAS
call on a view as on a copy, so views cannot change results either.

A run uses every CPU this process may run on, dealt whole experiments
first and clients second, over plain forked processes (``fedbeam.pool``).
``deal_experiments`` runs side-by-side experiments, such as ``compare``'s
two models, one per process when there are CPUs for all of them, and deals
the usable CPUs across them round-robin; with fewer CPUs they run one after
another here.  Each ``run_experiment`` owns a ``Helpers`` over its share of
CPUs (every usable CPU when it runs alone): a ``ForkPool`` of this process
and one helper per CPU beyond the first, never more than there are clients
minus one.  Every round takes one path through that pool.  It deals its
participants round-robin into one share per process, by descending sample
count with ties in client-id order, and maps the shares: the first runs in
this process and share k in helper k, forked the first time a map has a
share for it, so that it inherits the run's clients, template and config.
A helper receives only client ids, the weights and the round index, and
seeds those participants' dropout generators itself, so no generator
crosses a pipe; every process calls the same ``local_train`` on its share.
Evaluation of every client is dealt and mapped the same way.  The updates
go back into participant order and the test losses into client-id order
before they are combined, and any grouping trains and evaluates each client
exactly as alone, so the reports are byte-identical to running the round in
one process.  A map of one share forks nothing, so with one CPU or one
client for the run, or where the platform cannot fork, every round runs in
this process.  However the CPUs are dealt, no more processes run at once
than there are usable CPUs.  Before the run, ``fedbeam.cli`` parses its
beam files over every usable CPU as well, in size-balanced contiguous runs,
then builds the clients once (``build_clients``), in its own process,
before any model or helper is forked: ``compare``'s two models share them.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from .data import CATEGORIES, BeamSeries, Scaler, train_count, window_arrays
from .errors import (
    ConfigurationError,
    ContractViolationError,
    NumericsError,
    require_finite,
    require_int,
)
from .layers import kan_plane
from .model import (
    Model,
    ModelConfig,
    build_model,
    dropout_widths,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    model_backward,
    with_weights,
)
from .optim import AdamState, adam_step, clip_gradient_norm, mse_loss
from .pool import ForkPool

log = logging.getLogger(__name__)

AGG_UNIFORM = "uniform"
AGG_SAMPLE_WEIGHTED = "sample_weighted"

# Most batch rows (clients x samples) one stacked training call may take.
# On kan_fleet (batch 128, ~12 participants a round dealt across 2
# processes, 2-core machine, one BLAS thread) caps of 384, 768 and 1,536
# rows and no cap gave a median round of 0.0184, 0.0171, 0.0166 and
# 0.0165 s over 6 rotated runs, and the main process peaked at 43.9, 45.9,
# 47.0 and 47.0 MB RSS.  In 10 alternating pairs at each of two data seeds
# 1,536 beat 768 in every pair, by 2.6-2.9%, for 2.1-2.4% more memory.
MAX_STACK_ROWS = 1536

# Most doubles one generator call draws for a client's epoch of dropout
# flags.  The float64 draws live beside the epoch's bool flags until they
# are compared.  Drawn in one call, a fed_mlp protocol epoch (590 rows x 72
# widths, 340 KB) raised mlp_protocol's peak RSS by 1.2%; in chunks of this
# size it does not move it.  On a 2-core x86 box the 42,480 draws took
# 143 us in chunks of 8,192, against 148-189 us for chunks of 2,048-32,768
# and 187 us in one call.
DRAW_CHUNK = 8192


@dataclass(frozen=True)
class FederationConfig:
    """Protocol and optimizer settings shared by all clients."""

    rounds: int = 20
    local_epochs: int = 5
    batch_size: int = 16
    aggregation: str = AGG_UNIFORM
    availability_prob: float = 1.0
    seed: int = 0
    learning_rate: float = 0.001
    weight_decay: float = 1e-5
    max_grad_norm: float = 1.0

    def __post_init__(self) -> None:
        require_int("rounds", self.rounds, 1)
        require_int("local_epochs", self.local_epochs, 1)
        require_int("batch_size", self.batch_size, 1)
        require_int("seed", self.seed, 0)
        for name in ("availability_prob", "learning_rate", "weight_decay", "max_grad_norm"):
            require_finite(name, getattr(self, name))
        if self.aggregation not in (AGG_UNIFORM, AGG_SAMPLE_WEIGHTED):
            raise ConfigurationError(
                f"aggregation must be {AGG_UNIFORM!r} or {AGG_SAMPLE_WEIGHTED!r}, "
                f"got {self.aggregation!r}"
            )
        if not 0.0 < self.availability_prob <= 1.0:
            raise ConfigurationError(
                f"availability_prob must be in (0, 1], got {self.availability_prob}"
            )
        if self.learning_rate < 0.0:
            raise ConfigurationError(
                f"learning_rate must be >= 0, got {self.learning_rate}"
            )
        if self.weight_decay < 0.0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {self.weight_decay}"
            )
        if self.max_grad_norm <= 0.0:
            raise ConfigurationError(
                f"max_grad_norm must be > 0, got {self.max_grad_norm}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "FederationConfig":
        known = {f.name for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown federation config keys: {sorted(extra)}")
        return cls(**raw)


@dataclass(frozen=True, eq=False)
class ClientState:
    """One beam's windowed, scaled, split data."""

    client_id: str
    train_features: np.ndarray
    train_targets: np.ndarray
    test_features: np.ndarray
    test_targets: np.ndarray

    @property
    def sample_count(self) -> int:
        return self.train_features.shape[0]


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    client_id: str
    weights: np.ndarray
    sample_count: int
    local_train_loss: float


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    participants: tuple[str, ...]
    avg_train_loss: float
    per_client_test_loss: dict[str, float]
    avg_test_loss: float


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    model_config: ModelConfig
    federation_config: FederationConfig
    data_config: dict
    dataset_digest: str
    rounds: tuple[RoundReport, ...]
    final_avg_test_loss: float
    final_weights: np.ndarray


def check_model_fits_data(model_config: ModelConfig, window_hours: int) -> None:
    """A model reads a window's 2 * window_hours volumes and predicts the
    four category shares; it needs no data to check that."""
    expected = 2 * window_hours
    if model_config.input_width != expected:
        raise ConfigurationError(
            f"model input_width {model_config.input_width} does not match "
            f"2 * window_hours = {expected}"
        )
    if model_config.output_width != len(CATEGORIES):
        raise ConfigurationError(
            f"model output_width {model_config.output_width} does not match the "
            f"{len(CATEGORIES)} target shares ({', '.join(CATEGORIES)})"
        )


def build_client(
    series: BeamSeries, window_hours: int, train_fraction: float
) -> ClientState:
    """Window, split, and scale one beam into a client."""
    features, targets = window_arrays(series, window_hours)
    n_train = train_count(len(features), train_fraction)
    scaled = Scaler.fit(features[:n_train]).transform(features)
    targets = targets.copy()
    return ClientState(
        client_id=series.beam_id,
        train_features=scaled[:n_train],
        train_targets=targets[:n_train],
        test_features=scaled[n_train:],
        test_targets=targets[n_train:],
    )


def dataset_digest(clients: list[ClientState]) -> str:
    """Hash of every client's scaled arrays, in client-id order."""
    h = hashlib.sha256()
    for client in sorted(clients, key=lambda c: c.client_id):
        h.update(client.client_id.encode("utf-8"))
        for arr in (
            client.train_features,
            client.train_targets,
            client.test_features,
            client.test_targets,
        ):
            # A C-contiguous array is hashed in place, with no copy.
            h.update(np.ascontiguousarray(arr))
    return h.hexdigest()


def _runs(sizes: list[int]) -> list[tuple[int, int, int]]:
    """Split rows into maximal runs of equal batch size, each at most
    ``MAX_STACK_ROWS`` batch rows; size 0 marks the finished rows."""
    runs = []
    lo = 0
    while lo < len(sizes) and sizes[lo]:
        size = sizes[lo]
        limit = min(len(sizes), lo + max(1, MAX_STACK_ROWS // size))
        hi = lo + 1
        while hi < limit and sizes[hi] == size:
            hi += 1
        runs.append((lo, hi, size))
        lo = hi
    return runs


def _lockstep_calls(counts: list[int], epochs: int, batch_size: int) -> Iterator[tuple]:
    """The stacked calls that train rows of these sample counts in lockstep.

    ``counts`` run longest first.  At global step ``g`` row ``r`` takes
    batch ``g % S_r`` of epoch ``g // S_r`` (S_r = ceil(n_r / batch_size)
    chronological batches per epoch, the last one may be short) while
    ``g < epochs * S_r``; consecutive rows whose batch has the same size
    share a call of at most ``MAX_STACK_ROWS`` batch rows.  Each call is
    ``(g, lo, hi, size, starts, final)``: rows [lo:hi] take ``size``
    samples from their own ``starts``, and the rows in the range ``final``
    are in their last epoch.  The calls are worked out one epoch of the
    longest row at a time, so the schedule's memory does not grow with
    ``epochs``.
    """
    counts_array = np.array(counts)
    steps = -(-counts_array // batch_size)
    runs: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for epoch in range(epochs):
        g = np.arange(epoch * steps[0], (epoch + 1) * steps[0])[:, None]
        starts = g % steps * batch_size
        sizes = np.minimum(batch_size, counts_array - starts)
        sizes[g >= epochs * steps] = 0  # finished rows, always a suffix
        # Rows in their last epoch are a suffix too: shorter rows get there first.
        first_final = ((epochs - 1) * steps > g).sum(axis=1)
        for step, size_g, start_g, k in zip(
            g[:, 0].tolist(), sizes.tolist(), starts.tolist(), first_final.tolist()
        ):
            pattern = tuple(size_g)
            if pattern not in runs:
                runs[pattern] = _runs(size_g)
            for lo, hi, size in runs[pattern]:
                yield step, lo, hi, size, start_g[lo:hi], range(max(lo, k), hi)


def _draw_kept(rng: np.random.Generator, keep: float, out: np.ndarray) -> None:
    """Fill the C-contiguous bool array ``out``, in flat order, with
    ``rng.random(out.size) < keep``, drawn ``DRAW_CHUNK`` doubles at a time.

    A PCG64 stream gives the same doubles however its draws are chunked.
    """
    kept = out.reshape(-1)
    n = kept.size
    for lo in range(0, n, DRAW_CHUNK):
        np.less(rng.random(min(DRAW_CHUNK, n - lo)), keep, out=kept[lo : lo + DRAW_CHUNK])


def _take(source, lo: int, starts: list[int], size: int) -> np.ndarray:
    """Row ``lo + i``'s ``size`` samples from ``starts[i]``, for every i,
    gathered into a new array.

    ``source`` is a stacked array, one row per client and samples on axis
    1, or a list of per-client arrays.  A training step slices a stacked
    array itself when its rows share one start.
    """
    return np.asarray([source[lo + i][s : s + size] for i, s in enumerate(starts)])


def _step_masks(
    flags: np.ndarray, spans: list[tuple[int, int]], drop_prob: float
) -> list[np.ndarray]:
    """One stacked call's dropout masks from its rows' kept flags.

    ``flags`` is ``(rows, size, W)``: each row's ``size * W`` flags for
    this step, in stream order.  They split into one ``(size, w)`` piece
    per dropout layer, in layer order: the order per-step, per-layer draws
    consume the stream.  ``spans`` holds each layer's ``(a, b)`` column
    bounds in the cumulative dropout widths (``b - a = w``, the last ``b``
    is ``W``), so its piece is flat flags ``size * a`` to ``size * b``.
    Returns one ``(rows, size, w)`` mask per layer, ``1 / (1 - drop_prob)``
    where kept and 0 elsewhere: one multiply of the flags, bitwise the
    flags as floats divided by ``1 - drop_prob``.
    """
    rows, size = flags.shape[:2]
    scale = np.multiply(flags, 1.0 / (1.0 - drop_prob)).reshape(rows, -1)
    masks = []
    for a, b in spans:
        masks.append(scale[:, size * a : size * b].reshape(rows, size, b - a))
    return masks


def local_train(
    clients: list[ClientState],
    template: Model,
    global_weights: np.ndarray,
    fed_config: FederationConfig,
    rngs: list[np.random.Generator],
) -> list[ClientUpdate]:
    """Train clients from the global weights for local_epochs, in lockstep.

    Client ``i`` draws its dropout masks from ``rngs[i]``, one epoch's at
    the step where its epoch starts (see ``_step_masks``).  Its schedule
    is the one it would follow alone: S_i chronological batches per epoch,
    batch ``g % S_i`` of epoch ``g // S_i`` at global step ``g``, until
    ``g`` reaches ``local_epochs * S_i``.  Every client still training at
    step ``g`` has taken exactly ``g`` steps, so one Adam step number serves
    them all.  Adam state starts fresh (moments are not carried across
    rounds).  Each reported loss is the element-weighted mean of the
    client's batch losses during its final epoch, dropout active.  Updates
    come back in the order of ``clients``.

    With more than one epoch, every client's training rows are stacked
    once per call into one source and one target buffer; with a spline
    first block the source holds each client's layer-0 plane over all its
    training rows (``kan_plane``, written into the buffer), whose rows the
    steps pass to ``forward_with_caches`` instead of feature rows.

    A step carries only its math between the calls the benchmark traces
    (``forward_with_caches``, ``mse_loss``, ``model_backward``,
    ``clip_gradient_norm``, ``adam_step``).  A call whose rows share a
    batch start slices its batch, targets and dropout flags out of the
    stacked buffers inline; rows at different starts, and every row of a
    one-epoch round, are gathered (``_take``).  Rows are scanned for epoch
    starts only when a row is at sample 0.  ``_step_masks`` turns the
    flags into masks with one multiply and splits them by each dropout
    layer's span, worked out once per call of this function.  The forward
    walks the model's pass plan and returns one tuple cache per block,
    which the backward walks in reverse (see ``fedbeam.model``).

    No array a step builds outlives it: the batch, targets, flags, masks,
    predictions, caches and loss gradient are dropped after the backward,
    so the next step's forward never allocates beside them.  With freed
    pages kept in the process (see ``fedbeam.cli``), any overlap would set
    the peak memory of the whole run.
    """
    if not clients or len(rngs) != len(clients):
        raise ContractViolationError(
            f"need a non-empty group and one rng per client, got {len(rngs)} rngs "
            f"for {len(clients)} clients"
        )
    for client in clients:
        if client.sample_count < 1:
            raise ConfigurationError(f"client {client.client_id!r} has no training data")
    batch_size, epochs = fed_config.batch_size, fed_config.local_epochs
    # Rows run longest first.  By sample count, descending, is by steps per
    # epoch, then by last batch size, both descending: the rows still
    # training at any step are a prefix.
    order = sorted(range(len(clients)), key=lambda i: -clients[i].sample_count)
    rows = [clients[i] for i in order]
    counts = [c.sample_count for c in rows]
    # Each step reads its rows' samples from their sources: per-client
    # arrays in a one-epoch round, which reads no row twice; otherwise one
    # stacked buffer of every row's training features (for a spline first
    # block, its layer-0 plane, written there directly) and one of targets.
    stacked = epochs > 1
    if stacked:
        layer0 = template.blocks[0]
        spline_first = template.plan[0][1]
        width = template.plane_width if spline_first else template.config.input_width
        sources = np.empty((len(rows), counts[0], width))
        targets = np.empty((len(rows), counts[0], template.config.output_width))
        for r, client in enumerate(rows):
            if spline_first:
                kan_plane(client.train_features, layer0.grid, out=sources[r, : counts[r]])
            else:
                sources[r, : counts[r]] = client.train_features
            targets[r, : counts[r]] = client.train_targets
    else:
        sources = [c.train_features for c in rows]
        targets = [c.train_targets for c in rows]
    # Each row's kept flags for its current epoch, drawn when the epoch
    # starts, and each dropout layer's columns of them.
    drop_prob = template.config.dropout_p
    bounds = [0, *accumulate(dropout_widths(template))]
    spans = list(zip(bounds[:-1], bounds[1:]))
    if drop_prob > 0.0:
        kept = np.empty((len(rows), counts[0], bounds[-1]), dtype=bool)

    # One row per client in the weight, gradient and Adam moment buffers.  A
    # call over rows [lo:hi] steps their row views in place, so whichever
    # call steps a row next reads its current weights and moments.
    model = import_weights(template, global_weights, copies=len(rows))
    grads = np.empty_like(model.weights)
    first, second = np.zeros_like(grads), np.zeros_like(grads)
    rates = (fed_config.learning_rate, fed_config.weight_decay)
    stacks: dict[tuple[int, int], tuple] = {}
    final_losses: list[list[float]] = [[] for _ in rows]
    final_sizes: list[list[int]] = [[] for _ in rows]
    for g, lo, hi, size, starts, final in _lockstep_calls(counts, epochs, batch_size):
        if (lo, hi) not in stacks:
            part = with_weights(model, model.weights[lo:hi])
            stacks[lo, hi] = (
                part,
                with_weights(part, grads[lo:hi]),
                AdamState(first[lo:hi], second[lo:hi], *rates),
            )
        part, part_grads, state = stacks[lo, hi]
        a = starts[0]
        shared = starts.count(a) == hi - lo
        if shared and stacked:
            xb, yb = sources[lo:hi, a : a + size], targets[lo:hi, a : a + size]
        else:
            xb, yb = _take(sources, lo, starts, size), _take(targets, lo, starts, size)
        flags = masks = None
        if drop_prob > 0.0:
            if 0 in starts:
                for r, s in zip(range(lo, hi), starts):
                    if s == 0:  # row r starts an epoch
                        _draw_kept(rngs[order[r]], 1 - drop_prob, kept[r, : counts[r]])
            flags = kept[lo:hi, a : a + size] if shared else _take(kept, lo, starts, size)
            masks = _step_masks(flags, spans, drop_prob)
        preds, caches = forward_with_caches(part, xb, masks)
        losses, loss_grad = mse_loss(preds, yb)
        # A call's few row losses as floats: math.isfinite checks them in
        # less time than one ufunc call takes.
        losses = losses.tolist()
        if not all(map(math.isfinite, losses)):
            bad = ", ".join(
                repr(rows[lo + i].client_id) for i, loss in enumerate(losses) if not math.isfinite(loss)
            )
            raise NumericsError(f"client {bad} produced a non-finite loss")
        model_backward(part, caches, loss_grad, part_grads)
        # Free this step's arrays before the next step's forward (see above).
        del xb, yb, flags, masks, preds, caches, loss_grad
        clip_gradient_norm(part_grads.weights, fed_config.max_grad_norm)
        adam_step(part.weights, part_grads.weights, state, g + 1)
        for r in final:
            final_losses[r].append(losses[r - lo])
            final_sizes[r].append(size)

    trained = export_weights(model)
    updates: list[ClientUpdate] = [None] * len(rows)  # type: ignore[list-item]
    for r, client in enumerate(rows):
        updates[order[r]] = ClientUpdate(
            client_id=client.client_id,
            weights=trained[r],
            sample_count=client.sample_count,
            local_train_loss=float(np.average(final_losses[r], weights=final_sizes[r])),
        )
    return updates


def aggregate(updates: list[ClientUpdate], scheme: str = AGG_UNIFORM) -> np.ndarray:
    """Average client weight vectors, summing in client-id order."""
    if not updates:
        raise ContractViolationError("cannot aggregate zero updates")
    if scheme not in (AGG_UNIFORM, AGG_SAMPLE_WEIGHTED):
        raise ConfigurationError(f"unknown aggregation scheme {scheme!r}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    shapes = {u.weights.shape for u in ordered}
    if len(shapes) != 1:
        raise ContractViolationError(f"client weight vectors differ in shape: {sorted(shapes)}")
    if scheme == AGG_UNIFORM:
        coefficients = [1.0 / len(ordered)] * len(ordered)
    else:
        total = sum(u.sample_count for u in ordered)
        if total <= 0:
            raise ContractViolationError("sample_weighted aggregation needs samples")
        coefficients = [u.sample_count / total for u in ordered]
    acc = np.zeros(ordered[0].weights.shape)
    for coef, update in zip(coefficients, ordered):
        acc = acc + coef * update.weights
    acc.flags.writeable = False
    return acc


def evaluate_global(
    weights: np.ndarray, clients: list[ClientState], template: Model
) -> tuple[dict[str, float], float]:
    """Evaluation-pass MSE per client plus the unweighted average."""
    if not clients:
        raise ContractViolationError("cannot evaluate on zero clients")
    model = import_weights(template, weights)
    per_client: dict[str, float] = {}
    for client in sorted(clients, key=lambda c: c.client_id):
        preds = forward(model, client.test_features)
        loss, _ = mse_loss(preds, client.test_targets)
        if not np.isfinite(loss):
            raise NumericsError(
                f"client {client.client_id!r} produced a non-finite test loss"
            )
        per_client[client.client_id] = float(loss)
    avg = float(np.mean(list(per_client.values())))
    return per_client, avg


def _availability_draw(
    clients: list[ClientState], prob: float, rng: np.random.Generator
) -> list[ClientState]:
    # prob 1.0 keeps all; an empty draw falls back to one uniformly chosen client.
    mask = rng.random(len(clients)) < prob
    if not mask.any():
        mask[rng.integers(len(clients))] = True
    return [c for c, keep in zip(clients, mask) if keep]


def _usable_cpus() -> int:
    """How many processes a run may spread over: the CPUs this process may
    run on, or 1 where the platform cannot say or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _deal(clients: list[ClientState], shares: int) -> list[list[int]]:
    """Positions in ``clients`` dealt round-robin into at most ``shares``
    groups, by descending sample count with ties in client-id order."""
    ranked = sorted(
        range(len(clients)), key=lambda i: (-clients[i].sample_count, clients[i].client_id)
    )
    return [ranked[k::shares] for k in range(min(shares, len(ranked)))]


class Helpers(ForkPool):
    """The processes that train and evaluate shares of one run's clients (see
    the module docstring): a ``ForkPool`` of this process and one helper
    per CPU of ``cpus`` (default: every usable CPU) beyond the first, never
    more than there are clients minus one.  Its work is one share, ``(client
    ids, weights, round index)``: those clients' ``local_train`` updates in
    that round, or with ``None`` for the round, their test losses from
    ``evaluate_global``; one result per client, in the order of the ids.
    Each process seeds its share's dropout generators itself, from the seed,
    the round and each client's index in client-id order, so no generator
    crosses a pipe.  A helper is forked the first time a map has a share for
    it, so it inherits the run's clients, template and config.  ``close``,
    or leaving a ``with`` block, ends them.
    """

    def __init__(
        self,
        clients: list[ClientState],
        template: Model,
        fed_config: FederationConfig,
        cpus: int | None = None,
    ) -> None:
        by_id = {c.client_id: c for c in clients}
        # A client's dropout stream is fixed by its index among all clients.
        index = {client_id: k for k, client_id in enumerate(sorted(by_id))}

        def share(item: tuple) -> list:
            ids, weights, round_index = item
            group = [by_id[i] for i in ids]
            if round_index is None:
                losses = evaluate_global(weights, group, template)[0]
                return [losses[i] for i in ids]
            seed = fed_config.seed
            rngs = [
                np.random.default_rng(np.random.SeedSequence((seed, round_index, 1, index[i])))
                for i in ids
            ]
            return local_train(group, template, weights, fed_config, rngs)

        super().__init__(share, min(_usable_cpus() if cpus is None else cpus, len(clients)))


def _in_shares(
    helpers: Helpers,
    clients: list[ClientState],
    weights: np.ndarray,
    round_index: int | None = None,
) -> list:
    """One result per client, in the order of ``clients``: the clients are
    dealt into one share per process of ``helpers``, and the shares mapped
    through them, to train in round ``round_index`` or, with ``None``, to
    evaluate."""
    groups = _deal(clients, helpers.processes)
    answers = helpers.map(
        [([clients[i].client_id for i in group], weights, round_index) for group in groups]
    )
    results: list = [None] * len(clients)
    for group, answer in zip(groups, answers):
        for i, result in zip(group, answer):
            results[i] = result
    return results


def run_round(
    global_weights: np.ndarray,
    clients: list[ClientState],
    template: Model,
    fed_config: FederationConfig,
    round_index: int,
    *,
    helpers: Helpers | None = None,
) -> tuple[np.ndarray, RoundReport]:
    """One synchronous round; evaluates the new weights on every client.

    The participants are dealt across the processes of ``helpers`` (built
    over these clients, template and config), one ``local_train`` call per
    process, and then so are the evaluated clients (see the module
    docstring).  Without ``helpers`` the round runs on a one-process
    ``Helpers``, which forks nothing.  The report is the same bytes however
    the round is dealt.
    """
    if not clients:
        raise ContractViolationError("cannot run a round with zero clients")
    ordered = sorted(clients, key=lambda c: c.client_id)
    avail_rng = np.random.default_rng(
        np.random.SeedSequence((fed_config.seed, round_index, 0))
    )
    participants = _availability_draw(ordered, fed_config.availability_prob, avail_rng)
    if helpers is None:
        helpers = Helpers(clients, template, fed_config, cpus=1)
    updates = _in_shares(helpers, participants, global_weights, round_index)

    new_weights = aggregate(updates, fed_config.aggregation)
    losses = _in_shares(helpers, ordered, new_weights)
    per_client = {c.client_id: loss for c, loss in zip(ordered, losses)}
    avg_test = float(np.mean(losses))
    avg_train = float(np.mean([u.local_train_loss for u in updates]))
    report = RoundReport(
        round_index=round_index,
        participants=tuple(u.client_id for u in sorted(updates, key=lambda u: u.client_id)),
        avg_train_loss=avg_train,
        per_client_test_loss=per_client,
        avg_test_loss=avg_test,
    )
    log.info(
        "round %d: %d participants, train %.6f, test %.6f",
        round_index,
        len(participants),
        avg_train,
        avg_test,
    )
    return new_weights, report


def build_clients(
    beams: list[BeamSeries], window_hours: int, train_fraction: float
) -> list[ClientState]:
    """Every beam as a client (``build_client``), in order; a run builds them
    once, before any model or helper is forked, and its models share them.
    They copy what they read of ``beams`` and keep no reference to them."""
    if not beams:
        raise ConfigurationError("build_clients needs at least one beam")
    clients = [build_client(b, window_hours, train_fraction) for b in beams]
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate beam ids: {sorted(ids)}")
    return clients


def run_experiment(
    model_config: ModelConfig,
    fed_config: FederationConfig,
    clients: list[ClientState],
    window_hours: int = 5,
    train_fraction: float = 0.8,
    *,
    cpus: int | None = None,
) -> ExperimentReport:
    """Full FedAvg run over ``clients``, built by ``build_clients`` with
    ``window_hours`` and ``train_fraction``: train for rounds, report.  The
    rounds share one ``Helpers`` over the clients, so a round spreads over
    ``cpus`` processes, by default one per usable CPU (see the module
    docstring); every helper has exited when this returns or raises."""
    check_model_fits_data(model_config, window_hours)
    template = build_model(model_config, fed_config.seed)
    global_weights = export_weights(template)
    digest = dataset_digest(clients)
    reports = []
    with Helpers(clients, template, fed_config, cpus) as helpers:
        for round_index in range(1, fed_config.rounds + 1):
            global_weights, report = run_round(
                global_weights, clients, template, fed_config, round_index, helpers=helpers
            )
            reports.append(report)
    return ExperimentReport(
        model_config=model_config,
        federation_config=fed_config,
        data_config={
            "window_hours": window_hours,
            "train_fraction": train_fraction,
            "beam_ids": sorted(c.client_id for c in clients),
        },
        dataset_digest=digest,
        rounds=tuple(reports),
        final_avg_test_loss=reports[-1].avg_test_loss,
        final_weights=global_weights,
    )


def deal_experiments(
    work: Callable[[int, int], ExperimentReport], count: int
) -> list[ExperimentReport]:
    """``work(k, cpus)`` for each experiment k in range(count), dealt across
    processes before its clients are; the reports in k order.

    With at least ``count`` usable CPUs, experiment k runs in process k of a
    ``ForkPool`` (0 is this process), and ``cpus`` is its share of the usable
    CPUs, dealt round-robin from experiment 0, for its own client shares.
    Every experiment finishes before the first failed one's error is raised.
    With fewer CPUs the experiments run one after another in this process,
    and the first error stops the rest.
    """
    cpus = _usable_cpus()
    if cpus < count:
        return [work(k, cpus) for k in range(count)]
    shares = [len(range(k, cpus, count)) for k in range(count)]
    with ForkPool(lambda k: work(k, shares[k]), count) as pool:
        return pool.map(range(count))
