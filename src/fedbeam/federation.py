"""Synchronous FedAvg over beam clients.

One round: broadcast the global weights, train each available client for
local_epochs over its own windowed series, aggregate the returned weight
vectors, then evaluate the new global model on every client's test set.

A round trains all its participants in lockstep, one row per client of a
stacked model, even when their series differ in length.  The clients step
together on a global step counter; a client leaves the stack when its own
schedule ends, and at each step the clients whose batch has the same size
form one stacked call (split when it would exceed ``MAX_STACK_ROWS``
batch rows).  Every client keeps its own seeded dropout stream and its
own rows of the stack's weight and Adam moment buffers, which each call
updates in place, and each row's arithmetic is the same as training that
client alone, so the stacking cannot change results.

A spline first layer reads only the client's fixed training windows, so
when a round trains more than one local epoch each participant's layer-0
plane (``silu`` and the B-spline bases of every feature) is built once per
run, over all its training rows, by the first round that trains it, and
every step of every later round gathers its batch's rows of that plane in
place of feature rows.  A point's plane bits do not depend on the points
evaluated with it, so this cannot change results either.  With one local
epoch no row is read twice in a round, and nothing is built ahead.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .data import BeamSeries, Scaler, train_count, window_arrays
from .errors import (
    ConfigurationError,
    ContractViolationError,
    NumericsError,
    require_finite,
    require_int,
)
from .layers import MODE_EVAL, MODE_TRAIN
from .model import (
    KanBlock,
    Model,
    ModelConfig,
    build_model,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    input_plane,
    model_backward,
    segment_views,
    with_weights,
)
from .optim import AdamState, adam_step, clip_gradient_norm, mse_loss
from .params import ParameterVector

log = logging.getLogger(__name__)

AGG_UNIFORM = "uniform"
AGG_SAMPLE_WEIGHTED = "sample_weighted"

# Most batch rows (clients x samples) one stacked training call may take.
# On kan_fleet (batch 128, ~12 participants a round, 2-core machine) caps
# of 384, 768 and 1,536 rows trained its 20 rounds in ~0.98, ~0.94 and
# ~0.93 s and peaked at 46.2, 49.4 and 54.4 MB RSS, against 50.1 MB for
# one client per call: 768 takes most of the gain and stays below that.
MAX_STACK_ROWS = 768


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

    def validate(self) -> None:
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
        return {
            "rounds": self.rounds,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "aggregation": self.aggregation,
            "availability_prob": self.availability_prob,
            "seed": self.seed,
            "learning_rate": self.learning_rate,
            "weight_decay": self.weight_decay,
            "max_grad_norm": self.max_grad_norm,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "FederationConfig":
        known = set(cls().to_dict())
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown federation config keys: {sorted(extra)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    weights: ParameterVector
    sample_count: int
    local_train_loss: float


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    participants: tuple[str, ...]
    avg_train_loss: float
    per_client_test_loss: dict[str, float]
    avg_test_loss: float


@dataclass(frozen=True)
class ExperimentReport:
    model_config: ModelConfig
    federation_config: FederationConfig
    data_config: dict
    dataset_digest: str
    rounds: tuple[RoundReport, ...]
    final_avg_test_loss: float
    final_weights: ParameterVector


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


def minibatch_slices(n: int, batch_size: int) -> list[slice]:
    """Chronological batches; the last one may be short."""
    if n < 1:
        raise ConfigurationError("cannot batch an empty training set")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return [slice(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]


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
    batch ``g % S_r`` of epoch ``g // S_r`` (S_r batches per epoch) while
    ``g < epochs * S_r``; consecutive rows whose batch has the same size
    share a call of at most ``MAX_STACK_ROWS`` batch rows.  Each call is
    ``(g, lo, hi, size, starts, final)``: rows [lo:hi] take ``size``
    samples from their own ``starts``, and the rows in the range ``final``
    are in their last epoch.  The calls are worked out one epoch of the
    longest row at a time, so the schedule's memory does not grow with
    ``epochs``.
    """
    steps = np.array([len(minibatch_slices(n, batch_size)) for n in counts])
    counts_array = np.array(counts)
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


def local_train(
    clients: list[ClientState],
    template: Model,
    global_weights: ParameterVector,
    fed_config: FederationConfig,
    rngs: list[np.random.Generator],
    planes: dict[str, np.ndarray] | None = None,
) -> list[ClientUpdate]:
    """Train clients from the global weights for local_epochs, in lockstep.

    Client ``i`` draws its dropout masks from ``rngs[i]``.  Its schedule
    is the one it would follow alone: S_i chronological batches per epoch,
    batch ``g % S_i`` of epoch ``g // S_i`` at global step ``g``, until
    ``g`` reaches ``local_epochs * S_i``.  Every client still training at
    step ``g`` has taken exactly ``g`` steps, so one Adam step number serves
    them all.  Adam state starts fresh (moments are not carried across
    rounds).  Each reported loss is the element-weighted mean of the
    client's batch losses during its final epoch, dropout active.  Updates
    come back in the order of ``clients``.

    With more than one epoch and a spline first block, the steps gather
    rows of each client's layer-0 plane over all its training rows
    (``input_plane``) instead of feature rows (``forward_with_caches(...,
    planned=True)``).  ``planes`` maps client ids to those planes: a
    client's plane is taken from it, or built and stored there the first
    time it is needed, so a caller that passes the same dict every round
    (``run_experiment``) builds each plane once per run.  The planes depend
    on the training features and the template's grid alone; a dict must
    only be reused for the same clients and model config.  Without
    ``planes`` they live for this call only.
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
    # Each step gathers its rows from its client's source: the layer-0
    # plane when a later epoch reads every row again, else the features.
    planned = epochs > 1 and isinstance(template.blocks[0], KanBlock)
    if planned:
        planes = {} if planes is None else planes
        for c in rows:
            if c.client_id not in planes:
                planes[c.client_id] = input_plane(template, c.train_features)
    sources = [planes[c.client_id] if planned else c.train_features for c in rows]

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
            stacks[lo, hi] = (
                with_weights(model, model.weights[lo:hi]),
                grads[lo:hi],
                segment_views(model.layout, grads[lo:hi]),
                [rngs[order[r]] for r in range(lo, hi)],
                AdamState(first[lo:hi], second[lo:hi], *rates),
            )
        part, part_grads, segments, part_rngs, state = stacks[lo, hi]
        parts = list(zip(range(lo, hi), starts))
        xb = np.asarray([sources[r][a : a + size] for r, a in parts])
        yb = np.asarray([rows[r].train_targets[a : a + size] for r, a in parts])
        preds, caches = forward_with_caches(part, xb, MODE_TRAIN, part_rngs, planned)
        losses, loss_grad = mse_loss(preds, yb)
        finite = np.isfinite(losses)
        if not finite.all():
            bad = ", ".join(repr(rows[lo + i].client_id) for i in np.flatnonzero(~finite))
            raise NumericsError(f"client {bad} produced a non-finite loss")
        model_backward(part, caches, loss_grad, segments)
        clip_gradient_norm(part_grads, fed_config.max_grad_norm, segments)
        adam_step(part.weights, part_grads, state, g + 1)
        for r in final:
            final_losses[r].append(losses[r - lo])
            final_sizes[r].append(size)

    updates: list[ClientUpdate] = [None] * len(rows)  # type: ignore[list-item]
    for r, client in enumerate(rows):
        updates[order[r]] = ClientUpdate(
            client_id=client.client_id,
            weights=ParameterVector.from_flat(model.layout, model.weights[r]),
            sample_count=client.sample_count,
            local_train_loss=float(np.average(final_losses[r], weights=final_sizes[r])),
        )
    return updates


def aggregate(updates: list[ClientUpdate], scheme: str = AGG_UNIFORM) -> ParameterVector:
    """Average client weight vectors, summing in client-id order."""
    if not updates:
        raise ContractViolationError("cannot aggregate zero updates")
    if scheme not in (AGG_UNIFORM, AGG_SAMPLE_WEIGHTED):
        raise ConfigurationError(f"unknown aggregation scheme {scheme!r}")
    ordered = sorted(updates, key=lambda u: u.client_id)
    layout = ordered[0].weights.layout()
    for u in ordered[1:]:
        ordered[0].weights.require_same_layout(u.weights)
    if scheme == AGG_UNIFORM:
        coefficients = [1.0 / len(ordered)] * len(ordered)
    else:
        total = sum(u.sample_count for u in ordered)
        if total <= 0:
            raise ContractViolationError("sample_weighted aggregation needs samples")
        coefficients = [u.sample_count / total for u in ordered]
    acc = np.zeros_like(ordered[0].weights.to_flat())
    for coef, update in zip(coefficients, ordered):
        acc = acc + coef * update.weights.to_flat()
    return ParameterVector.from_flat(layout, acc)


def evaluate_global(
    weights: ParameterVector, clients: list[ClientState], template: Model
) -> tuple[dict[str, float], float]:
    """Eval-mode MSE per client plus the unweighted average."""
    if not clients:
        raise ContractViolationError("cannot evaluate on zero clients")
    model = import_weights(template, weights)
    per_client: dict[str, float] = {}
    for client in sorted(clients, key=lambda c: c.client_id):
        preds = forward(model, client.test_features, MODE_EVAL)
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


def run_round(
    global_weights: ParameterVector,
    clients: list[ClientState],
    template: Model,
    fed_config: FederationConfig,
    round_index: int,
    planes: dict[str, np.ndarray] | None = None,
) -> tuple[ParameterVector, RoundReport]:
    """One synchronous round; evaluates the new weights on every client.

    All participants train in one local_train call, which reads and fills
    ``planes`` (see ``local_train``).
    """
    if not clients:
        raise ContractViolationError("cannot run a round with zero clients")
    ordered = sorted(clients, key=lambda c: c.client_id)
    avail_rng = np.random.default_rng(
        np.random.SeedSequence((fed_config.seed, round_index, 0))
    )
    participants = _availability_draw(ordered, fed_config.availability_prob, avail_rng)

    # A client's dropout stream is fixed by its index among all clients.
    index = {client.client_id: idx for idx, client in enumerate(ordered)}
    rngs = [
        np.random.default_rng(
            np.random.SeedSequence((fed_config.seed, round_index, 1, index[c.client_id]))
        )
        for c in participants
    ]
    updates = local_train(participants, template, global_weights, fed_config, rngs, planes)

    new_weights = aggregate(updates, fed_config.aggregation)
    per_client, avg_test = evaluate_global(new_weights, ordered, template)
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


def run_experiment(
    model_config: ModelConfig,
    fed_config: FederationConfig,
    beams: list[BeamSeries],
    window_hours: int = 5,
    train_fraction: float = 0.8,
) -> ExperimentReport:
    """Full FedAvg run: build clients, train for rounds, report."""
    model_config.validate()
    fed_config.validate()
    if not beams:
        raise ConfigurationError("run_experiment needs at least one beam")
    expected = 2 * window_hours
    if model_config.input_width != expected:
        raise ConfigurationError(
            f"model input_width {model_config.input_width} does not match "
            f"2 * window_hours = {expected}"
        )
    clients = [build_client(b, window_hours, train_fraction) for b in beams]
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ConfigurationError(f"duplicate beam ids: {sorted(ids)}")

    template = build_model(model_config, fed_config.seed)
    global_weights = export_weights(template)
    digest = dataset_digest(clients)
    # Layer-0 training planes, built by the first round that trains each
    # client and kept for the run.
    planes: dict[str, np.ndarray] = {}
    reports = []
    for round_index in range(1, fed_config.rounds + 1):
        global_weights, report = run_round(
            global_weights, clients, template, fed_config, round_index, planes
        )
        reports.append(report)
    return ExperimentReport(
        model_config=model_config,
        federation_config=fed_config,
        data_config={
            "window_hours": window_hours,
            "train_fraction": train_fraction,
            "beam_ids": sorted(ids),
        },
        dataset_digest=digest,
        rounds=tuple(reports),
        final_avg_test_loss=reports[-1].avg_test_loss,
        final_weights=global_weights,
    )
