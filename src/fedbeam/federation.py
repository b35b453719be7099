"""Synchronous FedAvg over beam clients.

One round: broadcast the global weights, train each available client for
local_epochs over its own windowed series, aggregate the returned weight
vectors, then evaluate the new global model on every client's test set.

Clients with the same number of training samples share a minibatch
schedule, so a round trains each such group in lockstep: one stacked
model, one row per client, stepping all of them per NumPy call.  Every
client keeps its own Adam moments and its own seeded dropout stream, and
each row's arithmetic is the same as training that client alone, so the
grouping cannot change results.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass

import numpy as np

from .data import BeamSeries, apply_scaler, chrono_split, fit_scaler, make_windows
from .errors import (
    ConfigurationError,
    ContractViolationError,
    NumericsError,
    require_finite,
    require_int,
)
from .layers import MODE_EVAL, MODE_TRAIN
from .model import (
    Model,
    ModelConfig,
    build_model,
    export_weights,
    forward,
    forward_with_caches,
    import_weights,
    model_backward,
    segment_views,
)
from .optim import AdamState, adam_step, clip_gradient_norm, mse_loss
from .params import ParameterVector

log = logging.getLogger(__name__)

AGG_UNIFORM = "uniform"
AGG_SAMPLE_WEIGHTED = "sample_weighted"


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
    samples = make_windows(series, window_hours)
    train, test = chrono_split(samples, train_fraction)
    scaler = fit_scaler(train)
    train = apply_scaler(scaler, train)
    test = apply_scaler(scaler, test)
    return ClientState(
        client_id=series.beam_id,
        train_features=np.stack([s.features for s in train]),
        train_targets=np.stack([s.target for s in train]),
        test_features=np.stack([s.features for s in test]),
        test_targets=np.stack([s.target for s in test]),
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
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def minibatch_slices(n: int, batch_size: int) -> list[slice]:
    """Chronological batches; the last one may be short."""
    if n < 1:
        raise ConfigurationError("cannot batch an empty training set")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return [slice(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]


def local_train(
    clients: list[ClientState],
    template: Model,
    global_weights: ParameterVector,
    fed_config: FederationConfig,
    rngs: list[np.random.Generator],
) -> list[ClientUpdate]:
    """Train a group of clients from the global weights for local_epochs.

    The clients must share a sample count; they train in lockstep as one
    stacked model, client ``i`` drawing its dropout masks from ``rngs[i]``.
    Adam state starts fresh (moments are not carried across rounds).  Each
    reported loss is the element-weighted mean of the client's batch
    losses during the final epoch, dropout active.  Updates come back in
    the order of ``clients``.
    """
    if not clients or len(rngs) != len(clients):
        raise ContractViolationError(
            f"need a non-empty group and one rng per client, got {len(rngs)} rngs "
            f"for {len(clients)} clients"
        )
    n = clients[0].sample_count
    if any(c.sample_count != n for c in clients):
        counts = {c.client_id: c.sample_count for c in clients}
        raise ContractViolationError(
            f"clients trained together must share a sample count, got {counts}"
        )
    if n < 1:
        raise ConfigurationError(f"client {clients[0].client_id!r} has no training data")
    # The group's own copy: every step updates its weight rows in place.
    model = import_weights(template, global_weights, copies=len(clients))
    grads = np.empty_like(model.weights)
    grad_segments = segment_views(model.layout, grads)
    state = AdamState.initial(
        grads.shape, fed_config.learning_rate, fed_config.weight_decay
    )
    features = np.stack([c.train_features for c in clients])
    targets = np.stack([c.train_targets for c in clients])
    slices = minibatch_slices(n, fed_config.batch_size)

    final_epoch_losses: list[np.ndarray] = []
    final_epoch_sizes: list[int] = []
    for epoch in range(fed_config.local_epochs):
        last_epoch = epoch == fed_config.local_epochs - 1
        for sl in slices:
            xb = features[:, sl]
            preds, caches = forward_with_caches(model, xb, MODE_TRAIN, rngs)
            losses, loss_grad = mse_loss(preds, targets[:, sl])
            finite = np.isfinite(losses)
            if not finite.all():
                bad = ", ".join(repr(c.client_id) for c, ok in zip(clients, finite) if not ok)
                raise NumericsError(f"client {bad} produced a non-finite loss")
            model_backward(model, caches, loss_grad, grads)
            clip_gradient_norm(grads, fed_config.max_grad_norm, grad_segments)
            new_weights, state = adam_step(model.weights, grads, state)
            model.weights[...] = new_weights
            if last_epoch:
                final_epoch_losses.append(losses)
                final_epoch_sizes.append(xb.shape[1])

    sizes = np.array(final_epoch_sizes)
    return [
        ClientUpdate(
            client_id=client.client_id,
            weights=ParameterVector.from_flat(model.layout, row),
            sample_count=n,
            local_train_loss=float(np.average(client_losses, weights=sizes)),
        )
        for client, row, client_losses in zip(
            clients, model.weights, np.array(final_epoch_losses).T
        )
    ]


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
) -> tuple[ParameterVector, RoundReport]:
    """One synchronous round; evaluates the new weights on every client.

    Participants are trained in groups of equal sample count, one
    local_train call per group; a client whose count no other participant
    shares is a group of one.
    """
    if not clients:
        raise ContractViolationError("cannot run a round with zero clients")
    ordered = sorted(clients, key=lambda c: c.client_id)
    avail_rng = np.random.default_rng(
        np.random.SeedSequence((fed_config.seed, round_index, 0))
    )
    participants = _availability_draw(ordered, fed_config.availability_prob, avail_rng)

    # Each client's stream is fixed by its index, so grouping cannot matter.
    rngs = {
        client.client_id: np.random.default_rng(
            np.random.SeedSequence((fed_config.seed, round_index, 1, idx))
        )
        for idx, client in enumerate(ordered)
    }
    groups: dict[int, list[ClientState]] = {}
    for client in participants:
        groups.setdefault(client.sample_count, []).append(client)
    trained: dict[str, ClientUpdate] = {}
    for group in groups.values():
        group_rngs = [rngs[c.client_id] for c in group]
        for update in local_train(group, template, global_weights, fed_config, group_rngs):
            trained[update.client_id] = update
    updates = [trained[c.client_id] for c in participants]

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
    reports = []
    for round_index in range(1, fed_config.rounds + 1):
        global_weights, report = run_round(
            global_weights, clients, template, fed_config, round_index
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
