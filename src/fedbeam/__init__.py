"""Federated KAN / MLP forecasting of per-beam satellite traffic composition."""

__version__ = "0.1.0"

from .data import (
    CATEGORIES,
    BeamProfile,
    BeamSeries,
    Scaler,
    default_profiles,
    generate_synthetic,
    load_csv,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    FedbeamError,
    IngestionError,
    NumericsError,
)
from .federation import (
    ClientState,
    ClientUpdate,
    ExperimentReport,
    FederationConfig,
    RoundReport,
    aggregate,
    build_client,
    evaluate_global,
    local_train,
    run_experiment,
    run_round,
)
from .model import (
    KIND_FED_KAN,
    KIND_FED_MLP,
    Model,
    ModelConfig,
    build_model,
    count_parameters,
    export_weights,
    forward,
    import_weights,
)
from .splines import SplineGrid, basis_matrix

__all__ = [
    "__version__",
    "CATEGORIES",
    "BeamProfile",
    "BeamSeries",
    "Scaler",
    "default_profiles",
    "generate_synthetic",
    "load_csv",
    "ConfigurationError",
    "ContractViolationError",
    "FedbeamError",
    "IngestionError",
    "NumericsError",
    "ClientState",
    "ClientUpdate",
    "ExperimentReport",
    "FederationConfig",
    "RoundReport",
    "aggregate",
    "build_client",
    "evaluate_global",
    "local_train",
    "run_experiment",
    "run_round",
    "KIND_FED_KAN",
    "KIND_FED_MLP",
    "Model",
    "ModelConfig",
    "build_model",
    "count_parameters",
    "export_weights",
    "forward",
    "import_weights",
    "SplineGrid",
    "basis_matrix",
]
