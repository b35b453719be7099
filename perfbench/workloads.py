"""Workload definitions, input generation and the output oracle.

Every workload is one `fedbeam train` invocation on beam CSVs generated
from the workload seed.  The program only ever sees the generated files
and a config document; nothing in the inputs names the workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Seed 7 is the README quick-start data.  HOLDOUT_SEED is the second seed:
# check a claimed gain on it too, since it was not used while the change
# under test was written.
DEFAULT_SEED = 7
HOLDOUT_SEED = 11

# Federation seed for model init, dropout and availability draws.  It is
# fixed, so every workload seed runs the same participation schedule.
FEDERATION_SEED = 0
WINDOW_HOURS = 5
TRAIN_FRACTION = 0.8

# Relative tolerance of the final loss against the seed's reference.  It is
# loose enough for a change that re-baselines floating-point summation order
# and tight enough to catch a wrong kernel.
LOSS_RTOL = 1e-4

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    hours: tuple[int, ...]
    rounds: int
    local_epochs: int
    batch_size: int
    availability: float
    aggregation: str

    def shape(self) -> dict:
        return {
            "model": self.kind,
            "beams": len(self.hours),
            "hours": list(self.hours),
            "rounds": self.rounds,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "availability": self.availability,
            "aggregation": self.aggregation,
        }


def _fleet_hours() -> tuple[int, ...]:
    return tuple(int(h) for h in np.linspace(743, 2160, 16).round())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kan_protocol",
            "fed_kan at the paper protocol; the spline basis and KAN layers dominate",
            "fed_kan", (743,) * 4, 20, 5, 16, 1.0, "uniform",
        ),
        Workload(
            "mlp_protocol",
            "fed_mlp on the same protocol; no spline work, parameter bookkeeping dominates",
            "fed_mlp", (743,) * 4, 20, 5, 16, 1.0, "uniform",
        ),
        Workload(
            "kan_fleet",
            "fed_kan on 16 uneven beams, batch 128, partial weighted rounds; ingest and eval weigh more",
            "fed_kan", _fleet_hours(), 20, 1, 128, 0.75, "sample_weighted",
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of a workload, for the benchmark's own tests.

    It still trains far enough to beat the mean predictor, and its name has
    no reference entry, so the ceiling check is the one it exercises.
    """
    return replace(
        workload,
        name=f"{workload.name}-tiny",
        hours=(200, 220, 240),
        rounds=4,
        local_epochs=15,
        batch_size=16,
    )


def write_inputs(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the beam CSVs and the train config; return the config path.

    Beam i is `generate_synthetic(seed, hours[i], default_profiles(n)[i])`,
    so seed 7 on four 743-hour beams is byte-identical to
    `fedbeam generate --seed 7`.
    """
    from fedbeam.data import default_profiles, generate_synthetic, render_csv

    beam_dir = work_dir / "beams"
    beam_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for profile, hours in zip(default_profiles(len(workload.hours)), workload.hours):
        path = beam_dir / f"beam-{profile.index + 1:02d}.csv"
        path.write_text(render_csv(generate_synthetic(seed, hours, profile)), encoding="utf-8")
        files.append(str(path))
    config = {
        "model": {"kind": workload.kind},
        "federation": {
            "rounds": workload.rounds,
            "local_epochs": workload.local_epochs,
            "batch_size": workload.batch_size,
            "aggregation": workload.aggregation,
            "availability_prob": workload.availability,
            "seed": FEDERATION_SEED,
        },
        "data": {
            "beam_files": files,
            "window_hours": WINDOW_HOURS,
            "train_fraction": TRAIN_FRACTION,
        },
        "out_dir": str(work_dir / "out"),
    }
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return config_path


def _client_arrays(csv_path: Path) -> tuple[np.ndarray, ...]:
    """Window, split and scale one beam CSV as the README's Data format says.

    Written against the documented format, not against fedbeam's code, so
    that it is an independent oracle for the dataset digest.
    """
    rows = [ln.split(",") for ln in csv_path.read_text(encoding="utf-8").splitlines()[1:] if ln.strip()]
    volumes = np.array([[float(r[1]), float(r[2])] for r in rows], dtype=np.float64)
    shares = []
    for r in rows:
        s = np.clip(np.array([float(c) for c in r[3:7]], dtype=np.float64), 0.0, 1.0)
        shares.append(s / float(s.sum()))
    shares = np.array(shares, dtype=np.float64)
    n = len(rows) - WINDOW_HOURS
    features = np.stack([volumes[t : t + WINDOW_HOURS].reshape(-1) for t in range(n)])
    targets = shares[WINDOW_HOURS:]
    n_train = int(math.floor(TRAIN_FRACTION * n))
    lo = features[:n_train].min(axis=0)
    span = features[:n_train].max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (features - lo) / safe, 0.0)
    return scaled[:n_train], targets[:n_train], scaled[n_train:], targets[n_train:]


def oracle(config_path: Path) -> tuple[str, float]:
    """The dataset digest a report must carry for these inputs, and the
    test loss of predicting each beam's mean training target.

    A trained model must beat that loss on seeds without a reference.
    """
    files = json.loads(config_path.read_text(encoding="utf-8"))["data"]["beam_files"]
    h = hashlib.sha256()
    losses = []
    for i, path in enumerate(files):
        arrays = _client_arrays(Path(path))
        h.update(f"beam-{i + 1:02d}".encode("utf-8"))
        for arr in arrays:
            h.update(np.ascontiguousarray(arr).tobytes())
        _, train_targets, _, test_targets = arrays
        losses.append(float(np.mean((test_targets - train_targets.mean(axis=0)) ** 2)))
    return h.hexdigest(), float(np.mean(losses))


def load_reference() -> dict:
    """{workload: {seed: {"final_test_loss": float, "report_sha256": hex}}}."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check_report(
    text: str, digest: str, ceiling: float, workload: Workload, reference: dict | None
) -> tuple[float | None, list[str]]:
    """The report's final loss, and its problems; no problems means the run
    passed."""
    from fedbeam.errors import IngestionError
    from fedbeam.report import parse_experiment_csv

    try:
        parsed = parse_experiment_csv(text)
        loss = float(parsed["meta"]["final_avg_test_loss"])
    except (IngestionError, KeyError, TypeError, ValueError) as exc:
        return None, [f"report does not parse: {exc}"]
    problems = []
    if parsed["meta"].get("dataset_digest") != digest:
        problems.append("dataset digest does not match the generated inputs")
    if parsed["rows"].shape[0] != workload.rounds:
        problems.append(f"report has {parsed['rows'].shape[0]} rounds, expected {workload.rounds}")
    elif parsed["rows"][-1, 2] != loss:
        problems.append("final loss differs from the last round's test loss")
    if not math.isfinite(loss) or loss <= 0.0:
        problems.append(f"final loss {loss!r} is not finite and positive")
    elif reference is not None:
        ref = reference["final_test_loss"]
        if abs(loss - ref) > LOSS_RTOL * ref:
            problems.append(f"final loss {loss!r} differs from reference {ref!r}")
    elif loss >= ceiling:
        problems.append(f"final loss {loss!r} is no better than the mean predictor's {ceiling!r}")
    return loss, problems
