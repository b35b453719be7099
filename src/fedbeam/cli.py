"""Command-line entry point.

Subcommands:
  generate   write seeded synthetic beam CSVs
  train      run one federated experiment from a config file
  compare    train fed_kan and fed_mlp on identical data and report both

Exit codes: 0 success, 2 configuration problem (including a config whose
arrays do not fit in memory), 3 I/O problem, 4 numeric failure (non-finite
loss).  FEDBEAM_LOG names the log level as the logging module spells it
(DEBUG, INFO, WARNING, ...; WARNING when unset); any other value exits 2.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import dataclasses
import itertools
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import federation
from .data import (
    BeamSeries,
    check_train_fraction,
    default_profiles,
    generate_synthetic,
    load_csv,
    render_csv,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    IngestionError,
    NumericsError,
    require_finite,
    require_int,
)
from .federation import (
    ExperimentReport,
    FederationConfig,
    build_clients,
    check_model_fits_data,
    deal_experiments,
    run_experiment,
)
from .model import KIND_FED_KAN, KIND_FED_MLP, ModelConfig
from .pool import ForkPool
from .report import render_comparison_csv, render_experiment_csv, summary_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

log = logging.getLogger(__name__)

# glibc mallopt parameters, and the size below which freed heap pages stay
# in the process and allocations come from the heap rather than mmap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BYTES = 256 << 20


def _keep_freed_pages() -> tuple[int, int] | None:
    """Keep freed heap pages in this process for the rest of the run.

    Training frees and reallocates arrays of the same sizes every step.  By
    default glibc trims the heap and unmaps large arrays on free, so the
    next step faults the same pages in again.  On a 2-vCPU VM a 20-round run
    on 16 uneven beams at batch 128 took ~53,000 minor page faults when run
    a second time in one process (~2.5 us of system time each), and under
    100 with both thresholds raised.  Raising only the trim threshold left
    4,500 faults in a process's first run (2,400 with both); raising only
    the mmap threshold gave ~80,000, since that switches off glibc's dynamic
    threshold and leaves trimming at 128 KiB.  Set at the process entry and
    never at import, so a program that imports fedbeam keeps its own
    allocator.  Returns mallopt's two results (1 on success), or None where
    the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_TRIM_THRESHOLD, _KEEP_BYTES), mallopt(_M_MMAP_THRESHOLD, _KEEP_BYTES)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed contents of a --config JSON document."""

    model: ModelConfig
    federation: FederationConfig
    window_hours: int
    train_fraction: float
    beam_files: tuple[str, ...] | None
    synthetic: dict | None
    out_dir: str


def _parse_data_section(raw: dict) -> tuple[int, float, tuple[str, ...] | None, dict | None]:
    known = {"window_hours", "train_fraction", "beam_files", "synthetic"}
    extra = set(raw) - known
    if extra:
        raise ConfigurationError(f"unknown data config keys: {sorted(extra)}")
    window_hours = raw.get("window_hours", 5)
    require_int("window_hours", window_hours, 1)
    train_fraction = raw.get("train_fraction", 0.8)
    require_finite("train_fraction", train_fraction)
    train_fraction = float(train_fraction)
    beam_files = raw.get("beam_files")
    synthetic = raw.get("synthetic")
    if (beam_files is None) == (synthetic is None):
        raise ConfigurationError(
            "data config needs exactly one of 'beam_files' or 'synthetic'"
        )
    if beam_files is not None:
        if (
            not isinstance(beam_files, list)
            or not beam_files
            or not all(isinstance(p, str) for p in beam_files)
        ):
            raise ConfigurationError("'beam_files' must be a non-empty list of paths")
        beam_files = tuple(beam_files)
    if synthetic is not None:
        if not isinstance(synthetic, dict):
            raise ConfigurationError(f"'synthetic' must be a JSON object, got {synthetic!r}")
        syn_known = {"seed", "hours", "beams"}
        syn_extra = set(synthetic) - syn_known
        if syn_extra:
            raise ConfigurationError(f"unknown synthetic keys: {sorted(syn_extra)}")
        synthetic = {
            "seed": synthetic.get("seed", 7),
            "hours": synthetic.get("hours", 743),
            "beams": synthetic.get("beams", 4),
        }
        require_int("synthetic seed", synthetic["seed"], 0)
        require_int("synthetic hours", synthetic["hours"], 1)
        require_int("synthetic beams", synthetic["beams"], 1)
    return window_hours, train_fraction, beam_files, synthetic


def load_run_config(path: str, require_kind: bool) -> RunConfig:
    """Read and validate a config document.

    A compare run supplies the kind itself, so 'kind' may be omitted there;
    a train run must name one.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read config {str(path)!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # past Python's digit limit; RecursionError, arrays nested too deep.
        raise ConfigurationError(f"config {str(path)!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {str(path)!r} must be a JSON object")
    known = {"model", "federation", "data", "out_dir"}
    extra = set(raw) - known
    if extra:
        raise ConfigurationError(f"unknown config sections: {sorted(extra)}")

    for name in ("model", "federation", "data"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigurationError(f"config section {name!r} must be a JSON object")

    model_raw = dict(raw.get("model", {}))
    if "kind" not in model_raw:
        if require_kind:
            raise ConfigurationError("model config must name a kind for 'train'")
        model_raw["kind"] = KIND_FED_KAN
    model = ModelConfig.from_dict(model_raw)
    federation = FederationConfig.from_dict(raw.get("federation", {}))
    window_hours, train_fraction, beam_files, synthetic = _parse_data_section(
        raw.get("data", {})
    )
    # Checked here, before any beam is loaded or generated.
    check_model_fits_data(model, window_hours)
    check_train_fraction(train_fraction)
    out_dir = raw.get("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigurationError(f"out_dir must be a path, got {out_dir!r}")
    return RunConfig(
        model=model,
        federation=federation,
        window_hours=window_hours,
        train_fraction=train_fraction,
        beam_files=beam_files,
        synthetic=synthetic,
        out_dir=out_dir,
    )


def _file_size(path: str) -> int:
    """The size of the file at ``path``, or 0 where it cannot be read or
    the path holds a NUL character (the loader then reports the file)."""
    try:
        return os.path.getsize(path)
    except (OSError, ValueError):
        return 0


def _balanced_runs(sizes: list[int], count: int) -> list[range]:
    """Positions 0..len(sizes)-1 cut into k = min(count, len(sizes))
    contiguous, non-empty runs, in order.  Run j ends at the first position
    where the cumulative size reaches (j + 1) / k of the total, moved just
    enough that every run keeps an item, so no run holds more than total / k
    plus its last item."""
    n, k, total = len(sizes), min(count, len(sizes)), sum(sizes)
    scaled = [reached * k for reached in itertools.accumulate(sizes)]
    edges = [0]
    for j in range(1, k):
        cut = bisect.bisect_left(scaled, j * total) + 1
        edges.append(max(edges[-1] + 1, min(cut, n - k + j)))
    return [range(lo, hi) for lo, hi in zip(edges, [*edges[1:], n])]


def _load_beams(config: RunConfig) -> list[BeamSeries]:
    """The config's beams, in config order: its beam files, or its
    synthetic set.

    Beam files are dealt over a ``ForkPool`` of one process per usable CPU
    (``federation._usable_cpus``), in size-balanced contiguous runs (see
    ``_balanced_runs``): run 0 is parsed in this process and run k in a
    loader forked for it, which exits once its series are back.  Each run
    stops at its own first bad file, and the pool raises the first failed
    run's error, so a bad file fails the run with the error the files read
    one by one would give.  With one usable CPU or one file nothing is
    forked."""
    if config.beam_files is not None:
        paths = config.beam_files
        runs = _balanced_runs([_file_size(p) for p in paths], federation._usable_cpus())

        def load(run: range) -> list[BeamSeries]:
            return [load_csv(paths[i], beam_id=f"beam-{i + 1:02d}") for i in run]

        with ForkPool(load, len(runs)) as pool:
            return [beam for loaded in pool.map(runs) for beam in loaded]
    settings = config.synthetic
    profiles = default_profiles(settings["beams"])
    return [generate_synthetic(settings["seed"], settings["hours"], p) for p in profiles]


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    fed = config.federation
    if args.seed is not None:
        fed = dataclasses.replace(fed, seed=args.seed)
    if args.availability is not None:
        fed = dataclasses.replace(fed, availability_prob=args.availability)
    out_dir = args.out if args.out is not None else config.out_dir
    return dataclasses.replace(config, federation=fed, out_dir=out_dir)


def cmd_generate(args: argparse.Namespace) -> int:
    require_int("seed", args.seed, 0)
    require_int("hours", args.hours, 1)
    require_int("beams", args.beams, 1)
    out_dir = Path(args.out)
    profiles = default_profiles(args.beams)
    rendered = [
        (out_dir / f"beam-{p.index + 1:02d}.csv", render_csv(generate_synthetic(args.seed, args.hours, p)))
        for p in profiles
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, text in rendered:
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _run(config: RunConfig, kinds: tuple[str, ...]) -> list[ExperimentReport]:
    """One experiment per kind, in order, dealt by ``deal_experiments``.  The
    clients are built once, here, before any model or helper is forked, and
    the raw series are never bound, so they are freed before round 1."""
    clients = build_clients(_load_beams(config), config.window_hours, config.train_fraction)

    def run(k: int, cpus: int) -> ExperimentReport:
        model = dataclasses.replace(config.model, kind=kinds[k])
        return run_experiment(
            model, config.federation, clients, config.window_hours, config.train_fraction, cpus=cpus
        )

    return deal_experiments(run, len(kinds))


def _output_dir(config: RunConfig) -> Path:
    """The run's out_dir, created, once it has taken a file; checked before
    any beam is read, so that a directory that cannot take the reports
    fails the run before its work (exit 3)."""
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=out_dir):
            pass
    except ValueError as exc:
        # A path with a NUL character.
        raise IngestionError(f"cannot write to {config.out_dir!r}: {exc}") from exc
    return out_dir


def _write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Write each text to its file name in ``out_dir``, as one set.

    Every text goes to a temporary file in ``out_dir`` first, and the
    targets are replaced (``os.replace``) only once every write has
    succeeded, so a failed write leaves the earlier set whole and no
    temporary file behind.  A file's ``wrote`` line is printed once it is in
    place.  The files take the mode ``open`` would give them.
    """
    umask = os.umask(0)
    os.umask(umask)
    temps: dict[str, str] = {}
    try:
        for name, text in files.items():
            fd, temps[name] = tempfile.mkstemp(prefix=f".{name}.", dir=out_dir)
            with open(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fd, 0o666 & ~umask)
                fh.write(text)
        for name in files:
            os.replace(temps.pop(name), out_dir / name)
            print(f"wrote {out_dir / name}")
    finally:
        for temp in temps.values():
            os.unlink(temp)


def cmd_train(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_run_config(args.config, require_kind=True), args)
    out_dir = _output_dir(config)
    [report] = _run(config, (config.model.kind,))
    _write_outputs(out_dir, {f"report_{config.model.kind}.csv": render_experiment_csv(report)})
    print(f"final average test loss ({config.model.kind}): {report.final_avg_test_loss:.6f}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_run_config(args.config, require_kind=False), args)
    out_dir = _output_dir(config)
    kan_report, mlp_report = _run(config, (KIND_FED_KAN, KIND_FED_MLP))
    _write_outputs(
        out_dir,
        {
            "report_fed_kan.csv": render_experiment_csv(kan_report),
            "report_fed_mlp.csv": render_experiment_csv(mlp_report),
            "comparison.csv": render_comparison_csv(kan_report, mlp_report),
        },
    )
    print(summary_table(kan_report, mlp_report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbeam",
        description="Federated KAN / MLP forecasting of per-beam traffic composition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic beam CSVs")
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--hours", type=int, default=743)
    gen.add_argument("--beams", type=int, default=4)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    for name, func in (("train", cmd_train), ("compare", cmd_compare)):
        cmd = sub.add_parser(name, help=f"{name} from a config file")
        cmd.add_argument("--config", required=True, help="path to a JSON run config")
        cmd.add_argument("--seed", type=int, default=None, help="override federation seed")
        cmd.add_argument("--out", default=None, help="override output directory")
        cmd.add_argument(
            "--availability",
            type=float,
            default=None,
            help="override client availability probability",
        )
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("FEDBEAM_LOG", "WARNING")
        # getLevelName maps a level name to its number, and any other string
        # to a string.
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigurationError(f"FEDBEAM_LOG must name a logging level, got {level!r}")
        logging.basicConfig(level=level)
        # Every non-finite loss is caught and raised as a NumericsError, so
        # NumPy's overflow and invalid-value warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigurationError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        # Only config values (widths, grid size, batch size) size the arrays.
        print(f"error: the config needs more memory than is available: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
