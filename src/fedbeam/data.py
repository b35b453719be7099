"""Beam traffic ingestion, synthetic generation, windowing, and scaling.

Each beam is an hourly series of uplink/downlink volumes plus the share of
traffic in four application categories.  The CSV schema is:

    hour,downlink,uplink,communication,streaming,cloud_services,system_updates

with hour a 0-based consecutive integer and the four shares fractions that
sum to 1.  Share sums off by more than 1e-3 are rejected with their line
number; smaller deviations are renormalized.  Rejecting (rather than
dropping rows) keeps the consecutive-timestamp invariant intact.

A loaded beam is two column arrays, volumes and shares, not one object
per hour: ``load_csv`` hands the data lines to NumPy's C tokenizer in one
call and checks the columns whole.  A file the tokenizer refuses
(``1_000``, full-width digits, an empty cell, a short row), or whose
columns fail a check, is read again line by line by one reader with
Python's ``int`` and ``float``, which read an accepted cell to the
tokenizer's value.  Both paths accept the same files, and the reader
words every message, for the first line that fails.  Windows are one
strided view of the volume column, and a client's features are scaled in
one expression.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, IngestionError

CATEGORIES = ("communication", "streaming", "cloud_services", "system_updates")
CSV_HEADER = "hour,downlink,uplink," + ",".join(CATEGORIES)

# Rows may miss an exact share sum by this much before they are rejected.
SHARE_SUM_TOLERANCE = 1e-3


@dataclass(frozen=True, eq=False)
class BeamSeries:
    """One beam's hourly series as column arrays; row t is hour t.

    ``hourly_volumes`` is ``(n, 2)`` [downlink, uplink] and ``hourly_shares``
    is ``(n, 4)``, one column per category.  Both are kept read-only.
    """

    beam_id: str
    hourly_volumes: np.ndarray
    hourly_shares: np.ndarray

    def __post_init__(self) -> None:
        for name in ("hourly_volumes", "hourly_shares"):
            view = np.asarray(getattr(self, name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return self.hourly_volumes.shape[0]


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature min-max ranges, fit on training features only."""

    feature_min: np.ndarray
    feature_max: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Scaler":
        """Ranges of the columns of a ``(samples, features)`` array."""
        return cls(features.min(axis=0), features.max(axis=0))

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Min-max scale the last axis; degenerate columns map to 0."""
        span = self.feature_max - self.feature_min
        safe = np.where(span > 0, span, 1.0)
        return np.where(span > 0, (features - self.feature_min) / safe, 0.0)


_VALUE_COLUMNS = ("downlink", "uplink", *CATEGORIES)


def _row_values(path: str, line_no: int, fields: list[str], expected_hour: int) -> list[float]:
    """One data line's six values, read with ``int`` and ``float``.

    Raises IngestionError at the first check the line fails, in column
    order; the share sum is the last check.
    """
    where = f"{path} line {line_no}"
    if len(fields) != 7:
        raise IngestionError(f"{where}: expected 7 columns, got {len(fields)}")
    try:
        hour = int(fields[0])
    except ValueError:
        raise IngestionError(f"{where}: hour is not an integer: {fields[0]!r}") from None
    if hour != expected_hour:
        raise IngestionError(
            f"{where}: hour {hour} breaks the 0-based consecutive sequence "
            f"(expected {expected_hour})"
        )
    values: list[float] = []
    for column, raw in zip(_VALUE_COLUMNS, fields[1:]):
        # The volumes are checked before any share is parsed.
        if len(values) == 2 and (values[0] < 0 or values[1] < 0):
            raise IngestionError(f"{where}: volumes must be non-negative")
        try:
            value = float(raw)
        except ValueError:
            raise IngestionError(f"{where}: {column} is not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise IngestionError(f"{where}: {column} is not finite: {raw!r}")
        values.append(value)
    shares = np.array(values[2:])
    if np.any(shares < -SHARE_SUM_TOLERANCE) or np.any(shares > 1 + SHARE_SUM_TOLERANCE):
        raise IngestionError(f"{where}: shares must lie in [0, 1], got {shares.tolist()}")
    total = float(np.clip(shares, 0.0, 1.0).sum())
    if abs(total - 1.0) > SHARE_SUM_TOLERANCE:
        raise IngestionError(
            f"{where}: shares sum to {total:.6f}, outside 1 +/- {SHARE_SUM_TOLERANCE}"
        )
    return values


# One data line as the tokenizer reads it: the hour, then the six values.
_ROW = np.dtype([("hour", np.int64), ("values", np.float64, (6,))])


def _tokenized(lines: list[str]) -> np.ndarray:
    """The ``(n, 6)`` values of data lines that pass every check.

    NumPy's C tokenizer reads every line in one call, and the columns are
    then checked whole.  Raises ValueError on a row of the wrong width, a
    cell the tokenizer cannot read or a line that fails a check; NumPy
    1.x reads an hour of ``1.0`` with a DeprecationWarning, raised here as
    an error because ``int`` refuses that spelling.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(lines, delimiter=",", dtype=_ROW, comments=None, ndmin=1)
    values = table["values"]
    volumes, shares = values[:, :2], values[:, 2:]
    totals = np.clip(shares, 0.0, 1.0).sum(axis=1)
    if (
        (table["hour"] != np.arange(len(lines))).any()
        or not np.isfinite(values).all()
        or (volumes < 0).any()
        or ((shares < -SHARE_SUM_TOLERANCE) | (shares > 1 + SHARE_SUM_TOLERANCE)).any()
        or (np.abs(totals - 1.0) > SHARE_SUM_TOLERANCE).any()
    ):
        raise ValueError("a data line fails a check")
    return values


def load_csv(path: str, beam_id: str | None = None) -> BeamSeries:
    """Read and validate one beam CSV.

    The data lines are read and checked by ``_tokenized``.  When it
    refuses them, every line is read again in order by ``_row_values``,
    which reads an accepted cell to the tokenizer's value and reports the
    first line that fails a check.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        # ValueError: a path with a NUL character, or bytes that are not UTF-8.
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise IngestionError(f"{path}: file is empty")
    if lines[0].strip() != CSV_HEADER:
        raise IngestionError(
            f"{path}: header must be exactly {CSV_HEADER!r}, got {lines[0]!r}"
        )
    body = [(line_no, line) for line_no, line in enumerate(lines[1:], start=2) if line.strip()]
    if not body:
        raise IngestionError(f"{path}: no data rows")
    try:
        values = _tokenized([line for _, line in body])
    except (ValueError, DeprecationWarning):
        values = np.array(
            [_row_values(path, no, line.split(","), k) for k, (no, line) in enumerate(body)]
        )
    volumes, shares = values[:, :2], values[:, 2:]
    clipped = np.clip(shares, 0.0, 1.0)
    totals = clipped.sum(axis=1)
    name = beam_id if beam_id is not None else path
    return BeamSeries(name, volumes.copy(), clipped / totals[:, None])


def render_csv(series: BeamSeries) -> str:
    """Serialize a series back to the CSV schema, byte-stable."""
    lines = [CSV_HEADER]
    rows = zip(series.hourly_volumes.tolist(), series.hourly_shares.tolist())
    for hour, (volumes, shares) in enumerate(rows):
        lines.append(",".join([str(hour), *map(repr, volumes), *map(repr, shares)]))
    lines.append("")
    return "\n".join(lines)


@dataclass(frozen=True)
class BeamProfile:
    """Shape of one synthetic beam's diurnal traffic."""

    index: int
    base_downlink: float
    base_uplink: float
    downlink_swing: float
    uplink_swing: float
    peak_hour: float
    volume_noise: float
    share_noise: float


def default_profiles(n_beams: int) -> list[BeamProfile]:
    """Distinct per-beam offsets so beams differ in scale and phase."""
    if n_beams < 1:
        raise ConfigurationError(f"n_beams must be >= 1, got {n_beams}")
    profiles = []
    for i in range(n_beams):
        profiles.append(
            BeamProfile(
                index=i,
                base_downlink=100.0 + 40.0 * i,
                base_uplink=30.0 + 12.0 * i,
                downlink_swing=0.55 + 0.04 * (i % 3),
                uplink_swing=0.45,
                peak_hour=float((5 * i) % 24),
                volume_noise=0.04,
                share_noise=0.06,
            )
        )
    return profiles


# Fixed share map: category scores are exp of a smooth function of the
# diurnal phase and the normalized volume deviations.  The map is shared by
# all beams; only the phase offset and volume scales differ per profile.
_SHARE_PHASE_GAIN = np.array([0.9, -1.1, 0.7, -0.5])
_SHARE_PHASE_SHIFT = np.array([0.0, 0.7, 2.1, 3.4])
_SHARE_DL_GAIN = np.array([0.8, -0.6, 0.4, -0.9])
_SHARE_UL_GAIN = np.array([-0.5, 0.9, -0.7, 0.6])


def generate_synthetic(seed: int, hours: int, profile: BeamProfile) -> BeamSeries:
    """Deterministic diurnal beam with a nonlinear share map.

    Volumes follow 24-hour sinusoids with multiplicative noise; shares come
    from exponentiated smooth scores of (phase, volume deviation), jittered
    and normalized to sum exactly to 1.
    """
    if hours < 1:
        raise ConfigurationError(f"hours must be >= 1, got {hours}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, profile.index)))
    t = np.arange(hours, dtype=np.float64)
    phase = 2.0 * np.pi * ((t + profile.peak_hour) % 24.0) / 24.0

    dl_shape = 1.0 + profile.downlink_swing * np.cos(phase)
    ul_shape = 1.0 + profile.uplink_swing * np.cos(phase - 2.0)
    downlink = profile.base_downlink * dl_shape * np.exp(
        profile.volume_noise * rng.standard_normal(hours)
    )
    uplink = profile.base_uplink * ul_shape * np.exp(
        profile.volume_noise * rng.standard_normal(hours)
    )

    dl_dev = downlink / profile.base_downlink - 1.0
    ul_dev = uplink / profile.base_uplink - 1.0
    scores = np.exp(
        _SHARE_PHASE_GAIN[None, :] * np.sin(phase[:, None] + _SHARE_PHASE_SHIFT[None, :])
        + _SHARE_DL_GAIN[None, :] * dl_dev[:, None]
        + _SHARE_UL_GAIN[None, :] * ul_dev[:, None]
    )
    scores = scores * np.exp(profile.share_noise * rng.standard_normal((hours, 4)))
    shares = scores / scores.sum(axis=1, keepdims=True)

    return BeamSeries(
        f"beam-{profile.index + 1:02d}", np.stack([downlink, uplink], axis=1), shares
    )


def window_arrays(series: BeamSeries, window_hours: int) -> tuple[np.ndarray, np.ndarray]:
    """Features ``(m, 2W)`` and targets ``(m, 4)`` of the m = n - W windows.

    Row t covers hours [t, t+W) as [dl, ul] pairs, oldest first, and its
    target is the shares of hour t+W.  The features are a read-only view
    into the series.
    """
    if window_hours < 1:
        raise ConfigurationError(f"window_hours must be >= 1, got {window_hours}")
    n = len(series)
    if n < window_hours + 1:
        raise ConfigurationError(
            f"beam {series.beam_id!r} has {n} hours; windowing needs at least "
            f"{window_hours + 1}"
        )
    m = n - window_hours
    windows = sliding_window_view(series.hourly_volumes, (window_hours, 2))[:m, 0]
    return windows.reshape(m, 2 * window_hours), series.hourly_shares[window_hours:]


def check_train_fraction(train_fraction: float) -> None:
    """Raise ConfigurationError unless 0 < train_fraction < 1."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )


def train_count(n: int, train_fraction: float) -> int:
    """floor(f*n): how many of n chronological samples train."""
    check_train_fraction(train_fraction)
    n_train = int(math.floor(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ConfigurationError(
            f"split of {n} samples at {train_fraction} leaves an empty side"
        )
    return n_train
