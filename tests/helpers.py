"""Shorthands that only the tests call."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fedbeam
from fedbeam.optim import AdamState
from fedbeam.report import _COMPARISON_MAGIC, _parse_report
from fedbeam.splines import SplineGrid, basis_and_derivative


def basis_matrix(x: np.ndarray, grid: SplineGrid) -> np.ndarray:
    """Evaluate all basis functions at each point of ``x``.

    Returns an array of shape (len(x), grid.num_bases).  Values are
    non-negative and sum to 1 for points inside the grid range; points
    outside are clamped first.
    """
    return basis_and_derivative(x, grid, derivative=False)[0]


def dropout_scale(kept: np.ndarray, drop_prob: float) -> np.ndarray:
    """Inverted-dropout multipliers: ``1 / (1 - drop_prob)`` where kept,
    else 0, by dividing the flags as floats: the oracle for the masks
    ``fedbeam.federation._step_masks`` builds with one multiply."""
    return kept.astype(np.float64) / (1.0 - drop_prob)


def dense_derivative(shape: tuple[int, ...], terms: tuple) -> np.ndarray:
    """Derivative terms scattered into a zero plane of the given shape.

    ``terms`` are ``basis_and_derivative``'s (derivatives, flat positions),
    whose plane is the values plane's shape, or ``kan_plane``'s, which add
    ``silu'`` per input for slot 0 of that input's slots.  The result holds
    each derivative where its basis sits in the values plane and zero in
    every other slot.
    """
    dense = np.zeros(shape)
    pieces, index, *silu = terms
    dense.reshape(-1)[index] = pieces
    for dsilu in silu:
        dense.reshape(*dsilu.shape, -1)[..., 0] = dsilu
    return dense


def parse_comparison_csv(text: str) -> dict:
    """A comparison CSV read back: its metadata and its numeric table."""
    return _parse_report(text, _COMPARISON_MAGIC, "comparison report", "comparison", [])


def initial_adam_state(
    shape: int | tuple[int, ...], learning_rate: float, weight_decay: float = 0.0
) -> AdamState:
    """Adam state with zero moments for parameters of this shape."""
    return AdamState(np.zeros(shape), np.zeros(shape), learning_rate, weight_decay)


def has_no_child() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run by this interpreter in a new process, with this checkout's
    package on its path."""
    src = str(Path(fedbeam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
