"""Flat parameter vectors with a named layout.

A ParameterVector is the unit the federation layer passes around: client
updates, aggregated global weights and the final weights of a report.
It is one pair: a layout, the name and shape of every trainable array in
the order ``fedbeam.model.parameter_layout`` fixes, and one flat float64
buffer holding those arrays back to back.  The vector owns its buffer and
keeps it read-only, so ``to_flat`` hands it out without a copy.
Aggregation keys off the layout, so two vectors are only combinable when
their layouts match exactly.  Inside a client's training loop the weights
live in the model's own flat buffer instead; a vector is copied from it
once, when the client's update is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleWeightsError

Layout = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """A layout and an owned, read-only flat buffer in that layout."""

    _layout: Layout
    _flat: np.ndarray

    def __post_init__(self):
        flat = np.array(self._flat, dtype=np.float64)
        expected = sum(math.prod(shape) for _, shape in self._layout)
        if flat.ndim != 1 or flat.shape[0] != expected:
            raise IncompatibleWeightsError(
                f"flat vector of shape {flat.shape} does not fit layout of length {expected}"
            )
        flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)

    @classmethod
    def from_arrays(cls, named: list[tuple[str, np.ndarray]]) -> "ParameterVector":
        layout = tuple((name, np.shape(arr)) for name, arr in named)
        flat = [np.asarray(arr, dtype=np.float64).reshape(-1) for _, arr in named]
        return cls(layout, np.concatenate(flat) if flat else np.zeros(0))

    @classmethod
    def from_flat(cls, layout: Layout, flat: np.ndarray) -> "ParameterVector":
        return cls(layout, flat)

    def layout(self) -> Layout:
        return self._layout

    def to_flat(self) -> np.ndarray:
        return self._flat

    def require_same_layout(self, other: "ParameterVector") -> None:
        if self._layout != other._layout:
            raise IncompatibleWeightsError(
                f"parameter layouts differ: {self._layout} vs {other._layout}"
            )
