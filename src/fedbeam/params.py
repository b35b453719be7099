"""Flat parameter vectors with named segments.

A ParameterVector is the unit the federation layer passes around: client
updates, aggregated global weights and the final weights of a report.
Every trainable array of a model becomes one named segment, in the order
``fedbeam.model.parameter_layout`` fixes.  Aggregation keys off the layout
(names and shapes in order), so two vectors are only combinable when their
layouts match exactly.  Inside a client's training loop the weights live
in the model's own flat buffer instead; a vector is built from it once,
when the client's update is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleWeightsError


@dataclass(frozen=True)
class Segment:
    """One named parameter array, stored flat."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        expected = math.prod(self.shape)
        if self.values.ndim != 1 or self.values.shape[0] != expected:
            raise IncompatibleWeightsError(
                f"segment {self.name!r} declares shape {self.shape} "
                f"but stores {self.values.shape[0] if self.values.ndim == 1 else self.values.shape} values"
            )


@dataclass(frozen=True)
class ParameterVector:
    """Ordered collection of segments behaving like one flat vector."""

    segments: tuple[Segment, ...]

    @classmethod
    def from_arrays(cls, named: list[tuple[str, np.ndarray]]) -> "ParameterVector":
        segs = tuple(
            Segment(name, arr.shape, np.asarray(arr, dtype=np.float64).reshape(-1).copy())
            for name, arr in named
        )
        return cls(segs)

    @property
    def total_len(self) -> int:
        return sum(s.values.shape[0] for s in self.segments)

    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple((s.name, s.shape) for s in self.segments)

    def to_flat(self) -> np.ndarray:
        if not self.segments:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate([s.values for s in self.segments])

    @classmethod
    def from_flat(
        cls,
        layout: tuple[tuple[str, tuple[int, ...]], ...],
        flat: np.ndarray,
    ) -> "ParameterVector":
        sizes = [math.prod(shape) for _, shape in layout]
        if flat.ndim != 1 or flat.shape[0] != sum(sizes):
            raise IncompatibleWeightsError(
                f"flat vector of length {flat.shape} does not fit layout of length {sum(sizes)}"
            )
        segs = []
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            segs.append(Segment(name, shape, flat[offset : offset + size].copy()))
            offset += size
        return cls(tuple(segs))

    def require_same_layout(self, other: "ParameterVector") -> None:
        if self.layout() != other.layout():
            raise IncompatibleWeightsError(
                f"parameter layouts differ: {self.layout()} vs {other.layout()}"
            )
