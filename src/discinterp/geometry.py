"""Pseudohyperbolic geometry of the unit disc.

The pseudohyperbolic distance sigma(z, w) = |z - w| / |1 - conj(z) w| is the
Moebius-invariant metric on the open disc.  Node sequences are finite ordered
lists of distinct nonzero points; the Moebius factor
A(z) = (1 - |node|^2) / (1 - conj(node) z) attached to a node is the building
block of every canonical product in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

import numpy as np

__all__ = [
    "GeometryError",
    "DiscPoint",
    "DiscSequence",
    "pseudo_dist",
    "MIN_NODE_MODULUS",
    "DUPLICATE_TOL",
]

# Nodes closer to the origin than this degenerate: their Moebius factor is
# constant and the attached product factor would vanish identically.
MIN_NODE_MODULUS = 1e-9

# Euclidean distance below which two nodes are treated as a floating-point
# collision; a collision would destroy the simplicity of the product zeros.
DUPLICATE_TOL = 1e-15


class GeometryError(ValueError):
    """Point or parameter outside the supported disc-geometry domain."""


PointLike = Union[complex, float, "DiscPoint"]


def _value(p: PointLike) -> complex:
    return p.value if isinstance(p, DiscPoint) else complex(p)


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc with its modulus cached."""

    value: complex
    modulus: float = field(init=False)

    def __post_init__(self) -> None:
        v = complex(self.value)
        m = abs(v)
        if not m < 1.0:
            raise GeometryError(f"point {v} is not inside the open unit disc")
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "modulus", m)


class DiscSequence:
    """Finite ordered sequence of distinct nonzero points in the disc.

    The index of a point is its identity throughout the package.  Points
    within ``DUPLICATE_TOL`` of each other are rejected as duplicates and
    points with modulus below ``MIN_NODE_MODULUS`` are rejected as degenerate
    (their Moebius factor would be constant).  Instances are immutable and
    safe for concurrent reads.
    """

    def __init__(self, points: Iterable[PointLike]):
        pts = tuple(
            p if isinstance(p, DiscPoint) else DiscPoint(complex(p)) for p in points
        )
        for k, p in enumerate(pts):
            if p.modulus < MIN_NODE_MODULUS:
                raise GeometryError(
                    f"node {k} at {p.value} is too close to the origin "
                    f"(|z| < {MIN_NODE_MODULUS:g})"
                )
        values = np.array([p.value for p in pts], dtype=complex)
        if len(pts) >= 2:
            diff = np.abs(values[:, None] - values[None, :])
            diff[np.diag_indices_from(diff)] = np.inf
            if diff.min() < DUPLICATE_TOL:
                i, j = np.unravel_index(int(diff.argmin()), diff.shape)
                raise GeometryError(
                    f"nodes {i} and {j} coincide within {DUPLICATE_TOL:g}"
                )
        self._points = pts
        self._values = values
        self._moduli = np.abs(values)
        self._values.flags.writeable = False
        self._moduli.flags.writeable = False

    @property
    def values(self) -> np.ndarray:
        """Node values as a read-only complex array."""
        return self._values

    @property
    def moduli(self) -> np.ndarray:
        return self._moduli

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, k: int) -> DiscPoint:
        return self._points[k]

    def __iter__(self) -> Iterator[DiscPoint]:
        return iter(self._points)

    def __repr__(self) -> str:
        return f"DiscSequence({list(self._values)!r})"


def pseudo_dist(z: PointLike, w: PointLike) -> float:
    """Pseudohyperbolic distance |z - w| / |1 - conj(z) w| in [0, 1)."""
    zv, wv = _value(z), _value(w)
    for v in (zv, wv):
        if not abs(v) < 1.0:
            raise GeometryError(f"point {v} is not inside the open unit disc")
    return abs(zv - wv) / abs(1.0 - zv.conjugate() * wv)
