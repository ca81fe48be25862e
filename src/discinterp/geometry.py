"""Pseudohyperbolic geometry of the unit disc.

The pseudohyperbolic distance sigma(z, w) = |z - w| / |1 - conj(z) w| is the
Moebius-invariant metric on the open disc.  Node sequences are finite ordered
lists of distinct nonzero points; the Moebius factor
A(z) = (1 - |node|^2) / (1 - conj(node) z) attached to a node is the building
block of every canonical product in this package.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "GeometryError",
    "DiscSequence",
    "MIN_NODE_MODULUS",
    "DUPLICATE_TOL",
    "DELTA",
]

# Nodes closer to the origin than this degenerate: their Moebius factor is
# constant and the attached product factor would vanish identically.
MIN_NODE_MODULUS = 1e-9

# Euclidean distance below which two nodes are treated as a floating-point
# collision; a collision would destroy the simplicity of the product zeros.
DUPLICATE_TOL = 1e-15

# The counting conditions look at the points within DELTA (1 - |z|) of z,
# the radius at which the paper states them.
DELTA = 0.5


class GeometryError(ValueError):
    """Point or parameter outside the supported disc-geometry domain."""


class DiscSequence:
    """Finite ordered sequence of distinct nonzero points in the disc.

    The node geometry is two read-only arrays: ``values`` and ``moduli``
    (``np.abs(values)``), the one modulus every check and every consumer
    reads.  The index of a point is its identity throughout the package.
    Points with modulus not below 1 (or NaN) are outside the disc, points
    with modulus below ``MIN_NODE_MODULUS`` are degenerate (their Moebius
    factor would be constant) and points within ``DUPLICATE_TOL`` of each
    other are duplicates; all three are rejected, in that order.  Instances
    are immutable and safe for concurrent reads.
    """

    def __init__(self, points: Iterable[complex]):
        values = np.array([complex(p) for p in points], dtype=complex)
        moduli = np.abs(values)
        inside = moduli < 1.0
        if not inside.all():
            k = int(np.argmin(inside))
            raise GeometryError(f"point {complex(values[k])} is not inside the open unit disc")
        if np.any(moduli < MIN_NODE_MODULUS):
            k = int(np.argmax(moduli < MIN_NODE_MODULUS))
            raise GeometryError(
                f"node {k} at {complex(values[k])} is too close to the origin "
                f"(|z| < {MIN_NODE_MODULUS:g})"
            )
        if len(values) >= 2:
            diff = np.abs(values[:, None] - values[None, :])
            diff[np.diag_indices_from(diff)] = np.inf
            if diff.min() < DUPLICATE_TOL:
                i, j = np.unravel_index(int(diff.argmin()), diff.shape)
                raise GeometryError(
                    f"nodes {i} and {j} coincide within {DUPLICATE_TOL:g}"
                )
        values.flags.writeable = False
        moduli.flags.writeable = False
        self._values = values
        self._moduli = moduli

    @property
    def values(self) -> np.ndarray:
        """Node values as a read-only complex array."""
        return self._values

    @property
    def moduli(self) -> np.ndarray:
        """np.abs(values) as a read-only array: the modulus of each node."""
        return self._moduli

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"DiscSequence({list(self._values)!r})"
