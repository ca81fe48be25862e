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


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """The uniform draws of ``np.random.default_rng(seed)``, bit for bit, in Python ints.

    The seed's 32-bit words are hashed into a 4-word pool and expanded to a
    128-bit state and increment as numpy's SeedSequence and PCG64 do; a step
    is the 128-bit LCG with the XSL-RR output (O'Neill, HMC-CS-2014-0905), and
    a draw is low + (high - low) (next64 >> 11) 2^-53, numpy's formula.  numpy
    keeps no Generator stream stable across versions (NEP 19), so the seeded
    inputs own theirs; the tests pin it against numpy and hard-coded draws.
    """

    def __init__(self, seed: int):
        const = [0x43B0D7E5, 0x931E8875]  # SeedSequence's running hash constant, its multiplier

        def hashmix(value: int) -> int:
            value ^= const[0]
            const[0] = const[0] * const[1] & _M32
            value = value * const[0] & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
            return r ^ r >> 16

        words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for src in range(4):
            pool = [p if dst == src else mix(p, pool[src]) for dst, p in enumerate(pool)]
        for w in words[4:]:
            pool = [mix(p, w) for p in pool]
        const[:] = [0x8B51F9DD, 0x58F38DED]
        s = [hashmix(pool[i % 4]) for i in range(8)]
        u = [s[i + 1] << 32 | s[i] for i in range(0, 8, 2)]
        self._inc = (u[2] << 65 | u[3] << 1 | 1) & _M128
        self._state = ((self._inc + (u[0] << 64 | u[1])) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low: float, high: float) -> float:
        """One draw from [low, high)."""
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return low + (high - low) * ((((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53)

    def uniforms(self, low: float, high: float, size: int) -> np.ndarray:
        """size successive draws from [low, high), as one array."""
        return np.array([self.uniform(low, high) for _ in range(size)])


class DiscSequence:
    """Finite ordered sequence of distinct nonzero points in the disc.

    The node geometry is three read-only arrays: ``values``, ``moduli``
    (``np.abs(values)``), the one modulus every check and every consumer
    reads, and ``nearest``.  The index of a point is its identity throughout
    the package.  Points with modulus not below 1 (or NaN) are outside the
    disc, points with modulus below ``MIN_NODE_MODULUS`` are degenerate
    (their Moebius factor would be constant) and points within
    ``DUPLICATE_TOL`` of each other are duplicates; all three are rejected,
    in that order.  Instances are immutable and safe for concurrent reads.
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
        diff = np.abs(values[:, None] - values[None, :])
        diff[np.diag_indices_from(diff)] = np.inf
        nearest = diff.min(axis=1, initial=np.inf)
        if nearest.min(initial=np.inf) < DUPLICATE_TOL:
            i, j = np.unravel_index(int(diff.argmin()), diff.shape)
            raise GeometryError(f"nodes {i} and {j} coincide within {DUPLICATE_TOL:g}")
        for arr in (values, moduli, nearest):
            arr.flags.writeable = False
        self._values = values
        self._moduli = moduli
        self._nearest = nearest

    @property
    def values(self) -> np.ndarray:
        """Node values as a read-only complex array."""
        return self._values

    @property
    def moduli(self) -> np.ndarray:
        """np.abs(values) as a read-only array: the modulus of each node."""
        return self._moduli

    @property
    def nearest(self) -> np.ndarray:
        """Each node's distance to its nearest other node (inf for one node), read-only."""
        return self._nearest

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"DiscSequence({list(self._values)!r})"
