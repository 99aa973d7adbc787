"""Interior-node quadrature and the discrete norms built on it.

All spatial integrals in the model are taken over interior nodal values
only (x_1..x_{M-1}); the boundary values are owned by the boundary
conditions and never enter an integral.  The rule stitches together an open
Milne rule over the first four cells, composite Simpson panels in the
middle, and a second open Milne rule over the last four cells.  Both end
rules have degree of precision 3, so the composite rule integrates cubics
exactly and converges at fourth order for smooth integrands despite never
touching x_0 or x_M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter


@dataclass(frozen=True)
class InteriorVector:
    """Nodal values at x_1..x_{M-1} together with the spacing h.

    The length must be odd and at least 7, i.e. M - 1 for some admissible
    mesh with M = 2*(m_prime + 3); carrying h around removes an entire class
    of "norm computed with the wrong mesh" mistakes.
    """

    values: np.ndarray
    h: float
    # the rule's read-only weights for this length and h, bound once for qh
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "h", float(self.h))
        if values.ndim != 1:
            raise DimensionMismatch(f"interior vector must be one-dimensional, got shape {values.shape}")
        n = values.shape[0]
        if n % 2 == 0 or n < 7:
            raise DimensionMismatch(
                f"interior vector length must be odd and >= 7 (got {n}); "
                "lengths are M - 1 with M = 2*(m_prime + 3)"
            )
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise InvalidParameter(f"h must be positive and finite, got {self.h!r}")
        object.__setattr__(self, "_weights", _cached_weights(n, self.h))

    def __len__(self) -> int:
        return self.values.shape[0]


def qh(v: InteriorVector) -> float:
    """Integrate interior nodal values over [0, a_dagger].

    The integral is the dot product of the values with the rule's weight
    vector (see :func:`weights`), cached per (length, h) and bound to the
    vector when it is built: the same bits as ``weights(n, h) @ values``.
    Equal inputs give bit-identical results on every call.
    """
    return float(v._weights.dot(v.values))


def weights(n: int, h: float) -> np.ndarray:
    """Weight vector w with qh(v) = w @ v.values for length-n vectors.

    Every call returns a fresh array, so callers may modify it.  Applying qh
    to a unit basis vector reproduces the corresponding entry exactly.
    Note w[1] and w[-2] are negative: the rule is not monotone.
    """
    if n % 2 == 0 or n < 7:
        raise DimensionMismatch(f"weight vector length must be odd and >= 7, got {n}")
    h = float(h)
    m_prime = (n + 1) // 2 - 3
    four_thirds = 4.0 * h / 3.0
    third = h / 3.0
    w = np.zeros(n)
    w[0] = four_thirds * 2.0
    w[1] = four_thirds * -1.0
    w[2] = four_thirds * 2.0
    w[-3] = four_thirds * 2.0
    w[-2] = four_thirds * -1.0
    w[-1] = four_thirds * 2.0
    if m_prime >= 2:
        counts = np.zeros(n)
        for i in range(2, m_prime + 1):
            counts[2 * i - 1] += 1.0
            counts[2 * i] += 4.0
            counts[2 * i + 1] += 1.0
        inner = slice(3, 2 * m_prime + 2)
        w[inner] = third * counts[inner]
    return w


@functools.lru_cache(maxsize=64)
def _cached_weights(n: int, h: float) -> np.ndarray:
    # Read-only: every qh call on a mesh shares this one array.
    w = weights(n, h)
    w.flags.writeable = False
    return w


def l2_norm(v: InteriorVector) -> float:
    """Mesh-weighted l2 norm sqrt(sum_i h * v_i**2) over interior nodes."""
    return math.sqrt(v.h * float(np.sum(v.values * v.values)))


def star_norm(trace: np.ndarray, k: float) -> float:
    """Time-trace norm sqrt(sum_n k * z_n**2) over all stored levels."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1:
        raise DimensionMismatch(f"trace must be one-dimensional, got shape {trace.shape}")
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise InvalidParameter(f"k must be positive and finite, got {k!r}")
    return math.sqrt(k * float(np.sum(trace * trace)))
