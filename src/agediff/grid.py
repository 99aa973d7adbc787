"""Uniform space-time mesh construction for the explicit scheme.

A mesh is its four inputs: the interval length a_dagger, the resolution
index m_prime, the parabolic ratio r and the step count n_steps.  Everything
else is derived from them.  The spatial step must tile the age interval with
a node count of the form M = 2*(m_prime + 3): the quadrature rule needs
three interior nodes next to each boundary for its open end rules plus an
even number of panels in between.  Time steps are slaved to the parabolic
ratio k = r*h**2, and a mesh is only built when lambda + 2*r <= 1
(lambda = r*h).  The update is a convex combination (weights summing to at
most 1 for nonnegative mortality d) only while every diagonal weight
1 - lambda - 2*r - k*d_i is nonnegative as well; that depends on d, so the
solver checks it at every step (see :mod:`agediff.solver`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter, StabilityViolation


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of one space-time mesh.

    Only the four inputs are stored; ``m_total``, ``h``, ``k``, ``lam`` and
    ``t_final`` are derived on access, so the fields can never disagree.
    """

    a_dagger: float
    m_prime: int
    r: float
    n_steps: int

    def __post_init__(self):
        for name in ("m_prime", "n_steps"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
                raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")
        if (self.n_steps + 1) * np.dtype(float).itemsize > np.iinfo(np.intp).max:
            raise InvalidParameter(f"n_steps = {self.n_steps:.6g} needs more levels than numpy can allocate")
        for name in ("a_dagger", "r", "k", "t_final"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be a finite positive float, got {value!r}")
        if self.lam + 2.0 * self.r > 1.0:
            raise StabilityViolation(
                f"stability bound violated: lam + 2*r = {self.lam!r} + 2*{self.r!r} "
                f"= {self.lam + 2.0 * self.r!r} > 1 (h = {self.h!r})"
            )

    @property
    def m_total(self) -> int:
        return 2 * (self.m_prime + 3)

    @property
    def h(self) -> float:
        return self.a_dagger / self.m_total

    @property
    def k(self) -> float:
        return self.r * (self.h * self.h)

    @property
    def lam(self) -> float:
        return self.r * self.h

    @property
    def t_final(self) -> float:
        return self.n_steps * self.k

    def nodes(self) -> np.ndarray:
        """All spatial nodes x_i = i*h for i = 0..m_total."""
        return np.arange(self.m_total + 1) * self.h

    def interior_nodes(self) -> np.ndarray:
        """Spatial nodes x_1..x_{m_total-1}; the vectors the solver evolves."""
        return np.arange(1, self.m_total) * self.h

    def time_levels(self) -> np.ndarray:
        """Time levels t_n = n*k for n = 0..n_steps."""
        return np.arange(self.n_steps + 1) * self.k


def build_grid(a_dagger: float, m_prime: int, r: float, t_target: float) -> GridSpec:
    """Construct the mesh for a given domain, resolution index and ratio.

    ``n_steps`` is the smallest step count whose realized final time
    ``n_steps*k`` reaches ``t_target``; the realized value is what every
    downstream consumer uses, so no study ever compares data at two
    different times.
    """
    t_target = float(t_target)
    if not (math.isfinite(t_target) and t_target > 0.0):
        raise InvalidParameter(f"t_target must be positive and finite, got {t_target!r}")
    probe = GridSpec(float(a_dagger), m_prime, float(r), 1)
    steps = t_target / probe.k
    if not math.isfinite(steps):
        raise InvalidParameter(f"t_target / k overflows: {t_target!r} / {probe.k!r}")
    return replace(probe, n_steps=math.ceil(steps))


def refine(grid: GridSpec) -> GridSpec:
    """Halve h (and quarter k) so that the coarse mesh nests in the fine one.

    m_prime' = 2*m_prime + 3 doubles the cell count, so coarse node i sits
    exactly on fine node 2*i.  The step count is multiplied by 4 rather than
    re-derived from a time target: that keeps every coarse time level on the
    fine ladder and reproduces t_final bit for bit (halving and quartering
    are exact in binary floating point).
    """
    return GridSpec(grid.a_dagger, 2 * grid.m_prime + 3, grid.r, 4 * grid.n_steps)
