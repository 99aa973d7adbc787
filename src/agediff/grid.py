"""Uniform space-time mesh construction for the explicit scheme.

The spatial step must tile the age interval with a node count of the form
2*(m_prime + 3): the quadrature rule needs three interior nodes next to each
boundary for its open end rules plus an even number of panels in between.
Time steps are slaved to the parabolic ratio k = r*h**2, and a mesh is only
built when lambda + 2*r <= 1 (lambda = r*h).  The update is a convex
combination (weights summing to at most 1 for nonnegative mortality d) only
while every diagonal weight 1 - lambda - 2*r - k*d_i is nonnegative as well;
that depends on d, so the solver checks it at every step (see
:mod:`agediff.solver`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, StabilityViolation


@dataclass(frozen=True)
class GridSpec:
    """Immutable description of one space-time mesh.

    Instances are meant to come from :func:`build_grid` or :func:`refine`;
    the constructor re-checks every structural invariant so a hand-built
    inconsistent mesh is rejected before it can reach the solver.
    """

    a_dagger: float
    m_prime: int
    r: float
    h: float
    k: float
    lam: float
    m_total: int
    n_steps: int
    t_final: float

    def __post_init__(self):
        if not (isinstance(self.m_prime, int) and self.m_prime >= 1):
            raise InvalidParameter(f"m_prime must be an integer >= 1, got {self.m_prime!r}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise InvalidParameter(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        for name in ("a_dagger", "r", "h", "k", "lam", "t_final"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
                raise InvalidParameter(f"{name} must be a finite positive float, got {value!r}")
        if self.m_total != 2 * (self.m_prime + 3):
            raise InvalidParameter(
                f"m_total must equal 2*(m_prime+3) = {2 * (self.m_prime + 3)}, got {self.m_total}"
            )
        if abs(self.m_total * self.h - self.a_dagger) > 4.0 * math.ulp(self.a_dagger):
            raise InvalidParameter(
                f"h = {self.h!r} does not tile [0, {self.a_dagger!r}] with {self.m_total} cells"
            )
        # Bitwise recomputation: build_grid and refine both produce k and lam
        # through exactly these expressions.
        if self.k != self.r * (self.h * self.h):
            raise InvalidParameter(f"k must equal r*h**2 = {self.r * (self.h * self.h)!r}, got {self.k!r}")
        if self.lam != self.r * self.h:
            raise InvalidParameter(f"lam must equal r*h = {self.r * self.h!r}, got {self.lam!r}")
        if self.t_final != self.n_steps * self.k:
            raise InvalidParameter(
                f"t_final must equal n_steps*k = {self.n_steps * self.k!r}, got {self.t_final!r}"
            )
        if self.lam + 2.0 * self.r > 1.0:
            raise StabilityViolation(
                f"stability bound violated: lam + 2*r = {self.lam!r} + 2*{self.r!r} "
                f"= {self.lam + 2.0 * self.r!r} > 1 (h = {self.h!r})"
            )

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
    a_dagger = float(a_dagger)
    r = float(r)
    t_target = float(t_target)
    if not (math.isfinite(a_dagger) and a_dagger > 0.0):
        raise InvalidParameter(f"a_dagger must be positive and finite, got {a_dagger!r}")
    if not (isinstance(m_prime, int) and m_prime >= 1):
        raise InvalidParameter(f"m_prime must be an integer >= 1, got {m_prime!r}")
    if not (math.isfinite(r) and r > 0.0):
        raise InvalidParameter(f"r must be positive and finite, got {r!r}")
    if not (math.isfinite(t_target) and t_target > 0.0):
        raise InvalidParameter(f"t_target must be positive and finite, got {t_target!r}")

    m_total = 2 * (m_prime + 3)
    h = a_dagger / m_total
    k = r * (h * h)
    lam = r * h
    n_steps = math.ceil(t_target / k)
    t_final = n_steps * k
    return GridSpec(
        a_dagger=a_dagger,
        m_prime=m_prime,
        r=r,
        h=h,
        k=k,
        lam=lam,
        m_total=m_total,
        n_steps=n_steps,
        t_final=t_final,
    )


def refine(grid: GridSpec) -> GridSpec:
    """Halve h (and quarter k) so that the coarse mesh nests in the fine one.

    m_prime' = 2*m_prime + 3 doubles the cell count, so coarse node i sits
    exactly on fine node 2*i.  The step count is multiplied by 4 rather than
    re-derived from a time target: that keeps every coarse time level on the
    fine ladder and reproduces t_final bit for bit (halving and quartering
    are exact in binary floating point).
    """
    m_prime = 2 * grid.m_prime + 3
    m_total = 2 * (m_prime + 3)
    h = grid.a_dagger / m_total
    k = grid.r * (h * h)
    lam = grid.r * h
    n_steps = 4 * grid.n_steps
    t_final = n_steps * k
    return GridSpec(
        a_dagger=grid.a_dagger,
        m_prime=m_prime,
        r=grid.r,
        h=h,
        k=k,
        lam=lam,
        m_total=m_total,
        n_steps=n_steps,
        t_final=t_final,
    )
