"""Closed-form model coefficients: drift, reaction rate, calcite recovery.

All functions are pure and vectorized; ``I`` denotes the time-integrated
mollified density at a point and ``J`` the time-integrated gradient, the
two arguments of the drift.  The drift and the rate are the one copy each
that the particle step and the PDE step call: they check nothing, since
both read I clamped at 0 and finite J off validated fields.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import PhysicalParams


class DriftArgs(NamedTuple):
    """Accumulated density integral I (>= 0) and gradient integral J."""

    I: np.ndarray | float
    J: np.ndarray | float


def drift_b(I: np.ndarray, J: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """Velocity exerted by the porosity gradient, unchecked: I >= 0, J finite.

    b(I, J) = -phi1 lambda c0 exp(-lambda I) J / (phi0 + phi1 c0 exp(-lambda I)).

    The denominator is positive whenever the porosity invariants hold,
    since exp(-lambda I) lies in (0, 1] for I >= 0.
    """
    e = np.exp(-p.lam * I)  # e and out are updated in place: fewer temporaries per step
    out = -p.phi1 * p.lam * p.c0 * e
    out *= J
    e *= p.phi1 * p.c0
    e += p.phi0
    out /= e
    return out


def reaction_rate(I: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """Reaction/hazard rate lambda c0 exp(-lambda I), decreasing in I >= 0; unchecked."""
    return p.lam * p.c0 * np.exp(-p.lam * I)


def recover_calcite(I, p: PhysicalParams):
    """Calcite remaining after exposure I: c = c0 exp(-lambda I) in (0, c0]."""
    I = np.asarray(I, dtype=float)
    if np.any(I < 0):
        raise ValueError("accumulated density integral I must be nonnegative")
    out = p.c0 * np.exp(-p.lam * I)
    return float(out) if out.ndim == 0 else out
