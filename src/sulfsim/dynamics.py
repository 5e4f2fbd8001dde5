"""Closed-form model coefficients: drift, reaction rate, calcite recovery.

All functions are pure and vectorized; ``I`` denotes the time-integrated
mollified density at a point and ``J`` the time-integrated gradient, the
two arguments of the drift.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import PhysicalParams


class DriftArgs(NamedTuple):
    """Accumulated density integral I (>= 0) and gradient integral J."""

    I: np.ndarray | float
    J: np.ndarray | float


def porosity(c, p: PhysicalParams):
    """Affine porosity phi(c) = phi0 + phi1 * c."""
    return p.phi0 + p.phi1 * np.asarray(c, dtype=float)


def drift_b(I, J, p: PhysicalParams):
    """Velocity exerted by the porosity gradient.

    b(I, J) = -phi1 lambda c0 exp(-lambda I) J / (phi0 + phi1 c0 exp(-lambda I)).

    The denominator is positive whenever the porosity invariants hold,
    since exp(-lambda I) lies in (0, 1] for I >= 0.
    """
    I = np.asarray(I, dtype=float)
    J = np.asarray(J, dtype=float)
    if not (np.isfinite(I).all() and np.isfinite(J).all()):
        raise ValueError("drift arguments must be finite")
    out = drift_core(I, J, p)
    return float(out) if out.ndim == 0 else out


def drift_core(I: np.ndarray, J: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """:func:`drift_b` on float arrays, unchecked: steps read I >= 0 and finite J."""
    e = np.exp(-p.lam * I)  # e and out are updated in place: fewer temporaries per step
    out = -p.phi1 * p.lam * p.c0 * e
    out *= J
    e *= p.phi1 * p.c0
    e += p.phi0
    out /= e
    return out


def reaction_rate(I, p: PhysicalParams):
    """Reaction/hazard rate lambda c0 exp(-lambda I), decreasing in I."""
    I = np.asarray(I, dtype=float)
    if (I < 0).any():
        raise ValueError("accumulated density integral I must be nonnegative")
    out = rate_core(I, p)
    return float(out) if out.ndim == 0 else out


def rate_core(I: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """:func:`reaction_rate` on a float array, unchecked: steps read I >= 0."""
    return p.lam * p.c0 * np.exp(-p.lam * I)


def recover_calcite(I, p: PhysicalParams):
    """Calcite remaining after exposure I: c = c0 exp(-lambda I) in (0, c0]."""
    I = np.asarray(I, dtype=float)
    if np.any(I < 0):
        raise ValueError("accumulated density integral I must be nonnegative")
    out = p.c0 * np.exp(-p.lam * I)
    return float(out) if out.ndim == 0 else out


def drift_lipschitz_bound(p: PhysicalParams) -> float:
    """Upper bound on |b(I, J)| / |J|, uniform in I >= 0."""
    return abs(p.phi1) * p.lam * p.c0 / min(p.phi0, p.phi0 + p.phi1 * p.c0)
