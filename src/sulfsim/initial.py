"""Initial density families: evaluation, validation, and inverse-CDF sampling.

Sampling is one uniform draw per particle pushed through the family's
inverse CDF, so a particle's initial position is a pure function of its
own stream and the density spec.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from .config import InitialDensitySpec

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# quadrature tolerance on the unit-mass requirement
MASS_TOL = 1e-6

# keep uniforms strictly inside (0, 1) before inverse-CDF transforms
_U_EPS = 1e-15


def _tabulated_arrays(spec: InitialDensitySpec) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(spec.table_x, dtype=float)
    p = np.asarray(spec.table_p, dtype=float)
    if spec.normalize and np.all(np.isfinite(p)) and x.size >= 2:
        mass = np.trapezoid(p, x)
        if mass > 0:
            p = p / mass
    return x, p


def density(spec: InitialDensitySpec, x) -> np.ndarray:
    """Evaluate the initial density rho_0 at ``x``."""
    x = np.asarray(x, dtype=float)
    if spec.family == "gaussian-bump":
        z = (x - spec.center) / spec.width
        return np.exp(-0.5 * z * z) / (spec.width * SQRT_TWO_PI)
    if spec.family == "truncated-cosine-bump":
        t = (x - spec.center) / spec.width
        inside = np.abs(t) <= 1.0
        vals = np.where(inside, (1.0 + np.cos(np.pi * t)) / (2.0 * spec.width), 0.0)
        return vals
    if spec.family == "tabulated":
        tx, tp = _tabulated_arrays(spec)
        return np.interp(x, tx, tp, left=0.0, right=0.0)
    raise ValueError(f"unknown initial family {spec.family!r}")


def density_max(spec: InitialDensitySpec) -> float:
    if spec.family == "gaussian-bump":
        return 1.0 / (spec.width * SQRT_TWO_PI)
    if spec.family == "truncated-cosine-bump":
        return 1.0 / spec.width
    if spec.family == "tabulated":
        _, tp = _tabulated_arrays(spec)
        return float(np.max(tp))
    raise ValueError(f"unknown initial family {spec.family!r}")


def support_radius(spec: InitialDensitySpec) -> float:
    """Radius (from the origin) beyond which rho_0 is negligible."""
    if spec.family == "gaussian-bump":
        return abs(spec.center) + 6.0 * spec.width
    if spec.family == "truncated-cosine-bump":
        return abs(spec.center) + spec.width
    if spec.family == "tabulated":
        tx = np.asarray(spec.table_x, dtype=float)
        return float(np.max(np.abs(tx)))
    raise ValueError(f"unknown initial family {spec.family!r}")


def initial_violations(spec: InitialDensitySpec, s0: float) -> list[str]:
    """Check rho_0 in (0, s0) on its support, unit mass, finite values."""
    out: list[str] = []
    if spec.family not in ("gaussian-bump", "truncated-cosine-bump", "tabulated"):
        return [f"unknown initial family {spec.family!r}"]
    if spec.family == "tabulated":
        if spec.table_x is None or spec.table_p is None:
            return ["tabulated initial density requires table_x and table_p"]
        tx = np.asarray(spec.table_x, dtype=float)
        tp = np.asarray(spec.table_p, dtype=float)
        if tx.size != tp.size or tx.size < 2:
            out.append("tabulated density needs matching table_x/table_p of length >= 2")
            return out
        if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(tp))):
            out.append("tabulated density contains non-finite values")
            return out
        if np.any(np.diff(tx) <= 0):
            out.append("tabulated abscissae must be strictly increasing")
            return out
        if np.any(tp < 0):
            out.append("tabulated density must be nonnegative")
        mass = np.trapezoid(tp, tx)
        if not spec.normalize and abs(mass - 1.0) > MASS_TOL:
            out.append(f"tabulated density mass {mass} != 1 (set normalize to rescale)")
        if spec.normalize and mass <= 0:
            out.append("tabulated density has zero mass; cannot normalize")
    else:
        if not (spec.width > 0.0):
            out.append(f"initial width must be > 0, got {spec.width}")
            return out
    if not out:
        m = density_max(spec)
        if not (m < s0):
            out.append(
                f"initial density maximum {m:.10g} is not below the bound s0={s0}"
            )
    return out


def _invert_cosine_cdf(u: np.ndarray) -> np.ndarray:
    # CDF on t in [-1,1]: F(t) = (t+1)/2 + sin(pi t)/(2 pi); monotone smooth
    t_grid = np.linspace(-1.0, 1.0, 2049)
    f_grid = (t_grid + 1.0) / 2.0 + np.sin(np.pi * t_grid) / (2.0 * np.pi)
    t = np.interp(u, f_grid, t_grid)
    for _ in range(3):  # Newton polish; F' = (1 + cos(pi t))/2
        f = (t + 1.0) / 2.0 + np.sin(np.pi * t) / (2.0 * np.pi)
        fp = (1.0 + np.cos(np.pi * t)) / 2.0
        t = np.clip(t - np.where(fp > 1e-12, (f - u) / np.where(fp > 0, fp, 1.0), 0.0), -1.0, 1.0)
    return t


def _invert_tabulated_cdf(spec: InitialDensitySpec, u: np.ndarray) -> np.ndarray:
    tx, tp = _tabulated_arrays(spec)
    seg = np.diff(tx)
    seg_mass = 0.5 * (tp[:-1] + tp[1:]) * seg
    cdf = np.concatenate([[0.0], np.cumsum(seg_mass)])
    total = cdf[-1]
    target = u * total
    k = np.clip(np.searchsorted(cdf, target, side="right") - 1, 0, len(seg) - 1)
    a = tp[k]
    b = tp[k + 1]
    q = (target - cdf[k]) / seg[k]
    # within a segment the density is linear:  a + (b-a) t,  mass = a t + (b-a) t^2 / 2
    slope = b - a
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = np.sqrt(np.maximum(a * a + 2.0 * slope * q, 0.0))
        t_lin = np.where(np.abs(slope) > 1e-300, (disc - a) / np.where(slope != 0, slope, 1.0), 0.0)
        t_flat = np.where(a > 0, q / np.where(a > 0, a, 1.0), 0.0)
    t = np.where(np.abs(slope) > 1e-12 * np.maximum(a, b), t_lin, t_flat)
    return tx[k] + np.clip(t, 0.0, 1.0) * seg[k]


def transform_uniforms(spec: InitialDensitySpec, u) -> np.ndarray:
    """Map uniform(0,1) draws to samples of rho_0 via the inverse CDF."""
    u = np.clip(np.asarray(u, dtype=float), _U_EPS, 1.0 - _U_EPS)
    if spec.family == "gaussian-bump":
        return spec.center + spec.width * ndtri(u)
    if spec.family == "truncated-cosine-bump":
        return spec.center + spec.width * _invert_cosine_cdf(u)
    if spec.family == "tabulated":
        return _invert_tabulated_cdf(spec, u)
    raise ValueError(f"unknown initial family {spec.family!r}")

