"""Initial density families: evaluation, validation, and inverse-CDF sampling.

Sampling is one uniform draw per particle pushed through the family's
inverse CDF, so a particle's initial position is a pure function of its
own stream and the density spec.
"""

from __future__ import annotations

import math

import numpy as np

from .config import INITIAL_FAMILIES, InitialDensitySpec

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# quadrature tolerance on the unit-mass requirement
MASS_TOL = 1e-6

# keep uniforms strictly inside (0, 1) before inverse-CDF transforms
_U_EPS = 1e-15

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989): rational approximations in y - 1/2 for exp(-2) < y < 1 - exp(-2), and
# in z = 1/sqrt(-2 log y) in the tails, split at sqrt(-2 log y) = 8.  The
# denominators carry an implicit leading coefficient 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


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
        return float(np.max(np.abs(tx), initial=0.0))  # an empty table fails validation
    raise ValueError(f"unknown initial family {spec.family!r}")


def initial_violations(spec: InitialDensitySpec, s0: float) -> list[str]:
    """Check rho_0 in (0, s0) on its support, unit mass, finite values."""
    out: list[str] = []
    if spec.family not in INITIAL_FAMILIES:
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
    elif not (0.0 < spec.width < math.inf and math.isfinite(spec.center)):
        return [f"initial center must be finite and width finite and > 0, got "
                f"{spec.center} and {spec.width}"]
    if not out:
        m = density_max(spec)
        if not (m < s0):
            out.append(
                f"initial density maximum {m:.10g} is not below the bound s0={s0}"
            )
    return out


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    out = coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _libm_log(x: np.ndarray) -> np.ndarray:
    # numpy's SIMD log differs from libm in the last bit on a few tail draws
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def ndtri(u) -> np.ndarray:
    """Inverse of the standard normal CDF for 0 < u < 1.

    A numpy port of Cephes ``ndtri`` with its branches, coefficients and
    operation order, so it returns the bits of ``scipy.special.ndtri``.
    """
    u = np.asarray(u, dtype=float)
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    t = y[mid] - 0.5
    t2 = t * t
    out[mid] = (t + t * (t2 * _polevl(t2, _P0) / _polevl(t2, _Q0))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1),
                  z * _polevl(z, _P2) / _polevl(z, _Q2))
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
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

