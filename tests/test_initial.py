import statistics

import numpy as np
import pytest

from sulfsim.config import Grid1D, InitialDensitySpec, SimConfig
from sulfsim.initial import (
    density,
    density_max,
    initial_violations,
    ndtri,
    support_radius,
    transform_uniforms,
)
from sulfsim.particles import SLICE_PARTICLES, init_ensemble
from sulfsim.streams import ParticleStreams

from oracles import run_python

EXP_M2 = float(np.exp(-2.0))
# the branch edges of the rational approximations, the clip bounds and the centre
NDTRI_EDGES = np.array([
    EXP_M2, np.nextafter(EXP_M2, 0.0), np.nextafter(EXP_M2, 1.0),
    1.0 - EXP_M2, np.nextafter(1.0 - EXP_M2, 0.0), np.nextafter(1.0 - EXP_M2, 1.0),
    np.exp(-32.0), np.nextafter(np.exp(-32.0), 0.0), np.nextafter(np.exp(-32.0), 1.0),
    1e-15, 1.0 - 1e-15, 0.5,
])


def _ndtri_inputs(rng):
    return np.concatenate([rng.random(1_000_000), NDTRI_EDGES])


FAMILIES = [
    InitialDensitySpec(family="gaussian-bump", center=0.0, width=1.0),
    InitialDensitySpec(family="truncated-cosine-bump", center=0.5, width=2.0),
    InitialDensitySpec(
        family="tabulated",
        table_x=(-3.0, -1.0, 0.0, 1.0, 3.0),
        table_p=(0.0, 0.3, 0.5, 0.3, 0.0),
        normalize=True,
    ),
]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_sliced_initial_transform_equals_whole_array_transform(spec):
    n = 2 * SLICE_PARTICLES + 3
    config = SimConfig(particles=n, horizon=0.01, step=1e-3, seed=3, initial=spec,
                       grid=Grid1D(-10.0, 10.0, 0.05))
    whole = transform_uniforms(spec, ParticleStreams(3, n).initial_uniforms())
    assert np.array_equal(init_ensemble(config).positions, whole)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_density_integrates_to_one(spec):
    r = support_radius(spec) + 1.0
    x = np.linspace(-r, r, 20001)
    mass = np.trapezoid(density(spec, x), x)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_sampling_matches_density_moments(spec, rng):
    n = 100_000
    samples = transform_uniforms(spec, rng.random(n))
    r = support_radius(spec) + 1.0
    x = np.linspace(-r, r, 20001)
    pdf = density(spec, x)
    mean = np.trapezoid(x * pdf, x)
    var = np.trapezoid((x - mean) ** 2 * pdf, x)
    assert samples.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / n))
    assert samples.var() == pytest.approx(var, rel=0.05)


def test_gaussian_sample_mean_clt_bound(rng):
    n = 100_000
    spec = InitialDensitySpec(family="gaussian-bump", center=0.0, width=1.0)
    samples = transform_uniforms(spec, rng.random(n))
    assert abs(samples.mean()) <= 3.0 / np.sqrt(n)


def test_symmetric_tabulated_skewness_vanishes(rng):
    spec = InitialDensitySpec(
        family="tabulated",
        table_x=(-2.0, -1.0, 0.0, 1.0, 2.0),
        table_p=(0.0, 0.4, 0.6, 0.4, 0.0),
        normalize=True,
    )
    n = 200_000
    s = transform_uniforms(spec, rng.random(n))
    skew = np.mean(((s - s.mean()) / s.std()) ** 3)
    assert abs(skew) <= 4 * np.sqrt(6.0 / n)


def test_cosine_samples_stay_on_support(rng):
    spec = InitialDensitySpec(family="truncated-cosine-bump", center=0.5, width=2.0)
    s = transform_uniforms(spec, rng.random(5000))
    assert np.all(s >= -1.5) and np.all(s <= 2.5)


def test_cosine_inverse_cdf_accuracy(rng):
    spec = InitialDensitySpec(family="truncated-cosine-bump", center=0.0, width=1.0)
    u = rng.random(1000)
    t = transform_uniforms(spec, u)
    cdf = (t + 1.0) / 2.0 + np.sin(np.pi * t) / (2.0 * np.pi)
    assert np.max(np.abs(cdf - u)) < 1e-12


def test_narrow_gaussian_rejected():
    spec = InitialDensitySpec(family="gaussian-bump", width=0.3)
    msgs = initial_violations(spec, s0=1.0)
    assert len(msgs) == 1
    assert density_max(spec) == pytest.approx(1.3298076, abs=1e-6)


def test_tabulated_nonfinite_rejected():
    spec = InitialDensitySpec(
        family="tabulated", table_x=(0.0, 1.0), table_p=(np.nan, 1.0)
    )
    assert any("non-finite" in m for m in initial_violations(spec, s0=1.0))


def test_tabulated_unnormalized_rejected_without_flag():
    spec = InitialDensitySpec(
        family="tabulated",
        table_x=(-1.0, 0.0, 1.0),
        table_p=(0.0, 4.0, 0.0),
        normalize=False,
    )
    assert any("mass" in m for m in initial_violations(spec, s0=10.0))


def test_ndtri_bit_equal_to_scipy(rng):
    special = pytest.importorskip("scipy.special")
    u = _ndtri_inputs(rng)
    assert np.array_equal(ndtri(u).view(np.int64), special.ndtri(u).view(np.int64))


def test_ndtri_matches_stdlib_inverse_cdf(rng):
    u = _ndtri_inputs(rng)
    inv_cdf = statistics.NormalDist().inv_cdf
    ref = np.array([inv_cdf(v) for v in u.tolist()])
    assert np.all(np.abs(ndtri(u) - ref) <= 2e-15 * np.abs(ref))


def test_cli_import_leaves_out_scipy():
    out = run_python(["-c", "import sys, sulfsim.cli; print('scipy' in sys.modules)"])
    assert out.strip() == "False"


def test_cli_import_leaves_out_subprocess():
    """Only ``emit-plots --render`` starts processes; no other command pays
    for importing ``subprocess``."""
    out = run_python(["-c", "import sys, sulfsim.cli; print('subprocess' in sys.modules)"])
    assert out.strip() == "False"
