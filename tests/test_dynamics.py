import math

import numpy as np
import pytest

from sulfsim import PhysicalParams, drift_b, reaction_rate, recover_calcite

from oracles import drift_lipschitz_bound, porosity


def test_drift_example(default_params):
    assert drift_b(0.0, 1.0, default_params) == pytest.approx(-0.7, abs=1e-14)


def test_drift_zero_numerator(default_params):
    assert drift_b(3.7, 0.0, default_params) == 0.0


def test_drift_vanishes_with_flat_porosity():
    p = PhysicalParams(phi1=0.0)
    I = np.linspace(0, 5, 11)
    J = np.linspace(-2, 2, 11)
    assert np.all(drift_b(I, J, p) == 0.0)


def test_drift_vanishes_at_large_exposure(default_params):
    b = drift_b(1e3, 1.0, default_params)
    assert abs(b) <= 1e-300


def test_reaction_rate_examples(default_params):
    assert reaction_rate(0.0, default_params) == default_params.lam * default_params.c0
    assert reaction_rate(1.0, PhysicalParams(lam=0.0)) == 0.0
    p = PhysicalParams(lam=1.0, c0=2.0)
    assert reaction_rate(math.log(2.0), p) == pytest.approx(1.0, rel=1e-14)


def test_reaction_rate_monotone_decreasing(default_params):
    I = np.linspace(0, 4, 50)
    r = reaction_rate(I, default_params)
    assert np.all(np.diff(r) < 0)
    assert np.all(r > 0) and np.all(r <= default_params.lam * default_params.c0)


def test_calcite_examples(default_params):
    assert recover_calcite(0.0, default_params) == default_params.c0
    assert recover_calcite(1.0, default_params) == pytest.approx(0.3678794412, abs=1e-10)
    assert recover_calcite(0.4, default_params) > recover_calcite(0.9, default_params)


def test_rate_equals_lambda_times_calcite(default_params):
    I = np.linspace(0, 10, 101)
    assert np.array_equal(
        reaction_rate(I, default_params),
        default_params.lam * recover_calcite(I, default_params),
    )


def test_drift_equals_porosity_gradient_composition(rng):
    # b(I, J) must equal f(c) = phi'(c)/phi(c) with c = c0 exp(-lam I) and
    # grad c = -lam c J, the chain the closed form came from
    p = PhysicalParams(lam=1.3, c0=0.8, phi0=0.4, phi1=0.9, phi_bar=3.0)
    I = rng.random(200) * 5.0
    J = rng.normal(0, 2, 200)
    c = recover_calcite(I, p)
    grad_c = -p.lam * c * J
    composed = p.phi1 * grad_c / porosity(c, p)
    direct = drift_b(I, J, p)
    assert np.max(np.abs(direct - composed)) <= 1e-12 * np.max(np.abs(composed))


def test_drift_lipschitz_bound(rng, default_params):
    bound = drift_lipschitz_bound(default_params)
    I = rng.random(500) * 8.0
    J = rng.normal(0, 3, 500)
    b = drift_b(I, J, default_params)
    assert np.all(np.abs(b) <= bound * np.abs(J) + 1e-15)
