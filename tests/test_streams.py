import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfsim.streams import _MAIN_DOMAIN, ParticleStreams, _Domain, draw_thresholds


def test_same_seed_identical_draws():
    a = ParticleStreams(7, 100)
    b = ParticleStreams(7, 100)
    assert np.array_equal(a.initial_uniforms(), b.initial_uniforms())
    for _ in range(3):
        assert np.array_equal(a.normals(), b.normals())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), small=st.integers(1, 300), extra=st.integers(0, 300),
       steps=st.integers(1, 4))
def test_streams_are_prefix_stable_in_ensemble_size(seed, small, extra, steps):
    a = ParticleStreams(seed, small)
    b = ParticleStreams(seed, small + extra)
    assert np.array_equal(a.initial_uniforms(), b.initial_uniforms()[:small])
    for _ in range(steps):
        assert np.array_equal(a.normals(), b.normals()[:small])


def test_threshold_domain_is_disjoint_from_main():
    # drawing thresholds must not perturb the main streams
    a = ParticleStreams(7, 64)
    _ = a.initial_uniforms()
    before = a.normals()
    b = ParticleStreams(7, 64)
    _ = b.initial_uniforms()
    _ = draw_thresholds(7, b.indices)
    after = b.normals()
    assert np.array_equal(before, after)


def test_thresholds_are_unit_exponential(rng):
    n = 100_000
    z = draw_thresholds(123, range(n))
    assert abs(z.mean() - 1.0) <= 3.0 / np.sqrt(n)
    # Var(S^2) for Exp(1) is (mu4 - sigma^4)/n = 8/n
    assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(8.0 / n)
    assert np.all(z > 0)


def test_thresholds_deterministic():
    assert np.array_equal(draw_thresholds(9, range(10)), draw_thresholds(9, range(10)))


def test_normals_are_standard_normal():
    n = 100_000
    streams = ParticleStreams(123, n)
    for _ in range(2):
        z = streams.normals()
        assert abs(z.mean()) <= 3.0 / np.sqrt(n)
        # Var(S^2) for N(0, 1) is (mu4 - sigma^4)/n = 2/n
        assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)


def test_initial_uniforms_in_unit_interval():
    u = ParticleStreams(5, 10_000).initial_uniforms()
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_consecutive_steps_draw_fresh_normals():
    streams = ParticleStreams(5, 1000)
    first, second = streams.normals(), streams.normals()
    assert not np.any(first == second)


def test_domain_draws_at_any_counter_order_match_fresh_generators():
    domain = _Domain(11, _MAIN_DOMAIN)
    key = np.random.SeedSequence(entropy=11, spawn_key=(_MAIN_DOMAIN,)).generate_state(
        2, dtype=np.uint64)
    for counter, method in ((5, "standard_normal"), (2, "random"), (5, "standard_normal"),
                            (0, "standard_exponential"), (2, "random")):
        fresh = np.random.Generator(np.random.Philox(key=key, counter=[0, counter, 0, 0]))
        expected = getattr(fresh, method)(10)
        assert np.array_equal(domain.draw(counter, range(10), method), expected)
