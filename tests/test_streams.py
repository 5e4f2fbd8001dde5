import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sulfsim.streams import BLOCK, _MAIN_DOMAIN, ParticleStreams, _Domain, draw_thresholds

from oracles import step_normals


def _fresh(seed, counter, method, n):
    """The first n values of a new Philox generator of the main domain at ``counter``."""
    key = np.random.SeedSequence(entropy=seed, spawn_key=(_MAIN_DOMAIN,)).generate_state(
        2, dtype=np.uint64)
    return getattr(np.random.Generator(np.random.Philox(key=key, counter=counter)), method)(n)


def test_same_seed_identical_draws():
    a = ParticleStreams(7, 100)
    b = ParticleStreams(7, 100)
    assert np.array_equal(a.initial_uniforms(), b.initial_uniforms())
    for k in range(3):
        assert np.array_equal(a.normals(k, 0, 100), b.normals(k, 0, 100))


def test_block_b_of_step_k_is_a_fresh_philox_stream_at_its_counter():
    streams = ParticleStreams(11, 10)
    for k, b, n in ((0, 0, 10), (4, 1, 7), (0, 3, BLOCK), (4, 1, 7), (2, 0, 1)):
        assert np.array_equal(streams.normals(k, b, n),
                              _fresh(11, [0, k + 1, b, 0], "standard_normal", n))


def test_block_0_is_the_head_of_a_whole_ensemble_draw():
    # the draw of N > BLOCK values at counter (0, k + 1, 0, 0) that every step
    # made before the blocks: every particle below BLOCK keeps its increment
    n = BLOCK + 500
    streams = ParticleStreams(3, n)
    for k in (0, 9):
        whole = _fresh(3, [0, k + 1, 0, 0], "standard_normal", n)
        assert np.array_equal(streams.normals(k, 0, BLOCK), whole[:BLOCK])
        assert not np.array_equal(streams.normals(k, 1, 500), whole[BLOCK:])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), small=st.integers(1, BLOCK + 300),
       extra=st.integers(0, BLOCK + 300), steps=st.integers(1, 3))
def test_streams_are_prefix_stable_in_ensemble_size(seed, small, extra, steps):
    a = ParticleStreams(seed, small)
    b = ParticleStreams(seed, small + extra)
    assert np.array_equal(a.initial_uniforms(), b.initial_uniforms()[:small])
    for k in range(steps):
        whole = step_normals(b, k, small + extra)
        assert np.array_equal(step_normals(a, k, small), whole[:small])


def test_threshold_domain_is_disjoint_from_main():
    # drawing thresholds must not perturb the main streams
    a = ParticleStreams(7, 64)
    _ = a.initial_uniforms()
    before = a.normals(0, 0, 64)
    b = ParticleStreams(7, 64)
    _ = b.initial_uniforms()
    _ = draw_thresholds(7, b.indices)
    after = b.normals(0, 0, 64)
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
    streams = ParticleStreams(123, 6 * BLOCK)
    z = np.stack([step_normals(streams, k, 6 * BLOCK) for k in (0, 1, 7)])
    n = z.size
    assert abs(z.mean()) <= 3.0 / np.sqrt(n)
    # Var(S^2) for N(0, 1) is (mu4 - sigma^4)/n = 2/n
    assert abs(z.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)
    # neighbouring blocks of a step, and one block at neighbouring steps, are
    # uncorrelated: the sample correlation of n pairs has standard error 1/sqrt(n)
    blocks = z.reshape(3, 6, BLOCK)
    for a, b in ((blocks[0, 0], blocks[0, 1]), (blocks[1, 4], blocks[1, 5]),
                 (blocks[0, 2], blocks[1, 2])):
        assert abs(np.corrcoef(a, b)[0, 1]) <= 3.0 / np.sqrt(BLOCK)


def test_initial_uniforms_in_unit_interval():
    u = ParticleStreams(5, 10_000).initial_uniforms()
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_consecutive_steps_draw_fresh_normals():
    streams = ParticleStreams(5, 1000)
    first, second, beside = (streams.normals(0, 0, 1000), streams.normals(1, 0, 1000),
                             streams.normals(0, 1, 1000))
    assert not np.any(first == second) and not np.any(first == beside)


def test_domain_draws_at_any_counter_order_match_fresh_generators():
    domain = _Domain(11, _MAIN_DOMAIN)
    for counter, block, method in ((5, 0, "standard_normal"), (2, 0, "random"),
                                   (5, 2, "standard_normal"), (0, 0, "standard_exponential"),
                                   (5, 0, "standard_normal"), (2, 0, "random")):
        assert np.array_equal(domain.draw(counter, 10, method, block),
                              _fresh(11, [0, counter, block, 0], method, 10))
