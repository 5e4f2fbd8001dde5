"""Seeded, counter-based random-number streams for the particle ensemble.

Each domain has one Philox key, derived from (master seed, domain).  Draw
number k of every particle is one Philox block at counter k: it yields
one value per stream 0..n-1, and particle i takes value i.  One generator
per domain serves every draw, its counter set anew each time.  A
particle's draws therefore do not depend on the ensemble size, the worker
layout, or which other particles exist; reruns with the same seed are
bit-identical.

Two domains are used:

- MAIN: counter 0 gives the particle's initial-position uniform, counter
  k+1 its Brownian increment of step k.
- THRESHOLD: the unit-exponential killing threshold (killed mode only),
  kept disjoint so that drawing thresholds never perturbs positions or
  noise and runs of both modes stay pathwise coupled.
"""

from __future__ import annotations

import numpy as np

_MAIN_DOMAIN = 0x1D66F001
_THRESHOLD_DOMAIN = 0x1D66F002


class _Domain:
    """One generator over the Philox key of a (seed, domain) pair; each draw
    sets its counter, so draw k is the same whatever was drawn before."""

    def __init__(self, seed: int, domain: int):
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(domain,))
        key = seq.generate_state(2, dtype=np.uint64)  # 128-bit key
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._state = self._gen.bit_generator.state  # counter 0, empty buffer

    def draw(self, counter: int, indices: range, method: str) -> np.ndarray:
        """Draw number ``counter`` of the streams ``indices``, ``range(n)``."""
        # the state np.random.Philox(key=key, counter=[0, counter, 0, 0]) starts in
        self._state["state"]["counter"][1] = counter
        self._gen.bit_generator.state = self._state
        return getattr(self._gen, method)(len(indices))


def draw_thresholds(seed: int, indices: range) -> np.ndarray:
    """One Exp(1) threshold per particle from the disjoint threshold domain;
    ``indices`` as for :meth:`_Domain.draw`."""
    return _Domain(seed, _THRESHOLD_DOMAIN).draw(0, indices, "standard_exponential")


class ParticleStreams:
    """Main-domain streams 0..n-1 of the ensemble, held as ``range(n)``;
    the only state is the step."""

    def __init__(self, seed: int, n: int):
        self.n = int(n)
        self.indices = range(self.n)
        self._main = _Domain(seed, _MAIN_DOMAIN)
        self._step = 0

    def initial_uniforms(self) -> np.ndarray:
        """Initial-position uniform in [0, 1) of every particle (counter 0)."""
        return self._main.draw(0, self.indices, "random")

    def normals(self) -> np.ndarray:
        """Next standard-normal increment for every particle (one per step)."""
        self._step += 1
        return self._main.draw(self._step, self.indices, "standard_normal")
