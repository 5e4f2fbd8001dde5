"""Seeded, counter-based random-number streams for the particle ensemble.

Each domain has one Philox key, derived from (master seed, domain), and
every draw is a fresh Philox stream at its own counter (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  One generator per
domain serves every draw, its counter set anew each time, so a draw does
not depend on what was drawn before.  A particle's values do not depend on
the ensemble size, the slicing, or which other particles exist; reruns with
the same seed are bit-identical.

Two domains are used:

- MAIN: counter (0, 0, 0, 0) gives the initial-position uniforms, value i
  for particle i.  The Brownian increments of step k come in blocks of
  ``BLOCK`` = 2^14 particles: block b is the stream at counter
  (0, k + 1, b, 0), and particle i takes value i mod ``BLOCK`` of block
  i // ``BLOCK``.  A caller draws a block only up to the last particle it
  needs, and a prefix of a block does not depend on its length.  Block 0
  starts where a draw of the whole ensemble at counter (0, k + 1, 0, 0)
  starts, and the blocks never overlap: a block consumes far fewer than
  2^64 counter increments.
- THRESHOLD: the unit-exponential killing threshold (killed mode only),
  kept disjoint so that drawing thresholds never perturbs positions or
  noise and runs of both modes stay pathwise coupled.

The initial uniforms and the thresholds are drawn once per run, for the
whole ensemble, because they become its state.
"""

from __future__ import annotations

import numpy as np

from .kernel import SLICE_COLUMNS

_MAIN_DOMAIN = 0x1D66F001
_THRESHOLD_DOMAIN = 0x1D66F002

# particles per block of a step's normals: the deposit's slice of a replica
BLOCK = SLICE_COLUMNS


class _Domain:
    """One generator over the Philox key of a (seed, domain) pair; each draw
    sets its counter, so a draw is the same whatever was drawn before."""

    def __init__(self, seed: int, domain: int):
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(domain,))
        key = seq.generate_state(2, dtype=np.uint64)  # 128-bit key
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._state = self._gen.bit_generator.state  # counter 0, empty buffer

    def draw(self, counter: int, n: int, method: str, block: int = 0) -> np.ndarray:
        """The first n values of the stream at counter (0, counter, block, 0)."""
        # the state np.random.Philox(key=key, counter=[0, counter, block, 0]) starts in
        self._state["state"]["counter"][1:3] = counter, block
        self._gen.bit_generator.state = self._state
        return getattr(self._gen, method)(n)


def draw_thresholds(seed: int, indices: range) -> np.ndarray:
    """One Exp(1) threshold per particle of ``indices``, ``range(n)``, from
    the disjoint threshold domain."""
    return _Domain(seed, _THRESHOLD_DOMAIN).draw(0, len(indices), "standard_exponential")


class ParticleStreams:
    """Main-domain streams 0..n-1 of the ensemble, held as ``range(n)``."""

    def __init__(self, seed: int, n: int):
        self.seed = int(seed)
        self.n = int(n)
        self.indices = range(self.n)
        self._main = _Domain(seed, _MAIN_DOMAIN)

    def initial_uniforms(self) -> np.ndarray:
        """Initial-position uniform in [0, 1) of every particle (counter 0)."""
        return self._main.draw(0, self.n, "random")

    def normals(self, step: int, block: int, n: int) -> np.ndarray:
        """Standard-normal increments of step ``step`` for particles
        ``block * BLOCK`` .. ``block * BLOCK + n - 1``: the first n values
        of that block, a new array."""
        return self._main.draw(step + 1, n, "standard_normal", block)
