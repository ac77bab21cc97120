"""Seeded random generation.

Every stochastic operation in the package draws from a Philox-based
:class:`numpy.random.Generator`.  Philox is a named, counter-based,
64-bit generator whose streams are identical across platforms and numpy
versions, so any artifact produced here is bit-reproducible from
``(seed, parameters)`` alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["default_rng", "spawn"]


def default_rng(seed: int) -> np.random.Generator:
    """Return the package-wide deterministic generator for ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


def spawn(seed: int, n: int) -> list[np.random.Generator]:
    """Return ``n`` independent child generators derived from ``seed``.

    Children are independent streams: what one consumer draws (for
    example one sampler chain) never shifts another consumer's stream.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(key=child.generate_state(2, np.uint64)))
            for child in seq.spawn(n)]
