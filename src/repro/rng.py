"""Deterministic random-number helpers.

Every stochastic routine in the library (simulated annealing, synthetic
benchmark generation, traffic injection) takes an explicit integer seed and
derives its generator through :func:`make_rng`, so that all experiments are
bit-for-bit reproducible run to run.
"""

from __future__ import annotations

import hashlib
import random


def make_rng(seed: int, *salt: object) -> random.Random:
    """Create a :class:`random.Random` from ``seed`` and optional salt values.

    The salt lets independent components derive decorrelated streams from a
    single experiment seed without sharing generator state::

        rng_a = make_rng(seed, "floorplan", layer)
        rng_b = make_rng(seed, "traffic", flow_id)

    Salts are mixed with a *stable* hash (md5), never the built-in ``hash``,
    whose per-process randomisation for strings would make results differ
    between runs.
    """
    if salt:
        key = repr((int(seed),) + tuple(str(s) for s in salt)).encode()
        digest = hashlib.md5(key).hexdigest()
        return random.Random(int(digest[:16], 16))
    return random.Random(int(seed))
