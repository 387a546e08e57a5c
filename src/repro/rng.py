"""Deterministic random-number helpers.

Every stochastic routine in the library (simulated annealing, synthetic
benchmark generation, traffic injection) takes an explicit integer seed and
derives its generator through :func:`make_rng`, so that all experiments are
bit-for-bit reproducible run to run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable


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


def restart_rng(seed: int, salt: str, restart: int) -> random.Random:
    """The multi-start annealing stream contract, shared by every annealer.

    Restart 0 keeps the exact historical single-start stream
    (``make_rng(seed, salt)``), so ``restarts=1`` reproduces pre-multi-start
    trajectories bit for bit; restarts 1..K-1 derive decorrelated streams
    from the same experiment seed. Serial/parallel bit-identity of
    multi-start runs depends on every caller deriving restart streams
    through this one function.
    """
    if restart == 0:
        return make_rng(seed, salt)
    return make_rng(seed, salt, "restart", restart)


def stable_shuffle(items: Iterable, seed: int, *salt: object) -> list:
    """Return a deterministically shuffled copy of ``items``."""
    out = list(items)
    make_rng(seed, "shuffle", *salt).shuffle(out)
    return out
