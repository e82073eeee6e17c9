"""Deterministic randomness streams for replicated experiments.

One 64-bit master seed governs an experiment.  Replica ``k`` draws from a
stream derived as ``SeedSequence(master_seed, spawn_key=(k,))``, so any
replica can be regenerated in isolation and replicas can be produced in
chunks or in parallel without changing results.
"""

from __future__ import annotations

import numpy as np


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Generator for one replica, independent of how other replicas are run."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replica),))
    return np.random.default_rng(ss)


def replica_uniform_pairs(master_seed: int, replicas: int, steps: int) -> np.ndarray:
    """Shared-randomness table of uniform pairs, shape (replicas, steps, 2).

    Row ``k`` is exactly what ``replica_rng(master_seed, k).random((steps, 2))``
    returns, so partial reruns reproduce individual rows.
    """
    out = np.empty((replicas, steps, 2))
    for k in range(replicas):
        out[k] = replica_rng(master_seed, k).random((steps, 2))
    return out
