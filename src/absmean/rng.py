"""Counter-based random streams for order-independent parallel runs.

Every stream is a Philox4x64 generator keyed by the user seed, with the
logical position (lane, scenario index, replication index) packed into the
high words of the 256-bit counter.  Distinct positions can each draw up to
2^64 variates before their counter ranges could touch, so results never
depend on scheduling or on how work is sharded across processes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Lane codes used by the harness engine.  Lane 0 is reserved for direct
# library calls (for example sample splitting inside an estimator).
LANE_THETA = 1
LANE_OBS = 2
LANE_EST = 3

_WORD = 1 << 64


def stream(seed: int, lane: int = 0, scenario: int = 0, replication: int = 0) -> np.random.Generator:
    """Return the deterministic generator for one (seed, lane, scenario, replication) cell."""
    for name, value in (("seed", seed), ("lane", lane), ("scenario", scenario), ("replication", replication)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    if seed >= 1 << 128:
        raise DomainError("seed must fit in 128 bits")
    if max(lane, scenario, replication) >= _WORD:
        raise DomainError("stream coordinates must fit in 64 bits")
    counter = (int(lane) << 192) | (int(scenario) << 128) | (int(replication) << 64)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


def derive_seed(seed: int, lane: int, scenario: int, replication: int) -> int:
    """Draw a fresh 63-bit seed from the given stream cell (for nested seeding)."""
    return int(stream(seed, lane, scenario, replication).integers(0, 1 << 63))
