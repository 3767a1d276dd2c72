"""Counter-based random streams for order-independent parallel runs.

Every stream is a Philox4x64 generator keyed by the user seed, with the
logical position (lane, scenario index, block index) packed into the high
words of the 256-bit counter.  Distinct positions can each draw up to 2^64
variates before their counter ranges could touch, so results never depend
on scheduling or on how work is sharded across processes.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int

# Lane codes used by the harness engine.  Lane 0 is reserved for direct
# library calls (for example sample splitting inside an estimator).
LANE_THETA = 1
LANE_OBS = 2
LANE_EST = 3

MAX_SEED = (1 << 128) - 1   # the Philox key is 128 bits
_MAX_COORD = (1 << 64) - 1  # each stream coordinate owns one 64-bit counter word


def stream(seed: int, lane: int = 0, scenario: int = 0, block: int = 0) -> np.random.Generator:
    """Return the deterministic generator for one (seed, lane, scenario, block) cell."""
    seed = check_int("seed", seed, 0, MAX_SEED)
    lane = check_int("lane", lane, 0, _MAX_COORD)
    scenario = check_int("scenario", scenario, 0, _MAX_COORD)
    block = check_int("block", block, 0, _MAX_COORD)
    counter = (lane << 192) | (scenario << 128) | (block << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def derive_seed(seed: int, lane: int, scenario: int, block: int) -> int:
    """Draw a fresh 63-bit seed from the given stream cell (for nested seeding)."""
    return int(stream(seed, lane, scenario, block).integers(0, 1 << 63))
