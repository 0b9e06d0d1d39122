"""Vectorized batch-interaction engine.

The subsystem splits into two layers:

* :mod:`~repro.engine.batch.sampling` — scheduler-side vectorized
  sampling: ordered agent-pair draws, birthday-collision detection, and
  multivariate-hypergeometric block-state assignment;
* :mod:`~repro.engine.batch.simulator` — :class:`BatchSimulator`, which
  turns collision-free blocks into bulk count updates (one memoized
  transition lookup per distinct state pair) and fast-forwards
  null-dominated phases geometrically.

See DESIGN.md for when to prefer this engine over ``agent``/``multiset``.
"""

from repro.engine.batch.sampling import (
    COUNT_DRAW_LIMIT,
    draw_interaction_pairs,
    first_collision,
    sample_block_states,
)
from repro.engine.batch.simulator import BatchSimulator, BatchStats

__all__ = [
    "COUNT_DRAW_LIMIT",
    "BatchSimulator",
    "BatchStats",
    "draw_interaction_pairs",
    "first_collision",
    "sample_block_states",
]
