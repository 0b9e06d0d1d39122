"""Vectorized scheduler sampling for the batch engine.

The uniformly random scheduler picks one ordered pair of distinct agents
per interaction.  The batch engine exploits a classical observation (the
block-processing idea of Berenbrink et al., *Simulating Population
Protocols in Sub-Constant Time per Interaction*): as long as no agent
appears twice within a run of interactions, the agents involved are a
uniform without-replacement sample of the population, so their *states*
can be drawn in one multivariate-hypergeometric shot from the current
count vector and the interactions applied in bulk.  The first repeated
agent — the "birthday collision", expected after ``Theta(sqrt(n))``
picks — ends the block; the colliding interaction needs the post-states
of the block and is handled individually by the simulator.

Three helpers cover the scheduler-side sampling; all are pure functions
of the generator passed in, so the engine stays deterministic per seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COUNT_DRAW_LIMIT",
    "draw_interaction_pairs",
    "first_collision",
    "sample_block_states",
]

#: Exclusive upper bound on the population size of the count engines'
#: draws.  NumPy's hypergeometric sampler needs both colour counts, and
#: its "marginals" multivariate-hypergeometric sampler the total, below
#: 10^9; the Generator wrappers raise past that, the C routines the
#: native kernels call would not.  Specs check it up front.
COUNT_DRAW_LIMIT = 10**9


def draw_interaction_pairs(
    rng: np.random.Generator, n: int, pairs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``pairs`` ordered (initiator, responder) agent-index pairs.

    Matches the sequential scheduler exactly: the initiator is uniform over
    all ``n`` agents and the responder uniform over the other ``n - 1``
    (drawn in ``[0, n-1)`` and shifted past the initiator's index).
    """
    initiators = rng.integers(0, n, size=pairs)
    responders = rng.integers(0, n - 1, size=pairs)
    responders += responders >= initiators
    return initiators, responders


def first_collision(
    initiators: np.ndarray, responders: np.ndarray
) -> tuple[int, int]:
    """Locate the first repeated agent in a block of interaction pairs.

    Returns ``(free, flat_index)`` where ``free`` is the number of leading
    interactions in which every agent index is distinct and ``flat_index``
    is the position of the first repeat in the interleaved pick sequence
    ``(i0, r0, i1, r1, ...)`` — or ``(pairs, -1)`` when the whole block is
    collision-free.  ``free >= 1`` always: the two picks of one interaction
    are distinct by construction, so the earliest possible collision is the
    initiator of the second interaction (flat index 2).
    """
    flat = np.empty(2 * initiators.shape[0], dtype=np.int64)
    flat[0::2] = initiators
    flat[1::2] = responders
    # Stable argsort keeps equal agent indices in pick order, so marking
    # every sorted element equal to its predecessor flags exactly the
    # second-and-later occurrences; the earliest such pick ends the block.
    order = np.argsort(flat, kind="stable")
    ordered = flat[order]
    repeats = ordered[1:] == ordered[:-1]
    if not repeats.any():
        return initiators.shape[0], -1
    flat_index = int(order[1:][repeats].min())
    return flat_index // 2, flat_index


def sample_block_states(
    rng: np.random.Generator, counts: np.ndarray, slots: int
) -> np.ndarray:
    """States of ``slots`` distinct agents, one per scheduler pick slot.

    Conditioned on the picks being distinct agents, their states are a
    uniform without-replacement sample from the configuration — a
    multivariate hypergeometric draw over the count vector — and every
    assignment of sampled states to pick slots is equally likely, hence
    the shuffle.  Returns an int64 array of ``slots`` state ids.
    """
    sample = rng.multivariate_hypergeometric(counts, slots)
    states = np.repeat(np.arange(counts.shape[0], dtype=np.int64), sample)
    rng.shuffle(states)
    return states
