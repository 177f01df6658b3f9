"""Gumbel-Softmax relaxation of discrete routing, annealing, discretization.

During search every routing row is a temperature-softened sample, the
search's softmax((logits + gumbel_noise) / tau); the final architecture is
the plain argmax of the logits. The soft sample multiplies candidate outputs
directly (a mixture), there is no straight-through pass.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundsError
from .resloss import ArchitectureParams

# keeps -log(-log(u)) finite at both ends of the uniform draw
NOISE_EPS = 1e-12


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard Gumbel draws via -log(-log(u)), u kept away from {0, 1}."""
    u = rng.uniform(NOISE_EPS, 1.0 - NOISE_EPS, size=shape)
    return -np.log(-np.log(u))


def schedule_tau(start: float, end: float, step: int, total: int) -> float:
    """The temperature at step 0..total of a linear anneal from start to end."""
    if not 0 <= step <= total:
        raise BoundsError(f"step {step} outside 0..{total}")
    return start + (end - start) * (step / total)


def discretize(alpha: ArchitectureParams) -> np.ndarray:
    """The (tasks, layers) array of argmax picks: picks[t, l] is the operation
    task t takes at layer l + 1. Ties resolve to the lowest candidate index."""
    return alpha.logits.argmax(axis=2)
