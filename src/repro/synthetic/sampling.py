"""Weighted picks from a cumulative distribution built once.

``Generator.choice(a, p=weights)`` re-validates *weights* and rebuilds
their cumulative sum on every call, which made it most of the cost of
emitting a synthetic basket. The generators here validate each weight
vector once, keep its CDF as a Python list and pick with one
``rng.random()`` draw and a bisection -- the very draw and the very
comparison ``choice`` makes, so the picks and the generator's final
``bit_generator.state`` are unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from ..errors import GenerationError

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_SUM_TOLERANCE = math.sqrt(float(np.finfo(np.float64).eps))


def weighted_cdf(
    weights: Sequence[float], count: int, what: str
) -> list[float]:
    """Validate *weights* for *count* outcomes; return their CDF.

    The checks are the ones ``Generator.choice`` makes on ``p``: one
    dimension, one weight per outcome, at least one outcome, no
    negative or NaN weight, and a sum within ``sqrt(eps)`` of 1. The
    CDF is built as ``choice`` builds it (``cumsum``, then divided by
    its last entry), so :func:`pick` reproduces ``choice``'s result.

    Raises
    ------
    GenerationError
        Naming *what* when a check fails.
    """
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1:
        raise GenerationError(f"{what} must be one-dimensional")
    if p.size != count:
        raise GenerationError(
            f"{what}: {p.size} weights for {count} outcomes"
        )
    if count == 0:
        raise GenerationError(f"{what}: nothing to pick from")
    if np.isnan(p).any() or (p < 0).any():
        raise GenerationError(f"{what} must be non-negative numbers")
    total = math.fsum(p.tolist())
    if not abs(total - 1.0) <= _SUM_TOLERANCE:
        raise GenerationError(f"{what} sum to {total!r}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def pick(cdf: list[float], rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(cdf), p=...)`` would return."""
    return bisect_right(cdf, rng.random())
