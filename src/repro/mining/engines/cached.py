"""The ``cached`` engine: persistent vertical bitmap index counting.

One physical scan materializes a :class:`~repro.mining.vertical.
VerticalIndex` attached to the database, and every later pass (any
Apriori level, the Improved miner's negative-candidate count, EstMerge
sample estimates) intersects cached bitmaps instead of re-reading rows.
Generalized counting ORs descendant bitmaps lazily, so no per-row
ancestor extension happens at all. See :mod:`repro.mining.vertical` and
DESIGN.md §6.
"""

from __future__ import annotations

from collections.abc import Collection

from ...itemset import Itemset
from .. import vertical
from .base import (
    Capabilities,
    CountingEngine,
    EnginePolicy,
    EngineState,
    register_engine,
)


@register_engine("cached")
class CachedEngine(CountingEngine):
    """Vertical counting with the rebuild amortized across passes.

    Requires the scan-counted database (not plain rows) to persist the
    index; plain rows fall back to a one-shot index build per pass. It
    ignores ``restrict_to_candidate_items`` — extended rows are never
    materialized in the first place.
    """

    capabilities = Capabilities(packed=False, caching=True)

    def __init__(self, cache_bytes: int | None = None) -> None:
        self.cache_bytes = cache_bytes

    @classmethod
    def from_policy(cls, policy: EnginePolicy) -> "CachedEngine":
        return cls(cache_bytes=policy.cache_bytes)

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        cache_stats=None,
        parallel_stats=None,
    ) -> dict[Itemset, int]:
        return vertical.count_with_index(
            state.transactions,
            candidates,
            taxonomy=state.taxonomy,
            budget_bytes=self.cache_bytes,
            stats=cache_stats,
        )
