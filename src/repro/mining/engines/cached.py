"""The ``cached`` engine: persistent vertical bitmap index counting.

One physical scan materializes a :class:`~repro.mining.vertical.
VerticalIndex` attached to the database, and every later pass (any
Apriori level, the Improved miner's negative-candidate count) intersects
cached bitmaps instead of re-reading rows.
Generalized counting ORs descendant bitmaps lazily, so no per-row
ancestor extension happens at all. See :mod:`repro.mining.vertical` and
DESIGN.md §6.
"""

from __future__ import annotations

from collections.abc import Collection

from ...itemset import Itemset
from ...obs.registry import MetricsRegistry
from .. import vertical
from .base import (
    Capabilities,
    CountingEngine,
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

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
    ) -> dict[Itemset, int]:
        source = state.transactions
        return vertical.count_with_index(
            source if hasattr(source, "scan") else state.rows(),
            candidates,
            taxonomy=state.taxonomy,
            metrics=metrics,
        )
