"""The ``numpy`` engine: bit-packed vectorized counting.

The bitmap layout packed into ``uint64`` word arrays and counted in
vectorized batches (``np.bitwise_and.reduce`` + popcount; see
:mod:`repro.mining.bitpack` and DESIGN.md §7). Taxonomy candidates are
matched by descendant-OR instead of per-row ancestor extension, so —
like the cached engine — it ignores ``restrict_to_candidate_items``;
transaction items unknown to the taxonomy raise ``TaxonomyError`` as
under every other engine. Rebuilds its packed matrix every pass; the
``mmap`` engine keeps the same word blocks across passes.
"""

from __future__ import annotations

from collections.abc import Collection

from ...itemset import Itemset
from .. import bitpack
from .base import (
    Capabilities,
    CountingEngine,
    EnginePolicy,
    EngineState,
    register_engine,
)


@register_engine("numpy")
class NumpyEngine(CountingEngine):
    """One-shot bit-packed counting through the NumPy kernel."""

    capabilities = Capabilities(packed=True, shardable=True)

    def __init__(self, batch_words: int | None = None) -> None:
        self.batch_words = batch_words

    @classmethod
    def from_policy(
        cls, policy: EnginePolicy, inner=None
    ) -> "NumpyEngine":
        cls._reject_inner(inner)
        return cls(batch_words=policy.batch_words)

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        cache_stats=None,
        parallel_stats=None,
    ) -> dict[Itemset, int]:
        return bitpack.count_rows(
            state.rows(),
            candidates,
            taxonomy=state.taxonomy,
            batch_words=self.batch_words,
            stats=cache_stats,
        )
