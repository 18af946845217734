"""The hash table of large itemsets (paper Section 2.4).

"All large itemsets are also placed in a hash table for fast lookup": both
negative candidate generation (dedup against existing large itemsets) and
rule generation (subset supports for RI denominators) need constant-time
support lookups. :class:`LargeItemsetIndex` is that table, keyed on canonical
itemsets, with supports stored as fractions of |D|. Its batch form,
:meth:`LargeItemsetIndex.table`, holds the same itemsets as sorted packed
keys (:class:`~repro.mining.keytable.KeyTable`), which the negative phase
reads a whole batch of subsets from at once.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping

from ..errors import ConfigError
from ..itemset import Itemset, itemset
from ..serialize import check_payload, header
from .keytable import KeyTable


class LargeItemsetIndex:
    """Mapping from large itemset to fractional support, with size views.

    The index is the hand-off between positive and negative mining: the
    generalized miners produce one, and the negative candidate generator and
    rule generator consume it.
    """

    __slots__ = ("_supports", "_by_size", "_table")

    def __init__(self, supports: Mapping[Itemset, float] | None = None) -> None:
        self._supports: dict[Itemset, float] = {}
        self._by_size: dict[int, set[Itemset]] = {}
        self._table: KeyTable | None = None
        if supports:
            for items, support in supports.items():
                self.add(items, support)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, items: Iterable[int], support: float) -> None:
        """Record *items* as large with the given fractional support."""
        canonical = itemset(items)
        if not canonical:
            raise ConfigError("cannot index the empty itemset")
        if not 0.0 <= support <= 1.0:
            raise ConfigError(
                f"support must be a fraction in [0, 1], got {support!r}"
            )
        if canonical not in self._supports:
            self._by_size.setdefault(len(canonical), set()).add(canonical)
        self._supports[canonical] = support
        self._table = None

    def merge(self, other: "LargeItemsetIndex") -> None:
        """Absorb another index (later values win on conflict)."""
        for items, support in other.items():
            self.add(items, support)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, items: object) -> bool:
        return items in self._supports

    def is_large(self, items: Itemset) -> bool:
        """True when *items* was recorded as a large itemset."""
        return items in self._supports

    def support(self, items: Itemset) -> float:
        """Fractional support of a recorded itemset.

        Raises :class:`KeyError` when *items* was never recorded — callers
        on the mining path must check :meth:`is_large` first, which keeps
        accidental support-of-small lookups loud.
        """
        return self._supports[items]

    def support_or_none(self, items: Itemset) -> float | None:
        """Fractional support, or None when *items* is not indexed."""
        return self._supports.get(items)

    def table(self) -> KeyTable:
        """The itemsets as sorted packed keys with supports, per size;
        built on first use and rebuilt after the next :meth:`add`."""
        if self._table is None:
            self._table = KeyTable(self._by_size, self._supports)
        return self._table

    def of_size(self, size: int) -> frozenset[Itemset]:
        """All recorded itemsets with exactly *size* items."""
        return frozenset(self._by_size.get(size, ()))

    @property
    def sizes(self) -> tuple[int, ...]:
        """Sizes for which at least one itemset is recorded, ascending."""
        return tuple(sorted(self._by_size))

    @property
    def max_size(self) -> int:
        """Largest recorded itemset size (0 when empty)."""
        return max(self._by_size, default=0)

    def items(self) -> Iterator[tuple[Itemset, float]]:
        """Iterate ``(itemset, support)`` pairs in deterministic order."""
        for key in sorted(self._supports):
            yield key, self._supports[key]

    def __iter__(self) -> Iterator[Itemset]:
        return iter(sorted(self._supports))

    def __len__(self) -> int:
        return len(self._supports)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-able dict of the index (see :mod:`repro.serialize`).

        Itemsets are emitted in deterministic sorted order as
        ``[items, support]`` pairs — JSON keys cannot be tuples.
        """
        return {
            **header("itemset-index"),
            "itemsets": [
                [list(items), support] for items, support in self.items()
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LargeItemsetIndex":
        """Rebuild an index from :meth:`to_payload` output."""
        check_payload(payload, "itemset-index")
        index = cls()
        for items, support in payload["itemsets"]:
            index.add(items, support)
        return index

    def to_json(self) -> str:
        """The index as one JSON document (round-trips via
        :meth:`from_json`)."""
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "LargeItemsetIndex":
        """Parse :meth:`to_json` output back into an equal index."""
        return cls.from_payload(json.loads(text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LargeItemsetIndex):
            return NotImplemented
        return self._supports == other._supports

    def __repr__(self) -> str:
        by_size = {size: len(self._by_size[size]) for size in self.sizes}
        return f"LargeItemsetIndex(total={len(self)}, by_size={by_size})"
