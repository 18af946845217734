"""Negative rule generation (paper Section 2.3, Figure 4).

For each negative itemset ``n`` the generator emits rules
``(n - h) =/=> h`` over consequents ``h`` grown level-wise with
``apriori-gen`` — the paper's extension of the classic *ap-genrules*
procedure. A consequent ``h`` survives a level only when all of:

* ``h`` is a large itemset (the consequent of a rule must meet MinSup);
* the antecedent ``n - h`` is a large itemset (same requirement on the
  antecedent; Figure 4 prunes the consequent when it fails);
* ``RI = (E[sup(n)] - sup(n)) / sup(n - h) >= MinRI`` — growing the
  consequent only shrinks the antecedent, whose support can then only be
  larger, so a failed RI can never recover on a superset consequent.

``prune_small_antecedents=False`` disables the second pruning (but still
refuses to *emit* such rules) so the exhaustive behavior can be compared
in tests: Figure 4's pruning is a heuristic — subsets of a small
antecedent may themselves be large.

The third condition is the default measure's; generation is
parameterized by any registered
:class:`~repro.measures.registry.InterestMeasure`, whose ``rule_scores``
/ ``admit_rules`` replace the RI arithmetic (and whose
``monotone_prune`` capability decides whether a failed score prunes
superset consequents the way RI's monotonicity allows).

Figure 4 runs level by level over all negative itemsets of one size at
once. A consequent is a combination of positions; level ``j + 1`` tries
the combinations whose every ``j``-subset survived level ``j``, which is
what ``apriori-gen`` yields from one itemset's frontier. Both sides'
supports are read from the index's key table
(:meth:`~repro.mining.itemset_index.LargeItemsetIndex.table`), a level's
splits at a time, and scored elementwise in the reference order.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from operator import attrgetter

import numpy as np

from .._util import check_fraction
from ..itemset import Itemset
from ..measures.registry import InterestMeasure, create_measure
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.keytable import PAD, key_order, pack_sorted
from ..serialize import check_payload, header
from ..taxonomy.tree import Taxonomy
from .candidates import frozen_records
from .negmining import NegativeItemset

#: Splits one Figure 4 level judges at once, about: the negative itemsets
#: of a size are taken in chunks of rows, which bounds the working memory.
CHUNK_SPLITS = 1 << 16


@dataclass(frozen=True, slots=True)
class NegativeRule:
    """A strong negative association rule ``antecedent =/=> consequent``.

    Attributes
    ----------
    antecedent, consequent:
        Disjoint non-empty canonical itemsets partitioning the negative
        itemset.
    ri:
        The admitting measure's rule score — the paper's rule interest
        for the default ``"ri"`` measure, the respective score for an
        alternative measure (see :attr:`measure`).
    expected_support, actual_support:
        Expectation vs measurement for ``antecedent ∪ consequent``.
    antecedent_support, consequent_support:
        Fractional supports of the sides (both >= MinSup by construction).
    measure:
        Name of the registered interestingness measure that admitted
        (and scored) this rule; provenance carried through serialization
        into the serving layer's rule index.
    """

    antecedent: Itemset
    consequent: Itemset
    ri: float
    expected_support: float
    actual_support: float
    antecedent_support: float
    consequent_support: float
    measure: str = "ri"

    @property
    def items(self) -> Itemset:
        """The underlying negative itemset."""
        return tuple(sorted(self.antecedent + self.consequent))

    def as_dict(self) -> dict:
        """A versioned JSON-able payload (see :mod:`repro.serialize`).

        Round-trips through :meth:`from_dict`; the serving layer's rule
        index persists rules in exactly this form.
        """
        return {
            **header("negative-rule"),
            "antecedent": list(self.antecedent),
            "consequent": list(self.consequent),
            "ri": self.ri,
            "expected_support": self.expected_support,
            "actual_support": self.actual_support,
            "antecedent_support": self.antecedent_support,
            "consequent_support": self.consequent_support,
            "measure": self.measure,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NegativeRule":
        """Rebuild a rule from :meth:`as_dict` output.

        ``measure`` is read leniently (``"ri"`` when absent) so rule
        indexes compiled before measure provenance existed keep
        loading.
        """
        check_payload(payload, "negative-rule")
        return cls(
            antecedent=tuple(payload["antecedent"]),
            consequent=tuple(payload["consequent"]),
            ri=payload["ri"],
            expected_support=payload["expected_support"],
            actual_support=payload["actual_support"],
            antecedent_support=payload["antecedent_support"],
            consequent_support=payload["consequent_support"],
            measure=payload.get("measure", "ri"),
        )

    def format(self, taxonomy: Taxonomy | None = None) -> str:
        """Render the rule, using taxonomy names when available."""
        if taxonomy is not None:
            name_of = taxonomy.name_of
        else:
            name_of = str
        left = ", ".join(name_of(item) for item in self.antecedent)
        right = ", ".join(name_of(item) for item in self.consequent)
        label = "RI" if self.measure == "ri" else self.measure
        return (
            f"{{{left}}} =/=> {{{right}}} "
            f"({label}={self.ri:.3f}, expected={self.expected_support:.4f}, "
            f"actual={self.actual_support:.4f})"
        )


def generate_negative_rules(
    negatives: Iterable[NegativeItemset],
    index: LargeItemsetIndex,
    minri: float,
    prune_small_antecedents: bool = True,
    measure: "str | InterestMeasure | None" = None,
    minsup: float | None = None,
) -> list[NegativeRule]:
    """Generate every strong negative rule from the negative itemsets.

    Parameters
    ----------
    negatives:
        Output of a negative miner.
    index:
        The generalized large itemsets (for side supports and largeness
        tests).
    minri:
        Minimum rule interest.
    prune_small_antecedents:
        Follow Figure 4 and stop extending a consequent whose antecedent
        is small (default), or keep extending for exhaustive enumeration.
    measure:
        The interestingness measure scoring and admitting splits — a
        registered spec or instance; ``None`` means the paper's RI.
    minsup:
        Minimum support, for measures whose rule threshold needs it
        (``kong-interest``); the RI path ignores it.

    Returns
    -------
    list of NegativeRule, sorted by descending score.
    """
    check_fraction(minri, "minri")
    negatives = list(negatives)
    tuples = list(map(attrgetter("items"), negatives))
    sizes = np.fromiter(map(len, tuples), dtype=np.intp, count=len(tuples))

    def groups():
        # One size's item matrix at a time.
        for size in range(2, int(sizes.max(initial=0)) + 1):
            rows = np.flatnonzero(sizes == size)
            yield rows, np.fromiter(
                chain.from_iterable(map(tuples.__getitem__, rows.tolist())),
                dtype=np.int64, count=len(rows) * size,
            ).reshape(len(rows), size)

    return negative_rules(
        groups(), int(sizes.max(initial=0)),
        list(map(attrgetter("expected_support"), negatives)),
        list(map(attrgetter("actual_support"), negatives)),
        index, minri, prune_small_antecedents, measure, minsup,
    )


def size_groups(items: np.ndarray) -> Iterator[tuple]:
    """The rows of the padded item matrix *items* (``ItemsetColumns.
    items``) by itemset size, with their items: ``(rows, items)``."""
    sizes = (items != PAD).sum(axis=1)
    for size in range(2, items.shape[1] + 1):
        rows = np.flatnonzero(sizes == size)
        yield rows, items[rows, :size]


def negative_rules(
    groups: Iterable[tuple[np.ndarray, np.ndarray]],
    width: int,
    expected: list[float],
    actual: list[float],
    index: LargeItemsetIndex,
    minri: float,
    prune_small_antecedents: bool = True,
    measure: "str | InterestMeasure | None" = None,
    minsup: float | None = None,
) -> list[NegativeRule]:
    """:func:`generate_negative_rules` over negative itemsets as columns.

    *groups* yields ``(rows, items)``: row numbers of negative itemsets of
    one size and their items, one ascending row each (:func:`size_groups`
    reads them from a padded matrix); no itemset is larger than *width*.
    *expected* and *actual* hold each row's supports; the rules share
    those float objects, and the index's supports, as the negatives do.
    """
    if measure is None:
        measure = create_measure("ri")
    elif isinstance(measure, str):
        measure = create_measure(measure)
    table = index.table()
    values = (np.array(expected, dtype=np.float64),
              np.array(actual, dtype=np.float64))
    # Side tuples share one int object per item; side keys order them.
    sides = (
        np.array(table.item_at.tolist(), dtype=object),
        max(width - 1, 0),
        len(table.item_at).bit_length(),
    )
    found = []
    for rows, items in groups:
        if len(rows):
            found.extend(_group(
                rows, items, values, table, sides, minri,
                prune_small_antecedents, measure, minsup,
            ))
    # Each level's rules are built as its arrays are consumed, and only
    # their sort keys are kept.
    rules = []
    for at, (negative, antecedents, consequents, scores, antecedent_supports,
             consequent_supports, *keys) in enumerate(found):
        rules.extend(frozen_records(
            NegativeRule,
            antecedents.tolist(),
            consequents.tolist(),
            scores.tolist(),
            list(map(expected.__getitem__, negative.tolist())),
            list(map(actual.__getitem__, negative.tolist())),
            antecedent_supports.tolist(),
            consequent_supports.tolist(),
            [measure.name] * len(negative),
        ))
        found[at] = (negative, scores, *keys)
    if not rules:
        return []
    negative, scores, antecedent_keys, consequent_keys = [
        np.concatenate([part[field] for part in found], axis=-1)
        for field in range(4)
    ]
    del found
    # By (-score, antecedent, consequent), then by negative itemset: equal
    # sides come only from a repeated one, whose rules keep their input
    # order.
    order = np.lexsort([
        negative, *consequent_keys[::-1], *antecedent_keys[::-1], -scores,
    ])
    return np.fromiter(rules, dtype=object, count=len(rules))[order].tolist()


def _group(
    rows, items, values, table, sides, minri, prune_small_antecedents,
    measure, minsup,
) -> list[tuple]:
    """:func:`_splits` over the negative itemsets *rows*, all of one size,
    whose items are *items*, in chunks."""
    ids, known = table.ids_of(items)
    # Rows in item order: a level's subsets then reach the table in runs
    # of ascending keys, which searchsorted serves several times faster
    # than keys in any order.
    order = key_order(pack_sorted(list(ids.T), table.bits, len(ids)))
    rows, ids, known = rows[order], ids[order], known[order]
    # Chunks of rows bound the splits a level holds at once.
    step = max(1, CHUNK_SPLITS // comb(ids.shape[1], ids.shape[1] // 2))
    found = []
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        found.extend(_splits(
            rows[chunk], ids[chunk], known[chunk], *values, table, sides,
            minri, prune_small_antecedents, measure, minsup,
        ))
    return found


def _splits(
    rows, ids, known, expected, actual, table, sides, minri,
    prune_small_antecedents, measure, minsup,
) -> list[tuple]:
    """Figure 4 over the negative itemsets *rows*, all of one size: *ids*
    holds their dense ids and *known* whether each item is in the table;
    *expected* and *actual* are by row.

    Returns, per level that emitted rules, the arrays ``(negative row,
    antecedent, consequent, score, antecedent support, consequent
    support, antecedent keys, consequent keys)``: the sides as item
    tuples, their supports as the index's float objects, and key columns
    that order the sides as tuples (:func:`_side_keys`).

    Splits are taken by consequent, then row. A split's side is gathered
    as one column per position from the flattened rows,
    ``row * size + position``.
    """
    size = ids.shape[1]
    expected, actual = expected[rows], actual[rows]
    objects, width, bits = sides
    flat_ids = ids.ravel()
    flat_known = None if known.all() else known.ravel()

    def lookup(places):
        return table.lookup(
            [flat_ids[place] for place in places],
            None if flat_known is None
            else np.logical_and.reduce([flat_known[p] for p in places]),
        )

    def supports(at, size, objects=False):
        source = table.support_objects if objects else table.supports
        return source(size)[at]

    # A failed score can recover on a larger consequent unless the
    # measure is monotone; a small antecedent can unless Figure 4 prunes.
    failed_keeps = not measure.capabilities.monotone_prune
    small_keeps = not prune_small_antecedents
    found = []
    alive = None
    for level in range(1, size):
        positions, complements, subsets = _lattice(size, level)
        if alive is None:
            trial = np.ones((len(ids), len(positions)), dtype=bool)
        else:
            trial = alive[:, subsets].all(axis=2)
        combination, negative = trial.T.nonzero()
        if not len(negative):
            break
        start = negative * size
        consequent_at = lookup(_places(positions, start, combination))
        # Antecedents are read only where the consequent is large.
        tried = (consequent_at >= 0).nonzero()[0]
        antecedent_at = lookup(
            _places(complements, start[tried], combination[tried])
        )
        antecedent_found = antecedent_at >= 0
        both = tried[antecedent_found]
        antecedent_at = antecedent_at[antecedent_found]
        keep = np.zeros(len(negative), dtype=bool)
        keep[tried[~antecedent_found]] = small_keeps
        if len(both):
            scores = measure.rule_scores(
                expected[negative[both]], actual[negative[both]],
                supports(antecedent_at, size - level),
                supports(consequent_at[both], level),
            )
            admitted = measure.admit_rules(scores, minsup, minri)
            keep[both] = admitted | failed_keeps
            emit = both[admitted]
            if len(emit):
                antecedent_ids, consequent_ids = (
                    [flat_ids[place] for place in _places(
                        side, start[emit], combination[emit]
                    )]
                    for side in (complements, positions)
                )
                found.append((
                    rows[negative[emit]],
                    _tuples(objects, antecedent_ids),
                    _tuples(objects, consequent_ids),
                    scores[admitted],
                    supports(antecedent_at[admitted], size - level, True),
                    supports(consequent_at[emit], level, True),
                    _side_keys(antecedent_ids, width, bits),
                    _side_keys(consequent_ids, width, bits),
                ))
        if level + 1 == size or not keep.any():
            break
        alive = np.zeros(trial.shape, dtype=bool)
        alive[negative[keep], combination[keep]] = True
    return found


def _places(
    side: np.ndarray, start: np.ndarray, combination: np.ndarray
) -> list[np.ndarray]:
    """Per position of one side of splits, its flat places in the rows:
    ``start`` (row times size) plus the position *side* holds for each
    split's *combination*."""
    return [start + column[combination] for column in side.T]


def _tuples(objects: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """The rows across id *columns* as an object array of item tuples,
    built from the item objects *objects* holds by id."""
    return np.fromiter(
        zip(*(objects[column].tolist() for column in columns)),
        dtype=object, count=len(columns[0]),
    )


def _side_keys(
    columns: list[np.ndarray], width: int, bits: int
) -> np.ndarray:
    """Key columns that order sides as their tuples, a prefix first: each
    id plus one, then zeros up to *width* positions, packed *bits* to an
    id."""
    zeros = np.zeros(len(columns[0]), dtype=np.intp)
    return pack_sorted(
        [column + 1 for column in columns]
        + [zeros] * (width - len(columns)),
        bits, len(zeros),
    )


@lru_cache(maxsize=None)
def _lattice(size: int, level: int) -> tuple[np.ndarray, ...]:
    """The consequents of *level* positions out of *size*: their
    positions (in :func:`itertools.combinations` order), the positions
    each leaves to the antecedent, and, per consequent, the indices of
    its ``level - 1``-position subsets among the previous level's."""
    chosen = list(combinations(range(size), level))
    previous = {
        combination: at for at, combination in
        enumerate(combinations(range(size), level - 1))
    }
    return (
        np.array(chosen, dtype=np.intp).reshape(len(chosen), level),
        np.array(
            [[p for p in range(size) if p not in combination]
             for combination in chosen],
            dtype=np.intp,
        ).reshape(len(chosen), size - level),
        np.array(
            [[previous[combination[:drop] + combination[drop + 1:]]
              for drop in range(level)] for combination in chosen],
            dtype=np.intp,
        ).reshape(len(chosen), level),
    )
