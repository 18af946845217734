"""The interestingness-measure protocol, capability flags and registry.

The paper's RI is one point in a design space of negative-rule
semantics; this registry makes the whole space pluggable the same way
:mod:`repro.mining.engines` made support counting pluggable. An
:class:`InterestMeasure` answers the two questions the pipeline asks —
*is this counted candidate a negative itemset?* and *how strong is this
rule split?* — while the counting machinery, the candidate generator
and the pass schedule stay untouched. Measures self-register under a
name with :func:`register_measure`, which is the single source of truth
the CLI (``python -m repro measures``), the cross-measure comparison
layer (:mod:`repro.measures.compare`) and the property tests enumerate.

Specs
-----
A measure *spec* is a plain registered name (``"ri"``,
``"kong-interest"``, ``"coherent"``); measures do not compose, so there
is no ``":"`` syntax. :func:`create_measure` resolves a spec (plus the
RI-only ``figure3_literal`` flag) into a ready measure object, mirroring
``create_engine``.

Semantics contract
------------------
Every judgment is an array form over a batch, so the miners judge all
counted candidates, or all splits of one Figure 4 level, in one call.
``admit_itemsets`` judges *counted candidates*: their taxonomy-derived
expected supports, their measured actual supports, and the single-item
supports of their members (only materialized for measures whose
capabilities declare ``needs_taxonomy_expectation=False`` — the RI path
never pays the lookups). ``rule_scores`` maps antecedent/consequent
splits to the measure's strength values (stored in ``NegativeRule.ri``
and used for ranking); ``admit_rules`` applies the measure's rule
threshold to them. Each is computed elementwise in the same order as
the scalar formula, so a batch gives the floats one call per split
would; :meth:`InterestMeasure.rule_score` is that one call. Measures
whose score is *not* antitone in the antecedent support must declare
``monotone_prune=False`` so rule generation keeps extending consequents
past a failed score.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True, slots=True)
class MeasureCapabilities:
    """Declared properties of one interestingness measure.

    Attributes
    ----------
    needs_taxonomy_expectation:
        The itemset predicate consumes the taxonomy-derived expected
        support (the paper's ``E[sup]``). When ``False`` the measure
        judges candidates from independence over single-item supports
        instead, and selection materializes those supports for it.
    supports_positive:
        The measure's framework also admits positive rules (coherent
        rules do; RI is negative-only by construction).
    bounded_range:
        Scores live in a fixed finite interval (``[-1, 1]`` for the
        support-space measures); RI is unbounded above.
    monotone_prune:
        A failed rule score can never recover on a superset consequent
        (RI's antecedent-support monotonicity, Figure 4's pruning).
        Measures without this property are enumerated exhaustively.
    """

    needs_taxonomy_expectation: bool = True
    supports_positive: bool = False
    bounded_range: bool = False
    monotone_prune: bool = True


class InterestMeasure:
    """Base class and protocol for interestingness measures.

    Subclasses set :attr:`name` and :attr:`capabilities`, register with
    :func:`register_measure`, and implement :meth:`admit_itemsets`,
    :meth:`rule_scores` and :meth:`admit_rules`.
    """

    name: ClassVar[str] = ""
    capabilities: ClassVar[MeasureCapabilities] = MeasureCapabilities()

    @property
    def spec(self) -> str:
        """The spec string that would recreate this measure's shape."""
        return self.name

    def admit_itemsets(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        singles: np.ndarray | None,
        minsup: float,
        minri: float,
    ) -> np.ndarray:
        """Judge counted candidates as negative itemsets; a bool per row.

        *singles* holds one row per candidate: the 1-itemset supports of
        its items in item order, padded with 1.0 (0.0 for a small item).
        It is ``None`` for measures that need the taxonomy expectation.
        """
        raise NotImplementedError

    def rule_scores(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        antecedent_support: np.ndarray,
        consequent_support: np.ndarray,
    ) -> np.ndarray:
        """The measure's strength of each antecedent/consequent split."""
        raise NotImplementedError

    def rule_score(
        self,
        expected: float,
        actual: float,
        antecedent_support: float,
        consequent_support: float,
    ) -> float:
        """:meth:`rule_scores` of one split."""
        return float(self.rule_scores(
            *(np.array([value], dtype=np.float64) for value in (
                expected, actual, antecedent_support, consequent_support
            ))
        )[0])

    def admit_rules(
        self, scores: np.ndarray, minsup: float | None, minri: float
    ) -> np.ndarray:
        """Apply the measure's rule threshold to :meth:`rule_scores`; a
        bool per split.

        *minsup* may be ``None`` for measures that do not need it (RI,
        coherent); measures that do raise :class:`ConfigError` when it
        is missing.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec!r}>"


_REGISTRY: dict[str, type[InterestMeasure]] = {}

DEFAULT_MEASURE = "ri"


def register_measure(name: str):
    """Class decorator: register an :class:`InterestMeasure` as *name*."""

    def decorate(cls: type[InterestMeasure]) -> type[InterestMeasure]:
        if name in _REGISTRY:
            raise ValueError(f"measure {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def registered_measures() -> dict[str, type[InterestMeasure]]:
    """Name -> measure class, in registration order (a copy)."""
    return dict(_REGISTRY)


def measure_names() -> tuple[str, ...]:
    """All registered measure names, in registration order."""
    return tuple(_REGISTRY)


def parse_spec(spec: str) -> str:
    """Validate a measure spec (a plain registered name)."""
    if not isinstance(spec, str):
        raise ConfigError(
            f"measure spec must be a string or InterestMeasure, got "
            f"{type(spec).__name__}"
        )
    if spec not in _REGISTRY:
        raise ConfigError(
            f"unknown interest measure {spec!r}; "
            f"choose from {measure_names()}"
        )
    return spec


def validate_spec(spec: "str | InterestMeasure") -> str:
    """Validate a measure spec and return it normalized (for configs)."""
    if isinstance(spec, InterestMeasure):
        return spec.spec
    return parse_spec(spec)


def create_measure(
    spec: "str | InterestMeasure", *, figure3_literal: bool = False
) -> InterestMeasure:
    """Resolve a spec into a ready measure object.

    *figure3_literal* goes straight to the ``"ri"`` measure's
    constructor; any other measure rejects it. An
    :class:`InterestMeasure` instance passes through unchanged (the
    flag, if any, must then already be baked into it).
    """
    if isinstance(spec, InterestMeasure):
        return spec
    cls = _REGISTRY[parse_spec(spec)]
    if not figure3_literal:
        return cls()
    if cls.name != "ri":
        raise ConfigError(
            "figure3_literal is the RI measure's literal Figure 3 "
            f"predicate; measure {cls.name!r} does not support it"
        )
    return cls(figure3_literal=True)


def _first_doc_line(cls: type) -> str:
    doc = cls.__doc__ or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


def measure_table(markdown: bool = False) -> str:
    """A capability table of every registered measure.

    The text form backs ``python -m repro measures``; the markdown form
    (``--markdown``) is pasted into the README, so the docs can never
    drift from the registry.
    """
    flag_names = [f.name for f in fields(MeasureCapabilities)]
    header = ["measure", *flag_names, "description"]
    rows = []
    for name, cls in _REGISTRY.items():
        caps = cls.capabilities
        rows.append(
            [
                name,
                *[
                    ("yes" if getattr(caps, flag) else "-")
                    for flag in flag_names
                ],
                _first_doc_line(cls),
            ]
        )
    if markdown:
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)
    widths = [
        max(len(str(cell)) for cell in column)
        for column in zip(header, *rows)
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(header, widths))
    ]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


# Import the built-in measures so registration happens on first import
# of the registry; the import order fixes the registry (and table)
# order. Implementation modules must only depend on this module and
# leaf utilities — never on repro.core — so the miners can import the
# registry mid-initialization.
from . import ri as _ri  # noqa: E402,F401  (registration side effect)
from . import kong as _kong  # noqa: E402,F401
from . import coherent as _coherent  # noqa: E402,F401
