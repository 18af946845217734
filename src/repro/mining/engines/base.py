"""The counting-engine protocol, capability flags and registry.

Every support-counting backend is a :class:`CountingEngine`: a small
object configured once, asked to
``prepare()`` an :class:`EngineState` for a database/taxonomy pair, and
then invoked through ``count(state, candidates)`` for each logical pass.
Engines self-register under a name with :func:`register_engine`, which is
the single source of truth the CLI, the benchmarks and the property tests
enumerate — a newly registered engine is automatically validated,
listed by ``python -m repro engines`` and covered by the
registry-parametrized equivalence test.

Specs
-----
An engine *spec* is a plain registered name (``"bitmap"``, ``"mmap"``,
…). :func:`create_engine` resolves a spec, plus the out-of-core options
only the ``"mmap"`` engine takes, into a ready engine object.

Validation
----------
The precheck every engine used to duplicate lives here once
(:func:`validate_candidates` / :func:`count_pass`): unknown engine names
are rejected at spec resolution, an empty candidate *collection*
short-circuits to ``{}`` without touching the data, and an empty
candidate *itemset* raises :class:`~repro.errors.ConfigError` — an empty
candidate has no well-defined first item for the bucketed engines and
its support (every transaction) is never meaningful to a miner. A new
engine cannot forget any of this because :func:`count_pass` runs it
before the engine is ever called.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any, ClassVar

from ...errors import ConfigError
from ...itemset import Itemset
from ...obs import api as obs
from ...obs.registry import MetricsRegistry
from ...taxonomy.tree import Taxonomy


@dataclass(frozen=True, slots=True)
class Capabilities:
    """Declared properties of one counting engine.

    Attributes
    ----------
    packed:
        Counts through the bit-packed NumPy kernel
        (:mod:`repro.mining.bitpack`), so it requires NumPy at runtime.
    caching:
        Maintains a persistent per-database structure across passes
        (physical passes can drop below logical passes).
    out_of_core:
        Keeps its packed data in memory-mapped spill files with bounded
        resident bytes (:mod:`repro.mining.segmatrix`).
    """

    packed: bool = False
    caching: bool = False
    out_of_core: bool = False


@dataclass(slots=True)
class EngineState:
    """One prepared (transactions, taxonomy) binding.

    *transactions* is either the scan-counted database or the plain rows
    of one pass. ``prepare()`` exists so engines that build per-database
    structures (the cached and mmap engines) have a place
    to do it once per session instead of once per pass.
    """

    transactions: Any
    taxonomy: Taxonomy | None = None
    _checked_epoch: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def require_known_items(self) -> None:
        """Reject basket items of a database outside the bound taxonomy.

        The vertical and packed engines never extend rows with their
        ancestors, which is where the row-scanning engines would fail.
        So the binding checks the database's distinct items itself, once
        per append epoch: an append or rewrite re-checks, a plain
        re-count does not. Plain rows have no epoch; :meth:`rows` checks
        them as they are read.
        """
        epoch_fn = getattr(self.transactions, "append_epoch", None)
        if self.taxonomy is None or epoch_fn is None:
            return
        epoch = epoch_fn()
        if epoch != self._checked_epoch:
            self.taxonomy.require_known(self.transactions.items)
            self._checked_epoch = epoch

    def rows(self) -> Iterable[Itemset]:
        """The rows of one pass: ``scan()`` on a database, else the plain
        rows, each checked against the bound taxonomy as it is read.
        Every engine reads plain rows through here."""
        source = self.transactions
        if hasattr(source, "scan"):
            return source.scan()
        if self.taxonomy is None:
            return source
        return _known_rows(source, self.taxonomy)

    def n_rows(self) -> int | None:
        """Row count when knowable without consuming an iterator."""
        try:
            return len(self.transactions)
        except TypeError:
            return None


def _known_rows(
    rows: Iterable[Itemset], taxonomy: Taxonomy
) -> Iterator[Itemset]:
    """Yield *rows*, raising :class:`~repro.errors.TaxonomyError` at the
    first row holding an item outside *taxonomy*."""
    for row in rows:
        taxonomy.require_known(row)
        yield row


class CountingEngine:
    """Base class and protocol for support-counting backends.

    Subclasses set :attr:`name` and :attr:`capabilities`, register with
    :func:`register_engine`, and implement :meth:`count`. They may
    override :meth:`prepare` to build per-database state.
    """

    name: ClassVar[str] = ""
    capabilities: ClassVar[Capabilities] = Capabilities()

    @property
    def spec(self) -> str:
        """The spec string that would recreate this engine."""
        return self.name

    def prepare(
        self, transactions: Any, taxonomy: Taxonomy | None = None
    ) -> EngineState:
        """Bind a database/taxonomy pair; called once per session."""
        return EngineState(transactions, taxonomy)

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
    ) -> dict[Itemset, int]:
        """Count one validated pass; implemented by each engine.

        The engine records its ``cache.*``, ``kernel.*`` and
        ``counting.segments.*`` metrics in *metrics*.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release segments or spill files (default: none)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec!r}>"


_REGISTRY: dict[str, type[CountingEngine]] = {}

#: Removed engine names and the registered engine that replaces each.
_RETIRED = {
    "index": "bitmap",
    "parallel": "cached",
    "parallel-shm": "cached",
    "numpy": "cached",
}


def register_engine(name: str):
    """Class decorator: register a :class:`CountingEngine` under *name*."""

    def decorate(cls: type[CountingEngine]) -> type[CountingEngine]:
        if name in _REGISTRY:
            raise ValueError(f"engine {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def registered_engines() -> dict[str, type[CountingEngine]]:
    """Name -> engine class, in registration order (a copy)."""
    return dict(_REGISTRY)


def engine_names() -> tuple[str, ...]:
    """All registered engine names, in registration order."""
    return tuple(_REGISTRY)


def parse_spec(spec: str) -> str:
    """Validate a spec string and return the registered engine name."""
    if not isinstance(spec, str):
        raise ConfigError(
            f"engine spec must be a string or CountingEngine, got "
            f"{type(spec).__name__}"
        )
    if ":" in spec:
        raise ConfigError(
            f"engine spec {spec!r} is not a registered name: "
            f"'name:inner' compositions were removed; choose from "
            f"{engine_names()}"
        )
    if spec in _RETIRED:
        raise ConfigError(
            f"counting engine {spec!r} was removed; "
            f"use {_RETIRED[spec]!r} instead"
        )
    if spec not in _REGISTRY:
        raise ConfigError(
            f"unknown counting engine {spec!r}; "
            f"choose from {engine_names()}"
        )
    return spec


def validate_spec(spec: "str | CountingEngine") -> str:
    """Validate an engine spec; return it normalized."""
    if isinstance(spec, CountingEngine):
        return spec.spec
    return parse_spec(spec)


def out_of_core_options(
    spec: "str | CountingEngine",
    segment_rows: int | None = None,
    max_resident_bytes: int | None = None,
    spill_dir: str | None = None,
) -> dict[str, Any]:
    """The out-of-core options that are set, checked against *spec*.

    Only an ``out_of_core`` engine (``"mmap"``) takes them, so setting
    any of them for another engine raises
    :class:`~repro.errors.ConfigError` rather than running without the
    bound the caller asked for.
    """
    options = {
        name: value
        for name, value in (
            ("segment_rows", segment_rows),
            ("max_resident_bytes", max_resident_bytes),
            ("spill_dir", spill_dir),
        )
        if value is not None
    }
    if isinstance(spec, CountingEngine):
        cls = type(spec)
    else:
        cls = _REGISTRY[parse_spec(spec)]
    if options and not cls.capabilities.out_of_core:
        raise ConfigError(
            f"{', '.join(options)}: out-of-core options need "
            f"--engine mmap; engine {cls.name!r} would ignore them"
        )
    return options


def create_engine(
    spec: "str | CountingEngine",
    *,
    segment_rows: int | None = None,
    max_resident_bytes: int | None = None,
    spill_dir: str | None = None,
) -> CountingEngine:
    """Resolve a spec into a ready engine object.

    The out-of-core options go straight to the ``"mmap"`` engine's
    constructor (see :func:`out_of_core_options`). A
    :class:`CountingEngine` instance passes through unchanged (its own
    settings win).
    """
    options = out_of_core_options(
        spec, segment_rows, max_resident_bytes, spill_dir
    )
    if isinstance(spec, CountingEngine):
        return spec
    return _REGISTRY[spec](**options)


def validate_candidates(candidates: Collection[Itemset]) -> None:
    """The registry-level candidate precheck shared by all engines.

    Raises :class:`~repro.errors.ConfigError` for an empty candidate
    itemset (see module docstring). Runs before any engine code, so no
    engine can forget it.
    """
    for candidate in candidates:
        if not candidate:
            raise ConfigError(
                "cannot count an empty candidate itemset; candidates "
                "must contain at least one item"
            )


def count_pass(
    engine: CountingEngine,
    state: EngineState,
    candidates: Collection[Itemset],
    *,
    restrict_to_candidate_items: bool = False,
    metrics: MetricsRegistry | None = None,
) -> dict[Itemset, int]:
    """Run one validated, instrumented counting pass through *engine*.

    This is the single entry point every caller (MiningSession, the
    engine-agreement tests) funnels through: it applies the
    registry-level precheck and rejects basket items outside the bound
    taxonomy, then hands the engine a registry for its metrics: the
    caller's *metrics*, else the active observability registry, else a
    throwaway one. Only when an observability session is active does it
    also record the ``counting.*`` metrics and wrap the pass in a
    ``count.<name>`` span.
    """
    validate_candidates(candidates)
    if not candidates:
        # Never touch the data: no mask/tree setup, no row consumption,
        # no pass recorded.
        return {}
    state.require_known_items()
    obs_state = obs.current()
    if obs_state is None:
        return engine.count(
            state,
            candidates,
            restrict_to_candidate_items=restrict_to_candidate_items,
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )
    n_rows = state.n_rows()
    registry = obs_state.registry
    registry.incr("counting.passes")
    registry.incr("counting.candidates", len(candidates))
    if n_rows is not None:
        registry.incr("counting.rows", n_rows)
    if metrics is None:
        metrics = registry
    with obs.span("count." + engine.name) as span:
        span.annotate("candidates", len(candidates))
        if n_rows is not None:
            span.annotate("rows", n_rows)
        counts = engine.count(
            state,
            candidates,
            restrict_to_candidate_items=restrict_to_candidate_items,
            metrics=metrics,
        )
    return counts
