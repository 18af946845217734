"""The counting-engine protocol, capability flags and registry.

Every support-counting backend is a :class:`CountingEngine`: a small
object configured once (from an :class:`EnginePolicy`), asked to
``prepare()`` an :class:`EngineState` for a database/taxonomy pair, and
then invoked through ``count(state, candidates)`` for each logical pass.
Engines self-register under a name with :func:`register_engine`, which is
the single source of truth the CLI, the benchmarks and the property tests
enumerate — a newly registered engine is automatically validated,
listed by ``python -m repro engines`` and covered by the
registry-parametrized equivalence test.

Specs
-----
An engine *spec* is a plain registered name (``"bitmap"``, ``"numpy"``,
…). :func:`create_engine` resolves a spec plus a policy into a ready
engine object. ``n_jobs > 1`` is a setting of the one parallel engine,
``"parallel-shm"``; with any other spec it is a
:class:`~repro.errors.ConfigError`, never silently ignored.

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

from collections.abc import Collection, Iterable
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

from ..._util import check_positive
from ...errors import ConfigError
from ...itemset import Itemset
from ...obs import api as obs
from ...taxonomy.tree import Taxonomy
from .. import vertical


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
    shared_memory:
        Publishes its packed data via ``multiprocessing.shared_memory``
        and counts through persistent workers attached zero-copy
        (:mod:`repro.parallel.shm`); the only engine that accepts
        ``n_jobs > 1``.
    out_of_core:
        Keeps its packed data in memory-mapped spill files with bounded
        resident bytes (:mod:`repro.mining.segmatrix`).
    """

    packed: bool = False
    caching: bool = False
    shared_memory: bool = False
    out_of_core: bool = False

    def describe(self) -> str:
        """The set flags as a short comma-separated string."""
        names = [f.name for f in fields(self) if getattr(self, f.name)]
        return ", ".join(names) if names else "-"


@dataclass(frozen=True, slots=True)
class EnginePolicy:
    """Execution policy an engine is configured from (once, up front).

    This is the registry-side mirror of the engine-related
    ``MiningConfig`` fields; :func:`create_engine` hands it to each
    engine class's ``from_policy`` so the class picks out the fields it
    understands and ignores the rest.
    """

    n_jobs: int | None = None
    cache_bytes: int | None = None
    batch_words: int | None = None
    segment_rows: int | None = None
    max_resident_bytes: int | None = None
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_jobs is not None:
            check_positive(self.n_jobs, "n_jobs")
        if self.cache_bytes is not None:
            check_positive(self.cache_bytes, "cache_bytes")
        if self.batch_words is not None:
            check_positive(self.batch_words, "batch_words")
        if self.segment_rows is not None:
            check_positive(self.segment_rows, "segment_rows")
        if self.max_resident_bytes is not None:
            check_positive(self.max_resident_bytes, "max_resident_bytes")


@dataclass(slots=True)
class EngineState:
    """One prepared (transactions, taxonomy) binding.

    *transactions* is either the scan-counted database or the plain rows
    of one pass. ``prepare()`` exists so engines that build per-database
    structures (the cached, mmap and parallel-shm engines) have a place
    to do it once per session instead of once per pass.
    """

    transactions: Any
    taxonomy: Taxonomy | None = None
    _checked_epoch: object = field(
        default=None, init=False, repr=False, compare=False
    )

    def require_known_items(self) -> None:
        """Reject basket items outside the bound taxonomy.

        The row-scanning engines raise while extending each row with its
        ancestors; the vertical and packed engines never extend rows. So
        the binding checks the database's distinct items itself, once
        per append epoch: an append or rewrite re-checks, a plain
        re-count does not. Plain rows (one pass) are left to the engine.
        """
        epoch_fn = getattr(self.transactions, "append_epoch", None)
        if self.taxonomy is None or epoch_fn is None:
            return
        epoch = epoch_fn()
        if epoch != self._checked_epoch:
            self.taxonomy.require_known(self.transactions.items)
            self._checked_epoch = epoch

    def rows(self) -> Iterable[Itemset]:
        """The rows of one pass (calls ``scan()`` on a database)."""
        source = self.transactions
        return source.scan() if hasattr(source, "scan") else source

    def n_rows(self) -> int | None:
        """Row count when knowable without consuming an iterator."""
        try:
            return len(self.transactions)
        except TypeError:
            return None


class CountingEngine:
    """Base class and protocol for support-counting backends.

    Subclasses set :attr:`name` and :attr:`capabilities`, register with
    :func:`register_engine`, and implement :meth:`count`. They may
    override :meth:`from_policy` to consume policy fields and
    :meth:`prepare` to build per-database state.
    """

    name: ClassVar[str] = ""
    capabilities: ClassVar[Capabilities] = Capabilities()

    @property
    def spec(self) -> str:
        """The spec string that would recreate this engine."""
        return self.name

    @property
    def wants_cache_stats(self) -> bool:
        """Whether an obs session should auto-create CacheStats for it."""
        return self.capabilities.caching or self.capabilities.packed

    @property
    def wants_parallel_stats(self) -> bool:
        """Whether an obs session should auto-create ParallelStats."""
        return False

    @classmethod
    def from_policy(cls, policy: EnginePolicy) -> "CountingEngine":
        """Build an engine from *policy*."""
        return cls()

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
        cache_stats=None,
        parallel_stats=None,
    ) -> dict[Itemset, int]:
        """Count one validated pass; implemented by each engine."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers, segments or spill files (default: none)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.spec!r}>"


_REGISTRY: dict[str, type[CountingEngine]] = {}

#: Removed engine names and the registered engine that replaces each.
_RETIRED = {"index": "bitmap", "parallel": "parallel-shm"}


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
            f"'name:inner' compositions were removed; for parallel "
            f"counting use engine='parallel-shm' with n_jobs"
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


def validate_spec(
    spec: "str | CountingEngine", n_jobs: int | None = None
) -> str:
    """Validate an engine spec (and its *n_jobs*); return it normalized.

    ``n_jobs > 1`` is accepted only by an engine that declares the
    ``shared_memory`` capability (``"parallel-shm"``); any other spec
    raises :class:`~repro.errors.ConfigError` rather than silently
    counting serially.
    """
    if isinstance(spec, CountingEngine):
        engine_cls = type(spec)
        normalized = spec.spec
    else:
        normalized = parse_spec(spec)
        engine_cls = _REGISTRY[normalized]
    if (
        n_jobs is not None
        and n_jobs > 1
        and not engine_cls.capabilities.shared_memory
    ):
        raise ConfigError(
            f"n_jobs={n_jobs} needs the parallel engine, but engine="
            f"{normalized!r} counts in one process; pass "
            f"engine=\"parallel-shm\" (CLI: --engine parallel-shm, or "
            f"--jobs alone) or n_jobs=1"
        )
    return normalized


def create_engine(
    spec: "str | CountingEngine",
    policy: EnginePolicy | None = None,
) -> CountingEngine:
    """Resolve a spec + policy into a ready engine object.

    A :class:`CountingEngine` instance passes through unchanged (its
    own settings win), but ``policy.n_jobs > 1`` is still checked
    against it: see :func:`validate_spec`.
    """
    if policy is None:
        policy = EnginePolicy()
    validate_spec(spec, policy.n_jobs)
    if isinstance(spec, CountingEngine):
        return spec
    return _REGISTRY[spec].from_policy(policy)


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
    cache_stats=None,
    parallel_stats=None,
) -> dict[Itemset, int]:
    """Run one validated, instrumented counting pass through *engine*.

    This is the single entry point every caller (MiningSession, the
    engine-agreement tests) funnels through: it applies the
    registry-level precheck and rejects basket items outside the bound
    taxonomy, then — only when an observability session is active —
    records the ``counting.*`` metrics, auto-creates stats accumulators the engine
    declares a use for, and wraps the pass in a ``count.<name>`` span.
    With observability off it adds zero work beyond the precheck.
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
            cache_stats=cache_stats,
            parallel_stats=parallel_stats,
        )
    prefix = "" if obs_state.scope == "driver" else obs_state.scope + "."
    n_rows = state.n_rows()
    registry = obs_state.registry
    registry.incr(prefix + "counting.passes")
    registry.incr(prefix + "counting.candidates", len(candidates))
    if n_rows is not None:
        registry.incr(prefix + "counting.rows", n_rows)
    if cache_stats is None and engine.wants_cache_stats:
        cache_stats = vertical.CacheStats(
            registry=obs_state.registry, prefix=prefix
        )
    if parallel_stats is None and engine.wants_parallel_stats:
        from ...parallel.pool import ParallelStats

        parallel_stats = ParallelStats(
            registry=obs_state.registry, prefix=prefix
        )
    with obs.span("count." + engine.name) as span:
        span.annotate("candidates", len(candidates))
        if n_rows is not None:
            span.annotate("rows", n_rows)
        return engine.count(
            state,
            candidates,
            restrict_to_candidate_items=restrict_to_candidate_items,
            cache_stats=cache_stats,
            parallel_stats=parallel_stats,
        )
