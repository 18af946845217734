"""The asyncio rule-serving service: score baskets over a socket.

The server speaks newline-delimited JSON over TCP — one request object
per line, one response object per line — because the container of the
reproduction has no HTTP framework and the protocol needs nothing more
than framing. Requests carry an ``op``:

``{"op": "ping"}``
    liveness check, answers ``{"ok": true, "rules": N}``;
``{"op": "score", "basket": [...]}``
    all index rules firing on the basket (items may be ids or taxonomy
    names);
``{"op": "score_batch", "baskets": [[...], ...]}``
    one ``score`` result per basket;
``{"op": "select", "target": item}``
    on-demand selective mining around one target (only when the service
    was built with a :class:`SelectiveContext`);
``{"op": "reload_delta", "delta": {...}}``
    install a versioned rule-index delta pushed by the streaming
    watcher (:mod:`repro.stream`) — the hot-basket cache is invalidated
    selectively by the delta's touched antecedent items, never flushed
    wholesale;
``{"op": "stats"}``
    request/cache/rule counters (including the live ``index_version``).

Scoring is CPU-cheap and non-blocking, so request handling stays on the
event loop; the hot path is the :class:`LRUCache` in front of the
matcher — identical baskets (after canonicalization) are answered
without touching the matcher at all. A cache miss costs one slot-mask
match (:class:`~repro.serve.matcher.BasketMatcher`) plus payloads for
the ``limit`` matches the request returns; the total is a bit count,
so unreturned matches are never built. Cache hits and misses are
reported both on the service (:meth:`RuleService.stats`) and through
the observability layer (``serve.cache.hits`` / ``serve.cache.misses``
counters), so the benchmark and the tests can assert on them.
"""

from __future__ import annotations

import asyncio
import json
import socket
from collections import OrderedDict
from dataclasses import dataclass

from ..core.session import MiningSession
from ..errors import ReproError, ServingError, TaxonomyError
from ..obs import api as obs
from .matcher import BasketMatcher, Match, expand_basket
from .rule_index import RuleIndex
from .selective import mine_selective


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``maxsize=0`` disables caching entirely (every lookup misses and
    :meth:`put` is a no-op). Hits and misses are tallied on the
    instance and mirrored to the active observability session as
    ``<metric_prefix>.hits`` / ``<metric_prefix>.misses`` counters.
    """

    __slots__ = ("_data", "maxsize", "hits", "misses", "metric_prefix")

    _MISSING = object()

    def __init__(
        self, maxsize: int = 1024, metric_prefix: str = "serve.cache"
    ) -> None:
        if maxsize < 0:
            raise ServingError(
                f"cache maxsize must be >= 0, got {maxsize}"
            )
        self._data: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.metric_prefix = metric_prefix

    def get(self, key, default=None):
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            obs.incr(f"{self.metric_prefix}.misses")
            return default
        self._data.move_to_end(key)
        self.hits += 1
        obs.incr(f"{self.metric_prefix}.hits")
        return value

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def entries(self):
        """All ``(key, value)`` pairs, least recently used first."""
        return list(self._data.items())

    def clear(self) -> None:
        self._data.clear()

    def replace(self, entries) -> None:
        """Reset the cache contents to *entries* (LRU order preserved);
        the hit/miss tallies are deliberately kept — selective delta
        invalidation is maintenance, not traffic."""
        self._data = OrderedDict(entries)


@dataclass(slots=True)
class SelectiveContext:
    """Everything ``op: select`` needs to mine at query time.

    The service itself only holds a compiled rule index; on-demand
    selective generation additionally needs the database, the taxonomy
    and the thresholds of the offline run it should be consistent with.
    """

    database: object
    taxonomy: object
    minsup: float
    minri: float
    minconf: float = 0.5
    session: MiningSession = None
    max_size: int | None = None
    max_neighbors: int = 32
    #: Interestingness-measure spec (or instance) for query-time
    #: mining; ``None`` follows the session's bound measure, so served
    #: selective rules stay consistent with the offline run.
    measure: object = None

    def __post_init__(self) -> None:
        if self.session is None:
            self.session = MiningSession(self.database, self.taxonomy)


def _match_payload(match: Match) -> dict:
    return {
        "slot": match.slot,
        "kind": match.kind,
        "rule": match.rule.as_dict(),
        "consequent_present": match.consequent_present,
    }


class RuleService:
    """The serving facade: matcher + caches + request counters.

    All methods are synchronous and cheap; the asyncio layer below is a
    thin framing shell around them, which also makes the service
    directly usable in-process (the CLI ``score --index`` path and the
    tests do exactly that).
    """

    def __init__(
        self,
        index: RuleIndex,
        cache_size: int = 1024,
        selective: SelectiveContext | None = None,
    ) -> None:
        self.index = index
        self.matcher = BasketMatcher(index)
        self.selective = selective
        self.requests = 0
        self._score_cache = LRUCache(cache_size, "serve.cache")
        self._selective_cache = LRUCache(
            cache_size, "serve.selective_cache"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _resolve(self, entry) -> int:
        """An item id for *entry*: ids pass through, names resolve."""
        if isinstance(entry, bool):
            raise ServingError(f"invalid basket item {entry!r}")
        if isinstance(entry, int):
            return entry
        if isinstance(entry, str):
            taxonomy = self.index.taxonomy
            if taxonomy is None:
                raise ServingError(
                    f"cannot resolve item name {entry!r}: "
                    "index has no taxonomy"
                )
            try:
                return taxonomy.id_of(entry)
            except TaxonomyError as exc:
                raise ServingError(str(exc)) from exc
        raise ServingError(f"invalid basket item {entry!r}")

    def score(self, basket, limit: int | None = None) -> dict:
        """Match one basket; cached by its canonical item set.

        *limit* keeps only the strongest matches (slot order ranks
        negatives by RI, then positives by confidence); the payload's
        ``total_matches`` still reports the full count, and only the
        kept matches are built.
        """
        with obs.span("serve.score") as span:
            self.requests += 1
            obs.incr("serve.requests")
            if not isinstance(basket, (list, tuple)):
                raise ServingError(
                    "basket must be a list of item ids or names"
                )
            if limit is not None and limit < 0:
                raise ServingError(f"limit must be >= 0, got {limit}")
            items = tuple(
                sorted({self._resolve(entry) for entry in basket})
            )
            span.annotate("basket", len(items))
            key = (items, limit)
            cached = self._score_cache.get(key)
            if cached is not None:
                return cached
            total, kept = self.matcher.match_top(items, limit)
            payload = {
                "basket": list(items),
                "total_matches": total,
                "matches": [_match_payload(match) for match in kept],
            }
            self._score_cache.put(key, payload)
            return payload

    def score_batch(self, baskets, limit: int | None = None) -> dict:
        """One :meth:`score` result per basket, in order."""
        with obs.span("serve.score_batch") as span:
            if not isinstance(baskets, (list, tuple)):
                raise ServingError("baskets must be a list of baskets")
            span.annotate("baskets", len(baskets))
            return {
                "results": [
                    self.score(basket, limit) for basket in baskets
                ]
            }

    def select(self, target) -> dict:
        """On-demand selective mining around *target* (cached)."""
        context = self.selective
        if context is None:
            raise ServingError(
                "selective generation is unavailable: the service was "
                "started from a compiled index only (no database)"
            )
        with obs.span("serve.select") as span:
            self.requests += 1
            obs.incr("serve.requests")
            target_id = self._resolve(target)
            span.annotate("target", target_id)
            cached = self._selective_cache.get(target_id)
            if cached is not None:
                return cached
            result = mine_selective(
                context.database,
                context.taxonomy,
                target_id,
                context.minsup,
                context.minri,
                minconf=context.minconf,
                session=context.session,
                max_size=context.max_size,
                max_neighbors=context.max_neighbors,
                measure=context.measure,
            )
            payload = {
                "target": target_id,
                "negative_rules": [
                    rule.as_dict() for rule in result.negative_rules
                ],
                "positive_rules": [
                    rule.as_dict() for rule in result.positive_rules
                ],
                "neighborhood": list(result.neighborhood),
                "data_passes": result.stats.data_passes,
            }
            self._selective_cache.put(target_id, payload)
            return payload

    # ------------------------------------------------------------------
    # Delta ingestion (the streaming watcher's push path)
    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> dict:
        """Install a :class:`~repro.stream.delta.RuleIndexDelta` in place.

        The index swap itself is
        :meth:`~repro.serve.rule_index.RuleIndex.apply_delta` (version
        skew raises there, before any state changes). What this method
        adds is cache maintenance without a flush:

        * a cached basket is **invalidated** only when its
          taxonomy-expanded item set intersects the delta's touched
          antecedent items — every added, removed or re-ranked rule
          needs its whole antecedent covered to fire, so any other
          basket provably keeps the same answer;
        * surviving entries are **slot-remapped**: rule slots shift when
          rules are inserted or removed, so the retained payloads get
          their slots rewritten through the old→new identity map,
          keeping them byte-identical to freshly scored responses.

        A taxonomy change (rare) changes basket expansion itself and
        falls back to a full flush. The selective-mining cache is always
        flushed: its entries were mined from the database, which has by
        definition grown.
        """
        with obs.span("serve.delta.apply") as span:
            old_index = self.index
            new_index = old_index.apply_delta(delta)
            kept = 0
            invalidated = 0
            if delta.taxonomy_changed:
                invalidated = len(self._score_cache)
                self._score_cache.clear()
                obs.incr("serve.cache.delta_flush")
            else:
                touched = delta.touched_antecedent_items()
                old_slots = old_index.slots_by_key()
                new_slots = new_index.slots_by_key()
                slot_map = {
                    old_slots[key]: new_slots[key]
                    for key in old_slots
                    if key in new_slots
                }
                retained = []
                for key, payload in self._score_cache.entries():
                    items, _limit = key
                    expanded = expand_basket(items, new_index)
                    if expanded & touched:
                        invalidated += 1
                        continue
                    retained.append((key, {
                        **payload,
                        "matches": [
                            {**match, "slot": slot_map[match["slot"]]}
                            for match in payload["matches"]
                        ],
                    }))
                    kept += 1
                self._score_cache.replace(retained)
            self._selective_cache.clear()
            self.index = new_index
            self.matcher.rebind(new_index)
            obs.incr("serve.delta.applied")
            obs.incr("serve.cache.delta_kept", kept)
            obs.incr("serve.cache.delta_invalidated", invalidated)
            span.annotate("to_version", new_index.version)
            span.annotate("edits", delta.rule_edits)
            return {
                "ok": True,
                "index_version": new_index.version,
                "rules": len(new_index),
                "added": len(delta.added),
                "removed": len(delta.removed),
                "changed": len(delta.changed),
                "cache_kept": kept,
                "cache_invalidated": invalidated,
            }

    def reload_delta(self, payload) -> dict:
        """The ``op: reload_delta`` entry: a delta as a wire payload."""
        # Function-level import: repro.stream imports the serve layer
        # (rule_index, request_once), so the reverse edge must stay out
        # of module scope.
        from ..stream.delta import RuleIndexDelta

        if not isinstance(payload, dict):
            raise ServingError(
                "reload_delta needs a 'delta' payload object"
            )
        return self.apply_delta(RuleIndexDelta.from_payload(payload))

    def stats(self) -> dict:
        return {
            "rules": len(self.index),
            "negative_rules": self.index.negative_count,
            "positive_rules": self.index.positive_count,
            "index_version": self.index.version,
            "requests": self.requests,
            "cache_hits": self._score_cache.hits,
            "cache_misses": self._score_cache.misses,
            "selective_hits": self._selective_cache.hits,
            "selective_misses": self._selective_cache.misses,
            "selective_available": self.selective is not None,
        }


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def dispatch(service: RuleService, request: dict) -> dict:
    """Route one decoded request object to the service.

    Library errors come back as ``{"error": ...}`` response objects —
    a bad request must never take the server down.
    """
    try:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "rules": len(service.index)}
        if op == "score":
            return service.score(
                request.get("basket"), request.get("limit")
            )
        if op == "score_batch":
            return service.score_batch(
                request.get("baskets"), request.get("limit")
            )
        if op == "select":
            return service.select(request.get("target"))
        if op == "reload_delta":
            return service.reload_delta(request.get("delta"))
        if op == "stats":
            return service.stats()
        raise ServingError(f"unknown op {op!r}")
    except ReproError as exc:
        return {"error": str(exc)}


async def handle_client(
    service: RuleService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one connection: a JSON request per line until EOF."""
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                request = json.loads(text)
            except json.JSONDecodeError as exc:
                response = {"error": f"malformed request: {exc}"}
            else:
                if isinstance(request, dict):
                    response = dispatch(service, request)
                else:
                    response = {"error": "request must be a JSON object"}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


#: Per-line buffer for the newline-JSON protocol. asyncio's 64 KiB
#: default fits score requests but not ``reload_delta`` — a delta over
#: a large index (every rule re-ranked by an append that shifts |D|)
#: is one line of tens of megabytes, and overrunning the limit resets
#: the watcher's connection mid-push.
MAX_REQUEST_BYTES = 256 * 1024 * 1024


async def start_server(
    service: RuleService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the service; ``port=0`` picks a free port (for tests)."""

    async def _client(reader, writer):
        await handle_client(service, reader, writer)

    return await asyncio.start_server(
        _client, host, port, limit=MAX_REQUEST_BYTES
    )


def run_service(
    service: RuleService, host: str = "127.0.0.1", port: int = 7407
) -> None:
    """Run the server until interrupted (the ``repro serve`` entry)."""

    async def _main() -> None:
        server = await start_server(service, host, port)
        bound = server.sockets[0].getsockname()
        print(
            f"serving {len(service.index)} rules "
            f"on {bound[0]}:{bound[1]}",
            flush=True,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


def request_once(
    host: str, port: int, payload: dict, timeout: float = 10.0
) -> dict:
    """Send one request to a running server and return its response.

    A plain blocking socket client — used by the CLI ``score`` command
    and the CI smoke check, which talk to the server from a different
    process and need no asyncio of their own.
    """
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode() + b"\n")
        with conn.makefile("rb") as stream:
            line = stream.readline()
    if not line:
        raise ServingError("server closed the connection without a reply")
    return json.loads(line.decode())
