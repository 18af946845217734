"""The ``serve-open`` workload: arrival-driven scoring against
``repro serve``.

Set-up compiles a rule index from 4,000 Tall baskets the way
``repro compile --minsup 0.1 --minconf 0.9`` does and starts the server
(the catalogue differs from tall-mine's; see :mod:`inputs`).
One load generator sends ``score`` requests (``limit`` 10) over one
connection on a fixed schedule of ``RATE`` per second, whatever the
replies do (an open loop: independent shoppers). Baskets are drawn
Zipf(1) from fresh Tall rows, so popular baskets repeat and the server's
hot-basket cache is exercised at its default size. Each request is
timed from when it was due to be sent, so a stall also charges the
requests queued behind it.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro import mine_negative_rules
from repro.data.io import load_basket_file, load_taxonomy_file
from repro.mining.rules import generate_rules
from repro.serve import RuleIndex, RuleService
from repro.serve.matcher import BasketMatcher, naive_match

import mining
from inputs import HISTORY_SEED, write_dataset
from measure import Ledger, Outcome, median, tail
from server import Server, as_wire, encode

RATE = 100.0
MINCONF = 0.9
LIMIT = 10
ROWS = 4_000
FRESH_ROWS = 5_000
#: Distinct baskets whose fast-path matches are re-derived with the
#: subset-scan oracle ``naive_match``.
ORACLE_SAMPLE = 50


def compile_index(files, ledger: Ledger | None) -> tuple[Path, dict]:
    """``repro compile``: mine, add positive rules, write the index.

    With a *ledger* the mining is the traced decomposition.
    """
    taxonomy = load_taxonomy_file(files.taxonomy)
    if ledger is None:
        database = load_basket_file(files.baskets)
        result = mine_negative_rules(
            database, taxonomy, minsup=mining.MINSUP, minri=mining.MINRI
        )
        rules, large, counts = result.rules, result.large_itemsets, None
    else:
        rules, counts, large = mining.traced_load_and_mine(
            ledger, files.baskets, taxonomy
        )
    index = RuleIndex(
        negative_rules=rules,
        positive_rules=generate_rules(large, MINCONF),
        taxonomy=taxonomy,
        large_itemsets=large,
        version=1,
    )
    path = files.baskets.with_name("index.json")
    index.save(path)
    return path, counts


def zipf_baskets(files, seed: int, count: int) -> list[tuple]:
    """*count* baskets drawn Zipf(1) by rank from fresh rows."""
    rng = np.random.default_rng(seed + 1)
    pool = [tuple(row) for row in files.catalogue.rows(FRESH_ROWS, rng)]
    weights = 1.0 / np.arange(1, len(pool) + 1)
    picks = rng.choice(len(pool), size=count, p=weights / weights.sum())
    return [pool[pick] for pick in picks]


def open_loop(client, lines: list[bytes], rate: float):
    """Send *lines* on schedule from a thread, read replies in order.

    Returns per-request latency from the due time, how late each send
    was, and the replies (``None`` after a lost connection).
    """
    interval = 1.0 / rate
    start = time.perf_counter() + 0.05
    due = [start + number * interval for number in range(len(lines))]
    late = [0.0] * len(lines)
    stop = threading.Event()

    def sender():
        for number, line in enumerate(lines):
            delay = due[number] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if stop.is_set():
                return
            late[number] = (time.perf_counter() - due[number]) * 1000.0
            client.send(line)

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    latency, replies = [], []
    try:
        for number in range(len(lines)):
            replies.append(client.receive())
            latency.append((time.perf_counter() - due[number]) * 1000.0)
    except (ConnectionError, OSError):
        replies.extend([None] * (len(lines) - len(replies)))
    finally:
        stop.set()
        thread.join(timeout=30)
    return latency, late, replies


def replay(index_path: Path, baskets: list[tuple], timed: bool):
    """Score *baskets* in-process through a fresh ``RuleService``.

    Returns the loop's wall time and, when *timed*, each call's time in
    microseconds split by cache hit and miss.
    """
    service = RuleService(RuleIndex.load(index_path))
    hit_us, miss_us = [], []
    started = time.perf_counter()
    for basket in baskets:
        if not timed:
            service.score(list(basket), LIMIT)
            continue
        hits = service.stats()["cache_hits"]
        call = time.perf_counter()
        service.score(list(basket), LIMIT)
        elapsed_us = (time.perf_counter() - call) * 1e6
        if service.stats()["cache_hits"] > hits:
            hit_us.append(elapsed_us)
        else:
            miss_us.append(elapsed_us)
    return time.perf_counter() - started, hit_us, miss_us


def run(workdir: Path, seed: int, seconds: float, traced: bool,
        source: Path) -> Outcome:
    out = Outcome()
    requests = max(1, round(RATE * seconds))
    ledger = Ledger()
    generate_s = []
    server = None
    try:
        for number in range(mining.SETUPS):
            if server is not None:
                server.stop()
                server = None
            started = time.perf_counter()
            setup_dir = workdir / f"setup{number}"
            setup_dir.mkdir()
            files = write_dataset(
                setup_dir, "tall-serving", ROWS, HISTORY_SEED
            )
            fresh = time.perf_counter()
            baskets = zipf_baskets(files, seed, requests)
            generate_s.append(
                files.generate_s + time.perf_counter() - fresh
            )
            with ledger.span("serve.compile_ms"):
                index_path, counts = compile_index(
                    files, ledger if traced else None
                )
            server = Server(index_path, source)
            client = server.connect()
            warm = client.request({"op": "score", "basket": [],
                                   "limit": LIMIT})
            out.setup_s.append(time.perf_counter() - started)
            out.check("error" not in warm, f"warm-up refused: {warm}")
            if traced:
                ledger.close_op()
            if number < mining.SETUPS - 1:
                client.close()

        # Expected answers, computed in-process before any traffic.
        service = RuleService(RuleIndex.load(index_path), cache_size=0)
        distinct = sorted(set(baskets))
        expected = {
            basket: as_wire(service.score(list(basket), LIMIT))
            for basket in distinct
        }
        matcher = BasketMatcher(service.index)
        for basket in distinct[:ORACLE_SAMPLE]:
            out.check(
                matcher.match(basket) == naive_match(service.index, basket),
                f"matcher disagrees with naive_match on {basket}",
            )

        lines = [
            encode({"op": "score", "basket": list(basket), "limit": LIMIT})
            for basket in baskets
        ]
        before = client.request({"op": "stats"})
        cpu = server.cpu_s()
        started = time.perf_counter()
        latency, late, replies = open_loop(client, lines, RATE)
        wall = time.perf_counter() - started
        server_cpu = server.cpu_s() - cpu
        after = client.request({"op": "stats"}) if None not in replies \
            else before
        out.child_rss_mb = server.peak_rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()

    out.attempted = len(lines)
    for basket, reply in zip(baskets, replies):
        if reply is None or json.loads(reply) != expected[basket]:
            out.failed += 1
    out.op_ms = latency
    # The server's CPU clock ticks far more coarsely than one request.
    cpu_per_request = server_cpu * 1000.0 / len(lines)
    out.op_cpu_ms = [cpu_per_request]
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    late_tail = tail(late)
    out.extra.update({
        "requests": len(lines),
        "hit_rate": hits / len(lines),
        "serve.server_cpu_ms_per_req": cpu_per_request,
    })
    found = tail(latency)
    if found is not None:
        out.extra[f"op_{found[0]}_ms"] = found[1]
    if late_tail is not None:
        out.extra[f"loadgen.late_{late_tail[0]}_ms"] = late_tail[1]
        # The generator fell behind when its late tail passes the send
        # interval: then the schedule, not the server, set the arrivals.
        out.extra["loadgen.behind"] = late_tail[1] > 1000.0 / RATE

    if traced:
        untraced_wall, _, _ = replay(index_path, baskets, timed=False)
        traced_wall, hit_us, miss_us = replay(index_path, baskets, timed=True)
        out.check(
            (len(hit_us), len(miss_us)) == (hits, misses),
            f"in-process replay counted {len(hit_us)}/{len(miss_us)} "
            f"hits/misses, the server {hits}/{misses}",
        )
        out.layers.update(ledger.medians())
        out.layers.update(mining.with_yield(counts))
        out.layers.update({
            "synthetic.generate_s": median(generate_s),
            "serve.cache_hits": hits,
            "serve.cache_misses": misses,
            "serve.busy_frac": server_cpu / wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        })
        out.extra["serve.score_hit_us"] = median(hit_us)
        out.extra["serve.score_miss_us"] = median(miss_us)
    return out
