"""The ``stream-append`` workload: a growing basket log re-mined by the
default ``StreamingMiner`` and pushed as deltas to ``repro serve``.

The op appends 1 % fresh rows to the basket file, polls the watcher
(policy ``rows:1``) and returns once the server has acknowledged the
delta. After each update 200 fixed probe baskets are scored over one
persistent connection, so reads issued right after a delta show what
cache maintenance costs them. In the traced run, updates alternate
between ``poll()`` and a replay of the watcher's steps through their
public functions.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import MiningConfig, ReproError, mine_negative_rules
from repro.data.filedb import FileBackedDatabase
from repro.data.io import load_basket_file, load_taxonomy_file
from repro.mining.rules import generate_rules
from repro.serve import RuleIndex, RuleService
from repro.stream import RuleIndexDelta, StreamingMiner, parse_policy
from repro.stream import push_to_server

import mining
from inputs import HISTORY_SEED, append_rows, write_dataset
from measure import Ledger, Outcome, median
from server import Server, as_wire, encode

BASE_ROWS = 10_000
BATCH_ROWS = BASE_ROWS // 100
PROBES = 200
LIMIT = 10


def traced_update(ledger: Ledger, miner: StreamingMiner, push):
    """One watcher update, step by step: absorb, re-mine, diff, push,
    apply and save. Returns the exact counts and the server's ack."""
    database, taxonomy = miner.database, miner.taxonomy
    with ledger.span("data.load_ms"):
        database.absorb_appends()
    with ledger.span("stream.remine_ms"):
        rules, counts, large = mining.traced_mine(
            ledger, database, taxonomy, miner.session
        )
        positives = generate_rules(large, miner.minconf)
    with ledger.span("stream.diff_ms"):
        delta = RuleIndexDelta.diff(
            miner.index, rules, positives,
            taxonomy=taxonomy, large_itemsets=large,
        )
    with ledger.span("serve.apply_ms"):
        ack = push(delta)
    with ledger.span("stream.save_ms"):
        index = miner.index.apply_delta(delta)
        index.save(miner.index_path)
    if "error" in ack:
        raise ReproError(f"server rejected delta: {ack['error']}")
    # Hand the published state back to the watcher for its next poll.
    miner.index = index
    miner.rows_published = len(database)
    counts["stream.delta_edits"] = delta.rule_edits
    counts["stream.delta_bytes"] = len(
        encode({"op": "reload_delta", "delta": delta.to_payload()})
    )
    counts["serve.cache_kept"] = ack["cache_kept"]
    counts["serve.cache_invalidated"] = ack["cache_invalidated"]
    return counts


def setup(workdir: Path, seed: int, source: Path):
    """Write the base log, bootstrap the watcher and the server, and run
    one warm-up update. Returns everything the measured phase needs."""
    files = write_dataset(workdir, "short", BASE_ROWS, HISTORY_SEED)
    fresh = np.random.default_rng(seed + 1)
    started = time.perf_counter()
    probes = [tuple(row) for row in files.catalogue.rows(PROBES, fresh)]
    generate_s = files.generate_s + time.perf_counter() - started
    taxonomy = load_taxonomy_file(files.taxonomy)
    miner = StreamingMiner(
        FileBackedDatabase(files.baskets),
        taxonomy,
        config=MiningConfig(minsup=mining.MINSUP, minri=mining.MINRI),
        policy=parse_policy("rows:1"),
        index_path=workdir / "index.json",
    )
    miner.start()
    server = Server(miner.index_path, source)
    try:
        miner.push = push_to_server(server.host, server.port)
        append_rows(files.baskets, files.catalogue.rows(BATCH_ROWS, fresh))
        miner.poll()
    except BaseException:
        server.stop()
        raise
    return files, fresh, probes, miner, server, generate_s


def run(workdir: Path, seed: int, seconds: float, traced: bool,
        source: Path) -> Outcome:
    out = Outcome()
    generate_s = []
    server = None
    try:
        for number in range(mining.SETUPS):
            if server is not None:
                server.stop()
                server = None
            setup_dir = workdir / f"setup{number}"
            setup_dir.mkdir()
            started = time.perf_counter()
            files, fresh, probes, miner, server, generated = setup(
                setup_dir, seed, source
            )
            out.setup_s.append(time.perf_counter() - started)
            generate_s.append(generated)

        client = server.connect()
        probe_lines = [
            encode({"op": "score", "basket": list(probe), "limit": LIMIT})
            for probe in probes
        ]
        push = miner.push
        ledger = Ledger()
        traced_ms, read_ms = [], []
        first_replay = None
        updates = 1  # the warm-up
        deadline = time.perf_counter() + seconds
        while out.attempted == 0 or time.perf_counter() < deadline:
            decompose = traced and out.attempted % 2 == 1
            out.attempted += 1
            batch = files.catalogue.rows(BATCH_ROWS, fresh)
            cpu = time.process_time()
            server_cpu = server.cpu_s()
            started = time.perf_counter()
            try:
                append_rows(files.baskets, batch)
                if decompose:
                    counts = traced_update(ledger, miner, push)
                else:
                    fired = miner.poll()
            except ReproError as exc:
                out.failed += 1
                out.problems.append(f"update failed: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            cpu_ms = (time.process_time() - cpu
                      + server.cpu_s() - server_cpu) * 1000.0
            if decompose:
                ledger.close_op()
                traced_ms.append(elapsed_ms)
                if first_replay is None:
                    first_replay = counts
            else:
                out.op_ms.append(elapsed_ms)
                out.op_cpu_ms.append(cpu_ms)
                if not fired:
                    out.failed += 1
                    out.problems.append("an append did not re-mine")
                    continue
            updates += 1

            replies = []
            for line in probe_lines:
                reply, taken = client.timed(line)
                replies.append(reply)
                read_ms.append(taken)
            current = RuleService(miner.index, cache_size=0)
            if any(
                json.loads(reply) != as_wire(current.score(list(probe), LIMIT))
                for probe, reply in zip(probes, replies)
            ):
                out.failed += 1
                out.problems.append(
                    f"update {out.attempted}: reads differ from the "
                    "watcher's index"
                )

        served = client.request({"op": "stats"})["index_version"]
        out.child_rss_mb = server.peak_rss_mb()
        client.close()
    finally:
        if server is not None:
            server.stop()

    out.check(
        served == 1 + updates == miner.index.version,
        f"served version {served}, watcher version {miner.index.version},"
        f" expected {1 + updates}",
    )
    final = mine_negative_rules(
        load_basket_file(files.baskets), miner.taxonomy, config=miner.config
    )
    scratch = RuleIndex(
        negative_rules=final.rules,
        positive_rules=generate_rules(final.large_itemsets, miner.minconf),
        taxonomy=miner.taxonomy,
        large_itemsets=final.large_itemsets,
        version=miner.index.version,
    )
    out.check(
        scratch.to_json() == miner.index.to_json(),
        "the watcher's index differs from a from-scratch compile",
    )
    out.extra["updates"] = updates
    out.extra["read_p50_ms"] = median(read_ms)

    if traced:
        out.layers.update(ledger.medians())
        if first_replay is not None:
            out.layers.update(mining.with_yield(first_replay))
        out.layers["synthetic.generate_s"] = median(generate_s)
        if traced_ms and out.op_ms:
            out.layers["trace.overhead_frac"] = (
                median(traced_ms) / median(out.op_ms) - 1.0
            )
    return out
