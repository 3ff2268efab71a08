"""The durable workload: ``durable-ingest``.

One writer acks Zipfian updates into a bulk-loaded
:class:`repro.durable.store.DurableStore` in 16-op ``put_batch`` calls.
Flush policy, fixed by the program: every acked batch is one WAL frame
plus one fsync; every installed run is an SSTable written to a temporary
file, fsynced and renamed; every flush cascade appends one fsynced
manifest edit. The writer then abandons the store without ``close()`` and
the directory is reopened to time recovery. The files live on the
checkout's file system, so the latencies are the host's, not a device's.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter
from typing import Callable, List

import numpy as np

from repro import SystemConfig
from repro.durable.store import DurableStore
from repro.workload.zipf import ZipfianSampler

from common import (
    ChangeCounter,
    CorrectnessError,
    Spans,
    first_last_writes,
    frozen_setup,
    layer_medians,
    median,
    pct,
    peak_rss_mb,
    run_rounds,
    tail_percentile,
)

N_RECORDS = 500_000
BATCH_OPS = 16
BATCHES = 6_000
#: Bytes of one user record: an int64 key and an int64 value.
USER_RECORD_BYTES = 16
REOPENS = 5
ROUND_SECONDS = 2.0
#: Batches per "mission" when cutting the write stream into missions of
#: 1,200 ops.
MISSION_BATCHES = 1_200 // BATCH_OPS


def config() -> SystemConfig:
    return SystemConfig(write_buffer_bytes=128 * 1024)


def make_inputs(sub_seed: int):
    """Bulk-load records plus the update stream (keys and values)."""
    rng = np.random.default_rng(sub_seed)
    keys = np.arange(N_RECORDS, dtype=np.int64)
    values = rng.integers(0, 2**31, size=N_RECORDS, dtype=np.int64)
    sampler = ZipfianSampler(N_RECORDS, rng, 0.99)
    upd_keys = sampler.sample(BATCHES * BATCH_OPS)
    upd_values = rng.integers(0, 2**31, size=len(upd_keys), dtype=np.int64)
    return keys, values, upd_keys, upd_values


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def run_round(sub_seed: int, work_dir: str, traced: bool):
    t0 = perf_counter()
    keys, values, upd_keys, upd_values = make_inputs(sub_seed)
    gen_s = perf_counter() - t0
    data_dir = os.path.join(work_dir, f"store-{sub_seed}-{int(traced)}")
    shutil.rmtree(data_dir, ignore_errors=True)
    store = DurableStore(data_dir, config())
    store.bulk_load(keys, values)
    setup_s = perf_counter() - t0

    spans = Spans()
    changes = ChangeCounter()
    if traced:
        # The tree reports changes to the store, its observer; shadowing the
        # store's hooks counts them before the store handles them.
        on_install = store.run_installed
        on_flush = store.flush_completed

        def run_installed(level_no, run, replaced_run_id):
            changes.run_installed(level_no, run, replaced_run_id)
            on_install(level_no, run, replaced_run_id)

        def flush_completed():
            changes.flush_completed()
            on_flush()

        spans.shadow(store, "run_installed", run_installed)
        spans.shadow(store, "flush_completed", flush_completed)
        spans.wrap(store, "put_batch", "durable.put_batch",
                   size=lambda k, v: len(k))
    before = dict(store.telemetry)
    acks: List[float] = []
    acked = np.ones(BATCHES, dtype=bool)
    done_at: List[float] = []
    halves = []
    store.begin_mission()
    with frozen_setup():
        loop_start = perf_counter()
        for b in range(BATCHES):
            if b == BATCHES // 2:
                halves.append(store.end_mission())
                store.begin_mission()
            lo = b * BATCH_OPS
            started = perf_counter()
            try:
                store.put_batch(upd_keys[lo:lo + BATCH_OPS],
                                upd_values[lo:lo + BATCH_OPS])
            except Exception:  # an unacked batch: counted, not checked
                acked[b] = False
            ended = perf_counter()
            acks.append(ended - started)
            done_at.append(ended)
        loop_wall = perf_counter() - loop_start
    halves.append(store.end_mission())
    spans.unwrap_all()
    after = dict(store.telemetry)
    delta = {k: after[k] - before[k] for k in before}
    space_amp = _dir_bytes(data_dir) / (N_RECORDS * USER_RECORD_BYTES)

    # Abandon the store without close(): everything acked is already
    # fsynced, which is what recovery has to rely on.
    abandoned = [store]
    recover_s = []
    for _ in range(REOPENS):
        t = perf_counter()
        reopened = DurableStore(data_dir)
        recover_s.append(perf_counter() - t)
        abandoned.append(reopened)
    report = abandoned[1].last_recovery
    _check(abandoned[1], keys, values, upd_keys, upd_values, acked, sub_seed)
    del abandoned
    shutil.rmtree(data_dir, ignore_errors=True)

    n_ops = BATCHES * BATCH_OPS
    # Missions of 1,200 ops: from the previous mission's last ack to this
    # one's last ack.
    ends = [loop_start] + done_at[MISSION_BATCHES - 1::MISSION_BATCHES]
    groups = [b - a for a, b in zip(ends, ends[1:])]
    sim = {
        "sim_total_s": float(sum(m.total_time for m in halves)),
        "sim_read_s": float(sum(m.read_time for m in halves)),
        "sim_write_s": float(sum(m.write_time for m in halves)),
        "sim_settled_s": float(halves[1].total_time),
        "ops": sum(m.n_operations for m in halves),
        "settled_ops": halves[1].n_operations,
        "io_seq_writes": sum(m.io.seq_writes for m in halves),
        "io_seq_reads": sum(m.io.seq_reads for m in halves),
        "wal_syncs": delta["wal_syncs"],
        "wal_bytes": delta["wal_bytes"],
        "sstables_written": delta["sstables_written"],
        "sstable_bytes": delta["sstable_bytes"],
        "commits": delta["commits"],
    }
    rd = {
        "gen_s": gen_s,
        "setup_s": setup_s,
        "loop_wall": loop_wall,
        "acked_ops": int(acked.sum()) * BATCH_OPS,
        "acks": acks,
        "groups": groups,
        "recover_s": median(recover_s),
        "space_amp": space_amp,
        "sim": sim,
        "spans": spans,
    }
    if traced:
        put_wall = spans.total("durable.put_batch")
        tree_s = (put_wall - delta["wall_wal_s"] - delta["wall_sstable_s"]
                  - delta["wall_manifest_s"])
        user_bytes = n_ops * USER_RECORD_BYTES
        cfg = config()
        user_pages = n_ops * cfg.entry_bytes / cfg.page_bytes
        rd["layers"] = {
            "workload.gen_s": gen_s,
            "durable.wal_ms_per_batch": delta["wall_wal_s"] / BATCHES * 1e3,
            "durable.fsyncs_per_op": delta["wal_syncs"] / n_ops,
            "durable.wal_bytes_per_user_byte": delta["wal_bytes"] / user_bytes,
            "durable.sstable_ms_per_flush": (
                delta["wall_sstable_s"] / max(1, changes.flushes) * 1e3
            ),
            "durable.manifest_ms_per_commit": (
                delta["wall_manifest_s"] / max(1, delta["commits"]) * 1e3
            ),
            "durable.sstable_bytes_per_user_byte": delta["sstable_bytes"] / user_bytes,
            "durable.tree_s": tree_s,
            "durable.recovery_runs_opened": float(report.runs_opened),
            "durable.recovery_ops_replayed": float(report.wal_ops_replayed),
            "engine.put_s": put_wall,
            "engine.keys_per_shard_call": float(BATCH_OPS),
            "lsm.put_us_per_key": tree_s / n_ops * 1e6,
            "lsm.flushes": float(changes.flushes),
            "lsm.compaction_entries_per_update": changes.entries_installed / n_ops,
            "lsm.write_amp": sim["io_seq_writes"] / user_pages,
            "sim.write_us_per_op": sim["sim_write_s"] / sim["ops"] * 1e6,
            "sim.read_us_per_op": sim["sim_read_s"] / sim["ops"] * 1e6,
        }
    return rd


def _check(store, keys, values, upd_keys, upd_values, acked, sub_seed) -> None:
    """After reopen, every acked key reads back its last acked value (and
    a sample of untouched keys their loaded one). Keys an unacked batch
    wrote are skipped: the store owes them nothing."""
    model = np.asarray(values, dtype=np.int64).copy()
    acked_ops = np.repeat(acked, BATCH_OPS)
    written, last = first_last_writes(upd_keys[acked_ops], upd_values[acked_ops])
    model[written] = last
    sample = np.random.default_rng([sub_seed, 7]).integers(0, N_RECORDS, 20_000)
    probe = np.setdiff1d(np.union1d(written, sample), upd_keys[~acked_ops])
    found, got = store.get_batch(probe)
    if not found.all() or not np.array_equal(got, model[probe]):
        bad = int(np.count_nonzero(~found | (got != model[probe])))
        raise CorrectnessError(f"durable-ingest: {bad} acked keys lost after reopen")


SIM_KEYS = ("sim_total_s", "sim_read_s", "sim_write_s", "sim_settled_s", "ops",
            "io_seq_writes", "io_seq_reads", "wal_syncs", "wal_bytes",
            "sstables_written", "sstable_bytes", "commits")


def run(name: str, seed: int, seconds: int, trace: bool,
        log: Callable[[str], None], work_dir: str):
    n_rounds = max(1, int(round(seconds / ROUND_SECONDS)))
    rounds, traced_rounds = run_rounds(
        n_rounds, trace, lambda r, traced: run_round(seed * 1000 + r, work_dir, traced),
        SIM_KEYS,
    )
    for rd in rounds:
        log(f"{name} round: setup {rd['setup_s']:.3f}s loop {rd['loop_wall']:.3f}s "
            f"ack p99 {pct(rd['acks'], 99) * 1e3:.3f}ms "
            f"recovery {rd['recover_s'] * 1e3:.2f}ms")

    n_ops = BATCHES * BATCH_OPS
    writes_per_s = median(rd["acked_ops"] / rd["loop_wall"] for rd in rounds)
    ops = sum(rd["sim"]["ops"] for rd in rounds)
    attempted = n_ops * len(rounds)
    acked_ops = sum(rd["acked_ops"] for rd in rounds)
    result = {
        "attempted": attempted,
        "failed": attempted - acked_ops,
        "sizes": {
            "n_records": N_RECORDS,
            "data_bytes": N_RECORDS * USER_RECORD_BYTES,
            "cache_bytes": 0,
            "batch_ops": BATCH_OPS,
            "batches_per_round": BATCHES,
            "rounds": len(rounds),
            "flush_policy": "fsync per acked batch; SSTable and manifest fsync per flush",
        },
        "e2e": {
            "setup_s": median(rd["setup_s"] for rd in rounds),
            "peak_rss_mb": peak_rss_mb(),
            "completed_frac": acked_ops / attempted,
            "offline.ops_per_s": writes_per_s,
            "offline.mission_ms_tail": median(
                pct(rd["groups"], tail_percentile(len(rd["groups"]))) for rd in rounds
            ) * 1e3,
            "sim.us_per_op": sum(rd["sim"]["sim_total_s"] for rd in rounds) / ops * 1e6,
            "sim.settled_us_per_op": (
                sum(rd["sim"]["sim_settled_s"] for rd in rounds)
                / sum(rd["sim"]["settled_ops"] for rd in rounds) * 1e6
            ),
            "serve.p50_ms": median(pct(rd["acks"], 50) for rd in rounds) * 1e3,
            "serve.max_rps": writes_per_s,
            "durable.acked_writes_per_s": writes_per_s,
            "durable.ack_ms_p50": median(pct(rd["acks"], 50) for rd in rounds) * 1e3,
            "durable.ack_ms_p99": median(pct(rd["acks"], 99) for rd in rounds) * 1e3,
            "durable.recovery_ms": median(rd["recover_s"] for rd in rounds) * 1e3,
            "durable.space_amp": median(rd["space_amp"] for rd in rounds),
        },
    }
    if trace:
        layers = layer_medians(traced_rounds)
        layers["trace.overhead_frac"] = median(
            t["loop_wall"] / p["loop_wall"] for p, t in zip(rounds, traced_rounds)
        ) - 1.0
        result["layers"] = layers
        result["spans"] = traced_rounds[-1]["spans"]
    return result
