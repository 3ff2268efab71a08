"""The closed-loop mission workloads: ``mission-dynamic`` and
``mission-zipf-range-4shard``.

One caller runs fixed missions through :class:`repro.RusKey`. A run is a
fixed number of rounds; round ``r`` of seed ``s`` builds its inputs from
``s * 1000 + r``, so a run's simulated numbers depend on the seed and the
run length only, never on how fast the host is.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

import repro.engine.sharded as sharded_module
from repro import RusKey, StaticTuner, SystemConfig
from repro.workload.dynamic import paper_dynamic_workload
from repro.workload.spec import OP_UPDATE
from repro.workload.ycsb import YCSBWorkload

from common import (
    ChangeCounter,
    CorrectnessError,
    RegimeError,
    Spans,
    first_last_writes,
    frozen_setup,
    io_delta,
    layer_medians,
    median,
    pct,
    peak_rss_mb,
    restart_s,
    run_rounds,
    tail_percentile,
)

WRITE_BUFFER_BYTES = 128 * 1024
SETUPS = 3


@dataclass(frozen=True)
class MissionShape:
    name: str
    n_records: int
    n_missions: int
    mission_size: int
    session_missions: int  # missions per session (= n_missions when static)
    n_shards: int
    cache_pages: int  # block-cache pages per shard
    static_policy: int  # 0 = default Lerp tuner per shard
    round_seconds: float  # nominal wall seconds of one round on a 2-core box

    def config(self) -> SystemConfig:
        return SystemConfig(
            write_buffer_bytes=WRITE_BUFFER_BYTES,
            block_cache_pages=self.cache_pages,
            initial_policy=self.static_policy or 1,
        )

    def workload(self, sub_seed: int):
        if self.static_policy:
            return YCSBWorkload(
                self.n_records,
                lookup_fraction=0.5,
                range_fraction=0.5,
                range_span=64,
                zipf_exponent=0.99,
                seed=sub_seed,
            )
        return paper_dynamic_workload(
            self.n_records, self.session_missions, seed=sub_seed
        )

    def store(self) -> RusKey:
        if self.static_policy:
            return RusKey(
                self.config(),
                tuner=StaticTuner(self.static_policy),
                n_shards=self.n_shards,
            )
        return RusKey(self.config(), n_shards=self.n_shards)


SHAPES = {
    "mission-dynamic": MissionShape(
        name="mission-dynamic",
        n_records=50_000,
        n_missions=500,
        mission_size=1_200,
        session_missions=100,
        n_shards=1,
        cache_pages=0,
        static_policy=0,
        round_seconds=5.5,
    ),
    "mission-zipf-range-4shard": MissionShape(
        name="mission-zipf-range-4shard",
        n_records=51_200,  # 50 MiB of 1 KiB entries
        n_missions=150,
        mission_size=1_200,
        session_missions=150,
        n_shards=4,
        cache_pages=1_024,  # 4 MiB per shard, 16 MiB in all
        static_policy=5,
        round_seconds=7.0,
    ),
}


def make_inputs(shape: MissionShape, sub_seed: int):
    """The round's bulk-load records and missions (the only thing the
    program is given)."""
    workload = shape.workload(sub_seed)
    keys, values = workload.load_records()
    missions = list(workload.missions(shape.n_missions, shape.mission_size))
    return keys, values, missions


def _n_keys(keys, *rest) -> int:
    return len(keys)


def _wrap_engine(spans: Spans, store: RusKey, counters: Dict[str, int],
                 changes: ChangeCounter) -> None:
    """Wrap every call into the core, engine and lsm layers of ``store``."""
    spans.wrap(store, "run_mission", "core.mission")
    for tuner in dict.fromkeys(store.tuners):
        spans.wrap(tuner, "observe_mission", "core.tuner.observe")
    engine = store.engine
    trees = list(engine.tuning_targets())
    for tree in trees:
        io = tree.io_counters
        spans.shadow(tree, "put_batch", io_delta(
            tree.put_batch, io, "seq_writes", counters, "put_seq_writes"))
        spans.shadow(tree, "get_batch", io_delta(
            tree.get_batch, io, "random_reads", counters, "get_random_reads"))
        spans.wrap(tree, "put_batch", "lsm.put", size=_n_keys)
        spans.wrap(tree, "get_batch", "lsm.get", size=_n_keys)
        tree.set_change_observer(changes)
        spans.on_unwrap(lambda tree=tree: tree.set_change_observer(None))
    if len(trees) > 1:
        spans.wrap(engine, "put_batch", "engine.put", size=_n_keys)
        spans.wrap(engine, "get_batch", "engine.get", size=_n_keys)
        spans.wrap(engine, "range_scan_batch", "engine.range", size=_n_keys)
        original_scan = sharded_module.scan_batch

        def scan(tree, los, his):
            return io_delta(original_scan, tree.io_counters, "seq_reads",
                            counters, "range_seq_reads")(tree, los, his)

        spans.patch_module(sharded_module, "scan_batch", "lsm.range",
                           size=lambda tree, los, his: len(los), inner=scan)
    else:
        # One shard: the engine is the tree, so its range entry point is
        # the lsm range path itself.
        spans.shadow(engine, "range_scan_batch", io_delta(
            engine.range_scan_batch, engine.io_counters, "seq_reads",
            counters, "range_seq_reads"))
        spans.wrap(engine, "range_scan_batch", "lsm.range", size=_n_keys)


def _layer_metrics(spans: Spans, counters: Dict[str, int], changes: ChangeCounter,
                   shape: MissionShape, totals) -> Dict[str, float]:
    sharded = shape.n_shards > 1
    selfs = spans.self_times()
    missions = spans.by_name("core.mission")
    mission_total = float(sum(r[3] - r[2] for r in missions))
    per_mission_tuner: Dict[int, float] = {}
    for r in spans.by_name("core.tuner.observe"):
        per_mission_tuner[r[5]] = per_mission_tuner.get(r[5], 0.0) + (r[3] - r[2])
    tuner_times = [per_mission_tuner.get(r[5], 0.0) for r in missions]
    lsm_put_keys = spans.total_size("lsm.put")
    lsm_get_keys = spans.total_size("lsm.get")
    shard_calls = spans.count("lsm.put") + spans.count("lsm.get")
    engine = "engine" if sharded else "lsm"
    fanout = 0.0
    if sharded:
        fanout = sum(
            selfs[r[0]]
            for r in spans.records
            if r[1] in ("engine.put", "engine.get", "engine.range")
        )
    cfg = shape.config()
    user_pages = totals["updates"] * cfg.entry_bytes / cfg.page_bytes
    return {
        "core.tuner.observe_s_p50": pct(tuner_times, 50),
        "core.tuner.observe_s_tail": pct(tuner_times, tail_percentile(len(tuner_times))),
        "core.tuner.share": sum(tuner_times) / mission_total,
        "core.runner.self_s": float(sum(selfs[r[0]] for r in missions)),
        "engine.put_s": spans.total(f"{engine}.put"),
        "engine.get_s": spans.total(f"{engine}.get"),
        "engine.range_s": spans.total(f"{engine}.range"),
        "engine.fanout_self_s": float(fanout),
        "engine.keys_per_shard_call": (lsm_put_keys + lsm_get_keys) / max(1, shard_calls),
        "lsm.put_us_per_key": spans.total("lsm.put") / max(1, lsm_put_keys) * 1e6,
        "lsm.get_us_per_key": spans.total("lsm.get") / max(1, lsm_get_keys) * 1e6,
        "lsm.range_us_per_range": (
            spans.total("lsm.range") / max(1, spans.total_size("lsm.range")) * 1e6
        ),
        "lsm.flushes": float(changes.flushes),
        "lsm.compaction_entries_per_update": (
            changes.entries_installed / max(1, totals["updates"])
        ),
        "lsm.write_amp": counters["put_seq_writes"] / max(1e-9, user_pages),
        "lsm.read_pages_per_get": counters["get_random_reads"] / max(1, totals["lookups"]),
        "lsm.pages_per_range": counters["range_seq_reads"] / max(1, totals["ranges"]),
    }


def _sim_metrics(store: RusKey, shape: MissionShape) -> Dict[str, float]:
    log = store.mission_log
    ops = sum(m.n_operations for m in log)
    settled = [
        m
        for i, m in enumerate(log)
        if i % shape.session_missions >= shape.session_missions // 2
    ]
    settled_ops = sum(m.n_operations for m in settled)
    hits = sum(m.cache_hits for m in log)
    misses = sum(m.cache_misses for m in log)
    return {
        "sim_total_s": float(sum(m.total_time for m in log)),
        "sim_read_s": float(sum(m.read_time for m in log)),
        "sim_write_s": float(sum(m.write_time for m in log)),
        "sim_settled_s": float(sum(m.total_time for m in settled)),
        "ops": ops,
        "settled_ops": settled_ops,
        "updates": sum(m.n_updates for m in log),
        "lookups": sum(m.n_lookups for m in log),
        "ranges": sum(m.n_ranges for m in log),
        "cache_hits": hits,
        "cache_misses": misses,
        "policy_changes": sum(
            1 for a, b in zip(store.policy_history, store.policy_history[1:]) if a != b
        ),
        "io_random_reads": sum(m.io.random_reads for m in log),
        "io_seq_reads": sum(m.io.seq_reads for m in log),
        "io_seq_writes": sum(m.io.seq_writes for m in log),
    }


def _check_correct(store: RusKey, shape, keys, values, missions, sub_seed) -> None:
    """Every key reads back its last written value and a sample of ranges
    equals the model's sorted slice."""
    model = np.asarray(values, dtype=np.int64).copy()
    upd_keys = np.concatenate([m.keys[m.kinds == OP_UPDATE] for m in missions])
    upd_vals = np.concatenate([m.values[m.kinds == OP_UPDATE] for m in missions])
    written, last = first_last_writes(upd_keys, upd_vals)
    model[written] = last
    all_keys = np.asarray(keys, dtype=np.int64)
    found, got = store.get_batch(all_keys)
    if not found.all() or not np.array_equal(got, model[all_keys]):
        bad = int(np.count_nonzero(~found | (got != model[all_keys])))
        raise CorrectnessError(f"{shape.name}: {bad} keys read back wrong")
    rng = np.random.default_rng([sub_seed, 7])
    los = rng.integers(0, shape.n_records, size=256, dtype=np.int64)
    his = los + 63
    rkeys, rvals, offsets = store.range_scan_batch(los, his)
    for i in range(len(los)):
        seg = slice(int(offsets[i]), int(offsets[i + 1]))
        want = np.arange(los[i], min(int(his[i]), shape.n_records - 1) + 1)
        if not (np.array_equal(rkeys[seg], want)
                and np.array_equal(rvals[seg], model[want])):
            raise CorrectnessError(
                f"{shape.name}: range [{los[i]}, {his[i]}] differs from the model"
            )


def _restart_s(store: RusKey, shape: MissionShape) -> float:
    keys, values, _ = store.range_scan_batch(
        np.array([0], dtype=np.int64), np.array([shape.n_records - 1], dtype=np.int64)
    )
    return restart_s(shape.store, keys, values)


def run_round(shape: MissionShape, sub_seed: int, traced: bool):
    """One round: set up, run every mission, take metrics, check outputs.

    Set-up takes tens of milliseconds, so it is repeated ``SETUPS`` times
    (identically: the inputs follow the seed) and the last store is used.
    """
    setup_times, gen_times = [], []
    for _ in range(SETUPS):
        t0 = perf_counter()
        keys, values, missions = make_inputs(shape, sub_seed)
        gen_times.append(perf_counter() - t0)
        store = shape.store()
        store.bulk_load(keys, values)
        setup_times.append(perf_counter() - t0)

    spans = Spans()
    counters = dict.fromkeys(["put_seq_writes", "get_random_reads", "range_seq_reads"], 0)
    changes = ChangeCounter()
    if traced:
        _wrap_engine(spans, store, counters, changes)
    walls: List[float] = []
    with frozen_setup():
        loop_start = perf_counter()
        for i, mission in enumerate(missions):
            spans.tag = i
            started = perf_counter()
            store.run_mission(mission)
            walls.append(perf_counter() - started)
        loop_wall = perf_counter() - loop_start
    spans.unwrap_all()

    sim = _sim_metrics(store, shape)
    # Entries the tree stores (every version and tombstone) per live record.
    space_amp = store.engine.total_entries / shape.n_records
    layers = _layer_metrics(spans, counters, changes, shape, sim) if traced else {}
    _check_correct(store, shape, keys, values, missions, sub_seed)
    restart_s = _restart_s(store, shape)
    return {
        "attempted": sum(len(m.keys) for m in missions),
        "gen_s": median(gen_times),
        "setup_s": median(setup_times),
        "loop_wall": loop_wall,
        "walls": walls,
        "restart_s": restart_s,
        "space_amp": space_amp,
        "sim": sim,
        "layers": layers,
        "spans": spans,
    }


def _guard(shape: MissionShape, sim) -> None:
    if not shape.static_policy and sim["policy_changes"] == 0:
        raise RegimeError(f"{shape.name}: the tuner never changed the policy")
    # A cache that holds the data never misses; one that is not used never
    # hits. Either way the workload is no longer exercising the cache.
    lookups = sim["cache_hits"] + sim["cache_misses"]
    if shape.cache_pages and not 0 < sim["cache_hits"] < lookups:
        raise RegimeError(
            f"{shape.name}: the cache served {sim['cache_hits']} of {lookups} "
            "page reads; it must hit some and miss some"
        )


SIM_KEYS = ("sim_total_s", "sim_read_s", "sim_write_s", "sim_settled_s", "ops",
            "updates", "lookups", "ranges", "cache_hits", "cache_misses",
            "policy_changes", "io_random_reads", "io_seq_reads", "io_seq_writes")


def run(name: str, seed: int, seconds: int, trace: bool,
        log: Callable[[str], None]):
    shape = SHAPES[name]
    n_rounds = max(1, int(round(seconds / shape.round_seconds)))
    rounds, traced_rounds = run_rounds(
        n_rounds, trace, lambda r, traced: run_round(shape, seed * 1000 + r, traced),
        SIM_KEYS,
    )
    for rd in rounds:
        _guard(shape, rd["sim"])
        log(f"{name} round: setup {rd['setup_s']:.3f}s loop {rd['loop_wall']:.3f}s "
            f"sim {rd['sim']['sim_total_s'] / rd['sim']['ops'] * 1e6:.3f}us/op "
            f"policy changes {rd['sim']['policy_changes']}")

    def total(key):
        return sum(rd["sim"][key] for rd in rounds)

    ops = total("ops")
    attempted = sum(rd["attempted"] for rd in rounds)
    ops_per_s = median(rd["sim"]["ops"] / rd["loop_wall"] for rd in rounds)
    mission_tail = median(
        pct(rd["walls"], tail_percentile(len(rd["walls"]))) for rd in rounds
    )
    mission_p50 = median(pct(rd["walls"], 50) for rd in rounds)
    writes_per_s = median(rd["sim"]["updates"] / rd["loop_wall"] for rd in rounds)
    e2e = {
        "setup_s": median(rd["setup_s"] for rd in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": ops / attempted,
        "offline.ops_per_s": ops_per_s,
        "offline.mission_ms_tail": mission_tail * 1e3,
        "sim.us_per_op": total("sim_total_s") / ops * 1e6,
        "sim.settled_us_per_op": total("sim_settled_s") / total("settled_ops") * 1e6,
        "serve.p50_ms": mission_p50 * 1e3,
        "serve.max_rps": ops_per_s,
        "durable.acked_writes_per_s": writes_per_s,
        "durable.ack_ms_p50": mission_p50 * 1e3,
        "durable.ack_ms_p99": mission_tail * 1e3,
        "durable.recovery_ms": median(rd["restart_s"] for rd in rounds) * 1e3,
        "durable.space_amp": median(rd["space_amp"] for rd in rounds),
    }
    result = {
        "attempted": attempted,
        "failed": attempted - ops,
        "e2e": e2e,
        "sizes": {
            "n_records": shape.n_records,
            "data_bytes": shape.n_records * shape.config().entry_bytes,
            "cache_bytes": shape.cache_pages * shape.n_shards * shape.config().page_bytes,
            "n_shards": shape.n_shards,
            "missions_per_round": shape.n_missions,
            "mission_size": shape.mission_size,
            "rounds": len(rounds),
            "setups_per_round": SETUPS,
        },
    }
    if trace:
        layers = layer_medians(traced_rounds)
        sim = {k: sum(rd["sim"][k] for rd in traced_rounds) for k in SIM_KEYS}
        layers.update({
            "workload.gen_s": median(rd["gen_s"] for rd in traced_rounds),
            "core.policy_changes": float(sim["policy_changes"]),
            "sim.read_us_per_op": sim["sim_read_s"] / sim["ops"] * 1e6,
            "sim.write_us_per_op": sim["sim_write_s"] / sim["ops"] * 1e6,
            "storage.cache_hit_rate": (
                sim["cache_hits"] / max(1, sim["cache_hits"] + sim["cache_misses"])
            ),
            "trace.overhead_frac": median(
                t["loop_wall"] / p["loop_wall"] for p, t in zip(rounds, traced_rounds)
            ) - 1.0,
        })
        result["layers"] = layers
        result["spans"] = traced_rounds[-1]["spans"]
    return result
