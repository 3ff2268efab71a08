"""The serving workload: ``serve-zipf-open``.

A one-lane, Lerp-tuned :class:`repro.serve.server.KVServer` serves YCSB
Zipfian traffic (80 % gets, 20 % puts) in two phases per round:

* **open loop at 40k req/s.** One generator thread offers pre-built
  :class:`~repro.serve.server.Request` objects in bursts of one full
  server batch (512 requests) at fixed intervals, 40,000 req/s on
  average. Latency runs from the burst's due time to ``Request.t_done``,
  so a stall that delays later arrivals is charged to them. A request the
  server rejects, or that never completes, counts as failed.
* **saturated closed loop.** The same server, with the same traffic, is
  kept busy: the caller submits the next burst as soon as the one before
  it has completed. The completed rate is the server's capacity.

Bursts, not single arrivals: with single arrivals the server idles
between requests and latency is a sub-millisecond thread wake-up, which
follows the host's CPU steal rather than the server's work. With a burst,
latency is the time to serve a batch (several milliseconds), which moves
in proportion to the server's speed. The serving layer batches by timing,
so its simulated numbers vary a little from run to run.
"""

from __future__ import annotations

import threading
from time import perf_counter, sleep
from typing import Callable, Dict, List

import numpy as np

from repro import FLSMTree, Lerp, SystemConfig
from repro.serve.loadgen import request_stream
from repro.serve.server import REQ_GET, REQ_PUT, KVServer
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

N_RECORDS = 50_000
RATE = 40_000.0
#: Requests per burst: one full server batch (``KVServer`` ``max_batch``).
BURST = 512
OPEN_REQUESTS = 100 * BURST  # 1.28 s at 40k req/s
SATURATED_REQUESTS = 200 * BURST
WINDOW_OPS = 20_000
#: Large enough that only a real overload is refused.
QUEUE_CAPACITY = 1 << 16
#: Requests per "mission" of the saturated phase: twenty bursts, about
#: 80 ms, so that one host stall of a few milliseconds is a small part of
#: a mission's wall.
MISSION_OPS = 20 * BURST
ROUND_SECONDS = 2.5  # wall of one round, set-up included
#: The generator may start a burst at most one burst interval late (p99
#: over bursts, median over rounds); beyond that it is not offering the
#: schedule.
GEN_LAG_LIMIT_S = BURST / RATE
#: Seconds to wait for a submitted request before counting it as failed.
COMPLETION_TIMEOUT_S = 30.0


def config() -> SystemConfig:
    return SystemConfig(write_buffer_bytes=128 * 1024)


def make_inputs(sub_seed: int, n_open: int, n_saturated: int):
    """Bulk-load records and the request lists of the two phases."""
    workload = YCSBWorkload(N_RECORDS, lookup_fraction=0.8, seed=sub_seed)
    keys, values = workload.load_records()
    requests = list(request_stream(workload, n_open + n_saturated, mission_size=1_000))
    return keys, values, requests[:n_open], requests[n_open:]


def _bursts(requests) -> List[list]:
    """``requests`` cut into bursts; the last request of each is waited on
    (one lane serves in order, so its completion ends the burst)."""
    bursts = [requests[i:i + BURST] for i in range(0, len(requests), BURST)]
    for burst in bursts:
        burst[-1].done = threading.Event()
    return bursts


def _offer(server, bursts, due, gen_stamp, accepted, depths):
    """The generator thread: submit each burst at its due time."""
    try_submit = server.try_submit
    depth = server.queue_depths
    for b, burst in enumerate(bursts):
        target = due[b]
        now = perf_counter()
        if target > now:
            sleep(target - now)
            now = perf_counter()
        gen_stamp[b] = now
        depths.append(depth()[0])
        accepted.extend(try_submit(r) for r in burst)


def _saturate(server, bursts) -> List[bool]:
    """Submit each burst as soon as the one before it has completed. With
    one burst in flight the worker drains whole batches; with two, how
    the caller's submissions and the worker's batches shared the GIL
    changed the batch sizes, and the rate spread twice as much."""
    accepted: List[bool] = []
    for burst in bursts:
        ok = [server.try_submit(r) for r in burst]
        accepted.extend(ok)
        _wait(burst[-1] if ok[-1] else None)
    return accepted


def _wait(request) -> None:
    if request is not None:
        request.done.wait(COMPLETION_TIMEOUT_S)


def _n_keys(keys, *rest) -> int:
    return len(keys)


def _wrap(spans: Spans, tree, tuner, counters: Dict[str, int],
          changes: ChangeCounter) -> None:
    io = tree.io_counters
    spans.shadow(tree, "put_batch", io_delta(
        tree.put_batch, io, "seq_writes", counters, "put_seq_writes"))
    spans.shadow(tree, "get_batch", io_delta(
        tree.get_batch, io, "random_reads", counters, "get_random_reads"))
    spans.wrap(tree, "put_batch", "lsm.put", size=_n_keys)
    spans.wrap(tree, "get_batch", "lsm.get", size=_n_keys)
    spans.wrap(tree, "end_mission", "serve.window.end")
    spans.wrap(tree, "begin_mission", "serve.window.begin")
    spans.wrap(tuner, "observe_mission", "core.tuner.observe")
    tree.set_change_observer(changes)
    spans.on_unwrap(lambda: tree.set_change_observer(None))


def _times(requests, field: str) -> np.ndarray:
    return np.fromiter((getattr(r, field) for r in requests), np.float64, len(requests))


def run_round(sub_seed: int, traced: bool):
    """Set up a fresh store and server, run the open loop and then the
    saturated phase, take metrics and check the final state. A traced
    round traces the open loop only."""
    t0 = perf_counter()
    keys, values, open_reqs, sat_reqs = make_inputs(
        sub_seed, OPEN_REQUESTS, SATURATED_REQUESTS
    )
    open_bursts, sat_bursts = _bursts(open_reqs), _bursts(sat_reqs)
    gen_s = perf_counter() - t0
    cfg = config()
    tree = FLSMTree(cfg)
    tree.bulk_load(keys, values)
    tuner = Lerp(cfg)
    server = KVServer(
        tree, tuners=[tuner], queue_capacity=QUEUE_CAPACITY, window_ops=WINDOW_OPS
    )
    n_bursts = len(open_bursts)
    gen_stamp = [0.0] * n_bursts
    accepted: List[bool] = []
    depths: List[int] = []
    setup_s = perf_counter() - t0

    spans = Spans()
    counters = dict.fromkeys(["put_seq_writes", "get_random_reads"], 0)
    changes = ChangeCounter()
    if traced:
        _wrap(spans, tree, tuner, counters, changes)
    with frozen_setup():
        server.start()
        base = perf_counter() + 0.005
        due_burst = (base + np.arange(n_bursts) * (BURST / RATE)).tolist()
        generator = threading.Thread(
            target=_offer,
            args=(server, open_bursts, due_burst, gen_stamp, accepted, depths),
            name="perfbench-generator",
        )
        generator.start()
        generator.join()
        _wait(open_reqs[-1] if accepted[-1] else None)
        spans.unwrap_all()
        sat_start = perf_counter()
        sat_accepted = _saturate(server, sat_bursts)
        server.stop(drain=True)

    n = len(open_reqs)
    due = np.repeat(due_burst, BURST)[:n]
    t_submit = _times(open_reqs, "t_submit")
    t_done = _times(open_reqs, "t_done")
    ok = np.asarray(accepted) & (t_done > 0.0)
    sat_done = _times(sat_reqs, "t_done")
    sat_ok = np.asarray(sat_accepted) & (sat_done > 0.0)
    failed = int(n - ok.sum()) + int(len(sat_reqs) - sat_ok.sum())
    latency = (t_done - due)[ok]
    is_put = np.fromiter((r.kind == REQ_PUT for r in open_reqs), bool, n)
    is_get = np.fromiter((r.kind == REQ_GET for r in open_reqs), bool, n)
    wall = float(t_done[ok].max() - base) if ok.any() else float("inf")
    sat_wall = float(sat_done[sat_ok].max() - sat_start) if sat_ok.any() else float("inf")
    third = max(1, len(depths) // 3)
    backlog_growth = float(np.mean(depths[-third:]) - np.mean(depths[:third]))

    # Missions of the saturated phase: first submit to last completion of
    # MISSION_OPS consecutive requests.
    sat_submit = _times(sat_reqs, "t_submit")
    groups = [
        float(sat_done[i:i + MISSION_OPS].max() - sat_submit[i])
        for i in range(0, len(sat_reqs) - MISSION_OPS + 1, MISSION_OPS)
    ]
    windows = server.windows
    settled = windows[len(windows) // 2:]
    sim = {
        "sim_total_s": float(sum(w.stats.total_time for w in windows)),
        "sim_read_s": float(sum(w.stats.read_time for w in windows)),
        "sim_write_s": float(sum(w.stats.write_time for w in windows)),
        "sim_settled_s": float(sum(w.stats.total_time for w in settled)),
        "ops": sum(w.stats.n_operations for w in windows),
        "settled_ops": sum(w.stats.n_operations for w in settled),
        "policy_changes": sum(
            1 for a, b in zip(windows, windows[1:]) if a.policies != b.policies
        ),
    }
    gen_late = np.asarray(gen_stamp) - np.asarray(due_burst)
    phase = {
        "gen_s": gen_s,
        "setup_s": setup_s,
        "attempted": n + len(sat_reqs),
        "failed": failed,
        "wall": wall,
        "completed_per_s": float(ok.sum()) / wall,
        "saturated_per_s": float(sat_ok.sum()) / sat_wall,
        "puts_per_s": float((ok & is_put).sum()) / wall,
        "p50": pct(latency, 50),
        "p99": pct(latency, 99),
        "groups": groups,
        "gen_late_max": float(gen_late.max()),
        "gen_late_p99": pct(gen_late, 99),
        "backlog_growth": backlog_growth,
        "queue_depth_mean": server.mean_queue_depth(),
        "queue_depth_max": float(server.max_queue_depth()),
        "space_amp": tree.total_entries / N_RECORDS,
        "sim": sim,
    }
    if traced:
        # The open loop alone is traced: count its own puts and gets.
        phase["layers"] = _layer_metrics(
            spans, counters, changes, ok, due, t_submit, t_done, gen_late,
            int((ok & is_put).sum()), int((ok & is_get).sum()),
        )
        phase["layers"]["workload.gen_s"] = gen_s
        phase["spans"] = spans
    _check_state(tree, keys, values, open_reqs + sat_reqs, accepted + sat_accepted)
    phase["restart_s"] = _restart_s(tree, cfg)
    return phase


def _layer_metrics(spans, counters, changes, ok, due, t_submit, t_done,
                   gen_late, n_puts: int, n_gets: int) -> Dict[str, float]:
    calls = sorted(
        (r for r in spans.records if r[1] in ("lsm.put", "lsm.get")),
        key=lambda r: r[3],
    )
    # Every request of one drained batch is stamped with the same t_done.
    batch_done = np.unique(t_done[ok])
    call_batch = np.searchsorted(batch_done, [r[3] for r in calls])
    n_batches = len(batch_done)
    service = np.zeros(n_batches)
    start = np.full(n_batches, np.inf)
    for b, r in zip(call_batch, calls):
        if b < n_batches:
            service[b] += r[3] - r[2]
            start[b] = min(start[b], r[2])
    req_batch = np.searchsorted(batch_done, t_done[ok])
    queue_wait = start[req_batch] - t_submit[ok]
    sizes = np.bincount(req_batch, minlength=n_batches)
    ends = spans.by_name("serve.window.end")
    begins = sorted(r[2:4] for r in spans.by_name("serve.window.begin"))
    begin_starts = [b[0] for b in begins]
    holds = []
    for r in ends:
        j = int(np.searchsorted(begin_starts, r[3]))
        if j < len(begins):
            holds.append(begins[j][1] - r[2])
    tuner_times = [r[3] - r[2] for r in spans.by_name("core.tuner.observe")]
    phase_wall = float(t_done[ok].max() - due[0])
    put_keys = spans.total_size("lsm.put")
    get_keys = spans.total_size("lsm.get")
    cfg = config()
    user_pages = n_puts * cfg.entry_bytes / cfg.page_bytes
    return {
        "serve.admit_late_ms_p99": pct((t_submit - due)[ok], 99) * 1e3,
        "serve.gen_late_ms_max": float(gen_late.max()) * 1e3,
        "serve.sojourn_ms_p50": pct((t_done - t_submit)[ok], 50) * 1e3,
        "serve.sojourn_ms_p99": pct((t_done - t_submit)[ok], 99) * 1e3,
        "serve.queue_wait_ms_p99": pct(queue_wait, 99) * 1e3,
        "serve.batch_service_ms_p50": pct(service, 50) * 1e3,
        "serve.batch_service_ms_p99": pct(service, 99) * 1e3,
        "serve.batch_size_mean": float(sizes.mean()),
        "serve.window_hold_ms_p50": pct(holds, 50) * 1e3,
        "serve.window_hold_ms_max": float(max(holds, default=0.0)) * 1e3,
        "core.tuner.observe_s_p50": pct(tuner_times, 50),
        "core.tuner.observe_s_tail": pct(tuner_times, tail_percentile(len(tuner_times))),
        "core.tuner.share": sum(tuner_times) / phase_wall,
        "engine.put_s": spans.total("lsm.put"),
        "engine.get_s": spans.total("lsm.get"),
        "engine.keys_per_shard_call": (
            (put_keys + get_keys) / max(1, spans.count("lsm.put") + spans.count("lsm.get"))
        ),
        "lsm.put_us_per_key": spans.total("lsm.put") / max(1, put_keys) * 1e6,
        "lsm.get_us_per_key": spans.total("lsm.get") / max(1, get_keys) * 1e6,
        "lsm.flushes": float(changes.flushes),
        "lsm.compaction_entries_per_update": (
            changes.entries_installed / max(1, n_puts)
        ),
        "lsm.write_amp": counters["put_seq_writes"] / max(1e-9, user_pages),
        "lsm.read_pages_per_get": counters["get_random_reads"] / max(1, n_gets),
    }


def _check_state(tree, keys, values, requests, accepted) -> None:
    """After ``stop()`` the lane holds the last acked put of every key."""
    model = np.asarray(values, dtype=np.int64).copy()
    puts = [r for r, ok in zip(requests, accepted) if ok and r.kind == REQ_PUT]
    if puts:
        written, last = first_last_writes(
            np.fromiter((r.key for r in puts), np.int64, len(puts)),
            np.fromiter((r.value for r in puts), np.int64, len(puts)),
        )
        model[written] = last
    all_keys = np.asarray(keys, dtype=np.int64)
    found, got = tree.get_batch(all_keys)
    if not found.all() or not np.array_equal(got, model[all_keys]):
        bad = int(np.count_nonzero(~found | (got != model[all_keys])))
        raise CorrectnessError(f"serve-zipf-open: {bad} keys lost their last put")


def _restart_s(tree, cfg) -> float:
    keys, values, _ = tree.range_scan_batch(
        np.array([0], dtype=np.int64), np.array([N_RECORDS - 1], dtype=np.int64)
    )
    return restart_s(lambda: FLSMTree(cfg), keys, values)


def run(name: str, seed: int, seconds: int, trace: bool,
        log: Callable[[str], None]):
    n_rounds = max(4, int(round(seconds / ROUND_SECONDS)))
    # Serving batches by timing, so traced and untraced rounds are not
    # compared bit for bit.
    rounds, traced_rounds = run_rounds(
        n_rounds, trace, lambda r, traced: run_round(seed * 1000 + r, traced)
    )
    for ph in rounds + traced_rounds:
        log(f"{name}: setup {ph['setup_s']:.3f}s "
            f"p50 {ph['p50'] * 1e3:.3f}ms p99 {ph['p99'] * 1e3:.3f}ms "
            f"saturated {ph['saturated_per_s']:.0f} req/s "
            f"failed {ph['failed']} gen lag p99 {ph['gen_late_p99'] * 1e3:.1f}ms "
            f"max {ph['gen_late_max'] * 1e3:.1f}ms "
            f"backlog growth {ph['backlog_growth']:.0f} "
            f"policy changes {ph['sim']['policy_changes']}")
    # The regime is judged over the run: a host stall may delay one round's
    # generator or queue, a run that is no longer an open loop at 40k delays
    # most of them.
    phases = rounds + traced_rounds
    failed = sum(ph["failed"] for ph in phases)
    if failed:
        raise RegimeError(f"{name}: {failed} requests failed")
    if median(ph["backlog_growth"] for ph in phases) > BURST:
        raise RegimeError(f"{name}: the queue grew at 40k req/s")
    gen_late = median(ph["gen_late_p99"] for ph in phases)
    if gen_late > GEN_LAG_LIMIT_S:
        raise RegimeError(
            f"{name}: the generator's p99 lateness was {gen_late * 1e3:.1f} ms "
            "at 40k req/s"
        )
    capacity = median(ph["saturated_per_s"] for ph in phases)
    if capacity <= RATE:
        raise RegimeError(
            f"{name}: the server's capacity ({capacity:.0f} req/s) does not "
            "exceed the offered 40k req/s"
        )

    result = {
        "attempted": sum(ph["attempted"] for ph in rounds),
        "failed": sum(ph["failed"] for ph in rounds),
        "sizes": {
            "n_records": N_RECORDS,
            "data_bytes": N_RECORDS * config().entry_bytes,
            "cache_bytes": 0,
            "rate": RATE,
            "burst": BURST,
            "open_requests_per_round": OPEN_REQUESTS,
            "saturated_requests_per_round": SATURATED_REQUESTS,
            "rounds": len(rounds),
            "window_ops": WINDOW_OPS,
        },
    }
    if trace:
        layers = layer_medians(traced_rounds)
        sim = {k: sum(ph["sim"][k] for ph in traced_rounds)
               for k in ("sim_read_s", "sim_write_s", "ops", "policy_changes")}
        layers.update({
            "serve.p99_ms": median(ph["p99"] for ph in traced_rounds) * 1e3,
            "core.policy_changes": float(sim["policy_changes"]),
            "serve.queue_depth_mean": median(ph["queue_depth_mean"] for ph in traced_rounds),
            "serve.queue_depth_max": median(ph["queue_depth_max"] for ph in traced_rounds),
            "sim.read_us_per_op": sim["sim_read_s"] / sim["ops"] * 1e6,
            "sim.write_us_per_op": sim["sim_write_s"] / sim["ops"] * 1e6,
            "trace.overhead_frac": median(
                t["wall"] / p["wall"] for p, t in zip(rounds, traced_rounds)
            ) - 1.0,
        })
        result["layers"] = layers
        result["spans"] = traced_rounds[-1]["spans"]
        return result

    # Latency percentiles are each round's own, reported as a median over
    # rounds, so one host stall lifts one round, not the run. The p99
    # follows the host's stalls too closely to gate a change (see
    # DESIGN.md); the traced run reports it. An in-memory store acks
    # nothing durably, so the ack figures are those of 1,200-request
    # missions, as in the mission workloads.
    groups = [g for ph in rounds for g in ph["groups"]]
    group_tail = pct(groups, tail_percentile(len(groups))) * 1e3
    ops = sum(ph["sim"]["ops"] for ph in rounds)
    settled_ops = sum(ph["sim"]["settled_ops"] for ph in rounds)
    result["e2e"] = {
        "setup_s": median(ph["setup_s"] for ph in rounds),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": 1.0 - result["failed"] / result["attempted"],
        "offline.ops_per_s": median(ph["completed_per_s"] for ph in rounds),
        "offline.mission_ms_tail": group_tail,
        "sim.us_per_op": sum(ph["sim"]["sim_total_s"] for ph in rounds) / ops * 1e6,
        "sim.settled_us_per_op": (
            sum(ph["sim"]["sim_settled_s"] for ph in rounds) / settled_ops * 1e6
        ),
        "serve.p50_ms": median(ph["p50"] for ph in rounds) * 1e3,
        "serve.max_rps": median(ph["saturated_per_s"] for ph in rounds),
        "durable.acked_writes_per_s": median(ph["puts_per_s"] for ph in rounds),
        "durable.ack_ms_p50": pct(groups, 50) * 1e3,
        "durable.ack_ms_p99": group_tail,
        "durable.recovery_ms": median(ph["restart_s"] for ph in rounds) * 1e3,
        "durable.space_amp": median(ph["space_amp"] for ph in rounds),
    }
    return result
