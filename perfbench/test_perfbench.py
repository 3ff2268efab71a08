"""The benchmark's own determinism tests, on shrunken rounds.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import durable_ingest  # noqa: E402
import missions  # noqa: E402
import serving  # noqa: E402

LSM_COUNTS = (
    "lsm.flushes",
    "lsm.compaction_entries_per_update",
    "lsm.write_amp",
    "lsm.read_pages_per_get",
    "lsm.pages_per_range",
)


def small_shape(name):
    return dataclasses.replace(missions.SHAPES[name], n_missions=20, session_missions=4)


def flat(arrays):
    out = []
    for a in arrays:
        if hasattr(a, "kinds"):
            out += [a.kinds, a.keys, a.values, a.spans]
        elif isinstance(a, list):
            out += flat(a)
        else:
            out.append(np.asarray(a))
    return out


def same(a, b):
    fa, fb = flat(a), flat(b)
    return len(fa) == len(fb) and all(np.array_equal(x, y) for x, y in zip(fa, fb))


@pytest.fixture
def small_durable(monkeypatch):
    monkeypatch.setattr(durable_ingest, "N_RECORDS", 50_000)
    monkeypatch.setattr(durable_ingest, "BATCHES", 600)


@pytest.mark.parametrize("name", sorted(missions.SHAPES))
def test_mission_inputs_follow_the_seed(name):
    shape = small_shape(name)
    assert same(missions.make_inputs(shape, 5), missions.make_inputs(shape, 5))
    assert not same(missions.make_inputs(shape, 5), missions.make_inputs(shape, 6))


def test_serve_inputs_follow_the_seed():
    def inputs(seed):
        keys, values, open_reqs, sat_reqs = serving.make_inputs(seed, 3_000, 2_000)
        return [keys, values,
                [(r.kind, r.key, r.value) for r in open_reqs + sat_reqs]]

    assert same(inputs(5), inputs(5))
    assert not same(inputs(5), inputs(6))


def test_serve_round_completes_and_checks_state(monkeypatch):
    monkeypatch.setattr(serving, "OPEN_REQUESTS", 10 * serving.BURST)
    monkeypatch.setattr(serving, "SATURATED_REQUESTS", 10 * serving.BURST)
    traced = serving.run_round(5, traced=True)
    assert traced["failed"] == 0
    assert 0 < traced["p50"] <= traced["p99"]
    assert traced["saturated_per_s"] > 0
    assert traced["layers"]["serve.batch_size_mean"] > 0


def test_durable_inputs_follow_the_seed(small_durable):
    assert same(durable_ingest.make_inputs(5), durable_ingest.make_inputs(5))
    assert not same(durable_ingest.make_inputs(5), durable_ingest.make_inputs(6))


@pytest.mark.parametrize("name", sorted(missions.SHAPES))
def test_mission_rounds_repeat_bit_identically(name):
    shape = small_shape(name)
    first = missions.run_round(shape, 5, traced=False)
    again = missions.run_round(shape, 5, traced=False)
    traced = missions.run_round(shape, 5, traced=True)
    traced_again = missions.run_round(shape, 5, traced=True)
    assert first["sim"] == again["sim"] == traced["sim"] == traced_again["sim"]
    for key in LSM_COUNTS:
        assert traced["layers"][key] == traced_again["layers"][key], key
    other = missions.run_round(shape, 6, traced=False)
    assert other["sim"] != first["sim"]


def test_durable_rounds_repeat_bit_identically(small_durable, tmp_path):
    work = str(tmp_path)
    first = durable_ingest.run_round(5, work, traced=False)
    again = durable_ingest.run_round(5, work, traced=False)
    traced = durable_ingest.run_round(5, work, traced=True)
    traced_again = durable_ingest.run_round(5, work, traced=True)
    assert first["sim"] == again["sim"] == traced["sim"] == traced_again["sim"]
    for key in ("lsm.flushes", "lsm.compaction_entries_per_update", "lsm.write_amp",
                "durable.fsyncs_per_op", "durable.wal_bytes_per_user_byte",
                "durable.sstable_bytes_per_user_byte"):
        assert traced["layers"][key] == traced_again["layers"][key], key


def test_tail_percentile_leaves_ten_samples_beyond():
    from common import tail_percentile

    for n in (21, 100, 500, 12_345):
        q = tail_percentile(n)
        assert n * (1 - q / 100) >= 10 - 1e-9
    assert tail_percentile(10) == 50.0
