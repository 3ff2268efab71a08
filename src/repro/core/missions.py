"""Mission execution against a storage engine.

:class:`MissionRunner` applies a :class:`~repro.workload.spec.Mission` to
any :class:`~repro.engine.base.KVEngine` (a single LSM/FLSM tree or a
:class:`~repro.engine.sharded.ShardedStore`) and returns its
:class:`~repro.lsm.stats.MissionStats`. Operations are processed in
*chunks*: inside a chunk, updates are applied in their original order as
one vectorized ``put_batch``, point lookups are then resolved as one
vectorized ``get_batch``, and range lookups as one vectorized
``range_scan_batch`` (bit-identical in cost and op accounting to per-op
``range_lookup`` calls in chunk order — see :mod:`repro.lsm.rangepath`).
``chunk_size=1`` degenerates to exact serial execution; larger chunks
reorder lookups against updates by at most one chunk, which leaves the cost
statistics of random workloads unchanged (tests verify serial and chunked
runs agree) while making the large benchmarks an order of magnitude faster.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.lsm.stats import MissionStats
from repro.workload.spec import OP_LOOKUP, OP_RANGE, OP_UPDATE, Mission


class MissionRunner:
    """Executes missions on a storage engine with configurable chunking."""

    def __init__(self, engine, chunk_size: int = 64) -> None:
        if chunk_size < 1:
            raise WorkloadError(f"chunk_size must be >= 1, got {chunk_size}")
        self.engine = engine
        self.chunk_size = chunk_size

    def run(self, mission: Mission) -> MissionStats:
        """Execute ``mission`` and return its statistics."""
        engine = self.engine
        engine.begin_mission()
        n = len(mission)
        for start in range(0, n, self.chunk_size):
            stop = min(start + self.chunk_size, n)
            self._run_chunk(mission, start, stop)
        return engine.end_mission()

    def _run_chunk(self, mission: Mission, start: int, stop: int) -> None:
        kinds = mission.kinds[start:stop]
        keys = mission.keys[start:stop]
        spans = mission.spans[start:stop]
        engine = self.engine
        updates = kinds == OP_UPDATE
        if updates.any():
            engine.put_batch(keys[updates], mission.values[start:stop][updates])
        lookups = kinds == OP_LOOKUP
        if lookups.any():
            engine.get_batch(keys[lookups])
        ranges = kinds == OP_RANGE
        if ranges.any():
            los = keys[ranges]
            engine.range_scan_batch(
                los, los + np.maximum(spans[ranges] - 1, 0)
            )
