"""Shared pieces of the benchmark: percentiles, the span recorder that
traces calls from outside the program, and the environment fingerprint.

Nothing here changes what the program computes. The span recorder only
replaces bound methods on live objects with timing wrappers (instance
attributes shadow the class methods) and puts the originals back when the
traced round ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np


class RegimeError(RuntimeError):
    """A workload is not in the regime it claims; no numbers are reported."""


class CorrectnessError(RuntimeError):
    """The program's outputs disagree with the benchmark's model."""


def tail_percentile(n_samples: int) -> float:
    """The highest percentile (in steps of 0.1) that leaves at least ten
    samples beyond it, or the median when the sample is too small."""
    if n_samples <= 20:
        return 50.0
    return max(50.0, np.floor((1.0 - 10.0 / n_samples) * 1000.0) / 10.0)


def pct(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` (0..100) of ``values``; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> List[int]:
    """The machine's cumulative CPU ticks from ``/proc/stat`` (empty where
    there is none); the eighth value is time stolen by the hypervisor."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the machine's CPU time stolen between two readings."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total else 0.0


def fingerprint(seed: int, sizes: Dict[str, object]) -> Dict[str, object]:
    """The environment a result was measured in."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }


def run_rounds(n_rounds: int, trace: bool, run_round: Callable[[int, bool], dict],
               sim_keys: Sequence[str] = ()):
    """The rounds of one run, as ``(untraced, traced)`` lists.

    Untraced, ``n_rounds`` rounds. Traced, half as many pairs, each round
    run untraced and then traced on the same inputs (so a traced run lasts
    as long as an untraced one); the pair must agree on every simulated
    result named in ``sim_keys``.
    """
    if not trace:
        return [run_round(r, False) for r in range(n_rounds)], []
    rounds, traced_rounds = [], []
    for r in range(max(1, n_rounds // 2)):
        plain, traced = run_round(r, False), run_round(r, True)
        changed = [k for k in sim_keys if plain["sim"][k] != traced["sim"][k]]
        if changed:
            raise CorrectnessError(f"tracing changed simulated results: {changed}")
        rounds.append(plain)
        traced_rounds.append(traced)
    return rounds, traced_rounds


def layer_medians(traced_rounds: List[dict]) -> Dict[str, float]:
    """Each per-layer metric's median over the traced rounds."""
    return {
        key: median(rd["layers"][key] for rd in traced_rounds)
        for key in traced_rounds[0]["layers"]
    }


def _release_free_memory() -> None:
    """Return the C allocator's free memory to the OS (glibc only)."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def restart_s(make_engine: Callable[[], object], keys, values,
              repeats: int = 25) -> float:
    """Median wall time for an in-memory store to serve again after a
    restart: a fresh engine bulk-loaded with the live records it held.

    A restarted process starts with an empty heap, so each rebuild is
    given fresh memory: the allocator's free memory goes back to the OS
    first. Without that, the same rebuild took 0.3 to 0.9 ms depending on
    what the workload had allocated and freed before it.
    """
    times = []
    for _ in range(repeats):
        _release_free_memory()
        t0 = perf_counter()
        engine = make_engine()
        engine.bulk_load(keys, values)
        times.append(perf_counter() - t0)
        del engine
    return median(times)


def first_last_writes(keys: np.ndarray, values: np.ndarray):
    """For a write sequence, the distinct keys and each one's last value."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    rev_keys = keys[::-1]
    uniq, first_in_rev = np.unique(rev_keys, return_index=True)
    return uniq, values[::-1][first_in_rev]


@contextlib.contextmanager
def frozen_setup():
    """Keep the collector off the objects set-up built.

    The benchmark pre-builds its inputs (hundreds of thousands of objects
    for the serving workload) in the program's process; a real client
    would hold them elsewhere. Freezing them stops full collections from
    rescanning them mid-measurement, which would charge the program with
    pauses the harness caused.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def io_delta(fn: Callable, io, field: str, counters: Dict[str, int], key: str):
    """``fn`` wrapped to add the change of ``io.<field>`` across each call
    to ``counters[key]`` (a count taken at the call's boundary)."""

    def call(*args):
        before = getattr(io, field)
        try:
            return fn(*args)
        finally:
            counters[key] += getattr(io, field) - before

    return call


class ChangeCounter:
    """A tree change observer (``LSMTree.set_change_observer``) counting
    memtable flushes and the entries written into installed runs."""

    def __init__(self) -> None:
        self.flushes = 0
        self.entries_installed = 0

    def run_installed(self, level_no, run, replaced_run_id) -> None:
        self.entries_installed += run.n_entries

    def runs_dropped(self, level_no, run_ids) -> None:
        pass

    def flush_completed(self) -> None:
        self.flushes += 1


class Spans:
    """In-memory span recorder.

    Each record is ``(span_id, name, start, end, parent_id, tag, size)``:
    ``parent_id`` is the innermost span open on the same thread when the
    span began (``-1`` for a root), ``tag`` the mission, window or batch the
    call belongs to, and ``size`` the keys or ranges the call carried.
    Spans stay in memory until :meth:`dump` writes them out.
    """

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.tag = -1
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_callable(
        self,
        fn: Callable,
        name: str,
        size: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``; ``size`` maps
        the call's arguments to a work count."""
        records = self.records
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            with self._id_lock:
                span_id = self._next_id
                self._next_id += 1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                n = size(*args) if size is not None else 0
                records.append((span_id, name, start, end, parent, self.tag, n))

        return wrapper

    def shadow(self, obj, method: str, fn: Callable) -> None:
        """Replace ``obj.method`` with ``fn`` until :meth:`unwrap_all`."""
        if method in vars(obj):
            original = vars(obj)[method]
            self._restore.append(lambda: setattr(obj, method, original))
        else:
            self._restore.append(lambda: delattr(obj, method))
        setattr(obj, method, fn)

    def wrap(self, obj, method: str, name: str, size=None) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper until
        :meth:`unwrap_all`."""
        self.shadow(obj, method, self.wrap_callable(getattr(obj, method), name, size))

    def patch_module(self, module, attr: str, name: str, size=None, inner=None):
        """Wrap a module-level function (one a class calls through its
        module's namespace) until :meth:`unwrap_all`; ``inner`` replaces
        the original inside the span."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap_callable(inner or original, name, size))
        self._restore.append(lambda: setattr(module, attr, original))

    def on_unwrap(self, undo: Callable[[], None]) -> None:
        """Run ``undo`` when the wrappers come off."""
        self._restore.append(undo)

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis -------------------------------------------------------
    def by_name(self, name: str) -> List[tuple]:
        return [r for r in self.records if r[1] == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = {}
        for _sid, _, start, end, parent, _, _ in self.records:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {
            r[0]: (r[3] - r[2]) - child.get(r[0], 0.0) for r in self.records
        }

    def total(self, name: str) -> float:
        return float(sum(r[3] - r[2] for r in self.records if r[1] == name))

    def total_size(self, name: str) -> int:
        return int(sum(r[6] for r in self.records if r[1] == name))

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r[1] == name)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for sid, name, start, end, parent, tag, n in self.records:
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "tag": tag, "size": n}
                    )
                    + "\n"
                )


def emit(line: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
