#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mission-dynamic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, in turn

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the rounds untraced and half traced on the same
inputs and reports the per-layer metrics, with the tracing overhead. Every
run checks the program's outputs against a model of its inputs and exits
non-zero, without a result, when they disagree or when a workload is not
in the regime it claims. The last line of standard output is the result
as one JSON object; the line before it is the environment fingerprint.
Spans of the last traced round are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = (
    "mission-dynamic",
    "mission-zipf-range-4shard",
    "serve-zipf-open",
    "durable-ingest",
)


def log(line: str) -> None:
    print(f"# {line}", flush=True)


def run_workload(spec, name: str, seed: int, seconds: int, trace: bool) -> int:
    sys.path[:0] = [HERE, SRC]
    from common import (
        CorrectnessError,
        RegimeError,
        cpu_ticks,
        emit,
        fingerprint,
        steal_share,
    )

    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    try:
        if name.startswith("mission-"):
            import missions

            result = missions.run(name, seed, seconds, trace, log)
        elif name == "serve-zipf-open":
            import serving

            result = serving.run(name, seed, seconds, trace, log)
        else:
            import durable_ingest

            work_dir = os.path.join(WORK, f"durable-{os.getpid()}")
            try:
                result = durable_ingest.run(name, seed, seconds, trace, log, work_dir)
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
    except RegimeError as exc:
        print(f"perfbench: regime guard failed: {exc}", file=sys.stderr)
        return 3
    except CorrectnessError as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        return 4

    if trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured = result["layers"]
        unknown = set(measured) - set(declared)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        # A layer the workload bypasses does no work: its metrics read 0.
        values = {key: float(measured.get(key, 0.0)) for key in declared}
        result["spans"].dump(os.path.join(WORK, f"spans-{name}.jsonl"))
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(result["e2e"]) != set(declared):
            raise KeyError(
                f"end-to-end metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['e2e']) ^ set(declared))}"
            )
        values = {key: float(result["e2e"][key]) for key in declared}
    for key, value in values.items():
        print(f"{name}  {key:<40} {value:>16.6g} {declared[key]}")
    env = fingerprint(seed, result["sizes"])
    env["loadavg_before"] = [round(x, 2) for x in load_before]
    env["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    env["cpu_steal_share"] = round(steal_share(ticks_before, cpu_ticks()), 4)
    env["workload"] = name
    env["trace"] = int(trace)
    emit({"env": env})
    emit({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            key: {"value": value, "unit": declared[key]} for key, value in values.items()
        },
    })
    return 0


def run_all(spec, seed: int, seconds: int, trace: bool) -> int:
    """Every workload of ``BENCHMARK.json`` in its own process (peak
    memory is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    if status == 0:
        print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(spec, args.seed, seconds, bool(args.trace))
    return run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
