"""Scenario benchmark for unicollapse.

Run from the root of a checkout:

    python3 perfbench/run.py --workload born --seed 1 --seconds 20 --trace 0

Every call goes through ``unicollapse.cli.run(ScenarioConfig(...))`` in a
fresh interpreter started by this script (see ``worker.py``).  With
``--trace 0`` it starts three interpreters in turn: each imports the library
and makes the workload's first call, which times set-up and checks that the
seeded first call gives the same report every time; the last one then runs
the closed-loop timed phase.  With ``--trace 1`` one interpreter runs an
untraced and a traced phase and reports the per-layer metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it gives the details behind it and the machine.  Exits 2 without
a result when a worker fails, for instance when the checkout has no library.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 3
TAIL_BEYOND = 10
BUDGET_S = 170.0  # the whole run, all workers included


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker to completion; return its JSON line plus ``setup_s``."""
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{mode} worker ran past the time budget") from err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    try:
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready_at"] - spawned
    except (ValueError, IndexError, KeyError) as err:
        raise WorkerError(f"{mode} worker printed no result: {err!r}") from err
    return result


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten calls beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    workers = [spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
    workers.append(spawn(args, "timed", deadline))
    timed = workers[-1]
    durations = timed["durations"]
    deterministic = len({w["fingerprint"] for w in workers}) == 1
    first_failures = sum(len(w["first_errors"]) > 0 for w in workers)
    attempted = len(durations) + len(workers)
    failed = timed["errors"] + first_failures
    tail_s, tail_pct = tail(durations)
    metrics = {
        "items_per_s": timed["items_per_s"],
        "call_s.p50": statistics.median(durations),
        "call_s.tail": tail_s,
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "peak_rss_mib": timed["peak_rss_kib"] / 1024,
    }
    units = {"items_per_s": "1/s", "call_s.p50": "s", "call_s.tail": "s",
             "setup_s": "s", "peak_rss_mib": "MiB"}
    details = {
        "item": timed["item"], "items": timed["items"],
        "cycles": len(timed["cycle_rates"]), "elapsed_s": timed["elapsed"],
        "call_s.tail_percentile": tail_pct, "call_s.samples": len(durations),
        "setup_s.samples": [w["setup_s"] for w in workers],
        "failed_ratio": failed / attempted, "deterministic": deterministic,
        "machine": timed["machine"],
    }
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return details, result


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    traced = spawn(args, "traced", deadline)
    attempted = traced["calls"] + 2
    failed = traced["errors"] + len(traced["first_errors"])
    details = {
        "item": traced["item"], "items": traced["items_traced"],
        "spans": traced["spans"], "tracer_self_test": traced["self_test"],
        "failed_ratio": failed / attempted, "machine": traced["machine"],
    }
    result = {
        "correct": failed == 0 and traced["self_test"],
        "attempted": attempted,
        "failed": failed,
        "metrics": traced["metrics"],
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unicollapse scenario benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + BUDGET_S
    try:
        details, result = (traced_run if args.trace else timed_run)(args, deadline)
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
