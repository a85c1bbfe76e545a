"""One benchmark interpreter: import the library, make the workload's first
call, and, depending on ``--mode``, run a timed phase or a traced run.

``run.py`` starts this script in fresh interpreters and reads the single JSON
line it prints.  Modes:

* ``setup``: the first call only, so the parent can time start-up.
* ``timed``: the first call, then a closed-loop phase of ``--seconds``.
* ``traced``: the first call untraced and traced (their reports must agree),
  then an untraced and a traced phase of ``--seconds / 2`` each.

The library is imported from ``src/`` of the checkout this script sits in and
from nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_CALLS = 11  # call_s.tail needs a call with ten calls beyond it
MAX_ERRORS_SHOWN = 3

# Per-layer metrics: target span -> stats reported for it.  "calls", "s"
# (inclusive) and "self_s" come from the spans; the rest are counts the
# tracer's hooks compute.  All but the *max_dim figures are per workload item.
TRACED_STATS = {
    "collapse.global_entropy": ("calls", "s"),
    "linalg.DensityMatrix": ("calls", "s", "max_dim"),
    "envariance.undo_on_n": ("calls", "s", "self_s"),
    "envariance.WitnessSet": ("calls",),
    "collapse.born_from_envariance": ("self_s",),
    "linalg.Operator.unitarity_defect": ("calls", "s", "flops"),
    "collapse.bleach": ("self_s",),
    "collapse.recover": ("self_s",),
    "collapse.controlled_shift_gate": ("calls", "s"),
    "collapse.fourier_matrix": ("calls",),
    "linalg.distance": ("calls", "s"),
    "linalg.partial_trace": ("calls", "self_s"),
    "linalg.entropy": ("calls", "s"),
    "collapse.darwinism_curve": ("self_s", "fragments"),
    "collapse.premeasure": ("self_s",),
    "cli.run": ("calls", "self_s"),
    "cli.schema_validate": ("s",),
    "grothendieck.pair_equivalent_bulk": ("calls", "s", "elements"),
    "grothendieck.group_add": ("calls", "s"),
    "grothendieck.pair_equivalent": ("calls", "s"),
    "grothendieck.element": ("calls", "s"),
    "envariance.pair_equivalent": ("calls", "s"),
    "envariance.symmetry_witness": ("s",),
    "envariance.transitivity_witness": ("s",),
    "envariance.sample_chain": ("s",),
    "linalg.StateVector": ("calls", "s"),
}
_SPAN_STATS = {"calls": (0, "1/item"), "s": (1, "s/item"), "self_s": (2, "s/item")}
_COUNT_UNITS = {"max_dim": "dim", "flops": "flop/item", "elements": "1/item",
                "fragments": "1/item"}


@dataclass
class Phase:
    durations: list = field(default_factory=list)
    cycle_rates: list = field(default_factory=list)  # items/s of each cycle
    items: int = 0
    errors: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def items_per_s(self) -> float:
        """Median over cycles, so a stall of a few seconds moves it little."""
        return statistics.median(self.cycle_rates)


def run_call(call, cli) -> tuple[float, list, int, str | None]:
    """Time one call; return (seconds, reports, items, error or None)."""
    pairs = []
    started = time.perf_counter()
    try:
        for cfg in call.configs:
            pairs.append(cli.run(cfg))
    except Exception:
        return time.perf_counter() - started, [], 0, traceback.format_exc()
    took = time.perf_counter() - started
    reports = [report for report, _ in pairs]
    try:
        for cfg, (report, code) in zip(call.configs, pairs):
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            if code != 0 or failing or not report["passed"]:
                return took, reports, 0, (f"{cfg.scenario}: exit {code}, "
                                          f"failed checks {failing}")
        error = call.oracle(reports)
        return took, reports, (0 if error else call.items(reports)), error
    except (KeyError, IndexError, TypeError) as err:
        return took, reports, 0, f"malformed report: {err!r}"


def timed_phase(calls, cycle: int, seconds: float, cli) -> Phase:
    """Closed loop: the next call starts when the previous one returns."""
    phase = Phase()
    started = cycle_started = time.perf_counter()
    cycle_items = 0
    while True:
        took, _, items, error = run_call(next(calls), cli)
        phase.durations.append(took)
        phase.items += items
        cycle_items += items
        if error is not None:
            phase.errors.append(error)
        now = time.perf_counter()
        phase.elapsed = now - started
        done = len(phase.durations)
        if done % cycle == 0:
            phase.cycle_rates.append(cycle_items / (now - cycle_started))
            cycle_started, cycle_items = now, 0
            if phase.elapsed >= seconds and done >= MIN_CALLS:
                return phase


def per_layer(tracer, phase: Phase, untraced: Phase) -> dict:
    items = phase.items or 1
    metrics = {}
    for target, stats in TRACED_STATS.items():
        if target not in tracer.stats:  # the traced name no longer exists
            continue
        for stat in stats:
            if stat in _SPAN_STATS:
                index, unit = _SPAN_STATS[stat]
                value = tracer.stats[target][index] / items
            else:
                unit = _COUNT_UNITS[stat]
                value = tracer.counts.get(f"{target}.{stat}", 0)
                if unit != "dim":
                    value /= items
            metrics[f"{target}.{stat}"] = {"value": value, "unit": unit}
    if {"linalg.DensityMatrix", "linalg.Operator.unitarity_defect"} & set(tracer.stats):
        metrics["linalg.max_dense_dim"] = {
            "value": tracer.counts["linalg.max_dense_dim"], "unit": "dim"}
    if tracer.not_envariant_traced:
        metrics["envariance.not_envariant"] = {
            "value": tracer.counts["envariance.not_envariant"] / items,
            "unit": "1/item"}
    for layer, self_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = {"value": self_s / items, "unit": "s/item"}
    metrics["trace.spans"] = {"value": len(tracer.starts) / items, "unit": "1/item"}
    if untraced.items_per_s:  # zero only when every untraced call failed
        metrics["trace.overhead_ratio"] = {
            "value": phase.items_per_s / untraced.items_per_s, "unit": "ratio"}
    return metrics


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, when it can be asked."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _show_errors(errors: list) -> None:
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"perfbench: failed call: {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    args = parser.parse_args(argv)

    if not (SRC / "unicollapse" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import unicollapse
    import unicollapse.cli as cli
    from tracer import Tracer
    from workloads import WORKLOADS, fingerprint

    if Path(unicollapse.__file__).resolve().parent != SRC / "unicollapse":
        print(f"perfbench: imported {unicollapse.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    calls = workload.calls(args.seed)
    first = next(calls)
    _, reports, _, error = run_call(first, cli)
    out = {
        "ready_at": time.monotonic(),
        "fingerprint": hashlib.sha256(fingerprint(reports).encode()).hexdigest(),
        "first_errors": [] if error is None else [error],
    }

    if args.mode == "timed":
        phase = timed_phase(calls, workload.cycle, args.seconds, cli)
        out.update(durations=phase.durations, items=phase.items,
                   items_per_s=phase.items_per_s, cycle_rates=phase.cycle_rates,
                   elapsed=phase.elapsed, errors=len(phase.errors),
                   peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   machine=machine(), item=workload.item)
        _show_errors(phase.errors)
    elif args.mode == "traced":
        with Tracer():
            _, traced_reports, _, traced_error = run_call(first, cli)
        if traced_error is not None:
            out["first_errors"].append(traced_error)
        out["self_test"] = fingerprint(traced_reports) == fingerprint(reports)
        # both phases run the same calls from the start of the sequence
        calls = workload.calls(args.seed)
        next(calls)
        untraced = timed_phase(calls, workload.cycle, args.seconds / 2, cli)
        calls = workload.calls(args.seed)
        next(calls)
        tracer = Tracer()
        with tracer:
            traced = timed_phase(calls, workload.cycle, args.seconds / 2, cli)
        metrics = per_layer(tracer, traced, untraced)
        out.update(metrics=metrics, calls=len(untraced.durations) + len(traced.durations),
                   errors=len(untraced.errors) + len(traced.errors),
                   machine=machine(), item=workload.item,
                   items_traced=traced.items, spans=len(tracer.starts))
        tracer.write(OUT / f"{args.workload}-seed{args.seed}", {
            "workload": args.workload, "seed": args.seed, "items": traced.items,
            "machine": out["machine"], "metrics": metrics,
            "stats": {name: {"calls": c, "s": s, "self_s": own}
                      for name, (c, s, own) in tracer.stats.items()},
            "counts": tracer.counts,
        })
        _show_errors(untraced.errors + traced.errors)
    _show_errors(out["first_errors"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
