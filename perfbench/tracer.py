"""Span tracer wired into ``unicollapse`` from outside the package.

Installing a :class:`Tracer` wraps every public module-level function of the
five layers (``cli``, ``envariance``, ``linalg``, ``collapse``,
``grothendieck``) plus a few constructors and methods, and rebinds each wrapped
name in every ``unicollapse.*`` namespace that imported it: ``collapse`` does
``from .linalg import partial_trace``, so patching ``linalg`` alone would miss
those calls.  Uninstalling restores every original binding.

Each call records a span (parent span, name, start, end) in compact arrays
kept in memory until :meth:`Tracer.write`.  Calls, inclusive time and self
time (duration minus the time covered by child spans) are also aggregated
online per name.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "envariance", "linalg", "collapse", "grothendieck")

# (layer, class, method): spans named "<layer>.<class>" for constructors and
# "<layer>.<class>.<method>" otherwise.
METHODS = (
    ("linalg", "StateVector", "__init__"),
    ("linalg", "DensityMatrix", "__init__"),
    ("linalg", "Operator", "unitarity_defect"),
    ("envariance", "WitnessSet", "__init__"),
)

SCHEMA_VALIDATE = "cli.schema_validate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts = {"linalg.max_dense_dim": 0, "envariance.not_envariant": 0}
        self._stack: list[list] = []
        self._last_error = None
        self.not_envariant_traced = False
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import unicollapse.cli as cli
        import unicollapse.envariance as envariance

        error = getattr(envariance, "NotEnvariantError", None)
        self._not_envariant = () if error is None else error
        self.not_envariant_traced = error is not None
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"unicollapse.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name in [m for m in sys.modules
                            if m == "unicollapse" or m.startswith("unicollapse.")]:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                original, traced = wrappers.get(id(value), (None, None))
                if original is value:
                    self._rebind(module, attr, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"unicollapse.{layer}"], cls_name, None)
            if cls is None or method not in vars(cls):
                continue
            name = f"{layer}.{cls_name}" if method == "__init__" else \
                f"{layer}.{cls_name}.{method}"
            self._rebind(cls, method, self._wrap(name, vars(cls)[method]))
        proxy = types.ModuleType(cli.jsonschema.__name__)
        proxy.__dict__.update(vars(cli.jsonschema))
        proxy.validate = self._wrap(SCHEMA_VALIDATE, cli.jsonschema.validate)
        self._rebind(cli, "jsonschema", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        hook = _HOOKS.get(name)
        depth = [0]
        stack, parents, name_ids = self._stack, self.parents, self.name_ids
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            name_ids.append(name_id)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            depth[0] += 1
            started = clock()
            starts.append(started)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._note_error(err)
                raise
            finally:
                finished = clock()
                ends[span] = finished
                stack.pop()
                duration = finished - started
                depth[0] -= 1
                stat[0] += 1
                stat[2] += duration - frame[1]
                if depth[0] == 0:  # a recursive call is inside the outer span
                    stat[1] += duration
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _note_error(self, err: BaseException) -> None:
        # an exception passes through every enclosing span; count it once
        if err is not self._last_error and isinstance(err, self._not_envariant):
            self.counts["envariance.not_envariant"] += 1
        self._last_error = err

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            totals[name.split(".", 1)[0]] += self_s
        return totals

    def write(self, stem: Path, summary: dict) -> None:
        """Write the spans as ``<stem>.spans.npz`` and ``summary`` as JSON."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            stem.with_name(stem.name + ".spans.npz"),
            names=np.array(self.names),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            name=np.frombuffer(self.name_ids, dtype=np.uint16),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
        )
        stem.with_name(stem.name + ".trace.json").write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _dense_dim(counts: dict, dim: int) -> None:
    counts["linalg.max_dense_dim"] = max(counts["linalg.max_dense_dim"], dim)


def _density_hook(counts, args, result):
    dim = args[0].dim
    counts["linalg.DensityMatrix.max_dim"] = max(
        counts.get("linalg.DensityMatrix.max_dim", 0), dim)
    _dense_dim(counts, dim)


def _unitarity_hook(counts, args, result):
    dim = args[0].dim
    key = "linalg.Operator.unitarity_defect.flops"
    counts[key] = counts.get(key, 0) + 8 * dim ** 3  # one complex d x d matmul
    _dense_dim(counts, dim)


def _bulk_hook(counts, args, result):
    key = "grothendieck.pair_equivalent_bulk.elements"
    counts[key] = counts.get(key, 0) + int(np.size(result))


def _curve_hook(counts, args, result):
    key = "collapse.darwinism_curve.fragments"
    counts[key] = counts.get(key, 0) + sum(p.samples for p in result.points)


_HOOKS = {
    "linalg.DensityMatrix": _density_hook,
    "linalg.Operator.unitarity_defect": _unitarity_hook,
    "grothendieck.pair_equivalent_bulk": _bulk_hook,
    "collapse.darwinism_curve": _curve_hook,
}
