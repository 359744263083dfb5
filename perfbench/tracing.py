"""Layer timing for the benchmark's traced runs.

The tracer replaces module attributes of ``ucqaoa`` with timing wrappers,
from outside the package: each wrapper is installed on the attribute its
caller actually resolves at call time (``hybrid.qubo_diagonal``, not
``qubo.qubo_diagonal``, because ``hybrid`` imported the name).  Nothing
under ``src/`` is edited.

Every wrapped call adds to its layer's aggregate (calls, total time, self
time, work count).  Layers called rarely also keep one span per call:
name, start, end, parent span and the trace id of the solve it belongs
to.  Hot layers (10^3 to 10^5 calls per pass) keep aggregates only.

A layer whose attribute has disappeared is reported as absent and the
run goes on; the untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _rows(args, kwargs, out) -> int:
    return len(out)


def _amp_updates(args, kwargs, out) -> int:
    return len(out) * int(math.log2(len(out)))


def _enumerated_rows(args, kwargs, out) -> int:
    return 1 << args[0].n


@dataclass(frozen=True)
class Layer:
    """One traced layer: the metric prefix, every ``module.attr`` callers
    resolve for it, whether it keeps per-call spans, and an optional work
    counter computed from each call's arguments and result."""

    name: str
    targets: tuple[str, ...]
    spans: bool = False
    work: Optional[tuple[str, Callable]] = None


CALLBACK = Layer("hybrid.callback", ())  # the snapshot callback run_hybrid hands nelder_mead

LAYERS = (
    Layer("hybrid.run_hybrid", ("hybrid.run_hybrid",), spans=True),
    Layer("neldermead.nelder_mead", ("hybrid.nelder_mead",), spans=True),
    CALLBACK,
    Layer("hybrid.objective", ("hybrid.objective",)),
    Layer("qubo.build_qubo", ("hybrid.build_qubo",)),
    Layer("qubo.qubo_diagonal", ("hybrid.qubo_diagonal",), work=("entries", _rows)),
    Layer("qaoa.qaoa_distribution", ("qaoa.qaoa_distribution",)),
    Layer("qaoa.apply_cost_phase", ("qaoa.apply_cost_phase",)),
    Layer("qaoa.apply_mixer", ("qaoa.apply_mixer",), work=("amp_updates", _amp_updates)),
    Layer("metrics.compute_snapshot", ("metrics.compute_snapshot",), spans=True),
    Layer("dispatch.near_optimal_set", ("hybrid.near_optimal_set",), spans=True),
    Layer("dispatch.enumerate_all", ("dispatch.enumerate_all",), spans=True,
          work=("rows", _enumerated_rows)),
    Layer("baseline.solve", ("baseline.solve_approx",), spans=True),
    Layer("baseline.node_lower_bound", ("baseline.node_lower_bound",)),
    Layer("dispatch.economic_dispatch",
          ("baseline.economic_dispatch", "dispatch.economic_dispatch")),
    Layer("dispatch.dispatch_within_boxes",
          ("baseline.dispatch_within_boxes", "dispatch.dispatch_within_boxes")),
)


class Tracer:
    """Span and aggregate recorder for one process.

    ``stats`` maps a layer name to ``[calls, total_s, self_s, work]``,
    where work is None for a layer without a work counter.
    Self time is a call's duration minus the time spent in traced calls
    made directly from it.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.trace_id = 0
        self._stack: list[list] = []  # per open call: [child_s, span_id]
        self._span_ids = 0

    def reset(self) -> None:
        """Start a new pass: zero the aggregates (spans are kept)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0, 0 if entry[3] is not None else None]

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        name, keep_spans, work = layer.name, layer.spans, layer.work
        self.stats.setdefault(name, [0, 0.0, 0.0, 0 if work else None])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            if keep_spans:
                self._span_ids += 1
                span_id = self._span_ids
            else:
                span_id = parent_id
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if keep_spans:
                    self.spans.append((span_id, parent_id, self.trace_id, name, start, end))
            if work is not None and entry[3] is not None:
                try:
                    entry[3] += work[1](args, kwargs, out)
                except (AttributeError, IndexError, TypeError, ValueError):
                    entry[3] = None  # the call no longer has the shape counted
                    self.absent.append(f"{name}.{work[0]}")
            return out

        return traced

    def install(self) -> None:
        """Wrap every layer's targets; record layers none of whose targets exist."""
        for layer in LAYERS:
            found = False
            for target in layer.targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"ucqaoa.{module_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self.wrap(layer, fn))
                found = True
            if layer.targets and not found:
                self.absent.append(layer.name)
        if "neldermead.nelder_mead" in self.absent:
            self.absent.append(CALLBACK.name)
        else:
            self._wrap_callback()

    def _wrap_callback(self) -> None:
        """Time the snapshot callback so nelder_mead's self time is the
        simplex alone.  The callback is a closure, so it is wrapped where
        run_hybrid passes it in."""
        module = importlib.import_module("ucqaoa.hybrid")
        traced_nm = module.nelder_mead
        self.stats.setdefault(CALLBACK.name, [0, 0.0, 0.0, None])

        @functools.wraps(traced_nm)
        def nelder_mead(*args, **kwargs):
            if kwargs.get("callback") is not None:
                kwargs["callback"] = self.wrap(CALLBACK, kwargs["callback"])
            return traced_nm(*args, **kwargs)

        module.nelder_mead = nelder_mead
