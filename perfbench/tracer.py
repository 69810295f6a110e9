"""In-memory tracing of the calls a benchmark job makes into hublocate.

The tracer replaces public functions at the module attribute where their
caller bound them (``hublocate.heuristics.land_cost_exact``, not
``hublocate.cost_model.land_cost_exact``), so calls inside the defining
module stay unwrapped and every call from another layer is seen once.
``install`` saves the original attributes and ``uninstall`` puts them back.

Solver, evaluator, I/O and model functions record one span per call:
name, layer, start, end, parent span and job id.  The high-frequency
pricing and split primitives record only a call count and summed time per
thread, because one span per call would mean hundreds of thousands of
spans per job; their times include the wrapper's own cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass
from time import perf_counter

# (module the caller lives in, attribute name, span name).  The layer of
# a span is the part of its name before the first dot.
SPAN_HOOKS = (
    ("cli", "load_instance", "network_model.load"),
    ("cli", "validate_instance", "network_model.validate"),
    ("heuristics", "validate_instance", "network_model.validate"),
    ("exact_oracle", "validate_instance", "network_model.validate"),
    ("milp", "validate_instance", "network_model.validate"),
    ("cli", "evaluate_cost", "solution.evaluate"),
    ("heuristics", "evaluate_cost", "solution.evaluate"),
    ("exact_oracle", "evaluate_cost", "solution.evaluate"),
    ("solution", "check_feasibility", "solution.feasibility"),
    ("heuristics", "check_feasibility", "solution.feasibility"),
    ("milp", "check_feasibility", "solution.feasibility"),
    ("cli", "hub_volume_share", "solution.hub_share"),
    ("cli", "load_solution", "solution.io"),
    ("cli", "save_solution", "solution.io"),
    ("cli", "solve_two_stage", "heuristics.two_stage"),
    ("cli", "local_search_improve", "heuristics.local_search"),
    ("cli", "solve_no_hubs", "heuristics.no_hub"),
    ("cli", "enumerate_optimal", "exact_oracle.enumerate"),
    ("cli", "build_linearized_model", "milp.build"),
    ("cli", "emit_lp", "milp.emit_lp"),
    ("cli", "emit_mps", "milp.emit_mps"),
    ("cli", "parse_values_text", "milp.parse_values"),
    ("cli", "decode_solution", "milp.decode"),
)

COUNTER_HOOKS = (
    ("heuristics", "land_cost_exact", "cost_model.land_exact"),
    ("solution", "land_cost_exact", "cost_model.land_exact"),
    ("solution", "land_cost_approx", "cost_model.land_approx"),
    ("exact_oracle", "land_cost_approx", "cost_model.land_approx"),
    ("heuristics", "sea_cost", "cost_model.sea"),
    ("solution", "sea_cost", "cost_model.sea"),
    ("exact_oracle", "sea_cost", "cost_model.sea"),
    ("milp", "sea_cost", "cost_model.sea"),
    ("heuristics", "land_breakpoints", "cost_model.breakpoints"),
    ("solution", "land_breakpoints", "cost_model.breakpoints"),
    ("exact_oracle", "land_breakpoints", "cost_model.breakpoints"),
    ("milp", "land_breakpoints", "cost_model.breakpoints"),
    ("exact_oracle", "approx_breakpoint_volumes", "cost_model.breakpoint_volumes"),
    ("splits", "approx_breakpoint_volumes", "cost_model.breakpoint_volumes"),
    ("heuristics", "pair_fraction_candidates", "splits.candidates"),
    ("exact_oracle", "subset_sums", "splits.subset_sums"),
    ("splits", "subset_sums", "splits.subset_sums"),
)


def _model_size(model) -> dict:
    return {"milp.variables": len(model.variables), "milp.constraints": len(model.constraints)}


def _text_bytes(text) -> dict:
    return {"milp.mps_bytes": len(text.encode("utf-8"))}


# Span name -> function of the call's result giving sizes to accumulate.
OBSERVERS = {"milp.build": _model_size, "milp.emit_mps": _text_bytes}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Spans and counters for the calls made while a job is active."""

    def __init__(self, keep=()):
        self.spans: list[Span] = []
        self.job: int | None = None
        self.keep = frozenset(keep)  # span names whose arguments and result are kept
        self.kept: list = []  # (job, span name, args, kwargs, result)
        self.sizes: dict = {}
        self.missing: list[str] = []
        self._stacks: dict = {}  # thread ident -> open span ids
        self._cells: dict = {}  # thread ident -> {counter name: [calls, seconds]}
        self._saved: list = []
        self._lock = threading.Lock()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name in SPAN_HOOKS:
            self._patch(module_name, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        for module_name, attr, name in COUNTER_HOOKS:
            self._patch(module_name, attr, lambda fn, name=name: self._counter_wrapper(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, module_name, attr, make) -> None:
        try:
            module = importlib.import_module(f"hublocate.{module_name}")
        except ModuleNotFoundError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"hublocate.{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    def open_span(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(len(self.spans), name, perf_counter(), 0.0, parent, self.job)
            self.spans.append(span)
        stack.append(span.id)
        return span

    def close_span(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def _span_wrapper(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(span)
            if observe is not None:
                for key, value in observe(result).items():
                    self.sizes[key] = self.sizes.get(key, 0) + value
            if name in self.keep:
                self.kept.append((self.job, name, args, kwargs, result))
            return result

        return wrapper

    def _counter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                ident = threading.get_ident()
                cells = self._cells.get(ident)
                if cells is None:
                    cells = self._cells.setdefault(ident, {})
                cell = cells.get(name)
                if cell is None:
                    cell = cells[name] = [0, 0.0]
                cell[0] += 1
                cell[1] += elapsed

        return wrapper

    # -- results ----------------------------------------------------------

    def counters(self) -> dict:
        """Counter name -> (calls, seconds), summed over threads."""
        out: dict = {}
        for cells in list(self._cells.values()):
            for name, (calls, seconds) in cells.items():
                prev = out.get(name, (0, 0.0))
                out[name] = (prev[0] + calls, prev[1] + seconds)
        return out

    def span_totals(self) -> dict:
        """Span name -> (calls, total seconds, self seconds)."""
        children: dict = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: dict = {}
        for span in self.spans:
            duration = span.end - span.start
            inside = covered_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ())
            )
            calls, total, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + duration, own + duration - inside)
        return out

    def dump(self, path) -> None:
        """Write spans and counters as JSON (called once, after the run)."""
        doc = {
            "spans": [
                {"id": s.id, "name": s.name, "layer": s.name.split(".", 1)[0],
                 "start": s.start, "end": s.end, "parent": s.parent, "job": s.job}
                for s in self.spans
            ],
            "counters": {
                k: {"calls": c, "seconds": t} for k, (c, t) in sorted(self.counters().items())
            },
            "sizes": self.sizes,
            "missing_hooks": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
