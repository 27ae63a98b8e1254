"""Outside-in tracing of the library's public functions.

The library is not edited.  Each traced function is replaced, in every
``threshmax`` module that holds it by name, with a wrapper that records a
span; ``Graph`` and ``LimitThreshold`` are traced through their ``__init__``
on the class, so ``isinstance`` keeps working.  Name-level patching matters
because ``optimize`` binds ``limit_density``, ``hom_count_blocks`` and the
like at import.

Per function the tracer keeps the call count and the self time: the span's
duration minus the spans of traced functions it called directly.  Spans
themselves are kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

# (module, public name), in the order the metrics are reported
TRACED = (
    ("graphs", "Graph"),
    ("graphs", "connected_components"),
    ("graphs", "induced"),
    ("homcount", "hom_count"),
    ("homcount", "hom_count_hyper"),
    ("threshold", "LimitThreshold"),
    ("threshold", "limit_density"),
    ("threshold", "limit_edge_density"),
    ("threshold", "hom_count_blocks"),
    ("threshold", "chromatic_polynomial"),
    ("moves", "thresholdize"),
    ("moves", "local_move"),
    ("moves", "hyper_thresholdize"),
    ("moves", "hyper_local_move"),
    ("optimize", "limit_search"),
    ("optimize", "search_threshold_max"),
    ("optimize", "search_all_max"),
    ("optimize", "all_graphs_up_to_iso"),
)

NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# fields per span in the flat span buffer
SPAN_FIELDS = ("span", "parent", "function", "query", "start_ns", "end_ns")
# spans kept in memory; later ones are only counted
SPAN_CAP = 200_000


class Tracer:
    """Span recorder with per-function call counts and self time."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.explored = {"optimize.limit_search": 0, "optimize.search_threshold_max": 0}
        self.useful_moves = 0
        self.query = -1
        self.spans = array("q")
        self.spans_dropped = 0
        self._next_id = 0
        # one [span id, child ns] frame per open traced call
        self._stack: list[list[int]] = []

    def wrap(self, index: int, fn):
        """Return fn wrapped so each call is recorded under NAMES[index]."""
        name = NAMES[index]
        stack = self._stack
        spans = self.spans
        hook = {
            "optimize.limit_search": self._on_search,
            "optimize.search_threshold_max": self._on_search,
            "moves.local_move": self._on_local_move,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_ns[index] += duration - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(spans) < SPAN_CAP * len(SPAN_FIELDS):
                    spans.extend((span, parent, index, self.query, start, end))
                else:
                    self.spans_dropped += 1
            if hook is not None:
                hook(name, result)
            return result

        return traced

    def _on_search(self, name: str, result) -> None:
        self.explored[name] += result.explored

    def _on_local_move(self, name: str, result) -> None:
        if result[1] > 0:
            self.useful_moves += 1

    def install(self) -> None:
        """Patch every traced name in every loaded threshmax module."""
        importlib.import_module("threshmax.cli")
        modules = [m for n, m in sys.modules.items() if n == "threshmax" or n.startswith("threshmax.")]
        for index, (mod, attr) in enumerate(TRACED):
            original = getattr(importlib.import_module(f"threshmax.{mod}"), attr)
            if isinstance(original, type):
                original.__init__ = self.wrap(index, original.__init__)
                continue
            wrapped = self.wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics as {name: {"value", "unit"}}, every one present
        even when zero."""
        out: dict[str, dict] = {}

        def put(name: str, value, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        for index, name in enumerate(NAMES):
            put(f"{name}.calls", self.calls[index], "count")
            put(f"{name}.self_s", self.self_ns[index] / 1e9, "s")
        for name, total in self.explored.items():
            put(f"{name}.explored", total, "count")
        searches = self.calls[NAMES.index("optimize.limit_search")]
        densities = self.calls[NAMES.index("threshold.limit_edge_density")]
        put(
            "optimize.limit_search.edge_density_per_query",
            densities / searches if searches else 0.0,
            "calls/query",
        )
        moves = self.calls[NAMES.index("moves.local_move")]
        put("moves.local_move.useful_ratio", self.useful_moves / moves if moves else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """Write the kept spans as tab-separated lines, one per span."""
        width = len(SPAN_FIELDS)
        with open(path, "w") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for i in range(0, len(self.spans), width):
                row = list(self.spans[i : i + width])
                row[2] = NAMES[row[2]]
                fh.write("\t".join(map(str, row)) + "\n")
            if self.spans_dropped:
                fh.write(f"# {self.spans_dropped} spans beyond the cap of {SPAN_CAP} not kept\n")
