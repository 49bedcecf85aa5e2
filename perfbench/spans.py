"""Spans around pcrank's public functions, recorded from outside the program.

``Tracer.install`` replaces each function named in ``FUNCTIONS`` by a wrapper
that records a span, and rebinds every module-level name in the ``pcrank``
package that refers to the original, so calls made through
``from .matrix import validate`` are caught too.  ``uninstall`` restores the
originals.  Nothing in the program is edited.

A span is ``(name, start, end, parent, call)``: ``parent`` is the index of the
enclosing span (-1 for none) and ``call`` numbers the ``cli.main`` call the
span belongs to, counting from 1 (-1 when it ran outside any).

The tracer tolerates refactors: a listed function that no longer exists is
reported in ``absent``; a call that reached a listed function without passing
its wrapper (say, through a reference kept in a container) is counted by
``audit``; a span outside any ``cli.main`` call is counted as stray.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

#: Layers are named ``<module>.<function>`` after pcrank's modules.
FUNCTIONS = (
    "cli.main",
    "matrix.parse_matrix",
    "matrix.validate",
    "matrix.serialize_matrix",
    "graph.graph_of",
    "graph.laplacian",
    "graph.connected_components",
    "gm.build_system",
    "gm.complete_matrix",
    "lls.build_lls_system",
    "harker.build_harker",
    "linalg.solve",
    "linalg.power_iteration",
    "priority.normalize",
    "metrics.s_star",
    "metrics.ordinal_ranking",
    "metrics.method_report",
)

ROOT = "cli.main"
SOLVER_LAYERS = ("linalg.solve", "linalg.power_iteration")

#: Every per-layer metric with its unit, in report order.
UNITS = {
    **{f"{name}.{kind}": unit
       for name in FUNCTIONS
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    "linalg.share": "ratio",
    "trace.overhead_pct": "%",
    "trace.absent": "count",
    "trace.missed_calls": "count",
    "trace.stray_calls": "count",
}


def _pcrank_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pcrank"]


class Tracer:
    """Spans of the functions in ``FUNCTIONS``, recorded while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, int]] = []
        self.commands: list[str] = []  # subcommand of each cli.main call
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}
        self._calls: Counter = Counter()
        self.absent: list[str] = []
        self._find()

    def _find(self) -> None:
        for name in FUNCTIONS:
            module_name, func_name = name.rsplit(".", 1)
            module = sys.modules.get(f"pcrank.{module_name}")
            func = getattr(module, func_name, None)
            if isinstance(func, types.FunctionType):
                self._originals[name] = func
                self._wrappers[name] = self._wrap(name, func)
            else:
                self.absent.append(name)

    def _wrap(self, name: str, func):
        spans, stack, calls = self.spans, self._stack, self._calls
        clock = time.perf_counter
        is_root = name == ROOT

        @functools.wraps(func)
        def traced(*args, **kwargs):
            calls[name] += 1
            if stack:
                parent, call = stack[-1]
            elif is_root:
                self.commands.append(args[0][0] if args and args[0] else "")
                parent, call = -1, len(self.commands)
            else:
                parent, call = -1, -1
            index = len(spans)
            spans.append(None)
            stack.append((index, call))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, call)

        return traced

    def _rebind(self, mapping: dict[int, object]) -> None:
        for module in _pcrank_modules():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    namespace[attr] = replacement

    def install(self) -> None:
        self._rebind({id(f): self._wrappers[n] for n, f in self._originals.items()})

    def uninstall(self) -> None:
        self._rebind({id(w): self._originals[n] for n, w in self._wrappers.items()})

    def audit(self, run) -> int:
        """Run ``run()`` traced and count calls to listed functions that no
        wrapper saw.  Uses a profile hook, so keep ``run`` small."""
        codes = {f.__code__: n for n, f in self._originals.items()}
        entered: Counter = Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                entered[codes[frame.f_code]] += 1

        before = Counter(self._calls)
        self.install()
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(None)
            self.uninstall()
        wrapped = self._calls - before
        return sum(max(0, entered[n] - wrapped[n]) for n in self._originals)

    def clear(self) -> None:
        self.spans.clear()
        self._calls.clear()
        self.commands.clear()

    def summary(self, scale: list[float]) -> dict:
        """Per ``cli.main`` call: self time and call count of every listed
        function, the solver share of traced time, and stray spans.  Times
        in the k-th ``cli.main`` call are multiplied by ``scale[k - 1]``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, call in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        counts: Counter = Counter()
        root_s = 0.0
        stray = 0
        for index, (name, start, end, parent, call) in enumerate(self.spans):
            factor = scale[call - 1] if call > 0 else 1.0
            self_s[name] += factor * (end - start - child[index])
            counts[name] += 1
            stray += call < 0
            if name == ROOT and parent < 0:
                root_s += factor * (end - start)
        roots = max(1, counts[ROOT])
        metrics = {}
        for name in FUNCTIONS:
            metrics[f"{name}.self_ms"] = 1e3 * self_s[name] / roots
            metrics[f"{name}.calls"] = counts[name] / roots
        solver = sum(self_s[name] for name in SOLVER_LAYERS)
        metrics["linalg.share"] = solver / root_s if root_s else 0.0
        metrics["trace.stray_calls"] = stray
        return metrics

    def calls_per_command(self) -> dict:
        """For each CLI subcommand, the calls of each listed function per
        ``cli.main`` call, leaving out functions it never reached."""
        runs = Counter(self.commands)
        counts: dict = {}
        for name, start, end, parent, call in self.spans:
            if call > 0:
                per = counts.setdefault(self.commands[call - 1], Counter())
                per[name] += 1
        return {cmd: {name: n / runs[cmd] for name, n in per.items()} for cmd, per in counts.items()}

    def write(self, path) -> None:
        """Write the spans as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
