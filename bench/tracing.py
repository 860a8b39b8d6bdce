"""In-memory span recording around calls into posefuse's layers.

The traced run replaces the module attributes that callers look up at
call time with span recorders, so the package itself is not edited.
Untraced runs install no wrapper.

A span is ``[name, start_ns, end_ns, parent, op, size]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` is the
benchmark operation that was running (-1 during set-up) and ``size`` is
the number of frames or records the call handled (1 for per-call
functions).
"""

from __future__ import annotations

import contextlib
import csv
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


def _len_arg0(args, result):
    return len(args[0])


def _len_arg1(args, result):
    return len(args[1])


def _len_result(args, result):
    return len(result)


# (module, attribute, span name, size function).  Both absolute_pose_error
# entries share one span name: the CLI and align_and_evaluate each call
# the same metrics function through their own module globals.
PATCHES = (
    ("posefuse.cli", "run_sequence", "fusion.run_sequence", _len_arg0),
    ("posefuse.cli", "parse_sequence", "io.parse_sequence", _len_result),
    ("posefuse.cli", "write_sequence", "io.write_sequence", _len_arg1),
    ("posefuse.cli", "generate_gt", "synth.generate_gt", _len_result),
    ("posefuse.cli", "simulate_vio", "synth.simulate_vio", _len_arg0),
    ("posefuse.cli", "simulate_apr", "synth.simulate_apr", _len_arg0),
    ("posefuse.cli", "align_and_evaluate", "metrics.align_and_evaluate", _len_arg0),
    ("posefuse.cli", "summarize_errors", "metrics.summarize_errors", _len_arg0),
    ("posefuse.cli", "relative_errors", "metrics.relative_errors", _len_arg0),
    ("posefuse.cli", "absolute_pose_error", "metrics.absolute_pose_error", None),
    ("posefuse.metrics", "absolute_pose_error", "metrics.absolute_pose_error", None),
    ("posefuse.fusion", "compute_reference", "fusion.compute_reference", None),
    ("posefuse.fusion", "optimize_pose", "fusion.optimize_pose", None),
    ("posefuse.fusion", "odometry", "geometry.odometry", None),
)


_SIZE = {name: size for _, _, name, size in PATCHES}


class Recorder:
    """Collects spans in memory; ``op`` is set by the caller before each
    benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, size = self.spans, self._stack, _SIZE.get(name)

        def recorder(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return recorder

    @contextlib.contextmanager
    def installed(self):
        """Swap every PATCHES attribute for a recorder, restoring the
        originals on exit."""
        saved = []
        try:
            for module_name, attr, name, _ in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, first_pass_ops: int) -> dict[str, dict[str, float]]:
        """Per span name: total and self time (us), calls, handled size,
        and the call count within ops ``0 .. first_pass_ops - 1``."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, size in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"us": 0.0, "self_us": 0.0, "calls": 0, "size": 0, "first_pass_calls": 0}
        )
        for i, (name, start, end, parent, op, size) in enumerate(self.spans):
            entry = out[name]
            entry["us"] += (end - start) / 1e3
            entry["self_us"] += (end - start - child_ns[i]) / 1e3
            entry["calls"] += 1
            entry["size"] += size
            if 0 <= op < first_pass_ops:
                entry["first_pass_calls"] += 1
        return out

    def write_csv(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent", "op", "size"])
            for i, span in enumerate(self.spans):
                writer.writerow([i, *span])
