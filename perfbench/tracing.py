"""Call spans recorded around public functions, and self times computed from them.

A :class:`Tracer` wraps functions from outside the program: each call of a
wrapped function records one span (name, start, end, parent span, op id).
Spans live in flat typed arrays, about 28 bytes each, because a traced d=12
walk makes roughly half a million of them per op; they are written out once,
when the run ends (:func:`write_spans`).

:meth:`Tracer.installed` puts the wrappers in place on every module of a
package that binds the function by name (``from .deformed import dp_vrep``
makes a second binding that patching ``deformed`` alone would miss) and
restores the originals on exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

NO_PARENT = -1
NO_OP = -1


class Tracer:
    """In-memory span store plus per-op counters, for one package's targets.

    Targets are '<module>.<function>' or '<module>.<Class>.<method>';
    on_result maps a target to a hook called as hook(tracer, result).
    """

    def __init__(self, package: str, targets: Sequence[str], on_result: dict[str, Callable] | None = None):
        self.package = package
        self.targets = tuple(targets)
        self.on_result = dict(on_result or {})
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.current_op = NO_OP
        self.op_ranges: dict[int, tuple[int, int]] = {}
        self.op_counters: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._op_lo = 0

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self, name: str, fn: Callable, on_result: Callable | None = None
    ) -> Callable:
        """fn with a span per call; on_result(tracer, result) runs after it."""
        nid = self._name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else NO_PARENT)
            ops.append(tracer.current_op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self._op_lo = len(self)
        self.counters = Counter()

    def end_op(self) -> None:
        self.op_ranges[self.current_op] = (self._op_lo, len(self))
        self.op_counters[self.current_op] = self.counters
        self.current_op = NO_OP

    def op_summary(self, op_id: int) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the spans of one op."""
        lo, hi = self.op_ranges[op_id]
        return summarize(self.names, self.name, self.start, self.end, self.parent, lo, hi)

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Wrap each target while the block runs; restore every binding after.

        A module-level function is replaced on every loaded module of the
        package that binds it by name; a method is replaced on its class.
        """
        patches: list[tuple[object, str, object]] = []
        try:
            for target in self.targets:
                owner, attr, original = _resolve(self.package, target)
                wrapped = self.wrap(target, original, self.on_result.get(target))
                if isinstance(owner, type):
                    owners = [(owner, attr)]
                else:
                    owners = [
                        (module, name)
                        for mod_name, module in list(sys.modules.items())
                        if mod_name == self.package or mod_name.startswith(self.package + ".")
                        for name, value in list(vars(module).items())
                        if value is original
                    ]
                for holder, name in owners:
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapped)
            yield self
        finally:
            for holder, name, original in reversed(patches):
                setattr(holder, name, original)


def self_times(
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    lo: int = 0,
    hi: int | None = None,
) -> list[int]:
    """Self time of spans lo..hi-1: duration minus what child spans cover.

    Spans must be in order of start time (the tracer allocates a span's slot
    when the call begins, so index order is start order) and each parent
    must precede its children.  Overlapping or out-of-bounds children are
    clipped, so a covered instant counts once.
    """
    if hi is None:
        hi = len(starts)
    covered = [0] * (hi - lo)
    reach: dict[int, int] = {}
    for i in range(lo, hi):
        p = parents[i]
        if p < lo:
            continue
        begin = max(starts[i], reach.get(p, starts[p]))
        finish = min(ends[i], ends[p])
        if finish > begin:
            covered[p - lo] += finish - begin
            reach[p] = finish
    return [ends[i] - starts[i] - covered[i - lo] for i in range(lo, hi)]


def summarize(names, name_ids, starts, ends, parents, lo, hi) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds) over spans lo..hi-1."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    for offset, own in enumerate(self_times(starts, ends, parents, lo, hi)):
        nid = name_ids[lo + offset]
        calls[nid] += 1
        self_ns[nid] += own
    return {names[nid]: (calls[nid], self_ns[nid] / 1e9) for nid in calls}


def _resolve(package: str, target: str):
    """'module.func' or 'module.Class.method' -> (owner, attribute, original)."""
    parts = target.split(".")
    module = importlib.import_module(f"{package}.{parts[0]}")
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


SPAN_COLUMNS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start_ns", "q"), ("end_ns", "q"))


def write_spans(tracer: Tracer, directory: Path) -> None:
    """spans.bin holds the columns back to back; spans.json says how to read it."""
    directory.mkdir(parents=True, exist_ok=True)
    columns = (tracer.name, tracer.parent, tracer.op, tracer.start, tracer.end)
    with open(directory / "spans.bin", "wb") as fh:
        for column in columns:
            column.tofile(fh)
    meta = {
        "count": len(tracer),
        "byteorder": sys.byteorder,
        "columns": [[name, code, array(code).itemsize] for name, code in SPAN_COLUMNS],
        "names": tracer.names,
        "ops": {str(op): list(bounds) for op, bounds in tracer.op_ranges.items()},
        "parent_none": NO_PARENT,
    }
    (directory / "spans.json").write_text(json.dumps(meta, indent=1) + "\n")
