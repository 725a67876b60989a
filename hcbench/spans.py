"""Spans around calls into the public functions of the measured layers.

The tracer replaces a public function at the module attribute its callers
look up (for example hamcompress.compression.automorphism_group, which
hamilton_compression calls) with a wrapper that records a span, and puts
the original back on exit. Private names are never touched, and nothing is
patched in an untraced run. Spans stay in memory, in flat arrays, and are
reduced to per-layer self times and counts when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span). A span's self time is its duration minus the
# time its child spans cover, so the self times of one operation add up to
# its traced wall time.
WRAPPED = (
    ("families", "x_mnr", "families.build"),
    ("families", "generalized_petersen", "families.build"),
    ("families", "petersen", "families.build"),
    ("families", "circulant", "families.build"),
    ("families", "metacirculant_triple_2p", "families.build"),
    ("families", "cayley_p3", "families.build"),
    ("autgroup", "automorphism_group", "autgroup.aut"),
    ("compression", "automorphism_group", "autgroup.aut"),
    ("autgroup", "sem_array", "autgroup.sem"),
    ("autgroup", "regular_subgroups", "autgroup.regular"),
    ("compression", "hamilton_compression", "compression.sweep"),
    ("compression", "cycle_compression", "compression.replay"),
    ("compression", "ham_array", "compression.ham_array"),
    ("compression", "is_automorphism", "compression.rotation_check"),
    ("compression", "find_symmetric_hamcycle", "hamlift.sym_search"),
    ("compression", "find_hamcycle", "hamlift.plain_search"),
    ("hamlift", "quotient_with_voltages", "hamlift.quotient"),
    ("hamlift", "enumerate_hamcycles", "hamlift.enum"),
)


def _count_group(counts: Counter, group) -> None:
    counts["autgroup.elements_listed"] += len(group.elements or ())
    counts["autgroup.capped_groups"] += group.capped


def _count_regular(counts: Counter, subgroups) -> None:
    counts["autgroup.regular_found"] += len(subgroups or ())


def _count_sym(counts: Counter, cycle) -> None:
    counts["hamlift.sym_hits"] += cycle is not None


def _count_enum(counts: Counter, result) -> None:
    counts["hamlift.cycles_enumerated"] += len(result[0])


# Counts read off a span's return value, at the boundary where the work is done.
RESULT_COUNTERS = {
    "autgroup.aut": _count_group,
    "autgroup.regular": _count_regular,
    "hamlift.sym_search": _count_sym,
    "hamlift.enum": _count_enum,
}


class Tracer:
    """In-memory span recorder; spans are only taken while `recording`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, op: int = -1):
        """A span opened by the benchmark itself, e.g. around one operation."""
        self.op = op
        self.recording = True
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.recording = False

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every WRAPPED attribute of the given modules; restore on exit."""
        saved = []
        try:
            for mod_name, attr, span in WRAPPED:
                mod = modules[mod_name]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, span))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def reduce(self) -> tuple[Counter, Counter, Counter]:
        """(self seconds, total seconds, span count), each keyed by span name."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            dur = self.end[i] - self.start[i]
            total_s[name] += dur
            self_s[name] += dur - child[i]
            calls[name] += 1
        return self_s, total_s, calls
