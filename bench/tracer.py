"""In-memory span tracer for the benchmark's traced runs.

The tracer lives entirely in the benchmark: ``Tracer.install`` rebinds
public modmaj functions to timing wrappers in every modmaj module
namespace that binds them by name, so ``modmaj.modular.amod_by_qhook`` and
``modmaj.cli.amod_by_character_formula`` are wrapped along with the
defining module's copy.  Each span records its name, start, end, span id
(its index) and parent id; spans stay in compact arrays until the run
dumps them.  ``self_times`` turns a span list into per-name call counts,
inclusive time and self time (duration minus the part of the interval
the span's children cover).

Pool workers started by fork inherit the wrappers, but their spans and
cache counters stay in the worker processes: a traced ``--jobs 2`` run
shows only what the parent process does.
"""

import contextlib
import functools
import pickle
import sys
import time
from array import array

# (span name, defining module, attribute, kind).  "span" times every call,
# "eager" times a generator function by draining it inside the span,
# "count" only counts calls (used where a span per call would cost more
# than the work it measures).  Several attributes may share one span name.
PROBES = (
    ("partitions.partitions_of", "modmaj.partitions", "partitions_of", "eager"),
    ("partitions.hook_lengths", "modmaj.partitions", "hook_lengths", "span"),
    ("partitions.dimension", "modmaj.partitions", "dimension", "span"),
    ("partitions.ell_core", "modmaj.partitions", "ell_core", "span"),
    ("partitions.removable_ribbons", "modmaj.partitions", "removable_ribbons", "count"),
    ("numtheory.ramanujan_sum", "modmaj.numtheory", "ramanujan_sum", "span"),
    ("numtheory.factorize", "modmaj.numtheory", "factorize", "count"),
    ("tableaux.amod_by_enumeration", "modmaj.tableaux", "amod_by_enumeration", "span"),
    ("qpoly.amod_by_qhook", "modmaj.qpoly", "amod_by_qhook", "span"),
    ("qpoly.exact_divide", "modmaj.qpoly", "exact_divide", "span"),
    ("characters.rect_character", "modmaj.characters", "rect_character", "span"),
    ("characters.rect_character_sign", "modmaj.characters", "rect_character_sign", "span"),
    ("characters.mn_character", "modmaj.characters", "mn_character", "span"),
    ("modular.amod_by_character_formula", "modmaj.modular", "amod_by_character_formula", "span"),
    ("modular.parallel_map", "modmaj.modular", "parallel_map", "eager"),
    ("modular.bound_checks", "modmaj.modular", "fl_bound_check", "span"),
    ("modular.bound_checks", "modmaj.modular", "fl_log_bound", "span"),
    ("modular.bound_checks", "modmaj.modular", "equidistribution_check", "span"),
    ("modular.bound_checks", "modmaj.modular", "dist_check", "span"),
    ("modular.bound_checks", "modmaj.modular", "phi_d_check", "span"),
    ("modular.bound_checks", "modmaj.modular", "n_cubed_criterion", "span"),
    ("modular.bound_checks", "modmaj.modular", "binomial_lower_bound_check", "span"),
    ("cli.main", "modmaj.cli", "main", "span"),
)


class Tracer:
    """Records nested spans and call counters for one traced sweep."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager recording one span around a block."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, kind: str = "span"):
        """A wrapper of fn that records a span (or a count) per call."""
        if kind == "count":
            counters = self.counters
            key = name + ".calls"
            counters.setdefault(key, 0)

            def wrapper(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

        elif kind == "eager":

            def wrapper(*args, **kwargs):
                sid = self._open(name)
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    self._close(sid)
                return iter(items)

        else:

            def wrapper(*args, **kwargs):
                sid = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(sid)

        return functools.update_wrapper(wrapper, fn)

    def wrap_pool(self, pool_factory):
        """Wrap a Pool factory to count pools and time each one's first result."""
        counters = self.counters
        counters.setdefault("modular.pools_opened", 0)
        counters.setdefault("modular.pool_first_result_s", 0.0)

        def traced_pool(*args, **kwargs):
            opened = time.perf_counter()
            pool = pool_factory(*args, **kwargs)
            counters["modular.pools_opened"] += 1
            imap = pool.imap

            def first_result_imap(*a, **k):
                first = True
                for item in imap(*a, **k):
                    if first:
                        counters["modular.pool_first_result_s"] += time.perf_counter() - opened
                        first = False
                    yield item

            pool.imap = first_result_imap
            return pool

        return traced_pool

    def install(self) -> None:
        """Rebind every probed function (and the modular Pool) in all modmaj modules."""
        for name, module, attr, kind in PROBES:
            original = getattr(sys.modules.get(module), attr, None)
            if original is not None:
                rebind(original, self.wrap(name, original, kind))
        pool = getattr(sys.modules.get("modmaj.modular"), "Pool", None)
        if pool is not None:
            rebind(pool, self.wrap_pool(pool))

    def dump(self, path: str) -> None:
        """Write the names table and span arrays to path (pickle of arrays)."""
        with open(path, "wb") as fh:
            pickle.dump(
                {"names": self.names, "name": self.name, "parent": self.parent,
                 "start": self.start, "end": self.end},
                fh,
            )


def rebind(original, replacement) -> None:
    """Replace every module-level binding of original in modmaj modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "modmaj" or mod_name.startswith("modmaj.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def self_times(labels, parent, start, end) -> dict:
    """Per span label (name or name id): calls, inclusive seconds and self seconds.

    Spans are ordered by start (ids increase with start), children lie
    inside their parent, and a span's self time is its duration minus the
    union of its children's intervals clipped to it.  One pass in id order
    keeps only the open ancestors on a stack.
    """
    out: dict = {}
    # stack entries: [span id, covered seconds, end of covered prefix]
    stack: list[list] = []

    def finish(entry):
        sid, covered, _ = entry
        dur = end[sid] - start[sid]
        stats = out.setdefault(labels[sid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["total_s"] += dur
        stats["self_s"] += dur - covered

    for sid in range(len(start)):
        while stack and stack[-1][0] != parent[sid]:
            finish(stack.pop())
        if stack:
            top = stack[-1]
            lo = max(start[sid], start[top[0]], top[2])
            hi = min(end[sid], end[top[0]])
            if hi > lo:
                top[1] += hi - lo
                top[2] = hi
        stack.append([sid, 0.0, start[sid]])
    while stack:
        finish(stack.pop())
    return out


def durations(labels, label, start, end) -> list[float]:
    """Inclusive durations of every span with the given label, in seconds."""
    return [end[i] - start[i] for i in range(len(start)) if labels[i] == label]
