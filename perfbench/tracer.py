"""Span recorder that wraps the public functions of the qesp_lab modules.

The recorder works from outside the package: it replaces module and class
attributes with timing wrappers.  That is enough because every caller in the
package resolves its callees at call time (``engine.outbound``,
``wire.parse_ipv4``, ``crypto.encrypt``, ``sa.next_iv`` ...).  Functions that
another module imported by name (``cli`` does ``from .config import
load_config``) are replaced in every namespace that holds them.

Spans are kept in flat in-memory arrays while the traced phase runs and are
turned into self times, and optionally written out, only afterwards.  A
span's self time is its duration minus the durations of its direct children;
the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

MODULES = ("wire", "crypto", "sadb", "engine", "classifier", "netsim", "config", "cli")

# Public methods worth a span of their own.  Small predicates such as
# Ipv4Net.contains stay unwrapped: their time belongs to the rule matching or
# SA lookup that calls them, and wrapping them would swamp the caller.
METHODS = (
    ("crypto", "IvGenerator", "next_iv"),
    ("sadb", "SecurityAssociation", "next_seq"),
    ("sadb", "SecurityAssociation", "next_iv"),
    ("sadb", "SecurityAssociation", "replay_check_and_update"),
    ("sadb", "Sadb", "lookup_by_spi"),
    ("sadb", "Sadb", "lookup_outbound"),
    ("netsim", "EventScheduler", "run"),
)

# Counted, not timed: a span per heap push would move the event loop's own
# work out of its self time.
COUNTED = (("netsim", "EventScheduler", "schedule"),)

RETURNED, RAISED, RETURNED_FALSE = 0, 1, 2


class Tracer:
    """Install with ``with Tracer(modules) as tr:``; every patch is undone on exit."""

    def __init__(self, modules) -> None:
        self._modules = modules
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.outcomes = array("b")
        self._stack = [-1]
        self.marks: list[int] = []  # span index at the start of each pass

    # --- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for short in MODULES:
                mod = getattr(self._modules, short)
                for attr, fn in list(vars(mod).items()):
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and not attr.startswith("_")):
                        self._replace_everywhere(fn, self._span_wrapper(fn, f"{short}.{attr}"))
            for short, cls_name, meth in METHODS:
                cls = getattr(getattr(self._modules, short), cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._span_wrapper(fn, f"{short}.{cls_name}.{meth}"))
            for short, cls_name, meth in COUNTED:
                cls = getattr(getattr(self._modules, short), cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._count_wrapper(fn, f"{short}.{cls_name}.{meth}"))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper) -> None:
        for short in MODULES:
            mod = getattr(self._modules, short)
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- recording ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends, outcomes = (
            self.name_ids, self.parents, self.starts, self.ends, self.outcomes)
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            outcomes.append(RETURNED)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                outcomes[idx] = RAISED
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if result is False:
                outcomes[idx] = RETURNED_FALSE
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self) -> None:
        self.marks.append(len(self.starts))

    # --- analysis -----------------------------------------------------------

    def analyse(self, buckets: dict[str, str]) -> tuple[dict, dict[str, int]]:
        """Per span name: calls, raised, returned_false, total_ns, self_ns;
        and self ns per bucket of ``buckets`` (span name -> bucket).

        A span whose name is not in ``buckets`` joins its parent's bucket when
        the parent belongs to the same module, so engine.extract_ports under
        engine.outbound_qesp counts as outbound work.
        """
        starts, ends, parents, name_ids, outcomes = (
            self.starts, self.ends, self.parents, self.name_ids, self.outcomes)
        n = len(starts)
        self_ns = array("q", bytes(8 * n))
        for i in range(n):
            dur = ends[i] - starts[i]
            self_ns[i] += dur
            p = parents[i]
            if p >= 0:
                self_ns[p] -= dur
        bucket_names = sorted(set(buckets.values()))
        bucket_of = [bucket_names.index(buckets[name]) if name in buckets else -1
                     for name in self.names]
        module_of = [name.split(".", 1)[0] for name in self.names]
        per_name = [[0, 0, 0, 0, 0] for _ in self.names]  # calls raised false total self
        per_bucket = [0] * len(bucket_names)
        span_bucket = array("h", bytes(2 * n))
        for i in range(n):  # parents precede their children
            nid = name_ids[i]
            row = per_name[nid]
            row[0] += 1
            row[3] += ends[i] - starts[i]
            row[4] += self_ns[i]
            if outcomes[i] == RAISED:
                row[1] += 1
            elif outcomes[i] == RETURNED_FALSE:
                row[2] += 1
            bucket = bucket_of[nid]
            p = parents[i]
            if bucket < 0 and p >= 0 and module_of[name_ids[p]] == module_of[nid]:
                bucket = span_bucket[p]
            span_bucket[i] = bucket
            if bucket >= 0:
                per_bucket[bucket] += self_ns[i]
        summary = {name: dict(zip(("calls", "raised", "returned_false", "total_ns", "self_ns"), row))
                   for name, row in zip(self.names, per_name)}
        return summary, dict(zip(bucket_names, per_bucket))

    def write_spans(self, path) -> None:
        """Spans of the last marked pass, one line each: index, parent, name,
        start_ns, end_ns, outcome (0 returned, 1 raised, 2 returned False).
        Only one pass is written, which keeps the file to a few megabytes."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tparent\tname\tstart_ns\tend_ns\toutcome\n")
            names = self.names
            for i in range(self.marks[-1] if self.marks else 0, len(self.starts)):
                f.write(f"{i}\t{self.parents[i]}\t{names[self.name_ids[i]]}\t"
                        f"{self.starts[i]}\t{self.ends[i]}\t{self.outcomes[i]}\n")
