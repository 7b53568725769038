"""Span tracing of nnbisim from outside the package.

Every public function defined in a layer module, plus
Network.forward_batch, is wrapped. The wrapper is installed by replacing
every attribute of every loaded nnbisim.* module (and every class attribute
there) that *is* the original function object, so a later change that moves
an import or re-exports a name is still traced.

A span records (function, start, end, span id, parent span id, amount),
where amount is a per-function work count (rows, bytes, cells, stars, LP
feasibility). Spans opened on a worker thread with an empty stack take the
innermost open span of the benchmark's thread as their parent, which is
the call that submitted them. Self time is a span's duration minus the
union of its children's intervals.
"""

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "formats", "merge", "bisim", "safety", "interval", "star",
          "lp", "network", "norms")

# Work counts recorded as a span's amount.
AMOUNTS = {
    "network.forward_batch": lambda args, result: len(args[1]),
    "formats.parse_nnet": lambda args, result: len(args[0]),
    "formats.parse_json_net": lambda args, result: len(args[0]),
    "formats.parse_problem": lambda args, result: len(args[0]),
    "interval.reach_box_split": lambda args, result: len(result),
    "star.reach_stars": lambda args, result: len(result),
    "lp.lp_feasible": lambda args, result: int(bool(result)),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.records = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack = []
        self._patches = []
        self._wrapped = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        amount = AMOUNTS.get(name)
        records = self.records
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_stack
                parent = owner[-1] if owner else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
            records.append((idx, t0, t1, sid, parent,
                            amount(args, result) if amount else 0))
            return result
        return traced

    def _build(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"nnbisim.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        network = importlib.import_module("nnbisim.network")
        fb = network.Network.__dict__["forward_batch"]
        wrapped[id(fb)] = (fb, self._wrap("network.forward_batch", fb))
        return wrapped

    def install(self):
        """Wrap every traced function wherever nnbisim holds a reference."""
        if self._wrapped is None:
            self._wrapped = self._build()
        wrapped = self._wrapped
        for modname, mod in list(sys.modules.items()):
            if modname != "nnbisim" and not modname.startswith("nnbisim."):
                continue
            owners = [mod] + [c for c in vars(mod).values()
                              if inspect.isclass(c) and c.__module__ == modname]
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    hit = wrapped.get(id(val))
                    if hit is not None and hit[0] is val:
                        self._patches.append((owner, attr, val))
                        setattr(owner, attr, hit[1])
        # Keep self._local's stack of this thread as the parent source for
        # spans opened by worker threads.
        self._owner_stack = self._stack()

    def uninstall(self):
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches = []

    def take(self):
        """Return and clear the spans recorded since the last call."""
        recs = self.records[:]
        del self.records[:len(recs)]
        return recs


def _union_ns(intervals):
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def summarize(names, recs):
    """Per-function calls, self ns and amount for one op's spans, plus the
    op's summed self time and whether spans overlapped in time."""
    children = defaultdict(list)
    for idx, t0, t1, sid, parent, amt in recs:
        children[parent].append((t0, t1))
    per = defaultdict(lambda: [0, 0, 0])
    self_sum = 0
    for idx, t0, t1, sid, parent, amt in recs:
        kids = children.get(sid)
        self_ns = (t1 - t0) - (_union_ns(kids) if kids else 0)
        acc = per[names[idx]]
        acc[0] += 1
        acc[1] += self_ns
        acc[2] += amt
        self_sum += self_ns
    roots = children.get(0, [])
    parallel = (sum(b - a for a, b in roots) > _union_ns(roots)
                or any(sum(b - a for a, b in kids) > _union_ns(kids)
                       for kids in children.values()))
    return per, self_sum, parallel
