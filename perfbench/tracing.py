"""In-memory span tracing of saddlenet's public functions and methods.

The traced pass replaces public names of the library by timing wrappers.
A function is patched in every ``saddlenet`` module namespace that holds
it (``from .core import operator_F`` makes ``solvers.operator_F`` a
second place it is looked up); a method is patched on its class. Names
that no longer exist are recorded as absent with the reason, so the
library can rename or delete them without breaking the benchmark.

Each call becomes one span ``(name, start, end, parent)``. Per name the
tracer keeps the call count, the self time (span time minus the time of
its child spans) and the inclusive time of the outermost span of that
name (a product projection that calls factor projections counts once).
"""

import functools
import os
import sys
import time

# (span name, module under saddlenet, attribute path)
TARGETS = (
    ("graphs.lap_apply", "graphs", "NetworkGraph.lap_apply"),
    ("graphs.build", "graphs", "ring"),
    ("graphs.build", "graphs", "random_connected"),
    ("graphs.lambda_max", "graphs", "lambda_max"),
    ("sets.project", "sets", "WholeSpace.project"),
    ("sets.project", "sets", "Box.project"),
    ("sets.project", "sets", "Ball.project"),
    ("sets.project", "sets", "Product.project"),
    ("sets.sample_points", "sets", "sample_points"),
    ("core.operator_F", "core", "operator_F"),
    ("core.check_monotone", "core", "check_monotone"),
    ("core.estimate_kappa", "core", "estimate_kappa"),
    ("solvers.run", "solvers", "run"),
    ("solvers.diagnostics", "solvers", "delta_diagnostic"),
    ("solvers.diagnostics", "solvers", "eg_contraction_check"),
    ("solvers.diagnostics", "solvers", "RunTrace.rate_certificate"),
    ("consensus.step", "consensus", "step_consensus_ogda"),
    ("consensus.step", "consensus", "step_consensus_eg"),
    ("consensus.simulate", "consensus", "simulate_consensus"),
    ("allocation.step", "allocation", "step_allocation_ogda"),
    ("allocation.step", "allocation", "step_allocation_eg"),
    ("allocation.simulate", "allocation", "simulate_allocation"),
    ("allocation.lagrangian", "allocation", "lagrangian_L2"),
    ("network.exchange", "network", "Network.exchange"),
    ("network.run", "network", "ConsensusNetworkSimulator.run"),
    ("network.run", "network", "AllocationNetworkSimulator.run"),
    ("oracle.kkt", "oracle", "solve_allocation_kkt"),
    ("oracle.consensus_reference", "oracle", "solve_consensus_reference"),
    ("oracle.finite_diff", "oracle", "finite_diff_check"),
    ("harness.csv", "solvers", "RunTrace.to_csv"),
    ("harness.csv", "consensus", "ConsensusTrace.to_csv"),
    ("harness.csv", "allocation", "AllocationTrace.to_csv"),
)

# the public run loops; their self time is the loop's own overhead
LOOP_SPANS = ("solvers.run", "consensus.simulate", "allocation.simulate")


def _count_exchange(tracer, args, kwargs, inboxes):
    # messages delivered and their payload sizes (computed from the
    # arrays' sizes, not measured on a wire)
    tracer.counters["network.messages"] += sum(len(box) for box in inboxes)
    tracer.counters["network.payload_bytes"] += sum(
        getattr(part, "nbytes", 0)
        for box in inboxes for payload in box.values() for part in payload)


def _count_csv(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.counters["harness.csv.bytes"] += os.path.getsize(path)


AFTER = {"network.exchange": _count_exchange, "harness.csv": _count_csv}
COUNTERS = ("network.messages", "network.payload_bytes", "harness.csv.bytes")


class Tracer(object):
    """Span recorder with per-name call counts, self and inclusive times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.kept = None
        self.calls = []
        self.self_s = []
        self.incl_s = []
        self._depth = []
        self._stack = [-1]
        self._child = [0.0]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for acc, zero in ((self.calls, 0), (self.self_s, 0.0),
                              (self.incl_s, 0.0), (self._depth, 0)):
                acc.append(zero)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return `fn` wrapped so that each call records one span."""
        nid = self._name_id(name)
        after = AFTER.get(name)
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s, incl_s, depth = (self.calls, self.self_s,
                                        self.incl_s, self._depth)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                dur = end - start
                child[-1] += dur
                depth[nid] -= 1
                if depth[nid] == 0:
                    incl_s[nid] += dur
                self_s[nid] += dur - inner
                calls[nid] += 1
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def begin_op(self):
        """Start an operation: zero the per-name totals and drop its spans.

        The spans of the first operation are kept for `write`; later
        operations only update the totals, which bounds memory.
        """
        if self.spans and self.kept is None:
            self.kept = list(self.spans)
        del self.spans[:]
        for acc in (self.calls, self.self_s, self.incl_s):
            acc[:] = [type(v)() for v in acc]
        for key in self.counters:
            self.counters[key] = 0

    def totals(self):
        """Per-name ``calls``, ``self_s`` and ``s`` (inclusive) since `begin_op`."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".self_s"] = self.self_s[nid]
            out[name + ".s"] = self.incl_s[nid]
        out.update(self.counters)
        return out

    def write(self, path):
        """Write the first operation's spans as ``name,start,end,parent`` rows.

        `parent` is the row index of the enclosing span, -1 at the top.
        """
        spans = self.spans if self.kept is None else self.kept
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for nid, start, end, parent in spans:
                fh.write("%s,%.9f,%.9f,%d\n"
                         % (self.names[nid], start, end, parent))


class Patches(object):
    """Install tracing wrappers over the library's public names.

    Use as a context manager; leaving it restores every original.
    """

    def __init__(self, tracer, extra=()):
        self.tracer = tracer
        self.extra = list(extra)
        self.absent = {}
        self._undo = []

    def _setattr(self, owner, key, value):
        old = getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def _setitem(self, holder, key, value):
        old = holder[key]
        holder[key] = value
        self._undo.append(lambda: holder.__setitem__(key, old))

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "saddlenet" or n.startswith("saddlenet.")]
        for span, modname, attr in TARGETS:
            module = sys.modules.get("saddlenet." + modname)
            label = "saddlenet.{}.{}".format(modname, attr)
            if module is None:
                self.absent.setdefault(span, label + ": module not loaded")
                continue
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, leaf):
                self.absent.setdefault(span, label + ": name no longer exists")
                continue
            original = getattr(owner, leaf)
            wrapper = self.tracer.wrap(span, original)
            if owner_name:
                self._setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._setattr(mod, key, wrapper)
        for span, holder, key in self.extra:
            self._setitem(holder, key, self.tracer.wrap(span, holder[key]))
        # a span wrapped elsewhere satisfies an absent alternative
        for span in list(self.absent):
            if span in self.tracer.names:
                del self.absent[span]
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False
