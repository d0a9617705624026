"""Spans around calls into nafkit's public functions, recorded from outside.

The tracer patches module and class attributes of an imported nafkit while
a traced round runs and restores them afterwards, so untraced rounds and
untraced runs execute the library unchanged. Spans (round, name, start,
end, parent) are kept in memory and summarised once the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# (module attribute path, attribute, span name). Module-level functions are
# looked up through their module at call time, so patching the attribute
# reaches every caller inside the package.
_FUNCTIONS = (
    ("nafkit.training", "mle_loss", "training.loss"),
    ("nafkit.training", "energy_loss", "training.loss"),
    ("nafkit.training", "clip_global_norm", "training.clip_global_norm"),
    ("nafkit.diffgraph", "backward", "diffgraph.backward"),
    ("nafkit.transformer", "invert_batch", "transformer.invert_batch"),
    ("nafkit.transformer", "dsf_from_preact", "transformer.dsf_from_preact"),
    ("nafkit.stablemath", "logsumexp_over_axis", "stablemath.logsumexp_over_axis"),
    ("nafkit.cli", "read_data_csv", "cli.read_data_csv"),
    ("nafkit.cli", "write_csv", "cli.write_csv"),
)
_METHODS = (
    ("nafkit.training", "Adam", "step", "training.adam_step"),
    ("nafkit.conditioner", "MadeConditioner", "forward", "conditioner.forward"),
    ("nafkit.flow", "FlowLayer", "forward", "flow.layer_forward"),
    ("nafkit.flow", "FlowLayer", "inverse", "flow.layer_inverse"),
)


def graph_stats(root, parameter_type):
    """Nodes reachable from root, and which of them depend on a Parameter."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents)
    useful = {}
    for node in order:  # parents before children
        useful[id(node)] = isinstance(node, parameter_type) or any(
            useful[id(p)] for p in node.parents
        )
    return order, useful


class Tracer:
    """In-memory span recorder with patch install/uninstall per round."""

    def __init__(self):
        self.on = False
        self.round = -1
        self.spans = []  # [round, name, start_ns, end_ns, parent]
        self.counts = defaultdict(Counter)  # round -> counter
        self.graphs = []  # (nodes, grad_buffers, useful) per traced fit
        self._open = []
        self._patches = []
        self._want_graph = False

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([self.round, name, time.perf_counter_ns(), 0, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][3] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return traced

    # -- layer-specific wrappers -----------------------------------------

    def _wrap_invert_batch(self, fn, range_error):
        tracer = self

        def traced(y, forward, *args, **kwargs):
            if not tracer.on:
                return fn(y, forward, *args, **kwargs)
            counts = tracer.counts[tracer.round]
            evals = [0]

            def counted(t):
                evals[0] += 1
                counts["invert_entries"] += int(np.size(t))
                return forward(t)

            tracer.begin("transformer.invert_batch")
            try:
                out = fn(y, counted, *args, **kwargs)
            except range_error:
                counts["invert_raised"] += 1
                raise
            finally:
                tracer.end()
            counts["invert_returned"] += 1
            counts["invert_returned_evals"] += evals[0]
            return out

        return traced

    def _wrap_logsumexp(self, fn):
        tracer = self

        def traced(a, axis):
            if not tracer.on:
                return fn(a, axis)
            tracer.counts[tracer.round]["lse_bytes"] += np.asarray(a).nbytes
            tracer.begin("stablemath.logsumexp_over_axis")
            try:
                return fn(a, axis)
            finally:
                tracer.end()

        return traced

    def _wrap_backward(self, fn, parameter_type):
        tracer = self

        def traced(root):
            if not tracer.on:
                return fn(root)
            nodes = useful = None
            if tracer._want_graph:  # first step of each traced round
                nodes, useful = graph_stats(root, parameter_type)
            tracer.begin("diffgraph.backward")
            try:
                out = fn(root)
            finally:
                tracer.end()
            if nodes is not None:
                tracer._want_graph = False
                buffers = sum(1 for n in nodes if n.grad is not None)
                tracer.graphs.append((len(nodes), buffers, sum(useful.values())))
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, modules, instances=()):
        """Patch the imported nafkit; instances are (object, attr, span name)."""
        flow = modules["nafkit.flow"]
        self._want_graph = True
        for mod_name, attr, name in _FUNCTIONS:
            mod = modules.get(mod_name)
            if mod is None:
                continue
            fn = getattr(mod, attr)
            if attr == "invert_batch":
                wrapped = self._wrap_invert_batch(fn, modules["nafkit.errors"].RangeError)
            elif attr == "logsumexp_over_axis":
                wrapped = self._wrap_logsumexp(fn)
            elif attr == "backward":
                wrapped = self._wrap_backward(fn, modules["nafkit.diffgraph"].Parameter)
            else:
                wrapped = self._wrap(name, fn)
            self._patch(mod, attr, wrapped)
        for mod_name, cls_name, attr, name in _METHODS:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        load = flow.FlowStack.__dict__["load"].__func__
        self._patch(flow.FlowStack, "load",
                    classmethod(self._wrap("flow.FlowStack.load", load)))
        for obj, attr, name in instances:
            self._patch(obj, attr, self._wrap(name, getattr(obj, attr)))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_round(self, index, modules, instances=()):
        self.round = index
        self.install(modules, instances)
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self.uninstall()

    # -- summary -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,round,parent,name,start_ns,end_ns\n")
            for i, (rnd, name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{rnd},{parent},{name},{t0},{t1}\n")

    def layer_metrics(self):
        """Per-layer figures: per-call percentiles, and per-round medians."""
        rounds = sorted({s[0] for s in self.spans} | set(self.counts))
        child_ns = defaultdict(int)
        top = []  # the outermost span around each span: one benchmark op
        for i, (_, _, t0, t1, parent) in enumerate(self.spans):
            top.append(i if parent < 0 else top[parent])
            if parent >= 0:
                child_ns[parent] += t1 - t0
        per_round = {r: defaultdict(float) for r in rounds}
        per_call = defaultdict(list)
        loss_starts = defaultdict(list)
        for i, (rnd, name, t0, t1, _) in enumerate(self.spans):
            ms = (t1 - t0) / 1e6
            agg = per_round[rnd]
            agg[name + ".calls"] += 1
            agg[name + ".ms"] += ms
            agg[name + ".self_ms"] += ms - child_ns[i] / 1e6
            per_call[name].append(ms)
            if name == "training.loss":
                loss_starts[top[i]].append(t0)
        step_ms = [
            (b - a) / 1e6
            for starts in loss_starts.values()
            for a, b in zip(starts[:-1], starts[1:])
        ]

        def round_median(key):
            return statistics.median(per_round[r][key] for r in rounds) if rounds else 0.0

        def count_median(key):
            return statistics.median(self.counts[r][key] for r in rounds) if rounds else 0

        evals = sum(c["invert_returned_evals"] for c in self.counts.values())
        inverts = sum(c["invert_returned"] for c in self.counts.values())
        graph = self.graphs[0] if self.graphs else (0, 0, 0)
        return {
            "diffgraph.backward.ms_p50": _pct(per_call["diffgraph.backward"], 50),
            "diffgraph.backward.ms_p99": _pct(per_call["diffgraph.backward"], 99),
            "diffgraph.graph_nodes": graph[0],
            "diffgraph.grad_buffers": graph[1],
            "diffgraph.useful_grad_ratio": graph[2] / graph[1] if graph[1] else 0.0,
            "training.step.ms_p50": _pct(step_ms, 50),
            "training.step.ms_p99": _pct(step_ms, 99),
            "training.loss.ms": round_median("training.loss.ms"),
            "training.adam_step.ms": round_median("training.adam_step.ms"),
            "training.clip_global_norm.ms": round_median("training.clip_global_norm.ms"),
            "conditioner.forward.calls": round_median("conditioner.forward.calls"),
            "conditioner.forward.ms": round_median("conditioner.forward.ms"),
            "flow.layer_forward.self_ms": round_median("flow.layer_forward.self_ms"),
            "flow.layer_inverse.self_ms": round_median("flow.layer_inverse.self_ms"),
            "transformer.dsf_from_preact.ms": round_median("transformer.dsf_from_preact.ms"),
            "transformer.invert_batch.calls": round_median("transformer.invert_batch.calls"),
            "transformer.invert_batch.ms": round_median("transformer.invert_batch.ms"),
            "transformer.invert_batch.evals_per_call": evals / inverts if inverts else 0.0,
            "transformer.invert_batch.entry_evals": count_median("invert_entries"),
            "transformer.invert_batch.raised": count_median("invert_raised"),
            "stablemath.logsumexp_over_axis.calls":
                round_median("stablemath.logsumexp_over_axis.calls"),
            "stablemath.logsumexp_over_axis.self_ms":
                round_median("stablemath.logsumexp_over_axis.self_ms"),
            "stablemath.logsumexp_over_axis.mb_in": count_median("lse_bytes") / 1e6,
            "targets.log_density.ms": round_median("targets.log_density.ms"),
            "cli.read_data_csv.ms": round_median("cli.read_data_csv.ms"),
            "cli.write_csv.ms": round_median("cli.write_csv.ms"),
            "flow.FlowStack.load.ms": round_median("flow.FlowStack.load.ms"),
        }, {
            "graphs_per_fit": self.graphs,
            "samples": {name: len(v) for name, v in sorted(per_call.items())},
        }


def _pct(values, q):
    """Nearest-rank percentile; 0.0 when the layer was not called."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]
