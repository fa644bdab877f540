"""Op timing and span tracing, all from outside the package.

A :class:`Recorder` times each benchmark op. When tracing is on, it
also replaces every reference to the traced public functions inside the
``torustutte`` modules with a wrapper that records a span (name, start,
end, parent) with ``perf_counter_ns``, plus counts taken from the
call's arguments or result. The originals are restored when tracing
stops, so an untraced pass runs the unmodified package.
"""

import contextlib
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import torustutte
import torustutte.cli
import torustutte.serialize


def _svg_bytes(args, result):
    return {"render.svg_bytes": len(result.encode())}


def _text_bytes(args, result):
    return {"serialize.bytes": len(result.encode())}


def _file_bytes(args, result):
    return {"serialize.bytes": os.path.getsize(args[0])}


# (span name, function, count extractor or None). Span names are
# "<layer>.<function>"; the layer is the package module.
TRACED = [
    ("mesh.build_mesh", torustutte.build_mesh, None),
    ("mesh.generator_loops", torustutte.generator_loops, None),
    ("geometry.verify_embedding", torustutte.verify_embedding, None),
    ("tutte.tutte_map", torustutte.tutte_map, None),
    ("tutte.balance_energy", torustutte.balance_energy, None),
    ("mvc.mean_value_weights", torustutte.mean_value_weights, None),
    ("mvc.check_balanced", torustutte.check_balanced, None),
    ("flow.retract", torustutte.retract,
     lambda args, r: {"flow.accepted_steps": r.steps}),
    ("morph.morph", torustutte.morph, lambda args, r: {"morph.frames": len(r)}),
    ("morph.verify_morph", torustutte.verify_morph, None),
    ("oneform.generic_direction_form", torustutte.generic_direction_form, None),
    ("oneform.index_theorem_check", torustutte.index_theorem_check, None),
    ("fixtures.gen_grid", torustutte.gen_grid, None),
    ("fixtures.perturb", torustutte.perturb, None),
    ("render.render_svg", torustutte.render_svg, _svg_bytes),
    ("serialize.load_json", torustutte.serialize.load_json, _file_bytes),
    ("serialize.dump_json", torustutte.serialize.dump_json, _text_bytes),
    ("serialize.trace_to_jsonl", torustutte.serialize.trace_to_jsonl, _text_bytes),
    ("serialize.mesh_from_json", torustutte.serialize.mesh_from_json, None),
    ("serialize.mesh_to_json", torustutte.serialize.mesh_to_json, None),
    ("serialize.weights_from_json", torustutte.serialize.weights_from_json, None),
    ("serialize.weights_to_json", torustutte.serialize.weights_to_json, None),
    ("serialize.placement_from_json", torustutte.serialize.placement_from_json, None),
    ("serialize.placement_to_json", torustutte.serialize.placement_to_json, None),
    ("cli.main", torustutte.cli.main, None),
]


class Recorder:
    """Op wall times for one pass, and spans when tracing is on."""

    def __init__(self):
        self.ops = []  # (op name, seconds)
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def op(self, name):
        """Time one op; its span is the root of the spans it causes."""
        start = perf_counter_ns()
        idx = self._open(f"op.{name}") if self._patched else None
        try:
            yield
        finally:
            end = perf_counter_ns()
            if idx is not None:
                self._close(idx, start, end)
            self.ops.append((name, (end - start) / 1e9))

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, perf_counter_ns())
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def start_tracing(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "torustutte"]
        for name, fn, count in TRACED:
            wrapper = self._wrap(name, fn, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def stop_tracing(self):
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)
        self._patched = []


def span_totals(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which is the part of its interval no child covers.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), children in zip(spans, child_ns):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - children) / 1e9
    return dict(totals)


def span_cost_s():
    """Seconds one span adds to a call: a wrapped no-op against a bare one.

    Each figure is the fastest of five timings of 10 000 calls, the usual
    way to take a microbenchmark on a noisy host.
    """
    calls, repeats = 10000, 5

    def noop():
        return None

    def fastest(fn):
        times = []
        for _ in range(repeats):
            rec.spans.clear()
            began = perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(perf_counter_ns() - began)
        return min(times)

    rec = Recorder()
    wrapped = rec._wrap("noop", noop, None)
    return max(fastest(wrapped) - fastest(noop), 0) / calls / 1e9
