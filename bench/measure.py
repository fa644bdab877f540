"""Runs a workload for a set time and turns its timings into metrics.

End-to-end metrics come from untraced runs, per-layer metrics from
traced ones; a run is traced in every pass or in none.
"""

import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

from spans import Recorder, span_cost_s, span_totals

SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "pass_s": "s", "embed_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metric -> span names whose inclusive time it sums.
SPAN_TIMES = {
    "mesh.build_s": ("mesh.build_mesh",),
    "mesh.generator_loops_s": ("mesh.generator_loops",),
    "geometry.verify_embedding_s": ("geometry.verify_embedding",),
    "tutte.tutte_map_s": ("tutte.tutte_map",),
    "mvc.mean_value_weights_s": ("mvc.mean_value_weights",),
    "flow.retract_s": ("flow.retract",),
    "morph.morph_s": ("morph.morph",),
    "oneform.index_s": ("oneform.generic_direction_form", "oneform.index_theorem_check"),
    "render.render_svg_s": ("render.render_svg",),
}
# Per-layer metric -> span names whose self time it sums; mesh_from_json
# spends most of its time in build_mesh, which mesh.build_s already has.
SPAN_SELF_TIMES = {
    "serialize.load_s": (
        "serialize.load_json",
        "serialize.mesh_from_json",
        "serialize.weights_from_json",
        "serialize.placement_from_json",
    ),
    "serialize.dump_s": (
        "serialize.dump_json",
        "serialize.mesh_to_json",
        "serialize.weights_to_json",
        "serialize.placement_to_json",
        "serialize.trace_to_jsonl",
    ),
}
LAYERS = (
    "mesh", "geometry", "tutte", "mvc", "flow", "oneform",
    "morph", "fixtures", "serialize", "render", "cli",
)
CLI_COMMANDS = ("gen", "validate", "mvc", "embed", "energy", "index", "render", "retract", "morph")
COUNTS = {
    "flow.accepted_steps": "count",
    "morph.frames": "count",
    "render.svg_bytes": "bytes",
    "serialize.bytes": "bytes",
}
PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    **{name: "s" for name in SPAN_SELF_TIMES},
    "flow.step_s": "s",
    "morph.frame_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **COUNTS,
    "mvc.roundtrip_err": "coord",
    "tutte.energy_floor": "energy",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    rec: Recorder
    results: list  # (op name, Outcome)

    @property
    def seconds(self):
        return sum(seconds for _, seconds in self.rec.ops)


def run(workload, seed, seconds, trace):
    """Set up ``SETUP_REPEATS`` times, then run whole passes for ``seconds``."""
    generate_s = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        workload.setup(seed)
        generate_s.append(perf_counter() - began)

    passes = []
    began = perf_counter()
    while not passes or perf_counter() - began < seconds:
        rec = Recorder()
        if trace:
            rec.start_tracing()
        try:
            results = workload.run_pass(rec)
        finally:
            rec.stop_tracing()
        passes.append(Pass(rec, results))
    return generate_s, passes


def outcome_summary(passes):
    """(attempted, failed, correct, problems) over every op of every pass.

    ``correct`` is false when a check found a wrong output, or when an
    op's output differs between passes on the same inputs.
    """
    attempted = failed = 0
    problems = []
    first = {}
    for k, p in enumerate(passes):
        for position, (name, outcome) in enumerate(p.results):
            attempted += 1
            if outcome.error or outcome.problems:
                failed += 1
            problems += [f"pass {k} {name}: {text}" for text in outcome.problems]
            if outcome.error:
                continue
            if first.setdefault(position, outcome.digest) != outcome.digest:
                problems.append(f"pass {k} {name}: output differs from an earlier pass")
    return attempted, failed, not problems, problems


def end_to_end(workload, setup_s, passes):
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds for p in passes),
        "embed_s": statistics.median(workload.embed_seconds(p) for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_layers(p):
    """Per-layer metrics of one traced pass; 0 for a layer the pass never entered."""
    totals = span_totals(p.rec.spans)

    def summed(names, key):
        return sum(totals[n][key] for n in names if n in totals)

    out = {name: summed(names, "total_s") for name, names in SPAN_TIMES.items()}
    out.update({name: summed(names, "self_s") for name, names in SPAN_SELF_TIMES.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summed([n for n in totals if n.split(".")[0] == layer], "self_s")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = sum(s for name, s in p.rec.ops if name == cmd)
    out.update({name: p.rec.counts.get(name, 0) for name in COUNTS})
    steps, frames = out["flow.accepted_steps"], out["morph.frames"]
    out["flow.step_s"] = out["flow.retract_s"] / steps if steps else 0.0
    out["morph.frame_s"] = out["morph.morph_s"] / frames if frames else 0.0
    stats = [o.stats for _, o in p.results]
    for name, key in (("mvc.roundtrip_err", "roundtrip_err"), ("tutte.energy_floor", "energy_floor")):
        out[name] = max((s[key] for s in stats if key in s), default=0.0)
    return out


def per_layer(passes):
    """Medians over traced passes, and the time their spans added.

    ``trace.overhead_s`` is a pass's span count times the cost of one
    span, timed on a no-op: a difference of traced and untraced pass
    times would be mostly host noise, as a pass makes only a few
    hundred traced calls.
    """
    rows = [pass_layers(p) for p in passes]
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    cost = span_cost_s()
    out["trace.overhead_s"] = statistics.median(len(p.rec.spans) for p in passes) * cost
    return out
