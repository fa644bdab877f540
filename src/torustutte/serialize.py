"""JSON and JSONL readers and writers for every artifact type.

All serializers round-trip exactly: floats are written with Python's
shortest round-trip repr, integers stay integers, and parsers rebuild
bit-identical values. Mesh documents list one orientation per edge and
omit zero shifts; parsers fill the rest by antisymmetry.
"""

import json

import numpy as np

from .errors import ShiftConflictError
from .flow import FlowSample, FlowTrace
from .geometry import Placement
from .mesh import build_mesh
from .tutte import weights_from_dict


def dump_json(obj, path=None):
    """Canonical JSON text (sorted keys, 2-space indent, trailing newline)."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def mesh_to_json(mesh):
    src, dst = mesh.directed_edges.T
    keep = (src < dst) & mesh.shifts.any(axis=1)
    return {
        "vertex_count": mesh.vertex_count,
        "faces": mesh.faces.tolist(),
        "shifts": np.column_stack([mesh.directed_edges, mesh.shifts])[keep].tolist(),
    }


def mesh_from_json(doc):
    """Rebuild a mesh; duplicate shift rows for one directed edge are rejected."""
    shifts = {}
    for i, j, bx, by in doc.get("shifts", []):
        key = (int(i), int(j))
        if key in shifts:
            raise ShiftConflictError(f"duplicate shift entry for edge {key}")
        shifts[key] = (int(bx), int(by))
    return build_mesh(doc["faces"], shifts, vertex_count=doc.get("vertex_count"))


def weights_to_json(mesh, weights):
    return {
        "weights": [
            [i, j, w]
            for (i, j), w in zip(mesh.directed_edges.tolist(), weights.values.tolist())
        ]
    }


def weights_from_json(mesh, doc):
    entries = {}
    for i, j, w in doc["weights"]:
        key = (int(i), int(j))
        if key in entries:
            raise ValueError(f"duplicate weight entry for edge {key}")
        entries[key] = float(w)
    return weights_from_dict(mesh, entries)


def placement_to_json(placement):
    return {"coords": placement.coords.tolist()}


def placement_from_json(doc):
    return Placement(doc["coords"])


def trace_to_jsonl(trace, path=None):
    """One JSON record per accepted flow state, weights in canonical order."""
    lines = []
    for s in trace.samples:
        lines.append(
            json.dumps(
                {
                    "t": s.t,
                    "energy": s.energy,
                    "min_weight": s.min_weight,
                    "asym_bound": s.asym_bound,
                    "weights": [float(w) for w in s.weights],
                },
                sort_keys=True,
                allow_nan=False,
            )
        )
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def trace_from_jsonl(text, status=None):
    """Rebuild a FlowTrace from JSONL text. The status is not stored in
    the records; pass it when it matters, otherwise it is ``unknown``."""
    samples = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        samples.append(
            FlowSample(
                t=rec["t"],
                weights=np.array(rec["weights"]),
                energy=rec["energy"],
                min_weight=rec["min_weight"],
                asym_bound=rec["asym_bound"],
            )
        )
    if not samples:
        raise ValueError("flow trace has no records")
    return FlowTrace(samples=samples, status=status or "unknown")
