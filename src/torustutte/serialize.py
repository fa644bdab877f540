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
from .tutte import WeightAssignment, _validated_values, weights_from_dict


_compact = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _dumps(obj, indent):
    """``json.dumps`` canonical text for a value whose lines sit ``indent`` deep."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def _number_lists(obj, kinds, indent):
    """Indented text of a list of numbers or of non-empty number lists,
    re-indented from the C encoder's compact text; None for other lists.

    With no string and no object in that text, every "[" opens a list,
    so one "[" is a flat list and one more per element is a table, and
    "|" cannot occur, so it can mark the row breaks.
    """
    try:
        text = _compact(obj)
    except ValueError:
        return _dumps(obj, indent)  # raises json's own NaN or cycle error
    if '"' in text or "{" in text:
        return None
    inner = indent + "  "
    if text.count("[") == 1:
        return f"[\n{inner}" + text[1:-1].replace(", ", f",\n{inner}") + f"\n{indent}]"
    if kinds != {list} or text.count("[") != len(obj) + 1 or "[]" in text:
        return None
    row = inner + "  "
    rows = text[2:-2].replace("], [", "]|[").replace(", ", f",\n{row}")
    rows = rows.replace("]|[", f"\n{inner}],\n{inner}[\n{row}")
    return f"[\n{inner}[\n{row}{rows}\n{inner}]\n{indent}]"


def _indented(obj, indent):
    """Canonical text of ``obj`` for lines that sit ``indent`` deep.

    With ``indent`` set, ``json`` runs its pure-Python encoder. So number
    lists and tables take the C encoder's path, dicts with string keys and
    lists of lists or dicts recurse, and anything else (strings, empty or
    ragged lists, mixed nesting) goes to ``json.dumps``.
    """
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = (f"{inner}{json.dumps(key)}: {_indented(obj[key], inner)}" for key in sorted(obj))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds.isdisjoint((dict, str)):
            text = _number_lists(obj, kinds, indent)
            if text is not None:
                return text
        if kinds <= {list, dict}:
            return "[\n" + ",\n".join(inner + _indented(x, inner) for x in obj) + f"\n{indent}]"
    return _dumps(obj, indent)


def dump_json(obj, path=None):
    """Canonical JSON text (sorted keys, 2-space indent, trailing newline).

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)``, written at C-encoder speed for the number lists
    and number tables the documents hold.
    """
    text = _indented(obj, "") + "\n"
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
    """Rebuild a mesh; duplicate shift rows for one directed edge are rejected,
    and so is a value that is not an integer."""
    shifts = {}
    for i, j, bx, by in doc.get("shifts", []):
        key = (i, j)
        if key in shifts:
            raise ShiftConflictError(f"duplicate shift entry for edge {key}")
        shifts[key] = (bx, by)
    return build_mesh(doc["faces"], shifts, vertex_count=doc.get("vertex_count"))


def weights_to_json(mesh, weights):
    return {
        "weights": [
            [i, j, w]
            for (i, j), w in zip(mesh.directed_edges.tolist(), weights.values.tolist())
        ]
    }


def weights_from_json(mesh, doc):
    """Weights from ``{"weights": [[i, j, w], ...]}``, one row per directed edge.

    A number table that lists every edge once is read as arrays, its ids
    truncated as ``int`` truncates them. Any other document is read row by
    row, which names the first duplicate, missing or non-edge entry and
    fails on the first mistyped row.
    """
    try:
        table = np.array(doc["weights"])
    except ValueError:  # ragged rows
        table = np.empty(0)
    edges = len(mesh.directed_edges)
    if table.dtype.kind in "if" and table.shape == (edges, 3):
        ids = table[:, :2]
        if ((ids >= 0) & (ids < mesh.vertex_count)).all():
            pos = mesh.edge_ids(*ids.astype(np.int64).T)
            if (pos >= 0).all() and (np.bincount(pos, minlength=edges) == 1).all():
                values = np.empty(edges)
                values[pos] = table[:, 2]
                weights = WeightAssignment(values)
                _validated_values(mesh, weights)
                return weights
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
                    "weights": s.weights.tolist(),
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
