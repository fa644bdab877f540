"""JSON and JSONL readers and writers for every artifact type.

All serializers round-trip exactly: floats are written with Python's
shortest round-trip repr, integers stay integers, and parsers rebuild
bit-identical values. Mesh documents list one orientation per edge and
omit zero shifts; parsers fill the rest by antisymmetry.
"""

import json

import numpy as np

from .geometry import Placement
from .mesh import _read_table, build_mesh
from .tutte import WeightAssignment, _validated_values


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
    """Rebuild a mesh; :func:`~torustutte.mesh.build_mesh` reads the rows."""
    return build_mesh(doc["faces"], doc.get("shifts", []), vertex_count=doc.get("vertex_count"))


def weights_to_json(mesh, weights):
    return {
        "weights": [
            [i, j, w]
            for (i, j), w in zip(mesh.directed_edges.tolist(), weights.values.tolist())
        ]
    }


def weights_from_json(mesh, doc):
    """Weights from ``{"weights": [[i, j, w], ...]}``, one row per directed edge.

    The rows are read as one number table; ValueError names the first
    row that is not three numbers or whose id is not whole, and ids may
    be whole floats such as 1.0. Then ValueError names the first
    duplicate row, the first directed edge with no row, in
    ``directed_edges`` order, and the first row that is not an edge.
    NonPositiveWeightError follows for a weight that is not finite and
    positive.
    """
    table = _read_table(doc["weights"], 3, 2, "weights")
    ids = table[:, :2]
    edges = len(mesh.directed_edges)
    pos = mesh.edge_ids(ids[:, 0], ids[:, 1])
    if len(pos) != edges or (np.bincount(pos + 1, minlength=edges + 1)[1:] != 1).any():
        keys = [(int(i), int(j)) for i, j in ids.tolist()]
        first = {}
        for k, key in enumerate(keys):
            if first.setdefault(key, k) != k:
                raise ValueError(f"duplicate weight entry for edge {key}")
        missing = np.ones(edges, dtype=bool)
        missing[pos[pos >= 0]] = False
        if missing.any():
            i, j = mesh.directed_edges[np.argmax(missing)].tolist()
            raise ValueError(f"missing weight for directed edge {(i, j)}")
        raise ValueError(f"weight given for non-edge {keys[int(np.argmax(pos < 0))]}")
    values = np.empty(edges)
    values[pos] = table[:, 2]
    weights = WeightAssignment(values)
    _validated_values(mesh, weights)
    return weights


def placement_to_json(placement):
    return {"coords": placement.coords.tolist()}


def placement_from_json(doc):
    return Placement(_read_table(doc["coords"], 2, 0, "coords"))


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
