import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from torustutte import (
    WeightAssignment,
    build_mesh,
    gen_grid,
    gen_k7,
    mean_value_weights,
    retract,
)
from torustutte.errors import NonPositiveWeightError, ShiftConflictError
from torustutte.serialize import (
    dump_json,
    load_json,
    mesh_from_json,
    mesh_to_json,
    placement_from_json,
    placement_to_json,
    trace_to_jsonl,
    weights_from_json,
    weights_to_json,
)


def test_dump_json_canonical(tmp_path):
    doc = {"b": 1, "a": [1.5, 0.1]}
    text = dump_json(doc)
    assert text == '{\n  "a": [\n    1.5,\n    0.1\n  ],\n  "b": 1\n}\n'
    path = tmp_path / "doc.json"
    assert dump_json(doc, path) == text
    assert load_json(path) == doc
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 2**40, -(2**63), 1e300, -1e300, 1e-300, 5e-324]),
    st.booleans(),
    st.none(),
)
KEYS = st.text(max_size=4) | st.sampled_from(["", ", ", "]", "[", "], [", "|", '"'])
LEAVES = (
    NUMBERS
    | KEYS
    | st.lists(NUMBERS, min_size=1, max_size=5)
    | st.lists(st.lists(NUMBERS, min_size=1, max_size=4), min_size=1, max_size=4)
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300)
@given(DOCUMENTS)
@example([[1], [2], 3])
@example([[[1]]])
@example([[1, [2]], [3]])
@example([[[1]], 3])
@example([[1, 2], []])
@example({"coords": [[0.0, -0.0], [1e300, 2**40]], "faces": [[0, 1, 2]], "shifts": []})
@example([[1, "a, b"], ["]", 2]])
def test_dump_json_matches_json_dumps(doc):
    """Canonical text is json.dumps's text whatever the nesting."""
    expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert dump_json(doc) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [lambda x: x, lambda x: [1.0, x], lambda x: {"a": [[0, 1, x]]}])
def test_dump_json_rejects_nonfinite_as_json_does(bad, wrap):
    doc = wrap(bad)
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant") as got:
        dump_json(doc)
    assert str(got.value) == str(expected.value)


def test_mesh_round_trip(grid3, grid4, k7):
    for mesh, _ in (grid3, grid4, k7):
        doc = mesh_to_json(mesh)
        assert doc["vertex_count"] == mesh.vertex_count
        assert len(doc["faces"]) == len(mesh.faces)
        # only one orientation, only nonzero shifts
        assert all(i < j for i, j, _, _ in doc["shifts"])
        assert all((bx, by) != (0, 0) for _, _, bx, by in doc["shifts"])
        rebuilt = mesh_from_json(doc)
        assert rebuilt.vertex_count == mesh.vertex_count
        assert np.array_equal(rebuilt.faces, mesh.faces)
        assert np.array_equal(rebuilt.shifts, mesh.shifts)
        assert np.array_equal(rebuilt.directed_edges, mesh.directed_edges)
        # canonical text is stable through a parse cycle
        text = dump_json(doc)
        assert dump_json(load_json_text(text)) == text


def load_json_text(text):
    return json.loads(text)


def test_mesh_duplicate_shift_rejected(grid3):
    mesh, _ = grid3
    doc = mesh_to_json(mesh)
    doc["shifts"].append(list(doc["shifts"][0]))
    with pytest.raises(ShiftConflictError, match="duplicate"):
        mesh_from_json(doc)


def test_mesh_json_bit_identical(k7):
    mesh, _ = k7
    text = dump_json(mesh_to_json(mesh))
    again = dump_json(mesh_to_json(mesh_from_json(json.loads(text))))
    assert again == text


def test_weights_round_trip_exact(grid4, rng):
    mesh, _ = grid4
    values = helpers.random_directed_weights(mesh, rng, 0.1, 10.0)
    weights = WeightAssignment(values)
    doc = json.loads(dump_json(weights_to_json(mesh, weights)))
    rebuilt = weights_from_json(mesh, doc)
    assert np.array_equal(rebuilt.values, values)  # bit exact via repr


def test_weights_duplicate_rejected(grid3):
    mesh, _ = grid3
    doc = weights_to_json(mesh, WeightAssignment(np.ones(54)))
    doc["weights"].append(doc["weights"][0][:])
    with pytest.raises(ValueError, match="duplicate"):
        weights_from_json(mesh, doc)


def test_weights_read_as_table_match_row_reading(grid4, rng):
    """Shuffled rows, integer weights and float ids give the row-by-row values."""
    mesh, _ = grid4
    values = helpers.random_directed_weights(mesh, rng, 0.1, 10.0)
    rows = json.loads(dump_json(weights_to_json(mesh, WeightAssignment(values))))["weights"]
    shuffled = [rows[k] for k in rng.permutation(len(rows))]
    assert np.array_equal(weights_from_json(mesh, {"weights": shuffled}).values, values)
    whole = [[i, j, 3] for i, j, _ in rows]
    assert np.array_equal(weights_from_json(mesh, {"weights": whole}).values, np.full(96, 3.0))
    floats = [[float(i), float(j), w] for i, j, w in shuffled]
    assert np.array_equal(weights_from_json(mesh, {"weights": floats}).values, values)
    # a fractional id is named, not truncated
    nudged = [[i, j + 0.25, w] for i, j, w in rows]
    with pytest.raises(ValueError, match=r"^weights row 0: vertex id 1.25 is not an integer$"):
        weights_from_json(mesh, {"weights": nudged})


def weights_rows(mesh):
    return json.loads(dump_json(weights_to_json(mesh, WeightAssignment(np.ones(54)))))["weights"]


# rows of uniform weights on gen_grid(3); row 4 is the edge (0, 6)
BAD_WEIGHT_ROWS = {
    "duplicate": (lambda r: r + [r[4]], ValueError, r"duplicate weight entry for edge \(0, 6\)$"),
    "duplicate in place": (
        lambda r: r[:10] + [r[4]] + r[11:], ValueError, r"duplicate weight entry for edge \(0, 6\)$"
    ),
    "missing": (lambda r: r[:4] + r[5:], ValueError, r"missing weight for directed edge \(0, 6\)$"),
    "non-edge": (lambda r: r + [[8, 3, 1.0]], ValueError, r"weight given for non-edge \(8, 3\)$"),
    "huge id": (
        lambda r: r + [[2**70, 0, 1.0]],
        ValueError,
        r"weight given for non-edge \(1180591620717411303424, 0\)$",
    ),
    "negative id": (lambda r: r + [[-1, 3, 1.0]], ValueError, r"non-edge \(-1, 3\)$"),
    "short row": (
        lambda r: r[:-1] + [r[-1][:2]], ValueError, r"^weights row 53 is not an \[i, j, w\] triple: \[8, 7\]$"
    ),
    "string id": (lambda r: [["a", 1, 1.0]] + r[1:], ValueError, r"^weights row 0: 'a' is not a number$"),
    "null weight": (lambda r: [r[0][:2] + [None]] + r[1:], TypeError, r"^weights row 0: None is not a number$"),
    "null id": (lambda r: [[None] + r[0][1:]] + r[1:], TypeError, r"^weights row 0: None is not a number$"),
    "nan id": (
        lambda r: [[math.nan] + r[0][1:]] + r[1:], ValueError, r"^weights row 0: vertex id nan is not an integer$"
    ),
    "fractional id": (
        lambda r: [[0, 1.5, 1.0]] + r[1:], ValueError, r"^weights row 0: vertex id 1.5 is not an integer$"
    ),
    "negative fractional id": (
        lambda r: [[-0.5, 1, 1.0]] + r[1:], ValueError, r"^weights row 0: vertex id -0.5 is not an integer$"
    ),
    "infinite id": (
        lambda r: [[0, math.inf, 1.0]] + r[1:], ValueError, r"^weights row 0: vertex id inf is not an integer$"
    ),
    "string weight": (lambda r: [[0, 1, "5.85"]] + r[1:], ValueError, r"^weights row 0: '5.85' is not a number$"),
    "zero weight": (lambda r: [r[0][:2] + [0.0]] + r[1:], NonPositiveWeightError, "positive"),
    "number": (lambda r: 5, TypeError, "not iterable"),
}


@pytest.mark.parametrize("case", list(BAD_WEIGHT_ROWS))
def test_weights_from_json_names_the_bad_row(grid3, case):
    mesh, _ = grid3
    make, error, message = BAD_WEIGHT_ROWS[case]
    rows = weights_rows(mesh)
    assert rows[4][:2] == [0, 6]
    with pytest.raises(error, match=message):
        weights_from_json(mesh, {"weights": make(rows)})


def corrupted_weight_docs():
    """Weights documents with duplicate, missing and non-edge rows, alone and
    combined, on gen_grid(3), K7 and a random-diagonal mesh; ids are ints,
    or whole floats in every other document."""
    rng = np.random.default_rng(5)
    meshes = {
        "grid3": gen_grid(3)[0],
        "k7": gen_k7()[0],
        "diagonal6": build_mesh(*helpers.random_diagonal_grid(6, np.random.default_rng(6))),
    }
    for name, mesh in meshes.items():
        n, edges = mesh.vertex_count, mesh.edge_count * 2
        values = helpers.random_directed_weights(mesh, rng, 0.5, 2.0)
        full = [[i, j, w] for (i, j), w in zip(mesh.directed_edges.tolist(), values.tolist())]

        def stray():
            while True:
                i, j = rng.choice([*range(-2, n + 2), 2**70], size=2).tolist()
                if mesh.edge_ids(i, j) < 0:
                    return [i, j, 1.0]

        for case in range(40):
            rows = [full[k] for k in rng.permutation(edges)]
            ops = rng.choice(["duplicate", "drop", "stray", "replace"], size=rng.integers(1, 4))
            for op in ops:
                if op == "duplicate":
                    rows.insert(int(rng.integers(len(rows) + 1)), list(rows[rng.integers(len(rows))]))
                elif op == "drop":
                    rows.pop(int(rng.integers(len(rows))))
                elif op == "stray":
                    rows.insert(int(rng.integers(len(rows) + 1)), stray())
                else:  # one row's edge becomes another edge or a non-edge
                    k = int(rng.integers(len(rows)))
                    other = rows[rng.integers(len(rows))] if rng.random() < 0.5 else stray()
                    rows[k] = [other[0], other[1], rows[k][2]]
            if case % 2:
                rows = [[float(i), float(j), w] for i, j, w in rows]
            yield f"{name}-{case}-{'+'.join(ops)}", mesh, {"weights": rows}


@pytest.mark.parametrize(
    "mesh, doc", [c[1:] for c in corrupted_weight_docs()], ids=[c[0] for c in corrupted_weight_docs()]
)
def test_weights_errors_match_reference_reader(mesh, doc):
    """The array reader names the bad row as the two-path reader did."""
    with pytest.raises(Exception) as expected:
        helpers.oracle_weights_from_json(mesh, doc)
    with pytest.raises(type(expected.value)) as caught:
        weights_from_json(mesh, doc)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)


def test_placement_round_trip_exact(bumpy4):
    _, placement = bumpy4
    doc = json.loads(dump_json(placement_to_json(placement)))
    rebuilt = placement_from_json(doc)
    assert np.array_equal(rebuilt.coords, placement.coords)
    assert rebuilt.anchored == placement.anchored


def test_mvc_weights_survive_serialization(k7):
    mesh, placement = k7
    weights = mean_value_weights(mesh, placement)
    doc = json.loads(dump_json(weights_to_json(mesh, weights)))
    rebuilt = weights_from_json(mesh, doc)
    assert np.array_equal(rebuilt.values, weights.values)


def test_trace_jsonl_round_trip(grid3, tmp_path):
    """One record per accepted state, every float read back bit for bit."""
    mesh, _ = grid3
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    trace = retract(mesh, WeightAssignment(values))
    path = tmp_path / "trace.jsonl"
    text = trace_to_jsonl(trace, path)
    assert path.read_text() == text
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == len(trace.samples)
    assert sorted(lines[0]) == ["asym_bound", "energy", "min_weight", "t", "weights"]
    for record, sample in zip(lines, trace.samples):
        assert record["t"] == sample.t
        assert record["energy"] == sample.energy
        assert record["min_weight"] == sample.min_weight
        assert record["asym_bound"] == sample.asym_bound
        assert np.array_equal(record["weights"], sample.weights)
    assert np.array_equal(lines[-1]["weights"], trace.final_weights.values)


def test_trace_defaults(grid3):
    """The records hold no status: one per sample, steps + 1 in all."""
    mesh, _ = grid3
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    trace = retract(mesh, WeightAssignment(values))
    records = trace_to_jsonl(trace).splitlines()
    assert len(records) == trace.steps + 1
    assert all("status" not in json.loads(line) for line in records)
