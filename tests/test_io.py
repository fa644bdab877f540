import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from torustutte import (
    WeightAssignment,
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
    trace_from_jsonl,
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
    # int() truncates a fractional id, and so does the table reading
    nudged = [[i + 0.5, j + 0.25, w] for i, j, w in rows]
    assert np.array_equal(weights_from_json(mesh, {"weights": nudged}).values, values)


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
    "short row": (lambda r: r[:-1] + [r[-1][:2]], ValueError, "not enough values to unpack"),
    "string id": (lambda r: [["a", 1, 1.0]] + r[1:], ValueError, "invalid literal for int"),
    "null weight": (lambda r: [r[0][:2] + [None]] + r[1:], TypeError, "NoneType"),
    "null id": (lambda r: [[None] + r[0][1:]] + r[1:], TypeError, "NoneType"),
    "nan id": (lambda r: [[math.nan] + r[0][1:]] + r[1:], ValueError, "NaN"),
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
    mesh, _ = grid3
    values = np.ones(54)
    values[mesh.edge_index[(0, 1)]] = 5.0
    trace = retract(mesh, WeightAssignment(values))
    path = tmp_path / "trace.jsonl"
    text = trace_to_jsonl(trace, path)
    assert path.read_text() == text
    lines = [json.loads(line) for line in text.splitlines()]
    assert len(lines) == len(trace.samples)
    assert sorted(lines[0]) == ["asym_bound", "energy", "min_weight", "t", "weights"]
    rebuilt = trace_from_jsonl(text, status=trace.status)
    assert rebuilt.status == trace.status
    assert rebuilt.steps == trace.steps
    for a, b in zip(rebuilt.samples, trace.samples):
        assert a.t == b.t
        assert a.energy == b.energy
        assert a.min_weight == b.min_weight
        assert a.asym_bound == b.asym_bound
        assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(
        rebuilt.final_weights.values, trace.final_weights.values
    )


def test_trace_defaults(grid3):
    mesh, _ = grid3
    values = np.ones(54)
    values[mesh.edge_index[(0, 1)]] = 5.0
    trace = retract(mesh, WeightAssignment(values))
    rebuilt = trace_from_jsonl(trace_to_jsonl(trace))
    assert rebuilt.status == "unknown"
    assert rebuilt.steps == len(trace.samples) - 1


def test_trace_without_records_rejected():
    with pytest.raises(ValueError, match="no records"):
        trace_from_jsonl("\n")
