import json

import numpy as np
import pytest

import helpers
from torustutte import (
    WeightAssignment,
    gen_k7,
    mean_value_weights,
    retract,
)
from torustutte.errors import ShiftConflictError
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
