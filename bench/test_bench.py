"""Fast self-test of the benchmark on tiny meshes.

    python3 -m pytest bench -q

Shows that every workload runs clean, that its metrics match
BENCHMARK.json, and that the checks catch corrupted outputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import measure  # noqa: E402
import torustutte as tt  # noqa: E402
import torustutte.serialize as ser  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "embed-large": {"grid": 8, "diagonal": 8, "big": 10},
    "repair": {"dense": 8, "sparse": 8},
    "cli": {"big": 8, "small": 6},
}


def tiny_run(name, tmp_path, trace=0, seed=3):
    workload = workloads.make(name, tmp_path, **TINY[name])
    _, passes = measure.run(workload, seed, 0.0, trace)
    return workload, passes


@pytest.mark.parametrize("m", [3, 8])
def test_grid_doc_is_gen_grid(m):
    mesh, placement = tt.gen_grid(m)
    assert inputs.grid_doc(m) == ser.mesh_to_json(mesh)
    assert np.array_equal(inputs.grid_coords(m), placement.coords)


def test_random_diagonals_give_irregular_valid_mesh():
    doc = inputs.grid_doc(8, np.random.default_rng(1))
    mesh = ser.mesh_from_json(doc)
    degrees = {mesh.degree(v) for v in range(mesh.vertex_count)}
    assert min(degrees) >= 4 and max(degrees) <= 8 and len(degrees) > 1
    assert ser.mesh_to_json(mesh) == doc


def test_inputs_depend_only_on_seed():
    a, b, c = (workloads.make("repair", None, **TINY["repair"]) for _ in range(3))
    a.setup(5), b.setup(5), c.setup(6)
    assert a.cases[1].mesh_doc == b.cases[1].mesh_doc
    assert a.cases[1].weights_doc == b.cases[1].weights_doc
    assert a.cases[1].weights_doc != c.cases[1].weights_doc


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(name, trace, tmp_path):
    workload, passes = tiny_run(name, tmp_path, trace)
    attempted, failed, correct, problems = measure.outcome_summary(passes)
    assert (failed, correct, problems) == (0, True, [])
    assert attempted == sum(len(p.results) for p in passes) > 0
    if trace:
        layers = measure.per_layer(passes)
        assert set(layers) == set(measure.PER_LAYER)
        assert (layers["mesh.generator_loops_s"] == 0) == (name == "embed-large")
        assert layers["trace.overhead_s"] > 0
    else:
        e2e = measure.end_to_end(workload, 0.1, passes)
        assert set(e2e) == set(measure.END_TO_END) and all(v > 0 for v in e2e.values())


def test_folded_face_is_caught(tmp_path, monkeypatch):
    original = tt.tutte_map

    def folded(mesh, weights, *args):
        placement = original(mesh, weights, *args)
        coords = placement.coords.copy()
        coords[9] += 1.5 / np.sqrt(mesh.vertex_count)  # past a neighbor
        return tt.Placement(coords)

    monkeypatch.setattr(tt, "tutte_map", folded)
    _, passes = tiny_run("embed-large", tmp_path)
    attempted, failed, correct, problems = measure.outcome_summary(passes)
    assert failed == attempted and not correct
    assert any("area <= 0" in p for p in problems)


def test_checks_catch_bad_outputs():
    doc = inputs.grid_doc(6)
    table = checks.EdgeTable(doc)
    coords = inputs.grid_coords(6)
    assert checks.embedding_problems(table, coords) == []
    folded = coords.copy()
    folded[7, 0] += 0.3
    assert checks.embedding_problems(table, folded)

    row = list(range(6))  # the bottom row, a (1, 0) loop
    assert checks.loop_problems(table, row, (1, 0), 6) == []
    assert checks.loop_problems(table, row, (0, 1), 6)
    assert checks.loop_problems(table, [0, 2, 4], (1, 0), 3)

    assert checks.flow_problems([3.0, 2.0, 1.0], [[1.0, 1.0], [1.0, 1.5], [2.0, 1.5]]) == []
    assert checks.flow_problems([3.0, 3.0], [[1.0], [1.0]])
    assert checks.flow_problems([3.0, 2.0], [[1.0], [0.9]])

    rng = np.random.default_rng(0)
    src, dst = (table.keys // table.n), (table.keys % table.n)
    assert checks.repaired_weights_problems(table, src, dst, rng.uniform(0.5, 2.0, len(src)))
    assert checks.repaired_weights_problems(table, src, dst, np.ones(len(src))) == []

    assert checks.svg_problems("<svg><line></svg>")
    text = json.dumps({"coords": (coords + 1e-12).tolist()})
    assert checks.json_coords_problems(text, coords)
    assert checks.index_problems(0.0, [0] * 36, [0] * 71 + [-1], table)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert spec["command"][1] == "bench/run.py" and spec["paths"] == ["bench"]


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
