import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import torustutte.cli
import torustutte.geometry
import torustutte.mvc
from torustutte import (
    Placement,
    WeightAssignment,
    gen_grid,
    mean_value_weights,
    perturb,
    uniform_weights,
)
from torustutte.cli import main
from torustutte.serialize import (
    dump_json,
    load_json,
    mesh_from_json,
    mesh_to_json,
    placement_to_json,
    weights_from_json,
    weights_to_json,
)


@pytest.fixture
def workspace(tmp_path):
    """Mesh, grid placement, and uniform weights written to disk."""
    mesh, placement = gen_grid(3)
    paths = {
        "mesh": tmp_path / "mesh.json",
        "weights": tmp_path / "weights.json",
        "dir": tmp_path,
    }
    dump_json(mesh_to_json(mesh), paths["mesh"])
    dump_json(weights_to_json(mesh, uniform_weights(mesh)), paths["weights"])
    return mesh, placement, paths


def run(capsys, argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr()


def test_gen_and_validate(tmp_path, capsys):
    mesh_path = tmp_path / "m.json"
    place_path = tmp_path / "p.json"
    code, out = run(capsys, [
        "gen", "--size", 4, "--out-mesh", mesh_path,
        "--out-placement", place_path,
    ])
    assert code == 0
    assert json.loads(out.out)["vertex_count"] == 16
    code, out = run(capsys, [
        "validate", "--mesh", mesh_path, "--placement", place_path,
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["valid"] is True
    assert doc["edge_count"] == 48
    assert doc["generator_lengths"] == [4, 4]
    assert doc["embedding"]["is_embedding"] is True
    assert doc["embedding"]["degree"] == 1


def test_gen_perturb_seed_determinism(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    for path, seed in ((a, 5), (b, 5), (c, 6)):
        code, _ = run(capsys, [
            "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
            "--out-placement", path, "--perturb", 0.1, "--seed", seed,
        ])
        assert code == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_embed_energy_mvc_cycle(workspace, tmp_path, capsys):
    mesh, placement, paths = workspace
    out_place = tmp_path / "placed.json"
    code, out = run(capsys, [
        "embed", "--mesh", paths["mesh"], "--weights", paths["weights"],
        "--out-placement", out_place,
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["is_embedding"] is True
    coords = np.array(load_json(out_place)["coords"])
    assert np.allclose(coords, placement.coords, atol=1e-12)

    code, out = run(capsys, [
        "energy", "--mesh", paths["mesh"], "--weights", paths["weights"],
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["admissible"] is True
    assert doc["energy"] <= 1e-20
    assert doc["tol"] == 1e-10

    out_weights = tmp_path / "mvc.json"
    code, out = run(capsys, [
        "mvc", "--mesh", paths["mesh"], "--placement", out_place,
        "--out-weights", out_weights,
    ])
    assert code == 0
    assert json.loads(out.out)["imbalance"] <= 1e-12
    assert out_weights.exists()


def test_embed_rejects_non_admissible(workspace, tmp_path, capsys):
    mesh, _, paths = workspace
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    bad = tmp_path / "bad.json"
    dump_json(weights_to_json(mesh, WeightAssignment(values)), bad)
    code, out = run(capsys, [
        "embed", "--mesh", paths["mesh"], "--weights", bad,
        "--out-placement", tmp_path / "never.json",
    ])
    assert code == 2
    assert "error:" in out.err


@pytest.mark.parametrize("command, tol", [("embed", "nan"), ("energy", "0"), ("retract", "-1")])
def test_bad_tol_exit_code(workspace, tmp_path, capsys, command, tol):
    """No command takes a tolerance: ``--tol`` is an unknown flag, exit 2, nothing written."""
    mesh, _, paths = workspace
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    bad = tmp_path / "bad.json"
    dump_json(weights_to_json(mesh, WeightAssignment(values)), bad)
    extra = ["--out-placement", tmp_path / "never.json"] if command == "embed" else []
    argv = [command, "--mesh", paths["mesh"], "--weights", bad, "--tol", tol, *extra]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "never.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("magnitude", ["nan", "-0.1", "inf", "1e200", "1e308"])
def test_gen_bad_perturb_exit_code(tmp_path, capsys, magnitude):
    """A perturbation that is negative, not finite or so large that face areas
    would overflow is an input error, raised before any write."""
    code, out = run(capsys, [
        "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
        "--out-placement", tmp_path / "p.json", "--perturb", magnitude,
    ])
    assert code == 2
    assert f"got {float(magnitude)}" in out.err
    assert "Warning" not in out.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("corner", [(1e200, -1e200), (1e308, 1e308)])
@pytest.mark.parametrize("command", ["validate", "mvc", "index", "render"])
def test_overflowing_placement_exit_code(workspace, tmp_path, capsys, command, corner):
    """A coordinate whose face areas would overflow is an input error naming it,
    raised as the placement is read, before any warning or write."""
    mesh, placement, paths = workspace
    coords = placement.coords.tolist()
    coords[5] = list(corner)
    big = tmp_path / "big.json"
    dump_json({"coords": coords}, big)
    outputs = {
        "mvc": ["--out-weights", tmp_path / "w.json"],
        "render": ["--out", tmp_path / "p.svg"],
    }
    argv = [command, "--mesh", paths["mesh"], "--placement", big, *outputs.get(command, [])]
    code, out = run(capsys, argv)
    assert code == 2
    assert out.err == f"error: {big}: coordinate {corner[0]!r} of vertex 5 exceeds 1e+100 in magnitude\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json", "mesh.json", "weights.json"]


def test_commands_without_a_solve_do_not_load_scipy(tmp_path):
    """gen, validate, mvc, index and render start and run without SciPy, in a
    fresh interpreter; embed loads it at its solve."""
    script = """
import json, sys
import torustutte, torustutte.cli, torustutte.serialize
from torustutte.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen = {"import": loaded()}
run("gen", "--size", "5", "--perturb", "0.05", "--out-mesh", "m.json", "--out-placement", "p.json")
run("validate", "--mesh", "m.json", "--placement", "p.json")
run("mvc", "--mesh", "m.json", "--placement", "p.json", "--out-weights", "w.json")
run("index", "--mesh", "m.json", "--placement", "p.json")
run("render", "--mesh", "m.json", "--placement", "p.json", "--out", "p.svg")
seen["commands"] = loaded()
run("embed", "--mesh", "m.json", "--weights", "w.json", "--out-placement", "e.json")
seen["embed"] = "scipy.sparse.linalg" in sys.modules
sys.stderr.write(json.dumps(seen))
"""
    src = str(Path(torustutte.cli.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr) == {"import": [], "commands": [], "embed": True}


def test_retract_flow(workspace, tmp_path, capsys):
    mesh, _, paths = workspace
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    bad = tmp_path / "bad.json"
    dump_json(weights_to_json(mesh, WeightAssignment(values)), bad)
    trace_path = tmp_path / "trace.jsonl"
    out_weights = tmp_path / "fixed.json"
    code, out = run(capsys, [
        "retract", "--mesh", paths["mesh"], "--weights", bad,
        "--trace", trace_path, "--out-weights", out_weights,
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["status"] == "converged"
    assert doc["energy"] <= 1e-10
    records = [json.loads(l) for l in trace_path.read_text().splitlines()]
    assert len(records) == doc["steps"] + 1
    energies = [r["energy"] for r in records]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    # the retracted weights embed cleanly now
    code, out = run(capsys, [
        "embed", "--mesh", paths["mesh"], "--weights", out_weights,
        "--out-placement", tmp_path / "after.json",
    ])
    assert code == 0
    assert json.loads(out.out)["is_embedding"] is True


def test_retract_budget_exit_code(workspace, tmp_path, capsys):
    mesh, _, paths = workspace
    values = np.ones(54)
    values[helpers.edge_id(mesh, 0, 1)] = 5.0
    bad = tmp_path / "bad.json"
    dump_json(weights_to_json(mesh, WeightAssignment(values)), bad)
    code, out = run(capsys, [
        "retract", "--mesh", paths["mesh"], "--weights", bad,
        "--max-steps", 2,
    ])
    assert code == 3
    assert json.loads(out.out)["status"] == "budget_exceeded"


def test_retract_stalled_exit_code(tmp_path, capsys):
    """Weights scaled by 1e4 stall at the float floor of their energy."""
    mesh, _ = gen_grid(16)
    values = np.random.default_rng(0).uniform(0.5, 2.0, len(mesh.directed_edges)) * 1e4
    paths = {name: tmp_path / f"{name}.json" for name in ("mesh", "weights")}
    dump_json(mesh_to_json(mesh), paths["mesh"])
    dump_json(weights_to_json(mesh, WeightAssignment(values)), paths["weights"])
    code, out = run(capsys, [
        "retract", "--mesh", paths["mesh"], "--weights", paths["weights"], "--max-steps", 2000,
    ])
    assert code == 3
    assert json.loads(out.out)["status"] == "stalled"


@pytest.mark.parametrize("command", ["retract", "morph"])
def test_negative_step_budget_exit_code(workspace, tmp_path, capsys, command):
    _, placement, paths = workspace
    start = tmp_path / "start.json"
    dump_json(placement_to_json(placement), start)
    outputs = {
        "retract": ["--weights", paths["weights"], "--trace", tmp_path / "trace.jsonl",
                    "--out-weights", tmp_path / "out.json"],
        "morph": ["--from", start, "--to", start, "--out-dir", tmp_path / "frames"],
    }[command]
    before = set(tmp_path.iterdir())
    code, out = run(capsys, [command, "--mesh", paths["mesh"], *outputs, "--max-steps", -1])
    assert code == 2
    assert "max_steps must be a nonnegative integer, got -1" in out.err
    assert set(tmp_path.iterdir()) == before


def test_morph_command(workspace, tmp_path, capsys):
    _, _, paths = workspace
    pa, pb = tmp_path / "pa.json", tmp_path / "pb.json"
    for path, seed in ((pa, 1), (pb, 2)):
        run(capsys, [
            "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
            "--out-placement", path, "--perturb", 0.1, "--seed", seed,
        ])
    out_dir = tmp_path / "frames"
    code, out = run(capsys, [
        "morph", "--mesh", paths["mesh"], "--from", pa, "--to", pb,
        "--steps", 5, "--out-dir", out_dir, "--svg",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["passed"] is True
    assert doc["frames"] == 5
    frames = sorted(out_dir.glob("frame_*.json"))
    assert len(frames) == 5
    assert len(sorted(out_dir.glob("frame_*.svg"))) == 5
    first = np.array(load_json(frames[0])["coords"])
    start = np.array(load_json(pa)["coords"])
    assert np.abs(first - start).max() <= 1e-6


def test_index_command(workspace, tmp_path, capsys):
    _, _, paths = workspace
    place = tmp_path / "p.json"
    run(capsys, [
        "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
        "--out-placement", place, "--perturb", 0.1, "--seed", 4,
    ])
    code, out = run(capsys, [
        "index", "--mesh", paths["mesh"], "--placement", place,
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["nonvanishing"] is True
    assert doc["total"] == 0
    assert doc["vertex_indices"] == [0] * 9
    assert doc["face_indices"] == [0] * 18
    # explicit direction on the exact grid: vertical edges vanish
    grid_place = tmp_path / "exact.json"
    run(capsys, [
        "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
        "--out-placement", grid_place,
    ])
    code, out = run(capsys, [
        "index", "--mesh", paths["mesh"], "--placement", grid_place,
        "--direction", 0.0,
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["nonvanishing"] is False
    assert len(doc["degenerate_edges"]) == 9


def test_index_zero_length_edge_exit_code(workspace, tmp_path, capsys):
    """A placement with every vertex at the origin names its first zero edge."""
    mesh, _, paths = workspace
    place = tmp_path / "zeros.json"
    dump_json(placement_to_json(Placement(np.zeros((9, 2)))), place)
    code, out = run(capsys, ["index", "--mesh", paths["mesh"], "--placement", place])
    assert code == 2
    assert out.out == ""
    assert "edge (0, 1) has a zero lifted edge vector" in out.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_index_nonfinite_direction_exit_code(workspace, tmp_path, capsys, angle):
    """A nonfinite angle is an input error, raised before the placement is read."""
    _, _, paths = workspace
    code, out = run(capsys, [
        "index", "--mesh", paths["mesh"], "--placement", tmp_path / "missing.json",
        f"--direction={angle}",
    ])
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: --direction must be a finite angle in radians, got {angle}\n"


def test_render_command(workspace, tmp_path, capsys):
    _, _, paths = workspace
    place = tmp_path / "p.json"
    run(capsys, [
        "gen", "--size", 3, "--out-mesh", tmp_path / "m.json",
        "--out-placement", place,
    ])
    svg_path = tmp_path / "torus.svg"
    code, out = run(capsys, [
        "render", "--mesh", paths["mesh"], "--placement", place,
        "--out", svg_path, "--size", 400, "--labels",
    ])
    assert code == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert 'width="400"' in text


def test_render_non_positive_size_exit_code(workspace, tmp_path, capsys):
    mesh, placement, paths = workspace
    place = tmp_path / "p.json"
    dump_json(placement_to_json(placement), place)
    svg_path = tmp_path / "torus.svg"
    code, out = run(capsys, [
        "render", "--mesh", paths["mesh"], "--placement", place,
        "--out", svg_path, "--size", -5,
    ])
    assert code == 2
    assert "size must be a positive integer" in out.err
    assert not svg_path.exists()


def test_validate_bad_mesh_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    dump_json({"vertex_count": 3, "faces": [[0, 1, 2]], "shifts": []}, bad)
    code, out = run(capsys, ["validate", "--mesh", bad])
    assert code == 2
    assert "error:" in out.err


def test_validate_huge_shift_exit_code(workspace, tmp_path, capsys):
    mesh, _, _ = workspace
    doc = mesh_to_json(mesh)
    doc["shifts"][0][3] = 2**70
    bad = tmp_path / "huge.json"
    dump_json(doc, bad)
    code, out = run(capsys, ["validate", "--mesh", bad])
    assert code == 2
    assert out.err == f"error: {bad}: shifts row 0 holds a number outside int64\n"


def _set(doc, key, row, column, value):
    doc[key][row][column] = value


NON_INTEGERS = {
    "shift": (lambda doc: _set(doc, "shifts", 0, 2, -1.5), "shifts row 0: -1.5"),
    "vertex id": (lambda doc: _set(doc, "faces", 0, 0, 0.9), "faces row 0: 0.9"),
    "vertex count": (lambda doc: doc.update(vertex_count=16.7), "vertex_count row 0: 16.7"),
}


@pytest.mark.parametrize("case", list(NON_INTEGERS))
def test_validate_non_integer_exit_code(tmp_path, capsys, case):
    """A fraction where the format holds an integer is named, not truncated."""
    doc = mesh_to_json(gen_grid(4)[0])
    assert doc["shifts"][0][2] == -1 and doc["faces"][0][0] == 0
    change, named = NON_INTEGERS[case]
    change(doc)
    bad = tmp_path / "bad.json"
    dump_json(doc, bad)
    code, out = run(capsys, ["validate", "--mesh", bad])
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: {bad}: {named} is not an integer\n"


def test_validate_regauged_mesh(tmp_path, capsys):
    """Moving each vertex by a lattice vector changes no generator length."""
    t = np.random.default_rng(31).integers(-30, 31, (9, 2))
    path = tmp_path / "moved.json"
    dump_json(mesh_to_json(helpers.regauged(gen_grid(3)[0], t.tolist())), path)
    code, out = run(capsys, ["validate", "--mesh", path])
    assert code == 0
    assert json.loads(out.out)["generator_lengths"] == [3, 3]


def test_validate_huge_vertex_id_exit_code(workspace, tmp_path, capsys):
    mesh, _, _ = workspace
    doc = mesh_to_json(mesh)
    doc["faces"][0][2] = 2**70
    bad = tmp_path / "huge_id.json"
    dump_json(doc, bad)
    code, out = run(capsys, ["validate", "--mesh", bad])
    assert code == 2
    assert out.err == f"error: {bad}: faces row 0 holds a number outside int64\n"


def _null_first_weight(mesh):
    doc = weights_to_json(mesh, uniform_weights(mesh))
    doc["weights"][0][2] = None
    return doc


WRONGLY_TYPED = {
    "null faces": ("mesh", lambda mesh: dict(mesh_to_json(mesh), faces=None), "faces is not a list of rows"),
    "null weight": ("weights", _null_first_weight, "weights row 0: None is not a number"),
    "number for weights": ("weights", lambda mesh: {"weights": 5}, "weights is not a list of rows"),
    "top-level list": (
        "weights",
        lambda mesh: weights_to_json(mesh, uniform_weights(mesh))["weights"],
        "list indices must be integers or slices, not str",
    ),
}


@pytest.mark.parametrize("case", list(WRONGLY_TYPED))
def test_wrongly_typed_document_exit_code(workspace, tmp_path, capsys, case):
    """Valid JSON whose values have the wrong type is an input error, not a crash."""
    mesh, _, paths = workspace
    kind, make, reason = WRONGLY_TYPED[case]
    bad = tmp_path / "bad.json"
    dump_json(make(mesh), bad)
    argv = ["validate", "--mesh", bad]
    if kind == "weights":
        argv = ["energy", "--mesh", paths["mesh"], "--weights", bad]
    code, out = run(capsys, argv)
    assert code == 2
    assert out.err == f"error: {bad}: {reason}\n"


# a fractional, negative fractional, infinite or nan id, or a weight written as a string
MALFORMED_ROW = {
    "fractional id": (lambda i, j, w: [i, j + 0.5, w], "1.5 is not an integer"),
    "negative fractional id": (lambda i, j, w: [i - 0.5, j, w], "-0.5 is not an integer"),
    "infinite id": (lambda i, j, w: [i, float("inf"), w], "inf is not an integer"),
    "nan id": (lambda i, j, w: [float("nan"), j, w], "nan is not an integer"),
    "string weight": (lambda i, j, w: [i, j, str(w)], f"{str(5.85)!r} is not a number"),
}


@pytest.mark.parametrize("command", ["embed", "energy", "retract"])
@pytest.mark.parametrize("case", list(MALFORMED_ROW))
def test_malformed_weights_row_exit_code(tmp_path, capsys, case, command):
    """gen --size 4 --perturb 0.05 --seed 1, mvc, then one row broken: an input error naming it."""
    mesh, placement = gen_grid(4)
    paths = {name: tmp_path / f"{name}.json" for name in ("mesh", "placement", "weights")}
    dump_json(mesh_to_json(mesh), paths["mesh"])
    dump_json(placement_to_json(perturb(mesh, placement, 0.05, 1)), paths["placement"])
    run(capsys, ["mvc", "--mesh", paths["mesh"], "--placement", paths["placement"],
                 "--out-weights", paths["weights"]])
    doc = load_json(paths["weights"])
    assert doc["weights"][0][:2] == [0, 1]
    make, named = MALFORMED_ROW[case]
    doc["weights"][0] = make(0, 1, 5.85)
    paths["weights"].write_text(json.dumps(doc))  # Infinity and NaN as Python's json writes them
    extra = ["--out-placement", tmp_path / "out.json"] if command == "embed" else []
    code, out = run(capsys, [command, "--mesh", paths["mesh"], "--weights", paths["weights"], *extra])
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: {paths['weights']}: weights row 0: {named}\n"


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# the key a document lacks, the document, and the command line that reads it from ``bad``
MISSING_KEY = {
    "placement read as weights": (
        "weights",
        lambda mesh, placement: placement_to_json(placement),
        lambda paths, bad: ["retract", "--mesh", paths["mesh"], "--weights", bad],
    ),
    "mesh without faces": (
        "faces",
        lambda mesh, placement: _without(mesh_to_json(mesh), "faces"),
        lambda paths, bad: ["validate", "--mesh", bad],
    ),
    "placement without coords": (
        "coords",
        lambda mesh, placement: _without(placement_to_json(placement), "coords"),
        lambda paths, bad: ["validate", "--mesh", paths["mesh"], "--placement", bad],
    ),
}


@pytest.mark.parametrize("case", list(MISSING_KEY))
def test_missing_key_exit_code(workspace, tmp_path, capsys, case):
    """A document that lacks a key is an input error naming the file and the key."""
    mesh, placement, paths = workspace
    key, make, argv = MISSING_KEY[case]
    bad = tmp_path / "bad.json"
    dump_json(make(mesh, placement), bad)
    code, out = run(capsys, argv(paths, bad))
    assert code == 2
    assert out.err == f"error: {bad}: missing key '{key}'\n"


def test_deeply_nested_document_exit_code(tmp_path, capsys):
    """json gives up on deep nesting with a RecursionError: an input error naming the file."""
    bad = tmp_path / "deep.json"
    bad.write_text('{"faces": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out = run(capsys, ["validate", "--mesh", bad])
    assert code == 2
    assert out.err.startswith(f"error: {bad}: maximum recursion depth exceeded")


def test_missing_file_exit_code(tmp_path, capsys):
    code, out = run(capsys, ["validate", "--mesh", tmp_path / "nope.json"])
    assert code == 2


def test_quiet_suppresses_output(workspace, capsys):
    _, _, paths = workspace
    code, out = run(capsys, ["validate", "--mesh", paths["mesh"], "--quiet"])
    assert code == 0
    assert out.out == ""


# the shared flags each command reads; any other use, and --tol anywhere, is an unknown flag
READS = {
    "validate": {"--quiet"},
    "gen": {"--seed", "--quiet"},
    "embed": {"--quiet"},
    "mvc": {"--quiet"},
    "energy": set(),
    "retract": {"--quiet"},
    "morph": {"--quiet"},
    "index": set(),
    "render": {"--quiet"},
}
FLAG_ARGS = {"--tol": ["--tol", "1e-9"], "--seed": ["--seed", "1"], "--quiet": ["--quiet"]}


@pytest.mark.parametrize("flag", sorted(FLAG_ARGS))
@pytest.mark.parametrize("command", list(READS))
def test_shared_flag_only_where_read(workspace, tmp_path, capsys, command, flag):
    _, placement, paths = workspace
    mesh, weights, d = paths["mesh"], paths["weights"], paths["dir"]
    place = d / "grid.json"
    dump_json(placement_to_json(placement), place)
    argv = {
        "validate": ["--mesh", mesh],
        "gen": ["--size", 3, "--out-mesh", d / "gen.json"],
        "embed": ["--mesh", mesh, "--weights", weights, "--out-placement", d / "p.json"],
        "mvc": ["--mesh", mesh, "--placement", place, "--out-weights", d / "w.json"],
        "energy": ["--mesh", mesh, "--weights", weights],
        "retract": ["--mesh", mesh, "--weights", weights],
        "morph": ["--mesh", mesh, "--from", place, "--to", place, "--steps", 2,
                  "--out-dir", d / "frames"],
        "index": ["--mesh", mesh, "--placement", place],
        "render": ["--mesh", mesh, "--placement", place, "--out", d / "t.svg"],
    }[command]
    try:
        code, out = run(capsys, [command, *argv, *FLAG_ARGS[flag]])
    except SystemExit as exc:
        code, out = exc.code, capsys.readouterr()
    if flag in READS[command]:
        assert code == 0
        assert (out.out == "") == (flag == "--quiet")
    else:
        assert code == 2
        assert f"unrecognized arguments: {FLAG_ARGS[flag][0]}" in out.err


@pytest.mark.parametrize("error", [OverflowError, MemoryError, FloatingPointError])
def test_arithmetic_and_memory_errors_exit_3(workspace, capsys, monkeypatch, error):
    _, _, paths = workspace

    def failing(args):
        raise error("simulated")

    monkeypatch.setattr("torustutte.cli.cmd_energy", failing)
    code, out = run(capsys, ["energy", "--mesh", paths["mesh"], "--weights", paths["weights"]])
    assert code == 3
    assert "error: simulated" in out.err


def test_nonfinite_solve_exit_code(tmp_path, capsys):
    """Weights 1e300 and 1e-300 overflow the balance solve: a numerical failure."""
    mesh, _ = gen_grid(6)
    coin = np.random.default_rng(0).random(len(mesh.directed_edges)) < 0.5
    values = np.where(coin, 1e300, 1e-300)
    mesh_path, weights_path = tmp_path / "mesh.json", tmp_path / "weights.json"
    dump_json(mesh_to_json(mesh), mesh_path)
    dump_json(weights_to_json(mesh, WeightAssignment(values)), weights_path)
    base = ["--mesh", mesh_path, "--weights", weights_path]
    for argv in (["energy", *base], ["embed", *base, "--out-placement", tmp_path / "p.json"]):
        code, out = run(capsys, argv)
        assert code == 3
        assert "not finite" in out.err


def _first_weight_args(tmp_path, value):
    """--mesh and --weights files for gen_grid(4), uniform weights but the first."""
    mesh, _ = gen_grid(4)
    values = uniform_weights(mesh).values.copy()
    values[0] = value
    mesh_path, weights_path = tmp_path / "mesh.json", tmp_path / "weights.json"
    dump_json(mesh_to_json(mesh), mesh_path)
    dump_json(weights_to_json(mesh, WeightAssignment(values)), weights_path)
    return ["--mesh", mesh_path, "--weights", weights_path]


def test_overflowing_weight_fails_without_warning(tmp_path, capsys):
    """A weight of 1e308 overflows the solve's residual: exit 3, and, under the
    suite's RuntimeWarning filter, no warning on the way."""
    code, out = run(capsys, ["energy", *_first_weight_args(tmp_path, 1e308)])
    assert code == 3
    assert "not finite" in out.err


def test_subnormal_weight_runs_without_warning(tmp_path, capsys):
    """A weight of 5e-324 has a finite energy, but 1 / w overflows the flow's
    gate scale: retract names that before any trial, with no warning."""
    base = _first_weight_args(tmp_path, 5e-324)
    code, out = run(capsys, ["energy", *base])
    assert code == 0
    assert json.loads(out.out)["admissible"] is False
    code, out = run(capsys, ["retract", *base])
    assert code == 3
    assert "gate scale underflows" in out.err


def test_singular_solve_exit_code(tmp_path, capsys):
    """Subnormal weights make the reduced balance matrix singular: a numerical failure."""
    mesh, _ = gen_grid(6)
    mesh_path, weights_path = tmp_path / "mesh.json", tmp_path / "weights.json"
    dump_json(mesh_to_json(mesh), mesh_path)
    values = np.full(len(mesh.directed_edges), 5e-324)
    dump_json(weights_to_json(mesh, WeightAssignment(values)), weights_path)
    code, out = run(capsys, ["energy", "--mesh", mesh_path, "--weights", weights_path])
    assert code == 3
    assert "singular" in out.err


def test_morph_retract_failure_exit_code(tmp_path, capsys):
    mesh, placement = gen_grid(4)
    paths = {name: tmp_path / f"{name}.json" for name in ("mesh", "a", "b")}
    dump_json(mesh_to_json(mesh), paths["mesh"])
    for name, seed in (("a", 1), ("b", 2)):
        dump_json(placement_to_json(perturb(mesh, placement, 0.075, seed=seed)), paths[name])
    code, out = run(capsys, [
        "morph", "--mesh", paths["mesh"], "--from", paths["a"], "--to", paths["b"],
        "--steps", 3, "--max-steps", 0, "--out-dir", tmp_path / "frames",
    ])
    assert code == 3
    assert "retraction at t=0.5000 did not converge" in out.err


def count_certificates(monkeypatch):
    """Count the certificate helper behind verify_embedding and mean_value_weights."""
    calls = [0]
    inner = torustutte.geometry._certificate

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    for module in (torustutte.geometry, torustutte.mvc):
        monkeypatch.setattr(module, "_certificate", counted)
    return calls


def test_each_placement_certified_once(tmp_path, capsys, monkeypatch):
    """embed certifies its placement once, morph each frame and endpoint once."""
    mesh, placement = gen_grid(6)
    paths = {name: tmp_path / f"{name}.json" for name in ("mesh", "weights", "a", "b", "p")}
    dump_json(mesh_to_json(mesh), paths["mesh"])
    dump_json(weights_to_json(mesh, uniform_weights(mesh)), paths["weights"])
    dump_json(placement_to_json(perturb(mesh, placement, 0.05, seed=1)), paths["a"])
    dump_json(placement_to_json(perturb(mesh, placement, 0.05, seed=2)), paths["b"])
    calls = count_certificates(monkeypatch)
    code, _ = run(capsys, [
        "embed", "--mesh", paths["mesh"], "--weights", paths["weights"],
        "--out-placement", paths["p"],
    ])
    assert (code, calls[0]) == (0, 1)
    calls[0] = 0
    code, _ = run(capsys, [
        "morph", "--mesh", paths["mesh"], "--from", paths["a"], "--to", paths["b"],
        "--steps", 5, "--out-dir", tmp_path / "frames",
    ])
    assert (code, calls[0]) == (0, 7)


# ---------------------------------------------------------------------------
# One input boundary: a corrupted document exits 2 with an error naming it

@functools.cache
def fuzz_documents():
    """The documents of gen --size 4 --perturb 0.05 --seed 1 and its mvc weights."""
    mesh, placement = gen_grid(4)
    placement = perturb(mesh, placement, 0.05, 1)
    return {
        "mesh": mesh_to_json(mesh),
        "placement": placement_to_json(placement),
        "weights": weights_to_json(mesh, mean_value_weights(mesh, placement)),
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for kind, doc in fuzz_documents().items():
        dump_json(doc, root / f"{kind}.json")
    return root


# the command lines that read a document of each kind from ``bad``; none of
# them fails an input that reads for a reason other than its numbers
READERS = {
    "mesh": [["validate", "--mesh", "{bad}"]],
    "placement": [
        ["validate", "--mesh", "{dir}/mesh.json", "--placement", "{bad}"],
        ["render", "--mesh", "{dir}/mesh.json", "--placement", "{bad}", "--out", "{dir}/out.svg"],
        ["index", "--mesh", "{dir}/mesh.json", "--placement", "{bad}"],
    ],
    "weights": [["energy", "--mesh", "{dir}/mesh.json", "--weights", "{bad}"]],
}


def run_reader(kind, root, doc):
    """Exit code and stderr of each command that reads ``doc``, written as
    bad.json, run with warnings raised as errors."""
    bad = root / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    results = []
    for argv in READERS[kind]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([a.format(bad=bad, dir=root) for a in argv])
        results.append((code, err.getvalue()))
    return bad, results


def corrupt(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return doc


# the recipe's replacement values for one leaf or row
CORRUPTIONS = [
    10**400, -10**400, 2**63, -1, 0, 1.5, -0.5, "x", "1", None, [], {}, True, False,
    1e308, -1e308, 1e-320, math.nan, math.inf, [1, 2, 3],
]


@st.composite
def corrupted_documents(draw):
    kind = draw(st.sampled_from(sorted(READERS)))
    doc = fuzz_documents()[kind]
    key = draw(st.sampled_from(sorted(doc)))
    path = (key,)
    if isinstance(doc[key], list):
        row = draw(st.integers(0, len(doc[key]) - 1))
        leaf = draw(st.none() | st.integers(0, len(doc[key][row]) - 1))
        path = (key, row) if leaf is None else (key, row, leaf)
    return kind, corrupt(doc, path, draw(st.sampled_from(CORRUPTIONS)))


@settings(max_examples=300)
@given(case=corrupted_documents())
def test_corrupted_document_exits_2_naming_it(fuzz_dir, case):
    """One leaf or row replaced: exit 0, or exit 2 with an error that starts
    with the file's path. A weights document that reads may still overflow
    the balance solve, a numerical failure (exit 3), as a weight of 1e308
    at vertex 0 does."""
    kind, doc = case
    bad, results = run_reader(kind, fuzz_dir, doc)
    for code, err in results:
        if code == 3:
            assert kind == "weights" and "not finite" in err
            mesh = mesh_from_json(fuzz_documents()["mesh"])
            weights_from_json(mesh, doc)
        else:
            assert code in (0, 2), err
        if code == 2:
            assert err.startswith(f"error: {bad}: "), err


# the corruptions of fuzz_documents() that the parent read wrongly, and the
# reason the error gives after the path
NAMED_CORRUPTIONS = {
    "weight 1e400": ("weights", ("weights", 0, 2), 10**400, "weights row 0 holds a number outside float64"),
    "coordinate 1e400": ("placement", ("coords", 3, 0), 10**400, "coords row 3 holds a number outside float64"),
    "shift 1e400": ("mesh", ("shifts", 0, 2), 10**400, "shifts row 0 holds a number outside int64"),
    "shift 1e308": ("mesh", ("shifts", 0, 2), 1e308, "shifts row 0 holds a number outside int64"),
    "face id true": ("mesh", ("faces", 3, 1), True, "faces row 3: True is not a number"),
    "shift true": ("mesh", ("shifts", 0, 2), True, "shifts row 0: True is not a number"),
    "weight true": ("weights", ("weights", 0, 2), True, "weights row 0: True is not a number"),
    "coordinate true": ("placement", ("coords", 3, 0), True, "coords row 3: True is not a number"),
    "vertex count false": ("mesh", ("vertex_count",), False, "vertex_count row 0: False is not a number"),
    "repeated face vertex": ("mesh", ("faces", 0, 1), 0, "face (0, 0, 5) repeats a vertex"),
    "duplicate weights row": ("weights", ("weights", 1), [0, 1, 1.0], "duplicate weight entry for edge (0, 1)"),
    "short weights row": ("weights", ("weights", 0), [0, 1], "weights row 0 is not a list of 3 numbers"),
    "weights row moved to a non-edge": (
        "weights", ("weights", 0), [0, 2, 1.0], "missing weight for directed edge (0, 1)"
    ),
}


@pytest.mark.parametrize("case", list(NAMED_CORRUPTIONS))
def test_named_corruption_exits_2_naming_the_file(fuzz_dir, case):
    kind, path, value, reason = NAMED_CORRUPTIONS[case]
    bad, results = run_reader(kind, fuzz_dir, corrupt(fuzz_documents()[kind], path, value))
    for code, err in results:
        assert (code, err) == (2, f"error: {bad}: {reason}\n")
