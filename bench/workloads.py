"""The benchmark's workloads: seeded inputs, timed ops and their checks.

A workload's ``setup(seed)`` builds every input from the seed alone.
``run_pass(rec)`` runs one full pass of its ops, each timed through
``rec.op`` and checked right after, outside the timed region. An op
fails when the program raises or a CLI command exits non-zero (an
error), or when a check finds a wrong output (a problem).
"""

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import inputs
import torustutte as tt
import torustutte.cli
import torustutte.serialize as ser

WORKLOADS = ("embed-large", "repair", "cli")
# Frames of every morph, in the repair workload and the CLI one.
FRAMES = 9


@dataclass
class Outcome:
    problems: list = field(default_factory=list)
    error: str | None = None
    digest: str = ""
    stats: dict = field(default_factory=dict)
    value: object = None


def attempt(results, name, fn, *args):
    """Run one op; an exception from the program becomes a failed op."""
    try:
        outcome = fn(*args)
    except Exception:
        outcome = Outcome(error=traceback.format_exc(limit=-3))
    results.append((name, outcome))
    return outcome


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()[:16]


def mesh_roundtrip_problems(mesh, table):
    """The parsed mesh holds exactly the document's faces and shifts."""
    src, dst = mesh.directed_edges.T
    if not np.array_equal(mesh.faces, table.faces) or len(src) != len(table.keys):
        return ["mesh faces do not round-trip exactly"]
    if not np.array_equal(mesh.shifts, table.shifts[table.find(src, dst)]):
        return ["mesh shifts do not round-trip exactly"]
    return []


def weights_roundtrip_problems(mesh, table, weights_doc, values):
    rows = np.asarray(weights_doc["weights"], dtype=float)
    expected = np.empty(len(rows))
    expected[table.find(rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64))] = rows[:, 2]
    src, dst = mesh.directed_edges.T
    if not np.array_equal(values, expected[table.find(src, dst)]):
        return ["weights do not round-trip exactly"]
    return []


@dataclass
class MeshCase:
    label: str
    m: int
    mesh_doc: dict
    table: checks.EdgeTable
    coords: np.ndarray = None
    placement_doc: dict = None
    weights_doc: dict = None


def mesh_case(label, m, rng, random_diagonals=False):
    doc = inputs.grid_doc(m, rng if random_diagonals else None)
    return MeshCase(label, m, doc, checks.EdgeTable(doc))


class EmbedLarge:
    """Mesh JSON and placement to certified embedding, index and SVG.

    Runs no flow and no generator-loop search.
    """

    name = "embed-large"

    def __init__(self, grid=64, diagonal=64, big=100):
        self.sizes = (("grid", grid, False), ("diag", diagonal, True), ("grid", big, False))
        self.embed_op = f"grid-{big}"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for kind, m, random_diagonals in self.sizes:
            case = mesh_case(f"{kind}-{m}", m, rng, random_diagonals)
            case.coords = inputs.perturbed_coords(m, rng)
            case.placement_doc = inputs.placement_doc(case.coords)
            if checks.embedding_problems(case.table, case.coords):
                raise RuntimeError(f"perturbed {case.label} placement is not embedded")
            self.cases.append(case)

    def embed_seconds(self, p):
        return sum(
            o.stats["embed_s"] for name, o in p.results if name == self.embed_op and not o.error
        )

    def run_pass(self, rec):
        results = []
        for case in self.cases:
            attempt(results, case.label, self.embed, rec, case)
        return results

    def embed(self, rec, case):
        with rec.op(case.label):
            began = perf_counter()
            mesh = ser.mesh_from_json(case.mesh_doc)
            start = ser.placement_from_json(case.placement_doc)
            weights = tt.mean_value_weights(mesh, start)
            placement = tt.tutte_map(mesh, weights)
            embed_s = perf_counter() - began
            form, _ = tt.generic_direction_form(mesh, placement)
            index = tt.index_theorem_check(mesh, form)
            svg = tt.render_svg(mesh, placement)
            text = ser.dump_json(ser.placement_to_json(placement))

        x = placement.coords
        src, dst = mesh.directed_edges.T
        err = checks.roundtrip_error(x, case.coords)
        energy = checks.balance_energy(case.table, x, src, dst, weights.values)
        problems = [
            *checks.embedding_problems(case.table, x),
            *checks.roundtrip_problems(err, "mean value"),
            *checks.index_problems(index.total, index.vertex_indices, index.face_indices, case.table),
            *checks.svg_problems(svg),
            *checks.json_coords_problems(text, x),
            *mesh_roundtrip_problems(mesh, case.table),
        ]
        if not index.nonvanishing:
            problems.append("generic direction form vanishes on some edge")
        if energy > checks.ENERGY_TOL:
            problems.append(f"mean value weights have balance energy {energy:.3e}")
        return Outcome(
            problems,
            digest=digest(x.tobytes(), svg, text),
            stats={"roundtrip_err": err, "energy_floor": energy, "embed_s": embed_s},
        )


class Repair:
    """Two retractions from random weights and one morph, on small meshes.

    The dense retraction runs on the gen_grid(16) mesh, the sparse one
    on an 18 x 18 random-diagonal mesh; the morph reuses the first
    retraction's mesh object, so its generator loops are cached.
    """

    name = "repair"

    def __init__(self, dense=16, sparse=18):
        self.dense, self.sparse = dense, sparse

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.cases = [
            mesh_case(f"retract-{self.dense}", self.dense, rng),
            mesh_case(f"retract-{self.sparse}", self.sparse, rng, random_diagonals=True),
        ]
        for case in self.cases:
            case.weights_doc = inputs.random_weights_doc(case.mesh_doc, rng)
        self.morph_ends = [inputs.perturbed_coords(self.dense, rng) for _ in range(2)]

    def embed_seconds(self, p):
        return sum(seconds for name, seconds in p.rec.ops if name.startswith("retract-"))

    def run_pass(self, rec):
        results = []
        outcomes = [attempt(results, case.label, self.retract, rec, case) for case in self.cases]
        attempt(results, f"morph-{self.dense}", self.morph, rec, outcomes[0].value)
        return results

    def retract(self, rec, case):
        with rec.op(case.label):
            mesh = ser.mesh_from_json(case.mesh_doc)
            weights = ser.weights_from_json(mesh, case.weights_doc)
            loops = tt.generator_loops(mesh)
            trace = tt.retract(mesh, weights)
            placement = tt.tutte_map(mesh, trace.final_weights)

        src, dst = mesh.directed_edges.T
        final = trace.final_weights.values
        x = placement.coords
        table = case.table
        problems = [
            *mesh_roundtrip_problems(mesh, table),
            *weights_roundtrip_problems(mesh, table, case.weights_doc, weights.values),
            *checks.loop_problems(table, loops.horizontal, (1, 0), case.m),
            *checks.loop_problems(table, loops.vertical, (0, 1), case.m),
            *checks.flow_problems(
                [s.energy for s in trace.samples], [s.weights for s in trace.samples]
            ),
            *checks.repaired_weights_problems(table, src, dst, final),
            *checks.embedding_problems(table, x),
        ]
        if trace.status != tt.CONVERGED:
            problems.append(f"retraction ended with status {trace.status}")
        energy = checks.balance_energy(table, x, src, dst, final)
        if energy > checks.ENERGY_TOL:
            problems.append(f"embedding of repaired weights has balance energy {energy:.3e}")
        return Outcome(
            problems,
            digest=digest(final.tobytes(), x.tobytes()),
            value=mesh,
        )

    def morph(self, rec, mesh):
        if mesh is None:
            raise RuntimeError("the morph needs the mesh of the first retraction op")
        start, end = self.morph_ends
        with rec.op(f"morph-{self.dense}"):
            frames = tt.morph(mesh, tt.Placement(start), tt.Placement(end), FRAMES)

        table = self.cases[0].table
        problems = []
        if len(frames) != FRAMES:
            problems.append(f"morph returned {len(frames)} frames, expected {FRAMES}")
        for k, frame in enumerate(frames):
            problems += [f"frame {k}: {p}" for p in checks.embedding_problems(table, frame.coords)]
        err = max(
            checks.roundtrip_error(frames[0].coords, start),
            checks.roundtrip_error(frames[-1].coords, end),
        )
        problems += checks.roundtrip_problems(err, "morph endpoint")
        return Outcome(
            problems,
            digest=digest(*(f.coords.tobytes() for f in frames)),
            stats={"roundtrip_err": err},
        )


class CommandFailed(Exception):
    pass


class Cli:
    """``torustutte.cli.main`` called in-process on files, as a user drives it.

    A file-heavy part at ``big`` x ``big`` vertices and a flow part at
    ``small`` x ``small``; all files live in one directory under
    ``workdir``, emptied before each pass.
    """

    name = "cli"

    def __init__(self, workdir, big=32, small=12):
        self.workdir = Path(workdir)
        self.big, self.small = big, small

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.gen_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, 4)]
        self.big_case = mesh_case(f"grid-{self.big}", self.big, rng)
        self.small_case = mesh_case(f"grid-{self.small}", self.small, rng)
        self.small_case.weights_doc = inputs.random_weights_doc(self.small_case.mesh_doc, rng)

    def embed_seconds(self, p):
        return sum(seconds for name, seconds in p.rec.ops if name in ("mvc", "embed"))

    def run_pass(self, rec):
        d = self.workdir / "pass"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        f = {k: str(d / k) for k in (
            "a.mesh.json", "a.json", "b.mesh.json", "b.json", "a.weights.json",
            "a.embed.json", "a.report.json", "b.svg", "c.mesh.json", "c.json",
            "e.mesh.json", "e.json", "c.weights.json", "c.trace.jsonl",
            "c.repaired.json", "frames",
        )}
        with open(f["c.weights.json"], "w") as fh:
            json.dump(self.small_case.weights_doc, fh)
        big, small = self.big_case, self.small_case

        def gen(case, seed, mesh, placement):
            return ["gen", "--size", str(case.m), "--perturb", repr(inputs.PERTURB_CELLS / case.m),
                    "--seed", str(seed), "--out-mesh", f[mesh], "--out-placement", f[placement],
                    "--quiet"]

        commands = [
            (gen(big, self.gen_seeds[0], "a.mesh.json", "a.json"), self.check_gen, (big, "a")),
            (gen(big, self.gen_seeds[1], "b.mesh.json", "b.json"), self.check_gen, (big, "b")),
            (["mvc", "--mesh", f["a.mesh.json"], "--placement", f["a.json"],
              "--out-weights", f["a.weights.json"], "--quiet"], self.check_mvc, ()),
            (["embed", "--mesh", f["a.mesh.json"], "--weights", f["a.weights.json"],
              "--out-placement", f["a.embed.json"], "--report", f["a.report.json"], "--quiet"],
             self.check_embed, ()),
            (["energy", "--mesh", f["a.mesh.json"], "--weights", f["a.weights.json"]],
             self.check_energy, ()),
            (["index", "--mesh", f["a.mesh.json"], "--placement", f["a.embed.json"]],
             self.check_index, ()),
            (["render", "--mesh", f["b.mesh.json"], "--placement", f["b.json"],
              "--out", f["b.svg"], "--quiet"], self.check_render, ()),
            (gen(small, self.gen_seeds[2], "c.mesh.json", "c.json"), self.check_gen, (small, "c")),
            (gen(small, self.gen_seeds[3], "e.mesh.json", "e.json"), self.check_gen, (small, "e")),
            (["validate", "--mesh", f["c.mesh.json"], "--placement", f["c.json"]],
             self.check_validate, ()),
            (["retract", "--mesh", f["c.mesh.json"], "--weights", f["c.weights.json"],
              "--trace", f["c.trace.jsonl"], "--out-weights", f["c.repaired.json"]],
             self.check_retract, ()),
            (["morph", "--mesh", f["c.mesh.json"], "--from", f["c.json"], "--to", f["e.json"],
              "--steps", str(FRAMES), "--svg", "--out-dir", f["frames"], "--quiet"],
             self.check_morph, ()),
        ]
        self.files = f
        self.placements = {}
        results = []
        for argv, check, args in commands:
            attempt(results, argv[0], self.command, rec, argv, check, args)
        return results

    def command(self, rec, argv, check, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with rec.op(argv[0]):
                code = torustutte.cli.main(argv)
        if code != 0:
            raise CommandFailed(f"{argv[0]} exited with {code}: {err.getvalue().strip()}")
        stdout = out.getvalue()
        problems, stats, data = check(json.loads(stdout) if stdout.strip() else None, *args)
        return Outcome(problems, digest=digest(stdout, data), stats=stats)

    def read(self, key):
        with open(self.files[key], "rb") as fh:
            return fh.read()

    def check_gen(self, _, case, tag):
        mesh_bytes, placement_bytes = self.read(f"{tag}.mesh.json"), self.read(f"{tag}.json")
        coords = np.array(json.loads(placement_bytes)["coords"], dtype=float)
        self.placements[tag] = coords
        problems = checks.embedding_problems(case.table, coords)
        if json.loads(mesh_bytes) != case.mesh_doc:
            problems.append(f"gen wrote a mesh other than the {case.m} x {case.m} grid torus")
        if coords[0].any():
            problems.append("generated placement does not pin vertex 0 at the origin")
        return problems, {}, mesh_bytes + placement_bytes

    def _weights(self, key):
        raw = self.read(key)
        rows = np.asarray(json.loads(raw)["weights"], dtype=float)
        return rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64), rows[:, 2], raw

    def check_mvc(self, _):
        _, _, w, raw = self._weights("a.weights.json")
        problems = []
        if len(w) != len(self.big_case.table.keys) or not (w > 0).all():
            problems.append("mvc wrote a weight count other than 2E or a non-positive weight")
        return problems, {}, raw

    def check_embed(self, _):
        raw = self.read("a.embed.json")
        x = np.array(json.loads(raw)["coords"], dtype=float)
        report = json.loads(self.read("a.report.json"))
        src, dst, w, _ = self._weights("a.weights.json")
        table = self.big_case.table
        err = checks.roundtrip_error(x, self.placements["a"])
        energy = checks.balance_energy(table, x, src, dst, w)
        problems = [
            *checks.embedding_problems(table, x),
            *checks.roundtrip_problems(err, "mean value"),
        ]
        if energy > checks.ENERGY_TOL:
            problems.append(f"mean value weights have balance energy {energy:.3e}")
        if report.get("is_embedding") is not True:
            problems.append("embed report does not certify an embedding")
        return problems, {"roundtrip_err": err, "energy_floor": energy}, raw

    def check_energy(self, out):
        problems = []
        if not (out["admissible"] is True and 0 <= out["energy"] <= checks.ENERGY_TOL):
            problems.append(f"mean value weights reported as energy {out['energy']}")
        return problems, {}, b""

    def check_index(self, out):
        problems = checks.index_problems(
            out["total"], out["vertex_indices"], out["face_indices"], self.big_case.table
        )
        if out["nonvanishing"] is not True:
            problems.append("generic direction form vanishes on some edge")
        return problems, {}, b""

    def check_render(self, _):
        raw = self.read("b.svg")
        return checks.svg_problems(raw.decode()), {}, raw

    def check_validate(self, out):
        n = self.small ** 2
        problems = []
        expected = {"valid": True, "vertex_count": n, "edge_count": 3 * n, "face_count": 2 * n,
                    "generator_lengths": [self.small, self.small]}
        for key, value in expected.items():
            if out.get(key) != value:
                problems.append(f"validate reported {key}={out.get(key)}, expected {value}")
        if out.get("embedding", {}).get("is_embedding") is not True:
            problems.append("validate does not certify the generated placement")
        return problems, {}, b""

    def check_retract(self, out):
        table = self.small_case.table
        trace_raw = self.read("c.trace.jsonl")
        records = [json.loads(line) for line in trace_raw.decode().splitlines() if line.strip()]
        src, dst, w, raw = self._weights("c.repaired.json")
        problems = [
            *checks.flow_problems([r["energy"] for r in records], [r["weights"] for r in records]),
            *checks.repaired_weights_problems(table, src, dst, w),
        ]
        if out["status"] != tt.CONVERGED or out["steps"] != len(records) - 1:
            problems.append(f"retract reported {out['status']} after {out['steps']} steps "
                            f"with {len(records)} trace records")
        return problems, {}, trace_raw + raw

    def check_morph(self, _):
        frames_dir = Path(self.files["frames"])
        table = self.small_case.table
        problems, data = [], b""
        frames = []
        for k in range(FRAMES):
            raw = (frames_dir / f"frame_{k:03d}.json").read_bytes()
            svg = (frames_dir / f"frame_{k:03d}.svg").read_bytes()
            data += raw + svg
            frames.append(np.array(json.loads(raw)["coords"], dtype=float))
            problems += [f"frame {k}: {p}" for p in checks.embedding_problems(table, frames[-1])]
            problems += [f"frame {k}: {p}" for p in checks.svg_problems(svg.decode())]
        err = max(
            checks.roundtrip_error(frames[0], self.placements["c"]),
            checks.roundtrip_error(frames[-1], self.placements["e"]),
        )
        problems += checks.roundtrip_problems(err, "morph endpoint")
        return problems, {"roundtrip_err": err}, data


def make(name, workdir, **sizes):
    if name == "cli":
        return Cli(workdir, **sizes)
    return {"embed-large": EmbedLarge, "repair": Repair}[name](**sizes)
