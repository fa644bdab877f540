"""Correctness checks computed apart from the program.

Everything here works from the mesh document (faces and shift rows)
and plain arrays, in numpy, with its own edge table and assembly. Each
check returns a list of problems; an empty list means it passed.
"""

import json
import xml.etree.ElementTree as ET

import numpy as np

# The program's default admissibility tolerance on the balance energy.
ENERGY_TOL = 1e-10
ROUNDTRIP_TOL = 1e-8
TOTAL_AREA_TOL = 1e-9


class EdgeTable:
    """Directed edges of a mesh document with their lattice shifts."""

    def __init__(self, mesh_doc):
        self.n = int(mesh_doc["vertex_count"])
        self.faces = np.asarray(mesh_doc["faces"], dtype=np.int64)
        src = self.faces.ravel()
        dst = np.roll(self.faces, -1, axis=1).ravel()
        self.keys = np.sort(src * self.n + dst)
        self.shifts = np.zeros((len(self.keys), 2), dtype=np.int64)
        rows = np.asarray(mesh_doc["shifts"], dtype=np.int64).reshape(-1, 4)
        for i, j, sign in ((0, 1, 1), (1, 0, -1)):
            idx = self.find(rows[:, i], rows[:, j])
            self.shifts[idx] = sign * rows[:, 2:]

    def find(self, src, dst):
        """Row of each directed edge (src, dst); raises KeyError for non-edges."""
        keys = np.asarray(src, dtype=np.int64) * self.n + np.asarray(dst, dtype=np.int64)
        idx = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if (self.keys[idx] != keys).any():
            raise KeyError("walk uses a pair of vertices that is not an edge")
        return idx

    def lifted(self, coords, src, dst):
        """x_dst + b_(src,dst) - x_src for every listed directed edge."""
        return coords[dst] + self.shifts[self.find(src, dst)] - coords[src]


def face_areas(table, coords):
    faces = table.faces
    e_ij = table.lifted(coords, faces[:, 0], faces[:, 1])
    e_ik = table.lifted(coords, faces[:, 0], faces[:, 2])
    return 0.5 * (e_ij[:, 0] * e_ik[:, 1] - e_ij[:, 1] * e_ik[:, 0])


def embedding_problems(table, coords):
    """Every face positively oriented and the areas summing to 1."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (table.n, 2) or not np.isfinite(coords).all():
        return [f"placement has shape {coords.shape} or non-finite entries"]
    areas = face_areas(table, coords)
    problems = []
    flipped = np.flatnonzero(areas <= 0)
    if len(flipped):
        problems.append(f"{len(flipped)} faces with area <= 0, first {int(flipped[0])}")
    if abs(areas.sum() - 1.0) > TOTAL_AREA_TOL:
        problems.append(f"face areas sum to {areas.sum():.12f}, not 1")
    return problems


def balance_energy(table, coords, src, dst, weights):
    """Sum over vertices of |sum_j w_ij (x_j + b_ij - x_i)|^2."""
    coords = np.asarray(coords, dtype=float)
    terms = np.asarray(weights, dtype=float)[:, None] * table.lifted(coords, src, dst)
    residual = np.zeros((table.n, 2))
    np.add.at(residual, src, terms)
    return float((residual * residual).sum())


def normal_equation_energy(table, src, dst, weights):
    """Least-squares balance energy with vertex 0 pinned, by normal equations.

    Dense, so only for small meshes.
    """
    n = table.n
    weights = np.asarray(weights, dtype=float)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (src, dst), weights)
    np.add.at(matrix, (src, src), -weights)
    rhs = np.zeros((n, 2))
    np.add.at(rhs, src, -weights[:, None] * table.shifts[table.find(src, dst)])
    reduced = matrix[:, 1:]
    free = np.linalg.solve(reduced.T @ reduced, reduced.T @ rhs)
    residual = reduced @ free - rhs
    return float((residual * residual).sum())


def repaired_weights_problems(table, src, dst, weights):
    problems = []
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        problems.append("repaired weights are not finite and positive")
    else:
        energy = normal_equation_energy(table, src, dst, weights)
        if energy > ENERGY_TOL:
            problems.append(f"repaired weights have energy {energy:.3e} > {ENERGY_TOL:.0e}")
    return problems


def loop_problems(table, loop, target, length):
    """A closed walk of mesh edges with the given shift sum and length."""
    loop = np.asarray(loop, dtype=np.int64)
    try:
        total = table.shifts[table.find(loop, np.roll(loop, -1))].sum(axis=0)
    except KeyError as exc:
        return [f"generator loop {target}: {exc}"]
    problems = []
    if tuple(int(t) for t in total) != target:
        problems.append(f"generator loop shifts sum to {tuple(total)}, not {target}")
    if len(loop) != length:
        problems.append(f"generator loop {target} has {len(loop)} edges, expected {length}")
    return problems


def flow_problems(energies, weights):
    """Energy strictly decreasing and no weight decreasing along a trace."""
    energies = np.asarray(energies, dtype=float)
    weights = np.asarray(weights, dtype=float)
    problems = []
    if not (np.diff(energies) < 0).all():
        problems.append("flow energy does not strictly decrease")
    if not (np.diff(weights, axis=0) >= 0).all():
        problems.append("a weight decreases along the flow")
    return problems


def index_problems(total, vertex_indices, face_indices, table):
    """Index total exactly 0 with every vertex and face index 0."""
    problems = []
    if total != 0:
        problems.append(f"index total is {total}, not 0")
    if len(vertex_indices) != table.n or len(face_indices) != len(table.faces):
        problems.append("index report does not cover every vertex and face")
    if any(i != 0 for i in vertex_indices) or any(i != 0 for i in face_indices):
        problems.append("some vertex or face index is not 0")
    return problems


def roundtrip_error(coords, expected):
    return float(np.abs(np.asarray(coords) - np.asarray(expected)).max())


def roundtrip_problems(err, what):
    if not err <= ROUNDTRIP_TOL:
        return [f"{what} round trip error {err:.3e} > {ROUNDTRIP_TOL:.0e}"]
    return []


def svg_problems(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag}"]
    return []


def json_coords_problems(text, coords):
    """Dumped placement JSON parses back to exactly the same coordinates."""
    parsed = np.array(json.loads(text)["coords"], dtype=float)
    if parsed.shape != np.shape(coords) or not np.array_equal(parsed, coords):
        return ["placement JSON does not round-trip exactly"]
    return []
