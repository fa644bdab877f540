"""Shared oracles for the test suite.

Everything in this module recomputes expected values through a second,
dissimilar route: loop-based assembly instead of vectorized scatter,
normal equations instead of least-squares, arccos instead of the
algebraic half-angle identity, exhaustive walk enumeration instead of
breadth-first search. Tests compare the production code against these.
"""

import math
from collections import deque

import numpy as np
import scipy.sparse.linalg
from scipy.sparse.csgraph import breadth_first_order

from torustutte import (
    GeneratorLoops,
    Placement,
    WeightAssignment,
    build_mesh,
    edge_vectors,
    face_signed_areas,
    residual_structure,
)
from torustutte.errors import (
    BadFaceError,
    BadOrientationError,
    CocycleViolationError,
    DisconnectedError,
    EulerCharacteristicError,
    MeshError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    ShiftConflictError,
)
from torustutte.flow import _velocity
from torustutte.render import _clip_polygon
from torustutte.tutte import _validated_values


# ---------------------------------------------------------------------------
# Spheres and pinched spheres (invalid-input fixtures)

OCTAHEDRON = [
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (5, 2, 1),
    (5, 3, 2),
    (5, 4, 3),
    (5, 1, 4),
]


def subdivide(faces):
    """One round of 1-to-4 triangle subdivision, orientation preserved."""
    midpoints = {}
    next_id = 1 + max(max(f) for f in faces)

    def midpoint(a, b):
        nonlocal next_id
        key = (min(a, b), max(a, b))
        if key not in midpoints:
            midpoints[key] = next_id
            next_id += 1
        return midpoints[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return out


def sphere_faces():
    """Twice-subdivided octahedron: V=66, E=192, F=128, Euler 2."""
    return subdivide(subdivide(OCTAHEDRON))


def pinched_sphere_faces():
    """Sphere with three far-apart vertices glued into one.

    The result has V=64, E=192, F=128, so the Euler characteristic is 0
    and every edge still bounds exactly two consistently oriented faces.
    Only the vertex-link check can tell it is not a torus: the glued
    vertex has three disjoint link cycles.
    """
    faces = sphere_faces()
    relabel = {}

    def lab(v):
        if v in (0, 1, 5):
            return 0
        if v not in relabel:
            relabel[v] = len(relabel) + 1
        return relabel[v]

    return [tuple(lab(v) for v in face) for face in faces]


def random_diagonal_grid(m, rng):
    """m x m grid torus with a seeded diagonal per cell: (faces, shifts).

    Vertex x + m*y sits at (x/m, y/m), so ``grid_coords(m)`` embeds it.
    """
    faces, shifts = [], {}
    for y in range(m):
        for x in range(m):
            corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
            ids = [cx % m + m * (cy % m) for cx, cy in corners]
            offs = [(cx // m, cy // m) for cx, cy in corners]
            flip = rng.integers(2) == 1
            for tri in ((0, 1, 3), (1, 2, 3)) if flip else ((0, 1, 2), (0, 2, 3)):
                faces.append(tuple(ids[t] for t in tri))
                for a, b in zip(tri, tri[1:] + tri[:1]):
                    shift = (offs[b][0] - offs[a][0], offs[b][1] - offs[a][1])
                    shifts[(ids[a], ids[b])] = shift
    return faces, shifts


def strip_torus(rows, cols, first=0):
    """rows x cols grid torus, ids from ``first``: (faces, shifts).

    Vertex first + x + cols*y sits at (x/cols, y/rows); each cell is split
    along its (+1, +1) diagonal and wrapping edges carry their shift.
    """
    faces, shifts = [], {}
    for y in range(rows):
        for x in range(cols):
            corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
            ids = [first + cx % cols + cols * (cy % rows) for cx, cy in corners]
            offs = [(cx // cols, cy // rows) for cx, cy in corners]
            for tri in ((0, 1, 2), (0, 2, 3)):
                faces.append(tuple(ids[t] for t in tri))
                for a, b in zip(tri, tri[1:] + tri[:1]):
                    shift = (offs[b][0] - offs[a][0], offs[b][1] - offs[a][1])
                    if shift != (0, 0):
                        shifts[(ids[a], ids[b])] = shift
    return faces, shifts


def mesh_of(faces, shifts=None, vertex_count=None):
    """``build_mesh`` of a ``{(i, j): (bx, by)}`` shift mapping, given as its rows."""
    rows = [(*edge, *shift) for edge, shift in (shifts or {}).items()]
    return build_mesh(faces, rows, vertex_count)


def canonical_shift_dict(mesh):
    """One orientation per edge, as a mapping for ``mesh_of``."""
    out = {}
    for k, (i, j) in enumerate(mesh.directed_edges):
        if i < j:
            out[(int(i), int(j))] = tuple(int(x) for x in mesh.shifts[k])
    return out


def edge_id(mesh, i, j):
    """Row of the directed edge (i, j) in ``directed_edges``, by ``edge_ids``;
    KeyError for a non-edge."""
    k = int(mesh.edge_ids(i, j))
    if k < 0:
        raise KeyError((i, j))
    return k


def is_edge(mesh, i, j):
    return int(mesh.edge_ids(i, j)) >= 0


def ring(mesh, v):
    """Neighbors of v in counterclockwise order, read off the rotation's CSR arrays."""
    a, b = mesh.rotation_offsets[v:v + 2]
    return tuple(mesh.directed_edges[mesh.rotation_edges[a:b], 1].tolist())


def opposite_vertex(mesh):
    """Third vertex of the face left of each directed edge, from ``face_edges``."""
    out = np.empty(len(mesh.directed_edges), dtype=np.int32)
    out[mesh.face_edges] = mesh.faces[:, [2, 0, 1]]
    return out


def face_of_edge(mesh):
    """Face left of each directed edge, from ``face_edges``."""
    out = np.empty(len(mesh.directed_edges), dtype=np.int32)
    out[mesh.face_edges] = np.arange(len(mesh.faces))[:, None]
    return out


def regauged(mesh, t):
    """The same torus with vertex v moved by the lattice vector t[v]: b_ij += t_j - t_i."""
    shifts = {
        (i, j): (bx + t[j][0] - t[i][0], by + t[j][1] - t[i][1])
        for (i, j), (bx, by) in canonical_shift_dict(mesh).items()
    }
    return mesh_of(mesh.faces.tolist(), shifts)


def grid_coords(m):
    return np.array([(x / m, y / m) for y in range(m) for x in range(m)])


# ---------------------------------------------------------------------------
# Reference fixture builders

def oracle_gen_grid(m):
    """``gen_grid(m)`` built cell by cell, one shift per directed edge."""
    faces = []
    shifts = {}

    def vid(x, y):
        return (x % m) + m * (y % m)

    def offset(x, y):
        # Lattice translate taking the wrapped representative to (x, y).
        return np.array([x // m, y // m], dtype=np.int64)

    for y in range(m):
        for x in range(m):
            corners = ((x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1))
            a, b, c, d = (vid(*p) for p in corners)
            off_a, off_b, off_c, off_d = (offset(*p) for p in corners)
            faces.append((a, b, c))
            faces.append((a, c, d))
            for (p, po), (q, qo) in (
                ((a, off_a), (b, off_b)),
                ((b, off_b), (c, off_c)),
                ((c, off_c), (a, off_a)),
                ((a, off_a), (c, off_c)),
                ((c, off_c), (d, off_d)),
                ((d, off_d), (a, off_a)),
            ):
                shifts.setdefault((p, q), tuple(qo - po))
    mesh = mesh_of(faces, shifts)
    return mesh, Placement(grid_coords(m))


def oracle_gen_k7():
    """``gen_k7()`` with each edge's shift solved from the sublattice basis."""
    period = np.array([[7, -2], [0, 1]], dtype=float)  # columns span the sublattice
    to_torus = np.linalg.inv(period)
    reps = {i: np.array([i, 0], dtype=float) for i in range(7)}
    steps = {1: (1, 0), 2: (0, 1), 3: (1, 1), 6: (-1, 0), 5: (0, -1), 4: (-1, -1)}

    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 3) % 7, (i + 2) % 7))
    shifts = {}
    for i in range(7):
        for d, step in steps.items():
            j = (i + d) % 7
            lam = reps[i] + np.array(step, dtype=float) - reps[j]
            b = to_torus @ lam
            shifts[(i, j)] = (int(round(b[0])), int(round(b[1])))
    mesh = mesh_of(faces, shifts)
    coords = np.array([to_torus @ reps[i] for i in range(7)])
    return mesh, Placement(coords)


# ---------------------------------------------------------------------------
# Reference mesh builder

def oracle_mesh_tables(faces, shifts=None, vertex_count=None):
    """Every mesh table, built through nested dict passes.

    The dict-based constructor the array build replaced: same checks,
    same order, same messages. Returns the tables by attribute name.
    """
    faces = np.asarray(faces, dtype=np.int64)
    if faces.ndim != 2 or faces.shape[1] != 3 or faces.shape[0] == 0:
        raise BadFaceError("faces must be a non-empty list of vertex triples")
    if faces.min() < 0:
        raise BadFaceError("negative vertex id in face list")
    inferred = int(faces.max()) + 1
    if vertex_count is None:
        vertex_count = inferred
    elif vertex_count < inferred:
        raise BadFaceError(
            f"face references vertex {inferred - 1} but vertex_count is {vertex_count}"
        )
    if vertex_count < 7:
        raise MeshError(
            f"torus triangulations need at least 7 vertices, got {vertex_count}"
        )
    for f in faces:
        if len(set(int(v) for v in f)) != 3:
            raise BadFaceError(f"face {tuple(int(v) for v in f)} repeats a vertex")

    face_of = {}
    for fi, (i, j, k) in enumerate(faces):
        for a, b in ((i, j), (j, k), (k, i)):
            key = (int(a), int(b))
            if key in face_of:
                raise BadOrientationError(
                    f"directed edge {key} appears in two faces; orientations disagree"
                )
            face_of[key] = fi
    for i, j in face_of:
        if (j, i) not in face_of:
            raise NonManifoldEdgeError(f"edge {{{i}, {j}}} borders only one face")

    edge_count = len(face_of) // 2
    if vertex_count - edge_count + len(faces) != 0:
        raise EulerCharacteristicError(
            f"V - E + F = {vertex_count - edge_count + len(faces)}, expected 0"
        )

    successor = [dict() for _ in range(vertex_count)]
    for i, j, k in faces:
        successor[int(i)][int(j)] = int(k)
        successor[int(j)][int(k)] = int(i)
        successor[int(k)][int(i)] = int(j)
    rotation = []
    for v in range(vertex_count):
        ring = successor[v]
        if not ring:
            raise DisconnectedError(f"vertex {v} lies in no face")
        start = min(ring)
        cycle = [start]
        cur = ring[start]
        while cur != start:
            if len(cycle) > len(ring):
                raise NonManifoldVertexError(
                    f"faces around vertex {v} do not close into a cycle"
                )
            cycle.append(cur)
            cur = ring[cur]
        if len(cycle) != len(ring):
            raise NonManifoldVertexError(f"faces around vertex {v} form more than one cycle")
        rotation.append(tuple(cycle))

    seen = {0}
    queue = deque([0])
    while queue:
        for u in rotation[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    if len(seen) != vertex_count:
        raise DisconnectedError("one-skeleton is not connected")

    given = {}
    for key, value in dict(shifts or {}).items():
        i, j = int(key[0]), int(key[1])
        if (i, j) not in face_of:
            raise MeshError(f"shift given for non-edge ({i}, {j})")
        given[(i, j)] = np.array([int(value[0]), int(value[1])], dtype=np.int64)
    shift_map = {}
    for i, j in face_of:
        if (i, j) in shift_map:
            continue
        fwd, bwd = given.get((i, j)), given.get((j, i))
        if fwd is not None and bwd is not None:
            if fwd[0] != -bwd[0] or fwd[1] != -bwd[1]:
                raise ShiftConflictError(
                    f"shifts for ({i}, {j}) and ({j}, {i}) are not antisymmetric"
                )
        elif fwd is None and bwd is None:
            fwd = np.zeros(2, dtype=np.int64)
        elif fwd is None:
            fwd = -bwd
        shift_map[(i, j)] = fwd
        shift_map[(j, i)] = -fwd

    for i, j, k in faces:
        total = (
            shift_map[(int(i), int(j))]
            + shift_map[(int(j), int(k))]
            + shift_map[(int(k), int(i))]
        )
        if total[0] != 0 or total[1] != 0:
            raise CocycleViolationError(
                f"shifts around face ({i}, {j}, {k}) sum to {tuple(total.tolist())}"
            )

    directed = sorted(face_of)
    index = {e: pos for pos, e in enumerate(directed)}
    opposite = np.empty(len(directed), dtype=np.int64)
    for i, j, k in faces:
        opposite[index[(int(i), int(j))]] = int(k)
        opposite[index[(int(j), int(k))]] = int(i)
        opposite[index[(int(k), int(i))]] = int(j)
    return {
        "edge_count": edge_count,
        "directed_edges": np.array(directed, dtype=np.int64),
        "shifts": np.array([shift_map[e] for e in directed], dtype=np.int64),
        "reverse_index": np.array([index[(j, i)] for i, j in directed], dtype=np.int64),
        "face_edges": np.array(
            [[index[(int(a), int(b))] for a, b in ((i, j), (j, k), (k, i))] for i, j, k in faces],
            dtype=np.int64,
        ),
        "opposite_vertex": opposite,
        "face_of_edge": np.array([face_of[e] for e in directed], dtype=np.int64),
        "rotation": tuple(rotation),
    }


# ---------------------------------------------------------------------------
# Exhaustive loop search

def brute_shortest_loop(mesh, target, limit):
    """Minimum length of a closed walk whose shifts sum to ``target``.

    Plain depth-first enumeration over all walks of length <= limit,
    nothing shared with the production search. Returns None when no
    such walk exists within the limit. Requires every shift entry in
    {-1, 0, 1}; the distance pruning below relies on that step bound.
    """
    shifts = mesh.shifts
    assert int(np.abs(shifts).max()) <= 1
    tx, ty = int(target[0]), int(target[1])
    steps = []
    for v in range(mesh.vertex_count):
        row = []
        for u in ring(mesh, v):
            b = mesh.shifts[edge_id(mesh, v, u)]
            row.append((u, int(b[0]), int(b[1])))
        steps.append(tuple(row))
    best = None

    def walk(start, v, sx, sy, depth):
        nonlocal best
        if depth > 0 and v == start and sx == tx and sy == ty:
            best = depth
            return
        cap = limit if best is None else best - 1
        if depth >= cap or max(abs(sx - tx), abs(sy - ty)) > cap - depth:
            return
        for u, bx, by in steps[v]:
            walk(start, u, sx + bx, sy + by, depth + 1)

    for start in range(mesh.vertex_count):
        walk(start, start, 0, 0, 0)
    return best


def oracle_shortest_loop(mesh, target):
    """Shortest closed walk with shift sum ``target``, searched from every vertex.

    The reference for ``generator_loops``, which searches from vertex 0
    only and in the gauge of a spanning tree: breadth-first over
    (vertex, accumulated shift) states in the mesh's own gauge, with
    components clamped to [-V, V], moves in rotation order, every vertex
    tried as a start in ascending order, first strictly shortest loop
    wins. The clamp depends on the gauge, so after a wide re-gauging it
    may return a longer loop or none. Returns None when no loop is found.
    """
    n = mesh.vertex_count
    steps = [
        tuple((u, *map(int, mesh.shifts[edge_id(mesh, v, u)])) for u in ring(mesh, v))
        for v in range(n)
    ]
    tx, ty = int(target[0]), int(target[1])
    best = None
    for start in range(n):
        goal = (start, tx, ty)
        parent = {(start, 0, 0): None}
        frontier = [(start, 0, 0)]
        depth = 0
        found = None
        while frontier and found is None:
            depth += 1
            if best is not None and depth >= len(best):
                break
            nxt = []
            for state in frontier:
                for u, bx, by in steps[state[0]]:
                    ns = (u, state[1] + bx, state[2] + by)
                    if abs(ns[1]) > n or abs(ns[2]) > n:
                        continue
                    if ns == goal:
                        found = state
                        break
                    if ns not in parent:
                        parent[ns] = state
                        nxt.append(ns)
                if found is not None:
                    break
            frontier = nxt
        if found is not None:
            path = []
            while found is not None:
                path.append(found[0])
                found = parent[found]
            best = tuple(reversed(path))
    return best


def csgraph_predecessors(mesh):
    """Breadth-first predecessors from vertex 0 by SciPy's csgraph, -9999 at the root."""
    n, targets = mesh.vertex_count, mesh.directed_edges[:, 1].copy()
    graph = scipy.sparse.csr_matrix(
        (np.ones(len(targets)), targets, mesh.rotation_offsets), shape=(n, n)
    )
    return breadth_first_order(graph, 0, return_predecessors=True)[1]


def csgraph_generator_loops(mesh):
    """``generator_loops`` as it was with SciPy's breadth-first tree, uncached.

    The reference for the NumPy tree search: the same (vertex, sum of c)
    state search, in the gauge of csgraph's tree, edges found by lookup.
    """
    n = mesh.vertex_count
    src, dst = mesh.directed_edges.T.copy()
    pred = csgraph_predecessors(mesh)
    tree = mesh.edge_ids(pred, np.arange(n))
    p = np.where(tree[:, None] >= 0, mesh.shifts[tree], 0).astype(np.int64)
    up = np.maximum(pred, 0)
    while up.any():
        p, up = p + p[up], up[up]
    c = p[src] + mesh.shifts - p[dst]
    ring = mesh.rotation_edges
    moves = np.column_stack([dst[ring], c[ring]]).tolist()
    bounds = mesh.rotation_offsets.tolist()
    steps = [tuple(map(tuple, moves[a:b])) for a, b in zip(bounds, bounds[1:])]
    horizontal, vertical = (0, 1, 0), (0, 0, 1)
    parent = {(0, 0, 0): None}
    queue = deque(parent)
    while horizontal not in parent or vertical not in parent:
        state = queue.popleft()
        v, x, y = state
        for u, cx, cy in steps[v]:
            move = (u, x + cx, y + cy)
            if move not in parent:
                parent[move] = state
                queue.append(move)

    def walk(goal):
        path, state = [], parent[goal]
        while state is not None:
            path.append(state[0])
            state = parent[state]
        return tuple(reversed(path))

    return GeneratorLoops(horizontal=walk(horizontal), vertical=walk(vertical))


# ---------------------------------------------------------------------------
# Balance system oracles

def oracle_assemble(mesh, values):
    """Dense A, b built edge by edge from the definition."""
    n = mesh.vertex_count
    matrix = np.zeros((n, n))
    rhs = np.zeros((n, 2))
    for k, (i, j) in enumerate(mesh.directed_edges):
        w = float(values[k])
        matrix[i, j] += w
        matrix[i, i] -= w
        rhs[i] -= w * mesh.shifts[k]
    return matrix, rhs


def oracle_solve(mesh, values):
    """Pinned least squares through explicitly formed normal equations.

    Returns (coords, residual, energy). Uses an LU solve of A_r^T A_r,
    a completely different factorization path from the production code.
    """
    matrix, rhs = oracle_assemble(mesh, values)
    reduced = matrix[:, 1:]
    gram = reduced.T @ reduced
    free = np.linalg.solve(gram, reduced.T @ rhs)
    coords = np.vstack([np.zeros((1, 2)), free])
    residual = reduced @ free - rhs
    return coords, residual, float(np.sum(residual * residual))


def oracle_colamd_solve(mesh, values):
    """The balance solve by a COLAMD-ordered, partially pivoted LU of A[1:, 1:].

    A transposed solve gives pi with pi_0 = 1 and a plain one the
    coordinates, the other way round from the production solver, which
    factors A[1:, 1:]^T in a symmetric ordering with diagonal pivots.
    Returns (coords, pi, drift, energy).
    """
    matrix, rhs = oracle_assemble(mesh, values)
    matrix = scipy.sparse.csc_matrix(matrix)
    lu = scipy.sparse.linalg.splu(matrix[1:, 1:])
    pi = np.concatenate([[1.0], lu.solve(-matrix[0, 1:].toarray().ravel(), trans="T")])
    drift = pi @ rhs
    pi_sq = float(pi @ pi)
    free = lu.solve(rhs[1:] - np.outer(pi[1:], drift / pi_sq))
    return np.vstack([np.zeros((1, 2)), free]), pi, drift, float(drift @ drift) / pi_sq


def oracle_ramp(t):
    """The flow's smooth ramp with both exponentials evaluated on every entry."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        hi = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
        return lo / (lo + hi)


def flow_velocity(mesh, weights):
    """dw/dt of the retraction flow at non-admissible weights, from the
    edge projections of their residual report."""
    return _velocity(mesh, weights.values, residual_structure(mesh, weights).projections)


def edge_mapping(mesh, values):
    """``{(i, j): value}`` over every directed edge, values aligned with directed_edges."""
    return dict(zip(map(tuple, mesh.directed_edges.tolist()), np.asarray(values).tolist()))


def oracle_weights_from_json(mesh, doc):
    """Weight values by the two-path reader the one array path replaced.

    A number table that lists every edge once is read as arrays, its ids
    truncated as ``int`` truncates them. Any other document is read row
    by row into a dict, which names the first duplicate entry, then the
    first directed edge with no entry and the first entry that is not an
    edge, and fails on the first mistyped row.
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
                return _validated_values(mesh, WeightAssignment(values))
    entries = {}
    for i, j, w in doc["weights"]:
        key = (int(i), int(j))
        if key in entries:
            raise ValueError(f"duplicate weight entry for edge {key}")
        entries[key] = float(w)
    index = {tuple(e): k for k, e in enumerate(mesh.directed_edges.tolist())}
    missing = [e for e in index if e not in entries]
    if missing:
        raise ValueError(f"missing weight for directed edge {missing[0]}")
    strays = [key for key in entries if key not in index]
    if strays:
        raise ValueError(f"weight given for non-edge {strays[0]}")
    values = np.empty(edges)
    values[[index[key] for key in entries]] = list(entries.values())
    return _validated_values(mesh, WeightAssignment(values))


def oracle_left_null(matrix):
    """Left null vector of A, sign-normalized, via full SVD."""
    u_mat, _, _ = np.linalg.svd(np.asarray(matrix))
    pi = u_mat[:, -1]
    if pi.sum() < 0:
        pi = -pi
    return pi


def residual_rows(report):
    """The rank-one residual rows -pi d^T / |pi|^2 of a residual report."""
    return np.outer(report.pi, -report.drift / (report.pi @ report.pi))


def max_weight_ratio(mesh, values):
    """Largest w_ij / w_ji over the directed edges."""
    return float((values / values[mesh.reverse_index]).max())


def oracle_singular_ratio(residuals):
    """sigma_2 / sigma_1 of the residual rows by SVD; 0 for a zero residual."""
    sv = np.linalg.svd(residuals, compute_uv=False)
    return float(sv[1] / sv[0]) if sv[0] > 0 else 0.0


# ---------------------------------------------------------------------------
# Mean value weight oracle

def oracle_mean_value(mesh, placement):
    """Weights via explicit arccos corner angles and a face-list scan."""
    coords = placement.coords
    faces = [tuple(int(v) for v in f) for f in mesh.faces]
    out = np.empty(len(mesh.directed_edges))
    for k, (i, j) in enumerate(mesh.directed_edges):
        vec = coords[j] + mesh.shifts[k] - coords[i]
        length = math.hypot(vec[0], vec[1])
        tans = []
        for face in faces:
            if i in face and j in face:
                other = next(v for v in face if v != i and v != j)
                ovec = (
                    coords[other]
                    + mesh.shifts[edge_id(mesh, i, other)]
                    - coords[i]
                )
                olen = math.hypot(ovec[0], ovec[1])
                cosang = float(np.dot(vec, ovec)) / (length * olen)
                angle = math.acos(min(1.0, max(-1.0, cosang)))
                tans.append(math.tan(angle / 2.0))
        assert len(tans) == 2
        out[k] = (tans[0] + tans[1]) / length
    return out


def oracle_mean_value_per_edge(mesh, placement):
    """The same tangent formula as mean_value_weights, one edge at a time.

    Looks up the two neighbouring edges (i, k) through ``edge_id``.
    """
    coords = placement.coords
    src, dst = mesh.directed_edges.T
    vecs = coords[dst] - coords[src] + mesh.shifts

    def tan_half(u, v):
        cross = abs(u[0] * v[1] - u[1] * v[0])
        dot = u[0] * v[0] + u[1] * v[1]
        return (np.hypot(*u) * np.hypot(*v) - dot) / cross

    out = np.empty(len(vecs))
    opposite = opposite_vertex(mesh)
    for k, (i, j) in enumerate(mesh.directed_edges):
        u = vecs[k]
        k1 = int(opposite[k])
        k2 = int(opposite[mesh.reverse_index[k]])
        t1 = tan_half(u, vecs[edge_id(mesh, int(i), k1)])
        t2 = tan_half(u, vecs[edge_id(mesh, int(i), k2)])
        out[k] = (t1 + t2) / np.hypot(u[0], u[1])
    return out


def oracle_mean_value_edge_ids(mesh, placement):
    """mean_value_weights with the neighbouring edges (i, k) looked up by
    ``edge_ids`` from the opposite vertices instead of read off the corners."""
    vecs = edge_vectors(mesh, placement).T
    src = mesh.directed_edges[:, 0]
    opposite = opposite_vertex(mesh)
    left = vecs[:, mesh.edge_ids(src, opposite)]
    right = vecs[:, mesh.edge_ids(src, opposite[mesh.reverse_index])]

    def tan_half(u, v):
        cross = abs(u[0] * v[1] - u[1] * v[0])
        dot = u[0] * v[0] + u[1] * v[1]
        return (np.hypot(*u) * np.hypot(*v) - dot) / cross

    return (tan_half(vecs, left) + tan_half(vecs, right)) / np.hypot(*vecs)


# ---------------------------------------------------------------------------
# Index oracle

def oracle_sign_changes(values, tol):
    """Cyclic sign changes of a value list, zeros skipped; None if all zero."""
    signs = [1 if v > 0 else -1 for v in values if abs(v) > tol]
    if not signs:
        return None
    return sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)


def oracle_indices(mesh, values, tol):
    """Vertex and face indices, None where degenerate, cell by cell.

    Vertex rings come from ``ring`` and ``edge_id`` lookups.
    """
    def index(vals):
        sc = oracle_sign_changes(vals, tol)
        return None if sc is None else (2 - sc) / 2

    vertex = [
        index([values[edge_id(mesh, v, u)] for u in ring(mesh, v)])
        for v in range(mesh.vertex_count)
    ]
    face = [index(list(values[e])) for e in mesh.face_edges]
    return vertex, face


# ---------------------------------------------------------------------------
# Area oracle

def oracle_face_areas(mesh, placement):
    """Signed areas by the shoelace formula on chained lifts."""
    coords = placement.coords
    out = np.empty(len(mesh.faces))
    for fi, (a, b, c) in enumerate(mesh.faces):
        pa = coords[a]
        pb = coords[b] + mesh.shifts[edge_id(mesh, a, b)]
        pc = pb + mesh.shifts[edge_id(mesh, b, c)] + coords[c] - coords[b]
        out[fi] = 0.5 * (
            pa[0] * (pb[1] - pc[1])
            + pb[0] * (pc[1] - pa[1])
            + pc[0] * (pa[1] - pb[1])
        )
    return out


# ---------------------------------------------------------------------------
# Scalar SVG renderer

def _oracle_clip_segment(p, q):
    """Liang-Barsky clip of segment p->q to the unit square, one boundary at a time.

    Returns (a, b) endpoints or None when the intersection is empty or
    a single point.
    """
    d = (q[0] - p[0], q[1] - p[1])
    t0, t1 = 0.0, 1.0
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            # sign=+1: x >= 0 boundary, sign=-1: x <= 1 boundary.
            num = -p[axis] if sign > 0 else p[axis] - 1.0
            den = d[axis] if sign > 0 else -d[axis]
            if den == 0.0:
                if num > 0.0:
                    return None
                continue
            t = num / den
            if den > 0.0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
            if t0 >= t1:
                return None
    a = (p[0] + t0 * d[0], p[1] + t0 * d[1])
    b = (p[0] + t1 * d[0], p[1] + t1 * d[1])
    if abs(a[0] - b[0]) < 1e-12 and abs(a[1] - b[1]) < 1e-12:
        return None
    return a, b


_ORACLE_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]


def _oracle_svg(mesh, placement, size, labels, highlight_flipped, root, edge_lines):
    """The SVG frame, flipped faces and labels around the edge layer that
    ``edge_lines(i, j, a, b)`` writes for the lifted edge a -> b."""
    vecs = edge_vectors(mesh, placement)
    areas = face_signed_areas(mesh, placement)
    pos = np.mod(placement.coords, 1.0)

    def to_px(p):
        return f"{p[0] * size:.3f},{(1.0 - p[1]) * size:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}"{root}>',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#fdfdfb" '
        'stroke="#888" stroke-width="1"/>',
    ]
    if highlight_flipped:
        for fi in np.nonzero(areas < 0)[0]:
            i = int(mesh.faces[fi][0])
            e_ij, e_jk, _ = mesh.face_edges[fi]
            base = pos[i]
            tri = [
                tuple(base),
                tuple(base + vecs[e_ij]),
                tuple(base + vecs[e_ij] + vecs[e_jk]),
            ]
            for ox, oy in _ORACLE_OFFSETS:
                poly = _clip_polygon([(x + ox, y + oy) for x, y in tri])
                if len(poly) >= 3:
                    pts = " ".join(to_px(p) for p in poly)
                    parts.append(
                        f'<polygon class="flipped" data-face="{int(fi)}" '
                        f'points="{pts}" fill="#e4572e" fill-opacity="0.45" stroke="none"/>'
                    )
    for k, (i, j) in enumerate(mesh.directed_edges):
        if i > j:
            continue
        a = pos[int(i)]
        parts.extend(edge_lines(int(i), int(j), a, a + vecs[k]))
    if labels:
        for v, p in enumerate(pos):
            parts.append(
                f'<text x="{p[0] * size + 4:.1f}" y="{(1.0 - p[1]) * size - 4:.1f}" '
                f'font-size="{max(10, size // 60)}" fill="#b33">{v}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def oracle_render_svg(mesh, placement, size=800, labels=False, highlight_flipped=True):
    """render_svg with a loop over (edge, translate) pairs: an edge longer
    than 3 is cut to length 3, and each translate whose box meets the
    closed square writes one unclipped line with %d and %.3f."""

    def edge_lines(i, j, a, b):
        d = b - a
        length = np.hypot(d[0], d[1])
        if length > 3.0:
            b = a + d * (3.0 / length)
        lines = []
        for ox, oy in _ORACLE_OFFSETS:
            p, q = (a[0] + ox, a[1] + oy), (b[0] + ox, b[1] + oy)
            if all(min(p[k], q[k]) <= 1.0 and max(p[k], q[k]) >= 0.0 for k in (0, 1)):
                lines.append(
                    '<line class="edge" data-edge="%d-%d" x1="%.3f" y1="%.3f" x2="%.3f" '
                    'y2="%.3f" stroke="#27496d" stroke-width="1.4"/>'
                    % (i, j, p[0] * size, (1.0 - p[1]) * size, q[0] * size, (1.0 - q[1]) * size)
                )
        return lines

    return _oracle_svg(mesh, placement, size, labels, highlight_flipped, ' overflow="hidden"', edge_lines)


def oracle_clipped_svg(mesh, placement, size=800, labels=False, highlight_flipped=True):
    """The reference picture: the earlier renderer, which clipped each edge
    under the nine unit translates to the square and grouped its pieces."""

    def to_px(p):
        return f"{p[0] * size:.3f},{(1.0 - p[1]) * size:.3f}"

    def edge_lines(i, j, a, b):
        segs = []
        for ox, oy in _ORACLE_OFFSETS:
            clip = _oracle_clip_segment((a[0] + ox, a[1] + oy), (b[0] + ox, b[1] + oy))
            if clip is not None:
                segs.append(clip)
        lines = "".join(
            f'<line x1="{to_px(p).split(",")[0]}" y1="{to_px(p).split(",")[1]}" '
            f'x2="{to_px(q).split(",")[0]}" y2="{to_px(q).split(",")[1]}" '
            'stroke="#27496d" stroke-width="1.4"/>'
            for p, q in segs
        )
        return [f'<g class="edge" data-edge="{i}-{j}">{lines}</g>']

    return _oracle_svg(mesh, placement, size, labels, highlight_flipped, "", edge_lines)


# ---------------------------------------------------------------------------
# Call counts

def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that calls to it are counted; returns the counter."""
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# ---------------------------------------------------------------------------
# Random weight fields

def random_symmetric_weights(mesh, rng, lo, hi):
    values = np.zeros(len(mesh.directed_edges))
    for k, (i, j) in enumerate(mesh.directed_edges):
        if i < j:
            w = rng.uniform(lo, hi)
            values[k] = w
            values[mesh.reverse_index[k]] = w
    return values


def random_directed_weights(mesh, rng, lo, hi):
    return rng.uniform(lo, hi, len(mesh.directed_edges))
