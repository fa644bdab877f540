"""Triangulations of the flat unit torus, stored combinatorially.

A mesh is a list of counterclockwise triangular faces on vertex ids
0..n-1 together with one integer lattice vector per directed edge, the
shift b_ij. The shift says which translate of vertex j's representative
the edge from i actually reaches once everything is unrolled to the
plane: the lifted edge vector is x_j + b_ij - x_i. Shifts are
antisymmetric, sum to zero around every face, and sum to (1,0) or (0,1)
along loops that generate the two torus directions.

Validation happens in :func:`build_mesh`, in int64; the class itself is
dumb storage plus derived lookup tables, int32 since a valid mesh has
V = F/2, and is immutable after construction. :func:`generator_loops`
finds the shortest closed walks through vertex 0 of both classes by one
breadth-first search over the cover graph, in the gauge of a
breadth-first tree from vertex 0.

Both graph searches are NumPy array passes, so the module needs no
SciPy: connectivity by hook and shortcut over the edge list, in rounds
that grow like log V, and the breadth-first tree one level at a time
over the rotation's CSR arrays.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    BadFaceError,
    BadOrientationError,
    CocycleViolationError,
    DisconnectedError,
    EulerCharacteristicError,
    MeshError,
    NoGeneratorLoopError,
    NonManifoldEdgeError,
    NonManifoldVertexError,
    ShiftConflictError,
)

MIN_VERTICES = 7


@dataclass(frozen=True)
class GeneratorLoops:
    """Shortest closed walks through vertex 0 whose shift sums are (1,0) and (0,1).

    Each walk is a vertex sequence starting at 0; the closing edge from
    the last vertex back to 0 is implicit. Lengths are the edge
    counts, so ``len(horizontal)`` and ``len(vertical)``.
    """

    horizontal: tuple
    vertical: tuple


class TorusTriangulation:
    """Validated torus triangulation. Construct through :func:`build_mesh`.

    Attributes
    ----------
    vertex_count : int
    faces : (F, 3) int32 array, counterclockwise vertex triples
    directed_edges : (2E, 2) int32 array in lexicographic (source, target) order
    shifts : (2E, 2) int32 array aligned with ``directed_edges``
    reverse_index : (2E,) int32 array, position of each edge's reverse
    rotation_offsets, rotation_edges : the rotation as int32 CSR arrays;
        the outgoing edges of v in counterclockwise order are
        ``rotation_edges[rotation_offsets[v]:rotation_offsets[v + 1]]``
    face_edges : (F, 3) int32 array, edge indices of (i->j, j->k, k->i)

    ``edge_ids(i, j)`` looks up the positions of edges in ``directed_edges``.
    Instances are immutable after construction and safe to share between
    threads; the only internal mutation is the cache of generator loops.
    """

    def __init__(self, faces, shifts=None, vertex_count=None):
        try:
            faces = np.asarray(_integral(faces, "vertex id"), dtype=np.int64)
        except OverflowError:
            face = next(f for f in faces if any(not -2**63 <= int(v) < 2**63 for v in f))
            raise BadFaceError(
                f"face {tuple(map(int, face))} has a vertex id outside int64"
            ) from None
        if isinstance(vertex_count, float):
            if not vertex_count.is_integer():
                raise MeshError(f"vertex_count {vertex_count!r} is not an integer")
            vertex_count = int(vertex_count)
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
        if vertex_count < MIN_VERTICES:
            raise MeshError(
                f"torus triangulations need at least {MIN_VERTICES} vertices, got {vertex_count}"
            )
        nxt = np.roll(faces, -1, axis=1)
        repeats = (faces == nxt).any(axis=1)
        if repeats.any():
            raise BadFaceError(f"face {tuple(faces[np.argmax(repeats)].tolist())} repeats a vertex")

        # Corner c = 3 * face + slot is the directed edge from that slot to
        # the next. Each directed edge must appear in exactly one face, and
        # its reverse in exactly one other; together that is the closed
        # oriented surface condition on edges. Keys use dense vertex ranks,
        # so they stay far from int64 overflow whatever the ids are.
        src, dst = faces.ravel(), nxt.ravel()
        ids, rank = np.unique(src, return_inverse=True)
        rank_dst = np.roll(rank.reshape(faces.shape), -1, axis=1).ravel()
        keys = rank * len(ids) + rank_dst
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        repeat = order[1:][sorted_keys[1:] == sorted_keys[:-1]]
        if len(repeat):
            c = int(repeat.min())
            raise BadOrientationError(
                f"directed edge {(int(src[c]), int(dst[c]))} appears in two faces; "
                "orientations disagree"
            )
        reverse_keys = rank_dst * len(ids) + rank
        reverse = np.minimum(np.searchsorted(sorted_keys, reverse_keys), len(keys) - 1)
        lone = sorted_keys[reverse] != reverse_keys
        if lone.any():
            c = int(np.argmax(lone))
            raise NonManifoldEdgeError(
                f"edge {{{int(src[c])}, {int(dst[c])}}} borders only one face"
            )

        edge_count = len(keys) // 2
        if vertex_count - edge_count + len(faces) != 0:
            raise EulerCharacteristicError(
                f"V - E + F = {vertex_count - edge_count + len(faces)}, expected 0"
            )

        # Edge ids are positions in sorted order; corner_edge inverts it.
        corner_edge = np.empty_like(order)
        corner_edge[order] = np.arange(len(order))
        face_edges = corner_edge.reshape(faces.shape)
        reverse_index = reverse[order]
        directed = np.column_stack([src[order], dst[order]])

        # Stitch the rotation system: inside face (v, a, b) the
        # counterclockwise successor of edge v->a around v is v->b, the
        # reverse of the face's previous edge b->v. Walk every vertex's
        # ring at once from its smallest neighbor; a walk that closes
        # before the degree is reached leaves a second cycle.
        succ = reverse_index[np.roll(face_edges, 1, axis=1).ravel()[order]]
        degree = np.bincount(directed[:, 0], minlength=vertex_count)
        offsets = np.concatenate([[0], np.cumsum(degree)])
        ring = np.empty_like(succ)
        split = np.zeros(vertex_count, dtype=bool)
        verts = np.flatnonzero(degree)
        cur = offsets[verts]
        step = 0
        while len(verts):
            ring[offsets[verts] + step] = cur
            cur = succ[cur]
            step += 1
            closed = cur == offsets[verts]
            split[verts[closed & (degree[verts] > step)]] = True
            verts, cur = verts[~closed], cur[~closed]
        bad = np.flatnonzero((degree == 0) | split)
        if len(bad):
            v = int(bad[0])
            if degree[v] == 0:
                raise DisconnectedError(f"vertex {v} lies in no face")
            raise NonManifoldVertexError(f"faces around vertex {v} form more than one cycle")

        if not _connected(directed[:, 0], directed[:, 1], vertex_count):
            raise DisconnectedError("one-skeleton is not connected")

        self.vertex_count = int(vertex_count)
        self.directed_edges = directed.astype(np.int32)
        table, moved = self._resolve_shifts(reverse_index, order, shifts)

        # Only a face with a nonzero shift can fail to sum to zero.
        checked = np.unique(order[moved] // 3)
        total = table[face_edges[checked]].sum(axis=1, dtype=np.int64)
        broken = (total != 0).any(axis=1)
        if broken.any():
            fi = int(np.argmax(broken))
            i, j, k = faces[checked[fi]].tolist()
            raise CocycleViolationError(
                f"shifts around face ({i}, {j}, {k}) sum to {tuple(total[fi].tolist())}"
            )

        self.edge_count = edge_count
        self.faces = faces.astype(np.int32)
        self.rotation_offsets = offsets.astype(np.int32)
        self.rotation_edges = ring.astype(np.int32)
        self.shifts = table
        self.reverse_index = reverse_index.astype(np.int32)
        self.face_edges = face_edges.astype(np.int32)
        self._corner = order.astype(np.int32)
        self._cache = {}

    def _resolve_shifts(self, rev, order, shifts):
        """The int32 shift table, resolved on the given rows, and the edges
        with a nonzero shift. order[e] is edge e's corner; a conflict names
        the orientation met first."""
        rows = [(*k, *v) for k, v in dict(shifts or {}).items()]
        rows = _integral(rows or np.zeros((0, 4), dtype=np.int64), "shift entry")
        pos = self.edge_ids(rows[:, 0], rows[:, 1])
        if (pos < 0).any():
            i, j = map(int, rows[np.argmax(pos < 0), :2])
            raise MeshError(f"shift given for non-edge ({i}, {j})")
        wide = ((rows[:, 2:] <= -2**31) | (rows[:, 2:] >= 2**31)).any(axis=1)
        if wide.any():
            i, j, bx, by = map(int, rows[np.argmax(wide)])
            raise MeshError(f"shift ({bx}, {by}) of edge ({i}, {j}) does not fit in int32")
        values = rows[:, 2:].astype(np.int64)
        row_of = np.full(len(rev), -1)
        row_of[pos] = np.arange(len(pos))
        partner = row_of[rev[pos]]
        conflict = (partner >= 0) & (values != -values[partner]).any(axis=1)
        if conflict.any():
            e = pos[conflict]
            i, j = self.directed_edges[e[np.argmin(order[e])]].tolist()
            raise ShiftConflictError(
                f"shifts for ({i}, {j}) and ({j}, {i}) are not antisymmetric"
            )
        table = np.zeros((len(rev), 2), dtype=np.int32)
        table[rev[pos]] = -values
        table[pos] = values
        moved = pos[values.any(axis=1)]
        return table, np.concatenate([moved, rev[moved]])

    def edge_ids(self, i, j):
        """Positions of the edges (i, j) in ``directed_edges``, broadcast; -1
        for non-edges. The sorted int64 keys ``i * n + j`` are built per call
        and cannot overflow, since a valid mesh has n = E - F."""
        n = self.vertex_count
        i, j = (np.asarray(np.clip(np.asarray(x), -1, n), dtype=np.int64) for x in (i, j))
        keys = np.where((i >= 0) & (i < n) & (j >= 0) & (j < n), i * n + j, -1)
        edge_keys = self.directed_edges[:, 0].astype(np.int64) * n + self.directed_edges[:, 1]
        pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        return np.where(edge_keys[pos] == keys, pos, -1)

    def degree(self, v):
        return int(self.rotation_offsets[v + 1] - self.rotation_offsets[v])


def _integral(values, name):
    """``values`` as an array for an int64 cast. A value that is not a
    number is a TypeError, and MeshError names the first float that is
    not an integer; whole floats, and ints that NumPy read as floats
    because they do not all fit one integer type, come back as Python
    objects, so the cast checks their range."""
    array = np.asarray(values)
    if array.dtype.kind not in "iufO":
        raise TypeError(f"a {name} is not a number")
    if array.dtype.kind == "f":
        bad = ~np.isfinite(array) | (array != np.trunc(array))
        if bad.any():
            raise MeshError(f"{name} {array.ravel()[np.argmax(bad)].item()!r} is not an integer")
        array = np.array(values, dtype=object)
    return array


def _connected(src, dst, n):
    """Whether the graph on n vertices with symmetric edge list (src, dst)
    is connected.

    Hook and shortcut (Shiloach & Vishkin, J. Algorithms 1982): every
    root takes the smallest root next to its tree, then every vertex
    jumps to its root. A tree that neither hooks nor is hooked onto has
    only larger neighbors, which hook onto smaller roots, so it hooks in
    the next round: the trees at least halve every two rounds, and the
    rounds grow like log V, where a level search takes one per level.
    """
    root = np.arange(n)
    while root.any():
        hooked = root.copy()
        np.minimum.at(hooked, root[src], root[dst])
        if (hooked == root).all():
            return False
        root = hooked
        while (root[root] != root).any():
            root = root[root]
    return True


def _breadth_first_tree(offsets, targets):
    """Parent edge of every vertex in a breadth-first tree from vertex 0.

    ``targets[offsets[v]:offsets[v + 1]]`` are the neighbors of v, and
    the result holds positions in ``targets``, -1 at vertex 0 and at
    vertices it does not reach. One level at a time: each new vertex
    keeps the first edge that reaches it from the previous level, in
    queue order and then row order, and the new level is queued in
    that order, so the tree is the one a queue-based search gives.
    """
    n = len(offsets) - 1
    degree, count = np.diff(offsets), np.arange(len(targets))
    parent = np.full(n, -1, dtype=np.int64)
    # -1 once reached; otherwise, within a level, the vertex's first edge in the list
    first = np.full(n, len(targets))
    first[0] = -1
    level = np.zeros(1, dtype=np.int64)
    while len(level):
        lo, size = offsets[level], degree[level]
        ends = np.cumsum(size)
        edges = count[:ends[-1]] + np.repeat(lo - ends + size, size)
        heads = targets[edges]
        order = count[:len(edges)]
        np.minimum.at(first, heads, order)
        keep = first[heads] == order
        first[heads] = -1  # every head is reached by the end of this level
        edges, level = edges[keep], heads[keep]
        parent[level] = edges
    return parent


def build_mesh(faces, shifts=None, vertex_count=None):
    """Validate faces and shifts and return a :class:`TorusTriangulation`.

    Parameters
    ----------
    faces : sequence of (i, j, k) vertex triples, counterclockwise.
    shifts : mapping from directed edge (i, j) to a lattice vector.
        One orientation per edge suffices; the reverse is filled by
        antisymmetry and unlisted edges default to (0, 0).
    vertex_count : optional explicit vertex count, at least max id + 1.

    Raises the specific :class:`~torustutte.errors.MeshError` subclass
    naming the first violated invariant.
    """
    return TorusTriangulation(faces, shifts, vertex_count)


def generator_loops(mesh):
    """Shortest closed walks through vertex 0 with shift sums (1,0) and (0,1).

    A breadth-first tree from vertex 0 gives each vertex the potential
    p_v, the shift sum along its tree path, and each edge the value
    c_ij = p_i + b_ij - p_j, the shift sum of the closed walk 0 -> i -> j
    -> 0. A walk from 0 has the shift sum of its c values once it closes,
    and c does not change under a re-gauging b_ij += t_j - t_i. The
    search is breadth-first over (vertex, sum of c) states from (0, 0, 0)
    until both (0, 1, 0) and (0, 0, 1) are reached, moves in rotation
    order, the first parent found kept. It ends when the c values
    generate Z^2, that is when their 2 x 2 determinants have gcd 1;
    otherwise NoGeneratorLoopError is raised before it starts. Cached on
    the mesh.
    """
    cached = mesh._cache.get("generator_loops")
    if cached is None:
        src, dst = mesh.directed_edges.T.copy()
        tree = _breadth_first_tree(mesh.rotation_offsets, dst)
        p = np.where(tree[:, None] >= 0, mesh.shifts[tree], 0).astype(np.int64)
        # Pointer doubling: p[v] sums the path from v up to up[v].
        up = np.where(tree >= 0, src[tree], 0)
        while up.any():
            p, up = p + p[up], up[up]
        c = p[src] + mesh.shifts - p[dst]
        values = np.unique(c, axis=0).tolist()
        if math.gcd(*(x * w - y * z for (x, y), (z, w) in combinations(values, 2))) != 1:
            raise NoGeneratorLoopError(
                "the shift sums of closed walks do not generate Z^2"
            )
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

        cached = GeneratorLoops(horizontal=walk(horizontal), vertical=walk(vertical))
        mesh._cache["generator_loops"] = cached
    return cached
